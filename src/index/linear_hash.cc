#include "index/linear_hash.h"

#include "catalog/schema.h"  // wire helpers
#include "util/logging.h"

namespace mmdb {

uint64_t LinearHash::HashKey(int64_t key) {
  // splitmix64 finalizer: well-mixed 64-bit hash of the key.
  uint64_t x = static_cast<uint64_t>(key) + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::vector<uint8_t> LinearHash::Meta::Serialize() const {
  std::vector<uint8_t> p;
  wire::PutU32(&p, level);
  wire::PutU32(&p, next);
  wire::PutU32(&p, base_buckets);
  wire::PutU16(&p, node_capacity);
  wire::PutU32(&p, max_chain_nodes);
  wire::PutU32(&p, static_cast<uint32_t>(directory.size()));
  for (const EntityAddr& a : directory) node::PutAddr(&p, a);
  return p;
}

Result<LinearHash::Meta> LinearHash::Meta::Parse(
    std::span<const uint8_t> payload) {
  wire::Reader r(payload);
  Meta m;
  uint32_t n;
  if (!r.GetU32(&m.level) || !r.GetU32(&m.next) || !r.GetU32(&m.base_buckets) ||
      !r.GetU16(&m.node_capacity) || !r.GetU32(&m.max_chain_nodes) ||
      !r.GetU32(&n)) {
    return Status::Corruption("bad linear hash meta");
  }
  m.directory.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    EntityAddr& a = m.directory[i];
    if (!r.GetU32(&a.partition.segment) || !r.GetU32(&a.partition.number) ||
        !r.GetU32(&a.slot)) {
      return Status::Corruption("truncated hash directory");
    }
  }
  return m;
}

uint32_t LinearHash::Meta::BucketOf(uint64_t hash) const {
  uint64_t round = static_cast<uint64_t>(base_buckets) << level;
  uint64_t b = hash % round;
  if (b < next) b = hash % (round << 1);
  return static_cast<uint32_t>(b);
}

Result<LinearHash> LinearHash::Create(EntityStore& store, SegmentId segment,
                                      uint32_t initial_buckets,
                                      uint16_t node_capacity,
                                      uint32_t max_chain_nodes) {
  if (initial_buckets == 0 || node_capacity == 0 || max_chain_nodes == 0) {
    return Status::InvalidArgument("bad linear hash parameters");
  }
  Meta m;
  m.base_buckets = initial_buckets;
  m.node_capacity = node_capacity;
  m.max_chain_nodes = max_chain_nodes;
  m.directory.assign(initial_buckets, EntityAddr::Null());
  auto addr = store.Insert(segment, node::SerializeMeta(m.Serialize()));
  if (!addr.ok()) return addr.status();
  return LinearHash(segment, addr.value());
}

Result<LinearHash> LinearHash::Attach(EntityStore& store, SegmentId segment) {
  EntityAddr meta_addr{{segment, 0}, 0};
  auto bytes = store.Read(meta_addr);
  if (!bytes.ok()) return bytes.status();
  auto payload = node::ParseMeta(bytes.value());
  if (!payload.ok()) return payload.status();
  auto meta = Meta::Parse(payload.value());
  if (!meta.ok()) return meta.status();
  return LinearHash(segment, meta_addr);
}

Result<LinearHash::Meta> LinearHash::ReadMeta(EntityStore& store) const {
  auto bytes = store.Read(meta_addr_);
  if (!bytes.ok()) return bytes.status();
  auto payload = node::ParseMeta(bytes.value());
  if (!payload.ok()) return payload.status();
  return Meta::Parse(payload.value());
}

namespace {
// Metadata entities are padded with headroom so directory growth usually
// updates in place instead of relocating within a partition crowded with
// hash nodes; parsing ignores trailing padding.
std::vector<uint8_t> PadMeta(std::vector<uint8_t> raw) {
  size_t target = ((raw.size() * 3 / 2) + 511) / 512 * 512;
  if (target > 60000) target = 60000;
  if (raw.size() < target) raw.resize(target, 0);
  return raw;
}
}  // namespace

Status LinearHash::WriteMeta(EntityStore& store, const Meta& m) const {
  return store.Update(meta_addr_,
                      node::SerializeMeta(PadMeta(m.Serialize())));
}

Status LinearHash::Insert(EntityStore& store, int64_t key, EntityAddr value) {
  auto mr = ReadMeta(store);
  if (!mr.ok()) return mr.status();
  Meta meta = std::move(mr).value();
  uint32_t bucket = meta.BucketOf(HashKey(key));
  node::Entry e{key, value};

  // Walk the chain looking for a node with room.
  EntityAddr cur = meta.directory[bucket];
  EntityAddr last = EntityAddr::Null();
  uint32_t chain_nodes = 0;
  while (!cur.IsNull()) {
    auto bytes = store.Read(cur);
    if (!bytes.ok()) return bytes.status();
    auto nr = node::HashNode::Parse(bytes.value());
    if (!nr.ok()) return nr.status();
    ++chain_nodes;
    if (nr.value().entries.size() < nr.value().capacity) {
      return store.NodeInsertEntry(cur, e);
    }
    last = cur;
    cur = nr.value().next;
  }

  // Chain full (or empty): create a new node.
  node::HashNode fresh;
  fresh.capacity = meta.node_capacity;
  fresh.entries.push_back(e);
  auto addr = store.Insert(segment_, fresh.Serialize());
  if (!addr.ok()) return addr.status();
  ++chain_nodes;

  if (last.IsNull()) {
    // First node of the bucket: directory update (metadata image).
    meta.directory[bucket] = addr.value();
    MMDB_RETURN_IF_ERROR(WriteMeta(store, meta));
  } else {
    // Append at tail: rewrite the last node's chain pointer.
    auto bytes = store.Read(last);
    if (!bytes.ok()) return bytes.status();
    auto nr = node::HashNode::Parse(bytes.value());
    if (!nr.ok()) return nr.status();
    node::HashNode ln = std::move(nr).value();
    ln.next = addr.value();
    MMDB_RETURN_IF_ERROR(store.Update(last, ln.Serialize()));
  }

  // Modified-linear-hashing trigger: chain grew past the threshold.
  if (chain_nodes > meta.max_chain_nodes) {
    uint64_t dir_bytes = (meta.directory.size() + 1) * 12 + 64;
    if (dir_bytes >= 60000) return Status::OK();  // entity size limit
    // Degrade gracefully when the bigger directory can no longer fit in
    // the metadata entity's partition: skip the split (chains lengthen,
    // correctness is unaffected).
    Meta probe = meta;
    probe.directory.push_back(EntityAddr::Null());
    size_t new_size =
        node::SerializeMeta(PadMeta(probe.Serialize())).size() + 16;
    auto fits = store.FitsUpdate(meta_addr_, new_size);
    if (!fits.ok()) return fits.status();
    if (!fits.value()) return Status::OK();
    return SplitOne(store, &meta);
  }
  return Status::OK();
}

Status LinearHash::SplitOne(EntityStore& store, Meta* meta) {
  uint32_t victim = meta->next;
  uint32_t new_bucket =
      (meta->base_buckets << meta->level) + meta->next;

  // Collect the victim chain's entries; the old chain is dismantled only
  // after the new chains and metadata are safely in place.
  std::vector<node::Entry> entries;
  std::vector<EntityAddr> old_nodes;
  EntityAddr cur = meta->directory[victim];
  while (!cur.IsNull()) {
    auto bytes = store.Read(cur);
    if (!bytes.ok()) return bytes.status();
    auto nr = node::HashNode::Parse(bytes.value());
    if (!nr.ok()) return nr.status();
    entries.insert(entries.end(), nr.value().entries.begin(),
                   nr.value().entries.end());
    old_nodes.push_back(cur);
    cur = nr.value().next;
  }

  // Advance split state first so BucketOf reflects the new round.
  meta->directory.push_back(EntityAddr::Null());
  MMDB_CHECK(meta->directory.size() == new_bucket + 1);
  meta->directory[victim] = EntityAddr::Null();
  ++meta->next;
  if (meta->next == (meta->base_buckets << meta->level)) {
    ++meta->level;
    meta->next = 0;
  }

  // Redistribute: build two fresh chains.
  std::vector<EntityAddr> fresh_nodes;
  auto build_chain = [&](const std::vector<node::Entry>& es)
      -> Result<EntityAddr> {
    EntityAddr head = EntityAddr::Null();
    EntityAddr tail = EntityAddr::Null();
    for (size_t i = 0; i < es.size(); i += meta->node_capacity) {
      node::HashNode n;
      n.capacity = meta->node_capacity;
      for (size_t j = i; j < es.size() && j < i + meta->node_capacity; ++j) {
        n.entries.push_back(es[j]);
      }
      auto addr = store.Insert(segment_, n.Serialize());
      if (!addr.ok()) return addr.status();
      fresh_nodes.push_back(addr.value());
      if (head.IsNull()) {
        head = addr.value();
      } else {
        auto bytes = store.Read(tail);
        if (!bytes.ok()) return bytes.status();
        auto tn = node::HashNode::Parse(bytes.value());
        if (!tn.ok()) return tn.status();
        node::HashNode t = std::move(tn).value();
        t.next = addr.value();
        MMDB_RETURN_IF_ERROR(store.Update(tail, t.Serialize()));
      }
      tail = addr.value();
    }
    return head;
  };

  std::vector<node::Entry> stay, move;
  for (const node::Entry& e : entries) {
    uint32_t b = meta->BucketOf(HashKey(e.key));
    if (b == victim) {
      stay.push_back(e);
    } else if (b == new_bucket) {
      move.push_back(e);
    } else {
      return Status::Corruption("split rehash landed outside pair");
    }
  }
  auto stay_head = build_chain(stay);
  if (!stay_head.ok()) return stay_head.status();
  auto move_head = build_chain(move);
  if (!move_head.ok()) return move_head.status();
  meta->directory[victim] = stay_head.value();
  meta->directory[new_bucket] = move_head.value();
  Status st = WriteMeta(store, *meta);
  if (st.IsFull()) {
    // Insert checked that the grown directory fits the metadata entity's
    // partition, but the fresh chain nodes may have been allocated in that
    // same partition since. Skip the split, as Insert does when the check
    // fails: free the fresh nodes; the stored directory and the victim
    // chain are unchanged.
    for (const EntityAddr& n : fresh_nodes) {
      MMDB_RETURN_IF_ERROR(store.Delete(n));
    }
    return Status::OK();
  }
  MMDB_RETURN_IF_ERROR(st);
  for (const EntityAddr& n : old_nodes) {
    MMDB_RETURN_IF_ERROR(store.Delete(n));
  }
  return Status::OK();
}

Status LinearHash::Remove(EntityStore& store, int64_t key, EntityAddr value) {
  auto mr = ReadMeta(store);
  if (!mr.ok()) return mr.status();
  Meta meta = std::move(mr).value();
  uint32_t bucket = meta.BucketOf(HashKey(key));
  node::Entry e{key, value};

  EntityAddr cur = meta.directory[bucket];
  EntityAddr prev = EntityAddr::Null();
  while (!cur.IsNull()) {
    auto bytes = store.Read(cur);
    if (!bytes.ok()) return bytes.status();
    auto nr = node::HashNode::Parse(bytes.value());
    if (!nr.ok()) return nr.status();
    const node::HashNode& n = nr.value();
    bool present = false;
    for (const node::Entry& x : n.entries) {
      if (x == e) {
        present = true;
        break;
      }
    }
    if (present) {
      MMDB_RETURN_IF_ERROR(store.NodeRemoveEntry(cur, e));
      if (n.entries.size() == 1) {
        // Node emptied: unlink it from the chain.
        if (prev.IsNull()) {
          meta.directory[bucket] = n.next;
          MMDB_RETURN_IF_ERROR(WriteMeta(store, meta));
        } else {
          auto pb = store.Read(prev);
          if (!pb.ok()) return pb.status();
          auto pn = node::HashNode::Parse(pb.value());
          if (!pn.ok()) return pn.status();
          node::HashNode p = std::move(pn).value();
          p.next = n.next;
          MMDB_RETURN_IF_ERROR(store.Update(prev, p.Serialize()));
        }
        MMDB_RETURN_IF_ERROR(store.Delete(cur));
      }
      return Status::OK();
    }
    prev = cur;
    cur = n.next;
  }
  return Status::NotFound("entry not in hash index");
}

Result<std::vector<EntityAddr>> LinearHash::Lookup(EntityStore& store,
                                                   int64_t key) const {
  auto mr = ReadMeta(store);
  if (!mr.ok()) return mr.status();
  const Meta& meta = mr.value();
  uint32_t bucket = meta.BucketOf(HashKey(key));
  std::vector<EntityAddr> out;
  EntityAddr cur = meta.directory[bucket];
  while (!cur.IsNull()) {
    auto bytes = store.Read(cur);
    if (!bytes.ok()) return bytes.status();
    auto nr = node::HashNode::Parse(bytes.value());
    if (!nr.ok()) return nr.status();
    for (const node::Entry& e : nr.value().entries) {
      if (e.key == key) out.push_back(e.value);
    }
    cur = nr.value().next;
  }
  return out;
}

Result<size_t> LinearHash::Size(EntityStore& store) const {
  auto mr = ReadMeta(store);
  if (!mr.ok()) return mr.status();
  size_t total = 0;
  for (const EntityAddr& head : mr.value().directory) {
    EntityAddr cur = head;
    while (!cur.IsNull()) {
      auto bytes = store.Read(cur);
      if (!bytes.ok()) return bytes.status();
      auto nr = node::HashNode::Parse(bytes.value());
      if (!nr.ok()) return nr.status();
      total += nr.value().entries.size();
      cur = nr.value().next;
    }
  }
  return total;
}

Result<uint32_t> LinearHash::BucketCount(EntityStore& store) const {
  auto mr = ReadMeta(store);
  if (!mr.ok()) return mr.status();
  return static_cast<uint32_t>(mr.value().directory.size());
}

Status LinearHash::CheckInvariants(EntityStore& store) const {
  auto mr = ReadMeta(store);
  if (!mr.ok()) return mr.status();
  const Meta& meta = mr.value();
  uint64_t expect =
      (static_cast<uint64_t>(meta.base_buckets) << meta.level) + meta.next;
  if (meta.directory.size() != expect) {
    return Status::Corruption("directory size inconsistent with split state");
  }
  for (uint32_t b = 0; b < meta.directory.size(); ++b) {
    EntityAddr cur = meta.directory[b];
    size_t guard = 0;
    while (!cur.IsNull()) {
      if (++guard > 1u << 20) return Status::Corruption("chain cycle");
      auto bytes = store.Read(cur);
      if (!bytes.ok()) return bytes.status();
      auto nr = node::HashNode::Parse(bytes.value());
      if (!nr.ok()) return nr.status();
      const node::HashNode& n = nr.value();
      if (n.entries.size() > n.capacity) {
        return Status::Corruption("overfull hash node");
      }
      for (const node::Entry& e : n.entries) {
        if (meta.BucketOf(HashKey(e.key)) != b) {
          return Status::Corruption("entry hashed to wrong bucket");
        }
      }
      cur = n.next;
    }
  }
  return Status::OK();
}

}  // namespace mmdb
