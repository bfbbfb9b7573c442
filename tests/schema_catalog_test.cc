#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "test_util.h"

namespace mmdb {
namespace {

Schema AccountSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"balance", ColumnType::kInt64},
                 {"owner", ColumnType::kString}});
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema s = AccountSchema();
  Tuple t{int64_t{42}, int64_t{-100}, std::string("alice")};
  ASSERT_OK_AND_ASSIGN(auto bytes, s.Encode(t));
  ASSERT_OK_AND_ASSIGN(auto back, s.Decode(bytes));
  EXPECT_EQ(back, t);
}

TEST(SchemaTest, EncodeProducesGoldenBytes) {
  // Pins the tuple wire format: int64 as 8 little-endian bytes, string as
  // a u32 little-endian length plus its bytes. Partition images and log
  // records on disk hold these bytes, so they must never change.
  Schema s = AccountSchema();
  Tuple t{int64_t{0x0102030405060708}, int64_t{-2}, std::string("ab")};
  ASSERT_OK_AND_ASSIGN(auto bytes, s.Encode(t));
  const std::vector<uint8_t> golden = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // id
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // balance = -2
      0x02, 0x00, 0x00, 0x00, 'a',  'b',               // owner
  };
  EXPECT_EQ(bytes, golden);
  EXPECT_EQ(bytes.capacity(), golden.size());  // reserved exactly once
}

TEST(WireTest, PutHelpersAppendLittleEndianWords) {
  std::vector<uint8_t> b{0xAA};
  wire::PutU16(&b, 0x0102);
  wire::PutU32(&b, 0x03040506);
  wire::PutU64(&b, 0x0708090A0B0C0D0E);
  wire::PutI64(&b, -1);
  wire::PutU8(&b, 0x0F);
  const std::vector<uint8_t> golden = {
      0xAA, 0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 0x0E, 0x0D,
      0x0C, 0x0B, 0x0A, 0x09, 0x08, 0x07, 0xFF, 0xFF, 0xFF,
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F,
  };
  EXPECT_EQ(b, golden);
}

TEST(SchemaTest, ValidateRejectsArityAndTypeMismatch) {
  Schema s = AccountSchema();
  EXPECT_TRUE(s.Validate(Tuple{int64_t{1}}).IsInvalidArgument());
  EXPECT_TRUE(
      s.Validate(Tuple{int64_t{1}, std::string("x"), std::string("y")})
          .IsInvalidArgument());
  EXPECT_OK(s.Validate(Tuple{int64_t{1}, int64_t{2}, std::string("y")}));
}

TEST(SchemaTest, DecodeRejectsTruncatedAndTrailing) {
  Schema s = AccountSchema();
  Tuple t{int64_t{1}, int64_t{2}, std::string("bob")};
  ASSERT_OK_AND_ASSIGN(auto bytes, s.Encode(t));
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 1);
  EXPECT_TRUE(s.Decode(truncated).status().IsCorruption());
  bytes.push_back(0);
  EXPECT_TRUE(s.Decode(bytes).status().IsCorruption());
}

TEST(SchemaTest, EmptyStringsAndExtremeValues) {
  Schema s({{"a", ColumnType::kString}, {"b", ColumnType::kInt64}});
  Tuple t{std::string(""), std::numeric_limits<int64_t>::min()};
  ASSERT_OK_AND_ASSIGN(auto bytes, s.Encode(t));
  ASSERT_OK_AND_ASSIGN(auto back, s.Decode(bytes));
  EXPECT_EQ(back, t);
}

TEST(SchemaTest, SerializeDeserializeSchema) {
  Schema s = AccountSchema();
  auto bytes = s.Serialize();
  size_t consumed = 0;
  ASSERT_OK_AND_ASSIGN(Schema back, Schema::Deserialize(bytes, &consumed));
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(back, s);
}

TEST(SchemaTest, FindColumn) {
  Schema s = AccountSchema();
  EXPECT_EQ(s.FindColumn("balance"), 1);
  EXPECT_EQ(s.FindColumn("nope"), -1);
}

TEST(WireTest, ReaderBoundsChecking) {
  std::vector<uint8_t> b;
  wire::PutU32(&b, 7);
  wire::Reader r(b);
  uint64_t v64;
  EXPECT_FALSE(r.GetU64(&v64));  // only 4 bytes available
  uint32_t v32;
  EXPECT_TRUE(r.GetU32(&v32));
  EXPECT_EQ(v32, 7u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(DiskAllocationMapTest, PseudoCircularAllocation) {
  DiskAllocationMap m(4, 6);
  ASSERT_OK_AND_ASSIGN(uint64_t s0, m.Allocate(100));
  ASSERT_OK_AND_ASSIGN(uint64_t s1, m.Allocate(101));
  EXPECT_EQ(s0, 0u);
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(m.SlotFirstPage(s1), 6u);
  ASSERT_OK(m.Free(s0));
  // Head is past slot 0, so allocation continues forward first.
  ASSERT_OK_AND_ASSIGN(uint64_t s2, m.Allocate(102));
  EXPECT_EQ(s2, 2u);
  ASSERT_OK_AND_ASSIGN(uint64_t s3, m.Allocate(103));
  EXPECT_EQ(s3, 3u);
  // Wraps around, skipping the still-used slots, to the freed slot 0.
  ASSERT_OK_AND_ASSIGN(uint64_t s4, m.Allocate(104));
  EXPECT_EQ(s4, 0u);
  EXPECT_TRUE(m.Allocate(105).status().IsFull());
}

TEST(DiskAllocationMapTest, FreeAndReclaimValidation) {
  DiskAllocationMap m(4, 6);
  EXPECT_TRUE(m.Free(9).IsInvalidArgument());
  EXPECT_TRUE(m.Free(1).IsInvalidArgument());  // not in use
  ASSERT_OK_AND_ASSIGN(uint64_t s, m.Allocate(42));
  ASSERT_OK(m.Free(s));
  ASSERT_OK(m.Reclaim(s, 42));
  EXPECT_EQ(m.owner(s), 42u);
  EXPECT_TRUE(m.Reclaim(s, 43).IsInvalidArgument());  // in use
}

TEST(DiskAllocationMapTest, ChunkSerializeApplyRoundTrip) {
  DiskAllocationMap m(600, 6);
  ASSERT_OK(m.Allocate(1).status());
  ASSERT_OK(m.Allocate(2).status());
  // Slot in the second chunk:
  for (int i = 0; i < 300; ++i) ASSERT_OK(m.Allocate(100 + i).status());
  EXPECT_EQ(m.num_chunks(), 3u);

  DiskAllocationMap rebuilt;
  for (uint32_t c = 0; c < m.num_chunks(); ++c) {
    ASSERT_OK(rebuilt.ApplyChunk(m.SerializeChunk(c)));
  }
  EXPECT_EQ(rebuilt.num_slots(), 600u);
  EXPECT_EQ(rebuilt.free_count(), m.free_count());
  EXPECT_EQ(rebuilt.head(), m.head());
  for (uint64_t s = 0; s < 600; ++s) EXPECT_EQ(rebuilt.owner(s), m.owner(s));
}

TEST(CatalogTest, CreateAndLookupRelations) {
  Catalog c;
  ASSERT_OK_AND_ASSIGN(RelationInfo * r,
                       c.CreateRelation("acct", AccountSchema(), 2));
  EXPECT_EQ(r->id, 1u);
  EXPECT_TRUE(c.CreateRelation("acct", AccountSchema(), 3)
                  .status()
                  .IsInvalidArgument());
  ASSERT_OK_AND_ASSIGN(RelationInfo * got, c.GetRelation("acct"));
  EXPECT_EQ(got, r);
  ASSERT_OK_AND_ASSIGN(RelationInfo * by_id, c.GetRelationById(1));
  EXPECT_EQ(by_id, r);
  EXPECT_TRUE(c.GetRelation("other").status().IsNotFound());
  EXPECT_EQ(c.AllRelations().size(), 1u);
}

TEST(CatalogTest, IndexesAttachToRelations) {
  Catalog c;
  ASSERT_OK(c.CreateRelation("acct", AccountSchema(), 2).status());
  ASSERT_OK_AND_ASSIGN(IndexInfo * idx,
                       c.CreateIndex("acct_id", 1, 0, IndexType::kTTree, 3));
  EXPECT_EQ(idx->segment, 3u);
  ASSERT_OK_AND_ASSIGN(RelationInfo * rel, c.GetRelation("acct"));
  ASSERT_EQ(rel->index_names.size(), 1u);
  EXPECT_EQ(rel->index_names[0], "acct_id");
  EXPECT_EQ(c.RelationIndexes(1).size(), 1u);
  EXPECT_TRUE(c.CreateIndex("acct_id", 1, 0, IndexType::kLinearHash, 4)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      c.CreateIndex("x", 99, 0, IndexType::kTTree, 5).status().IsNotFound());
}

TEST(CatalogTest, DescriptorLookupBySegment) {
  Catalog c;
  ASSERT_OK_AND_ASSIGN(RelationInfo * rel,
                       c.CreateRelation("acct", AccountSchema(), 2));
  PartitionDescriptor d;
  d.id = {2, 0};
  rel->partitions.push_back(d);
  ASSERT_OK_AND_ASSIGN(PartitionDescriptor * found, c.FindDescriptor({2, 0}));
  EXPECT_EQ(found->id, (PartitionId{2, 0}));
  EXPECT_TRUE(c.FindDescriptor({2, 5}).status().IsNotFound());
  EXPECT_TRUE(c.FindDescriptor({9, 0}).status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(RelationInfo * owner, c.RelationOfSegment(2));
  EXPECT_EQ(owner, rel);
  EXPECT_EQ(c.SegmentOwnerName(2), "relation acct");
}

TEST(CatalogTest, RowSerializationRebuildRoundTrip) {
  Catalog c;
  ASSERT_OK_AND_ASSIGN(RelationInfo * rel,
                       c.CreateRelation("acct", AccountSchema(), 2));
  ASSERT_OK_AND_ASSIGN(
      IndexInfo * idx,
      c.CreateIndex("acct_id", rel->id, 0, IndexType::kLinearHash, 3));
  PartitionDescriptor d;
  d.id = {2, 0};
  d.checkpoint_page = 60;
  d.checkpoint_slot = 10;
  rel->partitions.push_back(d);
  PartitionDescriptor di;
  di.id = {3, 0};
  idx->partitions.push_back(di);

  DiskAllocationMap map(100, 6);
  ASSERT_OK(map.Allocate(d.id.Pack()).status());

  std::vector<std::pair<EntityAddr, std::vector<uint8_t>>> rows;
  rows.emplace_back(EntityAddr{{1, 0}, 0}, Catalog::SerializeRelationRow(*rel));
  rows.emplace_back(EntityAddr{{1, 0}, 1}, Catalog::SerializeIndexRow(*idx));
  rows.emplace_back(EntityAddr{{1, 0}, 2},
                    Catalog::SerializePartitionRow(rel->id, false, "acct", d));
  rows.emplace_back(
      EntityAddr{{1, 0}, 3},
      Catalog::SerializePartitionRow(rel->id, true, "acct_id", di));
  rows.emplace_back(EntityAddr{{1, 0}, 4}, Catalog::SerializeDiskMapRow(map, 0));

  Catalog rebuilt;
  DiskAllocationMap rebuilt_map;
  ASSERT_OK(rebuilt.Rebuild(rows, &rebuilt_map));

  ASSERT_OK_AND_ASSIGN(RelationInfo * r2, rebuilt.GetRelation("acct"));
  EXPECT_EQ(r2->id, rel->id);
  EXPECT_EQ(r2->schema, rel->schema);
  ASSERT_EQ(r2->partitions.size(), 1u);
  EXPECT_EQ(r2->partitions[0].checkpoint_page, 60u);
  EXPECT_FALSE(r2->partitions[0].resident);  // residency is volatile
  ASSERT_OK_AND_ASSIGN(IndexInfo * i2, rebuilt.GetIndex("acct_id"));
  EXPECT_EQ(i2->type, IndexType::kLinearHash);
  ASSERT_EQ(i2->partitions.size(), 1u);
  EXPECT_EQ(rebuilt_map.owner(0), d.id.Pack());
  EXPECT_EQ(rebuilt.next_relation_id(), rel->id + 1);
}

TEST(CatalogTest, DropRelationRemovesIndexes) {
  Catalog c;
  ASSERT_OK(c.CreateRelation("acct", AccountSchema(), 2).status());
  ASSERT_OK(c.CreateIndex("i1", 1, 0, IndexType::kTTree, 3).status());
  ASSERT_OK(c.DropRelation("acct"));
  EXPECT_TRUE(c.GetRelation("acct").status().IsNotFound());
  EXPECT_TRUE(c.GetIndex("i1").status().IsNotFound());
}

}  // namespace
}  // namespace mmdb
