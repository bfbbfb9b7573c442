#include "sim/disk.h"

#include <algorithm>

#include "util/crc32.h"
#include "util/logging.h"

namespace mmdb::sim {

namespace {
constexpr double kMsToNs = 1e6;
}  // namespace

void Disk::AttachMetrics(obs::MetricsRegistry* reg) {
  const std::string p = "disk." + name_ + ".";
  m_pages_written_ = reg->counter(p + "pages_written");
  m_pages_read_ = reg->counter(p + "pages_read");
  m_bytes_written_ = reg->counter(p + "bytes_written");
  m_bytes_read_ = reg->counter(p + "bytes_read");
  m_write_ns_ = reg->histogram(p + "write_ns");
  m_read_ns_ = reg->histogram(p + "read_ns");
}

uint64_t Disk::PositioningNs(SeekClass seek) const {
  double ms = params_.settle_ms;
  switch (seek) {
    case SeekClass::kSequential:
      break;  // interleaved sectors: settle time only
    case SeekClass::kNear:
      ms += params_.near_seek_ms;
      break;
    case SeekClass::kRandom:
      ms += params_.avg_seek_ms;
      break;
  }
  return static_cast<uint64_t>(ms * kMsToNs);
}

bool Disk::PageClean(uint64_t page_no) const {
  auto it = store_.find(page_no);
  if (it == store_.end()) return false;
  const std::vector<uint8_t>& bytes = *it->second.bytes;
  return Crc32(bytes.data(), bytes.size()) == it->second.crc;
}

std::vector<uint64_t> Disk::StoredPageNumbers() const {
  std::vector<uint64_t> pages;
  pages.reserve(store_.size());
  for (const auto& [page_no, page] : store_) pages.push_back(page_no);
  std::sort(pages.begin(), pages.end());
  return pages;
}

void Disk::Discard(uint64_t first_page_no, uint64_t pages) {
  for (uint64_t i = 0; i < pages; ++i) store_.erase(first_page_no + i);
}

Result<Disk::StoredPage*> Disk::Find(uint64_t page_no) {
  auto it = store_.find(page_no);
  if (it == store_.end()) {
    return Status::NotFound("disk " + name_ + ": page " +
                            std::to_string(page_no) + " never written");
  }
  return &it->second;
}

Status Disk::CheckReadPage(uint64_t page_no, StoredPage* stored,
                           uint64_t now_ns) {
  if (fault_ != nullptr && fault_->armed()) {
    // The hook may flip stored bits (latent corruption). It works on a
    // private copy, which replaces only this disk's ref if it changed:
    // the mirror and the archive keep the bytes as written.
    std::vector<uint8_t> bytes = *stored->bytes;
    fault::SiteEvent ev;
    ev.site = fault::Site::kDiskRead;
    ev.device = name_.c_str();
    ev.page_no = page_no;
    ev.now_ns = now_ns;
    ev.data = &bytes;
    Status st = fault_->OnSite(&ev);
    if (bytes != *stored->bytes) stored->bytes = MakePage(std::move(bytes));
    MMDB_RETURN_IF_ERROR(st);
  }
  const std::vector<uint8_t>& bytes = *stored->bytes;
  if (Crc32(bytes.data(), bytes.size()) != stored->crc) {
    return Status::Corruption("latent sector corruption on disk " + name_ +
                              " page " + std::to_string(page_no));
  }
  return Status::OK();
}

uint64_t Disk::WritePage(uint64_t page_no, PageRef data, uint64_t now_ns,
                         SeekClass seek) {
  uint32_t crc = Crc32(data->data(), data->size());
  return WriteStored(page_no, StoredPage{std::move(data), crc}, now_ns, seek);
}

uint64_t Disk::WriteStored(uint64_t page_no, const StoredPage& page,
                           uint64_t now_ns, SeekClass seek) {
  const std::vector<uint8_t>& data = *page.bytes;
  MMDB_CHECK(data.size() <= params_.page_size_bytes);
  size_t keep = data.size();
  bool suppress = false;
  if (fault_ != nullptr && fault_->armed()) {
    fault::SiteEvent ev;
    ev.site = fault::Site::kDiskWrite;
    ev.device = name_.c_str();
    ev.page_no = page_no;
    ev.now_ns = now_ns;
    ev.write_size = data.size();
    Status st = fault_->OnSite(&ev);
    if (ev.torn_keep_bytes < data.size()) keep = ev.torn_keep_bytes;
    // A crash with no torn spec on the same visit means the write never
    // reached the platter; the caller's barrier surfaces the crash.
    if (!st.ok() && keep == data.size()) suppress = true;
  }
  uint64_t start = BeginOp(now_ns);
  uint64_t pos = PositioningNs(seek);
  auto xfer = static_cast<uint64_t>(params_.page_transfer_ms * kMsToNs);
  uint64_t done = start + pos + xfer;
  busy_until_ns_ = done;
  busy_ns_total_ += static_cast<double>(pos + xfer);
  if (!suppress) {
    StoredPage& slot = store_[page_no];
    if (keep < data.size()) {
      // Torn write: new prefix, old suffix (sector-consistent, so the
      // device CRC matches the stored hybrid; only content-level
      // checksums can tell). The hybrid is this disk's private buffer.
      std::vector<uint8_t> torn(data.begin(),
                                data.begin() + static_cast<long>(keep));
      if (slot.bytes != nullptr && slot.bytes->size() > keep) {
        torn.insert(torn.end(), slot.bytes->begin() + static_cast<long>(keep),
                    slot.bytes->end());
      }
      slot.crc = Crc32(torn.data(), torn.size());
      slot.bytes = MakePage(std::move(torn));
    } else {
      slot = page;
    }
  }
  ++pages_written_;
  if (seek != SeekClass::kSequential) ++seeks_;
  bytes_written_ += data.size();
  NoteWrite(1, data.size(), now_ns, done);
  return done;
}

uint64_t Disk::WriteTrack(uint64_t first_page_no,
                          const std::vector<PageRef>& pages, uint64_t now_ns,
                          SeekClass seek) {
  auto keep_pages = static_cast<uint32_t>(pages.size());
  bool suppress = false;
  if (fault_ != nullptr && fault_->armed()) {
    fault::SiteEvent ev;
    ev.site = fault::Site::kDiskWrite;
    ev.device = name_.c_str();
    ev.page_no = first_page_no;
    ev.now_ns = now_ns;
    ev.track_pages = static_cast<uint32_t>(pages.size());
    Status st = fault_->OnSite(&ev);
    if (ev.torn_keep_pages < pages.size()) keep_pages = ev.torn_keep_pages;
    if (!st.ok() && keep_pages == pages.size()) suppress = true;
  }
  uint64_t start = BeginOp(now_ns);
  uint64_t pos = PositioningNs(seek);
  double per_page_ms = params_.page_transfer_ms / params_.track_rate_multiplier;
  auto xfer = static_cast<uint64_t>(per_page_ms * kMsToNs *
                                    static_cast<double>(pages.size()));
  uint64_t done = start + pos + xfer;
  busy_until_ns_ = done;
  busy_ns_total_ += static_cast<double>(pos + xfer);
  uint64_t track_bytes = 0;
  for (size_t i = 0; i < pages.size(); ++i) {
    const std::vector<uint8_t>& data = *pages[i];
    MMDB_CHECK(data.size() <= params_.page_size_bytes);
    if (!suppress && i < keep_pages) {
      store_[first_page_no + i] =
          StoredPage{pages[i], Crc32(data.data(), data.size())};
    }
    bytes_written_ += data.size();
    track_bytes += data.size();
  }
  pages_written_ += pages.size();
  ++tracks_written_;
  if (seek != SeekClass::kSequential) ++seeks_;
  NoteWrite(pages.size(), track_bytes, now_ns, done);
  return done;
}

Status Disk::ReadPage(uint64_t page_no, uint64_t now_ns, SeekClass seek,
                      PageRef* data, uint64_t* done_ns) {
  if (failed_) {
    return Status::IOError("media failure on disk " + name_);
  }
  auto found = Find(page_no);
  if (!found.ok()) return found.status();
  StoredPage* page = found.value();
  MMDB_RETURN_IF_ERROR(CheckReadPage(page_no, page, now_ns));
  uint64_t start = BeginOp(now_ns);
  uint64_t pos = PositioningNs(seek);
  auto xfer = static_cast<uint64_t>(params_.page_transfer_ms * kMsToNs);
  uint64_t done = start + pos + xfer;
  busy_until_ns_ = done;
  busy_ns_total_ += static_cast<double>(pos + xfer);
  *data = page->bytes;
  *done_ns = done;
  ++pages_read_;
  if (seek != SeekClass::kSequential) ++seeks_;
  bytes_read_ += page->bytes->size();
  NoteRead(1, page->bytes->size(), now_ns, done);
  return Status::OK();
}

Status Disk::ReadTrackInto(uint64_t first_page_no, uint32_t pages,
                           uint64_t now_ns, SeekClass seek,
                           std::vector<uint8_t>* out, uint64_t* done_ns) {
  if (failed_) {
    return Status::IOError("media failure on disk " + name_);
  }
  uint64_t track_bytes = 0;
  size_t restore_size = out->size();
  out->reserve(restore_size +
               static_cast<size_t>(pages) * params_.page_size_bytes);
  for (uint32_t i = 0; i < pages; ++i) {
    auto found = Find(first_page_no + i);
    Status st = found.ok() ? CheckReadPage(first_page_no + i, found.value(),
                                           now_ns)
                           : found.status();
    if (!st.ok()) {
      out->resize(restore_size);
      return st;
    }
    const std::vector<uint8_t>& bytes = *found.value()->bytes;
    out->insert(out->end(), bytes.begin(), bytes.end());
    bytes_read_ += bytes.size();
    track_bytes += bytes.size();
  }
  uint64_t start = BeginOp(now_ns);
  uint64_t pos = PositioningNs(seek);
  double per_page_ms = params_.page_transfer_ms / params_.track_rate_multiplier;
  auto xfer =
      static_cast<uint64_t>(per_page_ms * kMsToNs * static_cast<double>(pages));
  uint64_t done = start + pos + xfer;
  busy_until_ns_ = done;
  busy_ns_total_ += static_cast<double>(pos + xfer);
  *done_ns = done;
  pages_read_ += pages;
  if (seek != SeekClass::kSequential) ++seeks_;
  NoteRead(pages, track_bytes, now_ns, done);
  return Status::OK();
}

uint64_t DuplexedDisk::WritePage(uint64_t page_no, PageRef data,
                                 uint64_t now_ns, SeekClass seek) {
  uint32_t crc = Crc32(data->data(), data->size());
  const Disk::StoredPage page{std::move(data), crc};
  uint64_t a = primary_.WriteStored(page_no, page, now_ns, seek);
  uint64_t b = mirror_.WriteStored(page_no, page, now_ns, seek);
  return a > b ? a : b;
}

Status DuplexedDisk::ReadWithFallback(Disk* first, Disk* second,
                                      uint64_t page_no, uint64_t now_ns,
                                      SeekClass seek, PageRef* data,
                                      uint64_t* done_ns) {
  Status st1 = first->ReadPage(page_no, now_ns, seek, data, done_ns);
  if (st1.ok() || st1.IsFault()) return st1;
  Status st2 = second->ReadPage(page_no, now_ns, seek, data, done_ns);
  if (st2.ok()) {
    ++mirror_fallbacks_;
    if (m_fallbacks_ != nullptr) m_fallbacks_->Add(1);
    return st2;
  }
  if (st2.IsFault()) return st2;
  // Both copies failed: surface the most diagnostic status. NotFound is
  // preserved only when neither member has the page (sparse LSN probes
  // in ArchiveManager::RollLog rely on it).
  if (st1.IsCorruption()) return st1;
  if (st2.IsCorruption()) return st2;
  if (st1.IsIOError()) return st1;
  if (st2.IsIOError()) return st2;
  return st1;
}

}  // namespace mmdb::sim
