#include <gtest/gtest.h>

#include "recovery/archive.h"
#include "test_util.h"

namespace mmdb {
namespace {

std::vector<std::vector<uint8_t>> Track(uint8_t seed) {
  std::vector<std::vector<uint8_t>> pages;
  for (int i = 0; i < 6; ++i) {
    pages.push_back(testing::FilledBytes(1024, seed + i));
  }
  return pages;
}

// The six pages of Track(seed) end to end, as ReadTrackInto returns them.
std::vector<uint8_t> TrackBytes(uint8_t seed) {
  std::vector<uint8_t> bytes;
  for (auto& page : Track(seed)) {
    bytes.insert(bytes.end(), page.begin(), page.end());
  }
  return bytes;
}

std::vector<sim::PageRef> TrackRefs(uint8_t seed) {
  std::vector<sim::PageRef> refs;
  for (auto& page : Track(seed)) refs.push_back(sim::MakePage(page));
  return refs;
}

sim::PageRef LogPage(uint8_t seed) {
  return sim::MakePage(testing::FilledBytes(64, seed));
}

TEST(ArchiveManagerTest, KeepsLatestImagePerPartition) {
  ArchiveManager am;
  am.ArchiveCheckpointImage({1, 0}, 0, TrackRefs(1));
  am.ArchiveCheckpointImage({1, 0}, 60, TrackRefs(2));
  am.ArchiveCheckpointImage({2, 0}, 12, TrackRefs(3));
  EXPECT_EQ(am.archived_images(), 3u);

  sim::Disk disk("ckpt", sim::DiskParams{.page_size_bytes = 1024});
  uint64_t done = 0;
  ASSERT_OK(am.RecoverCheckpointDisk(&disk, 0, &done));
  EXPECT_GT(done, 0u);
  // The latest copy of {1,0} landed at its recorded location.
  std::vector<uint8_t> out;
  ASSERT_OK(
      disk.ReadTrackInto(60, 6, done, sim::SeekClass::kRandom, &out, &done));
  EXPECT_EQ(out, TrackBytes(2));
  out.clear();
  ASSERT_OK(
      disk.ReadTrackInto(12, 6, done, sim::SeekClass::kRandom, &out, &done));
  EXPECT_EQ(out, TrackBytes(3));
}

TEST(ArchiveManagerTest, RefusesRestoreOntoFailedMedia) {
  ArchiveManager am;
  am.ArchiveCheckpointImage({1, 0}, 0, TrackRefs(1));
  sim::Disk disk("ckpt", sim::DiskParams{});
  disk.FailMedia();
  uint64_t done;
  EXPECT_TRUE(
      am.RecoverCheckpointDisk(&disk, 0, &done).IsInvalidArgument());
  disk.RepairMedia();
  ASSERT_OK(am.RecoverCheckpointDisk(&disk, 0, &done));
}

TEST(ArchiveManagerTest, RollLogIsIdempotentAndSparseTolerant) {
  ArchiveManager am;
  sim::DuplexedDisk logs("log", sim::DiskParams{.page_size_bytes = 1024});
  // Write pages 0,1,3 (2 intentionally missing: sparse LSN space).
  logs.WritePage(0, LogPage(1), 0, sim::SeekClass::kNear);
  logs.WritePage(1, LogPage(2), 0, sim::SeekClass::kNear);
  logs.WritePage(3, LogPage(3), 0, sim::SeekClass::kNear);
  ASSERT_OK(am.RollLog(&logs, 4));
  EXPECT_EQ(am.archived_log_pages(), 3u);
  // Second roll over the same range does nothing.
  ASSERT_OK(am.RollLog(&logs, 4));
  EXPECT_EQ(am.archived_log_pages(), 3u);
  // Extending the range picks up only new pages.
  logs.WritePage(5, LogPage(4), 0, sim::SeekClass::kNear);
  ASSERT_OK(am.RollLog(&logs, 6));
  EXPECT_EQ(am.archived_log_pages(), 4u);
}

TEST(ArchiveManagerTest, ReleaseLogBelowKeepsPagesFromTheTail) {
  ArchiveManager am;
  sim::DuplexedDisk logs("log", sim::DiskParams{.page_size_bytes = 1024});
  for (uint64_t lsn = 0; lsn < 8; ++lsn) {
    logs.WritePage(lsn, LogPage(static_cast<uint8_t>(lsn)), 0,
                   sim::SeekClass::kNear);
  }
  ASSERT_OK(am.RollLog(&logs, 6));
  EXPECT_EQ(am.rolled_up_to(), 6u);
  am.ReleaseLogBelow(4);
  std::vector<uint64_t> kept;
  for (const auto& [lsn, page] : am.log_page_archive()) kept.push_back(lsn);
  EXPECT_EQ(kept, (std::vector<uint64_t>{4, 5}));
  am.ReleaseLogBelow(2);  // a lower tail releases nothing more
  EXPECT_EQ(am.log_page_archive().size(), 2u);
  // Released pages are not rolled again; the roll continues from 6.
  ASSERT_OK(am.RollLog(&logs, 8));
  EXPECT_EQ(am.archived_log_pages(), 8u);
  EXPECT_EQ(am.log_page_archive().size(), 4u);
  am.ReleaseLogBelow(100);
  EXPECT_TRUE(am.log_page_archive().empty());
  EXPECT_EQ(am.rolled_up_to(), 8u);
}

}  // namespace
}  // namespace mmdb
