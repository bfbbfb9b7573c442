#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "index/linear_hash.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

using testing::PlainEntityStore;

EntityAddr Addr(uint32_t n) { return EntityAddr{{200, 0}, n}; }

class LinearHashTest : public ::testing::Test {
 protected:
  LinearHashTest() : seg_(store_.NewSegment()) {}

  LinearHash Make(uint32_t buckets = 4, uint16_t cap = 4,
                  uint32_t max_chain = 1) {
    auto h = LinearHash::Create(store_, seg_, buckets, cap, max_chain);
    EXPECT_TRUE(h.ok()) << h.status().ToString();
    return h.value();
  }

  PlainEntityStore store_;
  SegmentId seg_;
};

TEST_F(LinearHashTest, CreateRejectsBadParams) {
  EXPECT_TRUE(
      LinearHash::Create(store_, seg_, 0).status().IsInvalidArgument());
}

TEST_F(LinearHashTest, EmptyLookupAndRemove) {
  LinearHash h = Make();
  ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, 1));
  EXPECT_TRUE(vals.empty());
  EXPECT_TRUE(h.Remove(store_, 1, Addr(0)).IsNotFound());
  ASSERT_OK(h.CheckInvariants(store_));
}

TEST_F(LinearHashTest, InsertLookupRemove) {
  LinearHash h = Make();
  ASSERT_OK(h.Insert(store_, 42, Addr(1)));
  ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, 42));
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], Addr(1));
  ASSERT_OK(h.Remove(store_, 42, Addr(1)));
  ASSERT_OK_AND_ASSIGN(auto after, h.Lookup(store_, 42));
  EXPECT_TRUE(after.empty());
}

TEST_F(LinearHashTest, DuplicatesSupported) {
  LinearHash h = Make();
  for (uint32_t i = 0; i < 20; ++i) ASSERT_OK(h.Insert(store_, 9, Addr(i)));
  ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, 9));
  EXPECT_EQ(vals.size(), 20u);
  ASSERT_OK(h.Remove(store_, 9, Addr(7)));
  ASSERT_OK_AND_ASSIGN(auto after, h.Lookup(store_, 9));
  EXPECT_EQ(after.size(), 19u);
  ASSERT_OK(h.CheckInvariants(store_));
}

TEST_F(LinearHashTest, GrowthSplitsBuckets) {
  LinearHash h = Make(4, 4, 1);
  ASSERT_OK_AND_ASSIGN(uint32_t before, h.BucketCount(store_));
  EXPECT_EQ(before, 4u);
  for (int i = 0; i < 500; ++i) ASSERT_OK(h.Insert(store_, i, Addr(i)));
  ASSERT_OK_AND_ASSIGN(uint32_t after, h.BucketCount(store_));
  EXPECT_GT(after, before);
  ASSERT_OK(h.CheckInvariants(store_));
  ASSERT_OK_AND_ASSIGN(size_t n, h.Size(store_));
  EXPECT_EQ(n, 500u);
  for (int i = 0; i < 500; i += 41) {
    ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, i));
    ASSERT_EQ(vals.size(), 1u) << "key " << i;
    EXPECT_EQ(vals[0], Addr(i));
  }
}

TEST_F(LinearHashTest, RemoveExactPairOnly) {
  LinearHash h = Make();
  ASSERT_OK(h.Insert(store_, 5, Addr(1)));
  EXPECT_TRUE(h.Remove(store_, 5, Addr(2)).IsNotFound());
  ASSERT_OK(h.Remove(store_, 5, Addr(1)));
}

TEST_F(LinearHashTest, EmptiedNodesUnlinked) {
  LinearHash h = Make(2, 2, 8);  // long chains allowed
  for (int i = 0; i < 100; ++i) ASSERT_OK(h.Insert(store_, i, Addr(i)));
  for (int i = 0; i < 100; ++i) ASSERT_OK(h.Remove(store_, i, Addr(i)));
  ASSERT_OK_AND_ASSIGN(size_t n, h.Size(store_));
  EXPECT_EQ(n, 0u);
  ASSERT_OK(h.CheckInvariants(store_));
  // Still usable.
  ASSERT_OK(h.Insert(store_, 7, Addr(7)));
  ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, 7));
  EXPECT_EQ(vals.size(), 1u);
}

TEST_F(LinearHashTest, AttachSeesExistingIndex) {
  LinearHash h = Make();
  for (int i = 0; i < 50; ++i) ASSERT_OK(h.Insert(store_, i, Addr(i)));
  ASSERT_OK_AND_ASSIGN(LinearHash h2, LinearHash::Attach(store_, seg_));
  ASSERT_OK_AND_ASSIGN(auto vals, h2.Lookup(store_, 30));
  ASSERT_EQ(vals.size(), 1u);
}

TEST_F(LinearHashTest, NegativeKeys) {
  LinearHash h = Make();
  for (int i = -50; i < 0; ++i) ASSERT_OK(h.Insert(store_, i, Addr(-i)));
  for (int i = -50; i < 0; ++i) {
    ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, i));
    ASSERT_EQ(vals.size(), 1u);
  }
  ASSERT_OK(h.CheckInvariants(store_));
}

// Regression: with 4 KB partitions the metadata entity shares a crowded
// partition with hash nodes. Insert checked that the grown directory fits
// there, then SplitOne allocated the new chain nodes in the same
// partition, and the directory write failed with `Full: partition cannot
// fit entity`. Now the split is skipped when the directory write finds
// no room, as Insert does when its own check fails.
TEST(LinearHashSplitTest, SplitSurvivesCrowdedMetadataPartition) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (uint16_t cap : {2, 4}) {
      PlainEntityStore store(4 * 1024);
      SegmentId seg = store.NewSegment();
      ASSERT_OK_AND_ASSIGN(LinearHash h,
                           LinearHash::Create(store, seg, 4, cap, 1));
      Random rng(seed);
      std::multimap<int64_t, EntityAddr> model;
      uint32_t next_addr = 0;
      for (int step = 0; step < 1500; ++step) {
        Status st;
        if (model.empty() || rng.Bernoulli(0.6)) {
          int64_t key = rng.UniformRange(-100000, 100000);
          EntityAddr a = Addr(next_addr++);
          st = h.Insert(store, key, a);
          model.emplace(key, a);
        } else {
          auto it = model.begin();
          std::advance(it, rng.Uniform(model.size()));
          st = h.Remove(store, it->first, it->second);
          model.erase(it);
        }
        ASSERT_TRUE(st.ok()) << "seed " << seed << " cap " << cap << " step "
                             << step << ": " << st.ToString();
      }
      ASSERT_OK(h.CheckInvariants(store));
      ASSERT_OK_AND_ASSIGN(size_t n, h.Size(store));
      ASSERT_EQ(n, model.size());
      for (const auto& [key, addr] : model) {
        ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store, key));
        ASSERT_NE(std::find(vals.begin(), vals.end(), addr), vals.end())
            << "seed " << seed << " key " << key;
      }
    }
  }
}

struct HashPropertyParam {
  uint64_t seed;
  uint32_t buckets;
  uint16_t node_capacity;
  uint32_t max_chain;
  int operations;
};

class LinearHashPropertyTest
    : public ::testing::TestWithParam<HashPropertyParam> {};

TEST_P(LinearHashPropertyTest, MatchesMultimapReference) {
  const HashPropertyParam param = GetParam();
  Random rng(param.seed);
  PlainEntityStore store;
  SegmentId seg = store.NewSegment();
  ASSERT_OK_AND_ASSIGN(
      LinearHash h,
      LinearHash::Create(store, seg, param.buckets, param.node_capacity,
                         param.max_chain));
  std::multimap<int64_t, EntityAddr> model;
  uint32_t next_addr = 0;

  for (int step = 0; step < param.operations; ++step) {
    int64_t key = rng.UniformRange(-40, 40);
    if (model.empty() || rng.Bernoulli(0.65)) {
      EntityAddr a = Addr(next_addr++);
      ASSERT_OK(h.Insert(store, key, a));
      model.emplace(key, a);
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_OK(h.Remove(store, it->first, it->second));
      model.erase(it);
    }
    if (step % 200 == 199) {
      ASSERT_OK(h.CheckInvariants(store));
      ASSERT_OK_AND_ASSIGN(size_t n, h.Size(store));
      ASSERT_EQ(n, model.size());
      for (int64_t k = -40; k <= 40; k += 13) {
        ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store, k));
        ASSERT_EQ(vals.size(), model.count(k)) << "key " << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinearHashPropertyTest,
    ::testing::Values(HashPropertyParam{11, 2, 2, 1, 2000},
                      HashPropertyParam{12, 4, 4, 1, 2000},
                      HashPropertyParam{13, 8, 8, 2, 2500},
                      HashPropertyParam{14, 1, 3, 1, 1500},
                      HashPropertyParam{15, 16, 4, 3, 2500}));

}  // namespace
}  // namespace mmdb
