#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "spatial/rstar_tree.h"

namespace walrus {
namespace {

std::vector<std::pair<Rect, uint64_t>> RandomEntries(int n, int dim,
                                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Rect, uint64_t>> entries;
  entries.reserve(n);
  for (int i = 0; i < n; ++i) {
    std::vector<float> p(dim);
    for (float& v : p) v = rng.NextFloat();
    entries.emplace_back(Rect::Point(p), static_cast<uint64_t>(i));
  }
  return entries;
}

TEST(RStarBulkLoad, EmptyAndTiny) {
  RStarTree empty = RStarTree::BulkLoad(2, {});
  EXPECT_EQ(empty.size(), 0);
  EXPECT_TRUE(empty.Validate().ok());

  RStarTree one = RStarTree::BulkLoad(2, RandomEntries(1, 2, 1));
  EXPECT_EQ(one.size(), 1);
  EXPECT_EQ(one.height(), 1);
  EXPECT_TRUE(one.Validate().ok()) << one.Validate();
}

class BulkLoadSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BulkLoadSweep, InvariantsAndQueriesMatchIncremental) {
  auto [n, dim] = GetParam();
  std::vector<std::pair<Rect, uint64_t>> entries =
      RandomEntries(n, dim, 100 + n + dim);

  RStarTree bulk = RStarTree::BulkLoad(dim, entries);
  EXPECT_EQ(bulk.size(), n);
  ASSERT_TRUE(bulk.Validate().ok()) << bulk.Validate();

  RStarTree incremental(dim);
  for (const auto& [rect, payload] : entries) {
    incremental.Insert(rect, payload);
  }

  Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<float> lo(dim), hi(dim);
    for (int d = 0; d < dim; ++d) {
      lo[d] = rng.NextFloat() * 0.8f;
      hi[d] = lo[d] + 0.2f;
    }
    Rect query = Rect::Bounds(lo, hi);
    std::vector<uint64_t> a = bulk.RangeSearch(query);
    std::vector<uint64_t> b = incremental.RangeSearch(query);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BulkLoadSweep,
    ::testing::Values(std::make_tuple(10, 2), std::make_tuple(17, 2),
                      std::make_tuple(500, 2), std::make_tuple(500, 12),
                      std::make_tuple(5000, 3)));

std::vector<std::pair<Rect, uint64_t>> RandomBoxes(int n, int dim,
                                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Rect, uint64_t>> entries;
  entries.reserve(n);
  for (int i = 0; i < n; ++i) {
    std::vector<float> lo(dim), hi(dim);
    for (int d = 0; d < dim; ++d) {
      lo[d] = rng.NextFloat() * 0.9f;
      hi[d] = lo[d] + 0.1f * rng.NextFloat();
    }
    entries.emplace_back(Rect::Bounds(lo, hi), static_cast<uint64_t>(i));
  }
  return entries;
}

TEST(RStarBulkLoad, BoxRectsMatchIncremental) {
  const int dim = 4;
  std::vector<std::pair<Rect, uint64_t>> entries = RandomBoxes(700, dim, 21);
  RStarTree bulk = RStarTree::BulkLoad(dim, entries);
  ASSERT_TRUE(bulk.Validate().ok()) << bulk.Validate();
  RStarTree incremental(dim);
  for (const auto& [rect, payload] : entries) {
    incremental.Insert(rect, payload);
  }
  Rng rng(22);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> lo(dim), hi(dim);
    for (int d = 0; d < dim; ++d) {
      lo[d] = rng.NextFloat() * 0.7f;
      hi[d] = lo[d] + 0.3f;
    }
    Rect query = Rect::Bounds(lo, hi);
    std::vector<uint64_t> a = bulk.RangeSearch(query);
    std::vector<uint64_t> b = incremental.RangeSearch(query);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << trial;
  }
}

TEST(RStarBulkLoad, DuplicateRectsMatchIncremental) {
  // Many entries sharing the exact same rect: STR tiling must keep them
  // all, and queries must return every duplicate from both build paths.
  std::vector<std::pair<Rect, uint64_t>> entries;
  for (int i = 0; i < 200; ++i) {
    std::vector<float> p = {0.25f * static_cast<float>(i % 3), 0.5f};
    entries.emplace_back(Rect::Point(p), static_cast<uint64_t>(i));
  }
  RStarTree bulk = RStarTree::BulkLoad(2, entries);
  EXPECT_EQ(bulk.size(), 200);
  ASSERT_TRUE(bulk.Validate().ok()) << bulk.Validate();
  RStarTree incremental(2);
  for (const auto& [rect, payload] : entries) {
    incremental.Insert(rect, payload);
  }
  Rect query = Rect::Bounds({0.0f, 0.0f}, {0.3f, 1.0f});
  std::vector<uint64_t> a = bulk.RangeSearch(query);
  std::vector<uint64_t> b = incremental.RangeSearch(query);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 134u);  // i % 3 ∈ {0, 1}: 67 + 67 duplicates
}

TEST(RStarBulkLoad, NearestNeighborsMatchIncrementalUnderTies) {
  // A symmetric grid puts many entries at exactly the same distance from
  // the query point. The neighbor list must be a function of the entry
  // set alone — equal-distance ties break by payload — so the two build
  // paths (different tree layouts) return byte-identical lists.
  std::vector<std::pair<Rect, uint64_t>> entries;
  uint64_t id = 0;
  for (int x = -5; x <= 5; ++x) {
    for (int y = -5; y <= 5; ++y) {
      std::vector<float> p = {static_cast<float>(x), static_cast<float>(y)};
      entries.emplace_back(Rect::Point(p), id++);
    }
  }
  RStarTree bulk = RStarTree::BulkLoad(2, entries);
  RStarTree incremental(2);
  for (const auto& [rect, payload] : entries) {
    incremental.Insert(rect, payload);
  }
  std::vector<float> query = {0.0f, 0.0f};
  for (int k : {1, 4, 9, 25, 60, 121}) {
    auto a = bulk.NearestNeighbors(query, k);
    auto b = incremental.NearestNeighbors(query, k);
    ASSERT_EQ(a.size(), b.size()) << k;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].first, b[i].first) << "k=" << k << " i=" << i;
      EXPECT_DOUBLE_EQ(a[i].second, b[i].second) << "k=" << k << " i=" << i;
    }
  }
}

TEST(RStarBulkLoad, NearestNeighborsMatchIncrementalRandom) {
  const int dim = 3;
  std::vector<std::pair<Rect, uint64_t>> entries = RandomEntries(900, dim, 31);
  RStarTree bulk = RStarTree::BulkLoad(dim, entries);
  RStarTree incremental(dim);
  for (const auto& [rect, payload] : entries) {
    incremental.Insert(rect, payload);
  }
  Rng rng(32);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> q(dim);
    for (float& v : q) v = rng.NextFloat();
    auto a = bulk.NearestNeighbors(q, 12);
    auto b = incremental.NearestNeighbors(q, 12);
    EXPECT_EQ(a, b) << trial;
  }
}

TEST(RStarBulkLoad, TreeIsShallowAndDense) {
  RStarTree bulk = RStarTree::BulkLoad(2, RandomEntries(4000, 2, 3));
  // 4000 entries at 16/node: 250 leaves, 16 internal, 1 root -> height 3.
  EXPECT_LE(bulk.height(), 3);

  RStarTree incremental(2);
  for (const auto& [rect, payload] : RandomEntries(4000, 2, 3)) {
    incremental.Insert(rect, payload);
  }
  EXPECT_LE(bulk.height(), incremental.height());
}

TEST(RStarBulkLoad, SupportsSubsequentInsertAndDelete) {
  std::vector<std::pair<Rect, uint64_t>> entries = RandomEntries(300, 2, 5);
  RStarTree tree = RStarTree::BulkLoad(2, entries);
  Rng rng(6);
  for (int i = 300; i < 400; ++i) {
    std::vector<float> p = {rng.NextFloat(), rng.NextFloat()};
    tree.Insert(Rect::Point(p), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(tree.size(), 400);
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Delete(entries[i].first, entries[i].second).ok()) << i;
  }
  EXPECT_EQ(tree.size(), 300);
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate();
}

TEST(RStarBulkLoad, SerializationRoundTrip) {
  RStarTree tree = RStarTree::BulkLoad(3, RandomEntries(800, 3, 9));
  BinaryWriter writer;
  tree.Serialize(&writer);
  auto restored = RStarTree::Deserialize(writer.buffer());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), 800);
  EXPECT_TRUE(restored->Validate().ok());
}

}  // namespace
}  // namespace walrus
