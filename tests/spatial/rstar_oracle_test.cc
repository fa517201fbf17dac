#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "spatial/rstar_tree.h"

namespace walrus {
namespace {

// Brute-force oracle for the tree layer: every way a tree is built or
// stored must answer RangeQueryBatch exactly like a linear scan, and
// NearestNeighbors exactly like a linear scan ordered by (distance,
// payload), at every ISA level.

constexpr int kDim = 3;

enum class TreeKind { kIncremental, kBulkLoaded, kSaveOpen, kMapped };

using Entries = std::vector<std::pair<Rect, uint64_t>>;

/// Grid points (many exact distance ties), random boxes, and duplicates of
/// both under fresh payloads.
Entries OracleEntries() {
  Rng rng(2024);
  Entries entries;
  uint64_t payload = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<float> p(kDim);
    for (float& v : p) v = static_cast<float>(rng.NextBounded(9)) / 8.0f;
    entries.emplace_back(Rect::Point(p), payload++);
  }
  for (int i = 0; i < 200; ++i) {
    std::vector<float> lo(kDim), hi(kDim);
    for (int d = 0; d < kDim; ++d) {
      lo[d] = rng.NextFloat();
      hi[d] = lo[d] + 0.1f * rng.NextFloat();
    }
    entries.emplace_back(Rect::Bounds(lo, hi), payload++);
  }
  for (int i = 0; i < 100; ++i) {
    const Rect copy = entries[rng.NextBounded(500)].first;
    entries.emplace_back(copy, payload++);
  }
  return entries;
}

/// Builds the tree under test. The incremental tree also inserts and then
/// deletes extra entries, so condensing, slot reuse and the compaction on
/// save are on the path too.
RStarTree BuildTree(TreeKind kind, const Entries& entries) {
  RStarParams params;
  params.max_entries = 8;  // deeper trees from few entries
  if (kind == TreeKind::kBulkLoaded) {
    return RStarTree::BulkLoad(kDim, entries, params);
  }
  RStarTree tree(kDim, params);
  Rng rng(7);
  Entries extra;
  for (int i = 0; i < 150; ++i) {
    std::vector<float> p(kDim);
    for (float& v : p) v = rng.NextFloat();
    extra.emplace_back(Rect::Point(p), 1000000 + i);
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    tree.Insert(entries[i].first, entries[i].second);
    if (i < extra.size()) tree.Insert(extra[i].first, extra[i].second);
  }
  for (const auto& [rect, payload] : extra) {
    EXPECT_TRUE(tree.Delete(rect, payload).ok());
  }
  if (kind == TreeKind::kIncremental) return tree;

  if (kind == TreeKind::kSaveOpen) {
    BinaryWriter writer;
    tree.Serialize(&writer);
    Result<RStarTree> loaded = RStarTree::Deserialize(writer.buffer());
    EXPECT_TRUE(loaded.ok()) << loaded.status();
    return std::move(loaded).value();
  }
  const std::string path = ::testing::TempDir() + "/rstar_oracle.ptree";
  EXPECT_TRUE(tree.WriteFile(path).ok());
  Result<RStarTree> mapped = RStarTree::OpenMapped(path);
  std::remove(path.c_str());  // the mapping outlives the name
  EXPECT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped->is_mapped());
  return std::move(mapped).value();
}

std::vector<Rect> OracleProbes() {
  Rng rng(99);
  std::vector<Rect> probes;
  for (int i = 0; i < 40; ++i) {
    std::vector<float> lo(kDim), hi(kDim);
    for (int d = 0; d < kDim; ++d) {
      lo[d] = static_cast<float>(rng.NextBounded(9)) / 8.0f;
      hi[d] = lo[d] + (i % 4 == 0 ? 0.0f : 0.3f * rng.NextFloat());
    }
    probes.push_back(Rect::Bounds(lo, hi));  // some degenerate
  }
  return probes;
}

class RStarOracle : public ::testing::TestWithParam<TreeKind> {};

TEST_P(RStarOracle, MatchesLinearScan) {
  const Entries entries = OracleEntries();
  const RStarTree tree = BuildTree(GetParam(), entries);
  ASSERT_EQ(tree.size(), static_cast<int64_t>(entries.size()));
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate();
  const std::vector<Rect> probes = OracleProbes();

  // Range: (probe, payload) pairs in sorted order, plus the delivered
  // bounds of every hit.
  std::vector<std::pair<int, uint64_t>> want_range;
  for (size_t p = 0; p < probes.size(); ++p) {
    for (const auto& [rect, payload] : entries) {
      if (rect.Intersects(probes[p])) {
        want_range.emplace_back(static_cast<int>(p), payload);
      }
    }
  }
  ASSERT_FALSE(want_range.empty());

  // kNN: (payload, distance) by (distance, payload); count the cases whose
  // k-th and (k+1)-th distances tie, so the tie-break is exercised.
  int kth_ties = 0;
  std::vector<std::vector<std::pair<uint64_t, double>>> want_knn;
  std::vector<std::pair<std::vector<float>, int>> knn_queries;
  for (const Rect& probe : probes) {
    for (int k : {1, 5, 17, 64}) {
      const std::vector<float> q = probe.lo();
      std::vector<std::pair<double, uint64_t>> scan;
      for (const auto& [rect, payload] : entries) {
        scan.emplace_back(rect.MinSquaredDistance(q), payload);
      }
      std::sort(scan.begin(), scan.end());
      if (scan[k - 1].first == scan[k].first) ++kth_ties;
      std::vector<std::pair<uint64_t, double>> want;
      for (int i = 0; i < k; ++i) {
        want.emplace_back(scan[i].second, std::sqrt(scan[i].first));
      }
      knn_queries.emplace_back(q, k);
      want_knn.push_back(std::move(want));
    }
  }
  EXPECT_GT(kth_ties, 0);

  for (int l = 0; l <= static_cast<int>(simd::MaxSupportedIsa()); ++l) {
    simd::TestOnlySetIsa(static_cast<simd::IsaLevel>(l));
    const std::string isa = simd::IsaName(static_cast<simd::IsaLevel>(l));
    std::vector<std::pair<int, uint64_t>> got_range;
    int bad_bounds = 0;
    tree.RangeQueryBatch(probes, [&](int p, const RectView& bounds,
                                     uint64_t payload) {
      got_range.emplace_back(p, payload);
      if (!(bounds.ToRect() == entries[payload].first)) ++bad_bounds;
      return true;
    });
    std::sort(got_range.begin(), got_range.end());
    EXPECT_EQ(got_range, want_range) << isa;
    EXPECT_EQ(bad_bounds, 0) << isa;
    for (size_t i = 0; i < knn_queries.size(); ++i) {
      EXPECT_EQ(tree.NearestNeighbors(knn_queries[i].first,
                                      knn_queries[i].second),
                want_knn[i])
          << isa << " query " << i;
    }
  }
  simd::TestOnlyResetIsa();
}

INSTANTIATE_TEST_SUITE_P(
    Trees, RStarOracle,
    ::testing::Values(TreeKind::kIncremental, TreeKind::kBulkLoaded,
                      TreeKind::kSaveOpen, TreeKind::kMapped),
    [](const ::testing::TestParamInfo<TreeKind>& param) {
      switch (param.param) {
        case TreeKind::kIncremental:
          return std::string("Incremental");
        case TreeKind::kBulkLoaded:
          return std::string("BulkLoaded");
        case TreeKind::kSaveOpen:
          return std::string("SaveOpen");
        case TreeKind::kMapped:
          return std::string("Mapped");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace walrus
