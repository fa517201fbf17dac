#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "spatial/rstar_tree.h"

namespace walrus {
namespace {

// RangeQueryBatch behaviors beyond its result set (which the linear-scan
// oracle in rstar_oracle_test.cc pins for every tree kind and ISA level):
// empty probes, early abort, node deduplication across probes, and
// concurrent readers (the TSan target BatchedProbe).

using ProbeHit = std::pair<int, uint64_t>;  // (probe index, payload)

std::vector<std::pair<Rect, uint64_t>> RandomEntries(int n, int dim,
                                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Rect, uint64_t>> entries;
  for (int i = 0; i < n; ++i) {
    std::vector<float> lo(dim), hi(dim);
    for (int d = 0; d < dim; ++d) {
      lo[d] = rng.NextFloat();
      hi[d] = lo[d] + 0.05f * rng.NextFloat();
    }
    entries.emplace_back(Rect::Bounds(lo, hi), static_cast<uint64_t>(i));
  }
  return entries;
}

std::vector<Rect> RandomProbes(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> probes;
  for (int i = 0; i < n; ++i) {
    std::vector<float> lo(dim), hi(dim);
    for (int d = 0; d < dim; ++d) {
      lo[d] = rng.NextFloat() * 0.6f;
      hi[d] = lo[d] + 0.2f + 0.3f * rng.NextFloat();
    }
    probes.push_back(Rect::Bounds(lo, hi));
  }
  return probes;
}

/// Every (probe, payload) pair whose rects intersect, by linear scan.
std::multiset<ProbeHit> ScanHits(
    const std::vector<std::pair<Rect, uint64_t>>& entries,
    const std::vector<Rect>& probes) {
  std::multiset<ProbeHit> hits;
  for (size_t p = 0; p < probes.size(); ++p) {
    for (const auto& [rect, payload] : entries) {
      if (rect.Intersects(probes[p])) {
        hits.insert({static_cast<int>(p), payload});
      }
    }
  }
  return hits;
}

std::multiset<ProbeHit> BatchHits(const RStarTree& tree,
                                  const std::vector<Rect>& probes) {
  std::multiset<ProbeHit> hits;
  tree.RangeQueryBatch(probes, [&](int p, const RectView&, uint64_t payload) {
    hits.insert({p, payload});
    return true;
  });
  return hits;
}

TEST(RStarBatch, EmptyAndDegenerateProbes) {
  const int dim = 3;
  RStarTree tree(dim);
  const auto entries = RandomEntries(200, dim, 42);
  for (const auto& [rect, payload] : entries) tree.Insert(rect, payload);
  // No probes: no callbacks, no crash.
  int calls = 0;
  tree.RangeQueryBatch({}, [&](int, const RectView&, uint64_t) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0);
  // Empty probes are skipped; the non-empty one still answers.
  std::vector<Rect> probes = {Rect(), RandomProbes(1, dim, 43)[0], Rect()};
  EXPECT_EQ(ScanHits(entries, probes), BatchHits(tree, probes));
}

TEST(RStarBatch, VisitorAbortStopsTraversal) {
  const int dim = 2;
  RStarTree tree(dim);
  for (const auto& [rect, payload] : RandomEntries(500, dim, 77)) {
    tree.Insert(rect, payload);
  }
  std::vector<Rect> probes(
      4, Rect::Bounds(std::vector<float>(dim, 0.0f),
                      std::vector<float>(dim, 1.0f)));
  int calls = 0;
  tree.RangeQueryBatch(probes, [&](int, const RectView&, uint64_t) {
    return ++calls < 10;
  });
  EXPECT_EQ(calls, 10);
}

TEST(RStarBatch, NodesVisitedIsDeduplicated) {
  const int dim = 4;
  RStarTree tree(dim);
  for (const auto& [rect, payload] : RandomEntries(2000, dim, 99)) {
    tree.Insert(rect, payload);
  }
  std::vector<Rect> probes = RandomProbes(12, dim, 100);
  const auto visit_all = [](int, const RectView&, uint64_t) { return true; };
  int64_t sum_single = 0;
  for (const Rect& probe : probes) {
    sum_single += tree.RangeQueryBatch({probe}, visit_all);
  }
  const int64_t batch_visited = tree.RangeQueryBatch(probes, visit_all);
  EXPECT_GT(batch_visited, 0);
  // Shared traversal: a node serving k probes is visited once, not k times.
  EXPECT_LE(batch_visited, sum_single);
}

// TSan target: concurrent batched probes share the tree but no traversal
// state (all batch scratch is call-local).
TEST(BatchedProbeConcurrency, ConcurrentBatchesAreRaceFree) {
  const int dim = 4;
  RStarTree tree(dim);
  const auto entries = RandomEntries(1500, dim, 555);
  for (const auto& [rect, payload] : entries) tree.Insert(rect, payload);
  std::vector<Rect> probes = RandomProbes(10, dim, 556);
  const std::multiset<ProbeHit> want = ScanHits(entries, probes);

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::multiset<ProbeHit>> got(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        got[t] = BatchHits(tree, probes);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(want, got[t]) << "thread " << t;
  }
}

}  // namespace
}  // namespace walrus
