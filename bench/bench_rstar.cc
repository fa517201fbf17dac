// Micro-benchmarks for the R*-tree substrate: insertion throughput, range
// probes at WALRUS's 12 dimensions (the epsilon-envelope probe of section
// 5.4), and nearest-neighbor search.

#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "spatial/rstar_tree.h"

namespace walrus {
namespace {

std::vector<float> RandomPoint(Rng* rng, int dim) {
  std::vector<float> p(dim);
  for (float& v : p) v = rng->NextFloat();
  return p;
}

void BM_RStarInsert(benchmark::State& state) {
  int dim = static_cast<int>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    RStarTree tree(dim);
    std::vector<std::vector<float>> points;
    for (int i = 0; i < 2000; ++i) points.push_back(RandomPoint(&rng, dim));
    state.ResumeTiming();
    for (int i = 0; i < 2000; ++i) {
      tree.Insert(Rect::Point(points[i]), static_cast<uint64_t>(i));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_RStarInsert)->Arg(2)->Arg(12);

void BM_RStarRangeProbe(benchmark::State& state) {
  int dim = 12;
  int n = static_cast<int>(state.range(0));
  Rng rng(2);
  RStarTree tree(dim);
  for (int i = 0; i < n; ++i) {
    tree.Insert(Rect::Point(RandomPoint(&rng, dim)),
                static_cast<uint64_t>(i));
  }
  float eps = 0.085f;  // the paper's retrieval epsilon
  std::vector<std::vector<float>> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(RandomPoint(&rng, dim));
  size_t qi = 0;
  for (auto _ : state) {
    Rect probe = Rect::Point(queries[qi]).Expanded(eps);
    qi = (qi + 1) % queries.size();
    benchmark::DoNotOptimize(tree.RangeSearch(probe));
  }
}
BENCHMARK(BM_RStarRangeProbe)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_RStarNearestNeighbors(benchmark::State& state) {
  int dim = 12;
  Rng rng(3);
  RStarTree tree(dim);
  for (int i = 0; i < 20000; ++i) {
    tree.Insert(Rect::Point(RandomPoint(&rng, dim)),
                static_cast<uint64_t>(i));
  }
  std::vector<float> q = RandomPoint(&rng, dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.NearestNeighbors(q, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_RStarNearestNeighbors)->Arg(1)->Arg(10)->Arg(100);

void BM_RStarSerialize(benchmark::State& state) {
  Rng rng(4);
  RStarTree tree(12);
  for (int i = 0; i < 10000; ++i) {
    tree.Insert(Rect::Point(RandomPoint(&rng, 12)),
                static_cast<uint64_t>(i));
  }
  for (auto _ : state) {
    BinaryWriter writer;
    tree.Serialize(&writer);
    benchmark::DoNotOptimize(writer.size());
  }
}
BENCHMARK(BM_RStarSerialize);

}  // namespace
}  // namespace walrus

BENCHMARK_MAIN();
