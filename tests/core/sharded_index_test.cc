#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/index.h"
#include "core/query.h"
#include "core/query_engine.h"
#include "core/sharded_index.h"
#include "fresh_dir.h"
#include "image/dataset.h"
#include "wal/live_index.h"

namespace walrus {
namespace {

WalrusParams TestParams() {
  WalrusParams p;
  p.min_window = 16;
  p.max_window = 32;
  p.slide_step = 8;
  return p;
}

/// Asserts the full ranking is byte-identical: ids, exact similarity bits,
/// and pair counts.
void ExpectIdenticalRankings(const std::vector<QueryMatch>& a,
                             const std::vector<QueryMatch>& b,
                             const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].image_id, b[i].image_id) << context << " rank " << i;
    EXPECT_EQ(a[i].similarity, b[i].similarity) << context << " rank " << i;
    EXPECT_EQ(a[i].matching_pairs, b[i].matching_pairs)
        << context << " rank " << i;
    EXPECT_EQ(a[i].pairs_used, b[i].pairs_used) << context << " rank " << i;
  }
}

/// Samples recorded so far in one of the walrus.query.* histograms.
uint64_t QueryHistogramCount(const std::string& name) {
  Histogram* histogram = MetricsRegistry::Global().GetHistogram(
      name, ExponentialBuckets(1e-6, 2.0, 36));
  return histogram->Snapshot().count;
}

/// One traced query through `engine`, checked against the contract every
/// engine shares: exactly the top-level spans extract, probe, match and
/// rank, one sample each in walrus.query.probe_seconds and
/// walrus.query.match_seconds, and spans covering at least 95% of
/// stats.seconds (the best of three tries, so one preemption between two
/// spans cannot fail the run). Returns the stats of the last try.
QueryStats TracedQuery(const QueryEngine& engine, const ImageF& image,
                       QueryOptions options, const std::string& context) {
  const std::vector<std::string> kSpans = {"extract", "probe", "match", "rank"};
  options.collect_trace = true;
  QueryStats stats;
  double best_coverage = 0.0;
  for (int attempt = 0; attempt < 3 && best_coverage < 0.95; ++attempt) {
    const uint64_t probes = QueryHistogramCount("walrus.query.probe_seconds");
    const uint64_t matches = QueryHistogramCount("walrus.query.match_seconds");
    stats = QueryStats();
    auto result = engine.RunQuery(image, options, &stats);
    EXPECT_TRUE(result.ok()) << context << ": " << result.status();
    EXPECT_EQ(QueryHistogramCount("walrus.query.probe_seconds"), probes + 1)
        << context;
    EXPECT_EQ(QueryHistogramCount("walrus.query.match_seconds"), matches + 1)
        << context;
    std::vector<std::string> names;
    for (const TraceSpan& span : stats.spans) names.push_back(span.name);
    EXPECT_EQ(names, kSpans) << context;
    const double coverage = TraceCoverageSeconds(stats.spans) / stats.seconds;
    best_coverage = std::max(best_coverage, coverage);
  }
  EXPECT_GE(best_coverage, 0.95) << context;
  return stats;
}

class ShardedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetParams dp;
    dp.num_images = 18;
    dp.width = 64;
    dp.height = 64;
    dp.seed = 77;
    dataset_ = GenerateDataset(dp);
    single_ = std::make_unique<WalrusIndex>(TestParams());
    for (const LabeledImage& scene : dataset_) {
      ASSERT_TRUE(single_
                      ->AddImage(static_cast<uint64_t>(scene.id), "img",
                                 scene.image)
                      .ok());
    }
  }

  ShardedIndex MakeSharded(int num_shards) {
    ShardedIndex::Options options;
    options.num_shards = num_shards;
    auto sharded = ShardedIndex::Partition(*single_, options);
    EXPECT_TRUE(sharded.ok()) << sharded.status();
    return std::move(*sharded);
  }

  std::vector<LabeledImage> dataset_;
  std::unique_ptr<WalrusIndex> single_;
};

TEST_F(ShardedIndexTest, ShardOfIsStableAndInRange) {
  std::map<int, int> counts;
  for (uint64_t id = 0; id < 1000; ++id) {
    int s = ShardedIndex::ShardOf(id, 4);
    EXPECT_EQ(s, ShardedIndex::ShardOf(id, 4));
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    counts[s]++;
  }
  // Hash routing must spread sequential ids across every shard.
  for (int s = 0; s < 4; ++s) EXPECT_GT(counts[s], 100) << s;
  EXPECT_EQ(ShardedIndex::ShardOf(123, 1), 0);
}

TEST_F(ShardedIndexTest, PartitionPreservesEveryImage) {
  for (int n : {1, 2, 3, 4}) {
    ShardedIndex sharded = MakeSharded(n);
    EXPECT_EQ(sharded.num_shards(), n);
    EXPECT_EQ(sharded.ImageCount(), single_->ImageCount()) << n;
    EXPECT_EQ(sharded.RegionCount(), single_->RegionCount()) << n;
    size_t images = 0;
    for (int s = 0; s < n; ++s) images += sharded.shard(s).ImageCount();
    EXPECT_EQ(images, single_->ImageCount()) << n;
  }
}

TEST_F(ShardedIndexTest, RankingsByteIdenticalAcrossShardCounts) {
  QueryOptions options;
  options.epsilon = 0.12f;
  for (int n : {1, 2, 3, 4}) {
    ShardedIndex sharded = MakeSharded(n);
    for (int q = 0; q < 6; ++q) {
      auto expected = ExecuteQuery(*single_, dataset_[q].image, options);
      ASSERT_TRUE(expected.ok());
      auto got = sharded.RunQuery(dataset_[q].image, options);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectIdenticalRankings(*expected, *got,
                              "shards=" + std::to_string(n) + " q=" +
                                  std::to_string(q));
    }
  }
}

TEST_F(ShardedIndexTest, GreedyMatcherAndPairsIdentical) {
  QueryOptions options;
  options.epsilon = 0.12f;
  options.matcher = MatcherKind::kGreedy;
  options.collect_pairs = true;
  ShardedIndex sharded = MakeSharded(3);
  for (int q = 0; q < 4; ++q) {
    auto expected = ExecuteQuery(*single_, dataset_[q].image, options);
    ASSERT_TRUE(expected.ok());
    auto got = sharded.RunQuery(dataset_[q].image, options);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(expected->size(), got->size()) << q;
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ((*expected)[i].image_id, (*got)[i].image_id) << q;
      EXPECT_EQ((*expected)[i].similarity, (*got)[i].similarity) << q;
      // Canonical pair ordering makes even the pair lists identical.
      ASSERT_EQ((*expected)[i].pairs.size(), (*got)[i].pairs.size()) << q;
      for (size_t p = 0; p < (*expected)[i].pairs.size(); ++p) {
        EXPECT_EQ((*expected)[i].pairs[p].query_index,
                  (*got)[i].pairs[p].query_index);
        EXPECT_EQ((*expected)[i].pairs[p].target_index,
                  (*got)[i].pairs[p].target_index);
      }
    }
  }
}

TEST_F(ShardedIndexTest, SceneQueriesIdentical) {
  QueryOptions options;
  options.epsilon = 0.12f;
  PixelRect scene{8, 8, 48, 48};
  ShardedIndex sharded = MakeSharded(4);
  for (int q = 0; q < 4; ++q) {
    auto expected =
        ExecuteSceneQuery(*single_, dataset_[q].image, scene, options);
    ASSERT_TRUE(expected.ok());
    auto got = sharded.RunSceneQuery(dataset_[q].image, scene, options);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectIdenticalRankings(*expected, *got, "scene q=" + std::to_string(q));
  }
}

TEST_F(ShardedIndexTest, KnnQueriesReturnSameImageSet) {
  // kNN sharding merges per-shard top-k lists by (distance, payload); the
  // merged set equals the global top-k except for tie order at the k-th
  // distance, so compare the ranked image sets rather than bytes.
  QueryOptions options;
  options.knn_per_region = 5;
  ShardedIndex sharded = MakeSharded(3);
  for (int q = 0; q < 4; ++q) {
    auto expected = ExecuteQuery(*single_, dataset_[q].image, options);
    ASSERT_TRUE(expected.ok());
    auto got = sharded.RunQuery(dataset_[q].image, options);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(expected->size(), got->size()) << q;
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ((*expected)[i].image_id, (*got)[i].image_id) << q;
    }
  }
}

// Engine parity: a single index, a 4-shard ShardedIndex and a LiveIndex
// (3 base shards, a non-empty delta, one tombstone) answer a traced query
// with the same spans and metrics, and with the probe stats of a single
// index holding the same live images, in epsilon and kNN mode.
TEST_F(ShardedIndexTest, StatsAggregateAcrossShards) {
  SingleIndexEngine single(*single_);
  ShardedIndex sharded = MakeSharded(4);

  // Live: images 0..11 seed the base, image 3 is deleted (a tombstone),
  // images 12.. are inserted into the delta.
  constexpr size_t kBaseImages = 12;
  constexpr size_t kDeleted = 3;
  WalrusIndex seed(TestParams());
  WalrusIndex live_images(TestParams());
  for (size_t i = 0; i < dataset_.size(); ++i) {
    const uint64_t id = static_cast<uint64_t>(dataset_[i].id);
    if (i < kBaseImages) {
      ASSERT_TRUE(seed.AddImage(id, "img", dataset_[i].image).ok());
    }
    if (i != kDeleted) {
      ASSERT_TRUE(live_images.AddImage(id, "img", dataset_[i].image).ok());
    }
  }
  LiveIndex::Options live_options;
  live_options.num_shards = 3;
  live_options.merge_threshold = 0;
  auto live = LiveIndex::Open(FreshDir("engine_parity_live"), TestParams(),
                              live_options, &seed);
  ASSERT_TRUE(live.ok()) << live.status();
  const uint64_t deleted_id = static_cast<uint64_t>(dataset_[kDeleted].id);
  ASSERT_TRUE((*live)->DeleteImage(deleted_id).ok());
  for (size_t i = kBaseImages; i < dataset_.size(); ++i) {
    const uint64_t id = static_cast<uint64_t>(dataset_[i].id);
    ASSERT_TRUE((*live)->InsertImage(id, "img", dataset_[i].image).ok());
  }
  SingleIndexEngine live_reference(live_images);

  struct Engine {
    const char* name;
    const QueryEngine* engine;
    const QueryEngine* reference;  // a single index of the same images
  };
  const Engine engines[] = {
      {"single", &single, &single},
      {"sharded", &sharded, &single},
      {"live", live->get(), &live_reference},
  };
  QueryOptions epsilon_mode;
  epsilon_mode.epsilon = 0.12f;
  QueryOptions knn_mode;
  knn_mode.knn_per_region = 4;
  for (const QueryOptions& options : {epsilon_mode, knn_mode}) {
    const std::string mode = options.knn_per_region > 0 ? "knn" : "epsilon";
    for (int q = 0; q < 3; ++q) {
      const ImageF& image = dataset_[static_cast<size_t>(q)].image;
      for (const Engine& e : engines) {
        const std::string context =
            std::string(e.name) + " " + mode + " q=" + std::to_string(q);
        QueryStats want;
        ASSERT_TRUE(e.reference->RunQuery(image, options, &want).ok());
        QueryStats got = TracedQuery(*e.engine, image, options, context);
        EXPECT_EQ(got.query_regions, want.query_regions) << context;
        EXPECT_EQ(got.regions_retrieved, want.regions_retrieved) << context;
        EXPECT_EQ(got.distinct_images, want.distinct_images) << context;
        EXPECT_GT(got.regions_retrieved, 0) << context;
      }
    }
  }

  // Per-shard probe counters add up to what the shards retrieved.
  const ImageF& first = dataset_[0].image;
  QueryStats single_stats;
  ASSERT_TRUE(single.RunQuery(first, epsilon_mode, &single_stats).ok());
  const EngineStats before = sharded.Stats();
  ASSERT_TRUE(sharded.RunQuery(first, epsilon_mode).ok());
  EngineStats engine_stats = sharded.Stats();
  EXPECT_EQ(engine_stats.num_shards, 4);
  ASSERT_EQ(engine_stats.shard_probes.size(), 4u);
  uint64_t total = 0;
  for (int s = 0; s < 4; ++s) {
    total += engine_stats.shard_probes[s] - before.shard_probes[s];
  }
  EXPECT_EQ(total, static_cast<uint64_t>(single_stats.regions_retrieved));
}

TEST_F(ShardedIndexTest, MutationsRouteAndRemove) {
  ShardedIndex sharded = MakeSharded(3);
  uint64_t new_id = 1000;
  ASSERT_TRUE(sharded.AddImage(new_id, "extra", dataset_[0].image).ok());
  EXPECT_EQ(sharded.ImageCount(), dataset_.size() + 1);
  int owner = ShardedIndex::ShardOf(new_id, 3);
  EXPECT_EQ(sharded.shard(owner).catalog().FindImage(new_id) != nullptr, true);

  // Duplicate id rejected, from any shard's perspective.
  EXPECT_FALSE(sharded.AddImage(new_id, "dup", dataset_[0].image).ok());

  ASSERT_TRUE(sharded.RemoveImage(new_id).ok());
  EXPECT_EQ(sharded.ImageCount(), dataset_.size());
  EXPECT_FALSE(sharded.RemoveImage(new_id).ok());  // NotFound
}

TEST_F(ShardedIndexTest, SaveOpenRoundTrip) {
  for (bool paged : {false, true}) {
    ShardedIndex sharded = MakeSharded(3);
    std::string prefix = ::testing::TempDir() + "/walrus_sharded_rt" +
                         (paged ? "_paged" : "_mem");
    ASSERT_TRUE(sharded.Save(prefix, paged).ok());

    auto reopened = ShardedIndex::Open(prefix);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened->num_shards(), 3);
    EXPECT_EQ(reopened->ImageCount(), single_->ImageCount());
    EXPECT_EQ(reopened->RegionCount(), single_->RegionCount());

    QueryOptions options;
    options.epsilon = 0.12f;
    auto expected = ExecuteQuery(*single_, dataset_[1].image, options);
    ASSERT_TRUE(expected.ok());
    auto got = reopened->RunQuery(dataset_[1].image, options);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectIdenticalRankings(*expected, *got,
                            paged ? "reopened paged" : "reopened");

    for (int s = 0; s < 3; ++s) {
      std::string shard_prefix = prefix + ".s" + std::to_string(s);
      for (const char* suffix :
           {".catalog", ".tree", ".pmeta", ".ptree"}) {
        std::remove((shard_prefix + suffix).c_str());
      }
    }
    std::remove((prefix + ".smeta").c_str());
  }
}

TEST_F(ShardedIndexTest, OpenRejectsMissingManifest) {
  auto missing = ShardedIndex::Open(::testing::TempDir() + "/no_such_prefix");
  EXPECT_FALSE(missing.ok());
}

TEST_F(ShardedIndexTest, BatchMatchesSequentialThroughEngine) {
  ShardedIndex sharded = MakeSharded(4);
  std::vector<ImageF> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(dataset_[i].image);
  QueryOptions options;
  options.epsilon = 0.12f;
  auto batch = ExecuteQueryBatch(sharded, queries, options, 2);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto expected = ExecuteQuery(*single_, queries[i], options);
    ASSERT_TRUE(expected.ok());
    ExpectIdenticalRankings(*expected, (*batch)[i],
                            "batch q=" + std::to_string(i));
  }
}

// TSan soak: many client threads hammer the sharded engine (fan-out pool +
// per-shard probe counters) concurrently, and every answer must still be
// the single index's ranking. Run under scripts/check.sh's TSan build via
// the 'ShardedIndex' filter.
TEST_F(ShardedIndexTest, ConcurrentQuerySoak) {
  ShardedIndex sharded = MakeSharded(4);
  QueryOptions options;
  options.epsilon = 0.12f;
  constexpr int kImages = 8;
  const PixelRect scene{0, 0, 64, 64};
  std::vector<std::vector<QueryMatch>> expected_whole(kImages);
  std::vector<std::vector<QueryMatch>> expected_scene(kImages);
  for (int i = 0; i < kImages; ++i) {
    auto whole = ExecuteQuery(*single_, dataset_[i].image, options);
    auto in_scene =
        ExecuteSceneQuery(*single_, dataset_[i].image, scene, options);
    ASSERT_TRUE(whole.ok() && in_scene.ok());
    expected_whole[i] = std::move(*whole);
    expected_scene[i] = std::move(*in_scene);
  }
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 12;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const int i = (t + q) % kImages;
        const bool in_scene = (t + q) % 3 == 0;
        QueryStats stats;
        auto result =
            in_scene
                ? sharded.RunSceneQuery(dataset_[i].image, scene, options,
                                        &stats)
                : sharded.RunQuery(dataset_[i].image, options, &stats);
        if (!result.ok()) {
          ++failures[t];
          continue;
        }
        ExpectIdenticalRankings(
            in_scene ? expected_scene[i] : expected_whole[i], *result,
            "thread " + std::to_string(t) + " query " + std::to_string(q));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

}  // namespace
}  // namespace walrus
