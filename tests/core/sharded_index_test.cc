#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/query.h"
#include "core/sharded_index.h"
#include "image/dataset.h"

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

TEST_F(ShardedIndexTest, StatsAggregateAcrossShards) {
  QueryOptions options;
  options.epsilon = 0.12f;
  ShardedIndex sharded = MakeSharded(4);
  QueryStats sharded_stats;
  auto got = sharded.RunQuery(dataset_[0].image, options, &sharded_stats);
  ASSERT_TRUE(got.ok());
  QueryStats single_stats;
  auto expected =
      ExecuteQuery(*single_, dataset_[0].image, options, &single_stats);
  ASSERT_TRUE(expected.ok());
  // Same probes run, just spread across trees.
  EXPECT_EQ(sharded_stats.query_regions, single_stats.query_regions);
  EXPECT_EQ(sharded_stats.regions_retrieved, single_stats.regions_retrieved);
  EXPECT_EQ(sharded_stats.distinct_images, single_stats.distinct_images);

  EngineStats engine_stats = sharded.Stats();
  EXPECT_EQ(engine_stats.num_shards, 4);
  ASSERT_EQ(engine_stats.shard_probes.size(), 4u);
  uint64_t total = 0;
  for (uint64_t p : engine_stats.shard_probes) total += p;
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
