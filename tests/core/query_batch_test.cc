#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/query.h"
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

class QueryBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetParams dp;
    dp.num_images = 16;
    dp.width = 64;
    dp.height = 64;
    dp.seed = 55;
    dataset_ = GenerateDataset(dp);
    index_ = std::make_unique<WalrusIndex>(TestParams());
    for (const LabeledImage& scene : dataset_) {
      ASSERT_TRUE(index_
                      ->AddImage(static_cast<uint64_t>(scene.id), "img",
                                 scene.image)
                      .ok());
    }
  }
  std::vector<LabeledImage> dataset_;
  std::unique_ptr<WalrusIndex> index_;
};

TEST_F(QueryBatchTest, BatchMatchesSequential) {
  std::vector<ImageF> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(dataset_[i].image);

  QueryOptions options;
  options.epsilon = 0.085f;
  options.matcher = MatcherKind::kGreedy;
  auto batch = ExecuteQueryBatch(*index_, queries, options, 4);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), 8u);
  for (int i = 0; i < 8; ++i) {
    auto sequential = ExecuteQuery(*index_, queries[i], options);
    ASSERT_TRUE(sequential.ok());
    ASSERT_EQ((*batch)[i].size(), sequential->size()) << i;
    for (size_t j = 0; j < sequential->size(); ++j) {
      EXPECT_EQ((*batch)[i][j].image_id, (*sequential)[j].image_id) << i;
      EXPECT_NEAR((*batch)[i][j].similarity, (*sequential)[j].similarity,
                  1e-9)
          << i;
    }
  }
}

TEST_F(QueryBatchTest, EmptyBatch) {
  QueryOptions options;
  auto batch = ExecuteQueryBatch(*index_, {}, options);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

TEST_F(QueryBatchTest, BatchAgainstPagedIndexIsSafe) {
  std::string prefix = ::testing::TempDir() + "/walrus_batch_paged";
  ASSERT_TRUE(index_->SavePaged(prefix).ok());
  auto paged = WalrusIndex::OpenPaged(prefix);
  ASSERT_TRUE(paged.ok());

  std::vector<ImageF> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(dataset_[i].image);
  QueryOptions options;
  options.epsilon = 0.085f;
  auto batch = ExecuteQueryBatch(*paged, queries, options, 4);
  ASSERT_TRUE(batch.ok()) << batch.status();
  for (int i = 0; i < 6; ++i) {
    auto sequential = ExecuteQuery(*index_, queries[i], options);
    ASSERT_TRUE(sequential.ok());
    ASSERT_EQ((*batch)[i].size(), sequential->size()) << i;
  }
  for (const char* suffix : {".catalog", ".pmeta", ".ptree"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST_F(QueryBatchTest, ErrorPropagates) {
  std::vector<ImageF> queries = {dataset_[0].image,
                                 ImageF(4, 4, 3, ColorSpace::kRGB)};
  QueryOptions options;
  auto batch = ExecuteQueryBatch(*index_, queries, options);
  ASSERT_FALSE(batch.ok());  // second image smaller than min_window
  // The error names the failing query so callers (and walrusd's error
  // replies) can attribute it without re-running the batch.
  EXPECT_NE(batch.status().message().find("query 1 of 2"), std::string::npos)
      << batch.status();
}

// Concurrent queries on one in-memory index each report the tree nodes
// their own traversals visited: the count a query returns alone. Each
// thread has its own query (image, epsilon or kNN), so a count borrowed
// from another thread's search would show.
TEST_F(QueryBatchTest, ConcurrentQueriesReportTheirOwnNodesVisited) {
  constexpr int kThreads = 6;
  constexpr int kRounds = 20;
  std::vector<QueryOptions> options(kThreads);
  std::vector<int64_t> alone(kThreads);
  std::set<int64_t> distinct;
  for (int t = 0; t < kThreads; ++t) {
    options[t].epsilon = 0.03f + 0.04f * static_cast<float>(t);
    if (t % 2 == 1) options[t].knn_per_region = 2 * t;
    const ImageF& image = dataset_[t].image;
    QueryStats stats;
    ASSERT_TRUE(ExecuteQuery(*index_, image, options[t], &stats).ok());
    alone[t] = stats.nodes_visited;
    EXPECT_GT(alone[t], 0) << t;
    distinct.insert(alone[t]);
  }
  EXPECT_GT(distinct.size(), 2u);

  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ImageF& image = dataset_[t].image;
      for (int round = 0; round < kRounds; ++round) {
        QueryStats stats;
        const bool ok = ExecuteQuery(*index_, image, options[t], &stats).ok();
        if (!ok || stats.nodes_visited != alone[t]) ++wrong[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << t;
}

}  // namespace
}  // namespace walrus
