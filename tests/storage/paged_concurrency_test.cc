// Concurrency audit for the paged index read path. A paged index reads its
// R*-tree straight from a read-only file mapping with no lock and no
// per-call state outside the traversal, so many threads may query it at
// once. This test exists to run under TSan (scripts/check.sh stage 3).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/index.h"
#include "core/query.h"
#include "image/dataset.h"

namespace walrus {
namespace {

TEST(PagedConcurrencyTest, ConcurrentQueriesOnMappedTree) {
  DatasetParams dp;
  dp.num_images = 10;
  dp.width = 64;
  dp.height = 64;
  dp.seed = 7;
  std::vector<LabeledImage> dataset = GenerateDataset(dp);

  WalrusParams params;
  params.min_window = 16;
  params.max_window = 32;
  params.slide_step = 8;
  WalrusIndex builder(params);
  for (const LabeledImage& scene : dataset) {
    ASSERT_TRUE(
        builder.AddImage(static_cast<uint64_t>(scene.id), "img", scene.image)
            .ok());
  }
  std::string prefix = ::testing::TempDir() + "/walrus_paged_concurrency";
  ASSERT_TRUE(builder.SavePaged(prefix).ok());
  auto paged = WalrusIndex::OpenPaged(prefix);
  ASSERT_TRUE(paged.ok()) << paged.status();
  ASSERT_TRUE(paged->is_paged());

  QueryOptions options;
  options.epsilon = 0.085f;
  std::vector<std::vector<QueryMatch>> want;
  for (const LabeledImage& scene : dataset) {
    auto matches = ExecuteQuery(builder, scene.image, options);
    ASSERT_TRUE(matches.ok()) << matches.status();
    want.push_back(std::move(*matches));
  }

  constexpr int kQueryThreads = 8;
  constexpr int kQueriesPerThread = 4;
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kQueryThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int q = 0; q < kQueriesPerThread; ++q) {
          const size_t i = (t + q) % dataset.size();
          auto got = ExecuteQuery(*paged, dataset[i].image, options);
          if (!got.ok() || got->size() != want[i].size()) {
            ++failures;
            continue;
          }
          for (size_t r = 0; r < got->size(); ++r) {
            if ((*got)[r].image_id != want[i][r].image_id ||
                (*got)[r].similarity != want[i][r].similarity) {
              ++failures;
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(failures.load(), 0);

  for (const char* suffix : {".catalog", ".pmeta", ".ptree"}) {
    std::remove((prefix + suffix).c_str());
  }
}

}  // namespace
}  // namespace walrus
