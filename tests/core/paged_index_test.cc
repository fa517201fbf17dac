#include <cstdio>
#include <string>

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

/// Bit-for-bit ranking equality.
void ExpectSameRanking(const std::vector<QueryMatch>& want,
                       const std::vector<QueryMatch>& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].image_id, got[i].image_id) << what << " rank " << i;
    EXPECT_EQ(want[i].similarity, got[i].similarity) << what << " rank " << i;
    EXPECT_EQ(want[i].matching_pairs, got[i].matching_pairs) << what;
    EXPECT_EQ(want[i].pairs_used, got[i].pairs_used) << what;
  }
}

void RemovePagedFiles(const std::string& prefix) {
  for (const char* suffix : {".catalog", ".pmeta", ".ptree"}) {
    std::remove((prefix + suffix).c_str());
  }
}

class PagedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetParams dp;
    dp.num_images = 18;
    dp.width = 64;
    dp.height = 64;
    dp.seed = 44;
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

TEST_F(PagedIndexTest, PagedQueriesMatchInMemory) {
  std::string prefix = ::testing::TempDir() + "/walrus_paged_a";
  ASSERT_TRUE(index_->SavePaged(prefix).ok());
  auto paged = WalrusIndex::OpenPaged(prefix);
  ASSERT_TRUE(paged.ok()) << paged.status();
  EXPECT_TRUE(paged->is_paged());
  EXPECT_FALSE(index_->is_paged());
  EXPECT_EQ(paged->ImageCount(), index_->ImageCount());
  EXPECT_EQ(paged->RegionCount(), index_->RegionCount());

  for (int id : {0, 3, 9}) {
    for (MatcherKind matcher : {MatcherKind::kQuick, MatcherKind::kGreedy}) {
      QueryOptions options;
      options.epsilon = 0.085f;
      options.matcher = matcher;
      auto memory = ExecuteQuery(*index_, dataset_[id].image, options);
      auto disk = ExecuteQuery(*paged, dataset_[id].image, options);
      ASSERT_TRUE(memory.ok() && disk.ok());
      ASSERT_EQ(memory->size(), disk->size()) << id;
      for (size_t i = 0; i < memory->size(); ++i) {
        EXPECT_EQ((*memory)[i].image_id, (*disk)[i].image_id) << id;
        EXPECT_NEAR((*memory)[i].similarity, (*disk)[i].similarity, 1e-9)
            << id;
      }
    }
  }

  // The mapped tree is read-only: every mutation answers Unimplemented and
  // leaves the index as it was.
  EXPECT_EQ(paged->AddImage(999, "new", dataset_[0].image).code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(paged->RemoveImage(static_cast<uint64_t>(dataset_[3].id)).code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(paged->ImageCount(), index_->ImageCount());
  EXPECT_TRUE(paged->ValidateConsistency().ok());
  RemovePagedFiles(prefix);
}

TEST_F(PagedIndexTest, PagedKnnQueriesWork) {
  std::string prefix = ::testing::TempDir() + "/walrus_paged_knn";
  ASSERT_TRUE(index_->SavePaged(prefix).ok());
  auto paged = WalrusIndex::OpenPaged(prefix);
  ASSERT_TRUE(paged.ok());

  QueryOptions options;
  options.knn_per_region = 3;
  auto memory = ExecuteQuery(*index_, dataset_[1].image, options);
  auto disk = ExecuteQuery(*paged, dataset_[1].image, options);
  ASSERT_TRUE(memory.ok() && disk.ok());
  ExpectSameRanking(*memory, *disk, "knn 3");
  RemovePagedFiles(prefix);

  // Every scene indexed twice (ids i and i + 1000) puts two entries at
  // exactly the same distance from each query region, so the k-th
  // neighbour is a tie: the paged ranking must still equal the in-memory
  // one bit for bit.
  DatasetParams dp;
  dp.num_images = 24;
  dp.width = 64;
  dp.height = 64;
  dp.seed = 45;
  const std::vector<LabeledImage> scenes = GenerateDataset(dp);
  WalrusIndex twice(TestParams());
  for (const LabeledImage& scene : scenes) {
    auto record = WalrusIndex::ExtractImageRecord(
        twice.params(), static_cast<uint64_t>(scene.id), "a", scene.image);
    ASSERT_TRUE(record.ok()) << record.status();
    ImageRecord copy = *record;
    copy.image_id += 1000;
    ASSERT_TRUE(twice.AddImageRecord(std::move(*record)).ok());
    ASSERT_TRUE(twice.AddImageRecord(std::move(copy)).ok());
  }
  std::string twice_prefix = ::testing::TempDir() + "/walrus_paged_twice";
  ASSERT_TRUE(twice.SavePaged(twice_prefix).ok());
  auto twice_paged = WalrusIndex::OpenPaged(twice_prefix);
  ASSERT_TRUE(twice_paged.ok()) << twice_paged.status();
  for (int k : {1, 8}) {
    QueryOptions knn;
    knn.knn_per_region = k;
    for (const LabeledImage& scene : scenes) {
      auto want = ExecuteQuery(twice, scene.image, knn);
      auto got = ExecuteQuery(*twice_paged, scene.image, knn);
      ASSERT_TRUE(want.ok() && got.ok());
      ExpectSameRanking(*want, *got,
                        "k=" + std::to_string(k) + " scene " +
                            std::to_string(scene.id));
    }
  }
  RemovePagedFiles(twice_prefix);
}

TEST_F(PagedIndexTest, OpenPagedRejectsMissingPieces) {
  std::string prefix = ::testing::TempDir() + "/walrus_paged_missing";
  ASSERT_TRUE(index_->SavePaged(prefix).ok());
  std::remove((prefix + ".ptree").c_str());
  EXPECT_FALSE(WalrusIndex::OpenPaged(prefix).ok());
  RemovePagedFiles(prefix);
  EXPECT_FALSE(WalrusIndex::OpenPaged(prefix).ok());
}

TEST_F(PagedIndexTest, BBoxSignatureModeRoundTrips) {
  WalrusParams p = TestParams();
  p.signature_kind = RegionSignatureKind::kBoundingBox;
  WalrusIndex index(p);
  for (const LabeledImage& scene : dataset_) {
    ASSERT_TRUE(
        index.AddImage(static_cast<uint64_t>(scene.id), "img", scene.image)
            .ok());
  }
  std::string prefix = ::testing::TempDir() + "/walrus_paged_bbox";
  ASSERT_TRUE(index.SavePaged(prefix).ok());
  auto paged = WalrusIndex::OpenPaged(prefix);
  ASSERT_TRUE(paged.ok()) << paged.status();

  QueryOptions options;
  options.epsilon = 0.05f;
  auto memory = ExecuteQuery(index, dataset_[2].image, options);
  auto disk = ExecuteQuery(*paged, dataset_[2].image, options);
  ASSERT_TRUE(memory.ok() && disk.ok());
  ASSERT_EQ(memory->size(), disk->size());
  for (size_t i = 0; i < memory->size(); ++i) {
    EXPECT_EQ((*memory)[i].image_id, (*disk)[i].image_id);
  }
  RemovePagedFiles(prefix);
}

}  // namespace
}  // namespace walrus
