#include "wal/live_index.h"

#include <cfloat>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/serialize.h"
#include "core/index.h"
#include "core/query.h"
#include "core/query_engine.h"
#include "fresh_dir.h"
#include "image/dataset.h"
#include "wal/wal.h"

namespace walrus {
namespace {

WalrusParams TestParams() {
  WalrusParams p;
  p.min_window = 16;
  p.max_window = 32;
  p.slide_step = 8;
  return p;
}

void ExpectIdenticalRankings(const std::vector<QueryMatch>& a,
                             const std::vector<QueryMatch>& b,
                             const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].image_id, b[i].image_id) << context << " rank " << i;
    EXPECT_EQ(a[i].similarity, b[i].similarity) << context << " rank " << i;
    EXPECT_EQ(a[i].matching_pairs, b[i].matching_pairs)
        << context << " rank " << i;
  }
}

class LiveIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetParams dp;
    dp.num_images = 14;
    dp.width = 64;
    dp.height = 64;
    dp.seed = 4242;
    dataset_ = GenerateDataset(dp);
  }

  /// Offline reference: one index holding exactly `ids`, built by serial
  /// AddImage (the layout the bit-identity contract is pinned against).
  std::unique_ptr<WalrusIndex> BuildOffline(const std::vector<int>& ids) {
    auto index = std::make_unique<WalrusIndex>(TestParams());
    for (int id : ids) {
      EXPECT_TRUE(index
                      ->AddImage(static_cast<uint64_t>(id), "img",
                                 dataset_[static_cast<size_t>(id)].image)
                      .ok());
    }
    return index;
  }

  void ExpectMatchesOffline(const LiveIndex& live,
                            const std::vector<int>& live_ids,
                            const QueryOptions& options,
                            const std::string& context) {
    std::unique_ptr<WalrusIndex> offline = BuildOffline(live_ids);
    SingleIndexEngine reference(*offline);
    for (size_t q = 0; q < dataset_.size(); q += 3) {
      auto expected = reference.RunQuery(dataset_[q].image, options);
      auto actual = live.RunQuery(dataset_[q].image, options);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(actual.ok()) << actual.status();
      ExpectIdenticalRankings(*expected, *actual,
                              context + " query " + std::to_string(q));
    }
  }

  std::vector<LabeledImage> dataset_;
};

TEST_F(LiveIndexTest, StartsEmptyAndInsertsMatchOfflineBuild) {
  std::string dir = FreshDir("live_empty_insert");
  LiveIndex::Options options;
  options.merge_threshold = 0;  // keep everything in the delta
  auto live = LiveIndex::Open(dir, TestParams(), options);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ((*live)->ImageCount(), 0u);

  std::vector<int> ids;
  for (int id = 0; id < 6; ++id) {
    ASSERT_TRUE((*live)
                    ->InsertImage(static_cast<uint64_t>(id), "img",
                                  dataset_[static_cast<size_t>(id)].image)
                    .ok());
    ids.push_back(id);
  }
  EXPECT_EQ((*live)->ImageCount(), 6u);

  QueryOptions q;
  q.epsilon = 0.09f;
  ExpectMatchesOffline(**live, ids, q, "delta-only");
}

TEST_F(LiveIndexTest, SeededBasePlusInsertsAndDeletesMatchOffline) {
  std::string dir = FreshDir("live_seeded");
  std::unique_ptr<WalrusIndex> seed = BuildOffline({0, 1, 2, 3, 4, 5, 6, 7});

  LiveIndex::Options options;
  options.num_shards = 3;
  options.merge_threshold = 0;
  auto live = LiveIndex::Open(dir, TestParams(), options, seed.get());
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ((*live)->ImageCount(), 8u);

  // Mutate: delete two base images, insert three new ones.
  ASSERT_TRUE((*live)->DeleteImage(2).ok());
  ASSERT_TRUE((*live)->DeleteImage(5).ok());
  for (int id = 8; id < 11; ++id) {
    ASSERT_TRUE((*live)
                    ->InsertImage(static_cast<uint64_t>(id), "img",
                                  dataset_[static_cast<size_t>(id)].image)
                    .ok());
  }
  EXPECT_EQ((*live)->ImageCount(), 9u);

  QueryOptions q;
  q.epsilon = 0.09f;
  ExpectMatchesOffline(**live, {0, 1, 3, 4, 6, 7, 8, 9, 10}, q,
                       "base+delta+tombstones");

  // The kNN probe path composes the same way.
  QueryOptions knn;
  knn.knn_per_region = 4;
  ExpectMatchesOffline(**live, {0, 1, 3, 4, 6, 7, 8, 9, 10}, knn,
                       "knn base+delta+tombstones");
}

TEST_F(LiveIndexTest, DuplicateAndMissingIdsAreRejected) {
  std::string dir = FreshDir("live_dup");
  std::unique_ptr<WalrusIndex> seed = BuildOffline({0, 1});
  LiveIndex::Options options;
  options.merge_threshold = 0;
  auto live = LiveIndex::Open(dir, TestParams(), options, seed.get());
  ASSERT_TRUE(live.ok()) << live.status();

  // Duplicate of a base image and of a delta image.
  EXPECT_EQ((*live)->InsertImage(0, "dup", dataset_[0].image).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE((*live)->InsertImage(7, "new", dataset_[7].image).ok());
  EXPECT_EQ((*live)->InsertImage(7, "dup", dataset_[7].image).code(),
            StatusCode::kAlreadyExists);

  EXPECT_EQ((*live)->DeleteImage(99).code(), StatusCode::kNotFound);
  ASSERT_TRUE((*live)->DeleteImage(0).ok());
  // Double delete of a tombstoned base image.
  EXPECT_EQ((*live)->DeleteImage(0).code(), StatusCode::kNotFound);
  // Re-insert under a tombstoned id: the new version lives in the delta.
  ASSERT_TRUE((*live)->InsertImage(0, "again", dataset_[2].image).ok());
  EXPECT_EQ((*live)->ImageCount(), 3u);
  // And deleting it again removes the delta copy.
  ASSERT_TRUE((*live)->DeleteImage(0).ok());
  EXPECT_EQ((*live)->ImageCount(), 2u);
}

TEST_F(LiveIndexTest, ReopenReplaysWalIntoIdenticalState) {
  std::string dir = FreshDir("live_reopen");
  std::unique_ptr<WalrusIndex> seed = BuildOffline({0, 1, 2, 3});
  LiveIndex::Options options;
  options.num_shards = 2;
  options.merge_threshold = 0;
  {
    auto live = LiveIndex::Open(dir, TestParams(), options, seed.get());
    ASSERT_TRUE(live.ok()) << live.status();
    ASSERT_TRUE((*live)->InsertImage(8, "img", dataset_[8].image).ok());
    ASSERT_TRUE((*live)->InsertImage(9, "img", dataset_[9].image).ok());
    ASSERT_TRUE((*live)->DeleteImage(1).ok());
    // No merge, no clean shutdown handshake: everything past the seed
    // lives only in the WAL when the process "dies" here.
  }
  auto live = LiveIndex::Open(dir, TestParams(), options);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ((*live)->ImageCount(), 5u);
  IngestStats stats = (*live)->IngestStatsSnapshot();
  EXPECT_EQ(stats.delta_images, 2u);
  EXPECT_EQ(stats.tombstones, 1u);

  QueryOptions q;
  q.epsilon = 0.09f;
  ExpectMatchesOffline(**live, {0, 2, 3, 8, 9}, q, "after replay");
}

TEST_F(LiveIndexTest, MergeFoldsDeltaAndSurvivesReopen) {
  std::string dir = FreshDir("live_merge");
  std::unique_ptr<WalrusIndex> seed = BuildOffline({0, 1, 2, 3, 4});
  LiveIndex::Options options;
  options.num_shards = 2;
  options.merge_threshold = 0;  // merge manually below
  auto live = LiveIndex::Open(dir, TestParams(), options, seed.get());
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_TRUE((*live)->InsertImage(10, "img", dataset_[10].image).ok());
  ASSERT_TRUE((*live)->DeleteImage(3).ok());
  EXPECT_EQ((*live)->generation(), 1u);

  ASSERT_TRUE((*live)->Merge().ok());
  EXPECT_EQ((*live)->generation(), 2u);
  IngestStats stats = (*live)->IngestStatsSnapshot();
  EXPECT_EQ(stats.delta_images, 0u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.merges, 1u);
  // The WAL restarted past the folded records.
  EXPECT_EQ(stats.wal_file_bytes, kWalHeaderBytes);

  QueryOptions q;
  q.epsilon = 0.09f;
  ExpectMatchesOffline(**live, {0, 1, 2, 4, 10}, q, "after merge");

  // A second merge with nothing pending is a no-op.
  ASSERT_TRUE((*live)->Merge().ok());
  EXPECT_EQ((*live)->generation(), 2u);

  // Reopen from the merged base (empty WAL) and keep mutating.
  live->reset();
  auto reopened = LiveIndex::Open(dir, TestParams(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->generation(), 2u);
  EXPECT_EQ((*reopened)->ImageCount(), 5u);
  ASSERT_TRUE((*reopened)->InsertImage(11, "img", dataset_[11].image).ok());
  ExpectMatchesOffline(**reopened, {0, 1, 2, 4, 10, 11}, q,
                       "post-merge reopen + insert");
}

TEST_F(LiveIndexTest, BackgroundMergeTriggersAtThreshold) {
  std::string dir = FreshDir("live_auto_merge");
  LiveIndex::Options options;
  options.merge_threshold = 3;
  auto live = LiveIndex::Open(dir, TestParams(), options);
  ASSERT_TRUE(live.ok()) << live.status();
  for (int id = 0; id < 5; ++id) {
    ASSERT_TRUE((*live)
                    ->InsertImage(static_cast<uint64_t>(id), "img",
                                  dataset_[static_cast<size_t>(id)].image)
                    .ok());
  }
  (*live)->WaitForMerge();
  EXPECT_GE((*live)->IngestStatsSnapshot().merges, 1u);
  EXPECT_GE((*live)->generation(), 2u);
  EXPECT_EQ((*live)->ImageCount(), 5u);

  QueryOptions q;
  q.epsilon = 0.09f;
  ExpectMatchesOffline(**live, {0, 1, 2, 3, 4}, q, "after auto merge");
}

// A non-finite pixel is refused before it is WAL-logged, so it can never
// be replayed into a directory that then fails to open.
TEST_F(LiveIndexTest, NonFiniteInsertIsRejectedAndDirectoryReopens) {
  std::string dir = FreshDir("live_nonfinite");
  std::unique_ptr<WalrusIndex> seed = BuildOffline({0, 1, 2});
  LiveIndex::Options options;
  options.num_shards = 2;
  options.merge_threshold = 0;
  {
    auto live = LiveIndex::Open(dir, TestParams(), options, seed.get());
    ASSERT_TRUE(live.ok()) << live.status();
    uint64_t id = 100;
    for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                      std::numeric_limits<float>::infinity(),
                      -std::numeric_limits<float>::infinity()}) {
      ImageF image = dataset_[3].image;
      image.Plane(0)[20 * 64 + 33] = bad;
      EXPECT_EQ((*live)->InsertImage(id++, "bad", image).code(),
                StatusCode::kInvalidArgument)
          << bad;
    }
    EXPECT_EQ((*live)->IngestStatsSnapshot().wal_records, 0u);
    ASSERT_TRUE((*live)->InsertImage(4, "img", dataset_[4].image).ok());
  }
  auto reopened = LiveIndex::Open(dir, TestParams(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->ImageCount(), 4u);
  QueryOptions q;
  q.epsilon = 0.09f;
  ExpectMatchesOffline(**reopened, {0, 1, 2, 4}, q, "after rejected inserts");
}

TEST_F(LiveIndexTest, HugeFiniteInsertDoesNotAbortAndDirectoryReopens) {
  std::string dir = FreshDir("live_flt_max");
  LiveIndex::Options options;
  options.merge_threshold = 0;
  {
    auto live = LiveIndex::Open(dir, TestParams(), options);
    ASSERT_TRUE(live.ok()) << live.status();
    ImageF image = dataset_[5].image;
    image.Plane(1)[7 * 64 + 7] = FLT_MAX;
    Status inserted = (*live)->InsertImage(5, "huge", image);
    EXPECT_TRUE(inserted.ok() ||
                inserted.code() == StatusCode::kInvalidArgument)
        << inserted;
    ASSERT_TRUE((*live)->InsertImage(6, "img", dataset_[6].image).ok());
  }
  // Replay of whatever the WAL acknowledged must succeed...
  {
    auto reopened = LiveIndex::Open(dir, TestParams(), options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_TRUE((*reopened)->ContainsImage(6));
    // ...and so must a merge of it into a base generation.
    ASSERT_TRUE((*reopened)->Merge().ok());
  }
  auto merged = LiveIndex::Open(dir, TestParams(), options);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_TRUE((*merged)->ContainsImage(6));
}

// A WAL header of the previous format (v2, whose insert bodies carried
// per-region signature words) is refused at open, not misparsed.
TEST_F(LiveIndexTest, V2WalHeaderIsCorruption) {
  std::string dir = FreshDir("live_wal_v2");
  LiveIndex::Options options;
  options.merge_threshold = 0;
  {
    auto live = LiveIndex::Open(dir, TestParams(), options);
    ASSERT_TRUE(live.ok()) << live.status();
  }
  const std::string path = dir + "/wal.log";
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_GE(bytes->size(), kWalHeaderBytes);
  ASSERT_EQ((*bytes)[4], kWalFormatVersion);
  (*bytes)[4] = 2;
  // Re-seal the header so only the version byte is wrong.
  const uint32_t crc = Crc32(bytes->data(), 16);
  for (int b = 0; b < 4; ++b) {
    (*bytes)[16 + b] = static_cast<uint8_t>(crc >> (8 * b));
  }
  ASSERT_TRUE(WriteFileBytes(path, *bytes).ok());
  auto reopened = LiveIndex::Open(dir, TestParams(), options);
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
      << reopened.status();
}

// TSan soak: readers query while a writer live-inserts images and deletes
// seed images, and the merge threshold forces background base/delta swaps
// mid-soak. Three base shards give the query fan-out a pool, so its tasks
// read the delta and the tombstones while merges swap the state.
TEST_F(LiveIndexTest, ConcurrentLiveInsertsAndQueries) {
  std::string dir = FreshDir("live_soak");
  constexpr int kSeedImages = 8;
  std::vector<int> seed_ids;
  for (int id = 0; id < kSeedImages; ++id) seed_ids.push_back(id);
  std::unique_ptr<WalrusIndex> seed = BuildOffline(seed_ids);
  LiveIndex::Options live_options;
  live_options.num_shards = 3;
  live_options.merge_threshold = 3;
  auto live = LiveIndex::Open(dir, TestParams(), live_options, seed.get());
  ASSERT_TRUE(live.ok()) << live.status();

  QueryOptions options;
  options.epsilon = 0.12f;
  QueryOptions knn;  // odd readers: the kNN merge over masked parts
  knn.knn_per_region = 3;
  constexpr int kReaders = 6;
  std::vector<std::thread> threads;
  std::vector<int> failures(kReaders + 1, 0);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      const QueryOptions& mode = t % 2 == 1 ? knn : options;
      for (int q = 0; q < 12; ++q) {
        const ImageF& image = dataset_[(t + q) % dataset_.size()].image;
        QueryStats stats;
        auto result = (*live)->RunQuery(image, mode, &stats);
        if (!result.ok()) ++failures[t];
      }
    });
  }
  // Each insert is followed by the delete of one seed image (0, 2, 4).
  constexpr int kDeletes = 3;
  threads.emplace_back([&] {
    for (int id = kSeedImages; id < static_cast<int>(dataset_.size()); ++id) {
      Status status = (*live)->InsertImage(
          static_cast<uint64_t>(id), "img",
          dataset_[static_cast<size_t>(id)].image);
      if (!status.ok()) ++failures[kReaders];
      const int victim = 2 * (id - kSeedImages);
      if (victim < 2 * kDeletes &&
          !(*live)->DeleteImage(static_cast<uint64_t>(victim)).ok()) {
        ++failures[kReaders];
      }
    }
  });
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < failures.size(); ++t) EXPECT_EQ(failures[t], 0) << t;

  (*live)->WaitForMerge();
  EXPECT_EQ((*live)->ImageCount(), dataset_.size() - kDeletes);
}

TEST_F(LiveIndexTest, ManifestRoundTripAndCorruptionDetection) {
  std::string dir = FreshDir("live_manifest");
  EXPECT_EQ(ReadLiveManifest(dir).status().code(), StatusCode::kNotFound);

  LiveManifest manifest;
  manifest.generation = 7;
  manifest.last_lsn = 123;
  manifest.num_shards = 4;
  manifest.paged = true;
  ASSERT_TRUE(WriteLiveManifest(dir, manifest).ok());
  auto read = ReadLiveManifest(dir);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->generation, 7u);
  EXPECT_EQ(read->last_lsn, 123u);
  EXPECT_EQ(read->num_shards, 4u);
  EXPECT_TRUE(read->paged);

  // A flipped byte breaks the checksum.
  std::string path = dir + "/MANIFEST";
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 9, SEEK_SET);
  std::fputc(0x5A, f);
  std::fclose(f);
  EXPECT_EQ(ReadLiveManifest(dir).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace walrus
