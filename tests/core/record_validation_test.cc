// Malformed region records through every entry point: each bad record must
// come back as a Status (InvalidArgument from the in-process builders,
// Corruption from catalog load and WAL replay) and never abort, including
// under ASan+UBSan.

#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "core/index.h"
#include "core/query.h"
#include "fresh_dir.h"
#include "image/dataset.h"
#include "storage/catalog.h"
#include "storage/page_file.h"
#include "wal/live_index.h"
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

/// One way to break a record. The record handed to `apply` is a valid
/// extracted record (params dim 12, bitmap side 16, no refinement).
struct BadRecord {
  std::string name;
  std::function<void(ImageRecord*)> apply;
};

std::vector<BadRecord> BadRecords() {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  return {
      {"nan_centroid_and_bbox",
       [nan](ImageRecord* r) {
         r->regions[0].centroid[0] = nan;
         r->regions[0].bbox_lo[0] = nan;
       }},
      {"inf_bbox_hi",
       [inf](ImageRecord* r) { r->regions[0].bbox_hi[3] = inf; }},
      {"centroid_of_11_floats",
       [](ImageRecord* r) { r->regions[0].centroid.pop_back(); }},
      {"bbox_of_13_floats",
       [](ImageRecord* r) {
         r->regions[0].bbox_lo.push_back(0.0f);
         r->regions[0].bbox_hi.push_back(0.0f);
       }},
      {"refined_centroid_without_refinement",
       [](ImageRecord* r) { r->regions[0].refined_centroid.assign(5, 0.1f); }},
      {"inverted_bbox",
       [](ImageRecord* r) {
         RegionRecord& region = r->regions[0];
         region.bbox_lo[1] = region.bbox_hi[1] + 1.0f;
       }},
      {"bitmap_one_byte_short",
       [](ImageRecord* r) { r->regions[0].bitmap.pop_back(); }},
      {"bitmap_side_differs_from_params",
       [](ImageRecord* r) {
         r->regions[0].bitmap_side = 8;
         r->regions[0].bitmap.resize(8);
       }},
      {"sparse_region_ids",
       [](ImageRecord* r) { r->regions.back().region_id = 40000; }},
      {"image_id_past_48_bits",
       [](ImageRecord* r) { r->image_id = uint64_t{1} << 48; }},
  };
}

class RecordValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetParams dp;
    dp.num_images = 4;
    dp.width = 64;
    dp.height = 64;
    dp.seed = 20261017;
    dataset_ = GenerateDataset(dp);
    for (const LabeledImage& scene : dataset_) {
      auto record = WalrusIndex::ExtractImageRecord(
          TestParams(), static_cast<uint64_t>(scene.id), "img", scene.image);
      ASSERT_TRUE(record.ok()) << record.status();
      ASSERT_GE(record->regions.size(), 2u);
      records_.push_back(std::move(*record));
    }
  }

  /// A copy of the last dataset record, broken by `bad`.
  ImageRecord Broken(const BadRecord& bad) const {
    ImageRecord record = records_.back();
    bad.apply(&record);
    return record;
  }

  /// The valid records minus the last one (whose broken copy is added).
  std::vector<ImageRecord> ValidPrefix() const {
    return {records_.begin(), records_.end() - 1};
  }

  std::vector<LabeledImage> dataset_;
  std::vector<ImageRecord> records_;
};

TEST_F(RecordValidationTest, ExtractedRecordsPass) {
  for (const ImageRecord& record : records_) {
    EXPECT_TRUE(ValidateImageRecord(record, TestParams()).ok());
  }
  for (const BadRecord& bad : BadRecords()) {
    Status status = ValidateImageRecord(Broken(bad), TestParams());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << bad.name << ": " << status;
  }
}

TEST_F(RecordValidationTest, FromRecordsRejectsEachBadRecord) {
  for (const BadRecord& bad : BadRecords()) {
    SCOPED_TRACE(bad.name);
    std::vector<ImageRecord> records = ValidPrefix();
    records.push_back(Broken(bad));
    auto index = WalrusIndex::FromRecords(TestParams(), std::move(records));
    EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument)
        << index.status();
  }
}

TEST_F(RecordValidationTest, AddImageRecordRejectsEachBadRecord) {
  auto index = WalrusIndex::FromRecords(TestParams(), ValidPrefix());
  ASSERT_TRUE(index.ok()) << index.status();
  QueryOptions options;
  options.epsilon = 0.2f;
  for (const BadRecord& bad : BadRecords()) {
    SCOPED_TRACE(bad.name);
    Status status = index->AddImageRecord(Broken(bad));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    // Nothing of the rejected record reached the tree or the catalog.
    EXPECT_EQ(index->ImageCount(), records_.size() - 1);
    EXPECT_TRUE(index->ValidateConsistency().ok());
    EXPECT_TRUE(ExecuteQuery(*index, dataset_.back().image, options).ok());
  }
}

TEST_F(RecordValidationTest, SavedCatalogWithBadRecordIsCorruption) {
  auto index = WalrusIndex::FromRecords(TestParams(), records_);
  ASSERT_TRUE(index.ok()) << index.status();
  const std::string prefix = ::testing::TempDir() + "/record_validation_idx";
  ASSERT_TRUE(index->Save(prefix).ok());
  ASSERT_TRUE(index->SavePaged(prefix).ok());
  for (const BadRecord& bad : BadRecords()) {
    SCOPED_TRACE(bad.name);
    // Catalog::AddImage stores records as given, so the bad one lands on
    // disk exactly as a damaged or hand-written file would hold it.
    Catalog catalog;
    for (ImageRecord& record : ValidPrefix()) {
      ASSERT_TRUE(catalog.AddImage(std::move(record)).ok());
    }
    ASSERT_TRUE(catalog.AddImage(Broken(bad)).ok());
    ASSERT_TRUE(catalog.SaveToFile(prefix + ".catalog").ok());
    EXPECT_EQ(WalrusIndex::Open(prefix).status().code(),
              StatusCode::kCorruption);
    EXPECT_EQ(WalrusIndex::OpenPaged(prefix).status().code(),
              StatusCode::kCorruption);
  }
}

TEST_F(RecordValidationTest, WalRecordWithBadRecordIsCorruption) {
  LiveIndex::Options options;
  options.merge_threshold = 0;
  for (const BadRecord& bad : BadRecords()) {
    SCOPED_TRACE(bad.name);
    const std::string dir = FreshDir("record_validation_wal");
    {
      auto live = LiveIndex::Open(dir, TestParams(), options);
      ASSERT_TRUE(live.ok()) << live.status();
      ASSERT_TRUE((*live)->InsertImage(0, "img", dataset_[0].image).ok());
    }
    {
      WalScan scan;
      auto wal = WriteAheadLog::Open(dir + "/wal.log", &scan);
      ASSERT_TRUE(wal.ok()) << wal.status();
      ASSERT_EQ(scan.records.size(), 1u);
      BinaryWriter body;
      Broken(bad).Serialize(&body);
      auto lsn = (*wal)->Append(WalRecordType::kInsertImage, body.buffer());
      ASSERT_TRUE(lsn.ok()) << lsn.status();
      ASSERT_TRUE((*wal)->Commit(*lsn).ok());
    }
    auto reopened = LiveIndex::Open(dir, TestParams(), options);
    EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
        << reopened.status();
  }
}

// Catalog files written before the format version existed (v1) stored the
// per-region signature count and words after window_count and began the
// directory blob with the image count. Such a file must be refused, not
// misparsed.
TEST_F(RecordValidationTest, ParentLayoutCatalogIsCorruption) {
  auto index = WalrusIndex::FromRecords(TestParams(), records_);
  ASSERT_TRUE(index.ok()) << index.status();
  const std::string prefix = ::testing::TempDir() + "/record_validation_v1";
  ASSERT_TRUE(index->Save(prefix).ok());
  ASSERT_TRUE(index->SavePaged(prefix).ok());

  {
    auto file = PageFile::Create(prefix + ".catalog");
    ASSERT_TRUE(file.ok()) << file.status();
    BinaryWriter directory;
    directory.PutU32(static_cast<uint32_t>(records_.size()));
    for (const ImageRecord& record : records_) {
      BinaryWriter writer;
      writer.PutU64(record.image_id);
      writer.PutString(record.name);
      writer.PutU32(record.width);
      writer.PutU32(record.height);
      writer.PutU32(static_cast<uint32_t>(record.regions.size()));
      for (const RegionRecord& region : record.regions) {
        region.Serialize(&writer);
        writer.PutU32(static_cast<uint32_t>(region.centroid.size()));
        for (size_t d = 0; d < region.centroid.size(); ++d) {
          writer.PutU64(~uint64_t{0} >> d);
        }
      }
      auto ref = file->WriteBlob(writer.buffer());
      ASSERT_TRUE(ref.ok()) << ref.status();
      directory.PutU64(record.image_id);
      directory.PutU32(ref->head_page);
      directory.PutU64(ref->length);
    }
    auto dir_ref = file->WriteBlob(directory.buffer());
    ASSERT_TRUE(dir_ref.ok()) << dir_ref.status();
    BinaryWriter root;
    root.PutU32(dir_ref->head_page);
    root.PutU64(dir_ref->length);
    ASSERT_TRUE(file->WriteBlob(root.buffer()).ok());
    ASSERT_TRUE(file->Sync().ok());
  }

  EXPECT_EQ(WalrusIndex::Open(prefix).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(WalrusIndex::OpenPaged(prefix).status().code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace walrus
