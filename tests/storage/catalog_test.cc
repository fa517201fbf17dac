#include "storage/catalog.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "common/random.h"

namespace walrus {
namespace {

RegionRecord MakeRegion(uint32_t id, Rng* rng, int dim = 12) {
  RegionRecord r;
  r.region_id = id;
  for (int i = 0; i < dim; ++i) {
    float c = rng->NextFloat();
    r.centroid.push_back(c);
    r.bbox_lo.push_back(c - 0.05f);
    r.bbox_hi.push_back(c + 0.05f);
  }
  r.bitmap_side = 16;
  r.bitmap.assign(32, 0);
  for (auto& b : r.bitmap) b = static_cast<uint8_t>(rng->NextU32());
  r.window_count = rng->NextInt(1, 500);
  return r;
}

ImageRecord MakeImage(uint64_t id, int regions, Rng* rng) {
  ImageRecord rec;
  rec.image_id = id;
  rec.name = "img_" + std::to_string(id);
  rec.width = 128;
  rec.height = 96;
  for (int i = 0; i < regions; ++i) {
    rec.regions.push_back(MakeRegion(static_cast<uint32_t>(i), rng));
  }
  return rec;
}

void ExpectRecordsEqual(const ImageRecord& a, const ImageRecord& b) {
  EXPECT_EQ(a.image_id, b.image_id);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.width, b.width);
  EXPECT_EQ(a.height, b.height);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i].region_id, b.regions[i].region_id);
    EXPECT_EQ(a.regions[i].centroid, b.regions[i].centroid);
    EXPECT_EQ(a.regions[i].bbox_lo, b.regions[i].bbox_lo);
    EXPECT_EQ(a.regions[i].bbox_hi, b.regions[i].bbox_hi);
    EXPECT_EQ(a.regions[i].bitmap, b.regions[i].bitmap);
    EXPECT_EQ(a.regions[i].bitmap_side, b.regions[i].bitmap_side);
    EXPECT_EQ(a.regions[i].window_count, b.regions[i].window_count);
  }
}

TEST(Catalog, AddAndFind) {
  Rng rng(1);
  Catalog catalog;
  ASSERT_TRUE(catalog.AddImage(MakeImage(7, 3, &rng)).ok());
  ASSERT_TRUE(catalog.AddImage(MakeImage(9, 1, &rng)).ok());
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.TotalRegions(), 4u);
  ASSERT_NE(catalog.FindImage(7), nullptr);
  EXPECT_EQ(catalog.FindImage(7)->regions.size(), 3u);
  EXPECT_EQ(catalog.FindImage(12345), nullptr);
}

TEST(Catalog, RejectsDuplicateIds) {
  Rng rng(2);
  Catalog catalog;
  ASSERT_TRUE(catalog.AddImage(MakeImage(1, 1, &rng)).ok());
  Status dup = catalog.AddImage(MakeImage(1, 2, &rng));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(Catalog, FileRoundTripThroughPageFile) {
  Rng rng(4);
  Catalog catalog;
  for (uint64_t id = 0; id < 25; ++id) {
    ASSERT_TRUE(catalog.AddImage(MakeImage(id, rng.NextInt(1, 20), &rng)).ok());
  }
  std::string path = ::testing::TempDir() + "/walrus_catalog_test.db";
  ASSERT_TRUE(catalog.SaveToFile(path).ok());
  Result<Catalog> loaded = Catalog::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), 25u);
  for (const ImageRecord& rec : catalog.images()) {
    const ImageRecord* other = loaded->FindImage(rec.image_id);
    ASSERT_NE(other, nullptr);
    ExpectRecordsEqual(rec, *other);
  }
  std::remove(path.c_str());
}

TEST(Catalog, EmptyCatalogFileRoundTrip) {
  Catalog catalog;
  std::string path = ::testing::TempDir() + "/walrus_catalog_empty.db";
  ASSERT_TRUE(catalog.SaveToFile(path).ok());
  Result<Catalog> loaded = Catalog::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), 0u);
  std::remove(path.c_str());
}

TEST(Catalog, LoadRejectsMissingFile) {
  EXPECT_FALSE(Catalog::LoadFromFile("/no/such/catalog.db").ok());
}

}  // namespace
}  // namespace walrus
