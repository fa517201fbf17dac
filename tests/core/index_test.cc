#include "core/index.h"

#include <cfloat>
#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

#include "image/synth.h"
#include "image/transform.h"

namespace walrus {
namespace {

WalrusParams TestParams() {
  WalrusParams p;
  p.min_window = 16;
  p.max_window = 16;
  p.slide_step = 8;
  return p;
}

ImageF ColoredImage(float r, float g, float b) {
  return MakeSolid(64, 64, {r, g, b});
}

TEST(Payload, EncodeDecodeRoundTrip) {
  uint64_t image_id;
  uint32_t region_id;
  DecodeRegionPayload(EncodeRegionPayload(0, 0), &image_id, &region_id);
  EXPECT_EQ(image_id, 0u);
  EXPECT_EQ(region_id, 0u);
  DecodeRegionPayload(EncodeRegionPayload(123456789ULL, 65535), &image_id,
                      &region_id);
  EXPECT_EQ(image_id, 123456789ULL);
  EXPECT_EQ(region_id, 65535u);
}

TEST(WalrusIndex, AddImagesAndCounts) {
  WalrusIndex index(TestParams());
  ExtractionStats stats;
  ASSERT_TRUE(index.AddImage(1, "red", ColoredImage(0.9f, 0.1f, 0.1f), &stats)
                  .ok());
  ASSERT_TRUE(index.AddImage(2, "green", ColoredImage(0.1f, 0.8f, 0.1f)).ok());
  EXPECT_EQ(index.ImageCount(), 2u);
  EXPECT_GE(index.RegionCount(), 2u);
  EXPECT_EQ(index.tree().size(),
            static_cast<int64_t>(index.RegionCount()));
  EXPECT_GT(stats.window_count, 0);
}

TEST(WalrusIndex, RejectsDuplicateImageId) {
  WalrusIndex index(TestParams());
  ASSERT_TRUE(index.AddImage(5, "a", ColoredImage(0.5f, 0.5f, 0.5f)).ok());
  Status dup = index.AddImage(5, "b", ColoredImage(0.1f, 0.2f, 0.3f));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(index.ImageCount(), 1u);
}

TEST(WalrusIndex, ImageRegionsAndArea) {
  WalrusIndex index(TestParams());
  ASSERT_TRUE(index.AddImage(7, "x", ColoredImage(0.2f, 0.4f, 0.8f)).ok());
  Result<std::vector<Region>> regions = index.ImageRegions(7);
  ASSERT_TRUE(regions.ok());
  EXPECT_FALSE(regions->empty());
  EXPECT_DOUBLE_EQ(index.ImageArea(7).value(), 64.0 * 64.0);
  EXPECT_FALSE(index.ImageRegions(8).ok());
  EXPECT_FALSE(index.ImageArea(8).ok());
}

TEST(WalrusIndex, ParamsSerializationRoundTrip) {
  WalrusParams p = TestParams();
  p.color_space = ColorSpace::kRGB;
  p.signature_kind = RegionSignatureKind::kBoundingBox;
  p.cluster_epsilon = 0.123;
  p.min_cluster_windows = 3;
  BinaryWriter writer;
  SerializeParams(p, &writer);
  BinaryReader reader(writer.buffer());
  Result<WalrusParams> restored = DeserializeParams(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->color_space, ColorSpace::kRGB);
  EXPECT_EQ(restored->signature_kind, RegionSignatureKind::kBoundingBox);
  EXPECT_DOUBLE_EQ(restored->cluster_epsilon, 0.123);
  EXPECT_EQ(restored->min_cluster_windows, 3);
  EXPECT_EQ(restored->min_window, p.min_window);
}

TEST(WalrusIndex, SaveOpenRoundTrip) {
  std::string prefix = ::testing::TempDir() + "/walrus_index_test";
  {
    WalrusIndex index(TestParams());
    ASSERT_TRUE(index.AddImage(1, "red", ColoredImage(0.9f, 0.1f, 0.1f)).ok());
    ASSERT_TRUE(
        index.AddImage(2, "green", ColoredImage(0.1f, 0.8f, 0.1f)).ok());
    ASSERT_TRUE(index.Save(prefix).ok());
  }
  Result<WalrusIndex> opened = WalrusIndex::Open(prefix);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->ImageCount(), 2u);
  EXPECT_EQ(opened->tree().size(),
            static_cast<int64_t>(opened->RegionCount()));
  EXPECT_EQ(opened->params().min_window, 16);
  // Regions still retrievable and identical in shape.
  Result<std::vector<Region>> regions = opened->ImageRegions(1);
  ASSERT_TRUE(regions.ok());
  EXPECT_FALSE(regions->empty());
  std::remove((prefix + ".catalog").c_str());
  std::remove((prefix + ".index").c_str());
}

TEST(WalrusIndex, OpenMissingFilesFails) {
  EXPECT_FALSE(WalrusIndex::Open("/no/such/prefix").ok());
}

/// A solid image with one pixel replaced by `value`.
ImageF WithPixel(float value) {
  ImageF image = ColoredImage(0.3f, 0.6f, 0.2f);
  image.Plane(2)[17 * 64 + 40] = value;
  return image;
}

TEST(WalrusIndex, NonFinitePixelsAreRejectedBeforeIndexing) {
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    WalrusIndex index(TestParams());
    ASSERT_TRUE(index.AddImage(1, "ok", ColoredImage(0.9f, 0.1f, 0.1f)).ok());
    EXPECT_EQ(index.AddImage(2, "bad", WithPixel(bad)).code(),
              StatusCode::kInvalidArgument)
        << bad;

    std::vector<WalrusIndex::PendingImage> batch;
    batch.push_back({3, "fine", ColoredImage(0.1f, 0.8f, 0.1f)});
    batch.push_back({4, "bad", WithPixel(bad)});
    EXPECT_EQ(index.AddImages(std::move(batch), 1).code(),
              StatusCode::kInvalidArgument)
        << bad;

    // Nothing of either rejected call reached the index.
    EXPECT_EQ(index.ImageCount(), 1u);
    EXPECT_TRUE(index.ValidateConsistency().ok());
  }
}

TEST(WalrusIndex, HugeFinitePixelDoesNotAbortAndReopens) {
  std::string prefix = ::testing::TempDir() + "/walrus_index_flt_max";
  // A color conversion clamps FLT_MAX into range; signatures computed in
  // the image's own RGB space carry it into the window sums unclamped.
  for (ColorSpace space : {ColorSpace::kYCC, ColorSpace::kRGB}) {
    {
      WalrusParams params = TestParams();
      params.color_space = space;
      WalrusIndex index(params);
      Status added = index.AddImage(1, "huge", WithPixel(FLT_MAX));
      EXPECT_TRUE(added.ok() || added.code() == StatusCode::kInvalidArgument)
          << added;
      ASSERT_TRUE(index.AddImage(2, "ok", ColoredImage(0.9f, 0.1f, 0.1f))
                      .ok());
      EXPECT_TRUE(index.ValidateConsistency().ok());
      ASSERT_TRUE(index.Save(prefix).ok());
    }
    Result<WalrusIndex> opened = WalrusIndex::Open(prefix);
    EXPECT_TRUE(opened.ok()) << opened.status();
    std::remove((prefix + ".catalog").c_str());
    std::remove((prefix + ".index").c_str());
  }
}

}  // namespace
}  // namespace walrus
