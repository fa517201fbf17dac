#include <cstring>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/random.h"
#include "common/serialize.h"
#include "spatial/rstar_tree.h"

namespace walrus {
namespace {

/// A multi-level tree (default max_entries = 16, so 200 entries force
/// splits) with deterministic pseudo-random points.
RStarTree BuildTree(int num_entries) {
  RStarTree tree(2);
  Rng rng(7);
  for (int i = 0; i < num_entries; ++i) {
    std::vector<float> p = {rng.NextFloat(), rng.NextFloat()};
    tree.Insert(Rect::Point(p), static_cast<uint64_t>(i));
  }
  return tree;
}

TEST(RStarCorruption, HealthyTreeValidates) {
  RStarTree tree = BuildTree(200);
  EXPECT_GT(tree.height(), 1);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(RStarCorruption, ValidateDetectsCorruptedMbr) {
  RStarTree tree = BuildTree(200);
  BinaryWriter writer;
  tree.Serialize(&writer);
  std::vector<uint8_t> bytes = writer.buffer();

  // File image: a 40-byte header (node count at offset 16), nodes of
  // 8 + 8 * dim * M + 8 * M bytes (dim 2, M 16) numbered breadth-first, so
  // the last node is a leaf, and a CRC-32 of everything before it. Grow the
  // hi coordinate of that leaf's first entry so the box stays well-formed
  // but escapes every ancestor's stored rect, then re-stamp the CRC: the
  // loader trusts well-formed rects, the deep validator must not.
  constexpr size_t kHeader = 40;
  constexpr size_t kDim = 2;
  constexpr size_t kM = 16;
  constexpr size_t kNodeBytes = 8 + 8 * kDim * kM + 8 * kM;
  uint32_t node_count;
  std::memcpy(&node_count, bytes.data() + 16, 4);
  ASSERT_EQ(bytes.size(), kHeader + node_count * kNodeBytes + 4);
  const size_t hi_pos = kHeader + (node_count - 1) * kNodeBytes + 8 +
                        4 * (kDim * kM + (kDim - 1) * kM);
  float hi;
  std::memcpy(&hi, bytes.data() + hi_pos, 4);
  hi += 1000.0f;
  std::memcpy(bytes.data() + hi_pos, &hi, 4);
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);

  Result<RStarTree> corrupted = RStarTree::Deserialize(bytes);
  ASSERT_TRUE(corrupted.ok()) << corrupted.status();
  Status status = corrupted->Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
}

TEST(RStarCorruption, SerializeRoundTripStaysValid) {
  RStarTree tree = BuildTree(120);
  BinaryWriter writer;
  tree.Serialize(&writer);
  Result<RStarTree> loaded = RStarTree::Deserialize(writer.buffer());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->Validate().ok());
}

}  // namespace
}  // namespace walrus
