// Verifies the umbrella header is self-contained and exposes the whole
// public API surface (compile coverage) plus the version constants.

#include "walrus.h"

#include <gtest/gtest.h>

namespace walrus {
namespace {

TEST(Umbrella, VersionConstantsConsistent) {
  EXPECT_EQ(kVersionMajor, 1);
  std::string expected = std::to_string(kVersionMajor) + "." +
                         std::to_string(kVersionMinor) + "." +
                         std::to_string(kVersionPatch);
  EXPECT_EQ(expected, kVersionString);
}

TEST(Umbrella, CoreTypesUsableViaSingleInclude) {
  // Touch one symbol from each major module to prove the umbrella header
  // compiles standalone and links.
  WalrusParams params;
  params.min_window = 16;
  params.max_window = 16;
  params.slide_step = 8;
  ASSERT_TRUE(params.Validate().ok());

  WalrusIndex index(params);
  ImageF image = MakeSolid(32, 32, {0.2f, 0.5f, 0.8f});
  ASSERT_TRUE(index.AddImage(1, "x", image).ok());

  QueryOptions options;
  options.epsilon = 0.05f;
  auto matches = ExecuteQuery(index, image, options);
  ASSERT_TRUE(matches.ok());
  EXPECT_FALSE(matches->empty());

  RStarTree tree(2);
  tree.Insert(Rect::Point({0.1f, 0.2f}), 7);
  EXPECT_EQ(tree.size(), 1);

  Rng rng(1);
  EXPECT_LT(rng.NextDouble(), 1.0);
}

}  // namespace
}  // namespace walrus
