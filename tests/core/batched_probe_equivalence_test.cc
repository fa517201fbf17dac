#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "core/query.h"
#include "image/synth.h"
#include "image/transform.h"

namespace walrus {
namespace {

// End-to-end contract of the batched probe: the multi-probe traversal
// filters each node's entries with the active ISA's SIMD kernels and
// delivers candidates node-grouped, but the candidate SET is fixed by the
// exact kernels, and because the pipeline canonicalizes candidates before
// matching, the ranked results are byte-identical at every ISA level.
// (RStarOracle in tests/spatial/rstar_oracle_test.cc checks the traversal
// itself against a linear scan.)

WalrusParams TestParams() {
  WalrusParams p;
  p.min_window = 8;
  p.max_window = 16;
  p.slide_step = 8;
  return p;
}

ImageF NoisyImage(int w, int h, uint64_t seed) {
  Rng rng(seed);
  ImageF img = MakeSolid(w, h, {rng.NextFloat(), rng.NextFloat(),
                                rng.NextFloat()});
  // A few random rectangles give each image several distinct regions.
  for (int k = 0; k < 4; ++k) {
    int bw = 8 + static_cast<int>(
                     rng.NextBounded(static_cast<uint32_t>(w / 2)));
    int bh = 8 + static_cast<int>(
                     rng.NextBounded(static_cast<uint32_t>(h / 2)));
    ImageF block =
        MakeSolid(bw, bh, {rng.NextFloat(), rng.NextFloat(), rng.NextFloat()});
    Composite(&img, block,
              static_cast<int>(rng.NextBounded(static_cast<uint32_t>(w - bw))),
              static_cast<int>(rng.NextBounded(static_cast<uint32_t>(h - bh))));
  }
  return img;
}

void ExpectSameMatches(const std::vector<QueryMatch>& a,
                       const std::vector<QueryMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].image_id, b[i].image_id) << "rank " << i;
    EXPECT_EQ(a[i].similarity, b[i].similarity) << "rank " << i;
    EXPECT_EQ(a[i].matching_pairs, b[i].matching_pairs) << "rank " << i;
    EXPECT_EQ(a[i].pairs_used, b[i].pairs_used) << "rank " << i;
  }
}

class BatchedProbeEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    index_ = std::make_unique<WalrusIndex>(TestParams());
    for (uint64_t id = 1; id <= 20; ++id) {
      ASSERT_TRUE(index_
                      ->AddImage(id, "img" + std::to_string(id),
                                 NoisyImage(64, 64, 9000 + id))
                      .ok());
    }
  }

  std::vector<QueryMatch> Run(const WalrusIndex& index) {
    QueryOptions options;
    options.epsilon = 0.15f;
    Result<std::vector<QueryMatch>> matches =
        ExecuteQuery(index, NoisyImage(64, 64, 12345), options);
    EXPECT_TRUE(matches.ok()) << matches.status();
    return matches.ok() ? *matches : std::vector<QueryMatch>{};
  }

  std::unique_ptr<WalrusIndex> index_;
};

TEST_F(BatchedProbeEquivalence, InMemoryResultsIdenticalAcrossIsaLevels) {
  simd::TestOnlySetIsa(simd::IsaLevel::kScalar);
  const std::vector<QueryMatch> baseline = Run(*index_);
  EXPECT_FALSE(baseline.empty());
  for (int l = 0; l <= static_cast<int>(simd::MaxSupportedIsa()); ++l) {
    simd::TestOnlySetIsa(static_cast<simd::IsaLevel>(l));
    ExpectSameMatches(baseline, Run(*index_));
  }
  simd::TestOnlyResetIsa();
}

}  // namespace
}  // namespace walrus
