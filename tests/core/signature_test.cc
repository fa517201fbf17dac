#include "core/signature.h"

#include <cfloat>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "image/synth.h"
#include "image/transform.h"

namespace walrus {
namespace {

WalrusParams SmallParams() {
  WalrusParams p;
  p.min_window = 8;
  p.max_window = 16;
  p.slide_step = 4;
  p.signature_size = 2;
  return p;
}

ImageF RandomRgb(int w, int h, uint64_t seed) {
  Rng rng(seed);
  ImageF img(w, h, 3, ColorSpace::kRGB);
  for (int c = 0; c < 3; ++c) {
    for (float& v : img.Plane(c)) v = rng.NextFloat();
  }
  return img;
}

TEST(Signature, DimensionsAndCounts) {
  ImageF img = RandomRgb(32, 32, 1);
  Result<WindowSignatureSet> set = ComputeWindowSignatures(img, SmallParams());
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_EQ(set->dim, 12);
  // Windows of size 8 (7x7 grid at step 4) and 16 (5x5 grid).
  EXPECT_EQ(set->Count(), 49 + 25);
  EXPECT_EQ(set->signatures.size(), static_cast<size_t>(set->Count()) * 12);
  int count8 = 0;
  int count16 = 0;
  for (const WindowPlacement& w : set->windows) {
    if (w.size == 8) ++count8;
    if (w.size == 16) ++count16;
  }
  EXPECT_EQ(count8, 49);
  EXPECT_EQ(count16, 25);
}

TEST(Signature, UniformImageHasUniformSignatures) {
  ImageF img(32, 32, 3, ColorSpace::kRGB);
  img.Fill(0.5f);
  Result<WindowSignatureSet> set = ComputeWindowSignatures(img, SmallParams());
  ASSERT_TRUE(set.ok());
  // All windows identical: DC per channel equals the converted value,
  // detail coefficients are 0.
  const float* first = set->SignatureAt(0);
  for (int i = 1; i < set->Count(); ++i) {
    const float* sig = set->SignatureAt(i);
    for (int k = 0; k < set->dim; ++k) {
      ASSERT_NEAR(sig[k], first[k], 1e-5f);
    }
  }
  // Detail positions (indices 1..3 within each channel block) are zero.
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(first[4 * c + 1], 0.0f, 1e-6f);
    EXPECT_NEAR(first[4 * c + 2], 0.0f, 1e-6f);
    EXPECT_NEAR(first[4 * c + 3], 0.0f, 1e-6f);
  }
}

TEST(Signature, TranslationInvariantForAlignedShift) {
  // Sliding a pattern by the slide step leaves the same set of window
  // signatures (just at shifted coordinates) -- WALRUS's translation story.
  WalrusParams p = SmallParams();
  p.min_window = 8;
  p.max_window = 8;
  p.slide_step = 4;
  ImageF img = RandomRgb(40, 24, 2);
  ImageF shifted = TranslateWrap(img, 4, 0);

  Result<WindowSignatureSet> a = ComputeWindowSignatures(img, p);
  Result<WindowSignatureSet> b = ComputeWindowSignatures(shifted, p);
  ASSERT_TRUE(a.ok() && b.ok());
  // Window at x in `a` equals window at x+4 in `b` (when both exist).
  for (int i = 0; i < a->Count(); ++i) {
    const WindowPlacement& wa = a->windows[i];
    if (wa.x + 4 + wa.size > 40) continue;
    for (int j = 0; j < b->Count(); ++j) {
      const WindowPlacement& wb = b->windows[j];
      if (wb.x == wa.x + 4 && wb.y == wa.y && wb.size == wa.size) {
        EXPECT_NEAR(L2Distance(
                        std::vector<float>(a->SignatureAt(i),
                                           a->SignatureAt(i) + a->dim),
                        std::vector<float>(b->SignatureAt(j),
                                           b->SignatureAt(j) + b->dim)),
                    0.0f, 1e-4f);
      }
    }
  }
}

TEST(Signature, ScaleInvariantAcrossWindowSizes) {
  // A 2x upscaled texture viewed through a 16-window has (nearly) the same
  // signature as the original through an 8-window.
  WalrusParams p = SmallParams();
  ImageF img = RandomRgb(8, 8, 3);
  ImageF big = Resize(img, 16, 16, ResizeFilter::kNearest);

  WalrusParams p8 = p;
  p8.min_window = 8;
  p8.max_window = 8;
  p8.slide_step = 8;
  WalrusParams p16 = p;
  p16.min_window = 16;
  p16.max_window = 16;
  p16.slide_step = 16;

  Result<WindowSignatureSet> small_set = ComputeWindowSignatures(img, p8);
  Result<WindowSignatureSet> big_set = ComputeWindowSignatures(big, p16);
  ASSERT_TRUE(small_set.ok() && big_set.ok());
  ASSERT_EQ(small_set->Count(), 1);
  ASSERT_EQ(big_set->Count(), 1);
  for (int k = 0; k < small_set->dim; ++k) {
    EXPECT_NEAR(small_set->SignatureAt(0)[k], big_set->SignatureAt(0)[k],
                1e-4f);
  }
}

TEST(Signature, NormalizationDownweightsFineDetails) {
  // With s=4 the finest detail quadrant (side 2) must be halved relative to
  // the raw transform.
  std::vector<float> raw(16);
  for (size_t i = 0; i < raw.size(); ++i) raw[i] = 1.0f;
  std::vector<float> out;
  AppendNormalizedBlock(raw.data(), 4, &out);
  ASSERT_EQ(out.size(), 16u);
  EXPECT_FLOAT_EQ(out[0], 1.0f);               // DC
  EXPECT_FLOAT_EQ(out[1], 1.0f);               // coarsest detail
  EXPECT_FLOAT_EQ(out[2], 0.5f);               // fine horizontal
  EXPECT_FLOAT_EQ(out[4 * 2 + 2], 0.5f);       // fine diagonal row
}

TEST(Signature, RejectsTooSmallImage) {
  WalrusParams p = SmallParams();  // min_window 8
  ImageF img = RandomRgb(6, 6, 4);
  EXPECT_FALSE(ComputeWindowSignatures(img, p).ok());
}

TEST(Signature, NonFinitePixelsAreInvalidArgument) {
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    ImageF img = RandomRgb(32, 32, 7);
    img.Plane(1)[5 * 32 + 9] = bad;
    WalrusParams p = SmallParams();
    EXPECT_EQ(ComputeWindowSignatures(img, p).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    // Refined (larger) signatures take the same path and the same check.
    p.signature_size = 4;
    EXPECT_EQ(ComputeWindowSignatures(img, p).status().code(),
              StatusCode::kInvalidArgument)
        << bad << " refined";
  }
}

TEST(Signature, HugeFinitePixelDoesNotAbort) {
  ImageF img = RandomRgb(32, 32, 8);
  img.Plane(0)[3 * 32 + 3] = FLT_MAX;
  Result<WindowSignatureSet> set = ComputeWindowSignatures(img, SmallParams());
  // Either answer is allowed; finite output is all that may come back.
  if (set.ok()) {
    for (float v : set->signatures) ASSERT_TRUE(std::isfinite(v));
  } else {
    EXPECT_EQ(set.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Signature, OverflowingWindowSumsAreInvalidArgument) {
  // In its own RGB space the image is not clamped by a conversion, and a
  // plane of FLT_MAX overflows the Haar sums to infinity.
  WalrusParams p = SmallParams();
  p.color_space = ColorSpace::kRGB;
  ImageF img = RandomRgb(32, 32, 9);
  for (float& v : img.Plane(0)) v = FLT_MAX;
  EXPECT_EQ(ComputeWindowSignatures(img, p).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Signature, CapsMaxWindowToImage) {
  WalrusParams p = SmallParams();
  p.min_window = 8;
  p.max_window = 64;  // larger than the 16x16 image
  ImageF img = RandomRgb(16, 16, 5);
  Result<WindowSignatureSet> set = ComputeWindowSignatures(img, p);
  ASSERT_TRUE(set.ok()) << set.status();
  int max_size = 0;
  for (const WindowPlacement& w : set->windows) {
    max_size = std::max(max_size, w.size);
  }
  EXPECT_EQ(max_size, 16);
}

TEST(Signature, GraySignaturesAreFourDimensional) {
  WalrusParams p = SmallParams();
  p.color_space = ColorSpace::kGray;
  ImageF img = RandomRgb(16, 16, 6);
  Result<WindowSignatureSet> set = ComputeWindowSignatures(img, p);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->dim, 4);
}

}  // namespace
}  // namespace walrus
