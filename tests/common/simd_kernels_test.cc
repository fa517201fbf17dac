#include "common/simd.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace walrus {
namespace simd {
namespace {

// The exactness contract (simd.h): every kernel returns BIT-IDENTICAL
// results at every ISA level. These tests compare each supported level
// against the scalar reference with exact equality (EXPECT_EQ on doubles /
// memcmp on buffers), over randomized inputs whose sizes deliberately
// straddle the SSE2 (4-float / 2-double) and AVX2 (8-float / 4-double) lane
// widths, including 0 and non-multiple-of-lane tails.

std::vector<IsaLevel> SupportedLevels() {
  std::vector<IsaLevel> levels;
  for (int l = 0; l <= static_cast<int>(MaxSupportedIsa()); ++l) {
    levels.push_back(static_cast<IsaLevel>(l));
  }
  return levels;
}

const int kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 64, 67};

// memcmp with a guard for the n==0 rows: empty vectors hand out null
// data() pointers, and memcmp(null, null, 0) is UB (glibc declares the
// arguments nonnull — UBSan flags it).
bool SameBytes(const void* a, const void* b, size_t len) {
  return len == 0 || std::memcmp(a, b, len) == 0;
}

std::vector<float> RandomFloats(Rng* rng, int n, float lo = -2.0f,
                                float hi = 2.0f) {
  std::vector<float> v(n);
  for (float& x : v) x = lo + (hi - lo) * rng->NextFloat();
  return v;
}

std::vector<double> RandomDoubles(Rng* rng, int n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->NextDouble(-3.0, 3.0);
  return v;
}

// Random SoA box block: lo plane d at lo[d * count], hi = lo + nonneg side.
struct SoaBoxes {
  std::vector<float> lo, hi;
  int dim = 0;
  int count = 0;
};

SoaBoxes RandomSoaBoxes(Rng* rng, int dim, int count) {
  SoaBoxes b;
  b.dim = dim;
  b.count = count;
  b.lo.resize(static_cast<size_t>(dim) * count);
  b.hi.resize(static_cast<size_t>(dim) * count);
  for (size_t i = 0; i < b.lo.size(); ++i) {
    b.lo[i] = -1.0f + 2.0f * rng->NextFloat();
    b.hi[i] = b.lo[i] + 0.5f * rng->NextFloat();
  }
  return b;
}

TEST(SimdDispatch, ActiveLevelIsSupported) {
  EXPECT_LE(static_cast<int>(ActiveIsa()), static_cast<int>(MaxSupportedIsa()));
  EXPECT_STREQ(IsaName(IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(IsaName(IsaLevel::kSse2), "sse2");
  EXPECT_STREQ(IsaName(IsaLevel::kAvx2), "avx2");
}

TEST(SimdDispatch, TestOverrideChangesActiveLevel) {
  TestOnlySetIsa(IsaLevel::kScalar);
  EXPECT_EQ(ActiveIsa(), IsaLevel::kScalar);
  EXPECT_EQ(&Active(), &Kernels(IsaLevel::kScalar));
  TestOnlyResetIsa();
  EXPECT_LE(static_cast<int>(ActiveIsa()), static_cast<int>(MaxSupportedIsa()));
}

TEST(SimdKernelExactness, SquaredL2F32) {
  const KernelTable& ref = Kernels(IsaLevel::kScalar);
  Rng rng(101);
  for (int n : kSizes) {
    std::vector<float> a = RandomFloats(&rng, n);
    std::vector<float> b = RandomFloats(&rng, n);
    const double want = ref.squared_l2_f32(a.data(), b.data(), n);
    for (IsaLevel level : SupportedLevels()) {
      const double got = Kernels(level).squared_l2_f32(a.data(), b.data(), n);
      EXPECT_EQ(want, got) << "n=" << n << " level=" << IsaName(level);
    }
  }
}

TEST(SimdKernelExactness, ScaledSquaredL2F64) {
  const KernelTable& ref = Kernels(IsaLevel::kScalar);
  Rng rng(102);
  for (int n : kSizes) {
    std::vector<double> a = RandomDoubles(&rng, n);
    std::vector<double> b = RandomDoubles(&rng, n);
    const double wa = rng.NextDouble(0.01, 1.0);
    const double wb = rng.NextDouble(0.01, 1.0);
    const double want =
        ref.scaled_squared_l2_f64(a.data(), wa, b.data(), wb, n);
    for (IsaLevel level : SupportedLevels()) {
      const double got =
          Kernels(level).scaled_squared_l2_f64(a.data(), wa, b.data(), wb, n);
      EXPECT_EQ(want, got) << "n=" << n << " level=" << IsaName(level);
    }
  }
}

TEST(SimdKernelExactness, MinSquaredDistance) {
  const KernelTable& ref = Kernels(IsaLevel::kScalar);
  Rng rng(103);
  for (int n : kSizes) {
    std::vector<float> lo = RandomFloats(&rng, n, -1.0f, 0.0f);
    std::vector<float> hi = RandomFloats(&rng, n, 0.0f, 1.0f);
    // Mix of inside / below / above coordinates.
    std::vector<float> p = RandomFloats(&rng, n, -2.0f, 2.0f);
    const double want = ref.min_squared_distance(lo.data(), hi.data(),
                                                 p.data(), n);
    for (IsaLevel level : SupportedLevels()) {
      const double got =
          Kernels(level).min_squared_distance(lo.data(), hi.data(), p.data(),
                                              n);
      EXPECT_EQ(want, got) << "n=" << n << " level=" << IsaName(level);
    }
  }
}

TEST(SimdKernelExactness, RectPredicates) {
  const KernelTable& ref = Kernels(IsaLevel::kScalar);
  Rng rng(104);
  for (int n : kSizes) {
    if (n == 0) continue;
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<float> alo = RandomFloats(&rng, n, -1.0f, 0.5f);
      std::vector<float> ahi(n);
      for (int i = 0; i < n; ++i) ahi[i] = alo[i] + 0.4f * rng.NextFloat();
      std::vector<float> blo = RandomFloats(&rng, n, -1.0f, 0.5f);
      std::vector<float> bhi(n);
      for (int i = 0; i < n; ++i) bhi[i] = blo[i] + 0.4f * rng.NextFloat();
      std::vector<float> p = RandomFloats(&rng, n, -1.0f, 1.0f);
      const float eps = 0.1f * rng.NextFloat();
      const bool want_int =
          ref.rect_intersects(alo.data(), ahi.data(), blo.data(), bhi.data(),
                              n);
      const bool want_exp = ref.rect_intersects_expanded(
          alo.data(), ahi.data(), eps, blo.data(), bhi.data(), n);
      const bool want_con =
          ref.rect_contains_point(alo.data(), ahi.data(), p.data(), n);
      for (IsaLevel level : SupportedLevels()) {
        const KernelTable& k = Kernels(level);
        EXPECT_EQ(want_int, k.rect_intersects(alo.data(), ahi.data(),
                                              blo.data(), bhi.data(), n))
            << "n=" << n << " level=" << IsaName(level);
        EXPECT_EQ(want_exp,
                  k.rect_intersects_expanded(alo.data(), ahi.data(), eps,
                                             blo.data(), bhi.data(), n))
            << "n=" << n << " level=" << IsaName(level);
        EXPECT_EQ(want_con, k.rect_contains_point(alo.data(), ahi.data(),
                                                  p.data(), n))
            << "n=" << n << " level=" << IsaName(level);
      }
    }
  }
}

TEST(SimdKernelExactness, AccumulateF32) {
  const KernelTable& ref = Kernels(IsaLevel::kScalar);
  Rng rng(105);
  for (int n : kSizes) {
    std::vector<float> p = RandomFloats(&rng, n);
    std::vector<double> acc0 = RandomDoubles(&rng, n);
    const double ss_in = rng.NextDouble(0.0, 10.0);
    std::vector<double> want_acc = acc0;
    const double want_ss = ref.accumulate_f32(want_acc.data(), p.data(), n,
                                              ss_in);
    for (IsaLevel level : SupportedLevels()) {
      std::vector<double> acc = acc0;
      const double ss = Kernels(level).accumulate_f32(acc.data(), p.data(), n,
                                                      ss_in);
      EXPECT_EQ(want_ss, ss) << "n=" << n << " level=" << IsaName(level);
      ASSERT_TRUE(SameBytes(want_acc.data(), acc.data(),
                               n * sizeof(double)))
          << "n=" << n << " level=" << IsaName(level);
    }
  }
}

TEST(SimdKernelExactness, AddF64) {
  const KernelTable& ref = Kernels(IsaLevel::kScalar);
  Rng rng(106);
  for (int n : kSizes) {
    std::vector<double> x = RandomDoubles(&rng, n);
    std::vector<double> acc0 = RandomDoubles(&rng, n);
    std::vector<double> want = acc0;
    ref.add_f64(want.data(), x.data(), n);
    for (IsaLevel level : SupportedLevels()) {
      std::vector<double> acc = acc0;
      Kernels(level).add_f64(acc.data(), x.data(), n);
      ASSERT_TRUE(SameBytes(want.data(), acc.data(), n * sizeof(double)))
          << "n=" << n << " level=" << IsaName(level);
    }
  }
}

TEST(SimdKernelExactness, BatchMinSquaredDistance) {
  const KernelTable& ref = Kernels(IsaLevel::kScalar);
  Rng rng(107);
  for (int dim : {1, 2, 4, 12}) {
    for (int count : kSizes) {
      SoaBoxes b = RandomSoaBoxes(&rng, dim, count);
      std::vector<float> p = RandomFloats(&rng, dim, -2.0f, 2.0f);
      std::vector<double> want(count, -1.0);
      ref.batch_min_squared_distance(b.lo.data(), b.hi.data(), count, dim,
                                     count, p.data(), want.data());
      for (IsaLevel level : SupportedLevels()) {
        std::vector<double> got(count, -1.0);
        Kernels(level).batch_min_squared_distance(b.lo.data(), b.hi.data(),
                                                  count, dim, count, p.data(),
                                                  got.data());
        ASSERT_TRUE(SameBytes(want.data(), got.data(),
                                 count * sizeof(double)))
            << "dim=" << dim << " count=" << count
            << " level=" << IsaName(level);
      }
    }
  }
}

TEST(SimdKernelExactness, BatchSquaredL2) {
  const KernelTable& ref = Kernels(IsaLevel::kScalar);
  Rng rng(108);
  for (int dim : {1, 2, 4, 12}) {
    for (int count : kSizes) {
      std::vector<float> pts =
          RandomFloats(&rng, dim * count, -2.0f, 2.0f);
      std::vector<float> q = RandomFloats(&rng, dim, -2.0f, 2.0f);
      std::vector<double> want(count, -1.0);
      ref.batch_squared_l2(pts.data(), count, dim, count, q.data(),
                           want.data());
      for (IsaLevel level : SupportedLevels()) {
        std::vector<double> got(count, -1.0);
        Kernels(level).batch_squared_l2(pts.data(), count, dim, count,
                                        q.data(), got.data());
        ASSERT_TRUE(SameBytes(want.data(), got.data(),
                                 count * sizeof(double)))
            << "dim=" << dim << " count=" << count
            << " level=" << IsaName(level);
      }
    }
  }
}

TEST(SimdKernelExactness, BatchIntersects) {
  const KernelTable& ref = Kernels(IsaLevel::kScalar);
  Rng rng(109);
  for (int dim : {1, 2, 4, 12}) {
    for (int count : kSizes) {
      SoaBoxes b = RandomSoaBoxes(&rng, dim, count);
      std::vector<float> qlo = RandomFloats(&rng, dim, -1.0f, 0.5f);
      std::vector<float> qhi(dim);
      for (int d = 0; d < dim; ++d) qhi[d] = qlo[d] + 0.6f * rng.NextFloat();
      const int words = (count + 63) / 64;
      std::vector<uint64_t> want(std::max(words, 1), ~0ull);
      ref.batch_intersects(b.lo.data(), b.hi.data(), count, dim, count,
                           qlo.data(), qhi.data(), want.data());
      for (IsaLevel level : SupportedLevels()) {
        std::vector<uint64_t> got(std::max(words, 1), ~0ull);
        Kernels(level).batch_intersects(b.lo.data(), b.hi.data(), count, dim,
                                        count, qlo.data(), qhi.data(),
                                        got.data());
        for (int w = 0; w < words; ++w) {
          EXPECT_EQ(want[w], got[w])
              << "dim=" << dim << " count=" << count << " word=" << w
              << " level=" << IsaName(level);
        }
      }
    }
  }
}

TEST(SimdKernelExactness, HaarBase2x2) {
  const KernelTable& ref = Kernels(IsaLevel::kScalar);
  Rng rng(110);
  for (int count : kSizes) {
    std::vector<float> row0 = RandomFloats(&rng, 2 * count, 0.0f, 1.0f);
    std::vector<float> row1 = RandomFloats(&rng, 2 * count, 0.0f, 1.0f);
    std::vector<float> want(4 * count, -9.0f);
    ref.haar_base_2x2(row0.data(), row1.data(), count, want.data());
    for (IsaLevel level : SupportedLevels()) {
      std::vector<float> got(4 * count, -9.0f);
      Kernels(level).haar_base_2x2(row0.data(), row1.data(), count,
                                   got.data());
      ASSERT_TRUE(SameBytes(want.data(), got.data(),
                               want.size() * sizeof(float)))
          << "count=" << count << " level=" << IsaName(level);
    }
  }
}

// The haar kernel must also match the general-purpose ComputeSingleWindow
// semantics it replaces; that equivalence is covered end-to-end by the
// DpVsNaiveSweep tests in tests/wavelet/, which exercise the vectorized
// omega=2 level against the naive per-window transform.

}  // namespace
}  // namespace simd
}  // namespace walrus
