#ifndef WALRUS_COMMON_SIMD_H_
#define WALRUS_COMMON_SIMD_H_

#include <cstdint>

namespace walrus {
namespace simd {

/// Runtime-dispatched similarity kernels (DESIGN.md section 12).
///
/// Every stage of the WALRUS funnel bottoms out in small dense float loops:
/// R*-tree rect-overlap tests and MinSquaredDistance during probes, squared
/// L2 distances in the centroid match (Definition 4.1), CF centroid
/// distances in the BIRCH descent, and the Haar averaging/differencing
/// butterfly in the sliding-window DP. The kernels below implement those
/// loops once per ISA level (scalar / SSE2 / AVX2) and dispatch at runtime.
///
/// Exactness contract: for identical inputs, every kernel returns
/// BIT-IDENTICAL results at every ISA level. Two mechanisms guarantee this:
///
///  1. Batch kernels parallelize ACROSS entries (SoA lanes), never across
///     the accumulation dimension: each lane reproduces the scalar
///     reference's floating-point operations in the scalar reference's
///     order, so per-entry sums round identically.
///  2. Pair kernels vectorize only the element-independent work (subtract,
///     scale, square -- each IEEE operation rounds identically whether
///     executed in a vector lane or a scalar register) and keep the final
///     reduction a sequential scalar loop in ascending index order.
///
/// Predicate kernels (intersects / contains) are pure comparisons and are
/// trivially exact. Because dispatch can never change results, golden
/// retrieval output is byte-identical with SIMD on, off, or forced to any
/// level (verified by the kernel exactness suite and the golden regression
/// run in CI with WALRUS_SIMD=scalar).
enum class IsaLevel : uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Human-readable name ("scalar", "sse2", "avx2").
const char* IsaName(IsaLevel level);

/// Highest ISA level this CPU supports (compile-time capped to kScalar when
/// the build sets WALRUS_DISABLE_SIMD).
IsaLevel MaxSupportedIsa();

/// The level the process dispatched to: MaxSupportedIsa() unless lowered by
/// the WALRUS_SIMD environment variable ("scalar", "sse2", "avx2"; levels
/// above hardware support are clamped) or a TestOnlySetIsa override.
/// Resolving the level also publishes it as the `walrus.simd.dispatch`
/// gauge (0=scalar, 1=sse2, 2=avx2).
IsaLevel ActiveIsa();

/// Test hook: forces dispatch to `level` (clamped to MaxSupportedIsa) until
/// reset. Not thread-safe against concurrent kernel calls; use only in
/// single-threaded test setup.
void TestOnlySetIsa(IsaLevel level);
void TestOnlyResetIsa();

/// One ISA level's kernel implementations. All `n`/`count` sizes are
/// arbitrary (>= 0); vector paths handle non-multiple-of-lane tails
/// internally with the scalar reference loop.
///
/// Batch kernels read SoA blocks: plane d of a block starts at
/// `base + d * stride` and holds `count` contiguous floats (stride >=
/// count; see core/packed_store.h).
struct KernelTable {
  /// Sum over i of ((double)a[i] - (double)b[i])^2, accumulated in
  /// ascending index order (the RegionsMatchCentroid loop).
  double (*squared_l2_f32)(const float* a, const float* b, int n);

  /// Sum over i of (a[i]*wa - b[i]*wb)^2 in ascending order (CF centroid
  /// distance: a,b are CF linear sums, wa,wb the 1/N weights).
  double (*scaled_squared_l2_f64)(const double* a, double wa,
                                  const double* b, double wb, int n);

  /// Squared min distance from point p to the box [lo, hi], accumulated in
  /// ascending order (Rect::MinSquaredDistance).
  double (*min_squared_distance)(const float* lo, const float* hi,
                                 const float* p, int n);

  /// Closed-bounds overlap test of boxes a and b.
  bool (*rect_intersects)(const float* alo, const float* ahi,
                          const float* blo, const float* bhi, int n);

  /// Overlap test of a expanded by eps on every side against b (Definition
  /// 4.1's epsilon-envelope containment test, fused so no expanded rect is
  /// materialized). Expansion arithmetic matches Rect::Expanded exactly
  /// (float subtract/add per bound).
  bool (*rect_intersects_expanded)(const float* alo, const float* ahi,
                                   float eps, const float* blo,
                                   const float* bhi, int n);

  /// Closed-bounds point containment.
  bool (*rect_contains_point)(const float* lo, const float* hi,
                              const float* p, int n);

  /// Fused accumulate (CfVector::AddPoint): acc[i] += p[i] for all i and
  /// returns ss continued in ascending order, i.e. the result of
  /// `for i: ss += (double)p[i] * p[i]` starting from ss_in (taking the
  /// running sum as input preserves the caller's exact rounding sequence).
  double (*accumulate_f32)(double* acc, const float* p, int n, double ss_in);

  /// acc[i] += x[i] (CfVector::Merge; element-independent, exact).
  void (*add_f64)(double* acc, const double* x, int n);

  /// out[e] = squared min distance from p to box e of the SoA block
  /// (lanes = entries; per-entry dim order is the scalar order).
  void (*batch_min_squared_distance)(const float* lo, const float* hi,
                                     int stride, int dim, int count,
                                     const float* p, double* out);

  /// out[e] = squared L2 distance from q to point e of the SoA block.
  void (*batch_squared_l2)(const float* pts, int stride, int dim, int count,
                           const float* q, double* out);

  /// Bit e of out_mask is set iff box e of the SoA block intersects
  /// [qlo, qhi]. out_mask holds (count + 63) / 64 words, zeroed first.
  void (*batch_intersects)(const float* lo, const float* hi, int stride,
                           int dim, int count, const float* qlo,
                           const float* qhi, uint64_t* out_mask);

  /// Haar 2x2 base butterfly across `count` adjacent windows (the omega=2
  /// sliding-window level with dist=2 and sig_n=2): window w reads
  /// a1=row0[2w], a2=row0[2w+1], a3=row1[2w], a4=row1[2w+1] and writes
  /// out[4w..4w+3] = {avg, horizontal, vertical, diagonal} with the exact
  /// operation order of ComputeSingleWindow's base case.
  void (*haar_base_2x2)(const float* row0, const float* row1, int count,
                        float* out);
};

/// Kernels for a specific level (level must be <= MaxSupportedIsa()).
/// Exposed so the exactness suite can compare levels bit-for-bit.
const KernelTable& Kernels(IsaLevel level);

/// Kernels for ActiveIsa() -- the table hot paths should cache once.
const KernelTable& Active();

}  // namespace simd
}  // namespace walrus

#endif  // WALRUS_COMMON_SIMD_H_
