#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/metrics.h"

#if defined(__x86_64__) && !defined(WALRUS_DISABLE_SIMD)
#define WALRUS_SIMD_X86 1
#include <immintrin.h>
#else
#define WALRUS_SIMD_X86 0
#endif

namespace walrus {
namespace simd {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These define the semantics: every operation and
// its order below mirrors the original call-site loop it replaced (see the
// per-kernel notes in simd.h), and the vector paths must reproduce them
// bit-for-bit.
// ---------------------------------------------------------------------------
namespace scalar {

double SquaredL2F32(const float* a, const float* b, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return sum;
}

double ScaledSquaredL2F64(const double* a, double wa, const double* b,
                          double wb, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = a[i] * wa - b[i] * wb;
    sum += d * d;
  }
  return sum;
}

double MinSquaredDistance(const float* lo, const float* hi, const float* p,
                          int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    double d = 0.0;
    if (p[i] < lo[i]) {
      d = static_cast<double>(lo[i]) - p[i];
    } else if (p[i] > hi[i]) {
      d = static_cast<double>(p[i]) - hi[i];
    }
    sum += d * d;
  }
  return sum;
}

bool RectIntersects(const float* alo, const float* ahi, const float* blo,
                    const float* bhi, int n) {
  for (int i = 0; i < n; ++i) {
    if (alo[i] > bhi[i] || blo[i] > ahi[i]) return false;
  }
  return true;
}

bool RectIntersectsExpanded(const float* alo, const float* ahi, float eps,
                            const float* blo, const float* bhi, int n) {
  for (int i = 0; i < n; ++i) {
    const float lo = alo[i] - eps;
    const float hi = ahi[i] + eps;
    if (lo > bhi[i] || blo[i] > hi) return false;
  }
  return true;
}

bool RectContainsPoint(const float* lo, const float* hi, const float* p,
                       int n) {
  for (int i = 0; i < n; ++i) {
    if (p[i] < lo[i] || p[i] > hi[i]) return false;
  }
  return true;
}

double AccumulateF32(double* acc, const float* p, int n, double ss) {
  for (int i = 0; i < n; ++i) {
    const double v = p[i];
    acc[i] += v;
    ss += v * v;
  }
  return ss;
}

void AddF64(double* acc, const double* x, int n) {
  for (int i = 0; i < n; ++i) acc[i] += x[i];
}

// Batch kernels: per-entry inner loops are byte-for-byte the single-entry
// loops above, just reading SoA planes. Vector paths assign entries to
// lanes, so each lane runs this exact dim-ascending sequence.
void BatchMinSquaredDistance(const float* lo, const float* hi, int stride,
                             int dim, int count, const float* p,
                             double* out) {
  for (int e = 0; e < count; ++e) {
    double sum = 0.0;
    for (int i = 0; i < dim; ++i) {
      const float l = lo[i * stride + e];
      const float h = hi[i * stride + e];
      double d = 0.0;
      if (p[i] < l) {
        d = static_cast<double>(l) - p[i];
      } else if (p[i] > h) {
        d = static_cast<double>(p[i]) - h;
      }
      sum += d * d;
    }
    out[e] = sum;
  }
}

void BatchSquaredL2(const float* pts, int stride, int dim, int count,
                    const float* q, double* out) {
  for (int e = 0; e < count; ++e) {
    double sum = 0.0;
    for (int i = 0; i < dim; ++i) {
      const double d = static_cast<double>(pts[i * stride + e]) - q[i];
      sum += d * d;
    }
    out[e] = sum;
  }
}

void BatchIntersects(const float* lo, const float* hi, int stride, int dim,
                     int count, const float* qlo, const float* qhi,
                     uint64_t* out_mask) {
  const int words = (count + 63) / 64;
  for (int w = 0; w < words; ++w) out_mask[w] = 0;
  for (int e = 0; e < count; ++e) {
    bool hit = true;
    for (int i = 0; i < dim; ++i) {
      if (lo[i * stride + e] > qhi[i] || qlo[i] > hi[i * stride + e]) {
        hit = false;
        break;
      }
    }
    if (hit) out_mask[e >> 6] |= uint64_t{1} << (e & 63);
  }
}

void HaarBase2x2(const float* row0, const float* row1, int count,
                 float* out) {
  for (int w = 0; w < count; ++w) {
    const float a1 = row0[2 * w];
    const float a2 = row0[2 * w + 1];
    const float a3 = row1[2 * w];
    const float a4 = row1[2 * w + 1];
    out[4 * w + 0] = (a1 + a2 + a3 + a4) / 4.0f;
    out[4 * w + 1] = (-a1 + a2 - a3 + a4) / 4.0f;
    out[4 * w + 2] = (-a1 - a2 + a3 + a4) / 4.0f;
    out[4 * w + 3] = (a1 - a2 - a3 + a4) / 4.0f;
  }
}

}  // namespace scalar

#if WALRUS_SIMD_X86

// ---------------------------------------------------------------------------
// SSE2 kernels (x86-64 baseline; no target attribute needed). Batch kernels
// run two double lanes (= two entries) per step; predicate kernels test four
// dims or four entries per step. Tails fall back to the scalar reference.
// ---------------------------------------------------------------------------
namespace sse2 {

bool RectIntersects(const float* alo, const float* ahi, const float* blo,
                    const float* bhi, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 al = _mm_loadu_ps(alo + i);
    const __m128 ah = _mm_loadu_ps(ahi + i);
    const __m128 bl = _mm_loadu_ps(blo + i);
    const __m128 bh = _mm_loadu_ps(bhi + i);
    const __m128 dis =
        _mm_or_ps(_mm_cmpgt_ps(al, bh), _mm_cmpgt_ps(bl, ah));
    if (_mm_movemask_ps(dis) != 0) return false;
  }
  for (; i < n; ++i) {
    if (alo[i] > bhi[i] || blo[i] > ahi[i]) return false;
  }
  return true;
}

bool RectIntersectsExpanded(const float* alo, const float* ahi, float eps,
                            const float* blo, const float* bhi, int n) {
  const __m128 ev = _mm_set1_ps(eps);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 al = _mm_sub_ps(_mm_loadu_ps(alo + i), ev);
    const __m128 ah = _mm_add_ps(_mm_loadu_ps(ahi + i), ev);
    const __m128 bl = _mm_loadu_ps(blo + i);
    const __m128 bh = _mm_loadu_ps(bhi + i);
    const __m128 dis =
        _mm_or_ps(_mm_cmpgt_ps(al, bh), _mm_cmpgt_ps(bl, ah));
    if (_mm_movemask_ps(dis) != 0) return false;
  }
  for (; i < n; ++i) {
    const float lo = alo[i] - eps;
    const float hi = ahi[i] + eps;
    if (lo > bhi[i] || blo[i] > hi) return false;
  }
  return true;
}

bool RectContainsPoint(const float* lo, const float* hi, const float* p,
                       int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 lv = _mm_loadu_ps(lo + i);
    const __m128 hv = _mm_loadu_ps(hi + i);
    const __m128 pv = _mm_loadu_ps(p + i);
    const __m128 outside =
        _mm_or_ps(_mm_cmplt_ps(pv, lv), _mm_cmpgt_ps(pv, hv));
    if (_mm_movemask_ps(outside) != 0) return false;
  }
  for (; i < n; ++i) {
    if (p[i] < lo[i] || p[i] > hi[i]) return false;
  }
  return true;
}

void AddF64(double* acc, const double* x, int n) {
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(acc + i, _mm_add_pd(_mm_loadu_pd(acc + i),
                                      _mm_loadu_pd(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void BatchMinSquaredDistance(const float* lo, const float* hi, int stride,
                             int dim, int count, const float* p,
                             double* out) {
  int e = 0;
  for (; e + 2 <= count; e += 2) {
    __m128d acc = _mm_setzero_pd();
    for (int i = 0; i < dim; ++i) {
      const __m128d l = _mm_cvtps_pd(
          _mm_castsi128_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(
              lo + i * stride + e))));
      const __m128d h = _mm_cvtps_pd(
          _mm_castsi128_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(
              hi + i * stride + e))));
      const __m128d pt = _mm_set1_pd(static_cast<double>(p[i]));
      const __m128d below = _mm_cmplt_pd(pt, l);
      const __m128d above = _mm_cmpgt_pd(pt, h);
      const __m128d d =
          _mm_or_pd(_mm_and_pd(below, _mm_sub_pd(l, pt)),
                    _mm_and_pd(above, _mm_sub_pd(pt, h)));
      acc = _mm_add_pd(acc, _mm_mul_pd(d, d));
    }
    _mm_storeu_pd(out + e, acc);
  }
  if (e < count) {
    scalar::BatchMinSquaredDistance(lo + e, hi + e, stride, dim, count - e,
                                    p, out + e);
  }
}

void BatchSquaredL2(const float* pts, int stride, int dim, int count,
                    const float* q, double* out) {
  int e = 0;
  for (; e + 2 <= count; e += 2) {
    __m128d acc = _mm_setzero_pd();
    for (int i = 0; i < dim; ++i) {
      const __m128d pt = _mm_cvtps_pd(
          _mm_castsi128_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(
              pts + i * stride + e))));
      const __m128d qv = _mm_set1_pd(static_cast<double>(q[i]));
      const __m128d d = _mm_sub_pd(pt, qv);
      acc = _mm_add_pd(acc, _mm_mul_pd(d, d));
    }
    _mm_storeu_pd(out + e, acc);
  }
  if (e < count) {
    scalar::BatchSquaredL2(pts + e, stride, dim, count - e, q, out + e);
  }
}

void BatchIntersects(const float* lo, const float* hi, int stride, int dim,
                     int count, const float* qlo, const float* qhi,
                     uint64_t* out_mask) {
  const int words = (count + 63) / 64;
  for (int w = 0; w < words; ++w) out_mask[w] = 0;
  int e = 0;
  for (; e + 4 <= count; e += 4) {
    __m128 dis = _mm_setzero_ps();
    int mm = 0;
    for (int i = 0; i < dim; ++i) {
      const __m128 l = _mm_loadu_ps(lo + i * stride + e);
      const __m128 h = _mm_loadu_ps(hi + i * stride + e);
      const __m128 ql = _mm_set1_ps(qlo[i]);
      const __m128 qh = _mm_set1_ps(qhi[i]);
      dis = _mm_or_ps(dis, _mm_or_ps(_mm_cmpgt_ps(l, qh),
                                     _mm_cmpgt_ps(ql, h)));
      // All four lanes disjoint already: the remaining dims cannot clear a
      // lane, so skip them (the common case in a selective probe).
      mm = _mm_movemask_ps(dis);
      if (mm == 0xF) break;
    }
    const uint64_t hits = static_cast<uint64_t>(~mm) & 0xFull;
    out_mask[e >> 6] |= hits << (e & 63);
  }
  for (; e < count; ++e) {
    bool hit = true;
    for (int i = 0; i < dim; ++i) {
      if (lo[i * stride + e] > qhi[i] || qlo[i] > hi[i * stride + e]) {
        hit = false;
        break;
      }
    }
    if (hit) out_mask[e >> 6] |= uint64_t{1} << (e & 63);
  }
}

// Four windows per step: deinterleave the stride-2 inputs, run the exact
// butterfly operation sequence of the scalar base case per lane (including
// IEEE negation via sign-bit xor and the literal divide by 4), transpose,
// and store the four contiguous {avg,h,v,d} output blocks.
void HaarBase2x2(const float* row0, const float* row1, int count,
                 float* out) {
  const __m128 msign = _mm_set1_ps(-0.0f);
  const __m128 four = _mm_set1_ps(4.0f);
  int w = 0;
  for (; w + 4 <= count; w += 4) {
    const __m128 r0a = _mm_loadu_ps(row0 + 2 * w);
    const __m128 r0b = _mm_loadu_ps(row0 + 2 * w + 4);
    const __m128 r1a = _mm_loadu_ps(row1 + 2 * w);
    const __m128 r1b = _mm_loadu_ps(row1 + 2 * w + 4);
    const __m128 a1 = _mm_shuffle_ps(r0a, r0b, _MM_SHUFFLE(2, 0, 2, 0));
    const __m128 a2 = _mm_shuffle_ps(r0a, r0b, _MM_SHUFFLE(3, 1, 3, 1));
    const __m128 a3 = _mm_shuffle_ps(r1a, r1b, _MM_SHUFFLE(2, 0, 2, 0));
    const __m128 a4 = _mm_shuffle_ps(r1a, r1b, _MM_SHUFFLE(3, 1, 3, 1));
    const __m128 n1 = _mm_xor_ps(a1, msign);
    __m128 avg = _mm_div_ps(
        _mm_add_ps(_mm_add_ps(_mm_add_ps(a1, a2), a3), a4), four);
    __m128 hdif = _mm_div_ps(
        _mm_add_ps(_mm_sub_ps(_mm_add_ps(n1, a2), a3), a4), four);
    __m128 vdif = _mm_div_ps(
        _mm_add_ps(_mm_add_ps(_mm_sub_ps(n1, a2), a3), a4), four);
    __m128 ddif = _mm_div_ps(
        _mm_add_ps(_mm_sub_ps(_mm_sub_ps(a1, a2), a3), a4), four);
    _MM_TRANSPOSE4_PS(avg, hdif, vdif, ddif);
    _mm_storeu_ps(out + 4 * w + 0, avg);
    _mm_storeu_ps(out + 4 * w + 4, hdif);
    _mm_storeu_ps(out + 4 * w + 8, vdif);
    _mm_storeu_ps(out + 4 * w + 12, ddif);
  }
  if (w < count) {
    scalar::HaarBase2x2(row0 + 2 * w, row1 + 2 * w, count - w, out + 4 * w);
  }
}

}  // namespace sse2

// ---------------------------------------------------------------------------
// AVX2 kernels (per-function target attribute: the rest of the binary stays
// baseline, dispatch picks these up only on capable hardware). Pair kernels
// vectorize the element-independent work into a stack buffer and keep the
// reduction an ordered scalar loop; batch kernels run four double lanes.
// ---------------------------------------------------------------------------
namespace avx2 {

__attribute__((target("avx2"))) double SquaredL2F32(const float* a,
                                                    const float* b, int n) {
  alignas(32) double buf[8];
  double sum = 0.0;
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_loadu_ps(a + i);
    const __m256 bv = _mm256_loadu_ps(b + i);
    const __m256d alo = _mm256_cvtps_pd(_mm256_castps256_ps128(av));
    const __m256d ahi = _mm256_cvtps_pd(_mm256_extractf128_ps(av, 1));
    const __m256d blo = _mm256_cvtps_pd(_mm256_castps256_ps128(bv));
    const __m256d bhi = _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1));
    const __m256d dlo = _mm256_sub_pd(alo, blo);
    const __m256d dhi = _mm256_sub_pd(ahi, bhi);
    _mm256_store_pd(buf, _mm256_mul_pd(dlo, dlo));
    _mm256_store_pd(buf + 4, _mm256_mul_pd(dhi, dhi));
    for (int j = 0; j < 8; ++j) sum += buf[j];
  }
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return sum;
}

__attribute__((target("avx2"))) double ScaledSquaredL2F64(const double* a,
                                                          double wa,
                                                          const double* b,
                                                          double wb, int n) {
  alignas(32) double buf[4];
  const __m256d wav = _mm256_set1_pd(wa);
  const __m256d wbv = _mm256_set1_pd(wb);
  double sum = 0.0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_mul_pd(_mm256_loadu_pd(a + i), wav),
                      _mm256_mul_pd(_mm256_loadu_pd(b + i), wbv));
    _mm256_store_pd(buf, _mm256_mul_pd(d, d));
    for (int j = 0; j < 4; ++j) sum += buf[j];
  }
  for (; i < n; ++i) {
    const double d = a[i] * wa - b[i] * wb;
    sum += d * d;
  }
  return sum;
}

__attribute__((target("avx2"))) double MinSquaredDistance(const float* lo,
                                                          const float* hi,
                                                          const float* p,
                                                          int n) {
  alignas(32) double buf[4];
  double sum = 0.0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d l = _mm256_cvtps_pd(_mm_loadu_ps(lo + i));
    const __m256d h = _mm256_cvtps_pd(_mm_loadu_ps(hi + i));
    const __m256d pv = _mm256_cvtps_pd(_mm_loadu_ps(p + i));
    const __m256d below = _mm256_cmp_pd(pv, l, _CMP_LT_OQ);
    const __m256d above = _mm256_cmp_pd(pv, h, _CMP_GT_OQ);
    const __m256d d =
        _mm256_or_pd(_mm256_and_pd(below, _mm256_sub_pd(l, pv)),
                     _mm256_and_pd(above, _mm256_sub_pd(pv, h)));
    _mm256_store_pd(buf, _mm256_mul_pd(d, d));
    for (int j = 0; j < 4; ++j) sum += buf[j];
  }
  for (; i < n; ++i) {
    double d = 0.0;
    if (p[i] < lo[i]) {
      d = static_cast<double>(lo[i]) - p[i];
    } else if (p[i] > hi[i]) {
      d = static_cast<double>(p[i]) - hi[i];
    }
    sum += d * d;
  }
  return sum;
}

__attribute__((target("avx2"))) bool RectIntersects(const float* alo,
                                                    const float* ahi,
                                                    const float* blo,
                                                    const float* bhi,
                                                    int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 al = _mm256_loadu_ps(alo + i);
    const __m256 ah = _mm256_loadu_ps(ahi + i);
    const __m256 bl = _mm256_loadu_ps(blo + i);
    const __m256 bh = _mm256_loadu_ps(bhi + i);
    const __m256 dis = _mm256_or_ps(_mm256_cmp_ps(al, bh, _CMP_GT_OQ),
                                    _mm256_cmp_ps(bl, ah, _CMP_GT_OQ));
    if (_mm256_movemask_ps(dis) != 0) return false;
  }
  for (; i < n; ++i) {
    if (alo[i] > bhi[i] || blo[i] > ahi[i]) return false;
  }
  return true;
}

__attribute__((target("avx2"))) bool RectIntersectsExpanded(
    const float* alo, const float* ahi, float eps, const float* blo,
    const float* bhi, int n) {
  const __m256 ev = _mm256_set1_ps(eps);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 al = _mm256_sub_ps(_mm256_loadu_ps(alo + i), ev);
    const __m256 ah = _mm256_add_ps(_mm256_loadu_ps(ahi + i), ev);
    const __m256 bl = _mm256_loadu_ps(blo + i);
    const __m256 bh = _mm256_loadu_ps(bhi + i);
    const __m256 dis = _mm256_or_ps(_mm256_cmp_ps(al, bh, _CMP_GT_OQ),
                                    _mm256_cmp_ps(bl, ah, _CMP_GT_OQ));
    if (_mm256_movemask_ps(dis) != 0) return false;
  }
  for (; i < n; ++i) {
    const float lo = alo[i] - eps;
    const float hi = ahi[i] + eps;
    if (lo > bhi[i] || blo[i] > hi) return false;
  }
  return true;
}

__attribute__((target("avx2"))) bool RectContainsPoint(const float* lo,
                                                       const float* hi,
                                                       const float* p,
                                                       int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 lv = _mm256_loadu_ps(lo + i);
    const __m256 hv = _mm256_loadu_ps(hi + i);
    const __m256 pv = _mm256_loadu_ps(p + i);
    const __m256 outside = _mm256_or_ps(_mm256_cmp_ps(pv, lv, _CMP_LT_OQ),
                                        _mm256_cmp_ps(pv, hv, _CMP_GT_OQ));
    if (_mm256_movemask_ps(outside) != 0) return false;
  }
  for (; i < n; ++i) {
    if (p[i] < lo[i] || p[i] > hi[i]) return false;
  }
  return true;
}

__attribute__((target("avx2"))) double AccumulateF32(double* acc,
                                                     const float* p, int n,
                                                     double ss) {
  alignas(32) double buf[4];
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(p + i));
    _mm256_storeu_pd(acc + i,
                     _mm256_add_pd(_mm256_loadu_pd(acc + i), v));
    _mm256_store_pd(buf, _mm256_mul_pd(v, v));
    for (int j = 0; j < 4; ++j) ss += buf[j];
  }
  for (; i < n; ++i) {
    const double v = p[i];
    acc[i] += v;
    ss += v * v;
  }
  return ss;
}

__attribute__((target("avx2"))) void AddF64(double* acc, const double* x,
                                            int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i),
                                            _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

__attribute__((target("avx2"))) void BatchMinSquaredDistance(
    const float* lo, const float* hi, int stride, int dim, int count,
    const float* p, double* out) {
  int e = 0;
  for (; e + 4 <= count; e += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (int i = 0; i < dim; ++i) {
      const __m256d l = _mm256_cvtps_pd(_mm_loadu_ps(lo + i * stride + e));
      const __m256d h = _mm256_cvtps_pd(_mm_loadu_ps(hi + i * stride + e));
      const __m256d pt = _mm256_set1_pd(static_cast<double>(p[i]));
      const __m256d below = _mm256_cmp_pd(pt, l, _CMP_LT_OQ);
      const __m256d above = _mm256_cmp_pd(pt, h, _CMP_GT_OQ);
      const __m256d d =
          _mm256_or_pd(_mm256_and_pd(below, _mm256_sub_pd(l, pt)),
                       _mm256_and_pd(above, _mm256_sub_pd(pt, h)));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    _mm256_storeu_pd(out + e, acc);
  }
  if (e < count) {
    scalar::BatchMinSquaredDistance(lo + e, hi + e, stride, dim, count - e,
                                    p, out + e);
  }
}

__attribute__((target("avx2"))) void BatchSquaredL2(const float* pts,
                                                    int stride, int dim,
                                                    int count,
                                                    const float* q,
                                                    double* out) {
  int e = 0;
  for (; e + 4 <= count; e += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (int i = 0; i < dim; ++i) {
      const __m256d pt =
          _mm256_cvtps_pd(_mm_loadu_ps(pts + i * stride + e));
      const __m256d qv = _mm256_set1_pd(static_cast<double>(q[i]));
      const __m256d d = _mm256_sub_pd(pt, qv);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    _mm256_storeu_pd(out + e, acc);
  }
  if (e < count) {
    scalar::BatchSquaredL2(pts + e, stride, dim, count - e, q, out + e);
  }
}

__attribute__((target("avx2"))) void BatchIntersects(
    const float* lo, const float* hi, int stride, int dim, int count,
    const float* qlo, const float* qhi, uint64_t* out_mask) {
  const int words = (count + 63) / 64;
  for (int w = 0; w < words; ++w) out_mask[w] = 0;
  int e = 0;
  for (; e + 8 <= count; e += 8) {
    __m256 dis = _mm256_setzero_ps();
    int mm = 0;
    for (int i = 0; i < dim; ++i) {
      const __m256 l = _mm256_loadu_ps(lo + i * stride + e);
      const __m256 h = _mm256_loadu_ps(hi + i * stride + e);
      const __m256 ql = _mm256_set1_ps(qlo[i]);
      const __m256 qh = _mm256_set1_ps(qhi[i]);
      dis = _mm256_or_ps(dis, _mm256_or_ps(_mm256_cmp_ps(l, qh, _CMP_GT_OQ),
                                           _mm256_cmp_ps(ql, h,
                                                         _CMP_GT_OQ)));
      // All eight lanes disjoint already: the remaining dims cannot clear a
      // lane, so skip them (the common case in a selective probe).
      mm = _mm256_movemask_ps(dis);
      if (mm == 0xFF) break;
    }
    const uint64_t hits = static_cast<uint64_t>(~mm) & 0xFFull;
    out_mask[e >> 6] |= hits << (e & 63);
  }
  for (; e < count; ++e) {
    bool hit = true;
    for (int i = 0; i < dim; ++i) {
      if (lo[i * stride + e] > qhi[i] || qlo[i] > hi[i * stride + e]) {
        hit = false;
        break;
      }
    }
    if (hit) out_mask[e >> 6] |= uint64_t{1} << (e & 63);
  }
}

}  // namespace avx2

#endif  // WALRUS_SIMD_X86

namespace {

constexpr KernelTable kScalarTable = {
    scalar::SquaredL2F32,
    scalar::ScaledSquaredL2F64,
    scalar::MinSquaredDistance,
    scalar::RectIntersects,
    scalar::RectIntersectsExpanded,
    scalar::RectContainsPoint,
    scalar::AccumulateF32,
    scalar::AddF64,
    scalar::BatchMinSquaredDistance,
    scalar::BatchSquaredL2,
    scalar::BatchIntersects,
    scalar::HaarBase2x2,
};

#if WALRUS_SIMD_X86
// SSE2 keeps the scalar pair kernels (two double lanes don't pay for the
// ordered-reduction constraint) and vectorizes predicates, batch scans, and
// the Haar butterfly.
constexpr KernelTable kSse2Table = {
    scalar::SquaredL2F32,
    scalar::ScaledSquaredL2F64,
    scalar::MinSquaredDistance,
    sse2::RectIntersects,
    sse2::RectIntersectsExpanded,
    sse2::RectContainsPoint,
    scalar::AccumulateF32,
    sse2::AddF64,
    sse2::BatchMinSquaredDistance,
    sse2::BatchSquaredL2,
    sse2::BatchIntersects,
    sse2::HaarBase2x2,
};

// AVX2 has no wider Haar butterfly: the 4-window SSE2 shuffle/transpose
// pattern already saturates the port budget at this working-set size.
constexpr KernelTable kAvx2Table = {
    avx2::SquaredL2F32,
    avx2::ScaledSquaredL2F64,
    avx2::MinSquaredDistance,
    avx2::RectIntersects,
    avx2::RectIntersectsExpanded,
    avx2::RectContainsPoint,
    avx2::AccumulateF32,
    avx2::AddF64,
    avx2::BatchMinSquaredDistance,
    avx2::BatchSquaredL2,
    avx2::BatchIntersects,
    sse2::HaarBase2x2,
};
#endif  // WALRUS_SIMD_X86

// -1 = no override; otherwise the forced IsaLevel.
std::atomic<int> g_isa_override{-1};

IsaLevel ResolveIsa() {
  IsaLevel level = MaxSupportedIsa();
  if (const char* env = std::getenv("WALRUS_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) {
      level = IsaLevel::kScalar;
    } else if (std::strcmp(env, "sse2") == 0) {
      level = IsaLevel::kSse2;
    } else if (std::strcmp(env, "avx2") == 0) {
      level = IsaLevel::kAvx2;
    }
    if (level > MaxSupportedIsa()) level = MaxSupportedIsa();
  }
  return level;
}

}  // namespace

const char* IsaName(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kSse2:
      return "sse2";
    case IsaLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

IsaLevel MaxSupportedIsa() {
#if WALRUS_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return IsaLevel::kAvx2;
  return IsaLevel::kSse2;  // SSE2 is the x86-64 baseline.
#else
  return IsaLevel::kScalar;
#endif
}

IsaLevel ActiveIsa() {
  const int forced = g_isa_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<IsaLevel>(forced);
  static const IsaLevel resolved = [] {
    const IsaLevel level = ResolveIsa();
    MetricsRegistry::Global()
        .GetGauge("walrus.simd.dispatch")
        ->Set(static_cast<int64_t>(level));
    return level;
  }();
  return resolved;
}

void TestOnlySetIsa(IsaLevel level) {
  if (level > MaxSupportedIsa()) level = MaxSupportedIsa();
  g_isa_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

void TestOnlyResetIsa() {
  g_isa_override.store(-1, std::memory_order_relaxed);
}

const KernelTable& Kernels(IsaLevel level) {
  if (level > MaxSupportedIsa()) level = MaxSupportedIsa();
#if WALRUS_SIMD_X86
  switch (level) {
    case IsaLevel::kAvx2:
      return kAvx2Table;
    case IsaLevel::kSse2:
      return kSse2Table;
    case IsaLevel::kScalar:
      return kScalarTable;
  }
#endif
  return kScalarTable;
}

const KernelTable& Active() { return Kernels(ActiveIsa()); }

}  // namespace simd
}  // namespace walrus
