#include "core/similarity.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "core/packed_store.h"

namespace walrus {

bool RegionsMatchCentroid(const float* a, const float* b, int dim,
                          float epsilon) {
  // The kernel computes the full ordered sum; with nonnegative terms,
  // "some prefix exceeds eps^2" and "the total exceeds eps^2" are the same
  // predicate, so this matches the historical early-exit loop exactly.
  const double eps2 = static_cast<double>(epsilon) * epsilon;
  return simd::Active().squared_l2_f32(a, b, dim) <= eps2;
}

bool RegionsMatchBBox(const Rect& a, const Rect& b, float epsilon) {
  return a.ExpandedIntersects(epsilon, b);
}

std::vector<RegionPair> FindMatchingPairs(const std::vector<Region>& query,
                                          const std::vector<Region>& target,
                                          float epsilon,
                                          bool use_bounding_box) {
  std::vector<RegionPair> pairs;
  if (query.empty() || target.empty()) return pairs;
  // Pack the target signatures once into SoA planes; each query region then
  // scores ALL targets with one batch kernel call instead of a pointer
  // chase per (query, target) pair. Match booleans are bit-identical to the
  // historical pair loop (see common/simd.h), and pair order is preserved:
  // query-major, targets ascending.
  const simd::KernelTable& kern = simd::Active();
  const int count = static_cast<int>(target.size());
  if (use_bounding_box) {
    const PackedSignaturePlanes pack =
        PackedSignaturePlanes::FromBoundingBoxes(target);
    const int dim = pack.dim();
    std::vector<uint64_t> mask((count + 63) / 64);
    std::vector<float> qlo(dim), qhi(dim);
    for (size_t qi = 0; qi < query.size(); ++qi) {
      const Rect& qbox = query[qi].bounding_box;
      WALRUS_DCHECK_EQ(qbox.dim(), dim);
      // Same float arithmetic as Rect::Expanded, hoisted out of the pair
      // loop.
      for (int d = 0; d < dim; ++d) {
        qlo[d] = qbox.lo(d) - epsilon;
        qhi[d] = qbox.hi(d) + epsilon;
      }
      kern.batch_intersects(pack.lo_planes(), pack.hi_planes(),
                            pack.stride(), dim, count, qlo.data(),
                            qhi.data(), mask.data());
      for (size_t w = 0; w < mask.size(); ++w) {
        uint64_t bits = mask[w];
        while (bits != 0) {
          const int ti = static_cast<int>(w) * 64 + std::countr_zero(bits);
          bits &= bits - 1;
          pairs.push_back({static_cast<int>(qi), ti});
        }
      }
    }
  } else {
    const PackedSignaturePlanes pack =
        PackedSignaturePlanes::FromCentroids(target);
    const int dim = pack.dim();
    std::vector<double> dist2(count);
    for (size_t qi = 0; qi < query.size(); ++qi) {
      WALRUS_DCHECK_EQ(static_cast<int>(query[qi].centroid.size()), dim);
      const double eps2 = static_cast<double>(epsilon) * epsilon;
      kern.batch_squared_l2(pack.lo_planes(), pack.stride(), dim, count,
                            query[qi].centroid.data(), dist2.data());
      for (int ti = 0; ti < count; ++ti) {
        if (dist2[ti] <= eps2) {
          pairs.push_back({static_cast<int>(qi), ti});
        }
      }
    }
  }
  return pairs;
}

double MatchResult::SimilarityAs(SimilarityNormalization norm,
                                 double query_area,
                                 double target_area) const {
  double numerator = covered_query_area + covered_target_area;
  double denominator = query_area + target_area;
  switch (norm) {
    case SimilarityNormalization::kBothImages:
      break;
    case SimilarityNormalization::kQueryOnly:
      numerator = covered_query_area;
      denominator = query_area;
      break;
    case SimilarityNormalization::kSmallerImage:
      denominator = 2.0 * std::min(query_area, target_area);
      break;
  }
  if (denominator <= 0.0) return 0.0;
  double value = numerator / denominator;
  return value > 1.0 ? 1.0 : value;
}

namespace {

/// Scales covered-cell counts into pixel areas and assembles Definition 4.3.
MatchResult AssembleResult(int covered_query_cells, int query_cells_total,
                           int covered_target_cells, int target_cells_total,
                           int pairs_used, double query_area,
                           double target_area) {
  MatchResult result;
  result.pairs_used = pairs_used;
  result.covered_query_area =
      query_area * covered_query_cells / std::max(1, query_cells_total);
  result.covered_target_area =
      target_area * covered_target_cells / std::max(1, target_cells_total);
  double denom = query_area + target_area;
  result.similarity =
      denom > 0.0
          ? (result.covered_query_area + result.covered_target_area) / denom
          : 0.0;
  return result;
}

/// Matcher invocation counters, by kind, plus the candidate pair volume
/// they chewed through (the greedy matcher is O(pairs^2): this counter is
/// the early-warning signal for pair explosion under a loose epsilon).
void RecordMatcherMetrics(const char* kind,
                          const std::vector<RegionPair>& pairs) {
  static Counter* const quick_calls =
      MetricsRegistry::Global().GetCounter("walrus.match.quick_calls");
  static Counter* const greedy_calls =
      MetricsRegistry::Global().GetCounter("walrus.match.greedy_calls");
  static Counter* const exact_calls =
      MetricsRegistry::Global().GetCounter("walrus.match.exact_calls");
  static Counter* const pairs_scored =
      MetricsRegistry::Global().GetCounter("walrus.match.pairs_scored");
  if (kind[0] == 'q') {
    quick_calls->Increment();
  } else if (kind[0] == 'g') {
    greedy_calls->Increment();
  } else {
    exact_calls->Increment();
  }
  pairs_scored->Increment(pairs.size());
}

}  // namespace

MatchResult QuickMatch(const std::vector<Region>& query,
                       const std::vector<Region>& target,
                       const std::vector<RegionPair>& pairs,
                       double query_area, double target_area) {
  RecordMatcherMetrics("quick", pairs);
  if (pairs.empty()) return MatchResult{};
  CoverageBitmap union_q(query[0].bitmap.side());
  CoverageBitmap union_t(target[0].bitmap.side());
  for (const RegionPair& pair : pairs) {
    union_q.UnionWith(query[pair.query_index].bitmap);
    union_t.UnionWith(target[pair.target_index].bitmap);
  }
  MatchResult result = AssembleResult(
      union_q.CountSet(), union_q.CellCount(), union_t.CountSet(),
      union_t.CellCount(), static_cast<int>(pairs.size()), query_area,
      target_area);
  result.used_pairs = pairs;
  return result;
}

MatchResult GreedyMatch(const std::vector<Region>& query,
                        const std::vector<Region>& target,
                        const std::vector<RegionPair>& pairs,
                        double query_area, double target_area) {
  RecordMatcherMetrics("greedy", pairs);
  if (pairs.empty()) return MatchResult{};
  CoverageBitmap union_q(query[0].bitmap.side());
  CoverageBitmap union_t(target[0].bitmap.side());
  // Per-cell pixel weights so marginal gains are in pixel units.
  double q_cell_area = query_area / union_q.CellCount();
  double t_cell_area = target_area / union_t.CellCount();

  std::vector<bool> query_used(query.size(), false);
  std::vector<bool> target_used(target.size(), false);
  std::vector<bool> pair_taken(pairs.size(), false);
  int pairs_used = 0;
  std::vector<RegionPair> chosen;

  for (;;) {
    double best_gain = 0.0;
    int best_pair = -1;
    for (size_t p = 0; p < pairs.size(); ++p) {
      if (pair_taken[p]) continue;
      const RegionPair& pair = pairs[p];
      if (query_used[pair.query_index] || target_used[pair.target_index]) {
        continue;
      }
      int gain_q = CoverageBitmap::UnionCount(union_q,
                                              query[pair.query_index].bitmap) -
                   union_q.CountSet();
      int gain_t =
          CoverageBitmap::UnionCount(union_t,
                                     target[pair.target_index].bitmap) -
          union_t.CountSet();
      double gain = gain_q * q_cell_area + gain_t * t_cell_area;
      if (gain > best_gain) {
        best_gain = gain;
        best_pair = static_cast<int>(p);
      }
    }
    if (best_pair < 0) break;
    const RegionPair& pair = pairs[best_pair];
    pair_taken[best_pair] = true;
    query_used[pair.query_index] = true;
    target_used[pair.target_index] = true;
    union_q.UnionWith(query[pair.query_index].bitmap);
    union_t.UnionWith(target[pair.target_index].bitmap);
    chosen.push_back(pair);
    ++pairs_used;
  }
  MatchResult result = AssembleResult(
      union_q.CountSet(), union_q.CellCount(), union_t.CountSet(),
      union_t.CellCount(), pairs_used, query_area, target_area);
  result.used_pairs = std::move(chosen);
  return result;
}

namespace {

struct ExactState {
  const std::vector<Region>* query;
  const std::vector<Region>* target;
  const std::vector<RegionPair>* pairs;
  double q_cell_area;
  double t_cell_area;
  std::vector<bool> query_used;
  std::vector<bool> target_used;
  double best_value = -1.0;
  int best_q_cells = 0;
  int best_t_cells = 0;
  int best_pairs = 0;
  std::vector<RegionPair> current;
  std::vector<RegionPair> best_set;
};

void ExactSearch(ExactState* st, size_t next, CoverageBitmap* union_q,
                 CoverageBitmap* union_t, int pairs_used) {
  double value = union_q->CountSet() * st->q_cell_area +
                 union_t->CountSet() * st->t_cell_area;
  if (value > st->best_value) {
    st->best_value = value;
    st->best_q_cells = union_q->CountSet();
    st->best_t_cells = union_t->CountSet();
    st->best_pairs = pairs_used;
    st->best_set = st->current;
  }
  if (next >= st->pairs->size()) return;

  // Branch 1: skip this pair.
  ExactSearch(st, next + 1, union_q, union_t, pairs_used);

  // Branch 2: take it if both regions are free.
  const RegionPair& pair = (*st->pairs)[next];
  if (st->query_used[pair.query_index] || st->target_used[pair.target_index]) {
    return;
  }
  CoverageBitmap saved_q = *union_q;
  CoverageBitmap saved_t = *union_t;
  union_q->UnionWith((*st->query)[pair.query_index].bitmap);
  union_t->UnionWith((*st->target)[pair.target_index].bitmap);
  st->query_used[pair.query_index] = true;
  st->target_used[pair.target_index] = true;
  st->current.push_back(pair);
  ExactSearch(st, next + 1, union_q, union_t, pairs_used + 1);
  st->current.pop_back();
  st->query_used[pair.query_index] = false;
  st->target_used[pair.target_index] = false;
  *union_q = saved_q;
  *union_t = saved_t;
}

}  // namespace

MatchResult ExactMatch(const std::vector<Region>& query,
                       const std::vector<Region>& target,
                       const std::vector<RegionPair>& pairs,
                       double query_area, double target_area) {
  RecordMatcherMetrics("exact", pairs);
  if (pairs.empty()) return MatchResult{};
  WALRUS_CHECK_LE(pairs.size(), 24u)
      << "ExactMatch is exponential; use GreedyMatch";
  ExactState st;
  st.query = &query;
  st.target = &target;
  st.pairs = &pairs;
  CoverageBitmap union_q(query[0].bitmap.side());
  CoverageBitmap union_t(target[0].bitmap.side());
  st.q_cell_area = query_area / union_q.CellCount();
  st.t_cell_area = target_area / union_t.CellCount();
  st.query_used.assign(query.size(), false);
  st.target_used.assign(target.size(), false);
  ExactSearch(&st, 0, &union_q, &union_t, 0);
  MatchResult result = AssembleResult(
      st.best_q_cells, union_q.CellCount(), st.best_t_cells,
      union_t.CellCount(), st.best_pairs, query_area, target_area);
  result.used_pairs = std::move(st.best_set);
  return result;
}

MatchResult MatchImages(const std::vector<Region>& query,
                        const std::vector<Region>& target, float epsilon,
                        bool use_bounding_box, bool use_greedy,
                        double query_area, double target_area) {
  std::vector<RegionPair> pairs =
      FindMatchingPairs(query, target, epsilon, use_bounding_box);
  return use_greedy
             ? GreedyMatch(query, target, pairs, query_area, target_area)
             : QuickMatch(query, target, pairs, query_area, target_area);
}

}  // namespace walrus
