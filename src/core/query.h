#ifndef WALRUS_CORE_QUERY_H_
#define WALRUS_CORE_QUERY_H_

#include <cstdint>
#include <vector>

#include "common/trace.h"
#include "core/index.h"
#include "core/similarity.h"

namespace walrus {

/// Which image matcher scores candidate targets.
enum class MatcherKind : uint8_t {
  kQuick = 0,   // union of all matched regions (relaxed Definition 4.2)
  kGreedy = 1,  // one-to-one greedy heuristic (strict Definition 4.2)
};

/// Per-query knobs.
struct QueryOptions {
  /// Region match envelope (Definition 4.1); the paper's retrieval run used
  /// 0.085 with YCC centroid signatures.
  float epsilon = 0.085f;
  /// Image similarity threshold tau (Definition 4.3); targets below it are
  /// dropped. 0 keeps every target with at least one matching region.
  double tau = 0.0;
  MatcherKind matcher = MatcherKind::kQuick;
  /// Definition 4.3 denominator variant (paper section 4, last paragraph).
  SimilarityNormalization normalization = SimilarityNormalization::kBothImages;
  /// When > 0, region matching switches from the epsilon-range probe to a
  /// k-nearest-neighbor probe: each query region retrieves its k closest
  /// database regions (centroid signatures only). Removes the need to tune
  /// epsilon at the cost of a fixed candidate budget per region.
  int knn_per_region = 0;
  /// Refined matching phase (paper section 5.5): when true and the index
  /// was built with refined_signature_size > 0, candidate region pairs are
  /// re-verified with the refined centroids before image matching.
  bool use_refinement = false;
  /// Envelope for the refined re-verification.
  float refined_epsilon = 0.12f;
  /// Truncate the ranked result to this many images (0 = no limit).
  int top_k = 0;
  /// When true, each QueryMatch carries the region pairs the matcher used
  /// (for explaining/visualizing results). Off by default: pair lists can
  /// be large under the quick matcher.
  bool collect_pairs = false;
  /// When true, QueryStats::spans receives the per-stage span tree of this
  /// query (extract -> wavelet/cluster/assemble, probe, match, rank). Over
  /// the wire the spans ride back with the results.
  bool collect_trace = false;
};

/// One ranked target image.
struct QueryMatch {
  uint64_t image_id = 0;
  double similarity = 0.0;
  int matching_pairs = 0;   // region pairs found by the index probe
  int pairs_used = 0;       // pairs the matcher kept
  /// Populated only when QueryOptions::collect_pairs is set: the pairs the
  /// matcher used, as (query region index, target region id).
  std::vector<RegionPair> pairs;
};

/// Diagnostics for the Table 1 selectivity experiment plus the per-stage
/// breakdown the observability layer reports (DESIGN.md section 10).
struct QueryStats {
  int query_regions = 0;
  /// Total regions retrieved across all query-region probes.
  int64_t regions_retrieved = 0;
  /// regions_retrieved / query_regions.
  double avg_regions_per_query_region = 0.0;
  /// Distinct database images containing at least one matching region.
  int distinct_images = 0;
  /// End-to-end wall time in seconds (extract + probe + match + rank).
  double seconds = 0.0;

  /// Per-phase wall time (seconds), the same in every engine. extract
  /// covers sliding-window wavelets + BIRCH clustering + region assembly;
  /// probe the R*-tree range/kNN lookups with the exact centroid test on
  /// every part (plus the kNN top-k merge); match the quick/greedy image
  /// matcher on every part; rank the final sort.
  double extract_seconds = 0.0;
  double probe_seconds = 0.0;
  double match_seconds = 0.0;
  double rank_seconds = 0.0;

  /// R*-tree nodes this query's traversals touched, summed over parts
  /// (exact under concurrent queries; the same count in-memory and paged).
  int64_t nodes_visited = 0;

  /// Span tree of this query; populated when QueryOptions::collect_trace.
  std::vector<TraceSpan> spans;
};

/// Runs the full WALRUS query pipeline (paper section 5.1): decompose the
/// query image into regions, probe the R*-tree with every region signature
/// expanded by epsilon, then score each candidate image with the selected
/// matcher and rank by similarity (descending; ties by image id).
Result<std::vector<QueryMatch>> ExecuteQuery(const WalrusIndex& index,
                                             const ImageF& query_image,
                                             const QueryOptions& options,
                                             QueryStats* stats = nullptr);

/// "User-specified scene" query (the system's namesake): only the part of
/// the query image inside `scene` is decomposed into regions, so the
/// ranking reflects how much of the marked scene each database image
/// contains. Combine with SimilarityNormalization::kQueryOnly to score by
/// the fraction of the *scene* that was found.
Result<std::vector<QueryMatch>> ExecuteSceneQuery(const WalrusIndex& index,
                                                  const ImageF& query_image,
                                                  const PixelRect& scene,
                                                  const QueryOptions& options,
                                                  QueryStats* stats = nullptr);

/// Runs many queries against one index, parallelizing across a thread pool
/// (region extraction dominates query cost and is independent per query;
/// probes are read-only). 0 threads = hardware concurrency. Result i
/// corresponds to queries[i]; on failure the first failing query's error is
/// returned, annotated with its index ("query <i> of <n>: ...").
Result<std::vector<std::vector<QueryMatch>>> ExecuteQueryBatch(
    const WalrusIndex& index, const std::vector<ImageF>& queries,
    const QueryOptions& options, int num_threads = 0);

class QueryEngine;

/// Batch entry point over any query engine (single index, sharded or
/// live). Each query runs on its own pool thread via QueryEngine::RunQuery
/// — engines must be thread-safe for concurrent queries (all are).
Result<std::vector<std::vector<QueryMatch>>> ExecuteQueryBatch(
    const QueryEngine& engine, const std::vector<ImageF>& queries,
    const QueryOptions& options, int num_threads = 0);

}  // namespace walrus

#endif  // WALRUS_CORE_QUERY_H_
