#ifndef WALRUS_CORE_QUERY_PIPELINE_H_
#define WALRUS_CORE_QUERY_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "common/trace.h"
#include "core/index.h"
#include "core/query.h"

namespace walrus {

class ThreadPool;

/// The query pipeline decomposed into its stages (extract, probe, score,
/// rank), plus QueryRun, the one composition of them that every engine
/// runs over its parts: one index, N shards, or a live base plus its delta.
/// Because every stage is deterministic in its inputs — candidate sets
/// depend only on the indexed data (never on R*-tree layout) and pair lists
/// are canonically ordered — composing the stages per part yields
/// byte-identical rankings to one index holding the same images.

/// One candidate target image produced by the probe stage: every region
/// pair the index probe discovered for it. Pair lists are in canonical
/// (query_index, target_index) order, so downstream tie-breaking (the
/// greedy matcher picks the first pair among equal marginal gains) does not
/// depend on tree traversal order.
struct CandidateImage {
  uint64_t image_id = 0;
  std::vector<RegionPair> pairs;
};

/// Probe-stage work counters (the per-query slice of QueryStats).
struct ProbeDiagnostics {
  /// Region pairs retrieved across all query-region probes.
  int64_t regions_retrieved = 0;
  /// R*-tree nodes touched, in-memory or paged.
  int64_t nodes_visited = 0;
  /// Always 0: a paged tree is a file mapping and reads no pages through a
  /// cache. Kept for callers that still report them.
  int64_t pages_read = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

/// Stage 0 output: the query decomposed into regions plus the pixel area
/// the similarity denominators use.
struct ExtractedQuery {
  std::vector<Region> regions;
  double query_area = 0.0;
};

/// Stage 0, whole image: region extraction (sliding-window wavelets +
/// BIRCH). `trace`, when non-null, receives an "extract" span with the
/// extractor's child spans.
Result<ExtractedQuery> ExtractQueryRegions(const ImageF& query_image,
                                           const WalrusParams& params,
                                           QueryTrace* trace = nullptr);

/// Stage 0, user-specified scene: extracts only the regions inside `scene`
/// and computes the effective query area (the pixels the scene's windows
/// can actually cover). InvalidArgument when the scene yields no regions.
Result<ExtractedQuery> ExtractSceneQueryRegions(const ImageF& query_image,
                                                const PixelRect& scene,
                                                const WalrusParams& params,
                                                QueryTrace* trace = nullptr);

/// Stage 1, epsilon mode (Definitions 4.1 and 5.4): probes `index` with
/// every query region's signature expanded by options.epsilon, all regions
/// in one shared R*-tree traversal (RangeQueryBatch). In centroid mode each
/// envelope hit then passes the exact Euclidean test on the centroid the
/// traversal already holds, so only true matches survive.
/// Returns candidates sorted by image id with canonically ordered pair
/// lists. The result is a pure function of the indexed data: independent
/// of tree build path (incremental vs bulk load) and of how images are
/// partitioned across shards.
Result<std::vector<CandidateImage>> ProbeCandidates(
    const WalrusIndex& index, const std::vector<Region>& query_regions,
    const QueryOptions& options, ProbeDiagnostics* diag = nullptr);

/// Stage 1, kNN mode: for each query region, the k = options.knn_per_region
/// nearest database regions as (payload, distance) pairs in ascending
/// distance order. Exposed separately from ProbeCandidates because a
/// multi-part query must merge per-part neighbor lists down to a global
/// top-k per region *before* matching (the union of per-part top-k is a
/// superset of the global top-k).
Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
ProbeNearestPerRegion(const WalrusIndex& index,
                      const std::vector<Region>& query_regions, int k,
                      ProbeDiagnostics* diag = nullptr);

/// Folds per-region neighbor lists into canonical candidates (sorted by
/// image id, pairs in canonical order). `neighbors[qi]` lists the selected
/// neighbors of query region qi.
std::vector<CandidateImage> CandidatesFromNeighbors(
    const std::vector<std::vector<std::pair<uint64_t, double>>>& neighbors);

/// Stage 2 (section 5.5): scores each candidate image with the configured
/// matcher (applying the refined-matching phase and the tau threshold) and
/// returns the surviving matches, unranked, in candidate order. Every
/// candidate's image must be indexed in `index` — with sharding, score a
/// shard's own candidates against that shard. Only the target regions the
/// matcher will read (those named by the candidate's pairs) are
/// materialized from the catalog, not every region of the image; the
/// matchers never dereference unpaired target regions.
Result<std::vector<QueryMatch>> ScoreCandidates(
    const WalrusIndex& index, const std::vector<Region>& query_regions,
    double query_area, const QueryOptions& options,
    const std::vector<CandidateImage>& candidates);

/// Stage 3: ranks matches by (similarity descending, image id ascending) —
/// a total order, so the result is unique regardless of input order — and
/// truncates to top_k when positive.
void RankMatches(std::vector<QueryMatch>* matches, int top_k);

/// One index a query fans out over, and the images in it that are dead.
struct QueryPart {
  const WalrusIndex* index = nullptr;
  /// Image ids whose regions in this part no longer count (LiveIndex
  /// tombstones on a base shard), or nullptr. The probe drops them.
  const std::unordered_set<uint64_t>* dead = nullptr;
  /// Regions of those images. A kNN probe of this part asks for
  /// k + dead_regions neighbors, so dead entries cannot crowd live ones out
  /// of its top k.
  size_t dead_regions = 0;
};

/// What an engine answers a query from: parts holding disjoint live image
/// sets (a single index is one part, ShardedIndex one per shard, LiveIndex
/// its base shards plus the delta) and the pool each phase fans out on.
struct QueryParts {
  std::vector<QueryPart> parts;
  /// Runs parts 1..n-1 of each phase while the calling thread runs part 0;
  /// nullptr runs every part on the calling thread.
  ThreadPool* pool = nullptr;
};

/// One query's pass through the pipeline (paper section 5.1), the one
/// composition every engine runs (QueryEngine::RunQuery): Extract, then
/// Compose over the engine's parts. The engine keeps its parts alive across
/// Compose only, so extraction never runs under an engine lock. The run
/// owns the query's timers, its extract/probe/match/rank spans, its
/// walrus.query.* observations and the QueryStats fold, so every engine
/// reports them alike; probe_seconds and match_seconds are the wall times
/// of those phases. One run per query; not thread-safe.
class QueryRun {
 public:
  QueryRun(const QueryOptions& options, QueryStats* stats);

  QueryRun(const QueryRun&) = delete;
  QueryRun& operator=(const QueryRun&) = delete;

  /// Stage 0 on the whole image, or only on `scene` when non-null.
  [[nodiscard]] Status Extract(const ImageF& image, const PixelRect* scene,
                               const WalrusParams& params);

  /// Stages 1-3 over `parts` (at least one), after Extract:
  ///   1. probe: every part is probed (ProbeCandidates, or
  ///      ProbeNearestPerRegion in kNN mode) and its dead images dropped;
  ///      in kNN mode the per-part lists are then merged into one top k per
  ///      query region by (distance, payload), and each neighbor is routed
  ///      back to the part that indexes it;
  ///   2. match: each part scores its own candidates (ScoreCandidates);
  ///   3. rank: the concatenated matches are ranked once (RankMatches).
  /// Phases 1 and 2 fan out over parts.pool. `part_regions`, when non-null,
  /// receives the regions each part's probe retrieved.
  Result<std::vector<QueryMatch>> Compose(
      const QueryParts& parts, std::vector<int64_t>* part_regions = nullptr);

 private:
  const QueryOptions& options_;
  QueryStats* stats_;
  QueryTrace storage_;
  /// &storage_ when the caller asked for a trace and passed stats to carry
  /// it back; nullptr otherwise.
  QueryTrace* trace_;
  WallTimer timer_;
  bool use_bbox_ = false;
  ExtractedQuery query_;
};

}  // namespace walrus

#endif  // WALRUS_CORE_QUERY_PIPELINE_H_
