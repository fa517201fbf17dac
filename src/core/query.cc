#include "core/query.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "common/check.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/query_engine.h"
#include "core/query_pipeline.h"

namespace walrus {
namespace {

/// Shared bucket shape for all query-path latency histograms: 1us doubling
/// up to ~68s.
std::vector<double> QuerySecondsBuckets() {
  return ExponentialBuckets(1e-6, 2.0, 36);
}

/// Query-funnel metrics (registered once, mutated lock-free per query).
/// QueryRun is their only writer, whatever the engine.
struct QueryPathMetrics {
  Counter* queries;
  Counter* regions_retrieved;
  Counter* candidate_images;
  Histogram* seconds;
  Histogram* extract_seconds;
  Histogram* probe_seconds;
  Histogram* match_seconds;

  static const QueryPathMetrics& Get() {
    static const QueryPathMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      QueryPathMetrics m;
      m.queries = registry.GetCounter("walrus.query.count");
      m.regions_retrieved =
          registry.GetCounter("walrus.query.regions_retrieved");
      m.candidate_images =
          registry.GetCounter("walrus.query.candidate_images");
      m.seconds =
          registry.GetHistogram("walrus.query.seconds", QuerySecondsBuckets());
      m.extract_seconds = registry.GetHistogram(
          "walrus.query.extract_seconds", QuerySecondsBuckets());
      m.probe_seconds = registry.GetHistogram("walrus.query.probe_seconds",
                                              QuerySecondsBuckets());
      m.match_seconds = registry.GetHistogram("walrus.query.match_seconds",
                                              QuerySecondsBuckets());
      return m;
    }();
    return metrics;
  }
};

/// One accepted probe hit, recorded flat during traversal (a plain vector
/// push per hit; the by-image grouping happens once at the end, not per
/// candidate).
struct ProbeHit {
  uint64_t image_id;
  RegionPair pair;
};

/// Converts the flat probe-hit list into the canonical candidate list:
/// images ascending, pairs sorted by (query_index, target_index). Each
/// (query region, target region) pair appears at most once, so the sort is
/// a total order and the resulting candidate list is a pure function of the
/// candidate *set* — independent of the tree traversal order that
/// discovered it.
std::vector<CandidateImage> CanonicalCandidates(std::vector<ProbeHit> hits) {
  std::sort(hits.begin(), hits.end(),
            [](const ProbeHit& a, const ProbeHit& b) {
              if (a.image_id != b.image_id) return a.image_id < b.image_id;
              if (a.pair.query_index != b.pair.query_index) {
                return a.pair.query_index < b.pair.query_index;
              }
              return a.pair.target_index < b.pair.target_index;
            });
  std::vector<CandidateImage> candidates;
  for (ProbeHit& hit : hits) {
    if (candidates.empty() || candidates.back().image_id != hit.image_id) {
      candidates.push_back({hit.image_id, {}});
    }
    candidates.back().pairs.push_back(hit.pair);
  }
  return candidates;
}

/// Per-query-region neighbor lists, as ProbeNearestPerRegion returns them.
using NeighborLists = std::vector<std::vector<std::pair<uint64_t, double>>>;

/// Drops the neighbors of dead images from each per-region list; returns
/// how many were dropped.
int64_t DropDeadNeighbors(const std::unordered_set<uint64_t>& dead,
                          NeighborLists* neighbors) {
  const auto is_dead = [&dead](const std::pair<uint64_t, double>& neighbor) {
    uint64_t image_id;
    uint32_t region_id;
    DecodeRegionPayload(neighbor.first, &image_id, &region_id);
    return dead.count(image_id) > 0;
  };
  int64_t dropped = 0;
  for (auto& per_region : *neighbors) {
    dropped += static_cast<int64_t>(std::erase_if(per_region, is_dead));
  }
  return dropped;
}

/// Drops the candidates of dead images; returns how many region pairs went
/// with them.
int64_t DropDeadCandidates(const std::unordered_set<uint64_t>& dead,
                           std::vector<CandidateImage>* candidates) {
  int64_t dropped = 0;
  std::erase_if(*candidates, [&](const CandidateImage& candidate) {
    if (dead.count(candidate.image_id) == 0) return false;
    dropped += static_cast<int64_t>(candidate.pairs.size());
    return true;
  });
  return dropped;
}

/// One part's slots in a composed query, each written only by that part's
/// own task.
struct PartWork {
  Status status;
  ProbeDiagnostics diag;
  NeighborLists neighbors;  // kNN mode only
  std::vector<CandidateImage> candidates;
  std::vector<QueryMatch> matches;
};

/// Phase 1 for one part: its epsilon probe (or its kNN probe, asking for
/// dead_regions extra neighbors), minus the part's dead images.
void ProbePart(const QueryPart& part, const std::vector<Region>& regions,
               const QueryOptions& options, bool knn, PartWork* w) {
  if (knn) {
    const int k = options.knn_per_region + static_cast<int>(part.dead_regions);
    auto found = ProbeNearestPerRegion(*part.index, regions, k, &w->diag);
    if (!found.ok()) {
      w->status = found.status();
      return;
    }
    w->neighbors = std::move(*found);
    if (part.dead != nullptr) {
      w->diag.regions_retrieved -= DropDeadNeighbors(*part.dead, &w->neighbors);
    }
    return;
  }
  auto found = ProbeCandidates(*part.index, regions, options, &w->diag);
  if (!found.ok()) {
    w->status = found.status();
    return;
  }
  w->candidates = std::move(*found);
  if (part.dead != nullptr) {
    w->diag.regions_retrieved -= DropDeadCandidates(*part.dead, &w->candidates);
  }
}

/// kNN mode, between the phases: merges the parts' neighbor lists into one
/// top k per query region by (distance, payload), hands each kept neighbor
/// back to the part it came from (parts hold disjoint live image sets, so
/// each image has exactly one), and turns each part's share into its
/// candidates. Returns the number of neighbors kept.
int64_t MergeNearest(size_t num_regions, size_t k,
                     std::vector<PartWork>* work) {
  struct Neighbor {
    double distance;
    uint64_t payload;
    size_t part;
  };
  int64_t kept = 0;
  std::vector<Neighbor> merged;
  for (size_t qi = 0; qi < num_regions; ++qi) {
    merged.clear();
    for (size_t p = 0; p < work->size(); ++p) {
      for (const auto& [payload, distance] : (*work)[p].neighbors[qi]) {
        merged.push_back({distance, payload, p});
      }
      (*work)[p].neighbors[qi].clear();
    }
    std::sort(merged.begin(), merged.end(),
              [](const Neighbor& a, const Neighbor& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.payload < b.payload;
              });
    if (merged.size() > k) merged.resize(k);
    kept += static_cast<int64_t>(merged.size());
    for (const Neighbor& nb : merged) {
      (*work)[nb.part].neighbors[qi].emplace_back(nb.payload, nb.distance);
    }
  }
  for (PartWork& w : *work) {
    w.candidates = CandidatesFromNeighbors(w.neighbors);
  }
  return kept;
}

/// Runs task(p) for every part p in [0, n): parts 1..n-1 on `pool`, part 0
/// on the calling thread, then waits on a per-call latch. The pool's global
/// Wait() is unusable here: concurrent queries share the pool, and Wait()
/// would block on their work too. Tasks never wait on the pool themselves,
/// so nesting under ExecuteQueryBatch's pool cannot deadlock.
void FanOut(ThreadPool* pool, size_t n,
            const std::function<void(size_t)>& task) {
  if (pool == nullptr || n <= 1) {
    for (size_t p = 0; p < n; ++p) task(p);
    return;
  }
  // Per-call latch: mu guards `remaining` (locals cannot carry
  // WALRUS_GUARDED_BY; the discipline here is by construction).
  Mutex mu;
  CondVar done;
  size_t remaining = n - 1;
  for (size_t p = 1; p < n; ++p) {
    pool->Submit([&, p] {
      task(p);
      MutexLock lock(mu);
      if (--remaining == 0) done.NotifyOne();
    });
  }
  task(0);
  MutexLock lock(mu);
  while (remaining != 0) done.Wait(lock);
}

}  // namespace

Result<ExtractedQuery> ExtractQueryRegions(const ImageF& query_image,
                                           const WalrusParams& params,
                                           QueryTrace* trace) {
  TraceScope extract_span(trace, "extract");
  WALRUS_ASSIGN_OR_RETURN(std::vector<Region> regions,
                          ExtractRegions(query_image, params, nullptr, trace));
  ExtractedQuery extracted;
  extracted.regions = std::move(regions);
  extracted.query_area =
      static_cast<double>(query_image.width()) * query_image.height();
  return extracted;
}

Result<ExtractedQuery> ExtractSceneQueryRegions(const ImageF& query_image,
                                                const PixelRect& scene,
                                                const WalrusParams& params,
                                                QueryTrace* trace) {
  TraceScope extract_span(trace, "extract");
  WALRUS_ASSIGN_OR_RETURN(
      std::vector<Region> regions,
      ExtractSceneRegions(query_image, scene, params, nullptr, trace));
  if (regions.empty()) {
    return Status::InvalidArgument("scene produced no regions");
  }
  // Region bitmaps are image-relative, so the "query area" must be the
  // pixels the scene's windows can actually cover: the union of all scene
  // region bitmaps. With kQueryOnly normalization a perfect match then
  // scores 1 regardless of how small the marked scene is.
  CoverageBitmap coverable(regions[0].bitmap.side());
  for (const Region& region : regions) {
    coverable.UnionWith(region.bitmap);
  }
  double image_area =
      static_cast<double>(query_image.width()) * query_image.height();
  ExtractedQuery extracted;
  extracted.regions = std::move(regions);
  extracted.query_area = image_area * coverable.CoveredFraction();
  return extracted;
}

Result<std::vector<CandidateImage>> ProbeCandidates(
    const WalrusIndex& index, const std::vector<Region>& query_regions,
    const QueryOptions& options, ProbeDiagnostics* diag) {
  static Histogram* const batch_size = MetricsRegistry::Global().GetHistogram(
      "walrus.probe.batch_size", ExponentialBuckets(1, 2, 12));
  const bool use_bbox =
      index.params().signature_kind == RegionSignatureKind::kBoundingBox;
  int64_t regions_retrieved = 0;

  // Every region's envelope goes down ONE shared traversal (Hilbert-ordered
  // active sets, per-node SIMD filtering).
  std::vector<Rect> probes;
  probes.reserve(query_regions.size());
  for (const Region& q : query_regions) {
    probes.push_back(q.IndexRect(use_bbox).Expanded(options.epsilon));
  }
  batch_size->Observe(static_cast<double>(probes.size()));

  std::vector<ProbeHit> hits;
  hits.reserve(256);
  // Records a probe hit after the centroid post-filter. The kernel table is
  // resolved once for the whole probe stage; the inlined distance test
  // matches RegionsMatchCentroid exactly (full ordered sum vs eps^2).
  const simd::KernelTable& kern = simd::Active();
  const double eps2 =
      static_cast<double>(options.epsilon) * options.epsilon;
  const auto accept = [&](int qi, const RectView& rect, uint64_t payload) {
    const Region& q = query_regions[static_cast<size_t>(qi)];
    if (!use_bbox) {
      // Exact Euclidean test on the stored centroid (== rect.lo).
      if (kern.squared_l2_f32(q.centroid.data(), rect.lo,
                              static_cast<int>(q.centroid.size())) > eps2) {
        return true;
      }
    }
    uint64_t image_id;
    uint32_t region_id;
    DecodeRegionPayload(payload, &image_id, &region_id);
    ++regions_retrieved;
    hits.push_back({image_id, {qi, static_cast<int>(region_id)}});
    return true;
  };
  int64_t nodes_visited = 0;
  WALRUS_RETURN_IF_ERROR(index.ProbeRangeBatch(probes, accept, &nodes_visited));

  if (diag != nullptr) {
    diag->regions_retrieved = regions_retrieved;
    diag->nodes_visited = nodes_visited;
  }
  return CanonicalCandidates(std::move(hits));
}

Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
ProbeNearestPerRegion(const WalrusIndex& index,
                      const std::vector<Region>& query_regions, int k,
                      ProbeDiagnostics* diag) {
  int64_t nodes_visited = 0;

  std::vector<std::vector<std::pair<uint64_t, double>>> neighbors;
  neighbors.reserve(query_regions.size());
  for (const Region& q : query_regions) {
    int64_t visited = 0;
    WALRUS_ASSIGN_OR_RETURN(auto found,
                            index.ProbeNearest(q.centroid, k, &visited));
    nodes_visited += visited;
    neighbors.push_back(std::move(found));
  }

  if (diag != nullptr) {
    int64_t retrieved = 0;
    for (const auto& per_region : neighbors) {
      retrieved += static_cast<int64_t>(per_region.size());
    }
    diag->regions_retrieved = retrieved;
    diag->nodes_visited = nodes_visited;
  }
  return neighbors;
}

std::vector<CandidateImage> CandidatesFromNeighbors(
    const std::vector<std::vector<std::pair<uint64_t, double>>>& neighbors) {
  std::vector<ProbeHit> hits;
  for (size_t qi = 0; qi < neighbors.size(); ++qi) {
    for (const auto& [payload, distance] : neighbors[qi]) {
      (void)distance;
      uint64_t image_id;
      uint32_t region_id;
      DecodeRegionPayload(payload, &image_id, &region_id);
      hits.push_back(
          {image_id, {static_cast<int>(qi), static_cast<int>(region_id)}});
    }
  }
  return CanonicalCandidates(std::move(hits));
}

Result<std::vector<QueryMatch>> ScoreCandidates(
    const WalrusIndex& index, const std::vector<Region>& query_regions,
    double query_area, const QueryOptions& options,
    const std::vector<CandidateImage>& candidates) {
  std::vector<QueryMatch> matches;
  matches.reserve(candidates.size());
  std::vector<char> materialized;
  for (const CandidateImage& candidate : candidates) {
    // Paired-only materialization: the matchers dereference only target
    // regions named by the pairs (plus target[0]'s bitmap side), so decoding
    // every region of the candidate would be wasted work. Slot ti holds the
    // region with id ti, as ImageRegions would put it there.
    const ImageRecord* record = index.catalog().FindImage(candidate.image_id);
    if (record == nullptr) {
      return Status::NotFound("image id " +
                              std::to_string(candidate.image_id));
    }
    std::vector<Region> target_regions(record->regions.size());
    materialized.assign(record->regions.size(), 0);
    for (const RegionPair& pair : candidate.pairs) {
      if (!materialized[pair.target_index]) {
        target_regions[pair.target_index] =
            Region::FromRecord(record->regions[pair.target_index]);
        materialized[pair.target_index] = 1;
      }
    }
    if (!record->regions.empty() && !materialized[0]) {
      // The matchers size their union bitmaps from target[0].
      target_regions[0].bitmap =
          CoverageBitmap(static_cast<int>(record->regions[0].bitmap_side));
    }
    const double target_area =
        static_cast<double>(record->width) * record->height;
    // Refined matching phase (section 5.5): re-verify pairs with the more
    // detailed signatures where both sides carry them.
    const std::vector<RegionPair>* pairs = &candidate.pairs;
    std::vector<RegionPair> refined_pairs;
    if (options.use_refinement) {
      refined_pairs.reserve(candidate.pairs.size());
      for (const RegionPair& pair : candidate.pairs) {
        const std::vector<float>& q_ref =
            query_regions[pair.query_index].refined_centroid;
        const std::vector<float>& t_ref =
            target_regions[pair.target_index].refined_centroid;
        if (!q_ref.empty() && q_ref.size() == t_ref.size() &&
            !RegionsMatchCentroid(q_ref.data(), t_ref.data(),
                                  static_cast<int>(q_ref.size()),
                                  options.refined_epsilon)) {
          continue;  // refuted at the finer resolution
        }
        refined_pairs.push_back(pair);
      }
      pairs = &refined_pairs;
    }
    MatchResult result =
        options.matcher == MatcherKind::kGreedy
            ? GreedyMatch(query_regions, target_regions, *pairs, query_area,
                          target_area)
            : QuickMatch(query_regions, target_regions, *pairs, query_area,
                         target_area);
    double similarity = result.SimilarityAs(options.normalization, query_area,
                                            target_area);
    if (similarity < options.tau) continue;
    QueryMatch match;
    match.image_id = candidate.image_id;
    match.similarity = similarity;
    match.matching_pairs = static_cast<int>(pairs->size());
    match.pairs_used = result.pairs_used;
    if (options.collect_pairs) match.pairs = std::move(result.used_pairs);
    matches.push_back(std::move(match));
  }
  return matches;
}

void RankMatches(std::vector<QueryMatch>* matches, int top_k) {
  std::sort(matches->begin(), matches->end(),
            [](const QueryMatch& a, const QueryMatch& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.image_id < b.image_id;
            });
  if (top_k > 0 && static_cast<int>(matches->size()) > top_k) {
    matches->resize(top_k);
  }
}

QueryRun::QueryRun(const QueryOptions& options, QueryStats* stats)
    : options_(options),
      stats_(stats),
      // A trace only when the caller asked for one AND passed a stats sink
      // to carry the spans back.
      trace_(options.collect_trace && stats != nullptr ? &storage_ : nullptr) {}

Status QueryRun::Extract(const ImageF& image, const PixelRect* scene,
                         const WalrusParams& params) {
  WallTimer timer;
  Result<ExtractedQuery> extracted =
      scene == nullptr
          ? ExtractQueryRegions(image, params, trace_)
          : ExtractSceneQueryRegions(image, *scene, params, trace_);
  WALRUS_RETURN_IF_ERROR(extracted.status());
  query_ = std::move(*extracted);
  use_bbox_ = params.signature_kind == RegionSignatureKind::kBoundingBox;
  const double extract_seconds = timer.ElapsedSeconds();
  QueryPathMetrics::Get().extract_seconds->Observe(extract_seconds);
  if (stats_ != nullptr) stats_->extract_seconds = extract_seconds;
  return Status::OK();
}

Result<std::vector<QueryMatch>> QueryRun::Compose(
    const QueryParts& parts, std::vector<int64_t>* part_regions) {
  const std::vector<Region>& regions = query_.regions;
  const size_t n = parts.parts.size();
  WALRUS_CHECK_GE(n, 1u);
  const bool knn = options_.knn_per_region > 0 && !use_bbox_;

  std::vector<PartWork> work(n);
  const auto first_error = [&work]() -> Status {
    for (const PartWork& w : work) WALRUS_RETURN_IF_ERROR(w.status);
    return Status::OK();
  };

  // Phase 1: region matching (section 5.4), one probe per part.
  int64_t regions_retrieved = 0;
  size_t distinct_images = 0;
  double probe_seconds = 0.0;
  {
    TraceScope probe_span(trace_, "probe");
    WallTimer probe_timer;
    FanOut(parts.pool, n, [&](size_t p) {
      ProbePart(parts.parts[p], regions, options_, knn, &work[p]);
    });
    WALRUS_RETURN_IF_ERROR(first_error());
    if (knn) {
      const size_t k = static_cast<size_t>(options_.knn_per_region);
      regions_retrieved = MergeNearest(regions.size(), k, &work);
    }
    for (const PartWork& w : work) {
      if (!knn) regions_retrieved += w.diag.regions_retrieved;
      distinct_images += w.candidates.size();
    }
    probe_seconds = probe_timer.ElapsedSeconds();
  }

  // Phase 2: image matching (section 5.5), each part scoring its own
  // candidates.
  double match_seconds = 0.0;
  {
    TraceScope match_span(trace_, "match");
    WallTimer match_timer;
    FanOut(parts.pool, n, [&](size_t p) {
      PartWork& w = work[p];
      if (w.candidates.empty()) return;
      auto scored = ScoreCandidates(*parts.parts[p].index, regions,
                                    query_.query_area, options_, w.candidates);
      if (!scored.ok()) {
        w.status = scored.status();
        return;
      }
      w.matches = std::move(*scored);
    });
    match_seconds = match_timer.ElapsedSeconds();
  }
  WALRUS_RETURN_IF_ERROR(first_error());

  // Phase 3: parts hold disjoint images, so their matches concatenate
  // without collisions; the rank is a total order over the union.
  std::vector<QueryMatch> matches;
  double rank_seconds = 0.0;
  {
    TraceScope rank_span(trace_, "rank");
    WallTimer rank_timer;
    size_t total = 0;
    for (const PartWork& w : work) total += w.matches.size();
    matches.reserve(total);
    for (PartWork& w : work) {
      matches.insert(matches.end(), std::make_move_iterator(w.matches.begin()),
                     std::make_move_iterator(w.matches.end()));
    }
    RankMatches(&matches, options_.top_k);
    rank_seconds = rank_timer.ElapsedSeconds();
  }

  ProbeDiagnostics total;
  if (part_regions != nullptr) part_regions->assign(n, 0);
  for (size_t p = 0; p < n; ++p) {
    const ProbeDiagnostics& diag = work[p].diag;
    total.nodes_visited += diag.nodes_visited;
    if (part_regions != nullptr) (*part_regions)[p] = diag.regions_retrieved;
  }

  const double seconds = timer_.ElapsedSeconds();
  const QueryPathMetrics& metrics = QueryPathMetrics::Get();
  metrics.queries->Increment();
  metrics.regions_retrieved->Increment(
      static_cast<uint64_t>(regions_retrieved));
  metrics.candidate_images->Increment(distinct_images);
  metrics.seconds->Observe(seconds);
  metrics.probe_seconds->Observe(probe_seconds);
  metrics.match_seconds->Observe(match_seconds);

  if (stats_ != nullptr) {
    stats_->query_regions = static_cast<int>(regions.size());
    stats_->regions_retrieved = regions_retrieved;
    stats_->avg_regions_per_query_region =
        regions.empty()
            ? 0.0
            : static_cast<double>(regions_retrieved) / regions.size();
    stats_->distinct_images = static_cast<int>(distinct_images);
    stats_->seconds = seconds;
    stats_->probe_seconds = probe_seconds;
    stats_->match_seconds = match_seconds;
    stats_->rank_seconds = rank_seconds;
    stats_->nodes_visited = total.nodes_visited;
    if (trace_ != nullptr) stats_->spans = trace_->TakeSpans();
  }
  return matches;
}

Result<std::vector<QueryMatch>> QueryEngine::RunQuery(
    const ImageF& query_image, const QueryOptions& options,
    QueryStats* stats) const {
  return RunAnyQuery(query_image, nullptr, options, stats);
}

Result<std::vector<QueryMatch>> QueryEngine::RunSceneQuery(
    const ImageF& query_image, const PixelRect& scene,
    const QueryOptions& options, QueryStats* stats) const {
  return RunAnyQuery(query_image, &scene, options, stats);
}

Result<std::vector<QueryMatch>> QueryEngine::RunAnyQuery(
    const ImageF& query_image, const PixelRect* scene,
    const QueryOptions& options, QueryStats* stats) const {
  QueryRun run(options, stats);
  WALRUS_RETURN_IF_ERROR(run.Extract(query_image, scene, params()));
  return ComposeParts(&run);
}

Result<std::vector<QueryMatch>> SingleIndexEngine::ComposeParts(
    QueryRun* run) const {
  QueryParts parts;
  parts.parts.push_back({&index_});
  return run->Compose(parts);
}

Result<std::vector<QueryMatch>> ExecuteQuery(const WalrusIndex& index,
                                             const ImageF& query_image,
                                             const QueryOptions& options,
                                             QueryStats* stats) {
  return SingleIndexEngine(index).RunQuery(query_image, options, stats);
}

Result<std::vector<QueryMatch>> ExecuteSceneQuery(const WalrusIndex& index,
                                                  const ImageF& query_image,
                                                  const PixelRect& scene,
                                                  const QueryOptions& options,
                                                  QueryStats* stats) {
  return SingleIndexEngine(index).RunSceneQuery(query_image, scene, options,
                                                stats);
}

Result<std::vector<std::vector<QueryMatch>>> ExecuteQueryBatch(
    const QueryEngine& engine, const std::vector<ImageF>& queries,
    const QueryOptions& options, int num_threads) {
  std::vector<std::vector<QueryMatch>> results(queries.size());
  if (queries.empty()) return results;
  if (num_threads <= 0) num_threads = ThreadPool::DefaultThreads();
  num_threads = std::min<int>(num_threads, static_cast<int>(queries.size()));

  std::vector<std::unique_ptr<Result<std::vector<QueryMatch>>>> slots(
      queries.size());
  {
    ThreadPool pool(num_threads);
    pool.ParallelFor(static_cast<int>(queries.size()), [&](int i) {
      slots[i] = std::make_unique<Result<std::vector<QueryMatch>>>(
          engine.RunQuery(queries[i], options, nullptr));
    });
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i]->ok()) {
      // Name the failing query: a caller batching hundreds of images needs
      // to know which one to drop or retry, not just that "one" failed.
      return Annotate(slots[i]->status(),
                      "query " + std::to_string(i) + " of " +
                          std::to_string(queries.size()));
    }
    results[i] = std::move(*slots[i]).value();
  }
  return results;
}

Result<std::vector<std::vector<QueryMatch>>> ExecuteQueryBatch(
    const WalrusIndex& index, const std::vector<ImageF>& queries,
    const QueryOptions& options, int num_threads) {
  SingleIndexEngine engine(index);
  return ExecuteQueryBatch(engine, queries, options, num_threads);
}

}  // namespace walrus
