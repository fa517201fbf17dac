#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// The traced replay: the query pipeline and the wire codec run call by
// call through each layer's public functions, each call inside a span, so
// per-layer time and work counts come from the benchmark's own code.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/query.h"
#include "harness.h"

namespace perfbench {

/// Open-loop workloads replay the layers for one op in this many, which
/// keeps a traced run's load close to an untraced one's.
inline constexpr uint64_t kReplayEvery = 4;

/// Where one traced call records its span.
struct TraceCtx {
  SpanLog* log = nullptr;
  SpanLog::Buffer* buffer = nullptr;
  uint64_t op = 0;
  uint64_t parent = 0;

  TraceCtx Child(uint64_t span_id) const {
    return TraceCtx{log, buffer, op, span_id};
  }
};

/// Runs the query pipeline stage by stage against `index`, one span per
/// layer call: wavelet (ComputeWindowSignatures) and cluster
/// (ExtractRegionsFromWindows) replay the two halves of extraction,
/// extract (ExtractQueryRegions) produces the regions the later stages
/// use, then probe (ProbeCandidates, or ProbeNearestPerRegion +
/// CandidatesFromNeighbors in kNN mode), match (ScoreCandidates) and rank
/// (RankMatches). The ranking equals ExecuteQuery's.
walrus::Result<std::vector<walrus::QueryMatch>> StagedQuery(
    const walrus::WalrusIndex& index, const walrus::ImageF& image,
    const walrus::QueryOptions& options, const TraceCtx& ctx);

/// Replays the wire codec work of one QUERY round trip: encode
/// (EncodeQueryOptions + EncodeImage), crc (Crc32 over the request frame),
/// decode (DecodeQueryOptions + DecodeImage) and response (EncodeMatches +
/// DecodeMatches). Fails when a decode does not give back its input.
walrus::Status ReplayCodec(const walrus::ImageF& image,
                           const walrus::QueryOptions& options,
                           const std::vector<walrus::QueryMatch>& matches,
                           const TraceCtx& ctx);

/// Span durations (us) per op and span name.
std::map<uint64_t, std::map<std::string, double>> MicrosByOp(
    const std::vector<Span>& spans);

/// Mean over the ops that have a span named `total` and one for every part
/// of total - sum(parts), where a part named twice in `parts` counts twice.
double MeanResidualMicros(
    const std::map<uint64_t, std::map<std::string, double>>& by_op,
    const std::string& total, const std::vector<std::string>& parts);

/// The per-layer metrics every workload reports in a traced run (the
/// per_layer list of BENCHMARK.json), computed from the run's spans.
void ReportQueryLayers(const std::vector<Span>& spans, RunResult* result);

/// Adds a per-layer figure that only some workloads have as a report line
/// (it is not part of the JSON metrics).
void NoteLayer(RunResult* result, const std::string& name, double value,
               const std::string& unit);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
