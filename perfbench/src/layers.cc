#include "layers.h"

#include <cstdio>

#include "common/crc32.h"
#include "common/serialize.h"
#include "core/query_pipeline.h"
#include "core/region_extractor.h"
#include "core/signature.h"
#include "server/protocol.h"

namespace perfbench {

walrus::Result<std::vector<walrus::QueryMatch>> StagedQuery(
    const walrus::WalrusIndex& index, const walrus::ImageF& image,
    const walrus::QueryOptions& options, const TraceCtx& ctx) {
  const walrus::WalrusParams& params = index.params();
  {
    walrus::Result<walrus::WindowSignatureSet> windows =
        walrus::Status::Internal("unset");
    {
      SpanScope span(ctx.log, ctx.buffer, ctx.op, ctx.parent, "wavelet");
      windows = walrus::ComputeWindowSignatures(image, params);
      if (windows.ok()) span.Count("windows", windows->Count());
    }
    if (!windows.ok()) return windows.status();
    SpanScope span(ctx.log, ctx.buffer, ctx.op, ctx.parent, "cluster");
    std::vector<walrus::Region> regions = walrus::ExtractRegionsFromWindows(
        *windows, image.width(), image.height(), params);
    span.Count("regions", static_cast<double>(regions.size()));
  }

  walrus::Result<walrus::ExtractedQuery> extracted =
      walrus::Status::Internal("unset");
  {
    SpanScope span(ctx.log, ctx.buffer, ctx.op, ctx.parent, "extract");
    extracted = walrus::ExtractQueryRegions(image, params);
  }
  if (!extracted.ok()) return extracted.status();

  std::vector<walrus::CandidateImage> candidates;
  {
    SpanScope span(ctx.log, ctx.buffer, ctx.op, ctx.parent, "probe");
    walrus::ProbeDiagnostics diag;
    if (options.knn_per_region > 0) {
      auto neighbors = walrus::ProbeNearestPerRegion(
          index, extracted->regions, options.knn_per_region, &diag);
      if (!neighbors.ok()) return neighbors.status();
      candidates = walrus::CandidatesFromNeighbors(*neighbors);
    } else {
      auto probed =
          walrus::ProbeCandidates(index, extracted->regions, options, &diag);
      if (!probed.ok()) return probed.status();
      candidates = std::move(*probed);
    }
    span.Count("regions_retrieved", static_cast<double>(diag.regions_retrieved));
    span.Count("nodes_visited", static_cast<double>(diag.nodes_visited));
    span.Count("pages_read", static_cast<double>(diag.pages_read));
    span.Count("cache_hits", static_cast<double>(diag.cache_hits));
    span.Count("cache_misses", static_cast<double>(diag.cache_misses));
    span.Count("candidate_images", static_cast<double>(candidates.size()));
  }

  walrus::Result<std::vector<walrus::QueryMatch>> matches =
      walrus::Status::Internal("unset");
  {
    SpanScope span(ctx.log, ctx.buffer, ctx.op, ctx.parent, "match");
    matches = walrus::ScoreCandidates(index, extracted->regions,
                                      extracted->query_area, options,
                                      candidates);
    if (matches.ok()) {
      double pairs = 0.0;
      for (const walrus::CandidateImage& c : candidates) pairs += c.pairs.size();
      span.Count("candidates", static_cast<double>(candidates.size()));
      span.Count("pairs", pairs);
      span.Count("survivors", static_cast<double>(matches->size()));
    }
  }
  if (!matches.ok()) return matches.status();
  {
    SpanScope span(ctx.log, ctx.buffer, ctx.op, ctx.parent, "rank");
    walrus::RankMatches(&*matches, options.top_k);
  }
  return matches;
}

walrus::Status ReplayCodec(const walrus::ImageF& image,
                           const walrus::QueryOptions& options,
                           const std::vector<walrus::QueryMatch>& matches,
                           const TraceCtx& ctx) {
  std::vector<uint8_t> body;
  {
    SpanScope span(ctx.log, ctx.buffer, ctx.op, ctx.parent, "encode");
    walrus::BinaryWriter writer;
    walrus::EncodeQueryOptions(options, &writer);
    walrus::EncodeImage(image, &writer);
    body = writer.TakeBuffer();
    span.Count("bytes", static_cast<double>(body.size() +
                                            walrus::kFrameHeaderBytes +
                                            walrus::kFrameTrailerBytes));
  }
  std::vector<uint8_t> frame =
      walrus::EncodeFrame(walrus::Opcode::kQuery, 1, body);
  uint32_t crc = 0;
  {
    SpanScope span(ctx.log, ctx.buffer, ctx.op, ctx.parent, "crc");
    crc = walrus::Crc32(frame.data(),
                        frame.size() - walrus::kFrameTrailerBytes);
  }
  uint32_t stored = 0;
  for (size_t i = 0; i < walrus::kFrameTrailerBytes; ++i) {
    stored |= static_cast<uint32_t>(
                  frame[frame.size() - walrus::kFrameTrailerBytes + i])
              << (8 * i);
  }
  if (crc != stored) return walrus::Status::Internal("codec replay: CRC");

  walrus::Result<walrus::ImageF> decoded = walrus::Status::Internal("unset");
  {
    SpanScope span(ctx.log, ctx.buffer, ctx.op, ctx.parent, "decode");
    walrus::BinaryReader reader(body);
    auto decoded_options = walrus::DecodeQueryOptions(&reader);
    if (!decoded_options.ok()) return decoded_options.status();
    decoded = walrus::DecodeImage(&reader);
  }
  if (!decoded.ok()) return decoded.status();
  if (decoded->width() != image.width() ||
      decoded->height() != image.height() ||
      decoded->channels() != image.channels()) {
    return walrus::Status::Internal("codec replay: image shape");
  }

  walrus::Result<std::vector<walrus::QueryMatch>> round =
      walrus::Status::Internal("unset");
  {
    SpanScope span(ctx.log, ctx.buffer, ctx.op, ctx.parent, "response");
    walrus::BinaryWriter writer;
    walrus::EncodeMatches(matches, &writer);
    walrus::BinaryReader reader(writer.buffer());
    round = walrus::DecodeMatches(&reader);
  }
  if (!round.ok()) return round.status();
  if (!SameRanking(*round, matches)) {
    return walrus::Status::Internal("codec replay: matches");
  }
  return walrus::Status::OK();
}

std::map<uint64_t, std::map<std::string, double>> MicrosByOp(
    const std::vector<Span>& spans) {
  std::map<uint64_t, std::map<std::string, double>> by_op;
  for (const Span& s : spans) by_op[s.op][s.name] += s.Micros();
  return by_op;
}

double MeanResidualMicros(
    const std::map<uint64_t, std::map<std::string, double>>& by_op,
    const std::string& total, const std::vector<std::string>& parts) {
  double sum = 0.0;
  size_t ops = 0;
  for (const auto& [op, stages] : by_op) {
    auto it = stages.find(total);
    if (it == stages.end()) continue;
    double residual = it->second;
    bool complete = true;
    for (const std::string& part : parts) {
      auto p = stages.find(part);
      complete = complete && p != stages.end();
      if (p != stages.end()) residual -= p->second;
    }
    if (!complete) continue;
    sum += residual;
    ++ops;
  }
  return ops == 0 ? 0.0 : sum / static_cast<double>(ops);
}

void ReportQueryLayers(const std::vector<Span>& spans, RunResult* result) {
  std::map<std::string, SpanTotals> t = AggregateSpans(spans);
  auto us = [&](const char* name) { return t[name].MeanMicros(); };

  result->Layer("server.request_bytes", t["encode"].MeanCount("bytes"),
                "bytes");
  result->Layer("server.encode_us", us("encode"), "us");
  result->Layer("server.crc_us", us("crc"), "us");
  result->Layer("server.decode_us", us("decode"), "us");
  result->Layer("server.response_us", us("response"), "us");

  result->Layer("wavelet.us", us("wavelet"), "us");
  result->Layer("wavelet.windows", t["wavelet"].MeanCount("windows"),
                "count");
  result->Layer("cluster.us", us("cluster"), "us");
  result->Layer("cluster.regions", t["cluster"].MeanCount("regions"),
                "count");
  result->Layer("extract.us", us("extract"), "us");

  const SpanTotals& probe = t["probe"];
  const double retrieved = probe.SumCount("regions_retrieved");
  const double nodes =
      probe.SumCount("nodes_visited") + probe.SumCount("pages_read");
  const double page_accesses =
      probe.SumCount("cache_hits") + probe.SumCount("cache_misses");
  result->Layer("probe.us", probe.MeanMicros(), "us");
  result->Layer("probe.regions_retrieved",
                probe.MeanCount("regions_retrieved"), "count");
  result->Layer("probe.candidate_images", probe.MeanCount("candidate_images"),
                "count");
  result->Layer("probe.nodes_visited", probe.MeanCount("nodes_visited"),
                "count");
  result->Layer("probe.pages_read", probe.MeanCount("pages_read"), "count");
  // An in-memory tree reads no pages: every node access is a hit.
  result->Layer("probe.page_hit_ratio",
                page_accesses == 0.0
                    ? 1.0
                    : probe.SumCount("cache_hits") / page_accesses,
                "ratio");
  result->Layer("probe.retrieved_per_node",
                nodes == 0.0 ? 0.0 : retrieved / nodes, "count");

  const SpanTotals& match = t["match"];
  const double candidates = match.SumCount("candidates");
  result->Layer("match.us", match.MeanMicros(), "us");
  result->Layer("match.candidates", match.MeanCount("candidates"), "count");
  result->Layer("match.pairs", match.MeanCount("pairs"), "count");
  result->Layer("match.survivor_ratio",
                candidates == 0.0 ? 0.0
                                  : match.SumCount("survivors") / candidates,
                "ratio");
  result->Layer("rank.us", us("rank"), "us");
}

void NoteLayer(RunResult* result, const std::string& name, double value,
               const std::string& unit) {
  char line[160];
  std::snprintf(line, sizeof(line), "layer %-28s %14.4f %s", name.c_str(),
                value, unit.c_str());
  result->Note(line);
}

}  // namespace perfbench
