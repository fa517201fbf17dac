#include "server/protocol.h"

#include "common/crc32.h"

namespace walrus {
namespace {

uint32_t ReadU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t ReadU64Le(const uint8_t* p) {
  return static_cast<uint64_t>(ReadU32Le(p)) |
         static_cast<uint64_t>(ReadU32Le(p + 4)) << 32;
}

}  // namespace

const char* OpcodeName(Opcode opcode) {
  switch (opcode) {
    case Opcode::kPing:
      return "PING";
    case Opcode::kQuery:
      return "QUERY";
    case Opcode::kSceneQuery:
      return "SCENE_QUERY";
    case Opcode::kStats:
      return "STATS";
    case Opcode::kShutdown:
      return "SHUTDOWN";
    case Opcode::kMetrics:
      return "METRICS";
    case Opcode::kInsertImage:
      return "INSERT_IMAGE";
    case Opcode::kDeleteImage:
      return "DELETE_IMAGE";
  }
  return "UNKNOWN";
}

std::vector<uint8_t> EncodeFrame(Opcode opcode, uint64_t request_id,
                                 const std::vector<uint8_t>& body) {
  BinaryWriter writer;
  writer.PutU32(kProtocolMagic);
  writer.PutU8(kProtocolVersion);
  writer.PutU8(static_cast<uint8_t>(opcode));
  writer.PutU16(0);  // reserved
  writer.PutU64(request_id);
  writer.PutU32(static_cast<uint32_t>(body.size()));
  if (!body.empty()) writer.PutBytes(body.data(), body.size());
  std::vector<uint8_t> frame = writer.TakeBuffer();
  uint32_t crc = Crc32(frame.data(), frame.size());
  frame.push_back(static_cast<uint8_t>(crc));
  frame.push_back(static_cast<uint8_t>(crc >> 8));
  frame.push_back(static_cast<uint8_t>(crc >> 16));
  frame.push_back(static_cast<uint8_t>(crc >> 24));
  return frame;
}

FrameParts MakeFrameParts(Opcode opcode, uint64_t request_id,
                          std::vector<std::vector<uint8_t>> body_chunks) {
  FrameParts parts;
  parts.body = std::move(body_chunks);
  size_t body_bytes = 0;
  for (const std::vector<uint8_t>& chunk : parts.body) {
    body_bytes += chunk.size();
  }

  uint8_t* h = parts.header.data();
  h[0] = static_cast<uint8_t>(kProtocolMagic);
  h[1] = static_cast<uint8_t>(kProtocolMagic >> 8);
  h[2] = static_cast<uint8_t>(kProtocolMagic >> 16);
  h[3] = static_cast<uint8_t>(kProtocolMagic >> 24);
  h[4] = kProtocolVersion;
  h[5] = static_cast<uint8_t>(opcode);
  h[6] = 0;  // reserved
  h[7] = 0;
  for (int i = 0; i < 8; ++i) {
    h[8 + i] = static_cast<uint8_t>(request_id >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    h[16 + i] = static_cast<uint8_t>(body_bytes >> (8 * i));
  }

  uint32_t crc = Crc32Extend(0, parts.header.data(), kFrameHeaderBytes);
  for (const std::vector<uint8_t>& chunk : parts.body) {
    crc = Crc32Extend(crc, chunk.data(), chunk.size());
  }
  for (int i = 0; i < 4; ++i) {
    parts.trailer[i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return parts;
}

Status DecodeFrameHeader(const uint8_t* data, FrameHeader* out) {
  if (ReadU32Le(data) != kProtocolMagic) {
    return Status::Corruption("frame: bad magic");
  }
  out->version = data[4];
  out->opcode = static_cast<Opcode>(data[5]);
  out->request_id = ReadU64Le(data + 8);
  out->body_length = ReadU32Le(data + 16);
  if (out->version != kProtocolVersion) {
    return Status::InvalidArgument("frame: unsupported protocol version " +
                                   std::to_string(out->version));
  }
  if (out->body_length > kMaxBodyBytes) {
    return Status::InvalidArgument("frame: body length " +
                                   std::to_string(out->body_length) +
                                   " exceeds limit");
  }
  return Status::OK();
}

uint32_t FrameCrc(const uint8_t* header, const std::vector<uint8_t>& body) {
  uint32_t crc = Crc32Extend(0, header, kFrameHeaderBytes);
  return Crc32Extend(crc, body.data(), body.size());
}

void EncodeResponseStatus(const Status& status, BinaryWriter* writer) {
  writer->PutU8(static_cast<uint8_t>(status.code()));
  writer->PutString(status.message());
}

Status DecodeResponseStatus(BinaryReader* reader, Status* remote) {
  WALRUS_ASSIGN_OR_RETURN(uint8_t code, reader->GetU8());
  if (code >= kNumStatusCodes) {
    return Status::Corruption("response: unknown status code " +
                              std::to_string(code));
  }
  WALRUS_ASSIGN_OR_RETURN(std::string message, reader->GetString());
  *remote = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

void EncodeQueryOptions(const QueryOptions& options, BinaryWriter* writer) {
  writer->PutFloat(options.epsilon);
  writer->PutDouble(options.tau);
  writer->PutU8(static_cast<uint8_t>(options.matcher));
  writer->PutU8(static_cast<uint8_t>(options.normalization));
  writer->PutI32(options.knn_per_region);
  writer->PutU8(options.use_refinement ? 1 : 0);
  writer->PutFloat(options.refined_epsilon);
  writer->PutI32(options.top_k);
  writer->PutU8(options.collect_pairs ? 1 : 0);
  writer->PutU8(options.collect_trace ? 1 : 0);
}

Result<QueryOptions> DecodeQueryOptions(BinaryReader* reader) {
  QueryOptions options;
  WALRUS_ASSIGN_OR_RETURN(options.epsilon, reader->GetFloat());
  WALRUS_ASSIGN_OR_RETURN(options.tau, reader->GetDouble());
  WALRUS_ASSIGN_OR_RETURN(uint8_t matcher, reader->GetU8());
  if (matcher > static_cast<uint8_t>(MatcherKind::kGreedy)) {
    return Status::InvalidArgument("options: unknown matcher " +
                                   std::to_string(matcher));
  }
  options.matcher = static_cast<MatcherKind>(matcher);
  WALRUS_ASSIGN_OR_RETURN(uint8_t norm, reader->GetU8());
  if (norm > static_cast<uint8_t>(SimilarityNormalization::kSmallerImage)) {
    return Status::InvalidArgument("options: unknown normalization " +
                                   std::to_string(norm));
  }
  options.normalization = static_cast<SimilarityNormalization>(norm);
  WALRUS_ASSIGN_OR_RETURN(options.knn_per_region, reader->GetI32());
  WALRUS_ASSIGN_OR_RETURN(uint8_t refine, reader->GetU8());
  options.use_refinement = refine != 0;
  WALRUS_ASSIGN_OR_RETURN(options.refined_epsilon, reader->GetFloat());
  WALRUS_ASSIGN_OR_RETURN(options.top_k, reader->GetI32());
  WALRUS_ASSIGN_OR_RETURN(uint8_t pairs, reader->GetU8());
  options.collect_pairs = pairs != 0;
  WALRUS_ASSIGN_OR_RETURN(uint8_t trace, reader->GetU8());
  options.collect_trace = trace != 0;
  return options;
}

void EncodeImage(const ImageF& image, BinaryWriter* writer) {
  writer->PutU32(static_cast<uint32_t>(image.width()));
  writer->PutU32(static_cast<uint32_t>(image.height()));
  writer->PutU32(static_cast<uint32_t>(image.channels()));
  writer->PutU8(static_cast<uint8_t>(image.color_space()));
  for (int c = 0; c < image.channels(); ++c) {
    writer->PutFloatVector(image.Plane(c));
  }
}

Result<ImageF> DecodeImage(BinaryReader* reader) {
  WALRUS_ASSIGN_OR_RETURN(uint32_t width, reader->GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint32_t height, reader->GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint32_t channels, reader->GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint8_t cs, reader->GetU8());
  if (width == 0 || height == 0 || width > kMaxImageSide ||
      height > kMaxImageSide) {
    return Status::InvalidArgument("image: bad dimensions " +
                                   std::to_string(width) + "x" +
                                   std::to_string(height));
  }
  if (channels == 0 || channels > 4) {
    return Status::InvalidArgument("image: bad channel count " +
                                   std::to_string(channels));
  }
  if (cs > static_cast<uint8_t>(ColorSpace::kHSV)) {
    return Status::InvalidArgument("image: unknown color space " +
                                   std::to_string(cs));
  }
  // Each plane costs width*height*4 bytes on the wire; refuse before
  // allocating when the buffer cannot possibly hold it.
  uint64_t plane_bytes = static_cast<uint64_t>(width) * height * 4;
  if (plane_bytes * channels > reader->remaining()) {
    return Status::Corruption("image: truncated planes");
  }
  ImageF image(static_cast<int>(width), static_cast<int>(height),
               static_cast<int>(channels), static_cast<ColorSpace>(cs));
  for (uint32_t c = 0; c < channels; ++c) {
    WALRUS_ASSIGN_OR_RETURN(std::vector<float> plane,
                            reader->GetFloatVector());
    if (plane.size() != static_cast<size_t>(width) * height) {
      return Status::Corruption("image: plane size mismatch");
    }
    image.Plane(static_cast<int>(c)) = std::move(plane);
  }
  return image;
}

void EncodePixelRect(const PixelRect& rect, BinaryWriter* writer) {
  writer->PutI32(rect.x);
  writer->PutI32(rect.y);
  writer->PutI32(rect.width);
  writer->PutI32(rect.height);
}

Result<PixelRect> DecodePixelRect(BinaryReader* reader) {
  PixelRect rect;
  WALRUS_ASSIGN_OR_RETURN(rect.x, reader->GetI32());
  WALRUS_ASSIGN_OR_RETURN(rect.y, reader->GetI32());
  WALRUS_ASSIGN_OR_RETURN(rect.width, reader->GetI32());
  WALRUS_ASSIGN_OR_RETURN(rect.height, reader->GetI32());
  return rect;
}

void EncodeMatches(const std::vector<QueryMatch>& matches,
                   BinaryWriter* writer) {
  writer->PutU32(static_cast<uint32_t>(matches.size()));
  for (const QueryMatch& m : matches) {
    writer->PutU64(m.image_id);
    writer->PutDouble(m.similarity);
    writer->PutI32(m.matching_pairs);
    writer->PutI32(m.pairs_used);
    writer->PutU32(static_cast<uint32_t>(m.pairs.size()));
    for (const RegionPair& pair : m.pairs) {
      writer->PutI32(pair.query_index);
      writer->PutI32(pair.target_index);
    }
  }
}

Result<std::vector<QueryMatch>> DecodeMatches(BinaryReader* reader) {
  WALRUS_ASSIGN_OR_RETURN(uint32_t count, reader->GetU32());
  // Each match is >= 24 bytes on the wire; a count that implies more data
  // than remains is corruption, not an allocation request.
  if (static_cast<uint64_t>(count) * 24 > reader->remaining()) {
    return Status::Corruption("matches: truncated list");
  }
  std::vector<QueryMatch> matches;
  matches.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    QueryMatch m;
    WALRUS_ASSIGN_OR_RETURN(m.image_id, reader->GetU64());
    WALRUS_ASSIGN_OR_RETURN(m.similarity, reader->GetDouble());
    WALRUS_ASSIGN_OR_RETURN(m.matching_pairs, reader->GetI32());
    WALRUS_ASSIGN_OR_RETURN(m.pairs_used, reader->GetI32());
    WALRUS_ASSIGN_OR_RETURN(uint32_t pair_count, reader->GetU32());
    if (static_cast<uint64_t>(pair_count) * 8 > reader->remaining()) {
      return Status::Corruption("matches: truncated pair list");
    }
    m.pairs.reserve(pair_count);
    for (uint32_t p = 0; p < pair_count; ++p) {
      RegionPair pair;
      WALRUS_ASSIGN_OR_RETURN(pair.query_index, reader->GetI32());
      WALRUS_ASSIGN_OR_RETURN(pair.target_index, reader->GetI32());
      m.pairs.push_back(pair);
    }
    matches.push_back(std::move(m));
  }
  return matches;
}

void EncodeQueryStats(const QueryStats& stats, BinaryWriter* writer) {
  writer->PutI32(stats.query_regions);
  writer->PutI64(stats.regions_retrieved);
  writer->PutDouble(stats.avg_regions_per_query_region);
  writer->PutI32(stats.distinct_images);
  writer->PutDouble(stats.seconds);
  writer->PutDouble(stats.extract_seconds);
  writer->PutDouble(stats.probe_seconds);
  writer->PutDouble(stats.match_seconds);
  writer->PutDouble(stats.rank_seconds);
  writer->PutI64(stats.nodes_visited);
  EncodeTraceSpans(stats.spans, writer);
}

Result<QueryStats> DecodeQueryStats(BinaryReader* reader) {
  QueryStats stats;
  WALRUS_ASSIGN_OR_RETURN(stats.query_regions, reader->GetI32());
  WALRUS_ASSIGN_OR_RETURN(stats.regions_retrieved, reader->GetI64());
  WALRUS_ASSIGN_OR_RETURN(stats.avg_regions_per_query_region,
                          reader->GetDouble());
  WALRUS_ASSIGN_OR_RETURN(stats.distinct_images, reader->GetI32());
  WALRUS_ASSIGN_OR_RETURN(stats.seconds, reader->GetDouble());
  WALRUS_ASSIGN_OR_RETURN(stats.extract_seconds, reader->GetDouble());
  WALRUS_ASSIGN_OR_RETURN(stats.probe_seconds, reader->GetDouble());
  WALRUS_ASSIGN_OR_RETURN(stats.match_seconds, reader->GetDouble());
  WALRUS_ASSIGN_OR_RETURN(stats.rank_seconds, reader->GetDouble());
  WALRUS_ASSIGN_OR_RETURN(stats.nodes_visited, reader->GetI64());
  WALRUS_ASSIGN_OR_RETURN(stats.spans, DecodeTraceSpans(reader));
  return stats;
}

namespace {

void EncodeSpanList(const std::vector<TraceSpan>& spans,
                    BinaryWriter* writer) {
  writer->PutU32(static_cast<uint32_t>(spans.size()));
  for (const TraceSpan& span : spans) {
    writer->PutString(span.name);
    writer->PutDouble(span.start_seconds);
    writer->PutDouble(span.duration_seconds);
    EncodeSpanList(span.children, writer);
  }
}

Result<std::vector<TraceSpan>> DecodeSpanList(BinaryReader* reader,
                                              int depth) {
  if (depth > kMaxTraceDepth) {
    return Status::Corruption("trace: span nesting exceeds depth limit");
  }
  WALRUS_ASSIGN_OR_RETURN(uint32_t count, reader->GetU32());
  // Each span is >= 24 bytes on the wire (name length + two doubles +
  // child count); refuse impossible counts before reserving.
  if (static_cast<uint64_t>(count) * 24 > reader->remaining()) {
    return Status::Corruption("trace: truncated span list");
  }
  std::vector<TraceSpan> spans;
  spans.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    TraceSpan span;
    WALRUS_ASSIGN_OR_RETURN(span.name, reader->GetString());
    WALRUS_ASSIGN_OR_RETURN(span.start_seconds, reader->GetDouble());
    WALRUS_ASSIGN_OR_RETURN(span.duration_seconds, reader->GetDouble());
    WALRUS_ASSIGN_OR_RETURN(span.children, DecodeSpanList(reader, depth + 1));
    spans.push_back(std::move(span));
  }
  return spans;
}

}  // namespace

void EncodeTraceSpans(const std::vector<TraceSpan>& spans,
                      BinaryWriter* writer) {
  EncodeSpanList(spans, writer);
}

Result<std::vector<TraceSpan>> DecodeTraceSpans(BinaryReader* reader) {
  return DecodeSpanList(reader, 0);
}

void EncodeMetricsSnapshot(const MetricsSnapshot& snapshot,
                           BinaryWriter* writer) {
  writer->PutU32(static_cast<uint32_t>(snapshot.metrics.size()));
  for (const MetricValue& m : snapshot.metrics) {
    writer->PutString(m.name);
    writer->PutU8(static_cast<uint8_t>(m.type));
    switch (m.type) {
      case MetricType::kCounter:
        writer->PutU64(m.counter);
        break;
      case MetricType::kGauge:
        writer->PutI64(m.gauge);
        break;
      case MetricType::kHistogram:
        writer->PutU32(static_cast<uint32_t>(m.bounds.size()));
        for (double b : m.bounds) writer->PutDouble(b);
        for (uint64_t c : m.bucket_counts) writer->PutU64(c);
        writer->PutU64(m.count);
        writer->PutDouble(m.sum);
        break;
    }
  }
}

Result<MetricsSnapshot> DecodeMetricsSnapshot(BinaryReader* reader) {
  WALRUS_ASSIGN_OR_RETURN(uint32_t count, reader->GetU32());
  // Each metric is >= 13 bytes (name length + type + smallest value).
  if (static_cast<uint64_t>(count) * 13 > reader->remaining()) {
    return Status::Corruption("metrics: truncated snapshot");
  }
  MetricsSnapshot snapshot;
  snapshot.metrics.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    MetricValue m;
    WALRUS_ASSIGN_OR_RETURN(m.name, reader->GetString());
    WALRUS_ASSIGN_OR_RETURN(uint8_t type, reader->GetU8());
    if (type > static_cast<uint8_t>(MetricType::kHistogram)) {
      return Status::Corruption("metrics: unknown metric type " +
                                std::to_string(type));
    }
    m.type = static_cast<MetricType>(type);
    switch (m.type) {
      case MetricType::kCounter: {
        WALRUS_ASSIGN_OR_RETURN(m.counter, reader->GetU64());
        break;
      }
      case MetricType::kGauge: {
        WALRUS_ASSIGN_OR_RETURN(m.gauge, reader->GetI64());
        break;
      }
      case MetricType::kHistogram: {
        WALRUS_ASSIGN_OR_RETURN(uint32_t num_bounds, reader->GetU32());
        // bounds doubles + (bounds + 1) count u64s must still fit.
        uint64_t needed = static_cast<uint64_t>(num_bounds) * 16 + 8;
        if (needed > reader->remaining()) {
          return Status::Corruption("metrics: truncated histogram");
        }
        m.bounds.reserve(num_bounds);
        for (uint32_t b = 0; b < num_bounds; ++b) {
          WALRUS_ASSIGN_OR_RETURN(double bound, reader->GetDouble());
          m.bounds.push_back(bound);
        }
        m.bucket_counts.reserve(num_bounds + 1);
        for (uint32_t b = 0; b < num_bounds + 1; ++b) {
          WALRUS_ASSIGN_OR_RETURN(uint64_t c, reader->GetU64());
          m.bucket_counts.push_back(c);
        }
        WALRUS_ASSIGN_OR_RETURN(m.count, reader->GetU64());
        WALRUS_ASSIGN_OR_RETURN(m.sum, reader->GetDouble());
        break;
      }
    }
    snapshot.metrics.push_back(std::move(m));
  }
  return snapshot;
}

void EncodeServerStats(const ServerStats& stats, BinaryWriter* writer) {
  writer->PutU32(kNumOpcodes);
  for (uint64_t count : stats.requests_by_opcode) writer->PutU64(count);
  writer->PutU64(stats.rejected_overload);
  writer->PutU64(stats.deadline_exceeded);
  writer->PutU64(stats.protocol_errors);
  writer->PutU64(stats.bytes_in);
  writer->PutU64(stats.bytes_out);
  writer->PutU64(stats.connections_accepted);
  writer->PutDouble(stats.latency_p50_ms);
  writer->PutDouble(stats.latency_p99_ms);
  writer->PutU32(stats.num_shards);
  writer->PutU32(static_cast<uint32_t>(stats.shard_probes.size()));
  for (uint64_t probes : stats.shard_probes) writer->PutU64(probes);
  writer->PutU8(stats.has_ingest ? 1 : 0);
  if (stats.has_ingest) {
    writer->PutU64(stats.ingest.inserts);
    writer->PutU64(stats.ingest.deletes);
    writer->PutU64(stats.ingest.merges);
    writer->PutU64(stats.ingest.delta_images);
    writer->PutU64(stats.ingest.tombstones);
    writer->PutU64(stats.ingest.wal_records);
    writer->PutU64(stats.ingest.wal_bytes);
    writer->PutU64(stats.ingest.wal_syncs);
    writer->PutU64(stats.ingest.wal_synced_lsn);
    writer->PutU64(stats.ingest.wal_file_bytes);
  }
}

Result<ServerStats> DecodeServerStats(BinaryReader* reader) {
  ServerStats stats;
  WALRUS_ASSIGN_OR_RETURN(uint32_t opcodes, reader->GetU32());
  if (opcodes != kNumOpcodes) {
    return Status::Corruption("server stats: opcode count mismatch");
  }
  for (int i = 0; i < kNumOpcodes; ++i) {
    WALRUS_ASSIGN_OR_RETURN(stats.requests_by_opcode[i], reader->GetU64());
  }
  WALRUS_ASSIGN_OR_RETURN(stats.rejected_overload, reader->GetU64());
  WALRUS_ASSIGN_OR_RETURN(stats.deadline_exceeded, reader->GetU64());
  WALRUS_ASSIGN_OR_RETURN(stats.protocol_errors, reader->GetU64());
  WALRUS_ASSIGN_OR_RETURN(stats.bytes_in, reader->GetU64());
  WALRUS_ASSIGN_OR_RETURN(stats.bytes_out, reader->GetU64());
  WALRUS_ASSIGN_OR_RETURN(stats.connections_accepted, reader->GetU64());
  WALRUS_ASSIGN_OR_RETURN(stats.latency_p50_ms, reader->GetDouble());
  WALRUS_ASSIGN_OR_RETURN(stats.latency_p99_ms, reader->GetDouble());
  WALRUS_ASSIGN_OR_RETURN(stats.num_shards, reader->GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint32_t num_probe_entries, reader->GetU32());
  // One probe counter per shard; refuse implausible counts before
  // reserving (same discipline as the span decoder).
  if (num_probe_entries > 4096 ||
      static_cast<uint64_t>(num_probe_entries) * 8 > reader->remaining()) {
    return Status::Corruption("server stats: truncated shard probe list");
  }
  stats.shard_probes.reserve(num_probe_entries);
  for (uint32_t i = 0; i < num_probe_entries; ++i) {
    WALRUS_ASSIGN_OR_RETURN(uint64_t probes, reader->GetU64());
    stats.shard_probes.push_back(probes);
  }
  WALRUS_ASSIGN_OR_RETURN(uint8_t has_ingest, reader->GetU8());
  if (has_ingest > 1) {
    return Status::Corruption("server stats: bad ingest presence flag " +
                              std::to_string(has_ingest));
  }
  stats.has_ingest = has_ingest != 0;
  if (stats.has_ingest) {
    WALRUS_ASSIGN_OR_RETURN(stats.ingest.inserts, reader->GetU64());
    WALRUS_ASSIGN_OR_RETURN(stats.ingest.deletes, reader->GetU64());
    WALRUS_ASSIGN_OR_RETURN(stats.ingest.merges, reader->GetU64());
    WALRUS_ASSIGN_OR_RETURN(stats.ingest.delta_images, reader->GetU64());
    WALRUS_ASSIGN_OR_RETURN(stats.ingest.tombstones, reader->GetU64());
    WALRUS_ASSIGN_OR_RETURN(stats.ingest.wal_records, reader->GetU64());
    WALRUS_ASSIGN_OR_RETURN(stats.ingest.wal_bytes, reader->GetU64());
    WALRUS_ASSIGN_OR_RETURN(stats.ingest.wal_syncs, reader->GetU64());
    WALRUS_ASSIGN_OR_RETURN(stats.ingest.wal_synced_lsn, reader->GetU64());
    WALRUS_ASSIGN_OR_RETURN(stats.ingest.wal_file_bytes, reader->GetU64());
  }
  return stats;
}

}  // namespace walrus
