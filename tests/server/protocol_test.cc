#include "server/protocol.h"

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/random.h"

namespace walrus {
namespace {

TEST(ProtocolTest, FrameRoundTrip) {
  std::vector<uint8_t> body = {1, 2, 3, 4, 5};
  std::vector<uint8_t> frame = EncodeFrame(Opcode::kQuery, 42, body);
  ASSERT_EQ(frame.size(),
            kFrameHeaderBytes + body.size() + kFrameTrailerBytes);

  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &header).ok());
  EXPECT_EQ(header.version, kProtocolVersion);
  EXPECT_EQ(header.opcode, Opcode::kQuery);
  EXPECT_EQ(header.request_id, 42u);
  EXPECT_EQ(header.body_length, body.size());

  // Trailer matches a recomputation over header + body.
  uint32_t stored = static_cast<uint32_t>(frame[frame.size() - 4]) |
                    static_cast<uint32_t>(frame[frame.size() - 3]) << 8 |
                    static_cast<uint32_t>(frame[frame.size() - 2]) << 16 |
                    static_cast<uint32_t>(frame[frame.size() - 1]) << 24;
  EXPECT_EQ(stored, FrameCrc(frame.data(), body));
}

TEST(ProtocolTest, EmptyBodyFrame) {
  std::vector<uint8_t> frame = EncodeFrame(Opcode::kPing, 7, {});
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &header).ok());
  EXPECT_EQ(header.body_length, 0u);
  EXPECT_EQ(FrameCrc(frame.data(), {}),
            Crc32(frame.data(), kFrameHeaderBytes));
}

TEST(ProtocolTest, BadMagicIsCorruption) {
  std::vector<uint8_t> frame = EncodeFrame(Opcode::kPing, 1, {});
  frame[0] ^= 0xFF;
  FrameHeader header;
  Status status = DecodeFrameHeader(frame.data(), &header);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(ProtocolTest, BadVersionIsInvalidArgument) {
  std::vector<uint8_t> frame = EncodeFrame(Opcode::kPing, 1, {});
  frame[4] = kProtocolVersion + 1;
  FrameHeader header;
  Status status = DecodeFrameHeader(frame.data(), &header);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The rest of the header still parsed: the frame boundary is intact.
  EXPECT_EQ(header.request_id, 1u);
  EXPECT_EQ(header.body_length, 0u);
}

TEST(ProtocolTest, OversizedBodyLengthRejected) {
  std::vector<uint8_t> frame = EncodeFrame(Opcode::kPing, 1, {});
  uint32_t huge = kMaxBodyBytes + 1;
  frame[16] = static_cast<uint8_t>(huge);
  frame[17] = static_cast<uint8_t>(huge >> 8);
  frame[18] = static_cast<uint8_t>(huge >> 16);
  frame[19] = static_cast<uint8_t>(huge >> 24);
  FrameHeader header;
  Status status = DecodeFrameHeader(frame.data(), &header);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, ResponseStatusRoundTrip) {
  for (const Status& status :
       {Status::OK(), Status::Unavailable("OVERLOADED: full"),
        Status::DeadlineExceeded("late"),
        Status::InvalidArgument("bad frame")}) {
    BinaryWriter writer;
    EncodeResponseStatus(status, &writer);
    BinaryReader reader(writer.buffer());
    Status decoded;
    ASSERT_TRUE(DecodeResponseStatus(&reader, &decoded).ok());
    EXPECT_EQ(decoded, status);
  }
}

TEST(ProtocolTest, ResponseStatusRejectsUnknownCode) {
  BinaryWriter writer;
  writer.PutU8(250);
  writer.PutString("?");
  BinaryReader reader(writer.buffer());
  Status decoded;
  EXPECT_EQ(DecodeResponseStatus(&reader, &decoded).code(),
            StatusCode::kCorruption);
}

TEST(ProtocolTest, QueryOptionsRoundTrip) {
  QueryOptions options;
  options.epsilon = 0.123f;
  options.tau = 0.25;
  options.matcher = MatcherKind::kGreedy;
  options.normalization = SimilarityNormalization::kSmallerImage;
  options.knn_per_region = 5;
  options.use_refinement = true;
  options.refined_epsilon = 0.2f;
  options.top_k = 9;
  options.collect_pairs = true;
  options.collect_trace = true;

  BinaryWriter writer;
  EncodeQueryOptions(options, &writer);
  BinaryReader reader(writer.buffer());
  auto decoded = DecodeQueryOptions(&reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->epsilon, options.epsilon);
  EXPECT_EQ(decoded->tau, options.tau);
  EXPECT_EQ(decoded->matcher, options.matcher);
  EXPECT_EQ(decoded->normalization, options.normalization);
  EXPECT_EQ(decoded->knn_per_region, options.knn_per_region);
  EXPECT_EQ(decoded->use_refinement, options.use_refinement);
  EXPECT_EQ(decoded->refined_epsilon, options.refined_epsilon);
  EXPECT_EQ(decoded->top_k, options.top_k);
  EXPECT_EQ(decoded->collect_pairs, options.collect_pairs);
  EXPECT_EQ(decoded->collect_trace, options.collect_trace);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ProtocolTest, FrameHeaderAcceptsSupportedVersionWindow) {
  // The window is exactly one version wide: v8 decodes, and every other
  // header byte -- the retired v5 to v7 included -- is InvalidArgument.
  EXPECT_EQ(kProtocolVersion, 8);
  std::vector<uint8_t> frame = EncodeFrame(Opcode::kPing, 7, {});
  EXPECT_EQ(frame[4], kProtocolVersion);
  for (int version = 0; version <= 255; ++version) {
    frame[4] = static_cast<uint8_t>(version);
    FrameHeader header;
    Status status = DecodeFrameHeader(frame.data(), &header);
    if (version == kProtocolVersion) {
      EXPECT_TRUE(status.ok()) << status;
      EXPECT_EQ(header.version, kProtocolVersion);
    } else {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << "version " << version;
    }
  }
}

TEST(ProtocolTest, ImageRoundTrip) {
  ImageF image(17, 9, 3, ColorSpace::kYCC);
  Rng rng(3);
  for (int c = 0; c < 3; ++c) {
    for (float& v : image.Plane(c)) v = rng.NextFloat();
  }
  BinaryWriter writer;
  EncodeImage(image, &writer);
  BinaryReader reader(writer.buffer());
  auto decoded = DecodeImage(&reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->width(), 17);
  EXPECT_EQ(decoded->height(), 9);
  EXPECT_EQ(decoded->channels(), 3);
  EXPECT_EQ(decoded->color_space(), ColorSpace::kYCC);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(decoded->Plane(c), image.Plane(c));
  }
}

TEST(ProtocolTest, ImageDecodeRejectsBadDimensions) {
  BinaryWriter writer;
  writer.PutU32(0);  // width 0
  writer.PutU32(4);
  writer.PutU32(3);
  writer.PutU8(1);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(DecodeImage(&reader).ok());

  BinaryWriter writer2;
  writer2.PutU32(1u << 20);  // absurd width: refused before allocation
  writer2.PutU32(1u << 20);
  writer2.PutU32(3);
  writer2.PutU8(1);
  BinaryReader reader2(writer2.buffer());
  EXPECT_FALSE(DecodeImage(&reader2).ok());
}

TEST(ProtocolTest, ImageDecodeRejectsTruncatedPlanes) {
  ImageF image(8, 8, 3, ColorSpace::kRGB);
  BinaryWriter writer;
  EncodeImage(image, &writer);
  std::vector<uint8_t> bytes = writer.TakeBuffer();
  bytes.resize(bytes.size() / 2);
  BinaryReader reader(bytes);
  EXPECT_FALSE(DecodeImage(&reader).ok());
}

TEST(ProtocolTest, MatchesRoundTrip) {
  std::vector<QueryMatch> matches(2);
  matches[0].image_id = 11;
  matches[0].similarity = 0.75;
  matches[0].matching_pairs = 3;
  matches[0].pairs_used = 2;
  matches[0].pairs = {{0, 4}, {1, 7}};
  matches[1].image_id = 99;
  matches[1].similarity = 0.5;

  BinaryWriter writer;
  EncodeMatches(matches, &writer);
  BinaryReader reader(writer.buffer());
  auto decoded = DecodeMatches(&reader);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].image_id, 11u);
  EXPECT_EQ((*decoded)[0].similarity, 0.75);
  EXPECT_EQ((*decoded)[0].matching_pairs, 3);
  EXPECT_EQ((*decoded)[0].pairs_used, 2);
  ASSERT_EQ((*decoded)[0].pairs.size(), 2u);
  EXPECT_EQ((*decoded)[0].pairs[1].query_index, 1);
  EXPECT_EQ((*decoded)[0].pairs[1].target_index, 7);
  EXPECT_EQ((*decoded)[1].image_id, 99u);
}

TEST(ProtocolTest, MatchesDecodeRejectsTruncatedCount) {
  BinaryWriter writer;
  writer.PutU32(1000000);  // claims a million matches, provides none
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(DecodeMatches(&reader).status().code(), StatusCode::kCorruption);
}

TEST(ProtocolTest, ServerStatsRoundTrip) {
  ServerStats stats;
  stats.requests_by_opcode[static_cast<int>(Opcode::kQuery)] = 17;
  stats.rejected_overload = 3;
  stats.deadline_exceeded = 2;
  stats.protocol_errors = 5;
  stats.bytes_in = 1024;
  stats.bytes_out = 2048;
  stats.connections_accepted = 9;
  stats.latency_p50_ms = 1.5;
  stats.latency_p99_ms = 20.0;

  BinaryWriter writer;
  EncodeServerStats(stats, &writer);
  BinaryReader reader(writer.buffer());
  auto decoded = DecodeServerStats(&reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->requests_by_opcode[static_cast<int>(Opcode::kQuery)],
            17u);
  EXPECT_EQ(decoded->rejected_overload, 3u);
  EXPECT_EQ(decoded->deadline_exceeded, 2u);
  EXPECT_EQ(decoded->protocol_errors, 5u);
  EXPECT_EQ(decoded->bytes_in, 1024u);
  EXPECT_EQ(decoded->bytes_out, 2048u);
  EXPECT_EQ(decoded->connections_accepted, 9u);
  EXPECT_EQ(decoded->latency_p50_ms, 1.5);
  EXPECT_EQ(decoded->latency_p99_ms, 20.0);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ProtocolTest, QueryStatsRoundTripCarriesStageBreakdown) {
  QueryStats stats;
  stats.query_regions = 4;
  stats.regions_retrieved = 120;
  stats.avg_regions_per_query_region = 30.0;
  stats.distinct_images = 17;
  stats.seconds = 0.25;
  stats.extract_seconds = 0.125;
  stats.probe_seconds = 0.0625;
  stats.match_seconds = 0.03125;
  stats.rank_seconds = 0.015625;
  stats.nodes_visited = 42;
  TraceSpan extract;
  extract.name = "extract";
  extract.start_seconds = 0.0;
  extract.duration_seconds = 0.125;
  TraceSpan wavelet;
  wavelet.name = "wavelet";
  wavelet.start_seconds = 0.01;
  wavelet.duration_seconds = 0.09;
  extract.children.push_back(wavelet);
  stats.spans.push_back(extract);

  BinaryWriter writer;
  EncodeQueryStats(stats, &writer);
  BinaryReader reader(writer.buffer());
  auto decoded = DecodeQueryStats(&reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->query_regions, 4);
  EXPECT_EQ(decoded->regions_retrieved, 120);
  EXPECT_EQ(decoded->seconds, 0.25);
  EXPECT_EQ(decoded->extract_seconds, 0.125);
  EXPECT_EQ(decoded->probe_seconds, 0.0625);
  EXPECT_EQ(decoded->match_seconds, 0.03125);
  EXPECT_EQ(decoded->rank_seconds, 0.015625);
  EXPECT_EQ(decoded->nodes_visited, 42);
  ASSERT_EQ(decoded->spans.size(), 1u);
  EXPECT_EQ(decoded->spans[0].name, "extract");
  EXPECT_EQ(decoded->spans[0].duration_seconds, 0.125);
  ASSERT_EQ(decoded->spans[0].children.size(), 1u);
  EXPECT_EQ(decoded->spans[0].children[0].name, "wavelet");
  EXPECT_EQ(decoded->spans[0].children[0].start_seconds, 0.01);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ProtocolTest, TraceSpansRoundTripEmpty) {
  BinaryWriter writer;
  EncodeTraceSpans({}, &writer);
  BinaryReader reader(writer.buffer());
  auto decoded = DecodeTraceSpans(&reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(ProtocolTest, TraceSpansDecodeRejectsTruncatedCount) {
  BinaryWriter writer;
  writer.PutU32(1000000);  // claims a million spans, provides none
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(DecodeTraceSpans(&reader).status().code(),
            StatusCode::kCorruption);
}

TEST(ProtocolTest, TraceSpansDecodeRejectsExcessiveNesting) {
  // A chain nested one past the limit: each level is one span whose only
  // child is the next level.
  std::vector<TraceSpan> spans(1);
  TraceSpan* tip = &spans[0];
  for (int i = 0; i < kMaxTraceDepth + 1; ++i) {
    tip->name = "s";
    tip->children.resize(1);
    tip = &tip->children[0];
  }
  tip->name = "leaf";
  BinaryWriter writer;
  EncodeTraceSpans(spans, &writer);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(DecodeTraceSpans(&reader).status().code(),
            StatusCode::kCorruption);
}

MetricsSnapshot MakeSnapshot() {
  MetricsSnapshot snapshot;
  MetricValue counter;
  counter.name = "walrus.test.counter";
  counter.type = MetricType::kCounter;
  counter.counter = 123456789;
  snapshot.metrics.push_back(counter);

  MetricValue gauge;
  gauge.name = "walrus.test.gauge";
  gauge.type = MetricType::kGauge;
  gauge.gauge = -42;
  snapshot.metrics.push_back(gauge);

  MetricValue histogram;
  histogram.name = "walrus.test.seconds";
  histogram.type = MetricType::kHistogram;
  histogram.bounds = {0.001, 0.01, 0.1};
  histogram.bucket_counts = {5, 10, 2, 1};
  histogram.count = 18;
  histogram.sum = 0.375;
  snapshot.metrics.push_back(histogram);
  return snapshot;
}

TEST(ProtocolTest, MetricsSnapshotRoundTrip) {
  MetricsSnapshot snapshot = MakeSnapshot();
  BinaryWriter writer;
  EncodeMetricsSnapshot(snapshot, &writer);
  BinaryReader reader(writer.buffer());
  auto decoded = DecodeMetricsSnapshot(&reader);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->metrics.size(), 3u);

  const MetricValue* counter = decoded->Find("walrus.test.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->type, MetricType::kCounter);
  EXPECT_EQ(counter->counter, 123456789u);

  const MetricValue* gauge = decoded->Find("walrus.test.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->type, MetricType::kGauge);
  EXPECT_EQ(gauge->gauge, -42);

  const MetricValue* histogram = decoded->Find("walrus.test.seconds");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->type, MetricType::kHistogram);
  EXPECT_EQ(histogram->bounds, (std::vector<double>{0.001, 0.01, 0.1}));
  EXPECT_EQ(histogram->bucket_counts, (std::vector<uint64_t>{5, 10, 2, 1}));
  EXPECT_EQ(histogram->count, 18u);
  EXPECT_EQ(histogram->sum, 0.375);
}

TEST(ProtocolTest, MetricsSnapshotDecodeRejectsTruncatedCount) {
  BinaryWriter writer;
  writer.PutU32(1000000);  // claims a million metrics, provides none
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(DecodeMetricsSnapshot(&reader).status().code(),
            StatusCode::kCorruption);
}

TEST(ProtocolTest, MetricsSnapshotDecodeRejectsUnknownType) {
  BinaryWriter writer;
  writer.PutU32(1);
  writer.PutString("m");
  writer.PutU8(77);  // not a MetricType
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(DecodeMetricsSnapshot(&reader).status().code(),
            StatusCode::kCorruption);
}

TEST(ProtocolTest, MetricsSnapshotDecodeRejectsOversizedHistogram) {
  BinaryWriter writer;
  writer.PutU32(1);
  writer.PutString("h");
  writer.PutU8(static_cast<uint8_t>(MetricType::kHistogram));
  writer.PutU32(1000000);  // a million bounds, no data behind them
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(DecodeMetricsSnapshot(&reader).status().code(),
            StatusCode::kCorruption);
}

/// Mirror of the server's malformed-frame discipline for the new codecs:
/// arbitrary bytes must produce a Status, never a crash or an OOM
/// allocation.
TEST(ProtocolFuzzTest, RandomBytesNeverCrashTraceSpanDecode) {
  Rng rng(20260806);
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> bytes(rng.NextInt(0, 96));
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.NextInt(0, 255));
    }
    BinaryReader reader(bytes);
    auto decoded = DecodeTraceSpans(&reader);  // must not crash
    (void)decoded;
  }
}

TEST(ProtocolFuzzTest, RandomBytesNeverCrashMetricsDecode) {
  Rng rng(8062026);
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> bytes(rng.NextInt(0, 96));
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.NextInt(0, 255));
    }
    BinaryReader reader(bytes);
    auto decoded = DecodeMetricsSnapshot(&reader);  // must not crash
    (void)decoded;
  }
}

TEST(ProtocolFuzzTest, TruncatedValidEncodingsFailCleanly) {
  // Every proper prefix of a valid encoding must decode to an error, not a
  // crash (the wire can cut a frame anywhere).
  BinaryWriter span_writer;
  std::vector<TraceSpan> spans(2);
  spans[0].name = "extract";
  spans[0].duration_seconds = 0.5;
  spans[0].children.resize(1);
  spans[0].children[0].name = "wavelet";
  spans[1].name = "probe";
  EncodeTraceSpans(spans, &span_writer);
  const std::vector<uint8_t>& span_bytes = span_writer.buffer();
  for (size_t cut = 0; cut < span_bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(span_bytes.begin(),
                                span_bytes.begin() + cut);
    BinaryReader reader(prefix);
    EXPECT_FALSE(DecodeTraceSpans(&reader).ok()) << "cut at " << cut;
  }

  BinaryWriter metric_writer;
  EncodeMetricsSnapshot(MakeSnapshot(), &metric_writer);
  const std::vector<uint8_t>& metric_bytes = metric_writer.buffer();
  for (size_t cut = 0; cut < metric_bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(metric_bytes.begin(),
                                metric_bytes.begin() + cut);
    BinaryReader reader(prefix);
    EXPECT_FALSE(DecodeMetricsSnapshot(&reader).ok()) << "cut at " << cut;
  }
}

TEST(ProtocolTest, FramePartsMatchContiguousEncodingByteForByte) {
  // MakeFrameParts is the reactor's scatter-gather encoder; the wire bytes
  // must be indistinguishable from EncodeFrame over the concatenated body,
  // whatever the chunking. Cover empty bodies, single chunks, empty chunks
  // interleaved with data, and many small chunks.
  const std::vector<std::vector<std::vector<uint8_t>>> chunkings = {
      {},
      {{}},
      {{9, 8, 7}},
      {{}, {1}, {}, {2, 3, 4}, {}},
      {{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}},
      {{0xAA, 0xBB}, {}, {0xCC}},
  };
  uint64_t request_id = 7000;
  for (const auto& chunks : chunkings) {
    std::vector<uint8_t> flat;
    for (const auto& chunk : chunks) {
      flat.insert(flat.end(), chunk.begin(), chunk.end());
    }
    std::vector<uint8_t> contiguous =
        EncodeFrame(Opcode::kQuery, request_id, flat);

    FrameParts parts = MakeFrameParts(Opcode::kQuery, request_id,
                                      std::vector<std::vector<uint8_t>>(
                                          chunks));
    ASSERT_EQ(parts.TotalBytes(), contiguous.size());
    std::vector<uint8_t> gathered(parts.header.begin(), parts.header.end());
    for (const auto& chunk : parts.body) {
      gathered.insert(gathered.end(), chunk.begin(), chunk.end());
    }
    gathered.insert(gathered.end(), parts.trailer.begin(),
                    parts.trailer.end());
    EXPECT_EQ(gathered, contiguous)
        << "chunking with " << chunks.size() << " chunk(s) diverged";
    ++request_id;
  }
}

TEST(ProtocolTest, Crc32ExtendComposes) {
  std::vector<uint8_t> a = {1, 2, 3};
  std::vector<uint8_t> b = {4, 5, 6, 7};
  std::vector<uint8_t> joined = {1, 2, 3, 4, 5, 6, 7};
  uint32_t incremental =
      Crc32Extend(Crc32Extend(0, a.data(), a.size()), b.data(), b.size());
  EXPECT_EQ(incremental, Crc32(joined.data(), joined.size()));
}

}  // namespace
}  // namespace walrus
