// Loopback integration tests for walrusd: a real server over real sockets,
// serving a real index. Covers the acceptance criteria of the server
// subsystem: concurrent correctness (remote results byte-identical to
// in-process ExecuteQuery), bounded admission (OVERLOADED), per-request
// deadlines, protocol robustness (malformed frames never crash the
// process), and graceful drain on shutdown.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/socket.h"
#include "core/index.h"
#include "core/query.h"
#include "core/sharded_index.h"
#include "fresh_dir.h"
#include "image/dataset.h"
#include "server/client.h"
#include "server/server.h"
#include "wal/live_index.h"

namespace walrus {
namespace {

WalrusParams TestParams() {
  WalrusParams p;
  p.min_window = 16;
  p.max_window = 32;
  p.slide_step = 8;
  return p;
}

std::vector<uint8_t> MatchBytes(const std::vector<QueryMatch>& matches) {
  BinaryWriter writer;
  EncodeMatches(matches, &writer);
  return writer.TakeBuffer();
}

class WalrusServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetParams dp;
    dp.num_images = 12;
    dp.width = 64;
    dp.height = 64;
    dp.seed = 99;
    dataset_ = GenerateDataset(dp);
    index_ = std::make_unique<WalrusIndex>(TestParams());
    for (const LabeledImage& scene : dataset_) {
      ASSERT_TRUE(index_
                      ->AddImage(static_cast<uint64_t>(scene.id), "img",
                                 scene.image)
                      .ok());
    }
  }

  std::vector<LabeledImage> dataset_;
  std::unique_ptr<WalrusIndex> index_;
};

TEST_F(WalrusServerTest, PingAndStats) {
  WalrusServer server(*index_, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = WalrusClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Ping().ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->requests_by_opcode[static_cast<int>(Opcode::kPing)], 2u);
  EXPECT_EQ(stats->connections_accepted, 1u);
  EXPECT_GT(stats->bytes_in, 0u);
  EXPECT_GT(stats->bytes_out, 0u);
  server.Stop();
}

// The headline acceptance test: >= 8 concurrent client threads, every
// remote result byte-identical to the in-process pipeline.
TEST_F(WalrusServerTest, ConcurrentQueriesMatchInProcessByteForByte) {
  WalrusServer server(*index_, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  QueryOptions options;
  options.epsilon = 0.085f;
  options.collect_pairs = true;  // exercise the full payload

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 3;
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto client = WalrusClient::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          ++failures;
          return;
        }
        for (int q = 0; q < kQueriesPerThread; ++q) {
          const ImageF& image =
              dataset_[(t + q * kThreads) % dataset_.size()].image;
          bool scene_query = (t + q) % 2 == 1;
          Result<RemoteQueryResult> remote =
              Status::Internal("unreachable");
          Result<std::vector<QueryMatch>> local =
              Status::Internal("unreachable");
          if (scene_query) {
            PixelRect rect;
            rect.x = 0;
            rect.y = 0;
            rect.width = image.width();
            rect.height = image.height() / 2;
            remote = client->SceneQuery(image, rect, options);
            local = ExecuteSceneQuery(*index_, image, rect, options);
          } else {
            remote = client->Query(image, options);
            local = ExecuteQuery(*index_, image, options);
          }
          if (!remote.ok() || !local.ok() ||
              MatchBytes(remote->matches) != MatchBytes(*local)) {
            ++failures;
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(failures.load(), 0);

  ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.requests_by_opcode[static_cast<int>(Opcode::kQuery)] +
                stats.requests_by_opcode[static_cast<int>(
                    Opcode::kSceneQuery)],
            static_cast<uint64_t>(kThreads * kQueriesPerThread));
  server.Stop();
}

// Works identically against the paged (disk-resident) backend, which is the
// deployment walrusd exists for.
TEST_F(WalrusServerTest, ServesPagedIndexConcurrently) {
  std::string prefix = ::testing::TempDir() + "/walrus_server_paged";
  ASSERT_TRUE(index_->SavePaged(prefix).ok());
  auto paged = WalrusIndex::OpenPaged(prefix);
  ASSERT_TRUE(paged.ok());

  WalrusServer server(*paged, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  QueryOptions options;
  options.epsilon = 0.085f;

  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        auto client = WalrusClient::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          ++failures;
          return;
        }
        const ImageF& image = dataset_[t % dataset_.size()].image;
        auto remote = client->Query(image, options);
        auto local = ExecuteQuery(*index_, image, options);
        if (!remote.ok() || !local.ok() ||
            MatchBytes(remote->matches) != MatchBytes(*local)) {
          ++failures;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
  for (const char* suffix : {".catalog", ".pmeta", ".ptree"}) {
    std::remove((prefix + suffix).c_str());
  }
}

// Requests beyond the admission bound are rejected with OVERLOADED
// (Unavailable) instead of queueing. One worker stalled 200ms + bound 2:
// a pipelined burst of 10 pings can admit at most a handful.
TEST_F(WalrusServerTest, RejectsBeyondAdmissionBound) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_pending = 2;
  options.execution_delay_ms = 200;
  WalrusServer server(*index_, options);
  ASSERT_TRUE(server.Start().ok());

  auto fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  constexpr int kBurst = 10;
  for (uint64_t i = 0; i < kBurst; ++i) {
    std::vector<uint8_t> frame = EncodeFrame(Opcode::kPing, i, {});
    ASSERT_TRUE(WriteFull(fd->get(), frame.data(), frame.size()).ok());
  }

  int ok_count = 0;
  int overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    std::vector<uint8_t> header_bytes(kFrameHeaderBytes);
    ASSERT_TRUE(
        ReadFull(fd->get(), header_bytes.data(), header_bytes.size()).ok());
    FrameHeader header;
    ASSERT_TRUE(DecodeFrameHeader(header_bytes.data(), &header).ok());
    std::vector<uint8_t> body(header.body_length);
    ASSERT_TRUE(ReadFull(fd->get(), body.data(), body.size()).ok());
    uint8_t trailer[kFrameTrailerBytes];
    ASSERT_TRUE(ReadFull(fd->get(), trailer, sizeof(trailer)).ok());
    BinaryReader reader(body);
    Status remote;
    ASSERT_TRUE(DecodeResponseStatus(&reader, &remote).ok());
    if (remote.ok()) {
      ++ok_count;
    } else {
      ASSERT_EQ(remote.code(), StatusCode::kUnavailable) << remote;
      EXPECT_EQ(remote.message().rfind("OVERLOADED", 0), 0u) << remote;
      ++overloaded;
    }
  }
  // The reader thread floods the admission queue far faster than the
  // stalled worker drains it: at least the burst minus bound minus one
  // in-execution request must have been rejected.
  EXPECT_GE(ok_count, 1);
  EXPECT_GE(overloaded, kBurst - options.max_pending - 2);
  EXPECT_EQ(server.Snapshot().rejected_overload,
            static_cast<uint64_t>(overloaded));
  server.Stop();
}

// A request that out-waits its deadline in the queue is answered with
// DeadlineExceeded rather than executed.
TEST_F(WalrusServerTest, ExpiresQueuedRequestsPastDeadline) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_pending = 8;
  options.execution_delay_ms = 150;
  options.deadline_ms = 50;
  WalrusServer server(*index_, options);
  ASSERT_TRUE(server.Start().ok());

  auto fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  for (uint64_t i = 0; i < 3; ++i) {
    std::vector<uint8_t> frame = EncodeFrame(Opcode::kPing, i, {});
    ASSERT_TRUE(WriteFull(fd->get(), frame.data(), frame.size()).ok());
  }
  int expired = 0;
  for (int i = 0; i < 3; ++i) {
    std::vector<uint8_t> header_bytes(kFrameHeaderBytes);
    ASSERT_TRUE(
        ReadFull(fd->get(), header_bytes.data(), header_bytes.size()).ok());
    FrameHeader header;
    ASSERT_TRUE(DecodeFrameHeader(header_bytes.data(), &header).ok());
    std::vector<uint8_t> body(header.body_length);
    ASSERT_TRUE(ReadFull(fd->get(), body.data(), body.size()).ok());
    uint8_t trailer[kFrameTrailerBytes];
    ASSERT_TRUE(ReadFull(fd->get(), trailer, sizeof(trailer)).ok());
    BinaryReader reader(body);
    Status remote;
    ASSERT_TRUE(DecodeResponseStatus(&reader, &remote).ok());
    if (remote.code() == StatusCode::kDeadlineExceeded) ++expired;
  }
  // The first request executes (150ms); the two behind it blow their 50ms
  // deadline waiting for the single worker.
  EXPECT_GE(expired, 2);
  EXPECT_EQ(server.Snapshot().deadline_exceeded,
            static_cast<uint64_t>(expired));
  server.Stop();
}

// Error replies carry the failing request's context (opcode + id), the
// same discipline as ExecuteQueryBatch's per-query annotation.
TEST_F(WalrusServerTest, ErrorRepliesNameTheRequest) {
  WalrusServer server(*index_, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = WalrusClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // 4x4 is smaller than min_window: the query pipeline rejects it.
  ImageF tiny(4, 4, 3, ColorSpace::kRGB);
  auto result = client->Query(tiny, QueryOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("QUERY request"),
            std::string::npos)
      << result.status();
  server.Stop();
}

// ---- Protocol robustness: the malformed-frame suite ---------------------

class MalformedFrameTest : public WalrusServerTest {
 protected:
  void StartServer() {
    server_ = std::make_unique<WalrusServer>(*index_, ServerOptions{});
    ASSERT_TRUE(server_->Start().ok());
  }

  Result<UniqueFd> Connect() {
    return ConnectTcp("127.0.0.1", server_->port());
  }

  /// Reads one response frame; returns the embedded status, or the
  /// transport error when the server closed the connection instead.
  Status ReadResponseStatus(int fd) {
    std::vector<uint8_t> header_bytes(kFrameHeaderBytes);
    Status read = ReadFull(fd, header_bytes.data(), header_bytes.size());
    if (!read.ok()) return read;
    FrameHeader header;
    Status parsed = DecodeFrameHeader(header_bytes.data(), &header);
    if (!parsed.ok()) return parsed;
    std::vector<uint8_t> body(header.body_length);
    if (!body.empty()) {
      read = ReadFull(fd, body.data(), body.size());
      if (!read.ok()) return read;
    }
    uint8_t trailer[kFrameTrailerBytes];
    read = ReadFull(fd, trailer, sizeof(trailer));
    if (!read.ok()) return read;
    BinaryReader reader(body);
    Status remote;
    Status decoded = DecodeResponseStatus(&reader, &remote);
    if (!decoded.ok()) return decoded;
    return remote;
  }

  /// The server is still alive and serving after whatever was thrown at it.
  void ExpectServerAlive() {
    auto client = WalrusClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status();
    EXPECT_TRUE(client->Ping().ok());
  }

  std::unique_ptr<WalrusServer> server_;
};

TEST_F(MalformedFrameTest, BadMagicGetsErrorAndClose) {
  StartServer();
  auto fd = Connect();
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> frame = EncodeFrame(Opcode::kPing, 1, {});
  frame[0] ^= 0xFF;
  ASSERT_TRUE(WriteFull(fd->get(), frame.data(), frame.size()).ok());
  Status response = ReadResponseStatus(fd->get());
  EXPECT_EQ(response.code(), StatusCode::kCorruption) << response;
  // Connection is closed after the error reply (framing was lost).
  uint8_t byte;
  EXPECT_FALSE(ReadFull(fd->get(), &byte, 1).ok());
  ExpectServerAlive();
}

TEST_F(MalformedFrameTest, BadVersionKeepsConnectionUsable) {
  StartServer();
  auto fd = Connect();
  ASSERT_TRUE(fd.ok());
  // The retired v5 to v7 revisions are refused like a future v9: only the
  // current version (v8) is served.
  uint64_t request_id = 5;
  for (uint8_t version : {5, 6, 7, 9}) {
    std::vector<uint8_t> frame = EncodeFrame(Opcode::kPing, request_id++, {});
    frame[4] = version;  // CRC recomputed below to keep framing valid
    uint32_t crc = FrameCrc(frame.data(), {});
    for (int i = 0; i < 4; ++i) {
      frame[kFrameHeaderBytes + i] = static_cast<uint8_t>(crc >> (8 * i));
    }
    ASSERT_TRUE(WriteFull(fd->get(), frame.data(), frame.size()).ok());
    Status response = ReadResponseStatus(fd->get());
    EXPECT_EQ(response.code(), StatusCode::kInvalidArgument)
        << "v" << static_cast<int>(version) << ": " << response;

    // Same connection, valid frame: still served.
    std::vector<uint8_t> good = EncodeFrame(Opcode::kPing, request_id++, {});
    ASSERT_TRUE(WriteFull(fd->get(), good.data(), good.size()).ok());
    EXPECT_TRUE(ReadResponseStatus(fd->get()).ok())
        << "after v" << static_cast<int>(version);
  }
  EXPECT_EQ(server_->Snapshot().protocol_errors, 4u);
}

TEST_F(MalformedFrameTest, CorruptedCrcKeepsConnectionUsable) {
  StartServer();
  auto fd = Connect();
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> frame = EncodeFrame(Opcode::kPing, 7, {});
  frame.back() ^= 0xFF;  // corrupt the CRC trailer
  ASSERT_TRUE(WriteFull(fd->get(), frame.data(), frame.size()).ok());
  Status response = ReadResponseStatus(fd->get());
  EXPECT_EQ(response.code(), StatusCode::kCorruption) << response;

  std::vector<uint8_t> good = EncodeFrame(Opcode::kPing, 8, {});
  ASSERT_TRUE(WriteFull(fd->get(), good.data(), good.size()).ok());
  EXPECT_TRUE(ReadResponseStatus(fd->get()).ok());
  EXPECT_GE(server_->Snapshot().protocol_errors, 1u);
}

TEST_F(MalformedFrameTest, OversizedBodyLengthGetsErrorAndClose) {
  StartServer();
  auto fd = Connect();
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> frame = EncodeFrame(Opcode::kPing, 9, {});
  uint32_t huge = kMaxBodyBytes + 1;
  for (int i = 0; i < 4; ++i) {
    frame[16 + i] = static_cast<uint8_t>(huge >> (8 * i));
  }
  ASSERT_TRUE(WriteFull(fd->get(), frame.data(), frame.size()).ok());
  Status response = ReadResponseStatus(fd->get());
  EXPECT_EQ(response.code(), StatusCode::kInvalidArgument) << response;
  uint8_t byte;
  EXPECT_FALSE(ReadFull(fd->get(), &byte, 1).ok());
  ExpectServerAlive();
}

TEST_F(MalformedFrameTest, TruncatedFrameClosesCleanly) {
  StartServer();
  auto fd = Connect();
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> frame = EncodeFrame(Opcode::kQuery, 10,
                                           std::vector<uint8_t>(100, 0xAB));
  // Send only half the frame, then hang up.
  ASSERT_TRUE(WriteFull(fd->get(), frame.data(), frame.size() / 2).ok());
  fd->Close();  // hang up mid-frame
  ExpectServerAlive();
}

TEST_F(MalformedFrameTest, UnknownOpcodeErrorsTheRequestOnly) {
  StartServer();
  auto fd = Connect();
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> frame =
      EncodeFrame(static_cast<Opcode>(200), 11, {});
  ASSERT_TRUE(WriteFull(fd->get(), frame.data(), frame.size()).ok());
  Status response = ReadResponseStatus(fd->get());
  EXPECT_EQ(response.code(), StatusCode::kInvalidArgument) << response;

  std::vector<uint8_t> good = EncodeFrame(Opcode::kPing, 12, {});
  ASSERT_TRUE(WriteFull(fd->get(), good.data(), good.size()).ok());
  EXPECT_TRUE(ReadResponseStatus(fd->get()).ok());
}

TEST_F(MalformedFrameTest, UndecodableQueryBodyErrorsTheRequestOnly) {
  StartServer();
  auto fd = Connect();
  ASSERT_TRUE(fd.ok());
  // Valid frame, garbage query body: checksums fine, decodes to nonsense.
  std::vector<uint8_t> garbage(64, 0xEE);
  std::vector<uint8_t> frame = EncodeFrame(Opcode::kQuery, 13, garbage);
  ASSERT_TRUE(WriteFull(fd->get(), frame.data(), frame.size()).ok());
  Status response = ReadResponseStatus(fd->get());
  EXPECT_FALSE(response.ok());

  std::vector<uint8_t> good = EncodeFrame(Opcode::kPing, 14, {});
  ASSERT_TRUE(WriteFull(fd->get(), good.data(), good.size()).ok());
  EXPECT_TRUE(ReadResponseStatus(fd->get()).ok());
}

// Seeded fuzz-ish loop: random byte blobs thrown at fresh connections. The
// server must reply with a protocol error or close cleanly -- and above
// all, never crash (ASan/UBSan make this bite in scripts/check.sh).
TEST_F(MalformedFrameTest, RandomByteFramesNeverCrashTheServer) {
  StartServer();
  Rng rng(20260806);
  for (int round = 0; round < 60; ++round) {
    auto fd = Connect();
    ASSERT_TRUE(fd.ok()) << fd.status();
    int blobs = rng.NextInt(1, 3);
    for (int b = 0; b < blobs; ++b) {
      std::vector<uint8_t> blob(rng.NextInt(1, 256));
      for (uint8_t& byte : blob) {
        byte = static_cast<uint8_t>(rng.NextBounded(256));
      }
      // Half the rounds lead with a valid magic so the fuzz also reaches
      // the post-magic validation paths.
      if (round % 2 == 0 && blob.size() >= 4) {
        blob[0] = 0x52;
        blob[1] = 0x4C;
        blob[2] = 0x41;
        blob[3] = 0x57;
      }
      if (!WriteFull(fd->get(), blob.data(), blob.size()).ok()) break;
    }
    // Drain whatever the server answers until it closes or goes quiet;
    // all that matters is that the next connection still works.
    ShutdownRead(fd->get());
  }
  ExpectServerAlive();
  server_->Stop();
}

// ---- Graceful shutdown --------------------------------------------------

// A request in flight when shutdown starts still gets its response
// (drain), and the SHUTDOWN opcode itself is acknowledged.
TEST_F(WalrusServerTest, GracefulShutdownDrainsInFlightRequests) {
  ServerOptions options;
  options.num_workers = 2;
  options.execution_delay_ms = 150;
  WalrusServer server(*index_, options);
  ASSERT_TRUE(server.Start().ok());

  // Client A: a slow ping that will be mid-execution during shutdown.
  std::atomic<bool> got_response{false};
  std::thread slow([&] {
    auto client = WalrusClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) return;
    if (client->Ping().ok()) got_response.store(true);
  });
  // Give the slow ping time to be admitted.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Client B: SHUTDOWN. The server acknowledges, then drains A's request.
  auto admin = WalrusClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(admin.ok());
  EXPECT_TRUE(admin->Shutdown().ok());

  server.Wait();  // returns only after the drain
  slow.join();
  EXPECT_TRUE(got_response.load())
      << "in-flight request was dropped during graceful shutdown";
}

// ---- Observability ------------------------------------------------------

// A traced QUERY returns a span tree whose top-level spans account for
// nearly all of the query's measured wall time (the observability
// acceptance bar: untracked time under 5%).
TEST_F(WalrusServerTest, TracedQuerySpansCoverQueryWallTime) {
  WalrusServer server(*index_, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = WalrusClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  QueryOptions options;
  options.collect_trace = true;
  auto result = client->Query(dataset_[0].image, options);
  ASSERT_TRUE(result.ok()) << result.status();

  const QueryStats& stats = result->stats;
  ASSERT_FALSE(stats.spans.empty());
  // extract must be present and carry the wavelet/cluster children.
  bool found_extract = false;
  for (const TraceSpan& span : stats.spans) {
    if (span.name != "extract") continue;
    found_extract = true;
    bool wavelet = false;
    bool cluster = false;
    for (const TraceSpan& child : span.children) {
      if (child.name == "wavelet") wavelet = true;
      if (child.name == "cluster") cluster = true;
    }
    EXPECT_TRUE(wavelet) << "extract span lost its wavelet child";
    EXPECT_TRUE(cluster) << "extract span lost its cluster child";
  }
  EXPECT_TRUE(found_extract);

  ASSERT_GT(stats.seconds, 0.0);
  double covered = TraceCoverageSeconds(stats.spans);
  EXPECT_GE(covered, 0.95 * stats.seconds)
      << "spans cover " << covered << "s of " << stats.seconds
      << "s measured (" << RenderTraceText(stats.spans) << ")";
  // Spans also never claim more than the whole query (small slack for
  // clock granularity).
  EXPECT_LE(covered, stats.seconds * 1.001 + 1e-6);

  // The per-stage scalar timings mirror the span tree.
  EXPECT_GT(stats.extract_seconds, 0.0);

  // An untraced query stays span-free (no silent overhead).
  QueryOptions untraced;
  auto plain = client->Query(dataset_[0].image, untraced);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_TRUE(plain->stats.spans.empty());
  server.Stop();
}

// METRICS returns the registry snapshot, and query-path counters move when
// queries execute.
TEST_F(WalrusServerTest, MetricsOpcodeReflectsQueryWork) {
  WalrusServer server(*index_, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = WalrusClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  auto before = client->Metrics();
  ASSERT_TRUE(before.ok()) << before.status();

  QueryOptions options;
  ASSERT_TRUE(client->Query(dataset_[0].image, options).ok());
  ASSERT_TRUE(client->Query(dataset_[1].image, options).ok());

  auto after = client->Metrics();
  ASSERT_TRUE(after.ok()) << after.status();

  auto counter_delta = [&](const std::string& name) -> int64_t {
    const MetricValue* b = before->Find(name);
    const MetricValue* a = after->Find(name);
    uint64_t bv = b != nullptr ? b->counter : 0;
    uint64_t av = a != nullptr ? a->counter : 0;
    return static_cast<int64_t>(av) - static_cast<int64_t>(bv);
  };
  EXPECT_EQ(counter_delta("walrus.query.count"), 2);
  EXPECT_GT(counter_delta("walrus.extract.count"), 0);
  EXPECT_GT(counter_delta("walrus.wavelet.plane_computations"), 0);
  EXPECT_GT(counter_delta("walrus.birch.runs"), 0);
  EXPECT_GT(counter_delta("walrus.rstar.range_probes"), 0);
  EXPECT_GT(counter_delta("walrus.match.pairs_scored"), 0);

  // The request-latency histogram in the registry advanced too.
  const MetricValue* latency = after->Find("walrus.server.request_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->type, MetricType::kHistogram);
  const MetricValue* latency_before =
      before->Find("walrus.server.request_seconds");
  uint64_t before_count =
      latency_before != nullptr ? latency_before->count : 0;
  EXPECT_GT(latency->count, before_count);
  server.Stop();
}

TEST_F(WalrusServerTest, StopIsIdempotentAndDestructorSafe) {
  auto server = std::make_unique<WalrusServer>(*index_, ServerOptions{});
  ASSERT_TRUE(server->Start().ok());
  server->Stop();
  server->Stop();      // second stop is a no-op
  server.reset();      // destructor after explicit stop: fine
  // And a never-started server destructs cleanly too.
  WalrusServer unstarted(*index_, ServerOptions{});
}

// ---- Pipelining conformance ---------------------------------------------

// The pipelining acceptance test: K requests in flight on one connection,
// responses in request order and byte-identical to serial execution.
TEST_F(WalrusServerTest, PipelinedQueriesArriveInOrderAndMatchSerial) {
  ServerOptions options;
  options.num_workers = 4;  // out-of-order completion is the point
  WalrusServer server(*index_, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = WalrusClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  QueryOptions query_options;
  query_options.epsilon = 0.085f;
  query_options.collect_pairs = true;

  constexpr int kPipelined = 9;
  std::vector<ImageF> images;
  for (int q = 0; q < kPipelined; ++q) {
    images.push_back(dataset_[q % dataset_.size()].image);
  }
  // QueryPipelined fails with Corruption if any response id comes back
  // out of request order.
  auto remote = client->QueryPipelined(images, query_options);
  ASSERT_TRUE(remote.ok()) << remote.status();
  ASSERT_EQ(remote->size(), images.size());
  for (int q = 0; q < kPipelined; ++q) {
    auto local = ExecuteQuery(*index_, images[q], query_options);
    ASSERT_TRUE(local.ok()) << local.status();
    EXPECT_EQ(MatchBytes((*remote)[q].matches), MatchBytes(*local))
        << "pipelined query " << q << " diverged from serial execution";
  }
  server.Stop();
}

// Mixed opcodes (PING / QUERY / STATS) pipelined on one connection still
// come back strictly in request order, even though a PING behind a QUERY
// finishes executing first.
TEST_F(WalrusServerTest, PipelinedMixedOpcodesStayOrdered) {
  ServerOptions options;
  options.num_workers = 4;
  WalrusServer server(*index_, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = WalrusClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  QueryOptions query_options;
  std::vector<uint64_t> ids;
  for (int round = 0; round < 4; ++round) {
    auto query_id = client->SendQuery(dataset_[round].image, query_options);
    ASSERT_TRUE(query_id.ok()) << query_id.status();
    ids.push_back(*query_id);
    auto ping_id = client->SendPing();
    ASSERT_TRUE(ping_id.ok()) << ping_id.status();
    ids.push_back(*ping_id);
    auto stats_id = client->SendStats();
    ASSERT_TRUE(stats_id.ok()) << stats_id.status();
    ids.push_back(*stats_id);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    auto response = client->ReceiveResponse();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->request_id, ids[i])
        << "response " << i << " out of order";
    EXPECT_TRUE(response->status.ok()) << response->status;
  }
  server.Stop();
}

// Pipelined mutations against a live engine: with a single worker the
// requests execute serially in arrival order, so INSERT -> QUERY ->
// DELETE -> QUERY observes the insert exactly in between.
TEST_F(WalrusServerTest, PipelinedMutationsExecuteInArrivalOrder) {
  std::string dir = FreshDir("walrus_server_pipeline_wal");
  LiveIndex::Options live_options;
  live_options.merge_threshold = 0;
  auto live = LiveIndex::Open(dir, TestParams(), live_options, index_.get());
  ASSERT_TRUE(live.ok()) << live.status();

  ServerOptions options;
  options.num_workers = 1;  // serial execution: pipelined order IS the order
  WalrusServer server(**live, live->get(), options);
  ASSERT_TRUE(server.Start().ok());
  auto client = WalrusClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  const uint64_t new_id = 9000;
  const ImageF& novel = dataset_[0].image;
  QueryOptions query_options;
  query_options.epsilon = 0.085f;

  std::vector<uint64_t> ids;
  auto push = [&](Result<uint64_t> id) {
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  };
  push(client->SendInsertImage(new_id, "novel", novel));
  push(client->SendQuery(novel, query_options));
  push(client->SendDeleteImage(new_id));
  push(client->SendQuery(novel, query_options));

  std::vector<RemoteResponse> responses;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto response = client->ReceiveResponse();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->request_id, ids[i]) << "response " << i;
    responses.push_back(std::move(*response));
  }
  EXPECT_TRUE(responses[0].status.ok()) << responses[0].status;  // insert
  EXPECT_TRUE(responses[2].status.ok()) << responses[2].status;  // delete

  auto with_insert = WalrusClient::ParseQueryResult(responses[1]);
  ASSERT_TRUE(with_insert.ok()) << with_insert.status();
  auto after_delete = WalrusClient::ParseQueryResult(responses[3]);
  ASSERT_TRUE(after_delete.ok()) << after_delete.status();
  auto contains = [&](const std::vector<QueryMatch>& matches) {
    for (const QueryMatch& match : matches) {
      if (match.image_id == new_id) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains(with_insert->matches))
      << "query pipelined behind the insert missed the inserted image";
  EXPECT_FALSE(contains(after_delete->matches))
      << "query pipelined behind the delete still sees the deleted image";
  server.Stop();
}

// Non-finite pixels sent over the wire are refused per request: QUERY,
// SCENE_QUERY and INSERT_IMAGE each answer InvalidArgument, nothing is
// logged, and the same connection keeps serving.
TEST_F(WalrusServerTest, NonFinitePixelsAreRejectedPerRequest) {
  std::string dir = FreshDir("walrus_server_nonfinite_wal");
  LiveIndex::Options live_options;
  live_options.merge_threshold = 0;
  auto live = LiveIndex::Open(dir, TestParams(), live_options, index_.get());
  ASSERT_TRUE(live.ok()) << live.status();
  const size_t images_before = (*live)->ImageCount();
  const uint64_t wal_before = (*live)->IngestStatsSnapshot().wal_records;

  WalrusServer server(**live, live->get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = WalrusClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  QueryOptions options;
  options.epsilon = 0.085f;
  uint64_t id = 7000;
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    ImageF image = dataset_[1].image;
    image.Plane(0)[30 * 64 + 30] = bad;
    auto query = client->Query(image, options);
    EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument)
        << bad << ": " << query.status();
    auto scene = client->SceneQuery(image, PixelRect{16, 16, 32, 32}, options);
    EXPECT_EQ(scene.status().code(), StatusCode::kInvalidArgument)
        << bad << ": " << scene.status();
    Status insert = client->InsertImage(id++, "bad", image);
    EXPECT_EQ(insert.code(), StatusCode::kInvalidArgument)
        << bad << ": " << insert;
    EXPECT_TRUE(client->Ping().ok()) << "connection unusable after " << bad;
  }
  EXPECT_EQ((*live)->ImageCount(), images_before);
  EXPECT_EQ((*live)->IngestStatsSnapshot().wal_records, wal_before);
  auto good = client->Query(dataset_[1].image, options);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_FALSE(good->matches.empty());
  server.Stop();
}

// Pipelined queries through an 8-shard engine stay byte-identical to the
// single-index pipeline (the reactor sits in front of the same fan-out).
TEST_F(WalrusServerTest, PipelinedShardedQueriesStayByteIdentical) {
  ShardedIndex::Options shard_options;
  shard_options.num_shards = 8;
  auto sharded = ShardedIndex::Partition(*index_, shard_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  WalrusServer server(*sharded, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = WalrusClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  QueryOptions options;
  options.epsilon = 0.085f;
  std::vector<ImageF> images;
  for (int q = 0; q < 6; ++q) images.push_back(dataset_[q].image);
  auto remote = client->QueryPipelined(images, options);
  ASSERT_TRUE(remote.ok()) << remote.status();
  for (size_t q = 0; q < images.size(); ++q) {
    auto local = ExecuteQuery(*index_, images[q], options);
    ASSERT_TRUE(local.ok()) << local.status();
    EXPECT_EQ(MatchBytes((*remote)[q].matches), MatchBytes(*local))
        << "sharded pipelined query " << q;
  }
  server.Stop();
}

// A malformed frame (bad magic) mid-pipeline: every response for the
// requests before it arrives intact and in order, then the error reply,
// then the connection closes.
TEST_F(WalrusServerTest, MidPipelineBadMagicPreservesPriorResponses) {
  ServerOptions options;
  options.num_workers = 2;
  options.execution_delay_ms = 30;  // keep the good requests in flight
  WalrusServer server(*index_, options);
  ASSERT_TRUE(server.Start().ok());

  auto fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  constexpr uint64_t kGood = 3;
  std::vector<uint8_t> burst;
  for (uint64_t i = 0; i < kGood; ++i) {
    std::vector<uint8_t> frame = EncodeFrame(Opcode::kPing, 100 + i, {});
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  std::vector<uint8_t> bad = EncodeFrame(Opcode::kPing, 999, {});
  bad[0] ^= 0xFF;  // framing lost from here
  burst.insert(burst.end(), bad.begin(), bad.end());
  ASSERT_TRUE(WriteFull(fd->get(), burst.data(), burst.size()).ok());

  // The three good pings answer OK, in order, despite the poison behind
  // them already being buffered server-side.
  for (uint64_t i = 0; i < kGood; ++i) {
    std::vector<uint8_t> header_bytes(kFrameHeaderBytes);
    ASSERT_TRUE(
        ReadFull(fd->get(), header_bytes.data(), header_bytes.size()).ok());
    FrameHeader header;
    ASSERT_TRUE(DecodeFrameHeader(header_bytes.data(), &header).ok());
    EXPECT_EQ(header.request_id, 100 + i) << "response " << i;
    std::vector<uint8_t> body(header.body_length);
    ASSERT_TRUE(ReadFull(fd->get(), body.data(), body.size()).ok());
    uint8_t trailer[kFrameTrailerBytes];
    ASSERT_TRUE(ReadFull(fd->get(), trailer, sizeof(trailer)).ok());
    BinaryReader reader(body);
    Status remote;
    ASSERT_TRUE(DecodeResponseStatus(&reader, &remote).ok());
    EXPECT_TRUE(remote.ok()) << remote;
  }
  // Then the Corruption reply for the poisoned frame, then EOF.
  {
    std::vector<uint8_t> header_bytes(kFrameHeaderBytes);
    ASSERT_TRUE(
        ReadFull(fd->get(), header_bytes.data(), header_bytes.size()).ok());
    FrameHeader header;
    ASSERT_TRUE(DecodeFrameHeader(header_bytes.data(), &header).ok());
    std::vector<uint8_t> body(header.body_length);
    ASSERT_TRUE(ReadFull(fd->get(), body.data(), body.size()).ok());
    uint8_t trailer[kFrameTrailerBytes];
    ASSERT_TRUE(ReadFull(fd->get(), trailer, sizeof(trailer)).ok());
    BinaryReader reader(body);
    Status remote;
    ASSERT_TRUE(DecodeResponseStatus(&reader, &remote).ok());
    EXPECT_EQ(remote.code(), StatusCode::kCorruption) << remote;
  }
  uint8_t byte;
  EXPECT_FALSE(ReadFull(fd->get(), &byte, 1).ok());
  server.Stop();
}

// Regression for the drain bug: shutdown must flush responses that are
// queued but not yet written, not just wait for in-flight handlers. A
// tiny client receive buffer keeps most of the 16 METRICS responses
// queued server-side when Stop() begins; all 16 must still arrive.
TEST_F(WalrusServerTest, StopFlushesQueuedResponsesToSlowReader) {
  ServerOptions options;
  options.num_workers = 2;
  WalrusServer server(*index_, options);
  ASSERT_TRUE(server.Start().ok());

  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(fd.valid());
  // Shrink the receive window before connecting so the server's writes
  // stall with data still queued in its per-connection outbound queue.
  int tiny = 2048;
  ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &tiny,
                         sizeof(tiny)),
            0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  constexpr uint64_t kRequests = 16;
  std::vector<uint8_t> burst;
  for (uint64_t i = 0; i < kRequests; ++i) {
    // METRICS responses are multi-KB: 16 of them cannot fit in the tiny
    // receive window, so they pile up in the outbound queue.
    std::vector<uint8_t> frame = EncodeFrame(Opcode::kMetrics, i, {});
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(WriteFull(fd.get(), burst.data(), burst.size()).ok());

  // Let the workers execute and the outbound queue fill, then stop the
  // server while the client has read nothing.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread stopper([&] { server.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Every response must still arrive, in order, followed by EOF.
  for (uint64_t i = 0; i < kRequests; ++i) {
    std::vector<uint8_t> header_bytes(kFrameHeaderBytes);
    ASSERT_TRUE(
        ReadFull(fd.get(), header_bytes.data(), header_bytes.size()).ok())
        << "response " << i << " lost in shutdown";
    FrameHeader header;
    ASSERT_TRUE(DecodeFrameHeader(header_bytes.data(), &header).ok());
    EXPECT_EQ(header.request_id, i);
    std::vector<uint8_t> body(header.body_length);
    ASSERT_TRUE(ReadFull(fd.get(), body.data(), body.size()).ok());
    uint8_t trailer[kFrameTrailerBytes];
    ASSERT_TRUE(ReadFull(fd.get(), trailer, sizeof(trailer)).ok());
    BinaryReader reader(body);
    Status remote;
    ASSERT_TRUE(DecodeResponseStatus(&reader, &remote).ok());
    EXPECT_TRUE(remote.ok()) << remote;
  }
  uint8_t byte;
  EXPECT_FALSE(ReadFull(fd.get(), &byte, 1).ok());
  stopper.join();
}

}  // namespace
}  // namespace walrus
