#include "server/server.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/status.h"

namespace walrus {

namespace {

using Clock = std::chrono::steady_clock;

bool KnownOpcode(Opcode opcode) {
  return static_cast<uint8_t>(opcode) < kNumOpcodes;
}

/// Registry mirror of the per-server latency histogram: cumulative across
/// every server in the process, and in the shared exponential bucket shape
/// the rest of the query path uses.
Histogram* RequestSecondsHistogram() {
  static Histogram* const histogram = MetricsRegistry::Global().GetHistogram(
      "walrus.server.request_seconds", ExponentialBuckets(1e-6, 2.0, 36));
  return histogram;
}

}  // namespace

WalrusServer::WalrusServer(const WalrusIndex& index, ServerOptions options)
    : owned_engine_(std::make_unique<SingleIndexEngine>(index)),
      engine_(*owned_engine_),
      options_(std::move(options)) {
  for (auto& counter : requests_by_opcode_) counter.store(0);
}

WalrusServer::WalrusServer(const QueryEngine& engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  for (auto& counter : requests_by_opcode_) counter.store(0);
}

WalrusServer::WalrusServer(const QueryEngine& engine, IngestEngine* ingest,
                           ServerOptions options)
    : engine_(engine), ingest_(ingest), options_(std::move(options)) {
  for (auto& counter : requests_by_opcode_) counter.store(0);
}

WalrusServer::~WalrusServer() {
  if (started_ && !joined_) Stop();
}

Status WalrusServer::Start() {
  WALRUS_ASSIGN_OR_RETURN(listen_fd_,
                          ListenTcp(options_.host, options_.port));
  WALRUS_ASSIGN_OR_RETURN(port_, SocketLocalPort(listen_fd_.get()));

  MetricsRegistry& registry = MetricsRegistry::Global();
  reactor_stats_.wakeups =
      registry.GetCounter("walrus.server.reactor.wakeups");
  reactor_stats_.stalled_reads =
      registry.GetCounter("walrus.server.reactor.stalled_reads");
  reactor_stats_.queue_bytes =
      registry.GetGauge("walrus.server.reactor.queue_bytes");
  reactor_stats_.in_flight =
      registry.GetGauge("walrus.server.reactor.in_flight");
  reactor_stats_.connections =
      registry.GetGauge("walrus.server.reactor.connections");
  reactor_stats_.bytes_out = &bytes_out_;

  ReactorOptions reactor_options;
  reactor_options.max_conn_outbound_bytes = options_.max_conn_outbound_bytes;
  reactor_options.so_sndbuf_bytes = options_.so_sndbuf_bytes;
  int num_loops = options_.reactor_threads > 0 ? options_.reactor_threads
                                               : ThreadPool::DefaultThreads();
  for (int i = 0; i < num_loops; ++i) {
    auto loop =
        std::make_unique<EventLoop>(this, &reactor_stats_, reactor_options);
    if (!loop->ok()) {
      loops_.clear();
      return Status::IOError("failed to start reactor event loop (epoll)");
    }
    loops_.push_back(std::move(loop));
  }

  int workers = options_.num_workers > 0 ? options_.num_workers
                                         : ThreadPool::DefaultThreads();
  pool_ = std::make_unique<ThreadPool>(workers);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  EngineStats engine_stats = engine_.Stats();
  WALRUS_LOG(Info) << "walrusd serving " << engine_.ImageCount()
                   << " images on " << options_.host << ":" << port_ << " ("
                   << engine_stats.num_shards << " shard(s), " << num_loops
                   << " reactor loop(s), " << workers
                   << " workers, admission bound " << options_.max_pending
                   << ")";
  return Status::OK();
}

void WalrusServer::RequestStop() {
  {
    MutexLock lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.NotifyAll();
}

void WalrusServer::Stop() {
  RequestStop();
  Wait();
}

void WalrusServer::Wait() {
  if (!started_ || joined_) return;
  {
    MutexLock lock(stop_mutex_);
    while (!stop_requested_) stop_cv_.Wait(lock);
  }
  stopping_.store(true, std::memory_order_release);

  // 1. Stop accepting: shutting the listener down unblocks accept(2). The
  // fd itself is closed only after the accept thread is joined, so the
  // thread never reads a dead descriptor.
  ShutdownRead(listen_fd_.get());
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_.Close();

  // 2. Quiesce the read side. BeginDrain is a synchronous handshake: when
  // it returns, that loop parses no further frame, so no new request can
  // reach the pool behind the drain below.
  for (const std::unique_ptr<EventLoop>& loop : loops_) loop->BeginDrain();

  // 3. Drain: every admitted request executes and its response is queued.
  pool_->Wait();
  pool_.reset();

  // 4. Flush: the loops write out every queued-but-unwritten response
  // (this is what makes SHUTDOWN's own reply reach the client), bounded by
  // the drain timeout for peers that stopped reading, then exit.
  for (const std::unique_ptr<EventLoop>& loop : loops_) {
    loop->FinishDrain(options_.drain_timeout_ms);
  }
  for (const std::unique_ptr<EventLoop>& loop : loops_) loop->Join();
  loops_.clear();
  joined_ = true;
}

void WalrusServer::AcceptLoop() {
  for (;;) {
    Result<UniqueFd> accepted = AcceptTcp(listen_fd_.get());
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_acquire)) return;
      // Transient accept failure (e.g. EMFILE): keep serving, but don't
      // spin hot if the condition persists.
      WALRUS_LOG(Warning) << "walrusd accept: " << accepted.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    loops_[next_loop_]->Adopt(std::move(*accepted));
    next_loop_ = (next_loop_ + 1) % loops_.size();
  }
}

void WalrusServer::OnInput(const std::shared_ptr<ReactorConn>& conn) {
  for (;;) {
    const uint8_t* data;
    size_t avail = conn->PendingInput(&data);
    if (avail < kFrameHeaderBytes) return;  // partial header: wait

    FrameHeader header;
    Status parsed = DecodeFrameHeader(data, &header);
    if (parsed.code() == StatusCode::kCorruption) {
      // Bad magic: the byte stream is not frame-aligned, so nothing after
      // this point can be trusted. Error the request id we can't know (0)
      // and drop the connection -- after every prior response has been
      // written (the error reply takes the next sequence slot, so it
      // flushes behind them).
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      Respond(conn, conn->AllocateSeq(), FrameHeader{}, parsed, {}, false);
      conn->CloseAfterFlush();
      return;
    }
    if (!parsed.ok() && header.body_length > kMaxBodyBytes) {
      // Oversized body length: buffering past it to resync would let a
      // peer stream gigabytes at us; reply and close.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      Respond(conn, conn->AllocateSeq(), header, parsed, {}, false);
      conn->CloseAfterFlush();
      return;
    }

    const size_t frame_bytes =
        kFrameHeaderBytes + header.body_length + kFrameTrailerBytes;
    if (avail < frame_bytes) return;  // partial frame: wait for more bytes

    // The whole frame is buffered and its boundary is intact: any further
    // error costs only this request, not the connection.
    const uint8_t* body_data = data + kFrameHeaderBytes;
    const uint8_t* trailer = body_data + header.body_length;
    bytes_in_.fetch_add(frame_bytes, std::memory_order_relaxed);

    uint32_t stored = static_cast<uint32_t>(trailer[0]) |
                      static_cast<uint32_t>(trailer[1]) << 8 |
                      static_cast<uint32_t>(trailer[2]) << 16 |
                      static_cast<uint32_t>(trailer[3]) << 24;
    uint32_t actual = Crc32Extend(Crc32Extend(0, data, kFrameHeaderBytes),
                                  body_data, header.body_length);
    if (stored != actual) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      Respond(conn, conn->AllocateSeq(), header,
              Status::Corruption("frame: CRC-32 trailer mismatch"), {},
              false);
      conn->ConsumeInput(frame_bytes);
      continue;
    }
    if (!parsed.ok()) {  // unsupported version, boundary intact
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      Respond(conn, conn->AllocateSeq(), header, parsed, {}, false);
      conn->ConsumeInput(frame_bytes);
      continue;
    }
    if (!KnownOpcode(header.opcode)) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      Respond(conn, conn->AllocateSeq(), header,
              Status::InvalidArgument(
                  "frame: unknown opcode " +
                  std::to_string(static_cast<int>(header.opcode))),
              {}, false);
      conn->ConsumeInput(frame_bytes);
      continue;
    }

    requests_by_opcode_[static_cast<int>(header.opcode)].fetch_add(
        1, std::memory_order_relaxed);
    std::vector<uint8_t> body(body_data, body_data + header.body_length);
    conn->ConsumeInput(frame_bytes);
    DispatchRequest(conn, header, std::move(body));
  }
}

void WalrusServer::DispatchRequest(const std::shared_ptr<ReactorConn>& conn,
                                   const FrameHeader& header,
                                   std::vector<uint8_t> body) {
  // Bounded admission: claim a slot or reject right here on the loop
  // thread, so an overloaded server answers OVERLOADED in O(1) instead of
  // stacking work it cannot serve. The rejection still claims a sequence
  // slot, so a pipelining client sees it in request order.
  int before = pending_.fetch_add(1, std::memory_order_acq_rel);
  if (before >= options_.max_pending) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    Respond(conn, conn->AllocateSeq(), header,
            Status::Unavailable("OVERLOADED: admission queue full (" +
                                std::to_string(options_.max_pending) +
                                " in flight)"),
            {}, false);
    return;
  }
  uint64_t seq = conn->AllocateSeq();
  conn->BeginRequest();
  auto admitted = Clock::now();
  auto shared_body = std::make_shared<std::vector<uint8_t>>(std::move(body));
  pool_->Submit([this, conn, seq, header, shared_body, admitted] {
    ExecuteRequest(conn, seq, header, *shared_body, admitted);
    pending_.fetch_sub(1, std::memory_order_acq_rel);
  });
}

void WalrusServer::ExecuteRequest(const std::shared_ptr<ReactorConn>& conn,
                                  uint64_t seq, const FrameHeader& header,
                                  const std::vector<uint8_t>& body,
                                  Clock::time_point admitted) {
  if (options_.deadline_ms > 0 &&
      Clock::now() - admitted >=
          std::chrono::milliseconds(options_.deadline_ms)) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    Respond(conn, seq, header,
            Status::DeadlineExceeded(
                "request spent over " +
                std::to_string(options_.deadline_ms) +
                "ms in the admission queue"),
            {}, true);
    return;
  }
  if (options_.execution_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.execution_delay_ms));
  }

  BinaryReader reader(body);
  BinaryWriter payload;
  Status status = Status::OK();
  switch (header.opcode) {
    case Opcode::kPing:
      break;
    case Opcode::kQuery:
    case Opcode::kSceneQuery: {
      QueryOptions query_options;
      PixelRect scene;
      ImageF image;
      Status decoded = [&]() -> Status {
        WALRUS_ASSIGN_OR_RETURN(query_options,
                                DecodeQueryOptions(&reader));
        if (header.opcode == Opcode::kSceneQuery) {
          WALRUS_ASSIGN_OR_RETURN(scene, DecodePixelRect(&reader));
        }
        WALRUS_ASSIGN_OR_RETURN(image, DecodeImage(&reader));
        return Status::OK();
      }();
      if (!decoded.ok()) {
        // Body decode failures are protocol errors (the frame checksummed
        // fine but its contents are not a valid request).
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        status = decoded;
        break;
      }
      QueryStats stats;
      Result<std::vector<QueryMatch>> matches =
          header.opcode == Opcode::kQuery
              ? engine_.RunQuery(image, query_options, &stats)
              : engine_.RunSceneQuery(image, scene, query_options, &stats);
      if (!matches.ok()) {
        status = matches.status();
        break;
      }
      EncodeMatches(*matches, &payload);
      EncodeQueryStats(stats, &payload);
      break;
    }
    case Opcode::kStats:
      EncodeServerStats(Snapshot(), &payload);
      break;
    case Opcode::kShutdown:
      RequestStop();
      break;
    case Opcode::kMetrics:
      EncodeMetricsSnapshot(MetricsRegistry::Global().Snapshot(), &payload);
      break;
    case Opcode::kInsertImage: {
      uint64_t image_id = 0;
      std::string name;
      ImageF image;
      Status decoded = [&]() -> Status {
        WALRUS_ASSIGN_OR_RETURN(image_id, reader.GetU64());
        WALRUS_ASSIGN_OR_RETURN(name, reader.GetString());
        WALRUS_ASSIGN_OR_RETURN(image, DecodeImage(&reader));
        return Status::OK();
      }();
      if (!decoded.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        status = decoded;
        break;
      }
      if (ingest_ == nullptr) {
        status = Status::Unimplemented(
            "server is read-only (started without --wal-dir)");
        break;
      }
      status = ingest_->InsertImage(image_id, name, image);
      break;
    }
    case Opcode::kDeleteImage: {
      Result<uint64_t> image_id = reader.GetU64();
      if (!image_id.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        status = image_id.status();
        break;
      }
      if (ingest_ == nullptr) {
        status = Status::Unimplemented(
            "server is read-only (started without --wal-dir)");
        break;
      }
      status = ingest_->DeleteImage(*image_id);
      break;
    }
  }
  if (!status.ok()) {
    // The same failure context discipline as ExecuteQueryBatch: name the
    // request so a client multiplexing many can tell which one failed.
    status = Annotate(status, std::string(OpcodeName(header.opcode)) +
                                  " request " +
                                  std::to_string(header.request_id));
  }
  Respond(conn, seq, header, status, payload.TakeBuffer(), true);
  double seconds =
      std::chrono::duration<double>(Clock::now() - admitted).count();
  latency_.Observe(seconds);
  RequestSecondsHistogram()->Observe(seconds);
}

void WalrusServer::Respond(const std::shared_ptr<ReactorConn>& conn,
                           uint64_t seq, const FrameHeader& header,
                           const Status& status,
                           std::vector<uint8_t> payload,
                           bool ends_in_flight) {
  BinaryWriter status_section;
  EncodeResponseStatus(status, &status_section);
  std::vector<std::vector<uint8_t>> chunks;
  chunks.reserve(2);
  chunks.push_back(status_section.TakeBuffer());
  if (status.ok() && !payload.empty()) {
    chunks.push_back(std::move(payload));  // zero-copy into the writev path
  }
  conn->Respond(
      seq, MakeFrameParts(header.opcode, header.request_id, std::move(chunks)),
      ends_in_flight);
}

ServerStats WalrusServer::Snapshot() const {
  ServerStats stats;
  for (int i = 0; i < kNumOpcodes; ++i) {
    stats.requests_by_opcode[i] =
        requests_by_opcode_[i].load(std::memory_order_relaxed);
  }
  stats.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  stats.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  MetricValue latency = latency_.Snapshot();
  stats.latency_p50_ms = HistogramQuantile(latency, 0.50) * 1e3;
  stats.latency_p99_ms = HistogramQuantile(latency, 0.99) * 1e3;
  EngineStats engine_stats = engine_.Stats();
  stats.num_shards = static_cast<uint32_t>(engine_stats.num_shards);
  stats.shard_probes = std::move(engine_stats.shard_probes);
  if (ingest_ != nullptr) {
    stats.has_ingest = true;
    stats.ingest = ingest_->IngestStatsSnapshot();
  }
  return stats;
}

}  // namespace walrus
