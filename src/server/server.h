#ifndef WALRUS_SERVER_SERVER_H_
#define WALRUS_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/socket.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/index.h"
#include "core/query_engine.h"
#include "server/protocol.h"
#include "server/reactor.h"

namespace walrus {

/// Server knobs.
struct ServerOptions {
  /// Numeric IPv4 address to bind (loopback by default: walrusd fronts the
  /// index for co-located clients; put a real proxy in front for the wild).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// Worker threads executing requests; 0 = hardware concurrency.
  int num_workers = 0;
  /// Reactor event-loop threads (each owns an epoll set; connections are
  /// pinned round-robin); 0 = hardware concurrency.
  int reactor_threads = 0;
  /// Admission bound: maximum requests admitted (queued + executing) at
  /// once. Requests beyond it are rejected immediately with an OVERLOADED
  /// (Unavailable) reply instead of queueing unboundedly.
  int max_pending = 128;
  /// Per-request deadline in milliseconds, measured from admission. A
  /// request still waiting in the queue when it expires is answered with
  /// DeadlineExceeded instead of executing. 0 disables.
  int deadline_ms = 0;
  /// Per-connection backpressure budget: once this many response bytes are
  /// queued but unwritten on one connection, its event loop stops reading
  /// from it (the kernel receive buffer then pushes back on the peer)
  /// until the queue drains below half the budget.
  size_t max_conn_outbound_bytes = 4u << 20;
  /// Graceful-drain bound: at shutdown, connections whose queued responses
  /// a slow peer has not read within this window are force-closed.
  int drain_timeout_ms = 5000;
  /// When > 0, cap each connection's kernel send buffer (SO_SNDBUF) to
  /// roughly this many bytes. Bounds kernel memory per slow peer and makes
  /// the outbound-queue backpressure engage predictably instead of after
  /// the kernel autotunes multi-megabyte buffers. 0 keeps the default.
  int so_sndbuf_bytes = 0;
  /// Test hook: every request handler sleeps this long before executing
  /// (makes overload/deadline/drain behaviour deterministic in tests).
  int execution_delay_ms = 0;
};

/// `walrusd`: a TCP query server exposing one shared read-only WalrusIndex
/// (in-memory or paged) to many concurrent connections over the framed
/// binary protocol in server/protocol.h.
///
/// Architecture (DESIGN.md section 15): one accept thread hands sockets to
/// a fixed set of epoll event loops (ServerOptions::reactor_threads); each
/// connection is pinned to one loop, which does all its socket I/O and
/// frame parsing on nonblocking descriptors. Decoded requests pass bounded
/// admission and execute on a shared ThreadPool; responses are queued per
/// connection and written back by the owning loop with scatter-gather
/// writes (writev), so slow peers never block a worker thread.
///
/// Pipelining: a client may keep any number of requests in flight on one
/// connection; responses come back in request order (each request claims a
/// sequence number at parse time, and completions are reordered before
/// hitting the wire). Malformed frames with an intact frame boundary (bad
/// CRC, unsupported version, unknown opcode, undecodable body) error the
/// single request and keep the connection; a lost boundary (bad magic,
/// oversized body length) errors and closes it -- after every prior
/// response has been written. The process never goes down on peer input.
///
/// Lifecycle: Start() begins serving; Wait() blocks until a stop is
/// requested (RequestStop(), a SHUTDOWN request, or Stop()) and then
/// drains gracefully -- in-flight requests finish AND every
/// queued-but-unwritten response is flushed (bounded by
/// ServerOptions::drain_timeout_ms) before connections close.
class WalrusServer : public FrameSink {
 public:
  /// `index` must outlive the server and is queried concurrently; it is
  /// never mutated. Serves through an internally owned SingleIndexEngine.
  WalrusServer(const WalrusIndex& index, ServerOptions options);

  /// Serves any query engine — this is how walrusd runs sharded
  /// (`--shards N` builds a ShardedIndex and hands it here). `engine` must
  /// outlive the server; it is queried concurrently and never mutated.
  WalrusServer(const QueryEngine& engine, ServerOptions options);

  /// Serves a mutable engine: queries go to `engine`, INSERT_IMAGE /
  /// DELETE_IMAGE go to `ingest` (the live engine implements both
  /// interfaces — `walrus_serve --wal-dir` passes the same object twice).
  /// `ingest` may be nullptr, which answers mutations with Unimplemented;
  /// otherwise it must outlive the server and support concurrent calls.
  WalrusServer(const QueryEngine& engine, IngestEngine* ingest,
               ServerOptions options);
  ~WalrusServer() override;

  WalrusServer(const WalrusServer&) = delete;
  WalrusServer& operator=(const WalrusServer&) = delete;

  /// Binds, listens, and spawns the accept thread, event loops, and
  /// worker pool.
  Status Start();

  /// The bound port (valid after Start; resolves ephemeral binds).
  uint16_t port() const { return port_; }

  /// Signals shutdown without blocking. Safe from any thread, including
  /// request handlers (the SHUTDOWN opcode uses it).
  void RequestStop() WALRUS_EXCLUDES(stop_mutex_);

  /// Blocks until a stop is requested, then tears down: stops accepting,
  /// stops reading, drains in-flight requests, flushes every queued
  /// response, and joins every thread. Call from the owning thread.
  void Wait();

  /// RequestStop() + Wait().
  void Stop();

  /// Snapshot of the counters served by the STATS opcode.
  ServerStats Snapshot() const;

 private:
  void AcceptLoop();

  /// FrameSink: parses complete frames out of `conn`'s input buffer on
  /// the owning loop thread and dispatches them. Implements the error
  /// taxonomy in the class comment.
  void OnInput(const std::shared_ptr<ReactorConn>& conn) override;

  /// Admission control + dispatch of one well-framed request.
  void DispatchRequest(const std::shared_ptr<ReactorConn>& conn,
                       const FrameHeader& header, std::vector<uint8_t> body);
  /// Executes a request on a worker thread; returns the response frame's
  /// body chunks ([status section, payload]) for sequence slot `seq`.
  void ExecuteRequest(const std::shared_ptr<ReactorConn>& conn, uint64_t seq,
                      const FrameHeader& header,
                      const std::vector<uint8_t>& body,
                      std::chrono::steady_clock::time_point admitted);
  /// Enqueues a response frame for slot `seq` (status + optional payload).
  /// `payload` is moved into the frame's scatter-gather chunks uncopied.
  void Respond(const std::shared_ptr<ReactorConn>& conn, uint64_t seq,
               const FrameHeader& header, const Status& status,
               std::vector<uint8_t> payload, bool ends_in_flight);

  /// Set only by the WalrusIndex convenience ctor; engine_ points at it.
  std::unique_ptr<SingleIndexEngine> owned_engine_;
  const QueryEngine& engine_;
  /// Mutation surface, or nullptr for a read-only server.
  IngestEngine* const ingest_ = nullptr;
  ServerOptions options_;
  uint16_t port_ = 0;

  UniqueFd listen_fd_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread accept_thread_;
  /// The reactor: event loops owning epoll sets and pinned connections.
  std::vector<std::unique_ptr<EventLoop>> loops_;
  size_t next_loop_ = 0;  // accept-thread only: round-robin pinning
  ReactorStats reactor_stats_;

  Mutex stop_mutex_;
  CondVar stop_cv_;
  bool stop_requested_ WALRUS_GUARDED_BY(stop_mutex_) = false;
  std::atomic<bool> stopping_{false};
  /// Lifecycle flags, touched only by the owning thread (the one that
  /// calls Start/Wait/Stop and destroys the server) — unguarded by design.
  bool started_ = false;
  bool joined_ = false;

  std::atomic<int> pending_{0};
  std::atomic<uint64_t> requests_by_opcode_[kNumOpcodes];
  std::atomic<uint64_t> rejected_overload_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  /// This server's request latency in seconds (STATS p50/p99), in the
  /// bucket shape of walrus.server.request_seconds. Kept per server rather
  /// than read from the process-wide registry, which sums every server.
  Histogram latency_{ExponentialBuckets(1e-6, 2.0, 36)};
};

}  // namespace walrus

#endif  // WALRUS_SERVER_SERVER_H_
