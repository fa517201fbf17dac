// wire_table1: walrusd on loopback in front of one in-memory index at the
// paper's Table 1 scale (1000 scenes, about 10.7k regions, eps = 0.085,
// quick matcher, top 10, no result cache). The only workload that crosses
// the server codec and transport.

#include <memory>
#include <thread>

#include "layers.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kScenes = 1000;
constexpr int kQueries = 1024;
/// Threads: one reactor loop and one worker in the server, two callers in
/// the generator, so server plus generator fit four processors.
constexpr int kReactorThreads = 1;
constexpr int kServerWorkers = 1;
constexpr int kCallers = 2;
/// Open-loop rate: a little under half the closed-loop capacity of this
/// thread plan on a 4-processor x86 VM (320-400 queries/s), leaving room
/// for the host's slow spells. Fixed, so every commit sees the same load.
constexpr double kOpenRate = 150.0;
/// Share of the measured time spent in the open loop; the rest is the
/// closed loop that gives query_qps. The two alternate over kRounds.
constexpr double kOpenShare = 0.75;
constexpr int kRounds = 3;

struct Serving {
  std::unique_ptr<walrus::WalrusIndex> index;
  std::unique_ptr<walrus::WalrusServer> server;
  std::vector<walrus::WalrusClient> clients;

  ~Serving() {
    clients.clear();
    if (server != nullptr) server->Stop();
  }
};

/// Builds the index, starts walrusd and connects every caller.
walrus::Status SetUp(const std::vector<walrus::ImageF>& scenes,
                     Serving* serving) {
  auto index = BuildIndex(Table1Params(), scenes);
  if (!index.ok()) return index.status();
  serving->index = std::make_unique<walrus::WalrusIndex>(std::move(*index));
  walrus::ServerOptions options;
  options.num_workers = kServerWorkers;
  options.reactor_threads = kReactorThreads;
  serving->server =
      std::make_unique<walrus::WalrusServer>(*serving->index, options);
  walrus::Status started = serving->server->Start();
  if (!started.ok()) return started;
  for (int c = 0; c < kCallers; ++c) {
    auto client =
        walrus::WalrusClient::Connect("127.0.0.1", serving->server->port());
    if (!client.ok()) return client.status();
    serving->clients.push_back(std::move(*client));
  }
  return walrus::Status::OK();
}

}  // namespace

RunResult RunWireTable1(const Args& args) {
  RunResult result;
  const std::vector<walrus::ImageF> scenes =
      GenerateScenes(args.seed, 0, kScenes);
  const std::vector<walrus::ImageF> queries =
      GenerateScenes(args.seed, kQuerySceneBase, kQueries);
  walrus::QueryOptions options;
  options.epsilon = 0.085f;
  options.matcher = walrus::MatcherKind::kQuick;
  options.top_k = 10;

  // Set-up: the first instance serves the run; the others only time it.
  std::vector<double> setup_seconds;
  const double rss_before = ResidentMiB();
  Serving serving;
  Clock::time_point t0 = Clock::now();
  walrus::Status status = SetUp(scenes, &serving);
  setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
  if (!status.ok()) {
    result.Fail("setup: " + status.ToString());
    result.correct = false;
    return result;
  }
  result.Metric("rss_mb", ResidentMiB() - rss_before, "MiB");
  for (int r = 1; r < kSetupRepeats; ++r) {
    Serving extra;
    t0 = Clock::now();
    status = SetUp(scenes, &extra);
    setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
    if (!status.ok()) result.Fail("setup: " + status.ToString());
  }
  ReportSetup(setup_seconds, &result);
  result.Note("index: " + std::to_string(serving.index->ImageCount()) +
              " images, " + std::to_string(serving.index->RegionCount()) +
              " regions");

  // Reference rankings: the in-process pipeline on the same index.
  auto refs = walrus::ExecuteQueryBatch(*serving.index, queries, options,
                                        NumProcs());
  if (!refs.ok()) {
    result.Fail("reference query: " + refs.status().ToString());
    result.correct = false;
    return result;
  }
  RankingDigest digest;
  for (const auto& ranking : *refs) digest.Add(ranking);
  CheckDigest(args, digest.Hex(), &result);

  SpanLog log(args.trace);
  std::vector<SpanLog::Buffer> buffers(kCallers);
  FailureLog failures;
  LoadOp op = [&](uint64_t i, int c) {
    const size_t q = i % queries.size();
    const uint64_t op_id = log.enabled() ? log.NewOp() : 0;
    TraceCtx ctx{&log, &buffers[static_cast<size_t>(c)], op_id, 0};
    SpanScope root(ctx.log, ctx.buffer, op_id, 0, "query");
    walrus::Result<walrus::RemoteQueryResult> reply =
        walrus::Status::Internal("unset");
    {
      SpanScope rtt(ctx.log, ctx.buffer, op_id, root.id(), "rtt");
      reply = serving.clients[static_cast<size_t>(c)].Query(queries[q],
                                                            options);
    }
    if (!reply.ok()) {
      failures.Record("query: " + reply.status().ToString());
      return false;
    }
    if (!SameRanking(reply->matches, (*refs)[q])) {
      failures.Record("wire ranking differs from ExecuteQuery, query " +
                      std::to_string(q));
      return false;
    }
    if (!log.enabled() || i % kReplayEvery != 0) return true;
    TraceCtx child = ctx.Child(root.id());
    auto staged = StagedQuery(*serving.index, queries[q], options, child);
    if (!staged.ok() || !SameRanking(*staged, (*refs)[q])) {
      failures.Record("staged replay differs, query " + std::to_string(q));
      return false;
    }
    walrus::Status codec = ReplayCodec(queries[q], options, reply->matches,
                                       child);
    if (!codec.ok()) {
      failures.Record(codec.ToString());
      return false;
    }
    return true;
  };

  LoadSamples warm = RunClosedLoop(0.5, kCallers, op);
  CountOps(warm, &result);
  for (SpanLog::Buffer& b : buffers) b.spans.clear();

  RoundsResult load =
      RunRounds(kOpenRate, args.seconds, kOpenShare, kRounds, kCallers, op);
  const LoadSamples& open = load.open;
  CountOps(open, &result);
  CountOps(load.closed, &result);
  failures.AppendTo(&result);

  ReportLatency("query", open.latency_ms, true, &result);
  result.Note(RateTimeline("closed loop", load.closed_rates));
  result.Metric("query_qps", Median(load.closed_rates), "1/s");
  result.Note("open loop: " + std::to_string(kOpenRate) + " queries/s over " +
              std::to_string(kCallers) + " connections; closed loop: " +
              std::to_string(kCallers) + " callers; server: " +
              std::to_string(kServerWorkers) + " worker, " +
              std::to_string(kReactorThreads) + " reactor thread");
  LatencySummary lag = Summarize(open.lag_ms);

  for (SpanLog::Buffer& b : buffers) log.Merge(&b);
  if (log.enabled()) {
    FinishTrace(args, &log, &result);
    auto by_op = MicrosByOp(log.spans());
    NoteLayer(&result, "server.residual_us",
              MeanResidualMicros(by_op, "rtt",
                                 {"encode", "crc", "crc", "decode", "extract",
                                  "probe", "match", "rank", "response"}),
              "us");
    NoteLayer(&result, "loadgen.lag_p99_ms", lag.tail, "ms");
  } else {
    char line[120];
    std::snprintf(line, sizeof(line), "loadgen lag: p50 %.4f ms, p%.1f %.4f ms",
                  lag.p50, lag.tail_q * 100.0, lag.tail);
    result.Note(line);
  }
  return result;
}

}  // namespace perfbench
