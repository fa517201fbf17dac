// paged_scale: 3000 scenes (about 32k regions) saved with SavePaged and
// reopened with OpenPaged, so the page tree is many times the page cache.
// Four in-process callers run a closed loop, half epsilon-range queries at
// eps = 0.05 and half kNN queries with 8 neighbours per region. Bypasses
// the server; probe and page IO dominate.

#include <memory>

#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kScenes = 3000;
constexpr int kQueries = 1024;
constexpr int kCallers = 4;

struct Mode {
  const char* name;
  walrus::QueryOptions options;
};

std::vector<Mode> Modes() {
  walrus::QueryOptions range;
  range.epsilon = 0.05f;
  range.top_k = 10;
  walrus::QueryOptions knn;
  knn.knn_per_region = 8;
  knn.top_k = 10;
  return {{"range", range}, {"knn", knn}};
}

/// Builds the in-memory index, saves it paged under `prefix` and reopens
/// it. The in-memory index is returned too: it is the reference.
walrus::Status SetUp(const std::vector<walrus::ImageF>& scenes,
                     const std::string& prefix,
                     std::unique_ptr<walrus::WalrusIndex>* memory,
                     std::unique_ptr<walrus::WalrusIndex>* paged) {
  auto built = BuildIndex(Table1Params(), scenes);
  if (!built.ok()) return built.status();
  walrus::Status saved = built->SavePaged(prefix);
  if (!saved.ok()) return saved;
  auto opened = walrus::WalrusIndex::OpenPaged(prefix);
  if (!opened.ok()) return opened.status();
  *memory = std::make_unique<walrus::WalrusIndex>(std::move(*built));
  *paged = std::make_unique<walrus::WalrusIndex>(std::move(*opened));
  return walrus::Status::OK();
}

}  // namespace

RunResult RunPagedScale(const Args& args) {
  RunResult result;
  const std::vector<walrus::ImageF> scenes =
      GenerateScenes(args.seed, 0, kScenes);
  const std::vector<walrus::ImageF> queries =
      GenerateScenes(args.seed, kQuerySceneBase, kQueries);
  const std::vector<Mode> modes = Modes();
  const std::string dir = args.out_dir + "/paged_scale";
  if (!FreshDir(dir)) {
    result.Fail("cannot create " + dir);
    result.correct = false;
    return result;
  }

  std::vector<double> setup_seconds;
  std::unique_ptr<walrus::WalrusIndex> memory;
  std::unique_ptr<walrus::WalrusIndex> paged;
  const double rss_before = ResidentMiB();
  for (int r = 0; r < kSetupRepeats; ++r) {
    std::unique_ptr<walrus::WalrusIndex> m;
    std::unique_ptr<walrus::WalrusIndex> p;
    const std::string prefix = dir + "/idx" + std::to_string(r);
    Clock::time_point t0 = Clock::now();
    walrus::Status status = SetUp(scenes, prefix, &m, &p);
    setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
    if (!status.ok()) {
      result.Fail("setup: " + status.ToString());
      result.correct = false;
      RemoveTree(dir);
      return result;
    }
    if (r == 0) {
      memory = std::move(m);
      paged = std::move(p);
    } else {
      p.reset();
      for (const char* ext : {".catalog", ".pmeta", ".ptree"}) {
        RemoveTree(prefix + ext);
      }
    }
  }
  ReportSetup(setup_seconds, &result);
  result.Note("index: " + std::to_string(paged->ImageCount()) + " images, " +
              std::to_string(paged->RegionCount()) + " regions");
  result.Figure("disk_bytes_per_region",
                static_cast<double>(DirBytes(dir, "idx0.")) /
                    static_cast<double>(paged->RegionCount()),
                "bytes");

  // Reference rankings: the in-memory index the paged one was saved from.
  std::vector<std::vector<std::vector<walrus::QueryMatch>>> refs(modes.size());
  RankingDigest digest;
  for (size_t m = 0; m < modes.size(); ++m) {
    auto rankings = walrus::ExecuteQueryBatch(*memory, queries,
                                              modes[m].options, NumProcs());
    if (!rankings.ok()) {
      result.Fail("reference query: " + rankings.status().ToString());
      result.correct = false;
      RemoveTree(dir);
      return result;
    }
    for (const auto& ranking : *rankings) digest.Add(ranking);
    refs[m] = std::move(*rankings);
  }
  CheckDigest(args, digest.Hex(), &result);
  memory.reset();

  SpanLog log(args.trace);
  std::vector<SpanLog::Buffer> buffers(kCallers);
  FailureLog failures;
  // Per caller and mode: latency of each op, for the per-mode report.
  std::vector<std::vector<std::vector<double>>> mode_ms(
      kCallers, std::vector<std::vector<double>>(modes.size()));
  LoadOp op = [&](uint64_t i, int c) {
    const Clock::time_point started = Clock::now();
    const size_t m = i % modes.size();
    const size_t q = (i / modes.size()) % queries.size();
    const walrus::QueryOptions& options = modes[m].options;
    walrus::Result<std::vector<walrus::QueryMatch>> ranking =
        walrus::Status::Internal("unset");
    if (log.enabled()) {
      const uint64_t op_id = log.NewOp();
      TraceCtx ctx{&log, &buffers[static_cast<size_t>(c)], op_id, 0};
      SpanScope root(ctx.log, ctx.buffer, op_id, 0, modes[m].name);
      TraceCtx child = ctx.Child(root.id());
      ranking = StagedQuery(*paged, queries[q], options, child);
      if (ranking.ok()) {
        walrus::Status codec =
            ReplayCodec(queries[q], options, *ranking, child);
        if (!codec.ok()) ranking = codec;
      }
    } else {
      ranking = walrus::ExecuteQuery(*paged, queries[q], options);
    }
    if (!ranking.ok()) {
      failures.Record("query: " + ranking.status().ToString());
      return false;
    }
    if (!SameRanking(*ranking, refs[m][q])) {
      failures.Record(std::string("paged ") + modes[m].name +
                      " ranking differs from the in-memory index, query " +
                      std::to_string(q));
      return false;
    }
    mode_ms[static_cast<size_t>(c)][m].push_back(
        MillisBetween(started, Clock::now()));
    return true;
  };

  LoadSamples warm = RunClosedLoop(0.5, kCallers, op);
  CountOps(warm, &result);
  for (SpanLog::Buffer& b : buffers) b.spans.clear();
  for (auto& per_caller : mode_ms) {
    for (auto& samples : per_caller) samples.clear();
  }
  // Measured once the in-memory reference index is gone: what serving the
  // paged index holds after a warm-up.
  result.Metric("rss_mb", ResidentMiB() - rss_before, "MiB");
  LoadSamples run = RunClosedLoop(args.seconds, kCallers, op);
  CountOps(run, &result);
  failures.AppendTo(&result);

  ReportLatency("query", run.latency_ms, true, &result);
  result.Metric("query_qps", Median(WindowRates(run, 1.0)), "1/s");
  result.Note("closed loop: " + std::to_string(kCallers) +
              " in-process callers, range and kNN queries alternating");
  result.Note(RateTimeline("closed loop", WindowRates(run, 1.0)));
  for (size_t m = 0; m < modes.size(); ++m) {
    std::vector<double> samples;
    for (const auto& per_caller : mode_ms) {
      samples.insert(samples.end(), per_caller[m].begin(), per_caller[m].end());
    }
    ReportLatency(modes[m].name, samples, false, &result);
  }

  for (SpanLog::Buffer& b : buffers) log.Merge(&b);
  if (log.enabled()) FinishTrace(args, &log, &result);
  paged.reset();
  RemoveTree(dir);
  return result;
}

}  // namespace perfbench
