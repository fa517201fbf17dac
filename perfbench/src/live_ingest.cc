// live_ingest: LiveIndex in a fresh directory, 4 base shards, merge
// threshold 64, seeded with 1000 scenes. One open-loop writer sends
// durable inserts of held-out scenes and deletes of older inserted ids
// while queries at eps = 0.085 run beside it, open-loop phases alternating
// with closed-loop ones. Exercises the WAL, merges and the live
// composition.

#include <deque>
#include <memory>
#include <shared_mutex>
#include <thread>

#include "layers.h"
#include "wal/live_index.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kScenes = 1000;
constexpr int kQueries = 1024;
constexpr int kShards = 4;
constexpr size_t kMergeThreshold = 64;
/// Writer: the first kBacklog ops insert new scenes; after that inserts
/// alternate with deletes of the oldest live inserted id, so the image set
/// stays the same size and query cost does not drift over the run. Every
/// later pair adds one delta image and one tombstone, so a merge follows
/// every kMergeThreshold ops. Fixed rate: a 30-second run sees about ten
/// merges.
constexpr int kBacklog = 96;
constexpr double kWriteRate = 24.0;
/// Query load: fixed-rate open loops alternating with closed loops (which
/// give query_qps) over kRounds.
constexpr double kQueryRate = 200.0;
constexpr int kQueryCallers = 2;
constexpr double kOpenShare = 0.75;
constexpr int kRounds = 3;
/// Rankings compared against an offline rebuild after the run.
constexpr int kOracleQueries = 16;
/// Queries timed for live.query_overhead_us in a traced run.
constexpr int kOverheadQueries = 64;

bool IsDelete(uint64_t op) {
  return op >= kBacklog && (op - kBacklog) % 2 == 0;
}

walrus::LiveIndex::Options LiveOptions() {
  walrus::LiveIndex::Options options;
  options.num_shards = kShards;
  options.merge_threshold = kMergeThreshold;
  return options;
}

/// live.query_overhead_us: on the quiesced live index, LiveIndex::RunQuery
/// minus the extract, probe, match and rank stages run on an offline,
/// bulk-loaded index of the same images (built the way merges build the
/// base), query by query with nothing else running.
double QuiescedOverheadMicros(const walrus::LiveIndex& live,
                              const walrus::WalrusIndex& same_images,
                              const std::vector<walrus::ImageF>& queries,
                              const walrus::QueryOptions& options) {
  auto offline = walrus::WalrusIndex::FromRecords(
      same_images.params(), same_images.catalog().images());
  if (!offline.ok()) return 0.0;
  SpanLog log(true);
  SpanLog::Buffer buffer;
  for (int s = 0; s < kOverheadQueries; ++s) {
    const size_t q = static_cast<size_t>(s) * queries.size() / kOverheadQueries;
    const uint64_t op = log.NewOp();
    {
      SpanScope span(&log, &buffer, op, 0, "live_query");
      if (!live.RunQuery(queries[q], options).ok()) return 0.0;
    }
    if (!StagedQuery(*offline, queries[q], options, {&log, &buffer, op, 0})
             .ok()) {
      return 0.0;
    }
  }
  log.Merge(&buffer);
  return MeanResidualMicros(MicrosByOp(log.spans()), "live_query",
                            {"extract", "probe", "match", "rank"});
}

/// Builds the seed index and opens a LiveIndex over it in a fresh `dir`.
walrus::Result<std::unique_ptr<walrus::LiveIndex>> SetUp(
    const std::vector<walrus::ImageF>& scenes, const std::string& dir) {
  if (!FreshDir(dir)) return walrus::Status::IOError("cannot create " + dir);
  auto seed = BuildIndex(Table1Params(), scenes);
  if (!seed.ok()) return seed.status();
  return walrus::LiveIndex::Open(dir, Table1Params(), LiveOptions(), &*seed);
}

}  // namespace

RunResult RunLiveIngest(const Args& args) {
  RunResult result;
  const std::vector<walrus::ImageF> scenes =
      GenerateScenes(args.seed, 0, kScenes);
  const std::vector<walrus::ImageF> queries =
      GenerateScenes(args.seed, kQuerySceneBase, kQueries);
  const int insert_pool =
      kBacklog + static_cast<int>(kWriteRate * args.seconds / 2) + 16;
  const std::vector<walrus::ImageF> inserts =
      GenerateScenes(args.seed, kInsertSceneBase, insert_pool);
  walrus::QueryOptions options;
  options.epsilon = 0.085f;
  options.top_k = 10;
  const std::string root = args.out_dir + "/live_ingest";
  const std::string dir = root + "/live0";

  std::vector<double> setup_seconds;
  const double rss_before = ResidentMiB();
  Clock::time_point t0 = Clock::now();
  auto opened = SetUp(scenes, dir);
  setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
  if (!opened.ok()) {
    result.Fail("setup: " + opened.status().ToString());
    result.correct = false;
    RemoveTree(root);
    return result;
  }
  std::unique_ptr<walrus::LiveIndex> live = std::move(*opened);
  result.Metric("rss_mb", ResidentMiB() - rss_before, "MiB");
  for (int r = 1; r < kSetupRepeats; ++r) {
    const std::string extra_dir = root + "/live" + std::to_string(r);
    {
      t0 = Clock::now();
      auto extra = SetUp(scenes, extra_dir);
      setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
      if (!extra.ok()) result.Fail("setup: " + extra.status().ToString());
    }
    RemoveTree(extra_dir);
  }
  ReportSetup(setup_seconds, &result);

  // Offline index of the seed images: the reference digest, and in a
  // traced run the mirror the per-layer stage replay probes. The writer
  // keeps the mirror's image set equal to the live one.
  SpanLog log(args.trace);
  auto offline = BuildIndex(Table1Params(), scenes);
  if (!offline.ok()) {
    result.Fail("offline index: " + offline.status().ToString());
    result.correct = false;
    RemoveTree(root);
    return result;
  }
  auto refs = walrus::ExecuteQueryBatch(*offline, queries, options,
                                        NumProcs());
  if (!refs.ok()) {
    result.Fail("reference query: " + refs.status().ToString());
    result.correct = false;
    RemoveTree(root);
    return result;
  }
  RankingDigest digest;
  for (const auto& ranking : *refs) digest.Add(ranking);
  CheckDigest(args, digest.Hex(), &result);
  std::unique_ptr<walrus::WalrusIndex> mirror;
  if (log.enabled()) {
    mirror = std::make_unique<walrus::WalrusIndex>(std::move(*offline));
  }
  offline = walrus::Status::Internal("moved or dropped");
  std::shared_mutex mirror_mu;

  FailureLog failures;
  const walrus::IngestStats before = live->IngestStatsSnapshot();

  // Writer state: touched only by the writer thread until it is joined.
  SpanLog::Buffer writer_buffer;
  std::deque<uint64_t> live_inserted;
  int next_insert = 0;
  uint64_t last_generation = live->generation();
  double merge_bytes = 0.0;
  auto note_merges = [&] {
    for (uint64_t g = live->generation(); last_generation < g;) {
      ++last_generation;
      merge_bytes += static_cast<double>(
          DirBytes(dir, "base." + std::to_string(last_generation) + "."));
    }
  };
  LoadOp write = [&](uint64_t k, int) {
    const uint64_t op_id = log.enabled() ? log.NewOp() : 0;
    TraceCtx ctx{&log, &writer_buffer, op_id, 0};
    bool ok = true;
    if (IsDelete(k) && !live_inserted.empty()) {
      const uint64_t id = live_inserted.front();
      SpanScope root_span(ctx.log, ctx.buffer, op_id, 0, "delete");
      walrus::Status status = walrus::Status::OK();
      {
        SpanScope span(ctx.log, ctx.buffer, op_id, root_span.id(),
                       "live_delete");
        status = live->DeleteImage(id);
      }
      if (status.ok()) {
        live_inserted.pop_front();
        if (log.enabled()) {
          std::unique_lock<std::shared_mutex> lock(mirror_mu);
          status = mirror->RemoveImage(id);
        }
      }
      if (!status.ok()) {
        failures.Record("delete: " + status.ToString());
        ok = false;
      }
    } else if (next_insert < insert_pool) {
      const int j = next_insert++;
      const uint64_t id = kInsertSceneBase + static_cast<uint64_t>(j);
      const walrus::ImageF& image = inserts[static_cast<size_t>(j)];
      SpanScope root_span(ctx.log, ctx.buffer, op_id, 0, "insert");
      walrus::Result<walrus::ImageRecord> record =
          walrus::Status::Internal("unset");
      if (log.enabled()) {
        SpanScope span(ctx.log, ctx.buffer, op_id, root_span.id(),
                       "extract_record");
        record = walrus::WalrusIndex::ExtractImageRecord(Table1Params(), id,
                                                         "insert", image);
      }
      walrus::Status status = walrus::Status::OK();
      {
        SpanScope span(ctx.log, ctx.buffer, op_id, root_span.id(),
                       "live_insert");
        status = live->InsertImage(id, "insert", image);
      }
      if (status.ok()) {
        live_inserted.push_back(id);
        if (log.enabled()) {
          std::unique_lock<std::shared_mutex> lock(mirror_mu);
          status = record.ok() ? mirror->AddImageRecord(std::move(*record))
                               : record.status();
        }
      }
      if (!status.ok()) {
        failures.Record("insert: " + status.ToString());
        ok = false;
      }
    } else {
      failures.Record("insert pool exhausted");
      ok = false;
    }
    note_merges();
    return ok;
  };

  std::vector<SpanLog::Buffer> buffers(kQueryCallers);
  LoadOp query = [&](uint64_t i, int c) {
    const size_t q = i % queries.size();
    const uint64_t op_id = log.enabled() ? log.NewOp() : 0;
    TraceCtx ctx{&log, &buffers[static_cast<size_t>(c)], op_id, 0};
    SpanScope root_span(ctx.log, ctx.buffer, op_id, 0, "query");
    walrus::Result<std::vector<walrus::QueryMatch>> ranking =
        walrus::Status::Internal("unset");
    {
      SpanScope span(ctx.log, ctx.buffer, op_id, root_span.id(), "live_query");
      ranking = live->RunQuery(queries[q], options);
    }
    if (!ranking.ok()) {
      failures.Record("query: " + ranking.status().ToString());
      return false;
    }
    if (!log.enabled() || i % kReplayEvery != 0) return true;
    TraceCtx child = ctx.Child(root_span.id());
    walrus::Result<std::vector<walrus::QueryMatch>> staged =
        walrus::Status::Internal("unset");
    {
      std::shared_lock<std::shared_mutex> lock(mirror_mu);
      staged = StagedQuery(*mirror, queries[q], options, child);
    }
    walrus::Status codec =
        staged.ok() ? ReplayCodec(queries[q], options, *staged, child)
                    : staged.status();
    if (!codec.ok()) {
      failures.Record("replay: " + codec.ToString());
      return false;
    }
    return true;
  };

  LoadSamples warm = RunClosedLoop(0.5, kQueryCallers, query);
  CountOps(warm, &result);
  for (SpanLog::Buffer& b : buffers) b.spans.clear();

  LoadSamples writes;
  std::thread writer(
      [&] { writes = RunOpenLoop(kWriteRate, args.seconds, 1, write); });
  RoundsResult load = RunRounds(kQueryRate, args.seconds, kOpenShare, kRounds,
                                kQueryCallers, query);
  const LoadSamples& open = load.open;
  writer.join();
  live->WaitForMerge();
  note_merges();
  const walrus::IngestStats after = live->IngestStatsSnapshot();
  CountOps(writes, &result);
  CountOps(open, &result);
  CountOps(load.closed, &result);

  ReportLatency("query", open.latency_ms, true, &result);
  result.Note(RateTimeline("closed loop", load.closed_rates));
  result.Metric("query_qps", Median(load.closed_rates), "1/s");
  std::vector<double> insert_ms;
  std::vector<double> delete_ms;
  for (size_t k = 0; k < writes.latency_ms.size(); ++k) {
    (IsDelete(k) ? delete_ms : insert_ms).push_back(writes.latency_ms[k]);
  }
  ReportLatency("insert", insert_ms, false, &result);
  ReportLatency("delete", delete_ms, false, &result);

  const double inserts_done = static_cast<double>(after.inserts - before.inserts);
  const double wal_bytes =
      static_cast<double>(after.wal_bytes - before.wal_bytes);
  const double wal_records =
      static_cast<double>(after.wal_records - before.wal_records);
  const double wal_syncs =
      static_cast<double>(after.wal_syncs - before.wal_syncs);
  result.Note("writes: " + std::to_string(after.inserts - before.inserts) +
              " inserts, " + std::to_string(after.deletes - before.deletes) +
              " deletes, " + std::to_string(after.merges - before.merges) +
              " merges");
  result.Figure("write_bytes_per_insert",
                inserts_done == 0.0 ? 0.0
                                    : (wal_bytes + merge_bytes) / inserts_done,
                "bytes");
  result.Figure("disk_bytes_per_region",
                static_cast<double>(DirBytes(dir)) /
                    static_cast<double>(live->RegionCount()),
                "bytes");
  NoteLayer(&result, "wal.appends_per_sync",
            wal_syncs == 0.0 ? 0.0 : wal_records / wal_syncs, "count");
  NoteLayer(&result, "wal.bytes_per_insert",
            inserts_done == 0.0 ? 0.0 : wal_bytes / inserts_done, "bytes");
  NoteLayer(&result, "merge.count",
            static_cast<double>(after.merges - before.merges), "count");
  NoteLayer(&result, "merge.bytes_rewritten", merge_bytes, "bytes");

  // Oracle: the quiesced live index must rank like an offline rebuild of
  // its final image set.
  std::vector<walrus::WalrusIndex::PendingImage> final_set;
  for (size_t i = 0; i < scenes.size(); ++i) {
    final_set.push_back({i, "scene", scenes[i]});
  }
  for (uint64_t id : live_inserted) {
    final_set.push_back({id, "insert", inserts[id - kInsertSceneBase]});
  }
  walrus::WalrusIndex rebuilt(Table1Params());
  walrus::Status built = rebuilt.AddImages(std::move(final_set), NumProcs());
  if (!built.ok() || rebuilt.ImageCount() != live->ImageCount()) {
    result.Fail("offline rebuild of the final live set: " +
                (built.ok() ? std::string("image counts differ")
                            : built.ToString()));
  }
  for (int s = 0; s < kOracleQueries && built.ok(); ++s) {
    const size_t q = static_cast<size_t>(s) * queries.size() / kOracleQueries;
    auto got = live->RunQuery(queries[q], options);
    auto want = walrus::ExecuteQuery(rebuilt, queries[q], options);
    ++result.attempted;
    if (!got.ok() || !want.ok() || !SameRanking(*got, *want)) {
      result.Fail("live ranking differs from the offline rebuild, query " +
                  std::to_string(q));
    }
  }
  failures.AppendTo(&result);
  if (log.enabled() && built.ok()) {
    NoteLayer(&result, "live.query_overhead_us",
              QuiescedOverheadMicros(*live, rebuilt, queries, options),
              "us");
  }

  log.Merge(&writer_buffer);
  for (SpanLog::Buffer& b : buffers) log.Merge(&b);
  if (log.enabled()) {
    FinishTrace(args, &log, &result);
    NoteLayer(&result, "wal.commit_us",
              MeanResidualMicros(MicrosByOp(log.spans()), "live_insert",
                                 {"extract_record"}),
              "us");
    NoteLayer(&result, "extract.insert_us",
              AggregateSpans(log.spans())["extract_record"].MeanMicros(), "us");
  }
  NoteLayer(&result, "loadgen.lag_p99_ms", Summarize(open.lag_ms).tail, "ms");
  live.reset();
  RemoveTree(root);
  return result;
}

}  // namespace perfbench
