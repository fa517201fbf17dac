// Durable live-ingest benchmark (DESIGN.md section 14): insert throughput
// through the WAL group-commit path, and query tail latency while a
// sustained mutation stream runs — the acceptance number is that p99 stays
// bounded under ingest, since mutations only hold the state writer lock
// for the in-memory apply, never across extraction or fsync.
//
// Report: BENCH_ingest.json
//   phase "throughput"  writers x inserts/sec + group-commit amortization
//   phase "query"       quiescent vs under-ingest p50/p99
//
//   WALRUS_BENCH_INGEST_IMAGES=160 WALRUS_BENCH_INGEST_QUERIES=48
//   are the dataset/load knobs.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/query.h"
#include "image/dataset.h"
#include "wal/live_index.h"

namespace {

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  size_t rank =
      static_cast<size_t>(q * static_cast<double>(values->size() - 1));
  return (*values)[rank];
}

std::string FreshDir(const std::string& name) {
  std::string dir = "/tmp/walrus_bench_ingest_" + name;
  std::string command = "rm -rf " + dir;
  if (std::system(command.c_str()) != 0) std::exit(1);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

walrus::WalrusParams BenchParams() {
  walrus::WalrusParams params;
  params.slide_step = 8;
  return params;
}

/// Seed index over the first half of the dataset (serial, deterministic).
walrus::WalrusIndex BuildSeed(const std::vector<walrus::LabeledImage>& dataset,
                              size_t count) {
  walrus::WalrusIndex seed(BenchParams());
  for (size_t i = 0; i < count; ++i) {
    if (!seed.AddImage(static_cast<uint64_t>(dataset[i].id), "img",
                       dataset[i].image)
             .ok()) {
      std::exit(1);
    }
  }
  return seed;
}

struct ThroughputResult {
  double inserts_per_sec = 0.0;
  double appends_per_sync = 0.0;
  uint64_t merges = 0;
};

/// Splits the back half of the dataset across `writers` threads, each
/// inserting with fresh ids through the full WAL append + group-commit
/// path. More writers => more appends share each fsync.
ThroughputResult RunThroughput(const std::vector<walrus::LabeledImage>& dataset,
                               int writers) {
  size_t half = dataset.size() / 2;
  walrus::WalrusIndex seed = BuildSeed(dataset, half);
  walrus::LiveIndex::Options options;
  options.num_shards = 2;
  options.merge_threshold = 64;
  auto live = walrus::LiveIndex::Open(
      FreshDir("tput_" + std::to_string(writers)), BenchParams(), options,
      &seed);
  if (!live.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 live.status().ToString().c_str());
    std::exit(1);
  }

  size_t per_writer = (dataset.size() - half) / static_cast<size_t>(writers);
  walrus::WallTimer wall;
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        for (size_t i = 0; i < per_writer; ++i) {
          size_t slot = half + static_cast<size_t>(w) * per_writer + i;
          uint64_t id = 1000000 + static_cast<uint64_t>(slot);
          if (!(*live)->InsertImage(id, "img", dataset[slot].image).ok()) {
            std::exit(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  double seconds = wall.ElapsedSeconds();
  (*live)->WaitForMerge();

  walrus::IngestStats stats = (*live)->IngestStatsSnapshot();
  ThroughputResult result;
  result.inserts_per_sec = static_cast<double>(stats.inserts) / seconds;
  result.appends_per_sync =
      stats.wal_syncs == 0 ? 0.0
                           : static_cast<double>(stats.wal_records) /
                                 static_cast<double>(stats.wal_syncs);
  result.merges = stats.merges;
  return result;
}

struct LatencyResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mutations_per_sec = 0.0;
};

/// Runs the query workload; when `mutate` is set, a background thread
/// cycles insert/delete pairs the whole time (each one a durable WAL
/// commit), modeling steady-state live traffic.
LatencyResult RunQueries(const walrus::LiveIndex& live,
                         walrus::IngestEngine* ingest,
                         const std::vector<walrus::LabeledImage>& dataset,
                         int num_queries, bool mutate) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mutations{0};
  std::thread mutator;
  if (mutate) {
    mutator = std::thread([&] {
      uint64_t next_id = 2000000;
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t id = next_id++;
        const walrus::ImageF& image =
            dataset[static_cast<size_t>(id) % dataset.size()].image;
        if (!ingest->InsertImage(id, "churn", image).ok()) std::exit(1);
        if (!ingest->DeleteImage(id).ok()) std::exit(1);
        mutations.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }

  walrus::QueryOptions options;
  options.epsilon = 0.07f;
  options.top_k = 10;
  std::vector<double> latencies;
  walrus::WallTimer wall;
  for (int q = 0; q < num_queries; ++q) {
    const walrus::ImageF& image =
        dataset[static_cast<size_t>(q) % (dataset.size() / 2)].image;
    walrus::WallTimer timer;
    auto result = live.RunQuery(image, options);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    latencies.push_back(timer.ElapsedMillis());
  }
  double seconds = wall.ElapsedSeconds();
  if (mutate) {
    stop.store(true, std::memory_order_relaxed);
    mutator.join();
  }

  LatencyResult result;
  result.qps = static_cast<double>(latencies.size()) / seconds;
  result.p50_ms = Quantile(&latencies, 0.50);
  result.p99_ms = Quantile(&latencies, 0.99);
  result.mutations_per_sec =
      static_cast<double>(mutations.load(std::memory_order_relaxed)) /
      seconds;
  return result;
}

}  // namespace

int main() {
  const int num_images =
      walrus::bench::EnvInt("WALRUS_BENCH_INGEST_IMAGES", 160);
  const int num_queries =
      walrus::bench::EnvInt("WALRUS_BENCH_INGEST_QUERIES", 48);

  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 96;
  dp.height = 96;
  dp.seed = 20260808;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);

  walrus::bench::BenchReport report("ingest");
  report.params()
      .Set("num_images", num_images)
      .Set("num_queries", num_queries)
      .Set("merge_threshold", 64);

  std::printf("# live ingest: %d images (half seeded, half inserted "
              "online), durable WAL commits\n",
              num_images);
  std::printf("%-10s %-14s %-18s %-10s\n", "writers", "inserts_per_s",
              "appends_per_sync", "merges");
  for (int writers : {1, 2, 4}) {
    ThroughputResult t = RunThroughput(dataset, writers);
    std::printf("%-10d %-14.1f %-18.2f %-10llu\n", writers,
                t.inserts_per_sec, t.appends_per_sync,
                static_cast<unsigned long long>(t.merges));
    report.AddRow()
        .Set("phase", "throughput")
        .Set("writers", writers)
        .Set("inserts_per_sec", t.inserts_per_sec)
        .Set("appends_per_sync", t.appends_per_sync)
        .Set("merges", static_cast<int64_t>(t.merges));
  }

  // Query tail latency, quiescent vs under a sustained mutation stream on
  // the same engine instance (inserts land in the delta; queries hold the
  // state reader lock across their whole pipeline pass).
  size_t half = dataset.size() / 2;
  walrus::WalrusIndex seed = BuildSeed(dataset, half);
  walrus::LiveIndex::Options options;
  options.num_shards = 2;
  options.merge_threshold = 64;
  auto live = walrus::LiveIndex::Open(FreshDir("latency"), BenchParams(),
                                      options, &seed);
  if (!live.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 live.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%-14s %-10s %-10s %-10s %-16s\n", "mode", "qps", "p50_ms",
              "p99_ms", "mutations_per_s");
  for (bool mutate : {false, true}) {
    LatencyResult q =
        RunQueries(**live, (*live).get(), dataset, num_queries, mutate);
    const char* mode = mutate ? "under-ingest" : "quiescent";
    std::printf("%-14s %-10.1f %-10.2f %-10.2f %-16.1f\n", mode, q.qps,
                q.p50_ms, q.p99_ms, q.mutations_per_sec);
    report.AddRow()
        .Set("phase", "query")
        .Set("mode", mode)
        .Set("qps", q.qps)
        .Set("p50_ms", q.p50_ms)
        .Set("p99_ms", q.p99_ms)
        .Set("mutations_per_sec", q.mutations_per_sec);
  }
  (*live)->WaitForMerge();
  report.WriteFile();
  return 0;
}
