// walrusd loopback throughput/latency: QPS and client-observed p50/p99 vs.
// client concurrency, for both index backends and for the sharded engine.
// Every client thread runs its own connection and issues QUERY requests
// back-to-back, so the measurement covers the full stack: framing, CRC,
// dispatch, the query pipeline, and the response path.
//
// Two reports:
//   BENCH_server_qps.json   backend (in-memory / paged) x client sweep
//   BENCH_sharded_qps.json  shard-count sweep (fan-out)
//
//   WALRUS_BENCH_SERVER_IMAGES=300 WALRUS_BENCH_SERVER_QUERIES=40
//   are the dataset/load knobs; run ./build/bench/bench_server_qps
//   [--shards N] restricts the sharded sweep to one shard count (e.g. for
//   A/B-ing --shards 1 vs --shards 4).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/query_engine.h"
#include "core/sharded_index.h"
#include "image/dataset.h"
#include "server/client.h"
#include "server/server.h"

namespace {

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(
                                            values->size() - 1));
  return (*values)[rank];
}

struct LoadOptions {
  int num_clients = 4;
  int queries_per_client = 20;
  float epsilon = 0.07f;
  int top_k = 10;
};

struct RunResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

RunResult RunLoad(const walrus::QueryEngine& engine,
                  const std::vector<walrus::LabeledImage>& dataset,
                  const LoadOptions& load) {
  walrus::ServerOptions server_options;
  server_options.max_pending = 4 * load.num_clients + 8;
  walrus::WalrusServer server(engine, server_options);
  if (!server.Start().ok()) std::exit(1);

  std::vector<std::vector<double>> latencies(load.num_clients);
  walrus::WallTimer wall;
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < load.num_clients; ++c) {
      clients.emplace_back([&, c] {
        auto client = walrus::WalrusClient::Connect("127.0.0.1",
                                                    server.port());
        if (!client.ok()) std::exit(1);
        walrus::QueryOptions options;
        options.epsilon = load.epsilon;
        options.top_k = load.top_k;
        for (int q = 0; q < load.queries_per_client; ++q) {
          const walrus::ImageF& image =
              dataset[(c * load.queries_per_client + q) % dataset.size()]
                  .image;
          walrus::WallTimer timer;
          auto result = client->Query(image, options);
          if (!result.ok()) {
            std::fprintf(stderr, "query failed: %s\n",
                         result.status().ToString().c_str());
            std::exit(1);
          }
          latencies[c].push_back(timer.ElapsedMillis());
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  double seconds = wall.ElapsedSeconds();
  server.Stop();

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  RunResult result;
  result.qps = static_cast<double>(all.size()) / seconds;
  result.p50_ms = Quantile(&all, 0.50);
  result.p99_ms = Quantile(&all, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const int num_images =
      walrus::bench::EnvInt("WALRUS_BENCH_SERVER_IMAGES", 200);
  const int queries_per_client =
      walrus::bench::EnvInt("WALRUS_BENCH_SERVER_QUERIES", 20);
  // Sharding pays off when probe+match dominate; the sharded sweep uses a
  // wider envelope than the backend sweep to model the selective-but-heavy
  // regime (more candidates per probe).
  const float sharded_epsilon = 0.30f;
  int only_shards = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      only_shards = std::atoi(argv[++i]);
    }
  }

  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 128;
  dp.height = 128;
  dp.seed = 1999;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);

  walrus::WalrusParams params;
  params.slide_step = 8;
  walrus::WalrusIndex memory_index(params);
  std::vector<walrus::WalrusIndex::PendingImage> batch;
  for (const walrus::LabeledImage& scene : dataset) {
    batch.push_back({static_cast<uint64_t>(scene.id), "img", scene.image});
  }
  if (!memory_index.AddImages(std::move(batch)).ok()) return 1;

  std::string prefix = "/tmp/walrus_bench_server";
  if (!memory_index.SavePaged(prefix).ok()) return 1;
  auto paged = walrus::WalrusIndex::OpenPaged(prefix);
  if (!paged.ok()) return 1;

  std::printf("# walrusd loopback QPS: %d images, %zu regions, %d queries "
              "per client\n",
              num_images, memory_index.RegionCount(), queries_per_client);
  std::printf("%-12s %-10s %-12s %-10s %-10s\n", "backend", "clients",
              "qps", "p50_ms", "p99_ms");
  walrus::bench::BenchReport report("server_qps");
  report.params()
      .Set("num_images", num_images)
      .Set("queries_per_client", queries_per_client)
      .Set("regions", static_cast<int64_t>(memory_index.RegionCount()));
  walrus::SingleIndexEngine memory_engine(memory_index);
  walrus::SingleIndexEngine paged_engine(*paged);
  for (int clients : {1, 2, 4, 8}) {
    LoadOptions load;
    load.num_clients = clients;
    load.queries_per_client = queries_per_client;
    RunResult mem = RunLoad(memory_engine, dataset, load);
    std::printf("%-12s %-10d %-12.1f %-10.2f %-10.2f\n", "in-memory",
                clients, mem.qps, mem.p50_ms, mem.p99_ms);
    report.AddRow()
        .Set("backend", "in-memory")
        .Set("clients", clients)
        .Set("qps", mem.qps)
        .Set("p50_ms", mem.p50_ms)
        .Set("p99_ms", mem.p99_ms);
  }
  for (int clients : {1, 2, 4, 8}) {
    LoadOptions load;
    load.num_clients = clients;
    load.queries_per_client = queries_per_client;
    RunResult disk = RunLoad(paged_engine, dataset, load);
    std::printf("%-12s %-10d %-12.1f %-10.2f %-10.2f\n", "paged", clients,
                disk.qps, disk.p50_ms, disk.p99_ms);
    report.AddRow()
        .Set("backend", "paged")
        .Set("clients", clients)
        .Set("qps", disk.qps)
        .Set("p50_ms", disk.p50_ms)
        .Set("p99_ms", disk.p99_ms);
  }
  report.WriteFile();

  // Shard-count sweep. Same loopback protocol path; only the engine behind
  // the server changes.
  std::printf("\n# sharded engine: shard count (epsilon %.2f)\n",
              sharded_epsilon);
  std::printf("%-8s %-10s %-12s %-10s %-10s\n", "shards", "clients", "qps",
              "p50_ms", "p99_ms");
  walrus::bench::BenchReport sharded_report("sharded_qps");
  sharded_report.params()
      .Set("num_images", num_images)
      .Set("queries_per_client", queries_per_client)
      .Set("regions", static_cast<int64_t>(memory_index.RegionCount()))
      .Set("epsilon", static_cast<double>(sharded_epsilon));
  std::vector<int> shard_counts = {1, 2, 4};
  if (only_shards > 0) shard_counts = {only_shards};
  for (int shards : shard_counts) {
    walrus::ShardedIndex::Options shard_options;
    shard_options.num_shards = shards;
    auto engine = walrus::ShardedIndex::Partition(memory_index, shard_options);
    if (!engine.ok()) {
      std::fprintf(stderr, "partition failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    LoadOptions load;
    load.num_clients = 4;
    load.queries_per_client = queries_per_client;
    load.epsilon = sharded_epsilon;
    RunResult run = RunLoad(*engine, dataset, load);
    std::printf("%-8d %-10d %-12.1f %-10.2f %-10.2f\n", shards,
                load.num_clients, run.qps, run.p50_ms, run.p99_ms);
    sharded_report.AddRow()
        .Set("shards", shards)
        .Set("clients", load.num_clients)
        .Set("qps", run.qps)
        .Set("p50_ms", run.p50_ms)
        .Set("p99_ms", run.p99_ms);
  }
  sharded_report.WriteFile();

  for (const char* suffix : {".catalog", ".pmeta", ".ptree"}) {
    std::remove((prefix + suffix).c_str());
  }
  return 0;
}
