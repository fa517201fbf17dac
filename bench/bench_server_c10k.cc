// walrusd c10k: one server, ~10k idle connections parked on its event
// loops, and a sweep of active pipelined clients doing real QUERY work
// through the crowd. The reactor claim under test: idle connections cost
// a file descriptor and a few KB each -- not a thread -- and throughput
// for the active minority is unaffected by the parked majority.
//
// Reported per active-client count (BENCH_server_c10k.json):
//   qps, p50_ms, p99_ms   client-observed, per pipelined query
// plus the idle-connection footprint:
//   fds_per_idle_conn     descriptors per parked connection (loopback
//                         counts both ends in this process, so ~2)
//   rss_bytes_per_idle_conn  resident-memory delta per parked connection
//
// Environment knobs (CI shrinks these; the defaults are the full sweep):
//   WALRUS_BENCH_C10K_IDLE=10000     parked connections (clamped to the
//                                    fd rlimit with headroom; the bench
//                                    first raises the soft limit to the
//                                    hard limit)
//   WALRUS_BENCH_C10K_CLIENTS=64,256,1024   active-client sweep
//   WALRUS_BENCH_C10K_IMAGES=60      dataset size
//   WALRUS_BENCH_C10K_DEPTH=4        pipeline depth per client
//   WALRUS_BENCH_C10K_ROUNDS=2       pipelined rounds per client

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/socket.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/query_engine.h"
#include "image/dataset.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace {

std::vector<int> EnvIntList(const char* name,
                            const std::vector<int>& fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  std::vector<int> out;
  const char* p = value;
  while (*p != '\0') {
    out.push_back(std::atoi(p));
    const char* comma = std::strchr(p, ',');
    if (comma == nullptr) break;
    p = comma + 1;
  }
  return out.empty() ? fallback : out;
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  size_t rank =
      static_cast<size_t>(q * static_cast<double>(values->size() - 1));
  return (*values)[rank];
}

int CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count - 1;
}

int64_t ResidentBytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return -1;
  long total = 0;
  long resident = 0;
  int fields = std::fscanf(statm, "%ld %ld", &total, &resident);
  std::fclose(statm);
  if (fields != 2) return -1;
  return static_cast<int64_t>(resident) * ::sysconf(_SC_PAGESIZE);
}

/// Raises the fd soft limit to the hard limit and returns the result.
rlim_t RaiseFdLimit() {
  struct rlimit limit;
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 1024;
  limit.rlim_cur = limit.rlim_max;
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) return limit.rlim_cur;
  return limit.rlim_max;
}

}  // namespace

int main() {
  const int num_images = walrus::bench::EnvInt("WALRUS_BENCH_C10K_IMAGES", 60);
  const int depth = walrus::bench::EnvInt("WALRUS_BENCH_C10K_DEPTH", 4);
  const int rounds = walrus::bench::EnvInt("WALRUS_BENCH_C10K_ROUNDS", 2);
  const int idle_requested =
      walrus::bench::EnvInt("WALRUS_BENCH_C10K_IDLE", 10000);
  const std::vector<int> client_sweep =
      EnvIntList("WALRUS_BENCH_C10K_CLIENTS", {64, 256, 1024});
  const int max_active =
      *std::max_element(client_sweep.begin(), client_sweep.end());

  // Each parked loopback connection consumes two descriptors in this
  // process (client end + accepted server end); the active clients need
  // the same, and the index/dataset/logging need slack.
  const rlim_t fd_limit = RaiseFdLimit();
  const int headroom = 2 * max_active + 512;
  int idle_target = idle_requested;
  if (fd_limit < static_cast<rlim_t>(2 * idle_target + headroom)) {
    idle_target = (static_cast<int>(fd_limit) - headroom) / 2;
  }
  if (idle_target < 0) idle_target = 0;

  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 64;
  dp.height = 64;
  dp.seed = 2441;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);

  walrus::WalrusParams params;
  params.slide_step = 8;
  walrus::WalrusIndex index(params);
  std::vector<walrus::WalrusIndex::PendingImage> batch;
  for (const walrus::LabeledImage& scene : dataset) {
    batch.push_back({static_cast<uint64_t>(scene.id), "img", scene.image});
  }
  if (!index.AddImages(std::move(batch)).ok()) return 1;
  walrus::SingleIndexEngine engine(index);

  walrus::ServerOptions server_options;
  server_options.max_pending = max_active * depth + 64;
  walrus::WalrusServer server(engine, server_options);
  if (!server.Start().ok()) return 1;

  // ---- Park the idle crowd and price it ---------------------------------
  const int fds_before = CountOpenFds();
  const int64_t rss_before = ResidentBytes();
  std::vector<walrus::UniqueFd> idle;
  idle.reserve(static_cast<size_t>(idle_target));
  for (int i = 0; i < idle_target; ++i) {
    auto fd = walrus::ConnectTcp("127.0.0.1", server.port());
    if (!fd.ok()) {
      std::fprintf(stderr, "idle connect %d failed: %s\n", i,
                   fd.status().ToString().c_str());
      return 1;
    }
    idle.push_back(std::move(*fd));
  }
  // Wait until the reactor has adopted every parked connection, so the
  // footprint numbers include the server-side state.
  while (server.Snapshot().connections_accepted <
         static_cast<uint64_t>(idle_target)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const int fds_after = CountOpenFds();
  const int64_t rss_after = ResidentBytes();
  const double fds_per_conn =
      idle_target == 0 ? 0.0
                       : static_cast<double>(fds_after - fds_before) /
                             idle_target;
  const double rss_per_conn =
      idle_target == 0 ? 0.0
                       : static_cast<double>(rss_after - rss_before) /
                             idle_target;

  std::printf("# walrusd c10k: %d idle connections (fd limit %llu), "
              "%d images, pipeline depth %d\n",
              idle_target, static_cast<unsigned long long>(fd_limit),
              num_images, depth);
  std::printf("# idle footprint: %.2f fds/conn, %.0f rss bytes/conn\n",
              fds_per_conn, rss_per_conn);

  walrus::bench::BenchReport report("server_c10k");
  report.params()
      .Set("num_images", num_images)
      .Set("idle_connections", idle_target)
      .Set("pipeline_depth", depth)
      .Set("rounds", rounds)
      .Set("fd_limit", static_cast<int64_t>(fd_limit))
      .Set("fds_per_idle_conn", fds_per_conn)
      .Set("rss_bytes_per_idle_conn", rss_per_conn);

  // ---- Active pipelined sweep through the parked crowd ------------------
  std::printf("%-10s %-12s %-10s %-10s\n", "clients", "qps", "p50_ms",
              "p99_ms");
  for (int clients : client_sweep) {
    std::vector<std::vector<double>> latencies(
        static_cast<size_t>(clients));
    walrus::WallTimer wall;
    {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          auto client =
              walrus::WalrusClient::Connect("127.0.0.1", server.port());
          if (!client.ok()) std::exit(1);
          walrus::QueryOptions options;
          options.epsilon = 0.07f;
          options.top_k = 10;
          std::vector<walrus::ImageF> window;
          for (int d = 0; d < depth; ++d) {
            window.push_back(
                dataset[static_cast<size_t>(c * depth + d) % dataset.size()]
                    .image);
          }
          for (int r = 0; r < rounds; ++r) {
            walrus::WallTimer timer;
            auto results = client->QueryPipelined(window, options);
            if (!results.ok()) {
              std::fprintf(stderr, "pipelined query failed: %s\n",
                           results.status().ToString().c_str());
              std::exit(1);
            }
            // Depth queries share one round trip; amortize it per query.
            latencies[static_cast<size_t>(c)].push_back(
                timer.ElapsedMillis() / depth);
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    double seconds = wall.ElapsedSeconds();

    std::vector<double> all;
    for (auto& per_client : latencies) {
      for (double per_round : per_client) {
        for (int d = 0; d < depth; ++d) all.push_back(per_round);
      }
    }
    double qps = static_cast<double>(all.size()) / seconds;
    double p50 = Quantile(&all, 0.50);
    double p99 = Quantile(&all, 0.99);
    std::printf("%-10d %-12.1f %-10.2f %-10.2f\n", clients, qps, p50, p99);
    report.AddRow()
        .Set("clients", clients)
        .Set("qps", qps)
        .Set("p50_ms", p50)
        .Set("p99_ms", p99);
  }

  // The parked crowd must have survived the storm: a frame sent down the
  // oldest idle connection still gets an answer.
  if (!idle.empty()) {
    std::vector<uint8_t> ping =
        walrus::EncodeFrame(walrus::Opcode::kPing, 424242, {});
    if (!walrus::WriteFull(idle[0].get(), ping.data(), ping.size()).ok()) {
      std::fprintf(stderr, "idle connection died during the sweep\n");
      return 1;
    }
    std::vector<uint8_t> header(walrus::kFrameHeaderBytes);
    if (!walrus::ReadFull(idle[0].get(), header.data(), header.size())
             .ok()) {
      std::fprintf(stderr, "idle connection unanswered after the sweep\n");
      return 1;
    }
  }

  report.WriteFile();
  idle.clear();
  server.Stop();
  return 0;
}
