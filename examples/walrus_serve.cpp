// walrusd entry point: serves a persisted WALRUS index (either layout) over
// the framed TCP protocol to walrus_client and library clients.
//
//   walrus_serve <index_prefix> [port] [workers] [max_pending]
//                [--shards N] [--wal-dir DIR]
//                [--merge-threshold K] [--reactor-threads N]
//                [--max-conn-outbound-bytes B] [--drain-timeout-ms T]
//
// --shards N   repartition the index across N parallel shards (hash-routed
//              by image id; identical rankings, lower per-query latency)
// --reactor-threads N
//              epoll event-loop threads driving connection I/O (default:
//              hardware concurrency; connections pin round-robin)
// --max-conn-outbound-bytes B
//              per-connection backpressure budget: stop reading from a
//              connection once B response bytes are queued unwritten
//              (default 4 MiB)
// --drain-timeout-ms T
//              at shutdown, force-close connections whose queued responses
//              a slow peer has not read within T ms (default 5000)
// --wal-dir DIR
//              serve a durable live engine rooted at DIR: online
//              INSERT_IMAGE / DELETE_IMAGE are accepted, logged to
//              DIR/wal.log before acknowledgment, and replayed on restart.
//              A fresh DIR is seeded from <index_prefix>; an existing DIR
//              wins over the prefix (pass the same prefix, it is ignored).
// --merge-threshold K
//              fold the in-memory delta into the on-disk base once it holds
//              K pending mutations (default 64; 0 = never automatically)
//
// Example session (see also examples/walrus_client.cpp):
//   ./build/examples/walrus_cli generate /tmp/db 100
//   ./build/examples/walrus_cli index /tmp/db /tmp/db/walrus paged
//   ./build/examples/walrus_serve /tmp/db/walrus 7788 --shards 4 &
//   ./build/examples/walrus_client 127.0.0.1 7788 query /tmp/db/img_3.ppm
//   ./build/examples/walrus_client 127.0.0.1 7788 shutdown

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "common/metrics.h"
#include "core/index.h"
#include "core/sharded_index.h"
#include "server/server.h"
#include "wal/live_index.h"

namespace {

/// Opens whichever layout exists at the prefix (paged preferred: the paged
/// backend is the deployment shape walrusd is for).
walrus::Result<walrus::WalrusIndex> OpenAny(const std::string& prefix) {
  auto paged = walrus::WalrusIndex::OpenPaged(prefix);
  if (paged.ok()) return paged;
  return walrus::WalrusIndex::Open(prefix);
}

}  // namespace

int main(int argc, char** argv) {
  // Split --flag value pairs from the positional args so the original
  // positional interface keeps working unchanged.
  int num_shards = 1;
  std::string wal_dir;
  size_t merge_threshold = 64;
  int reactor_threads = 0;
  long long max_conn_outbound_bytes = -1;
  int drain_timeout_ms = -1;
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      num_shards = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--wal-dir") == 0 && i + 1 < argc) {
      wal_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--merge-threshold") == 0 &&
               i + 1 < argc) {
      merge_threshold = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--reactor-threads") == 0 &&
               i + 1 < argc) {
      reactor_threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-conn-outbound-bytes") == 0 &&
               i + 1 < argc) {
      max_conn_outbound_bytes = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--drain-timeout-ms") == 0 &&
               i + 1 < argc) {
      drain_timeout_ms = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      // Reject unknown flags instead of letting them fall through as
      // positionals (a stray "--port 7788" would otherwise silently parse
      // 7788 as the worker count and try to spawn that many threads).
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      positional.clear();
      break;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty() || num_shards < 1) {
    std::fprintf(stderr,
                 "usage: walrus_serve <index_prefix> [port] [workers] "
                 "[max_pending] [--shards N] [--wal-dir DIR] "
                 "[--merge-threshold K] [--reactor-threads N] "
                 "[--max-conn-outbound-bytes B] [--drain-timeout-ms T]\n");
    return 2;
  }
  auto index = OpenAny(positional[0]);
  if (!index.ok()) {
    std::fprintf(stderr, "open %s failed: %s\n", positional[0],
                 index.status().ToString().c_str());
    return 1;
  }

  walrus::ServerOptions options;
  if (positional.size() > 1) {
    options.port = static_cast<uint16_t>(std::atoi(positional[1]));
  }
  if (positional.size() > 2) options.num_workers = std::atoi(positional[2]);
  if (positional.size() > 3) options.max_pending = std::atoi(positional[3]);
  options.reactor_threads = reactor_threads;
  if (max_conn_outbound_bytes >= 0) {
    options.max_conn_outbound_bytes =
        static_cast<size_t>(max_conn_outbound_bytes);
  }
  if (drain_timeout_ms >= 0) options.drain_timeout_ms = drain_timeout_ms;

  // The sharded engine repartitions the opened catalog in memory.
  std::unique_ptr<walrus::QueryEngine> engine;
  std::unique_ptr<walrus::LiveIndex> live;
  if (!wal_dir.empty()) {
    if (::mkdir(wal_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "mkdir %s failed: %s\n", wal_dir.c_str(),
                   std::strerror(errno));
      return 1;
    }
    walrus::LiveIndex::Options live_options;
    live_options.num_shards = num_shards;
    live_options.merge_threshold = merge_threshold;
    auto opened = walrus::LiveIndex::Open(wal_dir, index->params(),
                                          live_options, &*index);
    if (!opened.ok()) {
      std::fprintf(stderr, "open live index at %s failed: %s\n",
                   wal_dir.c_str(), opened.status().ToString().c_str());
      return 1;
    }
    live = std::move(*opened);
  } else if (num_shards > 1) {
    walrus::ShardedIndex::Options shard_options;
    shard_options.num_shards = num_shards;
    auto partitioned = walrus::ShardedIndex::Partition(*index, shard_options);
    if (!partitioned.ok()) {
      std::fprintf(stderr, "sharding failed: %s\n",
                   partitioned.status().ToString().c_str());
      return 1;
    }
    engine =
        std::make_unique<walrus::ShardedIndex>(std::move(*partitioned));
  } else {
    engine = std::make_unique<walrus::SingleIndexEngine>(*index);
  }

  const walrus::QueryEngine& query_engine =
      live != nullptr ? static_cast<const walrus::QueryEngine&>(*live)
                      : *engine;
  walrus::WalrusServer server(query_engine, live.get(), options);
  walrus::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf(
      "walrusd: %zu images, %zu regions (%s backend, %d shard(s)) on port "
      "%u\n",
      query_engine.ImageCount(), query_engine.RegionCount(),
      live != nullptr ? "live" : (index->is_paged() ? "paged" : "in-memory"),
      num_shards, server.port());
  if (live != nullptr) {
    std::printf("walrusd: live ingest on (wal dir %s, generation %llu, "
                "merge threshold %zu)\n",
                wal_dir.c_str(),
                static_cast<unsigned long long>(live->generation()),
                merge_threshold);
  }
  std::printf("walrusd: send a SHUTDOWN request to stop\n");
  server.Wait();  // returns after a client SHUTDOWN, having drained

  walrus::ServerStats stats = server.Snapshot();
  std::printf(
      "walrusd: served %llu queries, %llu pings; p50 %.2f ms, p99 %.2f ms\n",
      static_cast<unsigned long long>(
          stats.requests_by_opcode[static_cast<int>(walrus::Opcode::kQuery)]),
      static_cast<unsigned long long>(
          stats.requests_by_opcode[static_cast<int>(walrus::Opcode::kPing)]),
      stats.latency_p50_ms, stats.latency_p99_ms);
  for (size_t s = 0; s < stats.shard_probes.size(); ++s) {
    std::printf("walrusd: shard %zu probed %llu regions\n", s,
                static_cast<unsigned long long>(stats.shard_probes[s]));
  }
  if (stats.has_ingest) {
    std::printf(
        "walrusd: ingested %llu inserts, %llu deletes, %llu merges; WAL "
        "%llu records / %llu bytes / %llu syncs\n",
        static_cast<unsigned long long>(stats.ingest.inserts),
        static_cast<unsigned long long>(stats.ingest.deletes),
        static_cast<unsigned long long>(stats.ingest.merges),
        static_cast<unsigned long long>(stats.ingest.wal_records),
        static_cast<unsigned long long>(stats.ingest.wal_bytes),
        static_cast<unsigned long long>(stats.ingest.wal_syncs));
  }
  std::printf("walrusd: final metrics registry state:\n%s",
              walrus::RenderMetricsText(
                  walrus::MetricsRegistry::Global().Snapshot())
                  .c_str());
  return 0;
}
