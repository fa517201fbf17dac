// Command-line client for a running walrusd (examples/walrus_serve.cpp).
//
//   walrus_client <host> <port> ping
//   walrus_client <host> <port> query [--trace] <image.ppm> [epsilon] [top_k]
//   walrus_client <host> <port> scene [--trace] <image.ppm> <x> <y> <w> <h> [epsilon]
//   walrus_client <host> <port> insert <id> <image.ppm> [name]
//   walrus_client <host> <port> delete <id>
//   walrus_client <host> <port> stats
//   walrus_client <host> <port> metrics [--json]
//   walrus_client <host> <port> shutdown

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/timer.h"
#include "image/pnm_io.h"
#include "server/client.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  walrus_client <host> <port> ping\n"
               "  walrus_client <host> <port> query [--trace] <image.ppm> "
               "[epsilon] [top_k]\n"
               "  walrus_client <host> <port> scene [--trace] <image.ppm> "
               "<x> <y> <w> <h> [epsilon]\n"
               "  walrus_client <host> <port> insert <id> <image.ppm> "
               "[name]\n"
               "  walrus_client <host> <port> delete <id>\n"
               "  walrus_client <host> <port> stats\n"
               "  walrus_client <host> <port> metrics [--json]\n"
               "  walrus_client <host> <port> shutdown\n");
  return 2;
}

void PrintMatches(const walrus::RemoteQueryResult& result, double rtt_ms) {
  std::printf("%d query regions, %d candidate images, %.1f ms round trip\n",
              result.stats.query_regions, result.stats.distinct_images,
              rtt_ms);
  for (size_t i = 0; i < result.matches.size(); ++i) {
    const walrus::QueryMatch& m = result.matches[i];
    std::printf("%2zu. image %-8llu similarity=%.3f (pairs=%d)\n", i + 1,
                static_cast<unsigned long long>(m.image_id), m.similarity,
                m.matching_pairs);
  }
  if (!result.stats.spans.empty()) {
    std::printf("server-side stage breakdown (%.2f ms total):\n%s",
                result.stats.seconds * 1e3,
                walrus::RenderTraceText(result.stats.spans).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto client = walrus::WalrusClient::Connect(
      argv[1], static_cast<uint16_t>(std::atoi(argv[2])));
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  std::string command = argv[3];

  if (command == "ping") {
    walrus::WallTimer timer;
    walrus::Status status = client->Ping();
    if (!status.ok()) {
      std::fprintf(stderr, "ping failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("pong (%.2f ms)\n", timer.ElapsedMillis());
    return 0;
  }

  if (command == "stats") {
    auto stats = client->Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    for (int op = 0; op < walrus::kNumOpcodes; ++op) {
      std::printf("%-12s %llu\n",
                  walrus::OpcodeName(static_cast<walrus::Opcode>(op)),
                  static_cast<unsigned long long>(
                      stats->requests_by_opcode[op]));
    }
    std::printf("overloaded   %llu\n",
                static_cast<unsigned long long>(stats->rejected_overload));
    std::printf("deadline     %llu\n",
                static_cast<unsigned long long>(stats->deadline_exceeded));
    std::printf("proto_errors %llu\n",
                static_cast<unsigned long long>(stats->protocol_errors));
    std::printf("bytes in/out %llu / %llu\n",
                static_cast<unsigned long long>(stats->bytes_in),
                static_cast<unsigned long long>(stats->bytes_out));
    std::printf("latency      p50 %.2f ms, p99 %.2f ms\n",
                stats->latency_p50_ms, stats->latency_p99_ms);
    std::printf("shards       %u\n", stats->num_shards);
    for (size_t s = 0; s < stats->shard_probes.size(); ++s) {
      std::printf("  shard %-4zu probed %llu regions\n", s,
                  static_cast<unsigned long long>(stats->shard_probes[s]));
    }
    if (stats->has_ingest) {
      std::printf("ingest       %llu inserts, %llu deletes, %llu merges\n",
                  static_cast<unsigned long long>(stats->ingest.inserts),
                  static_cast<unsigned long long>(stats->ingest.deletes),
                  static_cast<unsigned long long>(stats->ingest.merges));
      std::printf("delta        %llu images, %llu tombstones\n",
                  static_cast<unsigned long long>(stats->ingest.delta_images),
                  static_cast<unsigned long long>(stats->ingest.tombstones));
      std::printf(
          "wal          %llu records, %llu bytes appended, %llu syncs, "
          "synced lsn %llu, file %llu bytes\n",
          static_cast<unsigned long long>(stats->ingest.wal_records),
          static_cast<unsigned long long>(stats->ingest.wal_bytes),
          static_cast<unsigned long long>(stats->ingest.wal_syncs),
          static_cast<unsigned long long>(stats->ingest.wal_synced_lsn),
          static_cast<unsigned long long>(stats->ingest.wal_file_bytes));
    }
    return 0;
  }

  if (command == "insert") {
    if (argc < 6) return Usage();
    uint64_t id = std::strtoull(argv[4], nullptr, 10);
    auto image = walrus::ReadPnm(argv[5]);
    if (!image.ok()) {
      std::fprintf(stderr, "reading %s failed: %s\n", argv[5],
                   image.status().ToString().c_str());
      return 1;
    }
    std::string name = argc > 6 ? argv[6] : argv[5];
    walrus::WallTimer timer;
    walrus::Status status = client->InsertImage(id, name, *image);
    if (!status.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("inserted image %llu (%.2f ms, durable)\n",
                static_cast<unsigned long long>(id), timer.ElapsedMillis());
    return 0;
  }

  if (command == "delete") {
    if (argc < 5) return Usage();
    uint64_t id = std::strtoull(argv[4], nullptr, 10);
    walrus::WallTimer timer;
    walrus::Status status = client->DeleteImage(id);
    if (!status.ok()) {
      std::fprintf(stderr, "delete failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("deleted image %llu (%.2f ms, durable)\n",
                static_cast<unsigned long long>(id), timer.ElapsedMillis());
    return 0;
  }

  if (command == "shutdown") {
    walrus::Status status = client->Shutdown();
    if (!status.ok()) {
      std::fprintf(stderr, "shutdown failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("server acknowledged shutdown\n");
    return 0;
  }

  if (command == "metrics") {
    bool json = argc > 4 && std::strcmp(argv[4], "--json") == 0;
    auto metrics = client->Metrics();
    if (!metrics.ok()) {
      std::fprintf(stderr, "metrics failed: %s\n",
                   metrics.status().ToString().c_str());
      return 1;
    }
    std::string rendered = json ? walrus::RenderMetricsJson(*metrics)
                                : walrus::RenderMetricsText(*metrics);
    std::fputs(rendered.c_str(), stdout);
    return 0;
  }

  if (command == "query" || command == "scene") {
    bool scene = command == "scene";
    int at = 4;
    bool trace = argc > at && std::strcmp(argv[at], "--trace") == 0;
    if (trace) ++at;
    if (argc < at + (scene ? 5 : 1)) return Usage();
    auto image = walrus::ReadPnm(argv[at]);
    if (!image.ok()) {
      std::fprintf(stderr, "reading %s failed: %s\n", argv[at],
                   image.status().ToString().c_str());
      return 1;
    }
    ++at;
    walrus::QueryOptions options;
    options.top_k = 14;
    options.collect_trace = trace;
    walrus::WallTimer timer;
    walrus::Result<walrus::RemoteQueryResult> result =
        walrus::Status::Internal("unreachable");
    if (scene) {
      walrus::PixelRect rect;
      rect.x = std::atoi(argv[at]);
      rect.y = std::atoi(argv[at + 1]);
      rect.width = std::atoi(argv[at + 2]);
      rect.height = std::atoi(argv[at + 3]);
      at += 4;
      if (argc > at) options.epsilon = static_cast<float>(std::atof(argv[at]));
      result = client->SceneQuery(*image, rect, options);
    } else {
      if (argc > at) options.epsilon = static_cast<float>(std::atof(argv[at]));
      if (argc > at + 1) options.top_k = std::atoi(argv[at + 1]);
      result = client->Query(*image, options);
    }
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    PrintMatches(*result, timer.ElapsedMillis());
    return 0;
  }

  return Usage();
}
