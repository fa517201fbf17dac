// Disk-resident vs in-memory index serving (the paper's R*-tree is a
// "disk-based index structure"; section 5.3). Builds one database, persists
// it both ways, and compares query latency plus page-IO behaviour of the
// paged backend under warm and cold caches.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/query.h"
#include "image/dataset.h"

namespace {

double AverageQuerySeconds(const walrus::WalrusIndex& index,
                           const std::vector<walrus::LabeledImage>& dataset,
                           int num_queries) {
  walrus::QueryOptions options;
  options.epsilon = 0.07f;
  double total = 0.0;
  for (int q = 0; q < num_queries; ++q) {
    walrus::QueryStats stats;
    auto matches =
        walrus::ExecuteQuery(index, dataset[q].image, options, &stats);
    if (!matches.ok()) std::exit(1);
    total += stats.seconds;
  }
  return total / num_queries;
}

}  // namespace

int main() {
  const int num_images = walrus::bench::EnvInt("WALRUS_BENCH_DISK_IMAGES", 300);
  const int num_queries =
      walrus::bench::EnvInt("WALRUS_BENCH_DISK_QUERIES", 10);
  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 128;
  dp.height = 128;
  dp.seed = 616;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);

  walrus::WalrusParams params;  // paper defaults, 64x64 windows
  params.slide_step = 8;
  walrus::WalrusIndex memory_index(params);
  for (const walrus::LabeledImage& scene : dataset) {
    if (!memory_index
             .AddImage(static_cast<uint64_t>(scene.id), "img", scene.image)
             .ok()) {
      return 1;
    }
  }

  std::string prefix = "/tmp/walrus_bench_disk";
  if (!memory_index.SavePaged(prefix).ok()) return 1;
  auto paged = walrus::WalrusIndex::OpenPaged(prefix);
  if (!paged.ok()) {
    std::fprintf(stderr, "open paged failed: %s\n",
                 paged.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "# disk-based serving: %d images, %zu regions (12-d signatures)\n",
      num_images, memory_index.RegionCount());
  std::printf("%-26s %-14s\n", "backend", "avg_query_ms");
  double memory_ms =
      1e3 * AverageQuerySeconds(memory_index, dataset, num_queries);
  std::printf("%-26s %-14.2f\n", "in-memory tree", memory_ms);

  // Cold-ish: tiny cache so most probes touch the page file.
  paged->ProbeNearest(std::vector<float>(12, 0.5f), 1).ok();  // warm open
  double paged_ms = 1e3 * AverageQuerySeconds(*paged, dataset, num_queries);
  std::printf("%-26s %-14.2f\n", "paged tree (64-page cache)", paged_ms);

  std::printf(
      "# note: query time is dominated by query-image region extraction; "
      "the probe-only difference shows in the page counters below\n");
  const walrus::DiskRStarTree* disk = paged->disk_tree();
  std::printf(
      "# paged backend IO: %lld pages read, %lld cache hits, %lld misses "
      "(tree height %d, %d entries/node)\n",
      static_cast<long long>(disk->pages_read()),
      static_cast<long long>(disk->cache_hits()),
      static_cast<long long>(disk->cache_misses()), disk->height(),
      disk->NodeCapacity());
  for (const char* suffix : {".catalog", ".pmeta", ".ptree"}) {
    std::remove((prefix + suffix).c_str());
  }
  return 0;
}
