// Reproduces Table 1: query response time, average number of regions
// retrieved per query region, and number of distinct images containing
// matching regions, as the querying epsilon grows from 0.05 to 0.09.
//
// Setup mirrors section 6.5: epsilon_c = 0.05, 64x64 sliding windows, 2x2
// signatures per channel, YCC color space, centroid region signatures, quick
// matcher. The database is the synthetic scene collection standing in for
// the 10,000-image `misc` set (DESIGN.md section 2); size is configurable
// via WALRUS_BENCH_IMAGES (default 1000).
//
// Expected shape: all three columns grow monotonically (and sharply) with
// epsilon; the paper measured 5.2s..19.9s, 15..891 avg regions and 65..1287
// distinct images over epsilon in {0.05..0.09} on a 10,000-image database.
//
// Beyond the paper table, every row carries the per-stage breakdown
// (extract / probe / match / rank seconds).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/query.h"
#include "core/region_extractor.h"
#include "image/dataset.h"

int main() {
  const int num_images = walrus::bench::EnvInt("WALRUS_BENCH_IMAGES", 1000);

  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 128;
  dp.height = 128;
  dp.seed = 77;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);

  walrus::WalrusParams wp;  // paper defaults: YCC, 64x64 windows, s=2
  wp.slide_step = 8;
  std::printf("# Table 1: query selectivity and response time\n");
  std::printf(
      "# database=%d images (%dx%d), cluster_eps=%.2f, window=%d, s=%d, "
      "colorspace=YCC, centroid signatures, quick matcher\n",
      num_images, dp.width, dp.height, wp.cluster_epsilon, wp.min_window,
      wp.signature_size);

  walrus::WalrusIndex index(wp);
  walrus::WallTimer build_timer;
  for (const walrus::LabeledImage& scene : dataset) {
    walrus::Status status = index.AddImage(
        static_cast<uint64_t>(scene.id), "img", scene.image);
    if (!status.ok()) {
      std::fprintf(stderr, "indexing failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  std::printf("# indexing: %zu images, %zu regions, %.2fs total\n",
              index.ImageCount(), index.RegionCount(),
              build_timer.ElapsedSeconds());

  // The paper queries with its flower image (Figure 8a); we use a fixed
  // scene from the dataset as the query.
  const walrus::ImageF& query = dataset[0].image;

  std::printf("%-8s %-12s %-9s %-9s %-9s %-9s %-22s %-15s\n", "epsilon",
              "response_s", "extract_s", "probe_s", "match_s", "rank_s",
              "avg_regions_retrieved", "distinct_images");
  double prev_images = -1.0;
  bool monotone = true;
  for (double eps : {0.05, 0.06, 0.07, 0.08, 0.09}) {
    walrus::QueryOptions options;
    options.epsilon = static_cast<float>(eps);
    walrus::QueryStats stats;
    walrus::Result<std::vector<walrus::QueryMatch>> matches =
        walrus::ExecuteQuery(index, query, options, &stats);
    if (!matches.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   matches.status().ToString().c_str());
      return 1;
    }
    std::printf("%-8.2f %-12.4f %-9.4f %-9.4f %-9.4f %-9.4f %-22.1f %-15d\n",
                eps, stats.seconds, stats.extract_seconds,
                stats.probe_seconds, stats.match_seconds, stats.rank_seconds,
                stats.avg_regions_per_query_region, stats.distinct_images);
    if (stats.distinct_images < prev_images) monotone = false;
    prev_images = stats.distinct_images;
  }
  std::printf(
      "# paper shape check: all columns grow with epsilon -- %s\n",
      monotone ? "HOLDS" : "VIOLATED");
  return 0;
}
