// Ablation: BIRCH pre-clustering vs k-means for window-signature clustering
// (paper section 5.3 argues for BIRCH: linear time, radius-bounded clusters,
// cluster count adapting to image complexity). Reports indexing time,
// regions per image, and retrieval quality under both clusterers.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_json.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/query.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "image/dataset.h"

int main() {
  const int num_images =
      walrus::bench::EnvInt("WALRUS_BENCH_CLUSTERER_IMAGES", 72);
  const int num_queries =
      walrus::bench::EnvInt("WALRUS_BENCH_CLUSTERER_QUERIES", 18);
  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 96;
  dp.height = 96;
  dp.seed = 777;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);
  walrus::GroundTruth truth(dataset);

  std::printf(
      "# ablation: BIRCH pre-clustering vs k-means for region extraction "
      "(%d images, %d queries)\n",
      num_images, num_queries);
  std::printf("%-12s %-10s %-16s %-12s %-8s\n", "clusterer", "build_s",
              "regions/image", "query_ms", "P@5");

  for (walrus::ClustererKind kind :
       {walrus::ClustererKind::kBirch, walrus::ClustererKind::kKMeans}) {
    walrus::WalrusParams params;
    params.min_window = 16;
    params.max_window = 64;
    params.slide_step = 8;
    params.clusterer = kind;
    walrus::WalrusIndex index(params);

    walrus::WallTimer build_timer;
    for (const walrus::LabeledImage& scene : dataset) {
      if (!index
               .AddImage(static_cast<uint64_t>(scene.id), "img", scene.image)
               .ok()) {
        return 1;
      }
    }
    double build_sec = build_timer.ElapsedSeconds();

    double query_ms = 0.0;
    std::vector<double> precisions;
    for (int q = 0; q < num_queries; ++q) {
      walrus::QueryOptions options;
      options.epsilon = 0.085f;
      walrus::QueryStats stats;
      auto matches =
          walrus::ExecuteQuery(index, dataset[q].image, options, &stats);
      if (!matches.ok()) return 1;
      query_ms += stats.seconds * 1e3;
      std::vector<uint64_t> ids;
      for (const walrus::QueryMatch& m : *matches) {
        if (m.image_id != static_cast<uint64_t>(q)) {
          ids.push_back(m.image_id);
        }
      }
      precisions.push_back(walrus::PrecisionAtK(
          ids, truth.ForQuery(static_cast<uint64_t>(q)), 5));
    }
    std::printf("%-12s %-10.2f %-16.1f %-12.2f %-8.3f\n",
                kind == walrus::ClustererKind::kBirch ? "birch" : "kmeans",
                build_sec,
                static_cast<double>(index.RegionCount()) / num_images,
                query_ms / num_queries, walrus::MeanOf(precisions));
  }
  std::printf(
      "# note: BIRCH's advantage is structural, not raw speed -- no k to\n"
      "# tune, and every region is radius-bounded (<= epsilon_c) so region\n"
      "# signatures stay homogeneous; k-means with a small heuristic k\n"
      "# merges unrelated windows into broad clusters.\n");
  return 0;
}
