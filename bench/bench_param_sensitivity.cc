// Ablation: sensitivity of retrieval quality and cost to the two knobs the
// reproduction found most load-bearing (EXPERIMENTS.md "lessons"):
//   * slide step t  -- objects placed off the window grid mis-align with
//     every window when t is large, so region signatures drift;
//   * multi-scale windows -- a single window size cannot match objects
//     whose size varies (the paper's scale-invariance needs the range).
// Reports P@5, indexing time and query latency per configuration.

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

namespace {

struct Config {
  const char* label;
  int min_window;
  int max_window;
  int slide_step;
};

}  // namespace

int main() {
  const int num_images = walrus::bench::EnvInt("WALRUS_BENCH_SENS_IMAGES", 72);
  const int num_queries =
      walrus::bench::EnvInt("WALRUS_BENCH_SENS_QUERIES", 18);
  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 96;
  dp.height = 96;
  dp.seed = 555;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);
  walrus::GroundTruth truth(dataset);

  const Config configs[] = {
      {"single-scale w64 t16", 64, 64, 16},
      {"single-scale w64 t4", 64, 64, 4},
      {"multi-scale 16-64 t16", 16, 64, 16},
      {"multi-scale 16-64 t8", 16, 64, 8},
      {"multi-scale 16-64 t4", 16, 64, 4},
  };

  std::printf(
      "# parameter sensitivity: window range and slide step "
      "(%d images, %d queries, eps=0.085)\n",
      num_images, num_queries);
  std::printf("%-24s %-10s %-12s %-10s\n", "config", "build_s", "query_ms",
              "P@5");

  double single_scale_best = 0.0;
  double multi_scale_best = 0.0;
  for (const Config& config : configs) {
    walrus::WalrusParams params;
    params.min_window = config.min_window;
    params.max_window = config.max_window;
    params.slide_step = config.slide_step;
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
    double p5 = walrus::MeanOf(precisions);
    std::printf("%-24s %-10.2f %-12.2f %-10.3f\n", config.label, build_sec,
                query_ms / num_queries, p5);
    if (config.min_window == config.max_window) {
      single_scale_best = std::max(single_scale_best, p5);
    } else {
      multi_scale_best = std::max(multi_scale_best, p5);
    }
  }
  std::printf(
      "# expected shape: multi-scale windows beat single-scale "
      "(measured best %.3f vs %.3f) -- %s\n",
      multi_scale_best, single_scale_best,
      multi_scale_best >= single_scale_best ? "HOLDS" : "VIOLATED");

  // Color-space sweep (section 6.4 uses YCC; NRS98 carries the other
  // spaces): same pipeline, only the signature color space changes.
  std::printf("\n# color-space sweep (multi-scale 16-64 t8)\n");
  std::printf("%-10s %-10s %-10s\n", "space", "query_ms", "P@5");
  for (walrus::ColorSpace cs :
       {walrus::ColorSpace::kYCC, walrus::ColorSpace::kRGB,
        walrus::ColorSpace::kYIQ, walrus::ColorSpace::kHSV}) {
    walrus::WalrusParams params;
    params.color_space = cs;
    params.min_window = 16;
    params.max_window = 64;
    params.slide_step = 8;
    walrus::WalrusIndex index(params);
    for (const walrus::LabeledImage& scene : dataset) {
      if (!index
               .AddImage(static_cast<uint64_t>(scene.id), "img", scene.image)
               .ok()) {
        return 1;
      }
    }
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
    std::printf("%-10s %-10.2f %-10.3f\n", walrus::ColorSpaceName(cs),
                query_ms / num_queries, walrus::MeanOf(precisions));
  }
  return 0;
}
