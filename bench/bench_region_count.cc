// Reproduces section 6.6: average number of regions generated per image as
// the clustering epsilon (epsilon_c) varies from 0.025 to 0.1, for both the
// RGB and YCC color spaces.
//
// Expected shape (paper): the number of clusters decreases as epsilon_c
// increases, and RGB typically produces about four times more clusters than
// YCC (chroma planes carry more inter-window variance in RGB).

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_json.h"
#include "core/region_extractor.h"
#include "image/dataset.h"

namespace {

double AverageRegions(const std::vector<walrus::LabeledImage>& images,
                      walrus::ColorSpace cs, double epsilon_c) {
  walrus::WalrusParams params;  // 64x64 windows, s=2, as in section 6.4
  params.color_space = cs;
  params.slide_step = 4;
  params.cluster_epsilon = epsilon_c;
  double total = 0.0;
  for (const walrus::LabeledImage& scene : images) {
    walrus::ExtractionStats stats;
    auto regions = walrus::ExtractRegions(scene.image, params, &stats);
    if (!regions.ok()) {
      std::fprintf(stderr, "extraction failed: %s\n",
                   regions.status().ToString().c_str());
      std::exit(1);
    }
    total += stats.region_count;
  }
  return total / images.size();
}

}  // namespace

int main() {
  const int num_images =
      walrus::bench::EnvInt("WALRUS_BENCH_REGION_IMAGES", 24);
  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 128;
  dp.height = 128;
  dp.seed = 99;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);

  std::printf(
      "# Section 6.6: average regions per image vs clustering epsilon\n");
  std::printf("# %d images (%dx%d), 64x64 windows, s=2\n", num_images,
              dp.width, dp.height);
  std::printf("%-12s %-12s %-12s %-12s\n", "epsilon_c", "rgb_regions",
              "ycc_regions", "rgb/ycc");

  bool decreasing_ycc = true;
  double prev_ycc = 1e18;
  double ratio_sum = 0.0;
  int rows = 0;
  for (double eps : {0.025, 0.05, 0.075, 0.1}) {
    double rgb = AverageRegions(dataset, walrus::ColorSpace::kRGB, eps);
    double ycc = AverageRegions(dataset, walrus::ColorSpace::kYCC, eps);
    std::printf("%-12.3f %-12.2f %-12.2f %-12.2f\n", eps, rgb, ycc,
                rgb / ycc);
    if (ycc > prev_ycc) decreasing_ycc = false;
    prev_ycc = ycc;
    ratio_sum += rgb / ycc;
    ++rows;
  }
  std::printf(
      "# paper shape check: regions decrease with epsilon_c -- %s; RGB/YCC "
      "ratio (paper ~4x) -- measured avg %.1fx\n",
      decreasing_ycc ? "HOLDS" : "VIOLATED", ratio_sum / rows);
  return 0;
}
