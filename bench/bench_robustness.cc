// Robustness study: the paper's introduction claims robustness "with
// respect to resolution changes, dithering effects, color shifts,
// orientation, size, and location". This benchmark quantifies each claim:
// every database image gets a perturbed twin, and we report the WALRUS
// similarity of each twin to its original (higher = more robust) plus how
// often the twin is the top-1 result. 90-degree rotation is included to
// show the model's known limit: Haar signatures swap their horizontal and
// vertical detail coefficients under rotation, so robustness there comes
// only from near-isotropic regions.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#include "bench_json.h"
#include "core/index.h"
#include "core/query.h"
#include "eval/metrics.h"
#include "image/color.h"
#include "image/dataset.h"
#include "image/transform.h"

namespace {

struct Perturbation {
  const char* name;
  std::function<walrus::ImageF(const walrus::ImageF&, walrus::Rng*)> apply;
};

}  // namespace

int main() {
  const int num_images =
      walrus::bench::EnvInt("WALRUS_BENCH_ROBUST_IMAGES", 24);
  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 96;
  dp.height = 96;
  dp.seed = 808;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);

  const std::vector<Perturbation> perturbations = {
      {"identity",
       [](const walrus::ImageF& img, walrus::Rng*) { return img; }},
      {"noise(0.02)",
       [](const walrus::ImageF& img, walrus::Rng* rng) {
         return walrus::AddGaussianNoise(img, 0.02f, rng);
       }},
      {"posterize(16)",
       [](const walrus::ImageF& img, walrus::Rng*) {
         return walrus::Posterize(img, 16);
       }},
      {"color-shift(+0.05)",
       [](const walrus::ImageF& img, walrus::Rng*) {
         return walrus::ShiftIntensity(img, 0.05f);
       }},
      {"rescale(0.75x)",
       [](const walrus::ImageF& img, walrus::Rng*) {
         walrus::ImageF down = walrus::Resize(
             img, 72, 72, walrus::ResizeFilter::kBoxAverage);
         return walrus::Resize(down, 96, 96, walrus::ResizeFilter::kBilinear);
       }},
      {"translate(8,4)",
       [](const walrus::ImageF& img, walrus::Rng*) {
         return walrus::TranslateWrap(img, 8, 4);
       }},
      {"flip-horizontal",
       [](const walrus::ImageF& img, walrus::Rng*) {
         return walrus::FlipHorizontal(img);
       }},
      {"rotate90",
       [](const walrus::ImageF& img, walrus::Rng*) {
         return walrus::Rotate90(img);
       }},
      {"rotate10deg",
       [](const walrus::ImageF& img, walrus::Rng*) {
         return walrus::Rotate(img, 10.0f, 0.5f);
       }},
  };

  walrus::WalrusParams params;
  params.min_window = 16;
  params.max_window = 64;
  params.slide_step = 8;
  walrus::WalrusIndex index(params);
  for (const walrus::LabeledImage& scene : dataset) {
    if (!index.AddImage(static_cast<uint64_t>(scene.id), "img", scene.image)
             .ok()) {
      return 1;
    }
  }

  std::printf(
      "# robustness study: similarity of perturbed copies to their "
      "originals (%d images)\n",
      num_images);
  std::printf("%-20s %-16s %-12s\n", "perturbation", "avg_similarity",
              "top1_rate");

  walrus::Rng rng(9);
  for (const Perturbation& perturbation : perturbations) {
    std::vector<double> similarities;
    int top1 = 0;
    for (const walrus::LabeledImage& scene : dataset) {
      walrus::ImageF twin = perturbation.apply(scene.image, &rng);
      walrus::QueryOptions options;
      options.epsilon = 0.085f;
      options.matcher = walrus::MatcherKind::kGreedy;
      auto matches = walrus::ExecuteQuery(index, twin, options);
      if (!matches.ok()) return 1;
      double self_similarity = 0.0;
      double best_other = 0.0;
      for (const walrus::QueryMatch& m : *matches) {
        if (m.image_id == static_cast<uint64_t>(scene.id)) {
          self_similarity = m.similarity;
        } else {
          best_other = std::max(best_other, m.similarity);
        }
      }
      similarities.push_back(self_similarity);
      // Top-1 with tie tolerance: nothing ranks strictly above the original.
      if (self_similarity >= best_other - 1e-9) ++top1;
    }
    std::printf("%-20s %-16.3f %-12.2f\n", perturbation.name,
                walrus::MeanOf(similarities),
                static_cast<double>(top1) / num_images);
  }
  std::printf(
      "# expected shape: near-1 similarity for noise/posterize/color-shift/"
      "rescale/translate; lower for rotate90 (Haar detail coefficients are "
      "orientation sensitive)\n");
  return 0;
}
