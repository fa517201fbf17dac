// Quantifies the Figure 7 vs Figure 8 comparison: retrieval quality of
// WALRUS against the whole-image baselines (WBIIS-style Daubechies
// signatures, JFS95 truncated Haar signatures, QBIC-style color histograms)
// on the synthetic labelled dataset, where two images are relevant iff they
// contain the same dominant object class (at random positions and scales --
// the translation/scaling setting the paper targets).
//
// The paper shows the comparison qualitatively (top-14 grids, ~7/14 bad for
// WBIIS vs ~1/14 bad for WALRUS); with ground truth we report precision@k
// and mean average precision. Expected shape: WALRUS above WBIIS, the
// system the paper compares against. JFS95 and color histograms are extra
// context (the paper only discusses them as related work).

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_json.h"
#include "baselines/color_histogram.h"
#include "baselines/jfs.h"
#include "baselines/wbiis.h"
#include "core/index.h"
#include "core/query.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "image/dataset.h"

namespace {

struct SystemScores {
  std::vector<double> p5;
  std::vector<double> p10;
  std::vector<double> ap;
};

void Record(SystemScores* scores, const std::vector<uint64_t>& retrieved,
            const walrus::RelevanceFn& relevant, int total_relevant) {
  scores->p5.push_back(walrus::PrecisionAtK(retrieved, relevant, 5));
  scores->p10.push_back(walrus::PrecisionAtK(retrieved, relevant, 10));
  scores->ap.push_back(
      walrus::AveragePrecision(retrieved, relevant, total_relevant));
}

void Print(const char* name, const SystemScores& scores) {
  std::printf("%-22s %-10.3f %-10.3f %-10.3f\n", name,
              walrus::MeanOf(scores.p5), walrus::MeanOf(scores.p10),
              walrus::MeanOf(scores.ap));
}

}  // namespace

int main() {
  const int num_images =
      walrus::bench::EnvInt("WALRUS_BENCH_QUALITY_IMAGES", 120);
  const int num_queries =
      walrus::bench::EnvInt("WALRUS_BENCH_QUALITY_QUERIES", 24);

  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 96;
  dp.height = 96;
  dp.seed = 20260706;
  dp.min_dominant = 1;
  dp.max_dominant = 2;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);
  walrus::GroundTruth truth(dataset);

  // WALRUS with multi-scale windows (the scale-invariance mechanism).
  walrus::WalrusParams wp;
  wp.min_window = 16;
  wp.max_window = 64;
  wp.slide_step = 8;
  wp.cluster_epsilon = 0.05;
  walrus::WalrusIndex index(wp);

  walrus::WbiisRetriever wbiis;
  walrus::JfsRetriever jfs;
  walrus::ColorHistogramRetriever histogram;

  for (const walrus::LabeledImage& scene : dataset) {
    uint64_t id = static_cast<uint64_t>(scene.id);
    if (!index.AddImage(id, "img", scene.image).ok() ||
        !wbiis.AddImage(id, scene.image).ok() ||
        !jfs.AddImage(id, scene.image).ok() ||
        !histogram.AddImage(id, scene.image).ok()) {
      std::fprintf(stderr, "indexing failed for image %llu\n",
                   static_cast<unsigned long long>(id));
      return 1;
    }
  }

  SystemScores walrus_quick, walrus_greedy, wbiis_scores, jfs_scores,
      histogram_scores;

  for (int q = 0; q < num_queries && q < num_images; ++q) {
    uint64_t query_id = static_cast<uint64_t>(dataset[q].id);
    const walrus::ImageF& query = dataset[q].image;
    walrus::RelevanceFn relevant = truth.ForQuery(query_id);
    int total_relevant = truth.RelevantCount(query_id);

    auto strip_self = [query_id](const std::vector<uint64_t>& ids) {
      std::vector<uint64_t> out;
      for (uint64_t id : ids) {
        if (id != query_id) out.push_back(id);
      }
      return out;
    };

    for (walrus::MatcherKind matcher :
         {walrus::MatcherKind::kQuick, walrus::MatcherKind::kGreedy}) {
      walrus::QueryOptions options;
      options.epsilon = 0.085f;  // the paper's retrieval epsilon
      options.matcher = matcher;
      auto matches = walrus::ExecuteQuery(index, query, options);
      if (!matches.ok()) return 1;
      std::vector<uint64_t> ids;
      for (const walrus::QueryMatch& m : *matches) ids.push_back(m.image_id);
      Record(matcher == walrus::MatcherKind::kQuick ? &walrus_quick
                                                    : &walrus_greedy,
             strip_self(ids), relevant, total_relevant);
    }

    auto wmatches = wbiis.Query(query, 0);
    if (!wmatches.ok()) return 1;
    std::vector<uint64_t> wids;
    for (const auto& m : *wmatches) wids.push_back(m.image_id);
    Record(&wbiis_scores, strip_self(wids), relevant, total_relevant);

    auto jmatches = jfs.Query(query, 0);
    if (!jmatches.ok()) return 1;
    std::vector<uint64_t> jids;
    for (const auto& m : *jmatches) jids.push_back(m.image_id);
    Record(&jfs_scores, strip_self(jids), relevant, total_relevant);

    auto hmatches = histogram.Query(query, 0);
    if (!hmatches.ok()) return 1;
    std::vector<uint64_t> hids;
    for (const auto& m : *hmatches) hids.push_back(m.image_id);
    Record(&histogram_scores, strip_self(hids), relevant, total_relevant);
  }

  std::printf(
      "# Figures 7/8 quantified: retrieval quality, %d queries over %d "
      "images, 6 object classes (random positions/scales)\n",
      num_queries, num_images);
  std::printf("%-22s %-10s %-10s %-10s\n", "system", "P@5", "P@10", "MAP");
  Print("walrus(quick)", walrus_quick);
  Print("walrus(greedy)", walrus_greedy);
  Print("wbiis", wbiis_scores);
  Print("jfs95", jfs_scores);
  Print("color-histogram", histogram_scores);

  // The paper's Figure 7/8 comparison is WALRUS against WBIIS (about 7/14
  // semantically wrong results for WBIIS vs ~1/14 for WALRUS); that is the
  // shape to check. The other baselines are context: on synthetic scenes
  // with parametric color-coded object classes, a global color histogram
  // stays competitive by construction (see EXPERIMENTS.md).
  double best_walrus = std::max(walrus::MeanOf(walrus_quick.p5),
                                walrus::MeanOf(walrus_greedy.p5));
  double wbiis_p5 = walrus::MeanOf(wbiis_scores.p5);
  std::printf(
      "# paper shape check: WALRUS P@5 (%.3f) vs WBIIS P@5 (%.3f) -- %s\n",
      best_walrus, wbiis_p5,
      best_walrus >= wbiis_p5 ? "HOLDS (WALRUS wins)" : "VIOLATED");
  return 0;
}
