// Ablation: centroid vs bounding-box region signatures (both variants of
// Definition 4.1). Measures index size/selectivity, query latency and
// retrieval quality on the labelled synthetic dataset. The paper uses
// centroids in its experiments and mentions bounding boxes as the
// alternative; this quantifies the trade-off: boxes match more generously
// (higher recall, more candidates retrieved), centroids are tighter.

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

struct KindReport {
  double build_sec = 0.0;
  double avg_query_ms = 0.0;
  double avg_candidates = 0.0;
  double avg_regions_retrieved = 0.0;
  double p5 = 0.0;
};

KindReport Evaluate(walrus::RegionSignatureKind kind,
                    const std::vector<walrus::LabeledImage>& dataset,
                    const walrus::GroundTruth& truth, int num_queries) {
  walrus::WalrusParams params;
  params.min_window = 16;
  params.max_window = 64;
  params.slide_step = 8;
  params.signature_kind = kind;
  walrus::WalrusIndex index(params);

  KindReport report;
  walrus::WallTimer build_timer;
  for (const walrus::LabeledImage& scene : dataset) {
    if (!index.AddImage(static_cast<uint64_t>(scene.id), "img", scene.image)
             .ok()) {
      std::exit(1);
    }
  }
  report.build_sec = build_timer.ElapsedSeconds();

  std::vector<double> precisions;
  for (int q = 0; q < num_queries; ++q) {
    walrus::QueryOptions options;
    options.epsilon = 0.085f;
    walrus::QueryStats stats;
    auto matches =
        walrus::ExecuteQuery(index, dataset[q].image, options, &stats);
    if (!matches.ok()) std::exit(1);
    report.avg_query_ms += stats.seconds * 1e3;
    report.avg_candidates += stats.distinct_images;
    report.avg_regions_retrieved += stats.avg_regions_per_query_region;
    std::vector<uint64_t> ids;
    for (const walrus::QueryMatch& m : *matches) {
      if (m.image_id != static_cast<uint64_t>(q)) ids.push_back(m.image_id);
    }
    precisions.push_back(walrus::PrecisionAtK(
        ids, truth.ForQuery(static_cast<uint64_t>(q)), 5));
  }
  report.avg_query_ms /= num_queries;
  report.avg_candidates /= num_queries;
  report.avg_regions_retrieved /= num_queries;
  report.p5 = walrus::MeanOf(precisions);
  return report;
}

}  // namespace

int main() {
  const int num_images = walrus::bench::EnvInt("WALRUS_BENCH_KIND_IMAGES", 90);
  const int num_queries =
      walrus::bench::EnvInt("WALRUS_BENCH_KIND_QUERIES", 18);
  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 96;
  dp.height = 96;
  dp.seed = 31337;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);
  walrus::GroundTruth truth(dataset);

  std::printf(
      "# ablation: centroid vs bounding-box region signatures "
      "(%d images, %d queries, eps=0.085)\n",
      num_images, num_queries);
  std::printf("%-14s %-11s %-12s %-12s %-16s %-8s\n", "kind", "build_s",
              "query_ms", "candidates", "regions/region", "P@5");
  KindReport centroid = Evaluate(walrus::RegionSignatureKind::kCentroid,
                                 dataset, truth, num_queries);
  std::printf("%-14s %-11.2f %-12.2f %-12.1f %-16.1f %-8.3f\n", "centroid",
              centroid.build_sec, centroid.avg_query_ms,
              centroid.avg_candidates, centroid.avg_regions_retrieved,
              centroid.p5);
  KindReport bbox = Evaluate(walrus::RegionSignatureKind::kBoundingBox,
                             dataset, truth, num_queries);
  std::printf("%-14s %-11.2f %-12.2f %-12.1f %-16.1f %-8.3f\n", "bbox",
              bbox.build_sec, bbox.avg_query_ms, bbox.avg_candidates,
              bbox.avg_regions_retrieved, bbox.p5);
  std::printf(
      "# expected shape: bounding boxes retrieve more regions/candidates "
      "per query (looser Definition 4.1) -- %s\n",
      bbox.avg_regions_retrieved >= centroid.avg_regions_retrieved
          ? "HOLDS"
          : "VIOLATED");
  return 0;
}
