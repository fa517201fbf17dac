// Ablation benchmark for index construction: serial per-image AddImage vs
// the batched AddImages path (parallel region extraction + STR bulk load),
// and the query-time effect of a bulk-loaded vs incrementally grown R*-tree.
// Not a paper experiment; quantifies engineering choices called out in
// DESIGN.md.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_json.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/query.h"
#include "image/dataset.h"

namespace {

walrus::WalrusParams Params() {
  walrus::WalrusParams p;
  p.min_window = 16;
  p.max_window = 64;
  p.slide_step = 8;
  return p;
}

}  // namespace

int main() {
  const int num_images =
      walrus::bench::EnvInt("WALRUS_BENCH_BUILD_IMAGES", 200);
  walrus::DatasetParams dp;
  dp.num_images = num_images;
  dp.width = 128;
  dp.height = 128;
  dp.seed = 4242;
  std::vector<walrus::LabeledImage> dataset = walrus::GenerateDataset(dp);

  std::printf("# index build ablation: %d images (%dx%d), %d hw threads\n",
              num_images, dp.width, dp.height,
              walrus::ThreadPool::DefaultThreads());

  // Serial AddImage.
  walrus::WalrusIndex serial(Params());
  walrus::WallTimer serial_timer;
  for (const walrus::LabeledImage& scene : dataset) {
    if (!serial.AddImage(static_cast<uint64_t>(scene.id), "img", scene.image)
             .ok()) {
      return 1;
    }
  }
  double serial_sec = serial_timer.ElapsedSeconds();

  // Batched AddImages (parallel extraction + bulk load).
  std::vector<walrus::WalrusIndex::PendingImage> batch;
  batch.reserve(dataset.size());
  for (const walrus::LabeledImage& scene : dataset) {
    batch.push_back(
        {static_cast<uint64_t>(scene.id), "img", scene.image});
  }
  walrus::WalrusIndex batched(Params());
  walrus::WallTimer batch_timer;
  if (!batched.AddImages(std::move(batch)).ok()) return 1;
  double batch_sec = batch_timer.ElapsedSeconds();

  std::printf("%-28s %-12s %-10s %-12s\n", "method", "build_sec", "height",
              "regions");
  std::printf("%-28s %-12.2f %-10d %-12zu\n", "serial AddImage", serial_sec,
              serial.tree().height(), serial.RegionCount());
  std::printf("%-28s %-12.2f %-10d %-12zu\n",
              "AddImages (parallel+bulk)", batch_sec, batched.tree().height(),
              batched.RegionCount());
  std::printf("# speedup: %.1fx\n", serial_sec / batch_sec);

  // Query latency on both trees (same pipeline, different tree shapes).
  walrus::QueryOptions options;
  options.epsilon = 0.07f;
  double serial_query = 0.0;
  double batched_query = 0.0;
  const int kQueries = 10;
  for (int q = 0; q < kQueries; ++q) {
    walrus::QueryStats stats;
    if (!walrus::ExecuteQuery(serial, dataset[q].image, options, &stats)
             .ok()) {
      return 1;
    }
    serial_query += stats.seconds;
    stats = walrus::QueryStats();
    if (!walrus::ExecuteQuery(batched, dataset[q].image, options, &stats)
             .ok()) {
      return 1;
    }
    batched_query += stats.seconds;
  }
  std::printf(
      "# avg query latency over %d queries: incremental tree %.1f ms, "
      "bulk-loaded tree %.1f ms\n",
      kQueries, 1e3 * serial_query / kQueries,
      1e3 * batched_query / kQueries);
  return 0;
}
