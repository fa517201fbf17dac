#include "core/packed_store.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "spatial/rect.h"

namespace walrus {
namespace {

std::vector<Region> RandomRegions(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Region> regions(n);
  for (Region& r : regions) {
    r.centroid.resize(dim);
    std::vector<float> lo(dim), hi(dim);
    for (int d = 0; d < dim; ++d) {
      r.centroid[d] = rng.NextFloat();
      lo[d] = rng.NextFloat();
      hi[d] = lo[d] + rng.NextFloat();
    }
    r.bounding_box = Rect::Bounds(lo, hi);
  }
  return regions;
}

TEST(PackedSignaturePlanes, EmptyPack) {
  PackedSignaturePlanes pack = PackedSignaturePlanes::FromCentroids({});
  EXPECT_EQ(pack.count(), 0);
  EXPECT_EQ(pack.dim(), 0);
  EXPECT_FALSE(pack.has_bounds());
}

TEST(PackedSignaturePlanes, CentroidPackIsDimensionMajor) {
  const int n = 13, dim = 12;
  std::vector<Region> regions = RandomRegions(n, dim, 31);
  PackedSignaturePlanes pack = PackedSignaturePlanes::FromCentroids(regions);
  EXPECT_EQ(pack.count(), n);
  EXPECT_EQ(pack.dim(), dim);
  EXPECT_EQ(pack.stride(), n);
  EXPECT_FALSE(pack.has_bounds());
  for (int d = 0; d < dim; ++d) {
    for (int e = 0; e < n; ++e) {
      EXPECT_EQ(pack.lo_planes()[d * pack.stride() + e],
                regions[e].centroid[d])
          << "d=" << d << " e=" << e;
    }
  }
}

TEST(PackedSignaturePlanes, BoundingBoxPackFillsBothPlanes) {
  const int n = 7, dim = 5;
  std::vector<Region> regions = RandomRegions(n, dim, 32);
  PackedSignaturePlanes pack =
      PackedSignaturePlanes::FromBoundingBoxes(regions);
  EXPECT_EQ(pack.count(), n);
  EXPECT_EQ(pack.dim(), dim);
  EXPECT_TRUE(pack.has_bounds());
  for (int d = 0; d < dim; ++d) {
    for (int e = 0; e < n; ++e) {
      EXPECT_EQ(pack.lo_planes()[d * pack.stride() + e],
                regions[e].bounding_box.lo(d));
      EXPECT_EQ(pack.hi_planes()[d * pack.stride() + e],
                regions[e].bounding_box.hi(d));
    }
  }
}

}  // namespace
}  // namespace walrus
