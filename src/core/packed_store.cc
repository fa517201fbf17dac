#include "core/packed_store.h"

#include "common/check.h"

namespace walrus {

PackedSignaturePlanes PackedSignaturePlanes::FromCentroids(
    const std::vector<Region>& regions) {
  PackedSignaturePlanes store;
  store.count_ = static_cast<int>(regions.size());
  if (regions.empty()) return store;
  store.dim_ = static_cast<int>(regions[0].centroid.size());
  store.lo_.resize(static_cast<size_t>(store.dim_) * store.count_);
  for (int e = 0; e < store.count_; ++e) {
    const std::vector<float>& c = regions[e].centroid;
    WALRUS_CHECK_EQ(static_cast<int>(c.size()), store.dim_);
    for (int d = 0; d < store.dim_; ++d) {
      store.lo_[static_cast<size_t>(d) * store.count_ + e] = c[d];
    }
  }
  return store;
}

PackedSignaturePlanes PackedSignaturePlanes::FromBoundingBoxes(
    const std::vector<Region>& regions) {
  PackedSignaturePlanes store;
  store.count_ = static_cast<int>(regions.size());
  if (regions.empty()) return store;
  store.dim_ = regions[0].bounding_box.dim();
  const size_t plane_floats = static_cast<size_t>(store.dim_) * store.count_;
  store.lo_.resize(plane_floats);
  store.hi_.resize(plane_floats);
  for (int e = 0; e < store.count_; ++e) {
    const Rect& box = regions[e].bounding_box;
    WALRUS_CHECK_EQ(box.dim(), store.dim_);
    for (int d = 0; d < store.dim_; ++d) {
      store.lo_[static_cast<size_t>(d) * store.count_ + e] = box.lo(d);
      store.hi_[static_cast<size_t>(d) * store.count_ + e] = box.hi(d);
    }
  }
  return store;
}

}  // namespace walrus
