#ifndef WALRUS_CORE_PACKED_STORE_H_
#define WALRUS_CORE_PACKED_STORE_H_

#include <vector>

#include "core/region.h"

namespace walrus {

/// Region signatures re-laid as contiguous SoA float planes for the batch
/// kernels in common/simd.h (DESIGN.md section 12).
///
/// The natural Region layout is an array of structs -- every centroid and
/// every Rect bound is its own heap vector, so a scan that compares one
/// query signature against N candidate signatures chases 2N+ pointers. A
/// PackedSignaturePlanes transposes one region list into dimension-major
/// planes: plane d occupies floats [d * count, (d + 1) * count), so entry e
/// of all regions sits at offset e of each plane and a batch kernel streams
/// lanes of adjacent entries. `stride()` equals `count()`; kernels handle
/// non-multiple-of-lane tails internally, so no padding is stored.
///
/// Centroid packs fill only the lo planes (a centroid is a point);
/// bounding-box packs fill lo and hi planes.
class PackedSignaturePlanes {
 public:
  PackedSignaturePlanes() = default;

  /// Packs `regions[i].centroid` into the lo planes. All centroids must
  /// share one dimensionality.
  static PackedSignaturePlanes FromCentroids(
      const std::vector<Region>& regions);

  /// Packs `regions[i].bounding_box` bounds into the lo and hi planes.
  static PackedSignaturePlanes FromBoundingBoxes(
      const std::vector<Region>& regions);

  int count() const { return count_; }
  int dim() const { return dim_; }
  /// Distance in floats between consecutive dimension planes.
  int stride() const { return count_; }
  /// True when hi planes are populated (bounding-box pack).
  bool has_bounds() const { return !hi_.empty(); }

  /// Base of the lo (or point-coordinate) planes.
  const float* lo_planes() const { return lo_.data(); }
  const float* hi_planes() const { return hi_.data(); }

 private:
  int count_ = 0;
  int dim_ = 0;
  std::vector<float> lo_;
  std::vector<float> hi_;
};

}  // namespace walrus

#endif  // WALRUS_CORE_PACKED_STORE_H_
