#include "core/region.h"

#include "common/check.h"

namespace walrus {

Rect Region::IndexRect(bool use_bounding_box) const {
  if (use_bounding_box) {
    WALRUS_CHECK(!bounding_box.IsEmpty());
    return bounding_box;
  }
  return Rect::Point(centroid);
}

RegionRecord Region::ToRecord() const {
  RegionRecord record;
  record.region_id = region_id;
  record.centroid = centroid;
  record.refined_centroid = refined_centroid;
  record.bbox_lo = bounding_box.lo();
  record.bbox_hi = bounding_box.hi();
  record.bitmap = bitmap.ToBytes();
  record.bitmap_side = static_cast<uint32_t>(bitmap.side());
  record.window_count = window_count;
  return record;
}

Region Region::FromRecord(const RegionRecord& record) {
  Region region;
  region.region_id = record.region_id;
  region.centroid = record.centroid;
  region.refined_centroid = record.refined_centroid;
  region.bounding_box = Rect::Bounds(record.bbox_lo, record.bbox_hi);
  region.bitmap =
      CoverageBitmap(static_cast<int>(record.bitmap_side), record.bitmap);
  region.window_count = record.window_count;
  return region;
}

}  // namespace walrus
