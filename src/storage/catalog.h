#ifndef WALRUS_STORAGE_CATALOG_H_
#define WALRUS_STORAGE_CATALOG_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace walrus {

/// Catalog file format, stamped at the head of the directory blob. v2
/// dropped the per-region binary signature words that v1 stored after
/// window_count; a v1 file fails to load instead of being misparsed.
inline constexpr uint32_t kCatalogMagic = 0x57434154;  // "WCAT"
inline constexpr uint32_t kCatalogFormatVersion = 2;

/// Persistent description of one extracted image region: everything the
/// query pipeline needs without re-reading pixels (paper section 5.3 stores
/// "its signature along with its bitmap" per region).
struct RegionRecord {
  uint32_t region_id = 0;  // index within its image
  /// Cluster centroid signature (dim = channels * s * s).
  std::vector<float> centroid;
  /// Optional refined centroid (channels * r * r; empty when refinement is
  /// disabled). See WalrusParams::refined_signature_size.
  std::vector<float> refined_centroid;
  /// Bounding box of all window signatures in the cluster.
  std::vector<float> bbox_lo;
  std::vector<float> bbox_hi;
  /// Coarse coverage bitmap, row-major bitmap_side x bitmap_side bits packed
  /// into bytes.
  std::vector<uint8_t> bitmap;
  uint32_t bitmap_side = 0;
  /// Number of sliding windows clustered into this region.
  uint64_t window_count = 0;

  void Serialize(BinaryWriter* writer) const;
  static Result<RegionRecord> Deserialize(BinaryReader* reader);
};

/// Per-image catalog entry.
struct ImageRecord {
  uint64_t image_id = 0;
  std::string name;
  uint32_t width = 0;
  uint32_t height = 0;
  std::vector<RegionRecord> regions;

  void Serialize(BinaryWriter* writer) const;
  static Result<ImageRecord> Deserialize(BinaryReader* reader);
};

/// The image/region metadata store behind a WalrusIndex. In memory it is an
/// id-ordered vector plus a hash map; on disk each image record is one blob
/// in a PageFile, located through a directory blob.
class Catalog {
 public:
  Catalog() = default;

  /// Adds an image record; its image_id must be unused.
  Status AddImage(ImageRecord record);

  /// Removes an image record; NotFound when absent.
  Status RemoveImage(uint64_t image_id);

  const ImageRecord* FindImage(uint64_t image_id) const;
  const std::vector<ImageRecord>& images() const { return images_; }
  size_t size() const { return images_.size(); }

  /// Total regions across all images.
  size_t TotalRegions() const;

  /// Structural validation: the id map and the record vector must agree
  /// (equal sizes, every map slot in range and pointing at the record with
  /// that id), region ids must be unique within each image, and every
  /// region bbox must be well-formed (lo/hi same length, lo <= hi). Returns
  /// an error describing the first violation.
  Status Validate() const;

  /// Persists the catalog into a freshly created PageFile at `path`.
  Status SaveToFile(const std::string& path) const;

  /// Loads a catalog previously written by SaveToFile. A file in another
  /// format version, or a record blob with bytes left over after its
  /// record, is Corruption.
  static Result<Catalog> LoadFromFile(const std::string& path);

 private:
  std::vector<ImageRecord> images_;
  std::unordered_map<uint64_t, size_t> by_id_;
};

}  // namespace walrus

#endif  // WALRUS_STORAGE_CATALOG_H_
