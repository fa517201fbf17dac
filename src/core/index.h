#ifndef WALRUS_CORE_INDEX_H_
#define WALRUS_CORE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.h"
#include "core/region.h"
#include "core/region_extractor.h"
#include "image/image.h"
#include "spatial/rstar_tree.h"
#include "storage/catalog.h"

namespace walrus {

/// Packs (image_id, region_id) into one R*-tree payload. Image ids must fit
/// in 48 bits and region ids in 16.
uint64_t EncodeRegionPayload(uint64_t image_id, uint32_t region_id);
void DecodeRegionPayload(uint64_t payload, uint64_t* image_id,
                         uint32_t* region_id);

/// Checks one record against the params of the index it is about to enter:
/// the image id fits 48 bits; region ids are dense (region i has id i,
/// which also keeps them within 16 bits); centroid and box lengths equal
/// params.SignatureDim(), and the refined centroid is empty or
/// Channels() * r * r long; every centroid, refined and box float is
/// finite with bbox_lo <= bbox_hi; bitmap_side equals params.bitmap_side
/// and the bitmap holds exactly side * side bits. InvalidArgument names the
/// first violation. FromRecords and AddImageRecord run it on their input;
/// catalog load and WAL replay run it too and report Corruption instead.
[[nodiscard]] Status ValidateImageRecord(const ImageRecord& record,
                                         const WalrusParams& params);

/// The WALRUS image database: every indexed image is decomposed into
/// regions (section 5.3); region signatures go into an R*-tree (section
/// 5.4) and region metadata (centroid, signature bounding box, coverage
/// bitmap) into the catalog. Both parts serialize to disk.
class WalrusIndex {
 public:
  /// Empty index. `params` fixes the extraction settings and the signature
  /// dimensionality for the index's lifetime (persisted alongside the data
  /// and checked on Open).
  explicit WalrusIndex(WalrusParams params);

  WalrusIndex(const WalrusIndex&) = delete;
  WalrusIndex& operator=(const WalrusIndex&) = delete;
  WalrusIndex(WalrusIndex&&) = default;
  WalrusIndex& operator=(WalrusIndex&&) = default;

  /// The construction-time parameters (immutable).
  const WalrusParams& params() const { return params_; }
  /// Image + region metadata store (names, areas, signatures, bitmaps).
  const Catalog& catalog() const { return catalog_; }
  /// The region R*-tree: a heap arena, or a read-only file mapping when
  /// the index was opened paged.
  const RStarTree& tree() const { return tree_; }

  /// True when the tree is the mapping of a `.ptree` file (OpenPaged); the
  /// index is then read-only.
  bool is_paged() const { return tree_.is_mapped(); }

  /// Region-signature probe: streams every indexed region whose rect
  /// intersects one of `probes`, all probes in one shared tree traversal
  /// (see RStarTree::RangeQueryBatch). The visitor's first argument is the
  /// index into `probes` of the matching probe. `nodes_visited`, when
  /// non-null, receives the tree nodes this call touched.
  [[nodiscard]] Status ProbeRangeBatch(
      const std::vector<Rect>& probes,
      const std::function<bool(int, const RectView&, uint64_t)>& visitor,
      int64_t* nodes_visited = nullptr) const;

  /// k nearest region signatures to `point` (centroid mode), ordered by
  /// (distance, payload). `nodes_visited` as for ProbeRangeBatch.
  [[nodiscard]] Result<std::vector<std::pair<uint64_t, double>>> ProbeNearest(
      const std::vector<float>& point, int k,
      int64_t* nodes_visited = nullptr) const;

  /// Number of indexed images.
  size_t ImageCount() const { return catalog_.size(); }
  /// Total regions across all indexed images (== R*-tree entry count).
  size_t RegionCount() const { return catalog_.TotalRegions(); }

  /// Extracts regions from `image` and indexes them under `image_id`.
  /// `stats` (optional) receives extraction diagnostics.
  [[nodiscard]] Status AddImage(uint64_t image_id, const std::string& name,
                  const ImageF& image, ExtractionStats* stats = nullptr);

  /// Removes an indexed image: its catalog record and every one of its
  /// region entries in the R*-tree. NotFound when the id is not indexed;
  /// Unimplemented on a paged (read-only) index.
  [[nodiscard]] Status RemoveImage(uint64_t image_id);

  /// Region extraction + record assembly without touching any index: the
  /// live-ingest path (wal/live_index.h) runs this outside its locks, logs
  /// the record to the WAL, and applies it with AddImageRecord. Rejects
  /// image ids that do not fit the packed 48-bit R*-tree payload with
  /// InvalidArgument (wire input reaches here, so this must not be a
  /// contract check).
  [[nodiscard]] static Result<ImageRecord> ExtractImageRecord(
      const WalrusParams& params, uint64_t image_id, const std::string& name,
      const ImageF& image, ExtractionStats* stats = nullptr);

  /// Indexes an already-extracted record: every region signature goes into
  /// the R*-tree with exactly the rect FromRecords would bulk-load for it,
  /// so an index grown by AddImageRecord answers probes identically to one
  /// rebuilt offline from the same records. AlreadyExists on a duplicate
  /// id; InvalidArgument when ValidateImageRecord rejects the record;
  /// Unimplemented on a paged (read-only) index.
  [[nodiscard]] Status AddImageRecord(ImageRecord record);

  /// One image of a batch insert.
  struct PendingImage {
    uint64_t image_id = 0;
    std::string name;
    ImageF image;
  };

  /// Adds a batch of images, running region extraction (the expensive part:
  /// wavelets + clustering) across `num_threads` workers and then inserting
  /// serially. 0 threads = hardware concurrency. The batch is atomic: on
  /// any extraction failure or duplicate id nothing is added. Unimplemented
  /// on a paged (read-only) index.
  [[nodiscard]] Status AddImages(std::vector<PendingImage> images,
                                 int num_threads = 0);

  /// Builds an index directly from already-extracted catalog records,
  /// STR-bulk-loading the tree from their region signatures. This is the
  /// repartitioning path: ShardedIndex::Partition slices one index's
  /// catalog by shard and rebuilds each slice without re-running region
  /// extraction. Fails on duplicate image ids, and with InvalidArgument
  /// when ValidateImageRecord rejects a record.
  [[nodiscard]] static Result<WalrusIndex> FromRecords(WalrusParams params,
                                         std::vector<ImageRecord> records);

  /// Materializes the Region objects of an indexed image.
  [[nodiscard]] Result<std::vector<Region>> ImageRegions(
      uint64_t image_id) const;

  /// Pixel area (width*height) of an indexed image.
  [[nodiscard]] Result<double> ImageArea(uint64_t image_id) const;

  /// Persists to `<path_prefix>.catalog` (page file) and
  /// `<path_prefix>.index` (params + the R*-tree's file image).
  [[nodiscard]] Status Save(const std::string& path_prefix) const;

  /// Loads an index previously written by Save into a heap tree.
  /// Corruption when the tree image is damaged (see
  /// RStarTree::Deserialize) or a catalog record fails
  /// ValidateImageRecord.
  [[nodiscard]] static Result<WalrusIndex> Open(const std::string& path_prefix);

  /// Persists for paged serving: `<path_prefix>.catalog`,
  /// `<path_prefix>.pmeta` (params) and `<path_prefix>.ptree` (this
  /// index's tree, the same file image Save embeds). The tree file is
  /// renamed into place, so re-saving a prefix never truncates a file that
  /// an open paged index has mapped.
  [[nodiscard]] Status SavePaged(const std::string& path_prefix) const;

  /// Opens an index written by SavePaged with its tree mapped read-only
  /// from the `.ptree` file: probes read nodes straight from the mapping,
  /// the paper's "disk-based index" deployment. The file is checked at
  /// open (Corruption on damage); the returned index is read-only
  /// (AddImageRecord, AddImages and RemoveImage answer Unimplemented).
  /// Catalog records are validated as in Open.
  [[nodiscard]] static Result<WalrusIndex> OpenPaged(
      const std::string& path_prefix);

  /// Deep cross-layer validation: the catalog's own invariants
  /// (Catalog::Validate), the tree's own invariants (RStarTree::Validate),
  /// and the bridge between them -- every region signature in the catalog
  /// must appear in the tree exactly once with the same rect and payload,
  /// and vice versa. O(index size); invoked from tests and, when
  /// DeepChecksEnabled(), after mutations.
  [[nodiscard]] Status ValidateConsistency() const;

 private:
  /// (Rect, payload) entries for every region in the catalog, in the
  /// layout the trees index.
  std::vector<std::pair<Rect, uint64_t>> CatalogEntries() const;

  WalrusParams params_;
  Catalog catalog_;
  RStarTree tree_;
};

/// Serializes params (used by Save/Open; exposed for tests).
void SerializeParams(const WalrusParams& params, BinaryWriter* writer);
[[nodiscard]] Result<WalrusParams> DeserializeParams(BinaryReader* reader);

}  // namespace walrus

#endif  // WALRUS_CORE_INDEX_H_
