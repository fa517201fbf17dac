#include "core/index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace walrus {

uint64_t EncodeRegionPayload(uint64_t image_id, uint32_t region_id) {
  WALRUS_CHECK_LT(image_id, uint64_t{1} << 48);
  WALRUS_CHECK_LT(region_id, 1u << 16);
  return (image_id << 16) | region_id;
}

void DecodeRegionPayload(uint64_t payload, uint64_t* image_id,
                         uint32_t* region_id) {
  *image_id = payload >> 16;
  *region_id = static_cast<uint32_t>(payload & 0xffff);
}

namespace {

bool AllFinite(const std::vector<float>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](float v) { return std::isfinite(v); });
}

/// A bad record on disk is damage, not a caller error: Corruption.
Status ValidateCatalog(const Catalog& catalog, const WalrusParams& params) {
  for (const ImageRecord& record : catalog.images()) {
    Status status = ValidateImageRecord(record, params);
    if (!status.ok()) return Status::Corruption("catalog: " + status.message());
  }
  return Status::OK();
}

}  // namespace

Status ValidateImageRecord(const ImageRecord& record,
                           const WalrusParams& params) {
  const auto invalid = [&](size_t region, const std::string& what) {
    return Status::InvalidArgument("image " + std::to_string(record.image_id) +
                                   " region " + std::to_string(region) + ": " +
                                   what);
  };
  if (record.image_id >= (uint64_t{1} << 48)) {
    return Status::InvalidArgument(
        "image id " + std::to_string(record.image_id) +
        " does not fit the 48-bit region payload");
  }
  const size_t dim = static_cast<size_t>(params.SignatureDim());
  const size_t refined_dim = static_cast<size_t>(
      params.Channels() * params.refined_signature_size *
      params.refined_signature_size);
  const size_t side = static_cast<size_t>(params.bitmap_side);
  for (size_t i = 0; i < record.regions.size(); ++i) {
    const RegionRecord& region = record.regions[i];
    if (region.region_id != i || i >= (1u << 16)) {
      return invalid(i, "region ids must be dense and fit 16 bits");
    }
    if (region.centroid.size() != dim || region.bbox_lo.size() != dim ||
        region.bbox_hi.size() != dim) {
      return invalid(i, "centroid/bbox length is not the signature dim " +
                            std::to_string(dim));
    }
    if (!region.refined_centroid.empty() &&
        region.refined_centroid.size() != refined_dim) {
      return invalid(i, "refined centroid length is not " +
                            std::to_string(refined_dim));
    }
    if (!AllFinite(region.centroid) || !AllFinite(region.refined_centroid) ||
        !AllFinite(region.bbox_lo) || !AllFinite(region.bbox_hi)) {
      return invalid(i, "non-finite signature value");
    }
    for (size_t d = 0; d < dim; ++d) {
      if (region.bbox_lo[d] > region.bbox_hi[d]) {
        return invalid(i, "inverted bbox");
      }
    }
    if (region.bitmap_side != side ||
        region.bitmap.size() != (side * side + 7) / 8) {
      return invalid(i, "bitmap does not match bitmap_side " +
                            std::to_string(side));
    }
  }
  return Status::OK();
}

WalrusIndex::WalrusIndex(WalrusParams params)
    : params_(params), tree_(params.SignatureDim()) {
  WALRUS_CHECK(params.Validate().ok()) << params.Validate();
}

Status WalrusIndex::AddImage(uint64_t image_id, const std::string& name,
                             const ImageF& image, ExtractionStats* stats) {
  if (catalog_.FindImage(image_id) != nullptr) {
    return Status::AlreadyExists("image id " + std::to_string(image_id));
  }
  WALRUS_ASSIGN_OR_RETURN(
      ImageRecord record,
      ExtractImageRecord(params_, image_id, name, image, stats));
  return AddImageRecord(std::move(record));
}

Result<ImageRecord> WalrusIndex::ExtractImageRecord(const WalrusParams& params,
                                                    uint64_t image_id,
                                                    const std::string& name,
                                                    const ImageF& image,
                                                    ExtractionStats* stats) {
  if (image_id >= (uint64_t{1} << 48)) {
    return Status::InvalidArgument(
        "image id " + std::to_string(image_id) +
        " does not fit the 48-bit region payload");
  }
  WALRUS_ASSIGN_OR_RETURN(std::vector<Region> regions,
                          ExtractRegions(image, params, stats));
  ImageRecord record;
  record.image_id = image_id;
  record.name = name;
  record.width = static_cast<uint32_t>(image.width());
  record.height = static_cast<uint32_t>(image.height());
  record.regions.reserve(regions.size());
  for (const Region& region : regions) {
    record.regions.push_back(region.ToRecord());
  }
  return record;
}

Status WalrusIndex::AddImageRecord(ImageRecord record) {
  if (is_paged()) {
    return Status::Unimplemented("paged index is read-only");
  }
  if (catalog_.FindImage(record.image_id) != nullptr) {
    return Status::AlreadyExists("image id " +
                                 std::to_string(record.image_id));
  }
  WALRUS_RETURN_IF_ERROR(ValidateImageRecord(record, params_));
  bool use_bbox = params_.signature_kind == RegionSignatureKind::kBoundingBox;
  for (const RegionRecord& region : record.regions) {
    Rect rect = use_bbox ? Rect::Bounds(region.bbox_lo, region.bbox_hi)
                         : Rect::Point(region.centroid);
    tree_.Insert(rect, EncodeRegionPayload(record.image_id, region.region_id));
  }
  WALRUS_RETURN_IF_ERROR(catalog_.AddImage(std::move(record)));
  if (DeepChecksEnabled()) return ValidateConsistency();
  return Status::OK();
}

Status WalrusIndex::AddImages(std::vector<PendingImage> images,
                              int num_threads) {
  if (is_paged()) return Status::Unimplemented("paged index is read-only");
  if (images.empty()) return Status::OK();
  // Validate ids up front so the batch can be atomic.
  std::unordered_set<uint64_t> seen;
  for (const PendingImage& pending : images) {
    if (catalog_.FindImage(pending.image_id) != nullptr ||
        !seen.insert(pending.image_id).second) {
      return Status::AlreadyExists("image id " +
                                   std::to_string(pending.image_id));
    }
  }

  if (num_threads <= 0) num_threads = ThreadPool::DefaultThreads();
  num_threads = std::min<int>(num_threads, static_cast<int>(images.size()));

  std::vector<std::unique_ptr<Result<std::vector<Region>>>> extracted(
      images.size());
  {
    ThreadPool pool(num_threads);
    pool.ParallelFor(static_cast<int>(images.size()), [&](int i) {
      extracted[i] = std::make_unique<Result<std::vector<Region>>>(
          ExtractRegions(images[i].image, params_));
    });
  }
  for (const auto& result : extracted) {
    if (!result->ok()) return result->status();
  }

  // Serial insertion (R*-tree and catalog are not thread-safe for writes).
  // Into an empty index, the whole batch is STR-bulk-loaded instead of
  // inserted one entry at a time: faster and tighter nodes.
  bool use_bbox = params_.signature_kind == RegionSignatureKind::kBoundingBox;
  bool bulk = tree_.size() == 0;
  std::vector<std::pair<Rect, uint64_t>> bulk_entries;
  for (size_t i = 0; i < images.size(); ++i) {
    const PendingImage& pending = images[i];
    const std::vector<Region>& regions = extracted[i]->value();
    ImageRecord record;
    record.image_id = pending.image_id;
    record.name = pending.name;
    record.width = static_cast<uint32_t>(pending.image.width());
    record.height = static_cast<uint32_t>(pending.image.height());
    record.regions.reserve(regions.size());
    for (const Region& region : regions) {
      uint64_t payload =
          EncodeRegionPayload(pending.image_id, region.region_id);
      if (bulk) {
        bulk_entries.emplace_back(region.IndexRect(use_bbox), payload);
      } else {
        tree_.Insert(region.IndexRect(use_bbox), payload);
      }
      record.regions.push_back(region.ToRecord());
    }
    WALRUS_RETURN_IF_ERROR(catalog_.AddImage(std::move(record)));
  }
  if (bulk) {
    tree_ = RStarTree::BulkLoad(params_.SignatureDim(),
                                std::move(bulk_entries));
  }
  if (DeepChecksEnabled()) return ValidateConsistency();
  return Status::OK();
}

Status WalrusIndex::RemoveImage(uint64_t image_id) {
  if (is_paged()) return Status::Unimplemented("paged index is read-only");
  const ImageRecord* record = catalog_.FindImage(image_id);
  if (record == nullptr) {
    return Status::NotFound("image id " + std::to_string(image_id));
  }
  int64_t expected = static_cast<int64_t>(record->regions.size());
  int64_t removed = tree_.DeleteIf([image_id](uint64_t payload) {
    uint64_t payload_image;
    uint32_t region_id;
    DecodeRegionPayload(payload, &payload_image, &region_id);
    return payload_image == image_id;
  });
  if (removed != expected) {
    return Status::Internal("index: removed " + std::to_string(removed) +
                            " tree entries, catalog had " +
                            std::to_string(expected));
  }
  WALRUS_RETURN_IF_ERROR(catalog_.RemoveImage(image_id));
  if (DeepChecksEnabled()) return ValidateConsistency();
  return Status::OK();
}

Result<WalrusIndex> WalrusIndex::FromRecords(
    WalrusParams params, std::vector<ImageRecord> records) {
  WalrusIndex index(std::move(params));
  for (ImageRecord& record : records) {
    WALRUS_RETURN_IF_ERROR(ValidateImageRecord(record, index.params_));
    WALRUS_RETURN_IF_ERROR(index.catalog_.AddImage(std::move(record)));
  }
  index.tree_ = RStarTree::BulkLoad(index.params_.SignatureDim(),
                                    index.CatalogEntries());
  if (DeepChecksEnabled()) {
    WALRUS_RETURN_IF_ERROR(index.ValidateConsistency());
  }
  return index;
}

Result<std::vector<Region>> WalrusIndex::ImageRegions(
    uint64_t image_id) const {
  const ImageRecord* record = catalog_.FindImage(image_id);
  if (record == nullptr) {
    return Status::NotFound("image id " + std::to_string(image_id));
  }
  std::vector<Region> regions;
  regions.reserve(record->regions.size());
  for (const RegionRecord& r : record->regions) {
    regions.push_back(Region::FromRecord(r));
  }
  return regions;
}

Result<double> WalrusIndex::ImageArea(uint64_t image_id) const {
  const ImageRecord* record = catalog_.FindImage(image_id);
  if (record == nullptr) {
    return Status::NotFound("image id " + std::to_string(image_id));
  }
  return static_cast<double>(record->width) * record->height;
}

void SerializeParams(const WalrusParams& params, BinaryWriter* writer) {
  writer->PutU32(0x57505253);  // "WPRS"
  writer->PutU8(static_cast<uint8_t>(params.color_space));
  writer->PutU32(static_cast<uint32_t>(params.signature_size));
  writer->PutU32(static_cast<uint32_t>(params.min_window));
  writer->PutU32(static_cast<uint32_t>(params.max_window));
  writer->PutU32(static_cast<uint32_t>(params.slide_step));
  writer->PutDouble(params.cluster_epsilon);
  writer->PutU32(static_cast<uint32_t>(params.bitmap_side));
  writer->PutU8(static_cast<uint8_t>(params.signature_kind));
  writer->PutU32(static_cast<uint32_t>(params.birch_branching));
  writer->PutU32(static_cast<uint32_t>(params.birch_leaf_entries));
  writer->PutU32(static_cast<uint32_t>(params.min_cluster_windows));
  writer->PutU32(static_cast<uint32_t>(params.refined_signature_size));
  writer->PutU8(static_cast<uint8_t>(params.clusterer));
  writer->PutU32(static_cast<uint32_t>(params.kmeans_k));
}

Result<WalrusParams> DeserializeParams(BinaryReader* reader) {
  WALRUS_ASSIGN_OR_RETURN(uint32_t magic, reader->GetU32());
  if (magic != 0x57505253) return Status::Corruption("params: bad magic");
  WalrusParams p;
  WALRUS_ASSIGN_OR_RETURN(uint8_t cs, reader->GetU8());
  p.color_space = static_cast<ColorSpace>(cs);
  WALRUS_ASSIGN_OR_RETURN(uint32_t v, reader->GetU32());
  p.signature_size = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.min_window = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.max_window = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.slide_step = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(p.cluster_epsilon, reader->GetDouble());
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.bitmap_side = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(uint8_t kind, reader->GetU8());
  p.signature_kind = static_cast<RegionSignatureKind>(kind);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.birch_branching = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.birch_leaf_entries = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.min_cluster_windows = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.refined_signature_size = static_cast<int>(v);
  WALRUS_ASSIGN_OR_RETURN(uint8_t clusterer, reader->GetU8());
  p.clusterer = static_cast<ClustererKind>(clusterer);
  WALRUS_ASSIGN_OR_RETURN(v, reader->GetU32());
  p.kmeans_k = static_cast<int>(v);
  WALRUS_RETURN_IF_ERROR(p.Validate());
  return p;
}

Status WalrusIndex::ProbeRangeBatch(
    const std::vector<Rect>& probes,
    const std::function<bool(int, const RectView&, uint64_t)>& visitor,
    int64_t* nodes_visited) const {
  const int64_t visited = tree_.RangeQueryBatch(probes, visitor);
  if (nodes_visited != nullptr) *nodes_visited = visited;
  return Status::OK();
}

Result<std::vector<std::pair<uint64_t, double>>> WalrusIndex::ProbeNearest(
    const std::vector<float>& point, int k, int64_t* nodes_visited) const {
  return tree_.NearestNeighbors(point, k, nodes_visited);
}

std::vector<std::pair<Rect, uint64_t>> WalrusIndex::CatalogEntries() const {
  std::vector<std::pair<Rect, uint64_t>> entries;
  bool use_bbox = params_.signature_kind == RegionSignatureKind::kBoundingBox;
  for (const ImageRecord& record : catalog_.images()) {
    for (const RegionRecord& region : record.regions) {
      Rect rect = use_bbox ? Rect::Bounds(region.bbox_lo, region.bbox_hi)
                           : Rect::Point(region.centroid);
      entries.emplace_back(
          std::move(rect),
          EncodeRegionPayload(record.image_id, region.region_id));
    }
  }
  return entries;
}

Status WalrusIndex::ValidateConsistency() const {
  WALRUS_RETURN_IF_ERROR(catalog_.Validate());

  // Every catalog region, keyed by its packed payload. Pointers into
  // `expected` stay valid: the vector is not resized past this point.
  std::vector<std::pair<Rect, uint64_t>> expected = CatalogEntries();
  std::unordered_map<uint64_t, const Rect*> by_payload;
  by_payload.reserve(expected.size());
  for (const auto& [rect, payload] : expected) {
    if (!by_payload.emplace(payload, &rect).second) {
      return Status::Internal("index: duplicate region payload " +
                              std::to_string(payload) + " in catalog");
    }
  }

  // Sweep the tree and tick entries off against the catalog; erasing as
  // we match also catches duplicate tree entries.
  WALRUS_RETURN_IF_ERROR(tree_.Validate());
  if (tree_.size() != static_cast<int64_t>(expected.size())) {
    return Status::Internal("index: tree holds " +
                            std::to_string(tree_.size()) +
                            " entries, catalog has " +
                            std::to_string(expected.size()) + " regions");
  }
  Status mismatch = Status::OK();
  const int dim = params_.SignatureDim();
  const Rect everything = Rect::Bounds(
      std::vector<float>(dim, std::numeric_limits<float>::lowest()),
      std::vector<float>(dim, std::numeric_limits<float>::max()));
  tree_.RangeSearchVisit(everything, [&](const RectView& rect,
                                         uint64_t payload) {
    auto it = by_payload.find(payload);
    if (it == by_payload.end()) {
      mismatch = Status::Internal("index: tree entry with payload " +
                                  std::to_string(payload) +
                                  " has no catalog region (or is duplicated)");
      return false;
    }
    if (!(rect.ToRect() == *it->second)) {
      mismatch = Status::Internal(
          "index: tree rect differs from catalog signature for payload " +
          std::to_string(payload));
      return false;
    }
    by_payload.erase(it);
    return true;
  });
  WALRUS_RETURN_IF_ERROR(mismatch);
  if (!by_payload.empty()) {
    return Status::Internal("index: " + std::to_string(by_payload.size()) +
                            " catalog regions missing from the tree");
  }
  return Status::OK();
}

Status WalrusIndex::SavePaged(const std::string& path_prefix) const {
  WALRUS_RETURN_IF_ERROR(catalog_.SaveToFile(path_prefix + ".catalog"));
  BinaryWriter writer;
  SerializeParams(params_, &writer);
  WALRUS_RETURN_IF_ERROR(
      WriteFileBytes(path_prefix + ".pmeta", writer.buffer()));
  return tree_.WriteFile(path_prefix + ".ptree");
}

Result<WalrusIndex> WalrusIndex::OpenPaged(const std::string& path_prefix) {
  WALRUS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                          ReadFileBytes(path_prefix + ".pmeta"));
  BinaryReader reader(bytes);
  WALRUS_ASSIGN_OR_RETURN(WalrusParams params, DeserializeParams(&reader));
  WALRUS_ASSIGN_OR_RETURN(RStarTree tree,
                          RStarTree::OpenMapped(path_prefix + ".ptree"));
  if (tree.dim() != params.SignatureDim()) {
    return Status::Corruption("paged index: tree/params dimension mismatch");
  }
  WALRUS_ASSIGN_OR_RETURN(Catalog catalog,
                          Catalog::LoadFromFile(path_prefix + ".catalog"));
  WALRUS_RETURN_IF_ERROR(ValidateCatalog(catalog, params));
  WalrusIndex index(params);
  index.catalog_ = std::move(catalog);
  index.tree_ = std::move(tree);
  return index;
}

Status WalrusIndex::Save(const std::string& path_prefix) const {
  WALRUS_RETURN_IF_ERROR(catalog_.SaveToFile(path_prefix + ".catalog"));
  BinaryWriter writer;
  SerializeParams(params_, &writer);
  tree_.Serialize(&writer);
  return WriteFileBytes(path_prefix + ".index", writer.buffer());
}

Result<WalrusIndex> WalrusIndex::Open(const std::string& path_prefix) {
  WALRUS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                          ReadFileBytes(path_prefix + ".index"));
  BinaryReader reader(bytes);
  WALRUS_ASSIGN_OR_RETURN(WalrusParams params, DeserializeParams(&reader));
  WALRUS_ASSIGN_OR_RETURN(
      RStarTree tree,
      RStarTree::Deserialize(
          std::span<const uint8_t>(bytes).subspan(reader.position())));
  if (tree.dim() != params.SignatureDim()) {
    return Status::Corruption("index: tree/params dimension mismatch");
  }
  WALRUS_ASSIGN_OR_RETURN(Catalog catalog,
                          Catalog::LoadFromFile(path_prefix + ".catalog"));
  WALRUS_RETURN_IF_ERROR(ValidateCatalog(catalog, params));
  WalrusIndex index(params);
  index.tree_ = std::move(tree);
  index.catalog_ = std::move(catalog);
  return index;
}

}  // namespace walrus
