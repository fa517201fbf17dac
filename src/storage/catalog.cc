#include "storage/catalog.h"

#include <unordered_set>

#include "storage/page_file.h"

namespace walrus {

void RegionRecord::Serialize(BinaryWriter* writer) const {
  writer->PutU32(region_id);
  writer->PutFloatVector(centroid);
  writer->PutFloatVector(refined_centroid);
  writer->PutFloatVector(bbox_lo);
  writer->PutFloatVector(bbox_hi);
  writer->PutU32(bitmap_side);
  writer->PutU32(static_cast<uint32_t>(bitmap.size()));
  writer->PutBytes(bitmap.data(), bitmap.size());
  writer->PutU64(window_count);
}

Result<RegionRecord> RegionRecord::Deserialize(BinaryReader* reader) {
  RegionRecord r;
  WALRUS_ASSIGN_OR_RETURN(r.region_id, reader->GetU32());
  WALRUS_ASSIGN_OR_RETURN(r.centroid, reader->GetFloatVector());
  WALRUS_ASSIGN_OR_RETURN(r.refined_centroid, reader->GetFloatVector());
  WALRUS_ASSIGN_OR_RETURN(r.bbox_lo, reader->GetFloatVector());
  WALRUS_ASSIGN_OR_RETURN(r.bbox_hi, reader->GetFloatVector());
  WALRUS_ASSIGN_OR_RETURN(r.bitmap_side, reader->GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint32_t bitmap_bytes, reader->GetU32());
  if (bitmap_bytes > reader->remaining()) {
    return Status::Corruption("region record: bitmap length past end");
  }
  r.bitmap.resize(bitmap_bytes);
  WALRUS_RETURN_IF_ERROR(reader->GetBytes(r.bitmap.data(), bitmap_bytes));
  WALRUS_ASSIGN_OR_RETURN(r.window_count, reader->GetU64());
  return r;
}

void ImageRecord::Serialize(BinaryWriter* writer) const {
  writer->PutU64(image_id);
  writer->PutString(name);
  writer->PutU32(width);
  writer->PutU32(height);
  writer->PutU32(static_cast<uint32_t>(regions.size()));
  for (const RegionRecord& r : regions) r.Serialize(writer);
}

Result<ImageRecord> ImageRecord::Deserialize(BinaryReader* reader) {
  ImageRecord rec;
  WALRUS_ASSIGN_OR_RETURN(rec.image_id, reader->GetU64());
  WALRUS_ASSIGN_OR_RETURN(rec.name, reader->GetString());
  WALRUS_ASSIGN_OR_RETURN(rec.width, reader->GetU32());
  WALRUS_ASSIGN_OR_RETURN(rec.height, reader->GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint32_t num_regions, reader->GetU32());
  rec.regions.reserve(num_regions);
  for (uint32_t i = 0; i < num_regions; ++i) {
    WALRUS_ASSIGN_OR_RETURN(RegionRecord r, RegionRecord::Deserialize(reader));
    rec.regions.push_back(std::move(r));
  }
  return rec;
}

Status Catalog::AddImage(ImageRecord record) {
  if (by_id_.count(record.image_id) != 0) {
    return Status::AlreadyExists("image id " +
                                 std::to_string(record.image_id));
  }
  by_id_[record.image_id] = images_.size();
  images_.push_back(std::move(record));
  return Status::OK();
}

Status Catalog::RemoveImage(uint64_t image_id) {
  auto it = by_id_.find(image_id);
  if (it == by_id_.end()) {
    return Status::NotFound("image id " + std::to_string(image_id));
  }
  size_t index = it->second;
  by_id_.erase(it);
  // Swap-with-last keeps removal O(1); fix the moved record's slot.
  if (index + 1 != images_.size()) {
    images_[index] = std::move(images_.back());
    by_id_[images_[index].image_id] = index;
  }
  images_.pop_back();
  return Status::OK();
}

const ImageRecord* Catalog::FindImage(uint64_t image_id) const {
  auto it = by_id_.find(image_id);
  if (it == by_id_.end()) return nullptr;
  return &images_[it->second];
}

size_t Catalog::TotalRegions() const {
  size_t total = 0;
  for (const ImageRecord& rec : images_) total += rec.regions.size();
  return total;
}

Status Catalog::Validate() const {
  if (by_id_.size() != images_.size()) {
    return Status::Internal("catalog: id map has " +
                            std::to_string(by_id_.size()) +
                            " entries, record vector has " +
                            std::to_string(images_.size()));
  }
  for (const auto& [id, index] : by_id_) {
    if (index >= images_.size()) {
      return Status::Internal("catalog: id map slot for image " +
                              std::to_string(id) + " is out of range");
    }
    if (images_[index].image_id != id) {
      return Status::Internal("catalog: id map for image " +
                              std::to_string(id) +
                              " points at record with id " +
                              std::to_string(images_[index].image_id));
    }
  }
  for (const ImageRecord& rec : images_) {
    std::unordered_set<uint32_t> region_ids;
    for (const RegionRecord& region : rec.regions) {
      if (!region_ids.insert(region.region_id).second) {
        return Status::Internal("catalog: duplicate region id " +
                                std::to_string(region.region_id) +
                                " in image " + std::to_string(rec.image_id));
      }
      if (region.bbox_lo.size() != region.bbox_hi.size()) {
        return Status::Internal("catalog: bbox lo/hi length mismatch in image " +
                                std::to_string(rec.image_id));
      }
      for (size_t d = 0; d < region.bbox_lo.size(); ++d) {
        if (!(region.bbox_lo[d] <= region.bbox_hi[d])) {
          return Status::Internal("catalog: inverted bbox in image " +
                                  std::to_string(rec.image_id) + " region " +
                                  std::to_string(region.region_id));
        }
      }
    }
  }
  return Status::OK();
}

Status Catalog::SaveToFile(const std::string& path) const {
  WALRUS_ASSIGN_OR_RETURN(PageFile file, PageFile::Create(path));
  // One blob per image record; a directory blob maps ids to blob refs and a
  // trailer on the header... the directory blob ref itself is stored last in
  // a fixed "root" blob written first (page 1) so Open can find it.
  BinaryWriter directory;
  directory.PutU32(kCatalogMagic);
  directory.PutU32(kCatalogFormatVersion);
  directory.PutU32(static_cast<uint32_t>(images_.size()));
  std::vector<BlobRef> refs;
  refs.reserve(images_.size());
  for (const ImageRecord& rec : images_) {
    BinaryWriter rec_writer;
    rec.Serialize(&rec_writer);
    WALRUS_ASSIGN_OR_RETURN(BlobRef ref, file.WriteBlob(rec_writer.buffer()));
    directory.PutU64(rec.image_id);
    directory.PutU32(ref.head_page);
    directory.PutU64(ref.length);
  }
  WALRUS_ASSIGN_OR_RETURN(BlobRef dir_ref, file.WriteBlob(directory.buffer()));
  // Root blob: fixed location right after the directory, pointed to by the
  // last page; we store the directory ref in a final tiny blob and remember
  // its head page as page_count-1 on load. To keep this deterministic we
  // write it last.
  BinaryWriter root;
  root.PutU32(dir_ref.head_page);
  root.PutU64(dir_ref.length);
  WALRUS_ASSIGN_OR_RETURN(BlobRef root_ref, file.WriteBlob(root.buffer()));
  (void)root_ref;  // by construction: the file's last page
  return file.Sync();
}

Result<Catalog> Catalog::LoadFromFile(const std::string& path) {
  WALRUS_ASSIGN_OR_RETURN(PageFile file, PageFile::Open(path));
  if (file.page_count() < 2) return Status::Corruption("catalog: empty file");
  // Root blob is the last page.
  BlobRef root_ref{file.page_count() - 1, 12};
  WALRUS_ASSIGN_OR_RETURN(std::vector<uint8_t> root_bytes,
                          file.ReadBlob(root_ref));
  BinaryReader root(root_bytes);
  WALRUS_ASSIGN_OR_RETURN(uint32_t dir_head, root.GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint64_t dir_len, root.GetU64());
  WALRUS_ASSIGN_OR_RETURN(std::vector<uint8_t> dir_bytes,
                          file.ReadBlob(BlobRef{dir_head, dir_len}));
  BinaryReader dir(dir_bytes);
  WALRUS_ASSIGN_OR_RETURN(uint32_t magic, dir.GetU32());
  if (magic != kCatalogMagic) {
    return Status::Corruption("catalog: bad directory magic (a v1 file?)");
  }
  WALRUS_ASSIGN_OR_RETURN(uint32_t version, dir.GetU32());
  if (version != kCatalogFormatVersion) {
    return Status::Corruption("catalog: unsupported format version " +
                              std::to_string(version));
  }
  WALRUS_ASSIGN_OR_RETURN(uint32_t count, dir.GetU32());
  Catalog catalog;
  for (uint32_t i = 0; i < count; ++i) {
    WALRUS_ASSIGN_OR_RETURN(uint64_t image_id, dir.GetU64());
    WALRUS_ASSIGN_OR_RETURN(uint32_t head, dir.GetU32());
    WALRUS_ASSIGN_OR_RETURN(uint64_t length, dir.GetU64());
    WALRUS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                            file.ReadBlob(BlobRef{head, length}));
    BinaryReader rec_reader(bytes);
    WALRUS_ASSIGN_OR_RETURN(ImageRecord rec,
                            ImageRecord::Deserialize(&rec_reader));
    if (!rec_reader.AtEnd()) {
      return Status::Corruption("catalog: trailing bytes in record of image " +
                                std::to_string(image_id));
    }
    if (rec.image_id != image_id) {
      return Status::Corruption("catalog: directory/record id mismatch");
    }
    WALRUS_RETURN_IF_ERROR(catalog.AddImage(std::move(rec)));
  }
  return catalog;
}

}  // namespace walrus
