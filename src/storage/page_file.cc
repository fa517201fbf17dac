#include "storage/page_file.h"

#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/serialize.h"

namespace walrus {
namespace {

// Bumped from "WPGF" when the CRC-32 page trailer was added: the trailer
// changes the payload capacity, so files from the old format must not open.
constexpr uint32_t kMagic = 0x32464750;  // "PGF2"
constexpr uint32_t kMinPageSize = 64;

void PutU32At(std::vector<uint8_t>* buf, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*buf)[pos + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint32_t GetU32At(const std::vector<uint8_t>& buf, size_t pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(buf[pos + i]) << (8 * i);
  }
  return v;
}

}  // namespace

PageFile::PageFile(PageFile&& other) noexcept { *this = std::move(other); }

PageFile& PageFile::operator=(PageFile&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    path_ = std::move(other.path_);
    page_size_ = other.page_size_;
    page_count_ = other.page_count_;
    other.file_ = nullptr;
  }
  return *this;
}

PageFile::~PageFile() {
  if (file_ != nullptr) {
    // Destructors cannot propagate; a failed header flush here means the
    // file is already unusable, so record it and close anyway.
    Status flushed = WriteHeader();
    if (!flushed.ok()) {
      WALRUS_LOG(Warning) << "page file header flush failed on close: "
                          << flushed;
    }
    std::fclose(file_);
  }
}

Result<PageFile> PageFile::Create(const std::string& path,
                                  uint32_t page_size) {
  if (page_size < kMinPageSize) {
    return Status::InvalidArgument("page size too small");
  }
  std::FILE* f = std::fopen(path.c_str(), "wb+");
  if (f == nullptr) return Status::IOError("cannot create page file: " + path);
  PageFile pf;
  pf.file_ = f;
  pf.path_ = path;
  pf.page_size_ = page_size;
  pf.page_count_ = 1;
  WALRUS_RETURN_IF_ERROR(pf.WriteHeader());
  return pf;
}

Result<PageFile> PageFile::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  if (f == nullptr) return Status::IOError("cannot open page file: " + path);
  uint8_t header[12];
  if (std::fread(header, 1, sizeof(header), f) != sizeof(header)) {
    std::fclose(f);
    return Status::Corruption("page file: short header: " + path);
  }
  BinaryReader reader(header, sizeof(header));
  uint32_t magic = reader.GetU32().value();
  uint32_t page_size = reader.GetU32().value();
  uint32_t page_count = reader.GetU32().value();
  if (magic != kMagic || page_size < kMinPageSize || page_count < 1) {
    std::fclose(f);
    return Status::Corruption("page file: bad header: " + path);
  }
  // Verify the header page's checksum before trusting anything else in it.
  std::vector<uint8_t> header_page(page_size);
  if (std::fseek(f, 0, SEEK_SET) != 0 ||
      std::fread(header_page.data(), 1, header_page.size(), f) !=
          header_page.size()) {
    std::fclose(f);
    return Status::Corruption("page file: short header page: " + path);
  }
  size_t body = header_page.size() - PageFile::kChecksumBytes;
  if (GetU32At(header_page, body) != Crc32(header_page.data(), body)) {
    std::fclose(f);
    return Status::Corruption("page file: header checksum mismatch: " + path);
  }
  // The file must actually hold every page the header claims.
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IOError("page file: cannot stat: " + path);
  }
  long actual_size = std::ftell(f);
  long expected_size = static_cast<long>(page_count) * page_size;
  if (actual_size < expected_size) {
    std::fclose(f);
    return Status::Corruption(
        "page file: truncated (" + std::to_string(actual_size) + " bytes, " +
        "header claims " + std::to_string(expected_size) + "): " + path);
  }
  PageFile pf;
  pf.file_ = f;
  pf.path_ = path;
  pf.page_size_ = page_size;
  pf.page_count_ = page_count;
  return pf;
}

Status PageFile::WriteHeader() {
  BinaryWriter writer;
  writer.PutU32(kMagic);
  writer.PutU32(page_size_);
  writer.PutU32(page_count_);
  std::vector<uint8_t> page(page_size_, 0);
  std::memcpy(page.data(), writer.buffer().data(), writer.size());
  return WritePageInternal(0, std::move(page));
}

Status PageFile::WritePageInternal(uint32_t id, std::vector<uint8_t> data) {
  WALRUS_DCHECK_EQ(data.size(), page_size_);
  size_t body = data.size() - kChecksumBytes;
  PutU32At(&data, body, Crc32(data.data(), body));
  long offset = static_cast<long>(id) * page_size_;
  if (std::fseek(file_, offset, SEEK_SET) != 0 ||
      std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
    return Status::IOError("page write failed: page " + std::to_string(id));
  }
  return Status::OK();
}

Result<uint32_t> PageFile::AllocatePage() {
  uint32_t id = page_count_;
  std::vector<uint8_t> zero(page_size_, 0);
  WALRUS_RETURN_IF_ERROR(WritePageInternal(id, zero));
  page_count_ = id + 1;
  return id;
}

Status PageFile::WritePage(uint32_t id, const std::vector<uint8_t>& data) {
  if (id == 0 || id >= page_count_) {
    return Status::InvalidArgument("page id out of range");
  }
  if (data.size() != page_size_) {
    return Status::InvalidArgument("page data must be exactly one page");
  }
  return WritePageInternal(id, data);
}

Result<std::vector<uint8_t>> PageFile::ReadPage(uint32_t id) {
  if (id == 0 || id >= page_count_) {
    return Status::InvalidArgument("page id out of range");
  }
  std::vector<uint8_t> page(page_size_);
  long offset = static_cast<long>(id) * page_size_;
  if (std::fseek(file_, offset, SEEK_SET) != 0 ||
      std::fread(page.data(), 1, page.size(), file_) != page.size()) {
    return Status::IOError("page read failed: page " + std::to_string(id));
  }
  size_t body = page.size() - kChecksumBytes;
  if (GetU32At(page, body) != Crc32(page.data(), body)) {
    return Status::Corruption("page checksum mismatch: page " +
                              std::to_string(id));
  }
  return page;
}

Result<BlobRef> PageFile::WriteBlob(const std::vector<uint8_t>& bytes) {
  uint32_t payload = PagePayload();
  size_t num_pages = bytes.empty() ? 1 : (bytes.size() + payload - 1) / payload;
  std::vector<uint32_t> ids(num_pages);
  for (size_t i = 0; i < num_pages; ++i) {
    WALRUS_ASSIGN_OR_RETURN(ids[i], AllocatePage());
  }
  size_t offset = 0;
  for (size_t i = 0; i < num_pages; ++i) {
    size_t chunk = std::min<size_t>(payload, bytes.size() - offset);
    std::vector<uint8_t> page(page_size_, 0);
    uint32_t next = i + 1 < num_pages ? ids[i + 1] : 0;
    PutU32At(&page, 0, next);
    PutU32At(&page, 4, static_cast<uint32_t>(chunk));
    if (chunk > 0) std::memcpy(page.data() + 8, bytes.data() + offset, chunk);
    WALRUS_RETURN_IF_ERROR(WritePage(ids[i], page));
    offset += chunk;
  }
  return BlobRef{ids[0], bytes.size()};
}

Result<std::vector<uint8_t>> PageFile::ReadBlob(const BlobRef& ref) {
  std::vector<uint8_t> out;
  out.reserve(ref.length);
  uint32_t page_id = ref.head_page;
  while (page_id != 0) {
    WALRUS_ASSIGN_OR_RETURN(std::vector<uint8_t> page, ReadPage(page_id));
    uint32_t next = GetU32At(page, 0);
    uint32_t used = GetU32At(page, 4);
    if (used > PagePayload()) return Status::Corruption("blob page overfull");
    out.insert(out.end(), page.begin() + 8, page.begin() + 8 + used);
    if (out.size() > ref.length) return Status::Corruption("blob too long");
    page_id = next;
  }
  if (out.size() != ref.length) {
    return Status::Corruption("blob length mismatch: got " +
                              std::to_string(out.size()) + " want " +
                              std::to_string(ref.length));
  }
  return out;
}

Status PageFile::Sync() {
  WALRUS_RETURN_IF_ERROR(WriteHeader());
  if (std::fflush(file_) != 0) return Status::IOError("fflush failed");
  return Status::OK();
}

}  // namespace walrus
