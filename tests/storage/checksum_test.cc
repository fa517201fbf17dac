#include <cstdio>

#include <gtest/gtest.h>

#include "storage/page_file.h"

namespace walrus {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// XORs one byte of `path` at `offset` in place.
void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

/// Reads every data page; the first failure, or OK.
Status ReadAllPages(PageFile* pf) {
  for (uint32_t id = 1; id < pf->page_count(); ++id) {
    Result<std::vector<uint8_t>> page = pf->ReadPage(id);
    if (!page.ok()) return page.status();
  }
  return Status::OK();
}

TEST(PageChecksum, SweepPassesOnHealthyFile) {
  std::string path = TempPath("crc_healthy.db");
  {
    Result<PageFile> pf = PageFile::Create(path, 128);
    ASSERT_TRUE(pf.ok());
    for (int i = 0; i < 4; ++i) {
      uint32_t id = pf->AllocatePage().value();
      std::vector<uint8_t> page(128, static_cast<uint8_t>(0x30 + i));
      ASSERT_TRUE(pf->WritePage(id, page).ok());
    }
    ASSERT_TRUE(pf->Sync().ok());
    EXPECT_TRUE(ReadAllPages(&*pf).ok());
  }
  Result<PageFile> reopened = PageFile::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(ReadAllPages(&*reopened).ok());
  std::remove(path.c_str());
}

TEST(PageChecksum, SweepAndReadDetectBitFlip) {
  std::string path = TempPath("crc_flip.db");
  {
    Result<PageFile> pf = PageFile::Create(path, 128);
    ASSERT_TRUE(pf.ok());
    for (int i = 0; i < 4; ++i) {
      uint32_t id = pf->AllocatePage().value();
      std::vector<uint8_t> page(128, static_cast<uint8_t>(i));
      ASSERT_TRUE(pf->WritePage(id, page).ok());
    }
    ASSERT_TRUE(pf->Sync().ok());
  }
  // Flip one payload byte of page 2 behind the page file's back.
  FlipByteAt(path, 2 * 128 + 17);

  Result<PageFile> pf = PageFile::Open(path);
  ASSERT_TRUE(pf.ok()) << pf.status();
  Status sweep = ReadAllPages(&*pf);
  EXPECT_FALSE(sweep.ok());
  EXPECT_EQ(sweep.code(), StatusCode::kCorruption) << sweep;

  // A direct read of the damaged page fails; healthy pages still read.
  EXPECT_EQ(pf->ReadPage(2).status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(pf->ReadPage(1).ok());
  EXPECT_TRUE(pf->ReadPage(3).ok());
  std::remove(path.c_str());
}

TEST(PageChecksum, OpenDetectsCorruptHeaderPage) {
  std::string path = TempPath("crc_header.db");
  {
    Result<PageFile> pf = PageFile::Create(path, 128);
    ASSERT_TRUE(pf.ok());
    ASSERT_TRUE(pf->Sync().ok());
  }
  // Damage a header-page byte past the 12-byte parsed prefix: only the CRC
  // can notice it.
  FlipByteAt(path, 40);
  Result<PageFile> pf = PageFile::Open(path);
  EXPECT_FALSE(pf.ok());
  EXPECT_EQ(pf.status().code(), StatusCode::kCorruption) << pf.status();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace walrus
