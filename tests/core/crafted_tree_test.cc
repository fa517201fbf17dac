#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/serialize.h"
#include "core/index.h"

namespace walrus {
namespace {

// Crafted R*-tree files: each must be refused with Corruption by both
// loaders, WalrusIndex::Open (the image after the params in `.index`) and
// WalrusIndex::OpenPaged (the image as `.ptree`), before any query runs.
// So must a tree in the format of the build before the node arena.
// The images are written by hand in the format spatial/rstar_tree.h
// documents: a 40-byte header, nodes of u32 level, u32 count, dim lo
// planes, dim hi planes (stride M) and M u64 values, then a CRC-32.

constexpr uint32_t kDim = 1;
constexpr uint32_t kM = 4;

struct Node {
  uint32_t level = 0;
  uint32_t count = 0;
  std::vector<float> lo;        // one per used slot (dim 1)
  std::vector<float> hi;
  std::vector<uint64_t> value;  // payloads, or child node ids
};

Node Leaf(uint32_t count) {
  Node n;
  n.count = count;
  for (uint32_t i = 0; i < std::min(count, kM); ++i) {
    n.lo.push_back(0.1f * static_cast<float>(i));
    n.hi.push_back(0.1f * static_cast<float>(i));
    n.value.push_back(i);
  }
  return n;
}

Node Inner(uint32_t level, std::vector<uint64_t> children) {
  Node n;
  n.level = level;
  n.count = static_cast<uint32_t>(children.size());
  n.lo.assign(children.size(), 0.0f);
  n.hi.assign(children.size(), 0.3f);
  n.value = std::move(children);
  return n;
}

/// The file image of `nodes` (node 0 is the root) with a valid CRC.
std::vector<uint8_t> Image(const std::vector<Node>& nodes, uint64_t size,
                           uint32_t height) {
  BinaryWriter w;
  w.PutU32(0x41545352);  // "RSTA"
  w.PutU32(2);           // format version
  w.PutU32(kDim);
  w.PutU32(kM);
  w.PutU32(static_cast<uint32_t>(nodes.size()));
  w.PutU32(0);  // root
  w.PutU64(size);
  w.PutU32(height);
  w.PutU32(0);
  for (const Node& n : nodes) {
    w.PutU32(n.level);
    w.PutU32(n.count);
    for (uint32_t s = 0; s < kM; ++s) {
      w.PutFloat(s < n.lo.size() ? n.lo[s] : 0.0f);
    }
    for (uint32_t s = 0; s < kM; ++s) {
      w.PutFloat(s < n.hi.size() ? n.hi[s] : 0.0f);
    }
    for (uint32_t s = 0; s < kM; ++s) {
      w.PutU64(s < n.value.size() ? n.value[s] : 0);
    }
  }
  std::vector<uint8_t> image = w.TakeBuffer();
  const uint32_t crc = Crc32(image.data(), image.size());
  for (int i = 0; i < 4; ++i) {
    image.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return image;
}

std::vector<uint8_t> WellFormed() {
  const Node left = Leaf(3);
  const Node right = Leaf(2);
  Node root = Inner(1, {1, 2});
  root.hi = {left.hi.back(), right.hi.back()};  // exact child bounds
  return Image({root, left, right}, 5, 2);
}

/// `bytes` padded to one 4096-byte page with its CRC-32 trailer.
std::vector<uint8_t> Page(std::vector<uint8_t> bytes) {
  bytes.resize(4092, 0);
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return bytes;
}

/// One tree with one entry as the parent build wrote it: the recursive
/// stream that followed the params in `.index`, and the page-file tree of
/// `.ptree` (header page, one leaf page, metadata page).
struct ParentFiles {
  std::vector<uint8_t> index_tree;
  std::vector<uint8_t> ptree;
};

ParentFiles ParentFormat() {
  BinaryWriter stream;
  stream.PutU32(0x52535452);  // "RSTR"
  stream.PutU32(kDim);
  stream.PutU32(16);
  stream.PutDouble(0.3);
  stream.PutU8(0);
  stream.PutU8(1);
  stream.PutU64(1);
  stream.PutU32(0);  // leaf
  stream.PutU32(1);
  stream.PutU8(0);
  stream.PutU32(kDim);
  stream.PutFloat(0.5f);
  stream.PutFloat(0.5f);
  stream.PutU64(7);

  BinaryWriter header;
  header.PutU32(0x32464750);  // "PGF2"
  header.PutU32(4096);
  header.PutU32(3);
  BinaryWriter leaf;
  leaf.PutU8(1);
  leaf.PutU8(0);
  leaf.PutU16(1);
  leaf.PutU32(0);
  leaf.PutFloat(0.5f);
  leaf.PutFloat(0.5f);
  leaf.PutU64(7);
  BinaryWriter meta;
  meta.PutU32(0);   // end of blob chain
  meta.PutU32(24);  // blob bytes
  meta.PutU32(0x44525354);  // "DRST"
  meta.PutU32(kDim);
  meta.PutU64(1);
  meta.PutU32(1);
  meta.PutU32(1);
  ParentFiles files{stream.TakeBuffer(), {}};
  for (BinaryWriter* page : {&header, &leaf, &meta}) {
    const std::vector<uint8_t> bytes = Page(page->TakeBuffer());
    files.ptree.insert(files.ptree.end(), bytes.begin(), bytes.end());
  }
  return files;
}

std::vector<uint8_t> Crafted(const std::string& name) {
  if (name == "Chain") {
    // 200,000 levels, one entry per node: far beyond any tree the fill
    // bounds allow, and deeper than a recursive loader's stack.
    constexpr uint32_t kLevels = 200000;
    std::vector<Node> chain;
    chain.reserve(kLevels);
    for (uint32_t i = 0; i + 1 < kLevels; ++i) {
      chain.push_back(Inner(kLevels - 1 - i, {i + 1}));
    }
    chain.push_back(Leaf(1));
    return Image(chain, 1, kLevels);
  }
  if (name == "Cycle") return Image({Inner(1, {1, 0}), Leaf(2)}, 2, 2);
  if (name == "ChildOutOfRange") {
    return Image({Inner(1, {1, 7}), Leaf(2)}, 4, 2);
  }
  if (name == "CountAboveM") return Image({Leaf(kM + 1)}, kM + 1, 1);
  if (name == "NaNBounds") {
    Node leaf = Leaf(2);
    leaf.lo[1] = std::numeric_limits<float>::quiet_NaN();
    return Image({leaf}, 2, 1);
  }
  std::vector<uint8_t> image = WellFormed();
  if (name == "Truncated") {
    image.resize(image.size() - 10);
  } else if (name == "FlippedByte") {
    image[40 + 13] ^= 0x04;  // a bound of the root node
  }
  return image;
}

WalrusParams TinyParams() {
  WalrusParams p;
  p.color_space = ColorSpace::kGray;
  p.signature_size = 1;  // SignatureDim() == kDim
  return p;
}

/// Writes an index whose tree is `index_tree` as a Save prefix, and one
/// whose tree file is `ptree` as a SavePaged prefix.
void WriteIndexFiles(const std::vector<uint8_t>& index_tree,
                     const std::vector<uint8_t>& ptree,
                     const std::string& saved, const std::string& paged) {
  const WalrusIndex empty(TinyParams());
  ASSERT_TRUE(empty.Save(saved).ok());
  ASSERT_TRUE(empty.SavePaged(paged).ok());
  BinaryWriter index;
  SerializeParams(TinyParams(), &index);
  index.PutBytes(index_tree.data(), index_tree.size());
  ASSERT_TRUE(WriteFileBytes(saved + ".index", index.buffer()).ok());
  ASSERT_TRUE(WriteFileBytes(paged + ".ptree", ptree).ok());
}

void RemoveIndexFiles(const std::string& saved, const std::string& paged) {
  for (const char* suffix : {".catalog", ".index"}) {
    std::remove((saved + suffix).c_str());
  }
  for (const char* suffix : {".catalog", ".pmeta", ".ptree"}) {
    std::remove((paged + suffix).c_str());
  }
}

TEST(CraftedTreeFile, WellFormedImageOpens) {
  const std::string saved = ::testing::TempDir() + "/crafted_ok";
  const std::string paged = ::testing::TempDir() + "/crafted_ok_paged";
  WriteIndexFiles(WellFormed(), WellFormed(), saved, paged);
  Result<WalrusIndex> opened = WalrusIndex::Open(saved);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->tree().size(), 5);
  EXPECT_TRUE(opened->tree().Validate().ok()) << opened->tree().Validate();
  Result<WalrusIndex> mapped = WalrusIndex::OpenPaged(paged);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->tree().size(), 5);
  RemoveIndexFiles(saved, paged);
}

class CraftedTreeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CraftedTreeTest, OpenAndOpenPagedReportCorruption) {
  const std::string saved = ::testing::TempDir() + "/crafted_" + GetParam();
  const std::string paged = saved + "_paged";
  if (GetParam() == "ParentFormat") {
    const ParentFiles files = ParentFormat();
    WriteIndexFiles(files.index_tree, files.ptree, saved, paged);
  } else {
    const std::vector<uint8_t> image = Crafted(GetParam());
    WriteIndexFiles(image, image, saved, paged);
  }
  Result<WalrusIndex> opened = WalrusIndex::Open(saved);
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status();
  Result<WalrusIndex> mapped = WalrusIndex::OpenPaged(paged);
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption)
      << mapped.status();
  RemoveIndexFiles(saved, paged);
}

INSTANTIATE_TEST_SUITE_P(
    Files, CraftedTreeTest,
    ::testing::Values("Chain", "Cycle", "ChildOutOfRange", "CountAboveM",
                      "NaNBounds", "Truncated", "FlippedByte",
                      "ParentFormat"),
    [](const ::testing::TestParamInfo<std::string>& param) {
      return param.param;
    });

}  // namespace
}  // namespace walrus
