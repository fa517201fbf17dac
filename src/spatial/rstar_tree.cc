#include "spatial/rstar_tree.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <queue>

#include "common/check.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "spatial/hilbert.h"

namespace walrus {

// The arena is read in place from files, so its host-order integers and
// floats are the file format.
static_assert(std::endian::native == std::endian::little,
              "the R*-tree file image is little endian and read in place");

struct RStarTree::Entry {
  Rect rect;
  uint64_t value = 0;  // payload in a leaf, child node id inside
};

/// A read-only mapping of a whole file, unmapped on destruction.
class RStarTree::Mapping {
 public:
  static Result<std::unique_ptr<Mapping>> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Status::IOError("cannot open for read: " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::IOError("cannot stat: " + path);
    }
    if (st.st_size == 0) {
      ::close(fd);
      return Status::Corruption("rstar: empty file: " + path);
    }
    const size_t size = static_cast<size_t>(st.st_size);
    void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (data == MAP_FAILED) return Status::IOError("cannot map: " + path);
    return std::unique_ptr<Mapping>(new Mapping(data, size));
  }

  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() { ::munmap(data_, size_); }

  std::span<const uint8_t> bytes() const {
    return {static_cast<const uint8_t*>(data_), size_};
  }

 private:
  Mapping(void* data, size_t size) : data_(data), size_(size) {}

  void* data_;
  size_t size_;
};

namespace {

constexpr uint32_t kImageMagic = 0x41545352;  // "RSTA"
/// The pre-arena tree stream had no version field; the arena is 2.
constexpr uint32_t kImageVersion = 2;
constexpr size_t kHeaderBytes = 40;  // keeps the arena 8-byte aligned
constexpr size_t kCrcBytes = 4;
constexpr size_t kNodeHeaderBytes = 8;
constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();
/// Header bounds checked before any size derived from them is trusted.
constexpr uint32_t kMaxDim = 4096;
constexpr int kMaxEntries = 4096;
/// Share of an overflowing node's entries that forced reinsertion moves.
constexpr double kReinsertFraction = 0.3;

/// Minimum fill: 40% of M as in [BKSS90].
uint32_t MinEntries(int max_entries) {
  return static_cast<uint32_t>(std::max(2, (max_entries * 2) / 5));
}

size_t NodeBytes(int dim, int max_entries) {
  return kNodeHeaderBytes +
         8 * static_cast<size_t>(dim) * static_cast<size_t>(max_entries) +
         8 * static_cast<size_t>(max_entries);
}

double CenterSquaredDistance(const Rect& a, const Rect& b) {
  double sum = 0.0;
  for (int i = 0; i < a.dim(); ++i) {
    double ca = 0.5 * (static_cast<double>(a.lo(i)) + a.hi(i));
    double cb = 0.5 * (static_cast<double>(b.lo(i)) + b.hi(i));
    sum += (ca - cb) * (ca - cb);
  }
  return sum;
}

}  // namespace

RStarTree::RStarTree(int dim, RStarParams params)
    : dim_(dim),
      max_entries_(params.max_entries),
      node_bytes_(NodeBytes(dim, params.max_entries)) {
  WALRUS_CHECK_GE(dim, 1);
  WALRUS_CHECK_GE(params.max_entries, 4);
  WALRUS_CHECK_LE(params.max_entries, kMaxEntries);
  root_ = AllocNode(0);
}

RStarTree::RStarTree(RStarTree&& other) noexcept = default;
RStarTree& RStarTree::operator=(RStarTree&& other) noexcept = default;
RStarTree::~RStarTree() = default;

int RStarTree::height() const { return static_cast<int>(Level(root_)) + 1; }

RStarTree::NodeView RStarTree::View(uint32_t id) const {
  const uint8_t* base = nodes_ + static_cast<size_t>(id) * node_bytes_;
  const auto* header = reinterpret_cast<const uint32_t*>(base);
  const auto* lo = reinterpret_cast<const float*>(base + kNodeHeaderBytes);
  const size_t plane = static_cast<size_t>(dim_) * max_entries_;
  return {header[0], header[1], lo, lo + plane,
          reinterpret_cast<const uint64_t*>(base + kNodeHeaderBytes +
                                            8 * plane)};
}

Rect RStarTree::EntryRect(uint32_t id, uint32_t slot) const {
  const NodeView n = View(id);
  std::vector<float> lo(dim_), hi(dim_);
  for (int d = 0; d < dim_; ++d) {
    lo[d] = n.lo[static_cast<size_t>(d) * max_entries_ + slot];
    hi[d] = n.hi[static_cast<size_t>(d) * max_entries_ + slot];
  }
  return Rect::Bounds(std::move(lo), std::move(hi));
}

std::vector<RStarTree::Entry> RStarTree::Entries(uint32_t id) const {
  const NodeView n = View(id);
  std::vector<Entry> entries(n.count);
  for (uint32_t e = 0; e < n.count; ++e) {
    entries[e].rect = EntryRect(id, e);
    entries[e].value = n.value[e];
  }
  return entries;
}

Rect RStarTree::NodeBounds(uint32_t id) const {
  const NodeView n = View(id);
  if (n.count == 0) return Rect::Empty(dim_);
  std::vector<float> lo(dim_), hi(dim_);
  for (int d = 0; d < dim_; ++d) {
    const float* lo_plane = n.lo + static_cast<size_t>(d) * max_entries_;
    const float* hi_plane = n.hi + static_cast<size_t>(d) * max_entries_;
    lo[d] = *std::min_element(lo_plane, lo_plane + n.count);
    hi[d] = *std::max_element(hi_plane, hi_plane + n.count);
  }
  return Rect::Bounds(std::move(lo), std::move(hi));
}

uint32_t RStarTree::SlotOf(uint32_t parent, uint32_t child) const {
  const NodeView n = View(parent);
  uint32_t slot = 0;
  while (slot < n.count && n.value[slot] != child) ++slot;
  WALRUS_CHECK_LT(slot, n.count) << "rstar: node missing from its parent";
  return slot;
}

uint32_t RStarTree::AllocNode(uint32_t level) {
  WALRUS_CHECK(!is_mapped()) << "rstar: a mapped tree is read-only";
  uint32_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = node_count_++;
    heap_.resize(static_cast<size_t>(node_count_) * node_bytes_);
    parent_.push_back(kNoParent);
    nodes_ = heap_.data();
  }
  uint8_t* base = heap_.data() + static_cast<size_t>(id) * node_bytes_;
  std::memset(base, 0, node_bytes_);
  std::memcpy(base, &level, sizeof(level));
  parent_[id] = kNoParent;
  return id;
}

void RStarTree::FreeNode(uint32_t id) {
  parent_[id] = kNoParent;
  free_.push_back(id);
}

float* RStarTree::MutablePlanes(uint32_t id) {
  return reinterpret_cast<float*>(
      heap_.data() + static_cast<size_t>(id) * node_bytes_ + kNodeHeaderBytes);
}

uint64_t* RStarTree::MutableValues(uint32_t id) {
  return reinterpret_cast<uint64_t*>(
      MutablePlanes(id) + 2 * static_cast<size_t>(dim_) * max_entries_);
}

void RStarTree::SetEntryRect(uint32_t id, uint32_t slot, const Rect& rect) {
  float* lo = MutablePlanes(id);
  float* hi = lo + static_cast<size_t>(dim_) * max_entries_;
  for (int d = 0; d < dim_; ++d) {
    lo[static_cast<size_t>(d) * max_entries_ + slot] = rect.lo(d);
    hi[static_cast<size_t>(d) * max_entries_ + slot] = rect.hi(d);
  }
}

void RStarTree::PutEntry(uint32_t id, uint32_t slot, const Rect& rect,
                         uint64_t value) {
  SetEntryRect(id, slot, rect);
  MutableValues(id)[slot] = value;
  if (Level(id) > 0) parent_[static_cast<uint32_t>(value)] = id;
}

void RStarTree::RemoveSlot(uint32_t id, uint32_t slot) {
  const uint32_t count = Count(id);
  const size_t tail = count - slot - 1;
  float* planes = MutablePlanes(id);
  for (size_t p = 0; p < 2 * static_cast<size_t>(dim_); ++p) {
    float* plane = planes + p * max_entries_;
    std::memmove(plane + slot, plane + slot + 1, tail * sizeof(float));
  }
  uint64_t* values = MutableValues(id);
  std::memmove(values + slot, values + slot + 1, tail * sizeof(uint64_t));
  SetCount(id, count - 1);
}

void RStarTree::SetCount(uint32_t id, uint32_t count) {
  std::memcpy(heap_.data() + static_cast<size_t>(id) * node_bytes_ + 4,
              &count, sizeof(count));
}

void RStarTree::SetEntries(uint32_t id, const std::vector<Entry>& entries) {
  WALRUS_DCHECK_LE(entries.size(), static_cast<size_t>(max_entries_));
  for (uint32_t e = 0; e < entries.size(); ++e) {
    PutEntry(id, e, entries[e].rect, entries[e].value);
  }
  SetCount(id, static_cast<uint32_t>(entries.size()));
}

void RStarTree::RefreshEntry(uint32_t parent, uint32_t child) {
  const NodeView c = View(child);
  WALRUS_DCHECK_GT(c.count, 0u);
  const size_t slot = SlotOf(parent, child);
  float* lo = MutablePlanes(parent);
  float* hi = lo + static_cast<size_t>(dim_) * max_entries_;
  for (int d = 0; d < dim_; ++d) {
    const size_t plane = static_cast<size_t>(d) * max_entries_;
    lo[plane + slot] = *std::min_element(c.lo + plane, c.lo + plane + c.count);
    hi[plane + slot] = *std::max_element(c.hi + plane, c.hi + plane + c.count);
  }
}

uint32_t RStarTree::ChooseSubtree(const Rect& rect, uint32_t target_level) {
  // Areas, enlargements and overlaps are computed on the planes with the
  // arithmetic of Rect::Area / Enlargement / OverlapArea, in their order.
  const size_t m = static_cast<size_t>(max_entries_);
  std::vector<float> grown_lo(dim_), grown_hi(dim_);
  uint32_t node = root_;
  while (Level(node) > target_level) {
    const NodeView n = View(node);
    const auto area = [&](uint32_t e) {
      double a = 1.0;
      for (int d = 0; d < dim_; ++d) {
        a *= static_cast<double>(n.hi[d * m + e]) - n.lo[d * m + e];
      }
      return a;
    };
    // Entry e grown to include `rect`, into grown_lo/hi; returns its area.
    const auto grow = [&](uint32_t e) {
      double a = 1.0;
      for (int d = 0; d < dim_; ++d) {
        grown_lo[d] = std::min(n.lo[d * m + e], rect.lo(d));
        grown_hi[d] = std::max(n.hi[d * m + e], rect.hi(d));
        a *= static_cast<double>(grown_hi[d]) - grown_lo[d];
      }
      return a;
    };
    // Overlap of box (lo(d), hi(d)) with entry j.
    const auto overlap = [&](const auto& lo, const auto& hi, uint32_t j) {
      double a = 1.0;
      for (int d = 0; d < dim_; ++d) {
        const double l = std::max(lo(d), n.lo[d * m + j]);
        const double h = std::min(hi(d), n.hi[d * m + j]);
        if (h <= l) return 0.0;
        a *= h - l;
      }
      return a;
    };
    uint32_t best = 0;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    if (n.level == 1) {
      // Children are leaves: minimize overlap enlargement (R* heuristic).
      double best_overlap_delta = std::numeric_limits<double>::infinity();
      for (uint32_t i = 0; i < n.count; ++i) {
        const double area_i = area(i);
        const double enlargement = grow(i) - area_i;
        const auto entry_lo = [&](int d) { return n.lo[d * m + i]; };
        const auto entry_hi = [&](int d) { return n.hi[d * m + i]; };
        const auto grown_lo_at = [&](int d) { return grown_lo[d]; };
        const auto grown_hi_at = [&](int d) { return grown_hi[d]; };
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (uint32_t j = 0; j < n.count; ++j) {
          if (j == i) continue;
          overlap_before += overlap(entry_lo, entry_hi, j);
          overlap_after += overlap(grown_lo_at, grown_hi_at, j);
        }
        const double overlap_delta = overlap_after - overlap_before;
        if (overlap_delta < best_overlap_delta ||
            (overlap_delta == best_overlap_delta &&
             (enlargement < best_enlargement ||
              (enlargement == best_enlargement && area_i < best_area)))) {
          best_overlap_delta = overlap_delta;
          best_enlargement = enlargement;
          best_area = area_i;
          best = i;
        }
      }
    } else {
      // Minimize area enlargement, ties by smaller area.
      for (uint32_t i = 0; i < n.count; ++i) {
        const double area_i = area(i);
        const double enlargement = grow(i) - area_i;
        if (enlargement < best_enlargement ||
            (enlargement == best_enlargement && area_i < best_area)) {
          best_enlargement = enlargement;
          best_area = area_i;
          best = i;
        }
      }
    }
    grow(best);
    float* lo = MutablePlanes(node);
    float* hi = lo + static_cast<size_t>(dim_) * m;
    for (int d = 0; d < dim_; ++d) {
      lo[d * m + best] = grown_lo[d];
      hi[d * m + best] = grown_hi[d];
    }
    node = static_cast<uint32_t>(n.value[best]);
  }
  return node;
}

void RStarTree::Insert(const Rect& rect, uint64_t payload) {
  WALRUS_CHECK(!is_mapped()) << "rstar: a mapped tree is read-only";
  WALRUS_CHECK_EQ(rect.dim(), dim_);
  WALRUS_CHECK(!rect.IsEmpty());
  reinserted_at_level_.assign(Level(root_) + 2, false);
  InsertAtLevel({rect, payload}, /*target_level=*/0);
  ++size_;
}

void RStarTree::InsertAtLevel(Entry entry, uint32_t target_level) {
  const uint32_t node = ChooseSubtree(entry.rect, target_level);
  WALRUS_DCHECK_EQ(Level(node), target_level);
  const uint32_t count = Count(node);
  if (count < static_cast<uint32_t>(max_entries_)) {
    PutEntry(node, count, entry.rect, entry.value);
    SetCount(node, count + 1);
    AdjustUpward(node);
    return;
  }
  std::vector<Entry> entries = Entries(node);
  entries.push_back(std::move(entry));
  OverflowTreatment(node, std::move(entries));
}

void RStarTree::OverflowTreatment(uint32_t node, std::vector<Entry> entries) {
  const uint32_t level = Level(node);
  if (node != root_ && level < reinserted_at_level_.size() &&
      !reinserted_at_level_[level]) {
    reinserted_at_level_[level] = true;
    // Forced reinsert: remove the p entries whose centers are farthest from
    // the node's bounding-rect center, then reinsert them (closest first).
    int p = std::max(1, static_cast<int>(kReinsertFraction * entries.size()));
    Rect bounds = Rect::Empty(dim_);
    for (const Entry& e : entries) bounds.ExpandToInclude(e.rect);
    std::vector<std::pair<double, size_t>> by_distance;
    by_distance.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      by_distance.emplace_back(CenterSquaredDistance(entries[i].rect, bounds),
                               i);
    }
    std::sort(by_distance.begin(), by_distance.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<bool> remove_flag(entries.size(), false);
    for (int i = 0; i < p; ++i) remove_flag[by_distance[i].second] = true;
    std::vector<Entry> removed;
    std::vector<Entry> kept;
    for (size_t i = 0; i < entries.size(); ++i) {
      (remove_flag[i] ? removed : kept).push_back(std::move(entries[i]));
    }
    SetEntries(node, kept);
    AdjustUpward(node);
    // Close reinsert: nearest-removed first ([BKSS90] found this best).
    std::reverse(removed.begin(), removed.end());
    for (Entry& e : removed) InsertAtLevel(std::move(e), level);
    return;
  }
  SplitNode(node, std::move(entries));
}

void RStarTree::SplitNode(uint32_t node, std::vector<Entry> entries) {
  std::vector<int> left_group;
  std::vector<int> right_group;
  ChooseSplitGroups(entries, &left_group, &right_group);
  std::vector<Entry> left;
  std::vector<Entry> right;
  for (int i : left_group) left.push_back(std::move(entries[i]));
  for (int i : right_group) right.push_back(std::move(entries[i]));

  const uint32_t level = Level(node);
  const uint32_t sibling = AllocNode(level);
  SetEntries(node, left);
  SetEntries(sibling, right);

  if (node == root_) {
    const uint32_t new_root = AllocNode(level + 1);
    SetEntries(new_root,
               {{NodeBounds(node), node}, {NodeBounds(sibling), sibling}});
    root_ = new_root;
    return;
  }

  const uint32_t parent = parent_[node];
  RefreshEntry(parent, node);
  Entry sibling_entry{NodeBounds(sibling), sibling};
  const uint32_t count = Count(parent);
  if (count < static_cast<uint32_t>(max_entries_)) {
    PutEntry(parent, count, sibling_entry.rect, sibling_entry.value);
    SetCount(parent, count + 1);
    AdjustUpward(parent);
    return;
  }
  std::vector<Entry> parent_entries = Entries(parent);
  parent_entries.push_back(std::move(sibling_entry));
  OverflowTreatment(parent, std::move(parent_entries));
}

void RStarTree::ChooseSplitGroups(const std::vector<Entry>& entries,
                                  std::vector<int>* left,
                                  std::vector<int>* right) const {
  const int total = static_cast<int>(entries.size());
  const int min_fill = static_cast<int>(MinEntries(max_entries_));
  WALRUS_DCHECK_GE(total, 2 * min_fill);

  // R* split. Step 1: choose the split axis minimizing the summed margins
  // of all candidate distributions.
  int best_axis = 0;
  bool best_axis_by_hi = false;
  double best_margin_sum = std::numeric_limits<double>::infinity();
  std::vector<int> order(total);

  auto sort_order = [&](int axis, bool by_hi) {
    for (int i = 0; i < total; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const Rect& ra = entries[a].rect;
      const Rect& rb = entries[b].rect;
      float ka = by_hi ? ra.hi(axis) : ra.lo(axis);
      float kb = by_hi ? rb.hi(axis) : rb.lo(axis);
      if (ka != kb) return ka < kb;
      return (by_hi ? ra.lo(axis) : ra.hi(axis)) <
             (by_hi ? rb.lo(axis) : rb.hi(axis));
    });
  };

  // Prefix/suffix bounding rects over the current `order`.
  std::vector<Rect> prefix(total), suffix(total);
  auto sweep_bounds = [&]() {
    Rect acc = Rect::Empty(dim_);
    for (int i = 0; i < total; ++i) {
      acc.ExpandToInclude(entries[order[i]].rect);
      prefix[i] = acc;
    }
    acc = Rect::Empty(dim_);
    for (int i = total - 1; i >= 0; --i) {
      acc.ExpandToInclude(entries[order[i]].rect);
      suffix[i] = acc;
    }
  };

  for (int axis = 0; axis < dim_; ++axis) {
    for (bool by_hi : {false, true}) {
      sort_order(axis, by_hi);
      sweep_bounds();
      double margin_sum = 0.0;
      for (int k = min_fill; k <= total - min_fill; ++k) {
        margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
      }
      if (margin_sum < best_margin_sum) {
        best_margin_sum = margin_sum;
        best_axis = axis;
        best_axis_by_hi = by_hi;
      }
    }
  }

  // Step 2: along the chosen axis, pick the distribution with minimum
  // overlap (ties: minimum combined area).
  sort_order(best_axis, best_axis_by_hi);
  sweep_bounds();
  int best_k = min_fill;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (int k = min_fill; k <= total - min_fill; ++k) {
    double overlap = prefix[k - 1].OverlapArea(suffix[k]);
    double area = prefix[k - 1].Area() + suffix[k].Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }

  left->assign(order.begin(), order.begin() + best_k);
  right->assign(order.begin() + best_k, order.end());
}

void RStarTree::AdjustUpward(uint32_t node) {
  while (parent_[node] != kNoParent) {
    const uint32_t parent = parent_[node];
    RefreshEntry(parent, node);
    node = parent;
  }
}

Status RStarTree::Delete(const Rect& rect, uint64_t payload) {
  WALRUS_CHECK(!is_mapped()) << "rstar: a mapped tree is read-only";
  WALRUS_CHECK_EQ(rect.dim(), dim_);
  // FindLeaf: depth-first through nodes whose rects contain `rect`.
  uint32_t leaf = kNoParent;
  uint32_t slot = 0;
  const bool degenerate = rect.Area() == 0.0;
  std::vector<uint32_t> stack = {root_};
  while (!rect.IsEmpty() && !stack.empty() && leaf == kNoParent) {
    const uint32_t node = stack.back();
    stack.pop_back();
    const NodeView n = View(node);
    for (uint32_t e = 0; e < n.count; ++e) {
      bool contains = true;   // entry box contains `rect`
      bool touches = true;    // closed-bounds overlap
      bool equal = true;
      for (int d = 0; d < dim_; ++d) {
        const float lo = n.lo[static_cast<size_t>(d) * max_entries_ + e];
        const float hi = n.hi[static_cast<size_t>(d) * max_entries_ + e];
        contains &= lo <= rect.lo(d) && rect.hi(d) <= hi;
        touches &= lo <= rect.hi(d) && rect.lo(d) <= hi;
        equal &= lo == rect.lo(d) && hi == rect.hi(d);
      }
      if (n.level == 0) {
        if (n.value[e] == payload && equal) {
          leaf = node;
          slot = e;
          break;
        }
      } else if (contains || (degenerate && touches)) {
        stack.push_back(static_cast<uint32_t>(n.value[e]));
      }
    }
  }
  if (leaf == kNoParent) {
    return Status::NotFound("rstar: entry not found for payload " +
                            std::to_string(payload));
  }
  RemoveSlot(leaf, slot);
  --size_;
  CondenseTree(leaf);
  return Status::OK();
}

int64_t RStarTree::DeleteIf(const std::function<bool(uint64_t)>& predicate) {
  // Collect matching (rect, payload) pairs first, then delete one by one so
  // CondenseTree keeps the structure valid throughout.
  std::vector<std::pair<Rect, uint64_t>> doomed;
  std::vector<uint32_t> stack = {root_};
  while (!stack.empty()) {
    const uint32_t node = stack.back();
    stack.pop_back();
    const NodeView n = View(node);
    for (uint32_t e = 0; e < n.count; ++e) {
      if (n.level > 0) {
        stack.push_back(static_cast<uint32_t>(n.value[e]));
      } else if (predicate(n.value[e])) {
        doomed.emplace_back(EntryRect(node, e), n.value[e]);
      }
    }
  }
  for (const auto& [rect, payload] : doomed) {
    Status status = Delete(rect, payload);
    WALRUS_DCHECK(status.ok()) << status;
  }
  return static_cast<int64_t>(doomed.size());
}

void RStarTree::CondenseTree(uint32_t leaf) {
  const uint32_t min_fill = MinEntries(max_entries_);
  std::vector<uint32_t> orphans;

  uint32_t node = leaf;
  while (node != root_) {
    const uint32_t parent = parent_[node];
    if (Count(node) < min_fill) {
      // Detach the underfull node from its parent and queue its entries
      // for re-insertion.
      RemoveSlot(parent, SlotOf(parent, node));
      parent_[node] = kNoParent;
      orphans.push_back(node);
    } else {
      RefreshEntry(parent, node);
    }
    node = parent;
  }

  // Shrink the root: an internal root with one child gets replaced by it.
  while (Level(root_) > 0 && Count(root_) == 1) {
    const uint32_t child = static_cast<uint32_t>(View(root_).value[0]);
    FreeNode(root_);
    root_ = child;
    parent_[child] = kNoParent;
  }
  if (Level(root_) > 0 && Count(root_) == 0) {
    // All children dissolved: reset to an empty leaf.
    FreeNode(root_);
    root_ = AllocNode(0);
  }

  // Re-insert orphaned subtrees' entries at their original levels (leaf
  // data re-enters at level 0; the entries of a level-L node re-enter at
  // level L, their children staying at L - 1).
  for (uint32_t orphan : orphans) {
    const uint32_t level = Level(orphan);
    std::vector<Entry> entries = Entries(orphan);
    FreeNode(orphan);
    for (Entry& e : entries) {
      reinserted_at_level_.assign(Level(root_) + 2, false);
      if (level <= Level(root_)) {
        InsertAtLevel(std::move(e), level);
        continue;
      }
      // The tree shrank below this subtree's height: dismantle the subtree
      // down to data entries and re-insert those.
      std::vector<uint32_t> sub = {static_cast<uint32_t>(e.value)};
      while (!sub.empty()) {
        const uint32_t n = sub.back();
        sub.pop_back();
        const uint32_t n_level = Level(n);
        std::vector<Entry> n_entries = Entries(n);
        FreeNode(n);
        for (Entry& se : n_entries) {
          if (n_level > 0) {
            sub.push_back(static_cast<uint32_t>(se.value));
            continue;
          }
          reinserted_at_level_.assign(Level(root_) + 2, false);
          InsertAtLevel(std::move(se), 0);
        }
      }
    }
  }
}

void RStarTree::RangeSearchVisit(
    const Rect& query,
    const std::function<bool(const RectView&, uint64_t)>& visitor) const {
  WALRUS_CHECK_EQ(query.dim(), dim_);
  RangeQueryBatch({query}, [&visitor](int, const RectView& bounds,
                                      uint64_t payload) {
    return visitor(bounds, payload);
  });
}

int64_t RStarTree::RangeQueryBatch(
    const std::vector<Rect>& probes,
    const std::function<bool(int, const RectView&, uint64_t)>& visitor)
    const {
  static Counter* const batch_probes =
      MetricsRegistry::Global().GetCounter("walrus.rstar.batch_probes");
  static Counter* const range_probes =
      MetricsRegistry::Global().GetCounter("walrus.rstar.range_probes");
  static Counter* const nodes =
      MetricsRegistry::Global().GetCounter("walrus.rstar.nodes_visited");
  static Histogram* const occupancy =
      MetricsRegistry::Global().GetHistogram("walrus.probe.batch_occupancy",
                                             ExponentialBuckets(1, 2, 12));
  batch_probes->Increment();
  range_probes->Increment(static_cast<uint64_t>(probes.size()));

  // Probe visit order: Hilbert on the first two center dimensions, so that
  // probes adjacent in signature space stay adjacent in active sets.
  std::vector<int> order;
  order.reserve(probes.size());
  for (int p = 0; p < static_cast<int>(probes.size()); ++p) {
    if (probes[p].IsEmpty()) continue;  // empty probes match nothing
    WALRUS_CHECK_EQ(probes[p].dim(), dim_);
    order.push_back(p);
  }
  if (order.empty()) return 0;
  if (order.size() > 1 && dim_ >= 2) {
    float min_v = std::numeric_limits<float>::max();
    float max_v = std::numeric_limits<float>::lowest();
    for (int p : order) {
      for (int d = 0; d < 2; ++d) {
        const float c = 0.5f * (probes[p].lo(d) + probes[p].hi(d));
        min_v = std::min(min_v, c);
        max_v = std::max(max_v, c);
      }
    }
    std::vector<uint64_t> keys(probes.size());
    for (int p : order) {
      keys[p] = HilbertProbeKey(0.5f * (probes[p].lo(0) + probes[p].hi(0)),
                                0.5f * (probes[p].lo(1) + probes[p].hi(1)),
                                min_v, max_v);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&keys](int a, int b) { return keys[a] < keys[b]; });
  }

  const simd::KernelTable& kern = simd::Active();
  // Active sets live in one append-only arena; each frame references a
  // slice of it, and each child's slice is appended in place of a
  // per-frame vector allocation.
  struct Frame {
    uint32_t node;
    uint32_t begin;  // arena offset of this frame's active probe indices
    uint32_t len;
  };
  std::vector<int> arena = std::move(order);
  std::vector<Frame> stack;
  stack.push_back({root_, 0, static_cast<uint32_t>(arena.size())});

  // Call-local scratch (concurrent readers share no traversal state).
  const int words = (max_entries_ + 63) / 64;
  std::vector<uint64_t> masks;  // probe-major: masks[pi * words + w]
  std::vector<Frame> pending;   // children of the current node, entry order
  std::vector<float> hit(2 * static_cast<size_t>(dim_));  // lo, then hi
  const RectView hit_view{hit.data(), hit.data() + dim_, dim_};
  int64_t visited = 0;
  const auto finish = [&] {
    nodes->Increment(static_cast<uint64_t>(visited));
    return visited;
  };

  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const NodeView n = View(frame.node);
    ++visited;
    occupancy->Observe(static_cast<double>(frame.len));
    const int count = static_cast<int>(n.count);
    if (count == 0) continue;
    masks.resize(static_cast<size_t>(words) * frame.len);
    for (uint32_t pi = 0; pi < frame.len; ++pi) {
      const Rect& probe = probes[arena[frame.begin + pi]];
      kern.batch_intersects(n.lo, n.hi, max_entries_, dim_, count,
                            probe.lo().data(), probe.hi().data(),
                            masks.data() + static_cast<size_t>(pi) * words);
    }

    if (n.level == 0) {
      for (uint32_t pi = 0; pi < frame.len; ++pi) {
        const int p = arena[frame.begin + pi];
        for (int w = 0; w < words; ++w) {
          uint64_t bits = masks[static_cast<size_t>(pi) * words + w];
          while (bits != 0) {
            const int e = w * 64 + std::countr_zero(bits);
            bits &= bits - 1;
            for (int d = 0; d < dim_; ++d) {
              hit[d] = n.lo[static_cast<size_t>(d) * max_entries_ + e];
              hit[dim_ + d] = n.hi[static_cast<size_t>(d) * max_entries_ + e];
            }
            if (!visitor(p, hit_view, n.value[e])) return finish();
          }
        }
      }
      continue;
    }

    // Gather each child's active probes (probe order preserved) into fresh
    // arena slices, then push in reverse entry order so the DFS pops
    // children first-entry-first.
    pending.clear();
    for (int e = 0; e < count; ++e) {
      const uint32_t begin = static_cast<uint32_t>(arena.size());
      const int w = e >> 6;
      const uint64_t bit = uint64_t{1} << (e & 63);
      for (uint32_t pi = 0; pi < frame.len; ++pi) {
        if (masks[static_cast<size_t>(pi) * words + w] & bit) {
          arena.push_back(arena[frame.begin + pi]);
        }
      }
      const uint32_t len = static_cast<uint32_t>(arena.size()) - begin;
      if (len > 0) {
        pending.push_back({static_cast<uint32_t>(n.value[e]), begin, len});
      }
    }
    for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return finish();
}

std::vector<uint64_t> RStarTree::RangeSearch(const Rect& query) const {
  std::vector<uint64_t> out;
  RangeSearchVisit(query, [&out](const RectView&, uint64_t payload) {
    out.push_back(payload);
    return true;
  });
  return out;
}

std::vector<std::pair<uint64_t, double>> RStarTree::NearestNeighbors(
    const std::vector<float>& point, int k, int64_t* nodes_visited) const {
  WALRUS_CHECK_EQ(static_cast<int>(point.size()), dim_);
  WALRUS_CHECK_GE(k, 1);
  static Counter* const probes =
      MetricsRegistry::Global().GetCounter("walrus.rstar.knn_probes");
  static Counter* const nodes =
      MetricsRegistry::Global().GetCounter("walrus.rstar.nodes_visited");
  probes->Increment();
  int64_t visited = 0;

  struct QueueItem {
    double dist;
    uint64_t value;  // child node id (subtree) or payload (entry)
    bool entry;
    /// Min-heap order: distance first; at equal distance subtrees pop
    /// before leaf entries (an unexpanded subtree may still hold an
    /// equal-distance entry with a smaller payload), and tied entries pop
    /// by payload. This makes the neighbor list a function of the entry
    /// set alone, not of tree layout.
    bool operator>(const QueueItem& other) const {
      if (dist != other.dist) return dist > other.dist;
      if (entry != other.entry) return entry;
      return entry && value > other.value;
    }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> heap;
  heap.push({0.0, root_, false});

  const simd::KernelTable& kern = simd::Active();
  std::vector<double> dists(static_cast<size_t>(max_entries_));
  std::vector<std::pair<uint64_t, double>> result;
  while (!heap.empty() && static_cast<int>(result.size()) < k) {
    const QueueItem item = heap.top();
    heap.pop();
    if (item.entry) {
      result.emplace_back(item.value, std::sqrt(item.dist));
      continue;
    }
    ++visited;
    const NodeView n = View(static_cast<uint32_t>(item.value));
    // One batch kernel call scores every entry (bit-identical to the
    // per-entry MinSquaredDistance: each lane runs the scalar dim loop).
    kern.batch_min_squared_distance(n.lo, n.hi, max_entries_, dim_,
                                    static_cast<int>(n.count), point.data(),
                                    dists.data());
    for (uint32_t e = 0; e < n.count; ++e) {
      heap.push({dists[e], n.value[e], n.level == 0});
    }
  }
  nodes->Increment(static_cast<uint64_t>(visited));
  if (nodes_visited != nullptr) *nodes_visited = visited;
  return result;
}

Status RStarTree::Validate() const { return CheckStructure(/*deep=*/true); }

Status RStarTree::CheckStructure(bool deep) const {
  if (root_ >= node_count_) return Status::Internal("root id out of range");
  const auto at = [](uint32_t node) {
    return " at node " + std::to_string(node);
  };
  const uint32_t min_fill = MinEntries(max_entries_);
  std::vector<uint8_t> reached(node_count_, 0);
  for (uint32_t id : free_) reached[id] = 1;
  struct Item {
    uint32_t node;
    uint32_t level;   // the level its parent implies
    uint32_t parent;  // kNoParent for the root
    uint32_t slot;    // its entry in the parent
  };
  std::vector<Item> stack = {{root_, Level(root_), kNoParent, 0}};
  int64_t leaf_entries = 0;
  size_t reached_count = free_.size();
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    if (reached[item.node] != 0) {
      return Status::Internal("node reached twice (cycle, shared or free)" +
                              at(item.node));
    }
    reached[item.node] = 1;
    ++reached_count;
    const NodeView n = View(item.node);
    if (n.level != item.level) {
      return Status::Internal("level mismatch" + at(item.node));
    }
    if (n.count > static_cast<uint32_t>(max_entries_)) {
      return Status::Internal("node overflow: " + std::to_string(n.count) +
                              at(item.node));
    }
    if (item.parent != kNoParent && n.count < min_fill) {
      return Status::Internal("node underflow: " + std::to_string(n.count) +
                              at(item.node));
    }
    for (int d = 0; d < dim_; ++d) {
      const float* lo = n.lo + static_cast<size_t>(d) * max_entries_;
      const float* hi = n.hi + static_cast<size_t>(d) * max_entries_;
      for (uint32_t e = 0; e < n.count; ++e) {
        if (!(lo[e] <= hi[e])) {
          return Status::Internal("inverted or NaN bounds" + at(item.node));
        }
      }
      if (deep && item.parent != kNoParent) {
        const NodeView p = View(item.parent);
        const size_t slot = static_cast<size_t>(d) * max_entries_ + item.slot;
        if (*std::min_element(lo, lo + n.count) != p.lo[slot] ||
            *std::max_element(hi, hi + n.count) != p.hi[slot]) {
          return Status::Internal("stale parent bounding rect" +
                                  at(item.node));
        }
      }
    }
    if (deep && !is_mapped() && parent_[item.node] != item.parent) {
      return Status::Internal("bad parent id" + at(item.node));
    }
    if (n.level == 0) {
      leaf_entries += n.count;
      continue;
    }
    for (uint32_t e = 0; e < n.count; ++e) {
      if (n.value[e] >= node_count_) {
        return Status::Internal("child id out of range" + at(item.node));
      }
      stack.push_back(
          {static_cast<uint32_t>(n.value[e]), n.level - 1, item.node, e});
    }
  }
  if (leaf_entries != size_) {
    return Status::Internal("size mismatch: counted " +
                            std::to_string(leaf_entries) + " expected " +
                            std::to_string(size_));
  }
  if (reached_count != node_count_) {
    return Status::Internal(std::to_string(node_count_ - reached_count) +
                            " nodes unreachable from the root");
  }
  return Status::OK();
}

namespace {

/// Splits [0, n) into `groups` nearly equal consecutive chunk sizes.
std::vector<int> BalancedChunks(int n, int groups) {
  std::vector<int> sizes(groups, n / groups);
  for (int i = 0; i < n % groups; ++i) ++sizes[i];
  return sizes;
}

}  // namespace

RStarTree RStarTree::BulkLoad(int dim,
                              std::vector<std::pair<Rect, uint64_t>> entries,
                              RStarParams params) {
  RStarTree tree(dim, params);
  if (entries.empty()) return tree;
  const int capacity = params.max_entries;

  // STR tiling over index ranges: sort a range by the center of one
  // dimension, slice into balanced slabs, recurse on the next dimension;
  // the innermost dimension emits the leaf-sized groups.
  struct Range {
    int begin;
    int end;
  };
  std::vector<int> order(entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);

  std::vector<Range> groups;
  std::function<void(int, int, int)> tile = [&](int begin, int end,
                                                int dim_index) {
    int n = end - begin;
    if (n <= capacity) {
      groups.push_back({begin, end});
      return;
    }
    std::sort(order.begin() + begin, order.begin() + end, [&](int a, int b) {
      const Rect& ra = entries[a].first;
      const Rect& rb = entries[b].first;
      float ca = ra.lo(dim_index) + ra.hi(dim_index);
      float cb = rb.lo(dim_index) + rb.hi(dim_index);
      return ca < cb;
    });
    int num_groups = (n + capacity - 1) / capacity;
    int next_dim = (dim_index + 1) % dim;
    if (dim_index + 1 >= dim || num_groups <= 1) {
      // Innermost dimension: emit balanced consecutive groups (balance
      // keeps every group at >= ~capacity/2, satisfying the 40% min fill).
      std::vector<int> sizes = BalancedChunks(n, num_groups);
      int at = begin;
      for (int size : sizes) {
        groups.push_back({at, at + size});
        at += size;
      }
      return;
    }
    // Slabs proportional to the remaining dimensions.
    int slabs = static_cast<int>(std::ceil(
        std::pow(static_cast<double>(num_groups),
                 1.0 / static_cast<double>(dim - dim_index))));
    slabs = std::max(1, std::min(slabs, num_groups));
    std::vector<int> sizes = BalancedChunks(n, slabs);
    int at = begin;
    for (int size : sizes) {
      tile(at, at + size, next_dim);
      at += size;
    }
  };
  tile(0, static_cast<int>(entries.size()), 0);

  // Build the leaf level; the constructor's empty root slot is reused.
  tree.FreeNode(tree.root_);
  std::vector<uint32_t> level;
  for (const Range& range : groups) {
    const uint32_t node = tree.AllocNode(0);
    for (int i = range.begin; i < range.end; ++i) {
      tree.PutEntry(node, static_cast<uint32_t>(i - range.begin),
                    entries[order[i]].first, entries[order[i]].second);
    }
    tree.SetCount(node, static_cast<uint32_t>(range.end - range.begin));
    level.push_back(node);
  }

  // Pack upward until a single root remains. One STR pass (sort children
  // by dim-0 center and chunk) is enough for the modest fan-in of upper
  // levels.
  uint32_t current_level = 0;
  while (level.size() > 1) {
    ++current_level;
    std::vector<Entry> children;
    children.reserve(level.size());
    for (uint32_t child : level) {
      children.push_back({tree.NodeBounds(child), child});
    }
    std::sort(children.begin(), children.end(),
              [](const Entry& a, const Entry& b) {
                return a.rect.lo(0) + a.rect.hi(0) <
                       b.rect.lo(0) + b.rect.hi(0);
              });
    const int n = static_cast<int>(children.size());
    std::vector<int> sizes = BalancedChunks(n, (n + capacity - 1) / capacity);
    std::vector<uint32_t> next;
    int at = 0;
    for (int size : sizes) {
      const uint32_t node = tree.AllocNode(current_level);
      tree.SetEntries(node, std::vector<Entry>(children.begin() + at,
                                               children.begin() + at + size));
      at += size;
      next.push_back(node);
    }
    level = std::move(next);
  }

  tree.root_ = level[0];
  tree.size_ = static_cast<int64_t>(entries.size());
  return tree;
}

void RStarTree::Serialize(BinaryWriter* writer) const {
  WALRUS_CHECK(writer != nullptr);
  // Breadth-first from the root: ids become dense and the root is node 0.
  std::vector<uint32_t> order = {root_};
  std::vector<uint32_t> new_id(node_count_, kNoParent);
  new_id[root_] = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const NodeView n = View(order[i]);
    if (n.level == 0) continue;
    for (uint32_t e = 0; e < n.count; ++e) {
      const auto child = static_cast<uint32_t>(n.value[e]);
      new_id[child] = static_cast<uint32_t>(order.size());
      order.push_back(child);
    }
  }

  BinaryWriter header;
  header.PutU32(kImageMagic);
  header.PutU32(kImageVersion);
  header.PutU32(static_cast<uint32_t>(dim_));
  header.PutU32(static_cast<uint32_t>(max_entries_));
  header.PutU32(static_cast<uint32_t>(order.size()));
  header.PutU32(0);  // root
  header.PutU64(static_cast<uint64_t>(size_));
  header.PutU32(static_cast<uint32_t>(height()));
  header.PutU32(0);
  WALRUS_CHECK_EQ(header.size(), kHeaderBytes);
  uint32_t crc = Crc32(header.buffer().data(), header.size());
  writer->PutBytes(header.buffer().data(), header.size());

  // Each node with its used slots; unused slots are written as zero.
  const size_t plane = static_cast<size_t>(dim_) * max_entries_;
  const size_t values = kNodeHeaderBytes + 8 * plane;
  std::vector<uint8_t> out(node_bytes_);
  for (uint32_t id : order) {
    const NodeView n = View(id);
    std::fill(out.begin(), out.end(), 0);
    std::memcpy(out.data(), &n.level, 4);
    std::memcpy(out.data() + 4, &n.count, 4);
    for (size_t d = 0; d < 2 * static_cast<size_t>(dim_); ++d) {
      std::memcpy(out.data() + kNodeHeaderBytes + 4 * d * max_entries_,
                  n.lo + d * max_entries_, 4 * static_cast<size_t>(n.count));
    }
    for (uint32_t e = 0; e < n.count; ++e) {
      const uint64_t value = n.level == 0 ? n.value[e] : new_id[n.value[e]];
      std::memcpy(out.data() + values + 8 * static_cast<size_t>(e), &value, 8);
    }
    crc = Crc32Extend(crc, out.data(), out.size());
    writer->PutBytes(out.data(), out.size());
  }
  writer->PutU32(crc);
}

Status RStarTree::WriteFile(const std::string& path) const {
  BinaryWriter writer;
  Serialize(&writer);
  const std::string tmp = path + ".tmp";
  WALRUS_RETURN_IF_ERROR(WriteFileBytes(tmp, writer.buffer()));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<RStarTree> RStarTree::Deserialize(std::span<const uint8_t> image) {
  return Load(image, nullptr);
}

Result<RStarTree> RStarTree::OpenMapped(const std::string& path) {
  WALRUS_ASSIGN_OR_RETURN(std::unique_ptr<Mapping> mapping,
                          Mapping::Open(path));
  const std::span<const uint8_t> image = mapping->bytes();
  return Load(image, std::move(mapping));
}

Result<RStarTree> RStarTree::Load(std::span<const uint8_t> image,
                                  std::unique_ptr<Mapping> mapping) {
  if (image.size() < kHeaderBytes + kCrcBytes) {
    return Status::Corruption("rstar: truncated image (" +
                              std::to_string(image.size()) + " bytes)");
  }
  BinaryReader header(image.data(), kHeaderBytes);
  WALRUS_ASSIGN_OR_RETURN(uint32_t magic, header.GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint32_t dim, header.GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint32_t max_entries, header.GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint32_t node_count, header.GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint32_t root, header.GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint64_t size, header.GetU64());
  WALRUS_ASSIGN_OR_RETURN(uint32_t height, header.GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint32_t reserved, header.GetU32());
  if (magic != kImageMagic) {
    return Status::Corruption("rstar: bad magic (a file of another build?)");
  }
  if (version != kImageVersion) {
    return Status::Corruption("rstar: unsupported format version " +
                              std::to_string(version));
  }
  if (dim == 0 || dim > kMaxDim || max_entries < 4 ||
      max_entries > static_cast<uint32_t>(kMaxEntries) || node_count == 0 ||
      reserved != 0) {
    return Status::Corruption("rstar: bad header");
  }
  const size_t node_bytes =
      NodeBytes(static_cast<int>(dim), static_cast<int>(max_entries));
  const uint64_t want = kHeaderBytes +
                        static_cast<uint64_t>(node_count) * node_bytes +
                        kCrcBytes;
  if (image.size() != want) {
    return Status::Corruption("rstar: image is " +
                              std::to_string(image.size()) +
                              " bytes, its header implies " +
                              std::to_string(want));
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, image.data() + image.size() - kCrcBytes,
              kCrcBytes);
  if (Crc32(image.data(), image.size() - kCrcBytes) != stored_crc) {
    return Status::Corruption("rstar: checksum mismatch");
  }

  RStarParams params;
  params.max_entries = static_cast<int>(max_entries);
  RStarTree tree(static_cast<int>(dim), params);
  tree.size_ = static_cast<int64_t>(size);
  tree.root_ = root;
  tree.node_count_ = node_count;
  const std::span<const uint8_t> arena =
      image.subspan(kHeaderBytes, image.size() - kHeaderBytes - kCrcBytes);
  if (mapping != nullptr) {
    tree.heap_ = {};
    tree.parent_.clear();
    tree.nodes_ = arena.data();
    tree.mapping_ = std::move(mapping);
  } else {
    tree.heap_.assign(arena.begin(), arena.end());
    tree.nodes_ = tree.heap_.data();
  }
  Status status = tree.CheckStructure(/*deep=*/false);
  if (!status.ok()) return Status::Corruption("rstar: " + status.message());
  if (height != tree.Level(root) + 1) {
    return Status::Corruption("rstar: header height " +
                              std::to_string(height) +
                              " disagrees with the root level");
  }
  if (!tree.is_mapped()) {
    tree.parent_.assign(node_count, kNoParent);
    for (uint32_t id = 0; id < node_count; ++id) {
      const NodeView n = tree.View(id);
      if (n.level == 0) continue;
      for (uint32_t e = 0; e < n.count; ++e) {
        tree.parent_[static_cast<uint32_t>(n.value[e])] = id;
      }
    }
  }
  return tree;
}

}  // namespace walrus
