#ifndef WALRUS_SPATIAL_RSTAR_TREE_H_
#define WALRUS_SPATIAL_RSTAR_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "spatial/rect.h"

namespace walrus {

/// Tuning knob for the R*-tree [BKSS90].
struct RStarParams {
  /// Maximum entries per node (M). Minimum fill is 40% of M, and the first
  /// overflow of a level during one insert force-reinserts 30% of the
  /// node's entries (the paper's p).
  int max_entries = 16;
};

/// R*-tree over (box, uint64 payload) entries. WALRUS stores one entry per
/// image region: the box is the region signature (a point for centroid
/// signatures, a bounding box for box signatures) and the payload
/// identifies (image, region).
///
/// Nodes live in one contiguous arena of fixed-size slots addressed by
/// 32-bit node ids (the layout of tarantool's salad rtree on matras):
///
///   u32 level (0 = leaf), u32 count
///   f32 lo[dim][M], f32 hi[dim][M]   dimension-major planes, stride M
///   u64 value[M]                      payload (leaf) or child node id
///
/// The planes feed the SIMD batch kernels (common/simd.h) in place, so a
/// node visit neither copies nor repacks anything. The same bytes live in
/// one of two places: a heap arena that Insert, Delete and BulkLoad change,
/// or a read-only mapping of a file written by WriteFile (OpenMapped).
/// Every traversal is written once and runs unchanged on both.
///
/// Implements the R* heuristics: ChooseSubtree with minimum overlap
/// enlargement at leaf level, forced reinsertion on the first overflow of
/// a level, and the margin-then-overlap split of Beckmann et al.
///
/// Thread safety: const methods may run concurrently (all traversal state
/// is call-local); mutations need exclusive access.
class RStarTree {
 public:
  explicit RStarTree(int dim, RStarParams params = RStarParams());

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;
  RStarTree(RStarTree&&) noexcept;
  RStarTree& operator=(RStarTree&&) noexcept;
  ~RStarTree();

  int dim() const { return dim_; }
  int64_t size() const { return size_; }
  int height() const;
  /// True when the arena is a read-only file mapping (OpenMapped). A
  /// mapped tree must not be mutated.
  bool is_mapped() const { return mapping_ != nullptr; }

  /// Inserts an entry. `rect` must have the tree's dimensionality.
  void Insert(const Rect& rect, uint64_t payload);

  /// Removes the entry with this exact payload whose rect equals `rect`.
  /// Underfull nodes are dissolved and their entries re-inserted
  /// (Guttman's CondenseTree, as R* prescribes). Returns NotFound when no
  /// such entry exists.
  Status Delete(const Rect& rect, uint64_t payload);

  /// Removes every leaf entry whose payload satisfies `predicate`,
  /// regardless of rect. Returns the number of entries removed. Used to
  /// drop all regions of one image.
  int64_t DeleteIf(const std::function<bool(uint64_t)>& predicate);

  /// Collects the payloads of all entries whose rects intersect `query`.
  std::vector<uint64_t> RangeSearch(const Rect& query) const;

  /// Like RangeSearch but streams results to `visitor`; return false from
  /// the visitor to stop early. A one-probe RangeQueryBatch.
  void RangeSearchVisit(
      const Rect& query,
      const std::function<bool(const RectView&, uint64_t)>& visitor) const;

  /// Batched multi-probe range search: answers all `probes` in ONE tree
  /// traversal instead of one descent per probe. Probes are Hilbert-sorted
  /// (first two center dimensions) so nearby probes stay adjacent in the
  /// per-node active sets, and every active probe is filtered against a
  /// visited node's planes with one batch SIMD kernel call. A node is
  /// descended at most once per batch, so shared upper levels of the tree
  /// are read once rather than once per query region.
  ///
  /// `visitor(probe, bounds, payload)` receives the index into `probes` of
  /// the matching probe and the entry's bounds, gathered into call-local
  /// scratch that is valid only during the call. The set of (probe,
  /// payload) pairs delivered is exactly the entries whose rects intersect
  /// each probe; the delivery ORDER is grouped by node, not by probe.
  /// Returning false aborts the entire batch. Returns the number of nodes
  /// this call visited (each node once per batch).
  int64_t RangeQueryBatch(
      const std::vector<Rect>& probes,
      const std::function<bool(int, const RectView&, uint64_t)>& visitor)
      const;

  /// The k entries whose rects minimize the distance to `point`
  /// (min-distance best-first search). Returns (payload, distance) pairs
  /// ordered by (distance, payload): at equal distance subtrees expand
  /// before entries pop, so the list depends on the entry set alone, never
  /// on the tree's layout. `nodes_visited`, when non-null, receives the
  /// number of nodes this call expanded.
  std::vector<std::pair<uint64_t, double>> NearestNeighbors(
      const std::vector<float>& point, int k,
      int64_t* nodes_visited = nullptr) const;

  /// Deep structural validation in one sweep of the nodes reachable from
  /// the root: every node is reached exactly once, child ids are in range,
  /// levels fall by one toward the leaves, fills lie in [40% of M, M]
  /// (root excepted), bounds are ordered and not NaN, every stored entry
  /// rect equals its child's bounding rect, parent ids are consistent, and
  /// the leaf entry count equals size(). Returns Internal describing the
  /// first violation. O(n); invoked from tests and, when
  /// DeepChecksEnabled(), after index mutations.
  Status Validate() const;

  /// Appends the tree's file image to `writer`: a 40-byte header (magic,
  /// version, dim, M, node count, root id, size, height, zero), the node
  /// arena renumbered breadth-first from the root, and a CRC-32 of
  /// everything before it.
  void Serialize(BinaryWriter* writer) const;

  /// Loads a heap copy of a file image written by Serialize; `image` must
  /// hold exactly one image. The CRC and every structural property a
  /// traversal relies on (see Validate, less the entry-rect and parent
  /// checks) are verified here, without recursion, so damage is reported
  /// as Corruption at load and never during a query.
  static Result<RStarTree> Deserialize(std::span<const uint8_t> image);

  /// Writes the file image to `path` through a temporary name that is then
  /// renamed into place, so a file another tree has mapped is replaced,
  /// never truncated under it.
  [[nodiscard]] Status WriteFile(const std::string& path) const;

  /// Maps a file written by WriteFile read-only and checks it as
  /// Deserialize does. The tree reads its nodes straight from the mapping.
  static Result<RStarTree> OpenMapped(const std::string& path);

  /// Sort-Tile-Recursive bulk loading [Leutenegger et al.]: packs the
  /// entries bottom-up into a tree with near-full nodes. Much faster than
  /// repeated Insert for large batches and yields tighter nodes; the
  /// resulting tree supports normal inserts/deletes afterwards.
  static RStarTree BulkLoad(int dim,
                            std::vector<std::pair<Rect, uint64_t>> entries,
                            RStarParams params = RStarParams());

 private:
  struct Entry;
  class Mapping;

  /// Read-only view of one arena slot.
  struct NodeView {
    uint32_t level;
    uint32_t count;
    const float* lo;        // dim planes of max_entries_ floats
    const float* hi;
    const uint64_t* value;  // payloads (leaf) or child ids
  };

  NodeView View(uint32_t id) const;
  uint32_t Level(uint32_t id) const { return View(id).level; }
  uint32_t Count(uint32_t id) const { return View(id).count; }
  /// Gathers entry `slot` of node `id` / all of its entries.
  Rect EntryRect(uint32_t id, uint32_t slot) const;
  std::vector<Entry> Entries(uint32_t id) const;
  /// Bounding rect of node `id`'s entries (empty when it has none).
  Rect NodeBounds(uint32_t id) const;
  /// Index of `child` among `parent`'s entries.
  uint32_t SlotOf(uint32_t parent, uint32_t child) const;

  // Heap-arena mutation primitives. PutEntry and SetEntries make `id` the
  // parent of the children they store.
  uint32_t AllocNode(uint32_t level);
  void FreeNode(uint32_t id);
  float* MutablePlanes(uint32_t id);  // lo planes, then hi planes
  uint64_t* MutableValues(uint32_t id);
  void SetEntryRect(uint32_t id, uint32_t slot, const Rect& rect);
  void PutEntry(uint32_t id, uint32_t slot, const Rect& rect, uint64_t value);
  void SetCount(uint32_t id, uint32_t count);
  void SetEntries(uint32_t id, const std::vector<Entry>& entries);
  /// Removes entry `slot`, keeping the order of the others.
  void RemoveSlot(uint32_t id, uint32_t slot);
  /// Rewrites `child`'s entry in `parent` as the child's bounding rect.
  void RefreshEntry(uint32_t parent, uint32_t child);

  uint32_t ChooseSubtree(const Rect& rect, uint32_t target_level);
  void InsertAtLevel(Entry entry, uint32_t target_level);
  /// Handles `node` receiving one entry past M: `entries` holds all M + 1.
  void OverflowTreatment(uint32_t node, std::vector<Entry> entries);
  void SplitNode(uint32_t node, std::vector<Entry> entries);
  void ChooseSplitGroups(const std::vector<Entry>& entries,
                         std::vector<int>* left,
                         std::vector<int>* right) const;
  void AdjustUpward(uint32_t node);
  /// Dissolves underfull ancestors of `leaf` and re-inserts their entries;
  /// shrinks the root when it has a single child.
  void CondenseTree(uint32_t leaf);

  /// The sweep behind Validate and the loaders. `deep` adds the
  /// entry-rect and parent-id checks.
  Status CheckStructure(bool deep) const;
  /// Adopts a file image (heap copy, or in place when `mapping` is set).
  static Result<RStarTree> Load(std::span<const uint8_t> image,
                                std::unique_ptr<Mapping> mapping);

  int dim_;
  int max_entries_;
  size_t node_bytes_;
  int64_t size_ = 0;
  uint32_t root_ = 0;
  uint32_t node_count_ = 0;
  /// Arena base: heap_.data(), or the node area of the mapping.
  const uint8_t* nodes_ = nullptr;
  std::vector<uint8_t> heap_;
  /// Parent id of every slot (heap arena only; root and free slots hold
  /// kNoParent), and the free slots.
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> free_;
  std::unique_ptr<Mapping> mapping_;

  // Transient state for one public Insert (forced-reinsert bookkeeping).
  std::vector<bool> reinserted_at_level_;
};

}  // namespace walrus

#endif  // WALRUS_SPATIAL_RSTAR_TREE_H_
