#ifndef WALRUS_SPATIAL_RSTAR_TREE_H_
#define WALRUS_SPATIAL_RSTAR_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "spatial/rect.h"

namespace walrus {

/// Node-split algorithm. kRStar is the margin/overlap-optimizing split of
/// Beckmann et al.; kQuadratic is Guttman's classic quadratic split,
/// provided as an ablation (WALRUS's GiST dependency shipped a plain
/// R-tree alongside the R*-tree).
enum class SplitPolicy : uint8_t {
  kRStar = 0,
  kQuadratic = 1,
};

/// Tuning knobs for the R*-tree [BKSS90].
struct RStarParams {
  /// Maximum entries per node (M). Minimum fill is 40% of M.
  int max_entries = 16;
  /// Fraction of entries force-reinserted on the first overflow of a level
  /// (the paper's p = 30%).
  double reinsert_fraction = 0.3;
  /// Split algorithm.
  SplitPolicy split_policy = SplitPolicy::kRStar;
  /// Disable to get plain R-tree overflow handling (split immediately,
  /// never reinsert).
  bool use_forced_reinsert = true;
};

/// In-memory R*-tree over (Rect, uint64 payload) entries with file
/// serialization. WALRUS stores one entry per image region: the rect is the
/// region signature (a point for centroid signatures, a box for
/// bounding-box signatures) and the payload identifies (image, region).
///
/// Implements the R* heuristics: ChooseSubtree with minimum overlap
/// enlargement at leaf level, forced reinsertion on first overflow, and the
/// margin-then-overlap split of Beckmann et al.
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
  /// the visitor to stop early.
  void RangeSearchVisit(
      const Rect& query,
      const std::function<bool(const Rect&, uint64_t)>& visitor) const;

  /// Batched multi-probe range search: answers all `probes` in ONE tree
  /// traversal instead of one descent per probe. Probes are Hilbert-sorted
  /// (first two center dimensions) so nearby probes stay adjacent in the
  /// per-node active sets; each visited node's entries are packed once into
  /// a SoA scratch block and every active probe is filtered against them
  /// with one batch SIMD kernel call (common/simd.h). A node is descended
  /// at most once per batch, so shared upper levels of the tree are read
  /// once rather than once per query region.
  ///
  /// `visitor(probe, rect, payload)` receives the index into `probes` of
  /// the matching probe; the set of (probe, payload) pairs delivered is
  /// exactly the union over p of RangeSearchVisit(probes[p]) results,
  /// though the delivery ORDER differs (grouped by node, not by probe).
  /// Returning false aborts the entire batch. Returns the number of nodes
  /// this call visited (each node once per batch). Thread-safe against
  /// concurrent read-only searches: all traversal state is call-local.
  int64_t RangeQueryBatch(
      const std::vector<Rect>& probes,
      const std::function<bool(int, const Rect&, uint64_t)>& visitor) const;

  /// The k entries whose rects minimize the distance to `point`
  /// (min-distance best-first search). Returns (payload, distance) pairs in
  /// ascending distance order. `nodes_visited`, when non-null, receives the
  /// number of nodes this call expanded.
  std::vector<std::pair<uint64_t, double>> NearestNeighbors(
      const std::vector<float>& point, int k,
      int64_t* nodes_visited = nullptr) const;

  /// Bounding rect of everything in the tree (empty rect when empty).
  Rect BoundingRect() const;

  /// Deep structural validation: every child MBR is contained in (and the
  /// stored parent rect equals) its subtree's bounding rect, min/max fan-out
  /// is respected, levels decrease by one toward uniform-depth leaves,
  /// parent pointers are consistent, rect dimensionality matches the tree,
  /// and the leaf entry count equals size(). Returns an error describing the
  /// first violation. O(n); invoked from tests and, when DeepChecksEnabled(),
  /// after index mutations.
  Status Validate() const;

  /// Serialization (bulk dump/load of the tree structure).
  void Serialize(BinaryWriter* writer) const;
  static Result<RStarTree> Deserialize(BinaryReader* reader);

  /// Sort-Tile-Recursive bulk loading [Leutenegger et al.]: packs the
  /// entries bottom-up into a tree with near-full nodes. Much faster than
  /// repeated Insert for large batches and yields tighter nodes; the
  /// resulting tree supports normal inserts/deletes afterwards.
  static RStarTree BulkLoad(int dim,
                            std::vector<std::pair<Rect, uint64_t>> entries,
                            RStarParams params = RStarParams());

 private:
  struct Node;
  struct Entry;

  Node* ChooseSubtree(Node* node, const Rect& rect, int target_level,
                      int current_level);
  void InsertAtLevel(Entry entry, int target_level);
  void OverflowTreatment(Node* node, int level,
                         std::vector<bool>* reinserted_at_level);
  void SplitNode(Node* node);
  /// Computes the two index groups for the chosen split policy.
  void ChooseSplitGroups(const Node* node, std::vector<int>* left,
                         std::vector<int>* right) const;
  void QuadraticSplitGroups(const Node* node, std::vector<int>* left,
                            std::vector<int>* right) const;
  void AdjustUpward(Node* node);
  /// Dissolves underfull ancestors of `leaf` and re-inserts their entries;
  /// shrinks the root when it has a single child.
  void CondenseTree(Node* leaf);

  int dim_;
  RStarParams params_;
  int64_t size_ = 0;
  std::unique_ptr<Node> root_;

  // Transient state for one public Insert (forced-reinsert bookkeeping).
  std::vector<bool> reinserted_at_level_;
};

}  // namespace walrus

#endif  // WALRUS_SPATIAL_RSTAR_TREE_H_
