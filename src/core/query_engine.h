#ifndef WALRUS_CORE_QUERY_ENGINE_H_
#define WALRUS_CORE_QUERY_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/index.h"
#include "core/query.h"
#include "core/region_extractor.h"

namespace walrus {

/// Engine-level counters surfaced by walrusd STATS (shard fan-out). One
/// shard and no probe counters for a single-index engine.
struct EngineStats {
  /// Number of shards behind this engine (1 for a single index).
  int num_shards = 1;
  /// Regions retrieved by probes against each shard, cumulative since
  /// startup. Size == num_shards for a sharded engine; empty otherwise.
  std::vector<uint64_t> shard_probes;
};

class QueryRun;

/// Abstract query execution surface: everything the server, the batch entry
/// point, and the benchmarks need from "something that answers WALRUS
/// queries", independent of whether one monolithic WalrusIndex, a sharded
/// fleet of them, or a live base plus delta sits behind it. Implementations
/// must support concurrent RunQuery / RunSceneQuery calls from many
/// threads.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Full-image query (paper section 5.1). One implementation serves every
  /// engine: it extracts the query's regions, then composes probe, match
  /// and rank over the engine's parts (QueryRun). Semantics and ranking are
  /// identical across engines: a sharded or live engine returns
  /// byte-identical results to a single index holding the same images.
  Result<std::vector<QueryMatch>> RunQuery(const ImageF& query_image,
                                           const QueryOptions& options,
                                           QueryStats* stats = nullptr) const;

  /// "User-specified scene" query — only `scene` is decomposed into
  /// regions.
  Result<std::vector<QueryMatch>> RunSceneQuery(
      const ImageF& query_image, const PixelRect& scene,
      const QueryOptions& options, QueryStats* stats = nullptr) const;

  /// The extraction settings every part was built with.
  virtual const WalrusParams& params() const = 0;
  virtual size_t ImageCount() const = 0;
  virtual size_t RegionCount() const = 0;
  virtual EngineStats Stats() const = 0;

 protected:
  /// Returns run->Compose over this engine's parts, keeping them alive
  /// (LiveIndex: its state lock, held shared) for that call only.
  virtual Result<std::vector<QueryMatch>> ComposeParts(QueryRun* run) const = 0;

 private:
  Result<std::vector<QueryMatch>> RunAnyQuery(const ImageF& query_image,
                                              const PixelRect* scene,
                                              const QueryOptions& options,
                                              QueryStats* stats) const;
};

/// Trivial adapter: one WalrusIndex, one part, no fan-out. Lets the server
/// and batch path treat every engine uniformly. Holds a reference — the
/// index must outlive the engine.
class SingleIndexEngine : public QueryEngine {
 public:
  explicit SingleIndexEngine(const WalrusIndex& index) : index_(index) {}

  const WalrusParams& params() const override { return index_.params(); }
  size_t ImageCount() const override { return index_.ImageCount(); }
  size_t RegionCount() const override { return index_.RegionCount(); }
  EngineStats Stats() const override { return EngineStats{}; }

  const WalrusIndex& index() const { return index_; }

 protected:
  Result<std::vector<QueryMatch>> ComposeParts(QueryRun* run) const override;

 private:
  const WalrusIndex& index_;
};

}  // namespace walrus

#endif  // WALRUS_CORE_QUERY_ENGINE_H_
