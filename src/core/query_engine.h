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

/// Abstract query execution surface: everything the server, the batch entry
/// point, and the benchmarks need from "something that answers WALRUS
/// queries", independent of whether one monolithic WalrusIndex or a sharded
/// fleet of them sits behind it. Implementations must support concurrent
/// RunQuery / RunSceneQuery calls from many threads.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Full-image query (paper section 5.1). Semantics and ranking are
  /// identical across implementations: a sharded engine returns
  /// byte-identical results to a single index holding the same images.
  virtual Result<std::vector<QueryMatch>> RunQuery(
      const ImageF& query_image, const QueryOptions& options,
      QueryStats* stats = nullptr) const = 0;

  /// "User-specified scene" query — only `scene` is decomposed into
  /// regions.
  virtual Result<std::vector<QueryMatch>> RunSceneQuery(
      const ImageF& query_image, const PixelRect& scene,
      const QueryOptions& options, QueryStats* stats = nullptr) const = 0;

  virtual size_t ImageCount() const = 0;
  virtual size_t RegionCount() const = 0;
  virtual EngineStats Stats() const = 0;
};

/// Trivial adapter: one WalrusIndex, no fan-out. Lets the server and batch
/// path treat the monolithic and sharded cases uniformly. Holds a reference
/// — the index must outlive the engine.
class SingleIndexEngine : public QueryEngine {
 public:
  explicit SingleIndexEngine(const WalrusIndex& index) : index_(index) {}

  Result<std::vector<QueryMatch>> RunQuery(
      const ImageF& query_image, const QueryOptions& options,
      QueryStats* stats = nullptr) const override {
    return ExecuteQuery(index_, query_image, options, stats);
  }

  Result<std::vector<QueryMatch>> RunSceneQuery(
      const ImageF& query_image, const PixelRect& scene,
      const QueryOptions& options, QueryStats* stats = nullptr) const override {
    return ExecuteSceneQuery(index_, query_image, scene, options, stats);
  }

  size_t ImageCount() const override { return index_.ImageCount(); }
  size_t RegionCount() const override { return index_.RegionCount(); }
  EngineStats Stats() const override { return EngineStats{}; }

  const WalrusIndex& index() const { return index_; }

 private:
  const WalrusIndex& index_;
};

}  // namespace walrus

#endif  // WALRUS_CORE_QUERY_ENGINE_H_
