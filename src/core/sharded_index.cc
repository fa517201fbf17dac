#include "core/sharded_index.h"

#include <algorithm>
#include <unordered_set>

#include "common/metrics.h"
#include "common/serialize.h"
#include "common/status.h"

namespace walrus {
namespace {

constexpr uint32_t kShardManifestMagic = 0x57534844;  // "WSHD"
constexpr uint32_t kShardManifestVersion = 1;

/// splitmix64 finalizer: routes sequential image-id ranges evenly across
/// shards (raw modulo would put a contiguous upload on one shard).
uint64_t Splitmix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<WalrusIndex> EmptyShards(const WalrusParams& params, int n) {
  std::vector<WalrusIndex> shards;
  shards.reserve(n);
  for (int s = 0; s < n; ++s) shards.emplace_back(params);
  return shards;
}

}  // namespace

int ShardedIndex::ShardOf(uint64_t image_id, int num_shards) {
  return static_cast<int>(Splitmix64(image_id) %
                          static_cast<uint64_t>(num_shards));
}

ShardedIndex::ShardedIndex(WalrusParams params, Options options)
    : ShardedIndex(params,
                   EmptyShards(params, std::max(1, options.num_shards))) {}

ShardedIndex::ShardedIndex(WalrusParams params,
                           std::vector<WalrusIndex> shards)
    : params_(std::move(params)),
      shards_(std::move(shards)),
      shard_probe_regions_(shards_.size()) {
  int n = num_shards();
  shard_probe_counters_.reserve(n);
  for (int s = 0; s < n; ++s) {
    shard_probe_counters_.push_back(MetricsRegistry::Global().GetCounter(
        "walrus.sharded.probe_regions.s" + std::to_string(s)));
  }
  int threads = std::min(n, ThreadPool::DefaultThreads()) - 1;
  if (threads >= 1) fanout_pool_ = std::make_unique<ThreadPool>(threads);
}

Result<ShardedIndex> ShardedIndex::Partition(const WalrusIndex& source,
                                             Options options) {
  int n = std::max(1, options.num_shards);
  std::vector<std::vector<ImageRecord>> parts(n);
  for (const ImageRecord& record : source.catalog().images()) {
    parts[ShardOf(record.image_id, n)].push_back(record);
  }
  std::vector<WalrusIndex> shards;
  shards.reserve(n);
  for (int s = 0; s < n; ++s) {
    WALRUS_ASSIGN_OR_RETURN(
        WalrusIndex shard,
        WalrusIndex::FromRecords(source.params(), std::move(parts[s])));
    shards.push_back(std::move(shard));
  }
  return ShardedIndex(source.params(), std::move(shards));
}

QueryParts ShardedIndex::Parts() const {
  QueryParts parts;
  parts.parts.reserve(shards_.size());
  for (const WalrusIndex& shard : shards_) parts.parts.push_back({&shard});
  parts.pool = fanout_pool_.get();
  return parts;
}

Result<std::vector<QueryMatch>> ShardedIndex::ComposeParts(
    QueryRun* run) const {
  std::vector<int64_t> retrieved;
  Result<std::vector<QueryMatch>> matches = run->Compose(Parts(), &retrieved);
  if (matches.ok()) {
    for (size_t s = 0; s < retrieved.size(); ++s) {
      const uint64_t regions = static_cast<uint64_t>(retrieved[s]);
      shard_probe_regions_[s].fetch_add(regions, std::memory_order_relaxed);
      shard_probe_counters_[s]->Increment(regions);
    }
  }
  return matches;
}

size_t ShardedIndex::ImageCount() const {
  size_t count = 0;
  for (const WalrusIndex& shard : shards_) count += shard.ImageCount();
  return count;
}

size_t ShardedIndex::RegionCount() const {
  size_t count = 0;
  for (const WalrusIndex& shard : shards_) count += shard.RegionCount();
  return count;
}

EngineStats ShardedIndex::Stats() const {
  EngineStats stats;
  stats.num_shards = num_shards();
  stats.shard_probes.reserve(shards_.size());
  for (const auto& probes : shard_probe_regions_) {
    stats.shard_probes.push_back(probes.load(std::memory_order_relaxed));
  }
  return stats;
}

Status ShardedIndex::AddImage(uint64_t image_id, const std::string& name,
                              const ImageF& image) {
  return shards_[ShardOf(image_id, num_shards())].AddImage(image_id, name,
                                                           image);
}

Status ShardedIndex::AddImages(
    std::vector<WalrusIndex::PendingImage> images, int num_threads) {
  const int n = num_shards();
  // Cross-shard pre-validation so a duplicate in a late shard's slice
  // cannot leave earlier shards mutated.
  std::unordered_set<uint64_t> seen;
  for (const WalrusIndex::PendingImage& pending : images) {
    if (!seen.insert(pending.image_id).second ||
        shards_[ShardOf(pending.image_id, n)].catalog().FindImage(
            pending.image_id) != nullptr) {
      return Status::AlreadyExists("image id " +
                                   std::to_string(pending.image_id));
    }
  }
  std::vector<std::vector<WalrusIndex::PendingImage>> by_shard(n);
  for (WalrusIndex::PendingImage& pending : images) {
    by_shard[ShardOf(pending.image_id, n)].push_back(std::move(pending));
  }
  // Extraction failures can still leave earlier shards populated; each
  // shard's batch is individually atomic, the cross-shard batch is not.
  for (int s = 0; s < n; ++s) {
    if (by_shard[s].empty()) continue;
    WALRUS_RETURN_IF_ERROR(
        shards_[s].AddImages(std::move(by_shard[s]), num_threads));
  }
  return Status::OK();
}

Status ShardedIndex::RemoveImage(uint64_t image_id) {
  return shards_[ShardOf(image_id, num_shards())].RemoveImage(image_id);
}

Status ShardedIndex::Save(const std::string& path_prefix, bool paged) const {
  BinaryWriter writer;
  writer.PutU32(kShardManifestMagic);
  writer.PutU32(kShardManifestVersion);
  writer.PutU32(static_cast<uint32_t>(num_shards()));
  writer.PutU8(paged ? 1 : 0);
  WALRUS_RETURN_IF_ERROR(
      WriteFileBytes(path_prefix + ".smeta", writer.buffer()));
  for (int s = 0; s < num_shards(); ++s) {
    std::string shard_prefix = path_prefix + ".s" + std::to_string(s);
    WALRUS_RETURN_IF_ERROR(paged ? shards_[s].SavePaged(shard_prefix)
                                 : shards_[s].Save(shard_prefix));
  }
  return Status::OK();
}

Result<ShardedIndex> ShardedIndex::Open(const std::string& path_prefix) {
  WALRUS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                          ReadFileBytes(path_prefix + ".smeta"));
  BinaryReader reader(bytes);
  WALRUS_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kShardManifestMagic) {
    return Status::Corruption("sharded index: bad manifest magic");
  }
  WALRUS_ASSIGN_OR_RETURN(uint32_t version, reader.GetU32());
  if (version != kShardManifestVersion) {
    return Status::Corruption("sharded index: unsupported manifest version " +
                              std::to_string(version));
  }
  WALRUS_ASSIGN_OR_RETURN(uint32_t num_shards, reader.GetU32());
  if (num_shards == 0 || num_shards > 4096) {
    return Status::Corruption("sharded index: implausible shard count " +
                              std::to_string(num_shards));
  }
  WALRUS_ASSIGN_OR_RETURN(uint8_t paged, reader.GetU8());

  std::vector<WalrusIndex> shards;
  shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::string shard_prefix = path_prefix + ".s" + std::to_string(s);
    WALRUS_ASSIGN_OR_RETURN(WalrusIndex shard,
                            paged != 0
                                ? WalrusIndex::OpenPaged(shard_prefix)
                                : WalrusIndex::Open(shard_prefix));
    shards.push_back(std::move(shard));
  }
  WalrusParams params = shards.front().params();
  return ShardedIndex(std::move(params), std::move(shards));
}

}  // namespace walrus
