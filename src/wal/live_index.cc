#include "wal/live_index.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "core/query_pipeline.h"
#include "storage/catalog.h"

namespace walrus {
namespace {

constexpr uint32_t kManifestMagic = 0x574C494D;  // "WLIM"
constexpr uint32_t kManifestVersion = 1;

/// Registry mirrors (OPERATIONS.md metrics catalog, "Live ingest" table).
struct IngestMetrics {
  Counter* inserts;
  Counter* deletes;
  Counter* merges;
  Gauge* delta_images;
  Gauge* tombstones;

  static const IngestMetrics& Get() {
    static const IngestMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      IngestMetrics m;
      m.inserts = registry.GetCounter("walrus.ingest.inserts");
      m.deletes = registry.GetCounter("walrus.ingest.deletes");
      m.merges = registry.GetCounter("walrus.ingest.merges");
      m.delta_images = registry.GetGauge("walrus.ingest.delta_images");
      m.tombstones = registry.GetGauge("walrus.ingest.tombstones");
      return m;
    }();
    return metrics;
  }
};

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }
std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }
std::string BasePrefix(const std::string& dir, uint64_t generation) {
  return dir + "/base." + std::to_string(generation);
}
/// File-name prefix of every file of one base generation. The trailing dot
/// keeps "base.1" from matching "base.10.smeta".
std::string BaseFilePrefix(uint64_t generation) {
  return "base." + std::to_string(generation) + ".";
}

Result<std::vector<std::string>> ListMatchingFiles(
    const std::string& dir, const std::string& name_prefix) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError("opendir " + dir + ": " + std::strerror(errno));
  }
  std::vector<std::string> paths;
  while (struct dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name.rfind(name_prefix, 0) == 0) paths.push_back(dir + "/" + name);
  }
  ::closedir(d);
  return paths;
}

/// fsyncs every file of `name_prefix` in `dir`, then the directory itself:
/// the snapshot must be durable before the MANIFEST names it.
Status SyncBaseFiles(const std::string& dir, const std::string& name_prefix) {
  WALRUS_ASSIGN_OR_RETURN(std::vector<std::string> paths,
                          ListMatchingFiles(dir, name_prefix));
  if (paths.empty()) {
    return Status::Internal("live index: no base files matching " +
                            name_prefix + " in " + dir);
  }
  for (const std::string& path : paths) {
    WALRUS_RETURN_IF_ERROR(SyncFileForDurability(path));
  }
  return SyncParentDir(ManifestPath(dir));
}

/// Best-effort removal of a superseded base generation's files.
void UnlinkBaseFiles(const std::string& dir, const std::string& name_prefix) {
  Result<std::vector<std::string>> paths = ListMatchingFiles(dir, name_prefix);
  if (!paths.ok()) {
    WALRUS_LOG(Warning) << "live index: cannot list stale base files: "
                        << paths.status();
    return;
  }
  for (const std::string& path : *paths) {
    if (::unlink(path.c_str()) != 0) {
      WALRUS_LOG(Warning) << "live index: cannot unlink " << path << ": "
                          << std::strerror(errno);
    }
  }
}

std::vector<uint8_t> EncodeInsertBody(const ImageRecord& record) {
  BinaryWriter writer;
  record.Serialize(&writer);
  return writer.TakeBuffer();
}

std::vector<uint8_t> EncodeDeleteBody(uint64_t image_id) {
  BinaryWriter writer;
  writer.PutU64(image_id);
  return writer.TakeBuffer();
}

}  // namespace

Result<LiveManifest> ReadLiveManifest(const std::string& dir) {
  const std::string path = ManifestPath(dir);
  if (::access(path.c_str(), F_OK) != 0) {
    return Status::NotFound("live index: no MANIFEST in " + dir);
  }
  WALRUS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  if (bytes.size() < 4) return Status::Corruption("manifest: truncated");
  BinaryReader reader(bytes.data(), bytes.size() - 4);
  WALRUS_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kManifestMagic) {
    return Status::Corruption("manifest: bad magic");
  }
  WALRUS_ASSIGN_OR_RETURN(uint32_t version, reader.GetU32());
  if (version != kManifestVersion) {
    return Status::Corruption("manifest: unsupported version " +
                              std::to_string(version));
  }
  LiveManifest manifest;
  WALRUS_ASSIGN_OR_RETURN(manifest.generation, reader.GetU64());
  WALRUS_ASSIGN_OR_RETURN(manifest.last_lsn, reader.GetU64());
  WALRUS_ASSIGN_OR_RETURN(manifest.num_shards, reader.GetU32());
  WALRUS_ASSIGN_OR_RETURN(uint8_t paged, reader.GetU8());
  manifest.paged = paged != 0;
  if (!reader.AtEnd()) return Status::Corruption("manifest: trailing bytes");
  BinaryReader trailer(bytes.data() + bytes.size() - 4, 4);
  WALRUS_ASSIGN_OR_RETURN(uint32_t stored_crc, trailer.GetU32());
  if (stored_crc != Crc32(bytes.data(), bytes.size() - 4)) {
    return Status::Corruption("manifest: checksum mismatch");
  }
  if (manifest.generation == 0 || manifest.num_shards == 0 ||
      manifest.num_shards > 4096) {
    return Status::Corruption("manifest: implausible contents");
  }
  return manifest;
}

Status WriteLiveManifest(const std::string& dir,
                         const LiveManifest& manifest) {
  BinaryWriter writer;
  writer.PutU32(kManifestMagic);
  writer.PutU32(kManifestVersion);
  writer.PutU64(manifest.generation);
  writer.PutU64(manifest.last_lsn);
  writer.PutU32(manifest.num_shards);
  writer.PutU8(manifest.paged ? 1 : 0);
  writer.PutU32(Crc32(writer.buffer().data(), writer.size()));
  const std::string path = ManifestPath(dir);
  const std::string tmp = path + ".tmp";
  WALRUS_RETURN_IF_ERROR(WriteFileBytes(tmp, writer.buffer()));
  WALRUS_RETURN_IF_ERROR(SyncFileForDurability(tmp));
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename " + tmp + ": " + std::strerror(errno));
  }
  return SyncParentDir(path);
}

LiveIndex::LiveIndex(std::string dir, WalrusParams params, Options options)
    : dir_(std::move(dir)), params_(params), options_(options) {}

LiveIndex::~LiveIndex() {
  // Join any in-flight background merge before the state it uses dies.
  merge_pool_.reset();
}

Result<std::unique_ptr<LiveIndex>> LiveIndex::Open(const std::string& dir,
                                                   WalrusParams params,
                                                   Options options,
                                                   const WalrusIndex* seed) {
  options.num_shards = std::max(1, options.num_shards);

  Result<LiveManifest> existing = ReadLiveManifest(dir);
  LiveManifest manifest;
  if (existing.ok()) {
    manifest = *existing;
  } else if (existing.status().code() != StatusCode::kNotFound) {
    return existing.status();
  } else {
    // First boot: persist base generation 1 (the seed's images, or empty)
    // before the MANIFEST that names it exists.
    WalrusIndex empty(params);
    const WalrusIndex& source = seed != nullptr ? *seed : empty;
    ShardedIndex::Options shard_options;
    shard_options.num_shards = options.num_shards;
    WALRUS_ASSIGN_OR_RETURN(ShardedIndex base,
                            ShardedIndex::Partition(source, shard_options));
    WALRUS_RETURN_IF_ERROR(
        base.Save(BasePrefix(dir, 1), options.paged_base));
    WALRUS_RETURN_IF_ERROR(SyncBaseFiles(dir, BaseFilePrefix(1)));
    manifest.generation = 1;
    manifest.last_lsn = 0;
    manifest.num_shards = static_cast<uint32_t>(options.num_shards);
    manifest.paged = options.paged_base;
    WALRUS_RETURN_IF_ERROR(WriteLiveManifest(dir, manifest));
  }

  WALRUS_ASSIGN_OR_RETURN(
      ShardedIndex base,
      ShardedIndex::Open(BasePrefix(dir, manifest.generation)));

  // The persisted base is authoritative for params and shard count.
  WalrusParams live_params = base.params();
  options.num_shards = base.num_shards();
  options.paged_base = manifest.paged;
  std::unique_ptr<LiveIndex> live(
      new LiveIndex(dir, live_params, options));
  {
    WriterMutexLock lock(live->state_mu_);
    live->base_ = std::make_unique<ShardedIndex>(std::move(base));
    live->delta_ = std::make_unique<WalrusIndex>(live_params);
    live->generation_ = manifest.generation;
  }

  WalScan scan;
  WALRUS_ASSIGN_OR_RETURN(live->wal_,
                          WriteAheadLog::Open(WalPath(dir), &scan));
  size_t replayed = 0;
  for (const WalRecord& record : scan.records) {
    // Records at or below the manifest's watermark are already folded into
    // the base (a crash between the manifest rename and the WAL reset
    // leaves them behind); replaying them would double-apply.
    if (record.lsn <= manifest.last_lsn) continue;
    WALRUS_RETURN_IF_ERROR(live->ApplyReplayRecord(record));
    ++replayed;
  }
  if (replayed > 0) {
    WALRUS_LOG(Info) << "live index: replayed " << replayed
                     << " WAL record(s) into the delta";
  }

  if (options.merge_threshold > 0) {
    live->merge_pool_ = std::make_unique<ThreadPool>(1);
  }
  {
    ReaderMutexLock lock(live->state_mu_);
    IngestMetrics::Get().delta_images->Set(
        static_cast<int64_t>(live->delta_->ImageCount()));
    IngestMetrics::Get().tombstones->Set(
        static_cast<int64_t>(live->tombstones_.size()));
  }
  return live;
}

Status LiveIndex::ApplyReplayRecord(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kInsertImage: {
      const std::string where = "wal replay lsn " + std::to_string(record.lsn);
      BinaryReader reader(record.body);
      WALRUS_ASSIGN_OR_RETURN(ImageRecord image,
                              ImageRecord::Deserialize(&reader));
      if (!reader.AtEnd()) {
        return Status::Corruption(where + ": trailing bytes in insert body");
      }
      Status valid = ValidateImageRecord(image, params_);
      if (!valid.ok()) {
        return Status::Corruption(where + ": " + valid.message());
      }
      WriterMutexLock lock(state_mu_);
      return Annotate(delta_->AddImageRecord(std::move(image)), where);
    }
    case WalRecordType::kDeleteImage: {
      BinaryReader reader(record.body);
      WALRUS_ASSIGN_OR_RETURN(uint64_t image_id, reader.GetU64());
      return Annotate(ApplyDelete(image_id),
                      "wal replay lsn " + std::to_string(record.lsn));
    }
  }
  return Status::Corruption("wal replay: unknown record type");
}

Status LiveIndex::ApplyDelete(uint64_t image_id) {
  WriterMutexLock lock(state_mu_);
  if (delta_->catalog().FindImage(image_id) != nullptr) {
    // An id can live in the delta while a tombstoned predecessor sits in a
    // base shard; removing the delta copy leaves that tombstone standing.
    return delta_->RemoveImage(image_id);
  }
  int shard = ShardedIndex::ShardOf(image_id, base_->num_shards());
  const ImageRecord* record =
      base_->shard(shard).catalog().FindImage(image_id);
  if (record == nullptr || tombstones_.count(image_id) > 0) {
    return Status::NotFound("image id " + std::to_string(image_id));
  }
  tombstones_.insert(image_id);
  tombstoned_regions_ += record->regions.size();
  return Status::OK();
}

Status LiveIndex::InsertImage(uint64_t image_id, const std::string& name,
                              const ImageF& image) {
  // Extraction (wavelets + clustering, the expensive part) runs outside
  // every lock: it is a pure function of the pixels and the fixed params.
  WALRUS_ASSIGN_OR_RETURN(
      ImageRecord record,
      WalrusIndex::ExtractImageRecord(params_, image_id, name, image));
  // Reject before logging: a record in the WAL must replay cleanly.
  WALRUS_RETURN_IF_ERROR(ValidateImageRecord(record, params_));
  std::vector<uint8_t> body = EncodeInsertBody(record);

  uint64_t lsn = 0;
  {
    MutexLock ingest(ingest_mu_);
    {
      ReaderMutexLock lock(state_mu_);
      // Liveness check: ingest_mu_ keeps it valid until the apply below.
      if (delta_->catalog().FindImage(image_id) != nullptr) {
        return Status::AlreadyExists("image id " + std::to_string(image_id));
      }
      int shard = ShardedIndex::ShardOf(image_id, base_->num_shards());
      if (base_->shard(shard).catalog().FindImage(image_id) != nullptr &&
          tombstones_.count(image_id) == 0) {
        return Status::AlreadyExists("image id " + std::to_string(image_id));
      }
    }
    // Log before apply: the WAL is the source of truth. The append is
    // buffered (no fsync yet); holding ingest_mu_ across it makes LSN
    // order equal apply order.
    WALRUS_ASSIGN_OR_RETURN(lsn,
                            wal_->Append(WalRecordType::kInsertImage, body));
    {
      WriterMutexLock lock(state_mu_);
      WALRUS_RETURN_IF_ERROR(delta_->AddImageRecord(std::move(record)));
      IngestMetrics::Get().delta_images->Set(
          static_cast<int64_t>(delta_->ImageCount()));
    }
  }
  // Durability outside both locks: concurrent inserters share one fsync
  // (group commit), and queries are never blocked on storage.
  WALRUS_RETURN_IF_ERROR(wal_->Commit(lsn));
  {
    MutexLock lock(counter_mu_);
    ++inserts_;
  }
  IngestMetrics::Get().inserts->Increment();
  MaybeScheduleMerge();
  return Status::OK();
}

Status LiveIndex::DeleteImage(uint64_t image_id) {
  std::vector<uint8_t> body = EncodeDeleteBody(image_id);
  uint64_t lsn = 0;
  {
    MutexLock ingest(ingest_mu_);
    {
      ReaderMutexLock lock(state_mu_);
      bool live_in_delta = delta_->catalog().FindImage(image_id) != nullptr;
      if (!live_in_delta) {
        int shard = ShardedIndex::ShardOf(image_id, base_->num_shards());
        if (base_->shard(shard).catalog().FindImage(image_id) == nullptr ||
            tombstones_.count(image_id) > 0) {
          return Status::NotFound("image id " + std::to_string(image_id));
        }
      }
    }
    WALRUS_ASSIGN_OR_RETURN(lsn,
                            wal_->Append(WalRecordType::kDeleteImage, body));
    WALRUS_RETURN_IF_ERROR(ApplyDelete(image_id));
    {
      ReaderMutexLock lock(state_mu_);
      IngestMetrics::Get().delta_images->Set(
          static_cast<int64_t>(delta_->ImageCount()));
      IngestMetrics::Get().tombstones->Set(
          static_cast<int64_t>(tombstones_.size()));
    }
  }
  WALRUS_RETURN_IF_ERROR(wal_->Commit(lsn));
  {
    MutexLock lock(counter_mu_);
    ++deletes_;
  }
  IngestMetrics::Get().deletes->Increment();
  MaybeScheduleMerge();
  return Status::OK();
}

void LiveIndex::MaybeScheduleMerge() {
  if (merge_pool_ == nullptr || options_.merge_threshold == 0) return;
  size_t pending;
  {
    ReaderMutexLock lock(state_mu_);
    pending = delta_->ImageCount() + tombstones_.size();
  }
  if (pending < options_.merge_threshold) return;
  {
    MutexLock lock(merge_mu_);
    if (merge_scheduled_) return;
    merge_scheduled_ = true;
  }
  merge_pool_->Submit([this] {
    Status status = Merge();
    if (!status.ok()) {
      WALRUS_LOG(Error) << "live index: background merge failed: " << status;
    }
    MutexLock lock(merge_mu_);
    merge_scheduled_ = false;
    merge_idle_cv_.NotifyAll();
  });
}

void LiveIndex::WaitForMerge() {
  MutexLock lock(merge_mu_);
  while (merge_scheduled_) merge_idle_cv_.Wait(lock);
}

Status LiveIndex::Merge() {
  MutexLock ingest(ingest_mu_);

  // Snapshot the live record set under the reader lock (mutations are
  // blocked by ingest_mu_; queries keep running throughout the build).
  std::vector<ImageRecord> records;
  uint64_t old_generation;
  int num_shards;
  {
    ReaderMutexLock lock(state_mu_);
    if (delta_->ImageCount() == 0 && tombstones_.empty()) {
      return Status::OK();
    }
    old_generation = generation_;
    num_shards = base_->num_shards();
    records.reserve(base_->ImageCount() + delta_->ImageCount());
    for (int s = 0; s < num_shards; ++s) {
      for (const ImageRecord& record : base_->shard(s).catalog().images()) {
        if (tombstones_.count(record.image_id) == 0) {
          records.push_back(record);
        }
      }
    }
    for (const ImageRecord& record : delta_->catalog().images()) {
      records.push_back(record);
    }
  }
  // Every appended record is about to be folded; ingest_mu_ keeps
  // next_lsn stable until the WAL reset below.
  const uint64_t next_start_lsn = wal_->Stats().next_lsn;
  const uint64_t new_generation = old_generation + 1;

  // Build + persist the next generation. Queries still read the old state.
  WALRUS_ASSIGN_OR_RETURN(WalrusIndex merged,
                          WalrusIndex::FromRecords(params_, std::move(records)));
  ShardedIndex::Options shard_options;
  shard_options.num_shards = num_shards;
  WALRUS_ASSIGN_OR_RETURN(ShardedIndex new_base,
                          ShardedIndex::Partition(merged, shard_options));
  WALRUS_RETURN_IF_ERROR(new_base.Save(BasePrefix(dir_, new_generation),
                                       options_.paged_base));
  WALRUS_RETURN_IF_ERROR(SyncBaseFiles(dir_, BaseFilePrefix(new_generation)));

  // Commit point: the renamed MANIFEST names the new generation. A crash
  // before this line replays the full WAL into the old base; after it,
  // replay skips everything at or below last_lsn.
  LiveManifest manifest;
  manifest.generation = new_generation;
  manifest.last_lsn = next_start_lsn - 1;
  manifest.num_shards = static_cast<uint32_t>(num_shards);
  manifest.paged = options_.paged_base;
  WALRUS_RETURN_IF_ERROR(WriteLiveManifest(dir_, manifest));

  {
    WriterMutexLock lock(state_mu_);
    base_ = std::make_unique<ShardedIndex>(std::move(new_base));
    delta_ = std::make_unique<WalrusIndex>(params_);
    tombstones_.clear();
    tombstoned_regions_ = 0;
    generation_ = new_generation;
  }
  IngestMetrics::Get().delta_images->Set(0);
  IngestMetrics::Get().tombstones->Set(0);
  // The manifest covers every folded record, so the log can restart. A
  // crash before this reset only costs a redundant-but-skipped replay.
  WALRUS_RETURN_IF_ERROR(wal_->Reset(next_start_lsn));
  UnlinkBaseFiles(dir_, BaseFilePrefix(old_generation));
  {
    MutexLock lock(counter_mu_);
    ++merges_;
  }
  IngestMetrics::Get().merges->Increment();
  return Status::OK();
}

Result<std::vector<QueryMatch>> LiveIndex::ComposeParts(QueryRun* run) const {
  ReaderMutexLock lock(state_mu_);
  QueryParts parts = base_->Parts();
  if (!tombstones_.empty()) {
    for (QueryPart& part : parts.parts) {
      part.dead = &tombstones_;
      part.dead_regions = tombstoned_regions_;
    }
  }
  // The delta is never masked: an id deleted from the base and inserted
  // again lives in the delta while its tombstone stands.
  if (delta_->ImageCount() > 0) parts.parts.push_back({delta_.get()});
  return run->Compose(parts);
}

size_t LiveIndex::ImageCount() const {
  ReaderMutexLock lock(state_mu_);
  return base_->ImageCount() - tombstones_.size() + delta_->ImageCount();
}

size_t LiveIndex::RegionCount() const {
  ReaderMutexLock lock(state_mu_);
  return base_->RegionCount() - tombstoned_regions_ + delta_->RegionCount();
}

EngineStats LiveIndex::Stats() const {
  EngineStats stats;
  ReaderMutexLock lock(state_mu_);
  stats.num_shards = base_->num_shards();
  return stats;
}

IngestStats LiveIndex::IngestStatsSnapshot() const {
  IngestStats stats;
  {
    MutexLock lock(counter_mu_);
    stats.inserts = inserts_;
    stats.deletes = deletes_;
    stats.merges = merges_;
  }
  {
    ReaderMutexLock lock(state_mu_);
    stats.delta_images = delta_->ImageCount();
    stats.tombstones = tombstones_.size();
  }
  WalStats wal = wal_->Stats();
  stats.wal_records = wal.appended_records;
  stats.wal_bytes = wal.appended_bytes;
  stats.wal_syncs = wal.syncs;
  stats.wal_synced_lsn = wal.synced_lsn;
  stats.wal_file_bytes = wal.file_bytes;
  return stats;
}

uint64_t LiveIndex::generation() const {
  ReaderMutexLock lock(state_mu_);
  return generation_;
}

bool LiveIndex::ContainsImage(uint64_t image_id) const {
  ReaderMutexLock lock(state_mu_);
  if (delta_->catalog().FindImage(image_id) != nullptr) return true;
  int shard = ShardedIndex::ShardOf(image_id, base_->num_shards());
  return base_->shard(shard).catalog().FindImage(image_id) != nullptr &&
         tombstones_.count(image_id) == 0;
}

}  // namespace walrus
