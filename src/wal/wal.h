#ifndef WALRUS_WAL_WAL_H_
#define WALRUS_WAL_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace walrus {

/// Write-ahead log for catalog/index mutations (DESIGN.md section 14).
///
/// File layout (all integers little-endian, via common/serialize idioms):
///
///   header   offset  size  field
///            0       4     magic 0x4C415757 ("WWAL")
///            4       1     format version (kWalFormatVersion)
///            5       3     reserved (zero)
///            8       8     start LSN of this file (first record's LSN)
///            16      4     CRC-32 of bytes [0, 16)
///
///   record   offset  size  field
///            0       4     body length in bytes (<= kMaxWalRecordBytes)
///            4       8     LSN (strictly sequential from the file's start
///                          LSN; a gap or repeat ends the valid prefix)
///            12      1     record type (WalRecordType)
///            13      n     body
///            13+n    4     CRC-32 of bytes [0, 13+n)
///
/// The frame is length-prefixed and CRC-trailed exactly like the wire
/// protocol (server/protocol.h) and the storage pages (storage/page_file.h):
/// a reader can always determine where a record should end, and the CRC
/// decides whether what is there is real. Torn tails -- a crash mid-write
/// leaves a half record -- therefore truncate cleanly to the last record
/// whose CRC verifies; nothing after the first invalid byte is trusted.
inline constexpr uint32_t kWalMagic = 0x4C415757;  // "WWAL" on disk
/// v3: kInsertImage bodies are ImageRecords without the per-region binary
/// signature words v2 carried. Files of any other version are rejected
/// cleanly at open rather than misparsed.
inline constexpr uint8_t kWalFormatVersion = 3;
inline constexpr size_t kWalHeaderBytes = 20;
/// Fixed bytes around a record body: length + LSN + type + CRC trailer.
inline constexpr size_t kWalRecordOverhead = 17;
/// Upper bound on a record body; larger length prefixes end the scan
/// before any allocation (a 4-byte length field must not OOM recovery).
inline constexpr uint32_t kMaxWalRecordBytes = 64u << 20;

/// Logical mutation kinds. The WAL logs post-extraction catalog state
/// (serialized ImageRecords), not pixels: replay re-applies metadata, it
/// never re-runs wavelets or clustering.
enum class WalRecordType : uint8_t {
  /// Body: ImageRecord (storage/catalog.h serialization).
  kInsertImage = 1,
  /// Body: u64 image id (tombstone).
  kDeleteImage = 2,
};

/// One decoded record.
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kInsertImage;
  std::vector<uint8_t> body;
};

/// Result of scanning a WAL file: the valid record prefix plus where it
/// ended. `valid_bytes` is the file offset just past the last valid record
/// (recovery truncates there before appending); `dropped_bytes` is what the
/// scan discarded (torn tail, bit flips, garbage).
struct WalScan {
  std::vector<WalRecord> records;
  uint64_t start_lsn = 1;
  size_t valid_bytes = 0;
  size_t dropped_bytes = 0;
};

/// Counters surfaced through STATS / walrus_client (cumulative since this
/// process opened the log, except the LSN watermarks which are absolute).
struct WalStats {
  uint64_t appended_records = 0;
  uint64_t appended_bytes = 0;
  uint64_t syncs = 0;
  /// Highest LSN guaranteed durable (fsync completed past it).
  uint64_t synced_lsn = 0;
  /// LSN the next Append will be assigned.
  uint64_t next_lsn = 1;
  /// Current file size in bytes (header + records).
  uint64_t file_bytes = 0;
};

/// Append-only, CRC-framed write-ahead log with fsync'd group commit.
///
/// Durability contract: Append() assigns an LSN and buffers the record into
/// the OS file; Commit(lsn) returns OK only once an fsync covering that LSN
/// has completed. Concurrent committers share fsyncs: one caller becomes
/// the sync leader, syncs everything appended so far, and wakes the rest
/// (tarantool's xrow/wal batching shape). Appends are not blocked by an
/// in-flight fsync.
///
/// Thread-safe. All methods may be called from any thread.
class WriteAheadLog {
 public:
  /// Opens (or creates) the log at `path`. An existing file is scanned for
  /// its valid record prefix, truncated just past it (dropping any torn
  /// tail), and positioned for append; the scan -- every surviving record,
  /// in LSN order -- is returned through `scan` for the caller to replay.
  /// A corrupt header is an error (the caller decides whether to destroy),
  /// a corrupt tail is not.
  [[nodiscard]] static Result<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& path, WalScan* scan);

  /// Read-only scan of a WAL file (tests, tooling, fuzzing). Never fails
  /// on tail corruption -- it reports how far the valid prefix reaches.
  /// Errors only on IO failure or a corrupt/missing header.
  [[nodiscard]] static Result<WalScan> ScanFile(const std::string& path);

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;
  ~WriteAheadLog();

  /// Appends one record, assigning the next LSN. The record is written to
  /// the file (not yet fsync'd) before the LSN is returned; call Commit to
  /// make it durable.
  [[nodiscard]] Result<uint64_t> Append(WalRecordType type,
                                        const std::vector<uint8_t>& body)
      WALRUS_EXCLUDES(mu_);

  /// Blocks until every record up to and including `lsn` is durable
  /// (group commit: piggybacks on another caller's fsync when possible).
  [[nodiscard]] Status Commit(uint64_t lsn) WALRUS_EXCLUDES(mu_);

  /// Truncates the log to an empty file whose next record will carry
  /// `start_lsn`, fsync'd before return. Called after a merge has folded
  /// every record below `start_lsn` into a durable base snapshot; the
  /// caller must ensure no Append races this (LiveIndex holds its ingest
  /// lock across the merge).
  [[nodiscard]] Status Reset(uint64_t start_lsn) WALRUS_EXCLUDES(mu_);

  WalStats Stats() const WALRUS_EXCLUDES(mu_);

  const std::string& path() const { return path_; }

 private:
  WriteAheadLog(std::string path, int fd, uint64_t next_lsn,
                uint64_t file_bytes);

  /// Scans `bytes` (a whole WAL file) into records; shared by Open and
  /// ScanFile. Header errors fail; tail corruption truncates.
  static Result<WalScan> ScanBytes(const std::vector<uint8_t>& bytes);

  std::string path_;
  /// Owns the file descriptor for the log's lifetime (closed in dtor).
  int fd_;

  mutable Mutex mu_;
  CondVar sync_cv_;
  uint64_t next_lsn_ WALRUS_GUARDED_BY(mu_);
  uint64_t appended_lsn_ WALRUS_GUARDED_BY(mu_);
  uint64_t synced_lsn_ WALRUS_GUARDED_BY(mu_);
  bool sync_in_progress_ WALRUS_GUARDED_BY(mu_) = false;
  uint64_t file_bytes_ WALRUS_GUARDED_BY(mu_);
  uint64_t appended_records_ WALRUS_GUARDED_BY(mu_) = 0;
  uint64_t appended_bytes_ WALRUS_GUARDED_BY(mu_) = 0;
  uint64_t syncs_ WALRUS_GUARDED_BY(mu_) = 0;
};

/// Encodes one record frame (exposed for tests and fuzzing: the fuzz suite
/// builds valid logs and then corrupts them).
std::vector<uint8_t> EncodeWalRecord(uint64_t lsn, WalRecordType type,
                                     const std::vector<uint8_t>& body);

/// Encodes a WAL file header for `start_lsn` (exposed for tests).
std::vector<uint8_t> EncodeWalHeader(uint64_t start_lsn);

/// fsyncs an existing file by path (used to make snapshot files durable
/// before the manifest that references them is renamed into place).
[[nodiscard]] Status SyncFileForDurability(const std::string& path);

/// fsyncs the directory containing `path_in_dir` so renames/creations in
/// it survive a crash.
[[nodiscard]] Status SyncParentDir(const std::string& path_in_dir);

}  // namespace walrus

#endif  // WALRUS_WAL_WAL_H_
