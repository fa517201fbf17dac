#ifndef WALRUS_SERVER_PROTOCOL_H_
#define WALRUS_SERVER_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/ingest_engine.h"
#include "core/query.h"
#include "core/region_extractor.h"
#include "image/image.h"

namespace walrus {

/// walrusd wire protocol (DESIGN.md section 9): a versioned length-prefixed
/// binary framing in the iproto tradition. Every message — request or
/// response — is one frame:
///
///   offset  size  field
///   0       4     magic 0x57414C52 ("WALR", little-endian u32)
///   4       1     protocol version (kProtocolVersion)
///   5       1     opcode
///   6       2     reserved (zero)
///   8       8     request id (echoed verbatim in the response)
///   16      4     body length in bytes (<= kMaxBodyBytes)
///   20      n     body
///   20+n    4     CRC-32 of bytes [0, 20+n)  (common/crc32.h)
///
/// Response bodies always begin with a status section (u8 StatusCode value +
/// length-prefixed message string); an OK status is followed by the
/// opcode-specific payload. Versioning rule: the header layout is frozen;
/// incompatible body changes bump kProtocolVersion and the server rejects
/// other versions with InvalidArgument (the connection stays usable, since
/// the frame boundary is still known).
inline constexpr uint32_t kProtocolMagic = 0x57414C52;  // "WALR"
/// v2: QueryOptions gained collect_trace; QueryStats gained the per-stage
/// breakdown and span tree; the METRICS opcode was added.
/// v3: QueryStats gained a result-cache hit flag; ServerStats gained the
/// shard fan-out section (num_shards, per-shard probe counts) and four
/// result-cache counters.
/// v4: the INSERT_IMAGE and DELETE_IMAGE mutation opcodes were added
/// (answered with Unimplemented by read-only servers); ServerStats gained
/// the ingest/WAL section.
/// v5: QueryOptions gained two probe-path flags (batched probing and the
/// binary-signature filter tier); QueryStats gained the tier's time and
/// candidate counters. v4 frames were still accepted.
/// v6: the result cache was removed, and with it the v3 hit flag and
/// cache counters.
/// v7: the signature filter tier was removed, with every v5 field: the two
/// QueryOptions flags (batched probing is an in-process option only), the
/// tier's QueryStats time and counters, and its ServerStats counters.
/// v8: the page cache was removed, and with it QueryStats' pages_read,
/// cache_hits and cache_misses. Only v8 is accepted.
inline constexpr uint8_t kProtocolVersion = 8;
inline constexpr size_t kFrameHeaderBytes = 20;
inline constexpr size_t kFrameTrailerBytes = 4;
/// Upper bound on a frame body; larger length prefixes are rejected before
/// any allocation (a 4-byte length field must not let a peer OOM us).
inline constexpr uint32_t kMaxBodyBytes = 64u << 20;

enum class Opcode : uint8_t {
  kPing = 0,        // liveness probe; empty body both ways
  kQuery = 1,       // QueryOptions + query image -> matches + stats
  kSceneQuery = 2,  // QueryOptions + scene rect + image -> matches + stats
  kStats = 3,       // server counters snapshot
  kShutdown = 4,    // graceful server shutdown (drains in-flight requests)
  kMetrics = 5,     // process-global metrics registry snapshot
  kInsertImage = 6,  // image id + name + image -> durable online insert (v4)
  kDeleteImage = 7,  // image id -> durable online delete (v4)
};
inline constexpr int kNumOpcodes = 8;

/// Stable display name for an opcode ("QUERY", "PING", ...).
const char* OpcodeName(Opcode opcode);

/// Decoded frame header (magic/reserved validated away).
struct FrameHeader {
  uint8_t version = kProtocolVersion;
  Opcode opcode = Opcode::kPing;
  uint64_t request_id = 0;
  uint32_t body_length = 0;
};

/// Builds a complete frame: header + body + CRC-32 trailer.
std::vector<uint8_t> EncodeFrame(Opcode opcode, uint64_t request_id,
                                 const std::vector<uint8_t>& body);

/// A frame held as scatter-gather segments: the fixed header, any number
/// of body chunks (concatenated on the wire), and the CRC-32 trailer.
/// This is the reactor's response representation -- the chunks are handed
/// to writev as-is, so a multi-megabyte QUERY payload is framed and
/// written without ever being copied into one contiguous buffer.
struct FrameParts {
  std::array<uint8_t, kFrameHeaderBytes> header = {};
  std::vector<std::vector<uint8_t>> body;
  std::array<uint8_t, kFrameTrailerBytes> trailer = {};

  size_t TotalBytes() const {
    size_t n = kFrameHeaderBytes + kFrameTrailerBytes;
    for (const std::vector<uint8_t>& chunk : body) n += chunk.size();
    return n;
  }
};

/// Frames `body_chunks` (taken by move) under the given opcode/request id.
/// The CRC trailer is computed incrementally with Crc32Extend over header
/// then chunks, so the bytes on the wire are identical to
/// EncodeFrame(opcode, request_id, concat(body_chunks)).
FrameParts MakeFrameParts(Opcode opcode, uint64_t request_id,
                          std::vector<std::vector<uint8_t>> body_chunks);

/// Parses the fixed-size header (`data` must hold kFrameHeaderBytes).
/// Corruption on bad magic (framing lost: the caller must drop the
/// connection); InvalidArgument on a version other than kProtocolVersion
/// or an oversized body length (frame boundary may still be recoverable
/// for the version case). Unknown opcodes are *not* rejected here so the
/// connection can skip the body and answer with an error.
Status DecodeFrameHeader(const uint8_t* data, FrameHeader* out);

/// CRC-32 over header + body, as stored in the frame trailer.
uint32_t FrameCrc(const uint8_t* header, const std::vector<uint8_t>& body);

/// Response status section: u8 code + message string. The decoder returns
/// its own framing errors; the transmitted status lands in `remote`.
void EncodeResponseStatus(const Status& status, BinaryWriter* writer);
Status DecodeResponseStatus(BinaryReader* reader, Status* remote);

// ---- Body payload encodings (shared by server, client, and tests) -------

void EncodeQueryOptions(const QueryOptions& options, BinaryWriter* writer);
Result<QueryOptions> DecodeQueryOptions(BinaryReader* reader);

/// Planar float image; dimensions are validated on decode (kMaxImageSide,
/// channel count 1..4) before any plane allocation.
inline constexpr int kMaxImageSide = 1 << 14;
void EncodeImage(const ImageF& image, BinaryWriter* writer);
Result<ImageF> DecodeImage(BinaryReader* reader);

void EncodePixelRect(const PixelRect& rect, BinaryWriter* writer);
Result<PixelRect> DecodePixelRect(BinaryReader* reader);

void EncodeMatches(const std::vector<QueryMatch>& matches,
                   BinaryWriter* writer);
Result<std::vector<QueryMatch>> DecodeMatches(BinaryReader* reader);

void EncodeQueryStats(const QueryStats& stats, BinaryWriter* writer);
Result<QueryStats> DecodeQueryStats(BinaryReader* reader);

/// Query span tree (QueryStats::spans when QueryOptions::collect_trace is
/// set). Nesting deeper than kMaxTraceDepth is rejected on decode.
inline constexpr int kMaxTraceDepth = 64;
void EncodeTraceSpans(const std::vector<TraceSpan>& spans,
                      BinaryWriter* writer);
Result<std::vector<TraceSpan>> DecodeTraceSpans(BinaryReader* reader);

/// Metrics registry snapshot, exposed through the METRICS opcode.
void EncodeMetricsSnapshot(const MetricsSnapshot& snapshot,
                           BinaryWriter* writer);
Result<MetricsSnapshot> DecodeMetricsSnapshot(BinaryReader* reader);

/// Server-side counters exposed through the STATS opcode.
struct ServerStats {
  uint64_t requests_by_opcode[kNumOpcodes] = {};
  uint64_t rejected_overload = 0;   // admission queue full -> OVERLOADED
  uint64_t deadline_exceeded = 0;   // expired in queue before execution
  uint64_t protocol_errors = 0;     // malformed frames / CRC failures
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t connections_accepted = 0;
  /// Request latency (dispatch to response written), from the server's
  /// log-scale histogram.
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// Shard fan-out (v3): shard count of the engine behind the server (1
  /// when serving a plain WalrusIndex) and cumulative regions retrieved by
  /// probes against each shard.
  uint32_t num_shards = 1;
  std::vector<uint64_t> shard_probes;
  /// Ingest/WAL section (v4): present only when the server fronts a live
  /// (mutable) engine; read-only servers send has_ingest = false.
  bool has_ingest = false;
  IngestStats ingest;
};
void EncodeServerStats(const ServerStats& stats, BinaryWriter* writer);
Result<ServerStats> DecodeServerStats(BinaryReader* reader);

}  // namespace walrus

#endif  // WALRUS_SERVER_PROTOCOL_H_
