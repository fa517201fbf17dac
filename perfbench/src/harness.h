#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Workload-independent pieces of the end-to-end benchmark: arguments,
// deterministic scene generation, latency summaries, the in-memory span
// recorder, ranking digests and the result record every workload fills.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/index.h"
#include "core/query.h"
#include "image/image.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command line of one run (see main.cc for the flags).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory for index files, live directories and span dumps.
  std::string out_dir = ".bench_build/perfbench-out";
  /// Checked-in digests of the default seed's reference rankings.
  std::string digests_path = "perfbench/reference_digests.json";
};

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Online processors (sysconf), at least 1.
int NumProcs();

/// Resident set size of this process in MiB (/proc/self/statm), after
/// returning freed heap memory to the system.
double ResidentMiB();

/// Generates `count` 128x128 synthetic scenes with ids first_id,
/// first_id+1, ... Each scene draws from its own RNG, derived from `seed`
/// and its id alone, so the inputs do not depend on the thread count.
std::vector<walrus::ImageF> GenerateScenes(uint64_t seed, uint64_t first_id,
                                           int count);

/// Scene id ranges: indexed scenes, held-out query scenes and held-out
/// insert scenes never overlap.
inline constexpr uint64_t kQuerySceneBase = 1'000'000;
inline constexpr uint64_t kInsertSceneBase = 2'000'000;

/// Builds an in-memory index over scenes with ids 0..images.size()-1,
/// extracting regions on every processor.
walrus::Result<walrus::WalrusIndex> BuildIndex(
    const walrus::WalrusParams& params,
    const std::vector<walrus::ImageF>& images);

/// The Table 1 extraction settings (paper section 6.5 defaults with an
/// 8-pixel slide): 1000 such scenes give about 10.7k regions.
walrus::WalrusParams Table1Params();

/// Latency sample summary. Percentiles use the nearest-rank definition
/// (the ceil(q*n)-th smallest sample).
struct LatencySummary {
  size_t count = 0;
  /// Median over all samples.
  double p50 = 0.0;
  /// The tail quantile reported: 0.99 when each chunk leaves at least ten
  /// samples beyond it, otherwise the highest quantile that does.
  double tail_q = 0.0;
  /// The median, over an odd number `chunks` of consecutive chunks of at
  /// least 1000 samples each, of the chunk's tail_q quantile; with fewer than 2000
  /// samples, one chunk holds them all. Chunking keeps one stall from
  /// setting the whole run's tail.
  double tail = 0.0;
  size_t chunks = 1;
};
/// `samples` in the order they were taken.
LatencySummary Summarize(const std::vector<double>& samples,
                         double want_q = 0.99);
double NearestRank(const std::vector<double>& sorted, double q);

/// FNV-1a over ranked (image id, similarity bits) lists, in query order.
class RankingDigest {
 public:
  void Add(const std::vector<walrus::QueryMatch>& ranking);
  std::string Hex() const;

 private:
  void Mix(uint64_t v);
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// True when two rankings agree on image ids and bit-exact similarities.
bool SameRanking(const std::vector<walrus::QueryMatch>& a,
                 const std::vector<walrus::QueryMatch>& b);

/// One recorded span: a timed call into a layer, linked to its parent.
/// All spans of one operation share `op`; root spans have parent 0.
struct Span {
  uint64_t op = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  /// Work counts measured at the same call boundary.
  std::vector<std::pair<const char*, double>> counts;

  double Micros() const {
    return std::chrono::duration<double, std::micro>(end - start).count();
  }
};

/// In-memory span store. Each thread records into its own SpanLog and
/// hands it over with Merge() when it finishes; nothing is written to disk
/// until the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  uint64_t NewOp() { return next_op_.fetch_add(1) + 1; }
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  /// Thread-local batch of spans.
  struct Buffer {
    std::vector<Span> spans;
  };
  void Merge(Buffer* buffer);

  /// All merged spans (call after every recording thread has merged).
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span to `path`.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<uint64_t> next_op_{0};
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call into a layer and records it as a span. Inert (one
/// branch) when the buffer is null, so traced and untraced paths share
/// their code.
class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanLog::Buffer* buffer, uint64_t op,
            uint64_t parent, const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint64_t id() const { return span_.id; }
  void Count(const char* name, double value) {
    if (buffer_ != nullptr) span_.counts.emplace_back(name, value);
  }

 private:
  SpanLog::Buffer* buffer_;
  Span span_;
};

/// Per-span-name aggregate over a whole run.
struct SpanTotals {
  size_t spans = 0;
  double micros = 0.0;
  std::map<std::string, double> counts;

  double MeanMicros() const { return spans == 0 ? 0.0 : micros / spans; }
  double MeanCount(const std::string& name) const;
  double SumCount(const std::string& name) const;
};
std::map<std::string, SpanTotals> AggregateSpans(const std::vector<Span>& spans);

/// A named measurement with its unit.
struct Measure {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the end-to-end metrics (`metrics`, the JSON
/// result of an untraced run), the per-layer metrics every workload has
/// (`layers`, the JSON result of a traced run), end-to-end figures only
/// some workloads have (`figures`, printed as report lines), and other
/// report lines (`notes`). All lines come before the final JSON line.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  std::vector<Measure> metrics;
  std::vector<Measure> layers;
  std::vector<Measure> figures;
  std::vector<std::string> notes;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  void Figure(const std::string& name, double value, const std::string& unit) {
    figures.push_back({name, value, unit});
  }
  void Fail(const std::string& why);
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Checks `digest` against the checked-in digest of `workload` when the run
/// uses the default seed; records a problem on mismatch.
void CheckDigest(const Args& args, const std::string& digest,
                 RunResult* result);

/// The seed the checked-in reference digests were computed with.
inline constexpr uint64_t kDefaultSeed = 1;

/// Sum of regular-file sizes under `dir` whose name starts with `prefix`.
uint64_t DirBytes(const std::string& dir, const std::string& prefix = "");

/// Creates `dir` (and parents); removes any previous contents first.
bool FreshDir(const std::string& dir);
/// Creates `dir` (and parents) unless it exists; true when it is a directory.
bool EnsureDir(const std::string& dir);
void RemoveTree(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
