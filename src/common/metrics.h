#ifndef WALRUS_COMMON_METRICS_H_
#define WALRUS_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"

namespace walrus {

/// Process-global observability registry (DESIGN.md section 10).
///
/// Every subsystem on the query path registers named counters, gauges, and
/// fixed-bucket histograms here; the registry is what the walrusd METRICS
/// opcode, the benchmarks, and operators read. Naming scheme:
/// `walrus.<subsystem>.<what>[_<unit>]`, e.g. `walrus.rstar.nodes_visited`
/// or `walrus.query.probe_seconds`.
///
/// Hot-path discipline: metric objects live for the life of the process
/// (the registry never deletes them), so call sites cache the pointer once
/// in a function-local static and then mutate a relaxed atomic -- no lock,
/// no lookup, no allocation per event. Registration itself takes a mutex
/// (slow path, once per call site).

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depths, cache sizes).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

struct MetricValue;

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// overflow bucket counts the rest. Observe() is lock-free (relaxed atomic
/// adds), so it is safe from any number of threads concurrently with
/// snapshots; a snapshot may interleave with in-flight observations but
/// every completed observation is eventually visible and totals only grow.
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t TotalCount() const;
  double Sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket i (i in [0, bounds().size()]; last = overflow).
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Unnamed kHistogram MetricValue of the current state (the form
  /// HistogramQuantile and the exposition renderers read).
  MetricValue Snapshot() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  /// Sum of observed values, stored as a double bit-cast into u64 and
  /// updated by CAS (portable lock-free double accumulation).
  std::atomic<uint64_t> sum_bits_{0};
};

/// `count` exponential bucket upper bounds: start, start*factor, ... Used
/// for latency histograms (e.g. 1us..~1min with factor 2).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count);

enum class MetricType : uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

/// One metric's state at snapshot time (also the wire/exposition unit).
struct MetricValue {
  std::string name;
  MetricType type = MetricType::kCounter;
  uint64_t counter = 0;  // kCounter
  int64_t gauge = 0;     // kGauge
  // kHistogram:
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;  // bounds.size() + 1 (overflow last)
  uint64_t count = 0;
  double sum = 0.0;
};

/// Consistent-enough view of the whole registry: each metric is read
/// atomically field-by-field; metrics registered after the snapshot began
/// may be missing. Sorted by name.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  /// The snapshotted metric named `name`, or nullptr.
  const MetricValue* Find(const std::string& name) const;
};

/// Upper edge of the bucket holding quantile `q` in [0,1] of a histogram
/// MetricValue (0 when empty): a bucket-resolution answer, plenty for
/// p50/p99 reporting.
double HistogramQuantile(const MetricValue& histogram, double q);

/// Prometheus-style text exposition ("name{} value", histograms as
/// cumulative `_bucket{le=...}` lines plus `_count`/`_sum`).
std::string RenderMetricsText(const MetricsSnapshot& snapshot);

/// JSON exposition: an array of metric objects.
std::string RenderMetricsJson(const MetricsSnapshot& snapshot);

class MetricsRegistry {
 public:
  /// The process-global registry (leaked singleton: metric pointers stay
  /// valid through static destruction).
  static MetricsRegistry& Global();

  /// Finds or creates the metric with this name. The returned pointer is
  /// stable for the life of the registry. Registering the same name as two
  /// different types is a contract violation (checked).
  Counter* GetCounter(const std::string& name) WALRUS_EXCLUDES(mutex_);
  Gauge* GetGauge(const std::string& name) WALRUS_EXCLUDES(mutex_);
  /// On first registration the histogram uses `bounds`; later calls return
  /// the existing histogram regardless of the bounds passed.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds) WALRUS_EXCLUDES(mutex_);

  MetricsSnapshot Snapshot() const WALRUS_EXCLUDES(mutex_);

  /// Zeroes every metric in place (pointers stay valid). Test/bench hook;
  /// production readers should diff snapshots instead.
  void Reset() WALRUS_EXCLUDES(mutex_);

 private:
  struct Entry {
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// The registration slot for `name` (created empty on first use).
  Entry& EntryLocked(const std::string& name) WALRUS_REQUIRES(mutex_) {
    return entries_[name];
  }

  mutable Mutex mutex_;
  std::map<std::string, Entry> entries_ WALRUS_GUARDED_BY(mutex_);
};

/// Records seconds elapsed between construction and destruction into a
/// histogram (null-safe: a null histogram disables the timer).
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram* histogram);
  ~ScopedHistogramTimer();

  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_ns_;
};

}  // namespace walrus

#endif  // WALRUS_COMMON_METRICS_H_
