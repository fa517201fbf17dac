#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/check.h"

namespace walrus {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// JSON string escaping for metric names (names are plain identifiers, but
/// the renderer must not emit malformed JSON for any input).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  WALRUS_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    WALRUS_CHECK_LT(bounds_[i - 1], bounds_[i]);
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  size_t bucket = std::upper_bound(bounds_.begin(), bounds_.end(), value) -
                  bounds_.begin();
  // upper_bound gives the first bound strictly greater; bucket i counts
  // values <= bounds[i], so step back onto an exact bound hit.
  if (bucket > 0 && value == bounds_[bucket - 1]) --bucket;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t observed = sum_bits_.load(std::memory_order_relaxed);
  uint64_t desired;
  do {
    desired = DoubleBits(BitsDouble(observed) + value);
  } while (!sum_bits_.compare_exchange_weak(observed, desired,
                                            std::memory_order_relaxed));
}

uint64_t Histogram::TotalCount() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::Sum() const {
  return BitsDouble(sum_bits_.load(std::memory_order_relaxed));
}

MetricValue Histogram::Snapshot() const {
  MetricValue value;
  value.type = MetricType::kHistogram;
  value.bounds = bounds_;
  value.bucket_counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i < value.bucket_counts.size(); ++i) {
    value.bucket_counts[i] = BucketCount(i);
  }
  value.count = TotalCount();
  value.sum = Sum();
  return value;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count) {
  WALRUS_CHECK_GT(start, 0.0);
  WALRUS_CHECK_GT(factor, 1.0);
  WALRUS_CHECK_GT(count, 0);
  std::vector<double> bounds(count);
  double edge = start;
  for (int i = 0; i < count; ++i) {
    bounds[i] = edge;
    edge *= factor;
  }
  return bounds;
}

const MetricValue* MetricsSnapshot::Find(const std::string& name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double HistogramQuantile(const MetricValue& histogram, double q) {
  uint64_t total = 0;
  for (uint64_t c : histogram.bucket_counts) total += c;
  if (total == 0) return 0.0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
    seen += histogram.bucket_counts[i];
    if (seen > rank) {
      return i < histogram.bounds.size() ? histogram.bounds[i]
                                         : histogram.bounds.back();
    }
  }
  return histogram.bounds.back();
}

std::string RenderMetricsText(const MetricsSnapshot& snapshot) {
  std::string out;
  char buf[160];
  for (const MetricValue& m : snapshot.metrics) {
    switch (m.type) {
      case MetricType::kCounter:
        std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", m.name.c_str(),
                      m.counter);
        out += buf;
        break;
      case MetricType::kGauge:
        std::snprintf(buf, sizeof(buf), "%s %" PRId64 "\n", m.name.c_str(),
                      m.gauge);
        out += buf;
        break;
      case MetricType::kHistogram: {
        uint64_t cumulative = 0;
        for (size_t i = 0; i < m.bucket_counts.size(); ++i) {
          cumulative += m.bucket_counts[i];
          std::string le = i < m.bounds.size() ? FormatDouble(m.bounds[i])
                                               : std::string("+Inf");
          std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"%s\"} %" PRIu64
                        "\n",
                        m.name.c_str(), le.c_str(), cumulative);
          out += buf;
        }
        std::snprintf(buf, sizeof(buf), "%s_count %" PRIu64 "\n",
                      m.name.c_str(), m.count);
        out += buf;
        std::snprintf(buf, sizeof(buf), "%s_sum %s\n", m.name.c_str(),
                      FormatDouble(m.sum).c_str());
        out += buf;
        break;
      }
    }
  }
  return out;
}

std::string RenderMetricsJson(const MetricsSnapshot& snapshot) {
  std::string out = "[";
  char buf[160];
  for (size_t i = 0; i < snapshot.metrics.size(); ++i) {
    const MetricValue& m = snapshot.metrics[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(m.name) + "\",";
    switch (m.type) {
      case MetricType::kCounter:
        std::snprintf(buf, sizeof(buf),
                      "\"type\":\"counter\",\"value\":%" PRIu64 "}",
                      m.counter);
        out += buf;
        break;
      case MetricType::kGauge:
        std::snprintf(buf, sizeof(buf),
                      "\"type\":\"gauge\",\"value\":%" PRId64 "}", m.gauge);
        out += buf;
        break;
      case MetricType::kHistogram: {
        out += "\"type\":\"histogram\",\"bounds\":[";
        for (size_t b = 0; b < m.bounds.size(); ++b) {
          if (b > 0) out += ",";
          out += FormatDouble(m.bounds[b]);
        }
        out += "],\"buckets\":[";
        for (size_t b = 0; b < m.bucket_counts.size(); ++b) {
          if (b > 0) out += ",";
          std::snprintf(buf, sizeof(buf), "%" PRIu64, m.bucket_counts[b]);
          out += buf;
        }
        std::snprintf(buf, sizeof(buf), "],\"count\":%" PRIu64 ",\"sum\":%s}",
                      m.count, FormatDouble(m.sum).c_str());
        out += buf;
        break;
      }
    }
  }
  out += "]";
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mutex_);
  Entry& entry = EntryLocked(name);
  if (entry.counter == nullptr) {
    WALRUS_CHECK(entry.gauge == nullptr && entry.histogram == nullptr);
    entry.type = MetricType::kCounter;
    entry.counter = std::make_unique<Counter>();
  }
  return entry.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mutex_);
  Entry& entry = EntryLocked(name);
  if (entry.gauge == nullptr) {
    WALRUS_CHECK(entry.counter == nullptr && entry.histogram == nullptr);
    entry.type = MetricType::kGauge;
    entry.gauge = std::make_unique<Gauge>();
  }
  return entry.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  MutexLock lock(mutex_);
  Entry& entry = EntryLocked(name);
  if (entry.histogram == nullptr) {
    WALRUS_CHECK(entry.counter == nullptr && entry.gauge == nullptr);
    entry.type = MetricType::kHistogram;
    entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return entry.histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.metrics.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricValue value;
    value.name = name;
    value.type = entry.type;
    switch (entry.type) {
      case MetricType::kCounter:
        value.counter = entry.counter->Value();
        break;
      case MetricType::kGauge:
        value.gauge = entry.gauge->Value();
        break;
      case MetricType::kHistogram:
        value = entry.histogram->Snapshot();
        value.name = name;
        break;
    }
    snapshot.metrics.push_back(std::move(value));
  }
  return snapshot;  // std::map iterates sorted by name
}

void MetricsRegistry::Reset() {
  MutexLock lock(mutex_);
  for (auto& [name, entry] : entries_) {
    (void)name;
    switch (entry.type) {
      case MetricType::kCounter:
        entry.counter->Reset();
        break;
      case MetricType::kGauge:
        entry.gauge->Reset();
        break;
      case MetricType::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

ScopedHistogramTimer::ScopedHistogramTimer(Histogram* histogram)
    : histogram_(histogram), start_ns_(histogram ? NowNanos() : 0) {}

ScopedHistogramTimer::~ScopedHistogramTimer() {
  if (histogram_ != nullptr) {
    histogram_->Observe(static_cast<double>(NowNanos() - start_ns_) * 1e-9);
  }
}

}  // namespace walrus
