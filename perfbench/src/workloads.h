#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"
#include "load.h"

namespace perfbench {

/// walrusd on loopback over one in-memory Table 1 index: open loops at a
/// fixed rate alternating with closed loops for query_qps.
RunResult RunWireTable1(const Args& args);

/// A 3000-scene index saved with SavePaged and reopened with OpenPaged;
/// four in-process callers alternate epsilon-range and kNN queries.
RunResult RunPagedScale(const Args& args);

/// LiveIndex with four base shards: an open-loop writer of durable inserts
/// and deletes beside alternating open- and closed-loop queries.
RunResult RunLiveIngest(const Args& args);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Thread-safe record of the first few reasons ops failed (the counts
/// travel in LoadSamples).
class FailureLog {
 public:
  void Record(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    if (reasons_.size() < 10) reasons_.push_back(why);
  }
  void AppendTo(RunResult* result) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& r : reasons_) result->problems.push_back(r);
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> reasons_;
};

/// Folds one load phase's op counts into the result.
inline void CountOps(const LoadSamples& samples, RunResult* result) {
  result->attempted += samples.completed + samples.failed;
  result->failed += samples.failed;
}

/// Records setup_s (the median of `setup_seconds`) with the spread.
void ReportSetup(const std::vector<double>& setup_seconds, RunResult* result);

/// Writes the span dump and adds the shared per-layer metrics.
void FinishTrace(const Args& args, SpanLog* log, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
