#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

// Load generators. An op is called as op(i, caller): i numbers the ops of
// one loop from 0, caller is the index of the calling thread (each caller
// owns its connection or span buffer). It returns false on failure.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

using LoadOp = std::function<bool(uint64_t i, int caller)>;

struct LoadSamples {
  /// Per-op latency in ms (open loop: from the op's due time), in order of
  /// completion. A failed op counts as missing every latency limit: it is
  /// recorded as the whole loop's duration.
  std::vector<double> latency_ms;
  /// Open loop only: how late each op started after its due time.
  std::vector<double> lag_ms;
  /// When each op finished, in seconds from the loop's start (same order
  /// as latency_ms).
  std::vector<double> done_s;
  uint64_t completed = 0;
  uint64_t failed = 0;
  /// From the loop's start until its last op finished.
  double seconds = 0.0;
};

/// Open loop: `callers` threads share one schedule of `rate` ops per
/// second for `seconds`. Op i is due at start + i / rate; the caller that
/// claims it waits until then, so a stall delays later ops and their
/// latency still counts from their due time.
LoadSamples RunOpenLoop(double rate, double seconds, int callers,
                        const LoadOp& op);

/// Closed loop: `callers` threads each run ops back to back for `seconds`;
/// latency counts from each op's start.
LoadSamples RunClosedLoop(double seconds, int callers, const LoadOp& op);

/// Open- and closed-loop phases alternated over one run.
struct RoundsResult {
  /// Every open-loop op, phases concatenated in order.
  LoadSamples open;
  /// Every closed-loop op (latency and counts; the times are per phase).
  LoadSamples closed;
  /// The closed phases' one-second window rates (WindowRates), in order.
  std::vector<double> closed_rates;
};

/// Runs `rounds` rounds, each an open loop at `rate` then a closed loop,
/// with `open_share` of `seconds` going to the open loops. Alternating
/// spreads both kinds of measurement over the whole run, so a slow spell
/// of the host touches a minority of each.
RoundsResult RunRounds(double rate, double seconds, double open_share,
                       int rounds, int callers, const LoadOp& op);

/// Reports `<prefix>_p50_ms` and `<prefix>_p99_ms` from `latency_ms`, with
/// the sample count and the tail quantile the sample supports: as
/// end-to-end metrics when `as_metrics`, else as figures.
void ReportLatency(const std::string& prefix,
                   const std::vector<double>& latency_ms, bool as_metrics,
                   RunResult* result);

/// Ops finished per second in each full `window_s`-second window of the
/// loop (one window when the loop is shorter), measured between the
/// window's first and last completions. query_qps is the median of the
/// one-second windows of a closed loop, so one stall does not set it.
std::vector<double> WindowRates(const LoadSamples& samples, double window_s);

/// Report line listing per-window rates.
std::string RateTimeline(const std::string& label,
                         const std::vector<double>& rates);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
