#include "load.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "harness.h"

namespace perfbench {

namespace {

struct CallerSamples {
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> done_s;
  std::vector<bool> ok;
};

/// Merges the callers' samples in order of completion.
LoadSamples Gather(const std::vector<CallerSamples>& callers,
                   Clock::time_point start, Clock::time_point last_done) {
  struct Sample {
    double done_s;
    double latency_ms;
    double lag_ms;
    bool ok;
  };
  std::vector<Sample> all;
  for (const CallerSamples& c : callers) {
    for (size_t i = 0; i < c.latency_ms.size(); ++i) {
      all.push_back({c.done_s[i], c.latency_ms[i],
                     c.lag_ms.empty() ? 0.0 : c.lag_ms[i], c.ok[i]});
    }
  }
  std::sort(all.begin(), all.end(), [](const Sample& a, const Sample& b) {
    return a.done_s < b.done_s;
  });
  LoadSamples out;
  out.seconds = SecondsBetween(start, last_done);
  const bool open_loop = !callers.empty() && !callers[0].lag_ms.empty();
  for (const Sample& s : all) {
    if (s.ok) {
      ++out.completed;
      out.latency_ms.push_back(s.latency_ms);
    } else {
      ++out.failed;
      out.latency_ms.push_back(std::max(s.latency_ms, out.seconds * 1000.0));
    }
    if (open_loop) out.lag_ms.push_back(s.lag_ms);
    out.done_s.push_back(s.done_s);
  }
  return out;
}

}  // namespace

LoadSamples RunOpenLoop(double rate, double seconds, int callers,
                        const LoadOp& op) {
  std::vector<CallerSamples> samples(static_cast<size_t>(callers));
  std::vector<Clock::time_point> last(static_cast<size_t>(callers));
  std::atomic<uint64_t> next{0};
  const Clock::time_point start = Clock::now();
  const auto interval = std::chrono::duration<double>(1.0 / rate);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      CallerSamples& mine = samples[static_cast<size_t>(c)];
      last[static_cast<size_t>(c)] = start;
      for (;;) {
        uint64_t i = next.fetch_add(1);
        Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        interval * static_cast<double>(i));
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        Clock::time_point sent = Clock::now();
        bool ok = op(i, c);
        Clock::time_point done = Clock::now();
        mine.lag_ms.push_back(MillisBetween(due, sent));
        mine.latency_ms.push_back(MillisBetween(due, done));
        mine.ok.push_back(ok);
        mine.done_s.push_back(SecondsBetween(start, done));
        last[static_cast<size_t>(c)] = done;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return Gather(samples, start, *std::max_element(last.begin(), last.end()));
}

LoadSamples RunClosedLoop(double seconds, int callers, const LoadOp& op) {
  std::vector<CallerSamples> samples(static_cast<size_t>(callers));
  std::vector<Clock::time_point> last(static_cast<size_t>(callers));
  std::atomic<uint64_t> next{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      CallerSamples& mine = samples[static_cast<size_t>(c)];
      last[static_cast<size_t>(c)] = start;
      while (Clock::now() < end) {
        uint64_t i = next.fetch_add(1);
        Clock::time_point sent = Clock::now();
        bool ok = op(i, c);
        Clock::time_point done = Clock::now();
        mine.latency_ms.push_back(MillisBetween(sent, done));
        mine.ok.push_back(ok);
        mine.done_s.push_back(SecondsBetween(start, done));
        last[static_cast<size_t>(c)] = done;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return Gather(samples, start, *std::max_element(last.begin(), last.end()));
}

void ReportLatency(const std::string& prefix,
                   const std::vector<double>& latency_ms, bool as_metrics,
                   RunResult* result) {
  LatencySummary s = Summarize(latency_ms);
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s latency: p50 %.4f ms, p%.1f %.4f ms over %zu samples "
                "(tail: median of %zu chunks)",
                prefix.c_str(), s.p50, s.tail_q * 100.0, s.tail, s.count,
                s.chunks);
  result->Note(line);
  if (s.tail_q < 0.99) {
    result->Note(prefix + ": too few samples for p99; " + prefix +
                 "_p99_ms reports the highest supported percentile");
  }
  if (as_metrics) {
    result->Metric(prefix + "_p50_ms", s.p50, "ms");
    result->Metric(prefix + "_p99_ms", s.tail, "ms");
  } else {
    result->Figure(prefix + "_p50_ms", s.p50, "ms");
    result->Figure(prefix + "_p99_ms", s.tail, "ms");
  }
}

std::vector<double> WindowRates(const LoadSamples& samples, double window_s) {
  // Within each window: completions after the window's first one, over
  // the time from its first to its last completion.
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(samples.seconds / window_s));
  std::vector<double> first(windows, -1.0);
  std::vector<double> last(windows, 0.0);
  std::vector<double> count(windows, 0.0);
  for (double t : samples.done_s) {
    size_t w = static_cast<size_t>(t / window_s);
    if (w >= windows) continue;
    if (first[w] < 0.0) first[w] = t;
    last[w] = t;
    count[w] += 1.0;
  }
  std::vector<double> rates;
  for (size_t w = 0; w < windows; ++w) {
    if (count[w] >= 2.0 && last[w] > first[w]) {
      rates.push_back((count[w] - 1.0) / (last[w] - first[w]));
    }
  }
  return rates;
}

std::string RateTimeline(const std::string& label,
                         const std::vector<double>& rates) {
  std::string line = label + " ops per second:";
  for (double r : rates) line += " " + std::to_string(static_cast<long>(r));
  return line;
}

namespace {

void Append(const LoadSamples& from, LoadSamples* into) {
  into->latency_ms.insert(into->latency_ms.end(), from.latency_ms.begin(),
                          from.latency_ms.end());
  into->lag_ms.insert(into->lag_ms.end(), from.lag_ms.begin(),
                      from.lag_ms.end());
  into->done_s.insert(into->done_s.end(), from.done_s.begin(),
                      from.done_s.end());
  into->completed += from.completed;
  into->failed += from.failed;
  into->seconds += from.seconds;
}

}  // namespace

RoundsResult RunRounds(double rate, double seconds, double open_share,
                       int rounds, int callers, const LoadOp& op) {
  RoundsResult out;
  const double open_s = seconds * open_share / rounds;
  const double closed_s = seconds * (1.0 - open_share) / rounds;
  for (int r = 0; r < rounds; ++r) {
    Append(RunOpenLoop(rate, open_s, callers, op), &out.open);
    LoadSamples closed = RunClosedLoop(closed_s, callers, op);
    for (double w : WindowRates(closed, 1.0)) out.closed_rates.push_back(w);
    Append(closed, &out.closed);
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return NearestRank(values, 0.5);
}

}  // namespace perfbench
