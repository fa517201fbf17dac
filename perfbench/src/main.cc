// walrus_perfbench: one run of one workload of the end-to-end benchmark.
//
//   walrus_perfbench --workload wire_table1|paged_scale|live_ingest
//                    --seed N --seconds S --trace 0|1
//                    [--out-dir DIR] [--digests FILE]
//
// Prints human-readable report lines, then, as the last line of standard
// output, one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around every layer call, writes them to
// DIR/<workload>-seed<N>.spans.jsonl and reports the per-layer metrics.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/simd.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

void ReportSetup(const std::vector<double>& setup_seconds, RunResult* result) {
  std::string line = "setup runs (s):";
  for (double s : setup_seconds) line += " " + std::to_string(s);
  result->Note(line);
  result->Metric("setup_s", Median(setup_seconds), "s");
}

void FinishTrace(const Args& args, SpanLog* log, RunResult* result) {
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.jsonl";
  if (!log->WriteJsonLines(path)) {
    result->problems.push_back("cannot write " + path);
    result->correct = false;
  }
  result->Note("spans: " + std::to_string(log->spans().size()) + " in " +
               path);
  ReportQueryLayers(log->spans(), result);
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "walrus_perfbench: %s\nusage: walrus_perfbench --workload "
               "wire_table1|paged_scale|live_ingest --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--digests FILE]\n",
               why);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value");
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, nullptr);
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      args.out_dir = value;
    } else if (std::strcmp(flag, "--digests") == 0) {
      args.digests_path = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_seed || !have_seconds || !(args.seconds > 0.0)) {
    return Usage("--seed and a positive --seconds are required");
  }
  RunResult (*run)(const Args&) = nullptr;
  if (args.workload == "wire_table1") run = RunWireTable1;
  if (args.workload == "paged_scale") run = RunPagedScale;
  if (args.workload == "live_ingest") run = RunLiveIngest;
  if (run == nullptr) return Usage("unknown workload");
  if (!EnsureDir(args.out_dir)) return Usage("cannot create --out-dir");

  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d nproc=%d isa=%s "
              "build=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, NumProcs(),
              walrus::simd::IsaName(walrus::simd::MaxSupportedIsa()),
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  RunResult result = run(args);
  const bool correct =
      result.correct && result.failed == 0 && result.attempted > 0;

  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::printf("problem: %s\n", problem.c_str());
  }
  result.Figure("failed_ops_ratio",
                result.attempted == 0
                    ? 1.0
                    : static_cast<double>(result.failed) /
                          static_cast<double>(result.attempted),
                "ratio");
  for (const Measure& m : result.figures) {
    std::printf("figure %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const std::vector<Measure>& reported =
      args.trace ? result.layers : result.metrics;
  const std::vector<Measure>& other =
      args.trace ? result.metrics : result.layers;
  for (const Measure& m : other) {
    std::printf("%s %-28s %14.4f %s\n", args.trace ? "traced" : "layer",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Measure& m : reported) {
    std::printf("metric %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " +
            JsonNumber(reported[i].value) + ", \"unit\": \"" +
            reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
