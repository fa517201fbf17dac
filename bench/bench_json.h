#ifndef WALRUS_BENCH_BENCH_JSON_H_
#define WALRUS_BENCH_BENCH_JSON_H_

// Machine-readable benchmark reports: each experiment binary that opts in
// writes BENCH_<name>.json next to its stdout tables so CI can archive the
// numbers and trend them across commits. Header-only on purpose — bench
// binaries link the core libraries but have no bench library of their own.
//
// Layout:
//   { "name": "...", "params": {...}, "rows": [ {...}, ... ] }
// where params hold the workload knobs and each row is one measured
// configuration (one printed table line).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace walrus {
namespace bench {

/// Integer workload knob read from the environment variable `name`;
/// `fallback` when it is unset.
inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

/// Flat JSON object rendered as insertion-ordered key/value pairs.
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, Quote(value));
    return *this;
  }
  JsonObject& Set(const std::string& key, const char* value) {
    return Set(key, std::string(value));
  }
  JsonObject& Set(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    fields_.emplace_back(key, buffer);
    return *this;
  }
  JsonObject& Set(const std::string& key, int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonObject& Set(const std::string& key, int value) {
    return Set(key, static_cast<int64_t>(value));
  }

  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += Quote(fields_[i].first) + ":" + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  static std::string Quote(const std::string& raw) {
    std::string out = "\"";
    for (char c : raw) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
    return out;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// One benchmark's report; destructor-less, call WriteFile() at the end of
/// main after all rows are recorded.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Workload knobs (dataset size, iteration counts, ...).
  JsonObject& params() { return params_; }

  /// Appends and returns one measured configuration.
  JsonObject& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Writes BENCH_<name>.json into `dir` (default: current directory, or
  /// $WALRUS_BENCH_JSON_DIR when set). Returns the path, empty on failure.
  std::string WriteFile(std::string dir = "") const {
    if (dir.empty()) {
      const char* env = std::getenv("WALRUS_BENCH_JSON_DIR");
      dir = env != nullptr ? env : ".";
    }
    std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out.good()) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
      return "";
    }
    out << "{\"name\":\"" << name_ << "\",\"params\":" << params_.Render()
        << ",\"rows\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out << ",";
      out << rows_[i].Render();
    }
    out << "]}\n";
    std::printf("# wrote %s\n", path.c_str());
    return path;
  }

 private:
  std::string name_;
  JsonObject params_;
  std::vector<JsonObject> rows_;
};

}  // namespace bench
}  // namespace walrus

#endif  // WALRUS_BENCH_BENCH_JSON_H_
