#include "harness.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/random.h"
#include "image/dataset.h"

namespace perfbench {

namespace fs = std::filesystem;

int NumProcs() {
  long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n < 1 ? 1 : static_cast<int>(n);
}

double ResidentMiB() {
  // Hand freed heap pages back first, so the figure counts live memory.
  ::malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Runs fn(i) for i in [0, n) on every processor, statically strided.
template <typename Fn>
void ParallelFor(int n, Fn fn) {
  int workers = std::max(1, std::min(NumProcs(), n));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (int i = w; i < n; i += workers) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

std::vector<walrus::ImageF> GenerateScenes(uint64_t seed, uint64_t first_id,
                                           int count) {
  walrus::DatasetParams params;  // 128x128, the generator's defaults
  std::vector<walrus::ImageF> images(static_cast<size_t>(count));
  ParallelFor(count, [&](int i) {
    uint64_t id = first_id + static_cast<uint64_t>(i);
    walrus::Rng rng(SplitMix64(SplitMix64(seed) ^ id), id);
    auto label = static_cast<walrus::ObjectClass>(id % walrus::kNumObjectClasses);
    images[static_cast<size_t>(i)] =
        walrus::GenerateScene(static_cast<int>(id % 1'000'000), label, params,
                              &rng)
            .image;
  });
  return images;
}

walrus::WalrusParams Table1Params() {
  walrus::WalrusParams params;  // YCC, 64x64 windows, s = 2, eps_c = 0.05
  params.slide_step = 8;
  return params;
}

walrus::Result<walrus::WalrusIndex> BuildIndex(
    const walrus::WalrusParams& params,
    const std::vector<walrus::ImageF>& images) {
  walrus::WalrusIndex index(params);
  std::vector<walrus::WalrusIndex::PendingImage> batch;
  batch.reserve(images.size());
  for (size_t i = 0; i < images.size(); ++i) {
    batch.push_back({i, "scene", images[i]});
  }
  walrus::Status status = index.AddImages(std::move(batch), NumProcs());
  if (!status.ok()) return status;
  return index;
}

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

LatencySummary Summarize(const std::vector<double>& samples, double want_q) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.p50 = NearestRank(sorted, 0.5);

  constexpr size_t kChunk = 1000;
  s.chunks = std::max<size_t>(1, samples.size() / kChunk);
  if (s.chunks % 2 == 0) --s.chunks;  // an odd count has a true median
  const double per_chunk = static_cast<double>(samples.size() / s.chunks);
  // At least ten samples must lie beyond the reported tail quantile.
  double supported = std::floor((1.0 - 10.0 / per_chunk) * 1000.0) / 1000.0;
  s.tail_q = std::max(0.5, std::min(want_q, supported));
  std::vector<double> tails;
  for (size_t c = 0; c < s.chunks; ++c) {
    std::vector<double> chunk(
        samples.begin() + static_cast<long>(c * samples.size() / s.chunks),
        samples.begin() +
            static_cast<long>((c + 1) * samples.size() / s.chunks));
    std::sort(chunk.begin(), chunk.end());
    tails.push_back(NearestRank(chunk, s.tail_q));
  }
  std::sort(tails.begin(), tails.end());
  s.tail = NearestRank(tails, 0.5);
  return s;
}

void RankingDigest::Mix(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

void RankingDigest::Add(const std::vector<walrus::QueryMatch>& ranking) {
  Mix(ranking.size());
  for (const walrus::QueryMatch& m : ranking) {
    uint64_t bits = 0;
    std::memcpy(&bits, &m.similarity, sizeof(bits));
    Mix(m.image_id);
    Mix(bits);
  }
}

std::string RankingDigest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

bool SameRanking(const std::vector<walrus::QueryMatch>& a,
                 const std::vector<walrus::QueryMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].image_id != b[i].image_id) return false;
    if (std::memcmp(&a[i].similarity, &b[i].similarity, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void SpanLog::Merge(Buffer* buffer) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Span& span : buffer->spans) spans_.push_back(std::move(span));
  buffer->spans.clear();
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  Clock::time_point base = spans_.empty() ? Clock::time_point() : spans_[0].start;
  for (const Span& s : spans_) base = std::min(base, s.start);
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"op\":%llu,\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"dur_us\":%.3f",
                  static_cast<unsigned long long>(s.op),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.name,
                  std::chrono::duration<double, std::micro>(s.start - base)
                      .count(),
                  s.Micros());
    out << line;
    for (const auto& [name, value] : s.counts) {
      std::snprintf(line, sizeof(line), ",\"%s\":%.17g", name, value);
      out << line;
    }
    out << "}\n";
  }
  return static_cast<bool>(out);
}

SpanScope::SpanScope(SpanLog* log, SpanLog::Buffer* buffer, uint64_t op,
                     uint64_t parent, const char* name)
    : buffer_(log != nullptr && log->enabled() ? buffer : nullptr) {
  if (buffer_ == nullptr) return;
  span_.op = op;
  span_.id = log->NewId();
  span_.parent = parent;
  span_.name = name;
  span_.start = Clock::now();
}

SpanScope::~SpanScope() {
  if (buffer_ == nullptr) return;
  span_.end = Clock::now();
  buffer_->spans.push_back(std::move(span_));
}

double SpanTotals::MeanCount(const std::string& name) const {
  return spans == 0 ? 0.0 : SumCount(name) / static_cast<double>(spans);
}

double SpanTotals::SumCount(const std::string& name) const {
  auto it = counts.find(name);
  return it == counts.end() ? 0.0 : it->second;
}

std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<Span>& spans) {
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    SpanTotals& t = totals[s.name];
    ++t.spans;
    t.micros += s.Micros();
    for (const auto& [name, value] : s.counts) t.counts[name] += value;
  }
  return totals;
}

void RunResult::Fail(const std::string& why) {
  ++failed;
  if (problems.size() < 20) problems.push_back(why);
}

void CheckDigest(const Args& args, const std::string& digest,
                 RunResult* result) {
  result->Note("reference ranking digest (seed " + std::to_string(args.seed) +
               "): " + digest);
  if (args.seed != kDefaultSeed) return;
  std::ifstream in(args.digests_path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string key = "\"" + args.workload + "\": \"";
  size_t at = text.str().find(key);
  if (at == std::string::npos) {
    result->correct = false;
    result->problems.push_back("no checked-in digest for " + args.workload +
                               " in " + args.digests_path);
    return;
  }
  std::string expected = text.str().substr(at + key.size(), 16);
  if (expected != digest) {
    result->correct = false;
    result->problems.push_back("reference ranking digest " + digest +
                               " differs from the checked-in " + expected);
  } else {
    result->Note("reference ranking digest matches the checked-in value");
  }
}

uint64_t DirBytes(const std::string& dir, const std::string& prefix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().filename().string().rfind(prefix, 0) != 0) continue;
    total += entry.file_size(ec);
  }
  return total;
}

bool FreshDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  return fs::create_directories(dir, ec);
}

bool EnsureDir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  return fs::is_directory(dir, ec);
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace perfbench
