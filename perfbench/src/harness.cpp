#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/json.hpp"

#ifndef MAXEV_PERF_BUILD_TYPE
#define MAXEV_PERF_BUILD_TYPE "unknown"
#endif

namespace perf {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

std::uint64_t SeedRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = Value{value, unit};
}

// ------------------------------------------------------------------ Tracer

Tracer::Tracer(std::string workload)
    : workload_(std::move(workload)), origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Span::Span(Tracer* t, const char* name) : tracer_(t) {
  if (tracer_ == nullptr) return;
  index_ = tracer_->records_.size();
  const std::int64_t parent =
      tracer_->open_.empty() ? -1
                             : static_cast<std::int64_t>(tracer_->open_.back());
  tracer_->records_.push_back({name, tracer_->now_ns(), -1, parent});
  tracer_->open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->records_[index_].end_ns = tracer_->now_ns();
  tracer_->open_.pop_back();
}

std::string Tracer::layer_table() const {
  struct Row {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (const Record& r : records_) {
    Row& row = rows[r.name];
    ++row.count;
    row.total_ns += r.end_ns - r.start_ns;
    if (r.parent >= 0) {
      const Record& p = records_[static_cast<std::size_t>(r.parent)];
      rows[p.name].child_ns += r.end_ns - r.start_ns;
    }
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %8s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  out << line;
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof line, "%-28s %8llu %12.3f %12.3f\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  static_cast<double>(row.total_ns) / 1e6,
                  static_cast<double>(row.total_ns - row.child_ns) / 1e6);
    out << line;
  }
  return out.str();
}

void Tracer::write_chrome(const std::string& path) const {
  maxev::JsonWriter w;
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (const Record& r : records_) {
    w.begin_object();
    w.field("name", r.name);
    w.field("cat", workload_);
    w.field("ph", "X");
    w.field("ts", static_cast<double>(r.start_ns) / 1e3);
    w.field("dur", static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    w.field("pid", std::int64_t{1});
    w.field("tid", std::int64_t{1});
    w.key("args").begin_object();
    w.field("workload", workload_);
    w.field("parent",
            r.parent < 0 ? std::string()
                         : std::string(
                               records_[static_cast<std::size_t>(r.parent)].name));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.write_file(path);
}

// -------------------------------------------------------------------- gate

Reference make_reference(const maxev::trace::InstantTraceSet& instants,
                         const maxev::trace::UsageTraceSet& usage,
                         bool perturb) {
  Reference ref;
  ref.usage = usage;
  ref.usage.sort_all();
  bool perturbed = !perturb;
  for (const auto& [name, series] : instants.all()) {
    maxev::trace::InstantSeries& out = ref.instants.series(name);
    out.reserve(series.size());
    const std::vector<maxev::TimePoint>& v = series.values();
    for (std::size_t k = 0; k < v.size(); ++k) {
      const bool bump = !perturbed && k + 1 == v.size();
      out.push(bump ? v[k] + maxev::Duration::ps(1) : v[k]);
      if (bump) perturbed = true;
    }
  }
  return ref;
}

std::uint64_t count_mismatches(const Reference& ref,
                               const maxev::trace::InstantTraceSet& instants,
                               const maxev::trace::UsageTraceSet& usage) {
  maxev::trace::UsageTraceSet sorted = usage;
  sorted.sort_all();
  const bool instants_differ =
      maxev::trace::compare_instants(ref.instants, instants).has_value();
  const bool usage_differs =
      maxev::trace::compare_usage(ref.usage, sorted).has_value();
  if (!instants_differ && !usage_differs) return 0;

  std::uint64_t n = 0;
  for (const auto& [name, series] : ref.instants.all()) {
    const maxev::trace::InstantSeries* got = instants.find(name);
    if (got == nullptr || got->values() != series.values()) ++n;
  }
  for (const auto& [name, trace] : ref.usage.all()) {
    const maxev::trace::UsageTrace* got = sorted.find(name);
    if (got == nullptr || got->intervals() != trace.intervals()) ++n;
  }
  return std::max<std::uint64_t>(n, 1);
}

void Gate::record(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (reasons.size() < 8) reasons.push_back(why);
}

// -------------------------------------------------------------------- host

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

/// A fixed dependent multiply-add chain: its ns/op tracks the host's
/// scalar speed, so results from different hosts can be normalized.
double calibration_ns_per_op() {
  constexpr std::uint64_t kOps = 20'000'000;
  std::vector<double> samples;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t x = 0x2545F4914F6CDD1DULL + static_cast<std::uint64_t>(rep);
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i)
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    samples.push_back(since(t0) / static_cast<double>(kOps) * 1e9);
    sink = sink + x;
  }
  return median(samples);
}

}  // namespace

Host fingerprint(const std::string& source_id) {
  Host h;
  h.cpu = cpu_model();
  h.threads = std::thread::hardware_concurrency();
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = MAXEV_PERF_BUILD_TYPE;
  h.source_id = source_id;
  h.calibration_ns_per_op = calibration_ns_per_op();
  return h;
}

}  // namespace perf
