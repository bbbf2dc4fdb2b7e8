#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/instants.hpp"
#include "trace/usage.hpp"

/// \file harness.hpp
/// Measurement machinery shared by the maxev_perf workloads: the clock and
/// order statistics, the named-metric sink, the in-memory span tracer, the
/// exact trace gate against the baseline reference, and the host
/// fingerprint stamped on every result.

namespace perf {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p t0.
[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median (mean of the two middle values for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);
/// Smallest value; 0 when empty.
[[nodiscard]] double fastest(const std::vector<double>& v);
/// Nearest-rank percentile, \p p in [0, 100]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Deterministic 64-bit generator (splitmix64): every workload input is a
/// function of the --seed argument and nothing else.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Command-line settings of one workload run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a short budget: exercises every path in seconds.
  bool smoke = false;
  /// Perturb the reference by one picosecond so every comparison must
  /// fail — proves the gate is live.
  bool inject_mismatch = false;
  std::string trace_out;
  std::string source_id = "unknown";
};

/// Named metrics with units, kept sorted by name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  [[nodiscard]] const std::map<std::string, Value>& all() const {
    return values_;
  }

 private:
  std::map<std::string, Value> values_;
};

/// Spans around the benchmark's calls into the library's public functions:
/// name, start, end and parent, kept in memory and written at exit as a
/// Chrome trace-event file (opens in Perfetto). Disabled spans cost one
/// branch.
class Tracer {
 public:
  explicit Tracer(std::string workload);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Span {
   public:
    Span(Tracer* t, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// Open a span that closes when the returned object is destroyed.
  [[nodiscard]] Span span(const char* name) {
    return Span(enabled_ ? this : nullptr, name);
  }
  void set_enabled(bool on) { enabled_ = on; }

  /// Per span name: count, total and self time (total minus the time its
  /// direct children cover), slowest total first.
  [[nodiscard]] std::string layer_table() const;
  /// Chrome trace-event JSON ("X" complete events, one process/thread).
  void write_chrome(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  ///< index into records_, -1 at the root
  };
  [[nodiscard]] std::int64_t now_ns() const;

  std::string workload_;
  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

/// The baseline backend's traces, held as the exactness reference. Usage
/// is kept sorted, as trace::compare_usage expects.
struct Reference {
  maxev::trace::InstantTraceSet instants;
  maxev::trace::UsageTraceSet usage;
};

/// Copy a baseline run's traces into a reference; with \p perturb the last
/// instant of the first series moves by one picosecond.
[[nodiscard]] Reference make_reference(
    const maxev::trace::InstantTraceSet& instants,
    const maxev::trace::UsageTraceSet& usage, bool perturb);

/// Instant series plus usage traces of \p ref that differ in \p instants /
/// \p usage (0 = identical). Runs the library's trace comparison first and
/// only counts series one by one when it reports a difference.
[[nodiscard]] std::uint64_t count_mismatches(
    const Reference& ref, const maxev::trace::InstantTraceSet& instants,
    const maxev::trace::UsageTraceSet& usage);

/// Attempted/failed operations and the correctness tallies of one run.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t trace_mismatches = 0;
  std::int64_t adaptive_max_error_ps = 0;
  std::vector<std::string> reasons;

  /// Record one operation; \p why is kept (first few only) when it failed.
  void record(bool ok, const std::string& why = {});
};

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// What a result needs to be compared with another: CPU model, hardware
/// threads, compiler, build type, source id and a fixed calibration loop.
struct Host {
  std::string cpu;
  unsigned threads = 0;
  std::string compiler;
  std::string build_type;
  std::string source_id;
  double calibration_ns_per_op = 0.0;
};
[[nodiscard]] Host fingerprint(const std::string& source_id);

}  // namespace perf
