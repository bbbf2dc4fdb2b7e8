#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "study/backend.hpp"
#include "study/scenario.hpp"
#include "workloads.hpp"

/// \file oneshot.hpp
/// One-shot runs of a scenario on a backend, each gated exactly against
/// the baseline reference, plus the per-layer report built from them.

namespace perf {

/// Counters one run reports; the deterministic ones must repeat exactly.
struct Counters {
  maxev::sim::KernelStats kernel;
  std::uint64_t relation_events = 0;
  std::uint64_t instances = 0;
  std::uint64_t arc_terms = 0;
  maxev::study::Model::GraphShape shape;
  std::optional<maxev::study::AdaptiveStats> adaptive;

  [[nodiscard]] bool same_work(const Counters& o) const;
};

/// One backend configuration under measurement.
struct Arm {
  std::string name;
  maxev::study::Backend backend;
  maxev::study::RunConfig config;
  std::vector<double> run_s;         ///< untraced timed reps
  std::vector<double> traced_run_s;  ///< reps timed with spans on
  std::optional<Counters> counters;  ///< of the warm-up rep

  /// Throughput of the fastest untraced rep (see README.md, "Method").
  [[nodiscard]] double tokens_per_s(std::uint64_t tokens) const;
};

/// Runs of one scenario. The first rep it runs becomes the reference, so
/// run the baseline arm first.
class OneShot {
 public:
  OneShot(const RunOptions& o, Tracer& tracer, maxev::study::Scenario s);

  /// Instantiate, run and gate one rep of \p arm; returns run() seconds.
  double rep(Arm& arm, Gate& gate);
  /// Seconds of one cold equivalent-backend instantiation (derive, fold,
  /// pad and compile included: no program cache).
  [[nodiscard]] double setup_once(const maxev::study::RunConfig& config);

  [[nodiscard]] const Reference& reference() const { return *ref_; }
  [[nodiscard]] const std::vector<double>& compare_s() const {
    return compare_s_;
  }

 private:
  const RunOptions& opts_;
  Tracer& tracer_;
  maxev::study::Scenario scenario_;
  std::optional<Reference> ref_;
  std::vector<double> compare_s_;
};

/// The baseline, equivalent and adaptive arms over \p config.
[[nodiscard]] std::vector<Arm> backend_arms(
    const maxev::study::RunConfig& config);

/// Time derive, fold+pad, freeze+compile and compile_abstraction from
/// outside, summed over \p keys; sets the tdg.* and core.* compile metrics.
void measure_compile_layers(const std::vector<maxev::core::CompiledKey>& keys,
                            std::size_t reps, Tracer& tracer, Metrics& m);

/// What one workload's runs measured, for report_runs().
struct RunSet {
  const Arm* baseline = nullptr;
  const Arm* equivalent = nullptr;
  const Arm* adaptive = nullptr;
  const OneShot* shot = nullptr;
  std::uint64_t tokens = 0;      ///< tokens reaching the sinks per rep
  std::uint64_t iterations = 0;  ///< iterations of one instance per rep
};

/// Set the throughput, sim, model, tdg, trace and study metrics.
void report_runs(const RunSet& r, Metrics& m);

}  // namespace perf
