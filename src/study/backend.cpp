#include "study/backend.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/equivalent_model.hpp"
#include "core/lt_runner.hpp"
#include "study/adaptive.hpp"
#include "util/error.hpp"

namespace maxev::study {

namespace {

void apply_overhead(sim::Kernel& kernel, double ns) {
  if (ns > 0) {
    kernel.set_synthetic_event_overhead(
        std::chrono::nanoseconds(static_cast<std::int64_t>(ns)));
  }
}

void apply_guards(sim::Kernel& kernel, const RunConfig& rc) {
  sim::RunGuards guards;
  guards.max_events = rc.max_events;
  if (rc.deadline_ms > 0.0) {
    guards.deadline = std::chrono::nanoseconds(
        static_cast<std::int64_t>(rc.deadline_ms * 1e6));
  }
  guards.cancel = rc.cancel;
  if (guards.any()) kernel.set_run_guards(guards);
}

class BaselineModel final : public Model {
 public:
  BaselineModel(const Scenario& s, const RunConfig& rc)
      : rt_(s.desc_ptr(), {}, rc.observe) {
    apply_overhead(rt_.kernel(), rc.event_overhead_ns);
    apply_guards(rt_.kernel(), rc);
  }

  Outcome run(std::optional<TimePoint> until) override { return rt_.run(until); }
  const trace::InstantTraceSet& instants() const override {
    return rt_.instants();
  }
  const trace::UsageTraceSet& usage() const override { return rt_.usage(); }
  const sim::KernelStats& kernel_stats() const override {
    return rt_.kernel_stats();
  }
  std::uint64_t relation_events() const override {
    return rt_.relation_events();
  }
  TimePoint end_time() const override { return rt_.end_time(); }
  sim::Kernel& kernel() override { return rt_.kernel(); }

 private:
  model::ModelRuntime rt_;
};

bool batched(const Scenario& s, const RunConfig& rc) {
  return rc.batch_composed && s.partially_batchable();
}

/// The inline engine's share: the scenario's group, restricted to the
/// instances in no sub-batch when batched (an empty group already means
/// "everything outside the sub-batches").
std::vector<bool> inline_group_of(const Scenario& s, const RunConfig& rc) {
  std::vector<bool> group = s.options().group;
  if (group.empty() || !batched(s, rc)) return group;
  for (const BatchGroup& bg : s.batch_groups())
    for (const std::size_t m : bg.members) {
      const Instance& inst = s.instances()[m];
      std::fill(group.begin() + static_cast<std::ptrdiff_t>(inst.fn_begin),
                group.begin() + static_cast<std::ptrdiff_t>(inst.fn_end),
                false);
    }
  return group;
}

/// The equivalent model. A composed scenario with equal-structure
/// sub-batches (RunConfig::batch_composed) evaluates each on one compiled
/// program + shared frame arena, and the instances in no sub-batch on the
/// inline engine over the merged description, all in one kernel
/// (docs/DESIGN.md §9–§10).
///
/// The adaptive backend builds this same model for a scenario that can
/// never fast-forward, with the reason as its one refusal in \p adaptive.
class EquivalentBackendModel final : public Model {
 public:
  EquivalentBackendModel(const Scenario& s, const RunConfig& rc,
                         std::optional<AdaptiveStats> adaptive = std::nullopt)
      : eq_(s.desc_ptr(), inline_group_of(s, rc), equivalent_options(s, rc)),
        adaptive_(std::move(adaptive)) {
    apply_overhead(eq_.runtime().kernel(), rc.event_overhead_ns);
    apply_guards(eq_.runtime().kernel(), rc);
  }

  Outcome run(std::optional<TimePoint> until) override { return eq_.run(until); }
  const trace::InstantTraceSet& instants() const override {
    return eq_.instants();
  }
  const trace::UsageTraceSet& usage() const override { return eq_.usage(); }
  const sim::KernelStats& kernel_stats() const override {
    return eq_.kernel_stats();
  }
  std::uint64_t relation_events() const override {
    return eq_.relation_events();
  }
  TimePoint end_time() const override { return eq_.end_time(); }
  sim::Kernel& kernel() override { return eq_.runtime().kernel(); }
  std::uint64_t instances_computed() const override {
    return eq_.instances_computed();
  }
  std::uint64_t arc_terms_evaluated() const override {
    return eq_.arc_terms_evaluated();
  }
  /// The *compiled programs'* shape — each sub-batch's base graph plus the
  /// inline graph, not the N-fold merged graph an unbatched run builds.
  GraphShape graph_shape() const override {
    const core::EquivalentModel::CompiledShape shape = eq_.compiled_shape();
    return {shape.nodes, shape.paper_nodes, shape.arcs};
  }
  std::optional<AdaptiveStats> adaptive_stats() const override {
    return adaptive_;
  }

 private:
  core::EquivalentModel eq_;
  std::optional<AdaptiveStats> adaptive_;
};

class LooselyTimedBackendModel final : public Model {
 public:
  LooselyTimedBackendModel(const Scenario& s, const RunConfig& rc,
                           Duration quantum)
      : lt_(s.desc_ptr(), quantum, rc.observe) {
    apply_overhead(lt_.kernel(), rc.event_overhead_ns);
    apply_guards(lt_.kernel(), rc);
  }

  Outcome run(std::optional<TimePoint> until) override { return lt_.run(until); }
  const trace::InstantTraceSet& instants() const override {
    return lt_.instants();
  }
  const trace::UsageTraceSet& usage() const override { return empty_usage_; }
  bool records_usage() const override { return false; }
  const sim::KernelStats& kernel_stats() const override {
    return lt_.kernel_stats();
  }
  std::uint64_t relation_events() const override { return 0; }
  TimePoint end_time() const override { return lt_.end_time(); }
  sim::Kernel& kernel() override { return lt_.kernel(); }

 private:
  core::LooselyTimedModel lt_;
  trace::UsageTraceSet empty_usage_;  // LT records no resource usage
};

}  // namespace

core::EquivalentModel::Options equivalent_options(const Scenario& s,
                                                  const RunConfig& rc) {
  core::EquivalentModel::Options opts;
  opts.fold = s.options().fold;
  // pad_nodes is per instance (ScenarioOptions): each sub-batch pads its
  // base graph once (evaluated per member) and the inline graph carries
  // one padding block per instance it spans, so a composition runs the
  // same padded work batched or not.
  opts.pad_nodes = s.options().pad_nodes;
  opts.inline_instances = s.composed() ? s.instances().size() : 1;
  opts.observe = rc.observe;
  opts.expected_iterations = s.options().expected_iterations;
  opts.compiled = rc.compiled;
  opts.threads = rc.threads;
  if (!batched(s, rc)) return opts;

  // Equal-structure sub-batches, translated from the scenario's grouping
  // (Scenario::batch_groups()) into merged-table spans.
  for (const BatchGroup& bg : s.batch_groups()) {
    core::EquivalentModel::GroupSpec spec;
    spec.base = bg.base;
    spec.group = bg.group;
    for (const std::size_t m : bg.members) {
      const Instance& inst = s.instances()[m];
      spec.names.push_back(inst.name);
      spec.spans.push_back({inst.fn_begin, inst.ch_begin, inst.res_begin,
                            inst.src_begin, inst.sink_begin});
    }
    opts.inline_instances -= bg.members.size();
    opts.groups.push_back(std::move(spec));
  }
  return opts;
}

Backend Backend::baseline() {
  return Backend(Kind::kBaseline, "baseline", Duration::ps(0));
}

Backend Backend::equivalent() {
  return Backend(Kind::kEquivalent, "equivalent", Duration::ps(0));
}

Backend Backend::loosely_timed(Duration quantum) {
  return Backend(Kind::kLooselyTimed, "lt(" + quantum.to_string() + ")",
                 quantum);
}

Backend Backend::adaptive(AdaptiveOptions opts) {
  Backend b(Kind::kAdaptive, "adaptive", Duration::ps(0));
  b.adaptive_ = opts;
  return b;
}

std::unique_ptr<Model> Backend::instantiate(const Scenario& scenario,
                                            const RunConfig& config) const {
  if (!scenario.valid())
    throw DescriptionError("Backend::instantiate: invalid scenario");
  switch (kind_) {
    case Kind::kBaseline:
      return std::make_unique<BaselineModel>(scenario, config);
    case Kind::kEquivalent:
      return std::make_unique<EquivalentBackendModel>(scenario, config);
    case Kind::kLooselyTimed:
      return std::make_unique<LooselyTimedBackendModel>(scenario, config,
                                                        quantum_);
    case Kind::kAdaptive:
      // Eligibility is decided here, once (docs/DESIGN.md §15): a scenario
      // that can never fast-forward runs as the equivalent backend's model
      // (sub-batches, drain threads, no detector or hook) and reports the
      // reason as its one refusal. An eligible one gets the detector and
      // certifier on the merged graph.
      if (std::optional<std::string> why = fastforward_refusal(scenario)) {
        AdaptiveStats stats;
        stats.refusals = 1;
        stats.last_refusal = std::move(*why);
        return std::make_unique<EquivalentBackendModel>(scenario, config,
                                                        std::move(stats));
      }
      return std::make_unique<AdaptiveModel>(scenario, config, adaptive_);
  }
  throw Error("Backend::instantiate: unreachable");
}

}  // namespace maxev::study
