#include "oneshot.hpp"

#include <algorithm>

#include "tdg/derive.hpp"
#include "tdg/program.hpp"
#include "tdg/simplify.hpp"

namespace perf {

using namespace maxev;

bool Counters::same_work(const Counters& o) const {
  const auto ff = [](const std::optional<study::AdaptiveStats>& a) {
    return a ? a->extrapolated_iterations : 0;
  };
  return kernel.events_scheduled == o.kernel.events_scheduled &&
         relation_events == o.relation_events && instances == o.instances &&
         arc_terms == o.arc_terms && ff(adaptive) == ff(o.adaptive);
}

double Arm::tokens_per_s(std::uint64_t tokens) const {
  return run_s.empty() ? 0.0 : static_cast<double>(tokens) / fastest(run_s);
}

OneShot::OneShot(const RunOptions& o, Tracer& tracer, study::Scenario s)
    : opts_(o), tracer_(tracer), scenario_(std::move(s)) {}

double OneShot::rep(Arm& arm, Gate& gate) {
  std::unique_ptr<study::Model> model;
  {
    auto s = tracer_.span("study::Backend::instantiate");
    model = arm.backend.instantiate(scenario_, arm.config);
  }
  study::Outcome result;
  const Clock::time_point t0 = Clock::now();
  {
    auto s = tracer_.span("study::Model::run");
    result = model->run();
  }
  const double run_s = since(t0);

  Counters c;
  c.kernel = model->kernel_stats();
  c.relation_events = model->relation_events();
  c.instances = model->instances_computed();
  c.arc_terms = model->arc_terms_evaluated();
  c.shape = model->graph_shape();
  c.adaptive = model->adaptive_stats();

  if (!ref_) {
    ref_ = make_reference(model->instants(), model->usage(),
                          opts_.inject_mismatch);
  }
  std::uint64_t mismatches = 0;
  {
    auto s = tracer_.span("trace comparison");
    const Clock::time_point tc = Clock::now();
    mismatches = count_mismatches(*ref_, model->instants(), model->usage());
    compare_s_.push_back(since(tc));
  }
  gate.trace_mismatches += mismatches;
  const std::int64_t err = c.adaptive ? c.adaptive->max_error_ps : 0;
  gate.adaptive_max_error_ps = std::max(gate.adaptive_max_error_ps, err);

  std::string why;
  if (!result.completed)
    why = arm.name + ": incomplete run " + result.stall_report;
  else if (mismatches != 0)
    why = arm.name + ": " + std::to_string(mismatches) +
          " trace series differ from the baseline reference";
  else if (err != 0)
    why = arm.name + ": adaptive max_error_ps " + std::to_string(err);
  else if (arm.counters && !arm.counters->same_work(c))
    why = arm.name + ": counters changed between reps";
  gate.record(why.empty(), why);
  if (!arm.counters) arm.counters = c;
  return run_s;
}

double OneShot::setup_once(const study::RunConfig& config) {
  std::unique_ptr<study::Model> model;
  const Clock::time_point t0 = Clock::now();
  {
    auto span = tracer_.span("study::Backend::instantiate");
    model = study::Backend::equivalent().instantiate(scenario_, config);
  }
  return since(t0);
}

std::vector<Arm> backend_arms(const study::RunConfig& config) {
  std::vector<Arm> arms;
  arms.push_back({"baseline", study::Backend::baseline(), config, {}, {}, {}});
  arms.push_back(
      {"equivalent", study::Backend::equivalent(), config, {}, {}, {}});
  arms.push_back({"adaptive", study::Backend::adaptive(), config, {}, {}, {}});
  return arms;
}

void measure_compile_layers(const std::vector<core::CompiledKey>& keys,
                            std::size_t reps, Tracer& tracer, Metrics& m) {
  double derive = 0, fold_pad = 0, compile = 0, whole = 0;
  std::size_t opaque = 0;
  for (const core::CompiledKey& key : keys) {
    std::vector<double> d, f, c, w;
    for (std::size_t r = 0; r < reps; ++r) {
      Clock::time_point t0 = Clock::now();
      tdg::DerivedTdg derived;
      {
        auto s = tracer.span("tdg::derive_tdg");
        derived = tdg::derive_tdg(*key.desc, key.group);
      }
      d.push_back(since(t0));
      t0 = Clock::now();
      tdg::Graph g;
      {
        auto s = tracer.span("tdg::fold_pass_through+pad_graph");
        g = tdg::fold_pass_through(derived.graph);
        if (key.pad_nodes > 0) g = tdg::pad_graph(g, key.pad_nodes);
      }
      f.push_back(since(t0));
      t0 = Clock::now();
      {
        auto s = tracer.span("tdg::Program::compile");
        g.freeze();
        const tdg::Program p = tdg::Program::compile(g);
      }
      c.push_back(since(t0));
      t0 = Clock::now();
      core::CompiledPtr compiled;
      {
        auto s = tracer.span("core::compile_abstraction");
        compiled = core::compile_abstraction(key);
      }
      w.push_back(since(t0));
      if (r == 0) opaque += compiled->opaque_loads();
    }
    derive += median(d);
    fold_pad += median(f);
    compile += median(c);
    whole += median(w);
  }
  m.set("tdg.derive_s", derive, "s");
  m.set("tdg.fold_pad_s", fold_pad, "s");
  m.set("tdg.compile_s", compile, "s");
  m.set("core.compile_abstraction_s", whole, "s");
  m.set("tdg.opaque_loads", static_cast<double>(opaque), "count");
}

void report_runs(const RunSet& r, Metrics& m) {
  const Arm& b = *r.baseline;
  const Arm& e = *r.equivalent;
  const Arm& a = *r.adaptive;
  const double b_tps = b.tokens_per_s(r.tokens);
  const double e_tps = e.tokens_per_s(r.tokens);
  const double a_tps = a.tokens_per_s(r.tokens);
  m.set("baseline_tokens_per_s", b_tps, "1/s");
  m.set("equivalent_tokens_per_s", e_tps, "1/s");
  m.set("adaptive_tokens_per_s", a_tps, "1/s");
  // Paper rows, reported with their bases: both speed-ups are over the
  // baseline run; drag is equivalent over adaptive throughput.
  m.set("study.speedup", e_tps / b_tps, "ratio");
  m.set("study.adaptive_speedup", a_tps / b_tps, "ratio");
  m.set("study.adaptive.drag", e_tps / a_tps, "ratio");
  // Host contention during the run: typical over fastest equivalent rep.
  m.set("bench.interference", median(e.run_s) / fastest(e.run_s), "ratio");

  const Counters& bc = *b.counters;
  const Counters& ec = *e.counters;
  const Counters& ac = *a.counters;
  const auto count = [&m](const char* name, std::uint64_t v) {
    m.set(name, static_cast<double>(v), "count");
  };
  count("sim.kernel_events.baseline", bc.kernel.events_scheduled);
  count("sim.kernel_events.equivalent", ec.kernel.events_scheduled);
  count("sim.kernel_events.adaptive", ac.kernel.events_scheduled);
  count("sim.inline_resumes", ec.kernel.inline_resumes);
  count("sim.max_queue_depth", bc.kernel.max_queue_depth);
  m.set("sim.ns_per_event.baseline",
        fastest(b.run_s) * 1e9 /
            static_cast<double>(std::max<std::uint64_t>(
                bc.kernel.events_scheduled, 1)),
        "ns");
  count("model.relation_events.baseline", bc.relation_events);
  count("model.relation_events.equivalent", ec.relation_events);
  m.set("model.event_ratio",
        static_cast<double>(bc.relation_events) /
            static_cast<double>(std::max<std::uint64_t>(ec.relation_events, 1)),
        "ratio");
  count("tdg.graph_nodes", ec.shape.nodes);
  count("tdg.graph_arcs", ec.shape.arcs);
  count("tdg.instances_computed", ec.instances);
  count("tdg.arc_terms", ec.arc_terms);
  m.set("tdg.arc_terms_per_token",
        static_cast<double>(ec.arc_terms) / static_cast<double>(r.tokens),
        "count");
  m.set("tdg.ns_per_arc_term",
        fastest(e.run_s) * 1e9 /
            static_cast<double>(std::max<std::uint64_t>(ec.arc_terms, 1)),
        "ns");

  const Reference& ref = r.shot->reference();
  std::uint64_t intervals = 0;
  for (const auto& [name, t] : ref.usage.all()) intervals += t.size();
  count("trace.instant_records", ref.instants.total_instants());
  count("trace.usage_intervals", intervals);
  m.set("trace.compare_s", median(r.shot->compare_s()), "s");

  const study::AdaptiveStats st = ac.adaptive.value_or(study::AdaptiveStats{});
  count("study.adaptive.detected_period", st.detected_period);
  count("study.adaptive.detected_at", st.detected_at);
  count("study.adaptive.extrapolated_iterations", st.extrapolated_iterations);
  m.set("study.adaptive.ff_share",
        static_cast<double>(st.extrapolated_iterations) /
            static_cast<double>(r.iterations),
        "ratio");
  count("study.adaptive.refusals", st.refusals);
  count("study.adaptive.regime_resets", st.regime_resets);
}

}  // namespace perf
