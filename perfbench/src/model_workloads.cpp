// The three model-run workloads: lte-varying, lte-steady and
// carriers-batch. Each builds its scenario from the seed, measures cold
// set-up, then times the backends interleaved rep by rep, gating every run
// against the baseline reference.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "lte/receiver.hpp"
#include "oneshot.hpp"

namespace perf {
namespace {

using namespace maxev;

struct Case {
  study::Scenario scenario;
  study::RunConfig config;
  std::uint64_t tokens = 0;      ///< symbols x instances reaching the sinks
  std::uint64_t iterations = 0;  ///< iterations of one instance
  std::size_t pad = 0;           ///< pass-through pad nodes per instance
};

lte::FrameParams random_frame(SeedRng& rng) {
  static constexpr int kPrb[] = {25, 50, 75, 100};
  static constexpr lte::Modulation kMod[] = {
      lte::Modulation::kQpsk, lte::Modulation::kQam16, lte::Modulation::kQam64};
  lte::FrameParams f;
  f.n_prb = kPrb[rng.below(4)];
  f.modulation = kMod[rng.below(3)];
  return f;
}

/// A per-subframe PRB/modulation table drawn from \p rng, served as the
/// receiver's frame schedule.
lte::FrameSchedule table_schedule(SeedRng& rng, std::uint64_t symbols) {
  const std::uint64_t subframes =
      symbols / static_cast<std::uint64_t>(lte::kSymbolsPerSubframe) + 1;
  auto table = std::make_shared<std::vector<lte::FrameParams>>();
  for (std::uint64_t i = 0; i < subframes; ++i)
    table->push_back(random_frame(rng));
  return [table](std::uint64_t sf) { return (*table)[sf % table->size()]; };
}

// Sizes: 20k symbols is the paper's Sec. V run. lte-steady's 150 pad nodes
// make arc terms outnumber kernel events (the engine-bound regime of
// Fig. 5); carriers-batch keeps 64 receivers x 600 symbols near the other
// workloads' per-rep time.
Case lte_varying(const RunOptions& o) {
  SeedRng rng(o.seed);
  lte::ReceiverConfig cfg;
  cfg.symbols = o.smoke ? 700 : 20000;
  cfg.schedule = table_schedule(rng, cfg.symbols);
  Case c;
  c.scenario =
      study::Scenario("lte-varying", model::share(lte::make_receiver(cfg)));
  c.tokens = c.iterations = cfg.symbols;
  return c;
}

Case lte_steady(const RunOptions& o) {
  // The Sec. V frame (50 PRB, 64-QAM); the seed draws only the code rate.
  // Drawing PRB/modulation too would mix frame classes whose adaptive runs
  // differ in work (95, 119 or 191 kernel events, up to 25% in time).
  SeedRng rng(o.seed);
  lte::ReceiverConfig cfg;
  cfg.symbols = o.smoke ? 700 : 20000;
  lte::FrameParams frame;
  frame.n_prb = 50;
  frame.modulation = lte::Modulation::kQam64;
  frame.code_rate = 0.70 + 0.10 * static_cast<double>(rng.below(1001)) / 1000.0;
  cfg.fixed_frame = frame;
  Case c;
  c.pad = o.smoke ? 20 : 150;
  c.scenario =
      study::Scenario("lte-steady", model::share(lte::make_receiver(cfg)));
  c.scenario.with_pad_nodes(c.pad);
  c.tokens = c.iterations = cfg.symbols;
  return c;
}

Case carriers_batch(const RunOptions& o) {
  SeedRng rng(o.seed);
  const std::size_t per_group = o.smoke ? 2 : 32;
  const std::uint64_t symbols = o.smoke ? 140 : 600;
  Case c;
  c.pad = o.smoke ? 4 : 20;
  std::vector<study::Scenario> parts;
  for (int g = 0; g < 2; ++g) {
    lte::ReceiverConfig cfg;
    cfg.symbols = symbols;
    cfg.schedule = table_schedule(rng, symbols);
    const model::DescPtr desc = model::share(lte::make_receiver(cfg));
    for (std::size_t i = 0; i < per_group; ++i) {
      study::Scenario s("g" + std::to_string(g) + "rx" + std::to_string(i),
                        desc);
      s.with_pad_nodes(c.pad);
      parts.push_back(std::move(s));
    }
  }
  c.scenario = study::compose("carriers", parts);
  c.config.threads = 2;
  c.tokens = symbols * parts.size();
  c.iterations = symbols;
  return c;
}

}  // namespace

void run_model_workload(const RunOptions& o, Tracer& tracer, Outcome& out) {
  const Case c = o.workload == "lte-varying"  ? lte_varying(o)
                 : o.workload == "lte-steady" ? lte_steady(o)
                                              : carriers_batch(o);
  Metrics& m = out.metrics;
  const Clock::time_point start = Clock::now();
  OneShot shot(o, tracer, c.scenario);
  const bool batched = c.scenario.partially_batchable();

  std::vector<Arm> arms = backend_arms(c.config);
  if (o.trace && batched) {
    // The traced run also prices the batched and threaded paths.
    study::RunConfig isolated = c.config;
    isolated.batch_composed = false;
    arms.push_back(
        {"isolated", study::Backend::equivalent(), isolated, {}, {}, {}});
    study::RunConfig serial = c.config;
    serial.threads = 1;
    arms.push_back(
        {"serial_drain", study::Backend::equivalent(), serial, {}, {}, {}});
  }

  // Cold set-up: one untimed instantiation pays the one-time lazy
  // initialisation, then one sample per round, taken after the previous
  // round's runs have evicted the caches, as a user's single set-up finds
  // them (back-to-back set-ups warm each other up: 240, 65, 48, 42, 39 us
  // on lte-varying). Reported by the fastest sample, like the throughput.
  std::vector<double> setup;
  (void)shot.setup_once(c.config);

  // Untimed warm-up rep per arm (lazy set-up is not billed to the
  // throughput); the baseline's, run first, becomes the reference.
  for (Arm& a : arms) (void)shot.rep(a, out.gate);
  if (o.trace) {
    std::vector<core::CompiledKey> keys;
    if (batched) {
      for (const study::BatchGroup& g : c.scenario.batch_groups())
        keys.push_back(core::CompiledKey::make(g.base, g.group, true, c.pad));
    } else {
      keys.push_back(
          core::CompiledKey::make(c.scenario.desc_ptr(), {}, true, c.pad));
    }
    measure_compile_layers(keys, o.smoke ? 3 : 7, tracer, m);
  }

  // Timed reps, interleaved: one rep of every arm per round, the starting
  // arm rotated so no arm always runs right after the same neighbour. In a
  // traced run odd rounds record spans and even rounds do not, so the
  // tracing overhead is measured on interleaved reps.
  const std::size_t min_rounds = o.smoke ? 2 : 5;
  std::size_t round = 0;
  for (; round < min_rounds || since(start) < o.seconds; ++round) {
    const bool traced = o.trace && round % 2 == 1;
    tracer.set_enabled(traced);
    setup.push_back(shot.setup_once(c.config));
    for (std::size_t i = 0; i < arms.size(); ++i) {
      Arm& a = arms[(round + i) % arms.size()];
      const double s = shot.rep(a, out.gate);
      (traced ? a.traced_run_s : a.run_s).push_back(s);
    }
  }
  tracer.set_enabled(o.trace);

  m.set("setup_s", fastest(setup), "s");
  report_runs({&arms[0], &arms[1], &arms[2], &shot, c.tokens, c.iterations},
              m);
  if (o.trace) {
    const Arm& e = arms[1];
    m.set("bench.tracing_overhead",
          fastest(e.traced_run_s) / fastest(e.run_s) - 1.0, "ratio");
  }

  const auto& groups = c.scenario.batch_groups();
  std::size_t lanes = 0;
  for (const study::BatchGroup& g : groups)
    lanes = std::max(lanes, g.members.size());
  m.set("core.batch.groups", static_cast<double>(groups.size()), "count");
  m.set("core.batch.lanes", static_cast<double>(lanes), "count");
  double isolated_tps = 0, serial_tps = 0;
  for (const Arm& a : arms) {
    if (a.name == "isolated") isolated_tps = a.tokens_per_s(c.tokens);
    if (a.name == "serial_drain") serial_tps = a.tokens_per_s(c.tokens);
  }
  m.set("core.batch.isolated_tokens_per_s", isolated_tps, "1/s");
  m.set("core.batch.serial_drain_tokens_per_s", serial_tps, "1/s");
  set_bypassed_serve(m);

  out.summary = std::to_string(round) + " rounds of " +
                std::to_string(arms.size()) + " arms, " +
                std::to_string(arms[0].run_s.size()) +
                " untraced reps per arm, " + std::to_string(c.tokens) +
                " tokens per rep";
}

}  // namespace perf
