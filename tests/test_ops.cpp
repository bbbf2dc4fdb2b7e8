#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "baseline_oracle.hpp"
#include "core/compiled.hpp"
#include "gen/didactic.hpp"
#include "gen/random_arch.hpp"
#include "lte/receiver.hpp"
#include "lte/workload.hpp"
#include "model/desc.hpp"
#include "model/load.hpp"
#include "model/shaping.hpp"
#include "serve/wire.hpp"
#include "study/study.hpp"
#include "tdg/ops.hpp"

/// The opcode layer (docs/DESIGN.md §14): factory-built load closures
/// compiled into enum-dispatched tables (tdg::ops). The property under test
/// is bit-identity: eval_load must reproduce the model/load.cpp functors
/// exactly per opcode kind on exhaustive input grids, and the batched
/// equivalent run must reproduce the event-driven baseline end to end
/// across the random-architecture differential sweep (drain threads
/// 1/2/8).

namespace maxev {
namespace {

using tdg::ops::Kind;

// ------------------------------------------------------- classification ----

TEST(OpsClassifyTest, FactoryLoadsClassifyConcretely) {
  EXPECT_EQ(tdg::ops::classify_load(model::constant_ops(7)),
            Kind::kRateConstant);
  EXPECT_EQ(tdg::ops::classify_load(model::linear_ops(100, 3)),
            Kind::kLinearOps);
  EXPECT_EQ(tdg::ops::classify_load(model::param_ops(5, 2.5, 2)),
            Kind::kParamOps);
  EXPECT_EQ(tdg::ops::classify_load(model::cyclic_ops({4, 5, 6})),
            Kind::kCyclicOps);
  EXPECT_EQ(tdg::ops::classify_load(model::AttrsPureFn{lte::ops_fft}),
            Kind::kAttrsPure);
}

TEST(OpsClassifyTest, HandWrittenLambdaIsOpaque) {
  const model::LoadFn f = [](const model::TokenAttrs& a, std::uint64_t) {
    return a.size * 3;
  };
  EXPECT_EQ(tdg::ops::classify_load(f), Kind::kOpaqueClosure);
}

TEST(OpsClassifyTest, KindNamesAreDistinctAndNonEmpty) {
  std::set<std::string> names;
  for (std::uint8_t k = 0; k <= static_cast<std::uint8_t>(Kind::kPeriodicTime);
       ++k) {
    const char* name = tdg::ops::kind_name(static_cast<Kind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(std::string(name).empty());
    names.insert(name);
  }
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(Kind::kPeriodicTime) + 1u);
}

// ------------------------------------------------------------ compilation ----

TEST(OpsCompileTest, UnpacksFactoryParametersIntoColumns) {
  std::vector<model::LoadFn> loads;
  loads.push_back(model::constant_ops(7));
  loads.push_back(model::linear_ops(100, 3));
  loads.push_back(model::param_ops(5, 2.5, 2));
  loads.push_back(model::cyclic_ops({4, 5, 6}));
  loads.push_back(model::cyclic_ops({9}));
  loads.push_back([](const model::TokenAttrs&, std::uint64_t) {
    return std::int64_t{11};
  });
  loads.push_back(model::AttrsPureFn{lte::ops_fft});

  const tdg::ops::LoadTable t = tdg::ops::compile_loads(loads);
  ASSERT_EQ(t.size(), 7u);
  EXPECT_EQ(static_cast<Kind>(t.kind[0]), Kind::kRateConstant);
  EXPECT_EQ(t.a[0], 7);
  EXPECT_EQ(static_cast<Kind>(t.kind[1]), Kind::kLinearOps);
  EXPECT_EQ(t.a[1], 100);
  EXPECT_EQ(t.b[1], 3);
  EXPECT_EQ(static_cast<Kind>(t.kind[2]), Kind::kParamOps);
  EXPECT_EQ(t.a[2], 5);
  EXPECT_DOUBLE_EQ(t.scale[2], 2.5);
  EXPECT_EQ(t.index[2], 2);
  // Cyclic tables flatten into one `cyc` column: (offset, length) rows.
  EXPECT_EQ(static_cast<Kind>(t.kind[3]), Kind::kCyclicOps);
  EXPECT_EQ(t.index[3], 0);
  EXPECT_EQ(t.len[3], 3);
  EXPECT_EQ(static_cast<Kind>(t.kind[4]), Kind::kCyclicOps);
  EXPECT_EQ(t.index[4], 3);
  EXPECT_EQ(t.len[4], 1);
  EXPECT_EQ(t.cyc, (std::vector<std::int64_t>{4, 5, 6, 9}));
  EXPECT_EQ(static_cast<Kind>(t.kind[5]), Kind::kOpaqueClosure);
  // An attrs-pure load keeps its function pointer, not a std::function.
  EXPECT_EQ(static_cast<Kind>(t.kind[6]), Kind::kAttrsPure);
  EXPECT_EQ(t.fn[6], &lte::ops_fft);
  EXPECT_EQ(t.opaque, 1u);
  EXPECT_FALSE(t.all_concrete());
}

TEST(OpsCompileTest, AllConcreteWhenNoLambdas) {
  std::vector<model::LoadFn> loads;
  loads.push_back(model::constant_ops(1));
  loads.push_back(model::linear_ops(0, -2));
  const tdg::ops::LoadTable t = tdg::ops::compile_loads(loads);
  EXPECT_TRUE(t.all_concrete());
  EXPECT_EQ(t.opaque, 0u);
}

// The arithmetic contract: eval_load mirrors model/load.cpp exactly, so
// for every opcode kind the table dispatch and the closure agree on a
// grid covering the clamps, the llround edges and the cyclic wraparound.
TEST(OpsEvalTest, EveryKindMatchesItsClosureOnAGrid) {
  std::vector<model::LoadFn> loads;
  loads.push_back(model::constant_ops(0));
  loads.push_back(model::constant_ops(123456789));
  loads.push_back(model::linear_ops(100, 3));
  loads.push_back(model::linear_ops(0, -7));   // clamps to 0 for size > 0
  loads.push_back(model::linear_ops(50, 0));
  loads.push_back(model::param_ops(5, 2.5, 2));
  loads.push_back(model::param_ops(0, -1.0, 0));  // clamp + negative scale
  loads.push_back(model::param_ops(10, 0.5, 3));  // llround half-way cases
  loads.push_back(model::cyclic_ops({4, 5, 6}));
  loads.push_back(model::cyclic_ops({9}));
  loads.push_back([](const model::TokenAttrs& a, std::uint64_t k) {
    return a.size + static_cast<std::int64_t>(k % 13);
  });
  loads.push_back(model::AttrsPureFn{lte::ops_fft});
  loads.push_back(model::AttrsPureFn{lte::ops_demapping});
  loads.push_back(model::AttrsPureFn{lte::ops_channel_decoding});
  loads.push_back(model::AttrsPureFn{
      [](const model::TokenAttrs& a) -> std::int64_t {
        return a.size * 3 - std::llround(a.params[1]);  // may go negative
      }});
  const tdg::ops::LoadTable t = tdg::ops::compile_loads(loads);
  ASSERT_EQ(static_cast<Kind>(t.kind[11]), Kind::kAttrsPure);

  const std::int64_t sizes[] = {-50, 0, 1, 7, 1000000};
  const double params[] = {-3.7, 0.0, 0.5, 123.0, 123.5, 124.5};
  const std::uint64_t ks[] = {0, 1, 2, 3, 17, 1000000007ull};
  for (std::size_t i = 0; i < loads.size(); ++i) {
    for (const std::int64_t size : sizes) {
      for (const double p : params) {
        for (const std::uint64_t k : ks) {
          model::TokenAttrs attrs;
          attrs.size = size;
          attrs.params = {p, 2 * p, -p, p / 3};
          EXPECT_EQ(tdg::ops::eval_load(t, i, attrs, k, loads),
                    loads[i](attrs, k))
              << "load " << i << " size=" << size << " p=" << p << " k=" << k;
        }
      }
    }
  }
}

// --------------------------------------------------- program opcode tables ----

model::ArchitectureDesc constant_load_desc() {
  model::ArchitectureDesc d;
  const auto r =
      d.add_resource("cpu", model::ResourcePolicy::kConcurrent, 1e9);
  const auto ch = d.add_rendezvous("in");
  const auto out = d.add_rendezvous("out");
  const auto f = d.add_function("f", r);
  d.fn_read(f, ch);
  d.fn_execute(f, model::constant_ops(1000));
  d.fn_write(f, out);
  d.add_source("src", ch, 3,
               [](std::uint64_t k) {
                 return TimePoint::at_ps(static_cast<std::int64_t>(k) * 10);
               },
               [](std::uint64_t) { return model::TokenAttrs{}; });
  d.add_sink("sink", out);
  d.validate();
  return d;
}

core::CompiledPtr compile_desc(model::ArchitectureDesc d) {
  return core::compile_abstraction(
      core::CompiledKey::make(model::share(std::move(d)), {}, true, 0));
}

TEST(ProgramOpsTest, CompileBuildsConsistentTables) {
  const core::CompiledPtr c = compile_desc(gen::make_didactic({}));
  const tdg::Program& p = c->program;
  ASSERT_EQ(p.load_ops.size(), p.loads.size());
  ASSERT_EQ(p.op_kind.size(), p.op_exec.size());
  ASSERT_EQ(p.op_const_dps.size(), p.op_exec.size());
  for (std::size_t j = 0; j < p.op_exec.size(); ++j) {
    if (!p.op_exec[j]) {
      EXPECT_EQ(static_cast<Kind>(p.op_kind[j]), Kind::kFixedWeight);
      EXPECT_EQ(p.op_const_dps[j], -1);
      continue;
    }
    const auto li = static_cast<std::size_t>(p.op_load[j]);
    EXPECT_EQ(p.op_kind[j], p.load_ops.kind[li]);
    if (static_cast<Kind>(p.op_kind[j]) != Kind::kRateConstant) {
      EXPECT_EQ(p.op_const_dps[j], -1);
    }
  }
  // The didactic loads are all factory-built: nothing opaque survives.
  EXPECT_EQ(c->opaque_loads(), 0u);
  for (std::size_t i = 0; i < p.loads.size(); ++i)
    EXPECT_NE(c->load_kind(i), Kind::kOpaqueClosure) << "load " << i;
}

TEST(ProgramOpsTest, RateConstantFoldsTheWholeDuration) {
  const core::CompiledPtr c = compile_desc(constant_load_desc());
  const tdg::Program& p = c->program;
  bool found = false;
  for (std::size_t j = 0; j < p.op_exec.size(); ++j) {
    if (!p.op_exec[j]) continue;
    ASSERT_EQ(static_cast<Kind>(p.op_kind[j]), Kind::kRateConstant);
    // 1000 ops at 1e9 ops/s: the pre-folded picosecond duration.
    const std::int64_t expected = static_cast<std::int64_t>(
        std::llround(1000.0 / p.op_rate[j] * 1e12));
    EXPECT_EQ(p.op_const_dps[j], expected);
    found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(p.load_ops.all_concrete());
}

TEST(ProgramOpsTest, OpaqueLambdaFallsBackAndIsCounted) {
  model::ArchitectureDesc d = constant_load_desc();
  const auto ch2 = d.add_rendezvous("in2");
  const auto out2 = d.add_rendezvous("out2");
  const auto f2 = d.add_function("g", static_cast<model::ResourceId>(
                                      d.resources().size() - 1));
  d.fn_read(f2, ch2);
  d.fn_execute(f2, [](const model::TokenAttrs& a, std::uint64_t) {
    return a.size + 1;
  });
  d.fn_write(f2, out2);
  d.add_source("src2", ch2, 3,
               [](std::uint64_t k) {
                 return TimePoint::at_ps(static_cast<std::int64_t>(k) * 10);
               },
               [](std::uint64_t) { return model::TokenAttrs{}; });
  d.add_sink("sink2", out2);
  d.validate();

  const core::CompiledPtr c = compile_desc(std::move(d));
  EXPECT_EQ(c->opaque_loads(), 1u);
  bool saw_opaque = false, saw_constant = false;
  for (std::size_t i = 0; i < c->program.loads.size(); ++i) {
    saw_opaque |= c->load_kind(i) == Kind::kOpaqueClosure;
    saw_constant |= c->load_kind(i) == Kind::kRateConstant;
  }
  EXPECT_TRUE(saw_opaque);
  EXPECT_TRUE(saw_constant);
}

// ------------------------------------------------------------- wire round ----

TEST(WireOpsTest, ConcreteLoadsSurviveProgramRoundTrip) {
  const core::CompiledPtr c = compile_desc(gen::make_didactic({}));
  const tdg::Program& p = c->program;
  const tdg::Program back = serve::program_from_json(serve::program_to_json(p));

  // The loaded program recompiled its opcode tables: same classification,
  // same const folds, and the concrete loads evaluate identically.
  EXPECT_EQ(back.load_ops.kind, p.load_ops.kind);
  EXPECT_EQ(back.load_ops.opaque, p.load_ops.opaque);
  EXPECT_EQ(back.op_kind, p.op_kind);
  EXPECT_EQ(back.op_const_dps, p.op_const_dps);
  model::TokenAttrs attrs;
  attrs.size = 42;
  attrs.params = {1.5, -2.0, 0.0, 7.25};
  for (std::size_t i = 0; i < p.loads.size(); ++i) {
    if (static_cast<Kind>(p.load_ops.kind[i]) == Kind::kOpaqueClosure)
      continue;
    for (const std::uint64_t k : {0ull, 1ull, 5ull})
      EXPECT_EQ(back.loads[i](attrs, k), p.loads[i](attrs, k))
          << "load " << i << " k=" << k;
  }
}

TEST(WireOpsTest, OpaqueLoadBecomesThrowingStubButTablesRecompile) {
  model::ArchitectureDesc d = constant_load_desc();
  // The opaque-augmented description from the program-ops test.
  const auto ch2 = d.add_rendezvous("in2");
  const auto out2 = d.add_rendezvous("out2");
  const auto f2 = d.add_function("g", static_cast<model::ResourceId>(
                                      d.resources().size() - 1));
  d.fn_read(f2, ch2);
  d.fn_execute(f2, [](const model::TokenAttrs& a, std::uint64_t) {
    return a.size + 1;
  });
  d.fn_write(f2, out2);
  d.add_source("src2", ch2, 3,
               [](std::uint64_t k) {
                 return TimePoint::at_ps(static_cast<std::int64_t>(k) * 10);
               },
               [](std::uint64_t) { return model::TokenAttrs{}; });
  d.add_sink("sink2", out2);
  d.validate();

  const core::CompiledPtr c = compile_desc(std::move(d));
  const tdg::Program back =
      serve::program_from_json(serve::program_to_json(c->program));
  EXPECT_EQ(back.load_ops.opaque, 1u);
  for (std::size_t i = 0; i < back.loads.size(); ++i) {
    if (static_cast<Kind>(back.load_ops.kind[i]) == Kind::kOpaqueClosure) {
      EXPECT_THROW((void)back.loads[i](model::TokenAttrs{}, 0),
                   serve::WireError);
    }
  }
}

// ------------------------------------------------------ differential sweep ----

using study::Scenario;

Scenario clones(const model::DescPtr& desc, std::size_t n) {
  std::vector<Scenario> parts;
  for (std::size_t i = 0; i < n; ++i)
    parts.emplace_back("inst" + std::to_string(i), desc);
  return study::compose("clones", parts);
}

// The sweep: 25 random architectures (FIFOs, slow sinks, periodic and
// second sources, multi-rate producer bundles), each batch-composed and
// run at drain threads 1/2/8 against the event-driven baseline.
TEST(DifferentialSweepTest, BatchedClonesMatchBaseline) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 30;
  cfg.multi_rate_producer_probability = 0.4;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto desc = model::share(gen::make_random_architecture(seed, cfg));
    const Scenario composed = clones(desc, 4);
    ASSERT_TRUE(composed.batchable());
    expect_batched_matches_baseline(composed, "seed " + std::to_string(seed));
  }
}

// Attrs-pure loads (kAttrsPure): LTE receivers, whose eight stage loads are
// model::AttrsPureFn, with a varying frame schedule. Two clones share a
// sub-batch (BatchEngine lanes); a third receiver with another schedule
// runs on the inline engine.
TEST(DifferentialSweepTest, AttrsPureLoadsMatchBaseline) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    lte::ReceiverConfig cfg;
    cfg.symbols = 3 * 14;
    cfg.seed = seed;
    const auto a = model::share(lte::make_receiver(cfg));
    cfg.seed = seed + 100;
    const auto b = model::share(lte::make_receiver(cfg));
    const core::CompiledPtr c = compile_desc(lte::make_receiver(cfg));
    ASSERT_TRUE(c->program.load_ops.all_concrete());
    std::vector<Scenario> parts;
    parts.emplace_back("a0", a);
    parts.emplace_back("b0", b);
    parts.emplace_back("a1", a);
    const Scenario mixed = study::compose("rx", parts);
    ASSERT_EQ(mixed.batch_groups().size(), 1u);
    expect_batched_matches_baseline(mixed, "rx seed " + std::to_string(seed));
  }
}

// Heterogeneous sub-batches: two descriptions interleaved into two width-2
// sub-batches, so the threaded per-group drain actually has groups to
// spread.
TEST(DifferentialSweepTest, HeterogeneousSubBatchesMatchReference) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 25;
  cfg.multi_rate_producer_probability = 0.4;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto a = model::share(gen::make_random_architecture(seed, cfg));
    const auto b =
        model::share(gen::make_random_architecture(seed + 100, cfg));
    std::vector<Scenario> parts;
    parts.emplace_back("a0", a);
    parts.emplace_back("b0", b);
    parts.emplace_back("a1", a);
    parts.emplace_back("b1", b);
    const Scenario mixed = study::compose("mix", parts);
    ASSERT_EQ(mixed.batch_groups().size(), 2u);
    expect_batched_matches_baseline(mixed,
                                    "pair seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace maxev
