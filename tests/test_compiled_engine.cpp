#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "gen/random_arch.hpp"
#include "maxplus/vector.hpp"
#include "model/load.hpp"
#include "tdg/builder.hpp"
#include "tdg/derive.hpp"
#include "tdg/engine.hpp"
#include "tdg/export.hpp"
#include "tdg/simplify.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"

/// The compiled execution representation (tdg::Engine's CSR/SoA program,
/// docs/DESIGN.md §7) must be an invisible optimization: across random
/// architectures, (a) the equivalent model still reproduces the baseline's
/// instant and usage traces bit-exactly, and (b) the engine's observable
/// behaviour — traces, values and cost counters — is invariant to frame
/// pruning (set_retain_floor) and to the arrival order of token attributes
/// relative to external instants.

namespace maxev::tdg {
namespace {

struct ReplayResult {
  trace::InstantTraceSet instants;
  trace::UsageTraceSet usage;
  std::vector<std::int64_t> offers;  // output offer instants, per (output, k)
  std::uint64_t computed = 0;
  std::uint64_t arc_terms = 0;
};

/// Drive a standalone engine over the derived full-group TDG with
/// deterministic synthetic external feeds. \p attrs_first feeds token
/// attributes before the external instants of each iteration (the reverse
/// models attrs arriving late); \p prune raises the retain floor every
/// iteration (smallest legal window) instead of retaining everything.
void replay(const model::ArchitectureDesc& desc, bool attrs_first, bool prune,
            std::uint64_t tokens, ReplayResult& rr) {
  DerivedTdg derived = derive_full_tdg(desc);
  Graph g = fold_pass_through(derived.graph);
  g.freeze();

  Engine::Options opts;
  opts.instant_sink = &rr.instants;
  opts.usage_sink = &rr.usage;
  opts.expected_iterations = tokens;
  Engine eng(g, opts);

  struct Feed {
    NodeId node = kNoNode;
    std::int64_t period_ps = 0;
    model::SourceId provenance = 0;
  };
  std::vector<Feed> feeds;
  for (std::size_t i = 0; i < derived.inputs.size(); ++i) {
    const BoundaryInput& bi = derived.inputs[i];
    const std::string& name = bi.fifo ? bi.xw_node : bi.u_node;
    const NodeId n = g.find(name);
    EXPECT_NE(n, kNoNode) << "input node " << name;
    feeds.push_back({n, 1'700'000 + static_cast<std::int64_t>(i) * 311'000,
                     bi.provenance});
  }
  struct Out {
    NodeId offer = kNoNode;
    NodeId actual = kNoNode;
    NodeId xr_actual = kNoNode;
  };
  std::vector<Out> outs;
  for (const BoundaryOutput& bo : derived.outputs) {
    Out o;
    o.offer = g.find(bo.offer_node);
    EXPECT_NE(o.offer, kNoNode);
    if (!bo.actual_node.empty()) o.actual = g.find(bo.actual_node);
    if (!bo.xr_actual_node.empty()) o.xr_actual = g.find(bo.xr_actual_node);
    if (o.actual == o.offer) o.actual = kNoNode;
    outs.push_back(o);
  }

  for (std::uint64_t k = 0; k < tokens; ++k) {
    const auto feed_attrs = [&] {
      for (model::SourceId s = 0;
           s < static_cast<model::SourceId>(desc.sources().size()); ++s)
        eng.set_attrs(s, k, desc.sources()[static_cast<std::size_t>(s)].attrs(k));
    };
    const auto feed_externals = [&] {
      for (const Feed& f : feeds) {
        eng.set_external(
            f.node, k,
            TimePoint::at_ps(static_cast<std::int64_t>(k) * f.period_ps));
      }
    };
    if (attrs_first) {
      feed_attrs();
      feed_externals();
    } else {
      feed_externals();
      feed_attrs();
    }

    // Every output offer is now determined; feed back synthetic "actual"
    // completions (a slow environment) so history arcs stay exercised.
    for (const Out& o : outs) {
      const auto y = eng.value(o.offer, k);
      ASSERT_TRUE(y.has_value()) << "offer not computed at k=" << k;
      rr.offers.push_back(y->count());
      TimePoint actual_t = *y + Duration::ns(5 + static_cast<std::int64_t>(k % 7));
      if (o.actual != kNoNode) eng.set_external(o.actual, k, actual_t);
      if (o.xr_actual != kNoNode)
        eng.set_external(o.xr_actual, k, actual_t + Duration::ns(3));
    }
    if (prune) eng.set_retain_floor(k + 1);
  }
  rr.computed = eng.instances_computed();
  rr.arc_terms = eng.arc_terms_evaluated();
}

class CompiledEngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledEngineProperty, BaselineTracesReproduced) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 40;
  const model::ArchitectureDesc desc =
      gen::make_random_architecture(GetParam(), cfg);
  core::ExperimentOptions opts;
  opts.repetitions = 1;
  const core::Comparison cmp = core::run_comparison(desc, opts);
  EXPECT_TRUE(cmp.baseline.completed);
  EXPECT_TRUE(cmp.equivalent.completed);
  EXPECT_EQ(cmp.instant_mismatch, std::nullopt) << "seed " << GetParam();
  EXPECT_EQ(cmp.usage_mismatch, std::nullopt) << "seed " << GetParam();
}

TEST_P(CompiledEngineProperty, InvariantUnderPruningAndAttrArrivalOrder) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 40;
  const model::ArchitectureDesc desc =
      gen::make_random_architecture(GetParam(), cfg);

  ReplayResult ref;
  replay(desc, /*attrs_first=*/true, /*prune=*/false, cfg.tokens, ref);
  EXPECT_GT(ref.computed, 0u);
  for (const bool attrs_first : {true, false}) {
    for (const bool prune : {true, false}) {
      if (attrs_first && !prune) continue;  // the reference itself
      ReplayResult var;
      replay(desc, attrs_first, prune, cfg.tokens, var);
      const std::string ctx = std::string("seed ") +
                              std::to_string(GetParam()) +
                              (attrs_first ? " attrs-first" : " attrs-late") +
                              (prune ? " prune" : " retain");

      // Bit-identical observation traces in both directions.
      EXPECT_EQ(trace::compare_instants(ref.instants, var.instants),
                std::nullopt) << ctx;
      EXPECT_EQ(trace::compare_instants(var.instants, ref.instants),
                std::nullopt) << ctx;
      trace::UsageTraceSet a = ref.usage;
      trace::UsageTraceSet b = var.usage;
      a.sort_all();
      b.sort_all();
      EXPECT_EQ(trace::compare_usage(a, b), std::nullopt) << ctx;
      EXPECT_EQ(trace::compare_usage(b, a), std::nullopt) << ctx;

      // Identical boundary outputs and cost counters: the representation
      // switch and the drive order must not change what (or how much) the
      // engine computes.
      EXPECT_EQ(ref.offers, var.offers) << ctx;
      EXPECT_EQ(ref.computed, var.computed) << ctx;
      EXPECT_EQ(ref.arc_terms, var.arc_terms) << ctx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledEngineProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

// ---------------------------------------------------------------------------
// Computation order. The engine pops its worklist LIFO and, when an
// instance makes several dependents ready, computes the last one directly
// (the tail call) and leaves the earlier ones on the worklist in out-arc
// order. On_known callbacks and usage pushes follow that order exactly.
// ---------------------------------------------------------------------------

/// u fans out to a, b, c (out-arcs in that order), each through an execute
/// segment; a and c join into d (in-arcs a then c, both executing); b feeds
/// e through a fixed delay. Resource P runs 1 op per ps.
struct FanOut {
  model::ArchitectureDesc desc;
  Graph g;
  FanOut() {
    desc.add_resource("P", model::ResourcePolicy::kConcurrent, 1e12);
    GraphBuilder b(&desc);
    b.input("u").instant("a").instant("b").instant("c").instant("d").instant(
        "e");
    b.arc("u", "a").exec(0, model::constant_ops(1), "a");
    b.arc("u", "b").exec(0, model::constant_ops(2), "b");
    b.arc("u", "c").exec(0, model::constant_ops(3), "c");
    b.arc("a", "d").exec(0, model::constant_ops(4), "d.a");
    b.arc("c", "d").exec(0, model::constant_ops(5), "d.c");
    b.arc("b", "e").fixed(Duration::ps(1));
    g = b.take();
    g.freeze();
  }
};

std::vector<std::string> drive_fan_out(bool attrs_first,
                                       std::vector<std::string>& pushes) {
  FanOut fo;
  trace::UsageTraceSet usage;
  Engine::Options opts;
  opts.usage_sink = &usage;
  Engine e(fo.g, opts);
  std::vector<std::string> known;
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    e.on_known(fo.g.find(name), [&known, name](std::uint64_t k, TimePoint) {
      known.push_back(std::string(name) + "(" + std::to_string(k) + ")");
    });
  }
  if (attrs_first) e.set_attrs(0, 0, {});
  e.set_external(fo.g.find("u"), 0, TimePoint::at_ps(100));
  if (!attrs_first) e.set_attrs(0, 0, {});
  const trace::UsageTrace* p = usage.find("P");
  EXPECT_NE(p, nullptr);
  if (p != nullptr)
    for (const trace::BusyInterval& bi : p->intervals())
      pushes.push_back(bi.label);
  EXPECT_EQ(e.instances_computed(), 5u);
  return known;
}

TEST(ComputationOrderTest, FanOutFollowsTheLifoRule) {
  // set_attrs first, then u(0) arrives. u's out-arcs make a, b, c ready in
  // that order: a and b go onto the worklist, c is held and pushed last by
  // set_external, so drain pops c first. c leaves d one short (a is not
  // known yet). Then b: it makes e ready, and the tail call computes e
  // straight away. Then a: it completes d, computed directly; d evaluates
  // its in-arcs in slot order, so its a-segment is pushed before its
  // c-segment.
  std::vector<std::string> pushes;
  const std::vector<std::string> known =
      drive_fan_out(/*attrs_first=*/true, pushes);
  EXPECT_EQ(known, (std::vector<std::string>{"c(0)", "b(0)", "e(0)", "a(0)",
                                             "d(0)"}));
  EXPECT_EQ(pushes,
            (std::vector<std::string>{"c", "b", "a", "d.a", "d.c"}));
}

TEST(ComputationOrderTest, LateAttrsReleaseInAttrTableOrder) {
  // u(0) first: a, b, c each still wait for their attr prerequisite. The
  // attrs then release them through the per-source table, built in node-id
  // order (a, b, c, d, d): a, b, c are pushed in that order and d keeps two
  // of its four prerequisites. The LIFO pops give the same sequence as
  // above.
  std::vector<std::string> pushes;
  const std::vector<std::string> known =
      drive_fan_out(/*attrs_first=*/false, pushes);
  EXPECT_EQ(known, (std::vector<std::string>{"c(0)", "b(0)", "e(0)", "a(0)",
                                             "d(0)"}));
  EXPECT_EQ(pushes,
            (std::vector<std::string>{"c", "b", "a", "d.a", "d.c"}));
}

// ---------------------------------------------------------------------------
// Pure fixed-weight nodes mixed with guarded, lagged and executing ones:
// the engine must agree with plain (max,+) matrix algebra, carry ε through
// pure chains, and count exactly the work the cost counters define (an arc
// whose guard is false is not a term; an arc from an ε source is).
// ---------------------------------------------------------------------------

model::TokenAttrs mixed_attrs(std::uint64_t k) {
  model::TokenAttrs at;
  at.size = 10 + static_cast<std::int64_t>(k % 4) * 100;
  return at;
}

/// Pure nodes p1..p5 and y interleaved with g (guarded, ε when k % 3 == 0),
/// h (lagged self-loop) and x (execute segment, attr-dependent).
Graph mixed_class_graph(const model::ArchitectureDesc& desc) {
  GraphBuilder b(&desc);
  b.input("u").input("v");
  for (const char* n : {"g", "p1", "p2", "h", "x", "p3", "p4", "p5"})
    b.instant(n);
  b.output("y");
  b.arc("u", "g").fixed(Duration::ns(3)).when(
      [](const model::TokenAttrs&, std::uint64_t k) { return k % 3 != 0; });
  b.arc("g", "p1").fixed(Duration::ns(2));  // ε upstream on k % 3 == 0
  b.arc("u", "p2").fixed(Duration::ns(1));  // multi-in-arc pure node
  b.arc("v", "p2").fixed(Duration::ns(4));
  b.arc("p1", "p2");
  b.arc("p2", "h").fixed(Duration::ns(1));
  b.arc("h", "h").lag(1).fixed(Duration::ns(5));
  b.arc("p2", "x").exec(0, model::linear_ops(0, 1), "x");
  b.arc("h", "p3");
  b.arc("x", "p3").fixed(Duration::ns(2));
  b.arc("p1", "p3").fixed(Duration::ns(7));
  b.arc("p1", "p4").fixed(Duration::ns(1));  // ε chain through pure nodes
  b.arc("p4", "p5").fixed(Duration::ns(1));
  b.arc("p3", "y");
  b.arc("p5", "y").fixed(Duration::ns(9));
  Graph g = b.take();
  g.freeze();
  return g;
}

TEST(MixedArcKindsTest, MatchesLinearSystem) {
  model::ArchitectureDesc desc;
  desc.add_resource("P", model::ResourcePolicy::kConcurrent, 1e12);
  const Graph g = mixed_class_graph(desc);
  Engine e(g);
  ExtractedSystem ex = to_linear_system(
      g, [](model::SourceId, std::uint64_t k) { return mixed_attrs(k); });
  ASSERT_EQ(ex.input_nodes.size(), 2u);
  const NodeId p1 = g.find("p1"), p5 = g.find("p5");
  bool saw_eps = false;
  for (std::uint64_t k = 0; k < 40; ++k) {
    const auto ki = static_cast<std::int64_t>(k);
    mp::Vector uv(2);
    for (std::size_t i = 0; i < 2; ++i) {
      const TimePoint t =
          TimePoint::at_ps(ki * 9000 + static_cast<std::int64_t>(i) * 2500 +
                           (ki % 5) * 700);
      e.set_external(ex.input_nodes[i], k, t);
      uv[i] = mp::Scalar::from_time(t);
    }
    e.set_attrs(0, k, mixed_attrs(k));
    const mp::LinearSystem::Step step = ex.system.step(uv);
    for (std::size_t i = 0; i < ex.state_nodes.size(); ++i) {
      const NodeId n = ex.state_nodes[i];
      const std::optional<mp::Scalar> got = e.scalar_value(n, k);
      ASSERT_TRUE(got.has_value()) << g.node(n).name << " k=" << k;
      EXPECT_EQ(*got, step.x[i]) << g.node(n).name << " k=" << k;
    }
    // The guard really suppresses g, and ε flows through the pure chain.
    if (k % 3 == 0) {
      EXPECT_TRUE(e.scalar_value(p1, k)->is_eps()) << "k=" << k;
      EXPECT_TRUE(e.scalar_value(p5, k)->is_eps()) << "k=" << k;
      saw_eps = true;
    }
  }
  EXPECT_TRUE(saw_eps);
  // Nine computed nodes, fifteen arcs; u -> g is skipped (not counted) on
  // the 14 iterations k % 3 == 0 in [0, 40).
  EXPECT_EQ(e.instances_computed(), 40u * 9u);
  EXPECT_EQ(e.arc_terms_evaluated(), 40u * 15u - 14u);
}

TEST(MixedArcKindsTest, PaddedGraphCountsHandCountedWork) {
  // y(k) = max(u(k) + 5 ns, y(k-1) + 2 ns), each arc padded by 3 nodes:
  // u -> pad0 -> pad1 -> pad2 -> y and y -(lag 1)-> pad3 -> pad4 -> pad5
  // -> y. pad3 reads the lagged arc; the other arcs are same-frame.
  GraphBuilder b;
  b.input("u");
  b.output("y");
  b.arc("u", "y").fixed(Duration::ns(5));
  b.arc("y", "y").lag(1).fixed(Duration::ns(2));
  Graph g = pad_graph(b.take(), 6);
  g.freeze();
  ASSERT_EQ(g.node_count(), 8u);
  ASSERT_EQ(g.arc_count(), 8u);
  Engine e(g);
  const NodeId u = g.find("u"), y = g.find("y"), pad3 = g.find("pad3");
  std::int64_t prev_y = 0;  // pre-history: the simulation origin
  constexpr std::uint64_t kIters = 50;
  for (std::uint64_t k = 0; k < kIters; ++k) {
    const std::int64_t t = static_cast<std::int64_t>(k * k) * 300;
    e.set_external(u, k, TimePoint::at_ps(t));
    const std::int64_t want = std::max(t + 5000, prev_y + 2000);
    ASSERT_EQ(e.value(y, k), TimePoint::at_ps(want)) << "k=" << k;
    EXPECT_EQ(e.value(pad3, k), TimePoint::at_ps(prev_y + 2000)) << "k=" << k;
    prev_y = want;
  }
  // Seven computed nodes (y and six pads) and eight arc terms (every arc,
  // none guarded) per iteration.
  EXPECT_EQ(e.instances_computed(), 7u * kIters);
  EXPECT_EQ(e.arc_terms_evaluated(), 8u * kIters);
}

}  // namespace
}  // namespace maxev::tdg
