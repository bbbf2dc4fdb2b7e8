#include "core/equivalent_model.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace maxev::core {

using model::Token;

namespace {

/// Validate that the merged description's slice at \p span is a structural
/// replication of \p base under the "<name>/" namespace prefix, checking
/// the same surface as model::structurally_equal (table blocks, prefixed
/// names, resource policies/rates, channel kinds/capacities, function body
/// sizes, source token counts). Workload/schedule std::functions cannot be
/// compared; the study layer guarantees them by handing every member the
/// same shared description (docs/DESIGN.md §10).
void validate_replication(const model::ArchitectureDesc& merged,
                          const model::ArchitectureDesc& base,
                          const std::string& name,
                          const EquivalentModel::InstanceSpan& span) {
  const std::string prefix = name + "/";
  const auto mismatch = [&](const std::string& what) {
    throw DescriptionError(
        "EquivalentModel: merged description disagrees with the group "
        "base on " + what + " of instance '" + name + "'");
  };
  if (span.res + base.resources().size() > merged.resources().size() ||
      span.ch + base.channels().size() > merged.channels().size() ||
      span.fn + base.functions().size() > merged.functions().size() ||
      span.src + base.sources().size() > merged.sources().size() ||
      span.sink + base.sinks().size() > merged.sinks().size())
    throw DescriptionError(
        "EquivalentModel: instance '" + name +
        "' span exceeds the merged description's tables");
  for (std::size_t r = 0; r < base.resources().size(); ++r) {
    const auto& m = merged.resources()[span.res + r];
    const auto& b = base.resources()[r];
    if (m.name != prefix + b.name || m.policy != b.policy ||
        m.ops_per_second != b.ops_per_second)
      mismatch("resource '" + b.name + "'");
  }
  for (std::size_t c = 0; c < base.channels().size(); ++c) {
    const auto& m = merged.channels()[span.ch + c];
    const auto& b = base.channels()[c];
    if (m.name != prefix + b.name || m.kind != b.kind ||
        m.capacity != b.capacity)
      mismatch("channel '" + b.name + "'");
  }
  for (std::size_t f = 0; f < base.functions().size(); ++f) {
    const auto& m = merged.functions()[span.fn + f];
    const auto& b = base.functions()[f];
    if (m.name != prefix + b.name || m.body.size() != b.body.size())
      mismatch("function '" + b.name + "'");
  }
  for (std::size_t s = 0; s < base.sources().size(); ++s) {
    const auto& m = merged.sources()[span.src + s];
    const auto& b = base.sources()[s];
    if (m.name != prefix + b.name || m.count != b.count)
      mismatch("source '" + b.name + "'");
  }
}

}  // namespace

EquivalentModel::EquivalentModel(const model::ArchitectureDesc& desc,
                                 std::vector<bool> group)
    : EquivalentModel(std::make_shared<const model::ArchitectureDesc>(desc),
                      std::move(group), Options{}) {}

EquivalentModel::EquivalentModel(const model::ArchitectureDesc& desc,
                                 std::vector<bool> group, Options opts)
    : EquivalentModel(std::make_shared<const model::ArchitectureDesc>(desc),
                      std::move(group), std::move(opts)) {}

EquivalentModel::EquivalentModel(model::DescPtr desc_in,
                                 std::vector<bool> group)
    : EquivalentModel(std::move(desc_in), std::move(group), Options{}) {}

EquivalentModel::~EquivalentModel() = default;

EquivalentModel::EquivalentModel(model::DescPtr desc_in,
                                 std::vector<bool> group, Options opts)
    : desc_(std::move(desc_in)), group_(std::move(group)) {
  if (desc_ == nullptr)
    throw DescriptionError("EquivalentModel: null description");
  const model::ArchitectureDesc& desc = *desc_;

  groups_.reserve(opts.groups.size());
  for (GroupSpec& spec : opts.groups) {
    if (spec.base == nullptr)
      throw DescriptionError("EquivalentModel: null group base");
    if (spec.names.empty() || spec.names.size() != spec.spans.size())
      throw DescriptionError(
          "EquivalentModel: group needs matching member names/spans");
    Group g;
    g.base = std::move(spec.base);
    g.gflags = std::move(spec.group);
    if (g.gflags.empty()) g.gflags.assign(g.base->functions().size(), true);
    g.gflags.resize(g.base->functions().size(), false);
    g.names = std::move(spec.names);
    g.spans = std::move(spec.spans);
    for (std::size_t m = 0; m < g.names.size(); ++m)
      validate_replication(desc, *g.base, g.names[m], g.spans[m]);
    groups_.push_back(std::move(g));
  }

  // Members must occupy pairwise-disjoint blocks of the merged tables:
  // overlapping spans would pass each per-member replication check yet
  // wire two gated readers / emission processes onto one channel. Checked
  // on the function table (every instance owns >= 1 function, and the
  // other tables follow the same composition layout).
  std::vector<std::pair<std::size_t, std::size_t>> fn_blocks;
  for (const Group& g : groups_)
    for (const InstanceSpan& span : g.spans)
      fn_blocks.emplace_back(span.fn, span.fn + g.base->functions().size());
  std::sort(fn_blocks.begin(), fn_blocks.end());
  for (std::size_t i = 1; i < fn_blocks.size(); ++i)
    if (fn_blocks[i].first < fn_blocks[i - 1].second)
      throw DescriptionError("EquivalentModel: sub-batch member spans overlap");

  // The inline abstraction: an empty group takes every function outside
  // the members' blocks.
  if (group_.empty()) {
    group_.assign(desc.functions().size(), true);
    for (const auto& [begin, end] : fn_blocks)
      std::fill(group_.begin() + static_cast<std::ptrdiff_t>(begin),
                group_.begin() + static_cast<std::ptrdiff_t>(end), false);
  }
  group_.resize(desc.functions().size(), false);

  // Simulate everything outside the abstracted functions: the inline
  // group plus every member's abstracted functions at its span.
  std::vector<bool> skip = group_;
  for (const Group& g : groups_)
    for (const InstanceSpan& span : g.spans)
      for (std::size_t f = 0; f < g.gflags.size(); ++f) {
        if (!g.gflags[f]) continue;
        if (skip[span.fn + f])
          throw DescriptionError(
              "EquivalentModel: group overlaps a sub-batch");
        skip[span.fn + f] = true;
      }
  runtime_ = std::make_unique<model::ModelRuntime>(desc_, skip, opts.observe);

  for (Group& g : groups_) build_group(g, opts);

  // Without sub-batches the inline abstraction is the whole model (an
  // all-false group is rejected by derive_tdg); with them it is the
  // remainder, and may be empty.
  if (groups_.empty() ||
      std::find(group_.begin(), group_.end(), true) != group_.end()) {
    // Obtain the compiled abstraction (derive + fold + pad + freeze +
    // Program::compile) — from the provider's cache when one is given.
    compiled_ = obtain_compiled(
        opts.compiled, CompiledKey{desc_, group_, opts.fold,
                                   opts.pad_nodes * opts.inline_instances});
    tdg::Engine::Options eng_opts;
    if (opts.observe) {
      eng_opts.instant_sink = &runtime_->mutable_instants();
      eng_opts.usage_sink = &runtime_->mutable_usage();
      eng_opts.expected_iterations = opts.expected_iterations > 0
                                         ? opts.expected_iterations
                                         : desc.max_source_tokens();
    }
    engine_ = std::make_unique<tdg::Engine>(compiled_->graph,
                                            compiled_->program, eng_opts);
    InlineLane lane;
    lane.engine = engine_.get();
    inline_.push_back(bind(std::move(lane), *compiled_));
  }

  // Sub-batch fronts drain at timestep boundaries: every instance's feeds
  // of one simulated instant accumulate before one batched propagation
  // (the inline engine propagates eagerly and needs no drain). The hook
  // computes every group's fronts with on_known callbacks captured — on
  // its own worker when a pool is present: groups share no frames, and
  // everything a flush touches is engine-private — then publishes the
  // callbacks serially in group order. Callbacks may resume writers that
  // feed an engine again; those feeds land on its worklist and the hook's
  // `true` return re-invokes it at the same instant (docs/DESIGN.md §11).
  if (!groups_.empty()) {
    const std::size_t threads =
        opts.threads == 1 ? 1 : util::ThreadPool::resolve(opts.threads);
    if (threads > 1 && groups_.size() > 1)
      pool_ = std::make_unique<util::ThreadPool>(
          std::min(threads, groups_.size()) - 1);  // caller participates
    drained_.assign(groups_.size(), 0);
    runtime_->kernel().set_timestep_hook([this] { return drain_groups(); });
  }

  wire(lanes_);
  wire(inline_);
}

void EquivalentModel::build_group(Group& grp, const Options& opts) {
  const std::size_t width = grp.names.size();

  // Obtain the group's compiled base abstraction once; every member shares
  // the resulting program (one tdg::Program per sub-batch). A provider
  // additionally deduplicates across groups, cells and runs.
  grp.compiled = obtain_compiled(
      opts.compiled,
      CompiledKey{grp.base, grp.gflags, opts.fold, opts.pad_nodes});

  tdg::BatchEngine::Options eng_opts;
  eng_opts.instances.resize(width);
  for (std::size_t i = 0; i < width; ++i) {
    tdg::BatchEngine::InstanceSinks& sinks = eng_opts.instances[i];
    sinks.scope = grp.names[i] + "/";
    if (opts.observe) {
      sinks.instant_sink = &runtime_->mutable_instants();
      sinks.usage_sink = &runtime_->mutable_usage();
    }
  }
  if (opts.observe) {
    eng_opts.expected_iterations = opts.expected_iterations > 0
                                       ? opts.expected_iterations
                                       : grp.base->max_source_tokens();
  }
  grp.engine = std::make_unique<tdg::BatchEngine>(
      grp.compiled->graph, grp.compiled->program, std::move(eng_opts));

  for (std::size_t i = 0; i < width; ++i) {
    BatchLane lane;
    lane.engine = grp.engine.get();
    lane.inst = i;
    lane.src_base = static_cast<model::SourceId>(grp.spans[i].src);
    lane.ch_base = static_cast<model::ChannelId>(grp.spans[i].ch);
    lane.prefix = grp.names[i] + "/";
    lanes_.push_back(bind(std::move(lane), *grp.compiled));
  }
}

template <class Lane>
EquivalentModel::Member<Lane> EquivalentModel::bind(
    Lane lane, const CompiledAbstraction& c) {
  // Resolve boundary nodes by name (fold/pad preserve names).
  auto resolve = [&c](const std::string& name) {
    if (name.empty()) return tdg::kNoNode;
    const tdg::NodeId n = c.graph.find(name);
    if (n == tdg::kNoNode)
      throw Error("EquivalentModel: boundary node '" + name +
                  "' missing after graph transforms");
    return n;
  };

  Member<Lane> m{std::move(lane), {}, {}};
  m.inputs.reserve(c.inputs.size());
  for (const auto& bi : c.inputs) {
    InputState st;
    st.meta = bi;
    st.u = resolve(bi.u_node);
    st.x = resolve(bi.x_node);
    st.xw = resolve(bi.xw_node);
    st.xr = resolve(bi.xr_node);
    m.inputs.push_back(std::move(st));
  }
  m.outputs.reserve(c.outputs.size());
  for (const auto& bo : c.outputs) {
    OutputState st;
    st.meta = bo;
    st.offer = resolve(bo.offer_node);
    st.actual = resolve(bo.actual_node);
    st.xr_actual = resolve(bo.xr_actual_node);
    if (st.actual == st.offer) st.actual = tdg::kNoNode;  // single-node case
    m.outputs.push_back(std::move(st));
  }
  return m;
}

template <class Lane>
void EquivalentModel::wire(std::vector<Member<Lane>>& members) {
  for (Member<Lane>& m : members)
    for (std::size_t i = 0; i < m.inputs.size(); ++i) wire_input(m, i);
  for (Member<Lane>& m : members)
    for (std::size_t i = 0; i < m.outputs.size(); ++i) wire_output(m, i);
}

template <class Lane>
void EquivalentModel::wire_input(Member<Lane>& m, std::size_t idx) {
  InputState& st = m.inputs[idx];
  const model::ChannelId channel = st.meta.channel + m.lane.ch_base;
  model::ChannelRt* ch = runtime_->channel(channel);
  if (ch == nullptr)
    throw Error("EquivalentModel: input channel not constructed");

  if (!st.meta.fifo) {
    // Rendezvous input: gated reader. On each offer, feed u(k) and the
    // token attributes; complete at the computed x_in(k), or park until the
    // blocking external instant arrives.
    m.lane.on_known(st.x, [&s = st, ch](std::uint64_t k, TimePoint t) {
      if (s.parked && s.parked_k == k) {
        s.parked = false;
        ch->rendezvous->resolve_gated(t);
      }
    });
    ch->rendezvous->set_gated_reader(
        [&l = m.lane, &s = st](TimePoint offer,
                               const Token& tok) -> std::optional<TimePoint> {
          const std::uint64_t k = s.next_k++;
          // Token sources carry merged ids; the lane speaks its own.
          l.set_attrs(tok.source - l.src_base, k, tok.attrs);
          l.set_external(s.u, k, offer);
          if (auto v = l.resolve(s.x, k)) return *v;
          s.parked = true;
          s.parked_k = k;
          return std::nullopt;
        });
  } else {
    // FIFO input: write instants are observed live; a virtual reader pops
    // tokens at the computed read instants.
    const std::string& name = desc_->channels()[channel].name;
    st.ready = std::make_unique<sim::Event>(runtime_->kernel(), "vread:" + name);
    m.lane.on_known(st.xr, [&s = st](std::uint64_t, TimePoint) {
      s.ready->notify();
    });
    ch->fifo->on_write_complete(
        [&l = m.lane, &s = st](std::uint64_t k, TimePoint t, const Token& tok) {
          l.set_attrs(tok.source - l.src_base, k, tok.attrs);
          l.set_external(s.xw, k, t);
        });
    runtime_->kernel().spawn("vreader:" + name, [this, &m, idx] {
      return virtual_fifo_reader_proc(m, idx);
    });
  }
}

template <class Lane>
sim::Process EquivalentModel::virtual_fifo_reader_proc(Member<Lane>& m,
                                                       std::size_t idx) {
  InputState& st = m.inputs[idx];
  model::ChannelRt* ch = runtime_->channel(st.meta.channel + m.lane.ch_base);
  for (std::uint64_t k = 0;; ++k) {
    std::optional<TimePoint> t;
    while (!(t = m.lane.value(st.xr, k))) co_await st.ready->wait();
    co_await runtime_->kernel().delay_until(*t);
    (void)co_await ch->fifo->read();
    st.consumed = k + 1;
    raise_retain_floor(m);
  }
}

template <class Lane>
void EquivalentModel::wire_output(Member<Lane>& m, std::size_t idx) {
  OutputState& st = m.outputs[idx];
  const model::ChannelId channel = st.meta.channel + m.lane.ch_base;
  model::ChannelRt* ch = runtime_->channel(channel);
  if (ch == nullptr)
    throw Error("EquivalentModel: output channel not constructed");

  const std::string& name = desc_->channels()[channel].name;
  st.ready = std::make_unique<sim::Event>(runtime_->kernel(), "emit:" + name);
  m.lane.on_known(st.offer, [&s = st](std::uint64_t, TimePoint) {
    s.ready->notify();
  });

  if (!st.meta.fifo) {
    if (st.actual != tdg::kNoNode) {
      ch->rendezvous->on_transfer(
          [&l = m.lane, &s = st](std::uint64_t k, TimePoint t, const Token&) {
            l.set_external(s.actual, k, t);
          });
    }
  } else {
    ch->fifo->on_write_complete(
        [&l = m.lane, &s = st](std::uint64_t k, TimePoint t, const Token&) {
          l.set_external(s.actual, k, t);
        });
    ch->fifo->on_read_complete(
        [&l = m.lane, &s = st](std::uint64_t k, TimePoint t, const Token&) {
          l.set_external(s.xr_actual, k, t);
        });
  }

  runtime_->kernel().spawn("emission:" + name, [this, &m, idx] {
    return emission_proc(m, idx);
  });
}

template <class Lane>
sim::Process EquivalentModel::emission_proc(Member<Lane>& m, std::size_t idx) {
  OutputState& st = m.outputs[idx];
  model::ChannelRt* ch = runtime_->channel(st.meta.channel + m.lane.ch_base);
  for (std::uint64_t k = 0;; ++k) {
    std::optional<TimePoint> y;
    while (!(y = m.lane.value(st.offer, k))) co_await st.ready->wait();

    // Build the output token from the stored provenance attributes, under
    // the merged source id (what the simulated consumers see).
    Token tok;
    tok.k = k;
    tok.source = st.meta.provenance + m.lane.src_base;
    if (auto attrs = m.lane.attrs_of(st.meta.provenance, k)) tok.attrs = *attrs;

    co_await runtime_->kernel().delay_until(*y);
    if (!st.meta.fifo) {
      co_await ch->rendezvous->write(tok);
    } else {
      co_await ch->fifo->write(tok);
    }
    // The rendezvous/fifo hooks have fed the actual completion back into
    // the engine by now; the frame window may advance past iteration k.
    st.emitted = k + 1;
    raise_retain_floor(m);
  }
}

template <class Lane>
void EquivalentModel::raise_retain_floor(Member<Lane>& m) {
  // Frames may be recycled once every boundary consumer of the lane has
  // moved past them: emission processes (output values, token attrs) and
  // virtual FIFO readers (read instants). A sub-batch's shared arena
  // additionally waits for every other member (BatchEngine takes the
  // minimum across lanes).
  std::uint64_t floor = std::numeric_limits<std::uint64_t>::max();
  bool any = false;
  for (const OutputState& st : m.outputs) {
    floor = std::min(floor, st.emitted);
    any = true;
  }
  for (const InputState& st : m.inputs) {
    if (!st.meta.fifo) continue;
    floor = std::min(floor, st.consumed);
    any = true;
  }
  if (any) m.lane.set_retain_floor(floor);
}

template <class Lane>
void EquivalentModel::report_parked(const std::vector<Member<Lane>>& members,
                                    std::vector<std::string>& gates) {
  for (const Member<Lane>& m : members)
    for (const InputState& st : m.inputs)
      if (st.parked)
        gates.push_back(m.lane.prefix + st.meta.u_node + "@k=" +
                        std::to_string(st.parked_k));
}

bool EquivalentModel::drain_groups() {
  const auto compute = [this](std::size_t g) {
    drained_[g] = groups_[g].engine->flush() ? 1 : 0;
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(groups_.size(), compute);
  } else {
    for (std::size_t g = 0; g < groups_.size(); ++g) compute(g);
  }
  bool any = false;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    groups_[g].engine->fire_deferred();
    any = any || drained_[g] != 0;
  }
  return any;
}

std::uint64_t EquivalentModel::instances_computed() const {
  std::uint64_t total = engine_ != nullptr ? engine_->instances_computed() : 0;
  for (const Group& g : groups_) total += g.engine->instances_computed();
  return total;
}

std::uint64_t EquivalentModel::arc_terms_evaluated() const {
  std::uint64_t total = engine_ != nullptr ? engine_->arc_terms_evaluated() : 0;
  for (const Group& g : groups_) total += g.engine->arc_terms_evaluated();
  return total;
}

EquivalentModel::CompiledShape EquivalentModel::compiled_shape() const {
  CompiledShape shape;
  const auto add = [&shape](const tdg::Graph& g) {
    shape.nodes += g.node_count();
    shape.paper_nodes += g.paper_node_count();
    shape.arcs += g.arc_count();
  };
  for (const Group& g : groups_) add(g.compiled->graph);
  if (compiled_ != nullptr) add(compiled_->graph);
  return shape;
}

model::ModelRuntime::Outcome EquivalentModel::run(
    std::optional<TimePoint> until) {
  model::ModelRuntime::Outcome out = runtime_->run(until);
  if (!out.completed && (out.idle || sim::is_guard_stop(out.stop))) {
    // Only this layer knows which gated receptions parked an offer whose
    // computed completion never became known.
    report_parked(lanes_, out.diagnostics.unresolved_gates);
    report_parked(inline_, out.diagnostics.unresolved_gates);
    // Each sub-batch member's token progress through the merged runtime's
    // sinks — what the merged stall report cannot attribute.
    for (const Group& g : groups_) {
      std::uint64_t expected = 0;
      if (!g.base->sources().empty()) {
        expected = g.base->sources()[0].count;
        for (const auto& src : g.base->sources())
          expected = std::min(expected, src.count);
      }
      const std::size_t n_sinks = g.base->sinks().size();
      for (std::size_t m = 0; m < g.names.size(); ++m) {
        std::uint64_t done = expected;
        for (std::size_t s = 0; s < n_sinks; ++s)
          done = std::min(done,
                          runtime_->sink_received(static_cast<model::SinkId>(
                              g.spans[m].sink + s)));
        out.diagnostics.instances.push_back({g.names[m], done, expected});
      }
    }
    // Guard-stop messages may render the enriched summary; idle-stall
    // wording stays the runtime's (pinned).
    if (sim::is_guard_stop(out.stop)) out.stall_report = out.diagnostics.summary();
  }
  return out;
}

}  // namespace maxev::core
