#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "model/baseline.hpp"
#include "model/desc.hpp"
#include "sim/event.hpp"
#include "tdg/batch_engine.hpp"
#include "tdg/derive.hpp"
#include "tdg/engine.hpp"
#include "tdg/graph.hpp"

/// \file equivalent_model.hpp
/// The equivalent executable model (paper Sections III-A and IV, Fig. 4).
///
/// A group of architecture functions is replaced, as seen by the simulation
/// kernel, by:
///  * a *Reception* side: boundary input channels run in gated-reader mode —
///    each offer u(k) triggers ComputeInstant() (the TDG engine), and the
///    input rendezvous is completed at the *computed* instant x_in(k), so
///    producers observe exactly the back-pressure of the abstracted
///    processes;
///  * a *Emission* process per boundary output: output token k is offered at
///    the computed instant y(k); the actual completion instant (possibly
///    later, if the environment is slow) is fed back into the engine's
///    history, so environment back-pressure propagates into iteration k+1
///    exactly as in the event-driven model.
///
/// All internal channels of the group are never constructed: their events
/// are the events the method saves. Their instants, and the busy intervals
/// of every execute statement, are still recorded — computed, not simulated
/// — which is the paper's accuracy claim.
///
/// Composed scenarios (study::compose) may additionally carry
/// *equal-structure sub-batches* (Options::groups, docs/DESIGN.md §9–§10):
/// members sharing one base description are evaluated by one
/// tdg::BatchEngine — one compiled program, one shared frame arena, one
/// instance lane per member — drained at the kernel's timestep boundaries.
/// The constructor's `group` then abstracts whatever the sub-batches leave
/// (the instances nobody shares a description with) on the inline
/// tdg::Engine. Everything runs in ONE kernel over ONE model::ModelRuntime,
/// and the boundary protocol above is written once: every gated reader,
/// virtual FIFO reader and emission process serves a *lane* — the inline
/// engine, or one member's lane of a sub-batch engine.

namespace maxev::util {
class ThreadPool;
}  // namespace maxev::util

namespace maxev::core {

class EquivalentModel {
 public:
  /// Begin offsets of one sub-batch member's entity blocks in the merged
  /// description's tables (the sizes are the group base's table sizes).
  struct InstanceSpan {
    std::size_t fn = 0, ch = 0, res = 0, src = 0, sink = 0;
  };

  /// One equal-structure sub-batch: a shared base description, the
  /// abstraction group over its functions, and the member instances.
  /// The merged slice at every member's span must replicate the base
  /// structurally (model::structurally_equal's surface, names carrying the
  /// "<member>/" prefix) — validated at construction. The behavioural
  /// (std::function) identity of the members' workloads cannot be checked
  /// here; the study layer guarantees it by handing every member the SAME
  /// model::DescPtr (docs/DESIGN.md §10 grouping rules).
  struct GroupSpec {
    model::DescPtr base;
    /// Base-level abstraction group; empty = abstract every function.
    std::vector<bool> group;
    std::vector<std::string> names;  ///< member names (trace prefixes)
    std::vector<InstanceSpan> spans; ///< parallel to names
  };

  struct Options {
    /// Fold pass-through completion nodes (paper's Fig. 3 compact form).
    bool fold = true;
    /// Pass-through padding nodes per instance (Fig. 5 sweeps): every
    /// sub-batch's base graph gains this many (evaluated once per member),
    /// the inline graph inline_instances times this many — so any split
    /// of a composition runs the same padded work.
    std::size_t pad_nodes = 0;
    /// Instances the inline graph spans (padding accounting only).
    std::size_t inline_instances = 1;
    /// Record instant/usage traces ("observation time"). Disable for pure
    /// simulation-speed measurements.
    bool observe = true;
    /// Capacity hint for the observation sinks: expected iteration count
    /// per instance. 0 = derive from the description (total source tokens).
    std::size_t expected_iterations = 0;
    /// Source of the compiled abstractions (derive + fold + pad + freeze +
    /// Program::compile). Null = compile here; a serve::ProgramCache makes
    /// repeated constructions of the same abstraction reuse one artifact.
    CompiledProvider* compiled = nullptr;
    /// Equal-structure sub-batches over the description (each with >= 1
    /// member), each evaluated on its own tdg::BatchEngine. Empty = none.
    std::vector<GroupSpec> groups;
    /// Worker threads for the sub-batch drain (docs/DESIGN.md §11): each
    /// timestep boundary computes every group's fronts with callbacks
    /// captured — on its own worker when > 1 and there are >= 2 groups —
    /// then publishes them serially in group order. 0 = one per hardware
    /// thread. Results are identical at every setting.
    int threads = 1;
  };

  /// Abstract the functions marked in \p group on the inline engine. Empty
  /// = every function outside the Options::groups members' blocks (all of
  /// them when there are no groups). Shares ownership of the description
  /// with the caller (the study layer hands the same description to
  /// several backends without copies).
  /// \throws maxev::DescriptionError when a sub-batch member's merged slice
  ///         does not replicate its base, member spans overlap, or \p group
  ///         marks a function a sub-batch abstracts.
  EquivalentModel(model::DescPtr desc, std::vector<bool> group);
  EquivalentModel(model::DescPtr desc, std::vector<bool> group, Options opts);
  /// Convenience overloads for single-model runs: copy the description
  /// into shared ownership (one validated copy at construction; safe with
  /// temporaries). Deliberately kept: tests, benches and examples build
  /// descriptions ad hoc and run one model — a copy there is simpler and
  /// harmless. Use the model::DescPtr overloads wherever one description
  /// feeds several models (the study layer always does).
  EquivalentModel(const model::ArchitectureDesc& desc, std::vector<bool> group);
  EquivalentModel(const model::ArchitectureDesc& desc, std::vector<bool> group,
                  Options opts);

  EquivalentModel(const EquivalentModel&) = delete;
  EquivalentModel& operator=(const EquivalentModel&) = delete;
  /// Out of line: pool_ holds a forward-declared util::ThreadPool.
  ~EquivalentModel();

  /// Run to completion (or horizon). Same outcome semantics as the baseline.
  model::ModelRuntime::Outcome run(
      std::optional<TimePoint> until = std::nullopt);

  [[nodiscard]] model::ModelRuntime& runtime() { return *runtime_; }

  /// \name The inline abstraction
  /// \pre it exists: always without Options::groups; with groups, when
  ///      the normalized group() marks at least one function.
  /// @{
  [[nodiscard]] const tdg::Graph& graph() const { return compiled_->graph; }
  [[nodiscard]] const tdg::Engine& engine() const { return *engine_; }
  /// Mutable engine access for cooperating observers (the adaptive backend
  /// raises the retain margin and snapshots history windows).
  [[nodiscard]] tdg::Engine& engine_mut() { return *engine_; }
  /// The compiled abstraction backing the inline engine: frozen graph,
  /// program and boundary metadata (the adaptive certifier walks
  /// inputs/outputs).
  [[nodiscard]] const CompiledAbstraction& compiled() const {
    return *compiled_;
  }
  /// @}
  [[nodiscard]] const model::DescPtr& desc_ptr() const { return desc_; }
  /// The normalized inline abstraction group (merged-sized flags).
  [[nodiscard]] const std::vector<bool>& group() const { return group_; }

  /// \name Sub-batches (Options::groups)
  /// @{
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  [[nodiscard]] const tdg::BatchEngine& batch_engine(std::size_t g) const {
    return *groups_[g].engine;
  }
  /// @}

  /// \name Cost counters / compiled shape (inline engine + sub-batches)
  /// @{
  [[nodiscard]] std::uint64_t instances_computed() const;
  [[nodiscard]] std::uint64_t arc_terms_evaluated() const;
  /// Summed over every compiled graph: the inline graph plus each
  /// sub-batch's base graph — the memory-resident program size, not the
  /// N-fold merged graph an unbatched run would compile.
  struct CompiledShape {
    std::size_t nodes = 0;
    std::size_t paper_nodes = 0;
    std::size_t arcs = 0;
  };
  [[nodiscard]] CompiledShape compiled_shape() const;
  /// @}

  [[nodiscard]] const trace::InstantTraceSet& instants() const {
    return runtime_->instants();
  }
  [[nodiscard]] const trace::UsageTraceSet& usage() const {
    return runtime_->usage();
  }
  [[nodiscard]] std::uint64_t relation_events() const {
    return runtime_->relation_events();
  }
  [[nodiscard]] const sim::KernelStats& kernel_stats() const {
    return runtime_->kernel_stats();
  }
  [[nodiscard]] TimePoint end_time() const { return runtime_->end_time(); }

 private:
  struct InputState {
    tdg::BoundaryInput meta;             // lane-level ids/names
    tdg::NodeId u = tdg::kNoNode;        // rendezvous offer node
    tdg::NodeId x = tdg::kNoNode;        // rendezvous completion node
    tdg::NodeId xw = tdg::kNoNode;       // fifo external write node
    tdg::NodeId xr = tdg::kNoNode;       // fifo computed read node
    std::uint64_t next_k = 0;            // next offer index
    bool parked = false;                 // rendezvous offer awaiting resolution
    std::uint64_t parked_k = 0;
    std::uint64_t consumed = 0;          // fifo: virtual-reader progress
    std::unique_ptr<sim::Event> ready;   // fifo: xr(k) became known
  };

  struct OutputState {
    tdg::BoundaryOutput meta;
    tdg::NodeId offer = tdg::kNoNode;
    tdg::NodeId actual = tdg::kNoNode;      // kNoNode when offer == completion
    tdg::NodeId xr_actual = tdg::kNoNode;   // fifo read instants
    std::uint64_t emitted = 0;              // consumer progress (retain floor)
    std::unique_ptr<sim::Event> ready;      // offer(k) became known
  };

  using KnownFn = std::function<void(std::uint64_t, TimePoint)>;

  /// Where a lane's ids sit in the merged description, and the prefix its
  /// diagnostics carry: zero and empty for the inline engine, whose graph
  /// is derived from the merged description itself.
  struct LaneIds {
    model::SourceId src_base = 0;
    model::ChannelId ch_base = 0;
    std::string prefix;
  };

  /// Lane view of the inline tdg::Engine. It propagates eagerly, so a gated
  /// offer's completion is either known right after the feed or blocked.
  struct InlineLane : LaneIds {
    tdg::Engine* engine = nullptr;
    void on_known(tdg::NodeId n, KnownFn cb) const {
      engine->on_known(n, std::move(cb));
    }
    void set_external(tdg::NodeId n, std::uint64_t k, TimePoint t) const {
      engine->set_external(n, k, t);
    }
    void set_attrs(model::SourceId s, std::uint64_t k,
                   const model::TokenAttrs& a) const {
      engine->set_attrs(s, k, a);
    }
    [[nodiscard]] std::optional<TimePoint> value(tdg::NodeId n,
                                                 std::uint64_t k) const {
      return engine->value(n, k);
    }
    [[nodiscard]] std::optional<TimePoint> resolve(tdg::NodeId n,
                                                   std::uint64_t k) const {
      return engine->value(n, k);
    }
    [[nodiscard]] std::optional<model::TokenAttrs> attrs_of(
        model::SourceId s, std::uint64_t k) const {
      return engine->attrs_of(s, k);
    }
    void set_retain_floor(std::uint64_t k) const { engine->set_retain_floor(k); }
  };

  /// Lane view of one sub-batch member: lane \p inst of a tdg::BatchEngine,
  /// whose feeds compute at the next timestep drain. A gated offer whose
  /// completion is already computable is answered inline (resolve_now —
  /// the inline-resume fast path, docs/DESIGN.md §10).
  struct BatchLane : LaneIds {
    tdg::BatchEngine* engine = nullptr;
    std::size_t inst = 0;
    void on_known(tdg::NodeId n, KnownFn cb) const {
      engine->on_known(inst, n, std::move(cb));
    }
    void set_external(tdg::NodeId n, std::uint64_t k, TimePoint t) const {
      engine->set_external(inst, n, k, t);
    }
    void set_attrs(model::SourceId s, std::uint64_t k,
                   const model::TokenAttrs& a) const {
      engine->set_attrs(inst, s, k, a);
    }
    [[nodiscard]] std::optional<TimePoint> value(tdg::NodeId n,
                                                 std::uint64_t k) const {
      return engine->value(inst, n, k);
    }
    [[nodiscard]] std::optional<TimePoint> resolve(tdg::NodeId n,
                                                   std::uint64_t k) const {
      return engine->resolve_now(inst, n, k);
    }
    [[nodiscard]] std::optional<model::TokenAttrs> attrs_of(
        model::SourceId s, std::uint64_t k) const {
      return engine->attrs_of(inst, s, k);
    }
    void set_retain_floor(std::uint64_t k) const {
      engine->set_retain_floor(inst, k);
    }
  };

  /// The boundaries one lane serves. Its retain floor is the minimum over
  /// exactly these consumers.
  template <class Lane>
  struct Member {
    Lane lane;
    std::vector<InputState> inputs;
    std::vector<OutputState> outputs;
  };

  /// One equal-structure sub-batch at run time.
  struct Group {
    model::DescPtr base;
    std::vector<bool> gflags;  // base-level, expanded
    std::vector<std::string> names;
    std::vector<InstanceSpan> spans;
    CompiledPtr compiled;  ///< frozen base graph + program + boundaries
    std::unique_ptr<tdg::BatchEngine> engine;
  };

  template <class Lane>
  static Member<Lane> bind(Lane lane, const CompiledAbstraction& c);
  template <class Lane>
  void wire(std::vector<Member<Lane>>& members);
  template <class Lane>
  void wire_input(Member<Lane>& m, std::size_t idx);
  template <class Lane>
  void wire_output(Member<Lane>& m, std::size_t idx);
  template <class Lane>
  sim::Process emission_proc(Member<Lane>& m, std::size_t idx);
  template <class Lane>
  sim::Process virtual_fifo_reader_proc(Member<Lane>& m, std::size_t idx);
  template <class Lane>
  static void raise_retain_floor(Member<Lane>& m);
  template <class Lane>
  static void report_parked(const std::vector<Member<Lane>>& members,
                            std::vector<std::string>& gates);
  void build_group(Group& g, const Options& opts);
  /// The timestep hook: compute every group's fronts, then publish.
  bool drain_groups();

  model::DescPtr desc_;
  std::vector<bool> group_;
  CompiledPtr compiled_;  ///< inline abstraction; null when there is none
  std::unique_ptr<tdg::Engine> engine_;
  std::vector<Group> groups_;
  std::vector<Member<InlineLane>> inline_;  ///< 0 or 1 member
  std::vector<Member<BatchLane>> lanes_;    ///< group-major, then member
  /// Declared after the boundary state its channels and processes refer
  /// to, so it is destroyed first.
  std::unique_ptr<model::ModelRuntime> runtime_;
  /// Present only when Options::threads enables the parallel compute phase.
  std::unique_ptr<util::ThreadPool> pool_;
  /// Per-group "flush did work" flags of one hook invocation (char, not
  /// bool: vector<bool> packs bits and adjacent writes would race).
  std::vector<char> drained_;
};

}  // namespace maxev::core
