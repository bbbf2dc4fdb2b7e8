#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "core/equivalent_model.hpp"
#include "model/token.hpp"
#include "serve/wire.hpp"
#include "sim/kernel.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"
#include "util/json.hpp"
#include "util/time.hpp"

/// \file session.hpp
/// Streaming evaluation sessions (docs/DESIGN.md §13): a scenario whose
/// source tokens arrive incrementally instead of from a pre-known table.
///
/// A Session wraps one core::EquivalentModel (simulation kernel + TDG
/// engine). Sources marked `{"type": "stream"}` in the wire document are
/// bound to feedable token buffers; everything else behaves exactly as in
/// a one-shot run. Each poll() advances the kernel to the *stream
/// watermark* — the largest horizon at which no behavioural function of an
/// unfed token can be evaluated — using the kernel's pinned horizon-resume
/// primitive, so the concatenation of incremental advances is bit-identical
/// to a single uninterrupted run over the same tokens. poll() then hands
/// back the instants and busy intervals recorded since the previous poll
/// as cursor ranges over the model's own trace columns — no copy.
///
/// Sessions built from one scenario text share one program-cache entry:
/// their compile keys carry that text (core/compiled.hpp), so a warm
/// submit, and a restore of a checkpoint whose scenario a live or earlier
/// session already compiled, skip derive → compile. The entry keeps the
/// description of the session that compiled it, whose stream sources
/// hold their buffers weakly: closing a session frees its fed tokens even
/// while its scenario stays cached.
///
/// checkpoint() serializes the session as a deterministic-replay document:
/// the original scenario text, every fed token, and the horizon advanced
/// to. restore() rebuilds the model from scratch, re-feeds, re-advances,
/// and validates the kernel's time and dispatched-event counters against
/// the checkpointed values — replay divergence is a SessionError, not a
/// silent drift.

namespace maxev::serve {

/// Session-protocol violations: feeding a non-stream source, non-monotone
/// feeds, malformed or diverging checkpoints.
class SessionError : public Error {
 public:
  using Error::Error;
};

class Session final : private StreamSourceFactory {
 public:
  struct Options {
    /// Execution limits applied to every advance (sim::RunGuards).
    sim::RunGuards guards;
    /// Observation-sink capacity hint (see core::EquivalentModel).
    std::size_t expected_iterations = 0;
    /// Shared program cache (requests carry the scenario text as their
    /// key); null = compile privately.
    core::CompiledProvider* compiled = nullptr;
  };

  /// One fed token of a stream source.
  struct FedToken {
    std::int64_t earliest_ps = 0;
    model::TokenAttrs attrs;
  };

  /// Build a session from a `{"maxev_wire": 1, ...}` scenario document.
  /// The text is retained verbatim for checkpoints.
  explicit Session(std::string scenario_json);
  Session(std::string scenario_json, Options opts);
  /// Build a session from an already parsed scenario document (a submit
  /// request's `scenario` object): the description is read from the tree,
  /// and its json_dump() text is what checkpoints carry.
  Session(const JsonValue& scenario, Options opts);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Append tokens to stream source \p source (index into the wire
  /// document's source array). Earliest instants must be non-decreasing,
  /// both within the batch and against what is already fed; the total may
  /// not exceed the source's declared count.
  void feed(std::size_t source, const std::vector<FedToken>& tokens);

  /// Newly recorded instants of one relation since the previous poll:
  /// rows [start_k, end_k) of the model's series, read in place. Traces
  /// only grow, so the range stays valid (and its rows unchanged) for as
  /// long as the session lives; later polls append past end_k.
  struct SeriesDelta {
    const trace::InstantSeries* series = nullptr;
    std::uint64_t start_k = 0;  ///< iteration index of the first instant
    std::uint64_t end_k = 0;
  };

  /// Newly recorded busy intervals of one resource since the previous
  /// poll: rows [start_index, end_index) of the model's usage columns,
  /// read in place, with the same lifetime as SeriesDelta.
  struct UsageDelta {
    const trace::UsageTrace* trace = nullptr;
    std::uint64_t start_index = 0;
    std::uint64_t end_index = 0;
  };

  struct Delta {
    bool ran = false;        ///< an advance happened
    bool blocked = false;    ///< a stream source has no usable token yet
    bool completed = false;  ///< the scenario ran to completion
    sim::StopReason stop = sim::StopReason::kIdle;  ///< last advance outcome
    std::string stall_report;  ///< non-empty when stalled or guard-stopped
    std::int64_t now_ps = 0;   ///< kernel time after the advance
    std::vector<SeriesDelta> instants;
    std::vector<UsageDelta> usage;
  };

  /// Advance to the current stream watermark (unbounded once every stream
  /// source is fully fed) and collect the trace deltas.
  Delta poll();

  /// Serialize for deterministic replay. \pre not mid-advance.
  [[nodiscard]] std::string checkpoint() const;

  /// Rebuild a session from a checkpoint() document: re-feed, re-advance,
  /// validate the replayed kernel counters and the trace cursors. Throws
  /// SessionError on malformed documents or replay divergence.
  [[nodiscard]] static std::unique_ptr<Session> restore(
      std::string_view checkpoint_json);
  [[nodiscard]] static std::unique_ptr<Session> restore(
      std::string_view checkpoint_json, Options opts);

  /// \name Introspection
  /// @{
  [[nodiscard]] const model::ArchitectureDesc& desc() const { return *desc_; }
  [[nodiscard]] const core::EquivalentModel& model() const { return *model_; }
  [[nodiscard]] bool is_stream_source(std::size_t source) const;
  /// Tokens fed so far to stream source \p source.
  [[nodiscard]] std::uint64_t fed(std::size_t source) const;
  [[nodiscard]] bool completed() const { return completed_; }
  /// @}

 private:
  /// Feedable token buffer of one stream source, owned by the session;
  /// the functors handed to the description hold it weakly.
  struct Stream {
    std::size_t source_index = 0;
    std::string name;
    std::uint64_t count = 0;
    std::vector<std::int64_t> earliest_ps;
    std::vector<model::TokenAttrs> attrs;
  };

  Fns make_stream_source(std::size_t source_index, const std::string& name,
                         std::uint64_t count) override;
  /// Bind the streams, build the description and the model from \p doc.
  void build(const JsonValue& doc);
  /// restore() minus the error translation: any maxev::Error escapes.
  static std::unique_ptr<Session> replay_checkpoint(
      std::string_view checkpoint_json, Options opts);

  /// nullopt = blocked; otherwise the horizon to run to (nullopt inside
  /// the optional pair is expressed via `unbounded`).
  struct Watermark {
    bool blocked = false;
    bool unbounded = false;
    TimePoint until = TimePoint::origin();
  };
  [[nodiscard]] Watermark watermark() const;

  /// Run the kernel to \p w if it extends past what has already run;
  /// updates advanced_/completed_ and the outcome fields of \p d.
  void advance(const Watermark& w, Delta& d);
  void collect_deltas(Delta& d);

  std::shared_ptr<const std::string> scenario_json_;  ///< the cache key text
  Options opts_;
  std::vector<std::shared_ptr<Stream>> streams_;  // in factory-call order
  std::map<std::size_t, std::size_t> stream_by_source_;
  model::DescPtr desc_;
  std::unique_ptr<core::EquivalentModel> model_;

  std::optional<std::int64_t> advanced_ps_;  ///< highest bounded horizon run
  bool completed_ = false;
  sim::StopReason last_stop_ = sim::StopReason::kIdle;
  std::string last_stall_report_;
  std::map<std::string, std::size_t> instant_cursors_;
  std::map<std::string, std::size_t> usage_cursors_;
};

}  // namespace maxev::serve
