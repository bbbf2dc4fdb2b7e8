// serve-stream: one closed-loop client driving serve::Server::handle
// in-process. Four sessions of the Table I Example 4 chain, its source
// turned into a stream; each round feeds a chunk and polls, and every few
// rounds one session goes through checkpoint -> close -> restore. Every
// completed session's reassembled deltas are checked against a one-shot
// baseline run of the same table-backed description.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen/chains.hpp"
#include "oneshot.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"
#include "util/json.hpp"

namespace perf {
namespace {

using namespace maxev;

constexpr std::size_t kSessions = 4;

/// Serves stream-typed sources from full token tables: the one-shot
/// stand-in for incremental feeding.
class TableFactory final : public serve::StreamSourceFactory {
 public:
  struct Tokens {
    std::vector<std::int64_t> earliest_ps;
    std::vector<model::TokenAttrs> attrs;
  };
  explicit TableFactory(const std::map<std::size_t, Tokens>& tables)
      : tables_(tables) {}

  Fns make_stream_source(std::size_t source_index, const std::string& name,
                         std::uint64_t count) override {
    const Tokens& t = tables_.at(source_index);
    if (t.earliest_ps.size() != count)
      throw Error("table for stream source '" + name + "' has wrong size");
    return Fns{serve::TableTimeFn{std::make_shared<const std::vector<std::int64_t>>(
                   t.earliest_ps)},
               serve::TableAttrsFn{
                   std::make_shared<const std::vector<model::TokenAttrs>>(
                       t.attrs)}};
  }

 private:
  const std::map<std::size_t, Tokens>& tables_;
};

/// One session's inputs: the stream-typed scenario, its feed requests and
/// the table-backed description the gate's reference runs on.
struct SessionInput {
  std::string name;
  std::string scenario_json;
  std::string submit_line;
  std::vector<std::string> feed_lines;
  std::map<std::size_t, TableFactory::Tokens> tables;
  model::DescPtr table_desc;
  std::string sink_series;
};

std::string feed_line(const std::string& session, std::size_t source,
                      const TableFactory::Tokens& t, std::size_t lo,
                      std::size_t hi) {
  JsonWriter w;
  w.begin_object().field("cmd", "feed").field("session", session);
  w.field("source", static_cast<std::uint64_t>(source));
  w.key("tokens").begin_array();
  for (std::size_t k = lo; k < hi; ++k) {
    w.begin_object().field("earliest_ps", t.earliest_ps[k]);
    w.key("attrs").begin_object().field("size", t.attrs[k].size);
    w.key("params").begin_array();
    for (const double p : t.attrs[k].params) w.value(p);
    w.end_array().end_object().end_object();
  }
  w.end_array().end_object();
  return w.str();
}

/// The Example 4 chain with its sources turned into streams (the
/// `maxev_serve --emit-demo` recipe): the scenario declares
/// `{"type":"stream"}` and the token tables move to the feed requests.
SessionInput make_session(const std::string& name, std::uint64_t seed,
                          std::uint64_t tokens, std::size_t chunk) {
  gen::ChainConfig cfg;
  cfg.blocks = 4;
  cfg.block.tokens = tokens;
  cfg.block.seed = seed;
  // Paced releases, so the stream watermark advances between feeds.
  cfg.block.source_period = Duration::us(10);
  const model::ArchitectureDesc desc = gen::make_chain(cfg);

  SessionInput in;
  in.name = name;
  const JsonValue doc = json_parse(serve::desc_to_json(desc));
  auto root = doc.members();
  auto d = root.at("desc").members();
  std::vector<JsonValue> sources;
  const auto& arr = d.at("sources").items();
  for (std::size_t i = 0; i < arr.size(); ++i) {
    auto s = arr[i].members();
    s["earliest"] = JsonValue::object({{"type", JsonValue::string("stream")}});
    s.erase("attrs");
    s.erase("gap");
    sources.push_back(JsonValue::object(std::move(s)));
    const model::SourceDesc& src = desc.sources()[i];
    TableFactory::Tokens& t = in.tables[i];
    for (std::uint64_t k = 0; k < src.count; ++k) {
      t.earliest_ps.push_back(src.earliest(k).count());
      t.attrs.push_back(src.attrs ? src.attrs(k) : model::TokenAttrs{});
    }
  }
  d["sources"] = JsonValue::array(std::move(sources));
  root["desc"] = JsonValue::object(std::move(d));
  in.scenario_json = json_dump(JsonValue::object(std::move(root)));
  in.submit_line = R"({"cmd":"submit","session":")" + name +
                   R"(","scenario":)" + in.scenario_json + "}";

  for (const auto& [source, t] : in.tables)
    for (std::size_t lo = 0; lo < t.earliest_ps.size(); lo += chunk)
      in.feed_lines.push_back(feed_line(
          name, source, t, lo, std::min(t.earliest_ps.size(), lo + chunk)));

  TableFactory factory(in.tables);
  in.table_desc =
      model::share(serve::desc_from_json(in.scenario_json, &factory));
  const model::SinkDesc& sink = in.table_desc->sinks().at(0);
  in.sink_series = in.table_desc->channels().at(sink.channel).name;
  return in;
}

/// Client-side reassembly of one session's poll deltas.
struct Assembly {
  std::map<std::string, std::vector<std::int64_t>> instants;
  struct Columns {
    std::vector<std::int64_t> starts, ends, ops;
    std::vector<std::string> labels;
  };
  std::map<std::string, Columns> usage;
  std::string error;

  /// Fold one poll reply in; returns sink tokens it delivered.
  std::uint64_t add(const JsonValue& reply, const std::string& sink) {
    std::uint64_t delivered = 0;
    for (const JsonValue& s : reply.at("instants").items()) {
      auto& v = instants[s.at("series").as_string()];
      if (s.at("start_k").as_uint64() != v.size())
        error = "delta of " + s.at("series").as_string() + " out of order";
      for (const JsonValue& t : s.at("instants_ps").items())
        v.push_back(t.as_int64());
      if (s.at("series").as_string() == sink)
        delivered += s.at("instants_ps").size();
    }
    for (const JsonValue& u : reply.at("usage").items()) {
      Columns& c = usage[u.at("resource").as_string()];
      if (u.at("start_index").as_uint64() != c.starts.size())
        error = "usage delta of " + u.at("resource").as_string() +
                " out of order";
      for (const JsonValue& x : u.at("starts_ps").items())
        c.starts.push_back(x.as_int64());
      for (const JsonValue& x : u.at("ends_ps").items())
        c.ends.push_back(x.as_int64());
      for (const JsonValue& x : u.at("ops").items())
        c.ops.push_back(x.as_int64());
      for (const JsonValue& x : u.at("labels").items())
        c.labels.push_back(x.as_string());
    }
    return delivered;
  }

  /// Trace series that differ from \p ref (0 = bit-identical).
  [[nodiscard]] std::uint64_t mismatches(const Reference& ref) const {
    trace::InstantTraceSet is;
    for (const auto& [name, v] : instants) {
      trace::InstantSeries& s = is.series(name);
      for (const std::int64_t t : v) s.push(TimePoint::at_ps(t));
    }
    trace::UsageTraceSet us;
    for (const auto& [name, c] : usage) {
      trace::UsageTrace& t = us.trace(name);
      for (std::size_t i = 0; i < c.starts.size(); ++i)
        t.push(TimePoint::at_ps(c.starts[i]), TimePoint::at_ps(c.ends[i]),
               c.ops[i], t.intern_label(c.labels[i]));
    }
    return count_mismatches(ref, is, us);
  }
};

class Client {
 public:
  Client(Tracer& tracer, const std::vector<SessionInput>& inputs,
         const std::vector<std::unique_ptr<OneShot>>& shots, Gate& gate)
      : tracer_(tracer), inputs_(inputs), shots_(shots), gate_(gate),
        lives_(inputs.size()) {}

  /// One closed-loop round: feed + poll every session; every
  /// kCheckpointEvery rounds one session is checkpointed, closed and
  /// restored. Returns sink tokens delivered.
  std::uint64_t round(std::size_t r);
  void submit_all();

  std::vector<double> feed_s, poll_s, submit_s, checkpoint_s, restore_s;
  double handle_s = 0.0;
  std::uint64_t requests = 0;

 private:
  static constexpr std::size_t kCheckpointEvery = 5;
  struct Life {
    std::size_t next_feed = 0;
    Assembly assembly;
  };

  std::string handle(const std::string& line, std::vector<double>* lat,
                     const char* span);
  JsonValue handle_ok(const std::string& line, std::vector<double>* lat,
                      const char* span);
  void submit(std::size_t i);
  void submit_after_close(std::size_t i);

  Tracer& tracer_;
  const std::vector<SessionInput>& inputs_;
  const std::vector<std::unique_ptr<OneShot>>& shots_;
  Gate& gate_;
  std::vector<Life> lives_;

 public:
  serve::Server server;
};

std::string Client::handle(const std::string& line, std::vector<double>* lat,
                           const char* span) {
  const Clock::time_point t0 = Clock::now();
  std::string reply;
  {
    auto s = tracer_.span(span);
    reply = server.handle(line);
  }
  const double dt = since(t0);
  handle_s += dt;
  ++requests;
  if (lat != nullptr) lat->push_back(dt);
  return reply;
}

JsonValue Client::handle_ok(const std::string& line, std::vector<double>* lat,
                            const char* span) {
  JsonValue reply = json_parse(handle(line, lat, span));
  const JsonValue* ok = reply.find("ok");
  if (ok == nullptr || !ok->as_bool()) {
    const JsonValue* err = reply.find("error");
    gate_.record(false, std::string(span) + ": " +
                            (err != nullptr ? err->as_string() : "no ok"));
  }
  return reply;
}

void Client::submit(std::size_t i) {
  (void)handle_ok(inputs_[i].submit_line, &submit_s,
                  "serve::Server::handle submit");
  lives_[i] = Life{};
}

void Client::submit_after_close(std::size_t i) {
  (void)handle_ok(R"({"cmd":"close","session":")" + inputs_[i].name + R"("})",
                  nullptr, "serve::Server::handle close");
  submit(i);
}

void Client::submit_all() {
  for (std::size_t i = 0; i < inputs_.size(); ++i) submit(i);
}

std::uint64_t Client::round(std::size_t r) {
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const SessionInput& in = inputs_[i];
    Life& life = lives_[i];
    if (life.next_feed < in.feed_lines.size())
      (void)handle_ok(in.feed_lines[life.next_feed++], &feed_s,
                      "serve::Server::handle feed");
    const JsonValue reply =
        handle_ok(R"({"cmd":"poll","session":")" + in.name + R"("})", &poll_s,
                  "serve::Server::handle poll");
    if (!reply.find("instants")) continue;
    delivered += life.assembly.add(reply, in.sink_series);
    if (!reply.at("completed").as_bool()) {
      // Once fully fed, the watermark is unbounded: the poll must finish.
      if (life.next_feed == in.feed_lines.size()) {
        gate_.record(false, in.name + ": fully fed but not completed");
        submit_after_close(i);
      }
      continue;
    }
    // A completed life: gate it, then close and start the next one.
    std::uint64_t mism = 0;
    {
      auto s = tracer_.span("trace comparison");
      mism = life.assembly.mismatches(shots_[i]->reference());
    }
    gate_.trace_mismatches += mism;
    std::string why = life.assembly.error;
    if (why.empty() && mism != 0)
      why = in.name + ": " + std::to_string(mism) +
            " series differ from the one-shot baseline";
    gate_.record(why.empty(), why);
    submit_after_close(i);
  }

  if (r % kCheckpointEvery == kCheckpointEvery - 1) {
    const SessionInput& in = inputs_[(r / kCheckpointEvery) % inputs_.size()];
    const JsonValue ck =
        handle_ok(R"({"cmd":"checkpoint","session":")" + in.name + R"("})",
                  &checkpoint_s, "serve::Server::handle checkpoint");
    (void)handle_ok(R"({"cmd":"close","session":")" + in.name + R"("})",
                    nullptr, "serve::Server::handle close");
    JsonWriter w;
    w.begin_object().field("cmd", "restore").field("session", in.name);
    w.field("checkpoint",
            ck.find("checkpoint") ? ck.at("checkpoint").as_string() : "");
    w.end_object();
    (void)handle_ok(w.str(), &restore_s, "serve::Server::handle restore");
  }
  return delivered;
}

}  // namespace

void set_bypassed_serve(Metrics& m) {
  m.set("serve.requests_per_s", 0.0, "1/s");
  for (const char* n : {"serve.poll_p50_us", "serve.poll_p99_us",
                        "serve.feed_p50_us", "serve.submit_warm_us",
                        "serve.checkpoint_p50_us"})
    m.set(n, 0.0, "us");
  for (const char* n : {"serve.submit_cold_ms", "serve.restore_p50_ms"})
    m.set(n, 0.0, "ms");
  for (const char* n : {"serve.wire_load_s", "serve.wire_dump_s"})
    m.set(n, 0.0, "s");
  for (const char* n : {"serve.cache_hits", "serve.cache_misses"})
    m.set(n, 0.0, "count");
  m.set("serve.cache_hit_ratio", 0.0, "ratio");
  m.set("util.json_parse_ns_per_byte", 0.0, "ns");
}

void run_serve_workload(const RunOptions& o, Tracer& tracer, Outcome& out) {
  Metrics& m = out.metrics;
  const Clock::time_point start = Clock::now();
  const std::uint64_t tokens = o.smoke ? 60 : 400;
  const std::size_t chunk = o.smoke ? 10 : 20;

  SeedRng rng(o.seed);
  std::vector<SessionInput> inputs;
  std::vector<std::unique_ptr<OneShot>> shots;
  for (std::size_t i = 0; i < kSessions; ++i) {
    inputs.push_back(
        make_session("s" + std::to_string(i), rng.next(), tokens, chunk));
    shots.push_back(std::make_unique<OneShot>(
        o, tracer, study::Scenario(inputs.back().name, inputs.back().table_desc)));
  }

  // Cold set-up: a submit on a fresh server (empty program cache). One
  // untimed submit pays the one-time lazy initialisation, then one sample
  // per window, taken after other work, as a user's single submit finds
  // the caches. Reported by the fastest sample, like the throughput.
  std::vector<double> cold;
  const auto cold_submit = [&](std::size_t r) {
    serve::Server fresh;
    const Clock::time_point t0 = Clock::now();
    std::string reply;
    {
      auto s = tracer.span("serve::Server::handle submit");
      reply = fresh.handle(inputs[r % kSessions].submit_line);
    }
    cold.push_back(since(t0));
    out.gate.record(reply.find(R"("ok":true)") != std::string::npos,
                    "cold submit: " + reply.substr(0, 200));
  };
  cold_submit(0);
  cold.clear();

  // Warm-up: every backend once per description; the baseline runs first
  // and its traces are the reference for that description's sessions.
  std::vector<Arm> arms = backend_arms({});
  for (std::size_t i = 0; i < kSessions; ++i) {
    std::vector<Arm> warm = backend_arms({});
    for (Arm& a : warm) (void)shots[i]->rep(a, out.gate);
    if (i == 0) arms = std::move(warm);
  }
  if (o.trace) {
    measure_compile_layers(
        {core::CompiledKey::make(inputs[0].table_desc, {}, true, 0)},
        o.smoke ? 3 : 7, tracer, m);
    std::vector<double> load, dump, parse;
    std::size_t bytes = 0;
    for (std::size_t r = 0; r < (o.smoke ? 3u : 15u); ++r) {
      Clock::time_point t0 = Clock::now();
      {
        auto s = tracer.span("serve::desc_from_json");
        TableFactory factory(inputs[0].tables);
        (void)serve::desc_from_json(inputs[0].scenario_json, &factory);
      }
      load.push_back(since(t0));
      t0 = Clock::now();
      {
        auto s = tracer.span("serve::desc_to_json");
        (void)serve::desc_to_json(*inputs[0].table_desc);
      }
      dump.push_back(since(t0));
      t0 = Clock::now();
      bytes = 0;
      {
        auto s = tracer.span("util::json_parse");
        for (const std::string& line : inputs[0].feed_lines) {
          (void)json_parse(line);
          bytes += line.size();
        }
      }
      parse.push_back(since(t0));
    }
    m.set("serve.wire_load_s", median(load), "s");
    m.set("serve.wire_dump_s", median(dump), "s");
    m.set("util.json_parse_ns_per_byte",
          median(parse) * 1e9 / static_cast<double>(bytes), "ns");
  }

  // Closed loop. A window is kWindow rounds; its throughput is the sink
  // tokens delivered over the time spent inside handle(). After each
  // window one baseline, equivalent and adaptive one-shot rep runs on the
  // first description, interleaved with the stream.
  constexpr std::size_t kWindow = 20;
  Client client(tracer, inputs, shots, out.gate);
  client.submit_all();
  client.submit_s.clear();  // the first submits are not warm
  std::vector<double> window_tps, traced_window_tps;
  const std::size_t min_windows = o.smoke ? 2 : 5;
  std::size_t r = 0;
  for (std::size_t w = 0; w < min_windows || since(start) < o.seconds; ++w) {
    const bool traced = o.trace && w % 2 == 1;
    tracer.set_enabled(traced);
    cold_submit(w);
    const double h0 = client.handle_s;
    std::uint64_t delivered = 0;
    for (std::size_t k = 0; k < kWindow; ++k, ++r)
      delivered += client.round(r);
    (traced ? traced_window_tps : window_tps)
        .push_back(static_cast<double>(delivered) / (client.handle_s - h0));
    for (std::size_t i = 0; i < arms.size(); ++i) {
      Arm& a = arms[(w + i) % arms.size()];
      const double s = shots[0]->rep(a, out.gate);
      (traced ? a.traced_run_s : a.run_s).push_back(s);
    }
  }
  tracer.set_enabled(o.trace);

  report_runs({&arms[0], &arms[1], &arms[2], shots[0].get(), tokens, tokens},
              m);
  // The serve user's throughput is the stream's (its fastest window), not
  // the one-shot run's.
  const auto best = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  };
  m.set("equivalent_tokens_per_s", best(window_tps), "1/s");
  if (o.trace)
    m.set("bench.tracing_overhead",
          best(window_tps) / best(traced_window_tps) - 1.0, "ratio");
  m.set("setup_s", fastest(cold), "s");
  m.set("serve.submit_cold_ms", median(cold) * 1e3, "ms");

  m.set("serve.requests_per_s",
        static_cast<double>(client.requests) / client.handle_s, "1/s");
  m.set("serve.poll_p50_us", percentile(client.poll_s, 50) * 1e6, "us");
  m.set("serve.poll_p99_us", percentile(client.poll_s, 99) * 1e6, "us");
  m.set("serve.feed_p50_us", percentile(client.feed_s, 50) * 1e6, "us");
  m.set("serve.submit_warm_us", median(client.submit_s) * 1e6, "us");
  m.set("serve.checkpoint_p50_us", percentile(client.checkpoint_s, 50) * 1e6,
        "us");
  m.set("serve.restore_p50_ms", percentile(client.restore_s, 50) * 1e3, "ms");
  const serve::ProgramCache::Stats cs = client.server.cache().stats();
  m.set("serve.cache_hits", static_cast<double>(cs.hits), "count");
  m.set("serve.cache_misses", static_cast<double>(cs.misses), "count");
  m.set("serve.cache_hit_ratio",
        static_cast<double>(cs.hits) /
            static_cast<double>(std::max<std::uint64_t>(cs.hits + cs.misses, 1)),
        "ratio");
  // No batched composition here.
  m.set("core.batch.groups", 0.0, "count");
  m.set("core.batch.lanes", 0.0, "count");
  m.set("core.batch.isolated_tokens_per_s", 0.0, "1/s");
  m.set("core.batch.serial_drain_tokens_per_s", 0.0, "1/s");

  out.summary = std::to_string(r) + " closed-loop rounds, " +
                std::to_string(client.requests) + " requests, " +
                std::to_string(client.poll_s.size()) + " polls, " +
                std::to_string(client.restore_s.size()) +
                " checkpoint/restore cycles";
}

}  // namespace perf
