/// \file test_serve.cpp
/// The serve subsystem (docs/DESIGN.md §13): wire-format round-trips,
/// the structural-hash program cache, streaming sessions with
/// checkpoint/restore, and the line protocol. The load-bearing claims:
/// a description survives serialization structurally intact, incremental
/// feeding is bit-identical to a one-shot run, and a restored checkpoint
/// continues exactly where the original left off.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "core/equivalent_model.hpp"
#include "gen/didactic.hpp"
#include "gen/random_arch.hpp"
#include "model/desc.hpp"
#include "serve/program_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "study/study.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using namespace maxev;

// ------------------------------------------------------------- helpers ----

gen::DidacticConfig small_didactic() {
  gen::DidacticConfig cfg;
  cfg.tokens = 9;
  // A spaced-out source: with the default period of 0 every token releases
  // at the origin and the stream watermark (earliest[fed-1] - 1ps) stays
  // negative until the source is fully fed — nothing would stream.
  cfg.source_period = Duration::us(10);
  return cfg;
}

/// The didactic scenario with its source turned into a stream: the wire
/// document declares `{"type":"stream"}` and the caller feeds the tokens.
std::string streamified_didactic(const gen::DidacticConfig& cfg) {
  const JsonValue doc =
      json_parse(serve::desc_to_json(gen::make_didactic(cfg)));
  auto root = doc.members();
  auto d = root.at("desc").members();
  std::vector<JsonValue> sources;
  for (const JsonValue& src : d.at("sources").items()) {
    auto s = src.members();
    s["earliest"] =
        JsonValue::object({{"type", JsonValue::string("stream")}});
    s.erase("attrs");
    s.erase("gap");
    sources.push_back(JsonValue::object(std::move(s)));
  }
  d["sources"] = JsonValue::array(std::move(sources));
  root["desc"] = JsonValue::object(std::move(d));
  return json_dump(JsonValue::object(std::move(root)));
}

/// The full token set of the didactic source, straight from the
/// generator's behavioural functions.
std::vector<serve::Session::FedToken> didactic_tokens(
    const gen::DidacticConfig& cfg) {
  const model::ArchitectureDesc desc = gen::make_didactic(cfg);
  const model::SourceDesc& src = desc.sources().front();
  std::vector<serve::Session::FedToken> tokens;
  for (std::uint64_t k = 0; k < src.count; ++k)
    tokens.push_back({src.earliest(k).count(), src.attrs(k)});
  return tokens;
}

/// The instants a poll delta covers, read out of the session's trace.
std::vector<std::int64_t> instants_of(const serve::Session::SeriesDelta& sd) {
  std::vector<std::int64_t> out;
  for (std::uint64_t k = sd.start_k; k < sd.end_k; ++k)
    out.push_back(sd.series->at(k).count());
  return out;
}

/// One-shot reference run of the same didactic configuration.
struct OneShot {
  std::unique_ptr<core::EquivalentModel> model;
  explicit OneShot(const gen::DidacticConfig& cfg)
      : model(std::make_unique<core::EquivalentModel>(gen::make_didactic(cfg),
                                                      std::vector<bool>{})) {
    const auto out = model->run();
    EXPECT_TRUE(out.completed);
  }
};

void expect_matches_one_shot(const serve::Session& session,
                             const OneShot& ref) {
  const auto instant_diff =
      trace::compare_instants(ref.model->instants(), session.model().instants());
  EXPECT_FALSE(instant_diff.has_value()) << *instant_diff;
  const auto usage_diff =
      trace::compare_usage(ref.model->usage(), session.model().usage());
  EXPECT_FALSE(usage_diff.has_value()) << *usage_diff;
  EXPECT_EQ(session.model().end_time().count(),
            ref.model->end_time().count());
}

// ------------------------------------------------------ wire: descs ----

TEST(WireDescTest, DidacticRoundTripIsStructurallyEqual) {
  const model::ArchitectureDesc a = gen::make_didactic(small_didactic());
  const model::ArchitectureDesc b =
      serve::desc_from_json(serve::desc_to_json(a));
  EXPECT_TRUE(model::structurally_equal(a, b));
  EXPECT_EQ(model::structural_hash(a), model::structural_hash(b));
}

TEST(WireDescTest, DumpLoadDumpIsByteIdentical) {
  const std::string doc1 =
      serve::desc_to_json(gen::make_didactic(small_didactic()));
  const std::string doc2 =
      serve::desc_to_json(serve::desc_from_json(doc1));
  EXPECT_EQ(doc1, doc2);
}

TEST(WireDescTest, RandomArchitecturesRoundTripAcrossSeeds) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 4;
  cfg.multi_rate_producer_probability = 0.4;  // multi-rate bundles too
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const model::ArchitectureDesc a =
        gen::make_random_architecture(seed, cfg);
    const std::string doc1 = serve::desc_to_json(a);
    const model::ArchitectureDesc b = serve::desc_from_json(doc1);
    EXPECT_TRUE(model::structurally_equal(a, b)) << "seed " << seed;
    EXPECT_EQ(doc1, serve::desc_to_json(b)) << "seed " << seed;
  }
}

TEST(WireDescTest, RejectsWrongVersionAndMissingMembers) {
  EXPECT_THROW((void)serve::desc_from_json(R"({"desc":{}})"),
               serve::WireError);
  EXPECT_THROW(
      (void)serve::desc_from_json(R"({"maxev_wire":99,"desc":{}})"),
      serve::WireError);
  EXPECT_THROW((void)serve::desc_from_json(R"({"maxev_wire":1})"),
               serve::WireError);
}

TEST(WireDescTest, OpaqueLoadRoundTripsStructurallyButStubThrows) {
  // A hand-written lambda load cannot be introspected: it serializes as
  // {"type":"opaque"} and loads back as a stub that throws when called.
  model::ArchitectureDesc d;
  const auto r = d.add_resource("cpu", model::ResourcePolicy::kConcurrent,
                                1e9);
  const auto ch = d.add_rendezvous("in");
  const auto out = d.add_rendezvous("out");
  const auto f = d.add_function("f", r);
  d.fn_read(f, ch);
  d.fn_execute(f, [](const model::TokenAttrs& a, std::uint64_t) {
    return a.size * 3;
  });
  d.fn_write(f, out);
  d.add_source("src", ch, 2,
               [](std::uint64_t k) {
                 return TimePoint::at_ps(static_cast<std::int64_t>(k) * 10);
               },
               [](std::uint64_t) { return model::TokenAttrs{}; });
  d.add_sink("sink", out);
  d.validate();

  const model::ArchitectureDesc back =
      serve::desc_from_json(serve::desc_to_json(d));
  EXPECT_TRUE(model::structurally_equal(d, back));
  const model::LoadFn& load = back.functions()[0].body[1].load;
  EXPECT_THROW((void)load(model::TokenAttrs{}, 0), serve::WireError);
}

TEST(WireDescTest, StreamSourceRequiresFactory) {
  const std::string doc = streamified_didactic(small_didactic());
  EXPECT_THROW((void)serve::desc_from_json(doc), serve::WireError);
}

// --------------------------------------------------- wire: programs ----

TEST(WireProgramTest, DumpLoadDumpIsByteIdentical) {
  const core::CompiledPtr compiled =
      core::compile_abstraction(core::CompiledKey::make(
          model::share(gen::make_didactic(small_didactic())), {}, true, 0));
  const std::string doc1 = serve::program_to_json(compiled->program);
  const tdg::Program back = serve::program_from_json(doc1);
  EXPECT_EQ(doc1, serve::program_to_json(back));
  EXPECT_EQ(back.n_nodes, compiled->program.n_nodes);
}

TEST(WireProgramTest, RejectsCorruptTables) {
  const core::CompiledPtr compiled =
      core::compile_abstraction(core::CompiledKey::make(
          model::share(gen::make_didactic(small_didactic())), {}, true, 0));
  const JsonValue doc =
      json_parse(serve::program_to_json(compiled->program));
  auto members = doc.members();
  // Truncate a parallel table: the loader's shape validation must throw.
  members["static_pending"] = JsonValue::array({JsonValue::integer(0)});
  EXPECT_THROW(
      (void)serve::program_from_json(json_dump(JsonValue::object(members))),
      serve::WireError);
}

// Program::compile pushes one guard per guarded arc, so n_guards can never
// exceed the arc count; a larger count is rejected before it sizes the
// guard table.
TEST(WireProgramTest, RejectsGuardCountAboveArcCount) {
  const core::CompiledPtr compiled =
      core::compile_abstraction(core::CompiledKey::make(
          model::share(gen::make_didactic(small_didactic())), {}, true, 0));
  const JsonValue doc =
      json_parse(serve::program_to_json(compiled->program));
  const auto n_arcs =
      static_cast<std::int64_t>(compiled->program.in_src.size());
  for (const std::int64_t n_guards : {n_arcs + 1, std::int64_t{1} << 40}) {
    auto members = doc.members();
    members["n_guards"] = JsonValue::integer(n_guards);
    try {
      (void)serve::program_from_json(json_dump(JsonValue::object(members)));
      ADD_FAILURE() << "n_guards " << n_guards << " accepted";
    } catch (const serve::WireError& e) {
      EXPECT_NE(std::string(e.what()).find("program.n_guards"),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------------ program cache ----

TEST(ProgramCacheTest, CountsHitsAndMisses) {
  serve::ProgramCache cache(4);
  const model::DescPtr desc =
      model::share(gen::make_didactic(small_didactic()));
  const auto key = core::CompiledKey::make(desc, {}, true, 0);
  bool hit = true;
  const core::CompiledPtr first = cache.get(key, &hit);
  EXPECT_FALSE(hit);
  const core::CompiledPtr second = cache.get(key, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(ProgramCacheTest, CanonicalizesEmptyGroupToAllFunctions) {
  serve::ProgramCache cache(4);
  const model::DescPtr desc =
      model::share(gen::make_didactic(small_didactic()));
  (void)cache.get(core::CompiledKey::make(desc, {}, true, 0));
  const std::vector<bool> all(desc->functions().size(), true);
  bool hit = false;
  (void)cache.get(core::CompiledKey::make(desc, all, true, 0), &hit);
  EXPECT_TRUE(hit);  // the empty-group shorthand unifies with all-true
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(ProgramCacheTest, EvictsLeastRecentlyUsed) {
  serve::ProgramCache cache(2);
  auto desc_of = [](std::uint64_t tokens) {
    gen::DidacticConfig cfg;
    cfg.tokens = tokens;
    return model::share(gen::make_didactic(cfg));
  };
  const model::DescPtr a = desc_of(3), b = desc_of(4), c = desc_of(5);
  const auto key = [](const model::DescPtr& d) {
    return core::CompiledKey::make(d, {}, true, 0);
  };
  (void)cache.get(key(a));
  (void)cache.get(key(b));
  (void)cache.get(key(a));  // a is now most recently used
  (void)cache.get(key(c));  // evicts b
  EXPECT_TRUE(cache.contains(key(a)));
  EXPECT_FALSE(cache.contains(key(b)));
  EXPECT_TRUE(cache.contains(key(c)));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
}

// ------------------------------------------------------------ session ----

TEST(SessionTest, PollBeforeAnyFeedIsBlocked) {
  serve::Session session(streamified_didactic(small_didactic()));
  const serve::Session::Delta d = session.poll();
  EXPECT_TRUE(d.blocked);
  EXPECT_FALSE(d.completed);
  EXPECT_TRUE(d.instants.empty());
}

TEST(SessionTest, IncrementalFeedIsBitIdenticalToOneShot) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  ASSERT_EQ(tokens.size(), 9u);

  serve::Session session(streamified_didactic(cfg));
  ASSERT_TRUE(session.is_stream_source(0));
  // Three feed/poll rounds of 3 tokens each, then a completing poll.
  for (std::size_t round = 0; round < 3; ++round) {
    session.feed(0, {tokens.begin() + 3 * round,
                     tokens.begin() + 3 * (round + 1)});
    const serve::Session::Delta d = session.poll();
    EXPECT_FALSE(d.blocked);
  }
  const serve::Session::Delta final_delta = session.poll();
  EXPECT_TRUE(final_delta.completed);
  EXPECT_TRUE(session.completed());

  expect_matches_one_shot(session, OneShot(cfg));
}

TEST(SessionTest, DeltasAreCursorsOverTheFullTraces) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::Session session(streamified_didactic(cfg));

  std::map<std::string, std::vector<std::int64_t>> accumulated;
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    session.feed(0, {tokens[k]});
    for (const auto& sd : session.poll().instants) {
      auto& arr = accumulated[sd.series->name()];
      ASSERT_EQ(sd.start_k, arr.size()) << sd.series->name();
      const std::vector<std::int64_t> delta = instants_of(sd);
      arr.insert(arr.end(), delta.begin(), delta.end());
    }
  }
  for (const auto& sd : session.poll().instants) {
    auto& arr = accumulated[sd.series->name()];
    ASSERT_EQ(sd.start_k, arr.size()) << sd.series->name();
    const std::vector<std::int64_t> delta = instants_of(sd);
    arr.insert(arr.end(), delta.begin(), delta.end());
  }

  for (const auto& [name, series] : session.model().instants().all()) {
    const auto it = accumulated.find(name);
    ASSERT_NE(it, accumulated.end()) << name;
    ASSERT_EQ(it->second.size(), series.size()) << name;
    for (std::size_t k = 0; k < series.size(); ++k)
      EXPECT_EQ(it->second[k], series.at(k).count()) << name << "[" << k << "]";
  }
}

TEST(SessionTest, FeedValidatesProtocol) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::Session session(streamified_didactic(cfg));

  EXPECT_THROW(session.feed(7, {tokens[0]}), serve::SessionError);
  session.feed(0, {tokens[0], tokens[1]});
  // Regressing earliest instants violates source monotonicity.
  EXPECT_THROW(session.feed(0, {{tokens[1].earliest_ps - 1, {}}}),
               serve::SessionError);
  // Overfeeding past the declared count.
  std::vector<serve::Session::FedToken> rest(tokens.begin() + 2,
                                             tokens.end());
  rest.push_back({tokens.back().earliest_ps + 1, {}});
  EXPECT_THROW(session.feed(0, rest), serve::SessionError);
  EXPECT_EQ(session.fed(0), 2u);
}

TEST(SessionTest, CheckpointRestoreContinuesBitIdentical) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);

  serve::Session original(streamified_didactic(cfg));
  original.feed(0, {tokens.begin(), tokens.begin() + 4});
  (void)original.poll();

  const std::string ckpt = original.checkpoint();
  std::unique_ptr<serve::Session> restored = serve::Session::restore(ckpt);
  EXPECT_EQ(restored->fed(0), 4u);

  // Drive BOTH sessions through the same remaining rounds: every delta
  // must be identical, and both must land exactly on the one-shot traces.
  auto drive = [&](serve::Session& s) {
    std::vector<serve::Session::Delta> deltas;
    s.feed(0, {tokens.begin() + 4, tokens.begin() + 7});
    deltas.push_back(s.poll());
    s.feed(0, {tokens.begin() + 7, tokens.end()});
    deltas.push_back(s.poll());
    return deltas;
  };
  const auto da = drive(original);
  const auto db = drive(*restored);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].now_ps, db[i].now_ps);
    ASSERT_EQ(da[i].instants.size(), db[i].instants.size());
    for (std::size_t j = 0; j < da[i].instants.size(); ++j) {
      EXPECT_EQ(da[i].instants[j].series->name(),
                db[i].instants[j].series->name());
      EXPECT_EQ(da[i].instants[j].start_k, db[i].instants[j].start_k);
      EXPECT_EQ(instants_of(da[i].instants[j]), instants_of(db[i].instants[j]));
    }
  }
  EXPECT_TRUE(original.completed());
  EXPECT_TRUE(restored->completed());

  const OneShot ref(cfg);
  expect_matches_one_shot(original, ref);
  expect_matches_one_shot(*restored, ref);
}

TEST(SessionTest, RestoreRejectsTamperedCheckpoint) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::Session session(streamified_didactic(cfg));
  session.feed(0, {tokens.begin(), tokens.begin() + 4});
  (void)session.poll();

  const JsonValue doc = json_parse(session.checkpoint());
  auto members = doc.members();
  members["now_ps"] = JsonValue::integer(members.at("now_ps").as_int64() + 1);
  EXPECT_THROW(
      (void)serve::Session::restore(json_dump(JsonValue::object(members))),
      serve::SessionError);
}

/// A checkpoint of the small didactic session after 4 fed tokens and one
/// poll, with \p edit applied to its top-level members.
template <typename Edit>
std::string tampered_checkpoint(Edit edit) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::Session session(streamified_didactic(cfg));
  session.feed(0, {tokens.begin(), tokens.begin() + 4});
  (void)session.poll();
  const JsonValue doc = json_parse(session.checkpoint());
  auto members = doc.members();
  edit(members);
  return json_dump(JsonValue::object(std::move(members)));
}

/// The SessionError message restore() raises on \p checkpoint ("" when
/// it accepts the checkpoint).
std::string restore_error(const std::string& checkpoint) {
  try {
    (void)serve::Session::restore(checkpoint);
  } catch (const serve::SessionError& e) {
    return e.what();
  }
  return "";
}

TEST(SessionTest, RestoreChecksUsageCursors) {
  using Members = std::map<std::string, JsonValue>;
  // Untouched, the checkpoint restores.
  EXPECT_EQ(restore_error(tampered_checkpoint([](Members&) {})), "");
  // A usage cursor past the replayed trace.
  const std::string past = restore_error(tampered_checkpoint([](Members& m) {
    auto cursors = m.at("usage_cursors").members();
    ASSERT_TRUE(cursors.count("P1"));
    cursors["P1"] = JsonValue::integer(cursors.at("P1").as_int64() + 1000);
    m["usage_cursors"] = JsonValue::object(std::move(cursors));
  }));
  EXPECT_NE(past.find("'P1'"), std::string::npos) << past;
  // A usage cursor for a resource the model does not have.
  const std::string unknown =
      restore_error(tampered_checkpoint([](Members& m) {
        auto cursors = m.at("usage_cursors").members();
        cursors["P9"] = JsonValue::integer(0);
        m["usage_cursors"] = JsonValue::object(std::move(cursors));
      }));
  EXPECT_NE(unknown.find("'P9'"), std::string::npos) << unknown;
}

TEST(SessionTest, RestoreReadsTokenAttrsLikeFeed) {
  using Members = std::map<std::string, JsonValue>;
  // Replace the params of the first fed token's attrs.
  const auto with_params = [](JsonValue params) {
    return tampered_checkpoint([&params](Members& m) {
      auto stream = m.at("streams")[0].members();
      std::vector<JsonValue> attrs = stream.at("attrs").items();
      auto first = attrs[0].members();
      first["params"] = params;
      attrs[0] = JsonValue::object(std::move(first));
      stream["attrs"] = JsonValue::array(std::move(attrs));
      m["streams"] = JsonValue::array({JsonValue::object(std::move(stream))});
    });
  };
  const std::vector<JsonValue> four(4, JsonValue::number(0.0));
  EXPECT_EQ(restore_error(with_params(JsonValue::array(four))), "");
  const std::vector<JsonValue> three(3, JsonValue::number(0.0));
  EXPECT_NE(restore_error(with_params(JsonValue::array(three))), "");
  EXPECT_NE(restore_error(with_params(JsonValue::number(0.0))), "");

  // feed applies the same rule to the same two malformed attrs.
  serve::Server server;
  const std::string submit = R"({"cmd":"submit","session":"a","scenario":)" +
                             streamified_didactic(small_didactic()) + "}";
  ASSERT_TRUE(json_parse(server.handle(submit)).at("ok").as_bool());
  for (const char* params : {"[0,0,0]", "0"}) {
    const std::string feed =
        R"({"cmd":"feed","session":"a","source":0,"tokens":[)"
        R"({"earliest_ps":0,"attrs":{"size":1,"params":)" +
        std::string(params) + "}}]}";
    EXPECT_FALSE(json_parse(server.handle(feed)).at("ok").as_bool()) << params;
  }
}

TEST(SessionTest, CheckpointRefusesWhileGuardStopped) {
  serve::Session::Options opts;
  opts.guards.max_events = 1;  // trips immediately
  const gen::DidacticConfig cfg = small_didactic();
  serve::Session session(streamified_didactic(cfg), opts);
  session.feed(0, didactic_tokens(cfg));
  const serve::Session::Delta d = session.poll();
  EXPECT_TRUE(sim::is_guard_stop(d.stop));
  EXPECT_THROW((void)session.checkpoint(), serve::SessionError);
}

TEST(SessionTest, SessionsShareACompileCache) {
  serve::ProgramCache cache(4);
  serve::Session::Options opts;
  opts.compiled = &cache;
  const std::string scenario = streamified_didactic(small_didactic());
  serve::Session a(scenario, opts);
  serve::Session b(scenario, opts);
  const auto stats = cache.stats();
  // Two sessions parse the same text into distinct descriptions; a
  // description built from wire text is a function of that text, so the
  // keys compare the text and the second session reuses the first's
  // compile.
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(&a.model().compiled(), &b.model().compiled());
}

TEST(SessionTest, ScenariosDifferingInOneOpRateNeverShareAnEntry) {
  const std::string scenario = streamified_didactic(small_didactic());
  std::string faster = scenario;
  const std::string key = R"("ops_per_second":)";
  const std::size_t at = faster.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = faster.find_first_of(",}", at);
  faster.replace(at + key.size(), end - at - key.size(), "2000000000");
  ASSERT_NE(faster, scenario);

  serve::ProgramCache cache(4);
  serve::Session::Options opts;
  opts.compiled = &cache;
  serve::Session a(scenario, opts);
  serve::Session b(faster, opts);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_NE(&a.model().compiled(), &b.model().compiled());
  EXPECT_NE(a.desc().resources().front().ops_per_second,
            b.desc().resources().front().ops_per_second);
}

TEST(SessionTest, RestoreHitsItsSubmitsEntryAndStaysBitIdentical) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::ProgramCache cache(4);
  serve::Session::Options opts;
  opts.compiled = &cache;

  serve::Session original(streamified_didactic(cfg), opts);
  original.feed(0, {tokens.begin(), tokens.begin() + 4});
  (void)original.poll();
  std::unique_ptr<serve::Session> restored =
      serve::Session::restore(original.checkpoint(), opts);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.size, 1u);

  for (serve::Session* s : {&original, restored.get()}) {
    s->feed(0, {tokens.begin() + 4, tokens.end()});
    EXPECT_TRUE(s->poll().completed);
  }
  const OneShot ref(cfg);
  expect_matches_one_shot(original, ref);
  expect_matches_one_shot(*restored, ref);
}

TEST(SessionTest, ClosedSessionsFedTokensAreNotReachableFromTheCache) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::ProgramCache cache(4);
  serve::Session::Options opts;
  opts.compiled = &cache;

  // The entry keeps the description of the session that compiled it;
  // that description's stream source must not keep the session's fed
  // tokens once the session closes.
  const core::CompiledAbstraction* entry = nullptr;
  {
    serve::Session session(streamified_didactic(cfg), opts);
    session.feed(0, tokens);
    EXPECT_TRUE(session.poll().completed);
    entry = &session.model().compiled();
    ASSERT_EQ(entry->key.desc.get(), &session.desc());
    EXPECT_EQ(entry->key.desc->sources().front().earliest(0).count(),
              tokens[0].earliest_ps);
  }
  ASSERT_EQ(cache.stats().size, 1u);  // the entry outlives the session
  const model::SourceDesc& source = entry->key.desc->sources().front();
  EXPECT_THROW((void)source.earliest(0), serve::SessionError);
  EXPECT_THROW((void)source.attrs(0), serve::SessionError);

  // The entry still serves the next session of the scenario.
  serve::Session next(streamified_didactic(cfg), opts);
  EXPECT_EQ(cache.stats().hits, 1u);
  next.feed(0, tokens);
  EXPECT_TRUE(next.poll().completed);
  expect_matches_one_shot(next, OneShot(cfg));
}

TEST(SessionTest, CacheHitAndPrivateCompileGiveIdenticalTraces) {
  const gen::DidacticConfig cfg = small_didactic();
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  const std::string scenario = streamified_didactic(cfg);
  serve::ProgramCache cache(4);
  serve::Session::Options shared;
  shared.compiled = &cache;

  serve::Session first(scenario, shared);
  serve::Session hit(scenario, shared);
  serve::Session own(scenario);
  ASSERT_EQ(cache.stats().hits, 1u);
  for (serve::Session* s : {&hit, &own}) {
    for (std::size_t k = 0; k < tokens.size(); k += 2) {
      s->feed(0, {tokens.begin() + k,
                  tokens.begin() + std::min(k + 2, tokens.size())});
      (void)s->poll();
    }
    EXPECT_TRUE(s->poll().completed);
  }
  const auto instant_diff =
      trace::compare_instants(own.model().instants(), hit.model().instants());
  EXPECT_FALSE(instant_diff.has_value()) << *instant_diff;
  const auto usage_diff =
      trace::compare_usage(own.model().usage(), hit.model().usage());
  EXPECT_FALSE(usage_diff.has_value()) << *usage_diff;
  EXPECT_EQ(own.model().end_time().count(), hit.model().end_time().count());
  EXPECT_EQ(own.checkpoint(), hit.checkpoint());
}

TEST(SessionTest, NegativeZeroParamSurvivesCheckpointRestore) {
  const gen::DidacticConfig cfg = small_didactic();
  std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  tokens.resize(3);
  tokens[1].attrs.params[0] = -0.0;
  serve::Session original(streamified_didactic(cfg));
  original.feed(0, tokens);
  (void)original.poll();
  const std::string ckpt = original.checkpoint();
  ASSERT_NE(ckpt.find("-0"), std::string::npos);
  // The restored session re-feeds the parsed tokens and checkpoints them
  // again: a param read back as +0 would be written as "0".
  EXPECT_EQ(serve::Session::restore(ckpt)->checkpoint(), ckpt);
}

// ----------------------------------------------------------- protocol ----

TEST(ProtocolTest, ServesFeedPollCheckpointRestoreClose) {
  serve::Server server;
  const std::string scenario = streamified_didactic(small_didactic());
  const std::vector<serve::Session::FedToken> tokens =
      didactic_tokens(small_didactic());

  auto request = [&](const std::string& line) {
    return json_parse(server.handle(line));
  };
  auto feed_line = [&](std::size_t lo, std::size_t hi) {
    JsonWriter w;
    w.begin_object()
        .field("cmd", "feed")
        .field("session", "s")
        .field("source", std::uint64_t{0});
    w.key("tokens").begin_array();
    for (std::size_t k = lo; k < hi; ++k) {
      w.begin_object().field("earliest_ps", tokens[k].earliest_ps);
      w.key("attrs").begin_object().field("size", tokens[k].attrs.size);
      w.key("params").begin_array();
      for (const double p : tokens[k].attrs.params) w.value(p);
      w.end_array().end_object().end_object();
    }
    w.end_array().end_object();
    return w.str();
  };

  JsonWriter submit;
  submit.begin_object()
      .field("cmd", "submit")
      .field("session", "s")
      .field("scenario_json", scenario)
      .end_object();
  const JsonValue sub = request(submit.str());
  ASSERT_TRUE(sub.at("ok").as_bool()) << server.handle(submit.str());
  ASSERT_EQ(sub.at("stream_sources").size(), 1u);

  ASSERT_TRUE(request(feed_line(0, 5)).at("ok").as_bool());
  ASSERT_TRUE(request(R"({"cmd":"poll","session":"s"})").at("ok").as_bool());

  const JsonValue ckpt = request(R"({"cmd":"checkpoint","session":"s"})");
  ASSERT_TRUE(ckpt.at("ok").as_bool());
  ASSERT_TRUE(request(R"({"cmd":"close","session":"s"})").at("ok").as_bool());
  EXPECT_EQ(server.session_count(), 0u);

  JsonWriter restore;
  restore.begin_object()
      .field("cmd", "restore")
      .field("session", "s")
      .field("checkpoint", ckpt.at("checkpoint").as_string())
      .end_object();
  ASSERT_TRUE(request(restore.str()).at("ok").as_bool());

  ASSERT_TRUE(request(feed_line(5, tokens.size())).at("ok").as_bool());
  const JsonValue last = request(R"({"cmd":"poll","session":"s"})");
  ASSERT_TRUE(last.at("ok").as_bool());
  EXPECT_TRUE(last.at("completed").as_bool());

  const JsonValue stats = request(R"({"cmd":"stats"})");
  EXPECT_EQ(stats.at("sessions").as_uint64(), 1u);
  EXPECT_GE(stats.at("cache").at("misses").as_uint64(), 1u);
}

TEST(ProtocolTest, PollReplyBytesArePinned) {
  // The exact bytes of a poll reply on the didactic stream scenario: the
  // wire format is a contract with clients, so a writer or delta change
  // must reproduce it to the byte.
  gen::DidacticConfig cfg = small_didactic();
  cfg.tokens = 3;
  const std::vector<serve::Session::FedToken> tokens = didactic_tokens(cfg);
  serve::Server server;
  const std::string submit = R"({"cmd":"submit","session":"p","scenario":)" +
                             streamified_didactic(cfg) + "}";
  ASSERT_TRUE(json_parse(server.handle(submit)).at("ok").as_bool());
  JsonWriter feed;
  feed.begin_object().field("cmd", "feed").field("session", "p");
  feed.field("source", std::uint64_t{0}).key("tokens").begin_array();
  for (std::size_t k = 0; k < 2; ++k) {
    feed.begin_object().field("earliest_ps", tokens[k].earliest_ps);
    feed.key("attrs").begin_object().field("size", tokens[k].attrs.size);
    feed.key("params").begin_array();
    for (const double p : tokens[k].attrs.params) feed.value(p);
    feed.end_array().end_object().end_object();
  }
  feed.end_array().end_object();
  ASSERT_TRUE(json_parse(server.handle(feed.str())).at("ok").as_bool());
  const std::string reply = server.handle(R"({"cmd":"poll","session":"p"})");
  EXPECT_EQ(
      reply,
      R"({"ok":true,"ran":true,"blocked":false,"completed":false,)"
      R"("stop":"horizon","now_ps":9999999,"instants":[)"
      R"({"series":"M1","start_k":0,"instants_ps":[0]},)"
      R"({"series":"M2","start_k":0,"instants_ps":[3630000]},)"
      R"({"series":"M3","start_k":0,"instants_ps":[5495000]},)"
      R"({"series":"M4","start_k":0,"instants_ps":[10590000]},)"
      R"({"series":"M5","start_k":0,"instants_ps":[13820000]}],"usage":[)"
      R"({"resource":"P1","start_index":0,)"
      R"("starts_ps":[0,3630000,5495000],)"
      R"("ends_ps":[3630000,5495000,10590000],"ops":[3630,1865,5095],)"
      R"("labels":["F1.e0","F1.e1","F2.e0"]},)"
      R"({"resource":"P2","start_index":0,)"
      R"("starts_ps":[3630000,10590000,13820000],)"
      R"("ends_ps":[5495000,13820000,15735000],"ops":[3730,6460,3830],)"
      R"("labels":["F3.e0","F3.e1","F4.e0"]}]})");
  // The next poll carries only what is new: an empty delta, same bytes
  // apart from "ran".
  EXPECT_EQ(server.handle(R"({"cmd":"poll","session":"p"})"),
            R"({"ok":true,"ran":false,"blocked":false,"completed":false,)"
            R"("stop":"horizon","now_ps":9999999,"instants":[],"usage":[]})");
}

TEST(ProtocolTest, ErrorsAreReportedInBandNeverThrown) {
  serve::Server server;
  EXPECT_FALSE(json_parse(server.handle("not json")).at("ok").as_bool());
  EXPECT_FALSE(json_parse(server.handle(R"({"cmd":"frobnicate","session":"x"})"))
                   .at("ok")
                   .as_bool());
  EXPECT_FALSE(json_parse(server.handle(R"({"cmd":"poll","session":"nope"})"))
                   .at("ok")
                   .as_bool());
  EXPECT_EQ(server.session_count(), 0u);
}

TEST(ProtocolTest, OverflowingNumberInAScenarioObjectIsRefused) {
  // 1e400 parses to inf, which JsonWriter would write as null: a session
  // built from it could not restore its own checkpoint, so submit refuses
  // it in-band, as it did when the scenario object was dumped and re-read.
  std::string scenario = streamified_didactic(small_didactic());
  const std::string key = R"("ops_per_second":)";
  const std::size_t at = scenario.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = scenario.find_first_of(",}", at);
  scenario.replace(at + key.size(), end - at - key.size(), "1e400");
  serve::Server server;
  const JsonValue reply = json_parse(server.handle(
      R"({"cmd":"submit","session":"o","scenario":)" + scenario + "}"));
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_NE(reply.at("error").as_string().find("out of range"),
            std::string::npos)
      << reply.at("error").as_string();
  EXPECT_EQ(server.session_count(), 0u);
}

TEST(ProtocolTest, DeepNestingIsAnInBandErrorNotACrash) {
  // One 300 KB line of '[' used to recurse the parser off the stack.
  const std::string line(300 * 1024, '[');
  serve::Server server;
  const JsonValue reply = json_parse(server.handle(line));
  EXPECT_FALSE(reply.at("ok").as_bool());
  const std::string& error = reply.at("error").as_string();
  EXPECT_NE(error.find("nesting depth 257 exceeds the limit of 256"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("at offset 256"), std::string::npos) << error;
  // The server is still usable afterwards.
  EXPECT_TRUE(json_parse(server.handle(R"({"cmd":"stats"})")).at("ok").as_bool());
}

TEST(ProtocolTest, OversizedRequestIsRefusedNamingTheLimit) {
  serve::Server server;
  // A valid request padded to exactly the limit is served.
  std::string at_limit = R"({"cmd":"stats"})";
  at_limit.resize(serve::kMaxRequestBytes, ' ');
  EXPECT_TRUE(json_parse(server.handle(at_limit)).at("ok").as_bool());
  // One byte more is refused unparsed, naming the limit.
  at_limit.push_back(' ');
  const JsonValue reply = json_parse(server.handle(at_limit));
  EXPECT_FALSE(reply.at("ok").as_bool());
  const std::string& error = reply.at("error").as_string();
  EXPECT_NE(error.find("exceeds the limit of " +
                       std::to_string(serve::kMaxRequestBytes) + " bytes"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("kMaxRequestBytes"), std::string::npos) << error;
}

TEST(ProtocolTest, RequestLineReaderBoundsEachLine) {
  const std::string stats = R"({"cmd":"stats"})";
  std::istringstream in(stats + "\n" +
                        std::string(serve::kMaxRequestBytes + 10, 'x') +
                        "\n\n" + stats);
  serve::Server server;
  std::string line;
  ASSERT_TRUE(serve::read_request_line(in, line));
  EXPECT_EQ(line, stats);
  // The long line is consumed to its end but kept only to one byte past
  // the limit, which handle() refuses.
  ASSERT_TRUE(serve::read_request_line(in, line));
  EXPECT_EQ(line.size(), serve::kMaxRequestBytes + 1);
  EXPECT_FALSE(json_parse(server.handle(line)).at("ok").as_bool());
  ASSERT_TRUE(serve::read_request_line(in, line));
  EXPECT_TRUE(line.empty());
  // The last line needs no newline.
  ASSERT_TRUE(serve::read_request_line(in, line));
  EXPECT_EQ(line, stats);
  EXPECT_FALSE(serve::read_request_line(in, line));
}

// ------------------------------------------------------------ json ----

TEST(JsonParseTest, NestingLimitCountsArraysAndObjects) {
  const auto nested = [](std::size_t depth) {
    std::string s;
    for (std::size_t i = 0; i < depth; ++i) s += i % 2 == 0 ? "[" : "{\"a\":";
    s += "1";
    for (std::size_t i = depth; i-- > 0;) s += i % 2 == 0 ? "]" : "}";
    return s;
  };
  EXPECT_NO_THROW((void)json_parse(nested(kJsonMaxDepth)));
  try {
    (void)json_parse(nested(kJsonMaxDepth + 1));
    ADD_FAILURE() << "expected a nesting-depth error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nesting depth 257"), std::string::npos) << what;
  }
}

// ------------------------------------------------- study integration ----

TEST(StudyCacheTest, RepetitionsHitTheSharedCache) {
  gen::DidacticConfig cfg;
  cfg.tokens = 5;
  study::Study st;
  st.add(study::Scenario("didactic", gen::make_didactic(cfg)));
  st.add(study::Backend::baseline());
  st.add(study::Backend::equivalent());
  study::StudyOptions opts;
  opts.repetitions = 3;
  const study::Report rep = st.run(opts);
  const study::Cell& eq = rep.at("didactic", "equivalent");
  // Rep 0 compiles, reps 1..2 reuse the artifact.
  EXPECT_EQ(eq.cache_misses, 1);
  EXPECT_EQ(eq.cache_hits, 2);
  EXPECT_EQ(rep.at("didactic", "baseline").cache_hits, 0);
}

TEST(StudyCacheTest, SharedDescriptionsHitAcrossScenarios) {
  gen::DidacticConfig cfg;
  cfg.tokens = 5;
  const model::DescPtr desc = model::share(gen::make_didactic(cfg));
  study::Study st;
  st.add(study::Scenario("a", desc));
  st.add(study::Scenario("b", desc));  // same DescPtr: shareable
  st.add(study::Backend::equivalent());
  const study::Report rep = st.run();
  EXPECT_EQ(rep.at("a", "equivalent").cache_misses, 1);
  EXPECT_EQ(rep.at("b", "equivalent").cache_misses, 0);
  EXPECT_EQ(rep.at("b", "equivalent").cache_hits, 1);
}

TEST(StudyCacheTest, CacheOffLeavesSentinels) {
  gen::DidacticConfig cfg;
  cfg.tokens = 5;
  study::Study st;
  st.add(study::Scenario("didactic", gen::make_didactic(cfg)));
  st.add(study::Backend::equivalent());
  study::StudyOptions opts;
  opts.program_cache = false;
  const study::Report rep = st.run(opts);
  EXPECT_EQ(rep.at("didactic", "equivalent").cache_hits, -1);
  EXPECT_EQ(rep.at("didactic", "equivalent").cache_misses, -1);
}

TEST(StudyCacheTest, ReportsAreIdenticalAtEveryThreadCount) {
  gen::DidacticConfig cfg;
  cfg.tokens = 5;
  auto run_at = [&](int threads) {
    study::Study st;
    st.add(study::Scenario("didactic", gen::make_didactic(cfg)));
    st.add(study::Backend::baseline());
    st.add(study::Backend::equivalent());
    study::StudyOptions opts;
    opts.threads = threads;
    study::Report rep = st.run(opts);
    for (study::Cell& c : rep.cells) {
      c.metrics.wall_seconds = 0.0;
      c.speedup_vs_reference = c.is_reference ? 1.0 : 0.0;
    }
    return rep.to_json();
  };
  EXPECT_EQ(run_at(1), run_at(4));
}

}  // namespace
