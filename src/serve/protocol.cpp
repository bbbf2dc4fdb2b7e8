#include "serve/protocol.hpp"

#include <utility>

#include "sim/diagnostics.hpp"
#include "util/json.hpp"

namespace maxev::serve {

namespace {

std::string error_response(const std::string& what) {
  JsonWriter w;
  w.begin_object().field("ok", false).field("error", what).end_object();
  return std::move(w).str();
}

const std::string& session_name(const JsonValue& req) {
  const JsonValue* s = req.find("session");
  if (s == nullptr || !s->is_string())
    throw SessionError("protocol: request needs a string 'session'");
  return s->as_string();
}

std::vector<Session::FedToken> parse_tokens(const JsonValue& req) {
  const JsonValue& arr = req.at("tokens");
  if (!arr.is_array())
    throw SessionError("protocol: 'tokens' must be an array");
  std::vector<Session::FedToken> tokens;
  tokens.reserve(arr.size());
  for (const JsonValue& t : arr.items()) {
    Session::FedToken tok;
    tok.earliest_ps = t.at("earliest_ps").as_int64();
    if (const JsonValue* attrs = t.find("attrs"); attrs && !attrs->is_null())
      tok.attrs = token_attrs_from_json(*attrs, "feed");
    tokens.push_back(std::move(tok));
  }
  return tokens;
}

/// The poll reply body, streamed straight from the delta's trace columns.
void write_delta(JsonWriter& w, const Session::Delta& d) {
  w.field("ok", true);
  w.field("ran", d.ran);
  w.field("blocked", d.blocked);
  w.field("completed", d.completed);
  w.field("stop", sim::to_string(d.stop));
  w.field("now_ps", d.now_ps);
  if (!d.stall_report.empty()) w.field("stall_report", d.stall_report);
  const auto column = [&w](const char* key, std::uint64_t lo,
                           std::uint64_t hi, const auto& value_at) {
    w.key(key).begin_array();
    for (std::uint64_t i = lo; i < hi; ++i) w.value(value_at(i));
    w.end_array();
  };
  w.key("instants").begin_array();
  for (const Session::SeriesDelta& s : d.instants) {
    const std::vector<TimePoint>& instants = s.series->values();
    w.begin_object();
    w.field("series", s.series->name());
    w.field("start_k", s.start_k);
    column("instants_ps", s.start_k, s.end_k,
           [&](std::uint64_t k) { return instants[k].count(); });
    w.end_object();
  }
  w.end_array();
  w.key("usage").begin_array();
  for (const Session::UsageDelta& u : d.usage) {
    const trace::UsageTrace& t = *u.trace;
    w.begin_object();
    w.field("resource", t.resource());
    w.field("start_index", u.start_index);
    column("starts_ps", u.start_index, u.end_index,
           [&](std::uint64_t i) { return t.starts()[i].count(); });
    column("ends_ps", u.start_index, u.end_index,
           [&](std::uint64_t i) { return t.ends()[i].count(); });
    column("ops", u.start_index, u.end_index,
           [&](std::uint64_t i) { return t.ops()[i]; });
    column("labels", u.start_index, u.end_index,
           [&](std::uint64_t i) -> const std::string& {
             return t.label(t.label_ids()[i]);
           });
    w.end_object();
  }
  w.end_array();
}

}  // namespace

bool read_request_line(std::istream& in, std::string& line) {
  line.clear();
  std::streambuf& buf = *in.rdbuf();
  for (;;) {
    const int c = buf.sbumpc();
    if (c == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      return !line.empty();
    }
    if (c == '\n') return true;
    if (line.size() <= kMaxRequestBytes) line.push_back(static_cast<char>(c));
  }
}

Server::Server() : Server(Options{}) {}

Server::Server(Options opts)
    : opts_(opts), cache_(opts.cache_capacity == 0
                              ? ProgramCache::kDefaultCapacity
                              : opts.cache_capacity) {}

std::string Server::handle(std::string_view line) {
  try {
    if (line.size() > kMaxRequestBytes)
      throw SessionError("protocol: request exceeds the limit of " +
                         std::to_string(kMaxRequestBytes) +
                         " bytes (kMaxRequestBytes)");
    const JsonValue req = json_parse(line);
    const JsonValue* cmd = req.find("cmd");
    if (cmd == nullptr || !cmd->is_string())
      throw SessionError("protocol: request needs a string 'cmd'");
    const std::string& verb = cmd->as_string();

    if (verb == "stats") {
      const ProgramCache::Stats s = cache_.stats();
      JsonWriter w;
      w.begin_object()
          .field("ok", true)
          .field("sessions", static_cast<std::uint64_t>(sessions_.size()))
          .key("cache")
          .begin_object()
          .field("hits", s.hits)
          .field("misses", s.misses)
          .field("evictions", s.evictions)
          .field("size", static_cast<std::uint64_t>(s.size))
          .end_object()
          .end_object();
      return std::move(w).str();
    }

    const std::string& name = session_name(req);

    if (verb == "submit" || verb == "restore") {
      if (sessions_.count(name) != 0)
        throw SessionError("protocol: session '" + name + "' already exists");
      Session::Options sopts;
      sopts.guards = opts_.guards;
      sopts.compiled = &cache_;
      if (const JsonValue* me = req.find("max_events"))
        sopts.guards.max_events = me->as_uint64();
      if (const JsonValue* ei = req.find("expected_iterations"))
        sopts.expected_iterations = static_cast<std::size_t>(ei->as_uint64());

      std::unique_ptr<Session> session;
      if (verb == "submit") {
        // A scenario object is read from the request tree already parsed;
        // scenario_json text is parsed by the session.
        if (const JsonValue* obj = req.find("scenario"); obj != nullptr)
          session = std::make_unique<Session>(*obj, sopts);
        else
          session = std::make_unique<Session>(
              req.at("scenario_json").as_string(), sopts);
      } else {
        session = Session::restore(req.at("checkpoint").as_string(), sopts);
      }

      JsonWriter w;
      w.begin_object().field("ok", true).field("session", name);
      w.key("stream_sources").begin_array();
      const auto& sources = session->desc().sources();
      for (std::size_t i = 0; i < sources.size(); ++i) {
        if (!session->is_stream_source(i)) continue;
        w.begin_object()
            .field("source", static_cast<std::uint64_t>(i))
            .field("name", sources[i].name)
            .field("count", sources[i].count)
            .field("fed", session->fed(i))
            .end_object();
      }
      w.end_array().end_object();
      sessions_.emplace(name, std::move(session));
      return std::move(w).str();
    }

    const auto it = sessions_.find(name);
    if (it == sessions_.end())
      throw SessionError("protocol: no session '" + name + "'");
    Session& session = *it->second;

    if (verb == "feed") {
      const std::size_t source =
          static_cast<std::size_t>(req.at("source").as_uint64());
      const std::vector<Session::FedToken> tokens = parse_tokens(req);
      session.feed(source, tokens);
      JsonWriter w;
      w.begin_object()
          .field("ok", true)
          .field("source", static_cast<std::uint64_t>(source))
          .field("fed", session.fed(source))
          .end_object();
      return std::move(w).str();
    }
    if (verb == "poll") {
      const Session::Delta d = session.poll();
      JsonWriter w;
      w.begin_object();
      write_delta(w, d);
      w.end_object();
      return std::move(w).str();
    }
    if (verb == "checkpoint") {
      const std::string doc = session.checkpoint();
      JsonWriter w;
      w.begin_object().field("ok", true).field("checkpoint", doc).end_object();
      return std::move(w).str();
    }
    if (verb == "close") {
      sessions_.erase(it);
      JsonWriter w;
      w.begin_object().field("ok", true).field("closed", name).end_object();
      return std::move(w).str();
    }
    throw SessionError("protocol: unknown cmd '" + verb + "'");
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

}  // namespace maxev::serve
