#pragma once

#include <cstddef>
#include <istream>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "serve/program_cache.hpp"
#include "serve/session.hpp"

/// \file protocol.hpp
/// Line-delimited JSON request/response protocol over serve::Session
/// (docs/DESIGN.md §13), the transport-agnostic half of the `maxev_serve`
/// example binary: one request object per line in, one response object per
/// line out. A Server multiplexes named sessions over one shared
/// ProgramCache, so repeated submissions of structurally identical
/// scenarios skip the derive → compile pipeline.
///
/// Requests (`cmd` selects the verb; `session` names the target):
///   {"cmd":"submit","session":S,"scenario":{...}}        create a session
///   {"cmd":"feed","session":S,"source":i,"tokens":[...]} append tokens
///   {"cmd":"poll","session":S}                           advance + deltas
///   {"cmd":"checkpoint","session":S}                     replay document
///   {"cmd":"restore","session":S,"checkpoint":"..."}     rebuild from one
///   {"cmd":"close","session":S}                          drop the session
///   {"cmd":"stats"}                                      cache/session stats
///
/// Every response carries `"ok"`; failures are `{"ok":false,"error":...}`
/// and never tear down the server or other sessions.

namespace maxev::serve {

/// Size limit of one request, in bytes: the longest line Server::handle
/// parses. It bounds what one request can make a server keep — a scenario
/// text, which the program cache holds for up to its capacity of entries,
/// or a restore's checkpoint (~80 bytes per fed token, so ~100k tokens).
inline constexpr std::size_t kMaxRequestBytes = std::size_t{8} << 20;

/// Read one line (its '\n' dropped) from \p in into \p line, keeping at
/// most kMaxRequestBytes + 1 bytes of it: a longer line is consumed to its
/// end, and Server::handle refuses what is kept by its size. Returns false
/// at end of input.
bool read_request_line(std::istream& in, std::string& line);

class Server {
 public:
  struct Options {
    /// Shared program-cache capacity (entries).
    std::size_t cache_capacity = ProgramCache::kDefaultCapacity;
    /// Guards applied to every session's advances (0/none = unlimited).
    sim::RunGuards guards;
  };

  Server();
  explicit Server(Options opts);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handle one request line; always returns a single-line JSON response
  /// (protocol errors are reported in-band, never thrown). A line longer
  /// than kMaxRequestBytes is refused unparsed.
  [[nodiscard]] std::string handle(std::string_view line);

  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] const ProgramCache& cache() const { return cache_; }

 private:
  Options opts_;
  ProgramCache cache_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
};

}  // namespace maxev::serve
