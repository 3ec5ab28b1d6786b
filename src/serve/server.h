#pragma once
// SearchServer: the socket front-end of yoso_serve.
//
// Listens on an AF_UNIX stream socket and speaks the newline-delimited JSON
// protocol of serve/protocol.h: one request object per line, one response
// object per line, connections stay open for any number of requests.  Every
// operation is a named handler installed through register_op() — the docs
// gate (tools/yoso_docs_check.py) extracts the registered names from this
// module's source and fails when docs/SERVING.md documents a different op
// set, so the protocol reference cannot drift.
//
// Compatibility endpoint: a line starting with "GET /metrics" gets a
// minimal HTTP/1.0 plain-text response carrying the same exposition as the
// "metrics" op, so the daemon can be scraped with curl.
//
// The accept thread admits connections and hands each to its own
// connection thread, so a client holding one connection open (the normal
// submit-then-poll pattern) never starves a second client — request
// handling itself is cheap; the heavy lifting happens on the service's
// worker thread.  Finished connection threads are reaped by the accept
// loop.  stop() is graceful: in-flight lines finish, the sockets close,
// every thread joins.
//
// What one client can make the daemon hold is bounded: a request line
// longer than kMaxLineBytes, or a connection beyond kMaxConnections live
// ones, gets one error line and is closed.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_annotations.h"
#include "serve/protocol.h"
#include "serve/service.h"

namespace yoso {
namespace serve {

class SearchServer {
 public:
  /// Longest request line (excluding its '\n') a connection may send.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;
  /// Most connections served at once; finished ones do not count.
  static constexpr std::size_t kMaxConnections = 64;

  /// Binds `socket_path` and starts the accept thread.  A file at the path
  /// that no server listens on (a stale socket) is replaced.
  /// ContractViolation when a running server already answers there, or
  /// when the bind fails.
  SearchServer(SearchService& service, std::string socket_path);
  ~SearchServer();  // stop()

  SearchServer(const SearchServer&) = delete;
  SearchServer& operator=(const SearchServer&) = delete;

  const std::string& socket_path() const { return socket_path_; }

  /// Graceful shutdown: closes the listener, finishes the in-flight
  /// request, joins the accept thread, unlinks the socket.  Idempotent.
  void stop();

  /// Blocks until a client issues the "shutdown" op (or stop() is called).
  void wait_shutdown();

  /// Dispatches one raw request line exactly like a socket client would
  /// (exposed so tests and --smoke exercise the real handler table without
  /// standing up a second process); returns the response line sans '\n'.
  std::string dispatch_line(const std::string& line);

 private:
  using Handler = std::function<JsonValue(const JsonValue&)>;

  void register_op(const std::string& name, Handler handler);
  void register_default_ops();
  void accept_loop();
  void serve_connection(int fd);
  void spawn_connection(int fd);
  /// Joins connection threads that have already finished (accept loop) or
  /// all of them (`all`, used by stop() once stopping_ is set).
  void reap_connections(bool all);

  SearchService& service_;
  std::string socket_path_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::map<std::string, Handler> ops_;
  Mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ YOSO_GUARDED_BY(shutdown_mutex_) = false;
  std::thread accept_thread_;
  Mutex conn_mutex_;
  std::map<std::uint64_t, std::thread> connections_
      YOSO_GUARDED_BY(conn_mutex_);
  std::vector<std::uint64_t> finished_ YOSO_GUARDED_BY(conn_mutex_);
  std::uint64_t next_conn_id_ YOSO_GUARDED_BY(conn_mutex_) = 1;
};

}  // namespace serve
}  // namespace yoso
