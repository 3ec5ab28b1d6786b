#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "base/contract.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/job_queue.h"
#include "serve/service.h"

namespace yoso {
namespace serve {
namespace {

constexpr int kPollIntervalMs = 200;

// Full write with EINTR handling; returns false when the peer went away.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// One error response line for a connection the server is about to close.
void send_refusal(int fd, const std::string& why) {
  write_all(fd, error_response(why).dump() + "\n");
}

JsonValue job_json(const JobRecord& record) {
  JsonValue v = JsonValue::object();
  v.set("job_id", JsonValue::integer(static_cast<std::int64_t>(record.id)));
  v.set("state", JsonValue::string(job_state_name(record.state)));
  v.set("priority", JsonValue::integer(record.spec.priority));
  v.set("searcher", JsonValue::string(record.spec.searcher));
  if (!record.error.empty())
    v.set("error", JsonValue::string(record.error));
  return v;
}

JsonValue outcome_json(const JobRecord& record) {
  JsonValue v = JsonValue::object();
  v.set("iterations_run", JsonValue::integer(static_cast<std::int64_t>(
                              record.outcome.iterations_run)));
  v.set("finalists", JsonValue::integer(
                         static_cast<std::int64_t>(record.outcome.finalists)));
  if (record.outcome.has_best) {
    JsonValue best = JsonValue::object();
    best.set("candidate", JsonValue::string(record.outcome.best_candidate));
    best.set("reward", JsonValue::number(record.outcome.best_reward));
    best.set("accuracy", JsonValue::number(record.outcome.accuracy));
    best.set("latency_ms", JsonValue::number(record.outcome.latency_ms));
    best.set("energy_mj", JsonValue::number(record.outcome.energy_mj));
    v.set("best", std::move(best));
  }
  return v;
}

// Reads the integer field `name` of `object` into `*out`, which keeps its
// value when the field is absent.  JSON numbers arrive as doubles, and
// casting one that is not finite or is out of T's range is undefined
// behaviour, so only a finite integral value inside T's range is accepted;
// anything else fills `*error` with a message naming the field.
template <typename T>
bool read_integer(const JsonValue& object, const char* name, T* out,
                  std::string* error) {
  const JsonValue* v = object.get(name);
  if (v == nullptr) return true;
  const double d = v->number_or(0.0);
  // 2^digits is exact in a double and is the first value past T's max.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double lowest = std::numeric_limits<T>::is_signed ? -limit : 0.0;
  if (!v->is_number() || !std::isfinite(d) || d != std::trunc(d) ||
      d < lowest || d >= limit) {
    *error = std::string("'") + name + "' must be an integer in [" +
             std::to_string(std::numeric_limits<T>::min()) + ", " +
             std::to_string(std::numeric_limits<T>::max()) + "]";
    return false;
  }
  *out = static_cast<T>(d);
  return true;
}

// Fills `*spec` from a submit request's job object; returns false (and
// fills `*error`) when an integer field does not fit its type.
bool spec_from_json(const JsonValue& job, JobSpec* spec, std::string* error) {
  YOSO_REQUIRE(spec != nullptr && error != nullptr,
               "spec_from_json: null output parameter");
  if (const JsonValue* v = job.get("searcher"))
    spec->searcher = v->string_or(spec->searcher);
  if (const JsonValue* v = job.get("reward"))
    spec->reward = v->string_or(spec->reward);
  if (const JsonValue* v = job.get("t_lat"))
    spec->t_lat_ms = v->number_or(spec->t_lat_ms);
  if (const JsonValue* v = job.get("t_eer"))
    spec->t_eer_mj = v->number_or(spec->t_eer_mj);
  return read_integer(job, "iterations", &spec->iterations, error) &&
         read_integer(job, "batch", &spec->batch_size, error) &&
         read_integer(job, "top_n", &spec->top_n, error) &&
         read_integer(job, "seed", &spec->seed, error) &&
         read_integer(job, "priority", &spec->priority, error);
}

// errno of a connect() to `addr`, or 0 when a peer accepted it.
// ECONNREFUSED means whatever file sits at the path has no listener behind
// it; ENOENT means there is no file.
int connect_errno(const sockaddr_un& addr) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return errno;
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  const int err = rc == 0 ? 0 : errno;
  ::close(fd);
  return err;
}

// Pulls the job id out of a request; returns false (and fills the error
// response) when it is missing or not a valid id.
bool job_id_of(const JsonValue& request, std::uint64_t* id,
               JsonValue* error) {
  YOSO_REQUIRE(id != nullptr && error != nullptr,
               "job_id_of: null output parameter");
  std::string why = "missing numeric 'job_id'";
  if (request.get("job_id") == nullptr ||
      !read_integer(request, "job_id", id, &why)) {
    *error = error_response(why);
    return false;
  }
  return true;
}

}  // namespace

SearchServer::SearchServer(SearchService& service, std::string socket_path)
    : service_(service), socket_path_(std::move(socket_path)) {
  register_default_ops();

  YOSO_REQUIRE(socket_path_.size() < sizeof(sockaddr_un{}.sun_path),
               "socket path '", socket_path_, "' too long for AF_UNIX");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  // Never steal a live server's socket; only a file nobody listens on (one
  // left behind by a daemon that died) is replaced.
  const int probe = connect_errno(addr);
  YOSO_REQUIRE(probe != 0, "socket '", socket_path_,
               "' is in use by a running server");
  if (probe == ECONNREFUSED) ::unlink(socket_path_.c_str());
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  YOSO_REQUIRE(listen_fd_ >= 0, "cannot create AF_UNIX socket");
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 8) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    YOSO_REQUIRE(false, "cannot bind/listen on '", socket_path_, "'");
  }
  accept_thread_ = std::thread(&SearchServer::accept_loop, this);
}

SearchServer::~SearchServer() { stop(); }

void SearchServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  {
    MutexLock lock(shutdown_mutex_);
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  reap_connections(true);  // stopping_ makes every connection loop exit
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(socket_path_.c_str());
}

void SearchServer::wait_shutdown() {
  MutexLock lock(shutdown_mutex_);
  while (!shutdown_requested_) shutdown_mutex_.wait(shutdown_cv_);
}

void SearchServer::register_op(const std::string& name, Handler handler) {
  YOSO_REQUIRE(ops_.find(name) == ops_.end(), "duplicate op '", name, "'");
  ops_.emplace(name, std::move(handler));
}

void SearchServer::register_default_ops() {
  register_op("submit", [this](const JsonValue& request) {
    const JsonValue* job = request.get("job");
    JobSpec spec;
    std::string why;
    if (!spec_from_json(job != nullptr ? *job : request, &spec, &why) ||
        !valid_job_spec(spec, &why))
      return error_response(why);
    const std::uint64_t id = service_.submit(spec);
    JsonValue response = ok_response();
    response.set("job_id", JsonValue::integer(static_cast<std::int64_t>(id)));
    return response;
  });
  register_op("status", [this](const JsonValue& request) {
    std::uint64_t id = 0;
    JsonValue err;
    if (!job_id_of(request, &id, &err)) return err;
    const std::optional<JobRecord> record = service_.jobs().get(id);
    if (!record.has_value()) return error_response("unknown job id");
    JsonValue response = ok_response();
    response.set("job", job_json(*record));
    return response;
  });
  register_op("result", [this](const JsonValue& request) {
    std::uint64_t id = 0;
    JsonValue err;
    if (!job_id_of(request, &id, &err)) return err;
    const std::optional<JobRecord> record = service_.jobs().get(id);
    if (!record.has_value()) return error_response("unknown job id");
    if (record->state == JobState::kFailed)
      return error_response("job failed: " + record->error);
    if (record->state != JobState::kDone)
      return error_response(std::string("job is ") +
                            job_state_name(record->state));
    JsonValue response = ok_response();
    response.set("result", outcome_json(*record));
    return response;
  });
  register_op("cancel", [this](const JsonValue& request) {
    std::uint64_t id = 0;
    JsonValue err;
    if (!job_id_of(request, &id, &err)) return err;
    if (!service_.jobs().cancel(id))
      return error_response("job is not cancellable (unknown or already "
                            "left the queue)");
    return ok_response();
  });
  register_op("list", [this](const JsonValue&) {
    JsonValue jobs = JsonValue::array();
    for (const JobRecord& record : service_.jobs().list())
      jobs.push(job_json(record));
    JsonValue response = ok_response();
    response.set("jobs", std::move(jobs));
    return response;
  });
  register_op("metrics", [this](const JsonValue&) {
    JsonValue response = ok_response();
    response.set("text", JsonValue::string(service_.metrics_text()));
    return response;
  });
  register_op("snapshot", [this](const JsonValue& request) {
    const JsonValue* path = request.get("path");
    if (path == nullptr || !path->is_string())
      return error_response("missing string 'path'");
    service_.snapshot_to(path->string_or(""));
    JsonValue response = ok_response();
    response.set("path", JsonValue::string(path->string_or("")));
    return response;
  });
  register_op("pause", [this](const JsonValue&) {
    service_.pause();
    return ok_response();
  });
  register_op("resume", [this](const JsonValue&) {
    service_.resume();
    return ok_response();
  });
  register_op("shutdown", [this](const JsonValue&) {
    MutexLock lock(shutdown_mutex_);
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
    return ok_response();
  });
}

std::string SearchServer::dispatch_line(const std::string& line) {
  YOSO_TRACE_SPAN("serve.request");
  obs::counter_add("serve.requests");
  std::string parse_error;
  const std::optional<JsonValue> request = parse_json(line, &parse_error);
  if (!request.has_value()) return error_response(parse_error).dump();
  const JsonValue* op = request->get("op");
  if (op == nullptr || !op->is_string())
    return error_response("missing string 'op'").dump();
  const auto it = ops_.find(op->string_or(""));
  if (it == ops_.end())
    return error_response("unknown op '" + op->string_or("") + "'").dump();
  try {
    return it->second(*request).dump();
  } catch (const std::exception& e) {
    return error_response(e.what()).dump();
  }
}

void SearchServer::accept_loop() {
  while (!stopping_.load()) {
    reap_connections(false);
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollIntervalMs);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stopping_
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    spawn_connection(fd);
  }
}

void SearchServer::spawn_connection(int fd) {
  YOSO_REQUIRE(fd >= 0, "spawn_connection: invalid socket fd");
  {
    MutexLock lock(conn_mutex_);
    // Finished threads wait in connections_ for the next reap; they hold no
    // client, so only the others count against the cap.
    if (connections_.size() < kMaxConnections + finished_.size()) {
      const std::uint64_t id = next_conn_id_++;
      connections_.emplace(id, std::thread([this, fd, id] {
                             serve_connection(fd);
                             ::close(fd);
                             MutexLock done(conn_mutex_);
                             finished_.push_back(id);
                           }));
      return;
    }
  }
  send_refusal(fd, "too many connections (limit " +
                       std::to_string(kMaxConnections) + ")");
  ::close(fd);
}

void SearchServer::reap_connections(bool all) {
  // Threads are extracted under the lock but joined outside it: a finishing
  // connection thread takes conn_mutex_ to report itself done, so joining
  // with the lock held would deadlock.
  std::vector<std::thread> joinable;
  {
    MutexLock lock(conn_mutex_);
    if (all) {
      for (auto& [id, thread] : connections_)
        joinable.push_back(std::move(thread));
      connections_.clear();
      finished_.clear();
    } else {
      for (const std::uint64_t id : finished_) {
        const auto it = connections_.find(id);
        if (it != connections_.end()) {
          joinable.push_back(std::move(it->second));
          connections_.erase(it);
        }
      }
      finished_.clear();
    }
  }
  for (std::thread& thread : joinable) thread.join();
}

void SearchServer::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  while (!stopping_.load()) {
    // Serve every complete line already buffered.
    std::size_t nl = buffer.find('\n');
    while (nl != std::string::npos && nl <= kMaxLineBytes) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.rfind("GET /metrics", 0) == 0) {
        // curl-compatible plain-text exposition; one response, then close.
        const std::string body = service_.metrics_text();
        write_all(fd,
                  "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n"
                  "Content-Length: " +
                      std::to_string(body.size()) + "\r\n\r\n" + body);
        return;
      }
      if (!line.empty() && !write_all(fd, dispatch_line(line) + "\n"))
        return;
      nl = buffer.find('\n');
    }
    // The next line, complete or not, is already over the limit: refuse it
    // instead of buffering without bound.
    if (std::min(nl, buffer.size()) > kMaxLineBytes) {
      send_refusal(fd, "request line longer than " +
                           std::to_string(kMaxLineBytes) + " bytes");
      return;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollIntervalMs);
    if (ready < 0 && errno != EINTR) return;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return;  // peer closed (or error)
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace serve
}  // namespace yoso
