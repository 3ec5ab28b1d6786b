// Tests for the yoso_serve stack (src/serve): wire protocol, job queue
// scheduling, the kJobState codec, and the end-to-end serving guarantee —
// a daemon job's result is byte-identical to running the same search
// in-process against the same artifact (docs/SERVING.md).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/simulator.h"
#include "arch/network.h"
#include "base/contract.h"
#include "core/artifact.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/search.h"
#include "core/serialize.h"
#include "serve/job_queue.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"

namespace yoso {
namespace serve {
namespace {

// --- Protocol ---------------------------------------------------------------

TEST(Protocol, ParseDumpRoundTrip) {
  const std::string text =
      R"({"op":"submit","job":{"iterations":40,"priority":-2,)"
      R"("searcher":"random"},"tag":"a\nb"})";
  const std::optional<JsonValue> v = parse_json(text);
  ASSERT_TRUE(v.has_value());
  ASSERT_NE(v->get("job"), nullptr);
  EXPECT_EQ(v->get("op")->string_or(""), "submit");
  EXPECT_EQ(v->get("job")->get("iterations")->number_or(0), 40.0);
  EXPECT_EQ(v->get("job")->get("priority")->number_or(0), -2.0);
  EXPECT_EQ(v->get("tag")->string_or(""), "a\nb");
  // dump() emits sorted keys, so responses are byte-stable; a reparse of
  // the dump dumps identically (fixpoint).
  const std::string dumped = v->dump();
  const std::optional<JsonValue> again = parse_json(dumped);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->dump(), dumped);
}

TEST(Protocol, RejectsMalformed) {
  std::string error;
  EXPECT_FALSE(parse_json("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_json("{\"a\":1} trailing", &error).has_value());
  EXPECT_FALSE(parse_json("", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\":01}", &error).has_value());
  // Depth bomb: fails cleanly instead of blowing the stack.
  EXPECT_FALSE(parse_json(std::string(200, '[') + std::string(200, ']'),
                          &error)
                   .has_value());
}

// --- Job queue scheduling ---------------------------------------------------

JobSpec spec_with(int priority, std::uint64_t seed = 7) {
  JobSpec spec;
  spec.searcher = "random";
  spec.iterations = 10;
  spec.priority = priority;
  spec.seed = seed;
  return spec;
}

TEST(JobQueueTest, PriorityOrderWithFifoTies) {
  JobQueue queue;
  queue.pause();  // make the submission batch atomic w.r.t. the consumer
  const std::uint64_t low = queue.submit(spec_with(0));
  const std::uint64_t high_a = queue.submit(spec_with(5));
  const std::uint64_t mid = queue.submit(spec_with(2));
  const std::uint64_t high_b = queue.submit(spec_with(5));
  queue.resume();

  // Highest priority first; equal priorities drain FIFO (lower id first).
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 4; ++i) {
    const std::optional<JobRecord> job = queue.acquire_next();
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->state, JobState::kRunning);
    order.push_back(job->id);
    queue.complete(job->id, {});
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{high_a, high_b, mid, low}));
  queue.wait_idle();  // returns: nothing queued or running
}

TEST(JobQueueTest, CancelIsQueueOnly) {
  JobQueue queue;
  queue.pause();
  const std::uint64_t id = queue.submit(spec_with(0));
  queue.resume();
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.get(id)->state, JobState::kCancelled);
  EXPECT_FALSE(queue.cancel(id));      // already cancelled
  EXPECT_FALSE(queue.cancel(999));     // unknown id

  const std::uint64_t running = queue.submit(spec_with(0));
  const std::optional<JobRecord> job = queue.acquire_next();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->id, running);
  EXPECT_FALSE(queue.cancel(running));  // running jobs finish
  queue.fail(running, "boom");
  EXPECT_EQ(queue.get(running)->state, JobState::kFailed);
  EXPECT_EQ(queue.get(running)->error, "boom");
}

TEST(JobQueueTest, RestoreRequeuesRunningAndKeepsIdsAhead) {
  JobQueue queue;
  JobRecord done;
  done.id = 3;
  done.state = JobState::kDone;
  done.outcome.has_best = true;
  done.outcome.best_candidate = "x";
  JobRecord interrupted;
  interrupted.id = 5;
  interrupted.state = JobState::kRunning;  // daemon died mid-job
  interrupted.spec = spec_with(1);
  queue.restore(done);
  queue.restore(interrupted);

  EXPECT_EQ(queue.get(3)->state, JobState::kDone);
  EXPECT_EQ(queue.get(3)->outcome.best_candidate, "x");
  EXPECT_EQ(queue.get(5)->state, JobState::kQueued);  // re-queued for replay
  EXPECT_EQ(queue.submit(spec_with(0)), 6u);  // counter moved past max id
}

TEST(JobQueueTest, StoppedQueueDrainsToNullopt) {
  JobQueue queue;
  queue.submit(spec_with(0));
  queue.stop();
  EXPECT_FALSE(queue.acquire_next().has_value());
}

// --- Admission + job-state codec --------------------------------------------

TEST(ValidJobSpecTest, Rejections) {
  std::string why;
  EXPECT_TRUE(valid_job_spec(JobSpec{}, &why));
  JobSpec bad_searcher;
  bad_searcher.searcher = "anneal";
  EXPECT_FALSE(valid_job_spec(bad_searcher, &why));
  EXPECT_NE(why.find("searcher"), std::string::npos);
  JobSpec bad_reward;
  bad_reward.reward = "throughput";
  EXPECT_FALSE(valid_job_spec(bad_reward, &why));
  JobSpec zero_iter;
  zero_iter.iterations = 0;
  EXPECT_FALSE(valid_job_spec(zero_iter, &why));
  EXPECT_FALSE(valid_job_spec(zero_iter, nullptr));  // error out is optional
}

TEST(JobStateCodec, RoundTrip) {
  JobRecord a;
  a.id = 2;
  a.spec = spec_with(4, 99);
  a.spec.reward = "energy";
  a.spec.t_lat_ms = 1.5;
  a.state = JobState::kDone;
  a.outcome.has_best = true;
  a.outcome.best_candidate = "cand";
  a.outcome.best_reward = -0.25;
  a.outcome.iterations_run = 10;
  a.outcome.finalists = 3;
  JobRecord b;
  b.id = 7;
  b.state = JobState::kFailed;
  b.error = "sim exploded";

  ByteWriter w;
  encode_job_state(w, 8, {a, b});
  ByteReader r(w.bytes());
  std::uint64_t next_id = 0;
  const std::vector<JobRecord> records = decode_job_state(r, &next_id);
  EXPECT_EQ(next_id, 8u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, 2u);
  EXPECT_EQ(records[0].spec.priority, 4);
  EXPECT_EQ(records[0].spec.seed, 99u);
  EXPECT_EQ(records[0].spec.reward, "energy");
  EXPECT_EQ(records[0].spec.t_lat_ms, 1.5);
  EXPECT_EQ(records[0].state, JobState::kDone);
  EXPECT_TRUE(records[0].outcome.has_best);
  EXPECT_EQ(records[0].outcome.best_candidate, "cand");
  EXPECT_EQ(records[0].outcome.best_reward, -0.25);
  EXPECT_EQ(records[1].state, JobState::kFailed);
  EXPECT_EQ(records[1].error, "sim exploded");

  // Truncated section → ContractViolation, never garbage records.
  ByteReader cut(w.bytes().first(w.bytes().size() - 4));
  std::uint64_t ignored = 0;
  EXPECT_THROW(decode_job_state(cut, &ignored), ContractViolation);

  // A record count far beyond the bytes present is rejected before
  // anything is reserved for it.
  ByteWriter huge;
  huge.u64(8);
  huge.u32(0xFFFFFFFFu);
  ByteReader rh(huge.bytes());
  EXPECT_THROW(decode_job_state(rh, &ignored), ContractViolation);
}

// --- End-to-end serving -----------------------------------------------------

// Minimal blocking line client for the AF_UNIX protocol socket.
class LineClient {
 public:
  explicit LineClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    // A server that never answers fails the test instead of hanging it.
    const timeval timeout{20, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  // MSG_NOSIGNAL: writing to a connection the server closed is a failed
  // send, not a SIGPIPE that kills the test binary.
  bool send_raw(const std::string& data) {
    return fd_ >= 0 &&
           ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(data.size());
  }

  std::optional<JsonValue> request(const std::string& line) {
    if (!send_raw(line + "\n")) return std::nullopt;
    const std::optional<std::string> response = read_until("\n");
    if (!response.has_value()) return std::nullopt;
    return parse_json(*response);
  }

  std::optional<std::string> read_until(const std::string& stop) {
    std::string buffer;
    char chunk[4096];
    while (buffer.find(stop) == std::string::npos) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0) return std::nullopt;
      if (n == 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    return buffer;
  }

 private:
  int fd_ = -1;
};

class ServeIntegration : public ::testing::Test {
 protected:
  // One trained artifact shared by every test in the suite (Step 1 is the
  // expensive part; the tests exercise serving, not training).  Every file
  // the suite creates lives in one private directory per process: under
  // `ctest -j` each case is its own process, and fixed names would let
  // them overwrite each other's artifact and steal each other's sockets.
  static void SetUpTestSuite() {
    std::string dir = ::testing::TempDir() + "yoso_serve_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr) << "mkdtemp " << dir;
    dir_ = std::make_unique<std::string>(dir + "/");
    DesignSpace space;
    const NetworkSkeleton skeleton = default_skeleton();
    SystolicSimulator simulator({}, SimFidelity::kAnalytical);
    const FastEvaluator trained(space, skeleton, simulator,
                                {.predictor_samples = 150, .seed = 13});
    save_fast_evaluator(artifact(), trained, "test_serve");
  }
  static void TearDownTestSuite() {
    if (dir_ == nullptr) return;
    std::remove(artifact().c_str());
    ::rmdir(dir_->c_str());
    dir_.reset();
  }

  /// `name` inside this process's private directory.
  static std::string path(const std::string& name) { return *dir_ + name; }
  static std::string artifact() { return path("artifact.bin"); }

  // The reference result: the same search run in-process on a fresh
  // evaluator restored from the same artifact.
  static SearchResult reference_run(const JobSpec& spec) {
    DesignSpace space;
    SearchOptions opts;
    opts.iterations = spec.iterations;
    opts.batch_size = spec.batch_size;
    opts.top_n = spec.top_n;
    opts.seed = spec.seed;
    opts.trace_every = 0;
    opts.reward = balanced_reward();
    FastEvaluator fast =
        make_fast_evaluator(load_fast_evaluator_artifact(artifact()));
    if (spec.searcher == "rl")
      return YosoSearch(space, opts).run(fast, nullptr);
    return RandomSearchDriver(space, opts).run(fast, nullptr);
  }

  static std::unique_ptr<std::string> dir_;
};

std::unique_ptr<std::string> ServeIntegration::dir_;

TEST_F(ServeIntegration, PrioritizedJobsOverSocketByteStable) {
  const std::string socket_path = path("serve.sock");
  SearchService service(artifact(), {.start_paused = true});
  SearchServer server(service, socket_path);

  LineClient client(socket_path);
  ASSERT_TRUE(client.ok());

  // Three jobs, deliberately submitted in non-priority order.
  const char* submits[] = {
      R"({"op":"submit","job":{"searcher":"random","iterations":30,)"
      R"("seed":3,"priority":0}})",
      R"({"op":"submit","job":{"searcher":"random","iterations":30,)"
      R"("seed":4,"priority":5}})",
      R"({"op":"submit","job":{"searcher":"rl","iterations":30,)"
      R"("seed":5,"priority":2}})",
  };
  std::vector<std::uint64_t> ids;
  for (const char* line : submits) {
    const std::optional<JsonValue> response = client.request(line);
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->get("ok")->bool_or(false)) << response->dump();
    ids.push_back(static_cast<std::uint64_t>(
        response->get("job_id")->number_or(0)));
  }
  ASSERT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3}));

  // Paused: everything sits queued.
  const std::optional<JsonValue> queued =
      client.request(R"({"op":"status","job_id":2})");
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->get("job")->get("state")->string_or(""), "queued");

  // A result request for an unfinished job is an error, not a block.
  const std::optional<JsonValue> early =
      client.request(R"({"op":"result","job_id":2})");
  ASSERT_TRUE(early.has_value());
  EXPECT_FALSE(early->get("ok")->bool_or(true));

  ASSERT_TRUE(client.request(R"({"op":"resume"})").has_value());
  service.wait_idle();

  // Every job completed, and each result is byte-identical to the same
  // search run in-process against the same artifact.
  JobSpec specs[3];
  specs[0] = spec_with(0, 3);
  specs[1] = spec_with(5, 4);
  specs[2] = spec_with(2, 5);
  specs[0].iterations = specs[1].iterations = specs[2].iterations = 30;
  specs[2].searcher = "rl";
  specs[0].top_n = specs[1].top_n = specs[2].top_n = 5;
  for (std::size_t i = 0; i < 3; ++i) {
    const std::optional<JsonValue> response = client.request(
        R"({"op":"result","job_id":)" + std::to_string(ids[i]) + "}");
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->get("ok")->bool_or(false)) << response->dump();
    const JsonValue* best = response->get("result")->get("best");
    ASSERT_NE(best, nullptr);

    const SearchResult expected = reference_run(specs[i]);
    ASSERT_TRUE(expected.best.has_value());
    EXPECT_EQ(best->get("candidate")->string_or(""),
              serialize_candidate(expected.best->candidate));
    EXPECT_EQ(best->get("reward")->number_or(0),
              expected.best->accurate_reward);
    EXPECT_EQ(best->get("accuracy")->number_or(0),
              expected.best->accurate_result.accuracy);
    EXPECT_EQ(best->get("latency_ms")->number_or(0),
              expected.best->accurate_result.latency_ms);
    EXPECT_EQ(best->get("energy_mj")->number_or(0),
              expected.best->accurate_result.energy_mj);
  }

  // Scrape /metrics on a SECOND connection while the first is still open
  // (regression: connection serving must not be single-file) and require
  // the serve.* surface to be live.
  LineClient scraper(socket_path);
  ASSERT_TRUE(scraper.ok());
  ASSERT_TRUE(scraper.send_raw("GET /metrics HTTP/1.0\n"));
  // The endpoint writes one response and closes; read to EOF (the stop
  // token cannot occur in a text exposition).
  const std::optional<std::string> exposition = scraper.read_until("\x01");
  ASSERT_TRUE(exposition.has_value());
  EXPECT_NE(exposition->find("HTTP/1.0 200 OK"), std::string::npos);
  for (const char* needle :
       {"serve.jobs_submitted", "serve.jobs_completed", "serve.queue_depth",
        "serve.jobs_active", "serve.requests", "serve.batch_occupancy_count"})
    EXPECT_NE(exposition->find(needle), std::string::npos) << needle;

  server.stop();
  service.stop();
  std::remove(socket_path.c_str());
}

TEST_F(ServeIntegration, DispatchErrorPathsAndCancel) {
  SearchService service(artifact(), {.start_paused = true});
  SearchServer server(service, path("dispatch.sock"));

  const auto dispatch = [&server](const std::string& line) {
    const std::optional<JsonValue> v = parse_json(server.dispatch_line(line));
    EXPECT_TRUE(v.has_value());
    return *v;
  };
  EXPECT_FALSE(dispatch("not json").get("ok")->bool_or(true));
  EXPECT_FALSE(dispatch(R"({"no_op":1})").get("ok")->bool_or(true));
  EXPECT_FALSE(dispatch(R"({"op":"warp"})").get("ok")->bool_or(true));
  EXPECT_FALSE(dispatch(R"({"op":"status"})").get("ok")->bool_or(true));
  EXPECT_FALSE(dispatch(R"({"op":"status","job_id":42})")
                   .get("ok")
                   ->bool_or(true));
  // Admission rejects a bad spec before it reaches the queue.
  EXPECT_FALSE(
      dispatch(R"({"op":"submit","job":{"searcher":"anneal"}})")
          .get("ok")
          ->bool_or(true));
  // Integer fields take only a finite integer their type can hold, and the
  // error names the field.
  const std::pair<const char*, const char*> misfits[] = {
      {R"({"op":"submit","job":{"iterations":-1}})", "iterations"},
      {R"({"op":"submit","job":{"iterations":1.5}})", "iterations"},
      {R"({"op":"submit","job":{"priority":1e10}})", "priority"},
      {R"({"op":"status","job_id":-1})", "job_id"},
  };
  for (const auto& [line, field] : misfits) {
    const JsonValue response = dispatch(line);
    EXPECT_FALSE(response.get("ok")->bool_or(true)) << line;
    const JsonValue* error = response.get("error");
    const std::string why = error != nullptr ? error->string_or("") : "";
    EXPECT_NE(why.find(field), std::string::npos) << response.dump();
  }

  const JsonValue submitted = dispatch(
      R"({"op":"submit","job":{"searcher":"random","iterations":10}})");
  ASSERT_TRUE(submitted.get("ok")->bool_or(false));
  const std::uint64_t id = static_cast<std::uint64_t>(
      submitted.get("job_id")->number_or(0));
  EXPECT_TRUE(dispatch(R"({"op":"cancel","job_id":)" + std::to_string(id) +
                       "}")
                  .get("ok")
                  ->bool_or(false));
  const JsonValue after = dispatch(R"({"op":"result","job_id":)" +
                                   std::to_string(id) + "}");
  EXPECT_FALSE(after.get("ok")->bool_or(true));

  server.stop();
  service.stop();
}

TEST_F(ServeIntegration, SecondServerOnLiveSocketIsRefused) {
  const std::string socket_path = path("live.sock");
  SearchService service(artifact(), {.start_paused = true});
  SearchServer first(service, socket_path);
  const std::uint64_t id = service.submit(spec_with(0));

  // A second server on the same path must refuse, not unlink and rebind
  // the path under the first one's clients.
  EXPECT_THROW({ SearchServer second(service, socket_path); },
               ContractViolation);

  // The first server still owns the path and answers.
  LineClient client(socket_path);
  ASSERT_TRUE(client.ok());
  const std::optional<JsonValue> status = client.request(
      R"({"op":"status","job_id":)" + std::to_string(id) + "}");
  ASSERT_TRUE(status.has_value());
  ASSERT_TRUE(status->get("ok")->bool_or(false)) << status->dump();
  EXPECT_EQ(status->get("job")->get("state")->string_or(""), "queued");

  first.stop();
  service.stop();
}

TEST_F(ServeIntegration, StaleSocketFileIsReplaced) {
  // A socket file with no listener behind it, as a daemon that died without
  // cleaning up leaves behind: connect() gets ECONNREFUSED, so a new
  // server may take the path over.
  const std::string socket_path = path("stale.sock");
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr),
              0);
    ::close(fd);
  }
  SearchService service(artifact(), {.start_paused = true});
  SearchServer server(service, socket_path);
  LineClient client(socket_path);
  ASSERT_TRUE(client.ok());
  const std::optional<JsonValue> list = client.request(R"({"op":"list"})");
  ASSERT_TRUE(list.has_value());
  EXPECT_TRUE(list->get("ok")->bool_or(false)) << list->dump();

  server.stop();
  service.stop();
}

TEST_F(ServeIntegration, OverlongLineIsRefused) {
  const std::string socket_path = path("overlong.sock");
  SearchService service(artifact(), {.start_paused = true});
  SearchServer server(service, socket_path);
  const std::uint64_t id = service.submit(spec_with(0));

  // One byte over the limit and no newline yet: one error line, then EOF.
  LineClient greedy(socket_path);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(
      greedy.send_raw(std::string(SearchServer::kMaxLineBytes + 1, 'x')));
  const std::optional<std::string> refusal = greedy.read_until("\n");
  ASSERT_TRUE(refusal.has_value());
  const std::optional<JsonValue> error = parse_json(*refusal);
  ASSERT_TRUE(error.has_value()) << *refusal;
  EXPECT_FALSE(error->get("ok")->bool_or(true)) << *refusal;
  const std::optional<std::string> eof = greedy.read_until("\n");
  ASSERT_TRUE(eof.has_value());
  EXPECT_TRUE(eof->empty()) << *eof;

  // The daemon is unharmed: a fresh connection still answers.
  LineClient fresh(socket_path);
  ASSERT_TRUE(fresh.ok());
  const std::optional<JsonValue> status = fresh.request(
      R"({"op":"status","job_id":)" + std::to_string(id) + "}");
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->get("ok")->bool_or(false)) << status->dump();

  server.stop();
  service.stop();
}

TEST_F(ServeIntegration, ConnectionsBeyondLimitAreRefused) {
  const std::string socket_path = path("crowd.sock");
  SearchService service(artifact(), {.start_paused = true});
  SearchServer server(service, socket_path);

  // Fill every slot; an answered request proves each connection is live.
  std::vector<std::unique_ptr<LineClient>> clients;
  for (std::size_t i = 0; i < SearchServer::kMaxConnections; ++i) {
    clients.push_back(std::make_unique<LineClient>(socket_path));
    const std::optional<JsonValue> list =
        clients.back()->request(R"({"op":"list"})");
    ASSERT_TRUE(list.has_value()) << "connection " << i;
    ASSERT_TRUE(list->get("ok")->bool_or(false)) << list->dump();
  }

  // One more gets a single error line, then EOF.
  LineClient extra(socket_path);
  ASSERT_TRUE(extra.ok());
  const std::optional<std::string> refusal = extra.read_until("\n");
  ASSERT_TRUE(refusal.has_value());
  const std::optional<JsonValue> error = parse_json(*refusal);
  ASSERT_TRUE(error.has_value()) << *refusal;
  EXPECT_FALSE(error->get("ok")->bool_or(true)) << *refusal;
  const std::optional<std::string> eof = extra.read_until("\n");
  ASSERT_TRUE(eof.has_value());
  EXPECT_TRUE(eof->empty()) << *eof;

  // Closing one connection frees its slot.  The server sees the hang-up
  // on its own thread, so give it a moment.
  clients.pop_back();
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    LineClient next(socket_path);
    const std::optional<JsonValue> list = next.request(R"({"op":"list"})");
    admitted = list.has_value() && list->get("ok")->bool_or(false);
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(admitted);

  clients.clear();
  server.stop();
  service.stop();
}

TEST_F(ServeIntegration, SnapshotResumeReplaysQueuedJobs) {
  const std::string snapshot_path = path("snapshot.bin");
  JobSpec spec_a = spec_with(0, 17);
  spec_a.iterations = 20;
  JobSpec spec_b = spec_with(3, 18);
  spec_b.iterations = 20;

  // Service 1: queue two jobs, snapshot while still paused, then run them.
  JobOutcome first_a;
  JobOutcome first_b;
  {
    SearchService service(artifact(), {.start_paused = true});
    const std::uint64_t id_a = service.submit(spec_a);
    const std::uint64_t id_b = service.submit(spec_b);
    service.snapshot_to(snapshot_path);
    service.resume();
    service.wait_idle();
    first_a = service.jobs().get(id_a)->outcome;
    first_b = service.jobs().get(id_b)->outcome;
    ASSERT_TRUE(first_a.has_best);
    ASSERT_TRUE(first_b.has_best);
    service.stop();
  }

  // Service 2 on the snapshot: the queued jobs replay from their seeds to
  // byte-identical outcomes, ids preserved.
  {
    SearchService service(snapshot_path, {});
    service.wait_idle();
    const std::optional<JobRecord> replay_a = service.jobs().get(1);
    const std::optional<JobRecord> replay_b = service.jobs().get(2);
    ASSERT_TRUE(replay_a.has_value());
    ASSERT_TRUE(replay_b.has_value());
    EXPECT_EQ(replay_a->state, JobState::kDone);
    EXPECT_EQ(replay_b->state, JobState::kDone);
    EXPECT_EQ(replay_a->outcome.best_candidate, first_a.best_candidate);
    EXPECT_EQ(replay_a->outcome.best_reward, first_a.best_reward);
    EXPECT_EQ(replay_b->outcome.best_candidate, first_b.best_candidate);
    EXPECT_EQ(replay_b->outcome.best_reward, first_b.best_reward);
    EXPECT_EQ(service.submit(spec_a), 3u);  // id counter survived
    service.wait_idle();
    service.stop();
  }
  std::remove(snapshot_path.c_str());
}

TEST_F(ServeIntegration, CorruptArtifactRefusedAtStartup) {
  const std::string bad_path = path("bad.bin");
  {
    std::ifstream in(artifact(), std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x5A;
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(SearchService(bad_path, {}), ContractViolation);
  std::remove(bad_path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace yoso
