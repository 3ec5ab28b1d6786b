#include "serve/service.h"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "base/contract.h"
#include "core/artifact.h"
#include "core/reward.h"
#include "core/search.h"
#include "core/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/job_queue.h"
#include "util/exec_context.h"

namespace yoso {
namespace serve {
namespace {

RewardParams reward_preset(const std::string& name) {
  if (name == "balanced") return balanced_reward();
  if (name == "energy") return energy_opt_reward();
  if (name == "latency") return latency_opt_reward();
  YOSO_REQUIRE(false, "unknown reward preset '", name, "'");
  return {};
}

SearchOptions options_from_spec(const JobSpec& spec) {
  SearchOptions opts;
  opts.iterations = spec.iterations;
  opts.batch_size = spec.batch_size;
  opts.top_n = spec.top_n;
  opts.seed = spec.seed;
  opts.trace_every = 0;  // jobs report finalists, not per-iteration traces
  opts.reward = reward_preset(spec.reward);
  if (spec.t_lat_ms > 0.0) opts.reward.t_lat_ms = spec.t_lat_ms;
  if (spec.t_eer_mj > 0.0) opts.reward.t_eer_mj = spec.t_eer_mj;
  return opts;
}

}  // namespace

bool valid_job_spec(const JobSpec& spec, std::string* error) {
  const auto reject = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (spec.searcher != "rl" && spec.searcher != "random")
    return reject("unknown searcher '" + spec.searcher +
                  "' (expected rl|random)");
  if (spec.reward != "balanced" && spec.reward != "energy" &&
      spec.reward != "latency")
    return reject("unknown reward '" + spec.reward +
                  "' (expected balanced|energy|latency)");
  if (spec.iterations == 0) return reject("iterations must be positive");
  if (spec.batch_size == 0) return reject("batch must be positive");
  if (spec.top_n == 0) return reject("top_n must be positive");
  return true;
}

SearchService::SearchService(const std::string& artifact_path,
                             ServiceOptions options)
    : artifact_path_(artifact_path),
      reader_(ArtifactReader::from_file(artifact_path)),
      space_(),
      exec_(ExecContext::create(options.threads)),
      evaluator_(make_fast_evaluator(decode_fast_evaluator(reader_), exec_)) {
  // The serving metrics (and per-job spans) are the daemon's telemetry
  // surface; a service with observability off would scrape empty.
  obs::set_enabled(true);
  if (reader_.has_section(ArtifactSection::kJobState)) {
    ByteReader r(reader_.section(ArtifactSection::kJobState));
    std::uint64_t next_id = 0;
    for (JobRecord& record : decode_job_state(r, &next_id))
      queue_.restore(std::move(record));
  }
  if (options.start_paused) queue_.pause();
  worker_ = std::thread(&SearchService::worker_loop, this);
}

SearchService::~SearchService() { stop(); }

void SearchService::stop() {
  queue_.stop();
  if (worker_.joinable()) worker_.join();
}

std::uint64_t SearchService::submit(const JobSpec& spec) {
  std::string error;
  YOSO_REQUIRE(valid_job_spec(spec, &error), "SearchService::submit: ",
               error);
  return queue_.submit(spec);
}

void SearchService::worker_loop() {
  while (true) {
    std::optional<JobRecord> job = queue_.acquire_next();
    if (!job.has_value()) return;  // stopped
    try {
      run_job(*job);
    } catch (const std::exception& e) {
      queue_.fail(job->id, e.what());
    }
  }
}

void SearchService::run_job(const JobRecord& job) {
  YOSO_TRACE_SPAN("serve.job");
  const SearchOptions opts = options_from_spec(job.spec);
  const std::size_t cache_before = evaluator_.cache_size();

  SearchResult result;
  if (job.spec.searcher == "rl") {
    result = YosoSearch(space_, opts).run(evaluator_, nullptr, exec_);
  } else {
    result = RandomSearchDriver(space_, opts).run(evaluator_, nullptr, exec_);
  }

  // Occupancy of the shared cross-job cache for THIS job: the share of its
  // proposed evaluations that did not grow the cache (in-job duplicates +
  // hits on earlier jobs' work).
  const std::size_t proposed = opts.iterations;
  const std::size_t growth = evaluator_.cache_size() - cache_before;
  if (proposed > 0) {
    const double occupancy =
        1.0 - std::min<double>(1.0, static_cast<double>(growth) /
                                        static_cast<double>(proposed));
    obs::histogram_observe("serve.batch_occupancy", occupancy);
  }

  JobOutcome outcome;
  outcome.iterations_run = result.iterations_run;
  outcome.finalists = result.finalists.size();
  if (result.best.has_value()) {
    outcome.has_best = true;
    outcome.best_candidate = serialize_candidate(result.best->candidate);
    outcome.best_reward = result.best->accurate_reward;
    outcome.accuracy = result.best->accurate_result.accuracy;
    outcome.latency_ms = result.best->accurate_result.latency_ms;
    outcome.energy_mj = result.best->accurate_result.energy_mj;
  }
  queue_.complete(job.id, std::move(outcome));
}

void SearchService::snapshot_to(const std::string& path) const {
  YOSO_TRACE_SPAN("serve.snapshot");
  ArtifactWriter writer;
  for (std::uint32_t id : reader_.section_ids()) {
    if (id == static_cast<std::uint32_t>(ArtifactSection::kJobState))
      continue;  // replaced by the fresh job table below
    const auto payload = reader_.section(static_cast<ArtifactSection>(id));
    writer.add_section(
        static_cast<ArtifactSection>(id),
        std::vector<std::uint8_t>(payload.begin(), payload.end()));
  }
  const std::vector<JobRecord> records = queue_.list();
  std::uint64_t next_id = 1;
  for (const JobRecord& r : records) next_id = std::max(next_id, r.id + 1);
  ByteWriter w;
  encode_job_state(w, next_id, records);
  writer.add_section(ArtifactSection::kJobState, w.take());
  writer.write_file(path);
}

std::string SearchService::metrics_text() const {
  const obs::MetricsSnapshot snap = obs::metrics_registry().snapshot();
  std::ostringstream os;
  for (const auto& c : snap.counters) os << c.name << " " << c.value << "\n";
  for (const auto& g : snap.gauges) os << g.name << " " << g.value << "\n";
  for (const auto& h : snap.histograms) {
    os << h.name << "_count " << h.count << "\n";
    os << h.name << "_sum " << h.sum << "\n";
  }
  return os.str();
}

namespace {

void encode_job_record(ByteWriter& w, const JobRecord& r) {
  w.u64(r.id);
  w.u8(static_cast<std::uint8_t>(r.state));
  w.str(r.error);
  w.str(r.spec.searcher);
  w.u64(r.spec.iterations);
  w.u64(r.spec.batch_size);
  w.u64(r.spec.top_n);
  w.u64(r.spec.seed);
  w.str(r.spec.reward);
  w.f64(r.spec.t_lat_ms);
  w.f64(r.spec.t_eer_mj);
  w.i32(r.spec.priority);
  w.u8(r.outcome.has_best ? 1 : 0);
  w.str(r.outcome.best_candidate);
  w.f64(r.outcome.best_reward);
  w.f64(r.outcome.accuracy);
  w.f64(r.outcome.latency_ms);
  w.f64(r.outcome.energy_mj);
  w.u64(r.outcome.iterations_run);
  w.u64(r.outcome.finalists);
}

}  // namespace

void encode_job_state(ByteWriter& w, std::uint64_t next_id,
                      const std::vector<JobRecord>& records) {
  w.u64(next_id);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const JobRecord& r : records) encode_job_record(w, r);
}

std::vector<JobRecord> decode_job_state(ByteReader& r,
                                        std::uint64_t* next_id) {
  YOSO_REQUIRE(next_id != nullptr, "decode_job_state: null next_id");
  *next_id = r.u64();
  const std::uint32_t count = r.u32();
  // The smallest record the encoder writes has every string empty; the
  // stored count is checked against its size before anything is reserved.
  JobRecord smallest;
  smallest.spec.searcher.clear();
  smallest.spec.reward.clear();
  ByteWriter w;
  encode_job_record(w, smallest);
  r.need_items(count, w.bytes().size());
  std::vector<JobRecord> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    JobRecord rec;
    rec.id = r.u64();
    const std::uint8_t state = r.u8();
    YOSO_REQUIRE(state <= static_cast<std::uint8_t>(JobState::kCancelled),
                 "artifact: invalid job state ", state);
    rec.state = static_cast<JobState>(state);
    rec.error = r.str();
    rec.spec.searcher = r.str();
    rec.spec.iterations = r.u64();
    rec.spec.batch_size = r.u64();
    rec.spec.top_n = r.u64();
    rec.spec.seed = r.u64();
    rec.spec.reward = r.str();
    rec.spec.t_lat_ms = r.f64();
    rec.spec.t_eer_mj = r.f64();
    rec.spec.priority = r.i32();
    rec.outcome.has_best = r.u8() != 0;
    rec.outcome.best_candidate = r.str();
    rec.outcome.best_reward = r.f64();
    rec.outcome.accuracy = r.f64();
    rec.outcome.latency_ms = r.f64();
    rec.outcome.energy_mj = r.f64();
    rec.outcome.iterations_run = r.u64();
    rec.outcome.finalists = r.u64();
    records.push_back(std::move(rec));
  }
  YOSO_REQUIRE(r.done(), "artifact: trailing bytes in job-state section");
  return records;
}

}  // namespace serve
}  // namespace yoso
