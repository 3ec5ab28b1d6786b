// Golden pins: the winner and a reward checksum of five searches and of
// one yoso_serve job, plus a checksum of a bare controller's REINFORCE
// trajectory, frozen as constants.  The determinism tests in
// test_parallel_search.cpp only compare thread counts against each other,
// so a numerics change that moves every thread count together would pass
// them silently; these pins turn it into a visible diff.  A deliberate
// numerics change re-baselines them: update the constants in the same
// commit and say why.
//
// The values depend on the floating-point engine (kernels::active_isa) and
// the toolchain, so the cases skip on any engine but the one they were
// computed on.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "accel/simulator.h"
#include "arch/network.h"
#include "base/fnv1a.h"
#include "core/artifact.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "core/search.h"
#include "core/serialize.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "predictor/gp.h"
#include "rl/controller.h"
#include "serve/job_queue.h"
#include "serve/service.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace yoso {
namespace {

struct Golden {
  const char* winner;       ///< serialize_candidate() of the best finalist
  std::uint64_t checksum;   ///< reward_checksum() of the whole result
};

/// Appends the raw bytes of `v` to `bytes`.
template <typename T>
void append_raw(std::vector<std::uint8_t>& bytes, T v) {
  std::uint8_t raw[sizeof v];
  std::memcpy(raw, &v, sizeof v);
  bytes.insert(bytes.end(), raw, raw + sizeof v);
}

/// FNV-1a-64 over the raw bytes of best_fast_reward, then every finalist's
/// fast and accurate reward in rank order.
std::uint64_t reward_checksum(const SearchResult& r) {
  std::vector<std::uint8_t> bytes;
  append_raw(bytes, r.best_fast_reward);
  for (const RankedCandidate& f : r.finalists) {
    append_raw(bytes, f.fast_reward);
    append_raw(bytes, f.accurate_reward);
  }
  return fnv1a64(bytes);
}

/// FNV-1a-64 over the raw bytes of a serve job's best reward, accuracy,
/// latency and energy.
std::uint64_t outcome_checksum(const serve::JobOutcome& o) {
  std::vector<std::uint8_t> bytes;
  for (const double v :
       {o.best_reward, o.accuracy, o.latency_ms, o.energy_mj})
    append_raw(bytes, v);
  return fnv1a64(bytes);
}

std::uint64_t counter_value(std::string_view name) {
  for (const auto& c : obs::metrics_registry().snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

class GoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    space_ = std::make_unique<DesignSpace>();
    skeleton_ = std::make_unique<NetworkSkeleton>(default_skeleton());
    SystolicSimulator sim({}, SimFidelity::kAnalytical);
    fast_ = std::make_unique<FastEvaluator>(
        *space_, *skeleton_, sim,
        FastEvaluatorOptions{.predictor_samples = 150, .seed = 9});
    accurate_ = std::make_unique<AccurateEvaluator>(
        *skeleton_, SystolicSimulator({}, SimFidelity::kAnalytical));
  }
  static void TearDownTestSuite() {
    accurate_.reset();
    fast_.reset();
    skeleton_.reset();
    space_.reset();
  }

  void SetUp() override {
    if (kernels::active_isa() != "avx2+fma")
      GTEST_SKIP() << "pins were computed on the avx2+fma engine, this "
                      "process runs "
                   << kernels::active_isa();
  }

  static SearchOptions options(std::size_t batch_size) {
    SearchOptions opt;
    opt.iterations = 120;
    opt.top_n = 5;
    opt.trace_every = 0;
    opt.reward = balanced_reward();
    opt.seed = 13;
    opt.batch_size = batch_size;
    return opt;
  }

  /// Runs `driver` memo-cold at 1 and at 4 threads; both must hit the pins.
  static void expect_golden(SearchDriver& driver, const Golden& golden) {
    for (std::size_t threads : {1u, 4u}) {
      fast_->clear_cache();
      const SearchResult r =
          driver.run(*fast_, accurate_.get(), ExecContext::create(threads));
      ASSERT_TRUE(r.best.has_value()) << threads;
      EXPECT_EQ(serialize_candidate(r.best->candidate), golden.winner)
          << "threads " << threads;
      EXPECT_EQ(reward_checksum(r), golden.checksum) << "threads " << threads;
    }
  }

  static std::unique_ptr<DesignSpace> space_;
  static std::unique_ptr<NetworkSkeleton> skeleton_;
  static std::unique_ptr<FastEvaluator> fast_;
  static std::unique_ptr<AccurateEvaluator> accurate_;
};

std::unique_ptr<DesignSpace> GoldenTest::space_;
std::unique_ptr<NetworkSkeleton> GoldenTest::skeleton_;
std::unique_ptr<FastEvaluator> GoldenTest::fast_;
std::unique_ptr<AccurateEvaluator> GoldenTest::accurate_;

TEST_F(GoldenTest, YosoSearchBatch8) {
  YosoSearch driver(*space_, options(8));
  expect_golden(
      driver,
      {"normal=1,1,dwconv3x3,conv3x3;1,2,avgpool3x3,dwconv5x5;"
       "0,3,dwconv3x3,dwconv3x3;3,0,avgpool3x3,avgpool3x3;"
       "2,4,avgpool3x3,maxpool3x3|reduction=1,1,maxpool3x3,conv3x3;"
       "1,1,maxpool3x3,dwconv3x3;1,1,dwconv3x3,dwconv5x5;"
       "0,4,dwconv3x3,maxpool3x3;5,2,conv3x3,dwconv5x5"
       "@16*24/108KB/512B/OS",
       0xe884413b984c7be1ull});
}

TEST_F(GoldenTest, RandomSearchBatch60) {
  // 60 distinct misses per batch: a ragged tail on any fixed block size
  // that does not divide 60.
  RandomSearchDriver driver(*space_, options(60));
  expect_golden(
      driver,
      {"normal=1,1,dwconv5x5,dwconv5x5;2,1,dwconv5x5,conv3x3;"
       "1,0,dwconv5x5,maxpool3x3;0,3,dwconv3x3,avgpool3x3;"
       "0,4,avgpool3x3,avgpool3x3|reduction=0,1,maxpool3x3,avgpool3x3;"
       "2,1,dwconv5x5,conv3x3;1,3,maxpool3x3,dwconv5x5;"
       "0,2,dwconv5x5,conv3x3;2,0,maxpool3x3,dwconv5x5"
       "@16*16/512KB/1024B/OS",
       0xb716cf55854bf31cull});
}

// One rl job through an in-process SearchService at 4 threads, then the
// same spec again: the repeat must be served entirely by the shared memo
// and land on the same pinned outcome.
TEST_F(GoldenTest, ServeJobAndMemoRepeat) {
  std::string dir = ::testing::TempDir() + "yoso_golden_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr) << "mkdtemp " << dir;
  const std::string artifact = dir + "/artifact.bin";
  save_fast_evaluator(artifact, *fast_, "test_golden");

  serve::JobSpec spec;
  spec.searcher = "rl";
  spec.iterations = 120;
  spec.seed = 13;
  std::vector<std::optional<serve::JobRecord>> records;
  std::uint64_t repeat_misses = 0;
  {
    serve::SearchService service(artifact, {.threads = 4});
    for (int run = 0; run < 2; ++run) {
      const std::uint64_t misses = counter_value("eval.cache_misses");
      const std::uint64_t id = service.submit(spec);
      service.wait_idle();
      records.push_back(service.jobs().get(id));
      repeat_misses = counter_value("eval.cache_misses") - misses;
    }
    service.stop();
  }
  std::remove(artifact.c_str());
  ::rmdir(dir.c_str());

  EXPECT_EQ(repeat_misses, 0u);
  const Golden golden{
      "normal=1,1,dwconv3x3,conv3x3;2,2,dwconv5x5,dwconv5x5;"
      "0,3,dwconv3x3,conv3x3;3,0,conv3x3,avgpool3x3;"
      "5,4,avgpool3x3,maxpool3x3|reduction=1,1,conv3x3,avgpool3x3;"
      "1,1,dwconv3x3,dwconv3x3;1,2,dwconv3x3,dwconv5x5;"
      "0,4,dwconv3x3,maxpool3x3;4,2,maxpool3x3,dwconv5x5"
      "@16*24/196KB/256B/OS",
      0x05c6edaa5d2408b8ull};
  for (std::size_t run = 0; run < records.size(); ++run) {
    ASSERT_TRUE(records[run].has_value()) << run;
    ASSERT_EQ(records[run]->state, serve::JobState::kDone)
        << run << ": " << records[run]->error;
    const serve::JobOutcome& o = records[run]->outcome;
    ASSERT_TRUE(o.has_best) << run;
    EXPECT_EQ(o.best_candidate, golden.winner) << "run " << run;
    EXPECT_EQ(outcome_checksum(o), golden.checksum) << "run " << run;
  }
}

/// yoso_cli's default options at `samples` Step-1 samples and `iterations`
/// search iterations: the cycle-level simulator, the exact GP, batch 8,
/// top-10, seed 7, the balanced reward at t_lat 1.2 / t_eer 9.0, one thread.
SearchResult cli_default_run(const DesignSpace& space,
                             const NetworkSkeleton& skeleton,
                             std::size_t samples, std::size_t iterations) {
  SearchOptions opt;
  opt.iterations = iterations;
  opt.top_n = 10;
  opt.reward = balanced_reward();
  opt.reward.t_lat_ms = 1.2;
  opt.reward.t_eer_mj = 9.0;
  opt.seed = 7;
  opt.batch_size = 8;
  const ExecContextPtr exec = ExecContext::create(1);
  FastEvaluator fast(space, skeleton,
                     SystolicSimulator({}, SimFidelity::kCycleLevel),
                     {.predictor_samples = samples,
                      .seed = 7,
                      .predictor_backend = GpBackend::kExact,
                      .exec = exec});
  AccurateEvaluator accurate(
      skeleton, SystolicSimulator({}, SimFidelity::kCycleLevel), exec);
  return YosoSearch(space, opt).run(fast, &accurate, exec);
}

// The default run shortened to 150 samples and 400 iterations.  It pins
// the controller on the default 44-step action space inside the real
// driver.
TEST_F(GoldenTest, CycleLevelCliRun) {
  const SearchResult r = cli_default_run(*space_, *skeleton_, 150, 400);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_EQ(serialize_candidate(r.best->candidate),
            "normal=1,1,dwconv5x5,dwconv3x3;2,1,avgpool3x3,dwconv3x3;"
            "3,1,dwconv3x3,dwconv5x5;1,4,maxpool3x3,dwconv3x3;"
            "5,0,dwconv5x5,maxpool3x3|reduction=1,0,conv3x3,conv3x3;"
            "0,1,dwconv5x5,dwconv3x3;0,0,avgpool3x3,avgpool3x3;"
            "2,2,avgpool3x3,dwconv3x3;1,1,dwconv3x3,dwconv3x3"
            "@16*24/196KB/512B/OS");
  EXPECT_EQ(reward_checksum(r), 0xb5c9c79af21a8415ull);
}

// The default run at full length: 500 samples and 2,000 iterations, as
// `yoso_cli` with no flags.  It takes 6-8 s in RelWithDebInfo on a 4-vCPU
// Xeon VM (gcc 12.2), so scripts/check.sh and CI keep it out of the
// sanitizer stages.
TEST_F(GoldenTest, DefaultCliRunFullLength) {
  const SearchResult r = cli_default_run(*space_, *skeleton_, 500, 2000);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_EQ(serialize_candidate(r.best->candidate),
            "normal=1,1,dwconv5x5,dwconv5x5;1,1,avgpool3x3,dwconv3x3;"
            "3,0,dwconv3x3,dwconv5x5;2,4,avgpool3x3,dwconv3x3;"
            "4,1,dwconv5x5,dwconv5x5|reduction=1,0,conv3x3,dwconv5x5;"
            "1,1,dwconv3x3,conv3x3;0,0,dwconv3x3,conv3x3;"
            "2,4,maxpool3x3,avgpool3x3;5,4,dwconv3x3,dwconv3x3"
            "@16*32/256KB/128B/OS");
  EXPECT_EQ(reward_checksum(r), 0x26f0de6f85653d4cull);
}

// The sparse path end to end: a cycle-level Step 1 on the sparse GP with
// 37 inducing points (one full 32-row gram block and a partial one), then
// an rl search that folds an accurate result into the GP every 20
// iterations.  Step 1 and the search both run at 1 and at 4 threads.
TEST_F(GoldenTest, SparseRefineRun) {
  SearchOptions opt = options(8);
  opt.iterations = 200;
  opt.predictor = GpBackend::kSparse;
  opt.inducing_points = 37;
  opt.refine_every = 20;
  for (std::size_t threads : {1u, 4u}) {
    const ExecContextPtr exec = ExecContext::create(threads);
    const SystolicSimulator sim({}, SimFidelity::kCycleLevel);
    FastEvaluator fast(*space_, *skeleton_, sim,
                       {.predictor_samples = 150,
                        .seed = 9,
                        .predictor_backend = opt.predictor,
                        .inducing_points = opt.inducing_points,
                        .exec = exec});
    AccurateEvaluator accurate(*skeleton_, sim, exec);
    const SearchResult r = YosoSearch(*space_, opt).run(fast, &accurate, exec);
    ASSERT_TRUE(r.best.has_value()) << threads;
    EXPECT_EQ(r.refinements, 10u) << "threads " << threads;
    EXPECT_EQ(serialize_candidate(r.best->candidate),
              "normal=1,1,avgpool3x3,dwconv5x5;2,2,dwconv5x5,maxpool3x3;"
              "0,3,dwconv5x5,dwconv3x3;4,0,avgpool3x3,avgpool3x3;"
              "5,0,maxpool3x3,dwconv3x3|reduction=1,1,maxpool3x3,dwconv5x5;"
              "2,2,maxpool3x3,conv3x3;0,1,conv3x3,dwconv5x5;"
              "0,1,dwconv5x5,maxpool3x3;5,0,dwconv5x5,dwconv5x5"
              "@16*24/108KB/512B/WS")
        << "threads " << threads;
    EXPECT_EQ(reward_checksum(r), 0x5690355ad062c5eeull)
        << "threads " << threads;
  }
}

// 150 REINFORCE episodes of a bare controller over the default action
// space: sample, accumulate_gradient with an advantage that depends only on
// the actions, and one Adam step each.  Every episode's actions, log_prob
// and entropy enter the checksum, so any change to the sampler, the
// backward pass or Adam shows here first.
TEST_F(GoldenTest, ControllerTrajectory) {
  LstmController controller(space_->cardinalities(), {});
  Rng rng(21);
  std::vector<std::uint8_t> bytes;
  for (int episode = 0; episode < 150; ++episode) {
    const Episode ep = controller.sample(rng);
    int even = 0;
    for (const int a : ep.actions) {
      append_raw(bytes, a);
      even += a % 2 == 0 ? 1 : 0;
    }
    append_raw(bytes, ep.log_prob);
    append_raw(bytes, ep.entropy);
    const double advantage =
        static_cast<double>(even) / static_cast<double>(ep.actions.size()) -
        0.5;
    controller.accumulate_gradient(ep, advantage, 1e-4);
    controller.update(0.0035);
  }
  EXPECT_EQ(fnv1a64(bytes), 0x48b5ed6856e45a95ull);
}

}  // namespace
}  // namespace yoso
