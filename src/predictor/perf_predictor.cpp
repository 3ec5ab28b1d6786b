#include "predictor/perf_predictor.h"

#include <cmath>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "base/contract.h"
#include "linalg/matrix.h"
#include "obs/trace.h"
#include "predictor/gp.h"
#include "surrogate/accuracy_model.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace yoso {

void codesign_features_into(const ArchFeatures& af,
                            const AcceleratorConfig& config, double* out) {
  YOSO_REQUIRE(out != nullptr, "codesign_features_into: null output");
  // Architecture.
  *out++ = af.log10_macs;
  *out++ = af.log10_params;
  *out++ = af.conv_frac;
  *out++ = af.dw_frac;
  *out++ = af.pool_frac;
  *out++ = af.k5_frac;
  *out++ = af.depth_normal;
  *out++ = af.depth_reduction;
  *out++ = af.loose_normal;
  *out++ = af.loose_reduction;
  // Hardware.
  *out++ = std::log2(static_cast<double>(config.pe_rows));
  *out++ = std::log2(static_cast<double>(config.pe_cols));
  *out++ = std::log2(static_cast<double>(config.num_pes()));
  *out++ = std::log2(static_cast<double>(config.g_buf_kb));
  *out++ = std::log2(static_cast<double>(config.r_buf_bytes));
  for (int d = 0; d < kNumDataflows; ++d)
    *out++ = config.dataflow == static_cast<Dataflow>(d) ? 1.0 : 0.0;
  // Interactions: compute intensity and weight-to-buffer pressure.
  *out++ = af.log10_macs - std::log10(static_cast<double>(config.num_pes()));
  *out++ = af.log10_params -
           std::log10(static_cast<double>(config.g_buf_kb) * 1024.0 / 2.0);
}

std::vector<double> codesign_features(const Genotype& g,
                                      const AcceleratorConfig& config,
                                      const NetworkSkeleton& skeleton) {
  const ArchFeatures af = ArchFeatures::compute(g, skeleton);
  std::vector<double> f(kCodesignFeatureDim);
  codesign_features_into(af, config, f.data());
  return f;
}

std::vector<PerfSample> collect_samples(
    std::size_t count, const SystolicSimulator& simulator,
    const std::function<SampleDraw(Rng&)>& draw, Rng& rng,
    ThreadPool* pool) {
  YOSO_TRACE_SPAN("step1.collect_samples");
  obs::counter_add("step1.samples", count);
  // Serial phase: all RNG draws, in sample order.
  std::vector<PerfSample> samples(count);
  std::vector<const NetworkSkeleton*> skeletons(count);
  for (std::size_t i = 0; i < count; ++i) {
    const SampleDraw d = draw(rng);
    samples[i].genotype = d.genotype;
    samples[i].config = d.config;
    skeletons[i] = d.skeleton;
  }
  // Parallel phase: simulation dominates collection cost and is read-only.
  // The injected pool is shared with the rest of the framework
  // (util/exec_context.h); null runs inline.
  ThreadPool inline_pool(0);
  (pool != nullptr ? *pool : inline_pool)
      .parallel_for(0, count, [&](std::size_t i) {
        PerfSample& s = samples[i];
        const SimulationResult r =
            simulator.simulate_network(s.genotype, *skeletons[i], s.config);
        s.energy_mj = r.energy_mj;
        s.latency_ms = r.latency_ms;
        s.features = codesign_features(s.genotype, s.config, *skeletons[i]);
      });
  return samples;
}

std::vector<PerfSample> collect_samples(std::size_t count,
                                        const SystolicSimulator& simulator,
                                        const ConfigSpace& space,
                                        const NetworkSkeleton& skeleton,
                                        Rng& rng, ThreadPool* pool) {
  std::vector<int> actions(ConfigSpace::kActionCount);  // overwritten per draw
  return collect_samples(
      count, simulator,
      [&](Rng& r) {
        SampleDraw d;
        d.genotype = random_genotype(r);
        for (int a = 0; a < ConfigSpace::kActionCount; ++a)
          actions[static_cast<std::size_t>(a)] =
              r.uniform_int(0, space.cardinality(a) - 1);
        d.config = space.decode(actions);
        d.skeleton = &skeleton;
        return d;
      },
      rng, pool);
}

SampleMatrix to_matrix(const std::vector<PerfSample>& samples) {
  if (samples.empty()) throw std::invalid_argument("to_matrix: no samples");
  SampleMatrix m;
  m.x = Matrix(samples.size(), samples.front().features.size());
  m.energy.reserve(samples.size());
  m.latency.reserve(samples.size());
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const auto& f = samples[r].features;
    if (f.size() != m.x.cols())
      throw std::invalid_argument("to_matrix: ragged features");
    for (std::size_t c = 0; c < f.size(); ++c) m.x(r, c) = f[c];
    m.energy.push_back(samples[r].energy_mj);
    m.latency.push_back(samples[r].latency_ms);
  }
  return m;
}

void PerformancePredictor::fit(const std::vector<PerfSample>& samples,
                               ThreadPool* pool) {
  YOSO_TRACE_SPAN("step1.fit_gp");
  const SampleMatrix m = to_matrix(samples);
  YOSO_REQUIRE(m.x.cols() == kCodesignFeatureDim, "PerformancePredictor: ",
               m.x.cols(), "-wide feature rows, not ", kCodesignFeatureDim);
  // Both targets are positive with heavy upper tails (NLR configs are many
  // times slower than OS); the GP regresses log(y) and predictions
  // exponentiate back.
  std::vector<double> log_e(m.energy.size()), log_l(m.latency.size());
  for (std::size_t i = 0; i < m.energy.size(); ++i) {
    log_e[i] = std::log(std::max(m.energy[i], 1e-9));
    log_l[i] = std::log(std::max(m.latency[i], 1e-9));
  }
  const std::span<const double> ys[] = {log_e, log_l};  // kEnergy, kLatency
  gp_.fit(m.x, ys, pool);
}

bool PerformancePredictor::refine(std::span<const double> features,
                                  double latency_ms, double energy_mj) {
  if (!supports_refinement()) return false;
  // Same log transform and target order as fit().
  const double ys[] = {std::log(std::max(energy_mj, 1e-9)),
                       std::log(std::max(latency_ms, 1e-9))};
  gp_.update(features, ys);
  return true;
}

double PerformancePredictor::predict_one(
    std::size_t target, const Genotype& g,
    const AcceleratorConfig& config) const {
  const std::vector<double> f = codesign_features(g, config, skeleton_);
  double mu = 0.0;
  double* const out[] = {target == kEnergy ? &mu : nullptr,
                         target == kLatency ? &mu : nullptr};
  gp_.predict_means(f.data(), 1, out);
  return std::exp(mu);
}

double PerformancePredictor::predict_energy_mj(
    const Genotype& g, const AcceleratorConfig& config) const {
  return predict_one(kEnergy, g, config);
}

double PerformancePredictor::predict_latency_ms(
    const Genotype& g, const AcceleratorConfig& config) const {
  return predict_one(kLatency, g, config);
}

void PerformancePredictor::predict_latency_energy_batch(
    const double* features, std::size_t rows, double* latency_ms,
    double* energy_mj) const {
  YOSO_REQUIRE(rows == 0 || (features != nullptr && latency_ms != nullptr &&
                             energy_mj != nullptr),
               "predict_latency_energy_batch: null input/output");
  double* const mu[] = {energy_mj, latency_ms};  // kEnergy, kLatency
  gp_.predict_means(features, rows, mu);
  for (std::size_t r = 0; r < rows; ++r) {
    latency_ms[r] = std::exp(latency_ms[r]);
    energy_mj[r] = std::exp(energy_mj[r]);
  }
}

PerformancePredictor PerformancePredictor::from_state(
    NetworkSkeleton skeleton, GpRegressorState state) {
  YOSO_REQUIRE(state.targets.size() == 2, "PerformancePredictor::from_state: ",
               state.targets.size(), " GP targets, not energy and latency");
  PerformancePredictor p(std::move(skeleton));
  p.gp_ = GpRegressor::from_state(std::move(state));
  YOSO_REQUIRE(p.gp_.train_inputs().cols() == kCodesignFeatureDim,
               "PerformancePredictor::from_state: the model takes ",
               p.gp_.train_inputs().cols(), "-wide rows, not ",
               kCodesignFeatureDim);
  return p;
}

}  // namespace yoso
