#pragma once
// Search-time hardware performance prediction (paper §III.E): sample
// (DNN, accelerator-config) pairs, simulate them once, fit one GP with an
// energy and a latency target, then answer queries ~10^3x faster than
// simulation.

#include <functional>
#include <span>
#include <vector>

#include "accel/config.h"
#include "accel/simulator.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "linalg/matrix.h"
#include "predictor/gp.h"
#include "util/rng.h"

namespace yoso {

struct ArchFeatures;  // surrogate/accuracy_model.h
class ThreadPool;     // util/thread_pool.h

/// Feature vector for the regression models: architecture descriptors +
/// hardware configuration descriptors + a couple of interaction terms.
std::vector<double> codesign_features(const Genotype& g,
                                      const AcceleratorConfig& config,
                                      const NetworkSkeleton& skeleton);

/// Width of a co-design feature row (10 arch + 5 hw + dataflow one-hot +
/// 2 interaction terms).
inline constexpr std::size_t kCodesignFeatureDim =
    17 + static_cast<std::size_t>(kNumDataflows);

/// Allocation-free variant for batched hot paths: writes the same row into
/// `out` (>= kCodesignFeatureDim doubles) from pre-computed architecture
/// descriptors, so callers that also need `af` for the accuracy proxy
/// extract layers once per candidate instead of twice.  `af` must be
/// ArchFeatures::compute(g, skeleton) for the genotype this row describes.
void codesign_features_into(const ArchFeatures& af,
                            const AcceleratorConfig& config, double* out);

/// One simulated training sample.
struct PerfSample {
  Genotype genotype;
  AcceleratorConfig config;
  std::vector<double> features;
  double energy_mj = 0.0;
  double latency_ms = 0.0;
};

/// One Step-1 draw: a design and the skeleton it runs on (caller-owned; it
/// must outlive the collect_samples call).
struct SampleDraw {
  Genotype genotype;
  AcceleratorConfig config;
  const NetworkSkeleton* skeleton = nullptr;
};

/// Draws `count` designs with `draw` and simulates each on its skeleton.
/// The draws always consume `rng` on the calling thread in sample order;
/// only the (read-only) simulation fans out across `pool` (null = inline),
/// so the returned set is identical at any thread count.
std::vector<PerfSample> collect_samples(
    std::size_t count, const SystolicSimulator& simulator,
    const std::function<SampleDraw(Rng&)>& draw, Rng& rng,
    ThreadPool* pool = nullptr);

/// The uniform case on one skeleton: each draw takes the genotype, then the
/// config actions.
std::vector<PerfSample> collect_samples(std::size_t count,
                                        const SystolicSimulator& simulator,
                                        const ConfigSpace& space,
                                        const NetworkSkeleton& skeleton,
                                        Rng& rng, ThreadPool* pool = nullptr);

/// Splits samples into feature matrix + target vectors.
struct SampleMatrix {
  Matrix x;
  std::vector<double> energy;
  std::vector<double> latency;
};
SampleMatrix to_matrix(const std::vector<PerfSample>& samples);

/// The Step-1 predictor used inside the search loop: one GpRegressor whose
/// two targets are log energy (kEnergy) and log latency (kLatency), fitted
/// on the same simulated samples.  `backend` selects the GP
/// factorisation: kExact is the paper's O(n^3) fit; kSparse caps the model
/// at `inducing_points` inducing rows (O(n m^2) fit) and unlocks refine() —
/// O(m^2) online folding of accurate-simulator results into the fitted
/// model during the search.
class PerformancePredictor {
 public:
  /// Target indices of model(); fit() passes the targets in this order.
  static constexpr std::size_t kEnergy = 0;
  static constexpr std::size_t kLatency = 1;

  explicit PerformancePredictor(NetworkSkeleton skeleton,
                                GpBackend backend = GpBackend::kExact,
                                std::size_t inducing_points = 512)
      : skeleton_(std::move(skeleton)),
        gp_({}, true, backend, inducing_points) {}

  /// Fits both targets on simulated samples.  The sparse backend builds
  /// its gram blocks across `pool` (null runs inline); the fit is
  /// bit-identical at any pool size.
  void fit(const std::vector<PerfSample>& samples, ThreadPool* pool = nullptr);

  double predict_energy_mj(const Genotype& g,
                           const AcceleratorConfig& config) const;
  double predict_latency_ms(const Genotype& g,
                            const AcceleratorConfig& config) const;

  /// Batch prediction of both targets over `rows` contiguous raw feature
  /// rows (row-major, kCodesignFeatureDim wide, one row per candidate from
  /// codesign_features): standardization and the K* squared-distance panel
  /// are computed once and feed both targets.  Outputs are bit-identical
  /// to the per-candidate predict_latency_ms / predict_energy_mj calls.
  void predict_latency_energy_batch(const double* features, std::size_t rows,
                                    double* latency_ms,
                                    double* energy_mj) const;

  /// Folds one accurate-simulator result, for the design whose
  /// codesign_features row is `features`, into both targets in O(m^2)
  /// each (log-space targets, matching fit()).  Returns false (a no-op)
  /// when the backend has no incremental path (exact) or before fit().
  bool refine(std::span<const double> features, double latency_ms,
              double energy_mj);

  /// True when refine() would apply: a fitted sparse-backend model.
  bool supports_refinement() const { return gp_.supports_update(); }

  bool fitted() const { return gp_.fitted(); }
  const NetworkSkeleton& skeleton() const { return skeleton_; }
  /// The two-target GP; index its targets with kEnergy and kLatency.  Its
  /// updates_applied() counts the refine() calls since the last fit().
  const GpRegressor& model() const { return gp_; }

  /// Rebuilds a fitted predictor for `skeleton` by moving a copied (or
  /// artifact-loaded) model().state() into GpRegressor::from_state, so
  /// predictions and later refine() calls are bit-identical to the
  /// original.  ContractViolation unless the state holds the two targets
  /// over kCodesignFeatureDim-wide rows.
  static PerformancePredictor from_state(NetworkSkeleton skeleton,
                                         GpRegressorState state);

 private:
  /// One target's prediction for one design, exponentiated back.
  double predict_one(std::size_t target, const Genotype& g,
                     const AcceleratorConfig& config) const;

  NetworkSkeleton skeleton_;
  GpRegressor gp_;
};

}  // namespace yoso
