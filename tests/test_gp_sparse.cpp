// Sparse GP backend: deterministic inducing selection, batched prediction
// parity with per-row calls (chunk seams, after updates), rank-1 update
// parity against a naive from-scratch rebuild of the information matrix,
// distance-build accounting, multi-target parity with one-target fits,
// all-or-nothing multi-target fits and tuned fits equal to their best grid
// point (both backends), pooled fits equal to inline ones, and an
// exact-vs-sparse accuracy bound on seeded simulator samples.

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "accel/config.h"
#include "accel/simulator.h"
#include "accel/tech.h"
#include "arch/network.h"
#include "base/contract.h"
#include "linalg/matrix.h"
#include "predictor/gp.h"
#include "predictor/perf_predictor.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace yoso {
namespace {

struct GpData {
  Matrix x;
  std::vector<double> y;
  Matrix queries;
};

GpData make_data(std::size_t n, std::size_t d, std::size_t nq,
                 std::uint64_t seed) {
  Rng rng(seed);
  GpData data;
  data.x = Matrix(n, d);
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      data.x(r, c) = rng.uniform(-2.0, 2.0);
      s += data.x(r, c);
    }
    data.y.push_back(std::sin(s) + 0.1 * rng.normal());
  }
  data.queries = Matrix(nq, d);
  for (std::size_t r = 0; r < nq; ++r)
    for (std::size_t c = 0; c < d; ++c)
      data.queries(r, c) = rng.uniform(-2.0, 2.0);
  return data;
}

std::vector<double> query_row(const Matrix& q, std::size_t r) {
  std::vector<double> row(q.cols());
  for (std::size_t c = 0; c < q.cols(); ++c) row[c] = q(r, c);
  return row;
}

GpRegressor sparse_gp(std::size_t m, bool tune = true) {
  return GpRegressor({}, tune, GpBackend::kSparse, m);
}

double rbf(const GpHyperParams& hp, std::span<const double> a,
           std::span<const double> b) {
  return hp.signal_variance *
         std::exp(-squared_distance(a, b) /
                  (2.0 * hp.lengthscale * hp.lengthscale));
}

TEST(GpSparseTest, BatchMeansBitIdenticalToPerRowAcrossChunkSeams) {
  const GpData d = make_data(300, 5, 600, 3);
  GpRegressor gp = sparse_gp(48);
  gp.fit(d.x, d.y);
  EXPECT_EQ(gp.inducing_count(), 48u);
  const std::vector<double> batch = gp.predict_batch(d.queries);
  ASSERT_EQ(batch.size(), d.queries.rows());
  for (const std::size_t r : {0u, 1u, 255u, 256u, 257u, 511u, 512u, 599u}) {
    EXPECT_DOUBLE_EQ(batch[r], gp.predict(query_row(d.queries, r)))
        << "row " << r;
    // The DTC variance path shares the mean chain.
    const auto [mu, var] = gp.predict_with_variance(query_row(d.queries, r));
    EXPECT_DOUBLE_EQ(mu, batch[r]) << "row " << r;
    EXPECT_GE(var, 0.0) << "row " << r;
  }
}

TEST(GpSparseTest, InducingSelectionIsDeterministicAndTargetFree) {
  const GpData d = make_data(220, 5, 1, 19);
  GpRegressor a = sparse_gp(24);
  a.fit(d.x, d.y);
  // Same inputs with a different target must select the same inducing set
  // (selection depends on X only) — the property that lets a multi-target
  // model select once for all its targets.
  std::vector<double> y2(d.y);
  for (double& v : y2) v = 2.5 * v - 1.0;
  GpRegressor b = sparse_gp(24);
  b.fit(d.x, y2);
  ASSERT_EQ(a.inducing_indices().size(), b.inducing_indices().size());
  for (std::size_t i = 0; i < a.inducing_indices().size(); ++i)
    EXPECT_EQ(a.inducing_indices()[i], b.inducing_indices()[i]) << i;
  // Refitting the same model reproduces the weights bitwise.
  GpRegressor c = sparse_gp(24);
  c.fit(d.x, d.y);
  ASSERT_EQ(a.alpha().size(), c.alpha().size());
  for (std::size_t i = 0; i < a.alpha().size(); ++i)
    EXPECT_EQ(a.alpha()[i], c.alpha()[i]) << i;
}

// The counter-based no-refit proof: a sparse fit builds one cross panel and
// one inducing panel; update() builds none.
TEST(GpSparseTest, DistanceBuildAccounting) {
  const GpData d = make_data(150, 5, 1, 13);
  GpRegressor gp = sparse_gp(20);
  gp.fit(d.x, d.y);
  EXPECT_EQ(gp.distance_builds().full, 0u);
  EXPECT_EQ(gp.distance_builds().cross, 1u);
  EXPECT_EQ(gp.distance_builds().inducing, 1u);
  EXPECT_EQ(gp.distance_matrix_builds(), 2u);
  for (int i = 0; i < 4; ++i)
    gp.update(query_row(d.queries, 0), 0.25 * i);
  EXPECT_EQ(gp.updates_applied(), 4u);
  EXPECT_EQ(gp.distance_matrix_builds(), 2u) << "update() must not refit";
  // Refit resets both the build counters and the update count.
  gp.fit(d.x, d.y);
  EXPECT_EQ(gp.distance_matrix_builds(), 2u);
  EXPECT_EQ(gp.updates_applied(), 0u);
  // The exact backend still reports its single full build.
  GpRegressor exact;
  exact.fit(d.x, d.y);
  EXPECT_EQ(exact.distance_builds().full, 1u);
  EXPECT_EQ(exact.distance_builds().cross, 0u);
  EXPECT_EQ(exact.distance_matrix_builds(), 1u);
}

// Rank-1 update parity: after k sequential updates the weights must match
// a naive from-scratch rebuild of A = nv K_mm + K_mn K_nm and b = K_mn yc
// over the full (original + streamed) observation set, holding the fitted
// inducing set / scaler / target mean frozen exactly as update() does.
TEST(GpSparseTest, SequentialUpdatesMatchNaiveRebuild) {
  const GpData d = make_data(200, 5, 40, 23);
  GpRegressor gp = sparse_gp(32);
  gp.fit(d.x, d.y);

  Rng rng(29);
  Matrix xu(6, d.x.cols());
  std::vector<double> yu;
  for (std::size_t r = 0; r < xu.rows(); ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < xu.cols(); ++c) {
      xu(r, c) = rng.uniform(-2.0, 2.0);
      s += xu(r, c);
    }
    yu.push_back(std::sin(s));
    gp.update(query_row(xu, r), yu.back());
  }
  EXPECT_EQ(gp.updates_applied(), xu.rows());

  // Naive reference from the fitted state's accessors.
  const GpHyperParams hp = gp.hyper_params();
  const Matrix& z = gp.train_inputs();  // standardized inducing rows
  const std::size_t m = z.rows();
  const Matrix xs = gp.input_scaler().transform(d.x);
  const Matrix xus = gp.input_scaler().transform(xu);
  Matrix a(m, m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j)
      a(i, j) = hp.noise_variance * rbf(hp, z.row(i), z.row(j));
  std::vector<double> b(m, 0.0);
  const auto accumulate = [&](std::span<const double> row, double target) {
    std::vector<double> k(m);
    for (std::size_t j = 0; j < m; ++j) k[j] = rbf(hp, row, z.row(j));
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) a(i, j) += k[i] * k[j];
      b[i] += k[i] * (target - gp.target_mean());
    }
  };
  for (std::size_t r = 0; r < xs.rows(); ++r) accumulate(xs.row(r), d.y[r]);
  for (std::size_t r = 0; r < xus.rows(); ++r) accumulate(xus.row(r), yu[r]);
  const Cholesky chol(a);
  const std::vector<double> w_ref = chol.solve(b);

  ASSERT_EQ(gp.alpha().size(), w_ref.size());
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_NEAR(gp.alpha()[i], w_ref[i],
                1e-8 * std::max(1.0, std::abs(w_ref[i])))
        << i;
  // Predictive means agree with the reference weights to 1e-8.
  const std::vector<double> mu = gp.predict_batch(d.queries);
  const Matrix qs = gp.input_scaler().transform(d.queries);
  for (std::size_t r = 0; r < qs.rows(); ++r) {
    double ref = gp.target_mean();
    for (std::size_t j = 0; j < m; ++j)
      ref += rbf(hp, qs.row(r), z.row(j)) * w_ref[j];
    EXPECT_NEAR(mu[r], ref, 1e-8 * std::max(1.0, std::abs(ref))) << r;
  }
}

TEST(GpSparseTest, UpdatedModelBatchStaysBitIdenticalAcrossThreads) {
  const GpData d = make_data(180, 5, 70, 31);
  GpRegressor gp = sparse_gp(24);
  gp.fit(d.x, d.y);
  gp.update(query_row(d.queries, 0), 0.5);
  gp.update(query_row(d.queries, 1), -0.25);
  const std::vector<double> batch = gp.predict_batch(d.queries);
  ASSERT_EQ(batch.size(), d.queries.rows());
  for (std::size_t r = 0; r < batch.size(); ++r)
    ASSERT_EQ(batch[r], gp.predict(query_row(d.queries, r))) << "r=" << r;
}

TEST(GpSparseTest, UpdateContractViolations) {
  GpRegressor unfitted = sparse_gp(16);
  EXPECT_THROW(unfitted.update(std::vector<double>(3, 0.0), 1.0),
               ContractViolation);
  const GpData d = make_data(50, 3, 1, 37);
  GpRegressor exact;
  exact.fit(d.x, d.y);
  EXPECT_FALSE(exact.supports_update());
  EXPECT_THROW(exact.update(query_row(d.x, 0), 1.0), ContractViolation);
  GpRegressor sparse = sparse_gp(16);
  sparse.fit(d.x, d.y);
  EXPECT_TRUE(sparse.supports_update());
  EXPECT_THROW(sparse.update(std::vector<double>(5, 0.0), 1.0),
               ContractViolation);
}

TEST(GpSparseTest, SmallTrainingSetUsesEveryRow) {
  const GpData d = make_data(12, 4, 8, 41);
  GpRegressor gp = sparse_gp(64);
  gp.fit(d.x, d.y);
  EXPECT_EQ(gp.inducing_count(), 12u);
  ASSERT_EQ(gp.inducing_indices().size(), 12u);
  for (const double mu : gp.predict_batch(d.queries))
    EXPECT_TRUE(std::isfinite(mu));
}

// Target t of a multi-target fit must be bit-identical to a one-target fit
// on ys[t]: means (past the 256-row chunk seam, with and without the other
// target requested), mean and variance, tuned hyper-parameters and the log
// marginal likelihood — and, on the sparse backend, again after updates.
TEST(GpSparseTest, TwoTargetsMatchOneTargetFitsBitForBit) {
  const GpData d = make_data(240, 6, 300, 43);
  std::vector<double> y2(d.y);
  for (double& v : y2) v = -3.0 * v + 0.5;
  const std::span<const double> ys[2] = {d.y, y2};
  for (const GpBackend backend : {GpBackend::kExact, GpBackend::kSparse}) {
    SCOPED_TRACE(backend == GpBackend::kSparse ? "sparse" : "exact");
    GpRegressor two({}, true, backend, 28);
    two.fit(d.x, ys);
    ASSERT_EQ(two.targets(), 2u);
    std::vector<GpRegressor> one;
    for (const std::span<const double> y : ys) {
      one.emplace_back(GpHyperParams{}, true, backend, 28);
      one.back().fit(d.x, y);
    }
    EXPECT_EQ(two.distance_builds().full, one[0].distance_builds().full);
    EXPECT_EQ(two.distance_builds().cross, one[0].distance_builds().cross);

    const auto expect_same = [&](const char* when) {
      SCOPED_TRACE(when);
      const std::size_t nq = d.queries.rows();
      std::vector<double> mu0(nq), mu1(nq), alone(nq);
      double* const outs[2] = {mu0.data(), mu1.data()};
      two.predict_means(d.queries.data().data(), nq, outs);
      double* const only1[2] = {nullptr, alone.data()};
      two.predict_means(d.queries.data().data(), nq, only1);
      const std::vector<double> ref0 = one[0].predict_batch(d.queries);
      const std::vector<double> ref1 = one[1].predict_batch(d.queries);
      for (std::size_t r = 0; r < nq; ++r) {
        ASSERT_EQ(mu0[r], ref0[r]) << r;
        ASSERT_EQ(mu1[r], ref1[r]) << r;
        ASSERT_EQ(alone[r], ref1[r]) << r;
      }
      for (std::size_t t = 0; t < 2; ++t) {
        EXPECT_EQ(two.hyper_params(t).lengthscale,
                  one[t].hyper_params().lengthscale);
        EXPECT_EQ(two.hyper_params(t).signal_variance,
                  one[t].hyper_params().signal_variance);
        EXPECT_EQ(two.hyper_params(t).noise_variance,
                  one[t].hyper_params().noise_variance);
        EXPECT_EQ(two.log_marginal_likelihood(t),
                  one[t].log_marginal_likelihood());
        for (const std::size_t r : {0u, 131u, 299u}) {
          const std::vector<double> q = query_row(d.queries, r);
          EXPECT_EQ(two.predict_with_variance(q, t),
                    one[t].predict_with_variance(q))
              << "target " << t << " row " << r;
        }
      }
    };
    expect_same("after fit");
    if (backend == GpBackend::kExact) continue;
    for (std::size_t r = 0; r < 5; ++r) {
      const std::vector<double> q = query_row(d.queries, r);
      const double vals[2] = {0.1 * static_cast<double>(r), -0.3};
      two.update(q, vals);
      one[0].update(q, vals[0]);
      one[1].update(q, vals[1]);
    }
    EXPECT_EQ(two.updates_applied(), 5u);
    expect_same("after 5 updates");
  }
}

void expect_same_state(const GpRegressorState& a, const GpRegressorState& b) {
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.tune, b.tune);
  EXPECT_EQ(a.inducing_target, b.inducing_target);
  EXPECT_EQ(a.updates_applied, b.updates_applied);
  EXPECT_TRUE(std::ranges::equal(a.scaler.mean(), b.scaler.mean()));
  EXPECT_TRUE(std::ranges::equal(a.scaler.stddev(), b.scaler.stddev()));
  EXPECT_TRUE(a.train_x == b.train_x);
  EXPECT_EQ(a.inducing_idx, b.inducing_idx);
  ASSERT_EQ(a.targets.size(), b.targets.size());
  for (std::size_t t = 0; t < a.targets.size(); ++t) {
    SCOPED_TRACE("target " + std::to_string(t));
    const GpRegressorState::Target& at = a.targets[t];
    const GpRegressorState::Target& bt = b.targets[t];
    EXPECT_EQ(at.hp.lengthscale, bt.hp.lengthscale);
    EXPECT_EQ(at.hp.signal_variance, bt.hp.signal_variance);
    EXPECT_EQ(at.hp.noise_variance, bt.hp.noise_variance);
    EXPECT_EQ(at.alpha, bt.alpha);
    EXPECT_TRUE(at.chol.lower() == bt.chol.lower());
    EXPECT_TRUE(at.chol_kmm.lower() == bt.chol_kmm.lower());
    EXPECT_EQ(at.b, bt.b);
    EXPECT_EQ(at.y_mean, bt.y_mean);
    EXPECT_EQ(at.lml, bt.lml);
  }
}

// The sparse fit exponentiates K_nm's 32-wide panels, forms the gram's
// lower blocks and factors each lengthscale's K_mm and noise points across
// the pool it is given.  Pools of 1, 2 and 3 workers must fit the same
// state as no pool, bit for bit and for both targets.
TEST(GpSparseTest, ParallelFitMatchesSerialBitForBit) {
  const GpData d = make_data(300, 6, 1, 53);
  std::vector<double> y2(d.y);
  for (double& v : y2) v = 2.0 * v * v - 1.0;
  const std::span<const double> ys[2] = {d.y, y2};
  // m = 1 and 5 are one partial panel, 37 a full and a partial one, 64
  // two full ones; the untuned model factors one noise point.
  for (const bool tune : {true, false})
    for (const std::size_t m : {1u, 5u, 37u, 64u}) {
      GpRegressor serial = sparse_gp(m, tune);
      serial.fit(d.x, ys);
      ASSERT_EQ(serial.inducing_count(), m);
      for (const std::size_t workers : {1u, 2u, 3u}) {
        SCOPED_TRACE("m " + std::to_string(m) + ", tune " +
                     std::to_string(tune) + ", " + std::to_string(workers) +
                     " workers");
        ThreadPool pool(workers);
        GpRegressor pooled = sparse_gp(m, tune);
        pooled.fit(d.x, ys, &pool);
        expect_same_state(serial.state(), pooled.state());
      }
    }
}

// Each backend walks its own copy of the tuning grid, and both must walk
// the same one: a tuned fit's hyper-parameters, likelihood and weights
// equal, bit for bit, the first best of the 15 untuned fits at lengthscales
// sqrt(d) * {1/4, 1/2, 1, 2, 4}, signal variance y_var and noise
// y_var * {1e-4, 1e-3, 1e-2}.
TEST(GpSparseTest, TunedFitIsFirstBestUntunedGridPoint) {
  constexpr std::size_t kDim = 6;
  const GpData d = make_data(120, kDim, 1, 59);
  const double y_mean = mean(d.y);
  double y_var = 0.0;
  for (const double v : d.y) y_var += (v - y_mean) * (v - y_mean);
  y_var /= static_cast<double>(d.y.size());
  const double base_l = std::sqrt(static_cast<double>(kDim));
  for (const GpBackend backend : {GpBackend::kExact, GpBackend::kSparse}) {
    SCOPED_TRACE(backend == GpBackend::kSparse ? "sparse" : "exact");
    GpRegressor tuned({}, true, backend, 40);
    tuned.fit(d.x, d.y);
    double best_lml = -std::numeric_limits<double>::infinity();
    GpHyperParams best_hp;
    std::vector<double> best_alpha;
    for (const double lf : {0.25, 0.5, 1.0, 2.0, 4.0})
      for (const double nf : {1e-4, 1e-3, 1e-2}) {
        const GpHyperParams hp{base_l * lf, y_var, y_var * nf};
        GpRegressor point(hp, false, backend, 40);
        point.fit(d.x, d.y);
        if (point.log_marginal_likelihood() <= best_lml) continue;
        best_lml = point.log_marginal_likelihood();
        best_hp = hp;
        best_alpha.assign(point.alpha().begin(), point.alpha().end());
      }
    EXPECT_EQ(tuned.hyper_params().lengthscale, best_hp.lengthscale);
    EXPECT_EQ(tuned.hyper_params().signal_variance, best_hp.signal_variance);
    EXPECT_EQ(tuned.hyper_params().noise_variance, best_hp.noise_variance);
    EXPECT_EQ(tuned.log_marginal_likelihood(), best_lml);
    EXPECT_TRUE(std::ranges::equal(tuned.alpha(), best_alpha));
  }
}

// fit() builds every target before it installs any: a target that cannot
// be fitted (a NaN makes every grid point's likelihood NaN) leaves the
// model unfitted, not half refitted on the new inputs.
TEST(GpSparseTest, FailedTargetLeavesModelUnfitted) {
  const GpData d = make_data(60, 4, 1, 47);
  std::vector<double> bad(d.y);
  bad[7] = std::nan("");
  const std::span<const double> ys[2] = {d.y, bad};
  for (const GpBackend backend : {GpBackend::kExact, GpBackend::kSparse}) {
    GpRegressor gp({}, true, backend, 16);
    gp.fit(d.x, d.y);
    ASSERT_TRUE(gp.fitted());
    EXPECT_THROW(gp.fit(d.x, ys), ContractViolation);
    EXPECT_FALSE(gp.fitted());
    EXPECT_THROW(gp.predict(query_row(d.queries, 0)), ContractViolation);
  }
}

// Exact-vs-sparse accuracy on a seeded simulator sample set: the sparse
// model predicts log-latency on held-out draws within a modest factor of
// the exact model's RMSE.
TEST(GpSparseTest, SparseRmseNearExactOnSimulatorSamples) {
  const NetworkSkeleton skeleton = default_skeleton();
  const SystolicSimulator simulator(TechnologyParams{},
                                    SimFidelity::kAnalytical);
  const ConfigSpace space = default_config_space();
  Rng rng(61);
  const auto samples = collect_samples(260, simulator, space, skeleton, rng);
  const std::size_t train_n = 200;
  const std::size_t dim =
      codesign_features(samples[0].genotype, samples[0].config, skeleton)
          .size();
  Matrix x(train_n, dim);
  std::vector<double> y;
  for (std::size_t i = 0; i < train_n; ++i) {
    const auto f =
        codesign_features(samples[i].genotype, samples[i].config, skeleton);
    for (std::size_t c = 0; c < dim; ++c) x(i, c) = f[c];
    y.push_back(std::log(std::max(samples[i].latency_ms, 1e-9)));
  }
  GpRegressor exact;
  GpRegressor sparse = sparse_gp(96);
  exact.fit(x, y);
  sparse.fit(x, y);

  double se_exact = 0.0;
  double se_sparse = 0.0;
  const std::size_t held = samples.size() - train_n;
  for (std::size_t i = train_n; i < samples.size(); ++i) {
    const auto f =
        codesign_features(samples[i].genotype, samples[i].config, skeleton);
    const double truth = std::log(std::max(samples[i].latency_ms, 1e-9));
    const double de = exact.predict(f) - truth;
    const double ds = sparse.predict(f) - truth;
    se_exact += de * de;
    se_sparse += ds * ds;
  }
  const double rmse_exact = std::sqrt(se_exact / static_cast<double>(held));
  const double rmse_sparse = std::sqrt(se_sparse / static_cast<double>(held));
  // Loose unit-test bound (the calibrated 5%-relative gate lives in
  // bench_gp_sparse where n/m matches the paper-scale setting).
  EXPECT_LE(rmse_sparse, 1.5 * rmse_exact + 0.05)
      << "exact rmse " << rmse_exact << " sparse rmse " << rmse_sparse;
}

}  // namespace
}  // namespace yoso
