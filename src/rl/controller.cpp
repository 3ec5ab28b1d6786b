#include "rl/controller.h"

#include <cmath>
#include <stdexcept>

#include "base/contract.h"
#include "util/rng.h"

namespace yoso {

namespace {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// The two matvec helpers hold the controller's hot inner loops.  Their
// speed depends on where those loops fall relative to 64-byte boundaries
// (a ~25% swing in sampling and backward time on a 5th-gen Xeon), and any
// edit elsewhere in this file can move them, so their start is pinned.

/// y += M x  where M is (rows x cols) row-major.
__attribute__((aligned(64))) void matvec_acc(std::span<const double> m,
                                             std::span<const double> x,
                                             std::span<double> y,
                                             std::size_t rows,
                                             std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    const double* row = m.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] += acc;
  }
}

/// y += M^T x  where M is (rows x cols) row-major, x has `rows` entries.
__attribute__((aligned(64))) void matvec_t_acc(std::span<const double> m,
                                               std::span<const double> x,
                                               std::span<double> y,
                                               std::size_t rows,
                                               std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    const double* row = m.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) y[c] += row[c] * xr;
  }
}

/// G += a b^T for G (rows x cols) row-major.
void outer_acc(std::span<double> g, std::span<const double> a,
               std::span<const double> b, std::size_t rows,
               std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double ar = a[r];
    if (ar == 0.0) continue;
    double* row = g.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) row[c] += ar * b[c];
  }
}

}  // namespace

LstmController::LstmController(std::vector<int> cardinalities,
                               ControllerOptions options)
    : cardinalities_(std::move(cardinalities)), options_(options) {
  if (cardinalities_.empty())
    throw std::invalid_argument("LstmController: empty action space");
  for (int c : cardinalities_)
    if (c < 1) throw std::invalid_argument("LstmController: bad cardinality");

  Rng rng(options_.seed);
  const auto h = static_cast<std::size_t>(options_.hidden_size);
  const auto e = static_cast<std::size_t>(options_.embed_size);
  w_x_ = store_.alloc(4 * h * e, rng);
  w_h_ = store_.alloc(4 * h * h, rng, 0.08);
  b_ = store_.alloc(4 * h, rng, 0.0);
  start_ = store_.alloc(e, rng);
  embed_.resize(cardinalities_.size());
  head_w_.resize(cardinalities_.size());
  head_b_.resize(cardinalities_.size());
  for (std::size_t t = 0; t < cardinalities_.size(); ++t) {
    if (t >= 1)
      embed_[t] = store_.alloc(
          static_cast<std::size_t>(cardinalities_[t - 1]) * e, rng);
    head_w_[t] = store_.alloc(
        static_cast<std::size_t>(cardinalities_[t]) * h, rng);
    head_b_[t] =
        store_.alloc(static_cast<std::size_t>(cardinalities_[t]), rng, 0.0);
  }
}

std::vector<double> LstmController::step_forward(Episode& ep, int t,
                                                 int prev_action) {
  const auto h = static_cast<std::size_t>(options_.hidden_size);
  const auto e = static_cast<std::size_t>(options_.embed_size);
  const auto ti = static_cast<std::size_t>(t);

  // Input embedding.
  ep.x[ti].assign(e, 0.0);
  if (t == 0) {
    const auto sv = store_.value(start_);
    for (std::size_t i = 0; i < e; ++i) ep.x[ti][i] = sv[i];
  } else {
    const auto ev = store_.value(embed_[ti]);
    YOSO_REQUIRE(prev_action >= 0 &&
                     static_cast<std::size_t>(prev_action + 1) * e <=
                         ev.size(),
                 "Controller::step_forward: prev_action ", prev_action,
                 " out of range");
    for (std::size_t i = 0; i < e; ++i)
      ep.x[ti][i] = ev[static_cast<std::size_t>(prev_action) * e + i];
  }

  // Gate pre-activations.
  std::vector<double> pre(4 * h);
  {
    const auto bv = store_.value(b_);
    for (std::size_t i = 0; i < 4 * h; ++i) pre[i] = bv[i];
  }
  matvec_acc(store_.value(w_x_), ep.x[ti], pre, 4 * h, e);
  if (t > 0) matvec_acc(store_.value(w_h_), ep.h[ti - 1], pre, 4 * h, h);

  ep.gi[ti].resize(h);
  ep.gf[ti].resize(h);
  ep.gg[ti].resize(h);
  ep.go[ti].resize(h);
  ep.c[ti].resize(h);
  ep.h[ti].resize(h);
  for (std::size_t i = 0; i < h; ++i) {
    ep.gi[ti][i] = sigmoid(pre[i]);
    ep.gf[ti][i] = sigmoid(pre[h + i]);
    ep.gg[ti][i] = std::tanh(pre[2 * h + i]);
    ep.go[ti][i] = sigmoid(pre[3 * h + i]);
    const double c_prev = t > 0 ? ep.c[ti - 1][i] : 0.0;
    ep.c[ti][i] = ep.gf[ti][i] * c_prev + ep.gi[ti][i] * ep.gg[ti][i];
    ep.h[ti][i] = ep.go[ti][i] * std::tanh(ep.c[ti][i]);
  }

  // Head logits with temperature + tanh-constant squashing.
  const auto card = static_cast<std::size_t>(cardinalities_[ti]);
  ep.head_u[ti].assign(card, 0.0);
  {
    const auto bv = store_.value(head_b_[ti]);
    for (std::size_t i = 0; i < card; ++i) ep.head_u[ti][i] = bv[i];
  }
  matvec_acc(store_.value(head_w_[ti]), ep.h[ti], ep.head_u[ti], card, h);

  std::vector<double> z(card);
  for (std::size_t i = 0; i < card; ++i)
    z[i] = options_.tanh_constant *
           std::tanh(ep.head_u[ti][i] / options_.temperature);
  return z;
}

Episode LstmController::sample(Rng& rng) {
  const int t_max = num_steps();
  Episode ep;
  const auto n = static_cast<std::size_t>(t_max);
  ep.actions.resize(n);
  ep.x.resize(n);
  ep.h.resize(n);
  ep.c.resize(n);
  ep.gi.resize(n);
  ep.gf.resize(n);
  ep.gg.resize(n);
  ep.go.resize(n);
  ep.probs.resize(n);
  ep.head_u.resize(n);

  int prev = 0;
  for (int t = 0; t < t_max; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    const std::vector<double> z = step_forward(ep, t, prev);
    // Softmax.
    double zmax = z[0];
    for (double v : z) zmax = std::max(zmax, v);
    double denom = 0.0;
    ep.probs[ti].resize(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) {
      ep.probs[ti][i] = std::exp(z[i] - zmax);
      denom += ep.probs[ti][i];
    }
    double ent = 0.0;
    for (auto& p : ep.probs[ti]) {
      p /= denom;
      if (p > 0.0) ent -= p * std::log(p);
    }
    const auto a = rng.weighted_index(ep.probs[ti]);
    ep.actions[ti] = static_cast<int>(a);
    ep.log_prob += std::log(std::max(ep.probs[ti][a], 1e-300));
    ep.entropy += ent;
    prev = static_cast<int>(a);
  }
  return ep;
}

std::vector<int> LstmController::argmax_actions() {
  const int t_max = num_steps();
  Episode ep;
  const auto n = static_cast<std::size_t>(t_max);
  ep.actions.resize(n);
  ep.x.resize(n);
  ep.h.resize(n);
  ep.c.resize(n);
  ep.gi.resize(n);
  ep.gf.resize(n);
  ep.gg.resize(n);
  ep.go.resize(n);
  ep.probs.resize(n);
  ep.head_u.resize(n);

  int prev = 0;
  for (int t = 0; t < t_max; ++t) {
    const std::vector<double> z = step_forward(ep, t, prev);
    int best = 0;
    for (std::size_t i = 1; i < z.size(); ++i)
      if (z[i] > z[static_cast<std::size_t>(best)]) best = static_cast<int>(i);
    ep.actions[static_cast<std::size_t>(t)] = best;
    prev = best;
  }
  return ep.actions;
}

void LstmController::accumulate_gradient(const Episode& ep, double advantage,
                                         double entropy_weight) {
  const int t_max = num_steps();
  const auto h = static_cast<std::size_t>(options_.hidden_size);
  const auto e = static_cast<std::size_t>(options_.embed_size);

  std::vector<double> dh_next(h, 0.0);
  std::vector<double> dc_next(h, 0.0);
  std::vector<double> dx(e);

  for (int t = t_max - 1; t >= 0; --t) {
    const auto ti = static_cast<std::size_t>(t);
    const auto card = static_cast<std::size_t>(cardinalities_[ti]);
    const auto& p = ep.probs[ti];
    const auto a = static_cast<std::size_t>(ep.actions[ti]);

    // dL/dz with L = -advantage * log p(a) - entropy_weight * H.
    double step_entropy = 0.0;
    for (std::size_t k = 0; k < card; ++k)
      if (p[k] > 0.0) step_entropy -= p[k] * std::log(p[k]);
    std::vector<double> dz(card);
    for (std::size_t k = 0; k < card; ++k) {
      const double logp = p[k] > 0.0 ? std::log(p[k]) : -700.0;
      dz[k] = advantage * (p[k] - (k == a ? 1.0 : 0.0)) +
              entropy_weight * p[k] * (logp + step_entropy);
    }

    // Through z = C * tanh(u / T).
    std::vector<double> du(card);
    for (std::size_t k = 0; k < card; ++k) {
      const double th = std::tanh(ep.head_u[ti][k] / options_.temperature);
      du[k] = dz[k] * options_.tanh_constant * (1.0 - th * th) /
              options_.temperature;
    }

    // Head gradients and dh from the head.
    outer_acc(store_.grad(head_w_[ti]), du, ep.h[ti], card, h);
    {
      auto gb = store_.grad(head_b_[ti]);
      for (std::size_t k = 0; k < card; ++k) gb[k] += du[k];
    }
    std::vector<double> dh(h, 0.0);
    matvec_t_acc(store_.value(head_w_[ti]), du, dh, card, h);
    for (std::size_t i = 0; i < h; ++i) dh[i] += dh_next[i];

    // LSTM cell backward.
    std::vector<double> dpre(4 * h);
    std::vector<double> dc(h);
    for (std::size_t i = 0; i < h; ++i) {
      const double tc = std::tanh(ep.c[ti][i]);
      dc[i] = dc_next[i] + dh[i] * ep.go[ti][i] * (1.0 - tc * tc);
      const double do_ = dh[i] * tc;
      const double c_prev = t > 0 ? ep.c[ti - 1][i] : 0.0;
      const double di = dc[i] * ep.gg[ti][i];
      const double dg = dc[i] * ep.gi[ti][i];
      const double df = dc[i] * c_prev;
      dpre[i] = di * ep.gi[ti][i] * (1.0 - ep.gi[ti][i]);
      dpre[h + i] = df * ep.gf[ti][i] * (1.0 - ep.gf[ti][i]);
      dpre[2 * h + i] = dg * (1.0 - ep.gg[ti][i] * ep.gg[ti][i]);
      dpre[3 * h + i] = do_ * ep.go[ti][i] * (1.0 - ep.go[ti][i]);
      dc_next[i] = dc[i] * ep.gf[ti][i];
    }

    outer_acc(store_.grad(w_x_), dpre, ep.x[ti], 4 * h, e);
    if (t > 0) outer_acc(store_.grad(w_h_), dpre, ep.h[ti - 1], 4 * h, h);
    {
      auto gb = store_.grad(b_);
      for (std::size_t i = 0; i < 4 * h; ++i) gb[i] += dpre[i];
    }

    std::fill(dx.begin(), dx.end(), 0.0);
    matvec_t_acc(store_.value(w_x_), dpre, dx, 4 * h, e);
    if (t == 0) {
      auto gs = store_.grad(start_);
      for (std::size_t i = 0; i < e; ++i) gs[i] += dx[i];
    } else {
      auto ge = store_.grad(embed_[ti]);
      const auto prev = static_cast<std::size_t>(ep.actions[ti - 1]);
      for (std::size_t i = 0; i < e; ++i) ge[prev * e + i] += dx[i];
    }

    std::fill(dh_next.begin(), dh_next.end(), 0.0);
    if (t > 0) matvec_t_acc(store_.value(w_h_), dpre, dh_next, 4 * h, h);
  }
}

void LstmController::update(double lr, double max_grad_norm) {
  const double norm = store_.grad_norm();
  if (norm > max_grad_norm && norm > 0.0)
    store_.scale_grad(max_grad_norm / norm);
  store_.adam_step(lr);
  store_.zero_grad();
}

}  // namespace yoso
