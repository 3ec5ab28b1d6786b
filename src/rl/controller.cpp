#include "rl/controller.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
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

// sample() and accumulate_gradient() run the rest of the per-step loops;
// their start is pinned for the same reason as the matvec helpers above.
__attribute__((aligned(64))) Episode LstmController::sample(Rng& rng) {
  const std::size_t t_max = cardinalities_.size();
  const auto h = static_cast<std::size_t>(options_.hidden_size);
  const auto e = static_cast<std::size_t>(options_.embed_size);
  Episode ep;
  ep.actions.resize(t_max);
  ep.x.resize(t_max * e);
  ep.gates.resize(t_max * 4 * h);
  ep.c.resize(t_max * h);
  ep.h.resize(t_max * h);
  const auto heads = static_cast<std::size_t>(
      std::accumulate(cardinalities_.begin(), cardinalities_.end(), 0));
  ep.probs.resize(heads);
  ep.head_tanh.resize(heads);

  std::size_t head = 0;  // offset of step t's head entries
  for (std::size_t t = 0; t < t_max; ++t) {
    // Input: the start vector, then the previous action's embedding.
    const std::span<double> x(ep.x.data() + t * e, e);
    std::span<const double> in = store_.value(start_);
    if (t > 0) {
      const auto prev = static_cast<std::size_t>(ep.actions[t - 1]);
      in = store_.value(embed_[t]);
      YOSO_REQUIRE((prev + 1) * e <= in.size(),
                   "LstmController::sample: previous action ", prev,
                   " out of range");
      in = in.subspan(prev * e, e);
    }
    std::copy(in.begin(), in.end(), x.begin());

    // Gate pre-activations, replaced in place by the activations.
    const std::span<double> g(ep.gates.data() + t * 4 * h, 4 * h);
    const auto bv = store_.value(b_);
    std::copy(bv.begin(), bv.end(), g.begin());
    matvec_acc(store_.value(w_x_), x, g, 4 * h, e);
    if (t > 0)
      matvec_acc(store_.value(w_h_), {ep.h.data() + (t - 1) * h, h}, g,
                 4 * h, h);
    const std::span<double> hs(ep.h.data() + t * h, h);
    for (std::size_t i = 0; i < h; ++i) {
      g[i] = sigmoid(g[i]);
      g[h + i] = sigmoid(g[h + i]);
      g[2 * h + i] = std::tanh(g[2 * h + i]);
      g[3 * h + i] = sigmoid(g[3 * h + i]);
      const double c_prev = t > 0 ? ep.c[(t - 1) * h + i] : 0.0;
      double& c = ep.c[t * h + i];
      c = g[h + i] * c_prev + g[i] * g[2 * h + i];
      hs[i] = g[3 * h + i] * std::tanh(c);
    }

    // Head logits u, squashed in place to tanh(u / T); the logits are
    // z = tanh_constant * tanh(u / T), and probs their softmax.
    const auto card = static_cast<std::size_t>(cardinalities_[t]);
    const std::span<double> th(ep.head_tanh.data() + head, card);
    const std::span<double> p(ep.probs.data() + head, card);
    const auto hb = store_.value(head_b_[t]);
    std::copy(hb.begin(), hb.end(), th.begin());
    matvec_acc(store_.value(head_w_[t]), hs, th, card, h);
    for (std::size_t k = 0; k < card; ++k) {
      th[k] = std::tanh(th[k] / options_.temperature);
      p[k] = options_.tanh_constant * th[k];
    }
    double zmax = p[0];
    for (double z : p) zmax = std::max(zmax, z);
    double denom = 0.0;
    for (double& z : p) {
      z = std::exp(z - zmax);
      denom += z;
    }
    double ent = 0.0;
    for (double& pk : p) {
      pk /= denom;
      if (pk > 0.0) ent -= pk * std::log(pk);
    }
    const std::size_t a = rng.weighted_index(p);
    ep.actions[t] = static_cast<int>(a);
    ep.log_prob += std::log(std::max(p[a], 1e-300));
    ep.entropy += ent;
    head += card;
  }
  return ep;
}

__attribute__((aligned(64))) void LstmController::accumulate_gradient(
    const Episode& ep, double advantage, double entropy_weight) {
  const auto h = static_cast<std::size_t>(options_.hidden_size);
  const auto e = static_cast<std::size_t>(options_.embed_size);

  std::vector<double> dh_next(h, 0.0);
  std::vector<double> dc_next(h, 0.0);
  std::vector<double> dx(e);
  std::vector<double> du(static_cast<std::size_t>(
      *std::max_element(cardinalities_.begin(), cardinalities_.end())));
  std::vector<double> dh(h);
  std::vector<double> dpre(4 * h);

  std::size_t head = ep.probs.size();  // end of step t's head entries
  for (std::size_t t = cardinalities_.size(); t-- > 0;) {
    const auto card = static_cast<std::size_t>(cardinalities_[t]);
    head -= card;
    const double* p = ep.probs.data() + head;
    const double* th = ep.head_tanh.data() + head;
    const auto a = static_cast<std::size_t>(ep.actions[t]);
    const std::span<const double> hs(ep.h.data() + t * h, h);

    // dL/dz with L = -advantage * log p(a) - entropy_weight * H, then
    // through z = C * tanh(u / T).
    double step_entropy = 0.0;
    for (std::size_t k = 0; k < card; ++k)
      if (p[k] > 0.0) step_entropy -= p[k] * std::log(p[k]);
    for (std::size_t k = 0; k < card; ++k) {
      const double logp = p[k] > 0.0 ? std::log(p[k]) : -700.0;
      const double dz = advantage * (p[k] - (k == a ? 1.0 : 0.0)) +
                        entropy_weight * p[k] * (logp + step_entropy);
      du[k] = dz * options_.tanh_constant * (1.0 - th[k] * th[k]) /
              options_.temperature;
    }
    const std::span<const double> du_t(du.data(), card);

    // Head gradients and dh from the head.
    outer_acc(store_.grad(head_w_[t]), du_t, hs, card, h);
    {
      auto gb = store_.grad(head_b_[t]);
      for (std::size_t k = 0; k < card; ++k) gb[k] += du[k];
    }
    std::fill(dh.begin(), dh.end(), 0.0);
    matvec_t_acc(store_.value(head_w_[t]), du_t, dh, card, h);
    for (std::size_t i = 0; i < h; ++i) dh[i] += dh_next[i];

    // LSTM cell backward.
    const double* g = ep.gates.data() + t * 4 * h;
    for (std::size_t i = 0; i < h; ++i) {
      const double gi = g[i];
      const double gf = g[h + i];
      const double gg = g[2 * h + i];
      const double go = g[3 * h + i];
      const double tc = std::tanh(ep.c[t * h + i]);
      const double dc = dc_next[i] + dh[i] * go * (1.0 - tc * tc);
      const double do_ = dh[i] * tc;
      const double c_prev = t > 0 ? ep.c[(t - 1) * h + i] : 0.0;
      const double di = dc * gg;
      const double dg = dc * gi;
      const double df = dc * c_prev;
      dpre[i] = di * gi * (1.0 - gi);
      dpre[h + i] = df * gf * (1.0 - gf);
      dpre[2 * h + i] = dg * (1.0 - gg * gg);
      dpre[3 * h + i] = do_ * go * (1.0 - go);
      dc_next[i] = dc * gf;
    }

    outer_acc(store_.grad(w_x_), dpre, {ep.x.data() + t * e, e}, 4 * h, e);
    if (t > 0)
      outer_acc(store_.grad(w_h_), dpre, {ep.h.data() + (t - 1) * h, h},
                4 * h, h);
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
      auto ge = store_.grad(embed_[t]);
      const auto prev = static_cast<std::size_t>(ep.actions[t - 1]);
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
