#include "rl/controller.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "base/contract.h"
#include "rl/lstm_kernels.h"
#include "util/rng.h"

namespace yoso {

namespace {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

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
  // The store is sized once for every tensor allocated below.
  std::size_t params = 4 * h * e + 4 * h * h + 4 * h + e;
  for (std::size_t t = 0; t < cardinalities_.size(); ++t) {
    const auto card = static_cast<std::size_t>(cardinalities_[t]);
    params += card * h + card;
    if (t >= 1)
      params += static_cast<std::size_t>(cardinalities_[t - 1]) * e;
  }
  store_.reserve(params);
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
  YOSO_CHECK(store_.size() == params, "LstmController: allocated ",
             store_.size(), " parameters, reserved ", params);

  heads_ = static_cast<std::size_t>(
      std::accumulate(cardinalities_.begin(), cardinalities_.end(), 0));
  const auto max_card = static_cast<std::size_t>(
      *std::max_element(cardinalities_.begin(), cardinalities_.end()));
  lane_x_.resize(e * lstm::kLanes);
  lane_h_.resize(h * lstm::kLanes);
  lane_gates_.resize(4 * h * lstm::kLanes);
  lane_head_.resize(max_card * lstm::kLanes);
  dpre_.resize(cardinalities_.size() * 4 * h);
  du_.resize(max_card);
  dh_.resize(h);
  dh_next_.resize(h);
  dc_next_.resize(h);
  dx_.resize(e);
}

// sample_round() and accumulate_gradient() run the per-step loops around
// the kernels; their start is pinned for the same reason as the kernels'
// (rl/lstm_kernels.cpp).
__attribute__((aligned(64))) std::vector<Episode> LstmController::sample_round(
    Rng& rng, std::size_t k) {
  const std::size_t t_max = cardinalities_.size();
  const auto h = static_cast<std::size_t>(options_.hidden_size);
  const auto e = static_cast<std::size_t>(options_.embed_size);
  // A step picks its action with one uniform, as Rng::weighted_index would
  // (softmax weights never sum to 0, so it never draws more).  So the
  // round's draws are taken up front, in episode order.
  uniforms_.resize(k * t_max);
  for (double& u : uniforms_) u = rng.uniform();

  std::vector<Episode> episodes(k);
  for (Episode& ep : episodes) {
    ep.actions.resize(t_max);
    ep.x.resize(t_max * e);
    ep.gates.resize(t_max * 4 * h);
    ep.c.resize(t_max * h);
    ep.h.resize(t_max * h);
    ep.tanh_c.resize(t_max * h);
    ep.probs.resize(heads_);
    ep.head_tanh.resize(heads_);
  }
  std::size_t done = 0;
  for (; done + lstm::kLanes <= k; done += lstm::kLanes)
    forward(episodes.data() + done, uniforms_.data() + done * t_max,
            lstm::kLanes);
  for (; done < k; ++done)
    forward(episodes.data() + done, uniforms_.data() + done * t_max, 1);
  return episodes;
}

Episode LstmController::sample(Rng& rng) {
  return std::move(sample_round(rng, 1).front());
}

void LstmController::forward(Episode* episodes, const double* u,
                             std::size_t lanes) {
  YOSO_DCHECK(episodes != nullptr && u != nullptr &&
                  (lanes == 1 || lanes == lstm::kLanes),
              "LstmController::forward: ", lanes, " lanes");
  const lstm::Kernels& kern = lstm::kernels();
  const auto matvec = lanes == 1 ? kern.matvec : kern.matvec_lanes;
  const std::size_t t_max = cardinalities_.size();
  const auto h = static_cast<std::size_t>(options_.hidden_size);
  const auto e = static_cast<std::size_t>(options_.embed_size);
  const auto bias = store_.value(b_);

  std::size_t head = 0;  // offset of step t's head entries
  for (std::size_t t = 0; t < t_max; ++t) {
    // Input: the start vector, then the previous action's embedding.
    for (std::size_t k = 0; k < lanes; ++k) {
      Episode& ep = episodes[k];
      std::span<const double> in = store_.value(start_);
      if (t > 0) {
        const auto prev = static_cast<std::size_t>(ep.actions[t - 1]);
        in = store_.value(embed_[t]).subspan(prev * e, e);
      }
      std::copy(in.begin(), in.end(), ep.x.begin() + t * e);
      for (std::size_t c = 0; c < e; ++c) lane_x_[c * lanes + k] = in[c];
    }

    // Gate pre-activations: the bias, plus W_x x, plus W_h h_{t-1}.
    for (std::size_t r = 0; r < 4 * h; ++r)
      std::fill_n(lane_gates_.begin() + r * lanes, lanes, bias[r]);
    matvec(store_.value(w_x_).data(), lane_x_.data(), lane_gates_.data(),
           4 * h, e);
    if (t > 0)
      matvec(store_.value(w_h_).data(), lane_h_.data(), lane_gates_.data(),
             4 * h, h);

    // Activations and the cell update; h_t replaces h_{t-1} in lane_h_.
    for (std::size_t k = 0; k < lanes; ++k) {
      Episode& ep = episodes[k];
      const double* pre = lane_gates_.data() + k;
      double* g = ep.gates.data() + t * 4 * h;
      for (std::size_t i = 0; i < h; ++i) {
        g[i] = sigmoid(pre[i * lanes]);
        g[h + i] = sigmoid(pre[(h + i) * lanes]);
        g[2 * h + i] = std::tanh(pre[(2 * h + i) * lanes]);
        g[3 * h + i] = sigmoid(pre[(3 * h + i) * lanes]);
        const double c_prev = t > 0 ? ep.c[(t - 1) * h + i] : 0.0;
        const double c = g[h + i] * c_prev + g[i] * g[2 * h + i];
        const double tc = std::tanh(c);
        ep.c[t * h + i] = c;
        ep.tanh_c[t * h + i] = tc;
        ep.h[t * h + i] = g[3 * h + i] * tc;
        lane_h_[i * lanes + k] = ep.h[t * h + i];
      }
    }

    // Head logits u; the logits are z = tanh_constant * tanh(u / T), and
    // probs their softmax.
    const auto card = static_cast<std::size_t>(cardinalities_[t]);
    const auto hb = store_.value(head_b_[t]);
    for (std::size_t a = 0; a < card; ++a)
      std::fill_n(lane_head_.begin() + a * lanes, lanes, hb[a]);
    matvec(store_.value(head_w_[t]).data(), lane_h_.data(), lane_head_.data(),
           card, h);
    for (std::size_t k = 0; k < lanes; ++k) {
      Episode& ep = episodes[k];
      const std::span<double> th(ep.head_tanh.data() + head, card);
      const std::span<double> p(ep.probs.data() + head, card);
      for (std::size_t a = 0; a < card; ++a) {
        th[a] = std::tanh(lane_head_[a * lanes + k] / options_.temperature);
        p[a] = options_.tanh_constant * th[a];
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
      const std::size_t a = weighted_pick(p, u[k * t_max + t]);
      ep.actions[t] = static_cast<int>(a);
      ep.log_prob += std::log(std::max(p[a], 1e-300));
      ep.entropy += ent;
    }
    head += card;
  }
}

__attribute__((aligned(64))) void LstmController::accumulate_gradient(
    const Episode& ep, double advantage, double entropy_weight) {
  const lstm::Kernels& kern = lstm::kernels();
  const std::size_t t_max = cardinalities_.size();
  const auto h = static_cast<std::size_t>(options_.hidden_size);
  const auto e = static_cast<std::size_t>(options_.embed_size);
  std::fill(dh_next_.begin(), dh_next_.end(), 0.0);
  std::fill(dc_next_.begin(), dc_next_.end(), 0.0);

  // Back through time, only what the recurrence needs: the heads, the cell
  // and dh_{t-1} = W_h^T dpre_t.  The weight-gradient sums over t wait for
  // the stored dpre rows below.
  std::size_t head = ep.probs.size();  // end of step t's head entries
  for (std::size_t t = t_max; t-- > 0;) {
    const auto card = static_cast<std::size_t>(cardinalities_[t]);
    head -= card;
    const double* p = ep.probs.data() + head;
    const double* th = ep.head_tanh.data() + head;
    const auto a = static_cast<std::size_t>(ep.actions[t]);
    const double* hs = ep.h.data() + t * h;

    // dL/dz with L = -advantage * log p(a) - entropy_weight * H, then
    // through z = C * tanh(u / T).
    double step_entropy = 0.0;
    for (std::size_t k = 0; k < card; ++k)
      if (p[k] > 0.0) step_entropy -= p[k] * std::log(p[k]);
    for (std::size_t k = 0; k < card; ++k) {
      const double logp = p[k] > 0.0 ? std::log(p[k]) : -700.0;
      const double dz = advantage * (p[k] - (k == a ? 1.0 : 0.0)) +
                        entropy_weight * p[k] * (logp + step_entropy);
      du_[k] = dz * options_.tanh_constant * (1.0 - th[k] * th[k]) /
               options_.temperature;
    }

    // Head gradients and dh from the head.
    kern.outer_sum(store_.grad(head_w_[t]).data(), du_.data(), card, hs, 1,
                   card, h);
    {
      auto gb = store_.grad(head_b_[t]);
      for (std::size_t k = 0; k < card; ++k) gb[k] += du_[k];
    }
    std::fill(dh_.begin(), dh_.end(), 0.0);
    kern.matvec_t(store_.value(head_w_[t]).data(), du_.data(), dh_.data(),
                  card, h);
    for (std::size_t i = 0; i < h; ++i) dh_[i] += dh_next_[i];

    // LSTM cell backward.
    const double* g = ep.gates.data() + t * 4 * h;
    double* dpre = dpre_.data() + t * 4 * h;
    for (std::size_t i = 0; i < h; ++i) {
      const double gi = g[i];
      const double gf = g[h + i];
      const double gg = g[2 * h + i];
      const double go = g[3 * h + i];
      const double tc = ep.tanh_c[t * h + i];
      const double dc = dc_next_[i] + dh_[i] * go * (1.0 - tc * tc);
      const double do_ = dh_[i] * tc;
      const double c_prev = t > 0 ? ep.c[(t - 1) * h + i] : 0.0;
      const double di = dc * gg;
      const double dg = dc * gi;
      const double df = dc * c_prev;
      dpre[i] = di * gi * (1.0 - gi);
      dpre[h + i] = df * gf * (1.0 - gf);
      dpre[2 * h + i] = dg * (1.0 - gg * gg);
      dpre[3 * h + i] = do_ * go * (1.0 - go);
      dc_next_[i] = dc * gf;
    }

    std::fill(dh_next_.begin(), dh_next_.end(), 0.0);
    if (t > 0)
      kern.matvec_t(store_.value(w_h_).data(), dpre, dh_next_.data(), 4 * h,
                    h);
  }

  // The sums over t, one pass over each gradient.  Every element takes its
  // adds in descending t and skips zero dpre entries: the order the golden
  // pins fix.
  kern.outer_sum(store_.grad(w_x_).data(), dpre_.data(), 4 * h, ep.x.data(),
                 t_max, 4 * h, e);
  // W_h's term at step t pairs dpre_t with h_{t-1}, for t >= 1.
  kern.outer_sum(store_.grad(w_h_).data(), dpre_.data() + 4 * h, 4 * h,
                 ep.h.data(), t_max - 1, 4 * h, h);
  {
    auto gb = store_.grad(b_);
    for (std::size_t t = t_max; t-- > 0;)
      for (std::size_t i = 0; i < 4 * h; ++i) gb[i] += dpre_[t * 4 * h + i];
  }
  // Input gradients W_x^T dpre_t into the start vector and the embeddings.
  for (std::size_t t = t_max; t-- > 0;) {
    std::fill(dx_.begin(), dx_.end(), 0.0);
    kern.matvec_t(store_.value(w_x_).data(), dpre_.data() + t * 4 * h,
                  dx_.data(), 4 * h, e);
    auto grad = t == 0 ? store_.grad(start_)
                       : store_.grad(embed_[t]).subspan(
                             static_cast<std::size_t>(ep.actions[t - 1]) * e,
                             e);
    for (std::size_t i = 0; i < e; ++i) grad[i] += dx_[i];
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
