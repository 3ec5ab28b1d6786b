#include "rl/param_store.h"

#include <cmath>
#include <algorithm>

#include "base/contract.h"
#include "rl/lstm_kernels.h"
#include "util/rng.h"

namespace yoso {

void ParamStore::reserve(std::size_t total) {
  ThreadRoleGuard coordinator(role_);
  YOSO_REQUIRE(total >= value_.size(), "ParamStore::reserve: ", total,
               " doubles for a store that already holds ", value_.size());
  value_.reserve(total);
  grad_.reserve(total);
  adam_m_.reserve(total);
  adam_v_.reserve(total);
}

ParamView ParamStore::alloc(std::size_t n, Rng& rng, double scale) {
  ThreadRoleGuard coordinator(role_);
  ParamView v{value_.size(), n};
  for (std::size_t i = 0; i < n; ++i)
    value_.push_back(rng.uniform(-scale, scale));
  grad_.resize(value_.size(), 0.0);
  adam_m_.resize(value_.size(), 0.0);
  adam_v_.resize(value_.size(), 0.0);
  return v;
}

void ParamStore::zero_grad() {
  ThreadRoleGuard coordinator(role_);
  std::fill(grad_.begin(), grad_.end(), 0.0);
}

void ParamStore::adam_step(double lr, double beta1, double beta2, double eps) {
  ThreadRoleGuard coordinator(role_);
  ++adam_t_;
  const lstm::AdamStep step{
      .lr = lr,
      .beta1 = beta1,
      .beta2 = beta2,
      .eps = eps,
      .bc1 = 1.0 - std::pow(beta1, static_cast<double>(adam_t_)),
      .bc2 = 1.0 - std::pow(beta2, static_cast<double>(adam_t_))};
  lstm::kernels().adam(value_.data(), grad_.data(), adam_m_.data(),
                       adam_v_.data(), value_.size(), step);
}

double ParamStore::grad_norm() const {
  ThreadRoleGuard coordinator(role_);
  double acc = 0.0;
  for (double g : grad_) acc += g * g;
  return std::sqrt(acc);
}

void ParamStore::scale_grad(double factor) {
  ThreadRoleGuard coordinator(role_);
  for (double& g : grad_) g *= factor;
}

}  // namespace yoso
