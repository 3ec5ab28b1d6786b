#include "util/rng.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "base/contract.h"

namespace yoso {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::uniform_index: n == 0");
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

int Rng::uniform_int(int lo, int hi) {
  if (hi < lo) throw std::invalid_argument("Rng::uniform_int: hi < lo");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(uniform_index(span));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  if (weights.empty())
    throw std::invalid_argument("Rng::weighted_index: empty weights");
  // Non-negative weights sum to 0 exactly when all of them are 0.
  bool all_zero = true;
  for (double w : weights) {
    if (w < 0.0)
      throw std::invalid_argument("Rng::weighted_index: negative weight");
    all_zero = all_zero && w == 0.0;
  }
  if (all_zero) return uniform_index(weights.size());
  return weighted_pick(weights, uniform());
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = uniform_index(i);
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

std::size_t weighted_pick(std::span<const double> weights, double u) {
  double total = 0.0;
  for (double w : weights) total += w;
  YOSO_DCHECK(total > 0.0, "weighted_pick: weights sum to ", total);
  double x = u * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() {
  return Rng(next_u64());
}

bool Rng::bernoulli(double p) {
  return uniform() < p;
}

}  // namespace yoso
