#pragma once
// Deterministic, seedable random number generation for every stochastic
// component in YOSO (search, sampling, simulation noise).
//
// All experiments in the paper are stochastic (RL sampling, uniform path
// sampling of the HyperNet, GP sample collection).  To make the reproduction
// runs repeatable we route every random draw through one explicit Rng object
// instead of global state; components that need independent streams split
// a child off a parent with Rng::fork().

#include <cstdint>
#include <span>
#include <vector>

namespace yoso {

/// xoshiro256** PRNG (Blackman & Vigna).  Fast, high-quality, 64-bit state
/// suitable for Monte-Carlo style workloads; not cryptographic.
class Rng {
 public:
  /// Seeds the four 64-bit state words from `seed` via SplitMix64 so that
  /// nearby seeds still give uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);

  /// Standard normal via Box-Muller (cached second value).
  double normal();

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);

  /// Samples an index from an (unnormalised, non-negative) weight vector:
  /// one uniform() draw, then weighted_pick().  Falls back to uniform
  /// choice when all weights are zero.
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher-Yates shuffle of an index range [0, n); returns the permutation.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Deterministically derives an independent child stream.  The child's
  /// sequence does not overlap the parent's continued use.
  Rng fork();

  /// True with probability p.
  bool bernoulli(double p);

 private:
  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// The pick half of Rng::weighted_index(): the index that the draw `u` in
/// [0, 1) selects from `weights`, which must sum to more than 0.  Callers
/// that draw their uniforms ahead of time pick with this.
std::size_t weighted_pick(std::span<const double> weights, double u);

}  // namespace yoso
