#pragma once
// Flat parameter storage for the RL controller: values, gradients and Adam
// moments live in parallel arrays; tensors are (offset, size) views.  This
// keeps the LSTM/BPTT code free of allocation and makes the Adam update a
// single pass.
//
// The store is controller state: proposals and REINFORCE feedback mutate it
// strictly in episode order on the thread driving the search, never from
// evaluator workers (DESIGN.md §9).  The arrays are guarded by a
// coordinator ThreadRole so clang's -Wthread-safety rejects any future
// parallel-region write instead of leaving the rule to review.

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.h"
#include "base/thread_annotations.h"

namespace yoso {

/// A view handle into the store (one logical weight tensor).
struct ParamView {
  std::size_t offset = 0;
  std::size_t size = 0;
};

class ParamStore {
 public:
  /// Sizes every array for `total` doubles, so the alloc() calls that add
  /// up to it never regrow one (ContractViolation when the store already
  /// holds more).
  void reserve(std::size_t total);

  /// Reserves `n` doubles initialised uniformly in [-scale, scale].
  ParamView alloc(std::size_t n, Rng& rng, double scale = 0.1);

  std::span<double> value(ParamView v) {
    ThreadRoleGuard coordinator(role_);
    return std::span<double>(value_).subspan(v.offset, v.size);
  }
  std::span<const double> value(ParamView v) const {
    ThreadRoleGuard coordinator(role_);
    return std::span<const double>(value_).subspan(v.offset, v.size);
  }
  std::span<double> grad(ParamView v) {
    ThreadRoleGuard coordinator(role_);
    return std::span<double>(grad_).subspan(v.offset, v.size);
  }

  std::size_t size() const {
    ThreadRoleGuard coordinator(role_);
    return value_.size();
  }

  void zero_grad();

  /// Adam update over every parameter; increments the internal step count.
  void adam_step(double lr, double beta1 = 0.9, double beta2 = 0.999,
                 double eps = 1e-8);

  /// Global L2 norm of the gradient (for clipping / diagnostics).
  double grad_norm() const;

  /// Scales all gradients by `factor`.
  void scale_grad(double factor);

 private:
  mutable ThreadRole role_;
  std::vector<double> value_ YOSO_GUARDED_BY(role_);
  std::vector<double> grad_ YOSO_GUARDED_BY(role_);
  std::vector<double> adam_m_ YOSO_GUARDED_BY(role_);
  std::vector<double> adam_v_ YOSO_GUARDED_BY(role_);
  long long adam_t_ YOSO_GUARDED_BY(role_) = 0;
};

}  // namespace yoso
