#include "surrogate/accuracy_model.h"

#include <algorithm>
#include <cmath>

#include "arch/genotype.h"
#include "arch/network.h"
#include "arch/ops.h"
#include "util/rng.h"

namespace yoso {

int cell_depth(const CellGenotype& cell) {
  // depth[i] = longest edge count from a cell input (node 0/1) to node i.
  int depth[kNodesPerCell] = {0, 0};
  for (int n = 0; n < kInteriorNodes; ++n) {
    const NodeSpec& spec = cell.nodes[static_cast<std::size_t>(n)];
    const int node = n + 2;
    depth[node] = 1 + std::max(depth[spec.input_a], depth[spec.input_b]);
  }
  int best = 0;
  for (int node : loose_end_nodes(cell)) best = std::max(best, depth[node]);
  return best;
}

ArchFeatures ArchFeatures::compute(const Genotype& g,
                                   const NetworkSkeleton& skeleton) {
  // extract_layers validates g first, before cell_depth indexes its inputs.
  const auto stats = network_stats(extract_layers(g, skeleton));
  ArchFeatures f;
  int conv = 0, dw = 0, pool = 0, k5 = 0, total = 0;
  for (const CellGenotype* cell : {&g.normal, &g.reduction}) {
    for (const NodeSpec& spec : cell->nodes) {
      for (Op op : {spec.op_a, spec.op_b}) {
        ++total;
        if (op_is_conv(op)) ++conv;
        else if (op_is_depthwise(op)) ++dw;
        else ++pool;
        if (op_kernel_size(op) == 5) ++k5;
      }
    }
  }
  f.conv_frac = static_cast<double>(conv) / total;
  f.dw_frac = static_cast<double>(dw) / total;
  f.pool_frac = static_cast<double>(pool) / total;
  f.k5_frac = static_cast<double>(k5) / total;
  f.depth_normal = cell_depth(g.normal);
  f.depth_reduction = cell_depth(g.reduction);
  f.loose_normal = static_cast<double>(loose_end_nodes(g.normal).size());
  f.loose_reduction = static_cast<double>(loose_end_nodes(g.reduction).size());
  f.log10_macs = std::log10(static_cast<double>(std::max<std::int64_t>(
      stats.total_macs, 1)));
  f.log10_params = std::log10(static_cast<double>(std::max<std::int64_t>(
      stats.total_params, 1)));
  return f;
}

AccuracyModel::AccuracyModel(NetworkSkeleton skeleton,
                             AccuracyModelParams params, std::uint64_t seed)
    : skeleton_(std::move(skeleton)), params_(params), seed_(seed) {}

double AccuracyModel::clean_error_from(const ArchFeatures& f) const {
  const AccuracyModelParams& p = params_;

  // Capacity: relative to the space's typical net (~1e8 MACs at the default
  // skeleton), saturating via tanh so huge nets do not go to zero error.
  const double capacity = std::tanh(f.log10_macs - 8.0);

  // Depth: deeper cells help up to saturation.
  const double depth =
      std::tanh((f.depth_normal + f.depth_reduction) / (2.0 * p.depth_sat));

  // Pooling: a small fraction is useful (spatial invariance), surplus hurts.
  const double pool_excess = std::max(0.0, f.pool_frac - p.pool_useful_frac);

  double err = p.base_error;
  err -= p.capacity_weight * capacity;
  // Below the capacity knee, CIFAR-scale tasks underfit quickly: the error
  // climbs super-linearly as the network shrinks.  This is what stops the
  // co-search from collapsing onto degenerate, nearly-free networks.
  const double undersize = std::max(0.0, p.undersize_knee - f.log10_macs);
  err += p.undersize_weight * std::pow(undersize, 1.5);
  err -= p.conv_weight * (f.conv_frac - 0.5);
  err -= p.dw_weight * (f.dw_frac - 0.3);
  err -= p.k5_weight * (f.k5_frac - 0.3);
  err += p.pool_penalty * pool_excess * pool_excess * 4.0;
  err -= p.depth_weight * depth;
  err -= p.width_weight *
         ((f.loose_normal + f.loose_reduction) / 2.0 - 2.5);
  return std::clamp(err, p.error_floor, p.error_ceil);
}

double AccuracyModel::residual(const Genotype& g, std::uint64_t salt,
                               double sigma) const {
  // Deterministic per-genotype residual: hash the 40 node fields in action
  // encoding order (arch/encoding.h).  No validation or allocation here:
  // every caller has run ArchFeatures::compute, which rejects an invalid g.
  std::uint64_t h = seed_ ^ salt;
  for (const CellGenotype* cell : {&g.normal, &g.reduction})
    for (const NodeSpec& spec : cell->nodes)
      for (const int a : {spec.input_a, spec.input_b,
                          static_cast<int>(spec.op_a),
                          static_cast<int>(spec.op_b)})
        h ^= static_cast<std::uint64_t>(a) + 0x9E3779B97F4A7C15ull +
             (h << 6) + (h >> 2);
  Rng rng(h);
  return rng.normal(0.0, sigma);
}

double AccuracyModel::test_error(const Genotype& g) const {
  return test_error(g, ArchFeatures::compute(g, skeleton_));
}

double AccuracyModel::test_error(const Genotype& g,
                                 const ArchFeatures& f) const {
  const double err =
      clean_error_from(f) + residual(g, 0x7E57ull, params_.noise_sigma);
  return std::clamp(err, params_.error_floor * 0.9, params_.error_ceil);
}

double AccuracyModel::hypernet_error(const Genotype& g) const {
  return hypernet_error(g, ArchFeatures::compute(g, skeleton_));
}

double AccuracyModel::hypernet_error(const Genotype& g,
                                     const ArchFeatures& f) const {
  // Shares the clean signal and the full-training residual (the HyperNet
  // ranks models by true quality) plus its own one-shot noise.
  const double base = clean_error_from(f) +
                      residual(g, 0x7E57ull, params_.noise_sigma);
  const double err = params_.hypernet_offset +
                     params_.hypernet_scale * base +
                     residual(g, 0x4E7ull, params_.hypernet_noise_sigma);
  return std::clamp(err, 0.5, 90.0);
}

double AccuracyModel::hypernet_accuracy(const Genotype& g) const {
  return 1.0 - hypernet_error(g) / 100.0;
}

double AccuracyModel::hypernet_accuracy(const Genotype& g,
                                        const ArchFeatures& f) const {
  return 1.0 - hypernet_error(g, f) / 100.0;
}

}  // namespace yoso
