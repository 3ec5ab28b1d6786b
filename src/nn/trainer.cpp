#include "nn/trainer.h"

#include <stdexcept>

#include "arch/genotype.h"
#include "arch/ops.h"
#include "nn/dataset.h"
#include "nn/module.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace yoso {

Genotype uniform_path_sampler(Rng& rng) {
  return random_genotype(rng);
}

Genotype biased_path_sampler(Rng& rng) {
  auto biased_cell = [&rng]() {
    CellGenotype cell;
    for (int n = 0; n < kInteriorNodes; ++n) {
      const int node_index = n + 2;
      NodeSpec& spec = cell.nodes[static_cast<std::size_t>(n)];
      // Geometric-ish preference for index 0 inputs and the first ops.
      auto biased_pick = [&rng](int cardinality) {
        int v = 0;
        while (v + 1 < cardinality && rng.bernoulli(0.6)) ++v;
        return v;
      };
      spec.input_a = biased_pick(node_index);
      spec.input_b = biased_pick(node_index);
      spec.op_a = static_cast<Op>(biased_pick(kNumOps));
      spec.op_b = static_cast<Op>(biased_pick(kNumOps));
    }
    return cell;
  };
  Genotype g;
  g.normal = biased_cell();
  g.reduction = biased_cell();
  return g;
}

namespace {

/// One optimisation step on a gathered batch; returns the batch loss.
double train_batch(PathNetwork& net, const Genotype& path,
                   const Dataset& train, std::span<const std::size_t> idx,
                   bool augment, SgdOptimizer& opt, double lr, Rng& rng) {
  std::vector<int> labels;
  Tensor batch = gather_batch(train, idx, &labels);
  if (augment) augment_batch(batch, rng);
  const Tensor logits = net.forward(path, batch);
  Tensor grad;
  const double loss = softmax_cross_entropy(logits, labels, &grad);
  net.backward(grad);
  std::vector<Param*> params;
  net.collect_params(params);
  opt.step(params, lr);
  return loss;
}

std::vector<EpochLog> run_training(PathNetwork& net, const Dataset& train,
                                   const Dataset& val,
                                   const TrainOptions& options, Rng& rng,
                                   const PathSampler& sampler,
                                   const Genotype* fixed_path) {
  if (train.size() == 0 || val.size() == 0)
    throw std::invalid_argument("training: empty dataset");
  if (options.epochs <= 0 || options.batch_size <= 0)
    throw std::invalid_argument("training: bad options");
  YOSO_TRACE_SPAN("nn.train");

  SgdOptimizer opt(options.momentum, options.weight_decay);
  const std::size_t batches_per_epoch =
      (train.size() + options.batch_size - 1) / options.batch_size;
  const std::size_t total_steps =
      batches_per_epoch * static_cast<std::size_t>(options.epochs);

  std::vector<EpochLog> logs;
  logs.reserve(static_cast<std::size_t>(options.epochs));
  std::size_t step = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    YOSO_TRACE_SPAN("nn.epoch");
    const auto perm = rng.permutation(train.size());
    double loss_sum = 0.0;
    std::size_t loss_count = 0;
    for (std::size_t b = 0; b < batches_per_epoch; ++b) {
      const std::size_t begin = b * options.batch_size;
      const std::size_t end =
          std::min(train.size(), begin + options.batch_size);
      const std::span<const std::size_t> idx(perm.data() + begin,
                                             end - begin);
      const Genotype path = fixed_path != nullptr ? *fixed_path : sampler(rng);
      const double lr =
          cosine_lr(step, total_steps, options.lr_max, options.lr_min);
      loss_sum += train_batch(net, path, train, idx, options.augment, opt, lr,
                              rng);
      ++loss_count;
      ++step;
    }
    obs::counter_add("nn.steps", batches_per_epoch);
    EpochLog log;
    log.epoch = epoch;
    log.train_loss = loss_sum / static_cast<double>(loss_count);
    const Genotype eval_path =
        fixed_path != nullptr ? *fixed_path : sampler(rng);
    log.val_accuracy = net.evaluate(eval_path, val, options.batch_size);
    logs.push_back(log);
  }
  return logs;
}

}  // namespace

std::vector<EpochLog> train_standalone(PathNetwork& net, const Genotype& path,
                                       const Dataset& train,
                                       const Dataset& val,
                                       const TrainOptions& options, Rng& rng) {
  return run_training(net, train, val, options, rng, nullptr, &path);
}

std::vector<EpochLog> train_hypernet(PathNetwork& net, const Dataset& train,
                                     const Dataset& val,
                                     const TrainOptions& options, Rng& rng,
                                     PathSampler sampler) {
  return run_training(net, train, val, options, rng, sampler, nullptr);
}

}  // namespace yoso
