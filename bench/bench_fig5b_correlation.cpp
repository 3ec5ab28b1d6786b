// Fig 5(b) — correlation between the HyperNet (inherited-weight) validation
// accuracy and the actual validation accuracy of fully trained stand-alone
// models.  The paper samples 130 random sub-models, evaluates them with
// shared weights, then trains each for 70 epochs and reports that the two
// measurements correlate.
//
// Two reproductions are run:
//   1. the *real* NN path at CPU scale — K random sub-models are scored by
//      a trained HyperNet's inherited weights and by short standalone
//      training, and the rank correlation is reported;
//   2. the calibrated surrogate path at the paper's K = 130 — the
//      hypernet-mode and full-training-mode outputs of the accuracy model.
//
// Exits 1 when the surrogate path's correlation is not strong: Pearson
// r <= 0.75 or Spearman rho <= 0.7, the bounds the accuracy model's own
// test asserts.  The small-K real path is a report.

#include <iostream>

#include "arch/network.h"
#include "bench_common.h"
#include "nn/dataset.h"
#include "nn/network.h"
#include "nn/trainer.h"
#include "surrogate/accuracy_model.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace yoso;

void real_nn_path() {
  const int k = static_cast<int>(scaled(8, 4));
  std::cout << "--- real NN path: K=" << k
            << " sub-models (paper: 130), SynthCIFAR ---\n";

  SynthCifar task(10, 10, 7);
  const Dataset train = task.generate(32, 1);
  const Dataset val = task.generate(10, 2);
  const NetworkSkeleton skeleton = tiny_skeleton(10, 8);

  // Train the HyperNet once (one-time cost, as in the paper).
  PathNetwork hypernet(skeleton, 99);
  TrainOptions hopt;
  hopt.epochs = static_cast<int>(scaled(16, 5));
  hopt.batch_size = 32;
  Rng rng(5);
  train_hypernet(hypernet, train, val, hopt, rng);

  TextTable table({"sub-model", "hypernet acc", "standalone acc"});
  std::vector<double> proxy, truth;
  for (int i = 0; i < k; ++i) {
    const Genotype g = random_genotype(rng);
    const double hyper_acc = hypernet.evaluate(g, val, 32);
    PathNetwork standalone(skeleton, 1000 + static_cast<std::uint64_t>(i));
    TrainOptions sopt;
    sopt.epochs = static_cast<int>(scaled(6, 3));
    sopt.batch_size = 32;
    Rng srng(100 + static_cast<std::uint64_t>(i));
    const auto logs = train_standalone(standalone, g, train, val, sopt, srng);
    const double true_acc = logs.back().val_accuracy;
    proxy.push_back(hyper_acc);
    truth.push_back(true_acc);
    table.add_row({TextTable::fmt_int(i), TextTable::fmt(hyper_acc, 3),
                   TextTable::fmt(true_acc, 3)});
  }
  table.print(std::cout);
  std::cout << "Pearson r = " << TextTable::fmt(pearson(proxy, truth), 3)
            << ", Spearman rho = " << TextTable::fmt(spearman(proxy, truth), 3)
            << "  (small-K estimate; the surrogate path below runs the "
               "paper's K)\n\n";
}

// True when the K = 130 correlation is strong.
bool surrogate_path() {
  const int k = 130;  // the paper's count
  std::cout << "--- surrogate path: K=" << k
            << " sub-models at CIFAR calibration ---\n";
  AccuracyModel model;
  Rng rng(7);
  std::vector<double> proxy, truth;
  for (int i = 0; i < k; ++i) {
    const Genotype g = random_genotype(rng);
    proxy.push_back(100.0 - model.hypernet_error(g));   // accuracy, %
    truth.push_back(100.0 - model.test_error(g));
  }
  const double r = pearson(proxy, truth);
  const double rho = spearman(proxy, truth);
  const bool strong = r > 0.75 && rho > 0.7;
  TextTable table({"metric", "value"});
  table.add_row({"Pearson r", TextTable::fmt(r, 3)});
  table.add_row({"Spearman rho", TextTable::fmt(rho, 3)});
  table.add_row({"Kendall tau", TextTable::fmt(kendall_tau(proxy, truth), 3)});
  table.add_row({"proxy acc range",
                 TextTable::fmt(min_value(proxy), 1) + " .. " +
                     TextTable::fmt(max_value(proxy), 1)});
  table.add_row({"true acc range",
                 TextTable::fmt(min_value(truth), 1) + " .. " +
                     TextTable::fmt(max_value(truth), 1)});
  table.print(std::cout);
  std::cout << "shape check: "
            << (strong ? "strong positive correlation (r > 0.75, rho > 0.7) "
                         "-> inherited weights can rank models, as Fig 5(b) "
                         "claims"
                       : "MISMATCH: the correlation is not strong (needs "
                         "r > 0.75 and rho > 0.7)")
            << "\n";
  return strong;
}

}  // namespace

int main() {
  yoso::Stopwatch sw;
  yoso::bench_banner("Fig 5(b)",
                     "HyperNet accuracy vs fully-trained accuracy correlation");
  real_nn_path();
  const bool strong = surrogate_path();
  yoso::bench_footer(sw);
  return strong ? 0 : 1;
}
