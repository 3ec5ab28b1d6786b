// Fig 5(a) — HyperNet training curve.  The paper trains a 6-block HyperNet
// on CIFAR-10 for 300 epochs (batch 144, SGD momentum 0.9, cosine LR
// 0.05 -> 0.0001, weight decay 4e-5, random-crop augmentation) and plots,
// per epoch, the validation accuracy of a randomly sampled sub-model.
//
// This bench runs the *real* trainable HyperNet (the from-scratch NN
// library) on SynthCIFAR at CPU scale: a 2-cell skeleton, reduced images
// and epochs.  All optimiser hyper-parameters match the paper.  The series
// must rise from chance (10 %) and flatten — the figure's shape.  Exits 1
// when the best epoch's accuracy does not rise above 0.15.

#include <iostream>

#include "arch/network.h"
#include "bench_common.h"
#include "nn/dataset.h"
#include "nn/network.h"
#include "nn/trainer.h"
#include "util/rng.h"

int main() {
  using namespace yoso;
  Stopwatch sw;
  bench_banner("Fig 5(a)",
               "HyperNet training: per-epoch accuracy of a random sub-model");

  const int epochs = static_cast<int>(scaled(16, 5));
  SynthCifar task(10, 10, 7);
  const Dataset train = task.generate(40, 1);  // 400 images
  const Dataset val = task.generate(10, 2);    // 100 images
  const NetworkSkeleton skeleton = tiny_skeleton(10, 8);
  PathNetwork hypernet(skeleton, 2020);

  TrainOptions opt;  // paper hyper-parameters
  opt.epochs = epochs;
  opt.batch_size = 25;  // paper: 144 at CIFAR scale
  opt.lr_max = 0.05;
  opt.lr_min = 0.0001;
  opt.momentum = 0.9;
  opt.weight_decay = 4e-5;
  opt.augment = true;

  std::cout << "skeleton: " << skeleton.cells.size()
            << " cells (paper: 6), images 10x10 SynthCIFAR (paper: 32x32 "
               "CIFAR-10), epochs "
            << epochs << " (paper: 300)\n\n";

  Rng rng(42);
  const auto logs = train_hypernet(hypernet, train, val, opt, rng);

  TextTable table({"epoch", "train loss", "sampled sub-model val acc"});
  for (const auto& log : logs)
    table.add_row({TextTable::fmt_int(log.epoch),
                   TextTable::fmt(log.train_loss, 3),
                   TextTable::fmt(log.val_accuracy, 3)});
  table.print(std::cout);

  const double first = logs.front().val_accuracy;
  double best = 0.0;
  for (const auto& log : logs) best = std::max(best, log.val_accuracy);
  const bool rising = best > 0.15;
  std::cout << "\nshape check: accuracy rises from " << TextTable::fmt(first, 3)
            << " (chance = 0.100) to a best of " << TextTable::fmt(best, 3)
            << " -> " << (rising ? "rising, as in Fig 5(a)" : "NOT rising")
            << "\n";
  std::cout << "hypernet parameters materialised: " << hypernet.param_count()
            << "\n";
  bench_footer(sw);
  return rising ? 0 : 1;
}
