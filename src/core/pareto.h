#pragma once
// The 2-D hypervolume indicator of a set of evaluations: project them onto
// the (error %, metric) plane, then measure the area they dominate against a
// reference point.  bench_ablation_searchers compares searchers with it.

#include <span>
#include <utility>
#include <vector>

#include "core/reward.h"

namespace yoso {

/// A point in minimisation space: (f1, f2), both to be minimised.
using ParetoPoint = std::pair<double, double>;

/// 2-D hypervolume (area dominated by the front, bounded by `reference`,
/// which must be dominated by every front point considered; points beyond
/// the reference are clipped out).  Larger is better.
double hypervolume_2d(std::span<const ParetoPoint> points,
                      const ParetoPoint& reference);

/// Projects evaluations onto the (error %, metric) minimisation plane.
enum class TradeoffMetric { kEnergy, kLatency };
std::vector<ParetoPoint> to_tradeoff_points(
    std::span<const EvalResult> results, TradeoffMetric metric);

}  // namespace yoso
