#include "core/pareto.h"

#include <algorithm>

#include "core/reward.h"

namespace yoso {

double hypervolume_2d(std::span<const ParetoPoint> points,
                      const ParetoPoint& reference) {
  // Clip to points that dominate the reference, sort by f1 ascending, then
  // sweep: each point contributes (next_f1 - f1) * (ref2 - f2) after
  // removing dominated points.
  std::vector<ParetoPoint> front;
  for (const auto& p : points)
    if (p.first < reference.first && p.second < reference.second)
      front.push_back(p);
  if (front.empty()) return 0.0;
  std::sort(front.begin(), front.end());
  // Lower envelope: strictly decreasing f2 as f1 grows.
  std::vector<ParetoPoint> env;
  for (const auto& p : front) {
    if (!env.empty() && p.first == env.back().first) {
      env.back().second = std::min(env.back().second, p.second);
      continue;
    }
    if (env.empty() || p.second < env.back().second) env.push_back(p);
  }
  double volume = 0.0;
  for (std::size_t i = 0; i < env.size(); ++i) {
    const double width =
        (i + 1 < env.size() ? env[i + 1].first : reference.first) -
        env[i].first;
    volume += width * (reference.second - env[i].second);
  }
  return volume;
}

std::vector<ParetoPoint> to_tradeoff_points(
    std::span<const EvalResult> results, TradeoffMetric metric) {
  std::vector<ParetoPoint> points;
  points.reserve(results.size());
  for (const EvalResult& r : results)
    points.emplace_back((1.0 - r.accuracy) * 100.0,
                        metric == TradeoffMetric::kEnergy ? r.energy_mj
                                                          : r.latency_ms);
  return points;
}

}  // namespace yoso
