#include "analysis/robustness.hpp"

#include <numeric>

#include "graph/traversal.hpp"
#include "routing/greedy.hpp"
#include "util/stats.hpp"

namespace sssw::analysis {

RobustnessPoint measure_robustness(const graph::Digraph& graph, double fail_fraction,
                                   const RobustnessOptions& options) {
  RobustnessPoint point;
  point.fail_fraction = fail_fraction;
  const std::size_t n = graph.vertex_count();
  if (n == 0) return point;

  util::Welford component, success, hops;
  util::Rng rng(options.seed);
  const auto kill_count = static_cast<std::size_t>(fail_fraction * static_cast<double>(n));

  for (std::size_t trial = 0; trial < options.trials; ++trial) {
    // Choose kill_count distinct victims.
    std::vector<graph::Vertex> order(n);
    std::iota(order.begin(), order.end(), 0);
    util::shuffle(order, rng);
    std::vector<bool> removed(n, false);
    for (std::size_t k = 0; k < kill_count && k < n; ++k) removed[order[k]] = true;

    const graph::Digraph survivors = graph.without_vertices(removed);
    const std::size_t alive = survivors.vertex_count();
    if (alive == 0) {
      component.add(0.0);
      success.add(0.0);
      continue;
    }
    component.add(static_cast<double>(graph::largest_weak_component(survivors)) /
                  static_cast<double>(alive));

    if (alive >= 2) {
      const auto routing = routing::evaluate_routing(
          survivors, rng, options.routing_pairs, alive, options.metric);
      success.add(routing.success_rate);
      if (routing.hops.count > 0) hops.add(routing.hops.mean);
    }
  }
  point.largest_component = component.mean();
  point.routing_success = success.mean();
  point.mean_hops = hops.mean();
  return point;
}

std::vector<RobustnessPoint> robustness_sweep(const graph::Digraph& graph,
                                              const std::vector<double>& fractions,
                                              const RobustnessOptions& options) {
  std::vector<RobustnessPoint> points;
  points.reserve(fractions.size());
  RobustnessOptions per_point = options;
  for (const double fraction : fractions) {
    points.push_back(measure_robustness(graph, fraction, per_point));
    ++per_point.seed;  // decorrelate removals across sweep points
  }
  return points;
}

}  // namespace sssw::analysis
