// explorer — inspect a self-stabilized small-world network: phase timeline,
// graph metrics of every Definition 4.2 view, link-length distribution, and
// optional Graphviz export.
//
//   ./explorer [--n 96] [--shape star] [--seed 17] [--dot out.dot]
#include <cstdio>
#include <fstream>
#include <string>

#include "analysis/linklen.hpp"
#include "core/network.hpp"
#include "core/views.hpp"
#include "graph/dot.hpp"
#include "graph/metrics.hpp"
#include "graph/traversal.hpp"
#include "topology/initial_states.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace sssw;

int main(int argc, char** argv) {
  std::int64_t n = 96;
  std::int64_t seed = 17;
  std::string shape_name = "star";
  std::string dot_path;
  util::Cli cli("sssw explorer: phases, metrics and views of a stabilizing network");
  cli.flag("n", "number of nodes", &n);
  cli.flag("seed", "random seed", &seed);
  cli.flag("shape", "initial topology shape", &shape_name);
  cli.flag("dot", "write the final CP view as Graphviz DOT to this path", &dot_path);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const auto shape = topology::shape_from_string(shape_name);
  if (!shape) {
    std::fprintf(stderr, "unknown shape '%s'\n", shape_name.c_str());
    return 1;
  }

  util::Rng rng(static_cast<std::uint64_t>(seed));
  auto ids = core::random_ids(static_cast<std::size_t>(n), rng);
  core::NetworkOptions options;
  options.seed = static_cast<std::uint64_t>(seed);
  core::SmallWorldNetwork net(options);
  net.add_nodes(topology::make_initial_state(*shape, std::move(ids), rng));

  // Phase timeline: report the round at which each phase is first reached.
  std::printf("phase timeline (shape=%s, n=%lld):\n", topology::to_string(*shape),
              static_cast<long long>(n));
  core::Phase last = net.phase();
  std::printf("  round %6llu  %s\n", 0ull, core::to_string(last));
  for (std::size_t round = 1; round <= 200000; ++round) {
    net.run_rounds(1);
    const core::Phase now = net.phase();
    if (now != last) {
      std::printf("  round %6llu  %s\n",
                  static_cast<unsigned long long>(net.engine().round()),
                  core::to_string(now));
      last = now;
    }
    if (now == core::Phase::kSmallWorld) break;
  }
  if (last != core::Phase::kSmallWorld) {
    std::fprintf(stderr, "did not reach the small-world phase in the budget\n");
    return 1;
  }

  // Let the long-range links mix, then report metrics per view.
  net.run_rounds(8 * static_cast<std::size_t>(n));
  const core::IdIndex index = net.make_index();
  util::Table table({"view", "edges", "weakly conn.", "diameter", "avg path", "clustering"});
  struct ViewRow {
    const char* name;
    graph::Digraph graph;
  };
  util::Rng metric_rng(static_cast<std::uint64_t>(seed) + 1);
  const ViewRow views[] = {
      {"LCP (list)", core::view_lcp(net.engine(), index)},
      {"RCP (ring)", core::view_rcp(net.engine(), index)},
      {"CP (all stored)", core::view_cp(net.engine(), index)},
      {"CC (incl. channels)", core::view_cc(net.engine(), index)},
  };
  for (const ViewRow& view : views) {
    const auto diameter = graph::estimate_diameter(view.graph, metric_rng, 4);
    const auto paths = graph::average_path_length(view.graph, metric_rng, 400);
    table.row()
        .add(view.name)
        .add(view.graph.edge_count())
        .add(graph::is_weakly_connected(view.graph) ? "yes" : "no")
        .add(static_cast<std::uint64_t>(diameter))
        .add(paths.average, 2)
        .add(graph::clustering_coefficient(view.graph), 3);
  }
  std::fputs(table.to_string().c_str(), stdout);

  const auto lengths = net.lrl_lengths();
  const auto fit = analysis::fit_lengths(lengths, static_cast<std::size_t>(n) / 2, 16);
  std::printf("\nlong-range links: %zu active, mean length %.1f, P(d) ~ d^%.2f\n",
              lengths.size(), fit.mean_length, fit.fit.exponent);

  if (!dot_path.empty()) {
    graph::DotOptions dot_options;
    dot_options.graph_name = "sssw_cp";
    dot_options.circo = true;
    for (graph::Vertex v = 0; v < index.size(); ++v)
      dot_options.labels.push_back(util::format_double(index.id_of(v), 3));
    std::ofstream out(dot_path);
    out << graph::to_dot(core::view_cp(net.engine(), index), dot_options);
    std::printf("wrote %s\n", dot_path.c_str());
  }
  return 0;
}
