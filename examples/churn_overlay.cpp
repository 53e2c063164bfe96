// churn_overlay — a P2P-overlay scenario: nodes continuously join and leave
// a running small-world network, and the protocol absorbs every event.
//
//   ./churn_overlay [--n 128] [--events 40] [--seed 21] [--csv]
//
// This is the workload §IV.G analyses: each join/leave is followed by the
// recovery rounds and message cost until the sorted ring holds again, and a
// final summary shows the polylog-ish cost distribution.
#include <cstdio>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace sssw;

int main(int argc, char** argv) {
  std::int64_t n = 128;
  std::int64_t events = 40;
  std::int64_t seed = 21;
  bool csv = false;
  util::Cli cli("sssw churn overlay: continuous joins/leaves on a live network");
  cli.flag("n", "initial number of nodes", &n);
  cli.flag("events", "number of churn events", &events);
  cli.flag("seed", "random seed", &seed);
  cli.flag("csv", "emit CSV instead of an aligned table", &csv);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  util::Rng rng(static_cast<std::uint64_t>(seed));
  core::NetworkOptions options;
  options.seed = static_cast<std::uint64_t>(seed);
  core::SmallWorldNetwork net =
      core::make_stable_ring(core::random_ids(static_cast<std::size_t>(n), rng), options);
  net.run_rounds(4 * static_cast<std::size_t>(n));  // spread the long-range links

  util::Table table({"event", "kind", "size", "recovery rounds", "messages"});
  std::vector<double> join_rounds, leave_rounds;

  for (std::int64_t event = 0; event < events; ++event) {
    // Alternate joins and leaves, with a slight join bias so the network
    // drifts upward in size like a real overlay.
    const bool join = rng.bernoulli(0.55) || net.size() < 8;
    const std::uint64_t sent_before = net.engine().counters().total_sent();
    if (join) {
      sim::Id fresh;
      do {
        fresh = rng.uniform();
      } while (fresh == 0.0 || net.engine().contains(fresh));
      const auto ids = net.engine().id_span();
      net.join(fresh, ids[rng.below(ids.size())]);
    } else {
      const auto ids = net.engine().id_span();
      net.leave(ids[rng.below(ids.size())]);
    }
    const auto rounds = net.run_until_sorted_ring(200000);
    if (!rounds.has_value()) {
      std::fprintf(stderr, "event %lld did not recover — network partitioned\n",
                   static_cast<long long>(event));
      return 1;
    }
    (join ? join_rounds : leave_rounds).push_back(static_cast<double>(*rounds));
    table.row()
        .add(event)
        .add(join ? "join" : "leave")
        .add(net.size())
        .add(static_cast<std::uint64_t>(*rounds))
        .add(net.engine().counters().total_sent() - sent_before);
  }

  std::fputs(csv ? table.to_csv().c_str() : table.to_string().c_str(), stdout);

  const util::Summary joins = util::summarize(join_rounds);
  const util::Summary leaves = util::summarize(leave_rounds);
  std::printf("\n%zu joins : recovery rounds mean %.1f, p90 %.1f, max %.0f\n",
              joins.count, joins.mean, joins.p90, joins.max);
  std::printf("%zu leaves: recovery rounds mean %.1f, p90 %.1f, max %.0f\n",
              leaves.count, leaves.mean, leaves.p90, leaves.max);
  std::printf("final size %zu, still a sorted ring: %s\n", net.size(),
              net.sorted_ring() ? "yes" : "no");
  return 0;
}
