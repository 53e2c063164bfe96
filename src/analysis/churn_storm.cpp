#include "analysis/churn_storm.hpp"

#include "analysis/convergence.hpp"
#include "core/invariants.hpp"
#include "core/network.hpp"
#include "util/rng.hpp"

namespace sssw::analysis {

ChurnStormResult run_churn_storm(const ChurnStormOptions& options) {
  core::SmallWorldNetwork network = stabilized_network(
      options.n, options.seed,
      options.burn_in_rounds == 0 ? 4 * options.n : options.burn_in_rounds,
      options.protocol);

  util::Rng event_rng(options.seed ^ 0x73746f726dull);  // "storm"
  const std::uint64_t sent_before = network.engine().counters().total_sent();
  ChurnStormResult result;

  for (std::size_t event = 0; event < options.events; ++event) {
    const bool join = event_rng.bernoulli(options.join_bias) ||
                      network.size() < 4;  // never shrink below a tiny core
    if (join) {
      sim::Id fresh;
      do {
        fresh = event_rng.uniform();
      } while (fresh == 0.0 || network.engine().contains(fresh));
      // Copy the picked id out of the span before join/leave invalidates it.
      const auto ids = network.engine().id_span();
      const sim::Id contact = ids[event_rng.below(ids.size())];
      if (network.join(fresh, contact)) ++result.joins;
    } else {
      const auto ids = network.engine().id_span();
      const sim::Id victim = ids[event_rng.below(ids.size())];
      if (network.leave(victim)) ++result.leaves;
    }
    network.run_rounds(options.event_interval);  // storm marches on
  }

  const double storm_rounds =
      static_cast<double>(options.events * options.event_interval);
  result.messages_per_node_round =
      storm_rounds > 0
          ? static_cast<double>(network.engine().counters().total_sent() -
                                sent_before) /
                static_cast<double>(network.size()) / storm_rounds
          : 0.0;

  // A storm that split the CC graph can never re-form the ring (no node of
  // one part holds or receives a reference to the other), so it has not
  // survived; the quiesce budget is spent only on networks that can heal.
  if (core::cc_weakly_connected(network.engine())) {
    const auto quiesce =
        network.run_until_sorted_ring(round_budget(network.size(), {}));
    result.survived = quiesce.has_value();
    result.quiesce_rounds = quiesce.value_or(0);
  }
  result.final_size = network.size();
  return result;
}

}  // namespace sssw::analysis
