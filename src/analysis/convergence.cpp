#include "analysis/convergence.hpp"

#include <optional>
#include <vector>

#include "analysis/drivers.hpp"
#include "core/invariants.hpp"
#include "core/network.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace sssw::analysis {

using core::NetworkOptions;
using core::SmallWorldNetwork;

namespace {

/// Applies one churn event to a stabilized network, drawing from `rng`;
/// false if the network refused it.
using ChurnEvent = bool (*)(SmallWorldNetwork&, util::Rng&);
/// The predicate recovery waits for (run_until_sorted_list or _ring).
using RunUntil = std::optional<std::uint64_t> (SmallWorldNetwork::*)(std::size_t);

/// A fresh id joins at a uniformly random contact.  (Span: the contact is
/// copied out before join() invalidates it.)
bool join_random(SmallWorldNetwork& network, util::Rng& rng) {
  sim::Id new_id;
  do {
    new_id = rng.uniform();
  } while (new_id == 0.0 || network.engine().contains(new_id));
  const auto ids = network.engine().id_span();
  const sim::Id contact = ids[rng.below(ids.size())];
  return network.join(new_id, contact);
}

/// A uniformly random node fail-stops out of the network.
bool leave_random(SmallWorldNetwork& network, util::Rng& rng) {
  const auto ids = network.engine().id_span();
  return network.leave(ids[rng.below(ids.size())]);
}

/// E6's trial loop for one event kind: each trial stabilizes a ring (4n
/// burn-in rounds), applies `event` with a stream of its own (seed ^
/// `stream`) and counts the rounds and messages until `recovered` holds
/// again.  Adds `<name>_rounds_mean`, `<name>_msgs_mean` and
/// `<name>_recovered`.
void add_churn(CellResult& out, const SweepCell& cell, const std::string& name,
               std::uint64_t stream, ChurnEvent event, RunUntil recovered) {
  struct Trial {
    bool recovered = false;
    double rounds = 0.0;
    double messages = 0.0;
  };
  const core::Config protocol = ablation_config(cell);
  const std::size_t budget = cell_budget(cell);
  const auto trials = util::run_trials<Trial>(
      cell.trials, cell.seed, [&](std::size_t, std::uint64_t seed) {
        SmallWorldNetwork network =
            stabilized_network(cell.n, seed, 4 * cell.n, protocol);
        util::Rng rng(seed ^ stream);
        const std::uint64_t sent_before = network.engine().counters().total_sent();
        Trial trial;
        if (!event(network, rng)) return trial;
        const auto rounds = (network.*recovered)(budget);
        if (!rounds.has_value()) return trial;
        trial.recovered = true;
        trial.rounds = static_cast<double>(*rounds);
        trial.messages = static_cast<double>(
            network.engine().counters().total_sent() - sent_before);
        return trial;
      });

  std::vector<double> rounds, messages;
  for (const Trial& trial : trials) {
    if (!trial.recovered) continue;
    rounds.push_back(trial.rounds);
    messages.push_back(trial.messages);
  }
  out.add(name + "_rounds_mean", util::summarize(rounds).mean);
  out.add(name + "_msgs_mean", util::summarize(messages).mean);
  out.add(name + "_recovered", fraction(rounds.size(), cell.trials));
}

}  // namespace

SmallWorldNetwork initial_network(topology::InitialShape shape, std::size_t n,
                                  std::uint64_t seed, NetworkOptions options) {
  util::Rng rng(seed);
  auto ids = core::random_ids(n, rng);
  options.seed = seed;
  SmallWorldNetwork network(options);
  network.add_nodes(topology::make_initial_state(shape, std::move(ids), rng));
  return network;
}

SmallWorldNetwork stabilized_network(std::size_t n, std::uint64_t seed,
                                     std::size_t burn_in_rounds,
                                     const core::Config& protocol) {
  NetworkOptions options;
  options.protocol = protocol;
  options.seed = seed;
  SmallWorldNetwork network = core::make_stable_ring(n, options);
  network.run_rounds(burn_in_rounds);
  return network;
}

std::uint64_t round_budget(std::size_t n, const sim::EngineConfig& engine) {
  std::uint64_t latency = 1;
  if (engine.faults.delay_probability > 0.0)
    latency += engine.faults.max_delay_rounds;
  if (engine.scheduler == sim::SchedulerKind::kAdversarialOldestLast)
    latency += engine.adversary_delay;
  std::uint64_t budget = (400 * static_cast<std::uint64_t>(n) + 4000) * latency;
  // Nothing useful can happen before a partition window closes.
  if (engine.faults.partition_rounds > 0)
    budget += engine.faults.partition_start + engine.faults.partition_rounds;
  if (engine.message_loss > 0.0) budget *= 2;
  return budget;
}

// --- E1/A1: convergence to the sorted ring (Thms 4.9/4.18) -----------------

CellResult run_convergence(const SweepCell& cell, obs::Registry*) {
  struct Trial {
    bool converged = false;
    double list_rounds = 0.0;        ///< initial state to sorted list (Def. 4.8)
    double ring_extra_rounds = 0.0;  ///< sorted list to sorted ring (Def. 4.17)
    double messages_per_node = 0.0;  ///< sent until the ring formed
  };
  NetworkOptions options;
  options.protocol = ablation_config(cell);
  options.scheduler = cell.scheduler;
  const std::size_t budget = cell_budget(cell);
  const auto trials = util::run_trials<Trial>(
      cell.trials, cell.seed, [&](std::size_t, std::uint64_t seed) {
        SmallWorldNetwork network = initial_network(cell.shape, cell.n, seed, options);
        Trial trial;
        const auto list_rounds = network.run_until_sorted_list(budget);
        if (!list_rounds.has_value()) return trial;
        const auto used = static_cast<std::size_t>(*list_rounds);
        const auto ring_rounds = network.run_until_sorted_ring(budget - used);
        if (!ring_rounds.has_value()) return trial;
        trial.converged = true;
        trial.list_rounds = static_cast<double>(*list_rounds);
        trial.ring_extra_rounds = static_cast<double>(*ring_rounds);
        trial.messages_per_node =
            static_cast<double>(network.engine().counters().total_sent()) /
            static_cast<double>(cell.n);
        return trial;
      });

  std::vector<double> list_rounds, ring_extra, messages;
  for (const Trial& trial : trials) {
    if (!trial.converged) continue;
    list_rounds.push_back(trial.list_rounds);
    ring_extra.push_back(trial.ring_extra_rounds);
    messages.push_back(trial.messages_per_node);
  }
  const util::Summary list = util::summarize(list_rounds);
  CellResult out;
  out.add("list_rounds_mean", list.mean);
  out.add("list_rounds_p90", list.p90);
  out.add("ring_extra_mean", util::summarize(ring_extra).mean);
  out.add("msgs_per_node_mean", util::summarize(messages).mean);
  out.add("converged", fraction(list_rounds.size(), cell.trials));
  return out;
}

// --- E6: one join, then one leave, on a stabilized ring (§IV.G) ------------

CellResult run_churn(const SweepCell& cell, obs::Registry*) {
  CellResult out;
  add_churn(out, cell, "join", 0x6a6f696eull, join_random,
            &SmallWorldNetwork::run_until_sorted_list);
  add_churn(out, cell, "leave", 0x6c656176ull, leave_random,
            &SmallWorldNetwork::run_until_sorted_ring);
  return out;
}

// --- E7: overlapping churn storms (the w.h.p. caveat of Thm 4.24) ----------

// §IV.G analyses one join/leave at a time; a real overlay takes hits while
// still digesting earlier ones.  Each trial fires 24 events, each a join or
// a leave with even odds, `interval` rounds apart WITHOUT waiting for
// recovery, then measures how long the network needs to quiesce back to the
// sorted ring once the storm stops — and whether it survived at all (a
// leave storm can, with small probability, disconnect the network).
CellResult run_storm(const SweepCell& cell, obs::Registry*) {
  constexpr std::size_t kEvents = 24;
  struct Trial {
    bool survived = false;               ///< the ring re-formed in budget
    double quiesce_rounds = 0;           ///< from the last event to the ring
    double messages_per_node_round = 0;  ///< over the storm window
  };
  const auto interval = static_cast<std::size_t>(number_param(cell, "interval"));
  const auto trials = util::run_trials<Trial>(
      cell.trials, cell.seed, [&](std::size_t, std::uint64_t seed) {
        SmallWorldNetwork network = stabilized_network(cell.n, seed, 4 * cell.n);
        util::Rng event_rng(seed ^ 0x73746f726dull);  // "storm"
        const std::uint64_t sent_before = network.engine().counters().total_sent();
        for (std::size_t event = 0; event < kEvents; ++event) {
          // Never shrink below a tiny core.
          if (event_rng.bernoulli(0.5) || network.size() < 4)
            join_random(network, event_rng);
          else
            leave_random(network, event_rng);
          network.run_rounds(interval);  // the storm marches on
        }
        Trial trial;
        trial.messages_per_node_round =
            static_cast<double>(network.engine().counters().total_sent() -
                                sent_before) /
            static_cast<double>(network.size()) /
            static_cast<double>(kEvents * interval);
        // A storm that split the CC graph can never re-form the ring (no
        // node of one part holds or receives a reference to the other), so
        // it has not survived; the quiesce budget is spent only on networks
        // that can heal.
        if (core::cc_weakly_connected(network.engine())) {
          const auto quiesce =
              network.run_until_sorted_ring(round_budget(network.size(), {}));
          trial.survived = quiesce.has_value();
          trial.quiesce_rounds = static_cast<double>(quiesce.value_or(0));
        }
        return trial;
      });

  std::size_t survived = 0;
  std::vector<double> quiesce, rate;
  for (const Trial& trial : trials) {
    rate.push_back(trial.messages_per_node_round);
    if (!trial.survived) continue;
    ++survived;
    quiesce.push_back(trial.quiesce_rounds);
  }
  CellResult out;
  out.add("survived", fraction(survived, trials.size()));
  out.add("quiesce_rounds", mean_or_none(quiesce));
  out.add("msgs_per_node_round", util::mean_of(rate));
  return out;
}

}  // namespace sssw::analysis
