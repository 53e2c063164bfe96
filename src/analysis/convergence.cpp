#include "analysis/convergence.hpp"

#include <vector>

#include "core/network.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sssw::analysis {

using core::NetworkOptions;
using core::SmallWorldNetwork;

namespace {

struct ConvergenceTrial {
  bool converged = false;
  double list_rounds = 0.0;
  double ring_extra_rounds = 0.0;
  double messages_per_node = 0.0;
};

struct ChurnTrial {
  bool recovered = false;
  double rounds = 0.0;
  double messages = 0.0;
};

/// Applies one churn event to a stabilized network, drawing from `rng`;
/// false if the network refused it.
using ChurnEvent = bool (*)(SmallWorldNetwork&, util::Rng&);
/// The predicate recovery waits for (run_until_sorted_list or _ring).
using RunUntil = std::optional<std::uint64_t> (SmallWorldNetwork::*)(std::size_t);

/// E6/E7's trial loop: each trial stabilizes a ring, applies `event` with a
/// stream of its own (seed ^ `stream`) and counts the rounds and messages
/// until `recovered` holds again.
ChurnResult measure_churn(const ChurnOptions& options, std::uint64_t stream,
                          ChurnEvent event, RunUntil recovered) {
  const std::size_t burn_in =
      options.burn_in_rounds == 0 ? 4 * options.n : options.burn_in_rounds;
  const auto trials = util::run_trials<ChurnTrial>(
      options.trials, options.base_seed, [&](std::size_t, std::uint64_t seed) {
        SmallWorldNetwork network =
            stabilized_network(options.n, seed, burn_in, options.protocol);
        util::Rng rng(seed ^ stream);
        const std::uint64_t sent_before = network.engine().counters().total_sent();
        ChurnTrial trial;
        if (!event(network, rng)) return trial;
        const auto rounds = (network.*recovered)(options.max_recovery_rounds);
        if (!rounds.has_value()) return trial;
        trial.recovered = true;
        trial.rounds = static_cast<double>(*rounds);
        trial.messages = static_cast<double>(
            network.engine().counters().total_sent() - sent_before);
        return trial;
      });

  std::vector<double> rounds, messages;
  for (const ChurnTrial& trial : trials) {
    if (!trial.recovered) continue;
    rounds.push_back(trial.rounds);
    messages.push_back(trial.messages);
  }
  ChurnResult result;
  result.recovery_rounds = util::summarize(rounds);
  result.recovery_messages = util::summarize(messages);
  result.recovered = options.trials ? static_cast<double>(rounds.size()) /
                                          static_cast<double>(options.trials)
                                    : 0.0;
  return result;
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

ConvergenceResult measure_convergence(topology::InitialShape shape,
                                      const ConvergenceOptions& options) {
  NetworkOptions net_options;
  net_options.protocol = options.protocol;
  net_options.scheduler = options.scheduler;
  const auto trials = util::run_trials<ConvergenceTrial>(
      options.trials, options.base_seed, [&](std::size_t, std::uint64_t seed) {
        SmallWorldNetwork network =
            initial_network(shape, options.n, seed, net_options);
        ConvergenceTrial trial;
        const auto list_rounds = network.run_until_sorted_list(options.max_rounds);
        if (!list_rounds.has_value()) return trial;
        const auto used = static_cast<std::size_t>(*list_rounds);
        const auto ring_rounds =
            network.run_until_sorted_ring(options.max_rounds - used);
        if (!ring_rounds.has_value()) return trial;
        trial.converged = true;
        trial.list_rounds = static_cast<double>(*list_rounds);
        trial.ring_extra_rounds = static_cast<double>(*ring_rounds);
        trial.messages_per_node =
            static_cast<double>(network.engine().counters().total_sent()) /
            static_cast<double>(options.n);
        return trial;
      });

  std::vector<double> list_rounds, ring_extra, messages;
  std::size_t converged = 0;
  for (const ConvergenceTrial& trial : trials) {
    if (!trial.converged) continue;
    ++converged;
    list_rounds.push_back(trial.list_rounds);
    ring_extra.push_back(trial.ring_extra_rounds);
    messages.push_back(trial.messages_per_node);
  }
  ConvergenceResult result;
  result.list_rounds = util::summarize(list_rounds);
  result.ring_extra_rounds = util::summarize(ring_extra);
  result.messages_per_node = util::summarize(messages);
  result.converged = options.trials
                         ? static_cast<double>(converged) / static_cast<double>(options.trials)
                         : 0.0;
  return result;
}

ChurnResult measure_join(const ChurnOptions& options) {
  // A fresh id joins at a uniformly random contact.  (Span: the contact is
  // copied out before join() invalidates it.)
  const ChurnEvent join = [](SmallWorldNetwork& network, util::Rng& rng) {
    sim::Id new_id;
    do {
      new_id = rng.uniform();
    } while (new_id == 0.0 || network.engine().contains(new_id));
    const auto ids = network.engine().id_span();
    const sim::Id contact = ids[rng.below(ids.size())];
    return network.join(new_id, contact);
  };
  return measure_churn(options, 0x6a6f696eull, join,
                       &SmallWorldNetwork::run_until_sorted_list);
}

ChurnResult measure_leave(const ChurnOptions& options) {
  const ChurnEvent leave = [](SmallWorldNetwork& network, util::Rng& rng) {
    const auto ids = network.engine().id_span();
    return network.leave(ids[rng.below(ids.size())]);
  };
  return measure_churn(options, 0x6c656176ull, leave,
                       &SmallWorldNetwork::run_until_sorted_ring);
}

}  // namespace sssw::analysis
