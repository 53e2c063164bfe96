#include "analysis/convergence.hpp"

#include <vector>

#include "analysis/experiment.hpp"
#include "core/network.hpp"
#include "util/rng.hpp"

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

/// Builds a stabilized ring of n random ids and burns in move-and-forget.
SmallWorldNetwork stabilized_network(std::size_t n, std::uint64_t seed,
                                     const core::Config& protocol,
                                     std::size_t burn_in_rounds) {
  util::Rng rng(seed);
  auto ids = core::random_ids(n, rng);
  NetworkOptions options;
  options.protocol = protocol;
  options.seed = seed;
  SmallWorldNetwork network = core::make_stable_ring(std::move(ids), options);
  network.run_rounds(burn_in_rounds == 0 ? 4 * n : burn_in_rounds);
  return network;
}

}  // namespace

ConvergenceResult measure_convergence(topology::InitialShape shape,
                                      const ConvergenceOptions& options) {
  const auto trial_fn = [&](std::size_t, std::uint64_t seed) {
    util::Rng rng(seed);
    auto ids = core::random_ids(options.n, rng);
    auto inits = topology::make_initial_state(shape, ids, rng, options.initial);

    NetworkOptions net_options;
    net_options.protocol = options.protocol;
    net_options.scheduler = options.scheduler;
    net_options.seed = seed;
    SmallWorldNetwork network(net_options);
    network.add_nodes(inits);

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
  };

  const auto trials = run_trials<ConvergenceTrial>(options.trials, options.base_seed,
                                                   trial_fn);
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
  const auto trial_fn = [&](std::size_t, std::uint64_t seed) {
    SmallWorldNetwork network =
        stabilized_network(options.n, seed, options.protocol, options.burn_in_rounds);
    util::Rng rng(seed ^ 0x6a6f696eull);  // independent stream for the event

    // Draw a fresh id and a uniformly random contact.  (Span: the contact
    // is copied out before join() invalidates it.)
    const auto ids = network.engine().id_span();
    sim::Id new_id;
    do {
      new_id = rng.uniform();
    } while (new_id == 0.0 || network.engine().contains(new_id));
    const sim::Id contact = ids[rng.below(ids.size())];

    const std::uint64_t sent_before = network.engine().counters().total_sent();
    ChurnTrial trial;
    if (!network.join(new_id, contact)) return trial;
    const auto rounds = network.run_until_sorted_list(options.max_recovery_rounds);
    if (!rounds.has_value()) return trial;
    trial.recovered = true;
    trial.rounds = static_cast<double>(*rounds);
    trial.messages = static_cast<double>(
        network.engine().counters().total_sent() - sent_before);
    return trial;
  };
  const auto trials = run_trials<ChurnTrial>(options.trials, options.base_seed, trial_fn);

  ChurnResult result;
  std::vector<double> rounds, messages;
  std::size_t recovered = 0;
  for (const ChurnTrial& trial : trials) {
    if (!trial.recovered) continue;
    ++recovered;
    rounds.push_back(trial.rounds);
    messages.push_back(trial.messages);
  }
  result.recovery_rounds = util::summarize(rounds);
  result.recovery_messages = util::summarize(messages);
  result.recovered = options.trials
                         ? static_cast<double>(recovered) / static_cast<double>(options.trials)
                         : 0.0;
  return result;
}

ChurnResult measure_leave(const ChurnOptions& options) {
  const auto trial_fn = [&](std::size_t, std::uint64_t seed) {
    SmallWorldNetwork network =
        stabilized_network(options.n, seed, options.protocol, options.burn_in_rounds);
    util::Rng rng(seed ^ 0x6c656176ull);

    const auto ids = network.engine().id_span();
    const sim::Id victim = ids[rng.below(ids.size())];

    const std::uint64_t sent_before = network.engine().counters().total_sent();
    ChurnTrial trial;
    if (!network.leave(victim)) return trial;
    const auto rounds = network.run_until_sorted_ring(options.max_recovery_rounds);
    if (!rounds.has_value()) return trial;
    trial.recovered = true;
    trial.rounds = static_cast<double>(*rounds);
    trial.messages = static_cast<double>(
        network.engine().counters().total_sent() - sent_before);
    return trial;
  };
  const auto trials = run_trials<ChurnTrial>(options.trials, options.base_seed, trial_fn);

  ChurnResult result;
  std::vector<double> rounds, messages;
  std::size_t recovered = 0;
  for (const ChurnTrial& trial : trials) {
    if (!trial.recovered) continue;
    ++recovered;
    rounds.push_back(trial.rounds);
    messages.push_back(trial.messages);
  }
  result.recovery_rounds = util::summarize(rounds);
  result.recovery_messages = util::summarize(messages);
  result.recovered = options.trials
                         ? static_cast<double>(recovered) / static_cast<double>(options.trials)
                         : 0.0;
  return result;
}

}  // namespace sssw::analysis
