#include "service/slo.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/network.hpp"
#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

namespace sssw::service {

namespace {

/// One completion, in rounds relative to the trial's crash round.
struct Sample {
  std::int64_t rel_round;
  bool ok;
  double latency;
  double hops;
};

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return -1.0;
  std::sort(values.begin(), values.end());
  const auto count = static_cast<double>(values.size());
  auto idx = static_cast<std::size_t>(std::ceil(q * count));
  idx = idx > 0 ? idx - 1 : 0;
  idx = std::min(idx, values.size() - 1);
  return values[idx];
}

/// Stats over samples with rel_round in [lo, hi).
SloWindowStats window_stats(const std::vector<Sample>& samples,
                            std::int64_t lo, std::int64_t hi) {
  SloWindowStats stats;
  std::vector<double> latencies, hops;
  for (const Sample& s : samples) {
    if (s.rel_round < lo || s.rel_round >= hi) continue;
    ++stats.completed;
    if (s.ok) {
      ++stats.succeeded;
      latencies.push_back(s.latency);
      hops.push_back(s.hops);
    }
  }
  if (stats.completed > 0) {
    stats.success = static_cast<double>(stats.succeeded) /
                    static_cast<double>(stats.completed);
  }
  stats.p50_latency = percentile(latencies, 0.50);
  stats.p99_latency = percentile(latencies, 0.99);
  stats.p999_latency = percentile(latencies, 0.999);
  stats.p50_hops = percentile(hops, 0.50);
  stats.p99_hops = percentile(hops, 0.99);
  stats.p999_hops = percentile(hops, 0.999);
  return stats;
}

/// First rel_round >= 0 whose trailing `window` of completions meets
/// `target` (and is non-empty), or -1 if none does within [0, horizon).
std::int64_t recovery_round(const std::vector<Sample>& samples,
                            std::int64_t horizon, std::int64_t window,
                            double target) {
  if (horizon <= 0) return -1;
  std::vector<std::uint32_t> completed(static_cast<std::size_t>(horizon), 0);
  std::vector<std::uint32_t> succeeded(static_cast<std::size_t>(horizon), 0);
  for (const Sample& s : samples) {
    if (s.rel_round < 0 || s.rel_round >= horizon) continue;
    const auto r = static_cast<std::size_t>(s.rel_round);
    ++completed[r];
    if (s.ok) ++succeeded[r];
  }
  // Walk backwards keeping the sums of the window [r, r + window): the
  // answer is the earliest r whose entire suffix of windows stays at the
  // target, so a transient blip that later regresses does not count as
  // recovered.  An empty window (no completions) is neutral.
  std::uint64_t win_completed = 0, win_succeeded = 0;
  std::uint64_t suffix_completed = 0;
  std::int64_t earliest = -1;
  for (std::int64_t r = horizon - 1; r >= 0; --r) {
    win_completed += completed[static_cast<std::size_t>(r)];
    win_succeeded += succeeded[static_cast<std::size_t>(r)];
    suffix_completed += completed[static_cast<std::size_t>(r)];
    const std::int64_t tail = r + window;
    if (tail < horizon) {
      win_completed -= completed[static_cast<std::size_t>(tail)];
      win_succeeded -= succeeded[static_cast<std::size_t>(tail)];
    }
    const bool meets = win_completed == 0 ||
                       static_cast<double>(win_succeeded) >=
                           target * static_cast<double>(win_completed);
    if (!meets) {
      suffix_completed -= completed[static_cast<std::size_t>(r)];
      break;
    }
    earliest = r;
  }
  // A silent suffix is not evidence of recovery.
  return suffix_completed > 0 ? earliest : -1;
}

}  // namespace

std::uint64_t slo_detection_window(const SloOptions& options) {
  const core::DetectorConfig& d = options.protocol.detector;
  const std::uint64_t evict_latency =
      static_cast<std::uint64_t>(d.suspect_threshold + d.max_retries +
                                 (2u << d.max_retries)) *
      d.probe_period;
  const LookupConfig& l = options.lookup;
  const std::uint64_t backoff_sum =
      static_cast<std::uint64_t>(l.backoff_rounds) *
          ((1ull << l.max_retries) - 1) +
      static_cast<std::uint64_t>(l.backoff_jitter) * l.max_retries;
  const std::uint64_t service_horizon =
      static_cast<std::uint64_t>(l.timeout_rounds) * (l.max_retries + 1) +
      backoff_sum;
  return evict_latency + service_horizon + options.recovery_window;
}

SloResult measure_slo(const SloOptions& options, obs::Registry* registry) {
  SloResult result;
  result.slo_target = options.slo_target;
  result.detection_window = slo_detection_window(options);
  const std::size_t burn_in =
      options.burn_in > 0 ? options.burn_in : 2 * options.n;
  const std::size_t post_rounds =
      options.post_rounds > 0
          ? options.post_rounds
          : 3 * static_cast<std::size_t>(result.detection_window);

  struct Trial {
    std::vector<Sample> samples;  ///< rel_round relative to the crash
    std::int64_t recovery = -1;   ///< recovery_round's answer
    LookupManager::Totals totals;
    obs::Registry registry;
  };
  core::NetworkOptions net_options;
  net_options.message_loss = options.message_loss;
  net_options.protocol = options.protocol;
  net_options.protocol.detector.enabled = options.detector;
  const std::int64_t horizon = static_cast<std::int64_t>(post_rounds);
  auto trials = util::run_trials<Trial>(
      options.trials, options.base_seed, [&](std::size_t, std::uint64_t seed) {
        Trial trial;
        core::NetworkOptions trial_options = net_options;
        trial_options.seed = seed;
        core::SmallWorldNetwork net = core::make_stable_ring(options.n, trial_options);
        net.attach_metrics(trial.registry);
        net.run_rounds(burn_in);  // links spread, probe timers cycling

        LookupConfig lookup = options.lookup;
        lookup.seed = seed ^ options.lookup.seed;
        LookupManager manager(net, lookup);
        manager.attach_metrics(trial.registry);
        std::vector<Sample>& samples = trial.samples;
        std::int64_t crash_rel = 0;  // completion rounds relative to the crash
        manager.set_completion_hook([&](const LookupCompletion& c) {
          samples.push_back({static_cast<std::int64_t>(c.round) - crash_rel,
                             c.ok, static_cast<double>(c.latency_rounds),
                             static_cast<double>(c.hops)});
        });

        net.run_rounds(options.warm_rounds);

        const std::int64_t crash_round =
            static_cast<std::int64_t>(net.engine().round());
        for (const sim::Id victim :
             core::crash_victims(net.engine().id_span(), options.crash_frac, seed))
          net.crash(victim);

        // Re-base the completions recorded so far (hook captured crash_rel
        // by reference; everything before this point is pre-crash, negative
        // rel).
        crash_rel = crash_round;
        for (Sample& s : samples) s.rel_round -= crash_round;

        net.run_rounds(post_rounds);

        trial.recovery = recovery_round(
            samples, horizon, static_cast<std::int64_t>(options.recovery_window),
            options.slo_target);
        trial.totals = manager.totals();
        return trial;
      });

  std::vector<Sample> pooled_pre, pooled_during, pooled_post;
  double recovery_sum = 0.0;
  std::size_t recovered = 0;
  bool all_in_window = true;
  for (const Trial& trial : trials) {
    const std::int64_t rec = trial.recovery;
    if (rec >= 0) {
      ++recovered;
      recovery_sum += static_cast<double>(rec);
      if (static_cast<std::uint64_t>(rec) > result.detection_window)
        all_in_window = false;
    } else {
      all_in_window = false;
    }
    const std::int64_t during_end = rec >= 0 ? rec : horizon;
    for (const Sample& s : trial.samples) {
      if (s.rel_round < 0) {
        pooled_pre.push_back(s);
      } else if (s.rel_round < during_end) {
        pooled_during.push_back(s);
      } else {
        pooled_post.push_back(s);
      }
    }

    const LookupManager::Totals& t = trial.totals;
    result.totals.issued += t.issued;
    result.totals.attempts += t.attempts;
    result.totals.retries += t.retries;
    result.totals.hedges += t.hedges;
    result.totals.succeeded += t.succeeded;
    result.totals.failed += t.failed;
    result.totals.stale += t.stale;
    result.totals.deadletter_timeout += t.deadletter_timeout;
    result.totals.deadletter_no_progress += t.deadletter_no_progress;
    result.totals.deadletter_target_dead += t.deadletter_target_dead;
    result.totals.deadletter_ttl += t.deadletter_ttl;
    result.totals.hop_sum += t.hop_sum;
    result.totals.latency_sum += t.latency_sum;
    if (registry != nullptr) registry->merge(trial.registry);
  }

  const std::int64_t warm = static_cast<std::int64_t>(options.warm_rounds);
  result.pre = window_stats(pooled_pre, -warm, 0);
  result.during_crash = window_stats(pooled_during, 0, horizon);
  result.post = window_stats(pooled_post, 0, horizon + 1);
  result.recovery_rounds =
      recovered > 0 ? recovery_sum / static_cast<double>(recovered) : -1.0;
  result.recovered_fraction =
      static_cast<double>(recovered) / static_cast<double>(options.trials);
  result.recovered_in_window = recovered == options.trials && all_in_window;
  return result;
}

}  // namespace sssw::service
