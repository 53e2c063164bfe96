#include "analysis/fuzz.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/convergence.hpp"
#include "core/network.hpp"
#include "service/lookup_manager.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"
#include "util/json.hpp"

namespace sssw::analysis {

namespace {

constexpr FuzzOracle kAllOracles[] = {
    FuzzOracle::kPhaseMonotone,
    FuzzOracle::kLrlsResolve,
    FuzzOracle::kConnectivity,
    FuzzOracle::kEventualRing,
    FuzzOracle::kCrashRecovery,
    FuzzOracle::kLookupLiveness,
};

bool has_crash_schedule(const FuzzCase& c) {
  return c.crash_frac > 0.0 && c.crash_round > 0;
}

core::NetworkOptions network_options(const FuzzCase& c, bool paranoid) {
  core::NetworkOptions options;
  options.protocol = c.protocol;
  options.scheduler = c.scheduler;
  options.faults = c.faults;
  options.adversary_delay = c.adversary_delay;
  options.message_loss = c.message_loss;
  options.verify_tracker = paranoid;
  return options;
}

constexpr core::Phase kAllPhases[] = {
    core::Phase::kDisconnected, core::Phase::kWeaklyConnected,
    core::Phase::kListConnected, core::Phase::kSortedList,
    core::Phase::kSortedRing,   core::Phase::kSmallWorld,
};

}  // namespace

const char* to_string(FuzzOracle oracle) noexcept {
  switch (oracle) {
    case FuzzOracle::kPhaseMonotone:
      return "phase-monotone";
    case FuzzOracle::kLrlsResolve:
      return "lrls-resolve";
    case FuzzOracle::kConnectivity:
      return "connectivity";
    case FuzzOracle::kEventualRing:
      return "eventual-ring";
    case FuzzOracle::kCrashRecovery:
      return "crash-recovery";
    case FuzzOracle::kLookupLiveness:
      return "lookup-liveness";
  }
  return "unknown";
}

std::optional<FuzzOracle> oracle_from_string(const std::string& name) {
  for (const FuzzOracle oracle : kAllOracles)
    if (name == to_string(oracle)) return oracle;
  return std::nullopt;
}

std::uint64_t round_bound(const FuzzCase& c) {
  std::uint64_t bound = round_budget(c.n, network_options(c, false));
  // The additions below only fire on the crash and lookup dimensions, so
  // every pre-existing corpus case keeps its exact bound (and therefore its
  // recorded digest).
  if (has_crash_schedule(c)) {
    // Detect + repair budget: one eviction takes (threshold + retries +
    // the backoff cooldowns) probe ticks; re-linking can chain through
    // further dead ids, so grant one eviction cycle per node plus a full
    // fresh convergence run after the crash round.
    const core::DetectorConfig& d = c.protocol.detector;
    const std::uint64_t evict_latency =
        (static_cast<std::uint64_t>(d.suspect_threshold) + d.max_retries +
         (2ull << d.max_retries)) *
        d.probe_period;
    bound += c.crash_round + evict_latency * c.n + round_budget(c.n, {});
  }
  if (c.lookup_rate > 0.0) {
    // Headroom for the service failure horizon, so in-flight retries and
    // hedges can drain before the verdict is taken.
    bound += static_cast<std::uint64_t>(c.lookup_timeout) *
                 (c.lookup_retries + 1) +
             c.lookup_hedge;
  }
  return bound;
}

FuzzCase sample_case(util::Rng& rng, std::size_t max_n) {
  SSSW_CHECK_MSG(max_n >= 4, "fuzz cases need at least 4 nodes");
  // Every continuous dimension is drawn from a coarse grid: the values
  // below round-trip exactly through the JSON reproducer, so a shrunk case
  // replays bit-identically from its file.
  static constexpr double kProbGrid[] = {0.05, 0.1, 0.2, 0.3};
  static constexpr double kPivotGrid[] = {0.25, 0.5, 0.75};
  static constexpr double kEpsilonGrid[] = {0.05, 0.1, 0.5};

  FuzzCase c;
  c.n = 4 + rng.below(max_n - 3);
  c.shape = topology::kAllShapes[rng.below(std::size(topology::kAllShapes))];
  c.scheduler = sim::kAllSchedulers[rng.below(std::size(sim::kAllSchedulers))];
  c.adversary_delay = 1 + static_cast<std::uint32_t>(rng.below(4));
  c.seed = 1 + rng.below(1u << 30);

  if (rng.bernoulli(0.35)) {
    c.faults.duplicate_probability = kProbGrid[rng.below(std::size(kProbGrid))];
  }
  if (rng.bernoulli(0.35)) {
    c.faults.delay_probability = kProbGrid[rng.below(std::size(kProbGrid))];
    c.faults.max_delay_rounds = 1 + static_cast<std::uint32_t>(rng.below(4));
  }
  if (rng.bernoulli(0.25)) {
    c.faults.partition_start = rng.below(64);
    c.faults.partition_rounds = 1 + static_cast<std::uint32_t>(rng.below(24));
    c.faults.partition_pivot = kPivotGrid[rng.below(std::size(kPivotGrid))];
  }
  if (rng.bernoulli(0.3)) {
    c.faults.replay_probability = kProbGrid[rng.below(std::size(kProbGrid))];
    c.faults.replay_history = 1 + rng.below(16);
  }

  c.protocol.epsilon = kEpsilonGrid[rng.below(std::size(kEpsilonGrid))];
  c.protocol.probe_interval = 1 + static_cast<std::uint32_t>(rng.below(3));
  c.protocol.lrl_count = 1 + static_cast<std::uint32_t>(rng.below(2));

  static constexpr double kLossGrid[] = {0.02, 0.05};
  static constexpr double kCrashGrid[] = {0.1, 0.25};
  if (rng.bernoulli(0.2)) {
    c.message_loss = kLossGrid[rng.below(std::size(kLossGrid))];
  }
  if (rng.bernoulli(0.25)) {
    // Crashes are only recoverable with the active detector, so sampled
    // crash cases always enable it; detector-off wedging is pinned by a
    // dedicated regression test, not hunted by the fuzzer.
    c.crash_frac = kCrashGrid[rng.below(std::size(kCrashGrid))];
    c.crash_round = 4 + rng.below(32);
    c.protocol.detector.enabled = true;
  }
  static constexpr double kLookupRateGrid[] = {0.5, 1.0, 2.0};
  if (rng.bernoulli(0.25)) {
    // In-band lookup load riding the run — plus the lookup-liveness oracle
    // once it converges.  The configured timeout may be smaller than a sound
    // one (that exercises the retry/dead-letter machinery); the oracle's own
    // probe wave always uses a sound timeout, so small values here cannot
    // fake a violation.
    c.lookup_rate = kLookupRateGrid[rng.below(std::size(kLookupRateGrid))];
    c.lookup_ttl = 16u << rng.below(3);           // 16 | 32 | 64
    c.lookup_timeout = 16u << rng.below(2);       // 16 | 32
    c.lookup_retries = static_cast<std::uint32_t>(rng.below(3));
    c.lookup_hedge = rng.bernoulli(0.3) ? 8 : 0;
  }
  return c;
}

namespace {

/// FNV-1a over the full EngineCounters: two runs that agree on this agree
/// on every event count, which is as strong a trajectory fingerprint as the
/// byte-identical-JSONL test uses.
std::uint64_t fold_counters(const sim::EngineCounters& counters) {
  util::Fnv1a hash;
  hash.add_word(counters.rounds)
      .add_word(counters.actions)
      .add_word(counters.deliveries)
      .add_word(counters.dropped)
      .add_word(counters.lost)
      .add_word(counters.faults.duplicated)
      .add_word(counters.faults.delayed)
      .add_word(counters.faults.replayed)
      .add_word(counters.faults.partition_dropped);
  for (const std::uint64_t sent : counters.sent_by_type) hash.add_word(sent);
  return hash.value();
}

/// Continues the FNV fold over the lookup manager's lifetime totals, so a
/// case that ran lookup load also pins the full service trajectory (every
/// attempt, retry, hedge, and typed dead-letter).
std::uint64_t fold_lookup_totals(std::uint64_t hash,
                                 const service::LookupManager::Totals& t) {
  return util::Fnv1a(hash)
      .add_word(t.issued)
      .add_word(t.attempts)
      .add_word(t.retries)
      .add_word(t.hedges)
      .add_word(t.succeeded)
      .add_word(t.failed)
      .add_word(t.stale)
      .add_word(t.deadletter_timeout)
      .add_word(t.deadletter_no_progress)
      .add_word(t.deadletter_target_dead)
      .add_word(t.deadletter_ttl)
      .add_word(t.hop_sum)
      .add_word(t.latency_sum)
      .value();
}

}  // namespace

FuzzVerdict run_case(const FuzzCase& c, const FuzzOptions& options) {
  c.faults.validate();
  core::SmallWorldNetwork net = initial_network(
      c.shape, c.n, c.seed, network_options(c, options.paranoid));
  const sim::Engine& engine = net.engine();

  // In-band lookup load riding the whole run (declared after `net`: the
  // manager's round hook must be removed before the engine dies).
  std::optional<service::LookupManager> lookups;
  service::LookupManager::Totals lookup_totals{};
  if (c.lookup_rate > 0.0) {
    service::LookupConfig lookup_config;
    lookup_config.rate = c.lookup_rate;
    lookup_config.ttl = c.lookup_ttl;
    lookup_config.timeout_rounds = c.lookup_timeout;
    lookup_config.max_retries = c.lookup_retries;
    lookup_config.hedge_after = c.lookup_hedge;
    lookup_config.seed = c.seed;
    lookups.emplace(net, lookup_config);
  }

  const bool has_partition = c.faults.partition_rounds > 0;
  const bool has_loss = c.message_loss > 0.0;
  const bool has_crash = has_crash_schedule(c);
  const bool detector_on = c.protocol.detector.enabled;
  // Phase observations only move monotonically when rounds are the paper's
  // synchronous rounds and the channel is honest; async interleavings,
  // injected duplicates/delays, lost messages, and crashes can all
  // legitimately bounce the detector.
  const bool check_monotone = c.scheduler == sim::SchedulerKind::kSynchronous &&
                              !c.faults.active() && !has_loss && !has_crash;
  // Loss can destroy the only reference to a subtree exactly like a
  // partition-crossing drop, so connectivity is only demanded without it.
  const bool check_connectivity = !has_partition && !has_loss;

  bool violated = false;
  FuzzOracle oracle = FuzzOracle::kEventualRing;
  std::uint64_t violation_round = 0;
  const auto fail = [&](FuzzOracle which, std::uint64_t round) {
    violated = true;
    oracle = which;
    violation_round = round;
  };

  const std::uint64_t bound = round_bound(c);
  core::Phase best_phase = net.phase();
  bool crashed = false;
  for (std::uint64_t round = 1; round <= bound && !violated; ++round) {
    if (has_crash && !crashed && round == c.crash_round) {
      for (const sim::Id id :
           core::crash_victims(engine.id_span(), c.crash_frac, c.seed))
        net.crash(id);
      crashed = true;
    }
    net.run_rounds(1);
    const core::Phase phase = net.phase();
    if (check_monotone && phase < best_phase) fail(FuzzOracle::kPhaseMonotone, round);
    if (phase > best_phase) best_phase = phase;
    // After a crash, links at the dead ids are the *expected* damage (the
    // detector resolves them over time), so lrls-resolve only binds before.
    if (!violated && !crashed && !net.lrls_resolve())
      fail(FuzzOracle::kLrlsResolve, round);
    if (!violated && check_connectivity && !crashed &&
        !core::cc_weakly_connected(engine))
      fail(FuzzOracle::kConnectivity, round);
    if (!violated && net.sorted_ring() && (!has_crash || crashed)) break;
  }

  if (!violated && !net.sorted_ring()) {
    if (crashed) {
      // Survivors must re-converge only when something can detect the
      // crash (the active detector) and the crash/loss/partition left them
      // weakly connected; without the detector the wedge is the expected
      // outcome (Network::crash's documented contract).
      if (detector_on && core::cc_weakly_connected(engine))
        fail(FuzzOracle::kCrashRecovery, engine.round());
    } else if ((!has_partition && !has_loss) ||
               core::cc_weakly_connected(engine)) {
      // With a partition or loss the theorem's precondition (weak
      // connectivity) may have been destroyed — then non-convergence is
      // the expected outcome, exactly as with message loss in ablation A4.
      fail(FuzzOracle::kEventualRing, engine.round());
    }
  }

  if (lookups) {
    lookup_totals = lookups->totals();
    lookups.reset();  // stop the open-loop load before the liveness wave
  }

  // Lookup-liveness oracle: converged + detector-healed ⇒ lookups to
  // surviving targets eventually succeed.  Only sound once the ring is
  // sorted (otherwise non-delivery is the expected transient) and, on crash
  // cases, only with the detector on (without it the wedge is expected).
  if (!violated && c.lookup_rate > 0.0 && net.sorted_ring() &&
      engine.id_span().size() >= 2 && (!has_crash || detector_on)) {
    // Quiesce: let quarantines expire and in-flight service traffic drain,
    // so the wave judges the healed steady state, not the transient.
    std::uint64_t quiesce = 16;
    if (detector_on) quiesce += c.protocol.detector.quarantine_rounds;
    net.run_rounds(quiesce);

    // A fresh manager with a *sound* budget: timeout ≥ n + slack (a greedy
    // walk never needs more than one hop per live node), bounded re-issue
    // waves on top.  The case's own lookup_timeout may be smaller — that
    // exercises the retry machinery but must not fake a violation.
    const std::uint64_t span = engine.id_span().size();
    service::LookupConfig probe_config;
    probe_config.rate = 0.0;
    probe_config.ttl = static_cast<std::uint32_t>(2 * span + 16);
    probe_config.timeout_rounds = static_cast<std::uint32_t>(2 * span + 64);
    probe_config.max_retries = 2;
    probe_config.seed = c.seed ^ 0x70726f6265ull;  // "probe"
    service::LookupManager prober(net, probe_config);

    util::Rng pair_rng(c.seed ^ 0x6c6f6f6bull);  // "look"
    const std::span<const sim::Id> live = engine.id_span();
    struct ProbePair {
      sim::Id source;
      sim::Id target;
      bool done = false;
    };
    std::vector<ProbePair> wave(std::min<std::size_t>(8, live.size()));
    for (ProbePair& pair : wave) {
      pair.source = live[pair_rng.below(live.size())];
      pair.target = live[pair_rng.below(live.size())];
    }
    std::vector<std::uint64_t> requests(wave.size(), 0);
    prober.set_completion_hook([&](const service::LookupCompletion& done) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (requests[i] == done.request && done.ok) wave[i].done = true;
      }
    });
    const std::uint64_t horizon =
        static_cast<std::uint64_t>(probe_config.timeout_rounds) *
            (probe_config.max_retries + 1) +
        64;
    for (int attempt = 0; attempt < 4; ++attempt) {
      bool outstanding = false;
      for (std::size_t i = 0; i < wave.size(); ++i) {
        if (wave[i].done) continue;
        requests[i] = prober.issue(wave[i].source, wave[i].target);
        outstanding = true;
      }
      if (!outstanding) break;
      for (std::uint64_t round = 0; round < horizon && prober.pending() > 0;
           ++round) {
        net.run_rounds(1);
      }
    }
    for (const ProbePair& pair : wave) {
      if (!pair.done) {
        fail(FuzzOracle::kLookupLiveness, engine.round());
        break;
      }
    }
  }

  if (options.invert) {
    // The hidden test hook: flip the named oracle's aggregate outcome so
    // the shrink + reproduce pipeline can be exercised on a healthy
    // protocol (a genuine violation of a *different* oracle still wins).
    if (violated && oracle == *options.invert) {
      violated = false;
    } else if (!violated) {
      fail(*options.invert, engine.round());
    }
  }

  FuzzVerdict verdict;
  verdict.ok = !violated;
  if (violated) {
    verdict.oracle = oracle;
    verdict.violation_round = violation_round;
  }
  verdict.rounds_run = engine.round();
  verdict.final_phase = net.phase();
  verdict.digest = fold_counters(engine.counters());
  if (c.lookup_rate > 0.0)
    verdict.digest = fold_lookup_totals(verdict.digest, lookup_totals);
  return verdict;
}

FuzzCase shrink_case(const FuzzCase& failing, const FuzzOptions& options,
                     std::size_t* steps_out) {
  if (steps_out != nullptr) *steps_out = 0;
  const FuzzVerdict first = run_case(failing, options);
  if (first.ok) return failing;  // nothing to shrink
  const FuzzOracle target = first.oracle;

  // Candidate simplifications, biggest first.  Each either returns a
  // strictly simpler case or leaves it unchanged (then it is skipped), so
  // the greedy loop terminates: n and the window only halve, dimensions
  // only drop.
  using Transform = void (*)(FuzzCase&);
  static constexpr Transform kTransforms[] = {
      [](FuzzCase& c) { if (c.n > 4) c.n = std::max<std::size_t>(4, c.n / 2); },
      [](FuzzCase& c) { c.scheduler = sim::SchedulerKind::kSynchronous; },
      [](FuzzCase& c) { c.faults.duplicate_probability = 0.0; },
      [](FuzzCase& c) {
        c.faults.delay_probability = 0.0;
        c.faults.max_delay_rounds = 0;
      },
      [](FuzzCase& c) {
        c.faults.replay_probability = 0.0;
        c.faults.replay_history = 0;
      },
      [](FuzzCase& c) { c.message_loss = 0.0; },
      [](FuzzCase& c) {  // drop the crash schedule entirely...
        c.crash_frac = 0.0;
        c.crash_round = 0;
      },
      [](FuzzCase& c) {  // ...or crash earlier (smaller prefix to replay)
        if (c.crash_round > 1) c.crash_round /= 2;
      },
      [](FuzzCase& c) {  // drop the lookup load (and its oracle) entirely
        c.lookup_rate = 0.0;
        c.lookup_ttl = 64;
        c.lookup_timeout = 32;
        c.lookup_retries = 1;
        c.lookup_hedge = 0;
      },
      [](FuzzCase& c) { c.lookup_hedge = 0; },  // ...or just the hedging
      [](FuzzCase& c) {  // drop the partition entirely...
        c.faults.partition_start = 0;
        c.faults.partition_rounds = 0;
        c.faults.partition_pivot = 0.5;
      },
      [](FuzzCase& c) { c.faults.partition_rounds /= 2; },  // ...or bisect it
      [](FuzzCase& c) { c.faults.partition_start /= 2; },
      [](FuzzCase& c) { c.protocol = core::Config{}; },
      [](FuzzCase& c) { c.adversary_delay = 1; },
  };

  FuzzCase current = failing;
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (const Transform transform : kTransforms) {
      FuzzCase candidate = current;
      transform(candidate);
      if (candidate == current) continue;
      const FuzzVerdict verdict = run_case(candidate, options);
      if (verdict.ok || verdict.oracle != target) continue;
      current = candidate;
      if (steps_out != nullptr) ++*steps_out;
      progressed = true;
      break;  // restart from the biggest simplification
    }
  }
  return current;
}

// --- JSON ------------------------------------------------------------------
//
// One flat object per reproducer, every field explicit, doubles in
// shortest-round-trip form — the same philosophy as the obs JSONL schema:
// readable anywhere, parsed back bit-identically by util::parse_json.

namespace {

std::optional<core::Phase> phase_from_string(const std::string& name) {
  for (const core::Phase phase : kAllPhases)
    if (name == core::to_string(phase)) return phase;
  return std::nullopt;
}

}  // namespace

std::string to_json(const FuzzRepro& repro) {
  std::string out = "{";
  const auto key = [&out](const char* name) {
    if (out.size() > 1) out += ",";
    util::append_json_string(out, name);
    out += ":";
  };
  const auto str = [&out, &key](const char* name, const char* value) {
    key(name);
    util::append_json_string(out, value);
  };
  const auto num = [&out, &key](const char* name, auto value) {
    key(name);
    util::append_json_number(out, value);
  };
  const auto boolean = [&out, &key](const char* name, bool value) {
    key(name);
    out += value ? "true" : "false";
  };

  const FuzzCase& c = repro.c;
  num("n", c.n);
  str("shape", topology::to_string(c.shape));
  str("scheduler", sim::to_string(c.scheduler));
  num("seed", c.seed);
  num("duplicate_probability", c.faults.duplicate_probability);
  num("delay_probability", c.faults.delay_probability);
  num("max_delay_rounds", c.faults.max_delay_rounds);
  num("partition_start", c.faults.partition_start);
  num("partition_rounds", c.faults.partition_rounds);
  num("partition_pivot", c.faults.partition_pivot);
  num("replay_probability", c.faults.replay_probability);
  num("replay_history", c.faults.replay_history);
  num("adversary_delay", c.adversary_delay);
  num("epsilon", c.protocol.epsilon);
  num("probe_interval", c.protocol.probe_interval);
  boolean("lrl_shortcut", c.protocol.lrl_shortcut);
  boolean("probing_enabled", c.protocol.probing_enabled);
  boolean("move_and_forget_enabled", c.protocol.move_and_forget_enabled);
  num("lrl_count", c.protocol.lrl_count);
  num("message_loss", c.message_loss);
  num("crash_frac", c.crash_frac);
  num("crash_round", c.crash_round);
  num("lookup_rate", c.lookup_rate);
  num("lookup_ttl", c.lookup_ttl);
  num("lookup_timeout", c.lookup_timeout);
  num("lookup_retries", c.lookup_retries);
  num("lookup_hedge", c.lookup_hedge);
  boolean("detector_enabled", c.protocol.detector.enabled);
  num("probe_period", c.protocol.detector.probe_period);
  num("suspect_threshold", c.protocol.detector.suspect_threshold);
  num("detector_max_retries", c.protocol.detector.max_retries);
  num("quarantine_rounds", c.protocol.detector.quarantine_rounds);
  num("quarantine_capacity", c.protocol.detector.quarantine_capacity);
  if (repro.options.invert) str("invert", to_string(*repro.options.invert));
  boolean("expect_ok", repro.expected.ok);
  if (!repro.expected.ok) {
    str("expect_oracle", to_string(repro.expected.oracle));
    num("expect_violation_round", repro.expected.violation_round);
  }
  num("expect_rounds_run", repro.expected.rounds_run);
  str("expect_phase", core::to_string(repro.expected.final_phase));
  num("expect_digest", repro.expected.digest);
  out += "}";
  return out;
}

std::optional<FuzzRepro> parse_repro(const std::string& json) {
  const auto doc = util::parse_json(json);
  if (!doc || doc->kind() != util::JsonValue::Kind::kObject) return std::nullopt;

  FuzzRepro repro;
  FuzzCase& c = repro.c;
  bool saw_ok = false;
  for (std::size_t i = 0; i < doc->keys().size(); ++i) {
    const std::string& k = doc->keys()[i];
    const util::JsonValue& v = doc->items()[i];
    // Each reader stores v into a field of its own type, or reports a
    // mistyped or out-of-range value.
    const auto num = [&v](auto& field) {
      const auto value = v.number<std::remove_reference_t<decltype(field)>>();
      if (value) field = *value;
      return value.has_value();
    };
    const auto flag = [&v](bool& field) {
      const auto value = v.boolean();
      if (value) field = *value;
      return value.has_value();
    };
    const auto named = [&v](auto from_string, auto& field) {
      const auto text = v.string();
      if (!text) return false;
      const auto value = from_string(std::string(*text));
      if (value) field = *value;
      return value.has_value();
    };

    bool ok = false;
    if (k == "n") ok = num(c.n);
    else if (k == "shape") ok = named(topology::shape_from_string, c.shape);
    else if (k == "scheduler") ok = named(sim::scheduler_from_string, c.scheduler);
    else if (k == "seed") ok = num(c.seed);
    else if (k == "duplicate_probability") ok = num(c.faults.duplicate_probability);
    else if (k == "delay_probability") ok = num(c.faults.delay_probability);
    else if (k == "max_delay_rounds") ok = num(c.faults.max_delay_rounds);
    else if (k == "partition_start") ok = num(c.faults.partition_start);
    else if (k == "partition_rounds") ok = num(c.faults.partition_rounds);
    else if (k == "partition_pivot") ok = num(c.faults.partition_pivot);
    else if (k == "replay_probability") ok = num(c.faults.replay_probability);
    else if (k == "replay_history") ok = num(c.faults.replay_history);
    else if (k == "adversary_delay") ok = num(c.adversary_delay);
    else if (k == "epsilon") ok = num(c.protocol.epsilon);
    else if (k == "probe_interval") ok = num(c.protocol.probe_interval);
    else if (k == "lrl_shortcut") ok = flag(c.protocol.lrl_shortcut);
    else if (k == "probing_enabled") ok = flag(c.protocol.probing_enabled);
    else if (k == "move_and_forget_enabled")
      ok = flag(c.protocol.move_and_forget_enabled);
    else if (k == "lrl_count") ok = num(c.protocol.lrl_count);
    else if (k == "message_loss") ok = num(c.message_loss);
    else if (k == "crash_frac") ok = num(c.crash_frac);
    else if (k == "crash_round") ok = num(c.crash_round);
    else if (k == "lookup_rate") ok = num(c.lookup_rate);
    else if (k == "lookup_ttl") ok = num(c.lookup_ttl);
    else if (k == "lookup_timeout") ok = num(c.lookup_timeout);
    else if (k == "lookup_retries") ok = num(c.lookup_retries);
    else if (k == "lookup_hedge") ok = num(c.lookup_hedge);
    else if (k == "detector_enabled") ok = flag(c.protocol.detector.enabled);
    else if (k == "probe_period") ok = num(c.protocol.detector.probe_period);
    else if (k == "suspect_threshold") ok = num(c.protocol.detector.suspect_threshold);
    else if (k == "detector_max_retries") ok = num(c.protocol.detector.max_retries);
    else if (k == "quarantine_rounds") ok = num(c.protocol.detector.quarantine_rounds);
    else if (k == "quarantine_capacity")
      ok = num(c.protocol.detector.quarantine_capacity);
    else if (k == "invert") ok = named(oracle_from_string, repro.options.invert);
    else if (k == "expect_ok") { ok = flag(repro.expected.ok); saw_ok = ok; }
    else if (k == "expect_oracle") ok = named(oracle_from_string, repro.expected.oracle);
    else if (k == "expect_violation_round") ok = num(repro.expected.violation_round);
    else if (k == "expect_rounds_run") ok = num(repro.expected.rounds_run);
    else if (k == "expect_phase") ok = named(phase_from_string, repro.expected.final_phase);
    else if (k == "expect_digest") ok = num(repro.expected.digest);
    if (!ok) return std::nullopt;  // strict: no unknown keys or mistyped values
  }
  // A plan the engine would abort on is no reproducer either.
  if (!saw_ok || c.n < 4 || !c.faults.check().empty()) return std::nullopt;
  return repro;
}

std::string replay_cli(const std::string& path) {
  return "sssw_fuzz --replay " + path;
}

}  // namespace sssw::analysis
