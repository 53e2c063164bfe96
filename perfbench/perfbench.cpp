// perfbench.cpp — the repo's end-to-end benchmark (see README.md here).
//
//   sssw_perfbench --workload heal|serve|crash --seed N
//                  --seconds S --trace 0|1 [--trace-out FILE] [--git-sha SHA]
//   sssw_perfbench --workload W --seed N --smoke
//
// A workload is a repeated *unit*: build the starting state (set-up), run
// the measured section, then check the outcome outside the timed window.
// Unit i runs on a seed derived from (--seed, i), and the unit count is a
// function of --seconds alone, so one (seed, seconds) pair always measures
// the same inputs and prints the same determinism digest.  End-to-end
// metrics are medians over the units.  The last stdout line is the JSON
// result; provenance, unit and digest lines precede it.
//
// Tracing (--trace 1) records spans only from this file, around the calls
// into each layer: `setup` (children core.build, core.burn_in), `run` (one
// `round` per Engine::run_round, one core.crash per crash call), and inside
// each round the obs.hook and service.hook spans, bracketed by round hooks
// registered just before and after the hook under test (engine round hooks
// fire in registration order).  A traced unit follows an untraced one on
// the same seed; their digests must match, and their run times give
// trace.overhead.  A traced heal run also runs that seed on worker lanes.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/invariants.hpp"
#include "core/messages.hpp"
#include "core/network.hpp"
#include "obs/registry.hpp"
#include "service/lookup_manager.hpp"
#include "service/slo.hpp"
#include "util/rng.hpp"

#ifndef SSSW_PERFBENCH_BUILD_TYPE
#define SSSW_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SSSW_PERFBENCH_COMPILER
#define SSSW_PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace sssw;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  std::size_t n = 0;
  /// A run makes max(min_units, round(seconds / unit_seconds)) units, where
  /// unit_seconds is one unit's wall time on the reference host (README).
  std::size_t min_units = 1;
  double unit_seconds = 0;
  // heal: knock every l/r up to `knock` ranks off, then run until the
  // sorted list holds (at most `budget` rounds).
  bool heal = false;
  std::size_t knock = 64;
  std::size_t budget = 4000;
  // serve / crash: E15's deployment, burned in for 2n rounds, then an open
  // loop of `slo.lookup.rate` lookups per round.
  std::size_t window = 0;  ///< serve: measured open-loop rounds
  bool crash = false;      ///< crash: measure_slo's trial, step by step
  service::SloOptions slo{};
};

/// Worker lanes for a traced heal run's lane unit: half of a 4-vCPU host,
/// never more than the host has.
std::size_t lane_target() {
  const unsigned cpus = std::thread::hardware_concurrency();
  return std::min<std::size_t>(2, cpus == 0 ? 1 : cpus);
}

/// Sets NetworkOptions::shards when the option exists; a tree without the
/// sharded lanes still compiles this file and runs every unit on one lane.
/// Returns the lane count the network will use.
template <typename Options>
std::size_t set_lanes(Options& options, std::size_t lanes) {
  if constexpr (requires { options.shards = lanes; }) {
    options.shards = lanes;
    return lanes;
  } else {
    return 1;
  }
}

/// E15's deployment (bench_service.cpp): k = 8 long-range links, active
/// detector, ttl 512, timeout 192 rounds, 2 retries.
service::SloOptions e15(double rate) {
  service::SloOptions slo;
  slo.n = 512;
  slo.trials = 1;
  slo.crash_frac = 0.1;
  slo.detector = true;
  slo.warm_rounds = 256;
  // Recovery lands near round 600 (three 192-round attempts); 768 rounds
  // contain it and confirm it for 170 more.
  slo.post_rounds = 768;
  slo.recovery_window = 64;
  slo.protocol.lrl_count = 8;
  slo.protocol.detector.enabled = true;
  slo.lookup.rate = rate;
  slo.lookup.ttl = 512;
  slo.lookup.timeout_rounds = 192;
  slo.lookup.max_retries = 2;
  return slo;
}

std::optional<Workload> find_workload(std::string_view name) {
  Workload w;
  w.name = std::string(name);
  if (name == "heal") {
    w.heal = true;
    w.n = 100000;
    w.min_units = 3;  // the round count varies by seed: take a median
    w.unit_seconds = 10;
  } else if (name == "serve") {
    w.slo = e15(256.0);
    w.n = w.slo.n;
    w.window = 512;
    w.min_units = 3;  // set-up is a 1024-round burn-in: take a median
    w.unit_seconds = 14;
  } else if (name == "crash") {
    w.slo = e15(16.0);
    w.n = w.slo.n;
    w.crash = true;
    w.min_units = 3;  // a few seeds in ten recover late: take a median
    w.unit_seconds = 14;
  } else {
    return std::nullopt;
  }
  return w;
}

/// Unit i's seed: --seed itself for unit 0, then a golden-ratio stride.
std::uint64_t unit_seed(std::uint64_t seed, std::size_t i) {
  return seed + 0x9e3779b97f4a7c15ull * i;
}

std::size_t unit_count(const Workload& w, double seconds) {
  return std::max(w.min_units, static_cast<std::size_t>(std::lround(seconds / w.unit_seconds)));
}

// --- tracing -----------------------------------------------------------------

struct Span {
  const char* name;
  int parent;  ///< index into the span list, -1 for a root
  double start_s;
  double end_s;
};

/// In-memory span recorder; a disabled tracer records nothing.  Spans nest:
/// close() ends the innermost open one.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const noexcept { return on_; }

  void open(const char* name) {
    if (!on_) return;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, parent, now(), -1.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  void close() {
    if (!on_) return;
    spans_[static_cast<std::size_t>(stack_.back())].end_s = now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }

  bool on_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name) : tracer_(tracer) { tracer_.open(name); }
  ~Scope() { tracer_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
};

/// Runs `attach`, which registers one engine round hook; on a traced unit
/// the hook is bracketed by two more that open and close a span `name`.
template <typename Attach>
void bracket_hooks(Tracer& tracer, sim::Engine& engine, const char* name,
                   Attach&& attach) {
  if (!tracer.on()) {
    attach();
    return;
  }
  engine.add_round_hook([&tracer, name](std::uint64_t) { tracer.open(name); });
  attach();
  engine.add_round_hook([&tracer](std::uint64_t) { tracer.close(); });
}

// --- one unit ------------------------------------------------------------------

struct UnitResult {
  bool ok = true;
  std::string why;  ///< first failed outcome check
  std::uint64_t seed = 0;
  std::size_t lanes = 1;
  bool traced = false;
  double setup_s = 0, run_s = 0, cpu_s = 0;
  std::uint64_t rounds = 0;   ///< rounds in the measured section
  double node_rounds = 0;     ///< live nodes summed over those rounds
  sim::EngineCounters delta;  ///< engine counters over the measured section
  service::LookupManager::Totals totals;
  std::vector<double> latency, hops;  ///< successful lookups
  double recovery_rounds = -1.0;
  std::uint64_t digest = 0;
  // Traced units only.
  std::size_t pending_hwm = 0, service_pending_hwm = 0;
  std::map<std::string, double> registry_counts;

  void fail(std::string reason) {
    if (ok) why = std::move(reason);
    ok = false;
  }
};

sim::EngineCounters diff(const sim::EngineCounters& a, const sim::EngineCounters& b) {
  sim::EngineCounters d;
  d.rounds = b.rounds - a.rounds;
  d.actions = b.actions - a.actions;
  d.deliveries = b.deliveries - a.deliveries;
  d.dropped = b.dropped - a.dropped;
  d.lost = b.lost - a.lost;
  d.timers = b.timers - a.timers;
  for (std::size_t t = 0; t < d.sent_by_type.size(); ++t)
    d.sent_by_type[t] = b.sent_by_type[t] - a.sent_by_type[t];
  return d;
}

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// FNV-1a over the engine counters and the lookup Totals at a unit's end.
std::uint64_t digest_of(const sim::EngineCounters& c,
                        const service::LookupManager::Totals& t) {
  Fnv1a h;
  for (const std::uint64_t v : {c.rounds, c.actions, c.deliveries, c.dropped, c.lost, c.timers})
    h.add(v);
  for (const std::uint64_t v : c.sent_by_type) h.add(v);
  for (const std::uint64_t v :
       {t.issued, t.attempts, t.retries, t.hedges, t.succeeded, t.failed, t.stale,
        t.deadletter_timeout, t.deadletter_no_progress, t.deadletter_target_dead,
        t.deadletter_ttl, t.hop_sum, t.latency_sum})
    h.add(v);
  return h.value();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// BM_Engine_MillionNodeRecovery's starting state: a stable ring whose every
/// l/r is then moved up to `knock` ranks off, drawn from the same stream.
core::SmallWorldNetwork knocked_ring(std::size_t n, std::size_t knock, std::uint64_t seed,
                                     core::NetworkOptions options, Tracer& tr) {
  util::Rng rng(seed);
  options.seed = seed;
  core::SmallWorldNetwork net = [&] {
    Scope build(tr, "core.build");
    return core::make_stable_ring(core::random_ids(n, rng), options);
  }();
  const auto span = net.engine().id_span();
  const std::vector<sim::Id> ids(span.begin(), span.end());
  for (std::size_t rank = 0; rank < n; ++rank) {
    core::SmallWorldNode* node = net.node(ids[rank]);
    const std::size_t lspan = std::min(rank, knock);
    const std::size_t rspan = std::min(n - rank - 1, knock);
    if (lspan > 0) node->set_l(ids[rank - 1 - rng.below(lspan)]);
    if (rspan > 0) node->set_r(ids[rank + 1 + rng.below(rspan)]);
  }
  return net;
}

UnitResult run_heal(const Workload& w, std::uint64_t seed, std::size_t lanes, Tracer& tr) {
  UnitResult u;
  core::NetworkOptions options;
  u.lanes = set_lanes(options, lanes);
  const Clock::time_point t0 = Clock::now();
  tr.open("setup");
  core::SmallWorldNetwork net = knocked_ring(w.n, w.knock, seed, options, tr);
  tr.close();
  const Clock::time_point t1 = Clock::now();

  sim::Engine& engine = net.engine();
  const sim::EngineCounters before = engine.counters();
  const double cpu0 = cpu_seconds();
  tr.open("run");
  while (!net.sorted_list() && u.rounds < w.budget) {
    {
      Scope round(tr, "round");
      engine.run_round();
    }
    ++u.rounds;
    u.node_rounds += static_cast<double>(engine.process_count());
    if (tr.on()) u.pending_hwm = std::max(u.pending_hwm, engine.pending_messages());
  }
  tr.close();
  const Clock::time_point t2 = Clock::now();
  u.cpu_s = cpu_seconds() - cpu0;
  u.setup_s = seconds_between(t0, t1);
  u.run_s = seconds_between(t1, t2);
  u.delta = diff(before, engine.counters());
  u.digest = digest_of(engine.counters(), u.totals);

  if (!net.sorted_list()) u.fail("sorted list not reached within the round budget");
  net.tracker().verify_against(engine);  // aborts on a tracker/oracle mismatch
  if (!core::is_sorted_list(engine)) u.fail("recompute oracle: not a sorted list");
  return u;
}

/// measure_slo's recovery rule over (round relative to the crash, ok)
/// completions: the earliest r >= 0 from which every trailing `window` of
/// completions meets `target`, or -1.
std::int64_t recovery_round(const std::vector<std::pair<std::int64_t, bool>>& samples,
                            std::int64_t horizon, std::int64_t window, double target) {
  if (horizon <= 0) return -1;
  std::vector<std::uint32_t> completed(static_cast<std::size_t>(horizon), 0);
  std::vector<std::uint32_t> succeeded(static_cast<std::size_t>(horizon), 0);
  for (const auto& [rel, ok] : samples) {
    if (rel < 0 || rel >= horizon) continue;
    ++completed[static_cast<std::size_t>(rel)];
    if (ok) ++succeeded[static_cast<std::size_t>(rel)];
  }
  std::uint64_t win_completed = 0, win_succeeded = 0, suffix_completed = 0;
  std::int64_t earliest = -1;
  for (std::int64_t r = horizon - 1; r >= 0; --r) {
    const auto ri = static_cast<std::size_t>(r);
    win_completed += completed[ri];
    win_succeeded += succeeded[ri];
    suffix_completed += completed[ri];
    if (r + window < horizon) {
      win_completed -= completed[static_cast<std::size_t>(r + window)];
      win_succeeded -= succeeded[static_cast<std::size_t>(r + window)];
    }
    const bool meets = win_completed == 0 || static_cast<double>(win_succeeded) >=
                                                 target * static_cast<double>(win_completed);
    if (!meets) {
      suffix_completed -= completed[ri];
      break;
    }
    earliest = r;
  }
  return suffix_completed > 0 ? earliest : -1;
}

/// One serve or crash unit.  crash repeats service::measure_slo's trial step
/// by step (same seeds, registry, victim pick and windows), so its recovery
/// round and Totals must equal measure_slo's; serve is the same deployment
/// without the registry or the crash, under a heavier open loop.
UnitResult run_lookups(const Workload& w, std::uint64_t seed, Tracer& tr) {
  UnitResult u;
  const service::SloOptions& slo = w.slo;
  const Clock::time_point t0 = Clock::now();
  tr.open("setup");
  util::Rng rng(seed);
  core::NetworkOptions options;
  options.seed = seed;
  options.protocol = slo.protocol;
  core::SmallWorldNetwork net = [&] {
    Scope build(tr, "core.build");
    return core::make_stable_ring(core::random_ids(w.n, rng), options);
  }();
  sim::Engine& engine = net.engine();
  obs::Registry registry;
  if (w.crash) bracket_hooks(tr, engine, "obs.hook", [&] { net.attach_metrics(registry); });
  {
    Scope burn(tr, "core.burn_in");
    net.run_rounds(2 * w.n);
  }
  tr.close();
  const Clock::time_point t1 = Clock::now();

  const sim::EngineCounters before = engine.counters();
  const double cpu0 = cpu_seconds();
  tr.open("run");
  service::LookupConfig lookup = slo.lookup;
  lookup.seed = seed ^ slo.lookup.seed;
  std::optional<service::LookupManager> manager;
  bracket_hooks(tr, engine, "service.hook", [&] { manager.emplace(net, lookup); });
  if (w.crash) manager->attach_metrics(registry);
  std::vector<std::pair<std::int64_t, bool>> completions;  // crash: (round, ok)
  manager->set_completion_hook([&](const service::LookupCompletion& c) {
    if (w.crash) completions.emplace_back(static_cast<std::int64_t>(c.round), c.ok);
    if (c.ok) {
      u.latency.push_back(static_cast<double>(c.latency_rounds));
      u.hops.push_back(static_cast<double>(c.hops));
    }
  });
  const auto step = [&] {
    {
      Scope round(tr, "round");
      engine.run_round();
    }
    ++u.rounds;
    u.node_rounds += static_cast<double>(engine.process_count());
    if (tr.on()) {
      u.pending_hwm = std::max(u.pending_hwm, engine.pending_messages());
      u.service_pending_hwm = std::max(u.service_pending_hwm, manager->pending());
    }
  };

  std::int64_t crash_round = 0;
  const std::size_t post_rounds =
      slo.post_rounds > 0 ? slo.post_rounds
                          : 3 * static_cast<std::size_t>(service::slo_detection_window(slo));
  if (w.crash) {
    for (std::size_t r = 0; r < slo.warm_rounds; ++r) step();
    std::vector<sim::Id> victims(engine.id_span().begin(), engine.id_span().end());
    std::size_t count =
        static_cast<std::size_t>(slo.crash_frac * static_cast<double>(victims.size()));
    count = std::min(std::max<std::size_t>(count, 1), victims.size() - 2);
    util::Rng pick(seed ^ 0x9e3779b97f4a7c15ull);
    for (std::size_t i = 0; i < count; ++i)
      std::swap(victims[i], victims[i + pick.below(victims.size() - i)]);
    victims.resize(count);
    crash_round = static_cast<std::int64_t>(engine.round());
    for (const sim::Id victim : victims) {
      Scope crash(tr, "core.crash");
      if (!net.crash(victim)) u.fail("crash() refused a live victim");
    }
    for (std::size_t r = 0; r < post_rounds; ++r) step();
  } else {
    for (std::size_t r = 0; r < w.window; ++r) step();
  }
  tr.close();
  const Clock::time_point t2 = Clock::now();
  u.cpu_s = cpu_seconds() - cpu0;
  u.setup_s = seconds_between(t0, t1);
  u.run_s = seconds_between(t1, t2);
  u.delta = diff(before, engine.counters());
  u.totals = manager->totals();
  u.digest = digest_of(engine.counters(), u.totals);

  const service::LookupManager::Totals& t = u.totals;
  if (t.issued != t.succeeded + t.failed + manager->pending())
    u.fail("issued != succeeded + failed + pending");
  if (t.succeeded == 0) u.fail("no lookup succeeded");
  if (w.crash) {
    for (auto& c : completions) c.first -= crash_round;
    u.recovery_rounds = static_cast<double>(recovery_round(
        completions, static_cast<std::int64_t>(post_rounds),
        static_cast<std::int64_t>(slo.recovery_window), slo.slo_target));
    if (tr.on()) {
      for (const char* name : {"node.detector.suspects", "node.detector.evictions",
                               "node.detector.rescues", "node.detector.quarantine.hits"}) {
        const obs::Counter* c = registry.find_counter(name);
        u.registry_counts[name] = c != nullptr ? static_cast<double>(c->value()) : 0.0;
      }
    }
  }
  manager.reset();  // deregisters its hook while the network is alive
  return u;
}

UnitResult run_unit(const Workload& w, std::uint64_t seed, std::size_t lanes, Tracer& tr) {
  UnitResult u = w.heal ? run_heal(w, seed, lanes, tr) : run_lookups(w, seed, tr);
  u.seed = seed;
  u.traced = tr.on();
  std::printf("unit seed=%llu lanes=%zu traced=%d ok=%d setup_s=%.4f run_s=%.4f rounds=%llu "
              "digest=%016llx%s%s\n",
              static_cast<unsigned long long>(seed), u.lanes, u.traced ? 1 : 0, u.ok ? 1 : 0,
              u.setup_s, u.run_s, static_cast<unsigned long long>(u.rounds),
              static_cast<unsigned long long>(u.digest), u.ok ? "" : " failed: ",
              u.why.c_str());
  std::fflush(stdout);
  return u;
}

// --- statistics -----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of continuous samples (span durations); 0 when
/// there are none.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto idx = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  idx = idx > 0 ? idx - 1 : 0;
  return v[std::min(idx, v.size() - 1)];
}

/// Percentile of whole-number samples (rounds, hops), interpolated inside
/// the unit-width bin [k - 0.5, k + 0.5) that holds it: the grouped-data
/// rule.  A nearest-rank percentile of such data jumps a whole round when a
/// few samples cross a bin edge; this one moves with the distribution.
double binned_percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double target = q * static_cast<double>(v.size());
  const double k = v[std::min(static_cast<std::size_t>(target), v.size() - 1)];
  const auto first = static_cast<double>(std::lower_bound(v.begin(), v.end(), k) - v.begin());
  const auto last = static_cast<double>(std::upper_bound(v.begin(), v.end(), k) - v.begin());
  return k - 0.5 + (target - first) / (last - first);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- reporting ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_result(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << fmt(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double msgs_per_node_round(const UnitResult& u) {
  return ratio(static_cast<double>(u.delta.total_sent()), u.node_rounds);
}

double success(const Workload& w, const UnitResult& u) {
  if (w.heal) return u.ok ? 1.0 : 0.0;
  return ratio(static_cast<double>(u.totals.succeeded),
               static_cast<double>(u.totals.succeeded + u.totals.failed));
}

/// Rounds the workload waits for its outcome: heal from the knock until the
/// sorted list holds, crash from the crash until E15's recovery rule holds.
/// serve waits for none and reports its fixed open-loop window.  A crash
/// trial that has not recovered when its window ends (some seeds, whose last
/// retries expire late) counts the whole window.
double outcome_rounds(const Workload& w, const UnitResult& u) {
  if (!w.crash) return static_cast<double>(u.rounds);
  return u.recovery_rounds >= 0 ? u.recovery_rounds : static_cast<double>(w.slo.post_rounds);
}

/// End-to-end metrics (README "End-to-end metrics"): medians over units.
/// Every workload prints every one of them.
std::vector<Metric> end_to_end(const Workload& w, const std::vector<UnitResult>& units) {
  const auto over_units = [&](auto&& f) {
    std::vector<double> v;
    for (const UnitResult& u : units) v.push_back(f(u));
    return median(v);
  };
  return {
      {"setup_s", over_units([](const UnitResult& u) { return u.setup_s; }), "s"},
      {"run_s", over_units([](const UnitResult& u) { return u.run_s; }), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"rounds", over_units([&](const UnitResult& u) { return outcome_rounds(w, u); }), "rounds"},
      {"msgs_per_node_round", over_units(msgs_per_node_round), "count"},
      {"success", over_units([&](const UnitResult& u) { return success(w, u); }), "fraction"},
  };
}

/// Each span's self time: its duration minus its children's.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_s - spans[i].start_s;
  for (const Span& span : spans)
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.end_s - span.start_s;
  return self;
}

/// Span durations grouped by name, and the round spans' total self time.
struct SpanStats {
  std::map<std::string, std::vector<double>> durations;  ///< seconds
  double round_self_s = 0;
};

SpanStats span_stats(const Tracer& tr) {
  SpanStats s;
  const auto& spans = tr.spans();
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    s.durations[spans[i].name].push_back(spans[i].end_s - spans[i].start_s);
    if (std::string_view(spans[i].name) == "round") s.round_self_s += self[i];
  }
  return s;
}

double sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

/// Per-layer metrics (README "Per-layer metrics") from a traced run: counts
/// from the first traced unit, times from every traced unit's spans, and
/// ratios of wall time from the untraced units.  A metric of a layer the
/// workload does not exercise reads 0.
std::vector<Metric> per_layer(const Workload& w, const std::vector<UnitResult>& plain,
                              const std::vector<UnitResult>& traced,
                              const std::optional<UnitResult>& laned, const Tracer& tr) {
  const UnitResult& u = traced.front();
  const SpanStats s = span_stats(tr);
  const auto spans_of = [&](const char* name) {
    const auto it = s.durations.find(name);
    return it == s.durations.end() ? std::vector<double>{} : it->second;
  };
  const std::vector<double> rounds = spans_of("round");
  // A hook span per round; crash's obs.hook also fires during the burn-in.
  const std::vector<double> obs_hook = spans_of("obs.hook");
  const std::vector<double> service_hook = spans_of("service.hook");
  std::vector<double> crash_us = spans_of("core.crash");
  for (double& d : crash_us) d *= 1e6;
  double traced_actions = 0;
  for (const UnitResult& t : traced) traced_actions += static_cast<double>(t.delta.actions);

  std::vector<double> plain_run, traced_run, cpu_util;
  for (const UnitResult& p : plain) {
    plain_run.push_back(p.run_s);
    cpu_util.push_back(ratio(p.cpu_s, p.run_s));
  }
  for (const UnitResult& t : traced) traced_run.push_back(t.run_s);
  const double lane_speedup = laned ? ratio(plain.front().run_s, laned->run_s) : 1.0;

  std::vector<Metric> m = {
      {"sim.round_ms_p50", 1e3 * percentile(rounds, 0.50), "ms"},
      {"sim.round_ms_p99", 1e3 * percentile(rounds, 0.99), "ms"},
      {"sim.round_ms_max", 1e3 * percentile(rounds, 1.0), "ms"},
      {"sim.actions", static_cast<double>(u.delta.actions), "count"},
      {"sim.deliveries", static_cast<double>(u.delta.deliveries), "count"},
      {"sim.actions_per_busy_s", ratio(traced_actions, s.round_self_s), "1/s"},
      {"sim.pending_hwm", static_cast<double>(u.pending_hwm), "count"},
      {"sim.timers_fired", static_cast<double>(u.delta.timers), "count"},
      {"sim.dropped", static_cast<double>(u.delta.dropped), "count"},
      {"sim.cpu_util", laned ? ratio(laned->cpu_s, laned->run_s) : median(cpu_util), "ratio"},
      {"sim.lane_speedup", lane_speedup, "ratio"},
  };
  for (sim::MessageType type = 0; type < core::kNumMsgTypes; ++type) {
    m.push_back({std::string("core.sent_per_node_round.") + core::msg_type_name(type),
                 ratio(static_cast<double>(u.delta.sent_by_type[type]), u.node_rounds),
                 "count"});
  }
  const auto registry_count = [&](const char* name) {
    const auto it = u.registry_counts.find(name);
    return it == u.registry_counts.end() ? 0.0 : it->second;
  };
  const service::LookupManager::Totals& t = u.totals;
  const double lookup_sends =
      static_cast<double>(u.delta.sent_by_type[core::kLookup] +
                          u.delta.sent_by_type[core::kLookupHit] +
                          u.delta.sent_by_type[core::kLookupMiss]);
  const std::vector<Metric> rest = {
      {"core.build_s", median(spans_of("core.build")), "s"},
      {"core.burn_in_s", median(spans_of("core.burn_in")), "s"},
      {"core.bytes_per_node", peak_rss_mb() * 1024.0 * 1024.0 / static_cast<double>(w.n), "B"},
      {"core.crash_call_us_p50", percentile(crash_us, 0.50), "us"},
      {"core.crash_call_us_max", percentile(crash_us, 1.0), "us"},
      {"core.detector.suspects", registry_count("node.detector.suspects"), "count"},
      {"core.detector.evictions", registry_count("node.detector.evictions"), "count"},
      {"core.detector.rescues", registry_count("node.detector.rescues"), "count"},
      {"core.detector.quarantine", registry_count("node.detector.quarantine.hits"), "count"},
      {"service.hook_ms_per_round", 1e3 * mean(service_hook), "ms"},
      {"service.hook_share", ratio(sum(service_hook), sum(rounds)), "fraction"},
      {"service.msg_share", ratio(lookup_sends, static_cast<double>(u.delta.total_sent())),
       "fraction"},
      {"service.pending_hwm", static_cast<double>(u.service_pending_hwm), "count"},
      {"service.attempts_per_issued",
       ratio(static_cast<double>(t.attempts), static_cast<double>(t.issued)), "ratio"},
      {"service.retries", static_cast<double>(t.retries), "count"},
      {"service.stale", static_cast<double>(t.stale), "count"},
      {"service.deadletter.timeout", static_cast<double>(t.deadletter_timeout), "count"},
      {"service.deadletter.no_progress", static_cast<double>(t.deadletter_no_progress),
       "count"},
      {"service.deadletter.target_dead", static_cast<double>(t.deadletter_target_dead),
       "count"},
      {"service.deadletter.ttl", static_cast<double>(t.deadletter_ttl), "count"},
      {"service.lookup_p50_rounds", binned_percentile(u.latency, 0.50), "rounds"},
      {"service.lookup_p99_rounds", binned_percentile(u.latency, 0.99), "rounds"},
      {"service.lookup_p999_rounds", binned_percentile(u.latency, 0.999), "rounds"},
      {"routing.hops_p50", binned_percentile(u.hops, 0.50), "hops"},
      {"routing.hops_p99", binned_percentile(u.hops, 0.99), "hops"},
      {"obs.hook_ms_per_round", 1e3 * mean(obs_hook), "ms"},
      {"trace.overhead", ratio(median(traced_run), median(plain_run)) - 1.0, "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

// --- provenance and trace output ----------------------------------------------------

std::string read_first_match(const char* path, std::string_view key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(" \t"));
        return v;
      }
    }
  }
  return "";
}

std::string read_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Host and build facts every result carries (README "Provenance").
std::string provenance(const std::string& git_sha) {
  namespace fs = std::filesystem;
  const std::string mhz = read_first_match("/proc/cpuinfo", "cpu MHz");
  const std::string l2 = read_line("/sys/devices/system/cpu/cpu0/cache/index2/size");
  const std::string l3 = read_line("/sys/devices/system/cpu/cpu0/cache/index3/size");
  const std::string model = read_first_match("/proc/cpuinfo", "model name");
  std::error_code ec;
  const bool pmu = fs::exists("/sys/bus/event_source/devices/cpu", ec) ||
                   fs::exists("/sys/bus/event_source/devices/cpu_core", ec);
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu_mhz\": \"" << mhz
      << "\", \"cpu_model\": \"" << model << "\", \"l2\": \"" << l2 << "\", \"l3\": \"" << l3
      << "\", \"pmu\": " << (pmu ? "true" : "false") << ", \"build_type\": \""
      << SSSW_PERFBENCH_BUILD_TYPE << "\", \"compiler\": \"" << SSSW_PERFBENCH_COMPILER
      << "\", \"git_sha\": \"" << git_sha << "\"}";
  return out.str();
}

/// Writes every span (ms since the tracer started) and the run's context.
bool write_trace(const std::string& path, const std::string& prov, const Workload& w,
                 std::uint64_t seed, const Tracer& tr) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"provenance\": " << prov << ", \"workload\": \"" << w.name
      << "\", \"seed\": " << seed << ",\n \"spans\": [";
  const auto& spans = tr.spans();
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out << (i > 0 ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \"" << spans[i].name
        << "\", \"parent\": " << spans[i].parent
        << ", \"start_ms\": " << fmt(1e3 * spans[i].start_s)
        << ", \"dur_ms\": " << fmt(1e3 * (spans[i].end_s - spans[i].start_s))
        << ", \"self_ms\": " << fmt(1e3 * self[i]) << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- smoke mode -------------------------------------------------------------------

bool check(bool ok, const std::string& what) {
  std::printf("smoke %s: %s\n", what.c_str(), ok ? "ok" : "FAILED");
  std::fflush(stdout);
  return ok;
}

/// Runs one unit untraced and traced on the same seed and compares both
/// with the code the workload reproduces.
bool smoke(const Workload& w, std::uint64_t seed) {
  Tracer off(false), on(true);
  const UnitResult plain = run_unit(w, seed, 1, off);
  const UnitResult traced = run_unit(w, seed, 1, on);
  bool ok = check(plain.ok && traced.ok, w.name + " outcome checks");
  ok &= check(plain.digest == traced.digest, w.name + " traced digest == untraced digest");
  if (w.heal) {
    const UnitResult laned = run_unit(w, seed, lane_target(), off);
    ok &= check(laned.ok && laned.digest == plain.digest,
                w.name + " digest on " + std::to_string(laned.lanes) + " lanes == on one");
    // BM_Engine_MillionNodeRecovery: the same start, run_until_sorted_list.
    core::NetworkOptions options;
    core::SmallWorldNetwork net = knocked_ring(w.n, w.knock, seed, options, off);
    const auto rounds = net.run_until_sorted_list(w.budget);
    ok &= check(rounds.has_value() && *rounds == plain.rounds,
                w.name + " rounds == BM_Engine_MillionNodeRecovery recipe rounds");
  }
  if (w.crash) {
    service::SloOptions slo = w.slo;
    slo.base_seed = seed;
    const service::SloResult ref = service::measure_slo(slo);
    ok &= check(ref.recovery_rounds == plain.recovery_rounds,
                w.name + " recovery_rounds == measure_slo");
    ok &= check(ref.totals == plain.totals, w.name + " Totals == measure_slo");
  }
  return ok;
}

// --- command line ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  std::string git_sha = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: sssw_perfbench --workload heal|serve|crash --seed N "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE] [--git-sha SHA] [--smoke]\n");
    return 2;
  }
  const std::optional<Workload> w = find_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "sssw_perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string prov = provenance(args.git_sha);
  std::printf("provenance %s\n", prov.c_str());
  if (args.smoke) return smoke(*w, args.seed) ? 0 : 1;

  const std::size_t count = unit_count(*w, args.seconds);
  Tracer off(false), tr(args.trace);
  std::vector<UnitResult> plain, traced;
  std::optional<UnitResult> laned;
  if (!args.trace) {
    for (std::size_t i = 0; i < count; ++i)
      plain.push_back(run_unit(*w, unit_seed(args.seed, i), 1, off));
  } else {
    // Pairs on one seed each: untraced, then traced.  heal also runs the
    // first seed on worker lanes for sim.lane_speedup.
    for (std::size_t i = 0; i < std::max<std::size_t>(1, count / 2); ++i) {
      plain.push_back(run_unit(*w, unit_seed(args.seed, i), 1, off));
      traced.push_back(run_unit(*w, unit_seed(args.seed, i), 1, tr));
    }
    if (w->heal && lane_target() > 1)
      laned = run_unit(*w, unit_seed(args.seed, 0), lane_target(), off);
  }

  std::vector<UnitResult> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  if (laned) all.push_back(*laned);
  std::map<std::uint64_t, std::uint64_t> first_digest;  // seed -> digest
  std::size_t failed = 0;
  for (UnitResult& u : all) {
    const auto [it, fresh] = first_digest.emplace(u.seed, u.digest);
    if (!fresh && it->second != u.digest) u.fail("digest differs from an earlier unit's");
    failed += u.ok ? 0 : 1;
  }
  Fnv1a run_digest;
  for (const UnitResult& u : plain) run_digest.add(u.digest);
  std::printf("digest %s seed=%llu units=%zu %016llx\n", w->name.c_str(),
              static_cast<unsigned long long>(args.seed), plain.size(),
              static_cast<unsigned long long>(run_digest.value()));

  std::vector<Metric> metrics;
  if (failed == 0) metrics = args.trace ? per_layer(*w, plain, traced, laned, tr)
                                        : end_to_end(*w, plain);
  if (args.trace && !args.trace_out.empty() &&
      !write_trace(args.trace_out, prov, *w, args.seed, tr)) {
    std::fprintf(stderr, "sssw_perfbench: cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  std::printf("%s\n", json_result(failed == 0, all.size(), failed, metrics).c_str());
  return 0;
}
