#include "analysis/experiments.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <string>

#include "analysis/convergence.hpp"
#include "analysis/churn_storm.hpp"
#include "analysis/experiment.hpp"
#include "analysis/linklen.hpp"
#include "analysis/phases.hpp"
#include "analysis/robustness.hpp"
#include "analysis/service.hpp"
#include "analysis/stress.hpp"
#include "baselines/fingers.hpp"
#include "baselines/linearization.hpp"
#include "core/forget.hpp"
#include "core/messages.hpp"
#include "core/views.hpp"
#include "graph/metrics.hpp"
#include "obs/registry.hpp"
#include "routing/greedy.hpp"
#include "routing/probe_path.hpp"
#include "routing/torus.hpp"
#include "service/slo.hpp"
#include "topology/cfl.hpp"
#include "topology/cfl2d.hpp"
#include "topology/chord.hpp"
#include "topology/kleinberg.hpp"
#include "topology/stationary.hpp"
#include "topology/torus2d.hpp"
#include "topology/watts_strogatz.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sssw::analysis {

namespace {

// --- params ----------------------------------------------------------------

using Kind = ParamSpec::Kind;

bool parse_number(std::string_view text, double* out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return !text.empty() && ec == std::errc() && ptr == text.data() + text.size();
}

std::string check_value(const ParamSpec& spec, std::string_view value) {
  std::string want;
  double number = 0;
  switch (spec.kind) {
    case Kind::kNumber:
      if (parse_number(value, &number) && number >= spec.min &&
          number < spec.max)
        return "";
      want = "a number in [";
      util::append_json_number(want, spec.min);
      want += ", ";
      util::append_json_number(want, spec.max);
      want += ")";
      break;
    case Kind::kInteger:
      if (parse_number(value, &number) && number == std::floor(number) &&
          value.find_first_of(".eE") == std::string_view::npos &&
          number >= spec.min && number <= spec.max)
        return "";
      want = "an integer in ";
      util::append_json_number(want, spec.min);
      want += "..";
      util::append_json_number(want, spec.max);
      break;
    case Kind::kWord:
      for (const std::string_view word : spec.words) {
        if (word == value) return "";
        want += want.empty() ? "one of " : "|";
        want += word;
      }
      break;
  }
  return "param '" + std::string(spec.key) + "' wants " + want + ", got '" +
         std::string(value) + "'";
}

const ParamSpec& param_spec(const SweepCell& cell, std::string_view key) {
  const ExperimentDescriptor* experiment = find_experiment(cell.experiment);
  SSSW_CHECK(experiment != nullptr);
  for (const ParamSpec& spec : experiment->params)
    if (spec.key == key) return spec;
  SSSW_CHECK(false);
  return experiment->params.front();
}

// Cells carry values the config parser already checked; the CHECKs guard
// hand-built cells in tests.
std::string raw_param(const SweepCell& cell, const ParamSpec& spec) {
  for (const auto& [key, value] : split_params(cell.params)) {
    if (key != spec.key) continue;
    SSSW_CHECK(check_value(spec, value).empty());
    return value;
  }
  return "";
}

double number_param(const SweepCell& cell, std::string_view key) {
  const ParamSpec& spec = param_spec(cell, key);
  const std::string value = raw_param(cell, spec);
  double number = spec.fallback;
  if (!value.empty()) parse_number(value, &number);
  return number;
}

std::string word_param(const SweepCell& cell, std::string_view key) {
  const ParamSpec& spec = param_spec(cell, key);
  const std::string value = raw_param(cell, spec);
  return value.empty() ? std::string(spec.words.front()) : value;
}

// --- shared helpers ---------------------------------------------------------

// Cells carry canonical specs produced by expand_cells, so re-parsing here
// cannot fail; the CHECK guards hand-built cells in tests.
core::Config ablation_config(const SweepCell& cell) {
  const auto spec = parse_ablation_spec(cell.ablation);
  SSSW_CHECK(spec.has_value());
  return spec->config;
}

FaultSpec fault_spec(const SweepCell& cell) {
  const auto spec = parse_fault_spec(cell.fault);
  SSSW_CHECK(spec.has_value());
  return *spec;
}

/// The theorem-shaped budget (400n + 4000) scaled by the extra per-message
/// latency the cell's scheduler/fault plan imposes — the same shape as
/// fuzz.cpp's round_bound, minus the dimensions a sweep cell cannot carry.
std::uint64_t cell_budget(const SweepCell& cell, const FaultSpec& fault) {
  if (cell.max_rounds > 0) return cell.max_rounds;
  std::uint64_t bound = 400 * static_cast<std::uint64_t>(cell.n) + 4000;
  std::uint64_t latency = 1;
  if (fault.plan.delay_probability > 0) latency += fault.plan.max_delay_rounds;
  if (cell.scheduler == sim::SchedulerKind::kAdversarialOldestLast)
    latency += fault.oldest_last_hold > 0 ? fault.oldest_last_hold : 3;
  bound *= latency;
  if (fault.plan.partition_rounds > 0)
    bound += fault.plan.partition_start + fault.plan.partition_rounds;
  return bound;
}

/// Mean of `values`, or -1 when there are none (no trial got that far).
double mean_or_none(const std::vector<double>& values) {
  return values.empty() ? -1.0 : util::mean_of(values);
}

double fraction(std::size_t part, std::size_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

/// A metric name carrying a parameter value: ("hops_a", 0.5) → "hops_a0.5".
std::string tagged(std::string prefix, double value) {
  util::append_json_number(prefix, value);
  return prefix;
}

/// n random ids in the shape's initial state, registered with a fresh
/// network — the start of every "converge from scratch" experiment.
core::SmallWorldNetwork initial_network(topology::InitialShape shape,
                                        std::size_t n, std::uint64_t seed,
                                        core::NetworkOptions options) {
  util::Rng rng(seed);
  auto ids = core::random_ids(n, rng);
  options.seed = seed;
  core::SmallWorldNetwork network(options);
  network.add_nodes(topology::make_initial_state(shape, std::move(ids), rng));
  return network;
}

// --- E1/E2: convergence to the sorted ring (Thms 4.9/4.18) -----------------

CellResult run_convergence(const SweepCell& cell, obs::Registry*) {
  ConvergenceOptions options;
  options.n = cell.n;
  options.trials = cell.trials;
  options.base_seed = cell.seed;
  options.max_rounds = cell_budget(cell, fault_spec(cell));
  options.protocol = ablation_config(cell);
  options.scheduler = cell.scheduler;
  const ConvergenceResult r = measure_convergence(cell.shape, options);
  CellResult out;
  out.add("list_rounds_mean", r.list_rounds.mean);
  out.add("list_rounds_p90", r.list_rounds.p90);
  out.add("ring_extra_mean", r.ring_extra_rounds.mean);
  out.add("msgs_per_node_mean", r.messages_per_node.mean);
  out.add("converged", r.converged);
  return out;
}

// --- E1b: phase timeline (the §IV proof structure) -------------------------

CellResult run_phases(const SweepCell& cell, obs::Registry*) {
  PhaseTimelineOptions options;
  options.n = cell.n;
  options.max_rounds = cell_budget(cell, fault_spec(cell));
  options.protocol = ablation_config(cell);
  options.scheduler = cell.scheduler;
  const core::Phase tracked[] = {core::Phase::kListConnected,
                                 core::Phase::kSortedList,
                                 core::Phase::kSortedRing,
                                 core::Phase::kSmallWorld};
  const char* names[] = {"list_connected_mean", "sorted_list_mean",
                         "sorted_ring_mean", "small_world_mean"};
  double sums[4] = {};
  std::size_t counts[4] = {};
  std::size_t completed = 0;
  for (std::size_t trial = 0; trial < cell.trials; ++trial) {
    options.seed = cell.seed + trial;
    const PhaseTimeline timeline = measure_phase_timeline(cell.shape, options);
    if (timeline.completed()) ++completed;
    for (std::size_t i = 0; i < 4; ++i) {
      if (const auto round = timeline.at(tracked[i])) {
        sums[i] += static_cast<double>(*round);
        ++counts[i];
      }
    }
  }
  CellResult out;
  for (std::size_t i = 0; i < 4; ++i)
    out.add(names[i],
            counts[i] > 0 ? sums[i] / static_cast<double>(counts[i]) : -1.0);
  out.add("completed",
          static_cast<double>(completed) / static_cast<double>(cell.trials));
  return out;
}

// --- E1c: routing service while stabilizing --------------------------------

CellResult run_stabilizing_service(const SweepCell& cell, obs::Registry*) {
  struct Trial {
    double t0 = 0, half = 0, ring = 0, ring_round = -1;
  };
  const auto trials = run_trials<Trial>(
      cell.trials, cell.seed, [&](std::size_t, std::uint64_t seed) {
        ServiceOptions options;
        options.n = cell.n;
        options.seed = seed;
        options.sample_every = 4;
        const auto curve =
            measure_service_during_stabilization(cell.shape, options);
        Trial trial;
        const auto ring = std::find_if(curve.begin(), curve.end(),
                                       [](const ServicePoint& p) {
                                         return p.sorted_ring;
                                       });
        if (ring == curve.end()) return trial;
        const auto half = std::find_if(curve.begin(), ring,
                                       [&](const ServicePoint& p) {
                                         return 2 * p.round >= ring->round;
                                       });
        trial.t0 = curve.front().success;
        trial.half = half->success;
        trial.ring = ring->success;
        trial.ring_round = static_cast<double>(ring->round);
        return trial;
      });
  std::vector<double> t0, half, ring, rounds;
  for (const Trial& trial : trials) {
    if (trial.ring_round < 0) continue;
    t0.push_back(trial.t0);
    half.push_back(trial.half);
    ring.push_back(trial.ring);
    rounds.push_back(trial.ring_round);
  }
  CellResult out;
  out.add("success_t0", mean_or_none(t0));
  out.add("success_half", mean_or_none(half));
  out.add("success_ring", mean_or_none(ring));
  out.add("ring_round", mean_or_none(rounds));
  return out;
}

// --- E3: long-range-link length law (Fact 4.21 / Thm 4.22) -----------------

constexpr std::string_view kProcesses[] = {"cfl", "protocol"};
constexpr ParamSpec kLinklenParams[] = {
    {"process", Kind::kWord, 0, 0, 0, kProcesses}};

CellResult run_linklen(const SweepCell& cell, obs::Registry*) {
  LinkLenOptions options;
  options.n = cell.n;
  options.seed = cell.seed;
  const core::Config protocol = ablation_config(cell);
  options.epsilon = protocol.epsilon;
  const LinkLenResult r = word_param(cell, "process") == "protocol"
                              ? measure_protocol_linklen(options, protocol)
                              : measure_cfl_linklen(options);
  CellResult out;
  out.add("exponent", r.fit.exponent);
  out.add("exponent_r2", r.fit.r2);
  out.add("corrected_slope", r.corrected.slope);
  out.add("mean_length", r.mean_length);
  out.add("samples", static_cast<double>(r.samples));
  return out;
}

// --- E4: probe-walk length in the stable state (Lemma 4.23) ----------------

CellResult run_probing(const SweepCell& cell, obs::Registry*) {
  const std::size_t n = cell.n;
  const core::SmallWorldNetwork network = stabilized_network(n, cell.seed, 4 * n);
  const auto ids = network.engine().id_span();
  std::size_t probes = 0, reached = 0;
  // 64 probes from random origins at each exponentially spaced distance.
  std::vector<double> distances, hops;
  util::Rng rng(cell.seed ^ 0xbeef);
  for (std::size_t d = 1; d <= n / 2; d *= 2) {
    for (int rep = 0; rep < 64; ++rep) {
      const std::size_t origin = rng.below(n);
      const auto probe =
          routing::probe_walk(network, ids[origin], ids[(origin + d) % n], 16 * n);
      ++probes;
      if (!probe.reached) continue;
      ++reached;
      distances.push_back(static_cast<double>(d));
      hops.push_back(static_cast<double>(probe.hops));
    }
  }
  // The probes Algorithm 10 actually issues: every node toward its own lrl.
  std::vector<double> lrl_hops;
  for (const sim::Id id : ids) {
    const sim::Id target = network.node(id)->lrl();
    if (target == id) continue;
    const auto probe = routing::probe_walk(network, id, target, 16 * n);
    ++probes;
    if (!probe.reached) continue;
    ++reached;
    lrl_hops.push_back(static_cast<double>(probe.hops));
  }
  const util::PolylogFit fit = util::fit_polylog(distances, hops);
  const util::Summary summary = util::summarize(hops);
  CellResult out;
  out.add("hops_mean", summary.mean);
  out.add("hops_p90", summary.p90);
  out.add("polylog_exp", fit.exponent);
  out.add("fit_r2", fit.r2);
  out.add("lrl_hops_mean", util::mean_of(lrl_hops));
  out.add("reached", fraction(reached, probes));
  return out;
}

// --- E5: greedy routing across models (Thm 4.22 / Kleinberg) ---------------

constexpr std::size_t kRoutingPairs = 256;

void add_routing(CellResult& out, const routing::RoutingStats& stats) {
  out.add("hops_mean", stats.hops.mean);
  out.add("hops_p90", stats.hops.p90);
  out.add("success", stats.success_rate);
}

constexpr std::string_view kRoutingModels[] = {
    "stationary", "lookahead", "kleinberg", "ring", "watts-strogatz", "chord"};
constexpr ParamSpec kRoutingParams[] = {
    {"model", Kind::kWord, 0, 0, 0, kRoutingModels}};

graph::Digraph plain_ring(std::size_t n) {
  graph::Digraph graph(n);
  for (graph::Vertex i = 0; i < n; ++i) {
    graph.add_edge(i, static_cast<graph::Vertex>((i + 1) % n));
    graph.add_edge(i, static_cast<graph::Vertex>((i + n - 1) % n));
  }
  return graph;
}

CellResult run_routing(const SweepCell& cell, obs::Registry*) {
  const std::string model = word_param(cell, "model");
  util::Rng build(cell.seed);
  graph::Digraph graph;
  if (model == "stationary" || model == "lookahead")
    graph = topology::make_stationary_smallworld_ring(cell.n, build);
  else if (model == "kleinberg")
    graph = topology::make_kleinberg_ring(cell.n, build);
  else if (model == "ring")
    graph = plain_ring(cell.n);
  else if (model == "watts-strogatz")
    graph = topology::make_watts_strogatz(cell.n, build, {.k = 4, .beta = 0.1});
  else
    graph = topology::make_chord_ring(cell.n);
  util::Rng eval(cell.seed + 1);
  // Chord's fingers point clockwise only, so it routes by clockwise distance.
  const routing::RoutingStats stats =
      model == "lookahead"
          ? routing::evaluate_routing_lookahead(graph, eval, kRoutingPairs, cell.n)
          : routing::evaluate_routing(graph, eval, kRoutingPairs, cell.n,
                                      model == "chord"
                                          ? routing::Metric::kClockwise
                                          : routing::Metric::kRingSymmetric);
  CellResult out;
  add_routing(out, stats);
  return out;
}

// --- E5b: greedy routing on the protocol's own mixed network ---------------

CellResult run_engine_routing(const SweepCell& cell, obs::Registry*) {
  // ~n² move steps mix the links, 3× for the message-pipeline dilation.
  const core::SmallWorldNetwork network =
      stabilized_network(cell.n, cell.seed, 3 * cell.n * cell.n / 4);
  const graph::Digraph graph =
      core::view_cp(network.engine(), network.make_index());
  util::Rng eval(cell.seed + 1);
  CellResult out;
  add_routing(out, routing::evaluate_routing(graph, eval, kRoutingPairs, cell.n));
  return out;
}

// --- E6/E7: join/leave recovery (§IV.G) ------------------------------------

CellResult run_churn(const SweepCell& cell, obs::Registry*) {
  ChurnOptions options;
  options.n = cell.n;
  options.trials = cell.trials;
  options.base_seed = cell.seed;
  options.max_recovery_rounds = cell_budget(cell, fault_spec(cell));
  options.protocol = ablation_config(cell);
  const ChurnResult join = measure_join(options);
  const ChurnResult leave = measure_leave(options);
  CellResult out;
  out.add("join_rounds_mean", join.recovery_rounds.mean);
  out.add("join_msgs_mean", join.recovery_messages.mean);
  out.add("join_recovered", join.recovered);
  out.add("leave_rounds_mean", leave.recovery_rounds.mean);
  out.add("leave_msgs_mean", leave.recovery_messages.mean);
  out.add("leave_recovered", leave.recovered);
  return out;
}

// --- E7: overlapping churn storms (the w.h.p. caveat of Thm 4.24) ----------

constexpr ParamSpec kStormParams[] = {
    {"interval", Kind::kInteger, 4, 1, 4096, {}}};

CellResult run_storm(const SweepCell& cell, obs::Registry*) {
  const auto results = run_trials<ChurnStormResult>(
      cell.trials, cell.seed, [&](std::size_t, std::uint64_t seed) {
        ChurnStormOptions options;
        options.n = cell.n;
        options.events = 24;
        options.event_interval =
            static_cast<std::size_t>(number_param(cell, "interval"));
        options.seed = seed;
        return run_churn_storm(options);
      });
  std::size_t survived = 0;
  std::vector<double> quiesce, rate;
  for (const ChurnStormResult& result : results) {
    rate.push_back(result.messages_per_node_round);
    if (!result.survived) continue;
    ++survived;
    quiesce.push_back(static_cast<double>(result.quiesce_rounds));
  }
  CellResult out;
  out.add("survived", fraction(survived, results.size()));
  out.add("quiesce_rounds", mean_or_none(quiesce));
  out.add("msgs_per_node_round", util::mean_of(rate));
  return out;
}

// --- E7c: one victim, detected leave vs crash-stop -------------------------

CellResult run_leave_vs_crash(const SweepCell& cell, obs::Registry*) {
  struct Trial {
    double rounds[2] = {-1, -1};  // [leave, crash]
  };
  const std::size_t n = cell.n;
  const auto trials = run_trials<Trial>(
      cell.trials, cell.seed, [&](std::size_t, std::uint64_t seed) {
        Trial trial;
        for (const bool crash : {false, true}) {
          core::Config config;
          config.detector.enabled = crash;  // a leave needs no detection
          core::SmallWorldNetwork network =
              stabilized_network(n, seed, 4 * n, config);
          util::Rng rng(seed ^ 0x6c766373ull);  // same victim both ways
          const auto ids = network.engine().id_span();
          const sim::Id victim = ids[rng.below(ids.size())];
          crash ? network.crash(victim) : network.leave(victim);
          if (const auto rounds = network.run_until_sorted_ring(400 * n + 4000))
            trial.rounds[crash] = static_cast<double>(*rounds);
        }
        return trial;
      });
  std::vector<double> rounds[2];
  for (const Trial& trial : trials)
    for (const int crash : {0, 1})
      if (trial.rounds[crash] >= 0) rounds[crash].push_back(trial.rounds[crash]);
  const double leave = mean_or_none(rounds[0]);
  const double crash = mean_or_none(rounds[1]);
  CellResult out;
  out.add("leave_rounds_mean", leave);
  out.add("crash_rounds_mean", crash);
  out.add("detection_latency", leave >= 0 && crash >= 0 ? crash - leave : -1.0);
  out.add("leave_healed", fraction(rounds[0].size(), trials.size()));
  out.add("crash_healed", fraction(rounds[1].size(), trials.size()));
  return out;
}

// --- E8 + A3: stable-state traffic and greedy hops per protocol variant ----

CellResult run_overhead(const SweepCell& cell, obs::Registry*) {
  const std::size_t n = cell.n;
  const core::Config protocol = ablation_config(cell);
  core::SmallWorldNetwork network =
      stabilized_network(n, cell.seed, 4 * n, protocol);
  constexpr std::size_t kMeasureRounds = 256;
  const sim::EngineCounters before = network.engine().counters();
  network.run_rounds(kMeasureRounds);
  const sim::EngineCounters& after = network.engine().counters();
  const double total =
      static_cast<double>(after.total_sent() - before.total_sent());
  const auto share = [&](std::initializer_list<core::MsgType> types) {
    std::uint64_t sent = 0;
    for (const core::MsgType type : types)
      sent += after.sent_by_type[type] - before.sent_by_type[type];
    return total > 0 ? static_cast<double>(sent) / total : 0.0;
  };
  CellResult out;
  out.add("msgs_per_node_round",
          total / static_cast<double>(n) / static_cast<double>(kMeasureRounds));
  out.add("lin_share", share({core::kLin}));
  out.add("lrl_share", share({core::kInclrl, core::kReslrl}));
  out.add("ring_share", share({core::kRing, core::kResring}));
  out.add("probe_share", share({core::kProbr, core::kProbl}));

  util::Rng eval(cell.seed + 1);
  add_routing(out, routing::evaluate_routing(
                       core::view_cp(network.engine(), network.make_index()),
                       eval, kRoutingPairs, n));

  // The transient: traffic per node and round while a random chain converges.
  core::NetworkOptions options;
  options.protocol = protocol;
  core::SmallWorldNetwork chain = initial_network(
      topology::InitialShape::kRandomChain, n, cell.seed, options);
  const auto rounds = chain.run_until_sorted_ring(4000 * n);
  out.add("stabilizing_rate",
          rounds.has_value() && *rounds > 0
              ? static_cast<double>(chain.engine().counters().total_sent()) /
                    static_cast<double>(n) / static_cast<double>(*rounds)
              : -1.0);
  return out;
}

// --- E9: robustness of the topology to random node failures (§I) -----------

constexpr std::string_view kRobustnessModels[] = {"stationary", "kleinberg",
                                                  "kleinberg4", "chord"};
constexpr ParamSpec kRobustnessParams[] = {
    {"model", Kind::kWord, 0, 0, 0, kRobustnessModels}};

CellResult run_robustness(const SweepCell& cell, obs::Registry*) {
  const std::string model = word_param(cell, "model");
  util::Rng build(cell.seed);
  RobustnessOptions options;
  options.trials = cell.trials;
  options.routing_pairs = 200;
  options.seed = cell.seed;
  graph::Digraph graph;
  if (model == "stationary") {
    graph = topology::make_stationary_smallworld_ring(cell.n, build);
  } else if (model == "chord") {
    graph = topology::make_chord_ring(cell.n);
    options.metric = routing::Metric::kClockwise;
  } else {
    // kleinberg4: four long links per node, between sssw's degree and Chord's.
    graph = topology::make_kleinberg_ring(
        cell.n, build, {.long_links_per_node = model == "kleinberg4" ? 4u : 1u});
  }
  CellResult out;
  out.add("degree", graph::degree_stats(graph).mean);
  for (const RobustnessPoint& point :
       robustness_sweep(graph, {0.1, 0.2, 0.3, 0.5}, options)) {
    const double percent = std::round(100 * point.fail_fraction);
    out.add(tagged("lcc_", percent), point.largest_component);
    out.add(tagged("routed_", percent), point.routing_success);
  }
  return out;
}

// --- E10: link ages and the forget law (§IV.E) -----------------------------

CellResult run_forget(const SweepCell& cell, obs::Registry*) {
  const std::size_t n = cell.n;
  const double epsilon = ablation_config(cell).epsilon;
  topology::CflProcess process(n, epsilon, util::Rng(cell.seed));
  process.run(8 * n);
  core::Age max_age = 0;
  for (std::size_t i = 0; i < n; ++i) max_age = std::max(max_age, process.age(i));

  // Empirical survival of independent link ages against the telescoped
  // closed form (2/α)(ln2/lnα)^{1+ε}.
  constexpr int kLinks = 20000;
  constexpr core::Age kCheckAges[] = {4, 8, 16, 32, 64};
  util::Rng rng(cell.seed);
  int alive_at[std::size(kCheckAges)] = {};
  for (int link = 0; link < kLinks; ++link) {
    for (core::Age age = 1; age <= 64; ++age) {
      if (rng.bernoulli(core::forget_probability(age, epsilon))) break;
      for (std::size_t c = 0; c < std::size(kCheckAges); ++c)
        if (age == kCheckAges[c]) ++alive_at[c];
    }
  }
  double worst = 0.0;
  for (std::size_t c = 0; c < std::size(kCheckAges); ++c)
    worst = std::max(worst, std::abs(static_cast<double>(alive_at[c]) / kLinks -
                                     core::survival_probability(kCheckAges[c],
                                                                epsilon)));
  CellResult out;
  out.add("max_age", static_cast<double>(max_age));
  out.add("max_age_over_n", static_cast<double>(max_age) / static_cast<double>(n));
  out.add("forgets_per_node", static_cast<double>(process.total_forgets()) /
                                  static_cast<double>(n));
  out.add("survival_err", worst);
  return out;
}

// --- E11/E12: navigability exponent, 1-D and 2-D ---------------------------

constexpr std::string_view kNavigabilityModels[] = {"ring", "torus", "cfl2d",
                                                    "lattice"};
constexpr ParamSpec kNavigabilityParams[] = {
    {"model", Kind::kWord, 0, 0, 0, kNavigabilityModels}};

CellResult run_navigability(const SweepCell& cell, obs::Registry*) {
  constexpr std::size_t kPairs = 400;
  const std::string model = word_param(cell, "model");
  const bool ring = model == "ring";
  // The 2-D models live on the largest side × side torus with side² ≤ n.
  const auto side = static_cast<std::size_t>(std::sqrt(static_cast<double>(cell.n)));
  const topology::Torus2d torus(side);
  const auto route = [&](const graph::Digraph& graph) {
    util::Rng eval(cell.seed + 1);
    return ring ? routing::evaluate_routing(graph, eval, kPairs, cell.n)
                : routing::evaluate_routing_torus(graph, torus, eval, kPairs,
                                                  side * side);
  };
  CellResult out;
  if (ring || model == "torus") {
    // Kleinberg graphs with exponent α: navigable at α = 1 on a ring, at
    // α = 2 on a torus.
    double success = 1.0;
    for (const double alpha : {0.0, 0.5, 1.0, 1.5, 2.0, 3.0}) {
      util::Rng build(cell.seed);
      const auto stats =
          route(ring ? topology::make_kleinberg_ring(
                           cell.n, build,
                           {.long_links_per_node = 1, .exponent = alpha})
                     : topology::make_kleinberg_torus(
                           side, build,
                           {.long_links_per_node = 1, .exponent = alpha}));
      out.add(tagged("hops_a", alpha), stats.hops.mean);
      success = std::min(success, stats.success_rate);
    }
    out.add("success", success);
    return out;
  }
  graph::Digraph graph;
  if (model == "cfl2d") {
    // The 2-D move-and-forget process, run for ~(diameter)² steps to mix.
    topology::Cfl2dProcess process(side, 0.1, util::Rng(cell.seed));
    process.run(side * side);
    graph = process.graph();
  } else {
    graph = topology::make_torus_lattice(side);
  }
  const auto stats = route(graph);
  out.add("hops_mean", stats.hops.mean);
  out.add("success", stats.success_rate);
  return out;
}

// --- E13: convergence under the fault adversary ----------------------------

CellResult run_faults(const SweepCell& cell, obs::Registry*) {
  const FaultSpec fault = fault_spec(cell);
  FaultSweepOptions options;
  options.n = cell.n;
  options.trials = cell.trials;
  options.base_seed = cell.seed;
  options.faults = fault.plan;
  options.scheduler = fault.oldest_last()
                          ? sim::SchedulerKind::kAdversarialOldestLast
                          : cell.scheduler;
  if (fault.oldest_last()) options.adversary_delay = fault.oldest_last_hold;
  options.protocol = ablation_config(cell);
  options.max_rounds = cell.max_rounds;
  const FaultSweepResult r = measure_fault_convergence(options);
  CellResult out;
  out.add("rounds", r.rounds);
  out.add("converged", r.converged);
  out.add("survived", r.survived);
  out.add("injected", r.injected);
  return out;
}

// --- E14: crash recovery under the active failure detector -----------------

constexpr std::string_view kRecoveryModes[] = {"crash", "leave"};
constexpr ParamSpec kRecoveryParams[] = {
    {"crash", Kind::kNumber, 0.1, 0, 1, {}},
    {"loss", Kind::kNumber, 0, 0, 1, {}},
    {"mode", Kind::kWord, 0, 0, 0, kRecoveryModes},
};

CellResult run_recovery(const SweepCell& cell, obs::Registry* registry) {
  RecoveryOptions options;
  options.n = cell.n;
  options.trials = cell.trials;
  options.base_seed = cell.seed;
  options.crash_frac = number_param(cell, "crash");
  options.message_loss = number_param(cell, "loss");
  options.mode = word_param(cell, "mode") == "leave"
                     ? RecoveryOptions::Mode::kLeave
                     : RecoveryOptions::Mode::kCrash;
  options.protocol = ablation_config(cell);
  options.max_rounds = cell.max_rounds;
  const RecoveryResult r = measure_crash_recovery(options, registry);
  CellResult out;
  out.add("repair_rounds", r.repair_rounds);
  out.add("healed", r.healed);
  out.add("survived", r.survived);
  out.add("msgs_per_nr", r.msgs_per_nr);
  out.add("detector_share", r.detector_share);
  out.add("evictions", r.evictions);
  return out;
}

// --- E15: lookup SLO during crash recovery (doc/SERVICE.md) ----------------

// The ablation rows ride params, like E14's "mode": detector=0 turns the
// failure detector off, retries=0 turns re-issue off, hedge=R re-issues in
// parallel after R quiet rounds.  Without k the ablation's link count holds.
constexpr ParamSpec kServiceParams[] = {
    {"crash", Kind::kNumber, 0.1, 0, 1, {}},
    {"detector", Kind::kInteger, 1, 0, 1, {}},
    {"hedge", Kind::kInteger, 0, 0, 4096, {}},
    {"k", Kind::kInteger, 0, 1, core::kMaxLrlCount, {}},
    {"retries", Kind::kInteger, 2, 0, 16, {}},
};

CellResult run_service(const SweepCell& cell, obs::Registry* registry) {
  service::SloOptions options;
  options.n = cell.n;
  options.trials = cell.trials;
  options.base_seed = cell.seed;
  options.crash_frac = number_param(cell, "crash");
  options.protocol = ablation_config(cell);
  options.detector = number_param(cell, "detector") != 0.0;
  if (const double k = number_param(cell, "k"); k > 0)
    options.protocol.lrl_count = static_cast<std::uint32_t>(k);
  options.lookup.rate = 4.0;
  options.lookup.ttl = 512;
  options.lookup.timeout_rounds = 192;
  options.lookup.max_retries =
      static_cast<std::uint32_t>(number_param(cell, "retries"));
  options.lookup.hedge_after =
      static_cast<std::uint32_t>(number_param(cell, "hedge"));
  options.recovery_window = 64;
  const service::SloResult r = service::measure_slo(options, registry);
  CellResult out;
  out.add("success_pre", r.pre.success);
  out.add("success_during", r.during_crash.success);
  out.add("success_post", r.post.success);
  out.add("p999_lat_during", r.during_crash.p999_latency);
  out.add("p999_lat_post", r.post.p999_latency);
  out.add("recovery_rounds", r.recovery_rounds);
  out.add("recovered", r.recovered_fraction);
  out.add("in_window", r.recovered_in_window);
  out.add("detection_window", static_cast<double>(r.detection_window));
  out.add("issued", static_cast<double>(r.totals.issued));
  out.add("deadletters", static_cast<double>(r.totals.deadletter_timeout +
                                             r.totals.deadletter_no_progress +
                                             r.totals.deadletter_target_dead +
                                             r.totals.deadletter_ttl));
  return out;
}

// --- A4: convergence over lossy channels ------------------------------------

constexpr ParamSpec kLossParams[] = {{"loss", Kind::kNumber, 0, 0, 1, {}}};

CellResult run_loss(const SweepCell& cell, obs::Registry*) {
  const auto rounds = run_trials<double>(
      cell.trials, cell.seed, [&](std::size_t, std::uint64_t seed) {
        core::NetworkOptions options;
        options.message_loss = number_param(cell, "loss");
        core::SmallWorldNetwork network =
            initial_network(cell.shape, cell.n, seed, options);
        // Non-convergence here is usually a permanent disconnection (a lost
        // linearization handoff), so the budget is capped.
        const auto taken = network.run_until_sorted_ring(20000);
        return taken.has_value() ? static_cast<double>(*taken) : -1.0;
      });
  std::vector<double> converged;
  for (const double r : rounds)
    if (r >= 0) converged.push_back(r);
  CellResult out;
  out.add("rounds_mean", mean_or_none(converged));
  out.add("converged", fraction(converged.size(), rounds.size()));
  return out;
}

// --- A5: self-stabilizing baselines on the same engine ---------------------

constexpr std::string_view kOverlays[] = {"linearization", "fingers"};
constexpr ParamSpec kOverlayParams[] = {
    {"overlay", Kind::kWord, 0, 0, 0, kOverlays}};

CellResult run_overlay(const SweepCell& cell, obs::Registry*) {
  struct Trial {
    double rounds = -1, msgs_per_node = 0, degree = 0;
  };
  const bool fingers = word_param(cell, "overlay") == "fingers";
  const std::size_t n = cell.n;
  const auto trials = run_trials<Trial>(
      cell.trials, cell.seed, [&](std::size_t, std::uint64_t seed) {
        // The (l, r) pointers of the state initial_network() would build for
        // this seed: the protocol's runs start from the same chains.
        util::Rng rng(seed);
        sim::Engine engine(sim::EngineConfig{.seed = seed});
        for (const core::NodeInit& init : topology::make_initial_state(
                 cell.shape, core::random_ids(n, rng), rng)) {
          if (fingers)
            engine.add_process(std::make_unique<baselines::FingerNode>(
                init.id, init.l, init.r, baselines::FingerConfig{}));
          else
            engine.add_process(std::make_unique<baselines::LinearizationNode>(
                init.id, init.l, init.r));
        }
        // Legal state: the sorted list, plus every finger correct.
        const bool done = engine.run_until(
            [&] {
              return fingers ? baselines::fingers_sorted_list(engine) &&
                                   baselines::fingers_correct(engine)
                             : baselines::is_sorted_list(engine);
            },
            4000 * n);
        Trial trial;
        if (!done) return trial;
        trial.rounds = static_cast<double>(engine.round());
        trial.msgs_per_node = static_cast<double>(engine.counters().total_sent()) /
                              static_cast<double>(n);
        if (fingers)
          trial.degree = graph::degree_stats(baselines::finger_view(engine)).mean;
        return trial;
      });
  std::vector<double> rounds, msgs, degree;
  for (const Trial& trial : trials) {
    if (trial.rounds < 0) continue;
    rounds.push_back(trial.rounds);
    msgs.push_back(trial.msgs_per_node);
    degree.push_back(trial.degree);
  }
  CellResult out;
  out.add("rounds_mean", mean_or_none(rounds));
  out.add("msgs_per_node", mean_or_none(msgs));
  if (fingers) out.add("degree", mean_or_none(degree));
  out.add("converged", fraction(rounds.size(), trials.size()));
  return out;
}

constexpr ExperimentDescriptor kExperiments[] = {
    {"e1-convergence",
     "Thms 4.9/4.18: O(n) rounds from any weakly connected state",
     /*uses_shape=*/true, /*uses_scheduler=*/true, /*uses_fault=*/false,
     /*uses_ablation=*/true, {}, run_convergence},
    {"e1b-phases",
     "§IV proof structure: CC → LCC → sorted list → ring → small world",
     /*uses_shape=*/true, /*uses_scheduler=*/true, /*uses_fault=*/false,
     /*uses_ablation=*/true, {}, run_phases},
    {"e1c-service",
     "Greedy lookups succeed long before the sorted ring forms",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, {}, run_stabilizing_service},
    {"e3-linklen",
     "Fact 4.21: lrl lengths follow the 1-harmonic CFL stationary law",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, kLinklenParams, run_linklen},
    {"e4-probing",
     "Lemma 4.23: a probe reaches ring distance d in O(ln^{2+ε} d) hops",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, {}, run_probing},
    {"e5-routing",
     "Thm 4.22: polylog greedy routing at constant degree",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, kRoutingParams, run_routing},
    {"e5b-in-engine",
     "Thm 4.22 on the protocol's own network after ~n² mixing rounds",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, {}, run_engine_routing},
    {"e6-churn",
     "§IV.G: O(log² n) expected recovery after a join or leave",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, {}, run_churn},
    {"e7-storm",
     "Thm 4.24's w.h.p. caveat: overlapping joins and leaves without waiting",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, kStormParams, run_storm},
    {"e7c-crash",
     "A crash heals like a detected leave plus the detector's latency",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, {}, run_leave_vs_crash},
    {"e8-overhead",
     "§IV.F: O(1) messages per node and round in the stable state",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, {}, run_overhead},
    {"e9-robustness",
     "§I: randomized small worlds keep their giant component under failures",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, kRobustnessParams, run_robustness},
    {"e10-forget",
     "§IV.E: max lrl age O(n); survival telescopes to (2/α)(ln2/lnα)^{1+ε}",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, {}, run_forget},
    {"e11-navigability",
     "Kleinberg: greedy routing is polylog only at the harmonic exponent "
     "(α = 1 on a ring, 2 on a torus); §V: 2-D move-and-forget",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, kNavigabilityParams, run_navigability},
    {"e13-faults",
     "Self-stabilization under duplication/delay/partition/replay adversaries",
     /*uses_shape=*/false, /*uses_scheduler=*/true, /*uses_fault=*/true,
     /*uses_ablation=*/true, {}, run_faults},
    {"e14-recovery",
     "Crash-stop recovery via the active probe/ack failure detector",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, kRecoveryParams, run_recovery},
    {"e15-service",
     "Detector + retries restore ≥99% lookup success within the detection "
     "window",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/true, kServiceParams, run_service},
    {"a1-ablations",
     "Each ingredient pays: convergence without the shortcut or "
     "move-and-forget, and under other schedulers",
     /*uses_shape=*/false, /*uses_scheduler=*/true, /*uses_fault=*/false,
     /*uses_ablation=*/true, {}, run_convergence},
    {"a4-loss",
     "The lossless-channel assumption is load-bearing for Phase 1",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, kLossParams, run_loss},
    {"a5-baselines",
     "Plain linearization and a finger overlay on the same engine",
     /*uses_shape=*/false, /*uses_scheduler=*/false, /*uses_fault=*/false,
     /*uses_ablation=*/false, kOverlayParams, run_overlay},
};

}  // namespace

std::span<const ExperimentDescriptor> all_experiments() { return kExperiments; }

const ExperimentDescriptor* find_experiment(std::string_view name) {
  for (const ExperimentDescriptor& experiment : kExperiments)
    if (experiment.name == name) return &experiment;
  return nullptr;
}

std::vector<std::pair<std::string, std::string>> split_params(
    std::string_view params) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t start = 0;
  while (start < params.size()) {
    std::size_t end = params.find(';', start);
    if (end == std::string_view::npos) end = params.size();
    const std::string_view entry = params.substr(start, end - start);
    const std::size_t eq = entry.find('=');
    if (eq != std::string_view::npos)
      out.emplace_back(std::string(entry.substr(0, eq)),
                       std::string(entry.substr(eq + 1)));
    start = end + 1;
  }
  return out;
}

std::string check_param(const ExperimentDescriptor& experiment,
                        std::string_view key, std::string_view value) {
  for (const ParamSpec& spec : experiment.params)
    if (spec.key == key) return check_value(spec, value);
  return "experiment '" + std::string(experiment.name) + "' takes no param '" +
         std::string(key) + "'";
}

}  // namespace sssw::analysis
