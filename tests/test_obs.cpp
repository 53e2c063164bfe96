// Tests for obs/: counter/gauge/histogram semantics, registry lookup and
// deterministic merge, JSONL snapshot round-trip, engine integration, and
// the doc/OBSERVABILITY.md coverage contract (every metric name the code
// can emit must be documented).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "core/network.hpp"
#include "obs/registry.hpp"
#include "obs/snapshotter.hpp"
#include "service/slo.hpp"
#include "support/snapshot_reader.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sssw::obs {
namespace {

// --- Counter ---------------------------------------------------------------

TEST(Counter, AddValueResetMerge) {
  Counter a;
  EXPECT_EQ(a.value(), 0u);
  a.add();
  a.add(41);
  EXPECT_EQ(a.value(), 42u);
  Counter b;
  b.add(8);
  a.merge(b);
  EXPECT_EQ(a.value(), 50u);
  a.reset();
  EXPECT_EQ(a.value(), 0u);
}

TEST(Counter, ViewCountsItsSourceFromTheBinding) {
  auto block = std::make_shared<std::array<std::uint64_t, 2>>();
  (*block)[0] = 5;
  Counter c;
  c.add(3);
  c.view(block, *block);  // not retroactive: the 5 already counted stay out
  EXPECT_EQ(c.value(), 3u);
  (*block)[0] += 2;
  (*block)[1] += 4;
  EXPECT_EQ(c.value(), 9u);  // the view sums its span
  c.reset();                 // re-bases the view
  EXPECT_EQ(c.value(), 0u);
  ++(*block)[1];
  EXPECT_EQ(c.value(), 1u);
  // Re-binding folds the value so far in and counts on from the new source.
  auto next = std::make_shared<std::array<std::uint64_t, 2>>();
  (*next)[0] = 100;
  c.view(next, std::span<const std::uint64_t>(next->data(), 1));
  ++(*block)[0];  // the old source no longer counts
  (*next)[0] += 2;
  EXPECT_EQ(c.value(), 3u);
  // The view co-owns its source: it reads the last counts after the owner
  // lets go.
  next.reset();
  EXPECT_EQ(c.value(), 3u);
}

// --- Gauge -----------------------------------------------------------------

TEST(Gauge, SetOverwritesAndMergeKeepsMax) {
  Gauge a;
  a.set(5.0);
  a.set(2.0);  // last observation wins locally
  EXPECT_DOUBLE_EQ(a.value(), 2.0);
  Gauge b;
  b.set(7.0);
  a.merge(b);  // merge is high-water
  EXPECT_DOUBLE_EQ(a.value(), 7.0);
  Gauge lower;
  lower.set(1.0);
  a.merge(lower);
  EXPECT_DOUBLE_EQ(a.value(), 7.0);
}

TEST(Gauge, MergeIgnoresNeverSetSource) {
  Gauge a;
  a.set(-3.0);
  Gauge untouched;  // value() == 0.0 but never set
  a.merge(untouched);
  EXPECT_DOUBLE_EQ(a.value(), -3.0);  // 0.0 > -3.0, but unset must not win
  Gauge empty;
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.value(), -3.0);
}

// --- Histogram -------------------------------------------------------------

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  Histogram h;
  h.observe(0.0);  // bucket 0: [0, 1]
  h.observe(1.0);  // still bucket 0 (inclusive upper edge)
  h.observe(1.5);  // bucket 1: (1, 2]
  h.observe(2.0);  // bucket 1
  h.observe(2.5);  // bucket 2: (2, 4]
  h.observe(4.0);  // bucket 2
  h.observe(5.0);  // bucket 3: (4, 8]
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper(3), 8.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper(10), 1024.0);
}

TEST(Histogram, SummaryStatistics) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);  // empty histogram is all-zero
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.observe(2.0);
  h.observe(6.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 8.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 6.0);
}

TEST(Histogram, RejectsNegativeAndNan) {
  Histogram h;
  h.observe(-1.0);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 0u);
  h.observe(3.0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(10.0);  // all in bucket (8, 16]
  const double median = h.quantile(0.5);
  EXPECT_GT(median, 8.0);
  EXPECT_LE(median, 16.0);
  // Extremes clamp to the data range.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST(Histogram, MergeIsBucketwiseAdd) {
  Histogram a, b;
  a.observe(1.0);
  a.observe(100.0);
  b.observe(3.0);
  b.observe(0.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 104.5);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
}

// --- Registry --------------------------------------------------------------

TEST(Registry, LookupOrCreateReturnsStableReferences) {
  Registry registry;
  Counter& first = registry.counter("a.b");
  first.add(3);
  Counter& again = registry.counter("a.b");
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, FindDoesNotCreate) {
  Registry registry;
  EXPECT_EQ(registry.find_counter("missing"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
  registry.counter("present").add(1);
  ASSERT_NE(registry.find_counter("present"), nullptr);
  EXPECT_EQ(registry.find_counter("present")->value(), 1u);
  // Kind-mismatched lookups return null rather than the wrong type.
  EXPECT_EQ(registry.find_gauge("present"), nullptr);
  EXPECT_EQ(registry.find_histogram("present"), nullptr);
}

TEST(Registry, KindCollisionFailsLoudly) {
  Registry registry;
  registry.counter("metric.x");
  EXPECT_DEATH(registry.gauge("metric.x"), "already registered");
  EXPECT_DEATH(registry.histogram("metric.x"), "already registered");
}

TEST(Registry, InvalidNamesFailLoudly) {
  Registry registry;
  EXPECT_DEATH(registry.counter(""), "name");
  EXPECT_DEATH(registry.counter("Upper.Case"), "name");
  EXPECT_DEATH(registry.counter("has space"), "name");
}

TEST(Registry, MergeFoldsAllKindsAndCreatesMissing) {
  Registry a;
  a.counter("c").add(1);
  a.gauge("g").set(2.0);
  Registry b;
  b.counter("c").add(10);
  b.gauge("g").set(5.0);
  b.histogram("h").observe(3.0);  // absent in a: must be created
  a.merge(b);
  EXPECT_EQ(a.find_counter("c")->value(), 11u);
  EXPECT_DOUBLE_EQ(a.find_gauge("g")->value(), 5.0);
  ASSERT_NE(a.find_histogram("h"), nullptr);
  EXPECT_EQ(a.find_histogram("h")->count(), 1u);
}

TEST(Registry, ResetZeroesButKeepsNames) {
  Registry registry;
  Counter& c = registry.counter("keep.me");
  c.add(9);
  registry.reset();
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(c.value(), 0u);       // cached reference still valid
  EXPECT_EQ(&registry.counter("keep.me"), &c);
}

// --- deterministic parallel merge ------------------------------------------

TEST(Registry, ParallelTrialMergeMatchesSerial) {
  // Each trial owns a private registry; merging them in trial order must
  // give the same result no matter how the trials were scheduled.
  constexpr std::size_t kTrials = 16;
  const auto run_trial = [](std::size_t trial, Registry& registry) {
    registry.counter("trial.events").add(trial + 1);
    registry.gauge("trial.peak").set(static_cast<double>(trial));
    for (std::size_t i = 0; i <= trial; ++i)
      registry.histogram("trial.samples").observe(static_cast<double>(i));
  };

  std::vector<Registry> parallel_trials(kTrials);
  util::parallel_for(kTrials,
                     [&](std::size_t t) { run_trial(t, parallel_trials[t]); });
  Registry merged_parallel;
  for (Registry& trial : parallel_trials) merged_parallel.merge(trial);

  std::vector<Registry> serial_trials(kTrials);
  for (std::size_t t = 0; t < kTrials; ++t) run_trial(t, serial_trials[t]);
  Registry merged_serial;
  for (Registry& trial : serial_trials) merged_serial.merge(trial);

  EXPECT_EQ(to_jsonl(merged_parallel, 0), to_jsonl(merged_serial, 0));
  EXPECT_EQ(merged_parallel.find_counter("trial.events")->value(),
            kTrials * (kTrials + 1) / 2);
  EXPECT_DOUBLE_EQ(merged_parallel.find_gauge("trial.peak")->value(),
                   static_cast<double>(kTrials - 1));
}

// --- flatten ----------------------------------------------------------------

TEST(Registry, FlattenExpandsHistogramsAndKeepsScalars) {
  Registry registry;
  registry.counter("a.count").add(3);
  registry.gauge("b.level").set(2.5);
  Histogram& h = registry.histogram("c.dist");
  h.observe(1.0);
  h.observe(3.0);
  const auto flat = flatten(registry);
  ASSERT_EQ(flat.size(), 5u);  // counter + gauge + histogram × 3
  EXPECT_EQ(flat[0].first, "a.count");
  EXPECT_DOUBLE_EQ(flat[0].second, 3.0);
  EXPECT_EQ(flat[1].first, "b.level");
  EXPECT_DOUBLE_EQ(flat[1].second, 2.5);
  EXPECT_EQ(flat[2].first, "c.dist_count");
  EXPECT_DOUBLE_EQ(flat[2].second, 2.0);
  EXPECT_EQ(flat[3].first, "c.dist_mean");
  EXPECT_DOUBLE_EQ(flat[3].second, 2.0);
  EXPECT_EQ(flat[4].first, "c.dist_p90");
  EXPECT_DOUBLE_EQ(flat[4].second, h.quantile(0.9));
}

// --- JSONL snapshots --------------------------------------------------------

TEST(Snapshot, RoundTripPreservesEveryMetric) {
  Registry registry;
  registry.counter("engine.messages.sent").add(12345);
  registry.counter("zero.counter");
  registry.gauge("engine.channel.depth").set(0.1);  // not exactly representable
  registry.gauge("tiny.gauge").set(1e-9);
  registry.gauge("huge.gauge").set(1.7976931348623157e308);
  Histogram& h = registry.histogram("routing.greedy.hops");
  h.observe(0.0);
  h.observe(3.0);
  h.observe(1000.0);

  const std::string line = to_jsonl(registry, 77);
  ParsedSnapshot parsed;
  ASSERT_TRUE(parse_snapshot(line, &parsed)) << line;
  EXPECT_EQ(parsed.round, 77u);
  EXPECT_EQ(parsed.counters.at("engine.messages.sent"), 12345u);
  EXPECT_EQ(parsed.counters.at("zero.counter"), 0u);
  EXPECT_DOUBLE_EQ(parsed.gauges.at("engine.channel.depth"), 0.1);
  EXPECT_DOUBLE_EQ(parsed.gauges.at("tiny.gauge"), 1e-9);
  EXPECT_DOUBLE_EQ(parsed.gauges.at("huge.gauge"), 1.7976931348623157e308);
  const auto& hist = parsed.histograms.at("routing.greedy.hops");
  EXPECT_EQ(hist.count, 3u);
  EXPECT_DOUBLE_EQ(hist.sum, 1003.0);
  EXPECT_DOUBLE_EQ(hist.min, 0.0);
  EXPECT_DOUBLE_EQ(hist.max, 1000.0);
  std::uint64_t bucket_total = 0;
  for (const auto& [edge, count] : hist.buckets) bucket_total += count;
  EXPECT_EQ(bucket_total, 3u);
}

TEST(Snapshot, CountersAbove2To53ReadBackExactly) {
  // Counters are uint64: a reader that goes through a double rounds 2^53 + 1
  // down to 2^53.
  constexpr std::uint64_t kBig = (std::uint64_t{1} << 53) + 1;
  Registry registry;
  registry.counter("big.counter").add(kBig);
  registry.histogram("big.histogram").observe(1.0);
  ParsedSnapshot parsed;
  ASSERT_TRUE(parse_snapshot(to_jsonl(registry, kBig), &parsed));
  EXPECT_EQ(parsed.round, kBig);
  EXPECT_EQ(parsed.counters.at("big.counter"), kBig);
}

TEST(Snapshot, ParserRejectsMalformedLines) {
  ParsedSnapshot out;
  EXPECT_FALSE(parse_snapshot("", &out));
  EXPECT_FALSE(parse_snapshot("not json", &out));
  EXPECT_FALSE(parse_snapshot("{\"round\":1}", &out));  // missing sections
  EXPECT_FALSE(parse_snapshot(
      "{\"round\":1,\"counters\":{},\"gauges\":{},\"histograms\":{}} extra", &out));
  // A valid line parses after failures (no sticky state).
  Registry registry;
  EXPECT_TRUE(parse_snapshot(to_jsonl(registry, 0), &out));
}

TEST(Snapshotter, PollRespectsPeriodAndWriteSkipsDuplicates) {
  Registry registry;
  registry.counter("c");
  std::ostringstream out;
  Snapshotter snaps(registry, out, /*every=*/10);
  EXPECT_TRUE(snaps.ok());
  for (std::uint64_t round = 1; round <= 25; ++round) snaps.poll(round);
  EXPECT_EQ(snaps.lines_written(), 2u);  // rounds 10 and 20
  snaps.write(25);                       // final flush
  snaps.write(25);                       // duplicate: suppressed
  EXPECT_EQ(snaps.lines_written(), 3u);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::uint64_t> rounds;
  while (std::getline(lines, line)) {
    ParsedSnapshot parsed;
    ASSERT_TRUE(parse_snapshot(line, &parsed)) << line;
    rounds.push_back(parsed.round);
  }
  EXPECT_EQ(rounds, (std::vector<std::uint64_t>{10, 20, 25}));
}

// --- engine / network integration -------------------------------------------

TEST(ObsIntegration, RegistryAgreesWithEngineCounters) {
  core::SmallWorldNetwork net =
      core::make_stable_ring({0.1, 0.3, 0.5, 0.7, 0.9});
  Registry registry;
  net.attach_metrics(registry);
  net.run_rounds(20);
  const auto& counters = net.engine().counters();
  EXPECT_EQ(registry.find_counter("engine.messages.delivered")->value(),
            counters.deliveries);
  EXPECT_EQ(registry.find_counter("engine.messages.sent")->value(),
            counters.total_sent());
  EXPECT_EQ(registry.find_counter("engine.rounds")->value(), 20u);
  EXPECT_DOUBLE_EQ(registry.find_gauge("engine.processes")->value(), 5.0);
  // Protocol activity reached the node.* counters too.
  EXPECT_GT(registry.find_counter("node.lrl.moves")->value(), 0u);
}

TEST(ObsIntegration, JoinedNodesInheritTheMetricsSink) {
  core::SmallWorldNetwork net = core::make_stable_ring({0.2, 0.8});
  Registry registry;
  net.attach_metrics(registry);
  ASSERT_TRUE(net.join(0.5, 0.2));
  const std::uint64_t before =
      registry.find_counter("node.linearize.adoptions")->value();
  net.run_rounds(30);
  // The joiner linearizes into place; its events must land in the registry.
  EXPECT_GT(registry.find_counter("node.linearize.adoptions")->value(), before);
  EXPECT_TRUE(net.sorted_ring());
}

TEST(ObsIntegration, AttachingIsNotRetroactive) {
  core::SmallWorldNetwork net = core::make_stable_ring({0.1, 0.5, 0.9});
  net.run_rounds(4);
  const sim::EngineCounters before = net.engine().counters();
  Registry registry;
  net.attach_metrics(registry);
  EXPECT_EQ(registry.find_counter("engine.messages.delivered")->value(), 0u);
  EXPECT_EQ(registry.find_counter("node.lrl.moves")->value(), 0u);
  net.run_rounds(4);
  EXPECT_EQ(registry.find_counter("engine.messages.delivered")->value(),
            net.engine().counters().deliveries - before.deliveries);
  EXPECT_EQ(registry.find_counter("engine.rounds")->value(), 4u);
}

// --- lifetimes ---------------------------------------------------------------
// Counter views co-own the blocks they read, so a registry and the network
// (and lookup manager) it is attached to may die in either order.  CI runs
// these under ASan.

service::LookupConfig small_lookup_load() {
  service::LookupConfig config;
  config.rate = 2.0;
  return config;
}

TEST(ObsLifetime, RegistryMayDieBeforeTheNetwork) {
  // The order of perfbench's crash unit and measure_slo: the registry is
  // declared after the network, so it is destroyed first.
  util::Rng rng(3);
  core::NetworkOptions options;
  options.protocol.detector.enabled = true;
  core::SmallWorldNetwork net =
      core::make_stable_ring(core::random_ids(32, rng), options);
  auto registry = std::make_unique<Registry>();
  net.attach_metrics(*registry);
  std::optional<service::LookupManager> manager;
  manager.emplace(net, small_lookup_load());
  manager->attach_metrics(*registry);
  net.run_rounds(32);
  EXPECT_EQ(registry->find_counter("engine.messages.sent")->value(),
            net.engine().counters().total_sent());
  EXPECT_EQ(registry->find_counter("service.lookup.issued")->value(),
            manager->totals().issued);
  manager.reset();
  registry.reset();
  // The network keeps its own counts and is torn down without the registry.
  EXPECT_EQ(net.engine().counters().rounds, 32u);
}

TEST(ObsLifetime, RegistryIsReadAfterTheNetworkIsGone) {
  // sssw_sim's `load`: the old network is destroyed while the registry
  // lives on, and a snapshot may be written before anything re-attaches.
  Registry registry;
  std::uint64_t sent = 0, deliveries = 0, issued = 0, moves = 0;
  {
    util::Rng rng(5);
    core::SmallWorldNetwork net = core::make_stable_ring(core::random_ids(32, rng));
    net.attach_metrics(registry);
    {
      service::LookupManager manager(net, small_lookup_load());
      manager.attach_metrics(registry);
      net.run_rounds(32);
      issued = manager.totals().issued;
    }
    sent = net.engine().counters().total_sent();
    deliveries = net.engine().counters().deliveries;
    moves = registry.find_counter("node.lrl.moves")->value();
  }
  EXPECT_EQ(registry.find_counter("engine.messages.sent")->value(), sent);
  EXPECT_EQ(registry.find_counter("engine.messages.delivered")->value(), deliveries);
  EXPECT_EQ(registry.find_counter("service.lookup.issued")->value(), issued);
  EXPECT_EQ(registry.find_counter("node.lrl.moves")->value(), moves);
  EXPECT_GT(issued, 0u);
  EXPECT_GT(moves, 0u);
}

TEST(ObsLifetime, ReattachingToASecondNetworkKeepsAccumulating) {
  Registry registry;
  util::Rng rng(9);
  core::SmallWorldNetwork net = core::make_stable_ring(core::random_ids(16, rng));
  net.attach_metrics(registry);
  net.run_rounds(10);
  const std::uint64_t first_sent = net.engine().counters().total_sent();
  const std::uint64_t first_moves = registry.find_counter("node.lrl.moves")->value();
  // Replace the network (move assignment destroys the old one), run it a
  // while unattached, then attach the same registry.
  net = core::make_stable_ring(core::random_ids(16, rng));
  net.run_rounds(5);
  EXPECT_EQ(registry.find_counter("engine.messages.sent")->value(), first_sent);
  const sim::EngineCounters before = net.engine().counters();
  net.attach_metrics(registry);
  net.run_rounds(10);
  EXPECT_EQ(registry.find_counter("engine.rounds")->value(), 20u);
  EXPECT_EQ(registry.find_counter("engine.messages.sent")->value(),
            first_sent + net.engine().counters().total_sent() - before.total_sent());
  EXPECT_GT(registry.find_counter("node.lrl.moves")->value(), first_moves);
}

TEST(ObsIntegration, MovedNetworkKeepsReportingItsOwnGauges) {
  // The per-round gauge hook must follow the network through a move: a
  // moved twin reports exactly what an unmoved one does, including the
  // quarantine gauge, which walks the membership every round.
  core::NetworkOptions options;
  options.seed = 64;
  options.protocol.detector.enabled = true;
  const auto build = [&] {
    util::Rng rng(64);
    return core::make_stable_ring(core::random_ids(64, rng), options);
  };
  core::SmallWorldNetwork stay = build();
  Registry stay_registry;
  stay.attach_metrics(stay_registry);
  core::SmallWorldNetwork source = build();
  Registry moved_registry;
  source.attach_metrics(moved_registry);
  core::SmallWorldNetwork moved = std::move(source);

  stay.run_rounds(12);
  moved.run_rounds(12);
  const std::vector<sim::Id> ids(stay.engine().id_span().begin(),
                                 stay.engine().id_span().end());
  for (std::size_t i = 3; i < ids.size(); i += 10) {
    ASSERT_TRUE(stay.crash(ids[i]));
    ASSERT_TRUE(moved.crash(ids[i]));
  }
  double peak = 0.0;
  for (int round = 0; round < 150; ++round) {
    stay.run_rounds(1);
    moved.run_rounds(1);
    const double want = stay_registry.find_gauge("node.detector.quarantined")->value();
    ASSERT_EQ(moved_registry.find_gauge("node.detector.quarantined")->value(), want)
        << "round " << round;
    ASSERT_EQ(moved_registry.find_gauge("invariants.sorted-pairs")->value(),
              stay_registry.find_gauge("invariants.sorted-pairs")->value());
    ASSERT_EQ(moved_registry.find_gauge("invariants.unresolved-lrls")->value(),
              stay_registry.find_gauge("invariants.unresolved-lrls")->value());
    peak = std::max(peak, want);
  }
  EXPECT_GT(peak, 0.0) << "the crashes never reached a quarantine list";
}

// --- pinned export -----------------------------------------------------------
// The metrics.jsonl lines of two small runs, recorded literally: a crash-mode
// E14 trial (engine.*, faults.*, node.* including the detector counters,
// invariants.* and the engine gauges) and an E15 SLO trial, which adds the
// service.lookup.* counters, the pending gauge and the lookup histograms.
// Any change to what is counted, when, or how it is exported shows up here.

constexpr const char* kCrashRecoveryLine =
    R"({"round":0,"counters":{"engine.actions":85844,)"
    R"("engine.messages.delivered":75478,"engine.messages.dropped":1226,)"
    R"("engine.messages.lost":1588,"engine.messages.sent":78649,)"
    R"("engine.rounds":273,"engine.timers.fired":2065,)"
    R"("faults.messages.delayed":0,"faults.messages.duplicated":0,)"
    R"("faults.messages.partition-dropped":0,"faults.messages.replayed":0,)"
    R"("node.detector.acks":5302,"node.detector.evictions":10,)"
    R"("node.detector.pongs":5118,"node.detector.probes":5488,)"
    R"("node.detector.quarantine.hits":253,"node.detector.rescues":0,)"
    R"("node.detector.retries":26,"node.detector.suspects":13,)"
    R"("node.linearize.adoptions":12,"node.linearize.forwards":15641,)"
    R"("node.lrl.forgets":1368,"node.lrl.moves":7530,)"
    R"("node.lrl.resets":1374,"node.probe.repairs":6,)"
    R"("node.ring.updates":1,"node.service.dead-skips":0,)"
    R"("node.service.forwards":0,"node.service.hits":0,)"
    R"("node.service.misses":0,"node.service.repairs":0,)"
    R"("node.service.ttl-drops":0},"gauges":{"engine.channel.depth":324,)"
    R"("engine.processes":29,"invariants.forgot-nodes":29,)"
    R"("invariants.ring-closed":1,"invariants.sorted-pairs":29,)"
    R"("invariants.unresolved-lrls":1,"node.detector.quarantined":3},)"
    R"("histograms":{}})";

constexpr const char* kSloLine =
    R"({"round":0,"counters":{"engine.actions":381620,)"
    R"("engine.messages.delivered":342602,"engine.messages.dropped":882,)"
    R"("engine.messages.lost":0,"engine.messages.sent":341704,)"
    R"("engine.rounds":1064,"engine.timers.fired":7778,)"
    R"("faults.messages.delayed":0,"faults.messages.duplicated":0,)"
    R"("faults.messages.partition-dropped":0,"faults.messages.replayed":0,)"
    R"("node.detector.acks":20764,"node.detector.evictions":6,)"
    R"("node.detector.pongs":20764,"node.detector.probes":20818,)"
    R"("node.detector.quarantine.hits":894,"node.detector.rescues":0,)"
    R"("node.detector.retries":14,"node.detector.suspects":7,)"
    R"("node.linearize.adoptions":11,"node.linearize.forwards":60112,)"
    R"("node.lrl.forgets":6128,"node.lrl.moves":31083,)"
    R"("node.lrl.resets":6129,"node.probe.repairs":5,)"
    R"("node.ring.updates":0,"node.service.dead-skips":807,)"
    R"("node.service.forwards":16374,"node.service.hits":1985,)"
    R"("node.service.misses":1,"node.service.repairs":0,)"
    R"("node.service.ttl-drops":0,"service.lookup.attempts":2104,)"
    R"("service.lookup.deadletter.no-progress":0,)"
    R"("service.lookup.deadletter.target-dead":1,)"
    R"("service.lookup.deadletter.timeout":0,)"
    R"("service.lookup.deadletter.ttl":0,"service.lookup.failed":1,)"
    R"("service.lookup.hedges":0,"service.lookup.issued":2000,)"
    R"("service.lookup.retries":104,"service.lookup.stale":0,)"
    R"("service.lookup.succeeded":1981},)"
    R"("gauges":{"engine.channel.depth":289,"engine.processes":29,)"
    R"("invariants.forgot-nodes":29,"invariants.ring-closed":1,)"
    R"("invariants.sorted-pairs":29,"invariants.unresolved-lrls":0,)"
    R"("node.detector.quarantined":0,"service.lookup.pending":18},)"
    R"("histograms":{"service.lookup.hops":{"count":1981,"sum":14849,)"
    R"("min":1,"max":39,"buckets":[[1,145],[2,170],[4,358],[8,596],[16,)"
    R"(590],[32,116],[64,6]]},"service.lookup.latency":{"count":1981,)"
    R"("sum":26338,"min":3,"max":175,"buckets":[[4,312],[8,680],[16,740],)"
    R"([32,150],[64,3],[128,90],[256,6]]}}})";

TEST(ObsExport, CrashRecoveryLineIsPinned) {
  analysis::SweepCell cell;
  cell.experiment = "e14-recovery";
  cell.params = "crash=0.1;loss=0.02;mode=crash";
  cell.n = 32;
  cell.trials = 1;
  cell.seed = 7;
  Registry registry;
  analysis::find_experiment(cell.experiment)->run(cell, &registry);
  EXPECT_EQ(to_jsonl(registry, 0), kCrashRecoveryLine);
}

TEST(ObsExport, SloLineIsPinned) {
  service::SloOptions options;
  options.n = 32;
  options.base_seed = 7;
  options.crash_frac = 0.1;
  options.warm_rounds = 64;
  options.lookup.rate = 2.0;
  Registry registry;
  service::measure_slo(options, &registry);
  EXPECT_EQ(to_jsonl(registry, 0), kSloLine);
}

// --- documentation coverage --------------------------------------------------

TEST(ObsDocs, EveryEmittedMetricNameIsDocumented) {
  // Register every metric the codebase can emit...
  Registry registry;
  core::SmallWorldNetwork net = core::make_stable_ring({0.25, 0.75});
  net.attach_metrics(registry);
  service::LookupManager lookups(net, service::LookupConfig{});
  lookups.attach_metrics(registry);

  // ...then require each name to appear in doc/OBSERVABILITY.md.
  const std::string doc_path = std::string(SSSW_SOURCE_DIR) + "/doc/OBSERVABILITY.md";
  std::ifstream in(doc_path);
  ASSERT_TRUE(in.good()) << "cannot open " << doc_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();

  std::vector<std::string> names;
  for (const auto& [name, metric] : registry.counters()) names.push_back(name);
  for (const auto& [name, metric] : registry.gauges()) names.push_back(name);
  for (const auto& [name, metric] : registry.histograms()) names.push_back(name);
  // engine(13) + node(22) + invariants(4) + service(14)
  ASSERT_GE(names.size(), 53u);
  for (const std::string& name : names)
    EXPECT_NE(doc.find('`' + name + '`'), std::string::npos)
        << "metric `" << name << "` is not documented in doc/OBSERVABILITY.md";
}

}  // namespace
}  // namespace sssw::obs
