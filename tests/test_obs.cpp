// Tests for obs/: counter/gauge/histogram semantics, registry lookup and
// deterministic merge, JSONL snapshot round-trip, engine integration, and
// the doc/OBSERVABILITY.md coverage contract (every metric name the code
// can emit must be documented).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "obs/registry.hpp"
#include "obs/snapshotter.hpp"
#include "routing/greedy.hpp"
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

TEST(ObsIntegration, DetachStopsRecording) {
  core::SmallWorldNetwork net = core::make_stable_ring({0.1, 0.5, 0.9});
  Registry registry;
  net.attach_metrics(registry);
  net.run_rounds(4);
  const std::uint64_t frozen =
      registry.find_counter("engine.messages.delivered")->value();
  net.detach_metrics();
  net.run_rounds(4);
  EXPECT_EQ(registry.find_counter("engine.messages.delivered")->value(), frozen);
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

TEST(ObsIntegration, GreedyMetricsRecordRoutes) {
  Registry registry;
  routing::GreedyMetrics metrics(registry);
  metrics.record({.success = true, .hops = 4});
  metrics.record({.success = true, .hops = 2});
  metrics.record({.success = false, .hops = 9});
  EXPECT_EQ(registry.find_counter("routing.greedy.routes")->value(), 3u);
  EXPECT_EQ(registry.find_counter("routing.greedy.delivered")->value(), 2u);
  EXPECT_EQ(registry.find_counter("routing.greedy.deadends")->value(), 1u);
  const Histogram* hops = registry.find_histogram("routing.greedy.hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_EQ(hops->count(), 2u);  // failures contribute no hop sample
  EXPECT_DOUBLE_EQ(hops->sum(), 6.0);
}

// --- documentation coverage --------------------------------------------------

TEST(ObsDocs, EveryEmittedMetricNameIsDocumented) {
  // Register every metric the codebase can emit...
  Registry registry;
  core::SmallWorldNetwork net = core::make_stable_ring({0.25, 0.75});
  net.attach_metrics(registry);
  routing::GreedyMetrics greedy(registry);
  (void)greedy;

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
  ASSERT_GE(names.size(), 15u);  // engine(8) + node(8) + routing(4) at least
  for (const std::string& name : names)
    EXPECT_NE(doc.find('`' + name + '`'), std::string::npos)
        << "metric `" << name << "` is not documented in doc/OBSERVABILITY.md";
}

}  // namespace
}  // namespace sssw::obs
