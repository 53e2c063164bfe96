// Tests for the active failure detector (core/detector) and crash recovery:
// the detector's unit-level state machine, the baseline wedge that motivates
// it (ISSUE 5's regression satellite), the headline property — 10% of nodes
// crashing mid-stabilization under 5% message loss re-converges to the
// sorted ring over survivors on every scheduler, deterministically — and the
// bit-identical-baseline contract with the detector off.
#include "core/detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/invariants.hpp"
#include "core/messages.hpp"
#include "core/network.hpp"
#include "obs/registry.hpp"
#include "support/reference_detector.hpp"
#include "topology/initial_states.hpp"
#include "util/rng.hpp"

namespace sssw::core {
namespace {

using sim::Id;

// --- FailureDetector unit tests --------------------------------------------

DetectorConfig small_config() {
  DetectorConfig d;
  d.enabled = true;
  d.probe_period = 4;
  d.suspect_threshold = 2;
  d.max_retries = 1;
  d.quarantine_rounds = 20;
  d.quarantine_capacity = 2;
  return d;
}

/// One tick against a single watched pointer (role l); the other roles idle.
void tick_one(FailureDetector& det, std::uint64_t now, Id target) {
  const Id pointers[] = {target, sim::kPosInf, 0.5, 0.5};
  det.tick(now, pointers);
}

TEST(FailureDetector, SilenceEscalatesToSuspicionRetriesAndEviction) {
  FailureDetector det(0.5, small_config(), 1);
  // Ticks 1..2: healthy probes, the second crosses suspect_threshold = 2.
  tick_one(det, 4, 0.3);
  ASSERT_EQ(det.probes().size(), 1u);
  EXPECT_FALSE(det.probes()[0].retry);
  EXPECT_FALSE(det.probes()[0].suspect);
  EXPECT_FALSE(det.is_suspect(0.3));
  tick_one(det, 8, 0.3);
  ASSERT_EQ(det.probes().size(), 1u);
  EXPECT_TRUE(det.probes()[0].suspect);
  EXPECT_TRUE(det.is_suspect(0.3));
  // Tick 3: the single backoff retry (cooldown 2 ticks follows).
  tick_one(det, 12, 0.3);
  ASSERT_EQ(det.probes().size(), 1u);
  EXPECT_TRUE(det.probes()[0].retry);
  EXPECT_TRUE(det.evictions().empty());
  // Ticks 4..5: cooldown, no traffic.
  tick_one(det, 16, 0.3);
  tick_one(det, 20, 0.3);
  EXPECT_TRUE(det.probes().empty());
  EXPECT_TRUE(det.evictions().empty());
  // Tick 6: retries exhausted — evict and quarantine.
  tick_one(det, 24, 0.3);
  ASSERT_EQ(det.evictions().size(), 1u);
  EXPECT_EQ(det.evictions()[0].role, FailureDetector::kRoleL);
  EXPECT_DOUBLE_EQ(det.evictions()[0].target, 0.3);
  EXPECT_TRUE(det.is_quarantined(0.3, 24));
  EXPECT_TRUE(det.is_quarantined(0.3, 43));
  EXPECT_FALSE(det.is_quarantined(0.3, 44));  // expiry = 24 + 20
  EXPECT_FALSE(det.is_suspect(0.3));          // monitor reset after eviction
}

TEST(FailureDetector, PongResetsCountersAndCachesTheView) {
  FailureDetector det(0.5, small_config(), 1);
  tick_one(det, 4, 0.3);
  det.on_pong(0.3, 0.2, 0.4);
  tick_one(det, 8, 0.3);  // the pong forgave the first miss
  ASSERT_EQ(det.probes().size(), 1u);
  EXPECT_FALSE(det.probes()[0].suspect);
  // Silence from here: suspicion at tick 3, retry at 4, cooldown 5..6,
  // eviction at tick 7 — carrying the cached view for the re-link.
  for (std::uint64_t now = 12; det.evictions().empty(); now += 4) {
    ASSERT_LE(now, 60u) << "eviction never happened";
    tick_one(det, now, 0.3);
  }
  EXPECT_DOUBLE_EQ(det.evictions()[0].via_l, 0.2);
  EXPECT_DOUBLE_EQ(det.evictions()[0].via_r, 0.4);
}

TEST(FailureDetector, PointerChangeRewatchesFromScratch) {
  FailureDetector det(0.5, small_config(), 1);
  tick_one(det, 4, 0.3);
  tick_one(det, 8, 0.3);  // 0.3 now suspected
  EXPECT_TRUE(det.is_suspect(0.3));
  tick_one(det, 12, 0.2);  // the protocol moved l: fresh monitor, no carryover
  EXPECT_FALSE(det.is_suspect(0.2));
  EXPECT_FALSE(det.is_suspect(0.3));
  ASSERT_EQ(det.probes().size(), 1u);
  EXPECT_FALSE(det.probes()[0].suspect);
}

TEST(FailureDetector, QuarantineIsBoundedFifoWithRefresh) {
  DetectorConfig d = small_config();  // capacity 2
  d.quarantine_rounds = 1000;         // keep entries alive across the test
  FailureDetector det(0.5, d, 1);
  const auto evict = [&](Id target, std::uint64_t start) {
    std::uint64_t now = start;
    do {
      tick_one(det, now, target);
      now += 4;
    } while (det.evictions().empty());
    return now - 4;  // the tick that evicted
  };
  const std::uint64_t t1 = evict(0.1, 0);
  EXPECT_TRUE(det.is_quarantined(0.1, t1));
  const std::uint64_t t2 = evict(0.2, t1 + 4);
  EXPECT_EQ(det.quarantined_count(t2), 2u);
  const std::uint64_t t3 = evict(0.3, t2 + 4);
  // Capacity 2: the oldest entry (0.1) was forgotten to admit 0.3.
  EXPECT_FALSE(det.is_quarantined(0.1, t3));
  EXPECT_TRUE(det.is_quarantined(0.2, t3));
  EXPECT_TRUE(det.is_quarantined(0.3, t3));
  EXPECT_EQ(det.quarantined_count(t3), 2u);
}

// The O(1) summaries (a count of suspected monitors, the latest quarantine
// expiry) may only skip scans whose answer they already know.  Drive the
// production detector and the scan-only reference through the same random
// ticks and pongs and compare every output and every answer after each step.
TEST(FailureDetector, SummariesAnswerLikeTheScanOnlyReference) {
  const DetectorConfig config = small_config();  // capacity 2, 20 rounds
  constexpr std::uint32_t kLinks = 3;
  const Id self = 0.5;
  FailureDetector det(self, config, kLinks);
  testing::ReferenceDetector ref(self, config, kLinks);
  const std::vector<Id> ids = {0.1, 0.2, 0.3, 0.6, 0.7, 0.8};
  std::vector<Id> pool = ids;  // what a pointer or a query may hold
  pool.insert(pool.end(), {sim::kNegInf, sim::kPosInf, self});
  std::vector<Id> pointers(FailureDetector::kRoleLrlBase + kLinks, sim::kPosInf);
  std::vector<std::uint64_t> expiry(ids.size(), 0);  // latest set per id
  util::Rng rng(20120521);
  std::uint64_t now = 0;
  std::size_t suspicions = 0, evictions = 0, refreshes = 0, drops = 0,
              expiries = 0;
  for (int step = 0; step < 20000; ++step) {
    if (rng.coin()) {
      // A tick: most pointers stay put (so silence can reach eviction),
      // a few move, and time advances 1-8 rounds.
      for (Id& p : pointers) {
        if (rng.below(10) == 0) p = pool[rng.below(pool.size())];
      }
      std::vector<bool> was_quarantined(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        was_quarantined[i] = ref.is_quarantined(ids[i], now);
      }
      now += 1 + rng.below(8);
      det.tick(now, pointers);
      ref.tick(now, pointers);
      ASSERT_EQ(det.probes().size(), ref.probes().size()) << "step " << step;
      for (std::size_t i = 0; i < ref.probes().size(); ++i) {
        EXPECT_EQ(det.probes()[i].target, ref.probes()[i].target);
        EXPECT_EQ(det.probes()[i].retry, ref.probes()[i].retry);
        EXPECT_EQ(det.probes()[i].suspect, ref.probes()[i].suspect);
        suspicions += ref.probes()[i].suspect ? 1 : 0;
      }
      ASSERT_EQ(det.evictions().size(), ref.evictions().size())
          << "step " << step;
      for (std::size_t i = 0; i < ref.evictions().size(); ++i) {
        const auto& ev = ref.evictions()[i];
        EXPECT_EQ(det.evictions()[i].role, ev.role);
        EXPECT_EQ(det.evictions()[i].target, ev.target);
        EXPECT_EQ(det.evictions()[i].via_l, ev.via_l);
        EXPECT_EQ(det.evictions()[i].via_r, ev.via_r);
        const auto at = std::find(ids.begin(), ids.end(), ev.target);
        ASSERT_NE(at, ids.end());
        const auto k = static_cast<std::size_t>(at - ids.begin());
        ++evictions;
        refreshes += was_quarantined[k] ? 1 : 0;
        expiry[k] = now + config.quarantine_rounds;
        std::replace(pointers.begin(), pointers.end(), ev.target,
                     sim::kPosInf);  // the node purges the dead id
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (!was_quarantined[i] || ref.is_quarantined(ids[i], now)) continue;
        ++(expiry[i] <= now ? expiries : drops);  // drop: FIFO overflow
      }
    } else {
      const Id responder = pool[rng.below(pool.size())];
      const Id view_l = pool[rng.below(pool.size())];
      const Id view_r = pool[rng.below(pool.size())];
      det.on_pong(responder, view_l, view_r);
      ref.on_pong(responder, view_l, view_r);
    }
    for (const Id id : pool) {
      ASSERT_EQ(det.is_suspect(id), ref.is_suspect(id))
          << "step " << step << " id " << id;
      ASSERT_EQ(det.is_quarantined(id, now), ref.is_quarantined(id, now))
          << "step " << step << " id " << id;
    }
    ASSERT_EQ(det.quarantined_count(now), ref.quarantined_count(now))
        << "step " << step;
  }
  // The walk reached every path the summaries shortcut.
  EXPECT_GT(suspicions, 100u);
  EXPECT_GT(evictions, 100u);
  EXPECT_GT(refreshes, 0u);
  EXPECT_GT(drops, 0u);
  EXPECT_GT(expiries, 0u);
}

// --- the baseline wedge (regression satellite) -----------------------------

TEST(CrashRecovery, CrashWithoutDetectorWedgesTheSortedList) {
  // The state ISSUE 5 exists to repair: a crash-stop failure with no
  // detector leaves the dead id wedged in its neighbours' pointers — the
  // survivors never form the sorted list again, exactly as Network::crash
  // documents.  If this test ever fails, the baseline protocol learned to
  // heal crashes and the detector's premise should be re-examined.
  util::Rng rng(20120521);
  auto ids = random_ids(16, rng);
  SmallWorldNetwork net = make_stable_ring(ids);
  const auto sorted = [&ids]() {
    std::vector<Id> s = ids;
    std::sort(s.begin(), s.end());
    return s;
  }();
  const Id dead = sorted[7];
  const Id pred = sorted[6];
  const Id succ = sorted[8];
  net.run_rounds(8);
  ASSERT_TRUE(net.crash(dead));
  EXPECT_FALSE(net.run_until_sorted_list(4000).has_value());
  // The stale-pointer state the detector must repair: both neighbours still
  // point at the dead identifier thousands of rounds later.
  EXPECT_DOUBLE_EQ(net.node(pred)->r(), dead);
  EXPECT_DOUBLE_EQ(net.node(succ)->l(), dead);
}

// --- the headline property -------------------------------------------------

struct CrashRun {
  std::uint64_t rounds = 0;
  sim::EngineCounters counters;
  bool healed = false;
};

/// Crashes 10% of n nodes mid-stabilization under 5% message loss with the
/// detector on, runs to the sorted ring over survivors, and returns the full
/// counter state for twin-run comparison.
CrashRun run_crash_scenario(sim::SchedulerKind scheduler, std::uint64_t seed) {
  const std::size_t n = 20;
  util::Rng rng(seed);
  auto ids = random_ids(n, rng);
  NetworkOptions options;
  options.scheduler = scheduler;
  options.seed = seed;
  options.message_loss = 0.05;
  options.protocol.detector.enabled = true;
  SmallWorldNetwork net = make_stable_ring(std::move(ids), options);
  net.run_rounds(24);  // move-and-forget and the probe clock are mid-flight
  // Crash 10% deterministically (a dedicated stream, not the engine's).
  util::Rng pick(seed ^ 0xabcdef);
  const auto live_span = net.engine().id_span();
  std::vector<sim::Id> live(live_span.begin(), live_span.end());
  for (std::size_t i = 0; i < n / 10; ++i) {
    const std::size_t j = i + pick.below(live.size() - i);
    std::swap(live[i], live[j]);
    EXPECT_TRUE(net.crash(live[i]));
  }

  CrashRun result;
  result.healed = net.run_until_sorted_ring(30000).has_value();
  result.rounds = net.engine().round();
  result.counters = net.engine().counters();
  return result;
}

TEST(CrashRecovery, TenPercentCrashFivePercentLossHealsOnEveryScheduler) {
  for (const sim::SchedulerKind scheduler : sim::kAllSchedulers) {
    CrashRun run = run_crash_scenario(scheduler, 99);
    EXPECT_TRUE(run.healed) << "scheduler " << sim::to_string(scheduler);
  }
}

TEST(CrashRecovery, TwinRunsAreBitIdenticalPerSeed) {
  for (const sim::SchedulerKind scheduler : sim::kAllSchedulers) {
    const CrashRun a = run_crash_scenario(scheduler, 7);
    const CrashRun b = run_crash_scenario(scheduler, 7);
    EXPECT_EQ(a.healed, b.healed) << sim::to_string(scheduler);
    EXPECT_EQ(a.rounds, b.rounds) << sim::to_string(scheduler);
    EXPECT_EQ(a.counters.actions, b.counters.actions);
    EXPECT_EQ(a.counters.deliveries, b.counters.deliveries);
    EXPECT_EQ(a.counters.dropped, b.counters.dropped);
    EXPECT_EQ(a.counters.lost, b.counters.lost);
    EXPECT_EQ(a.counters.timers, b.counters.timers);
    EXPECT_EQ(a.counters.sent_by_type, b.counters.sent_by_type);
    // A different seed is a different trajectory (the loss and crash picks
    // actually bite) — guards against the scenario degenerating to a no-op.
    const CrashRun c = run_crash_scenario(scheduler, 8);
    EXPECT_NE(a.counters.sent_by_type, c.counters.sent_by_type)
        << sim::to_string(scheduler);
  }
}

// --- crash scenarios -------------------------------------------------------

/// A stable ring of n nodes with the detector on, run 4n rounds to spread
/// the lrls (which also proves live links survive the detector).
SmallWorldNetwork detected_ring(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  NetworkOptions options;
  options.seed = seed;
  options.protocol.detector.enabled = true;
  SmallWorldNetwork net = make_stable_ring(random_ids(n, rng), options);
  net.run_rounds(4 * n);
  return net;
}

TEST(FailureDetector, CrashWithDetectorHeals) {
  SmallWorldNetwork net = detected_ring(32, 3);
  const auto ids = net.engine().id_span();
  ASSERT_TRUE(net.crash(ids[10]));
  const auto rounds = net.run_until_sorted_ring(20000);
  ASSERT_TRUE(rounds.has_value());
  // Healing time ≈ detection latency + polylog repair, far below O(n) rounds.
  EXPECT_LT(*rounds, 500u);
  EXPECT_EQ(net.size(), 31u);
}

TEST(FailureDetector, CrashOfMaxHeals) {
  SmallWorldNetwork net = detected_ring(24, 4);
  const auto ids = net.engine().id_span();
  ASSERT_TRUE(net.crash(ids.back()));
  ASSERT_TRUE(net.run_until_sorted_ring(20000).has_value());
  const auto survivors = net.engine().id_span();
  EXPECT_DOUBLE_EQ(net.node(survivors.front())->ring(), survivors.back());
  EXPECT_DOUBLE_EQ(net.node(survivors.back())->ring(), survivors.front());
}

TEST(FailureDetector, MultipleSimultaneousCrashesHeal) {
  SmallWorldNetwork net = detected_ring(48, 5);
  const std::vector<Id> ids(net.engine().id_span().begin(),
                            net.engine().id_span().end());
  // Crash three scattered, non-adjacent nodes at once.
  ASSERT_TRUE(net.crash(ids[5]));
  ASSERT_TRUE(net.crash(ids[20]));
  ASSERT_TRUE(net.crash(ids[35]));
  ASSERT_TRUE(net.run_until_sorted_ring(40000).has_value());
  EXPECT_EQ(net.size(), 45u);
}

TEST(FailureDetector, AdjacentCrashesHeal) {
  // A whole segment of the ring disappears: the survivors' pointers all
  // dangle into the hole.
  SmallWorldNetwork net = detected_ring(32, 6);
  const std::vector<Id> ids(net.engine().id_span().begin(),
                            net.engine().id_span().end());
  ASSERT_TRUE(net.crash(ids[10]));
  ASSERT_TRUE(net.crash(ids[11]));
  ASSERT_TRUE(net.crash(ids[12]));
  ASSERT_TRUE(net.run_until_sorted_ring(40000).has_value());
  EXPECT_DOUBLE_EQ(net.node(ids[9])->r(), ids[13]);
}

TEST(FailureDetector, LrlPointingAtCrashedNodeRecovers) {
  SmallWorldNetwork net = detected_ring(24, 7);
  const std::vector<Id> ids(net.engine().id_span().begin(),
                            net.engine().id_span().end());
  // Force several lrls onto the victim, then crash it.
  net.node(ids[2])->set_lrl(ids[15]);
  net.node(ids[20])->set_lrl(ids[15]);
  ASSERT_TRUE(net.crash(ids[15]));
  ASSERT_TRUE(net.run_until_sorted_ring(20000).has_value());
  // The dead endpoint was evicted; the links move again afterwards.
  net.run_rounds(50);
  EXPECT_NE(net.node(ids[2])->lrl(), ids[15]);
  EXPECT_NE(net.node(ids[20])->lrl(), ids[15]);
}

TEST(FailureDetector, CrashEpidemicIsContained) {
  // A crashed node's id circulates epidemically (reslrl candidates → lrl
  // adoptions → probes → stalled-probe linearize) and would re-poison the
  // gap faster than per-pointer evictions cull it; the quarantine stops
  // that.  A crash plus a full lrl scramble heals.
  SmallWorldNetwork net = detected_ring(40, 11);
  util::Rng rng(11);
  const auto ids = net.engine().id_span();
  const Id victim = ids[ids.size() / 2];
  // Point several lrls at the victim, then crash it mid-activity.
  for (int i = 0; i < 8; ++i)
    net.node(ids[rng.below(ids.size())])->set_lrl(victim);
  ASSERT_TRUE(net.crash(victim));
  net.run_rounds(3);  // let the dead id spread a little
  ASSERT_TRUE(net.run_until_sorted_ring(40000).has_value());
  net.run_rounds(100);
  EXPECT_TRUE(net.run_until_sorted_ring(2000).has_value());
}

TEST(FailureDetector, ChurnStormOfCrashesHeals) {
  SmallWorldNetwork net = detected_ring(48, 9);
  util::Rng rng(9);
  for (int wave = 0; wave < 4; ++wave) {
    const auto ids = net.engine().id_span();
    ASSERT_TRUE(net.crash(ids[rng.below(ids.size())]));
    net.run_rounds(16);  // next crash before full recovery
  }
  EXPECT_TRUE(net.run_until_sorted_ring(40000).has_value());
  EXPECT_EQ(net.size(), 44u);
}

TEST(FailureDetector, ConvergenceFromScratchStillWorks) {
  // The detector must not prevent ordinary stabilization: every stored
  // pointer is probed while the chain sorts, and the computation still
  // reaches the ring.
  util::Rng rng(8);
  NetworkOptions options;
  options.seed = 8;
  options.protocol.detector.enabled = true;
  SmallWorldNetwork net(options);
  auto ids = random_ids(48, rng);
  net.add_nodes(topology::make_initial_state(topology::InitialShape::kRandomChain,
                                             std::move(ids), rng));
  EXPECT_TRUE(net.run_until_sorted_ring(40000).has_value());
}

// --- accuracy: no false suspicion in healthy runs --------------------------

TEST(CrashRecovery, NoFalseSuspicionOnDeterministicSchedulers) {
  // suspect_threshold × probe_period = 12 rounds of silence before
  // suspicion, against a worst deterministic round-trip of 8 rounds
  // (adversarial-oldest-last at default hold 3): a live neighbour can never
  // look dead.  Random schedulers are excluded — an unlucky interleaving
  // can starve a single message arbitrarily long, and the detector is
  // *designed* to tolerate that via quarantine expiry, not avoid it.
  for (const sim::SchedulerKind scheduler :
       {sim::SchedulerKind::kSynchronous, sim::SchedulerKind::kAdversarialLifo,
        sim::SchedulerKind::kAdversarialOldestLast}) {
    util::Rng rng(5);
    NetworkOptions options;
    options.scheduler = scheduler;
    options.seed = 5;
    options.protocol.detector.enabled = true;
    SmallWorldNetwork net = make_stable_ring(random_ids(16, rng), options);
    obs::Registry registry;
    net.attach_metrics(registry);
    net.run_rounds(600);
    EXPECT_EQ(registry.counter("node.detector.suspects").value(), 0u)
        << sim::to_string(scheduler);
    EXPECT_EQ(registry.counter("node.detector.evictions").value(), 0u)
        << sim::to_string(scheduler);
    EXPECT_GT(registry.counter("node.detector.probes").value(), 0u);
    EXPECT_GT(registry.counter("node.detector.pongs").value(), 0u);
  }
}

// --- quarantine stops re-adoption ------------------------------------------

TEST(CrashRecovery, QuarantineBlocksStaleReintroduction) {
  // After the detector evicts a crashed id, a stale lin announcement (the
  // classic re-infection vector: it linearizes the dead id straight back
  // into l/r) must bounce off the quarantine.
  util::Rng rng(11);
  auto ids = random_ids(8, rng);
  NetworkOptions options;
  options.seed = 11;
  options.protocol.detector.enabled = true;
  SmallWorldNetwork net = make_stable_ring(ids, options);
  std::sort(ids.begin(), ids.end());
  const Id dead = ids[3];
  const Id witness = ids[2];
  net.run_rounds(12);
  ASSERT_TRUE(net.crash(dead));
  // Run until the witness's eviction has applied (r moved off the dead id) —
  // the quarantine clock starts there, so the injected replay lands well
  // inside the 64-round default window.
  ASSERT_TRUE(net.engine().run_until(
      [&] { return net.node(witness)->r() != dead; }, 4000));
  net.engine().inject(witness, sim::Message{kLin, dead});
  net.run_rounds(4);
  EXPECT_NE(net.node(witness)->r(), dead);
}

// --- detector-off baseline stays silent ------------------------------------

TEST(CrashRecovery, DisabledDetectorSendsNothingAndArmsNoTimer) {
  util::Rng rng(3);
  SmallWorldNetwork net = make_stable_ring(random_ids(12, rng));
  net.run_rounds(200);
  EXPECT_EQ(net.engine().counters().timers, 0u);
  EXPECT_EQ(net.engine().pending_timers(), 0u);
  EXPECT_EQ(net.engine().counters().sent_by_type[kPing], 0u);
  EXPECT_EQ(net.engine().counters().sent_by_type[kPong], 0u);
}

// --- the crash pick (fuzzer, E14, E15, sssw_sim --crash-frac) ---------------

TEST(CrashPick, KeepsTheVictimsOfTheFuzzerRecipe) {
  // ⌊0.25 · 16⌋ victims of random_ids(16, Rng(7)) under seed 7, in pick
  // order, as the fuzzer, E14, E15 and sssw_sim each drew them before they
  // shared one function.
  util::Rng rng(7);
  const std::vector<Id> live = random_ids(16, rng);
  EXPECT_EQ(crash_victims(live, 0.25, 7),
            (std::vector<Id>{0x1.b5767da98c6p-2, 0x1.c583400555d2p-5,
                             0x1.cf3305d746a18p-4, 0x1.f6f2fe9a2738p-1}));
}

TEST(CrashPick, ClampsToOneAndToAllButTwo) {
  util::Rng rng(7);
  const std::vector<Id> live = random_ids(16, rng);
  EXPECT_EQ(crash_victims(live, 0.01, 7).size(), 1u);
  EXPECT_EQ(crash_victims(live, 0.99, 7).size(), 14u);
}

TEST(CrashPick, ZeroFractionPicksNone) {
  util::Rng rng(7);
  EXPECT_TRUE(crash_victims(random_ids(16, rng), 0.0, 7).empty());
}

TEST(CrashPick, FewerThanThreeLiveNodesPicksNone) {
  const std::vector<Id> live{0.25, 0.75};
  EXPECT_TRUE(crash_victims(live, 0.5, 7).empty());
}

}  // namespace
}  // namespace sssw::core
