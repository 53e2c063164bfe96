// Tests for sim/engine: registration, delivery, schedulers, determinism.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "obs/snapshotter.hpp"
#include "util/fnv.hpp"

namespace sssw::sim {
namespace {

/// Minimal instrumented process: records deliveries, counts regular actions,
/// optionally forwards each message to a fixed peer.
class Probe : public Process {
 public:
  explicit Probe(Id id, Id forward_to = kNegInf) : id_(id), forward_to_(forward_to) {}

  Id id() const noexcept override { return id_; }

  void on_message(Context& ctx, const Message& message) override {
    received.push_back(message);
    if (is_node_id(forward_to_)) ctx.send(forward_to_, message);
  }

  void on_regular(Context&) override { ++regular_actions; }

  std::vector<Message> received;
  int regular_actions = 0;

 private:
  Id id_;
  Id forward_to_;
};

Engine make_engine(SchedulerKind scheduler = SchedulerKind::kSynchronous,
                   std::uint64_t seed = 1) {
  return Engine(EngineConfig{.scheduler = scheduler, .seed = seed});
}

TEST(Engine, AddAndFind) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  EXPECT_EQ(engine.process_count(), 1u);
  EXPECT_TRUE(engine.contains(0.5));
  EXPECT_NE(engine.find(0.5), nullptr);
  EXPECT_EQ(engine.find(0.7), nullptr);
}

TEST(Engine, IdsAreSorted) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.add_process(std::make_unique<Probe>(0.1));
  engine.add_process(std::make_unique<Probe>(0.5));
  const auto ids = engine.id_span();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_DOUBLE_EQ(ids[0], 0.1);
  EXPECT_DOUBLE_EQ(ids[1], 0.5);
  EXPECT_DOUBLE_EQ(ids[2], 0.9);
}

TEST(Engine, RemoveProcess) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  EXPECT_TRUE(engine.remove_process(0.5));
  EXPECT_FALSE(engine.remove_process(0.5));
  EXPECT_EQ(engine.process_count(), 0u);
  EXPECT_FALSE(engine.contains(0.5));
}

TEST(Engine, RegularActionRunsEveryRound) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  engine.run_rounds(5);
  const auto* probe = dynamic_cast<const Probe*>(engine.find(0.5));
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->regular_actions, 5);
  EXPECT_EQ(engine.round(), 5u);
}

/// A process whose regular action sends one message to a peer.
class Sender final : public Probe {
 public:
  Sender(Id id, Id to) : Probe(id), to_(to) {}
  void on_regular(Context& ctx) override { ctx.send(to_, Message{2, id()}); }

 private:
  Id to_;
};

TEST(Engine, MessageDeliveredNextRound) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_round();  // round 1: send only
  const auto* receiver = dynamic_cast<const Probe*>(engine.find(0.9));
  ASSERT_NE(receiver, nullptr);
  EXPECT_TRUE(receiver->received.empty());
  EXPECT_EQ(engine.pending_messages(), 1u);
  engine.run_round();  // round 2: delivery
  ASSERT_EQ(receiver->received.size(), 1u);
  EXPECT_DOUBLE_EQ(receiver->received[0].id1, 0.1);
  EXPECT_EQ(receiver->received[0].type, 2);
}

TEST(Engine, SendToUnknownIsDroppedAndCounted) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.777));
  engine.run_round();
  EXPECT_EQ(engine.counters().dropped, 1u);
  EXPECT_EQ(engine.pending_messages(), 0u);
}

TEST(Engine, SelfSendWorks) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.5, 0.5));
  engine.run_rounds(2);
  const auto* probe = dynamic_cast<const Probe*>(engine.find(0.5));
  ASSERT_EQ(probe->received.size(), 1u);
}

TEST(Engine, CountersByType) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_rounds(3);
  EXPECT_EQ(engine.counters().sent_by_type[2], 3u);
  EXPECT_EQ(engine.counters().total_sent(), 3u);
  EXPECT_EQ(engine.counters().deliveries, 2u);  // last send still pending
  // A window is counted by diffing a copy; the counts only ever grow.
  const EngineCounters before = engine.counters();
  engine.run_rounds(2);
  EXPECT_EQ(engine.counters().total_sent() - before.total_sent(), 2u);
  EXPECT_EQ(engine.counters().deliveries - before.deliveries, 2u);
  EXPECT_EQ(engine.counters().rounds, 5u);
}

TEST(Engine, ForwardingChainTerminatesWithDrop) {
  // 0.1 → 0.5 → 0.9 → (0.3 does not exist: drop).
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.5));
  engine.add_process(std::make_unique<Probe>(0.5, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9, 0.3));
  engine.run_rounds(4);
  const auto* mid = dynamic_cast<const Probe*>(engine.find(0.5));
  const auto* end = dynamic_cast<const Probe*>(engine.find(0.9));
  EXPECT_GE(mid->received.size(), 2u);
  EXPECT_GE(end->received.size(), 1u);
  EXPECT_GE(engine.counters().dropped, 1u);
}

TEST(Engine, RunUntilStopsEarly) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  const auto* probe = dynamic_cast<const Probe*>(engine.find(0.5));
  const bool reached =
      engine.run_until([&] { return probe->regular_actions >= 3; }, 100);
  EXPECT_TRUE(reached);
  EXPECT_EQ(engine.round(), 3u);
}

TEST(Engine, RunUntilRespectsBudget) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  const bool reached = engine.run_until([] { return false; }, 7);
  EXPECT_FALSE(reached);
  EXPECT_EQ(engine.round(), 7u);
}

TEST(Engine, RunUntilTrueImmediately) {
  Engine engine = make_engine();
  EXPECT_TRUE(engine.run_until([] { return true; }, 10));
  EXPECT_EQ(engine.round(), 0u);
}

TEST(Engine, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    Engine engine = make_engine(SchedulerKind::kSynchronous, seed);
    engine.add_process(std::make_unique<Sender>(0.1, 0.5));
    engine.add_process(std::make_unique<Probe>(0.5, 0.9));
    engine.add_process(std::make_unique<Probe>(0.9, 0.1));
    engine.run_rounds(10);
    return engine.counters().total_sent();
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(Engine, AsyncSchedulerDeliversEverything) {
  Engine engine = make_engine(SchedulerKind::kRandomAsync, 3);
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_rounds(50);
  const auto* receiver = dynamic_cast<const Probe*>(engine.find(0.9));
  EXPECT_GT(receiver->received.size(), 0u);
}

TEST(Engine, AdversarialLifoStillDelivers) {
  Engine engine = make_engine(SchedulerKind::kAdversarialLifo, 3);
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_rounds(3);
  const auto* receiver = dynamic_cast<const Probe*>(engine.find(0.9));
  EXPECT_EQ(receiver->received.size(), 2u);
}

TEST(Engine, DelayedSchedulerEventuallyDelivers) {
  Engine engine = make_engine(SchedulerKind::kDelayedRandom, 5);
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_rounds(40);
  const auto* receiver = dynamic_cast<const Probe*>(engine.find(0.9));
  // ~40 sends, each delivered with prob 1/2 per round: nearly all arrive.
  EXPECT_GT(receiver->received.size(), 25u);
  EXPECT_LT(receiver->received.size(), 40u);
}

TEST(Engine, InjectPlacesMessage) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  EXPECT_TRUE(engine.inject(0.5, Message{3, 0.25}));
  EXPECT_FALSE(engine.inject(0.7, Message{3, 0.25}));
  EXPECT_EQ(engine.pending_messages(), 1u);
  engine.run_round();
  const auto* probe = dynamic_cast<const Probe*>(engine.find(0.5));
  ASSERT_EQ(probe->received.size(), 1u);
  EXPECT_EQ(probe->received[0].type, 3);
}

TEST(Engine, RemoveProcessPurgesReferences) {
  // Under every scheduler's channel storage: the leaver's own queue goes
  // uncounted; a leave drops (and counts) the references others hold; a
  // crash, which does not purge, leaves them in place.
  for (const SchedulerKind kind : kAllSchedulers) {
    SCOPED_TRACE(to_string(kind));
    for (const bool purge : {true, false}) {
      Engine engine = make_engine(kind);
      engine.add_process(std::make_unique<Probe>(0.1));
      engine.add_process(std::make_unique<Probe>(0.5));
      engine.add_process(std::make_unique<Probe>(0.7));
      engine.inject(0.5, Message{0, 0.1});          // queued for the leaver
      engine.inject(0.1, Message{0, 0.5});          // references the leaver
      engine.inject(0.7, Message{2, 0.9, 0.1, 0.5});  // ... in id3
      engine.inject(0.1, Message{0, 0.9});          // unrelated
      EXPECT_TRUE(engine.remove_process(0.5, purge));
      std::vector<std::pair<Id, Message>> left;
      engine.for_each_pending(
          [&](Id to, const Message& m) { left.emplace_back(to, m); });
      EXPECT_EQ(engine.pending_messages(), left.size());
      if (purge) {
        ASSERT_EQ(left.size(), 1u);  // only the unrelated one
        EXPECT_DOUBLE_EQ(left[0].second.id1, 0.9);
        EXPECT_EQ(engine.counters().dropped, 2u);
      } else {
        ASSERT_EQ(left.size(), 3u);  // the stale references stay in flight
        EXPECT_EQ(engine.counters().dropped, 0u);
      }
    }
  }
}

TEST(Engine, HooksChainAndRemoveIndividually) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  int first = 0, second = 0, rounds_a = 0, rounds_b = 0;
  const auto first_id = engine.add_send_hook([&](Id to, const Message& m) {
    EXPECT_DOUBLE_EQ(to, 0.9);
    EXPECT_EQ(m.type, 2);
    ++first;
  });
  engine.add_send_hook([&](Id, const Message&) { ++second; });
  const auto round_id = engine.add_round_hook([&](std::uint64_t) { ++rounds_a; });
  engine.add_round_hook([&](std::uint64_t) { ++rounds_b; });
  engine.run_rounds(3);
  // Sender emits once per round; both send observers saw all 3 sends.
  EXPECT_EQ(first, 3);
  EXPECT_EQ(second, 3);
  EXPECT_EQ(rounds_a, 3);
  EXPECT_EQ(rounds_b, 3);
  // Removing one hook leaves the others live.
  EXPECT_TRUE(engine.remove_send_hook(first_id));
  EXPECT_FALSE(engine.remove_send_hook(first_id));  // already gone
  EXPECT_TRUE(engine.remove_round_hook(round_id));
  engine.run_rounds(3);
  EXPECT_EQ(first, 3);
  EXPECT_EQ(second, 6);
  EXPECT_EQ(rounds_a, 3);
  EXPECT_EQ(rounds_b, 6);
}

TEST(Engine, RoundHookSeesRoundNumber) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.5));
  std::vector<std::uint64_t> seen;
  engine.add_round_hook([&](std::uint64_t round) { seen.push_back(round); });
  engine.run_rounds(3);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Engine, ForEachVisitsAscending) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.8));
  engine.add_process(std::make_unique<Probe>(0.2));
  std::vector<Id> seen;
  engine.for_each([&](const Process& p) { seen.push_back(p.id()); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_LT(seen[0], seen[1]);
}

TEST(Engine, ForEachPendingSeesChannelContents) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_round();
  int pending = 0;
  engine.for_each_pending([&](Id to, const Message& m) {
    EXPECT_DOUBLE_EQ(to, 0.9);
    EXPECT_DOUBLE_EQ(m.id1, 0.1);
    ++pending;
  });
  EXPECT_EQ(pending, 1);

  // Pushes interleaved across receivers are visited in rank order, then
  // push order within one receiver.
  engine.add_process(std::make_unique<Probe>(0.5));
  engine.inject(0.9, Message{1, 0.61});
  engine.inject(0.5, Message{1, 0.51});
  engine.inject(0.9, Message{1, 0.62});
  engine.inject(0.5, Message{1, 0.52});
  std::vector<std::pair<Id, Id>> seen;
  engine.for_each_pending(
      [&](Id to, const Message& m) { seen.emplace_back(to, m.id1); });
  EXPECT_EQ(seen, (std::vector<std::pair<Id, Id>>{
                      {0.5, 0.51}, {0.5, 0.52}, {0.9, 0.1}, {0.9, 0.61}, {0.9, 0.62}}));
}

TEST(Engine, DelayedRandomKeepsUnsampledAheadOfLaterArrivals) {
  // What a delayed-random receiver does not take this round stays at the
  // front of its channel, in its old order, ahead of this round's sends.
  Engine engine(EngineConfig{.scheduler = SchedulerKind::kDelayedRandom, .seed = 4});
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  for (int i = 1; i <= 20; ++i) engine.inject(0.9, Message{1, i / 100.0});
  engine.run_round();
  const auto* receiver = dynamic_cast<const Probe*>(engine.find(0.9));
  std::set<Id> taken;
  for (const Message& m : receiver->received) taken.insert(m.id1);
  ASSERT_GT(taken.size(), 0u);
  ASSERT_LT(taken.size(), 20u);
  std::vector<Id> expected;
  for (int i = 1; i <= 20; ++i)
    if (!taken.contains(i / 100.0)) expected.push_back(i / 100.0);
  expected.push_back(0.1);  // this round's send from the regular pass
  std::vector<Id> left;
  engine.for_each_pending([&](Id to, const Message& m) {
    EXPECT_DOUBLE_EQ(to, 0.9);
    left.push_back(m.id1);
  });
  EXPECT_EQ(left, expected);
}

TEST(Engine, DeliveryProbabilityValidated) {
  EXPECT_DEATH(Engine(EngineConfig{.delivery_probability = 0.0}),
               "delivery_probability");
  EXPECT_DEATH(Engine(EngineConfig{.delivery_probability = 1.5}),
               "delivery_probability");
}

TEST(Engine, MessageLossValidated) {
  // loss = 1 would be a network that delivers nothing — reject it loudly
  // along with everything outside [0, 1).
  EXPECT_DEATH(Engine(EngineConfig{.message_loss = 1.0}), "message_loss");
  EXPECT_DEATH(Engine(EngineConfig{.message_loss = -0.1}), "message_loss");
  EXPECT_DEATH(Engine(EngineConfig{.message_loss = 1.5}), "message_loss");
  Engine ok(EngineConfig{.message_loss = 0.99});  // boundary accepted
  EXPECT_EQ(ok.process_count(), 0u);
}

TEST(Engine, FaultPlanValidatedAtConstruction) {
  FaultPlan bad_probability;
  bad_probability.duplicate_probability = 1.0;
  EXPECT_DEATH(Engine(EngineConfig{.faults = bad_probability}),
               "duplicate_probability");
  FaultPlan missing_bound;
  missing_bound.delay_probability = 0.5;  // max_delay_rounds left at 0
  EXPECT_DEATH(Engine(EngineConfig{.faults = missing_bound}),
               "max_delay_rounds");
}

TEST(Engine, DelayedRandomHonorsDeliveryProbabilityOne) {
  // With delivery probability 1 the "slow channel" degenerates into the
  // synchronous scheduler: every pending message arrives the next round.
  Engine engine(EngineConfig{.scheduler = SchedulerKind::kDelayedRandom,
                             .seed = 3,
                             .delivery_probability = 1.0});
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_rounds(5);
  const auto* receiver = dynamic_cast<const Probe*>(engine.find(0.9));
  ASSERT_NE(receiver, nullptr);
  EXPECT_EQ(receiver->received.size(), 4u);  // round-k send arrives round k+1
}

TEST(Engine, DelayedRandomLowProbabilityBacklogs) {
  Engine slow(EngineConfig{.scheduler = SchedulerKind::kDelayedRandom,
                           .seed = 3,
                           .delivery_probability = 0.05});
  slow.add_process(std::make_unique<Sender>(0.1, 0.9));
  slow.add_process(std::make_unique<Probe>(0.9));
  slow.run_rounds(20);
  const auto* receiver = dynamic_cast<const Probe*>(slow.find(0.9));
  // One send per round, 20 rounds; at p=0.05 most must still be in flight,
  // and delivered + pending always accounts for every send.
  EXPECT_LT(receiver->received.size(), 10u);
  EXPECT_EQ(receiver->received.size() + slow.pending_messages(), 20u);
}

/// Records the order in which regular actions fire, for the canonical
/// scheduling-order contract tests.
class OrderSpy final : public Process {
 public:
  OrderSpy(Id id, std::vector<Id>* log) : id_(id), log_(log) {}
  Id id() const noexcept override { return id_; }
  void on_message(Context&, const Message&) override {}
  void on_regular(Context&) override { log_->push_back(id_); }

 private:
  Id id_;
  std::vector<Id>* log_;
};

TEST(Engine, AdversarialLifoRunsRegularActionsInAscendingIdOrder) {
  // The "fixed order" promised by kAdversarialLifo is the canonical id-sorted
  // order — independent of insertion history and of any container hash.
  std::vector<Id> log;
  Engine engine = make_engine(SchedulerKind::kAdversarialLifo);
  engine.add_process(std::make_unique<OrderSpy>(0.9, &log));
  engine.add_process(std::make_unique<OrderSpy>(0.1, &log));
  engine.add_process(std::make_unique<OrderSpy>(0.5, &log));
  engine.remove_process(0.5);
  engine.add_process(std::make_unique<OrderSpy>(0.3, &log));
  engine.run_round();
  EXPECT_EQ(log, (std::vector<Id>{0.1, 0.3, 0.9}));
}

TEST(Engine, IdsStaySortedAcrossChurn) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.8));
  engine.add_process(std::make_unique<Probe>(0.2));
  engine.add_process(std::make_unique<Probe>(0.5));
  engine.remove_process(0.5);
  engine.add_process(std::make_unique<Probe>(0.4));
  engine.add_process(std::make_unique<Probe>(0.05));
  engine.remove_process(0.8);
  const auto ids = engine.id_span();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(Engine, RemoveThenReAddSameIdRoutesToTheNewProcess) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Probe>(0.1));
  engine.add_process(std::make_unique<Probe>(0.5));
  engine.add_process(std::make_unique<Probe>(0.9));
  ASSERT_TRUE(engine.inject(0.5, Message{1, 0.1}));
  ASSERT_TRUE(engine.remove_process(0.5));
  EXPECT_FALSE(engine.contains(0.5));

  engine.add_process(std::make_unique<Probe>(0.5));
  const auto* fresh = dynamic_cast<const Probe*>(engine.find(0.5));
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(engine.contains(0.5));
  EXPECT_EQ(engine.pending_messages(), 0u);  // the old channel left with it
  ASSERT_TRUE(engine.inject(0.5, Message{2, 0.9}));
  engine.run_round();
  ASSERT_EQ(fresh->received.size(), 1u);
  EXPECT_EQ(fresh->received[0].type, 2);
  EXPECT_NE(engine.find(0.1), nullptr);
  EXPECT_NE(engine.find(0.9), nullptr);
  EXPECT_EQ(engine.process_count(), 3u);
}

TEST(Engine, PendingCountStaysConsistentAcrossChurnAndAsyncRounds) {
  // pending_messages() is maintained incrementally; this cross-checks it
  // against an exhaustive channel walk after every perturbation, for both
  // channel storages (random-async's channels, the others' log).
  for (const SchedulerKind kind :
       {SchedulerKind::kRandomAsync, SchedulerKind::kSynchronous,
        SchedulerKind::kAdversarialLifo, SchedulerKind::kDelayedRandom}) {
    SCOPED_TRACE(to_string(kind));
    Engine engine = make_engine(kind, 11);
    const auto audit = [&engine] {
      std::size_t counted = 0;
      engine.for_each_pending([&counted](Id, const Message&) { ++counted; });
      ASSERT_EQ(engine.pending_messages(), counted);
    };
    const std::vector<double> ring{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
    for (std::size_t i = 0; i < ring.size(); ++i)
      engine.add_process(
          std::make_unique<Sender>(ring[i], ring[(i + 1) % ring.size()]));
    audit();
    engine.run_rounds(3);
    audit();
    engine.inject(0.2, Message{1, 0.3});
    engine.inject(0.2, Message{1, 0.4});
    audit();
    engine.remove_process(0.3);  // clears 0.3's channel, purges references
    audit();
    engine.run_rounds(3);
    audit();
    engine.add_process(std::make_unique<Sender>(0.35, 0.2));
    engine.run_rounds(2);
    audit();
    engine.deliver_pending_once();
    audit();
    EXPECT_EQ(engine.pending_messages(), 0u);
  }
}

/// Runs a small forwarding network with interleaved add/remove churn under
/// `kind`, streaming every metrics snapshot to a string.  Determinism means
/// two invocations return byte-identical streams.
std::string churn_stream(SchedulerKind kind, std::uint64_t seed,
                         bool reversed_setup = false,
                         const FaultPlan& faults = {}) {
  obs::Registry registry;
  Engine engine(EngineConfig{.scheduler = kind, .seed = seed, .faults = faults});
  engine.attach_metrics(registry);
  std::ostringstream out;
  obs::Snapshotter snaps(registry, out, /*every=*/1);
  engine.add_round_hook([&snaps](std::uint64_t round) { snaps.poll(round); });

  // A fixed directed ring: each id's target depends only on the id itself,
  // so reversing the *registration* order leaves the topology unchanged.
  const std::vector<double> ring{0.1, 0.25, 0.4, 0.55, 0.7, 0.85};
  const auto target = [&ring](double id) {
    for (std::size_t i = 0; i < ring.size(); ++i)
      if (ring[i] == id) return ring[(i + 1) % ring.size()];
    return ring.front();
  };
  std::vector<double> ids = ring;
  if (reversed_setup) std::reverse(ids.begin(), ids.end());
  for (const double id : ids)
    engine.add_process(std::make_unique<Sender>(id, target(id)));
  engine.run_rounds(4);
  engine.add_process(std::make_unique<Sender>(0.15, 0.4));
  engine.run_rounds(2);
  engine.remove_process(0.55);
  engine.run_rounds(2);
  engine.add_process(std::make_unique<Sender>(0.95, 0.15));
  engine.remove_process(0.1);
  engine.run_rounds(4);
  snaps.write(engine.round());
  return out.str();
}

TEST(Engine, MetricsStreamIsBitReproducibleForEveryScheduler) {
  for (const SchedulerKind kind : kAllSchedulers) {
    const std::string first = churn_stream(kind, 7);
    const std::string second = churn_stream(kind, 7);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second) << "scheduler " << to_string(kind);
  }
}

TEST(Engine, TrajectoryIndependentOfInsertionOrder) {
  // Canonical order_ contract: the schedule is a function of the live id set
  // and the seed, not of the order in which processes were registered.
  for (const SchedulerKind kind : kAllSchedulers) {
    EXPECT_EQ(churn_stream(kind, 7, /*reversed_setup=*/false),
              churn_stream(kind, 7, /*reversed_setup=*/true))
        << "scheduler " << to_string(kind);
  }
}

TEST(Engine, MetricsStreamIsBitReproducibleWithFaultPlan) {
  // Same determinism contract on the fault path: identical (seed, scheduler,
  // FaultPlan) ⇒ identical JSONL, with every dimension firing at once.
  FaultPlan faults;
  faults.duplicate_probability = 0.3;
  faults.delay_probability = 0.3;
  faults.max_delay_rounds = 3;
  faults.partition_start = 2;
  faults.partition_rounds = 4;
  faults.partition_pivot = 0.5;
  faults.replay_probability = 0.2;
  faults.replay_history = 8;
  for (const SchedulerKind kind : kAllSchedulers) {
    const std::string first = churn_stream(kind, 7, false, faults);
    const std::string second = churn_stream(kind, 7, false, faults);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second) << "scheduler " << to_string(kind);
    // The plan must actually perturb the run, or this test pins nothing.
    EXPECT_NE(first, churn_stream(kind, 7)) << "scheduler " << to_string(kind);
  }
}

TEST(Engine, IdleFaultInjectorLeavesTrajectoryUntouched) {
  // An injector that never fires must leave the trajectory bit-identical to
  // having no fault layer at all.  A partition whose pivot nothing crosses
  // is the one active dimension that draws no randomness, so it exercises
  // the injector-present code path without perturbing anything.
  FaultPlan idle;
  idle.partition_start = 0;
  idle.partition_rounds = 1000;
  idle.partition_pivot = 0.0;  // every id is positive: no message crosses
  for (const SchedulerKind kind : kAllSchedulers)
    EXPECT_EQ(churn_stream(kind, 7), churn_stream(kind, 7, false, idle))
        << "scheduler " << to_string(kind);
}

TEST(Engine, MessagesToRemovedProcessDropped) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Sender>(0.1, 0.9));
  engine.add_process(std::make_unique<Probe>(0.9));
  engine.run_round();  // one message now pending for 0.9
  engine.remove_process(0.9);
  engine.run_rounds(2);
  EXPECT_GE(engine.counters().dropped, 2u);  // subsequent sends dropped
}

// --- timers ----------------------------------------------------------------

/// Records each on_timer firing as (round, tag); optionally re-arms with the
/// same delay, or sends a message to a peer from inside the callback.
class Alarm : public Process {
 public:
  explicit Alarm(Id id, std::uint32_t rearm_delay = 0, Id ping_to = kNegInf)
      : id_(id), rearm_delay_(rearm_delay), ping_to_(ping_to) {}

  Id id() const noexcept override { return id_; }
  void on_message(Context&, const Message& message) override {
    received.push_back(message);
  }
  void on_regular(Context&) override {}
  void on_timer(Context& ctx, std::uint64_t tag) override {
    fired.emplace_back(ctx.round(), tag);
    if (rearm_delay_ > 0) ctx.schedule_timer(rearm_delay_, tag);
    if (is_node_id(ping_to_)) ctx.send(ping_to_, Message{1, id_});
  }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> fired;
  std::vector<Message> received;

 private:
  Id id_;
  std::uint32_t rearm_delay_;
  Id ping_to_;
};

TEST(EngineTimers, FiresAtTheScheduledRoundBeforeDeliveries) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Alarm>(0.5, /*rearm_delay=*/0, /*ping_to=*/0.7));
  engine.add_process(std::make_unique<Probe>(0.7));
  engine.schedule_timer(0.5, 3, 42);
  EXPECT_EQ(engine.pending_timers(), 1u);
  engine.run_rounds(3);
  const auto* alarm = dynamic_cast<const Alarm*>(engine.find(0.5));
  ASSERT_NE(alarm, nullptr);
  EXPECT_TRUE(alarm->fired.empty());  // due at the round counting 3, not yet
  engine.run_round();
  ASSERT_EQ(alarm->fired.size(), 1u);
  EXPECT_EQ(alarm->fired[0], (std::pair<std::uint64_t, std::uint64_t>{3, 42}));
  EXPECT_EQ(engine.pending_timers(), 0u);
  EXPECT_EQ(engine.counters().timers, 1u);
  // The timer fired before the round's channel snapshot, so its send is
  // delivered within the same round (synchronous Phase A sees it).
  const auto* probe = dynamic_cast<const Probe*>(engine.find(0.7));
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->received.size(), 1u);
}

TEST(EngineTimers, SameRoundTimersFireInAscendingIdOrderTiesInArmingOrder) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Alarm>(0.9));
  engine.add_process(std::make_unique<Alarm>(0.1));
  engine.schedule_timer(0.9, 1, 1);  // armed first, higher id
  engine.schedule_timer(0.1, 1, 2);
  engine.schedule_timer(0.9, 1, 3);  // second timer for 0.9, same round
  // Tags are distinct, so the per-process logs reconstruct the global order.
  engine.run_rounds(2);
  const auto* low = dynamic_cast<const Alarm*>(engine.find(0.1));
  const auto* high = dynamic_cast<const Alarm*>(engine.find(0.9));
  ASSERT_EQ(low->fired.size(), 1u);
  ASSERT_EQ(high->fired.size(), 2u);
  EXPECT_EQ(low->fired[0].second, 2u);
  EXPECT_EQ(high->fired[0].second, 1u);  // arming order within one id
  EXPECT_EQ(high->fired[1].second, 3u);
  EXPECT_EQ(engine.counters().timers, 3u);
}

TEST(EngineTimers, ReArmingKeepsAPeriodicClock) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Alarm>(0.5, /*rearm_delay=*/4));
  engine.schedule_timer(0.5, 4, 7);
  engine.run_rounds(13);
  const auto* alarm = dynamic_cast<const Alarm*>(engine.find(0.5));
  ASSERT_EQ(alarm->fired.size(), 3u);  // rounds 4, 8, 12
  EXPECT_EQ(alarm->fired[0].first, 4u);
  EXPECT_EQ(alarm->fired[1].first, 8u);
  EXPECT_EQ(alarm->fired[2].first, 12u);
  EXPECT_EQ(engine.pending_timers(), 1u);  // the next period is armed
}

TEST(EngineTimers, RemoveProcessLapsesItsTimers) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Alarm>(0.5));
  engine.add_process(std::make_unique<Alarm>(0.7));
  engine.schedule_timer(0.5, 2, 1);
  engine.schedule_timer(0.7, 2, 2);
  engine.remove_process(0.5);
  EXPECT_EQ(engine.pending_timers(), 1u);  // 0.5's alarm purged eagerly
  engine.run_rounds(3);
  const auto* survivor = dynamic_cast<const Alarm*>(engine.find(0.7));
  ASSERT_EQ(survivor->fired.size(), 1u);
  EXPECT_EQ(engine.counters().timers, 1u);
}

TEST(EngineTimers, NeverArmedRunPaysNothing) {
  // The timer facility must leave a timer-free trajectory untouched: same
  // counters, zero timer actions.
  const auto run = [](bool unused) {
    Engine engine(EngineConfig{.scheduler = SchedulerKind::kRandomAsync, .seed = 11});
    (void)unused;
    engine.add_process(std::make_unique<Sender>(0.1, 0.9));
    engine.add_process(std::make_unique<Probe>(0.9, 0.1));
    engine.run_rounds(50);
    return engine.counters();
  };
  const EngineCounters a = run(false);
  const EngineCounters b = run(true);
  EXPECT_EQ(a.timers, 0u);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.deliveries, b.deliveries);
}

TEST(EngineTimers, RemovedIdIsUnknownToEveryLookup) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Alarm>(0.5));
  engine.add_process(std::make_unique<Probe>(0.7));
  ASSERT_TRUE(engine.remove_process(0.5));
  EXPECT_EQ(engine.find(0.5), nullptr);
  EXPECT_EQ(std::as_const(engine).find(0.5), nullptr);
  EXPECT_FALSE(engine.contains(0.5));
  EXPECT_FALSE(engine.inject(0.5, Message{1, 0.7}));
  EXPECT_EQ(engine.pending_messages(), 0u);
  EXPECT_DEATH(engine.schedule_timer(0.5, 1, 1), "unknown process");
  EXPECT_TRUE(engine.contains(0.7));
}

TEST(EngineTimers, ZeroDelayAndUnknownProcessRejected) {
  Engine engine = make_engine();
  engine.add_process(std::make_unique<Alarm>(0.5));
  EXPECT_DEATH(engine.schedule_timer(0.5, 0, 1), "at least one round");
  EXPECT_DEATH(engine.schedule_timer(0.9, 1, 1), "unknown process");
}

// --- the send path ----------------------------------------------------------

/// Random traffic over a fixed peer list, every choice drawn from the
/// process's own stream: each regular action sends two messages (the peer
/// list holds one id that is absent, so some sends drop) and now and then
/// arms a timer that sends one more; each received message is forwarded
/// with probability 1/2 under the next type, carrying ids for the purge.
/// Every process of one engine shares the one list.
class Gossip final : public Process {
 public:
  Gossip(Id id, std::shared_ptr<const std::vector<Id>> peers)
      : id_(id), peers_(std::move(peers)) {}

  Id id() const noexcept override { return id_; }

  void on_message(Context& ctx, const Message& message) override {
    if (ctx.rng().bernoulli(0.5))
      ctx.send(peer(ctx), Message{static_cast<MessageType>((message.type + 1) % 8),
                                  id_, message.id1, message.id2});
  }

  void on_regular(Context& ctx) override {
    for (int i = 0; i < 2; ++i)
      ctx.send(peer(ctx), Message{static_cast<MessageType>(ctx.rng().below(8)),
                                  id_, peer(ctx)});
    if (ctx.rng().below(8) == 0)
      ctx.schedule_timer(static_cast<std::uint32_t>(1 + ctx.rng().below(3)), 0);
  }

  void on_timer(Context& ctx, std::uint64_t) override {
    ctx.send(peer(ctx), Message{7, id_});
  }

 private:
  Id peer(Context& ctx) { return (*peers_)[ctx.rng().below(peers_->size())]; }

  Id id_;
  std::shared_ptr<const std::vector<Id>> peers_;
};

/// The ids of gossip_engine's processes, (i + 1) / (n + 1), then `absent`.
std::shared_ptr<const std::vector<Id>> gossip_peers(std::size_t n, Id absent) {
  auto peers = std::make_shared<std::vector<Id>>();
  for (std::size_t i = 0; i < n; ++i)
    peers->push_back(static_cast<Id>(i + 1) / static_cast<Id>(n + 1));
  peers->push_back(absent);
  return peers;
}

/// n Gossip processes with ids (i + 1) / (n + 1), plus one peer id,
/// `absent`, that is not a process.
Engine gossip_engine(const EngineConfig& config, std::size_t n = 64,
                     Id absent = 0.999) {
  const auto peers = gossip_peers(n, absent);
  Engine engine(config);
  for (std::size_t i = 0; i < n; ++i)
    engine.add_process(std::make_unique<Gossip>((*peers)[i], peers));
  return engine;
}

/// Every dimension of the fault layer at once: duplication, delay, replay
/// and a partition window.
FaultPlan send_path_faults() {
  FaultPlan faults;
  faults.duplicate_probability = 0.1;
  faults.delay_probability = 0.2;
  faults.max_delay_rounds = 3;
  faults.replay_probability = 0.05;
  faults.replay_history = 16;
  faults.partition_start = 4;
  faults.partition_rounds = 6;
  faults.partition_pivot = 0.5;
  return faults;
}

/// The engine configs the send-path tests cover: every scheduler, then the
/// synchronous one with loss and with the fault plan above.
std::vector<std::pair<std::string, EngineConfig>> send_path_configs() {
  std::vector<std::pair<std::string, EngineConfig>> configs;
  for (const SchedulerKind kind : kAllSchedulers)
    configs.emplace_back(to_string(kind),
                         EngineConfig{.scheduler = kind, .seed = 21});
  configs.emplace_back("synchronous+loss",
                       EngineConfig{.seed = 21, .message_loss = 0.1});
  configs.emplace_back("synchronous+faults",
                       EngineConfig{.seed = 21, .faults = send_path_faults()});
  return configs;
}

TEST(EngineSendPath, PendingOrderIsPinned) {
  // The pending messages, in for_each_pending's order (receiver, then
  // arrival), folded after every round: a send path that puts one message
  // into a different bucket or a different place in its bucket fails here
  // directly, not only through the trajectory it later perturbs.  Halfway
  // through, one process leaves with the fail-stop purge.
  const std::map<std::string, std::uint64_t> expected{
      {"synchronous", 0x4d0b2953d841e9bdull},
      {"random-async", 0x008fa0493de1aa5aull},
      {"adversarial-lifo", 0x05d294f862841e86ull},
      {"delayed-random", 0x50eb443080aa0e3dull},
      {"adversarial-oldest-last", 0x9049e80b1a1acb99ull},
      {"synchronous+loss", 0xc3a3e376733ec29eull},
      {"synchronous+faults", 0xb64b5ed3be44398eull},
  };
  for (const auto& [name, config] : send_path_configs()) {
    SCOPED_TRACE(name);
    Engine engine = gossip_engine(config);
    util::Fnv1a digest;
    for (int round = 1; round <= 24; ++round) {
      engine.run_round();
      if (round == 12) {
        ASSERT_TRUE(engine.remove_process(20.0 / 65.0));
      }
      engine.for_each_pending([&digest](Id to, const Message& message) {
        digest.add_word(std::bit_cast<std::uint64_t>(to))
            .add_word(message.type)
            .add_word(std::bit_cast<std::uint64_t>(message.id1))
            .add_word(std::bit_cast<std::uint64_t>(message.id2))
            .add_word(std::bit_cast<std::uint64_t>(message.id3));
      });
      digest.add_word(engine.pending_messages());
    }
    EXPECT_EQ(digest.value(), expected.at(name)) << std::hex << digest.value();
  }
}

TEST(EngineSendPath, PendingOrderIsPinnedAcrossBlocks) {
  // The same fold at n = 4096, so the pending messages span several
  // receiver blocks, and with every kind of membership change between
  // rounds: a fail-stop leave and a crash-stop, each far from the ends of
  // the rank order, and the join of the peer list's absent id, which lands
  // inside a block and shifts every later rank by one.
  constexpr std::size_t kN = 4096;
  const auto id_at = [](std::size_t rank) {
    return static_cast<Id>(rank + 1) / static_cast<Id>(kN + 1);
  };
  const Id joiner = (static_cast<Id>(1500) + 0.5) / static_cast<Id>(kN + 1);
  const std::map<std::string, std::uint64_t> expected{
      {"synchronous", 0x3ffbc86c83d19150ull},
      {"random-async", 0x611c6e4f4575e0e3ull},
      {"adversarial-lifo", 0x7cbf890928133223ull},
      {"delayed-random", 0xbe7191a872e45183ull},
      {"adversarial-oldest-last", 0xe422d0a1925c82e7ull},
      {"synchronous+loss", 0x09382f1e41cf9598ull},
      {"synchronous+faults", 0xd614df967fd5fde9ull},
  };
  for (const auto& [name, config] : send_path_configs()) {
    SCOPED_TRACE(name);
    const auto peers = gossip_peers(kN, joiner);
    Engine engine(config);
    engine.reserve(kN + 1);
    for (std::size_t i = 0; i < kN; ++i)
      engine.add_process(std::make_unique<Gossip>((*peers)[i], peers));
    util::Fnv1a digest;
    for (int round = 1; round <= 16; ++round) {
      engine.run_round();
      if (round == 4) {
        ASSERT_TRUE(engine.remove_process(id_at(2000)));
      }
      if (round == 8) {
        ASSERT_TRUE(engine.remove_process(id_at(3000), /*purge_references=*/false));
      }
      if (round == 11) engine.add_process(std::make_unique<Gossip>(joiner, peers));
      engine.for_each_pending([&digest](Id to, const Message& message) {
        digest.add_word(std::bit_cast<std::uint64_t>(to))
            .add_word(message.type)
            .add_word(std::bit_cast<std::uint64_t>(message.id1))
            .add_word(std::bit_cast<std::uint64_t>(message.id2))
            .add_word(std::bit_cast<std::uint64_t>(message.id3));
      });
      digest.add_word(engine.pending_messages());
    }
    EXPECT_EQ(digest.value(), expected.at(name)) << std::hex << digest.value();
  }
}

TEST(EngineSendPath, DeliverPendingOnceKeepsAsyncChannels) {
  // Under random-async the sends of deliver_pending_once's receive pass
  // must land in the per-receiver channels, where the scheduler's picks
  // look for them.
  Engine engine = gossip_engine(
      EngineConfig{.scheduler = SchedulerKind::kRandomAsync, .seed = 21});
  const auto audit = [&engine] {
    std::size_t visited = 0;
    engine.for_each_pending([&visited](Id, const Message&) { ++visited; });
    ASSERT_EQ(engine.pending_messages(), visited);
  };
  engine.run_rounds(3);
  audit();
  engine.deliver_pending_once();
  audit();
  EXPECT_GT(engine.pending_messages(), 0u);  // the pass forwarded some
  for (int round = 0; round < 3; ++round) {
    engine.run_round();
    audit();
  }
}

TEST(EngineConservation, EveryRoundBalances) {
  // The engine half of the conservation identity (doc/OBSERVABILITY.md):
  // every message sent, duplicated or replayed is delivered, dropped, lost,
  // eaten by the partition or still pending, after every round.
  std::vector<std::pair<std::string, EngineConfig>> configs;
  for (const SchedulerKind kind : kAllSchedulers) {
    configs.emplace_back(to_string(kind), EngineConfig{.scheduler = kind, .seed = 5});
    configs.emplace_back(std::string(to_string(kind)) + "+loss",
                         EngineConfig{.scheduler = kind, .seed = 5, .message_loss = 0.1});
    configs.emplace_back(std::string(to_string(kind)) + "+faults",
                         EngineConfig{.scheduler = kind, .seed = 5,
                                      .faults = send_path_faults()});
  }
  for (const auto& [name, config] : configs) {
    SCOPED_TRACE(name);
    Engine engine = gossip_engine(config);
    for (int round = 1; round <= 24; ++round) {
      engine.run_round();
      const EngineCounters& c = engine.counters();
      ASSERT_EQ(c.total_sent() + c.faults.duplicated + c.faults.replayed,
                c.deliveries + c.dropped + c.lost + c.faults.partition_dropped +
                    engine.pending_messages())
          << "round " << round;
    }
    EXPECT_GT(engine.counters().deliveries, 0u);
  }
}

}  // namespace
}  // namespace sssw::sim
