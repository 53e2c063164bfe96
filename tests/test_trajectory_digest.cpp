// Golden trajectory digests — the determinism oracle for the engine
// (DESIGN.md §8 "Deterministic rounds & struct-of-arrays node state").
//
// The contract under test: a trajectory is a pure function of (initial
// state, seed).  Each test runs one adversarial trial and compares its full
// trajectory digest with literal constants: the round count, an FNV-1a fold
// of EngineCounters, an FNV-1a fold of the final topology (every node's
// l/r/ring/lrl/age state in id order) and an FNV-1a fold of the lookup
// manager's totals.  Any engine change that moves a single send, drain
// shuffle, coin flip or fault draw moves at least one of these numbers, so
// a refactor that claims "same trajectories" must leave them untouched.
//
// The trials deliberately stack every nondeterminism source the engine
// owns: message loss, fault injection (duplication, delay, replay), the
// active probe/ack failure detector with its timers, open-loop lookups with
// retries and hedging, and mid-run crash-stops.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/network.hpp"
#include "service/lookup_manager.hpp"
#include "topology/initial_states.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace sssw::core {
namespace {

std::uint64_t counters_digest(const sim::EngineCounters& c) {
  util::Fnv1a hash;
  hash.add_word(c.rounds)
      .add_word(c.actions)
      .add_word(c.deliveries)
      .add_word(c.dropped)
      .add_word(c.lost)
      .add_word(c.timers)
      .add_word(c.faults.duplicated)
      .add_word(c.faults.delayed)
      .add_word(c.faults.replayed)
      .add_word(c.faults.partition_dropped);
  for (const std::uint64_t sent : c.sent_by_type) hash.add_word(sent);
  return hash.value();
}

/// Folds the complete observable node state in id order: any divergence in
/// any node's pointers, long-range links, ages, or forget count shows up
/// here even if the counter totals happen to collide.
std::uint64_t state_digest(const SmallWorldNetwork& net) {
  util::Fnv1a hash;
  for (const sim::Id id : net.engine().id_span()) {
    const SmallWorldNode* node = net.node(id);
    if (node == nullptr) continue;
    hash.add_word(std::bit_cast<std::uint64_t>(node->l()))
        .add_word(std::bit_cast<std::uint64_t>(node->r()))
        .add_word(std::bit_cast<std::uint64_t>(node->ring()))
        .add_word(node->forget_count());
    for (const SmallWorldNode::LongRangeLink& link : node->lrls())
      hash.add_word(std::bit_cast<std::uint64_t>(link.target)).add_word(link.age);
  }
  return hash.value();
}

/// Folds the lookup manager's lifetime totals — every issued attempt, retry,
/// hedge, success, and typed dead-letter.  The service plane routes through
/// whatever pointers each round produced, so a moved send would surface
/// here even if the structural digests happened to agree.
std::uint64_t lookup_digest(const service::LookupManager::Totals& t) {
  return util::Fnv1a()
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

struct TrialDigest {
  std::uint64_t rounds = 0;
  std::uint64_t counters = 0;
  std::uint64_t state = 0;
  std::uint64_t lookups = 0;
};

/// The size and length of one trial: n nodes, `warm_rounds` before the
/// crashes and `crash_rounds` after them.
struct TrialShape {
  std::size_t n = 32;
  std::size_t warm_rounds = 30;
  std::size_t crash_rounds = 120;
};

/// One adversarial trial: n nodes from a random tree, loss + duplication +
/// delay + replay faults, the active detector, open-loop lookup load with
/// retries and hedging, two mid-run crash-stops.
TrialDigest run_trial(sim::SchedulerKind scheduler, std::uint64_t seed,
                      const TrialShape& shape = {}) {
  NetworkOptions options;
  options.scheduler = scheduler;
  options.seed = seed;
  options.message_loss = 0.05;
  options.delivery_probability = 0.5;
  options.adversary_delay = 3;
  options.faults.duplicate_probability = 0.10;
  options.faults.delay_probability = 0.10;
  options.faults.max_delay_rounds = 3;
  options.faults.replay_probability = 0.05;
  options.faults.replay_history = 4;
  options.protocol.detector.enabled = true;

  util::Rng rng(seed);
  SmallWorldNetwork net(options);
  net.add_nodes(topology::make_initial_state(topology::InitialShape::kRandomTree,
                                             random_ids(shape.n, rng), rng));

  service::LookupConfig lookup_config;
  lookup_config.rate = 1.0;
  lookup_config.ttl = 24;
  lookup_config.timeout_rounds = 16;
  lookup_config.max_retries = 1;
  lookup_config.hedge_after = 8;
  lookup_config.seed = seed;
  service::LookupManager lookups(net, lookup_config);

  net.run_rounds(shape.warm_rounds);

  // Crash two deterministic picks (the id list is fixed at build time) so
  // detector timers and quarantine are in play.
  const auto span = net.engine().id_span();
  const std::vector<sim::Id> victims{span[span.size() / 3],
                                     span[(2 * span.size()) / 3]};
  for (const sim::Id id : victims) net.crash(id);
  net.run_rounds(shape.crash_rounds);

  TrialDigest digest;
  digest.rounds = net.engine().round();
  digest.counters = counters_digest(net.engine().counters());
  digest.state = state_digest(net);
  digest.lookups = lookup_digest(lookups.totals());
  return digest;
}

void expect_digest(sim::SchedulerKind scheduler, std::uint64_t seed,
                   const TrialDigest& golden, const TrialShape& shape = {}) {
  const TrialDigest actual = run_trial(scheduler, seed, shape);
  const auto where = ::testing::Message() << sim::to_string(scheduler) << " seed "
                                          << seed << " n " << shape.n;
  EXPECT_EQ(actual.rounds, golden.rounds) << where;
  EXPECT_EQ(actual.counters, golden.counters) << where;
  EXPECT_EQ(actual.state, golden.state) << where;
  EXPECT_EQ(actual.lookups, golden.lookups) << where;
}

TEST(TrajectoryDigest, PinnedForEveryScheduler) {
  struct Golden {
    sim::SchedulerKind scheduler;
    TrialDigest digest;
  };
  constexpr Golden kGolden[] = {
      {sim::SchedulerKind::kSynchronous,
       {150, 0x7e0c287cfdf87041, 0x1535de993f7ffb22, 0x3ece868228014c08}},
      {sim::SchedulerKind::kRandomAsync,
       {150, 0x17fb34d2742cd641, 0xd79c7bf5dfc090e3, 0x99f2658dcd427389}},
      {sim::SchedulerKind::kDelayedRandom,
       {150, 0xa8c6d824845a1f80, 0xa32a2d65b898928a, 0x5e0b6586a10b009e}},
      {sim::SchedulerKind::kAdversarialLifo,
       {150, 0x78e32ab29688d5b7, 0x37a8c77cce08da12, 0x52ba3f004a3f04e9}},
      {sim::SchedulerKind::kAdversarialOldestLast,
       {150, 0xc2ce65ee5df467c2, 0x306da03150fa24d6, 0x949ae3394f0ca079}},
  };
  for (const Golden& golden : kGolden)
    expect_digest(golden.scheduler, 20120521, golden.digest);
}

TEST(TrajectoryDigest, SynchronousSeed7IsPinned) {
  expect_digest(
      sim::SchedulerKind::kSynchronous, 7,
      {150, 0x037c1d08e602b59d, 0x3ec13a0c93ec17ab, 0x598340e45f7da85f});
}

TEST(TrajectoryDigest, PinnedAcrossReceiverBlocks) {
  // The same trial at n = 4096, where the in-flight messages span several
  // receiver blocks and the two crash-stops shift the ranks of every later
  // node; kept short so the run stays cheap under the sanitizers.
  const TrialShape shape{.n = 4096, .warm_rounds = 16, .crash_rounds = 16};
  expect_digest(sim::SchedulerKind::kSynchronous, 20120521,
                {32, 0x8a58ae96c2c19b66, 0x72ce8757aae2c0a3, 0x8156cab36e24884e}, shape);
  expect_digest(sim::SchedulerKind::kDelayedRandom, 20120521,
                {32, 0xd12fd9518d3deb41, 0x6b7e9771a0e4700c, 0x45aeda92df148305}, shape);
}

TEST(TrajectoryDigest, SeedStillSelectsTheTrajectory) {
  // Sanity for the oracle itself: the digests are not constants — a
  // different seed must produce a different trajectory, or the pins above
  // would be vacuous.
  const TrialDigest a = run_trial(sim::SchedulerKind::kSynchronous, 20120521);
  const TrialDigest b = run_trial(sim::SchedulerKind::kSynchronous, 424242);
  EXPECT_NE(a.state, b.state);
}

}  // namespace
}  // namespace sssw::core
