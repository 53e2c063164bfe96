// Tests for the channel of §II.B: the random-async Channel (push, random
// take, purge, pending view), and the receipt semantics of the synchronous
// family, whose channels are the engine's pending log and receive-pass
// inbox (each receiver's bucket is its channel in push order).
#include "sim/channel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "sim/engine.hpp"

namespace sssw::sim {
namespace {

Message msg(double id) { return Message{0, id, kPosInf}; }

// Message types of the Relay below: what put a message into a channel.
constexpr MessageType kPoke = 1;         // injected to make a relay speak
constexpr MessageType kFromReceive = 2;  // sent by a receive action
constexpr MessageType kFromRegular = 3;  // sent by a regular action
constexpr MessageType kInjected = 4;     // injected between rounds
constexpr MessageType kFromTimer = 5;    // sent by a timer action

/// Records what it receives.  With a target, it sends one message there
/// from each receive action on a poke, each regular action and each timer,
/// tagged with the action's type and its own id.
class Relay final : public Process {
 public:
  explicit Relay(Id id, Id target = kNegInf) : id_(id), target_(target) {}
  Id id() const noexcept override { return id_; }
  void on_message(Context& ctx, const Message& message) override {
    received.push_back(message);
    if (message.type == kPoke) say(ctx, kFromReceive);
  }
  void on_regular(Context& ctx) override { say(ctx, kFromRegular); }
  void on_timer(Context& ctx, std::uint64_t) override { say(ctx, kFromTimer); }

  std::vector<Message> received;

 private:
  void say(Context& ctx, MessageType type) {
    if (is_node_id(target_)) ctx.send(target_, Message{type, id_});
  }
  Id id_;
  Id target_;
};

/// An engine holding one silent receiver at 0.9 (plus whatever the caller
/// adds), under `kind`.
Engine engine_with_receiver(SchedulerKind kind, double delivery_probability = 0.5,
                            std::uint64_t seed = 1) {
  Engine engine(EngineConfig{.scheduler = kind,
                             .seed = seed,
                             .delivery_probability = delivery_probability});
  engine.add_process(std::make_unique<Relay>(0.9));
  return engine;
}

const Relay& relay(const Engine& engine, Id id) {
  return *dynamic_cast<const Relay*>(engine.find(id));
}

std::set<double> payloads(const std::vector<Message>& messages) {
  std::set<double> ids;
  for (const Message& m : messages) ids.insert(m.id1);
  return ids;
}

TEST(Channel, StartsEmpty) {
  Channel c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.size(), 0u);
}

TEST(Channel, PushAndSize) {
  Channel c;
  c.push(msg(0.1));
  c.push(msg(0.2));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_FALSE(c.empty());
}

TEST(Channel, DrainEmptiesChannel) {
  Engine engine = engine_with_receiver(SchedulerKind::kSynchronous);
  ASSERT_TRUE(engine.inject(0.9, msg(0.1)));
  engine.run_round();
  EXPECT_EQ(relay(engine, 0.9).received.size(), 1u);
  EXPECT_EQ(engine.pending_messages(), 0u);
}

TEST(Channel, DrainLifoReverses) {
  // Under adversarial-LIFO a receiver gets exactly the reverse of its push
  // order, whatever pushed: last round's receive-pass and regular-pass
  // flushes (each in sender rank order), injects between rounds, and this
  // round's timer sends (ascending id order).
  Engine engine = engine_with_receiver(SchedulerKind::kAdversarialLifo);
  engine.add_process(std::make_unique<Relay>(0.2, 0.9));
  engine.add_process(std::make_unique<Relay>(0.1, 0.9));
  engine.inject(0.2, Message{kPoke});
  engine.inject(0.1, Message{kPoke});
  engine.schedule_timer(0.2, 1, 0);  // fire at the start of round 2
  engine.schedule_timer(0.1, 1, 0);
  engine.run_round();
  EXPECT_TRUE(relay(engine, 0.9).received.empty());
  engine.inject(0.9, Message{kInjected, 0.5});
  engine.inject(0.9, Message{kInjected, 0.6});
  engine.run_round();
  const std::vector<std::pair<MessageType, double>> pushed{
      {kFromReceive, 0.1}, {kFromReceive, 0.2}, {kFromRegular, 0.1},
      {kFromRegular, 0.2}, {kInjected, 0.5},    {kInjected, 0.6},
      {kFromTimer, 0.1},   {kFromTimer, 0.2}};
  const std::vector<Message>& got = relay(engine, 0.9).received;
  ASSERT_EQ(got.size(), pushed.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& [type, from] = pushed[pushed.size() - 1 - i];
    EXPECT_EQ(got[i].type, type) << "delivery " << i;
    EXPECT_EQ(got[i].id1, from) << "delivery " << i;
  }
}

TEST(Channel, DrainShuffledIsPermutation) {
  Engine engine = engine_with_receiver(SchedulerKind::kSynchronous, 0.5, 42);
  std::vector<Message> pushed;
  for (int i = 0; i < 50; ++i) {
    pushed.push_back(msg(i + 1.0));
    engine.inject(0.9, pushed.back());
  }
  engine.run_round();
  const std::vector<Message>& got = relay(engine, 0.9).received;
  ASSERT_EQ(got.size(), 50u);
  EXPECT_EQ(payloads(got), payloads(pushed));
  const auto same_order = [&] {
    for (std::size_t i = 0; i < got.size(); ++i)
      if (got[i].id1 != pushed[i].id1) return false;
    return true;
  };
  EXPECT_FALSE(same_order());  // 1 in 50! under a fair shuffle
}

TEST(Channel, DrainClearsPreviousOutput) {
  // A receive pass hands a receiver only what arrived since its last one.
  Engine engine = engine_with_receiver(SchedulerKind::kSynchronous);
  engine.inject(0.9, msg(1.0));
  engine.run_round();
  engine.inject(0.9, msg(2.0));
  engine.run_round();
  const std::vector<Message>& got = relay(engine, 0.9).received;
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[0].id1, 1.0);
  EXPECT_DOUBLE_EQ(got[1].id1, 2.0);
}

TEST(Channel, PushDuringOwnershipOfDrainedBatch) {
  // Messages sent while a receiver takes its batch — even to itself —
  // belong to the next round's batch.
  Engine engine(EngineConfig{.scheduler = SchedulerKind::kSynchronous});
  engine.add_process(std::make_unique<Relay>(0.5, /*target=*/0.5));
  engine.inject(0.5, Message{kPoke});
  engine.run_round();
  ASSERT_EQ(relay(engine, 0.5).received.size(), 1u);
  EXPECT_EQ(engine.pending_messages(), 2u);  // its receive and regular sends
  engine.run_round();
  EXPECT_EQ(relay(engine, 0.5).received.size(), 3u);
}

TEST(Channel, TakeOneShuffledTakesAllEventually) {
  Channel c;
  util::Rng rng(5);
  std::set<double> pushed;
  for (int i = 0; i < 20; ++i) {
    c.push(msg(i + 1.0));
    pushed.insert(i + 1.0);
  }
  std::set<double> taken;
  while (!c.empty()) taken.insert(c.take(rng).id1);
  EXPECT_EQ(taken, pushed);
}

TEST(Channel, DrainSampleSplitsByProbability) {
  Engine engine = engine_with_receiver(SchedulerKind::kDelayedRandom, 0.5, 9);
  for (int i = 0; i < 1000; ++i) engine.inject(0.9, msg(i + 1.0));
  engine.run_round();
  const std::size_t delivered = relay(engine, 0.9).received.size();
  EXPECT_EQ(delivered + engine.pending_messages(), 1000u);
  EXPECT_GT(delivered, 400u);
  EXPECT_LT(delivered, 600u);
}

TEST(Channel, DrainSampleExtremes) {
  // The ends of the valid range (0, 1]: next to 0 nothing moves, at 1
  // everything does.
  Engine stuck = engine_with_receiver(SchedulerKind::kDelayedRandom, 1e-12, 10);
  Engine eager = engine_with_receiver(SchedulerKind::kDelayedRandom, 1.0, 10);
  for (int i = 0; i < 10; ++i) {
    stuck.inject(0.9, msg(i + 1.0));
    eager.inject(0.9, msg(i + 1.0));
  }
  stuck.run_round();
  eager.run_round();
  EXPECT_TRUE(relay(stuck, 0.9).received.empty());
  EXPECT_EQ(stuck.pending_messages(), 10u);
  EXPECT_EQ(relay(eager, 0.9).received.size(), 10u);
  EXPECT_EQ(eager.pending_messages(), 0u);
}

TEST(Channel, DrainSampleDeliversEverythingEventually) {
  Engine engine = engine_with_receiver(SchedulerKind::kDelayedRandom, 0.5, 11);
  std::vector<Message> pushed;
  for (int i = 0; i < 50; ++i) {
    pushed.push_back(msg(i + 1.0));
    engine.inject(0.9, pushed.back());
  }
  for (int round = 0; round < 200 && engine.pending_messages() > 0; ++round)
    engine.run_round();
  EXPECT_EQ(payloads(relay(engine, 0.9).received), payloads(pushed));
}

TEST(Channel, PurgeReferencesRemovesMatching) {
  Channel c;
  c.push(Message{0, 0.5, kPosInf});
  c.push(Message{2, 0.1, 0.5});  // id2 match
  c.push(Message{0, 0.9, kPosInf});
  EXPECT_EQ(c.purge_references(0.5), 2u);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c.pending()[0].id1, 0.9);
}

TEST(Channel, PurgeReferencesNoMatch) {
  Channel c;
  c.push(msg(0.1));
  EXPECT_EQ(c.purge_references(0.7), 0u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(Channel, ClearDiscards) {
  Channel c;
  c.push(msg(1.0));
  c.clear();
  EXPECT_TRUE(c.empty());
}

TEST(Channel, PendingAccessor) {
  Channel c;
  c.push(msg(4.0));
  ASSERT_EQ(c.pending().size(), 1u);
  EXPECT_DOUBLE_EQ(c.pending()[0].id1, 4.0);
}

}  // namespace
}  // namespace sssw::sim
