// Unit tests for core/node — one suite per paper algorithm.
//
// Each test builds a tiny engine with hand-placed node states, injects one
// message (or runs one round), and asserts the resulting state/messages.
#include "core/node.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>

#include "core/messages.hpp"
#include "sim/engine.hpp"

namespace sssw::core {
namespace {

using sim::Id;
using sim::kNegInf;
using sim::kPosInf;
using sim::Message;

class NodeFixture : public ::testing::Test {
 protected:
  NodeFixture() : engine_(sim::EngineConfig{.seed = 99}) {}

  /// Adds a node backed by the fixture's store, which the first add builds
  /// from config_ (so a test edits config_ before adding any node).
  SmallWorldNode* add(NodeInit init) {
    if (!store_) store_.emplace(config_);
    engine_.add_process(std::make_unique<SmallWorldNode>(init, *store_));
    return node(init.id);
  }

  SmallWorldNode* node(Id id) {
    return dynamic_cast<SmallWorldNode*>(engine_.find(id));
  }

  /// Runs rounds with the regular action effectively silenced by draining
  /// only the injected message: we instead just run full rounds; assertions
  /// are written against state that regular actions cannot corrupt.
  void deliver_all(int rounds = 1) { engine_.run_rounds(rounds); }

  /// Counts pending messages matching (to, type, id1).
  int pending(Id to, sim::MessageType type, Id id1) {
    int count = 0;
    engine_.for_each_pending([&](Id owner, const Message& m) {
      if (owner == to && m.type == type && m.id1 == id1) ++count;
    });
    return count;
  }

  int pending_of_type(sim::MessageType type) {
    int count = 0;
    engine_.for_each_pending([&](Id, const Message& m) {
      if (m.type == type) ++count;
    });
    return count;
  }

  Config config_{};
  std::optional<NodeStore> store_;  ///< declared before engine_: outlives the nodes
  sim::Engine engine_;
};

// ---------------------------------------------------------------------------
// Algorithm 2 — LINEARIZE
// ---------------------------------------------------------------------------

using LinearizeTest = NodeFixture;

TEST_F(LinearizeTest, AdoptsCloserRightNeighbor) {
  add(NodeInit(0.2, kNegInf, 0.8));
  add(NodeInit(0.5));
  add(NodeInit(0.8, 0.2, kPosInf));
  engine_.inject(0.2, Message{kLin, 0.5});
  deliver_all();
  // 0.5 < old r = 0.8: adopt, and forward the old r to the newcomer.
  EXPECT_DOUBLE_EQ(node(0.2)->r(), 0.5);
  EXPECT_GE(pending(0.5, kLin, 0.8), 1);
}

TEST_F(LinearizeTest, AdoptsCloserLeftNeighbor) {
  add(NodeInit(0.8, 0.2, kPosInf));
  add(NodeInit(0.5));
  add(NodeInit(0.2));
  engine_.inject(0.8, Message{kLin, 0.5});
  deliver_all();
  EXPECT_DOUBLE_EQ(node(0.8)->l(), 0.5);
  EXPECT_GE(pending(0.5, kLin, 0.2), 1);
}

TEST_F(LinearizeTest, AdoptWhenNoNeighborYet) {
  add(NodeInit(0.3));
  add(NodeInit(0.6));
  engine_.inject(0.3, Message{kLin, 0.6});
  deliver_all();
  EXPECT_DOUBLE_EQ(node(0.3)->r(), 0.6);
  EXPECT_DOUBLE_EQ(node(0.3)->l(), kNegInf);
}

TEST_F(LinearizeTest, ForwardsFartherIdToRightNeighbor) {
  add(NodeInit(0.1, kNegInf, 0.4));
  add(NodeInit(0.4, 0.1, kPosInf));
  add(NodeInit(0.9));
  engine_.inject(0.1, Message{kLin, 0.9});
  deliver_all();
  // 0.9 > r = 0.4 and no useful lrl: forward to r.
  EXPECT_DOUBLE_EQ(node(0.1)->r(), 0.4);
  EXPECT_GE(pending(0.4, kLin, 0.9), 1);
}

TEST_F(LinearizeTest, UsesLrlShortcutWhenBetween) {
  NodeInit origin(0.1, kNegInf, 0.2);
  origin.lrl = 0.6;  // 0.9 > lrl(0.6) > r(0.2): shortcut applies
  add(origin);
  add(NodeInit(0.2, 0.1, kPosInf));
  add(NodeInit(0.6));
  add(NodeInit(0.9));
  engine_.inject(0.1, Message{kLin, 0.9});
  deliver_all();
  EXPECT_GE(pending(0.6, kLin, 0.9), 1);
  EXPECT_EQ(pending(0.2, kLin, 0.9), 0);
}

TEST_F(LinearizeTest, ShortcutDisabledByConfig) {
  config_.lrl_shortcut = false;
  NodeInit origin(0.1, kNegInf, 0.2);
  origin.lrl = 0.6;
  add(origin);
  add(NodeInit(0.2, 0.1, kPosInf));
  add(NodeInit(0.6));
  add(NodeInit(0.9));
  engine_.inject(0.1, Message{kLin, 0.9});
  deliver_all();
  EXPECT_EQ(pending(0.6, kLin, 0.9), 0);
  EXPECT_GE(pending(0.2, kLin, 0.9), 1);
}

TEST_F(LinearizeTest, OwnIdIsIgnored) {
  add(NodeInit(0.5, 0.2, 0.8));
  add(NodeInit(0.2));
  add(NodeInit(0.8));
  engine_.inject(0.5, Message{kLin, 0.5});
  deliver_all();
  EXPECT_DOUBLE_EQ(node(0.5)->l(), 0.2);
  EXPECT_DOUBLE_EQ(node(0.5)->r(), 0.8);
}

TEST_F(LinearizeTest, SentinelPayloadIgnored) {
  add(NodeInit(0.5, 0.2, 0.8));
  add(NodeInit(0.2));
  add(NodeInit(0.8));
  engine_.inject(0.5, Message{kLin, kNegInf});
  engine_.inject(0.5, Message{kLin, kPosInf});
  deliver_all();
  EXPECT_DOUBLE_EQ(node(0.5)->l(), 0.2);
  EXPECT_DOUBLE_EQ(node(0.5)->r(), 0.8);
}

// ---------------------------------------------------------------------------
// Algorithm 3 — RESPONDLRL
// ---------------------------------------------------------------------------

using RespondLrlTest = NodeFixture;

TEST_F(RespondLrlTest, MidNodeSendsBothNeighbors) {
  add(NodeInit(0.5, 0.3, 0.7));
  add(NodeInit(0.3));
  add(NodeInit(0.7));
  add(NodeInit(0.1));  // the origin of the long-range link
  engine_.inject(0.5, Message{kInclrl, 0.1});
  deliver_all();
  int found = 0;
  engine_.for_each_pending([&](Id to, const Message& m) {
    if (to == 0.1 && m.type == kReslrl && m.id1 == 0.3 && m.id2 == 0.7) ++found;
  });
  EXPECT_GE(found, 1);
}

TEST_F(RespondLrlTest, MaxNodeWrapsRightToRing) {
  NodeInit max(0.9, 0.5, kPosInf);
  max.ring = 0.1;
  add(max);
  add(NodeInit(0.5));
  add(NodeInit(0.1));
  engine_.inject(0.9, Message{kInclrl, 0.5});
  deliver_all();
  int found = 0;
  engine_.for_each_pending([&](Id to, const Message& m) {
    if (to == 0.5 && m.type == kReslrl && m.id1 == 0.5 && m.id2 == 0.1) ++found;
  });
  EXPECT_GE(found, 1);
}

TEST_F(RespondLrlTest, MinNodeWrapsLeftToRing) {
  // Paper's Algorithm 3 prints (p.ring, p.l) here with p.l = −∞; the
  // implementation uses the corrected (p.ring, p.r).
  NodeInit min(0.1, kNegInf, 0.5);
  min.ring = 0.9;
  add(min);
  add(NodeInit(0.5));
  add(NodeInit(0.9));
  engine_.inject(0.1, Message{kInclrl, 0.5});
  deliver_all();
  int found = 0;
  engine_.for_each_pending([&](Id to, const Message& m) {
    if (to == 0.5 && m.type == kReslrl && m.id1 == 0.9 && m.id2 == 0.5) ++found;
  });
  EXPECT_GE(found, 1);
}

TEST_F(RespondLrlTest, IsolatedNodeStaysSilent) {
  add(NodeInit(0.5));
  add(NodeInit(0.3));
  engine_.inject(0.5, Message{kInclrl, 0.3});
  deliver_all();
  EXPECT_EQ(pending_of_type(kReslrl), 0);
}

// ---------------------------------------------------------------------------
// Algorithm 4 — MOVE-FORGET
// ---------------------------------------------------------------------------

using MoveForgetTest = NodeFixture;

// The MOVE-FORGET tests isolate a single node whose l/r point at absent
// peers: every outgoing send is dropped, so the only inputs are the injected
// reslrl messages and the observed state transitions are exactly Algorithm 4.

TEST_F(MoveForgetTest, MovesToOneOfTheCandidates) {
  auto* n = add(NodeInit(0.5, 0.3, 0.7));
  engine_.inject(0.5, Message{kReslrl, 0.3, 0.7});
  deliver_all();
  EXPECT_TRUE(n->lrl() == 0.3 || n->lrl() == 0.7);
  EXPECT_EQ(n->age(), 1u);  // φ(1) = 0, so no forget possible yet
}

TEST_F(MoveForgetTest, SingleCandidateTaken) {
  auto* n = add(NodeInit(0.5, 0.3, 0.7));
  engine_.inject(0.5, Message{kReslrl, 0.3, kPosInf});
  engine_.run_rounds(1);
  EXPECT_DOUBLE_EQ(n->lrl(), 0.3);
  engine_.inject(0.5, Message{kReslrl, kNegInf, 0.7});
  engine_.run_rounds(1);
  EXPECT_DOUBLE_EQ(n->lrl(), 0.7);
}

TEST_F(MoveForgetTest, NoCandidatesNoMove) {
  auto* n = add(NodeInit(0.5, 0.3, 0.7));
  n->set_lrl(0.3);
  engine_.inject(0.5, Message{kReslrl, kNegInf, kPosInf});
  deliver_all();
  EXPECT_DOUBLE_EQ(n->lrl(), 0.3);
  EXPECT_EQ(n->age(), 0u);
}

TEST_F(MoveForgetTest, CoinIsRoughlyFair) {
  auto* n = add(NodeInit(0.5, 0.3, 0.7));
  int left = 0;
  for (int i = 0; i < 400; ++i) {
    engine_.inject(0.5, Message{kReslrl, 0.3, 0.7});
    engine_.run_rounds(1);
    left += (n->lrl() == 0.3);
  }
  EXPECT_GT(left, 130);
  EXPECT_LT(left, 270);
}

TEST_F(MoveForgetTest, EventuallyForgets) {
  auto* n = add(NodeInit(0.5, 0.3, 0.7));
  // Feed moves until a forget fires; φ(α≥3) > 0.2, so 200 moves make a miss
  // astronomically unlikely.
  for (int i = 0; i < 200 && n->forget_count() == 0; ++i) {
    engine_.inject(0.5, Message{kReslrl, 0.3, 0.7});
    engine_.run_rounds(1);
  }
  EXPECT_GE(n->forget_count(), 1u);
  EXPECT_GE(n->max_age_seen(), 3u);
}

// ---------------------------------------------------------------------------
// Algorithm 7/8 — RESPONDRING / UPDATERING
// ---------------------------------------------------------------------------

using RingTest = NodeFixture;

TEST_F(RingTest, RespondRingWalksCandidateRight) {
  // Origin 0.1 (a min candidate) pings 0.5; 0.5's best answer for "who is
  // the max" is its right neighbour, sent as resring.
  add(NodeInit(0.5, 0.3, 0.7));
  add(NodeInit(0.3));
  add(NodeInit(0.7));
  add(NodeInit(0.1));
  engine_.inject(0.5, Message{kRing, 0.1});
  deliver_all();
  EXPECT_GE(pending(0.1, kResring, 0.7), 1);
}

TEST_F(RingTest, RespondRingEliminatesFalseMin) {
  // 0.5 knows a node smaller than the origin 0.2 → origin cannot be min;
  // it is told about 0.1 via lin.
  add(NodeInit(0.5, 0.1, 0.7));
  add(NodeInit(0.1));
  add(NodeInit(0.7));
  add(NodeInit(0.2));
  engine_.inject(0.5, Message{kRing, 0.2});
  deliver_all();
  EXPECT_GE(pending(0.2, kLin, 0.1), 1);
}

TEST_F(RingTest, RespondRingMaxSideUsesRightNeighbor) {
  // Paper's Algorithm 7 prints (p.l, lin) in the id > p, p.r > id branch;
  // corrected to (p.r, lin): the origin must learn of a *larger* node.
  add(NodeInit(0.5, 0.3, 0.9));
  add(NodeInit(0.3));
  add(NodeInit(0.9));
  add(NodeInit(0.7));
  engine_.inject(0.5, Message{kRing, 0.7});
  deliver_all();
  EXPECT_GE(pending(0.7, kLin, 0.9), 1);
}

TEST_F(RingTest, UpdateRingTakesMaxForMinNode) {
  auto* n = add(NodeInit(0.1, kNegInf, 0.3));
  add(NodeInit(0.3));
  add(NodeInit(0.8));
  add(NodeInit(0.6));
  engine_.inject(0.1, Message{kResring, 0.6});
  engine_.run_rounds(1);
  EXPECT_DOUBLE_EQ(node(0.1)->ring(), 0.6);
  engine_.inject(0.1, Message{kResring, 0.8});
  engine_.run_rounds(1);
  EXPECT_DOUBLE_EQ(n->ring(), 0.8);
  engine_.inject(0.1, Message{kResring, 0.6});  // smaller: ignored
  engine_.run_rounds(1);
  EXPECT_DOUBLE_EQ(n->ring(), 0.8);
}

TEST_F(RingTest, UpdateRingTakesMinForMaxNode) {
  auto* n = add(NodeInit(0.9, 0.7, kPosInf));
  add(NodeInit(0.7));
  add(NodeInit(0.2));
  add(NodeInit(0.4));
  engine_.inject(0.9, Message{kResring, 0.4});
  engine_.run_rounds(1);
  EXPECT_DOUBLE_EQ(n->ring(), 0.4);
  engine_.inject(0.9, Message{kResring, 0.2});
  engine_.run_rounds(1);
  EXPECT_DOUBLE_EQ(n->ring(), 0.2);
}

TEST_F(RingTest, UpdateRingIgnoredWithBothNeighbors) {
  auto* n = add(NodeInit(0.5, 0.3, 0.7));
  add(NodeInit(0.3));
  add(NodeInit(0.7));
  add(NodeInit(0.9));
  engine_.inject(0.5, Message{kResring, 0.9});
  engine_.run_rounds(1);
  EXPECT_DOUBLE_EQ(n->ring(), 0.5);  // inert self-link
  EXPECT_FALSE(n->has_ring_edge());
}

// ---------------------------------------------------------------------------
// Algorithm 5/6 — PROBINGR / PROBINGL forwarding
// ---------------------------------------------------------------------------

using ProbingMsgTest = NodeFixture;

TEST_F(ProbingMsgTest, ForwardsRightAlongR) {
  add(NodeInit(0.3, 0.1, 0.5));
  add(NodeInit(0.1));
  add(NodeInit(0.5));
  add(NodeInit(0.9));
  engine_.inject(0.3, Message{kProbr, 0.9});
  deliver_all();
  EXPECT_GE(pending(0.5, kProbr, 0.9), 1);
}

TEST_F(ProbingMsgTest, PrefersLrlWhenCloserButNotPast) {
  NodeInit n(0.3, 0.1, 0.4);
  n.lrl = 0.7;  // target 0.9 ≥ lrl 0.7 > r 0.4: jump
  add(n);
  add(NodeInit(0.1));
  add(NodeInit(0.4));
  add(NodeInit(0.7));
  add(NodeInit(0.9));
  engine_.inject(0.3, Message{kProbr, 0.9});
  deliver_all();
  EXPECT_GE(pending(0.7, kProbr, 0.9), 1);
}

TEST_F(ProbingMsgTest, RepairsWhenTargetInGap) {
  auto* n = add(NodeInit(0.3, 0.1, 0.8));
  add(NodeInit(0.1));
  add(NodeInit(0.8));
  add(NodeInit(0.5));
  engine_.inject(0.3, Message{kProbr, 0.5});
  deliver_all();
  // 0.3 < 0.5 < r(0.8): probing failed — linearize(0.5) adopts it.
  EXPECT_DOUBLE_EQ(n->r(), 0.5);
}

TEST_F(ProbingMsgTest, LeftwardSymmetric) {
  auto* n = add(NodeInit(0.7, 0.2, 0.9));
  add(NodeInit(0.2));
  add(NodeInit(0.9));
  add(NodeInit(0.4));
  engine_.inject(0.7, Message{kProbl, 0.4});
  deliver_all();
  EXPECT_DOUBLE_EQ(n->l(), 0.4);
}

TEST_F(ProbingMsgTest, StaleOvershotProbeDropped) {
  add(NodeInit(0.5, 0.3, 0.7));
  add(NodeInit(0.3));
  add(NodeInit(0.7));
  add(NodeInit(0.2));
  engine_.inject(0.5, Message{kProbr, 0.2});  // target left of receiver
  deliver_all();
  EXPECT_DOUBLE_EQ(node(0.5)->l(), 0.3);
  EXPECT_DOUBLE_EQ(node(0.5)->r(), 0.7);
}

// ---------------------------------------------------------------------------
// Algorithm 9/10 — regular action (SENDID + PROBING)
// ---------------------------------------------------------------------------

using RegularActionTest = NodeFixture;

TEST_F(RegularActionTest, AnnouncesToBothNeighbors) {
  add(NodeInit(0.5, 0.3, 0.7));
  add(NodeInit(0.3));
  add(NodeInit(0.7));
  engine_.run_round();
  EXPECT_GE(pending(0.3, kLin, 0.5), 1);
  EXPECT_GE(pending(0.7, kLin, 0.5), 1);
}

TEST_F(RegularActionTest, AnnouncesLrlViaInclrl) {
  NodeInit n(0.5, 0.3, 0.7);
  n.lrl = 0.3;
  add(n);
  add(NodeInit(0.3));
  add(NodeInit(0.7));
  engine_.run_round();
  EXPECT_GE(pending(0.3, kInclrl, 0.5), 1);
}

TEST_F(RegularActionTest, SelfLrlAnnouncedToSelf) {
  add(NodeInit(0.5, 0.3, 0.7));
  add(NodeInit(0.3));
  add(NodeInit(0.7));
  engine_.run_round();
  EXPECT_GE(pending(0.5, kInclrl, 0.5), 1);
}

TEST_F(RegularActionTest, MinBootstrapsRingViaRightNeighbor) {
  add(NodeInit(0.1, kNegInf, 0.5));
  add(NodeInit(0.5, 0.1, kPosInf));
  engine_.run_round();
  // 0.1 has no ring edge yet: the ring walk starts at its r.
  EXPECT_GE(pending(0.5, kRing, 0.1), 1);
}

TEST_F(RegularActionTest, RingEdgeUsedOnceSet) {
  NodeInit min(0.1, kNegInf, 0.5);
  min.ring = 0.9;
  add(min);
  add(NodeInit(0.5, 0.1, 0.9));
  add(NodeInit(0.9, 0.5, kPosInf));
  engine_.run_round();
  EXPECT_GE(pending(0.9, kRing, 0.1), 1);
}

TEST_F(RegularActionTest, ProbingSendsProbeTowardLrl) {
  NodeInit n(0.2, 0.1, 0.4);
  n.lrl = 0.9;
  add(n);
  add(NodeInit(0.1));
  add(NodeInit(0.4));
  add(NodeInit(0.9));
  engine_.run_round();
  EXPECT_GE(pending(0.4, kProbr, 0.9), 1);
}

TEST_F(RegularActionTest, ProbeIntervalThrottles) {
  config_.probe_interval = 4;
  // A lone node whose links point at absent peers: every send is dropped
  // but still counted, so the probe counter is exactly the node's own sends.
  NodeInit n(0.2, 0.1, 0.4);
  n.lrl = 0.9;
  add(n);
  engine_.run_rounds(8);
  EXPECT_EQ(engine_.counters().sent_by_type[kProbr], 2u);  // rounds 1 and 5
}

TEST_F(RegularActionTest, ProbingDisabledSendsNoProbes) {
  config_.probing_enabled = false;
  NodeInit n(0.2, 0.1, 0.4);
  n.lrl = 0.9;
  add(n);
  engine_.run_rounds(4);
  EXPECT_EQ(engine_.counters().sent_by_type[kProbr], 0u);
  EXPECT_EQ(engine_.counters().sent_by_type[kProbl], 0u);
}

TEST_F(RegularActionTest, MoveAndForgetDisabledSendsNoInclrl) {
  config_.move_and_forget_enabled = false;
  add(NodeInit(0.5, 0.3, 0.7));
  add(NodeInit(0.3));
  add(NodeInit(0.7));
  engine_.run_rounds(3);
  EXPECT_EQ(engine_.counters().sent_by_type[kInclrl], 0u);
}

TEST_F(RegularActionTest, ProbingAdoptsLrlInOwnGap) {
  NodeInit n(0.2, 0.1, 0.8);
  n.lrl = 0.5;  // 0.2 < lrl < r: the lrl belongs in the gap
  auto* p = add(n);
  add(NodeInit(0.1));
  add(NodeInit(0.8));
  add(NodeInit(0.5));
  engine_.run_round();
  EXPECT_DOUBLE_EQ(p->r(), 0.5);
}

TEST_F(NodeFixture, ConstructorValidatesBounds) {
  EXPECT_DEATH(add(NodeInit(0.5, 0.7, kPosInf)), "initial l");
  EXPECT_DEATH(add(NodeInit(0.5, kNegInf, 0.3)), "initial r");
}

}  // namespace
}  // namespace sssw::core
