// Differential conformance tests: the production SmallWorldNode vs an
// independent literal transcription of the paper's pseudocode
// (tests/support/reference_node.hpp), over thousands of random states and
// messages.  Any divergence in post-state or in the multiset of sent
// messages is a transcription bug in one of the two copies.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/node.hpp"
#include "sim/engine.hpp"
#include "support/reference_node.hpp"
#include "util/rng.hpp"

namespace sssw::core {
namespace {

using sim::Id;
using sim::kNegInf;
using sim::kPosInf;
using sim::Message;
using testing_ns = ::testing::Test;  // avoid clash with sssw::testing

constexpr double kPool[] = {0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95};

struct Harness {
  sssw::testing::RefState random_state(util::Rng& rng) {
    sssw::testing::RefState state{};
    state.id = kPool[rng.below(std::size(kPool))];
    // l: −∞ or a random smaller pool id.
    state.l = kNegInf;
    if (rng.bernoulli(0.7)) {
      const double candidate = kPool[rng.below(std::size(kPool))];
      if (candidate < state.id) state.l = candidate;
    }
    state.r = kPosInf;
    if (rng.bernoulli(0.7)) {
      const double candidate = kPool[rng.below(std::size(kPool))];
      if (candidate > state.id) state.r = candidate;
    }
    state.lrl = rng.bernoulli(0.2) ? state.id : kPool[rng.below(std::size(kPool))];
    state.ring = rng.bernoulli(0.3) ? state.id : kPool[rng.below(std::size(kPool))];
    return state;
  }

  Id random_payload(util::Rng& rng) {
    const auto roll = rng.below(12);
    if (roll == 10) return kNegInf;
    if (roll == 11) return kPosInf;
    return kPool[roll];
  }

  /// Builds a message whose handling is deterministic (reslrl restricted to
  /// single-candidate shapes so MOVE-FORGET needs no coin).
  Message random_message(util::Rng& rng) {
    const auto type = static_cast<sim::MessageType>(rng.below(kNumMsgTypes));
    Message m{type, random_payload(rng), kPosInf};
    if (type == kReslrl) {
      if (rng.coin()) {
        m.id1 = random_payload(rng);
        m.id2 = kPosInf;
      } else {
        m.id1 = kNegInf;
        m.id2 = random_payload(rng);
      }
    }
    return m;
  }

  /// Runs the production node on `message` (or the regular action when
  /// nullopt) and returns (state, sends).
  sssw::testing::RefResult run_production(const sssw::testing::RefState& start,
                                          const Message* message) {
    NodeStore store{Config{}};  // declared before the engine: outlives the node
    sim::Engine engine(sim::EngineConfig{.seed = 42});
    NodeInit init(start.id);
    init.l = start.l;
    init.r = start.r;
    init.lrl = start.lrl;
    init.ring = start.ring;
    engine.add_process(std::make_unique<SmallWorldNode>(init, store));

    sssw::testing::RefResult result{};
    engine.add_send_hook([&](Id to, const Message& m) {
      if (sim::is_node_id(to) && sim::is_node_id(m.id1))
        result.sends.push_back({to, m.type, m.id1, m.id2});
    });
    if (message != nullptr) {
      engine.inject(start.id, *message);
      engine.deliver_pending_once();
    } else {
      engine.run_round();
    }
    const auto* node = dynamic_cast<const SmallWorldNode*>(engine.find(start.id));
    result.state = {node->id(), node->l(), node->r(), node->lrl(), node->ring()};
    return result;
  }

  static void sort_sends(std::vector<sssw::testing::RefSend>& sends) {
    std::sort(sends.begin(), sends.end(),
              [](const sssw::testing::RefSend& a, const sssw::testing::RefSend& b) {
                if (a.to != b.to) return a.to < b.to;
                if (a.type != b.type) return a.type < b.type;
                if (a.id1 != b.id1) return a.id1 < b.id1;
                return a.id2 < b.id2;
              });
  }

  void expect_equal(const sssw::testing::RefResult& production,
                    sssw::testing::RefResult reference, const std::string& label) {
    EXPECT_EQ(production.state.l, reference.state.l) << label;
    EXPECT_EQ(production.state.r, reference.state.r) << label;
    EXPECT_EQ(production.state.lrl, reference.state.lrl) << label;
    EXPECT_EQ(production.state.ring, reference.state.ring) << label;
    auto got = production.sends;
    sort_sends(got);
    sort_sends(reference.sends);
    EXPECT_EQ(got, reference.sends) << label;
  }
};

class Conformance : public ::testing::TestWithParam<int> {};

TEST_P(Conformance, ReceiveActionMatchesReference) {
  Harness harness;
  util::Rng rng(1000 + GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    const auto start = harness.random_state(rng);
    const Message message = harness.random_message(rng);
    const auto production = harness.run_production(start, &message);
    auto reference = sssw::testing::ref_receive(start, message);
    // Production tidies the ring inert value only inside linearize; mirror
    // exact semantics by comparing against the reference as written.
    harness.expect_equal(
        production, reference,
        "type=" + std::string(msg_type_name(message.type)) +
            " id1=" + std::to_string(message.id1) + " id2=" +
            std::to_string(message.id2) + " at id=" + std::to_string(start.id));
    if (::testing::Test::HasFailure()) return;  // first divergence is enough
  }
}

TEST_P(Conformance, RegularActionMatchesReference) {
  Harness harness;
  util::Rng rng(2000 + GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    const auto start = harness.random_state(rng);
    const auto production = harness.run_production(start, nullptr);
    auto reference = sssw::testing::ref_regular(start);
    harness.expect_equal(production, reference,
                         "regular at id=" + std::to_string(start.id));
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Conformance, ::testing::Range(0, 8));

}  // namespace
}  // namespace sssw::core
