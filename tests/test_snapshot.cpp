// Tests for core/snapshot: capture, text round-trip, restore-and-resume.
#include "core/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/messages.hpp"
#include "topology/initial_states.hpp"
#include "util/rng.hpp"

namespace sssw::core {
namespace {

using sim::kNegInf;
using sim::kPosInf;

SmallWorldNetwork busy_network(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  NetworkOptions options;
  options.seed = seed;
  SmallWorldNetwork net = make_stable_ring(random_ids(n, rng), options);
  net.run_rounds(2 * n);  // move lrls around and fill channels
  return net;
}

TEST(Snapshot, CapturesEveryNode) {
  SmallWorldNetwork net = busy_network(16, 1);
  const Snapshot snapshot = take_snapshot(net);
  EXPECT_EQ(snapshot.nodes.size(), 16u);
  EXPECT_EQ(snapshot.messages.size(), net.engine().pending_messages());
  EXPECT_GT(snapshot.messages.size(), 0u);
}

TEST(Snapshot, ChannelsOptional) {
  SmallWorldNetwork net = busy_network(8, 2);
  const Snapshot snapshot = take_snapshot(net, /*include_channels=*/false);
  EXPECT_TRUE(snapshot.messages.empty());
}

/// Every pending message as for_each_pending visits it: rank order, then
/// push order within one receiver.
std::vector<SnapshotMessage> pending_sequence(const SmallWorldNetwork& net) {
  std::vector<SnapshotMessage> sequence;
  net.engine().for_each_pending([&](sim::Id to, const sim::Message& message) {
    sequence.push_back({to, message});
  });
  return sequence;
}

void expect_same_sequence(const std::vector<SnapshotMessage>& a,
                          const std::vector<SnapshotMessage>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].to, b[i].to) << "message " << i;
    EXPECT_EQ(a[i].message.type, b[i].message.type) << "message " << i;
    EXPECT_EQ(a[i].message.id1, b[i].message.id1) << "message " << i;
    EXPECT_EQ(a[i].message.id2, b[i].message.id2) << "message " << i;
    EXPECT_EQ(a[i].message.id3, b[i].message.id3) << "message " << i;
  }
}

/// A 32-node ring with two long-range links per node and the active
/// detector, run 40 rounds: its pongs and multi-link reslrl responses carry
/// an id3, which the text format must keep.
SmallWorldNetwork id3_network() {
  util::Rng rng(32);
  NetworkOptions options;
  options.seed = 32;
  options.protocol.lrl_count = 2;
  options.protocol.detector.enabled = true;
  SmallWorldNetwork net = make_stable_ring(random_ids(32, rng), options);
  net.run_rounds(40);
  return net;
}

TEST(Snapshot, RestorePreservesState) {
  SmallWorldNetwork net = busy_network(16, 3);
  const Snapshot snapshot = take_snapshot(net);
  SmallWorldNetwork restored = restore_snapshot(snapshot);
  ASSERT_EQ(restored.size(), net.size());
  for (const sim::Id id : net.engine().id_span()) {
    const auto* original = net.node(id);
    const auto* copy = restored.node(id);
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->l(), original->l());
    EXPECT_EQ(copy->r(), original->r());
    EXPECT_EQ(copy->lrl(), original->lrl());
    EXPECT_EQ(copy->ring(), original->ring());
    EXPECT_EQ(copy->age(), original->age());
  }
  EXPECT_EQ(restored.engine().pending_messages(), net.engine().pending_messages());
  // The restored channels hold the same messages in the same visiting
  // order: rank order, then push order within one receiver.
  expect_same_sequence(pending_sequence(restored), pending_sequence(net));
}

TEST(Snapshot, TextRoundTripIsExact) {
  for (const bool with_id3 : {false, true}) {
    SCOPED_TRACE(with_id3 ? "multi-link ring with detector" : "busy ring");
    SmallWorldNetwork net = with_id3 ? id3_network() : busy_network(12, 4);
    const Snapshot snapshot = take_snapshot(net);
    const Snapshot parsed = from_text(to_text(snapshot));
    ASSERT_EQ(parsed.nodes.size(), snapshot.nodes.size());
    for (std::size_t i = 0; i < snapshot.nodes.size(); ++i) {
      EXPECT_EQ(parsed.nodes[i].id, snapshot.nodes[i].id);
      EXPECT_EQ(parsed.nodes[i].l, snapshot.nodes[i].l);
      EXPECT_EQ(parsed.nodes[i].r, snapshot.nodes[i].r);
      EXPECT_EQ(parsed.nodes[i].lrl, snapshot.nodes[i].lrl);
      EXPECT_EQ(parsed.nodes[i].ring, snapshot.nodes[i].ring);
      EXPECT_EQ(parsed.nodes[i].age, snapshot.nodes[i].age);
    }
    expect_same_sequence(parsed.messages, snapshot.messages);
    if (with_id3) {
      // The case must exercise id3, or it pins nothing.
      const auto carries_id3 = [](const SnapshotMessage& pending) {
        return pending.message.id3 != kNegInf;
      };
      EXPECT_GT(std::count_if(snapshot.messages.begin(), snapshot.messages.end(),
                              carries_id3),
                0);
    }
  }
}

TEST(Snapshot, SentinelsSerialize) {
  SmallWorldNetwork net;
  net.add_node(NodeInit(0.5));  // l = -inf, r = inf
  const std::string text = to_text(take_snapshot(net));
  EXPECT_NE(text.find("-inf"), std::string::npos);
  EXPECT_NE(text.find(" inf"), std::string::npos);
  const Snapshot parsed = from_text(text);
  ASSERT_EQ(parsed.nodes.size(), 1u);
  EXPECT_EQ(parsed.nodes[0].l, kNegInf);
  EXPECT_EQ(parsed.nodes[0].r, kPosInf);
}

TEST(Snapshot, RestoredNetworkResumesAndStabilizes) {
  // The acid test: checkpoint mid-convergence, restore, finish converging.
  util::Rng rng(5);
  NetworkOptions options;
  options.seed = 5;
  SmallWorldNetwork net(options);
  auto ids = random_ids(32, rng);
  net.add_nodes(topology::make_initial_state(topology::InitialShape::kRandomChain,
                                             std::move(ids), rng));
  net.run_rounds(3);  // partway through linearization
  const Snapshot snapshot = take_snapshot(net);

  NetworkOptions restore_options;
  restore_options.seed = 99;  // different stream; protocol must not care
  SmallWorldNetwork resumed = restore_snapshot(snapshot, restore_options);
  EXPECT_TRUE(resumed.run_until_sorted_ring(100000).has_value());
}

TEST(Snapshot, RejectsMalformedInput) {
  EXPECT_THROW(from_text("not a snapshot"), std::runtime_error);
  EXPECT_THROW(from_text("sssw-snapshot v1\n"), std::runtime_error);  // no id3
  EXPECT_THROW(from_text("sssw-snapshot v2\nnode garbage"), std::runtime_error);
  EXPECT_THROW(from_text("sssw-snapshot v2\nmsg 0.5 99 0.1 0.2 -inf"),
               std::runtime_error);
  EXPECT_THROW(from_text("sssw-snapshot v2\nwhat 1 2 3"), std::runtime_error);
  EXPECT_THROW(from_text("sssw-snapshot v2\nnode zzz -inf inf zzz zzz 0"),
               std::runtime_error);
}

TEST(Snapshot, EmptyNetworkRoundTrips) {
  SmallWorldNetwork net;
  const Snapshot parsed = from_text(to_text(take_snapshot(net)));
  EXPECT_TRUE(parsed.nodes.empty());
  EXPECT_TRUE(parsed.messages.empty());
}

}  // namespace
}  // namespace sssw::core
