// Tests for core/network: facade behaviour, join/leave, helpers.
#include "core/network.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.hpp"

namespace sssw::core {
namespace {

using sim::kNegInf;
using sim::kPosInf;

TEST(RandomIds, DistinctInUnitInterval) {
  util::Rng rng(1);
  const auto ids = random_ids(500, rng);
  EXPECT_EQ(ids.size(), 500u);
  std::set<sim::Id> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), 500u);
  for (const sim::Id id : ids) {
    EXPECT_GT(id, 0.0);
    EXPECT_LT(id, 1.0);
  }
}

TEST(MakeStableRing, ProducesSortedRing) {
  util::Rng rng(2);
  SmallWorldNetwork net = make_stable_ring(random_ids(50, rng));
  EXPECT_TRUE(net.sorted_ring());
  EXPECT_EQ(net.size(), 50u);
}

TEST(MakeStableRing, AcceptsUnsortedInput) {
  SmallWorldNetwork net = make_stable_ring({0.9, 0.1, 0.5});
  EXPECT_TRUE(net.sorted_ring());
}

TEST(Network, RunUntilSortedRingReturnsZeroWhenAlreadyThere) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.5, 0.9});
  const auto rounds = net.run_until_sorted_ring(10);
  ASSERT_TRUE(rounds.has_value());
  EXPECT_EQ(*rounds, 0u);
}

TEST(Network, RunUntilTimesOutWhenUnreachable) {
  SmallWorldNetwork net;
  net.add_node(NodeInit(0.1));
  net.add_node(NodeInit(0.9));  // disconnected: can never sort
  EXPECT_FALSE(net.run_until_sorted_list(20).has_value());
}

TEST(Network, JoinInsertsAndStabilizes) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.3, 0.7, 0.9});
  ASSERT_TRUE(net.join(0.5, 0.1));
  EXPECT_EQ(net.size(), 5u);
  EXPECT_FALSE(net.sorted_list());
  const auto rounds = net.run_until_sorted_ring(5000);
  ASSERT_TRUE(rounds.has_value());
  EXPECT_DOUBLE_EQ(net.node(0.3)->r(), 0.5);
  EXPECT_DOUBLE_EQ(net.node(0.7)->l(), 0.5);
}

TEST(Network, JoinRejectsDuplicatesAndUnknownContacts) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.9});
  EXPECT_FALSE(net.join(0.1, 0.9));   // id exists
  EXPECT_FALSE(net.join(0.5, 0.42));  // contact missing
  EXPECT_FALSE(net.join(0.5, 0.5));   // self-contact
}

TEST(Network, JoinAsNewMinimum) {
  SmallWorldNetwork net = make_stable_ring({0.3, 0.5, 0.9});
  ASSERT_TRUE(net.join(0.1, 0.9));
  const auto rounds = net.run_until_sorted_ring(5000);
  ASSERT_TRUE(rounds.has_value());
  EXPECT_DOUBLE_EQ(net.node(0.1)->ring(), 0.9);
  EXPECT_DOUBLE_EQ(net.node(0.9)->ring(), 0.1);
}

TEST(Network, LeaveClearsDanglingPointers) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.3, 0.5, 0.7});
  net.node(0.1)->set_lrl(0.5);
  ASSERT_TRUE(net.leave(0.5));
  EXPECT_EQ(net.size(), 3u);
  EXPECT_DOUBLE_EQ(net.node(0.3)->r(), kPosInf);
  EXPECT_DOUBLE_EQ(net.node(0.7)->l(), kNegInf);
  EXPECT_DOUBLE_EQ(net.node(0.1)->lrl(), 0.1);  // reset home
}

TEST(Network, LeaveOfUnknownIdFails) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.9});
  EXPECT_FALSE(net.leave(0.5));
}

TEST(Network, LeaveRecoversWithCrossingLrl) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.3, 0.5, 0.7, 0.9});
  // A long-range link crossing the (0.3, 0.7) gap guarantees recovery.
  net.node(0.1)->set_lrl(0.9);
  ASSERT_TRUE(net.leave(0.5));
  const auto rounds = net.run_until_sorted_ring(5000);
  ASSERT_TRUE(rounds.has_value());
  EXPECT_DOUBLE_EQ(net.node(0.3)->r(), 0.7);
  EXPECT_DOUBLE_EQ(net.node(0.7)->l(), 0.3);
}

TEST(Network, LeaveOfMaxRepairsRing) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.3, 0.5, 0.9});
  net.run_rounds(50);  // let lrls spread so connectivity survives
  ASSERT_TRUE(net.leave(0.9));
  const auto rounds = net.run_until_sorted_ring(5000);
  ASSERT_TRUE(rounds.has_value());
  EXPECT_DOUBLE_EQ(net.node(0.1)->ring(), 0.5);
  EXPECT_DOUBLE_EQ(net.node(0.5)->ring(), 0.1);
}

TEST(Network, LrlLengthsMeasuresRingDistance) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.2, 0.3, 0.4, 0.5, 0.6});
  net.node(0.1)->set_lrl(0.4);  // distance 3
  net.node(0.2)->set_lrl(0.3);  // distance 1
  // Remaining nodes point home → excluded.
  const auto lengths = net.lrl_lengths();
  std::multiset<std::size_t> got(lengths.begin(), lengths.end());
  EXPECT_EQ(got, (std::multiset<std::size_t>{1, 3}));
}

TEST(Network, PhaseReporting) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.5, 0.9});
  EXPECT_EQ(net.phase(), Phase::kSortedRing);
}

TEST(Network, RunUntilSmallWorldCompletes) {
  util::Rng rng(7);
  SmallWorldNetwork net = make_stable_ring(random_ids(16, rng));
  const auto rounds = net.run_until_small_world(20000);
  ASSERT_TRUE(rounds.has_value());
  EXPECT_EQ(net.phase(), Phase::kSmallWorld);
}

TEST(Network, NodeAccessorReturnsNullForUnknown) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.9});
  EXPECT_EQ(net.node(0.5), nullptr);
  EXPECT_NE(net.node(0.1), nullptr);
}

TEST(Network, MoveAssignmentOverALiveNetwork) {
  // sssw_sim's `load` assigns a restored network over a live one.  The old
  // nodes must release their store slots before their store is freed (an
  // ASan build reports the use-after-free otherwise), and the incoming
  // network's tracker and hooks must keep working in its new home.
  util::Rng rng(3);
  SmallWorldNetwork net = make_stable_ring(random_ids(32, rng));
  net.run_rounds(5);
  NetworkOptions options;
  options.verify_tracker = true;
  SmallWorldNetwork incoming = make_stable_ring({0.1, 0.3, 0.5, 0.7}, options);
  net = std::move(incoming);
  EXPECT_EQ(net.size(), 4u);
  ASSERT_TRUE(net.join(0.6, 0.5));
  ASSERT_TRUE(net.leave(0.3));
  EXPECT_TRUE(net.run_until_sorted_ring(200).has_value());
  EXPECT_TRUE(net.lrls_resolve());
}

}  // namespace
}  // namespace sssw::core
