// Tests for routing/probe_path: the Algorithm 5/6/10 walk over a snapshot.
#include "routing/probe_path.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/messages.hpp"
#include "core/network.hpp"
#include "util/rng.hpp"

namespace sssw::routing {
namespace {

using core::make_stable_ring;
using core::SmallWorldNetwork;

TEST(ProbeWalk, ReachesAdjacentTarget) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.3, 0.5, 0.7});
  const ProbeResult r = probe_walk(net, 0.1, 0.3, 100);
  EXPECT_TRUE(r.reached);
  EXPECT_EQ(r.hops, 1u);
}

TEST(ProbeWalk, WalksRightAlongList) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.2, 0.3, 0.4, 0.5});
  const ProbeResult r = probe_walk(net, 0.1, 0.5, 100);
  EXPECT_TRUE(r.reached);
  EXPECT_EQ(r.hops, 4u);
}

TEST(ProbeWalk, WalksLeftSymmetrically) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.2, 0.3, 0.4, 0.5});
  const ProbeResult r = probe_walk(net, 0.5, 0.1, 100);
  EXPECT_TRUE(r.reached);
  EXPECT_EQ(r.hops, 4u);
}

TEST(ProbeWalk, UsesLrlShortcuts) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7});
  net.node(0.2)->set_lrl(0.6);  // probe from 0.1 to 0.7 can jump 0.2→0.6
  const ProbeResult r = probe_walk(net, 0.1, 0.7, 100);
  EXPECT_TRUE(r.reached);
  EXPECT_EQ(r.hops, 3u);  // 0.1→0.2 (first hop), 0.2→0.6 (lrl), 0.6→0.7
}

TEST(ProbeWalk, FollowsTheBestLongRangeLink) {
  // With two links, Algorithm 5 forwards along the farthest link that does
  // not pass the target, whichever slot holds it; the walk must take the
  // hops the live protocol takes.
  core::NetworkOptions options;
  options.protocol.lrl_count = 2;
  SmallWorldNetwork net =
      make_stable_ring({0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}, options);
  net.node(0.2)->set_lrl(0.4);  // link 0: the shorter shortcut
  // Link 1 (at home) moves to 0.6 the way the protocol moves a link: by a
  // reslrl from the node it points at.
  net.engine().inject(0.2, sim::Message{core::kReslrl, 0.6, 0.6, 0.2});
  net.engine().deliver_pending_once();
  ASSERT_DOUBLE_EQ(net.node(0.2)->lrls()[1].target, 0.6);

  // The live hops of a probe toward 0.7 that 0.1 hands to its r, 0.2.
  std::vector<sim::Id> live{0.2};
  net.engine().add_send_hook([&](sim::Id to, const sim::Message& m) {
    if (m.type == core::kProbr && m.id1 == 0.7) live.push_back(to);
  });
  net.engine().inject(0.2, sim::Message{core::kProbr, 0.7});
  for (int pass = 0; pass < 4; ++pass) net.engine().deliver_pending_once();
  EXPECT_EQ(live, (std::vector<sim::Id>{0.2, 0.6, 0.7}));

  const ProbeResult r = probe_walk(net, 0.1, 0.7, 100);
  EXPECT_TRUE(r.reached);
  EXPECT_EQ(r.hops, live.size());  // 0.1→0.2, 0.2→0.6 (link 1), 0.6→0.7
}

TEST(ProbeWalk, DoesNotOvershootWithLrl) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.2, 0.3, 0.4, 0.5});
  net.node(0.2)->set_lrl(0.5);  // past the target 0.4: must not be used
  const ProbeResult r = probe_walk(net, 0.1, 0.4, 100);
  EXPECT_TRUE(r.reached);
  EXPECT_EQ(r.hops, 3u);  // strictly along the list
}

TEST(ProbeWalk, SelfProbeTerminatesImmediately) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.3, 0.5});
  const ProbeResult r = probe_walk(net, 0.3, 0.3, 100);
  EXPECT_FALSE(r.reached);
  EXPECT_EQ(r.hops, 0u);
  EXPECT_DOUBLE_EQ(r.stopped_at, 0.3);
}

TEST(ProbeWalk, RepairsAcrossGap) {
  // Remove the node between 0.3 and 0.7; a probe headed to 0.9 stalls at
  // 0.3 (whose r is now ∞... after repair semantics the walk linearizes).
  SmallWorldNetwork net = make_stable_ring({0.1, 0.3, 0.5, 0.7, 0.9});
  net.leave(0.5);
  const ProbeResult r = probe_walk(net, 0.1, 0.9, 100);
  EXPECT_FALSE(r.reached);
  EXPECT_TRUE(r.repaired);
  EXPECT_DOUBLE_EQ(r.stopped_at, 0.3);  // the left edge of the gap
}

TEST(ProbeWalk, HopBudgetRespected) {
  SmallWorldNetwork net = make_stable_ring({0.1, 0.2, 0.3, 0.4, 0.5, 0.6});
  const ProbeResult r = probe_walk(net, 0.1, 0.6, 2);
  EXPECT_FALSE(r.reached);
  EXPECT_EQ(r.hops, 2u);
}

TEST(ProbeWalk, StableNetworkProbesAlwaysSucceed) {
  // Lemma 4.5 empirically: in the stable state every probe reaches its
  // destination, for every (origin, target) pair.
  util::Rng rng(11);
  SmallWorldNetwork net = make_stable_ring(core::random_ids(24, rng));
  const auto ids = net.engine().id_span();
  for (const sim::Id origin : ids) {
    for (const sim::Id target : ids) {
      if (origin == target) continue;
      const ProbeResult r = probe_walk(net, origin, target, 1000);
      ASSERT_TRUE(r.reached) << origin << " → " << target;
      EXPECT_FALSE(r.repaired);
    }
  }
}

TEST(ProbeWalk, StabilizedLrlsProbeSuccessfully) {
  // After the network has run (lrls moved by move-and-forget), each node's
  // own probe — the one Algorithm 10 actually sends — must succeed.
  util::Rng rng(13);
  SmallWorldNetwork net = make_stable_ring(core::random_ids(32, rng));
  net.run_rounds(200);
  ASSERT_TRUE(net.sorted_ring());
  for (const sim::Id id : net.engine().id_span()) {
    const sim::Id target = net.node(id)->lrl();
    if (target == id) continue;
    const ProbeResult r = probe_walk(net, id, target, 1000);
    EXPECT_TRUE(r.reached) << id << " → " << target;
  }
}

}  // namespace
}  // namespace sssw::routing
