// Tests for core/views: Definition 4.2 graph extraction.
#include "core/views.hpp"

#include <gtest/gtest.h>

#include "core/messages.hpp"
#include "core/network.hpp"
#include "graph/traversal.hpp"
#include "support/graph_checks.hpp"

namespace sssw::core {
namespace {

using sim::kNegInf;
using sim::kPosInf;
using sim::Message;

class ViewsFixture : public ::testing::Test {
 protected:
  SmallWorldNetwork net_;
};

TEST_F(ViewsFixture, IndexMapsIdsToRanks) {
  net_.add_node(NodeInit(0.7));
  net_.add_node(NodeInit(0.1));
  net_.add_node(NodeInit(0.4));
  const IdIndex index(net_.engine());
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.vertex_of(0.1), 0u);
  EXPECT_EQ(index.vertex_of(0.4), 1u);
  EXPECT_EQ(index.vertex_of(0.7), 2u);
  EXPECT_DOUBLE_EQ(index.ids()[2], 0.7);
  EXPECT_TRUE(index.contains(0.4));
  EXPECT_FALSE(index.contains(0.5));
}

TEST_F(ViewsFixture, RingDistanceWraps) {
  for (const double id : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6}) net_.add_node(NodeInit(id));
  const IdIndex index(net_.engine());
  EXPECT_EQ(index.ring_distance(0.1, 0.2), 1u);
  EXPECT_EQ(index.ring_distance(0.1, 0.6), 1u);  // wraps around
  EXPECT_EQ(index.ring_distance(0.1, 0.4), 3u);
  EXPECT_EQ(index.ring_distance(0.3, 0.3), 0u);
}

TEST_F(ViewsFixture, LcpContainsExactlyStoredListLinks) {
  net_.add_node(NodeInit(0.1, kNegInf, 0.5));
  net_.add_node(NodeInit(0.5, 0.1, kPosInf));
  NodeInit c(0.9);
  c.lrl = 0.1;  // lrl must NOT appear in LCP
  net_.add_node(c);
  const IdIndex index(net_.engine());
  const auto lcp = view_lcp(net_.engine(), index);
  EXPECT_TRUE(lcp.has_edge(0, 1));
  EXPECT_TRUE(lcp.has_edge(1, 0));
  EXPECT_FALSE(lcp.has_edge(2, 0));
  EXPECT_EQ(lcp.edge_count(), 2u);
}

TEST_F(ViewsFixture, CpAddsLrlAndRing) {
  NodeInit min(0.1, kNegInf, 0.5);
  min.ring = 0.9;
  net_.add_node(min);
  net_.add_node(NodeInit(0.5, 0.1, 0.9));
  NodeInit max(0.9, 0.5, kPosInf);
  max.ring = 0.1;
  max.lrl = 0.5;
  net_.add_node(max);
  const IdIndex index(net_.engine());
  const auto cp = view_cp(net_.engine(), index);
  EXPECT_TRUE(cp.has_edge(0, 2));  // min.ring → max
  EXPECT_TRUE(cp.has_edge(2, 0));  // max.ring → min
  EXPECT_TRUE(cp.has_edge(2, 1));  // max.lrl → 0.5
}

TEST_F(ViewsFixture, InertSelfRingExcluded) {
  net_.add_node(NodeInit(0.1, kNegInf, 0.5));  // ring defaults to self
  net_.add_node(NodeInit(0.5, 0.1, kPosInf));
  const IdIndex index(net_.engine());
  const auto rcp = view_rcp(net_.engine(), index);
  EXPECT_EQ(rcp.edge_count(), 2u);  // just the two list links
}

TEST_F(ViewsFixture, RingOfInteriorNodeExcluded) {
  // Per the paper, a ring edge only exists while p.l = −∞ or p.r = ∞.
  net_.add_node(NodeInit(0.1, kNegInf, 0.3));
  NodeInit mid(0.3, 0.1, 0.5);
  mid.ring = 0.9;  // stale ring variable on an interior node: must not count
  net_.add_node(mid);
  net_.add_node(NodeInit(0.5, 0.3, 0.9));
  net_.add_node(NodeInit(0.9, 0.5, kPosInf));
  const IdIndex index(net_.engine());
  const auto rcp = view_rcp(net_.engine(), index);
  EXPECT_FALSE(rcp.has_edge(1, 3));   // 0.3 → 0.9 would be the stale ring edge
  EXPECT_EQ(rcp.out_degree(1), 2u);   // stored list links of 0.3: l and r only
}

TEST_F(ViewsFixture, LccSeesLinMessages) {
  net_.add_node(NodeInit(0.1));
  net_.add_node(NodeInit(0.9));
  net_.engine().inject(0.1, Message{kLin, 0.9});
  const IdIndex index(net_.engine());
  const auto lcp = view_lcp(net_.engine(), index);
  const auto lcc = view_lcc(net_.engine(), index);
  EXPECT_EQ(lcp.edge_count(), 0u);
  EXPECT_TRUE(lcc.has_edge(0, 1));  // the in-flight lin forms a channel link
}

TEST_F(ViewsFixture, LccIgnoresNonLinMessages) {
  net_.add_node(NodeInit(0.1));
  net_.add_node(NodeInit(0.9));
  net_.engine().inject(0.1, Message{kInclrl, 0.9});
  net_.engine().inject(0.1, Message{kProbr, 0.9});
  const IdIndex index(net_.engine());
  const auto lcc = view_lcc(net_.engine(), index);
  EXPECT_EQ(lcc.edge_count(), 0u);
}

TEST_F(ViewsFixture, RccSeesRingMessages) {
  net_.add_node(NodeInit(0.1));
  net_.add_node(NodeInit(0.9));
  net_.engine().inject(0.9, Message{kRing, 0.1});
  const IdIndex index(net_.engine());
  const auto rcc = view_rcc(net_.engine(), index);
  EXPECT_TRUE(rcc.has_edge(1, 0));
}

TEST_F(ViewsFixture, CcSeesEverything) {
  NodeInit a(0.1);
  a.lrl = 0.5;
  net_.add_node(a);
  net_.add_node(NodeInit(0.5));
  net_.add_node(NodeInit(0.9));
  net_.engine().inject(0.5, Message{kProbl, 0.9});
  const IdIndex index(net_.engine());
  const auto cc = view_cc(net_.engine(), index);
  EXPECT_TRUE(cc.has_edge(0, 1));  // stored lrl
  EXPECT_TRUE(cc.has_edge(1, 2));  // probe message payload
}

TEST_F(ViewsFixture, ReslrlContributesBothIds) {
  net_.add_node(NodeInit(0.1));
  net_.add_node(NodeInit(0.5));
  net_.add_node(NodeInit(0.9));
  net_.engine().inject(0.1, Message{kReslrl, 0.5, 0.9});
  const IdIndex index(net_.engine());
  const auto cc = view_cc(net_.engine(), index);
  EXPECT_TRUE(cc.has_edge(0, 1));
  EXPECT_TRUE(cc.has_edge(0, 2));
}

TEST_F(ViewsFixture, DanglingLinksSkipped) {
  NodeInit a(0.1);
  a.lrl = 0.42;  // no such node (departed)
  net_.add_node(a);
  net_.add_node(NodeInit(0.9));
  const IdIndex index(net_.engine());
  const auto cp = view_cp(net_.engine(), index);
  EXPECT_EQ(cp.edge_count(), 0u);
}

TEST_F(ViewsFixture, StableRingViewsAreConnected) {
  SmallWorldNetwork ring = make_stable_ring({0.1, 0.3, 0.5, 0.7, 0.9});
  const IdIndex index(ring.engine());
  EXPECT_TRUE(graph::is_weakly_connected(view_lcp(ring.engine(), index)));
  EXPECT_TRUE(graph::is_strongly_connected(view_rcp(ring.engine(), index)));
}

}  // namespace
}  // namespace sssw::core
