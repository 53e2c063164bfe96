// Tests for the struct-of-arrays node store (DESIGN.md §8): slot lifecycle,
// free-list recycling, strided lrl spans, and the SmallWorldNode thin-view
// contract over a shared store.
#include "core/node_store.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/node.hpp"

namespace sssw::core {
namespace {

// A link is two words (target, age): the per-round sweep reads every one.
static_assert(sizeof(LongRangeLink) == 16);

TEST(NodeStore, AcquireHandsOutNeutralState) {
  Config config;
  NodeStore store(config);
  const std::size_t slot = store.acquire();
  EXPECT_EQ(store.l(slot), sim::kNegInf);
  EXPECT_EQ(store.r(slot), sim::kPosInf);
  EXPECT_EQ(store.ring(slot), 0.0);
  EXPECT_EQ(store.forgets(slot), 0u);
  EXPECT_EQ(store.max_age(slot), 0u);
  ASSERT_EQ(store.lrls(slot).size(), config.lrl_count);
  for (const LongRangeLink& link : store.lrls(slot)) {
    EXPECT_EQ(link.target, 0.0);
    EXPECT_EQ(link.age, 0u);
  }
}

TEST(NodeStore, ReleasedSlotIsRecycledAndReset) {
  Config config;
  NodeStore store(config);
  const std::size_t first = store.acquire();
  store.l(first) = 0.25;
  store.forgets(first) = 7;
  store.lrls(first)[0] = LongRangeLink{0.5, 3};
  store.release(first);

  // LIFO recycling: the very next acquire reuses the slot, scrubbed.
  const std::size_t again = store.acquire();
  EXPECT_EQ(again, first);
  EXPECT_EQ(store.l(again), sim::kNegInf);
  EXPECT_EQ(store.forgets(again), 0u);
  EXPECT_EQ(store.lrls(again)[0].target, 0.0);
}

TEST(NodeStore, LrlSpansAreStridedAndDisjoint) {
  Config config;
  config.lrl_count = 3;
  NodeStore store(config);
  const std::size_t a = store.acquire();
  const std::size_t b = store.acquire();
  for (std::size_t k = 0; k < 3; ++k) {
    store.lrls(a)[k].target = 0.1 * static_cast<double>(k + 1);
    store.lrls(b)[k].target = 0.2 * static_cast<double>(k + 1);
  }
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(store.lrls(a)[k].target, 0.1 * static_cast<double>(k + 1));
    EXPECT_EQ(store.lrls(b)[k].target, 0.2 * static_cast<double>(k + 1));
  }
}

TEST(NodeStore, NodeViewReadsAndWritesThroughSharedStore) {
  Config config;
  NodeStore store(config);
  NodeInit init(0.5);
  init.l = 0.25;
  init.r = 0.75;
  SmallWorldNode node(init, store);
  EXPECT_EQ(node.l(), 0.25);
  EXPECT_EQ(node.r(), 0.75);
  node.set_l(0.1);
  EXPECT_EQ(node.l(), 0.1);
  // The view owns a slot in the shared arrays, not private heap state.
  EXPECT_EQ(store.l(0), 0.1);
}

TEST(NodeStore, NodeDestructionReleasesItsSlot) {
  Config config;
  NodeStore store(config);
  {
    SmallWorldNode node(NodeInit(0.5), store);
    (void)node;
  }
  // The freed slot is recycled by the next view.
  SmallWorldNode next(NodeInit(0.75), store);
  EXPECT_EQ(store.ring(0), 0.75);  // slot 0 reused; ring initialized to self
}

TEST(NodeStore, RejectsMoreLinksThanALookupHopRoutesOn) {
  // l, r, ring and 13 links fill routing::kMaxNextHopCandidates; a 14th
  // link would be watched and probed but never routed on.
  Config config;
  config.lrl_count = kMaxLrlCount;
  NodeStore most(config);
  EXPECT_EQ(most.lrl_count(), 13u);
  config.lrl_count = kMaxLrlCount + 1;
  EXPECT_DEATH({ NodeStore store(config); }, "lrl_count must be at most");
}

TEST(NodeStore, GrowthPreservesExistingSlots) {
  Config config;
  NodeStore store(config);
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < 512; ++i) {
    const std::size_t slot = store.acquire();
    store.l(slot) = static_cast<double>(i) / 1024.0;
    slots.push_back(slot);
  }
  for (std::size_t i = 0; i < slots.size(); ++i)
    EXPECT_EQ(store.l(slots[i]), static_cast<double>(i) / 1024.0);
}

}  // namespace
}  // namespace sssw::core
