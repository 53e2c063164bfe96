#include "core/invariant_tracker.hpp"

#include <algorithm>

#include "core/node.hpp"
#include "util/check.hpp"

namespace sssw::core {

using sim::Id;
using sim::kNegInf;
using sim::kPosInf;

namespace {

std::size_t rank_in(std::span<const Id> ids, Id id) noexcept {
  return static_cast<std::size_t>(std::lower_bound(ids.begin(), ids.end(), id) -
                                  ids.begin());
}

}  // namespace

// --- helpers ---------------------------------------------------------------

InvariantTracker::Entry& InvariantTracker::entry_of(Id id) noexcept {
  const SmallWorldNode* node = as_node(engine_.find(id));
  SSSW_DCHECK(node != nullptr && entries_[node->slot()].node == node);
  return entries_[node->slot()];
}

void InvariantTracker::refresh_pair(Entry& e) noexcept {
  const bool ok = e.node->l() == e.want_l && e.node->r() == e.want_r;
  if (ok != e.pair_ok) {
    e.pair_ok = ok;
    if (ok) {
      ++sorted_pairs_;
    } else {
      --sorted_pairs_;
    }
  }
}

void InvariantTracker::recount_unresolved() const {
  std::size_t absent = 0;
  for (std::size_t slot = 0; slot < entries_.size(); ++slot) {
    if (entries_[slot].node == nullptr) continue;
    for (const LongRangeLink& link : store_.lrls(slot))
      if (!engine_.contains(link.target)) ++absent;
  }
  unresolved_links_ = absent;
  unresolved_stale_ = false;
}

// --- membership ------------------------------------------------------------

void InvariantTracker::on_add(const SmallWorldNode& node) {
  const Id id = node.id();
  const std::span<const Id> ids = engine_.id_span();
  const std::size_t rank = rank_in(ids, id);
  SSSW_DCHECK(rank < ids.size() && ids[rank] == id);
  if (node.slot() >= entries_.size()) entries_.resize(node.slot() + 1);

  Entry& e = entries_[node.slot()];
  SSSW_DCHECK(e.node == nullptr);
  e = Entry{};
  e.node = &node;
  e.want_l = rank == 0 ? kNegInf : ids[rank - 1];
  e.want_r = rank + 1 == ids.size() ? kPosInf : ids[rank + 1];
  refresh_pair(e);
  e.forgot = node.forget_count() > 0;
  if (e.forgot) ++forgot_nodes_;
  // A joiner's epoch baseline is 0 (the old run_until_small_world oracle
  // gave unknown nodes `before = 0`), so it is already fresh iff it has
  // ever forgotten.
  e.epoch_counted = e.forgot;
  if (e.epoch_counted) ++epoch_fresh_;
  // Links elsewhere that were stranded at this id now resolve.
  unresolved_stale_ = true;

  // Only the two rank neighbours' (l, r) expectations changed.
  if (rank > 0) {
    Entry& left = entry_of(ids[rank - 1]);
    left.want_r = id;
    refresh_pair(left);
  }
  if (rank + 1 < ids.size()) {
    Entry& right = entry_of(ids[rank + 1]);
    right.want_l = id;
    refresh_pair(right);
  }
}

void InvariantTracker::on_remove(const SmallWorldNode& node) {
  const std::span<const Id> ids = engine_.id_span();
  const std::size_t rank = rank_in(ids, node.id());
  SSSW_DCHECK(rank < ids.size() && ids[rank] == node.id());
  Entry& e = entries_[node.slot()];
  SSSW_DCHECK(e.node == &node);
  if (e.pair_ok) --sorted_pairs_;
  if (e.forgot) --forgot_nodes_;
  if (e.epoch_counted) --epoch_fresh_;
  e = Entry{};
  // Links elsewhere that pointed at the leaver are now stranded.
  unresolved_stale_ = true;

  // The former rank neighbours now expect each other.
  const Id left_id = rank > 0 ? ids[rank - 1] : kNegInf;
  const Id right_id = rank + 1 < ids.size() ? ids[rank + 1] : kPosInf;
  if (rank > 0) {
    Entry& left = entry_of(left_id);
    left.want_r = right_id;
    refresh_pair(left);
  }
  if (rank + 1 < ids.size()) {
    Entry& right = entry_of(right_id);
    right.want_l = left_id;
    refresh_pair(right);
  }
}

// --- mutation hooks --------------------------------------------------------

void InvariantTracker::on_list_changed(const SmallWorldNode& node) {
  refresh_pair(entries_[node.slot()]);
}

void InvariantTracker::on_lrl_changed(const SmallWorldNode& /*node*/) {
  unresolved_stale_ = true;  // the next query recounts every link
}

void InvariantTracker::on_forget(const SmallWorldNode& node) {
  Entry& e = entries_[node.slot()];
  if (!e.forgot && node.forget_count() > 0) {
    e.forgot = true;
    ++forgot_nodes_;
  }
  if (!e.epoch_counted && node.forget_count() > e.forget_baseline) {
    e.epoch_counted = true;
    ++epoch_fresh_;
  }
}

// --- queries ---------------------------------------------------------------

bool InvariantTracker::sorted_ring() const noexcept {
  if (!sorted_list()) return false;
  const std::span<const Id> ids = engine_.id_span();
  if (ids.size() < 2) return true;  // single node: trivially a ring
  const SmallWorldNode* min_node = as_node(engine_.find(ids.front()));
  const SmallWorldNode* max_node = as_node(engine_.find(ids.back()));
  return min_node->ring() == ids.back() && max_node->ring() == ids.front();
}

std::size_t InvariantTracker::unresolved_links() const {
  if (unresolved_stale_) recount_unresolved();
  return unresolved_links_;
}

void InvariantTracker::arm_forget_epoch() {
  epoch_fresh_ = 0;
  for (Entry& e : entries_) {
    if (e.node == nullptr) continue;
    e.forget_baseline = e.node->forget_count();
    e.epoch_counted = false;
  }
}

// --- oracle cross-check ----------------------------------------------------

void InvariantTracker::verify_against(const sim::Engine& engine) const {
  SSSW_CHECK_MSG(&engine == &engine_, "tracker verified against another engine");
  if (unresolved_stale_) recount_unresolved();
  const std::span<const Id> ids = engine.id_span();
  const std::size_t tracked = static_cast<std::size_t>(std::count_if(
      entries_.begin(), entries_.end(),
      [](const Entry& e) { return e.node != nullptr; }));
  SSSW_CHECK_MSG(tracked == ids.size(), "tracked entry count diverged from engine");

  std::size_t pairs = 0;
  std::size_t forgot = 0;
  std::size_t fresh = 0;
  std::size_t unresolved = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const SmallWorldNode* node = as_node(engine.find(ids[i]));
    SSSW_CHECK_MSG(node != nullptr, "tracked id is not a SmallWorldNode");
    SSSW_CHECK_MSG(node->slot() < entries_.size(), "tracked id has no entry");
    const Entry& e = entries_[node->slot()];
    SSSW_CHECK_MSG(e.node == node, "entry caches a stale node pointer");

    const Id want_l = i == 0 ? kNegInf : ids[i - 1];
    const Id want_r = i + 1 == ids.size() ? kPosInf : ids[i + 1];
    SSSW_CHECK_MSG(e.want_l == want_l && e.want_r == want_r,
                   "entry expected neighbours diverged");
    const bool want_pair = node->l() == want_l && node->r() == want_r;
    SSSW_CHECK_MSG(e.pair_ok == want_pair, "entry pair_ok diverged");
    if (want_pair) ++pairs;

    const bool want_forgot = node->forget_count() > 0;
    SSSW_CHECK_MSG(e.forgot == want_forgot, "entry forgot flag diverged");
    if (want_forgot) ++forgot;

    const bool want_fresh = node->forget_count() > e.forget_baseline;
    SSSW_CHECK_MSG(e.epoch_counted == want_fresh,
                   "entry epoch_counted diverged");
    if (want_fresh) ++fresh;

    for (const SmallWorldNode::LongRangeLink& link : node->lrls())
      if (!engine.contains(link.target)) ++unresolved;
  }

  SSSW_CHECK_MSG(sorted_pairs_ == pairs, "sorted_pairs_ diverged");
  SSSW_CHECK_MSG(forgot_nodes_ == forgot, "forgot_nodes_ diverged");
  SSSW_CHECK_MSG(epoch_fresh_ == fresh, "epoch_fresh_ diverged");
  SSSW_CHECK_MSG(unresolved_links_ == unresolved, "unresolved_links_ diverged");
}

}  // namespace sssw::core
