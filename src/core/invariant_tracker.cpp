#include "core/invariant_tracker.hpp"

#include <algorithm>

#include "core/node.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"

namespace sssw::core {

using sim::Id;
using sim::kNegInf;
using sim::kPosInf;

// --- helpers ---------------------------------------------------------------

std::size_t InvariantTracker::rank_of(Id id) const noexcept {
  const auto pos = std::lower_bound(sorted_ids_.begin(), sorted_ids_.end(), id);
  return static_cast<std::size_t>(pos - sorted_ids_.begin());
}

bool InvariantTracker::contains(Id id) const noexcept {
  const auto pos = std::lower_bound(sorted_ids_.begin(), sorted_ids_.end(), id);
  return pos != sorted_ids_.end() && *pos == id;
}

bool InvariantTracker::pair_ok_for(const SmallWorldNode& node,
                                   std::size_t rank) const noexcept {
  const Id want_l = rank == 0 ? kNegInf : sorted_ids_[rank - 1];
  const Id want_r =
      rank + 1 == sorted_ids_.size() ? kPosInf : sorted_ids_[rank + 1];
  return node.l() == want_l && node.r() == want_r;
}

void InvariantTracker::reseed_pair(Id id) {
  Entry& e = entries_.at(id);
  const bool ok = pair_ok_for(*e.node, rank_of(id));
  if (ok != e.pair_ok) {
    e.pair_ok = ok;
    if (ok) {
      ++sorted_pairs_;
    } else {
      --sorted_pairs_;
    }
  }
}

void InvariantTracker::unref(Id target, Id holder) {
  const auto it = refs_.find(target);
  SSSW_DCHECK(it != refs_.end());
  std::vector<Id>& holders = it->second;
  for (Id& h : holders) {
    if (h == holder) {
      h = holders.back();
      holders.pop_back();
      if (holders.empty()) refs_.erase(it);
      return;
    }
  }
  SSSW_DCHECK(false && "unref: holder not found");
}

// --- membership ------------------------------------------------------------

void InvariantTracker::on_add(const SmallWorldNode& node) {
  const Id id = node.id();
  const std::size_t rank = rank_of(id);
  SSSW_DCHECK(rank == sorted_ids_.size() || sorted_ids_[rank] != id);
  sorted_ids_.insert(sorted_ids_.begin() + static_cast<std::ptrdiff_t>(rank),
                     id);

  // Links that were stranded at this id now resolve.
  if (const auto it = refs_.find(id); it != refs_.end()) {
    for (const Id holder : it->second) {
      Entry& h = entries_.at(holder);
      SSSW_DCHECK(h.unresolved > 0);
      --h.unresolved;
      --unresolved_links_;
    }
  }

  Entry e;
  e.node = &node;
  e.pair_ok = pair_ok_for(node, rank);
  if (e.pair_ok) ++sorted_pairs_;
  e.forgot = node.forget_count() > 0;
  if (e.forgot) ++forgot_nodes_;
  // A joiner's epoch baseline is 0 (the old run_until_small_world oracle
  // gave unknown nodes `before = 0`), so it is already fresh iff it has
  // ever forgotten.
  e.forget_baseline = 0;
  e.epoch_counted = node.forget_count() > 0;
  if (e.epoch_counted) ++epoch_fresh_;
  e.targets.reserve(node.lrls().size());
  for (const SmallWorldNode::LongRangeLink& link : node.lrls()) {
    e.targets.push_back(link.target);
    refs_[link.target].push_back(id);
    if (!contains(link.target)) {
      ++e.unresolved;
      ++unresolved_links_;
    }
  }
  entries_.emplace(id, std::move(e));

  // Only the two rank neighbours' (l, r) expectations changed.
  if (rank > 0) reseed_pair(sorted_ids_[rank - 1]);
  if (rank + 1 < sorted_ids_.size()) reseed_pair(sorted_ids_[rank + 1]);
}

void InvariantTracker::on_remove(Id id) {
  const std::size_t rank = rank_of(id);
  SSSW_DCHECK(rank < sorted_ids_.size() && sorted_ids_[rank] == id);
  const auto it = entries_.find(id);
  SSSW_DCHECK(it != entries_.end());
  Entry& e = it->second;

  for (const Id target : e.targets) unref(target, id);
  unresolved_links_ -= e.unresolved;
  if (e.pair_ok) --sorted_pairs_;
  if (e.forgot) --forgot_nodes_;
  if (e.epoch_counted) --epoch_fresh_;
  entries_.erase(it);
  sorted_ids_.erase(sorted_ids_.begin() + static_cast<std::ptrdiff_t>(rank));

  // Links that pointed at the leaver are now stranded.
  if (const auto rit = refs_.find(id); rit != refs_.end()) {
    for (const Id holder : rit->second) {
      ++entries_.at(holder).unresolved;
      ++unresolved_links_;
    }
  }

  if (rank > 0) reseed_pair(sorted_ids_[rank - 1]);
  if (rank < sorted_ids_.size()) reseed_pair(sorted_ids_[rank]);
}

// --- mutation hooks --------------------------------------------------------

void InvariantTracker::on_list_changed(const SmallWorldNode& node) {
  reseed_pair(node.id());
}

void InvariantTracker::on_lrl_changed(const SmallWorldNode& node) {
  const Id id = node.id();
  Entry& e = entries_.at(id);
  // Fast path: the notify fired but the target multiset is unchanged (lrls()
  // preserves order, so an elementwise compare suffices) — nothing to do.
  if (e.targets.size() == node.lrls().size()) {
    bool same = true;
    for (std::size_t i = 0; i < e.targets.size(); ++i)
      if (e.targets[i] != node.lrls()[i].target) {
        same = false;
        break;
      }
    if (same) return;
  }
  for (const Id target : e.targets) unref(target, id);
  unresolved_links_ -= e.unresolved;
  e.unresolved = 0;
  e.targets.clear();
  for (const SmallWorldNode::LongRangeLink& link : node.lrls()) {
    e.targets.push_back(link.target);
    refs_[link.target].push_back(id);
    if (!contains(link.target)) {
      ++e.unresolved;
      ++unresolved_links_;
    }
  }
}

void InvariantTracker::on_forget(const SmallWorldNode& node) {
  Entry& e = entries_.at(node.id());
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
  if (sorted_ids_.size() < 2) return true;  // single node: trivially a ring
  const SmallWorldNode* min_node = entries_.at(sorted_ids_.front()).node;
  const SmallWorldNode* max_node = entries_.at(sorted_ids_.back()).node;
  return min_node->ring() == sorted_ids_.back() &&
         max_node->ring() == sorted_ids_.front();
}

void InvariantTracker::arm_forget_epoch() {
  epoch_fresh_ = 0;
  for (auto& [id, e] : entries_) {
    (void)id;
    e.forget_baseline = e.node->forget_count();
    e.epoch_counted = false;
  }
}

// --- oracle cross-check ----------------------------------------------------

void InvariantTracker::verify_against(const sim::Engine& engine) const {
  const std::span<const Id> ids = engine.id_span();
  SSSW_CHECK_MSG(ids.size() == sorted_ids_.size(),
                 "tracker mirror size diverged from engine");
  for (std::size_t i = 0; i < ids.size(); ++i)
    SSSW_CHECK_MSG(ids[i] == sorted_ids_[i],
                   "tracker mirror order diverged from engine");

  std::size_t pairs = 0;
  std::size_t forgot = 0;
  std::size_t fresh = 0;
  std::size_t unresolved = 0;
  std::size_t ref_occurrences = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const SmallWorldNode* node = as_node(engine.find(ids[i]));
    SSSW_CHECK_MSG(node != nullptr, "tracked id is not a SmallWorldNode");
    const auto it = entries_.find(ids[i]);
    SSSW_CHECK_MSG(it != entries_.end(), "tracked id has no entry");
    const Entry& e = it->second;
    SSSW_CHECK_MSG(e.node == node, "entry caches a stale node pointer");

    const bool want_pair = pair_ok_for(*node, i);
    SSSW_CHECK_MSG(e.pair_ok == want_pair, "entry pair_ok diverged");
    if (want_pair) ++pairs;

    const bool want_forgot = node->forget_count() > 0;
    SSSW_CHECK_MSG(e.forgot == want_forgot, "entry forgot flag diverged");
    if (want_forgot) ++forgot;

    const bool want_fresh = node->forget_count() > e.forget_baseline;
    SSSW_CHECK_MSG(e.epoch_counted == want_fresh,
                   "entry epoch_counted diverged");
    if (want_fresh) ++fresh;

    std::uint32_t want_unresolved = 0;
    SSSW_CHECK_MSG(e.targets.size() == node->lrls().size(),
                   "entry target mirror size diverged");
    for (std::size_t k = 0; k < e.targets.size(); ++k) {
      const Id target = node->lrls()[k].target;
      SSSW_CHECK_MSG(e.targets[k] == target, "entry target mirror diverged");
      if (!engine.contains(target)) ++want_unresolved;
      const auto rit = refs_.find(target);
      SSSW_CHECK_MSG(rit != refs_.end() &&
                         std::count(rit->second.begin(), rit->second.end(),
                                    ids[i]) >= 1,
                     "refs_ missing a holder occurrence");
    }
    SSSW_CHECK_MSG(e.unresolved == want_unresolved,
                   "entry unresolved count diverged");
    unresolved += want_unresolved;
    ref_occurrences += e.targets.size();
  }

  std::size_t stored_occurrences = 0;
  for (const auto& [target, holders] : refs_) {
    (void)target;
    SSSW_CHECK_MSG(!holders.empty(), "refs_ keeps an empty holder list");
    stored_occurrences += holders.size();
  }
  SSSW_CHECK_MSG(stored_occurrences == ref_occurrences,
                 "refs_ occurrence total diverged");

  SSSW_CHECK_MSG(sorted_pairs_ == pairs, "sorted_pairs_ diverged");
  SSSW_CHECK_MSG(forgot_nodes_ == forgot, "forgot_nodes_ diverged");
  SSSW_CHECK_MSG(epoch_fresh_ == fresh, "epoch_fresh_ diverged");
  SSSW_CHECK_MSG(unresolved_links_ == unresolved, "unresolved_links_ diverged");
}

}  // namespace sssw::core
