#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>

#include "util/check.hpp"

namespace sssw::sim {

namespace {

/// How many sends ahead the flush prefetches the id-table cell it will
/// probe.
constexpr std::size_t kPrefetchAhead = 8;

/// A round pass flushes its staged sends at the first action boundary after
/// this many have gathered, while their records are still in cache.
constexpr std::size_t kFlushBatch = 4096;

}  // namespace

const char* to_string(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::kSynchronous:
      return "synchronous";
    case SchedulerKind::kRandomAsync:
      return "random-async";
    case SchedulerKind::kAdversarialLifo:
      return "adversarial-lifo";
    case SchedulerKind::kDelayedRandom:
      return "delayed-random";
    case SchedulerKind::kAdversarialOldestLast:
      return "adversarial-oldest-last";
  }
  return "unknown";
}

std::optional<SchedulerKind> scheduler_from_string(std::string_view name) noexcept {
  for (const SchedulerKind kind : kAllSchedulers)
    if (name == to_string(kind)) return kind;
  return std::nullopt;
}

Engine::Engine(EngineConfig config) : config_(config), rng_(config.seed) {
  SSSW_CHECK_MSG(
      config_.delivery_probability > 0.0 && config_.delivery_probability <= 1.0,
      "EngineConfig::delivery_probability must lie in (0, 1]");
  SSSW_CHECK_MSG(config_.message_loss >= 0.0 && config_.message_loss < 1.0,
                 "EngineConfig::message_loss must lie in [0, 1)");
  config_.faults.validate();
  const bool oldest_last =
      config_.scheduler == SchedulerKind::kAdversarialOldestLast;
  if (oldest_last)
    SSSW_CHECK_MSG(config_.adversary_delay >= 1,
                   "EngineConfig::adversary_delay must be >= 1");
  // Only the async scheduler ever asks "where is the pick-th pending
  // message?"; it alone keeps per-slot channels and the Fenwick index.
  async_ = config_.scheduler == SchedulerKind::kRandomAsync;
  // The injector only exists when it can act, so a default config keeps the
  // send path (and the RNG streams) bit-identical to earlier revisions.
  if (config_.faults.active() || oldest_last) {
    faults_ = std::make_unique<FaultInjector>(
        config_.faults, oldest_last ? config_.adversary_delay : 0);
  }
}

void Engine::ensure_fenwick() {
  if (!fenwick_dirty_) return;
  rank_counts_.resize(order_.size());
  for (std::size_t rank = 0; rank < order_.size(); ++rank)
    rank_counts_[rank] =
        static_cast<std::int64_t>(slots_[order_[rank]].channel.size());
  pending_by_rank_.assign(rank_counts_);
  fenwick_dirty_ = false;
}

void Engine::add_process(std::unique_ptr<Process> process) {
  SSSW_CHECK(process != nullptr);
  const Id id = process->id();
  SSSW_CHECK_MSG(is_node_id(id), "process identifiers must be finite");
  SSSW_CHECK_MSG(!index_.contains(id), "duplicate process identifier");
  const std::size_t slot = slots_.size();
  SSSW_CHECK_MSG(slot < std::numeric_limits<std::uint32_t>::max(),
                 "a pending record's slot must fit 32 bits");
  slots_.push_back(Slot{std::move(process), Channel{}, /*rank=*/0,
                        util::derive_stream(config_.seed,
                                            std::bit_cast<std::uint64_t>(id))});
  index_.insert(id, slot);
  // Canonical ordering: insert at the slot's id-sorted position instead of
  // rebuilding from map iteration, so order_ is a pure function of the live
  // id set.  ids_sorted_ is the parallel identifier mirror behind id_span().
  // Ranks at and after the insertion point shift by one — O(n − rank), which
  // an ascending bulk load never pays (every insert lands at the end).
  const auto pos = std::lower_bound(ids_sorted_.begin(), ids_sorted_.end(), id);
  const auto rank = static_cast<std::size_t>(pos - ids_sorted_.begin());
  ids_sorted_.insert(pos, id);
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(rank), slot);
  slots_[slot].rank = rank;
  for (std::size_t r = rank + 1; r < order_.size(); ++r)
    slots_[order_[r]].rank = r;
  // The ranks after the insert moved, and with them the blocks and offsets
  // of their pending records: the next post site re-files them.
  if (rank + 1 < order_.size()) blocks_stale_ = true;
  blocks_.resize(block_count());
  fenwick_dirty_ = true;
}

void Engine::reserve(std::size_t processes) {
  // Slots are never recycled: every add appends one after the holes.
  slots_.reserve(slots_.size() - order_.size() + processes);
  order_.reserve(processes);
  ids_sorted_.reserve(processes);
  index_.reserve(processes);
}

bool Engine::remove_process(Id id, bool purge_references) {
  const std::size_t slot_index = index_.find(id);
  if (slot_index == IdSlotTable::kNone) return false;
  const std::size_t rank = slots_[slot_index].rank;
  SSSW_DCHECK(rank < order_.size() && order_[rank] == slot_index);
  slots_[slot_index].process.reset();
  index_.erase(id);
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(rank));
  SSSW_DCHECK(rank < ids_sorted_.size() && ids_sorted_[rank] == id);
  ids_sorted_.erase(ids_sorted_.begin() + static_cast<std::ptrdiff_t>(rank));
  for (std::size_t r = rank; r < order_.size(); ++r)
    slots_[order_[r]].rank = r;
  // The leaver's own channel vanishes uncounted.  Fail-stop semantics
  // (§IV.G): "the connections it had to and from other nodes also
  // disappear" — that includes the temporary links formed by in-flight
  // messages carrying the departed identifier, which are dropped and
  // counted.  Without this purge, a stale lin message can re-poison a
  // neighbour's l/r with an id that no longer answers, wedging the gap open
  // forever.
  std::size_t purged = 0;
  if (async_) {
    pending_total_ -= slots_[slot_index].channel.size();
    slots_[slot_index].channel.clear();
    if (purge_references)
      for (const std::size_t survivor : order_)
        purged += slots_[survivor].channel.purge_references(id);
    pending_total_ -= purged;
    blocks_.resize(block_count());
  } else {
    // The walk that drops the leaver's records re-files the rest under
    // their shifted ranks.
    pending_total_ -= refile([&](const Record& record) {
      if (record.slot == slot_index) return true;
      if (!purge_references || !references(record.message(), id)) return false;
      ++purged;
      return true;
    });
  }
  if (purge_references) {
    // Messages parked in the hold queue are in flight too, and the replay
    // history must forget the departed node or a later replay would
    // resurrect a reference that fail-stop already erased.
    if (faults_) purged += faults_->purge_references(id);
    counters_->dropped += purged;
  }
  // A departed process must not be woken by a stale alarm — and a node that
  // later re-joins under the same identifier must not inherit one either.
  for (auto& [due, bucket] : timers_) {
    const auto removed = std::erase_if(
        bucket, [id](const Timer& timer) { return timer.id == id; });
    timer_count_ -= removed;
  }
  fenwick_dirty_ = true;
  return true;
}

void Engine::schedule_timer(Id id, std::uint32_t delay, std::uint64_t tag) {
  SSSW_CHECK_MSG(delay >= 1, "timers must fire at least one round out");
  SSSW_CHECK_MSG(index_.contains(id), "cannot arm a timer for an unknown process");
  timers_[counters_->rounds + delay].push_back(Timer{id, tag});
  ++timer_count_;
}

/// Fires every timer due this round, in ascending-id order (stable per id),
/// before any channel is snapshotted — a timer action's sends land in
/// channels exactly like sends from last round's actions.  Re-arming from
/// inside on_timer targets a strictly later round (delay >= 1), so the loop
/// terminates.  With no timers armed this is one empty-map check: the
/// pre-timer trajectory is untouched byte for byte.  Timer actions send
/// directly: nothing is being received yet, so there is no pass to wait for.
void Engine::fire_due_timers() {
  while (!timers_.empty() && timers_.begin()->first <= counters_->rounds) {
    due_timers_.swap(timers_.begin()->second);
    timers_.erase(timers_.begin());
    timer_count_ -= due_timers_.size();
    std::stable_sort(due_timers_.begin(), due_timers_.end(),
                     [](const Timer& a, const Timer& b) { return a.id < b.id; });
    for (const Timer& timer : due_timers_) {
      const std::size_t slot_index = index_.find(timer.id);
      if (slot_index == IdSlotTable::kNone) continue;  // gone: the alarm lapses
      ++counters_->actions;
      ++counters_->timers;
      Slot& slot = slots_[slot_index];
      Context ctx(*this, timer.id, &slot.rng, slot_index, /*in_pass=*/false);
      slot.process->on_timer(ctx, timer.tag);
    }
    due_timers_.clear();
  }
}

Process* Engine::find(Id id) noexcept {
  const std::size_t slot_index = index_.find(id);
  return slot_index == IdSlotTable::kNone ? nullptr
                                          : slots_[slot_index].process.get();
}

const Process* Engine::find(Id id) const noexcept {
  const std::size_t slot_index = index_.find(id);
  return slot_index == IdSlotTable::kNone ? nullptr
                                          : slots_[slot_index].process.get();
}

void Engine::for_each(const std::function<void(const Process&)>& fn) const {
  for (const std::size_t slot : order_) fn(*slots_[slot].process);
}

Engine::Chunk* Engine::take_chunk() {
  if (free_chunks_ != nullptr) {
    Chunk* const chunk = free_chunks_;
    free_chunks_ = chunk->next;
    return chunk;
  }
  if (carved_ == kSlabChunks) {
    slabs_.push_back(std::make_unique_for_overwrite<Chunk[]>(kSlabChunks));
    carved_ = 0;
  }
  return &slabs_.back()[carved_++];
}

void Engine::append(RecordList& list, const Record& record) {
  if (list.end == list.limit) {  // empty, or the tail chunk is full
    Chunk* const chunk = take_chunk();
    chunk->next = nullptr;
    (list.tail != nullptr ? list.tail->next : list.head) = chunk;
    list.tail = chunk;
    list.end = chunk->records;
    list.limit = chunk->records + kChunkRecords;
  }
  *list.end++ = record;
}

namespace {

/// Visits a pending list's records in order.
template <typename List, typename Fn>
void visit(const List& list, Fn&& fn) {
  for (auto* chunk = list.head; chunk != nullptr; chunk = chunk->next) {
    const auto* const last = chunk == list.tail ? list.end : std::end(chunk->records);
    for (const auto* record = chunk->records; record != last; ++record) fn(*record);
  }
}

}  // namespace

template <typename Fn>
void Engine::drain(RecordList& list, Fn&& fn) {
  for (Chunk* chunk = list.head; chunk != nullptr;) {
    const Record* const last = chunk == list.tail ? list.end : std::end(chunk->records);
    for (const Record* record = chunk->records; record != last; ++record) fn(*record);
    // Done with this chunk: the very next append may reuse it.
    Chunk* const next = chunk->next;
    chunk->next = free_chunks_;
    free_chunks_ = chunk;
    chunk = next;
  }
  list = {};
}

template <typename Gone>
std::size_t Engine::refile(Gone&& gone) {
  std::vector<Block> old(block_count());
  old.swap(blocks_);
  std::size_t dropped = 0;
  const auto refile_list = [&](RecordList& list, RecordList Block::*into) {
    drain(list, [&](Record record) {
      if (gone(record)) {
        ++dropped;
        return;
      }
      const std::size_t rank = slots_[record.slot].rank;
      record.offset = static_cast<std::uint16_t>(rank & (kBlockRanks - 1));
      append(blocks_[rank >> kBlockShift].*into, record);
    });
  };
  for (Block& block : old) refile_list(block.deferred, &Block::deferred);
  for (Block& block : old) refile_list(block.posted, &Block::posted);
  blocks_stale_ = false;
  return dropped;
}

void Engine::settle_blocks() {
  if (blocks_stale_) refile([](const Record&) { return false; });
}

inline void Engine::file(std::size_t slot_index, const Message& message) {
  const std::size_t rank = slots_[slot_index].rank;
  append(blocks_[rank >> kBlockShift].posted,
         Record::of(slot_index, rank & (kBlockRanks - 1), message));
}

void Engine::post(std::size_t slot_index, const Message& message) {
  ++pending_total_;
  if (!async_) {
    file(slot_index, message);
    return;
  }
  Slot& slot = slots_[slot_index];
  slot.channel.push(message);
  if (!fenwick_dirty_) pending_by_rank_.add(slot.rank, 1);
}

/// Places `message` into the channel of `to`, or counts a drop when the
/// target departed or never existed.
void Engine::enqueue_or_drop(Id to, const Message& message) {
  const std::size_t slot_index = index_.find(to);
  if (slot_index == IdSlotTable::kNone) {
    ++counters_->dropped;
    return;
  }
  post(slot_index, message);
}

inline bool Engine::admit_send(std::size_t from_slot, Id to,
                               const Message& message) {
  SSSW_DCHECK(message.type < kMaxMessageTypes);
  ++counters_->sent_by_type[message.type];
  for (const auto& [id, hook] : send_hooks_) hook(to, message);
  // Loss and fault fates draw from the *sender's* stream: each process's
  // draw sequence (its channel drain, protocol flips during its action, then
  // the fates of its own sends in issue order) is a pure function of
  // (state, seed).
  if (config_.message_loss > 0.0 &&
      slots_[from_slot].rng.bernoulli(config_.message_loss)) {
    ++counters_->lost;
    return false;
  }
  return true;
}

void Engine::dispatch_send(std::size_t from_slot, Id to, const Message& message) {
  if (!admit_send(from_slot, to, message)) return;
  if (!faults_) {
    enqueue_or_drop(to, message);
    return;
  }
  // The injector decides the fate of this send; the engine keeps all the
  // channel and counter bookkeeping.  Duplicates and replays are channel
  // artefacts, not protocol sends: they skip the sent counter and the send
  // hooks, so a trace shows what the protocol did, not what the adversary
  // fabricated.
  Slot& sender = slots_[from_slot];
  const FaultInjector::SendDecision decision = faults_->on_send(
      sender.process->id(), to, message, counters_->rounds + 1, sender.rng);
  FaultCounters& faults = counters_->faults;
  if (decision.duplicated) ++faults.duplicated;
  faults.delayed += decision.held;
  if (decision.partition_dropped) ++faults.partition_dropped;
  if (decision.deliver_now) enqueue_or_drop(to, message);
  if (decision.duplicate_now) enqueue_or_drop(to, message);
  if (decision.has_replay) {
    ++faults.replayed;
    enqueue_or_drop(decision.replay_to, decision.replay_message);
  }
}

bool Engine::inject(Id to, const Message& message) {
  const std::size_t slot_index = index_.find(to);
  if (slot_index == IdSlotTable::kNone) return false;
  settle_blocks();
  post(slot_index, message);
  return true;
}

void Engine::flush_staged() {
  if (faults_ || async_) {
    // The injector may hold, duplicate or replay a send, and random-async
    // posts into per-receiver channels: staged sends take the whole send
    // path one at a time.
    for (const Staged& send : staged_) dispatch_send(send.from, send.to, send.message());
    staged_.clear();
    return;
  }
  // Every send resolves through an id-table probe at an unpredictable cell;
  // touching the cell a few sends ahead overlaps those cache misses.
  const std::size_t end = staged_.size();
  std::size_t filed = 0;
  for (std::size_t i = 0; i < end; ++i) {
    if (i + kPrefetchAhead < end) index_.prefetch(staged_[i + kPrefetchAhead].to);
    const Staged& send = staged_[i];
    const Message message = send.message();
    if (!admit_send(send.from, send.to, message)) continue;
    const std::size_t receiver = index_.find(send.to);
    if (receiver == IdSlotTable::kNone) {
      ++counters_->dropped;
      continue;
    }
    file(receiver, message);
    ++filed;
  }
  pending_total_ += filed;
  staged_.clear();
}

void Engine::deliver(Slot& slot, std::size_t slot_index, const Message& message) {
  ++counters_->deliveries;
  ++counters_->actions;
  Context ctx(*this, slot.process->id(), &slot.rng, slot_index, /*in_pass=*/false);
  slot.process->on_message(ctx, message);
}

/// Common per-round epilogue: bumps the round counter, refreshes the
/// level gauges, and fires the round hooks (snapshotters poll here).
void Engine::finish_round() {
  ++counters_->rounds;
  if (channel_depth_gauge_ != nullptr) {
    channel_depth_gauge_->set(static_cast<double>(pending_messages()));
    processes_gauge_->set(static_cast<double>(process_count()));
  }
  for (const auto& [id, hook] : round_hooks_) hook(counters_->rounds);
}

/// One stable counting sort on receiver offset: count, prefix sum, scatter.
/// The deferred records come first, so every bucket holds its deferred
/// messages, then its posted ones, each in push order.
void Engine::sort_block(Block& block, std::size_t ranks) {
  std::uint32_t* const next = bucket_end_.data();
  std::fill_n(next, ranks, 0);
  const auto count = [next](const Record& record) { ++next[record.offset]; };
  visit(block.deferred, count);
  visit(block.posted, count);
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < ranks; ++i) total += std::exchange(next[i], total);
  if (sort_buffer_.size() < total) sort_buffer_.resize(total);
  Message* const out = sort_buffer_.data();
  const auto scatter = [next, out](const Record& record) {
    out[next[record.offset]++] = record.message();
  };
  drain(block.deferred, scatter);
  drain(block.posted, scatter);
}

/// Because every send waits in the staging buffer and is filed into lists
/// the pass does not read, nothing is posted to a receiver during the
/// pass: its bucket is exactly its channel as it stood at the round start,
/// and messages sent while receiving are delivered next round (true
/// synchronous semantics).  Each receiver orders (or samples) its bucket
/// with its own stream, in place.
void Engine::receive_pass(ReceiptOrder order, bool sample) {
  SSSW_DCHECK(!blocks_stale_ && blocks_.size() == block_count());
  // The pass reads the lists as they stand now; what its sends post lands
  // in fresh ones.
  std::vector<Block> taking(blocks_.size());
  taking.swap(blocks_);
  for (std::size_t b = 0; b < taking.size(); ++b) {
    const std::size_t first = b << kBlockShift;
    const std::size_t ranks = std::min(kBlockRanks, order_.size() - first);
    sort_block(taking[b], ranks);
    std::size_t begin = 0;
    for (std::size_t i = 0; i < ranks; ++i) {
      Message* const batch = sort_buffer_.data() + begin;
      std::size_t count = bucket_end_[i] - begin;
      begin = bucket_end_[i];
      if (count == 0) continue;
      const std::size_t slot_index = order_[first + i];
      Slot& slot = slots_[slot_index];
      const Id self = slot.process->id();
      if (sample) {
        // Each message is delivered this round with the delivery
        // probability; the rest are deferred, ahead of every later arrival,
        // so next round's bucket holds them first, in their old order.
        std::size_t taken = 0;
        for (std::size_t j = 0; j < count; ++j) {
          if (slot.rng.bernoulli(config_.delivery_probability)) {
            batch[taken++] = batch[j];
          } else {
            append(blocks_[b].deferred, Record::of(slot_index, i, batch[j]));
          }
        }
        count = taken;
        util::shuffle(batch, count, slot.rng);
      } else if (order == ReceiptOrder::kShuffled) {
        util::shuffle(batch, count, slot.rng);
      } else {
        std::reverse(batch, batch + count);
      }
      pending_total_ -= count;
      counters_->deliveries += count;
      counters_->actions += count;
      Context ctx(*this, self, &slot.rng, slot_index, /*in_pass=*/true);
      for (std::size_t j = 0; j < count; ++j)
        slot.process->on_message(ctx, batch[j]);
      if (staged_.size() >= kFlushBatch) flush_staged();
    }
  }
  flush_staged();
}

void Engine::run_synchronous_round(ReceiptOrder order) {
  receive_pass(order, config_.scheduler == SchedulerKind::kDelayedRandom);
  // Every node executes its (always enabled) regular action.
  for (const std::size_t slot_index : order_) {
    Slot& slot = slots_[slot_index];
    ++counters_->actions;
    Context ctx(*this, slot.process->id(), &slot.rng, slot_index, /*in_pass=*/true);
    slot.process->on_regular(ctx);
    if (staged_.size() >= kFlushBatch) flush_staged();
  }
  flush_staged();
  finish_round();
}

/// The async scheduler is a single global interleaving of atomic actions,
/// each of which sends directly.  Scheduler picks draw from the engine
/// stream; protocol flips, drain shuffles, and send fates draw from the
/// acting process's stream, exactly like the synchronous family.
void Engine::run_async_round() {
  ensure_fenwick();
  std::size_t budget = config_.async_actions_per_round;
  if (budget == 0) budget = process_count() + pending_messages();
  if (budget == 0) budget = 1;

  for (std::size_t step = 0; step < budget; ++step) {
    const std::size_t enabled = process_count() + pending_total_;
    if (enabled == 0) break;
    std::size_t pick = rng_.below(enabled);
    if (pick < process_count()) {
      const std::size_t slot_index = order_[pick];
      Slot& slot = slots_[slot_index];
      ++counters_->actions;
      Context ctx(*this, slot.process->id(), &slot.rng, slot_index,
                  /*in_pass=*/false);
      slot.process->on_regular(ctx);
    } else {
      pick -= process_count();
      // Binary descent over the per-rank Fenwick index locates the channel
      // holding the pick-th pending message in O(log n); ranks follow the
      // canonical id order, so the pick → message mapping depends only on
      // the current state, not on how it was reached.
      const std::size_t rank =
          pending_by_rank_.find_kth(static_cast<std::int64_t>(pick));
      const std::size_t slot_index = order_[rank];
      Slot& slot = slots_[slot_index];
      const Message message = slot.channel.take(slot.rng);
      --pending_total_;
      pending_by_rank_.add(rank, -1);
      deliver(slot, slot_index, message);
    }
  }
  finish_round();
}

/// Moves every held message whose delay has elapsed back into its channel,
/// before the round snapshots channel contents — a message held `extra`
/// rounds is delivered exactly `extra` rounds later than it would have been.
void Engine::release_due_messages() {
  if (!faults_) return;
  faults_->collect_due(counters_->rounds, released_);
  for (const FaultInjector::Held& held : released_)
    enqueue_or_drop(held.to, held.message);
  released_.clear();
}

void Engine::run_round() {
  settle_blocks();
  release_due_messages();
  fire_due_timers();
  switch (config_.scheduler) {
    case SchedulerKind::kSynchronous:
      run_synchronous_round(ReceiptOrder::kShuffled);
      break;
    case SchedulerKind::kRandomAsync:
      run_async_round();
      break;
    case SchedulerKind::kAdversarialLifo:
      run_synchronous_round(ReceiptOrder::kLifo);
      break;
    case SchedulerKind::kDelayedRandom:
      run_synchronous_round(ReceiptOrder::kShuffled);
      break;
    case SchedulerKind::kAdversarialOldestLast:
      run_synchronous_round(ReceiptOrder::kLifo);
      break;
  }
}

void Engine::deliver_pending_once() {
  settle_blocks();
  if (async_) {
    // Random-async keeps its messages in channels: file them into the
    // blocks, in rank order, so the pass below takes each channel as it
    // stands.
    for (const std::size_t slot_index : order_) {
      Channel& channel = slots_[slot_index].channel;
      for (const Message& message : channel.pending()) file(slot_index, message);
      channel.clear();
    }
    fenwick_dirty_ = true;
  }
  receive_pass(ReceiptOrder::kShuffled, /*sample=*/false);
}

void Engine::run_rounds(std::size_t rounds) {
  for (std::size_t i = 0; i < rounds; ++i) run_round();
}

bool Engine::run_until(const std::function<bool()>& predicate, std::size_t max_rounds) {
  if (predicate()) return true;
  for (std::size_t i = 0; i < max_rounds; ++i) {
    run_round();
    if (predicate()) return true;
  }
  return false;
}

void Engine::for_each_pending(
    const std::function<void(Id to, const Message&)>& fn) const {
  if (async_) {
    for (std::size_t rank = 0; rank < order_.size(); ++rank)
      for (const Message& message : slots_[order_[rank]].channel.pending())
        fn(ids_sorted_[rank], message);
  } else {
    // Each receiver's records sit in one block, in push order, its deferred
    // ones in the deferred list; visiting every deferred list, then every
    // posted list, and counting-sorting by current rank gives rank order,
    // then that order within one receiver, even before settle_blocks.
    const auto each_record = [this](const auto& on_record) {
      for (const Block& block : blocks_) visit(block.deferred, on_record);
      for (const Block& block : blocks_) visit(block.posted, on_record);
    };
    std::vector<std::size_t> next(order_.size() + 1, 0);
    each_record([&](const Record& record) { ++next[slots_[record.slot].rank + 1]; });
    for (std::size_t rank = 1; rank < next.size(); ++rank)
      next[rank] += next[rank - 1];
    std::vector<const Record*> by_rank(next.back());
    each_record([&](const Record& record) {
      by_rank[next[slots_[record.slot].rank]++] = &record;
    });
    for (const Record* record : by_rank)
      fn(ids_sorted_[slots_[record->slot].rank], record->message());
  }
  // Held messages are channel contents that have not reached their channel
  // yet; hiding them would make connectivity views (Def. 4.2) lie about
  // in-flight references.
  if (faults_) faults_->for_each_held(fn);
}

void Engine::attach_metrics(obs::Registry& registry) {
  const EngineCounters& c = *counters_;
  const auto view = [&](const char* name, const std::uint64_t& count) {
    registry.counter(name).view(counters_, {&count, 1});
  };
  view("engine.rounds", c.rounds);
  view("engine.actions", c.actions);
  registry.counter("engine.messages.sent").view(counters_, c.sent_by_type);
  view("engine.messages.delivered", c.deliveries);
  view("engine.messages.dropped", c.dropped);
  view("engine.messages.lost", c.lost);
  view("engine.timers.fired", c.timers);
  view("faults.messages.duplicated", c.faults.duplicated);
  view("faults.messages.delayed", c.faults.delayed);
  view("faults.messages.replayed", c.faults.replayed);
  view("faults.messages.partition-dropped", c.faults.partition_dropped);
  channel_depth_gauge_ = &registry.gauge("engine.channel.depth");
  processes_gauge_ = &registry.gauge("engine.processes");
}

namespace {

template <typename Hook>
Engine::HookId add_hook(std::vector<std::pair<Engine::HookId, Hook>>& hooks,
                        Engine::HookId& next_id, Hook hook) {
  SSSW_CHECK_MSG(hook != nullptr, "hooks must be callable; use remove to detach");
  const Engine::HookId id = next_id++;
  hooks.emplace_back(id, std::move(hook));
  return id;
}

template <typename Hook>
bool remove_hook(std::vector<std::pair<Engine::HookId, Hook>>& hooks,
                 Engine::HookId id) noexcept {
  for (std::size_t i = 0; i < hooks.size(); ++i) {
    if (hooks[i].first != id) continue;
    hooks.erase(hooks.begin() + static_cast<std::ptrdiff_t>(i));
    return true;
  }
  return false;
}

}  // namespace

Engine::HookId Engine::add_send_hook(SendHook hook) {
  return add_hook(send_hooks_, next_hook_id_, std::move(hook));
}

bool Engine::remove_send_hook(HookId id) noexcept {
  return remove_hook(send_hooks_, id);
}

Engine::HookId Engine::add_round_hook(RoundHook hook) {
  return add_hook(round_hooks_, next_hook_id_, std::move(hook));
}

bool Engine::remove_round_hook(HookId id) noexcept {
  return remove_hook(round_hooks_, id);
}

}  // namespace sssw::sim
