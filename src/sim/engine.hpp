// engine.hpp — the discrete-event message-passing engine (§II of the paper).
//
// The engine owns a set of processes, their incoming channels, and a
// scheduler.  Protocols implement the Process interface; the self-stabilizing
// small-world node and the baseline linearization node are both plugins.
// Everything is deterministic given (seed, scheduler, initial state).
//
// Determinism model (DESIGN.md §8 "Deterministic rounds"):
//   * every process owns a private random stream, derived once from
//     (seed, id) — protocol coin flips, channel shuffles and samples, and the
//     loss/fault fate of that process's sends all come from its stream;
//   * the engine stream (rng()) belongs to the scheduler alone (the
//     random-async action picks);
//   * a synchronous-family round is two passes over the processes in rank
//     order: receive (each process takes its own channel's messages and
//     handles them), then regular.  A send made during a pass waits in a
//     staging buffer and is resolved in a batch at a later action boundary,
//     in (sender rank, send order), into storage the pass does not read, so
//     every receiver sees its channel as it stood when the round began.
//
// Channel storage (DESIGN.md §8 "Channel storage"): the synchronous
// family holds every pending message once, as a 32-byte record in the
// pending list of its receiver's block (a run of kBlockRanks consecutive
// ranks), in push order; the lists draw fixed-size chunks from one pool.
// The receive pass takes the blocks in rank order: it counting-sorts a
// block's records by receiver into a buffer sized for one block, returns
// the block's chunks to the pool for the pass's own sends, and runs the
// block's receivers, each of which shuffles or reverses its bucket with its
// own stream and is handed its messages in place.  The random-async
// scheduler takes one message at a time and must see each send at once, so
// it keeps one Channel per receiver instead.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "obs/registry.hpp"
#include "sim/channel.hpp"
#include "sim/faults.hpp"
#include "sim/id_table.hpp"
#include "sim/message.hpp"
#include "sim/scheduler.hpp"
#include "util/fenwick.hpp"
#include "util/rng.hpp"

namespace sssw::sim {

class Engine;

/// The face of the engine a process sees while executing one atomic action.
class Context {
 public:
  /// Sends `message` to the node with identifier `to`.  Sends to identifiers
  /// that no longer exist (departed nodes) are counted and dropped, matching
  /// the leave semantics of §IV.G.  Self-sends are legal.  Inside a round
  /// pass the send is staged and takes effect when the engine flushes the
  /// staged sends, after the acting process's action and no later than the
  /// end of the pass, in canonical (sender rank, send order), and it is
  /// received next round — invisible to the protocol, which never observes
  /// a channel it sent to within the same pass anyway.
  void send(Id to, const Message& message);

  /// The acting process's private deterministic stream (derived from the
  /// engine seed and the process id).
  util::Rng& rng();

  /// Synchronous round counter (also advanced by async steps, see Engine).
  std::uint64_t round() const noexcept;

  /// Arms a timer for the acting process: `on_timer(tag)` fires at the start
  /// of the round `delay` rounds from now (see Engine::schedule_timer).
  void schedule_timer(std::uint32_t delay, std::uint64_t tag);

 private:
  friend class Engine;
  Context(Engine& engine, Id self, util::Rng* rng, std::size_t from_slot,
          bool in_pass) noexcept
      : engine_(engine),
        self_(self),
        rng_(rng),
        from_slot_(from_slot),
        in_pass_(in_pass) {}
  Engine& engine_;
  Id self_;  ///< the acting process (the fault layer's partition filter
             ///< needs the sender, which a Message does not carry)
  util::Rng* rng_;         ///< the acting process's slot stream
  std::size_t from_slot_;  ///< the acting process's slot index
  /// True inside a round pass: sends wait in the staging buffer.
  bool in_pass_;
};

/// Cheap protocol tag: hot inspection paths (invariant predicates, views,
/// snapshots) used to dynamic_cast every process per evaluation, which is
/// measurable at n >= 10^4.  Each protocol family claims one constant here
/// and inspection code checks the tag before a static_cast.  0 is reserved
/// for untagged test/utility processes, which no typed accessor matches.
using ProcessKind = std::uint8_t;
inline constexpr ProcessKind kUntaggedProcess = 0;
inline constexpr ProcessKind kSmallWorldProcess = 1;
inline constexpr ProcessKind kLinearizationProcess = 2;
inline constexpr ProcessKind kFingerProcess = 3;

/// A protocol node.  Actions are atomic and run one at a time; each process
/// owns its state and stream.  `on_message` is the receive action,
/// `on_regular` the always-enabled regular action (Algorithm 1's two
/// actions).
class Process {
 public:
  virtual ~Process() = default;
  virtual Id id() const noexcept = 0;
  virtual void on_message(Context& ctx, const Message& message) = 0;
  virtual void on_regular(Context& ctx) = 0;

  /// Timer action: fires for timers armed via Context::schedule_timer /
  /// Engine::schedule_timer.  Default is a no-op so protocols without timers
  /// are untouched.  Like the other actions it is atomic and may send
  /// messages or re-arm timers.
  virtual void on_timer(Context& ctx, std::uint64_t tag) {
    (void)ctx;
    (void)tag;
  }

  ProcessKind kind() const noexcept { return kind_; }

 protected:
  Process() = default;
  explicit Process(ProcessKind kind) noexcept : kind_(kind) {}

 private:
  const ProcessKind kind_ = kUntaggedProcess;
};

struct EngineConfig {
  SchedulerKind scheduler = SchedulerKind::kSynchronous;
  std::uint64_t seed = 1;
  /// In kRandomAsync, number of atomic actions that count as one "round"
  /// when 0: defaults to (#processes + #pending messages) per round.
  std::size_t async_actions_per_round = 0;
  /// In kDelayedRandom, each pending message is independently delivered in a
  /// given round with this probability (the paper's slow-channel adversary
  /// used 1/2).  Must lie in (0, 1]; validated at engine construction.
  double delivery_probability = 0.5;
  /// Each sent message is independently lost with this probability.  The
  /// paper's model assumes lossless channels; a self-stabilizing protocol
  /// that re-announces its state every round tolerates loss anyway — this
  /// knob lets the tests and benches demonstrate that.  Must lie in [0, 1);
  /// validated at engine construction.
  double message_loss = 0.0;
  /// Fault-injection adversary on the send path (duplication, bounded extra
  /// delay, transient partitions, stale replay — see sim/faults.hpp and
  /// doc/FAULTS.md).  A default-constructed plan is inactive and leaves the
  /// trajectory bit-identical to a fault-free run.
  FaultPlan faults{};
  /// In kAdversarialOldestLast, the fairness deadline: every message is
  /// held this many extra rounds before its channel sees it.  Must be >= 1.
  std::uint32_t adversary_delay = 3;
};

/// The engine's event counts.  They only ever grow: the round count is
/// also the clock of timers, the fault hold queue and the protocol's
/// detector, and attached registry counters are views of these fields.  To
/// count over a window, diff two copies of Engine::counters().
struct EngineCounters {
  std::uint64_t rounds = 0;
  std::uint64_t actions = 0;     ///< atomic actions executed (receive + regular)
  std::uint64_t deliveries = 0;  ///< receive actions executed
  std::uint64_t dropped = 0;     ///< sends to departed/unknown identifiers
  std::uint64_t lost = 0;        ///< sends eaten by the loss model
  std::uint64_t timers = 0;      ///< timer actions fired (on_timer callbacks)
  FaultCounters faults;          ///< injected-fault events (sim/faults.hpp)
  std::array<std::uint64_t, kMaxMessageTypes> sent_by_type{};

  std::uint64_t total_sent() const noexcept {
    std::uint64_t sum = 0;
    for (const auto count : sent_by_type) sum += count;
    return sum;
  }
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;

  /// Registers a process.  Identifiers must be unique and finite.  O(n − r)
  /// for rank r (the sorted-order insert shift), so ascending bulk loads are
  /// O(1) amortized per node — million-node networks build in linear time.
  void add_process(std::unique_ptr<Process> process);

  /// Sizes the membership tables for `processes` live processes, so a bulk
  /// build up to that size allocates each table once.
  void reserve(std::size_t processes);

  /// Removes a process: its state and channel vanish (the messages queued
  /// for it are not counted as dropped); later sends to it are dropped and
  /// counted.  With `purge_references` (the fail-stop "leave" of §IV.G)
  /// every in-flight message carrying the departed identifier is also
  /// removed and counted as dropped; without it (crash-stop) stale
  /// references stay in flight and only a failure detector can heal the
  /// survivors.  Returns false if no such process exists.
  bool remove_process(Id id, bool purge_references = true);

  std::size_t process_count() const noexcept { return order_.size(); }
  bool contains(Id id) const noexcept { return index_.contains(id); }

  /// Mutable/const access to a node's protocol state for setup & inspection.
  Process* find(Id id) noexcept;
  const Process* find(Id id) const noexcept;

  /// All process identifiers in ascending order, as an allocation-free view
  /// over the engine's incrementally maintained sorted order.  Invalidated
  /// by add_process/remove_process (take it fresh after membership changes;
  /// do not hold it across a join/leave — copy into a vector for that).
  std::span<const Id> id_span() const noexcept { return ids_sorted_; }

  /// Applies `fn` to every process in ascending identifier order.
  void for_each(const std::function<void(const Process&)>& fn) const;

  /// Places a message directly into the channel of `to` without a sender —
  /// models arbitrary initial channel contents (self-stabilization starts
  /// from any state, including garbage in flight).  Returns false if no such
  /// process exists.  Call it between rounds (round hooks included), never
  /// from an action or a send hook: during a pass a receiver still to act
  /// would take the message in that same pass.
  bool inject(Id to, const Message& message);

  /// Arms a timer: process `id` receives `on_timer(tag)` at the start of the
  /// round `delay` rounds from now (`delay` >= 1), before any message of
  /// that round is received.  Timers due in the same round fire in ascending
  /// id order (ties per id in arming order), so trajectories stay a pure
  /// function of (state, seed) like every other scheduling decision.  Timers
  /// for a process that has since left or crashed lapse silently; a run that
  /// never arms a timer is bit-identical to one built before timers existed.
  void schedule_timer(Id id, std::uint32_t delay, std::uint64_t tag);

  /// Timers currently armed (tests/inspection).
  std::size_t pending_timers() const noexcept { return timer_count_; }

  /// Executes one round under the configured scheduler.
  void run_round();

  /// Executes `rounds` rounds.
  void run_rounds(std::size_t rounds);

  /// Runs until `predicate()` holds (checked after each round) or
  /// `max_rounds` elapse; returns true iff the predicate held.
  bool run_until(const std::function<bool()>& predicate, std::size_t max_rounds);

  /// Total number of messages currently in flight: channel contents plus
  /// messages parked in the fault layer's hold queue (a held message is
  /// still "in the channel" as far as Def. 4.2 views are concerned).  O(1):
  /// both counts are maintained incrementally, not recomputed.
  std::size_t pending_messages() const noexcept {
    return pending_total_ + (faults_ ? faults_->held_count() : 0);
  }

  /// Applies `fn` to every pending message with its destination identifier
  /// (the channel's owner), in ascending owner order and push order within
  /// one owner (random-async: the channel's storage order, which its random
  /// takes permute; delayed-random: what a receiver left untaken comes
  /// first); messages held by the fault layer are visited after the
  /// channel contents, in hold order.  O(n + pending).  Not for use from
  /// inside an action: during a synchronous receive pass the block being
  /// received holds its messages in the sort buffer, which this does not
  /// visit, and the pass's staged sends are not yet resolved.
  void for_each_pending(const std::function<void(Id to, const Message&)>& fn) const;

  const EngineCounters& counters() const noexcept { return *counters_; }

  /// The scheduler's stream.  Protocol code should use Context::rng (its
  /// per-process stream) instead; this one decides only scheduler-level
  /// draws (the random-async action picks).
  util::Rng& rng() noexcept { return rng_; }
  std::uint64_t round() const noexcept { return counters_->rounds; }

  /// Exposes this engine's counts in `registry` (names per
  /// doc/OBSERVABILITY.md: engine.rounds, engine.messages.sent, …).  The
  /// counters become views of counters(), read when the registry is read,
  /// and count from the moment of attachment; they are not retroactive.
  /// The two engine gauges are set at the end of every round, so the
  /// registry must be alive whenever this engine runs a round; either may
  /// be destroyed first.
  void attach_metrics(obs::Registry& registry);

  // --- observation hooks ------------------------------------------------
  // Hooks are *chained*: any number of observers may attach at once (a
  // metrics snapshotter, a test capture) and each receives every event.
  // add returns a token for targeted removal, so detaching one observer
  // never silently disables another.
  //
  // Order: a send hook fires when the send is dispatched.  A send made
  // during a round pass is dispatched when the engine flushes the pass's
  // staged sends in a batch: at an action boundary after the sender's
  // action, and no later than the end of the pass, in (sender rank, send
  // order).  Round hooks fire after the round.  A send hook only observes:
  // it must not send, inject or remove, since it runs while the engine
  // resolves a pass's sends.
  using SendHook = std::function<void(Id to, const Message&)>;
  using RoundHook = std::function<void(std::uint64_t round)>;
  using HookId = std::uint64_t;

  /// Observer invoked on every send, before loss/routing (the conformance
  /// tests' send capture).
  HookId add_send_hook(SendHook hook);
  bool remove_send_hook(HookId id) noexcept;

  /// Observer invoked at the end of every round with the new round number
  /// (periodic snapshotting, convergence watchdogs).
  HookId add_round_hook(RoundHook hook);
  bool remove_round_hook(HookId id) noexcept;

  /// Testing scheduler: runs one synchronous receive pass that delivers
  /// everything currently pending (shuffled per receiver stream) WITHOUT
  /// executing any regular action, and does not advance the round counter.
  /// Lets tests exercise a single receive action in isolation.
  void deliver_pending_once();

 private:
  friend class Context;

  struct Slot {
    std::unique_ptr<Process> process;
    Channel channel;  ///< random-async only; empty under the other schedulers
    /// This slot's position in order_ (its rank among live ids).  Lets the
    /// hot paths map slot → Fenwick index in O(1).  Stale for dead slots.
    std::size_t rank = 0;
    /// The process's private stream: util::derive_stream(seed, bits of id).
    /// Touched only by this process's own actions, the shuffles and samples
    /// of its channel, and the fates of its sends.
    util::Rng rng{0};
  };

  /// A send made during a round pass, staged until a flush resolves it.
  struct Staged {
    std::uint32_t from;  ///< the sender's slot
    MessageType type;
    Id to;
    Id id1, id2, id3;

    static Staged of(std::size_t from, Id to, const Message& message) noexcept {
      return {static_cast<std::uint32_t>(from), message.type, to,
              message.id1, message.id2, message.id3};
    }
    Message message() const noexcept { return {type, id1, id2, id3}; }
  };
  static_assert(sizeof(Staged) == 40);

  /// One pending message of a synchronous-family engine, held once, in its
  /// receiver's block: the receiver's slot (stable across membership
  /// changes; slots are never recycled, so add_process checks that they fit
  /// 32 bits) and its rank within the block (the sort key).
  struct Record {
    std::uint32_t slot;
    MessageType type;
    std::uint16_t offset;
    Id id1, id2, id3;

    static Record of(std::size_t slot, std::size_t offset,
                     const Message& message) noexcept {
      return {static_cast<std::uint32_t>(slot), message.type,
              static_cast<std::uint16_t>(offset), message.id1, message.id2,
              message.id3};
    }
    Message message() const noexcept { return {type, id1, id2, id3}; }
  };
  static_assert(sizeof(Record) == 32);

  /// A block is kBlockRanks consecutive ranks: small enough that one
  /// block's pending messages sort inside L2 at 10-14 messages per node.
  static constexpr std::size_t kBlockShift = 9;
  static constexpr std::size_t kBlockRanks = std::size_t{1} << kBlockShift;
  static_assert(kBlockRanks <= 65536, "a Record's offset is 16 bits");
  /// Records per pool chunk: one 1 KiB chunk, so the one partial chunk per
  /// list costs little at any n.
  static constexpr std::size_t kChunkRecords = 31;
  struct alignas(64) Chunk {
    Record records[kChunkRecords];
    Chunk* next;
  };
  static_assert(sizeof(Chunk) == 1024);
  /// Chunks the pool allocates at once: 256 KiB, carved as they are taken.
  static constexpr std::size_t kSlabChunks = 256;
  /// Pending records in push order, in pool chunks; every chunk but the
  /// last is full, and the last holds [tail->records, end).
  struct RecordList {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    Record* end = nullptr;
    Record* limit = nullptr;  ///< the tail chunk's end; end == limit when full
  };
  /// One block's pending messages.  What delayed-random left untaken at the
  /// block's last receive pass stands ahead of every later arrival, so it
  /// has a list of its own that the sort reads first.
  struct Block {
    RecordList deferred;
    RecordList posted;
  };

  /// The per-send fate rule, shared by dispatch_send and the flush walk:
  /// counts the send, fires the send hooks and draws the loss fate from
  /// the *sender's* stream.  False when the send is lost.
  bool admit_send(std::size_t from_slot, Id to, const Message& message);
  /// The send path: admit_send, then the fault fate (also from the
  /// sender's stream), and routes the survivors.  Called inline by timer
  /// and async actions, and by flush_staged when staged sends cannot be
  /// resolved directly.
  void dispatch_send(std::size_t from_slot, Id to, const Message& message);
  /// Resolves every staged send, in (sender rank, send order).  Called at
  /// action boundaries only, so a sender's loss and fault draws come after
  /// its whole action, as if the pass had ended.
  void flush_staged();
  void enqueue_or_drop(Id to, const Message& message);
  /// Queues `message` for the live process in `slot_index`: its block's
  /// pending list for the synchronous family, the slot's channel for
  /// random-async.
  void post(std::size_t slot_index, const Message& message);
  /// Appends `message` to the posted list of its receiver's block.
  void file(std::size_t slot_index, const Message& message);
  void release_due_messages();
  void fire_due_timers();
  /// One random-async receive action.
  void deliver(Slot& slot, std::size_t slot_index, const Message& message);

  // The chunk pool behind the pending lists.
  Chunk* take_chunk();
  void append(RecordList& list, const Record& record);
  /// Visits `list`'s records in order, then hands its chunks back.
  template <typename Fn>
  void drain(RecordList& list, Fn&& fn);
  std::size_t block_count() const noexcept {
    return (order_.size() + kBlockRanks - 1) >> kBlockShift;
  }
  /// Re-files every pending record under its receiver's current rank (the
  /// deferred lists first, so untaken messages stay ahead of later
  /// arrivals) and drops the records `gone` names; returns how many.
  template <typename Gone>
  std::size_t refile(Gone&& gone);
  /// Re-files the pending records if a membership change shifted ranks
  /// since they were filed.  Every post site calls it first.
  void settle_blocks();
  /// Counting-sorts `block`'s records by receiver into sort_buffer_ and
  /// returns its chunks to the pool; bucket_end_[i] ends receiver i's bucket.
  void sort_block(Block& block, std::size_t ranks);
  /// The receive pass: block by block in rank order, each process takes its
  /// bucket (with `sample`, each message only with the delivery
  /// probability), orders it per `order`, and receives it.
  void receive_pass(ReceiptOrder order, bool sample);
  void run_synchronous_round(ReceiptOrder order);
  void run_async_round();
  void finish_round();
  /// Lazily rebuilds the pending-by-rank Fenwick index (async scheduler
  /// only) after membership changes invalidated it.
  void ensure_fenwick();

  EngineConfig config_;
  util::Rng rng_;
  // Present only when the fault plan is active or the scheduler needs the
  // hold queue (kAdversarialOldestLast); null means the send path is the
  // exact fault-free code of earlier revisions.
  std::unique_ptr<FaultInjector> faults_;
  std::vector<FaultInjector::Held> released_;  // collect_due scratch, reused
  // Identifier → slot index, one flat open-addressing table (id_table.hpp):
  // every send, timer, find and contains resolves its id with one hash and
  // a short run of adjacent cells.  Never iterated (order_ is the canonical
  // iteration order), so the table layout cannot leak into trajectories.
  IdSlotTable index_;
  std::vector<Slot> slots_;        // dense storage; holes after removal
  // Canonical scheduling order: live slot indices, ascending by node id,
  // maintained by sorted insert/erase (never rebuilt from map/hash
  // iteration).  Every scheduler draws from this order, so trajectories are
  // a function of (node set, channel contents, seed) alone — bit-identical
  // across platforms, stdlibs, and join/leave histories that reach the same
  // state.
  std::vector<std::size_t> order_;
  // Live identifiers, ascending: ids_sorted_[rank] == slots_[order_[rank]]'s
  // id.  Maintained by the same sorted insert/erase as order_, so id_span()
  // hands out the canonical order without allocating.
  std::vector<Id> ids_sorted_;
  // kRandomAsync: messages wait in per-slot channels, and the pending count
  // per order_-rank is Fenwick-indexed, so the scheduler finds the pick-th
  // pending message by binary descent in O(log n).  Membership changes mark
  // the index dirty and ensure_fenwick rebuilds it lazily, so bulk loads
  // skip an O(n)-per-add rebuild entirely.  The other schedulers use the
  // block storage below and never touch either.
  bool async_ = false;
  util::Fenwick pending_by_rank_;
  bool fenwick_dirty_ = true;
  std::vector<std::int64_t> rank_counts_;  // rebuild scratch, reused
  // Synchronous family: every pending message, in its receiver's block,
  // blocks_[rank >> kBlockShift].  Ranks shifted by a join mark the filing
  // stale until settle_blocks.
  std::vector<Block> blocks_;
  bool blocks_stale_ = false;
  // The pool: chunks come in slabs that never move, carved in order as
  // they are first taken, and a drained list's chunks go back on the free
  // list for the next append.
  std::vector<std::unique_ptr<Chunk[]>> slabs_;
  std::size_t carved_ = kSlabChunks;  // chunks of slabs_.back() handed out
  Chunk* free_chunks_ = nullptr;
  // The block being received, bucketed by receiver; the buffer only grows,
  // so its storage is reused block after block.
  std::vector<Message> sort_buffer_;
  std::array<std::uint32_t, kBlockRanks> bucket_end_{};
  std::size_t pending_total_ = 0;  // every queued message, kept in step
  // A round pass's sends, in (sender rank, send order), until the next
  // flush.
  std::vector<Staged> staged_;
  // Shared with the registry counters that view it, so it outlives
  // whichever of the engine and the registry goes first.
  std::shared_ptr<EngineCounters> counters_ = std::make_shared<EngineCounters>();
  // The pushed gauges of an attached registry; null while none is.
  obs::Gauge* channel_depth_gauge_ = nullptr;
  obs::Gauge* processes_gauge_ = nullptr;
  HookId next_hook_id_ = 1;
  std::vector<std::pair<HookId, SendHook>> send_hooks_;
  std::vector<std::pair<HookId, RoundHook>> round_hooks_;
  struct Timer {
    Id id;
    std::uint64_t tag;
  };
  // Armed timers, keyed by due round; each bucket holds arming order and is
  // id-sorted (stably) at fire time for the canonical order.
  std::map<std::uint64_t, std::vector<Timer>> timers_;
  std::size_t timer_count_ = 0;
  std::vector<Timer> due_timers_;  // fire_due_timers scratch, reused
};

// --- Context inline fast paths ---------------------------------------------
// send() is the hottest engine call (every protocol action fires several);
// inside a round pass it is one push_back onto the staging buffer, with the
// real dispatch deferred to the next flush.  Defined here, after Engine, so
// the calls inline into protocol code.

inline void Context::send(Id to, const Message& message) {
  if (in_pass_) {
    engine_.staged_.push_back(Engine::Staged::of(from_slot_, to, message));
    return;
  }
  engine_.dispatch_send(from_slot_, to, message);
}

inline util::Rng& Context::rng() { return *rng_; }

inline std::uint64_t Context::round() const noexcept {
  return engine_.counters_->rounds;
}

inline void Context::schedule_timer(std::uint32_t delay, std::uint64_t tag) {
  engine_.schedule_timer(self_, delay, tag);
}

}  // namespace sssw::sim
