// id_table.hpp — the engine's identifier → slot index.
//
// Every send resolves its destination here, so the lookup is the hottest
// read in the engine.  The table is one flat array of (id bits, slot) cells
// with linear probing, kept at load <= 1/2: a lookup hashes once and reads a
// short run of adjacent cells, where a node-based hash map reads a bucket
// pointer and then a list node somewhere else on the heap.  Erase shifts the
// rest of the probe run back instead of leaving tombstones, so lookups never
// slow down under churn.
//
// Keys compare by bit pattern.  Engine ids are finite doubles (checked at
// add), so bit identity is value identity; the empty marker is a NaN
// pattern no finite id can have.  The table is never iterated, so its
// layout cannot leak into trajectories.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/id.hpp"
#include "util/check.hpp"

namespace sssw::sim {

class IdSlotTable {
 public:
  /// find() result for an absent id.
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t size() const noexcept { return size_; }
  /// Cells in the table: 0 before the first insert, then a power of two at
  /// least twice size().
  std::size_t capacity() const noexcept { return cells_.size(); }

  /// The slot stored for `id`, or kNone.
  std::size_t find(Id id) const noexcept {
    if (cells_.empty()) return kNone;
    const std::uint64_t key = std::bit_cast<std::uint64_t>(id);
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Cell& cell = cells_[i];
      if (cell.key == kEmpty) return kNone;
      if (cell.key == key) return cell.slot;
    }
  }
  bool contains(Id id) const noexcept { return find(id) != kNone; }

  /// Starts loading the cell where `id`'s probe run begins, so a find()
  /// issued a little later does not wait on memory.  No effect on contents.
  void prefetch(Id id) const noexcept {
    if (!cells_.empty())
      __builtin_prefetch(&cells_[home(std::bit_cast<std::uint64_t>(id))]);
  }

  /// Sizes the table for `count` ids, so inserting up to that many never
  /// rehashes.
  void reserve(std::size_t count) {
    std::size_t capacity = cells_.empty() ? kMinCapacity : cells_.size();
    while (2 * count > capacity) capacity *= 2;
    if (capacity > cells_.size()) rehash(capacity);
  }

  /// Maps `id` (a finite id not yet present) to `slot`.
  void insert(Id id, std::size_t slot) {
    SSSW_DCHECK(is_node_id(id) && !contains(id));
    if (2 * (size_ + 1) > cells_.size())
      rehash(cells_.empty() ? kMinCapacity : 2 * cells_.size());
    place(std::bit_cast<std::uint64_t>(id), slot);
    ++size_;
  }

  /// Removes `id`; returns false if it is absent.
  bool erase(Id id) noexcept {
    if (cells_.empty()) return false;
    const std::uint64_t key = std::bit_cast<std::uint64_t>(id);
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (cells_[hole].key == kEmpty) return false;
      if (cells_[hole].key == key) break;
    }
    // Backward shift: walk the rest of the probe run and move back every
    // cell whose home lies at or before the hole (cyclically), so no run is
    // ever broken by an empty cell.
    for (std::size_t j = (hole + 1) & mask_; cells_[j].key != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t from_home = (j - home(cells_[j].key)) & mask_;
      if (from_home >= ((j - hole) & mask_)) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole].key = kEmpty;
    --size_;
    return true;
  }

  /// The cell a key's probe run starts at: one multiply-xorshift over the
  /// id's bits, masked to the table.
  std::size_t home(std::uint64_t key) const noexcept {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    return static_cast<std::size_t>(key) & mask_;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};  // a NaN
  static constexpr std::size_t kMinCapacity = 16;

  struct Cell {
    std::uint64_t key = kEmpty;
    std::size_t slot = 0;
  };

  void place(std::uint64_t key, std::size_t slot) noexcept {
    std::size_t i = home(key);
    while (cells_[i].key != kEmpty) i = (i + 1) & mask_;
    cells_[i] = Cell{key, slot};
  }

  void rehash(std::size_t capacity) {
    std::vector<Cell> old(capacity);
    old.swap(cells_);
    mask_ = cells_.size() - 1;
    for (const Cell& cell : old)
      if (cell.key != kEmpty) place(cell.key, cell.slot);
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sssw::sim
