// Tests for sim/id_table: the engine's flat id → slot index must agree with
// a std::unordered_map on every operation, keep whole probe runs findable
// when an erase shifts cells back across the end of the table, and stay
// within load 1/2 as it grows.
#include "sim/id_table.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace sssw::sim {
namespace {

std::uint64_t bits(Id id) { return std::bit_cast<std::uint64_t>(id); }

/// Draws fresh ids until `count` of them have home cell `home` in `table`.
std::vector<Id> ids_with_home(const IdSlotTable& table, std::size_t home,
                              std::size_t count, util::Rng& rng) {
  std::vector<Id> found;
  while (found.size() < count) {
    const Id id = rng.uniform();
    if (table.home(bits(id)) == home) found.push_back(id);
  }
  return found;
}

TEST(IdSlotTable, EmptyTableFindsNothing) {
  IdSlotTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.find(0.5), IdSlotTable::kNone);
  EXPECT_FALSE(table.contains(kPosInf));
  EXPECT_FALSE(table.erase(0.5));
}

TEST(IdSlotTable, AbsentKeysIncludingSentinelsAndNaN) {
  IdSlotTable table;
  table.insert(0.25, 3);
  EXPECT_EQ(table.find(0.25), 3u);
  EXPECT_FALSE(table.contains(kPosInf));
  EXPECT_FALSE(table.contains(kNegInf));
  // The all-ones NaN is the empty-cell marker: it must never match one.
  const Id marker = std::bit_cast<Id>(~std::uint64_t{0});
  ASSERT_TRUE(std::isnan(marker));
  EXPECT_FALSE(table.contains(marker));
  EXPECT_FALSE(table.erase(marker));
  EXPECT_FALSE(table.contains(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(table.size(), 1u);
}

TEST(IdSlotTable, RandomOperationsMatchUnorderedMap) {
  // A small key pool makes inserts, erases and misses all frequent, and the
  // live set swings between near-empty and a few hundred keys, so the table
  // grows several times and every probe run gets erased from repeatedly.
  util::Rng rng(20120521);
  std::vector<Id> pool;
  for (int i = 0; i < 600; ++i) pool.push_back(rng.uniform());
  IdSlotTable table;
  std::unordered_map<std::uint64_t, std::size_t> oracle;
  for (std::size_t step = 0; step < 60000; ++step) {
    const Id id = pool[rng.below(pool.size())];
    // Bias toward inserts in the first half, erases in the second.
    const bool grow_phase = (step / 15000) % 2 == 0;
    const bool insert = rng.bernoulli(grow_phase ? 0.7 : 0.3);
    if (insert) {
      if (oracle.count(bits(id)) == 0) {
        table.insert(id, step);
        oracle.emplace(bits(id), step);
      }
    } else {
      EXPECT_EQ(table.erase(id), oracle.erase(bits(id)) == 1) << "step " << step;
    }
    ASSERT_EQ(table.size(), oracle.size());
    ASSERT_LE(2 * table.size(), table.capacity());
    if (step % 97 == 0) {
      for (const Id key : pool) {
        const auto it = oracle.find(bits(key));
        ASSERT_EQ(table.find(key),
                  it == oracle.end() ? IdSlotTable::kNone : it->second)
            << "step " << step;
      }
    }
  }
}

TEST(IdSlotTable, EraseShiftsARunBackAcrossTheTableEnd) {
  IdSlotTable table;
  table.insert(0.5, 0);  // allocate the minimum table, then empty it again
  ASSERT_TRUE(table.erase(0.5));
  const std::size_t capacity = table.capacity();
  ASSERT_GE(capacity, 8u);
  const std::size_t last = capacity - 1;

  // Three keys homed at the last cell occupy cells last, 0 and 1; a key
  // homed at cell 0 lands at cell 2.  Erasing from the front of the run
  // must shift the survivors back across the end without losing one.
  util::Rng rng(7);
  const std::vector<Id> at_end = ids_with_home(table, last, 3, rng);
  const Id at_zero = ids_with_home(table, 0, 1, rng).front();
  for (std::size_t i = 0; i < at_end.size(); ++i) table.insert(at_end[i], 10 + i);
  table.insert(at_zero, 20);
  ASSERT_EQ(table.capacity(), capacity);

  ASSERT_TRUE(table.erase(at_end[0]));
  EXPECT_FALSE(table.contains(at_end[0]));
  EXPECT_EQ(table.find(at_end[1]), 11u);
  EXPECT_EQ(table.find(at_end[2]), 12u);
  EXPECT_EQ(table.find(at_zero), 20u);

  // Erase from the middle of the wrapped run, then re-insert.
  ASSERT_TRUE(table.erase(at_end[2]));
  EXPECT_EQ(table.find(at_end[1]), 11u);
  EXPECT_EQ(table.find(at_zero), 20u);
  table.insert(at_end[0], 30);
  EXPECT_EQ(table.find(at_end[0]), 30u);
  EXPECT_EQ(table.find(at_end[1]), 11u);
  EXPECT_EQ(table.find(at_zero), 20u);
  EXPECT_EQ(table.size(), 3u);

  // A key homed at 0 must not move in front of its home when the wrapped
  // key before it leaves.
  ASSERT_TRUE(table.erase(at_end[1]));
  ASSERT_TRUE(table.erase(at_end[0]));
  EXPECT_EQ(table.find(at_zero), 20u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(IdSlotTable, GrowthKeepsEveryKeyAndHalfLoad) {
  util::Rng rng(99);
  IdSlotTable table;
  std::vector<Id> ids;
  for (std::size_t i = 0; i < 20000; ++i) {
    const Id id = rng.uniform();
    if (table.contains(id)) continue;
    table.insert(id, i);
    ids.push_back(id);
    ASSERT_LE(2 * table.size(), table.capacity());
  }
  EXPECT_TRUE(std::has_single_bit(table.capacity()));
  for (std::size_t i = 0; i < ids.size(); i += 2) ASSERT_TRUE(table.erase(ids[i]));
  for (std::size_t i = 0; i < ids.size(); ++i)
    ASSERT_EQ(table.contains(ids[i]), i % 2 == 1) << i;
}

}  // namespace
}  // namespace sssw::sim
