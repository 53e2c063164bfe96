// Tests for util/thread_pool: parallel_for coverage, exceptions, futures,
// and run_trials.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace sssw::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleItem) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::logic_error("nope"); });
  EXPECT_THROW(future.get(), std::logic_error);
}

TEST(ThreadPool, ManySubmits) {
  ThreadPool pool(4);
  std::vector<std::future<std::size_t>> futures;
  for (std::size_t i = 0; i < 200; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (std::size_t i = 0; i < 200; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, SizeReflectsWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeNonZero) {
  ThreadPool pool;
  EXPECT_GT(pool.size(), 0u);
}

TEST(FreeParallelFor, SerialFallbackForTinyCounts) {
  std::vector<int> hits(1, 0);
  parallel_for(1, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits[0], 1);
}

TEST(FreeParallelFor, ParallelPath) {
  std::vector<std::atomic<int>> hits(256);
  parallel_for(256, [&](std::size_t i) { ++hits[i]; });
  int total = 0;
  for (const auto& h : hits) total += h.load();
  EXPECT_EQ(total, 256);
}

TEST(FreeParallelFor, SharedPoolIsReused) {
  ThreadPool& first = shared_pool();
  ThreadPool& second = shared_pool();
  EXPECT_EQ(&first, &second);
  EXPECT_GT(first.size(), 0u);
}

TEST(FreeParallelFor, RepeatedCallsStayCorrect) {
  // The free function must not spin up a fresh pool per call; hammering it
  // checks both correctness and that worker reuse doesn't corrupt state.
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<std::atomic<int>> hits(64);
    parallel_for(64, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<long> results(500);
  pool.parallel_for(500, [&](std::size_t i) {
    long sum = 0;
    for (std::size_t k = 0; k <= i; ++k) sum += static_cast<long>(k);
    results[i] = sum;
  });
  for (std::size_t i = 0; i < 500; ++i)
    EXPECT_EQ(results[i], static_cast<long>(i * (i + 1) / 2));
}

TEST(RunTrials, ResultsInIndexOrderWithDistinctSeeds) {
  const auto results = run_trials<std::uint64_t>(
      16, 100, [](std::size_t index, std::uint64_t seed) {
        EXPECT_EQ(seed, 100 + index);
        return seed * 2;
      });
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(results[i], (100 + i) * 2);
}

TEST(RunTrials, ZeroTrials) {
  const auto results =
      run_trials<int>(0, 1, [](std::size_t, std::uint64_t) { return 1; });
  EXPECT_TRUE(results.empty());
}

}  // namespace
}  // namespace sssw::util
