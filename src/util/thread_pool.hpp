// thread_pool.hpp — fixed-size worker pool with a parallel_for helper.
//
// Monte-Carlo experiment drivers run independent trials (one seed each) in
// parallel through run_trials; each trial owns its simulator and RNG, so the
// only shared state is the result slot it writes.  The pool is deliberately simple: a mutex-
// guarded deque is far from the bottleneck when each task is a whole
// simulation run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace sssw::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the returned future yields its result (or exception).
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> result = packaged->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs body(i) for i in [0, count) across the pool and blocks until all
  /// complete.  Exceptions from any invocation are rethrown (first one wins).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The process-wide pool backing the free parallel_for: lazily constructed
/// (hardware-sized) on first use, then reused for the life of the process.
ThreadPool& shared_pool();

/// Convenience: runs body(i) for i in [0, count) on the shared pool, or
/// serially when count <= 1 (no pool is ever constructed in that case).
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

/// Runs `trials` invocations of `trial(index, seed)` on the shared pool and
/// returns the results in index order.  Seeds are base_seed + index, so any
/// single trial can be replayed in isolation; callers fold the results in
/// index order, so a run's output does not depend on the pool's schedule.
/// The shared pool is not re-entrant: a trial must not call run_trials or
/// parallel_for itself.
template <typename T>
std::vector<T> run_trials(std::size_t trials, std::uint64_t base_seed,
                          const std::function<T(std::size_t, std::uint64_t)>& trial) {
  std::vector<T> results(trials);
  parallel_for(trials, [&](std::size_t index) {
    results[index] = trial(index, base_seed + index);
  });
  return results;
}

}  // namespace sssw::util
