// Fixed-size FIFO worker pool for streaming task submission. Each backend
// run builds its own SoC/VP instance, so independent requests parallelise
// cleanly; the pool hands queued tasks to free workers in arrival order.
// The workers start once, at construction, and serve every submitted task
// until the destructor drains the queue and joins them.
//
// Liveness: a pool of any size >= 1 cannot deadlock as long as no task
// waits on queued work. The session keeps that invariant: a task waits only
// on a staging latch, which exists only while the thread that created it
// runs the staging, and blocking calls are banned on workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace nvsoc::runtime {

class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 picks one per hardware thread (at least
  /// 1). Exception-safe: if spawning thread k throws (std::system_error
  /// under thread exhaustion), the k-1 already-running workers are
  /// signalled and joined before the exception escapes.
  explicit ThreadPool(std::size_t workers = 0);

  /// Drains every queued submit() task (their futures all complete), then
  /// stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The worker count fixed at construction.
  std::size_t worker_count() const;

  /// Enqueue `fn` to run on the first free worker, in FIFO order; returns
  /// the future for its result. The task's value — or the exception it
  /// threw — travels through the future, so submit() itself never
  /// observes task failures. Thread-safe against concurrent submit() calls.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      MutexLock lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    job_ready_.notify_one();
    return future;
  }

  /// Worker count for a batch of `task_count` items: one per hardware
  /// thread, but never more than there are items.
  static std::size_t recommended_workers(std::size_t task_count);

  /// How many ThreadPools this process has constructed — lets tests assert
  /// that a serving session builds exactly one pool for its lifetime
  /// instead of one per batch.
  static std::uint64_t total_created();

 private:
  void worker_loop();

  mutable Mutex mutex_;
  CondVar job_ready_;
  std::vector<std::thread> threads_ GUARDED_BY(mutex_);
  /// submit() tasks, FIFO.
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;
};

}  // namespace nvsoc::runtime
