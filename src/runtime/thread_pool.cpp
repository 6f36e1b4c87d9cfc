#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace nvsoc::runtime {

namespace {

std::atomic<std::uint64_t> g_pools_created{0};

std::size_t hardware_workers() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = hardware_workers();
  threads_.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // Thread exhaustion mid-spawn: stop and join the running workers, or
    // ~vector would terminate on their joinable threads.
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    job_ready_.notify_all();
    for (auto& thread : threads_) thread.join();
    throw;
  }
  g_pools_created.fetch_add(1, std::memory_order_relaxed);
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  job_ready_.notify_all();
  for (auto& thread : threads_) thread.join();
}

std::size_t ThreadPool::worker_count() const {
  MutexLock lock(mutex_);
  return threads_.size();
}

void ThreadPool::worker_loop() {
  MutexLock lock(mutex_);
  for (;;) {
    while (!stop_ && queue_.empty()) job_ready_.wait(mutex_);
    // stop_ is honoured only once the queue is drained, so every future
    // handed out by submit() completes before the destructor returns.
    if (queue_.empty()) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();  // a packaged_task: exceptions land in its future
    lock.lock();
  }
}

std::size_t ThreadPool::recommended_workers(std::size_t task_count) {
  return std::max<std::size_t>(1, std::min(hardware_workers(), task_count));
}

std::uint64_t ThreadPool::total_created() {
  return g_pools_created.load(std::memory_order_relaxed);
}

}  // namespace nvsoc::runtime
