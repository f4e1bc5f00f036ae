#include "util/thread_pool.hpp"

#include <algorithm>

namespace odtn {

ThreadPool::ThreadPool(unsigned num_workers) {
  if (num_workers == 0)
    num_workers = std::max(1u, std::thread::hardware_concurrency());
  threads_.reserve(num_workers - 1);
  for (unsigned id = 1; id < num_workers; ++id)
    threads_.emplace_back([this, id] { worker_loop(id); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::drain(const std::function<void(std::size_t, unsigned)>* fn,
                       std::size_t n, unsigned worker_id) {
  for (;;) {
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    try {
      (*fn)(i, worker_id);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
      // Swallow remaining indices quickly: move the cursor to the end.
      cursor_.store(n, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop(unsigned worker_id) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
    if (stop_) return;
    seen_generation = generation_;
    // job_ is nulled (under this mutex) before parallel_for returns, so a
    // late wake-up after the job completed observes nullptr, never a
    // dangling pointer.
    const auto* fn = job_;
    const std::size_t n = job_size_;
    if (!fn) continue;
    ++active_workers_;
    lock.unlock();

    drain(fn, n, worker_id);

    lock.lock();
    if (--active_workers_ == 0) done_.notify_all();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, unsigned)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0, /*worker_id=*/0);
    return;
  }
  bool expected = false;
  if (!busy_.compare_exchange_strong(expected, true,
                                     std::memory_order_acquire)) {
    // The job slot is taken (nested or concurrent call): run inline.
    for (std::size_t i = 0; i < n; ++i) fn(i, /*worker_id=*/0);
    return;
  }
  struct BusyReset {
    std::atomic<bool>& flag;
    ~BusyReset() { flag.store(false, std::memory_order_release); }
  } busy_reset{busy_};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    job_size_ = n;
    cursor_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    ++generation_;
  }
  wake_.notify_all();

  drain(&fn, n, /*worker_id=*/0);  // the caller participates as worker 0

  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return active_workers_ == 0; });
  job_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

ThreadPool& shared_thread_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace odtn
