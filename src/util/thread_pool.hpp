// A small reusable work-queue thread pool.
//
// Built for embarrassingly-parallel loops over heterogeneous work items
// (e.g. one single-source engine run per node): workers pull the next
// index from a shared atomic cursor, so a handful of expensive items
// cannot load-imbalance the way strided static partitioning does on
// heterogeneous traces. Workers are spawned once and reused across
// parallel_for calls; between calls they sleep on a condition variable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace odtn {

class ThreadPool {
 public:
  /// Creates a pool with `num_workers` total workers (the calling thread
  /// participates as worker 0, so `num_workers - 1` threads are spawned).
  /// 0 means hardware concurrency.
  explicit ThreadPool(unsigned num_workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total worker slots (including the caller's). parallel_for passes
  /// worker ids in [0, num_workers()) to `fn`; no two concurrent calls of
  /// `fn` share a worker id, so per-worker scratch indexed by the id
  /// needs no further synchronization.
  unsigned num_workers() const noexcept {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

  /// Runs fn(index, worker) for every index in [0, n), handing indices
  /// out dynamically (work stealing via a shared cursor). Blocks until
  /// all indices completed. The first exception thrown by `fn` is
  /// rethrown here. A single item (n == 1) runs inline on the caller as
  /// worker 0 without waking the pool: one-source queries would
  /// otherwise pay a wake-up of every worker for nothing to share.
  ///
  /// The pool runs one distributed job at a time: the job state
  /// (cursor, generation) is a single slot. A parallel_for issued while
  /// another is in flight on the same pool -- a nested call from inside
  /// `fn`, or a call from an unrelated thread -- is detected and run
  /// inline on the calling thread (serially, worker id 0) instead of
  /// corrupting the in-flight job. Nested calls must therefore keep any
  /// per-worker scratch local to themselves: their worker id 0 may be
  /// active in the outer job simultaneously.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, unsigned)>& fn);

 private:
  void worker_loop(unsigned worker_id);
  void drain(const std::function<void(std::size_t, unsigned)>* fn,
             std::size_t n, unsigned worker_id);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  // Job state, guarded by mutex_ except for the index cursor.
  std::uint64_t generation_ = 0;
  std::size_t job_size_ = 0;
  const std::function<void(std::size_t, unsigned)>* job_ = nullptr;
  unsigned active_workers_ = 0;
  std::atomic<std::size_t> cursor_{0};
  std::exception_ptr error_;
  bool stop_ = false;
  // True while a distributed parallel_for owns the job slot; a second
  // caller seeing true falls back to inline serial execution.
  std::atomic<bool> busy_{false};
};

/// Lazily-constructed process-wide pool sized to hardware concurrency.
/// Shared by all-pairs computations so repeated calls (benches, the CLI,
/// parameter sweeps) reuse the same threads.
ThreadPool& shared_thread_pool();

}  // namespace odtn
