#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace odtn {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i, unsigned) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, WorkerIdsWithinRange) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  std::atomic<bool> bad{false};
  pool.parallel_for(200, [&](std::size_t, unsigned worker) {
    if (worker >= pool.num_workers()) bad = true;
  });
  EXPECT_FALSE(bad.load());
}

TEST(ThreadPool, PerWorkerScratchNeedsNoLocking) {
  ThreadPool pool(4);
  std::vector<std::size_t> per_worker(pool.num_workers(), 0);
  const std::size_t n = 5000;
  pool.parallel_for(n, [&](std::size_t, unsigned worker) {
    ++per_worker[worker];
  });
  EXPECT_EQ(std::accumulate(per_worker.begin(), per_worker.end(),
                            std::size_t{0}),
            n);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i, unsigned) {
                          if (i == 17) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives the failed job.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(10, [&](std::size_t, unsigned) { ++count; });
  EXPECT_EQ(count.load(), 10u);
}

TEST(ThreadPool, NestedParallelForRunsInlineAndCompletes) {
  // A parallel_for issued from inside a running parallel_for on the
  // same pool must not corrupt the outer job's cursor: the nested call
  // runs inline on the calling thread.
  ThreadPool pool(3);
  const std::size_t outer = 40, inner = 25;
  std::vector<std::atomic<std::size_t>> inner_hits(outer);
  std::vector<std::atomic<int>> outer_hits(outer);
  pool.parallel_for(outer, [&](std::size_t i, unsigned) {
    ++outer_hits[i];
    // Nested scratch stays local to this trial, as the contract asks.
    std::size_t local = 0;
    pool.parallel_for(inner, [&](std::size_t, unsigned) { ++local; });
    inner_hits[i] = local;
  });
  for (std::size_t i = 0; i < outer; ++i) {
    EXPECT_EQ(outer_hits[i].load(), 1);
    EXPECT_EQ(inner_hits[i].load(), inner);
  }
}

TEST(ThreadPool, ConcurrentExternalCallersBothComplete) {
  // Two unrelated threads hitting the same pool: one wins the job slot,
  // the other runs inline; both must see every index.
  ThreadPool pool(2);
  std::atomic<std::size_t> a{0}, b{0};
  std::thread other([&] {
    pool.parallel_for(3000, [&](std::size_t, unsigned) { ++a; });
  });
  pool.parallel_for(3000, [&](std::size_t, unsigned) { ++b; });
  other.join();
  EXPECT_EQ(a.load(), 3000u);
  EXPECT_EQ(b.load(), 3000u);
}

TEST(ThreadPool, SingleItemRunsOnCallerAsWorkerZero) {
  ThreadPool pool(4);
  std::thread::id ran_on;
  unsigned worker_id = 99;
  pool.parallel_for(1, [&](std::size_t i, unsigned worker) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
    worker_id = worker;
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(worker_id, 0u);
}

TEST(ThreadPool, SingleItemRethrows) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(1,
                                 [](std::size_t, unsigned) {
                                   throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Neither the job slot nor the workers were touched: the pool still
  // distributes the next job.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(50, [&](std::size_t, unsigned) { ++count; });
  EXPECT_EQ(count.load(), 50u);
}

TEST(ThreadPool, SharedPoolIsReusable) {
  std::atomic<std::size_t> count{0};
  shared_thread_pool().parallel_for(64, [&](std::size_t, unsigned) {
    ++count;
  });
  EXPECT_EQ(count.load(), 64u);
}

}  // namespace
}  // namespace odtn
