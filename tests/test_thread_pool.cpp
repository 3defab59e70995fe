#include "util/thread_pool.hpp"

#include <gtest/gtest.h>
#include <pthread.h>

#include <atomic>
#include <csignal>
#include <future>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace roleshare::util {
namespace {

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_thread_count(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_thread_count(7), 7u);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::promise<int> done;
  pool.submit([&done] { done.set_value(41); });
  EXPECT_EQ(done.get_future().get(), 41);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (const std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    constexpr std::size_t n = 500;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for_indexed(n,
                              [&](std::size_t, std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  pool.parallel_for_indexed(0, [](std::size_t, std::size_t) { FAIL(); });
  std::atomic<int> count{0};
  pool.parallel_for_indexed(1, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ExceptionOfLowestIndexPropagates) {
  for (const std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    constexpr std::size_t n = 64;
    std::vector<std::atomic<int>> attempted(n);
    try {
      pool.parallel_for_indexed(n, [&](std::size_t, std::size_t i) {
        ++attempted[i];
        if (i == 7) throw std::runtime_error("seven");
        if (i == 23) throw std::runtime_error("twenty-three");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "seven");
    }
    // Every index is still attempted even though two of them threw.
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(attempted[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<long long> total{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for_indexed(100, [&](std::size_t, std::size_t i) {
      total += static_cast<long long>(i);
    });
  }
  EXPECT_EQ(total.load(), 5 * (99 * 100 / 2));
}

// Per-slot scratch (the round engine's flood pool) needs exclusive
// slots: every slot a body sees is below workers(), and no two bodies
// running at the same time hold the same one.
TEST(ThreadPool, ForEachIndexSlotsAreBoundedAndExclusive) {
  for (const std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    const InnerExecutor exec(&pool);
    std::vector<std::atomic<int>> holders(exec.workers());
    std::atomic<int> out_of_range{0};
    std::atomic<int> shared{0};
    exec.for_each_index(2000, [&](std::size_t slot, std::size_t) {
      if (slot >= exec.workers()) {
        ++out_of_range;
        return;
      }
      if (holders[slot].fetch_add(1) != 0) ++shared;
      std::this_thread::yield();
      holders[slot].fetch_sub(1);
    });
    EXPECT_EQ(out_of_range.load(), 0) << workers << " workers";
    EXPECT_EQ(shared.load(), 0) << workers << " workers";
  }
}

// Overwrites the stack below the caller with non-zero bytes, the way
// unrelated calls reuse the frame a returned parallel_for_indexed used.
__attribute__((noinline)) void scribble_stack() {
  volatile unsigned char junk[2048];
  for (std::size_t i = 0; i < sizeof(junk); ++i) junk[i] = 0xA5;
}

// Regression for a use-after-scope race in parallel_for_indexed: the
// last worker used to drop the live count before taking the done mutex,
// so the waiter could return while that worker still had to lock and
// notify the call's stack-allocated state. After a scribbled frame the
// late lock crashes or blocks forever, so ctest runs this suite under a
// short TIMEOUT. A thread signals the workers non-stop: each no-op
// handler stalls a worker at an arbitrary instruction, the way
// preemption does, which widens the few-instruction window enough to
// hit within 10^5 back-to-back calls.
TEST(ThreadPoolStress, BackToBackTinyCalls) {
  constexpr std::size_t kWorkers = 3;
#if defined(__SANITIZE_THREAD__)
  constexpr std::size_t kCalls = 10000;  // TSan checks ordering, not luck
#else
  constexpr std::size_t kCalls = 100000;
#endif
  // The no-op handler stays installed: a signal still in flight after
  // the test must stay harmless. Nothing else in the suite uses SIGUSR1.
  struct sigaction quiet {};
  quiet.sa_handler = [](int) {};
  quiet.sa_flags = SA_RESTART;
  ASSERT_EQ(sigaction(SIGUSR1, &quiet, nullptr), 0);

  ThreadPool pool(kWorkers);
  // One index per worker, held at a latch until every worker has one, so
  // each worker records its thread handle exactly once.
  std::vector<pthread_t> workers(kWorkers);
  std::latch all_in(kWorkers);
  pool.parallel_for_indexed(kWorkers, [&](std::size_t, std::size_t i) {
    workers[i] = pthread_self();
    all_in.arrive_and_wait();
  });

  std::atomic<bool> stop{false};
  std::thread interrupter([&] {
    while (!stop.load())
      for (const pthread_t worker : workers) pthread_kill(worker, SIGUSR1);
  });
  std::atomic<std::size_t> total{0};
  for (std::size_t call = 0; call < kCalls; ++call) {
    pool.parallel_for_indexed(kWorkers,
                              [&](std::size_t, std::size_t i) { total += i; });
    scribble_stack();
  }
  stop.store(true);
  interrupter.join();
  EXPECT_EQ(total.load(), kCalls * (0 + 1 + 2));
}

}  // namespace
}  // namespace roleshare::util
