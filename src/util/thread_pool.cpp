#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "util/require.hpp"

namespace roleshare::util {

std::size_t ThreadPool::resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  RS_REQUIRE(threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RS_REQUIRE(!stopping_, "submit on a stopping pool");
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::size_t InnerExecutor::chunk_length(std::size_t n) {
  if (n == 0) return 0;
  // Chunk size from n alone: aim for kTargetChunks chunks but keep every
  // chunk at least kMinChunk indices (the last may be shorter). This is
  // the canonical formula; chunk_count derives from it.
  const std::size_t target = (n + kTargetChunks - 1) / kTargetChunks;
  return std::max(kMinChunk, target);
}

std::size_t InnerExecutor::chunk_count(std::size_t n) {
  if (n == 0) return 0;
  const std::size_t chunk = chunk_length(n);
  return (n + chunk - 1) / chunk;
}

void InnerExecutor::for_each_index(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) const {
  if (n == 0) return;
  if (!parallel()) {
    // Inline, but with the pool's error semantics: every index attempted,
    // lowest failing index's exception rethrown.
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        body(0, i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  pool_->parallel_for_indexed(n, body);
}

void InnerExecutor::for_each_chunk(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body)
    const {
  if (n == 0) return;
  const std::size_t chunk = chunk_length(n);
  const auto run_chunk = [&](std::size_t, std::size_t c) {
    const std::size_t begin = c * chunk;
    body(c, begin, std::min(n, begin + chunk));
  };
  for_each_index(chunk_count(n), run_chunk);
}

namespace {

/// Shared state of one parallel_for_indexed call, allocated on the
/// caller's stack. Workers capture a pointer to it and their slot, which
/// fits std::function's small-buffer storage — a steady-state round performs
/// no heap allocation on this path. The error of the *lowest* failing
/// index is kept (first_error_index guards the update), matching the
/// previous per-index error array without its O(n) allocation.
struct ParallelForState {
  std::size_t n = 0;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::size_t live = 0;  // guarded by done_mutex
  std::mutex done_mutex;
  std::condition_variable done;
  std::mutex error_mutex;
  std::size_t first_error_index = ~std::size_t{0};
  std::exception_ptr first_error;

  void record_error(std::size_t index) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (index < first_error_index) {
      first_error_index = index;
      first_error = std::current_exception();
    }
  }

  /// Runs on one worker per fan-out slot; every index it claims sees that
  /// slot.
  void claim_loop(std::size_t slot) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        (*body)(slot, i);
      } catch (...) {
        record_error(i);
      }
    }
    // Decrement and notify under the mutex: the waiter cannot observe
    // live == 0, return and pop this stack-allocated state until the
    // last worker has released the lock, so no worker touches the state
    // after the call returns.
    std::lock_guard<std::mutex> lock(done_mutex);
    if (--live == 0) done.notify_all();
  }
};

}  // namespace

void ThreadPool::parallel_for_indexed(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  ParallelForState state;
  state.n = n;
  state.body = &body;
  const std::size_t fan_out = std::min(workers_.size(), n);
  if (fan_out <= 1) {
    // Inline serial path — same error semantics as the parallel one:
    // every index attempted, lowest failing index's exception rethrown.
    for (std::size_t i = 0; i < n; ++i) {
      try {
        body(0, i);
      } catch (...) {
        state.record_error(i);
      }
    }
  } else {
    state.live = fan_out;
    for (std::size_t w = 0; w < fan_out; ++w)
      submit([s = &state, w] { s->claim_loop(w); });
    std::unique_lock<std::mutex> lock(state.done_mutex);
    state.done.wait(lock, [&] { return state.live == 0; });
  }
  if (state.first_error) std::rethrow_exception(state.first_error);
}

}  // namespace roleshare::util
