#include "orch/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "orch/spawn.hpp"
#include "orch/wire.hpp"

namespace roleshare::orch {

namespace {

/// Blocking read of the next message; nullopt on orderly coordinator
/// EOF, throws on a read error or a corrupt stream.
std::optional<Message> read_message(int fd, MessageBuffer& buffer) {
  while (true) {
    if (auto msg = buffer.next()) return msg;
    char chunk[65536];
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("orch worker: read(): ") +
                               std::strerror(errno));
    }
    if (got == 0) {
      if (buffer.pending_bytes() > 0)
        throw std::runtime_error(
            "orch worker: coordinator closed mid-message");
      return std::nullopt;
    }
    buffer.feed(std::string_view(chunk, static_cast<std::size_t>(got)));
  }
}

/// Heartbeats per lease: a window that runs between checkpoints longer
/// than the lease still renews it several times before it could expire.
constexpr std::uint32_t kHeartbeatsPerLease = 4;

/// Calls `beat` every `interval` on its own thread until destroyed.
/// A beat that throws (the coordinator is gone) ends the heartbeat; the
/// agent loop sees the closed socket on its next read or send.
class Heartbeat {
 public:
  Heartbeat(std::chrono::milliseconds interval, std::function<void()> beat) {
    if (interval.count() <= 0) return;
    thread_ = std::thread([this, interval, beat = std::move(beat)] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_.wait_for(lock, interval, [this] { return stopping_; })) {
        lock.unlock();
        try {
          beat();
        } catch (const std::exception&) {
          return;
        }
        lock.lock();
      }
    });
  }
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;
  ~Heartbeat() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    stop_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable stop_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace

int run_worker(const WorkerOptions& options, const WindowRunner& runner) {
  // A coordinator that died mid-job must surface as an EPIPE exception
  // (clean worker exit), not a SIGPIPE kill. send_message also passes
  // MSG_NOSIGNAL; this covers any other fd.
  ::signal(SIGPIPE, SIG_IGN);
  const int fd = connect_unix(options.socket_path);
  MessageBuffer buffer("coordinator");
  // The heartbeat thread and the agent loop share the socket; one
  // message at a time keeps their frames from interleaving.
  std::mutex send_mutex;
  const auto send = [&](const Message& message) {
    std::lock_guard<std::mutex> lock(send_mutex);
    send_message(fd, message);
  };
  send(hello(options.worker_id, runner.config_echo));

  std::size_t executed_total = 0;
  std::size_t drops_left = options.drop_assignments;
  while (true) {
    const auto msg = read_message(fd, buffer);
    if (!msg) {
      // Coordinator went away: the job is finished or aborted without
      // us; either way there is nothing useful left to do.
      ::close(fd);
      return 0;
    }
    switch (msg->type) {
      case MsgType::Shutdown:
        if (options.verbose)
          std::printf("[worker %u] shutdown: %s\n", options.worker_id,
                      msg->reason.c_str());
        ::close(fd);
        return 0;
      case MsgType::Assign:
        break;  // handled below
      default:
        throw std::runtime_error(
            std::string("orch worker: unexpected ") + to_string(msg->type) +
            " message — coordinators only send ASSIGN and SHUTDOWN");
    }

    if (drops_left > 0) {
      // Injected assignment drop: never run it, never answer. The
      // coordinator's lease must notice and re-issue the window.
      drops_left--;
      std::printf("[worker %u] dropping ASSIGN for window %u (fault "
                  "injection, %zu drops left)\n",
                  options.worker_id, msg->window_index, drops_left);
      continue;
    }

    WindowAssignment assignment;
    assignment.window_index = msg->window_index;
    assignment.attempt = msg->attempt;
    assignment.run_begin = static_cast<std::size_t>(msg->run_begin);
    assignment.run_end = static_cast<std::size_t>(msg->run_end);
    assignment.spool_path = msg->spool_path;
    assignment.resume_path = msg->resume_path;

    // The kill budget maps onto the runner's stop_after knob: the runner
    // checkpoints and stops once the budget is spent, so the _exit below
    // always leaves a resumable (or finished-and-published) spool.
    std::size_t stop_after = 0;
    if (options.kill_after_runs > 0) {
      if (executed_total >= options.kill_after_runs) {
        hard_exit(9);
      }
      stop_after = options.kill_after_runs - executed_total;
    }

    const auto on_checkpoint = [&](std::size_t cursor) {
      send(progress(assignment.window_index, assignment.attempt,
                    static_cast<std::uint64_t>(cursor)));
    };

    WindowOutcome outcome;
    try {
      // A window with few or no checkpoints must not lose its lease
      // while it is still running.
      const Heartbeat heartbeat(
          std::chrono::milliseconds(msg->lease_ms / kHeartbeatsPerLease),
          [&] {
            send(progress(assignment.window_index, assignment.attempt, 0));
          });
      outcome = runner.run(assignment, stop_after, on_checkpoint);
    } catch (const std::exception& e) {
      send(fail(assignment.window_index, assignment.attempt, e.what()));
      continue;
    }
    executed_total += outcome.executed;

    if (options.kill_after_runs > 0 &&
        executed_total >= options.kill_after_runs) {
      // Injected crash: die BEFORE the message we owe. A mid-window kill
      // leaves the checkpoint (PROGRESS already sent); a window-boundary
      // kill leaves the finished partial published to the store, so the
      // retry is a cache hit.
      std::printf("[worker %u] injected kill after %zu runs (window %u at "
                  "run %zu)\n",
                  options.worker_id, executed_total, assignment.window_index,
                  outcome.cursor);
      hard_exit(9);
    }

    if (!outcome.complete) {
      // Without a kill budget the runner must finish its window; a
      // short outcome means the bench wiring is wrong.
      send(fail(assignment.window_index, assignment.attempt,
                "runner stopped at run " + std::to_string(outcome.cursor) +
                    " without finishing the window"));
      continue;
    }
    send(done(assignment.window_index, assignment.attempt, outcome.store_hit,
              static_cast<std::uint64_t>(outcome.partial_bytes),
              assignment.spool_path));
  }
}

}  // namespace roleshare::orch
