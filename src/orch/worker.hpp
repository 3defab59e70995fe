// Worker agent of the shard orchestration service (DESIGN.md §11): dials
// the coordinator's socket, HELLOs with its config echo, then executes
// ASSIGNed run windows through a bench-supplied WindowRunner until it is
// told to SHUTDOWN. The runner wraps bench::run_sharded_panels, so a
// window execution inherits the whole checkpoint/resume/store machinery:
// checkpoints surface as PROGRESS messages, a finished window is spooled
// (and store-published) before DONE is sent, and a re-issued window that
// the store already holds is a cache hit, not a recompute. While a
// window runs, a heartbeat thread sends PROGRESS (cursor 0) several times
// per lease, so a window that outlasts the lease between checkpoints is
// not re-issued while it is still making progress.
//
// Deterministic fault injection lives HERE, as first-class tested code:
//   kill_after_runs  N  -> the process _exit(9)s the moment it has
//                          executed N runs, before sending the message
//                          it owes. Landing mid-window exercises
//                          checkpoint-resume on another worker; landing
//                          exactly at a window boundary exercises the
//                          retry-hits-the-store path (the partial was
//                          published before the kill).
//   drop_assignments N  -> silently swallow the first N ASSIGNs (never
//                          run them, never reply) — the coordinator's
//                          lease must expire and re-issue elsewhere.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace roleshare::orch {

struct WindowAssignment {
  std::uint32_t window_index = 0;
  std::uint32_t attempt = 0;
  std::size_t run_begin = 0;
  std::size_t run_end = 0;
  std::string spool_path;   // this attempt's private checkpoint/result
  std::string resume_path;  // empty = fresh start
};

struct WindowOutcome {
  std::size_t cursor = 0;        // first run NOT executed
  std::size_t executed = 0;      // runs executed by THIS attempt
  bool complete = false;         // cursor reached run_end
  bool store_hit = false;        // served from the result store
  std::size_t partial_bytes = 0; // spooled document size
};

/// The bench-specific half of a worker: `config_echo` is the shard
/// document header dump (must match the coordinator's, byte for byte);
/// `run` executes one window, honouring `stop_after` (max runs to
/// execute this attempt, 0 = unlimited — the kill-injection budget) and
/// calling `on_checkpoint(cursor)` after each durable checkpoint write.
struct WindowRunner {
  std::string config_echo;
  std::function<WindowOutcome(
      const WindowAssignment& assignment, std::size_t stop_after,
      const std::function<void(std::size_t)>& on_checkpoint)>
      run;
};

struct WorkerOptions {
  std::string socket_path;
  std::uint32_t worker_id = 0;
  /// Fault injection: _exit(9) once this many runs have been executed
  /// (across assignments), before the next protocol message. 0 = off.
  std::size_t kill_after_runs = 0;
  /// Fault injection: swallow this many ASSIGNs silently. 0 = off.
  std::size_t drop_assignments = 0;
  bool verbose = false;
};

/// Runs the agent loop until SHUTDOWN (returns 0), coordinator EOF
/// (returns 0 — the job is over without us), or a fatal local error
/// (returns nonzero). Runner exceptions become FAIL messages; the worker
/// survives them and waits for its next assignment.
int run_worker(const WorkerOptions& options, const WindowRunner& runner);

}  // namespace roleshare::orch
