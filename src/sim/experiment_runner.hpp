// The one runs×rounds engine behind every figure, bench and example.
//
// An experiment is `runs` independent simulations of `rounds` rounds each,
// reduced to an aggregate. The runner owns the three invariants every
// consumer used to re-implement by hand:
//
//  1. Seeding — run k's randomness is the stream root.split(k), where root
//     is Rng(root_seed). Streams are independent by construction; there is
//     no additive seed offsetting (which can collide across experiments
//     whose root seeds are close together).
//  2. Parallelism — runs execute across a fixed-size ThreadPool
//     (`threads` knob; 0 = all hardware threads, 1 = inline serial).
//     Within a run, the `inner_threads` knob fans the run body's per-node
//     loops out instead — but never both at once: when the outer fan-out
//     is parallel, inner parallelism is forced serial so outer runs ×
//     inner nodes share the machine without oversubscription.
//  3. Determinism — per-run results are stored at their run index and the
//     reduction is applied in run-index order on the calling thread, so a
//     parallel execution is bit-identical to a serial one. Inner loops
//     follow the InnerExecutor contract, so `inner_threads` does not
//     change results either.
//  4. Sharding — the spec's RunShard window restricts which global run
//     indices THIS process executes without changing their seeding, so a
//     sweep can be split across processes/machines and the per-shard
//     partials folded back (sim/aggregators merge + the merge_partials
//     tool) into the same aggregate a single process computes —
//     bit-identically under the exact accumulator backend.
//
// See DESIGN.md ("Experiment orchestration") for the contract new
// experiments must follow.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace roleshare::sim {

/// A contiguous window [begin, end) of the global run range — the unit of
/// sharded execution. The default (begin == end == 0) means the whole
/// range. Run k of a shard is still seeded from root.split(k) with k the
/// GLOBAL run index, so executing shards [0,4) and [4,8) in two processes
/// and folding their partials in range order replays exactly the runs a
/// single-process execution of 8 runs performs.
struct RunShard {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool whole() const { return begin == 0 && end == 0; }
};

struct ExperimentSpec {
  std::size_t runs = 1;
  /// Rounds per run. The runner itself does not loop over rounds — that is
  /// the run body's job — but the value travels with the spec so every
  /// consumer reads it from one place.
  std::size_t rounds = 1;
  std::uint64_t root_seed = 0;
  /// Worker threads for the run fan-out; 0 = all hardware threads.
  std::size_t threads = 1;
  /// Worker threads for each run's *inner* per-node loops (round engine
  /// node loops etc.); 0 = all hardware threads. Ignored (forced 1)
  /// whenever the outer fan-out is parallel — see resolve_parallelism.
  std::size_t inner_threads = 1;
  /// Which window of the `runs` global run indices THIS process executes;
  /// default = all of them. Global-index seeding keeps sharded execution
  /// reproducible (see RunShard).
  RunShard shard{};
};

/// The concrete [begin, end) window of the spec after defaulting and
/// validation; count() is the number of runs this process executes.
struct ResolvedShard {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t count() const { return end - begin; }
};

/// Throws std::invalid_argument unless the shard window is non-empty and
/// inside [0, spec.runs].
inline ResolvedShard resolve_shard(const ExperimentSpec& spec) {
  if (spec.shard.whole()) return {0, spec.runs};
  RS_REQUIRE(spec.shard.begin < spec.shard.end,
             "run shard window [" + std::to_string(spec.shard.begin) + ", " +
                 std::to_string(spec.shard.end) + ") is empty");
  RS_REQUIRE(spec.shard.end <= spec.runs,
             "run shard window ends at " + std::to_string(spec.shard.end) +
                 " but the experiment has only " +
                 std::to_string(spec.runs) + " runs");
  return {spec.shard.begin, spec.shard.end};
}

/// What the engine actually launches after applying the
/// no-oversubscription policy: exactly one of the two levels may be > 1.
struct ResolvedParallelism {
  std::size_t outer = 1;
  std::size_t inner = 1;
};

/// Resolves the two thread knobs (0 = hardware threads each) against the
/// nested-parallelism contract: the outer run fan-out owns the cores when
/// it is parallel, and only otherwise may the inner per-node fan-out
/// activate. This keeps worker count at max(outer, inner), never
/// outer × inner.
///
/// The outer level is clamped to the run count BEFORE the
/// oversubscription check: an experiment can never use more outer
/// workers than it has runs, so e.g. a single-run workload with
/// threads=0 (the round_latency shape) resolves to outer=1 and keeps its
/// inner parallelism — without the caller having to remember to pass
/// threads=1. The clamp is also what upholds the "exactly one level may
/// be > 1" contract for consumers that read `outer` directly.
inline ResolvedParallelism resolve_parallelism(const ExperimentSpec& spec) {
  // Clamp to the runs THIS process executes: a 2-run shard of a 10k-run
  // sweep behaves like a 2-run experiment for scheduling purposes.
  const std::size_t local_runs =
      spec.shard.whole() ? spec.runs : resolve_shard(spec).count();
  ResolvedParallelism r;
  r.outer = std::min(util::ThreadPool::resolve_thread_count(spec.threads),
                     std::max<std::size_t>(local_runs, 1));
  r.inner = util::ThreadPool::resolve_thread_count(spec.inner_threads);
  if (r.outer > 1) r.inner = 1;
  return r;
}

/// Hands a run body the shared inner pool (nullptr = run inner loops
/// serial). The pool outlives every run body invocation; successive runs
/// reuse it, so "outer runs × inner nodes" share one set of workers.
struct RunContext {
  util::ThreadPool* inner_pool = nullptr;
  std::size_t inner_threads = 1;  // resolved count backing inner_pool
};

/// Throws std::invalid_argument unless runs >= 1, rounds >= 1 and the
/// shard window (when set) is a non-empty sub-range of [0, runs).
inline void validate(const ExperimentSpec& spec) {
  RS_REQUIRE(spec.runs > 0, "experiment needs at least one run");
  RS_REQUIRE(spec.rounds > 0, "experiment needs at least one round");
  (void)resolve_shard(spec);
}

/// Run k's independent RNG stream: Rng(root_seed).split(k).
inline util::Rng rng_for_run(std::uint64_t root_seed, std::size_t run_index) {
  return util::Rng(root_seed).split(run_index);
}

/// Seed material of rng_for_run — for components that take a scalar seed
/// (NetworkConfig) and rebuild the stream themselves.
inline std::uint64_t seed_for_run(std::uint64_t root_seed,
                                  std::size_t run_index) {
  return util::Rng(root_seed).derive_seed(run_index);
}

namespace detail {

/// Invokes a run body with or without the RunContext, whichever signature
/// it accepts — legacy two-argument bodies keep working unchanged.
template <typename RunFn>
decltype(auto) invoke_run_fn(RunFn& run_fn, std::size_t run, util::Rng& rng,
                             const RunContext& ctx) {
  if constexpr (std::is_invocable_v<RunFn&, std::size_t, util::Rng&,
                                    const RunContext&>) {
    return run_fn(run, rng, ctx);
  } else {
    (void)ctx;
    return run_fn(run, rng);
  }
}

// Lazily selects the result type so only the signature the body actually
// has gets instantiated.
template <typename RunFn, typename = void>
struct run_result {
  using type = std::invoke_result_t<RunFn&, std::size_t, util::Rng&>;
};
template <typename RunFn>
struct run_result<RunFn,
                  std::enable_if_t<std::is_invocable_v<
                      RunFn&, std::size_t, util::Rng&, const RunContext&>>> {
  using type =
      std::invoke_result_t<RunFn&, std::size_t, util::Rng&, const RunContext&>;
};

template <typename RunFn>
using run_result_t = typename run_result<RunFn>::type;

}  // namespace detail

/// Executes run_fn(run_index, rng[, run_context]) for every run of the
/// spec's shard window (default: every run) and returns the per-run
/// results indexed by window offset — results[i] is global run
/// shard.begin + i, independent of execution order. run_fn always
/// receives the GLOBAL run index and its root.split(global) stream, so a
/// shard executes exactly the runs a whole-range execution would. Bodies
/// that take the optional `const RunContext&` receive the shared inner
/// pool for their within-run node loops; the no-oversubscription policy
/// of resolve_parallelism decides whether that pool exists. The result
/// type must be default-constructible and movable. Exceptions thrown by
/// run bodies are rethrown for the lowest failing run index.
template <typename RunFn>
auto run_experiment(const ExperimentSpec& spec, RunFn&& run_fn) {
  validate(spec);
  using Result = detail::run_result_t<RunFn>;
  static_assert(!std::is_void_v<Result>,
                "run_fn must return the run's result");
  static_assert(!std::is_same_v<Result, bool>,
                "bool results share packed bits in std::vector<bool>, which "
                "is a data race under the parallel fan-out — wrap the flag "
                "in a struct");
  // A body that cannot receive the RunContext gets no inner pool either —
  // its workers would only ever idle.
  constexpr bool kTakesContext =
      std::is_invocable_v<RunFn&, std::size_t, util::Rng&, const RunContext&>;
  const ResolvedShard shard = resolve_shard(spec);
  const ResolvedParallelism par = resolve_parallelism(spec);
  std::optional<util::ThreadPool> inner_pool;
  if (kTakesContext && par.inner > 1) inner_pool.emplace(par.inner);
  const RunContext ctx{inner_pool ? &*inner_pool : nullptr,
                       kTakesContext ? par.inner : 1};

  std::vector<Result> results(shard.count());
  const auto execute_one = [&](std::size_t offset) {
    const std::size_t run = shard.begin + offset;  // global run index
    util::Rng rng = rng_for_run(spec.root_seed, run);
    results[offset] = detail::invoke_run_fn(run_fn, run, rng, ctx);
  };
  if (par.outer <= 1 || shard.count() <= 1) {
    // Same failure semantics as the pool: every run is attempted, the
    // lowest failing run's exception surfaces.
    std::exception_ptr first_error;
    for (std::size_t offset = 0; offset < shard.count(); ++offset) {
      try {
        execute_one(offset);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  } else {
    util::ThreadPool pool(par.outer);
    pool.parallel_for_indexed(
        shard.count(),
        [&](std::size_t, std::size_t offset) { execute_one(offset); });
  }
  return results;
}

/// run_experiment + a reduction applied in run-index order on the calling
/// thread: reduce(global_run_index, result&&). This is the only
/// sanctioned way to fold per-run results into an aggregate — it makes
/// threads=N output bit-identical to threads=1, and per-shard partials
/// reduced this way then merged in shard order bit-identical to a
/// whole-range execution (exact accumulator backend).
template <typename RunFn, typename Reducer>
void run_and_reduce(const ExperimentSpec& spec, RunFn&& run_fn,
                    Reducer&& reduce) {
  const ResolvedShard shard = resolve_shard(spec);
  auto results = run_experiment(spec, std::forward<RunFn>(run_fn));
  for (std::size_t offset = 0; offset < results.size(); ++offset)
    reduce(shard.begin + offset, std::move(results[offset]));
}

/// Object form of the same engine, for call sites that pass the spec
/// around or run several bodies under one configuration.
template <typename RunResult>
class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentSpec spec) : spec_(spec) {
    validate(spec_);
  }

  const ExperimentSpec& spec() const { return spec_; }

  template <typename RunFn>
  std::vector<RunResult> run(RunFn&& run_fn) const {
    return run_experiment(spec_, std::forward<RunFn>(run_fn));
  }

  template <typename RunFn, typename Reducer>
  void run_and_reduce(RunFn&& run_fn, Reducer&& reduce) const {
    sim::run_and_reduce(spec_, std::forward<RunFn>(run_fn),
                        std::forward<Reducer>(reduce));
  }

 private:
  ExperimentSpec spec_;
};

}  // namespace roleshare::sim
