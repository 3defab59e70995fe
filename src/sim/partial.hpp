// The universal experiment-partial layer behind the sharded / checkpointed
// execution of every figure (DESIGN.md §6).
//
// PR 4 gave the Fig-3 defection experiment a mergeable, JSON-serializable
// reduction state (`DefectionPartial`). This header lifts that pattern
// into one template every experiment family shares:
//
//   ExperimentPartial<Payload> = PartialEnvelope + Payload
//
//   PartialEnvelope  the common header every partial carries: experiment
//                    kind, spec hash (a digest of everything in the config
//                    that affects results), accumulator backend, run
//                    counts, and the shard window [run_begin, run_end)
//                    plus the resume cursor (window_end — see below).
//                    All cross-partial compatibility checks live here,
//                    and every failure names both sides.
//   Payload          the experiment-specific mergeable reduction state
//                    (accumulators, scalar banks, counters). Three
//                    payloads exist: DefectionPayload (Fig 3 /
//                    scenario_sweep), RewardPayload (Fig 6/7) and
//                    StrategicPayload (the best-response ensemble).
//
// Checkpoint / resume semantics: a partial covering [run_begin, run_end)
// with run_end < window_end is an *unfinished checkpoint* — the writer
// intended to execute up to window_end but stopped (crash, preemption,
// --stop-after). Resuming means executing [run_end, window_end) in
// sub-windows and merging each in; because exact-backend merges of
// contiguous windows replay a serial execution bit for bit, a
// checkpointed-then-resumed shard is bit-identical to an uninterrupted
// one. merge_partials refuses unfinished checkpoints loudly.
//
// Serialization: envelope, ScalarBank and every payload build one
// deterministic util::json value tree (to_json/from_json below); the
// bytes on disk are its RSBP frame (partial_codec.hpp), which decodes
// to the same document bit for bit. Finished windows are additionally cacheable by
// content address in a sim::ResultStore keyed on the spec hash
// (result_store.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/aggregators.hpp"
#include "util/json.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace roleshare::sim {

struct NetworkConfig;

/// Canonical JSON echo of a NetworkConfig's result-affecting fields —
/// shared by the defection and strategic spec hashes.
util::json::Value network_spec_echo(const NetworkConfig& config);

/// FNV-1a 64-bit digest of a canonical spec-echo JSON value, as a fixed-
/// width hex string. Every experiment family hashes the full set of
/// config fields that affect its results (seeds, population, policies,
/// economics — never thread counts or shard windows), so two partials
/// merge only when they were produced by the same experiment.
std::string spec_hash_hex(const util::json::Value& spec_echo);

/// The envelope every experiment partial carries. Invariants (validated
/// on construction and deserialization):
///   run_begin < run_end <= window_end <= runs_total, rounds > 0.
struct PartialEnvelope {
  std::string kind;       // "defection" / "reward" / "strategic"
  std::string spec_hash;  // spec_hash_hex of the experiment's config echo
  AggBackend backend = AggBackend::Exact;
  std::size_t runs_total = 0;
  std::size_t rounds = 0;
  std::size_t run_begin = 0;
  /// First run NOT covered yet — the resume cursor. A complete partial
  /// has run_end == window_end.
  std::size_t run_end = 0;
  /// The window this partial intends to cover once complete.
  std::size_t window_end = 0;

  bool complete() const { return run_end == window_end; }
  std::size_t runs_executed() const { return run_end - run_begin; }

  void validate() const;
  /// Extends the intended window (checkpoint writers call this before
  /// serializing a partial that will be resumed later).
  void extend_window(std::size_t target_end);
  /// Throws std::invalid_argument naming both sides unless `next` is the
  /// same experiment (kind, spec hash, backend, shape) and starts exactly
  /// where this partial's coverage ends.
  void check_merge(const PartialEnvelope& next) const;
  /// Folds `next`'s window in after check_merge passed.
  void absorb(const PartialEnvelope& next);

  util::json::Value to_json() const;
  static PartialEnvelope from_json(const util::json::Value& value);
};

/// One shard's window as merge_partials sees it — used by
/// check_shard_tiling to validate a whole shard set before any merge.
struct ShardWindow {
  std::size_t run_begin = 0;
  std::size_t run_end = 0;
  std::size_t window_end = 0;
  std::string label;  // file path or shard name, for diagnostics
};

/// Validates that `windows` (any order) tile [0, runs_total) exactly:
/// no unfinished checkpoints, no overlaps, no gaps, full coverage.
/// Throws std::invalid_argument naming the offending shards. This is the
/// merge_partials pre-flight — merge() would also reject a broken set,
/// but only pairwise and only after work was done.
void check_shard_tiling(std::vector<ShardWindow> windows,
                        std::size_t runs_total);

// ---------------------------------------------------------------------
// ScalarBank — the run-scalar analogue of RoundAccumulator.
//
// Experiments also reduce per-run scalars (total stake, total reward,
// final cooperation) and flat sample streams (every feasible B_i). Under
// the exact backend the bank keeps the raw samples in record order, so a
// merge concatenates and `mean()` / `sum()` replay the exact arithmetic
// a single process performs — bit-identical shard merges. Under the
// streaming backend it keeps a mergeable Welford RunningStats instead:
// O(1) memory, means exact up to Chan-combine rounding.

class ScalarBank {
 public:
  explicit ScalarBank(AggBackend backend);

  AggBackend backend() const { return backend_; }
  std::size_t count() const;

  void record(double value);
  /// Appends `other` after this bank's own samples; throws
  /// std::invalid_argument naming both backends on a mismatch.
  void merge(const ScalarBank& other);

  /// Mean via a sequential Welford replay (exact) or the merged
  /// RunningStats (streaming). NaN when empty.
  double mean() const;
  /// Plain left-to-right sum (exact) or count*mean (streaming). 0 when
  /// empty — callers that divide must use their own run counts.
  double sum() const;

  /// The raw sample stream, record order. Exact backend only — throws
  /// std::logic_error under streaming (the samples were never kept).
  const std::vector<double>& samples() const;

  std::size_t memory_bytes() const;

  util::json::Value to_json() const;
  static ScalarBank from_json(const util::json::Value& value);

 private:
  AggBackend backend_;
  std::vector<double> samples_;   // exact only
  util::RunningStats stats_;      // streaming only
};

// ---------------------------------------------------------------------
// The shared partial template.
//
// A Payload must provide:
//   static constexpr std::string_view kKind;
//   void merge(const Payload& next);              // fold after own samples
//   util::json::Value to_json() const;
//   static Payload from_json(const util::json::Value&,
//                            const PartialEnvelope&);
//   std::size_t accumulator_bytes() const;
//   <Series> finalize(const PartialEnvelope&, ...) const;

template <typename Payload>
class ExperimentPartial {
 public:
  ExperimentPartial(PartialEnvelope envelope, Payload payload)
      : envelope_(std::move(envelope)), payload_(std::move(payload)) {
    RS_REQUIRE(envelope_.kind == Payload::kKind,
               "partial envelope is kind \"" + envelope_.kind +
                   "\" but this experiment expects \"" +
                   std::string(Payload::kKind) + "\"");
    envelope_.validate();
  }

  const PartialEnvelope& envelope() const { return envelope_; }
  Payload& payload() { return payload_; }
  const Payload& payload() const { return payload_; }

  std::size_t run_begin() const { return envelope_.run_begin; }
  std::size_t run_end() const { return envelope_.run_end; }
  std::size_t window_end() const { return envelope_.window_end; }
  std::size_t runs_total() const { return envelope_.runs_total; }
  std::size_t rounds() const { return envelope_.rounds; }
  AggBackend backend() const { return envelope_.backend; }
  bool complete() const { return envelope_.complete(); }

  /// Declares the window this partial is a checkpoint of (>= run_end);
  /// writers call it before serializing an unfinished checkpoint.
  void extend_window(std::size_t target_end) {
    envelope_.extend_window(target_end);
  }

  /// Folds `next` in; it must be the same experiment and start exactly
  /// where this partial's coverage ends (PartialEnvelope::check_merge).
  void merge(const ExperimentPartial& next) {
    envelope_.check_merge(next.envelope_);
    payload_.merge(next.payload_);
    envelope_.absorb(next.envelope_);
  }

  /// Reduces to the experiment's series / result type; extra arguments
  /// (e.g. the defection trim fraction) forward to the payload.
  template <typename... Args>
  auto finalize(Args&&... args) const {
    return payload_.finalize(envelope_, std::forward<Args>(args)...);
  }

  std::size_t accumulator_bytes() const {
    return payload_.accumulator_bytes();
  }

  util::json::Value to_json() const {
    util::json::Value v = util::json::Value::object();
    v.set("envelope", envelope_.to_json());
    v.set("payload", payload_.to_json());
    return v;
  }

  /// Inverts to_json; throws std::invalid_argument (naming both kinds) on
  /// a partial of a different experiment family — the cross-kind guard.
  static ExperimentPartial from_json(const util::json::Value& value) {
    PartialEnvelope envelope =
        PartialEnvelope::from_json(value.at("envelope"));
    RS_REQUIRE(envelope.kind == Payload::kKind,
               "partial is kind \"" + envelope.kind +
                   "\" but this experiment expects \"" +
                   std::string(Payload::kKind) +
                   "\" — refusing the cross-kind load");
    Payload payload = Payload::from_json(value.at("payload"), envelope);
    return ExperimentPartial(std::move(envelope), std::move(payload));
  }

 private:
  PartialEnvelope envelope_;
  Payload payload_;
};

/// Envelope for a freshly executed window [begin, end): complete by
/// construction (window_end == run_end).
inline PartialEnvelope make_envelope(std::string_view kind,
                                     std::string spec_hash,
                                     AggBackend backend,
                                     std::size_t runs_total,
                                     std::size_t rounds, std::size_t begin,
                                     std::size_t end) {
  PartialEnvelope envelope;
  envelope.kind = std::string(kind);
  envelope.spec_hash = std::move(spec_hash);
  envelope.backend = backend;
  envelope.runs_total = runs_total;
  envelope.rounds = rounds;
  envelope.run_begin = begin;
  envelope.run_end = end;
  envelope.window_end = end;
  envelope.validate();
  return envelope;
}

}  // namespace roleshare::sim
