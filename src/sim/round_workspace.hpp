// Reusable working memory for RoundEngine::run_round_into.
//
// Every buffer the engine needs while driving a round lives here, owned by
// the caller and recycled across rounds: vectors are clear()-and-refilled,
// never reconstructed, so once each buffer has reached its high-water mark
// a steady-state round performs no heap allocation for engine working
// state. (Residual allocations are inherent to producing *new* state: the
// transactions pulled from the pool for each proposal and the block
// appended to the growing chain.)
//
// Ownership contract: a workspace belongs to one engine invocation at a
// time — run_round_into may scribble over every field. Between calls the
// contents are meaningless; only the capacity is of value. A workspace can
// be shared across engines and configurations freely: every buffer is
// (re)sized from the current network before use, so reusing a "dirty"
// workspace from a different run is safe and bit-identical to starting
// from a fresh one.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "consensus/binary_ba.hpp"
#include "consensus/committee.hpp"
#include "consensus/proposal.hpp"
#include "consensus/roles.hpp"
#include "consensus/votes.hpp"
#include "crypto/hash.hpp"
#include "crypto/sortition.hpp"
#include "net/gossip.hpp"
#include "net/sim_time.hpp"
#include "sim/sampled_round.hpp"

namespace roleshare::sim {

/// Per-node outcome of one voting step: the quorum winner this node
/// counted (nullopt = timeout) and the common coin it observed.
struct StepOutcome {
  std::optional<crypto::Hash256> winner;
  bool coin = false;
};

/// Working memory of one voting step (reused by every step of every round).
struct StepWorkspace {
  consensus::Committee committee;
  std::vector<crypto::SortitionResult> draws;
  std::vector<consensus::Vote> votes;
  /// Chunked RNG derivation: per-vote origin labels and the child seeds
  /// derived from the step's gossip stream in one derive_seeds call.
  std::vector<std::uint64_t> origin_labels;
  std::vector<std::uint64_t> origin_seeds;
  /// Arrival rows indexed by vote. Grown but never shrunk, so inner
  /// capacity survives across steps.
  std::vector<std::vector<net::TimeMs>> arrivals;
  std::vector<std::uint8_t> valid;
  /// Flat tally tables, computed once per step (not once per node):
  /// counted[j] indexes the j-th valid vote; weight/value_id/coin_hash are
  /// parallel to counted. values holds the distinct voted values.
  std::vector<std::uint32_t> counted;
  std::vector<const net::TimeMs*> counted_rows;  // arrival row per counted vote
  std::vector<std::uint64_t> counted_weight;
  std::vector<std::uint32_t> counted_value_id;
  std::vector<crypto::Hash256> counted_coin_hash;
  std::vector<crypto::Hash256> values;
  /// Per-chunk weight accumulators: chunk c uses the slice
  /// [c * values.size(), (c+1) * values.size()).
  std::vector<std::uint64_t> tally_weights;
};

/// All working memory of one round. See the file comment for the
/// ownership and reuse contract.
struct RoundWorkspace {
  std::vector<std::int64_t> stakes;
  net::RelaySet relay;
  std::vector<consensus::Role> observed_roles;
  std::vector<consensus::Role> true_roles;

  // Proposal phase.
  std::vector<crypto::SortitionResult> proposer_draws;
  std::vector<consensus::BlockProposal> proposals;
  /// Block hashes computed once per proposal (Block::hash() walks the
  /// whole transaction list — per (node, proposal) it dominated the round).
  std::vector<crypto::Hash256> proposal_hashes;
  std::vector<std::uint64_t> proposer_labels;
  std::vector<std::uint64_t> proposer_seeds;
  std::vector<std::vector<net::TimeMs>> proposal_arrivals;
  std::vector<int> best_idx;

  /// Flood scratch indexed by executor slot, one per inner worker. Only
  /// the arrival rows outlive a flood, so the proposal phase and every
  /// voting step (which run in turn) share these.
  std::vector<net::GossipScratch> flood_scratch;

  // Voting steps.
  StepWorkspace step;
  std::vector<StepOutcome> step1;
  std::vector<StepOutcome> step2;
  std::vector<StepOutcome> ba_out;
  std::vector<StepOutcome> finals;

  // BinaryBA* state.
  std::vector<consensus::BinaryBaState> ba;
  std::vector<int> post_votes;

  // Conclusion and snapshots.
  std::vector<std::pair<crypto::Hash256, std::size_t>> conclusion_counts;
  std::vector<std::int64_t> reward_stakes;
  std::vector<std::int64_t> reward_stakes_true;

  // Sampled-model state (CommitteeModel::Sampled): the dense evaluation
  // rebuilds `sampled_context` from the ledger every round and runs the
  // sparse core on these buffers before expanding the full RoundResult.
  SparseRoundContext sampled_context;
  SparseRoundWorkspace sampled_scratch;
  SparseRoundResult sampled_result;

  /// Total bytes currently reserved across the workspace's buffers — the
  /// round engine's steady-state working set, reported by bench/round_latency.
  std::size_t capacity_bytes() const;
};

}  // namespace roleshare::sim
