// Gossip overlay topology.
//
// The paper's simulator sends each message to 5 randomly selected peers
// (§III-C). We model this as a static random k-out digraph sampled once per
// run: node v relays to out_neighbors(v). Connectivity of the underlying
// graph is what the synchrony of the round hinges on once defectors stop
// relaying.
//
// Storage is flat (CSR): node v's targets are
// targets_[offsets_[v] .. offsets_[v+1]), so a gossip flood walks one
// contiguous array instead of chasing a heap pointer per node.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ledger/types.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace roleshare::net {

class Topology {
 public:
  /// Samples a random k-out digraph on `n` nodes (no self-loops, no
  /// duplicate edges). Requires k < n.
  static Topology random_k_out(std::size_t n, std::size_t k,
                               util::Rng& rng);

  /// Builds a topology from explicit adjacency (used by tests).
  static Topology from_adjacency(
      std::vector<std::vector<ledger::NodeId>> adjacency);

  std::size_t node_count() const { return offsets_.size() - 1; }
  std::size_t fan_out() const { return fan_out_; }

  std::span<const ledger::NodeId> out_neighbors(ledger::NodeId v) const {
    RS_REQUIRE(v < node_count(), "node id out of range");
    return {targets_.data() + offsets_[v], targets_.data() + offsets_[v + 1]};
  }

 private:
  Topology() = default;

  std::vector<std::size_t> offsets_{0};  // node_count() + 1 entries
  std::vector<ledger::NodeId> targets_;
  std::size_t fan_out_ = 0;
};

}  // namespace roleshare::net
