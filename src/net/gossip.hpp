// Gossip propagation engine.
//
// Computes, for a message originated at one node, the earliest arrival time
// at every node, given that only `relaying` nodes forward messages
// (defectors and faulty nodes receive but do not relay — the behavioural
// root of the Fig-3 collapse). Arrival times are shortest paths through the
// relay subgraph with independently sampled hop delays: Dijkstra on an
// exact bucket queue (Dial's algorithm) whose bucket width is the delay
// model's lower bound, so nodes settle in the (time, node) order a binary
// heap would give and every delay sample is drawn in the same order
// (DESIGN.md §4, "Exact bucket-queue flood").
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ledger/types.hpp"
#include "net/delay_model.hpp"
#include "net/sim_time.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace roleshare::net {

/// Node flags consumed by the gossip engine for one round. Byte masks, not
/// vector<bool>: the hot path indexes them per hop, and byte loads avoid
/// the bit-extraction dance (and allow writing flags from parallel chunks).
struct RelaySet {
  /// relays[v] != 0 — v forwards messages it receives (cooperative
  /// behaviour).
  std::vector<std::uint8_t> relays;
  /// online[v] != 0 — v receives messages at all (0 for faulty nodes).
  std::vector<std::uint8_t> online;

  static RelaySet all_cooperative(std::size_t n);
};

/// Reusable working memory for one propagate_into call. Owned by the
/// caller (one per flood slot) so steady-state propagation performs no
/// heap allocation once the buffers have reached their high-water marks.
/// Only capacity carries over between calls.
struct GossipScratch {
  /// A node queued in a bucket the flood has not reached yet, linked to
  /// the next slot of the same bucket. The node's time is read from the
  /// arrival row when the bucket is gathered.
  struct Slot {
    ledger::NodeId node;
    std::uint32_t next;
  };
  /// Queued nodes; a slot is reused once its bucket has been gathered, so
  /// the pool stays as small as the live frontier.
  std::vector<Slot> pool;
  /// heads[k]: first pool slot of bucket k (UINT32_MAX when empty).
  std::vector<std::uint32_t> heads;
  /// The bucket being settled, sorted by (time, node).
  std::vector<std::pair<TimeMs, ledger::NodeId>> current;
};

class GossipEngine {
 public:
  /// `delay_factor` scales every sampled hop delay (synchrony
  /// degradation); `loss_probability` drops each hop's copy of a message
  /// independently (lossy links / congestion). Gossip redundancy masks
  /// moderate loss; combined with defection it compounds.
  GossipEngine(const Topology& topology, const DelayModel& delays,
               double delay_factor = 1.0, double loss_probability = 0.0);

  /// Earliest arrival time (origin transmits at `start`) at every node, or
  /// kNever if unreachable. The origin itself receives at `start`.
  /// Offline nodes never receive; non-relaying nodes receive but do not
  /// forward.
  std::vector<TimeMs> propagate(ledger::NodeId origin, TimeMs start,
                                const RelaySet& relay_set,
                                util::Rng& rng) const;

  /// Allocation-free form: writes arrival times into `arrival` (resized to
  /// node_count) and runs the flood on `scratch`'s reused buckets.
  /// Bit-identical to propagate() — same visit order, same samples drawn
  /// from `rng`.
  void propagate_into(ledger::NodeId origin, TimeMs start,
                      const RelaySet& relay_set, util::Rng& rng,
                      std::vector<TimeMs>& arrival,
                      GossipScratch& scratch) const;

  /// Fraction of online nodes whose arrival time is <= deadline.
  static double reach_fraction(const std::vector<TimeMs>& arrivals,
                               const RelaySet& relay_set, TimeMs deadline);

 private:
  const Topology& topology_;
  const DelayModel& delays_;
  double delay_factor_;
  double loss_probability_;
};

}  // namespace roleshare::net
