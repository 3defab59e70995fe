#include "net/topology.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/require.hpp"

namespace roleshare::net {

Topology Topology::random_k_out(std::size_t n, std::size_t k,
                                util::Rng& rng) {
  RS_REQUIRE(n > 0, "topology needs nodes");
  RS_REQUIRE(k < n, "fan-out must be smaller than node count");
  Topology t;
  t.fan_out_ = k;
  t.offsets_.resize(n + 1);
  t.targets_.resize(n * k);
  // Per node: k distinct targets != v, sampled from n-1 logical slots
  // with indices >= v shifted by one. The draw sequence and picks are
  // exactly Rng::sample_without_replacement(n-1, k)'s partial
  // Fisher–Yates, but only the swapped slots are materialized
  // (epoch-stamped, shared across nodes), so the whole build is
  // O(n·k) instead of the O(n²) a full index vector per node costs —
  // the difference between seconds and hours at a million nodes.
  std::vector<std::uint64_t> slot_epoch(n, 0);
  std::vector<std::size_t> slot_value(n, 0);
  std::uint64_t epoch = 0;
  const auto value_at = [&](std::size_t p) {
    return slot_epoch[p] == epoch ? slot_value[p] : p;
  };
  for (std::size_t v = 0; v < n; ++v) {
    ++epoch;
    t.offsets_[v + 1] = (v + 1) * k;
    ledger::NodeId* const row = t.targets_.data() + v * k;
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(i),
                          static_cast<std::int64_t>(n) - 2));
      const std::size_t pick = value_at(j);
      // swap(idx[i], idx[j]): position i is never read again (future
      // swap targets are > i), so only idx[j] needs recording.
      const std::size_t displaced = value_at(i);
      slot_value[j] = displaced;
      slot_epoch[j] = epoch;
      const std::size_t target = (pick >= v) ? pick + 1 : pick;
      row[i] = static_cast<ledger::NodeId>(target);
    }
    std::sort(row, row + k);
  }
  return t;
}

Topology Topology::from_adjacency(
    std::vector<std::vector<ledger::NodeId>> adjacency) {
  Topology t;
  const std::size_t n = adjacency.size();
  t.offsets_.reserve(n + 1);
  for (const auto& row : adjacency) {
    t.fan_out_ = std::max(t.fan_out_, row.size());
    for (const ledger::NodeId to : row) {
      RS_REQUIRE(to < n, "adjacency target out of range");
      t.targets_.push_back(to);
    }
    t.offsets_.push_back(t.targets_.size());
  }
  return t;
}

}  // namespace roleshare::net
