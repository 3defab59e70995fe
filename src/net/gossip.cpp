#include "net/gossip.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/require.hpp"

namespace roleshare::net {

namespace {

// Times past this many widths after the start share the last bucket. The
// output is exact either way; the cap bounds scratch memory for a delay
// model whose lower bound is tiny next to its typical hop.
constexpr std::size_t kMaxBuckets = 1024;

}  // namespace

RelaySet RelaySet::all_cooperative(std::size_t n) {
  RelaySet rs;
  rs.relays.assign(n, 1);
  rs.online.assign(n, 1);
  return rs;
}

GossipEngine::GossipEngine(const Topology& topology, const DelayModel& delays,
                           double delay_factor, double loss_probability)
    : topology_(topology),
      delays_(delays),
      delay_factor_(delay_factor),
      loss_probability_(loss_probability) {
  RS_REQUIRE(delay_factor >= 1.0, "delay factor >= 1");
  RS_REQUIRE(loss_probability >= 0.0 && loss_probability < 1.0,
             "loss probability in [0, 1)");
}

std::vector<TimeMs> GossipEngine::propagate(ledger::NodeId origin,
                                            TimeMs start,
                                            const RelaySet& relay_set,
                                            util::Rng& rng) const {
  std::vector<TimeMs> arrival;
  GossipScratch scratch;
  propagate_into(origin, start, relay_set, rng, arrival, scratch);
  return arrival;
}

void GossipEngine::propagate_into(ledger::NodeId origin, TimeMs start,
                                  const RelaySet& relay_set, util::Rng& rng,
                                  std::vector<TimeMs>& arrival,
                                  GossipScratch& scratch) const {
  const std::size_t n = topology_.node_count();
  RS_REQUIRE(origin < n, "origin out of range");
  RS_REQUIRE(relay_set.relays.size() == n && relay_set.online.size() == n,
             "relay set size mismatch");

  arrival.assign(n, kNever);
  if (!relay_set.online[origin]) return;

  // Dijkstra on a bucket queue. Bucket k holds the nodes whose arrival t
  // has floor((t - start) / width) == k. That map never decreases as t
  // grows, so every entry of a later bucket is later than every entry of
  // an earlier one, and settling the buckets in turn, each sorted by
  // (time, node), is the order a binary heap pops them in. No hop is
  // shorter than the width, so a relaxation lands in a later bucket; one
  // that stays in the current bucket (rounding, or width 0) goes into its
  // sorted unsettled tail, which is where the heap would pop it. A node
  // that does not relay never enters the queue: settling it draws nothing.
  // A later bucket holds each node at most once and reads its time when
  // gathered, so a node improved within that bucket keeps its one slot
  // and a node improved into an earlier bucket is dropped there.
  using Entry = std::pair<TimeMs, ledger::NodeId>;
  constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();
  const TimeMs width = delays_.lower_bound() * delay_factor_;
  const double inv_width =
      width >= std::numeric_limits<double>::min() ? 1.0 / width : 0.0;
  const auto bucket_of = [&](TimeMs t) {
    const double k = (t - start) * inv_width;
    return k < static_cast<double>(kMaxBuckets - 1)
               ? static_cast<std::size_t>(k)
               : kMaxBuckets - 1;
  };
  std::vector<GossipScratch::Slot>& pool = scratch.pool;
  std::vector<std::uint32_t>& heads = scratch.heads;
  std::vector<Entry>& current = scratch.current;
  pool.clear();
  std::uint32_t free_slot = kNil;  // slots of gathered buckets, linked
  if (heads.empty()) heads.push_back(kNil);
  arrival[origin] = start;
  current.assign(1, Entry{start, origin});
  std::size_t last = 0;  // highest bucket holding a slot

  for (std::size_t k = 0; k <= last; ++k) {
    for (std::uint32_t slot = heads[k]; slot != kNil;) {
      GossipScratch::Slot& s = pool[slot];
      const TimeMs t = arrival[s.node];
      if (bucket_of(t) == k) current.emplace_back(t, s.node);
      const std::uint32_t next = s.next;
      s.next = free_slot;
      free_slot = slot;
      slot = next;
    }
    heads[k] = kNil;
    std::sort(current.begin(), current.end());
    for (std::size_t i = 0; i < current.size(); ++i) {
      const auto [t, v] = current[i];
      if (t > arrival[v]) continue;  // beaten within this bucket
      for (const ledger::NodeId to : topology_.out_neighbors(v)) {
        if (!relay_set.online[to]) continue;
        if (loss_probability_ > 0.0 && rng.bernoulli(loss_probability_))
          continue;  // this hop's copy is dropped
        const TimeMs hop = delays_.sample(rng, v, to) * delay_factor_;
        const TimeMs cand = t + hop;
        const TimeMs before = arrival[to];
        if (cand >= before) continue;
        arrival[to] = cand;
        if (!relay_set.relays[to]) continue;
        const std::size_t b = bucket_of(cand);
        if (b <= k) {
          const Entry entry{cand, to};
          current.insert(
              std::upper_bound(
                  current.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  current.end(), entry),
              entry);
          continue;
        }
        if (before != kNever && bucket_of(before) == b) continue;  // queued
        if (b >= heads.size()) heads.resize(b + 1, kNil);
        const GossipScratch::Slot queued{to, heads[b]};
        if (free_slot != kNil) {
          heads[b] = free_slot;
          free_slot = pool[free_slot].next;
          pool[heads[b]] = queued;
        } else {
          heads[b] = static_cast<std::uint32_t>(pool.size());
          pool.push_back(queued);
        }
        last = std::max(last, b);
      }
    }
    current.clear();
  }
}

double GossipEngine::reach_fraction(const std::vector<TimeMs>& arrivals,
                                    const RelaySet& relay_set,
                                    TimeMs deadline) {
  RS_REQUIRE(arrivals.size() == relay_set.online.size(),
             "arrival/online size mismatch");
  std::size_t online = 0;
  std::size_t reached = 0;
  for (std::size_t v = 0; v < arrivals.size(); ++v) {
    if (!relay_set.online[v]) continue;
    ++online;
    if (arrivals[v] <= deadline) ++reached;
  }
  if (online == 0) return 0.0;
  return static_cast<double>(reached) / static_cast<double>(online);
}

}  // namespace roleshare::net
