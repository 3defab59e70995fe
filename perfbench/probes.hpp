// Layer probes of the traced run: direct calls into each module's public
// functions, sized like the workload the layer's metrics predict, every
// call wrapped in a span. The per-layer metrics are computed from these
// spans (perfbench/run.py); nothing here is timed in the untraced run.
//
//   probe_dense   fig3_dense scale (500 nodes, the six Fig-3 defection
//                 rates): dense rounds, then one proposer sortition, one
//                 committee election, vote verification and one gossip
//                 flood per vote against the post-round state.
//   probe_sparse  longhorizon_sparse scale (200k nodes, its three
//                 defection rates): key generation, topology and network
//                 builds, sparse-context init, then compounding sparse
//                 rounds with payout, concentration and refresh.
//   probe_reward  fig7_orch scale (100k nodes, the six Fig-7 panels):
//                 per-round alias-table builds and reward optimization.
//   probe_codec_store  the binary partials the orchestrated job spooled:
//                 decode, re-encode, store insert and lookup.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

void probe_dense(std::uint64_t seed);
void probe_sparse(std::uint64_t seed);
void probe_reward(std::uint64_t seed);
void probe_codec_store(const std::string& spool_dir,
                       const std::string& store_dir);

}  // namespace perfbench
