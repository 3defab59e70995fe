// Domain generators for the property suites (tests/prop/): randomized
// but *valid* draws of the system's own configuration types, built on
// util::proptest combinators so every draw shrinks toward a minimal
// counterexample (smaller populations, fewer shard cuts, rates closer to
// zero).
//
// Everything here is deterministic in the Rng handed to Gen::generate —
// the proptest seeding contract (DESIGN.md §8) therefore covers these
// generators too: a printed case seed replays the exact draw.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "consensus/params.hpp"
#include "econ/role_snapshot.hpp"
#include "sim/network.hpp"
#include "sim/scenario_policy.hpp"
#include "util/json.hpp"
#include "util/proptest.hpp"

namespace roleshare::testgen {

using util::proptest::Gen;

// ---- byte strings ----------------------------------------------------

/// Arbitrary byte string (control bytes, quotes, backslashes, NUL and
/// high bytes included) up to `max_len` — the JSON/string stressor.
Gen<std::string> byte_string(std::size_t max_len);

// ---- configuration draws --------------------------------------------

/// Valid ConsensusParams (validate() holds by construction).
Gen<consensus::ConsensusParams> consensus_params();

/// Stake vector with occasional zero-stake nodes.
Gen<std::vector<std::int64_t>> stake_vector(std::size_t min_n,
                                            std::size_t max_n);

/// Role snapshot over a random population: ~5% leaders, ~15% committee,
/// rest Others; stakes in [0, 100].
Gen<econ::RoleSnapshot> role_snapshot(std::size_t min_n, std::size_t max_n);

/// Small-but-diverse NetworkConfig: population, stake range, defection /
/// faulty rates, gossip fan-out, delays and synchrony degradation all
/// randomized. Rates are bounded so every round keeps live stake.
Gen<sim::NetworkConfig> network_config(std::size_t min_nodes,
                                       std::size_t max_nodes);

Gen<sim::ChurnSchedule> churn_schedule();
/// Scenario-policy draw across all PolicyKinds, churn included.
Gen<sim::ScenarioPolicyConfig> scenario_policy();

// ---- shard tilings ---------------------------------------------------

/// Contiguous windows [(0,c1),(c1,c2),...,(ck,runs_total)] tiling
/// [0, runs_total) exactly, with 1..5 windows; shrinks toward fewer cuts
/// (i.e. toward the single-process window).
Gen<std::vector<std::pair<std::size_t, std::size_t>>> shard_tiling(
    std::size_t runs_total);

// ---- util::json value trees -----------------------------------------

/// Arbitrary JSON tree up to `max_depth` container levels: null / bool /
/// finite numbers (integers, subnormals, huge magnitudes, -0.0) /
/// byte-stressed strings / arrays / objects with unique keys.
Gen<util::json::Value> json_value(std::size_t max_depth);

}  // namespace roleshare::testgen
