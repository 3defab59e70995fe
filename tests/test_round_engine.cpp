#include "sim/round_engine.hpp"

#include <gtest/gtest.h>

namespace roleshare::sim {
namespace {

NetworkConfig config_with(double defection_rate, std::size_t nodes = 120,
                          std::uint64_t seed = 21) {
  NetworkConfig config;
  config.node_count = nodes;
  config.seed = seed;
  config.defection_rate = defection_rate;
  return config;
}

consensus::ConsensusParams params_for(const Network& net) {
  return consensus::ConsensusParams::scaled_for(net.accounts().total_stake());
}

TEST(RoundEngine, FullCooperationReachesFinalConsensus) {
  Network net(config_with(0.0));
  RoundEngine engine(net, params_for(net));
  const RoundResult result = engine.run_round();
  EXPECT_EQ(result.round, 1u);
  // Under strong synchrony with zero defection, the overwhelming majority
  // extracts a final block.
  EXPECT_GT(result.final_fraction, 0.9);
  EXPECT_LT(result.none_fraction, 0.05);
  EXPECT_GT(result.proposals, 0u);
  EXPECT_TRUE(result.non_empty_block);
}

TEST(RoundEngine, ChainAdvancesEachRound) {
  Network net(config_with(0.0));
  RoundEngine engine(net, params_for(net));
  for (int r = 1; r <= 5; ++r) {
    const RoundResult result = engine.run_round();
    EXPECT_EQ(result.round, static_cast<ledger::Round>(r));
    EXPECT_EQ(net.chain().height(), static_cast<std::size_t>(r) + 1);
  }
}

TEST(RoundEngine, OutcomesVectorSized) {
  Network net(config_with(0.0, 80));
  RoundEngine engine(net, params_for(net));
  const RoundResult result = engine.run_round();
  EXPECT_EQ(result.outcomes.size(), 80u);
  EXPECT_NEAR(result.final_fraction + result.tentative_fraction +
                  result.none_fraction,
              1.0, 1e-9);
}

TEST(RoundEngine, HeavyDefectionDegradesConsensus) {
  Network low(config_with(0.0, 120, 33));
  RoundEngine engine_low(low, params_for(low));
  Network high(config_with(0.45, 120, 33));
  RoundEngine engine_high(high, params_for(high));

  double final_low = 0, final_high = 0;
  for (int r = 0; r < 4; ++r) {
    final_low += engine_low.run_round().final_fraction;
    final_high += engine_high.run_round().final_fraction;
  }
  EXPECT_LT(final_high, final_low);
}

TEST(RoundEngine, OfflineNodesAlwaysNoBlock) {
  NetworkConfig config = config_with(0.0);
  config.faulty_rate = 0.1;
  Network net(config);
  RoundEngine engine(net, params_for(net));
  const RoundResult result = engine.run_round();
  for (std::size_t v = 0; v < net.node_count(); ++v) {
    if (net.behavior(static_cast<ledger::NodeId>(v)) ==
        BehaviorType::Faulty) {
      EXPECT_EQ(result.outcomes[v], NodeOutcome::NoBlock);
    }
  }
}

TEST(RoundEngine, RoleSnapshotMarksObservedRoles) {
  Network net(config_with(0.0));
  RoundEngine engine(net, params_for(net));
  const RoundResult result = engine.run_round();
  ASSERT_TRUE(result.roles.has_value());
  const econ::RoleSnapshot& roles = *result.roles;
  EXPECT_EQ(roles.node_count(), net.node_count());
  // With everyone cooperating, some leaders and committee were observed.
  EXPECT_GT(roles.count(consensus::Role::Leader), 0u);
  EXPECT_GT(roles.count(consensus::Role::Committee), 0u);
  EXPECT_GT(roles.count(consensus::Role::Other), 0u);
}

TEST(RoundEngine, DefectorsHideTheirRoles) {
  // With full defection nothing is observed: every node appears as Other.
  Network net(config_with(1.0));
  RoundEngine engine(net, params_for(net));
  const RoundResult result = engine.run_round();
  ASSERT_TRUE(result.roles.has_value());
  EXPECT_EQ(result.roles->count(consensus::Role::Leader), 0u);
  EXPECT_EQ(result.roles->count(consensus::Role::Committee), 0u);
  EXPECT_EQ(result.final_fraction, 0.0);
  EXPECT_EQ(result.proposals, 0u);
  EXPECT_FALSE(result.non_empty_block);
  // Chain still advances (empty block) so seeds keep evolving.
  EXPECT_EQ(net.chain().height(), 2u);
}

TEST(RoundEngine, SafetyNoTwoNodesFinalizeDifferentBlocks) {
  // Across several rounds and defection levels, all nodes that concluded a
  // block concluded the same one — checked indirectly: at most one
  // non-empty block is appended per round, and final fractions plus
  // the appended block are consistent. Direct pairwise check:
  for (const double rate : {0.0, 0.2}) {
    Network net(config_with(rate, 100, 55));
    RoundEngine engine(net, params_for(net));
    for (int r = 0; r < 3; ++r) {
      const RoundResult result = engine.run_round();
      // If any node reached Final, the canonical chain must have advanced
      // with a block every Final node agrees on. Since outcomes only record
      // categories, we assert consistency: Final nodes exist only when a
      // block was appended.
      bool any_final = false;
      for (const NodeOutcome o : result.outcomes)
        any_final = any_final || o == NodeOutcome::Final;
      if (any_final) {
        EXPECT_TRUE(net.chain().height() == static_cast<std::size_t>(r) + 2);
      }
    }
  }
}

TEST(RoundEngine, DeterministicGivenSeed) {
  Network a(config_with(0.15, 100, 77));
  Network b(config_with(0.15, 100, 77));
  RoundEngine ea(a, params_for(a));
  RoundEngine eb(b, params_for(b));
  for (int r = 0; r < 3; ++r) {
    const RoundResult ra = ea.run_round();
    const RoundResult rb = eb.run_round();
    EXPECT_EQ(ra.final_fraction, rb.final_fraction);
    EXPECT_EQ(ra.tentative_fraction, rb.tentative_fraction);
    EXPECT_EQ(ra.proposals, rb.proposals);
  }
  EXPECT_EQ(a.chain().tip().hash(), b.chain().tip().hash());
}

/// Full-equality check between a fresh-run result and one produced via a
/// reused workspace: every field, including the role snapshots.
void expect_results_equal(const RoundResult& a, const RoundResult& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.live_count, b.live_count);
  EXPECT_EQ(a.final_fraction, b.final_fraction);
  EXPECT_EQ(a.tentative_fraction, b.tentative_fraction);
  EXPECT_EQ(a.none_fraction, b.none_fraction);
  EXPECT_EQ(a.non_empty_block, b.non_empty_block);
  EXPECT_EQ(a.proposals, b.proposals);
  EXPECT_EQ(a.synchrony, b.synchrony);
  ASSERT_EQ(a.roles.has_value(), b.roles.has_value());
  ASSERT_EQ(a.roles_true.has_value(), b.roles_true.has_value());
  if (a.roles) {
    EXPECT_EQ(a.roles->roles(), b.roles->roles());
    EXPECT_EQ(a.roles->stakes(), b.roles->stakes());
  }
  if (a.roles_true) {
    EXPECT_EQ(a.roles_true->roles(), b.roles_true->roles());
    EXPECT_EQ(a.roles_true->stakes(), b.roles_true->stakes());
  }
}

TEST(RoundEngine, ReusedWorkspaceMatchesFreshRuns) {
  // Reference: each config simulated with the allocating entry point.
  const NetworkConfig config_a = config_with(0.1, 90, 55);
  NetworkConfig config_b = config_with(0.3, 60, 56);
  config_b.faulty_rate = 0.1;
  std::vector<RoundResult> fresh_a, fresh_b;
  {
    Network net(config_a);
    RoundEngine engine(net, params_for(net));
    for (int r = 0; r < 3; ++r) fresh_a.push_back(engine.run_round());
  }
  {
    Network net(config_b);
    RoundEngine engine(net, params_for(net));
    for (int r = 0; r < 3; ++r) fresh_b.push_back(engine.run_round());
  }

  // One workspace and one result object threaded dirty through BOTH
  // configs, interleaved: contents left over from a differently-sized
  // simulation must not leak into the next round's output.
  RoundWorkspace ws;
  RoundResult result;
  Network net_a(config_a);
  Network net_b(config_b);
  RoundEngine engine_a(net_a, params_for(net_a));
  RoundEngine engine_b(net_b, params_for(net_b));
  for (int r = 0; r < 3; ++r) {
    engine_a.run_round_into(result, ws);
    expect_results_equal(result, fresh_a[static_cast<std::size_t>(r)]);
    engine_b.run_round_into(result, ws);
    expect_results_equal(result, fresh_b[static_cast<std::size_t>(r)]);
  }
}

TEST(RoundEngine, DegradedSynchronyHurtsOutcomes) {
  NetworkConfig config = config_with(0.0, 100, 91);
  config.synchrony.degrade_probability = 1.0;  // always degraded
  config.synchrony.degraded_delay_factor = 200.0;
  config.synchrony.max_degraded_rounds = 1000;
  Network degraded(config);
  RoundEngine engine(degraded, params_for(degraded));
  const RoundResult result = engine.run_round();
  EXPECT_EQ(result.synchrony, net::SynchronyState::Degraded);
  // With delays blown up 200x, vote deadlines are missed network-wide.
  EXPECT_LT(result.final_fraction, 0.5);
}

}  // namespace
}  // namespace roleshare::sim
