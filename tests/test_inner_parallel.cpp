// Within-run parallelism determinism: every experiment aggregate must be
// bit-identical across inner_threads ∈ {1, 2, 0 (= all hardware)} — the
// contract that makes --inner-threads a pure latency knob (DESIGN.md §3/§4).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "consensus/committee.hpp"
#include "consensus/votes.hpp"
#include "sim/defection_experiment.hpp"
#include "sim/experiment_runner.hpp"
#include "sim/reward_experiment.hpp"
#include "sim/round_engine.hpp"
#include "sim/strategic_loop.hpp"
#include "util/thread_pool.hpp"

namespace roleshare {
namespace {

// The three inner settings every experiment is checked across.
constexpr std::size_t kInnerSettings[] = {1, 2, 0};

TEST(InnerExecutor, ChunksCoverEveryIndexExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 255u, 256u, 257u, 5000u, 100'000u}) {
    std::vector<int> hits(n, 0);
    util::ThreadPool pool(2);
    util::InnerExecutor exec(&pool);
    exec.for_each_chunk(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
  }
}

TEST(InnerExecutor, ChunkBoundariesDependOnlyOnN) {
  // The chunking is what makes chunk-ordered partial reductions
  // bit-identical across worker counts: boundaries are a pure function of
  // n, so a 1-, 2- and 8-worker executor all see the same chunks.
  for (const std::size_t n : {1u, 300u, 4096u, 500'000u}) {
    const std::size_t chunks = util::InnerExecutor::chunk_count(n);
    const std::size_t len = util::InnerExecutor::chunk_length(n);
    EXPECT_GE(chunks, 1u);
    EXPECT_GE(len * chunks, n);
    EXPECT_LT(len * (chunks - 1), n);
  }
  // Chunks are never tiny (dispatch amortization) …
  EXPECT_EQ(util::InnerExecutor::chunk_count(100), 1u);
  // … and large loops split into ~kTargetChunks pieces.
  EXPECT_EQ(util::InnerExecutor::chunk_count(640'000),
            util::InnerExecutor::kTargetChunks);
}

TEST(InnerExecutor, SerialAndPooledForEachIndexAgree) {
  constexpr std::size_t n = 1000;
  std::vector<std::size_t> serial(n), pooled(n);
  util::InnerExecutor{}.for_each_index(
      n, [&](std::size_t, std::size_t i) { serial[i] = i * i; });
  util::ThreadPool pool(3);
  util::InnerExecutor(&pool).for_each_index(
      n, [&](std::size_t, std::size_t i) { pooled[i] = i * i; });
  EXPECT_EQ(serial, pooled);
}

TEST(InnerExecutor, RethrowsLowestFailingIndexInline) {
  util::InnerExecutor exec;  // serial path
  std::atomic<int> attempts{0};
  try {
    exec.for_each_index(10, [&](std::size_t, std::size_t i) {
      ++attempts;
      if (i == 3 || i == 7) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
  EXPECT_EQ(attempts.load(), 10);  // every index still attempted
}

TEST(CommitteeElection, ExecutorDoesNotChangeTheCommittee) {
  sim::NetworkConfig config;
  config.node_count = 200;
  config.seed = 11;
  sim::Network net(config);
  const auto stakes = net.accounts().stakes();
  const std::int64_t total =
      std::accumulate(stakes.begin(), stakes.end(), std::int64_t{0});
  const crypto::Hash256 seed = net.chain().current_seed();

  const consensus::Committee serial = consensus::elect_committee(
      net.keys(), stakes, 1, consensus::kReductionStep1, seed, 1000, total);
  util::ThreadPool pool(2);
  const consensus::Committee parallel = consensus::elect_committee(
      net.keys(), stakes, 1, consensus::kReductionStep1, seed, 1000, total,
      util::InnerExecutor(&pool));

  ASSERT_EQ(serial.members.size(), parallel.members.size());
  for (std::size_t i = 0; i < serial.members.size(); ++i) {
    EXPECT_EQ(serial.members[i].node, parallel.members[i].node);
    EXPECT_EQ(serial.members[i].weight, parallel.members[i].weight);
  }
}

TEST(VoteVerification, BatchMatchesSingleVoteChecks) {
  sim::NetworkConfig config;
  config.node_count = 120;
  config.seed = 13;
  sim::Network net(config);
  const auto stakes = net.accounts().stakes();
  const std::int64_t total =
      std::accumulate(stakes.begin(), stakes.end(), std::int64_t{0});
  const crypto::Hash256 seed = net.chain().current_seed();
  const crypto::SortitionParams params{1000, total};

  const consensus::Committee committee = consensus::elect_committee(
      net.keys(), stakes, 1, consensus::kReductionStep1, seed, 1000, total);
  ASSERT_FALSE(committee.members.empty());
  std::vector<consensus::Vote> votes;
  for (const consensus::CommitteeMember& m : committee.members) {
    votes.push_back(consensus::make_vote(
        m.node, net.keys()[m.node].public_key(), 1,
        consensus::kReductionStep1, seed, m.sortition));
  }
  // Corrupt one vote's claimed weight so the batch sees both verdicts.
  votes.front().weight += 1;

  util::ThreadPool pool(2);
  const auto batch = consensus::verify_votes(votes, seed, stakes, params,
                                             util::InnerExecutor(&pool));
  ASSERT_EQ(batch.size(), votes.size());
  for (std::size_t i = 0; i < votes.size(); ++i) {
    const bool single = consensus::verify_vote(
        votes[i], seed, stakes[votes[i].voter], params);
    EXPECT_EQ(batch[i] != 0, single) << "vote " << i;
  }
  EXPECT_EQ(batch.front(), 0u);  // the corrupted vote fails
}

TEST(RoundEngine, InnerPoolBitIdenticalToSerial) {
  auto run_rounds = [](util::ThreadPool* pool) {
    sim::NetworkConfig config;
    config.node_count = 150;
    config.seed = 31;
    config.defection_rate = 0.15;
    sim::Network net(config);
    sim::RoundEngine engine(net,
                            consensus::ConsensusParams::scaled_for(
                                net.accounts().total_stake()),
                            pool);
    std::vector<sim::RoundResult> results;
    for (int r = 0; r < 3; ++r) results.push_back(engine.run_round());
    return results;
  };
  const auto serial = run_rounds(nullptr);
  util::ThreadPool pool(4);
  const auto parallel = run_rounds(&pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].final_fraction, parallel[r].final_fraction);
    EXPECT_EQ(serial[r].tentative_fraction, parallel[r].tentative_fraction);
    EXPECT_EQ(serial[r].none_fraction, parallel[r].none_fraction);
    EXPECT_EQ(serial[r].proposals, parallel[r].proposals);
    EXPECT_EQ(serial[r].outcomes, parallel[r].outcomes);
  }
}

TEST(ScenarioPolicies, BitIdenticalAcrossInnerThreads) {
  // Every behaviour policy (adaptive best-response, stake-correlated,
  // churn) must be a pure function of the seed: inner_threads ∈ {1, 2, hw}
  // may not change a single aggregate, live count or cooperation share.
  auto run_with = [](sim::PolicyKind kind, bool churn, std::size_t inner) {
    sim::DefectionExperimentConfig config;
    config.network.node_count = 70;
    config.network.seed = 37;
    config.runs = 2;
    config.rounds = 4;
    config.inner_threads = inner;
    config.policy.kind = kind;
    if (kind == sim::PolicyKind::StakeCorrelatedDefect) {
      config.policy.defect_at_bottom = 0.5;
    } else {
      config.network.defection_rate = 0.2;
    }
    if (churn) {
      config.policy.churn.leave_probability = 0.1;
      config.policy.churn.join_probability = 0.2;
      config.policy.churn.min_live = 20;
    }
    return sim::run_defection_experiment(config);
  };
  for (const sim::PolicyKind kind :
       {sim::PolicyKind::AdaptiveDefect,
        sim::PolicyKind::StakeCorrelatedDefect}) {
    for (const bool churn : {false, true}) {
      const sim::DefectionSeries baseline = run_with(kind, churn, 1);
      for (const std::size_t inner : kInnerSettings) {
        const sim::DefectionSeries series = run_with(kind, churn, inner);
        ASSERT_EQ(series.rounds.size(), baseline.rounds.size());
        for (std::size_t r = 0; r < series.rounds.size(); ++r) {
          EXPECT_EQ(series.rounds[r].final_pct, baseline.rounds[r].final_pct)
              << "kind=" << static_cast<int>(kind) << " churn=" << churn
              << " inner=" << inner << " round=" << r;
          EXPECT_EQ(series.rounds[r].tentative_pct,
                    baseline.rounds[r].tentative_pct);
          EXPECT_EQ(series.rounds[r].none_pct, baseline.rounds[r].none_pct);
        }
        EXPECT_EQ(series.live_series, baseline.live_series);
        EXPECT_EQ(series.cooperation_series, baseline.cooperation_series);
        EXPECT_EQ(series.min_live, baseline.min_live);
        EXPECT_EQ(series.max_live, baseline.max_live);
      }
    }
  }
}

TEST(DefectionExperiment, BitIdenticalAcrossInnerThreads) {
  auto run_with = [](std::size_t inner) {
    sim::DefectionExperimentConfig config;
    config.network.node_count = 80;
    config.network.seed = 17;
    config.network.defection_rate = 0.2;
    config.runs = 3;
    config.rounds = 3;
    config.inner_threads = inner;
    return sim::run_defection_experiment(config);
  };
  const sim::DefectionSeries baseline = run_with(1);
  for (const std::size_t inner : kInnerSettings) {
    const sim::DefectionSeries series = run_with(inner);
    ASSERT_EQ(series.rounds.size(), baseline.rounds.size());
    for (std::size_t r = 0; r < series.rounds.size(); ++r) {
      EXPECT_EQ(series.rounds[r].final_pct, baseline.rounds[r].final_pct)
          << "inner=" << inner << " round=" << r;
      EXPECT_EQ(series.rounds[r].tentative_pct,
                baseline.rounds[r].tentative_pct);
      EXPECT_EQ(series.rounds[r].none_pct, baseline.rounds[r].none_pct);
    }
    EXPECT_EQ(series.runs_with_progress, baseline.runs_with_progress);
  }
}

TEST(RewardExperiment, BitIdenticalAcrossInnerThreads) {
  auto run_with = [](std::size_t inner) {
    sim::RewardExperimentConfig config;
    config.node_count = 3'000;
    config.seed = 19;
    config.runs = 2;
    config.rounds_per_run = 2;
    config.inner_threads = inner;
    return sim::run_reward_experiment(config);
  };
  const sim::RewardExperimentResult baseline = run_with(1);
  for (const std::size_t inner : kInnerSettings) {
    const sim::RewardExperimentResult result = run_with(inner);
    EXPECT_EQ(result.bi_algos, baseline.bi_algos) << "inner=" << inner;
    EXPECT_EQ(result.mean_bi, baseline.mean_bi);
    EXPECT_EQ(result.mean_alpha, baseline.mean_alpha);
    EXPECT_EQ(result.mean_beta, baseline.mean_beta);
    EXPECT_EQ(result.mean_total_stake, baseline.mean_total_stake);
  }
}

TEST(StrategicEnsemble, BitIdenticalAcrossInnerThreads) {
  auto run_with = [](std::size_t inner) {
    sim::StrategicEnsembleConfig config;
    config.base.network.node_count = 60;
    config.base.network.seed = 23;
    config.base.rounds = 3;
    config.base.scheme = sim::SchemeChoice::RoleBasedAdaptive;
    config.runs = 2;
    config.inner_threads = inner;
    return sim::run_strategic_ensemble(config);
  };
  const sim::StrategicEnsembleResult baseline = run_with(1);
  for (const std::size_t inner : kInnerSettings) {
    const sim::StrategicEnsembleResult result = run_with(inner);
    EXPECT_EQ(result.cooperation_series, baseline.cooperation_series)
        << "inner=" << inner;
    EXPECT_EQ(result.final_series, baseline.final_series);
    EXPECT_EQ(result.reward_series, baseline.reward_series);
    EXPECT_EQ(result.mean_total_reward_algos,
              baseline.mean_total_reward_algos);
  }
}

TEST(ExperimentRunner, OuterParallelForcesInnerSerial) {
  sim::ExperimentSpec spec;
  spec.runs = 4;
  spec.threads = 4;
  spec.inner_threads = 8;
  const sim::ResolvedParallelism par = sim::resolve_parallelism(spec);
  EXPECT_EQ(par.outer, 4u);
  EXPECT_EQ(par.inner, 1u);  // no oversubscription
}

TEST(ExperimentRunner, SingleRunKeepsInnerParallelism) {
  sim::ExperimentSpec spec;
  spec.runs = 1;
  spec.threads = 4;
  spec.inner_threads = 8;
  const sim::ResolvedParallelism par = sim::resolve_parallelism(spec);
  EXPECT_EQ(par.inner, 8u);
}

TEST(ExperimentRunner, RunContextHandsBodiesTheSharedPool) {
  sim::ExperimentSpec spec;
  spec.runs = 3;
  spec.threads = 1;
  spec.inner_threads = 2;
  std::vector<util::ThreadPool*> seen;
  struct Unit {
    int dummy = 0;
  };
  sim::run_experiment(spec, [&](std::size_t, util::Rng&,
                                const sim::RunContext& ctx) {
    seen.push_back(ctx.inner_pool);
    return Unit{};
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_NE(seen[0], nullptr);
  // One pool, shared by every run.
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[1], seen[2]);
}

}  // namespace
}  // namespace roleshare
