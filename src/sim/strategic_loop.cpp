#include "sim/strategic_loop.hpp"

#include <optional>

#include "econ/foundation_schedule.hpp"
#include "econ/optimizer.hpp"
#include "econ/role_based.hpp"
#include "econ/stake_proportional.hpp"
#include "game/best_response.hpp"
#include "sim/experiment_runner.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace roleshare::sim {

StrategicLoopResult run_strategic_loop(const StrategicLoopConfig& config) {
  const std::size_t threads =
      util::ThreadPool::resolve_thread_count(config.threads);
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  return run_strategic_loop(config, pool ? &*pool : nullptr);
}

StrategicLoopResult run_strategic_loop(const StrategicLoopConfig& config,
                                       util::ThreadPool* inner_pool) {
  RS_REQUIRE(config.rounds > 0, "at least one round");
  Network net(config.network);
  // The round engine's per-node loops and the best-response sweep below
  // share the one caller-owned pool — never two pools in one run.
  RoundEngine engine(net,
                     consensus::ConsensusParams::scaled_for(
                         net.accounts().total_stake()),
                     inner_pool);

  econ::StakeProportionalScheme foundation;
  econ::RoleBasedScheme role_based(config.costs);

  game::Profile profile(net.node_count(), config.initial);
  StrategicLoopResult result;
  // Churn state: per-(round, node) streams off the shared scenario-policy
  // root, so a strategic loop and a policy-driven defection run with the
  // same seed see the same join/leave pattern.
  const util::Rng policy_root = scenario_policy_root(config.network.seed);
  std::vector<std::uint8_t> was_live(net.node_count(), 1);
  RoundWorkspace ws;
  RoundResult round;

  for (std::size_t t = 0; t < config.rounds; ++t) {
    if (config.churn.enabled()) {
      apply_churn(net, config.churn, policy_root, t);
      for (std::size_t v = 0; v < profile.size(); ++v) {
        const auto id = static_cast<ledger::NodeId>(v);
        if (!net.live(id)) {
          profile[v] = game::Strategy::Offline;
        } else if (!was_live[v]) {
          profile[v] = config.initial;  // rejoined: restart from the seed
        }
        was_live[v] = net.live(id) ? 1 : 0;
      }
    }
    net.set_strategies(profile);
    engine.run_round_into(round, ws);

    StrategicRoundStats stats;
    stats.round = round.round;
    stats.final_fraction = round.final_fraction;
    stats.non_empty_block = round.non_empty_block;
    stats.live = round.live_count;
    std::size_t coop = 0;
    for (const game::Strategy s : profile)
      if (s == game::Strategy::Cooperate) ++coop;
    stats.cooperation_fraction =
        static_cast<double>(coop) / static_cast<double>(round.live_count);

    // Rewards for this round, and the induced one-round game. Nodes know
    // their *true* roles when reasoning about deviations.
    const econ::RoleSnapshot& snap = *round.roles_true;
    game::GameConfig game_config{snap,
                                 config.costs,
                                 game::SchemeKind::StakeProportional,
                                 0.0,
                                 econ::RewardSplit(0.02, 0.03),
                                 {},
                                 0.685};

    if (config.scheme == SchemeChoice::FoundationStakeProportional) {
      game_config.bi = static_cast<double>(
          foundation.required_budget(round.round, snap));
      stats.bi_algos = round.non_empty_block
                           ? ledger::to_algos(static_cast<ledger::MicroAlgos>(
                                 game_config.bi))
                           : 0.0;
    } else {
      game_config.scheme = game::SchemeKind::RoleBased;
      const ledger::MicroAlgos bi =
          role_based.required_budget(round.round, snap);
      game_config.bi = static_cast<double>(bi);
      game_config.split = role_based.last_split();
      // Liveness set Y: every online Other is needed to relay — the
      // conservative assumption the Theorem-3 bounds were derived under.
      game_config.sync_set.assign(snap.node_count(), false);
      for (std::size_t v = 0; v < snap.node_count(); ++v) {
        if (snap.role(static_cast<ledger::NodeId>(v)) ==
                consensus::Role::Other &&
            snap.stake(static_cast<ledger::NodeId>(v)) > 0)
          game_config.sync_set[v] = true;
      }
      stats.bi_algos =
          round.non_empty_block ? ledger::to_algos(bi) : 0.0;
    }
    result.total_reward_algos += stats.bi_algos;
    result.rounds.push_back(stats);

    // Myopic best responses for the next round (one sweep). Each node's
    // response reads only the frozen previous profile and writes its own
    // slot, so the population iteration fans out across the pool.
    const game::AlgorandGame game(game_config);
    game::Profile next = profile;
    // Per-index claiming, not chunks: each best response is a heavy game
    // evaluation, and populations are often smaller than a single chunk.
    engine.executor().for_each_index(profile.size(), [&](std::size_t v) {
      const auto id = static_cast<ledger::NodeId>(v);
      if (!net.live(id)) return;  // departed nodes stay Offline
      next[v] = game::best_response(game, profile, id);
    });
    profile = std::move(next);
  }

  std::size_t coop = 0;
  for (const game::Strategy s : profile)
    if (s == game::Strategy::Cooperate) ++coop;
  result.final_cooperation =
      static_cast<double>(coop) / static_cast<double>(net.live_count());
  return result;
}

StrategicPayload::StrategicPayload(std::size_t rounds, AggBackend backend,
                                   const StreamingAggConfig& streaming)
    : coop_(make_accumulator(backend, rounds, streaming)),
      final_(make_accumulator(backend, rounds, streaming)),
      reward_(make_accumulator(backend, rounds, streaming)),
      total_reward_(backend),
      final_coop_(backend) {}

StrategicPayload::StrategicPayload(std::unique_ptr<RoundAccumulator> coop,
                                   std::unique_ptr<RoundAccumulator> final_acc,
                                   std::unique_ptr<RoundAccumulator> reward,
                                   ScalarBank total_reward,
                                   ScalarBank final_coop)
    : coop_(std::move(coop)),
      final_(std::move(final_acc)),
      reward_(std::move(reward)),
      total_reward_(std::move(total_reward)),
      final_coop_(std::move(final_coop)) {}

void StrategicPayload::record_round(std::size_t round_index,
                                    double cooperation_fraction,
                                    double final_fraction,
                                    double reward_algos) {
  coop_->record(round_index, cooperation_fraction);
  final_->record(round_index, final_fraction);
  reward_->record(round_index, reward_algos);
}

void StrategicPayload::record_run(double total_reward_algos,
                                  double final_cooperation) {
  total_reward_.record(total_reward_algos);
  final_coop_.record(final_cooperation);
}

void StrategicPayload::merge(const StrategicPayload& next) {
  coop_->merge(*next.coop_);
  final_->merge(*next.final_);
  reward_->merge(*next.reward_);
  total_reward_.merge(next.total_reward_);
  final_coop_.merge(next.final_coop_);
}

StrategicEnsembleResult StrategicPayload::finalize(
    const PartialEnvelope& envelope) const {
  StrategicEnsembleResult out;
  out.cooperation_series = coop_->mean_series();
  out.final_series = final_->mean_series();
  out.reward_series = reward_->mean_series();
  // The historical reduction summed the per-run scalars left to right
  // and divided by the executed run count; ScalarBank::sum replays that
  // exactly under the exact backend.
  const auto executed = static_cast<double>(envelope.runs_executed());
  out.mean_total_reward_algos = total_reward_.sum() / executed;
  out.mean_final_cooperation = final_coop_.sum() / executed;
  out.accumulator_bytes = accumulator_bytes();
  return out;
}

std::size_t StrategicPayload::accumulator_bytes() const {
  return coop_->memory_bytes() + final_->memory_bytes() +
         reward_->memory_bytes() + total_reward_.memory_bytes() +
         final_coop_.memory_bytes();
}

util::json::Value StrategicPayload::to_json() const {
  util::json::Value v = util::json::Value::object();
  v.set("coop", coop_->to_json());
  v.set("final", final_->to_json());
  v.set("reward", reward_->to_json());
  v.set("total_reward", total_reward_.to_json());
  v.set("final_coop", final_coop_.to_json());
  return v;
}

StrategicPayload StrategicPayload::from_json(const util::json::Value& value,
                                             const PartialEnvelope& envelope) {
  StrategicPayload p(accumulator_from_json(value.at("coop")),
                     accumulator_from_json(value.at("final")),
                     accumulator_from_json(value.at("reward")),
                     ScalarBank::from_json(value.at("total_reward")),
                     ScalarBank::from_json(value.at("final_coop")));
  RS_REQUIRE(p.coop_->backend() == envelope.backend &&
                 p.final_->backend() == envelope.backend &&
                 p.reward_->backend() == envelope.backend,
             "partial JSON accumulator backends disagree with the envelope");
  RS_REQUIRE(p.coop_->rounds() == envelope.rounds &&
                 p.final_->rounds() == envelope.rounds &&
                 p.reward_->rounds() == envelope.rounds,
             "partial JSON accumulator round counts disagree with the "
             "envelope");
  RS_REQUIRE(p.total_reward_.backend() == envelope.backend &&
                 p.final_coop_.backend() == envelope.backend,
             "partial JSON scalar-bank backend disagrees with the envelope");
  return p;
}

util::json::Value strategic_spec_echo(const StrategicEnsembleConfig& config) {
  using util::json::Value;
  Value v = Value::object();
  v.set("experiment", std::string(StrategicPayload::kKind));
  v.set("network", network_spec_echo(config.base.network));
  v.set("rounds", config.base.rounds);
  v.set("scheme", config.base.scheme == SchemeChoice::FoundationStakeProportional
                      ? "foundation"
                      : "role-based");
  v.set("leader_cost", config.base.costs.leader_cost());
  v.set("committee_cost", config.base.costs.committee_cost());
  v.set("other_cost", config.base.costs.other_cost());
  v.set("defection_cost", config.base.costs.defection_cost());
  v.set("initial_strategy", static_cast<int>(config.base.initial));
  v.set("churn_leave", config.base.churn.leave_probability);
  v.set("churn_join", config.base.churn.join_probability);
  v.set("churn_min_live", config.base.churn.min_live);
  v.set("runs", config.runs);
  v.set("agg", to_string(config.agg));
  v.set("reservoir_capacity", config.streaming.reservoir_capacity);
  Value grid = Value::array();
  for (const double q : config.streaming.p2_grid) grid.push_back(q);
  v.set("p2_grid", std::move(grid));
  return v;
}

StrategicPartial run_strategic_partial(const StrategicEnsembleConfig& config) {
  RS_REQUIRE(config.base.rounds > 0, "at least one round");
  const ExperimentSpec spec{config.runs,    config.base.rounds,
                            config.base.network.seed, config.threads,
                            config.inner_threads, config.shard};
  validate(spec);
  const ResolvedShard shard = resolve_shard(spec);
  StrategicPartial partial(
      make_envelope(StrategicPayload::kKind,
                    spec_hash_hex(strategic_spec_echo(config)), config.agg,
                    config.runs, config.base.rounds, shard.begin, shard.end),
      StrategicPayload(config.base.rounds, config.agg, config.streaming));

  run_and_reduce(
      spec,
      [&config](std::size_t, util::Rng& rng, const RunContext& ctx) {
        StrategicLoopConfig run_config = config.base;
        run_config.network.seed = rng.seed_material();
        // The engine already applied the no-oversubscription policy:
        // ctx.inner_pool is the (possibly null) shared within-run pool.
        return run_strategic_loop(run_config, ctx.inner_pool);
      },
      [&](std::size_t, StrategicLoopResult run) {
        StrategicPayload& payload = partial.payload();
        for (std::size_t r = 0; r < run.rounds.size(); ++r) {
          payload.record_round(r, run.rounds[r].cooperation_fraction,
                               run.rounds[r].final_fraction,
                               run.rounds[r].bi_algos);
        }
        payload.record_run(run.total_reward_algos, run.final_cooperation);
      });
  return partial;
}

StrategicEnsembleResult run_strategic_ensemble(
    const StrategicEnsembleConfig& config) {
  return run_strategic_partial(config).finalize();
}

}  // namespace roleshare::sim
