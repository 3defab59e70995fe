#include "probes.hpp"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <unordered_set>
#include <vector>

#include "bench_drivers.hpp"
#include "consensus/committee.hpp"
#include "consensus/params.hpp"
#include "consensus/roles.hpp"
#include "consensus/votes.hpp"
#include "crypto/keypair.hpp"
#include "crypto/sortition.hpp"
#include "econ/foundation_schedule.hpp"
#include "econ/optimizer.hpp"
#include "econ/sparse_payout.hpp"
#include "net/gossip.hpp"
#include "net/topology.hpp"
#include "sim/longhorizon.hpp"
#include "sim/network.hpp"
#include "sim/partial_codec.hpp"
#include "sim/result_store.hpp"
#include "sim/reward_experiment.hpp"
#include "sim/round_engine.hpp"
#include "sim/sampled_round.hpp"
#include "trace.hpp"
#include "util/alias_sampler.hpp"
#include "util/rng.hpp"
#include "util/streaming_stats.hpp"
#include "workloads.hpp"

#ifdef RS_PERFBENCH_TRACE
#include "alloc_counter.hpp"
#endif

namespace perfbench {

using namespace roleshare;

namespace {

/// Heap allocations so far (traced binary only; 0 elsewhere).
std::uint64_t allocations() {
#ifdef RS_PERFBENCH_TRACE
  return bench::alloc_count();
#else
  return 0;
#endif
}

constexpr std::size_t kDenseRounds = 8;     // per Fig-3 panel
constexpr std::size_t kSparseRounds = 1000; // per long-horizon panel
constexpr std::size_t kRewardRounds = 10;   // per Fig-7 panel

/// One voting step against the network's current state, each layer call
/// in its own span: proposer sortition over every node, committee
/// election, vote verification, one gossip flood per vote.
void probe_step(const sim::Network& net,
                const consensus::ConsensusParams& params, util::Rng& rng) {
  const std::size_t n = net.node_count();
  std::vector<std::int64_t> stakes;
  net.accounts().stakes_into(stakes);
  std::int64_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!net.live(static_cast<ledger::NodeId>(v))) stakes[v] = 0;
    total += stakes[v];
  }
  const std::uint64_t round = net.chain().height();
  const crypto::Hash256 prev_seed = net.chain().current_seed();

  std::vector<crypto::SortitionResult> draws;
  {
    Span span("crypto.sortition_batch");
    crypto::sortition_batch_into(
        net.keys(),
        crypto::VrfInput{round, consensus::kProposerStep, prev_seed}, stakes,
        crypto::SortitionParams{params.expected_proposer_stake, total},
        draws);
    span.end();
    span.count("nodes", static_cast<double>(n));
  }

  consensus::Committee committee;
  {
    Span span("consensus.elect");
    consensus::elect_committee_into(
        net.keys(), stakes, round, consensus::kReductionStep1, prev_seed,
        params.expected_step_stake, total, committee, draws);
    span.end();
    span.count("members", static_cast<double>(committee.members.size()));
  }

  const auto& strategies = net.strategies();
  std::vector<consensus::Vote> votes;
  for (const consensus::CommitteeMember& m : committee.members) {
    if (strategies[m.node] != game::Strategy::Cooperate) continue;
    votes.push_back(consensus::make_vote(
        m.node, net.keys()[m.node].public_key(), round,
        consensus::kReductionStep1, prev_seed, m.sortition));
  }
  std::vector<std::uint8_t> valid;
  {
    Span span("consensus.verify_votes");
    consensus::verify_votes_into(
        votes, prev_seed, stakes,
        crypto::SortitionParams{params.expected_step_stake, total}, valid);
    span.end();
    span.count("votes", static_cast<double>(votes.size()));
  }

  net::RelaySet relay;
  relay.relays.assign(n, 0);
  relay.online.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const bool live = net.live(static_cast<ledger::NodeId>(v));
    relay.online[v] = live && strategies[v] != game::Strategy::Offline;
    relay.relays[v] = live && strategies[v] == game::Strategy::Cooperate;
  }
  const net::GossipEngine gossip(net.topology(), net.delays());
  const util::Rng step_stream = rng.split(round);
  std::vector<net::TimeMs> arrival;
  net::GossipScratch scratch;
  for (const consensus::Vote& vote : votes) {
    util::Rng flood_rng = step_stream.split(vote.voter);
    Span span("net.flood");
    gossip.propagate_into(vote.voter, 0.0, relay, flood_rng, arrival,
                          scratch);
    span.end();
    // Edges relaxed: every transmitting node (the origin, or a reached
    // relay) samples one hop per online out-neighbour.
    double edges = 0.0, reached = 0.0, timely = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      if (arrival[v] == net::kNever) continue;
      reached += 1.0;
      if (arrival[v] <= params.step_timeout_ms) timely += 1.0;
      if (v != vote.voter && !relay.relays[v]) continue;
      for (const ledger::NodeId to :
           net.topology().out_neighbors(static_cast<ledger::NodeId>(v)))
        edges += relay.online[to];
    }
    span.count("edges", edges);
    span.count("arrivals", reached);
    span.count("timely", timely);
  }
}

}  // namespace

void probe_dense(std::uint64_t seed) {
  Span top("probe.dense");
  const WorkloadDef& def = find_workload("fig3_dense");
  util::Rng rng = util::Rng(seed).split("probe.dense");
  for (std::size_t panel = 0; panel < std::size(bench::fig3::kRates);
       ++panel) {
    sim::NetworkConfig nc;
    nc.node_count = def.nodes;
    nc.seed = rng.derive_seed(panel);
    nc.defection_rate = bench::fig3::kRates[panel];
    sim::Network net(nc);
    const consensus::ConsensusParams params =
        consensus::ConsensusParams::scaled_for(net.accounts().total_stake());
    sim::RoundEngine engine(net, params);
    sim::RoundWorkspace ws;
    sim::RoundResult result;
    for (std::size_t r = 0; r < kDenseRounds; ++r) {
      const std::uint64_t allocs0 = allocations();
      Span span("sim.round");
      engine.run_round_into(result, ws);
      span.end();
      span.count("allocs", static_cast<double>(allocations() - allocs0));
      probe_step(net, params, rng);
    }
  }
}

void probe_sparse(std::uint64_t seed) {
  Span top("probe.sparse");
  const WorkloadDef& def = find_workload("longhorizon_sparse");
  const sim::LongHorizonConfig lh;
  util::Rng rng = util::Rng(seed).split("probe.sparse");
  for (std::size_t panel = 0;
       panel < std::size(bench::longhorizon::kDefectionRates); ++panel) {
    sim::NetworkConfig nc;
    nc.node_count = def.nodes;
    nc.seed = rng.derive_seed(panel);
    nc.fan_out = lh.fan_out;
    nc.stake_lo = lh.stake_lo;
    nc.stake_hi = lh.stake_hi;
    nc.defection_rate = bench::longhorizon::kDefectionRates[panel];
    nc.delay_lo_ms = lh.delay_lo_ms;
    nc.delay_hi_ms = lh.delay_hi_ms;
    {
      Span span("crypto.keygen");
      std::uint8_t sink = 0;
      for (std::size_t v = 0; v < def.nodes; ++v)
        sink ^= crypto::KeyPair::derive(nc.seed, v).public_key().value.bytes()[0];
      span.end();
      span.count("nodes", static_cast<double>(def.nodes));
      span.count("sink", sink);
    }
    {
      util::Rng topo_rng(nc.seed);
      Span span("net.topology");
      const net::Topology topology =
          net::Topology::random_k_out(def.nodes, nc.fan_out, topo_rng);
      span.end();
      span.count("nodes", static_cast<double>(topology.node_count()));
    }
    Span build("sim.network_build");
    sim::Network net(nc);
    build.end();
    build.count("nodes", static_cast<double>(def.nodes));

    consensus::ConsensusParams params =
        consensus::ConsensusParams::scaled_for(net.accounts().total_stake());
    params.committee_model = consensus::CommitteeModel::Sampled;
    sim::RoundEngine engine(net, params);
    sim::SparseRoundContext ctx;
    {
      Span span("sim.sparse_init");
      ctx.init_from(net);
    }
    util::StakeConcentration concentration;
    for (std::size_t v = 0; v < def.nodes; ++v)
      concentration.add(net.accounts().stake(static_cast<ledger::NodeId>(v)));

    const econ::RewardSplit split(lh.alpha, lh.beta);
    sim::SparseRoundWorkspace scratch;
    sim::SparseRoundResult sparse;
    std::vector<consensus::Role> roles;
    std::vector<std::int64_t> touched_stakes;
    std::vector<ledger::MicroAlgos> amounts;
    struct Change {
      ledger::NodeId node;
      std::int64_t before, after;
    };
    std::vector<Change> changes;
    for (std::size_t r = 0; r < kSparseRounds; ++r) {
      {
        Span span("sim.sparse_round");
        engine.run_round_sparse_into(sparse, ctx, scratch);
        span.end();
        span.count("touched", static_cast<double>(sparse.touched.size()));
      }
      roles.clear();
      touched_stakes.clear();
      for (const sim::SparseNodeRole& t : sparse.touched) {
        roles.push_back(t.role_observed);
        touched_stakes.push_back(t.reward_stake);
      }
      amounts.assign(sparse.touched.size(), 0);
      const ledger::MicroAlgos budget = econ::FoundationSchedule::
          reward_for_round(std::max<ledger::Round>(sparse.round, 1));
      {
        Span span("econ.distribute");
        econ::distribute_touched(split, budget, roles, touched_stakes,
                                 sparse.online_stake, amounts);
      }
      changes.clear();
      for (std::size_t i = 0; i < sparse.touched.size(); ++i) {
        if (amounts[i] == 0) continue;
        const ledger::NodeId v = sparse.touched[i].node;
        const std::int64_t before = net.accounts().stake(v);
        net.accounts().credit(v, amounts[i]);
        const std::int64_t after = net.accounts().stake(v);
        if (after != before) changes.push_back({v, before, after});
      }
      {
        Span span("util.concentration");
        for (const Change& c : changes)
          concentration.update(c.before, c.after);
        const double gini = concentration.gini();
        const double top = concentration.top_share(lh.top_fraction);
        span.end();
        span.count("updates", static_cast<double>(changes.size()));
        span.count("gini", gini);
        span.count("top_share", top);
      }
      {
        Span span("sim.refresh");
        for (const Change& c : changes) ctx.refresh_node(net, c.node);
      }
    }
  }
}

void probe_reward(std::uint64_t seed) {
  Span top("probe.reward");
  const WorkloadDef& def = find_workload("fig7_orch");
  const sim::RewardExperimentConfig rc;
  const econ::RewardOptimizer optimizer(rc.optimizer);
  util::Rng rng = util::Rng(seed).split("probe.reward");
  for (std::size_t panel = 0; panel < 6; ++panel) {
    const bench::fig7::PanelSpec spec = bench::fig7::panel_spec(panel);
    util::Rng panel_rng = rng.split(panel);
    const std::vector<std::int64_t> stakes =
        spec.stakes.make()->sample_many(panel_rng, def.nodes);
    const std::int64_t threshold = spec.min_stake.value_or(0);
    for (std::size_t r = 0; r < kRewardRounds; ++r) {
      const std::vector<double> weights(stakes.begin(), stakes.end());
      Span build("util.alias_build");
      const util::AliasSampler sampler(weights);
      build.end();
      build.count("weights", static_cast<double>(weights.size()));

      // Role draws and the Others scan of one Fig-7 round.
      std::unordered_set<std::size_t> members;
      std::int64_t min_leader = 0, min_committee = 0;
      for (std::uint64_t d = 0; d < rc.leader_stake; ++d) {
        const std::size_t v = sampler.sample(panel_rng);
        members.insert(v);
        if (min_leader == 0 || stakes[v] < min_leader) min_leader = stakes[v];
      }
      for (std::uint64_t d = 0; d < rc.committee_stake; ++d) {
        const std::size_t v = sampler.sample(panel_rng);
        members.insert(v);
        if (min_committee == 0 || stakes[v] < min_committee)
          min_committee = stakes[v];
      }
      std::int64_t others = 0, min_other = 0;
      for (std::size_t v = 0; v < stakes.size(); ++v) {
        if (members.contains(v) || stakes[v] < threshold) continue;
        others += stakes[v];
        if (min_other == 0 || stakes[v] < min_other) min_other = stakes[v];
      }
      econ::BoundInputs inputs;
      inputs.stake_leaders = static_cast<double>(rc.leader_stake);
      inputs.stake_committee = static_cast<double>(rc.committee_stake);
      inputs.stake_others = static_cast<double>(others);
      inputs.min_stake_leader =
          static_cast<double>(std::max<std::int64_t>(1, min_leader));
      inputs.min_stake_committee =
          static_cast<double>(std::max<std::int64_t>(1, min_committee));
      inputs.min_stake_other =
          static_cast<double>(std::max<std::int64_t>(1, min_other));

      Span span("econ.optimize");
      const econ::OptimizerResult result = optimizer.optimize(inputs, rc.costs);
      span.end();
      span.count("feasible", result.feasible ? 1.0 : 0.0);
    }
  }
}

void probe_codec_store(const std::string& spool_dir,
                       const std::string& store_dir) {
  namespace fs = std::filesystem;
  Span top("probe.codec_store");
  fs::remove_all(store_dir);
  sim::ResultStore store(store_dir);
  const sim::PartialCodec& codec = sim::partial_codec(sim::PartialFormat::Binary);
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(spool_dir))
    if (entry.path().extension() == ".partial") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  constexpr int kRepeats = 5;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const fs::path& file : files) {
      const std::string bytes = bench::read_text_file(file.string());
      Span decode("sim.codec_decode");
      const util::json::Value doc =
          sim::decode_partial_document(bytes, file.string());
      decode.end();
      decode.count("bytes", static_cast<double>(bytes.size()));

      Span encode("sim.codec_encode");
      const std::string encoded = codec.encode(doc);
      encode.end();
      encode.count("bytes", static_cast<double>(encoded.size()));

      const sim::ResultKey key = bench::store_key_of(
          doc, doc.at("run_begin").as_size(), doc.at("window_end").as_size());
      {
        Span put("sim.store_put");
        store.insert(key, encoded);
      }
      Span get("sim.store_get");
      const bool hit = store.lookup(key).has_value();
      get.end();
      get.count("hit", hit ? 1.0 : 0.0);
    }
  }
}

}  // namespace perfbench
