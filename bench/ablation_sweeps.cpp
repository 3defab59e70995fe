// Ablations for the design choices DESIGN.md calls out:
//  A) committee size (expected step stake tau) vs resilience to defection
//     — the quorum-variance / committee-coverage trade-off behind
//     ConsensusParams::scaled_for;
//  B) gossip fan-out vs defection resilience — why the paper's fan-out of
//     5 suffices under cooperation but amplifies defection damage;
//  C) step threshold T vs liveness at fixed defection.
#include <cstdio>

#include "bench_util.hpp"
#include "sim/experiment_runner.hpp"
#include "sim/round_engine.hpp"

using namespace roleshare;

namespace {

std::size_t g_threads = 1;  // --threads knob, shared by every cell

struct Cell {
  double final_pct = 0;
  double none_pct = 0;
};

Cell run_cell(std::size_t nodes, std::size_t fan_out, double defection,
              std::uint64_t tau_step, double threshold, std::size_t rounds,
              std::uint64_t seed) {
  constexpr std::size_t kSeeds = 4;  // average out run-to-run variance
  const sim::ExperimentSpec spec{kSeeds, rounds, seed, g_threads};
  Cell cell;
  sim::run_and_reduce(
      spec,
      [&](std::size_t, util::Rng& rng) {
        sim::NetworkConfig config;
        config.node_count = nodes;
        config.seed = rng.seed_material();
        config.fan_out = fan_out;
        config.defection_rate = defection;
        sim::Network net(config);

        consensus::ConsensusParams params =
            consensus::ConsensusParams::scaled_for(
                net.accounts().total_stake());
        if (tau_step != 0) {
          params.expected_step_stake = tau_step;
          params.expected_final_stake = tau_step * 2;
        }
        if (threshold > 0) params.step_threshold = threshold;

        sim::RoundEngine engine(net, params);
        sim::RoundWorkspace ws;
        sim::RoundResult result;
        Cell partial;
        for (std::size_t r = 0; r < rounds; ++r) {
          engine.run_round_into(result, ws);
          partial.final_pct += result.final_fraction * 100;
          partial.none_pct += result.none_fraction * 100;
        }
        return partial;
      },
      [&](std::size_t, Cell partial) {
        cell.final_pct += partial.final_pct;
        cell.none_pct += partial.none_pct;
      });
  cell.final_pct /= static_cast<double>(rounds * kSeeds);
  cell.none_pct /= static_cast<double>(rounds * kSeeds);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto nodes = static_cast<std::size_t>(
      bench::arg_int(argc, argv, "nodes", 250));
  const auto rounds = static_cast<std::size_t>(
      bench::arg_int(argc, argv, "rounds", 8));
  g_threads = bench::arg_threads(argc, argv);

  bench::print_header("Ablations", "committee size, fan-out, threshold");
  std::printf("nodes=%zu rounds=%zu threads=%zu stakes=U(1,50)\n", nodes,
              rounds, g_threads);
  const bench::WallTimer timer;

  std::printf("\n--- A) expected step-committee stake (tau) vs defection ---\n");
  std::printf("%8s", "tau\\def");
  for (const double d : {0.0, 0.10, 0.20}) std::printf("   %5.0f%%  ", d * 100);
  std::printf("   (mean final%%)\n");
  for (const std::uint64_t tau : {10ull, 20ull, 40ull, 80ull, 160ull}) {
    std::printf("%8llu", static_cast<unsigned long long>(tau));
    for (const double d : {0.0, 0.10, 0.20}) {
      const Cell c = run_cell(nodes, 5, d, tau, 0, rounds, 11 + tau);
      std::printf("   %7.1f ", c.final_pct);
    }
    std::printf("\n");
  }
  std::printf("Trade-off: tiny committees miss quorums even without\n"
              "defection (variance); larger ones tolerate more defection\n"
              "but recruit most of the network (no Others left).\n");

  std::printf("\n--- B) gossip fan-out vs defection ---\n");
  std::printf("%8s", "k\\def");
  for (const double d : {0.0, 0.15, 0.30}) std::printf("   %5.0f%%  ", d * 100);
  std::printf("   (mean final%%)\n");
  for (const std::size_t k : {2u, 3u, 5u, 8u, 12u}) {
    std::printf("%8zu", k);
    for (const double d : {0.0, 0.15, 0.30}) {
      const Cell c = run_cell(nodes, k, d, 0, 0, rounds, 23 + k);
      std::printf("   %7.1f ", c.final_pct);
    }
    std::printf("\n");
  }
  std::printf("Higher fan-out buys redundancy against non-relaying\n"
              "defectors at the price of message load.\n");

  std::printf("\n--- C) step threshold T vs liveness at 15%% defection ---\n");
  std::printf("%8s %14s %12s\n", "T", "mean final%", "mean none%");
  for (const double t : {0.55, 0.60, 0.685, 0.80, 0.90}) {
    const Cell c = run_cell(nodes, 5, 0.15, 0, t, rounds, 31);
    std::printf("%8.3f %14.1f %12.1f\n", t, c.final_pct, c.none_pct);
  }
  std::printf("Algorand's T=0.685 balances safety margin against liveness\n"
              "under partial defection; higher T starves quorums.\n");

  bench::emit_json("ablation_sweeps",
                   {{"nodes", static_cast<double>(nodes)},
                    {"rounds", static_cast<double>(rounds)},
                    {"threads", static_cast<double>(g_threads)},
                    {"wall_ms", timer.elapsed_ms()}});
  return 0;
}
