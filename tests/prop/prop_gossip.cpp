// Property suite: the bucket-queue gossip flood against a binary-heap
// Dijkstra oracle (DESIGN.md §4, "Exact bucket-queue flood").
//
// The oracle below is the heap kernel GossipEngine::propagate_into ran
// before the bucket queue, kept here only as the reference. For random
// topologies, relay/online masks, origins, start times, delay models,
// delay factors and loss rates, both kernels must produce byte-equal
// arrival rows and leave the flood's Rng in the same state — the bucket
// queue may not draw one sample more, fewer or in another order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/delay_model.hpp"
#include "net/gossip.hpp"
#include "net/topology.hpp"
#include "util/proptest.hpp"
#include "util/rng.hpp"

namespace {

using roleshare::ledger::NodeId;
using roleshare::net::DelayModel;
using roleshare::net::kNever;
using roleshare::net::RelaySet;
using roleshare::net::TimeMs;
using roleshare::net::Topology;
using roleshare::util::Rng;
using roleshare::util::proptest::Gen;
using roleshare::util::proptest::Verdict;
namespace pgen = roleshare::util::proptest::gen;

// Binary-heap Dijkstra over (time, node): the reference pop order.
std::vector<TimeMs> heap_flood(const Topology& topology,
                               const DelayModel& delays, double delay_factor,
                               double loss, NodeId origin, TimeMs start,
                               const RelaySet& relay_set, Rng& rng) {
  std::vector<TimeMs> arrival(topology.node_count(), kNever);
  if (!relay_set.online[origin]) return arrival;
  using Entry = std::pair<TimeMs, NodeId>;
  std::vector<Entry> frontier;
  const std::greater<> later{};
  arrival[origin] = start;
  frontier.emplace_back(start, origin);
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), later);
    const auto [t, v] = frontier.back();
    frontier.pop_back();
    if (t > arrival[v]) continue;
    if (v != origin && !relay_set.relays[v]) continue;
    for (const NodeId to : topology.out_neighbors(v)) {
      if (!relay_set.online[to]) continue;
      if (loss > 0.0 && rng.bernoulli(loss)) continue;
      const TimeMs cand = t + delays.sample(rng, v, to) * delay_factor;
      if (cand < arrival[to]) {
        arrival[to] = cand;
        frontier.emplace_back(cand, to);
        std::push_heap(frontier.begin(), frontier.end(), later);
      }
    }
  }
  return arrival;
}

// ExponentialTinyBase's width (0.01 ms) puts the flood's tail past the
// bucket cap, so the shared last bucket is exercised too.
enum class Model { Uniform, Constant, ExponentialBase0, ExponentialTinyBase };

struct FloodCase {
  std::uint64_t seed = 0;  // topology, masks and flood streams
  std::size_t nodes = 2;
  std::size_t fan_out = 1;
  Model model = Model::Uniform;
  double delay_factor = 1.0;
  double loss = 0.0;
  double start = 0.0;
};

std::string describe(const FloodCase& c) {
  const char* model = c.model == Model::Uniform          ? "uniform[20,120]"
                      : c.model == Model::Constant       ? "constant(10)"
                      : c.model == Model::ExponentialBase0 ? "exponential(0,40)"
                                                         : "exponential(0.01,40)";
  return "seed=" + std::to_string(c.seed) +
         " nodes=" + std::to_string(c.nodes) +
         " fan_out=" + std::to_string(c.fan_out) + " model=" + model +
         " delay_factor=" + std::to_string(c.delay_factor) +
         " loss=" + std::to_string(c.loss) +
         " start=" + std::to_string(c.start);
}

std::unique_ptr<DelayModel> make_model(Model m) {
  switch (m) {
    case Model::Uniform: return roleshare::net::make_uniform_delay(20, 120);
    case Model::Constant: return roleshare::net::make_constant_delay(10);
    case Model::ExponentialBase0:
      return roleshare::net::make_exponential_delay(0, 40);
    case Model::ExponentialTinyBase:
      return roleshare::net::make_exponential_delay(0.01, 40);
  }
  return nullptr;
}

Gen<FloodCase> flood_case() {
  return pgen::tuple_of(
             pgen::int_range(0, 1'000'000),
             pgen::size_range(2, 160), pgen::size_range(1, 6),
             pgen::element_of(std::vector<Model>{
                 Model::Uniform, Model::Constant, Model::ExponentialBase0,
                 Model::ExponentialTinyBase}),
             pgen::element_of(std::vector<double>{1.0, 25.0}),
             pgen::element_of(std::vector<double>{0.0, 0.0, 0.15}),
             pgen::element_of(std::vector<double>{0.0, 0.0, 37.25, 5000.0}))
      .map([](const auto& t) {
        FloodCase c;
        c.seed = static_cast<std::uint64_t>(std::get<0>(t));
        c.nodes = std::get<1>(t);
        c.fan_out = std::min(std::get<2>(t), c.nodes - 1);
        c.model = std::get<3>(t);
        c.delay_factor = std::get<4>(t);
        c.loss = std::get<5>(t);
        c.start = std::get<6>(t);
        return c;
      });
}

// One topology and mask per case, then a flood from several origins on
// one reused scratch (so a dirty scratch is exercised too).
Verdict bucket_flood_matches_heap(const FloodCase& c) {
  Rng rng(c.seed);
  Rng topo_rng = rng.split("topology");
  const Topology topology =
      Topology::random_k_out(c.nodes, c.fan_out, topo_rng);
  RelaySet relay_set = RelaySet::all_cooperative(c.nodes);
  Rng mask_rng = rng.split("mask");
  const double defect = mask_rng.uniform01() * 0.6;
  for (std::size_t v = 0; v < c.nodes; ++v) {
    relay_set.relays[v] = mask_rng.bernoulli(defect) ? 0 : 1;
    relay_set.online[v] = mask_rng.bernoulli(0.1) ? 0 : 1;
  }
  const std::unique_ptr<DelayModel> delays = make_model(c.model);
  const roleshare::net::GossipEngine engine(topology, *delays,
                                            c.delay_factor, c.loss);
  roleshare::net::GossipScratch scratch;
  std::vector<TimeMs> arrival;
  for (std::uint64_t f = 0; f < 6; ++f) {
    const auto origin = static_cast<NodeId>(
        rng.split("origin").split(f).uniform_int(
            0, static_cast<std::int64_t>(c.nodes) - 1));
    Rng flood = rng.split("flood").split(f);
    Rng oracle = flood;
    engine.propagate_into(origin, c.start, relay_set, flood, arrival,
                          scratch);
    const std::vector<TimeMs> expected =
        heap_flood(topology, *delays, c.delay_factor, c.loss, origin,
                   c.start, relay_set, oracle);
    const std::string at = " (flood " + std::to_string(f) + ", origin " +
                           std::to_string(origin) + ")";
    if (arrival.size() != expected.size() ||
        std::memcmp(arrival.data(), expected.data(),
                    arrival.size() * sizeof(TimeMs)) != 0)
      return Verdict{false, "arrival rows differ" + at};
    if (flood() != oracle())
      return Verdict{false, "flood Rng ends in another state" + at};
  }
  return Verdict{};
}

}  // namespace

PROP_TEST_WITH_PARAMS(PropGossip, BucketFloodMatchesHeapDijkstra, 300) {
  prop.check(flood_case(), bucket_flood_matches_heap,
             [](const FloodCase& c) { return describe(c); });
}

// Every delay model and both delay factors at least once, independent of
// what the random draw above happens to cover.
TEST(PropGossip, BucketFloodMatchesHeapForEveryModel) {
  for (const Model m : {Model::Uniform, Model::Constant,
                        Model::ExponentialBase0, Model::ExponentialTinyBase}) {
    for (const double factor : {1.0, 25.0}) {
      FloodCase c;
      c.seed = 7;
      c.nodes = 300;
      c.fan_out = 5;
      c.model = m;
      c.delay_factor = factor;
      c.loss = 0.05;
      c.start = 12.5;
      const Verdict v = bucket_flood_matches_heap(c);
      EXPECT_TRUE(v.ok) << describe(c) << ": " << v.note;
    }
  }
}
