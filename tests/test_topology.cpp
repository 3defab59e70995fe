#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace roleshare::net {
namespace {

TEST(Topology, KOutDegreesAndNoSelfLoops) {
  util::Rng rng(1);
  const Topology t = Topology::random_k_out(50, 5, rng);
  EXPECT_EQ(t.node_count(), 50u);
  EXPECT_EQ(t.fan_out(), 5u);
  for (ledger::NodeId v = 0; v < 50; ++v) {
    const auto out = t.out_neighbors(v);
    EXPECT_EQ(out.size(), 5u);
    std::set<ledger::NodeId> unique(out.begin(), out.end());
    EXPECT_EQ(unique.size(), 5u) << "duplicate edge at node " << v;
    EXPECT_FALSE(unique.contains(v)) << "self loop at node " << v;
    for (const auto to : out) EXPECT_LT(to, 50u);
  }
}

TEST(Topology, DeterministicForSameSeed) {
  util::Rng rng1(3), rng2(3);
  const Topology a = Topology::random_k_out(20, 3, rng1);
  const Topology b = Topology::random_k_out(20, 3, rng2);
  for (ledger::NodeId v = 0; v < 20; ++v) {
    const auto oa = a.out_neighbors(v);
    const auto ob = b.out_neighbors(v);
    EXPECT_TRUE(std::equal(oa.begin(), oa.end(), ob.begin(), ob.end()));
  }
}

TEST(Topology, RejectsFanOutTooLarge) {
  util::Rng rng(4);
  EXPECT_THROW(Topology::random_k_out(5, 5, rng), std::invalid_argument);
  EXPECT_THROW(Topology::random_k_out(0, 0, rng), std::invalid_argument);
}

TEST(Topology, FromAdjacencyPreservesEdges) {
  const Topology t = Topology::from_adjacency({{1, 2}, {2}, {0}});
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.out_neighbors(0).size(), 2u);
  EXPECT_EQ(t.out_neighbors(1).size(), 1u);
  const auto row0 = t.out_neighbors(0);
  EXPECT_EQ(std::vector<ledger::NodeId>(row0.begin(), row0.end()),
            (std::vector<ledger::NodeId>{1, 2}));
  EXPECT_EQ(t.out_neighbors(2).front(), 0u);
}

TEST(Topology, FromAdjacencyKeepsEmptyRows) {
  const Topology t = Topology::from_adjacency({{}, {0, 2}, {}});
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.fan_out(), 2u);
  EXPECT_TRUE(t.out_neighbors(0).empty());
  EXPECT_EQ(t.out_neighbors(1).size(), 2u);
  EXPECT_TRUE(t.out_neighbors(2).empty());
}

TEST(Topology, FromAdjacencyRejectsOutOfRange) {
  EXPECT_THROW(Topology::from_adjacency({{5}}), std::invalid_argument);
}

TEST(Topology, NodeIdBoundsChecked) {
  const Topology t = Topology::from_adjacency({{1}, {0}});
  EXPECT_THROW(t.out_neighbors(2), std::invalid_argument);
  EXPECT_THROW(t.out_neighbors(9), std::invalid_argument);
}

}  // namespace
}  // namespace roleshare::net
