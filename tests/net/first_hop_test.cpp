// Differential test: net::first_hop_ports (one Dijkstra per source) against
// the per-destination construction it replaced in the ez-Segway switch —
// one shortest_path() per (src, dst) pair, taking the port toward path[1].
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/fattree.hpp"
#include "net/paths.hpp"
#include "net/topologies.hpp"
#include "net/topology_zoo.hpp"

namespace p4u::net {
namespace {

/// The reference: the quadratic per-destination construction, verbatim.
std::vector<std::int32_t> reference_first_hops(const Graph& g, NodeId src,
                                               Metric metric) {
  std::vector<std::int32_t> ports(g.node_count(), -1);
  for (std::size_t dst = 0; dst < g.node_count(); ++dst) {
    if (static_cast<NodeId>(dst) == src) continue;
    const auto path =
        shortest_path(g, src, static_cast<NodeId>(dst), metric);
    if (path && path->size() >= 2) ports[dst] = g.port_of(src, (*path)[1]);
  }
  return ports;
}

void expect_matches_reference(const Graph& g, const std::string& name) {
  for (const Metric metric : {Metric::kLatency, Metric::kHops}) {
    for (std::size_t src = 0; src < g.node_count(); ++src) {
      const auto id = static_cast<NodeId>(src);
      EXPECT_EQ(first_hop_ports(g, id, metric),
                reference_first_hops(g, id, metric))
          << name << " src " << src << " metric "
          << (metric == Metric::kHops ? "hops" : "latency");
    }
  }
}

TEST(FirstHopPortsTest, MatchesPerDestinationShortestPaths) {
  expect_matches_reference(fig1_topology().graph, "fig1");
  expect_matches_reference(fig2_topology().graph, "fig2");
  expect_matches_reference(fig4_topology().graph, "fig4");
  expect_matches_reference(fattree_topology(4).graph, "fattree(4)");
  expect_matches_reference(fattree_topology(8).graph, "fattree(8)");
  expect_matches_reference(b4_topology(), "B4");
  expect_matches_reference(internet2_topology(), "Internet2");
  expect_matches_reference(attmpls_topology(), "AttMpls");
  expect_matches_reference(chinanet_topology(), "Chinanet");
}

TEST(FirstHopPortsTest, UnreachableAndSelfAreMinusOne) {
  // Two components: 0-1-2 and 3-4, plus an isolated node 5.
  Graph g;
  for (int i = 0; i < 6; ++i) g.add_node("n" + std::to_string(i));
  g.add_link(0, 1, sim::milliseconds(1));
  g.add_link(1, 2, sim::milliseconds(1));
  g.add_link(3, 4, sim::milliseconds(1));
  const auto ports = first_hop_ports(g, 0);
  EXPECT_EQ(ports, (std::vector<std::int32_t>{-1, g.port_of(0, 1),
                                              g.port_of(0, 1), -1, -1, -1}));
  EXPECT_EQ(first_hop_ports(g, 5), std::vector<std::int32_t>(6, -1));
  expect_matches_reference(g, "disconnected");
}

}  // namespace
}  // namespace p4u::net
