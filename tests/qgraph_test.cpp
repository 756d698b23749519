// Tests for the graph substrate: Graph invariants, generators, greedy
// modularity, the QAOA^2 partitioning step, and edge-list IO.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "qgraph/generators.hpp"
#include "qgraph/graph.hpp"
#include "qgraph/io.hpp"
#include "qgraph/modularity.hpp"
#include "qgraph/partition.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qq::graph {
namespace {

// ---------------------------------------------------------------- Graph ----

TEST(Graph, BasicConstruction) {
  Graph g(4);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 0u);
  g.add_edge(0, 1, 2.0);
  g.add_edge(2, 3);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(2, 3), 1.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 3.0);
}

TEST(Graph, ParallelEdgesAccumulate) {
  Graph g(3);
  g.add_edge(0, 1, 1.5);
  g.add_edge(1, 0, 2.5);  // same undirected edge
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 4.0);
  // adjacency must mirror the merged weight on both endpoints
  for (const auto& [v, w] : g.neighbors(0)) {
    EXPECT_EQ(v, 1);
    EXPECT_DOUBLE_EQ(w, 4.0);
  }
  for (const auto& [v, w] : g.neighbors(1)) {
    EXPECT_EQ(v, 0);
    EXPECT_DOUBLE_EQ(w, 4.0);
  }
}

TEST(Graph, RejectsSelfLoopsAndBadIds) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 2), std::out_of_range);
  EXPECT_THROW(g.add_edge(-1, 0), std::out_of_range);
  EXPECT_THROW(Graph(-1), std::invalid_argument);
  EXPECT_THROW(g.neighbors(5), std::out_of_range);
}

TEST(Graph, RejectsNonFiniteWeights) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, std::nan("")), std::invalid_argument);
}

TEST(Graph, DegreeAndWeightedDegree) {
  Graph g = star_graph(5);
  EXPECT_EQ(g.degree(0), 4);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 4.0);
}

TEST(Graph, WeightedDetection) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_FALSE(g.is_weighted());
  g.add_edge(1, 2, 0.5);
  EXPECT_TRUE(g.is_weighted());
}

TEST(Graph, InducedSubgraphKeepsInternalEdges) {
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  g.add_edge(3, 4, 4.0);
  const auto sub = g.induced({1, 2, 3});
  EXPECT_EQ(sub.graph.num_nodes(), 3);
  EXPECT_EQ(sub.graph.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(sub.graph.edge_weight(0, 1), 2.0);  // (1,2)
  EXPECT_DOUBLE_EQ(sub.graph.edge_weight(1, 2), 3.0);  // (2,3)
  EXPECT_EQ(sub.to_global, (std::vector<NodeId>{1, 2, 3}));
}

TEST(Graph, InducedRejectsDuplicatesAndBadIds) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.induced({0, 0}), std::invalid_argument);
  EXPECT_THROW(g.induced({0, 7}), std::out_of_range);
}

TEST(Graph, ConnectedComponents) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const auto comps = connected_components(g);
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(comps[1], (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(comps[2], (std::vector<NodeId>{5}));
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(cycle_graph(5)));
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
}

/// The QAOA^2 sharding path: one induced Subgraph per connected component,
/// in connected_components order.
std::vector<Subgraph> shard_by_component(const Graph& g) {
  std::vector<Subgraph> shards;
  for (const auto& comp : connected_components(g)) {
    shards.push_back(g.induced(comp));
  }
  return shards;
}

TEST(Graph, ComponentSubgraphsShardByComponent) {
  Graph g(6);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(3, 4, 5.0);
  const auto shards = shard_by_component(g);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].to_global, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(shards[0].graph.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(shards[0].graph.edge_weight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(shards[0].graph.edge_weight(1, 2), 3.0);
  EXPECT_EQ(shards[1].to_global, (std::vector<NodeId>{3, 4}));
  EXPECT_DOUBLE_EQ(shards[1].graph.edge_weight(0, 1), 5.0);
  EXPECT_EQ(shards[2].graph.num_nodes(), 1);
  EXPECT_EQ(shards[2].graph.num_edges(), 0u);
}

TEST(Graph, ComponentSubgraphOfConnectedGraphIsStructurallyIdentical) {
  // The QAOA^2 sharding relies on this: for a connected graph the single
  // shard must preserve node ids AND edge insertion order, so every
  // downstream deterministic consumer (partitioner, seeds) sees the same
  // graph it would have seen unsharded.
  util::Rng rng(51);
  const Graph g = erdos_renyi(24, 0.2, rng);
  ASSERT_TRUE(is_connected(g));
  const auto shards = shard_by_component(g);
  ASSERT_EQ(shards.size(), 1u);
  const Graph& s = shards[0].graph;
  EXPECT_EQ(s.num_nodes(), g.num_nodes());
  ASSERT_EQ(s.num_edges(), g.num_edges());
  for (std::size_t e = 0; e < g.edges().size(); ++e) {
    EXPECT_EQ(s.edges()[e].u, g.edges()[e].u);
    EXPECT_EQ(s.edges()[e].v, g.edges()[e].v);
    EXPECT_EQ(s.edges()[e].w, g.edges()[e].w);
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(shards[0].to_global[static_cast<std::size_t>(u)], u);
  }
}

TEST(Graph, InducedBatchMatchesSerialInducedAtAnyPoolWidth) {
  util::Rng rng(53);
  const Graph g = erdos_renyi(30, 0.2, rng);
  const std::vector<std::vector<NodeId>> parts = {
      {0, 1, 2, 3, 4, 5}, {6, 7, 8, 9}, {10, 11, 12, 13, 14, 15, 16},
      {17, 18, 19, 20, 21}, {22, 23, 24, 25, 26, 27, 28, 29}};
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    const auto batch = induced_batch(g, parts, &pool);
    ASSERT_EQ(batch.size(), parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const Subgraph serial = g.induced(parts[i]);
      EXPECT_EQ(batch[i].to_global, serial.to_global);
      ASSERT_EQ(batch[i].graph.num_edges(), serial.graph.num_edges());
      for (std::size_t e = 0; e < serial.graph.edges().size(); ++e) {
        EXPECT_EQ(batch[i].graph.edges()[e].u, serial.graph.edges()[e].u);
        EXPECT_EQ(batch[i].graph.edges()[e].v, serial.graph.edges()[e].v);
        EXPECT_EQ(batch[i].graph.edges()[e].w, serial.graph.edges()[e].w);
      }
    }
  }
}

// ----------------------------------------------------------- generators ----

TEST(Generators, ErdosRenyiEdgeCountNearExpectation) {
  util::Rng rng(1);
  const NodeId n = 200;
  const double p = 0.1;
  const Graph g = erdos_renyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 4.0 * std::sqrt(expected));
}

TEST(Generators, ErdosRenyiExtremes) {
  util::Rng rng(2);
  EXPECT_EQ(erdos_renyi(20, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi(20, 1.0, rng).num_edges(), 190u);
  EXPECT_EQ(erdos_renyi(1, 0.5, rng).num_edges(), 0u);
  EXPECT_THROW(erdos_renyi(5, 1.5, rng), std::invalid_argument);
  EXPECT_THROW(erdos_renyi(5, -0.1, rng), std::invalid_argument);
}

TEST(Generators, ErdosRenyiWeightedDrawsInUnitInterval) {
  util::Rng rng(3);
  const Graph g = erdos_renyi(50, 0.3, rng, WeightMode::kUniform01);
  ASSERT_GT(g.num_edges(), 0u);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.w, 0.0);
    EXPECT_LT(e.w, 1.0);
  }
  EXPECT_TRUE(g.is_weighted());
}

TEST(Generators, ErdosRenyiDeterministicPerSeed) {
  util::Rng a(9), b(9);
  const Graph g1 = erdos_renyi(40, 0.2, a);
  const Graph g2 = erdos_renyi(40, 0.2, b);
  ASSERT_EQ(g1.num_edges(), g2.num_edges());
  for (std::size_t i = 0; i < g1.num_edges(); ++i) {
    EXPECT_EQ(g1.edges()[i].u, g2.edges()[i].u);
    EXPECT_EQ(g1.edges()[i].v, g2.edges()[i].v);
  }
}

TEST(Generators, StructuredFamilies) {
  EXPECT_EQ(complete_graph(6).num_edges(), 15u);
  EXPECT_EQ(cycle_graph(7).num_edges(), 7u);
  EXPECT_EQ(cycle_graph(2).num_edges(), 1u);
  EXPECT_EQ(path_graph(7).num_edges(), 6u);
  EXPECT_EQ(star_graph(7).num_edges(), 6u);
  EXPECT_EQ(grid_2d(3, 4).num_nodes(), 12);
  EXPECT_EQ(grid_2d(3, 4).num_edges(), 17u);  // 3*3 + 2*4
}

TEST(Generators, RandomRegularHasExactDegrees) {
  util::Rng rng(5);
  const Graph g = random_regular(20, 3, rng);
  for (NodeId u = 0; u < 20; ++u) EXPECT_EQ(g.degree(u), 3);
  EXPECT_THROW(random_regular(5, 3, rng), std::invalid_argument);  // n*d odd
  EXPECT_THROW(random_regular(4, 4, rng), std::invalid_argument);  // d >= n
}

TEST(Generators, BarbellStructure) {
  const Graph g = barbell_graph(4, 2);
  EXPECT_EQ(g.num_nodes(), 10);
  // two K4 (6 edges each) + path of 3 bridge edges
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, PlantedPartitionDenseInsideSparseOutside) {
  util::Rng rng(7);
  const Graph g = planted_partition(3, 10, 0.9, 0.02, rng);
  std::size_t inside = 0, outside = 0;
  for (const Edge& e : g.edges()) {
    (e.u / 10 == e.v / 10 ? inside : outside)++;
  }
  EXPECT_GT(inside, outside * 3);
}

// ----------------------------------------------------------- modularity ----

TEST(Modularity, SingleCommunityOfCompleteGraphIsZero) {
  const Graph g = complete_graph(5);
  const std::vector<int> one(5, 0);
  EXPECT_NEAR(modularity(g, one), 0.0, 1e-12);
}

TEST(Modularity, KnownValueOnTwoTriangles) {
  // Two triangles joined by one edge; communities = the triangles.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(3, 5);
  g.add_edge(2, 3);
  const std::vector<int> comm = {0, 0, 0, 1, 1, 1};
  // m=7; Sum_in per community: 3; Sum_tot: 7 each.
  // Q = 2 * (3/7 - (7/14)^2) = 6/7 - 1/2.
  EXPECT_NEAR(modularity(g, comm), 6.0 / 7.0 - 0.5, 1e-12);
}

TEST(Modularity, AssignmentSizeMismatchThrows) {
  const Graph g = cycle_graph(4);
  EXPECT_THROW(modularity(g, {0, 1}), std::invalid_argument);
}

TEST(GreedyModularity, RecoversTwoTriangles) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(3, 5);
  g.add_edge(2, 3);
  const auto comms = greedy_modularity_communities(g);
  ASSERT_EQ(comms.size(), 2u);
  EXPECT_EQ(comms[0], (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(comms[1], (std::vector<NodeId>{3, 4, 5}));
}

TEST(GreedyModularity, RecoversPlantedBlocks) {
  util::Rng rng(11);
  const NodeId block = 8;
  const Graph g = planted_partition(4, block, 0.95, 0.01, rng);
  const auto comms = greedy_modularity_communities(g);
  ASSERT_EQ(comms.size(), 4u);
  for (const auto& c : comms) {
    ASSERT_EQ(c.size(), static_cast<std::size_t>(block));
    const NodeId b = c.front() / block;
    for (const NodeId u : c) EXPECT_EQ(u / block, b);
  }
}

TEST(GreedyModularity, EdgelessGraphYieldsSingletons) {
  const Graph g(4);
  const auto comms = greedy_modularity_communities(g);
  EXPECT_EQ(comms.size(), 4u);
}

TEST(GreedyModularity, CommunitiesPartitionTheNodeSet) {
  util::Rng rng(13);
  const Graph g = erdos_renyi(60, 0.08, rng);
  const auto comms = greedy_modularity_communities(g);
  std::set<NodeId> seen;
  for (const auto& c : comms) {
    for (const NodeId u : c) EXPECT_TRUE(seen.insert(u).second);
  }
  EXPECT_EQ(seen.size(), 60u);
}

// ------------------------------------------------------------ partition ----

struct PartitionCase {
  const char* name;
  Graph graph;
  NodeId max_nodes;
};

class PartitionInvariants : public ::testing::TestWithParam<int> {};

TEST_P(PartitionInvariants, CoverDisjointAndCapped) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  // Rotate across graph families with the seed.
  Graph g(0);
  switch (seed % 4) {
    case 0: g = erdos_renyi(50, 0.1, rng); break;
    case 1: g = erdos_renyi(64, 0.3, rng, WeightMode::kUniform01); break;
    case 2: g = planted_partition(5, 9, 0.8, 0.05, rng); break;
    default: g = complete_graph(30); break;
  }
  PartitionOptions opts;
  opts.max_nodes = 8;
  opts.seed = static_cast<std::uint64_t>(seed);
  const auto parts = partition_max_size(g, opts);
  std::set<NodeId> seen;
  for (const auto& part : parts) {
    EXPECT_FALSE(part.empty());
    EXPECT_LE(part.size(), 8u);
    for (const NodeId u : part) {
      EXPECT_TRUE(seen.insert(u).second) << "node appears twice";
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(g.num_nodes()));
}

INSTANTIATE_TEST_SUITE_P(Families, PartitionInvariants,
                         ::testing::Range(0, 12));

TEST(Partition, SmallGraphStaysWhole) {
  const Graph g = cycle_graph(6);
  PartitionOptions opts;
  opts.max_nodes = 10;
  const auto parts = partition_max_size(g, opts);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size(), 6u);
}

TEST(Partition, CliqueFallbackSplitsBalanced) {
  // Modularity cannot split a clique; the BFS fallback must.
  const Graph g = complete_graph(20);
  PartitionOptions opts;
  opts.max_nodes = 6;
  const auto parts = partition_max_size(g, opts);
  EXPECT_GE(parts.size(), 4u);
  for (const auto& part : parts) EXPECT_LE(part.size(), 6u);
}

TEST(Partition, RespectsTightCap) {
  util::Rng rng(17);
  const Graph g = erdos_renyi(40, 0.2, rng);
  PartitionOptions opts;
  opts.max_nodes = 2;
  const auto parts = partition_max_size(g, opts);
  for (const auto& part : parts) EXPECT_LE(part.size(), 2u);
}

TEST(Partition, InvalidCapThrows) {
  PartitionOptions opts;
  opts.max_nodes = 0;
  EXPECT_THROW(partition_max_size(cycle_graph(4), opts),
               std::invalid_argument);
}

TEST(Partition, KeepsPlantedBlocksTogetherWhenTheyFit) {
  util::Rng rng(19);
  const Graph g = planted_partition(4, 6, 0.9, 0.02, rng);
  PartitionOptions opts;
  opts.max_nodes = 6;
  const auto parts = partition_max_size(g, opts);
  // Blocks of 6 fit exactly; modularity should find them (4 parts).
  EXPECT_EQ(parts.size(), 4u);
}

// -------------------------------------------------------------------- io ----

TEST(Io, RoundTripPreservesGraph) {
  util::Rng rng(23);
  const Graph g = erdos_renyi(30, 0.2, rng, WeightMode::kUniform01);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph h = read_edge_list(ss);
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (const Edge& e : g.edges()) {
    EXPECT_DOUBLE_EQ(h.edge_weight(e.u, e.v), e.w);
  }
}

TEST(Io, SkipsComments) {
  std::stringstream ss("# a comment\n3 1\n# another\n0 2 1.5\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 2), 1.5);
}

TEST(Io, MalformedInputThrows) {
  std::stringstream empty;
  EXPECT_THROW(read_edge_list(empty), std::runtime_error);
  std::stringstream truncated("4 2\n0 1 1.0\n");
  EXPECT_THROW(read_edge_list(truncated), std::runtime_error);
  std::stringstream garbage("x y\n");
  EXPECT_THROW(read_edge_list(garbage), std::runtime_error);
}

/// The what() of the runtime_error `text` raises, or "" if it parses.
std::string edge_list_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    (void)read_edge_list(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Io, HugeNodeCountIsRejectedBeforeAllocating) {
  // A 12-byte header used to size 2e9 adjacency lists (bad_alloc or an
  // out-of-memory kill).
  const std::string err = edge_list_error("2000000000 0");
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_NE(err.find("node count 2000000000"), std::string::npos) << err;
  EXPECT_EQ(edge_list_error(std::to_string(kMaxEdgeListNodes) + " 0"), "");
  EXPECT_NE(edge_list_error("-3 0"), "");
}

TEST(Io, RepeatedEdgeIsRejected) {
  // Used to read silently as one edge of weight 2 under a header of 2 edges.
  const std::string err = edge_list_error("3 2\n0 1 1\n0 1 1\n");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("repeats"), std::string::npos) << err;
  EXPECT_NE(edge_list_error("3 2\n0 1 1\n1 0 1\n"), "");  // either order
  EXPECT_EQ(edge_list_error("3 2\n0 1 1\n1 2 1\n"), "");
}

}  // namespace
}  // namespace qq::graph
