#pragma once

// Benchmark inputs: seeded graph generators, the reference answers the
// checker compares against, and the request traces of each workload.
//
// Everything here is computed from --seed before any timed window, with
// the benchmark's own generators and references (not the library's), so
// a change to camc's generators or sequential solvers cannot change what
// the benchmark feeds the program or what it accepts as correct.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge.hpp"

namespace perfbench {

using camc::graph::Vertex;
using camc::graph::Weight;
using camc::graph::WeightedEdge;

/// splitmix64: a small, fully specified seeded stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from (seed, salt).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

struct Graph {
  std::string name;
  std::string shape;  ///< e.g. "er n=20000 m=80000"
  Vertex n = 0;
  std::vector<WeightedEdge> edges;
  std::string path;  ///< edge-list file the program loads
};

/// G(n, M) multigraph without loops.
Graph erdos_renyi(const std::string& name, Vertex n, std::uint64_t m,
                  std::uint64_t seed);
/// R-MAT (a=0.45, b=c=0.22, the paper's parameters) on 2^scale vertices;
/// loops are redrawn. With `ring`, a Hamiltonian cycle is added, so a
/// min-cut input has no isolated vertex that would make every cut 0.
Graph rmat(const std::string& name, unsigned scale, std::uint64_t m,
           std::uint64_t seed, bool ring);
/// Watts-Strogatz ring lattice of degree k, far endpoints rewired with
/// probability beta.
Graph watts_strogatz(const std::string& name, Vertex n, unsigned k,
                     double beta, std::uint64_t seed);
/// Many small components: blocks of 2..12 vertices, each a random
/// spanning tree plus one extra edge, under a random vertex permutation.
Graph islands(const std::string& name, Vertex n, std::uint64_t seed);

/// Union-find component count of the graph on [0, n).
std::uint64_t component_count(Vertex n, const std::vector<WeightedEdge>& edges);

/// Exact global minimum cut by dense Stoer-Wagner, O(n^3); n >= 2.
Weight stoer_wagner(Vertex n, const std::vector<WeightedEdge>& edges);

/// Writes every graph as an edge-list file under `dir` and sets its path.
void write_inputs(std::vector<Graph>& graphs, const std::string& dir);

}  // namespace perfbench
