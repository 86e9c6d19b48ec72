#include "inputs.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/io.hpp"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng rng(seed ^ (salt * 0xD1B54A32D192ED03ull));
  rng.next();
  return rng.next();
}

namespace {

WeightedEdge edge(std::uint64_t u, std::uint64_t v) {
  return WeightedEdge{static_cast<Vertex>(u), static_cast<Vertex>(v), 1};
}

std::string shape(const std::string& family, std::uint64_t n,
                  std::uint64_t m) {
  return family + " n=" + std::to_string(n) + " m=" + std::to_string(m);
}

}  // namespace

Graph erdos_renyi(const std::string& name, Vertex n, std::uint64_t m,
                  std::uint64_t seed) {
  Rng rng(seed);
  Graph g{name, shape("er", n, m), n, {}, {}};
  g.edges.reserve(m);
  while (g.edges.size() < m) {
    const std::uint64_t u = rng.below(n), v = rng.below(n);
    if (u != v) g.edges.push_back(edge(u, v));
  }
  return g;
}

Graph rmat(const std::string& name, unsigned scale, std::uint64_t m,
           std::uint64_t seed, bool ring) {
  Rng rng(seed);
  const Vertex n = Vertex{1} << scale;
  std::vector<WeightedEdge> edges;
  edges.reserve(m);
  while (edges.size() < m) {
    std::uint64_t u = 0, v = 0;
    for (unsigned bit = 0; bit < scale; ++bit) {
      const double r = rng.unit();
      const std::uint64_t du = r >= 0.67 ? 1 : 0;  // c + d quadrants
      const std::uint64_t dv = (r >= 0.45 && r < 0.67) || r >= 0.89 ? 1 : 0;
      u = (u << 1) | du;
      v = (v << 1) | dv;
    }
    if (u != v) edges.push_back(edge(u, v));
  }
  if (ring)
    for (std::uint64_t v = 0; v < n; ++v) edges.push_back(edge(v, (v + 1) % n));
  Graph g{name, "", n, std::move(edges), {}};
  g.shape = shape("rmat", g.n, g.edges.size()) + " scale=" +
            std::to_string(scale) + (ring ? " +ring" : "");
  return g;
}

Graph watts_strogatz(const std::string& name, Vertex n, unsigned k,
                     double beta, std::uint64_t seed) {
  Rng rng(seed);
  Graph g{name, shape("ws", n, std::uint64_t{n} * (k / 2)) + " k=" +
                    std::to_string(k),
          n, {}, {}};
  for (std::uint64_t u = 0; u < n; ++u)
    for (unsigned j = 1; j <= k / 2; ++j) {
      std::uint64_t v = (u + j) % n;
      if (rng.unit() < beta) {
        do v = rng.below(n);
        while (v == u);
      }
      g.edges.push_back(edge(u, v));
    }
  return g;
}

Graph islands(const std::string& name, Vertex n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vertex> perm(n);
  std::iota(perm.begin(), perm.end(), Vertex{0});
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  Graph g{name, "", n, {}, {}};
  for (std::uint64_t start = 0; start < n;) {
    const std::uint64_t size = std::min<std::uint64_t>(2 + rng.below(11),
                                                       n - start);
    for (std::uint64_t i = 1; i < size; ++i)
      g.edges.push_back(edge(perm[start + i], perm[start + rng.below(i)]));
    if (size > 2)
      g.edges.push_back(edge(perm[start], perm[start + size - 1]));
    start += size;
  }
  g.shape = shape("islands", n, g.edges.size()) + " block=2..12";
  return g;
}

std::uint64_t component_count(Vertex n,
                              const std::vector<WeightedEdge>& edges) {
  std::vector<Vertex> parent(n);
  std::iota(parent.begin(), parent.end(), Vertex{0});
  const auto find = [&parent](Vertex x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::uint64_t components = n;
  for (const WeightedEdge& e : edges) {
    const Vertex a = find(e.u), b = find(e.v);
    if (a != b) {
      parent[std::max(a, b)] = std::min(a, b);
      --components;
    }
  }
  return components;
}

Weight stoer_wagner(Vertex n, const std::vector<WeightedEdge>& edges) {
  if (n < 2) throw std::invalid_argument("stoer_wagner: n < 2");
  std::vector<std::vector<Weight>> w(n, std::vector<Weight>(n, 0));
  for (const WeightedEdge& e : edges)
    if (e.u != e.v) {
      w[e.u][e.v] += e.weight;
      w[e.v][e.u] += e.weight;
    }
  std::vector<Vertex> alive(n);
  std::iota(alive.begin(), alive.end(), Vertex{0});
  Weight best = ~Weight{0};
  std::vector<Weight> key(n);
  std::vector<char> added(n);
  while (alive.size() > 1) {
    std::fill(key.begin(), key.end(), 0);
    std::fill(added.begin(), added.end(), 0);
    Vertex prev = alive[0], last = alive[0];
    for (std::size_t step = 0; step < alive.size(); ++step) {
      Vertex pick = n;
      for (const Vertex v : alive)
        if (!added[v] && (pick == n || key[v] > key[pick])) pick = v;
      added[pick] = 1;
      prev = last;
      last = pick;
      if (step + 1 == alive.size()) best = std::min(best, key[pick]);
      for (const Vertex v : alive)
        if (!added[v]) key[v] += w[pick][v];
    }
    // Merge `last` into `prev`.
    for (const Vertex v : alive) {
      w[prev][v] += w[last][v];
      w[v][prev] = w[prev][v];
    }
    w[prev][prev] = 0;
    alive.erase(std::find(alive.begin(), alive.end(), last));
  }
  return best;
}

void write_inputs(std::vector<Graph>& graphs, const std::string& dir) {
  for (Graph& g : graphs) {
    g.path = dir + "/" + g.name + ".txt";
    camc::graph::write_edge_list_file(g.path, g.n, g.edges);
  }
}

}  // namespace perfbench
