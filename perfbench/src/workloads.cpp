#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "svc/service.hpp"

namespace perfbench {

namespace {

using camc::svc::Json;

/// Seeds of the timed traces start here; warm-up seeds sit above 2^50, so
/// the two ranges never meet.
std::uint64_t trace_seed_base(std::uint64_t seed) {
  return (mix_seed(seed, 0x7EED) >> 24) + 1;
}
constexpr std::uint64_t kWarmupSeedBase = std::uint64_t{1} << 50;

std::string query_line(std::uint64_t id, const std::string& graph,
                       const std::string& kind, std::uint64_t seed) {
  return Json::object()
      .set("id", id)
      .set("op", "query")
      .set("graph", graph)
      .set("query", kind)
      .set("params", Json::object().set("seed", seed))
      .dump();
}

std::string write_line(std::uint64_t id, const std::string& graph, bool add,
                       const std::vector<WeightedEdge>& batch) {
  Json edges = Json::array();
  for (const WeightedEdge& e : batch)
    edges.push_back(Json::array().push_back(e.u).push_back(e.v));
  return Json::object()
      .set("id", id)
      .set("op", add ? "add_edges" : "remove_edges")
      .set("graph", graph)
      .set("edges", std::move(edges))
      .dump();
}

/// The benchmark's copy of a mutable graph: the edge multiset after every
/// write so far, and its component count (union-find; insertions merge
/// incrementally, deletions recount).
class Mirror {
 public:
  explicit Mirror(const Graph& g) : n_(g.n), edges_(g.edges) { recount(); }

  std::uint64_t components() const { return components_; }
  const std::vector<WeightedEdge>& edges() const { return edges_; }

  std::vector<WeightedEdge> add(Rng& rng, std::size_t size) {
    std::vector<WeightedEdge> batch;
    while (batch.size() < size) {
      const auto u = static_cast<Vertex>(rng.below(n_));
      const auto v = static_cast<Vertex>(rng.below(n_));
      if (u == v) continue;
      batch.push_back(WeightedEdge{u, v, 1});
      edges_.push_back(batch.back());
      const Vertex a = find(u), b = find(v);
      if (a != b) {
        parent_[std::max(a, b)] = std::min(a, b);
        --components_;
      }
    }
    return batch;
  }

  std::vector<WeightedEdge> remove(Rng& rng, std::size_t size) {
    std::vector<WeightedEdge> batch;
    for (std::size_t k = 0; k < size && !edges_.empty(); ++k) {
      const std::size_t at = rng.below(edges_.size());
      batch.push_back(edges_[at]);
      edges_[at] = edges_.back();
      edges_.pop_back();
    }
    recount();
    return batch;
  }

 private:
  Vertex find(Vertex x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void recount() {
    parent_.resize(n_);
    std::iota(parent_.begin(), parent_.end(), Vertex{0});
    components_ = n_;
    for (const WeightedEdge& e : edges_) {
      const Vertex a = find(e.u), b = find(e.v);
      if (a != b) {
        parent_[std::max(a, b)] = std::min(a, b);
        --components_;
      }
    }
  }

  Vertex n_;
  std::vector<WeightedEdge> edges_;
  std::vector<Vertex> parent_;
  std::uint64_t components_ = 0;
};

constexpr std::size_t kBatchEdges = 8;
/// Every kProbeStride-th fresh query, kProbes of them, is run again by
/// direct calls in the traced run: far enough into the trace to be past
/// the window's first burst, early enough to fall in its first half.
constexpr std::size_t kProbes = 6;
constexpr std::size_t kProbeStride = 10;

bool is_probe(std::size_t fresh_index) {
  return fresh_index % kProbeStride == kProbeStride - 1 &&
         fresh_index < kProbes * kProbeStride;
}

/// Queries round-robin over the first `queried` graphs, each with a seed
/// of its own; with `write_every` > 0, every write_every-th request is
/// instead a write batch to the last graph, which no query reads — two
/// add_edges for every remove_edges, so the write median is an add and the
/// tail a remove rather than the median falling between the two.
void add_trace(Workload& w, std::uint64_t seed, std::size_t length,
               const std::vector<std::uint64_t>& expect,
               std::size_t write_every) {
  const std::uint64_t base = trace_seed_base(seed);
  Rng rng(mix_seed(seed, 0xB0BE));
  Mirror side(w.graphs.back());
  const std::string& side_name = w.graphs.back().name;
  std::size_t queries = 0, writes = 0;
  for (std::size_t i = 0; i < length; ++i) {
    if (write_every > 0 && i % write_every == write_every - 1) {
      const bool add = writes++ % 3 != 2;
      auto batch =
          add ? side.add(rng, kBatchEdges) : side.remove(rng, kBatchEdges);
      w.trace.push_back(Request{write_line(i, side_name, add, batch),
                                side_name, true, side.components()});
      w.batches.push_back({w.graphs.size() - 1, add, std::move(batch)});
      continue;
    }
    const std::size_t g = queries % w.queried;
    const std::uint64_t query_seed = base + queries;
    w.trace.push_back(Request{query_line(i, w.graphs[g].name, w.query,
                                         query_seed),
                              w.graphs[g].name, false, expect[g]});
    if (is_probe(queries++))
      w.probes.push_back(Probe{i, g, query_seed, w.graphs[g].edges});
  }
}

void add_warmup(Workload& w, const std::vector<std::uint64_t>& expect) {
  for (std::size_t g = 0; g < w.queried; ++g)
    w.warmup.push_back(Request{
        query_line(g, w.graphs[g].name, w.query, kWarmupSeedBase + g),
        w.graphs[g].name, false, expect[g]});
}

/// The graph the in-process workloads write to: the shape of rw_routed's.
Graph side_graph(std::uint64_t seed, bool tiny) {
  const Vertex n = tiny ? 2000 : 20000;
  return erdos_renyi("side", n, 3ull * n, mix_seed(seed, 4));
}

Workload cc_stream(std::uint64_t seed, double seconds, bool tiny) {
  Workload w;
  w.name = "cc_stream";
  w.query = "cc";
  const Vertex n = tiny ? 2000 : 40000;
  w.graphs.push_back(erdos_renyi("er", n, 4ull * n, mix_seed(seed, 1)));
  w.graphs.push_back(rmat("rmat", tiny ? 11 : 15, 4ull * n, mix_seed(seed, 2),
                          false));
  w.graphs.push_back(islands("islands", n, mix_seed(seed, 3)));
  w.queried = w.graphs.size();
  w.graphs.push_back(side_graph(seed, tiny));
  std::vector<std::uint64_t> expect;
  for (std::size_t g = 0; g < w.queried; ++g)
    expect.push_back(component_count(w.graphs[g].n, w.graphs[g].edges));
  add_warmup(w, expect);
  add_trace(w, seed, tiny ? 40 : static_cast<std::size_t>(seconds * 1000),
            expect, 20);
  return w;
}

Workload mincut_exact(std::uint64_t seed, double seconds, bool tiny) {
  Workload w;
  w.name = "mincut_exact";
  w.query = "min_cut";
  w.window = 1;
  const Vertex n = tiny ? 40 : 128;
  w.graphs.push_back(erdos_renyi("er", n, 8ull * n, mix_seed(seed, 1)));
  w.graphs.push_back(watts_strogatz("ws", n, 8, 0.3, mix_seed(seed, 2)));
  w.graphs.push_back(rmat("rmat", tiny ? 5 : 7, tiny ? 300 : 3000,
                          mix_seed(seed, 3), true));
  w.queried = w.graphs.size();
  w.graphs.push_back(side_graph(seed, tiny));
  std::vector<std::uint64_t> expect;
  for (std::size_t g = 0; g < w.queried; ++g)
    expect.push_back(stoer_wagner(w.graphs[g].n, w.graphs[g].edges));
  add_warmup(w, expect);
  add_trace(w, seed, tiny ? 12 : static_cast<std::size_t>(seconds * 60),
            expect, 2);
  return w;
}

Workload rw_routed(std::uint64_t seed, double seconds, bool tiny) {
  Workload w;
  w.name = "rw_routed";
  w.query = "cc";
  w.ranks = 1;
  w.routed = true;
  const Vertex n = tiny ? 2000 : 20000;
  w.graphs.push_back(erdos_renyi("er", n, 3ull * n, mix_seed(seed, 1)));
  w.graphs.push_back(rmat("rmat", tiny ? 11 : 14, 3ull * n, mix_seed(seed, 2),
                          false));
  w.queried = w.graphs.size();
  std::vector<Mirror> mirrors;
  std::vector<std::uint64_t> expect;
  for (const Graph& g : w.graphs) {
    mirrors.emplace_back(g);
    expect.push_back(mirrors.back().components());
  }
  add_warmup(w, expect);

  Rng rng(mix_seed(seed, 0x7ACE));
  const std::uint64_t base = trace_seed_base(seed);
  std::size_t fresh = 0;
  std::vector<std::size_t> writes(w.graphs.size(), 0);
  const std::size_t length =
      tiny ? 200 : static_cast<std::size_t>(seconds * 3000);
  for (std::size_t i = 0; i < length; ++i) {
    const std::size_t g = rng.below(w.graphs.size());
    const std::string& name = w.graphs[g].name;
    Mirror& mirror = mirrors[g];
    const double r = rng.unit();
    if (r < 0.8) {
      const bool repeated = r < 0.7;
      // base + g is graph g's repeated seed; fresh ones start above.
      const std::uint64_t query_seed =
          repeated ? base + g : base + w.graphs.size() + fresh;
      w.trace.push_back(Request{query_line(i, name, "cc", query_seed), name,
                                false, mirror.components()});
      if (!repeated && is_probe(fresh++))
        w.probes.push_back(Probe{i, g, query_seed, mirror.edges()});
      continue;
    }
    const bool add = writes[g]++ % 2 == 0;
    auto batch =
        add ? mirror.add(rng, kBatchEdges) : mirror.remove(rng, kBatchEdges);
    w.trace.push_back(Request{write_line(i, name, add, batch), name, true,
                              mirror.components()});
    w.batches.push_back({g, add, std::move(batch)});
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"cc_stream", "mincut_exact",
                                              "rw_routed"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, bool tiny, const std::string& dir) {
  Workload w;
  if (name == "cc_stream")
    w = cc_stream(seed, seconds, tiny);
  else if (name == "mincut_exact")
    w = mincut_exact(seed, seconds, tiny);
  else if (name == "rw_routed")
    w = rw_routed(seed, seconds, tiny);
  else
    throw std::invalid_argument("unknown workload '" + name + "'");
  write_inputs(w.graphs, dir);
  return w;
}

Target::Target(const Workload& workload, const Options& options) {
  if (workload.routed) {
    camc::cluster::ClusterOptions cluster;
    cluster.serve_path = options.serve_path;
    cluster.shards = 2;
    cluster.replication = options.replication;
    cluster.store_dir = store_dir_ = options.store_dir;
    cluster.worker_threads = workload.ranks;
    std::filesystem::create_directories(store_dir_);
    cluster_ = std::make_unique<camc::cluster::Cluster>(cluster);
    handle_ = [c = cluster_.get()](const std::string& line, const Emit& emit) {
      c->handle_line(line, emit);
    };
  } else {
    camc::svc::ServiceOptions service;
    service.engine.threads = workload.ranks;
    service_ = std::make_unique<camc::svc::Service>(service);
    handle_ = [s = service_.get()](const std::string& line, const Emit& emit) {
      s->handle_line(line, emit);
    };
  }
}

Target::~Target() {
  cluster_.reset();
  service_.reset();
  if (!store_dir_.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(store_dir_, ignored);
  }
}

void Target::drain() {
  if (cluster_) cluster_->drain();
  if (service_) service_->drain();
}

std::vector<Json> Target::service_stats() const {
  const Json stats =
      Json::parse(call(handle_, Json::object().set("id", 0).set("op", "stats").dump()));
  if (service_) return {stats["result"]};
  std::vector<Json> out;
  const Json& shards = stats["result"]["shards"];
  for (std::size_t i = 0; i < shards.size(); ++i)
    if (shards.at(i)["stats"].is_object()) out.push_back(shards.at(i)["stats"]);
  return out;
}

Json Target::cluster_stats() const {
  return cluster_ ? cluster_->cluster_stats_json() : Json();
}

std::unique_ptr<Target> start_target(const Workload& workload,
                                     const Target::Options& options) {
  auto target = std::make_unique<Target>(workload, options);
  std::uint64_t id = std::uint64_t{1} << 40;
  for (const Graph& g : workload.graphs)
    call(target->handle(), Json::object()
                               .set("id", id++)
                               .set("op", "load")
                               .set("graph", g.name)
                               .set("path", g.path)
                               .set("format", "edgelist")
                               .dump());
  target->drain();  // the router's auto-saves
  const WindowResult warm =
      run_window(target->handle(), workload.warmup, 0, workload.warmup.size(),
                 workload.warmup.size(), 1e9);
  for (const Outcome& o : warm.outcomes)
    if (!o.correct)
      throw std::runtime_error("warm-up query failed: " + o.response);
  return target;
}

}  // namespace perfbench
