#pragma once

// The three workloads and the system under test they drive.
//
//   cc_stream     in-process svc::Service, p=4, window 4: distinct-seed cc
//                 queries (all cache misses) round-robin over an ER, an
//                 R-MAT and a many-small-components graph; every 20th
//                 request writes to a side graph no query reads.
//   mincut_exact  in-process svc::Service, p=4, window 1: exact min_cut
//                 (success 0.9) with distinct seeds over a sparse ER, a
//                 Watts-Strogatz and a small dense R-MAT graph; every
//                 second request writes to the side graph.
//   rw_routed     cluster::Cluster of 2 camc_serve shards, replication 2,
//                 1 rank each, window 4: ~70% repeated-seed cc reads, 10%
//                 fresh-seed reads, 20% 8-edge add/remove batches over two
//                 graphs, checked against the benchmark's own edge mirror.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client.hpp"
#include "inputs.hpp"
#include "svc/json.hpp"

namespace camc::svc {
class Service;
}
namespace camc::cluster {
class Cluster;
}

namespace perfbench {

/// A query whose graph state is known, for direct calls into the layers.
struct Probe {
  std::size_t trace_index = 0;
  std::size_t graph = 0;
  std::uint64_t seed = 0;
  std::vector<WeightedEdge> edges;  ///< the graph as of that request
};

struct Workload {
  std::string name;
  std::string query;  ///< "cc" or "min_cut"
  int ranks = 4;      ///< BSP ranks per service (per shard when routed)
  std::size_t window = 4;
  bool routed = false;
  /// Queries go to graphs[0, queried); the in-process workloads also hold
  /// one more graph that only receives writes.
  std::vector<Graph> graphs;
  std::size_t queried = 0;
  std::vector<Request> warmup;  ///< one query per graph, seeds unused later
  std::vector<Request> trace;   ///< the timed request stream
  /// The first fresh-seed (cache-missing) queries of the trace.
  std::vector<Probe> probes;
  /// The trace's write batches in order, for the dyn panel.
  struct Batch {
    std::size_t graph = 0;
    bool add = true;
    std::vector<WeightedEdge> edges;
  };
  std::vector<Batch> batches;
};

/// Builds a workload's inputs, references and traces from `seed`. `tiny`
/// shrinks every graph and trace for the self-check. Graph files are
/// written under `dir`.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, bool tiny, const std::string& dir);

const std::vector<std::string>& workload_names();

/// One running system under test: an in-process Service, or a Cluster of
/// camc_serve shards over a private store directory.
class Target {
 public:
  struct Options {
    std::string serve_path;  ///< camc_serve binary (routed targets)
    std::string store_dir;   ///< routed targets; removed on destruction
    std::size_t replication = 2;
  };
  Target(const Workload& workload, const Options& options);
  ~Target();
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  const HandleLine& handle() const { return handle_; }
  /// Waits until nothing is in flight (routed: includes auto-saves).
  void drain();
  /// The per-service stats objects: one for a Service, one per live shard.
  std::vector<camc::svc::Json> service_stats() const;
  /// The router's "cluster" stats block; null for an in-process Service.
  camc::svc::Json cluster_stats() const;

 private:
  std::unique_ptr<camc::svc::Service> service_;
  std::unique_ptr<camc::cluster::Cluster> cluster_;
  std::string store_dir_;
  HandleLine handle_;
};

/// Starts a target, loads every graph file, and runs the warm-up queries:
/// the work setup_s measures.
std::unique_ptr<Target> start_target(const Workload& workload,
                                     const Target::Options& options);

}  // namespace perfbench
