#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <iostream>

#include "bsp/machine.hpp"
#include "core/cc.hpp"
#include "core/mincut.hpp"
#include "dyn/dyn_cc.hpp"
#include "graph/dist_edge_array.hpp"
#include "graph/fingerprint.hpp"
#include "graph/io.hpp"
#include "rng/philox.hpp"
#include "seq/stoer_wagner.hpp"
#include "store/store.hpp"
#include "svc/kinds.hpp"
#include "trace/context.hpp"

namespace perfbench {

namespace {

using camc::svc::Json;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void put(Json& metrics, const std::string& name, double value,
         const char* unit) {
  metrics.set(name, Json::object().set("value", value).set("unit", unit));
}

camc::trace::Span host_span(Spans& spans, const char* name,
                            std::uint64_t arg0 = 0) {
  return camc::trace::Span(
      camc::trace::Tracer(&spans.host.rank(0), spans.host.epoch()), nullptr,
      nullptr, name, arg0, 0);
}

/// Times fn() `repeats` times under a host span; returns the median.
double timed(Spans& spans, const char* name, int repeats,
             const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    const auto span = host_span(spans, name, static_cast<std::uint64_t>(r));
    const auto start = Clock::now();
    fn();
    samples.push_back(since(start));
  }
  return median(samples);
}

/// One query executed by direct calls: the graph, the query seed as the
/// service would use it, and the answer the trace expects.
struct KernelInput {
  Vertex n = 0;
  const std::vector<WeightedEdge>* edges = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t expect = 0;
  std::size_t trace_index = 0;  ///< pairs the input with a served request
};

struct BspSample {
  double run_s = 0.0, scatter_s = 0.0, kernel_s = 0.0;
  double comm_max = 0.0, comm_spread = 0.0;
  std::uint64_t supersteps = 0, max_words = 0, collective_calls = 0;
  std::uint64_t iterations = 0, value = 0;
};

/// Machine::run around scatter + the kernel, as one service epoch of one
/// query does it (cc on a copy of the seed salted as the service salts it).
BspSample run_kernel(camc::bsp::Machine& machine, Spans& spans, bool mincut,
                     const KernelInput& in) {
  BspSample s;
  const auto span = host_span(spans, mincut ? "bsp.run min_cut" : "bsp.run cc",
                              in.seed);
  const camc::bsp::RunOutcome out = machine.run([&](camc::bsp::Comm& world) {
    const camc::Context ctx(
        world, mincut ? in.seed : camc::svc::salted_seed(in.seed, 0),
        &spans.ranks);
    const auto start = Clock::now();
    camc::graph::DistributedEdgeArray dist;
    {
      const auto scatter = ctx.span("bench.scatter");
      dist = camc::graph::DistributedEdgeArray::scatter(world, in.n,
                                                        *in.edges);
    }
    const double scatter_s = since(start);
    std::uint64_t value = 0, iterations = 0;
    {
      const auto kernel = ctx.span(mincut ? "bench.min_cut" : "bench.cc");
      if (mincut) {
        camc::core::MinCutOptions options;
        options.want_side = false;  // the service's default
        const auto r = camc::core::min_cut(ctx, dist, options);
        value = r.value;
        iterations = r.trials;
      } else {
        const auto r = camc::core::connected_components(ctx, dist);
        value = r.components;
        iterations = r.iterations;
      }
    }
    if (world.rank() == 0) {
      s.scatter_s = scatter_s;
      s.kernel_s = since(start) - scatter_s;
      s.value = value;
      s.iterations = iterations;
    }
  });
  s.run_s = out.wall_seconds;
  double lo = out.per_rank.front().comm_seconds, hi = lo;
  for (const auto& rank : out.per_rank) {
    lo = std::min(lo, rank.comm_seconds);
    hi = std::max(hi, rank.comm_seconds);
  }
  s.comm_max = hi;
  s.comm_spread = hi - lo;
  s.supersteps = out.stats.supersteps;
  s.max_words = out.stats.max_words_communicated;
  s.collective_calls = out.stats.collective_calls;
  return s;
}

template <typename F>
double median_of(const std::vector<BspSample>& samples, F field) {
  std::vector<double> values;
  for (const BspSample& s : samples) values.push_back(field(s));
  return median(values);
}

template <typename F>
double mean_of(const std::vector<BspSample>& samples, F field) {
  double total = 0.0;
  for (const BspSample& s : samples) total += static_cast<double>(field(s));
  return samples.empty() ? 0.0 : total / static_cast<double>(samples.size());
}

std::vector<double> latencies_ms(const WindowResult& window, bool writes) {
  std::vector<double> out;
  for (std::size_t i = 0; i < window.outcomes.size(); ++i) {
    const Outcome& o = window.outcomes[i];
    if (o.write == writes) out.push_back(o.latency_ms());
  }
  return out;
}

/// Adds a panel window's requests to the run's counts; reports the first
/// wrong answer on stderr.
void tally(const char* panel, const WindowResult& window,
           std::uint64_t& attempted, std::uint64_t& failed) {
  for (const Outcome& o : window.outcomes) {
    ++attempted;
    if (o.correct) continue;
    if (failed++ == 0)
      std::cerr << "perfbench: " << panel << ": wrong answer: "
                << (o.answered ? o.response : "(none)") << "\n";
  }
}

/// The first `limit` writes (or queries) of the trace, in order and
/// renumbered: replayable from the base graphs on a fresh target.
std::vector<Request> first_of_kind(const Workload& w, bool writes,
                                   std::size_t limit) {
  std::vector<Request> out;
  for (const Request& r : w.trace) {
    if (r.write != writes || out.size() == limit) continue;
    out.push_back(r);
    out.back().line =
        Json::parse(r.line).set("id", std::uint64_t{out.size() - 1}).dump();
  }
  return out;
}

}  // namespace

Json summed_stats(const std::vector<Json>& stats) {
  std::uint64_t hits = 0, misses = 0, batches = 0, batched = 0, dropped = 0;
  for (const Json& s : stats) {
    hits += s["cache"]["hits"].as_u64();
    misses += s["cache"]["misses"].as_u64();
    batches += s["batching"]["batches"].as_u64();
    batched += s["batching"]["batched_requests"].as_u64();
    dropped += s["dyn"]["cache_entries_dropped"].as_u64();
  }
  return Json::object()
      .set("hits", hits)
      .set("misses", misses)
      .set("batches", batches)
      .set("batched_requests", batched)
      .set("cache_entries_dropped", dropped);
}

void record_requests(const WindowResult& window, camc::trace::Recorder& out) {
  std::vector<double> lane_free(static_cast<std::size_t>(out.ranks()), 0.0);
  for (std::size_t i = 0; i < window.outcomes.size(); ++i) {
    const Outcome& o = window.outcomes[i];
    if (!o.answered) continue;
    std::size_t lane = 0;
    while (lane + 1 < lane_free.size() && lane_free[lane] > o.sent_s) ++lane;
    lane_free[lane] = o.received_s;
    auto& events = out.rank(static_cast<int>(lane)).events;
    camc::trace::Event begin;
    begin.name = o.write ? "request write" : "request query";
    begin.kind = camc::trace::EventKind::kBegin;
    begin.wall_seconds = o.sent_s;
    begin.arg0 = i;
    camc::trace::Event end = begin;
    end.kind = camc::trace::EventKind::kEnd;
    end.wall_seconds = o.received_s;
    events.push_back(begin);
    events.push_back(end);
  }
}

Json layer_metrics(const TracedRun& run, Spans& spans, std::uint64_t seed,
                   std::uint64_t& attempted, std::uint64_t& failed) {
  const Workload& w = run.workload;
  const bool mincut_workload = w.query == "min_cut";
  Json m = Json::object();
  const auto check = [&](bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  };

  // -- inputs of the direct-call panels ------------------------------------
  // cc and min_cut each run on the workload's own probes when it serves
  // that kind, else on an extra input, so every workload reports every
  // layer.
  std::vector<KernelInput> cc_inputs, mincut_inputs;
  const Graph extra = erdos_renyi("extra", 64, 512, mix_seed(seed, 0x51DE));
  for (const Probe& p : w.probes) {
    const Graph& g = w.graphs[p.graph];
    const KernelInput in{g.n, &p.edges, p.seed, w.trace[p.trace_index].expect,
                         p.trace_index};
    if (mincut_workload) {
      mincut_inputs.push_back(in);
      cc_inputs.push_back({g.n, &g.edges, p.seed, component_count(g.n, g.edges),
                           p.trace_index});
    } else {
      cc_inputs.push_back(in);
    }
  }
  if (!mincut_workload)
    for (std::uint64_t k = 0; k < 2; ++k)
      mincut_inputs.push_back(
          {extra.n, &extra.edges, k + 1, stoer_wagner(extra.n, extra.edges), 0});

  // -- bsp + core -----------------------------------------------------------
  std::vector<BspSample> cc_samples, mincut_samples, mincut_p1;
  {
    camc::bsp::Machine machine(w.ranks);
    machine.run([](camc::bsp::Comm&) {});  // pool warm-up
    for (const KernelInput& in : cc_inputs) {
      cc_samples.push_back(run_kernel(machine, spans, false, in));
      check(cc_samples.back().value == in.expect);
    }
    std::vector<double> dispatch;
    for (int r = 0; r < 200; ++r)
      dispatch.push_back(machine.run([](camc::bsp::Comm&) {}).wall_seconds);
    put(m, "bsp.dispatch_us", median(dispatch) * 1e6, "us");
  }
  {
    camc::bsp::Machine p4(4), p1(1);
    p4.run([](camc::bsp::Comm&) {});
    p1.run([](camc::bsp::Comm&) {});
    for (const KernelInput& in : mincut_inputs) {
      mincut_samples.push_back(run_kernel(p4, spans, true, in));
      check(mincut_samples.back().value == in.expect);
    }
    // The p=1 baseline on one input per graph (the solves are the slow part
    // of the traced run).
    for (std::size_t i = 0; i < std::min<std::size_t>(3, mincut_inputs.size());
         ++i) {
      mincut_p1.push_back(run_kernel(p1, spans, true, mincut_inputs[i]));
      check(mincut_p1.back().value == mincut_inputs[i].expect);
    }
  }
  const std::vector<BspSample>& own =
      mincut_workload ? mincut_samples : cc_samples;
  put(m, "bsp.run_s", median_of(own, [](auto& s) { return s.run_s; }), "s");
  put(m, "bsp.comm_s", median_of(own, [](auto& s) { return s.comm_max; }), "s");
  put(m, "bsp.comm_spread_s",
      median_of(own, [](auto& s) { return s.comm_spread; }), "s");
  put(m, "bsp.supersteps", mean_of(own, [](auto& s) { return s.supersteps; }),
      "count");
  put(m, "bsp.max_words", mean_of(own, [](auto& s) { return s.max_words; }),
      "words");
  put(m, "bsp.collective_calls",
      mean_of(own, [](auto& s) { return s.collective_calls; }), "count");
  put(m, "core.scatter_s",
      median_of(own, [](auto& s) { return s.scatter_s; }), "s");
  put(m, "core.cc_s",
      median_of(cc_samples, [](auto& s) { return s.kernel_s; }), "s");
  put(m, "core.cc_iterations",
      mean_of(cc_samples, [](auto& s) { return s.iterations; }), "count");
  put(m, "core.mincut_s",
      median_of(mincut_samples, [](auto& s) { return s.kernel_s; }), "s");
  put(m, "core.mincut_trials",
      mean_of(mincut_samples, [](auto& s) { return s.iterations; }), "count");
  const std::vector<BspSample> p4_same(
      mincut_samples.begin(),
      mincut_samples.begin() + static_cast<std::ptrdiff_t>(mincut_p1.size()));
  const double p1_s = median_of(mincut_p1, [](auto& s) { return s.run_s; });
  const double p4_s = median_of(p4_same, [](auto& s) { return s.run_s; });
  put(m, "core.mincut_p1_s", p1_s, "s");
  put(m, "core.mincut_speedup", p1_s / p4_s, "x");

  {
    std::vector<double> trial_ms;
    for (const KernelInput& in : mincut_inputs) {
      camc::rng::Philox gen(in.seed);
      const auto span = host_span(spans, "core.sequential_min_cut_trial");
      const auto start = Clock::now();
      camc::core::sequential_min_cut_trial(camc::Context(), in.n, *in.edges,
                                           camc::core::MinCutOptions{}, gen);
      trial_ms.push_back(since(start) * 1e3);
    }
    put(m, "core.mincut_trial_ms", median(trial_ms), "ms");
  }

  // -- seq --------------------------------------------------------------------
  {
    std::vector<double> sw;
    for (const KernelInput& in : mincut_inputs) {
      const auto span = host_span(spans, "seq.stoer_wagner");
      const auto start = Clock::now();
      const auto cut = camc::seq::stoer_wagner_min_cut(in.n, *in.edges);
      sw.push_back(since(start));
      check(cut.value == in.expect);
    }
    put(m, "seq.stoer_wagner_s", median(sw), "s");
  }

  // -- svc ----------------------------------------------------------------------
  // In-process request timing comes from the workload's own service; a
  // routed workload replays its untraced window on an in-process Service
  // with the shards' rank count instead.
  std::unique_ptr<WindowResult> replay;
  if (w.routed) {
    Workload local = w;
    local.routed = false;
    const auto span = host_span(spans, "svc.in_process_replay");
    auto target = start_target(local, run.options);
    replay = std::make_unique<WindowResult>(
        run_window(target->handle(), w.trace, 0, run.untraced.outcomes.size(),
                   w.window, 1e9));
    tally("svc in-process replay", *replay, attempted, failed);
  }
  const WindowResult& in_process = w.routed ? *replay : run.traced;
  {
    std::vector<double> admit;
    for (const Outcome& o : in_process.outcomes)
      if (!o.write) admit.push_back((o.admitted_s - o.sent_s) * 1e6);
    put(m, "svc.request_ms", median(latencies_ms(in_process, false)), "ms");
    put(m, "svc.admit_us", median(admit), "us");
  }
  {
    // The same query served (request_ms) and run directly (run_s).
    const WindowResult& served = w.routed ? *replay : run.untraced;
    std::vector<double> overhead;
    const std::vector<KernelInput>& inputs =
        mincut_workload ? mincut_inputs : cc_inputs;
    for (std::size_t i = 0; i < own.size() && i < inputs.size(); ++i) {
      const std::size_t at = inputs[i].trace_index;
      if (at < served.outcomes.size() && served.outcomes[at].correct &&
          !served.outcomes[at].cached)
        overhead.push_back(served.outcomes[at].latency_ms() -
                           own[i].run_s * 1e3);
    }
    put(m, "svc.engine_overhead_ms", median(overhead), "ms");
  }
  {
    std::vector<double> parse_us, dump_us;
    const std::size_t a = run.untraced.outcomes.size();
    for (std::size_t i = 0; i < run.traced.outcomes.size() && i < kKeptResponses;
         ++i) {
      for (const std::string* line :
           {&w.trace[a + i].line, &run.traced.outcomes[i].response}) {
        if (line->empty()) continue;
        auto start = Clock::now();
        const Json parsed = Json::parse(*line);
        parse_us.push_back(since(start) * 1e6);
        start = Clock::now();
        const std::string text = parsed.dump();
        dump_us.push_back(since(start) * 1e6);
      }
    }
    put(m, "svc.json_parse_us", median(parse_us), "us");
    put(m, "svc.json_dump_us", median(dump_us), "us");
  }
  {
    const Json& b = run.stats_before;
    const Json& e = run.stats_after;
    const auto delta = [&](const char* key) {
      return static_cast<double>(e[key].as_u64() - b[key].as_u64());
    };
    const double lookups = delta("hits") + delta("misses");
    put(m, "svc.batches", delta("batches"), "count");
    put(m, "svc.batch_mean",
        delta("batches") > 0 ? delta("batched_requests") / delta("batches") : 0,
        "requests");
    put(m, "svc.cache_hit_rate", lookups > 0 ? delta("hits") / lookups : 0,
        "fraction");
    put(m, "svc.cache_invalidations", delta("cache_entries_dropped"), "count");
  }

  // -- dyn + graph ----------------------------------------------------------------
  {
    std::vector<std::vector<WeightedEdge>> edges;
    std::vector<std::unique_ptr<camc::dyn::DynCc>> cc;
    std::vector<camc::graph::FingerprintAccumulator> acc(w.graphs.size());
    for (std::size_t g = 0; g < w.graphs.size(); ++g) {
      edges.push_back(w.graphs[g].edges);
      cc.push_back(std::make_unique<camc::dyn::DynCc>(w.graphs[g].n,
                                                      edges.back()));
      for (const WeightedEdge& e : edges.back()) acc[g].add(e);
    }
    std::vector<double> add_us, remove_us, delta_us;
    std::uint64_t full = 0;
    for (std::size_t i = 0; i < w.batches.size() && i < 60; ++i) {
      const Workload::Batch& batch = w.batches[i];
      std::vector<WeightedEdge>& live = edges[batch.graph];
      auto start = Clock::now();
      for (const WeightedEdge& e : batch.edges) {
        if (batch.add)
          acc[batch.graph].add(e);
        else
          acc[batch.graph].remove(e);
      }
      acc[batch.graph].finalize(w.graphs[batch.graph].n);
      delta_us.push_back(since(start) * 1e6);
      camc::dyn::MaintainReport report;
      if (batch.add) {
        live.insert(live.end(), batch.edges.begin(), batch.edges.end());
        const auto span = host_span(spans, "dyn.add_edges");
        start = Clock::now();
        report = cc[batch.graph]->add_edges(batch.edges);
        add_us.push_back(since(start) * 1e6);
      } else {
        for (const WeightedEdge& e : batch.edges) {
          const auto it = std::find_if(live.begin(), live.end(), [&](auto& x) {
            return x.canonical() == e.canonical();
          });
          if (it != live.end()) live.erase(it);
        }
        const auto span = host_span(spans, "dyn.remove_edges");
        start = Clock::now();
        report = cc[batch.graph]->remove_edges(batch.edges, live);
        remove_us.push_back(since(start) * 1e6);
      }
      full += report.mode == camc::dyn::MaintainMode::kFullRecompute ? 1 : 0;
      check(cc[batch.graph]->components() ==
            component_count(w.graphs[batch.graph].n, live));
    }
    put(m, "dyn.add_us", median(add_us), "us");
    put(m, "dyn.remove_us", median(remove_us), "us");
    put(m, "dyn.full_rebuilds", static_cast<double>(full), "count");
    put(m, "graph.fingerprint_delta_us", median(delta_us), "us");
  }
  put(m, "graph.load_s", timed(spans, "graph.read_edge_list", 3, [&] {
        for (const Graph& g : w.graphs)
          check(camc::graph::read_edge_list_file(g.path).edges.size() ==
                g.edges.size());
      }), "s");
  put(m, "graph.fingerprint_s", timed(spans, "graph.fingerprint", 3, [&] {
        for (const Graph& g : w.graphs)
          camc::graph::graph_fingerprint(g.n, g.edges);
      }), "s");

  // -- store --------------------------------------------------------------------
  {
    std::uint64_t bytes = 0;
    const std::string store = run.dir + "/store-panel";
    std::filesystem::create_directories(store);
    const auto path = [&](const Graph& g) { return store + "/" + g.name + ".camc"; };
    put(m, "store.write_s", timed(spans, "store.write_graph", 3, [&] {
          bytes = 0;
          for (const Graph& g : w.graphs) {
            camc::store::GraphArtifact artifact{g.name, g.n, g.edges, 0};
            camc::store::write_graph(path(g), artifact);
            bytes += std::filesystem::file_size(path(g));
          }
        }), "s");
    put(m, "store.read_verify_s", timed(spans, "store.read_graph", 3, [&] {
          for (const Graph& g : w.graphs)
            check(camc::store::read_graph(path(g)).edges.size() ==
                  g.edges.size());
        }), "s");
    put(m, "store.write_bytes", static_cast<double>(bytes), "bytes");
    put(m, "store.read_bytes", static_cast<double>(bytes), "bytes");
    std::filesystem::remove_all(store);
  }

  // -- cluster ----------------------------------------------------------------------
  // The hop is paired: the same requests through the router and through an
  // in-process Service with the shards' rank count.
  {
    Workload routed = w;
    routed.routed = true;
    routed.ranks = 1;
    const std::vector<Request> writes = first_of_kind(w, true, 60);
    const std::vector<Request> queries =
        first_of_kind(w, false, mincut_workload ? 6 : 30);
    std::vector<double> write_ms[2];
    WindowResult through_router, in_process_p1;
    Json cluster_stats;
    for (const std::size_t replication : {std::size_t{2}, std::size_t{1}}) {
      Target::Options options = run.options;
      options.replication = replication;
      options.store_dir = run.dir + "/cluster-panel";
      const auto span = host_span(spans, "cluster.panel", replication);
      auto target = start_target(routed, options);
      if (replication == 2 && !w.routed) {
        through_router =
            run_window(target->handle(), queries, 0, queries.size(), 1, 1e9);
        tally("cluster queries", through_router, attempted, failed);
      }
      const WindowResult wr =
          run_window(target->handle(), writes, 0, writes.size(), 1, 1e9);
      tally("cluster writes", wr, attempted, failed);
      write_ms[replication - 1] = latencies_ms(wr, true);
      target->drain();
      if (replication == 2) cluster_stats = target->cluster_stats();
    }
    if (w.routed) {
      through_router = run.untraced;
      in_process_p1 = *replay;
      cluster_stats = run.target.cluster_stats();
    } else {
      Workload local = w;
      local.ranks = 1;
      auto target = start_target(local, run.options);
      in_process_p1 =
          run_window(target->handle(), queries, 0, queries.size(), 1, 1e9);
      tally("svc p=1 queries", in_process_p1, attempted, failed);
    }
    std::vector<double> hop;
    for (std::size_t i = 0; i < through_router.outcomes.size() &&
                            i < in_process_p1.outcomes.size();
         ++i) {
      const Outcome& r = through_router.outcomes[i];
      const Outcome& l = in_process_p1.outcomes[i];
      if (!r.write && r.correct && l.correct)
        hop.push_back(r.latency_ms() - l.latency_ms());
    }
    put(m, "cluster.request_ms", median(latencies_ms(through_router, false)),
        "ms");
    put(m, "cluster.hop_ms", median(hop), "ms");
    put(m, "cluster.fanout_ms", median(write_ms[1]) - median(write_ms[0]),
        "ms");
    for (const char* key : {"restarts", "reroutes", "degraded"})
      put(m, std::string("cluster.") + key,
          static_cast<double>(cluster_stats[key].as_u64()), "count");
  }
  return m;
}

}  // namespace perfbench
