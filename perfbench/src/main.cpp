// camc_perfbench — the repository benchmark (see perfbench/README.md).
//
//   camc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --spec BENCHMARK.json --serve PATH [--commit ID]
//   camc_perfbench --self-check --spec BENCHMARK.json --serve PATH
//
// Generates the workload's graphs and request trace from --seed, starts
// the system under test through its public entry points, measures for
// --seconds with one closed-loop client, checks every answer against a
// reference computed beforehand, and prints two JSON lines on stdout: a
// report (stamp plus every measured number) and, last, the result line
// {"correct","attempted","failed","metrics"} carrying exactly the metrics
// BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer
// with --trace 1). The traced run also writes a Chrome trace of its spans
// to .bench_out/<workload>.trace.json. Progress goes to stderr.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "layers.hpp"
#include "svc/json.hpp"
#include "trace/export.hpp"
#include "workloads.hpp"

namespace {

using camc::svc::Json;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Set-up is repeated this many times per run and its median reported.
constexpr std::size_t kSetups = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_check = false;
  std::string spec = "BENCHMARK.json";
  std::string serve;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      args.self_check = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload")
      args.workload = value;
    else if (flag == "--seed")
      args.seed = std::stoull(value);
    else if (flag == "--seconds")
      args.seconds = std::stod(value);
    else if (flag == "--trace")
      args.trace = value == "1";
    else if (flag == "--spec")
      args.spec = value;
    else if (flag == "--serve")
      args.serve = value;
    else if (flag == "--commit")
      args.commit = value;
    else
      throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void put(Json& metrics, const std::string& name, double value,
         const char* unit) {
  metrics.set(name, Json::object().set("value", value).set("unit", unit));
}

/// Peak resident memory of this process plus its largest reaped child.
double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

/// Jiffies of all CPUs from /proc/stat: {total, stolen by the hypervisor}.
/// Both 0 where the file is missing.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0, steal = 0.0, value = 0.0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {total, steal};
}

/// Client-side figures of one window. The reference machine is shared with
/// other tenants whose load slows it down, by up to 2x, for seconds at a
/// time; interference only ever makes the program slower. So the window is
/// cut into about one-second slices of consecutive answers, and the
/// program's unhindered speed is read from the faster slices: throughput is
/// the upper quartile of the slices' rates of checked answers, each p50 the
/// lower quartile of the slices' medians. A window under four seconds (the
/// self-check) uses whole-window numbers. The tails use every sample.
struct ClientFigures {
  std::uint64_t attempted = 0, failed = 0;
  double throughput_rps = 0.0;
  double query_p50_ms = 0.0, write_p50_ms = 0.0;
  std::vector<double> query_ms, write_ms;
};

ClientFigures figures(const WindowResult& window) {
  ClientFigures f;
  std::vector<const Outcome*> answered;
  for (const Outcome& o : window.outcomes) {
    ++f.attempted;
    if (!o.correct && f.failed++ == 0)
      std::cerr << "perfbench: wrong answer: "
                << (o.answered ? o.response : "(none)") << "\n";
    (o.write ? f.write_ms : f.query_ms).push_back(o.latency_ms());
    if (o.answered) answered.push_back(&o);
  }
  if (window.wall_s < 4.0) {
    if (window.wall_s > 0)
      f.throughput_rps =
          static_cast<double>(f.attempted - f.failed) / window.wall_s;
    f.query_p50_ms = median(f.query_ms);
    f.write_p50_ms = median(f.write_ms);
    return f;
  }
  std::sort(answered.begin(), answered.end(),
            [](const Outcome* a, const Outcome* b) {
              return a->received_s < b->received_s;
            });
  const std::size_t slice = std::max<std::size_t>(
      4, static_cast<std::size_t>(static_cast<double>(answered.size()) /
                                  window.wall_s));
  std::vector<double> rates, query_medians, write_medians;
  double slice_start = 0.0;
  for (std::size_t begin = 0; begin + slice <= answered.size(); begin += slice) {
    double good = 0.0;
    std::vector<double> query, write;
    for (std::size_t k = begin; k < begin + slice; ++k) {
      const Outcome& o = *answered[k];
      good += o.correct ? 1.0 : 0.0;
      (o.write ? write : query).push_back(o.latency_ms());
    }
    const double end = answered[begin + slice - 1]->received_s;
    if (end > slice_start) rates.push_back(good / (end - slice_start));
    slice_start = end;
    if (!query.empty()) query_medians.push_back(median(query));
    if (!write.empty()) write_medians.push_back(median(write));
  }
  f.throughput_rps = percentile(rates, 0.75);
  f.query_p50_ms = percentile(query_medians, 0.25);
  f.write_p50_ms = percentile(write_medians, 0.25);
  return f;
}

/// A p50 and the tail of a latency sample, with the tail's percentile and
/// the sample count beside it.
void put_latency(Json& m, const std::string& prefix, double p50,
                 const std::vector<double>& ms) {
  const double q = tail_quantile(ms.size());
  put(m, prefix + "_p50_ms", p50, "ms");
  put(m, prefix + "_tail_ms", percentile(ms, q), "ms");
  put(m, prefix + "_tail_pct", q * 100.0, "%");
  put(m, prefix + "_samples", static_cast<double>(ms.size()), "count");
}

Json stamp(const Args& args, const Workload& w) {
  Json graphs = Json::array();
  for (const Graph& g : w.graphs)
    graphs.push_back(Json::object().set("name", g.name).set("shape", g.shape));
  return Json::object()
      .set("workload", w.name)
      .set("seed", args.seed)
      .set("seconds", args.seconds)
      .set("trace", args.trace)
      .set("nproc", static_cast<std::uint64_t>(
                        std::thread::hardware_concurrency()))
      .set("p", w.ranks)
      .set("shards", w.routed ? 2 : 0)
      .set("window", static_cast<std::uint64_t>(w.window))
      .set("build_type", CAMC_BUILD_TYPE)
      .set("commit", args.commit)
      .set("graphs", std::move(graphs))
      .set("trace_requests", static_cast<std::uint64_t>(w.trace.size()));
}

/// Names of the metrics BENCHMARK.json lists under `section`.
std::vector<std::string> spec_names(const std::string& spec_path,
                                    const char* section) {
  std::ifstream in(spec_path);
  if (!in) throw std::runtime_error("cannot read " + spec_path);
  std::stringstream text;
  text << in.rdbuf();
  const Json spec = Json::parse(text.str());
  std::vector<std::string> names;
  const Json& list = spec[section];
  for (std::size_t i = 0; i < list.size(); ++i)
    names.push_back(list.at(i)["name"].as_string());
  return names;
}

Json select(const Json& all, const std::vector<std::string>& names) {
  Json out = Json::object();
  for (const std::string& name : names) {
    if (!all.has(name)) throw std::runtime_error("metric " + name + " missing");
    out.set(name, all[name]);
  }
  return out;
}

struct RunResult {
  Json metrics = Json::object();
  Json diagnostics = Json::object();
  std::uint64_t attempted = 0, failed = 0;
};

/// Where the window's time went, for reading a noisy run: each graph's
/// median query latency and the checked answers completed in each second.
Json diagnostics(const Workload& w, const WindowResult& window) {
  Json out = Json::object();
  for (std::size_t q = 0; q < w.queried; ++q) {
    const Graph& g = w.graphs[q];
    std::vector<double> ms;
    for (std::size_t i = 0; i < window.outcomes.size(); ++i)
      if (w.trace[i].graph == g.name && !w.trace[i].write)
        ms.push_back(window.outcomes[i].latency_ms());
    put(out, g.name + ".latency_p50_ms", median(ms), "ms");
  }
  std::vector<std::uint64_t> per_second(
      static_cast<std::size_t>(window.wall_s) + 1, 0);
  for (const Outcome& o : window.outcomes)
    if (o.correct)
      ++per_second[std::min(per_second.size() - 1,
                            static_cast<std::size_t>(o.received_s))];
  Json series = Json::array();
  for (const std::uint64_t count : per_second) series.push_back(count);
  return out.set("answers_per_second", std::move(series));
}

/// The untraced run: set-up and the timed window; then the further
/// set-ups whose median is setup_s. Peak memory is read before
/// those, so it covers one set-up and the window, with the shards reaped.
RunResult measure(const Args& args, const Workload& w, const std::string& dir,
                  Target::Options options) {
  RunResult r;
  std::vector<double> setup;
  const auto set_up = [&] {
    options.store_dir = dir + "/store-" + std::to_string(setup.size());
    const auto start = Clock::now();
    auto target = start_target(w, options);
    setup.push_back(since(start));
    return target;
  };
  auto target = set_up();
  std::cerr << "perfbench: " << w.name << " set up; measuring "
            << args.seconds << " s\n";
  const Json before = summed_stats(target->service_stats());
  const auto jiffies_before = cpu_jiffies();
  const WindowResult window = run_window(target->handle(), w.trace, 0,
                                         w.trace.size(), w.window, args.seconds);
  const auto jiffies_after = cpu_jiffies();
  if (window.outcomes.size() == w.trace.size())
    std::cerr << "perfbench: warning: trace exhausted before the deadline\n";
  target->drain();
  const Json after = summed_stats(target->service_stats());
  const Json cluster = target->cluster_stats();
  target.reset();
  const double rss = peak_rss_mb();
  while (setup.size() < kSetups) set_up();

  const ClientFigures f = figures(window);
  r.diagnostics = diagnostics(w, window);
  // The share of CPU time the hypervisor took from this machine during the
  // window: a run with much of it measured the host, not the program.
  const double jiffies = jiffies_after.first - jiffies_before.first;
  if (jiffies > 0)
    r.diagnostics.set("host_steal_fraction",
                      (jiffies_after.second - jiffies_before.second) / jiffies);
  for (const auto& [key, value] : after.members())
    r.diagnostics.set("service." + key, value.as_u64() - before[key].as_u64());
  Json setups = Json::array();
  for (const double seconds : setup) setups.push_back(seconds);
  r.diagnostics.set("setup_runs_s", std::move(setups));
  r.attempted = f.attempted;
  r.failed = f.failed;
  put(r.metrics, "setup_s", median(setup), "s");
  put(r.metrics, "throughput_rps", f.throughput_rps, "req/s");
  put_latency(r.metrics, "latency", f.query_p50_ms, f.query_ms);
  put_latency(r.metrics, "write_latency", f.write_p50_ms, f.write_ms);
  put(r.metrics, "error_rate",
      static_cast<double>(f.failed) / static_cast<double>(f.attempted),
      "fraction");
  put(r.metrics, "peak_rss_mb", rss, "MB");
  if (cluster.is_object())
    for (const char* key : {"restarts", "reroutes", "degraded"})
      put(r.metrics, std::string("cluster.") + key,
          static_cast<double>(cluster[key].as_u64()), "count");
  return r;
}

/// The traced run: an untraced window A, then window B over the next part
/// of the trace with traced executions (half the run each), then the
/// per-layer panels.
RunResult measure_traced(const Args& args, const Workload& w,
                         const std::string& dir, Target::Options options) {
  RunResult r;
  options.store_dir = dir + "/store";
  auto target = start_target(w, options);
  const Json before = summed_stats(target->service_stats());
  const WindowResult a = run_window(target->handle(), w.trace, 0,
                                    w.trace.size(), w.window, args.seconds / 2);
  const WindowResult b =
      run_window(target->handle(), w.trace, a.outcomes.size(), w.trace.size(),
                 w.window, args.seconds / 2, /*traced=*/true);
  target->drain();
  const Json after = summed_stats(target->service_stats());
  std::cerr << "perfbench: " << w.name << " windows done; layer panels\n";

  Spans spans;
  record_requests(b, spans.requests);
  const TracedRun run{w, *target, options, dir, a, b, before, after};
  r.metrics = layer_metrics(run, spans, args.seed, r.attempted, r.failed);
  target.reset();

  const ClientFigures fa = figures(a), fb = figures(b);
  r.diagnostics.set("window_a", diagnostics(w, a));
  r.diagnostics.set("window_b", diagnostics(w, b));
  r.attempted += fa.attempted + fb.attempted;
  r.failed += fa.failed + fb.failed;
  put(r.metrics, "trace_overhead_pct",
      (fa.throughput_rps - fb.throughput_rps) / fa.throughput_rps * 100.0,
      "%");
  put(r.metrics, "error_rate",
      static_cast<double>(r.failed) / static_cast<double>(r.attempted),
      "fraction");
  put_latency(r.metrics, "latency", fa.query_p50_ms, fa.query_ms);
  put_latency(r.metrics, "write_latency", fa.write_p50_ms, fa.write_ms);

  const std::string trace_path = ".bench_out/" + w.name + ".trace.json";
  std::ofstream out(trace_path);
  camc::trace::write_chrome_trace({&spans.host, &spans.ranks, &spans.requests},
                                  out);
  if (!out) throw std::runtime_error("cannot write " + trace_path);
  return r;
}

/// Runs every workload once at tiny size, then again with one expected
/// answer deliberately wrong: the checker must count exactly that one.
int self_check(const Args& args, const Target::Options& options) {
  bool ok = true;
  for (const std::string& name : workload_names()) {
    for (const bool corrupt : {false, true}) {
      const std::string dir = ".bench_out/self-check-" + name;
      std::filesystem::create_directories(dir);
      Workload w = make_workload(name, args.seed, 1.0, /*tiny=*/true, dir);
      if (corrupt) w.trace[1].expect += 1;
      Args tiny = args;
      tiny.seconds = 1.0;
      const RunResult r = measure(tiny, w, dir, options);
      std::filesystem::remove_all(dir);
      const std::uint64_t want = corrupt ? 1 : 0;
      const bool pass = r.failed == want &&
                        (r.metrics["error_rate"]["value"].as_double() > 0) ==
                            corrupt;
      std::cout << Json::object()
                       .set("self_check", name)
                       .set("corrupted_expectation", corrupt)
                       .set("attempted", r.attempted)
                       .set("failed", r.failed)
                       .set("pass", pass)
                       .dump()
                << "\n";
      ok = ok && pass;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Target::Options options;
    options.serve_path = args.serve;
    std::filesystem::create_directories(".bench_out");
    if (args.self_check) return self_check(args, options);

    const std::vector<std::string> names =
        spec_names(args.spec, args.trace ? "per_layer" : "end_to_end");
    const std::string dir = ".bench_out/" + args.workload + "-" +
                            std::to_string(args.seed) + "-" +
                            std::to_string(getpid());
    std::filesystem::create_directories(dir);
    const Workload w =
        make_workload(args.workload, args.seed, args.seconds, false, dir);
    const RunResult r = args.trace ? measure_traced(args, w, dir, options)
                                   : measure(args, w, dir, options);
    std::filesystem::remove_all(dir);

    std::cout << Json::object()
                     .set("stamp", stamp(args, w))
                     .set("all_metrics", r.metrics)
                     .set("diagnostics", r.diagnostics)
                     .dump()
              << "\n";
    std::cout << Json::object()
                     .set("correct", r.failed == 0)
                     .set("attempted", r.attempted)
                     .set("failed", r.failed)
                     .set("metrics", select(r.metrics, names))
                     .dump()
              << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: error: " << error.what() << "\n";
    return 1;
  }
}
