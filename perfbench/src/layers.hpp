#pragma once

// The traced run's per-layer panels: direct calls into each module's
// public functions, each wrapped in a benchmark span, plus the program's
// own stats counters. Nothing here is traced inside the program.

#include <string>

#include "client.hpp"
#include "svc/json.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct TracedRun {
  const Workload& workload;
  Target& target;                ///< the workload's own, after both windows
  const Target::Options& options;  ///< for the extra panel targets
  const std::string& dir;        ///< scratch space inside the output dir
  const WindowResult& untraced;  ///< window A: trace[0, a)
  const WindowResult& traced;    ///< window B: trace[a, a + b), traced
  camc::svc::Json stats_before;  ///< summed service stats before window A
  camc::svc::Json stats_after;   ///< ... and after window B
};

/// Span sinks of the traced run: host-side panel spans, request lanes,
/// and the BSP ranks' spans inside direct Machine::run calls.
struct Spans {
  camc::trace::Recorder host{1};
  camc::trace::Recorder ranks{4};
  camc::trace::Recorder requests{4};
};

/// Runs every panel and returns the per-layer metrics, {name: {value,
/// unit}}; `failed` / `attempted` count the panels' own checks.
camc::svc::Json layer_metrics(const TracedRun& run, Spans& spans,
                              std::uint64_t seed, std::uint64_t& attempted,
                              std::uint64_t& failed);

/// Sums the counters of several services' stats objects (a Service's, or
/// every shard's) into one with the fields the panels read.
camc::svc::Json summed_stats(const std::vector<camc::svc::Json>& stats);

/// Lays request spans out on non-overlapping lanes (one per outstanding
/// slot) in `recorder`.
void record_requests(const WindowResult& window, camc::trace::Recorder& out);

}  // namespace perfbench
