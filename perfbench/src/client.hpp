#pragma once

// Client side of the benchmark: one load-generator thread driving a
// handle_line entry point in a closed loop with a fixed window of
// outstanding requests, timing every request from the client, and the
// checker that scores each answer against its precomputed expectation.

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// One request of a trace, with the answer the checker expects.
struct Request {
  std::string line;  ///< protocol line; its "id" is the trace index
  std::string graph;
  bool write = false;  ///< add_edges / remove_edges
  /// cc: component count; min_cut: cut value; write: the "components"
  /// the write reports.
  std::uint64_t expect = 0;
};

/// The entry point under test: handle_line(line, emit) of svc::Service or
/// cluster::Cluster. emit may run on any thread, before or after the call
/// returns.
using Emit = std::function<void(const std::string&)>;
using HandleLine = std::function<void(const std::string&, const Emit&)>;

inline constexpr std::size_t kKeptResponses = 2000;

inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

/// What the client saw of one request.
struct Outcome {
  double sent_s = 0.0;      ///< since the window started
  double admitted_s = 0.0;  ///< handle_line returned
  double received_s = 0.0;  ///< response emitted
  bool write = false;
  bool answered = false;
  bool correct = false;  ///< status ok and the expected answer
  bool cached = false;
  /// The response line, kept for wrong answers and the first
  /// kKeptResponses requests of a window.
  std::string response;
  double latency_ms() const {
    return correct ? (received_s - sent_s) * 1e3 : kFailedLatency;
  }
};

struct WindowResult {
  std::vector<Outcome> outcomes;  ///< one per issued request, trace order
  double wall_s = 0.0;            ///< first send to last response
};

/// Sends trace[first, first + max_requests) in order, keeping `window`
/// requests outstanding, until `seconds` pass or the requests run out;
/// then waits (bounded) for every outstanding answer and checks them all.
/// With `traced`, queries ask for a traced execution ("trace":true); those
/// lines are rewritten before the window starts.
WindowResult run_window(const HandleLine& handle,
                        const std::vector<Request>& trace, std::size_t first,
                        std::size_t max_requests, std::size_t window,
                        double seconds, bool traced = false);

/// Sends one line and waits for its response (set-up and control ops).
/// Throws std::runtime_error if it does not come back "ok" in time.
std::string call(const HandleLine& handle, const std::string& line,
                 double timeout_s = 120.0);

/// Nearest-rank percentile (q in [0, 1]) of a sample; NaN when empty.
double percentile(std::vector<double> values, double q);

/// The tail rule: the highest of p50/p90/p95/p99/p99.9 that leaves at
/// least 10 samples beyond it (p50 when even that does not).
double tail_quantile(std::size_t samples);

double median(std::vector<double> values);

}  // namespace perfbench
