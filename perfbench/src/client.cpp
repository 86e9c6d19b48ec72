#include "client.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "svc/json.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Responses in arrival order, stamped on arrival. Shared with the emit
/// callback by ownership, so a response that arrives after the client gave
/// up waiting still lands somewhere valid.
struct Inbox {
  std::mutex mutex;
  std::condition_variable arrived;
  std::vector<std::pair<double, std::string>> responses;
};

void score(Outcome& outcome, const Request& request,
           const camc::svc::Json& response) {
  outcome.answered = true;
  outcome.cached = response["cached"].is_bool() && response["cached"].as_bool();
  if (!response["status"].is_string() || response["status"].as_string() != "ok")
    return;
  // Writes report "components"; min_cut "value"; cc both, and both count.
  const camc::svc::Json& result = response["result"];
  if (!result.has(request.write ? "components" : "value")) return;
  outcome.correct = true;
  for (const char* key : {"value", "components"})
    if (result.has(key))
      outcome.correct = outcome.correct && result[key].is_number() &&
                        result[key].as_u64() == request.expect;
}

}  // namespace

WindowResult run_window(const HandleLine& handle,
                        const std::vector<Request>& trace, std::size_t first,
                        std::size_t max_requests, std::size_t window,
                        double seconds, bool traced) {
  const std::size_t last = std::min(trace.size(), first + max_requests);
  std::vector<std::string> lines;
  lines.reserve(last - first);
  for (std::size_t i = first; i < last; ++i) {
    if (!traced || trace[i].write) {
      lines.push_back(trace[i].line);
      continue;
    }
    camc::svc::Json request = camc::svc::Json::parse(trace[i].line);
    lines.push_back(request.set("trace", true).dump());
  }

  const auto inbox = std::make_shared<Inbox>();
  const Clock::time_point start = Clock::now();
  const Emit stamped = [inbox, start](const std::string& line) {
    const double at = since(start);
    const std::lock_guard<std::mutex> lock(inbox->mutex);
    inbox->responses.emplace_back(at, line);
    inbox->arrived.notify_one();
  };

  WindowResult result;
  std::vector<Outcome>& outcomes = result.outcomes;
  outcomes.reserve(lines.size());
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  // A request that never answers is a failure, not a hang: give up once
  // nothing at all has arrived for this long.
  const auto silence_limit = std::chrono::seconds(120);
  std::vector<std::pair<double, std::string>> arrived;
  std::size_t next = 0;
  while (true) {
    while (next < lines.size() && next - arrived.size() < window &&
           Clock::now() < deadline) {
      outcomes.emplace_back();
      outcomes.back().write = trace[first + next].write;
      outcomes.back().sent_s = since(start);
      handle(lines[next], stamped);
      outcomes.back().admitted_s = since(start);
      ++next;
    }
    if (next == arrived.size()) break;
    std::unique_lock<std::mutex> lock(inbox->mutex);
    if (!inbox->arrived.wait_for(lock, silence_limit, [&] {
          return inbox->responses.size() > arrived.size();
        }))
      break;
    for (std::size_t k = arrived.size(); k < inbox->responses.size(); ++k)
      arrived.push_back(std::move(inbox->responses[k]));
  }

  // Check after the window: parsing and comparing add no time inside it.
  double last_arrival = 0.0;
  for (auto& [at, line] : arrived) {
    camc::svc::Json response;
    try {
      response = camc::svc::Json::parse(line);
    } catch (const std::exception&) {
      continue;
    }
    if (!response["id"].is_number()) continue;
    const std::uint64_t id = response["id"].as_u64();
    if (id < first || id >= first + outcomes.size()) continue;
    Outcome& outcome = outcomes[id - first];
    if (outcome.answered) continue;
    outcome.received_s = at;
    score(outcome, trace[id], response);
    // Memory the benchmark holds must not grow with the program's speed.
    if (!outcome.correct || id - first < kKeptResponses)
      outcome.response = std::move(line);
    line = std::string();
    last_arrival = std::max(last_arrival, at);
  }
  result.wall_s = last_arrival;
  return result;
}

std::string call(const HandleLine& handle, const std::string& line,
                 double timeout_s) {
  const auto inbox = std::make_shared<Inbox>();
  handle(line, [inbox](const std::string& response) {
    const std::lock_guard<std::mutex> lock(inbox->mutex);
    inbox->responses.emplace_back(0.0, response);
    inbox->arrived.notify_one();
  });
  std::unique_lock<std::mutex> lock(inbox->mutex);
  if (!inbox->arrived.wait_for(lock, std::chrono::duration<double>(timeout_s),
                               [&] { return !inbox->responses.empty(); }))
    throw std::runtime_error("no response to " + line);
  std::string response = inbox->responses.front().second;
  const camc::svc::Json parsed = camc::svc::Json::parse(response);
  if (!parsed["status"].is_string() || parsed["status"].as_string() != "ok")
    throw std::runtime_error("request " + line + " failed: " + response);
  return response;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double tail_quantile(std::size_t samples) {
  double best = 0.5;
  for (const double q : {0.9, 0.95, 0.99, 0.999})
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) best = q;
  return best;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

}  // namespace perfbench
