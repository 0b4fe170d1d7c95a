// Closed-loop client load over the ONEX wire protocol, and the span log
// of the traced run.
//
// A load runs `clients` threads against one port. Each thread owns one
// connection with finite connect and IO timeouts, sends a request,
// waits for the whole reply, and only then sends the next — the way an
// interactive front end drives a node. A transport error, a timeout or
// an ERR reply (OVERLOADED included) counts as a failed operation; the
// connection is redialed and the loop goes on, so one stall cannot
// wedge a run.

#ifndef ONEXBENCH_LOAD_H_
#define ONEXBENCH_LOAD_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"

namespace onexbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
int64_t NowNs();
/// CPU seconds this process has used, every thread, user and system.
/// Time the hypervisor steals from the host's vCPUs is not in it.
double CpuSeconds();

/// Spans recorded by the benchmark around calls into each layer. Spans
/// of one request share its id. Only the traced run records.
class SpanLog {
 public:
  struct Span {
    uint64_t id;
    std::string name;
    int64_t start_ns;
    int64_t duration_ns;
  };
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(uint64_t id, const std::string& name, int64_t start_ns, int64_t duration_ns);
  /// Writes one JSON object per line; false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;
  size_t size() const;

 private:
  bool enabled_ = false;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

SpanLog& Spans();

/// Times `fn` as one span named `name` under request `id` (when tracing).
template <class Fn>
auto Traced(uint64_t id, const char* name, Fn&& fn) {
  const int64_t start = NowNs();
  auto result = fn();
  if (Spans().enabled()) Spans().Add(id, name, start, NowNs() - start);
  return result;
}

/// One connection that redials after a transport failure.
class Conn {
 public:
  explicit Conn(uint16_t port) : port_(port) {}
  onex::Result<onex::server::WireResponse> Call(const std::string& line);

 private:
  uint16_t port_;
  std::optional<onex::server::Client> client_;
};

/// One request of a load: the plain and the `trace=1` rendering.
struct Request {
  std::string plain;
  std::string traced;
  int cls = 0;  ///< Query class index (see kClassNames in main.cc).
  std::string dataset;
};

/// What a load saw, summed over its clients.
struct LoadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;  ///< OVERLOADED replies (also counted in failed).
  /// Throughput: per client, requests per median round (one round =
  /// one pass over the whole request list), summed over clients. The
  /// median over rounds keeps a short burst of host noise out of it.
  double round_qps = 0;
  /// Process CPU seconds per answered request, taken per quarter-second
  /// window of the load and reported as the lower quartile over the
  /// windows. Other tenants of the host only ever make a window slower,
  /// so the faster windows show the program's own cost.
  double cpu_per_op_s = 0;
  std::vector<double> latency_s;         ///< Every successful op.
  std::vector<double> plain_latency_s;   ///< Untraced ops of the traced run.
  std::vector<double> traced_latency_s;  ///< Traced ops of the traced run.
  /// First reply payload per request index (consistent answers), or
  /// every reply in order (answers over a changing base).
  std::map<size_t, std::vector<std::string>> first_payload;
  std::vector<std::pair<size_t, std::vector<std::string>>> all_payloads;
  /// Later replies that differed from the first reply of their request.
  uint64_t inconsistent = 0;
  std::string first_error;
  /// Summed program-reported figures of traced replies.
  std::map<std::string, double> sums;
};

/// Paces readers by a writer: a paced client sends its n-th request only
/// once the writer has finished n operations, so the work a run does is
/// fixed by the writer's count, not by how fast the host happens to be.
class Pacer {
 public:
  void Advance();
  /// Stops waiting clients once they have caught up.
  void Close();
  /// Blocks until `n` writer operations are done (true) or the writer
  /// has closed with fewer (false).
  bool WaitFor(uint64_t n);

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  uint64_t done_ = 0;
  bool closed_ = false;
};

struct LoadOptions {
  uint16_t port = 0;
  size_t clients = 1;
  /// Stop once this much time has passed.
  double seconds = 0;
  /// When set, replaces the time limit: each client sends one request
  /// per writer operation and ends when the pacer closes.
  Pacer* pace = nullptr;
  /// 0 = never trace, 1 = trace every op, 2 = alternate quarter-second
  /// slots of untraced and traced ops (the overhead comparison).
  int trace = 0;
  /// Keep every reply (the base changes under the load) instead of
  /// comparing each reply with the first one of its request.
  bool record_all = false;
};

LoadResult RunLoad(const std::vector<Request>& requests, const LoadOptions& options);

/// One METRICS scrape flattened to sample name (labels included) -> value.
std::map<std::string, double> Scrape(uint16_t port);

}  // namespace onexbench

#endif  // ONEXBENCH_LOAD_H_
