#include "load.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace onexbench {
namespace {

/// Adds the key=value fields of one `trace ...` or `stats ...` payload
/// line to `sums` under `<prefix>.<key>`.
void SumFields(const std::string& line, const std::string& prefix,
               std::map<std::string, double>* sums) {
  for (const auto& [key, value] : onex::server::ParseKeyValues(line)) {
    (*sums)[prefix + "." + key] += std::strtod(value.c_str(), nullptr);
  }
}

void Merge(LoadResult* into, LoadResult&& from) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->shed += from.shed;
  into->inconsistent += from.inconsistent;
  into->round_qps += from.round_qps;
  auto append = [](std::vector<double>* to, const std::vector<double>& v) {
    to->insert(to->end(), v.begin(), v.end());
  };
  append(&into->latency_s, from.latency_s);
  append(&into->plain_latency_s, from.plain_latency_s);
  append(&into->traced_latency_s, from.traced_latency_s);
  for (auto& [index, payload] : from.first_payload) {
    auto [it, inserted] = into->first_payload.emplace(index, payload);
    if (!inserted && it->second != payload) ++into->inconsistent;
  }
  for (auto& entry : from.all_payloads) into->all_payloads.push_back(std::move(entry));
  if (into->first_error.empty()) into->first_error = from.first_error;
  for (const auto& [key, value] : from.sums) into->sums[key] += value;
}

double LowerQuartile(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 4];
}

constexpr double kWindowS = 0.25;

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) { return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void SpanLog::Add(uint64_t id, const std::string& name, int64_t start_ns,
                  int64_t duration_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({id, name, start_ns, duration_ns});
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    std::fprintf(out, "{\"id\":%llu,\"name\":\"%s\",\"start_ns\":%lld,\"duration_ns\":%lld}\n",
                 static_cast<unsigned long long>(span.id), span.name.c_str(),
                 static_cast<long long>(span.start_ns), static_cast<long long>(span.duration_ns));
  }
  return std::fclose(out) == 0;
}

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

void Pacer::Advance() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++done_;
  }
  cv_.notify_all();
}

void Pacer::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool Pacer::WaitFor(uint64_t n) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return done_ >= n || closed_; });
  return done_ >= n;
}

onex::Result<onex::server::WireResponse> Conn::Call(const std::string& line) {
  if (!client_) {
    onex::server::ClientOptions options;
    options.connect_timeout_ms = 2000;
    options.io_timeout_ms = 20000;
    auto connected = onex::server::Client::Connect("127.0.0.1", port_, options);
    if (!connected.ok()) return connected.status();
    client_.emplace(std::move(connected).value());
  }
  auto reply = client_->Roundtrip(line);
  if (!reply.ok()) client_.reset();
  return reply;
}

LoadResult RunLoad(const std::vector<Request>& requests, const LoadOptions& options) {
  const Clock::time_point start = Clock::now();
  auto done = [&] { return SecondsSince(start) >= options.seconds; };
  std::vector<LoadResult> per_client(options.clients);
  std::atomic<uint64_t> answered{0};
  std::atomic<size_t> running{options.clients};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < options.clients; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& out = per_client[c];
      Conn conn(options.port);
      // Clients start spread over the request list.
      size_t next = c * requests.size() / options.clients;
      const size_t first = next;
      std::vector<double> rounds;
      Clock::time_point round_start = Clock::now();
      const Clock::time_point client_start = round_start;
      while (options.pace != nullptr ? options.pace->WaitFor(out.attempted + 1) : !done()) {
        if (next == first && out.attempted > 0) {
          rounds.push_back(SecondsSince(round_start));
          round_start = Clock::now();
        }
        const size_t index = next;
        next = (next + 1) % requests.size();
        const Request& request = requests[index];
        bool traced = options.trace == 1;
        if (options.trace == 2) {
          traced = static_cast<int64_t>(SecondsSince(start) * 4) % 2 == 1;
        }
        const uint64_t id = traced ? Spans().NextId() : 0;
        ++out.attempted;
        const int64_t sent_ns = NowNs();
        const Clock::time_point sent = Clock::now();
        auto reply = conn.Call(traced ? request.traced : request.plain);
        const double seconds = SecondsSince(sent);
        if (!reply.ok() || !reply.value().ok) {
          ++out.failed;
          if (reply.ok() && reply.value().code == onex::server::kOverloadedCode) ++out.shed;
          if (out.first_error.empty()) {
            out.first_error = reply.ok() ? reply.value().code + " " + reply.value().message
                                         : reply.status().ToString();
          }
          continue;
        }
        const onex::server::WireResponse& wire = reply.value();
        answered.fetch_add(1, std::memory_order_relaxed);
        out.latency_s.push_back(seconds);
        if (options.trace == 2) {
          (traced ? out.traced_latency_s : out.plain_latency_s).push_back(seconds);
        }
        if (traced) {
          Spans().Add(id, "client.roundtrip", sent_ns, static_cast<int64_t>(seconds * 1e9));
          const std::string cls = std::to_string(request.cls);
          out.sums["ops"] += 1;
          out.sums["rtt_s"] += seconds;
          out.sums["class." + cls + ".ops"] += 1;
          const auto matches = wire.header.find("matches");
          if (matches != wire.header.end()) {
            out.sums["class." + cls + ".rows"] += std::strtod(matches->second.c_str(), nullptr);
          }
          for (const std::string& line : wire.payload) {
            if (line.rfind("trace stage ", 0) == 0) {
              SumFields(line, "stage", &out.sums);
              const auto fields = onex::server::ParseKeyValues(line);
              const double exec_us = std::strtod(fields.at("exec_us").c_str(), nullptr);
              const double wait_us = std::strtod(fields.at("queue_wait_us").c_str(), nullptr);
              out.sums["class." + cls + ".exec_us"] += exec_us;
              Spans().Add(id, "server.queue_wait", sent_ns, static_cast<int64_t>(wait_us * 1e3));
              Spans().Add(id, "engine.execute", sent_ns + static_cast<int64_t>(wait_us * 1e3),
                          static_cast<int64_t>(exec_us * 1e3));
            } else if (line.rfind("trace cascade ", 0) == 0) {
              SumFields(line, "cascade", &out.sums);
              SumFields(line, "dataset." + request.dataset + ".cascade", &out.sums);
            } else if (line.rfind("stats ", 0) == 0) {
              SumFields(line, "stats", &out.sums);
            }
          }
        }
        if (options.record_all) {
          out.all_payloads.emplace_back(index, wire.payload);
          continue;
        }
        std::vector<std::string> answer;
        for (const std::string& line : wire.payload) {
          if (line.rfind("trace ", 0) != 0) answer.push_back(line);
        }
        auto [it, inserted] = out.first_payload.emplace(index, answer);
        if (!inserted && it->second != answer) ++out.inconsistent;
      }
      if (rounds.empty()) {
        out.round_qps = static_cast<double>(out.attempted) / SecondsSince(client_start);
      } else {
        std::sort(rounds.begin(), rounds.end());
        out.round_qps = static_cast<double>(requests.size()) / rounds[rounds.size() / 2];
      }
      running.fetch_sub(1);
    });
  }
  // CPU per answered request, window by window, while the clients run.
  std::vector<double> window_cpu_per_op;
  double cpu = CpuSeconds();
  uint64_t ops = 0;
  for (size_t w = 1; running.load() > 0; ++w) {
    std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(kWindowS * w)));
    const double cpu_now = CpuSeconds();
    const uint64_t ops_now = answered.load();
    if (ops_now > ops) window_cpu_per_op.push_back((cpu_now - cpu) / static_cast<double>(ops_now - ops));
    cpu = cpu_now;
    ops = ops_now;
  }
  for (std::thread& t : threads) t.join();
  LoadResult total;
  for (LoadResult& r : per_client) Merge(&total, std::move(r));
  total.cpu_per_op_s = LowerQuartile(window_cpu_per_op);
  return total;
}

std::map<std::string, double> Scrape(uint16_t port) {
  std::map<std::string, double> out;
  Conn conn(port);
  auto reply = conn.Call("metrics");
  if (!reply.ok() || !reply.value().ok) return out;
  for (const std::string& line : reply.value().payload) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

}  // namespace onexbench
