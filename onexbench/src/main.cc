// onexbench: the seeded end-to-end and per-layer benchmark of the ONEX
// stack (datagen -> Engine -> catalog/protocol/server -> WAL and delta
// checkpoints -> replica -> router).
//
//   onexbench --workload <explore-long|serve-short|ingest-durable>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir DIR]
//   onexbench --self-test
//
// Every workload runs the same phases on its own inputs, sized for the
// layer it exercises (see README.md): repeated set-up, a direct load on
// a loopback node, the same load through an in-process router, a
// scattered load over a three-shard set, and an append stream into a
// durable catalog that is then reopened and bootstrapped by a follower.
// Answers are checked against the benchmark's own oracle
// (oracle.h), never against the program's own output. The last stdout
// line is one JSON object: correct, attempted, failed and the metrics
// (end-to-end ones untraced, per-layer ones with --trace 1).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "datagen/registry.h"
#include "dataset/normalize.h"
#include "distance/dtw.h"
#include "distance/envelope.h"
#include "distance/lb_keogh.h"
#include "distance/lb_kim.h"
#include "load.h"
#include "oracle.h"
#include "router/router.h"
#include "server/catalog.h"
#include "server/protocol.h"
#include "server/replica.h"
#include "server/server.h"
#include "storage/storage.h"
#include "util/rng.h"

namespace onexbench {
namespace {

namespace fs = std::filesystem;

enum Class { kQ1Exact, kQ1Any, kQ1k, kRange, kSeasonal, kRecommend, kRefine, kNumClasses };
constexpr const char* kClassNames[kNumClasses] = {"q1_exact", "q1_any",    "q1k",   "range",
                                                  "seasonal", "recommend", "refine"};
constexpr size_t kTopK = 5;
constexpr double kRefineSt = 0.15;
constexpr double kQueryNoise = 0.02;   ///< Uniform +-noise on in-dataset queries.
constexpr size_t kQueriesPerDataset = 168;  ///< 24 of each class.
constexpr size_t kOraclePerClass = 2;  ///< Q1 exact / any queries checked exhaustively.
constexpr size_t kSetups = 25;  ///< Set-ups per run; setup_s is their median.
constexpr size_t kRepeats = 9;  ///< Reopens and bootstraps per run, reported as medians.
constexpr size_t kShards = 3;
constexpr double kStreamLimitS = 90;   ///< Appends not sent by then count as failed.

// ------------------------------------------------------------ workloads

struct DataSpec {
  std::string name;
  std::string generator;
  size_t n = 0;
  size_t len = 0;
  onex::LengthSpec lengths;
  /// Range threshold: answers stay a small share of the subsequences.
  double range_st = 0;
};

struct Workload {
  std::string name;
  std::vector<DataSpec> served;  ///< served[0] is also split into the shard set.
  size_t clients = 0;
  /// Shares of --seconds for the direct, routed and scattered loads.
  double direct = 0, routed = 0, scatter = 0;
  /// The durable dataset of the append stream; the readers query it.
  DataSpec ingest;
  size_t appends = 0;
  size_t readers = 0;
  uint64_t checkpoint_records = 0;
  uint64_t chain_length = 0;
};

/// Every workload runs every phase, since each run reports every
/// end-to-end metric, but sizes them for the layer it exercises: the
/// read loads take most of `serve-short` and `explore-long`, and a small
/// append stream rides along; `ingest-durable` streams into a base of
/// the size on which the maintenance cost and the checkpoint stalls
/// show, with shorter read loads beside it.
std::vector<Workload> Workloads() {
  const DataSpec power{"power", "ItalyPower", 60, 24, {4, 24, 4}, 0.004};
  const DataSpec ecg{"ecg", "ECG", 40, 64, {8, 64, 8}, 0.0015};
  const DataSpec small_ingest{"ingest", "ItalyPower", 60, 24, {4, 24, 4}, 0.004};
  const onex::LengthSpec long_lengths{24, 192, 24};
  Workload explore;
  explore.name = "explore-long";
  explore.served = {{"starlight-a", "StarLightCurves", 40, 192, long_lengths, 0.002},
                    {"randomwalk-a", "RandomWalk", 40, 192, long_lengths, 0.002},
                    {"starlight-b", "StarLightCurves", 40, 192, long_lengths, 0.002},
                    {"randomwalk-b", "RandomWalk", 40, 192, long_lengths, 0.002}};
  explore.clients = 2;
  explore.direct = 0.6, explore.routed = 0.2, explore.scatter = 0.2;
  explore.ingest = small_ingest;
  explore.appends = 500;
  explore.readers = 0;
  explore.checkpoint_records = 40;
  explore.chain_length = 4;

  Workload serve = explore;
  serve.name = "serve-short";
  serve.served = {power, ecg};
  serve.clients = 4;
  serve.direct = 0.4, serve.routed = 0.4, serve.scatter = 0.2;

  Workload durable = explore;
  durable.name = "ingest-durable";
  durable.ingest = {"ingest", "ECG", 100, 128, {8, 128, 8}, 0.0015};
  durable.served = {power};
  durable.clients = 4;
  durable.direct = 0.3, durable.routed = 0.3, durable.scatter = 0.2;
  durable.appends = 300;
  durable.readers = 2;
  return {explore, serve, durable};
}

// ---------------------------------------------------------------- inputs

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + salt;
  x ^= x >> 31;
  return x * 0xBF58476D1CE4E5B9ULL;
}

onex::Dataset Generate(const std::string& generator, size_t n, size_t len, uint64_t seed) {
  onex::GenOptions options;
  options.num_series = n;
  options.length = len;
  options.seed = seed;
  auto made = onex::MakeDatasetByName(generator, options);
  if (!made.ok()) {
    std::fprintf(stderr, "datagen %s: %s\n", generator.c_str(), made.status().ToString().c_str());
    std::exit(2);
  }
  onex::Dataset dataset = std::move(made).value();
  onex::MinMaxNormalize(&dataset);
  return dataset;
}

/// One served dataset: what the program receives, and the benchmark's
/// own copy of it for the checks.
struct Served {
  std::string name;
  onex::Dataset dataset;
  onex::OnexOptions options;
  Store store;
};

Served MakeServed(const std::string& name, onex::Dataset dataset, const onex::LengthSpec& lengths) {
  Served s;
  s.name = name;
  s.options.st = 0.2;
  s.options.lengths = lengths;
  for (const onex::TimeSeries& series : dataset.series()) s.store.series.push_back(series.values());
  s.store.lengths = lengths.LengthsFor(dataset.MaxLength());
  s.store.window_ratio = s.options.window_ratio;
  s.dataset = std::move(dataset);
  return s;
}

/// One query of a mix.
struct Op {
  std::string dataset;
  int cls = 0;
  std::vector<double> query;
  size_t length = 0;  ///< Requested length; 0 = any.
  uint32_t series = 0;  ///< Q2's series.
  double st = 0;
  onex::QueryRequest request;
  bool oracle = false;  ///< In the exhaustively checked subset.
};

/// The paper's mix (Sec. 6.2.1): half the queries are noisy
/// subsequences of the data, half come from fresh series of the same
/// generator; classes cycle over Q1 exact / any / k, range, Q2, Q3 and
/// refine.
std::vector<Op> MakeOps(const Served& served, const DataSpec& spec, uint64_t seed) {
  const double range_st = spec.range_st;
  onex::Rng rng(Mix(seed, 0x51));
  const onex::Dataset outside = Generate(spec.generator, kQueriesPerDataset, spec.len, Mix(seed, 0x77));
  const std::vector<size_t>& grid = served.store.lengths;
  std::vector<Op> ops;
  size_t oracle_taken[kNumClasses] = {};
  for (size_t i = 0; i < kQueriesPerDataset; ++i) {
    Op op;
    op.dataset = served.name;
    op.cls = static_cast<int>(i % kNumClasses);
    // The mix has the same shape on every seed: class, length and
    // inside/outside follow the query index; only the values are drawn.
    const size_t len = grid[(i * 3 + i / kNumClasses) % grid.size()];
    const bool inside = i % 2 == 0;
    const onex::Dataset& source = inside ? served.dataset : outside;
    const uint32_t s = static_cast<uint32_t>(rng.Uniform(source.size()));
    const size_t start = rng.Uniform(source[s].length() - len + 1);
    const auto view = source[s].Subsequence(start, len);
    op.query.assign(view.begin(), view.end());
    if (inside) {
      for (double& x : op.query) x += rng.UniformDouble(-kQueryNoise, kQueryNoise);
    }
    op.series = static_cast<uint32_t>(rng.Uniform(served.dataset.size()));
    op.length = op.cls == kQ1Any ? 0 : len;
    op.st = range_st;
    switch (op.cls) {
      case kQ1Exact: op.request = onex::BestMatchRequest{op.query, len}; break;
      case kQ1Any: op.request = onex::BestMatchRequest{op.query, 0}; break;
      case kQ1k: op.request = onex::KSimilarRequest{op.query, kTopK, len}; break;
      case kRange:
        // Alternate exact distances and Lemma-2 upper bounds.
        op.request = onex::RangeWithinRequest{op.query, range_st, len, (i / kNumClasses) % 2 == 0};
        break;
      case kSeasonal: op.request = onex::SeasonalRequest{op.series, len}; break;
      case kRecommend: op.request = onex::RecommendRequest{std::nullopt, len}; break;
      default: op.request = onex::RefineThresholdRequest{kRefineSt, len}; break;
    }
    if ((op.cls == kQ1Exact || op.cls == kQ1Any) && oracle_taken[op.cls] < kOraclePerClass) {
      op.oracle = true;
      ++oracle_taken[op.cls];
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Deterministic Fisher-Yates: any stretch of the shuffled list is a
/// fair sample of the mix, so a phase that ends mid-round is not biased
/// toward one dataset or class.
void Shuffle(std::vector<Op>* ops, uint64_t seed) {
  onex::Rng rng(seed);
  for (size_t i = ops->size(); i > 1; --i) std::swap((*ops)[i - 1], (*ops)[rng.Uniform(i)]);
}

bool MatchShaped(int cls) { return cls == kQ1Exact || cls == kQ1Any || cls == kQ1k || cls == kRange; }

size_t KeepOf(int cls) {
  if (cls == kQ1k) return kTopK;
  return cls == kRange ? static_cast<size_t>(-1) : 1;
}

Request Render(const Op& op, const std::string& dataset) {
  onex::server::RequestAttrs attrs;
  attrs.dataset = dataset;
  Request r;
  r.plain = onex::server::RenderRequestLine(op.request, attrs);
  attrs.trace = true;
  r.traced = onex::server::RenderRequestLine(op.request, attrs);
  r.cls = op.cls;
  r.dataset = dataset;
  return r;
}

// ---------------------------------------------------------------- checks

/// Checks one reply payload of `op` against the store. For the oracle
/// subset also adds the Tables 2-3 error to *accuracy_errors.
std::string CheckAnswer(const Op& op, const Store& store, const std::vector<std::string>& payload,
                        std::vector<double>* accuracy_errors) {
  if (!MatchShaped(op.cls)) {
    for (const std::string& line : payload) {
      const auto f = onex::server::ParseKeyValues(line);
      if (line.rfind("group ", 0) == 0) {
        std::string refs = f.count("refs") ? f.at("refs") : "";
        size_t at = 0;
        while (at < refs.size()) {
          const size_t comma = refs.find(',', at);
          const std::string ref = refs.substr(at, comma == std::string::npos ? std::string::npos : comma - at);
          unsigned series = 0, start = 0, length = 0;
          if (std::sscanf(ref.c_str(), "%u:%u:%u", &series, &start, &length) != 3 ||
              series != op.series || length != op.length ||
              start + length > store.series[series].size()) {
            return "seasonal group member " + ref + " is not a subsequence of the asked series/length";
          }
          at = comma == std::string::npos ? refs.size() : comma + 1;
        }
      } else if (line.rfind("recommend ", 0) == 0) {
        if (std::strtod(f.at("low").c_str(), nullptr) > std::strtod(f.at("high").c_str(), nullptr)) {
          return "recommendation interval with low > high";
        }
      } else if (line.rfind("refine ", 0) == 0) {
        if (std::strtoul(f.at("length").c_str(), nullptr, 10) != op.length) {
          return "refine row for another length";
        }
      }
    }
    return "";
  }
  std::vector<Row> rows;
  if (!ParseRows(payload, &rows)) return "malformed match row";
  std::string why = CheckRowDistances(store, op.query, rows, op.length,
                                      op.cls == kRange ? -1.0 : store.window_ratio);
  if (!why.empty()) return why;
  if (op.cls == kRange) return CheckRange(store, op.query, rows, op.st);
  why = CheckTopK(rows, KeepOf(op.cls));
  if (!why.empty() || rows.empty()) return rows.empty() ? "no match returned" : why;
  if (op.oracle) {
    const OracleAnswer best = BruteForceBest(store, op.query, op.length);
    why = CheckNotBelowOracle(best, rows);
    if (!why.empty()) return why;
    const Row& got = rows.front();
    auto sub = [&](const Row& r) {
      return std::span<const double>(store.series[r.series]).subspan(r.start, r.length);
    };
    accuracy_errors->push_back(std::fabs(AccuracyDistance(op.query, sub(got), store.window_ratio) -
                                         AccuracyDistance(op.query, sub(best.where), store.window_ratio)));
  }
  return "";
}

// ------------------------------------------------------------- reporting

struct PhaseCount {
  std::string name;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Report {
  std::vector<PhaseCount> phases;
  std::vector<std::string> problems;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> notes;

  void Phase(const std::string& name, uint64_t attempted, uint64_t failed,
             const std::string& first_error = "") {
    phases.push_back({name, attempted, failed});
    if (failed > 0 && !first_error.empty()) Note(name + ": first failure: " + first_error);
  }
  void Problem(const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    problems.push_back(what);
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

/// Sum of every labelled sample whose name starts with `prefix`.
double Family(const std::map<std::string, double>& m, const std::string& prefix) {
  double sum = 0;
  for (auto it = m.lower_bound(prefix); it != m.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    sum += it->second;
  }
  return sum;
}

std::string Format(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

/// One field of /proc/self/status, in its own unit (kB for memory).
double ProcStatus(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::strtod(line.c_str() + prefix.size(), nullptr);
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

// ------------------------------------------------------------------ stack

/// The serving stack of the read phases: one node with every served
/// dataset and the shard set, fronted by one router.
struct Stack {
  std::shared_ptr<onex::server::Catalog> catalog;
  std::unique_ptr<onex::server::Server> node;
  std::unique_ptr<onex::router::Router> router;
  double build_s = 0;
  uint64_t groups = 0;
  uint64_t subsequences = 0;

  void Stop() {
    if (router) router->Stop();
    if (node) node->Stop();
    router.reset();
    node.reset();
    catalog.reset();
  }
};

onex::Engine BuildEngine(const Served& served, Stack* stack) {
  const uint64_t id = Spans().enabled() ? Spans().NextId() : 0;
  const Clock::time_point t0 = Clock::now();
  auto built = Traced(id, "engine.build",
                      [&] { return onex::Engine::Build(served.dataset, served.options); });
  if (!built.ok()) {
    std::fprintf(stderr, "build %s: %s\n", served.name.c_str(), built.status().ToString().c_str());
    std::exit(2);
  }
  stack->build_s += SecondsSince(t0);
  const onex::BaseStats stats = built.value().base_stats();
  stack->groups += stats.num_representatives;
  stack->subsequences += stats.num_subsequences;
  return std::move(built).value();
}

bool StartStack(const std::vector<Served>& served, const std::vector<Served>& shards, Stack* stack) {
  stack->catalog = std::make_shared<onex::server::Catalog>(onex::server::CatalogOptions{});
  for (const Served& s : served) stack->catalog->Register(s.name, BuildEngine(s, stack));
  for (const Served& s : shards) stack->catalog->Register(s.name, BuildEngine(s, stack));
  onex::server::ServerOptions options;
  options.num_workers = 4;
  options.max_queue = 64;
  auto node = onex::server::Server::Start(options, stack->catalog);
  if (!node.ok()) return false;
  stack->node = std::move(node).value();
  onex::router::RouterOptions router_options;
  router_options.upstreams.push_back({"127.0.0.1", stack->node->port()});
  router_options.pool.probe_interval_ms = 60000;
  auto router = onex::router::Router::Start(router_options);
  if (!router.ok()) return false;
  stack->router = std::move(router).value();
  return true;
}

/// Samples the process thread count (and, once set, the storage stats
/// of the ingest catalog) in the background of the traced run.
class Sampler {
 public:
  Sampler() = default;
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  ~Sampler() { Stop(); }

  void Start() {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        threads_peak_ = std::max(threads_peak_.load(), ProcStatus("Threads"));
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (catalog_ != nullptr) Observe(catalog_->DurableStats());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  void Watch(const onex::server::Catalog* catalog) {
    std::lock_guard<std::mutex> lock(mutex_);
    catalog_ = catalog;
  }
  double threads_peak() const { return threads_peak_.load(); }
  uint64_t wal_records_peak = 0;
  double wal_bytes_per_row = 0;
  double lock_hold_peak_s = 0;

 private:
  void Observe(const onex::storage::StorageStats& s) {
    if (s.wal_records > wal_records_peak) {
      wal_records_peak = s.wal_records;
      wal_bytes_per_row = static_cast<double>(s.wal_bytes) / static_cast<double>(s.wal_records);
    }
    lock_hold_peak_s = std::max(lock_hold_peak_s, s.checkpoint_lock_hold_seconds);
  }
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<double> threads_peak_{0};
  std::mutex mutex_;
  const onex::server::Catalog* catalog_ = nullptr;
};

// ---------------------------------------------------------------- phases

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string work_dir = ".bench_run";
  bool self_test = false;
};

/// Per-layer figures of the traced direct load.
void QueryLayerMetrics(const LoadResult& direct, Report* r) {
  const std::map<std::string, double>& s = direct.sums;
  const double ops = std::max(1.0, Get(s, "ops"));
  r->Metric("cascade.candidates", Get(s, "cascade.seen") / ops, "count");
  r->Metric("cascade.pruned_kim", Get(s, "cascade.kim_pruned") / ops, "count");
  r->Metric("cascade.pruned_keogh", Get(s, "cascade.keogh_pruned") / ops, "count");
  r->Metric("cascade.dtw_abandoned", Get(s, "cascade.early_abandoned") / ops, "count");
  r->Metric("cascade.dtw_completed",
            (Get(s, "cascade.dtw_evaluated") - Get(s, "cascade.early_abandoned")) / ops, "count");
  const double seen = Get(s, "cascade.seen");
  r->Metric("cascade.pruning_ratio", seen > 0 ? 1.0 - Get(s, "cascade.dtw_evaluated") / seen : 0,
            "ratio");
  r->Metric("query.rep_scan_ms", Get(s, "stage.rep_scan_us") / ops / 1e3, "ms");
  r->Metric("query.member_scan_ms", Get(s, "stage.member_scan_us") / ops / 1e3, "ms");
  r->Metric("query.knn_ms", Get(s, "stage.knn_us") / ops / 1e3, "ms");
  r->Metric("query.refine_ms", Get(s, "stage.refine_us") / ops / 1e3, "ms");
  r->Metric("query.reps_compared", Get(s, "stats.reps_compared") / ops, "count");
  r->Metric("query.members_compared", Get(s, "stats.members_compared") / ops, "count");
  r->Metric("query.lemma2_admitted", Get(s, "stats.lemma2_admitted") / ops, "count");
  const std::string range = "class." + std::to_string(kRange);
  r->Metric("query.range_matches",
            Get(s, range + ".rows") / std::max(1.0, Get(s, range + ".ops")), "count");
  for (int c = 0; c < kNumClasses; ++c) {
    const std::string key = "class." + std::to_string(c);
    r->Metric(std::string("query.exec_ms.") + kClassNames[c],
              Get(s, key + ".exec_us") / std::max(1.0, Get(s, key + ".ops")) / 1e3, "ms");
  }
  r->Metric("server.queue_wait_ms", Get(s, "stage.queue_wait_us") / ops / 1e3, "ms");
  r->Metric("server.exec_ms", Get(s, "stage.exec_us") / ops / 1e3, "ms");
  r->Metric("server.wire_ms",
            (Get(s, "rtt_s") * 1e6 - Get(s, "stage.queue_wait_us") - Get(s, "stage.exec_us")) /
                ops / 1e3,
            "ms");
  r->Metric("trace.overhead_pct",
            (Mean(direct.traced_latency_s) / Mean(direct.plain_latency_s) - 1.0) * 100.0, "%");
}

/// Times the program's public distance kernels on query/candidate pairs
/// drawn from the workload's own data.
void KernelMetrics(const std::vector<Op>& ops, const std::string& dataset, const Store& store,
                   Report* r) {
  onex::Rng rng(Mix(ops.size(), 0x6B));
  struct Pair {
    std::span<const double> q, c;
    onex::Envelope envelope;
    onex::DtwOptions dtw;
    double cells;
  };
  std::vector<Pair> pairs;
  for (const Op& op : ops) {
    if (op.dataset != dataset || (op.cls != kQ1Exact && op.cls != kQ1k)) continue;
    for (int k = 0; k < 8; ++k) {
      const uint32_t s = static_cast<uint32_t>(rng.Uniform(store.series.size()));
      const size_t start = rng.Uniform(store.series[s].size() - op.length + 1);
      Pair p;
      p.q = op.query;
      p.c = std::span<const double>(store.series[s]).subspan(start, op.length);
      p.dtw = onex::DtwOptions::FromRatio(store.window_ratio, p.q.size(), p.c.size());
      p.envelope = onex::ComputeEnvelope(p.c, static_cast<size_t>(p.dtw.window));
      const long n = static_cast<long>(p.q.size()), w = p.dtw.window;
      p.cells = 0;
      for (long i = 0; i < n; ++i) p.cells += static_cast<double>(std::min(n - 1, i + w) - std::max(0L, i - w) + 1);
      pairs.push_back(std::move(p));
    }
  }
  volatile double sink = 0;
  // Runs `kernel` over every pair for ~150 ms; returns ns per call and
  // adds the DTW band cells it covered to *cells.
  auto measure = [&](auto&& kernel, double* cells) {
    const uint64_t id = Spans().NextId();
    const int64_t start = NowNs();
    size_t calls = 0;
    while (NowNs() - start < 150'000'000) {
      for (const Pair& p : pairs) {
        sink = sink + kernel(p);
        *cells += p.cells;
      }
      calls += pairs.size();
    }
    const int64_t elapsed = NowNs() - start;
    Spans().Add(id, "distance.kernel", start, elapsed);
    return static_cast<double>(elapsed) / static_cast<double>(calls);
  };
  double cells = 0, unused = 0;
  const double dtw_ns = measure([](const Pair& p) { return onex::DtwDistance(p.q, p.c, p.dtw); }, &cells);
  double cells_per_call = 0;
  for (const Pair& p : pairs) cells_per_call += p.cells / static_cast<double>(pairs.size());
  r->Metric("distance.dtw_cells_per_s", cells_per_call / (dtw_ns * 1e-9), "cells/s");
  r->Metric("distance.lb_keogh_ns",
            measure([](const Pair& p) { return onex::LbKeogh(p.q, p.envelope); }, &unused), "ns");
  r->Metric("distance.lb_kim_ns", measure([](const Pair& p) { return onex::LbKim(p.q, p.c); }, &unused),
            "ns");
  r->Metric("distance.lb_kimfl_ns",
            measure([](const Pair& p) { return onex::LbKimFl(p.q, p.c); }, &unused), "ns");
}

/// The append stream into a durable catalog with concurrent readers,
/// then reopen, follower bootstrap and the final consistent cut.
struct IngestResult {
  LoadResult readers;
  std::vector<double> append_latency_s;
  double stream_s = 0;
  uint64_t acked = 0;
  double stream_cpu_s = 0;
  std::vector<double> recovery_s, recovery_cpu_s;
  std::vector<double> catchup_s, catchup_cpu_s;
  std::vector<double> sync_s;
  uint64_t sync_rounds = 0;
  uint64_t fetched_bytes = 0;
  uint64_t replayed = 0;
  onex::storage::StorageStats after_stream;
  double delta_bytes_mean = 0;  ///< Delta artifacts on disk after the stream.
  double checkpoint_s = 0;
  double stored_ratio = 0;
};

onex::server::CatalogOptions DurableOptions(const std::string& dir, const Workload& w) {
  onex::server::CatalogOptions options;
  options.data_dir = dir;
  options.durable = true;
  options.storage.checkpoint_wal_records = w.checkpoint_records;
  options.storage.checkpoint_wal_bytes = 0;
  options.storage.max_delta_chain_length = w.chain_length;
  return options;
}

/// The durable dataset of the ingest phase and the series streamed into
/// it, in order.
struct IngestSet {
  Served base;
  std::vector<std::vector<double>> stream;
  std::vector<std::vector<double>> acked;  ///< Acknowledged, in index order.
};

IngestResult RunIngest(const Workload& w, IngestSet& set, const std::vector<Op>& reader_ops,
                       const std::string& dir, bool trace, Sampler* sampler, Report* report) {
  IngestResult out;
  const std::string& name = set.base.name;
  const std::string leader_dir = dir + "/leader";
  fs::create_directories(leader_dir);
  auto catalog = std::make_shared<onex::server::Catalog>(DurableOptions(leader_dir, w));
  {
    Stack scratch;
    catalog->Register(name, BuildEngine(set.base, &scratch));
  }
  onex::server::ServerOptions node_options;
  node_options.num_workers = 4;
  auto leader = onex::server::Server::Start(node_options, catalog);
  if (!leader.ok()) {
    report->Problem("leader node did not start: " + leader.status().ToString());
    return out;
  }
  if (trace) sampler->Watch(catalog.get());

  // Each reader sends one query per acknowledged append.
  Pacer pacer;
  std::vector<Request> requests;
  for (const Op& op : reader_ops) requests.push_back(Render(op, op.dataset));
  std::thread readers;
  if (w.readers > 0) {
    readers = std::thread([&] {
      LoadOptions options;
      options.port = leader.value()->port();
      options.clients = w.readers;
      options.pace = &pacer;
      options.trace = trace ? 1 : 0;
      options.record_all = true;
      out.readers = RunLoad(requests, options);
    });
  }
  // One writer on one connection.
  Conn writer(leader.value()->port());
  uint64_t failed = 0;
  bool bound = false;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = CpuSeconds();
  for (size_t i = 0; i < set.stream.size(); ++i) {
    if (SecondsSince(t0) > kStreamLimitS) {
      failed += set.stream.size() - i;
      break;
    }
    if (!bound) {
      auto use = writer.Call("use " + name);
      if (!use.ok() || !use.value().ok) {
        ++failed;
        continue;
      }
      bound = true;
    }
    const std::vector<double>& values = set.stream[i];
    const std::string line = onex::server::RenderAppendLine({values, 0});
    const uint64_t id = trace ? Spans().NextId() : 0;
    const Clock::time_point start = Clock::now();
    auto reply = Traced(id, "client.append", [&] { return writer.Call(line); });
    const double seconds = SecondsSince(start);
    if (!reply.ok() || !reply.value().ok) {
      ++failed;
      bound = false;
      continue;
    }
    pacer.Advance();
    out.append_latency_s.push_back(seconds);
    const auto index = reply.value().header.find("series");
    if (index == reply.value().header.end() ||
        std::strtoull(index->second.c_str(), nullptr, 10) !=
            set.base.store.series.size() + set.acked.size()) {
      report->Problem("append acknowledged at an unexpected index");
    }
    set.acked.push_back(values);
    ++out.acked;
  }
  out.stream_s = SecondsSince(t0);
  pacer.Close();
  if (readers.joinable()) readers.join();
  out.stream_cpu_s = CpuSeconds() - cpu0;
  report->Phase("ingest.append", set.stream.size(), failed);
  if (w.readers > 0) {
    report->Phase("ingest.read", out.readers.attempted, out.readers.failed, out.readers.first_error);
  }
  out.after_stream = catalog->DurableStats();
  if (trace) sampler->Watch(nullptr);
  {
    std::vector<double> deltas;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(leader_dir, ec)) {
      if (entry.path().filename().string().find(".onex.delta.") != std::string::npos) {
        deltas.push_back(static_cast<double>(entry.file_size(ec)));
      }
    }
    out.delta_bytes_mean = Mean(deltas);
  }

  // Reader answers, checked against base + every acknowledged append.
  Store grown = set.base.store;
  grown.series.insert(grown.series.end(), set.acked.begin(), set.acked.end());
  std::vector<double> unused;
  for (const auto& [index, payload] : out.readers.all_payloads) {
    Op op = reader_ops[index];
    op.oracle = false;
    const std::string why = CheckAnswer(op, grown, payload, &unused);
    if (!why.empty()) {
      report->Problem("ingest reader " + std::string(kClassNames[op.cls]) + ": " + why);
      break;
    }
  }

  // Crash-style stop: no final checkpoint, then reopen.
  leader.value()->Stop();
  leader.value().reset();
  catalog.reset();
  onex::server::CatalogOptions reopen = DurableOptions(leader_dir, w);
  reopen.storage.background_checkpointer = false;
  {
    // Catalog::DurableStats does not carry the recovery counters, so the
    // replay count comes from one open through the storage layer itself.
    auto opened = onex::storage::DurableEngine::Open(leader_dir, name, reopen.storage);
    if (opened.ok()) out.replayed = opened.value()->stats().replayed_records;
  }
  std::shared_ptr<onex::server::Catalog> reopened;
  std::shared_ptr<const onex::Engine> engine;
  uint64_t reopen_failed = 0;
  for (size_t r = 0; r < kRepeats; ++r) {
    reopened = std::make_shared<onex::server::Catalog>(reopen);
    const uint64_t id = trace ? Spans().NextId() : 0;
    const Clock::time_point start = Clock::now();
    const double cpu = CpuSeconds();
    auto acquired = Traced(id, "catalog.acquire", [&] { return reopened->Acquire(name); });
    out.recovery_cpu_s.push_back(CpuSeconds() - cpu);
    out.recovery_s.push_back(SecondsSince(start));
    engine = acquired.ok() ? acquired.value() : nullptr;
    if (engine == nullptr) ++reopen_failed;
  }
  report->Phase("ingest.reopen", kRepeats, reopen_failed);
  if (engine == nullptr) return out;
  {
    std::vector<std::vector<double>> actual;
    for (const onex::TimeSeries& s : engine->dataset().series()) actual.push_back(s.values());
    std::string why = CheckSeriesPresent(set.base.store.series, actual, 0);
    if (why.empty()) why = CheckSeriesPresent(set.acked, actual, set.base.store.series.size());
    if (!why.empty()) report->Problem("after reopen: " + why);
  }

  auto leader2 = onex::server::Server::Start(node_options, reopened);
  if (!leader2.ok()) {
    report->Problem("reopened leader did not start");
    return out;
  }
  const uint64_t series_total = set.base.store.series.size() + set.acked.size();
  uint64_t sync_failed = 0;
  for (size_t r = 0; r < kRepeats; ++r) {
    const std::string follower_dir = dir + "/follower" + std::to_string(r);
    fs::create_directories(follower_dir);
    onex::server::CatalogOptions follower_options;
    follower_options.data_dir = follower_dir;
    follower_options.durable = true;
    follower_options.read_only = true;
    follower_options.storage.background_checkpointer = false;
    auto follower = std::make_shared<onex::server::Catalog>(follower_options);
    onex::server::ReplicaOptions replica;
    replica.leader_port = leader2.value()->port();
    replica.data_dir = follower_dir;
    replica.poll_interval_s = 3600;
    onex::server::ReplicaSyncer syncer(replica, follower.get());
    const uint64_t id = trace ? Spans().NextId() : 0;
    const Clock::time_point start = Clock::now();
    const double cpu = CpuSeconds();
    uint64_t rounds = 0;
    bool synced = false;
    while (!synced && rounds < 5) {
      const Clock::time_point round = Clock::now();
      const onex::Status status = Traced(id, "replica.sync_once", [&] { return syncer.SyncOnce(); });
      out.sync_s.push_back(SecondsSince(round));
      ++rounds;
      synced = status.ok() && syncer.status().last_applied_seq >= series_total;
    }
    auto acquired = Traced(id, "catalog.acquire", [&] { return follower->Acquire(name); });
    out.catchup_cpu_s.push_back(CpuSeconds() - cpu);
    out.catchup_s.push_back(SecondsSince(start));
    if (!synced || !acquired.ok()) {
      ++sync_failed;
      continue;
    }
    if (r > 0) continue;
    out.sync_rounds = rounds;
    out.fetched_bytes = DirBytes(follower_dir);
    // Follower answers equal leader answers on the check queries.
    auto body = [](const onex::QueryResponse& resp) {
      const std::string text = onex::server::RenderResponse(resp);
      return text.substr(text.find('\n'));
    };
    for (const Op& op : reader_ops) {
      auto a = engine->Execute(op.request, onex::ExecContext{});
      auto b = acquired.value()->Execute(op.request, onex::ExecContext{});
      if (!a.ok() || !b.ok() || body(a.value()) != body(b.value())) {
        report->Problem(std::string("follower answer differs from leader on ") + kClassNames[op.cls]);
        break;
      }
    }
  }
  report->Phase("ingest.catchup", kRepeats, sync_failed);

  {
    const uint64_t id = trace ? Spans().NextId() : 0;
    const Clock::time_point start = Clock::now();
    auto cut = Traced(id, "catalog.checkpoint_all", [&] { return reopened->CheckpointAll(); });
    out.checkpoint_s = SecondsSince(start);
    report->Phase("ingest.checkpoint", 1, cut.ok() ? 0 : 1);
  }
  double user_values = 0;
  for (const auto& v : set.base.store.series) user_values += static_cast<double>(v.size());
  for (const auto& v : set.acked) user_values += static_cast<double>(v.size());
  out.stored_ratio = static_cast<double>(DirBytes(leader_dir)) / (user_values * sizeof(double));
  leader2.value()->Stop();
  return out;
}

/// engine.append_ms and storage.append_ms: the same series appended to
/// a memory-only engine and through Catalog::Append to a durable one.
void AppendLayerMetrics(const Workload& w, const Served& base,
                        const std::vector<std::vector<double>>& stream, const std::string& dir,
                        Report* r) {
  const size_t count = std::min<size_t>(100, stream.size());
  Stack scratch;
  onex::Engine memory = BuildEngine(base, &scratch);
  std::vector<double> engine_s, storage_s;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t id = Spans().NextId();
    const Clock::time_point t0 = Clock::now();
    const onex::Status st = Traced(id, "engine.append_series",
                                   [&] { return memory.AppendSeries(onex::TimeSeries(stream[i])); });
    engine_s.push_back(SecondsSince(t0));
    if (!st.ok()) r->Problem("memory append failed: " + st.ToString());
  }
  const std::string side = dir + "/side";
  fs::create_directories(side);
  {
    onex::server::Catalog catalog(DurableOptions(side, w));
    catalog.Register(base.name, BuildEngine(base, &scratch));
    for (size_t i = 0; i < count; ++i) {
      const uint64_t id = Spans().NextId();
      const Clock::time_point t0 = Clock::now();
      auto appended = Traced(id, "catalog.append",
                             [&] { return catalog.Append(base.name, onex::TimeSeries(stream[i])); });
      storage_s.push_back(SecondsSince(t0));
      if (!appended.ok()) r->Problem("durable append failed: " + appended.status().ToString());
    }
  }
  r->Metric("engine.append_ms", Mean(engine_s) * 1e3, "ms");
  r->Metric("storage.append_ms", Mean(storage_s) * 1e3, "ms");
}

int Run(const Args& args) {
  const std::vector<Workload> all = Workloads();
  const auto found = std::find_if(all.begin(), all.end(),
                                  [&](const Workload& w) { return w.name == args.workload; });
  if (found == all.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  if (args.trace) Spans().Enable();
  Report report;
  const std::string dir = args.work_dir + "/" + w.name + "-" + std::to_string(getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);

  for (const std::string& dead : SelfTest()) report.Problem("self-test: check '" + dead + "' is dead");

  // Inputs: every generator seed derives from --seed.
  std::vector<Served> served;
  std::vector<Op> ops;
  for (size_t d = 0; d < w.served.size(); ++d) {
    const DataSpec& spec = w.served[d];
    served.push_back(MakeServed(spec.name, Generate(spec.generator, spec.n, spec.len, Mix(args.seed, d)),
                                spec.lengths));
  }
  for (size_t d = 0; d < served.size(); ++d) {
    const std::vector<Op> more = MakeOps(served[d], w.served[d], Mix(args.seed, 100 + d));
    ops.insert(ops.end(), more.begin(), more.end());
  }
  Shuffle(&ops, Mix(args.seed, 300));
  // The shard set: every served dataset shaped like the first one, its
  // series dealt round-robin to three shards.
  auto shardable = [&](size_t d) {
    return w.served[d].len == w.served[0].len && w.served[d].lengths.min_length == w.served[0].lengths.min_length &&
           w.served[d].lengths.step == w.served[0].lengths.step;
  };
  std::vector<onex::Dataset> parts(kShards);
  size_t dealt = 0;
  for (size_t d = 0; d < served.size(); ++d) {
    if (!shardable(d)) continue;
    for (const onex::TimeSeries& series : served[d].dataset.series()) parts[dealt++ % kShards].Add(series);
  }
  std::vector<Served> shards;
  for (size_t k = 0; k < kShards; ++k) {
    shards.push_back(MakeServed("shard-" + std::to_string(k), std::move(parts[k]), w.served[0].lengths));
  }
  std::vector<Op> scatter_ops;
  for (const Op& op : ops) {
    const size_t d = static_cast<size_t>(
        std::find_if(served.begin(), served.end(), [&](const Served& x) { return x.name == op.dataset; }) -
        served.begin());
    if (shardable(d) && MatchShaped(op.cls)) scatter_ops.push_back(op);
  }
  IngestSet ingest_set;
  ingest_set.base = MakeServed(w.ingest.name,
                               Generate(w.ingest.generator, w.ingest.n, w.ingest.len, Mix(args.seed, 200)),
                               w.ingest.lengths);
  std::vector<Op> reader_ops = MakeOps(ingest_set.base, w.ingest, Mix(args.seed, 210));
  const onex::Dataset appended = Generate(w.ingest.generator, w.appends, w.ingest.len, Mix(args.seed, 220));
  for (const onex::TimeSeries& series : appended.series()) ingest_set.stream.push_back(series.values());
  Shuffle(&reader_ops, Mix(args.seed, 301));

  Sampler sampler;
  if (args.trace) sampler.Start();

  // Set-up, several times; the last stack serves the read phases.
  Stack stack;
  std::vector<double> setup_s, setup_cpu_s;
  uint64_t setup_failed = 0;
  for (size_t r = 0; r < kSetups; ++r) {
    stack.Stop();
    stack = Stack();
    const Clock::time_point t0 = Clock::now();
    const double cpu = CpuSeconds();
    if (!StartStack(served, shards, &stack)) ++setup_failed;
    setup_cpu_s.push_back(CpuSeconds() - cpu);
    setup_s.push_back(SecondsSince(t0));
  }
  report.Phase("setup", kSetups, setup_failed);
  if (setup_failed > 0) {
    report.Problem("stack did not start");
    return 1;
  }

  std::vector<Request> requests;
  for (const Op& op : ops) requests.push_back(Render(op, op.dataset));
  std::vector<Request> scatter_requests;
  for (const Op& op : scatter_ops) scatter_requests.push_back(Render(op, "shard-*"));

  LoadOptions load;
  load.clients = w.clients;
  load.port = stack.node->port();
  load.seconds = args.seconds * w.direct;
  load.trace = args.trace ? 2 : 0;
  const LoadResult direct = RunLoad(requests, load);
  report.Phase("direct", direct.attempted, direct.failed, direct.first_error);

  const auto node_before = args.trace ? Scrape(stack.node->port()) : std::map<std::string, double>{};
  const auto router_before = args.trace ? Scrape(stack.router->port()) : std::map<std::string, double>{};
  load.port = stack.router->port();
  load.seconds = args.seconds * w.routed;
  load.trace = args.trace ? 1 : 0;
  const LoadResult routed = RunLoad(requests, load);
  report.Phase("routed", routed.attempted, routed.failed, routed.first_error);
  const auto node_after = args.trace ? Scrape(stack.node->port()) : std::map<std::string, double>{};
  const auto router_after = args.trace ? Scrape(stack.router->port()) : std::map<std::string, double>{};

  load.seconds = args.seconds * w.scatter;
  const LoadResult scattered = RunLoad(scatter_requests, load);
  report.Phase("scatter", scattered.attempted, scattered.failed, scattered.first_error);

  // Off the timed path: one reference answer per request, checked by the
  // oracle; every timed reply must equal it.
  std::vector<double> accuracy_errors;
  uint64_t reference_failed = 0;
  {
    Conn conn(stack.node->port());
    std::map<std::string, size_t> range_sizes;
    for (size_t i = 0; i < ops.size(); ++i) {
      auto reply = conn.Call(requests[i].plain);
      if (!reply.ok() || !reply.value().ok) {
        ++reference_failed;
        continue;
      }
      const std::vector<std::string>& payload = reply.value().payload;
      const Served& s = *std::find_if(served.begin(), served.end(),
                                      [&](const Served& x) { return x.name == ops[i].dataset; });
      const std::string why = CheckAnswer(ops[i], s.store, payload, &accuracy_errors);
      if (!why.empty()) report.Problem(ops[i].dataset + " " + kClassNames[ops[i].cls] + ": " + why);
      if (ops[i].cls == kRange) {
        range_sizes[ops[i].dataset] += std::strtoull(reply.value().header.at("matches").c_str(), nullptr, 10);
      }
      for (const LoadResult* phase : {&direct, &routed}) {
        const auto it = phase->first_payload.find(i);
        if (it == phase->first_payload.end()) continue;
        const std::string diff = CheckSamePayload(payload, it->second);
        if (!diff.empty()) {
          report.Problem(std::string(phase == &direct ? "direct" : "routed") + " answer differs: " + diff);
        }
      }
    }
    for (const auto& [name, total] : range_sizes) {
      const auto spec = std::find_if(w.served.begin(), w.served.end(),
                                     [&](const DataSpec& d) { return d.name == name; });
      report.Note("range answers on " + name +
                  Format(": %.1f rows per query (st %.4g)",
                         static_cast<double>(total) / (kQueriesPerDataset / kNumClasses), spec->range_st));
    }
    for (size_t j = 0; j < scatter_ops.size(); ++j) {
      const auto it = scattered.first_payload.find(j);
      if (it == scattered.first_payload.end()) continue;
      std::vector<std::vector<Row>> per_shard;
      for (size_t k = 0; k < kShards; ++k) {
        Op op = scatter_ops[j];
        op.oracle = false;
        auto reply = conn.Call(Render(op, shards[k].name).plain);
        if (!reply.ok() || !reply.value().ok) {
          ++reference_failed;
          break;
        }
        const std::string why = CheckAnswer(op, shards[k].store, reply.value().payload, &accuracy_errors);
        if (!why.empty()) report.Problem(shards[k].name + " " + kClassNames[op.cls] + ": " + why);
        per_shard.emplace_back();
        ParseRows(reply.value().payload, &per_shard.back());
      }
      if (per_shard.size() != kShards) continue;
      std::vector<Row> rows;
      if (!ParseRows(it->second, &rows)) {
        report.Problem("scatter: malformed match row");
        continue;
      }
      const std::string why = CheckScatter(per_shard, rows, KeepOf(scatter_ops[j].cls));
      if (!why.empty()) report.Problem(std::string("scatter ") + kClassNames[scatter_ops[j].cls] + ": " + why);
    }
  }
  report.Phase("reference", ops.size() + scatter_ops.size() * kShards, reference_failed);
  for (const LoadResult* phase : {&direct, &routed, &scattered}) {
    if (phase->inconsistent > 0) report.Problem("a request got two different answers in one phase");
  }
  const double build_s = stack.build_s;
  const uint64_t groups = stack.groups;
  const uint64_t subsequences = stack.subsequences;
  stack.Stop();

  const IngestResult ingest =
      RunIngest(w, ingest_set, reader_ops, dir, args.trace, &sampler, &report);

  // ---- metrics
  if (!args.trace) {
    report.Metric("setup_s", Quantile(setup_cpu_s, 0.5), "s");
    report.Metric("peak_rss_mb", ProcStatus("VmHWM") / 1024.0, "MB");
    report.Metric("query_cpu_ms", direct.cpu_per_op_s * 1e3, "ms");
    report.Metric("routed_cpu_ms", routed.cpu_per_op_s * 1e3, "ms");
    report.Metric("scatter_p99_ms", Quantile(scattered.latency_s, 0.99) * 1e3, "ms");
    report.Metric("q1_accuracy_pct", (1.0 - Mean(accuracy_errors)) * 100.0, "%");
    report.Metric("append_cpu_ms", ingest.stream_cpu_s * 1e3 / std::max<uint64_t>(1, ingest.acked), "ms");
    report.Metric("recovery_s", Quantile(ingest.recovery_cpu_s, 0.5), "s");
    report.Metric("catchup_s", Quantile(ingest.catchup_cpu_s, 0.5), "s");
    report.Metric("stored_bytes_per_user_byte", ingest.stored_ratio, "ratio");
  }
  // Wall-clock figures: printed on every run, not gated (see README).
  for (const auto& [name, r] : {std::pair<const char*, const LoadResult*>{"direct", &direct},
                                {"routed", &routed},
                                {"scatter", &scattered},
                                {"ingest readers", &ingest.readers}}) {
    if (r->latency_s.empty()) continue;
    report.Note(std::string("wall ") + name +
                Format(": %.1f queries/s, p50 %.3f ms, p99 %.3f ms", r->round_qps,
                       Quantile(r->latency_s, 0.5) * 1e3, Quantile(r->latency_s, 0.99) * 1e3) +
                Format(" over %.0f samples", r->latency_s.size()));
  }
  report.Note(Format("wall appends: %.1f rows/s, p50 %.3f ms", ingest.acked / ingest.stream_s,
                     Quantile(ingest.append_latency_s, 0.5) * 1e3) +
              Format(", p99 %.3f ms over %.0f samples", Quantile(ingest.append_latency_s, 0.99) * 1e3,
                     ingest.append_latency_s.size()));
  report.Note(Format("wall set-up %.4f s, recovery %.4f s, catchup %.4f s", Quantile(setup_s, 0.5),
                     Quantile(ingest.recovery_s, 0.5), Quantile(ingest.catchup_s, 0.5)));
  if (args.trace) {
    QueryLayerMetrics(direct, &report);
    KernelMetrics(ops, served[0].name, served[0].store, &report);
    AppendLayerMetrics(w, ingest_set.base, ingest_set.stream, dir, &report);
    report.Metric("build.engine_s", build_s, "s");
    report.Metric("build.groups", static_cast<double>(groups), "count");
    report.Metric("build.subsequences", static_cast<double>(subsequences), "count");
    report.Metric("server.shed", static_cast<double>(direct.shed + routed.shed + scattered.shed), "count");
    report.Metric("router.hop_p50_ms",
                  (Quantile(routed.latency_s, 0.5) - Quantile(direct.latency_s, 0.5)) * 1e3, "ms");
    const double merges = Get(router_after, "onex_router_merge_latency_seconds_count") -
                          Get(router_before, "onex_router_merge_latency_seconds_count");
    report.Metric("router.merge_ms",
                  (Get(router_after, "onex_router_merge_latency_seconds_sum") -
                   Get(router_before, "onex_router_merge_latency_seconds_sum")) /
                      std::max(1.0, merges) * 1e3,
                  "ms");
    const double legs = Family(node_after, "onex_query_latency_seconds_count{") -
                        Family(node_before, "onex_query_latency_seconds_count{");
    report.Metric("router.leg_wait_ms",
                  (Family(node_after, "onex_query_latency_seconds_sum{") -
                   Family(node_before, "onex_query_latency_seconds_sum{")) /
                      std::max(1.0, legs) * 1e3,
                  "ms");
    sampler.Stop();
    report.Metric("process.threads_peak", sampler.threads_peak(), "count");
    const onex::storage::StorageStats& s = ingest.after_stream;
    report.Metric("storage.wal_bytes_per_row", sampler.wal_bytes_per_row, "bytes");
    report.Metric("storage.checkpoints", static_cast<double>(s.checkpoints), "count");
    report.Metric("storage.delta_checkpoints", static_cast<double>(s.delta_checkpoints), "count");
    report.Metric("storage.chain_compactions", static_cast<double>(s.chain_compactions), "count");
    report.Metric("storage.wal_records_peak", static_cast<double>(sampler.wal_records_peak), "count");
    report.Metric("storage.checkpoint_lock_hold_ms", sampler.lock_hold_peak_s * 1e3, "ms");
    report.Metric("storage.checkpoint_s", ingest.checkpoint_s, "s");
    report.Metric("storage.delta_bytes_mean", ingest.delta_bytes_mean, "bytes");
    report.Metric("storage.replayed_records", static_cast<double>(ingest.replayed), "count");
    report.Metric("replica.sync_rounds", static_cast<double>(ingest.sync_rounds), "count");
    report.Metric("replica.fetched_bytes", static_cast<double>(ingest.fetched_bytes), "bytes");
    report.Metric("replica.sync_s", Mean(ingest.sync_s), "s");
    for (const Served& d : served) {
      const std::string key = "dataset." + d.name + ".cascade.";
      const double seen = Get(direct.sums, key + "seen");
      report.Note("cascade on " + d.name +
                  Format(": pruning ratio %.4f of %.0f candidates",
                         seen > 0 ? 1.0 - Get(direct.sums, key + "dtw_evaluated") / seen : 0.0, seen));
    }
    const std::string spans = dir + "/../spans-" + w.name + "-" + std::to_string(args.seed) + ".jsonl";
    if (!Spans().WriteJsonl(spans)) report.Problem("could not write " + spans);
    report.Note("spans: " + std::to_string(Spans().size()) + " written to " + spans);
  }
  sampler.Stop();
  report.Note(Format("ingest: %.0f acknowledged appends in %.2f s; checkpoints %.0f", ingest.acked,
                     ingest.stream_s, ingest.after_stream.checkpoints) +
              Format(" (delta %.0f, compactions %.0f)", ingest.after_stream.delta_checkpoints,
                     ingest.after_stream.chain_compactions) +
              Format(", wal records left %.0f, last delta %.0f bytes",
                     ingest.after_stream.wal_records, ingest.after_stream.last_delta_bytes));
  fs::remove_all(dir);

  // ---- output
  uint64_t attempted = 0, failed = 0;
  std::printf("%-18s %10s %8s\n", "phase", "attempted", "failed");
  for (const PhaseCount& p : report.phases) {
    std::printf("%-18s %10llu %8llu\n", p.name.c_str(), static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.failed));
    attempted += p.attempted;
    failed += p.failed;
  }
  for (const std::string& note : report.notes) std::printf("note: %s\n", note.c_str());
  for (const auto& [name, value] : report.metrics) {
    std::printf("%-34s %16.6g %s\n", name.c_str(), value.first, value.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " + std::to_string(failed) +
          ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                  name.c_str(), std::isfinite(value.first) ? value.first : 0.0, value.second.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

int SelfTestMain() {
  const std::vector<std::string> dead = SelfTest();
  for (const std::string& name : dead) std::printf("check '%s' did not reject its planted fault\n", name.c_str());
  std::printf("self-test: %s\n", dead.empty() ? "every check rejects its planted fault" : "FAILED");
  return dead.empty() ? 0 : 1;
}

}  // namespace
}  // namespace onexbench

int main(int argc, char** argv) {
  onexbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : "";
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") args.trace = std::strtol(value, nullptr, 10) != 0;
    else if (flag == "--work-dir") args.work_dir = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
    ++i;
  }
  if (args.self_test) return onexbench::SelfTestMain();
  // A run must end on its own; a wedged one is cut before any result line.
  std::thread([] {
    std::this_thread::sleep_for(std::chrono::seconds(170));
    std::fprintf(stderr, "onexbench: wall limit reached\n");
    std::_Exit(3);
  }).detach();
  return onexbench::Run(args);
}
