#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <tuple>

namespace onexbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-12 + 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

std::string Fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

std::span<const double> Sub(const Store& store, const Row& row) {
  return std::span<const double>(store.series[row.series]).subspan(row.start, row.length);
}

/// Row points at stored data of an indexed length.
bool InBounds(const Store& store, const Row& row) {
  if (row.series >= store.series.size()) return false;
  if (std::find(store.lengths.begin(), store.lengths.end(), row.length) ==
      store.lengths.end()) {
    return false;
  }
  return static_cast<size_t>(row.start) + row.length <= store.series[row.series].size();
}

bool ParseField(const std::string& line, const char* key, std::string* out) {
  const std::string needle = std::string(" ") + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const size_t begin = at + needle.size();
  const size_t end = line.find(' ', begin);
  *out = line.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
  return !out->empty();
}

}  // namespace

double TextbookDtw(std::span<const double> a, std::span<const double> b,
                   double window_ratio, double abandon) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return n == m ? 0.0 : kInf;
  const size_t longest = std::max(n, m);
  const size_t diff = n > m ? n - m : m - n;
  size_t w = longest;
  if (window_ratio >= 0) {
    w = static_cast<size_t>(std::ceil(window_ratio * static_cast<double>(longest)));
    w = std::max(w, diff);
  }
  const double limit = abandon * abandon;
  // D[i][j] = cost(i, j) + min(D[i-1][j-1], D[i-1][j], D[i][j-1]) over
  // 1-based cells; D[0][0] = 0 and every other border cell is +inf.
  std::vector<double> prev(m + 1, kInf), cur(m + 1, kInf);
  prev[0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    const size_t lo = i > w ? i - w : 1;
    const size_t hi = std::min(m, i + w);
    for (size_t j = lo - 1; j <= std::min(m, hi + 1); ++j) cur[j] = kInf;
    double row_min = kInf;
    for (size_t j = std::max<size_t>(lo, 1); j <= hi; ++j) {
      const double d = a[i - 1] - b[j - 1];
      const double best = std::min({prev[j - 1], prev[j], cur[j - 1]});
      cur[j] = best == kInf ? kInf : d * d + best;
      row_min = std::min(row_min, cur[j]);
    }
    if (row_min > limit) return kInf;
    std::swap(prev, cur);
  }
  return std::sqrt(prev[m]);
}

double NormalizedDistance(std::span<const double> a, std::span<const double> b,
                          double window_ratio) {
  const double longest = static_cast<double>(std::max(a.size(), b.size()));
  return TextbookDtw(a, b, window_ratio, kInf) / (2.0 * longest);
}

double AccuracyDistance(std::span<const double> a, std::span<const double> b,
                        double window_ratio) {
  const double longest = static_cast<double>(std::max(a.size(), b.size()));
  return TextbookDtw(a, b, window_ratio, kInf) / std::sqrt(longest);
}

bool ParseRows(const std::vector<std::string>& payload, std::vector<Row>* rows) {
  rows->clear();
  for (const std::string& line : payload) {
    if (line.rfind("match ", 0) != 0) continue;
    std::string series, start, length, distance, bound;
    if (!ParseField(line, "series", &series) || !ParseField(line, "start", &start) ||
        !ParseField(line, "length", &length) || !ParseField(line, "distance", &distance) ||
        !ParseField(line, "bound", &bound)) {
      return false;
    }
    Row row;
    row.series = static_cast<uint32_t>(std::strtoul(series.c_str(), nullptr, 10));
    row.start = static_cast<uint32_t>(std::strtoul(start.c_str(), nullptr, 10));
    row.length = static_cast<uint32_t>(std::strtoul(length.c_str(), nullptr, 10));
    row.distance = std::strtod(distance.c_str(), nullptr);
    row.bound = bound == "1";
    rows->push_back(row);
  }
  return true;
}

OracleAnswer BruteForceBest(const Store& store, std::span<const double> query,
                            size_t length) {
  OracleAnswer best;
  best.distance = kInf;
  for (const size_t len : store.lengths) {
    if (length != 0 && len != length) continue;
    const double scale = 2.0 * static_cast<double>(std::max(query.size(), len));
    for (size_t s = 0; s < store.series.size(); ++s) {
      const std::vector<double>& series = store.series[s];
      for (size_t start = 0; start + len <= series.size(); ++start) {
        const std::span<const double> candidate(series.data() + start, len);
        const double raw = TextbookDtw(query, candidate, store.window_ratio,
                                       best.distance * scale);
        if (raw / scale < best.distance) {
          best.distance = raw / scale;
          best.where = Row{static_cast<uint32_t>(s), static_cast<uint32_t>(start),
                           static_cast<uint32_t>(len), best.distance, false};
        }
      }
    }
  }
  return best;
}

std::string CheckRowDistances(const Store& store, std::span<const double> query,
                              const std::vector<Row>& rows, size_t length,
                              double window_ratio) {
  for (const Row& row : rows) {
    if (!InBounds(store, row)) return "row points outside the indexed data";
    if (length != 0 && row.length != length) return "row has the wrong length";
    if (row.bound) continue;
    const double truth = NormalizedDistance(query, Sub(store, row), window_ratio);
    if (!Close(truth, row.distance)) {
      return Fmt("reported distance %.17g, recomputed %.17g", row.distance, truth);
    }
  }
  return "";
}

std::string CheckNotBelowOracle(const OracleAnswer& oracle, const std::vector<Row>& rows) {
  if (rows.empty()) return "no match returned";
  if (rows.front().distance < oracle.distance && !Close(rows.front().distance, oracle.distance)) {
    return Fmt("best row %.17g beats the exhaustive minimum %.17g", rows.front().distance,
               oracle.distance);
  }
  return "";
}

std::string CheckTopK(const std::vector<Row>& rows, size_t k) {
  if (rows.size() > k) return Fmt("%.0f rows for k=%.0f", rows.size(), k);
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> seen;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0 && rows[i].distance < rows[i - 1].distance) return "rows not sorted by distance";
    if (!seen.insert({rows[i].series, rows[i].start, rows[i].length}).second) {
      return "duplicate row";
    }
  }
  return "";
}

std::string CheckRange(const Store& store, std::span<const double> query,
                       const std::vector<Row>& rows, double st) {
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> seen;
  for (const Row& row : rows) {
    if (!InBounds(store, row)) return "row points outside the indexed data";
    if (!seen.insert({row.series, row.start, row.length}).second) return "duplicate row";
    const double truth = NormalizedDistance(query, Sub(store, row), -1.0);
    if (truth > st && !Close(truth, st)) {
      return Fmt(row.bound ? "upper-bound row is at %.17g, beyond st %.17g"
                           : "row is at %.17g, beyond st %.17g",
                 truth, st);
    }
  }
  return "";
}

std::string CheckSamePayload(const std::vector<std::string>& expected,
                             const std::vector<std::string>& actual) {
  auto strip = [](const std::vector<std::string>& lines) {
    std::vector<std::string> out;
    for (const std::string& line : lines) {
      if (line.rfind("trace ", 0) != 0) out.push_back(line);
    }
    return out;
  };
  const std::vector<std::string> a = strip(expected);
  const std::vector<std::string> b = strip(actual);
  if (a.size() != b.size()) return Fmt("%.0f payload lines, expected %.0f", b.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return "payload differs at line " + std::to_string(i) + ": " + b[i];
  }
  return "";
}

std::string CheckScatter(const std::vector<std::vector<Row>>& per_shard,
                         const std::vector<Row>& scattered, size_t keep) {
  std::vector<Row> merged;
  for (const std::vector<Row>& rows : per_shard) merged.insert(merged.end(), rows.begin(), rows.end());
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Row& a, const Row& b) { return a.distance < b.distance; });
  if (merged.size() > keep) merged.resize(keep);
  if (merged.size() != scattered.size()) {
    return Fmt("%.0f scattered rows, own merge has %.0f", scattered.size(), merged.size());
  }
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged[i].distance != scattered[i].distance) {
      return Fmt("scattered rank distance %.17g, own merge %.17g", scattered[i].distance,
                 merged[i].distance);
    }
    bool found = false;
    for (const std::vector<Row>& rows : per_shard) {
      for (const Row& row : rows) {
        found = found || (row.series == scattered[i].series && row.start == scattered[i].start &&
                          row.length == scattered[i].length &&
                          row.distance == scattered[i].distance);
      }
    }
    if (!found) return "scattered row not in any shard's direct answer";
  }
  return "";
}

std::string CheckSeriesPresent(const std::vector<std::vector<double>>& expected,
                               const std::vector<std::vector<double>>& actual,
                               size_t offset) {
  if (actual.size() < offset + expected.size()) {
    return Fmt("%.0f series after reopen, %.0f acknowledged", actual.size(),
               offset + expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const std::vector<double>& got = actual[offset + i];
    if (got.size() != expected[i].size() ||
        std::memcmp(got.data(), expected[i].data(), got.size() * sizeof(double)) != 0) {
      return "acknowledged series " + std::to_string(offset + i) + " differs after reopen";
    }
  }
  return "";
}

std::vector<std::string> SelfTest() {
  Store store;
  for (int s = 0; s < 3; ++s) {
    std::vector<double> v;
    for (int i = 0; i < 20; ++i) v.push_back(0.5 + 0.4 * std::sin(0.3 * i * (s + 1) + s));
    store.series.push_back(v);
  }
  store.lengths = {4, 8};
  std::vector<double> query(store.series[1].begin() + 5, store.series[1].begin() + 13);
  query[3] += 0.05;

  const OracleAnswer oracle = BruteForceBest(store, query, 8);
  // Every length-8 row, truly ranked: the reference answers.
  std::vector<Row> all;
  for (uint32_t s = 0; s < 3; ++s) {
    for (uint32_t start = 0; start + 8 <= 20; ++start) {
      Row row{s, start, 8, 0, false};
      row.distance = NormalizedDistance(query, Sub(store, row), -1.0);
      all.push_back(row);
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Row& a, const Row& b) { return a.distance < b.distance; });
  const std::vector<Row> top3(all.begin(), all.begin() + 3);
  const double st = all[5].distance;
  const std::vector<Row> within(all.begin(), all.begin() + 6);

  std::vector<std::string> dead;
  auto expect = [&](const char* name, bool good_passes, bool bad_rejected) {
    if (!good_passes || !bad_rejected) dead.push_back(name);
  };

  std::vector<Row> bad = top3;
  bad[1].distance *= 1.001;
  expect("row_distance", CheckRowDistances(store, query, top3, 8, -1.0).empty(),
         !CheckRowDistances(store, query, bad, 8, -1.0).empty());

  bad = {oracle.where};
  bad[0].distance = oracle.distance * 0.9;
  expect("oracle_minimum", CheckNotBelowOracle(oracle, {oracle.where}).empty(),
         !CheckNotBelowOracle(oracle, bad).empty());

  bad = {top3[1], top3[0], top3[2]};
  std::vector<Row> dup = {top3[0], top3[0]};
  expect("topk_order", CheckTopK(top3, 3).empty(),
         !CheckTopK(bad, 3).empty() && !CheckTopK(dup, 3).empty() && !CheckTopK(top3, 2).empty());

  bad = within;
  bad.push_back(all[9]);
  bad.back().bound = true;
  bad.back().distance = st;
  expect("range_within", CheckRange(store, query, within, st).empty(),
         !CheckRange(store, query, bad, st).empty());

  const std::vector<std::string> payload = {"stats a=1", "match series=0 distance=0.25"};
  const std::vector<std::string> traced = {"stats a=1", "trace stage x=1",
                                           "match series=0 distance=0.25"};
  const std::vector<std::string> changed = {"stats a=1", "match series=0 distance=0.26"};
  expect("same_payload", CheckSamePayload(payload, traced).empty(),
         !CheckSamePayload(payload, changed).empty());

  const std::vector<std::vector<Row>> shards = {{all[0], all[4]}, {all[1]}, {all[2], all[3]}};
  bad = {all[1], all[2], all[3]};
  expect("scatter_rerank", CheckScatter(shards, top3, 3).empty(),
         !CheckScatter(shards, bad, 3).empty());

  std::vector<std::vector<double>> reopened = store.series;
  const std::vector<std::vector<double>> acked(store.series.begin() + 1, store.series.end());
  reopened[2][7] = std::nextafter(reopened[2][7], 2.0);
  expect("appends_present", CheckSeriesPresent(acked, store.series, 1).empty(),
         !CheckSeriesPresent(acked, reopened, 1).empty());
  return dead;
}

}  // namespace onexbench
