// Answer checks that are computed apart from the program under test.
//
// Nothing here calls into the ONEX distance or query code: the DTW is the
// textbook Sakoe-Chiba recurrence written out anew, the oracle is a brute
// force over every indexed subsequence, and reply rows are read back
// from the wire text. Each check returns an empty string when the
// answer passes and a one-line reason when it does not, so a planted
// wrong answer (SelfTest) and a real one are reported the same way.

#ifndef ONEXBENCH_ORACLE_H_
#define ONEXBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace onexbench {

/// The benchmark's own copy of one served dataset: the values it handed
/// to the program, plus the indexing parameters it asked for.
struct Store {
  std::vector<std::vector<double>> series;
  std::vector<size_t> lengths;  ///< Indexed subsequence lengths.
  double window_ratio = 0.1;
};

/// Squared-cost banded DTW, returned as sqrt of the path cost. The band
/// half-width is max(ceil(ratio * max(n, m)), |n - m|). With `abandon`
/// finite, returns +inf once a whole row exceeds it (raw units).
double TextbookDtw(std::span<const double> a, std::span<const double> b,
                   double window_ratio, double abandon);

/// Def. 6 normalized DTW: TextbookDtw / (2 max(n, m)).
double NormalizedDistance(std::span<const double> a, std::span<const double> b,
                          double window_ratio);

/// The Tables 2-3 accuracy scale: TextbookDtw / sqrt(max(n, m)).
double AccuracyDistance(std::span<const double> a, std::span<const double> b,
                        double window_ratio);

/// One `match ...` row of a reply block.
struct Row {
  uint32_t series = 0;
  uint32_t start = 0;
  uint32_t length = 0;
  double distance = 0;
  bool bound = false;  ///< Lemma-2 upper bound, not an exact distance.
};

/// Parses every `match` line of a payload; false on a malformed row.
bool ParseRows(const std::vector<std::string>& payload, std::vector<Row>* rows);

/// Exhaustive best match: the smallest normalized DTW over every
/// subsequence of `length` (0 = every indexed length).
struct OracleAnswer {
  double distance = 0;
  Row where;
};
OracleAnswer BruteForceBest(const Store& store, std::span<const double> query,
                            size_t length);

// ---- checks: "" = pass, otherwise the reason.

/// Every exact row's distance equals the recomputed one, every row
/// points inside the data, and has the requested length (0 = any).
/// `window_ratio` is the band of the recomputation: the store's for Q1,
/// -1 (unconstrained, Def. 3) for range queries.
std::string CheckRowDistances(const Store& store, std::span<const double> query,
                              const std::vector<Row>& rows, size_t length,
                              double window_ratio);
/// The best row is not below the oracle's minimum.
std::string CheckNotBelowOracle(const OracleAnswer& oracle,
                                const std::vector<Row>& rows);
/// Sorted ascending, distinct locations, at most k rows.
std::string CheckTopK(const std::vector<Row>& rows, size_t k);
/// Every row, upper-bound rows included, is truly within `st` under
/// unconstrained DTW (the range semantics of Def. 3).
std::string CheckRange(const Store& store, std::span<const double> query,
                       const std::vector<Row>& rows, double st);
/// Two payloads carry the same answer (trace lines ignored).
std::string CheckSamePayload(const std::vector<std::string>& expected,
                             const std::vector<std::string>& actual);
/// A scattered answer equals the benchmark's own merge of per-shard
/// rows: same ascending distances, every row found in some shard, at
/// most `keep` rows.
std::string CheckScatter(const std::vector<std::vector<Row>>& per_shard,
                         const std::vector<Row>& scattered, size_t keep);
/// `actual` holds `expected` bit for bit from index `offset` on.
std::string CheckSeriesPresent(const std::vector<std::vector<double>>& expected,
                               const std::vector<std::vector<double>>& actual,
                               size_t offset);

/// Plants one wrong answer per check and returns the names of checks
/// that failed to reject it (empty = every check is live).
std::vector<std::string> SelfTest();

}  // namespace onexbench

#endif  // ONEXBENCH_ORACLE_H_
