// Output capture and the tolerance-aware output check.
//
// Every engine the benchmark runs writes each standing query's result
// at every instant (and each one-shot result) into a ResultLog. The
// check compares a measured engine's log against the reference
// engine's log built in the same invocation: each (query, instant)
// result as a multiset of tuples, and each query's timestamped action
// log as a multiset. REAL values match within a relative 1e-9 (an
// optimized plan may sum in another order); every other value must
// match exactly.
#ifndef SERENA_PERFBENCH_CHECK_H_
#define SERENA_PERFBENCH_CHECK_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "xrel/xrelation.h"

namespace perfbench {

/// The results one query produced, one record per instant, in a flat
/// layout: per row, a digest of its non-REAL values (exact equality) and
/// its REAL values as doubles (compared with tolerance, never hashed).
/// Written by exactly one thread at a time (the query's own step).
/// Deques, not vectors: appending inside a tick never copies the log.
class QueryLog {
 public:
  void Add(serena::Timestamp instant, const serena::XRelation& rows);
  /// Appends one row to the last record (self-tests build logs by hand).
  void AddRow(std::uint64_t key, const std::vector<double>& reals);
  void StartRecord(serena::Timestamp instant);

  std::size_t records() const { return instants_.size(); }
  std::size_t rows() const { return keys_.size(); }

  /// Self-test hooks: damage one row's exact part or one REAL.
  void CorruptKey(std::size_t row) { keys_.at(row) ^= 1; }
  void ScaleReal(std::size_t index, double factor) {
    reals_.at(index) *= factor;
  }

 private:
  friend std::string CompareQueryLogs(const std::string& name,
                                      const QueryLog& got,
                                      const QueryLog& want);
  std::deque<serena::Timestamp> instants_;
  std::deque<std::uint32_t> record_end_;  // Row index after each record.
  std::deque<std::uint64_t> keys_;
  std::deque<std::uint32_t> real_end_;  // Real index after each row.
  std::deque<double> reals_;
};

/// Everything one engine produced.
struct ResultLog {
  /// Per query name. Entries are created on the main thread before the
  /// query can step, so sinks never mutate the map.
  std::map<std::string, std::unique_ptr<QueryLog>> queries;
  /// Per query name: "instant|action" for every logged action.
  std::map<std::string, std::vector<std::string>> actions;

  QueryLog* Open(const std::string& name);
};

struct CheckResult {
  bool ok = true;
  std::uint64_t records = 0;  ///< (query, instant) results compared.
  std::uint64_t rows = 0;
  std::uint64_t actions = 0;
  std::vector<std::string> mismatches;  ///< The first few.
};

CheckResult Compare(const ResultLog& got, const ResultLog& want);

/// True when |a - b| <= 1e-9 * max(|a|, |b|) (NaN equals NaN).
bool RealsMatch(double a, double b);

/// Corrupts one tuple, one REAL beyond tolerance and one action of a
/// small log and requires Compare to fail on each (and to pass on the
/// untouched copy and on a REAL moved within tolerance). Returns an
/// empty string on success, else what went wrong.
std::string CheckSelfTest();

}  // namespace perfbench

#endif  // SERENA_PERFBENCH_CHECK_H_
