#include "check.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "common/random.h"

namespace perfbench {
namespace {

constexpr std::size_t kMaxMismatches = 5;

/// Rows of one record in canonical order: by exact digest, then by REAL
/// values. Rows that agree on the digest and differ only in REAL low
/// bits therefore pair up in both logs.
std::vector<std::uint32_t> CanonicalRows(
    const std::deque<std::uint64_t>& keys,
    const std::deque<std::uint32_t>& real_end, const std::deque<double>& reals,
    std::uint32_t begin, std::uint32_t end) {
  std::vector<std::uint32_t> order(end - begin);
  std::iota(order.begin(), order.end(), begin);
  auto real_range = [&](std::uint32_t row) {
    const std::uint32_t from = row == 0 ? 0 : real_end[row - 1];
    return std::make_pair(reals.begin() + from, reals.begin() + real_end[row]);
  };
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    const auto [a0, a1] = real_range(a);
    const auto [b0, b1] = real_range(b);
    return std::lexicographical_compare(a0, a1, b0, b1);
  });
  return order;
}

}  // namespace

bool RealsMatch(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  if (a == b) return true;
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

void QueryLog::StartRecord(serena::Timestamp instant) {
  instants_.push_back(instant);
  record_end_.push_back(static_cast<std::uint32_t>(keys_.size()));
}

void QueryLog::AddRow(std::uint64_t key, const std::vector<double>& reals) {
  keys_.push_back(key);
  reals_.insert(reals_.end(), reals.begin(), reals.end());
  real_end_.push_back(static_cast<std::uint32_t>(reals_.size()));
  record_end_.back() = static_cast<std::uint32_t>(keys_.size());
}

void QueryLog::Add(serena::Timestamp instant, const serena::XRelation& rows) {
  StartRecord(instant);
  for (const serena::Tuple& tuple : rows.tuples()) {
    // Exact part: every non-REAL value, position-tagged. REAL values are
    // kept as doubles for the tolerance comparison.
    std::uint64_t key = 0x9e3779b97f4a7c15ULL;
    std::uint64_t position = 0;
    for (const serena::Value& value : tuple.values()) {
      ++position;
      if (value.is_real()) {
        reals_.push_back(value.real_value());
        key = serena::Mix64(key ^ (position * 0x100000001b3ULL));
      } else {
        key = serena::Mix64(key ^ value.Hash() ^ (position << 56));
      }
    }
    keys_.push_back(key);
    real_end_.push_back(static_cast<std::uint32_t>(reals_.size()));
  }
  record_end_.back() = static_cast<std::uint32_t>(keys_.size());
}

QueryLog* ResultLog::Open(const std::string& name) {
  std::unique_ptr<QueryLog>& slot = queries[name];
  if (slot == nullptr) slot = std::make_unique<QueryLog>();
  return slot.get();
}

std::string CompareQueryLogs(const std::string& name, const QueryLog& got,
                             const QueryLog& want) {
  if (got.instants_ != want.instants_) {
    return name + ": results at different instants (" +
           std::to_string(got.records()) + " vs " +
           std::to_string(want.records()) + " records)";
  }
  for (std::size_t r = 0; r < got.records(); ++r) {
    const std::uint32_t gb = r == 0 ? 0 : got.record_end_[r - 1];
    const std::uint32_t wb = r == 0 ? 0 : want.record_end_[r - 1];
    const std::uint32_t ge = got.record_end_[r];
    const std::uint32_t we = want.record_end_[r];
    const std::string where =
        name + " at instant " + std::to_string(got.instants_[r]);
    if (ge - gb != we - wb) {
      return where + ": " + std::to_string(ge - gb) + " rows vs " +
             std::to_string(we - wb);
    }
    const auto go = CanonicalRows(got.keys_, got.real_end_, got.reals_, gb, ge);
    const auto wo =
        CanonicalRows(want.keys_, want.real_end_, want.reals_, wb, we);
    for (std::size_t i = 0; i < go.size(); ++i) {
      const std::uint32_t g = go[i];
      const std::uint32_t w = wo[i];
      if (got.keys_[g] != want.keys_[w]) return where + ": tuple differs";
      const std::uint32_t g0 = g == 0 ? 0 : got.real_end_[g - 1];
      const std::uint32_t w0 = w == 0 ? 0 : want.real_end_[w - 1];
      if (got.real_end_[g] - g0 != want.real_end_[w] - w0) {
        return where + ": REAL arity differs";
      }
      for (std::uint32_t k = 0; g0 + k < got.real_end_[g]; ++k) {
        if (!RealsMatch(got.reals_[g0 + k], want.reals_[w0 + k])) {
          return where + ": REAL " + std::to_string(got.reals_[g0 + k]) +
                 " vs " + std::to_string(want.reals_[w0 + k]);
        }
      }
    }
  }
  return "";
}

CheckResult Compare(const ResultLog& got, const ResultLog& want) {
  CheckResult result;
  auto fail = [&result](std::string what) {
    result.ok = false;
    if (result.mismatches.size() < kMaxMismatches) {
      result.mismatches.push_back(std::move(what));
    }
  };
  std::set<std::string> names;
  for (const auto& [name, log] : got.queries) names.insert(name);
  for (const auto& [name, log] : want.queries) names.insert(name);
  for (const std::string& name : names) {
    const auto g = got.queries.find(name);
    const auto w = want.queries.find(name);
    if (g == got.queries.end() || w == want.queries.end()) {
      fail(name + ": missing from one engine");
      continue;
    }
    result.records += g->second->records();
    result.rows += g->second->rows();
    const std::string diff = CompareQueryLogs(name, *g->second, *w->second);
    if (!diff.empty()) fail(diff);
  }
  names.clear();
  for (const auto& [name, log] : got.actions) names.insert(name);
  for (const auto& [name, log] : want.actions) names.insert(name);
  for (const std::string& name : names) {
    const auto g = got.actions.find(name);
    const auto w = want.actions.find(name);
    std::vector<std::string> a =
        g == got.actions.end() ? std::vector<std::string>{} : g->second;
    std::vector<std::string> b =
        w == want.actions.end() ? std::vector<std::string>{} : w->second;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    result.actions += a.size();
    if (a != b) {
      fail(name + ": action logs differ (" + std::to_string(a.size()) +
           " vs " + std::to_string(b.size()) + ")");
    }
  }
  return result;
}

std::string CheckSelfTest() {
  auto make = [] {
    ResultLog log;
    QueryLog* q = log.Open("q");
    q->StartRecord(1);
    q->AddRow(11, {1.5, 2.25});
    q->AddRow(12, {100.0, 0.1});
    q->StartRecord(2);
    q->AddRow(13, {3.0, 1e6});
    log.actions["q"] = {"1|(sendMessage[m], m000, ('a', 'b'))"};
    return log;
  };
  const ResultLog want = make();
  if (!Compare(make(), want).ok) return "identical logs did not match";

  ResultLog moved = make();
  moved.queries["q"]->ScaleReal(3, 1.0 + 1e-12);  // Within tolerance.
  if (!Compare(moved, want).ok) return "REAL within 1e-9 was rejected";

  ResultLog tuple = make();
  tuple.queries["q"]->CorruptKey(1);
  if (Compare(tuple, want).ok) return "corrupted tuple passed the check";

  ResultLog real = make();
  real.queries["q"]->ScaleReal(4, 1.0 + 1e-6);  // Beyond tolerance.
  if (Compare(real, want).ok) return "corrupted REAL passed the check";

  ResultLog action = make();
  action.actions["q"][0] = "1|(sendMessage[m], m001, ('a', 'b'))";
  if (Compare(action, want).ok) return "corrupted action passed the check";
  return "";
}

}  // namespace perfbench
