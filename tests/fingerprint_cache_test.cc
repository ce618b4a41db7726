// Tests for the per-node operator fingerprint cache: every node of every
// committed scenario script's plans — as parsed, as produced by the full
// optimizer pipeline, and as registered and stepped — must carry exactly
// the fingerprint the uncached oracle computes; and stepping a continuous
// query K times renders each node's fingerprint once, not K times (an
// exact work count through `serena.stats.fingerprint_renders`).

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint_runner.h"
#include "common/string_util.h"
#include "ddl/algebra_parser.h"
#include "env/scenario.h"
#include "obs/meta.h"
#include "obs/metrics.h"
#include "optimizer/pipeline.h"
#include "pems/pems.h"
#include "stream/continuous_query.h"
#include "tests/fingerprint_oracle.h"

namespace serena {
namespace {

using testing_oracle::ExpectCachedFingerprintsMatchOracle;

bool IsDdl(const std::string& text) {
  std::istringstream in(text);
  std::string head;
  in >> head;
  std::string lower;
  for (char c : head) lower.push_back(static_cast<char>(std::tolower(c)));
  return lower == "prototype" || lower == "service" || lower == "extended" ||
         lower == "insert" || lower == "delete" || lower == "drop";
}

std::uint64_t FingerprintRenders() {
  return obs::MetricsRegistry::Global()
      .GetCounter("serena.stats.fingerprint_renders")
      .value();
}

/// Forces metrics on for a scope: statistics recording (and so the
/// per-step fingerprint lookups) only runs while they are enabled.
class MetricsOnGuard {
 public:
  MetricsOnGuard() : was_(obs::MetricsRegistry::Global().enabled()) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  ~MetricsOnGuard() { obs::MetricsRegistry::Global().set_enabled(was_); }

 private:
  bool was_;
};

/// Replays one script (DDL, one-shots, registrations, ticks) on a fresh
/// PEMS, so the learned cost model and the statistics store see real
/// observations, then checks every node of every query's plan against
/// the oracle. Returns the number of nodes checked.
std::size_t CheckScript(const std::string& script) {
  auto pems = Pems::Create().MoveValueOrDie();
  EXPECT_TRUE(
      obs::RegisterMetaRelations(&pems->env(), &pems->queries().executor())
          .ok());
  obs::StatsStore::Global().Clear();

  std::vector<std::pair<std::string, AnalysisContext>> queries;
  std::vector<std::string> registered;
  for (const std::string& statement : SplitScript(script)) {
    if (statement.empty()) continue;
    if (statement[0] != '\\') {
      if (IsDdl(statement)) {
        (void)pems->tables().ExecuteDdl(statement);
        continue;
      }
      std::string expr = statement;
      if (expr.back() == ';') expr.pop_back();
      (void)pems->queries().ExecuteOneShot(expr);
      queries.emplace_back(expr, AnalysisContext::kOneShot);
      continue;
    }
    std::istringstream in(statement);
    std::string directive;
    in >> directive;
    if (directive == "\\register") {
      std::string name;
      in >> name;
      std::string rest;
      std::getline(in, rest);
      std::string expr(Trim(rest));
      std::string stream;
      if (expr.rfind("into ", 0) == 0) {
        std::istringstream tail(expr.substr(5));
        tail >> stream;
        std::string remainder;
        std::getline(tail, remainder);
        expr = std::string(Trim(remainder));
      }
      const Status status =
          stream.empty()
              ? pems->queries().RegisterContinuous(name, expr)
              : pems->queries().RegisterContinuousInto(name, expr, stream);
      if (status.ok()) registered.push_back(name);
      queries.emplace_back(expr, AnalysisContext::kContinuous);
    } else if (directive == "\\tick") {
      int n = 1;
      in >> n;
      for (int i = 0; i < std::max(1, n); ++i) pems->Tick();
    }
  }

  const optimizer::Pipeline pipeline(&pems->env(), &pems->streams());
  std::size_t checked = 0;
  for (const auto& [expr, context] : queries) {
    auto parsed = ParseAlgebra(expr);
    if (!parsed.ok()) continue;  // lint_errors.serena has broken queries.
    checked += ExpectCachedFingerprintsMatchOracle(*parsed);
    auto optimized = pipeline.Optimize(*parsed, context);
    if (optimized.ok()) {
      checked += ExpectCachedFingerprintsMatchOracle(*optimized);
    }
  }
  for (const std::string& name : registered) {
    auto query = pems->queries().GetContinuous(name);
    if (query.ok()) {
      checked += ExpectCachedFingerprintsMatchOracle((*query)->plan());
    }
  }
  return checked;
}

TEST(FingerprintCacheTest, ScriptPlansMatchUncachedOracle) {
  MetricsOnGuard metrics;
  const std::string dir = std::string(SERENA_REPO_DIR) + "/examples/scripts/";
  std::size_t scripts = 0;
  std::size_t nodes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".serena") continue;
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    SCOPED_TRACE(entry.path().filename().string());
    nodes += CheckScript(buffer.str());
    ++scripts;
  }
  EXPECT_GE(scripts, 5u) << "expected the committed scenario scripts";
  EXPECT_GE(nodes, 100u);
}

TEST(FingerprintCacheTest, SteppingRendersEachFingerprintOnce) {
  MetricsOnGuard metrics;
  auto scenario = TemperatureScenario::Build().MoveValueOrDie();
  const PlanPtr plan =
      ParseAlgebra(
          "project[location](select[temperature > 20.0]"
          "(window[3](temperatures)))")
          .ValueOrDie();
  std::size_t nodes = 0;
  for (PlanPtr node = plan; node != nullptr;
       node = node->children().empty() ? nullptr : node->children()[0]) {
    ++nodes;
  }
  ASSERT_EQ(nodes, 3u);

  obs::StatsStore::Global().Clear();
  ContinuousQuery query("gate", plan);
  constexpr int kSteps = 25;
  const std::uint64_t before = FingerprintRenders();
  for (int t = 1; t <= kSteps; ++t) {
    ASSERT_TRUE(scenario->PumpTemperatureStream(t).ok());
    ASSERT_TRUE(query.Step(&scenario->env(), &scenario->streams(), t).ok());
  }
  const std::uint64_t renders = FingerprintRenders() - before;
  // Every step recorded every node into the store...
  for (PlanPtr node = plan; node != nullptr;
       node = node->children().empty() ? nullptr : node->children()[0]) {
    const auto stats =
        obs::StatsStore::Global().Find(obs::OperatorFingerprint(*node));
    ASSERT_TRUE(stats.has_value()) << node->ToString();
    EXPECT_EQ(stats->evals, static_cast<std::uint64_t>(kSteps))
        << node->ToString();
  }
  // ...yet each node's subtree was rendered for its fingerprint once.
  EXPECT_EQ(renders, nodes);
}

}  // namespace
}  // namespace serena
