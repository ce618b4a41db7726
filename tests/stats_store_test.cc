// Tests for the runtime statistics store: fingerprint stability across
// plan instances, RecordPlan aggregation (including the rows_in
// derivation from children), the JSON persistence roundtrip into the
// baseline map, Clear() semantics, and concurrent first-use
// fingerprinting plus recording on one shared plan.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algebra/plan.h"
#include "ddl/algebra_parser.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "tests/fingerprint_oracle.h"

namespace serena {
namespace obs {
namespace {

PlanPtr MustParse(const std::string& text) {
  return ParseAlgebra(text).ValueOrDie();
}

class StatsStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A set SERENA_STATS_FILE would make local stores load a baseline
    // (and MaybeSaveEnvFile write one) behind the test's back.
    unsetenv("SERENA_STATS_FILE");
  }
};

TEST_F(StatsStoreTest, FingerprintStableAcrossPlanInstances) {
  const std::string text = "select[temperature > 30](window[5](readings))";
  const PlanPtr a = MustParse(text);
  const PlanPtr b = MustParse(text);
  ASSERT_NE(a.get(), b.get());
  EXPECT_EQ(OperatorFingerprint(*a), OperatorFingerprint(*b));
  EXPECT_EQ(OperatorFingerprint(*a).size(), 16u);
  // Children fingerprint independently of their parents.
  EXPECT_EQ(OperatorFingerprint(*a->children()[0]),
            OperatorFingerprint(*b->children()[0]));
}

TEST_F(StatsStoreTest, FingerprintDistinguishesStructure) {
  const PlanPtr narrow = MustParse("select[temperature > 30](readings)");
  const PlanPtr wide = MustParse("select[temperature > 20](readings)");
  const PlanPtr windowed =
      MustParse("select[temperature > 30](window[5](readings))");
  EXPECT_NE(OperatorFingerprint(*narrow), OperatorFingerprint(*wide));
  EXPECT_NE(OperatorFingerprint(*narrow), OperatorFingerprint(*windowed));
  // The same selection over a different input is a different operator.
  EXPECT_NE(OperatorFingerprint(*narrow),
            OperatorFingerprint(*windowed->children()[0]));
}

TEST_F(StatsStoreTest, RecordPlanAggregatesAndDerivesRowsIn) {
  const PlanPtr plan = MustParse("select[temperature > 30](readings)");
  const PlanNode* select = plan.get();
  const PlanNode* scan = plan->children()[0].get();

  StatsStore store;
  PlanStatsCollector collector;
  NodeRuntimeStats& scan_stats = collector.StatsFor(scan);
  scan_stats.evals = 1;
  scan_stats.rows_out = 10;
  scan_stats.wall_ns = 500;
  NodeRuntimeStats& select_stats = collector.StatsFor(select);
  select_stats.evals = 1;
  select_stats.rows_out = 4;
  select_stats.wall_ns = 1200;
  store.RecordPlan(*plan, collector);

  ASSERT_EQ(store.size(), 2u);
  const std::optional<OperatorStats> sel =
      store.Find(OperatorFingerprint(*select));
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->kind, "select");
  EXPECT_EQ(sel->evals, 1u);
  // rows_in is derived from the child's output, not stored directly.
  EXPECT_EQ(sel->rows_in, 10u);
  EXPECT_EQ(sel->rows_out, 4u);
  EXPECT_EQ(sel->wall_ns, 1200u);
  EXPECT_DOUBLE_EQ(sel->selectivity(), 0.4);

  const std::optional<OperatorStats> leaf =
      store.Find(OperatorFingerprint(*scan));
  ASSERT_TRUE(leaf.has_value());
  EXPECT_EQ(leaf->rows_in, 0u);
  // A leaf has no relational input: neutral selectivity prior.
  EXPECT_DOUBLE_EQ(leaf->selectivity(), 1.0);

  // A second evaluation of a structurally identical plan instance
  // accumulates into the same records.
  const PlanPtr again = MustParse("select[temperature > 30](readings)");
  PlanStatsCollector second;
  second.StatsFor(again->children()[0].get()).rows_out = 6;
  second.StatsFor(again->children()[0].get()).evals = 1;
  NodeRuntimeStats& top = second.StatsFor(again.get());
  top.evals = 1;
  top.rows_out = 2;
  store.RecordPlan(*again, second);

  EXPECT_EQ(store.size(), 2u);
  const std::optional<OperatorStats> merged =
      store.Find(OperatorFingerprint(*select));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->evals, 2u);
  EXPECT_EQ(merged->rows_in, 16u);
  EXPECT_EQ(merged->rows_out, 6u);
  EXPECT_DOUBLE_EQ(merged->mean_rows_out(), 3.0);
}

TEST_F(StatsStoreTest, SnapshotOrdersByWallTime) {
  const PlanPtr plan = MustParse("select[n > 1](window[2](s))");
  StatsStore store;
  PlanStatsCollector collector;
  collector.StatsFor(plan.get()).wall_ns = 100;
  collector.StatsFor(plan.get()).evals = 1;
  collector.StatsFor(plan->children()[0].get()).wall_ns = 900;
  collector.StatsFor(plan->children()[0].get()).evals = 1;
  store.RecordPlan(*plan, collector);

  const std::vector<OperatorStats> snapshot = store.Snapshot();
  ASSERT_GE(snapshot.size(), 2u);
  EXPECT_GE(snapshot[0].wall_ns, snapshot[1].wall_ns);
  EXPECT_EQ(snapshot[0].kind, "window");
}

TEST_F(StatsStoreTest, JsonRoundtripIntoBaseline) {
  const PlanPtr plan = MustParse("select[temperature > 30](readings)");
  StatsStore store;
  PlanStatsCollector collector;
  collector.StatsFor(plan->children()[0].get()).rows_out = 8;
  collector.StatsFor(plan->children()[0].get()).evals = 1;
  NodeRuntimeStats& top = collector.StatsFor(plan.get());
  top.evals = 3;
  top.rows_out = 5;
  top.wall_ns = 777;
  top.invocations = 4;
  top.memo_hits = 2;
  store.RecordPlan(*plan, collector);

  const std::string json = store.ToJson();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"operators\""), std::string::npos);

  StatsStore fresh;
  EXPECT_FALSE(fresh.has_baseline());
  ASSERT_TRUE(fresh.LoadBaselineFromJson(json).ok());
  EXPECT_TRUE(fresh.has_baseline());
  const std::optional<OperatorStats> base =
      fresh.FindBaseline(OperatorFingerprint(*plan));
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(base->evals, 3u);
  EXPECT_EQ(base->rows_in, 8u);
  EXPECT_EQ(base->rows_out, 5u);
  EXPECT_EQ(base->wall_ns, 777u);
  EXPECT_EQ(base->invocations, 4u);
  EXPECT_EQ(base->memo_hits, 2u);
  EXPECT_DOUBLE_EQ(base->memo_hit_rate(), 0.5);
  // The baseline does not populate live records.
  EXPECT_EQ(fresh.size(), 0u);
  EXPECT_FALSE(fresh.Find(OperatorFingerprint(*plan)).has_value());
}

TEST_F(StatsStoreTest, ClearDropsLiveRecordsButKeepsBaseline) {
  const PlanPtr plan = MustParse("window[3](s)");
  StatsStore store;
  PlanStatsCollector collector;
  collector.StatsFor(plan.get()).evals = 1;
  collector.StatsFor(plan.get()).rows_out = 9;
  store.RecordPlan(*plan, collector);
  ASSERT_TRUE(store.LoadBaselineFromJson(store.ToJson()).ok());

  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.has_baseline());
  EXPECT_TRUE(store.FindBaseline(OperatorFingerprint(*plan)).has_value());
}

TEST_F(StatsStoreTest, ConcurrentFirstFingerprintAndRecordPlan) {
  // Several threads race the first fingerprint of every node of one
  // shared plan and record it concurrently: each node renders exactly
  // once, every thread sees the oracle value, and no merge is lost.
  const PlanPtr plan = MustParse(
      "project[location](select[temperature > 30](join(window[5](readings), "
      "sensors)))");
  std::vector<const PlanNode*> nodes;
  for (std::vector<const PlanNode*> pending = {plan.get()};
       !pending.empty();) {
    const PlanNode* node = pending.back();
    pending.pop_back();
    nodes.push_back(node);
    for (const PlanPtr& child : node->children()) {
      pending.push_back(child.get());
    }
  }
  ASSERT_EQ(nodes.size(), 5u);
  PlanStatsCollector collector;
  for (const PlanNode* node : nodes) {
    collector.StatsFor(node).evals = 1;
    collector.StatsFor(node).rows_out = 2;
  }

  Counter& renders = MetricsRegistry::Global().GetCounter(
      "serena.stats.fingerprint_renders");
  const std::uint64_t renders_before = renders.value();
  StatsStore store;
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::atomic<int> ready{0};
  std::vector<std::vector<std::string>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      // Alternate directions so threads collide on different nodes first.
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const std::size_t k = t % 2 == 0 ? i : nodes.size() - 1 - i;
        seen[t].push_back(OperatorFingerprint(*nodes[k]));
      }
      for (int round = 0; round < kRounds; ++round) {
        store.RecordPlan(*plan, collector);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(renders.value() - renders_before, nodes.size());
  for (int t = 0; t < kThreads; ++t) {
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::size_t k = t % 2 == 0 ? i : nodes.size() - 1 - i;
      expected.push_back(testing_oracle::UncachedFingerprint(*nodes[k]));
    }
    EXPECT_EQ(seen[t], expected);
  }
  EXPECT_EQ(store.size(), nodes.size());
  for (const PlanNode* node : nodes) {
    const std::optional<OperatorStats> stats =
        store.Find(OperatorFingerprint(*node));
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->evals, std::uint64_t{kThreads * kRounds});
    EXPECT_EQ(stats->rows_out, std::uint64_t{2 * kThreads * kRounds});
  }
}

TEST_F(StatsStoreTest, LookupsRejectNonFingerprintKeys) {
  const PlanPtr plan = MustParse("window[3](s)");
  StatsStore store;
  PlanStatsCollector collector;
  collector.StatsFor(plan.get()).evals = 1;
  store.RecordPlan(*plan, collector);
  const std::string key = OperatorFingerprint(*plan);
  ASSERT_TRUE(store.Find(key).has_value());
  std::string upper = key;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  for (const std::string& bogus :
       {std::string(), std::string("abc"), key + "0", key.substr(1) + "g"}) {
    EXPECT_FALSE(store.Find(bogus).has_value()) << bogus;
  }
  if (upper != key) {
    EXPECT_FALSE(store.Find(upper).has_value());
  }
}

TEST_F(StatsStoreTest, LoadBaselineRejectsMalformedJson) {
  StatsStore store;
  EXPECT_FALSE(store.LoadBaselineFromJson("not json").ok());
  EXPECT_FALSE(store.LoadBaselineFromJson("[1,2,3]").ok());
  EXPECT_FALSE(store.has_baseline());
}

}  // namespace
}  // namespace obs
}  // namespace serena
