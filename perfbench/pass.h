// One pass of the benchmark: builds a PEMS from generated inputs, runs
// the closed tick loop over it and collects the pass's timings,
// counts and result log.
#ifndef SERENA_PERFBENCH_PASS_H_
#define SERENA_PERFBENCH_PASS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check.h"
#include "common/result.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct PassOptions {
  /// The reference engine: scalar core (vectorization off) and the
  /// optimizer off.
  bool reference = false;
  /// Metrics registry on (`SERENA_METRICS` semantics) for the pass.
  bool metrics = true;
  /// Set-up repetitions; the last engine built is the one measured.
  int setups = 1;
  /// Timed ticks to run (at most `Inputs::timed_ticks`).
  int timed_ticks = 0;
  /// Non-null for the traced pass: phase observer, spans, per-layer
  /// timers and the separately timed parse / gate / optimize calls.
  SpanRecorder* recorder = nullptr;
};

/// Operations attempted and failed, over every engine of the pass.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Subsets of `failed`, reported separately: a second physical call
  /// of one ACTIVE (ψ, service, input, instant), and an action in a
  /// query's log with no physical call behind it.
  std::uint64_t duplicate_actions = 0;
  std::uint64_t phantom_actions = 0;

  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const Accounting& other) {
    attempted += other.attempted;
    failed += other.failed;
    duplicate_actions += other.duplicate_actions;
    phantom_actions += other.phantom_actions;
  }
};

struct PassResult {
  ResultLog log;
  Accounting accounting;
  std::vector<double> setup_s;
  std::uint64_t ticks = 0;   ///< Timed ticks.
  std::uint64_t tuples = 0;  ///< Tuples appended during timed ticks.
  std::vector<std::uint64_t> tick_ns;
  std::vector<std::uint64_t> register_ns;
  std::vector<std::uint64_t> oneshot_ns;
  std::vector<std::uint64_t> ddl_ns;
  double peak_rss_mb = 0;

  // Traced pass only (zero otherwise).
  std::uint64_t sources_ns = 0, steps_ns = 0, merge_prune_ns = 0,
                other_ns = 0;
  /// Ticks whose four phases did not add up to the Tick wall time.
  std::uint64_t phase_mismatches = 0;
  std::uint64_t append_ns = 0;
  std::uint64_t sink_ns = 0;
  std::uint64_t retained_tuples = 0;  ///< Summed over timed ticks.
  std::vector<std::uint64_t> parse_ns, gate_ns, optimize_ns;
  /// Parse + gate + optimize of each registered text (one-shots excluded).
  std::vector<std::uint64_t> register_explained_ns;
  double query_step_p50_ms = 0;
  std::uint64_t rows_in = 0, rows_out = 0;
  std::uint64_t optimizer_runs = 0, optimizer_fragments = 0;
  std::uint64_t stats_fingerprints = 0;

  // Service layer over the timed ticks (all passes).
  std::uint64_t logical_calls = 0, physical_calls = 0, memo_hits = 0,
                active_calls = 0;
  std::uint64_t device_ns = 0;
};

serena::Result<PassResult> RunPass(const Inputs& inputs,
                                   const PassOptions& options);

}  // namespace perfbench

#endif  // SERENA_PERFBENCH_PASS_H_
