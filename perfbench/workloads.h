// Seeded workload generator for the PEMS long-run benchmark.
//
// A workload is everything the benchmark feeds one engine: the DDL
// script (schema, prototypes and catalog rows), the standing queries
// registered at set-up, the simulated devices, the stream arrivals for
// every instant and the control schedule (catalog writes, query churn,
// one-shot queries) applied between ticks. All of it is derived from
// (workload name, seed) before any timing starts; the engine only ever
// sees the generated inputs.
#ifndef SERENA_PERFBENCH_WORKLOADS_H_
#define SERENA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "types/tuple.h"

namespace perfbench {

/// Zipf(n, s) over ranks 0..n-1 by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t Sample(serena::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// A standing query registered during set-up. `into` names the derived
/// stream its results are appended to (empty: results go to a sink).
struct StandingQuery {
  std::string name;
  std::string algebra;
  std::string into;
};

/// Arrivals of one stream. Instant τ receives `blocks[(τ - 1) % size]`;
/// the block count (the period) exceeds every window plus the executor's
/// prune slack, so no window ever sees a block twice and retained history
/// never holds one twice.
struct StreamFeed {
  std::string stream;
  std::vector<std::vector<serena::Tuple>> blocks;
};

/// What the tick loop does right after tick τ and before tick τ + 1, in
/// this order: catalog DDL, unregistrations, registrations, one-shots.
struct ControlStep {
  std::vector<std::string> ddl;
  std::vector<std::string> unregister;
  std::vector<StandingQuery> register_queries;
  std::vector<std::string> oneshots;
};

struct Inputs {
  std::string workload;
  std::string ddl;
  std::vector<StandingQuery> standing;
  std::vector<StreamFeed> feeds;
  /// Simulated devices registered directly in the service registry:
  /// sensors implement getTemperature, messengers sendMessage.
  std::vector<std::string> sensor_devices;
  std::vector<std::string> messenger_devices;
  int device_delay_us = 0;
  int warmup_ticks = 0;
  int timed_ticks = 0;
  /// `control[τ]` runs after tick τ (index 0 unused); size is
  /// warmup_ticks + timed_ticks + 1. Warm-up steps are empty.
  std::vector<ControlStep> control;

  int total_ticks() const { return warmup_ticks + timed_ticks; }
  /// Tuples appended at instant τ across all feeds.
  std::size_t ArrivalsAt(std::int64_t instant) const;
  /// A digest over every generated input (DDL, queries, devices,
  /// arrivals, schedule) — the same-seed/different-seed self-test.
  std::uint64_t Fingerprint() const;
  /// Sizes only (tuples per block, query and op counts): equal across
  /// seeds of one workload.
  std::string Shape() const;
};

/// The benchmark's workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Timed ticks a workload runs per requested second of measurement
/// (the run is a fixed amount of work sized to take about that long).
/// InvalidArgument for an unknown workload.
serena::Result<int> TicksPerSecond(const std::string& workload);

/// Generates the inputs of `workload` for `seed`, with `timed_ticks`
/// timed instants after the warm-up and `period` arrival blocks per
/// stream. InvalidArgument for an unknown workload.
serena::Result<Inputs> Generate(const std::string& workload,
                                std::uint64_t seed, int timed_ticks,
                                int period = 32);

/// Generator self-test: same seed → identical inputs, another seed →
/// different inputs of the same shape, unknown name → rejected. Returns
/// an empty string on success, else what failed.
std::string GeneratorSelfTest(const std::string& workload);

}  // namespace perfbench

#endif  // SERENA_PERFBENCH_WORKLOADS_H_
