// pems_perf: the long-run PEMS benchmark (see README.md in this
// directory).
//
//   pems_perf --workload window_analytics --seed 1 --seconds 6 --trace 0
//
// --trace 0 runs the measured engine and prints the end-to-end metrics;
// --trace 1 runs the per-layer pass set (untraced, traced, metrics off)
// and prints the per-layer metrics, the self-time table and a Chrome
// trace under .bench_out/. Both check every engine's outputs against a
// reference engine (scalar core, optimizer off) built from the same
// inputs in the same invocation. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "check.h"
#include "pass.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 6;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') *error = "bad --seed " + value;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1 || args->seconds > 600) {
        *error = "bad --seconds " + value;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") *error = "bad --trace " + value;
      args->trace = value == "1";
    } else {
      *error = "unknown flag " + flag;
    }
    if (!error->empty()) return false;
  }
  if (args->workload.empty()) *error = "--workload is required";
  return error->empty();
}

/// Nearest-rank percentile (q in (0, 1]) of nanosecond samples, in ms.
double PercentileMs(std::vector<std::uint64_t> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return static_cast<double>(samples[std::max<std::size_t>(rank, 1) - 1]) / 1e6;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double SumMs(const std::vector<std::uint64_t>& samples) {
  double total = 0;
  for (const std::uint64_t s : samples) total += static_cast<double>(s);
  return total / 1e6;
}

/// Metrics in output order, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      out += (i == 0 ? "\"" : ", \"") + entries_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

struct Verdict {
  bool correct = true;
  Accounting accounting;
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
  void Check(const std::string& label, const PassResult& got,
             const PassResult& reference) {
    const CheckResult check = Compare(got.log, reference.log);
    std::printf("check %s: %s (%llu results, %llu rows, %llu actions)\n",
                label.c_str(), check.ok ? "ok" : "MISMATCH",
                static_cast<unsigned long long>(check.records),
                static_cast<unsigned long long>(check.rows),
                static_cast<unsigned long long>(check.actions));
    if (check.records == 0) Fail(label + ": no results were produced");
    for (const std::string& m : check.mismatches) Fail(label + ": " + m);
  }
};

void PrintSamples(const char* label, const PassResult& pass) {
  std::printf(
      "samples %s: ticks=%zu register=%zu oneshot=%zu ddl=%zu setups=%zu "
      "tuples=%llu\n",
      label, pass.tick_ns.size(), pass.register_ns.size(),
      pass.oneshot_ns.size(), pass.ddl_ns.size(), pass.setup_s.size(),
      static_cast<unsigned long long>(pass.tuples));
}

Metrics EndToEnd(const PassResult& timed) {
  Metrics m;
  m.Set("setup_s", Median(timed.setup_s), "s");
  m.Set("tuples_per_s",
        Ratio(static_cast<double>(timed.tuples), SumMs(timed.tick_ns) / 1e3),
        "tuples/s");
  m.Set("tick_ms_p50", PercentileMs(timed.tick_ns, 0.50), "ms");
  m.Set("oneshot_ms_p50", PercentileMs(timed.oneshot_ns, 0.50), "ms");
  m.Set("register_ms_p50", PercentileMs(timed.register_ns, 0.50), "ms");
  m.Set("peak_rss_mb", timed.peak_rss_mb, "MB");
  return m;
}

Metrics PerLayer(const PassResult& plain, const PassResult& traced,
                 const PassResult& metrics_off, const PassResult& reference) {
  const double ticks = static_cast<double>(traced.ticks);
  const double tuples = static_cast<double>(traced.tuples);
  const double steps_ms = traced.steps_ns / 1e6;
  const double device_ms = traced.device_ns / 1e6;
  const double plain_p50 = PercentileMs(plain.tick_ns, 0.5);
  Metrics m;
  m.Set("tick_ms_p99", PercentileMs(plain.tick_ns, 0.99), "ms");
  m.Set("stream.append_ns_per_tuple", Ratio(traced.append_ns, tuples), "ns");
  m.Set("stream.sources_ms_per_tick", Ratio(traced.sources_ns / 1e6, ticks),
        "ms");
  m.Set("stream.steps_ms_per_tick", Ratio(steps_ms, ticks), "ms");
  m.Set("stream.merge_prune_ms_per_tick",
        Ratio(traced.merge_prune_ns / 1e6, ticks), "ms");
  m.Set("stream.retained_tuples", Ratio(traced.retained_tuples, ticks),
        "count");
  m.Set("stream.query_step_ms_p50", traced.query_step_p50_ms, "ms");
  m.Set("pems.other_ms_per_tick", Ratio(traced.other_ns / 1e6, ticks), "ms");
  m.Set("algebra.rows_in_per_tick", Ratio(traced.rows_in, ticks), "count");
  m.Set("algebra.rows_out_per_tick", Ratio(traced.rows_out, ticks), "count");
  m.Set("algebra.rows_in_per_tuple", Ratio(traced.rows_in, tuples), "count");
  m.Set("service.logical_calls_per_tick", Ratio(traced.logical_calls, ticks),
        "count");
  m.Set("service.physical_calls_per_tick", Ratio(traced.physical_calls, ticks),
        "count");
  m.Set("service.memo_hit_ratio", Ratio(traced.memo_hits, traced.logical_calls),
        "ratio");
  m.Set("service.device_ms_per_tick", Ratio(device_ms, ticks), "ms");
  m.Set("service.concurrency", Ratio(device_ms, steps_ms), "ratio");
  m.Set("service.actions_per_tick", Ratio(traced.active_calls, ticks), "count");
  m.Set("ddl.execute_us_p50", PercentileMs(traced.ddl_ns, 0.5) * 1e3, "us");
  m.Set("ddl.parse_us_p50", PercentileMs(traced.parse_ns, 0.5) * 1e3, "us");
  m.Set("analysis.gate_us_p50", PercentileMs(traced.gate_ns, 0.5) * 1e3, "us");
  m.Set("optimizer.optimize_us_p50",
        PercentileMs(traced.optimize_ns, 0.5) * 1e3, "us");
  m.Set("optimizer.fragments_per_plan",
        Ratio(traced.optimizer_fragments, traced.optimizer_runs), "count");
  m.Set("control.register_explained_frac",
        Ratio(PercentileMs(traced.register_explained_ns, 0.5),
              PercentileMs(traced.register_ns, 0.5)),
        "ratio");
  m.Set("obs.stats_fingerprints",
        static_cast<double>(traced.stats_fingerprints), "count");
  m.Set("obs.metrics_tax_frac",
        Ratio(plain_p50, PercentileMs(metrics_off.tick_ns, 0.5)) - 1.0,
        "ratio");
  m.Set("obs.trace_overhead_frac",
        Ratio(PercentileMs(traced.tick_ns, 0.5), plain_p50) - 1.0, "ratio");
  m.Set("bench.sink_ms_per_tick", Ratio(traced.sink_ns / 1e6, ticks), "ms");
  m.Set("reference.speedup",
        Ratio(PercentileMs(reference.tick_ns, 0.5), plain_p50), "ratio");
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "pems_perf: %s\n", error.c_str());
    return 2;
  }
  auto per_second = TicksPerSecond(args.workload);
  if (!per_second.ok()) {
    std::fprintf(stderr, "pems_perf: %s (known: window_analytics, "
                 "service_fanout, query_churn)\n",
                 per_second.status().ToString().c_str());
    return 2;
  }

  Verdict verdict;
  if (const std::string e = GeneratorSelfTest(args.workload); !e.empty()) {
    verdict.Fail("generator self-test: " + e);
  }
  if (const std::string e = CheckSelfTest(); !e.empty()) {
    verdict.Fail("check self-test: " + e);
  }

  // A fixed amount of work: ≥ 1000 timed ticks per pass, so p99 has
  // ≥ 10 samples beyond it.
  const int ticks = std::max(1000, *per_second * args.seconds);
  auto inputs = Generate(args.workload, args.seed, ticks);
  if (!inputs.ok()) {
    std::fprintf(stderr, "pems_perf: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  std::printf("inputs: %s\n", inputs->Shape().c_str());

  auto run = [&](const char* label, PassOptions options) -> PassResult {
    options.timed_ticks = ticks;
    const std::uint64_t start = NowNs();
    auto pass = RunPass(*inputs, options);
    std::printf("pass %s: %.1f s wall\n", label, (NowNs() - start) / 1e9);
    if (!pass.ok()) {
      std::fprintf(stderr, "pems_perf: %s pass: %s\n", label,
                   pass.status().ToString().c_str());
      std::exit(1);
    }
    PrintSamples(label, *pass);
    verdict.accounting.Merge(pass->accounting);
    return std::move(pass).ValueOrDie();
  };

  Metrics metrics;
  if (!args.trace) {
    const PassResult measured = run("measured", {.setups = 7});
    const PassResult reference = run("reference", {.reference = true});
    verdict.Check("measured", measured, reference);
    metrics = EndToEnd(measured);
  } else {
    SpanRecorder recorder;
    const PassResult plain = run("untraced", {});
    const PassResult traced = run("traced", {.recorder = &recorder});
    const PassResult off = run("metrics_off", {.metrics = false});
    const PassResult reference = run("reference", {.reference = true});
    verdict.Check("untraced", plain, reference);
    verdict.Check("traced", traced, reference);
    verdict.Check("metrics_off", off, reference);
    if (traced.phase_mismatches > 0) {
      verdict.Fail(std::to_string(traced.phase_mismatches) +
                   " ticks whose phases do not sum to the Tick wall time");
    }
    std::printf("%s", recorder.SelfTimeTable(args.workload,
                                             static_cast<double>(traced.ticks))
                          .c_str());
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const std::string path = ".bench_out/trace-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (!recorder.WriteChromeJson(path, 200000)) {
      std::fprintf(stderr, "pems_perf: could not write %s\n", path.c_str());
    } else {
      std::printf("trace: %s\n", path.c_str());
    }
    metrics = PerLayer(plain, traced, off, reference);
  }

  const Accounting& acc = verdict.accounting;
  std::printf("accounting: attempted=%llu failed=%llu duplicate_actions=%llu "
              "phantom_actions=%llu\n",
              static_cast<unsigned long long>(acc.attempted),
              static_cast<unsigned long long>(acc.failed),
              static_cast<unsigned long long>(acc.duplicate_actions),
              static_cast<unsigned long long>(acc.phantom_actions));
  for (const std::string& note : verdict.notes) {
    std::printf("FAIL: %s\n", note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              verdict.correct ? "true" : "false",
              static_cast<unsigned long long>(acc.attempted),
              static_cast<unsigned long long>(acc.failed),
              metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
