#include "pass.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "algebra/vectorized.h"
#include "common/hash.h"
#include "ddl/algebra_parser.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "optimizer/pipeline.h"
#include "pems/pems.h"
#include "service/service.h"

namespace perfbench {
namespace {

using serena::Status;
using serena::Timestamp;
using serena::Tuple;
using serena::Value;

std::string CallKey(const std::string& prototype, const std::string& service,
                    const Tuple& input, Timestamp instant) {
  return prototype + '\x1f' + service + '\x1f' + input.ToString() + '\x1f' +
         std::to_string(instant);
}

/// Physical calls into the simulated devices of one engine. ACTIVE
/// calls are keyed by (ψ, service, input, instant): the exactly-once
/// guard and the evidence behind every logged action. Passive calls are
/// only counted and timed.
class DeviceLedger {
 public:
  void Record(const serena::Prototype& prototype, const std::string& service,
              const Tuple& input, Timestamp instant, std::uint64_t start_ns,
              std::uint64_t end_ns) {
    device_ns_.fetch_add(end_ns - start_ns, std::memory_order_relaxed);
    physical_.fetch_add(1, std::memory_order_relaxed);
    if (prototype.active()) {
      active_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu_);
      if (++active_calls_[CallKey(prototype.name(), service, input,
                                  instant)] > 1) {
        ++duplicates_;
      }
    }
    if (SpanRecorder* recorder = recorder_.load(std::memory_order_acquire)) {
      recorder->RecordChild("service.device", start_ns, end_ns, instant);
    }
  }

  bool CalledActive(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_calls_.count(key) > 0;
  }
  std::uint64_t duplicates() const {
    std::lock_guard<std::mutex> lock(mu_);
    return duplicates_;
  }
  std::uint64_t device_ns() const { return device_ns_.load(); }
  std::uint64_t active() const { return active_.load(); }
  void set_recorder(SpanRecorder* recorder) { recorder_.store(recorder); }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::uint32_t> active_calls_;
  std::uint64_t duplicates_ = 0;
  std::atomic<std::uint64_t> device_ns_{0};
  std::atomic<std::uint64_t> physical_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<SpanRecorder*> recorder_{nullptr};
};

/// A simulated device: answers hash(service, prototype, input, instant)
/// after a fixed delay standing in for the device round trip.
class BenchDevice : public serena::Service {
 public:
  BenchDevice(std::string id, std::vector<serena::PrototypePtr> prototypes,
              int delay_us, DeviceLedger* ledger)
      : Service(std::move(id)),
        prototypes_(std::move(prototypes)),
        delay_us_(delay_us),
        ledger_(ledger) {}

  std::vector<serena::PrototypePtr> prototypes() const override {
    return prototypes_;
  }

  serena::Result<std::vector<Tuple>> Invoke(const serena::Prototype& prototype,
                                            const Tuple& input,
                                            Timestamp now) override {
    const std::uint64_t start = NowNs();
    if (delay_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
    }
    std::uint64_t h = serena::StableHash(id() + '|' + prototype.name() + '|' +
                                         input.ToString() + '|' +
                                         std::to_string(now));
    std::vector<Value> values;
    for (const serena::Attribute& attr : prototype.output().attributes()) {
      h = serena::Mix64(h);
      switch (attr.type) {
        case serena::DataType::kBool:
          values.push_back(Value::Bool(true));
          break;
        case serena::DataType::kInt:
          values.push_back(Value::Int(static_cast<std::int64_t>(h % 1000)));
          break;
        case serena::DataType::kReal:
          values.push_back(Value::Real(static_cast<double>(h % 10000) / 100.0));
          break;
        default: values.push_back(Value::String(std::to_string(h % 1000)));
      }
    }
    ledger_->Record(prototype, id(), input, now, start, NowNs());
    return std::vector<Tuple>{Tuple(std::move(values))};
  }

 private:
  std::vector<serena::PrototypePtr> prototypes_;
  int delay_us_;
  DeviceLedger* ledger_;
};

/// The source's state: which arrivals to append, and the per-layer
/// append timer of the traced pass.
struct SourceState {
  const Inputs* inputs = nullptr;
  bool time_appends = false;
  std::uint64_t runs = 0;
  std::uint64_t failures = 0;
  std::uint64_t appended = 0;
  std::uint64_t append_ns = 0;
};

/// One engine and everything wired into it. Heap-allocated and never
/// moved: sinks and the source hold pointers into it.
struct Engine {
  DeviceLedger ledger;
  SourceState source;
  ResultLog log;
  std::atomic<std::uint64_t> sink_ns{0};
  std::atomic<SpanRecorder*> sink_recorder{nullptr};
  std::size_t live_queries = 0;
  Accounting accounting;
  std::unique_ptr<serena::Pems> pems;  // Last: destroyed first.
};

std::uint64_t Elapsed(std::uint64_t start) { return NowNs() - start; }

/// Counts one attempted operation; failures are also reported on stderr
/// (the first few per engine).
void Account(Engine* engine, const Status& status, const std::string& what) {
  engine->accounting.Add(status.ok());
  if (!status.ok() && engine->accounting.failed <= 5) {
    std::fprintf(stderr, "pems_perf: %s failed: %s\n", what.c_str(),
                 status.ToString().c_str());
  }
}

serena::ContinuousQuery::Sink MakeSink(Engine* engine, QueryLog* qlog) {
  return [engine, qlog](Timestamp instant, const serena::XRelation& rows) {
    SpanRecorder* recorder =
        engine->sink_recorder.load(std::memory_order_acquire);
    if (recorder == nullptr) {
      qlog->Add(instant, rows);
      return;
    }
    const std::uint64_t start = NowNs();
    qlog->Add(instant, rows);
    const std::uint64_t end = NowNs();
    engine->sink_ns.fetch_add(end - start, std::memory_order_relaxed);
    recorder->RecordChild("bench.sink", start, end, instant);
  };
}

Status Register(Engine* engine, const StandingQuery& query) {
  serena::QueryProcessor& qp = engine->pems->queries();
  if (!query.into.empty()) {
    return qp.RegisterContinuousInto(query.name, query.algebra, query.into);
  }
  return qp.RegisterContinuous(query.name, query.algebra,
                               MakeSink(engine, engine->log.Open(query.name)));
}

/// Appends "instant|action" for every action `name` logged, and checks
/// each against the device ledger (an action without a physical call is
/// a failed operation).
void HarvestActions(Engine* engine, const std::string& name) {
  auto query = engine->pems->queries().GetContinuous(name);
  if (!query.ok()) return;
  std::vector<std::string>& out = engine->log.actions[name];
  for (const auto& logged : (*query)->action_log()) {
    out.push_back(std::to_string(logged.instant) + "|" +
                  logged.action.ToString());
    const bool called = engine->ledger.CalledActive(
        CallKey(logged.action.prototype, logged.action.service_ref,
                logged.action.input, logged.instant));
    engine->accounting.Add(called);
    if (!called) ++engine->accounting.phantom_actions;
  }
  if (out.empty()) engine->log.actions.erase(name);
}

serena::Result<std::unique_ptr<Engine>> BuildEngine(
    const Inputs& in, const PassOptions& options) {
  auto engine = std::make_unique<Engine>();
  engine->source.inputs = &in;
  SERENA_ASSIGN_OR_RETURN(engine->pems, serena::Pems::Create());
  serena::Pems& pems = *engine->pems;
  if (options.reference) pems.queries().set_optimize(false);

  std::size_t from = 0;
  while (from < in.ddl.size()) {
    std::size_t to = in.ddl.find('\n', from);
    if (to == std::string::npos) to = in.ddl.size();
    if (to > from) {
      const std::string statement = in.ddl.substr(from, to - from);
      Account(engine.get(), pems.tables().ExecuteDdl(statement), statement);
    }
    from = to + 1;
  }

  auto add_devices = [&](const std::vector<std::string>& ids,
                         const char* prototype) -> Status {
    if (ids.empty()) return Status::OK();
    SERENA_ASSIGN_OR_RETURN(serena::PrototypePtr proto,
                            pems.env().GetPrototype(prototype));
    for (const std::string& id : ids) {
      SERENA_RETURN_NOT_OK(pems.env().registry().Register(
          std::make_shared<BenchDevice>(id, std::vector{proto},
                                        in.device_delay_us, &engine->ledger)));
    }
    return Status::OK();
  };
  SERENA_RETURN_NOT_OK(add_devices(in.sensor_devices, "getTemperature"));
  SERENA_RETURN_NOT_OK(add_devices(in.messenger_devices, "sendMessage"));

  std::vector<std::string> fed;
  for (const StreamFeed& feed : in.feeds) fed.push_back(feed.stream);
  SourceState* source = &engine->source;
  pems.queries().executor().AddSource(
      [&pems, source](Timestamp t) -> Status {
        ++source->runs;
        const Status status = [&]() -> Status {
          for (const StreamFeed& feed : source->inputs->feeds) {
            SERENA_ASSIGN_OR_RETURN(serena::XDRelation * xd,
                                    pems.streams().GetStream(feed.stream));
            const std::vector<Tuple>& block =
                feed.blocks[static_cast<std::size_t>(t - 1) %
                            feed.blocks.size()];
            const std::uint64_t start = source->time_appends ? NowNs() : 0;
            for (const Tuple& tuple : block) {
              SERENA_RETURN_NOT_OK(xd->Append(t, tuple));
            }
            if (source->time_appends) source->append_ns += Elapsed(start);
            source->appended += block.size();
          }
          return Status::OK();
        }();
        // The executor only logs a failed source; count it here.
        if (!status.ok()) ++source->failures;
        return status;
      },
      fed);

  for (const StandingQuery& query : in.standing) {
    const Status status = Register(engine.get(), query);
    Account(engine.get(), status, "register " + query.name);
    if (status.ok()) ++engine->live_queries;
  }
  for (int t = 0; t < in.warmup_ticks; ++t) {
    engine->accounting.attempted += engine->live_queries;
    pems.Tick();
  }
  return engine;
}

template <typename F>
auto Timed(SpanRecorder* recorder, const char* span, Timestamp instant,
           std::vector<std::uint64_t>* samples, F&& call) {
  const std::uint64_t id = recorder != nullptr ? recorder->NextId() : 0;
  if (recorder != nullptr) recorder->current_parent.store(id);
  const std::uint64_t start = NowNs();
  auto result = call();
  const std::uint64_t end = NowNs();
  if (samples != nullptr) samples->push_back(end - start);
  if (recorder != nullptr) {
    recorder->current_parent.store(0);
    recorder->Record(span, id, 0, start, end, instant);
  }
  return result;
}

/// The traced pass's separately timed control layers: parse, gate and
/// optimize the text the real call is about to receive. Returns their
/// summed time.
std::uint64_t TimeControlLayers(Engine* engine,
                                const serena::optimizer::Pipeline& pipeline,
                                SpanRecorder* recorder, PassResult* out,
                                const std::string& algebra,
                                serena::AnalysisContext context,
                                Timestamp instant) {
  auto plan = Timed(recorder, "ddl.parse", instant, &out->parse_ns,
                    [&] { return serena::ParseAlgebra(algebra); });
  if (!plan.ok()) return out->parse_ns.back();
  Timed(recorder, "analysis.gate", instant, &out->gate_ns, [&] {
    return engine->pems->queries().analysis_session().AnalyzePlan(*plan,
                                                                  context);
  });
  Timed(recorder, "optimizer.optimize", instant, &out->optimize_ns,
        [&] { return pipeline.Optimize(*plan, context); });
  return out->parse_ns.back() + out->gate_ns.back() + out->optimize_ns.back();
}

/// Runs control step `instant` (after tick `instant`): catalog DDL,
/// unregistrations, registrations, one-shots.
void RunControl(Engine* engine, const ControlStep& step, Timestamp instant,
                const serena::optimizer::Pipeline* pipeline,
                SpanRecorder* recorder, PassResult* out) {
  serena::Pems& pems = *engine->pems;
  for (const std::string& ddl : step.ddl) {
    const Status status = Timed(recorder, "ddl.execute", instant, &out->ddl_ns,
                                [&] { return pems.tables().ExecuteDdl(ddl); });
    Account(engine, status, ddl);
  }
  for (const std::string& name : step.unregister) {
    HarvestActions(engine, name);
    const Status status =
        Timed(recorder, "control.unregister", instant, nullptr,
              [&] { return pems.queries().UnregisterContinuous(name); });
    Account(engine, status, "unregister " + name);
    if (status.ok()) --engine->live_queries;
  }
  for (const StandingQuery& query : step.register_queries) {
    if (recorder != nullptr) {
      out->register_explained_ns.push_back(TimeControlLayers(
          engine, *pipeline, recorder, out, query.algebra,
          serena::AnalysisContext::kContinuous, instant));
    }
    const Status status = Timed(recorder, "control.register", instant,
                                &out->register_ns,
                                [&] { return Register(engine, query); });
    Account(engine, status, "register " + query.name + " " + query.algebra);
    if (status.ok()) ++engine->live_queries;
  }
  for (const std::string& text : step.oneshots) {
    if (recorder != nullptr) {
      TimeControlLayers(engine, *pipeline, recorder, out, text,
                        serena::AnalysisContext::kOneShot, instant);
    }
    auto result = Timed(recorder, "control.oneshot", instant, &out->oneshot_ns,
                        [&] { return pems.queries().ExecuteOneShot(text); });
    Account(engine, result.status(), "one-shot " + text);
    if (result.ok()) {
      engine->log.Open("oneshot")->Add(instant, result->relation);
    }
  }
}

struct StatsTotals {
  std::uint64_t rows_in = 0, rows_out = 0;
};

StatsTotals SumOperatorStats() {
  StatsTotals totals;
  for (const serena::obs::OperatorStats& op :
       serena::obs::StatsStore::Global().Snapshot()) {
    totals.rows_in += op.rows_in;
    totals.rows_out += op.rows_out;
  }
  return totals;
}

std::uint64_t CounterValue(const char* name) {
  const serena::obs::Counter* counter =
      serena::obs::MetricsRegistry::Global().FindCounter(name);
  return counter != nullptr ? counter->value() : 0;
}

std::uint64_t RetainedTuples(serena::Pems& pems) {
  std::uint64_t total = 0;
  for (const std::string& name : pems.streams().StreamNames()) {
    auto stream = pems.streams().GetStream(name);
    if (stream.ok()) total += (*stream)->size();
  }
  return total;
}

/// Restores process-wide switches when a pass ends, on every path.
class GlobalSwitches {
 public:
  GlobalSwitches(bool reference, bool metrics)
      : metrics_before_(serena::obs::MetricsRegistry::Global().enabled()) {
    if (reference) serena::vec::SetEnabledForTesting(false);
    serena::obs::MetricsRegistry::Global().set_enabled(metrics);
  }
  ~GlobalSwitches() {
    serena::vec::SetEnabledForTesting(std::nullopt);
    serena::obs::MetricsRegistry::Global().set_enabled(metrics_before_);
  }
  GlobalSwitches(const GlobalSwitches&) = delete;
  GlobalSwitches& operator=(const GlobalSwitches&) = delete;

 private:
  bool metrics_before_;
};

/// VmHWM of this process in MiB (0 when /proc is unavailable). Not
/// getrusage's ru_maxrss: that keeps the peak of the image before exec,
/// i.e. of the launching Python process.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

serena::Result<PassResult> RunPass(const Inputs& in,
                                   const PassOptions& options) {
  GlobalSwitches switches(options.reference, options.metrics);
  PassResult out;
  SpanRecorder* recorder = options.recorder;

  // Set-up, repeated; every engine starts from an empty statistics store
  // so no run's learned cardinalities steer another run's plans.
  std::unique_ptr<Engine> engine;
  for (int s = 0; s < std::max(1, options.setups); ++s) {
    if (engine != nullptr) {
      out.accounting.Merge(engine->accounting);
      engine.reset();
    }
    serena::obs::StatsStore::Global().Clear();
    const std::uint64_t start = NowNs();
    SERENA_ASSIGN_OR_RETURN(engine, BuildEngine(in, options));
    out.setup_s.push_back(static_cast<double>(Elapsed(start)) / 1e9);
  }
  serena::Pems& pems = *engine->pems;
  serena::ContinuousExecutor& executor = pems.queries().executor();

  std::optional<serena::optimizer::Pipeline> pipeline;
  PhaseObserver observer(recorder);
  if (recorder != nullptr) {
    pipeline.emplace(&pems.env(), &pems.streams(),
                     pems.queries().optimizer_options());
    engine->source.time_appends = true;
    engine->ledger.set_recorder(recorder);
    engine->sink_recorder.store(recorder);
    executor.AddTickObserver(&observer);
  }

  const serena::InvocationStats calls_before = pems.env().registry().stats();
  const std::uint64_t device_ns_before = engine->ledger.device_ns();
  const std::uint64_t active_before = engine->ledger.active();
  const std::uint64_t appended_before = engine->source.appended;
  const StatsTotals stats_before =
      recorder != nullptr ? SumOperatorStats() : StatsTotals{};
  const std::uint64_t runs_before = CounterValue("serena.optimizer.runs");
  const std::uint64_t fragments_before =
      CounterValue("serena.optimizer.cost.fragments");

  const int ticks = std::min(options.timed_ticks, in.timed_ticks);
  out.tick_ns.reserve(static_cast<std::size_t>(ticks));
  for (int i = 0; i < ticks; ++i) {
    engine->accounting.attempted += engine->live_queries;
    std::uint64_t root_id = 0;
    if (recorder != nullptr) {
      root_id = recorder->NextId();
      observer.StartTick(root_id);
      recorder->current_parent.store(root_id);
    }
    const std::uint64_t start = NowNs();
    const Timestamp instant = pems.Tick();
    const std::uint64_t end = NowNs();
    out.tick_ns.push_back(end - start);
    if (recorder != nullptr) {
      recorder->current_parent.store(0);
      const PhaseObserver::Tick& phase = observer.last();
      recorder->Record("pems.tick", root_id, 0, start, end, instant);
      recorder->Record("pems.other", recorder->NextId(), root_id, start,
                       phase.begin, instant);
      recorder->Record("pems.other", recorder->NextId(), root_id, phase.end,
                       end, instant);
      const std::uint64_t sources = phase.sources_done - phase.begin;
      const std::uint64_t steps = phase.first_step - phase.sources_done;
      const std::uint64_t merge = phase.end - phase.first_step;
      const std::uint64_t other = (phase.begin - start) + (end - phase.end);
      const bool ordered = start <= phase.begin &&
                           phase.begin <= phase.sources_done &&
                           phase.sources_done <= phase.first_step &&
                           phase.first_step <= phase.end && phase.end <= end;
      if (!ordered || sources + steps + merge + other != end - start) {
        ++out.phase_mismatches;
      }
      out.sources_ns += sources;
      out.steps_ns += steps;
      out.merge_prune_ns += merge;
      out.other_ns += other;
      out.retained_tuples += RetainedTuples(pems);
    }
    RunControl(engine.get(), in.control[static_cast<std::size_t>(instant)],
               instant, pipeline ? &*pipeline : nullptr, recorder, &out);
  }
  out.ticks = static_cast<std::uint64_t>(ticks);
  out.peak_rss_mb = PeakRssMb();

  if (recorder != nullptr) {
    executor.RemoveTickObserver(&observer);
    engine->ledger.set_recorder(nullptr);
    engine->sink_recorder.store(nullptr);
    out.append_ns = engine->source.append_ns;
    out.sink_ns = engine->sink_ns.load();
    const StatsTotals stats_after = SumOperatorStats();
    out.rows_in = stats_after.rows_in - stats_before.rows_in;
    out.rows_out = stats_after.rows_out - stats_before.rows_out;
    out.optimizer_runs = CounterValue("serena.optimizer.runs") - runs_before;
    out.optimizer_fragments =
        CounterValue("serena.optimizer.cost.fragments") - fragments_before;
    out.stats_fingerprints = serena::obs::StatsStore::Global().size();
    std::vector<double> step_p50;
    for (const auto& q : executor.health().Snapshots()) {
      if (q.steps > 0) {
        step_p50.push_back(static_cast<double>(q.p50_step_ns) / 1e6);
      }
    }
    if (!step_p50.empty()) {
      std::nth_element(step_p50.begin(), step_p50.begin() + step_p50.size() / 2,
                       step_p50.end());
      out.query_step_p50_ms = step_p50[step_p50.size() / 2];
    }
  }

  const serena::InvocationStats calls_after = pems.env().registry().stats();
  out.tuples = engine->source.appended - appended_before;
  out.logical_calls =
      calls_after.logical_invocations - calls_before.logical_invocations;
  out.physical_calls =
      calls_after.physical_invocations - calls_before.physical_invocations;
  out.memo_hits = calls_after.memo_hits - calls_before.memo_hits;
  out.active_calls = engine->ledger.active() - active_before;
  out.device_ns = engine->ledger.device_ns() - device_ns_before;

  // Failure accounting for the engine the pass measured: query steps,
  // service invocations, the exactly-once guard and every logged action.
  Accounting& acc = engine->accounting;
  acc.attempted += engine->source.runs;
  acc.failed += engine->source.failures;
  acc.failed += executor.total_query_errors();
  acc.attempted += calls_after.logical_invocations;
  acc.failed += calls_after.failed_invocations;
  acc.duplicate_actions = engine->ledger.duplicates();
  acc.failed += acc.duplicate_actions;
  for (const std::string& name : executor.QueryNames()) {
    HarvestActions(engine.get(), name);
  }
  out.accounting.Merge(acc);
  out.log = std::move(engine->log);
  return out;
}

}  // namespace perfbench
