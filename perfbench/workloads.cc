#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/hash.h"

namespace perfbench {
namespace {

using serena::Rng;
using serena::Tuple;
using serena::Value;

std::string Id(const char* prefix, std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%03zu", prefix, i);
  return buf;
}

/// A sensor-like REAL reading in [0, scale], rounded to two decimals.
double Reading(Rng& rng, double scale) {
  return std::round(rng.NextDouble() * scale * 100.0) / 100.0;
}

Inputs Skeleton(const std::string& workload, int warmup, int timed) {
  Inputs in;
  in.workload = workload;
  in.warmup_ticks = warmup;
  in.timed_ticks = timed;
  in.control.resize(static_cast<std::size_t>(warmup + timed + 1));
  return in;
}

// ---------------------------------------------------------------------------
// window_analytics: algebra and stream store only.

constexpr std::size_t kAreas = 16;
constexpr std::size_t kHosts = 400;

Inputs WindowAnalytics(std::uint64_t seed, int timed, int period) {
  Inputs in = Skeleton("window_analytics", 10, timed);
  Rng rng(seed);
  std::ostringstream ddl;
  ddl << "EXTENDED RELATION hosts (host STRING, tier INTEGER, owner STRING);\n"
      << "EXTENDED RELATION zones (area STRING, floor INTEGER);\n"
      << "EXTENDED STREAM telemetry (area STRING, host STRING, rack STRING, "
         "load REAL, temperature REAL, battery INTEGER);\n"
      << "EXTENDED STREAM power (area STRING, watts REAL);\n";
  for (std::size_t h = 0; h < kHosts; ++h) {
    ddl << "INSERT INTO hosts VALUES ('" << Id("h", h) << "', "
        << rng.NextInt(1, 4) << ", '" << Id("team", rng.NextBounded(20))
        << "');\n";
  }
  for (std::size_t a = 0; a < kAreas; ++a) {
    ddl << "INSERT INTO zones VALUES ('" << Id("a", a) << "', "
        << rng.NextInt(0, 5) << ");\n";
  }
  in.ddl = ddl.str();

  in.standing = {
      {"deep_chain",
       "rename[load -> cpu](project[area, host, load, temperature]("
       "select[battery > 2](select[battery < 98](select[temperature < 99.9]("
       "select[load > 0.5](select[load < 99.5](select[temperature > 97.0]("
       "window[4](telemetry)))))))))",
       ""},
      {"hot_hosts",
       "join(select[load > 90.0](window[2](telemetry)), "
       "select[tier = 1](hosts))",
       ""},
      {"area_stats",
       "aggregate[area; avg(load) -> mean_load, count() -> n, "
       "max(temperature) -> peak](window[8](telemetry))",
       ""},
      {"power_heat",
       "join(select[watts > 900.0](window[2](power)), "
       "select[temperature > 99.0](window[1](telemetry)))",
       ""},
      {"low_battery",
       "aggregate[area; count() -> n, avg(load) -> mean_load]("
       "select[battery < 20](window[1](telemetry)))",
       "battery_by_area"},
      {"battery_pressure", "select[n >= 20](window[3](battery_by_area))", ""},
  };

  const Zipf area_zipf(kAreas, 1.1);
  const Zipf host_zipf(kHosts, 0.9);
  StreamFeed telemetry{"telemetry", {}};
  StreamFeed power{"power", {}};
  for (int b = 0; b < period; ++b) {
    std::vector<Tuple>& tel = telemetry.blocks.emplace_back();
    tel.reserve(1000);
    for (int k = 0; k < 1000; ++k) {
      const std::size_t host = host_zipf.Sample(rng);
      tel.emplace_back(std::vector<Value>{
          Value::String(Id("a", area_zipf.Sample(rng))),
          Value::String(Id("h", host)), Value::String(Id("r", host / 10)),
          Value::Real(Reading(rng, 100.0)), Value::Real(Reading(rng, 100.0)),
          Value::Int(rng.NextInt(0, 99))});
    }
    std::vector<Tuple>& pow = power.blocks.emplace_back();
    pow.reserve(200);
    for (int k = 0; k < 200; ++k) {
      pow.emplace_back(
          std::vector<Value>{Value::String(Id("a", area_zipf.Sample(rng))),
                             Value::Real(Reading(rng, 1000.0))});
    }
  }
  in.feeds = {std::move(telemetry), std::move(power)};

  // The control path is nearly idle: every 25 instants a one-shot window
  // aggregate, and a probe query registered for one tick.
  for (int t = in.warmup_ticks + 1; t <= in.total_ticks(); ++t) {
    if (t % 25 != 0) continue;
    ControlStep& step = in.control[static_cast<std::size_t>(t)];
    step.oneshots.push_back(
        "aggregate[area; count() -> n, max(load) -> top](select[battery < " +
        std::to_string(rng.NextInt(5, 50)) + "](window[1](telemetry)))");
    step.register_queries.push_back(
        {"probe_" + std::to_string(t),
         "select[load > 99.9](window[1](telemetry))", ""});
    if (t + 1 <= in.total_ticks()) {
      in.control[static_cast<std::size_t>(t + 1)].unregister.push_back(
          "probe_" + std::to_string(t));
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// service_fanout: β service wait against invocation overhead.

constexpr std::size_t kSensors = 200;
constexpr std::size_t kZones = 12;
constexpr std::size_t kMessengers = 4;

Inputs ServiceFanout(std::uint64_t seed, int timed, int period) {
  Inputs in = Skeleton("service_fanout", 10, timed);
  in.device_delay_us = 200;
  Rng rng(seed);
  std::ostringstream ddl;
  ddl << "PROTOTYPE getTemperature() : (temperature REAL);\n"
      << "PROTOTYPE sendMessage(address STRING, text STRING) : "
         "(sent BOOLEAN) ACTIVE;\n"
      << "EXTENDED RELATION sensors (sensor SERVICE, area STRING, "
         "temperature REAL VIRTUAL) USING BINDING PATTERNS ("
         "getTemperature[sensor]() : (temperature));\n"
      << "EXTENDED RELATION contacts (name STRING, area STRING, address "
         "STRING, text STRING VIRTUAL, messenger SERVICE, sent BOOLEAN "
         "VIRTUAL) USING BINDING PATTERNS (sendMessage[messenger](address, "
         "text) : (sent));\n"
      << "EXTENDED STREAM events (seq INTEGER, sensor SERVICE, area STRING, "
         "kind INTEGER, level INTEGER);\n";
  std::vector<std::string> sensor_area(kSensors);
  for (std::size_t s = 0; s < kSensors; ++s) {
    in.sensor_devices.push_back(Id("s", s));
    sensor_area[s] = Id("z", rng.NextBounded(kZones));
    ddl << "INSERT INTO sensors VALUES ('" << Id("s", s) << "', '"
        << sensor_area[s] << "');\n";
  }
  for (std::size_t m = 0; m < kMessengers; ++m) {
    in.messenger_devices.push_back(Id("m", m));
  }
  for (std::size_t z = 0; z < kZones; ++z) {
    for (int c = 0; c < 2; ++c) {
      const std::string name = Id("z", z) + "_c" + std::to_string(c);
      ddl << "INSERT INTO contacts VALUES ('" << name << "', '" << Id("z", z)
          << "', '" << name << "@example.org', '"
          << Id("m", rng.NextBounded(kMessengers)) << "');\n";
    }
  }
  in.ddl = ddl.str();

  in.standing = {
      {"readings",
       "invoke[getTemperature](join(window[1](events), sensors))", ""},
      {"hot_readings",
       "select[temperature > 80.0](invoke[getTemperature](join("
       "select[level > 40](window[1](events)), sensors)))",
       ""},
      {"zone_heat",
       "aggregate[area; avg(temperature) -> mean_t, count() -> n]("
       "invoke[getTemperature](join(window[2](events), sensors)))",
       ""},
      {"alerts",
       "invoke[sendMessage](assign[text := 'check sensor'](join("
       "select[kind = 3](select[level > 95](window[1](events))), contacts)))",
       ""},
  };

  const Zipf sensor_zipf(kSensors, 1.0);
  StreamFeed events{"events", {}};
  for (int b = 0; b < period; ++b) {
    std::vector<Tuple>& block = events.blocks.emplace_back();
    block.reserve(60);
    for (int k = 0; k < 60; ++k) {
      const std::size_t s = sensor_zipf.Sample(rng);
      block.emplace_back(std::vector<Value>{
          Value::Int(static_cast<std::int64_t>(b) * 1000 + k),
          Value::String(Id("s", s)), Value::String(sensor_area[s]),
          Value::Int(rng.NextInt(0, 7)), Value::Int(rng.NextInt(0, 99))});
    }
  }
  in.feeds = {std::move(events)};

  for (int t = in.warmup_ticks + 1; t <= in.total_ticks(); ++t) {
    ControlStep& step = in.control[static_cast<std::size_t>(t)];
    if (t % 5 == 0) {
      step.oneshots.push_back(
          "aggregate[area; max(temperature) -> hottest, count() -> n]("
          "invoke[getTemperature](select[area = '" +
          Id("z", rng.NextBounded(kZones)) + "'](sensors)))");
    }
    if (t % 25 == 0) {
      // Registered for one tick, like window_analytics' probe.
      step.register_queries.push_back(
          {"probe_" + std::to_string(t),
           "select[level > 98](window[1](events))", ""});
    }
    if (t % 25 == 1 && t > in.warmup_ticks + 1) {
      step.unregister.push_back("probe_" + std::to_string(t - 1));
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// query_churn: per-query bookkeeping and the control path.

constexpr std::size_t kChurnHosts = 80;
constexpr std::size_t kTeams = 12;

/// A β-free standing query drawn from the churn templates. `joins_only`
/// restricts the draw to the multi-way join templates (the queries
/// registered while the run is timed, so the enumerator has work).
std::string ChurnQuery(Rng& rng, bool joins_only) {
  const std::string window = "window[" + std::to_string(rng.NextInt(1, 3)) +
                             "](readings)";
  const std::string w = "select[metric = " + std::to_string(rng.NextInt(0, 7)) +
                        "](" + window + ")";
  const int kind = joins_only ? static_cast<int>(rng.NextInt(1, 2))
                              : static_cast<int>(rng.NextInt(0, 3));
  switch (kind) {
    case 0:
      return "select[value > " + std::to_string(rng.NextInt(50, 95)) +
             ".0](" + w + ")";
    case 1: {
      // Three-way join with both catalogs, in a seeded written order —
      // some orders cross-join the window with `teams` first.
      std::string three;
      switch (rng.NextBounded(4)) {
        case 0: three = "join(join(" + w + ", hosts), teams)"; break;
        case 1: three = "join(join(" + w + ", teams), hosts)"; break;
        case 2: three = "join(teams, join(hosts, " + w + "))"; break;
        default: three = "join(join(hosts, teams), " + w + ")"; break;
      }
      return rng.NextBool(0.5)
                 ? "select[prio >= " + std::to_string(rng.NextInt(1, 3)) +
                       "](" + three + ")"
                 : "select[tier = " + std::to_string(rng.NextInt(1, 3)) +
                       "](" + three + ")";
    }
    case 2:
      return "aggregate[team; count() -> n, avg(value) -> mean_v](join(join(" +
             w + ", hosts), teams))";
    default:
      return "aggregate[host; count() -> n, max(value) -> top](" + w + ")";
  }
}

Inputs QueryChurn(std::uint64_t seed, int timed, int period) {
  Inputs in = Skeleton("query_churn", 10, timed);
  Rng rng(seed);
  std::ostringstream ddl;
  ddl << "EXTENDED RELATION hosts (host STRING, team STRING, tier INTEGER);\n"
      << "EXTENDED RELATION teams (team STRING, oncall STRING, prio INTEGER);\n"
      << "EXTENDED STREAM readings (host STRING, metric INTEGER, "
         "value REAL);\n";
  auto host_row = [](std::size_t h) {
    // Catalog rows are a function of the host id, so a host deleted and
    // re-inserted later comes back with the same attributes.
    const std::uint64_t mix = serena::Mix64(h + 0x51ed);
    return "('" + Id("h", h) + "', '" + Id("t", mix % kTeams) + "', " +
           std::to_string(1 + (mix >> 8) % 3) + ")";
  };
  std::vector<std::size_t> present;
  std::vector<std::size_t> absent;
  for (std::size_t h = 0; h < kChurnHosts; ++h) {
    if (rng.NextBool(0.75)) {
      present.push_back(h);
      ddl << "INSERT INTO hosts VALUES " << host_row(h) << ";\n";
    } else {
      absent.push_back(h);
    }
  }
  for (std::size_t t = 0; t < kTeams; ++t) {
    ddl << "INSERT INTO teams VALUES ('" << Id("t", t) << "', '"
        << Id("p", rng.NextBounded(40)) << "', " << rng.NextInt(1, 3)
        << ");\n";
  }
  in.ddl = ddl.str();

  std::vector<std::string> live;
  for (int q = 0; q < 200; ++q) {
    in.standing.push_back({Id("q", static_cast<std::size_t>(q)),
                           ChurnQuery(rng, /*joins_only=*/false), ""});
    live.push_back(in.standing.back().name);
  }

  const Zipf host_zipf(kChurnHosts, 1.0);
  StreamFeed readings{"readings", {}};
  for (int b = 0; b < period; ++b) {
    std::vector<Tuple>& block = readings.blocks.emplace_back();
    block.reserve(50);
    for (int k = 0; k < 50; ++k) {
      block.emplace_back(std::vector<Value>{
          Value::String(Id("h", host_zipf.Sample(rng))),
          Value::Int(rng.NextInt(0, 7)), Value::Real(Reading(rng, 100.0))});
    }
  }
  in.feeds = {std::move(readings)};

  for (int t = in.warmup_ticks + 1; t <= in.total_ticks(); ++t) {
    ControlStep& step = in.control[static_cast<std::size_t>(t)];
    // One host leaves the catalog and one (re)joins.
    const std::size_t del = rng.NextBounded(present.size());
    const std::size_t ins = rng.NextBounded(absent.size());
    step.ddl.push_back("DELETE FROM hosts WHERE host = '" +
                       Id("h", present[del]) + "';");
    step.ddl.push_back("INSERT INTO hosts VALUES " + host_row(absent[ins]) +
                       ";");
    std::swap(present[del], absent[ins]);
    // Two standing queries retire, two multi-way joins arrive.
    // Victims are drawn from the first `live.size() - k` slots and the
    // newcomer is swapped to the back, so a step never retires a query
    // it registers itself (registration runs after unregistration).
    for (std::size_t k = 0; k < 2; ++k) {
      const std::size_t victim = rng.NextBounded(live.size() - k);
      step.unregister.push_back(live[victim]);
      live[victim] = "c" + std::to_string(t) + "_" + std::to_string(k);
      step.register_queries.push_back(
          {live[victim], ChurnQuery(rng, /*joins_only=*/true), ""});
      std::swap(live[victim], live[live.size() - 1 - k]);
    }
    step.oneshots.push_back(
        "aggregate[team; count() -> n, max(tier) -> top](join(select[tier >= " +
        std::to_string(rng.NextInt(1, 3)) + "](hosts), teams))");
  }
  return in;
}

}  // namespace

Zipf::Zipf(std::size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

std::size_t Inputs::ArrivalsAt(std::int64_t instant) const {
  std::size_t n = 0;
  for (const StreamFeed& feed : feeds) {
    n += feed.blocks[static_cast<std::size_t>(instant - 1) %
                     feed.blocks.size()]
             .size();
  }
  return n;
}

std::uint64_t Inputs::Fingerprint() const {
  std::uint64_t h = serena::StableHash(workload + ddl);
  auto mix = [&h](const std::string& s) {
    h = serena::Mix64(h ^ serena::StableHash(s));
  };
  for (const StandingQuery& q : standing) mix(q.name + q.algebra + q.into);
  for (const std::string& d : sensor_devices) mix(d);
  for (const std::string& d : messenger_devices) mix(d);
  for (const StreamFeed& feed : feeds) {
    mix(feed.stream);
    for (const auto& block : feed.blocks) {
      for (const Tuple& tuple : block) mix(tuple.ToString());
    }
  }
  for (const ControlStep& step : control) {
    for (const std::string& s : step.ddl) mix(s);
    for (const std::string& s : step.unregister) mix(s);
    for (const StandingQuery& q : step.register_queries) mix(q.algebra);
    for (const std::string& s : step.oneshots) mix(s);
  }
  return h;
}

std::string Inputs::Shape() const {
  std::ostringstream out;
  out << workload << " standing=" << standing.size()
      << " sensors=" << sensor_devices.size()
      << " messengers=" << messenger_devices.size()
      << " ticks=" << warmup_ticks << "+" << timed_ticks;
  for (const StreamFeed& feed : feeds) {
    std::size_t tuples = 0;
    std::uint64_t sizes = 0;
    for (const auto& block : feed.blocks) {
      tuples += block.size();
      sizes = serena::Mix64(sizes ^ block.size());
    }
    out << " " << feed.stream << "=" << feed.blocks.size() << " blocks/"
        << tuples << " tuples/sizes " << std::hex << sizes << std::dec;
  }
  std::size_t ddl_ops = 0, unreg = 0, reg = 0, oneshots = 0;
  for (const ControlStep& step : control) {
    ddl_ops += step.ddl.size();
    unreg += step.unregister.size();
    reg += step.register_queries.size();
    oneshots += step.oneshots.size();
  }
  out << " ddl=" << ddl_ops << " unregister=" << unreg << " register=" << reg
      << " oneshots=" << oneshots;
  return out.str();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "window_analytics", "service_fanout", "query_churn"};
  return names;
}

serena::Result<int> TicksPerSecond(const std::string& workload) {
  // Calibrated so one requested second is about one second of timed
  // ticks on a 4-core x86 VM with SERENA_THREADS=3.
  if (workload == "window_analytics") return 150;
  if (workload == "service_fanout") return 200;
  if (workload == "query_churn") return 120;
  return serena::Status::InvalidArgument("unknown workload '", workload,
                                         "'");
}

serena::Result<Inputs> Generate(const std::string& workload,
                                std::uint64_t seed, int timed_ticks,
                                int period) {
  // Mix the workload into the seed so workloads never share a stream.
  const std::uint64_t mixed =
      serena::Mix64(seed ^ serena::StableHash(workload));
  if (workload == "window_analytics") {
    return WindowAnalytics(mixed, timed_ticks, period);
  }
  if (workload == "service_fanout") {
    return ServiceFanout(mixed, timed_ticks, period);
  }
  if (workload == "query_churn") return QueryChurn(mixed, timed_ticks, period);
  return serena::Status::InvalidArgument("unknown workload '", workload,
                                         "'");
}

std::string GeneratorSelfTest(const std::string& workload) {
  constexpr int kTicks = 30;
  constexpr int kPeriod = 4;
  auto a = Generate(workload, 7, kTicks, kPeriod);
  auto b = Generate(workload, 7, kTicks, kPeriod);
  auto c = Generate(workload, 8, kTicks, kPeriod);
  if (!a.ok() || !b.ok() || !c.ok()) return "generation failed";
  if (a->Fingerprint() != b->Fingerprint()) {
    return "same seed gave different inputs";
  }
  if (a->Fingerprint() == c->Fingerprint()) {
    return "different seeds gave identical inputs";
  }
  if (a->Shape() != c->Shape()) {
    return "different seeds changed the input shape: " + a->Shape() +
           " vs " + c->Shape();
  }
  if (Generate("no_such_workload", 7, kTicks, kPeriod).ok() ||
      TicksPerSecond("no_such_workload").ok()) {
    return "unknown workload name accepted";
  }
  return "";
}

}  // namespace perfbench
