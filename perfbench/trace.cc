#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

namespace perfbench {
namespace {

std::uint32_t ThreadIndex() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi).
std::uint64_t CoveredNs(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                        std::uint64_t lo, std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

void SpanRecorder::Record(const char* name, std::uint64_t id,
                          std::uint64_t parent, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::int64_t instant) {
  SpanRecord span{name, id, parent, start_ns, end_ns, instant, ThreadIndex()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanRecorder::SelfTimeTable(const std::string& title,
                                        double ticks) const {
  const std::vector<SpanRecord> spans = Spans();
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  struct Row {
    std::uint64_t count = 0, total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord& s : spans) {
    Row& row = rows[s.name];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    ++row.count;
    row.total_ns += dur;
    const auto it = children.find(s.id);
    row.self_ns += it == children.end()
                       ? dur
                       : dur - CoveredNs(it->second, s.start_ns, s.end_ns);
  }
  std::ostringstream out;
  char line[160];
  out << "self time by layer: " << title << " (" << ticks << " ticks)\n";
  std::snprintf(line, sizeof(line), "  %-22s %9s %12s %12s %12s\n", "span",
                "count", "total_ms", "self_ms", "self_ms/tick");
  out << line;
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof(line), "  %-22s %9llu %12.3f %12.3f %12.4f\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total_ns / 1e6, row.self_ns / 1e6,
                  ticks > 0 ? row.self_ns / 1e6 / ticks : 0.0);
    out << line;
  }
  return out.str();
}

bool SpanRecorder::WriteChromeJson(const std::string& path,
                                   std::size_t max_events) const {
  std::vector<SpanRecord> spans = Spans();
  if (spans.empty()) return true;
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  if (spans.size() > max_events) spans.resize(max_events);
  const std::uint64_t origin = spans.front().start_ns;
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,"
        "\"parent\":%llu,\"instant\":%lld}}",
        i == 0 ? "" : ",\n", s.name, layer.c_str(),
        (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3, s.thread,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<long long>(s.instant));
    out << buf;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

void PhaseObserver::OnTickBegin(serena::Timestamp) {
  tick_ = Tick{};
  tick_.begin = NowNs();
}

void PhaseObserver::OnSourcesDone(serena::Timestamp now) {
  tick_.sources_done = NowNs();
  recorder_->Record("stream.sources", recorder_->NextId(), root_id_,
                    tick_.begin, tick_.sources_done, now);
  steps_id_ = recorder_->NextId();
  recorder_->current_parent.store(steps_id_, std::memory_order_release);
}

void PhaseObserver::CloseSteps(serena::Timestamp now, std::uint64_t at) {
  if (tick_.first_step != 0) return;
  tick_.first_step = at;
  recorder_->Record("stream.steps", steps_id_, root_id_, tick_.sources_done,
                    at, now);
  recorder_->current_parent.store(root_id_, std::memory_order_release);
}

void PhaseObserver::OnQueryStep(serena::Timestamp now,
                                const serena::ContinuousQuery&,
                                const serena::Status&,
                                const serena::XRelation*) {
  if (tick_.first_step == 0) CloseSteps(now, NowNs());
}

void PhaseObserver::OnTickEnd(serena::Timestamp now) {
  const std::uint64_t end = NowNs();
  CloseSteps(now, end);  // No query stepped: the steps phase is empty.
  tick_.end = end;
  recorder_->Record("stream.merge_prune", recorder_->NextId(), root_id_,
                    tick_.first_step, tick_.end, now);
}

}  // namespace perfbench
