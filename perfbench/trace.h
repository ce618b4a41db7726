// In-memory span recording for the benchmark's traced pass.
//
// Spans come only from benchmark code: around Pems::Tick (the root) and
// its TickObserver phases, the simulated device's Invoke, the result
// sinks, and every control call (DDL, (un)registration, one-shot, and
// the separately timed parse / gate / optimize). They are kept in
// memory, summarized as a per-layer self-time table, and written out as
// Chrome trace_event JSON when the run ends.
#ifndef SERENA_PERFBENCH_TRACE_H_
#define SERENA_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stream/executor.h"

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char* name = "";  ///< Layer-qualified, e.g. "service.device".
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for roots.
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t instant = 0;
  std::uint32_t thread = 0;
};

/// Thread-safe span sink. Spans recorded from pool workers (device
/// calls, sinks) take their parent from `current_parent`, which the
/// main thread points at the enclosing phase or control span.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::uint64_t start_ns, std::uint64_t end_ns,
              std::int64_t instant);
  /// Records a span whose parent is the current phase/control span.
  void RecordChild(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::int64_t instant) {
    Record(name, NextId(), current_parent.load(std::memory_order_acquire),
           start_ns, end_ns, instant);
  }

  std::atomic<std::uint64_t> current_parent{0};

  std::vector<SpanRecord> Spans() const;

  /// Per span name: count, total and self time (duration minus the
  /// union of its children's intervals), and both per tick.
  std::string SelfTimeTable(const std::string& title, double ticks) const;

  /// Chrome trace_event JSON ("X" events, microseconds). At most
  /// `max_events` spans are written, oldest first.
  bool WriteChromeJson(const std::string& path, std::size_t max_events) const;

 private:
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Splits each executor tick into layer phases, from the executor's
/// own hooks:
///   stream.sources      OnTickBegin   → OnSourcesDone
///   stream.steps        OnSourcesDone → first OnQueryStep
///   stream.merge_prune  first OnQueryStep → OnTickEnd
/// The tick loop timestamps Pems::Tick around these; everything outside
/// [OnTickBegin, OnTickEnd] is pems.other.
class PhaseObserver : public serena::TickObserver {
 public:
  struct Tick {
    std::uint64_t begin = 0, sources_done = 0, first_step = 0, end = 0;
  };

  explicit PhaseObserver(SpanRecorder* recorder) : recorder_(recorder) {}

  /// Starts a tick's root span; phase spans parent under it.
  void StartTick(std::uint64_t root_id) { root_id_ = root_id; }
  const Tick& last() const { return tick_; }

  void OnTickBegin(serena::Timestamp now) override;
  void OnSourcesDone(serena::Timestamp now) override;
  void OnQueryStep(serena::Timestamp now, const serena::ContinuousQuery&,
                   const serena::Status&, const serena::XRelation*) override;
  void OnTickEnd(serena::Timestamp now) override;

 private:
  void CloseSteps(serena::Timestamp now, std::uint64_t at);

  SpanRecorder* recorder_;
  std::uint64_t root_id_ = 0;
  std::uint64_t steps_id_ = 0;
  Tick tick_;
};

}  // namespace perfbench

#endif  // SERENA_PERFBENCH_TRACE_H_
