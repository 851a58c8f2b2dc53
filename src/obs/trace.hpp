// Sim-time tracer: scoped spans and instant events keyed on SimTime
// (never wall clock, so traces are byte-reproducible across runs),
// recorded into a bounded flight-recorder ring buffer and exportable as
// Chrome trace_event JSON — open a whole campaign in chrome://tracing.
//
// The ring buffer makes the tracer safe to leave on under heavy traffic:
// when full it overwrites the oldest record and counts the drop, so a
// million-event run costs a bounded amount of memory and the export
// always holds the most recent window (what a flight recorder keeps).
// The capacity is only a bound: storage grows on demand (obs/ring.hpp),
// so a disabled tracer allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "obs/ring.hpp"

namespace sm::obs {

struct TraceEvent {
  common::SimTime ts{};
  common::Duration dur{};  // zero for instants and counter samples
  char phase = 'i';        // 'i' instant, 'X' complete span, 'C' counter
  std::string name;
  std::string cat;
  /// Pre-rendered JSON object members for the "args" field (no braces),
  /// e.g. "\"queue\":3" — empty for none.
  std::string args_json;
};

class Tracer {
 public:
  explicit Tracer(size_t capacity = 1 << 16);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Clock used by ScopedSpan and callers that pass no explicit time;
  /// bind it to the simulation engine (e.g. [&eng]{ return eng.now(); }).
  void set_clock(std::function<common::SimTime()> clock);
  common::SimTime now() const;

  void instant(common::SimTime ts, std::string_view name,
               std::string_view cat, std::string args_json = "");
  void complete(common::SimTime begin, common::SimTime end,
                std::string_view name, std::string_view cat,
                std::string args_json = "");
  /// Chrome counter-track sample (graphed as a line in the viewer).
  void counter(common::SimTime ts, std::string_view name,
               std::string_view series, double value);

  /// The configured bound on retained records (not what is allocated).
  size_t capacity() const { return ring_.capacity(); }
  size_t size() const { return ring_.size(); }
  /// Records overwritten because the ring was full.
  uint64_t dropped() const { return dropped_; }
  void clear();

  /// Retained events, oldest first.
  std::vector<TraceEvent> events() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}; ts/dur in
  /// microseconds of simulated time).
  std::string to_chrome_json() const;
  bool save(const std::string& path) const;

 private:
  void push(TraceEvent ev);

  bool enabled_ = true;
  std::function<common::SimTime()> clock_;
  ChunkedRing<TraceEvent> ring_;
  uint64_t dropped_ = 0;
};

/// RAII span: records a complete event from construction to destruction
/// using the tracer's sim-time clock. A null or disabled tracer makes it
/// a no-op, so call sites need no branches.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string cat,
             std::string args_json = "");
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  common::SimTime begin_{};
  std::string name_, cat_, args_;
};

}  // namespace sm::obs
