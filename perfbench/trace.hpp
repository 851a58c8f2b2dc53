// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only by the benchmark, around its calls into the
// program's public entry points; the program itself carries no hooks.
// Each thread writes its own track (track 0 = the main thread, track
// w + 1 = campaign worker w), so recording takes no lock. Spans are kept
// in memory and analysed or written out after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (all threads), in seconds.
double process_cpu_seconds();

/// Layer names a span may start with; time inside such a span counts as
/// attributed to a program layer. Spans named "bench.*" are the
/// benchmark's own work (output checks, reference runs) and are left out
/// of the closure; any other span name (run, trial) is bookkeeping whose
/// self time is unattributed.
bool is_layer_span(const std::string& name);

/// A span's global id is (track << kTrackShift) | index within its track.
constexpr int kTrackShift = 40;

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int track = 0;
  /// Global id of the enclosing span (-1 for a root), possibly on
  /// another track: a worker's trial span points at the main-thread span
  /// that waited for the pool.
  int64_t parent = -1;
  int64_t trial = -1;
};

class Tracer {
 public:
  explicit Tracer(size_t tracks);

  /// Opens a span on `track`; its parent is the innermost open span of
  /// that track, or `cross_parent` when none is open.
  int64_t begin(int track, const char* name, int64_t trial,
                int64_t cross_parent = -1);
  void end(int64_t id);

  std::vector<Span> all() const;
  size_t size() const;

 private:
  struct Track {
    std::vector<Span> spans;
    std::vector<size_t> open;
  };
  std::vector<Track> tracks_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int track, const char* name, int64_t trial = -1,
             int64_t cross_parent = -1)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(track, name, trial, cross_parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// What the span tree says about a traced run.
struct TraceSummary {
  /// Duration of every span, by name (ns).
  std::map<std::string, std::vector<double>> durations;
  /// Self time (duration minus same-track children), summed by name (ns).
  std::map<std::string, double> self_ns;
  /// Share of the traced threads' time spent inside layer spans, over
  /// all time except the benchmark's own bench.* spans.
  double closure = 0;
  /// Non-layer span with the most self time: where unattributed time
  /// sits when closure falls short.
  std::string largest_gap;
  double largest_gap_share = 0;
};

TraceSummary summarize(const std::vector<Span>& spans);

/// Chrome trace_event JSON of the spans (load in chrome://tracing).
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

}  // namespace perfbench
