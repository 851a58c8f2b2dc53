#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

bool is_layer_span(const std::string& name) {
  static const char* const kLayers[] = {
      "campaign.", "core.", "obs.", "simcheck.", "netsim.",
      "packet.", "ids.", "surveillance.", "censor."};
  for (const char* layer : kLayers) {
    if (name.rfind(layer, 0) == 0) return true;
  }
  return false;
}

static bool is_bench_span(const std::string& name) {
  return name.rfind("bench.", 0) == 0;
}

Tracer::Tracer(size_t tracks) : tracks_(tracks) {
  for (Track& t : tracks_) t.spans.reserve(1 << 14);
}

int64_t Tracer::begin(int track, const char* name, int64_t trial,
                      int64_t cross_parent) {
  Track& t = tracks_.at(static_cast<size_t>(track));
  Span s;
  s.name = name;
  s.track = track;
  s.trial = trial;
  s.parent = t.open.empty()
                 ? cross_parent
                 : (int64_t(track) << kTrackShift) | int64_t(t.open.back());
  size_t index = t.spans.size();
  t.open.push_back(index);
  s.start_ns = now_ns();
  t.spans.push_back(std::move(s));
  return (int64_t(track) << kTrackShift) | int64_t(index);
}

void Tracer::end(int64_t id) {
  int64_t end = now_ns();
  Track& t = tracks_.at(static_cast<size_t>(id >> kTrackShift));
  size_t index = static_cast<size_t>(id & ((int64_t(1) << kTrackShift) - 1));
  t.spans.at(index).end_ns = end;
  if (!t.open.empty() && t.open.back() == index) t.open.pop_back();
}

std::vector<Span> Tracer::all() const {
  std::vector<Span> out;
  for (const Track& t : tracks_) {
    out.insert(out.end(), t.spans.begin(), t.spans.end());
  }
  return out;
}

size_t Tracer::size() const {
  size_t n = 0;
  for (const Track& t : tracks_) n += t.spans.size();
  return n;
}

TraceSummary summarize(const std::vector<Span>& spans) {
  TraceSummary out;
  // Global id -> position, and same-track children per span.
  std::map<int64_t, size_t> pos;
  {
    std::map<int, int64_t> next_index;
    for (size_t i = 0; i < spans.size(); ++i) {
      int64_t index = next_index[spans[i].track]++;
      pos[(int64_t(spans[i].track) << kTrackShift) | index] = i;
    }
  }
  std::vector<std::vector<size_t>> children(spans.size());
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out.durations[s.name].push_back(double(s.end_ns - s.start_ns));
    auto it = s.parent >= 0 ? pos.find(s.parent) : pos.end();
    if (it != pos.end() && spans[it->second].track == s.track) {
      children[it->second].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    double self = double(spans[i].end_ns - spans[i].start_ns);
    for (size_t c : children[i]) {
      self -= double(spans[c].end_ns - spans[c].start_ns);
    }
    out.self_ns[spans[i].name] += self;
  }

  double covered = 0, excluded = 0, total = 0;
  std::function<void(size_t)> walk = [&](size_t i) {
    const Span& s = spans[i];
    double d = double(s.end_ns - s.start_ns);
    if (is_layer_span(s.name)) {
      covered += d;
    } else if (is_bench_span(s.name)) {
      excluded += d;
    } else {
      for (size_t c : children[i]) walk(c);
    }
  };
  for (size_t r : roots) {
    total += double(spans[r].end_ns - spans[r].start_ns);
    walk(r);
  }
  total -= excluded;
  out.closure = total > 0 ? covered / total : 0;
  for (const auto& [name, self] : out.self_ns) {
    if (is_layer_span(name) || is_bench_span(name)) continue;
    double share = total > 0 ? self / total : 0;
    if (share > out.largest_gap_share) {
      out.largest_gap_share = share;
      out.largest_gap = name;
    }
  }
  return out;
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trial\":%lld,"
                 "\"parent\":%lld}}",
                 i ? ",\n" : "", s.name.c_str(), s.track,
                 double(s.start_ns - t0) / 1e3,
                 double(s.end_ns - s.start_ns) / 1e3, (long long)s.trial,
                 (long long)s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * double(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

}  // namespace perfbench
