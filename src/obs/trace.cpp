#include "obs/trace.hpp"

#include <cstdio>

#include "common/strings.hpp"

namespace sm::obs {

namespace {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Sim nanoseconds -> trace_event microseconds. Three decimals keep full
/// nanosecond precision and render deterministically.
std::string micros(int64_t nanos) {
  return common::format("%lld.%03lld",
                        static_cast<long long>(nanos / 1000),
                        static_cast<long long>(nanos % 1000));
}

}  // namespace

Tracer::Tracer(size_t capacity) : ring_(capacity) {}

void Tracer::set_clock(std::function<common::SimTime()> clock) {
  clock_ = std::move(clock);
}

common::SimTime Tracer::now() const {
  return clock_ ? clock_() : common::SimTime{};
}

void Tracer::push(TraceEvent ev) {
  if (ring_.full()) ++dropped_;  // overwriting the oldest
  ring_.push(std::move(ev));
}

void Tracer::instant(common::SimTime ts, std::string_view name,
                     std::string_view cat, std::string args_json) {
  if (!enabled_) return;
  push(TraceEvent{ts, common::Duration{}, 'i', std::string(name),
                  std::string(cat), std::move(args_json)});
}

void Tracer::complete(common::SimTime begin, common::SimTime end,
                      std::string_view name, std::string_view cat,
                      std::string args_json) {
  if (!enabled_) return;
  push(TraceEvent{begin, end - begin, 'X', std::string(name),
                  std::string(cat), std::move(args_json)});
}

void Tracer::counter(common::SimTime ts, std::string_view name,
                     std::string_view series, double value) {
  if (!enabled_) return;
  std::string args = "\"" + escape(series) + "\":";
  if (value == static_cast<double>(static_cast<int64_t>(value))) {
    args += std::to_string(static_cast<int64_t>(value));
  } else {
    args += common::format("%.9g", value);
  }
  push(TraceEvent{ts, common::Duration{}, 'C', std::string(name),
                  std::string(), std::move(args)});
}

void Tracer::clear() {
  ring_.clear();
  dropped_ = 0;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) out.push_back(ring_[i]);
  return out;
}

std::string Tracer::to_chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < ring_.size(); ++i) {
    const TraceEvent& ev = ring_[i];
    if (i) out += ',';
    out += "{\"name\":\"" + escape(ev.name) + "\",\"ph\":\"";
    out += ev.phase;
    out += "\",\"ts\":" + micros(ev.ts.count());
    if (ev.phase == 'X') out += ",\"dur\":" + micros(ev.dur.count());
    if (!ev.cat.empty()) out += ",\"cat\":\"" + escape(ev.cat) + "\"";
    out += ",\"pid\":1,\"tid\":1";
    if (ev.phase == 'i') out += ",\"s\":\"t\"";
    if (!ev.args_json.empty()) out += ",\"args\":{" + ev.args_json + "}";
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"sim\","
         "\"dropped\":" + std::to_string(dropped_) + "}}";
  return out;
}

bool Tracer::save(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::string json = to_chrome_json();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::string cat,
                       std::string args_json)
    : tracer_(tracer && tracer->enabled() ? tracer : nullptr),
      name_(std::move(name)),
      cat_(std::move(cat)),
      args_(std::move(args_json)) {
  if (tracer_) begin_ = tracer_->now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_) {
    tracer_->complete(begin_, tracer_->now(), name_, cat_, std::move(args_));
  }
}

}  // namespace sm::obs
