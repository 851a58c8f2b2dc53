#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <new>
#include <stdexcept>

#include "common/strings.hpp"

namespace sm::obs {

namespace {

/// The bytes Prometheus escapes in label values and help text: exactly
/// backslash, quote and newline. JSON uses common's escaper instead.
bool prom_special(char c) { return c == '\\' || c == '"' || c == '\n'; }

/// Writes the Prometheus escape of `s` to `out` (room for 2 * s.size()).
char* write_prom_escaped(char* out, std::string_view s) {
  for (char c : s) {
    if (prom_special(c)) {
      *out++ = '\\';
      c = c == '\n' ? 'n' : c;
    }
    *out++ = c;
  }
  return out;
}

enum class NumberStyle { Json, Prometheus };

/// Longest format_number() output: a 20-character int64, or %.9g's
/// "-1.23456789e-308".
constexpr size_t kNumberChars = 32;

/// Deterministic number rendering into p[0, kNumberChars). Integral
/// values in int64 range print exactly; others with nine significant
/// digits (printf's %.9g, via std::to_chars). The range check comes
/// before the integer cast, which is undefined for out-of-range values.
/// Non-finite values have no JSON spelling and export as null;
/// Prometheus spells them +Inf, -Inf and NaN.
char* format_number(char* p, double v, NumberStyle style) {
  if (!std::isfinite(v)) {
    std::string_view text = style == NumberStyle::Json ? "null"
                            : std::isnan(v)            ? "NaN"
                            : v > 0                    ? "+Inf"
                                                       : "-Inf";
    return std::copy(text.begin(), text.end(), p);
  }
  if (v >= -0x1p63 && v < 0x1p63) {
    const auto i = static_cast<int64_t>(v);
    if (static_cast<double>(i) == v) {
      return std::to_chars(p, p + kNumberChars, i).ptr;
    }
  }
  return std::to_chars(p, p + kNumberChars, v, std::chars_format::general, 9)
      .ptr;
}

/// An export buffer: one std::string filled through a raw pointer, so a
/// piece costs a bounds check and a copy rather than a string append.
/// Sized up front from the registry's text; doubles if a piece might not
/// fit.
class Writer {
 public:
  explicit Writer(size_t size_hint)
      : out_(size_hint, '\0'), p_(out_.data()) {}

  void put(char c) {
    *room(1) = c;
    ++p_;
  }
  void put(std::string_view s) {
    p_ = std::copy(s.begin(), s.end(), room(s.size()));
  }
  void json_escaped(std::string_view s) {
    p_ = common::write_json_escaped(room(6 * s.size()), s);
  }
  void prom_escaped(std::string_view s) {
    p_ = write_prom_escaped(room(2 * s.size()), s);
  }
  void u64(uint64_t v) {
    char* p = room(kNumberChars);
    p_ = std::to_chars(p, p + kNumberChars, v).ptr;
  }
  void number(double v, NumberStyle style) {
    p_ = format_number(room(kNumberChars), v, style);
  }
  std::string take() {
    out_.resize(static_cast<size_t>(p_ - out_.data()));
    return std::move(out_);
  }

 private:
  /// Makes room for `n` more chars; returns the write position.
  char* room(size_t n) {
    const auto used = static_cast<size_t>(p_ - out_.data());
    if (out_.size() - used < n) {
      out_.resize(std::max(2 * out_.size(), used + n));
      p_ = out_.data() + used;
    }
    return p_;
  }

  std::string out_;
  char* p_;
};

/// `name+suffix{key,extra}`; the braces only when some label remains.
void put_prom_series(Writer& w, std::string_view name,
                     std::string_view suffix, std::string_view key,
                     std::string_view extra) {
  w.put(name);
  w.put(suffix);
  if (key.empty() && extra.empty()) return;
  w.put('{');
  w.put(key);
  if (!key.empty() && !extra.empty()) w.put(',');
  w.put(extra);
  w.put('}');
}

const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}

}  // namespace

double HistogramMetric::bin_high(size_t i) const {
  const auto& bins = hist_.bins();
  if (i + 1 >= bins.size()) return hi_;  // rendered as +Inf (clamped bin)
  return lo_ + (hi_ - lo_) * static_cast<double>(i + 1) /
                   static_cast<double>(bins.size());
}

double HistogramMetric::quantile(double q) const {
  size_t total = hist_.count();
  if (total == 0) return 0.0;
  double target = q * static_cast<double>(total);
  const auto& bins = hist_.bins();
  size_t cumulative = 0;
  for (size_t i = 0; i < bins.size(); ++i) {
    size_t prev = cumulative;
    cumulative += bins[i];
    if (static_cast<double>(cumulative) >= target && bins[i] > 0) {
      double low = i == 0 ? lo_ : bin_high(i - 1);
      double high = bin_high(i);
      double into = (target - static_cast<double>(prev)) /
                    static_cast<double>(bins[i]);
      return low + (high - low) * into;
    }
  }
  return hi_;  // q beyond every bin (only reachable via rounding)
}

void HistogramMetric::restore(common::Histogram hist,
                              common::OnlineStats moments) {
  if (hist.lo() != lo_ || hist.hi() != hi_ ||
      hist.bins().size() != hist_.bins().size()) {
    throw std::invalid_argument("HistogramMetric::restore: shape mismatch");
  }
  hist_ = std::move(hist);
  moments_ = moments;
}

namespace {

/// Size of the canonical `k="v",...` rendering of a sorted label set.
size_t key_size(const Label* labels, size_t n) {
  size_t size = n == 0 ? 0 : n - 1;  // the commas
  for (size_t i = 0; i < n; ++i) {
    const auto& [k, v] = labels[i];
    size += k.size() + 3 + v.size() +
            static_cast<size_t>(
                std::count_if(v.begin(), v.end(), prom_special));
  }
  return size;
}

/// Writes that rendering (the Prometheus label text) to `out`.
void write_key(char* out, const Label* labels, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (i) *out++ = ',';
    out = std::copy(labels[i].first.begin(), labels[i].first.end(), out);
    *out++ = '=';
    *out++ = '"';
    out = write_prom_escaped(out, labels[i].second);
    *out++ = '"';
  }
}

/// Copies `text` to `p` and returns the copy; advances `p`.
std::string_view copy_text(char*& p, std::string_view text) {
  std::string_view out(p, text.size());
  p = std::copy(text.begin(), text.end(), p);
  return out;
}

}  // namespace

size_t Registry::series(const Key& key, Kind kind, std::string_view help,
                        size_t from) {
  const Label* labels = key.labels;
  const size_t n = key.label_count;
  auto compare = [&](const Series& s) {
    if (int c = s.name.compare(key.name)) return c;
    if (int c = s.key.compare(key.text)) return c;
    const Label* end = s.labels + s.label_count;
    auto [a, b] = std::mismatch(s.labels, end, labels, labels + n);
    if (a == end) return b == labels + n ? 0 : -1;
    return b == labels + n || *b < *a ? 1 : -1;
  };
  auto pos = order_.begin() + static_cast<ptrdiff_t>(from);
  if (pos != order_.end() && compare(**pos) < 0) {
    pos = std::lower_bound(
        pos + 1, order_.end(), key,
        [&](const Series* s, const Key&) { return compare(*s) < 0; });
  }
  Series* s = pos != order_.end() && compare(**pos) == 0 ? *pos : nullptr;
  // A family's series are adjacent in order_, so an existing family of
  // this name borders the insertion point.
  Family* fam = nullptr;
  if (s != nullptr) {
    fam = s->family;
  } else if (pos != order_.end() && (*pos)->name == key.name) {
    fam = (*pos)->family;
  } else if (pos != order_.begin() && pos[-1]->name == key.name) {
    fam = pos[-1]->family;
  }
  if (fam != nullptr && fam->kind != kind) {
    throw std::invalid_argument("metric '" + std::string(key.name) +
                                "' re-registered with a different kind");
  }
  if (fam == nullptr) {
    auto* mem = static_cast<char*>(arena_.allocate(
        sizeof(Family) + key.name.size() + help.size(), alignof(Family)));
    char* text = mem + sizeof(Family);
    fam = new (mem)
        Family{copy_text(text, key.name), copy_text(text, help), kind};
  } else if (fam->help.empty() && !help.empty()) {
    char* text = static_cast<char*>(arena_.allocate(help.size(), 1));
    fam->help = copy_text(text, help);
  }
  if (s == nullptr) {
    // One arena record: the series, its sorted labels, then their text.
    size_t text_size = key.text.size();
    for (size_t i = 0; i < n; ++i) {
      text_size += labels[i].first.size() + labels[i].second.size();
    }
    auto* mem = static_cast<char*>(arena_.allocate(
        sizeof(Series) + n * sizeof(Label) + text_size, alignof(Series)));
    s = new (mem) Series;
    auto* stored = reinterpret_cast<Label*>(mem + sizeof(Series));
    char* text = reinterpret_cast<char*>(stored + n);
    for (size_t i = 0; i < n; ++i) {
      new (&stored[i]) Label(copy_text(text, labels[i].first),
                             copy_text(text, labels[i].second));
    }
    s->name = fam->name;
    s->family = fam;
    s->labels = stored;
    s->label_count = n;
    s->key = copy_text(text, key.text);
    pos = order_.insert(pos, s);
  }
  return static_cast<size_t>(pos - order_.begin());
}

Registry::Series& Registry::series(std::string_view name, Kind kind,
                                   std::string_view help, const Label* labels,
                                   size_t n) {
  // Canonical (key, value) order and its rendering, on the stack for the
  // handful of short labels real call sites use.
  constexpr size_t kInlineLabels = 8, kInlineText = 256;
  Label inline_sorted[kInlineLabels];
  std::vector<Label> heap_sorted;
  const Label* sorted = labels;
  if (n > 1) {
    Label* copy = inline_sorted;
    if (n > kInlineLabels) {
      heap_sorted.resize(n);
      copy = heap_sorted.data();
    }
    std::copy(labels, labels + n, copy);
    std::sort(copy, copy + n);
    sorted = copy;
  }
  const size_t size = key_size(sorted, n);
  char inline_text[kInlineText];
  std::string heap_text;
  char* text = inline_text;
  if (size > kInlineText) {
    heap_text.resize(size);
    text = heap_text.data();
  }
  write_key(text, sorted, n);
  return *order_[series({name, {text, size}, sorted, n}, kind, help)];
}

HistogramMetric* Registry::shaped(Series& s, std::string_view name, double lo,
                                  double hi, size_t bins) {
  if (s.histogram == nullptr) {
    histograms_.push_back(std::make_unique<HistogramMetric>(lo, hi, bins));
    s.histogram = histograms_.back().get();
  } else if (s.histogram->lo() != lo || s.histogram->hi() != hi ||
             s.histogram->histogram().bins().size() != bins) {
    throw std::invalid_argument("histogram '" + std::string(name) +
                                "' re-registered with a different shape");
  }
  return s.histogram;
}

Counter* Registry::counter(std::string_view name, Labels labels,
                           std::string_view help) {
  if (!enabled_) return &dummy_counter_;
  return &series(name, Kind::Counter, help, labels.begin(), labels.size())
              .counter;
}

Gauge* Registry::gauge(std::string_view name, Labels labels,
                       std::string_view help) {
  if (!enabled_) return &dummy_gauge_;
  return &series(name, Kind::Gauge, help, labels.begin(), labels.size())
              .gauge;
}

HistogramMetric* Registry::histogram(std::string_view name, double lo,
                                     double hi, size_t bins, Labels labels,
                                     std::string_view help) {
  if (!enabled_) {
    if (!dummy_histogram_) {
      dummy_histogram_ = std::make_unique<HistogramMetric>(0.0, 1.0, 1);
    }
    return dummy_histogram_.get();
  }
  Series& s =
      series(name, Kind::Histogram, help, labels.begin(), labels.size());
  return shaped(s, name, lo, hi, bins);
}

void Registry::merge(const Registry& other) {
  if (!enabled_) return;
  size_t next = 0;
  for (const Series* os : other.order_) {
    const Family& ofam = *os->family;
    const size_t at = series({ofam.name, os->key, os->labels, os->label_count},
                             ofam.kind, ofam.help, next);
    next = at + 1;
    Series& s = *order_[at];
    switch (ofam.kind) {
      case Kind::Counter:
        s.counter.inc(os->counter.value());
        break;
      case Kind::Gauge:
        // Gauges add: the campaign-level value of "bytes stored" across
        // N private testbeds is their sum.
        s.gauge.add(os->gauge.value());
        break;
      case Kind::Histogram: {
        const HistogramMetric& oh = *os->histogram;
        if (s.histogram == nullptr) {
          shaped(s, ofam.name, oh.lo(), oh.hi(), oh.histogram().bins().size());
        }
        s.histogram->merge(oh);  // throws on shape mismatch
        break;
      }
    }
  }
}

size_t Registry::export_size_hint(bool prometheus) const {
  // Bounds the export while no text needs escaping: the writer asks for
  // 6 bytes per escaped byte, so leave that much slack for the longest
  // piece. Escapes that do expand the text may grow the buffer.
  size_t size = 64, longest = 0;
  const Family* family = nullptr;
  for (const Series* s : order_) {
    const size_t line = 96 + s->name.size() + s->key.size();
    longest = std::max(longest, s->name.size() + s->key.size());
    if (prometheus && s->family != family) {
      family = s->family;
      size += line + 2 * family->help.size();
      longest = std::max(longest, family->help.size());
    }
    size += line;
    if (s->histogram != nullptr) {
      size += (prometheus ? line : 32) *
              (s->histogram->histogram().bins().size() + 8);
    }
  }
  return size + 6 * longest;
}

std::string Registry::to_json() const {
  Writer w(export_size_hint(false));
  w.put("{\"metrics\":[");
  for (size_t i = 0; i < order_.size(); ++i) {
    const Series& s = *order_[i];
    const Kind kind = s.family->kind;
    if (i) w.put(',');
    w.put("{\"name\":\"");
    w.json_escaped(s.name);
    w.put("\",\"labels\":{");
    for (size_t l = 0; l < s.label_count; ++l) {
      if (l) w.put(',');
      w.put('"');
      w.json_escaped(s.labels[l].first);
      w.put("\":\"");
      w.json_escaped(s.labels[l].second);
      w.put('"');
    }
    static constexpr std::string_view kKindTail[] = {
        "},\"kind\":\"counter\",\"value\":",
        "},\"kind\":\"gauge\",\"value\":",
        "},\"kind\":\"histogram\",\"count\":"};
    w.put(kKindTail[static_cast<int>(kind)]);
    switch (kind) {
      case Kind::Counter:
        w.u64(s.counter.value());
        break;
      case Kind::Gauge:
        w.number(s.gauge.value(), NumberStyle::Json);
        break;
      case Kind::Histogram: {
        const HistogramMetric& h = *s.histogram;
        w.u64(h.count());
        w.put(",\"sum\":");
        w.number(h.sum(), NumberStyle::Json);
        w.put(",\"lo\":");
        w.number(h.lo(), NumberStyle::Json);
        w.put(",\"hi\":");
        w.number(h.hi(), NumberStyle::Json);
        w.put(",\"buckets\":[");
        const auto& bins = h.histogram().bins();
        for (size_t b = 0; b < bins.size(); ++b) {
          if (b) w.put(',');
          w.u64(bins[b]);
        }
        w.put(']');
        break;
      }
    }
    w.put('}');
  }
  w.put("]}");
  return w.take();
}

namespace {

void put_str(common::ByteWriter& w, std::string_view s) {
  w.u32(static_cast<uint32_t>(s.size()));
  w.text(s);
}

std::string get_str(common::ByteReader& r) {
  uint32_t len = r.u32();
  return r.text(len);
}

void put_f64(common::ByteWriter& w, double v) {
  w.u64(std::bit_cast<uint64_t>(v));
}

double get_f64(common::ByteReader& r) {
  return std::bit_cast<double>(r.u64());
}

}  // namespace

void Registry::encode(common::ByteWriter& w) const {
  // order_ holds each family's series contiguously.
  auto family_end = [&](size_t i) {
    size_t j = i;
    while (j < order_.size() && order_[j]->family == order_[i]->family) ++j;
    return j;
  };
  uint32_t n_families = 0;
  for (size_t i = 0; i < order_.size(); i = family_end(i)) ++n_families;
  w.u32(n_families);
  for (size_t i = 0, end = 0; i < order_.size(); i = end) {
    end = family_end(i);
    const Family& fam = *order_[i]->family;
    put_str(w, fam.name);
    w.u8(static_cast<uint8_t>(fam.kind));
    put_str(w, fam.help);
    w.u32(static_cast<uint32_t>(end - i));
    for (size_t j = i; j < end; ++j) {
      const Series& s = *order_[j];
      w.u32(static_cast<uint32_t>(s.label_count));
      for (size_t l = 0; l < s.label_count; ++l) {
        put_str(w, s.labels[l].first);
        put_str(w, s.labels[l].second);
      }
      switch (fam.kind) {
        case Kind::Counter:
          w.u64(s.counter.value());
          break;
        case Kind::Gauge:
          put_f64(w, s.gauge.value());
          break;
        case Kind::Histogram: {
          const HistogramMetric& h = *s.histogram;
          put_f64(w, h.lo());
          put_f64(w, h.hi());
          const auto& bins = h.histogram().bins();
          w.u32(static_cast<uint32_t>(bins.size()));
          for (size_t c : bins) w.u64(c);
          const common::OnlineStats& m = h.moments();
          w.u64(m.count());
          put_f64(w, m.mean());
          put_f64(w, m.m2());
          put_f64(w, m.min());
          put_f64(w, m.max());
          break;
        }
      }
    }
  }
}

std::unique_ptr<Registry> Registry::decode(common::ByteReader& r) {
  auto reg = std::make_unique<Registry>();
  uint32_t n_families = r.u32();
  std::vector<std::pair<std::string, std::string>> owned;
  std::vector<Label> views;
  for (uint32_t f = 0; f < n_families && r.ok(); ++f) {
    std::string name = get_str(r);
    auto kind = static_cast<Kind>(r.u8());
    std::string help = get_str(r);
    uint32_t n_series = r.u32();
    for (uint32_t si = 0; si < n_series && r.ok(); ++si) {
      uint32_t n_labels = r.u32();
      owned.clear();
      for (uint32_t li = 0; li < n_labels && r.ok(); ++li) {
        std::string k = get_str(r);
        std::string v = get_str(r);
        owned.emplace_back(std::move(k), std::move(v));
      }
      views.assign(owned.begin(), owned.end());
      auto series = [&]() -> Series& {
        return reg->series(name, kind, help, views.data(), views.size());
      };
      switch (kind) {
        case Kind::Counter:
          series().counter.set(r.u64());
          break;
        case Kind::Gauge:
          series().gauge.set(get_f64(r));
          break;
        case Kind::Histogram: {
          double lo = get_f64(r);
          double hi = get_f64(r);
          uint32_t n_bins = r.u32();
          std::vector<size_t> counts;
          counts.reserve(n_bins);
          for (uint32_t b = 0; b < n_bins && r.ok(); ++b) {
            counts.push_back(static_cast<size_t>(r.u64()));
          }
          uint64_t m_count = r.u64();
          double mean = get_f64(r);
          double m2 = get_f64(r);
          double mn = get_f64(r);
          double mx = get_f64(r);
          if (!r.ok() || counts.empty()) break;
          HistogramMetric* h =
              reg->shaped(series(), name, lo, hi, counts.size());
          h->restore(common::Histogram::from_parts(lo, hi, std::move(counts)),
                     common::OnlineStats::from_parts(
                         static_cast<size_t>(m_count), mean, m2, mn, mx));
          break;
        }
        default:
          throw std::runtime_error("Registry::decode: unknown series kind");
      }
    }
  }
  if (!r.ok()) throw std::runtime_error("Registry::decode: truncated buffer");
  return reg;
}

std::string Registry::to_prometheus() const {
  Writer w(export_size_hint(true));
  const Family* current = nullptr;
  for (const Series* sp : order_) {
    const Series& s = *sp;
    const Family& fam = *s.family;
    if (&fam != current) {
      current = &fam;
      if (!fam.help.empty()) {
        w.put("# HELP ");
        w.put(fam.name);
        w.put(' ');
        w.prom_escaped(fam.help);
        w.put('\n');
      }
      w.put("# TYPE ");
      w.put(fam.name);
      w.put(' ');
      w.put(kind_name(static_cast<int>(fam.kind)));
      w.put('\n');
    }
    auto line = [&](std::string_view suffix, std::string_view extra) {
      put_prom_series(w, fam.name, suffix, s.key, extra);
      w.put(' ');
    };
    switch (fam.kind) {
      case Kind::Counter:
        line("", "");
        w.u64(s.counter.value());
        w.put('\n');
        break;
      case Kind::Gauge:
        line("", "");
        w.number(s.gauge.value(), NumberStyle::Prometheus);
        w.put('\n');
        break;
      case Kind::Histogram: {
        const HistogramMetric& h = *s.histogram;
        const auto& bins = h.histogram().bins();
        size_t cumulative = 0;
        for (size_t i = 0; i < bins.size(); ++i) {
          cumulative += bins[i];
          char le[8 + kNumberChars] = "le=\"";
          char* end = i + 1 == bins.size()
                          ? std::copy_n("+Inf", 4, le + 4)
                          : format_number(le + 4, h.bin_high(i),
                                          NumberStyle::Prometheus);
          *end++ = '"';
          line("_bucket", std::string_view(le, static_cast<size_t>(end - le)));
          w.u64(cumulative);
          w.put('\n');
        }
        line("_sum", "");
        w.number(h.sum(), NumberStyle::Prometheus);
        w.put('\n');
        line("_count", "");
        w.u64(h.count());
        w.put('\n');
        // Interpolated summary quantiles, so dashboards get p50/p90/
        // p99 without a histogram_quantile() engine. Skipped while
        // empty (a quantile of nothing is not 0, it is undefined).
        if (h.count() > 0) {
          static const struct {
            const char* label;
            double q;
          } kQuantiles[] = {{"quantile=\"0.5\"", 0.5},
                            {"quantile=\"0.9\"", 0.9},
                            {"quantile=\"0.99\"", 0.99}};
          for (const auto& qd : kQuantiles) {
            line("", qd.label);
            w.number(h.quantile(qd.q), NumberStyle::Prometheus);
            w.put('\n');
          }
        }
        break;
      }
    }
  }
  return w.take();
}

}  // namespace sm::obs
