// Deterministic metrics registry: named + labeled counters, gauges, and
// histograms, snapshot-able to JSON and Prometheus text exposition.
//
// The simulator's whole argument rests on counting what the adversary
// sees (alerts stored, probes RSTed, bytes retained), so those counts
// need one common, machine-readable export path. Everything here is
// deterministic: exports walk the series sorted by (name, labels),
// values come only from simulation state, and no wall-clock or
// address-dependent data ever enters a snapshot — two runs with the same
// seed serialize byte-identically.
//
// Instrumentation is pull-model where it matters: hot subsystems keep
// their existing cheap struct counters (ids::Engine::Stats, Router::
// Counters, ...) and bridge them into the registry only at snapshot
// time via their export_metrics() methods, so a disabled registry costs
// the hot paths nothing at all. The bridges re-register every series on
// each snapshot, so lookup and export are built to allocate nothing once
// a series exists: series records live in the registry's arena with
// their values inline, names and labels are looked up as views, and
// exports append numbers with std::to_chars into one reserved buffer.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/bytes.hpp"
#include "common/stats.hpp"

namespace sm::obs {

/// One label as (key, value) views. The series accessors take a label
/// set as a braced list of these, usually written inline:
///   reg.counter("sm_ids_packets_total", {{"instance", name}}, help)
/// The viewed text only has to outlive the call; the registry copies it
/// when the call creates a series. Order-insensitive: the registry sorts
/// by (key, value) before using the set as part of the series identity.
using Label = std::pair<std::string_view, std::string_view>;
using Labels = std::initializer_list<Label>;

/// Monotonically increasing count. `set()` exists for the pull-model
/// bridges, which copy an already-cumulative subsystem counter into the
/// registry at snapshot time.
class Counter {
 public:
  void inc(uint64_t n = 1) { value_ += n; }
  void set(uint64_t v) { value_ = v; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time value (queue depth, retained fraction, store bytes).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bin distribution over [lo, hi) (out-of-range observations clamp
/// to the edge bins, matching common::Histogram), with running moments.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, size_t bins)
      : lo_(lo), hi_(hi), hist_(lo, hi, bins) {}

  void observe(double x) {
    hist_.add(x);
    moments_.add(x);
  }

  /// Drops all observations (shape and bin storage kept). Pull-model
  /// bridges that rebuild a distribution from current state (e.g.
  /// per-dossier scores) call this first so repeated snapshots stay
  /// idempotent.
  void reset() {
    hist_.clear();
    moments_ = common::OnlineStats{};
  }

  /// Folds `other`'s observations in: bin counts add, moments combine
  /// (Chan et al.). Shape mismatch throws std::invalid_argument. Clamped
  /// observations (non-finite input, degenerate [lo,hi)) merge like any
  /// others: the clamp happened at observe() time, so the edge bins just
  /// add — count() and the bucket sums stay exact integers even when the
  /// moments carry NaN from a non-finite observation.
  void merge(const HistogramMetric& other) {
    hist_.merge(other.hist_);
    moments_.merge(other.moments_);
  }

  size_t count() const { return hist_.count(); }
  double sum() const {
    return moments_.mean() * static_cast<double>(moments_.count());
  }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  const common::Histogram& histogram() const { return hist_; }
  const common::OnlineStats& moments() const { return moments_; }
  /// Restores exact serialized state (checkpoint decode). The histogram's
  /// shape must match this metric's; throws std::invalid_argument if not.
  void restore(common::Histogram hist, common::OnlineStats moments);
  /// Upper bound of bin `i` (the Prometheus `le` value; the last bin's
  /// bound serializes as +Inf because edge clamping makes it catch-all).
  double bin_high(size_t i) const;
  /// Estimated q-quantile (0 < q <= 1) by linear interpolation over the
  /// cumulative bin counts — the classic histogram_quantile() estimate,
  /// computed at export time so observe() stays one array increment.
  /// Returns 0.0 when the histogram is empty. Deterministic: depends
  /// only on the (exact, integral) bin counts and the fixed bin edges.
  double quantile(double q) const;

 private:
  double lo_, hi_;
  common::Histogram hist_;
  common::OnlineStats moments_;
};

/// The registry. Series accessors return stable pointers that stay valid
/// for the registry's lifetime, so call sites can cache them. Re-using a
/// metric name with a different kind or histogram shape throws
/// std::invalid_argument (programmer error).
///
/// A disabled registry hands out dummy series instead: writes go to a
/// sink nobody reads and snapshots are empty, so "observability off"
/// needs no branches at the instrumentation sites. Constructing a
/// registry allocates nothing; the first series does.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  Counter* counter(std::string_view name, Labels labels = {},
                   std::string_view help = "");
  Gauge* gauge(std::string_view name, Labels labels = {},
               std::string_view help = "");
  HistogramMetric* histogram(std::string_view name, double lo, double hi,
                             size_t bins, Labels labels = {},
                             std::string_view help = "");

  /// Number of registered (name, labels) series.
  size_t series_count() const { return order_.size(); }

  /// Folds every series of `other` into this registry: counters and
  /// gauges add, histograms merge() bin-wise; series missing here are
  /// created with `other`'s shape and help text. The campaign runner
  /// uses this to combine per-worker registries — merging the same
  /// snapshots in the same order yields byte-identical to_json()
  /// regardless of how many workers produced them. Throws
  /// std::invalid_argument on a kind or histogram-shape conflict.
  /// A disabled registry ignores the call (snapshots stay empty).
  void merge(const Registry& other);

  /// Deterministic JSON snapshot: an array of series sorted by
  /// (name, labels), e.g.
  ///   {"metrics":[{"name":"sm_ids_packets_total",
  ///                "labels":{"instance":"mvr"},
  ///                "kind":"counter","value":12}, ...]}
  /// Non-finite gauge and histogram values export as `null`.
  std::string to_json() const;

  /// Prometheus text exposition (one # HELP / # TYPE pair per family;
  /// histograms emit cumulative _bucket{le=...}, _sum, _count).
  /// Non-finite values use the exposition spellings +Inf, -Inf and NaN.
  std::string to_prometheus() const;

  /// Exact binary snapshot (campaign checkpoint codec): every family,
  /// kind, help text, label set, and raw value — doubles as IEEE-754 bit
  /// patterns — so decode() rebuilds a registry whose to_json()/
  /// to_prometheus()/merge() behaviour is byte-for-byte the original's.
  void encode(common::ByteWriter& w) const;
  /// Rebuilds a registry from encode()'s bytes. Throws std::runtime_error
  /// on a truncated or malformed buffer.
  static std::unique_ptr<Registry> decode(common::ByteReader& r);

 private:
  enum class Kind : uint8_t { Counter, Gauge, Histogram };

  // Families and series are arena records (trivially destructible; the
  // arena frees them with the registry), so their addresses — and the
  // handles into them — never move. Their text lives in the same arena.
  struct Family {
    std::string_view name;
    std::string_view help;
    Kind kind = Kind::Counter;
  };
  struct Series {
    std::string_view name;  // the family's, kept here for the search
    Family* family = nullptr;
    const Label* labels = nullptr;  // sorted by (key, value)
    size_t label_count = 0;
    std::string_view key;  // canonical `k="v",...`; empty when unlabeled
    Counter counter;
    Gauge gauge;
    HistogramMetric* histogram = nullptr;  // owned by histograms_
  };
  /// A series identity as lookups see it: the name, the canonical label
  /// rendering, and the label set in canonical order.
  struct Key {
    std::string_view name;
    std::string_view text;
    const Label* labels = nullptr;
    size_t label_count = 0;
  };

  /// Finds or creates the series and returns its index in order_; checks
  /// the family's kind and fills in a missing help text. Every series
  /// before index `from` must order before `key` (merge() walks a sorted
  /// registry and passes the last index + 1, so each step is O(1) when
  /// the shapes match).
  size_t series(const Key& key, Kind kind, std::string_view help,
                size_t from = 0);
  /// The same for a label set in any order.
  Series& series(std::string_view name, Kind kind, std::string_view help,
                 const Label* labels, size_t n);
  /// The series' histogram, made with this shape on first use; throws
  /// std::invalid_argument when an existing one has another shape.
  HistogramMetric* shaped(Series& s, std::string_view name, double lo,
                          double hi, size_t bins);
  size_t export_size_hint(bool prometheus) const;

  bool enabled_ = true;
  common::Arena arena_{8192};
  // Every series, sorted by (name, key, labels): the export order and the
  // lookup index (binary search), with each family's series adjacent.
  std::vector<Series*> order_;
  std::vector<std::unique_ptr<HistogramMetric>> histograms_;
  // Sinks handed out while disabled (the histogram made on first use).
  Counter dummy_counter_;
  Gauge dummy_gauge_;
  std::unique_ptr<HistogramMetric> dummy_histogram_;
};

}  // namespace sm::obs
