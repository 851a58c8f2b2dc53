// Small statistics toolkit used by the benchmark harnesses and reports:
// online mean/variance, empirical CDFs (for reproducing Figure 2), and
// histogram/percentile helpers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace sm::common {

/// Welford online mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x);
  /// Folds `other` in as if its samples had been add()ed here (Chan et
  /// al. parallel combination). Campaign workers accumulate privately and
  /// the runner merges in trial order, so the result is deterministic for
  /// a fixed merge order (floating-point, so not generally equal to the
  /// single-stream interleaving).
  void merge(const OnlineStats& other);
  size_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const;  // sample variance (n-1); 0 if n < 2
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  /// Raw sum of squared deviations — the exact internal state, exposed so
  /// the checkpoint codec can round-trip an accumulator bit-for-bit
  /// (recomputing it from variance() would reorder the floating point).
  double m2() const { return m2_; }
  /// Rebuilds an accumulator from its exact serialized state.
  static OnlineStats from_parts(size_t count, double mean, double m2,
                                double min, double max);

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical CDF over a sample set. `points()` returns the (x, F(x)) step
/// curve exactly as a paper CDF figure plots it.
class EmpiricalCdf {
 public:
  void add(double x) { samples_.push_back(x); }
  void add_all(const std::vector<double>& xs);

  size_t count() const { return samples_.size(); }

  /// Fraction of samples <= x.
  double at(double x) const;

  /// q-th quantile (q in [0,1]) by linear interpolation between order
  /// statistics. q=0.5 is the median.
  double quantile(double q) const;

  /// The step-curve as sorted (value, cumulative fraction) pairs, with
  /// duplicates collapsed.
  std::vector<std::pair<double, double>> points() const;

  /// Renders the CDF as fixed-width text rows ("x\tF(x)"), one per unique
  /// sample value — the series a plotting tool would consume.
  std::string to_table(int max_rows = 0) const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins so nothing is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t bins);
  /// Rebuilds a histogram from serialized bin counts (checkpoint decode).
  /// Throws std::invalid_argument on an empty bin vector.
  static Histogram from_parts(double lo, double hi,
                              std::vector<size_t> counts);
  void add(double x);
  /// Zeroes every bin (shape and storage kept).
  void clear() {
    std::fill(counts_.begin(), counts_.end(), size_t{0});
    total_ = 0;
  }
  /// Adds `other`'s bin counts into this histogram. Both must have the
  /// same [lo, hi) range and bin count; throws std::invalid_argument
  /// otherwise. Edge-clamped samples (degenerate range, non-finite
  /// input) merge like any others — they live in the edge bins.
  void merge(const Histogram& other);
  size_t count() const { return total_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  const std::vector<size_t>& bins() const { return counts_; }
  double bin_low(size_t i) const;
  /// ASCII bar rendering for report output.
  std::string to_ascii(size_t width = 50) const;

 private:
  double lo_, hi_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
};

/// Shannon entropy (bits) of a discrete distribution given as counts.
/// Used by the cover-traffic bench to quantify attribution confusion.
double entropy_bits(const std::vector<size_t>& counts);

}  // namespace sm::common
