// The benchmark's three workloads. Each is a closed batch: its inputs are
// generated up front from the seed, and each worker takes the next trial
// when its last one finishes. A workload runs its batch repeatedly for
// the requested number of seconds; every repetition must reproduce the
// first one's determinism digest.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Worker threads for the trial workloads (population is single-
  /// threaded by construction).
  size_t threads = 1;
  /// Directory for checkpoints and the Chrome trace.
  std::string work_dir;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed correctness check.
  std::vector<std::string> violations;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// End-to-end metrics printed by name and unit but left out of the JSON
  /// result, which needs every metric on every workload, none that is 0
  /// on a good run, and a run-to-run spread within its bound:
  /// trial_p99_ms, failed_ratio, and hop_pps where it is measurable.
  std::vector<Metric> printed_only;
  /// Printed beside the result: determinism digest, exact work counts,
  /// sample counts.
  std::vector<std::pair<std::string, std::string>> info;

  void violation(std::string what) { violations.push_back(std::move(what)); }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
};

Outcome run_e2_campaign(const RunConfig& config);
Outcome run_simcheck(const RunConfig& config);
Outcome run_population(const RunConfig& config);

/// Names and units of every per-layer metric, in print order. Each
/// workload reports all of them; a layer the workload never crosses
/// reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

double peak_rss_mb();

}  // namespace perfbench
