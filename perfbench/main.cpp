// perfbench: the repo benchmark's measuring binary.
//
//   perfbench --workload e2_campaign|simcheck|population --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--git-sha SHA]
//
// Prints the run's environment, every metric by name with its unit, the
// determinism digest and exact work counts, then one JSON result as the
// last line of stdout. With --trace 0 the metrics are the end-to-end
// ones, measured with no spans recorded; with --trace 1 they are the
// per-layer ones from a separate traced run. Exits 1 when any
// correctness check failed, 2 on bad usage or an unoptimized build.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

constexpr bool build_is_optimized() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "e2_campaign|simcheck|population --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--git-sha SHA]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, git_sha = "unknown";
  perfbench::RunConfig config;
  config.work_dir = ".";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end && *end == '\0' && config.seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else if (key == "--git-sha") {
      git_sha = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  if (!have_seed || !have_seconds || !have_trace || workload.empty()) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!build_is_optimized()) {
    std::fprintf(stderr, "perfbench: refusing to report from an "
                         "unoptimized build (" PERFBENCH_BUILD_TYPE ")\n");
    return 2;
  }

  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (nproc < 1) nproc = 1;
  // Two workers, or fewer when fewer cores are present.
  config.threads = size_t(std::min(2L, nproc));
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  perfbench::Outcome outcome;
  if (workload == "e2_campaign") {
    outcome = perfbench::run_e2_campaign(config);
  } else if (workload == "simcheck") {
    outcome = perfbench::run_simcheck(config);
  } else if (workload == "population") {
    config.threads = 1;  // single-threaded by construction
    outcome = perfbench::run_population(config);
  } else {
    return usage(("unknown workload " + workload).c_str());
  }

  std::printf("env: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
              "threads=%zu compiler=\"%s\" build=%s git_sha=%s\n",
              workload.c_str(), (unsigned long long)config.seed,
              config.seconds, config.trace ? 1 : 0, nproc, config.threads,
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, git_sha.c_str());
  for (const auto& [key, value] : outcome.info) {
    std::printf("info: %s = %s\n", key.c_str(), value.c_str());
  }
  for (const perfbench::Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      outcome.violation("metric " + m.name + " is not finite");
    }
    std::printf("metric: %-32s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const perfbench::Metric& m : outcome.printed_only) {
    std::printf("metric: %-32s %.6g %s (printed only)\n", m.name.c_str(),
                m.value, m.unit.c_str());
  }
  size_t shown = 0;
  for (const std::string& v : outcome.violations) {
    if (shown++ == 20) {
      std::fprintf(stderr, "CHECK FAIL: ... %zu more\n",
                   outcome.violations.size() - 20);
      break;
    }
    std::fprintf(stderr, "CHECK FAIL: %s\n", v.c_str());
  }
  const bool correct = outcome.violations.empty() && outcome.failed == 0 &&
                       outcome.attempted > 0;

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(std::isfinite(m.value) ? m.value : 0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
