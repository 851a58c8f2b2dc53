// E18 — campaign runner scaling: trials/sec for the eval-matrix workload
// (5 censor configs x 8 techniques = 40 independent trials) at 1/2/4/8
// worker threads, plus the headline correctness property: the campaign
// report (to_jsonl, including the merged metrics snapshot) is
// byte-identical at every thread count, in both shard modes, and under
// BOTH backends — the in-process thread pool and the forked
// process-shard workers (the sm-campaignd substrate).
//
// Emits a human-readable table on stdout and a JSON report (default
// BENCH_campaign.json, or argv[1]). Every run records the machine's
// hardware concurrency, and speedup_Nx / proc_speedup_Nx fields are
// only emitted when the machine actually has >= N cores — an
// oversubscribed run still checks determinism, but its "speedup" is
// scheduling noise, not scaling data, and is skipped with a note
// instead. bench/run_benches.sh gates on speedup_4x and proc_speedup_4x
// when the machine has >=4 cores, guarding against accidental
// serialization through a global lock (threads) or the controller pipe
// (processes).
//
// It also records the fixed per-trial cost a campaign pays around each
// probe: testbed build and teardown with observability and provenance
// off (how every E2 trial runs) and with both on, next to one run_probe
// on the same testbed (the mean over the eight E2 techniques), and, on
// the observed testbed after its probe, the first metrics_snapshot()
// (every series registered anew, as simcheck does per trial) and that
// snapshot's to_json(). tools/perf_smoke.py gates three contrasts on
// them: building with both layers on costs at most 2x building with
// them off (their rings allocate on demand), a disabled build+teardown
// costs no more than the probe it hosts, and the observed snapshot plus
// its JSON cost at most 15% of that probe.
//
// Exit code: 0 only if every run produced identical bytes.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace sm;

namespace {

std::vector<campaign::Trial> workload() {
  std::vector<campaign::Trial> trials;
  auto techniques = bench::standard_techniques();
  for (const auto& [name, config] : bench::eval_matrix_configs()) {
    auto batch = bench::technique_trials(name, config, techniques);
    trials.insert(trials.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
  }
  return trials;
}

struct Timed {
  size_t threads = 0;
  campaign::Shard shard = campaign::Shard::ByIndex;
  campaign::Backend backend = campaign::Backend::Thread;
  double seconds = 0.0;
  double trials_per_sec = 0.0;
  std::string jsonl;
  bool repeatable = true;  // every rep produced the same bytes
};

/// Best of kReps runs. A 40-trial campaign takes ~10 ms, short enough
/// that one scheduler hiccup would set a single run's figure (and the
/// -jN/-j1 ratios amplify it). Every rep must produce the same bytes.
Timed time_run(const std::vector<campaign::Trial>& trials, size_t threads,
               campaign::Shard shard,
               campaign::Backend backend = campaign::Backend::Thread) {
  constexpr int kReps = 5;
  campaign::CampaignOptions options;
  options.threads = threads;
  options.shard = shard;
  options.backend = backend;
  Timed out;
  out.threads = threads;
  out.shard = shard;
  out.backend = backend;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    campaign::CampaignResult result = campaign::run(trials, options);
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    std::string jsonl = result.to_jsonl();
    if (rep == 0 || elapsed.count() < out.seconds) {
      out.seconds = elapsed.count();
    }
    if (rep == 0) {
      out.jsonl = std::move(jsonl);
    } else if (jsonl != out.jsonl) {
      out.repeatable = false;
    }
    if (result.failures != 0) {
      std::fprintf(stderr, "!!! %zu trial(s) failed at -j%zu\n",
                   result.failures, threads);
    }
  }
  out.trials_per_sec = static_cast<double>(trials.size()) / out.seconds;
  return out;
}

int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct FixedCost {
  double build_ns = 0;
  double teardown_ns = 0;
  double run_probe_ns = 0;
  double snapshot_ns = 0;      // 0 unless observability is on
  double metrics_json_ns = 0;  // likewise
};

/// Thread CPU ns per testbed build, teardown and run_probe, averaged
/// over the eight E2 techniques (so "one run_probe" is the mean E2
/// probe): the best mean of several batches, so one descheduled stretch
/// does not set the figure.
FixedCost fixed_cost(const core::TestbedConfig& config) {
  const std::vector<bench::NamedFactory> techniques =
      bench::standard_techniques();
  constexpr int kBatches = 7, kRounds = 5;
  const int iters = kRounds * static_cast<int>(techniques.size());
  FixedCost best{1e18, 1e18, 1e18, 1e18, 1e18};
  for (int b = 0; b < kBatches; ++b) {
    int64_t build = 0, teardown = 0, probe = 0, snapshot = 0, json = 0;
    for (int i = 0; i < iters; ++i) {
      const bench::ProbeFactory& factory =
          techniques[static_cast<size_t>(i) % techniques.size()].factory;
      const int64_t t0 = thread_cpu_ns();
      auto tb = std::make_unique<core::Testbed>(config);
      const int64_t t1 = thread_cpu_ns();
      auto p = factory(*tb);
      const int64_t t2 = thread_cpu_ns();
      core::run_probe(*tb, *p);
      const int64_t t3 = thread_cpu_ns();
      if (config.enable_observability) {
        const obs::Registry& reg = tb->metrics_snapshot();
        const int64_t s1 = thread_cpu_ns();
        const std::string text = reg.to_json();
        const int64_t s2 = thread_cpu_ns();
        snapshot += s1 - t3;
        json += s2 - s1;
      }
      p.reset();
      const int64_t t4 = thread_cpu_ns();
      tb.reset();
      const int64_t t5 = thread_cpu_ns();
      build += t1 - t0;
      probe += t3 - t2;
      teardown += t5 - t4;
    }
    best.build_ns = std::min(best.build_ns, double(build) / iters);
    best.teardown_ns = std::min(best.teardown_ns, double(teardown) / iters);
    best.run_probe_ns = std::min(best.run_probe_ns, double(probe) / iters);
    best.snapshot_ns = std::min(best.snapshot_ns, double(snapshot) / iters);
    best.metrics_json_ns = std::min(best.metrics_json_ns, double(json) / iters);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_campaign.json";
  std::vector<campaign::Trial> trials = workload();
  size_t hw = campaign::resolve_threads(0);
  std::printf("E18 — campaign scaling: %zu eval-matrix trials, hardware "
              "concurrency %zu\n\n",
              trials.size(), hw);

  // Warm-up pass (first-touch allocator and page-cache effects land
  // here, not in the -j1 baseline).
  time_run(trials, 1, campaign::Shard::ByIndex);

  std::vector<Timed> runs;
  for (size_t threads : {1, 2, 4, 8}) {
    runs.push_back(time_run(trials, threads, campaign::Shard::ByIndex));
    std::printf("  -j%zu (by-index): %7.3f s  %7.1f trials/s\n", threads,
                runs.back().seconds, runs.back().trials_per_sec);
  }
  // One dynamic-shard run: same bytes, work-stealing balance.
  runs.push_back(time_run(trials, 4, campaign::Shard::Dynamic));
  std::printf("  -j4 (dynamic) : %7.3f s  %7.1f trials/s\n",
              runs.back().seconds, runs.back().trials_per_sec);
  // Process-shard backend (forked workers over pipes): the crash-safe
  // substrate must both scale and produce the same bytes.
  size_t first_proc = runs.size();
  for (size_t threads : {1, 4}) {
    runs.push_back(time_run(trials, threads, campaign::Shard::ByIndex,
                            campaign::Backend::Process));
    std::printf("  -j%zu (process) : %7.3f s  %7.1f trials/s\n", threads,
                runs.back().seconds, runs.back().trials_per_sec);
  }
  runs.push_back(time_run(trials, 4, campaign::Shard::Dynamic,
                          campaign::Backend::Process));
  std::printf("  -j4 (proc/dyn): %7.3f s  %7.1f trials/s\n",
              runs.back().seconds, runs.back().trials_per_sec);

  bool deterministic = true;
  for (const Timed& r : runs) {
    if (r.jsonl != runs.front().jsonl || !r.repeatable) deterministic = false;
  }
  double base = runs[0].trials_per_sec;
  // A speedup figure is only meaningful when the machine can actually
  // run that many workers in parallel.
  std::string speedup_fields, skipped_notes;
  for (size_t i = 1; i < 4; ++i) {
    size_t threads = runs[i].threads;
    char buf[96];
    if (threads <= hw) {
      double speedup = runs[i].trials_per_sec / base;
      std::snprintf(buf, sizeof buf, "\"speedup_%zux\":%.3f,", threads,
                    speedup);
      speedup_fields += buf;
      std::printf("speedup vs -j1 at -j%zu: %.2f\n", threads, speedup);
    } else {
      std::snprintf(buf, sizeof buf,
                    "%s\"-j%zu: only %zu core(s), speedup not comparable\"",
                    skipped_notes.empty() ? "" : ",", threads, hw);
      skipped_notes += buf;
      std::printf("speedup at -j%zu: skipped (only %zu hardware core(s); "
                  "determinism still checked)\n",
                  threads, hw);
    }
  }
  // Process-backend speedup vs the same -j1 thread baseline: a healthy
  // controller keeps the pipe protocol off the critical path.
  {
    const Timed& proc4 = runs[first_proc + 1];
    char buf[96];
    if (proc4.threads <= hw) {
      double speedup = proc4.trials_per_sec / base;
      std::snprintf(buf, sizeof buf, "\"proc_speedup_4x\":%.3f,", speedup);
      speedup_fields += buf;
      std::printf("process-shard speedup vs -j1 at -j4: %.2f\n", speedup);
    } else {
      std::snprintf(buf, sizeof buf,
                    "%s\"proc -j4: only %zu core(s), speedup not "
                    "comparable\"",
                    skipped_notes.empty() ? "" : ",", hw);
      skipped_notes += buf;
      std::printf("process-shard speedup at -j4: skipped (only %zu hardware "
                  "core(s); determinism still checked)\n",
                  hw);
    }
  }
  core::TestbedConfig on;
  on.enable_observability = true;
  on.enable_provenance = true;
  const FixedCost cost_off = fixed_cost(core::TestbedConfig{});
  const FixedCost cost_on = fixed_cost(on);
  std::printf("testbed fixed cost (thread CPU, obs+prov off / on):\n"
              "  build     %9.0f ns / %9.0f ns\n"
              "  teardown  %9.0f ns / %9.0f ns\n"
              "  run_probe %9.0f ns (mean E2 technique, off)\n"
              "  snapshot  %9.0f ns + to_json %.0f ns (on, after the probe)\n",
              cost_off.build_ns, cost_on.build_ns, cost_off.teardown_ns,
              cost_on.teardown_ns, cost_off.run_probe_ns,
              cost_on.snapshot_ns, cost_on.metrics_json_ns);

  std::printf("deterministic (byte-identical reports across -j, shard "
              "modes, and backends): %s\n",
              deterministic ? "PASS" : "FAIL");

  FILE* f = std::fopen(out_path, "w");
  if (f) {
    std::fprintf(f,
                 "{\"bench\":\"campaign_scaling\",\"trials\":%zu,"
                 "\"hw_concurrency\":%zu,\"deterministic\":%s,"
                 "%s\"speedup_skipped\":[%s],\"fixed_cost\":{"
                 "\"build_off_ns\":%.0f,\"teardown_off_ns\":%.0f,"
                 "\"build_on_ns\":%.0f,\"teardown_on_ns\":%.0f,"
                 "\"run_probe_ns\":%.0f,\"snapshot_on_ns\":%.0f,"
                 "\"metrics_json_on_ns\":%.0f},\"runs\":[",
                 trials.size(), hw, deterministic ? "true" : "false",
                 speedup_fields.c_str(), skipped_notes.c_str(),
                 cost_off.build_ns, cost_off.teardown_ns, cost_on.build_ns,
                 cost_on.teardown_ns, cost_off.run_probe_ns,
                 cost_on.snapshot_ns, cost_on.metrics_json_ns);
    for (size_t i = 0; i < runs.size(); ++i) {
      std::fprintf(f,
                   "%s{\"threads\":%zu,\"hw_concurrency\":%zu,"
                   "\"shard\":\"%s\",\"backend\":\"%s\",\"seconds\":%.4f,"
                   "\"trials_per_sec\":%.2f,\"scaling_valid\":%s}",
                   i ? "," : "", runs[i].threads, hw,
                   runs[i].shard == campaign::Shard::ByIndex ? "by-index"
                                                             : "dynamic",
                   runs[i].backend == campaign::Backend::Thread ? "thread"
                                                                : "process",
                   runs[i].seconds, runs[i].trials_per_sec,
                   runs[i].threads <= hw ? "true" : "false");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "!!! cannot write %s\n", out_path);
  }
  return deterministic ? 0 : 1;
}
