#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "bench_util.hpp"
#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"
#include "censor/gfc.hpp"
#include "common/rng.hpp"
#include "ids/engine.hpp"
#include "netsim/asgen.hpp"
#include "netsim/bgtraffic.hpp"
#include "netsim/router.hpp"
#include "packet/copy_stats.hpp"
#include "packet/packet.hpp"
#include "simcheck/explore.hpp"
#include "simcheck/generate.hpp"
#include "surveillance/mvr.hpp"
#include "surveillance/rules.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace sm;

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"campaign.setup_ms", "ms"},
      {"campaign.run_ms", "ms"},
      {"campaign.finish_ms", "ms"},
      {"campaign.teardown_ms", "ms"},
      {"campaign.worker_busy_ratio", "ratio"},
      {"campaign.checkpoint_append_us", "us"},
      {"campaign.checkpoint_bytes", "bytes"},
      {"core.testbed_build_us", "us"},
      {"core.probe_factory_us", "us"},
      {"core.testbed_teardown_us", "us"},
      {"core.run_probe_us", "us"},
      {"core.drain_us", "us"},
      {"core.assess_risk_us", "us"},
      {"obs.provenance_json_us", "us"},
      {"obs.metrics_snapshot_us", "us"},
      {"obs.prov_bytes_per_trial", "bytes"},
      {"simcheck.generate_us", "us"},
      {"simcheck.run_scenario_ms", "ms"},
      {"simcheck.packets_checked", "count"},
      {"netsim.asgen_build_s", "s"},
      {"netsim.events", "count"},
      {"netsim.hops", "count"},
      {"netsim.events_per_trial", "count"},
      {"netsim.bgtraffic_flows", "count"},
      {"netsim.flow_slots_recycled", "count"},
      {"netsim.ns_per_event", "ns"},
      {"netsim.route_lookup_ns", "ns"},
      {"packet.decode_ns", "ns"},
      {"packet.route_peek_ns", "ns"},
      {"packet.copies_per_hop", "ratio"},
      {"ids.mvr_ns_per_pkt", "ns"},
      {"ids.censor_ns_per_pkt", "ns"},
      {"ids.packets", "count"},
      {"ids.prefilter_skip_ratio", "ratio"},
      {"surveillance.mvr_tap_ns_per_pkt", "ns"},
      {"surveillance.packets_seen", "count"},
      {"surveillance.discard_share", "ratio"},
      {"censor.packets_seen", "count"},
      {"censor.rst_injected", "count"},
      {"trace.closure", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

uint64_t fnv1a(const std::string& s, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
  return buf;
}

/// Set-up repetitions per run; set-up time is their median.
constexpr int kSetups = 5;

uint64_t derive(uint64_t seed, uint64_t stream) {
  uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  return common::splitmix64(state);
}

/// Per-layer values, all present from the start so a layer the workload
/// never crosses reports 0.
class Layers {
 public:
  Layers() {
    for (const auto& [name, unit] : per_layer_metrics()) values_[name] = 0;
  }
  double& operator[](const std::string& name) { return values_.at(name); }
  /// Median duration of the spans called `span`, scaled from ns.
  void median_of(const TraceSummary& t, const std::string& metric,
                 const std::string& span, double ns_per_unit) {
    auto it = t.durations.find(span);
    if (it != t.durations.end()) {
      values_.at(metric) = median(it->second) / ns_per_unit;
    }
  }
  std::vector<Metric> metrics() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : per_layer_metrics()) {
      out.push_back({name, values_.at(name), unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

/// Adds the trace's closure and overhead, and names the largest
/// unattributed span when closure is short of 90%. `overhead` is the
/// traced run's time for the replayed work over the untraced run's CPU
/// time for the same work.
void finish_trace(Outcome& out, Layers& layers, const TraceSummary& t,
                  const Tracer& tracer, const RunConfig& config,
                  const char* workload, double overhead) {
  layers["trace.closure"] = t.closure;
  layers["trace.overhead_ratio"] = overhead;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.4f of traced thread time in layer "
                "spans (%zu spans)", t.closure, tracer.size());
  out.note("trace_closure", buf);
  if (t.closure < 0.90) {
    std::snprintf(buf, sizeof(buf), "'%s' holds %.1f%% of traced time "
                  "outside any layer span", t.largest_gap.c_str(),
                  100 * t.largest_gap_share);
    out.note("trace_missing_layer", buf);
  }
  std::string path = config.work_dir + "/trace-" + workload + ".json";
  out.note("trace_file",
           write_chrome_trace(tracer.all(), path) ? path : "(write failed)");
}

/// Throughput samples of one run, one per window. A window is one pass
/// over the workload's whole input set (a batch, a cycle of simcheck
/// inputs, a population traffic phase), so windows are alike and every
/// figure is a median over them: another tenant of the host slows whole
/// stretches of a run, and the median keeps a slow stretch from moving
/// the run's figure.
struct Windows {
  std::vector<double> rate;    // trials per wall second
  std::vector<double> cpu_ms;  // process CPU ms per trial
  std::vector<double> p50_ms;  // trial latency percentiles in the window
  std::vector<double> p90_ms;
  std::vector<double> p99_ms;
  size_t latencies = 0;

  void add(size_t trials, double wall_s, double cpu_s,
           const std::vector<double>& latency_ms) {
    rate.push_back(double(trials) / wall_s);
    cpu_ms.push_back(cpu_s * 1e3 / double(trials));
    p50_ms.push_back(percentile(latency_ms, 0.50));
    p90_ms.push_back(percentile(latency_ms, 0.90));
    p99_ms.push_back(percentile(latency_ms, 0.99));
    latencies += latency_ms.size();
  }
  void append(const Windows& o) {
    rate.insert(rate.end(), o.rate.begin(), o.rate.end());
    cpu_ms.insert(cpu_ms.end(), o.cpu_ms.begin(), o.cpu_ms.end());
    p50_ms.insert(p50_ms.end(), o.p50_ms.begin(), o.p50_ms.end());
    p90_ms.insert(p90_ms.end(), o.p90_ms.begin(), o.p90_ms.end());
    p99_ms.insert(p99_ms.end(), o.p99_ms.begin(), o.p99_ms.end());
    latencies += o.latencies;
  }
};

void add_e2e(Outcome& out, const std::vector<double>& setups,
             const Windows& w) {
  out.metrics = {
      {"setup_s", median(setups), "s"},
      {"trials_per_s", median(w.rate), "1/s"},
      {"trial_p50_ms", median(w.p50_ms), "ms"},
      {"trial_p90_ms", median(w.p90_ms), "ms"},
      {"cpu_ms_per_trial", median(w.cpu_ms), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  out.note("samples", std::to_string(setups.size()) + " set-ups, " +
                          std::to_string(w.rate.size()) + " windows, " +
                          std::to_string(w.latencies) +
                          " trial latencies");
  // The 99th percentile tracks interference from other tenants of the
  // host more than the program: its run-to-run spread exceeds any bound
  // the result may carry, so it is printed, and p90 takes its place.
  out.printed_only.push_back({"trial_p99_ms", median(w.p99_ms), "ms"});
  out.printed_only.push_back(
      {"failed_ratio",
       out.attempted ? double(out.failed) / double(out.attempted) : 1.0,
       "ratio"});
}

/// Counts read from one finished trial's testbed before teardown.
struct TestbedCounts {
  uint64_t events = 0, hops = 0;
  uint64_t censor_seen = 0, censor_rst = 0;
  uint64_t ids_packets = 0, ids_candidates = 0, ids_skips = 0;
  uint64_t mvr_packets = 0, mvr_bytes = 0, mvr_discarded = 0;

  static TestbedCounts of(core::Testbed& tb) {
    TestbedCounts c;
    c.events = tb.net.engine().executed();
    c.hops = tb.router->counters().forwarded;
    c.censor_seen = tb.censor_tap->stats().packets_seen;
    c.censor_rst = tb.censor_tap->stats().rst_packets_injected;
    const auto& ids = tb.censor_tap->engine().stats();
    c.ids_packets = ids.packets;
    c.ids_candidates = ids.fastpath_candidates;
    c.ids_skips = ids.prefilter_skips;
    c.mvr_packets = tb.mvr->stats().packets_seen;
    c.mvr_bytes = tb.mvr->stats().bytes_seen;
    c.mvr_discarded = tb.mvr->stats().bytes_discarded;
    return c;
  }
  void add(const TestbedCounts& o) {
    events += o.events;
    hops += o.hops;
    censor_seen += o.censor_seen;
    censor_rst += o.censor_rst;
    ids_packets += o.ids_packets;
    ids_candidates += o.ids_candidates;
    ids_skips += o.ids_skips;
    mvr_packets += o.mvr_packets;
    mvr_bytes += o.mvr_bytes;
    mvr_discarded += o.mvr_discarded;
  }
  void report(Layers& layers, Outcome& out, size_t trials) const {
    layers["netsim.events"] = double(events);
    layers["netsim.hops"] = double(hops);
    layers["netsim.events_per_trial"] = double(events) / double(trials);
    layers["censor.packets_seen"] = double(censor_seen);
    layers["censor.rst_injected"] = double(censor_rst);
    layers["ids.packets"] = double(ids_packets);
    layers["ids.prefilter_skip_ratio"] =
        ids_candidates ? double(ids_skips) / double(ids_candidates) : 0;
    layers["surveillance.packets_seen"] = double(mvr_packets);
    layers["surveillance.discard_share"] =
        mvr_bytes ? double(mvr_discarded) / double(mvr_bytes) : 0;
    out.note("work_events", std::to_string(events));
    out.note("work_hops", std::to_string(hops));
    out.note("work_ids_packets", std::to_string(ids_packets));
  }
};

// ---------------------------------------------------------------------
// e2_campaign
// ---------------------------------------------------------------------

/// Copies of the 40-cell E2 matrix per batch. Each copy runs under other
/// trial indices, so other derived seeds.
constexpr size_t kE2Copies = 4;

std::vector<campaign::Trial> e2_trials(uint64_t seed) {
  auto techniques = bench::standard_techniques();
  std::vector<campaign::Trial> out;
  for (size_t copy = 0; copy < kE2Copies; ++copy) {
    for (const auto& [name, config] : bench::eval_matrix_configs()) {
      for (auto& trial : bench::technique_trials(name, config, techniques)) {
        out.push_back(std::move(trial));
      }
    }
  }
  // The seed picks the order trials are handed to the workers.
  uint64_t state = derive(seed, 7);
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[common::splitmix64(state) % i]);
  }
  return out;
}

campaign::CampaignOptions e2_options(const RunConfig& config,
                                     const std::string& checkpoint) {
  campaign::CampaignOptions options;
  options.threads = config.threads;
  options.shard = campaign::Shard::ByIndex;
  options.backend = campaign::Backend::Thread;
  options.checkpoint_path = checkpoint;
  options.campaign_seed = derive(config.seed, 1);
  return options;
}

/// Checks verdicts against the E2 expectations; returns the number of
/// trials that failed or missed their expectation.
size_t check_e2_verdicts(const campaign::CampaignResult& result,
                         Outcome& out) {
  static const auto expectations = bench::eval_matrix_expectations();
  size_t bad = 0;
  for (const campaign::TrialResult& t : result.trials) {
    if (t.failed) {
      out.violation("trial " + std::to_string(t.index) + " (" + t.name +
                    ") failed: " + t.error);
      ++bad;
      continue;
    }
    size_t slash = t.name.find('/');
    auto mech = expectations.find(t.name.substr(0, slash));
    if (mech == expectations.end()) continue;
    auto tech = mech->second.find(t.name.substr(slash + 1));
    if (tech == mech->second.end()) continue;
    const auto& allowed = tech->second;
    if (std::find(allowed.begin(), allowed.end(), t.report.verdict) ==
        allowed.end()) {
      out.violation("trial " + std::to_string(t.index) + " (" + t.name +
                    ") verdict " + std::string(core::to_string(t.report.verdict)) +
                    " misses the E2 expectation");
      ++bad;
    }
  }
  return bad;
}

/// Resume check: a second run over the finished checkpoint must restore
/// every trial and reproduce the JSONL byte for byte.
bool check_e2_resume(const std::vector<campaign::Trial>& trials,
                     const campaign::CampaignOptions& options,
                     const std::string& jsonl, Outcome& out) {
  campaign::CampaignResult again = campaign::run(trials, options);
  if (again.resumed != trials.size()) {
    out.violation("resume restored " + std::to_string(again.resumed) + "/" +
                  std::to_string(trials.size()) + " trials");
    return false;
  }
  if (again.to_jsonl() != jsonl) {
    out.violation("resumed campaign JSONL differs from the original");
    return false;
  }
  return true;
}

Outcome e2_run(const RunConfig& config) {
  namespace fs = std::filesystem;
  Outcome out;
  std::unique_ptr<Tracer> tracer =
      config.trace ? std::make_unique<Tracer>(config.threads + 1) : nullptr;
  Tracer* tr = tracer.get();
  std::optional<ScopedSpan> root;
  root.emplace(tr, 0, "run");
  const std::string ckpt_a = config.work_dir + "/e2-campaign.ckpt";
  const std::string ckpt_b = config.work_dir + "/e2-replay.ckpt";

  // Set-up, kSetups times: build the trial list, then a warm-up campaign
  // over one copy of the matrix.
  std::vector<double> setups;
  std::vector<campaign::Trial> trials;
  for (int rep = 0; rep < kSetups; ++rep) {
    int64_t t0 = now_ns();
    {
      ScopedSpan s(tr, 0, "bench.trial_list");
      trials = e2_trials(config.seed);
    }
    std::vector<campaign::Trial> warm(trials.begin(), trials.begin() + 40);
    campaign::CampaignResult result;
    {
      ScopedSpan s(tr, 0, "campaign.run");
      result = campaign::run(warm, e2_options(config, ""));
    }
    setups.push_back(double(now_ns() - t0) / 1e9);
    ScopedSpan s(tr, 0, "bench.verify");
    check_e2_verdicts(result, out);
  }
  const size_t n = trials.size();

  Windows windows;
  std::vector<double> setup_ms, run_ms, finish_ms, teardown_ms;
  double measured_s = 0, busy_s = 0, pass_a_s = 0, pass_a_cpu_s = 0;
  double traced_trial_ns = 0, telemetry_busy_s = 0;
  std::string digest;
  uint64_t checkpoint_bytes = 0;
  TestbedCounts first_counts;
  uint64_t first_copies = 0, replay_events = 0;
  size_t batches = 0;

  // The untraced run measures campaign::run time alone; the traced run
  // counts its replay pass too, so both last about --seconds.
  const int64_t loop_start = now_ns();
  auto elapsed_s = [&] {
    return tr ? double(now_ns() - loop_start) / 1e9 : measured_s;
  };
  while (elapsed_s() < config.seconds || batches == 0) {
    // Pass A: the campaign as a user runs it.
    fs::remove(ckpt_a);
    campaign::CampaignOptions options = e2_options(config, ckpt_a);
    int64_t t0 = now_ns();
    double c0 = process_cpu_seconds();
    campaign::CampaignResult result;
    {
      ScopedSpan s(tr, 0, "campaign.run");
      result = campaign::run(trials, options);
    }
    double wall_s = double(now_ns() - t0) / 1e9;
    double cpu_s = process_cpu_seconds() - c0;
    measured_s += wall_s;
    pass_a_s += wall_s;
    pass_a_cpu_s += cpu_s;
    out.attempted += n;
    std::vector<double> latencies;
    for (const campaign::TrialResult& t : result.trials) {
      latencies.push_back(t.wall_elapsed.to_seconds() * 1e3);
      busy_s += t.wall_elapsed.to_seconds();
      setup_ms.push_back(t.wall_setup.to_seconds() * 1e3);
      run_ms.push_back(t.wall_run.to_seconds() * 1e3);
      finish_ms.push_back(t.wall_finish.to_seconds() * 1e3);
      teardown_ms.push_back(
          (t.wall_elapsed - t.wall_setup - t.wall_run - t.wall_finish)
              .to_seconds() * 1e3);
    }
    windows.add(n, wall_s, cpu_s, latencies);
    for (int w = 0; w < int(config.threads); ++w) {
      telemetry_busy_s += double(
          result.telemetry
              ->counter("sm_campaign_worker_busy_seconds_total",
                        {{"worker", std::to_string(w)}})
              ->value());
    }
    {
      ScopedSpan s(tr, 0, "bench.verify");
      size_t bad = check_e2_verdicts(result, out);
      std::string jsonl = result.to_jsonl();
      std::string d = hex(fnv1a(jsonl));
      if (batches == 0) {
        digest = d;
        checkpoint_bytes = fs::file_size(ckpt_a);
      } else if (d != digest) {
        out.violation("batch " + std::to_string(batches) +
                      " JSONL digest " + d + " != first batch " + digest);
        bad = n;
      }
      if (!check_e2_resume(trials, options, jsonl, out)) bad = n;
      out.failed += std::min(bad, n);
    }

    if (tr) {
      // Pass B: the same trials replayed through the public calls the
      // campaign makes, one span per call.
      fs::remove(ckpt_b);
      campaign::CheckpointFile ckpt;
      ckpt.open(ckpt_b, campaign::load_checkpoint(ckpt_b),
                campaign::checkpoint_meta(trials, options));
      std::mutex ckpt_mu;
      std::vector<common::Bytes> records(n);
      std::vector<TestbedCounts> counts(n);
      packet::reset_copy_counters();
      int64_t parent = tr->begin(0, "campaign.run_jobs", -1);
      auto errors = campaign::run_jobs(
          n,
          [&](size_t i, int worker) {
            const int track = worker + 1;
            const campaign::Trial& trial = trials[i];
            ScopedSpan trial_span(tr, track, "trial", int64_t(i), parent);
            core::TestbedConfig tb_config = trial.config;
            tb_config.sav_seed =
                campaign::trial_seed(options.campaign_seed, i, 0);
            tb_config.mvr.sampling_seed =
                campaign::trial_seed(options.campaign_seed, i, 1);
            tb_config.netsim_seed =
                campaign::trial_seed(options.campaign_seed, i, 2);
            campaign::TrialResult slot;
            slot.index = i;
            slot.name = trial.name;
            std::optional<core::Testbed> tb;
            std::unique_ptr<core::Probe> probe;
            {
              ScopedSpan s(tr, track, "core.testbed_build", int64_t(i));
              tb.emplace(tb_config);
            }
            {
              ScopedSpan s(tr, track, "core.probe_factory", int64_t(i));
              probe = trial.factory(*tb);
            }
            {
              ScopedSpan s(tr, track, "core.run_probe", int64_t(i));
              slot.report =
                  core::run_probe(*tb, *probe, trial.probe_timeout);
            }
            {
              ScopedSpan s(tr, track, "core.drain", int64_t(i));
              tb->run_for(trial.drain);
            }
            {
              ScopedSpan s(tr, track, "core.assess_risk", int64_t(i));
              slot.risk = core::assess_risk(*tb, trial.name);
            }
            slot.sim_elapsed = tb->net.engine().now() - common::SimTime{};
            counts[i] = TestbedCounts::of(*tb);
            {
              ScopedSpan s(tr, track, "core.testbed_teardown", int64_t(i));
              probe.reset();
              tb.reset();
            }
            records[i] = campaign::encode_trial_record(slot, nullptr);
            std::lock_guard<std::mutex> lock(ckpt_mu);
            ScopedSpan s(tr, track, "campaign.checkpoint_append",
                         int64_t(i));
            ckpt.append(slot, nullptr);
          },
          options);
      tr->end(parent);
      ckpt.close();

      ScopedSpan s(tr, 0, "bench.verify");
      for (size_t i = 0; i < n; ++i) {
        if (!errors[i].empty()) {
          out.violation("replay of trial " + std::to_string(i) +
                        " threw: " + errors[i]);
        } else if (records[i] != campaign::encode_trial_record(
                                     result.trials[i], nullptr)) {
          out.violation("replay of trial " + std::to_string(i) +
                        " differs from campaign::run");
        }
      }
      for (const TestbedCounts& c : counts) replay_events += c.events;
      if (batches == 0) {
        for (const TestbedCounts& c : counts) first_counts.add(c);
        const auto& cc = packet::copy_counters();
        first_copies = cc.hop + cc.impairment + cc.pcap + cc.defrag +
                       cc.stream;
      }
    }
    ++batches;
  }
  fs::remove(ckpt_a);
  fs::remove(ckpt_b);

  out.note("batches", std::to_string(batches) + " x " + std::to_string(n) +
                          " trials");
  out.note("digest", digest);
  out.note("work_checkpoint_bytes", std::to_string(checkpoint_bytes));
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.3f s of worker time (summed "
                "TrialResult wall: %.3f s)", telemetry_busy_s, busy_s);
  out.note("telemetry_busy_seconds", buf);

  if (!tr) {
    add_e2e(out, setups, windows);
    out.note("hop_pps", "n/a: the routers sit inside campaign::run; the "
                        "traced run counts netsim.hops");
    return out;
  }
  root.reset();
  TraceSummary t = summarize(tr->all());
  Layers layers;
  layers["campaign.setup_ms"] = median(setup_ms);
  layers["campaign.run_ms"] = median(run_ms);
  layers["campaign.finish_ms"] = median(finish_ms);
  layers["campaign.teardown_ms"] = median(teardown_ms);
  layers["campaign.worker_busy_ratio"] =
      busy_s / (double(config.threads) * pass_a_s);
  layers.median_of(t, "campaign.checkpoint_append_us",
                   "campaign.checkpoint_append", 1e3);
  layers["campaign.checkpoint_bytes"] = double(checkpoint_bytes);
  layers.median_of(t, "core.testbed_build_us", "core.testbed_build", 1e3);
  layers.median_of(t, "core.probe_factory_us", "core.probe_factory", 1e3);
  layers.median_of(t, "core.testbed_teardown_us", "core.testbed_teardown",
                   1e3);
  layers.median_of(t, "core.run_probe_us", "core.run_probe", 1e3);
  layers.median_of(t, "core.drain_us", "core.drain", 1e3);
  layers.median_of(t, "core.assess_risk_us", "core.assess_risk", 1e3);
  first_counts.report(layers, out, n);
  double sim_ns = 0;
  for (const char* span : {"core.run_probe", "core.drain"}) {
    for (double d : t.durations[span]) sim_ns += d;
  }
  layers["netsim.ns_per_event"] = sim_ns / double(replay_events);
  layers["packet.copies_per_hop"] =
      first_counts.hops ? double(first_copies) / double(first_counts.hops)
                        : 0;
  for (double d : t.durations["trial"]) traced_trial_ns += d;
  finish_trace(out, layers, t, *tr, config, "e2_campaign",
               traced_trial_ns / (pass_a_cpu_s * 1e9));
  out.metrics = layers.metrics();
  return out;
}

// ---------------------------------------------------------------------
// simcheck
// ---------------------------------------------------------------------

/// Scenarios per explore() call. A call is what a simcheck user waits
/// for, and explore() exposes no per-scenario clock, so trial latency is
/// the call's wall time over its scenario count.
constexpr size_t kSimcheckBatch = 16;
/// Distinct batches the run cycles through, each from its own root seed:
/// 256 scenarios in all, so the technique mix a seed draws averages out.
constexpr size_t kSimcheckInputs = 16;

simcheck::ExploreOptions simcheck_options(const RunConfig& config,
                                          size_t input, size_t trials) {
  simcheck::ExploreOptions options;
  options.seed = derive(config.seed, 100 + input);
  options.trials = trials;
  options.threads = config.threads;
  options.faults = {};
  return options;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

Outcome simcheck_run(const RunConfig& config) {
  Outcome out;
  std::unique_ptr<Tracer> tracer =
      config.trace ? std::make_unique<Tracer>(config.threads + 1) : nullptr;
  Tracer* tr = tracer.get();
  std::optional<ScopedSpan> root;
  root.emplace(tr, 0, "run");

  // Set-up, kSetups times: option build plus a warm-up exploration.
  std::vector<double> setups;
  std::vector<simcheck::ExploreOptions> inputs;
  for (int rep = 0; rep < kSetups; ++rep) {
    int64_t t0 = now_ns();
    simcheck::ExploreOptions warm = simcheck_options(config, 0, 8);
    simcheck::ExploreResult r;
    {
      ScopedSpan s(tr, 0, "simcheck.explore");
      r = simcheck::explore(warm);
    }
    inputs.clear();
    for (size_t i = 0; i < kSimcheckInputs; ++i) {
      inputs.push_back(simcheck_options(config, i, kSimcheckBatch));
    }
    setups.push_back(double(now_ns() - t0) / 1e9);
    if (!r.ok()) out.violation("warm-up exploration failed an oracle");
  }
  const size_t n = kSimcheckBatch;
  campaign::CampaignOptions pool;  // the replay's pool, as explore() sizes it
  pool.threads = config.threads;

  Windows windows;
  double measured_s = 0, pass_a_s = 0, pass_a_cpu_s = 0, pass_b_s = 0;
  // A window is one cycle through every input.
  double cycle_wall_s = 0, cycle_cpu_s = 0;
  std::vector<double> cycle_latency_ms;
  double traced_trial_ns = 0, busy_ns = 0;
  std::vector<std::string> digests(kSimcheckInputs);
  uint64_t packets_checked = 0, prov_bytes = 0, replay_events = 0;
  TestbedCounts first_counts;
  size_t batches = 0;

  const int64_t loop_start = now_ns();
  auto elapsed_s = [&] {
    return tr ? double(now_ns() - loop_start) / 1e9 : measured_s;
  };
  while (elapsed_s() < config.seconds || batches == 0) {
    const size_t input = batches % kSimcheckInputs;
    const simcheck::ExploreOptions& options = inputs[input];
    int64_t t0 = now_ns();
    double c0 = process_cpu_seconds();
    simcheck::ExploreResult r;
    {
      ScopedSpan s(tr, 0, "simcheck.explore");
      r = simcheck::explore(options);
    }
    double wall_s = double(now_ns() - t0) / 1e9;
    double cpu_s = process_cpu_seconds() - c0;
    measured_s += wall_s;
    pass_a_s += wall_s;
    pass_a_cpu_s += cpu_s;
    cycle_wall_s += wall_s;
    cycle_cpu_s += cpu_s;
    cycle_latency_ms.push_back(wall_s * 1e3 / double(n));
    if (input + 1 == kSimcheckInputs) {
      windows.add(n * kSimcheckInputs, cycle_wall_s, cycle_cpu_s,
                  cycle_latency_ms);
      cycle_wall_s = cycle_cpu_s = 0;
      cycle_latency_ms.clear();
    }
    out.attempted += n;
    {
      ScopedSpan s(tr, 0, "bench.verify");
      out.failed += r.failed_trials;
      for (const auto& ce : r.counterexamples) {
        out.violation("trial " + std::to_string(ce.trial_index) +
                      " fails " + ce.oracle + ": " + ce.detail);
      }
      std::string d = hex(fnv1a(joined(r.log)));
      if (batches == 0) packets_checked = r.packets_checked;
      if (digests[input].empty()) {
        digests[input] = d;
      } else if (d != digests[input]) {
        out.violation("batch " + std::to_string(batches) + " log digest " +
                      d + " != its input's first run " + digests[input]);
        out.failed += n;
      }
    }

    if (tr) {
      // Pass B: each scenario replayed through simcheck's public calls,
      // then once more through the testbed so the observability exports
      // simcheck makes inside run_scenario get spans of their own.
      std::vector<std::string> lines(n);
      std::vector<TestbedCounts> counts(n);
      std::vector<uint64_t> prov(n);
      std::vector<std::string> mismatch(n);
      int64_t b0 = now_ns();
      int64_t parent = tr->begin(0, "campaign.run_jobs", -1);
      auto errors = campaign::run_jobs(
          n,
          [&](size_t i, int worker) {
            const int track = worker + 1;
            ScopedSpan trial_span(tr, track, "trial", int64_t(i), parent);
            simcheck::SeedPack seeds;
            simcheck::Scenario scenario;
            {
              ScopedSpan s(tr, track, "simcheck.generate", int64_t(i));
              seeds = simcheck::SeedPack::derive(options.seed, i);
              scenario =
                  simcheck::generate_scenario(seeds.generator, seeds.family);
            }
            simcheck::TrialOutcome outcome;
            {
              ScopedSpan s(tr, track, "simcheck.run_scenario", int64_t(i));
              outcome = simcheck::run_scenario(scenario, seeds);
            }
            lines[i] = outcome.log_line(i);

            std::optional<core::Testbed> tb;
            std::unique_ptr<core::Probe> probe;
            {
              ScopedSpan s(tr, track, "core.testbed_build", int64_t(i));
              tb.emplace(
                  scenario.testbed_config(seeds.sav, seeds.mvr, seeds.netsim));
            }
            {
              ScopedSpan s(tr, track, "core.probe_factory", int64_t(i));
              probe = scenario.make_probe(*tb);
            }
            core::ProbeReport report;
            {
              ScopedSpan s(tr, track, "core.run_probe", int64_t(i));
              report = core::run_probe(*tb, *probe,
                                       common::Duration::seconds(60));
            }
            {
              ScopedSpan s(tr, track, "core.drain", int64_t(i));
              tb->run_for(common::Duration::seconds(2));
            }
            {
              ScopedSpan s(tr, track, "core.assess_risk", int64_t(i));
              core::assess_risk(*tb, report.technique);
            }
            {
              ScopedSpan s(tr, track, "obs.metrics_snapshot", int64_t(i));
              tb->metrics_snapshot();
            }
            std::string prov_json;
            {
              ScopedSpan s(tr, track, "obs.provenance_json", int64_t(i));
              prov_json = tb->provenance_json();
            }
            prov[i] = prov_json.size();
            if (prov_json != outcome.provenance_json) {
              mismatch[i] = "layer replay provenance differs from "
                            "run_scenario's";
            }
            counts[i] = TestbedCounts::of(*tb);
            {
              ScopedSpan s(tr, track, "core.testbed_teardown", int64_t(i));
              probe.reset();
              tb.reset();
            }
          },
          pool);
      tr->end(parent);
      pass_b_s += double(now_ns() - b0) / 1e9;

      ScopedSpan s(tr, 0, "bench.verify");
      for (size_t i = 0; i < n; ++i) {
        if (!errors[i].empty()) {
          out.violation("replay of scenario " + std::to_string(i) +
                        " threw: " + errors[i]);
        } else if (lines[i] != r.log[i]) {
          out.violation("replay of scenario " + std::to_string(i) +
                        " differs from explore()");
        } else if (!mismatch[i].empty()) {
          out.violation("scenario " + std::to_string(i) + ": " +
                        mismatch[i]);
        }
      }
      for (const TestbedCounts& c : counts) replay_events += c.events;
      if (batches == 0) {
        for (const TestbedCounts& c : counts) first_counts.add(c);
        for (uint64_t b : prov) prov_bytes += b;
      }
    }
    ++batches;
  }

  out.note("batches", std::to_string(batches) + " x " + std::to_string(n) +
                          " scenarios, cycling " +
                          std::to_string(kSimcheckInputs) + " inputs");
  out.note("digest", digests[0] + " (first input)");
  if (batches >= kSimcheckInputs) {
    uint64_t all = 0;
    for (const std::string& d : digests) all = fnv1a(d, all);
    out.note("digest_all_inputs", hex(all));
  }
  out.note("work_packets_checked", std::to_string(packets_checked));

  if (!tr) {
    if (windows.rate.empty()) {
      // Not one full cycle in the time given: the partial one stands in.
      windows.add(cycle_latency_ms.size() * n, cycle_wall_s, cycle_cpu_s,
                  cycle_latency_ms);
    }
    add_e2e(out, setups, windows);
    out.note("hop_pps", "n/a: the routers sit inside explore(); the traced "
                        "run counts netsim.hops");
    return out;
  }
  root.reset();
  TraceSummary t = summarize(tr->all());
  Layers layers;
  for (const char* span : {"simcheck.generate", "simcheck.run_scenario"}) {
    for (double d : t.durations[span]) traced_trial_ns += d;
  }
  for (double d : t.durations["trial"]) busy_ns += d;
  layers["campaign.worker_busy_ratio"] =
      busy_ns / (double(config.threads) * pass_b_s * 1e9);
  layers.median_of(t, "core.testbed_build_us", "core.testbed_build", 1e3);
  layers.median_of(t, "core.probe_factory_us", "core.probe_factory", 1e3);
  layers.median_of(t, "core.testbed_teardown_us", "core.testbed_teardown",
                   1e3);
  layers.median_of(t, "core.run_probe_us", "core.run_probe", 1e3);
  layers.median_of(t, "core.drain_us", "core.drain", 1e3);
  layers.median_of(t, "core.assess_risk_us", "core.assess_risk", 1e3);
  layers.median_of(t, "obs.provenance_json_us", "obs.provenance_json", 1e3);
  layers.median_of(t, "obs.metrics_snapshot_us", "obs.metrics_snapshot",
                   1e3);
  layers["obs.prov_bytes_per_trial"] = double(prov_bytes) / double(n);
  layers.median_of(t, "simcheck.generate_us", "simcheck.generate", 1e3);
  layers.median_of(t, "simcheck.run_scenario_ms", "simcheck.run_scenario",
                   1e6);
  layers["simcheck.packets_checked"] = double(packets_checked);
  first_counts.report(layers, out, n);
  double sim_ns = 0;
  for (const char* span : {"core.run_probe", "core.drain"}) {
    for (double d : t.durations[span]) sim_ns += d;
  }
  layers["netsim.ns_per_event"] = sim_ns / double(replay_events);
  out.note("work_prov_bytes", std::to_string(prov_bytes));
  finish_trace(out, layers, t, *tr, config, "simcheck",
               traced_trial_ns / (pass_a_cpu_s * 1e9));
  out.metrics = layers.metrics();
  return out;
}

// ---------------------------------------------------------------------
// population
// ---------------------------------------------------------------------

/// Simulated time per population "trial": the traffic phase runs as a
/// closed sequence of fixed slices, and a slice's wall time is its
/// latency.
constexpr common::Duration kSlice = common::Duration::millis(5);
constexpr size_t kProbers = 32;

/// One in kCaptureStride packets crossing the monitored border is kept
/// for the layer replays, up to kCaptureMax.
constexpr uint64_t kCaptureStride = 8;
constexpr size_t kCaptureMax = 16384;
/// Repetitions of each replay over the capture; the median is reported.
constexpr int kReplays = 9;

struct Captured {
  common::Bytes wire;
  common::SimTime now;
  int in_port = 0, out_port = 0;
};

class CaptureTap : public netsim::Tap {
 public:
  netsim::TapDecision process(const netsim::TapContext& ctx,
                              netsim::Router&) override {
    if (seen_++ % kCaptureStride == 0 && packets.size() < kCaptureMax) {
      auto wire = ctx.pkt.wire();
      packets.push_back(
          {common::Bytes(wire.begin(), wire.end()), ctx.now, ctx.in_port,
           ctx.out_port});
    }
    return netsim::TapDecision::Pass;
  }
  std::vector<Captured> packets;

 private:
  uint64_t seen_ = 0;
};

/// The network every population run uses: bench_population's topology,
/// from asgen's default seed. The run's seed draws the traffic.
netsim::AsGenConfig population_topology() {
  netsim::AsGenConfig config;
  config.as_count = 12;
  config.transit_count = 3;
  config.routers_per_as = 4;
  config.subnets_per_router = 4;
  config.hosts_per_subnet = 520;  // 99,840 hosts
  config.extra_peering = 2;
  return config;
}

struct PopulationRun {
  double traffic_wall_s = 0, traffic_cpu_s = 0;
  size_t slices = 0;
  /// The whole traffic phase is one throughput window.
  Windows window;
  std::vector<double> slice_ns_per_event;
  uint64_t events = 0, hops = 0, flows = 0, copies = 0;
  size_t recycled = 0, live = 0;
  surveillance::MvrTap::Stats mvr;
  std::string digest;
  std::vector<Captured> capture;
  double route_lookup_ns = 0;
};

/// One population simulation. Construction is the set-up (topology
/// build, MVR tap, traffic start, probes); destruction is the teardown.
class PopulationSim {
 public:
  PopulationSim(const RunConfig& config, Tracer* tr, bool capture)
      : tr_(tr), capture_(capture) {
    int64_t t0 = now_ns();
    net_ = std::make_unique<netsim::Network>();
    {
      ScopedSpan s(tr_, 0, "netsim.asgen_build");
      topo_.emplace(
          netsim::AsTopology::generate(*net_, population_topology()));
    }
    const netsim::AsInfo& country = topo_->ases().back();
    border_ = topo_->border(country.index);
    border_->add_tap(&mvr_.emplace());
    if (capture_) border_->add_tap(&capture_tap_);

    netsim::BgTrafficConfig traffic;
    traffic.seed = derive(config.seed, 6);
    traffic.flows_per_second = 25000;
    traffic.window = common::Duration::seconds(4);
    slices_ = size_t((traffic.window + common::Duration::seconds(2)).count() /
                     kSlice.count());
    ScopedSpan s(tr_, 0, "netsim.bgtraffic_start");
    bg_.emplace(*net_, *topo_, traffic);
    bg_->start();
    size_t stride = country.host_count / (2 * kProbers + 1);
    for (size_t i = 0; i < kProbers; ++i) {
      overt_.push_back(
          bg_->launch_probe(country.first_host + (2 * i) * stride, false));
      mimic_.push_back(
          bg_->launch_probe(country.first_host + (2 * i + 1) * stride, true));
    }
    setup_s = double(now_ns() - t0) / 1e9;
  }

  ~PopulationSim() {
    ScopedSpan s(tr_, 0, "netsim.teardown");
    bg_.reset();
    topo_.reset();
    net_.reset();
    mvr_.reset();
  }
  PopulationSim(const PopulationSim&) = delete;
  PopulationSim& operator=(const PopulationSim&) = delete;

  double setup_s = 0;

  /// Runs the traffic phase slice by slice, then checks attribution, the
  /// population anchors and the drain.
  PopulationRun run(Outcome& out);

 private:
  void check(PopulationRun& run, Outcome& out);

  Tracer* tr_;
  bool capture_;
  std::unique_ptr<netsim::Network> net_;
  std::optional<netsim::AsTopology> topo_;
  std::optional<surveillance::MvrTap> mvr_;
  CaptureTap capture_tap_;
  std::optional<netsim::BgTraffic> bg_;
  netsim::Router* border_ = nullptr;
  std::vector<common::Ipv4Address> overt_, mimic_;
  size_t slices_ = 0;
};

PopulationRun PopulationSim::run(Outcome& out) {
  PopulationRun run;
  packet::reset_copy_counters();
  int64_t w0 = now_ns();
  double c0 = process_cpu_seconds();
  std::vector<double> latencies;
  for (size_t slice = 0; slice < slices_; ++slice) {
    ScopedSpan s(tr_, 0, "netsim.run_for", int64_t(slice));
    uint64_t e0 = net_->engine().executed();
    int64_t s0 = now_ns();
    net_->run_for(kSlice);
    double ns = double(now_ns() - s0);
    latencies.push_back(ns / 1e6);
    uint64_t events = net_->engine().executed() - e0;
    if (events) run.slice_ns_per_event.push_back(ns / double(events));
  }
  run.traffic_cpu_s = process_cpu_seconds() - c0;
  run.traffic_wall_s = double(now_ns() - w0) / 1e9;
  run.slices = slices_;
  run.window.add(slices_, run.traffic_wall_s, run.traffic_cpu_s, latencies);
  {
    ScopedSpan s(tr_, 0, "bench.verify");
    check(run, out);
  }
  if (capture_) {
    run.capture = std::move(capture_tap_.packets);
    std::vector<common::IpAddress> dsts;
    for (const Captured& c : run.capture) {
      auto dst = packet::route_peek(std::span<const uint8_t>(c.wire));
      if (dst) dsts.push_back(*dst);
    }
    std::vector<double> per_lookup;
    volatile int sink = 0;
    for (int rep = 0; rep < kReplays; ++rep) {
      ScopedSpan s(tr_, 0, "netsim.route_lookup", rep);
      int64_t r0 = now_ns();
      for (const common::IpAddress& dst : dsts) {
        sink = sink + border_->route_lookup(dst);
      }
      per_lookup.push_back(double(now_ns() - r0) / double(dsts.size()));
    }
    run.route_lookup_ns = median(per_lookup);
  }
  return run;
}

void PopulationSim::check(PopulationRun& run, Outcome& out) {
  const netsim::AsInfo& country = topo_->ases().back();
  const surveillance::MvrTap& mvr = *mvr_;
  const auto& cc = packet::copy_counters();
  run.copies = cc.hop + cc.impairment + cc.pcap + cc.defrag + cc.stream;
  run.events = net_->engine().executed();
  for (const netsim::AsInfo& as : topo_->ases()) {
    for (const netsim::Router* r : as.routers) {
      run.hops += r->counters().forwarded;
    }
  }
  run.flows = bg_->stats().flows_started;
  run.recycled = bg_->flow_slots_recycled();
  run.live = bg_->live_flows();
  run.mvr = mvr.stats();

  size_t overt_hits = 0, mimic_hits = 0, overt_censored = 0,
         mimic_censored = 0;
  for (common::Ipv4Address a : overt_) {
    if (mvr.targeted_alerts_for(a) > 0) ++overt_hits;
    if (mvr.censored_access_alerts_for(a) > 0) ++overt_censored;
  }
  for (common::Ipv4Address a : mimic_) {
    if (mvr.targeted_alerts_for(a) > 0) ++mimic_hits;
    if (mvr.censored_access_alerts_for(a) > 0) ++mimic_censored;
  }
  const auto& m = run.mvr;
  const auto& s = bg_->stats();
  double discard = m.bytes_seen ? double(m.bytes_discarded) / m.bytes_seen : 0;
  uint64_t kept = m.bytes_seen - m.bytes_discarded;
  double retained = kept ? double(m.bytes_content_retained) / kept : 0;
  double censored_flows =
      s.flows_web ? double(s.flows_censored) / s.flows_web : 0;
  size_t censored_hosts = 0;
  for (size_t h = country.first_host;
       h < country.first_host + country.host_count; ++h) {
    if (mvr.censored_access_alerts_for(topo_->hosts()[h]->address()) > 0) {
      ++censored_hosts;
    }
  }
  censored_hosts -= overt_censored + mimic_censored;
  double observed_censored = double(censored_hosts) / country.host_count;

  out.attempted += run.flows;
  auto require = [&](bool ok, const std::string& what, uint64_t weight) {
    if (ok) return;
    out.violation(what);
    out.failed += weight;
  };
  require(topo_->population() == 99840, "population is not 99,840 hosts", 1);
  require(overt_hits == kProbers,
          "overt probes attributed " + std::to_string(overt_hits) + "/32",
          kProbers - overt_hits);
  require(mimic_hits == 0,
          "mimicry probes attributed " + std::to_string(mimic_hits) + "/32",
          mimic_hits);
  require(mimic_censored == kProbers,
          "mimicry censored-access alerts on " +
              std::to_string(mimic_censored) + "/32",
          kProbers - mimic_censored);
  require(censored_flows > 0.008 && censored_flows < 0.025,
          "censored flow fraction " + std::to_string(censored_flows) +
              " outside (0.008, 0.025)",
          1);
  require(observed_censored > 0.0 && observed_censored < 0.10,
          "observed censored-host fraction " +
              std::to_string(observed_censored) + " outside (0, 0.10)",
          1);
  require(discard > 0.10 && discard < 0.60,
          "MVR discard share " + std::to_string(discard) +
              " outside (0.10, 0.60)",
          1);
  require(retained > 0.02 && retained < 0.20,
          "content retention " + std::to_string(retained) +
              " outside (0.02, 0.20)",
          1);
  require(run.live == 0,
          std::to_string(run.live) + " background flows did not drain",
          run.live);

  char digest[256];
  std::snprintf(digest, sizeof(digest),
                "%llu/%llu/%llu/%llu/%llu/%llu/%zu/%zu/%zu/%zu/%zu",
                (unsigned long long)run.flows,
                (unsigned long long)s.packets_emitted,
                (unsigned long long)run.hops, (unsigned long long)run.events,
                (unsigned long long)m.bytes_seen,
                (unsigned long long)m.bytes_discarded, overt_hits,
                mimic_hits, overt_censored, mimic_censored, censored_hosts);
  run.digest = digest;
}

/// Runs `body(rep)` for each of kReplays repetitions over `items` inputs
/// and returns the median per-item time in ns. State the body needs
/// fresh per repetition is built before the call, outside the timing.
template <typename Body>
double replay_ns(Tracer* tr, const char* span, size_t items, Body body) {
  std::vector<double> per_item;
  for (int rep = 0; rep < kReplays; ++rep) {
    ScopedSpan s(tr, 0, span, rep);
    int64_t t0 = now_ns();
    body(rep);
    per_item.push_back(double(now_ns() - t0) / double(items));
  }
  return median(per_item);
}

/// Set-up repetitions made before the measured runs, so set-up time has
/// a median even when only a few runs fit in the time given.
constexpr int kExtraSetups = 4;

Outcome population_run_all(const RunConfig& config) {
  Outcome out;
  std::unique_ptr<Tracer> tracer =
      config.trace ? std::make_unique<Tracer>(1) : nullptr;
  Tracer* tr = tracer.get();

  if (!tr) {
    std::vector<double> setups;
    for (int i = 0; i < kExtraSetups; ++i) {
      setups.push_back(PopulationSim(config, nullptr, false).setup_s);
    }
    // Whole runs, each on a fresh network, until the requested time is
    // spent.
    Windows windows;
    double measured_s = 0, cpu_s = 0;
    uint64_t hops = 0;
    size_t runs = 0;
    std::string digest;
    while (measured_s < config.seconds || runs == 0) {
      PopulationSim sim(config, nullptr, false);
      PopulationRun run = sim.run(out);
      setups.push_back(sim.setup_s);
      windows.append(run.window);
      cpu_s += run.traffic_cpu_s;
      measured_s += run.traffic_wall_s + sim.setup_s;
      hops += run.hops;
      if (runs == 0) {
        digest = run.digest;
        out.note("work_events", std::to_string(run.events));
        out.note("work_hops", std::to_string(run.hops));
        out.note("work_mvr_packets", std::to_string(run.mvr.packets_seen));
      } else if (run.digest != digest) {
        out.violation("run " + std::to_string(runs) + " digest " +
                      run.digest + " != first run " + digest);
        out.failed += run.flows;
      }
      ++runs;
    }
    out.note("runs", std::to_string(runs) + " x " +
                         std::to_string(windows.latencies / runs) +
                         " slices of " +
                         std::to_string(kSlice.count() / 1000000) + " ms");
    out.note("digest", digest);
    add_e2e(out, setups, windows);
    out.printed_only.push_back({"hop_pps", double(hops) / cpu_s, "1/s"});
    return out;
  }

  // Traced: one untraced reference run (for the overhead ratio), one
  // traced run with a border capture, further traced runs while time
  // remains, then the layer replays over the capture.
  std::optional<ScopedSpan> root;
  root.emplace(tr, 0, "run");
  PopulationRun reference;
  {
    ScopedSpan s(tr, 0, "bench.reference_run");
    PopulationSim sim(config, nullptr, false);
    reference = sim.run(out);
  }
  const int64_t traced_start = now_ns();
  PopulationRun run = PopulationSim(config, tr, true).run(out);
  std::vector<double> ns_per_event = run.slice_ns_per_event;
  size_t traced_runs = 1;
  while (double(now_ns() - traced_start) / 1e9 < config.seconds / 2) {
    PopulationRun again = PopulationSim(config, tr, false).run(out);
    ns_per_event.insert(ns_per_event.end(), again.slice_ns_per_event.begin(),
                        again.slice_ns_per_event.end());
    if (again.digest != run.digest) {
      out.violation("traced run " + std::to_string(traced_runs) +
                    " digest " + again.digest + " != first traced run " +
                    run.digest);
    }
    ++traced_runs;
  }
  if (run.digest != reference.digest) {
    out.violation("traced run digest " + run.digest + " != untraced run " +
                  reference.digest);
  }
  out.note("traced_runs", std::to_string(traced_runs));

  Layers layers;
  const std::vector<Captured>& cap = run.capture;
  std::vector<packet::Decoded> decoded;
  std::vector<const Captured*> decoded_from;
  {
    ScopedSpan s(tr, 0, "bench.decode_capture");
    for (const Captured& c : cap) {
      auto d = packet::decode(std::span<const uint8_t>(c.wire));
      if (d) {
        decoded.push_back(*d);
        decoded_from.push_back(&c);
      }
    }
  }
  volatile uint64_t sink = 0;
  layers["packet.decode_ns"] =
      replay_ns(tr, "packet.decode", cap.size(), [&](int) {
        for (const Captured& c : cap) {
          sink = sink + (packet::decode(std::span<const uint8_t>(c.wire))
                             ? 1 : 0);
        }
      });
  layers["packet.route_peek_ns"] =
      replay_ns(tr, "packet.route_peek", cap.size(), [&](int) {
        for (const Captured& c : cap) {
          sink = sink + (packet::route_peek(std::span<const uint8_t>(c.wire))
                             ? 1 : 0);
        }
      });
  layers["netsim.route_lookup_ns"] = run.route_lookup_ns;

  // IDS and MVR replays: a fresh engine or tap per repetition, built
  // before its timed pass, so flow state starts empty each time.
  surveillance::MvrConfig mvr_config;
  censor::CensorPolicy policy = censor::gfc_profile();
  auto replay_ids = [&](const char* span,
                        std::vector<std::unique_ptr<ids::Engine>>& engines) {
    return replay_ns(tr, span, decoded.size(), [&](int rep) {
      for (size_t i = 0; i < decoded.size(); ++i) {
        engines[rep]->process(decoded_from[i]->now, decoded[i]);
      }
    });
  };
  std::vector<std::unique_ptr<ids::Engine>> mvr_engines, censor_engines;
  std::vector<std::unique_ptr<surveillance::MvrTap>> taps;
  {
    ScopedSpan s(tr, 0, "bench.build_replay_state");
    for (int rep = 0; rep < kReplays; ++rep) {
      mvr_engines.push_back(std::make_unique<ids::Engine>(
          surveillance::community_ruleset(mvr_config.ruleset),
          mvr_config.ids_options));
      censor_engines.push_back(std::make_unique<ids::Engine>(
          policy.compile_rules(), policy.ids_options));
      taps.push_back(std::make_unique<surveillance::MvrTap>(mvr_config));
    }
  }
  layers["ids.mvr_ns_per_pkt"] = replay_ids("ids.process_mvr", mvr_engines);
  layers["ids.censor_ns_per_pkt"] =
      replay_ids("ids.process_censor", censor_engines);
  const ids::Engine::Stats ids_stats = mvr_engines.front()->stats();
  layers["ids.packets"] = double(ids_stats.packets);
  layers["ids.prefilter_skip_ratio"] =
      ids_stats.fastpath_candidates
          ? double(ids_stats.prefilter_skips) /
                double(ids_stats.fastpath_candidates)
          : 0;
  {
    netsim::Engine scratch_engine;
    netsim::Router scratch(scratch_engine, "replay");
    layers["surveillance.mvr_tap_ns_per_pkt"] =
        replay_ns(tr, "surveillance.mvr_tap", decoded.size(), [&](int rep) {
          for (size_t i = 0; i < decoded.size(); ++i) {
            const Captured& c = *decoded_from[i];
            netsim::TapContext ctx{
                c.now,
                packet::PacketView(std::span<const uint8_t>(c.wire),
                                   decoded[i]),
                c.in_port, c.out_port, 0};
            taps[rep]->process(ctx, scratch);
          }
        });
  }
  {
    ScopedSpan s(tr, 0, "bench.free_replay_state");
    mvr_engines.clear();
    censor_engines.clear();
    taps.clear();
  }

  root.reset();
  TraceSummary t = summarize(tr->all());
  layers.median_of(t, "netsim.asgen_build_s", "netsim.asgen_build", 1e9);
  layers["netsim.events"] = double(run.events);
  layers["netsim.hops"] = double(run.hops);
  layers["netsim.events_per_trial"] =
      double(run.events) / double(run.slices);
  layers["netsim.bgtraffic_flows"] = double(run.flows);
  layers["netsim.flow_slots_recycled"] = double(run.recycled);
  layers["netsim.ns_per_event"] = median(ns_per_event);
  layers["packet.copies_per_hop"] =
      run.hops ? double(run.copies) / double(run.hops) : 0;
  layers["surveillance.packets_seen"] = double(run.mvr.packets_seen);
  layers["surveillance.discard_share"] =
      run.mvr.bytes_seen
          ? double(run.mvr.bytes_discarded) / double(run.mvr.bytes_seen)
          : 0;
  out.note("digest", run.digest);
  out.note("work_events", std::to_string(run.events));
  out.note("work_hops", std::to_string(run.hops));
  out.note("work_ids_packets", std::to_string(ids_stats.packets));
  out.note("work_capture_packets", std::to_string(cap.size()));
  char buf[96];
  std::snprintf(buf, sizeof(buf), "untraced %.0f, traced %.0f",
                double(reference.hops) / reference.traffic_cpu_s,
                double(run.hops) / run.traffic_cpu_s);
  out.note("hop_pps", buf);
  finish_trace(out, layers, t, *tr, config, "population",
               run.traffic_cpu_s / reference.traffic_cpu_s);
  out.metrics = layers.metrics();
  return out;
}

}  // namespace

Outcome run_e2_campaign(const RunConfig& config) { return e2_run(config); }
Outcome run_simcheck(const RunConfig& config) { return simcheck_run(config); }
Outcome run_population(const RunConfig& config) {
  return population_run_all(config);
}

}  // namespace perfbench
