// Signature IDS engine: evaluates a compiled ruleset against packets,
// maintaining flow state, stream reassembly, and alert thresholds.
//
// Both reference systems in the evaluation are instances of this engine:
// the censor (inline, with drop/reject rules) and the surveillance MVR
// (passive, alert rules only). That mirrors the paper's §3.2.1 setup of
// two Snort instances on the same switch.
//
// Matching has two modes. The legacy linear mode scans every compiled
// rule per packet. The default fast path mirrors real Snort's design:
// a rule-group index (protocol x src/dst-port buckets) narrows the
// ruleset to the candidates for the packet's 5-tuple, and an
// Aho-Corasick fast-pattern prefilter (ids/fastpattern.hpp) scans the
// payload once and eliminates content rules whose longest pattern is
// absent before any per-rule Boyer-Moore work runs. Both modes produce
// byte-identical verdicts (tests/test_ids_fastpath.cpp asserts this).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/flathash.hpp"
#include "common/time.hpp"
#include "ids/fastpattern.hpp"
#include "obs/metrics.hpp"
#include "ids/flow.hpp"
#include "ids/matcher.hpp"
#include "ids/parser.hpp"
#include "ids/rule.hpp"
#include "packet/packet.hpp"

namespace sm::ids {

struct Alert {
  SimTime time{};
  uint32_t sid = 0;
  std::string msg;
  std::string classtype;
  RuleAction action = RuleAction::Alert;
  int priority = 3;
  IpAddress src;
  IpAddress dst;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;

  std::string to_string() const;
};

/// Outcome of running one packet through the engine.
struct Verdict {
  bool drop = false;    // a drop/reject rule matched: discard the packet
  bool reject = false;  // specifically a reject rule: also tear down
  std::vector<Alert> alerts;
};

/// Match-path selection. Auto (the default) picks per ruleset size: the
/// group index + prefilter only pay off once the ruleset is large enough
/// that a linear scan walks meaningfully more rules than the index
/// returns — below `auto_linear_max_rules` the bookkeeping overhead made
/// the fastpath a net loss (BENCH_ids_fastpath.json showed 0.92x at 10
/// rules), so small rulesets run the linear scan. Both paths produce
/// byte-identical verdicts, so the cutover never changes behavior.
enum class MatchMode : uint8_t { Auto, Linear, Fastpath };

/// Construction-time knobs.
struct EngineOptions {
  /// The Aho-Corasick scan costs one pass over the payload, while direct
  /// BMH evaluation of a handful of candidates skips sublinearly — so the
  /// prefilter only engages when at least this many content-rule
  /// candidates survive the port-group index. 0 forces it always on.
  size_t prefilter_min_candidates = 8;
  /// Match-path policy: Fastpath selects the rule-group index +
  /// fast-pattern prefilter, Linear the plain scan (same verdicts, used
  /// by equivalence tests and as a debugging aid), Auto picks by size.
  MatchMode mode = MatchMode::Auto;
  /// Auto cutover: rulesets of at most this many rules run linear.
  /// Calibrated by bench_ids_fastpath (crossover sits between the 10-
  /// and 100-rule scales on the reference workload).
  size_t auto_linear_max_rules = 24;
};

class Engine {
 public:
  explicit Engine(std::vector<Rule> rules, EngineOptions options = {});

  /// Convenience: parse-and-build; throws std::invalid_argument on parse
  /// errors (rulesets are programmer input here).
  static Engine from_text(std::string_view rules_text,
                          const VarTable& vars = {},
                          EngineOptions options = {});

  /// Runs one packet. Flow state advances even when no rule matches.
  Verdict process(SimTime now, const packet::Decoded& d);

  const FlowTable& flows() const { return flows_; }
  FlowTable& flows() { return flows_; }
  size_t rule_count() const { return rules_.size(); }
  const EngineOptions& options() const { return options_; }
  /// The match path this engine actually runs (Auto resolved against the
  /// ruleset size at construction).
  bool fastpath_active() const { return fastpath_active_; }

  struct Stats {
    uint64_t packets = 0;
    uint64_t alerts = 0;
    uint64_t drops = 0;
    // Fast-path instrumentation (all zero on the linear path).
    uint64_t fastpath_candidates = 0;  // rules surviving the group index
    uint64_t prefilter_hits = 0;       // content rules whose fast pattern hit
    uint64_t prefilter_skips = 0;      // content rules skipped, no full match
    uint64_t payload_scans = 0;        // Aho-Corasick passes over payloads
    uint64_t stream_scans = 0;         // lazy passes over reassembled streams
  };
  const Stats& stats() const { return stats_; }

  /// Pull-model metrics bridge: copies the cumulative Stats fields into
  /// `registry` as sm_ids_* counters labeled {instance=`instance`}
  /// (e.g. "censor" / "mvr"). Snapshot-time only — the per-packet match
  /// path carries no registry hooks, so observability costs it nothing.
  void export_metrics(obs::Registry& registry,
                      std::string_view instance) const;

 private:
  struct CompiledRule {
    Rule rule;
    std::vector<PatternMatcher> matchers;  // parallel to rule.contents
    uint32_t fast_pattern = FastPatternIndex::kNoPattern;
  };

  /// Port-bucketed index for one protocol's rules. Single-port specs hash
  /// into buckets; any/range/negated specs land in `fallback`. A
  /// bidirectional rule with a single port is indexed under both
  /// directions so candidates cover the swapped header match.
  struct PortGroup {
    std::unordered_map<uint16_t, std::vector<uint32_t>> by_src;
    std::unordered_map<uint16_t, std::vector<uint32_t>> by_dst;
    std::vector<uint32_t> fallback;
  };

  void build_fastpath();
  void collect_candidates(const packet::Decoded& d);
  /// Evaluates rule `idx` against the packet; returns false when rule
  /// processing for this packet must stop (pass matched or inline drop).
  bool eval_rule(uint32_t idx, SimTime now, const packet::Decoded& d,
                 const FlowContext& fc, Verdict& verdict);

  bool header_matches(const CompiledRule& cr, const packet::Decoded& d) const;
  bool options_match(const CompiledRule& cr, const packet::Decoded& d,
                     const FlowContext& fc, bool& used_stream);
  bool threshold_allows(const CompiledRule& cr, SimTime now,
                        const packet::Decoded& d);

  std::vector<CompiledRule> rules_;
  EngineOptions options_;
  bool fastpath_active_ = false;
  /// Whether any rule carries content matches; when none do, stream
  /// reassembly buffers have no reader and flow updates skip the payload
  /// copy entirely (verdicts are provably unchanged).
  bool has_content_rules_ = false;
  PortGroup groups_[4];  // indexed by RuleProto
  FastPatternIndex prefilter_;
  std::vector<uint32_t> candidates_;  // per-packet scratch (sorted, unique)
  FlowTable flows_;
  Stats stats_;

  struct ThresholdKey {
    uint32_t sid = 0;
    IpAddress tracked;
    auto operator<=>(const ThresholdKey&) const = default;
  };
  struct ThresholdKeyHash {
    uint64_t operator()(const ThresholdKey& k) const {
      return common::hash_combine(common::hash_mix(ip_hash(k.tracked)),
                                  k.sid);
    }
  };
  struct ThresholdState {
    SimTime window_start{};
    uint32_t count = 0;
    bool fired_in_window = false;
  };
  // Hash-indexed; order is never observable (lookups only).
  common::FlatMap<ThresholdKey, ThresholdState, ThresholdKeyHash>
      thresholds_;
};

}  // namespace sm::ids
