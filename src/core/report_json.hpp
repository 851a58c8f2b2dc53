// JSON serialization for measurement results — the interchange shape
// measurement platforms actually publish (OONI reports are JSON lines).
// Hand-rolled emitter: flat objects, strings escaped by
// common::json_escape, no external dependency.
#pragma once

#include <string>
#include <vector>

#include "core/risk.hpp"
#include "core/verdict.hpp"
#include "obs/metrics.hpp"

namespace sm::core {

/// One measurement as a JSON object.
std::string to_json(const ProbeReport& report);

/// One risk assessment as a JSON object.
std::string to_json(const RiskReport& risk);

/// A campaign as JSON Lines: one `{"measurement":..., "risk":...}` object
/// per line (the OONI-style report file shape).
std::string to_jsonl(const std::vector<std::pair<ProbeReport, RiskReport>>&
                         results);

/// The registry snapshot as a `{"metrics":[...]}` block (one JSON line)
/// for appending to campaign output. Empty registry -> "{\"metrics\":[]}".
std::string metrics_json_block(const obs::Registry& registry);

/// Campaign JSONL with the observability snapshot appended as a final
/// `{"metrics":...}` line, so one report file carries both the verdicts
/// and the full adversary's-eye-view counters for the run.
std::string to_jsonl(
    const std::vector<std::pair<ProbeReport, RiskReport>>& results,
    const obs::Registry& registry);

}  // namespace sm::core
