// E7 — Fig. 3a/3b cover traffic: attribution confusion vs. cover volume.
//
// §4.1's promise: "making it more difficult for a surveillance system to
// implicate any individual host". We quantify it: run the stateful
// mimicry campaign with k spoofed cover flows (k swept 0..20), then ask
// the analyst who did it.
// Reported per k: P(attribute to the real client), attribution entropy
// over the AS, and whether the measurement stayed accurate. Expected
// shape: P(client) decays toward 1/(k+1) and entropy grows ~log2(k+1).
#include <cmath>
#include <cstdio>

#include "analysis/report.hpp"
#include "common/stats.hpp"
#include "core/mimicry.hpp"
#include "core/probe.hpp"
#include "core/risk.hpp"

using namespace sm;

int main() {
  std::printf("E7 — attribution confusion from spoofed cover traffic "
              "(Fig. 3 techniques)\n\n");

  analysis::Table table({"cover flows k", "verdict", "evaded",
                         "P(attribute client)", "1/(k+1) reference",
                         "alert entropy (bits)"});
  bool monotone = true;
  double prev_p = 2.0;
  for (size_t k : {0, 1, 2, 5, 10, 20}) {
    core::TestbedConfig config;
    config.neighbor_count = 20;
    core::Testbed tb(config);

    core::StatefulMimicryProbe probe(
        tb, {.path = "/search?q=falun", .cover_flows = k});
    core::ProbeReport report = core::run_probe(tb, probe);
    tb.run_for(common::Duration::seconds(2));
    core::RiskReport risk = core::assess_risk(tb, "mimicry-stateful");

    // Attribution by traffic share: among AS hosts the tap saw talking
    // to the measurement server, what share is the real client? The
    // analyst cannot do better from a signature-free flow log.
    auto population = tb.client_as_addresses();
    std::vector<size_t> weights;
    size_t client_weight = 0;
    for (auto addr : population) {
      size_t w = 0;
      for (const auto& rec : tb.trace->records()) {
        auto d = packet::decode(rec.data);
        if (d && d->ip.src == addr &&
            d->ip.dst == tb.addr().measurement)
          ++w;
      }
      weights.push_back(w);
      if (addr == tb.addr().client) client_weight = w;
    }
    size_t total_weight = 0;
    for (auto w : weights) total_weight += w;
    double p_client =
        total_weight ? double(client_weight) / double(total_weight) : 0.0;
    double entropy = common::entropy_bits(weights);

    if (p_client > prev_p + 0.02) monotone = false;
    prev_p = p_client;

    table.add_row({analysis::Table::num(uint64_t(k)),
                   std::string(core::to_string(report.verdict)),
                   risk.evaded ? "yes" : "NO",
                   analysis::Table::num(p_client),
                   analysis::Table::num(1.0 / double(k + 1)),
                   analysis::Table::num(entropy)});
  }
  std::printf("%s\n", table.to_markdown().c_str());
  std::printf("reading: with k cover flows the client's traffic share "
              "falls toward 1/(k+1),\nso the analyst's best guess is "
              "wrong k/(k+1) of the time.\n");
  std::printf("\npaper-shape check (P(client) non-increasing in k): %s\n",
              monotone ? "PASS" : "FAIL");
  return monotone ? 0 : 1;
}
