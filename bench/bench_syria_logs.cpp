// E5 — §2.2's Syria statistic: "An analysis of two days of leaked
// censorship log files from Syria shows that 1.57% of the population
// accessed at least one censored site, far too many people for the
// surveillance system to pursue" (Chaabane et al. [9]).
//
// We measure the statistic instead of hard-coding it: netsim::BgTraffic
// runs its web/p2p/DNS/mail mix over a seeded asgen topology, the last
// stub AS plays the country with an MVR tap on its border, and we count
// the country's hosts that the MVR logged with at least one
// censored-access alert. The calibrated row lands near 1.57%, and the
// sweep shows how the share scales with how popular censored content is
// (BgTrafficConfig::censored_fraction) and how active users are (flows
// per host) — the knob that makes "alert on every censored query"
// infeasible.
#include <cstdio>
#include <vector>

#include "analysis/report.hpp"
#include "netsim/asgen.hpp"
#include "netsim/bgtraffic.hpp"
#include "netsim/router.hpp"
#include "surveillance/mvr.hpp"

using namespace sm;
using analysis::Table;
using common::Duration;

namespace {

struct Row {
  double censored_fraction;
  double flows_per_host;
  size_t hosts_per_subnet;
  const char* note;
};

struct Result {
  size_t hosts = 0;
  size_t country_hosts = 0;
  uint64_t flows = 0;
  uint64_t censored_flows = 0;
  size_t logged_hosts = 0;
};

Result run(const Row& row) {
  netsim::Network net;
  netsim::AsGenConfig topo_config;
  topo_config.as_count = 6;
  topo_config.transit_count = 2;
  topo_config.routers_per_as = 3;
  topo_config.subnets_per_router = 2;
  topo_config.hosts_per_subnet = row.hosts_per_subnet;
  netsim::AsTopology topo = netsim::AsTopology::generate(net, topo_config);
  const netsim::AsInfo& country = topo.ases().back();
  surveillance::MvrTap mvr;
  topo.border(country.index)->add_tap(&mvr);

  netsim::BgTrafficConfig traffic;
  traffic.censored_fraction = row.censored_fraction;
  traffic.window = Duration::seconds(2);
  traffic.flows_per_second = row.flows_per_host *
                             double(topo.population()) /
                             traffic.window.to_seconds();
  netsim::BgTraffic bg(net, topo, traffic);
  bg.start();
  net.run_for(traffic.window + Duration::seconds(1));

  Result out;
  out.hosts = topo.population();
  out.country_hosts = country.host_count;
  out.flows = bg.stats().flows_started;
  out.censored_flows = bg.stats().flows_censored;
  for (size_t h = country.first_host;
       h < country.first_host + country.host_count; ++h) {
    if (mvr.censored_access_alerts_for(topo.hosts()[h]->address()) > 0)
      ++out.logged_hosts;
  }
  return out;
}

}  // namespace

int main() {
  std::printf("E5 — share of a country's hosts the border MVR logs touching "
              "censored content (paper anchor: 1.57%%)\n\n");

  Table table({"hosts", "country hosts", "censored web share",
               "flows/host", "flows", "censored flows", "logged hosts",
               "fraction", "note"});
  // The second row is the calibrated reproduction of the paper's number.
  std::vector<Row> rows = {
      {0.0157, 1, 260, "paper's censored share, light users"},
      {0.0157, 2, 260, "calibrated ~= paper's 1.57%"},
      {0.005, 2, 260, "unpopular censored content"},
      {0.05, 2, 260, "popular censored content"},
      {0.0157, 4, 260, "heavier users touch more"},
      {0.0157, 2, 130, "smaller population, same model"},
  };
  double calibrated = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    Result res = run(r);
    double fraction = double(res.logged_hosts) / double(res.country_hosts);
    if (i == 1) calibrated = fraction;
    table.add_row({Table::num(uint64_t(res.hosts)),
                   Table::num(uint64_t(res.country_hosts)),
                   Table::pct(r.censored_fraction),
                   Table::num(r.flows_per_host), Table::num(res.flows),
                   Table::num(res.censored_flows),
                   Table::num(uint64_t(res.logged_hosts)),
                   Table::pct(fraction), r.note});
  }
  std::printf("%s\n", table.to_markdown().c_str());

  std::printf("calibrated fraction: %.2f%% (paper: 1.57%%)\n",
              calibrated * 100.0);
  std::printf("reading: even at ~1.5%%, that is %d people per 10k users — "
              "no analyst pursues them all,\nwhich is why censored-access "
              "alerts carry near-zero analyst weight in the MVR model.\n",
              int(calibrated * 10000));
  bool shape = calibrated > 0.005 && calibrated < 0.05;
  std::printf("\npaper-shape check (calibrated row within [0.5%%, 5%%] "
              "bracketing 1.57%%): %s\n", shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}
