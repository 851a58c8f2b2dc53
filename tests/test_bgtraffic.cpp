// Flyweight background-traffic generator: determinism, wire validity of
// the RFC 1624 template patching, MVR classifier integration, and
// flow-slot recycling through the Pool.
#include "netsim/bgtraffic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "netsim/asgen.hpp"
#include "netsim/router.hpp"
#include "netsim/topology.hpp"
#include "packet/packet.hpp"
#include "surveillance/mvr.hpp"

namespace sm::netsim {
namespace {

using common::Duration;
using common::Ipv4Address;

AsGenConfig small_topo_config() {
  AsGenConfig config;
  config.as_count = 3;
  config.transit_count = 1;
  config.routers_per_as = 2;
  config.subnets_per_router = 2;
  config.hosts_per_subnet = 8;
  return config;
}

BgTrafficConfig small_traffic_config() {
  BgTrafficConfig config;
  config.flows_per_second = 400;
  config.window = Duration::seconds(2);
  config.censored_fraction = 0.05;
  return config;
}

/// Tap that verifies IP + L4 checksums of every forwarded packet —
/// catches any slip in the incremental template patching.
struct ChecksumAuditTap : netsim::Tap {
  uint64_t seen = 0;
  uint64_t bad = 0;
  TapDecision process(const TapContext& ctx, Router&) override {
    ++seen;
    if (!packet::verify_checksums(ctx.pkt.wire())) ++bad;
    return TapDecision::Pass;
  }
};

struct Sim {
  Network net;
  AsTopology topo;
  BgTraffic bg;
  Sim()
      : topo(AsTopology::generate(net, small_topo_config())),
        bg(net, topo, small_traffic_config()) {}
};

TEST(BgTraffic, SameSeedIsDeterministic) {
  auto run = [] {
    Sim sim;
    sim.bg.start();
    sim.net.run_for(Duration::seconds(3));
    const auto& s = sim.bg.stats();
    return std::to_string(s.flows_started) + "," +
           std::to_string(s.flows_finished) + "," +
           std::to_string(s.packets_emitted) + "," +
           std::to_string(s.bytes_emitted) + "," +
           std::to_string(s.flows_web) + "," + std::to_string(s.flows_p2p) +
           "," + std::to_string(s.flows_dns) + "," +
           std::to_string(s.flows_mail) + "," +
           std::to_string(s.flows_censored);
  };
  std::string a = run();
  std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find_first_not_of("0,"), std::string::npos) << a;
}

TEST(BgTraffic, EmitsAllKindsWithValidChecksums) {
  Sim sim;
  ChecksumAuditTap audit;
  for (const AsInfo& as : sim.topo.ases()) {
    as.routers.front()->add_tap(&audit);
  }
  sim.bg.start();
  sim.net.run_for(Duration::seconds(3));

  const auto& s = sim.bg.stats();
  EXPECT_GT(s.flows_started, 400u);
  EXPECT_EQ(s.flows_started, s.flows_finished);
  EXPECT_GT(s.flows_web, 0u);
  EXPECT_GT(s.flows_p2p, 0u);
  EXPECT_GT(s.flows_dns, 0u);
  EXPECT_GT(s.flows_mail, 0u);
  EXPECT_GT(s.flows_censored, 0u);
  EXPECT_GT(audit.seen, 0u);
  EXPECT_EQ(audit.bad, 0u) << audit.bad << " of " << audit.seen
                           << " packets had bad checksums";
  EXPECT_EQ(sim.bg.live_flows(), 0u);
  EXPECT_GT(sim.bg.flow_slots_recycled(), 0u);
}

TEST(BgTraffic, MvrClassifiesTheMix) {
  Sim sim;
  surveillance::MvrTap mvr;
  for (const AsInfo& as : sim.topo.ases()) {
    as.routers.front()->add_tap(&mvr);
  }
  sim.bg.start();
  sim.net.run_for(Duration::seconds(3));

  const auto& stats = mvr.stats();
  EXPECT_GT(stats.packets_seen, 0u);
  // p2p is a discard class: background DHT chatter must be shed.
  EXPECT_GT(stats.bytes_discarded, 0u);
  // Censored-web flows trip policy-violation alerts across the population.
  EXPECT_GT(stats.interesting_alerts, 0u);
  // Bulk-mail signatures land in the noise ledger.
  EXPECT_GT(stats.noise_alerts, 0u);
}

TEST(BgTraffic, OvertProbeIsAttributedMimicryIsNot) {
  Sim sim;
  surveillance::MvrTap mvr;
  for (const AsInfo& as : sim.topo.ases()) {
    as.routers.front()->add_tap(&mvr);
  }
  sim.bg.start();
  Ipv4Address overt = sim.bg.launch_probe(0, /*mimicry=*/false);
  Ipv4Address mimic = sim.bg.launch_probe(1, /*mimicry=*/true);
  sim.net.run_for(Duration::seconds(3));

  // The overt probe carries a measurement-platform fingerprint: the MVR
  // singles it out. The mimicry probe is byte-identical to ordinary
  // censored browsing: it earns the same policy-violation alert as the
  // 1.57% background population — and nothing more.
  EXPECT_GT(mvr.targeted_alerts_for(overt), 0u);
  EXPECT_EQ(mvr.targeted_alerts_for(mimic), 0u);
  EXPECT_GT(mvr.censored_access_alerts_for(mimic), 0u);
}

TEST(BgTraffic, ProbeTrafficIsDeterministicToo) {
  auto run = [] {
    Sim sim;
    sim.bg.start();
    sim.bg.launch_probe(2, false);
    sim.bg.launch_probe(3, true);
    sim.net.run_for(Duration::seconds(3));
    return sim.bg.stats().packets_emitted;
  };
  EXPECT_EQ(run(), run());
}

TEST(BgTraffic, CensoredHostFractionBracketsTheModel) {
  // E5's measure on a small topology: the share of a country's hosts the
  // border MVR logs with a censored-access alert. A host originates
  // Poisson(flows/host * web share * censored_fraction) censored flows,
  // so at most 1 - e^-lambda of hosts can be logged; nearly every flow
  // crosses the border, so the share lands close below that.
  auto logged_share = [](double censored_fraction) {
    Network net;
    AsGenConfig topo_config = small_topo_config();
    topo_config.as_count = 4;
    topo_config.hosts_per_subnet = 64;  // 1,024 hosts, 256 per AS
    AsTopology topo = AsTopology::generate(net, topo_config);
    const AsInfo& country = topo.ases().back();
    surveillance::MvrTap mvr;
    topo.border(country.index)->add_tap(&mvr);
    BgTrafficConfig traffic;
    traffic.censored_fraction = censored_fraction;
    traffic.window = Duration::seconds(2);
    traffic.flows_per_second = 2.0 * double(topo.population()) / 2.0;
    BgTraffic bg(net, topo, traffic);
    bg.start();
    net.run_for(Duration::seconds(3));
    size_t logged = 0;
    for (size_t h = country.first_host;
         h < country.first_host + country.host_count; ++h) {
      if (mvr.censored_access_alerts_for(topo.hosts()[h]->address()) > 0)
        ++logged;
    }
    return double(logged) / double(country.host_count);
  };

  EXPECT_EQ(logged_share(0.0), 0.0);
  const double lambda = 2.0 * 0.55 * 0.2;
  const double bound = 1.0 - std::exp(-lambda);
  const double share = logged_share(0.2);
  EXPECT_GT(share, 0.5 * bound) << share;
  EXPECT_LT(share, 1.5 * bound) << share;
}

TEST(BgTraffic, OfHostsDrawsFlowsBetweenExistingHosts) {
  Network net;
  Router* router = net.add_router("r");
  std::vector<Host*> hosts;
  for (uint8_t i = 1; i <= 6; ++i) {
    hosts.push_back(net.add_host("h" + std::to_string(i),
                                 Ipv4Address(10, 0, 0, i)));
    net.connect(hosts.back(), router);
  }
  AsTopology population = AsTopology::of_hosts(hosts);
  EXPECT_EQ(population.hosts(), hosts);
  ASSERT_EQ(population.ases().size(), 1u);
  EXPECT_EQ(population.ases()[0].host_count, hosts.size());
  EXPECT_EQ(population.as_of_host(5), 0u);

  BgTraffic bg(net, population,
               {.flows_per_second = 200, .window = Duration::seconds(1)});
  bg.start();
  net.run_for(Duration::seconds(2));
  EXPECT_GT(bg.stats().flows_started, 100u);
  EXPECT_EQ(bg.live_flows(), 0u);
  // Every emitted packet runs host -> router -> host.
  EXPECT_EQ(router->counters().forwarded, bg.stats().packets_emitted);
}

}  // namespace
}  // namespace sm::netsim
