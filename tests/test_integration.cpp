// End-to-end scenarios on the full testbed: the paper's evaluation logic
// (§3.2) — each technique must be *accurate* (detect the blocking the
// censor is configured to do) and *evasive* (leave no targeted alert in
// the MVR), while the overt baseline is accurate but NOT evasive.
#include <gtest/gtest.h>

#include "core/ddos.hpp"
#include "core/mimicry.hpp"
#include "core/overt.hpp"
#include "core/probe.hpp"
#include "core/risk.hpp"
#include "core/scan.hpp"
#include "core/spam.hpp"
#include "netsim/bgtraffic.hpp"

namespace sm::core {
namespace {

TestbedConfig blocked_ip_config() {
  TestbedConfig cfg;
  TestbedAddresses addr;
  cfg.policy = censor::gfc_profile();
  cfg.policy.blocked_ips.push_back(addr.web_blocked);
  cfg.policy.blocked_ips.push_back(addr.mail_blocked);
  return cfg;
}

TEST(Integration, OvertHttpDetectsKeywordRstButIsLogged) {
  Testbed tb;  // GFC profile: keyword RST on "falun"/"tiananmen"
  OvertHttpProbe probe(tb, {.domain = "blocked.example", .path = "/",
                            .user_agent = "OONI-Probe/2.0"});
  ProbeReport report = run_probe(tb, probe);
  // The blocked site's page contains "falun": the censor RSTs the
  // response stream mid-flight.
  EXPECT_EQ(report.verdict, Verdict::BlockedRst) << report.to_string();
  // And the overt platform fingerprint was logged by the MVR.
  RiskReport risk = assess_risk(tb, "overt-http");
  EXPECT_FALSE(risk.evaded) << risk.to_string();
  EXPECT_GT(risk.targeted_alerts, 0u);
}

TEST(Integration, OvertHttpReachesOpenSite) {
  Testbed tb;
  OvertHttpProbe probe(tb, {.domain = "open.example", .path = "/",
                            .user_agent = "Mozilla/5.0"});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::Reachable) << report.to_string();
}

TEST(Integration, OvertDnsSeesGfcForgery) {
  Testbed tb;
  OvertDnsProbe probe(tb, {.domain = "twitter.com"});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::BlockedDnsForgery) << report.to_string();
}

TEST(Integration, ScanDetectsIpBlockingAndEvades) {
  Testbed tb(blocked_ip_config());
  ScanOptions opts;
  opts.target = tb.addr().web_blocked;
  opts.ports = top_tcp_ports(50);
  opts.expected_open = {80};
  ScanProbe probe(tb, opts);
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::BlockedTimeout) << report.to_string();

  RiskReport risk = assess_risk(tb, "scan");
  EXPECT_TRUE(risk.evaded) << risk.to_string();
  EXPECT_FALSE(risk.investigated);
}

TEST(Integration, ScanFindsOpenSiteReachable) {
  Testbed tb;
  ScanOptions opts;
  opts.target = tb.addr().web_open;
  opts.ports = top_tcp_ports(50);
  opts.expected_open = {80};
  ScanProbe probe(tb, opts);
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::Reachable) << report.to_string();
  EXPECT_EQ(probe.port_states().at(80), PortState::Open);
}

TEST(Integration, SpamProbeSeesDnsForgeryForMxOfBlockedDomain) {
  Testbed tb;  // GFC forges twitter.com (A and MX)
  SpamProbe probe(tb, {.domain = "twitter.com"});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::BlockedDnsForgery) << report.to_string();
  RiskReport risk = assess_risk(tb, "spam");
  EXPECT_TRUE(risk.evaded) << risk.to_string();
}

TEST(Integration, SpamProbeDeliversToOpenDomainAndEvades) {
  Testbed tb;
  SpamProbe probe(tb, {.domain = "open.example"});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::Reachable) << report.to_string();
  EXPECT_EQ(tb.smtp_open->message_count(), 1u);
  RiskReport risk = assess_risk(tb, "spam");
  EXPECT_TRUE(risk.evaded) << risk.to_string();
  // The spam signature fired as a *noise* alert (seen, then discarded).
  EXPECT_GT(risk.noise_alerts, 0u);
}

TEST(Integration, SpamProbeSeesIpBlockOnMailServer) {
  Testbed tb(blocked_ip_config());
  SpamProbe probe(tb, {.domain = "blocked.example"});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::BlockedTimeout) << report.to_string();
}

TEST(Integration, DdosProbeSamplesKeywordCensorship) {
  Testbed tb;
  DdosProbe probe(tb, {.domain = "blocked.example", .requests = 10});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::BlockedRst) << report.to_string();
  EXPECT_EQ(probe.sample_verdicts().size(), 10u);
  RiskReport risk = assess_risk(tb, "ddos");
  EXPECT_TRUE(risk.evaded) << risk.to_string();
}

TEST(Integration, DdosProbeOnOpenSiteReachable) {
  Testbed tb;
  DdosProbe probe(tb, {.domain = "open.example", .requests = 10});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::Reachable) << report.to_string();
}

TEST(Integration, StatelessMimicryMeasuresDnsForgeryWithCover) {
  Testbed tb;
  StatelessDnsMimicryProbe probe(tb, {.domain = "youtube.com",
                                      .cover_count = 10});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::BlockedDnsForgery) << report.to_string();
  EXPECT_EQ(probe.cover_sent(), 10u);
  // The DNS server saw queries "from" many hosts.
  EXPECT_GE(tb.dns_server->queries_served(), 10u);
}

TEST(Integration, StatefulMimicryDetectsKeywordAndCoverCompletes) {
  Testbed tb;
  StatefulMimicryProbe probe(tb, {.path = "/search?q=falun",
                                  .cover_flows = 8});
  ProbeReport report = run_probe(tb, probe);
  // "falun" in the GET triggers the keyword censor: RST.
  EXPECT_EQ(report.verdict, Verdict::BlockedRst) << report.to_string();
  EXPECT_EQ(probe.cover_flows_started(), 8u);
}

TEST(Integration, StatefulMimicryInnocuousPathCompletes) {
  Testbed tb;
  StatefulMimicryProbe probe(tb, {.path = "/search?q=weather",
                                  .cover_flows = 5});
  ProbeReport report = run_probe(tb, probe);
  EXPECT_EQ(report.verdict, Verdict::Reachable) << report.to_string();
}

TEST(Integration, CoverTrafficConfusesAttribution) {
  Testbed tb;
  // With cover, suspicion should be spread across the AS: attribution
  // probability for the client stays near uniform.
  StatelessDnsMimicryProbe probe(tb, {.domain = "youtube.com",
                                      .cover_count = 15});
  run_probe(tb, probe);
  RiskReport risk = assess_risk(tb, "mimicry-dns");
  EXPECT_TRUE(risk.evaded) << risk.to_string();
  size_t as_size = tb.client_as_addresses().size();
  EXPECT_LE(risk.attribution_probability, 2.0 / static_cast<double>(as_size))
      << risk.to_string();
}

TEST(Integration, BgTrafficRunsAndMvrReduces) {
  Testbed tb;
  auto population = netsim::AsTopology::of_hosts(tb.neighbors);
  netsim::BgTraffic bg(tb.net, population,
                       {.flows_per_second = 30,
                        .window = common::Duration::seconds(20)});
  bg.start();
  tb.run_for(common::Duration::seconds(25));
  const auto& stats = tb.mvr->stats();
  EXPECT_GT(stats.packets_seen, 100u);
  // MVR must discard the p2p bulk.
  EXPECT_GT(stats.bytes_discarded, 0u);
  // Content retention is sampled (well under half of seen bytes).
  EXPECT_LT(stats.bytes_content_retained, stats.bytes_seen / 2);
}

TEST(Integration, CensorStateStaysSmall) {
  // §2.1: censorship systems keep only flow-reassembly state.
  Testbed tb;
  auto population = netsim::AsTopology::of_hosts(tb.neighbors);
  netsim::BgTraffic bg(tb.net, population,
                       {.flows_per_second = 30,
                        .window = common::Duration::seconds(10)});
  bg.start();
  tb.run_for(common::Duration::seconds(12));
  // Bounded by stream caps: every flow holds at most 2*16 KiB.
  size_t flows = tb.censor_tap->engine().flows().flow_count();
  EXPECT_LE(tb.censor_tap->state_bytes(), flows * 2 * 16 * 1024);
}

}  // namespace
}  // namespace sm::core
