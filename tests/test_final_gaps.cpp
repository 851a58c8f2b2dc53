// Last-mile coverage: router transformer drop semantics, customized
// blockpage bodies, background-traffic determinism, and analyst ledger
// consistency between flow records and byte attribution.
#include <gtest/gtest.h>

#include "core/overt.hpp"
#include "core/probe.hpp"
#include "netsim/bgtraffic.hpp"
#include "netsim/topology.hpp"

namespace sm::core {
namespace {

using common::Duration;
using common::Ipv4Address;

TEST(Transformer, ReturningFalseDropsPacket) {
  netsim::Network net;
  auto* a = net.add_host("a", Ipv4Address(10, 0, 0, 1));
  auto* b = net.add_host("b", Ipv4Address(10, 0, 0, 2));
  auto* r = net.add_router("r");
  net.connect(a, r);
  net.connect(b, r);
  r->set_transformer([](packet::Packet& p) {
    auto d = packet::decode(p);
    return !(d && d->udp && d->udp->dst_port == 9999);  // drop port 9999
  });
  bool got_9999 = false, got_1000 = false;
  b->udp_bind(9999, [&](const packet::Decoded&, std::span<const uint8_t>) {
    got_9999 = true;
  });
  b->udp_bind(1000, [&](const packet::Decoded&, std::span<const uint8_t>) {
    got_1000 = true;
  });
  a->send_udp(b->address(), 1, 9999, common::to_bytes("x"));
  a->send_udp(b->address(), 1, 1000, common::to_bytes("y"));
  net.run_for(Duration::millis(10));
  EXPECT_FALSE(got_9999);
  EXPECT_TRUE(got_1000);
  EXPECT_EQ(r->counters().dropped_by_tap, 1u);
}

TEST(Transformer, CanRewriteInFlight) {
  netsim::Network net;
  auto* a = net.add_host("a", Ipv4Address(10, 0, 0, 1));
  auto* b = net.add_host("b", Ipv4Address(10, 0, 0, 2));
  auto* r = net.add_router("r");
  net.connect(a, r);
  net.connect(b, r);
  r->set_transformer([](packet::Packet& p) {
    packet::set_ttl(p.data(), 99);
    return true;
  });
  uint8_t seen_ttl = 0;
  b->udp_bind(7, [&](const packet::Decoded& d, std::span<const uint8_t>) {
    seen_ttl = d.ip.ttl;
  });
  a->send_udp(b->address(), 1, 7, common::to_bytes("x"));
  net.run_for(Duration::millis(10));
  EXPECT_EQ(seen_ttl, 98);  // rewritten to 99, then decremented once
}

TEST(Blockpage, CustomBodyIsServed) {
  TestbedConfig cfg;
  cfg.policy = censor::CensorPolicy{};
  cfg.policy.blockpage_keywords = {"blocked.example"};
  cfg.policy.blockpage_html =
      "<html>This page has been blocked per regulation 42.</html>";
  Testbed tb(cfg);
  proto::http::Client http(*tb.client_stack);
  std::optional<proto::http::FetchResult> result;
  http.fetch(tb.addr().web_blocked, 80,
             proto::http::Request::get("blocked.example", "/"),
             [&](const proto::http::FetchResult& r) { result = r; });
  tb.run_for(Duration::seconds(3));
  ASSERT_TRUE(result && result->ok());
  EXPECT_EQ(result->response->status, 403);
  EXPECT_NE(result->response->body.find("regulation 42"),
            std::string::npos);
}

TEST(Background, DeterministicAcrossRuns) {
  auto run_once = []() {
    Testbed tb;
    auto population = netsim::AsTopology::of_hosts(tb.neighbors);
    netsim::BgTraffic bg(tb.net, population,
                         {.flows_per_second = 30,
                          .window = Duration::seconds(5)});
    bg.start();
    tb.run_for(Duration::seconds(6));
    return std::make_pair(tb.mvr->stats().packets_seen,
                          tb.mvr->stats().bytes_seen);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FlowLedger, MatchesMvrByteAccounting) {
  Testbed tb;
  OvertHttpProbe probe(tb, {.domain = "open.example"});
  run_probe(tb, probe);
  // Every byte the MVR saw is attributed to some source in the ledger.
  auto& agg = tb.mvr->flow_records();
  uint64_t ledger_total = 0;
  std::set<uint32_t> sources;
  agg.flush_all();
  for (const auto& rec : agg.finished()) {
    ledger_total += rec.bytes;
    sources.insert(rec.src.value());
  }
  EXPECT_EQ(ledger_total, tb.mvr->stats().bytes_seen);
  EXPECT_GE(sources.size(), 3u);  // client, dns, web at least
}

}  // namespace
}  // namespace sm::core
