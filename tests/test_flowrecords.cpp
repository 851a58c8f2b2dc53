// Flow-record aggregation (CDR-style metadata) plus end-to-end
// determinism of the whole testbed.
#include <gtest/gtest.h>

#include "core/overt.hpp"
#include "core/probe.hpp"
#include "netsim/bgtraffic.hpp"
#include "surveillance/flowrecords.hpp"

namespace sm::surveillance {
namespace {

using common::Duration;
using common::Ipv4Address;
using common::SimTime;

packet::Decoded decode_keep(packet::Packet p, common::Bytes& storage) {
  storage = p.data();
  return *packet::decode(storage);
}

TEST(FlowRecords, AggregatesPacketsIntoOneRecord) {
  FlowRecordAggregator agg(Duration::seconds(10));
  common::Bytes s1, s2, s3;
  auto p1 = decode_keep(packet::make_tcp(Ipv4Address(10, 0, 0, 1),
                                         Ipv4Address(198, 18, 0, 80), 1000,
                                         80, packet::TcpFlags::kSyn, 0, 0),
                        s1);
  auto p2 = decode_keep(
      packet::make_tcp(Ipv4Address(10, 0, 0, 1),
                       Ipv4Address(198, 18, 0, 80), 1000, 80,
                       packet::TcpFlags::kAck, 1, 1,
                       common::to_bytes("hello")),
      s2);
  agg.add(SimTime(0), p1, 40);
  agg.add(SimTime(1000), p2, 45);
  EXPECT_EQ(agg.active_flows(), 1u);
  EXPECT_EQ(agg.finished().size(), 0u);
  EXPECT_EQ(agg.bytes_from(Ipv4Address(10, 0, 0, 1)), 85u);

  // A different direction is a different (directional) record.
  auto p3 = decode_keep(packet::make_tcp(Ipv4Address(198, 18, 0, 80),
                                         Ipv4Address(10, 0, 0, 1), 80, 1000,
                                         packet::TcpFlags::kAck, 1, 1),
                        s3);
  agg.add(SimTime(2000), p3, 40);
  EXPECT_EQ(agg.active_flows(), 2u);
}

TEST(FlowRecords, IdleFlushMovesToFinished) {
  FlowRecordAggregator agg(Duration::seconds(5));
  common::Bytes s;
  auto p = decode_keep(packet::make_udp(Ipv4Address(10, 0, 0, 1),
                                        Ipv4Address(198, 18, 0, 53), 1000,
                                        53, common::to_bytes("q")),
                       s);
  agg.add(SimTime(0), p, 30);
  EXPECT_EQ(agg.flush_idle(SimTime(Duration::seconds(2).count())), 0u);
  EXPECT_EQ(agg.flush_idle(SimTime(Duration::seconds(6).count())), 1u);
  ASSERT_EQ(agg.finished().size(), 1u);
  const FlowRecord& rec = agg.finished()[0];
  EXPECT_EQ(rec.packets, 1u);
  EXPECT_EQ(rec.bytes, 30u);
  EXPECT_EQ(rec.dst_port, 53);
  // Ledger still sees the bytes after the flush.
  EXPECT_EQ(agg.bytes_from(Ipv4Address(10, 0, 0, 1)), 30u);
}

TEST(FlowRecords, FlushAllDrains) {
  FlowRecordAggregator agg;
  common::Bytes s;
  auto p = decode_keep(packet::make_udp(Ipv4Address(10, 0, 0, 1),
                                        Ipv4Address(198, 18, 0, 53), 1, 2,
                                        common::to_bytes("x")),
                       s);
  agg.add(SimTime(0), p, 29);
  EXPECT_EQ(agg.flush_all(), 1u);
  EXPECT_EQ(agg.active_flows(), 0u);
  EXPECT_EQ(agg.finished().size(), 1u);
}

TEST(FlowRecords, MvrBuildsLedgerFromTraffic) {
  core::Testbed tb;
  core::OvertHttpProbe probe(tb, {.domain = "open.example"});
  core::run_probe(tb, probe);
  auto& agg = tb.mvr->flow_records();
  agg.flush_all();
  // At least: client->dns, dns->client, client->web, web->client.
  EXPECT_GE(agg.finished().size(), 4u);
  EXPECT_GT(agg.bytes_from(tb.addr().client), 0u);
  // The record count is far below the packet count (the aggregation
  // point of CDRs).
  EXPECT_LT(agg.finished().size(), tb.mvr->stats().packets_seen);
}

}  // namespace
}  // namespace sm::surveillance

namespace sm::core {
namespace {

/// Runs a fixed scenario and returns a digest of the full packet trace.
uint64_t scenario_digest() {
  Testbed tb;
  auto population = netsim::AsTopology::of_hosts(tb.neighbors);
  netsim::BgTraffic bg(tb.net, population,
                       {.flows_per_second = 30,
                        .window = common::Duration::seconds(5)});
  bg.start();
  OvertHttpProbe probe(tb, {.domain = "blocked.example",
                            .user_agent = "OONI-Probe/2.0"});
  run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(7));
  // FNV-1a over every captured byte and timestamp.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& rec : tb.trace->records()) {
    mix(static_cast<uint64_t>(rec.timestamp.count()));
    for (uint8_t b : rec.data) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(Determinism, IdenticalRunsProduceIdenticalTraces) {
  // The whole point of the simulator substrate: bit-identical reruns.
  EXPECT_EQ(scenario_digest(), scenario_digest());
}

}  // namespace
}  // namespace sm::core
