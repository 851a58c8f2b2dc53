// Network-wide delivery pool: every link of a Network parks in-flight
// packets in one LIFO-recycled slot pool. These tests pin down that the
// shared pool delivers the right packet to the right node at the right
// time (under duplicate/reorder impairments and interleaved links),
// frees parked packets when a Network is torn down mid-flight, stays at
// the in-flight high-water mark instead of growing per packet, and
// keeps forwarding zero-copy.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "netsim/topology.hpp"
#include "packet/copy_stats.hpp"

namespace sm::netsim {
namespace {

using common::Duration;
using common::Ipv4Address;
using common::SimTime;

/// One delivery as seen by a receiving host's UDP handler.
using Arrival = std::tuple<int64_t, std::string, common::Bytes>;

TEST(DeliveryPool, ImpairedAndInterleavedLinksDeliverTheReferenceSequence) {
  constexpr uint64_t kRoot = 0xD15EA5E;
  Network net;
  net.set_link_seed_root(kRoot);
  Host* a0 = net.add_host("a0", Ipv4Address(10, 0, 0, 1));
  Host* b0 = net.add_host("b0", Ipv4Address(10, 0, 0, 2));
  Host* a1 = net.add_host("a1", Ipv4Address(10, 0, 1, 1));
  Host* b1 = net.add_host("b1", Ipv4Address(10, 0, 1, 2));
  Host* a2 = net.add_host("a2", Ipv4Address(10, 0, 2, 1));
  Host* b2 = net.add_host("b2", Ipv4Address(10, 0, 2, 2));
  Router* r = net.add_router("r");

  // Odd-nanosecond latencies keep arrivals on different links from ever
  // landing on the same instant, so the expected order is unambiguous.
  LinkConfig dup_reorder{Duration(1'000'001), 0, 0.1};
  dup_reorder.impairment.duplicate_rate = 0.3;
  dup_reorder.impairment.reorder_rate = 0.3;
  dup_reorder.impairment.reorder_jitter = Duration::millis(3);
  LinkConfig reorder{Duration(250'007), 0, 0.0};
  reorder.impairment.reorder_rate = 0.5;
  reorder.impairment.reorder_jitter = Duration::millis(2);
  const Duration kHop1(400'003), kHop2(600'005);

  net.connect(a0, b0, dup_reorder);                    // seed 1
  net.connect(a1, r, LinkConfig{kHop1, 0, 0.0});       // seed 2
  net.connect(r, b1, LinkConfig{kHop2, 0, 0.0});       // seed 3
  net.connect(a2, b2, reorder);                        // seed 4

  // Reference: the same impairment streams, replayed in send order.
  uint64_t seeds = kRoot;
  ImpairmentModel model0(dup_reorder.loss_rate, dup_reorder.impairment,
                         common::splitmix64(seeds));
  common::splitmix64(seeds);
  common::splitmix64(seeds);
  ImpairmentModel model2(reorder.loss_rate, reorder.impairment,
                         common::splitmix64(seeds));

  std::vector<Arrival> got;
  for (Host* h : {b0, b1, b2}) {
    h->udp_bind(7, [&got, &net, h](const packet::Decoded&,
                                   std::span<const uint8_t> payload) {
      got.emplace_back(net.engine().now().count(), h->name(),
                       common::Bytes(payload.begin(), payload.end()));
    });
  }

  std::vector<Arrival> want;
  constexpr int kSends = 600;
  const Duration kGap = Duration::micros(100);
  for (int i = 0; i < kSends; ++i) {
    int lane = i % 3;
    common::Bytes payload{uint8_t(lane), uint8_t(i >> 8), uint8_t(i)};
    SimTime at = SimTime(0) + kGap * i;
    Host* from = lane == 0 ? a0 : lane == 1 ? a1 : a2;
    Host* to = lane == 0 ? b0 : lane == 1 ? b1 : b2;
    net.engine().schedule_at(at, [from, to, payload] {
      from->send_udp(to->address(), 9, 7, payload);
    });
    if (lane == 1) {
      want.emplace_back((at + kHop1 + kHop2).count(), to->name(), payload);
      continue;
    }
    ImpairmentModel& model = lane == 0 ? model0 : model2;
    const LinkConfig& cfg = lane == 0 ? dup_reorder : reorder;
    common::Bytes scratch = payload;
    ImpairmentModel::Decision d = model.apply(at, scratch);
    if (d.drop != ImpairmentModel::DropCause::None) continue;
    SimTime arrive = at + cfg.latency + d.extra_delay;
    if (d.duplicate)
      want.emplace_back((arrive + d.duplicate_lag).count(), to->name(),
                        payload);
    want.emplace_back(arrive.count(), to->name(), payload);
  }
  std::stable_sort(want.begin(), want.end(),
                   [](const Arrival& x, const Arrival& y) {
                     return std::get<0>(x) < std::get<0>(y);
                   });
  for (size_t i = 1; i < want.size(); ++i)
    ASSERT_NE(std::get<0>(want[i - 1]), std::get<0>(want[i]))
        << "reference has a same-instant tie; pick other latencies";

  net.run_for(Duration::seconds(1));

  EXPECT_EQ(got, want);
  // The scenario really exercised both impairments and the router hop.
  const LinkStats& s0 = net.links()[0]->stats();
  EXPECT_GT(s0.duplicated, 20u);
  EXPECT_GT(s0.reordered, 20u);
  EXPECT_GT(s0.dropped_loss, 5u);
  EXPECT_GT(net.links()[3]->stats().reordered, 50u);
  EXPECT_EQ(r->counters().forwarded, static_cast<uint64_t>(kSends / 3));
  EXPECT_EQ(net.delivery_pool().in_flight(), 0u);
}

TEST(DeliveryPool, TeardownMidFlightFreesParkedPackets) {
  // Run under the sanitizer build: LeakSanitizer flags any parked packet
  // (duplicates included) that the pool fails to free.
  size_t parked = 0;
  {
    Network net;
    Host* a = net.add_host("a", Ipv4Address(10, 0, 0, 1));
    Host* b = net.add_host("b", Ipv4Address(10, 0, 0, 2));
    Router* r = net.add_router("r");
    LinkConfig slow_dup{Duration::millis(50), 0, 0.0};
    slow_dup.impairment.duplicate_rate = 1.0;
    net.connect(a, r, LinkConfig{Duration::millis(1), 0, 0.0});
    Link* rb = net.connect(r, b, slow_dup);
    for (int i = 0; i < 40; ++i) {
      net.engine().schedule(Duration::micros(100) * i, [a, b, i] {
        a->send_udp(b->address(), 9, 7, common::Bytes(1000, uint8_t(i)));
      });
    }
    net.run_for(Duration::millis(20));  // every packet is past the router
    EXPECT_EQ(rb->stats().duplicated, 40u);
    parked = net.delivery_pool().in_flight();
  }
  EXPECT_EQ(parked, 80u);  // 40 originals + 40 duplicates, all in flight
}

TEST(DeliveryPool, SteadyStateStaysAtTheInFlightPeakAndCopiesNothing) {
  packet::reset_copy_counters();
  Network net;
  Host* a = net.add_host("a", Ipv4Address(10, 0, 0, 1));
  Host* b = net.add_host("b", Ipv4Address(10, 0, 0, 2));
  Host* c = net.add_host("c", Ipv4Address(10, 0, 0, 3));
  Router* r = net.add_router("r");
  // Odd latencies: router forwards never coincide with a send, so the
  // in-flight count peaks right after a send, where it is sampled.
  net.connect(a, r, LinkConfig{Duration(1'000'003), 0, 0.0});
  net.connect(c, r, LinkConfig{Duration(700'001), 0, 0.0});
  net.connect(r, b, LinkConfig{Duration(1'300'007), 0, 0.0});
  uint64_t received = 0;
  b->udp_bind(7, [&](const packet::Decoded&, std::span<const uint8_t>) {
    ++received;
  });

  const DeliveryPool& pool = net.delivery_pool();
  size_t peak = 0;
  common::Rng rng(77);
  auto send_burst = [&](int packets) {
    SimTime t = net.engine().now();
    for (int i = 0; i < packets; ++i) {
      t = t + Duration(20'000 + static_cast<int64_t>(rng.bounded(60'000)));
      Host* from = rng.chance(0.5) ? a : c;
      net.engine().schedule_at(t, [&, from] {
        from->send_udp(b->address(), 9, 7, common::Bytes(64, 0x5A));
        peak = std::max(peak, pool.in_flight());
      });
    }
    net.run_for(Duration::millis(5) + (t - net.engine().now()));
  };

  send_burst(2'000);
  EXPECT_EQ(pool.capacity(), peak);
  send_burst(20'000);

  EXPECT_EQ(received, 22'000u);
  EXPECT_EQ(pool.in_flight(), 0u);
  // 44,000 link deliveries, yet the pool holds exactly as many slots as
  // packets were ever simultaneously in flight: a forwarding router
  // reuses the slot its delivery just freed. At most 2.3 ms of flight
  // over >= 20 us send gaps bounds that peak at 116.
  EXPECT_EQ(pool.capacity(), peak);
  EXPECT_LE(pool.capacity(), 116u);
  EXPECT_EQ(packet::copies(packet::CopySite::Hop), 0u);
  EXPECT_EQ(packet::copies(packet::CopySite::Impairment), 0u);
  EXPECT_EQ(packet::copies(packet::CopySite::Pcap), 0u);
}

}  // namespace
}  // namespace sm::netsim
