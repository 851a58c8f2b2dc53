#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "ids/engine.hpp"
#include "packet/packet.hpp"

namespace sm::ids {
namespace {

using common::Duration;
using common::Ipv4Address;
using common::SimTime;
using packet::TcpFlags;

const Ipv4Address kSrc(10, 0, 0, 1);
const Ipv4Address kDst(192, 0, 2, 80);

struct PacketBox {
  common::Bytes storage;
  packet::Decoded decoded;
};

PacketBox tcp(uint16_t sp, uint16_t dp, uint8_t flags, uint32_t seq,
              std::string_view payload, Ipv4Address src = kSrc,
              Ipv4Address dst = kDst) {
  PacketBox box;
  packet::Packet p = packet::make_tcp(
      src, dst, sp, dp, flags, seq, flags & TcpFlags::kAck ? 1 : 0,
      common::to_bytes(payload));
  box.storage = p.data();
  box.decoded = *packet::decode(box.storage);
  return box;
}

PacketBox udp(uint16_t sp, uint16_t dp, std::string_view payload) {
  PacketBox box;
  packet::Packet p = packet::make_udp(kSrc, kDst, sp, dp,
                                      common::to_bytes(payload));
  box.storage = p.data();
  box.decoded = *packet::decode(box.storage);
  return box;
}

TEST(Engine, ContentAlertFires) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (msg:\"kw\"; content:\"falun\"; "
      "nocase; sid:1;)");
  auto box = tcp(1000, 80, TcpFlags::kAck, 10, "about FALUN gong");
  auto v = e.process(SimTime(0), box.decoded);
  ASSERT_EQ(v.alerts.size(), 1u);
  EXPECT_EQ(v.alerts[0].sid, 1u);
  EXPECT_FALSE(v.drop);
}

TEST(Engine, NoMatchNoAlert) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (content:\"falun\"; sid:1;)");
  auto box = tcp(1000, 80, TcpFlags::kAck, 10, "innocuous");
  EXPECT_TRUE(e.process(SimTime(0), box.decoded).alerts.empty());
}

TEST(Engine, ProtoMismatchSkipsRule) {
  Engine e = Engine::from_text(
      "alert udp any any -> any any (content:\"x\"; sid:1;)");
  auto box = tcp(1000, 80, TcpFlags::kAck, 10, "x");
  EXPECT_TRUE(e.process(SimTime(0), box.decoded).alerts.empty());
}

TEST(Engine, PortFilterApplies) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any 80 (content:\"x\"; sid:1;)");
  auto hit = tcp(1000, 80, TcpFlags::kAck, 10, "x");
  auto miss = tcp(1000, 443, TcpFlags::kAck, 10, "x");
  EXPECT_EQ(e.process(SimTime(0), hit.decoded).alerts.size(), 1u);
  EXPECT_TRUE(e.process(SimTime(0), miss.decoded).alerts.empty());
}

TEST(Engine, BidirectionalMatchesBothWays) {
  Engine e = Engine::from_text(
      "alert tcp 10.0.0.1 any <> any 80 (content:\"x\"; sid:1;)");
  auto fwd = tcp(1000, 80, TcpFlags::kAck, 10, "x");
  auto rev = tcp(80, 1000, TcpFlags::kAck, 10, "x", kDst, kSrc);
  EXPECT_EQ(e.process(SimTime(0), fwd.decoded).alerts.size(), 1u);
  EXPECT_EQ(e.process(SimTime(0), rev.decoded).alerts.size(), 1u);
}

TEST(Engine, DropRuleSetsDropVerdict) {
  Engine e = Engine::from_text(
      "drop ip any any -> 192.0.2.80 any (msg:\"null-route\"; sid:1;)");
  auto box = tcp(1000, 80, TcpFlags::kSyn, 0, "");
  auto v = e.process(SimTime(0), box.decoded);
  EXPECT_TRUE(v.drop);
  EXPECT_FALSE(v.reject);
  ASSERT_EQ(v.alerts.size(), 1u);
}

TEST(Engine, RejectRuleSetsRejectVerdict) {
  Engine e = Engine::from_text(
      "reject tcp any any -> any any (content:\"falun\"; sid:1;)");
  auto box = tcp(1000, 80, TcpFlags::kAck, 10, "falun");
  auto v = e.process(SimTime(0), box.decoded);
  EXPECT_TRUE(v.drop);
  EXPECT_TRUE(v.reject);
}

TEST(Engine, PassRuleShortCircuits) {
  Engine e = Engine::from_text(
      "pass tcp 10.0.0.1 any -> any any (sid:1;)\n"
      "alert tcp any any -> any any (content:\"falun\"; sid:2;)\n");
  auto box = tcp(1000, 80, TcpFlags::kAck, 10, "falun");
  EXPECT_TRUE(e.process(SimTime(0), box.decoded).alerts.empty());
}

TEST(Engine, FlagsExactMatch) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (flags:S; sid:1;)");
  auto syn = tcp(1, 80, TcpFlags::kSyn, 0, "");
  auto synack = tcp(1, 80, TcpFlags::kSyn | TcpFlags::kAck, 0, "");
  EXPECT_EQ(e.process(SimTime(0), syn.decoded).alerts.size(), 1u);
  EXPECT_TRUE(e.process(SimTime(0), synack.decoded).alerts.empty());
}

TEST(Engine, FlagsPlusAllowsOthers) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (flags:S+; sid:1;)");
  auto synack = tcp(1, 80, TcpFlags::kSyn | TcpFlags::kAck, 0, "");
  EXPECT_EQ(e.process(SimTime(0), synack.decoded).alerts.size(), 1u);
}

TEST(Engine, DsizeFilters) {
  Engine e = Engine::from_text(
      "alert udp any any -> any any (dsize:>5; sid:1;)");
  auto small = udp(1, 2, "abc");
  auto large = udp(1, 2, "abcdefgh");
  EXPECT_TRUE(e.process(SimTime(0), small.decoded).alerts.empty());
  EXPECT_EQ(e.process(SimTime(0), large.decoded).alerts.size(), 1u);
}

TEST(Engine, FlowEstablishedRequiresHandshake) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (flow:established; content:\"x\"; "
      "sid:1;)");
  // Payload before handshake completes: no alert.
  auto data1 = tcp(1000, 80, TcpFlags::kAck, 1, "x");
  EXPECT_TRUE(e.process(SimTime(0), data1.decoded).alerts.empty());

  // Full handshake, then payload: alert.
  Engine e2 = Engine::from_text(
      "alert tcp any any -> any any (flow:established; content:\"x\"; "
      "sid:1;)");
  auto syn = tcp(1000, 80, TcpFlags::kSyn, 100, "");
  auto synack = tcp(80, 1000, TcpFlags::kSyn | TcpFlags::kAck, 500, "",
                    kDst, kSrc);
  auto ack = tcp(1000, 80, TcpFlags::kAck, 101, "");
  e2.process(SimTime(0), syn.decoded);
  e2.process(SimTime(1), synack.decoded);
  e2.process(SimTime(2), ack.decoded);
  auto data2 = tcp(1000, 80, TcpFlags::kAck, 101, "x");
  EXPECT_EQ(e2.process(SimTime(3), data2.decoded).alerts.size(), 1u);
}

TEST(Engine, FlowDirectionFilters) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (flow:to_client; content:\"srv\"; "
      "sid:1;)");
  auto syn = tcp(1000, 80, TcpFlags::kSyn, 100, "");
  e.process(SimTime(0), syn.decoded);
  // to_server payload should not match a to_client rule.
  auto req = tcp(1000, 80, TcpFlags::kAck, 101, "srv");
  EXPECT_TRUE(e.process(SimTime(1), req.decoded).alerts.empty());
  // Server->client payload matches.
  auto resp = tcp(80, 1000, TcpFlags::kAck, 500, "srv", kDst, kSrc);
  EXPECT_EQ(e.process(SimTime(2), resp.decoded).alerts.size(), 1u);
}

TEST(Engine, CrossPacketKeywordViaReassembly) {
  // The keyword is split across two segments; only stream matching
  // catches it. This is the GFC reassembly behaviour [10, 26].
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (content:\"falun\"; sid:1;)");
  auto syn = tcp(1000, 80, TcpFlags::kSyn, 100, "");
  e.process(SimTime(0), syn.decoded);
  auto part1 = tcp(1000, 80, TcpFlags::kAck, 101, "GET /fal");
  auto v1 = e.process(SimTime(1), part1.decoded);
  EXPECT_TRUE(v1.alerts.empty());
  auto part2 = tcp(1000, 80, TcpFlags::kAck, 109, "un HTTP/1.1");
  auto v2 = e.process(SimTime(2), part2.decoded);
  ASSERT_EQ(v2.alerts.size(), 1u);
}

TEST(Engine, StreamMatchFiresOncePerFlow) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (content:\"falun\"; sid:1;)");
  auto syn = tcp(1000, 80, TcpFlags::kSyn, 100, "");
  e.process(SimTime(0), syn.decoded);
  auto part1 = tcp(1000, 80, TcpFlags::kAck, 101, "fal");
  auto part2 = tcp(1000, 80, TcpFlags::kAck, 104, "un");
  e.process(SimTime(1), part1.decoded);
  auto v = e.process(SimTime(2), part2.decoded);
  EXPECT_EQ(v.alerts.size(), 1u);
  // Later small segments that still "contain" the keyword via the buffer
  // do not re-fire.
  auto part3 = tcp(1000, 80, TcpFlags::kAck, 106, "!");
  auto v3 = e.process(SimTime(3), part3.decoded);
  EXPECT_TRUE(v3.alerts.empty());
}

TEST(Engine, ThresholdLimitCapsAlertsPerWindow) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (flags:S; threshold:type limit, track "
      "by_src, count 2, seconds 10; sid:1;)");
  int alerts = 0;
  for (int i = 0; i < 5; ++i) {
    auto box = tcp(static_cast<uint16_t>(1000 + i), 80, TcpFlags::kSyn, 0,
                   "");
    alerts += static_cast<int>(
        e.process(SimTime(i), box.decoded).alerts.size());
  }
  EXPECT_EQ(alerts, 2);
}

TEST(Engine, ThresholdBothFiresOnceAtCount) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (flags:S; threshold:type both, track "
      "by_src, count 3, seconds 10; sid:1;)");
  std::vector<size_t> per_packet;
  for (int i = 0; i < 5; ++i) {
    auto box = tcp(static_cast<uint16_t>(1000 + i), 80, TcpFlags::kSyn, 0,
                   "");
    per_packet.push_back(e.process(SimTime(i), box.decoded).alerts.size());
  }
  EXPECT_EQ(per_packet, (std::vector<size_t>{0, 0, 1, 0, 0}));
}

TEST(Engine, ThresholdWindowResets) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (flags:S; threshold:type both, track "
      "by_src, count 2, seconds 1; sid:1;)");
  auto mk = [&](int i) {
    return tcp(static_cast<uint16_t>(1000 + i), 80, TcpFlags::kSyn, 0, "");
  };
  auto b0 = mk(0);
  auto b1 = mk(1);
  EXPECT_EQ(e.process(SimTime(0), b0.decoded).alerts.size(), 0u);
  EXPECT_EQ(e.process(SimTime(1), b1.decoded).alerts.size(), 1u);
  // A new window far in the future starts the count over.
  auto b2 = mk(2);
  auto b3 = mk(3);
  SimTime later(Duration::seconds(100).count());
  EXPECT_EQ(e.process(later, b2.decoded).alerts.size(), 0u);
  EXPECT_EQ(e.process(later + Duration::millis(10), b3.decoded)
                .alerts.size(),
            1u);
}

TEST(Engine, ThresholdTracksPerSource) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (flags:S; threshold:type both, track "
      "by_src, count 2, seconds 10; sid:1;)");
  // Source A sends one SYN, source B sends one SYN: neither reaches 2.
  auto a = tcp(1000, 80, TcpFlags::kSyn, 0, "", Ipv4Address(10, 0, 0, 1));
  auto b = tcp(1000, 80, TcpFlags::kSyn, 0, "", Ipv4Address(10, 0, 0, 2));
  EXPECT_TRUE(e.process(SimTime(0), a.decoded).alerts.empty());
  EXPECT_TRUE(e.process(SimTime(1), b.decoded).alerts.empty());
}

TEST(Engine, MultipleRulesAllEvaluated) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (content:\"aaa\"; sid:1;)\n"
      "alert tcp any any -> any any (content:\"bbb\"; sid:2;)\n");
  auto box = tcp(1, 80, TcpFlags::kAck, 10, "aaa bbb");
  auto v = e.process(SimTime(0), box.decoded);
  ASSERT_EQ(v.alerts.size(), 2u);
  EXPECT_EQ(v.alerts[0].sid, 1u);
  EXPECT_EQ(v.alerts[1].sid, 2u);
}

TEST(Engine, DropStopsLaterRules) {
  Engine e = Engine::from_text(
      "drop tcp any any -> any any (content:\"x\"; sid:1;)\n"
      "alert tcp any any -> any any (content:\"x\"; sid:2;)\n");
  auto box = tcp(1, 80, TcpFlags::kAck, 10, "x");
  auto v = e.process(SimTime(0), box.decoded);
  ASSERT_EQ(v.alerts.size(), 1u);
  EXPECT_EQ(v.alerts[0].sid, 1u);
}

TEST(Engine, NegatedContentRule) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any 25 (content:\"MAIL FROM\"; "
      "content:!\"legit\"; sid:1;)");
  // Distinct source ports: distinct flows (stream buffers are per flow).
  auto spam = tcp(1, 25, TcpFlags::kAck, 10, "MAIL FROM:<x@spam>");
  auto ham = tcp(2, 25, TcpFlags::kAck, 10, "MAIL FROM:<x@legit>");
  EXPECT_EQ(e.process(SimTime(0), spam.decoded).alerts.size(), 1u);
  EXPECT_TRUE(e.process(SimTime(0), ham.decoded).alerts.empty());
}

TEST(Engine, FromTextThrowsOnBadRuleset) {
  EXPECT_THROW(Engine::from_text("garbage here"), std::invalid_argument);
}

TEST(Engine, StatsAccumulate) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (content:\"x\"; sid:1;)");
  auto hit = tcp(1, 80, TcpFlags::kAck, 10, "x");
  auto miss = tcp(2, 80, TcpFlags::kAck, 10, "y");  // separate flow
  e.process(SimTime(0), hit.decoded);
  e.process(SimTime(1), miss.decoded);
  EXPECT_EQ(e.stats().packets, 2u);
  EXPECT_EQ(e.stats().alerts, 1u);
}

TEST(Engine, AlertCarriesEndpoints) {
  Engine e = Engine::from_text(
      "alert tcp any any -> any any (content:\"x\"; sid:7;)");
  auto box = tcp(1234, 80, TcpFlags::kAck, 10, "x");
  auto v = e.process(SimTime(0), box.decoded);
  ASSERT_EQ(v.alerts.size(), 1u);
  EXPECT_EQ(v.alerts[0].src, kSrc);
  EXPECT_EQ(v.alerts[0].dst, kDst);
  EXPECT_EQ(v.alerts[0].src_port, 1234);
  EXPECT_EQ(v.alerts[0].dst_port, 80);
  EXPECT_FALSE(v.alerts[0].to_string().empty());
}

TEST(Engine, ThresholdTableMatchesOrderedReferenceAcrossManySources) {
  // Four threshold rules, one per destination port, tracking by source
  // and by destination. The reference model keys its windows by
  // (sid, tracked address) in a std::map; the engine's hashed table
  // must produce the identical alert sequence.
  Engine e = Engine::from_text(
      "alert udp any any -> any 53 (msg:\"lim\"; threshold:type limit, "
      "track by_src, count 3, seconds 2; sid:101;)\n"
      "alert udp any any -> any 123 (msg:\"thr\"; threshold:type "
      "threshold, track by_src, count 4, seconds 2; sid:102;)\n"
      "alert udp any any -> any 161 (msg:\"both\"; threshold:type both, "
      "track by_src, count 2, seconds 2; sid:103;)\n"
      "alert udp any any -> any 500 (msg:\"dst\"; threshold:type both, "
      "track by_dst, count 3, seconds 3; sid:104;)");
  struct RuleModel {
    uint16_t port;
    uint32_t sid;
    ThresholdSpec::Type type;
    bool by_src;
    uint32_t count;
    int64_t seconds;
  };
  const RuleModel rules[] = {
      {53, 101, ThresholdSpec::Type::Limit, true, 3, 2},
      {123, 102, ThresholdSpec::Type::Threshold, true, 4, 2},
      {161, 103, ThresholdSpec::Type::Both, true, 2, 2},
      {500, 104, ThresholdSpec::Type::Both, false, 3, 3},
  };
  struct Window {
    SimTime start{};
    uint32_t count = 0;
    bool fired = false;
  };
  std::map<std::pair<uint32_t, IpAddress>, Window> ref;
  auto ref_allows = [&](const RuleModel& r, SimTime now, const IpAddress& key) {
    Window& w = ref[{r.sid, key}];
    if (w.count == 0 || now - w.start > Duration::seconds(r.seconds)) {
      w = Window{now, 0, false};
    }
    ++w.count;
    switch (r.type) {
      case ThresholdSpec::Type::Limit: return w.count <= r.count;
      case ThresholdSpec::Type::Threshold: return w.count % r.count == 0;
      case ThresholdSpec::Type::Both:
        if (w.count >= r.count && !w.fired) {
          w.fired = true;
          return true;
        }
        return false;
    }
    return false;
  };

  // 12k sources across v4, map_v6 and bare v6 forms sharing low bits,
  // 300 destinations per form; sources recur often enough to cross
  // every threshold.
  common::Rng rng(0x7E5A01D);
  auto address = [&](uint32_t n) -> IpAddress {
    Ipv4Address v4(0x0A000000u | (n / 3));
    switch (n % 3) {
      case 0: return v4;
      case 1: return common::map_v6(v4);
      default: return common::Ipv6Address(0, v4.value());
    }
  };
  using Seen = std::tuple<int64_t, uint32_t, IpAddress, IpAddress>;
  std::vector<Seen> got, want;
  SimTime now(0);
  for (int i = 0; i < 80'000; ++i) {
    now = now + Duration(1 + static_cast<int64_t>(rng.bounded(150'000)));
    auto s = static_cast<uint32_t>(rng.bounded(12'000));
    auto t = static_cast<uint32_t>(rng.chance(0.5) ? rng.bounded(30)
                                                   : 30 + rng.bounded(270));
    IpAddress src = address(s);
    IpAddress dst = address(t * 3 + s % 3);  // same address form as src
    const RuleModel& r = rules[rng.bounded(4)];
    common::Bytes payload{uint8_t(i)};
    common::Bytes bytes =
        src.is_v6()
            ? packet::make_udp6(src.v6(), dst.v6(), 4000, r.port, payload)
                  .data()
            : packet::make_udp(src.v4(), dst.v4(), 4000, r.port, payload)
                  .data();
    auto d = packet::decode(bytes);
    ASSERT_TRUE(d.has_value());
    for (const Alert& a : e.process(now, *d).alerts)
      got.emplace_back(a.time.count(), a.sid, a.src, a.dst);
    if (ref_allows(r, now, r.by_src ? src : dst))
      want.emplace_back(now.count(), r.sid, src, dst);
  }
  std::set<IpAddress> tracked;
  for (const auto& [key, w] : ref) tracked.insert(key.second);
  EXPECT_GE(tracked.size(), 10'000u);
  EXPECT_GT(want.size(), 10'000u);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace sm::ids
