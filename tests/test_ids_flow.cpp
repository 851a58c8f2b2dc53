#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "ids/flow.hpp"
#include "packet/packet.hpp"

namespace sm::ids {
namespace {

using common::Duration;
using common::Ipv4Address;
using common::SimTime;
using packet::TcpFlags;

const Ipv4Address kClient(10, 0, 0, 1);
const Ipv4Address kServer(192, 0, 2, 80);

packet::Decoded tcp_packet(Ipv4Address src, Ipv4Address dst, uint16_t sp,
                           uint16_t dp, uint8_t flags, uint32_t seq,
                           uint32_t ack, const common::Bytes& payload,
                           common::Bytes& storage) {
  packet::Packet p = packet::make_tcp(src, dst, sp, dp, flags, seq, ack,
                                      payload);
  storage = p.data();
  return *packet::decode(storage);
}

TEST(StreamBuffer, InOrderAppend) {
  StreamBuffer sb(1024);
  sb.set_base(100);
  sb.add_segment(100, common::to_bytes("hello "));
  sb.add_segment(106, common::to_bytes("world"));
  EXPECT_EQ(common::to_string(sb.contiguous()), "hello world");
}

TEST(StreamBuffer, OutOfOrderMerges) {
  StreamBuffer sb(1024);
  sb.set_base(0);
  sb.add_segment(6, common::to_bytes("world"));
  EXPECT_EQ(sb.contiguous().size(), 0u);
  sb.add_segment(0, common::to_bytes("hello "));
  EXPECT_EQ(common::to_string(sb.contiguous()), "hello world");
}

TEST(StreamBuffer, DuplicateIgnored) {
  StreamBuffer sb(1024);
  sb.set_base(0);
  sb.add_segment(0, common::to_bytes("abc"));
  sb.add_segment(0, common::to_bytes("abc"));
  EXPECT_EQ(common::to_string(sb.contiguous()), "abc");
}

TEST(StreamBuffer, OverlapKeepsNewTail) {
  StreamBuffer sb(1024);
  sb.set_base(0);
  sb.add_segment(0, common::to_bytes("abcd"));
  sb.add_segment(2, common::to_bytes("cdEF"));
  EXPECT_EQ(common::to_string(sb.contiguous()), "abcdEF");
}

TEST(StreamBuffer, CapTrimsFront) {
  StreamBuffer sb(8);
  sb.set_base(0);
  sb.add_segment(0, common::to_bytes("0123456789AB"));
  EXPECT_LE(sb.contiguous().size(), 8u);
  // The tail is what survives.
  EXPECT_EQ(common::to_string(sb.contiguous()), "456789AB");
}

TEST(StreamBuffer, BaseSetOnlyOnce) {
  StreamBuffer sb(64);
  sb.set_base(100);
  sb.set_base(500);  // ignored
  sb.add_segment(100, common::to_bytes("x"));
  EXPECT_EQ(sb.contiguous().size(), 1u);
}

TEST(StreamBuffer, GapBoundedPending) {
  StreamBuffer sb(16);
  sb.set_base(0);
  // Far out-of-order chunks beyond the cap are dropped, not hoarded.
  for (uint32_t i = 1; i < 10; ++i)
    sb.add_segment(100 * i, common::Bytes(10, 'x'));
  EXPECT_LE(sb.buffered_bytes(), 16u + 10u);
}

TEST(FlowKey, CanonicalSymmetric) {
  common::Bytes s1, s2;
  auto fwd = tcp_packet(kClient, kServer, 1234, 80, TcpFlags::kSyn, 0, 0,
                        {}, s1);
  auto rev = tcp_packet(kServer, kClient, 80, 1234, TcpFlags::kAck, 0, 0,
                        {}, s2);
  EXPECT_EQ(FlowKey::from(fwd), FlowKey::from(rev));
}

TEST(FlowTable, TracksHandshakeToEstablished) {
  FlowTable table;
  common::Bytes s;
  auto syn = tcp_packet(kClient, kServer, 1234, 80, TcpFlags::kSyn, 100, 0,
                        {}, s);
  auto fc1 = table.update(SimTime(0), syn);
  ASSERT_TRUE(fc1.state);
  EXPECT_TRUE(fc1.to_server);
  EXPECT_TRUE(fc1.state->syn_seen);
  EXPECT_FALSE(fc1.state->established);

  common::Bytes s2;
  auto synack = tcp_packet(kServer, kClient, 80, 1234,
                           TcpFlags::kSyn | TcpFlags::kAck, 500, 101, {}, s2);
  auto fc2 = table.update(SimTime(1), synack);
  EXPECT_FALSE(fc2.to_server);
  EXPECT_TRUE(fc2.state->synack_seen);

  common::Bytes s3;
  auto ack = tcp_packet(kClient, kServer, 1234, 80, TcpFlags::kAck, 101,
                        501, {}, s3);
  auto fc3 = table.update(SimTime(2), ack);
  EXPECT_TRUE(fc3.state->established);
  EXPECT_EQ(table.flow_count(), 1u);
}

TEST(FlowTable, ReassemblesAcrossSegments) {
  FlowTable table;
  common::Bytes s;
  table.update(SimTime(0), tcp_packet(kClient, kServer, 1, 80,
                                      TcpFlags::kSyn, 100, 0, {}, s));
  common::Bytes s2;
  table.update(SimTime(1),
               tcp_packet(kServer, kClient, 80, 1,
                          TcpFlags::kSyn | TcpFlags::kAck, 200, 101, {}, s2));
  common::Bytes s3;
  auto fc = table.update(
      SimTime(2), tcp_packet(kClient, kServer, 1, 80, TcpFlags::kAck, 101,
                             201, common::to_bytes("fal"), s3));
  common::Bytes s4;
  fc = table.update(
      SimTime(3), tcp_packet(kClient, kServer, 1, 80, TcpFlags::kAck, 104,
                             201, common::to_bytes("un"), s4));
  ASSERT_TRUE(fc.state);
  EXPECT_EQ(common::to_string(fc.state->to_server_stream.contiguous()),
            "falun");
}

TEST(FlowTable, MidStreamPickupAnchorsAtFirstPayload) {
  FlowTable table;
  common::Bytes s;
  auto fc = table.update(
      SimTime(0), tcp_packet(kClient, kServer, 1, 80, TcpFlags::kAck, 5000,
                             1, common::to_bytes("midstream data"), s));
  ASSERT_TRUE(fc.state);
  EXPECT_EQ(common::to_string(fc.state->to_server_stream.contiguous()),
            "midstream data");
}

TEST(FlowTable, UdpFlowsTracked) {
  FlowTable table;
  packet::Packet p = packet::make_udp(kClient, kServer, 5000, 53,
                                      common::to_bytes("q"));
  auto d = *packet::decode(p.data());
  auto fc = table.update(SimTime(0), d);
  ASSERT_TRUE(fc.state);
  EXPECT_EQ(fc.state->packets_to_server, 1u);
}

TEST(FlowTable, NonTcpUdpIgnored) {
  FlowTable table;
  packet::Packet p = packet::make_icmp(kClient, kServer, 8, 0, 0);
  auto d = *packet::decode(p.data());
  auto fc = table.update(SimTime(0), d);
  EXPECT_EQ(fc.state, nullptr);
  EXPECT_EQ(table.flow_count(), 0u);
}

TEST(FlowTable, ExpiryEvictsIdleFlows) {
  FlowTable table(1024, Duration::seconds(10));
  common::Bytes s;
  table.update(SimTime(0), tcp_packet(kClient, kServer, 1, 80,
                                      TcpFlags::kSyn, 0, 0, {}, s));
  common::Bytes s2;
  table.update(SimTime(0), tcp_packet(kClient, kServer, 2, 80,
                                      TcpFlags::kSyn, 0, 0, {}, s2));
  EXPECT_EQ(table.flow_count(), 2u);
  // Refresh only the first flow late.
  common::Bytes s3;
  table.update(SimTime(Duration::seconds(9).count()),
               tcp_packet(kClient, kServer, 1, 80, TcpFlags::kAck, 1, 1, {},
                          s3));
  EXPECT_EQ(table.expire(SimTime(Duration::seconds(15).count())), 1u);
  EXPECT_EQ(table.flow_count(), 1u);
}

TEST(FlowTable, ByteAccounting) {
  FlowTable table;
  common::Bytes s;
  table.update(SimTime(0),
               tcp_packet(kClient, kServer, 1, 80, TcpFlags::kSyn, 0, 0, {},
                          s));
  common::Bytes s2;
  table.update(SimTime(1),
               tcp_packet(kClient, kServer, 1, 80, TcpFlags::kAck, 1, 1,
                          common::to_bytes("12345"), s2));
  EXPECT_GE(table.buffered_bytes(), 5u);
}

// --- Hash-indexed table vs. an ordered-map reference -----------------

/// Reference model: FlowTable's update rules over an ordered std::map.
/// The hashed table must be indistinguishable from it.
class RefFlowTable {
 public:
  RefFlowTable(size_t stream_cap, Duration idle_timeout)
      : stream_cap_(stream_cap), idle_timeout_(idle_timeout) {}

  FlowContext update(SimTime now, const packet::Decoded& d) {
    if (!d.tcp && !d.udp) return {};
    auto [it, inserted] = flows_.try_emplace(FlowKey::from(d));
    FlowState& st = it->second;
    if (inserted) {
      st.client = d.src_addr();
      st.client_port = d.src_port();
      st.first_seen = now;
      st.to_server_stream = StreamBuffer(stream_cap_);
      st.to_client_stream = StreamBuffer(stream_cap_);
    }
    st.last_seen = now;
    bool to_server =
        d.src_addr() == st.client && d.src_port() == st.client_port;
    if (to_server) {
      ++st.packets_to_server;
      st.bytes_to_server += d.l4_payload.size();
    } else {
      ++st.packets_to_client;
      st.bytes_to_client += d.l4_payload.size();
    }
    if (d.tcp) {
      if (d.tcp->syn() && !d.tcp->ack_flag()) {
        st.syn_seen = true;
        st.to_server_stream.set_base(d.tcp->seq + 1);
      } else if (d.tcp->syn() && d.tcp->ack_flag()) {
        st.synack_seen = true;
        st.to_client_stream.set_base(d.tcp->seq + 1);
      } else if (st.syn_seen && st.synack_seen && d.tcp->ack_flag()) {
        st.established = true;
      }
      if (!d.l4_payload.empty()) {
        StreamBuffer& stream =
            to_server ? st.to_server_stream : st.to_client_stream;
        stream.set_base(d.tcp->seq);
        stream.add_segment(d.tcp->seq, d.l4_payload);
      }
    }
    return FlowContext{&st, to_server};
  }

  size_t expire(SimTime now) {
    size_t evicted = 0;
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (now - it->second.last_seen > idle_timeout_) {
        it = flows_.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
    return evicted;
  }

  size_t flow_count() const { return flows_.size(); }
  size_t buffered_bytes() const {
    size_t total = 0;
    for (const auto& [k, st] : flows_) {
      total += st.to_server_stream.buffered_bytes();
      total += st.to_client_stream.buffered_bytes();
    }
    return total;
  }

 private:
  size_t stream_cap_;
  Duration idle_timeout_;
  std::map<FlowKey, FlowState> flows_;
};

common::Bytes wire(const IpAddress& src, const IpAddress& dst, uint16_t sp,
                   uint16_t dp, bool tcp, uint8_t flags, uint32_t seq,
                   const common::Bytes& payload) {
  if (src.is_v6()) {
    return tcp ? packet::make_tcp6(src.v6(), dst.v6(), sp, dp, flags, seq, 1,
                                   payload)
                     .data()
               : packet::make_udp6(src.v6(), dst.v6(), sp, dp, payload).data();
  }
  return tcp ? packet::make_tcp(src.v4(), dst.v4(), sp, dp, flags, seq, 1,
                                payload)
                   .data()
             : packet::make_udp(src.v4(), dst.v4(), sp, dp, payload).data();
}

TEST(FlowTableHashed, MatchesOrderedReferenceOverMixedFamilyStream) {
  const Duration kIdle = Duration::seconds(1);
  FlowTable table(256, kIdle);
  RefFlowTable ref(256, kIdle);
  common::Rng rng(0xF10A7AB1E);

  struct Flow {
    IpAddress client, server;
    uint16_t client_port, server_port;
    bool tcp;
  };
  std::vector<Flow> flows;
  // Every v4 address drawn is also reused as its map_v6 image and as a
  // bare v6 address with the same low bits, so families sharing address
  // bits and ports are all live at once.
  auto draw_address = [&](int family) -> IpAddress {
    auto v4 = Ipv4Address(static_cast<uint32_t>(
        0x0A000000u | rng.bounded(1u << 12)));
    if (family == 0) return v4;
    if (family == 1) return common::map_v6(v4);
    return common::Ipv6Address(0, v4.value());
  };

  SimTime now(0);
  size_t expired = 0;
  constexpr int kPackets = 90'000;
  for (int i = 0; i < kPackets; ++i) {
    now = now + Duration(1 + static_cast<int64_t>(rng.bounded(120'000)));
    if (flows.empty() || rng.chance(0.28)) {
      int family = static_cast<int>(rng.bounded(3));
      flows.push_back(Flow{draw_address(family), draw_address(family),
                           static_cast<uint16_t>(1024 + rng.bounded(8)),
                           static_cast<uint16_t>(rng.chance(0.5) ? 80 : 53),
                           rng.chance(0.7)});
    }
    const Flow& f = flows[rng.bounded(flows.size())];
    bool from_client = rng.chance(0.6);
    uint8_t flags = TcpFlags::kAck;
    switch (rng.bounded(4)) {
      case 0: flags = TcpFlags::kSyn; break;
      case 1: flags = TcpFlags::kSyn | TcpFlags::kAck; break;
      default: break;
    }
    common::Bytes payload(rng.bounded(3) == 0 ? 0 : rng.bounded(48), 0);
    for (auto& b : payload) b = static_cast<uint8_t>(rng.next());
    uint32_t seq = static_cast<uint32_t>(1000 + rng.bounded(400));
    common::Bytes bytes =
        from_client ? wire(f.client, f.server, f.client_port, f.server_port,
                           f.tcp, flags, seq, payload)
                    : wire(f.server, f.client, f.server_port, f.client_port,
                           f.tcp, flags, seq, payload);
    auto d = packet::decode(bytes);
    ASSERT_TRUE(d.has_value());

    FlowContext got = table.update(now, *d);
    FlowContext want = ref.update(now, *d);
    ASSERT_NE(got.state, nullptr);
    ASSERT_EQ(got.to_server, want.to_server) << "packet " << i;
    ASSERT_EQ(got.state->established, want.state->established) << i;
    ASSERT_EQ(got.state->client, want.state->client) << i;
    ASSERT_EQ(got.state->packets_to_server, want.state->packets_to_server);
    ASSERT_EQ(got.state->packets_to_client, want.state->packets_to_client);
    const StreamBuffer& gs = got.to_server ? got.state->to_server_stream
                                           : got.state->to_client_stream;
    const StreamBuffer& ws = want.to_server ? want.state->to_server_stream
                                            : want.state->to_client_stream;
    ASSERT_TRUE(std::ranges::equal(gs.contiguous(), ws.contiguous())) << i;
    ASSERT_EQ(table.flow_count(), ref.flow_count()) << i;

    if (i % 1000 == 999) {
      ASSERT_EQ(table.buffered_bytes(), ref.buffered_bytes()) << i;
    }
    if (i % 4096 == 4095) {
      size_t n = table.expire(now);
      ASSERT_EQ(n, ref.expire(now)) << i;
      expired += n;
      ASSERT_EQ(table.flow_count(), ref.flow_count());
    }
  }
  // The stream really was large and churny: >= 20k flows created, the
  // table rehashed many times, and expiry recycled states.
  EXPECT_GE(flows.size(), 20'000u);
  EXPECT_GT(expired, 1'000u);
  EXPECT_EQ(table.buffered_bytes(), ref.buffered_bytes());
  EXPECT_EQ(table.expire(now + Duration::seconds(10)),
            ref.expire(now + Duration::seconds(10)));
  EXPECT_EQ(table.flow_count(), 0u);
  EXPECT_EQ(table.buffered_bytes(), 0u);
}

TEST(FlowTableHashed, V4AndV6KeysWithSamePortsNeverAlias) {
  FlowTable table;
  const Ipv4Address c4(10, 0, 0, 1), s4(10, 0, 0, 2);
  const IpAddress clients[] = {c4, common::map_v6(c4),
                               common::Ipv6Address(0, c4.value())};
  const IpAddress servers[] = {s4, common::map_v6(s4),
                               common::Ipv6Address(0, s4.value())};
  std::vector<FlowState*> states;
  for (int fam = 0; fam < 3; ++fam) {
    common::Bytes bytes = wire(clients[fam], servers[fam], 1000, 80, true,
                               TcpFlags::kSyn, 7, {});
    auto d = packet::decode(bytes);
    ASSERT_TRUE(d.has_value());
    FlowContext fc = table.update(SimTime(fam), *d);
    ASSERT_NE(fc.state, nullptr);
    EXPECT_TRUE(fc.to_server);
    EXPECT_EQ(fc.state->packets_to_server, 1u) << "family " << fam;
    states.push_back(fc.state);
  }
  EXPECT_EQ(table.flow_count(), 3u);
  EXPECT_NE(states[0], states[1]);
  EXPECT_NE(states[0], states[2]);
  EXPECT_NE(states[1], states[2]);

  // The SYN-ACK of the v4 flow touches only the v4 state.
  common::Bytes bytes = wire(servers[0], clients[0], 80, 1000, true,
                             TcpFlags::kSyn | TcpFlags::kAck, 9, {});
  FlowContext fc = table.update(SimTime(9), *packet::decode(bytes));
  EXPECT_EQ(fc.state, states[0]);
  EXPECT_FALSE(fc.to_server);
  EXPECT_TRUE(states[0]->synack_seen);
  EXPECT_FALSE(states[1]->synack_seen);
  EXPECT_FALSE(states[2]->synack_seen);
}

}  // namespace
}  // namespace sm::ids
