// The provenance layer: causal event graph, alert attribution, the
// explain narrative, the Chrome trace renderer, and the end-to-end
// byte-determinism contract.
//
// The graph is the observability tentpole behind every verdict: probe
// attempts cause packets, packets cause per-hop and tap events, stored
// MVR alerts hang off the packet that triggered them, and the verdict
// references the evidence conclude() used. These tests pin (a) the ring
// mechanics, (b) chain walking and attribution through real testbed
// runs, (c) byte-identical export across campaign thread counts and
// shard modes, and (d) the checked-in golden fixtures for one censored
// and one clean E2-style scenario.
//
// Regenerate fixtures after an intentional format change:
//   UPDATE_GOLDEN=1 ./build/tests/test_provenance
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "censor/gfc.hpp"
#include "core/mimicry.hpp"
#include "core/overt.hpp"
#include "core/ping.hpp"
#include "core/probe.hpp"
#include "core/scan.hpp"
#include "core/risk.hpp"
#include "core/synprobe.hpp"
#include "common/strings.hpp"
#include "obs/provenance.hpp"
#include "simcheck/json.hpp"

using namespace sm;
using common::SimTime;
using obs::ProvenanceGraph;
using obs::ProvKind;

namespace {

std::string golden_path(const std::string& name) {
  return std::string(SM_TEST_DIR) + "/golden/" + name;
}

void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("UPDATE_GOLDEN")) {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture " << path
                  << " (run with UPDATE_GOLDEN=1 to create it)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), actual)
      << "provenance export drifted from " << path
      << "; if intentional, regenerate with UPDATE_GOLDEN=1 and review "
         "the fixture diff";
}

core::TestbedConfig prov_config() {
  core::TestbedConfig cfg;
  cfg.enable_provenance = true;
  return cfg;
}

}  // namespace

// --- Graph mechanics ---------------------------------------------------

TEST(ProvenanceGraph, RecordAssignsDenseIdsAndKeepsLinks) {
  ProvenanceGraph g;
  uint64_t start = g.record(ProvKind::ProbeStart, SimTime(0), 0, 0, "ping",
                            "10.0.0.2");
  uint64_t attempt =
      g.record(ProvKind::Attempt, SimTime(10), start, 0, "attempt", "1");
  uint64_t pkt = g.record(ProvKind::PacketSent, SimTime(20), attempt, 0,
                          "icmp echo");
  EXPECT_EQ(start, 1u);
  EXPECT_EQ(attempt, 2u);
  EXPECT_EQ(pkt, 3u);
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.total(), 3u);
  ASSERT_NE(g.find(pkt), nullptr);
  EXPECT_EQ(g.find(pkt)->cause, attempt);
  EXPECT_EQ(g.chain(pkt), (std::vector<uint64_t>{pkt, attempt, start}));
  EXPECT_EQ(g.root_of(pkt), start);
  EXPECT_EQ(g.root_of(start), start);
}

TEST(ProvenanceGraph, DisabledGraphRecordsNothing) {
  ProvenanceGraph g;
  g.set_enabled(false);
  EXPECT_EQ(g.record(ProvKind::ProbeStart, SimTime(0), 0, 0, "x"), 0u);
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.total(), 0u);
}

TEST(ProvenanceGraph, RingDropsOldestAndCountsExactly) {
  ProvenanceGraph g(4);
  for (int i = 0; i < 10; ++i) {
    g.record(ProvKind::Forward, SimTime(i), 0, 0,
             "r" + std::to_string(i));
  }
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.total(), 10u);
  EXPECT_EQ(g.dropped(), 6u);
  auto events = g.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained is id 7 (events 1..6 fell off); order chronological.
  EXPECT_EQ(events.front().id, 7u);
  EXPECT_EQ(events.back().id, 10u);
  // Evicted ids are gone, retained ones still resolve.
  EXPECT_EQ(g.find(3), nullptr);
  ASSERT_NE(g.find(8), nullptr);
  EXPECT_EQ(g.what(*g.find(8)), "r7");
}

TEST(ProvenanceGraph, ChainStopsAtEvictedAncestor) {
  ProvenanceGraph g(3);
  uint64_t a = g.record(ProvKind::ProbeStart, SimTime(0), 0, 0, "a");
  uint64_t b = g.record(ProvKind::Attempt, SimTime(1), a, 0, "b");
  uint64_t c = g.record(ProvKind::PacketSent, SimTime(2), b, 0, "c");
  uint64_t d = g.record(ProvKind::Forward, SimTime(3), c, 0, "d");
  // `a` has been evicted (capacity 3); the chain walks to the last
  // retained ancestor and root_of reports it.
  EXPECT_EQ(g.chain(d), (std::vector<uint64_t>{d, c, b}));
  EXPECT_EQ(g.root_of(d), b);
}

TEST(ProvenanceGraph, ExportAfterWrapIsDeterministic) {
  auto build = [] {
    ProvenanceGraph g(8);
    for (int i = 0; i < 40; ++i) {
      g.record(i % 2 ? ProvKind::Forward : ProvKind::Drop, SimTime(i * 5),
               static_cast<uint64_t>(i), 0, "hop", "detail");
    }
    return g.to_json();
  };
  std::string first = build();
  EXPECT_EQ(first, build());
  EXPECT_NE(first.find("\"dropped\":32"), std::string::npos);
  EXPECT_NE(first.find("\"total\":40"), std::string::npos);
}

TEST(ProvenanceGraph, AppendRawRebuildsIdenticalExport) {
  ProvenanceGraph g;
  uint64_t s = g.record(ProvKind::ProbeStart, SimTime(0), 0, 0, "syn-reach",
                        "10.0.0.2:80");
  uint64_t a = g.record(ProvKind::Attempt, SimTime(100), s, 0, "attempt",
                        "1");
  uint64_t p = g.record(ProvKind::PacketSent, SimTime(200), a, 0,
                        "tcp 10.0.0.1:50000>10.0.0.2:80");
  uint64_t e = g.record(ProvKind::Evidence, SimTime(300), a, p, "syn-ack");
  g.record_verdict(SimTime(400), s, "reachable", "open confirmed", {e});

  ProvenanceGraph rebuilt;
  for (const obs::ProvEvent& ev : g.events()) rebuilt.append_raw(ev);
  EXPECT_EQ(rebuilt.to_json(), g.to_json());
  EXPECT_EQ(rebuilt.root_of(e), s);
}

TEST(ProvenanceGraph, AppendRawCountsIdGapsAsDrops) {
  ProvenanceGraph g;
  obs::ProvEvent ev;
  ev.id = 5;  // events 1..4 were dropped before export
  ev.kind = ProvKind::Forward;
  ev.what = "hop";
  g.append_raw(ev);
  EXPECT_EQ(g.total(), 5u);
  EXPECT_EQ(g.dropped(), 4u);
}

TEST(ProvenanceGraph, KindNamesRoundTrip) {
  for (int k = 0; k <= static_cast<int>(ProvKind::Verdict); ++k) {
    auto kind = static_cast<ProvKind>(k);
    auto parsed = obs::prov_kind_from_string(obs::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << obs::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(obs::prov_kind_from_string("no-such-kind").has_value());
}

TEST(ProvenanceGraph, SummarizeWire) {
  packet::Packet p = packet::make_tcp(
      common::Ipv4Address(10, 0, 0, 1), common::Ipv4Address(10, 0, 0, 2),
      1234, 80, packet::TcpFlags::kSyn, 1, 0);
  EXPECT_EQ(obs::summarize_wire(p.data().data(), p.size()),
            "tcp 10.0.0.1:1234>10.0.0.2:80");
  uint8_t garbage[4] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_EQ(obs::summarize_wire(garbage, sizeof(garbage)), "raw");
}

// --- Ring semantics: differential against an eager reference ----------
//
// The graph stores POD records in a ring that allocates on demand and
// renders text at export. RefGraph is the straightforward eager model it
// replaced: a deque of materialized events, evicting from the front.
// Every observable (events, export bytes, counters, find/chain/root_of)
// must agree after every single record.

namespace {

std::string reference_summary(const uint8_t* data, size_t len) {
  if (data == nullptr || len < 20 || (data[0] >> 4) != 4) return "raw";
  const size_t ihl = static_cast<size_t>(data[0] & 0x0f) * 4;
  const uint8_t proto = data[9];
  auto ip = [](const uint8_t* p) {
    return common::format("%u.%u.%u.%u", p[0], p[1], p[2], p[3]);
  };
  std::string src = ip(data + 12), dst = ip(data + 16);
  const char* name = proto == 6    ? "tcp"
                     : proto == 17 ? "udp"
                     : proto == 1  ? "icmp"
                                   : nullptr;
  if ((proto == 6 || proto == 17) && len >= ihl + 4) {
    return common::format("%s %s:%u>%s:%u", name, src.c_str(),
                          data[ihl] << 8 | data[ihl + 1], dst.c_str(),
                          data[ihl + 2] << 8 | data[ihl + 3]);
  }
  if (name != nullptr) {
    return common::format("%s %s>%s", name, src.c_str(), dst.c_str());
  }
  return common::format("proto=%u %s>%s", proto, src.c_str(), dst.c_str());
}

std::string reference_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

struct RefGraph {
  explicit RefGraph(size_t cap) : capacity(cap) {}

  size_t capacity;
  std::deque<obs::ProvEvent> ring;
  uint64_t total = 0;
  uint64_t dropped = 0;

  void push(obs::ProvEvent ev) {
    if (ring.size() == capacity) {
      ring.pop_front();
      ++dropped;
    }
    ring.push_back(std::move(ev));
  }
  void set_capacity(size_t cap) {
    capacity = std::max<size_t>(1, cap);
    while (ring.size() > capacity) {
      ring.pop_front();
      ++dropped;
    }
  }
  const obs::ProvEvent* find(uint64_t id) const {
    auto it = std::lower_bound(
        ring.begin(), ring.end(), id,
        [](const obs::ProvEvent& ev, uint64_t want) { return ev.id < want; });
    return it != ring.end() && it->id == id ? &*it : nullptr;
  }
  std::vector<uint64_t> chain(uint64_t id) const {
    std::vector<uint64_t> out;
    for (uint64_t cur = id; cur != 0;) {
      const obs::ProvEvent* ev = find(cur);
      if (ev == nullptr) break;
      out.push_back(cur);
      if (ev->cause >= cur) break;
      cur = ev->cause;
    }
    return out;
  }
  std::string to_json() const {
    std::string out = "{\"events\":[";
    for (size_t i = 0; i < ring.size(); ++i) {
      const obs::ProvEvent& ev = ring[i];
      if (i) out += ',';
      out += "{\"id\":" + std::to_string(ev.id) +
             ",\"cause\":" + std::to_string(ev.cause);
      if (ev.packet) out += ",\"packet\":" + std::to_string(ev.packet);
      out += ",\"t\":" + std::to_string(ev.ts.count()) + ",\"kind\":\"" +
             std::string(obs::to_string(ev.kind)) + "\",\"what\":\"" +
             reference_escape(ev.what) + "\"";
      if (!ev.detail.empty())
        out += ",\"detail\":\"" + reference_escape(ev.detail) + "\"";
      if (!ev.refs.empty()) {
        out += ",\"refs\":[";
        for (size_t r = 0; r < ev.refs.size(); ++r)
          out += (r ? "," : "") + std::to_string(ev.refs[r]);
        out += "]";
      }
      out += "}";
    }
    return out + "],\"total\":" + std::to_string(total) +
           ",\"dropped\":" + std::to_string(dropped) + "}";
  }
};

/// Wire images covering every summary form: TCP and UDP with ports, a
/// TCP header cut before its ports, ICMP, an unnamed protocol, v6, junk.
std::vector<common::Bytes> wire_samples() {
  using common::Ipv4Address;
  std::vector<common::Bytes> out;
  auto bytes = [](const packet::Packet& p) {
    return common::Bytes(p.data().begin(), p.data().end());
  };
  out.push_back(bytes(packet::make_tcp(Ipv4Address(10, 0, 0, 1),
                                       Ipv4Address(192, 168, 255, 254),
                                       65535, 80, packet::TcpFlags::kSyn,
                                       1, 0)));
  out.push_back(bytes(packet::make_udp(Ipv4Address(10, 1, 1, 10),
                                       Ipv4Address(198, 18, 0, 53), 40000,
                                       53, common::Bytes(12, 0x41))));
  common::Bytes cut = out[0];
  cut.resize(22);  // IPv4 header + half a TCP header: no ports
  out.push_back(cut);
  common::Bytes icmp = out[1];
  icmp[9] = 1;
  out.push_back(icmp);
  common::Bytes gre = out[1];
  gre[9] = 47;
  out.push_back(gre);
  out.push_back(bytes(packet::make_tcp6(
      common::map_v6(Ipv4Address(10, 0, 0, 1)),
      common::map_v6(Ipv4Address(10, 0, 0, 2)), 1, 2,
      packet::TcpFlags::kSyn, 1, 0)));
  out.push_back(common::Bytes{0x45, 0x00});
  return out;
}

/// Records event `step` into both graphs: a deterministic mix of every
/// kind, wire packets, labels needing escapes, empty details, backward
/// causes (some out of the window) and verdicts with refs.
void record_step(ProvenanceGraph& g, RefGraph& ref, uint64_t step,
                 const std::vector<common::Bytes>& wires) {
  static const char* kLabels[] = {"switch", "forward", "keyword-rst",
                                  "corrupted", "na\"me\\x", "line\nbreak"};
  const uint64_t id = ref.total + 1;
  obs::ProvEvent ev;
  ev.id = id;
  ev.ts = SimTime(static_cast<int64_t>(step * 7919 % 100000));
  ev.cause = step % 5 == 0 ? 0 : id - 1 - step % 3;
  ev.packet = step % 4 == 0 ? 0 : id / 2;
  uint64_t got = 0;
  if (step % 6 == 1) {
    const common::Bytes& w = wires[step % wires.size()];
    ev.kind = ProvKind::PacketSent;
    ev.cause = g.current_cause();
    ev.packet = 0;
    ev.what = reference_summary(w.data(), w.size());
    got = g.record_packet(ev.ts, w.data(), w.size());
  } else if (step % 9 == 4) {
    ev.kind = ProvKind::Verdict;
    ev.packet = 0;
    ev.what = "blocked-rst";
    ev.detail = step % 2 ? "rst confirmed" : "";
    for (uint64_t r = 1; r <= step % 4; ++r) ev.refs.push_back(id - r);
    got = g.record_verdict(ev.ts, ev.cause, ev.what, ev.detail, ev.refs);
  } else {
    ev.kind = static_cast<ProvKind>(step % 14);
    ev.what = kLabels[step % 6];
    ev.detail = step % 3 ? "" : kLabels[(step / 3) % 6];
    got = g.record(ev.kind, ev.ts, ev.cause, ev.packet, ev.what, ev.detail);
  }
  ASSERT_EQ(got, id);
  ref.total = id;
  ref.push(std::move(ev));
}

void expect_same(const ProvenanceGraph& g, const RefGraph& ref) {
  ASSERT_EQ(g.size(), ref.ring.size());
  ASSERT_EQ(g.total(), ref.total);
  ASSERT_EQ(g.dropped(), ref.dropped);
  ASSERT_EQ(g.to_json(), ref.to_json());
  const std::vector<obs::ProvEvent> events = g.events();
  ASSERT_EQ(events.size(), ref.ring.size());
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::ProvEvent& a = events[i];
    const obs::ProvEvent& b = ref.ring[i];
    ASSERT_EQ(a.id, b.id);
    ASSERT_EQ(a.cause, b.cause);
    ASSERT_EQ(a.packet, b.packet);
    ASSERT_EQ(a.ts, b.ts);
    ASSERT_EQ(a.kind, b.kind);
    ASSERT_EQ(a.what, b.what);
    ASSERT_EQ(a.detail, b.detail);
    ASSERT_EQ(a.refs, b.refs);
    ASSERT_EQ(g.at(i).id, b.id);
  }
  // Every retained id, the evicted ones just below the window, and the
  // never-issued 0 and total+1.
  const uint64_t oldest = ref.ring.empty() ? ref.total + 1 : ref.ring[0].id;
  std::vector<uint64_t> ids = {0, ref.total + 1};
  for (uint64_t id = oldest > 3 ? oldest - 3 : 1; id <= ref.total; ++id)
    ids.push_back(id);
  for (uint64_t id : ids) {
    const obs::ProvRecord* rec = g.find(id);
    const obs::ProvEvent* want = ref.find(id);
    ASSERT_EQ(rec != nullptr, want != nullptr) << "id " << id;
    if (rec != nullptr) {
      ASSERT_EQ(rec->id, id);
      ASSERT_EQ(g.what(*rec), want->what);
    }
    const std::vector<uint64_t> chain = ref.chain(id);
    ASSERT_EQ(g.chain(id), chain) << "id " << id;
    ASSERT_EQ(g.root_of(id), chain.empty() ? 0 : chain.back());
  }
}

std::vector<size_t> ring_capacities() {
  const size_t chunk = obs::ChunkedRing<obs::ProvRecord>::kChunk;
  return {1, 2, 3, 7, 64, chunk - 1, chunk, chunk + 1};
}

}  // namespace

class ProvenanceRingSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ProvenanceRingSweep, MatchesEagerReferenceAtEveryRecordCount) {
  const auto wires = wire_samples();
  const size_t cap = GetParam();
  ProvenanceGraph g(cap);
  RefGraph ref{cap};
  EXPECT_EQ(g.capacity(), cap);
  expect_same(g, ref);  // zero records
  for (uint64_t step = 0; step < 3 * cap; ++step) {
    record_step(g, ref, step, wires);
    expect_same(g, ref);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(g.capacity(), cap);
}

// 1, 2, 3, 7, 64 and the chunk size - 1, exactly, + 1.
INSTANTIATE_TEST_SUITE_P(Capacities, ProvenanceRingSweep,
                         ::testing::ValuesIn(ring_capacities()));

TEST(ProvenanceRing, SetCapacityShrinksAndGrowsWhileGrowing) {
  const auto wires = wire_samples();
  const size_t chunk = obs::ChunkedRing<obs::ProvRecord>::kChunk;
  ProvenanceGraph g(3 * chunk);
  RefGraph ref{3 * chunk};
  uint64_t step = 0;
  auto run = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) record_step(g, ref, step++, wires);
  };
  run(chunk + 10);  // still growing: two chunks, not yet wrapped
  for (size_t cap : {size_t{40}, size_t{0}, size_t{5}, 2 * chunk + 3,
                     size_t{7}}) {
    SCOPED_TRACE("set_capacity " + std::to_string(cap));
    g.set_capacity(cap);
    ref.set_capacity(cap);
    EXPECT_EQ(g.capacity(), std::max<size_t>(1, cap));
    expect_same(g, ref);
    run(cap / 2 + 1);
    expect_same(g, ref);
    run(2 * cap + 3);  // wrap at the new bound
    expect_same(g, ref);
    if (HasFatalFailure()) return;
  }
}

TEST(ProvenanceRing, ClearThenReuse) {
  const auto wires = wire_samples();
  ProvenanceGraph g(64);
  RefGraph ref{64};
  uint64_t step = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 150; ++i) record_step(g, ref, step++, wires);
    expect_same(g, ref);
    g.clear();
    ref = RefGraph{64};
    expect_same(g, ref);
    EXPECT_EQ(g.current_cause(), 0u);
  }
  record_step(g, ref, step, wires);
  expect_same(g, ref);
}

TEST(ProvenanceRing, AppendRawWithIdGapsStaysFindable) {
  // A sparse graph (as rebuilt from an export whose ring dropped events)
  // falls back from index arithmetic to a search; both agree with the
  // reference, and record() continues densely after the last raw id.
  const auto wires = wire_samples();
  ProvenanceGraph source(1 << 12);
  RefGraph source_ref{1 << 12};
  for (uint64_t step = 0; step < 600; ++step)
    record_step(source, source_ref, step, wires);

  for (size_t cap : ring_capacities()) {
    SCOPED_TRACE("capacity " + std::to_string(cap));
    ProvenanceGraph g(cap);
    RefGraph ref{cap};
    for (const obs::ProvEvent& ev : source.events()) {
      if (ev.id % 7 == 3 || (ev.id > 200 && ev.id < 230)) continue;  // gaps
      ref.dropped += ev.id - ref.total - 1;
      ref.total = ev.id;
      ref.push(ev);
      g.append_raw(ev);
    }
    expect_same(g, ref);
    // Out-of-order and zero ids are ignored.
    obs::ProvEvent stale;
    stale.id = 5;
    g.append_raw(stale);
    stale.id = 0;
    g.append_raw(stale);
    expect_same(g, ref);
    for (uint64_t step = 0; step < cap + 3; ++step) {
      record_step(g, ref, step, wires);
    }
    expect_same(g, ref);
    if (HasFatalFailure()) return;
  }
}

TEST(ProvenanceRing, LateEnableRecordsFromThenOn) {
  const auto wires = wire_samples();
  ProvenanceGraph g(8);
  g.set_enabled(false);
  EXPECT_EQ(g.record(ProvKind::Forward, SimTime(1), 0, 0, "r"), 0u);
  EXPECT_EQ(g.record_packet(SimTime(2), wires[0].data(), wires[0].size()),
            0u);
  EXPECT_EQ(g.record_verdict(SimTime(3), 0, "x", "", {1}), 0u);
  EXPECT_EQ(g.total(), 0u);
  EXPECT_EQ(g.to_json(), "{\"events\":[],\"total\":0,\"dropped\":0}");
  g.set_enabled(true);
  RefGraph ref{8};
  for (uint64_t step = 0; step < 20; ++step) {
    record_step(g, ref, step, wires);
  }
  expect_same(g, ref);
}

TEST(ProvenanceRing, FindPointerSurvivesGrowth) {
  const size_t chunk = obs::ChunkedRing<obs::ProvRecord>::kChunk;
  ProvenanceGraph g(8 * chunk);
  for (int i = 0; i < 10; ++i)
    g.record(ProvKind::Forward, SimTime(i), 0, 0, "r" + std::to_string(i));
  const obs::ProvRecord* five = g.find(5);
  ASSERT_NE(five, nullptr);
  // Grow across several chunk boundaries (and intern many more labels).
  for (size_t i = 10; i < 5 * chunk; ++i)
    g.record(ProvKind::Drop, SimTime(i), i, 0, "d" + std::to_string(i));
  EXPECT_EQ(g.find(5), five);
  EXPECT_EQ(five->id, 5u);
  EXPECT_EQ(g.what(*five), "r4");
}

TEST(ProvenanceRing, FindIsDirectOnA50kEventGraph) {
  // One 50,000-link cause chain plus an alert per 100 events: chain(),
  // attribute_alerts() and explain_text() each call find() once per step,
  // which a backward scan made quadratic in the graph size.
  constexpr uint64_t kEvents = 50'000;
  ProvenanceGraph g(kEvents);
  uint64_t start =
      g.record(ProvKind::ProbeStart, SimTime(0), 0, 0, "ping", "10.0.0.2");
  uint64_t last = start;
  size_t alerts = 0;
  while (g.total() < kEvents) {
    if (g.total() % 100 == 50) {
      uint64_t ids = g.record(ProvKind::IdsAlert, SimTime(1), last, last,
                              "sid=1", "attempted-recon");
      g.record(ProvKind::AlertStored, SimTime(1), ids, last,
               "attempted-recon", "src=10.0.0.1 kind=targeted");
      ++alerts;
    } else {
      last = g.record(ProvKind::PacketSent, SimTime(1), last, 0, "hop");
    }
  }
  EXPECT_EQ(g.size(), kEvents);
  EXPECT_EQ(g.dropped(), 0u);
  EXPECT_EQ(g.root_of(last), start);
  EXPECT_EQ(g.chain(last).size(), kEvents - 2 * alerts);
  auto attributions = obs::attribute_alerts(g);
  ASSERT_EQ(attributions.size(), alerts);
  for (const auto& a : attributions) {
    EXPECT_EQ(a.root, start);
    EXPECT_TRUE(a.probe_caused);
  }
  // The oldest event falls off; every lookup still resolves by position.
  g.record(ProvKind::Forward, SimTime(2), last, last, "switch");
  EXPECT_EQ(g.find(1), nullptr);
  ASSERT_NE(g.find(2), nullptr);
  EXPECT_EQ(g.find(2)->id, 2u);
  EXPECT_EQ(g.find(kEvents + 1)->cause, last);
}

TEST(ProvenanceRing, VerdictRefsSurviveEvictionChurn) {
  // Verdict refs live in a side pool that is compacted as verdicts are
  // evicted; long churn must keep every retained verdict's refs intact.
  ProvenanceGraph g(16);
  RefGraph ref{16};
  for (uint64_t i = 0; i < 5000; ++i) {
    obs::ProvEvent ev;
    ev.id = i + 1;
    ev.kind = ProvKind::Verdict;
    ev.what = "reachable";
    for (uint64_t r = 0; r < 1 + i % 5; ++r) ev.refs.push_back(i - r);
    ASSERT_EQ(g.record_verdict(ev.ts, 0, ev.what, "", ev.refs), ev.id);
    ref.total = ev.id;
    ref.push(std::move(ev));
  }
  expect_same(g, ref);
}

// --- Through the testbed ----------------------------------------------

TEST(ProvenanceTestbed, DisabledByDefaultAndCostsNoEvents) {
  core::Testbed tb;
  EXPECT_EQ(tb.prov_sink(), nullptr);
  core::OvertDnsProbe probe(tb, {.domain = "open.example"});
  core::run_probe(tb, probe);
  EXPECT_EQ(tb.provenance_json(), "");
  EXPECT_EQ(tb.provenance().total(), 0u);
}

TEST(ProvenanceTestbed, VerdictCarriesEvidenceChain) {
  core::Testbed tb(prov_config());
  core::SynReachabilityProbe probe(
      tb, {.target = tb.addr().web_open, .port = 80});
  core::run_probe(tb, probe);
  const ProvenanceGraph& g = tb.provenance();
  ASSERT_GT(g.size(), 0u);

  const obs::ProvRecord* verdict = nullptr;
  const obs::ProvRecord* start = nullptr;
  for (const obs::ProvEvent& ev : g.events()) {
    if (ev.kind == ProvKind::Verdict) verdict = g.find(ev.id);
    if (ev.kind == ProvKind::ProbeStart) start = g.find(ev.id);
  }
  ASSERT_NE(start, nullptr);
  ASSERT_NE(verdict, nullptr);
  EXPECT_EQ(g.what(*verdict), "reachable");
  EXPECT_EQ(verdict->cause, start->id);
  ASSERT_FALSE(g.refs(*verdict).empty());
  // Every evidence ref chains back to the probe start.
  for (uint64_t ref : g.refs(*verdict)) {
    EXPECT_EQ(g.root_of(ref), start->id) << "evidence " << ref;
  }
  // The syn-ack evidence is packet-scoped? At minimum the probe's SYN
  // is in the graph as a PacketSent caused by the attempt.
  bool saw_probe_packet = false;
  for (const obs::ProvEvent& ev : g.events()) {
    if (ev.kind == ProvKind::PacketSent && g.root_of(ev.id) == start->id)
      saw_probe_packet = true;
  }
  EXPECT_TRUE(saw_probe_packet);
}

TEST(ProvenanceTestbed, CensorInjectionChainsToTriggeringPacket) {
  core::Testbed tb(prov_config());
  core::OvertHttpProbe probe(tb, {.domain = "blocked.example"});
  core::ProbeReport report = core::run_probe(tb, probe);
  EXPECT_EQ(report.verdict, core::Verdict::BlockedRst);
  const ProvenanceGraph& g = tb.provenance();

  // The censor's keyword-rst action must reference the packet that
  // tripped the rule, and that packet must trace back to the probe.
  const obs::ProvRecord* censor = nullptr;
  for (const obs::ProvEvent& ev : g.events()) {
    if (ev.kind == ProvKind::CensorAction && ev.what == "keyword-rst")
      censor = g.find(ev.id);
  }
  ASSERT_NE(censor, nullptr);
  ASSERT_NE(censor->cause, 0u);
  const obs::ProvRecord* trigger = g.find(censor->cause);
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->kind, ProvKind::PacketSent);
  const obs::ProvRecord* root = g.find(g.root_of(censor->id));
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->kind, ProvKind::ProbeStart);
}

TEST(ProvenanceTestbed, StoredAlertsResolveToCausingPackets) {
  // The acceptance scenario: a mimicry probe fetching a censored
  // keyword, with MVR surveillance watching. Every stored alert must
  // resolve through the graph to the packet that triggered it.
  core::TestbedConfig cfg = prov_config();
  core::Testbed tb(cfg);
  core::StatefulMimicryProbe probe(tb,
                                   {.path = "/search?q=falun",
                                    .cover_flows = 3});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));

  const ProvenanceGraph& g = tb.provenance();
  auto attributions = obs::attribute_alerts(g);
  // One AlertStored event per stored (non-noise) alert, MVR-wide —
  // the risk report's per-client counts are a subset of these.
  EXPECT_EQ(attributions.size(), tb.mvr->stats().interesting_alerts);
  for (const obs::AlertAttribution& a : attributions) {
    EXPECT_NE(a.packet, 0u) << "alert event " << a.alert
                            << " does not resolve to a packet";
    ASSERT_NE(g.find(a.packet), nullptr);
    EXPECT_EQ(g.find(a.packet)->kind, ProvKind::PacketSent);
    EXPECT_NE(a.root, 0u);
  }
  // The keyword flows are client traffic: at least one alert must be
  // probe-caused and the explain narrative must say so.
  if (!attributions.empty()) {
    std::string text = obs::explain_text(g);
    EXPECT_NE(text.find("alerts:"), std::string::npos);
  }
}

TEST(ProvenanceTestbed, OvertProbeAlertsAreProbeCaused) {
  core::Testbed tb(prov_config());
  core::OvertHttpProbe probe(tb, {.domain = "blocked.example",
                                  .user_agent = "OONI-Probe/2.0"});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));
  core::RiskReport risk = core::assess_risk(tb, "overt-http");
  ASSERT_GT(risk.targeted_alerts, 0u);

  auto attributions = obs::attribute_alerts(tb.provenance());
  ASSERT_FALSE(attributions.empty());
  size_t probe_caused = 0;
  for (const obs::AlertAttribution& a : attributions) {
    EXPECT_NE(a.packet, 0u);
    if (a.probe_caused) ++probe_caused;
  }
  EXPECT_GT(probe_caused, 0u)
      << "no stored alert chains back to the overt probe";
}

TEST(ProvenanceTestbed, ExplainTextRendersVerdictAndAlerts) {
  core::Testbed tb(prov_config());
  core::OvertHttpProbe probe(tb, {.domain = "blocked.example",
                                  .user_agent = "OONI-Probe/2.0"});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));
  std::string text = obs::explain_text(tb.provenance());
  EXPECT_NE(text.find("verdict"), std::string::npos) << text;
  EXPECT_NE(text.find("blocked-rst"), std::string::npos) << text;
  EXPECT_NE(text.find("alerts:"), std::string::npos) << text;
  EXPECT_NE(text.find("probe-caused"), std::string::npos) << text;
}

TEST(ProvenanceTestbed, SameSeedExportsAreByteIdentical) {
  auto run = [] {
    core::Testbed tb(prov_config());
    core::OvertHttpProbe probe(tb, {.domain = "blocked.example"});
    core::run_probe(tb, probe);
    tb.run_for(common::Duration::seconds(2));
    return tb.provenance_json();
  };
  std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST(ProvenanceTestbed, MetricsGaugesExportedOnlyWhenEnabled) {
  core::TestbedConfig cfg = prov_config();
  cfg.enable_observability = true;
  core::Testbed tb(cfg);
  core::OvertDnsProbe probe(tb, {.domain = "open.example"});
  core::run_probe(tb, probe);
  std::string json = tb.metrics_json();
  EXPECT_NE(json.find("sm_provenance_events_total"), std::string::npos);

  core::TestbedConfig off;
  off.enable_observability = true;
  core::Testbed tb2(off);
  core::OvertDnsProbe probe2(tb2, {.domain = "open.example"});
  core::run_probe(tb2, probe2);
  EXPECT_EQ(tb2.metrics_json().find("sm_provenance"), std::string::npos);
}

// --- Chrome trace rendering -------------------------------------------

namespace {

using simcheck::Json;

/// trace_event microseconds (three decimals) back to sim nanoseconds.
int64_t nanos(const Json& micros) {
  return std::llround(micros.as_double() * 1000.0);
}

struct Span {
  uint64_t id, cause;
  int64_t begin, end;
};

/// The complete ("X") spans named `name`, in trace order.
std::vector<Span> spans_named(const Json& trace, std::string_view name) {
  std::vector<Span> out;
  for (const Json& ev : trace.get("traceEvents")->items()) {
    if (ev.get("ph")->as_string() != "X" ||
        ev.get("name")->as_string() != name)
      continue;
    const Json* args = ev.get("args");
    const int64_t begin = nanos(*ev.get("ts"));
    out.push_back({static_cast<uint64_t>(args->get("id")->as_int()),
                   static_cast<uint64_t>(args->get("cause")->as_int()), begin,
                   begin + nanos(*ev.get("dur"))});
  }
  return out;
}

std::string scan_trace(size_t provenance_capacity) {
  core::TestbedConfig cfg = prov_config();
  cfg.provenance_capacity = provenance_capacity;
  cfg.neighbor_count = 4;
  // Null-route the target: every port stays silent, so every retry round
  // runs (the quickstart's scenario, with retries).
  cfg.policy.blocked_ips.push_back(core::TestbedAddresses{}.web_blocked);
  core::Testbed tb(cfg);
  core::ScanOptions options;
  options.target = tb.addr().web_blocked;
  options.ports = core::top_tcp_ports(20);
  options.retry.max_attempts = 3;
  core::ScanProbe probe(tb, options);
  core::run_probe(tb, probe);
  return obs::chrome_trace(tb.provenance());
}

}  // namespace

TEST(ChromeTrace, ScanNestsEveryAttemptInsideTheProbeSpan) {
  const std::string text = scan_trace(1 << 16);
  const auto trace = Json::parse(text);
  ASSERT_TRUE(trace.has_value()) << text.substr(0, 400);
  const std::vector<Span> probes = spans_named(*trace, "probe:scan");
  ASSERT_EQ(probes.size(), 1u);
  const Span& probe = probes[0];
  EXPECT_GT(probe.end, probe.begin);
  const std::vector<Span> attempts = spans_named(*trace, "attempt");
  ASSERT_GE(attempts.size(), 2u);  // the scan retries silent ports
  for (size_t i = 0; i < attempts.size(); ++i) {
    const Span& a = attempts[i];
    EXPECT_EQ(a.cause, probe.id);
    EXPECT_GE(a.begin, probe.begin) << "attempt " << a.id;
    EXPECT_LE(a.end, probe.end) << "attempt " << a.id;
    // Attempts tile the probe: each ends where the next begins.
    if (i + 1 < attempts.size()) {
      EXPECT_EQ(a.end, attempts[i + 1].begin);
    }
  }
  EXPECT_EQ(attempts.back().end, probe.end);  // the last one ends at the verdict

  // Everything else is an instant carrying the full causal record.
  bool saw_verdict = false;
  for (const Json& ev : trace->get("traceEvents")->items()) {
    if (ev.get("ph")->as_string() == "X") continue;
    EXPECT_EQ(ev.get("ph")->as_string(), "i");
    const Json* args = ev.get("args");
    for (const char* key : {"id", "cause", "packet", "what", "detail"}) {
      EXPECT_NE(args->get(key), nullptr) << key;
    }
    if (ev.get("name")->as_string() == "verdict") {
      saw_verdict = true;
      EXPECT_EQ(nanos(*ev.get("ts")), probe.end);
      EXPECT_EQ(static_cast<uint64_t>(args->get("cause")->as_int()),
                probe.id);
    }
  }
  EXPECT_TRUE(saw_verdict);
  const Json* other = trace->get("otherData");
  EXPECT_EQ(other->get("clock")->as_string(), "sim");
  EXPECT_EQ(other->get("dropped")->as_int(), 0);
}

TEST(ChromeTrace, SameSeedRerunIsByteIdentical) {
  const std::string first = scan_trace(1 << 16);
  EXPECT_EQ(first, scan_trace(1 << 16));
  // A wrapped ring renders deterministically too.
  EXPECT_EQ(scan_trace(64), scan_trace(64));
}

TEST(ChromeTrace, WrappedRingReportsDropsAndClosesEverySpan) {
  const std::string text = scan_trace(64);
  const auto trace = Json::parse(text);
  ASSERT_TRUE(trace.has_value());
  const Json* other = trace->get("otherData");
  EXPECT_GT(other->get("dropped")->as_int(), 0);
  EXPECT_EQ(other->get("dropped")->as_int() + 64, other->get("total")->as_int());
  EXPECT_EQ(trace->get("traceEvents")->items().size(), 64u);

  // Hand-built: probe A's start falls off the ring, probe B never gets a
  // verdict. Event i is recorded at i microseconds of sim time.
  ProvenanceGraph g(8);
  auto at = [](int us) { return SimTime(int64_t{us} * 1000); };
  const uint64_t a = g.record(ProvKind::ProbeStart, at(1), 0, 0, "scan");
  const uint64_t a1 = g.record(ProvKind::Attempt, at(2), a, 0, "attempt", "1");
  g.record(ProvKind::PacketSent, at(3), a1, 0, "tcp");
  g.record_verdict(at(4), a, "reachable", "open", {});
  const uint64_t b = g.record(ProvKind::ProbeStart, at(5), 0, 0, "ping");
  const uint64_t b1 = g.record(ProvKind::Attempt, at(6), b, 0, "attempt", "1");
  g.record(ProvKind::PacketSent, at(7), b1, 0, "icmp");
  const uint64_t b2 = g.record(ProvKind::Attempt, at(8), b, 0, "attempt", "2");
  g.record(ProvKind::PacketSent, at(9), b2, 0, "icmp\t\"x\"");
  ASSERT_EQ(g.dropped(), 1u);  // probe A's start

  const std::string hand = obs::chrome_trace(g);
  const auto parsed = Json::parse(hand);
  ASSERT_TRUE(parsed.has_value()) << hand;
  EXPECT_EQ(parsed->get("otherData")->get("dropped")->as_int(), 1);
  EXPECT_EQ(parsed->get("otherData")->get("total")->as_int(), 9);
  EXPECT_TRUE(spans_named(*parsed, "probe:scan").empty());
  const std::vector<Span> probes = spans_named(*parsed, "probe:ping");
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(probes[0].end, 9000);  // no verdict: the newest event closes it
  const std::vector<Span> attempts = spans_named(*parsed, "attempt");
  ASSERT_EQ(attempts.size(), 3u);
  EXPECT_EQ(attempts[0].id, a1);  // its start was evicted, its verdict was not
  EXPECT_EQ(attempts[0].end, 4000);
  EXPECT_EQ(attempts[1].end, 8000);  // ends where the next attempt begins
  EXPECT_EQ(attempts[2].end, 9000);
  EXPECT_NE(hand.find("\"ts\":9.000"), std::string::npos);
  EXPECT_NE(hand.find("\"what\":\"icmp\\t\\\"x\\\"\""), std::string::npos);

  // An empty graph still renders a loadable trace.
  const auto empty = Json::parse(obs::chrome_trace(ProvenanceGraph(4)));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->get("traceEvents")->items().empty());
}

TEST(ProvenanceGraph, JsonExportsEscapeEveryControlByte) {
  // A qname decoded from the wire keeps its raw label bytes, so a
  // dns-forgery detail can carry any byte; both exports must stay strict
  // JSON and read back to the original text.
  const std::string qname("a\tb\x01.twitter.com");
  ProvenanceGraph g;
  g.record(ProvKind::CensorAction, SimTime(0), 0, 0, "dns-forgery", qname);
  for (const std::string& json : {g.to_json(), obs::chrome_trace(g)}) {
    for (unsigned char c : json) ASSERT_GE(c, 0x20) << json;
    const auto doc = Json::parse(json);
    ASSERT_TRUE(doc.has_value()) << json;
    const Json* events = doc->get("events");
    const Json& ev = events != nullptr ? events->items().at(0)
                                       : *doc->get("traceEvents")
                                              ->items()
                                              .at(0)
                                              .get("args");
    EXPECT_EQ(ev.get("detail")->as_string(), qname);
  }
}

// --- Campaign integration ---------------------------------------------

namespace {

std::vector<campaign::Trial> provenance_trials() {
  std::vector<campaign::Trial> trials;
  const char* domains[] = {"blocked.example", "open.example",
                           "youtube.com", "twitter.com"};
  for (const char* domain : domains) {
    campaign::Trial t;
    t.name = std::string("overt-http/") + domain;
    t.config = prov_config();
    t.factory = [domain](core::Testbed& tb) {
      return std::make_unique<core::OvertHttpProbe>(
          tb, core::OvertHttpOptions{.domain = domain});
    };
    trials.push_back(std::move(t));
  }
  return trials;
}

}  // namespace

TEST(ProvenanceCampaign, JsonlByteIdenticalAcrossThreadsAndShardModes) {
  auto trials = provenance_trials();
  campaign::CampaignOptions base;
  base.threads = 1;
  std::string reference = campaign::run(trials, base).to_jsonl();
  EXPECT_NE(reference.find("\"provenance\":{\"events\":["),
            std::string::npos);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (campaign::Shard shard :
         {campaign::Shard::ByIndex, campaign::Shard::Dynamic}) {
      campaign::CampaignOptions opts;
      opts.threads = threads;
      opts.shard = shard;
      EXPECT_EQ(campaign::run(trials, opts).to_jsonl(), reference)
          << "threads=" << threads
          << " shard=" << (shard == campaign::Shard::ByIndex ? "ByIndex"
                                                             : "Dynamic");
    }
  }
}

TEST(ProvenanceCampaign, MixedFamilyJsonlByteIdenticalAcrossShardModes) {
  // Dual-stack determinism: v4 and v6 trials interleaved in one campaign
  // must serialize byte-identically across thread counts and shard
  // modes, provenance graphs included.
  core::TestbedAddresses addr;
  core::TestbedConfig censored = prov_config();
  censored.policy = censor::dropping_profile({addr.web_blocked});
  censored.policy.blocked_ips6 = {common::map_v6(addr.web_blocked)};

  std::vector<campaign::Trial> trials;
  for (const auto& [cfg_name, cfg] :
       {std::pair<std::string, core::TestbedConfig>{"clean", prov_config()},
        {"censored", censored}}) {
    for (bool v6 : {false, true}) {
      trials.push_back(campaign::Trial{
          .name = cfg_name + "/syn-reach" + (v6 ? "-v6" : "-v4"),
          .config = cfg,
          .factory = [v6](core::Testbed& tb) {
            return std::make_unique<core::SynReachabilityProbe>(
                tb, core::SynReachabilityOptions{
                        .target = tb.addr().web_blocked,
                        .port = 80,
                        .ipv6 = v6});
          }});
      trials.push_back(campaign::Trial{
          .name = cfg_name + "/ping" + (v6 ? "-v6" : "-v4"),
          .config = cfg,
          .factory = [v6](core::Testbed& tb) {
            return std::make_unique<core::PingProbe>(
                tb, core::PingOptions{.target = tb.addr().web_blocked,
                                      .ipv6 = v6});
          }});
    }
  }

  campaign::CampaignOptions base;
  base.threads = 1;
  std::string reference = campaign::run(trials, base).to_jsonl();
  // The matrix really contains both families and both outcomes.
  EXPECT_NE(reference.find("syn-reach-v6"), std::string::npos);
  EXPECT_NE(reference.find("\"verdict\":\"blocked-timeout\""),
            std::string::npos);
  EXPECT_NE(reference.find("\"verdict\":\"reachable\""), std::string::npos);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (campaign::Shard shard :
         {campaign::Shard::ByIndex, campaign::Shard::Dynamic}) {
      campaign::CampaignOptions opts;
      opts.threads = threads;
      opts.shard = shard;
      EXPECT_EQ(campaign::run(trials, opts).to_jsonl(), reference)
          << "threads=" << threads
          << " shard=" << (shard == campaign::Shard::ByIndex ? "ByIndex"
                                                             : "Dynamic");
    }
  }
}

TEST(ProvenanceCampaign, TelemetryTracksWorkersAndPhases) {
  auto trials = provenance_trials();
  size_t heartbeats = 0;
  size_t last_completed = 0;
  campaign::CampaignOptions opts;
  opts.threads = 2;
  opts.on_progress = [&](const campaign::Progress& p) {
    ++heartbeats;
    last_completed = p.completed;
    EXPECT_EQ(p.total, trials.size());
    EXPECT_GE(p.worker, 0);
  };
  campaign::CampaignResult result = campaign::run(trials, opts);
  EXPECT_EQ(heartbeats, trials.size());
  EXPECT_EQ(last_completed, trials.size());

  ASSERT_NE(result.telemetry, nullptr);
  std::string telemetry = result.telemetry->to_prometheus();
  EXPECT_NE(telemetry.find("sm_campaign_worker_trials_total"),
            std::string::npos);
  EXPECT_NE(telemetry.find("sm_campaign_phase_wall_nanoseconds_total"),
            std::string::npos);
  EXPECT_NE(telemetry.find("sm_campaign_trial_wall_seconds"),
            std::string::npos);
  EXPECT_NE(telemetry.find("sm_campaign_slow_trials"), std::string::npos);
  // Telemetry never leaks into the deterministic serialization.
  EXPECT_EQ(result.to_jsonl().find("sm_campaign_worker"),
            std::string::npos);

  for (const campaign::TrialResult& t : result.trials) {
    EXPECT_GE(t.wall_elapsed.count(), 0);
    EXPECT_GE(t.wall_setup.count(), 0);
    EXPECT_GE(t.wall_run.count(), 0);
    EXPECT_GE(t.wall_finish.count(), 0);
  }
}

// --- Golden fixtures ---------------------------------------------------

TEST(ProvenanceGolden, CensoredOvertHttp) {
  core::Testbed tb(prov_config());
  core::OvertHttpProbe probe(tb, {.domain = "blocked.example"});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));
  check_golden("provenance_censored.json", tb.provenance_json() + "\n");
}

TEST(ProvenanceGolden, CleanOvertHttp) {
  core::Testbed tb(prov_config());
  core::OvertHttpProbe probe(tb, {.domain = "open.example"});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));
  check_golden("provenance_clean.json", tb.provenance_json() + "\n");
}

TEST(ProvenanceGolden, CensoredV6SynReach) {
  // The v6 censored chain: a dual-stack null route silently eats the v6
  // SYNs, so the graph pins attempt → v6 packet → censor inline-drop →
  // blocked-timeout verdict.
  core::TestbedConfig cfg = prov_config();
  core::TestbedAddresses addr;
  cfg.policy = censor::dropping_profile({addr.web_blocked});
  cfg.policy.blocked_ips6 = {common::map_v6(addr.web_blocked)};
  core::Testbed tb(cfg);
  core::SynReachabilityProbe probe(
      tb, {.target = tb.addr().web_blocked, .port = 80, .ipv6 = true});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));
  check_golden("provenance_censored_v6.json", tb.provenance_json() + "\n");
}

TEST(ProvenanceGolden, CleanV6SynReach) {
  // The clean v6 chain: same probe, keyword-only default policy — the
  // SYN-ACK comes back over v6 and the verdict roots in it.
  core::Testbed tb(prov_config());
  core::SynReachabilityProbe probe(
      tb, {.target = tb.addr().web_blocked, .port = 80, .ipv6 = true});
  core::run_probe(tb, probe);
  tb.run_for(common::Duration::seconds(2));
  check_golden("provenance_clean_v6.json", tb.provenance_json() + "\n");
}
