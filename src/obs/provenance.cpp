#include "obs/provenance.hpp"

#include <algorithm>
#include <charconv>
#include <type_traits>

#include "common/strings.hpp"

namespace sm::obs {

static_assert(std::is_trivially_copyable_v<ProvRecord> &&
                  sizeof(ProvRecord) == 64,
              "a stored provenance event is one 64-byte POD");

namespace {

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  out.append(buf, end);
}

/// Sim nanoseconds -> trace_event microseconds. Three decimals keep full
/// nanosecond precision and render deterministically. Sim time never
/// runs negative.
void append_micros(std::string& out, int64_t nanos) {
  const auto n = static_cast<uint64_t>(nanos);
  append_int(out, n / 1000);
  const auto frac = static_cast<unsigned>(n % 1000);
  const char digits[] = {'.', static_cast<char>('0' + frac / 100),
                         static_cast<char>('0' + frac / 10 % 10),
                         static_cast<char>('0' + frac % 10)};
  out.append(digits, sizeof digits);
}

void append_ipv4(std::string& out, uint32_t addr) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    append_int(out, (addr >> shift) & 0xff);
    if (shift) out += '.';
  }
}

uint32_t load_be32(const uint8_t* p) {
  return uint32_t{p[0]} << 24 | uint32_t{p[1]} << 16 | uint32_t{p[2]} << 8 |
         uint32_t{p[3]};
}

/// Captures in `rec` exactly the header fields summarize_wire() prints.
void capture_wire(ProvRecord& rec, const uint8_t* data, size_t len) {
  if (data == nullptr || len < 20 || (data[0] >> 4) != 4) {
    rec.text = ProvText::Raw;
    return;
  }
  const size_t ihl = static_cast<size_t>(data[0] & 0x0f) * 4;
  rec.text = ProvText::V4;
  rec.proto = data[9];
  rec.src = load_be32(data + 12);
  rec.dst = load_be32(data + 16);
  if ((rec.proto == 6 || rec.proto == 17) && len >= ihl + 4) {
    rec.text = ProvText::V4Ports;
    rec.sport = static_cast<uint16_t>(data[ihl] << 8 | data[ihl + 1]);
    rec.dport = static_cast<uint16_t>(data[ihl + 2] << 8 | data[ihl + 3]);
  }
}

/// Renders a wire-form record: "tcp 10.0.0.1:1234>10.0.0.2:80",
/// "icmp 10.0.0.1>10.0.0.2", "proto=47 10.0.0.1>10.0.0.2" or "raw".
void append_wire(std::string& out, const ProvRecord& rec) {
  if (rec.text == ProvText::Raw) {
    out += "raw";
    return;
  }
  const char* name = rec.proto == 6    ? "tcp"
                     : rec.proto == 17 ? "udp"
                     : rec.proto == 1  ? "icmp"
                                       : nullptr;
  if (name != nullptr) {
    out += name;
  } else {
    out += "proto=";
    append_int(out, rec.proto);
  }
  out += ' ';
  append_ipv4(out, rec.src);
  if (rec.text == ProvText::V4Ports) {
    out += ':';
    append_int(out, rec.sport);
  }
  out += '>';
  append_ipv4(out, rec.dst);
  if (rec.text == ProvText::V4Ports) {
    out += ':';
    append_int(out, rec.dport);
  }
}

struct KindName {
  ProvKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {ProvKind::ProbeStart, "probe-start"},
    {ProvKind::Attempt, "attempt"},
    {ProvKind::PacketSent, "packet"},
    {ProvKind::Forward, "forward"},
    {ProvKind::Drop, "drop"},
    {ProvKind::Impair, "impair"},
    {ProvKind::CensorAction, "censor"},
    {ProvKind::IdsAlert, "ids-alert"},
    {ProvKind::MvrClassify, "mvr-classify"},
    {ProvKind::MvrSample, "mvr-sample"},
    {ProvKind::MvrDiscard, "mvr-discard"},
    {ProvKind::AlertStored, "alert-stored"},
    {ProvKind::Evidence, "evidence"},
    {ProvKind::Verdict, "verdict"},
};

}  // namespace

std::string_view to_string(ProvKind kind) {
  for (const auto& [k, name] : kKindNames) {
    if (k == kind) return name;
  }
  return "?";
}

std::optional<ProvKind> prov_kind_from_string(std::string_view s) {
  for (const auto& [k, name] : kKindNames) {
    if (name == s) return k;
  }
  return std::nullopt;
}

std::string summarize_wire(const uint8_t* data, size_t len) {
  ProvRecord rec;
  capture_wire(rec, data, len);
  std::string out;
  append_wire(out, rec);
  return out;
}

ProvenanceGraph::ProvenanceGraph(size_t capacity) : ring_(capacity) {}

void ProvenanceGraph::set_capacity(size_t capacity) {
  const size_t keep = std::min(ring_.size(), std::max<size_t>(1, capacity));
  for (size_t i = 0; i + keep < ring_.size(); ++i) {
    live_refs_ -= ring_[i].refs_len;
  }
  dropped_ += ring_.set_capacity(capacity);
}

void ProvenanceGraph::push(const ProvRecord& rec) {
  if (ring_.full()) {
    ++dropped_;
    live_refs_ -= ring_.front().refs_len;
  }
  ring_.push(rec);
}

uint32_t ProvenanceGraph::intern(std::string_view s) {
  if (s.empty()) return 0;
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const uint8_t* bytes =
      text_bytes_.copy(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  std::string_view stored(reinterpret_cast<const char*>(bytes), s.size());
  strings_.push_back(stored);
  const auto id = static_cast<uint32_t>(strings_.size());
  index_.emplace(stored, id);
  return id;
}

uint32_t ProvenanceGraph::store_refs(std::span<const uint64_t> refs) {
  if (refs.empty()) return 0;
  // Evicted verdicts leave their lists behind. Once that garbage
  // outweighs everything retained, rebuild the pool from the live lists:
  // the pool stays O(capacity) and each rebuild is paid for by the
  // garbage it removes.
  if (refs_.size() - live_refs_ > live_refs_ + ring_.size() + 1024) {
    std::vector<uint64_t> kept;
    kept.reserve(live_refs_ + refs.size());
    for (size_t i = 0; i < ring_.size(); ++i) {
      ProvRecord& rec = ring_[i];
      if (rec.refs_len == 0) continue;
      const uint64_t* from = refs_.data() + rec.refs_at;
      rec.refs_at = static_cast<uint32_t>(kept.size());
      kept.insert(kept.end(), from, from + rec.refs_len);
    }
    refs_.swap(kept);
  }
  const auto at = static_cast<uint32_t>(refs_.size());
  refs_.insert(refs_.end(), refs.begin(), refs.end());
  live_refs_ += refs.size();
  return at;
}

uint64_t ProvenanceGraph::record(ProvKind kind, common::SimTime ts,
                                 uint64_t cause, uint64_t packet,
                                 std::string_view what,
                                 std::string_view detail) {
  if (!enabled_) return 0;
  ProvRecord rec;
  rec.id = ++total_;
  rec.cause = cause;
  rec.packet = packet;
  rec.ts = ts;
  rec.kind = kind;
  rec.what = intern(what);
  rec.detail = intern(detail);
  push(rec);
  return total_;
}

uint64_t ProvenanceGraph::record_verdict(
    common::SimTime ts, uint64_t cause, std::string_view what,
    std::string_view detail, const std::vector<uint64_t>& evidence) {
  if (!enabled_) return 0;
  ProvRecord rec;
  rec.id = ++total_;
  rec.cause = cause;
  rec.ts = ts;
  rec.kind = ProvKind::Verdict;
  rec.what = intern(what);
  rec.detail = intern(detail);
  rec.refs_at = store_refs(evidence);
  rec.refs_len = static_cast<uint32_t>(evidence.size());
  push(rec);
  return total_;
}

uint64_t ProvenanceGraph::record_packet(common::SimTime ts,
                                        const uint8_t* data, size_t len) {
  if (!enabled_) return 0;
  ProvRecord rec;
  rec.id = ++total_;
  rec.cause = current_cause_;
  rec.ts = ts;
  rec.kind = ProvKind::PacketSent;
  capture_wire(rec, data, len);
  push(rec);
  return total_;
}

void ProvenanceGraph::append_raw(const ProvEvent& ev) {
  if (ev.id == 0 || ev.id <= total_) return;  // ids must strictly increase
  if (ev.id != total_ + 1) {
    dropped_ += ev.id - total_ - 1;  // gaps were drops upstream
    last_gap_ = ev.id;
  }
  total_ = ev.id;
  ProvRecord rec;
  rec.id = ev.id;
  rec.cause = ev.cause;
  rec.packet = ev.packet;
  rec.ts = ev.ts;
  rec.kind = ev.kind;
  rec.what = intern(ev.what);
  rec.detail = intern(ev.detail);
  rec.refs_at = store_refs(ev.refs);
  rec.refs_len = static_cast<uint32_t>(ev.refs.size());
  push(rec);
}

void ProvenanceGraph::clear() {
  ring_.clear();
  total_ = 0;
  dropped_ = 0;
  current_cause_ = 0;
  last_gap_ = 0;
  text_bytes_.reset();
  strings_.clear();
  index_.clear();
  refs_.clear();
  live_refs_ = 0;
}

const ProvRecord* ProvenanceGraph::find(uint64_t id) const {
  if (id == 0 || ring_.empty()) return nullptr;
  const uint64_t oldest = ring_.front().id;
  if (id < oldest || id > ring_.back().id) return nullptr;
  // Dense ids (every recorded graph): position is arithmetic.
  if (last_gap_ <= oldest) return &ring_[id - oldest];
  // append_raw() skipped ids inside the window; ids still increase.
  size_t lo = 0, hi = ring_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (ring_[mid].id < id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return ring_[lo].id == id ? &ring_[lo] : nullptr;
}

std::string_view ProvenanceGraph::text(uint32_t id) const {
  return id == 0 ? std::string_view() : strings_[id - 1];
}

std::string ProvenanceGraph::what(const ProvRecord& rec) const {
  if (rec.text == ProvText::Interned) return std::string(text(rec.what));
  std::string out;
  append_wire(out, rec);
  return out;
}

std::string_view ProvenanceGraph::detail(const ProvRecord& rec) const {
  return text(rec.detail);
}

std::span<const uint64_t> ProvenanceGraph::refs(const ProvRecord& rec) const {
  if (rec.refs_len == 0) return {};
  return {refs_.data() + rec.refs_at, rec.refs_len};
}

std::vector<ProvEvent> ProvenanceGraph::events() const {
  std::vector<ProvEvent> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    const ProvRecord& rec = ring_[i];
    const auto r = refs(rec);
    out.push_back(ProvEvent{rec.id, rec.cause, rec.packet, rec.ts, rec.kind,
                            what(rec), std::string(detail(rec)),
                            std::vector<uint64_t>(r.begin(), r.end())});
  }
  return out;
}

std::vector<uint64_t> ProvenanceGraph::chain(uint64_t id) const {
  std::vector<uint64_t> out;
  uint64_t cur = id;
  // Causes always point backward (cause < id), so the walk terminates;
  // the guard is belt-and-braces against corrupt deserialized input.
  while (cur != 0 && out.size() <= ring_.size()) {
    const ProvRecord* rec = find(cur);
    if (rec == nullptr) break;
    out.push_back(cur);
    if (rec->cause >= cur) break;
    cur = rec->cause;
  }
  return out;
}

uint64_t ProvenanceGraph::root_of(uint64_t id) const {
  std::vector<uint64_t> c = chain(id);
  return c.empty() ? 0 : c.back();
}

std::string ProvenanceGraph::to_json() const {
  std::string out;
  out.reserve(64 + ring_.size() * 112);
  out += "{\"events\":[";
  for (size_t i = 0; i < ring_.size(); ++i) {
    const ProvRecord& rec = ring_[i];
    if (i) out += ',';
    out += "{\"id\":";
    append_int(out, rec.id);
    out += ",\"cause\":";
    append_int(out, rec.cause);
    if (rec.packet != 0) {
      out += ",\"packet\":";
      append_int(out, rec.packet);
    }
    out += ",\"t\":";
    append_int(out, rec.ts.count());
    out += ",\"kind\":\"";
    out += to_string(rec.kind);
    out += "\",\"what\":\"";
    if (rec.text == ProvText::Interned) {
      common::append_json_escaped(out, text(rec.what));
    } else {
      append_wire(out, rec);  // digits, dots and punctuation only
    }
    out += '"';
    if (rec.detail != 0) {
      out += ",\"detail\":\"";
      common::append_json_escaped(out, text(rec.detail));
      out += '"';
    }
    if (rec.refs_len != 0) {
      out += ",\"refs\":[";
      const auto r = refs(rec);
      for (size_t k = 0; k < r.size(); ++k) {
        if (k) out += ',';
        append_int(out, r[k]);
      }
      out += ']';
    }
    out += '}';
  }
  out += "],\"total\":";
  append_int(out, total_);
  out += ",\"dropped\":";
  append_int(out, dropped_);
  out += '}';
  return out;
}

std::vector<AlertAttribution> attribute_alerts(const ProvenanceGraph& g) {
  std::vector<AlertAttribution> out;
  for (size_t i = 0; i < g.size(); ++i) {
    const ProvRecord& ev = g.at(i);
    if (ev.kind != ProvKind::AlertStored) continue;
    AlertAttribution a;
    a.alert = ev.id;
    // The stored alert's packet link is inherited from its IdsAlert
    // parent; fall back to walking the parent if the copy is missing.
    a.packet = ev.packet;
    if (a.packet == 0) {
      if (const ProvRecord* parent = g.find(ev.cause)) {
        a.packet = parent->packet;
      }
    }
    if (a.packet != 0) {
      a.root = g.root_of(a.packet);
      if (const ProvRecord* root = g.find(a.root)) {
        a.probe_caused = root->kind == ProvKind::ProbeStart ||
                         root->kind == ProvKind::Attempt;
      }
    }
    out.push_back(a);
  }
  return out;
}

namespace {

/// "what (detail)" — the text part of every explain line.
std::string label(const ProvenanceGraph& g, const ProvRecord& ev) {
  std::string out = g.what(ev);
  if (std::string_view detail = g.detail(ev); !detail.empty()) {
    out += " (";
    out += detail;
    out += ")";
  }
  return out;
}

std::string event_line(const ProvenanceGraph& g, const ProvRecord& ev) {
  std::string line = common::format("[e%llu] ",
                                    static_cast<unsigned long long>(ev.id));
  line += std::string(to_string(ev.kind)) + " " + label(g, ev);
  line += common::format(" t=%.6fs", ev.ts.to_seconds());
  return line;
}

void render_chain(const ProvenanceGraph& g, uint64_t from, int indent,
                  std::string& out) {
  for (uint64_t id : g.chain(from)) {
    const ProvRecord* ev = g.find(id);
    if (ev == nullptr) break;
    out.append(static_cast<size_t>(indent), ' ');
    if (id != from) out += "<- ";
    out += event_line(g, *ev) + "\n";
  }
}

}  // namespace

std::string explain_text(const ProvenanceGraph& g) {
  std::string out;
  for (size_t i = 0; i < g.size(); ++i) {
    const ProvRecord& ev = g.at(i);
    if (ev.kind != ProvKind::Verdict) continue;
    out += "verdict: " + label(g, ev);
    out += common::format(" t=%.6fs\n", ev.ts.to_seconds());
    if (const ProvRecord* probe = g.find(g.root_of(ev.id))) {
      if (probe->id != ev.id) {
        out += "  probe: " + event_line(g, *probe) + "\n";
      }
    }
    const auto refs = g.refs(ev);
    if (refs.empty()) {
      out += "  evidence: (none recorded)\n";
    } else {
      out += "  evidence:\n";
      for (uint64_t ref : refs) {
        const ProvRecord* e = g.find(ref);
        out += "    ";
        out += e ? event_line(g, *e)
                 : common::format("[e%llu] (evicted)",
                                  static_cast<unsigned long long>(ref));
        out += "\n";
      }
    }
  }

  const std::vector<AlertAttribution> alerts = attribute_alerts(g);
  size_t probe_caused = 0;
  for (const auto& a : alerts) probe_caused += a.probe_caused ? 1 : 0;
  out += common::format("alerts: %zu stored, %zu probe-caused\n",
                        alerts.size(), probe_caused);
  for (const auto& a : alerts) {
    const ProvRecord* ev = g.find(a.alert);
    if (ev == nullptr) continue;
    out += "  " + event_line(g, *ev);
    out += a.probe_caused ? "  ** probe-caused **\n" : "  [background]\n";
    if (const ProvRecord* parent = g.find(ev->cause)) {
      out += "    <- " + event_line(g, *parent) + "\n";
    }
    if (a.packet != 0) {
      render_chain(g, a.packet, 6, out);
    } else {
      out += "      (causing packet not retained)\n";
    }
  }

  if (g.dropped() > 0) {
    out += common::format(
        "note: %llu event(s) dropped from the ring; chains may truncate\n",
        static_cast<unsigned long long>(g.dropped()));
  }
  return out;
}

std::string chrome_trace(const ProvenanceGraph& g) {
  // Span ends, found newest-first: a verdict is seen before the attempts
  // and the start it closes, and each attempt before the one it follows.
  const common::SimTime newest =
      g.size() != 0 ? g.at(g.size() - 1).ts : common::SimTime{};
  std::unordered_map<uint64_t, common::SimTime> verdict_at;  // by start id
  std::unordered_map<uint64_t, common::SimTime> next_attempt;
  std::vector<common::SimTime> end(g.size(), newest);
  auto probe_end = [&](uint64_t start) {
    auto it = verdict_at.find(start);
    return it != verdict_at.end() ? it->second : newest;
  };
  for (size_t i = g.size(); i-- > 0;) {
    const ProvRecord& rec = g.at(i);
    if (rec.kind == ProvKind::Verdict) {
      verdict_at[rec.cause] = rec.ts;  // the oldest verdict wins
    } else if (rec.kind == ProvKind::Attempt) {
      auto it = next_attempt.find(rec.cause);
      end[i] = it != next_attempt.end() ? it->second : probe_end(rec.cause);
      next_attempt[rec.cause] = rec.ts;
    } else if (rec.kind == ProvKind::ProbeStart) {
      end[i] = probe_end(rec.id);
    }
  }

  std::string out;
  out.reserve(128 + g.size() * 160);
  out += "{\"traceEvents\":[";
  for (size_t i = 0; i < g.size(); ++i) {
    const ProvRecord& rec = g.at(i);
    const bool span =
        rec.kind == ProvKind::ProbeStart || rec.kind == ProvKind::Attempt;
    if (i) out += ',';
    out += "{\"name\":\"";
    if (rec.kind == ProvKind::ProbeStart) {
      out += "probe:";
      common::append_json_escaped(out, g.what(rec));
    } else {
      out += to_string(rec.kind);
    }
    out += span ? "\",\"ph\":\"X\",\"ts\":" : "\",\"ph\":\"i\",\"ts\":";
    append_micros(out, rec.ts.count());
    if (span) {
      out += ",\"dur\":";
      append_micros(out, (std::max(end[i], rec.ts) - rec.ts).count());
    }
    out += ",\"pid\":1,\"tid\":1";
    if (!span) out += ",\"s\":\"t\"";
    out += ",\"args\":{\"id\":";
    append_int(out, rec.id);
    out += ",\"cause\":";
    append_int(out, rec.cause);
    out += ",\"packet\":";
    append_int(out, rec.packet);
    out += ",\"what\":\"";
    common::append_json_escaped(out, g.what(rec));
    out += "\",\"detail\":\"";
    common::append_json_escaped(out, g.detail(rec));
    out += "\"}}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"sim\","
         "\"total\":";
  append_int(out, g.total());
  out += ",\"dropped\":";
  append_int(out, g.dropped());
  out += "}}";
  return out;
}

}  // namespace sm::obs
