// Sim-time causal event graph: the provenance layer behind every verdict.
//
// The paper's safety argument is an attribution argument — a measurement
// is safe(r) only if an observer cannot causally link flagged traffic
// back to a participant. This graph records that linkage explicitly: a
// probe attempt causes a packet emission, the packet causes per-hop
// forward/drop/impairment events, taps (censor, IDS, MVR) hang their
// observations off the packet, and the final verdict references the
// evidence events conclude() actually used. Walking an alert's cause
// chain answers "was this alert caused by our probe or by background
// clutter?" — the question simcheck's O4 oracle and the sm-explain CLI
// both ask.
//
// Determinism contract (same as the metrics registry): event ids are dense
// sequence numbers, timestamps are SimTime, and nothing wall-clock or
// address-dependent ever enters an event, so to_json() is byte-identical
// across -j1/-jN and shard modes. Storage is a drop-oldest ring with a
// drops counter: long runs keep the most recent window and the export
// says exactly how much history fell off. The ring's capacity is only a
// bound; storage grows on demand, so nothing is allocated while the
// graph is disabled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/arena.hpp"
#include "common/time.hpp"
#include "obs/ring.hpp"

namespace sm::obs {

enum class ProvKind : uint8_t {
  ProbeStart,   // a probe began (what = technique, detail = target)
  Attempt,      // one retry-ladder attempt (cause = probe-start)
  PacketSent,   // a packet entered a link (cause = attempt / censor / 0)
  Forward,      // a router forwarded the packet one hop
  Drop,         // router-level drop (tap verdict, TTL, no route)
  Impair,       // link impairment (loss, corruption, dup, flap)
  CensorAction, // censor rule hit / injection decision (detail = sid)
  IdsAlert,     // IDS rule match at the MVR (what = sid)
  MvrClassify,  // MVR traffic classification (what = class)
  MvrSample,    // MVR volume reduction kept this packet's content
  MvrDiscard,   // MVR volume reduction dropped this packet's class
  AlertStored,  // MVR stored an alert in a dossier (cause = ids-alert)
  Evidence,     // probe-side observation (reply, timeout) feeding conclude()
  Verdict,      // final conclusion (refs = evidence event ids)
};

std::string_view to_string(ProvKind kind);
std::optional<ProvKind> prov_kind_from_string(std::string_view s);

/// One node of the causal graph, materialized: the form events()
/// returns, append_raw() takes and sm-explain rebuilds from JSON.
/// `cause` is the primary causal parent (0 = root, e.g. a probe start or
/// unattributed background traffic); `packet` is the id of the
/// PacketSent event for the packet concerned (0 = not packet-scoped).
/// `refs` holds secondary causal links — the evidence list on a Verdict
/// event.
struct ProvEvent {
  uint64_t id = 0;
  uint64_t cause = 0;
  uint64_t packet = 0;
  common::SimTime ts{};
  ProvKind kind = ProvKind::ProbeStart;
  std::string what;
  std::string detail;
  std::vector<uint64_t> refs;
};

/// How a stored record carries its `what` text.
enum class ProvText : uint8_t {
  Interned,  // `what` is an id in the graph's string table
  Raw,       // a PacketSent whose bytes are not IPv4 ("raw")
  V4,        // IPv4 header fields only (icmp, other protocols, truncated)
  V4Ports,   // IPv4 TCP/UDP with both ports
};

/// One node of the causal graph as stored: a fixed-size POD. Text lives
/// graph-side: `what`/`detail` are ids in the graph's interned string
/// table (0 = ""), a verdict's refs are a slice of the graph's refs pool,
/// and a PacketSent recorded from the wire keeps its raw IPv4 header
/// fields, rendered only when exported or viewed. Read the text through
/// ProvenanceGraph::what()/detail()/refs().
struct ProvRecord {
  uint64_t id = 0;
  uint64_t cause = 0;
  uint64_t packet = 0;
  common::SimTime ts{};
  ProvKind kind = ProvKind::ProbeStart;
  ProvText text = ProvText::Interned;
  uint8_t proto = 0;   // wire forms: IPv4 protocol number
  uint16_t sport = 0;  // V4Ports
  uint16_t dport = 0;
  uint32_t src = 0;  // wire forms: IPv4 addresses, host order
  uint32_t dst = 0;
  uint32_t what = 0;  // Interned
  uint32_t detail = 0;
  uint32_t refs_at = 0;  // offset into the refs pool
  uint32_t refs_len = 0;
};

/// The recorder. Single-threaded like everything else inside one
/// testbed; campaign workers each own a private graph and the runner
/// merges exports in trial order, so parallelism never reorders events.
///
/// The capacity is a bound: records live in a ChunkedRing that grows on
/// demand, so a graph that is never recorded into allocates nothing.
class ProvenanceGraph {
 public:
  explicit ProvenanceGraph(size_t capacity = 1 << 16);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  /// Re-bounds the ring in O(size()). Existing records are kept (newest
  /// first) up to the new capacity; evicted ones count as drops.
  void set_capacity(size_t capacity);
  /// The configured bound on retained events (not what is allocated).
  size_t capacity() const { return ring_.capacity(); }

  /// Records one event and returns its id (0 when disabled). `cause` and
  /// `packet` are event ids from earlier record() calls, 0 for none.
  uint64_t record(ProvKind kind, common::SimTime ts, uint64_t cause,
                  uint64_t packet, std::string_view what,
                  std::string_view detail = {});
  /// Records a Verdict event carrying the evidence ids conclude() used.
  uint64_t record_verdict(common::SimTime ts, uint64_t cause,
                          std::string_view what, std::string_view detail,
                          const std::vector<uint64_t>& evidence);
  /// Records a PacketSent event from the wire bytes; `what` renders as
  /// summarize_wire() ("tcp 10.0.0.1:1234>10.0.0.2:80"). The cause
  /// defaults to the current scope (see ScopedCause).
  uint64_t record_packet(common::SimTime ts, const uint8_t* data,
                         size_t len);

  /// Re-inserts a deserialized event verbatim (id preserved). Used by
  /// sm-explain and tests to rebuild a graph from its JSON export; ids
  /// must arrive in increasing order.
  void append_raw(const ProvEvent& ev);

  /// The ambient causal parent new PacketSent events attach to; set via
  /// ScopedCause by probes around their send paths and by taps around
  /// injections.
  uint64_t current_cause() const { return current_cause_; }

  size_t size() const { return ring_.size(); }
  /// Ids ever issued (== the id of the newest event).
  uint64_t total() const { return total_; }
  /// Events evicted because the ring was full.
  uint64_t dropped() const { return dropped_; }
  /// Forgets every event, in O(size()).
  void clear();

  /// The i-th retained record, oldest first (i < size()).
  const ProvRecord& at(size_t i) const { return ring_[i]; }
  /// The record with this id, or nullptr if it was never issued or has
  /// been evicted. O(1) while the retained ids are contiguous (always,
  /// unless append_raw() skipped ids); a binary search otherwise. The
  /// pointer stays valid until the event is evicted or the graph is
  /// cleared or resized.
  const ProvRecord* find(uint64_t id) const;

  /// A record's text and evidence links.
  std::string what(const ProvRecord& rec) const;
  std::string_view detail(const ProvRecord& rec) const;
  std::span<const uint64_t> refs(const ProvRecord& rec) const;
  /// Retained events, oldest first.
  std::vector<ProvEvent> events() const;

  /// Cause-chain walk from `id` to its root, inclusive ([id, ..., root]).
  /// Stops early if an ancestor has been evicted.
  std::vector<uint64_t> chain(uint64_t id) const;
  /// The last reachable ancestor of `id` (== id if it is a root). 0 when
  /// `id` is not retained.
  uint64_t root_of(uint64_t id) const;

  /// Byte-deterministic export:
  ///   {"events":[{"id":1,"cause":0,"packet":0,"t":0,"kind":"probe-start",
  ///               "what":"overt-http","detail":"...","refs":[...]},...],
  ///    "total":N,"dropped":N}
  /// ("detail"/"refs" appear only when non-empty; "t" is sim nanos.)
  std::string to_json() const;

 private:
  friend class ScopedCause;
  void push(const ProvRecord& rec);
  uint32_t intern(std::string_view s);
  uint32_t store_refs(std::span<const uint64_t> refs);
  std::string_view text(uint32_t id) const;

  bool enabled_ = true;
  ChunkedRing<ProvRecord> ring_;
  uint64_t total_ = 0;
  uint64_t dropped_ = 0;
  uint64_t current_cause_ = 0;
  /// Id of the newest event that append_raw() placed after a gap; while
  /// it is not newer than the oldest retained event, ids are contiguous.
  uint64_t last_gap_ = 0;

  /// Interned text: id i names strings_[i - 1], whose bytes live in
  /// text_bytes_; index_ maps text back to its id. Most labels are
  /// constants (router names, actions, classes) and the rest range over
  /// hosts, domains and rule sids, so the table stays far smaller than
  /// the ring; clear() resets it.
  common::Arena text_bytes_{4096};
  std::vector<std::string_view> strings_;
  std::unordered_map<std::string_view, uint32_t> index_;

  /// Verdict evidence lists, back to back. Evicted lists become garbage
  /// that store_refs() compacts away once it outweighs the live ones.
  std::vector<uint64_t> refs_;
  size_t live_refs_ = 0;
};

/// RAII ambient-cause scope: packets emitted while the scope is alive
/// get `cause` as their causal parent. Null graph makes it a no-op, so
/// call sites need no branches.
class ScopedCause {
 public:
  ScopedCause(ProvenanceGraph* graph, uint64_t cause)
      : graph_(graph), prev_(graph ? graph->current_cause_ : 0) {
    if (graph_) graph_->current_cause_ = cause;
  }
  ~ScopedCause() {
    if (graph_) graph_->current_cause_ = prev_;
  }
  ScopedCause(const ScopedCause&) = delete;
  ScopedCause& operator=(const ScopedCause&) = delete;

 private:
  ProvenanceGraph* graph_;
  uint64_t prev_;
};

/// One stored-alert attribution: the packet that triggered it and the
/// root of that packet's cause chain. `probe_caused` is true when the
/// root is a probe-start or attempt event — the alert traces back to
/// the measurement, not to background clutter.
struct AlertAttribution {
  uint64_t alert = 0;   // the AlertStored (or bare IdsAlert) event id
  uint64_t packet = 0;  // PacketSent event id (0 = unresolved)
  uint64_t root = 0;    // root of the packet's cause chain
  bool probe_caused = false;
};

/// Resolves every stored alert in the graph to its causing packet and
/// chain root. IdsAlert events whose alerts were discarded as noise are
/// skipped; each AlertStored resolves through its IdsAlert parent.
std::vector<AlertAttribution> attribute_alerts(const ProvenanceGraph& g);

/// Human-readable causal narrative of a whole graph: the verdict with
/// its evidence chain first, then every stored alert with its full
/// attribution chain. This is what `sm-explain` prints per trial.
std::string explain_text(const ProvenanceGraph& g);

/// The graph as Chrome trace_event JSON (chrome://tracing, Perfetto).
/// Byte-deterministic, like to_json():
///  - each ProbeStart is a complete ("X") span named "probe:<what>" that
///    ends at the Verdict caused by that start;
///  - each Attempt is an "X" span that ends at the next attempt of the
///    same probe, or at that probe's verdict;
///  - a span whose end event was evicted or never recorded closes at the
///    newest retained event;
///  - every other event is an instant named after its kind.
/// Every event carries args {id, cause, packet, what, detail}: cause
/// edges stay data here (sm-explain walks them), because the viewer only
/// binds flow arrows to enclosing slices. ts/dur are sim microseconds
/// with three decimals; otherData is {clock:"sim", total, dropped}.
std::string chrome_trace(const ProvenanceGraph& g);

/// "tcp 10.0.0.1:1234>10.0.0.2:80"-style summary of an IPv4 datagram's
/// wire bytes (best-effort; never throws on truncated input).
std::string summarize_wire(const uint8_t* data, size_t len);

}  // namespace sm::obs
