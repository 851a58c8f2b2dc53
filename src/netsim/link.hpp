// Point-to-point link with latency, optional bandwidth (serialization +
// FIFO queueing), random loss, and the deterministic impairment models
// (burst loss, reordering, duplication, corruption, flaps).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "netsim/engine.hpp"
#include "netsim/impairment.hpp"
#include "netsim/node.hpp"
#include "packet/packet.hpp"

namespace sm::netsim {

struct LinkConfig {
  common::Duration latency = common::Duration::micros(100);
  /// Bits per second; 0 disables serialization-delay/queueing modeling.
  uint64_t bandwidth_bps = 0;
  /// Independent per-packet drop probability.
  double loss_rate = 0.0;
  /// Additional adverse-network behaviours; see netsim/impairment.hpp.
  Impairment impairment{};
};

/// Per-link traffic accounting, broken down by impairment mechanism.
struct LinkStats {
  uint64_t sent = 0;
  uint64_t delivered = 0;
  uint64_t dropped_loss = 0;     // i.i.d. loss_rate drops
  uint64_t dropped_burst = 0;    // Gilbert–Elliott burst drops
  uint64_t dropped_down = 0;     // link-flap (down window) drops
  uint64_t dropped_corrupt = 0;  // checksum-failing corruption drops
  uint64_t duplicated = 0;       // extra copies delivered
  uint64_t reordered = 0;        // packets given reorder jitter
  uint64_t corrupted = 0;        // delivered with flipped bytes

  uint64_t dropped() const {
    return dropped_loss + dropped_burst + dropped_down + dropped_corrupt;
  }
};

/// Network-wide parking for packets between a link's send and the
/// receiving node's delivery event. Every link of a Network shares one
/// pool, so the slot a delivery frees is the slot the next send reuses
/// (slots recycle LIFO through an intrusive free list): a packet hopping
/// across the ~100k access links of a population topology touches one
/// cache-warm slot instead of a cold per-link vector. The engine closure
/// captures only {pool, slot index}, which stays inside EventFn's inline
/// buffer, so a hop makes no heap allocation. Indices (not pointers)
/// survive slot-vector growth, and arbitrary arrival order
/// (reorder/duplicate impairments) is fine because each delivery
/// releases exactly its own slot. The pool owns every parked packet: a
/// Network torn down mid-flight frees them with the pool.
class DeliveryPool {
 public:
  DeliveryPool() = default;
  DeliveryPool(const DeliveryPool&) = delete;
  DeliveryPool& operator=(const DeliveryPool&) = delete;

  /// Parks `packet` for delivery to `node` on `port`; returns its slot.
  uint32_t park(packet::Packet packet, Node* node, int port);

  /// Releases `slot` and hands its packet to the receiving node. The
  /// slot is free again before the node runs, so whatever the node sends
  /// in response reuses it.
  void deliver(uint32_t slot);

  /// Slots ever allocated: the high-water mark of packets in flight.
  size_t capacity() const { return slots_.size(); }
  /// Packets parked right now.
  size_t in_flight() const { return in_flight_; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct Slot {
    packet::Packet packet;
    Node* node = nullptr;
    int port = -1;
    uint32_t next_free = kNoSlot;
  };

  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  size_t in_flight_ = 0;
};

class Link {
 public:
  /// Links are built by Network::connect, which hands every link of the
  /// network the same delivery pool.
  Link(Engine& engine, DeliveryPool& pool, LinkConfig config,
       uint64_t seed = 1);

  /// Wires the two endpoints; must be called exactly once. Returns the
  /// port index the link occupies on each node, (port on a, port on b),
  /// so callers never have to rediscover them by scanning ports.
  std::pair<int, int> connect(Node* a, Node* b);

  /// Port this link occupies on node `n` (-1 if `n` is not an endpoint).
  int port_of(const Node* n) const {
    if (n == a_.node) return a_.port;
    if (n == b_.node) return b_.port;
    return -1;
  }

  /// Sends `packet` from endpoint `from` toward the other endpoint.
  /// Delivery is scheduled on the engine after latency (+ serialization
  /// and queueing delay when bandwidth is modeled), unless an impairment
  /// drops the packet.
  void send_from(Node* from, packet::Packet packet);

  uint64_t packets_sent() const { return stats_.sent; }
  uint64_t packets_dropped() const { return stats_.dropped(); }
  const LinkStats& stats() const { return stats_; }
  const LinkConfig& config() const { return config_; }

 private:
  struct Endpoint {
    Node* node = nullptr;
    int port = -1;
    common::SimTime busy_until{};
  };

  Endpoint& endpoint_for(Node* n);
  Endpoint& peer_of(Node* n);
  void deliver_at(common::SimTime when, Endpoint& rx, packet::Packet packet);

  Engine& engine_;
  DeliveryPool& pool_;
  LinkConfig config_;
  ImpairmentModel model_;
  Endpoint a_, b_;
  LinkStats stats_;
};

}  // namespace sm::netsim
