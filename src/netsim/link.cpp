#include "netsim/link.hpp"

#include <cassert>
#include <utility>

#include "obs/provenance.hpp"

namespace sm::netsim {

void Node::transmit(packet::Packet packet, int port) {
  if (port < 0 || port >= port_count()) return;
  Link* link = link_at(port);
  if (link) link->send_from(this, std::move(packet));
}

namespace {
/// The per-hop engine event: {pool, slot} only, so it is stored inline.
struct Delivery {
  DeliveryPool* pool;
  uint32_t slot;
  void operator()() const { pool->deliver(slot); }
};
static_assert(EventFn::stores_inline<Delivery>,
              "a hop must schedule without heap allocation");
}  // namespace

uint32_t DeliveryPool::park(packet::Packet packet, Node* node, int port) {
  ++in_flight_;
  if (free_head_ != kNoSlot) {
    uint32_t slot = free_head_;
    Slot& s = slots_[slot];
    free_head_ = s.next_free;
    s.packet = std::move(packet);
    s.node = node;
    s.port = port;
    return slot;
  }
  slots_.push_back(Slot{std::move(packet), node, port, kNoSlot});
  return static_cast<uint32_t>(slots_.size() - 1);
}

void DeliveryPool::deliver(uint32_t slot) {
  Slot& s = slots_[slot];
  Node* node = s.node;
  int port = s.port;
  packet::Packet packet = std::move(s.packet);
  s.next_free = free_head_;
  free_head_ = slot;
  --in_flight_;
  node->receive(std::move(packet), port);
}

Link::Link(Engine& engine, DeliveryPool& pool, LinkConfig config,
           uint64_t seed)
    : engine_(engine), pool_(pool), config_(config),
      model_(config.loss_rate, config.impairment, seed) {}

std::pair<int, int> Link::connect(Node* a, Node* b) {
  a_.node = a;
  a_.port = a->attach_link(this);
  b_.node = b;
  b_.port = b->attach_link(this);
  return {a_.port, b_.port};
}

Link::Endpoint& Link::endpoint_for(Node* n) {
  assert(n == a_.node || n == b_.node);
  return n == a_.node ? a_ : b_;
}

Link::Endpoint& Link::peer_of(Node* n) {
  assert(n == a_.node || n == b_.node);
  return n == a_.node ? b_ : a_;
}

void Link::deliver_at(common::SimTime when, Endpoint& rx,
                      packet::Packet packet) {
  engine_.schedule_at(
      when, Delivery{&pool_, pool_.park(std::move(packet), rx.node, rx.port)});
}

void Link::send_from(Node* from, packet::Packet packet) {
  Endpoint& tx = endpoint_for(from);
  Endpoint& rx = peer_of(from);
  ++stats_.sent;

  // Every wire packet passes this choke point exactly once per hop, so
  // this is where provenance identity is minted: the first link assigns
  // the PacketSent event (cause = the ambient ScopedCause, e.g. a probe
  // attempt or a censor injection); later hops reuse the id.
  obs::ProvenanceGraph* prov = engine_.provenance();
  if (prov != nullptr && packet.prov_id() == 0) {
    packet.set_prov_id(prov->record_packet(engine_.now(), packet.data().data(),
                                           packet.size()));
  }

  ImpairmentModel::Decision d = model_.apply(engine_.now(), packet.data());
  if (prov != nullptr && d.drop != ImpairmentModel::DropCause::None) {
    const char* why = "loss";
    switch (d.drop) {
      case ImpairmentModel::DropCause::IidLoss: why = "iid-loss"; break;
      case ImpairmentModel::DropCause::BurstLoss: why = "burst-loss"; break;
      case ImpairmentModel::DropCause::LinkDown: why = "link-down"; break;
      case ImpairmentModel::DropCause::Corrupt: why = "corrupt-drop"; break;
      case ImpairmentModel::DropCause::None: break;
    }
    prov->record(obs::ProvKind::Impair, engine_.now(), packet.prov_id(),
                 packet.prov_id(), why);
  }
  switch (d.drop) {
    case ImpairmentModel::DropCause::IidLoss: ++stats_.dropped_loss; return;
    case ImpairmentModel::DropCause::BurstLoss:
      ++stats_.dropped_burst;
      return;
    case ImpairmentModel::DropCause::LinkDown: ++stats_.dropped_down; return;
    case ImpairmentModel::DropCause::Corrupt:
      ++stats_.dropped_corrupt;
      return;
    case ImpairmentModel::DropCause::None: break;
  }
  if (d.corrupted) {
    ++stats_.corrupted;
    if (prov != nullptr) {
      prov->record(obs::ProvKind::Impair, engine_.now(), packet.prov_id(),
                   packet.prov_id(), "corrupted");
    }
  }

  common::SimTime depart = engine_.now();
  if (config_.bandwidth_bps > 0) {
    // FIFO: a packet cannot start serializing until the previous one on
    // this direction finished.
    if (tx.busy_until > depart) depart = tx.busy_until;
    auto bits = static_cast<uint64_t>(packet.size()) * 8;
    auto ser_nanos = static_cast<int64_t>(
        bits * 1'000'000'000ULL / config_.bandwidth_bps);
    depart = depart + common::Duration(ser_nanos);
    tx.busy_until = depart;
  }
  common::SimTime arrive = depart + config_.latency;
  if (d.extra_delay.count() > 0) {
    ++stats_.reordered;
    arrive = arrive + d.extra_delay;
    if (prov != nullptr) {
      prov->record(obs::ProvKind::Impair, engine_.now(), packet.prov_id(),
                   packet.prov_id(), "reorder");
    }
  }
  if (d.duplicate) {
    ++stats_.duplicated;
    ++stats_.delivered;
    // The duplicate needs its own owner; the only impairment-forced copy
    // (corruption mutates the uniquely-owned buffer in place). It keeps
    // the original's provenance id: both deliveries trace to one send.
    packet::count_copy(packet::CopySite::Impairment);
    if (prov != nullptr) {
      prov->record(obs::ProvKind::Impair, engine_.now(), packet.prov_id(),
                   packet.prov_id(), "duplicate");
    }
    deliver_at(arrive + d.duplicate_lag, rx, packet);  // copy
  }
  ++stats_.delivered;
  deliver_at(arrive, rx, std::move(packet));
}

}  // namespace sm::netsim
