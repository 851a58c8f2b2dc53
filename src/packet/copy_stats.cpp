#include "packet/copy_stats.hpp"

#include "obs/metrics.hpp"

namespace sm::packet {

CopyCounters& copy_counters() {
  static CopyCounters counters;
  return counters;
}

void reset_copy_counters() {
  CopyCounters& c = copy_counters();
  c.hop.store(0, std::memory_order_relaxed);
  c.impairment.store(0, std::memory_order_relaxed);
  c.pcap.store(0, std::memory_order_relaxed);
  c.defrag.store(0, std::memory_order_relaxed);
  c.stream.store(0, std::memory_order_relaxed);
}

void export_copy_metrics(obs::Registry& registry) {
  auto set = [&](std::string_view site, uint64_t value) {
    registry
        .counter("sm_packet_copies_total", {{"site", site}},
                 "packet payload copies, by reason (hop must stay 0)")
        ->set(value);
  };
  set("hop", copies(CopySite::Hop));
  set("impairment", copies(CopySite::Impairment));
  set("pcap", copies(CopySite::Pcap));
  set("defrag", copies(CopySite::Defrag));
  set("stream", copies(CopySite::Stream));
}

}  // namespace sm::packet
