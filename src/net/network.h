// Simulated packet network on top of the DES kernel.
//
// Each directed link transmits one packet at a time (FIFO queue behind it);
// a packet occupies the link for its serialization time and arrives after
// the additional propagation latency. Per-link and global byte counters
// provide the bandwidth-consumption metric of Fig. 3.
//
// The network is intentionally dumb: it moves a packet one hop. Forwarding
// decisions (interest routing, caching, label propagation) belong to the
// protocol layer (Athena) — exactly as in the paper, where the intelligence
// lives in the nodes.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/slot_heap.h"
#include "des/simulator.h"
#include "net/topology.h"
#include "obs/trace.h"

namespace dde::net {

/// A packet in flight. `payload` carries a protocol-defined message (for
/// Athena, one athena::Message; type-erased because net sits below the
/// protocols in tools/dde_layers). `bytes` alone determines timing and
/// accounting. `priority` orders contending packets on each link (higher
/// first, FIFO within a class) — the preferential-treatment mechanism of
/// Sec. V-C; background traffic (e.g. prefetch pushes) uses negative
/// priorities.
struct Packet {
  MessageId id;
  NodeId src;          ///< original sender
  NodeId dst;          ///< final destination (informational)
  std::uint64_t bytes = 0;
  int priority = 0;
  std::any payload;
};

/// Aggregate traffic statistics. `bytes` counts every byte crossing every
/// link (a packet traversing 3 hops counts 3×) — the total network
/// bandwidth consumption metric of Fig. 3.
struct TrafficStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  /// Every lost packet, whatever the cause, counted exactly once: random
  /// loss, bursty loss, a downed link's purged queue/in-flight packet,
  /// delivery to a crashed node, or eviction from a bounded queue. Bytes
  /// stay charged for packets that reached the wire — the packet occupied
  /// its link time before being lost — but a queue eviction refunds them
  /// (the packet never transmitted).
  std::uint64_t dropped = 0;
  /// The subset of `dropped` caused by link/node dynamics (fault
  /// injection) rather than random per-packet loss.
  std::uint64_t link_down_drops = 0;
  /// The subset of `dropped` evicted from bounded link queues (overload
  /// protection; see QueueLimits).
  std::uint64_t queue_drops = 0;

  bool operator==(const TrafficStats&) const = default;
};

/// Calls f(name, field) for every field of `s` (published as net.<name>).
template <typename S, typename F>
  requires std::is_same_v<std::remove_const_t<S>, TrafficStats>
constexpr void for_each_field(S& s, F&& f) {
  f("packets", s.packets);
  f("bytes", s.bytes);
  f("dropped", s.dropped);
  f("link_down_drops", s.link_down_drops);
  f("queue_drops", s.queue_drops);
}

/// Caps on each link's *waiting* queue — the packet currently transmitting
/// is exempt and never evicted. 0 means unbounded (the default: behaviour
/// is identical to a build without queue limits). When accepting a packet
/// would exceed either cap, the lowest-priority, newest waiting packet is
/// evicted — possibly the arriving packet itself — until the queue fits.
/// Evictions count in TrafficStats::dropped and ::queue_drops; their bytes
/// are refunded because the packet never crossed the link.
struct QueueLimits {
  std::size_t max_packets = 0;   ///< waiting packets per link (0 = ∞)
  std::uint64_t max_bytes = 0;   ///< waiting bytes per link (0 = ∞)
  [[nodiscard]] constexpr bool bounded() const noexcept {
    return max_packets > 0 || max_bytes > 0;
  }
};

/// The simulated network runtime.
class Network {
 public:
  using Handler = std::function<void(NodeId self, const Packet&)>;
  /// Per-packet loss decision hook, consulted at transmission completion
  /// for every packet that finished serializing on an up link. Returning
  /// true drops the packet. Used by the fault subsystem to install
  /// correlated (Gilbert–Elliott) loss processes; composes with the
  /// independent loss of set_loss_rate().
  using LossModel = std::function<bool(LinkId)>;

  /// Topology must outlive the network and have routes computed.
  Network(des::Simulator& sim, const Topology& topo);

  /// Register the receive handler for `node` (one per node).
  void set_handler(NodeId node, Handler handler);

  /// Transmit `packet` one hop from `from` to adjacent `next`. The packet
  /// queues on that link; the link serves the highest-priority packet
  /// first (FIFO within a priority class, non-preemptive). Returns false
  /// (drop) if the nodes are not adjacent, the link is down, or `from`
  /// itself is down.
  bool send(NodeId from, NodeId next, Packet packet);

  // --- link/node dynamics (fault injection) -----------------------------
  /// Administratively down or restore a directed link. Downing a link
  /// purges its queue and voids the in-flight packet (each counted once in
  /// TrafficStats::dropped and ::link_down_drops); while down, send() over
  /// it returns false. Packets already past transmission (in propagation)
  /// still arrive. Restoring resumes normal service.
  void set_link_up(LinkId link, bool up);
  [[nodiscard]] bool link_up(LinkId link) const {
    DDE_CHECK(link.valid() && link.value() < link_admin_up_.size(),
              "link_up: unknown link");
    return link_admin_up_[link.value()] != 0;
  }

  /// Crash or restart a node. A down node sends nothing (send() returns
  /// false) and receives nothing (deliveries to it are dropped and
  /// counted). Its state is otherwise untouched — a restart resumes with
  /// whatever the protocol layer kept.
  void set_node_up(NodeId node, bool up) {
    DDE_CHECK(node.valid() && node.value() < node_up_.size(),
              "set_node_up: unknown node");
    node_up_[node.value()] = up ? 1 : 0;
  }
  [[nodiscard]] bool node_up(NodeId node) const {
    DDE_CHECK(node.valid() && node.value() < node_up_.size(),
              "node_up: unknown node");
    return node_up_[node.value()] != 0;
  }

  // --- overload protection (bounded queues) -----------------------------
  /// Install waiting-queue caps, applied to every link. Default-constructed
  /// limits (all zero) restore unbounded queues. Caps are enforced from the
  /// next send() on; an already-over-cap queue is trimmed lazily as traffic
  /// arrives, never retroactively.
  void set_queue_limits(QueueLimits limits) noexcept { limits_ = limits; }
  [[nodiscard]] const QueueLimits& queue_limits() const noexcept {
    return limits_;
  }

  /// Packets currently queued (not yet transmitting) on `link`.
  [[nodiscard]] std::size_t queue_length(LinkId link) const {
    return link_state_.at(link.value()).queue.size();
  }

  /// Bytes currently queued (not yet transmitting) on `link` — the
  /// congestion signal protocol layers use for backpressure decisions.
  [[nodiscard]] std::uint64_t queue_bytes(LinkId link) const {
    return link_state_.at(link.value()).queued_bytes;
  }

  /// Packets evicted from `link`'s bounded queue so far.
  [[nodiscard]] std::uint64_t link_queue_drops(LinkId link) const {
    return link_state_.at(link.value()).queue_drops;
  }

  /// Next hop from `from` toward `dest` per the topology's routes.
  [[nodiscard]] std::optional<NodeId> next_hop(NodeId from, NodeId dest) const {
    return topo_.next_hop(from, dest);
  }

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t link_bytes(LinkId link) const {
    return link_state_.at(link.value()).bytes;
  }
  [[nodiscard]] des::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] SimTime now() const noexcept { return sim_.now(); }

  /// Attach a structured trace sink (pass nullptr to detach). The network
  /// emits obs::EventKind::kHopSend at every send (enqueue time) and
  /// kHopDeliver at every delivery (arrival time) — the raw material for
  /// Fig. 1-style message-flow walkthroughs. Observation only — the sink
  /// never alters timing, ordering, or loss.
  void set_trace_sink(obs::TraceSink* sink) noexcept { trace_sink_ = sink; }

  /// Failure injection: drop each transmitted packet independently with
  /// this probability (checked at transmission completion, so a lost
  /// packet still consumed its link time — wireless-style loss). The loss
  /// process is deterministic per seed; callers must derive the seed from
  /// their run seed so loss realizations vary across a seed sweep.
  void set_loss_rate(double probability, std::uint64_t seed) {
    loss_rate_ = probability;
    loss_rng_.reseed(seed);
  }
  [[nodiscard]] double loss_rate() const noexcept { return loss_rate_; }

  /// Install a correlated-loss model (pass nullptr to remove). Consulted
  /// once per completed transmission, before the independent loss draw.
  void set_loss_model(LossModel model) { loss_model_ = std::move(model); }

 private:
  struct LinkState {
    bool busy = false;
    /// Waiting packets, served in (-priority, arrival seq) order — highest
    /// priority first, FIFO within a class (common/slot_heap.h).
    SlotHeap<Packet> queue;
    std::uint64_t arrivals = 0;      ///< the queue's seq counter
    std::uint64_t queued_bytes = 0;  ///< bytes of waiting packets
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
    std::uint64_t queue_drops = 0;   ///< bounded-queue evictions
    /// Bumped on every link-down; an in-flight transmission whose captured
    /// epoch no longer matches was severed mid-transfer and is dropped.
    std::uint64_t epoch = 0;
  };

  /// Start transmitting the head-of-queue packet on an idle link.
  void start_transmission(LinkId link_id);

  /// Evict lowest-priority, newest waiting packets until `state` fits the
  /// configured caps (no-op with unbounded limits).
  void enforce_queue_limits(LinkState& state);

  des::Simulator& sim_;
  const Topology& topo_;
  std::vector<Handler> handlers_;
  obs::TraceSink* trace_sink_ = nullptr;
  double loss_rate_ = 0.0;
  Rng loss_rng_{99173};
  LossModel loss_model_;
  QueueLimits limits_;
  std::vector<LinkState> link_state_;
  std::vector<char> link_admin_up_;  ///< per directed link
  std::vector<char> node_up_;
  TrafficStats stats_;
  std::uint64_t next_message_ = 0;
};

}  // namespace dde::net
