#include "net/network.h"

#include <type_traits>

#include "common/contracts.h"

namespace dde::net {

namespace {

// libstdc++'s std::function keeps a callable in its own 16-byte buffer, with
// no heap allocation, only when the callable is trivially copyable ("location
// invariant") and fits that buffer (_M_max_size, the size of
// _Nocopy_types). Every hop event must qualify, or each hop mallocs again.
template <typename F>
constexpr bool kStoredInline =
    sizeof(F) <= 16 && std::is_trivially_copyable_v<F>;

}  // namespace

Network::Network(des::Simulator& sim, const Topology& topo)
    : sim_(sim), topo_(topo) {
  handlers_.resize(topo.node_count());
  link_state_.resize(topo.link_count());
  link_admin_up_.assign(topo.link_count(), 1);
  node_up_.assign(topo.node_count(), 1);
}

void Network::set_handler(NodeId node, Handler handler) {
  DDE_CHECK(node.valid() && node.value() < handlers_.size(),
            "set_handler: unknown node");
  handlers_[node.value()] = std::move(handler);
}

bool Network::send(NodeId from, NodeId next, Packet packet) {
  const auto link_id = topo_.link_between(from, next);
  if (!link_id) return false;
  if (!node_up_[from.value()] || !link_admin_up_[link_id->value()]) {
    return false;  // a crashed node or severed link accepts nothing
  }
  LinkState& state = link_state_[link_id->value()];

  if (!packet.id.valid()) packet.id = MessageId{next_message_++};
  state.bytes += packet.bytes;
  state.packets += 1;
  stats_.packets += 1;
  stats_.bytes += packet.bytes;

  if (trace_sink_) {
    trace_sink_->emit(obs::Event{obs::EventKind::kHopSend, sim_.now(),
                                 from.value(), 0, next.value(), packet.bytes,
                                 0.0});
  }

  // A link restarts service whenever it goes idle or comes back up, so an
  // idle up link has an empty queue: the packet goes straight on the wire.
  if (!state.busy) {
    DDE_INVARIANT(state.queue.empty(), "send: idle link with waiting packets");
    put_on_wire(*link_id, std::move(packet));
    return true;
  }
  state.queued_bytes += packet.bytes;
  const std::int64_t rank = -static_cast<std::int64_t>(packet.priority);
  state.queue.push(rank, state.arrivals++, std::move(packet));
  enforce_queue_limits(state);
  return true;
}

void Network::enforce_queue_limits(LinkState& state) {
  if (!limits_.bounded()) return;
  while (!state.queue.empty() &&
         ((limits_.max_packets != 0 &&
           state.queue.size() > limits_.max_packets) ||
          (limits_.max_bytes != 0 &&
           state.queued_bytes > limits_.max_bytes))) {
    // Victim: lowest priority, newest within that class — the queue's
    // greatest (rank, seq) entry. The transmitting packet left the queue at
    // start_transmission and is never touched.
    const Packet victim = state.queue.remove_max();
    state.queued_bytes -= victim.bytes;
    // The packet never crossed the link: refund its bytes, keep the send
    // attempt counted, and record the eviction.
    state.bytes -= victim.bytes;
    stats_.bytes -= victim.bytes;
    ++state.queue_drops;
    ++stats_.queue_drops;
    ++stats_.dropped;
  }
}

void Network::set_link_up(LinkId link, bool up) {
  DDE_CHECK(link.valid() && link.value() < link_admin_up_.size(),
            "set_link_up: unknown link");
  if ((link_admin_up_[link.value()] != 0) == up) return;
  link_admin_up_[link.value()] = up ? 1 : 0;
  LinkState& state = link_state_[link.value()];
  if (!up) {
    // Sever: waiting packets are lost, and the transmission in progress
    // (if any) is voided by the epoch bump — its completion callback will
    // count it. Bytes were charged at send() and stay charged.
    stats_.dropped += state.queue.size();
    stats_.link_down_drops += state.queue.size();
    state.queue.clear();
    state.queued_bytes = 0;
    ++state.epoch;
  } else if (!state.busy) {
    start_transmission(link);  // resume service (queue is normally empty)
  }
}

void Network::start_transmission(LinkId link_id) {
  LinkState& state = link_state_[link_id.value()];
  if (state.busy || state.queue.empty()) return;
  if (!link_admin_up_[link_id.value()]) return;

  Packet pkt = state.queue.pop();  // highest priority, FIFO in class
  state.queued_bytes -= pkt.bytes;
  put_on_wire(link_id, std::move(pkt));
}

void Network::put_on_wire(LinkId link_id, Packet&& pkt) {
  LinkState& state = link_state_[link_id.value()];
  state.busy = true;
  const SimTime tx = topo_.link(link_id).transmission_time(pkt.bytes);
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(in_flight_.size()));
    in_flight_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  InFlight& f = in_flight_[slot];
  f.packet = std::move(pkt);
  f.link = link_id;
  f.epoch = state.epoch;
  const auto transmitted = [this, slot] { on_transmitted(slot); };
  static_assert(kStoredInline<decltype(transmitted)>);
  sim_.schedule_after(tx, transmitted);
}

void Network::on_transmitted(std::uint32_t slot) {
  const LinkId link_id = in_flight_[slot].link;
  LinkState& state = link_state_[link_id.value()];
  state.busy = false;
  // The link serves its next packet while this one propagates. That may
  // grow in_flight_, so the slot is indexed afresh below.
  start_transmission(link_id);
  // A link that went down while this packet was on the wire severed it
  // mid-transfer. Otherwise correlated loss (fault subsystem), then
  // independent injected loss: the packet consumed its link time either
  // way, but never arrives.
  const bool severed = state.epoch != in_flight_[slot].epoch;
  if (severed || (loss_model_ && loss_model_(link_id)) ||
      (loss_rate_ > 0.0 && loss_rng_.chance(loss_rate_))) {
    drop(slot, severed);
    return;
  }
  const auto arrived = [this, slot] { on_arrival(slot); };
  static_assert(kStoredInline<decltype(arrived)>);
  sim_.schedule_after(topo_.link(link_id).latency, arrived);
}

void Network::on_arrival(std::uint32_t slot) {
  const Link& link = topo_.link(in_flight_[slot].link);
  if (!node_up_[link.to.value()]) {
    drop(slot, true);  // a crashed receiver hears nothing
    return;
  }
  // Moved out before the handler runs: it may send and grow in_flight_.
  const Packet p = take(slot);
  if (trace_sink_) {
    trace_sink_->emit(obs::Event{obs::EventKind::kHopDeliver, sim_.now(),
                                 link.from.value(), 0, link.to.value(),
                                 p.bytes, 0.0});
  }
  Handler& h = handlers_[link.to.value()];
  if (h) h(link.to, p);
}

Packet Network::take(std::uint32_t slot) {
  free_slots_.push_back(slot);
  return std::move(in_flight_[slot].packet);
}

void Network::drop(std::uint32_t slot, bool link_fault) {
  take(slot);
  ++stats_.dropped;
  if (link_fault) ++stats_.link_down_drops;
}

}  // namespace dde::net
