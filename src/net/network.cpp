#include "net/network.h"

#include "common/contracts.h"

namespace dde::net {

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

  state.queued_bytes += packet.bytes;
  const int priority = packet.priority;
  state.queue.push(priority, std::move(packet));
  if (!state.busy) start_transmission(*link_id);
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
    // Victim: lowest priority, newest within that class — the queue's back
    // element, exactly the old map's prev(end()). The transmitting packet
    // left the queue at start_transmission and is never touched.
    const Packet victim = state.queue.pop_back();
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
  const Link& link = topo_.link(link_id);
  LinkState& state = link_state_[link_id.value()];
  if (state.busy || state.queue.empty()) return;
  if (!link_admin_up_[link_id.value()]) return;

  Packet pkt = state.queue.pop_front();  // highest priority, FIFO in class
  state.queued_bytes -= pkt.bytes;
  state.busy = true;

  const SimTime tx = link.transmission_time(pkt.bytes);
  const NodeId from = link.from;
  const NodeId next = link.to;
  // Transmission completes after tx; the packet arrives after the extra
  // propagation latency while the link already serves its next packet.
  sim_.schedule_after(tx, [this, link_id, from, next,
                           latency = link.latency, epoch = state.epoch,
                           pkt = std::move(pkt)]() mutable {
    LinkState& st = link_state_[link_id.value()];
    st.busy = false;
    start_transmission(link_id);
    // The link went down while this packet was on the wire: severed
    // mid-transfer, never arrives.
    if (st.epoch != epoch) {
      ++stats_.dropped;
      ++stats_.link_down_drops;
      return;
    }
    // Correlated loss (fault subsystem), then independent injected loss:
    // either way the packet consumed its link time but never arrives.
    if (loss_model_ && loss_model_(link_id)) {
      ++stats_.dropped;
      return;
    }
    if (loss_rate_ > 0.0 && loss_rng_.chance(loss_rate_)) {
      ++stats_.dropped;
      return;
    }
    sim_.schedule_after(latency, [this, from, next,
                                  p = std::move(pkt)]() {
      // A crashed receiver hears nothing.
      if (!node_up_[next.value()]) {
        ++stats_.dropped;
        ++stats_.link_down_drops;
        return;
      }
      if (trace_sink_) {
        trace_sink_->emit(obs::Event{obs::EventKind::kHopDeliver, sim_.now(),
                                     from.value(), 0, next.value(), p.bytes,
                                     0.0});
      }
      Handler& h = handlers_[next.value()];
      if (h) h(next, p);
    });
  });
}

}  // namespace dde::net
