#include "net/network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "des/simulator.h"
#include "obs/trace.h"

namespace dde::net {
namespace {

struct Harness {
  des::Simulator sim;
  Topology topo;
  std::vector<NodeId> nodes;

  explicit Harness(std::size_t n, double bw = 1e6,
                   SimTime latency = SimTime::millis(1)) {
    for (std::size_t i = 0; i < n; ++i) nodes.push_back(topo.add_node());
    for (std::size_t i = 0; i + 1 < n; ++i) {
      topo.add_link(nodes[i], nodes[i + 1], bw, latency);
    }
    topo.compute_routes();
  }
};

Packet packet(std::uint64_t bytes, std::string tag = "") {
  Packet p;
  p.bytes = bytes;
  p.payload = std::move(tag);
  return p;
}

TEST(Network, DeliversOneHop) {
  Harness h(2);
  Network net(h.sim, h.topo);
  std::vector<std::string> received;
  net.set_handler(h.nodes[1], [&](NodeId self, const Packet& p) {
    EXPECT_EQ(self, h.nodes[1]);
    received.push_back(std::any_cast<std::string>(p.payload));
  });
  net.send(h.nodes[0], h.nodes[1], packet(1000, "hello"));
  h.sim.run_until();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "hello");
}

TEST(Network, ArrivalTimeIsSerializationPlusLatency) {
  Harness h(2, 1e6, SimTime::millis(10));
  Network net(h.sim, h.topo);
  SimTime arrival;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet&) {
    arrival = h.sim.now();
  });
  // 125000 bytes at 1 Mbps = 1 s serialization + 10 ms propagation.
  net.send(h.nodes[0], h.nodes[1], packet(125000));
  h.sim.run_until();
  EXPECT_EQ(arrival, SimTime::seconds(1) + SimTime::millis(10));
}

TEST(Network, LinkIsFifoAndSequential) {
  Harness h(2);
  Network net(h.sim, h.topo);
  std::vector<std::pair<std::string, SimTime>> rx;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet& p) {
    rx.emplace_back(std::any_cast<std::string>(p.payload), h.sim.now());
  });
  // Two 125 KB packets sent back to back: the second waits for the first.
  net.send(h.nodes[0], h.nodes[1], packet(125000, "a"));
  net.send(h.nodes[0], h.nodes[1], packet(125000, "b"));
  h.sim.run_until();
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_EQ(rx[0].first, "a");
  EXPECT_EQ(rx[0].second, SimTime::seconds(1) + SimTime::millis(1));
  EXPECT_EQ(rx[1].first, "b");
  EXPECT_EQ(rx[1].second, SimTime::seconds(2) + SimTime::millis(1));
}

TEST(Network, OppositeDirectionsDoNotContend) {
  Harness h(2);
  Network net(h.sim, h.topo);
  SimTime t01;
  SimTime t10;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet&) { t01 = h.sim.now(); });
  net.set_handler(h.nodes[0], [&](NodeId, const Packet&) { t10 = h.sim.now(); });
  net.send(h.nodes[0], h.nodes[1], packet(125000));
  net.send(h.nodes[1], h.nodes[0], packet(125000));
  h.sim.run_until();
  // Full duplex: both arrive at 1s + 1ms.
  EXPECT_EQ(t01, t10);
}

TEST(Network, SendToNonNeighborFails) {
  Harness h(3);
  Network net(h.sim, h.topo);
  bool got = false;
  net.set_handler(h.nodes[2], [&](NodeId, const Packet&) { got = true; });
  EXPECT_FALSE(net.send(h.nodes[0], h.nodes[2], packet(100)));
  h.sim.run_until();
  EXPECT_FALSE(got);
  EXPECT_EQ(net.stats().packets, 0u);
}

TEST(Network, StatsCountPerHopBytes) {
  Harness h(3);
  Network net(h.sim, h.topo);
  // Relay: node 1 forwards to node 2.
  net.set_handler(h.nodes[1], [&](NodeId, const Packet& p) {
    Packet copy;
    copy.bytes = p.bytes;
    copy.payload = p.payload;
    net.send(h.nodes[1], h.nodes[2], std::move(copy));
  });
  int delivered = 0;
  net.set_handler(h.nodes[2], [&](NodeId, const Packet&) { ++delivered; });
  net.send(h.nodes[0], h.nodes[1], packet(1000));
  h.sim.run_until();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.stats().packets, 2u);
  EXPECT_EQ(net.stats().bytes, 2000u);  // counted on both hops
}

TEST(Network, PerLinkBytes) {
  Harness h(2);
  Network net(h.sim, h.topo);
  net.set_handler(h.nodes[1], [](NodeId, const Packet&) {});
  net.send(h.nodes[0], h.nodes[1], packet(500));
  net.send(h.nodes[0], h.nodes[1], packet(700));
  h.sim.run_until();
  const auto link = h.topo.link_between(h.nodes[0], h.nodes[1]);
  ASSERT_TRUE(link.has_value());
  EXPECT_EQ(net.link_bytes(*link), 1200u);
  const auto back = h.topo.link_between(h.nodes[1], h.nodes[0]);
  EXPECT_EQ(net.link_bytes(*back), 0u);
}

TEST(Network, MessageIdsAssigned) {
  Harness h(2);
  Network net(h.sim, h.topo);
  std::vector<MessageId> ids;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet& p) {
    ids.push_back(p.id);
  });
  net.send(h.nodes[0], h.nodes[1], packet(1));
  net.send(h.nodes[0], h.nodes[1], packet(1));
  h.sim.run_until();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_TRUE(ids[0].valid());
  EXPECT_NE(ids[0], ids[1]);
}

TEST(Network, NoHandlerDropsSilently) {
  Harness h(2);
  Network net(h.sim, h.topo);
  EXPECT_TRUE(net.send(h.nodes[0], h.nodes[1], packet(100)));
  h.sim.run_until();  // must not crash
  EXPECT_EQ(net.stats().packets, 1u);
}

TEST(Network, NextHopDelegatesToTopology) {
  Harness h(4);
  Network net(h.sim, h.topo);
  EXPECT_EQ(net.next_hop(h.nodes[0], h.nodes[3]), h.nodes[1]);
}

TEST(Network, ZeroByteControlPacketArrivesAfterLatencyOnly) {
  Harness h(2, 1e6, SimTime::millis(7));
  Network net(h.sim, h.topo);
  SimTime arrival;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet&) {
    arrival = h.sim.now();
  });
  net.send(h.nodes[0], h.nodes[1], packet(0));
  h.sim.run_until();
  EXPECT_EQ(arrival, SimTime::millis(7));
}

TEST(Network, HandlerCanSendFurther) {
  // Chain forwarding across 4 nodes, accumulating hops in the payload.
  Harness h(4);
  Network net(h.sim, h.topo);
  int hops_seen = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    net.set_handler(h.nodes[i], [&, i](NodeId, const Packet& p) {
      ++hops_seen;
      if (i < 3) {
        Packet copy;
        copy.bytes = p.bytes;
        net.send(h.nodes[i], h.nodes[i + 1], std::move(copy));
      }
    });
  }
  net.send(h.nodes[0], h.nodes[1], packet(100));
  h.sim.run_until();
  EXPECT_EQ(hops_seen, 3);
}

TEST(Network, HandlerSendsWhileInFlightTableGrows) {
  // Every delivery sends two or three more packets while a link flaps, a
  // node crashes and two loss processes drop some, so the network's
  // in-flight table grows (and reallocates) inside receive handlers and in
  // the middle of a hop's completion. The handler reads its packet again
  // after sending: a packet handed out by reference into that table would
  // be freed memory by then (the sanitizer build catches it).
  struct Tag {
    std::uint64_t seq;  ///< send order on the packet's link
    int ttl;
  };
  Harness h(4, 1e6, SimTime::millis(10));  // 100 B: 0.8 ms on the wire
  Network net(h.sim, h.topo);
  const std::size_t n = h.nodes.size();
  const auto link_index = [&](NodeId from, NodeId to) {
    return from.value() * n + to.value();
  };
  std::vector<std::uint64_t> next_seq(n * n, 0);
  std::vector<std::int64_t> last_seq(n * n, -1);
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  const auto send = [&](NodeId from, NodeId to, int ttl) {
    Packet p = packet(100);
    p.src = from;
    p.payload = Tag{next_seq[link_index(from, to)], ttl};
    if (net.send(from, to, std::move(p))) {
      ++next_seq[link_index(from, to)];
      ++sent;
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    net.set_handler(h.nodes[i], [&, i](NodeId self, const Packet& p) {
      const int ttl = std::any_cast<const Tag&>(p.payload).ttl;
      if (ttl > 0) {
        if (i > 0) send(self, h.nodes[i - 1], ttl - 1);
        if (i + 1 < n) send(self, h.nodes[i + 1], ttl - 1);
        send(self, h.nodes[i == 0 ? 1 : i - 1], ttl - 1);
      }
      const auto& tag = std::any_cast<const Tag&>(p.payload);
      std::int64_t& last = last_seq[link_index(p.src, self)];
      EXPECT_GT(static_cast<std::int64_t>(tag.seq), last)
          << "link " << p.src.value() << "->" << self.value()
          << " delivered out of FIFO order";
      last = static_cast<std::int64_t>(tag.seq);
      ++delivered;
    });
  }
  const LinkId flapping = *h.topo.link_between(h.nodes[1], h.nodes[2]);
  for (int k = 1; k <= 20; ++k) {
    h.sim.schedule_at(SimTime::millis(5 * k),
                      [&, k] { net.set_link_up(flapping, k % 2 == 0); });
  }
  h.sim.schedule_at(SimTime::millis(32),
                    [&] { net.set_node_up(h.nodes[3], false); });
  h.sim.schedule_at(SimTime::millis(47),
                    [&] { net.set_node_up(h.nodes[3], true); });
  const LinkId lossy = *h.topo.link_between(h.nodes[2], h.nodes[1]);
  std::uint64_t lossy_seen = 0;
  net.set_loss_model(
      [&](LinkId l) { return l == lossy && ++lossy_seen % 4 == 0; });
  net.set_loss_rate(0.05, 11);
  for (int k = 0; k < 6; ++k) send(h.nodes[0], h.nodes[1], 6);
  h.sim.run_until();

  EXPECT_GT(sent, 500u);
  EXPECT_EQ(net.stats().packets, sent);
  EXPECT_EQ(delivered + net.stats().dropped, sent)
      << "each packet is either delivered or dropped, never both/neither";
  EXPECT_GT(net.stats().link_down_drops, 0u);
  EXPECT_GT(net.stats().dropped, net.stats().link_down_drops)
      << "the loss model and the loss rate must have claimed some too";
}

TEST(Network, TraceSinkSeesSendsAndDeliveries) {
  Harness h(3);
  Network net(h.sim, h.topo);
  obs::TraceSink sink({.ring_capacity = 16, .jsonl = nullptr, .derive = false});
  net.set_trace_sink(&sink);
  net.set_handler(h.nodes[1], [](NodeId, const Packet&) {});
  net.send(h.nodes[0], h.nodes[1], packet(1000, "x"));
  h.sim.run_until();
  const auto events = sink.ring_snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kHopSend);
  EXPECT_EQ(events[1].kind, obs::EventKind::kHopDeliver);
  for (const obs::Event& ev : events) {
    EXPECT_EQ(ev.node, h.nodes[0].value());     // transmitting node
    EXPECT_EQ(ev.subject, h.nodes[1].value());  // receiving node
    EXPECT_EQ(ev.bytes, 1000u);
  }
  // The send is stamped at enqueue time, the delivery after the
  // serialization and propagation delay.
  EXPECT_LT(events[0].at, events[1].at);
}

TEST(Network, TraceSinkDetachable) {
  Harness h(2);
  Network net(h.sim, h.topo);
  obs::TraceSink sink({.ring_capacity = 16, .jsonl = nullptr, .derive = false});
  net.set_trace_sink(&sink);
  net.send(h.nodes[0], h.nodes[1], packet(1));
  net.set_trace_sink(nullptr);
  net.send(h.nodes[0], h.nodes[1], packet(1));
  h.sim.run_until();
  // First packet: send traced; its delivery happens after the sink was
  // detached, so only that one send event is recorded.
  const auto events = sink.ring_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kHopSend);
  EXPECT_EQ(sink.emitted(), 1u);
}

TEST(Network, PriorityPreemptsQueueNotTransmission) {
  Harness h(2);
  Network net(h.sim, h.topo);
  std::vector<std::string> order;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet& p) {
    order.push_back(std::any_cast<std::string>(p.payload));
  });
  auto priority_packet = [](std::uint64_t bytes, std::string tag, int prio) {
    Packet p;
    p.bytes = bytes;
    p.priority = prio;
    p.payload = std::move(tag);
    return p;
  };
  // Three best-effort packets, then a critical one: the critical packet
  // jumps the queue but cannot preempt the transfer already in progress.
  net.send(h.nodes[0], h.nodes[1], priority_packet(125000, "a", 0));
  net.send(h.nodes[0], h.nodes[1], priority_packet(125000, "b", 0));
  net.send(h.nodes[0], h.nodes[1], priority_packet(125000, "c", 0));
  net.send(h.nodes[0], h.nodes[1], priority_packet(125000, "CRIT", 1));
  h.sim.run_until();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "a");
  EXPECT_EQ(order[1], "CRIT");
  EXPECT_EQ(order[2], "b");
  EXPECT_EQ(order[3], "c");
}

TEST(Network, BackgroundYieldsToEverything) {
  Harness h(2);
  Network net(h.sim, h.topo);
  std::vector<std::string> order;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet& p) {
    order.push_back(std::any_cast<std::string>(p.payload));
  });
  Packet bg;
  bg.bytes = 125000;
  bg.priority = -1;
  bg.payload = std::string("bg1");
  net.send(h.nodes[0], h.nodes[1], std::move(bg));
  Packet bg2;
  bg2.bytes = 125000;
  bg2.priority = -1;
  bg2.payload = std::string("bg2");
  net.send(h.nodes[0], h.nodes[1], std::move(bg2));
  Packet fg;
  fg.bytes = 125000;
  fg.payload = std::string("fg");
  net.send(h.nodes[0], h.nodes[1], std::move(fg));
  h.sim.run_until();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "bg1");  // already transmitting
  EXPECT_EQ(order[1], "fg");   // overtakes the queued background packet
  EXPECT_EQ(order[2], "bg2");
}

TEST(Network, FifoWithinPriorityClass) {
  Harness h(2);
  Network net(h.sim, h.topo);
  std::vector<std::string> order;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet& p) {
    order.push_back(std::any_cast<std::string>(p.payload));
  });
  for (const char* tag : {"1", "2", "3", "4"}) {
    Packet p;
    p.bytes = 1000;
    p.priority = 5;
    p.payload = std::string(tag);
    net.send(h.nodes[0], h.nodes[1], std::move(p));
  }
  h.sim.run_until();
  EXPECT_EQ(order, (std::vector<std::string>{"1", "2", "3", "4"}));
}

TEST(Network, QueueLengthObservable) {
  Harness h(2);
  Network net(h.sim, h.topo);
  net.set_handler(h.nodes[1], [](NodeId, const Packet&) {});
  const auto link = *h.topo.link_between(h.nodes[0], h.nodes[1]);
  EXPECT_EQ(net.queue_length(link), 0u);
  net.send(h.nodes[0], h.nodes[1], packet(125000));  // starts transmitting
  net.send(h.nodes[0], h.nodes[1], packet(125000));  // queued
  net.send(h.nodes[0], h.nodes[1], packet(125000));  // queued
  EXPECT_EQ(net.queue_length(link), 2u);
  h.sim.run_until();
  EXPECT_EQ(net.queue_length(link), 0u);
}

TEST(Network, LossDropsApproximatelyAtRate) {
  Harness h(2);
  Network net(h.sim, h.topo);
  net.set_loss_rate(0.3, 42);
  int delivered = 0;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet&) { ++delivered; });
  const int sent = 2000;
  for (int i = 0; i < sent; ++i) {
    net.send(h.nodes[0], h.nodes[1], packet(10));
  }
  h.sim.run_until();
  EXPECT_EQ(net.stats().dropped + static_cast<std::uint64_t>(delivered),
            static_cast<std::uint64_t>(sent));
  EXPECT_NEAR(static_cast<double>(net.stats().dropped) / sent, 0.3, 0.04);
}

TEST(Network, LossDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Harness h(2);
    Network net(h.sim, h.topo);
    net.set_loss_rate(0.5, seed);
    net.set_handler(h.nodes[1], [](NodeId, const Packet&) {});
    for (int i = 0; i < 500; ++i) {
      net.send(h.nodes[0], h.nodes[1], packet(10));
    }
    h.sim.run_until();
    return net.stats().dropped;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // overwhelmingly likely
}

TEST(Network, DroppedCountedExactlyOncePerLostPacket) {
  // Mixed loss sources in one run: queued + in-flight drops from a link
  // going down, then independent loss on the healed link. Every lost packet
  // must appear in `dropped` exactly once, and every sent byte stays
  // charged whether or not the packet arrived.
  Harness h(2);
  Network net(h.sim, h.topo);
  int delivered = 0;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet&) { ++delivered; });
  const auto link = *h.topo.link_between(h.nodes[0], h.nodes[1]);

  // Phase 1: one transmitting + two queued when the link dies at 0.5 s.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(net.send(h.nodes[0], h.nodes[1], packet(125000)));
  }
  h.sim.schedule_at(SimTime::millis(500), [&] { net.set_link_up(link, false); });
  // Phase 2: heal, then push 200 small packets through 30% loss.
  h.sim.schedule_at(SimTime::seconds(2), [&] {
    net.set_link_up(link, true);
    net.set_loss_rate(0.3, 42);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(net.send(h.nodes[0], h.nodes[1], packet(100)));
    }
  });
  h.sim.run_until();

  EXPECT_EQ(net.stats().packets, 203u);
  EXPECT_EQ(net.stats().dropped + static_cast<std::uint64_t>(delivered), 203u)
      << "each packet is either delivered or dropped, never both/neither";
  EXPECT_EQ(net.stats().link_down_drops, 3u);
  EXPECT_GT(net.stats().dropped, net.stats().link_down_drops)
      << "independent loss must have claimed some of the 200";
  EXPECT_EQ(net.stats().bytes, 3u * 125000u + 200u * 100u)
      << "bytes are charged at send time, drops do not refund them";
}

TEST(Network, DownLinkRejectsSendsAndHealsCleanly) {
  Harness h(2);
  Network net(h.sim, h.topo);
  int delivered = 0;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet&) { ++delivered; });
  const auto link = *h.topo.link_between(h.nodes[0], h.nodes[1]);
  EXPECT_TRUE(net.link_up(link));
  net.set_link_up(link, false);
  EXPECT_FALSE(net.link_up(link));
  EXPECT_FALSE(net.send(h.nodes[0], h.nodes[1], packet(100)));
  // Reverse direction is a distinct link and stays usable.
  const auto back = *h.topo.link_between(h.nodes[1], h.nodes[0]);
  EXPECT_TRUE(net.link_up(back));
  net.set_link_up(link, true);
  EXPECT_TRUE(net.send(h.nodes[0], h.nodes[1], packet(100)));
  h.sim.run_until();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.stats().dropped, 0u);
}

TEST(Network, DownNodeRejectsSendsAndDropsDeliveries) {
  Harness h(2);
  Network net(h.sim, h.topo);
  int delivered = 0;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet&) { ++delivered; });
  net.send(h.nodes[0], h.nodes[1], packet(125000));  // arrives ~1.001 s
  h.sim.schedule_at(SimTime::millis(500), [&] {
    net.set_node_up(h.nodes[1], false);
  });
  h.sim.run_until();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().dropped, 1u);
  EXPECT_EQ(net.stats().link_down_drops, 1u);
  EXPECT_FALSE(net.send(h.nodes[1], h.nodes[0], packet(100)))
      << "a downed node cannot originate traffic";
  net.set_node_up(h.nodes[1], true);
  net.send(h.nodes[0], h.nodes[1], packet(100));
  h.sim.run_until();
  EXPECT_EQ(delivered, 1);
}

TEST(Network, LossModelHookDecidesPerPacket) {
  Harness h(2);
  Network net(h.sim, h.topo);
  int delivered = 0;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet&) { ++delivered; });
  // Deterministic model: drop every other packet on this link.
  int seen = 0;
  net.set_loss_model([&](LinkId) { return (seen++ % 2) == 0; });
  for (int i = 0; i < 10; ++i) {
    net.send(h.nodes[0], h.nodes[1], packet(10));
  }
  h.sim.run_until();
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(net.stats().dropped, 5u);
  // Removing the model restores lossless delivery.
  net.set_loss_model(nullptr);
  net.send(h.nodes[0], h.nodes[1], packet(10));
  h.sim.run_until();
  EXPECT_EQ(delivered, 6);
}

TEST(Network, QueueCapNeverEvictsTransmittingPacket) {
  Harness h(2);
  Network net(h.sim, h.topo);
  net.set_queue_limits(QueueLimits{.max_packets = 1});
  std::vector<std::string> order;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet& p) {
    order.push_back(std::any_cast<std::string>(p.payload));
  });
  net.send(h.nodes[0], h.nodes[1], packet(125000, "t"));  // transmitting
  net.send(h.nodes[0], h.nodes[1], packet(125000, "x"));  // waiting, fits
  net.send(h.nodes[0], h.nodes[1], packet(125000, "y"));  // overflows
  h.sim.run_until();
  // The in-flight packet is untouchable; the overflow evicts the newest
  // same-priority packet, which is the arrival itself.
  EXPECT_EQ(order, (std::vector<std::string>{"t", "x"}));
  EXPECT_EQ(net.stats().queue_drops, 1u);
  EXPECT_EQ(net.stats().dropped, 1u);
}

TEST(Network, QueueCapEvictsLowestPriorityNewestFirst) {
  Harness h(2);
  Network net(h.sim, h.topo);
  net.set_queue_limits(QueueLimits{.max_packets = 2});
  std::vector<std::string> order;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet& p) {
    order.push_back(std::any_cast<std::string>(p.payload));
  });
  auto priority_packet = [](std::uint64_t bytes, std::string tag, int prio) {
    Packet p;
    p.bytes = bytes;
    p.priority = prio;
    p.payload = std::move(tag);
    return p;
  };
  net.send(h.nodes[0], h.nodes[1], priority_packet(125000, "t", 0));
  net.send(h.nodes[0], h.nodes[1], priority_packet(125000, "hi", 1));
  net.send(h.nodes[0], h.nodes[1], priority_packet(125000, "lo", 0));
  // A higher-priority arrival displaces the queued low-priority packet
  // rather than being rejected itself.
  net.send(h.nodes[0], h.nodes[1], priority_packet(125000, "crit", 2));
  h.sim.run_until();
  EXPECT_EQ(order, (std::vector<std::string>{"t", "crit", "hi"}));
  EXPECT_EQ(net.stats().queue_drops, 1u);
  const auto link = *h.topo.link_between(h.nodes[0], h.nodes[1]);
  EXPECT_EQ(net.link_queue_drops(link), 1u);
}

TEST(Network, QueueByteCapRefundsEvictedBytes) {
  Harness h(2);
  Network net(h.sim, h.topo);
  net.set_queue_limits(QueueLimits{.max_bytes = 1500});
  int delivered = 0;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet&) { ++delivered; });
  const auto link = *h.topo.link_between(h.nodes[0], h.nodes[1]);
  net.send(h.nodes[0], h.nodes[1], packet(125000));  // transmitting, uncapped
  net.send(h.nodes[0], h.nodes[1], packet(1000));    // waiting: 1000 B
  EXPECT_EQ(net.queue_bytes(link), 1000u);
  net.send(h.nodes[0], h.nodes[1], packet(1000));    // 2000 B > cap: evict
  EXPECT_EQ(net.queue_bytes(link), 1000u);
  h.sim.run_until();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.queue_bytes(link), 0u);
  // Evicted packets never crossed the link, so their bytes are refunded —
  // the tally matches exactly what was transmitted.
  EXPECT_EQ(net.stats().bytes, 126000u);
  EXPECT_EQ(net.link_bytes(link), 126000u);
  EXPECT_EQ(net.stats().queue_drops, 1u);
}

TEST(Network, PermissiveQueueCapsMatchUnbounded) {
  auto run = [](bool capped) {
    Harness h(2);
    Network net(h.sim, h.topo);
    if (capped) {
      net.set_queue_limits(
          QueueLimits{.max_packets = 1000, .max_bytes = 1 << 30});
    }
    std::vector<std::pair<std::string, SimTime>> rx;
    net.set_handler(h.nodes[1], [&](NodeId, const Packet& p) {
      rx.emplace_back(std::any_cast<std::string>(p.payload), h.sim.now());
    });
    for (const char* tag : {"1", "2", "3", "4", "5"}) {
      net.send(h.nodes[0], h.nodes[1], packet(50000, tag));
    }
    h.sim.run_until();
    EXPECT_EQ(net.stats().queue_drops, 0u);
    return rx;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Network, ZeroLossDeliversEverything) {
  Harness h(2);
  Network net(h.sim, h.topo);
  int delivered = 0;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet&) { ++delivered; });
  for (int i = 0; i < 100; ++i) {
    net.send(h.nodes[0], h.nodes[1], packet(10));
  }
  h.sim.run_until();
  EXPECT_EQ(delivered, 100);
  EXPECT_EQ(net.stats().dropped, 0u);
}

TEST(NetworkDeathTest, NodeAndLinkAccessorsRejectUnknownIds) {
  // Regression: set_node_up/node_up/link_up indexed their vectors without
  // bounds checks while the queue accessors used .at() — an out-of-range id
  // was silent UB in release builds. All four now DDE_CHECK.
  Harness h(2);
  Network net(h.sim, h.topo);
  const NodeId bogus_node{h.nodes.size() + 5};
  const LinkId bogus_link{h.topo.link_count() + 5};
  EXPECT_DEATH(net.set_node_up(bogus_node, false), "set_node_up");
  EXPECT_DEATH((void)net.node_up(bogus_node), "node_up");
  EXPECT_DEATH((void)net.link_up(bogus_link), "link_up");
  EXPECT_DEATH(net.set_link_up(bogus_link, false), "set_link_up");
  EXPECT_DEATH((void)net.node_up(NodeId{}), "node_up");
  // In-range ids keep working.
  net.set_node_up(h.nodes[0], false);
  EXPECT_FALSE(net.node_up(h.nodes[0]));
  net.set_node_up(h.nodes[0], true);
  EXPECT_TRUE(net.node_up(h.nodes[0]));
}

TEST(Network, EvictionVictimIsLowestPriorityNewest) {
  // The flat per-link heap must pick the same eviction victim the old
  // ordered map did: lowest priority first, newest within that class.
  Harness h(2);
  Network net(h.sim, h.topo);
  net.set_queue_limits(QueueLimits{3, 0});
  std::vector<std::string> delivered;
  net.set_handler(h.nodes[1], [&](NodeId, const Packet& p) {
    delivered.push_back(std::any_cast<std::string>(p.payload));
  });
  // First packet transmits immediately; the rest contend for 3 wait slots.
  auto prioritized = [&](int prio, std::string tag) {
    Packet p = packet(1000, std::move(tag));
    p.priority = prio;
    net.send(h.nodes[0], h.nodes[1], std::move(p));
  };
  prioritized(0, "head");
  prioritized(1, "hi-old");
  prioritized(0, "lo-old");
  prioritized(0, "lo-new");   // newest of the lowest class...
  prioritized(2, "hi-top");   // ...evicted when this arrives
  h.sim.run_until();
  EXPECT_EQ(delivered, (std::vector<std::string>{"head", "hi-top", "hi-old",
                                                 "lo-old"}));
  EXPECT_EQ(net.stats().queue_drops, 1u);
}

}  // namespace
}  // namespace dde::net
