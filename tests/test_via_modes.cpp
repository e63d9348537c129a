// Additional VIA coverage: unreliable-delivery mode, the kernel qdisc (the
// never-drop software transmit queue), ack cadence, and the cluster-wide
// counter sums.

#include <gtest/gtest.h>

#include <vector>

#include "cluster/gige_mesh.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "via/agent.hpp"
#include "via/vi.hpp"

namespace {

using namespace meshmp;
using namespace meshmp::sim::literals;
using cluster::GigeMeshCluster;
using cluster::GigeMeshConfig;
using sim::Task;
using via::RecvCompletion;
using via::Vi;

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed + i * 11) & 0xff);
  }
  return v;
}

struct Conn {
  Vi* a = nullptr;
  Vi* b = nullptr;
};

Conn connect_pair(GigeMeshCluster& c, topo::Rank ra, topo::Rank rb) {
  Conn conn;
  auto dial = [](via::KernelAgent& ag, net::NodeId to, Vi*& out) -> Task<> {
    out = co_await ag.connect(to, 7);
  };
  auto answer = [](via::KernelAgent& ag, Vi*& out) -> Task<> {
    out = co_await ag.accept(7);
  };
  c.agent(rb).listen(7);
  answer(c.agent(rb), conn.b).detach();
  dial(c.agent(ra), rb, conn.a).detach();
  c.engine().run();
  EXPECT_NE(conn.a, nullptr);
  EXPECT_NE(conn.b, nullptr);
  return conn;
}

TEST(ViaUnreliable, CleanWireDeliversWithoutAcks) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  cfg.via.reliability = via::Reliability::kUnreliable;
  GigeMeshCluster c(cfg);
  Conn conn = connect_pair(c, 0, 1);
  const int n = 30;
  for (int i = 0; i < n + 2; ++i) conn.b->post_recv(8192);
  int got = 0;
  auto receiver = [](Vi& vi, int count, int& cnt) -> Task<> {
    for (int i = 0; i < count; ++i) {
      (void)co_await vi.recv_completion();
      ++cnt;
    }
  };
  auto sender = [](Vi& vi, int count) -> Task<> {
    for (int i = 0; i < count; ++i) {
      co_await vi.send(pattern(4000, static_cast<std::uint8_t>(i)));
    }
  };
  receiver(*conn.b, n, got).detach();
  sender(*conn.a, n).detach();
  c.engine().run();
  EXPECT_EQ(got, n);
  EXPECT_EQ(conn.a->counters().get("retransmits"), 0);
  // No acks at all on an unreliable VI: the reverse wire carried only the
  // single ConnAck of the handshake.
  EXPECT_EQ(c.nic(1, topo::Dir{0, -1}).counters().get("tx_frames") +
                c.nic(1, topo::Dir{0, +1}).counters().get("tx_frames"),
            1);
}

TEST(ViaUnreliable, LostFramesAreSimplyGone) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  cfg.via.reliability = via::Reliability::kUnreliable;
  GigeMeshCluster c(cfg);
  Conn conn = connect_pair(c, 0, 1);
  // Drop everything after connecting: sends complete, nothing arrives,
  // nothing retransmits (that is what "unreliable delivery" means).
  for (topo::Rank r = 0; r < c.size(); ++r) {
    for (topo::Dir d : c.torus().directions(c.torus().coord(r))) {
      c.nic(r, d).wire_params().drop_prob = 1.0;
    }
  }
  conn.b->post_recv(1024);
  auto sender = [](Vi& vi) -> Task<> { co_await vi.send(pattern(100)); };
  sender(*conn.a).detach();
  c.engine().run_until(100_ms);
  EXPECT_EQ(conn.b->counters().get("rx_messages"), 0);
  EXPECT_EQ(conn.a->counters().get("retransmits"), 0);
  EXPECT_EQ(conn.a->counters().get("tx_messages"), 1);
}

TEST(ViaQdisc, KernelQueueAbsorbsRingPressure) {
  // A tiny tx ring forces acks/forwards through the qdisc; nothing may drop.
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  cfg.nic.tx_descriptors = 4;
  GigeMeshCluster c(cfg);
  Conn conn = connect_pair(c, 0, 1);
  const int n = 60;
  for (int i = 0; i < n + 2; ++i) conn.b->post_recv(8192);
  int got = 0;
  auto receiver = [](Vi& vi, int count, int& cnt) -> Task<> {
    for (int i = 0; i < count; ++i) {
      (void)co_await vi.recv_completion();
      ++cnt;
    }
  };
  auto sender = [](Vi& vi, int count) -> Task<> {
    for (int i = 0; i < count; ++i) {
      co_await vi.send(pattern(6000, static_cast<std::uint8_t>(i)));
    }
  };
  receiver(*conn.b, n, got).detach();
  sender(*conn.a, n).detach();
  c.engine().run();
  EXPECT_EQ(got, n);
}

TEST(ViaAcks, CumulativeAckCadenceFollowsAckEvery) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  cfg.via.ack_every = 4;
  GigeMeshCluster c(cfg);
  Conn conn = connect_pair(c, 0, 1);
  const int n = 40;  // 40 single-fragment messages
  for (int i = 0; i < n + 2; ++i) conn.b->post_recv(2048);
  int got = 0;
  auto receiver = [](Vi& vi, int count, int& cnt) -> Task<> {
    for (int i = 0; i < count; ++i) {
      (void)co_await vi.recv_completion();
      ++cnt;
    }
  };
  auto sender = [](Vi& vi, int count) -> Task<> {
    for (int i = 0; i < count; ++i) co_await vi.send(pattern(600));
  };
  receiver(*conn.b, n, got).detach();
  sender(*conn.a, n).detach();
  c.engine().run();
  EXPECT_EQ(got, n);
  // 40 in-order frames, one cumulative ack per 4: ~10 acks back to node 0.
  const auto acks_rxd =
      c.nic(0, topo::Dir{0, +1}).counters().get("rx_frames");
  EXPECT_GE(acks_rxd, 9);
  EXPECT_LE(acks_rxd, 13);
}

TEST(ClusterMetrics, RegistrySumsCounters) {
  GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  GigeMeshCluster c(cfg);
  Conn conn = connect_pair(c, 0, 2);  // 2 hops: forwarding involved
  conn.b->post_recv(4096);
  bool done = false;
  auto receiver = [](Vi& vi, bool& flag) -> Task<> {
    (void)co_await vi.recv_completion();
    flag = true;
  };
  auto sender = [](Vi& vi) -> Task<> { co_await vi.send(pattern(2000)); };
  receiver(*conn.b, done).detach();
  sender(*conn.a).detach();
  c.engine().run();
  ASSERT_TRUE(done);
  const auto m = obs::Registry::instance().snapshot_live();
  EXPECT_GT(c.engine().now(), 0);
  EXPECT_GT(m.counter("hw.nic.tx_frames"), 0);
  EXPECT_EQ(m.counter("hw.nic.tx_frames"),
            m.counter("hw.nic.rx_frames"));  // lossless run
  EXPECT_GT(m.counter("via.agent.fwd_frames"), 0);
  EXPECT_GT(m.counter("hw.nic.interrupts"), 0);
  EXPECT_EQ(m.counter("hw.nic.rx_checksum_drop"), 0);
}

}  // namespace
