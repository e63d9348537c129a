// Tests for the TCP/IP baseline stack: handshake, stream semantics,
// windowing, reliability under loss, IP forwarding across the mesh, and the
// latency relationship to M-VIA that motivates the paper.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "buf/pool.hpp"
#include "cluster/gige_mesh.hpp"
#include "cluster/tcp_mesh.hpp"
#include "sim/engine.hpp"

namespace {

using namespace meshmp;
using namespace meshmp::sim::literals;
using cluster::TcpMeshCluster;
using cluster::TcpMeshConfig;
using sim::Task;
using tcpstack::TcpSocket;

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed + i * 37) & 0xff);
  }
  return v;
}

TcpMeshConfig ring4() {
  TcpMeshConfig cfg;
  cfg.shape = topo::Coord{4};
  return cfg;
}

struct Pair {
  TcpSocket* a = nullptr;
  TcpSocket* b = nullptr;
};

Task<> dial(tcpstack::TcpStack& from, net::NodeId to, std::uint16_t port,
            Pair& out) {
  out.a = co_await from.connect(to, port);
}

Task<> answer(tcpstack::TcpStack& at, std::uint16_t port, Pair& out) {
  out.b = co_await at.accept(port);
}

Pair connect_pair(TcpMeshCluster& c, topo::Rank ra, topo::Rank rb,
                  std::uint16_t port = 5000) {
  Pair p;
  c.stack(rb).listen(port);
  answer(c.stack(rb), port, p).detach();
  dial(c.stack(ra), rb, port, p).detach();
  c.engine().run();
  EXPECT_NE(p.a, nullptr);
  EXPECT_NE(p.b, nullptr);
  return p;
}

TEST(TcpConnect, HandshakeWorks) {
  TcpMeshCluster c(ring4());
  Pair p = connect_pair(c, 0, 1);
  EXPECT_TRUE(p.a->connected());
  EXPECT_TRUE(p.b->connected());
  EXPECT_EQ(p.a->remote_node(), 1);
  EXPECT_EQ(p.b->remote_node(), 0);
}

TEST(TcpConnect, RefusedWithoutListener) {
  TcpMeshCluster c(ring4());
  Pair p;
  dial(c.stack(0), 1, 9999, p).detach();
  c.engine().run();
  EXPECT_EQ(p.a, nullptr);
  EXPECT_EQ(c.stack(1).counters().get("conn_refused"), 1);
}

Task<> send_all(TcpSocket& s, std::vector<std::byte> data) {
  co_await s.send(std::move(data));
}

Task<> recv_n(TcpSocket& s, std::int64_t n, std::vector<std::byte>& out,
              bool& done) {
  out = co_await s.recv_exact(n);
  done = true;
}

TEST(TcpStream, SmallTransferBitExact) {
  TcpMeshCluster c(ring4());
  Pair p = connect_pair(c, 0, 1);
  auto data = pattern(100);
  std::vector<std::byte> got;
  bool done = false;
  recv_n(*p.b, 100, got, done).detach();
  send_all(*p.a, data).detach();
  c.engine().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(got, data);
}

TEST(TcpStream, LargeTransferSpansSegmentsAndWindow) {
  TcpMeshCluster c(ring4());
  Pair p = connect_pair(c, 0, 1);
  const std::size_t n = 2'000'000;  // >> 256 KiB window, ~1382 segments
  auto data = pattern(n, 3);
  std::vector<std::byte> got;
  bool done = false;
  recv_n(*p.b, static_cast<std::int64_t>(n), got, done).detach();
  send_all(*p.a, data).detach();
  c.engine().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(got, data);
}

TEST(TcpStream, MultipleSendsCoalesceIntoStream) {
  TcpMeshCluster c(ring4());
  Pair p = connect_pair(c, 0, 1);
  auto sender = [](TcpSocket& s) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      co_await s.send(pattern(500, static_cast<std::uint8_t>(i)));
    }
  };
  std::vector<std::byte> got;
  bool done = false;
  recv_n(*p.b, 5000, got, done).detach();
  sender(*p.a).detach();
  c.engine().run();
  ASSERT_TRUE(done);
  for (int i = 0; i < 10; ++i) {
    auto expect = pattern(500, static_cast<std::uint8_t>(i));
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                           got.begin() + i * 500))
        << "chunk " << i;
  }
}

// The socket buffer is the queue of received segment payloads. recv(max)
// gathers straight out of it: reads of 1, 7, mss-1 and mss+1 bytes start and
// end inside segments, leaving the front payload partly read between calls,
// and the last read asks for more than is queued and gets the rest. Each
// segment travels in its own storage block, so the pool's outstanding count
// is exactly the number of payloads the queue still pins: a payload must go
// back as soon as its last byte is read.
TEST(TcpStream, RecvGathersAcrossSegmentsAndUnpinsReadPayloads) {
  TcpMeshCluster c(ring4());
  Pair p = connect_pair(c, 0, 1);
  auto& pool = buf::Pool::instance();
  const std::size_t base = pool.outstanding();
  const auto mss = static_cast<std::size_t>(c.stack(0).params().mss);

  const std::vector<std::byte> data = pattern(5 * mss + 123, 5);
  auto sender = [](TcpSocket& s, const std::vector<std::byte>& d,
                   std::size_t seg) -> Task<> {
    for (std::size_t off = 0; off < d.size(); off += seg) {
      const auto first = d.begin() + static_cast<std::ptrdiff_t>(off);
      const auto len = static_cast<std::ptrdiff_t>(
          std::min(seg, d.size() - off));
      co_await s.send(std::vector<std::byte>(first, first + len));
    }
  };
  sender(*p.a, data, mss).detach();
  c.engine().run();
  // Everything is delivered and acked: only the receive queue holds storage.
  ASSERT_EQ(pool.outstanding(), base + 6);

  auto reader = [](TcpSocket& s, std::int64_t max,
                   std::vector<std::byte>& out) -> Task<> {
    out = co_await s.recv(max);
  };
  struct Step {
    std::size_t ask;
    std::size_t got;
    std::size_t pinned;  ///< payloads still queued afterwards
  };
  const Step steps[] = {
      {1, 1, 6},
      {7, 7, 6},
      {mss - 1, mss - 1, 5},  // ends 7 bytes into the second payload
      {mss + 1, mss + 1, 4},  // ends 8 bytes into the third
      {10 * mss, 3 * mss + 115, 0},
  };
  std::vector<std::byte> got;
  for (const Step& st : steps) {
    std::vector<std::byte> chunk;
    reader(*p.b, static_cast<std::int64_t>(st.ask), chunk).detach();
    c.engine().run();
    EXPECT_EQ(chunk.size(), st.got) << "ask=" << st.ask;
    EXPECT_EQ(pool.outstanding(), base + st.pinned) << "ask=" << st.ask;
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(got, data);
  EXPECT_EQ(pool.outstanding(), base);
}

TEST(TcpStream, RecoversFromLoss) {
  TcpMeshConfig cfg = ring4();
  cfg.link.drop_prob = 0.02;
  TcpMeshCluster c(cfg);
  Pair p = connect_pair(c, 0, 1);
  const std::size_t n = 300'000;
  auto data = pattern(n, 7);
  std::vector<std::byte> got;
  bool done = false;
  recv_n(*p.b, static_cast<std::int64_t>(n), got, done).detach();
  send_all(*p.a, data).detach();
  c.engine().run_until(10_s);
  ASSERT_TRUE(done);
  EXPECT_EQ(got, data);
  EXPECT_GT(p.a->counters().get("retransmits"), 0);
}

TEST(TcpForwarding, MultiHopStream) {
  TcpMeshCluster c(ring4());
  Pair p = connect_pair(c, 0, 2);  // 2 hops on the ring
  const std::size_t n = 50'000;
  auto data = pattern(n, 9);
  std::vector<std::byte> got;
  bool done = false;
  recv_n(*p.b, static_cast<std::int64_t>(n), got, done).detach();
  send_all(*p.a, data).detach();
  c.engine().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(got, data);
  EXPECT_GT(c.stack(1).counters().get("fwd_frames") +
                c.stack(3).counters().get("fwd_frames"),
            0);
}

// The relationship the whole paper hinges on: TCP small-message latency is
// at least ~30% above M-VIA on identical hardware (paper sec. 4.1).
TEST(TcpVsVia, TcpLatencyAtLeast30PercentHigher) {
  // TCP ping
  double tcp_us = 0;
  {
    TcpMeshCluster c(ring4());
    Pair p = connect_pair(c, 0, 1);
    bool done = false;
    sim::Time t1 = 0;
    auto pong = [](TcpSocket& s) -> Task<> {
      auto m = co_await s.recv_exact(64);
      co_await s.send(std::move(m));
    };
    auto ping = [](TcpSocket& s, sim::Engine& eng, sim::Time& end,
                   bool& ok) -> Task<> {
      co_await s.send(pattern(64));
      (void)co_await s.recv_exact(64);
      end = eng.now();
      ok = true;
    };
    const sim::Time t0 = c.engine().now();
    pong(*p.b).detach();
    ping(*p.a, c.engine(), t1, done).detach();
    c.engine().run();
    ASSERT_TRUE(done);
    tcp_us = sim::to_us(t1 - t0) / 2.0;
  }
  // M-VIA ping
  double via_us = 0;
  {
    cluster::GigeMeshConfig cfg;
    cfg.shape = topo::Coord{4};
    cluster::GigeMeshCluster c(cfg);
    via::Vi* va = nullptr;
    via::Vi* vb = nullptr;
    auto conn_a = [](via::KernelAgent& ag, via::Vi*& out) -> Task<> {
      out = co_await ag.connect(1, 1);
    };
    auto conn_b = [](via::KernelAgent& ag, via::Vi*& out) -> Task<> {
      out = co_await ag.accept(1);
    };
    c.agent(1).listen(1);
    conn_b(c.agent(1), vb).detach();
    conn_a(c.agent(0), va).detach();
    c.engine().run();
    ASSERT_NE(va, nullptr);
    ASSERT_NE(vb, nullptr);
    va->post_recv(1024);
    vb->post_recv(1024);
    bool done = false;
    sim::Time t1 = 0;
    auto pong = [](via::Vi& vi) -> Task<> {
      auto m = co_await vi.recv_completion();
      co_await vi.send(std::move(m.data));
    };
    auto ping = [](via::Vi& vi, sim::Engine& eng, sim::Time& end,
                   bool& ok) -> Task<> {
      co_await vi.send(pattern(64));
      (void)co_await vi.recv_completion();
      end = eng.now();
      ok = true;
    };
    const sim::Time t0 = c.engine().now();
    pong(*vb).detach();
    ping(*va, c.engine(), t1, done).detach();
    c.engine().run();
    ASSERT_TRUE(done);
    via_us = sim::to_us(t1 - t0) / 2.0;
  }
  EXPECT_GE(tcp_us, via_us * 1.3)
      << "tcp=" << tcp_us << "us via=" << via_us << "us";
  // And the M-VIA number itself must sit near the paper's 18.5 us.
  EXPECT_NEAR(via_us, 18.5, 3.0);
}

}  // namespace
