// Copy-accounting regression tests: pin the exact number of charge_copy
// calls (and bytes) on each modeled data path.
//
// Together with the buf.copy.* counters in the bench baselines (fig2/3/5),
// these make copy-count drift a hard test failure: an extra memcpy sneaking
// onto a modeled path either goes through charge_copy() — and trips the
// exact counts pinned here — or it is host-only and must carry a
// `meshmp-lint: host-copy(...)` annotation to pass tools/meshmp_lint.py.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "buf/copy.hpp"
#include "cluster/gige_mesh.hpp"
#include "coll/tree.hpp"
#include "common.hpp"
#include "mp/endpoint.hpp"
#include "mp/wire.hpp"
#include "tcpstack/params.hpp"

namespace {

using namespace meshmp;
using cluster::GigeMeshCluster;
using cluster::GigeMeshConfig;
using mp::Endpoint;
using sim::Task;

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 7 + i * 13) & 0xff);
  }
  return v;
}

/// Fragments a `bytes`-sized message at the default VIA MTU.
std::uint64_t nfrags(std::uint64_t bytes) {
  const auto mtu = static_cast<std::uint64_t>(via::ViaParams{}.mtu_payload);
  return (bytes + mtu - 1) / mtu;
}

struct Pair {
  GigeMeshCluster cluster;
  Endpoint a;
  Endpoint b;

  Pair()
      : cluster([] {
          GigeMeshConfig cfg;
          cfg.shape = topo::Coord{4};
          return cfg;
        }()),
        a(cluster.agent(0), mp::CoreParams{}),
        b(cluster.agent(1), mp::CoreParams{}) {}

  /// One 0 -> 1 message over the endpoint layer, run to quiescence.
  void transfer(std::size_t size) {
    auto receiver = [](Endpoint& ep) -> Task<> {
      (void)co_await ep.recv(0, 1);
    };
    auto sender = [](Endpoint& ep, std::vector<std::byte> d) -> Task<> {
      (void)co_await ep.send(1, 1, std::move(d));
    };
    receiver(b).detach();
    sender(a, pattern(size)).detach();
    cluster.engine().run();
  }
};

// The eager path models exactly three byte movements: user -> bounce on the
// sender (charged in Endpoint::send), kernel ring -> registered buffer in
// the receive ISR (charged per fragment in KernelAgent::rx_data), and
// bounce -> user at match time (charged in handle_eager / recv).
TEST(CopyAudit, EagerPathChargesExactlyThreePayloadCopies) {
  Pair p;
  p.transfer(64);  // warm: dial + first-use setup, outside the measurement

  for (const std::size_t size : {std::size_t{1000}, std::size_t{4000}}) {
    buf::reset_copy_stats();
    p.transfer(size);
    const auto st = buf::copy_stats();
    EXPECT_EQ(st.copies, 2 + nfrags(size)) << "size=" << size;
    EXPECT_EQ(st.bytes, 3 * size) << "size=" << size;
  }
}

// The rendezvous path is zero-copy except the receive ISR's per-fragment
// gather into the registered region; the only other charges are the RTS and
// RTR control bodies crossing the receive ISR (FIN rides an empty frame).
TEST(CopyAudit, RendezvousPathChargesPayloadExactlyOnce) {
  Pair p;
  p.transfer(64);  // warm

  const std::size_t size = 100'000;  // over the 16 KiB eager cutoff
  buf::reset_copy_stats();
  p.transfer(size);
  const auto st = buf::copy_stats();
  EXPECT_EQ(st.copies, nfrags(size) + 2);
  EXPECT_EQ(st.bytes, size + sizeof(mp::RtsBody) + sizeof(mp::RtrBody));
}

// Fig3-style raw M-VIA streaming: no endpoint layer, so the only modeled
// copy is the receive ISR gather — per fragment, totalling the payload.
TEST(CopyAudit, Fig3StyleViaStreamChargesIsrGatherOnly) {
  benchutil::ViaPair p;
  constexpr int kCount = 20;
  constexpr std::int64_t kSize = 4000;
  for (int i = 0; i < kCount + 4; ++i) p.b->post_recv(kSize + 64);

  buf::reset_copy_stats();
  auto stream = [](via::Vi& vi, int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      co_await vi.send(benchutil::payload(kSize));
    }
  };
  auto drain = [](via::Vi& vi, int n) -> Task<> {
    for (int i = 0; i < n; ++i) (void)co_await vi.recv_completion();
  };
  stream(*p.a, kCount).detach();
  drain(*p.b, kCount).detach();
  p.cluster.run();

  const auto st = buf::copy_stats();
  EXPECT_EQ(st.copies, kCount * nfrags(kSize));
  EXPECT_EQ(st.bytes, kCount * static_cast<std::uint64_t>(kSize));
}

// The TCP baseline models two payload copies per byte: user -> skb once per
// MSS segment in the sender's stream_out, and socket buffer -> user once per
// recv() call, which recv_exact repeats until it has the whole message. How
// many recv() calls that takes depends on how segments arrive relative to the
// reader, so the copy count is pinned as the model produces it: any change
// to the charge sequence on either side shows up here.
TEST(CopyAudit, TcpStreamChargesSegmentCopiesAndSocketDrains) {
  benchutil::TcpPair p;
  auto transfer = [&p](std::size_t size) {
    auto receiver = [](tcpstack::TcpSocket& s, std::int64_t n) -> Task<> {
      (void)co_await s.recv_exact(n);
    };
    auto sender = [](tcpstack::TcpSocket& s,
                     std::vector<std::byte> d) -> Task<> {
      co_await s.send(std::move(d));
    };
    receiver(*p.b, static_cast<std::int64_t>(size)).detach();
    sender(*p.a, pattern(size)).detach();
    p.cluster.run();
  };
  transfer(64);  // warm, outside the measurement

  const auto mss = static_cast<std::uint64_t>(tcpstack::TcpParams{}.mss);
  struct Pin {
    std::size_t size;
    std::uint64_t copies;
  };
  // 1000 B: one segment, one recv. 100 kB fits the 256 KiB send window;
  // 400 kB blocks on it.
  for (const Pin& pin : {Pin{1000, 2}, Pin{100'000, 94}, Pin{400'000, 369}}) {
    buf::reset_copy_stats();
    transfer(pin.size);
    const auto st = buf::copy_stats();
    const std::uint64_t segs = (pin.size + mss - 1) / mss;
    EXPECT_EQ(st.bytes, 2 * pin.size) << "size=" << pin.size;
    EXPECT_EQ(st.copies, pin.copies) << "size=" << pin.size
                                     << " segments=" << segs;
  }
}

// Fig5-style collective on a small torus: the charged-copy count of a
// broadcast is a structural property of the spanning tree (n-1 eager
// messages, three charges each), so it is pinned exactly — and it must be
// identical on a second run of an identical world (accounting determinism).
TEST(CopyAudit, Fig5StyleBroadcastCountIsPinnedAndRepeatable) {
  constexpr std::size_t kSize = 256;
  auto run_once = []() -> buf::CopyStats {
    cluster::GigeMeshCluster c([] {
      GigeMeshConfig cfg;
      cfg.shape = topo::Coord{2, 2};
      return cfg;
    }());
    std::vector<std::unique_ptr<Endpoint>> eps;
    for (topo::Rank r = 0; r < c.size(); ++r) {
      eps.push_back(std::make_unique<Endpoint>(c.agent(r), mp::CoreParams{}));
    }
    auto node = [](Endpoint& ep) -> Task<> {
      std::vector<std::byte> data(kSize, std::byte{0x11});
      co_await coll::broadcast(ep, 0, data, 100);
    };
    buf::reset_copy_stats();
    for (auto& ep : eps) node(*ep).detach();
    c.run();
    return buf::copy_stats();
  };

  const buf::CopyStats first = run_once();
  // 4 ranks -> 3 tree edges; each eager transfer charges three times.
  EXPECT_EQ(first.copies, 9u);
  EXPECT_EQ(first.bytes, 3 * 3 * kSize);

  const buf::CopyStats second = run_once();
  EXPECT_EQ(second.copies, first.copies);
  EXPECT_EQ(second.bytes, first.bytes);
}

}  // namespace
