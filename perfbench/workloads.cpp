#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/gige_mesh.hpp"
#include "cluster/lifecycle.hpp"
#include "cluster/tcp_mesh.hpp"
#include "coll/reduce_op.hpp"
#include "coll/scatter.hpp"
#include "coll/tree.hpp"
#include "flt/fault.hpp"
#include "mp/endpoint.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "via/agent.hpp"

namespace perfbench {

namespace {

using namespace meshmp;
using namespace meshmp::sim::literals;
using sim::Task;

// --------------------------------------------------------------------------
// Inputs and shared plumbing
// --------------------------------------------------------------------------

/// `n` pseudo-random bytes determined by (seed, stream).
std::vector<std::byte> seeded_bytes(std::size_t n, std::uint64_t seed,
                                    std::uint64_t stream) {
  std::vector<std::byte> v(n);
  std::uint64_t x = hash_mix(seed * 0x9e3779b97f4a7c15ULL, stream) | 1;
  for (std::size_t i = 0; i < n; i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(v.data() + i, &x, std::min<std::size_t>(8, n - i));
  }
  return v;
}

/// Writes message index `k` into the first bytes, so every message of a
/// stream is distinct and a duplicate or a loss changes the hash chain.
void stamp(std::vector<std::byte>& v, std::uint64_t k) {
  std::memcpy(v.data(), &k, std::min<std::size_t>(8, v.size()));
}

std::uint64_t hash_of(const std::vector<std::byte>& v) {
  return hash_bytes(0, v.data(), v.size());
}

std::string name_of(const char* prefix, std::int64_t bytes) {
  return std::string(prefix) + "." + std::to_string(bytes);
}

void run_engine(Ctx& x, sim::Engine& eng) {
  auto s = x.probe.span("sim", "run", Charge::kNone, &x.it.host["sim.run_s"]);
  eng.run();
}

void run_engine_until(Ctx& x, sim::Engine& eng, sim::Time t) {
  auto s = x.probe.span("sim", "run_until", Charge::kNone,
                        &x.it.host["sim.run_s"]);
  eng.run_until(t);
}

/// Runs the point's measured operation to completion.
void measured_run(Ctx& x, sim::Engine& eng, const char* name) {
  auto s = x.probe.span("driver", name, Charge::kNone, &x.it.host["op_s"]);
  x.it.counts["ops"] += 1;
  run_engine(x, eng);
}

void note_max(Ctx& x, const char* key, double v) {
  double& slot = x.it.counts[key];
  slot = std::max(slot, v);
}

void count_engine(Ctx& x, sim::Engine& eng, topo::Rank nodes) {
  x.it.counts["sim.events"] += static_cast<double>(eng.executed());
  note_max(x, "sim.queue_depth_hwm",
           static_cast<double>(eng.queue_depth_hwm()));
  x.it.counts["cluster.nodes"] += nodes;
}

template <typename Cluster>
void count_nics(Ctx& x, Cluster& c) {
  auto& k = x.it.counts;
  for (topo::Rank r = 0; r < c.size(); ++r) {
    for (auto& nic : c.node_hw(r).nics()) {
      const auto& nc = nic->counters();
      k["hw.nic.tx_frames"] += static_cast<double>(nc.get("tx_frames"));
      k["hw.nic.rx_frames"] += static_cast<double>(nc.get("rx_frames"));
      k["hw.nic.interrupts"] += static_cast<double>(nc.get("interrupts"));
    }
  }
}

/// Per-instance counts of a VIA cluster: engine, adapters, agents, VIs.
void count_via_cluster(Ctx& x, cluster::GigeMeshCluster& c) {
  count_engine(x, c.engine(), c.size());
  count_nics(x, c);
  // The modeled wire round trip, the floor under any acknowledgement RTT.
  note_max(x, "via.wire_rtt_ns",
           2 * static_cast<double>(c.config().link.propagation));
  auto& k = x.it.counts;
  for (topo::Rank r = 0; r < c.size(); ++r) {
    via::KernelAgent& ag = c.agent(r);
    k["via.fwd_frames"] += static_cast<double>(ag.counters().get("fwd_frames"));
    k["via.vis"] += static_cast<double>(ag.vi_count());
    for (std::uint32_t v = 0; v < static_cast<std::uint32_t>(ag.vi_count());
         ++v) {
      const auto& vc = ag.vi(v).counters();
      k["via.tx_messages"] += static_cast<double>(vc.get("tx_messages"));
      k["via.retransmits"] += static_cast<double>(vc.get("retransmits"));
    }
  }
}

void count_endpoints(Ctx& x,
                     const std::vector<std::unique_ptr<mp::Endpoint>>& eps) {
  double msgs = 0;
  for (const auto& ep : eps) {
    const auto& ec = ep->counters();
    msgs += static_cast<double>(ec.get("eager_tx") + ec.get("rts_tx") +
                                ec.get("self_tx"));
  }
  x.it.counts["mp.messages"] += msgs;
}

/// Tears the cluster down inside a span and records what memory the process
/// still holds afterwards (buf::Pool free lists keep storage for reuse).
template <typename T>
void teardown(Ctx& x, std::unique_ptr<T>& p) {
  {
    auto s = x.probe.span("cluster", "teardown", Charge::kNone,
                          &x.it.host["cluster.teardown_s"]);
    p.reset();
  }
  double& rss = x.it.host["buf.rss_after_point_mb"];
  rss = std::max(rss, current_rss_mb());
}

template <typename Cluster, typename Config>
std::unique_ptr<Cluster> build(Ctx& x, const Config& cfg) {
  x.probe.begin_point();
  auto s = x.probe.span("cluster", "build", Charge::kSetup,
                        &x.it.host["cluster.build_s"]);
  return std::make_unique<Cluster>(cfg);
}

/// Once a point's traffic has drained, no pooled buffer may still be held.
void check_pool_quiesced(Ctx& x, const std::string& point) {
  x.checks.expect(process_counts().pool_outstanding == 0,
                  point + ": buf.pool buffers outstanding at quiesce");
}

topo::Coord aggregate_shape(int ndims) {
  return ndims == 2 ? topo::Coord{3, 3} : topo::Coord{3, 3, 3};
}

topo::Rank aggregate_center(const topo::Torus& t, int ndims) {
  return t.rank(ndims == 2 ? topo::Coord{1, 1} : topo::Coord{1, 1, 1});
}

// --------------------------------------------------------------------------
// stream: Fig. 3 aggregate send bandwidth of the centre node, M-VIA and TCP
// --------------------------------------------------------------------------

/// Integrity record of one directed stream.
struct StreamTally {
  std::uint64_t sent_hash = 0;
  std::uint64_t recv_hash = 0;
  int received = 0;
  sim::Time end = 0;
};

Task<> dial_vi(via::KernelAgent& ag, net::NodeId peer, std::uint32_t svc,
               via::Vi*& out) {
  out = co_await ag.connect(peer, svc);
}

Task<> accept_vi(via::KernelAgent& ag, std::uint32_t svc, via::Vi*& out) {
  out = co_await ag.accept(svc);
}

Task<> via_send_stream(via::Vi& vi, const std::vector<std::byte>& base, int n,
                       StreamTally& t) {
  for (int i = 0; i < n; ++i) {
    std::vector<std::byte> m = base;
    stamp(m, static_cast<std::uint64_t>(i));
    t.sent_hash = hash_mix(t.sent_hash, hash_of(m));
    co_await vi.send(std::move(m));
  }
}

Task<> via_drain(via::Vi& vi, sim::Engine& eng, int n, StreamTally& t) {
  for (int i = 0; i < n; ++i) {
    via::RecvCompletion c = co_await vi.recv_completion();
    if (c.status != via::ViError::kNone) continue;
    ++t.received;
    t.recv_hash = hash_mix(t.recv_hash, hash_of(c.data));
  }
  t.end = eng.now();
}

void check_streams(Ctx& x, const std::string& point,
                   const std::vector<StreamTally>& tallies, int n) {
  for (std::size_t i = 0; i < tallies.size(); ++i) {
    x.checks.expect(tallies[i].received == n &&
                        tallies[i].recv_hash == tallies[i].sent_hash,
                    point + ": stream " + std::to_string(i) +
                        " not delivered exactly once with its payload");
  }
}

/// One M-VIA point: the centre dials one VI per link, each neighbour dials
/// one back, and all 2 x links stream `count` messages at once. Returns the
/// centre's aggregate send bandwidth in MB/s.
double via_aggregate(Ctx& x, int ndims, std::int64_t size, int count,
                     Row& row) {
  cluster::GigeMeshConfig cfg;
  cfg.shape = aggregate_shape(ndims);
  cfg.seed = x.seed;
  auto c = build<cluster::GigeMeshCluster>(x, cfg);
  const topo::Torus& t = c->torus();
  const topo::Rank center = aggregate_center(t, ndims);
  const auto dirs = t.directions(t.coord(center));
  const auto nlinks = dirs.size();
  struct LinkConn {
    via::Vi* mine = nullptr;
    via::Vi* theirs = nullptr;
  };
  std::vector<LinkConn> out(nlinks);
  std::vector<LinkConn> back(nlinks);
  {
    auto s = x.probe.span("via", "connect", Charge::kSetup,
                          &x.it.host["via.connect_s"]);
    for (std::size_t i = 0; i < nlinks; ++i) {
      const topo::Rank nb = *t.neighbor(center, dirs[i]);
      const auto svc = static_cast<std::uint32_t>(100 + i);
      c->agent(nb).listen(svc);
      accept_vi(c->agent(nb), svc, out[i].theirs).detach();
      dial_vi(c->agent(center), nb, svc, out[i].mine).detach();
    }
    run_engine(x, c->engine());
    for (std::size_t i = 0; i < nlinks; ++i) {
      const topo::Rank nb = *t.neighbor(center, dirs[i]);
      const auto svc = static_cast<std::uint32_t>(200 + i);
      c->agent(center).listen(svc);
      accept_vi(c->agent(center), svc, back[i].theirs).detach();
      dial_vi(c->agent(nb), center, svc, back[i].mine).detach();
    }
    run_engine(x, c->engine());
    for (std::size_t i = 0; i < nlinks; ++i) {
      for (int k = 0; k < count + 4; ++k) {
        out[i].theirs->post_recv(size + 64);
        back[i].theirs->post_recv(size + 64);
      }
    }
  }
  // tallies[i]: centre -> neighbour i; tallies[nlinks + i]: the reverse.
  std::vector<StreamTally> tallies(2 * nlinks);
  std::vector<std::vector<std::byte>> bases;
  for (std::size_t i = 0; i < 2 * nlinks; ++i) {
    bases.push_back(seeded_bytes(static_cast<std::size_t>(size), x.seed,
                                 (static_cast<std::uint64_t>(ndims) << 8) | i));
  }
  const sim::Time t0 = c->engine().now();
  for (std::size_t i = 0; i < nlinks; ++i) {
    via_send_stream(*out[i].mine, bases[i], count, tallies[i]).detach();
    via_drain(*back[i].theirs, c->engine(), count, tallies[nlinks + i])
        .detach();
    via_send_stream(*back[i].mine, bases[nlinks + i], count,
                    tallies[nlinks + i])
        .detach();
    via_drain(*out[i].theirs, c->engine(), count, tallies[i]).detach();
  }
  measured_run(x, c->engine(), "via_stream");
  sim::Time t_end = 0;
  for (const StreamTally& st : tallies) t_end = std::max(t_end, st.end);
  const double mbs = sim::rate_mb_per_s(
      static_cast<std::int64_t>(nlinks) * size * count, t_end - t0);
  const std::string point =
      name_of(ndims == 2 ? "stream.via_2d" : "stream.via_3d", size);
  check_streams(x, point, tallies, count);
  count_via_cluster(x, *c);
  row.events += c->engine().executed();
  for (const StreamTally& st : tallies) {
    row.result_hash = hash_mix(row.result_hash, st.recv_hash);
  }
  check_pool_quiesced(x, point);
  teardown(x, c);
  return mbs;
}

Task<> dial_tcp(tcpstack::TcpStack& st, net::NodeId peer, std::uint16_t port,
                tcpstack::TcpSocket*& out) {
  out = co_await st.connect(peer, port);
}

Task<> accept_tcp(tcpstack::TcpStack& st, std::uint16_t port,
                  tcpstack::TcpSocket*& out) {
  out = co_await st.accept(port);
}

Task<> tcp_send_stream(tcpstack::TcpSocket& s,
                       const std::vector<std::byte>& base, int n,
                       StreamTally& t) {
  for (int i = 0; i < n; ++i) {
    std::vector<std::byte> m = base;
    stamp(m, static_cast<std::uint64_t>(i));
    t.sent_hash = hash_mix(t.sent_hash, hash_of(m));
    co_await s.send(std::move(m));
  }
}

Task<> tcp_drain(tcpstack::TcpSocket& s, sim::Engine& eng, std::int64_t size,
                 int n, StreamTally& t) {
  const std::vector<std::byte> all = co_await s.recv_exact(size * n);
  t.end = eng.now();
  const auto sz = static_cast<std::size_t>(size);
  for (std::size_t off = 0; off + sz <= all.size(); off += sz) {
    ++t.received;
    t.recv_hash = hash_mix(t.recv_hash, hash_bytes(0, all.data() + off, sz));
  }
}

/// One TCP point, the same pattern over the kernel TCP stack.
double tcp_aggregate(Ctx& x, int ndims, std::int64_t size, int count,
                     Row& row) {
  cluster::TcpMeshConfig cfg;
  cfg.shape = aggregate_shape(ndims);
  cfg.seed = x.seed;
  auto c = build<cluster::TcpMeshCluster>(x, cfg);
  const topo::Torus& t = c->torus();
  const topo::Rank center = aggregate_center(t, ndims);
  const auto dirs = t.directions(t.coord(center));
  const auto nlinks = dirs.size();
  struct Conn {
    tcpstack::TcpSocket* mine = nullptr;
    tcpstack::TcpSocket* theirs = nullptr;
  };
  std::vector<Conn> out(nlinks);
  std::vector<Conn> back(nlinks);
  {
    auto s = x.probe.span("tcpstack", "connect", Charge::kSetup);
    for (std::size_t i = 0; i < nlinks; ++i) {
      const topo::Rank nb = *t.neighbor(center, dirs[i]);
      const auto port1 = static_cast<std::uint16_t>(100 + i);
      const auto port2 = static_cast<std::uint16_t>(200 + i);
      c->stack(nb).listen(port1);
      c->stack(center).listen(port2);
      accept_tcp(c->stack(nb), port1, out[i].theirs).detach();
      dial_tcp(c->stack(center), nb, port1, out[i].mine).detach();
      accept_tcp(c->stack(center), port2, back[i].theirs).detach();
      dial_tcp(c->stack(nb), center, port2, back[i].mine).detach();
    }
    run_engine(x, c->engine());
  }
  std::vector<StreamTally> tallies(2 * nlinks);
  std::vector<std::vector<std::byte>> bases;
  for (std::size_t i = 0; i < 2 * nlinks; ++i) {
    bases.push_back(
        seeded_bytes(static_cast<std::size_t>(size), x.seed,
                     (static_cast<std::uint64_t>(16 + ndims) << 8) | i));
  }
  const sim::Time t0 = c->engine().now();
  for (std::size_t i = 0; i < nlinks; ++i) {
    tcp_send_stream(*out[i].mine, bases[i], count, tallies[i]).detach();
    tcp_drain(*back[i].theirs, c->engine(), size, count, tallies[nlinks + i])
        .detach();
    tcp_send_stream(*back[i].mine, bases[nlinks + i], count,
                    tallies[nlinks + i])
        .detach();
    tcp_drain(*out[i].theirs, c->engine(), size, count, tallies[i]).detach();
  }
  measured_run(x, c->engine(), "tcp_stream");
  sim::Time t_end = 0;
  for (const StreamTally& st : tallies) t_end = std::max(t_end, st.end);
  const double mbs = sim::rate_mb_per_s(
      static_cast<std::int64_t>(nlinks) * size * count, t_end - t0);
  const std::string point =
      name_of(ndims == 2 ? "stream.tcp_2d" : "stream.tcp_3d", size);
  check_streams(x, point, tallies, count);
  count_engine(x, c->engine(), c->size());
  count_nics(x, *c);
  for (const std::vector<Conn>* conns : {&out, &back}) {
    for (const Conn& cn : *conns) {
      for (const tcpstack::TcpSocket* s : {cn.mine, cn.theirs}) {
        x.it.counts["tcpstack.retransmits"] +=
            static_cast<double>(s->counters().get("retransmits"));
        x.it.counts["tcpstack.rx_out_of_order"] +=
            static_cast<double>(s->counters().get("rx_out_of_order"));
      }
    }
  }
  row.events += c->engine().executed();
  for (const StreamTally& st : tallies) {
    row.result_hash = hash_mix(row.result_hash, st.recv_hash);
  }
  check_pool_quiesced(x, point);
  teardown(x, c);
  return mbs;
}

// Message sizes and counts per link follow the Fig. 3 program, so each row
// equals that figure's row of the same size. 1 KiB is where per-frame cost
// dominates, 16 KiB the eager/rendezvous boundary, 1 MiB the memory peak.
constexpr std::int64_t kStreamSizes[] = {1024, 16384, 1048576};

int stream_count(std::int64_t size) {
  return size >= 262144 ? 20 : (size >= 32768 ? 60 : 150);
}

void run_stream(Ctx& x) {
  for (const std::int64_t s : kStreamSizes) {
    const int n = stream_count(s);
    Row row;
    row.point = name_of("stream", s);
    const double via3 = via_aggregate(x, 3, s, n, row);
    const double via2 = via_aggregate(x, 2, s, n, row);
    const double tcp3 = tcp_aggregate(x, 3, s, n, row);
    const double tcp2 = tcp_aggregate(x, 2, s, n, row);
    row.values = {{"bytes", static_cast<double>(s)},
                  {"via_3d_mbs", via3},
                  {"via_2d_mbs", via2},
                  {"tcp_3d_mbs", tcp3},
                  {"tcp_2d_mbs", tcp2}};
    x.it.rows.push_back(std::move(row));
  }
}

// --------------------------------------------------------------------------
// collectives: Fig. 5/6 on the 4x8x8 torus through mp::Endpoint and coll
// --------------------------------------------------------------------------

struct CollWorld {
  std::unique_ptr<cluster::GigeMeshCluster> c;
  std::vector<std::unique_ptr<mp::Endpoint>> eps;
};

CollWorld build_coll_world(Ctx& x) {
  cluster::GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 8, 8};
  cfg.seed = x.seed;
  CollWorld w;
  w.c = build<cluster::GigeMeshCluster>(x, cfg);
  auto s = x.probe.span("mp", "endpoints", Charge::kSetup);
  for (topo::Rank r = 0; r < w.c->size(); ++r) {
    w.eps.push_back(
        std::make_unique<mp::Endpoint>(w.c->agent(r), mp::CoreParams{}));
  }
  return w;
}

void finish_coll_world(Ctx& x, CollWorld& w, const std::string& point,
                       Row& row) {
  count_via_cluster(x, *w.c);
  count_endpoints(x, w.eps);
  row.events += w.c->engine().executed();
  check_pool_quiesced(x, point);
  {
    auto s = x.probe.span("mp", "endpoints_teardown", Charge::kNone,
                          &x.it.host["cluster.teardown_s"]);
    w.eps.clear();
  }
  teardown(x, w.c);
}

enum class CollOp { kBcast, kGlobalSum };

/// Every rank enters the measured operation at this instant, after a
/// warm-up broadcast has dialled the tree channels (the Fig. 5 pattern).
constexpr sim::Time kGo = 500_ms;

Task<> coll_node(mp::Endpoint& ep, CollOp op, std::vector<std::byte>& data,
                 sim::Time& start, sim::Time& finish) {
  std::vector<std::byte> warm(8, std::byte{0x22});
  co_await coll::broadcast(ep, 0, warm, (1 << 23) | 100);
  co_await sim::delay(ep.engine(), kGo - ep.engine().now());
  if (ep.rank() == 0) start = ep.engine().now();
  if (op == CollOp::kBcast) {
    co_await coll::broadcast(ep, 0, data, (1 << 23) | 200);
  } else {
    co_await coll::allreduce(ep, data, coll::sum_op<double>(),
                             (1 << 23) | 300);
  }
  finish = ep.engine().now();
}

/// Operand of the global sum: element j of rank r holds r + c + j % 7, small
/// integers, so every summation order gives the exact closed form.
double operand(topo::Rank r, std::uint64_t c, std::size_t j) {
  return static_cast<double>(r) + static_cast<double>(c) +
         static_cast<double>(j % 7);
}

double run_collective(Ctx& x, CollOp op, std::int64_t bytes, Row& row) {
  CollWorld w = build_coll_world(x);
  const topo::Rank n = w.c->size();
  const auto sz = static_cast<std::size_t>(bytes);
  const std::uint64_t c = x.seed % 97;
  std::vector<std::vector<std::byte>> data(static_cast<std::size_t>(n));
  const std::vector<std::byte> root_data =
      seeded_bytes(sz, x.seed, static_cast<std::uint64_t>(bytes));
  for (topo::Rank r = 0; r < n; ++r) {
    auto& d = data[static_cast<std::size_t>(r)];
    if (op == CollOp::kBcast) {
      d = r == 0 ? root_data : std::vector<std::byte>(sz);
    } else {
      d.resize(sz);
      for (std::size_t j = 0; j < sz / 8; ++j) {
        const double v = operand(r, c, j);
        std::memcpy(d.data() + 8 * j, &v, 8);
      }
    }
  }
  sim::Time start = 0;
  std::vector<sim::Time> finish(static_cast<std::size_t>(n), 0);
  for (topo::Rank r = 0; r < n; ++r) {
    const auto i = static_cast<std::size_t>(r);
    coll_node(*w.eps[i], op, data[i], start, finish[i]).detach();
  }
  {
    auto s = x.probe.span("via", "connect", Charge::kSetup,
                          &x.it.host["via.connect_s"]);
    run_engine_until(x, w.c->engine(), kGo - 1);
  }
  {
    auto s = x.probe.span("coll", op == CollOp::kBcast ? "bcast" : "allreduce",
                          Charge::kNone, &x.it.host["op_s"]);
    run_engine(x, w.c->engine());
  }
  x.it.counts["ops"] += 1;
  const double us = sim::to_us(*std::max_element(finish.begin(), finish.end()) -
                               start);
  const std::string point =
      name_of(op == CollOp::kBcast ? "coll.bcast" : "coll.allreduce", bytes);
  bool ok = true;
  std::uint64_t h = 0;
  if (op == CollOp::kBcast) {
    const std::uint64_t want = hash_of(root_data);
    for (const auto& d : data) ok = ok && hash_of(d) == want;
    h = want;
  } else {
    const auto nd = static_cast<double>(n);
    for (const auto& d : data) {
      ok = ok && d.size() == sz;
      for (std::size_t j = 0; ok && j < sz / 8; ++j) {
        double v = 0;
        std::memcpy(&v, d.data() + 8 * j, 8);
        ok = v == nd * (nd - 1) / 2 + nd * operand(0, c, j);
      }
      h = hash_mix(h, hash_of(d));
    }
  }
  x.checks.expect(ok, point + (op == CollOp::kBcast
                                   ? ": a rank's data differs from the root's"
                                   : ": a global sum differs from n(n-1)/2 + "
                                     "n(c + j mod 7)"));
  row.result_hash = hash_mix(row.result_hash, h);
  finish_coll_world(x, w, point, row);
  return us;
}

Task<> scatter_node(mp::Endpoint& ep, coll::ScatterAlg alg,
                    const std::vector<std::vector<std::byte>>* chunks,
                    std::vector<std::byte>& mine, sim::Time& start,
                    sim::Time& finish) {
  co_await coll::barrier(ep, (1 << 23) | 100);
  if (ep.rank() == 0) start = ep.engine().now();
  mine = co_await coll::scatter(ep, 0, ep.rank() == 0 ? chunks : nullptr,
                                (1 << 23) | 400, alg);
  finish = ep.engine().now();
}

/// One Fig. 6 point: barrier, then root 0 scatters one chunk to every rank.
/// The chunks' channels are dialled inside the measured operation, as in the
/// figure program.
double run_scatter(Ctx& x, coll::ScatterAlg alg, std::int64_t bytes,
                   Row& row) {
  CollWorld w = build_coll_world(x);
  const topo::Rank n = w.c->size();
  std::vector<std::vector<std::byte>> chunks;
  for (topo::Rank r = 0; r < n; ++r) {
    chunks.push_back(seeded_bytes(static_cast<std::size_t>(bytes), x.seed,
                                  0x5c000000u + static_cast<std::uint64_t>(r)));
  }
  std::vector<std::vector<std::byte>> mine(static_cast<std::size_t>(n));
  sim::Time start = 0;
  std::vector<sim::Time> finish(static_cast<std::size_t>(n), 0);
  for (topo::Rank r = 0; r < n; ++r) {
    const auto i = static_cast<std::size_t>(r);
    scatter_node(*w.eps[i], alg, &chunks, mine[i], start, finish[i]).detach();
  }
  const bool sdf = alg == coll::ScatterAlg::kSdf;
  {
    auto s = x.probe.span("coll", sdf ? "scatter_sdf" : "scatter_opt",
                          Charge::kNone, &x.it.host["op_s"]);
    run_engine(x, w.c->engine());
  }
  x.it.counts["ops"] += 1;
  const double us = sim::to_us(*std::max_element(finish.begin(), finish.end()) -
                               start);
  const std::string point =
      name_of(sdf ? "coll.scatter_sdf" : "coll.scatter_opt", bytes);
  bool ok = true;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    ok = ok && mine[i] == chunks[i];
    row.result_hash = hash_mix(row.result_hash, hash_of(mine[i]));
  }
  x.checks.expect(ok, point + ": a scattered chunk differs from the root's");
  finish_coll_world(x, w, point, row);
  return us;
}

// Fig. 5's full size sweep (its rows must match that figure's baseline) and
// two Fig. 6 sizes for the SDF/OPT scatter comparison.
constexpr std::int64_t kCollSizes[] = {8,    64,    256,  1024,
                                       4096, 16384, 65536};
constexpr std::int64_t kScatterSizes[] = {64, 1024};

void run_collectives(Ctx& x) {
  for (const std::int64_t s : kCollSizes) {
    Row row;
    row.point = name_of("coll", s);
    const double b = run_collective(x, CollOp::kBcast, s, row);
    const double g = run_collective(x, CollOp::kGlobalSum, s, row);
    row.values = {{"bytes", static_cast<double>(s)},
                  {"broadcast_us", b},
                  {"globalsum_us", g}};
    x.it.rows.push_back(std::move(row));
  }
  for (const std::int64_t s : kScatterSizes) {
    Row row;
    row.point = name_of("scatter", s);
    const double sdf = run_scatter(x, coll::ScatterAlg::kSdf, s, row);
    const double opt = run_scatter(x, coll::ScatterAlg::kOpt, s, row);
    row.values = {{"bytes", static_cast<double>(s)},
                  {"sdf_us", sdf},
                  {"opt_us", opt}};
    x.it.rows.push_back(std::move(row));
  }
}

// --------------------------------------------------------------------------
// faults: one seeded campaign on 4x8x4 with ClusterLifecycle running
// --------------------------------------------------------------------------

// Rank = x + 4y + 32z. The plane cut at x = 2 splits the torus 64/64, the
// tie the lowest-surviving-rank rule breaks toward x < 2. Paced pairs live
// on that primary half, where their minimal routes stay, so every paced
// message must be delivered whatever the seed picks below.
constexpr int kPacedMsgs = 440;  // 100 us apart: spans the whole campaign
constexpr std::size_t kPacedBytes = 512;
// Campaign times are offsets from the end of the warm-up dial.
constexpr sim::Duration kCrashAt = 6_ms;
constexpr sim::Duration kCrashDown = 7_ms;
constexpr sim::Duration kPartitionAt = 22_ms;
constexpr sim::Duration kPartitionFor = 10_ms;
constexpr sim::Duration kEnd = 48_ms;

struct PacedPair {
  topo::Rank src;
  topo::Rank dst;
  int tag;
};
constexpr PacedPair kPaced[] = {{0, 81, 5}, {125, 44, 6}};

struct PairTally {
  int ok_sends = 0;
  int delivered = 0;
  std::uint64_t sent_hash = 0;
  std::uint64_t recv_hash = 0;
};

Task<> paced_sender(mp::Endpoint& ep, PacedPair p, std::uint64_t seed,
                    PairTally& t) {
  const std::vector<std::byte> base = seeded_bytes(
      kPacedBytes, seed, 0xfa000000u + static_cast<unsigned>(p.tag));
  for (int i = 0; i < kPacedMsgs; ++i) {
    std::vector<std::byte> m = base;
    stamp(m, static_cast<std::uint64_t>(i));
    t.sent_hash = hash_mix(t.sent_hash, hash_of(m));
    if (co_await ep.send(p.dst, p.tag, std::move(m)) == mp::SendStatus::kOk) {
      ++t.ok_sends;
    }
    co_await sim::delay(ep.engine(), 100_us);
  }
}

Task<> warm_sender(mp::Endpoint& ep, PacedPair p, PairTally& t) {
  std::vector<std::byte> m(8, std::byte{0x77});
  if (co_await ep.send(p.dst, p.tag, std::move(m)) == mp::SendStatus::kOk) {
    ++t.ok_sends;
  }
}

Task<> warm_receiver(mp::Endpoint& ep, PacedPair p, PairTally& t) {
  mp::Message m = co_await ep.recv(p.src, p.tag);
  if (m.ok) ++t.delivered;
}

Task<> paced_receiver(mp::Endpoint& ep, PacedPair p, PairTally& t) {
  for (int i = 0; i < kPacedMsgs; ++i) {
    mp::Message m = co_await ep.recv(p.src, p.tag);
    if (!m.ok) co_return;
    ++t.delivered;
    t.recv_hash = hash_mix(t.recv_hash, hash_of(m.data));
  }
}

/// Observer-side tallies (traced iterations only): transitions delivered
/// through ClusterLifecycle::subscribe, and the route-table inputs they
/// imply. The observer runs inside Engine::run_until, so its own host time
/// is kept apart and taken out of the simulator's.
struct TransitionTally {
  std::int64_t transitions = 0;
  double observer_s = 0;
  sim::Time victim_dead_last = -1;
  sim::Time alive_after_heal_last = -1;
  std::set<std::tuple<topo::Rank, std::uint64_t, std::uint64_t>> tables;
  std::set<std::pair<std::uint64_t, std::uint64_t>> dead_sets;
};

void subscribe_all(cluster::ClusterLifecycle& life,
                   cluster::GigeMeshCluster& c, topo::Rank victim,
                   sim::Time restart_at, sim::Time heal_at,
                   TransitionTally& tt) {
  for (topo::Rank r = 0; r < c.size(); ++r) {
    life.subscribe(r, [&life, &c, &tt, r, victim, restart_at, heal_at](
                          topo::Rank subject, cluster::Liveness to) {
      const double t0 = host_now_s();
      ++tt.transitions;
      const sim::Time now = c.engine().now();
      if (subject == victim && to == cluster::Liveness::kDead &&
          now < restart_at) {
        tt.victim_dead_last = std::max(tt.victim_dead_last, now);
      }
      if (to == cluster::Liveness::kAlive && now >= heal_at) {
        tt.alive_after_heal_last = std::max(tt.alive_after_heal_last, now);
      }
      std::uint64_t dead = 0;
      const std::vector<bool> ds = life.view(r).dead_set();
      for (std::size_t q = 0; q < ds.size(); ++q) {
        dead = hash_mix(dead, ds[q] ? q + 1 : 0);
      }
      std::uint64_t degraded = 0;
      for (topo::Rank q = 0; q < c.size(); ++q) {
        degraded = hash_mix(degraded, life.degraded_belief(r, q));
      }
      tt.tables.emplace(r, dead, degraded);
      tt.dead_sets.emplace(dead, degraded);
      tt.observer_s += host_now_s() - t0;
    });
  }
}

void run_faults(Ctx& x) {
  cluster::GigeMeshConfig cfg;
  cfg.shape = topo::Coord{4, 8, 4};
  cfg.seed = x.seed;
  cfg.via.retx_timeout = 1_ms;  // go-back-N recovers inside fault windows
  auto c = build<cluster::GigeMeshCluster>(x, cfg);
  const topo::Torus& t = c->torus();
  const std::uint64_t s = x.seed;
  // Seeded fault targets: the victim on the minority half, the degraded
  // cable on the primary half (it may carry paced traffic).
  const topo::Rank victim = t.rank(topo::Coord{
      2 + static_cast<int>(s & 1), static_cast<int>((s >> 1) % 8),
      static_cast<int>((s >> 4) % 4)});
  const topo::Rank degraded = t.rank(topo::Coord{
      static_cast<int>((s >> 6) & 1), static_cast<int>((s >> 7) % 8),
      static_cast<int>((s >> 10) % 4)});
  const sim::Time jitter = static_cast<sim::Time>(s % 5) * 50_us;

  std::vector<std::unique_ptr<mp::Endpoint>> eps;
  {
    auto sp = x.probe.span("mp", "endpoints", Charge::kSetup);
    for (topo::Rank r = 0; r < c->size(); ++r) {
      eps.push_back(
          std::make_unique<mp::Endpoint>(c->agent(r), mp::CoreParams{}));
    }
  }
  {
    // Dial the paced channels with one warm-up message each, before any
    // detector or fault exists.
    auto sp = x.probe.span("via", "connect", Charge::kSetup,
                           &x.it.host["via.connect_s"]);
    std::vector<PairTally> warm(std::size(kPaced));
    for (std::size_t i = 0; i < warm.size(); ++i) {
      const PacedPair p = kPaced[i];
      warm_receiver(*eps[static_cast<std::size_t>(p.dst)], p, warm[i])
          .detach();
      warm_sender(*eps[static_cast<std::size_t>(p.src)], p, warm[i]).detach();
    }
    run_engine(x, c->engine());
    for (std::size_t i = 0; i < warm.size(); ++i) {
      x.checks.expect(warm[i].ok_sends == 1 && warm[i].delivered == 1,
                      "faults: warm-up message of pair " + std::to_string(i) +
                          " not delivered");
    }
  }
  const sim::Time base = c->engine().now();
  const sim::Time crash_at = base + kCrashAt + jitter;
  const sim::Time heal_at = base + kPartitionAt + kPartitionFor;
  auto life = std::make_unique<cluster::ClusterLifecycle>(*c);
  std::unique_ptr<flt::Injector> inj;
  TransitionTally tt;
  {
    auto sp = x.probe.span("lifecycle", "start", Charge::kSetup);
    life->start();
    if (x.probe.tracing()) {
      subscribe_all(*life, *c, victim, crash_at + kCrashDown, heal_at, tt);
    }
  }
  {
    auto sp = x.probe.span("flt", "arm", Charge::kSetup);
    flt::Schedule sched;
    sched.link_degrade(base + 1_ms + jitter, 4_ms, degraded, topo::Dir{1, +1},
                       50_us, 0.5)
        .crash_restart(crash_at, victim, kCrashDown)
        .partition_window(base + kPartitionAt, 0, 2, kPartitionFor);
    inj = std::make_unique<flt::Injector>(*c, std::move(sched));
  }
  std::vector<PairTally> pairs(std::size(kPaced));
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const PacedPair p = kPaced[i];
    paced_receiver(*eps[static_cast<std::size_t>(p.dst)], p, pairs[i])
        .detach();
    paced_sender(*eps[static_cast<std::size_t>(p.src)], p, s, pairs[i])
        .detach();
  }

  x.it.counts["ops"] += 1;
  // Moves the observer's host time since `before` out of the engine's and
  // the enclosing timers' into the driver's own.
  auto discount_observer = [&](double before,
                               std::initializer_list<const char*> keys) {
    const double d = tt.observer_s - before;
    for (const char* key : keys) x.it.host[key] -= d;
    x.it.host["driver.observer_s"] += d;
  };
  auto phase = [&](const char* name, const char* key, sim::Time until) {
    const double t0 = host_now_s();
    const double observed = tt.observer_s;
    {
      auto sp =
          x.probe.span("lifecycle", name, Charge::kNone, &x.it.host[key]);
      run_engine_until(x, c->engine(), until);
    }
    x.it.host["op_s"] += host_now_s() - t0;
    discount_observer(observed, {"sim.run_s", "op_s", key});
  };
  phase("steady", "phase.steady_s", base + kCrashAt);
  phase("detect", "phase.detect_s", base + kCrashAt + 6_ms);
  x.checks.expect(life->survivors_agree(victim, cluster::Liveness::kDead),
                  "faults: survivors do not agree on the crash");
  phase("rejoin", "phase.rejoin_s", base + kPartitionAt);
  x.checks.expect(life->all_alive(), "faults: crashed node did not rejoin");
  phase("partition", "phase.partition_s", heal_at - 1);
  bool sides_ok = true;
  for (topo::Rank r = 0; r < c->size(); ++r) {
    sides_ok = sides_ok && life->is_minority(r) == (t.coord(r)[0] >= 2);
  }
  x.checks.expect(sides_ok, "faults: quorum sides did not settle 64/64");
  phase("heal", "phase.heal_s", base + kEnd);
  x.checks.expect(life->all_alive(), "faults: views not all alive after heal");
  {
    const double observed = tt.observer_s;
    {
      auto sp = x.probe.span("lifecycle", "stop", Charge::kNone,
                             &x.it.host["op_s"]);
      life->stop();
      run_engine(x, c->engine());
    }
    discount_observer(observed, {"sim.run_s", "op_s"});
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    x.checks.expect(pairs[i].delivered == kPacedMsgs &&
                        pairs[i].ok_sends == kPacedMsgs &&
                        pairs[i].recv_hash == pairs[i].sent_hash,
                    "faults: paced pair " + std::to_string(i) +
                        " not delivered exactly once with its payload");
  }
  check_pool_quiesced(x, "faults");

  count_via_cluster(x, *c);
  count_endpoints(x, eps);
  auto& k = x.it.counts;
  std::int64_t injected = 0;
  for (const auto& [name, v] : inj->counters().items()) injected += v;
  k["flt.injected"] += static_cast<double>(injected);
  const auto& pc = life->partition_counters();
  for (const char* key : {"minority_transitions", "primary_restorations",
                          "partition_rejoins", "reconcile_waves",
                          "carrier_heal_events", "view_pushes"}) {
    k[std::string("cluster.partition.") + key] +=
        static_cast<double>(pc.get(key));
  }
  const auto& phi = life->phi_counters();
  for (const char* key : {"suspects", "dead_declared", "refutations"}) {
    k[std::string("cluster.phi.") + key] += static_cast<double>(phi.get(key));
  }
  if (x.probe.tracing()) {
    k["lifecycle.transitions"] += static_cast<double>(tt.transitions);
    k["topo.distinct_tables"] += static_cast<double>(tt.tables.size());
    k["topo.distinct_dead_sets"] += static_cast<double>(tt.dead_sets.size());
    k["lifecycle.detect_sim_us"] +=
        sim::to_us(tt.victim_dead_last - crash_at);
    k["lifecycle.heal_converge_sim_us"] +=
        sim::to_us(tt.alive_after_heal_last - heal_at);
  }

  Row row;
  row.point = "faults.campaign";
  row.events = c->engine().executed();
  row.values = {
      {"sim_end_us", sim::to_us(c->engine().now())},
      {"minority_transitions",
       static_cast<double>(pc.get("minority_transitions"))},
      {"partition_rejoins", static_cast<double>(pc.get("partition_rejoins"))},
      {"reconcile_waves", static_cast<double>(pc.get("reconcile_waves"))},
      {"phi_suspects", static_cast<double>(phi.get("suspects"))},
      {"phi_dead_declared", static_cast<double>(phi.get("dead_declared"))},
      {"faults_injected", static_cast<double>(injected)}};
  for (const PairTally& p : pairs) {
    row.result_hash = hash_mix(row.result_hash, p.recv_hash);
  }
  x.it.rows.push_back(std::move(row));

  {
    auto sp = x.probe.span("cluster", "teardown", Charge::kNone,
                           &x.it.host["cluster.teardown_s"]);
    eps.clear();
    inj.reset();
    life.reset();
  }
  teardown(x, c);
}

}  // namespace

WorkloadFn find_workload(const std::string& name) {
  if (name == "stream") return run_stream;
  if (name == "collectives") return run_collectives;
  if (name == "faults") return run_faults;
  return nullptr;
}

}  // namespace perfbench
