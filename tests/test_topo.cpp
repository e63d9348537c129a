// Unit and property tests for mesh/torus geometry, SDF routing, the
// degraded-mode route tables and the OPT region partition.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "chk/digest.hpp"
#include "sim/rng.hpp"
#include "topo/coords.hpp"
#include "topo/partition.hpp"
#include "topo/switched.hpp"
#include "topo/torus.hpp"

namespace {

using namespace meshmp::topo;

TEST(Coord, BasicsAndEquality) {
  Coord c{1, 2, 3};
  EXPECT_EQ(c.ndims(), 3);
  EXPECT_EQ(c[0], 1);
  EXPECT_EQ(c[2], 3);
  c[1] = 7;
  EXPECT_EQ(c[1], 7);
  EXPECT_EQ(c.str(), "(1,7,3)");
  EXPECT_EQ((Coord{1, 2}), (Coord{1, 2}));
  EXPECT_NE((Coord{1, 2}), (Coord{2, 1}));
  EXPECT_NE((Coord{1, 2}), (Coord{1, 2, 0}));
}

TEST(Dir, IndexRoundTrip) {
  for (int i = 0; i < 8; ++i) {
    const Dir d = Dir::from_index(i);
    EXPECT_EQ(d.index(), i);
    EXPECT_EQ(d.opposite().opposite(), d);
    EXPECT_NE(d.opposite().index(), i);
  }
  EXPECT_EQ((Dir{0, +1}).str(), "+x");
  EXPECT_EQ((Dir{2, -1}).str(), "-z");
}

TEST(Torus, RankCoordRoundTrip) {
  const Torus t(Coord{4, 8, 8});
  EXPECT_EQ(t.size(), 256);
  EXPECT_EQ(t.ndims(), 3);
  EXPECT_EQ(t.ports(), 6);
  for (Rank r = 0; r < t.size(); ++r) {
    EXPECT_EQ(t.rank(t.coord(r)), r);
  }
  EXPECT_EQ(t.rank(Coord{0, 0, 0}), 0);
  EXPECT_EQ(t.rank(Coord{1, 0, 0}), 1);
  EXPECT_EQ(t.rank(Coord{0, 1, 0}), 4);  // dim 0 fastest
}

TEST(Torus, RejectsBadShapes) {
  EXPECT_THROW(Torus(Coord{}), std::invalid_argument);
  EXPECT_THROW(Torus(Coord{4, 0}), std::invalid_argument);
}

TEST(Torus, NeighborsWrapAround) {
  const Torus t(Coord{4, 8});
  auto n = t.neighbor(Coord{3, 0}, Dir{0, +1});
  ASSERT_TRUE(n);
  EXPECT_EQ(*n, (Coord{0, 0}));
  n = t.neighbor(Coord{0, 0}, Dir{1, -1});
  ASSERT_TRUE(n);
  EXPECT_EQ(*n, (Coord{0, 7}));
}

TEST(Torus, MeshEdgesDoNotWrap) {
  const Torus m(Coord{4, 4}, /*wrap=*/false);
  EXPECT_FALSE(m.neighbor(Coord{3, 1}, Dir{0, +1}));
  EXPECT_FALSE(m.neighbor(Coord{0, 1}, Dir{0, -1}));
  EXPECT_TRUE(m.neighbor(Coord{2, 1}, Dir{0, +1}));
  // Corner has only 2 directions, interior has 4.
  EXPECT_EQ(m.directions(Coord{0, 0}).size(), 2u);
  EXPECT_EQ(m.directions(Coord{1, 1}).size(), 4u);
}

TEST(Torus, ExtentOneDimensionHasNoLinks) {
  const Torus t(Coord{1, 4});
  EXPECT_FALSE(t.neighbor(Coord{0, 2}, Dir{0, +1}));
  EXPECT_EQ(t.ports(), 2);
}

TEST(Torus, TorusDelta) {
  const Torus t(Coord{8});
  EXPECT_EQ(t.delta(Coord{0}, Coord{3}, 0), 3);
  EXPECT_EQ(t.delta(Coord{0}, Coord{5}, 0), -3);  // shorter the other way
  EXPECT_EQ(t.delta(Coord{0}, Coord{4}, 0), 4);   // half-way tie -> positive
  EXPECT_EQ(t.delta(Coord{6}, Coord{1}, 0), 3);
  const Torus m(Coord{8}, /*wrap=*/false);
  EXPECT_EQ(m.delta(Coord{0}, Coord{5}, 0), 5);  // no wrap: plain difference
}

TEST(Torus, DistanceExamplesFromPaperGeometry) {
  const Torus t(Coord{4, 8, 8});
  // Farthest node from origin in a 4x8x8 torus: 2+4+4 = 10 hops.
  EXPECT_EQ(t.distance(Coord{0, 0, 0}, Coord{2, 4, 4}), 10);
  EXPECT_EQ(t.distance(Coord{0, 0, 0}, Coord{0, 0, 0}), 0);
  EXPECT_EQ(t.distance(Coord{0, 0, 0}, Coord{3, 7, 7}), 3);
}

TEST(Torus, SdfPicksSmallestRemainingDimension) {
  const Torus t(Coord{8, 8});
  // 1 step in x, 3 in y: SDF goes x first.
  auto d = t.sdf_next(Coord{0, 0}, Coord{1, 3});
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, (Dir{0, +1}));
  // 5 steps in x (so 3 the other way), 1 in y: y first.
  d = t.sdf_next(Coord{0, 0}, Coord{5, 1});
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, (Dir{1, +1}));
  EXPECT_FALSE(t.sdf_next(Coord{3, 3}, Coord{3, 3}));
}

// Property: over a sweep of shapes, every SDF route has minimal length and
// really arrives.
class TorusSweep : public ::testing::TestWithParam<Coord> {};

TEST_P(TorusSweep, RoutesAreMinimalAndArrive) {
  const Torus t(GetParam());
  for (Rank from = 0; from < t.size(); from += 7) {
    for (Rank to = 0; to < t.size(); to += 5) {
      const auto hops = t.route(t.coord(from), t.coord(to));
      EXPECT_EQ(static_cast<int>(hops.size()), t.distance(from, to));
      Coord cur = t.coord(from);
      for (Dir h : hops) {
        auto n = t.neighbor(cur, h);
        ASSERT_TRUE(n);
        cur = *n;
      }
      EXPECT_EQ(cur, t.coord(to));
    }
  }
}

TEST_P(TorusSweep, MinimalFirstHopsAreExactlyTheMinimalOnes) {
  const Torus t(GetParam());
  const Coord origin = t.coord(0);
  for (Rank to = 1; to < t.size(); to += 3) {
    const Coord dest = t.coord(to);
    const int dist = t.distance(origin, dest);
    std::set<int> claimed;
    for (Dir d : t.minimal_first_hops(origin, dest)) {
      claimed.insert(d.index());
    }
    for (Dir d : t.directions(origin)) {
      auto n = t.neighbor(origin, d);
      ASSERT_TRUE(n);
      const bool minimal = 1 + t.distance(t.rank(*n), to) == dist;
      EXPECT_EQ(claimed.count(d.index()) > 0, minimal)
          << "dir " << d.str() << " to " << dest.str();
    }
  }
}

TEST_P(TorusSweep, DeltaIsMinimalSignedDisplacement) {
  const Torus t(GetParam());
  for (Rank from = 0; from < t.size(); from += 11) {
    for (Rank to = 0; to < t.size(); to += 3) {
      const Coord a = t.coord(from);
      const Coord b = t.coord(to);
      for (int d = 0; d < t.ndims(); ++d) {
        const int dd = t.delta(a, b, d);
        const int extent = t.shape()[d];
        EXPECT_LE(std::abs(dd), extent / 2 + (extent % 2));
        // Walking dd steps along d really lands on b's coordinate.
        const int landed = ((a[d] + dd) % extent + extent) % extent;
        EXPECT_EQ(landed, b[d]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TorusSweep,
                         ::testing::Values(Coord{8}, Coord{5}, Coord{8, 8},
                                           Coord{4, 6}, Coord{4, 8, 8},
                                           Coord{3, 3, 3}, Coord{2, 4, 4, 2}),
                         [](const auto& info) {
                           std::string name;
                           for (int d = 0; d < info.param.ndims(); ++d) {
                             if (d) name += "x";
                             name += std::to_string(info.param[d]);
                           }
                           return name;
                         });

TEST(Torus, RouteViaForcesFirstHop) {
  const Torus t(Coord{8, 8});
  const Coord from{0, 0};
  const Coord to{4, 0};  // half-way: both +x and -x minimal
  for (Dir first : t.minimal_first_hops(from, to)) {
    const auto hops = t.route_via(from, to, first);
    EXPECT_EQ(hops.size(), 4u);
    EXPECT_EQ(hops.front(), first);
    Coord cur = from;
    for (Dir h : hops) cur = *t.neighbor(cur, h);
    EXPECT_EQ(cur, to);
  }
}

// --- Region partition -----------------------------------------------------

class PartitionSweep
    : public ::testing::TestWithParam<std::pair<Coord, Rank>> {};

TEST_P(PartitionSweep, CoversAllNodesDisjointly) {
  const auto& [shape, root] = GetParam();
  const Torus t(shape);
  const auto part = make_region_partition(t, root);
  EXPECT_EQ(part.num_regions(), t.ports());
  std::set<Rank> seen;
  for (const auto& region : part.members) {
    for (Rank r : region) {
      EXPECT_TRUE(seen.insert(r).second) << "rank in two regions";
    }
  }
  EXPECT_EQ(static_cast<Rank>(seen.size()), t.size() - 1);
  EXPECT_EQ(part.region_of[static_cast<std::size_t>(root)], -1);
}

TEST_P(PartitionSweep, RegionsReachableMinimallyViaTheirLink) {
  const auto& [shape, root] = GetParam();
  const Torus t(shape);
  const auto part = make_region_partition(t, root);
  const Coord root_c = t.coord(root);
  for (int i = 0; i < part.num_regions(); ++i) {
    const Dir link = part.region_dir[static_cast<std::size_t>(i)];
    for (Rank r : part.members[static_cast<std::size_t>(i)]) {
      auto first = t.neighbor(root_c, link);
      ASSERT_TRUE(first);
      EXPECT_EQ(1 + t.distance(t.rank(*first), r), t.distance(root, r))
          << "node " << t.coord(r).str() << " not minimal via " << link.str();
    }
  }
}

TEST_P(PartitionSweep, RegionsAreBalanced) {
  const auto& [shape, root] = GetParam();
  const Torus t(shape);
  const auto part = make_region_partition(t, root);
  std::size_t lo = static_cast<std::size_t>(t.size());
  std::size_t hi = 0;
  for (const auto& region : part.members) {
    lo = std::min(lo, region.size());
    hi = std::max(hi, region.size());
  }
  // Perfect balance is (p-1)/k; geometry can force some skew (e.g. the 4-deep
  // dimension of 4x8x8 owns fewer minimal routes), but the greedy pass must
  // stay within 2x of ideal.
  const double ideal =
      static_cast<double>(t.size() - 1) / part.members.size();
  EXPECT_GE(static_cast<double>(lo), ideal * 0.4);
  EXPECT_LE(static_cast<double>(hi), ideal * 2.0);
}

TEST_P(PartitionSweep, MembersAreFurthestDistanceFirst) {
  const auto& [shape, root] = GetParam();
  const Torus t(shape);
  const auto part = make_region_partition(t, root);
  for (const auto& region : part.members) {
    for (std::size_t i = 1; i < region.size(); ++i) {
      EXPECT_GE(t.distance(root, region[i - 1]), t.distance(root, region[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PartitionSweep,
    ::testing::Values(std::pair{Coord{8, 8}, Rank{0}},
                      std::pair{Coord{8, 8}, Rank{27}},
                      std::pair{Coord{4, 8, 8}, Rank{0}},
                      std::pair{Coord{4, 8, 8}, Rank{133}},
                      std::pair{Coord{6, 8, 8}, Rank{0}},
                      std::pair{Coord{5, 5}, Rank{12}}),
    [](const auto& info) {
      std::string name;
      for (int d = 0; d < info.param.first.ndims(); ++d) {
        if (d) name += "x";
        name += std::to_string(info.param.first[d]);
      }
      return name + "_root" + std::to_string(info.param.second);
    });

TEST(Switched, Distances) {
  const SwitchedTopology s{128};
  EXPECT_EQ(s.size(), 128);
  EXPECT_EQ(s.distance(3, 3), 0);
  EXPECT_EQ(s.distance(3, 99), 1);
}

// --- degraded-mode route tables ----------------------------------------------

// Every shape below, wrapped and as a plain mesh: the paper's 3-D torus, odd
// and even rings, extent-2 dimensions (both directions reach the same
// neighbour when wrapped), an extent-1 dimension and a 4-D lattice.
std::vector<std::pair<Coord, bool>> route_shapes() {
  std::vector<std::pair<Coord, bool>> shapes;
  for (const bool wrap : {true, false}) {
    for (const Coord& c : {Coord{4, 8, 4}, Coord{3, 3}, Coord{2, 4, 4},
                           Coord{2, 2}, Coord{5}, Coord{4, 1, 3}, Coord{4, 4},
                           Coord{2, 3, 2, 2}}) {
      shapes.emplace_back(c, wrap);
    }
  }
  return shapes;
}

struct RouteCase {
  Rank src = 0;
  std::vector<bool> dead;
  std::vector<DirMask> degraded;
};

// A seeded route-table input: a live source, every other rank dead with
// one probability and every rank's egress ports degraded with another.
RouteCase random_route_case(const Torus& t, meshmp::sim::Rng& rng) {
  constexpr double kP[] = {0.0, 0.05, 0.2, 0.45};
  const double p_dead = kP[rng.below(4)];
  const double p_degraded = kP[rng.below(4)];
  const auto n = static_cast<std::size_t>(t.size());
  const DirMask all = (DirMask{1} << (2 * t.ndims())) - 1;
  RouteCase c;
  c.src = static_cast<Rank>(rng.below(n));
  c.dead.assign(n, false);
  c.degraded.assign(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    if (static_cast<Rank>(r) != c.src && rng.bernoulli(p_dead)) {
      c.dead[r] = true;
    }
    if (rng.bernoulli(p_degraded)) {
      c.degraded[r] = static_cast<DirMask>(rng.next()) & all;
    }
  }
  return c;
}

// Reference route geometry from coordinate arithmetic alone: per rank, the
// set of first-hop directions (a DirMask) from `src` that start a live path
// with the fewest hops and, among those, the fewest degraded links crossed
// (no degraded mask: every shortest live path). Zero for src, dead ranks
// and ranks the dead cut off.
std::vector<DirMask> reference_first_hops(
    const Torus& t, Rank src, const std::vector<bool>& dead,
    const std::vector<DirMask>& degraded) {
  const auto n = static_cast<std::size_t>(t.size());
  const int nports = 2 * t.ndims();
  std::vector<int> hops(n, -1);
  std::vector<Rank> order{src};  // BFS order: non-decreasing hop count
  hops[static_cast<std::size_t>(src)] = 0;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const Rank u = order[head];
    for (int i = 0; i < nports; ++i) {
      const auto nb = t.neighbor(t.coord(u), Dir::from_index(i));
      if (!nb) continue;
      const auto m = static_cast<std::size_t>(t.rank(*nb));
      if (dead[m] || hops[m] >= 0) continue;
      hops[m] = hops[static_cast<std::size_t>(u)] + 1;
      order.push_back(t.rank(*nb));
    }
  }
  // Every predecessor on a shortest path sits earlier in `order`, so one
  // pass settles the fewest-degraded count and its first hops.
  std::vector<int> degs(n, INT_MAX);
  std::vector<DirMask> firsts(n, 0);
  degs[static_cast<std::size_t>(src)] = 0;
  for (const Rank u : order) {
    const auto ui = static_cast<std::size_t>(u);
    for (int i = 0; i < nports; ++i) {
      const auto nb = t.neighbor(t.coord(u), Dir::from_index(i));
      if (!nb) continue;
      const auto m = static_cast<std::size_t>(t.rank(*nb));
      if (dead[m] || hops[m] != hops[ui] + 1) continue;
      const int g = degs[ui] + (degraded.empty()
                                    ? 0
                                    : static_cast<int>((degraded[ui] >> i) & 1u));
      const DirMask f = u == src ? DirMask{1} << i : firsts[ui];
      if (g < degs[m]) {
        degs[m] = g;
        firsts[m] = f;
      } else if (g == degs[m]) {
        firsts[m] |= f;
      }
    }
  }
  return firsts;
}

TEST(TorusRouteTable, FirstHopsLieOnShortestLivePaths) {
  meshmp::sim::Rng rng(20050404);
  for (const auto& [shape, wrap] : route_shapes()) {
    const Torus t(shape, wrap);
    SCOPED_TRACE(shape.str() + (wrap ? " torus" : " mesh"));
    for (int i = 0; i < 150; ++i) {
      const RouteCase c = random_route_case(t, rng);
      const auto plain = t.route_table_avoiding(c.src, c.dead);
      const auto aware = t.route_table_avoiding(c.src, c.dead, c.degraded);
      const auto shortest = reference_first_hops(t, c.src, c.dead, {});
      const auto fewest = reference_first_hops(t, c.src, c.dead, c.degraded);
      ASSERT_EQ(plain.size(), static_cast<std::size_t>(t.size()));
      ASSERT_EQ(aware.size(), plain.size());
      for (std::size_t r = 0; r < plain.size(); ++r) {
        if (shortest[r] == 0) {
          // src, a dead rank, or one the dead disconnect.
          EXPECT_EQ(plain[r], -1) << "case " << i << " rank " << r;
          EXPECT_EQ(aware[r], -1) << "case " << i << " rank " << r;
          continue;
        }
        ASSERT_GE(plain[r], 0) << "case " << i << " rank " << r;
        ASSERT_GE(aware[r], 0) << "case " << i << " rank " << r;
        EXPECT_TRUE((shortest[r] >> plain[r]) & 1)
            << "case " << i << " rank " << r << ": not a shortest live path";
        // Degraded masks never lengthen a route, and pick a path crossing
        // the fewest degraded links.
        EXPECT_TRUE((shortest[r] >> aware[r]) & 1)
            << "case " << i << " rank " << r << ": degraded mask lengthened";
        EXPECT_TRUE((fewest[r] >> aware[r]) & 1)
            << "case " << i << " rank " << r << ": avoidable degraded link";
      }
      const std::vector<DirMask> zeros(c.degraded.size(), 0);
      EXPECT_EQ(t.route_table_avoiding(c.src, c.dead, zeros), plain);
    }
  }
}

TEST(TorusRouteTable, AdjacencyRowsMatchCoordinateArithmetic) {
  for (const auto& [shape, wrap] : route_shapes()) {
    const Torus t(shape, wrap);
    SCOPED_TRACE(shape.str() + (wrap ? " torus" : " mesh"));
    for (Rank r = 0; r < t.size(); ++r) {
      const Coord c = t.coord(r);
      const auto row = t.neighbors(r);
      ASSERT_EQ(row.size(), static_cast<std::size_t>(2 * t.ndims()));
      std::vector<Dir> linked;
      for (int i = 0; i < 2 * t.ndims(); ++i) {
        const Dir d = Dir::from_index(i);
        const auto nb = t.neighbor(c, d);
        EXPECT_EQ(row[static_cast<std::size_t>(i)], nb ? t.rank(*nb) : -1)
            << "rank " << r << " dir " << d.str();
        EXPECT_EQ(t.neighbor(r, d), nb ? std::optional<Rank>(t.rank(*nb))
                                       : std::nullopt);
        if (nb) linked.push_back(d);
      }
      // directions() yields exactly the linked entries, in row order.
      EXPECT_EQ(t.directions(c), linked) << "rank " << r;
    }
    EXPECT_FALSE(t.neighbor(0, Dir{static_cast<std::int8_t>(t.ndims()), +1}))
        << "a direction outside the torus has no link";
  }
}

// Pins the exact tables of both overloads over 4,000 seeded inputs (8,000
// tables). The digest was recorded from the coordinate-arithmetic BFS the
// adjacency-table walk replaced, so any change to discovery order or
// tie-breaking shows here before it moves a simulated result.
TEST(TorusRouteTable, SeededTablesMatchPinnedDigest) {
  meshmp::sim::Rng rng(0x7ab1e5);
  std::uint64_t h = meshmp::chk::kFnvOffset;
  int tables = 0;
  for (const auto& [shape, wrap] : route_shapes()) {
    const Torus t(shape, wrap);
    for (int i = 0; i < 250; ++i) {
      const RouteCase c = random_route_case(t, rng);
      for (const auto& table :
           {t.route_table_avoiding(c.src, c.dead),
            t.route_table_avoiding(c.src, c.dead, c.degraded)}) {
        h = meshmp::chk::fnv1a_bytes(h, table.data(), table.size());
        ++tables;
      }
    }
  }
  EXPECT_EQ(tables, 8000);
  EXPECT_EQ(h, 0xfd498af468922b24ULL);
}

}  // namespace
