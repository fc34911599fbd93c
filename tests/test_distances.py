"""Path engine: signed/colored distances, Wiener indices, bounds."""

import pickle
import random
import warnings
from itertools import combinations, product

import pytest

import naive
from signedwiener import canceling, distances
from signedwiener.canceling import (
    is_k_canceling_signing,
    is_rk_canceling_coloring,
)
from signedwiener.distances import (
    INFINITE,
    EdgeColoring,
    GuardOverride,
    PathWitness,
    Signing,
    SizeGuardError,
    achievable_path_sums,
    bipartite_lower_bound,
    canceling_path_witness,
    canceling_reach_row,
    leaf_lower_bound,
    signed_distance,
    signed_distance_row,
    signed_distance_with_witness,
    wiener_classical,
    wiener_signed,
)
from signedwiener.graphs import (
    Graph,
    bfs_distances,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    square,
    star_graph,
)
from signedwiener.search import connected_graphs
from signedwiener.witnesses import (
    complete_cyclic_signing,
    complete_rk_coloring,
    square_cycle_signing,
)


def square_path_signs(n):
    """+1 on consecutive pairs, -1 on distance-2 pairs of P_n squared."""
    sq = square(path_graph(n))
    return sq, tuple(1 if v - u == 1 else -1 for u, v in sq.edges)


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def colored_cases(seed, trials):
    """Random r-colorings with r in 2..6 on at most 8 vertices (r > n-1
    included), then cap-tight ones: a path or cycle on q*r+1 vertices
    colored 1..r in turn, whose canceling paths use each color exactly
    q = (n-1) // r times."""
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, 0.6 if n <= 6 else 0.45)
        r = rng.choice((2, 3, 4, 5, 6))
        used = rng.randint(1, r)
        yield g, EdgeColoring(r, tuple(rng.randint(1, used)
                                       for _ in range(g.m)))
    for r, q in ((3, 1), (3, 2), (4, 1), (5, 1), (6, 1)):
        for g in (path_graph(q * r + 1), cycle_graph(q * r + 1)):
            yield g, EdgeColoring(r, tuple(i % r + 1 for i in range(g.m)))


def random_colorings(seed, trials):
    """Random r-colorings, r in 3..5, on 3 to 9 vertices, most with
    n >= 2r + 1 for r = 3 or 4, where the count cap q is 2, and some
    with few colors used."""
    rng = random.Random(seed)
    for trial in range(trials):
        r = rng.choice((3, 3, 4, 5))
        n = rng.choice((rng.randint(3, 9), 2 * r + 1 if r < 5 else 9,
                        9, 8, 7))
        g = random_graph(rng, n, rng.choice((0.3, 0.4, 0.55)))
        used = rng.choice((r, r, rng.randint(1, r)))
        yield g, EdgeColoring(r, tuple(rng.randint(1, used)
                                       for _ in range(g.m)))


def joined_colorings(seed, trials):
    """Random r-colorings where the rows join at level r (count cap
    q >= 3): three quarters with r = 3 on 10 or 11 vertices and 12 to
    18 edges, the rest with r = 4 on 13 vertices and 16 to 19 edges,
    sparse enough for tests/naive.py to walk every simple path."""
    rng = random.Random(seed)
    for trial in range(trials):
        r, n, edges = ((3, rng.choice((10, 11)), (12, 18)) if trial % 4
                       else (4, 13, (16, 19)))
        pairs = list(combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(*edges)))
        yield g, EdgeColoring(r, tuple(rng.randint(1, r)
                                       for _ in range(g.m)))


def bipartite_signings(seed, trials):
    """Random signings of bipartite graphs on 10 to 14 vertices: the
    path 0-1-...-(n-1), closed to a cycle when n is even, plus one to
    four chords joining the two sides.  Pairs across the sides have
    parity floor 1 and pairs within a side floor 0, and a sparse graph
    leaves many of them without a floor path of four edges or fewer,
    so rows reach the join at both floors."""
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(10, 14)
        edges = {(v, v + 1) for v in range(n - 1)}
        if n % 2 == 0:
            edges.add((0, n - 1))
        chords = [(a, b) for a, b in combinations(range(n), 2)
                  if (b - a) % 2 and b - a > 1 and (a, b) != (0, n - 1)]
        edges.update(rng.sample(chords, rng.randint(1, 4)))
        g = Graph(n, sorted(edges))
        yield g, tuple(rng.choice((1, -1)) for _ in range(g.m))


def naive_certificate(g, chi, k):
    """The lex-first (D, u, v), in g's vertex ids, over the deletion
    sets D of size min(k-1, n-2) and pairs u < v of g - D, with no
    canceling uv-path in g - D, by tests/naive.py; None if none."""
    for dead in combinations(range(g.n), max(min(k - 1, g.n - 2), 0)):
        keep = [v for v in range(g.n) if v not in dead]
        n, edges, colors = naive.restrict(g.n, g.edges, chi.colors,
                                          set(dead))
        for u in range(n):
            row = naive.canceling_row(n, edges, colors, chi.r, u)
            for v in range(u + 1, n):
                if not row[v]:
                    return dead, keep[u], keep[v]
    return None


@pytest.fixture
def sweeps(monkeypatch):
    """The sources of the _levels sweeps started since last cleared."""
    sources = []
    sweep = distances._levels

    def counted(adj, source, window=None):
        sources.append(source)
        return sweep(adj, source, window)

    monkeypatch.setattr(distances, "_levels", counted)
    return sources


class TestSignedDistance:
    def test_forced_path(self):
        g = path_graph(3)
        assert signed_distance(g, (1, 1), 0, 2) == 2

    def test_triangle_min_of_two_routes(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert signed_distance(g, (1, 1, -1), 0, 2) == 1

    def test_self_distance_is_zero(self):
        g = path_graph(4)
        for v in range(4):
            assert signed_distance(g, (1, -1, 1), v, v) == 0

    def test_disconnected_pair_is_infinite(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert signed_distance(g, (1, 1), 0, 3) is INFINITE

    def test_square_path_cancellation(self):
        sq, signs = square_path_signs(5)
        assert signed_distance(sq, signs, 0, 4) == 0
        sq, signs = square_path_signs(6)
        assert signed_distance(sq, signs, 0, 5) == 1

    def test_row_matches_single_queries(self):
        rng = random.Random(11)
        for trial in range(25):
            g = random_graph(rng, rng.randint(2, 7))
            signs = tuple(rng.choice((1, -1)) for _ in range(g.m))
            for u in range(g.n):
                row = signed_distance_row(g, signs, u)
                for v in range(g.n):
                    assert row[v] == signed_distance(g, signs, u, v)

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(23)
        for trial in range(30):
            g = random_graph(rng, rng.randint(2, 7), 0.55)
            signs = tuple(rng.choice((1, -1)) for _ in range(g.m))
            u = rng.randrange(g.n)
            v = rng.randrange(g.n)
            assert signed_distance(g, signs, u, v) == \
                naive.signed_distance(g.n, g.edges, signs, u, v)

    @pytest.mark.parametrize("n, edges, signs, d", [
        # the walk 0-1-2-1-3 sums to 0 but revisits 1, so a four-edge
        # test that lets a = c would settle d(0, 3) at 0
        (4, [(0, 1), (1, 2), (1, 3)], (1, -1, 1), 2),
        # the only three-edge path 0-1-2-3 has one sign, so a test that
        # let it reach the floor 1 would be wrong; (1, 4) mixes the signing
        (5, [(0, 1), (1, 2), (2, 3), (1, 4)], (1, 1, 1, -1), 3),
    ], ids=["a equals c", "one-sign three-edge path"])
    def test_floor_paths_must_be_simple_and_mixed(self, n, edges, signs,
                                                  d):
        g = Graph(n, edges)
        assert naive.signed_distance(g.n, g.edges, signs, 0, 3) == d
        assert signed_distance(g, signs, 0, 3) == d
        assert signed_distance_row(g, signs, 0)[3] == d

    def test_joined_halves_must_be_simple(self):
        # the row's half 0-5-2-3 (sum -1) and 1's half 1-2-5-3 (sum +1)
        # meet at 3 but share 2 and 5, so a join that lets them pair
        # would settle d(0, 1) at its floor 0; every real path sums to
        # +-1 or more
        g = Graph(6, [(0, 5), (1, 2), (1, 4), (2, 3), (2, 4), (2, 5),
                      (3, 5)])
        signs = (1, 1, -1, -1, -1, -1, 1)
        want = [naive.signed_distance(g.n, g.edges, signs, 0, v)
                for v in range(g.n)]
        assert want[1] == 1
        assert signed_distance(g, signs, 0, 1) == 1
        assert signed_distance_row(g, signs, 0) == want

    def test_rows_match_naive_where_both_floors_join(self, monkeypatch):
        # every row and W_sigma against tests/naive.py, counting the
        # targets each floor's join settles (floor 1 at the row's level
        # 2, floor 0 at level 3) so the test shows both ran
        joined = [0, 0]
        join = distances._joined

        def counted(adj, halves, level, t, depth, center, widen=0):
            found = join(adj, halves, level, t, depth, center, widen)
            joined[widen // 2] += found
            return found

        monkeypatch.setattr(distances, "_joined", counted)
        for g, signs in bipartite_signings(2701, 150):
            rows = [[naive.signed_distance(g.n, g.edges, signs, u, v)
                     for v in range(g.n)] for u in range(g.n)]
            for u in range(g.n):
                assert signed_distance_row(g, signs, u) == rows[u], \
                    (g.edges, signs, u)
            assert wiener_signed(g, signs) == sum(
                rows[u][v] for u, v in combinations(range(g.n), 2))
        assert min(joined) > 100, joined

    def test_accepts_signing_objects(self):
        g = path_graph(3)
        assert signed_distance(g, Signing((1, -1)), 0, 2) == 0

    def test_validation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            signed_distance(g, (1,), 0, 2)
        with pytest.raises(ValueError):
            signed_distance(g, (1, 2), 0, 2)
        with pytest.raises(ValueError):
            signed_distance(g, (1, 1), 0, 5)


class TestWitness:
    def test_witness_attains_distance(self):
        rng = random.Random(5)
        for trial in range(30):
            g = random_graph(rng, rng.randint(2, 7))
            signs = tuple(rng.choice((1, -1)) for _ in range(g.m))
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            d, w = signed_distance_with_witness(g, signs, u, v)
            if d is INFINITE:
                assert w is None
                continue
            assert w.vertices[0] == u and w.vertices[-1] == v
            assert abs(sum(signs[i] for i in w.edge_indices)) == d

    def test_witness_follows_the_stated_rule(self):
        # shortest, sum +d before -d, least vertex set, then least
        # read backward from v
        rng = random.Random(61)
        for trial in range(40):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            signs = tuple(rng.choice((1, -1)) for _ in range(g.m))
            lut = naive.edge_lookup(g.edges)
            for u in range(g.n):
                for v in range(g.n):
                    d, w = signed_distance_with_witness(g, signs, u, v)
                    assert d == naive.signed_distance(g.n, g.edges, signs,
                                                      u, v)
                    sums = {p: sum(signs[i]
                                   for i in naive.path_edge_indices(p, lut))
                            for p in naive.simple_paths(g.n, g.edges, u, v)}
                    if d is INFINITE:
                        assert w is None and not sums
                        continue
                    assert w.vertices == min(
                        (p for p, s in sums.items() if abs(s) == d),
                        key=lambda p: (len(p), sums[p] != d,
                                       sum(1 << x for x in p), p[::-1]))

    def test_short_witnesses_start_no_sweep(self, sweeps):
        # every pair of this K_{3,3} signing is at distance 0 or 1 by a
        # path of at most two edges, and P_3's ends at 2 by both edges,
        # so no distance and no witness sweeps; P_4's ends at 3 sweep
        g = complete_bipartite_graph(3, 3)
        signs = (1, -1, -1, 1, 1, -1, -1, 1, 1)
        for u in range(g.n):
            for v in range(g.n):
                signed_distance_with_witness(g, signs, u, v)
        for sign in (1, -1):
            d, w = signed_distance_with_witness(path_graph(3), (sign,) * 2,
                                                2, 0)
            assert d == 2 and w.vertices == (2, 1, 0)
        assert sweeps == []
        d, w = signed_distance_with_witness(path_graph(4), (1, 1, 1), 0, 3)
        assert d == 3 and w.vertices == (0, 1, 2, 3) and sweeps == [0]

    def test_empty_witness(self):
        g = path_graph(2)
        d, w = signed_distance_with_witness(g, (1,), 1, 1)
        assert d == 0 and w.vertices == (1,) and w.edge_indices == ()

    def test_from_vertices_validates(self):
        g = path_graph(4)
        coloring = Signing((1, 1, 1)).as_coloring()
        with pytest.raises(ValueError):
            PathWitness.from_vertices(g, (0, 2), coloring)
        with pytest.raises(ValueError):
            PathWitness.from_vertices(g, (0, 1, 0), coloring)
        w = PathWitness.from_vertices(g, (0, 1, 2), coloring)
        assert w.color_counts == (2, 0)


class TestCancelingPaths:
    def test_same_vertex_always_cancels(self):
        g = complete_graph(4)
        chi = EdgeColoring(3, (1, 2, 3, 1, 2, 3))
        assert canceling_reach_row(g, chi, 2)[2]

    def test_monochromatic_never_cancels(self):
        g = complete_graph(4)
        chi = EdgeColoring(2, (1,) * 6)
        for u in range(4):
            assert canceling_reach_row(g, chi, u) == [v == u for v in range(4)]

    def test_r2_matches_zero_signed_distance(self):
        rng = random.Random(17)
        for trial in range(25):
            g = random_graph(rng, rng.randint(2, 6))
            signs = tuple(rng.choice((1, -1)) for _ in range(g.m))
            chi = Signing(signs).as_coloring()
            for u in range(g.n):
                row = canceling_reach_row(g, chi, u)
                for v in range(g.n):
                    assert row[v] == (signed_distance(g, signs, u, v) == 0)

    def test_r3_matches_naive_oracle(self):
        for g, chi in colored_cases(29, 75):
            for u in range(g.n):
                row = canceling_reach_row(g, chi, u)
                for v in range(g.n):
                    assert row[v] == naive.canceling_path_exists(
                        g.n, g.edges, chi.colors, chi.r, u, v)

    def test_rows_and_verdicts_match_naive_for_r_3_to_5(self):
        # every row, and one (r,k) verdict per coloring with its
        # certificate, on colorings where most rows settle rainbow paths
        for g, chi in random_colorings(83, 1000):
            for u in range(g.n):
                assert canceling_reach_row(g, chi, u) == naive.canceling_row(
                    g.n, g.edges, chi.colors, chi.r, u), (g.edges, chi, u)
            k = 1 + g.m % min(3, g.n - 1)
            verdict = is_rk_canceling_coloring(g, chi, k)
            assert verdict.certificate == naive_certificate(g, chi, k)
            assert verdict.holds == naive.is_rk_canceling(
                g.n, g.edges, chi.colors, chi.r, k)

    def test_rows_and_verdicts_match_naive_where_rows_join(self,
                                                          monkeypatch):
        # every row and the k = 1 verdict with its certificate, counting
        # the targets the level-r join settles so the test shows it ran
        joined = []
        join = distances._joined

        def counted(*args):
            joined.append(join(*args))
            return joined[-1]

        monkeypatch.setattr(distances, "_joined", counted)
        for g, chi in joined_colorings(2601, 1000):
            for u in range(g.n):
                assert canceling_reach_row(g, chi, u) == naive.canceling_row(
                    g.n, g.edges, chi.colors, chi.r, u), (g.edges, chi, u)
            verdict = is_rk_canceling_coloring(g, chi, 1)
            assert verdict.certificate == naive_certificate(g, chi, 1)
            assert verdict.holds == (verdict.certificate is None)
        assert sum(joined) > 10000

    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_no_carry_forges_two_of_each_color(self, r, q):
        # the join's lemma: two paths of r edges, at count bits i and j
        # (base q + 1 digits, each at most q, summing to r), add up to
        # two edges of each color iff i + j == 2 * unit
        b = q + 1
        unit = distances._count_steps(q * r + 1, r)[1]
        halves = [digits for digits in product(range(q + 1), repeat=r)
                  if sum(digits) == r]

        def value(digits):
            return sum(d * b ** c for c, d in enumerate(digits))

        for a in halves:
            for c in halves:
                assert (value(a) + value(c) == 2 * unit) == all(
                    x + y == 2 for x, y in zip(a, c))

    def test_rows_reject_out_of_range_source(self):
        g = path_graph(4)
        for source in (-1, 4):
            for r in (2, 3):
                chi = EdgeColoring(r, (1, 2, 1))
                with pytest.raises(
                        ValueError,
                        match=rf"^vertex {source} out of range 0\.\.3$"):
                    canceling_reach_row(g, chi, source)
        k4 = complete_graph(4)
        for r in (2, 3):
            chi = EdgeColoring(r, (1, 2, 1, 2, 1, 2))
            for u, v, bad in ((99, 99, 99), (0, -1, -1), (0, 9, 9),
                              (-1, 2, -1)):
                with pytest.raises(
                        ValueError,
                        match=rf"^vertex {bad} out of range 0\.\.3$"):
                    canceling_path_witness(k4, chi, u, v)

    def test_wrong_length_messages(self):
        # two colors are checked as a signing
        g = path_graph(4)
        for r, what in ((2, "signing"), (3, "coloring")):
            chi = EdgeColoring(r, (1, 2))
            with pytest.raises(ValueError, match=f"{what} has 2 entries"):
                canceling_reach_row(g, chi, 0)
            with pytest.raises(ValueError, match=f"{what} has 2 entries"):
                canceling_path_witness(g, chi, 0, 3)

    def test_zero_reach_row(self):
        sq, signs = square_path_signs(6)
        reach = canceling_reach_row(sq, Signing(signs).as_coloring(), 0)
        assert reach == [True, True, True, True, True, False]

    def test_colored_witness_is_canceling(self):
        rng = random.Random(43)
        k5 = complete_graph(5)
        cases = [(k5, EdgeColoring(3, tuple(rng.randint(1, 3)
                                            for _ in range(k5.m))))]
        for g, chi in cases + list(colored_cases(43, 50)):
            for u in range(g.n):
                for v in range(g.n):
                    w = canceling_path_witness(g, chi, u, v)
                    paths = list(naive.canceling_paths(
                        g.n, g.edges, chi.colors, chi.r, u, v))
                    if w is None:
                        assert not paths
                        continue
                    assert w.vertices[0] == u and w.vertices[-1] == v
                    assert len(set(w.color_counts)) == 1
                    shortest = min(len(p) for p in paths)
                    assert len(w.vertices) == shortest
                    if u != v:
                        # least vertex set, then least read backward
                        assert w.vertices == min(
                            (p for p in paths if len(p) == shortest),
                            key=lambda p: (sum(1 << x for x in p), p[::-1]))

    def test_coloring_validation(self):
        with pytest.raises(ValueError):
            EdgeColoring(2, (1, 3))
        with pytest.raises(ValueError):
            EdgeColoring(0, ())


class TestWiener:
    def test_classical_path_values(self):
        assert wiener_classical(path_graph(3)) == 4
        for n in range(1, 13):
            assert wiener_classical(path_graph(n)) == (n**3 - n) // 6

    def test_classical_disconnected(self):
        assert wiener_classical(Graph(2, [])) is INFINITE
        assert wiener_classical(Graph(1, [])) == 0

    def test_signed_square_path(self):
        sq, signs = square_path_signs(5)
        assert wiener_signed(sq, signs) == 0
        sq, signs = square_path_signs(6)
        assert wiener_signed(sq, signs) == 1

    def test_constant_signing_collapses_to_classical(self):
        rng = random.Random(37)
        for trial in range(20):
            g = random_graph(rng, rng.randint(1, 7))
            assert wiener_signed(g, Signing.constant(g.m)) == \
                wiener_classical(g)
            assert wiener_signed(g, Signing.constant(g.m, -1)) == \
                wiener_classical(g)

    def test_small_mixed(self):
        g = path_graph(3)
        assert wiener_signed(g, (1, -1)) == 2

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(41)
        for trial in range(20):
            g = random_graph(rng, rng.randint(2, 6), 0.5)
            signs = tuple(rng.choice((1, -1)) for _ in range(g.m))
            assert wiener_signed(g, signs) == \
                naive.wiener_signed(g.n, g.edges, signs)


class TestLowerBounds:
    def test_bipartite_bound(self):
        assert bipartite_lower_bound(complete_bipartite_graph(2, 3)) == 6
        assert bipartite_lower_bound(complete_graph(3)) == 0
        assert bipartite_lower_bound(path_graph(4)) == 4

    def test_bipartite_bound_componentwise(self):
        two_edges = Graph(4, [(0, 1), (2, 3)])
        assert bipartite_lower_bound(two_edges) == 2
        with_isolated = Graph(3, [(0, 1)])
        assert bipartite_lower_bound(with_isolated) == 1
        # a component with an odd cycle adds 0 and leaves the others'
        # pairs counted; W is infinite here, so any finite bound holds
        triangle_and_edge = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        assert bipartite_lower_bound(triangle_and_edge) == 1

    def test_bipartite_bound_matches_networkx_sides(self):
        nx = pytest.importorskip("networkx")
        for n in range(1, 7):
            for g in connected_graphs(n):
                h = nx.Graph(g.edges)
                h.add_nodes_from(range(g.n))
                want = 0
                for comp in nx.connected_components(h):
                    sub = h.subgraph(comp)
                    if nx.is_bipartite(sub):
                        a, b = nx.bipartite.sets(sub)
                        want += len(a) * len(b)
                assert bipartite_lower_bound(g) == want

    def test_leaf_bound(self):
        assert leaf_lower_bound(star_graph(5)) == 4
        assert leaf_lower_bound(cycle_graph(7)) == 0
        assert leaf_lower_bound(path_graph(3)) == 2

    def test_leaf_bound_isolated_edge(self):
        # both endpoints are leaves but they share the one forced pair
        assert leaf_lower_bound(path_graph(2)) == 1
        assert leaf_lower_bound(Graph(4, [(0, 1), (2, 3)])) == 2

    def test_bounds_hold_for_every_signing(self):
        rng = random.Random(47)
        import itertools
        for g in (complete_bipartite_graph(2, 2), path_graph(2),
                  path_graph(4), star_graph(4), cycle_graph(6)):
            for bits in itertools.product((1, -1), repeat=g.m):
                w = wiener_signed(g, bits)
                assert w >= bipartite_lower_bound(g)
                assert w >= leaf_lower_bound(g)


class TestGuards:
    def test_guard_raises(self):
        g = path_graph(25)
        with pytest.raises(SizeGuardError):
            signed_distance(g, (1,) * g.m, 0, 24)
        with pytest.raises(SizeGuardError):
            wiener_signed(g, (1,) * g.m)

    def test_guard_error_pickles(self):
        # scan workers send refusals back to the parent by pickling
        exc = SizeGuardError("scan needs 16 candidate bits", "max_bits")
        back = pickle.loads(pickle.dumps(exc))
        assert (back.reason, back.option) == (exc.reason, exc.option)
        assert str(back) == str(exc) == (
            "scan needs 16 candidate bits; pass a larger max_bits to override")

    def test_guard_override(self):
        g = path_graph(25)
        assert signed_distance(g, (1,) * g.m, 0, 24, max_n=25) == 24

    def test_override_warns_only_past_the_default(self):
        # the check that knows n reports a loosened guard admitting it
        g = path_graph(25)
        with pytest.warns(GuardOverride, match="signed distance needs 25 "
                          "vertices, past the default 24"):
            signed_distance_row(g, (1,) * g.m, 0, max_n=25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            signed_distance_row(path_graph(24), (1,) * 23, 0, max_n=30)

    def test_colored_guard_is_tighter(self):
        g = path_graph(17)
        chi = EdgeColoring(3, tuple(i % 3 + 1 for i in range(g.m)))
        with pytest.raises(SizeGuardError):
            canceling_reach_row(g, chi, 0)
        assert not canceling_reach_row(g, chi, 0, max_n=17)[16]

    def test_parity_of_paths(self):
        # |sum| has the parity of the path length, so odd-length-only
        # connections can never cancel
        g = complete_bipartite_graph(3, 3)
        rng = random.Random(53)
        for trial in range(10):
            signs = tuple(rng.choice((1, -1)) for _ in range(g.m))
            for u in range(3):
                for v in range(3, 6):
                    d = signed_distance(g, signs, u, v)
                    assert d % 2 == 1


class TestEarlyStop:
    """Work, not time: how many levels a row's DP sweep yields (before
    the rows were seeded from their paths of at most two edges, the
    K_{3,3} rows below swept 3 levels each; before one-sign rows read
    bfs_distances, the constant rows swept ecc(s) + 1 levels each)."""

    @staticmethod
    def levels_per_row(monkeypatch, g, signs):
        counts = []
        sweep = distances._levels

        def counted(*args, **kwargs):
            counts.append(0)
            for level in sweep(*args, **kwargs):
                counts[-1] += 1
                yield level

        monkeypatch.setattr(distances, "_levels", counted)
        for s in range(g.n):
            signed_distance_row(g, signs, s)
        return counts

    @pytest.mark.parametrize("g, ecc", [(complete_graph(12), 1),
                                        (cycle_graph(9), 4)])
    def test_constant_rows_stop_after_eccentricity(self, monkeypatch, g,
                                                   ecc):
        # with one sign every path's |sum| is its length, so each row is
        # the BFS row, whose largest entry is ecc(s), and none sweeps
        for sign in (1, -1):
            signs = (sign,) * g.m
            assert self.levels_per_row(monkeypatch, g, signs) == []
            for s in range(g.n):
                row = signed_distance_row(g, signs, s)
                assert row == bfs_distances(g, s) and max(row) == ecc

    def test_bipartite_rows_stop_at_parity_floors(self, monkeypatch):
        # on this K_{3,3} signing every target meets its parity floor
        # (0 on its own side, 1 across) by a path of at most two edges,
        # so it is finished before any sweep; with a floor of 0
        # everywhere each row would sweep 6 levels
        g = complete_bipartite_graph(3, 3)
        signs = (1, -1, -1, 1, 1, -1, -1, 1, 1)
        assert self.levels_per_row(monkeypatch, g, signs) == []
        for s in range(g.n):
            assert signed_distance_row(g, signs, s) == [
                naive.signed_distance(g.n, g.edges, signs, s, v)
                for v in range(g.n)]


class TestPairRows:
    """Work, not time: sweeps and DP states when each row is asked only
    for the targets v > u of its source u (before that change, in
    order: 105 sweeps and 2,233 states; 56 sweeps; 3,006, 2,034 and
    4,149 states).  Seeding each target from its paths of at most two
    edges then took the Wiener rows below from 9, 9 and 9 sweeps to
    2, 6 and 8, and from 2,250, 1,414 and 2,643 states to 1,676, 1,356
    and 2,626.  Settling the targets whose parity floor a three- or
    four-edge path attains took them on to 0, 0 and 5 sweeps and 0, 0
    and 2,305 states.  The join of each open target's own paths of
    three edges to the row's level 3 then took square_cycle_signing(10)
    from 5 sweeps and 2,305 states to 10 sweeps (5 rows and 5 targets'
    halves) and 450 states.  Its colored counterpart, the join at level
    r of rows whose count cap q is at least 3, took the (3,2) verdict on
    K_11 from 39 sweeps and 37,695 states to 66 sweeps (the same 39 rows
    and 27 targets' halves) and 22,044 states; the (3,2) verdict on K_8
    has q = 2 and no join.  Joining floor-1 targets at the row's level 2
    instead of 3, against the same three-edge paths of the target as
    floor 0, took W_sigma of the bipartite P_13 plus chords from 13
    sweeps and 199 states to 13 sweeps and 182 states; a join that
    missed floor 1 would still answer right, so only work shows it."""

    @staticmethod
    def count(monkeypatch, query):
        """query's answer, its _levels sweeps, and the (end, mask)
        states those sweeps yield, from an empty setup cache (a cached
        setup keeps the targets' halves)."""
        work = [0, 0]
        sweep = distances._levels

        def counted(*args, **kwargs):
            work[0] += 1
            for level in sweep(*args, **kwargs):
                work[1] += sum(len(states) for states in level.values())
                yield level

        monkeypatch.setattr(distances, "_levels", counted)
        distances._setup.cache_clear()
        return query(), *work

    def test_verdicts_skip_earlier_targets_and_the_last_row(self,
                                                             monkeypatch):
        w = complete_cyclic_signing(7)
        verdict, sweeps, states = self.count(
            monkeypatch,
            lambda: is_k_canceling_signing(w.graph, w.signing, 3))
        assert verdict.holds and (sweeps, states) == (84, 1652)
        w = complete_rk_coloring(8, 3, 2)
        verdict, sweeps, _ = self.count(
            monkeypatch,
            lambda: is_rk_canceling_coloring(w.graph, w.coloring, 2))
        # 48 sweeps before rows settled their rainbow paths first
        assert verdict.holds and sweeps == 6
        w = complete_rk_coloring(11, 3, 2)
        verdict, sweeps, states = self.count(
            monkeypatch,
            lambda: is_rk_canceling_coloring(w.graph, w.coloring, 2))
        assert verdict.holds and (sweeps, states) == (66, 22044)

    # the last of bipartite_signings(2701, 3): the path 0-1-...-12
    # with the chords (0,9), (1,10) and (5,10)
    BIPARTITE = (Graph(13, [(0, 1), (0, 9), (1, 2), (1, 10), (2, 3),
                            (3, 4), (4, 5), (5, 6), (5, 10), (6, 7),
                            (7, 8), (8, 9), (9, 10), (10, 11), (11, 12)]),
                 (-1, 1, -1, 1, -1, 1, 1, 1, -1, 1, -1, 1, -1, 1, -1))

    @staticmethod
    def alternating(g):
        return g, tuple(1 if i % 2 == 0 else -1 for i in range(g.m))

    @pytest.mark.parametrize("case, value, sweeps, states", [
        pytest.param("alternating K_10", 0, 0, 0, id="alternating K_10"),
        pytest.param("alternating K_5,5", 25, 0, 0, id="alternating K_5,5"),
        pytest.param("square_cycle_signing(10)", 0, 10, 450,
                     id="square_cycle_signing(10)"),
        # the sign budget's case: without its window, 21,112 states
        pytest.param("K_10, edge (0,1) negative", 29, 16, 3895,
                     id="K_10 one negative edge"),
        pytest.param("bipartite P_13 plus chords", 42, 13, 182,
                     id="bipartite P_13 plus chords"),
    ])
    def test_wiener_rows_sweep_only_later_targets(self, monkeypatch, case,
                                                  value, sweeps, states):
        w = square_cycle_signing(10)
        g, signs = {
            "alternating K_10": self.alternating(complete_graph(10)),
            "alternating K_5,5": self.alternating(
                complete_bipartite_graph(5, 5)),
            "square_cycle_signing(10)": (w.graph, w.signing),
            "K_10, edge (0,1) negative": (complete_graph(10),
                                          (-1,) + (1,) * 44),
            "bipartite P_13 plus chords": self.BIPARTITE,
        }[case]
        assert self.count(monkeypatch, lambda: wiener_signed(g, signs)) \
            == (value, sweeps, states)


class TestSharedSetup:
    """Work, not answers: the rows, witnesses and path sums over one
    signing build one adjacency, and an r = 3 verdict one setup per
    deletion set, counted by wrapping what builds them."""

    @staticmethod
    def count(monkeypatch, module, name):
        """The argument tuples of the calls to module's name from now
        on, with the setup cache emptied first."""
        calls = []
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        distances._setup.cache_clear()
        return calls

    def test_path_sums_after_wiener_build_no_adjacency(self, monkeypatch):
        w = square_cycle_signing(10)
        builds = self.count(monkeypatch, distances, "_adjacency")
        assert wiener_signed(w.graph, w.signing) == 0
        assert len(builds) == 1
        assert 0 in achievable_path_sums(w.graph, w.signing, 0, 5)
        signed_distance_with_witness(w.graph, w.signing, 0, 5)
        assert len(builds) == 1

    def test_r3_verdict_builds_one_setup_per_deletion_set(self,
                                                           monkeypatch):
        w = complete_rk_coloring(8, 3, 2)
        builds = self.count(monkeypatch, distances, "_adjacency")
        dead = self.count(monkeypatch, canceling, "delete_vertices")
        rows = self.count(monkeypatch, canceling, "canceling_reach_row")
        assert is_rk_canceling_coloring(w.graph, w.coloring, 2).holds
        # 8 deletion sets of 7 rows each, of which the row of the last
        # vertex is skipped; deleting 6 or 7 leaves equal graphs and
        # colorings, so the cache keyed by value serves the last set
        assert (len(dead), len(rows), len(builds)) == (8, 8 * 6, 7)


class TestFloorPathRule:
    """Work, not answers: a pair query runs no _levels sweep exactly
    when its signing has both signs, the pair is connected and some
    simple path of at most four edges has |sum| equal to the pair's
    parity floor (1 across the sides of a bipartite component, else
    0), the paths read from tests/naive.py.  A right answer alone would
    not show a short floor path left to the sweep, nor a target
    settled with no such path."""

    @staticmethod
    def check(sweeps, g, signs):
        lut = naive.edge_lookup(g.edges)
        mixed = len(set(signs)) == 2
        for u in range(g.n):
            depth = bfs_distances(g, u)
            bipartite = all(depth[a] == depth[b] == INFINITE
                            or (depth[a] - depth[b]) % 2
                            for a, b in g.edges)
            for v in range(u + 1, g.n):
                floor = int(bipartite and depth[v] % 2 == 1)
                short = any(
                    len(p) <= 5 and abs(sum(
                        signs[i] for i in naive.path_edge_indices(p, lut)))
                    == floor
                    for p in naive.simple_paths(g.n, g.edges, u, v))
                swept = mixed and depth[v] != INFINITE and not short
                for a, b in ((u, v), (v, u)):
                    sweeps.clear()
                    signed_distance(g, signs, a, b)
                    assert bool(sweeps) == swept, (g.edges, signs, a, b)

    def test_every_mixed_signing_up_to_five_vertices(self, sweeps):
        for n in range(3, 6):
            for g in connected_graphs(n):
                for bits in range(1, (1 << g.m) - 1):
                    signs = tuple(1 if bits >> i & 1 else -1
                                  for i in range(g.m))
                    self.check(sweeps, g, signs)

    def test_random_graphs_up_to_eight_vertices(self, sweeps):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def signed(draw):
            n = draw(st.integers(2, 8))
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            if draw(st.booleans()):
                side = draw(st.lists(st.booleans(), min_size=n,
                                     max_size=n))
                pairs = [(a, b) for a, b in pairs if side[a] != side[b]]
            keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                                 max_size=len(pairs)))
            g = Graph(n, [e for e, k in zip(pairs, keep) if k])
            return g, tuple(draw(st.lists(st.sampled_from((1, -1)),
                                          min_size=g.m, max_size=g.m)))

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(signed())
        def run(case):
            self.check(sweeps, *case)

        run()


class TestRainbowRule:
    """Work, not answers: a colored row asked for one target v != u
    starts no _levels sweep exactly when r >= 3, the count cap
    q = (n-1) // r is at least 2 and some simple uv-path of r edges
    uses each color once, the paths read from tests/naive.py.  Two
    colors run the signed table's sweep with no such rule."""

    @staticmethod
    def rainbow(g, chi, u, v):
        lut = naive.edge_lookup(g.edges)
        return any(len(p) == chi.r + 1 and sorted(
            chi.colors[i] for i in naive.path_edge_indices(p, lut))
            == list(range(1, chi.r + 1))
            for p in naive.simple_paths(g.n, g.edges, u, v))

    def test_random_colorings(self, sweeps):
        sq, signs = square_path_signs(7)
        cases = list(random_colorings(71, 120))
        cases.append((sq, Signing(signs).as_coloring()))
        for g, chi in cases:
            rule = chi.r >= 3 and (g.n - 1) // chi.r >= 2
            for u in range(g.n):
                for v in range(g.n):
                    if u != v:
                        sweeps.clear()
                        canceling_reach_row(g, chi, u, targets=(v,))
                        assert bool(sweeps) != (
                            rule and self.rainbow(g, chi, u, v)), (
                            g.edges, chi, u, v)


class TestAchievableSums:
    def test_single_path(self):
        g = path_graph(4)
        assert achievable_path_sums(g, (1, -1, 1), 0, 3) == {1}
        assert achievable_path_sums(g, (1, 1, 1), 0, 3) == {3}

    def test_same_vertex(self):
        g = path_graph(3)
        assert achievable_path_sums(g, (1, 1), 1, 1) == {0}

    def test_disconnected_pair(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert achievable_path_sums(g, (1, 1), 0, 2) == set()

    def test_cycle_both_ways(self):
        g = cycle_graph(4)
        # edges lex: (0,1),(0,3),(1,2),(2,3)
        sums = achievable_path_sums(g, (1, -1, 1, 1), 0, 2)
        assert sums == {2, 0}

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(59)
        for trial in range(15):
            g = random_graph(rng, rng.randint(2, 6), 0.5)
            signs = tuple(rng.choice((1, -1)) for _ in range(g.m))
            lut = naive.edge_lookup(g.edges)
            for u in range(g.n):
                for v in range(g.n):
                    want = set()
                    if u == v:
                        want.add(0)
                    else:
                        for p in naive.simple_paths(g.n, g.edges, u, v):
                            idx = naive.path_edge_indices(p, lut)
                            want.add(sum(signs[i] for i in idx))
                    assert achievable_path_sums(g, signs, u, v) == want

    def test_distance_is_min_abs_of_sums(self):
        g, signs = square_path_signs(6)
        for u in range(g.n):
            for v in range(g.n):
                sums = achievable_path_sums(g, signs, u, v)
                d = signed_distance(g, signs, u, v)
                if sums:
                    assert d == min(abs(s) for s in sums)
                else:
                    assert d == INFINITE
