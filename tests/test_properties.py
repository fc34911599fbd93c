"""Always-on property suite over a deterministic corpus.

Every invariant here uses exact integer arithmetic and zero tolerance:
parity, global negation, deletion monotonicity, constant-signing
collapse, spanning-extension and exact-size-shortcut consistency, and
engine-vs-naive oracle equivalence up to eight vertices (with
hypothesis installed, also the tree shortcut on random signed trees,
the signed and canceling rows on random colored graphs, rows asked
for random target sets, the signed engine's floor paths and early stops
on constant, nearly constant, bipartite, tree and disconnected
inputs, with a second signing of one graph and an equal but distinct
graph after them, and
the sign budget's window, never empty on random, bipartite or
constant signings).
"""

import math
import random
from itertools import combinations

import pytest

import naive
from signedwiener import distances
from signedwiener.canceling import is_k_canceling_signing
from signedwiener.distances import (
    EdgeColoring,
    Signing,
    bipartite_lower_bound,
    canceling_reach_row,
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
    component_sides,
    cycle_graph,
    delete_vertices,
    path_graph,
    square,
    star_graph,
    theta_graph,
)
from signedwiener.witnesses import complete_cyclic_signing, special_witness

SEED = 20240817


def random_connected(rng: random.Random, n: int, extra: float) -> Graph:
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def corpus() -> list[Graph]:
    rng = random.Random(SEED)
    named = [
        path_graph(2), path_graph(4), cycle_graph(5), cycle_graph(6),
        star_graph(5), complete_graph(4), complete_graph(5),
        complete_bipartite_graph(2, 3), square(path_graph(6)),
        theta_graph((1, 2, 2, 3)),
    ]
    for n in range(5, 9):
        for _ in range(3):
            named.append(random_connected(rng, n, 0.3))
    return named


def signings(g: Graph, rng: random.Random, extra: int = 4):
    yield (1,) * g.m
    yield (-1,) * g.m
    yield tuple(1 if i % 2 == 0 else -1 for i in range(g.m))
    for _ in range(extra):
        yield tuple(rng.choice((1, -1)) for _ in range(g.m))


def all_rows(g: Graph, signs):
    return [signed_distance_row(g, signs, u) for u in range(g.n)]


class TestParity:
    def test_every_path_sum_matches_length_parity(self):
        rng = random.Random(SEED)
        for g in corpus():
            if g.n > 5:
                continue
            for signs in signings(g, rng, extra=2):
                lookup = naive.edge_lookup(g.edges)
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        for path in naive.simple_paths(g.n, g.edges, u, v):
                            idx = naive.path_edge_indices(path, lookup)
                            total = sum(signs[i] for i in idx)
                            assert abs(total) % 2 == len(idx) % 2

    def test_bipartite_distances_follow_sides(self):
        rng = random.Random(SEED)
        for g in corpus():
            hops = bfs_distances(g, 0)
            if any(h == math.inf for h in hops):
                continue
            sides = [h % 2 for h in hops]
            if any(sides[u] == sides[v] for u, v in g.edges):
                continue
            for signs in signings(g, rng, extra=2):
                rows = all_rows(g, signs)
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        d = rows[u][v]
                        if sides[u] == sides[v]:
                            assert d % 2 == 0
                        else:
                            assert d % 2 == 1 and d >= 1


class TestNegation:
    def test_global_negation_fixes_all_distances(self):
        rng = random.Random(SEED)
        for g in corpus():
            for signs in signings(g, rng):
                flipped = tuple(-s for s in signs)
                assert all_rows(g, signs) == all_rows(g, flipped)


class TestDeletionMonotonicity:
    def test_distances_never_drop_under_deletion(self):
        rng = random.Random(SEED)
        for g in corpus():
            for signs in signings(g, rng, extra=2):
                base = all_rows(g, signs)
                deletions = [{v} for v in range(g.n)]
                deletions += [set(pair) for pair in
                              rng.sample(list(combinations(range(g.n), 2)),
                                         k=min(3, g.n * (g.n - 1) // 2))]
                for dead in deletions:
                    sub = delete_vertices(g, dead)
                    sub_signs = [signs[j] for j in sub.edge_refs]
                    rows = all_rows(sub.graph, sub_signs)
                    for u in range(g.n):
                        for v in range(u + 1, g.n):
                            if u in dead or v in dead:
                                continue
                            a, b = sub.vertex_map[u], sub.vertex_map[v]
                            assert rows[a][b] >= base[u][v]


class TestConstantCollapse:
    def test_constant_signings_give_classical_wiener(self):
        for g in corpus():
            w = wiener_classical(g)
            assert wiener_signed(g, (1,) * g.m) == w
            assert wiener_signed(g, (-1,) * g.m) == w


class TestSpanningExtension:
    # a k-canceling signing of a spanning subgraph stays k-canceling
    # under any signing of the added edges: new paths only help
    def extensions(self, g: Graph, signs, rng, count=3):
        missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                   if not g.has_edge(u, v)]
        for _ in range(count):
            if not missing:
                return
            chosen = rng.sample(missing, k=rng.randrange(1,
                                                         len(missing) + 1))
            host = Graph(g.n, list(g.edges) + chosen)
            extended = tuple(signs) + tuple(
                rng.choice((1, -1)) for _ in chosen)
            yield host, extended

    def test_known_witnesses_survive_extension(self):
        rng = random.Random(SEED)
        cases = [
            (special_witness("theta4"), 1),
            (special_witness("g_small_odd"), 1),
            (complete_cyclic_signing(5), 2),
        ]
        checked = 0
        for w, k in cases:
            assert is_k_canceling_signing(w.graph, w.signing, k).holds
            for host, extended in self.extensions(w.graph,
                                                  w.signing.signs, rng):
                assert is_k_canceling_signing(host, extended, k).holds
                checked += 1
        assert checked > 0


class TestExactSizeShortcut:
    # the engine inspects only deletions of size exactly k-1; the naive
    # oracle sweeps every size below k
    def test_matches_full_definition(self):
        rng = random.Random(SEED)
        cases = [
            (complete_graph(5), complete_cyclic_signing(5).signing.signs, 2),
            (complete_graph(4), complete_cyclic_signing(4).signing.signs, 2),
            (special_witness("c7sq").graph,
             special_witness("c7sq").signing.signs, 2),
            (special_witness("g_small_even").graph,
             special_witness("g_small_even").signing.signs, 1),
        ]
        for g in corpus():
            if g.n > 6:
                continue
            for signs in signings(g, rng, extra=1):
                for k in (1, 2, 3):
                    if g.n > k:
                        cases.append((g, signs, k))
        for g, signs, k in cases:
            engine = is_k_canceling_signing(g, signs, k).holds
            oracle = naive.is_k_canceling(g.n, g.edges, signs, k)
            assert engine == oracle, (g.edges, signs, k)


class TestOracleEquivalence:
    def test_exhaustive_to_n4(self):
        from signedwiener.search import connected_graphs
        for n in range(2, 5):
            for g in connected_graphs(n):
                for signs in self.half_space(g.m):
                    self.compare(g, signs)

    def test_all_graphs_n5_seeded_signings(self):
        from signedwiener.search import connected_graphs
        rng = random.Random(SEED)
        for g in connected_graphs(5):
            for signs in signings(g, rng, extra=6):
                self.compare(g, signs)

    def test_seeded_graphs_to_n8(self):
        rng = random.Random(SEED)
        for n in (6, 7, 8):
            for _ in range(3):
                g = random_connected(rng, n, 0.3)
                for signs in signings(g, rng, extra=3):
                    self.compare(g, signs)

    def test_tree_shortcut_on_random_trees(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from signedwiener.search import tree_signed_wiener

        @st.composite
        def signed_trees(draw):
            n = draw(st.integers(1, 9))
            label = draw(st.permutations(range(n)))
            parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
            signs = draw(st.lists(st.sampled_from((1, -1)),
                                  min_size=n - 1, max_size=n - 1))
            edges = [(label[p], label[v]) for v, p in enumerate(parents, 1)]
            return Graph(n, edges), tuple(signs)

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(signed_trees())
        def check(case):
            tree, signs = case
            assert tree_signed_wiener(tree, signs) == \
                naive.wiener_signed(tree.n, tree.edges, signs)

        check()

    def test_engine_rows_on_random_colorings(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def colored_graphs(draw):
            n = draw(st.integers(1, 8))
            pairs = list(combinations(range(n), 2))
            keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                                 max_size=len(pairs)))
            g = Graph(n, [e for e, k in zip(pairs, keep) if k])
            r = draw(st.integers(2, 4))
            colors = draw(st.lists(st.integers(1, r), min_size=g.m,
                                   max_size=g.m))
            return g, EdgeColoring(r, tuple(colors))

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(colored_graphs())
        def check(case):
            g, chi = case
            signs = tuple(1 if c == 1 else -1 for c in chi.colors)
            for u in range(g.n):
                assert canceling_reach_row(g, chi, u) == [
                    naive.canceling_path_exists(g.n, g.edges, chi.colors,
                                                chi.r, u, v)
                    for v in range(g.n)]
                assert signed_distance_row(g, signs, u) == [
                    naive.signed_distance(g.n, g.edges, signs, u, v)
                    for v in range(g.n)]

        check()

    def test_target_rows_match_full_rows(self):
        # a row asked for some targets equals the full row on them,
        # reads INFINITE / False on every other vertex, and 0 / True at
        # the source, whether or not the source is among the targets;
        # the targets may come as a one-pass iterator
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def targeted(draw):
            n = draw(st.integers(1, 8))
            pairs = list(combinations(range(n), 2))
            keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                                 max_size=len(pairs)))
            g = Graph(n, [e for e, k in zip(pairs, keep) if k])
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=g.m,
                                  max_size=g.m))
            colors = draw(st.lists(st.integers(1, 3), min_size=g.m,
                                   max_size=g.m))
            targets = draw(st.lists(st.integers(0, n - 1)))
            return g, tuple(signs), EdgeColoring(3, tuple(colors)), targets

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(targeted())
        def check(case):
            g, signs, chi3, targets = case
            chi2 = Signing(signs).as_coloring()
            for u in range(g.n):
                full = signed_distance_row(g, signs, u)
                part = signed_distance_row(g, signs, u,
                                           targets=iter(targets))
                assert part == [full[v] if v in targets or v == u
                                else math.inf for v in range(g.n)]
                for chi in (chi2, chi3):
                    full = canceling_reach_row(g, chi, u)
                    part = canceling_reach_row(g, chi, u,
                                               targets=iter(targets))
                    assert part == [full[v] and (v in targets or v == u)
                                    for v in range(g.n)]

        check()

    def test_stopping_rules_on_shaped_signings(self):
        # the parity floor acts on bipartite, tree and disconnected
        # graphs, the sign budget on nearly constant signings, the BFS
        # rows on constant ones, the floor paths of at most four edges
        # on every shape, most on dense ones, the join at
        # level 3 on sparse bipartite ones, and leafy ones (sparse, an
        # odd cycle, a pendant vertex) leave rows to the sweep: on
        # those shapes the row (whole or asked for some targets), the
        # pair query, the witness's distance and W must still equal the
        # oracle's, and the paper's identities hold.  A second signing
        # of the same Graph and an equal but distinct Graph follow, so
        # a setup kept from an earlier signing or graph would show
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def shaped(draw):
            shape = draw(st.sampled_from(("any", "bipartite", "tree",
                                          "disconnected", "dense", "leafy",
                                          "sparse bipartite")))
            n = draw(st.integers(1, 10 if shape == "sparse bipartite"
                                 else 8))
            pairs = list(combinations(range(n), 2))
            if shape == "bipartite":
                side = draw(st.lists(st.booleans(), min_size=n,
                                     max_size=n))
                pairs = [(a, b) for a, b in pairs if side[a] != side[b]]
            elif shape == "tree":
                pairs = [(draw(st.integers(0, v - 1)), v)
                         for v in range(1, n)]
            elif shape == "disconnected":
                cut = draw(st.integers(1, max(1, n - 1)))
                pairs = [(a, b) for a, b in pairs if (a < cut) == (b < cut)]
            elif shape == "dense" and pairs:
                gone = draw(st.sets(st.sampled_from(pairs), max_size=3))
                pairs = [e for e in pairs if e not in gone]
            elif shape == "leafy":
                # a triangle, a pendant vertex n-1 and m = 2n-1 where the
                # core on 0..n-2 allows: the rows that still sweep
                core = {(draw(st.integers(0, v - 1)), v)
                        for v in range(1, n - 1)}
                if n > 3:
                    core |= {(0, 1), (0, 2), (1, 2)}
                rest = draw(st.permutations(
                    [e for e in combinations(range(n - 1), 2)
                     if e not in core]))
                pairs = sorted(core) + rest[:2 * n - 2 - len(core)]
                if n > 1:
                    pairs.append((draw(st.integers(0, n - 2)), n - 1))
            elif shape == "sparse bipartite":
                # a tree across the sides of v % 2 and four chords across
                # them, m = n + 3 where the sides allow: rows whose open
                # targets need floor paths of five or six edges, the ones
                # the join at level 3 settles
                tree = {(draw(st.sampled_from(range((v + 1) % 2, v, 2))), v)
                        for v in range(1, n)}
                chords = draw(st.permutations(
                    [(a, b) for a, b in pairs
                     if (a + b) % 2 and (a, b) not in tree]))
                pairs = sorted(tree) + chords[:4]
            keep = [True] * len(pairs) if shape in (
                "tree", "dense", "leafy", "sparse bipartite") else \
                draw(st.lists(st.booleans(), min_size=len(pairs),
                              max_size=len(pairs)))
            g = Graph(n, [e for e, k in zip(pairs, keep) if k])
            sign = draw(st.sampled_from((1, -1)))
            signs = [sign] * g.m
            kind = draw(st.sampled_from(("constant", "flipped", "random")))
            if kind == "flipped" and g.m:
                for i in draw(st.lists(st.integers(0, g.m - 1), min_size=1,
                                       max_size=2)):
                    signs[i] = -sign
            elif kind == "random":
                signs = draw(st.lists(st.sampled_from((1, -1)),
                                      min_size=g.m, max_size=g.m))
            targets = draw(st.lists(st.integers(0, n - 1), max_size=n))
            other = draw(st.lists(st.sampled_from((1, -1)), min_size=g.m,
                                  max_size=g.m))
            return g, tuple(signs), targets, tuple(other)

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(shaped())
        def check(case):
            g, signs, targets, other = case
            oracle = [[naive.signed_distance(g.n, g.edges, signs, u, v)
                       for v in range(g.n)] for u in range(g.n)]
            for u in range(g.n):
                assert signed_distance_row(g, signs, u) == oracle[u]
                assert signed_distance_row(g, signs, u, targets=targets) \
                    == [oracle[u][v] if v in targets or v == u
                        else math.inf for v in range(g.n)]
                for v in range(g.n):
                    assert signed_distance(g, signs, u, v) == oracle[u][v]
                    d, _ = signed_distance_with_witness(g, signs, u, v)
                    assert d == oracle[u][v]
            w = wiener_signed(g, signs)
            assert w == naive.wiener_signed(g.n, g.edges, signs)
            assert wiener_signed(g, other) == \
                naive.wiener_signed(g.n, g.edges, other)
            twin = Graph(g.n, g.edges)
            assert wiener_signed(twin, signs) == w
            for u in range(g.n):
                assert signed_distance_row(twin, signs, u) == oracle[u]
            if w == math.inf:
                return
            if len(set(signs)) < 2:
                assert w == wiener_classical(g)
            if not component_sides(g)[2]:
                assert w >= bipartite_lower_bound(g)

        check()

    def test_sign_budget_window_is_never_empty(self, monkeypatch):
        # the signed row's window is -1 or one nonempty run of bits: a
        # target still open has best > floor >= 0, so its budget B >= 1,
        # which is why _levels has no exit for an empty window
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        windows = []
        sweep = distances._levels

        def watched(adj, source, window=None):
            def recorded(length):
                windows.append(window(length))
                return windows[-1]
            return sweep(adj, source, None if window is None else recorded)

        monkeypatch.setattr(distances, "_levels", watched)

        @st.composite
        def signed(draw):
            n = draw(st.integers(1, 8))
            pairs = list(combinations(range(n), 2))
            if draw(st.booleans()):
                side = draw(st.lists(st.booleans(), min_size=n,
                                     max_size=n))
                pairs = [(a, b) for a, b in pairs if side[a] != side[b]]
            keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                                 max_size=len(pairs)))
            g = Graph(n, [e for e, k in zip(pairs, keep) if k])
            if draw(st.booleans()):
                return g, (draw(st.sampled_from((1, -1))),) * g.m
            return g, tuple(draw(st.lists(st.sampled_from((1, -1)),
                                          min_size=g.m, max_size=g.m)))

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(signed())
        def check(case):
            g, signs = case
            windows.clear()
            wiener_signed(g, signs)
            for u in range(g.n):
                signed_distance_row(g, signs, u)
            for bits in windows:
                low = bits & -bits
                assert bits == -1 or bits > 0 and (bits + low) & bits == 0

        check()

    @staticmethod
    def half_space(m: int):
        if m == 0:
            return [()]
        import itertools
        return [(1,) + rest
                for rest in itertools.product((1, -1), repeat=m - 1)]

    @staticmethod
    def compare(g: Graph, signs):
        rows = all_rows(g, signs)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                expected = naive.signed_distance(g.n, g.edges, signs, u, v)
                assert rows[u][v] == expected, (g.edges, signs, u, v)


class TestZeroDistanceEquivalence:
    def test_two_coloring_canceling_path_iff_zero(self):
        rng = random.Random(SEED)
        for g in corpus():
            if g.n > 7:
                continue
            for signs in signings(g, rng, extra=2):
                coloring = Signing(signs).as_coloring()
                rows = all_rows(g, signs)
                for u in range(g.n):
                    reach = canceling_reach_row(g, coloring, u)
                    assert reach == [d == 0 for d in rows[u]]


class TestWitnessPaths:
    def test_witnesses_attain_and_stay_bounded(self):
        rng = random.Random(SEED)
        for g in corpus():
            if g.n > 7:
                continue
            hop_rows = [bfs_distances(g, u) for u in range(g.n)]
            for signs in signings(g, rng, extra=2):
                sigma = Signing(signs)
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        d, path = signed_distance_with_witness(g, sigma,
                                                               u, v)
                        assert 0 <= d <= hop_rows[u][v]
                        if d == math.inf:
                            assert path is None
                            continue
                        assert path.vertices[0] == u
                        assert path.vertices[-1] == v
                        assert len(set(path.vertices)) == \
                            len(path.vertices)
                        total = sum(signs[i] for i in path.edge_indices)
                        assert abs(total) == d
