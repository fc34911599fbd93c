"""Verification procedures, structural filters, small thetas."""

import itertools
import math
import random

import pytest

import naive
from signedwiener import canceling
from signedwiener.canceling import (
    is_k_canceling_signing,
    is_rk_canceling_coloring,
    necessary_conditions,
    soltes_check_classical,
    soltes_check_signed,
)
from signedwiener.distances import EdgeColoring, Signing
from signedwiener.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    square,
    star_graph,
    theta_graph,
)
from signedwiener.search import (
    _half_space_signings,
    _surjective_growth_colorings,
    theta_length_tuples,
)
from signedwiener.witnesses import (
    complete_cyclic_signing,
    complete_rk_coloring,
    special_witness,
)


def cyclic_signs(n):
    """+1 on the Hamilton cycle 0-1-...-(n-1)-0 of K_n, -1 elsewhere."""
    g = complete_graph(n)
    cyc = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    return g, tuple(1 if e in cyc else -1 for e in g.edges)


def square_path_signs(n):
    sq = square(path_graph(n))
    return sq, tuple(1 if v - u == 1 else -1 for u, v in sq.edges)


def kn_cycle_coloring(n, r, k):
    """Color cycle on the first 3(k-1)(r-1) vertices through 1..r-1,
    everything else color r."""
    m = 3 * (k - 1) * (r - 1)
    g = complete_graph(n)
    colors = []
    for u, v in g.edges:
        if v < m and v - u == 1:
            colors.append(u % (r - 1) + 1)
        elif v == m - 1 and u == 0:
            colors.append((m - 1) % (r - 1) + 1)
        else:
            colors.append(r)
    return g, EdgeColoring(r, tuple(colors))


class TestKCanceling:
    def test_cyclic_k5_is_2_canceling(self):
        g, signs = cyclic_signs(5)
        assert is_k_canceling_signing(g, signs, 2).holds

    def test_cyclic_k4_is_not(self):
        g, signs = cyclic_signs(4)
        verdict = is_k_canceling_signing(g, signs, 2)
        assert not verdict.holds
        dead, u, v = verdict.certificate
        # the certificate must re-check as a genuine failure
        nn, ee, ss = naive.restrict(g.n, g.edges, signs, set(dead))
        remap = {}
        nxt = 0
        for w in range(g.n):
            if w not in dead:
                remap[w] = nxt
                nxt += 1
        assert naive.signed_distance(nn, ee, ss, remap[u], remap[v]) > 0

    def test_square_paths(self):
        for n in (5, 7, 8, 9):
            sq, signs = square_path_signs(n)
            assert is_k_canceling_signing(sq, signs, 1).holds

    def test_square_p6_fails_at_the_far_pair(self):
        sq, signs = square_path_signs(6)
        verdict = is_k_canceling_signing(sq, signs, 1)
        assert not verdict.holds
        assert verdict.certificate == ((), 0, 5)

    def test_hypothesis_violation(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            is_k_canceling_signing(g, (1, 1, 1), 3)
        with pytest.raises(ValueError):
            is_k_canceling_signing(g, (1, 1, 1), 0)

    def test_matches_literal_definition(self):
        # the verdict matches every deletion size below k, and a failure
        # certifies the lex-first (D, u, v) over sets of size k-1; every
        # third trial has k = 1, whose one set deletes nothing
        rng = random.Random(61)
        for trial in range(300):
            n = rng.randint(3, 6)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Graph(n, [e for e in pairs if rng.random() < 0.7])
            signs = tuple(rng.choice((1, -1)) for _ in range(g.m))
            k = 1 if trial % 3 == 0 else rng.randint(1, n - 1)
            verdict = is_k_canceling_signing(g, signs, k)
            case = (n, g.edges, signs, k)
            assert verdict.holds == naive.is_k_canceling(
                n, g.edges, signs, k), case
            first = None
            for dead in itertools.combinations(range(n), k - 1):
                keep = [w for w in range(n) if w not in dead]
                nn, ee, ss = naive.restrict(n, g.edges, signs, set(dead))
                first = next(
                    ((dead, keep[u], keep[v])
                     for u in range(nn) for v in range(u + 1, nn)
                     if naive.signed_distance(nn, ee, ss, u, v) != 0),
                    None)
                if first is not None:
                    break
            assert verdict.certificate == first, case

    def test_deletes_only_for_nonempty_sets(self, monkeypatch):
        # k = 1 rows run on the graph itself; larger k copy per set
        calls = []
        real = canceling.delete_vertices
        monkeypatch.setattr(canceling, "delete_vertices",
                            lambda g, dead: calls.append(dead) or real(g, dead))
        g, signs = cyclic_signs(5)
        assert is_k_canceling_signing(g, signs, 1).holds
        assert calls == []
        assert is_k_canceling_signing(g, signs, 2).holds
        assert calls == [(v,) for v in range(5)]


class TestRkCanceling:
    def test_k6_three_colors(self):
        g, chi = kn_cycle_coloring(6, 3, 2)
        assert is_rk_canceling_coloring(g, chi, 2).holds

    def test_monochromatic_fails(self):
        g = path_graph(3)
        chi = EdgeColoring(2, (1, 1))
        verdict = is_rk_canceling_coloring(g, chi, 1)
        assert not verdict.holds
        assert verdict.certificate == ((), 0, 1)

    def test_k4_has_no_2_canceling_signing(self):
        g = complete_graph(4)
        for bits in itertools.product((1, -1), repeat=5):
            signs = (1,) + bits
            assert not is_rk_canceling_coloring(g, Signing(signs), 2).holds

    def test_matches_literal_oracle(self):
        # the verdict matches every deletion size below k, and a failure
        # certifies the lex-first (D, u, v) over sets of size min(k-1, n-2)
        rng = random.Random(67)
        for trial in range(1000):
            n = rng.randint(1, 7)
            r = rng.randint(1, 4)
            k = rng.randint(1, 5)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Graph(n, [e for e in pairs if rng.random() < 0.8])
            chi = EdgeColoring(r, tuple(rng.randint(1, r)
                                        for _ in range(g.m)))
            verdict = is_rk_canceling_coloring(g, chi, k)
            case = (n, g.edges, chi.colors, r, k)
            assert verdict.holds == naive.is_rk_canceling(
                n, g.edges, chi.colors, r, k), case
            first = None
            for dead in itertools.combinations(range(n),
                                               max(min(k - 1, n - 2), 0)):
                keep = [w for w in range(n) if w not in dead]
                nn, ee, cc = naive.restrict(n, g.edges, chi.colors,
                                            set(dead))
                first = next(
                    ((dead, keep[u], keep[v])
                     for u in range(nn) for v in range(u + 1, nn)
                     if not naive.canceling_path_exists(nn, ee, cc, r, u, v)),
                    None)
                if first is not None:
                    break
            assert verdict.certificate == first, case


def _masks(tags, r):
    """The edge bitmasks of colors 2..r in a coloring's colors or a
    signing's signs (-1 is color 2), edge e at bit m - 1 - e."""
    m = len(tags)
    colors = [2 if t == -1 else t for t in tags]
    return tuple(sum(1 << (m - 1 - e) for e, t in enumerate(colors)
                     if t == c) for c in range(2, r + 1))


def _tags(masks, m, r):
    """The colors (signs when r = 2) whose colors 2..r have the edge
    bitmasks masks, edge e at bit m - 1 - e; color 1 takes the rest."""
    colors = [1] * m
    for c, mask in enumerate(masks, 2):
        for e in range(m):
            if mask >> (m - 1 - e) & 1:
                colors[e] = c
    return tuple(1 if c == 1 else -1 for c in colors) if r == 2 \
        else tuple(colors)


class TestPathTable:
    """The threshold sweep's path table against the verdicts."""

    @staticmethod
    def table_verdict(table, tags, r):
        return canceling._table_holds(table, _masks(tags, r))

    @staticmethod
    def verdict(g, tags, r, k):
        if r == 2:
            return is_k_canceling_signing(g, Signing(tags), k).holds
        return is_rk_canceling_coloring(g, EdgeColoring(r, tags), k).holds

    @staticmethod
    def sweep_space(m, r):
        """The sweep's candidates as (masks, tags) pairs."""
        if r == 2:
            return [((i,), _tags((i,), m, 2)) for i in range(1 << (m - 1))]
        return [(masks, _tags(masks, m, r))
                for masks in _surjective_growth_colorings(m, r)]

    @pytest.mark.parametrize("n, r, ks", [
        (4, 2, (1, 2, 3)), (4, 3, (1, 2)), (4, 4, (1,)),
        (5, 2, (1, 2, 3, 4)), (5, 3, (1, 2))])
    def test_every_candidate_of_small_rows(self, n, r, ks):
        g = complete_graph(n)
        space = self.sweep_space(g.m, r)
        for k in ks:
            table = canceling._path_table(n, r, k)
            for masks, tags in space:
                assert canceling._table_holds(table, masks) == \
                    self.verdict(g, tags, r, k), (k, tags)

    def test_rows_hold_both_ways(self):
        # the sweeps above see both verdicts, so neither side is vacuous
        g = complete_graph(5)
        for r, k in ((2, 1), (2, 2), (3, 1)):
            table = canceling._path_table(5, r, k)
            seen = {canceling._table_holds(table, masks)
                    for masks, _ in self.sweep_space(g.m, r)}
            assert seen == {True, False}, (r, k)

    @staticmethod
    def growth_colorings(m, r):
        """The colorings the sweep enumerates, as color tuples: first
        occurrences in increasing color order, all r colors used."""
        def extend(prefix, high):
            if len(prefix) == m:
                if high == r:
                    yield tuple(prefix)
                return
            if r - high > m - len(prefix):
                return
            for c in range(1, min(high + 1, r) + 1):
                yield from extend(prefix + [c], max(high, c))

        return list(extend([], 0))

    @pytest.mark.parametrize("r", [3, 4])
    def test_growth_masks_decode_to_the_colorings_in_order(self, r):
        for m in range(r, 9):
            decoded = [_tags(masks, m, r)
                       for masks in _surjective_growth_colorings(m, r)]
            assert decoded == self.growth_colorings(m, r), m

    def test_half_space_signing_i_has_minus_mask_i(self):
        # the r = 2 sweep runs over the minus masks range(2^(m-1))
        for m in range(1, 11):
            for i, signs in enumerate(_half_space_signings(m)):
                assert _masks(signs, 2) == (i,), (m, signs)
            assert i == (1 << (m - 1)) - 1

    def test_table_layout(self):
        # K_4 at k = 2 deletes one vertex: 4 sets x 3 pairs, each pair
        # with one path of two edges through the third vertex; edge e
        # sits at bit m - 1 - e
        table = canceling._path_table(4, 2, 2)
        g = complete_graph(4)
        assert len(table) == 12
        first = table[0]  # D = (0,), pair (1, 2) via 3
        assert first == ((1 << (5 - g.edge_index(1, 3))
                          | 1 << (5 - g.edge_index(2, 3)), 1),)
        # k = 1 on K_5, r = 3: paths of 3 edges, 3 * 2 orders per pair
        table = canceling._path_table(5, 3, 1)
        assert len(table) == 10
        assert all(len(paths) == 6 and {j for _, j in paths} == {1}
                   for paths in table)

    def test_constructions_and_their_one_edge_changes(self):
        # random colorings mostly fail at the first pair; the paper's
        # constructions hold, and each one-edge change fails late if at
        # all, so these reach deep into the table
        cases = [(n, 2, complete_cyclic_signing(n).signing.signs)
                 for n in (6, 7)]
        cases.append((6, 3, complete_rk_coloring(6, 3, 2).coloring.colors))
        for n, r, base in cases:
            g = complete_graph(n)
            values = (1, -1) if r == 2 else tuple(range(1, r + 1))
            variants = [base] + [base[:e] + (x,) + base[e + 1:]
                                 for e in range(g.m) for x in values
                                 if x != base[e]]
            for k in (1, 2, 3):
                table = canceling._path_table(n, r, k)
                for tags in variants:
                    assert self.table_verdict(table, tags, r) == \
                        self.verdict(g, tags, r, k), (n, r, k, tags)

    def test_random_colorings_of_k6_k7(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        tables = {}

        @st.composite
        def cases(draw):
            n = draw(st.sampled_from((6, 7)))
            r = draw(st.sampled_from((2, 3)))
            k = draw(st.integers(1, 3))
            m = n * (n - 1) // 2
            values = (1, -1) if r == 2 else tuple(range(1, r + 1))
            tags = draw(st.lists(st.sampled_from(values), min_size=m,
                                 max_size=m))
            return n, r, k, tuple(tags)

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(cases())
        def check(case):
            n, r, k, tags = case
            if (n, r, k) not in tables:
                tables[n, r, k] = canceling._path_table(n, r, k)
            assert self.table_verdict(tables[n, r, k], tags, r) == \
                self.verdict(complete_graph(n), tags, r, k), case

        check()


class TestNecessaryConditions:
    def test_cycle_fails_edge_count(self):
        rep = necessary_conditions(cycle_graph(11), 1)
        assert not rep.passes
        assert rep.failures() == ["edge count 11 < 13"]

    def test_k4_passes(self):
        rep = necessary_conditions(complete_graph(4), 1)
        assert rep.passes and rep.failures() == []

    def test_k5_passes_at_k2(self):
        rep = necessary_conditions(complete_graph(5), 2)
        assert rep.passes
        assert rep.required_edges == 10 and rep.required_min_degree == 3

    def test_individual_failures(self):
        rep = necessary_conditions(star_graph(5), 1)
        assert not rep.has_odd_cycle and not rep.min_degree_ok
        assert not rep.edge_count_ok and not rep.passes
        rep = necessary_conditions(cycle_graph(6), 1)
        assert rep.k_connected and not rep.has_odd_cycle
        rep = necessary_conditions(path_graph(4), 2)
        assert not rep.k_connected
        assert "not 2-connected" in rep.failures()

    def test_preconditions(self):
        with pytest.raises(ValueError):
            necessary_conditions(complete_graph(1), 1)
        with pytest.raises(ValueError):
            necessary_conditions(complete_graph(2), 2)

    def test_k1_formula_reduces(self):
        rep = necessary_conditions(complete_graph(6), 1)
        assert rep.required_edges == 6 + 2
        assert rep.required_min_degree == 2


class TestSmallThetas:
    def test_filter_rejects_thetas_of_at_most_three_paths(self):
        # t paths on n vertices have n + t - 2 edges, short of k = 1's
        # n + 2 whenever t <= 3; the 4-path theta4 witness passes
        for lengths in theta_length_tuples(3, 16):
            g = theta_graph(lengths)
            assert g.m == g.n + len(lengths) - 2
            assert not necessary_conditions(g, 1).edge_count_ok
        assert necessary_conditions(special_witness("theta4").graph,
                                    1).passes


class TestSoltes:
    def test_c11_classical(self):
        rep = soltes_check_classical(cycle_graph(11))
        assert rep.holds and rep.base == 165
        assert all(d == 165 for d in rep.deleted)

    def test_c9_classical_fails(self):
        rep = soltes_check_classical(cycle_graph(9))
        assert not rep.holds
        assert rep.base == 90 and rep.deleted[0] == 84

    def test_k5_classical_fails(self):
        rep = soltes_check_classical(complete_graph(5))
        assert not rep.holds and rep.base == 10
        assert set(rep.deleted) == {6}

    def test_signed_cyclic_k5(self):
        g, signs = cyclic_signs(5)
        rep = soltes_check_signed(g, signs)
        assert rep.holds and rep.base == 0
        assert set(rep.deleted) == {0}

    def test_signed_constant_reduces_to_classical(self):
        g = cycle_graph(11)
        rep = soltes_check_signed(g, Signing.constant(g.m))
        assert rep.holds and rep.base == 165

    def test_p3_fails_with_infinite_entry(self):
        rep = soltes_check_classical(path_graph(3))
        assert not rep.holds
        assert rep.base == 4 and math.inf in rep.deleted

    def test_infinite_equals_infinite(self):
        g = Graph(3, [(0, 1)])
        rep = soltes_check_classical(g)
        assert rep.base is math.inf
        assert rep.deleted[2] == 1
        assert not rep.holds
