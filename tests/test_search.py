"""Search drivers: existence search, W_*, thresholds, trees, Dyck paths."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import naive
import signedwiener
from signedwiener import canceling, distances, search
from signedwiener.canceling import is_k_canceling_signing
from signedwiener.distances import (
    INFINITE,
    EdgeColoring,
    GuardOverride,
    Signing,
    SizeGuardError,
    bipartite_lower_bound,
    leaf_lower_bound,
    wiener_classical,
    wiener_signed,
)
from signedwiener.graphs import (
    Graph,
    bfs_distances,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
    star_graph,
)
from signedwiener.search import (
    connected_graphs,
    double_star,
    dyck_distribution,
    dyck_record,
    dyck_records,
    dyck_steps,
    enumerate_trees,
    find_k_canceling_signing,
    min_signed_wiener,
    n2k_bounds,
    threshold_scan,
    tree_canonical_form,
    tree_signed_wiener,
    verify_double_star,
    verify_tree_sandwich,
)
from signedwiener.witnesses import (
    complete_cyclic_signing,
    complete_rk_coloring,
)


class TestFindSigning:
    def test_k4_found(self):
        res = find_k_canceling_signing(complete_graph(4), 1)
        assert res.found
        assert res.witness.signs == (1, 1, -1, -1, 1, -1)
        assert is_k_canceling_signing(complete_graph(4),
                                      res.witness, 1).holds

    def test_k4_minus_edge_not_found(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        res = find_k_canceling_signing(g, 1, use_filter=False)
        assert not res.found
        assert res.examined == 2 ** 4
        assert not res.filtered

    def test_c11_rejected_by_filter(self):
        res = find_k_canceling_signing(cycle_graph(11), 1)
        assert not res.found
        assert res.filtered
        assert res.examined == 0

    def test_filter_agrees_with_raw_search(self):
        # the fast reject must never flip a verdict
        for g in (cycle_graph(5), complete_graph(4), star_graph(5),
                  Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])):
            fast = find_k_canceling_signing(g, 1)
            raw = find_k_canceling_signing(g, 1, use_filter=False)
            assert fast.found == raw.found

    def test_not_found_confirmed_by_unreduced_naive(self):
        # negation symmetry halves the space; confirm nothing hides in
        # the other half
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        for signs in itertools.product((1, -1), repeat=g.m):
            assert not naive.is_k_canceling(g.n, g.edges, signs, 1)

    def test_symmetry_factor_and_domain(self):
        res = find_k_canceling_signing(complete_graph(5), 2)
        assert res.found and res.symmetry_factor == 2
        with pytest.raises(ValueError):
            find_k_canceling_signing(complete_graph(3), 3)

    def test_size_guard(self):
        g = complete_graph(8)
        with pytest.raises(SizeGuardError):
            find_k_canceling_signing(g, 1, use_filter=False)

    def test_override_warns_past_the_default_bits(self):
        with pytest.warns(GuardOverride, match="signing search needs 27 "
                          "candidate bits, past the default 22"):
            find_k_canceling_signing(complete_graph(8), 1, use_filter=False,
                                     max_bits=27)


class TestMinWiener:
    def test_tiny_paths(self):
        assert min_signed_wiener(path_graph(2)).value == 1
        assert min_signed_wiener(path_graph(3)).value == 2

    def test_claw(self):
        res = min_signed_wiener(star_graph(4))
        assert res.value == 5
        assert wiener_signed(star_graph(4), res.argmin) == 5

    def test_disconnected_is_infinite(self):
        res = min_signed_wiener(Graph(3, [(0, 1)]))
        assert res.value is INFINITE
        assert res.argmin is None

    def test_matches_full_enumeration(self):
        for g in (cycle_graph(5), complete_graph(4), path_graph(5),
                  star_graph(5)):
            want = min(naive.wiener_signed(g.n, g.edges, signs)
                       for signs in itertools.product((1, -1), repeat=g.m))
            res = min_signed_wiener(g)
            assert res.value == want
            assert wiener_signed(g, res.argmin) == want

    def test_canceling_graph_reaches_zero(self):
        res = min_signed_wiener(complete_graph(5))
        assert res.value == 0

    def test_respects_lower_bounds(self):
        for g in (path_graph(2), path_graph(4), star_graph(6),
                  cycle_graph(6)):
            res = min_signed_wiener(g)
            assert res.value >= bipartite_lower_bound(g)
            assert res.value >= leaf_lower_bound(g)


class TestThresholdScan:
    def test_k1_first_true_at_4(self):
        rows = threshold_scan(2, 1, range(2, 6))
        assert [(r.n, r.holds) for r in rows] == \
            [(2, False), (3, False), (4, True), (5, True)]

    def test_k2_false_4_true_5(self):
        rows = threshold_scan(2, 2, range(3, 7))
        assert [(r.n, r.holds) for r in rows] == \
            [(3, False), (4, False), (5, True), (6, True)]

    def test_k3_false_5_6_true_7(self):
        rows = threshold_scan(2, 3, range(5, 8))
        assert [(r.n, r.holds) for r in rows] == \
            [(5, False), (6, False), (7, True)]
        # the negatives are exhaustive over the half space
        assert rows[0].examined == 1 + 2 ** 9
        assert rows[1].examined == 1 + 2 ** 14

    def test_negative_rows_confirmed_by_naive_at_n3(self):
        kn = complete_graph(3)
        for signs in itertools.product((1, -1), repeat=kn.m):
            assert not naive.is_k_canceling(kn.n, kn.edges, signs, 1)

    def test_positive_witnesses_certify(self):
        for row in threshold_scan(2, 2, range(5, 7)):
            assert row.holds
            assert is_k_canceling_signing(complete_graph(row.n),
                                          row.witness, 2).holds
            assert row.examined == 1
            assert row.witness == complete_cyclic_signing(row.n).signing

    def test_r3_small_rows(self):
        rows = threshold_scan(3, 1, range(2, 5))
        assert [(r.n, r.holds) for r in rows] == \
            [(2, False), (3, False), (4, True)]
        witness = rows[2].witness
        assert isinstance(witness, EdgeColoring)
        kn = complete_graph(4)
        assert naive.is_rk_canceling(kn.n, kn.edges, witness.colors, 3, 1)

    def test_r3_k2_structured_hit(self):
        rows = threshold_scan(3, 2, range(6, 7))
        assert rows[0].holds and rows[0].examined == 1
        assert rows[0].witness == complete_rk_coloring(6, 3, 2).coloring

    def test_r3_k2_row_at_5_is_negative(self):
        # no probe fits K_5, so the row sweeps all S(10, 3) = 9330
        # surjective growth colorings
        (row,) = threshold_scan(3, 2, [5])
        assert (row.n, row.holds, row.examined, row.witness) == \
            (5, False, 9330, None)

    def test_size_guard_fires_before_the_path_table(self, monkeypatch):
        def listed(*args):
            raise AssertionError("a refused row listed paths")

        monkeypatch.setattr(canceling, "permutations", listed)
        with pytest.warns(GuardOverride, match="216 candidate bits"), \
                pytest.raises(SizeGuardError) as refused:
            threshold_scan(3, 1, [17], max_bits=1000)
        assert refused.value.option == "max_n"
        assert refused.value.reason == \
            "canceling-path search needs 17 vertices, guard allows 16"

    def test_loosened_size_guard_warns_once_per_row(self, monkeypatch):
        # with the colored default lowered to 3, a loosened max_n admits
        # K_4 and K_5; r = 3, k = 1 has no probe, so each row checks its
        # bits, then its vertices, and warns once
        monkeypatch.setattr(distances, "DEFAULT_MAX_N_COLORED", 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = threshold_scan(3, 1, [3, 4, 5], max_n=5)
        assert [(r.n, r.holds) for r in rows] == \
            [(3, False), (4, True), (5, True)]
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, GuardOverride)]
        assert messages == [
            f"guard override in effect: canceling-path search needs {n} "
            f"vertices, past the default 3; this may take a long time"
            for n in (4, 5)]
        with pytest.raises(SizeGuardError):
            threshold_scan(3, 1, [4])

    def test_size_guard_counts_the_vertices_left_after_deletion(
            self, monkeypatch):
        # at k = 2 every path runs on K_5 minus one vertex, so a colored
        # default of 4 admits the (3,2,[5]) row without a warning, as the
        # verdicts would, and 3 refuses it
        monkeypatch.setattr(distances, "DEFAULT_MAX_N_COLORED", 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = threshold_scan(3, 2, [5])
        assert (row.holds, row.examined) == (False, 9330)
        monkeypatch.setattr(distances, "DEFAULT_MAX_N_COLORED", 3)
        with pytest.raises(SizeGuardError,
                           match="needs 4 vertices, guard allows 3"):
            threshold_scan(3, 2, [5])

    def test_workers_match_serial(self):
        serial = threshold_scan(2, 1, range(2, 6))
        parallel = threshold_scan(2, 1, range(2, 6), workers=2)
        assert [(r.n, r.holds, r.examined) for r in serial] == \
            [(r.n, r.holds, r.examined) for r in parallel]

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            threshold_scan(1, 1, range(3, 5))
        with pytest.raises(ValueError):
            threshold_scan(2, 0, range(3, 5))
        with pytest.raises(ValueError):
            threshold_scan(2, 3, range(3, 5))


def test_cli_import_loads_no_process_pool():
    # the pool is imported inside _pool_map, only when workers > 1, so
    # a serial run never pays for multiprocessing
    src = Path(signedwiener.__file__).resolve().parents[1]
    code = ("import sys, signedwiener.cli; "
            "print(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures.process') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestBounds:
    def test_k5(self):
        b = n2k_bounds(5)
        assert (b.lower, b.upper) == (7, 14)
        assert math.isclose(b.lower_exact, 5 + math.log(5, 4))

    def test_power_of_four_stays_exact(self):
        b = n2k_bounds(16)
        assert (b.lower, b.upper) == (18, 36)

    def test_below_range(self):
        with pytest.raises(ValueError):
            n2k_bounds(4)

    def test_ceiling_is_tight(self):
        # lower - k is the least t with 4^t >= k
        for k in range(5, 200):
            b = n2k_bounds(k)
            t = b.lower - k
            assert 4 ** t >= k
            assert t == 0 or 4 ** (t - 1) < k
            assert b.upper == 2 * k + 4


class TestTrees:
    def test_counts(self):
        want = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
        for n, count in zip(range(1, 11), want):
            assert len(enumerate_trees(n)) == count

    def test_pairwise_nonisomorphic(self):
        nx = pytest.importorskip("networkx")
        records = enumerate_trees(7)
        graphs = [nx.Graph(r.tree.edges) for r in records]
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert not nx.is_isomorphic(graphs[i], graphs[j])

    def test_matches_networkx_generator(self):
        nx = pytest.importorskip("networkx")
        ours = {tree_canonical_form(r.tree) for r in enumerate_trees(8)}
        theirs = set()
        for t in nx.nonisomorphic_trees(8):
            theirs.add(tree_canonical_form(
                Graph(8, [tuple(sorted(e)) for e in t.edges])))
        assert ours == theirs

    def test_canonical_form_ignores_labels(self):
        # n <= 10 holds one-center trees (odd paths, stars) and
        # two-center trees (even paths), so both rootings are covered
        nx = pytest.importorskip("networkx")
        rng = random.Random(13)
        for n in range(1, 11):
            for t in nx.nonisomorphic_trees(n):
                tree = Graph(n, list(t.edges))
                code = tree_canonical_form(tree)
                for _ in range(3):
                    label = list(range(n))
                    rng.shuffle(label)
                    moved = Graph(n, [(label[u], label[v])
                                      for u, v in tree.edges])
                    assert tree_canonical_form(moved) == code

    def test_codes_and_tree_order_match_the_recursive_definition(self):
        # the iterative codes equal the recursive definition, a rooted
        # code being the sorted tuple of its children's codes, and so
        # the enumeration keeps its order
        def code(tree, root, parent):
            return tuple(sorted(code(tree, w, root)
                                for w in tree.neighbors(root) if w != parent))

        def form(tree):
            ecc = [max(bfs_distances(tree, v)) for v in range(tree.n)]
            return (tree.n, min(code(tree, c, -1) for c in range(tree.n)
                                if ecc[c] == min(ecc)))

        trees = [Graph(1, [])]
        for n in range(2, 11):
            seen = {}
            for parent in trees:
                for attach in range(n - 1):
                    t = Graph(n, list(parent.edges) + [(attach, n - 1)])
                    assert tree_canonical_form(t) == form(t)
                    seen.setdefault(form(t), t)
            trees = list(seen.values())
            assert search._all_trees(n) == trees

    def test_long_path_needs_no_recursion(self):
        # the recursive code raised RecursionError from about 1,000
        # levels; a 2,000-vertex path has two centers, and its code is
        # the chains of 999 and 1,000 vertices hanging from the first
        n, code = tree_canonical_form(path_graph(2000))
        assert n == 2000 and len(code) == 2
        for chain, length in zip(code, (999, 1000)):
            for _ in range(length - 1):
                assert len(chain) == 1
                chain = chain[0]
            assert chain == ()

    def test_records(self):
        records = {tree_canonical_form(r.tree): r for r in enumerate_trees(4)}
        path = records[tree_canonical_form(path_graph(4))]
        star = records[tree_canonical_form(star_graph(4))]
        assert len(records) == 2
        assert star.min_wiener == 5
        assert path.min_wiener == min(
            naive.wiener_signed(4, path.tree.edges, s)
            for s in itertools.product((1, -1), repeat=3))

    def test_greatest_signed_index_is_classical(self):
        # the sandwich's upper half reads W(T) as the greatest W_sigma,
        # and the all-plus signing, scanned first, attains it
        for n in range(1, 9):
            for rec in enumerate_trees(n):
                values = [tree_signed_wiener(rec.tree, signs) for signs
                          in search._half_space_signings(rec.tree.m)]
                assert max(values) == values[0] == \
                    wiener_classical(rec.tree)

    def test_tree_shortcut_matches_engine(self):
        for rec in enumerate_trees(6):
            for signs in itertools.product((1, -1), repeat=5):
                assert tree_signed_wiener(rec.tree, signs) == \
                    wiener_signed(rec.tree, signs)

    def test_rejects_non_trees(self):
        with pytest.raises(ValueError):
            tree_signed_wiener(cycle_graph(4), (1, 1, 1, 1))
        with pytest.raises(ValueError):
            enumerate_trees(11)


class TestSandwich:
    def test_anchors(self):
        rep = verify_tree_sandwich(5)
        assert rep.alternating_anchor == 6
        assert rep.classical_anchor == 20

    def test_holds_through_9(self):
        for n in range(1, 10):
            rep = verify_tree_sandwich(n)
            assert rep.lower_holds and rep.upper_holds
            assert rep.lower_counterexample is None
            assert rep.upper_counterexample is None

    def test_alternating_anchor_closed_form(self):
        # pairs at odd distance contribute 1, even contribute 0
        for n in range(2, 10):
            assert verify_tree_sandwich(n).alternating_anchor == n * n // 4

    def test_classical_anchor_closed_form(self):
        for n in range(2, 10):
            assert verify_tree_sandwich(n).classical_anchor == \
                math.comb(n + 1, 3)

    def test_workers_match_serial(self):
        a = verify_tree_sandwich(7)
        b = verify_tree_sandwich(7, workers=2)
        assert a == b

    def test_lower_counterexample_is_first_failure(self, monkeypatch):
        # an all-plus "alternating" path lifts the lower anchor to the
        # classical one, which every tree's minimum undercuts
        monkeypatch.setattr(search, "_alternating_signs",
                            lambda m: (1,) * m)
        rep = verify_tree_sandwich(6)
        anchor = rep.classical_anchor
        assert rep.alternating_anchor == anchor
        assert not rep.lower_holds and rep.upper_holds
        tree = next(r.tree for r in enumerate_trees(6)
                    if r.min_wiener < anchor)
        signs = next((1,) + rest
                     for rest in itertools.product((1, -1), repeat=4)
                     if tree_signed_wiener(tree, (1,) + rest) < anchor)
        assert rep.lower_counterexample == (tree, Signing(signs))


class TestDoubleStar:
    def test_double_star_shape(self):
        d = double_star(2, 3)
        assert d.n == 7 and d.m == 6
        assert d.degree(0) == 3 and d.degree(1) == 4

    def test_holds_through_9(self):
        for n in range(2, 10):
            rep = verify_double_star(n)
            assert rep.lower_holds and rep.upper_holds

    def test_star_only_variant_refuted_at_8(self):
        assert verify_double_star(7).star_only_upper_holds
        rep = verify_double_star(8)
        assert not rep.star_only_upper_holds
        cx = rep.star_counterexample
        assert cx is not None
        assert min(tree_signed_wiener(cx, signs) for signs in
                   itertools.product((1, -1), repeat=cx.m)) > rep.star_value

    def test_n8_values(self):
        rep = verify_double_star(8)
        assert rep.path_value == 16
        assert rep.best_double_star == (3, 3)
        assert rep.best_double_star_value == 26
        assert rep.star_value == 25

    def test_n9_values(self):
        rep = verify_double_star(9)
        assert rep.best_double_star == (3, 4)
        assert rep.best_double_star_value == 34
        assert rep.star_value == 32
        assert not rep.star_only_upper_holds

    def test_workers_match_serial(self):
        for n in (7, 8):
            assert verify_double_star(n, workers=2) == verify_double_star(n)

    def test_n4_trivial(self):
        rep = verify_double_star(4)
        assert rep.lower_holds and rep.upper_holds


class TestDyck:
    def test_counts_are_catalan(self):
        for n in range(1, 7):
            assert len(list(dyck_steps(n))) == math.comb(2 * n, n) // (n + 1)

    def test_words_are_the_balanced_words_with_u_first(self):
        def balanced(word):
            heights = list(itertools.accumulate(
                1 if ch == "U" else -1 for ch in word))
            return min(heights) >= 0 and heights[-1] == 0

        for n in range(1, 7):
            words = ("".join(w) for w in itertools.product("UD", repeat=2 * n))
            want = sorted(filter(balanced, words),
                          key=lambda w: w.replace("U", "0"))
            assert list(dyck_steps(n)) == want

    def test_semilength_1(self):
        assert dyck_distribution(1) == {2: 1}

    def test_semilength_2(self):
        assert dyck_distribution(2) == {6: 1, 10: 1}

    def test_semilength_3(self):
        assert dyck_distribution(3) == {12: 1, 18: 2, 20: 1, 28: 1}

    def test_semilength_4(self):
        assert dyck_distribution(4) == \
            {20: 1, 28: 3, 32: 4, 42: 2, 44: 2, 48: 1, 60: 1}

    def test_single_word_value(self):
        assert dyck_record("UDUUDUDD").wiener == 32

    def test_records_validate(self):
        rec = dyck_record("UUDD")
        assert rec.signing.signs == (1, 1, -1, -1)
        for bad in ("UUDUUDUD", "DU", "UDU", ""):
            with pytest.raises(ValueError):
                dyck_record(bad)

    def test_balanced_sums(self):
        for rec in dyck_records(4):
            assert sum(rec.signing.signs) == 0
            assert rec.wiener % 2 == 0  # 2n+1 vertices, see parity note

    def test_matches_engine(self):
        for rec in dyck_records(3):
            assert rec.wiener == wiener_signed(path_graph(7), rec.signing)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            dyck_distribution(9)
        with pytest.raises(ValueError):
            dyck_distribution(0)


class TestConnectedGraphs:
    def test_counts(self):
        assert [len(connected_graphs(n)) for n in range(1, 6)] == \
            [1, 1, 2, 6, 21]

    def test_count_n6(self):
        assert len(connected_graphs(6)) == 112

    def test_all_connected_and_distinct(self):
        nx = pytest.importorskip("networkx")
        batch = connected_graphs(5)
        for g in batch:
            h = nx.Graph(g.edges)
            h.add_nodes_from(range(g.n))
            assert nx.is_connected(h)
        for i in range(len(batch)):
            for j in range(i + 1, len(batch)):
                gi = nx.Graph(batch[i].edges)
                gj = nx.Graph(batch[j].edges)
                assert not nx.is_isomorphic(gi, gj)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            connected_graphs(7)

    def test_canonical_mask_matches_brute_force(self):
        rng = random.Random(83)
        connected = disconnected = 0
        for trial in range(1200):
            n = rng.randint(1, 6)
            pairs = list(itertools.combinations(range(n), 2))
            density = rng.choice((0.2, 0.5, 0.8))
            mask = sum(1 << i for i in range(len(pairs))
                       if rng.random() < density)
            g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            if is_connected(g):
                connected += 1
            else:
                disconnected += 1
            assert search._canonical_mask(n, mask, pairs) == \
                naive.least_mask(n, mask), (n, mask)
        assert connected > 300 and disconnected > 300

    @pytest.mark.parametrize("n", range(1, 6))
    def test_output_equals_oracle_classes(self, n):
        # the classes of every connected mask on n vertices, in the order
        # of the generator's rule with the brute-force canonical form
        def edges(n, mask):
            return tuple(p for i, p in
                         enumerate(itertools.combinations(range(n), 2))
                         if mask >> i & 1)

        def generate(n):
            if n == 1:
                return [0]
            pairs = list(itertools.combinations(range(n), 2))
            keys = {}
            for parent in generate(n - 1):
                base = sum(1 << pairs.index(e) for e in edges(n - 1, parent))
                for subset in range(1, 1 << (n - 1)):
                    mask = base | sum(1 << pairs.index((w, n - 1))
                                      for w in range(n - 1)
                                      if subset >> w & 1)
                    keys.setdefault(naive.least_mask(n, mask))
            return list(keys)

        want = generate(n)
        classes = {naive.least_mask(n, mask)
                   for mask in range(1 << n * (n - 1) // 2)
                   if is_connected(Graph(n, edges(n, mask)))}
        assert set(want) == classes
        assert [(g.n, g.edges) for g in connected_graphs(n)] == \
            [(n, edges(n, key)) for key in want]

    def test_n6_output_is_pinned(self):
        out = [(g.n, g.edges) for g in connected_graphs(6)]
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "e7ff0483fafcbade9d534c6ae417ddd4"
            "b29d95ec6eff77fdcc86a7ae407913e3")
