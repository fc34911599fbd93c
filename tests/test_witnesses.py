"""Witness constructions, fixtures, and their certifications."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import naive
import signedwiener
from signedwiener.distances import Signing, wiener_signed
from signedwiener.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    parse_any,
    path_graph,
    square,
    star_graph,
)
from signedwiener.reproduce import derive_special_witness
from signedwiener.search import enumerate_trees, find_k_canceling_signing
from signedwiener.witnesses import (
    SPECIAL_TAGS,
    Claim,
    SignedWitness,
    bipartite_clique_signing,
    blowup_cycle_signing,
    certify,
    complete_cyclic_signing,
    complete_rk_coloring,
    emit_witness,
    parse_witness,
    special_witness,
    square_cycle_signing,
    square_path_signing,
    square_tree_signing,
    subdivision_extend,
    union_signing,
)


def test_constructions_do_not_import_search():
    # the searches take their probes from the constructions, so a fresh
    # import of the constructions must not pull the searches in
    src = Path(signedwiener.__file__).resolve().parents[1]
    code = ("import sys, signedwiener.witnesses; "
            "print('signedwiener.search' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestClaim:
    def test_validation(self):
        with pytest.raises(ValueError):
            Claim("nonsense")
        with pytest.raises(ValueError):
            Claim("k-canceling")
        with pytest.raises(ValueError):
            Claim("rk-canceling", k=2)
        with pytest.raises(ValueError):
            Claim("w-zero", expected=True, exceptional_pair=(0, 1))

    def test_witness_validation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            SignedWitness("x", g, Claim("w-zero"))
        with pytest.raises(ValueError):
            SignedWitness("x", g, Claim("w-zero"), signing=Signing((1,)))
        with pytest.raises(ValueError):
            SignedWitness("x", g, Claim("w-zero"), signing=Signing((1, 1)),
                          designated_edge=2)


class TestSquarePath:
    def test_n5_shape_and_zero(self):
        w = square_path_signing(5)
        assert w.graph.m == 7
        assert sum(1 for s in w.signing.signs if s == 1) == 4
        assert sum(1 for s in w.signing.signs if s == -1) == 3
        assert certify(w).ok and certify(w).observed

    def test_negative_count_always_n_minus_2(self):
        for n in range(3, 13):
            w = square_path_signing(n)
            assert sum(1 for s in w.signing.signs if s == -1) == n - 2
            under = [s for (u, v), s in zip(w.graph.edges, w.signing.signs)
                     if v - u == 1]
            assert all(s == 1 for s in under)

    def test_certified_range(self):
        for n in (5, 7, 8, 9, 10, 11, 12):
            c = certify(square_path_signing(n))
            assert c.ok and c.observed

    def test_n6_exceptional_pair(self):
        w = square_path_signing(6)
        assert w.claim.exceptional_pair == (0, 5)
        assert not w.claim.expected
        assert certify(w).ok
        assert wiener_signed(w.graph, w.signing.signs) == 1

    def test_small_n_expected_false(self):
        for n in (2, 3, 4):
            w = square_path_signing(n)
            assert not w.claim.expected
            assert certify(w).ok

    def test_domain(self):
        with pytest.raises(ValueError):
            square_path_signing(1)


class TestCompleteCyclic:
    def test_certified_range(self):
        for n in range(5, 11):
            c = certify(complete_cyclic_signing(n))
            assert c.ok and c.observed

    def test_n4_expected_false_exhaustively(self):
        w = complete_cyclic_signing(4)
        assert not w.claim.expected
        assert certify(w).ok
        res = find_k_canceling_signing(complete_graph(4), 2,
                                       use_filter=False)
        assert not res.found

    def test_n3_expected_false(self):
        assert certify(complete_cyclic_signing(3)).ok

    def test_cycle_edges_positive(self):
        w = complete_cyclic_signing(6)
        for (u, v), s in zip(w.graph.edges, w.signing.signs):
            on_cycle = v - u == 1 or (u == 0 and v == 5)
            assert s == (1 if on_cycle else -1)

    def test_domain(self):
        with pytest.raises(ValueError):
            complete_cyclic_signing(2)


class TestSquareTree:
    def test_spider_legs_1_1_2(self):
        spider = Graph(5, [(0, 1), (0, 2), (2, 3), (0, 4)])
        w = square_tree_signing(spider)
        assert certify(w).ok and certify(w).observed

    def test_star_delegates_to_cyclic(self):
        w = square_tree_signing(star_graph(6))
        assert w.name == "square-tree-star-6"
        assert w.graph == complete_graph(6)
        assert w.claim.kind == "w-zero"
        assert certify(w).ok

    def test_p6_routes_to_fixture(self):
        w = square_tree_signing(path_graph(6))
        assert w.name == "special-p6sq"
        assert certify(w).ok

    def test_p7(self):
        assert certify(square_tree_signing(path_graph(7))).ok

    def test_every_tree_5_to_8(self):
        for n in range(5, 9):
            for rec in enumerate_trees(n):
                c = certify(square_tree_signing(rec.tree))
                assert c.ok and c.observed, rec.tree.edges

    def test_rejects_non_trees(self):
        with pytest.raises(ValueError):
            square_tree_signing(cycle_graph(5))
        with pytest.raises(ValueError):
            square_tree_signing(Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]))
        with pytest.raises(ValueError):
            square_tree_signing(path_graph(4))


class TestSquareCycle:
    def test_certified_range(self):
        for n in (6, 8, 9, 10):
            c = certify(square_cycle_signing(n))
            assert c.ok and c.observed

    def test_n5_is_complete_witness(self):
        w = square_cycle_signing(5)
        assert w.name == "square-cycle-5"
        assert w.graph == complete_graph(5)
        assert certify(w).ok

    def test_n7_routes_to_fixture(self):
        w = square_cycle_signing(7)
        assert w.name == "special-c7sq"
        assert w.graph == square(cycle_graph(7))
        assert certify(w).ok

    def test_plain_square_signing_fails_at_7(self):
        # the generic cycle-positive signing is why n=7 needs a fixture
        g = square(cycle_graph(7))
        c7 = cycle_graph(7)
        signs = tuple(1 if c7.has_edge(u, v) else -1 for u, v in g.edges)
        w = SignedWitness("probe", g, Claim("k-canceling", k=2),
                          signing=Signing(signs))
        assert not certify(w).ok

    def test_domain(self):
        with pytest.raises(ValueError):
            square_cycle_signing(4)


class TestSpecialWitnesses:
    def test_fixtures_match_fresh_derivation(self):
        for tag in SPECIAL_TAGS:
            stored = special_witness(tag)
            fresh = derive_special_witness(tag)
            assert stored.graph == fresh.graph
            assert stored.signing == fresh.signing
            assert stored.claim == fresh.claim
            assert stored.designated_edge == fresh.designated_edge
            assert emit_witness(stored) == emit_witness(fresh)

    def test_recertify_all(self):
        for tag in SPECIAL_TAGS:
            w = special_witness(tag)
            assert w.graph.n <= 12
            assert certify(w).ok

    def test_frozen_seed_signings(self):
        even = special_witness("g_small_even")
        assert even.graph == complete_graph(4)
        assert even.signing.signs == (1, 1, -1, -1, 1, -1)
        assert even.designated_edge == 1
        odd = special_witness("g_small_odd")
        assert odd.graph == square(path_graph(5))
        assert odd.signing.signs == (1, -1, 1, -1, 1, 1, -1)
        assert odd.designated_edge == 0

    def test_shapes(self):
        assert special_witness("c7sq").graph.m == 14
        assert special_witness("p6sq").graph.m == 9
        theta = special_witness("theta4").graph
        assert theta.n == 6 and theta.m == 8

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            special_witness("nope")

    def test_round_trip(self):
        for tag in SPECIAL_TAGS:
            w = special_witness(tag)
            again = parse_witness(emit_witness(w))
            assert again == w


class TestSubdivision:
    def test_identity(self):
        odd = special_witness("g_small_odd")
        assert subdivision_extend(odd, odd.designated_edge, 0) is odd

    def test_even_seed_i1(self):
        even = special_witness("g_small_even")
        w = subdivision_extend(even, even.designated_edge, 1)
        assert w.graph.n == 6 and w.graph.m == 8
        assert min(w.graph.degree(v) for v in range(6)) == 2
        assert certify(w).ok and certify(w).observed

    def test_odd_seed_i2(self):
        odd = special_witness("g_small_odd")
        w = subdivision_extend(odd, odd.designated_edge, 2)
        assert w.graph.n == 9 and w.graph.m == 11
        assert certify(w).ok

    def test_chain_covers_5_to_10(self):
        even = special_witness("g_small_even")
        odd = special_witness("g_small_odd")
        sizes = {}
        for seed, irange in ((odd, range(0, 3)), (even, range(1, 4))):
            for i in irange:
                w = subdivision_extend(seed, seed.designated_edge, i)
                assert certify(w).ok
                assert w.graph.m == w.graph.n + 2
                assert min(w.graph.degree(v) for v in range(w.graph.n)) == 2
                sizes[w.graph.n] = True
        assert sorted(sizes) == [5, 6, 7, 8, 9, 10]

    def test_alternating_signs_sum_to_edge_sign(self):
        even = special_witness("g_small_even")
        e = even.designated_edge
        w = subdivision_extend(even, e, 2)
        new = w.signing.signs[even.graph.m - 1:]
        assert len(new) == 5
        assert new == (1, -1, 1, -1, 1) or new == (-1, 1, -1, 1, -1)
        assert sum(new) == even.signing.signs[e]

    def test_rejects_unqualified_edge(self):
        # the even seed's first edge fails the cycle hypothesis, which
        # is why its designated edge is 1 rather than 0
        even = special_witness("g_small_even")
        with pytest.raises(ValueError, match="no cycle through"):
            subdivision_extend(even, 0, 1)

    def test_requires_zero_index_input(self):
        with pytest.raises(ValueError, match="zero-index"):
            subdivision_extend(square_path_signing(6), 0, 1)

    def test_edge_sweep_sound_on_theta(self):
        # every edge either rejects or extends to a certified witness
        w = special_witness("theta4")
        verdicts = []
        for e in range(w.graph.m):
            try:
                out = subdivision_extend(w, e, 1)
            except ValueError:
                verdicts.append("reject")
                continue
            assert certify(out).ok and certify(out).observed
            verdicts.append("extend")
        assert "reject" in verdicts and "extend" in verdicts


class TestUnion:
    def test_theta_pair(self):
        t4 = special_witness("theta4")
        w = union_signing(t4, t4, 4, 4)
        assert w.graph.n == 11 and w.graph.m == 16
        assert certify(w).ok and certify(w).observed

    def test_seed_pair(self):
        w = union_signing(special_witness("g_small_even"),
                          special_witness("g_small_odd"), 0, 0)
        assert w.graph.n == 8
        assert certify(w).ok

    def test_restriction_recovers_inputs(self):
        w1 = special_witness("g_small_even")
        w2 = special_witness("theta4")
        u = union_signing(w1, w2, 1, 0)
        assert u.signing.signs[:w1.graph.m] == w1.signing.signs
        assert u.signing.signs[w1.graph.m:] == w2.signing.signs

    def test_uncertified_input_rejected(self):
        with pytest.raises(ValueError):
            union_signing(special_witness("g_small_even"),
                          square_path_signing(6), 0, 0)
        with pytest.raises(ValueError):
            union_signing(square_path_signing(4),
                          special_witness("g_small_even"), 0, 0)


class TestBipartiteCliques:
    def test_k33_full_shape(self):
        w = bipartite_clique_signing(complete_bipartite_graph(3, 3), 1)
        assert w.graph.n == 6 and w.graph.m == 15
        assert certify(w).ok

    def test_k44_two_canceling(self):
        w = bipartite_clique_signing(complete_bipartite_graph(4, 4), 2)
        assert w.claim.k == 2
        assert certify(w).ok

    def test_cross_positive_intra_negative(self):
        base = complete_bipartite_graph(3, 3)
        w = bipartite_clique_signing(base, 1)
        for (u, v), s in zip(w.graph.edges, w.signing.signs):
            crossing = (u < 3) != (v < 3)
            assert s == (1 if crossing else -1)

    def test_small_part_named(self):
        with pytest.raises(ValueError, match="part U has 2"):
            bipartite_clique_signing(complete_bipartite_graph(2, 3), 1)

    def test_low_degree_vertex_named(self):
        base = Graph(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                         (2, 3)])
        with pytest.raises(ValueError, match="vertex 2"):
            bipartite_clique_signing(base, 1)

    def test_non_bipartite_rejected(self):
        with pytest.raises(ValueError, match="not bipartite"):
            bipartite_clique_signing(complete_graph(3), 1)


class TestBlowup:
    def test_triangle_parts_222(self):
        w = blowup_cycle_signing(1, (2, 2, 2), 1)
        assert w.graph.n == 6 and w.graph.m == 12
        assert certify(w).ok

    def test_pentagon_parts_2s(self):
        w = blowup_cycle_signing(2, (2, 2, 2, 2, 2), 1)
        assert certify(w).ok

    def test_triangle_parts_444_k2(self):
        w = blowup_cycle_signing(1, (4, 4, 4), 2)
        assert certify(w).ok

    def test_uneven_parts(self):
        w = blowup_cycle_signing(1, (3, 2, 2), 1)
        assert certify(w).ok

    def test_part_too_small_named(self):
        with pytest.raises(ValueError, match="part 1 has size 1"):
            blowup_cycle_signing(1, (2, 1, 2), 1)
        with pytest.raises(ValueError, match="part 0 has size 2"):
            blowup_cycle_signing(1, (2, 4, 4), 2)

    def test_size_count_must_match_t(self):
        with pytest.raises(ValueError):
            blowup_cycle_signing(1, (2, 2, 2, 2), 1)


class TestCompleteRk:
    def test_k6_stored_coloring(self):
        w = complete_rk_coloring(6, 3, 2)
        assert certify(w).ok and certify(w).observed

    def test_k7(self):
        assert certify(complete_rk_coloring(7, 3, 2)).ok

    def test_cycle_color_counts(self):
        for n, r, k in ((6, 3, 2), (8, 3, 2), (12, 4, 2), (12, 3, 3)):
            w = complete_rk_coloring(n, r, k)
            counts = {}
            for c in w.coloring.colors:
                counts[c] = counts.get(c, 0) + 1
            for c in range(1, r):
                assert counts[c] == 3 * (k - 1)
            assert counts[r] == w.graph.m - 3 * (k - 1) * (r - 1)

    def test_matches_naive_on_k6(self):
        w = complete_rk_coloring(6, 3, 2)
        assert naive.is_rk_canceling(6, w.graph.edges, w.coloring.colors,
                                     3, 2)

    def test_below_threshold(self):
        with pytest.raises(ValueError, match="needs n >= 6"):
            complete_rk_coloring(5, 3, 2)
        with pytest.raises(ValueError):
            complete_rk_coloring(6, 2, 2)
        with pytest.raises(ValueError):
            complete_rk_coloring(6, 3, 1)


class TestCertify:
    def test_catches_wrong_claims(self):
        g = path_graph(3)
        w = SignedWitness("bad", g, Claim("w-zero"),
                          signing=Signing((1, 1)))
        c = certify(w)
        assert not c.ok and not c.observed
        assert c.certificate == ((), 0, 1)

    def test_exceptional_pair_must_be_exact(self):
        g = square(path_graph(6))
        sq = square_path_signing(6)
        wrong = SignedWitness("probe", g,
                              Claim("w-zero", expected=False,
                                    exceptional_pair=(0, 4)),
                              signing=sq.signing)
        assert not certify(wrong).ok

    def test_kind_mismatches_raise(self):
        w = complete_rk_coloring(6, 3, 2)
        hybrid = SignedWitness("probe", w.graph, Claim("w-zero"),
                               coloring=w.coloring)
        with pytest.raises(ValueError):
            certify(hybrid)


class TestWitnessFormat:
    def test_emitted_file_is_parseable_signed_graph(self):
        text = emit_witness(special_witness("theta4"))
        p = parse_any(text)
        assert p.graph.m == 8 and len(p.signs) == 8

    def test_colored_round_trip(self):
        w = complete_rk_coloring(6, 3, 2)
        again = parse_witness(emit_witness(w))
        assert again.graph == w.graph
        assert again.coloring == w.coloring
        assert again.claim == w.claim

    def test_expected_false_round_trip(self):
        w = square_path_signing(6)
        again = parse_witness(emit_witness(w))
        assert again.claim == w.claim

    def test_claim_expected_must_be_boolean(self):
        text = emit_witness(square_path_signing(6))
        assert "expected=false" in text
        with pytest.raises(ValueError, match="true or false"):
            parse_witness(text.replace("expected=false", "expected=maybe"))

    def test_missing_claim_rejected(self):
        with pytest.raises(ValueError, match="no claim"):
            parse_witness("2 1\n0 1 +\n")
