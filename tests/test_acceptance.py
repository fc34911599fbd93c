"""Acceptance gate: the headline-claim registry plus the claims that
need the naive oracle.

test_registry_check runs every (suite, label, check) of
signedwiener.reproduce.SUITES, the table `signedwiener reproduce` runs,
and prints one pass/fail line each.  The twelve numbered criteria name
the registry checks that carry them and print one line each; criteria
02 and 12 also compare the engine against the brute-force oracle in
tests/naive.py, which the library cannot import.  Each registry check
runs once per session and its outcome is shared.  All comparisons are
exact integers.
"""

import functools
from itertools import product

import pytest

import naive
from signedwiener.canceling import is_k_canceling_signing
from signedwiener.distances import (
    signed_distance_row,
    wiener_classical,
    wiener_signed,
)
from signedwiener.graphs import Graph, complete_graph
from signedwiener.reproduce import SUITES
from signedwiener.search import connected_graphs
from signedwiener.witnesses import complete_cyclic_signing, special_witness

REGISTRY = [(suite, label, check)
            for suite, checks in SUITES.items() for label, check in checks]
CHECKS = {label: check for _, label, check in REGISTRY}


@functools.cache
def _run(check):
    return check()


def _passes(*labels) -> bool:
    return all(_run(CHECKS[label])[0] for label in labels)


def _report(number: int, label: str, ok: bool) -> None:
    print(f"[criterion {number:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


@pytest.mark.parametrize(("suite", "label", "check"), REGISTRY,
                         ids=[f"{s}-{lab}" for s, lab, _ in REGISTRY])
def test_registry_check(suite, label, check):
    ok, note = _run(check)
    print(f"[{suite}] {label}: {'PASS' if ok else 'FAIL'} ({note})")
    assert ok, f"{suite} check {label} failed: {note}"


def test_criterion_01_square_path_index_values():
    _report(1, "squared paths cancel except the n=6 endpoint pair",
            _passes("square-path-family"))


def test_criterion_02_complete_cyclic_two_canceling():
    k4 = complete_graph(4)
    none_cancel = not any(
        naive.is_k_canceling(4, k4.edges, signs, 2)
        for signs in product((1, -1), repeat=6))
    _report(2, "cyclic complete signings 2-cancel from n=5, never at n=4",
            none_cancel
            and _passes("complete-cyclic-family", "k4-exhaustive-negative"))


def test_criterion_03_search_recovers_square_specials():
    _report(3, "search certifies the squared 7-cycle and 6-path",
            _passes("fixture-rederivation"))


def test_criterion_04_necessary_conditions_and_tightness():
    _report(4, "canceling implies the structural conditions; n+2 edges "
            "with min degree 2 is attained at n=5,6",
            _passes("connected-sweep"))


def test_criterion_05_small_thetas_never_cancel():
    _report(5, "thetas with up to 3 paths never cancel; 4 paths can",
            _passes("theta-small"))


def test_criterion_06_subdivision_chain_all_sizes():
    _report(6, "subdivided seeds cancel with n+2 edges for n=5..10",
            _passes("subdivision-chain"))


def test_criterion_07_bipartite_cliques_and_blowups():
    _report(7, "clique-completed bipartite graphs and triangle blowups "
            "cancel as claimed", _passes("bipartite-cliques", "blowup-cycles"))


def test_criterion_08_three_colorings_of_k6_and_k12():
    _report(8, "3-colored K_6 is (3,2)-canceling and K_12 is "
            "(3,3)-canceling",
            _passes("complete-rk-small", "complete-rk-large"))


def test_criterion_09_first_canceling_thresholds():
    _report(9, "complete graphs first cancel at n=4, 2-cancel at n=5, "
            "3-cancel at n=7", _passes("signed-thresholds"))


def test_criterion_10_tree_conjectures_to_n9():
    _report(10, "path and double-star bounds hold for all trees to n=9; "
            "the star-only bound first fails at n=8",
            _passes("tree-sandwich", "double-star-bounds"))


def test_criterion_11_classical_deletion_invariance():
    _report(11, "the 11-cycle alone keeps its wiener index under every "
            "vertex deletion", _passes("soltes-cycles"))


def test_criterion_12_property_suite_condensed():
    ok = True
    for n in range(2, 5):
        for g in connected_graphs(n):
            classical = naive.wiener_signed(g.n, g.edges, (1,) * g.m)
            ok = ok and wiener_classical(g) == classical
            for signs in product((1, -1), repeat=g.m):
                rows = [signed_distance_row(g, signs, u)
                        for u in range(g.n)]
                neg = tuple(-s for s in signs)
                neg_rows = [signed_distance_row(g, neg, u)
                            for u in range(g.n)]
                ok = ok and rows == neg_rows
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        d = rows[u][v]
                        ok = ok and d == naive.signed_distance(
                            g.n, g.edges, signs, u, v)
            ok = ok and wiener_signed(g, (1,) * g.m) == classical
    # spanning extension and the exact-size deletion shortcut
    t4 = special_witness("theta4")
    host = Graph(6, list(t4.graph.edges) + [(2, 5), (3, 4)])
    extended = t4.signing.signs + (1, -1)
    ok = ok and is_k_canceling_signing(host, extended, 1).holds
    for n, k in ((4, 2), (5, 2)):
        sigma = complete_cyclic_signing(n).signing
        engine = is_k_canceling_signing(complete_graph(n), sigma, k).holds
        full = naive.is_k_canceling(n, complete_graph(n).edges,
                                    sigma.signs, k)
        ok = ok and engine == full
    _report(12, "oracle equivalence, negation and constant collapse, "
            "extension and shortcut consistency", ok)
