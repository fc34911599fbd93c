"""The toolkit's headline claims as one registry of named checks.

SUITES maps a suite name to its ordered (label, check) pairs; each
check() re-derives one claim from scratch and returns (ok, note), so a
failed run pinpoints itself.  The CLI's `reproduce` command and the
acceptance tests both run this table.  derive_special_witness re-runs
the searches behind the frozen fixtures of `signedwiener.witnesses`.
"""

from __future__ import annotations

import math

from .canceling import necessary_conditions, soltes_check_classical
from .graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    square,
    theta_graph,
)
from .search import (
    _all_trees,
    connected_graphs,
    dyck_record,
    dyck_records,
    find_k_canceling_signing,
    theta_length_tuples,
    threshold_scan,
    verify_double_star,
    verify_tree_sandwich,
)
from .witnesses import (
    SPECIAL_TAGS,
    Claim,
    SignedWitness,
    _edge_qualifies,
    _nonzero_pairs,
    bipartite_clique_signing,
    blowup_cycle_signing,
    certify,
    complete_cyclic_signing,
    complete_rk_coloring,
    emit_witness,
    special_witness,
    square_path_signing,
    square_tree_signing,
    subdivision_extend,
    union_signing,
)


def _special_base(tag: str) -> tuple[Graph, Claim]:
    if tag == "c7sq":
        return square(cycle_graph(7)), Claim("k-canceling", k=2)
    if tag == "p6sq":
        return square(path_graph(6)), Claim("w-zero")
    if tag == "theta4":
        return theta_graph((1, 2, 2, 3)), Claim("w-zero")
    if tag == "g_small_even":
        return complete_graph(4), Claim("w-zero")
    if tag == "g_small_odd":
        return square(path_graph(5)), Claim("w-zero")
    raise ValueError(f"unknown special witness tag {tag!r}")


def derive_special_witness(tag: str) -> SignedWitness:
    """Re-run the search that produced a fixture: lexicographically
    least qualifying signing, and for the seed graphs the least edge
    satisfying the subdivision hypothesis."""
    g, claim = _special_base(tag)
    k = claim.k if claim.kind == "k-canceling" else 1
    res = find_k_canceling_signing(g, k, use_filter=False)
    if not res.found:
        raise RuntimeError(f"no qualifying signing exists for {tag}")
    designated = None
    if tag in ("g_small_even", "g_small_odd"):
        designated = next(e for e in range(g.m)
                          if _edge_qualifies(g, res.witness.signs, e))
    return SignedWitness(f"special-{tag}", g, claim, signing=res.witness,
                         designated_edge=designated)


def _confirmed(w: SignedWitness) -> bool:
    # the engine agrees with the claim and observes the property itself
    c = certify(w)
    return c.ok and c.observed


def _check_square_paths():
    sizes = range(2, 13)
    results = [certify(square_path_signing(n)) for n in sizes]
    ok = all(r.ok for r in results) and \
        [r.observed for r in results] == [n >= 5 and n != 6 for n in sizes]
    # re-derive the n=6 exception without its claim: only (0,5) fails
    w6 = square_path_signing(6)
    return ok and _nonzero_pairs(w6.graph, w6.signing) == [(0, 5)], \
        f"{len(results)} claims certified (n=2..12, n=6 boundary)"


def _check_complete_cyclic():
    sizes = range(3, 11)
    results = [certify(complete_cyclic_signing(n)) for n in sizes]
    ok = all(r.ok for r in results) and \
        [r.observed for r in results] == [n >= 5 for n in sizes]
    return ok, f"{len(results)} claims certified (n=3..10)"


def _check_k4_exhaustive():
    result = find_k_canceling_signing(complete_graph(4), 2,
                                      use_filter=False)
    return (not result.found,
            f"no 2-canceling signing among {result.examined} candidates")


def _check_fixture_rederivation():
    ok = True
    for tag in SPECIAL_TAGS:
        kind, k = ("k-canceling", 2) if tag == "c7sq" else ("w-zero", None)
        fresh = derive_special_witness(tag)
        ok = (ok and _confirmed(fresh) and fresh.claim.kind == kind
              and fresh.claim.k == k
              and emit_witness(fresh) == emit_witness(special_witness(tag)))
    return ok, "stored fixtures equal fresh search output"


def _check_fixture_recertification():
    results = [certify(special_witness(tag)) for tag in SPECIAL_TAGS]
    return all(r.ok for r in results), f"{len(results)} fixtures certified"


def _check_subdivision_chain():
    even = special_witness("g_small_even")
    odd = special_witness("g_small_odd")
    sizes = []
    ok = True
    for seed, irange in ((odd, range(0, 3)), (even, range(1, 4))):
        for i in irange:
            w = subdivision_extend(seed, seed.designated_edge, i)
            good = (_confirmed(w) and w.graph.m == w.graph.n + 2
                    and min(w.graph.degree(v)
                            for v in range(w.graph.n)) == 2)
            ok = ok and good
            sizes.append(w.graph.n)
    return ok and sorted(sizes) == [5, 6, 7, 8, 9, 10], \
        "n=5..10 with n+2 edges and min degree 2"


def _check_union():
    t4 = special_witness("theta4")
    u1 = union_signing(t4, t4, 4, 4)
    u2 = union_signing(special_witness("g_small_even"),
                       special_witness("g_small_odd"), 0, 0)
    ok = certify(u1).ok and certify(u2).ok
    return ok, "two one-point unions certified"


def _check_bipartite_cliques():
    a = _confirmed(bipartite_clique_signing(complete_bipartite_graph(3, 3), 1))
    b = _confirmed(bipartite_clique_signing(complete_bipartite_graph(4, 4), 2))
    return a and b, "K_6 (k=1) and K_8 (k=2) forms certified"


def _check_blowups():
    a = _confirmed(blowup_cycle_signing(1, (2, 2, 2), 1))
    b = _confirmed(blowup_cycle_signing(1, (4, 4, 4), 2))
    return a and b, "triangle blowups (2,2,2) and (4,4,4) certified"


def _check_complete_rk_small():
    a = _confirmed(complete_rk_coloring(6, 3, 2))
    b = _confirmed(complete_rk_coloring(7, 3, 2))
    return a and b, "3-colorings of K_6 and K_7 certified for k=2"


def _check_tree_squares():
    count = 0
    for n in range(5, 9):
        for tree in _all_trees(n):
            if not certify(square_tree_signing(tree)).ok:
                return False, f"failed on a tree with {n} vertices"
            count += 1
    return True, f"{count} tree squares certified (n=5..8)"


def _check_soltes_cycles():
    expected = {n: n == 11 for n in range(5, 14)}
    for n, want in expected.items():
        if soltes_check_classical(cycle_graph(n)).holds != want:
            return False, f"unexpected verdict at C_{n}"
    return True, "deletion-invariance exactly at C_11 among C_5..C_13"


def _check_thresholds():
    expect = [(1, {2: False, 3: False, 4: True, 5: True}),
              (2, {3: False, 4: False, 5: True, 6: True}),
              (3, {4: False, 5: False, 6: False, 7: True})]
    for k, per_n in expect:
        rows = threshold_scan(2, k, sorted(per_n))
        for row in rows:
            if row.holds != per_n[row.n]:
                return False, f"k={k}, n={row.n} disagrees"
            # a negative must be the full sweep: the cyclic probe plus
            # every signing modulo negation
            full = 1 + 2 ** (math.comb(row.n, 2) - 1)
            if not row.holds and (row.examined != full
                                  or row.witness is not None):
                return False, f"k={k}, n={row.n} is not a full sweep"
    return True, "first 2-signing thresholds at n=4, 5, 7"


def _check_connected_sweep():
    canceling_passes = True
    tight = {5: False, 6: False}
    graphs = 0
    for n in range(2, 7):
        for g in connected_graphs(n):
            graphs += 1
            result = find_k_canceling_signing(g, 1, use_filter=False)
            if not result.found:
                continue
            if not necessary_conditions(g, 1).passes:
                canceling_passes = False
            if n in tight and g.m == n + 2 and \
                    min(g.degree(v) for v in range(n)) == 2:
                tight[n] = True
    ok = canceling_passes and all(tight.values())
    return ok, (f"{graphs} graphs swept; conditions necessary; "
                "tight examples at n=5,6")


def _check_theta_small():
    for lengths in theta_length_tuples(3, 10):
        if find_k_canceling_signing(theta_graph(lengths), 1,
                                    use_filter=False).found:
            return False, f"theta{lengths} unexpectedly cancels"
    return _confirmed(special_witness("theta4")), \
        "no theta with t<=3 within 10 edges cancels; t=4 does"


def _check_complete_rk_large():
    return _confirmed(complete_rk_coloring(12, 3, 3)), \
        "3-colored K_12 certified for k=3"


def _check_sandwich():
    for n in range(2, 10):
        report = verify_tree_sandwich(n)
        if not (report.lower_holds and report.upper_holds):
            return False, f"fails at n={n}"
    return True, "alternating-path lower and path upper bounds, n<=9"


def _check_double_star():
    first_star_failure = None
    for n in range(2, 10):
        report = verify_double_star(n)
        if not (report.lower_holds and report.upper_holds):
            return False, f"double-star bound fails at n={n}"
        if not report.star_only_upper_holds and first_star_failure is None:
            first_star_failure = n
    return first_star_failure == 8, \
        "bounds hold for n<=9; star-only variant first fails at n=8"


def _check_dyck():
    catalan = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132}
    for n, count in catalan.items():
        records = dyck_records(n)
        if len(records) != count:
            return False, f"count mismatch at n={n}"
        if any(r.wiener % 2 for r in records):
            return False, f"odd index at n={n}"
    if dyck_record("UDUUDUDD").wiener != 32:
        return False, "fixed 8-step record disagrees"
    return True, "Catalan counts, even indices, fixed 8-step value"


SUITES = {
    "core": (
        ("square-path-family", _check_square_paths),
        ("complete-cyclic-family", _check_complete_cyclic),
        ("k4-exhaustive-negative", _check_k4_exhaustive),
        ("fixture-rederivation", _check_fixture_rederivation),
        ("fixture-recertification", _check_fixture_recertification),
        ("subdivision-chain", _check_subdivision_chain),
        ("union-composition", _check_union),
        ("bipartite-cliques", _check_bipartite_cliques),
        ("blowup-cycles", _check_blowups),
        ("complete-rk-small", _check_complete_rk_small),
        ("tree-squares", _check_tree_squares),
        ("soltes-cycles", _check_soltes_cycles),
    ),
    "exhaustive": (
        ("signed-thresholds", _check_thresholds),
        ("connected-sweep", _check_connected_sweep),
        ("theta-small", _check_theta_small),
        ("complete-rk-large", _check_complete_rk_large),
    ),
    "conjectures": (
        ("tree-sandwich", _check_sandwich),
        ("double-star-bounds", _check_double_star),
        ("alternating-paths", _check_dyck),
    ),
}
