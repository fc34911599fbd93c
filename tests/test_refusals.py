"""Every public query refuses a signing or coloring that does not fit
its graph, and a vertex outside it, with one ValueError message per
kind, before any size guard and before the u == v shortcut; a
Signing or EdgeColoring refuses values that are not integers, as do
the queries and constructions a vertex or edge that is not an int, and
Graph and delete_vertices a vertex count or vertex that is not; the
command line refuses a non-integer parameter by its usage word, a
graph file whose header names more vertices than the parser's limit
on that header's line, a family past its vertex or edge limit before
any edge list exists, and a threshold row past its first guard before
K_n is built; a witness refuses an exceptional pair that is not
0 <= u < v < n; every single integer parameter of the public API
is refused through graphs.require_int, in one of its three forms,
when it is a float, a bool or an int past a bound; and every integer
given as text, in a graph file, a witness comment, a family or
construct parameter or a command-line argument, is read by
graphs.parse_int, which refuses every spelling but -?[0-9]+."""

import argparse
import time

import pytest

from signedwiener.canceling import (
    is_k_canceling_signing,
    is_rk_canceling_coloring,
    necessary_conditions,
    soltes_check_signed,
)
from signedwiener import search
from signedwiener.cli import _cmd_dist, build_parser, main
from signedwiener.distances import (
    EdgeColoring,
    Signing,
    achievable_path_sums,
    canceling_path_witness,
    canceling_reach_row,
    check_fit,
    signed_distance,
    signed_distance_row,
    signed_distance_with_witness,
    wiener_signed,
)
from signedwiener.graphs import (
    MAX_FAMILY_EDGES,
    MAX_PARSED_VERTICES,
    Graph,
    GraphFormatError,
    blowup_cycle_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    delete_vertices,
    is_k_connected,
    make_family,
    parse_any,
    path_graph,
    star_graph,
    theta_graph,
    union_at_vertex,
)
from signedwiener.search import tree_signed_wiener
from signedwiener.witnesses import (
    Claim,
    SignedWitness,
    bipartite_clique_signing,
    blowup_cycle_signing,
    complete_cyclic_signing,
    complete_rk_coloring,
    emit_witness,
    parse_witness,
    special_witness,
    square_cycle_signing,
    square_path_signing,
    subdivision_extend,
)

K4 = complete_graph(4)
P4 = path_graph(4)
THETA4 = special_witness("theta4").graph


def _signs(count):
    return (1,) * count


def _colors(r):
    return lambda count: EdgeColoring(r, tuple(1 + i % r
                                               for i in range(count)))


def _dist_command(g, tags, u, v):
    args = build_parser().parse_args(["dist", "fixture:theta4",
                                      str(u), str(v)])
    return _cmd_dist(args)


# name -> (graph, tags of a given length or None, its kind in the
# message, the call with tags and two vertices, whether it takes one)
ENTRIES = {
    "signed_distance_row": (
        K4, _signs, "signing",
        lambda g, t, u, v: signed_distance_row(g, t, u), True),
    "signed_distance": (
        K4, _signs, "signing",
        lambda g, t, u, v: signed_distance(g, t, u, v), True),
    "achievable_path_sums": (
        K4, _signs, "signing",
        lambda g, t, u, v: achievable_path_sums(g, t, u, v), True),
    "signed_distance_with_witness": (
        K4, _signs, "signing",
        lambda g, t, u, v: signed_distance_with_witness(g, t, u, v), True),
    "wiener_signed": (
        K4, _signs, "signing",
        lambda g, t, u, v: wiener_signed(g, t), False),
    "canceling_reach_row-r2": (
        K4, _colors(2), "signing",
        lambda g, t, u, v: canceling_reach_row(g, t, u), True),
    "canceling_reach_row-r3": (
        K4, _colors(3), "coloring",
        lambda g, t, u, v: canceling_reach_row(g, t, u), True),
    "canceling_path_witness-r2": (
        K4, _colors(2), "signing",
        lambda g, t, u, v: canceling_path_witness(g, t, u, v), True),
    "canceling_path_witness-r3": (
        P4, _colors(3), "coloring",
        lambda g, t, u, v: canceling_path_witness(g, t, u, v), True),
    "is_k_canceling_signing-k1": (
        K4, _signs, "signing",
        lambda g, t, u, v: is_k_canceling_signing(g, t, 1), False),
    "is_k_canceling_signing-k2": (
        K4, _signs, "signing",
        lambda g, t, u, v: is_k_canceling_signing(g, t, 2), False),
    "is_rk_canceling_coloring-k1": (
        K4, _colors(3), "coloring",
        lambda g, t, u, v: is_rk_canceling_coloring(g, t, 1), False),
    "is_rk_canceling_coloring-k2": (
        K4, _colors(3), "coloring",
        lambda g, t, u, v: is_rk_canceling_coloring(g, t, 2), False),
    "soltes_check_signed": (
        K4, _signs, "signing",
        lambda g, t, u, v: soltes_check_signed(g, t), False),
    "tree_signed_wiener": (
        P4, _signs, "signing",
        lambda g, t, u, v: tree_signed_wiener(g, t), False),
    "cli-dist": (THETA4, None, None, _dist_command, True),
}

# entries deltas away from the edge count; m + 3 is the 9-entry
# coloring of K_4's 6 edges
CASES = [(name, delta) for name, entry in ENTRIES.items()
         if entry[1] is not None for delta in (-1, 1, 3)]
CASES += [(name, "vertex") for name, entry in ENTRIES.items() if entry[4]]


@pytest.mark.parametrize("name, case", CASES,
                         ids=[f"{name}-{case}" for name, case in CASES])
def test_misfit_is_refused_with_one_message(name, case):
    g, tags_of, kind, call, takes_vertices = ENTRIES[name]
    if case == "vertex":
        # u == v, so a shortcut answering before the check would show
        tags = None if tags_of is None else tags_of(g.m)
        u = v = g.n
        message = f"vertex {g.n} out of range 0..{g.n - 1}"
    else:
        tags = tags_of(g.m + case)
        u = v = 0
        message = f"{kind} has {g.m + case} entries for {g.m} edges"
    with pytest.raises(ValueError) as exc:
        call(g, tags, u, v)
    assert str(exc.value) == message


@pytest.mark.parametrize("row, tags", [
    (signed_distance_row, _signs(K4.m)),
    (canceling_reach_row, _colors(2)(K4.m)),
    (canceling_reach_row, _colors(3)(K4.m)),
])
@pytest.mark.parametrize("bad", [4, -1])
def test_out_of_range_target_is_refused(row, tags, bad):
    with pytest.raises(ValueError) as exc:
        row(K4, tags, 0, targets=(1, bad))
    assert str(exc.value) == f"vertex {bad} out of range 0..3"


@pytest.mark.parametrize("call, value", [
    (lambda: signed_distance(K4, _signs(K4.m), 0, 1.0), 1.0),
    (lambda: signed_distance(K4, _signs(K4.m), True, 2), True),
    (lambda: signed_distance_row(K4, _signs(K4.m), 0, targets=("1",)), "1"),
    (lambda: signed_distance_with_witness(K4, _signs(K4.m), 0, 2.0), 2.0),
    (lambda: achievable_path_sums(K4, _signs(K4.m), 0, 2.0), 2.0),
    (lambda: canceling_path_witness(K4, _colors(2)(K4.m), 0.0, 2), 0.0),
    (lambda: canceling_path_witness(P4, _colors(3)(P4.m), 0, True), True),
    (lambda: canceling_reach_row(K4, _colors(2)(K4.m), 0, targets=[2.0]),
     2.0),
    (lambda: canceling_reach_row(K4, _colors(3)(K4.m), "0"), "0"),
], ids=["signed_distance-float", "signed_distance-bool", "row-str",
        "witness-float", "path_sums-float", "canceling_witness-r2-float",
        "canceling_witness-r3-bool", "reach_row-r2-target-float",
        "reach_row-r3-str"])
def test_non_integer_vertex_is_refused(call, value):
    # 2.0 and True equal 2 and 1, so a range check alone answers for
    # those vertices, and a float index fails deep in the engine
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == f"vertex must be an integer, got {value!r}"


@pytest.mark.parametrize("call, message", [
    (lambda: union_at_vertex(K4, P4, 0.0, 1),
     "w1 must be an integer, got 0.0"),
    (lambda: union_at_vertex(K4, P4, 0, "1"),
     "w2 must be an integer, got '1'"),
    (lambda: union_at_vertex(K4, P4, True, 1),
     "w1 must be an integer, got True"),
    (lambda: subdivision_extend(special_witness("theta4"), 3.0, 1),
     "e must be an integer, got 3.0"),
    (lambda: subdivision_extend(special_witness("theta4"), True, 1),
     "e must be an integer, got True"),
    (lambda: subdivision_extend(special_witness("theta4"), 3, 1.0),
     "i must be an integer, got 1.0"),
], ids=["union-w1-float", "union-w2-str", "union-w1-bool",
        "subdivide-e-float", "subdivide-e-bool", "subdivide-i-float"])
def test_non_integer_glue_vertex_or_edge_is_refused(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: Graph(3, [(0, True), (1, 2)]),
     "vertex must be an integer, got True"),
    (lambda: Graph(3, [(0, 1.0)]), "vertex must be an integer, got 1.0"),
    (lambda: Graph(3, [("0", 1)]), "vertex must be an integer, got '0'"),
    (lambda: Graph(3.0, []), "vertex count must be an integer, got 3.0"),
    (lambda: Graph(True, []), "vertex count must be an integer, got True"),
    (lambda: delete_vertices(K4, (1.0,)),
     "deleted vertex must be an integer, got 1.0"),
    (lambda: delete_vertices(K4, (True,)),
     "deleted vertex must be an integer, got True"),
    # a set of the two holds only the int
    (lambda: delete_vertices(K4, (1, 1.0)),
     "deleted vertex must be an integer, got 1.0"),
], ids=["endpoint-bool", "endpoint-float", "endpoint-str", "count-float",
        "count-bool", "deleted-float", "deleted-bool", "deleted-int-float"])
def test_non_integer_graph_vertex_is_refused(call, message):
    # True and 1.0 equal 1, so a range check alone keeps True as an
    # endpoint (which emit_graph then writes out), builds a graph with
    # n == True, and deletes vertex 1 for 1.0
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_checks_run_before_the_size_guard():
    big = complete_graph(30)
    with pytest.raises(ValueError, match="^signing has 5 entries"):
        wiener_signed(big, _signs(5), max_n=4)
    with pytest.raises(ValueError, match="^vertex 30 out of range"):
        signed_distance(big, _signs(big.m), 0, 30, max_n=4)
    with pytest.raises(ValueError, match="^coloring has 5 entries"):
        is_rk_canceling_coloring(big, _colors(3)(5), 2, max_n=4)


@pytest.mark.parametrize("colors", [(1.0, 2, 3), (True, 2, 3), ("1", 2, 3)],
                         ids=["float", "bool", "str"])
def test_non_integer_colors_are_refused(colors):
    # a range check alone admits 1.0 and True, which equal 1, but the
    # step table cannot be indexed by 1.0 and a witness file carries
    # neither back
    with pytest.raises(ValueError) as exc:
        EdgeColoring(3, colors)
    assert str(exc.value) == "colors must be integers in 1..3"


@pytest.mark.parametrize("make, message", [
    (lambda: Signing((True, -1)), "signs must be integers +1 or -1"),
    (lambda: Signing((1.0, -1)), "signs must be integers +1 or -1"),
    (lambda: EdgeColoring(3.0, (1, 2, 3)), "r must be an integer, got 3.0"),
    (lambda: EdgeColoring(True, (1,)), "r must be an integer, got True"),
], ids=["bool sign", "float sign", "float r", "bool r"])
def test_non_integer_signs_and_r_are_refused(make, message):
    # True and 1.0 equal 1, so a membership test alone admits them:
    # a bool sign renders as true in kv output, and a float r fails
    # later in the step table's shifts
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("argv, message", [
    (("construct", "square-path", "x"),
     "square-path: N must be an integer, got 'x'"),
    (("construct", "complete-cyclic", "6.0"),
     "complete-cyclic: N must be an integer, got '6.0'"),
    (("construct", "square-cycle", ""),
     "square-cycle: N must be an integer, got ''"),
    (("construct", "subdivide", "theta4", "e", "1"),
     "subdivide: EDGE must be an integer, got 'e'"),
    (("construct", "subdivide", "theta4", "designated", "i"),
     "subdivide: I must be an integer, got 'i'"),
    (("construct", "union", "theta4", "theta4", "0", "v"),
     "union: V2 must be an integer, got 'v'"),
    (("construct", "bipartite-cliques", "family:complete-bipartite:3,3",
      "two"), "bipartite-cliques: K must be an integer, got 'two'"),
    # the first bad word is named, not a later one
    (("construct", "blowup", "1", "x", "y"),
     "blowup: K must be an integer, got 'x'"),
    (("construct", "blowup", "1", "1", "2", "z"),
     "blowup: SIZE must be an integer, got 'z'"),
    (("construct", "complete-rk", "8", "r", "2"),
     "complete-rk: R must be an integer, got 'r'"),
    (("wiener", "family:star:4,"), "family star: N must be an integer, got ''"),
    (("wiener", "family:cycle:x"),
     "family cycle: N must be an integer, got 'x'"),
    (("wiener", "family:complete-bipartite:2,b"),
     "family complete-bipartite: B must be an integer, got 'b'"),
    (("wiener", "family:theta:2,,3"),
     "family theta: LENGTH must be an integer, got ''"),
    (("wiener", "family:blowup:2,2,s"),
     "family blowup: SIZE must be an integer, got 's'"),
])
def test_non_integer_parameters_are_refused_by_name(capsys, argv, message):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_header_past_the_vertex_limit_is_refused(capsys, tmp_path):
    # a Graph allocates per vertex before reading an edge, so a ten-byte
    # header of 10^6 vertices cost a second and tens of MB unrefused
    assert MAX_PARSED_VERTICES == 100_000
    assert parse_any(f"{MAX_PARSED_VERTICES} 0\n").graph.n == 100_000
    message = "line 2: vertex count 100001 out of range 0..100000"
    with pytest.raises(GraphFormatError) as exc:
        parse_any("# comment\n100001 0\n")
    assert str(exc.value) == message and exc.value.line == 2
    big = tmp_path / "big.txt"
    big.write_text("1000000000 0\n")
    assert main(["wiener", str(big)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: line 1: vertex count 1000000000 "
                                 "out of range 0..100000\n")


@pytest.mark.parametrize("family, message", [
    ("complete:100000", "family complete would have 4999950000 edges"),
    ("complete:448", "family complete would have 100128 edges"),
    ("complete-bipartite:1000,1000",
     "family complete-bipartite would have 1000000 edges"),
    ("blowup:300,300,300", "family blowup would have 270000 edges"),
    ("path:100001", "family path would have 100001 vertices"),
    ("theta:50000,50001", "family theta would have 100001 vertices"),
])
def test_family_past_its_limits_is_refused(capsys, monkeypatch, family,
                                           message):
    # family:complete:800 alone took ~0.5 s and 152 MB unrefused
    def built(self, n, edges):
        raise AssertionError("a refused family built its graph")

    assert MAX_FAMILY_EDGES == 100_000
    monkeypatch.setattr(Graph, "__init__", built)
    assert main(["filter", f"family:{family}"]) == 2
    out, err = capsys.readouterr()
    limit = MAX_FAMILY_EDGES if "edges" in message else MAX_PARSED_VERTICES
    assert out == "" and err == (f"error: {message}, more than the "
                                 f"{limit} a family may have\n")


def test_family_at_its_limits_is_built():
    assert make_family("complete", ["447"]).m == 99_681
    assert make_family("cycle", ["100000"]).m == MAX_FAMILY_EDGES
    # a parameter below 1, or too few parts, keeps its builder's own
    # refusal
    for family, params, message in (
            ("complete", ["-100000"], "n must be >= 1, got -100000"),
            ("blowup", ["200000", "200000"],
             "blowup base cycle needs >= 3 parts"),
            ("theta", ["200000"], "theta graph needs >= 2 paths")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_family(family, params)


@pytest.mark.parametrize("argv, message", [
    (("--k", "1"), "zero-path search needs 100000 vertices, guard allows "
     "24; pass a larger --max-n to override"),
    # r = 3, k = 1 has no probe, so its first guard is the sweep's
    (("--r", "3", "--k", "1"), "threshold scan at n=100000 needs "
     "7924733256 candidate bits, guard allows 22; pass a larger "
     "--max-edges to override"),
])
def test_threshold_refuses_an_oversized_row_before_building_k_n(
        capsys, monkeypatch, argv, message):
    # at n = 2000 the refusal came after 4 s and 823 MB spent on K_n
    def built(n):
        raise AssertionError(f"a refused row built K_{n}")

    monkeypatch.setattr(search, "complete_graph", built)
    start = time.perf_counter()
    assert main(["threshold", *argv, "--n-from", "100000",
                 "--n-to", "100000"]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("pair", ["0,9", "2,0", "1,1"])
def test_exceptional_pair_outside_the_graph_is_refused(pair):
    # 0,9 names a vertex P_3 lacks; failing pairs are listed with
    # u < v, so 2,0 and 1,1 could never match
    text = ("3 2\n0 1 +\n1 2 -\n"
            f"# claim: w-zero expected=false exceptional-pair={pair}\n")
    with pytest.raises(ValueError) as exc:
        parse_witness(text)
    assert str(exc.value) == (f"exceptional pair {pair} needs "
                              "0 <= u < v < 3")


SIGNED_P4 = Signing(_signs(P4.m))
K33 = complete_bipartite_graph(3, 3)

# (name, the call given the value, the word naming it, low, high): every
# single integer parameter of the public API, each refused through
# graphs.require_int; low None checks the type alone
INTEGER_PARAMS = [
    ("Graph", lambda v: Graph(v, []), "vertex count", 0, None),
    ("delete_vertices", lambda v: delete_vertices(K4, (v,)),
     "deleted vertex", 0, 3),
    ("is_k_connected", lambda v: is_k_connected(K4, v), "k", 1, None),
    ("union_at_vertex-w1", lambda v: union_at_vertex(K4, P4, v, 0),
     "w1", 0, 3),
    ("union_at_vertex-w2", lambda v: union_at_vertex(K4, P4, 0, v),
     "w2", 0, 3),
    ("path_graph", path_graph, "n", 1, None),
    ("cycle_graph", cycle_graph, "n", 3, None),
    ("star_graph", star_graph, "n", 1, None),
    ("complete_graph", complete_graph, "n", 1, None),
    ("complete_bipartite_graph-a",
     lambda v: complete_bipartite_graph(v, 1), "a", 1, None),
    ("complete_bipartite_graph-b",
     lambda v: complete_bipartite_graph(1, v), "b", 1, None),
    ("blowup_cycle_graph", lambda v: blowup_cycle_graph((1, v, 1)),
     "part size", 1, None),
    ("theta_graph", lambda v: theta_graph((2, v)), "path length", 1, None),
    ("EdgeColoring", lambda v: EdgeColoring(v, ()), "r", 1, None),
    ("check_fit", lambda v: check_fit(K4, Signing(_signs(K4.m)), v),
     "vertex", 0, 3),
    ("is_k_canceling_signing",
     lambda v: is_k_canceling_signing(K4, _signs(K4.m), v), "k", 1, None),
    ("is_rk_canceling_coloring",
     lambda v: is_rk_canceling_coloring(K4, _colors(3)(K4.m), v),
     "k", 1, None),
    ("necessary_conditions", lambda v: necessary_conditions(K4, v),
     "k", 1, None),
    ("find_k_canceling_signing",
     lambda v: search.find_k_canceling_signing(K4, v), "k", 1, None),
    ("find_k_canceling_signing-max_bits",
     lambda v: search.find_k_canceling_signing(K4, 1, max_bits=v),
     "max_bits", 0, None),
    ("find_k_canceling_signing-max_n",
     lambda v: search.find_k_canceling_signing(K4, 1, max_n=v),
     "max_n", 0, None),
    ("threshold_scan-r", lambda v: search.threshold_scan(v, 1, [3]),
     "r", 2, None),
    ("threshold_scan-k", lambda v: search.threshold_scan(2, v, [5]),
     "k", 1, None),
    ("threshold_scan-n", lambda v: search.threshold_scan(2, 2, [4, v]),
     "n", 3, None),
    ("threshold_scan-workers",
     lambda v: search.threshold_scan(2, 1, [2, 3], workers=v),
     "workers", 1, None),
    ("n2k_bounds", search.n2k_bounds, "k", 5, None),
    ("enumerate_trees", search.enumerate_trees, "n", 1, search.TREE_MAX_N),
    ("enumerate_trees-workers",
     lambda v: search.enumerate_trees(3, workers=v), "workers", 1, None),
    ("verify_tree_sandwich", search.verify_tree_sandwich, "n", 1,
     search.TREE_MAX_N),
    ("verify_double_star", search.verify_double_star, "n", 2,
     search.TREE_MAX_N),
    ("double_star-a", lambda v: search.double_star(v, 1), "a", 0, None),
    ("double_star-b", lambda v: search.double_star(1, v), "b", 0, None),
    ("dyck_records", search.dyck_records, "n", 1, search.DYCK_MAX_N),
    ("connected_graphs", search.connected_graphs, "n", 1,
     search.CONNECTED_ENUM_MAX_N),
    ("theta_length_tuples-max_paths",
     lambda v: search.theta_length_tuples(v, 4), "max_paths", 2, None),
    ("theta_length_tuples-max_edges",
     lambda v: search.theta_length_tuples(2, v), "max_edges", None, None),
    ("Claim-k", lambda v: Claim("k-canceling", k=v), "k", 1, None),
    ("Claim-rk-k", lambda v: Claim("rk-canceling", k=v, r=3), "k", 1, None),
    ("Claim-rk-r", lambda v: Claim("rk-canceling", k=1, r=v), "r", 2, None),
    ("SignedWitness-designated_edge",
     lambda v: SignedWitness("w", P4, Claim("w-zero"), signing=SIGNED_P4,
                             designated_edge=v),
     "designated edge", 0, 2),
    ("SignedWitness-exceptional_pair",
     lambda v: SignedWitness("w", P4, Claim(
         "w-zero", expected=False, exceptional_pair=(v, 3)),
         signing=SIGNED_P4),
     "exceptional pair vertex", None, None),
    ("square_path_signing", square_path_signing, "n", 2, None),
    ("complete_cyclic_signing", complete_cyclic_signing, "n", 3, None),
    ("square_cycle_signing", square_cycle_signing, "n", 5, None),
    ("subdivision_extend-e",
     lambda v: subdivision_extend(special_witness("theta4"), v, 1),
     "e", 0, THETA4.m - 1),
    ("subdivision_extend-i",
     lambda v: subdivision_extend(special_witness("theta4"), 3, v),
     "i", 0, None),
    ("bipartite_clique_signing",
     lambda v: bipartite_clique_signing(K33, v), "k", 1, None),
    ("blowup_cycle_signing-t",
     lambda v: blowup_cycle_signing(v, (2, 2, 2), 1), "t", 1, None),
    ("blowup_cycle_signing-k",
     lambda v: blowup_cycle_signing(1, (2, 2, 2), v), "k", 1, None),
    ("complete_rk_coloring-n", lambda v: complete_rk_coloring(v, 3, 2),
     "n", None, None),
    ("complete_rk_coloring-r", lambda v: complete_rk_coloring(8, v, 2),
     "r", 3, None),
    ("complete_rk_coloring-k", lambda v: complete_rk_coloring(8, 3, v),
     "k", 2, None),
]


def _bad_values(word, low, high):
    """(value, message) pairs: a float and a bool, both equal to an
    accepted int, and each int just past a bound."""
    accepted = 1 if low is None else max(low, 1)
    for value in (float(accepted), True):
        yield value, f"{word} must be an integer, got {value!r}"
    if high is not None:
        for value in (low - 1, high + 1):
            yield value, f"{word} {value} out of range {low}..{high}"
    elif low is not None:
        yield low - 1, f"{word} must be >= {low}, got {low - 1}"


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, message, id=f"{name}-{value!r}")
    for name, call, word, low, high in INTEGER_PARAMS
    for value, message in _bad_values(word, low, high)])
def test_integer_parameter_is_refused_by_one_rule(call, value, message):
    # a float or bool equal to an accepted int passed a range check
    # alone, or failed deep inside with a TypeError
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == message


# spellings int() reads but parse_int refuses: an underscore, a plus
# sign, Arabic-Indic and fullwidth digits, a float, a space, nothing
SPELLINGS = ["1_0", "+5", "٣", "５", "5.0", " 5", ""]
# a whitespace-separated field of a graph file or claim comment is
# never empty and holds no space, so there " 5" and "" are no field
FIELD_SPELLINGS = SPELLINGS[:5]
THETA4_TEXT = emit_witness(special_witness("theta4"))
# each text entry: the file it reads, {} standing for the spelling
TEXT_ENTRIES = {
    "header-vertex-count": "{} 0\n",
    "header-edge-count": "3 {}\n",
    "endpoint": "3 1\n0 {}\n",
    "color": "3 2\n0 1 1\n1 2 {}\n",
    "claim-r": THETA4_TEXT.replace("claim: w-zero",
                                   "claim: rk-canceling r={} k=2"),
    "claim-k": THETA4_TEXT.replace("claim: w-zero",
                                   "claim: k-canceling k={}"),
    "exceptional-pair": THETA4_TEXT.replace(
        "claim: w-zero", "claim: w-zero expected=false exceptional-pair=0,{}"),
    "designated-edge": THETA4_TEXT + "# designated-edge: {}\n",
}
# each command line entry, {} standing for the spelling
ARGV_ENTRIES = {
    "family": ["wiener", "family:complete-bipartite:3,{}"],
    "construct-N": ["construct", "square-path", "{}"],
    "construct-EDGE": ["construct", "subdivide", "theta4", "{}", "1"],
    "construct-SIZE": ["construct", "blowup", "1", "1", "2", "2", "{}"],
}
# a command line each command accepts, its positionals first
VALID_ARGV = {
    "dist": ["fixture:theta4", "0", "1"],
    "wiener": ["fixture:theta4"],
    "check": ["fixture:theta4", "--k", "1"],
    "check-colored": ["fixture:theta4", "--r", "2", "--k", "1"],
    "filter": ["fixture:theta4"],
    "search": ["family:path:3", "--k", "1"],
    "min-wiener": ["family:path:3"],
    "threshold": ["--k", "1", "--n-from", "3", "--n-to", "3"],
    "trees": ["--conjecture", "sandwich", "--n", "3"],
    "dyck": ["--n", "2"],
    "soltes": ["fixture:theta4"],
}


def _integer_arguments():
    """(command, argv with {} for the argument's value) for each
    integer flag and positional of the command line."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        positionals = [a for a in parser._actions if not a.option_strings]
        for action in parser._actions:
            if getattr(action.type, "__qualname__", "").startswith(
                    "_integer."):
                argv = list(VALID_ARGV[name])
                if action.option_strings:
                    argv += [action.option_strings[0], "{}"]
                else:
                    argv[positionals.index(action)] = "{}"
                yield f"{name}-{action.dest}", [name, *argv]


def _refused_spellings():
    for entry, text in TEXT_ENTRIES.items():
        for spelling in FIELD_SPELLINGS:
            yield entry, text.format(spelling), None, spelling
    for entry, argv in [*ARGV_ENTRIES.items(), *_integer_arguments()]:
        for spelling in SPELLINGS:
            yield entry, None, argv, spelling


@pytest.mark.parametrize("text, argv, spelling", [
    pytest.param(text, argv, spelling, id=f"{entry}-{spelling!r}")
    for entry, text, argv, spelling in _refused_spellings()])
def test_every_text_integer_refuses_the_same_spellings(
        capsys, tmp_path, text, argv, spelling):
    # each entry read its integers by its own parser: int() took all
    # but the last two, str.isdecimal() the digits, and none named the
    # spelling the same way
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text)
        argv = ["construct", "union", str(path), "theta4", "0", "0"]
    try:
        code = main([word.format(spelling) for word in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error: " in line]
    assert code == 2 and out == "" and len(errors) == 1
    assert errors[0] == err.splitlines()[-1]
    assert errors[0].endswith(f"an integer, got {spelling!r}")

