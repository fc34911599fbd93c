"""Answer checks for the benchmark jobs.

Every check runs outside the timed region and compares a job's answer
with a reference that does not come from the code path being timed:

* networkx BFS distances for constant signings, where the signed
  distance equals the BFS distance;
* the brute-force oracle ``tests/naive.py`` on graphs small enough to
  enumerate;
* the paper's verdicts and exact candidate counts for its fixed rows;
* a re-walk of every returned path or signing: simple, inside G, with
  the sums the answer claims.

Where no independent reference is affordable (one-edge perturbations
of large constructions), the reference is the frozen table in
``perturbations.json``, written by ``freeze.py`` and cross-checked
against the oracle on its small entries.  The references are module
attributes so the self-test can corrupt one and see it reported.
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache
from itertools import product
from pathlib import Path

from signedwiener.reports import parse_kv

HERE = Path(__file__).resolve().parent

# first n at which K_n is k-canceling (paper; acceptance criterion 09)
PAPER_FIRST_K_CANCELING = {1: 4, 2: 5, 3: 7}
# K_6 is (3,2)-canceling (paper, criterion 08); K_5 is not
PAPER_FIRST_RK_CANCELING = {(3, 2): 6}
# connected graphs on n vertices, OEIS A001349
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

# naive enumeration budget: 2^(m-1) signings times the oracle
NAIVE_MAX_SIGNINGS = 2048
NAIVE_MAX_N = 7


class CheckFailure(AssertionError):
    """A job's answer disagrees with its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


@lru_cache(maxsize=None)
def naive():
    root = HERE.parent / "tests"
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    import naive as oracle
    return oracle


@lru_cache(maxsize=None)
def perturbation_table() -> dict:
    return json.loads((HERE / "perturbations.json").read_text())["entries"]


def nx_graph(n: int, edges):
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


def reference_wiener(n: int, edges) -> int:
    import networkx as nx
    return int(nx.wiener_index(nx_graph(n, edges)))


def reference_bfs(n: int, edges, u: int, v: int) -> int:
    import networkx as nx
    return nx.shortest_path_length(nx_graph(n, edges), u, v)


def rewalk(edges, tags, path, u: int, v: int) -> list[int]:
    """Tags of the path's edges, after checking that it is a simple
    u..v path of the graph with this edge list."""
    index = {e: i for i, e in enumerate(edges)}
    expect(len(path) >= 1 and path[0] == u and path[-1] == v,
           f"path {path} does not run from {u} to {v}")
    expect(len(set(path)) == len(path), f"path {path} is not simple")
    out = []
    for a, b in zip(path, path[1:]):
        e = (a, b) if a < b else (b, a)
        expect(e in index, f"path step {e} is not an edge")
        out.append(tags[index[e]])
    return out


def odd_cycle(n: int, edges) -> bool:
    color = [-1] * n
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for s in range(n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return True
    return False


def fails_paper_conditions(n: int, edges, k: int) -> bool:
    """The paper's necessary conditions for a k-canceling signing,
    computed with networkx: k-connected, an odd cycle, minimum degree
    k+1, and at least n + k(k-1)/2 + 2k edges.  True when one fails,
    which proves that no k-canceling signing exists."""
    import networkx as nx
    h = nx_graph(n, edges)
    degrees = [d for _, d in h.degree()]
    return not (nx.is_connected(h) and nx.node_connectivity(h) >= k
                and odd_cycle(n, edges) and min(degrees) >= k + 1
                and len(edges) >= n + k * (k - 1) // 2 + 2 * k)


def half_space_index(signs) -> int:
    """1-based position of a signing in the search's candidate order:
    first sign +1, the rest lexicographic with +1 before -1."""
    expect(signs[0] == 1, "search witness does not fix the first edge +1")
    index = 0
    for s in signs[1:]:
        index = 2 * index + (0 if s == 1 else 1)
    return index + 1


def stirling2(m: int, r: int) -> int:
    """Surjective colorings of m edges with r colors, up to color
    permutation."""
    return sum((-1) ** j * math.comb(r, j) * (r - j) ** m
               for j in range(r + 1)) // math.factorial(r)


# ---------------------------------------------------------------------------
# distance-sweep


def check_distance_job(kind: str, n: int, edges, signs, u, v, answer,
                       pair_witness) -> None:
    """answer = (W, d, path).  pair_witness(a, b) -> (d, path) is the
    library's witness for another pair, used only for dense graphs."""
    wiener, d, path = answer
    walked = rewalk(edges, signs, path, u, v)
    expect(abs(sum(walked)) == d,
           f"witness path sums to {sum(walked)}, reported distance {d}")
    if kind == "constant":
        expect(wiener == reference_wiener(n, edges),
               f"W={wiener} differs from the BFS Wiener index")
        expect(d == reference_bfs(n, edges, u, v),
               f"d({u},{v})={d} differs from the BFS distance")
    elif kind == "bipartite":
        oracle = naive()
        expect(wiener == oracle.wiener_signed(n, edges, signs),
               f"W={wiener} differs from the naive oracle")
        expect(d == oracle.signed_distance(n, edges, signs, u, v),
               f"d({u},{v})={d} differs from the naive oracle")
    else:
        # dense: every pair's witness path bounds its distance from
        # above; when the index is 0 the re-walked paths prove it
        total = 0
        for a in range(n):
            for b in range(a + 1, n):
                da, pa = pair_witness(a, b)
                expect(abs(sum(rewalk(edges, signs, pa, a, b))) == da,
                       f"witness for ({a},{b}) does not attain {da}")
                total += da
        expect(total == wiener,
               f"W={wiener} differs from the witnessed pair sum {total}")


# ---------------------------------------------------------------------------
# certify


def check_certify_job(base_expected: bool, perturbed_key: str | None,
                      source, answer) -> None:
    """answer = (round-tripped (edges, tags, claim), kv text).

    source is the witness before emit/parse; base_expected is the
    paper's verdict for a named construction."""
    roundtrip, kv = answer
    tags = (source.signing.signs if source.signing is not None
            else source.coloring.colors)
    expect(roundtrip == (source.graph.edges, tags, source.claim),
           "emit_witness/parse_witness did not round-trip the witness")
    tree = parse_kv(kv)
    observed, cert = tree["observed"], tree["certificate"]
    if perturbed_key is None:
        expect(tree["ok"] is True and observed is base_expected,
               f"{source.name}: observed {observed}, paper says "
               f"{base_expected}")
        return
    frozen = perturbation_table()[perturbed_key]
    expect([observed, cert] == frozen,
           f"{perturbed_key}: got {observed} {cert}, frozen {frozen}")
    if source.graph.n <= NAIVE_MAX_N:
        expect(observed == naive_verdict(source),
               f"{perturbed_key}: naive oracle disagrees")


def naive_verdict(w) -> bool:
    oracle = naive()
    g, c = w.graph, w.claim
    if c.kind == "w-zero":
        return oracle.wiener_signed(g.n, g.edges, w.signing.signs) == 0
    if c.kind == "k-canceling":
        return oracle.is_k_canceling(g.n, g.edges, w.signing.signs, c.k)
    return oracle.is_rk_canceling(g.n, g.edges, w.coloring.colors,
                                  w.coloring.r, c.k)


# ---------------------------------------------------------------------------
# exhaustive-search


def check_threshold_row(r: int, k: int, n: int, answer) -> None:
    """answer = (n, holds, examined, witness tags or None)."""
    row_n, holds, examined, tags = answer
    expect(row_n == n, f"row for n={row_n}, asked n={n}")
    if r == 2:
        paper = n >= PAPER_FIRST_K_CANCELING[k]
        full = 1 + 2 ** (math.comb(n, 2) - 1)
    else:
        paper = n >= PAPER_FIRST_RK_CANCELING[(r, k)]
        full = stirling2(math.comb(n, 2), r)
    expect(holds == paper, f"({r},{k}) row n={n}: holds={holds}, "
           f"paper says {paper}")
    if not holds:
        expect(examined == full and tags is None,
               f"negative row n={n} examined {examined}, full sweep is "
               f"{full}")
        return
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    oracle = naive()
    if r == 2:
        ok = oracle.is_k_canceling(n, edges, tags, k)
    else:
        ok = oracle.is_rk_canceling(n, edges, tags, r, k)
    expect(ok, f"({r},{k}) row n={n}: witness fails the naive oracle")


def check_connected(n: int, answer) -> None:
    """answer = tuple of edge tuples, one per graph."""
    import networkx as nx
    expect(len(answer) == CONNECTED_COUNTS[n],
           f"{len(answer)} connected graphs on {n} vertices, expected "
           f"{CONNECTED_COUNTS[n]}")
    buckets: dict[str, list] = {}
    for edges in answer:
        h = nx_graph(n, edges)
        expect(nx.is_connected(h), f"graph {edges} is not connected")
        key = tuple(sorted(d for _, d in h.degree()))
        for other in buckets.get(key, []):
            expect(not nx.is_isomorphic(h, other),
                   f"graph {edges} is listed twice up to isomorphism")
        buckets.setdefault(key, []).append(h)


def check_search(n: int, edges, k: int, answer) -> None:
    """answer = (found, examined, witness signs or None) of
    find_k_canceling_signing(G, k, use_filter=False)."""
    found, examined, signs = answer
    space = 2 ** max(len(edges) - 1, 0)
    oracle = naive()
    if found:
        expect(examined == half_space_index(signs) and examined <= space,
               f"examined {examined} is not the witness's position")
        expect(oracle.is_k_canceling(n, edges, signs, k),
               "search witness fails the naive oracle")
        return
    expect(examined == space and signs is None,
           f"negative search examined {examined} of {space}")
    if fails_paper_conditions(n, edges, k):
        return
    expect(space <= NAIVE_MAX_SIGNINGS,
           f"negative search on {edges} has no affordable reference")
    for rest in product((1, -1), repeat=len(edges) - 1):
        expect(not oracle.is_k_canceling(n, edges, (1,) + rest, k),
               f"naive oracle finds a {k}-canceling signing of {edges}")
