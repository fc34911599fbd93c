"""Decision procedures for canceling structures.

Verifies k-canceling signings and (r,k)-canceling colorings, builds
the path table that threshold sweeps decide their candidates by,
applies the structural necessary-condition filter, and runs
Wiener-invariance-under-vertex-deletion checks.  The filter also
settles the small thetas: t internally disjoint paths on n vertices
have n + t - 2 edges, below the n + 2 that k = 1 asks for when t <= 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .distances import (
    EdgeColoring,
    Signing,
    as_signing,
    canceling_reach_row,
    check_fit,
    wiener_classical,
    wiener_signed,
)
from .graphs import (
    Graph,
    _deletion_size,
    complete_graph,
    component_sides,
    delete_vertices,
    is_k_connected,
    require_int,
)


@dataclass(frozen=True)
class CancelingVerdict:
    """Outcome of a canceling check.

    On failure, certificate is the lex-first failing (deleted set, u, v)
    among the deletion sets of the one size checked, in host-graph
    vertex ids.
    """

    holds: bool
    certificate: tuple[tuple[int, ...], int, int] | None = None


def _deletion_verdict(g: Graph, coloring: EdgeColoring, size: int, *,
                      max_n) -> CancelingVerdict:
    """Whether every pair has a canceling path after deleting any set
    of exactly `size` vertices.  Deletion sets enumerate in lex order,
    so a failure certifies the first pair found.  A reversed path keeps
    its color counts, so row u is swept only for the targets v > u and
    the last vertex gets no row.  Size 0 deletes nothing, so its rows
    run on g and the coloring as given."""
    check_fit(g, coloring)
    for dead in combinations(range(g.n), size):
        if dead:
            sub = delete_vertices(g, dead)
            host = sub.graph
            restricted = EdgeColoring(
                coloring.r, tuple(coloring.colors[j] for j in sub.edge_refs))
            back = list(sub.vertex_map)
        else:
            host, restricted, back = g, coloring, range(g.n)
        for u in range(host.n - 1):
            row = canceling_reach_row(host, restricted, u, max_n=max_n,
                                      targets=range(u + 1, host.n))
            for v in range(u + 1, host.n):
                if not row[v]:
                    return CancelingVerdict(False, (dead, back[u], back[v]))
    return CancelingVerdict(True)


def _path_table(n: int, r: int, k: int) -> list[tuple]:
    """The canceling question of every r-coloring of K_n at k as one
    table, built once for a sweep over many colorings.

    Per deletion set D of size s = min(k-1, n-2) in lex order and per
    pair u < v of K_n - D in lex order, one entry lists the simple
    uv-paths of K_n - D whose length L is divisible by r, shortest
    first, each as (edge bitmask, L // r).  Every bitmask a sweep
    checks against the table uses one layout: edge e of
    complete_graph(n) sits at bit m - 1 - e, m = C(n, 2).  So the i-th
    signing of search._half_space_signings has minus mask i.  The
    caller runs the verdicts' size guard on the n - s vertices the
    paths run on, before it builds the table.
    """
    size = _deletion_size(n, k)
    kn = complete_graph(n)
    table = []
    for dead in combinations(range(n), size):
        alive = [v for v in range(n) if v not in dead]
        for u, v in combinations(alive, 2):
            inner = [w for w in alive if w != u and w != v]
            paths = []
            for length in range(r, len(alive), r):
                for mid in permutations(inner, length - 1):
                    walk = (u, *mid, v)
                    mask = 0
                    for a, b in zip(walk, walk[1:]):
                        mask |= 1 << (kn.m - 1 - kn.edge_index(a, b))
                    paths.append((mask, length // r))
            table.append(tuple(paths))
    return table


def _table_holds(table: list[tuple], masks: tuple[int, ...]) -> bool:
    """Whether the coloring whose colors 2..r cover the edge bitmasks
    masks is canceling by _path_table's table: every entry needs a path
    meeting each of those colors exactly L // r times (color 1 then
    takes the rest, so any r - 1 colors would do).  Same answer as the
    verdicts, whose lemma the table's deletion size follows."""
    for paths in table:
        for mask, share in paths:
            for color in masks:
                if (mask & color).bit_count() != share:
                    break
            else:
                break
        else:
            return False
    return True


def is_k_canceling_signing(g: Graph, signing, k: int, *,
                           max_n: int | None = None) -> CancelingVerdict:
    """Decide whether a signing is k-canceling.

    Checks only the deletion sets of size k-1, which is min(k-1, n-2)
    here since n >= k+1; see is_rk_canceling_coloring.
    """
    require_int("k", k, 1)
    if g.n <= k:
        raise ValueError(
            f"k-canceling check needs n >= k+1 (n={g.n}, k={k})")
    return _deletion_verdict(g, as_signing(signing).as_coloring(),
                             _deletion_size(g.n, k), max_n=max_n)


def is_rk_canceling_coloring(g: Graph, coloring, k: int, *,
                             max_n: int | None = None) -> CancelingVerdict:
    """Decide whether a coloring is (r,k)-canceling.

    Checks only the deletion sets of size s = min(k-1, n-2): by the
    deletion lemma stated at graphs.is_k_connected, every pair keeps a
    canceling path after every deletion of fewer than k vertices iff
    it does after every deletion of exactly s.  No step uses r.  With
    n < 2 there are no pairs, so the coloring holds.
    """
    require_int("k", k, 1)
    if isinstance(coloring, Signing):
        coloring = coloring.as_coloring()
    elif not isinstance(coloring, EdgeColoring):
        raise TypeError("expected an EdgeColoring or Signing")
    return _deletion_verdict(g, coloring, _deletion_size(g.n, k),
                             max_n=max_n)


@dataclass(frozen=True)
class NecessaryReport:
    """Structural conditions every k-canceling graph must satisfy.

    Passing is necessary, never sufficient.  The k=1 case asks for a
    connected graph with an odd cycle, minimum degree 2, and at least
    n+2 edges; general k raises these to k-connected, degree k+1, and
    n + k(k-1)/2 + 2k edges.  The last three fields are the verdicts
    that necessary_conditions derives from the others.
    """

    k: int
    k_connected: bool
    has_odd_cycle: bool
    min_degree: int
    required_min_degree: int
    edge_count: int
    required_edges: int
    min_degree_ok: bool
    edge_count_ok: bool
    passes: bool

    def failures(self) -> list[str]:
        out = []
        if not self.k_connected:
            out.append("not connected" if self.k == 1
                       else f"not {self.k}-connected")
        if not self.has_odd_cycle:
            out.append("no odd cycle")
        if not self.min_degree_ok:
            out.append(f"minimum degree {self.min_degree} < "
                       f"{self.required_min_degree}")
        if not self.edge_count_ok:
            out.append(f"edge count {self.edge_count} < "
                       f"{self.required_edges}")
        return out


def necessary_conditions(g: Graph, k: int = 1) -> NecessaryReport:
    require_int("k", k, 1)
    if g.n < max(2, k + 1):
        raise ValueError(
            f"necessary-condition filter needs n >= {max(2, k + 1)}")
    k_connected = is_k_connected(g, k)
    has_odd_cycle = bool(component_sides(g)[2])
    min_degree = min(map(g.degree, range(g.n)))
    required_edges = g.n + k * (k - 1) // 2 + 2 * k
    min_degree_ok = min_degree >= k + 1
    edge_count_ok = g.m >= required_edges
    return NecessaryReport(
        k=k, k_connected=k_connected, has_odd_cycle=has_odd_cycle,
        min_degree=min_degree, required_min_degree=k + 1,
        edge_count=g.m, required_edges=required_edges,
        min_degree_ok=min_degree_ok, edge_count_ok=edge_count_ok,
        passes=(k_connected and has_odd_cycle and min_degree_ok
                and edge_count_ok))


@dataclass(frozen=True)
class SoltesReport:
    """Wiener value of the graph and of every one-vertex deletion."""

    holds: bool
    base: object
    deleted: tuple


def _soltes_report(g: Graph, value) -> SoltesReport:
    """value(h, refs) of g, with refs None, against that of each
    one-vertex deletion g - v, with refs its edge_refs into g.
    Infinite on both sides counts as equal."""
    if g.n < 2:
        raise ValueError("deletion check needs n >= 2")
    base = value(g, None)
    deleted = tuple(value(sub.graph, sub.edge_refs) for sub in
                    (delete_vertices(g, {v}) for v in range(g.n)))
    return SoltesReport(all(d == base for d in deleted), base, deleted)


def soltes_check_classical(g: Graph) -> SoltesReport:
    """Whether classical Wiener is invariant under every single-vertex
    deletion."""
    return _soltes_report(g, lambda h, refs: wiener_classical(h))


def soltes_check_signed(g: Graph, signing, *,
                        max_n: int | None = None) -> SoltesReport:
    """Signed-Wiener variant of the single-vertex-deletion check, with
    the signing restricted to each surviving edge set.  g's own value
    takes the signing as given, so its checks run on g first."""
    def value(h, refs):
        if refs is None:
            return wiener_signed(h, signing, max_n=max_n)
        signs = as_signing(signing).signs
        return wiener_signed(h, tuple(signs[j] for j in refs), max_n=max_n)

    return _soltes_report(g, value)
