"""Graph representation, parsing, serialization, families, and structure.

Vertices are 0-based contiguous indices.  Edge order is significant
everywhere: signings and colorings address edges by their position in
``Graph.edges``, so every constructor documents its edge order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations


# the largest vertex count parse_any accepts in a header: Graph keeps a
# neighbour list per vertex, so a header's count costs memory before
# any edge is read, and every path query guards far lower (n <= 24)
MAX_PARSED_VERTICES = 100_000
# the largest edge count make_family builds: a cycle on that many
# vertices fits, while a dense family past it would spend seconds and
# hundreds of MB on its edge list before any query's guard could refuse
MAX_FAMILY_EDGES = 100_000


class GraphFormatError(ValueError):
    """Malformed graph text.  Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EdgeError(ValueError):
    """Graph's refusal of one input edge.  Carries that edge's 0-based
    position in the edge input, so a parser can name its line."""

    def __init__(self, message: str, edge: int):
        self.edge = edge
        super().__init__(message)


class Graph:
    """Simple undirected graph with an indexed edge list.

    Edges are stored as (min, max) pairs in their construction order.
    Instances are immutable and hashable; equality compares the vertex
    count and the ordered edge list.  The hash is computed on first use
    and kept, so the setups that the path engine caches by graph look
    it up in O(1).
    """

    __slots__ = ("n", "edges", "_index", "_nbrs", "_hash")

    def __init__(self, n: int, edges) -> None:
        if type(n) is not int or n < 0:
            require_int("vertex count", n, 0)
        norm: list[tuple[int, int]] = []
        index: dict[tuple[int, int], int] = {}
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (type(u) is int and type(v) is int
                    and 0 <= u < n and 0 <= v < n):
                require_int("vertex", u)
                require_int("vertex", v)
                raise EdgeError(f"edge ({u},{v}) out of range for n={n}",
                                len(norm))
            if u == v:
                raise EdgeError(f"self-loop at vertex {u}", len(norm))
            e = (u, v) if u < v else (v, u)
            if e in index:
                raise EdgeError(f"duplicate edge ({e[0]},{e[1]})", len(norm))
            index[e] = len(norm)
            norm.append(e)
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.n = n
        self.edges = tuple(norm)
        self._index = index
        self._nbrs = tuple(tuple(a) for a in nbrs)
        self._hash = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._index

    def edge_index(self, u: int, v: int) -> int:
        """Index of edge uv in the edge list; KeyError if absent."""
        return self._index[(u, v) if u < v else (v, u)]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._nbrs[v]

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class DeletedGraph:
    """Induced subgraph G-S with index maps back to the host graph.

    vertex_map sends surviving old indices to new ones, in increasing
    order, so ``list(vertex_map)[i]`` is the old index of new vertex i;
    edge_refs[i] is the old edge index of new edge i, so a signing
    restricts by ``[signs[j] for j in edge_refs]``.
    """

    graph: Graph
    vertex_map: dict[int, int]
    edge_refs: tuple[int, ...]


def delete_vertices(g: Graph, s) -> DeletedGraph:
    """Induced subgraph on V minus s, preserving surviving edge order."""
    dead = set()
    for v in s:
        if type(v) is not int or not 0 <= v < g.n:
            require_int("deleted vertex", v, 0, g.n - 1)
        dead.add(v)
    keep = [v for v in range(g.n) if v not in dead]
    vmap = {v: i for i, v in enumerate(keep)}
    edges = []
    refs = []
    for i, (u, v) in enumerate(g.edges):
        if u in vmap and v in vmap:
            edges.append((vmap[u], vmap[v]))
            refs.append(i)
    return DeletedGraph(Graph(len(keep), edges), vmap, tuple(refs))


def bfs_distances(g: Graph, source: int) -> list[int | float]:
    """Unsigned distances from source; math.inf for unreachable vertices."""
    dist: list[int | float] = [math.inf] * g.n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if dist[w] is math.inf:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def component_sides(g: Graph) -> tuple[list[int], list[int], set[int]]:
    """Per vertex, the least vertex of its component (its root) and its
    side, the parity of its BFS layer from that root; and the roots of
    the components with an odd cycle, those with an edge inside one
    side.  One bfs_distances sweep per component."""
    root = [-1] * g.n
    side = [0] * g.n
    for s in range(g.n):
        if root[s] == -1:
            for v, hops in enumerate(bfs_distances(g, s)):
                if hops is not math.inf:
                    root[v] = s
                    side[v] = hops % 2
    return root, side, {root[a] for a, b in g.edges if side[a] == side[b]}


def is_connected(g: Graph) -> bool:
    """True iff g has at most one component: every root is vertex 0."""
    return not any(component_sides(g)[0])


def _deletion_size(n: int, k: int) -> int:
    """s = min(k-1, n-2), the one deletion size checked (0 when
    n < 2); see is_k_connected."""
    return max(min(k - 1, n - 2), 0)


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff every deletion of fewer than k vertices leaves a
    connected graph on at least one vertex; never when n < k, as
    deleting every vertex leaves no graph.

    The deletion lemma: with s = min(k-1, n-2), every pair keeps a
    path after every deletion of fewer than k vertices iff it does
    after every deletion of exactly s, since a smaller set D avoiding
    u and v extends to a set D' of size s still avoiding them, and a
    path in G-D' is a path in G-D.  So only size-s sets are checked."""
    require_int("k", k, 1)
    if g.n < k:
        return False
    return all(is_connected(delete_vertices(g, dead).graph)
               for dead in combinations(range(g.n), _deletion_size(g.n, k)))


def union_at_vertex(g1: Graph, g2: Graph, w1: int, w2: int) -> Graph:
    """Disjoint union with w1 and w2 identified.

    g1 keeps its vertex indices; g2's vertices map to w2 -> w1 and the
    rest, in order, to n1, n1+1, ...  The edge list is g1's edges
    followed by g2's, so signings concatenate positionally.
    """
    require_int("w1", w1, 0, g1.n - 1)
    require_int("w2", w2, 0, g2.n - 1)
    vmap = {}
    nxt = g1.n
    for v in range(g2.n):
        if v == w2:
            vmap[v] = w1
        else:
            vmap[v] = nxt
            nxt += 1
    edges = list(g1.edges)
    edges += [(vmap[u], vmap[v]) for u, v in g2.edges]
    return Graph(g1.n + g2.n - 1, edges)


def square(g: Graph) -> Graph:
    """Graph on the same vertices joining pairs at distance 1 or 2:
    each vertex to its neighbours and theirs.

    Edges come out in lexicographic vertex order, the convention every
    square-based signing in this package assumes.
    """
    edges = []
    for u in range(g.n):
        near = set(g.neighbors(u))
        for w in g.neighbors(u):
            near.update(g.neighbors(w))
        edges.extend((u, v) for v in sorted(near) if v > u)
    return Graph(g.n, edges)


# ---------------------------------------------------------------------------
# named families

def path_graph(n: int) -> Graph:
    require_int("n", n, 1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    require_int("n", n, 3)
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    require_int("n", n, 1)
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    require_int("n", n, 1)
    return Graph(n, list(combinations(range(n), 2)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """K_{a,b} with parts 0..a-1 and a..a+b-1, edges in lex order."""
    require_int("a", a, 1)
    require_int("b", b, 1)
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def blowup_parts(sizes) -> list[tuple[int, ...]]:
    """Contiguous vertex blocks for a blowup with the given part sizes."""
    parts = []
    start = 0
    for s in sizes:
        parts.append(tuple(range(start, start + s)))
        start += s
    return parts


def blowup_cycle_graph(sizes) -> Graph:
    """Blowup of C_t, t = len(sizes), parts contiguous in index order.

    Edges come in consecutive-part blocks 0-1, 1-2, ..., (t-1)-0, each
    block ordered by (vertex in part i, vertex in part i+1).
    """
    sizes = tuple(sizes)
    t = len(sizes)
    if t < 3:
        raise ValueError("blowup base cycle needs >= 3 parts")
    for s in sizes:
        require_int("part size", s, 1)
    parts = blowup_parts(sizes)
    edges = []
    for i in range(t):
        for u in parts[i]:
            for v in parts[(i + 1) % t]:
                edges.append((u, v))
    return Graph(sum(sizes), edges)


def theta_graph(lengths) -> Graph:
    """Internally disjoint paths with common endpoints x=0, y=1.

    Path j of length lengths[j] contributes lengths[j]-1 internal
    vertices, numbered consecutively path by path starting at 2.  Edges
    run path by path from x to y.  At most one length may be 1, else the
    graph would need a repeated edge.
    """
    lengths = tuple(lengths)
    if len(lengths) < 2:
        raise ValueError("theta graph needs >= 2 paths")
    for ln in lengths:
        require_int("path length", ln, 1)
    if sum(1 for ln in lengths if ln == 1) > 1:
        raise ValueError("at most one length-1 path in a simple graph")
    edges = []
    nxt = 2
    for ln in lengths:
        prev = 0
        for _ in range(ln - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


# family NAME -> (its builder, the usage of its parameters, the vertex
# and edge counts of the graph it builds, or (0, 0) for too few parts,
# which the builder refuses); a usage ending in "..." takes one or more
# of its word, passed as one list
_FAMILIES = {
    "path": (path_graph, "N", lambda n: (n, n - 1)),
    "cycle": (cycle_graph, "N", lambda n: (n, n)),
    "star": (star_graph, "N", lambda n: (n, n - 1)),
    "complete": (complete_graph, "N", lambda n: (n, n * (n - 1) // 2)),
    "complete-bipartite": (complete_bipartite_graph, "A B",
                           lambda a, b: (a + b, a * b)),
    "blowup": (blowup_cycle_graph, "SIZE...", lambda sizes: (
        sum(sizes), sum(a * b for a, b in zip(sizes, sizes[1:] + sizes[:1])))
        if len(sizes) >= 3 else (0, 0)),
    "theta": (theta_graph, "LENGTH...", lambda lengths: (
        2 + sum(ln - 1 for ln in lengths), sum(lengths))
        if len(lengths) >= 2 else (0, 0)),
}


def require_int(word: str, value, low: int | None = None,
                high: int | None = None) -> None:
    """The one rule for a single integer parameter: refuse value, the
    argument that word names, unless it is an int (a bool is not: 1.0
    and True would pass a range check) and, where bounds are given, at
    least low and, with high, at most high.  Three messages: "k must
    be an integer, got 1.0", "k must be >= 1, got 0" and "vertex 4 out
    of range 0..3"."""
    if type(value) is not int:
        raise ValueError(f"{word} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{word} {value} out of range {low}..{high}")
    if low is not None and value < low:
        raise ValueError(f"{word} must be >= {low}, got {value}")


def integer_param(owner: str, word: str, text) -> int:
    """text, the parameter that owner's usage calls word, as an int;
    else a ValueError naming both, as in "family star: N must be an
    integer, got ''"."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{owner}: {word} must be an integer, "
                         f"got {text!r}") from None


def make_family(family: str, params) -> Graph:
    """Build a named family graph.

    Args:
        family: one of path, cycle, star, complete, complete-bipartite,
            blowup, theta.
        params: integer parameters (or their decimal strings); blowup
            takes part sizes of the base odd-or-even cycle C_t with
            t = len(params), theta takes path lengths.

    A family of more than MAX_PARSED_VERTICES vertices or
    MAX_FAMILY_EDGES edges is refused, counted from its parameters
    before any edge list is built.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    fn, usage, size = _FAMILIES[family]
    words = usage.removesuffix("...").split()
    # a surplus parameter is named by the last word
    values = [integer_param(f"family {family}",
                            words[min(i, len(words) - 1)], p)
              for i, p in enumerate(params)]
    if usage.endswith("..."):
        params = [values]
    elif len(values) != len(words):
        raise ValueError(f"family {family} takes {len(words)} parameter(s)")
    else:
        params = values
    # every family needs parameters >= 1, and its builder refuses others
    if min(values, default=0) >= 1:
        n, m = size(*params)
        for count, what, limit in ((n, "vertices", MAX_PARSED_VERTICES),
                                   (m, "edges", MAX_FAMILY_EDGES)):
            if count > limit:
                raise ValueError(
                    f"family {family} would have {count} {what}, more "
                    f"than the {limit} a family may have")
    return fn(*params)


# ---------------------------------------------------------------------------
# native edge-list format
#
# line 1: "n m"; then m lines "u v" with an optional trailing sign
# ("+"/"-") or color (integer >= 1).  '#' starts a comment, whole-line
# or trailing.  Comment lines are preserved for claim headers.

@dataclass(frozen=True)
class ParsedGraph:
    graph: Graph
    signs: tuple[int, ...] | None
    colors: tuple[int, ...] | None
    comments: tuple[str, ...]


def parse_any(text: str) -> ParsedGraph:
    """Parse plain, signed, or colored edge-list text.  A header naming
    more than MAX_PARSED_VERTICES vertices is refused on its line."""
    header: tuple[int, int] | None = None
    rows: list[tuple[int, int, int, str | None]] = []
    comments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if "#" in line:
            body, comment = line.split("#", 1)
            if not body.strip():
                comments.append(comment.strip())
            line = body
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphFormatError("expected header 'n m'", lineno)
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphFormatError("expected header 'n m'", lineno)
            if n < 0 or m < 0:
                raise GraphFormatError("negative count in header", lineno)
            if n > MAX_PARSED_VERTICES:
                raise GraphFormatError(
                    f"header names {n} vertices, more than the "
                    f"{MAX_PARSED_VERTICES} a graph file may have", lineno)
            header = (n, m)
            continue
        if len(fields) not in (2, 3):
            raise GraphFormatError("expected 'u v' with optional tag", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError("vertex indices must be integers", lineno)
        rows.append((lineno, u, v, fields[2] if len(fields) == 3 else None))
    if header is None:
        raise GraphFormatError("empty input, expected header 'n m'")
    n, m = header
    if len(rows) != m:
        raise GraphFormatError(f"header promises {m} edges, found {len(rows)}")

    tags = [tag for _, _, _, tag in rows]
    tagged = [t is not None for t in tags]
    if any(tagged) and not all(tagged):
        bad = rows[tagged.index(False)][0]
        raise GraphFormatError("mixed tagged and untagged edge lines", bad)

    signs: list[int] | None = None
    colors: list[int] | None = None
    if all(tagged) and rows:
        if all(t in ("+", "-") for t in tags):
            signs = [1 if t == "+" else -1 for t in tags]
        else:
            colors = []
            sign_line = None
            for lineno, _, _, t in rows:
                if t in ("+", "-"):
                    if sign_line is None:
                        sign_line = lineno
                    continue
                try:
                    c = int(t)
                except ValueError:
                    raise GraphFormatError(
                        f"edge tag must be +, -, or an integer, got {t!r}",
                        lineno)
                if c < 1:
                    raise GraphFormatError("colors must be >= 1", lineno)
                colors.append(c)
            if sign_line is not None:
                raise GraphFormatError("mixed sign and color tags",
                                       sign_line)

    try:
        graph = Graph(n, [(u, v) for _, u, v, _ in rows])
    except EdgeError as e:
        raise GraphFormatError(str(e), rows[e.edge][0]) from None
    return ParsedGraph(
        graph,
        tuple(signs) if signs is not None else None,
        tuple(colors) if colors is not None else None,
        tuple(comments),
    )


def emit_graph(g: Graph, tags=(), comments=()) -> str:
    """Edge-list text: the header, one line per edge (with that edge's
    tag token, '+'/'-' or a color, when tags are given), then the
    comments."""
    tags = tuple(tags)
    if tags and len(tags) != g.m:
        raise ValueError(f"{len(tags)} edge tags for {g.m} edges")
    tokens = [f" {t}" for t in tags] or [""] * g.m
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}{t}" for (u, v), t in zip(g.edges, tokens)]
    lines += [f"# {c}" for c in comments]
    return "\n".join(lines) + "\n"
