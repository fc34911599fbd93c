"""Exact signed and colored path statistics.

The engine is a dynamic program over (visited-vertex bitmask, current
vertex) states, expanded level by level so each state is touched once.
Each state carries one integer bitset.  For signings, bit i marks the
achievable sign sum i - (n-1).  For r >= 3 colorings, bit i marks the
per-color edge counts written as the base-(q+1) digits of i, with
q = (n-1) // r: no canceling path uses a color more than q times, so
prefixes that do are dropped and an edge is one masked shift.
Exponential, but exact, and comfortably fast at the sizes the guards
admit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph, bfs_distances, structural_report

INFINITE = math.inf

# exhaustive path search is exponential in n; exceeding these is an
# error rather than a silent stall, overridable per call
DEFAULT_MAX_N_SIGNED = 24
DEFAULT_MAX_N_COLORED = 16


class SizeGuardError(RuntimeError):
    """Instance exceeds the configured exhaustive-search bound."""


def _check_guard(n: int, max_n: int | None, default: int, what: str) -> None:
    cap = default if max_n is None else max_n
    if n > cap:
        raise SizeGuardError(
            f"{what} on n={n} exceeds the size guard {cap}; "
            f"pass a larger max_n to override")


@dataclass(frozen=True)
class Signing:
    """Edge-index to {+1, -1} assignment for a host graph."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @classmethod
    def constant(cls, m: int, sign: int = 1) -> "Signing":
        return cls((sign,) * m)

    def negated(self) -> "Signing":
        return Signing(tuple(-s for s in self.signs))

    def as_coloring(self) -> "EdgeColoring":
        """The r=2 view: +1 becomes color 1, -1 becomes color 2."""
        return EdgeColoring(2, tuple(1 if s == 1 else 2 for s in self.signs))


@dataclass(frozen=True)
class EdgeColoring:
    """Edge-index to {1..r} assignment for a host graph."""

    r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need at least one color")
        if any(not 1 <= c <= self.r for c in self.colors):
            raise ValueError(f"colors must lie in 1..{self.r}")


def _signs_of(signing) -> tuple[int, ...]:
    signs = tuple(signing.signs if isinstance(signing, Signing) else signing)
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    return signs


def _validate_lengths(g: Graph, tags, what: str) -> None:
    if len(tags) != g.m:
        raise ValueError(f"{what} has {len(tags)} entries for {g.m} edges")


@dataclass(frozen=True)
class PathWitness:
    """A concrete simple path: vertices, edge indices, per-color counts.

    color_counts[c-1] is the number of path edges of color c; a signed
    path uses the {+1 -> 1, -1 -> 2} correspondence.
    """

    vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]
    color_counts: tuple[int, ...]

    @classmethod
    def from_vertices(cls, g: Graph, vertices, coloring: EdgeColoring
                      ) -> "PathWitness":
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("witness path revisits a vertex")
        idx = []
        for a, b in zip(vertices, vertices[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"witness step ({a},{b}) is not an edge")
            idx.append(g.edge_index(a, b))
        counts = [0] * coloring.r
        for i in idx:
            counts[coloring.colors[i] - 1] += 1
        return cls(vertices, tuple(idx), tuple(counts))

    @property
    def length(self) -> int:
        return len(self.edge_indices)

    def signed_sum(self) -> int:
        """Sign sum under the r=2 correspondence."""
        return self.color_counts[0] - sum(self.color_counts[1:])

    def is_canceling(self) -> bool:
        return len(set(self.color_counts)) <= 1


# ---------------------------------------------------------------------------
# signed engine (r = 2, sums as offset bitsets)

def _weighted_adjacency(g: Graph, signs):
    return [tuple((w, signs[g.edge_index(v, w)]) for w in g.neighbors(v))
            for v in range(g.n)]


def _signed_levels(g: Graph, signs, source: int):
    """Yield, per path length, the dict (mask, end) -> sum bitset.

    Bit b of a bitset encodes the achievable sum b - (n-1).  Shifting
    left on a +1 edge and right on a -1 edge keeps every sum in range
    because |sum| <= path length <= n-1.
    """
    adj = _weighted_adjacency(g, signs)
    level = {(1 << source, source): 1 << (g.n - 1)}
    yield level
    while level:
        nxt: dict[tuple[int, int], int] = {}
        for (mask, v), sums in level.items():
            for w, s in adj[v]:
                bit = 1 << w
                if mask & bit:
                    continue
                shifted = sums << 1 if s == 1 else sums >> 1
                key = (mask | bit, w)
                prev = nxt.get(key)
                nxt[key] = shifted if prev is None else prev | shifted
        level = nxt
        if level:
            yield level


def _min_abs_from_acc(acc: int, offset: int):
    if acc == 0:
        return INFINITE
    for d in range(offset + 1):
        if (acc >> (offset - d)) & 1 or (acc >> (offset + d)) & 1:
            return d
    raise AssertionError("nonzero bitset with no set bit")


def signed_distance_row(g: Graph, signing, source: int, *,
                        max_n: int | None = None) -> list:
    """Signed distances from source to every vertex.

    Returns a list indexed by vertex; INFINITE marks unreachable
    targets.  One full DP sweep serves all targets, with an early exit
    once every reachable target attains 0.
    """
    signs = _signs_of(signing)
    _validate_lengths(g, signs, "signing")
    if not 0 <= source < g.n:
        raise ValueError("source out of range")
    _check_guard(g.n, max_n, DEFAULT_MAX_N_SIGNED, "signed distance")
    offset = g.n - 1
    zero_bit = 1 << offset
    acc = [0] * g.n
    acc[source] = zero_bit
    undone = g.n - 1
    for level in _signed_levels(g, signs, source):
        for (mask, v), sums in level.items():
            if acc[v] & zero_bit:
                continue
            acc[v] |= sums
            if sums & zero_bit:
                undone -= 1
        if undone == 0:
            break
    return [0 if a & zero_bit else _min_abs_from_acc(a, offset)
            for a in acc]


def signed_distance(g: Graph, signing, u: int, v: int, *,
                    max_n: int | None = None):
    """Minimum |sign sum| over all simple uv-paths; 0 at u == v via the
    empty path; INFINITE across components."""
    signs = _signs_of(signing)
    _validate_lengths(g, signs, "signing")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    if u == v:
        return 0
    _check_guard(g.n, max_n, DEFAULT_MAX_N_SIGNED, "signed distance")
    offset = g.n - 1
    zero_bit = 1 << offset
    acc = 0
    for level in _signed_levels(g, signs, u):
        for (mask, w), sums in level.items():
            if w != v:
                continue
            if sums & zero_bit:
                return 0
            acc |= sums
    return _min_abs_from_acc(acc, offset)


def achievable_path_sums(g: Graph, signing, u: int, v: int, *,
                         max_n: int | None = None) -> set[int]:
    """Every sign sum realized by some simple uv-path (u == v: {0}).

    Full sweep with no early exit; the cycle hypothesis of the
    subdivision construction needs an exact membership test, not a
    minimum.
    """
    signs = _signs_of(signing)
    _validate_lengths(g, signs, "signing")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    if u == v:
        return {0}
    _check_guard(g.n, max_n, DEFAULT_MAX_N_SIGNED, "path-sum sweep")
    offset = g.n - 1
    acc = 0
    for level in _signed_levels(g, signs, u):
        for (mask, w), sums in level.items():
            if w == v:
                acc |= sums
    return {b - offset for b in range(2 * offset + 1) if (acc >> b) & 1}


def zero_reach_row(g: Graph, signing, source: int, *,
                   max_n: int | None = None) -> list[bool]:
    """For each vertex v, whether some simple path from source has sign
    sum exactly 0 (v == source counts via the empty path)."""
    signs = _signs_of(signing)
    _validate_lengths(g, signs, "signing")
    if not 0 <= source < g.n:
        raise ValueError("source out of range")
    _check_guard(g.n, max_n, DEFAULT_MAX_N_SIGNED, "zero-path search")
    zero_bit = 1 << (g.n - 1)
    reach = [False] * g.n
    reach[source] = True
    undone = g.n - 1
    for level in _signed_levels(g, signs, source):
        for (mask, v), sums in level.items():
            if not reach[v] and sums & zero_bit:
                reach[v] = True
                undone -= 1
        if undone == 0:
            break
    return reach


def _signed_witness(g: Graph, signs, u: int, v: int, d: int) -> PathWitness:
    """Reconstruct a shortest path attaining |sum| = d by walking DP
    levels backward.  Caller guarantees d is attained."""
    offset = g.n - 1
    levels = []
    hit = None
    for level in _signed_levels(g, signs, u):
        levels.append(level)
        length = len(levels) - 1
        for (mask, w), sums in level.items():
            if w != v:
                continue
            for s_final in (d, -d):
                if (sums >> (offset + s_final)) & 1:
                    hit = (mask, s_final, length)
                    break
            if hit:
                break
        if hit:
            break
    if hit is None:
        raise AssertionError("witness requested for unattained distance")
    mask, s, length = hit
    path = [v]
    cur = v
    for lev in range(length, 0, -1):
        prev_mask = mask & ~(1 << cur)
        found = False
        for w in sorted(g.neighbors(cur)):
            if not prev_mask & (1 << w):
                continue
            s_prev = s - signs[g.edge_index(w, cur)]
            if abs(s_prev) > offset:
                continue
            sums = levels[lev - 1].get((prev_mask, w))
            if sums is not None and (sums >> (offset + s_prev)) & 1:
                path.append(w)
                mask, cur, s = prev_mask, w, s_prev
                found = True
                break
        if not found:
            raise AssertionError("broken witness chain")
    path.reverse()
    signing = Signing(tuple(signs))
    return PathWitness.from_vertices(g, path, signing.as_coloring())


def signed_distance_with_witness(g: Graph, signing, u: int, v: int, *,
                                 max_n: int | None = None):
    """Signed distance plus a path attaining it (None when INFINITE).

    Keeps every DP level in memory for the backward walk, so it is
    costlier than signed_distance; intended for certificate output.
    """
    d = signed_distance(g, signing, u, v, max_n=max_n)
    if d is INFINITE:
        return d, None
    signs = _signs_of(signing)
    if u == v:
        empty = PathWitness((u,), (), (0, 0))
        return 0, empty
    return d, _signed_witness(g, signs, u, v, d)


# ---------------------------------------------------------------------------
# colored engine (r >= 3, capped color counts as bitsets; r = 2 delegates)

def _count_layout(n: int, r: int):
    """(b, keep, step) of the colored bitsets: base b = q+1; keep[c-1]
    holds the indices whose color-c digit is below q, so a color-c edge
    shifts by b**(c-1) without carrying; a path of length j*r cancels
    exactly when bit j*step is set, step = 1 + b + ... + b**(r-1)."""
    q = (n - 1) // r
    b = q + 1
    ones = (1 << b ** r) - 1
    keep = tuple(((1 << q * b ** p) - 1) * ones // ((1 << b ** (p + 1)) - 1)
                 for p in range(r))
    return b, keep, sum(b ** p for p in range(r))


def _colored_levels(g: Graph, coloring: EdgeColoring, source: int):
    """Yield, per path length L, the list over end vertices of dicts
    mask -> count bitset (see _count_layout), and the bit marking a
    canceling path of length L, or 0 when none can cancel.  States
    whose bitset empties are not stored."""
    n, r = g.n, coloring.r
    b, keep, step = _count_layout(n, r)
    adj = [[] for _ in range(n)]
    for (a, w), c in zip(g.edges, coloring.colors):
        adj[a].append((w, 1 << w, keep[c - 1], b ** (c - 1)))
        adj[w].append((a, 1 << a, keep[c - 1], b ** (c - 1)))
    level = [{} for _ in range(n)]
    level[source][1 << source] = 1
    length = 0
    while any(level):
        yield level, (1 << length // r * step
                      if length and length % r == 0 else 0)
        nxt = [{} for _ in range(n)]
        for v, states in enumerate(level):
            for w, bit, keep_c, shift in adj[v]:
                out = nxt[w]
                for mask, counts in states.items():
                    if mask & bit:
                        continue
                    shifted = (counts & keep_c) << shift
                    if shifted:
                        key = mask | bit
                        out[key] = out.get(key, 0) | shifted
        level = nxt
        length += 1


def canceling_reach_row(g: Graph, coloring: EdgeColoring, source: int, *,
                        max_n: int | None = None) -> list[bool]:
    """For each vertex v, whether some simple path from source uses all
    r colors equally often (source itself: yes, empty path)."""
    if coloring.r == 2:
        signs = tuple(1 if c == 1 else -1 for c in coloring.colors)
        return zero_reach_row(g, signs, source, max_n=max_n)
    _validate_lengths(g, coloring.colors, "coloring")
    if not 0 <= source < g.n:
        raise ValueError("source out of range")
    _check_guard(g.n, max_n, DEFAULT_MAX_N_COLORED, "canceling-path search")
    reach = [False] * g.n
    reach[source] = True
    undone = g.n - 1
    for level, cancel in _colored_levels(g, coloring, source):
        if not cancel:
            continue
        for v, states in enumerate(level):
            if not reach[v] and any(c & cancel for c in states.values()):
                reach[v] = True
                undone -= 1
        if undone == 0:
            break
    return reach


def exists_canceling_path(g: Graph, coloring: EdgeColoring, u: int, v: int, *,
                          max_n: int | None = None) -> bool:
    """True iff some simple uv-path uses every color equally often.

    The empty path makes u == v always true.  For r = 2 this decides
    signed_distance == 0.
    """
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    if u == v:
        return True
    if coloring.r == 2:
        signs = tuple(1 if c == 1 else -1 for c in coloring.colors)
        _validate_lengths(g, signs, "coloring")
        _check_guard(g.n, max_n, DEFAULT_MAX_N_SIGNED, "zero-path search")
        zero_bit = 1 << (g.n - 1)
        for level in _signed_levels(g, signs, u):
            for (mask, w), sums in level.items():
                if w == v and sums & zero_bit:
                    return True
        return False
    _validate_lengths(g, coloring.colors, "coloring")
    _check_guard(g.n, max_n, DEFAULT_MAX_N_COLORED, "canceling-path search")
    for level, cancel in _colored_levels(g, coloring, u):
        if cancel and any(c & cancel for c in level[v].values()):
            return True
    return False


def canceling_path_witness(g: Graph, coloring: EdgeColoring, u: int, v: int, *,
                           max_n: int | None = None) -> PathWitness | None:
    """A shortest canceling uv-path, or None if there is none.

    For r >= 3 it is the one on the numerically least vertex-set
    bitmask, lexicographically least when read backward from v."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    if u == v:
        return PathWitness((u,), (), (0,) * coloring.r)
    if coloring.r == 2:
        signs = tuple(1 if c == 1 else -1 for c in coloring.colors)
        row = zero_reach_row(g, signs, u, max_n=max_n)
        if not row[v]:
            return None
        return _signed_witness(g, signs, u, v, 0)
    _validate_lengths(g, coloring.colors, "coloring")
    _check_guard(g.n, max_n, DEFAULT_MAX_N_COLORED, "canceling-path search")
    levels = []
    for level, cancel in _colored_levels(g, coloring, u):
        levels.append(level)
        ends = [mask for mask, c in level[v].items() if c & cancel]
        if ends:
            break
    else:
        return None
    mask, i = min(ends), cancel.bit_length() - 1
    b = _count_layout(g.n, coloring.r)[0]
    path = [v]
    cur = v
    for lev in range(len(levels) - 1, 0, -1):
        prev_mask = mask & ~(1 << cur)
        for w in sorted(g.neighbors(cur)):
            if not prev_mask & (1 << w):
                continue
            step = b ** (coloring.colors[g.edge_index(w, cur)] - 1)
            if i // step % b == 0:
                continue
            if levels[lev - 1][w].get(prev_mask, 0) >> (i - step) & 1:
                path.append(w)
                mask, cur, i = prev_mask, w, i - step
                break
        else:
            raise AssertionError("broken witness chain")
    path.reverse()
    return PathWitness.from_vertices(g, path, coloring)


# ---------------------------------------------------------------------------
# Wiener indices and lower bounds

def wiener_classical(g: Graph):
    """Half the sum of all ordered-pair BFS distances; INFINITE for a
    disconnected graph on >= 2 vertices."""
    total = 0
    for u in range(g.n):
        row = bfs_distances(g, u)
        for v in range(u + 1, g.n):
            if row[v] is INFINITE:
                return INFINITE
            total += row[v]
    return total


def wiener_signed(g: Graph, signing, *, max_n: int | None = None):
    """Half the sum of all ordered-pair signed distances."""
    signs = _signs_of(signing)
    _validate_lengths(g, signs, "signing")
    _check_guard(g.n, max_n, DEFAULT_MAX_N_SIGNED, "signed Wiener")
    total = 0
    for u in range(g.n - 1):
        row = signed_distance_row(g, signs, u, max_n=max_n)
        for v in range(u + 1, g.n):
            if row[v] is INFINITE:
                return INFINITE
            total += row[v]
    return total


def bipartite_lower_bound(g: Graph) -> int:
    """Product |U||V| summed per bipartite component; 0 when the graph
    has an odd cycle anywhere."""
    report = structural_report(g)
    if not report.bipartite:
        return 0
    color = [-1] * g.n
    total = 0
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        sizes = [1, 0]
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    sizes[color[w]] += 1
                    stack.append(w)
        total += sizes[0] * sizes[1]
    return total


def leaf_lower_bound(g: Graph) -> int:
    """One per degree-1 vertex: a pendant edge is its leaf's only route
    to the neighbor, forcing that pair's distance to 1.

    An isolated edge is two leaves sharing a single forced pair, so it
    contributes one rather than two; without that adjustment the count
    would overshoot W on such components.
    """
    leaves = sum(1 for v in range(g.n) if g.degree(v) == 1)
    shared = sum(1 for u, v in g.edges
                 if g.degree(u) == 1 and g.degree(v) == 1)
    return leaves - shared
