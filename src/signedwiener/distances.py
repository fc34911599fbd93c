"""Exact signed and colored path statistics.

One engine serves every query: a dynamic program over (visited-vertex
bitmask, current vertex) states, expanded level by level so each state
is touched once.  Each state carries one integer bitset, and crossing
an edge is one masked shift read from a step table.  In the signed
table bit 2p marks a path with p positive edges, so a length-L path
sums to 2p - L; signed distances and r = 2 canceling queries use it.
In the count table, used for every other r, bit i marks the per-color
edge counts written as the base-(q+1) digits of i, with
q = (n-1) // r: no canceling path uses a color more than q times, so
prefixes that do are dropped.  A signed distance row settles each
target it can on a floor path, before and during one sweep, and stops
at proven floors; signed_distance_row states its rules.  A count-table
row with r >= 3 and q >= 2 settles, before any sweep, every target a
rainbow path reaches (r edges, one of each color); canceling_reach_row
states that rule.  Both kinds of row meet in the middle through one
join: a target t is settled when one of its own paths, swept once and
stored with its bitset mirrored about a center c, completes a state of
the row's sweep to a simple path whose bits i (row) and j (target)
give i + j == c, or c - 2 for the sum -1 of a signed row's floor 1:
a sum at the floor for a signed row, two edges of each color for a
count-table row (q >= 3, at level r), where canceling_reach_row states
why no carry of the count digits can forge that sum.  Every cached
row reads one setup, keyed by (graph, edge tags, r): the adjacency
over its step table, the unit, per sign or color the neighbour bitsets
and the edge count, the targets' own paths that the rows join and, for
a signing, its graph's component sides.
Two-color canceling rows alone build their adjacency per row.
Both row functions take the targets their caller reads and stop once
those are settled; a reversed path keeps its sum and color counts, so
callers over unordered pairs ask row u only for v > u.
One backward walk over the stored levels yields every path witness.
Exponential, but exact, and comfortably fast at the sizes the guards
admit.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .graphs import Graph, bfs_distances, component_sides, require_int

INFINITE = math.inf

# exhaustive path search is exponential in n; exceeding these is an
# error rather than a silent stall, overridable per call
DEFAULT_MAX_N_SIGNED = 24
DEFAULT_MAX_N_COLORED = 16


class SizeGuardError(RuntimeError):
    """Instance exceeds the configured exhaustive-search bound; option
    names the keyword argument that overrides it.  Both are the
    exception's args, so it pickles back out of a worker process."""

    def __init__(self, reason: str, option: str):
        super().__init__(reason, option)
        self.reason = reason
        self.option = option

    def __str__(self) -> str:
        return f"{self.reason}; pass a larger {self.option} to override"


class GuardOverride(UserWarning):
    """A loosened size guard admitted an instance its default refuses.
    Issued by the guard check that knows the instance's size, so it
    comes only for work that runs, and before that work starts."""


def _check_guard(size: int, cap: int | None, default: int, what: str,
                 unit: str = "vertices", option: str = "max_n") -> None:
    """The one size-guard rule: refuse a size past the cap (the
    default when cap is None; a given cap must be an int >= 0), and
    warn once admitted past the default.  option names the keyword
    that sets the cap: max_n for vertices, max_bits for candidate
    bits."""
    if cap is None:
        cap = default
    else:
        require_int(option, cap, 0)
    if size > cap:
        raise SizeGuardError(f"{what} needs {size} {unit}, guard allows {cap}",
                             option)
    if size > default:
        warnings.warn(GuardOverride(
            f"guard override in effect: {what} needs {size} {unit}, past "
            f"the default {default}; this may take a long time"))


@dataclass(frozen=True)
class Signing:
    """Edge-index to {+1, -1} assignment for a host graph."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(type(s) is not int or s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be integers +1 or -1")

    @classmethod
    def constant(cls, m: int, sign: int = 1) -> "Signing":
        return cls((sign,) * m)

    def as_coloring(self) -> "EdgeColoring":
        """The r=2 view: +1 becomes color 1, -1 becomes color 2."""
        return EdgeColoring(2, tuple(1 if s == 1 else 2 for s in self.signs))


@dataclass(frozen=True)
class EdgeColoring:
    """Edge-index to {1..r} assignment for a host graph."""

    r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        require_int("r", self.r, 1)
        if any(type(c) is not int or not 1 <= c <= self.r
               for c in self.colors):
            raise ValueError(f"colors must be integers in 1..{self.r}")


def as_signing(signing) -> Signing:
    """signing itself if it is a Signing, else the Signing of the sign
    sequence given (which checks its values)."""
    return signing if isinstance(signing, Signing) else Signing(tuple(signing))


def check_fit(g: Graph, tagged, *vertices: int) -> None:
    """Refuse a Signing or EdgeColoring whose entry count is not g's
    edge count, then any of vertices that is not an int or lies
    outside g.  Two colors are named a signing, as the engine runs
    them.  Every public query on a signing, a coloring or vertices
    calls this before its size guard."""
    if isinstance(tagged, Signing):
        what, count = "signing", len(tagged.signs)
    else:
        what = "signing" if tagged.r == 2 else "coloring"
        count = len(tagged.colors)
    if count != g.m:
        raise ValueError(f"{what} has {count} entries for {g.m} edges")
    for v in vertices:
        if type(v) is not int or not 0 <= v < g.n:
            require_int("vertex", v, 0, g.n - 1)


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


# ---------------------------------------------------------------------------
# the path engine: one level DP over step tables, one back-walk

def _adjacency(g: Graph, steps) -> list:
    """Per vertex v, one (w, 1 << w, keep, shift) per edge vw, where
    steps[e] = (keep, shift) is edge e's step."""
    adj = [[] for _ in range(g.n)]
    for (a, w), (keep, shift) in zip(g.edges, steps):
        adj[a].append((w, 1 << w, keep, shift))
        adj[w].append((a, 1 << a, keep, shift))
    return adj


def _levels(adj, source: int, window=None):
    """Yield, per path length L, {end: {mask: bitset}} over the simple
    paths from source with L edges, holding only ends that have states.

    adj is _adjacency's: crossing an edge with step (keep, shift) maps
    a bitset x to (x & keep) << shift; states whose bitset empties are
    dropped.  A caller that prunes passes window: once it is done with
    level L, window(L) gives the bits worth extending, and each state
    of level L is masked by it once before its edges are crossed (-1
    keeps every bit).  Only the signed row passes one, for its sign
    budget (see signed_distance_row).
    """
    level = {source: {1 << source: 1}}
    length = 0
    while level:
        yield level
        bits = -1 if window is None else window(length)
        if bits != -1:
            level = {v: {mask: x & bits for mask, x in states.items()
                         if x & bits}
                     for v, states in level.items()}
        length += 1
        nxt = {}
        for v, states in level.items():
            nbrs = adj[v]
            for mask, x in states.items():
                for w, bit, keep, shift in nbrs:
                    if mask & bit:
                        continue
                    shifted = (x & keep) << shift
                    if shifted:
                        out = nxt.get(w)
                        if out is None:
                            out = nxt[w] = {}
                        key = mask | bit
                        out[key] = out.get(key, 0) | shifted
        level = nxt


# the signed table's step per slot: bit 2p marks a path with p positive
# edges, so a path of length L has sum 2p - L and sums to zero exactly
# at bit L; a + edge (slot 0) shifts by 2, a - edge (slot 1) by 0, and
# keep = -1 caps nothing
_SIGNED_STEPS = ((-1, 2), (-1, 0))


def _count_steps(n: int, r: int):
    """Per-color steps and unit of the capped count table: bit i holds
    the per-color edge counts as the base-b digits of i, b = q+1 with
    q = (n-1) // r.  No canceling path uses a color more than q times,
    so keep drops the prefixes whose color-c digit already is q, and a
    color-c edge shifts by b**(c-1) without carrying; a path of length
    j*r cancels exactly at bit j*unit, unit = 1 + b + ... + b**(r-1)."""
    q = (n - 1) // r
    b = q + 1
    ones = (1 << b ** r) - 1
    return ([(((1 << q * b ** p) - 1) * ones // ((1 << b ** (p + 1)) - 1),
              b ** p) for p in range(r)],
            sum(b ** p for p in range(r)))


def _cancel_guard(n: int, r: int, max_n) -> None:
    """The size guard of a canceling query with r colors on n vertices:
    the signed guard for two colors, the colored guard otherwise."""
    if r == 2:
        _check_guard(n, max_n, DEFAULT_MAX_N_SIGNED, "zero-path search")
    else:
        _check_guard(n, max_n, DEFAULT_MAX_N_COLORED,
                     "canceling-path search")


def _cancel_table(g: Graph, coloring: EdgeColoring, max_n) -> tuple:
    """Guard a canceling query that fits g and return its setup:
    _setup's for every r but two, and for two colors a plain tuple in
    _Setup's field order holding the signed table's adjacency (color 1
    as +1) and unit alone, the other fields None."""
    _cancel_guard(g.n, coloring.r, max_n)
    if coloring.r == 2:
        # built per row on purpose, and as a plain tuple, which costs
        # a sixth of a _Setup: most verdicts of an exhaustive search
        # fail on their first row, where a cached setup costs more
        # than it saves (through _setup, the seeded searches ran 12-19%
        # slower)
        return _adjacency(g, [_SIGNED_STEPS[c - 1]
                              for c in coloring.colors]), 2, \
            None, None, None, None
    return _setup(g, coloring.colors, coloring.r)


class _Setup(NamedTuple):
    """What every row over one (graph, edge tags, r) shares.  A slot
    per sign or color: color c at c - 1, sign + at 0 and sign - at 1."""

    adj: list     # _adjacency over the signed steps (r = 2) or the
                  # count steps (any other r)
    unit: int     # a path of length j*r cancels iff bit j*unit is set
    nbrs: list    # per slot, per vertex, the bitset of its neighbours
                  # over the slot's edges
    counts: list  # per slot, its edge count
    halves: dict  # per target vertex t, built lazily by _joined: t's
                  # paths of _HALF edges (r = 2) or r edges as
                  # {end x: [(vertex mask, need)]}
    sides: tuple  # for signings, component_sides(g); otherwise None


@functools.lru_cache(maxsize=1)
def _setup(g: Graph, tags: tuple, r: int) -> _Setup:
    """The setup of the rows over g with edge tags: signs +1 and -1
    with r = 2, or colors 1..r.  One entry, keyed by value, so the rows
    of one wiener_signed and a pair query after them, or the count-table
    rows of one deletion set of a verdict, build it once, and the next
    key replaces it."""
    slots = [t - 1 if t > 0 else 1 for t in tags]
    steps, unit = (_SIGNED_STEPS, 2) if r == 2 else _count_steps(g.n, r)
    nbrs = [[0] * g.n for _ in range(r)]
    for (a, b), c in zip(g.edges, slots):
        nbrs[c][a] |= 1 << b
        nbrs[c][b] |= 1 << a
    return _Setup(_adjacency(g, [steps[c] for c in slots]), unit, nbrs,
                  [slots.count(c) for c in range(r)], {},
                  component_sides(g) if r == 2 else None)


def _rainbow_reach(nbrs, source: int, wanted: int) -> int:
    """The bits of wanted that a simple path from source of r edges,
    one of each color, reaches (r = len(nbrs)): every color-distinct
    prefix of r - 1 edges, searched depth first over the neighbour
    bitsets, adds its end's neighbours in the one color it has not
    used, less its own vertices.  Stops once every bit is found."""
    found = 0
    # (end, vertex mask, bitset of the colors not yet used)
    stack = [(source, 1 << source, (1 << len(nbrs)) - 1)]
    while stack:
        v, mask, free = stack.pop()
        if not free & free - 1:
            found |= nbrs[free.bit_length() - 1][v] & wanted & ~mask
            if found == wanted:
                break
            continue
        for c, by_vertex in enumerate(nbrs):
            if free >> c & 1:
                step = by_vertex[v] & ~mask
                while step:
                    bit = step & -step
                    step ^= bit
                    stack.append((bit.bit_length() - 1, mask | bit,
                                  free ^ 1 << c))
    return found


def _first_path(adj, u: int, v: int, wanted):
    """The vertices of the first uv-path the DP finds over adj, an
    _adjacency, or None.

    wanted(L) lists the bits sought at length L, preferred first.  The
    path is the shortest, then the first wanted bit, then the least
    vertex-set bitmask, then as _walk_back picks.
    """
    levels = []
    for length, level in enumerate(_levels(adj, u)):
        levels.append(level)
        states = level.get(v, {})
        for i in wanted(length):
            masks = [mask for mask, x in states.items() if x >> i & 1]
            if masks:
                return _walk_back(adj, levels, v, min(masks), i)
    return None


def _walk_back(adj, levels, v: int, mask: int, i: int):
    """The path behind bit i of state (mask, v) in the last of levels,
    taking the least predecessor at each step back, i.e. the least path
    read backward from v; each step is read from adj's entries."""
    path = [v]
    for level in reversed(levels[:-1]):
        mask &= ~(1 << v)
        for w, bit, keep, shift in sorted(adj[v]):
            if mask & bit and i >= shift and \
                    (level.get(w, {}).get(mask, 0) & keep) >> (i - shift) & 1:
                path.append(w)
                v, i = w, i - shift
                break
        else:
            raise AssertionError("broken witness chain")
    return path[::-1]


# ---------------------------------------------------------------------------
# signed distances

def _min_abs_from_acc(acc: int, offset: int):
    for d in range(offset + 1):
        if (acc >> (offset - d)) & 1 or (acc >> (offset + d)) & 1:
            return d
    raise AssertionError("nonzero bitset with no set bit")


def _floor_path(plus, minus, u: int, t: int, floor: int) -> bool:
    """Whether a simple path from u to t of three edges (floor 1) or
    four (floor 0) attains t's parity floor, as signed_distance_row
    states, read off the neighbour bitsets."""
    not_u, not_t = ~(1 << u), ~(1 << t)
    pu, mu, pt, mt = plus[u], minus[u], plus[t], minus[t]
    if floor == 1:
        starts, ends = (pu | mu) & not_t, (pt | mt) & not_u
        for a in range(len(plus)):
            if starts >> a & 1:
                # b must not carry ua's sign on both of its edges
                same = plus if pu >> a & 1 else minus
                if (plus[a] | minus[a]) & ends & ~(same[a] & same[t]):
                    return True
        return False
    for b in range(len(plus)):
        if b != u and b != t:
            pb, mb = plus[b], minus[b]
            # the a-sides with sums +2, -2, 0 against the c-sides with
            # sums -2, +2, 0; a != c fails only for one shared vertex
            for a, c in ((pu & pb & not_t, mb & mt & not_u),
                         (mu & mb & not_t, pb & pt & not_u),
                         ((pu & mb | mu & pb) & not_t,
                          (pb & mt | mb & pt) & not_u)):
                if a and c and (a != c or a & a - 1):
                    return True
    return False


# The depth of a target's own paths in the signed rows' join.  The row's
# sweep yields its levels 2 and 3 anyway, as floor paths of up to four
# edges are settled before it; joined to a target's paths of 3 edges,
# they cover the floor paths of 5 edges (floor 1) and 6 edges (floor 0),
# the lengths most open targets of a bipartite row need.  A target's
# paths are few at that depth on the sparse rows that get this far,
# while each level deeper multiplies them by the degree.
_HALF = 3


# the benchmark's passes read 4 (distance-sweep) and 23 (certify)
# distinct arguments, so a small memo holds them all
@functools.lru_cache(maxsize=256)
def _mirror(y: int, center: int) -> int:
    """Bit center - j for each bit j <= center of y."""
    y &= (2 << center) - 1
    return int(bin(y)[:1:-1], 2) << center + 1 - y.bit_length() if y else 0


def _joined(adj, halves, level, t: int, depth: int, center: int,
            widen: int = 0) -> bool:
    """Whether a state (x, A, X) of level, the row's paths of one
    length, and one of target t's own simple paths of depth edges
    from t to x, with vertex set B and bitset Y, form one simple path
    the target accepts: A & B == 1 << x keeps the two apart but for x,
    and they pair when some bit i of X and bit j of Y give
    i + j == center or, for widen > 0, i + j == center - widen.  t's
    paths are swept once and kept in halves under t, each with its
    need, the bits center - j of Y, so the test reads
    (X | X << widen) & need."""
    tails = halves.get(t)
    if tails is None:
        tails = halves[t] = {}
        level_t = next(itertools.islice(_levels(adj, t), depth, None), {})
        for x, states in level_t.items():
            ends = [(mask, need) for mask, y in states.items()
                    if (need := _mirror(y, center))]
            if ends:
                tails[x] = ends
    for x, ends in tails.items():
        heads = level.get(x)
        if heads:
            bit = 1 << x
            for a, xs in heads.items():
                xs |= xs << widen
                for b, need in ends:
                    if xs & need and a & b == bit:
                        return True
    return False


def _signed_row(g: Graph, signs, source: int, targets) -> list:
    """Least |sign sum| from source to each vertex of targets, indexed
    by vertex (0 at source; INFINITE at vertices outside targets and
    at unreachable ones), by the rules signed_distance_row states; B
    is the largest best over the targets still open.
    """
    adj, _, (plus, minus), (m_plus, m_minus), halves, (root, side, odd) \
        = _setup(g, tuple(signs), 2)
    n = g.n
    best = [INFINITE] * n
    best[source] = 0
    if not (m_plus and m_minus):
        # with one sign every path's |sum| is its length
        dist = bfs_distances(g, source)
        for t in targets:
            best[t] = dist[t]
        return best
    offset = n - 1
    home = root[source]
    floor = [INFINITE if r != home else 0 if home in odd
             else s ^ side[source] for r, s in zip(root, side)]
    todo = set()
    up, down = plus[source], minus[source]
    for t in targets:
        f = floor[t]
        if t == source or f == INFINITE:
            continue
        # a floor path of one edge (floor 1) or two mixed ones (floor 0)
        short = (up | down) >> t & 1 if f else up & minus[t] or down & plus[t]
        if short or _floor_path(plus, minus, source, t, f):
            best[t] = f
        else:
            todo.add(t)
    if not todo:
        return best

    # the budget pays where one sign has few edges, so that most sums
    # overshoot every open best: on K_10 with one negative edge,
    # wiener_signed expands 3,895 states with it and 21,112 without
    def window(length):
        # bit 2p of a length-L state holds the sum s = 2p - L; keep the
        # one run of bits with -B - min(R, m+) < s < B + min(R, m-); it
        # is never empty, as every target in todo has best > floor >= 0,
        # so B >= 1 and hi - lo >= 2B - 2 >= 0
        bound = max(best[t] for t in todo)
        if bound == INFINITE:
            return -1
        rest = offset - length
        lo = max(length - bound - min(rest, m_plus) + 1, 0)
        hi = length + bound + min(rest, m_minus) - 1
        return (1 << hi + 1) - (1 << lo)

    for length, level in enumerate(_levels(adj, source, window)):
        for v, states in level.items():
            if v in todo:
                sums = 0
                for x in states.values():
                    sums |= x
                best[v] = min(best[v], _min_abs_from_acc(
                    sums << offset - length, offset))
                if best[v] == floor[v]:
                    todo.discard(v)
        if _HALF - 1 <= length <= _HALF:
            for t in list(todo):
                f = floor[t]
                if f == _HALF - length and _joined(
                        adj, halves, level, t, _HALF, 2 * _HALF, 2 * f):
                    best[t] = f
                    todo.discard(t)
        if not todo:
            break
    return best


def signed_distance_row(g: Graph, signing, source: int, *,
                        max_n: int | None = None, targets=None) -> list:
    """Signed distances from source to every vertex of targets (default:
    every vertex).

    Returns a list indexed by vertex; INFINITE marks unreachable
    targets and every vertex outside targets, and source reads 0.
    targets names the answers the caller reads, not a tuning knob: a
    path reversed keeps its sum, so a caller summing over unordered
    pairs asks row u only for the targets v > u.  Each rule below finds
    a real simple path or drops only paths that cannot help, and no
    path beats a parity floor, so every answer is exact:

    - One sign.  Every path's |sum| is its length, so the row is
      bfs_distances' and no sweep runs.
    - Parity floor.  Every path between the two sides of a bipartite
      component has odd length, hence an odd sum, so |sum| >= 1 there;
      elsewhere the floor is 0.  A target whose best meets its floor is
      finished, and the row ends once every target is (targets outside
      source's component are finished at INFINITE).
    - Floor paths.  Before any sweep, a target t is finished at its
      floor if a simple path of at most four edges attains it.
      Floor 1: t adjacent to u, or a path u-a-b-t (a != t, b != u)
      with mixed signs.  Floor 0: a path u-w-t with sign(uw) !=
      sign(wt), or u-a-b-c-t with sign(ua) + sign(ab) =
      -(sign(bc) + sign(ct)), a != t, c != u and a != c.  All are read
      off each vertex's plus- and minus-neighbour bitsets.  The other
      targets stay open with no best, and one DP sweep serves them; a
      row with none runs no sweep.
    - Join.  Each open target t is tested for a floor path of 5 edges
      (floor 1) when the sweep yields level 2, or of 6 edges (floor 0)
      at level 3: a sweep state (x, A) and one of t's own paths from t
      to x of 3 edges, with vertex set B, form one simple path when
      A & B == 1 << x, and its sum is the sum of the two.  t's paths
      are swept once per setup, whatever its floor.
    - Sign budget.  Once every open target has a best, let B be their
      largest best.  A length-L prefix with sum s has at most
      R = n-1-L edges left, at most min(R, m+) positive and min(R, m-)
      negative (m+ and m- count the graph's edges of each sign), so
      every completion ends in [s - min(R, m-), s + min(R, m+)].  A
      prefix whose whole range lies at |sum| >= B can improve no open
      target, so it is not extended.

    So only rows with a target above its floor, or whose floor paths
    all have seven or more edges, sweep past level 3.  The rows over
    one (graph, signing) share one setup, so the rows of one
    wiener_signed and a pair query after them build it once.
    """
    sigma = as_signing(signing)
    targets = range(g.n) if targets is None else tuple(targets)
    check_fit(g, sigma, source, *targets)
    _check_guard(g.n, max_n, DEFAULT_MAX_N_SIGNED, "signed distance")
    return _signed_row(g, sigma.signs, source, targets)


def signed_distance(g: Graph, signing, u: int, v: int, *,
                    max_n: int | None = None):
    """Minimum |sign sum| over all simple uv-paths; 0 at u == v via the
    empty path; INFINITE across components.

    The one-target case of signed_distance_row, under its rules; as
    the sign budget tracks v alone, it may stop long before the row
    would.
    """
    sigma = as_signing(signing)
    check_fit(g, sigma, u, v)
    if u == v:
        return 0
    _check_guard(g.n, max_n, DEFAULT_MAX_N_SIGNED, "signed distance")
    return _signed_row(g, sigma.signs, u, (v,))[v]


def achievable_path_sums(g: Graph, signing, u: int, v: int, *,
                         max_n: int | None = None) -> set[int]:
    """Every sign sum realized by some simple uv-path (u == v: {0}).

    Full sweep with no early exit; the cycle hypothesis of the
    subdivision construction needs an exact membership test, not a
    minimum.
    """
    sigma = as_signing(signing)
    check_fit(g, sigma, u, v)
    if u == v:
        return {0}
    _check_guard(g.n, max_n, DEFAULT_MAX_N_SIGNED, "path-sum sweep")
    offset = g.n - 1
    acc = 0
    for length, level in enumerate(
            _levels(_setup(g, tuple(sigma.signs), 2).adj, u)):
        for x in level.get(v, {}).values():
            acc |= x << offset - length
    return {b - offset for b in range(2 * offset + 1) if (acc >> b) & 1}


def signed_distance_with_witness(g: Graph, signing, u: int, v: int, *,
                                 max_n: int | None = None):
    """Signed distance plus a path attaining it (None when INFINITE).

    The path is the shortest attaining |sum| = d, with sum +d before
    -d, then as canceling_path_witness picks.  A path of one or two
    edges is read off the neighbour bitsets; a longer one keeps every
    DP level in memory for the backward walk, so it is costlier than
    signed_distance; intended for certificate output.
    """
    sigma = as_signing(signing)
    d = signed_distance(g, sigma, u, v, max_n=max_n)
    if d is INFINITE:
        return d, None
    if u == v:
        return 0, PathWitness((u,), (), (0, 0))
    setup = _setup(g, tuple(sigma.signs), 2)
    # a length-L path with sum s sets bit L + s
    path = _short_witness(*setup.nbrs, u, v, d) or _first_path(
        setup.adj, u, v,
        lambda length: (length + d, length - d) if length >= d else ())
    return d, PathWitness.from_vertices(g, path, sigma.as_coloring())


def _short_witness(plus, minus, u: int, v: int, d: int):
    """The path _first_path picks for signed distance d from u to v
    when a path of one or two edges attains d, else None.  No shorter
    path can, so the pick is the edge uv for d = 1, and for d = 0 or 2
    the path u-w-v with the least w, i.e. the least vertex mask: over
    the mixed pairs for d = 0, over the positive pairs for d = 2 and,
    only if there are none, the negative ones, as +d comes before -d."""
    if d == 1:
        return (u, v) if (plus[u] | minus[u]) >> v & 1 else None
    if d == 0:
        mids = plus[u] & minus[v] | minus[u] & plus[v]
    elif d == 2:
        mids = plus[u] & plus[v] or minus[u] & minus[v]
    else:
        return None
    return (u, (mids & -mids).bit_length() - 1, v) if mids else None


# ---------------------------------------------------------------------------
# canceling paths (every color equally often)

def canceling_reach_row(g: Graph, coloring: EdgeColoring, source: int, *,
                        max_n: int | None = None,
                        targets=None) -> list[bool]:
    """For each vertex v of targets (default: every vertex), whether
    some simple path from source uses all r colors equally often.

    Source itself reads True (the empty path) and every vertex outside
    targets reads False.  As in signed_distance_row, targets names the
    answers the caller reads: a reversed path keeps its color counts,
    so a caller checking unordered pairs asks row u only for v > u.
    The targets not yet reached form todo, settled by these rules:

    - Rainbow paths.  For r >= 3 and a count cap q = (n-1) // r of at
      least 2, before any sweep, every target that a simple path of r
      edges with one edge of each color reaches is reached (that path
      cancels), read off each vertex's per-color neighbour bitsets; a
      row with no target left runs no sweep.  With q = 1 the sweep to
      level r is that same search, and two colors keep the signed
      table's sweep alone.
    - Sweep.  One DP sweep serves the rest, and ends once a level of
      length divisible by r empties todo.
    - Join.  For r >= 3 and q >= 3, once the sweep yields level r, each
      target t in todo is tested for a canceling path of 2r edges, by
      the signed rows' join: a sweep state (x, A, X) of r edges and one
      of t's own paths from t to x of r edges, with vertex set B and
      count bitset Y, form one simple path when A & B == 1 << x, and it
      uses each color twice iff some bit i of X and bit j of Y give
      i + j == 2 * unit.  No carry forges that sum: the base-(q+1)
      digits of i and of j each add up to r, every carry in i + j
      takes q off the digit sum, and the digits of 2 * unit (all 2, as
      q >= 2) add up to 2r; so the sum holds iff the digits pair up to
      2, color by color.  t's paths are swept once per setup and kept
      in it.  A target that does not join stays in todo for the deeper
      levels, so the rule is exact.
      It waits for q >= 3 by measurement: at q = 2 the count cap
      already drops every prefix that uses a color three times, so the
      levels past r are cheap, and the targets' own sweeps, paid before
      a row can fail, cost about what they save.  Best of 9 in one
      process, a join at q = 2 took (4,2) on K_13 from 37.8 to 33.3 ms
      but (3,2) on K_8 from 1.24 to 1.33 ms, and a failing one-edge
      change of (3,2) on K_10 from 0.19 to 0.42 ms; at q = 3, (3,3) on
      K_12 went from 113 to 43 ms.

    For r != 2 the rows over one (graph, coloring) share one setup.
    """
    targets = range(g.n) if targets is None else tuple(targets)
    check_fit(g, coloring, source, *targets)
    adj, unit, nbrs, _, halves, _ = _cancel_table(g, coloring, max_n)
    r = coloring.r
    reach = [False] * g.n
    reach[source] = True
    todo = set(targets)
    todo.discard(source)
    join_at = -1
    if r > 2:
        q = (g.n - 1) // r
        if q >= 2 and todo:
            found = _rainbow_reach(nbrs, source, sum(1 << t for t in todo))
            for t in list(todo):
                if found >> t & 1:
                    reach[t] = True
                    todo.discard(t)
            if not todo:
                return reach
        if q >= 3:
            join_at = r
    for length, level in enumerate(_levels(adj, source)):
        if length % r:
            continue
        cancel = 1 << length // r * unit
        for v, states in level.items():
            if v in todo:
                for x in states.values():
                    if x & cancel:
                        reach[v] = True
                        todo.discard(v)
                        break
        if length == join_at:
            for t in list(todo):
                if _joined(adj, halves, level, t, r, 2 * unit):
                    reach[t] = True
                    todo.discard(t)
        if not todo:
            break
    return reach


def canceling_path_witness(g: Graph, coloring: EdgeColoring, u: int, v: int, *,
                           max_n: int | None = None) -> PathWitness | None:
    """A shortest canceling uv-path, or None if there is none: the one
    on the numerically least vertex-set bitmask, lexicographically
    least when read backward from v."""
    check_fit(g, coloring, u, v)
    if u == v:
        return PathWitness((u,), (), (0,) * coloring.r)
    adj, unit = _cancel_table(g, coloring, max_n)[:2]
    r = coloring.r
    path = _first_path(adj, u, v, lambda length: () if length % r
                       else (length // r * unit,))
    return None if path is None else PathWitness.from_vertices(g, path,
                                                               coloring)


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
    sigma = as_signing(signing)
    check_fit(g, sigma)
    _check_guard(g.n, max_n, DEFAULT_MAX_N_SIGNED, "signed Wiener")
    total = 0
    for u in range(g.n - 1):
        row = signed_distance_row(g, sigma, u, max_n=max_n,
                                  targets=range(u + 1, g.n))
        for v in range(u + 1, g.n):
            if row[v] is INFINITE:
                return INFINITE
            total += row[v]
    return total


def bipartite_lower_bound(g: Graph) -> int:
    """Sum of the parity floors over pairs u < v in one component: the
    pairs across the two sides of a bipartite component have only odd
    paths, so each adds at least 1.  That is |A||B| summed over the
    bipartite components of component_sides; a component with an odd
    cycle adds 0."""
    root, side, odd = component_sides(g)
    sizes = {}
    for r, s in zip(root, side):
        if r not in odd:
            sizes.setdefault(r, [0, 0])[s] += 1
    return sum(a * b for a, b in sizes.values())


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
