"""Exhaustive search and enumeration drivers.

Existence searches for canceling signings and colorings, the minimum
signed Wiener index with its argmin, per-n cancelability of complete
graphs, tree scans for the sandwich and double-star conjectures, and
the signed Wiener distribution of Dyck paths.

Every search is deterministic: candidates are visited in a fixed order,
so "first witness found" is reproducible and usable as a frozen fixture.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

from .canceling import (
    _path_table,
    _table_holds,
    is_k_canceling_signing,
    is_rk_canceling_coloring,
    necessary_conditions,
)
from .distances import (
    INFINITE,
    EdgeColoring,
    GuardOverride,
    Signing,
    SizeGuardError,
    _cancel_guard,
    as_signing,
    bipartite_lower_bound,
    check_fit,
    leaf_lower_bound,
    wiener_classical,
    wiener_signed,
)
from .graphs import (
    Graph,
    _deletion_size,
    bfs_distances,
    complete_graph,
    is_connected,
    path_graph,
    star_graph,
)
from .witnesses import complete_cyclic_signing, complete_rk_coloring

# 2^22 candidate signings is a few minutes of checking; beyond that the
# caller must opt in explicitly.
DEFAULT_MAX_SEARCH_BITS = 22
TREE_MAX_N = 10
DYCK_MAX_N = 8
CONNECTED_ENUM_MAX_N = 6


def candidate_bits(m: int, r: int = 2) -> int:
    """The candidate bits the size guard counts for a scan over m
    edges: m - 1 for signings (the first sign is fixed) and
    ceil(m log2 r) for r-colorings, r > 2; never below 0."""
    if r > 2:
        return max(math.ceil(m * math.log2(r)), 0)
    return max(m - 1, 0)


def _check_bits(bits: int, max_bits: int | None, what: str) -> None:
    limit = DEFAULT_MAX_SEARCH_BITS if max_bits is None else max_bits
    if bits > limit:
        raise SizeGuardError(
            f"{what} needs {bits} candidate bits, guard allows {limit}",
            "max_bits")
    if bits > DEFAULT_MAX_SEARCH_BITS:
        warnings.warn(GuardOverride(
            f"guard override in effect: {what} needs {bits} candidate "
            f"bits, past the default {DEFAULT_MAX_SEARCH_BITS}; this may "
            f"take a long time"))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an existential search over signings or colorings.

    found with witness None never happens; a not-found result with
    filtered=False is an exhaustive proof at the instance (modulo the
    recorded symmetry factor), while filtered=True means the necessary
    conditions already ruled the graph out and nothing was examined.
    """

    found: bool
    witness: Signing | EdgeColoring | None
    examined: int
    symmetry_factor: int
    filtered: bool = False


def _half_space_signings(m: int):
    """All sign tuples with the first edge fixed +1, lexicographically
    (+1 before -1); negating a signing never changes any |sum|."""
    if m == 0:
        yield ()
        return
    for rest in itertools.product((1, -1), repeat=m - 1):
        yield (1,) + rest


def _pool_map(fn, jobs: list, workers: int) -> list:
    """fn over jobs, results in job order; with workers > 1 and more
    than one job the calls run in that many processes, so fn and its
    jobs must pickle.  The pool is imported only here, so a serial run
    never loads multiprocessing."""
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _first_hit(candidates, holds):
    """The first candidate that holds (None if none does) and how many
    candidates were examined to find it."""
    examined = 0
    for candidate in candidates:
        examined += 1
        if holds(candidate):
            return candidate, examined
    return None, examined


def find_k_canceling_signing(g: Graph, k: int, *,
                             use_filter: bool = True,
                             max_bits: int | None = None,
                             max_n: int | None = None) -> SearchResult:
    """Search for a k-canceling signing of g.

    With use_filter the necessary conditions run first as a fast
    reject; pass use_filter=False to force the raw exhaustive sweep
    (needed when the search itself is the evidence the conditions are
    being tested against).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n <= k:
        raise ValueError(
            f"k-canceling search needs n >= k+1 (n={g.n}, k={k})")
    if use_filter and not necessary_conditions(g, k).passes:
        return SearchResult(False, None, 0, 2, filtered=True)
    _check_bits(candidate_bits(g.m), max_bits, "signing search")
    hit, examined = _first_hit(
        map(Signing, _half_space_signings(g.m)),
        lambda sigma: is_k_canceling_signing(g, sigma, k, max_n=max_n).holds)
    return SearchResult(hit is not None, hit, examined, 2)


@dataclass(frozen=True)
class MinWienerResult:
    value: int | float
    argmin: Signing | None
    examined: int


def min_signed_wiener(g: Graph, *,
                      max_bits: int | None = None,
                      max_n: int | None = None) -> MinWienerResult:
    """Exact minimum of the signed Wiener index over all signings,
    with the first minimizing signing in the order of
    _half_space_signings (first edge +1, then lexicographic, +1 first).

    Infinite (argmin None) iff g is disconnected.  Each candidate is
    fully recomputed; the scan stops early only when a candidate meets
    the structural lower bound, which certifies the minimum.
    """
    if not is_connected(g):
        return MinWienerResult(INFINITE, None, 0)
    _check_bits(candidate_bits(g.m), max_bits, "signing scan")
    floor = max(bipartite_lower_bound(g), leaf_lower_bound(g))
    best: int | float = INFINITE
    argmin = None
    examined = 0
    for sigma in map(Signing, _half_space_signings(g.m)):
        examined += 1
        w = wiener_signed(g, sigma, max_n=max_n)
        if w < best:
            best, argmin = w, sigma
            if best == floor:
                break
    return MinWienerResult(best, argmin, examined)


def _surjective_growth_colorings(m: int, r: int):
    """Colorings of m edges modulo color permutation: first occurrences
    appear in increasing color order, and all r colors are used.  Each
    is yielded as the edge bitmasks of its colors 2..r, in the layout
    of canceling._path_table; edge e's color is set by toggling its
    bit in one mask."""
    masks = [0] * (r + 1)

    def extend(e: int, high: int):
        if e == m:
            if high == r:
                yield tuple(masks[2:])
            return
        if r - high > m - e:
            return
        bit = 1 << (m - 1 - e)
        for c in range(1, min(high + 1, r) + 1):
            masks[c] ^= bit
            yield from extend(e + 1, max(high, c))
            masks[c] ^= bit

    yield from extend(0, 0)


@dataclass(frozen=True)
class ThresholdRow:
    n: int
    holds: bool
    examined: int
    witness: Signing | EdgeColoring | None


def _threshold_one(args) -> ThresholdRow:
    """One row: the probes through the verdicts, then, if none holds,
    the sweep against one path table of K_n, its candidates enumerated
    as the color masks the table reads; only the hit is decoded.  The
    guard the row meets first runs before K_n is built, from n, k and
    r alone: a probe verdict's, on the n - s vertices its paths run
    on, or else the sweep's candidate bits."""
    r, k, n, max_bits, max_n = args
    # the cyclic signing settles most positive rows instantly, and the
    # paper's coloring exists for k >= 2 on enough vertices
    probed = r == 2 or k >= 2 and n >= 3 * (k - 1) * (r - 1)
    bits = candidate_bits(n * (n - 1) // 2, r)
    what = f"threshold scan at n={n}"
    if probed:
        _cancel_guard(n - _deletion_size(n, k), r, max_n)
    else:
        _check_bits(bits, max_bits, what)
    kn = complete_graph(n)
    if r == 2:
        # K_2 has no cycle, so its one all-plus signing stands in
        probes = [complete_cyclic_signing(n).signing if n >= 3
                  else Signing((1,))]
        # candidate i is the i-th half-space signing, whose minus mask
        # is i (see _path_table); zip makes each a one-mask tuple
        space = zip(range(1 << (kn.m - 1)))
    else:
        probes = [complete_rk_coloring(n, r, k).coloring] if probed else []
        space = _surjective_growth_colorings(kn.m, r)
    hit, examined = _first_hit(probes, lambda candidate: (
        is_rk_canceling_coloring(kn, candidate, k, max_n=max_n).holds))
    if hit is None:
        if probed:
            _check_bits(bits, max_bits, what)
        table = _path_table(n, r, k, max_n=max_n)
        masks, swept = _first_hit(
            space, lambda masks: _table_holds(table, masks))
        examined += swept
        if masks is not None:
            colors = tuple(
                next((c for c, mask in enumerate(masks, 2)
                      if mask >> (kn.m - 1 - e) & 1), 1)
                for e in range(kn.m))
            hit = (Signing(tuple(1 if c == 1 else -1 for c in colors))
                   if r == 2 else EdgeColoring(r, colors))
    return ThresholdRow(n, hit is not None, examined, hit)


def threshold_scan(r: int, k: int, n_range, *,
                   max_bits: int | None = None,
                   max_n: int | None = None,
                   workers: int = 1) -> list[ThresholdRow]:
    """Per-n verdicts for "K_n admits an (r,k)-canceling coloring".

    Verdicts are reported per n and never extrapolated: nothing here
    assumes cancelability of K_n is monotone in n.  Negative rows are
    exhaustive over the symmetry-reduced candidate space (global
    negation for r=2, color permutations for r >= 3, where unused
    colors are skipped because a path cannot balance an absent color).
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    ns = list(n_range)
    if any(n <= max(1, k) for n in ns):
        raise ValueError(f"scan needs n >= {max(2, k + 1)}")
    return _pool_map(_threshold_one, [(r, k, n, max_bits, max_n) for n in ns],
                     workers)


@dataclass(frozen=True)
class ThresholdBounds:
    k: int
    lower_exact: float
    lower: int
    upper: int


def n2k_bounds(k: int) -> ThresholdBounds:
    """Known bounds k + log_4 k <= n_{2,k} <= 2k+4, stated for k >= 5.

    The ceiling of the lower bound is taken with integer arithmetic
    (smallest t with 4^t >= k) so powers of 4 do not fall victim to
    float rounding.
    """
    if k < 5:
        raise ValueError("bounds are stated for k >= 5")
    t = 0
    while 4 ** t < k:
        t += 1
    return ThresholdBounds(k, k + math.log(k, 4), k + t, 2 * k + 4)


# ---------------------------------------------------------------------------
# trees


def tree_signed_wiener(tree: Graph, signing) -> int:
    """W_sigma of a tree via the unique-path shortcut: a DFS from each
    root carries the running sign sum, and each pair contributes its
    absolute value."""
    sigma = as_signing(signing)
    if tree.m != tree.n - 1 or not is_connected(tree):
        raise ValueError("not a tree")
    check_fit(tree, sigma)
    signs = sigma.signs
    total = 0
    for root in range(tree.n):
        stack = [(root, -1, 0)]
        while stack:
            v, parent, acc = stack.pop()
            if v > root:
                total += abs(acc)
            for w in tree.neighbors(v):
                if w != parent:
                    s = signs[tree.edge_index(v, w)]
                    stack.append((w, v, acc + s))
    return total


def _rooted_code(root: int, parent: int, nbrs: list[list[int]]) -> tuple:
    subs = sorted(_rooted_code(w, root, nbrs)
                  for w in nbrs[root] if w != parent)
    return tuple(subs)


def tree_canonical_form(tree: Graph) -> tuple:
    """Isomorphism-invariant code: the lexicographically least rooted
    code over the one or two centers, the vertices of least
    eccentricity."""
    nbrs = [list(tree.neighbors(v)) for v in range(tree.n)]
    ecc = [max(bfs_distances(tree, v)) for v in range(tree.n)]
    radius = min(ecc)
    codes = [_rooted_code(c, -1, nbrs) for c in range(tree.n)
             if ecc[c] == radius]
    return (tree.n, min(codes))


@dataclass(frozen=True)
class TreeRecord:
    """A tree and W_*, its least W_sigma over all signings.  The
    greatest needs no scan: it is the classical W(tree), reached by the
    all-plus signing, since no path's |sum| exceeds its length."""

    tree: Graph
    min_wiener: int


def _all_trees(n: int) -> list[Graph]:
    if n == 1:
        return [Graph(1, [])]
    seen = {}
    for parent in _all_trees(n - 1):
        for attach in range(n - 1):
            t = Graph(n, list(parent.edges) + [(attach, n - 1)])
            key = tree_canonical_form(t)
            if key not in seen:
                seen[key] = t
    return list(seen.values())


def _tree_record(t: Graph) -> TreeRecord:
    """t's record: the least W_sigma over the signings with the first
    edge +1 (negation never changes it)."""
    return TreeRecord(t, min(tree_signed_wiener(t, signs)
                             for signs in _half_space_signings(t.m)))


def enumerate_trees(n: int, *, workers: int = 1) -> list[TreeRecord]:
    """All pairwise non-isomorphic trees on n vertices, once each, with
    their least signed Wiener index over all signings.

    This is the one scan over (tree, signing) pairs: both tree
    conjectures read its records.  The order is fixed, and with
    workers > 1 the trees are scanned in that many processes with the
    same records in the same order."""
    if not 1 <= n <= TREE_MAX_N:
        raise ValueError(f"tree enumeration supports 1 <= n <= {TREE_MAX_N}")
    return _pool_map(_tree_record, _all_trees(n), workers)


def _alternating_signs(m: int) -> tuple[int, ...]:
    return tuple(1 if i % 2 == 0 else -1 for i in range(m))


@dataclass(frozen=True)
class SandwichReport:
    """Both halves of the path-sandwich conjecture for signed trees,
    reported separately: the upper half (W_sigma at most the classical
    Wiener index of the path) is a theorem, the lower half (the
    alternating path minimizes) is open."""

    n: int
    lower_holds: bool
    upper_holds: bool
    alternating_anchor: int
    classical_anchor: int
    trees_checked: int
    signings_checked: int
    lower_counterexample: tuple[Graph, Signing] | None
    upper_counterexample: tuple[Graph, Signing] | None


def verify_tree_sandwich(n: int, *, workers: int = 1) -> SandwichReport:
    """Check every signing of every n-vertex tree against the two
    anchors; negation symmetry halves each tree's signing space.

    Reads the records of enumerate_trees (scanned in `workers`
    processes): a tree fails the lower bound iff its least W_sigma
    does, and the upper bound iff its greatest, the classical W(T),
    does.  A counterexample is the first failing tree in enumeration
    order with its first failing signing, found by re-scanning that one
    tree."""
    if not 1 <= n <= TREE_MAX_N:
        raise ValueError(f"tree scan supports 1 <= n <= {TREE_MAX_N}")
    pn = path_graph(n)
    low = tree_signed_wiener(pn, _alternating_signs(pn.m))
    high = tree_signed_wiener(pn, (1,) * pn.m)
    records = enumerate_trees(n, workers=workers)

    def first_failure(extreme, fails):
        for t in (r.tree for r in records if fails(extreme(r))):
            return next((t, Signing(signs))
                        for signs in _half_space_signings(t.m)
                        if fails(tree_signed_wiener(t, signs)))
        return None

    lower_cx = first_failure(lambda r: r.min_wiener, lambda w: w < low)
    upper_cx = first_failure(lambda r: wiener_classical(r.tree),
                             lambda w: w > high)
    return SandwichReport(n, lower_cx is None, upper_cx is None, low, high,
                          len(records), len(records) * 2 ** max(n - 2, 0),
                          lower_cx, upper_cx)


def double_star(a: int, b: int) -> Graph:
    """Two adjacent centers 0 and 1 with a and b pendant leaves."""
    if a < 0 or b < 0:
        raise ValueError("leaf counts must be >= 0")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return Graph(2 + a + b, edges)


@dataclass(frozen=True)
class DoubleStarReport:
    """Scan of 'every tree's W_* sits between the path's and the best
    adjacent-center double star's', plus the star-only variant that is
    known to fail."""

    n: int
    lower_holds: bool
    upper_holds: bool
    path_value: int
    best_double_star: tuple[int, int]
    best_double_star_value: int
    star_value: int
    star_only_upper_holds: bool
    lower_counterexample: Graph | None
    upper_counterexample: Graph | None
    star_counterexample: Graph | None


def verify_double_star(n: int, *, workers: int = 1) -> DoubleStarReport:
    """Compare the records of enumerate_trees (scanned in `workers`
    processes) with the W_* of the path, every double star and the
    star, each read from its own _tree_record (W_* does not change
    under relabeling); counterexamples are the first failing records."""
    if not 2 <= n <= TREE_MAX_N:
        raise ValueError(f"double-star scan supports 2 <= n <= {TREE_MAX_N}")
    records = enumerate_trees(n, workers=workers)

    def value(tree: Graph) -> int:
        return _tree_record(tree).min_wiener

    def first_tree(fails) -> Graph | None:
        return next((r.tree for r in records if fails(r.min_wiener)), None)

    path_value = value(path_graph(n))
    best_val, best_ab = max(((value(double_star(a, n - 2 - a)), (a, n - 2 - a))
                             for a in range((n - 2) // 2 + 1)),
                            key=lambda pair: pair[0])
    star_value = value(star_graph(n))
    lower_cx = first_tree(lambda w: w < path_value)
    upper_cx = first_tree(lambda w: w > best_val)
    star_cx = first_tree(lambda w: w > star_value)
    return DoubleStarReport(n, lower_cx is None, upper_cx is None,
                            path_value, best_ab, best_val, star_value,
                            star_cx is None, lower_cx, upper_cx, star_cx)


# ---------------------------------------------------------------------------
# Dyck paths


@dataclass(frozen=True)
class DyckRecord:
    """A balanced up/down step sequence read as a signed path on
    2n+1 vertices: +1 per U step, -1 per D step."""

    steps: str
    signing: Signing
    wiener: int


def dyck_record(steps: str) -> DyckRecord:
    if not steps or len(steps) % 2:
        raise ValueError("step count must be positive and even")
    height = 0
    for ch in steps:
        if ch == "U":
            height += 1
        elif ch == "D":
            height -= 1
        else:
            raise ValueError(f"bad step {ch!r}")
        if height < 0:
            raise ValueError("path dips below the axis")
    if height != 0:
        raise ValueError("path does not return to the axis")
    signs = tuple(1 if ch == "U" else -1 for ch in steps)
    w = tree_signed_wiener(path_graph(len(steps) + 1), signs)
    return DyckRecord(steps, Signing(signs), w)


def dyck_steps(n: int):
    """All Dyck words of semilength n, lexicographically with U < D:
    the U positions run through the n-subsets of range(2n) in
    lexicographic order, and a subset is kept when its i-th U (from 0)
    sits at position 2i or earlier, so no prefix has more D than U."""
    for ups in itertools.combinations(range(2 * n), n):
        if all(p <= 2 * i for i, p in enumerate(ups)):
            up = set(ups)
            yield "".join("U" if p in up else "D" for p in range(2 * n))


def dyck_records(n: int) -> list[DyckRecord]:
    if not 1 <= n <= DYCK_MAX_N:
        raise ValueError(f"Dyck scan supports 1 <= n <= {DYCK_MAX_N}")
    return [dyck_record(steps) for steps in dyck_steps(n)]


def dyck_distribution(n: int) -> dict[int, int]:
    """Exact distribution of W_sigma over all Dyck paths of semilength
    n, keyed by value in increasing order."""
    counts: dict[int, int] = {}
    for rec in dyck_records(n):
        counts[rec.wiener] = counts.get(rec.wiener, 0) + 1
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# small connected graphs


def _canonical_mask(n: int, mask: int, pairs) -> int:
    """The least edge mask of the graph over all n! relabelings.

    Bit (a, b), a < b, outweighs every bit whose smaller end is below
    a, so labels are placed from n-1 downward: placing label L fixes
    the word of bits (L, L+1..n-1), which is the adjacency of the
    vertex taking L to the labels already placed.  Only the free
    vertices with the least word can take L (ties branch), and a branch
    whose fixed bits already exceed the best leaf is cut.  This branch
    and bound over one label at a time (McKay, J. Algorithms 1998)
    reaches the same least mask as trying every permutation.
    """
    adj = [0] * n
    while mask:
        i = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        a, b = pairs[i]
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    best = 1 << len(pairs)  # above every mask

    def place(label: int, words: dict[int, int], acc: int) -> None:
        # words: free vertex -> its adjacency to labels label+1..n-1,
        # bit j for label label+1+j, as the mask orders them
        nonlocal best
        if not words:
            best = min(best, acc)
            return
        low = min(words.values())
        shift = label * (2 * n - label - 1) // 2  # pairs (a, b) with a < L
        acc |= low << shift
        if acc >> shift > best >> shift:
            return
        for x, word in words.items():
            if word == low:
                place(label - 1, {y: w << 1 | adj[x] >> y & 1
                                  for y, w in words.items() if y != x}, acc)

    place(n - 1, dict.fromkeys(range(n), 0), 0)
    return best


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n vertices up to isomorphism, built by
    attaching a new vertex to every graph one size down (every
    connected graph loses some non-cut vertex to a connected graph)."""
    if not 1 <= n <= CONNECTED_ENUM_MAX_N:
        raise ValueError(
            f"connected enumeration supports 1 <= n <= {CONNECTED_ENUM_MAX_N}")
    if n == 1:
        return [Graph(1, [])]
    kn = complete_graph(n)
    pairs = kn.edges
    seen: dict[int, int] = {}
    for parent in connected_graphs(n - 1):
        base = 0
        for u, v in parent.edges:
            base |= 1 << kn.edge_index(u, v)
        for subset in range(1, 1 << (n - 1)):
            mask = base
            s = subset
            while s:
                w = (s & -s).bit_length() - 1
                s &= s - 1
                mask |= 1 << kn.edge_index(w, n - 1)
            key = _canonical_mask(n, mask, pairs)
            if key not in seen:
                seen[key] = key
    out = []
    for key in seen:
        edges = [pairs[i] for i in range(len(pairs)) if (key >> i) & 1]
        out.append(Graph(n, edges))
    return out


def theta_length_tuples(max_paths: int, max_edges: int
                        ) -> list[tuple[int, ...]]:
    """Nondecreasing path-length tuples of every valid theta graph with
    2..max_paths paths and at most max_edges edges.  At most one path
    may have length 1 (a second would duplicate the xy edge)."""
    if max_paths < 2:
        raise ValueError("theta graphs need at least two paths")
    out = []

    def extend(prefix: tuple[int, ...], budget: int) -> None:
        if len(prefix) >= 2:
            out.append(prefix)
        if len(prefix) == max_paths:
            return
        start = 2 if prefix and prefix[-1] == 1 else (prefix[-1]
                                                      if prefix else 1)
        for length in range(start, budget + 1):
            extend(prefix + (length,), budget - length)

    extend((), max_edges)
    return out
