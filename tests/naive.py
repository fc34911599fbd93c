"""Brute-force reference implementations used as test oracles.

Everything here enumerates simple paths recursively with no bitmask
tricks, no symmetry reduction, and no early exits beyond the obvious
zero cutoff, so it is independent of the library's engine.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations


def simple_paths(n, edges, u, v):
    """Yield every simple uv-path as a vertex tuple.  u == v yields (u,)."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    path = [u]
    on_path = [False] * n
    on_path[u] = True

    def walk(cur):
        if cur == v:
            yield tuple(path)
            return
        for w in adj[cur]:
            if not on_path[w]:
                on_path[w] = True
                path.append(w)
                yield from walk(w)
                path.pop()
                on_path[w] = False

    yield from walk(u)


def edge_lookup(edges):
    return {(min(a, b), max(a, b)): i for i, (a, b) in enumerate(edges)}


def path_edge_indices(path, lookup):
    return [lookup[(min(a, b), max(a, b))]
            for a, b in zip(path, path[1:])]


def signed_distance(n, edges, signs, u, v):
    lookup = edge_lookup(edges)
    best = math.inf
    for path in simple_paths(n, edges, u, v):
        total = sum(signs[i] for i in path_edge_indices(path, lookup))
        best = min(best, abs(total))
        if best == 0:
            break
    return best


def wiener_signed(n, edges, signs):
    total = 0
    for u in range(n):
        for v in range(u + 1, n):
            d = signed_distance(n, edges, signs, u, v)
            if d is math.inf:
                return math.inf
            total += d
    return total


def canceling_paths(n, edges, colors, r, u, v):
    """Yield every simple uv-path that uses each color in 1..r equally."""
    lookup = edge_lookup(edges)
    for path in simple_paths(n, edges, u, v):
        counts = [0] * r
        for i in path_edge_indices(path, lookup):
            counts[colors[i] - 1] += 1
        if len(set(counts)) == 1:
            yield path


def canceling_path_exists(n, edges, colors, r, u, v):
    """True iff some simple uv-path uses every color in 1..r equally."""
    return next(canceling_paths(n, edges, colors, r, u, v), None) is not None


def canceling_row(n, edges, colors, r, u):
    """Per vertex v, whether some simple uv-path uses every color in
    1..r equally: one walk over every simple path from u, counting
    colors as it goes (u reads True, by the empty path)."""
    adj = [[] for _ in range(n)]
    for (a, b), c in zip(edges, colors):
        adj[a].append((b, c - 1))
        adj[b].append((a, c - 1))
    reach = [False] * n
    counts = [0] * r
    on_path = [False] * n
    on_path[u] = True

    def walk(cur):
        if len(set(counts)) == 1:
            reach[cur] = True
        for w, c in adj[cur]:
            if not on_path[w]:
                on_path[w] = True
                counts[c] += 1
                walk(w)
                counts[c] -= 1
                on_path[w] = False

    walk(u)
    return reach


def restrict(n, edges, tags, dead):
    """Induced subgraph after deleting `dead`, with tags restricted."""
    keep = [v for v in range(n) if v not in dead]
    remap = {v: i for i, v in enumerate(keep)}
    sub_edges, sub_tags = [], []
    for (a, b), t in zip(edges, tags):
        if a in remap and b in remap:
            sub_edges.append((remap[a], remap[b]))
            sub_tags.append(t)
    return len(keep), sub_edges, sub_tags


def is_k_canceling(n, edges, signs, k):
    """Literal definition: W zero after every deletion of < k vertices."""
    for size in range(k):
        for dead in combinations(range(n), size):
            nn, ee, ss = restrict(n, edges, signs, set(dead))
            if wiener_signed(nn, ee, ss) != 0:
                return False
    return True


def is_rk_canceling(n, edges, colors, r, k):
    """Literal definition over colored paths, all deletion sizes < k."""
    for size in range(k):
        for dead in combinations(range(n), size):
            dead = set(dead)
            nn, ee, cc = restrict(n, edges, colors, dead)
            for u in range(nn):
                for v in range(u + 1, nn):
                    if not canceling_path_exists(nn, ee, cc, r, u, v):
                        return False
    return True


def least_mask(n, mask):
    """Least edge mask of a graph over all n! relabelings.  Bit i of a
    mask is the i-th pair (u, v), u < v, in lexicographic order."""
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    return min(sum(1 << index[tuple(sorted((perm[a], perm[b])))]
                   for a, b in edges)
               for perm in permutations(range(n)))
