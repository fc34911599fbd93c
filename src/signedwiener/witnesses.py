"""Witness constructions: explicit signed and colored graphs paired
with the claims they must satisfy.

Each builder returns a SignedWitness whose claim names the property the
verifiers can certify (zero signed Wiener index, k-canceling, or
(r,k)-canceling), with expected=False for the known boundary cases.
Search-derived witnesses are shipped as frozen fixture files;
`signedwiener.reproduce.derive_special_witness` re-derives them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources

from .canceling import is_k_canceling_signing, is_rk_canceling_coloring
from .distances import (
    EdgeColoring,
    Signing,
    achievable_path_sums,
    signed_distance_row,
    wiener_signed,
)
from .graphs import (
    Graph,
    blowup_cycle_graph,
    blowup_parts,
    complete_graph,
    component_sides,
    cycle_graph,
    emit_graph,
    is_connected,
    parse_any,
    parse_int,
    path_graph,
    require_int,
    square,
    union_at_vertex,
)

CLAIM_KINDS = ("w-zero", "k-canceling", "rk-canceling")

SPECIAL_TAGS = ("c7sq", "p6sq", "theta4", "g_small_even", "g_small_odd")


@dataclass(frozen=True)
class Claim:
    """What a witness asserts about its graph and signing/coloring.

    expected=False marks deliberate boundary witnesses whose claim is
    known to fail; an exceptional_pair additionally pins the unique
    vertex pair at fault.
    """

    kind: str
    k: int | None = None
    r: int | None = None
    expected: bool = True
    exceptional_pair: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in CLAIM_KINDS:
            raise ValueError(f"unknown claim kind {self.kind!r}")
        if self.kind == "rk-canceling":
            require_int("r", self.r, 2)
        if self.kind != "w-zero":
            require_int("k", self.k, 1)
        if self.exceptional_pair is not None and self.expected:
            raise ValueError("an exceptional pair implies expected=False")


@dataclass(frozen=True)
class SignedWitness:
    name: str
    graph: Graph
    claim: Claim
    signing: Signing | None = None
    coloring: EdgeColoring | None = None
    designated_edge: int | None = None

    def __post_init__(self):
        if (self.signing is None) == (self.coloring is None):
            raise ValueError("exactly one of signing/coloring required")
        tags = self.signing.signs if self.signing else self.coloring.colors
        if len(tags) != self.graph.m:
            raise ValueError("edge tag count does not match the graph")
        if self.designated_edge is not None:
            require_int("designated edge", self.designated_edge, 0,
                        self.graph.m - 1)
        pair = self.claim.exceptional_pair
        if pair is not None:
            for v in pair:
                require_int("exceptional pair vertex", v)
            if not 0 <= pair[0] < pair[1] < self.graph.n:
                # failing pairs are listed with u < v, so no other pair
                # could ever match
                raise ValueError(f"exceptional pair {pair[0]},{pair[1]} "
                                 f"needs 0 <= u < v < {self.graph.n}")


@dataclass(frozen=True)
class CertificationResult:
    """Engine verdict vs the witness's claim: ok means they agree."""

    ok: bool
    observed: bool
    certificate: tuple | None = None
    note: str | None = None


def _nonzero_pairs(g: Graph, signing: Signing):
    bad = []
    for u in range(g.n - 1):
        row = signed_distance_row(g, signing, u, targets=range(u + 1, g.n))
        for v in range(u + 1, g.n):
            if row[v] != 0:
                bad.append((u, v))
    return bad


def certify(w: SignedWitness) -> CertificationResult:
    """Check the witness's claim with the verification engine."""
    c = w.claim
    if c.kind == "w-zero":
        if w.signing is None:
            raise ValueError("w-zero claims apply to signings")
        bad = _nonzero_pairs(w.graph, w.signing)
        observed = not bad
        cert = ((),) + tuple(bad[0]) if bad else None
        if c.exceptional_pair is not None:
            ok = bad == [c.exceptional_pair]
            note = None if ok else f"failing pairs {bad}"
            return CertificationResult(ok, observed, cert, note)
        return CertificationResult(observed == c.expected, observed, cert)
    if c.kind == "k-canceling":
        if w.signing is None:
            raise ValueError("k-canceling claims apply to signings")
        verdict = is_k_canceling_signing(w.graph, w.signing, c.k)
    else:
        if w.coloring is None:
            raise ValueError("rk-canceling claims apply to colorings")
        if w.coloring.r != c.r:
            raise ValueError("coloring r does not match the claim")
        verdict = is_rk_canceling_coloring(w.graph, w.coloring, c.k)
    return CertificationResult(verdict.holds == c.expected, verdict.holds,
                               verdict.certificate)


# ---------------------------------------------------------------------------
# squares of paths, trees, cycles, and the cyclic complete graph


def _square_signing(name: str, base: Graph, claim: Claim) -> SignedWitness:
    """base squared, with base's edges + and the distance-2 edges -."""
    g = square(base)
    sigma = Signing(tuple(1 if base.has_edge(u, v) else -1
                          for u, v in g.edges))
    return SignedWitness(name, g, claim, signing=sigma)


def square_path_signing(n: int) -> SignedWitness:
    """P_n squared with path edges + and distance-2 edges -.

    Zero signed Wiener index for n >= 5 except n=6, where exactly the
    endpoint pair (0,5) fails; below 5 the squares are too small to
    cancel.
    """
    require_int("n", n, 2)
    if n == 6:
        claim = Claim("w-zero", expected=False, exceptional_pair=(0, 5))
    elif n < 5:
        claim = Claim("w-zero", expected=False)
    else:
        claim = Claim("w-zero")
    return _square_signing(f"square-path-{n}", path_graph(n), claim)


def complete_cyclic_signing(n: int) -> SignedWitness:
    """K_n with + on the Hamilton cycle 0,1,...,n-1 and - on chords;
    2-canceling for n >= 5, expected-false at n=3 and n=4."""
    require_int("n", n, 3)
    g = complete_graph(n)
    sigma = Signing(tuple(
        1 if v - u == 1 or (u == 0 and v == n - 1) else -1
        for u, v in g.edges))
    claim = Claim("k-canceling", k=2, expected=n >= 5)
    return SignedWitness(f"complete-cyclic-{n}", g, claim, signing=sigma)


def square_tree_signing(t: Graph) -> SignedWitness:
    """T squared with tree edges + and distance-2 edges -, claiming a
    zero index for every tree on >= 5 vertices.

    Two shapes route elsewhere: a star's square is complete, so the
    cyclic signing serves instead, and the 6-vertex path's square needs
    its search-derived fixture.  Both are returned on their canonical
    labelings.
    """
    if t.m != t.n - 1 or not is_connected(t):
        raise ValueError("input is not a tree")
    if t.n < 5:
        raise ValueError("needs a tree on >= 5 vertices")
    degrees = [t.degree(v) for v in range(t.n)]
    if max(degrees) == t.n - 1:
        base = complete_cyclic_signing(t.n)
        return replace(base, name=f"square-tree-star-{t.n}",
                       claim=Claim("w-zero"))
    if t.n == 6 and max(degrees) == 2:
        return special_witness("p6sq")
    return _square_signing(f"square-tree-{t.n}", t, Claim("w-zero"))


def square_cycle_signing(n: int) -> SignedWitness:
    """C_n squared with cycle edges + and distance-2 edges -, claiming
    2-canceling; n=5 is complete so the cyclic signing serves, and n=7
    needs its search-derived fixture."""
    require_int("n", n, 5)
    if n == 5:
        return replace(complete_cyclic_signing(5), name="square-cycle-5")
    if n == 7:
        return special_witness("c7sq")
    return _square_signing(f"square-cycle-{n}", cycle_graph(n),
                           Claim("k-canceling", k=2))


# ---------------------------------------------------------------------------
# frozen fixtures


def special_witness(tag: str) -> SignedWitness:
    """Load a frozen fixture by tag."""
    if tag not in SPECIAL_TAGS:
        raise ValueError(f"unknown special witness tag {tag!r}")
    text = (resources.files(__package__) / "fixtures"
            / f"{tag}.txt").read_text()
    w = parse_witness(text)
    return w


# ---------------------------------------------------------------------------
# composition: subdivision and one-point union


def _drop_edge(g: Graph, signs: tuple[int, ...], e: int):
    edges = [ed for i, ed in enumerate(g.edges) if i != e]
    rest = tuple(s for i, s in enumerate(signs) if i != e)
    return Graph(g.n, edges), rest


def _edge_qualifies(g: Graph, signs: tuple[int, ...], e: int) -> bool:
    # a cycle through e summing to -sign(e) is an e-avoiding endpoint
    # path summing to -2 sign(e)
    x, y = g.edges[e]
    rest_g, rest_signs = _drop_edge(g, signs, e)
    return -2 * signs[e] in achievable_path_sums(rest_g, rest_signs, x, y)


def _require_zero_index(w: SignedWitness, what: str) -> None:
    if w.signing is None:
        raise ValueError(f"{what} needs a signed witness")
    if wiener_signed(w.graph, w.signing) != 0:
        raise ValueError(f"{what} needs a certified zero-index witness")


def subdivision_extend(w: SignedWitness, e: int, i: int) -> SignedWitness:
    """Replace edge e by a path of 2i+1 edges with alternating signs
    starting from sign(e), preserving a zero index.

    Requires a cycle through e whose total sign is -sign(e); the check
    sweeps every simple path between e's endpoints that avoids e.  i=0
    is the identity.
    """
    require_int("i", i, 0)
    _require_zero_index(w, "subdivision")
    g = w.graph
    require_int("e", e, 0, g.m - 1)
    signs = w.signing.signs
    if not _edge_qualifies(g, signs, e):
        raise ValueError(
            "no cycle through the edge has total sign opposite to it")
    if i == 0:
        return w
    x, y = g.edges[e]
    rest_g, rest_signs = _drop_edge(g, signs, e)
    chain = [x] + list(range(g.n, g.n + 2 * i)) + [y]
    new_edges = list(rest_g.edges) + list(zip(chain, chain[1:]))
    new_signs = rest_signs + tuple(
        signs[e] if j % 2 == 0 else -signs[e] for j in range(2 * i + 1))
    out = Graph(g.n + 2 * i, new_edges)
    return SignedWitness(f"{w.name}-subdivide-e{e}-i{i}", out,
                         Claim("w-zero"), signing=Signing(new_signs))


def union_signing(w1: SignedWitness, w2: SignedWitness,
                  v1: int, v2: int) -> SignedWitness:
    """Glue two certified zero-index witnesses at one vertex; the signs
    concatenate positionally (left edges first)."""
    _require_zero_index(w1, "union")
    _require_zero_index(w2, "union")
    g = union_at_vertex(w1.graph, w2.graph, v1, v2)
    sigma = Signing(w1.signing.signs + w2.signing.signs)
    return SignedWitness(f"union-{w1.name}-{w2.name}", g, Claim("w-zero"),
                         signing=sigma)


# ---------------------------------------------------------------------------
# dense families


def bipartite_clique_signing(gprime: Graph, k: int) -> SignedWitness:
    """Complete both sides of a bipartite graph into cliques: cross
    edges +, intra-part edges -; claims k-canceling.

    The parts are component_sides' sides, each component's least vertex
    in U.  Needs both parts of size >= k+2 and every vertex with >= k+1
    cross neighbors; violations name the offending part or vertex.
    """
    require_int("k", k, 1)
    _, side_of, odd = component_sides(gprime)
    if odd:
        raise ValueError("graph is not bipartite")
    side_u, side_v = ([v for v in range(gprime.n) if side_of[v] == p]
                      for p in (0, 1))
    for label, side in (("U", side_u), ("V", side_v)):
        if len(side) < k + 2:
            raise ValueError(
                f"part {label} has {len(side)} vertices, needs >= {k + 2}")
    for v in range(gprime.n):
        if gprime.degree(v) < k + 1:
            raise ValueError(
                f"vertex {v} has {gprime.degree(v)} cross neighbors, "
                f"needs >= {k + 1}")
    edges = list(gprime.edges)
    signs = [1] * len(edges)
    for side in (side_u, side_v):
        for a in range(len(side)):
            for b in range(a + 1, len(side)):
                edges.append((side[a], side[b]))
                signs.append(-1)
    g = Graph(gprime.n, edges)
    return SignedWitness(f"bipartite-cliques-{len(side_u)}-{len(side_v)}-k{k}",
                         g, Claim("k-canceling", k=k),
                         signing=Signing(tuple(signs)))


def blowup_cycle_signing(t: int, sizes, k: int) -> SignedWitness:
    """Blowup of the odd cycle C_{2t+1} with each part split into an
    upper and lower half: consecutive-part edges within the same half
    are +, everything else -; claims k-canceling.  Each part needs
    >= 2k vertices so both halves have >= k."""
    sizes = tuple(sizes)
    require_int("t", t, 1)
    require_int("k", k, 1)
    if len(sizes) != 2 * t + 1:
        raise ValueError(f"expected {2 * t + 1} part sizes, got {len(sizes)}")
    for i, size in enumerate(sizes):
        if size < 2 * k:
            raise ValueError(f"part {i} has size {size}, needs >= {2 * k}")
    g = blowup_cycle_graph(sizes)
    upper = {v: i < (len(part) + 1) // 2
             for part in blowup_parts(sizes) for i, v in enumerate(part)}
    sigma = Signing(tuple(1 if upper[u] == upper[v] else -1
                          for u, v in g.edges))
    return SignedWitness(f"blowup-c{2 * t + 1}-{'x'.join(map(str, sizes))}-k{k}",
                         g, Claim("k-canceling", k=k), signing=sigma)


def complete_rk_coloring(n: int, r: int, k: int) -> SignedWitness:
    """K_n r-colored for the (r,k) claim: a cycle on the first
    m = 3(k-1)(r-1) vertices repeats colors 1..r-1 along its edges,
    and every other edge gets color r."""
    require_int("n", n)
    require_int("r", r, 3)
    require_int("k", k, 2)
    m = 3 * (k - 1) * (r - 1)
    if n < m:
        raise ValueError(f"needs n >= {m} for r={r}, k={k}")
    g = complete_graph(n)

    def color(u: int, v: int) -> int:
        if v < m and v - u == 1:
            return u % (r - 1) + 1
        if u == 0 and v == m - 1:
            return (m - 1) % (r - 1) + 1
        return r

    chi = EdgeColoring(r, tuple(color(u, v) for u, v in g.edges))
    return SignedWitness(f"complete-rk-{n}-r{r}-k{k}", g,
                         Claim("rk-canceling", k=k, r=r), coloring=chi)


# ---------------------------------------------------------------------------
# fixture serialization


def _claim_comment(c: Claim) -> str:
    parts = [c.kind]
    if c.r is not None:
        parts.append(f"r={c.r}")
    if c.k is not None:
        parts.append(f"k={c.k}")
    if not c.expected:
        parts.append("expected=false")
    if c.exceptional_pair is not None:
        parts.append("exceptional-pair={},{}".format(*c.exceptional_pair))
    return "claim: " + " ".join(parts)


def _parse_claim_comment(body: str) -> Claim:
    tokens = body.split()
    if not tokens:
        raise ValueError("empty claim comment")
    kind = tokens[0]
    kw = {}
    for tok in tokens[1:]:
        key, _, val = tok.partition("=")
        if key in ("r", "k"):
            kw[key] = parse_int(key, val)
        elif key == "expected":
            if val.lower() not in ("true", "false"):
                raise ValueError(
                    f"claim expected must be true or false, got {val!r}")
            kw["expected"] = val.lower() == "true"
        elif key == "exceptional-pair":
            a, _, b = val.partition(",")
            kw["exceptional_pair"] = tuple(
                parse_int("exceptional pair vertex", v) for v in (a, b))
        else:
            raise ValueError(f"unknown claim token {tok!r}")
    return Claim(kind, **kw)


def emit_witness(w: SignedWitness) -> str:
    comments = []
    if w.name.startswith("special-"):
        comments.append(f"tag: {w.name[len('special-'):]}")
    comments.append(_claim_comment(w.claim))
    if w.designated_edge is not None:
        comments.append(f"designated-edge: {w.designated_edge}")
    tags = (w.coloring.colors if w.signing is None
            else ("+" if s == 1 else "-" for s in w.signing.signs))
    return emit_graph(w.graph, tags, comments)


def parse_witness(text: str) -> SignedWitness:
    parsed = parse_any(text)
    claim = None
    name = "witness"
    designated = None
    for comment in parsed.comments:
        key, _, body = comment.partition(":")
        key, body = key.strip(), body.strip()
        if key == "claim":
            claim = _parse_claim_comment(body)
        elif key == "tag":
            name = f"special-{body}"
        elif key == "designated-edge":
            designated = parse_int("designated edge", body)
    if claim is None:
        raise ValueError("witness text carries no claim comment")
    signing = coloring = None
    if parsed.signs is not None:
        signing = Signing(parsed.signs)
    elif parsed.colors is not None:
        coloring = EdgeColoring(claim.r or max(parsed.colors), parsed.colors)
    else:
        raise ValueError("witness text carries no edge tags")
    return SignedWitness(name, parsed.graph, claim, signing=signing,
                         coloring=coloring, designated_edge=designated)
