"""Representation, parsing, families, and structural predicates."""

import math
import pickle
from itertools import combinations

import networkx as nx
import pytest

from signedwiener.canceling import necessary_conditions
from signedwiener.graphs import (
    EdgeError,
    Graph,
    GraphFormatError,
    bfs_distances,
    blowup_cycle_graph,
    complete_bipartite_graph,
    complete_graph,
    component_sides,
    cycle_graph,
    delete_vertices,
    emit_graph,
    is_connected,
    is_k_connected,
    make_family,
    parse_any,
    path_graph,
    square,
    star_graph,
    theta_graph,
    union_at_vertex,
)
from signedwiener.search import _pool_map


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


class TestGraphBasics:
    def test_edges_normalized_in_input_order(self):
        g = Graph(4, [(2, 1), (0, 3), (3, 1)])
        assert g.edges == ((1, 2), (0, 3), (1, 3))
        assert g.edge_index(1, 2) == 0
        assert g.edge_index(3, 0) == 1
        assert g.has_edge(3, 1) and not g.has_edge(0, 1)

    def test_neighbors_and_degrees(self):
        g = star_graph(5)
        assert g.neighbors(0) == (1, 2, 3, 4)
        assert g.degree(0) == 4 and g.degree(3) == 1

    def test_rejects_loops_duplicates_and_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_edge_refusal_carries_the_edge_position(self):
        for edges, at in (([(0, 1), (0, 3)], 1), ([(2, 2)], 0),
                          ([(0, 1), (1, 2), (2, 1)], 2)):
            with pytest.raises(EdgeError) as exc:
                Graph(3, edges)
            assert exc.value.edge == at

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(0, 1), (1, 2)])
        c = Graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != c
        # the kept hash is the value hash, on first use and after
        for g in (a, c, complete_graph(5)):
            assert hash(g) == hash(g) == hash((g.n, g.edges))

    def test_graphs_pickle_to_worker_processes(self):
        # one graph goes with its hash kept, one before its first hash;
        # each hashes and compares the same on both sides
        graphs = [cycle_graph(5), complete_graph(4)]
        hash(graphs[0])
        assert _pool_map(hash, graphs, 2) == [hash((g.n, g.edges))
                                              for g in graphs]
        for g in graphs:
            back = pickle.loads(pickle.dumps(g))
            assert back == g and hash(back) == hash(g)


class TestFamilies:
    def test_counts(self):
        assert path_graph(7).m == 6
        assert cycle_graph(11).m == 11
        assert star_graph(6).m == 5
        assert complete_graph(6).m == 15
        assert complete_bipartite_graph(2, 3).m == 6

    def test_make_family_dispatch(self):
        assert make_family("cycle", [11]) == cycle_graph(11)
        assert make_family("complete-bipartite", [2, 3]) == \
            complete_bipartite_graph(2, 3)
        with pytest.raises(ValueError):
            make_family("hypercube", [3])
        with pytest.raises(ValueError):
            make_family("path", [3, 4])

    def test_blowup_of_triangle(self):
        g = make_family("blowup", [2, 2, 2])
        assert g.n == 6 and g.m == 12
        # parts are contiguous; no edges inside a part
        for p in ((0, 1), (2, 3), (4, 5)):
            assert not g.has_edge(*p)
        assert nx.is_isomorphic(to_nx(g), nx.complete_multipartite_graph(2, 2, 2))

    def test_blowup_trivial_parts_is_base_cycle(self):
        g = blowup_cycle_graph([1, 1, 1, 1, 1])
        assert nx.is_isomorphic(to_nx(g), nx.cycle_graph(5))

    def test_theta_small(self):
        g = theta_graph([1, 2, 2])
        assert g.n == 4 and g.m == 5
        h = theta_graph([2, 2, 2])
        assert nx.is_isomorphic(to_nx(h), nx.complete_bipartite_graph(2, 3))

    def test_theta_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            theta_graph([1, 1, 2])
        with pytest.raises(ValueError):
            theta_graph([2])


class TestSquare:
    def test_p4_squared(self):
        g = square(path_graph(4))
        assert set(g.edges) == {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}

    def test_star_squared_is_complete(self):
        for n in range(2, 7):
            assert square(star_graph(n)) == complete_graph(n)

    def test_c5_squared_is_complete(self):
        assert square(cycle_graph(5)) == complete_graph(5)

    def test_square_edges_are_near_pairs(self):
        g = path_graph(9)
        sq = square(g)
        dist = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert sq.has_edge(u, v) == (dist[u][v] <= 2)

    def test_matches_a_bfs_reference_on_random_graphs(self):
        # the edges, in order, of the pairs u < v that bfs_distances
        # puts at distance 1 or 2
        import random
        rng = random.Random(27)
        for trial in range(300):
            n = rng.randint(0, 11)
            p = rng.choice((0.15, 0.3, 0.5))
            g = Graph(n, [e for e in combinations(range(n), 2)
                          if rng.random() < p])
            want = [(u, v) for u in range(n)
                    for v, d in enumerate(bfs_distances(g, u))
                    if v > u and d <= 2]
            assert square(g).edges == tuple(want), g.edges


class TestDeletion:
    def test_k4_minus_vertex(self):
        d = delete_vertices(complete_graph(4), {3})
        assert d.graph == complete_graph(3)
        assert d.vertex_map == {0: 0, 1: 1, 2: 2}
        assert d.edge_refs == (0, 1, 3)

    def test_c5_minus_vertex_is_path(self):
        d = delete_vertices(cycle_graph(5), {0})
        assert nx.is_isomorphic(to_nx(d.graph), nx.path_graph(4))

    def test_disconnection(self):
        d = delete_vertices(path_graph(3), {1})
        assert d.graph.n == 2 and d.graph.m == 0

    def test_degrees_drop_by_deleted_neighbors(self):
        g = complete_bipartite_graph(3, 4)
        dead = {0, 5}
        d = delete_vertices(g, dead)
        for old, new in d.vertex_map.items():
            lost = sum(1 for w in g.neighbors(old) if w in dead)
            assert d.graph.degree(new) == g.degree(old) - lost


class TestStructure:
    def test_c6(self):
        g = cycle_graph(6)
        assert is_connected(g) and not component_sides(g)[2]
        assert necessary_conditions(g, 1).min_degree == 2

    def test_k4(self):
        g = complete_graph(4)
        assert is_connected(g) and component_sides(g)[2] == {0}
        assert necessary_conditions(g, 1).min_degree == 3

    def test_star_leaves(self):
        g = star_graph(5)
        assert component_sides(g)[1] == [0, 1, 1, 1, 1]
        assert necessary_conditions(g, 1).min_degree == 1

    def test_bipartition_parts(self):
        root, side, odd = component_sides(complete_bipartite_graph(2, 3))
        assert root == [0] * 5 and side == [0, 0, 1, 1, 1] and not odd

    def test_matches_networkx_on_random_graphs(self):
        import random
        rng = random.Random(7)
        bipartite = 0
        for trial in range(80):
            n = rng.randint(0, 9)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [e for e in pairs if rng.random() < 0.4]
            g = Graph(n, edges)
            h = to_nx(g)
            root, side, odd = component_sides(g)
            assert is_connected(g) == (n <= 1 or nx.is_connected(h))
            assert (not odd) == nx.is_bipartite(h)
            assert len(root) == len(side) == n and set(side) <= {0, 1}
            for comp in nx.connected_components(h):
                assert {root[v] for v in comp} == {min(comp)}
                assert side[min(comp)] == 0
            if odd:
                continue
            bipartite += 1
            assert all(side[a] != side[b] for a, b in g.edges)
        assert bipartite >= 10

    def test_bfs_distances(self):
        g = union_at_vertex(path_graph(3), path_graph(3), 2, 0)
        d = bfs_distances(g, 0)
        assert d == [0, 1, 2, 3, 4]
        lonely = Graph(2, [])
        assert bfs_distances(lonely, 0) == [0, math.inf]


class TestConnectivity:
    def test_cycle_is_2_connected(self):
        assert is_k_connected(cycle_graph(5), 2)
        assert not is_k_connected(cycle_graph(5), 3)

    def test_path_has_cut_vertex(self):
        assert not is_k_connected(path_graph(4), 2)

    def test_k5(self):
        assert is_k_connected(complete_graph(5), 4)

    def test_k1_matches_connected(self):
        for g in (path_graph(4), Graph(3, [(0, 1)]), complete_graph(1)):
            assert is_k_connected(g, 1) == is_connected(g)

    @staticmethod
    def every_size_connected(g: Graph, k: int) -> bool:
        """The definition read literally: every deletion of 0..k-1
        vertices leaves a nonempty connected graph."""
        for size in range(k):
            for dead in combinations(range(g.n), size):
                alive = set(range(g.n)) - set(dead)
                if not alive:
                    return False
                seen, stack = set(), [min(alive)]
                while stack:
                    v = stack.pop()
                    if v not in seen:
                        seen.add(v)
                        stack += [w for w in g.neighbors(v) if w in alive]
                if seen != alive:
                    return False
        return True

    def test_one_deletion_size_matches_every_size(self):
        # is_k_connected checks only the sets of size min(k-1, n-2) by
        # the deletion lemma; the literal definition checks all sizes
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = Graph(n, [e for i, e in enumerate(pairs)
                              if bits >> i & 1])
                for k in range(1, n + 2):
                    assert is_k_connected(g, k) == \
                        self.every_size_connected(g, k), (g.edges, k)


class TestUnion:
    def test_two_triangles(self):
        g = union_at_vertex(complete_graph(3), complete_graph(3), 0, 0)
        assert g.n == 5 and g.m == 6

    def test_identity_glue(self):
        h = cycle_graph(5)
        assert union_at_vertex(complete_graph(1), h, 0, 0) == h

    def test_two_c4_share_degree_4_vertex(self):
        g = union_at_vertex(cycle_graph(4), cycle_graph(4), 1, 2)
        assert g.n == 7 and g.m == 8
        assert sorted(g.degree(v) for v in range(7)).count(4) == 1

    def test_edge_order_is_concatenation(self):
        g1, g2 = path_graph(3), path_graph(2)
        g = union_at_vertex(g1, g2, 2, 0)
        assert g.edges[:g1.m] == g1.edges


class TestParsing:
    def test_plain(self):
        p = parse_any("3 2\n0 1\n1 2\n")
        assert p.graph == path_graph(3)
        assert p.signs is None and p.colors is None

    def test_single_vertex(self):
        g = parse_any("1 0\n").graph
        assert g.n == 1 and g.m == 0

    def test_signed_and_colored(self):
        p = parse_any("3 3\n0 1 +\n1 2 -\n0 2 +\n")
        assert p.signs == (1, -1, 1) and p.colors is None
        p = parse_any("3 3\n0 1 1\n1 2 2\n0 2 3\n")
        assert p.colors == (1, 2, 3) and p.signs is None

    def test_comments_preserved(self):
        p = parse_any("# claim: test\n2 1\n0 1  # trailing\n# another\n")
        assert p.comments == ("claim: test", "another")
        assert p.graph.m == 1

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_any("3 2\n0 1\n0 1\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("text, line, message", [
        ("3 2\n0 1 +\n# note\n1 3 -\n", 4, "edge (1,3) out of range for n=3"),
        ("3 2\n0 1\n-1 2\n", 3, "edge (-1,2) out of range for n=3"),
        ("3 2\n# note\n2 2\n0 1\n", 3, "self-loop at vertex 2"),
        ("3 3\n0 1\n1 2\n\n1 0\n", 5, "duplicate edge (0,1)"),
    ], ids=["range", "negative", "self-loop", "duplicate"])
    def test_edge_refusal_names_its_line(self, text, line, message):
        with pytest.raises(GraphFormatError) as exc:
            parse_any(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    def test_errors(self):
        for text in ("", "2 1\n0 2\n", "2 1\n0 0\n", "2 2\n0 1\n",
                     "3 2\n0 1 +\n1 2\n", "2 1\n0 1 0\n"):
            with pytest.raises(GraphFormatError):
                parse_any(text)

    def test_mixed_sign_and_color_tags_report_line(self):
        for text in ("3 2\n0 1 2\n1 2 +\n", "3 2\n0 1 -\n1 2 2\n"):
            with pytest.raises(GraphFormatError,
                               match="mixed sign and color tags") as exc:
                parse_any(text)
            assert exc.value.line == (3 if text.endswith("+\n") else 2)
        with pytest.raises(GraphFormatError, match="got 'x'"):
            parse_any("3 2\n0 1 +\n1 2 x\n")

    def test_round_trip_plain_signed_colored(self):
        g = theta_graph([1, 2, 2, 3])
        p = parse_any(emit_graph(g, comments=("note",)))
        assert p.graph == g and p.signs is None and p.comments == ("note",)
        signs = tuple(1 if i % 2 else -1 for i in range(g.m))
        p = parse_any(emit_graph(g, ("+" if s == 1 else "-" for s in signs)))
        assert p.graph == g and p.signs == signs
        colors = tuple(i % 3 + 1 for i in range(g.m))
        p = parse_any(emit_graph(g, colors))
        assert p.graph == g and p.colors == colors

    def test_emit_validates(self):
        g = path_graph(3)
        for tags in (("+",), (1, 2, 3)):
            with pytest.raises(ValueError, match="edge tags for 2 edges"):
                emit_graph(g, tags)
