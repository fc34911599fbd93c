"""Key-value rendering and its round-trip guarantee."""

import hashlib
import math

import pytest

from signedwiener.canceling import (
    is_k_canceling_signing,
    necessary_conditions,
    soltes_check_classical,
    soltes_check_signed,
)
from signedwiener.distances import (
    EdgeColoring,
    Signing,
    canceling_path_witness,
    signed_distance_with_witness,
)
from signedwiener.graphs import complete_graph, cycle_graph, path_graph
from signedwiener.reports import (
    as_tree,
    parse_kv,
    parse_token,
    render_kv,
    scalar_token,
)
from signedwiener.search import (
    find_k_canceling_signing,
    min_signed_wiener,
    n2k_bounds,
    threshold_scan,
    verify_double_star,
    verify_tree_sandwich,
)
from signedwiener.witnesses import (
    certify,
    complete_cyclic_signing,
    special_witness,
    square_path_signing,
)


class TestTokens:
    def test_scalars(self):
        assert scalar_token(True) == "true"
        assert scalar_token(False) == "false"
        assert scalar_token(None) == "none"
        assert scalar_token(math.inf) == "inf"
        assert scalar_token(-3) == "-3"
        assert scalar_token("square-path-6") == "square-path-6"

    def test_inverse(self):
        for value in (True, False, None, math.inf, 0, -7, 41, "UDUD"):
            assert parse_token(scalar_token(value)) == value

    def test_rejects_unrepresentable(self):
        with pytest.raises(ValueError):
            scalar_token("two words")
        with pytest.raises(ValueError):
            scalar_token("")
        with pytest.raises(ValueError):
            scalar_token("a=b")
        with pytest.raises(ValueError):
            scalar_token(math.nan)


class TestRender:
    def test_nested_paths(self):
        text = render_kv({"a": {"b": 1, "c": True}, "d": "x"})
        assert text == "a.b = 1\na.c = true\nd = x\n"

    def test_list_of_records(self):
        text = render_kv({"rows": [{"n": 2, "ok": False},
                                   {"n": 3, "ok": True}]})
        assert "rows.0.n = 2" in text
        assert "rows.1.ok = true" in text

    def test_leaf_lists(self):
        assert render_kv({"signs": [1, -1, 1]}) == "signs = [1 -1 1]\n"
        assert render_kv({"s": []}) == "s = []\n"

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValueError):
            render_kv({"a": {}})

    def test_dotted_key_rejected(self):
        with pytest.raises(ValueError):
            render_kv({"a.b": 1})


class TestParse:
    def test_round_trip_mixed(self):
        tree = {
            "holds": True,
            "base": math.inf,
            "certificate": {"s": [0, 2], "u": 1, "v": 4},
            "rows": [{"n": 2, "holds": False}, {"n": 3, "holds": True}],
            "signs": [1, -1],
            "empty": [],
            "name": "threshold-scan",
        }
        assert parse_kv(render_kv(tree)) == tree

    def test_blank_and_comment_lines_skipped(self):
        assert parse_kv("# note\n\nvalue = 3\n") == {"value": 3}

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_kv("justakey\n")

    def test_duplicate_path(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_kv("a = 1\na = 2\n")

    def test_leaf_collision(self):
        with pytest.raises(ValueError, match="descends"):
            parse_kv("a = 1\na.b = 2\n")


class TestReportTrees:
    def test_necessary_report(self):
        tree = as_tree(necessary_conditions(cycle_graph(11), 1))
        assert tree["edge_count"] == 11
        assert tree["required_edges"] == 13
        assert parse_kv(render_kv(tree)) == tree

    def test_soltes_report_with_inf(self):
        report = soltes_check_classical(path_graph(3))
        tree = as_tree(report)
        assert tree["deleted"] == [1, math.inf, 1]
        assert parse_kv(render_kv(tree)) == tree

    def test_min_wiener_result(self):
        tree = as_tree(min_signed_wiener(path_graph(3)))
        assert tree["value"] == 2
        assert tree["argmin"] == {"signs": [1, -1]}
        assert parse_kv(render_kv(tree)) == tree

    def test_threshold_bounds_keeps_float_diagnostic(self):
        tree = as_tree(n2k_bounds(16))
        assert tree["lower"] == 18
        assert tree["lower_exact"] == 18.0
        assert parse_kv(render_kv(tree)) == tree

    def test_certification_with_graph(self):
        w = square_path_signing(6)
        tree = {"witness": {"name": w.name, "graph": as_tree(w.graph),
                            "signing": as_tree(w.signing)},
                "result": as_tree(certify(w))}
        again = parse_kv(render_kv(tree))
        assert again == tree
        assert again["witness"]["graph"]["edges"][0] == [0, 1]

    def test_signing_round_trip_types(self):
        tree = as_tree(Signing((1, -1)))
        assert parse_kv(render_kv(tree)) == {"signs": [1, -1]}


def _theta4():
    return special_witness("theta4")


# one instance of every report type the CLI (or the certify benchmark)
# renders, and of the tag and path types inside them
RENDERED = {
    "canceling-verdict": lambda: is_k_canceling_signing(
        complete_graph(4), complete_cyclic_signing(4).signing, 2),
    "necessary-report": lambda: necessary_conditions(cycle_graph(5), 1),
    "search-result": lambda: find_k_canceling_signing(
        _theta4().graph, 1, use_filter=False),
    "min-wiener-result": lambda: min_signed_wiener(cycle_graph(5)),
    "threshold-row-signing": lambda: threshold_scan(2, 1, [5])[0],
    "threshold-row-coloring": lambda: threshold_scan(3, 2, [7])[0],
    "sandwich-report": lambda: verify_tree_sandwich(5),
    "double-star-report": lambda: verify_double_star(6),
    "sandwich-report-n9": lambda: verify_tree_sandwich(9),
    "double-star-report-n8": lambda: verify_double_star(8),
    "soltes-report": lambda: soltes_check_signed(_theta4().graph,
                                                 _theta4().signing),
    "certification-result": lambda: certify(square_path_signing(6)),
    "path-witness": lambda: signed_distance_with_witness(
        square_path_signing(7).graph, square_path_signing(7).signing,
        0, 6)[1],
    "colored-path-witness": lambda: canceling_path_witness(
        complete_graph(4), EdgeColoring(3, (1, 1, 1, 2, 2, 3)), 0, 3),
    "edge-coloring": lambda: EdgeColoring(3, (1, 2, 3, 1)),
    "graph": lambda: cycle_graph(4),
}

# sha256 of render_kv(as_tree(x)) for each instance above, as rendered
# when as_tree still had its own Signing, EdgeColoring and PathWitness
# branches: the generic dataclass branch must keep every byte.  The
# necessary report's three verdict flags are stored fields, so its
# bytes are those `filter --format kv` printed before they were
# stored.  The n = 9 sandwich and n = 8 double-star reports (the latter
# with the star-only counterexample) keep the bytes they had while each
# tree record still kept its scanned greatest W_sigma.
RENDERED_SHA256 = {
    "canceling-verdict":
        "f45593326255ef1e8b5f0a8da9a81e1da79919652a64dcc9b9c80ebcc2e13a76",
    "necessary-report":
        "9161059b596277087e9f480492083c42b9bdf3f85ccf34119e166ee52f635127",
    "search-result":
        "742bca799a2957dce18a6cbed6125b5e95ef909c079470cf305ab09c4f93e677",
    "min-wiener-result":
        "87dc96b1ccb13d006bf31a636ce5fd1bc943a8002e1eedee4626f0af9cd5e9a4",
    "threshold-row-signing":
        "10ffbc4de306e9047dbc85999eeffd0231c1b0138733f60ccef98e1894ca531d",
    "threshold-row-coloring":
        "cbf0a956e9fab98d2ba59fd55732e9b02d7a9db3c0c401ea888e47b9d57e1831",
    "sandwich-report":
        "2846fb9a9e80b66325e6a5413a2201f731f3b045de0796ade1e5b538aea102fa",
    "double-star-report":
        "6395d06b52720c6681a336b407fbdd084e6aa680e90caf71684545fc31a3f4cb",
    "sandwich-report-n9":
        "413e36dc81b8ab49194fd952297801dcbef31a04e06c644d65613149380d810a",
    "double-star-report-n8":
        "fde268a40f5143a61a952d01f0943b59b4cb3f960ac17084325cf7eaa1a2fd7d",
    "soltes-report":
        "c939105d1ec0fe2913bd4197d0ac95193732d9ca2693b487a56dfece45b132f0",
    "certification-result":
        "9f7543ba3e9e53a9e165d169f839cadf5a54a3cbde8012658743c702a3a96f30",
    "path-witness":
        "4eea0622d266cdecb07a86e88604de3686f55cd74c01bca88313673c87105206",
    "colored-path-witness":
        "96a9821e223d7f50c5d8c1816eafba112cde8760a91a50671ad59f93458c8752",
    "edge-coloring":
        "cd0b37cb9d192782a3f92e79b27ebba15c720c17e6fb15d5f9d4b9653a56aa5f",
    "graph":
        "fd375f512f6f95dfc773f4ab44320b9c8bfe58389960c4ea9c28e015ffce3aae",
}


@pytest.mark.parametrize("name", RENDERED)
def test_rendered_types_round_trip_and_keep_their_bytes(name):
    tree = as_tree(RENDERED[name]())
    text = render_kv(tree)
    assert parse_kv(text) == tree
    assert hashlib.sha256(text.encode()).hexdigest() == \
        RENDERED_SHA256[name]
