"""End-to-end command-line behavior: exit codes, both output formats,
input sources, and the structured-output round trip."""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from signedwiener.cli import CONSTRUCTIONS, load_input, load_witness, main
from signedwiener.distances import signed_distance_row
from signedwiener.graphs import (
    complete_bipartite_graph,
    complete_graph,
    emit_graph,
)
from signedwiener.reports import parse_kv, render_kv
from signedwiener.witnesses import certify, parse_witness


# sha256 of `threshold ARGS --format kv`; a change that should keep
# every row (holds, examined, witness) keeps these
THRESHOLD_KV_SHA256 = {
    "--k 1 --n-from 2 --n-to 5":
        "d667c7ab6d05843a4a78863faa0c70a0f379041af47da57e6fccc687fd1c5ee9",
    "--k 2 --n-from 3 --n-to 6":
        "0467a901d870b00b8c0d0a829563ea561b99a1469530f4d41aa8d3b68bb5fd0b",
    "--k 3 --n-from 4 --n-to 7":
        "8b0e5aa41a6ea34595e496b86fdbaa6e2fb149fc474fdb2220bfa5f97d91d28e",
    "--r 3 --k 1 --n-from 2 --n-to 5":
        "30922103661485566cbab39c7c77f31dfb4440aeec33736d70c5e6b75a3defa0",
    "--r 3 --k 1 --n-from 2 --n-to 5 --threads 2":
        "30922103661485566cbab39c7c77f31dfb4440aeec33736d70c5e6b75a3defa0",
    "--r 3 --k 2 --n-from 3 --n-to 7":
        "386cb5a7f7691a2eb11c0e990de34920b53d5ee0ca787b23b6933dcb357c2a5b",
    "--r 4 --k 1 --n-from 2 --n-to 5":
        "49de0599fc64e5dd4768986a5d35d7a72db31b9877d9c1e830e52691a3064c68",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def k5_witness(tmp_path, capsys):
    path = tmp_path / "k5.txt"
    code = main(["construct", "complete-cyclic", "5",
                 "--emit-witness", str(path)])
    assert code == 0
    capsys.readouterr()
    return str(path)


@pytest.fixture
def k6_rk_witness(tmp_path, capsys):
    path = tmp_path / "k6_rk.txt"
    code = main(["construct", "complete-rk", "6", "3", "2",
                 "--emit-witness", str(path)])
    assert code == 0
    capsys.readouterr()
    return str(path)


class TestExitCodes:
    def test_module_entry_point(self):
        # an uninstalled checkout reaches the CLI as python -m signedwiener
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "signedwiener", "--help"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "usage:" in proc.stdout

    def test_check_holds(self, capsys, k5_witness):
        code, out, _ = run_cli(capsys, "check", "--k", "2", k5_witness)
        assert code == 0
        assert "2-canceling: yes" in out

    def test_check_fails_with_certificate(self, capsys, tmp_path):
        path = tmp_path / "k4.txt"
        main(["construct", "complete-cyclic", "4",
              "--emit-witness", str(path)])
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "check", "--k", "2", str(path))
        assert code == 1
        assert "certificate: delete" in out

    def test_check_colored_holds(self, capsys, k6_rk_witness):
        code, out, _ = run_cli(capsys, "check-colored", k6_rk_witness,
                               "--r", "3", "--k", "2")
        assert code == 0
        assert "(3,2)-canceling: yes" in out

    def test_check_colored_fails_with_certificate(self, capsys, tmp_path):
        path = tmp_path / "k4_mono.txt"
        path.write_text("4 6\n" + "".join(
            f"{u} {v} 1\n" for u in range(4) for v in range(u + 1, 4)))
        code, out, _ = run_cli(capsys, "check-colored", str(path),
                               "--r", "3", "--k", "1")
        assert code == 1
        assert "certificate: delete [], pair (0,1)" in out

    def test_filter_failure_names_condition(self, capsys):
        code, out, _ = run_cli(capsys, "filter", "--k", "1",
                               "family:cycle:11")
        assert code == 1
        assert "edge count 11 < 13" in out

    def test_soltes_c11(self, capsys):
        code, out, _ = run_cli(capsys, "soltes", "family:cycle:11")
        assert code == 0
        assert "deletion-invariant: yes" in out

    def test_soltes_c9(self, capsys):
        code, _, _ = run_cli(capsys, "soltes", "family:cycle:9")
        assert code == 1

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "nosuch"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    def test_bad_file_is_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "wiener",
                               str(tmp_path / "missing.txt"))
        assert code == 2
        assert "error:" in err

    def test_dist_vertex_out_of_range_is_2(self, capsys):
        for u, v in (("0", "-1"), ("0", "99"), ("-1", "0")):
            code, out, err = run_cli(capsys, "dist", "fixture:theta4", u, v)
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and "out of range" in err

    def test_dist_bad_source_is_2(self, capsys):
        code, out, err = run_cli(capsys, "dist", "fixture:theta4", "-1", "0")
        assert code == 2 and out == ""
        assert err == "error: vertex -1 out of range 0..5\n"

    def test_dist_bad_target_is_2(self, capsys):
        code, out, err = run_cli(capsys, "dist", "fixture:theta4", "0", "-1")
        assert code == 2 and out == ""
        assert err == "error: vertex -1 out of range 0..5\n"

    def test_flags_only_where_read(self, capsys):
        for argv in (["wiener", "family:cycle:5", "--threads", "4"],
                     ["dyck", "--n", "3", "--max-n", "9"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, "threshold", "--k", "1",
                               "--n-from", "3", "--n-to", "4",
                               "--threads", "2")
        assert code == 0 and "n=4: canceling" in out

    def test_threads_below_one_is_2(self, capsys):
        for argv in (["threshold", "--k", "1", "--n-from", "3", "--n-to", "4"],
                     ["trees", "--conjecture", "sandwich", "--n", "5"]):
            for threads in ("0", "-1"):
                with pytest.raises(SystemExit) as exc:
                    main([*argv, "--threads", threads])
                assert exc.value.code == 2
                out, err = capsys.readouterr()
                assert out == "" and err.splitlines()[-1].endswith(
                    f"error: argument --threads: must be an integer >= 1, "
                    f"got '{threads}'")

    def test_threshold_empty_range_is_2(self, capsys):
        code, out, err = run_cli(capsys, "threshold", "--k", "2",
                                 "--n-from", "6", "--n-to", "5")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "empty range" in err

    def test_missing_signs_is_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "--k", "1",
                               "family:cycle:5")
        assert code == 2
        assert "no edge signs" in err


class TestInputSources:
    def test_family(self, capsys):
        code, out, _ = run_cli(capsys, "wiener", "family:path:4")
        assert code == 0 and "classical wiener = 10" in out

    def test_family_multi_parameter(self, capsys):
        code, out, _ = run_cli(capsys, "wiener",
                               "family:complete-bipartite:2,3")
        assert code == 0

    def test_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "fixture:p6sq", "0", "5")
        assert code == 0 and "d(0,5) = 0" in out

    def test_stdin(self, capsys, monkeypatch, k5_witness):
        with open(k5_witness) as fh:
            text = fh.read()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, _ = run_cli(capsys, "check", "--k", "2", "-")
        assert code == 0

    def test_malformed_family(self, capsys):
        code, _, err = run_cli(capsys, "wiener", "family:cycle")
        assert code == 2

    def test_claim_comment_read_only_by_construct(self, capsys, k5_witness,
                                                  tmp_path):
        path = tmp_path / "bad_claim.txt"
        with open(k5_witness) as fh:
            text = fh.read()
        path.write_text(text.replace("claim: ", "claim: bogus "))
        assert load_input(str(path)).label == str(path)
        code, out, _ = run_cli(capsys, "wiener", str(path))
        assert code == 0 and out == "signed wiener = 0\n"
        code, _, err = run_cli(capsys, "construct", "subdivide", str(path),
                               "0", "1")
        assert code == 2 and "claim" in err

    def test_load_witness_accepts_bare_tag(self):
        assert load_witness("theta4").name == "special-theta4"


class TestCompute:
    def test_dist_infinite(self, capsys, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("3 1\n0 1 +\n")
        code, out, _ = run_cli(capsys, "dist", str(path), "0", "2")
        assert code == 0 and "d(0,2) = inf" in out

    @pytest.mark.parametrize("g, signs", [
        (complete_bipartite_graph(3, 3), (1, -1, -1, 1, 1, -1, -1, 1, 1)),
        (complete_graph(5), (-1,) * 10),
    ])
    def test_dist_equals_row_value(self, capsys, tmp_path, g, signs):
        # dist asks the one-pair question, which stops at v's floor;
        # both formats must print the full row's value
        path = tmp_path / "g.txt"
        path.write_text(emit_graph(g, ("+" if s == 1 else "-"
                                       for s in signs)))
        for u in range(g.n):
            row = signed_distance_row(g, signs, u)
            for v in range(g.n):
                _, text, _ = run_cli(capsys, "dist", str(path), str(u), str(v))
                assert text == f"d({u},{v}) = {row[v]}\n"
                _, kv, _ = run_cli(capsys, "dist", str(path), str(u), str(v),
                                   "--format", "kv")
                assert parse_kv(kv)["distance"] == row[v]

    def test_wiener_signed_vs_classical(self, capsys):
        _, signed, _ = run_cli(capsys, "wiener", "fixture:theta4")
        _, classical, _ = run_cli(capsys, "wiener", "--classical",
                                  "fixture:theta4")
        assert "signed wiener = 0" in signed
        assert "classical wiener = 22" in classical

    def test_min_wiener(self, capsys):
        code, out, _ = run_cli(capsys, "min-wiener", "family:path:3")
        assert code == 0 and "minimum signed wiener = 2" in out

    def test_dyck_table(self, capsys):
        code, out, _ = run_cli(capsys, "dyck", "--n", "2")
        assert code == 0
        assert " 6  1" in out and "10  1" in out

    def test_threshold_rows(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--k", "1",
                               "--n-from", "3", "--n-to", "4")
        assert code == 0
        assert "n=3: not canceling" in out
        assert "n=4: canceling" in out

    def test_trees_sandwich(self, capsys):
        code, out, _ = run_cli(capsys, "trees", "--conjecture", "sandwich",
                               "--n", "5")
        assert code == 0
        assert "lower bound holds, upper bound holds" in out


class TestSearch:
    def test_finds_seed_signing(self, capsys):
        code, out, _ = run_cli(capsys, "search", "family:complete:4",
                               "--k", "1", "--no-filter")
        assert code == 0
        assert "signs: 1 1 -1 -1 1 -1" in out

    def test_filter_reject(self, capsys):
        code, out, _ = run_cli(capsys, "search", "family:cycle:5",
                               "--k", "1")
        assert code == 1
        assert "necessary conditions" in out

    def test_exhaustive_negative(self, capsys):
        code, out, _ = run_cli(capsys, "search", "family:cycle:5",
                               "--k", "1", "--no-filter")
        assert code == 1
        assert "among 16 candidates" in out

    def test_emit_witness(self, capsys, tmp_path):
        path = tmp_path / "found.txt"
        code, _, _ = run_cli(capsys, "search", "family:complete:4",
                             "--k", "1", "--no-filter",
                             "--emit-witness", str(path))
        assert code == 0
        w = parse_witness(path.read_text())
        assert w.claim.kind == "k-canceling" and certify(w).ok

    def test_guard_blocks(self, capsys):
        code, _, err = run_cli(capsys, "search", "family:complete:8",
                               "--k", "1", "--no-filter")
        assert code == 2
        assert err.count("\n") == 1 and "candidate bits" in err
        assert "pass a larger --max-edges to override" in err

    def test_max_edges_counts_colored_edges(self, capsys):
        # K_5 has 10 edges; its 3-colorings need ceil(10 log2 3) = 16 bits
        row = ("threshold", "--r", "3", "--k", "2", "--n-from", "5",
               "--n-to", "5")
        code, out, _ = run_cli(capsys, *row, "--max-edges", "10")
        assert code == 0 and "n=5: not canceling" in out
        code, out, err = run_cli(capsys, *row, "--max-edges", "9")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err == (
            "error: threshold scan at n=5 needs 16 candidate bits, guard "
            "allows 15; pass a larger --max-edges to override\n")

    def test_guard_refusal_from_workers(self, capsys):
        # the n=5 row is refused inside a scan worker process
        code, out, err = run_cli(capsys, "threshold", "--r", "3", "--k", "2",
                                 "--n-from", "4", "--n-to", "5",
                                 "--max-edges", "9", "--threads", "2")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "pass a larger --max-edges to override" in err

    def test_size_guard_names_its_flag(self, capsys, tmp_path):
        path = tmp_path / "p25.txt"
        path.write_text("25 24\n" + "".join(f"{i} {i + 1} +\n"
                                              for i in range(24)))
        code, _, err = run_cli(capsys, "wiener", str(path))
        assert code == 2 and err.count("\n") == 1
        assert "pass a larger --max-n to override" in err
        witness = tmp_path / "sq25.txt"
        code, _, _ = run_cli(capsys, "construct", "square-path", "25",
                             "--emit-witness", str(witness))
        assert code == 0
        code, _, err = run_cli(capsys, "construct", "subdivide",
                               str(witness), "0", "1")
        assert code == 2 and err.count("\n") == 1
        assert "construct has no --max-n to override it" in err

    def test_guard_override_warns(self, capsys):
        code, _, err = run_cli(capsys, "search", "family:complete:8",
                               "--k", "1", "--no-filter",
                               "--max-edges", "30")
        assert code == 0
        assert "may take a long time" in err

    @pytest.mark.parametrize("argv, reason", [
        (("dist", "fixture:theta4", "0", "9"), "vertex 9 out of range"),
        (("check", "fixture:theta4", "--k", "0"), "k must be >= 1"),
        (("check", "fixture:theta4", "--k", "6"), "needs n >= k+1"),
        (("search", "fixture:theta4", "--k", "0"), "k must be >= 1"),
        (("threshold", "--r", "1", "--k", "2", "--n-from", "3",
          "--n-to", "4"), "r must be >= 2"),
    ])
    def test_loosened_guard_refusal_is_one_line(self, capsys, argv, reason):
        code, out, err = run_cli(capsys, *argv, "--max-n", "30")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert reason in err

    def test_loosened_guard_that_still_refuses_is_one_line(self, capsys,
                                                           tmp_path):
        path = tmp_path / "p40.txt"
        path.write_text("40 39\n" + "".join(f"{i} {i + 1} +\n"
                                              for i in range(39)))
        code, _, err = run_cli(capsys, "wiener", str(path), "--max-n", "30")
        assert code == 2 and err.count("\n") == 1
        assert "pass a larger --max-n to override" in err
        # K_8 needs 27 signing bits; --max-edges 25 loosens the guard to
        # 24 bits, still too few
        code, _, err = run_cli(capsys, "search", "family:complete:8",
                               "--k", "1", "--no-filter",
                               "--max-edges", "25")
        assert code == 2 and err.count("\n") == 1
        assert "candidate bits" in err

    @staticmethod
    def path_file(tmp_path, n, label="+"):
        path = tmp_path / f"p{n}.txt"
        path.write_text(f"{n} {n - 1}\n" + "".join(
            f"{i} {i + 1} {label(i) if callable(label) else label}\n"
            for i in range(n - 1)))
        return str(path)

    def test_override_warns_against_the_guard_that_runs(self, capsys,
                                                         tmp_path):
        # two colors run under the signed guard (24), three under the
        # colored one (16): --max-n 30 admits P_20 past only the latter
        for r, warns in ((2, False), (3, True)):
            path = self.path_file(tmp_path, 20, lambda i: i % r + 1)
            code, _, err = run_cli(capsys, "check-colored", path,
                                   "--r", str(r), "--k", "1",
                                   "--max-n", "30")
            assert code == 1
            assert err.startswith("guard override in effect") == warns
            assert err.count("\n") == warns

    @pytest.mark.parametrize("argv", [
        ("dist", "{p25}", "0", "24"),
        ("wiener", "{p25}"),
        ("soltes", "{p25}", "--signed"),
        # k = 2 guards the 25-vertex hosts left after one deletion, so
        # --max-n 25 admits a 26-vertex input
        ("check", "{p26}", "--k", "2"),
    ])
    def test_loosened_guard_warns_once_before_the_answer(self, capsys,
                                                          tmp_path, argv):
        files = {"p25": self.path_file(tmp_path, 25),
                 "p26": self.path_file(tmp_path, 26)}
        argv = [a.format(**files) for a in argv]
        code, out, err = run_cli(capsys, *argv, "--max-n", "25")
        assert code in (0, 1) and out
        assert err.count("\n") == 1
        assert err.startswith("guard override in effect: ")
        assert err.endswith("; this may take a long time\n")

    def test_override_within_the_default_stays_silent(self, capsys):
        # theta4 has 10 vertices, inside the default guard, so a
        # loosened --max-n admits nothing new
        code, out, err = run_cli(capsys, "wiener", "fixture:theta4",
                                 "--max-n", "30")
        assert code == 0 and out and err == ""


class TestConstruct:
    def test_output_parses_and_certifies(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "square-path", "9")
        assert code == 0
        w = parse_witness(out)
        assert w.claim.kind == "w-zero" and certify(w).ok

    def test_subdivide_by_designated_edge(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "subdivide",
                               "g_small_even", "designated", "2")
        assert code == 0
        w = parse_witness(out)
        assert w.graph.n == 8 and certify(w).ok

    def test_union_of_tags(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "union",
                               "theta4", "theta4", "4", "4")
        assert code == 0
        assert parse_witness(out).graph.n == 11

    def test_square_tree_from_family(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "square-tree",
                               "family:star:6")
        assert code == 0
        assert "w-zero" in out

    @pytest.mark.parametrize("argv", [
        ("bipartite-cliques", "family:complete-bipartite:3,3", "1"),
        ("blowup", "1", "1", "2", "2", "2"),
        ("special", "theta4"),
        ("square-cycle", "8"),
    ])
    def test_construction_certifies(self, capsys, argv):
        code, out, err = run_cli(capsys, "construct", *argv)
        assert code == 0 and err == ""
        assert certify(parse_witness(out)).ok

    @pytest.mark.parametrize("argv, reason", [
        (("construct", "special"), "special takes TAG"),
        (("construct", "special", "theta4", "c7sq"), "special takes TAG"),
        (("construct", "subdivide", "theta4", "0"),
         "subdivide takes SOURCE EDGE I"),
        (("construct", "union", "theta4", "theta4", "4"),
         "union takes SOURCE SOURCE V1 V2"),
        (("construct", "bipartite-cliques", "family:complete-bipartite:3,3"),
         "bipartite-cliques takes SOURCE K"),
        (("construct", "blowup", "1", "1"), "blowup takes T K SIZE..."),
        (("construct", "subdivide", "theta4", "designated", "1"),
         "special-theta4 has no designated edge"),
        (("check-colored", "fixture:theta4", "--r", "2", "--k", "1"),
         "input special-theta4 carries no edge colors"),
        (("construct", "square-path", "3", "4"), "square-path takes N"),
    ])
    def test_refusal_is_one_line(self, capsys, argv, reason):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {reason}\n"

    @pytest.mark.parametrize("line, token", [
        ("# claim: w-zero expected=false exceptional-pair=1",
         "exceptional-pair=1"),
        ("# claim: w-zero expected=false exceptional-pair=1,x",
         "exceptional-pair=1,x"),
        ("# claim: k-canceling k=x", "k=x"),
        ("# claim: rk-canceling r= k=2", "r="),
        ("# claim: w-zero\n# designated-edge: x", "designated-edge: x"),
    ])
    def test_malformed_witness_token_is_named(self, capsys, tmp_path, line,
                                              token):
        text = (Path(__file__).parent.parent / "src" / "signedwiener"
                / "fixtures" / "theta4.txt").read_text()
        path = tmp_path / "bad.txt"
        path.write_text(text.replace("# claim: w-zero", line))
        code, out, err = run_cli(capsys, "construct", "union", str(path),
                                 "theta4", "0", "0")
        assert code == 2 and out == ""
        assert err == f"error: malformed witness token {token!r}\n"

    def test_bad_parameter_count(self, capsys):
        code, _, err = run_cli(capsys, "construct", "square-path")
        assert code == 2
        assert err == "error: square-path takes N\n"

    def test_unknown_name_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "nonsense", "3"])
        assert exc.value.code == 2

    def test_below_domain_is_2(self, capsys):
        code, _, err = run_cli(capsys, "construct", "complete-rk",
                               "5", "3", "2")
        assert code == 2
        assert "needs n >= 6" in err


class TestReadme:
    TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def test_quick_start_lines_exit_0(self, capsys, tmp_path, monkeypatch):
        # in order and in one directory: a later line reads w.txt
        block = self.TEXT.split("## Quick start (command line)")[1]
        lines = [line.split("#")[0].split()
                 for line in block.split("```")[1].splitlines()
                 if line.startswith("signedwiener ")]
        assert len(lines) == 9
        monkeypatch.chdir(tmp_path)
        for argv in lines:
            assert main(argv[1:]) == 0, " ".join(argv)
            capsys.readouterr()

    def test_every_construction_is_listed_with_its_usage(self):
        for name, (usage, _) in CONSTRUCTIONS.items():
            assert f"`{name} {usage}`" in self.TEXT


class TestStructuredOutput:
    def round_trip(self, capsys, *argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "kv")
        tree = parse_kv(out)
        assert render_kv(tree) == out
        return code, tree

    def test_check(self, capsys, k5_witness):
        code, tree = self.round_trip(capsys, "check", "--k", "2",
                                     k5_witness)
        assert code == 0
        assert tree["holds"] is True and tree["k"] == 2

    def test_check_certificate(self, capsys, tmp_path):
        path = tmp_path / "k4.txt"
        main(["construct", "complete-cyclic", "4",
              "--emit-witness", str(path)])
        capsys.readouterr()
        _, tree = self.round_trip(capsys, "check", "--k", "2", str(path))
        deleted, u, v = tree["certificate"]
        assert isinstance(deleted, list) and isinstance(u, int)

    def test_check_colored(self, capsys, k6_rk_witness):
        code, tree = self.round_trip(capsys, "check-colored", k6_rk_witness,
                                     "--r", "3", "--k", "2")
        assert code == 0
        assert tree["r"] == 3 and tree["k"] == 2 and tree["holds"] is True

    def test_filter(self, capsys):
        code, tree = self.round_trip(capsys, "filter", "--k", "1",
                                     "family:cycle:11")
        assert code == 1
        assert tree["passes"] is False and tree["edge_count"] == 11

    @pytest.mark.parametrize("argv, code, out", [
        (("family:cycle:11",), 1,
         "k = 1\nk_connected = true\nhas_odd_cycle = true\n"
         "min_degree = 2\nrequired_min_degree = 2\nedge_count = 11\n"
         "required_edges = 13\nmin_degree_ok = true\n"
         "edge_count_ok = false\npasses = false\n"),
        (("family:complete:5", "--k", "2"), 0,
         "k = 2\nk_connected = true\nhas_odd_cycle = true\n"
         "min_degree = 4\nrequired_min_degree = 3\nedge_count = 10\n"
         "required_edges = 10\nmin_degree_ok = true\n"
         "edge_count_ok = true\npasses = true\n"),
    ], ids=["cycle-11-fails", "complete-5-k2-passes"])
    def test_filter_output(self, capsys, argv, code, out):
        assert run_cli(capsys, "filter", *argv, "--format", "kv") == \
            (code, out, "")

    def test_threads_keep_output(self, capsys):
        # N processes run the same scans in the same order
        for argv in (["threshold", "--k", "1", "--n-from", "2", "--n-to", "5"],
                     ["trees", "--conjecture", "sandwich", "--n", "7"],
                     ["trees", "--conjecture", "double-star", "--n", "8"]):
            one, four = (run_cli(capsys, *argv, "--format", "kv",
                                 "--threads", threads)[1]
                         for threads in ("1", "4"))
            assert one and one == four

    @pytest.mark.parametrize("args", THRESHOLD_KV_SHA256, ids=lambda args:
                             args.replace(" ", ""))
    def test_threshold_rows_are_pinned(self, capsys, args):
        code, out, _ = run_cli(capsys, "threshold", *args.split(),
                               "--format", "kv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            THRESHOLD_KV_SHA256[args], out

    def test_threshold(self, capsys):
        _, tree = self.round_trip(capsys, "threshold", "--k", "1",
                                  "--n-from", "3", "--n-to", "4")
        assert tree["rows"][0]["n"] == 3
        assert tree["rows"][0]["holds"] is False
        assert tree["rows"][1]["holds"] is True

    def test_soltes_infinite_entries(self, capsys, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        _, tree = self.round_trip(capsys, "soltes", str(path))
        assert tree["deleted"][1] == float("inf")

    def test_trees(self, capsys):
        code, tree = self.round_trip(capsys, "trees", "--conjecture",
                                     "double-star", "--n", "8")
        assert code == 0
        assert tree["star_only_upper_holds"] is False
        assert tree["best_double_star"] == [3, 3]

    def test_dyck(self, capsys):
        _, tree = self.round_trip(capsys, "dyck", "--n", "3")
        assert tree["total"] == 5
        assert {row["wiener"]: row["count"] for row in tree["rows"]} == \
            {12: 1, 18: 2, 20: 1, 28: 1}

    def test_search(self, capsys):
        _, tree = self.round_trip(capsys, "search", "family:complete:4",
                                  "--k", "1", "--no-filter")
        assert tree["found"] is True
        assert tree["witness"]["signs"] == [1, 1, -1, -1, 1, -1]


class TestReproduce:
    def test_core_passes(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "core")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert all(ln.startswith("PASS") for ln in lines[:-1])
        assert lines[-1].startswith("core: all checks passed")

    def test_core_kv(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "core",
                               "--format", "kv")
        tree = parse_kv(out)
        assert code == 0 and tree["ok"] is True
        assert all(row["ok"] is True for row in tree["rows"])
