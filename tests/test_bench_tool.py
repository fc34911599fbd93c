"""The summary step of tools/bench.py on canned run.py outputs; no
benchmark runs here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench", ROOT / "tools"
                                              / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

METRICS = [{"name": "job_p90_s", "better": "lower", "bound": 0.25},
           {"name": "work_per_s", "better": "higher", "bound": 0.25}]


def report(p90: float, rate: float, passes: int = 7, correct: bool = True,
           failed: int = 0) -> str:
    """A run.py report as it prints one: fingerprint first, the pass
    line among the rest, the JSON result last."""
    result = {"correct": correct, "attempted": 20, "failed": failed,
              "metrics": {"job_p90_s": {"value": p90, "unit": "s"},
                          "work_per_s": {"value": rate, "unit": "1/s"}}}
    return "\n".join([
        "machine=x86_64 nproc=2 python=3.11.7 code=sha256:0123456789abcdef",
        "pass seconds: 1.0 1.1; checks took 0.1 s",
        f"workload=certify seed=3 trace=0 passes={passes} jobs=10 "
        f"samples=20 failed=0 fail_ratio=0",
        "  job_p90_s                          0.5 s",
        json.dumps(result)]) + "\n"


def test_parse_run_reads_fingerprint_passes_and_metrics():
    run = bench.parse_run(report(0.5, 200.0, passes=31))
    assert run == {
        "fingerprint": "machine=x86_64 nproc=2 python=3.11.7 "
                       "code=sha256:0123456789abcdef",
        "passes": 31, "correct": True, "attempted": 20, "failed": 0,
        "metrics": {"job_p90_s": 0.5, "work_per_s": 200.0}}


def runs_of(pairs, workload="certify"):
    """Runs from (parent, change) pairs of (p90, rate)."""
    runs = []
    for i, sides in enumerate(pairs):
        for side, (p90, rate) in zip(bench.SIDES, sides):
            runs.append({"workload": workload, "seed": 100 + i,
                         "side": side, **bench.parse_run(report(p90, rate))})
    return runs


def test_summary_counts_wins_by_each_metrics_direction():
    runs = runs_of([((4.0, 100.0), (2.0, 150.0)),
                    ((5.0, 100.0), (3.0, 100.0)),
                    ((6.0, 120.0), (7.0, 90.0)),
                    ((3.0, 110.0), (2.0, 130.0))])
    table = bench.summarize(runs, METRICS)["certify"]
    assert table["pairs"] == 4
    p90 = table["metrics"]["job_p90_s"]
    assert (p90["won"], p90["lost"], p90["tied"]) == (3, 1, 0)
    assert p90["parent"] == {"median": 4.5, "q1": 3.75, "q3": 5.25}
    assert p90["change"] == {"median": 2.5, "q1": 2.0, "q3": 4.0}
    assert p90["change_pct"] == pytest.approx(-100 * 2 / 4.5)
    rate = table["metrics"]["work_per_s"]
    assert (rate["won"], rate["lost"], rate["tied"]) == (2, 1, 1)
    assert rate["better"] == "higher"


def test_summary_keeps_workloads_apart_and_drops_unpaired_runs():
    runs = runs_of([((1.0, 10.0), (1.0, 10.0))]) + runs_of(
        [((2.0, 5.0), (1.0, 6.0))], workload="distance-sweep")
    runs.append({**runs[0], "seed": 999})  # a parent run with no change
    summary = bench.summarize(runs, METRICS)
    assert list(summary) == ["certify", "distance-sweep"]
    single = summary["certify"]["metrics"]["job_p90_s"]
    assert summary["certify"]["pairs"] == 1
    assert (single["won"], single["lost"], single["tied"]) == (0, 0, 1)
    assert single["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert summary["distance-sweep"]["metrics"]["job_p90_s"]["won"] == 1


def test_summary_reports_each_sides_median_passes():
    # peak_rss_mb grows with the passes of a run, so the summary keeps
    # each side's median pass count beside the metrics; an unpaired
    # run counts for neither side
    runs = []
    for i, counts in enumerate([(9, 12), (8, 13), (10, 11), (9, 25)]):
        for side, passes in zip(bench.SIDES, counts):
            runs.append({"workload": "exhaustive-search", "seed": i,
                         "side": side,
                         **bench.parse_run(report(1.0, 1.0, passes))})
    runs.append({**runs[0], "seed": 999, "passes": 100})
    summary = bench.summarize(runs, METRICS)["exhaustive-search"]
    assert summary["pairs"] == 4
    assert summary["passes"] == {"parent": 9, "change": 12.5}


def test_summary_counts_incorrect_runs_and_failed_share():
    # run.py exits 0 on wrong answers, so the summary must show them;
    # an unpaired run still counts for its side
    runs = []
    for i, (correct, failed) in enumerate([(True, 0), (False, 2),
                                           (True, 1)]):
        for side in bench.SIDES:
            wrong = side == "change" and not correct
            runs.append({"workload": "certify", "seed": i, "side": side,
                         **bench.parse_run(report(
                             1.0, 1.0, correct=not wrong,
                             failed=failed if side == "change" else 0))})
    runs.append({**runs[0], "seed": 999, "correct": False, "failed": 5})
    summary = bench.summarize(runs, METRICS)["certify"]
    assert summary["incorrect"] == {"parent": 1, "change": 1}
    assert summary["failed_share"] == {"parent": 5 / 80, "change": 3 / 60}


@pytest.fixture
def timed(monkeypatch, tmp_path):
    """main run in tmp_path as the change's tree, with git, the export
    and the whole-system runner stubbed; the list it returns collects
    the (tree, arguments) of each whole-system run, each taking 2 s in
    the change's tree and 3 s in the parent's, and the tier1 run in the
    parent's exiting 1."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "certify"}],
        "end_to_end": METRICS}))
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench, "_export", lambda ref, into: None)
    calls = []

    def run(tree, args):
        calls.append((tree, args))
        change = tree == tmp_path
        return {"seconds": 2.0 if change else 3.0,
                "exit": int(not change and "pytest" in args)}

    monkeypatch.setattr(bench, "_time", run)
    return calls


def test_incorrect_run_fails_the_tool_after_writing(monkeypatch, tmp_path,
                                                    timed):
    for wrong, code in ((False, 0), (True, 1)):
        # the change runs in ROOT, the parent in the exported tree
        monkeypatch.setattr(bench, "_run", lambda tree, *args: (
            bench.parse_run(report(1.0, 1.0, correct=not (
                wrong and tree == tmp_path)))))
        assert bench.main(["--pr", "0", "--parent", "HEAD",
                           "--seeds", "1", "2"]) == code
        written = json.loads((tmp_path / "BENCH_0.json").read_text())
        assert written["summary"]["certify"]["incorrect"] == {
            "parent": 0, "change": 2 * wrong}


@pytest.mark.parametrize("parent, change, flagged", [
    # job_p90_s lower is better, work_per_s higher; both bounds 25%
    ((4.0, 100.0), (5.0, 75.0), (False, False)),   # worse by exactly 25%
    ((4.0, 100.0), (5.2, 70.0), (True, True)),     # worse by 30%
    ((4.0, 100.0), (2.0, 400.0), (False, False)),  # better, by any amount
], ids=["at the bound", "past the bound", "better"])
def test_summary_flags_metrics_worse_than_their_bound(parent, change,
                                                      flagged):
    table = bench.summarize(runs_of([(parent, change)] * 3),
                            METRICS)["certify"]["metrics"]
    assert (table["job_p90_s"]["over_bound"],
            table["work_per_s"]["over_bound"]) == flagged
    assert table["job_p90_s"]["bound"] == 0.25


@pytest.mark.parametrize("change, beyond", [
    # parent job_p90_s 3.0-5.0 (q1 3.5, q3 4.5), work_per_s 100-140
    # (q1 110, q3 130); lower p90 and higher rate are better
    ((3.4, 131.0), (True, True)),     # past the better quartile
    ((3.5, 130.0), (False, False)),   # at it
    ((3.8, 120.0), (False, False)),   # better, but inside the spread
    ((4.6, 105.0), (False, False)),   # past the worse quartile
], ids=["past", "at", "inside", "worse"])
def test_summary_marks_gains_beyond_the_parents_spread(change, beyond):
    parents = [(3.0, 100.0), (3.5, 110.0), (4.0, 120.0), (4.5, 130.0),
               (5.0, 140.0)]
    table = bench.summarize(runs_of([(p, change) for p in parents]),
                            METRICS)["certify"]["metrics"]
    assert (table["job_p90_s"]["parent"]["q1"],
            table["work_per_s"]["parent"]["q3"]) == (3.5, 130.0)
    assert (table["job_p90_s"]["beyond_spread"],
            table["work_per_s"]["beyond_spread"]) == beyond


def test_over_bound_metrics_are_listed_on_stderr(monkeypatch, tmp_path,
                                                 capsys, timed):
    # the change (run in ROOT) is 50% slower at p90, no slower in rate
    monkeypatch.setattr(bench, "_run", lambda tree, *args: bench.parse_run(
        report(1.5 if tree == tmp_path else 1.0, 100.0)))
    assert bench.main(["--pr", "0", "--parent", "HEAD",
                       "--seeds", "1", "2"]) == 0
    err = capsys.readouterr().err
    assert "over bound: certify job_p90_s +50.0% (bound 25%)" in err
    assert "work_per_s" not in err
    written = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert written["summary"]["certify"]["metrics"]["job_p90_s"][
        "over_bound"] is True


def test_whole_system_times_each_command_per_side_and_seed(
        monkeypatch, tmp_path, timed):
    monkeypatch.setattr(bench, "_run", lambda tree, *args: bench.parse_run(
        report(1.0, 100.0)))
    assert bench.main(["--pr", "0", "--parent", "HEAD",
                       "--seeds", "1", "2", "3"]) == 0
    names = list(bench.WHOLE_SYSTEM)
    assert names == ["reproduce core", "reproduce exhaustive",
                     "reproduce conjectures", "tier1"]
    # per seed, each command once per side, the side going first
    # alternating from seed to seed
    sides = ["change" if tree == tmp_path else "parent"
             for tree, _ in timed]
    assert sides == (["parent", "change"] * 4 + ["change", "parent"] * 4
                     + ["parent", "change"] * 4)
    assert [args for _, args in timed[:8:2]] == list(
        bench.WHOLE_SYSTEM.values())
    whole = json.loads((tmp_path / "BENCH_0.json").read_text())[
        "whole_system"]
    assert len(whole["runs"]) == 24
    assert whole["runs"][0] == {"name": "reproduce core", "seed": 1,
                                "side": "parent", "seconds": 3.0, "exit": 0}
    assert list(whole["summary"]) == names
    for name in names:
        assert whole["summary"][name] == {
            "parent": {"median": 3.0, "q1": 3.0, "q3": 3.0,
                       "failed": 3 if name == "tier1" else 0},
            "change": {"median": 2.0, "q1": 2.0, "q3": 2.0, "failed": 0}}


def test_whole_system_summary_spreads_each_sides_times():
    runs = [{"name": "tier1", "seed": seed, "side": side,
             "seconds": seconds, "exit": 0}
            for seed, (parent, change) in enumerate(
                [(20.0, 21.0), (22.0, 25.0), (24.0, 23.0)])
            for side, seconds in zip(bench.SIDES, (parent, change))]
    assert bench.summarize_whole_system(runs) == {"tier1": {
        "parent": {"median": 22.0, "q1": 21.0, "q3": 23.0, "failed": 0},
        "change": {"median": 23.0, "q1": 22.0, "q3": 24.0, "failed": 0}}}


def test_failed_run_is_kept_and_the_rest_go_on(monkeypatch, tmp_path,
                                               timed):
    # the change's run.py crashes on seed 2 of certify; a failed run
    # used to end the tool, and with it every run made so far
    def run(argv, cwd, **kwargs):
        seed = argv[argv.index("--seed") + 1]
        if cwd == tmp_path and seed == "2":
            return subprocess.CompletedProcess(
                argv, 3, "".join(f"line {i}\n" for i in range(30)),
                "Traceback (most recent call last):\nBoom\n")
        return subprocess.CompletedProcess(argv, 0, report(1.0, 1.0), "")

    monkeypatch.setattr(bench.subprocess, "run", run)
    assert bench.main(["--pr", "0", "--parent", "HEAD",
                       "--seeds", "1", "2", "3"]) == 1
    written = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert [(r["seed"], r["side"]) for r in written["runs"]] == [
        (1, "parent"), (1, "change"), (2, "parent"),
        (3, "parent"), (3, "change")]
    [failed] = written["failed_runs"]
    assert failed == {
        "workload": "certify", "seed": 2, "side": "change",
        "first": "change", "exit": 3,
        "tail": "\n".join([f"line {i}" for i in range(12, 30)]
                          + ["Traceback (most recent call last):",
                             "Boom"])}
    assert written["summary"]["certify"]["pairs"] == 2


def test_summary_of_a_workload_without_pairs_is_written():
    runs = runs_of([((1.0, 10.0), (1.0, 10.0))])
    summary = bench.summarize(runs[:1], METRICS)["certify"]
    assert summary["pairs"] == 0
    assert summary["metrics"] == {} and summary["passes"] is None
