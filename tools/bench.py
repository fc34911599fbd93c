"""Benchmark a change against its parent commit: alternating pairs of
runs of the benchmark, summarized into BENCH_<pr>.json.

Run from the repository root:

    python3 tools/bench.py --pr N --parent HEAD --seeds 4101 4102 4103

The parent ref is exported with git archive into a temporary
directory, removed again at the end; the change is the working tree.  Every workload of
BENCHMARK.json runs one pair per seed: each tree's own, unchanged
perfbench/run.py once, for the benchmark's run_seconds.  The side that
runs first alternates from seed to seed, so a slow stretch of the host
falls on both sides alike.  The output keeps every run (its end-to-end
metrics, pass count and code fingerprint) and, per workload, each
side's median pass count and, per metric, both sides' median and
quartiles and how many pairs the change won.  The pass counts matter
for peak_rss_mb, which the benchmark's kept answers raise with every
pass.  Per workload and side it also counts the runs whose answer
checks failed and the share of failed operations; run.py exits 0 even
on wrong answers, so this tool exits 1, after writing the file, when
any run was incorrect.  A run whose run.py exits nonzero is kept
under failed_runs (workload, seed, side, exit code and the tail of
its output) and left out of the pairs, the next run goes on, and the
tool exits 1 after writing the file.  A metric whose change median is
worse than the parent median by more than its BENCHMARK.json bound
(relative, in the metric's better direction) is marked over_bound and
listed on stderr.
A metric whose change median is better than the parent's better
quartile (q1 when lower is better, q3 when higher is better) is marked
beyond_spread: the change median lies outside the parent's own
run-to-run spread, on the better side.

Under whole_system the output also keeps the wall time of each
reproduce suite and of the Tier-1 command: per seed, each command runs
once per side in a fresh process, the side that goes first
alternating as above, and per command each side gets the median and
quartiles of its times and a count of the runs that exited nonzero.
These times are descriptive only; no bound applies to them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# the lines of a failed run's output that its report keeps
TAIL_LINES = 20
# the whole-system commands, each run as python with these arguments
# from a tree's root with src on PYTHONPATH, as Tier-1 runs
WHOLE_SYSTEM = {
    **{f"reproduce {suite}": ["-m", "signedwiener", "reproduce", suite]
       for suite in ("core", "exhaustive", "conjectures")},
    "tier1": ["-m", "pytest", "-q", "--continue-on-collection-errors"],
}


def parse_run(text: str) -> dict:
    """The fingerprint, pass count and metrics of one run.py report:
    its first line is the fingerprint, one line carries passes=N, and
    the last line is the JSON result."""
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    fields = dict(word.split("=", 1) for line in lines
                  if " passes=" in line for word in line.split()
                  if "=" in word)
    return {"fingerprint": lines[0],
            "passes": int(fields["passes"]),
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: each side's median pass count, its incorrect runs
    and failed share (failed over attempted operations, over every run
    of that side, paired or not) and, per metric, each side's median
    and quartiles, the median's relative change, whether that change is
    worse than the metric's bound allows (over_bound), whether the
    change median is better than the parent's better quartile
    (beyond_spread), and the pairs the change won, lost or tied.  runs
    carry workload, seed, side, passes, correct, attempted, failed and
    metrics; metrics are BENCHMARK.json's end_to_end entries (name,
    better, bound)."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        sided = {side: [run for run in runs if run["workload"] == workload
                        and run["side"] == side] for side in SIDES}
        pairs: dict[int, dict] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["seed"], {})[run["side"]] = run
        pairs = [p for p in pairs.values() if len(p) == 2]
        # with every run of one side failed there is no pair, and no
        # metric or pass count to compare
        table = {}
        for spec in metrics if pairs else ():
            name, lower = spec["name"], spec["better"] == "lower"
            sides = {side: _spread([p[side]["metrics"][name] for p in pairs])
                     for side in SIDES}
            won = lost = 0
            for p in pairs:
                gain = p["parent"]["metrics"][name] - \
                    p["change"]["metrics"][name]
                gain = gain if lower else -gain
                won += gain > 0
                lost += gain < 0
            base, median = sides["parent"]["median"], \
                sides["change"]["median"]
            change_pct = 100 * (median - base) / base if base else None
            table[name] = {
                "better": spec["better"], "bound": spec["bound"], **sides,
                "change_pct": change_pct,
                "over_bound": change_pct is not None and
                (change_pct if lower else -change_pct) > 100 * spec["bound"],
                "beyond_spread": median < sides["parent"]["q1"] if lower
                else median > sides["parent"]["q3"],
                "won": won, "lost": lost, "tied": len(pairs) - won - lost}
        passes = {side: statistics.median(p[side]["passes"] for p in pairs)
                  for side in SIDES} if pairs else None
        incorrect, failed_share = {}, {}
        for side, own in sided.items():
            incorrect[side] = sum(not run["correct"] for run in own)
            attempted = sum(run["attempted"] for run in own)
            failed_share[side] = (sum(run["failed"] for run in own)
                                  / attempted if attempted else None)
        out[workload] = {"pairs": len(pairs), "passes": passes,
                         "incorrect": incorrect,
                         "failed_share": failed_share, "metrics": table}
    return out


def summarize_whole_system(runs: list[dict]) -> dict:
    """Per whole-system command, each side's median and quartiles of
    its wall times and its count of runs that exited nonzero.  runs
    carry name, side, seconds and exit."""
    out = {}
    for name in dict.fromkeys(run["name"] for run in runs):
        out[name] = {}
        for side in SIDES:
            own = [run for run in runs
                   if run["name"] == name and run["side"] == side]
            out[name][side] = {
                **_spread([run["seconds"] for run in own]),
                "failed": sum(run["exit"] != 0 for run in own)}
    return out


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(ref: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive,
                   check=True)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py report, parsed; or, when run.py exits nonzero, its
    exit code and the last TAIL_LINES lines of its output."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        output = (proc.stdout + proc.stderr).splitlines()
        return {"exit": proc.returncode,
                "tail": "\n".join(output[-TAIL_LINES:])}
    return parse_run(proc.stdout)


def _time(tree: Path, args: list[str]) -> dict:
    """The wall time and exit code of python with args, run in a fresh
    process from tree with its src first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": "src" + (os.pathsep + path if path else "")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return {"seconds": time.perf_counter() - start,
            "exit": proc.returncode}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", required=True,
                   help="number naming the output file BENCH_<pr>.json")
    p.add_argument("--parent", required=True, help="git ref of the parent")
    p.add_argument("--seeds", type=int, nargs="+", required=True,
                   help="one pair of runs per seed and workload")
    args = p.parse_args(argv)

    seconds = spec["run_seconds"]
    parent = _git("rev-parse", args.parent)
    base = Path(tempfile.mkdtemp(prefix="bench-"))
    trees = {"parent": base, "change": ROOT}
    try:
        _export(parent, base)
        runs, failed = [], []
        for workload in (w["name"] for w in spec["workloads"]):
            for turn, seed in enumerate(args.seeds):
                order = SIDES if turn % 2 == 0 else SIDES[::-1]
                for side in order:
                    print(f"{workload} seed {seed}: {side}",
                          file=sys.stderr, flush=True)
                    run = {"workload": workload, "seed": seed,
                           "side": side, "first": order[0],
                           **_run(trees[side], workload, seed, seconds)}
                    (failed if "exit" in run else runs).append(run)
        whole = []
        for turn, seed in enumerate(args.seeds):
            order = SIDES if turn % 2 == 0 else SIDES[::-1]
            for name, command in WHOLE_SYSTEM.items():
                for side in order:
                    print(f"{name} seed {seed}: {side}", file=sys.stderr,
                          flush=True)
                    whole.append({"name": name, "seed": seed, "side": side,
                                  **_time(trees[side], command)})
    finally:
        shutil.rmtree(base)
    report = {"parent": parent,
              "change": "working tree at " + _git("rev-parse", "HEAD"),
              "seconds": seconds, "seeds": args.seeds,
              "summary": summarize(runs, spec["end_to_end"]),
              "runs": runs, "failed_runs": failed,
              "whole_system": {"summary": summarize_whole_system(whole),
                               "runs": whole}}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    for workload, table in report["summary"].items():
        for name, m in table["metrics"].items():
            if m["over_bound"]:
                print(f"over bound: {workload} {name} "
                      f"{m['change_pct']:+.1f}% (bound "
                      f"{100 * m['bound']:g}%)", file=sys.stderr)
    code = 0
    for what, bad in (("incorrect answers", [
            run for run in runs if not run["correct"]]),
            ("failed runs", failed)):
        if bad:
            print(f"{what}: " + ", ".join(
                f"{run['workload']} seed {run['seed']} {run['side']}"
                for run in bad), file=sys.stderr)
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
