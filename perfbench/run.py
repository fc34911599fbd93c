"""Benchmark of the signedwiener toolkit: one workload, one seed, one run.

    python3 perfbench/run.py --workload distance-sweep --seed 1 \
        --seconds 30 --trace 0

The workload's jobs are built from the seed (see workloads.py) and run
in passes, one job at a time in this process, until --seconds have
passed.  A pass runs every job except the seconds-long ones, which take
turns; a job's repeated answers must match.  Every answer is then
checked outside the timed region.  With --trace 0 the last line of
stdout is a JSON object holding the end-to-end metrics, with times
scaled to a reference host speed (CALIBRATION_REF_S); with --trace 1
full passes run under the span tracer (tracing.py), alternating with
untraced ones to measure the tracing overhead, and the JSON holds the
per-layer metrics instead.  The lines before it are a readable report.
Exit code 2 means the benchmark could not run (for instance, no
src/signedwiener next to it).
"""

import time

_T0 = time.perf_counter()  # set-up time starts before any other import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# fresh processes whose set-up time gives the setup_s median
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
# The shared host runs all Python code up to ~1.7x slower for stretches
# of seconds to minutes.  A fixed pure-Python loop that never touches
# the library is timed between jobs, and every time is reported at one
# reference speed: raw seconds * CALIBRATION_REF_S / the loop's time
# around it.  A change to the library moves the scaled times fully; a
# slow stretch of the host moves the loop as well and cancels out.
CALIBRATION_REF_S = 4.5e-4
WORKLOADS = ("distance-sweep", "certify", "exhaustive-search")


class Raised:
    """The answer of a job that raised: never passes its check."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Raised) and other.text == self.text


def import_workloads():
    """Import the jobs module against this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    import signedwiener  # a namespace package: check where it came from
    where = [Path(p).resolve() for p in signedwiener.__path__]
    if where != [(SRC / "signedwiener").resolve()]:
        raise ImportError(f"signedwiener resolved to {where}, not {SRC}")
    import workloads
    return workloads


def calibration_seconds() -> float:
    """Time of the calibration loop: a dict-of-bitsets sweep over the
    simple paths of K_8, the same kind of work as the engine's."""
    t0 = time.perf_counter()
    level = {(1, 0): 1}
    while level:
        nxt = {}
        for (mask, v), sums in level.items():
            for w in range(8):
                if not mask & (1 << w):
                    key = (mask | 1 << w, w)
                    nxt[key] = nxt.get(key, 0) | sums << 1
        level = nxt
    return time.perf_counter() - t0


def setup_seconds(args) -> list[float]:
    """Scaled set-up time of SETUP_REPEATS fresh processes.  An unmeasured
    first process writes the bytecode caches (inside the checkout), so
    the measured ones load them as an installed package would."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    out = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              check=True, timeout=SETUP_TIMEOUT_S, env=env)
        raw, loop = map(float, done.stdout.split()[-2:])
        out.append(raw * CALIBRATION_REF_S / loop)
    return out[1:]


def run_pass(jobs, tracer=None, first_id: int = 0,
             turn: int | None = None) -> list[tuple | None]:
    """One pass over jobs: (answer, work units, seconds, scaled seconds)
    per job.  With `turn`, only the turn-th heavy job (round robin) runs
    and the other heavy jobs' entries are None."""
    heavy = [j for j, job in enumerate(jobs) if job.heavy]
    keep = heavy[turn % len(heavy)] if heavy and turn is not None else None
    rows = []
    loop = calibration_seconds()
    for j, job in enumerate(jobs):
        if keep is not None and job.heavy and j != keep:
            rows.append(None)
            continue
        if tracer is not None:
            tracer.current_job = first_id + j
        t0 = time.perf_counter()
        try:
            answer, units = job.run()
        except Exception as exc:  # a failing job is counted, not fatal
            answer, units = Raised(exc), 0
        dt = time.perf_counter() - t0
        before, loop = loop, calibration_seconds()
        rows.append((answer, units, dt,
                     dt * CALIBRATION_REF_S * 2 / (before + loop)))
    return rows


def traced_pass(jobs, tracer, index: int) -> list[tuple]:
    """Pass number `index` with the tracer's wrappers installed on every
    loaded package module and on the benchmark's reports step."""
    import tracing
    import workloads
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("signedwiener.")]
    tracer.install(modules, [(workloads, "render_result", tracing.RENDER,
                              tracing.text_length)])
    try:
        return run_pass(jobs, tracer, index * len(jobs))
    finally:
        tracer.uninstall()


def check_answers(jobs, passes) -> list[str]:
    """One message per failed job sample.  A job's first answer is
    checked against its reference; every later pass must repeat it."""
    failures = []
    for j, job in enumerate(jobs):
        samples = [rows[j][0] for rows in passes if rows[j] is not None]
        first = samples[0]
        problem = None
        try:
            if isinstance(first, Raised):
                problem = f"raised {first.text}"
            else:
                job.check(first)
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        for answer in samples:
            if problem is not None:
                failures.append(f"{job.label}: {problem}")
            elif answer != first:
                failures.append(f"{job.label}: answer changed between passes")
    return failures


def pass_seconds(rows) -> float:
    """Raw job seconds of one pass."""
    return sum(row[2] for row in rows if row is not None)


def best_times(passes, field: int = 3) -> list[float]:
    """Each job's fastest scaled (or, with field=2, raw) time over the
    passes: slow stretches of the host only ever add time."""
    return [min(rows[j][field] for rows in passes if rows[j] is not None)
            for j in range(len(passes[0]))]


def end_to_end(passes, setup) -> dict:
    best = best_times(passes)
    units = sum(next(rows[j][1] for rows in passes if rows[j] is not None)
                for j in range(len(best)))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_p50_s": (statistics.median(best), "s"),
        "job_p90_s": (statistics.quantiles(best, n=10)[8], "s"),
        "work_per_s": (units / sum(best), "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(agg, candidates, traced, untraced) -> tuple[dict, list[str]]:
    """Per-layer metrics per pass from the tracer's per-pass totals;
    also the names of counts that differ between traced passes."""
    import tracing as T
    counts = [{name: rec["calls"] for name, rec in p.items()} for p in agg]
    unstable = sorted(name for name in counts[0]
                      if any(c[name] != counts[0][name] for c in counts))

    def med(name, field):
        return statistics.median(p[name][field] for p in agg)

    first = agg[0]
    verdicts = first[T.VERDICT]["calls"]
    rows_under = (first[T.SIGNED_ROW]["under_verdict"]
                  + first[T.COLORED_ROW]["under_verdict"])
    searches = first[T.SEARCH]["calls"]

    def ratio(a, b):
        return a / b if b else 0.0

    base = statistics.median(pass_seconds(rows) for rows in untraced)
    over = statistics.median(pass_seconds(rows) for rows in traced) - base
    metrics = {
        "distances.signed_row.calls": (first[T.SIGNED_ROW]["calls"], "count"),
        "distances.signed_row.s": (med(T.SIGNED_ROW, "s"), "s"),
        "distances.colored_row.calls": (first[T.COLORED_ROW]["calls"],
                                        "count"),
        "distances.colored_row.s": (med(T.COLORED_ROW, "s"), "s"),
        "distances.wiener.self_s": (med(T.WIENER, "self_s"), "s"),
        "distances.witness.calls": (first[T.WITNESS]["calls"], "count"),
        "distances.witness.s": (med(T.WITNESS, "s"), "s"),
        "graphs.delete_vertices.calls": (first[T.DELETE]["calls"], "count"),
        "graphs.delete_vertices.s": (med(T.DELETE, "s"), "s"),
        "canceling.verdict.calls": (verdicts, "count"),
        "canceling.verdict.self_s": (med(T.VERDICT, "self_s"), "s"),
        "canceling.rows_per_verdict": (ratio(rows_under, verdicts), "ratio"),
        "canceling.deletions_per_verdict": (
            ratio(first[T.DELETE]["under_verdict"], verdicts), "ratio"),
        "canceling.holds_ratio": (ratio(first[T.VERDICT]["flag"], verdicts),
                                  "ratio"),
        "search.candidates": (candidates, "count"),
        "search.self_s": (med(T.SEARCH, "self_s"), "s"),
        "search.connected_graphs.s": (med(T.CONNECTED, "s"), "s"),
        "search.hit_ratio": (ratio(first[T.SEARCH]["flag"], searches),
                             "ratio"),
        "witnesses.parse.s": (med(T.PARSE, "s"), "s"),
        "witnesses.certify.self_s": (med(T.CERTIFY, "self_s"), "s"),
        "reports.render.s": (med(T.RENDER, "s"), "s"),
        "reports.bytes": (first[T.RENDER]["flag"], "bytes"),
        "trace.overhead_s": (over, "s"),
        "trace.overhead_pct": (100 * over / base, "%"),
    }
    return metrics, unstable


def fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "signedwiener").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return (f"machine={platform.machine()} nproc={os.cpu_count()} "
            f"python={platform.python_version()} "
            f"code=sha256:{digest.hexdigest()[:16]}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            jobs, setup) -> tuple[dict, list[str]]:
    """Run, check and summarize: the result object and the lines of the
    readable report."""
    import workloads
    candidates = workloads.search_candidates
    report = [fingerprint()]
    consistent = True
    if trace:
        import tracing
        tracer = tracing.Tracer()
        # traced and untraced passes alternate, so both see the same
        # machine state; the difference is the tracing overhead
        traced, replay = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            traced.append(traced_pass(jobs, tracer, len(traced)))
            replay.append(run_pass(jobs))
        passes = traced + replay
        agg = tracer.aggregate(len(traced), len(jobs))
        per_pass = [candidates(jobs, [row[0] for row in rows])
                    for rows in passes]
        metrics, unstable = per_layer(agg, per_pass[0], traced, replay)
        if unstable or len(set(per_pass)) != 1:
            consistent = False
            report.append(f"work counts differ between passes: {unstable} "
                          f"candidates {sorted(set(per_pass))}")
        report.append(f"spans recorded: {len(tracer)}")
    else:
        # at least one turn for every heavy job
        turns = max(1, sum(job.heavy for job in jobs))
        passes = []
        start = time.perf_counter()
        while len(passes) < turns or time.perf_counter() - start < seconds:
            passes.append(run_pass(jobs, turn=len(passes)))
        metrics = end_to_end(passes, setup)
    t0 = time.perf_counter()
    failures = check_answers(jobs, passes)
    report.append(f"pass seconds: "
                  f"{' '.join(f'{pass_seconds(p):.3f}' for p in passes)}; "
                  f"checks took {time.perf_counter() - t0:.1f} s")
    attempted = sum(row is not None for rows in passes for row in rows)
    report.append(
        f"workload={workload} seed={seed} trace={int(trace)} "
        f"passes={len(passes)} jobs={len(jobs)} samples={attempted} "
        f"failed={len(failures)} fail_ratio={len(failures) / attempted:g}")
    if not trace:
        report.append(f"work_per_s counts {workloads.WORK_UNITS[workload]} "
                      f"(the {workloads.WORK_UNITS[workload]}_per_s metric); "
                      f"setup_s is the median of {len(setup)} fresh "
                      f"processes; each of the {len(jobs)} jobs' time is "
                      f"its best over the passes (heavy jobs take turns)")
        raw = best_times(passes, field=2)
        report.append(f"unscaled: job_p50_s={statistics.median(raw):.6g} "
                      f"job_p90_s={statistics.quantiles(raw, n=10)[8]:.6g} "
                      f"seconds={sum(raw):.6g}; times are scaled to a "
                      f"calibration loop of {CALIBRATION_REF_S * 1e3:g} ms")
    report += [f"  {name:34s} {value:.6g} {unit}"
               for name, (value, unit) in metrics.items()]
    report += [f"FAIL {msg}" for msg in failures[:20]]
    result = {"correct": consistent and not failures,
              "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"run.py: cannot import signedwiener from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    jobs = workloads.build(args.workload, args.seed)
    if args.setup_only:
        raw = time.perf_counter() - _T0
        print(raw, statistics.median(calibration_seconds()
                                     for _ in range(5)))
        return 0
    setup = [] if args.trace else setup_seconds(args)
    result, report = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), jobs, setup)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
