"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload it checks that every answer passes its check, that
traced and untraced passes give identical answers and work counts, and
that a deliberately wrong expected value is reported as a failure (the
checker itself is tested).  Exit code 0 when all of this holds.
"""

from __future__ import annotations

import sys

import run

# span names each workload must reach, so the wrappers are known to
# sit where the callers resolve them
REACHED = {
    "distance-sweep": ("distances.signed_row", "distances.wiener",
                       "distances.witness"),
    "certify": ("canceling.verdict", "graphs.delete_vertices",
                "distances.colored_row", "witnesses.parse",
                "witnesses.certify", "reports.render"),
    "exhaustive-search": ("search.search", "search.connected_graphs",
                          "canceling.verdict", "graphs.delete_vertices"),
}


def corrupt(workload: str, checks):
    """Make one expected value wrong; returns the undo callable."""
    if workload == "distance-sweep":
        original = checks.reference_wiener
        checks.reference_wiener = lambda n, edges: original(n, edges) + 1
        return lambda: setattr(checks, "reference_wiener", original)
    if workload == "certify":
        original = checks.perturbation_table
        flipped = {key: [not holds, cert]
                   for key, (holds, cert) in original().items()}
        checks.perturbation_table = lambda: flipped
        return lambda: setattr(checks, "perturbation_table", original)
    original = dict(checks.PAPER_FIRST_K_CANCELING)
    checks.PAPER_FIRST_K_CANCELING[1] += 1
    return lambda: checks.PAPER_FIRST_K_CANCELING.update(original)


def selftest(workload: str, workloads, checks, tracing) -> list[str]:
    problems = []
    jobs = workloads.build(workload, 1, tiny=True)
    tracer = tracing.Tracer()
    traced = [run.traced_pass(jobs, tracer, i) for i in range(2)]
    plain = [run.run_pass(jobs) for _ in range(2)]
    problems += run.check_answers(jobs, traced + plain)
    answers = [[row[0] for row in rows] for rows in traced + plain]
    if any(a != answers[0] for a in answers):
        problems.append("answers differ between traced and untraced passes")
    found = {workloads.search_candidates(jobs, a) for a in answers}
    if len(found) != 1:
        problems.append(f"search.candidates differ between passes: {found}")
    agg = tracer.aggregate(2, len(jobs))
    calls = [{name: rec["calls"] for name, rec in p.items()} for p in agg]
    if calls[0] != calls[1]:
        problems.append(f"span counts differ between passes: {calls}")
    problems += [f"no {name} span recorded" for name in REACHED[workload]
                 if calls[0][name] == 0]
    undo = corrupt(workload, checks)
    try:
        if not run.check_answers(jobs, plain[:1]):
            problems.append("a wrong expected value was not reported")
    finally:
        undo()
    return [f"{workload}: {p}" for p in problems]


def main() -> int:
    workloads = run.import_workloads()
    import checks
    import tracing
    problems = []
    for workload in run.WORKLOADS:
        found = selftest(workload, workloads, checks, tracing)
        print(f"{workload}: {'FAIL' if found else 'ok'}")
        problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
