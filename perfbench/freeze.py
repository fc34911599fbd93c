"""Regenerate perturbations.json, the reference for perturbed certify jobs.

It records the verdict and certificate of every one-edge perturbation
that the certify workload can draw for any seed, and cross-checks each
entry small enough for the brute-force oracle.  Run from the repository
root after a change that is meant to alter verdicts or certificates:

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from signedwiener import witnesses as W  # noqa: E402


def main() -> int:
    specials = {tag: W.special_witness(tag) for tag in W.SPECIAL_TAGS}
    entries = {}
    for base, _ in workloads.perturbable(specials):
        for key, w in workloads.perturbations(base):
            res = W.certify(w)
            cert = res.certificate
            if cert is not None:
                cert = [list(cert[0]), cert[1], cert[2]]
            if w.graph.n <= checks.NAIVE_MAX_N and \
                    res.observed != checks.naive_verdict(w):
                print(f"{key}: engine and naive oracle disagree",
                      file=sys.stderr)
                return 1
            entries[key] = [res.observed, cert]
        print(f"{base.name}: {sum(k.startswith(base.name + '|') for k in entries)}"
              " perturbations", file=sys.stderr)
    doc = {"about": "verdict and certificate of every one-edge perturbation "
                    "the certify workload can draw; written by freeze.py",
           "entries": entries}
    (HERE / "perturbations.json").write_text(
        json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
