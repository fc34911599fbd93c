"""Every demo script runs to completion and prints its pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change that should keep every output
# keeps these, and one that means to change a demo updates its line
STDOUT_SHA256 = {
    "colored_cliques":
        "d58499049cb5f4e9774b3ab71805ba792085eb3e33645e98d0de674ef350c175",
    "complete_graph_thresholds":
        "372cfc850a9d6e542f77b7456215f99663bba523f7357871d57f4f3780bdfc47",
    "deletion_invariance":
        "9239b13c7d6d22b91c20ef820ab5983dbbf9ddf1366b0cc8258d7b5208e2a8de",
    "distance_tour":
        "6914a041173d0d0843a3d5bf618070011b5158563d4872888ce7c1cb03877f5d",
    "search_and_filters":
        "6defcb30066fc1b70a2248f945b4d3ee7a63451d64a292c5e18f5d462707d6ba",
    "squared_paths":
        "8ca55de1a63c8d9a259bb1522446a98ad3a0454e248e11c8d1427b97bb51e911",
    "subdivision_chain":
        "16806ec8e232d3e35d473f9986754573ff59e578cd6cb1c63e46caf94574a668",
    "tree_bounds_and_dyck":
        "f6649ae35c0b3441aa8dd2838fecfd822c93e0abbfad21dc31e85cd0442dc50e",
    "witness_files":
        "39acba23a9ca8f8984901e570b813d6ea57fcced44dd0de011c321aea502aed7",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        STDOUT_SHA256[demo.stem], proc.stdout
