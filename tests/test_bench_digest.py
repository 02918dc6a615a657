"""The canonical outputs of the bench workloads stay byte-identical.

``bench/run.py --digest`` runs one seed-201 round of a workload in a fresh
process and prints the sha256 of its canonical outputs.  Each must equal the
digest pinned here, which is the one ``bench/README.md`` records.  The run
writes nothing under ``bench/``: ``-B`` keeps its bytecode out.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
DIGESTS = {
    "plane-intersect": "a92477bb9bd3d05bd5eaee70ed4f38ca7d5d51c6bb3957d1bfccb93cd801a789",
    "curve-arith": "2a6dc7b753165f676a5e335a333d5102f54c22c56abc0dabbaf38a55e44f692e",
    "space-chain": "7a93fed94f6b0386cb5bb6530d6e6c55e1ddb576b9c5b13755ed3a8cbf9c29bb",
}


def _listing():
    return {path: path.stat().st_mtime_ns for path in BENCH.rglob("*")}


def test_readme_records_the_pinned_digests():
    readme = (BENCH / "README.md").read_text()
    for workload, digest in DIGESTS.items():
        assert f"- `{workload}`: `{digest}`" in readme


@pytest.mark.parametrize("workload", DIGESTS)
def test_seed_201_digest(workload):
    before = _listing()
    run = subprocess.run(
        [sys.executable, "-B", str(BENCH / "run.py"), "--workload", workload, "--seed", "201",
         "--digest"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-1] == DIGESTS[workload]
    assert _listing() == before
