"""The canonical outputs of the bench workloads stay byte-identical.

``bench/run.py --digest`` runs one seed-201 round of a workload in a fresh
process and prints the sha256 of its canonical outputs.  Each must equal the
digest pinned here, which is the one ``bench/README.md`` records.  The
rounds of seeds 202 and 909 of the two gated workloads put their cells and
crossings at other values, and their digests, which the README does not
record, are pinned too.  The run writes nothing under ``bench/``: ``-B`` keeps its
bytecode out.
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
OTHER_SEED_DIGESTS = {
    ("curve-arith", 202): "5641c29f8c524b29b93b298a751d9d48dba4b4bf1844635b7b412a3f2ec0e06f",
    ("curve-arith", 909): "146061742c7c3cec9395f7e67f7d2527e1634c50b093c9bfbee0bc1a69af47bf",
    ("plane-intersect", 202): "67a62a857a2cff4c3ac9441fbce2edf018c5c25d30e853e4a682a83de64ceb3e",
    ("plane-intersect", 909): "5c83688b3a0c6863c2e9f83a1f07a0942e3ba2c408cbb44134c56f1cb667b874",
}


def _listing():
    return {path: path.stat().st_mtime_ns for path in BENCH.rglob("*")}


def test_readme_records_the_pinned_digests():
    readme = (BENCH / "README.md").read_text()
    for workload, digest in DIGESTS.items():
        assert f"- `{workload}`: `{digest}`" in readme


def _digest(workload, seed):
    before = _listing()
    run = subprocess.run(
        [sys.executable, "-B", str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--digest"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert _listing() == before
    return run.stdout.split()[-1]


@pytest.mark.parametrize("workload", DIGESTS)
def test_seed_201_digest(workload):
    assert _digest(workload, 201) == DIGESTS[workload]


@pytest.mark.parametrize("workload, seed", OTHER_SEED_DIGESTS)
def test_other_seed_digest(workload, seed):
    assert _digest(workload, seed) == OTHER_SEED_DIGESTS[workload, seed]
