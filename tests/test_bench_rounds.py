"""The per-layer counts of a bench round do not depend on the round.

``bench/run.py --trace 1`` compares the counts of its traced rounds, which
are later rounds of one process, with those of the first round after the
warm-up in child processes.  A cache that one round fills for the next
makes these differ and the run report ``"correct": false``.  Here one fresh
process runs ``count_round`` twice on the seed-201 round of each workload
and the two must agree on every count.  The run writes nothing under
``bench/``: ``-B`` keeps its bytecode out.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from test_bench_digest import BENCH, DIGESTS, ROOT, _listing

_TWO_ROUNDS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
from hostclock import HostClock

ops = run.set_up(run.parse_args(["--workload", sys.argv[2], "--seed", "201"]))
with HostClock() as clock:
    print(json.dumps([run.count_round(ops, clock) for _ in range(2)]))
"""


@pytest.mark.parametrize("workload", DIGESTS)
def test_counts_repeat_from_round_to_round(workload):
    before = _listing()
    run = subprocess.run(
        [sys.executable, "-B", "-c", _TWO_ROUNDS, str(BENCH), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    first, second = json.loads(run.stdout.splitlines()[-1])
    assert first.keys() == second.keys()
    assert {k: (v, second[k]) for k, v in first.items() if v != second[k]} == {}
    assert _listing() == before
