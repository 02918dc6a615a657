"""Exact slack-program, elimination, probe, line and ``Fraction`` counts of
the seed-201 bench rounds.

A fresh ``python -B`` process builds the seed-201 round of each workload
from ``bench/workloads.py``, runs it once to warm up, and counts the calls
of ``polyhedra._slack_lp``, ``polyhedra._eliminate``, the
implied-equality probe ``polyhedra._max_capped`` and the rational line
reader ``polyhedra._line`` over a second round, rebound in every tropint
module that holds them, and among the
slack programs those whose elimination leaves fewer than two free
variables, which ``polyhedra._relint_lp`` reads from an interval instead.
It also counts the ``fractions.Fraction`` objects the round constructs,
by wrapping ``Fraction.__new__``, which every constructor and every
arithmetic result goes through.  A round does the same work every time
(``test_bench_rounds.py``), and the counts were the same under
``PYTHONHASHSEED`` 0, 1, 2 and 12345, so they are exact gates: work that
moves or grows shows here before it shows in a timing.
"""

import json
import subprocess
import sys

from test_bench_digest import BENCH, DIGESTS, ROOT, _listing

_COUNT = """
import fractions, importlib, json, pkgutil, sys
sys.path[:0] = sys.argv[1:3]
import workloads
import tropint, tropint.polyhedra as polyhedra

def counted(real, counts):
    def wrapper(*args, **kwargs):
        counts[real.__name__] += 1
        if real.__name__ == "_slack_lp" and (args[2] is None or len(args[2][1]) < 2):
            counts["_slack_lp k<2"] += 1
        return real(*args, **kwargs)
    return wrapper

out = {}
for workload in sys.argv[3:]:
    ops = workloads.build(workload, 201)
    workloads.warm_up()
    for op in ops:
        op.run()
    counts = dict.fromkeys(["_slack_lp", "_slack_lp k<2", "_eliminate", "_max_capped", "_line"], 0)
    bound = []
    for real in (polyhedra._slack_lp, polyhedra._eliminate, polyhedra._max_capped,
                 polyhedra._line):
        wrapper = counted(real, counts)
        for info in pkgutil.iter_modules(tropint.__path__):
            module = importlib.import_module(f"tropint.{info.name}")
            if getattr(module, real.__name__, None) is real:
                setattr(module, real.__name__, wrapper)
                bound.append((module, real))
    real_new = fractions.Fraction.__new__

    def new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return real_new(cls, *args, **kwargs)

    counts["Fraction"] = 0
    fractions.Fraction.__new__ = staticmethod(new)
    for op in ops:
        op.run()
    fractions.Fraction.__new__ = staticmethod(real_new)
    for module, real in bound:
        setattr(module, real.__name__, real)
    out[workload] = counts
print(json.dumps(out))
"""

# Per seed-201 round after one warm round.  Every cell carries the canonical
# elimination of its equalities from the start, and an inequality whose line
# is constant on the hull is decided without a probe, so a cell with no
# other inequality, such as a point where two curves cross, takes no slack
# program.  A cell of dimension one is refined by sorting the crossings of
# the forms, with no slack program and no elimination.  In complementary
# dimension stable_intersect decides each pair of cells by integer solves
# and sign tests, read from one integer inverse per pair of lattices, and the
# point of a pair that counts is written down with its elimination.
# A cell with one free variable is built, canonicalized and cut into facets
# from the interval of that variable, and so is its recession cone: no slack
# program, no probe, and a point's elimination is written down.  Every
# system with at most one free variable, such as a facet of a cell of
# dimension two or a linearity region of divisors._split_one on a curve, is
# decided from its interval, so no slack program has fewer than two free
# variables.  A piecewise function intersects only the cells of pieces whose
# forms differ.
# A system with at most one free variable is read in integers: its lines
# are positive integer multiples of the rational ones, its ends are chosen by
# cross-multiplication, and only the two ends and the coordinates of the
# points returned are Fractions.  That took the Fractions of a round from
# 1,502 to 826 (plane-intersect), 8,663 to 5,327 (curve-arith) and 56,859
# to 46,968 (space-chain).
# A cell of dimension one is refined from the same integer lines, with its
# crossings as reduced integer pairs, so no crossing is a Fraction.  The
# rational lines of polyhedra._line left in the first two rounds are those
# of the forms that refine a point.  That took the Fractions to 766, 3,229
# and 46,928, and the _line calls from 66 to 48, 616 to 28 and 2,514 to
# 2,502.
_COUNTS = {
    "plane-intersect": {"_slack_lp": 0, "_slack_lp k<2": 0, "_eliminate": 54, "_max_capped": 0,
                        "_line": 48, "Fraction": 766},
    "curve-arith": {"_slack_lp": 0, "_slack_lp k<2": 0, "_eliminate": 98, "_max_capped": 0,
                    "_line": 28, "Fraction": 3229},
    "space-chain": {"_slack_lp": 375, "_slack_lp k<2": 0, "_eliminate": 586, "_max_capped": 16,
                    "_line": 2502, "Fraction": 46928},
}


def test_round_counts_are_pinned():
    assert sorted(_COUNTS) == sorted(DIGESTS)
    before = _listing()
    run = subprocess.run(
        [sys.executable, "-B", "-c", _COUNT, str(BENCH), str(ROOT / "src"), *sorted(_COUNTS)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == _COUNTS
    assert _listing() == before
