"""tropint benchmark: seeded workloads run through the public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; tropint is imported from ``src``.
One process runs one operation at a time (a closed loop with a single
client).  A round is the list of operations generated from the seed; the
timed part repeats whole rounds and stops at the round boundary nearest to
``--seconds``.  Every output is then checked with :mod:`checks`, which
never calls tropint.

Times are read from :class:`hostclock.HostClock`, which runs at the shared
host's speed rather than the wall's.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics ops_per_s, op_p50_s,
setup_s and peak_rss_mib.  With ``--trace 1`` rounds alternate untraced and
traced (see :mod:`tracing`); the JSON carries the per-layer metrics per
completed operation and the tracing overhead, and the per-layer counts are
compared with those of one round run under two other PYTHONHASHSEED values.

    python3 bench/run.py --workload NAME --seed N --digest

prints the sha256 of one round's canonical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostclock import HostClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3
HASH_SEEDS = ("1", "2")
WORKLOADS = ("plane-intersect", "space-chain", "curve-arith")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--digest", action="store_true",
                      help="print the sha256 of one round's outputs and exit")
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--count-round", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(args):
    """Import tropint from the checkout, generate the round, warm up."""
    if not (SRC / "tropint" / "__init__.py").is_file():
        sys.exit(f"error: no tropint sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    ops = workloads.build(args.workload, args.seed)
    workloads.warm_up()
    return ops


def child(args, flag, env=None):
    """Run this script in a child process for the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), flag]
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def timed(fn, clock):
    """(result or exception, wall seconds, host-clock seconds) of fn()."""
    t, h = perf_counter(), clock.now()
    try:
        out = fn()
    except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
        out = exc
    return out, perf_counter() - t, clock.now() - h


def setup_seconds(args):
    """Median set-up time of fresh processes, each read on its own host clock
    from the start of main to the end of the warm-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = child(args, "--setup-only")
        out, _ = proc.communicate()
        if proc.returncode != 0:
            sys.exit(f"error: set-up child exited with {proc.returncode}")
        samples.append(float(out))
    return statistics.median(samples)


def run_round(ops, clock, record, tracer=None):
    """Run every operation once; record(index, output or exception, wall
    seconds, host-clock seconds).

    With a tracer, each operation's spans carry its running number.
    """
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op += 1
        record(i, *timed(op.run, clock))


def keep_going(elapsed, rounds, seconds):
    """Whether another whole round ends nearer to `seconds` than stopping now."""
    return elapsed + elapsed / rounds / 2 < seconds


def digest(ops, outputs):
    h = hashlib.sha256()
    for op, out in zip(ops, outputs):
        h.update(f"{op.name}\n{out}".encode())
    return h.hexdigest()


def check_outputs(ops, results):
    """Failures among (index, seconds, output) results, each output checked once."""
    import checks

    verdicts = {}
    failures = []
    for i, out, _, _ in results:
        if isinstance(out, Exception):
            failures.append(f"{ops[i].name}: raised {type(out).__name__}: {out}")
            continue
        key = (i, out)
        if key not in verdicts:
            try:
                ops[i].check(out)
                verdicts[key] = None
            except checks.CheckError as exc:
                verdicts[key] = f"{ops[i].name}: {exc}"
        if verdicts[key] is not None:
            failures.append(verdicts[key])
    return failures


def main(argv=None):
    args = parse_args(argv)
    with HostClock() as clock:
        start = clock.now()
        ops = set_up(args)
        if args.setup_only:
            print(clock.now() - start)
            return 0
        if args.count_round:
            print(json.dumps(count_round(ops, clock)))
            return 0
        if args.digest:
            outs = []
            run_round(ops, clock, lambda i, out, *times: outs.append(out))
            print(digest(ops, outs))
            return 0

        import tropint

        print(f"python {platform.python_version()}"
              f"  QQ {tropint.QQ.__module__}.{tropint.QQ.__name__}  cpus {os.cpu_count()}"
              f"  workload {args.workload}  seed {args.seed}  ops/round {len(ops)}")
        result = (traced_run if args.trace else timed_run)(args, ops, clock)
    print(json.dumps(result))
    return 0


def report(args, ops, results, rounds):
    failures = check_outputs(ops, results)
    for line in failures[:20]:
        print(f"FAILED {line}")
    outs = [out for _, out, _, _ in results[:len(ops)]]
    print(f"rounds {rounds}  attempted {len(results)}  failed {len(failures)}")
    print(f"digest {digest(ops, outs)}  (again: python3 bench/run.py --workload "
          f"{args.workload} --seed {args.seed} --digest)")
    return failures


def count_round(ops, clock):
    """Count metrics of one traced round."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_round(ops, clock, lambda *result: None, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.stats, len(ops))
    return {k: v[0] for k, v in metrics.items() if tracing.is_count(k)}


def timed_run(args, ops, clock):
    setup = setup_seconds(args)
    results = []
    rounds = 0
    t0 = perf_counter()
    while rounds == 0 or keep_going(perf_counter() - t0, rounds, args.seconds):
        run_round(ops, clock, lambda *result: results.append(result))
        rounds += 1
    failures = report(args, ops, results, rounds)
    completed = len(results) - len(failures)
    scaled = [s for _, out, _, s in results if not isinstance(out, Exception)]
    for i, op in enumerate(ops):
        wall = [dt for j, _, dt, _ in results if j == i]
        print(f"  {op.name:<22} median wall {statistics.median(wall):.3f} s over {len(wall)}")
    print(f"wall clock: {completed / sum(r[2] for r in results):.4f} op/s, median "
          f"{statistics.median(r[2] for r in results):.4f} s; host clock below")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {
            "ops_per_s": {"value": completed / sum(r[3] for r in results), "unit": "op/s"},
            "op_p50_s": {"value": statistics.median(scaled) if scaled else 0.0, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
        },
    }


def traced_run(args, ops, clock):
    """Alternate untraced and traced rounds; per-layer metrics from the traced."""
    import tracing

    tracer = tracing.Tracer()
    results = []
    round_time = {False: [], True: []}
    rounds = 0
    t0 = perf_counter()
    while rounds < 2 or keep_going(perf_counter() - t0, rounds, args.seconds):
        traced = rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            run_round(ops, clock, lambda *result: results.append(result),
                      tracer if traced else None)
        finally:
            tracer.uninstall()
        round_time[traced].append(sum(r[3] for r in results[-len(ops):]))
        rounds += 1
    failures = report(args, ops, results, rounds)
    traced_ops = len(round_time[True]) * len(ops)
    metrics = tracing.layer_metrics(tracer.stats, traced_ops)
    untraced = statistics.mean(round_time[False])
    overhead = (statistics.mean(round_time[True]) - untraced) / len(ops)
    print(f"tracing overhead {overhead:.4f} s/op ({overhead * len(ops) / untraced:+.1%})"
          f"  spans {len(tracer.spans)}")

    # The counts must not depend on hash randomization.
    env = dict(os.environ)
    procs = []
    for seed in HASH_SEEDS:
        env["PYTHONHASHSEED"] = seed
        procs.append(child(args, "--count-round", env=dict(env)))
    mismatches = []
    for seed, proc in zip(HASH_SEEDS, procs):
        out, _ = proc.communicate()
        if proc.returncode != 0:
            mismatches.append(f"PYTHONHASHSEED={seed}: child exited with {proc.returncode}")
            continue
        counts = json.loads(out.strip().splitlines()[-1])
        for name, value in counts.items():
            if metrics[name][0] != value:
                mismatches.append(f"{name} = {value} under PYTHONHASHSEED={seed}, "
                                  f"{metrics[name][0]} here")
    for line in mismatches:
        print(f"COUNT MISMATCH {line}")
    print(f"counts repeat under PYTHONHASHSEED={','.join(HASH_SEEDS)}: {not mismatches}")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write_spans(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")

    values = {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()}
    values["trace.overhead_s"] = {"value": overhead, "unit": "s/op"}
    return {
        "correct": not failures and not mismatches,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": values,
    }


if __name__ == "__main__":
    sys.exit(main())
