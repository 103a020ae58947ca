"""Benchmark of the latlog command line: greedy evaluation, reference
evaluation and the soundness check, end to end and layer by layer.

    python3 bench/run.py --workload paths_min --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It generates the workload's programs
from the seed, imports latlog from `src/`, and then runs whole rounds
of the workload's operations in a closed loop, one after the other in
this single process, until `--seconds` have passed. Each operation is
one in-process call of `latlog.cli.main` with standard output
captured, and its exit code and output are checked against the
benchmark's own oracles (see workloads.py).

The machine's speed drifts by tens of percent over tens of seconds
when neighbours are busy, and it drifts for everything alike. So every
timed step is bracketed by a fixed pure-Python calibration loop, and
its time is reported in seconds at the loop's reference speed:
measured seconds x CALIBRATION_S / (mean of the two loop timings).

The last line of standard output is one JSON object: whether every
operation was right, how many were attempted and failed, and the
metrics. With `--trace 0` they are the end-to-end timings; with
`--trace 1` they are the per-layer figures of a traced run
(tracer.py), per round, plus the tracing overhead. README.md says what
each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
# Seconds the calibration loop takes at the reference speed: its median
# on the 2-vCPU machine the README's figures come from.
CALIBRATION_S = 0.0045


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def calibration():
    """Time one fixed pure-Python loop: dict updates keyed by tuples."""
    start = time.perf_counter()
    seen = {}
    for i in range(10000):
        key = (i % 997, i % 13)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


def calibrated(fn, *args):
    """Call fn(*args); return its time at the reference speed and its result."""
    before = calibration()
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    return elapsed * 2 * CALIBRATION_S / (before + calibration()), result


def import_latlog():
    """Import the package afresh from src/, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "latlog" or n.startswith("latlog.")]:
        del sys.modules[name]
    from latlog import cli
    return cli


def setup(workload, seed, workdir):
    """Generate and write the workload's programs, then import latlog."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    progs = workloads.generate(workload, seed)
    workloads.write_programs(progs, workdir)
    return progs, import_latlog()


def attempt(main, argv):
    """Call main(argv) with standard output captured: returns the exit
    code, the output, and a failure message if main did not return."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return main(argv), out.getvalue(), None
    except Exception as exc:  # any exception escaping main fails the operation
        failure = f"raised {traceback.format_exception_only(type(exc), exc)[-1].strip()}"
    except SystemExit as exc:
        failure = f"exited with {exc.code!r}"
    return None, out.getvalue(), failure


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op, failure):
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {' '.join(op.argv('.'))}: {failure}", file=sys.stderr)


def run_round(main, ops, workdir, tally):
    """Every operation once; returns each one's calibrated time."""
    times = []
    for op in ops:
        gc.collect()
        elapsed, (code, output, failure) = calibrated(attempt, main, op.argv(workdir))
        tally.record(op, failure or op.verify(code, output))
        times.append(elapsed)
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(main, ops, workdir, seconds, tally):
    """Closed-loop rounds until `seconds` pass. Per kind of operation,
    the mean over the round's operations of each one's median time."""
    samples = [[] for _ in ops]
    start = time.perf_counter()
    while True:
        times = run_round(main, ops, workdir, tally)
        for sample, t in zip(samples, times):
            sample.append(t)
        if time.perf_counter() - start >= seconds:
            break
    names = {"greedy": "eval_greedy_s", "reference": "eval_reference_s", "check": "check_s"}
    out = {}
    for kind, name in names.items():
        ts = [statistics.median(s) for op, s in zip(ops, samples) if op.kind == kind]
        out[name] = metric(sum(ts) / len(ts), "s")
    return out


def traced(main, ops, workdir, seconds, tally):
    """Alternate untraced and traced rounds until `seconds` pass; report
    each layer per traced round, and the tracing overhead per round."""
    plain, spanned = [], []
    spans = tracer.Tracer()
    start = time.perf_counter()
    while True:
        plain.append(sum(run_round(main, ops, workdir, tally)))
        patches = tracer.install(spans)
        try:
            spanned.append(sum(run_round(spans.timed("cli.main", main), ops, workdir, tally)))
        finally:
            patches.uninstall()
        if time.perf_counter() - start >= seconds:
            break
    out = {name: metric(value, unit)
           for name, (value, unit) in tracer.layer_metrics(spans, len(spanned)).items()}
    overhead = statistics.median(spanned) - statistics.median(plain)
    out["trace.overhead_s"] = metric(overhead, "s")
    out["trace.overhead_pct"] = metric(100 * overhead / statistics.median(plain), "%")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "latlog" / "__init__.py").is_file():
        print(f"bench: no latlog package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, (progs, cli) = calibrated(setup, args.workload, args.seed, workdir)
            setups.append(elapsed)
        ops = workloads.operations(progs)
        tally = Tally()
        if args.trace:
            metrics = traced(cli.main, ops, workdir, args.seconds, tally)
        else:
            metrics = {"setup_s": metric(statistics.median(setups), "s")}
            metrics.update(end_to_end(cli.main, ops, workdir, args.seconds, tally))
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = metric(peak_kb / 1024, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"attempted {tally.attempted} failed {tally.failed}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
