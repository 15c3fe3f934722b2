"""One workload in one fresh interpreter: set-up, rounds, output checks.

Started by ``run.py``, never by hand.  Prints ``ready`` on stdout once
proxkit is imported, the catalog is loaded and the instance files are
written, so that the parent can time set-up; then runs one warm-up round
and timed rounds until ``--seconds`` have passed, and prints one JSON
result line.
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
import tempfile
import time

import workloads
from reference import NOMINAL_S, timed_reference
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE_EVERY = 0.1  # seconds of commands between reference timings


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


class Outcome:
    """Tallies of one run: commands attempted and failed, records printed,
    and the first twenty problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_faults = 0
        self.records = 0
        self.problems: list[str] = []

    def problem(self, text: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(text)


def run_command(cli, argv):
    """One in-process ``proxkit`` call: (exit code, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # a traceback is a failed command, not a crash
        return None, out.getvalue(), err.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), None


def judge(cmd, result, outcome: Outcome) -> None:
    """Count one command's records, or count it failed."""
    rc, out, err, exc = result
    label = cmd.label
    outcome.attempted += 1
    if exc is not None:
        outcome.problem(f"{label}: raised {exc}")
    elif cmd.known_fault and rc == 2 and cmd.known_fault in err:
        outcome.failed += 1
        outcome.known_faults += 1
    elif rc != 0:
        outcome.problem(f"{label}: exit {rc}: {err.strip()[:200]}")
    else:
        try:
            outcome.records += cmd.check(out)
        except workloads.CheckFailed as bad:
            outcome.problem(f"{label}: {bad}")


def run_round(cli, commands, times: list[list[float]], tracer=None):
    """Run the command list once, timing the reference loop at the start,
    at the end and between commands whenever REFERENCE_EVERY seconds have
    passed since the last time.

    Returns (round seconds, mean reference seconds, results); the round's
    time is the sum of its commands' times, reference loops excluded.
    """
    results = []
    clock = time.perf_counter
    if tracer is not None:
        tracer.begin_round()
    refs = [timed_reference()]
    last_ref = clock()
    total = 0.0
    for i, cmd in enumerate(commands):
        if clock() - last_ref >= REFERENCE_EVERY:
            refs.append(timed_reference())
            last_ref = clock()
        c0 = clock()
        results.append(run_command(cli, cmd.argv))
        dt = clock() - c0
        times[i].append(dt)
        total += dt
    refs.append(timed_reference())
    return total, sum(refs) / len(refs), results


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import proxkit.catalog
    import proxkit.cli

    proxkit.catalog.catalog_instances()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        inputs = workloads.write_inputs(args.workload, args.seed, workdir, ROOT)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        return measure(args, proxkit.cli, workloads.commands(args.workload, inputs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cli, commands) -> int:
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    times: list[list[float]] = [[] for _ in commands]
    warm = Outcome()
    _, _, results = run_round(cli, commands, times, tracer)
    for cmd, res in zip(commands, results):
        judge(cmd, res, warm)
    for t in times:
        t.clear()

    outcome = Outcome()
    round_times: list[float] = []
    ref_times: list[float] = []
    span_marks = [tracer.span_count if tracer else 0]
    counters = _counters(tracer)
    gc.collect()
    begin = time.perf_counter()
    while time.perf_counter() - begin < args.seconds or not round_times:
        wall, ref, results = run_round(cli, commands, times, tracer)
        round_times.append(wall)
        ref_times.append(ref)
        span_marks.append(tracer.span_count if tracer else 0)
        for cmd, res in zip(commands, results):
            judge(cmd, res, outcome)
        del results
        gc.collect()

    problems = warm.problems + outcome.problems
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(round_times),
        "round_times": round_times,
        "reference_times": ref_times,
        "records": outcome.records,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "known_faults": outcome.known_faults,
        # every failure is the known fault of its command, in the known way
        "correct": not problems,
        "problems": problems,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "command_medians": {
            cmd.label: statistics.median(t)
            for cmd, t in zip(commands, times)
        },
    }
    if tracer is not None:
        tracer.uninstall()
        n = len(round_times)
        layers: dict[str, float] = {}
        for i, ref in enumerate(ref_times):
            scale = NOMINAL_S / ref
            for key, v in tracer.summary(span_marks[i], span_marks[i + 1]).items():
                layers[key] = layers.get(key, 0) + (v * scale if key.endswith("_s") else v)
        layers.update(zip(("proximity.validate_accepted", "morphisms.proxhoms_found",
                           "roundideal.rframe_distinct"),
                          (b - a for a, b in zip(counters, _counters(tracer)))))
        doc["layers"] = {k: v / n for k, v in layers.items()}
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write(path)
        doc["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(doc), flush=True)
    return 0


def _counters(tracer):
    if tracer is None:
        return (0, 0, 0)
    return (tracer.validate_accepted, tracer.proxhoms_found, tracer.rframe_distinct)


if __name__ == "__main__":
    sys.exit(main())
