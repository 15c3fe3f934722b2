"""proxkit benchmark: three seeded workloads, timed end to end or traced.

Run from the root of a source checkout:

    python3 bench/run.py --workload catalog-laws --seed 1 --seconds 30 --trace 0

Each workload runs in its own fresh interpreter (``worker.py``) with
``PYTHONHASHSEED=0``.  Set-up time is measured on several fresh
interpreters and reported as the median.  Times are given in seconds at
the nominal machine speed of ``reference.py``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_S, timed_reference
from tracing import LAYERS
from worker import OUT
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 9  # fresh interpreters timed for setup_s
IMPORT_RUNS = 5  # `-X importtime` samples for finite.import_s
TIME_LIMIT = 170.0  # seconds for the whole run, children included

PER_LAYER = [
    ("catalog.load_s", "s"),
    ("finite.build_s", "s"),
    ("finite.build_calls", "count"),
    ("finite.import_s", "s"),
    ("proximity.validate_s", "s"),
    ("proximity.validate_calls", "count"),
    ("proximity.validate_accepted", "count"),
    ("proximity.validate_accept_ratio", "ratio"),
    ("proximity.collapse_s", "s"),
    ("roundideal.rframe_s", "s"),
    ("roundideal.rframe_calls", "count"),
    ("roundideal.rframe_distinct", "count"),
    ("roundideal.rframe_distinct_ratio", "ratio"),
    ("morphisms.enumerate_s", "s"),
    ("morphisms.proxhom_checks", "count"),
    ("morphisms.proxhoms_found", "count"),
    ("morphisms.proxhom_found_ratio", "ratio"),
    ("morphisms.algebra_s", "s"),
    ("morphisms.compose_calls", "count"),
    ("trace.round_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
]


class BenchError(Exception):
    pass


def child_env() -> dict:
    return dict(os.environ, PYTHONHASHSEED="0")


def worker_argv(args, *extra) -> list[str]:
    return [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def start_worker(argv, deadline):
    """Start a worker; return (process, seconds until it printed ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline) -> str:
    """Wait for a worker and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit")
    return out


def import_seconds(deadline) -> float:
    """Cumulative import time of proxkit.finite (numpy included), from
    ``-X importtime`` of fresh interpreters: the median over IMPORT_RUNS,
    in seconds at the nominal speed."""
    env = child_env()
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    samples, refs = [], []
    for _ in range(IMPORT_RUNS):
        refs.append(timed_reference())
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import proxkit.finite"],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        if res.returncode != 0:
            raise BenchError("importing proxkit.finite failed")
        refs.append(timed_reference())
        for line in res.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "proxkit.finite":
                samples.append(int(parts[1]) / 1e6)
    if not samples:
        raise BenchError("no import time reported for proxkit.finite")
    return scaled_median(samples, refs)


def setup_seconds(args, deadline) -> tuple[list[float], list[float]]:
    """Wall seconds of SETUP_RUNS fresh interpreters from start to ready,
    and the reference loop's times, taken before and after each."""
    setups, refs = [], []
    for _ in range(SETUP_RUNS):
        refs.append(timed_reference())
        proc, setup = start_worker(worker_argv(args, "--setup-only"), deadline)
        finish(proc, deadline)
        setups.append(setup)
        refs.append(timed_reference())
    return setups, refs


def scaled_median(times: list[float], refs: list[float]) -> float:
    """Median of times taken apart from the rounds, scaled to the nominal
    speed by the median of the reference times around them."""
    return statistics.median(times) * NOMINAL_S / statistics.median(refs)


def scaled_rounds(res: dict) -> list[float]:
    """Round times in seconds at the nominal speed."""
    return [t * NOMINAL_S / ref
            for t, ref in zip(res["round_times"], res["reference_times"])]


def end_to_end(res: dict, setups: tuple[list[float], list[float]]) -> dict:
    rounds = scaled_rounds(res)
    return {
        "verdicts_per_s": {"value": res["records"] / sum(rounds), "unit": "verdicts/s"},
        "round_s": {"value": statistics.median(rounds), "unit": "s"},
        "setup_s": {"value": scaled_median(*setups), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
    }


def per_layer(res: dict, import_s: float) -> dict:
    lay = dict(res["layers"])
    lay["finite.import_s"] = import_s
    rounds = scaled_rounds(res)
    lay["trace.round_s"] = statistics.median(rounds)
    lay["trace.unattributed_s"] = sum(rounds) / len(rounds) - lay["covered_s"]
    lay["trace.spans"] = lay["spans"]

    def ratio(num, den):
        return lay[num] / lay[den] if lay[den] else 0.0

    lay["proximity.validate_accept_ratio"] = ratio(
        "proximity.validate_accepted", "proximity.validate_calls")
    lay["morphisms.proxhom_found_ratio"] = ratio(
        "morphisms.proxhoms_found", "morphisms.proxhom_checks")
    lay["roundideal.rframe_distinct_ratio"] = ratio(
        "roundideal.rframe_distinct", "roundideal.rframe_calls")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = {"value": lay[f"{layer}.self_s"], "unit": "s"}
        metrics[f"{layer}.calls"] = {"value": lay[f"{layer}.calls"], "unit": "count"}
    for name, unit in PER_LAYER:
        metrics[name] = {"value": lay[name], "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    if not os.path.isfile(os.path.join(ROOT, "src", "proxkit", "__init__.py")):
        print("error: no proxkit sources under src/; run from a checkout root",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        setups = ([], [])
        import_s = 0.0
        if args.trace:
            import_s = import_seconds(deadline)
        else:
            setups = setup_seconds(args, deadline)
        proc, _ = start_worker(worker_argv(args), deadline)
        out = finish(proc, deadline)
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"worker exited with {proc.returncode}")
        res = json.loads(out.strip().splitlines()[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res["setup_samples"] = setups
    metrics = per_layer(res, import_s) if args.trace else end_to_end(res, setups)
    res["metrics"] = metrics
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(res, fh, indent=1)
    for problem in res["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
