"""Benchmark of halfline-bethe: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload asep-dist --seed 1 --seconds 20 --trace 0

A run repeats whole rounds (every op of the workload once, in a seeded
order) for about --seconds, checks every output, and prints
{"correct", "attempted", "failed", "metrics"} as the last line of standard
output.  With --trace 0 the metrics are the end-to-end ones, measured with
tracing off; with --trace 1 they are the per-layer ones of a traced run,
with the tracing overhead.  --quick swaps in tiny inputs.  Each run writes
perfbench/results/<workload>-seed<seed>-trace<0|1>.json, which records the
machine.

The library is imported from the src/ directory next to this one, never from
an installed copy; without it the run exits with an error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("asep-dist", "asep-n4", "bose-hardwall", "oracles")
#: set-up is timed this many times per run, each in a fresh process, at
#: times spread evenly over the measured rounds
SETUP_SAMPLES = 8
SETUP_TIMEOUT_S = 120
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def configure_blas() -> None:
    """One BLAS thread (never more than nproc), set before numpy is imported.

    The contractions here are small matrix products: on a 2-CPU machine two
    OpenBLAS threads made an N=4 op 25 % slower (14.5 s against 11.5 s).
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_library():
    if not (SRC / "halfline_bethe").is_dir():
        raise SystemExit(f"error: no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import halfline_bethe as hb

    if not Path(hb.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: halfline_bethe came from {hb.__file__}, not {SRC}")
    return hb


def probe_setup(workload: str) -> float:
    """Seconds from starting a fresh process to its `ready` line: interpreter,
    library import (numpy, scipy) and the workload's warm-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_rounds(ops, seconds: float, tracer=None, between=None) -> list[dict]:
    """The whole number of rounds (at least one) whose walls add up nearest
    to `seconds`.  Checks run after each round, outside its wall time, and so
    does `between(measured seconds so far)`."""
    rounds = []
    measured = 0.0
    while True:
        outs, times = {}, {}
        round_start = time.perf_counter()
        for op in ops:
            call = op.run if tracer is None else tracer.wrap(op.layer, op.run)
            t0 = time.perf_counter()
            try:
                outs[op.name] = call()
            except Exception as exc:  # a failing op is counted; the run goes on
                outs[op.name] = exc
            times[op.name] = time.perf_counter() - t0
        wall = time.perf_counter() - round_start
        measured += wall
        rounds.append({"wall": wall, "times": times, "outs": outs,
                       "verdicts": check_round(ops, outs)})
        if measured + wall / 2 >= seconds:
            return rounds
        if between is not None:
            between(measured)


def check_round(ops, outs) -> dict:
    verdicts = {}
    for op in ops:
        out = outs[op.name]
        if isinstance(out, Exception):
            verdicts[op.name] = {"ok": False, "error": repr(out), "checks": []}
            continue
        try:
            checks = op.check(out, outs)
        except Exception as exc:  # a check that cannot be made fails the op
            verdicts[op.name] = {"ok": False, "error": f"check raised {exc!r}", "checks": []}
            continue
        verdicts[op.name] = {"ok": bool(checks) and all(c.ok for c in checks),
                             "error": None, "checks": checks}
    return verdicts


def tally(ops, rounds) -> tuple[bool, int, int, float]:
    """(correct, attempted, failed, worst error of the ops that passed).
    A failing op makes the run incorrect unless it is a known fault."""
    correct, failed, worst = True, 0, 0.0
    for r in rounds:
        for op in ops:
            verdict = r["verdicts"][op.name]
            if verdict["ok"]:
                worst = max([worst] + [c.error for c in verdict["checks"]])
            else:
                failed += 1
                correct = correct and op.known_fault
    return correct, len(ops) * len(rounds), failed, worst


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine(hb, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = {"name": blas.get("name"), "version": blas.get("version"),
                  "config": blas.get("openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        vendor = None
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "numba_imports": numba_imports,
        "library_uses_numba": getattr(hb, "USING_NUMBA", None),
        "commit": git_commit(),
        "seed": seed,
    }


def _check_record(c) -> dict:
    return {"name": c.name, "value": c.value, "lo": c.lo, "hi": c.hi, "tol": c.tol,
            "ok": c.ok}


def op_records(ops, rounds) -> list[dict]:
    last = rounds[-1]["verdicts"]
    return [{"name": op.name, "known_fault": op.known_fault,
             "median_s": statistics.median(r["times"][op.name] for r in rounds),
             "failed_rounds": sum(not r["verdicts"][op.name]["ok"] for r in rounds),
             "error": last[op.name]["error"],
             "checks": [_check_record(c) for c in last[op.name]["checks"]]}
            for op in ops]


def write_json(name: str, payload: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(json.dumps(payload, indent=1, default=str) + "\n")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_median(rounds) -> float:
    """Median wall time of one op over every op of every round."""
    return statistics.median(t for r in rounds for t in r["times"].values())


def measure(hb, args) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off.  The set-up probes run between
    rounds, so that they sample the same stretch of time as the rounds."""
    import workloads

    setup = []

    def probe_due(measured: float) -> None:
        # probe k is due once k / SETUP_SAMPLES of the run is measured
        while (len(setup) < SETUP_SAMPLES
               and len(setup) * args.seconds <= measured * SETUP_SAMPLES):
            setup.append(probe_setup(args.workload))

    probe_due(0.0)
    workloads.warm_up(args.workload, hb)
    ops = workloads.build(args.workload, hb, args.seed, args.quick)
    rounds = run_rounds(ops, args.seconds, between=probe_due)
    probe_due(math.inf)
    correct, attempted, failed, worst = tally(ops, rounds)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(statistics.median(r["wall"] for r in rounds), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB"),
    }
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {"machine": machine(hb, args.seed), "summary": summary,
              "setup_samples_s": setup, "round_walls_s": [r["wall"] for r in rounds],
              "op_median_s": op_median(rounds), "max_abs_err": worst,
              "ops": op_records(ops, rounds)}
    return summary, record


def measure_traced(hb, args) -> tuple[dict, dict]:
    """Per-layer metrics: half the time untraced, half traced; the difference
    of the median round walls is the tracing overhead."""
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        workloads.warm_up(args.workload, hb)
    setup_signed_perm = tracer.self_time["signed_perm"]
    ops = workloads.build(args.workload, hb, args.seed, args.quick)
    plain = run_rounds(ops, args.seconds / 2)
    with tracer.installed():
        tracer.reset()
        traced = run_rounds(ops, args.seconds / 2, tracer)
    rounds = plain + traced
    correct, attempted, failed, worst = tally(ops, rounds)
    plain_wall = statistics.median(r["wall"] for r in plain)
    traced_wall = statistics.median(r["wall"] for r in traced)
    metrics = tracer.metrics(len(traced))
    metrics["signed_perm.s"] = (_metric(setup_signed_perm, "s")
                                if "signed_perm" in tracer.wrapped
                                else {"value": None, "unit": "s", "missing": True})
    metrics["op_median_s"] = _metric(op_median(plain), "s")
    metrics["check.max_abs_err"] = _metric(worst, "abs")
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - plain_wall, "s")
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {"machine": machine(hb, args.seed), "summary": summary,
              "round_walls_s": [r["wall"] for r in plain],
              "traced_round_walls_s": [r["wall"] for r in traced],
              "missing_names": tracer.missing, "ops": op_records(ops, rounds)}
    return summary, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    configure_blas()
    hb = import_library()
    if args.probe_setup:
        import workloads

        workloads.warm_up(args.workload, hb)
        print("ready", flush=True)
        return 0
    summary, record = (measure_traced if args.trace else measure)(hb, args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    write_json(f"{stem}.json", {"args": vars(args), **record})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
