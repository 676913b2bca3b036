"""Tests of the benchmark itself, on the tiny --quick inputs.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import halfline_bethe as hb
import run
import tracing
import workloads
from checks import bose_bounds, images_matrix, permanent

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def shifted(out, index: int | None, delta: float):
    """A copy of an op output with the checked entry moved by delta.

    Outputs are a number, or a (states, distribution) pair from the CTMC.
    """
    if index is None:
        return out + delta
    states, dist = out
    dist = np.array(dist, dtype=float)
    dist[index] += delta
    return states, dist


@pytest.fixture(scope="module")
def quick_rounds():
    """Every quick workload, one round, as (ops, round)."""
    out = {}
    for name in run.WORKLOADS:
        ops = workloads.build(name, hb, seed=3, quick=True)
        out[name] = ops, run.run_rounds(ops, 0.0)[0]
    return out


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_quick_workload_passes_its_checks(quick_rounds, name):
    ops, rnd = quick_rounds[name]
    correct, attempted, failed, worst = run.tally(ops, [rnd])
    assert correct
    assert attempted == len(ops)
    assert failed <= sum(op.known_fault for op in ops)
    assert math.isfinite(worst)
    for op in ops:
        assert rnd["verdicts"][op.name]["checks"] or op.known_fault, op.name


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_check_flags_a_value_ten_tolerances_off(quick_rounds, name):
    """Negative control: move each checked value 10 tolerances past its
    reference or bound; the check of that name must fail."""
    ops, rnd = quick_rounds[name]
    outs = rnd["outs"]
    moved = 0
    for op in ops:
        for check in rnd["verdicts"][op.name]["checks"]:
            assert 0 < check.tol < 1
            targets = [b for b in (check.hi + 10 * check.tol, check.lo - 10 * check.tol)
                       if math.isfinite(b)]
            assert targets, f"{op.name}: {check.name} bounds nothing"
            for target in targets:
                out = shifted(outs[op.name], check.index, target - check.value)
                after = op.check(out, {**outs, op.name: out})
                assert not all(c.ok for c in after if c.name == check.name), (
                    f"{op.name}: {check.name} missed {target}")
                moved += 1
    assert moved > 0


def test_the_seed_fixes_the_inputs():
    a = [op.name for op in workloads.build("bose-hardwall", hb, seed=1, quick=True)]
    b = [op.name for op in workloads.build("bose-hardwall", hb, seed=1, quick=True)]
    assert a == b
    names = {tuple(sorted(op.name for op in workloads.build("asep-dist", hb, seed=s,
                                                            quick=True)))
             for s in (1, 2)}
    assert len(names) == 2


def test_bose_references():
    tau = 0.5
    mat = images_matrix((1.0, 2.0), (0.5, 1.5), tau)
    assert permanent(mat) == pytest.approx(mat[0, 0] * mat[1, 1] + mat[0, 1] * mat[1, 0])
    assert images_matrix((0.0,), (0.7,), tau)[0, 0] == 0.0  # zero at the wall
    det, perm = bose_bounds((1.0, 2.0), (0.5, 1.5), tau)
    assert 0 < det < perm


def test_tracer_counts_layers_and_restores_names():
    from halfline_bethe import asep_exact, _kernels

    original = asep_exact.contract
    tracer = tracing.Tracer()
    with tracer.installed():
        assert asep_exact.contract is not original
        hb.prob_halfline((0, 2), (1, 3), 0.3, hb.AsepParams.from_p(0.4))
        hb.propagator_halfline((0.7,), (1.2,), hb.DampedTime.imaginary(2.0),
                               hb.BoseParams(1.0))
    assert asep_exact.contract is original and _kernels.contract is original
    metrics = tracer.metrics(1)
    assert set(metrics) == set(tracing.METRICS)
    for name in ("kernels.contract.calls", "kernels.contract.cells", "scattering.calls",
                 "contour_quad.levels", "contour_quad.points"):
        assert metrics[name]["value"] > 0, name
    assert not tracer.missing


def test_a_removed_name_is_a_missing_metric(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS", tuple(
        (("no_such_function",) + w[1:]) if w[2] == "kernels.gillespie" else w
        for w in tracing.WRAPS))
    tracer = tracing.Tracer()
    with tracer.installed():
        hb.ctmc_prob((0,), (1,), 0.1, hb.AsepParams.from_p(0.4))
    metrics = tracer.metrics(1)
    assert tracer.missing == ["no_such_function"]
    assert metrics["kernels.gillespie.s"] == {"value": None, "unit": "s", "missing": True}
    assert metrics["oracles.states"]["value"] > 0


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_metric_of_the_spec(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "oracles", "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=180, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    record = json.loads((HERE / "results" / f"oracles-seed5-trace{trace}-quick.json")
                        .read_text())
    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads",
                "numba_imports", "commit", "seed"):
        assert key in record["machine"]
    if trace == 0:
        assert len(record["setup_samples_s"]) == run.SETUP_SAMPLES


def test_cli_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
