"""The benchmark's tracer wraps library functions by name; a refactor that
unbinds one would leave its per-layer metrics empty without failing a run."""

import importlib.util
import re
from collections import OrderedDict
from pathlib import Path

import halfline_bethe as hb
from halfline_bethe import _kernels, asep_exact, bose_exact
from halfline_bethe.contour_quad import LineGrid, QuadOptions, line_nodes
from halfline_bethe.scattering import AsepParams, BoseParams
from halfline_bethe.signed_perm import term_structure

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_calls_resolves():
    # the benchmark calls the package as `hb`; a renamed or removed export
    # would fail its runs, not these tests
    names = set()
    for path in TRACING.parent.glob("*.py"):
        names.update(re.findall(r"\bhb\.(\w+(?:\.\w+)?)", path.read_text()))
    assert {"AsepParams.from_p", "DampedTime.imaginary", "ctmc_distribution"} <= names
    for name in sorted(names):
        obj = hb
        for attr in name.split("."):
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)


def test_every_traced_name_is_bound():
    contract = _kernels.contract
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        assert asep_exact.contract is _kernels.contract is not contract
    assert tracer.missing == []
    # the wrappers are gone again
    assert asep_exact.contract is _kernels.contract is contract


def test_one_level_of_each_model_is_traced(monkeypatch):
    # the models look s_asep and s_bose up in their own module at each
    # call, where the tracer replaces them; an empty contour cache makes the
    # ASEP level build its tables
    monkeypatch.setattr(asep_exact, "_CONTOUR_CACHE", OrderedDict())
    params = AsepParams.from_p(0.4)
    radii = asep_exact.tuned_radii(params, 3)
    k, w = line_nodes(LineGrid(4.0, 0.5))
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        tables = asep_exact._contour_tables(params.p, radii.center, radii.radii, 8, True)
        _kernels.term_sum(tables.level((0, 2, 4), (1, 2, 5), 0.5))
        asep_calls = dict(tracer.counts)
        tracer.reset()
        tables = bose_exact._line_contour(bose_exact._staggered(k, 3, 0.5), w, 1.0, True)
        _kernels.term_sum(tables.level((0.5, 1.4, 2.6), (0.8, 1.7, 2.9), -0.5j))
        bose_calls = dict(tracer.counts)
    # ASEP: eps and r on each of 3 circles, N(N-1) = 6 S-matrices; one
    # contract call runs the whole level
    assert asep_calls["scattering.calls"] == 3 + 3 + 6
    assert asep_calls["kernels.contract.calls"] == 1
    # Bose: each variable on its own line, so one s_bose call per offset
    # Im(k_a - k_b) of the signed pairs with a + b >= 0: -h for (2, 1),
    # (3, 2) and (2, -1), -2h for (3, 1) and (3, -1), -3h for (3, -2)
    assert bose_calls["scattering.calls"] == 3
    assert bose_calls["kernels.contract.calls"] == 1


def test_an_n4_level_is_traced_through_the_k4_step(monkeypatch):
    # only an N = 4 level reaches the K4 step, in 33 of the 126 terms its
    # 192 merge into
    monkeypatch.setattr(asep_exact, "_CONTOUR_CACHE", OrderedDict())
    params = AsepParams.from_p(0.4)
    radii = asep_exact.tuned_radii(params, 4)
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        tables = asep_exact._contour_tables(params.p, radii.center, radii.radii, 8, True)
        _kernels.term_sum(tables.level((0, 1, 2, 3), (0, 1, 3, 5), 0.5))
    assert tracer.missing == []
    # eps and r on each of 4 circles, N(N-1) = 12 S-matrices
    assert tracer.counts["scattering.calls"] == 4 + 4 + 12
    assert tracer.counts["kernels.contract.calls"] == 1
    program = tables.level((0, 1, 2, 3), (0, 1, 3, 5), 0.5).schedule.program
    assert len(term_structure(4, True)) == 192
    assert sum(step[0] == _kernels.END for step in program.instructions) == 126
    assert sum(step[0] == _kernels.K4_CLOSE for step in program.instructions) == 33


def test_a_bose_op_is_traced_through_its_two_levels():
    # the tracer counts adaptive_trace's levels from its return value, so it
    # must still see the call that passes the Bose schedule by keyword
    y, x, time = (0.5, 1.4, 2.6), (0.8, 1.9, 3.1), bose_exact.DampedTime.imaginary(0.5)
    m0 = bose_exact._line_opts(y, x, time, 1.0, QuadOptions())[1].initial_points
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        rep = bose_exact.propagator_halfline(y, x, time, BoseParams(1.0))
    assert tracer.missing == []
    assert tracer.counts["contour_quad.levels"] == 2
    # m0 and its coarser check m0/1.1: the value and the points are m0's
    assert tracer.counts["contour_quad.points"] == rep.points_used == m0
    assert tracer.counts["kernels.contract.calls"] == 2  # one per level


def test_the_master_equation_check_refines_once():
    # du/dt and every u(X +- e_i) come from one level's tables, so a call
    # runs one refinement of two levels
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        asep_exact.master_equation_residual((0, 2, 4), (1, 3, 5), 1.0,
                                            AsepParams.from_p(0.4))
    assert tracer.missing == []
    assert tracer.counts["contour_quad.levels"] == 2
