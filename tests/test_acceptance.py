"""Acceptance suite: one test per criterion, tolerances pinned as stated.

Every test prints one PASS/FAIL line (visible with `pytest -s` and in the
captured output); the criteria carrying runtime budgets assert them too.
"""

import itertools
import math
import time

import numpy as np
import pytest

from halfline_bethe._kernels import evaluate
from halfline_bethe.asep_exact import (_contour_tables, evaluate_extended,
                                       master_equation_residual, prob_fullline,
                                       prob_halfline, prob_n1_closed,
                                       total_mass, tuned_radii)
from halfline_bethe.bose_exact import (DampedTime, bc1_residual,
                                       fermion_limit_cinf, free_limit_c0,
                                       images_kernel, propagator_fullline,
                                       propagator_halfline, wall_residual)
from halfline_bethe.contour_quad import QuadOptions
from halfline_bethe.oracles import (LatticeWindow, McConfig, ctmc_distribution,
                                    ctmc_prob, mc_estimate)
from halfline_bethe.scattering import AsepParams, BoseParams
from halfline_bethe.suites import run_identity_suite

SEED = 20120517


def _report(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_identity_suite(capsys):
    """Scattering identities over all of B_N up to N=4, 200 draws each."""
    start = time.perf_counter()
    rep = run_identity_suite(n_max=4, draws=200, seed=SEED, p=0.4, c=1.0)
    elapsed = time.perf_counter() - start
    by_name = {c.name: c for c in rep.checks}
    ok = (
        by_name["ratio-relation-bose"].worst < 1e-10
        and by_name["ratio-relation-asep"].worst < 1e-10
        and by_name["signflip-pairing-bose"].worst < 1e-12
        and by_name["wall-pairing-asep"].worst < 1e-10
        and by_name["ab-pair-cancellation"].worst < 1e-10
        and elapsed < 60.0
    )
    worst = max(c.worst for c in rep.checks)
    _report(capsys, 1, ok,
            f"identity suite N<=4: worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_n1_triple_agreement(capsys):
    """Signed-permutation evaluator vs closed form vs uniformization, N=1."""
    start = time.perf_counter()
    worst_closed = 0.0
    worst_oracle = 0.0
    for p in (0.3, 0.5, 0.7):
        params = AsepParams.from_p(p)
        for t in (0.25, 1.0, 4.0):
            for y in range(6):
                states, dist = ctmc_distribution(
                    (y,), t, params, LatticeWindow(0, 40), tol=1e-14)
                ref = {s[0]: v for s, v in zip(states, dist)}
                for x in range(6):
                    a = prob_n1_closed(y, x, t, params).value
                    b = prob_halfline((y,), (x,), t, params).value
                    worst_closed = max(worst_closed, abs(a - b))
                    worst_oracle = max(worst_oracle, abs(a - ref[x]),
                                       abs(b - ref[x]))
    elapsed = time.perf_counter() - start
    ok = worst_closed < 1e-10 and worst_oracle < 1e-8 and elapsed < 60.0
    _report(capsys, 2, ok,
            f"N=1 triple agreement: closed-vs-sum {worst_closed:.2e}, "
            f"vs oracle {worst_oracle:.2e}, {elapsed:.1f}s")


def test_criterion_3_n2_oracle_equivalence(capsys):
    """Every reachable two-particle configuration against uniformization."""
    start = time.perf_counter()
    params = AsepParams.from_p(0.4)
    worst = 0.0
    checked = 0
    for t in (0.5, 1.0):
        states, dist = ctmc_distribution((0, 2), t, params,
                                         LatticeWindow(0, 20), tol=1e-14)
        for state, mass in zip(states, dist):
            if mass <= 1e-9:
                continue
            checked += 1
            worst = max(worst, abs(prob_halfline((0, 2), state, t, params).value
                                   - mass))
    mass_err = abs(total_mass((0, 2), 1.0, params, 25) - 1.0)
    delta_err = max(abs(prob_halfline((0, 2), (0, 2), 0.0, params).value - 1.0),
                    abs(prob_halfline((0, 2), (1, 3), 0.0, params).value))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and mass_err < 1e-6 and delta_err < 1e-8 and elapsed < 300.0
    _report(capsys, 3, ok,
            f"N=2 oracle sweep ({checked} configs): worst {worst:.2e}, "
            f"mass {mass_err:.2e}, delta {delta_err:.2e}, {elapsed:.1f}s")


def test_criterion_4_n3_spot_checks(capsys):
    """Three-particle spot checks with the reduced quadrature budget."""
    start = time.perf_counter()
    params = AsepParams.from_p(0.4)
    t = 0.5
    opts = QuadOptions(initial_points=16, max_points=512, tol=1e-8)
    targets = [(1, 3, 5), (0, 2, 4), (0, 1, 2), (2, 4, 6), (1, 2, 3)]
    states, dist = ctmc_distribution((0, 2, 4), t, params,
                                     LatticeWindow(0, 16), tol=1e-14)
    ref = {s: v for s, v in zip(states, dist)}
    worst = 0.0
    for x in targets:
        got = prob_halfline((0, 2, 4), x, t, params, opts).value
        worst = max(worst, abs(got - ref[x]))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 1800.0
    _report(capsys, 4, ok,
            f"N=3 spot checks (5 configs): worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_contour_robustness(capsys):
    params = AsepParams.from_p(0.4)
    worst = 0.0
    for (y, x, t) in (((0,), (2,), 1.0), ((0, 2), (1, 3), 1.0),
                      ((1, 4), (0, 2), 0.5)):
        base = tuned_radii(params, len(y))
        ref = prob_halfline(y, x, t, params).value
        scaled = prob_halfline(y, x, t, params, radii=base.scaled(1.1)).value
        spread = prob_halfline(y, x, t, params, radii=base.gaps_doubled()).value
        worst = max(worst, abs(scaled - ref), abs(spread - ref))
    _report(capsys, 5, worst < 1e-8,
            f"contour robustness (x1.1 radii, doubled gaps): worst {worst:.2e}")


def test_radii_assignment_invariance():
    """Nested distinct radii enclose the same poles, so every assignment of
    the radii to the variables gives the same value."""
    for p in (0.15, 0.5, 0.9):
        params = AsepParams.from_p(p)
        for (y, x) in (((0, 2), (1, 3)), ((0, 2, 4), (1, 2, 5))):
            ref = ctmc_prob(y, x, 1.0, params)
            contours = tuned_radii(params, len(y)).contours()
            for perm in itertools.permutations(contours):
                value, _, _ = evaluate(lambda m: _contour_tables(params, perm, m, True),
                                       y, x, 1.0, True, QuadOptions())
                assert abs(value - ref) < 1e-11, (p, y, x, perm)


def test_criterion_6_boundary_and_master_residuals(capsys):
    params = AsepParams.from_p(0.4)
    t = 0.7
    p, q, tau = params.p, params.q, params.tau
    bc_collision = 0.0
    for x in (1, 3):
        lhs = (p * evaluate_extended((0, 2), (x, x), t, params)
               + q * evaluate_extended((0, 2), (x + 1, x + 1), t, params)
               - evaluate_extended((0, 2), (x, x + 1), t, params))
        bc_collision = max(bc_collision, abs(lhs))
    bc_wall = abs(evaluate_extended((0, 2), (0, 4), t, params)
                  - tau * evaluate_extended((0, 2), (-1, 4), t, params))
    master = max(master_equation_residual((0, 2), (3, 4), 1.0, params),
                 master_equation_residual((0, 2), (1, 4), 1.0, params),
                 master_equation_residual((0,), (0,), 1.0, params))
    worst = max(bc_collision, bc_wall, master)
    _report(capsys, 6, worst < 1e-8,
            f"boundary/master residuals: collision {bc_collision:.2e}, "
            f"wall {bc_wall:.2e}, master {master:.2e}")


def test_criterion_7_bose_n1_images(capsys):
    params = BoseParams(1.0)
    worst = 0.0
    pts = (0.5, 1.3, 2.6, 4.0)
    for tau in (0.1, 0.5, 2.0):
        t = DampedTime.imaginary(tau)
        for y in pts:
            for x in pts:
                got = propagator_halfline((y,), (x,), t, params).value
                worst = max(worst, abs(got - images_kernel(x, y, tau)))
    _report(capsys, 7, worst < 1e-10,
            f"hard-wall N=1 vs method of images: worst {worst:.2e}")


def test_criterion_8_bose_n2_n3(capsys):
    tau = 0.5
    t = DampedTime.imaginary(tau)
    y2, x2 = (0.7, 1.9), (1.2, 2.8)
    y3, x3 = (0.5, 1.4, 2.6), (0.8, 1.9, 3.1)

    # exactly zero: each folded term carries v+ - v-, which vanishes at x_1 = 0
    wall = max(abs(wall_residual(y, x0, t, BoseParams(1.0)))
               for y, x0 in ((y2, (0.0, 1.5)), (y3, (0.0, 1.2, 2.3))))

    bc1 = 0.0
    for c in (0.5, 1.0, 4.0):
        params = BoseParams(c)
        res = abs(bc1_residual(y2, (1.3, 1.3), 1, t, params))
        scale = abs(propagator_halfline(y2, (1.3, 1.3 + 1e-9), t, params).value)
        bc1 = max(bc1, res / scale)
        res = abs(bc1_residual(y3, (0.8, 1.7, 1.7), 2, t, params))
        scale = abs(propagator_halfline(y3, (0.8, 1.7, 1.7 + 1e-9), t,
                                        params).value)
        bc1 = max(bc1, res / scale)

    free = 0.0
    for (y, x) in ((y2, x2), (y3, x3)):
        got = propagator_halfline(y, x, t, BoseParams(0.0)).value
        free = max(free, abs(got - free_limit_c0(y, x, tau)))

    det = fermion_limit_cinf(y2, x2, tau)
    errs = [abs(propagator_halfline(y2, x2, t, BoseParams(c)).value - det)
            for c in (1e2, 1e3, 1e4)]
    sweep_ok = errs[1] < 0.5 * errs[0] and errs[2] < 0.5 * errs[1]

    ok = wall == 0 and bc1 < 1e-8 and free < 1e-10 and sweep_ok
    _report(capsys, 8, ok,
            f"Bose N=2,3: wall {wall:.2e}, bc1 {bc1:.2e}, free-limit "
            f"{free:.2e}, strong-coupling errors {errs[0]:.1e}->"
            f"{errs[1]:.1e}->{errs[2]:.1e}")


def test_criterion_9_monte_carlo_concordance(capsys):
    params = AsepParams.from_p(0.4)
    t = 1.0
    configs = [(0, 2), (1, 3), (0, 1), (1, 2), (0, 3),
               (2, 3), (1, 4), (0, 4), (2, 4), (3, 5)]
    hits_within = 0
    for x in configs:
        exact = prob_halfline((0, 2), x, t, params).value
        est, se = mc_estimate((0, 2), x, McConfig(200_000, SEED, t), params)
        if abs(exact - est) <= 4.0 * max(se, 1e-12):
            hits_within += 1
    est1, _ = mc_estimate((0, 2), (1, 3), McConfig(200_000, SEED, t), params)
    est2, _ = mc_estimate((0, 2), (1, 3), McConfig(200_000, SEED, t), params)
    ok = hits_within >= math.ceil(0.95 * len(configs)) and est1 == est2
    _report(capsys, 9, ok,
            f"Monte Carlo concordance: {hits_within}/{len(configs)} within "
            f"4 standard errors; identical seeds reproduce: {est1 == est2}")


def test_criterion_10_fullline_crosschecks(capsys):
    params = AsepParams.from_p(0.4)
    worst_asep = 0.0
    for (y, x) in (((0,), (2,)), ((0,), (-1,)), ((0, 2), (-1, 3)),
                   ((0, 2), (1, 3))):
        got = prob_fullline(y, x, 1.0, params).value
        ref = ctmc_prob(y, x, 1.0, params, halfline=False)
        worst_asep = max(worst_asep, abs(got - ref))

    worst_heat = 0.0
    tau = 0.5
    for (y, x) in ((0.7, 2.0), (-1.0, 1.5), (0.0, 0.0)):
        got = propagator_fullline((y,), (x,), DampedTime.imaginary(tau),
                                  BoseParams(1.0)).value
        expected = math.exp(-(x - y) ** 2 / (4 * tau)) / math.sqrt(4 * math.pi * tau)
        worst_heat = max(worst_heat, abs(got - expected))

    ok = worst_asep < 1e-6 and worst_heat < 1e-10
    _report(capsys, 10, ok,
            f"full-line cross-checks: exclusion vs oracle {worst_asep:.2e}, "
            f"free propagator vs heat kernel {worst_heat:.2e}")
