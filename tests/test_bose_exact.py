import math

import numpy as np
import pytest
from scipy.special import erfcx

from halfline_bethe import bose_exact
from halfline_bethe._kernels import term_sum
from halfline_bethe.bose_exact import (GROWTH_BUDGET, DampedTime, _cutoff_tail,
                                       _five_quarters, _growth, _line_contour,
                                       _line_opts, _stagger, _staggered,
                                       bc1_residual, fermion_limit_cinf,
                                       free_limit_c0, images_kernel,
                                       propagator_fullline,
                                       propagator_halfline, wall_residual)
from halfline_bethe.contour_quad import LineGrid, QuadOptions, line_nodes
from halfline_bethe.scattering import BoseParams
from halfline_bethe.signed_perm import group_order, term_structure

TAU = 0.5
T = DampedTime.imaginary(TAU)
C1 = BoseParams(1.0)


def heat_kernel(z, tau):
    return math.exp(-z * z / (4 * tau)) / math.sqrt(4 * math.pi * tau)


class TestDampedTime:
    def test_rejects_real_time(self):
        with pytest.raises(ValueError):
            DampedTime(1.0 + 0.0j)
        with pytest.raises(ValueError):
            DampedTime(1.0 - 1e-5j)

    def test_imaginary_mode(self):
        t = DampedTime.imaginary(0.25)
        assert t.t == -0.25j
        assert t.damping == 0.25
        # small tau is fine in diffusive mode
        assert DampedTime.imaginary(1e-5).damping == pytest.approx(1e-5)

    def test_pure_imaginary_time_is_the_diffusive_mode(self):
        # Re t = 0 admits any damping, as `imaginary` does
        assert DampedTime(-1e-5j) == DampedTime.imaginary(1e-5)
        for bad in (0j, -0j, 1e-5j):
            with pytest.raises(ValueError):
                DampedTime(bad)

    def test_no_damping_knob(self):
        # a caller's delta_min of 0 once let a real time through to a
        # ZeroDivisionError, a negative one a growing time to a math domain
        # error; without the knob both times are rejected
        for t, knob in ((1.0, 0.0), (0.5j, -1.0)):
            with pytest.raises(TypeError):
                DampedTime(t, delta_min=knob)
            with pytest.raises(ValueError):
                DampedTime(t)

    def test_damping_bound(self):
        t = DampedTime(0.3 - 0.1j)
        k = np.linspace(-3, 3, 7)
        assert np.all(np.abs(np.exp(-1j * t.t * k * k)) <= np.exp(-0.1 * k * k) + 1e-15)


class TestConfigValidation:
    def test_ordering(self):
        with pytest.raises(ValueError):
            propagator_halfline((1.0, 0.5), (1.0, 2.0), T, C1)

    def test_positivity(self):
        with pytest.raises(ValueError):
            propagator_halfline((0.0, 1.0), (1.0, 2.0), T, C1)

    def test_fullline_allows_negative(self):
        propagator_fullline((-1.0,), (0.5,), T, C1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_positions_rejected(self, bad):
        for fn in (propagator_halfline, propagator_fullline):
            with pytest.raises(ValueError, match="finite"):
                fn((0.5, 1.0), (1.0, bad), T, C1)
            with pytest.raises(ValueError, match="finite"):
                fn((0.5, bad), (1.0, 2.0), T, C1)

    def test_size_cap(self):
        xs = tuple(0.5 + i for i in range(5))
        with pytest.raises(ValueError):
            propagator_halfline(xs, xs, T, C1)


class TestSingleParticle:
    @pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
    def test_images(self, tau):
        t = DampedTime.imaginary(tau)
        for (y, x) in ((1.0, 2.0), (0.5, 3.5), (2.8, 0.2)):
            got = propagator_halfline((y,), (x,), t, C1).value
            assert abs(got - images_kernel(x, y, tau)) < 1e-10

    def test_wall_limit_vanishes(self):
        vals = [abs(propagator_halfline((1.0,), (x,), T, C1).value)
                for x in (0.5, 0.1, 0.02)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.1 * vals[0]

    def test_fullline_heat_kernel(self):
        got = propagator_fullline((0.7,), (2.0,), T, C1).value
        assert abs(got - heat_kernel(1.3, TAU)) < 1e-10

    def test_passed_options_keep_the_damping_resolution(self):
        # tau = 0.002 needs a finer starting grid than the 16 points that
        # QuadOptions asks for; the passed tolerance must not coarsen it
        got = propagator_halfline((3.0,), (3.5,), DampedTime.imaginary(0.002), C1,
                                  QuadOptions(tol=1e-9)).value
        assert abs(got - images_kernel(3.5, 3.0, 0.002)) < 1e-12

    def test_coupling_independent_for_one_particle(self):
        # one particle has no S-matrix, so c sets neither value nor grid
        a = propagator_halfline((1.0,), (2.0,), T, BoseParams(0.3))
        b = propagator_halfline((1.0,), (2.0,), T, BoseParams(30.0))
        assert a.points_used == b.points_used
        assert a.value == b.value

    def test_one_particle_grid_ignores_the_coupling(self):
        # the S-poles once capped the strip at 0.9c here too: at tau = 0.2,
        # 336 points at c = 0.5 against 106 at c = 0
        for time in (T, DampedTime.imaginary(0.2), DampedTime(1.0 - 0.5j)):
            assert _line_opts((1.0,), (2.0,), time, 0.3, None) \
                == _line_opts((1.0,), (2.0,), time, 30.0, None) \
                == _line_opts((1.0,), (2.0,), time, 0.0, None)


class TestWall:
    # v+ - v- of the folded dimension vanishes at x_1 = 0, so every folded
    # term is exactly zero
    def test_n2_exact_zero(self):
        assert wall_residual((0.7, 1.9), (0.0, 1.5), T, C1) == 0

    def test_n3_exact_zero(self):
        assert wall_residual((0.5, 1.4, 2.6), (0.0, 1.2, 2.3), T, C1) == 0

    def test_requires_zero_first(self):
        with pytest.raises(ValueError):
            wall_residual((1.0, 2.0), (0.5, 1.5), T, C1)


class TestBoundaryMatching:
    @pytest.mark.parametrize("c", [0.5, 1.0, 4.0])
    def test_n2(self, c):
        params = BoseParams(c)
        res = bc1_residual((0.7, 1.9), (1.3, 1.3), 1, T, params)
        scale = abs(propagator_halfline((0.7, 1.9), (1.3, 1.3 + 1e-9), T,
                                        params).value)
        assert abs(res) < 1e-8 * scale

    def test_free_limit_derivative_matching(self):
        res = bc1_residual((0.7, 1.9), (1.3, 1.3), 1, T, BoseParams(0.0))
        scale = abs(propagator_halfline((0.7, 1.9), (1.3, 1.3 + 1e-9), T,
                                        BoseParams(0.0)).value)
        assert abs(res) < 1e-8 * scale

    def test_n3_middle_pair(self):
        y = (0.5, 1.4, 2.6)
        res = bc1_residual(y, (0.8, 1.7, 1.7), 2, T, C1)
        scale = abs(propagator_halfline(y, (0.8, 1.7, 1.70000001), T, C1).value)
        assert abs(res) < 1e-7 * scale

    def test_pair_index_validated(self):
        with pytest.raises(ValueError):
            bc1_residual((0.7, 1.9), (1.3, 1.3), 2, T, C1)
        with pytest.raises(ValueError):
            bc1_residual((0.7, 1.9), (1.2, 1.3), 1, T, C1)


class TestEvolutionEquation:
    def test_finite_difference_cross_check(self):
        # independent check: FD in time against FD Laplacian, step 1e-4
        y, x = (0.7, 1.9), (1.0, 2.2)
        dt, dx = 1e-4, 1e-3

        def psi(tt, xx):
            return propagator_halfline(y, xx, DampedTime(tt), C1,
                                       QuadOptions(initial_points=256,
                                                   max_points=4096,
                                                   tol=1e-12)).value

        t0 = T.t
        ddt = (psi(t0 + dt, x) - psi(t0 - dt, x)) / (2 * dt)
        lap = 0.0
        for j in range(2):
            xp = list(x)
            xm = list(x)
            xp[j] += dx
            xm[j] -= dx
            lap += (psi(t0, tuple(xp)) - 2 * psi(t0, x) + psi(t0, tuple(xm))) / dx ** 2
        base = psi(t0, x)
        # i dPsi/dt + sum_j d^2 Psi/dx_j^2 = 0 away from coincidence
        assert abs(1j * ddt + lap) < 1e-6 * max(abs(base), 1.0)


class TestClosedFormLimits:
    def test_free_limit_n2(self):
        y, x = (0.7, 1.9), (1.2, 2.8)
        got = propagator_halfline(y, x, T, BoseParams(0.0)).value
        assert abs(got - free_limit_c0(y, x, TAU)) < 1e-10

    def test_free_limit_n3(self):
        y, x = (0.5, 1.4, 2.6), (0.8, 1.9, 3.1)
        got = propagator_halfline(y, x, T, BoseParams(0.0)).value
        assert abs(got - free_limit_c0(y, x, TAU)) < 1e-10

    def test_free_limit_factorizes_when_distant(self):
        # far-separated particles: permanent collapses to the diagonal product
        y, x = (1.0, 30.0), (1.3, 30.5)
        got = free_limit_c0(y, x, 0.1)
        prod = images_kernel(1.3, 1.0, 0.1) * images_kernel(30.5, 30.0, 0.1)
        assert got == pytest.approx(prod, rel=1e-12)

    def test_fermion_n1_reduces_to_images(self):
        assert fermion_limit_cinf((1.0,), (2.0,), TAU) == \
            pytest.approx(images_kernel(2.0, 1.0, TAU))

    def test_fermion_determinant_vanishes_on_coincidence(self):
        val = fermion_limit_cinf((1.0, 2.0), (1.5, 1.5 + 1e-12), TAU)
        assert abs(val) < 1e-12

    def test_strong_coupling_sweep(self):
        y, x = (0.7, 1.9), (1.2, 2.8)
        det = fermion_limit_cinf(y, x, TAU)
        errs = [abs(propagator_halfline(y, x, T, BoseParams(c)).value - det)
                for c in (1e2, 1e3, 1e4)]
        assert errs[0] < 5e-3
        # empirical O(1/c): each decade of coupling shrinks the gap ~10x
        assert errs[1] < 0.2 * errs[0]
        assert errs[2] < 0.2 * errs[1]

    def test_n2_strong_coupling_example(self):
        got = propagator_halfline((0.7, 1.9), (1.2, 2.8),
                                  DampedTime.imaginary(0.5), BoseParams(1000.0))
        assert abs(got.value - fermion_limit_cinf((0.7, 1.9), (1.2, 2.8), 0.5)) < 5e-3


def _fullline_n2(y, x, tau, c):
    """The N = 2 full-line propagator at t = -i tau in closed form, sharing
    no code with the evaluator.  The centre of mass R = (x1 + x2)/2 diffuses
    with coefficient 1/2; r = x2 - x1 > 0 with coefficient 2 and the Robin
    condition d_r u = (c/2) u at r = 0, whose kernel is g(r - r') + g(r + r')
    - c int_0^inf e^(-cs/2) g(r + r' + s) ds (Carslaw & Jaeger, Conduction of
    Heat in Solids, 1959), the integral written with erfcx so that it does
    not overflow at large c."""
    (y1, y2), (x1, x2) = y, x
    shift = (x1 + x2 - y1 - y2) / 2
    centre = math.exp(-shift * shift / (2 * tau)) / math.sqrt(2 * math.pi * tau)
    r, rp = x2 - x1, y2 - y1

    def g(z):
        return math.exp(-z * z / (8 * tau)) / math.sqrt(8 * math.pi * tau)

    w = (r + rp + 2 * c * tau) / math.sqrt(8 * tau)
    robin = 0.5 * c * erfcx(w) * math.exp(-(r + rp) ** 2 / (8 * tau))
    return centre * (g(r - rp) + g(r + rp) - robin)


class TestFiniteCouplingFullLine:
    """The only finite-c oracle that shares no code with the evaluator."""

    @pytest.mark.parametrize("y,x", [((0.3, 1.1), (0.6, 1.9)),
                                     ((-0.8, 0.4), (-1.2, 0.9))])
    @pytest.mark.parametrize("tau", [0.05, 0.2, 0.5, 2.0])
    def test_n2_closed_form(self, y, x, tau):
        for c in (0.5, 1.0, 4.0, 50.0):
            rep = propagator_fullline(y, x, DampedTime.imaginary(tau), BoseParams(c))
            want = _fullline_n2(y, x, tau, c)
            assert abs(rep.value - want) <= 1e-15, (c, rep.value, want)

    def test_closed_form_limits(self):
        # c = 0 gives the free permanent, large c the free determinant
        y, x, tau = (-0.8, 0.4), (-1.2, 0.9), 0.5
        g = [[heat_kernel(xi - yj, tau) for yj in y] for xi in x]
        perm = g[0][0] * g[1][1] + g[0][1] * g[1][0]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        assert _fullline_n2(y, x, tau, 0.0) == pytest.approx(perm, rel=1e-14)
        assert _fullline_n2(y, x, tau, 1e9) == pytest.approx(det, rel=1e-6)


class TestStaggeredLines:
    """Variable d runs on Im k = -(d+1) h, so the S-poles stop setting the
    grid; the shift changes the contour, not the integral."""

    def test_the_poles_no_longer_set_the_grid(self, monkeypatch):
        y, x, time = SWEEP_Y[3], SWEEP_X[3], DampedTime.imaginary(0.2)
        cutoff, opts, h = _line_opts(y, x, time, 0.5, None)
        assert h > 0
        monkeypatch.setattr(bose_exact, "_stagger", lambda *args: 0.0)
        flat = _line_opts(y, x, time, 0.5, None)
        assert flat[2] == 0.0
        assert opts.initial_points < 0.7 * flat[1].initial_points

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("tau", [0.05, 0.2, 1.0, 2.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 4.0])
    def test_no_grid_is_finer_than_the_real_line(self, monkeypatch, n, tau, c):
        # the cutoff does not depend on h, and the strip only widens toward
        # sqrt(log(1/tol)/tau), where the spacing is coarsest
        y, x, time = SWEEP_Y[n], SWEEP_X[n], DampedTime.imaginary(tau)
        staggered = _line_opts(y, x, time, c, None)
        monkeypatch.setattr(bose_exact, "_stagger", lambda *args: 0.0)
        flat = _line_opts(y, x, time, c, None)
        assert staggered[0] == flat[0]
        assert staggered[1].initial_points <= flat[1].initial_points

    def test_the_shift_is_what_the_strip_needs(self):
        # the strip need not pass sqrt(log(1/tol)/tau) at t = -i tau; a
        # larger h would only raise the integrand's peak
        y, x, tau = SWEEP_Y[3], SWEEP_X[3], 2.0
        want = math.sqrt(math.log(1e10) / tau) / 0.9 - 3.5
        assert 0 < want < 0.5
        assert _stagger(y, x, DampedTime.imaginary(tau), 3.5, 1e-10) \
            == pytest.approx(want, rel=1e-12)
        assert _stagger(y, x, DampedTime.imaginary(tau), 4.0, 1e-10) == 0.0

    def test_the_budget_sets_the_largest_shift(self):
        # at tau = 1 the strip would take h = 0.5, which raises the peak
        # past the budget: h is the root of A h^2 + B h = log(GROWTH_BUDGET)
        y, x = SWEEP_Y[3], SWEEP_X[3]
        h = _stagger(y, x, DampedTime.imaginary(1.0), 0.5, 1e-10)
        a, b = _growth(y, x, 1.0)
        assert 0 < h < 0.5
        assert (a * h + b) * h == pytest.approx(math.log(GROWTH_BUDGET), rel=1e-12)

    @pytest.mark.parametrize("t", [1 - 0.5j, 0.3 - 0.05j, 2 - 1j])
    def test_complex_times_stay_on_the_real_line(self, monkeypatch, t):
        y, x, time = SWEEP_Y[3], SWEEP_X[3], DampedTime(t)
        assert _stagger(y, x, time, 0.5, 1e-10) == 0.0
        got = _line_opts(y, x, time, 0.5, None)
        monkeypatch.setattr(bose_exact, "_stagger", lambda *args: 0.0)
        assert got == _line_opts(y, x, time, 0.5, None)

    @pytest.mark.parametrize("tau", [0.05, 0.2, 1.0, 2.0])
    def test_the_budget_bounds_the_peak(self, tau):
        # prod_d max |v_d| / w on the shifted nodes, the largest factor the
        # lines put on a term, is the growth e^(A h^2 + B h) <= GROWTH_BUDGET
        y, x, time = SWEEP_Y[3], SWEEP_X[3], DampedTime.imaginary(tau)
        h = _stagger(y, x, time, 0.5, 1e-10)
        assert h > 0
        k, w = line_nodes(LineGrid(40.0, 0.005))
        # c = 0: the vectors alone, without 16001^2 S-matrices
        tables = _line_contour(_staggered(k, 3, h), w, 0.0, True).level(y, x, time.t)
        peak = math.prod(max(np.abs(v).max() for key, v in tables.vectors.items()
                             if key[0] == d) / w.max() for d in range(3))
        a, b = _growth(y, x, tau)
        growth = math.exp((a * h + b) * h)
        assert peak == pytest.approx(growth, rel=1e-12)
        assert growth <= GROWTH_BUDGET * (1 + 1e-12)

    @pytest.mark.parametrize("n,tau", [(2, 0.05), (2, 0.5), (2, 2.0),
                                       (3, 0.05), (3, 0.2), (3, 2.0)])
    def test_agrees_with_the_real_line(self, monkeypatch, n, tau):
        y, x, t = SWEEP_Y[n], SWEEP_X[n], DampedTime.imaginary(tau)
        opts = QuadOptions(tol=1e-13)
        staggered = [propagator_halfline(y, x, t, BoseParams(c), opts)
                     for c in (0.5, 1.0, 4.0)]
        monkeypatch.setattr(bose_exact, "_stagger", lambda *args: 0.0)
        for c, rep in zip((0.5, 1.0, 4.0), staggered):
            flat = propagator_halfline(y, x, t, BoseParams(c), opts).value
            assert abs(rep.value - flat) <= opts.tol, (c, rep.value, flat)
            assert rep.error_estimate <= opts.tol, (c, rep.error_estimate)

    @pytest.mark.parametrize("tau,cutoff", [(0.2, 6.0), (0.2, 8.0), (0.05, 15.0),
                                            (1.0, 4.0)])
    def test_the_tail_bound_covers_a_short_cutoff(self, tau, cutoff):
        # one level on a cutoff far too short, at the spacing of tol 1e-14:
        # what it misses is the tail, which _cutoff_tail must bound on the
        # shifted lines, growth included
        y, x, time, c = SWEEP_Y[2], SWEEP_X[2], DampedTime.imaginary(tau), 0.5
        ref = propagator_halfline(y, x, time, BoseParams(c), QuadOptions(tol=1e-14)).value
        fine, opts, h = _line_opts(y, x, time, c, QuadOptions(tol=1e-14))
        assert h > 0
        m = 2 * round(cutoff * opts.initial_points / (2 * fine))
        k, w = line_nodes(LineGrid(cutoff, 2 * cutoff / m))
        value = term_sum(_line_contour(_staggered(k, 2, h), w, c, True).level(y, x, time.t),
                         term_structure(2, True))
        bound = _cutoff_tail(y, x, time, h, group_order(2, True), cutoff, 2 * cutoff / m)
        assert abs(value - ref) <= bound, (abs(value - ref), bound)

    def test_wall_residual_stays_exactly_zero(self):
        for t in (-0.2j, -2j):
            assert wall_residual((0.5, 1.4, 2.6), (0.0, 1.2, 2.3), t, BoseParams(0.5)) == 0


class TestNonFiniteTau:
    @pytest.mark.parametrize("limit", [free_limit_c0, fermion_limit_cinf])
    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_rejected(self, limit, tau):
        with pytest.raises(ValueError, match="tau"):
            limit((0.5, 1.0), (1.0, 2.0), tau)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_imaginary_time_rejected(self, tau):
        with pytest.raises(ValueError, match="tau"):
            DampedTime.imaginary(tau)


SWEEP_Y = {1: (0.7,), 2: (0.6, 1.5), 3: (0.5, 1.4, 2.6)}
SWEEP_X = {1: (1.2,), 2: (0.9, 2.1), 3: (0.8, 1.9, 3.1)}
SWEEP_TAUS = (0.05, 0.5, 2.0)
SWEEP_CS = (0.0, 0.5, 4.0)
SWEEP_TOLS = (1e-3, 1e-4, 1e-6, 1e-10)


def _sweep_reference(n, tau, c):
    """The images kernel (N = 1), the permanent (c = 0), else tol 1e-14."""
    y, x = SWEEP_Y[n], SWEEP_X[n]
    if n == 1:
        return images_kernel(x[0], y[0], tau)
    if c == 0.0:
        return free_limit_c0(y, x, tau)
    return propagator_halfline(y, x, DampedTime.imaginary(tau), BoseParams(c),
                               QuadOptions(tol=1e-14)).value


class TestLevelSchedule:
    """The first line grid is sized for tol, so one check level 5/4 finer
    settles every case, and the estimate covers the error."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sweep(self, n):
        y, x = SWEEP_Y[n], SWEEP_X[n]
        for tau in SWEEP_TAUS:
            time = DampedTime.imaginary(tau)
            # the 2^N N! terms add up to at most this much in size
            scale = 2 ** n * math.factorial(n) / (2.0 * math.sqrt(math.pi * tau)) ** n
            for c in SWEEP_CS:
                ref = _sweep_reference(n, tau, c)
                for tol in SWEEP_TOLS:
                    opts = QuadOptions(tol=tol)
                    rep = propagator_halfline(y, x, time, BoseParams(c), opts)
                    m0 = _line_opts(y, x, time, c, opts)[1].initial_points
                    err = abs(rep.value - ref)
                    case = (tau, c, tol, m0, rep.points_used, err, rep.error_estimate)
                    assert err <= tol, case
                    assert rep.points_used == _five_quarters(m0), case
                    assert err <= rep.error_estimate + 4 * np.finfo(float).eps * scale, case

    def test_estimate_covers_the_cutoff(self):
        # at tol 1e-3 both levels share a cutoff whose tail the difference of
        # the two levels (1.3e-8) does not see; the error is 6.4e-7
        tau = 0.05
        rep = propagator_halfline((0.7,), (1.2,), DampedTime.imaginary(tau),
                                  BoseParams(0.0), QuadOptions(tol=1e-3))
        err = abs(rep.value - images_kernel(1.2, 0.7, tau))
        assert 1e-7 < err <= rep.error_estimate < 1e-5

    def test_an_odd_start_is_rounded_up_to_an_even_grid(self):
        # a line grid spans an even number of spacings: 1001 points once
        # reached LineGrid as cutoff/spacing = 500.5
        y, x = (0.7, 1.9), (1.2, 2.8)
        rep = propagator_halfline(y, x, T, C1, QuadOptions(initial_points=1001,
                                                           max_points=8192))
        assert _line_opts(y, x, T, 1.0, QuadOptions(initial_points=1001))[1] \
            .initial_points == 1002
        assert rep.value == pytest.approx(propagator_halfline(y, x, T, C1).value,
                                          abs=1e-10)


class TestSymmetry:
    def test_near_coincident_exchange(self):
        # Bose symmetry on the boundary of the ordered sector
        a = propagator_fullline((0.5, 1.5), (1.0, 1.0 + 1e-6), T, C1).value
        b = propagator_fullline((0.5, 1.5), (1.0 - 1e-6, 1.0), T, C1).value
        assert abs(a - b) < 1e-4 * max(abs(a), 1e-12)

    def test_grid_refinement_stable(self):
        rep = propagator_halfline((0.7, 1.9), (1.2, 2.8), T, C1)
        fine = propagator_halfline((0.7, 1.9), (1.2, 2.8), T, C1,
                                   QuadOptions(initial_points=2 * rep.points_used,
                                               max_points=8 * rep.points_used,
                                               tol=1e-10))
        assert abs(rep.value - fine.value) < 1e-10
