import cmath
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import erfcx

from halfline_bethe import _kernels, bose_exact, contour_quad
from halfline_bethe._kernels import term_sum
from halfline_bethe.bose_exact import (GROWTH_BUDGET, DampedTime, _budget, _check_level,
                                       _cutoff, _cutoff_tail, _grid_parameters, _growth,
                                       _line_contour, _line_levels, _line_opts, _stagger,
                                       _staggered,
                                       bc1_residual, fermion_limit_cinf,
                                       free_limit_c0, images_kernel,
                                       propagator_fullline,
                                       propagator_halfline, wall_residual)
from halfline_bethe.contour_quad import LineGrid, QuadOptions, line_nodes
from halfline_bethe.errors import ConvergenceError
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

    @pytest.mark.parametrize("c,per_level", [(0.0, 2), (0.5, 3)])
    def test_u_is_contracted_only_at_finite_coupling(self, monkeypatch, c, per_level):
        # u(X) enters each level with coefficient -c, so at c = 0 a level
        # sums the two derivative tables alone, to the same value
        y, x, params = (0.7, 1.9), (1.3, 1.3), BoseParams(c)
        want = bc1_residual(y, x, 1, T, params)
        sums, levels = [], []
        monkeypatch.setattr(_kernels, "term_sum",
                            lambda *args: sums.append(1) or term_sum(*args))
        line_contour = bose_exact._line_contour
        monkeypatch.setattr(bose_exact, "_line_contour",
                            lambda *args: levels.append(1) or line_contour(*args))
        assert bc1_residual(y, x, 1, T, params) == want
        assert len(sums) == per_level * len(levels) > 0
        if c == 0.0:
            # the entry left out, 0 u(X), adds nothing
            evaluate = bose_exact.evaluate

            def with_u(*args):
                *head, functional = args
                return evaluate(*head, lambda contour, tables: [*functional(contour, tables),
                                                                (-0.0, {})])

            monkeypatch.setattr(bose_exact, "evaluate", with_u)
            assert bc1_residual(y, x, 1, T, params) == want

    def test_the_residual_refines_on_the_coarse_check(self, monkeypatch):
        # the derivative sums refine on m0 and its coarser check m0/1.1,
        # and the matching condition holds on m0
        y, x = (0.5, 1.4, 2.6), (0.8, 1.7, 1.7)
        m0 = _line_opts(y, x, T, 1.0, QuadOptions())[1].initial_points
        traces = []
        trace = contour_quad.adaptive_trace
        monkeypatch.setattr(contour_quad, "adaptive_trace",
                            lambda *args, **kwargs: traces.append(trace(*args, **kwargs))
                            or traces[-1])
        res = bc1_residual(y, x, 2, T, C1)
        (levels,) = [[m for m, _ in t] for t in traces]
        assert levels == [2 * math.floor(m0 / 1.1 / 2), m0]
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
    """A finite-c oracle that shares no code with the evaluator, on the full
    line; `TestFirstOrderInC` checks both lines to first order in c."""

    @pytest.mark.parametrize("y,x", [((0.3, 1.1), (0.6, 1.9)),
                                     ((-0.8, 0.4), (-1.2, 0.9))])
    @pytest.mark.parametrize("tau", [0.05, 0.2, 0.5, 2.0])
    def test_n2_closed_form(self, y, x, tau):
        # at the default tol the tau = 2 cases land at 2.6e-15: tol 1e-12 is
        # what buys the last digit
        for c in (0.5, 1.0, 4.0, 50.0):
            rep = propagator_fullline(y, x, DampedTime.imaginary(tau), BoseParams(c),
                                      QuadOptions(tol=1e-12))
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


class TestFirstOrderInC:
    """dG/dc at c = 0 from first-order perturbation theory in the contact
    term, -4 int_0^tau ds int dz g(x1, z; tau - s) g(x2, z; tau - s)
    g(z, y1; s) g(z, y2; s), with g the images kernel and z > 0 on the half
    line, the heat kernel and z real on the full line: on the half line the
    only finite-c check that shares no code with the evaluator."""

    @pytest.mark.parametrize("halfline", [True, False])
    @pytest.mark.parametrize("y,x,tau", [((0.7, 1.9), (1.2, 2.8), 0.5),
                                         ((0.5, 1.4), (0.8, 1.7), 0.2)])
    def test_n2_slope_at_zero_coupling(self, halfline, y, x, tau):
        def heat(a, b, t):
            return heat_kernel(a - b, t)

        g, propagator, low = ((images_kernel, propagator_halfline, 0.0) if halfline
                              else (heat, propagator_fullline, -math.inf))

        def integrand(z, s):
            return g(x[0], z, tau - s) * g(x[1], z, tau - s) * g(z, y[0], s) * g(z, y[1], s)

        want = -4.0 * dblquad(integrand, 0.0, tau, low, math.inf,
                              epsabs=1e-13, epsrel=1e-10)[0]
        values = {c: propagator(y, x, DampedTime.imaginary(tau), BoseParams(c),
                                QuadOptions(tol=1e-13)).value
                  for c in (0.0, 1e-3, 2e-3)}

        def slope(c):  # (G_c - G_0)/c, whose O(c) term the extrapolation cancels
            return (values[c] - values[0.0]) / c

        got = 2.0 * slope(1e-3) - slope(2e-3)
        assert abs(got - want) <= 1e-6 * abs(want), (got, want)


class TestStaggeredLines:
    """Variable d runs on Im k = -d h, so the S-poles stop setting the
    grid; the shift changes the contour, not the integral."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("halfline", [True, False])
    def test_every_pole_lies_at_least_h_below_the_lines(self, n, halfline):
        # every signed pair (a, b) the terms use, k_-a = -k_a, has
        # Im(k_a - k_b) <= -h, so S(k_a - k_b) keeps its pole at ic at
        # least c + h from the contour
        h = 0.7
        k = np.linspace(-3.0, 3.0, 7)
        nodes = _staggered(k, n, h)
        pairs = {ab for term in term_structure(n, halfline) for invs in term.mats
                 for ab in invs}
        assert pairs
        for a, b in pairs:
            ka, kb = (np.sign(v) * nodes[abs(v) - 1] for v in (a, b))
            assert (ka - kb).imag.max() <= -h * (1 - 1e-15), (a, b)

    def test_the_poles_no_longer_set_the_grid(self, monkeypatch):
        time = DampedTime.imaginary(0.2)
        staggered = {n: _line_opts(SWEEP_Y[n], SWEEP_X[n], time, 0.5, None) for n in (3, 4)}
        monkeypatch.setattr(bose_exact, "_stagger", lambda *args: 0.0)
        for n, (cutoff, opts, h) in staggered.items():
            assert h > 0
            flat = _line_opts(SWEEP_Y[n], SWEEP_X[n], time, 0.5, None)
            assert flat[2] == 0.0
            assert opts.initial_points < 0.7 * flat[1].initial_points, n

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("tau", [0.05, 0.2, 1.0, 2.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 4.0])
    def test_no_grid_is_finer_than_the_real_line(self, monkeypatch, n, tau, c):
        # the cutoff does not depend on h, and a shift whose growth costs
        # more than its wider strip buys is dropped
        y, x, time = SWEEP_Y[n], SWEEP_X[n], DampedTime.imaginary(tau)
        staggered = _line_opts(y, x, time, c, None)
        monkeypatch.setattr(bose_exact, "_stagger", lambda *args: 0.0)
        flat = _line_opts(y, x, time, c, None)
        assert staggered[0] == flat[0]
        assert staggered[1].initial_points <= flat[1].initial_points

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("tau", [0.05, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 4.0])
    def test_a_shift_that_buys_no_grid_point_is_dropped(self, n, tau, c):
        # at c = 4 the real line's strip is nearly wide enough: the shifted
        # grid, which pays for its growth, needs as many points or more, so
        # every variable stays on the one real grid
        y, x, time = SWEEP_Y[n], SWEEP_X[n], DampedTime.imaginary(tau)
        shift = _stagger(y, x, time, c, 1e-10)
        cutoff, opts, h = _line_opts(y, x, time, c, None)
        assert cutoff == _cutoff(n, tau, 1e-10)
        real = _grid_parameters(y, x, time, c, 0.0, 1e-10, cutoff)
        dropped = c == 4.0
        assert shift > 0
        assert h == (0.0 if dropped else shift)
        assert opts.initial_points == _grid_parameters(y, x, time, c, h, 1e-10, cutoff)
        assert opts.initial_points < real or h == 0.0 and opts.initial_points == real

    def test_the_shift_is_what_the_strip_needs(self):
        # the strip need not pass sqrt(log(1/tol)/tau) at t = -i tau; a
        # larger h would only raise the integrand's peak
        y, x, tau = SWEEP_Y[3], SWEEP_X[3], 2.0
        want = math.sqrt(math.log(1e10) / tau) / 0.9 - 3.5
        a, b = _growth(y, x, tau)
        assert 0 < want and (a * want + b) * want < math.log(GROWTH_BUDGET)
        assert _stagger(y, x, DampedTime.imaginary(tau), 3.5, 1e-10) \
            == pytest.approx(want, rel=1e-12)
        assert _stagger(y, x, DampedTime.imaginary(tau), 4.0, 1e-10) == 0.0

    def test_the_budget_sets_the_largest_shift(self):
        # at tau = 1 the strip would take h = 4.8, which raises the peak
        # past the budget: h is the root of A h^2 + B h = log(GROWTH_BUDGET)
        y, x = SWEEP_Y[3], SWEEP_X[3]
        h = _stagger(y, x, DampedTime.imaginary(1.0), 0.5, 1e-10)
        a, b = _growth(y, x, 1.0)
        assert _budget(3, 1.0, 1e-10) == GROWTH_BUDGET
        assert 0 < h < math.sqrt(math.log(1e10)) / 0.9 - 0.5
        assert (a * h + b) * h == pytest.approx(math.log(GROWTH_BUDGET), rel=1e-12)

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12, 1e-14])
    def test_the_rounding_budget_bounds_the_shift(self, tol):
        # a shifted line's growth e^(A h^2 + B h), times eps and the scale
        # S = 2^N N!/(2 sqrt(pi tau))^N of the sum, stays within tol/100 on
        # either line; where the rounding budget is below GROWTH_BUDGET it
        # sets h, and below 1 it leaves the real line, which adds no growth
        eps, rounding = np.finfo(float).eps, set()
        for n, tau, c in itertools.product((2, 3, 4), (0.05, 0.2, 0.5, 2.0), (0.5, 1.0, 4.0)):
            y, x, time = SWEEP_Y[n], SWEEP_X[n], DampedTime.imaginary(tau)
            scale = 2 ** n * math.factorial(n) / (2.0 * math.sqrt(math.pi * tau)) ** n
            a, b = _growth(y, x, tau)
            budget = _budget(n, tau, tol)
            assert budget == min(GROWTH_BUDGET, tol / (100 * eps * scale))
            for h in (_stagger(y, x, time, c, tol),
                      _line_opts(y, x, time, c, QuadOptions(tol=tol))[2]):
                if h > 0:
                    growth = math.exp((a * h + b) * h)
                    assert growth * eps * scale <= tol / 100 * (1 + 1e-12), (n, tau, c, h)
                    assert growth <= budget * (1 + 1e-12)
            h = _stagger(y, x, time, c, tol)
            if budget <= 1.0:
                assert h == 0.0
            elif budget < GROWTH_BUDGET and 0 < h < math.sqrt(math.log(1 / tol) / tau) / 0.9 - c:
                assert (a * h + b) * h == pytest.approx(math.log(budget), rel=1e-12)
                rounding.add((n, tau, c))
        # the rounding budget bites somewhere at every tol but the loosest
        assert tol == 1e-6 or rounding

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
        # shifted lines, growth included.  The rounding budget keeps tol
        # 1e-14 on the real line, so the lines take the default tol's shift
        y, x, time, c = SWEEP_Y[2], SWEEP_X[2], DampedTime.imaginary(tau), 0.5
        ref = propagator_halfline(y, x, time, BoseParams(c), QuadOptions(tol=1e-14)).value
        fine, opts, _ = _line_opts(y, x, time, c, QuadOptions(tol=1e-14))
        h = _line_opts(y, x, time, c, None)[2]
        assert h > 0
        m = 2 * round(cutoff * opts.initial_points / (2 * fine))
        k, w = line_nodes(LineGrid(cutoff, 2 * cutoff / m))
        value = term_sum(_line_contour(_staggered(k, 2, h), w, c, True).level(y, x, time.t))
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


SWEEP_Y = {1: (0.7,), 2: (0.6, 1.5), 3: (0.5, 1.4, 2.6), 4: (0.5, 1.4, 2.6, 3.5)}
SWEEP_X = {1: (1.2,), 2: (0.9, 2.1), 3: (0.8, 1.9, 3.1), 4: (0.8, 1.9, 3.1, 4.0)}
SWEEP_TAUS = (0.05, 0.2, 0.5, 2.0)
SWEEP_CS = (0.0, 0.5, 1.0, 4.0)
SWEEP_TOLS = (1e-3, 1e-4, 1e-6, 1e-8, 1e-10)


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
    """The first line grid is sized for tol and its cutoff leaves a tail
    bound of at most tol/10, so one check level m0/s, s = 1 + min(1/4,
    log 10/log(1/tol)), settles every case whose m0 has a coarser grid, and
    the estimate covers the error."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sweep(self, n):
        y, x = SWEEP_Y[n], SWEEP_X[n]
        order = group_order(n, True)
        for tau in SWEEP_TAUS:
            time = DampedTime.imaginary(tau)
            # the 2^N N! terms add up to at most this much in size
            scale = 2 ** n * math.factorial(n) / (2.0 * math.sqrt(math.pi * tau)) ** n
            for c in SWEEP_CS:
                ref = _sweep_reference(n, tau, c)
                for tol in SWEEP_TOLS:
                    opts = QuadOptions(tol=tol)
                    rep = propagator_halfline(y, x, time, BoseParams(c), opts)
                    cutoff, line, h = _line_opts(y, x, time, c, opts)
                    m0 = line.initial_points
                    tail = _cutoff_tail(y, x, time, h, order, cutoff, 2 * cutoff / m0)
                    err = abs(rep.value - ref)
                    case = (tau, c, tol, m0, rep.points_used, err, rep.error_estimate)
                    assert tail <= tol / 10, case + (tail,)
                    assert err <= tol, case
                    assert rep.points_used == (m0 if m0 > 16 else _check_level(m0, tol)), case
                    assert err <= rep.error_estimate + 4 * np.finfo(float).eps * scale, case

    def test_the_check_step_follows_tol(self):
        # 5/4 up to tol 1e-4, then log 10/log(1/tol): 1.1 at tol 1e-10
        assert [_check_level(160, tol) for tol in (1e-2, 1e-4, 1e-6, 1e-10, 1e-20)] \
            == [200, 200, 188, 176, 168]
        assert _check_level(151, 1e-10) == 168

    def test_the_schedule_checks_m0_on_a_coarser_grid(self):
        # m0, then m0/s rounded down to even, then up by s from m0; the
        # coarsest grid has 16 points, so an m0 of 16 goes up at once
        def levels(m0, tol):
            return list(itertools.islice(_line_levels(m0, tol), 4))

        assert levels(160, 1e-10) == [160, 144, 176, 194]
        assert levels(160, 1e-3) == [160, 128, 200, 250]
        assert levels(18, 1e-10) == [18, 16, 20, 22]
        assert levels(20, 1e-3) == [20, 16, 26, 34]
        assert levels(16, 1e-10) == [16, 18, 20, 22]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.05, 0.5, 2.0])
    def test_the_cutoff_is_the_smallest_that_meets_the_bound(self, n, tau):
        # at 2^N N! terms, growth GROWTH_BUDGET and spacing 0.35 the bound
        # is tol/10 at the cutoff and above it just inside
        order, growth = 2 ** n * math.factorial(n), math.log(GROWTH_BUDGET)
        for tol in SWEEP_TOLS:
            k = _cutoff(n, tau, tol)
            at = bose_exact._log_tail(n, tau, growth, order, k, 0.35)
            inside = bose_exact._log_tail(n, tau, growth, order, k * (1 - 1e-9), 0.35)
            assert inside > math.log(tol / 10) >= at - 1e-12, (tol, k)

    def test_estimate_covers_the_cutoff(self, monkeypatch):
        # on a cutoff shorter than `_cutoff`'s, 1.25 sqrt(log(1/tol)/tau) + 1,
        # both levels at tol 1e-3 share a tail that their difference (1.3e-8)
        # does not see; the error is 6.4e-7
        tau, tol = 0.05, 1e-3
        short = 1.25 * math.sqrt(math.log(1 / tol) / tau) + 1.0
        assert short < _cutoff(1, tau, tol)
        monkeypatch.setattr(bose_exact, "_cutoff", lambda *args: short)
        rep = propagator_halfline((0.7,), (1.2,), DampedTime.imaginary(tau),
                                  BoseParams(0.0), QuadOptions(tol=tol))
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

    def test_the_callers_max_points_is_kept(self, monkeypatch):
        # m0 = 116 here; the cap was once raised to 8 m0 = 928 whatever the
        # caller asked for
        y, x, params = (0.5, 1.3, 2.4), (0.9, 1.7, 3.0), BoseParams(0.5)
        time = DampedTime.imaginary(0.2)
        line = _line_opts(y, x, time, 0.5, QuadOptions(max_points=512))[1]
        assert (line.initial_points, line.max_points) == (116, 512)
        rep = propagator_halfline(y, x, time, params, QuadOptions(max_points=116))
        assert rep.points_used == 116
        # a first grid above the cap raises before any table is built
        built = []
        monkeypatch.setattr(bose_exact, "_line_contour", lambda *args: built.append(args))
        for below in (64, 114):
            with pytest.raises(ConvergenceError, match=f"116.*max_points={below}") as err:
                propagator_halfline(y, x, time, params, QuadOptions(max_points=below))
            assert err.value.estimates == (None, None)
        assert built == []


def _continued_permanent(y, x, t):
    """`free_limit_c0` continued to complex tau = i t, Re tau > 0: the
    permanent of the images kernel on the principal square root."""
    tau = 1j * t

    def images(a, b):
        return sum(sign * cmath.exp(-z * z / (4 * tau)) for sign, z in ((1, a - b), (-1, a + b))
                   ) / cmath.sqrt(4 * math.pi * tau)

    return sum(math.prod(images(x[j], y[pj]) for j, pj in enumerate(perm))
               for perm in itertools.permutations(range(len(y))))


class TestComplexTime:
    """At Re t != 0 the grid spacing is smallest on the strip
    sqrt(log(1/tol)/(delta + |Re t|)); the free gas checks that it still
    meets tol."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.3 - 0.05j, 1 - 0.5j, 2 - 1j])
    def test_c0_matches_the_continued_permanent(self, n, t):
        y, x = SWEEP_Y[n], SWEEP_X[n]
        ref = _continued_permanent(y, x, t)
        for tol in (1e-6, 1e-10):
            rep = propagator_halfline(y, x, DampedTime(t), BoseParams(0.0), QuadOptions(tol=tol))
            err = abs(rep.value - ref)
            assert err <= max(tol, rep.error_estimate), (tol, rep.value, ref, rep.error_estimate)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("t", [0.3 - 0.05j, 1 - 0.5j, 2 - 1j])
    @pytest.mark.parametrize("c", [0.5, 4.0])
    def test_finite_coupling_meets_a_fine_reference(self, n, t, c):
        # unfolded levels with S-matrices, each first level checked on a
        # coarser grid, against a reference refined to tol 1e-14
        y, x, time, params = SWEEP_Y[n], SWEEP_X[n], DampedTime(t), BoseParams(c)
        ref = propagator_halfline(y, x, time, params, QuadOptions(tol=1e-14))
        for tol in (1e-6, 1e-10):
            rep = propagator_halfline(y, x, time, params, QuadOptions(tol=tol))
            err = abs(rep.value - ref.value)
            assert rep.points_used < ref.points_used
            assert err <= max(tol, rep.error_estimate), (tol, rep, ref.value)

    def test_the_strip_takes_the_real_part(self):
        # beta = sqrt(log(1/tol)/(delta + |Re t|)) minimises the spacing
        # formula, so no other strip gives a coarser first grid
        y, x, time = SWEEP_Y[3], SWEEP_X[3], DampedTime(1 - 0.5j)
        cutoff = _cutoff(3, time.damping, 1e-10)
        m0 = _grid_parameters(y, x, time, 0.0, 0.0, 1e-10, cutoff)
        logt, rate = math.log(1e10), 1.5
        z = max(x) + max(y)
        for beta in np.linspace(0.5, 10.0, 40):
            spacing = min(0.35, 2 * math.pi / (z + rate * beta + logt / beta + 5))
            assert m0 <= max(16, 2 * math.ceil(cutoff / spacing))


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
