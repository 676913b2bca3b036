import math

import numpy as np
import pytest

from halfline_bethe.contour_quad import (CircleContour, LineGrid, QuadOptions,
                                         RadiiScheme, adaptive_eval,
                                         adaptive_trace, circle_nodes,
                                         line_nodes)
from halfline_bethe.errors import ConvergenceError


class TestTypes:
    def test_circle_validation(self):
        with pytest.raises(ValueError):
            CircleContour(0.0, -1.0)
        with pytest.raises(ValueError):
            CircleContour(0.0, float("inf"))

    def test_radii_scheme_ordering(self):
        with pytest.raises(ValueError):
            RadiiScheme(0.0, (2.0, 1.0))
        with pytest.raises(ValueError):
            RadiiScheme(0.0, (2.0, 2.05))  # below the 0.05*R_1 gap default
        with pytest.raises(ValueError):
            RadiiScheme(0.5, ())
        scheme = RadiiScheme(1.0, (2.0, 2.2, 2.5))
        assert scheme.n == 3
        assert scheme.scaled(2.0).radii == pytest.approx((4.0, 4.4, 5.0))
        assert scheme.gaps_doubled().radii == pytest.approx((2.0, 2.4, 3.0))

    @pytest.mark.parametrize("center", [complex("nan"), complex(math.inf, 0.0),
                                        complex(0.5, math.nan)])
    def test_center_must_be_finite(self, center):
        # a NaN center passed the evaluators' pole check, whose distances
        # compare false, and refined NaN levels up to max_points
        with pytest.raises(ValueError, match="center"):
            CircleContour(center, 1.0)
        with pytest.raises(ValueError, match="center"):
            RadiiScheme(center, (3.0, 4.0))

    @pytest.mark.parametrize("cutoff,spacing", [(math.inf, 0.5), (4.0, math.inf),
                                                (math.nan, 0.5), (math.inf, math.inf),
                                                (1.0, 1e-320)])
    def test_line_grid_must_be_finite(self, cutoff, spacing):
        # an infinite cutoff/spacing raised OverflowError from round
        with pytest.raises(ValueError):
            LineGrid(cutoff, spacing)

    def test_line_grid_ratio(self):
        with pytest.raises(ValueError):
            LineGrid(1.0, 0.3)
        with pytest.raises(ValueError):
            LineGrid(1.0, 0.5)  # ratio 2 < 8
        LineGrid(8.0, 1.0)

    def test_quad_options(self):
        with pytest.raises(ValueError):
            QuadOptions(initial_points=4)
        with pytest.raises(ValueError):
            QuadOptions(max_points=8)
        with pytest.raises(ValueError):
            QuadOptions(tol=0.0)

    @pytest.mark.parametrize("field", ["initial_points", "max_points"])
    def test_point_counts_are_integers(self, field):
        # 8.5 points would space a circle's nodes 2 pi/8.5 apart, no closed rule
        for bad in (8.5, 64.0, np.float64(64), "64"):
            with pytest.raises(ValueError, match="integers"):
                QuadOptions(**{field: bad})
        assert getattr(QuadOptions(**{field: np.int64(64)}), field) == 64


class TestCircleRule:
    def test_residue_is_exact(self):
        contour = CircleContour(0.7 + 0.2j, 1.5)
        for m in (8, 16, 37):
            nodes, weights = circle_nodes(contour, m)
            val = np.sum(weights / (nodes - contour.center))
            assert val == pytest.approx(1.0, abs=1e-14)

    def test_laurent_exactness(self):
        # (xi - c)^n integrates to 0 for every n != -1 with |n| small vs m
        contour = CircleContour(0.0, 2.0)
        nodes, weights = circle_nodes(contour, 16)
        for n in range(-10, 11):
            if n == -1:
                continue
            val = np.sum(weights * nodes ** n)
            assert abs(val) < 1e-13 * max(1.0, 2.0 ** (n + 1))

    def test_exp_over_xi(self):
        nodes, weights = circle_nodes(CircleContour(0.0, 1.0), 32)
        val = np.sum(weights * np.exp(nodes) / nodes)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_minimum_nodes(self):
        with pytest.raises(ValueError):
            circle_nodes(CircleContour(0.0, 1.0), 4)


class TestLineRule:
    def test_gaussian(self):
        nodes, weights = line_nodes(LineGrid(8.0, 0.1))
        val = np.sum(weights * np.exp(-nodes ** 2))
        assert val == pytest.approx(math.sqrt(math.pi) / (2 * math.pi), abs=1e-12)

    def test_odd_integrand_vanishes(self):
        nodes, weights = line_nodes(LineGrid(6.0, 0.25))
        val = np.sum(weights * nodes ** 3 * np.exp(-nodes ** 2))
        assert abs(val) < 1e-15

    def test_fourier_gaussian_heat_kernel(self):
        # integral of exp(ikz - tau k^2)/(2 pi) is the heat kernel
        tau = 0.5
        nodes, weights = line_nodes(LineGrid(10.0, 0.05))
        for z in (-4.0, -1.2, 0.0, 2.7, 4.0):
            val = np.sum(weights * np.exp(1j * nodes * z - tau * nodes ** 2))
            expected = math.exp(-z * z / (4 * tau)) / math.sqrt(4 * math.pi * tau)
            assert val == pytest.approx(expected, abs=1e-10)

    def test_halving_spacing_stable(self):
        a = line_nodes(LineGrid(8.0, 0.1))
        b = line_nodes(LineGrid(8.0, 0.05))
        fa = np.sum(a[1] * np.exp(-a[0] ** 2 + 0.4j * a[0]))
        fb = np.sum(b[1] * np.exp(-b[0] ** 2 + 0.4j * b[0]))
        assert abs(fa - fb) < 1e-12

    def test_doubling_cutoff_stable(self):
        a = line_nodes(LineGrid(8.0, 0.1))
        b = line_nodes(LineGrid(16.0, 0.1))
        fa = np.sum(a[1] * np.exp(-a[0] ** 2))
        fb = np.sum(b[1] * np.exp(-b[0] ** 2))
        assert abs(fa - fb) < 1e-12


def _circle_level(contour, f):
    def level(m):
        nodes, weights = circle_nodes(contour, m)
        return np.sum(weights * f(nodes))

    return level


class TestAdaptive:
    def test_constant_on_circle(self):
        level = _circle_level(CircleContour(0.0, 1.0), np.ones_like)
        value, err, m = adaptive_eval(level, QuadOptions())
        assert abs(value) < 1e-15
        assert err < 1e-15
        assert m == 32

    def test_residue_converges_immediately(self):
        level = _circle_level(CircleContour(0.0, 1.5), lambda x: 1.0 / x)
        value, err, m = adaptive_eval(level, QuadOptions())
        assert value == pytest.approx(1.0, abs=1e-13)
        assert m == 32

    def test_tensor_2d(self):
        c1, c2 = RadiiScheme(0.0, (1.0, 1.5)).contours()

        def level(m):
            (x, wx), (y, wy) = circle_nodes(c1, m), circle_nodes(c2, m)
            return wx @ (1.0 / np.multiply.outer(x, y)) @ wy

        value, err, m = adaptive_eval(level, QuadOptions())
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_nonconvergence_raises_with_estimates(self):
        state = {"n": 0}

        def level(m):
            state["n"] += 1
            return state["n"] * 1.0  # never stabilizes

        with pytest.raises(ConvergenceError) as err:
            adaptive_trace(level, QuadOptions(initial_points=8, max_points=32))
        assert err.value.estimates is not None
        assert err.value.estimates[0] != err.value.estimates[1]

    def test_a_schedule_that_starts_above_the_cap_raises(self):
        # no level fits: the empty trace once raised IndexError
        calls = []
        with pytest.raises(ConvergenceError, match="64.*max_points=32") as err:
            adaptive_trace(calls.append, QuadOptions(max_points=32), resolutions=[64, 128])
        assert err.value.estimates == (None, None)
        assert calls == []
        with pytest.raises(ConvergenceError) as err:
            adaptive_trace(calls.append, resolutions=[])
        assert err.value.estimates == (None, None)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 1.0),
                                     complex(1.0, -math.inf)])
    def test_a_level_that_is_not_finite_raises_at_once(self, bad):
        # abs() of the difference of two such levels once raised
        # OverflowError, and NaN levels refined to max_points
        calls = []

        def level(m):
            calls.append(m)
            return 1.0 if m == 8 else bad

        with pytest.raises(ConvergenceError, match="m=16 is .*not finite") as err:
            adaptive_trace(level, QuadOptions(initial_points=8, max_points=4096))
        assert calls == [8, 16]
        assert err.value.estimates[0] == 1.0
        assert repr(err.value.estimates[1]) == repr(bad)

    def test_deformation_invariance(self):
        # integrand analytic in an annulus: radius choice is immaterial
        opts = QuadOptions()
        vals = []
        for radius in (2.0, 2.2):
            level = _circle_level(CircleContour(0.0, radius),
                                  lambda x: 1.0 / (x - 0.3) + x ** 2)
            vals.append(adaptive_eval(level, opts)[0])
        assert abs(vals[0] - vals[1]) < 10 * opts.tol

    def test_line_tensor_grid(self):
        def level(m):
            k, w = line_nodes(LineGrid(8.0, 16.0 / m))
            return w @ np.exp(-(k[:, None] ** 2) - k[None, :] ** 2) @ w

        value, err, m = adaptive_eval(
            level, QuadOptions(initial_points=64, max_points=1024))
        assert value == pytest.approx(math.pi / (4 * math.pi ** 2), abs=1e-11)

    def test_rounding_floor_plateau_accepted(self):
        # successive differences that stall below 100*tol count as converged
        seq = [1.0, 1e-9, 1.5e-9, 1.1e-9, 1.2e-9]

        def level(m):
            return seq.pop(0)

        trace = adaptive_trace(level, QuadOptions(initial_points=8,
                                                  max_points=4096, tol=1e-10))
        assert len(trace) == 4


def _five_quarters(m):
    """m, then 5/4 steps rounded up to even."""
    while True:
        yield m
        m = 2 * math.ceil(5 * m / 8)


class TestSchedule:
    @staticmethod
    def _visits(opts, **kwargs):
        seen = []

        def level(m):
            seen.append(m)
            return float(len(seen))  # never stabilizes

        with pytest.raises(ConvergenceError):
            adaptive_trace(level, opts, **kwargs)
        return seen

    def test_default_doubles(self):
        opts = QuadOptions(initial_points=16, max_points=256)
        assert self._visits(opts) == [16, 32, 64, 128, 256]
        assert self._visits(opts, resolutions=[16, 32, 64, 128, 256, 512]) \
            == [16, 32, 64, 128, 256]

    def test_five_quarters_visits(self):
        seen = self._visits(QuadOptions(initial_points=16, max_points=100),
                            resolutions=_five_quarters(16))
        assert seen == [16, 20, 26, 34, 44, 56, 70, 88]
        assert all(m % 2 == 0 for m in seen)

    def test_adaptive_eval_passes_the_schedule(self):
        value, err, m = adaptive_eval(lambda m: 1.0 + math.exp(-m), QuadOptions(
            initial_points=40, tol=1e-10), resolutions=_five_quarters(40))
        assert m == 50
        assert err == pytest.approx(math.exp(-40) - math.exp(-50))

    @pytest.mark.parametrize("tol", [1e-3, 1e-10])
    def test_no_false_floor_on_a_spectral_error(self, tol):
        # error C exp(-a m), falling by a factor r per doubling of m at the
        # first level m0 = 16.  Every r below 1/20 is swept: the first grid
        # resolves the integrand, so neither the tol rule nor the plateau
        # rule may stop at an error above tol.  (From r ~ 0.1 the plateau
        # rule can stop early at tol 1e-3, as it can under doubling from
        # r ~ 0.24: such a first grid does not resolve the integrand.)  A
        # plateau threshold of 0.3 per step, not per doubling, returns errors
        # of 1.5 tol from r ~ 0.0044.
        m0 = 16
        for scale in np.geomspace(1e-3, 1e3, 7):
            for r in np.geomspace(1e-12, 0.05, 200):
                a = -math.log(r) / m0

                def level(m):
                    return 1.0 + scale * math.exp(-a * m)

                trace = adaptive_trace(level, QuadOptions(initial_points=m0, tol=tol),
                                       resolutions=_five_quarters(m0))
                assert abs(trace[-1][1] - 1.0) <= tol, (scale, r, trace)

    def test_rounding_floor_plateau_accepted_at_five_quarters(self):
        # the differences 1e-9 -> 5e-10 halve, under the 0.3**(4/16) ~ 0.74
        # that a floor keeps over the step from 16 to 20, so refinement goes
        # on; 5e-10 -> 4e-10 keeps 0.8 > 0.3**(6/20) ~ 0.70: a floor
        seq = [1.0, 1.0 + 1e-9, 1.0 + 1.5e-9, 1.0 + 1.1e-9, 1.0 + 1.2e-9]
        trace = adaptive_trace(lambda m: seq.pop(0),
                               QuadOptions(initial_points=16, tol=1e-10),
                               resolutions=_five_quarters(16))
        assert [m for m, _ in trace] == [16, 20, 26, 34]


def _levels(values):
    """A level function that reads its value at m from a dict."""
    return lambda m: values[m]


class TestCoarseCheck:
    """A schedule that checks its first level on a coarser grid, as the
    line grids do: m0 = 40, then 36, then 44, 48, ..."""

    SCHEDULE = (40, 36, 44, 48, 52)

    def test_a_passing_check_returns_the_first_level(self):
        f = _levels({36: 1.0 + 5e-11, 40: 1.0 + 5e-12})
        trace = adaptive_trace(f, QuadOptions(tol=1e-10), resolutions=self.SCHEDULE)
        assert [m for m, _ in trace] == [36, 40]
        value, err, m = adaptive_eval(f, QuadOptions(tol=1e-10), resolutions=self.SCHEDULE)
        assert (value, m) == (1.0 + 5e-12, 40)
        assert err == abs((1.0 + 5e-12) - (1.0 + 5e-11))

    def test_a_failing_check_goes_up_and_compares_the_two_finest(self):
        # 36 and 40 disagree; 44 agrees with 40, not with 36
        f = _levels({36: 1.0 + 1e-6, 40: 1.0 + 1e-9, 44: 1.0 + 1e-9 + 5e-11})
        value, err, m = adaptive_eval(f, QuadOptions(tol=1e-10), resolutions=self.SCHEDULE)
        assert (value, m) == (1.0 + 1e-9 + 5e-11, 44)
        assert err == abs((1.0 + 1e-9 + 5e-11) - (1.0 + 1e-9))

    @pytest.mark.parametrize("last, levels", [(1.0 + 0.05e-9, [36, 40, 44]),
                                              (1.0 + 0.2e-9, [36, 40, 44, 48])])
    def test_the_plateau_rule_reads_the_sorted_trace(self, last, levels):
        # the differences 1e-9 over 36 -> 40 and then 0.95e-9 or 0.8e-9
        # over 40 -> 44: a step from 36 to 40 allows 0.3**(4/36) ~ 0.875,
        # so 0.95 is a floor and 0.8 goes on.  Read in schedule order, the
        # step would run from 40 down to 36
        f = _levels({36: 1.0, 40: 1.0 + 1e-9, 44: last, 48: last + 5e-11})
        trace = adaptive_trace(f, QuadOptions(tol=1e-10), resolutions=self.SCHEDULE)
        assert [m for m, _ in trace] == levels

    def test_nonconvergence_carries_the_two_finest_levels(self):
        f = _levels({36: 1.0, 40: 2.0, 44: 4.0})
        with pytest.raises(ConvergenceError) as err:
            adaptive_trace(f, QuadOptions(max_points=44), resolutions=self.SCHEDULE)
        assert err.value.estimates == (2.0, 4.0)

    def test_a_repeated_resolution_is_refused(self):
        # two equal levels would agree to the last bit and stop refinement
        with pytest.raises(ValueError, match="listed twice"):
            adaptive_trace(lambda m: 1.0 + 1.0 / m, QuadOptions(), resolutions=(40, 36, 40))
