import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from halfline_bethe import _kernels, asep_exact
from halfline_bethe._kernels import term_sum
from halfline_bethe.asep_exact import (AsepEvalReport, _alias_safe, _circle_contour,
                                       _contour_tables,
                                       _image_reach,
                                       evaluate_extended,
                                       master_equation_residual, prob_fullline,
                                       prob_halfline, prob_n1_closed,
                                       total_mass, tuned_radii)
from halfline_bethe.contour_quad import (CircleContour, QuadOptions, RadiiScheme,
                                         adaptive_eval, circle_nodes)
from halfline_bethe.errors import ConvergenceError
from halfline_bethe.oracles import ctmc_prob
from halfline_bethe.scattering import AsepParams, integer_sites, lattice_sites, s_asep
from halfline_bethe.signed_perm import term_structure

P04 = AsepParams.from_p(0.4)


def _level_value(y, x, t, params, contours, m):
    """One folded half-line quadrature level, summed straight from the
    contour tables, its real part kept as `evaluate` keeps it."""
    return term_sum(_circle_contour(params, contours, m, True, True).level(y, x, t)).real


class TestConfigs:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            lattice_sites((2, 2), halfline=False)
        with pytest.raises(ValueError):
            lattice_sites((3, 1), halfline=False)

    def test_halfline_nonnegative(self):
        with pytest.raises(ValueError):
            prob_halfline((-1, 2), (0, 3), 1.0, P04)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            prob_halfline(tuple(range(5)), tuple(range(5)), 1.0, P04)

    @pytest.mark.parametrize("bad", [2.7, 2.5, math.nan, math.inf])
    def test_non_integer_sites_rejected(self, bad):
        # int() would truncate 2.7 to 2 and give the value at (0, 2)
        calls = [lambda: lattice_sites((0, bad), halfline=False),
                 lambda: prob_halfline((0, bad), (1, 3), 1.0, P04),
                 lambda: prob_halfline((0, 2), (1, bad), 1.0, P04),
                 lambda: prob_fullline((0, bad), (1, 3), 1.0, P04),
                 lambda: evaluate_extended((0, 2), (bad, 3), 1.0, P04),
                 lambda: prob_n1_closed(0, bad, 1.0, P04),
                 lambda: prob_n1_closed(bad, 1, 1.0, P04)]
        for call in calls:
            with pytest.raises(ValueError, match="integers"):
                call()

    def test_every_evaluator_names_the_broken_rule(self):
        # the evaluators and the oracles share one rule, `lattice_sites`
        unordered, wall = "strictly increase", "must be >= 0"
        cases = [(lambda: prob_halfline((2, 0), (1, 3), 1.0, P04), unordered),
                 (lambda: prob_halfline((0, 2), (-1, 3), 1.0, P04), wall),
                 (lambda: prob_fullline((0, 2), (3, 3), 1.0, P04), unordered),
                 (lambda: evaluate_extended((2, 2), (3, 3), 1.0, P04), unordered),
                 (lambda: evaluate_extended((-1, 2), (3, 3), 1.0, P04), wall),
                 (lambda: master_equation_residual((0, 2), (2, 1), 1.0, P04), unordered),
                 (lambda: master_equation_residual((-2, 0), (0, 1), 1.0, P04), wall),
                 (lambda: total_mass((3, 1), 1.0, P04, 8), unordered),
                 (lambda: total_mass((-1,), 1.0, P04, 8), wall),
                 (lambda: prob_n1_closed(-1, 2, 1.0, P04), wall),
                 (lambda: prob_n1_closed(0, -2, 1.0, P04), wall),
                 (lambda: prob_halfline((), (), 1.0, P04), "at least one")]
        for call, rule in cases:
            with pytest.raises(ValueError, match=rule):
                call()

    def test_integral_floats_still_accepted(self):
        assert (prob_halfline((0.0, np.float64(2.0)), (1, 3), 1.0, P04)
                == prob_halfline((0, 2), (1, 3), 1.0, P04))


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_non_finite_time_rejected(t):
    # before any level: a nan or infinite t refined every level to max_points
    calls = [lambda: prob_halfline((0,), (1,), t, P04),
             lambda: prob_fullline((0,), (1,), t, P04),
             lambda: evaluate_extended((0,), (-1,), t, P04),
             lambda: master_equation_residual((0,), (1,), t, P04),
             lambda: prob_n1_closed(0, 1, t, P04)]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


def _pole_images_inside(params: AsepParams, radii, safety: float) -> bool:
    """Check by sampling that the fixed poles and every contour image of the
    scattering-factor poles stay inside the smallest circle by the given
    safety factor: 720 angles on 7 circles between R_1 and R_N."""
    p, q = params.p, params.q
    center = 1.0 / (2.0 * q)
    r_min = radii[0]
    fixed = max(abs(center), abs(1.0 - center), abs(params.tau - center))
    if fixed > safety * r_min:
        return False
    theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    ring = np.exp(1j * theta)
    for r in np.linspace(radii[0], radii[-1], 7):
        xi = center + r * ring
        for img in (p / (1.0 - q * xi), p * xi / (xi - p)):
            if np.max(np.abs(img - center)) > safety * r_min:
                return False
    return True


def _sampled_radii(params: AsepParams, n: int) -> RadiiScheme:
    """The reference for tuned_radii: the same ladder of R_1 (1.3, then
    x1.12 per step, times the farthest fixed pole), each step checked by
    sampling."""
    center = 1.0 / (2.0 * params.q)
    base = 1.3 * max(abs(center), abs(1.0 - center), abs(params.tau - center))
    for _ in range(80):
        radii = tuple(base * 1.3 ** a for a in range(n))
        if _pole_images_inside(params, radii, 0.75):
            return RadiiScheme(center, radii)
        base *= 1.12
    raise AssertionError(f"no radii for {params}")


class TestRadii:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equal_to_the_sampled_search(self, n):
        for p in np.linspace(0.001, 0.999, 1000):
            params = AsepParams.from_p(float(p))
            assert tuned_radii(params, n) == _sampled_radii(params, n), p

    @pytest.mark.parametrize("p", [0.001, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999, -0.3, 1.5])
    def test_image_reach_is_the_sampled_maximum(self, p):
        params = AsepParams.from_p(p)
        q = params.q
        center = 1.0 / (2.0 * q)
        fixed = max(abs(center), abs(1.0 - center), abs(params.tau - center))
        ring = np.exp(2j * np.pi * np.arange(20_000) / 20_000)
        reaches = []
        for r in fixed * np.geomspace(1.3, 20.0, 12):
            xi = center + r * ring
            sampled = max(np.max(np.abs(img - center))
                          for img in (p / (1.0 - q * xi), p * xi / (xi - p)))
            reaches.append(_image_reach(params, r))
            assert reaches[-1] == pytest.approx(sampled, rel=1e-14), r
            if 0 < p < 1:  # the closed forms; here fixed = center
                assert reaches[-1] == pytest.approx(
                    max(center + p / (q * r - 0.5), center - p + p * p / (r - center + p)),
                    rel=1e-14)
        if 0 < p < 1:
            # the innermost circle bounds the images of every larger one
            assert all(b < a for a, b in zip(reaches, reaches[1:]))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_radii_distinct_and_poles_inside(self, n, p):
        params = AsepParams.from_p(p)
        scheme = tuned_radii(params, n)
        assert all(b > a for a, b in zip(scheme.radii, scheme.radii[1:]))
        center = scheme.center.real
        for pole in (0.0, 1.0, params.tau):
            assert abs(pole - center) < scheme.radii[0]

    def test_tuned_radii_image_containment(self):
        for p in (0.3, 0.5, 0.7):
            params = AsepParams.from_p(p)
            scheme = tuned_radii(params, 3)
            assert _pole_images_inside(params, scheme.radii, safety=0.76)

    def test_p_zero_rejected(self):
        with pytest.raises(ValueError):
            tuned_radii(AsepParams.from_p(0.0), 1)

    def test_cached_radii_equal_the_ladder(self):
        # the ladder runs once per (p, n); every call returns its scheme
        asep_exact._tuned_radii.cache_clear()
        for p in np.linspace(0.005, 0.995, 199):
            for n in range(1, 5):
                params = AsepParams.from_p(float(p))
                ladder = asep_exact._tuned_radii.__wrapped__(float(p), n)
                assert repr(tuned_radii(params, n)) == repr(ladder)
                assert repr(tuned_radii(params, n)) == repr(ladder)
        assert asep_exact._tuned_radii.cache_info().hits == 199 * 4

    @pytest.mark.parametrize("p", [0.0, -0.3, 1.5])
    def test_a_bad_p_raises_on_every_call(self, p):
        tuned_radii(AsepParams.from_p(0.4), 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="0 < p < 1"):
                tuned_radii(AsepParams.from_p(p), 2)

    @pytest.mark.parametrize("p", [0.2, 0.4, 0.7])
    def test_caller_radii_must_enclose_the_fixed_poles(self, p):
        params = AsepParams.from_p(p)
        center = 1.0 / (2.0 * params.q)  # the farthest fixed pole, 0, is this far
        with pytest.raises(ValueError, match="poles 0, 1 and tau"):
            prob_n1_closed(0, 2, 1.0, params, radius=0.6 * center)
        with pytest.raises(ValueError, match="poles 0, 1 and tau"):
            prob_n1_closed(0, 2, 1.0, params, radius=center)
        for radii in ((0.6 * center, 0.96 * center), (center, 1.3 * center)):
            with pytest.raises(ValueError, match="poles 0, 1 and tau"):
                prob_halfline((0, 2), (1, 3), 1.0, params,
                              radii=RadiiScheme(center, radii))
            with pytest.raises(ValueError, match="poles 0, 1 and tau"):
                evaluate_extended((0, 2), (1, 3), 1.0, params,
                                  radii=RadiiScheme(center, radii))

    @pytest.mark.parametrize("p", [0.2, 0.4, 0.7])
    @pytest.mark.parametrize("y,x", [((0, 2), (1, 3)), ((0, 2, 4), (1, 3, 5))])
    def test_radii_inside_the_image_reach_still_work(self, p, y, x):
        # reach < R_1 is sufficient, not necessary: 3 % inside the radius
        # where the images touch the innermost circle the value still matches
        # the CTMC, so the evaluators do not reject on it
        params = AsepParams.from_p(p)
        center = 1.0 / (2.0 * params.q)
        touch = brentq(lambda r: _image_reach(params, r) - r, 1.001 * center,
                       100.0 * center)
        radii = tuple(0.97 * touch * 1.3 ** a for a in range(len(y)))
        assert radii[0] > center and _image_reach(params, radii[0]) > radii[0]
        rep = prob_halfline(y, x, 1.0, params, radii=RadiiScheme(center, radii))
        assert abs(rep.value - ctmc_prob(y, x, 1.0, params, tol=1e-16)) < 1e-14

    def test_one_radius_per_particle(self):
        three = tuned_radii(P04, 3)
        with pytest.raises(ValueError):
            prob_halfline((0, 2), (1, 3), 1.0, P04, radii=three)
        with pytest.raises(ValueError):
            evaluate_extended((0, 2), (1, 3), 1.0, P04, radii=tuned_radii(P04, 1))


class TestN1Closed:
    def test_delta(self):
        assert prob_n1_closed(2, 2, 0.0, P04).value == pytest.approx(1.0, abs=1e-12)
        assert prob_n1_closed(2, 4, 0.0, P04).value == pytest.approx(0.0, abs=1e-12)

    def test_matches_signed_sum(self):
        for (y, x, t) in [(0, 0, 1.0), (1, 3, 0.5), (4, 0, 2.0)]:
            a = prob_n1_closed(y, x, t, P04).value
            b = prob_halfline((y,), (x,), t, P04).value
            assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_matches_birth_death_oracle(self, t):
        params = AsepParams.from_p(0.3)
        for y in (0, 2, 5):
            for x in (0, 1, 5):
                exact = prob_n1_closed(y, x, t, params).value
                ref = ctmc_prob((y,), (x,), t, params)
                assert abs(exact - ref) < 1e-8


class TestHalfline:
    def test_delta_initial_condition(self):
        assert prob_halfline((0, 2), (0, 2), 0.0, P04).value == \
            pytest.approx(1.0, abs=1e-10)
        assert abs(prob_halfline((0, 2), (1, 3), 0.0, P04).value) < 1e-10

    def test_n2_oracle_example(self):
        rep = prob_halfline((0, 2), (1, 3), 1.0, P04)
        ref = ctmc_prob((0, 2), (1, 3), 1.0, P04)
        assert abs(rep.value - ref) < 1e-6
        assert rep.imag_residual < 1e-10
        assert rep.value >= -1e-8
        assert rep.term_count == 8  # |B_2|

    def test_report_fields(self):
        rep = prob_halfline((0,), (1,), 0.5, P04)
        assert isinstance(rep, AsepEvalReport)
        assert rep.points_used >= 16
        assert rep.error_estimate < 1e-9

    def test_reversed_orientation_consistency(self):
        # deep-tail arguments route through the reversibility identity
        far = prob_halfline((0, 2), (11, 14), 1.0, P04).value
        ref = ctmc_prob((0, 2), (11, 14), 1.0, P04, tol=1e-16)
        assert abs(far - ref) < 1e-10

    def test_contour_invariance(self):
        base = tuned_radii(P04, 2)
        ref = prob_halfline((0, 2), (1, 3), 1.0, P04).value
        scaled = prob_halfline((0, 2), (1, 3), 1.0, P04,
                               radii=base.scaled(1.1)).value
        spread = prob_halfline((0, 2), (1, 3), 1.0, P04,
                               radii=base.gaps_doubled()).value
        assert abs(scaled - ref) < 1e-8
        assert abs(spread - ref) < 1e-8

    def test_mass_at_t_zero_is_single_term(self):
        assert abs(total_mass((0, 2), 0.0, P04, 8) - 1.0) < 1e-10

    def test_mass_n1(self):
        assert abs(total_mass((0,), 1.0, P04, 30) - 1.0) < 1e-8

    def test_mass_n2(self):
        assert abs(total_mass((0, 2), 0.5, P04, 16) - 1.0) < 1e-6

    @pytest.mark.parametrize("window", [-5, 0, 2.5, math.nan])
    def test_mass_needs_an_integer_window_of_n_sites(self, window):
        # -5 once summed nothing to 0.0, 2.5 raised TypeError from range
        with pytest.raises(ValueError):
            total_mass((0, 2), 1.0, P04, window)

    def test_mass_refuses_a_window_past_its_cap(self):
        # C(10^6 + 1, 2), about 5e11 prob_halfline calls, refused before any
        start = time.perf_counter()
        with pytest.raises(ValueError, match="configurations"):
            total_mass((0, 2), 1.0, P04, 10**6)
        assert time.perf_counter() - start < 1.0
        window = 140  # C(141, 2) = 9870 configurations, just within the cap
        assert math.comb(window + 1, 2) <= asep_exact.MAX_MASS_CALLS < math.comb(window + 2, 2)
        with pytest.raises(ValueError, match="configurations"):
            total_mass((0, 2), 1.0, P04, window + 1)

    def test_mass_in_the_smallest_window(self):
        assert total_mass((0, 2), 0.0, P04, 1) == prob_halfline((0, 2), (0, 1), 0.0,
                                                                P04).value

    def test_adaptive_error_estimate_quality(self):
        # refinement history of the two-particle integrand: monotone
        # successive differences, and the reported estimate bounds the true
        # error within a factor of 10 (deep refinement as reference)
        from halfline_bethe.contour_quad import adaptive_trace

        contours = tuned_radii(P04, 2).contours()

        def level(m):
            return _level_value((0, 2), (1, 3), 1.0, P04, contours, m)

        trace = adaptive_trace(level, QuadOptions(initial_points=16,
                                                  max_points=4096, tol=1e-5))
        diffs = [abs(b[1] - a[1]) for a, b in zip(trace, trace[1:])]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
        estimate = diffs[-1]
        deep = adaptive_trace(level, QuadOptions(initial_points=64,
                                                 max_points=4096,
                                                 tol=1e-13))[-1][1]
        true_err = abs(trace[-1][1] - deep)
        assert true_err <= 10.0 * estimate

    def test_nonconvergence_signalled(self):
        from halfline_bethe.errors import ConvergenceError
        with pytest.raises(ConvergenceError):
            prob_halfline((0, 2), (1, 3), 1.0, P04,
                          opts=QuadOptions(initial_points=8, max_points=8))

    @pytest.mark.parametrize("p, y, t, x", [
        (0.7, (1, 3), 0.5, (6, 8)),
        (0.7, (1, 3), 0.5, (6, 9)),
        (0.7, (1, 3), 0.5, (7, 8)),
        (0.7, (1, 3), 0.5, (8, 9)),
        (0.9, (0, 2), 1.0, (6, 9)),
        (0.9, (0, 2), 1.0, (8, 10)),
        (0.9, (0, 2, 4), 0.5, (4, 6, 7)),
    ])
    def test_reversed_orientation_far_downstream(self, p, y, t, x):
        # p > 1/2: the reversed sum is scaled by tau^(sum X - sum Y) > 1, so
        # its tolerance must shrink by that factor for tol to bound the value
        params = AsepParams.from_p(p)
        got = prob_halfline(y, x, t, params).value
        assert abs(got - ctmc_prob(y, x, t, params, tol=1e-16)) < 1e-12
        assert got >= 0.0

    @pytest.mark.parametrize("y, x, p, t", [
        ((0, 1, 2, 3), (0, 1, 2, 4), 0.4, 0.3),
        ((0, 1, 3, 4), (0, 2, 3, 5), 0.6, 0.5),
        ((0, 1, 2, 3), (0, 1, 3, 5), 0.3, 0.5),
    ])
    def test_n4_matches_ctmc(self, y, x, p, t):
        # at normal tolerance, not the reduced N = 4 default budget
        params = AsepParams.from_p(p)
        got = prob_halfline(y, x, t, params, QuadOptions(tol=1e-10, max_points=64)).value
        assert abs(got - ctmc_prob(y, x, t, params, tol=1e-16)) < 1e-12
        assert got >= 0.0

    def test_n4_default_budget(self):
        # without options N = 4 asks for tol 1e-6 within 96 points: a
        # converging call meets that tol against the CTMC, and a long time
        # that at tol 1e-10 refines to m = 512, where one K4 tensor takes
        # 2 GiB, is refused within seconds
        params = AsepParams.from_p(0.4)
        y, x = (0, 1, 2, 3), (0, 1, 2, 4)
        rep = prob_halfline(y, x, 0.5, params)
        assert rep.points_used <= 96
        assert abs(rep.value - ctmc_prob(y, x, 0.5, params)) < 1e-6
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="max_points=96"):
            prob_halfline((0, 1, 2, 3), (2, 4, 6, 8), 10.0, AsepParams.from_p(0.5))
        assert time.perf_counter() - start < 5.0


class TestAliasSafeFirstLevel:
    """The half-line refinement starts above the plane waves' degree, so two
    coarse levels cannot agree on an aliased value."""

    @pytest.mark.parametrize("y,x,p", [((18, 20, 22), (18, 20, 22), 0.3),
                                       ((20, 22), (20, 22), 0.5),
                                       ((20,), (20,), 0.5),
                                       ((0,), (30,), 0.5),
                                       ((0,), (40,), 0.5)])
    def test_far_sites_meet_the_ctmc(self, y, x, p):
        # starting at 16 points these returned values off by 4.8e-8,
        # 2.0e-10, 3.2e-10, 3.9e-10 and 2.4e-10, each far outside its estimate
        params = AsepParams.from_p(p)
        rep = prob_halfline(y, x, 0.5, params)
        err = abs(rep.value - ctmc_prob(y, x, 0.5, params))
        assert err <= max(1e-10, rep.error_estimate), (rep, err)
        assert err < 1e-14, (rep, err)

    def test_the_first_level(self):
        opts = QuadOptions()
        # the smallest power of two above 2 (max|X| + max Y + 1)
        assert _alias_safe(opts, (0,), (30,)).initial_points == 64
        assert _alias_safe(opts, (18, 20, 22), (18, 20, 22)).initial_points == 128
        assert _alias_safe(opts, (0,), (7,)).initial_points == 32
        assert _alias_safe(opts, (0, 2), (-40, 1)).initial_points == 128
        # never below initial_points, never above max_points // 2
        assert _alias_safe(opts, (0,), (1,)).initial_points == 16
        assert _alias_safe(QuadOptions(initial_points=512), (0,), (3,)).initial_points == 512
        capped = QuadOptions(max_points=32, tol=1e-4)
        assert _alias_safe(capped, (0, 1, 2, 3), (0, 1, 2, 4)) == capped
        assert _alias_safe(QuadOptions(initial_points=8, max_points=16), (0, 1, 2, 3),
                           (0, 1, 2, 3)).initial_points == 8

    def test_every_half_line_entry_starts_there(self, monkeypatch):
        starts = []
        monkeypatch.setattr(asep_exact, "evaluate", lambda contour_at, y, x, t, opts, **kw:
                            starts.append(opts.initial_points) or (0.0, 0.0, 16))
        prob_halfline((0, 2), (1, 20), 0.5, P04)
        evaluate_extended((0, 2), (-40, 1), 0.5, P04)
        master_equation_residual((0, 2), (1, 20), 0.5, P04)
        prob_fullline((0, 2), (1, 20), 0.5, P04)  # the full line is left as it was
        assert starts == [64, 128, 64, 16]


def _reference_orientation(y, x, radii: RadiiScheme, tau: float) -> bool:
    """Whether to reverse, by comparing the estimated log integrand
    magnitudes of the two orientations: positive site exponents see |xi| up
    to R_N + |center|, the negative initial-site ones down to R_1 - |center|.
    Their difference is delta * gain, the sign that prob_halfline reads."""
    hi = math.log(radii.radii[-1] + abs(radii.center))
    lo = math.log(radii.radii[0] - abs(radii.center))

    def cost(y, x):
        return sum(max(xi, 0) * hi for xi in x) - sum((yi + 1) * lo for yi in y)

    delta_log_tau = (sum(x) - sum(y)) * math.log(tau)
    return delta_log_tau + cost(x, y) < cost(y, x) and abs(delta_log_tau) < 600.0


class TestOrientation:
    """prob_halfline reverses by the sign of delta * gain, which is the
    reference cost comparison wherever sum X != sum Y."""

    def test_sign_rule_equals_the_cost_comparison(self, monkeypatch):
        sources = []
        monkeypatch.setattr(asep_exact, "evaluate",
                            lambda contour_at, y, *args: sources.append(y) or (1.0, 0.0, 16))
        checked = 0
        for p in np.arange(0.01, 1.0, 0.04):
            params = AsepParams.from_p(float(p))
            for n in (1, 2, 3, 4):
                configs = list(itertools.combinations(range(n + 2), n))
                for scale in (1.0, 1.1, 2.0):
                    radii = tuned_radii(params, n).scaled(scale)
                    for y, x in itertools.product(configs, repeat=2):
                        prob_halfline(y, x, 1.0, params, radii=radii)
                        reversed_ = sources.pop() == x != y
                        if sum(x) == sum(y):
                            assert not reversed_, (p, y, x, scale)
                        else:
                            checked += 1
                            assert reversed_ == _reference_orientation(
                                y, x, radii, params.tau), (p, y, x, scale)
        assert checked > 10_000

    def test_equal_sums_evaluate_directly(self):
        # the cost comparison reversed this call on a rounding difference
        y, x, t, params = (1, 3), (0, 4), 1.0, AsepParams.from_p(0.01)
        contours = tuned_radii(params, 2).contours()
        direct, _, _ = adaptive_eval(
            lambda m: _level_value(y, x, t, params, contours, m), QuadOptions())
        got = prob_halfline(y, x, t, params).value
        assert got == float(direct.real)
        assert abs(got - ctmc_prob(y, x, t, params, tol=1e-16)) < 1e-15


class TestFullline:
    def test_delta(self):
        assert prob_fullline((-1, 2), (-1, 2), 0.0, P04).value == \
            pytest.approx(1.0, abs=1e-10)

    def test_n1_biased_walk(self):
        # closed form: e^{-t} (p/q)^((x-y)/2) I_{x-y}(2 sqrt(pq) t)
        from scipy.special import iv
        t, y, x = 1.5, 0, 2
        expected = math.exp(-t) * (P04.p / P04.q) ** ((x - y) / 2) \
            * iv(x - y, 2 * math.sqrt(P04.p * P04.q) * t)
        got = prob_fullline((y,), (x,), t, P04).value
        assert abs(got - expected) < 1e-12
        ref = ctmc_prob((y,), (x,), t, P04, halfline=False)
        assert abs(got - ref) < 1e-8

    def test_n1_saddle_radius_meets_the_skellam_law(self):
        # seeded draws over p 0.02-0.98, t 0.1-50 and x - y in -30..30.  On
        # the radius max(2, 2/q), 11 of these 40 raised ConvergenceError and
        # 4 were off by more than max(tol, estimate); (0,) -> (10,) at
        # t = 0.5 returned 1.55e-11
        from scipy.special import ive
        rng = np.random.default_rng(25)
        for _ in range(40):
            p, t = rng.uniform(0.02, 0.98), math.exp(rng.uniform(math.log(0.1), math.log(50)))
            d = int(rng.integers(-30, 31))
            z = 2 * t * math.sqrt(p * (1 - p))
            ref = math.exp(z - t + 0.5 * d * math.log(p / (1 - p))) * ive(abs(d), z)
            rep = prob_fullline((0,), (d,), t, AsepParams.from_p(p))
            assert abs(rep.value - ref) <= max(1e-10, rep.error_estimate), (p, t, d, rep, ref)
        for x, ref in ((15, 4.33660180239398e-22), (10, 1.6030859629529204e-13)):
            rep = prob_fullline((0,), (x,), 0.5, AsepParams.from_p(0.5))
            assert rep.value == pytest.approx(ref, rel=1e-9)
            assert rep.points_used == 32

    def test_n2_vs_ctmc(self):
        got = prob_fullline((0, 2), (-1, 3), 1.0, P04).value
        ref = ctmc_prob((0, 2), (-1, 3), 1.0, P04, halfline=False)
        assert abs(got - ref) < 1e-6


class TestFarTargets:
    """A target so far off that the integrand overflows on the contour
    raises ConvergenceError at its first level, since the nodes keep their
    magnitudes as m grows; a site that a double cannot hold raises
    ValueError.  Each once escaped as OverflowError, or refined NaN levels
    to m = 4096."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fn,y,x", [
        pytest.param(prob_halfline, (0,), (1500,), id="half-N1"),
        pytest.param(prob_halfline, (0, 2), (1, 1500), id="half-N2"),
        pytest.param(prob_halfline, (0,), (2 ** 30,), id="half-N1-2^30"),
        pytest.param(prob_halfline, (0, 2), (1, 2 ** 53), id="half-N2-2^53"),
        pytest.param(prob_fullline, (0,), (800,), id="full-N1"),
        pytest.param(prob_fullline, (0, 2), (1, 900), id="full-N2"),
        pytest.param(prob_fullline, (0,), (2 ** 53,), id="full-N1-2^53"),
        pytest.param(prob_fullline, (0, 2), (1, 2 ** 40), id="full-N2-2^40"),
    ])
    def test_an_overflowing_level_raises_at_once(self, fn, y, x):
        with pytest.raises(ConvergenceError, match="not finite") as err:
            fn(y, x, 0.5, P04)
        first, level = err.value.estimates
        assert first is None and not np.isfinite(level)

    @pytest.mark.parametrize("fn,y,x", [
        pytest.param(prob_halfline, (0,), (2 ** 53 + 1,), id="half-N1"),
        pytest.param(prob_halfline, (0, 2), (1, 10 ** 400), id="half-N2"),
        pytest.param(prob_fullline, (0,), (10 ** 300,), id="full-N1"),
        pytest.param(prob_fullline, (-2 ** 64, 2), (1, 3), id="full-N2"),
    ])
    def test_a_site_beyond_double_precision_is_refused(self, fn, y, x):
        with pytest.raises(ValueError, match="2\\^53"):
            fn(y, x, 0.5, P04)
        with pytest.raises(ValueError, match="2\\^53"):
            integer_sites(y + x)
        assert integer_sites((-2 ** 53, 2 ** 53)) == (-2 ** 53, 2 ** 53)


class TestExtended:
    def test_physical_agreement(self):
        a = evaluate_extended((0, 2), (1, 3), 0.7, P04)
        b = prob_halfline((0, 2), (1, 3), 0.7, P04).value
        assert abs(a - b) < 1e-10
        assert abs(a.imag) < 1e-10

    def test_boundary_collision_identity(self):
        # p u(x,x) + q u(x+1,x+1) - u(x,x+1) = 0
        for x in (1, 3):
            lhs = (P04.p * evaluate_extended((0, 2), (x, x), 0.7, P04)
                   + P04.q * evaluate_extended((0, 2), (x + 1, x + 1), 0.7, P04)
                   - evaluate_extended((0, 2), (x, x + 1), 0.7, P04))
            assert abs(lhs) < 1e-8

    def test_wall_identity(self):
        # u(0, x2) = tau u(-1, x2)
        lhs = evaluate_extended((0, 2), (0, 4), 0.7, P04) \
            - P04.tau * evaluate_extended((0, 2), (-1, 4), 0.7, P04)
        assert abs(lhs) < 1e-8


class TestMasterEquation:
    def test_n1_at_wall(self):
        assert master_equation_residual((0,), (0,), 1.0, P04) < 1e-8

    def test_n2_adjacent_pair(self):
        assert master_equation_residual((0, 2), (3, 4), 1.0, P04) < 1e-8

    def test_n2_separated_pair(self):
        assert master_equation_residual((0, 2), (1, 4), 1.0, P04) < 1e-8

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            master_equation_residual((0,), (1,), 0.0, P04)

    def test_scaled_tables_keep_their_schedule(self, monkeypatch):
        # du/dt and the shifted u(X +- e_i) run the sum of the tables they
        # scale
        pairs = []
        scaled = _kernels.LevelTables.scaled

        def recorded(tables, factors):
            new = scaled(tables, factors)
            pairs.append((tables.schedule, new.schedule))
            return new

        monkeypatch.setattr(_kernels.LevelTables, "scaled", recorded)
        master_equation_residual((0, 2, 4), (1, 3, 5), 1.0, P04)
        assert pairs and all(new is old for old, new in pairs)

    @pytest.mark.parametrize("y,x", [((0,), (0,)), ((0,), (2,)), ((1, 3), (0, 1)),
                                     ((0, 2), (1, 4)), ((0, 2, 4), (1, 3, 5)),
                                     ((0, 1, 3), (0, 1, 2))])
    @pytest.mark.parametrize("p", [0.3, 0.4, 0.7])
    def test_holds_at_rounding_on_every_level(self, p, y, x):
        # the sigma <-> sigma T_i and sigma <-> negate_first(sigma) pairings
        # cancel node by node, so one level at any m is already at rounding;
        # x_1 = 0 takes the wall rule, adjacent particles the exclusion
        params = AsepParams.from_p(p)
        for m in (16, 32, 64):
            opts = QuadOptions(initial_points=m, max_points=2 * m, tol=1.0)
            assert master_equation_residual(y, x, 1.0, params, opts) <= 1e-12, m
        assert master_equation_residual(y, x, 1.0, params) <= 1e-12


@pytest.mark.parametrize("p", [1.5, -0.3])
def test_p_outside_the_unit_interval_rejected(p):
    # one hop rate is negative: no process, whatever the formulas would give
    params = AsepParams.from_p(p)
    with pytest.raises(ValueError, match="0 < p < 1"):
        prob_halfline((0, 2), (1, 3), 1.0, params)
    with pytest.raises(ValueError, match="0 < p < 1"):
        prob_fullline((0, 2), (1, 3), 1.0, params)
    with pytest.raises(ValueError, match="0 < p < 1"):
        prob_n1_closed(0, 2, 1.0, params)
    with pytest.raises(ValueError, match="0 < p < 1"):
        tuned_radii(params, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        ctmc_prob((0, 2), (1, 3), 1.0, params)


#: two levels, m = 16 and 32, whatever the values: tables, not accuracy
TWO_LEVELS = QuadOptions(initial_points=16, max_points=32, tol=1.0)
CACHE_CASES = {1: ((2,), (3,)), 2: ((0, 2), (1, 3)), 3: ((0, 2, 4), (1, 2, 5)),
               4: ((0, 1, 2, 3), (0, 1, 2, 4))}


@pytest.fixture
def empty_cache():
    asep_exact._CONTOUR_CACHE.clear()
    yield asep_exact._CONTOUR_CACHE
    asep_exact._CONTOUR_CACHE.clear()


class TestContourCache:
    """Contour tables shared between calls give the values of fresh ones,
    stay read-only and keep the memory they hold under MAX_CACHED_BYTES."""

    @pytest.mark.parametrize("halfline", [True, False], ids=["half", "full"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cached_values_equal_fresh_ones(self, empty_cache, n, halfline):
        fn = prob_halfline if halfline else prob_fullline
        y, x = CACHE_CASES[n]
        # another call on the same contours: one site further right, so
        # also the same x - y, which sets a single particle's full-line radius
        fn(tuple(v + 1 for v in y), tuple(v + 1 for v in x), 0.5, P04, TWO_LEVELS)
        filled = dict(empty_cache)
        assert len(filled) == 2
        cached = fn(y, x, 0.5, P04, TWO_LEVELS)
        # the call built no tables of its own
        assert len(empty_cache) == 2
        assert all(empty_cache[key] is tables for key, tables in filled.items())
        empty_cache.clear()
        assert repr(cached) == repr(fn(y, x, 0.5, P04, TWO_LEVELS))

    def test_extension_and_residual_share_the_tables(self, empty_cache):
        prob_halfline((0, 2), (1, 3), 1.0, P04, TWO_LEVELS)
        cached = (evaluate_extended((0, 2), (-1, 4), 1.0, P04, TWO_LEVELS),
                  master_equation_residual((0, 2), (1, 4), 1.0, P04, TWO_LEVELS))
        assert len(empty_cache) == 2
        empty_cache.clear()
        fresh = (evaluate_extended((0, 2), (-1, 4), 1.0, P04, TWO_LEVELS),
                 master_equation_residual((0, 2), (1, 4), 1.0, P04, TWO_LEVELS))
        assert repr(cached) == repr(fresh)

    def test_cached_arrays_are_read_only(self, empty_cache):
        prob_halfline((0, 2, 4), (1, 2, 5), 0.5, P04, TWO_LEVELS)
        prob_fullline((0, 2), (1, 3), 0.5, P04, TWO_LEVELS)
        arrays = [a for tables in empty_cache.values()
                  for a in (*tables.nodes.values(), *tables.weights, *tables.energies,
                            *tables.amplitudes, *tables.smats.values())]
        # the full line holds no reflected nodes and no wall factors
        assert len(arrays) == 2 * (5 * 3 + 12) + 2 * (3 * 2 + 1)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_matrix_is_s_asep(self, n, p):
        # half of the matrices are transposes, S(-b, -a) = S(a, b)^T; folded,
        # the last variable runs over its 9 kept nodes of 16
        params = AsepParams.from_p(p)
        contours = tuned_radii(params, n).contours()
        for fold in (False, True):
            tables = _circle_contour(params, contours, 16, True, fold)
            nodes = [circle_nodes(c, 16)[0] for c in contours]
            if fold:
                nodes[-1] = nodes[-1][:9]

            def signed(a):
                return nodes[a - 1] if a > 0 else params.tau / nodes[-a - 1]

            assert set(tables.smats) == {ab for term in term_structure(n, True)
                                         for invs in term.mats for ab in invs}
            assert len(tables.smats) == 2 * n * (n - 1)
            for (a, b), mat in tables.smats.items():
                direct = s_asep(signed(a)[:, None], signed(b)[None, :], params)
                assert np.max(np.abs(mat - direct) / np.abs(direct)) <= 1e-14, (a, b, fold)
            owners = {id(m if m.base is None else m.base) for m in tables.smats.values()}
            assert len(owners) == n * (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_line_dimensions_share_one_matrix(self, n):
        contours = (CircleContour(0.0, 2.0 / P04.q),) * n
        tables = _circle_contour(P04, contours, 16, False)
        nodes = circle_nodes(contours[0], 16)[0]
        direct = s_asep(nodes[:, None], nodes[None, :], P04)
        assert len(tables.smats) == n * (n - 1) // 2
        for mat in tables.smats.values():
            assert mat is tables.smats[2, 1]
        np.testing.assert_array_equal(tables.smats[2, 1], direct)
        # folded, the last variable takes its 9 kept nodes as rows or
        # columns of the same one matrix
        folded = _circle_contour(P04, contours, 16, False, True)
        assert folded.fold == n - 1
        assert len({id(m if m.base is None else m.base) for m in folded.smats.values()}) == 1
        for (a, b), mat in folded.smats.items():
            want = direct[:9] if a == n else direct[:, :9] if b == n else direct
            np.testing.assert_array_equal(mat, want)

    def test_least_recently_used_goes_first(self, empty_cache, monkeypatch):
        params = {p: AsepParams.from_p(p) for p in (0.3, 0.4, 0.5)}
        radii = {p: tuned_radii(params[p], 2) for p in params}

        def get(p):
            return _contour_tables(p, radii[p].center, radii[p].radii, 64, True)

        size = _circle_contour(params[0.3], radii[0.3].contours(), 64, True, True).nbytes
        monkeypatch.setattr(asep_exact, "MAX_CACHED_BYTES", 2 * size)
        first = get(0.3)
        get(0.4)
        assert get(0.3) is first
        get(0.5)
        assert [key[0] for key in empty_cache] == [0.3, 0.5]

    def test_a_warm_cache_looks_up_no_schedule(self, empty_cache, monkeypatch):
        # the tables carry their compiled sum, looked up once when built
        prob_halfline((0, 2, 4), (1, 2, 5), 0.5, P04, TWO_LEVELS)
        lookups = []
        lookup = _kernels.compile_schedule
        monkeypatch.setattr(_kernels, "compile_schedule",
                            lambda *args: lookups.append(args) or lookup(*args))
        cached = prob_halfline((0, 2, 4), (1, 3, 5), 0.5, P04, TWO_LEVELS)
        assert lookups == []
        empty_cache.clear()
        assert repr(prob_halfline((0, 2, 4), (1, 3, 5), 0.5, P04, TWO_LEVELS)) == repr(cached)
        assert len(lookups) == 2  # one per level built

    def test_one_distribution_computes_its_source_factors_once(self, empty_cache,
                                                               monkeypatch):
        # w xi^(-y_d) e^(eps t) depends on (d, y_d, t) alone: the targets of
        # one distribution, summed in the direct orientation, share it, the
        # tables count it in nbytes, and the values stay repr-identical
        y, t, targets = (0, 2, 4), 0.5, [(0, 1, 4), (0, 2, 3), (1, 2, 3)]
        assert all(asep_exact._orientation(y, x, tuned_radii(P04, 3), P04.tau)[2] == 1.0
                   for x in targets)
        fresh = []
        for x in targets:
            empty_cache.clear()
            fresh.append(repr(prob_halfline(y, x, t, P04, TWO_LEVELS)))
        empty_cache.clear()
        prob_halfline(y, targets[0], t, P04, TWO_LEVELS)
        held = {key: dict(tables._sources) for key, tables in empty_cache.items()}
        assert all(len(sources) == 3 for sources in held.values())
        assert [repr(prob_halfline(y, x, t, P04, TWO_LEVELS)) for x in targets] == fresh
        for key, tables in empty_cache.items():
            assert tables._sources.keys() == held[key].keys()
            assert all(tables._sources[k] is v for k, v in held[key].items())
            with_sources, tables._sources = tables.nbytes, {}
            assert with_sources - tables.nbytes == sum(v.nbytes for v in held[key].values())
            tables._sources = held[key]
        # a bounded memo drops its oldest factor first, to the same values
        monkeypatch.setattr(_kernels, "MAX_SOURCE_FACTORS", 2)
        empty_cache.clear()
        assert [repr(prob_halfline(y, x, t, P04, TWO_LEVELS)) for x in targets] == fresh
        assert all(list(tables._sources) == [(1, 2, t), (2, 4, t)]
                   for tables in empty_cache.values())

    def test_tables_over_the_budget_are_not_kept(self, empty_cache, monkeypatch):
        # at N = 2 the folded tables of m = 64 hold about 75 kB, m = 128
        # about 280 kB
        monkeypatch.setattr(asep_exact, "MAX_CACHED_BYTES", 150_000)
        prob_halfline((0, 2), (1, 3), 0.5, P04,
                      QuadOptions(initial_points=64, max_points=128, tol=1.0))
        assert [key[3] for key in empty_cache] == [64]

    def test_memory_stays_within_the_budget(self, empty_cache, monkeypatch):
        budget = 2**20
        monkeypatch.setattr(asep_exact, "MAX_CACHED_BYTES", budget)
        opts = QuadOptions(initial_points=64, max_points=128, tol=1.0)

        def peak(ps):
            empty_cache.clear()
            tracemalloc.start()
            try:
                for p in ps:
                    prob_halfline((0, 2), (1, 3), 0.5, AsepParams.from_p(p), opts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak([0.3])
        # 50 calls hold about 34 MB of tables without the bound
        assert peak(np.linspace(0.2, 0.8, 50)) <= budget + one
        assert sum(tables.nbytes for tables in empty_cache.values()) <= budget
