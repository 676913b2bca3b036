import itertools
import math
import tracemalloc

import numpy as np
import pytest

from halfline_bethe import oracles
from halfline_bethe.oracles import (LatticeWindow, McConfig, build_generator,
                                    ctmc_distribution, ctmc_prob, mc_estimate)
from halfline_bethe.scattering import AsepParams

PARAMS = AsepParams.from_p(0.4)


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeWindow(3, 3)
        assert LatticeWindow(0, 5).size == 6


def _dense(gen):
    """The generator's rate matrix as a dense array."""
    rows, cols, vals = gen.rates
    out = np.zeros((len(gen.states),) * 2)
    np.add.at(out, (rows, cols), vals)
    return out


def _row(gen, state):
    return _dense(gen)[gen.index[state]]


class TestGenerator:
    def test_wall_blocks_left_jump(self):
        gen = build_generator(PARAMS, LatticeWindow(0, 2), 1, halfline=True)
        row = _row(gen, (0,))
        assert row[gen.index[(1,)]] == pytest.approx(PARAMS.p)
        assert row[gen.index[(0,)]] == pytest.approx(-PARAMS.p)
        assert np.count_nonzero(row) == 2  # single transition + diagonal

    def test_interior_state_has_both_jumps(self):
        gen = build_generator(PARAMS, LatticeWindow(0, 4), 1, halfline=True)
        row = _row(gen, (2,))
        assert row[gen.index[(3,)]] == pytest.approx(PARAMS.p)
        assert row[gen.index[(1,)]] == pytest.approx(PARAMS.q)

    def test_exclusion_blocks_adjacent(self):
        gen = build_generator(PARAMS, LatticeWindow(0, 5), 2, halfline=True)
        row = _row(gen, (2, 3))
        # left particle cannot jump right, right particle cannot jump left
        assert row[gen.index[(2, 4)]] == pytest.approx(PARAMS.p)
        assert row[gen.index[(1, 3)]] == pytest.approx(PARAMS.q)
        assert np.count_nonzero(row) == 3

    def test_row_sums_zero_and_rates(self):
        gen = build_generator(PARAMS, LatticeWindow(0, 8), 2, halfline=True)
        rows, cols, vals = gen.rates
        # one entry per coordinate, so the arrays are the matrix
        assert len(set(zip(rows.tolist(), cols.tolist()))) == len(vals)
        sums = _dense(gen).sum(axis=1)
        # diagonal negates the accumulated exit rate; column-order summation
        # can still leave one ulp
        assert np.max(np.abs(sums)) < 1e-15
        vals = {round(v, 12) for r, c, v in zip(rows, cols, vals) if r != c}
        assert vals <= {round(PARAMS.p, 12), round(PARAMS.q, 12)}

    def test_state_guards(self):
        with pytest.raises(ValueError):
            build_generator(PARAMS, LatticeWindow(0, 1), 2, halfline=True)
        with pytest.raises(ValueError):
            build_generator(PARAMS, LatticeWindow(0, 200), 1, halfline=True)


def _reference_generator(params, window, n, halfline):
    """The per-state loop `build_generator` replaced: the reference its COO
    arrays must equal element for element and in dtype."""
    states = list(itertools.combinations(range(window.lo, window.hi + 1), n))
    index = {s: i for i, s in enumerate(states)}
    rows, cols, vals = [], [], []
    p, q = params.p, params.q
    for i, s in enumerate(states):
        out_rate = 0.0
        for k in range(n):
            site = s[k]
            if (k == n - 1 or s[k + 1] > site + 1) and site + 1 <= window.hi:
                target = s[:k] + (site + 1,) + s[k + 1:]
                rows.append(i)
                cols.append(index[target])
                vals.append(p)
                out_rate += p
            blocked_by_wall = halfline and site == 0
            if (not blocked_by_wall and site - 1 >= window.lo
                    and (k == 0 or s[k - 1] < site - 1)):
                target = s[:k] + (site - 1,) + s[k + 1:]
                rows.append(i)
                cols.append(index[target])
                vals.append(q)
                out_rate += q
        if out_rate:
            rows.append(i)
            cols.append(i)
            vals.append(-out_rate)
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(vals))


def _spans(n, max_states=10_000):
    """Window spans (hi - lo) from the smallest, n, up to the 64*N guard or
    the largest whose state count the reference loop builds quickly."""
    top = max(s for s in range(n, 64 * n + 1) if math.comb(s + 1, n) <= max_states)
    return sorted({n, n + 1, 3 * n, top})


class TestGeneratorMatchesLoop:
    """The array build emits the loop's entries in the loop's order, and sums
    each exit rate in that order, so the arrays are equal, not close."""

    @pytest.mark.parametrize("p", [0.0, 0.37, 0.5, 0.9])
    @pytest.mark.parametrize("lo,halfline", [(0, True), (-5, False), (3, False)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_cols_vals_equal(self, n, lo, halfline, p):
        params = AsepParams.from_p(p)
        for span in _spans(n):
            window = LatticeWindow(lo, lo + span)
            got = build_generator(params, window, n, halfline).rates
            for a, b in zip(got, _reference_generator(params, window, n, halfline)):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b), (span, a, b)


    @pytest.mark.parametrize("lo,halfline", [(0, True), (-40, False)])
    def test_many_particles_in_a_tight_window(self, lo, halfline):
        # C(68, 34) passes int64, while every rank here is below C(68, 66)
        params = AsepParams.from_p(0.37)
        for span in (66, 67):
            window = LatticeWindow(lo, lo + span)
            got = build_generator(params, window, 66, halfline)
            for a, b in zip(got.rates, _reference_generator(params, window, 66, halfline)):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)
            assert [got.index[s] for s in got.states] == list(range(len(got.states)))


class TestStateIndex:
    """`GeneratorMatrix.index` computes each state's lex rank."""

    @pytest.mark.parametrize("n,lo,hi,halfline", [(1, 0, 9, True), (3, -4, 8, False),
                                                  (4, 2, 15, False)])
    def test_rank_is_position(self, n, lo, hi, halfline):
        gen = build_generator(PARAMS, LatticeWindow(lo, hi), n, halfline)
        for i, s in enumerate(gen.states):
            assert gen.index[s] == i
            assert s in gen.index
        assert list(gen.index) == list(gen.states)
        assert len(gen.index) == len(gen.states) == math.comb(hi - lo + 1, n)

    @pytest.mark.parametrize("key", [
        (0, 9), (-1, 3), (2, 10), (3, 1), (2, 2), (4,), (1, 3, 5), [1, 3], "ab", 5,
        (1.5, 3), (1.0, 3.0), (None, 3), np.array([1, 3])])
    def test_missing_keys(self, key):
        # outside the window [1, 9], unsorted, repeated, wrong length, not a
        # tuple, or not integer sites
        gen = build_generator(PARAMS, LatticeWindow(1, 9), 2, halfline=False)
        assert key not in gen.index
        with pytest.raises(KeyError):
            gen.index[key]
        assert gen.index.get(key) is None

    def test_numpy_integer_sites(self):
        gen = build_generator(PARAMS, LatticeWindow(0, 9), 2, halfline=True)
        for key in ((np.int64(1), np.int64(3)), (np.int32(1), 3), (np.uint8(1), np.intp(3))):
            assert key in gen.index
            assert gen.index[key] == gen.index[(1, 3)] == gen.states.index((1, 3))

    @pytest.mark.parametrize("y,window,halfline", [
        ((8, 11), LatticeWindow(0, 10), True), ((0, 2), LatticeWindow(1, 10), False),
        ((-6, 0), LatticeWindow(-5, 5), False)])
    def test_distribution_rejects_start_outside_window(self, y, window, halfline):
        with pytest.raises(ValueError, match="not inside window"):
            ctmc_distribution(y, 1.0, PARAMS, window, halfline=halfline)


class TestGeneratorMemory:
    """The index is arithmetic, not a dict: a cached window keeps its states
    alone, and a build holds no per-state Python objects of its own."""

    MIB = 2 ** 20

    def test_build_peak(self):
        window = LatticeWindow(0, 30)  # 31 465 states at N = 4
        build_generator(PARAMS, window, 4, True)  # the states are cached
        tracemalloc.start()
        try:
            gen = build_generator(PARAMS, window, 4, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(gen.states) == 31_465
        assert peak <= 12 * self.MIB  # 13.2 MiB with the per-state loop

    def test_enumeration_keeps_the_tuples_alone(self):
        tracemalloc.start()
        try:
            kept = oracles._enumerate(4, 0, 30)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(kept[0]) == 31_465
        assert size <= 3 * self.MIB  # 2.4 MiB of tuples; a dict index adds 2.1


class TestSharedEnumeration:
    """Generators on one window share a read-only state enumeration."""

    def test_same_states_object(self):
        window = LatticeWindow(0, 11)
        a, dist_a = ctmc_distribution((0, 2), 1.0, PARAMS, window)
        b, dist_b = ctmc_distribution((1, 4), 0.5, AsepParams.from_p(0.7), window)
        assert a is b
        assert isinstance(a, tuple)
        assert a == tuple(itertools.combinations(range(12), 2))

    def test_index_is_read_only(self):
        gen = build_generator(PARAMS, LatticeWindow(0, 6), 2, halfline=True)
        assert gen.index[gen.states[5]] == 5
        with pytest.raises(TypeError):
            gen.index[(0, 1)] = 3
        with pytest.raises(TypeError):
            del gen.index[(0, 1)]

    def test_large_window_not_cached(self, monkeypatch):
        monkeypatch.setattr(oracles, "MAX_CACHED_STATES", 20)
        window = LatticeWindow(0, 7)  # C(8, 2) = 28 states
        a, dist_a = ctmc_distribution((0, 2), 1.0, PARAMS, window)
        b, dist_b = ctmc_distribution((0, 2), 1.0, PARAMS, window)
        assert a is not b
        assert a == b
        assert np.array_equal(dist_a, dist_b)

    @pytest.mark.parametrize("y,hi,halfline", [
        ((0, 3), 12, True), ((0, 2), 9, True), ((1, 3), 40, True),
        ((0, 2, 4), 24, True), ((0, 2, 4, 6), 20, True), ((0,), 6, False)])
    def test_cached_and_fresh_distributions_agree(self, y, hi, halfline):
        # a cached enumeration lists the states in the order a fresh one does,
        # so the distribution is bit-identical
        window = LatticeWindow(0, hi)
        oracles._enumerate_cached.cache_clear()
        fresh_states, fresh = ctmc_distribution(y, 1.0, PARAMS, window, halfline=halfline)
        cached_states, cached = ctmc_distribution(y, 1.0, PARAMS, window, halfline=halfline)
        assert cached_states is fresh_states
        assert list(cached_states) == [tuple(c) for c in
                                       itertools.combinations(range(hi + 1), len(y))]
        assert np.array_equal(cached, fresh)


class TestCtmc:
    def test_delta_at_zero(self):
        assert ctmc_prob((0, 2), (0, 2), 0.0, PARAMS) == 1.0
        assert ctmc_prob((0, 2), (1, 3), 0.0, PARAMS) == 0.0

    def test_mass_conservation(self):
        states, dist = ctmc_distribution((0, 3), 1.0, PARAMS,
                                         LatticeWindow(0, 12))
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist >= 0)

    def test_short_time_linear_rate(self):
        # P(x=1) = p*t + O(t^2) for a walker started at 0
        p = AsepParams.from_p(0.5)
        got = ctmc_prob((0,), (1,), 1e-3, p)
        assert abs(got - 5e-4) < 1e-6

    def test_window_stability(self):
        win1 = LatticeWindow(0, 12)
        win2 = LatticeWindow(0, 24)
        a = ctmc_prob((0, 2), (1, 4), 1.0, PARAMS, window=win1)
        b = ctmc_prob((0, 2), (1, 4), 1.0, PARAMS, window=win2)
        assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("y,x", [((30, 31), (0, 2)), ((0, 2), (30, 31)),
                                     ((0, 2), (1, 11)), ((30, 31), (30, 31))])
    def test_configurations_outside_the_window_rejected(self, y, x, t):
        # a final configuration outside the window once gave probability 0.0,
        # and at t = 0 the window went unchecked
        with pytest.raises(ValueError, match="not inside window"):
            ctmc_prob(y, x, t, PARAMS, window=LatticeWindow(0, 10))

    def test_fullline_differs_from_halfline(self):
        a = ctmc_prob((0,), (0,), 1.0, PARAMS, halfline=True)
        b = ctmc_prob((0,), (0,), 1.0, PARAMS, halfline=False)
        assert abs(a - b) > 1e-3  # the wall matters at the origin

    @pytest.mark.parametrize("n,p,t,hi", [(1, 0.1, 600, 50), (1, 0.3, 600, 50),
                                          (2, 0.1, 340, 60), (2, 0.3, 340, 60),
                                          (3, 0.1, 230, 60)])
    def test_long_time_stationary_law(self, n, p, t, hi):
        # for tau < 1 the half-line law relaxes to
        # pi(X) = tau^(sum X) prod_{k=1}^{N} (1 - tau^k) / tau^(N(N-1)/2);
        # every case stays under the lambda*t <= 700 guard (p = 0.45 has not
        # relaxed by then)
        params = AsepParams.from_p(p)
        tau = params.tau
        norm = math.prod(1.0 - tau ** k for k in range(1, n + 1)) / tau ** (n * (n - 1) / 2)
        states, dist = ctmc_distribution(tuple(range(n)), t, params,
                                         LatticeWindow(0, hi))
        law = np.array([tau ** sum(s) * norm for s in states])
        assert np.max(np.abs(dist - law)) <= 1e-12

    def test_reversibility(self):
        # detailed balance with respect to tau^(sum of sites)
        tau = PARAMS.tau
        a = ctmc_prob((0, 2), (1, 4), 0.7, PARAMS)
        b = ctmc_prob((1, 4), (0, 2), 0.7, PARAMS)
        assert a == pytest.approx(tau ** 3 * b, rel=1e-10)


class TestMonteCarlo:
    def test_t_zero(self):
        est, se = mc_estimate((0, 2), (0, 2), McConfig(1000, 7, 0.0), PARAMS)
        assert est == 1.0
        assert se == 0.0

    def test_seed_determinism(self):
        cfg = McConfig(20_000, 1234, 1.0)
        a = mc_estimate((0, 2), (1, 3), cfg, PARAMS)
        b = mc_estimate((0, 2), (1, 3), cfg, PARAMS)
        assert a == b

    def test_agreement_with_ctmc(self):
        cfg = McConfig(200_000, 42, 1.0)
        est, se = mc_estimate((0, 2), (1, 3), cfg, PARAMS)
        ref = ctmc_prob((0, 2), (1, 3), 1.0, PARAMS)
        assert abs(est - ref) <= 4.0 * se

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(0, 1, 1.0)
        with pytest.raises(ValueError):
            McConfig(10, -1, 1.0)
        with pytest.raises(ValueError):
            McConfig(10, 1, -1.0)

    def test_counts_are_integers(self):
        # 1000.5 trials ran int(1000.5) = 1000 but divided the hits by 1000.5
        for trials, seed in ((1000.5, 3), (1000.0, 3), (1000, 3.0), (1000, 2.5)):
            with pytest.raises(ValueError, match="integers"):
                McConfig(trials, seed, 0.1)
        cfg = McConfig(np.int64(1000), np.uint64(3), 0.1)
        assert mc_estimate((0, 2), (1, 3), cfg, PARAMS) == \
            mc_estimate((0, 2), (1, 3), McConfig(1000, 3, 0.1), PARAMS)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t, monkeypatch):
        # an infinite t never ended the chain; the config refuses it before
        # any trial starts
        def chain(*args):
            raise AssertionError("the jump chain started")

        monkeypatch.setattr(oracles._kernels, "gillespie_hits", chain)
        with pytest.raises(ValueError, match="finite"):
            mc_estimate((0, 2), (1, 3), McConfig(10, 1, t), PARAMS)
        window = LatticeWindow(0, 8)
        for call in (lambda: ctmc_distribution((0, 2), t, PARAMS, window),
                     lambda: ctmc_prob((0, 2), (1, 3), t, PARAMS),
                     lambda: ctmc_prob((0, 2), (1, 3), t, PARAMS, window)):
            with pytest.raises(ValueError, match="finite"):
                call()

    @pytest.mark.parametrize("n,trials,t,refused", [
        # trials * N * t at the guard runs, one jump over is refused
        (2, oracles.MAX_MC_JUMPS // 2, 1.0, False),
        (2, oracles.MAX_MC_JUMPS // 2 + 1, 1.0, True),
        (4, 10 ** 9, 0.1, False),
        (4, 10 ** 9, 0.2, True),
        # fewer than MC_MIN_TRIALS trials are charged as that many
        (1, 1, oracles.MAX_MC_JUMPS / oracles.MC_MIN_TRIALS, False),
        (1, 1, 2 * oracles.MAX_MC_JUMPS / oracles.MC_MIN_TRIALS, True),
    ])
    def test_the_jump_guard(self, monkeypatch, n, trials, t, refused):
        # the guard is checked on the inputs alone: the chain never starts
        ran = []
        monkeypatch.setattr(oracles._kernels, "gillespie_hits",
                            lambda *args: ran.append(args) or 0)
        y = tuple(range(0, 2 * n, 2))
        cfg = McConfig(trials, 1, t)
        if refused:
            with pytest.raises(ValueError, match="MAX_MC_JUMPS"):
                mc_estimate(y, y, cfg, PARAMS)
            assert ran == []
        else:
            assert mc_estimate(y, y, cfg, PARAMS) == (0.0, 0.0)
            assert len(ran) == 1

    @pytest.mark.parametrize("bad", [2.7, 2.5, math.nan, math.inf])
    def test_non_integer_sites_rejected(self, bad):
        # int() would truncate 2.7 to 2 and give the value at (0, 2)
        cfg = McConfig(10, 1, 1.0)
        window = LatticeWindow(0, 8)
        calls = [lambda: ctmc_prob((0, bad), (1, 3), 1.0, PARAMS),
                 lambda: ctmc_prob((0, 2), (1, bad), 1.0, PARAMS),
                 lambda: ctmc_distribution((0, bad), 1.0, PARAMS, window),
                 lambda: mc_estimate((0, bad), (1, 3), cfg, PARAMS),
                 lambda: LatticeWindow(0, bad)]
        for call in calls:
            with pytest.raises(ValueError, match="integers"):
                call()

    @pytest.mark.parametrize("y,rule", [((2, 0), "strictly increase"),
                                        ((-1, 2), "must be >= 0")])
    def test_the_broken_rule_is_named(self, y, rule):
        # ctmc_distribution reported both as "not inside window"
        calls = [lambda: ctmc_distribution(y, 1.0, PARAMS, LatticeWindow(0, 10)),
                 lambda: ctmc_prob(y, (1, 3), 1.0, PARAMS),
                 lambda: ctmc_prob((1, 3), y, 1.0, PARAMS),
                 lambda: mc_estimate(y, (1, 3), McConfig(10, 1, 1.0), PARAMS)]
        for call in calls:
            with pytest.raises(ValueError, match=rule):
                call()

    @pytest.mark.parametrize("y", [(2, 1), (1, 1), (-3, 1)])
    def test_impossible_configurations_rejected(self, y):
        # as ctmc_prob rejects them: order, exclusion and the wall
        cfg = McConfig(1000, 1, 1.0)
        with pytest.raises(ValueError):
            mc_estimate(y, y, cfg, PARAMS)
        with pytest.raises(ValueError):
            mc_estimate((0, 2), y, cfg, PARAMS)
        with pytest.raises(ValueError):
            ctmc_prob(y, y, 1.0, PARAMS)
        with pytest.raises(ValueError):
            ctmc_prob((0, 2), y, 1.0, PARAMS)

    def test_left_of_origin_allowed_on_full_line(self):
        est, se = mc_estimate((-3, 1), (-3, 1), McConfig(1000, 1, 1.0), PARAMS,
                              halfline=False)
        assert 0.0 < est < 1.0

    def test_fullline_no_wall(self):
        # with q = 1 - p large, a full-line walker drifts left freely
        params = AsepParams.from_p(0.1)
        est, _ = mc_estimate((0,), (-1,), McConfig(50_000, 3, 1.0), params,
                             halfline=False)
        ref = ctmc_prob((0,), (-1,), 1.0, params, halfline=False)
        assert abs(est - ref) < 0.01


@pytest.mark.parametrize("p", [1.5, -0.3])
def test_negative_rates_rejected(p):
    params = AsepParams.from_p(p)
    window = LatticeWindow(0, 8)
    calls = [lambda: build_generator(params, window, 2, halfline=True),
             lambda: ctmc_distribution((1, 3), 1.0, params, window),
             lambda: ctmc_prob((1, 3), (2, 4), 1.0, params),
             lambda: ctmc_prob((1, 3), (1, 3), 0.0, params),
             lambda: mc_estimate((1, 3), (2, 4), McConfig(10, 1, 1.0), params)]
    for call in calls:
        with pytest.raises(ValueError, match="nonnegative"):
            call()


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_tolerance_must_be_finite_and_positive(tol):
    # nan and inf stopped the Poisson series after one term: a distribution
    # of mass 0.135, and ctmc_prob 0.0 for 0.0413; with nan, 0 or -1 the
    # window grew until its span guard named the wrong input
    window = LatticeWindow(0, 10)
    calls = [lambda: ctmc_distribution((0, 2), 1.0, PARAMS, window, tol=tol),
             lambda: ctmc_prob((0, 2), (1, 3), 1.0, PARAMS, tol=tol),
             lambda: ctmc_prob((0, 2), (1, 3), 1.0, PARAMS, window, tol=tol),
             lambda: ctmc_prob((0, 2), (0, 2), 0.0, PARAMS, tol=tol)]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            call()


def test_p_zero_still_simulated():
    # q = 1: every particle drifts left onto the wall
    params = AsepParams.from_p(0.0)
    assert ctmc_prob((0,), (0,), 1.0, params) == pytest.approx(1.0, abs=1e-12)
    assert mc_estimate((0,), (0,), McConfig(100, 1, 1.0), params)[0] == 1.0


def test_poisson_truncation_matches_scipy_expm():
    # dense matrix exponential as an independent check on uniformization
    from scipy.linalg import expm

    gen = build_generator(PARAMS, LatticeWindow(0, 9), 2, halfline=True)
    dense = expm(_dense(gen) * 0.8)
    i = gen.index[(0, 2)]
    states, dist = ctmc_distribution((0, 2), 0.8, PARAMS, LatticeWindow(0, 9))
    assert np.max(np.abs(dense[i] - dist)) < 1e-12
