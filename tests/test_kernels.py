"""The contraction must match its definition, and the jump chain its
SplitMix64 reference."""

import itertools

import numpy as np
import pytest

from halfline_bethe._kernels import (contract, gillespie_hits,
                                     _gillespie_hits_py, _mix64_py,
                                     _next_unit_py, _trial_state_py)


def _pairs(n):
    return list(itertools.combinations(range(n), 2))


def _random_problem(rng, n, m):
    vectors = [rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(n)]
    mats = [rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            for _ in _pairs(n)]
    return vectors, mats


@pytest.mark.parametrize("n,m", [(1, 40), (2, 24), (3, 16), (4, 9), (5, 6)])
def test_contract_paths_agree(rng, n, m):
    vectors, mats = _random_problem(rng, n, m)
    a = contract(vectors, mats)
    # brute-force reference straight from the definition
    grids = np.meshgrid(*(np.arange(m),) * n, indexing="ij")
    total = np.ones((m,) * n, dtype=complex)
    for d in range(n):
        total = total * vectors[d][grids[d]]
    for (d1, d2), mat in zip(_pairs(n), mats):
        total = total * mat[grids[d1], grids[d2]]
    brute = total.sum()
    assert a == pytest.approx(brute, rel=1e-12)


class TestSplitMix:
    def test_mix64_reference_values(self):
        # SplitMix64 outputs for seed 0 taken from the reference sequence
        state = 0
        outs = []
        for _ in range(3):
            state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            outs.append(_mix64_py(state))
        assert outs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                        0x06C45D188009454F]

    def test_unit_interval(self):
        state = _trial_state_py(1234, 0)
        for _ in range(100):
            state, u = _next_unit_py(state)
            assert 0.0 <= u < 1.0

    def test_substreams_differ(self):
        s0 = _trial_state_py(42, 0)
        s1 = _trial_state_py(42, 1)
        assert s0 != s1


class TestGillespie:
    def test_seed_reproducibility(self):
        y = np.array([0, 2], dtype=np.int64)
        x = np.array([1, 3], dtype=np.int64)
        a = gillespie_hits(y, x, 1.0, 0.4, 0.6, True, 5000, 99)
        b = gillespie_hits(y, x, 1.0, 0.4, 0.6, True, 5000, 99)
        assert a == b

    def test_python_and_dispatch_agree(self):
        # the public entry point runs the reference chain unchanged
        y = np.array([0, 2], dtype=np.int64)
        x = np.array([0, 2], dtype=np.int64)
        kwargs = (1.0, 0.4, 0.6, True, 2000, 7)
        assert gillespie_hits(y, x, *kwargs) == _gillespie_hits_py(y, x, *kwargs)

    def test_t_zero_stays_put(self):
        y = np.array([1, 4], dtype=np.int64)
        assert gillespie_hits(y, y, 0.0, 0.4, 0.6, True, 1000, 5) == 1000

    def test_wall_blocks_left_moves(self):
        # single particle at 0 with p = 0 can never move
        y = np.array([0], dtype=np.int64)
        hits = gillespie_hits(y, y, 5.0, 0.0, 1.0, True, 500, 3)
        assert hits == 500

    def test_negative_seed_rejected(self):
        y = np.array([0], dtype=np.int64)
        with pytest.raises(ValueError):
            gillespie_hits(y, y, 1.0, 0.5, 0.5, True, 10, -1)
