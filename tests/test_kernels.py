"""The contraction must match its definition for every pattern of present
pairs, and the jump chain its SplitMix64 reference."""

import itertools
import math

import numpy as np
import pytest

from halfline_bethe._kernels import (_gillespie_hits_py, _mix64_py,
                                     _next_unit_py, _plan, _trial_state_py,
                                     contract, gillespie_hits, term_sum)
from halfline_bethe.asep_exact import _energy_insertion, _LevelTables, tuned_radii
from halfline_bethe.bose_exact import _bc1_insertion, _LineTables
from halfline_bethe.contour_quad import LineGrid, circle_nodes, line_nodes
from halfline_bethe.scattering import AsepParams
from halfline_bethe.signed_perm import (Term, enumerate_bn, inversions,
                                        neg_count, term_structure)


def _pairs(n):
    return list(itertools.combinations(range(n), 2))


def _random_problem(rng, n, m, present=None):
    """Random vectors and pair matrices; None where `present` is false."""
    present = present or [True] * len(_pairs(n))
    vectors = [rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(n)]
    mats = [rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) if on else None
            for on in present]
    return vectors, mats


def _brute(vectors, mats):
    """The contraction straight from its definition, over the whole grid."""
    n, m = len(vectors), vectors[0].size
    grids = np.meshgrid(*(np.arange(m),) * n, indexing="ij")
    total = np.ones((m,) * n, dtype=complex)
    for d in range(n):
        total = total * vectors[d][grids[d]]
    for (d1, d2), mat in zip(_pairs(n), mats):
        if mat is not None:
            total = total * mat[grids[d1], grids[d2]]
    return total.sum()


@pytest.mark.parametrize("n,m", [(1, 40), (2, 24), (3, 16), (4, 9), (5, 6)])
def test_contract_paths_agree(rng, n, m):
    vectors, mats = _random_problem(rng, n, m)
    assert contract(vectors, mats) == pytest.approx(_brute(vectors, mats), rel=1e-12)


@pytest.mark.parametrize("n,m,absent", [
    (5, 5, {(0, 1)}),
    (5, 5, {(0, 4), (1, 3)}),
    # no dimension meets all the others
    (6, 4, {(0, 1), (2, 3), (4, 5)}),
])
def test_contract_incomplete_core(rng, n, m, absent):
    # every dimension keeps three or more pairs, so the dense loop runs
    # with absent pairs
    present = [pair not in absent for pair in _pairs(n)]
    assert _plan(n, tuple(present))[0] == ()
    vectors, mats = _random_problem(rng, n, m, present)
    assert contract(vectors, mats) == pytest.approx(_brute(vectors, mats), rel=1e-12)


@pytest.mark.parametrize("n,m", [(2, 24), (3, 12), (4, 7)])
def test_contract_every_pair_pattern(rng, n, m):
    # None for an absent pair: 2, 8 and 64 patterns at N = 2, 3, 4
    for present in itertools.product((False, True), repeat=len(_pairs(n))):
        vectors, mats = _random_problem(rng, n, m, list(present))
        assert contract(vectors, mats) == pytest.approx(_brute(vectors, mats),
                                                        rel=1e-12), present


@pytest.mark.parametrize("n,complete,dense", [(2, 3, 0), (3, 12, 0), (4, 60, 60)])
def test_only_complete_graphs_run_the_dense_loop(n, complete, dense):
    # ASEP carries a matrix on every inverted pair; of the 2^(N-1) N! folded
    # terms, those inverting every pair need m^N work only from N = 4 on
    terms = term_structure(n, True)
    assert len(terms) == 2 ** (n - 1) * math.factorial(n)
    patterns = [tuple(k in {inv[0] for inv in term.invs} for k in range(len(_pairs(n))))
                for term in terms]
    assert sum(all(p) for p in patterns) == complete
    assert sum(_plan(n, p)[1] is not None for p in patterns) == dense


def _asep_tables(n, m=8):
    params = AsepParams.from_p(0.3)
    grids = [circle_nodes(c, m) for c in tuned_radii(params, n).contours()]
    return _LevelTables(params, grids, (0, 2, 4, 6)[:n], 0.5, (1, 2, 5, 7)[:n])


def _bose_tables(n, c=1.0):
    k, w = line_nodes(LineGrid(4.0, 0.5))
    return _LineTables(k, w, (0.5, 1.4, 2.6)[:n], (0.8, 1.7, 1.7)[:n], -0.5j, c)


def _unfolded_sum(tables, n, insert=None):
    """The half-line sum term by term over all of B_n, straight from each
    sigma and its inversions, each integrand summed over the grid by einsum."""
    letters = "abcd"[:n]
    total = 0.0 + 0.0j
    for sigma in enumerate_bn(n):
        dims = [None] * n
        for pos, v in enumerate(sigma.values):
            dims[abs(v) - 1] = (1 if v > 0 else -1, pos)
        term = Term((-1.0) ** neg_count(sigma), tuple(dims), ())
        subs, mats = [], []
        for a, b in inversions(sigma):
            mat = tables.smat(a, b)
            if mat is not None:
                subs.append(letters[abs(a) - 1] + letters[abs(b) - 1])
                mats.append(mat)
        spec = ",".join(list(letters) + subs) + "->"
        sign = term.parity if tables.signed else 1.0
        for d, factor, scale in (insert(tables, term) if insert
                                 else [(None, None, 1.0)]):
            vectors = [tables.vectors[dd, s, pos] for dd, (s, pos) in enumerate(dims)]
            if d is not None:
                vectors[d] = vectors[d] * factor
            total += sign * scale * np.einsum(spec, *vectors, *mats)
    return total


class TestFolding:
    """One contraction per sign-flip pair gives the per-sigma sum over B_N."""

    @pytest.mark.parametrize("n,insert", [
        pytest.param(n, insert, id=f"N{n}-{name}")
        for name, insert in (("plain", None), ("energy", _energy_insertion))
        for n in (1, 2, 3, 4)
    ])
    def test_asep(self, n, insert):
        tables = _asep_tables(n)
        got = term_sum(tables, term_structure(n, True), insert)
        assert got == pytest.approx(_unfolded_sum(tables, n, insert), rel=1e-13)

    @pytest.mark.parametrize("n,c,insert", [
        pytest.param(1, 1.0, None, id="N1-plain"),
        pytest.param(2, 1.0, None, id="N2-plain"),
        pytest.param(3, 1.0, None, id="N3-plain"),
        pytest.param(3, 0.0, None, id="N3-plain-c0"),
        pytest.param(2, 1.0, _bc1_insertion(1, 1.0), id="N2-bc1-j1"),
        # j = 1 puts a factor on position 0, the folded dimension
        pytest.param(3, 1.0, _bc1_insertion(1, 1.0), id="N3-bc1-j1"),
        pytest.param(3, 1.0, _bc1_insertion(2, 1.0), id="N3-bc1-j2"),
    ])
    def test_bose(self, n, c, insert):
        tables = _bose_tables(n, c)
        got = term_sum(tables, term_structure(n, True), insert)
        assert got == pytest.approx(_unfolded_sum(tables, n, insert), rel=1e-13)


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
