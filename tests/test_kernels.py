"""The contraction must match its definition for every pattern of present
pairs up to N = 4 and for K4 cores inside N = 5, and refuse larger cores;
the lockstep jump chain must match its one-trial SplitMix64 reference."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from halfline_bethe import _kernels, asep_exact, bose_exact
from halfline_bethe._kernels import (LevelTables, _plan, contract, gillespie_hits,
                                    term_sum)
from halfline_bethe.asep_exact import _circle_contour, tuned_radii
from halfline_bethe.bose_exact import _line_contour, _staggered
from halfline_bethe.contour_quad import (CircleContour, LineGrid, circle_nodes,
                                         line_nodes)
from halfline_bethe.scattering import (AsepParams, BoseParams, amplitude_asep,
                                       amplitude_bose, eps_asep, k_signed, r_factor,
                                       xi_signed,
                                       s_bose)
from halfline_bethe.signed_perm import (enumerate_bn, enumerate_sn, inversions,
                                        term_structure)


def _pairs(n):
    return list(itertools.combinations(range(n), 2))


def _used_pairs(n, halfline):
    """The signed pairs (a, b) whose S-matrices the terms multiply."""
    return sorted({ab for term in term_structure(n, halfline)
                   for invs in term.mats for ab in invs})


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


@pytest.mark.parametrize("n,m", [(1, 40), (2, 24), (3, 16), (4, 9)])
def test_contract_paths_agree(rng, n, m):
    vectors, mats = _random_problem(rng, n, m)
    assert contract(vectors, mats) == pytest.approx(_brute(vectors, mats), rel=1e-12)


def _k4_plus(n, k4, extra):
    """The pattern of a complete graph on the dimensions k4 plus the pairs
    in extra."""
    on = set(itertools.combinations(k4, 2)) | set(extra)
    return [pair in on for pair in _pairs(n)]


@pytest.mark.parametrize("k4,extra", [
    ((0, 1, 2, 3), [(3, 4)]),
    ((1, 2, 3, 4), [(0, 1)]),
    # dimension 3 is summed into the present pair (2, 4)
    ((0, 1, 2, 4), [(2, 3), (3, 4)]),
])
def test_contract_k4_core_inside_five(rng, k4, extra):
    present = _k4_plus(5, k4, extra)
    assert _plan(5, tuple(present))[1][0] == k4
    vectors, mats = _random_problem(rng, 5, 6, present)
    assert contract(vectors, mats) == pytest.approx(_brute(vectors, mats), rel=1e-12)


@pytest.mark.parametrize("n,absent", [
    (5, set()),
    (5, {(0, 1)}),
    (5, {(0, 4), (1, 3)}),
    # no dimension meets all the others
    (6, {(0, 1), (2, 3), (4, 5)}),
])
def test_contract_refuses_a_core_larger_than_k4(rng, n, absent):
    # every dimension keeps three or more pairs on five or six dimensions, a
    # core that no term reaches up to MAX_N
    present = [pair not in absent for pair in _pairs(n)]
    vectors, mats = _random_problem(rng, n, 3, present)
    with pytest.raises(ValueError, match="K4"):
        contract(vectors, mats)


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
    # terms, those inverting every pair need m^N work only from N = 4 on,
    # where they run the K4 step
    terms = term_structure(n, True)
    assert len(terms) == 2 ** (n - 1) * math.factorial(n)
    patterns = [tuple(bool(invs) for invs in term.mats) for term in terms]
    assert sum(all(p) for p in patterns) == complete
    assert sum(_plan(n, p)[1] is not None for p in patterns) == dense
    # the remaining core is K4 on every dimension, its pairs in order
    assert {_plan(n, p)[1] for p in patterns} - {None} == (
        {((0, 1, 2, 3), tuple(range(6)))} if dense else set())


def _asep_tables(n, m=8):
    """The contour tables and the level tables of one half-line level."""
    params = AsepParams.from_p(0.3)
    contour = _circle_contour(params, tuned_radii(params, n).contours(), m, True)
    return contour, contour.level((0, 2, 4, 6)[:n], (1, 2, 5, 7)[:n], 0.5)


K, W = line_nodes(LineGrid(4.0, 0.5))
BOSE_Y, BOSE_X, BOSE_T = (0.5, 1.4, 2.6), (0.8, 1.7, 1.7), -0.5j
#: the Bose tables below put variable d on the line Im k = -(d+1)/2
NODES = _staggered(K, 3, 0.5)


def _bose_tables(n, c=1.0, halfline=True):
    return _line_contour(NODES[:n], W, c, halfline).level(BOSE_Y[:n], BOSE_X[:n], BOSE_T)


def _unfolded_sum(tables, n, factors=None, group=enumerate_bn):
    """The sum term by term over all of B_n (or S_n), straight from each
    sigma and its inversions, each integrand summed over the grid by einsum.
    factors[d, sign, pos], where given, multiplies the vector of dimension d
    placed at position pos with that sign."""
    letters = "abcd"[:n]
    total = 0.0 + 0.0j
    for sigma in group(n):
        vectors = [None] * n
        for pos, v in enumerate(sigma.values):
            d, s = abs(v) - 1, (1 if v > 0 else -1)
            vectors[d] = tables.vectors[d, s, pos] * (factors or {}).get((d, s, pos), 1.0)
        subs, mats = [], []
        for a, b in inversions(sigma):
            mat = tables.smats.get((a, b))
            if mat is not None:
                subs.append(letters[abs(a) - 1] + letters[abs(b) - 1])
                mats.append(mat)
        spec = ",".join(list(letters) + subs) + "->"
        total += np.einsum(spec, *vectors, *mats)
    return total


def _energy(contour, tables, d):
    """The factors of d/dt through variable d: its energy, whatever the sign."""
    return {key: contour.energies[d] for key in tables.vectors if key[0] == d}


def _momentum(tables, j):
    """The factors of d/dx_j: i s k_d on the vector of variable d at position
    j with sign s."""
    return {(d, s, pos): 1j * s * NODES[d] for d, s, pos in tables.vectors if pos == j}


class TestLevelTables:
    """The model-free layer: term_sum on any tables, and the sign of a
    negative entry riding in its vector."""

    @pytest.mark.parametrize("n,halfline", [
        pytest.param(n, halfline, id=f"N{n}-{'half' if halfline else 'full'}")
        for n in (1, 2, 3, 4) for halfline in (True, False)
    ])
    def test_term_sum_on_hand_built_tables(self, rng, n, halfline):
        # random vectors and an independent random matrix per signed pair,
        # every third pair left out (identically 1)
        m = 5

        def draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        vectors = {(d, s, pos): draw(m) for d in range(n) for s in (1, -1)
                   for pos in range(n)}
        smats = {key: draw(m, m) for k, key in enumerate(_used_pairs(n, halfline))
                 if k % 3 != 2}
        tables = LevelTables(vectors, smats)
        group = enumerate_bn if halfline else enumerate_sn
        want = _unfolded_sum(tables, n, group=group)
        assert term_sum(tables, term_structure(n, halfline)) == pytest.approx(
            want, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_negative_entries_carry_their_amplitude(self, n):
        # v- is the plain factor of the reflected variable times the
        # amplitude of a negative entry: -1 (Bose), r(tau/xi) (ASEP)
        bose = _bose_tables(n)
        for d, j in itertools.product(range(n), repeat=2):
            for s in (1, -1):
                k = NODES[d]
                plain = W * np.exp(-1j * k * BOSE_Y[d] - 1j * BOSE_T * k * k
                                   + 1j * s * k * BOSE_X[j])
                np.testing.assert_allclose(bose.vectors[d, s, j], s * plain,
                                           rtol=1e-13)
        _, asep = _asep_tables(n)
        params = AsepParams.from_p(0.3)
        for d, i in itertools.product(range(n), repeat=2):
            xi, w = circle_nodes(tuned_radii(params, n).contours()[d], 8)
            base = w * xi ** (-(0, 2, 4)[d] - 1) * np.exp(eps_asep(xi, params) * 0.5)
            z = (1, 2, 5)[i]
            np.testing.assert_allclose(asep.vectors[d, 1, i], base * xi ** z,
                                       rtol=1e-13)
            reflected = params.tau / xi
            np.testing.assert_allclose(
                asep.vectors[d, -1, i],
                base * reflected ** z * r_factor(reflected, params), rtol=1e-13)

def _grid_sum(nodes, weights, integrand):
    """sum over the product grid of the nodes of every variable: the weights
    times integrand(vars), vars[..., d] the node of variable d."""
    grids = np.meshgrid(*(np.arange(v.size) for v in nodes), indexing="ij")
    variables = np.stack([v[g] for v, g in zip(nodes, grids)], axis=-1)
    w = math.prod(wd[g] for wd, g in zip(weights, grids))
    return (w * integrand(variables)).sum()


class TestScalarPath:
    """A level's tables against the integrand straight from the paper's
    formula: sum over sigma of the amplitude (`amplitude_asep`,
    `amplitude_bose`) times the closed-form plane waves, summed over the
    product grid, with no factor table in between."""

    @pytest.mark.parametrize("n,halfline", [
        pytest.param(n, halfline, id=f"N{n}-{'half' if halfline else 'full'}")
        for n in (1, 2, 3) for halfline in (True, False)
    ])
    def test_asep(self, n, halfline):
        params, m, t = AsepParams.from_p(0.3), 8, 0.5
        y, x = (0, 2, 4)[:n], (1, 2, 5)[:n]
        contours = (tuned_radii(params, n).contours() if halfline
                    else (CircleContour(0.0, 2.0 / params.q),) * n)
        got = term_sum(_circle_contour(params, contours, m, halfline).level(y, x, t),
                       term_structure(n, halfline))
        xi, w = zip(*(circle_nodes(c, m) for c in contours))

        def integrand(v):
            total = 0.0
            for sigma in (enumerate_bn if halfline else enumerate_sn)(n):
                term = amplitude_asep(sigma, v, params)
                for j, a in enumerate(sigma.values):
                    term = term * xi_signed(a, v, params) ** x[j]
                total = total + term
            return total * math.prod(v[..., d] ** (-y[d] - 1)
                                     * np.exp(eps_asep(v[..., d], params) * t)
                                     for d in range(n))

        assert got == pytest.approx(_grid_sum(xi, w, integrand), rel=1e-12)

    @pytest.mark.parametrize("n,halfline", [
        pytest.param(n, halfline, id=f"N{n}-{'half' if halfline else 'full'}")
        for n in (1, 2, 3) for halfline in (True, False)
    ])
    def test_bose(self, n, halfline):
        params, t, h = BoseParams(1.0), -0.5j, 0.5
        y, x = BOSE_Y[:n], (0.8, 1.7, 2.9)[:n]
        # m = 16, the coarsest LineGrid: 17 nodes on [-4, 4]
        nodes = [K - 1j * (d + 1) * h for d in range(n)]
        got = term_sum(_line_contour(nodes, W, params.c, halfline).level(y, x, t),
                       term_structure(n, halfline))

        def integrand(v):
            total = 0.0
            for sigma in (enumerate_bn if halfline else enumerate_sn)(n):
                term = amplitude_bose(sigma, v, params)
                for j, a in enumerate(sigma.values):
                    term = term * np.exp(1j * k_signed(a, v) * x[j])
                total = total + term
            return total * math.prod(np.exp(-1j * v[..., d] * y[d] - 1j * t * v[..., d] ** 2)
                                     for d in range(n))

        assert got == pytest.approx(_grid_sum(nodes, (W,) * n, integrand), rel=1e-12)


class TestPairMatrices:
    """Bose: S(sa k - sb k) on one shared grid, so two distinct matrices on
    the half-line (++ and +-; -- is the transpose of ++), one on the full line
    and none at c = 0; on the staggered lines one per signed pair with
    a + b >= 0.  ASEP's counts are in test_asep_exact."""

    @pytest.mark.parametrize("n,halfline,c,distinct", [
        (2, True, 1.0, 2), (3, True, 0.5, 2), (4, True, 4.0, 2),
        (3, False, 1.0, 1), (3, True, 0.0, 0), (2, False, 0.0, 0),
    ])
    def test_bose(self, n, halfline, c, distinct):
        smats = _line_contour((K,) * n, W, c, halfline).smats
        owners = {id(m if m.base is None else m.base) for m in smats.values()}
        assert len(owners) == distinct
        if c == 0.0:
            assert smats == {}
            return
        assert set(smats) == set(_used_pairs(n, halfline))
        for (a, b), mat in smats.items():
            direct = s_bose(np.sign(a) * K[:, None] - np.sign(b) * K[None, :],
                            BoseParams(c))
            np.testing.assert_array_equal(mat, direct)
            assert not mat.flags.writeable

    @pytest.mark.parametrize("n,halfline,distinct", [
        (2, True, 2), (3, True, 6), (4, True, 12), (3, False, 3),
    ])
    def test_bose_staggered(self, n, halfline, distinct):
        # variable d on Im k = -(d+1) h: one matrix per signed pair with
        # a + b >= 0, each inversion (a, b), a > b, at Im(k_a - k_b) =
        # -(a - b) h, below the pole at ic, so every |S| <= 1
        h = 0.5
        nodes = _staggered(K, n, h)
        smats = _line_contour(nodes, W, 0.5, halfline).smats
        owners = {id(m if m.base is None else m.base) for m in smats.values()}
        assert len(owners) == distinct
        assert set(smats) == set(_used_pairs(n, halfline))
        for (a, b), mat in smats.items():
            ka, kb = (np.sign(v) * nodes[abs(v) - 1] for v in (a, b))
            assert a > b
            np.testing.assert_allclose((ka[:, None] - kb[None, :]).imag, -(a - b) * h,
                                       rtol=1e-15)
            np.testing.assert_array_equal(mat, s_bose(ka[:, None] - kb[None, :],
                                                      BoseParams(0.5)))
            assert np.abs(mat).max() <= 1.0 + 1e-15


class TestFolding:
    """One contraction per sign-flip pair gives the per-sigma sum over B_N,
    also for the tables of a derivative."""

    @pytest.mark.parametrize("n,derivative", [
        pytest.param(n, derivative, id=f"N{n}-{derivative}")
        for derivative in ("plain", "energy") for n in (1, 2, 3, 4)
    ])
    def test_asep(self, n, derivative):
        contour, tables = _asep_tables(n)
        terms = term_structure(n, True)
        if derivative == "plain":
            assert term_sum(tables, terms) == pytest.approx(_unfolded_sum(tables, n),
                                                            rel=1e-13)
            return
        # d/dt through each variable in turn, the folded one (d = 0) included
        for d in range(n):
            factors = _energy(contour, tables, d)
            got = term_sum(tables.scaled(factors), terms)
            assert got == pytest.approx(_unfolded_sum(tables, n, factors), rel=1e-13), d

    @pytest.mark.parametrize("n,c,j", [
        pytest.param(1, 1.0, None, id="N1-plain"),
        pytest.param(2, 1.0, None, id="N2-plain"),
        pytest.param(3, 1.0, None, id="N3-plain"),
        pytest.param(3, 0.0, None, id="N3-plain-c0"),
        pytest.param(2, 1.0, 1, id="N2-bc1-j1"),
        # j = 1 differentiates at position 0, the folded dimension
        pytest.param(3, 1.0, 1, id="N3-bc1-j1"),
        pytest.param(3, 1.0, 2, id="N3-bc1-j2"),
    ])
    def test_bose(self, n, c, j):
        tables = _bose_tables(n, c)
        terms = term_structure(n, True)
        if j is None:
            assert term_sum(tables, terms) == pytest.approx(_unfolded_sum(tables, n),
                                                            rel=1e-13)
            return
        # the bc1_residual level: (d/dx_{j+1} - d/dx_j - c) u, j 1-based
        upper, lower = _momentum(tables, j), _momentum(tables, j - 1)
        got = (term_sum(tables.scaled(upper), terms) - term_sum(tables.scaled(lower), terms)
               - c * term_sum(tables, terms))
        want = (_unfolded_sum(tables, n, upper) - _unfolded_sum(tables, n, lower)
                - c * _unfolded_sum(tables, n))
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n,c,j", [
        pytest.param(n, c, j, id=f"N{n}-j{j}-c{c:g}")
        for n in (1, 2, 3) for j in range(n) for c in (1.0, 0.0)
    ])
    def test_bose_d_dx(self, n, c, j):
        # j = 0 is the folded dimension: its partner's factor is -i k
        tables = _bose_tables(n, c)
        factors = _momentum(tables, j)
        got = term_sum(tables.scaled(factors), term_structure(n, True))
        assert got == pytest.approx(_unfolded_sum(tables, n, factors), rel=1e-13)

    def test_derivative_tables_share_the_scattering_cache(self):
        contour, asep = _asep_tables(2)
        bose = _bose_tables(2)
        for tables, factors in ((asep, _energy(contour, asep, 1)),
                                (bose, _momentum(bose, 0))):
            scaled = tables.scaled(factors)
            assert scaled.smats is tables.smats
            unchanged = [key for key in tables.vectors if key not in factors]
            assert unchanged
            assert all(scaled.vectors[key] is tables.vectors[key] for key in unchanged)


P04 = AsepParams.from_p(0.4)
TAU = bose_exact.DampedTime.imaginary(0.5)
#: every entry point of both models, each of which refines through evaluate
ENTRY_POINTS = {
    "prob_halfline": lambda: asep_exact.prob_halfline((0, 2), (1, 3), 1.0, P04),
    "prob_fullline": lambda: asep_exact.prob_fullline((0, 2), (1, 3), 1.0, P04),
    "evaluate_extended": lambda: asep_exact.evaluate_extended((0, 2), (-1, 4), 1.0, P04),
    "master_equation_residual":
        lambda: asep_exact.master_equation_residual((0, 2), (1, 4), 1.0, P04),
    "propagator_halfline":
        lambda: bose_exact.propagator_halfline((0.7, 1.9), (1.2, 2.8), TAU, BoseParams(1.0)),
    "propagator_fullline":
        lambda: bose_exact.propagator_fullline((0.7, 1.9), (1.2, 2.8), TAU, BoseParams(1.0)),
    "wall_residual":
        lambda: bose_exact.wall_residual((0.7, 1.9), (0.0, 2.8), TAU, BoseParams(1.0)),
    "bc1_residual":
        lambda: bose_exact.bc1_residual((0.7, 1.9), (1.3, 1.3), 1, TAU, BoseParams(1.0)),
}


#: the entry points with |X| != |Y|, which only the check in evaluate refuses
UNEQUAL_COUNTS = {
    "prob_halfline": lambda: asep_exact.prob_halfline((0, 2), (1,), 1.0, P04),
    "prob_fullline": lambda: asep_exact.prob_fullline((0, 2), (1, 3, 5), 1.0, P04),
    "evaluate_extended": lambda: asep_exact.evaluate_extended((0, 2), (-1,), 1.0, P04),
    "master_equation_residual":
        lambda: asep_exact.master_equation_residual((0, 2), (1,), 1.0, P04),
    "propagator_halfline":
        lambda: bose_exact.propagator_halfline((0.7, 1.9), (1.2,), TAU, BoseParams(1.0)),
    "propagator_fullline":
        lambda: bose_exact.propagator_fullline((0.7,), (1.2, 2.8), TAU, BoseParams(1.0)),
    "wall_residual": lambda: bose_exact.wall_residual((0.7, 1.9), (0.0,), TAU, BoseParams(1.0)),
    "bc1_residual":
        lambda: bose_exact.bc1_residual((0.7, 1.9), (1.3,), 1, TAU, BoseParams(1.0)),
}


class TestOnePath:
    """Every evaluator of both models refines through `_kernels.evaluate`,
    once per call; the closed-form N = 1 reference never does."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for module in (asep_exact, bose_exact):
            monkeypatch.setattr(module, "evaluate", lambda *args, **kwargs: calls.append(1)
                                or _kernels.evaluate(*args, **kwargs))
        return calls

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_each_entry_point_reaches_evaluate_once(self, calls, name):
        ENTRY_POINTS[name]()
        assert len(calls) == 1

    @pytest.mark.parametrize("name", UNEQUAL_COUNTS)
    def test_unequal_particle_counts_are_refused(self, calls, name):
        with pytest.raises(ValueError, match="same number of particles"):
            UNEQUAL_COUNTS[name]()
        assert len(calls) == 1

    def test_the_closed_form_reference_stays_apart(self, calls):
        asep_exact.prob_n1_closed(0, 2, 1.0, P04)
        assert calls == []


# ---------------------------------------------------------------------------
# the one-trial jump chain on Python integers: the reference for the lockstep
# chain, which must give the same hit counts
# ---------------------------------------------------------------------------

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64_py(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def _trial_state_py(seed: int, trial: int) -> int:
    return (seed + (trial + 1) * _GOLDEN) & _MASK


def _next_unit_py(state: int) -> tuple[int, float]:
    state = (state + _GOLDEN) & _MASK
    return state, (_mix64_py(state) >> 11) * 2.0 ** -53


def _gillespie_hits_py(y, x, t, p, q, halfline, trials, seed):
    """Count trials whose configuration at time t equals x, one trial at a
    time, each on the SplitMix64 substream of (seed, trial index)."""
    n = len(y)
    hits = 0
    for trial in range(trials):
        state = _trial_state_py(seed, trial)
        s = [int(v) for v in y]
        tcur = 0.0
        while True:
            moves = []  # (particle, step, rate) in slot order
            total = 0.0
            for i in range(n):
                if i == n - 1 or s[i + 1] > s[i] + 1:
                    moves.append((i, 1, p))
                    total += p
                if (not halfline or s[i] >= 1) and (i == 0 or s[i - 1] < s[i] - 1):
                    moves.append((i, -1, q))
                    total += q
            if total <= 0.0:
                break
            state, u1 = _next_unit_py(state)
            tcur += -math.log(1.0 - u1) / total
            if tcur > t:
                break
            state, u2 = _next_unit_py(state)
            r = u2 * total
            pick = moves[-1]
            acc = 0.0
            for move in moves:
                acc += move[2]
                if r < acc:
                    pick = move
                    break
            s[pick[0]] += pick[1]
        hits += s == [int(v) for v in x]
    return hits


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

    def test_lockstep_draws_match_reference(self):
        # uint64 arrays wrap where the reference masks
        starts = [0, 1, _GOLDEN, _MASK - _GOLDEN, _MASK - 1, _MASK,
                  _trial_state_py(2 ** 64 - 1, 4096)]
        state = np.array(starts, dtype=np.uint64)
        ref = list(starts)
        for _ in range(50):
            units = _kernels._next_units(state)
            for k, value in enumerate(ref):
                ref[k], u = _next_unit_py(value)
                assert units[k] == u
            assert state.tolist() == ref


#: seeds cycled over the edge-case matrix, up to 2^64 - 1
_SEEDS = (0, 1, 99, 2 ** 32, 2 ** 63 + 5, 2 ** 64 - 1)
_Y = {1: (0,), 2: (0, 2), 3: (0, 1, 3), 4: (0, 2, 3, 5)}
_X = {1: (1,), 2: (1, 3), 3: (0, 2, 3), 4: (1, 2, 4, 5)}
_MATRIX = list(itertools.product((1, 2, 3, 4), (0.0, 0.5, 0.9, 1.0), (True, False),
                                 (0.0, 0.3, 3.0)))


def _hits(n, args, chunk=None, monkeypatch=None):
    if chunk is not None:
        monkeypatch.setattr(_kernels, "CHUNK", chunk)
    return gillespie_hits(np.array(_Y[n]), np.array(_X[n]), *args)


class TestGillespie:
    @pytest.mark.parametrize("case", range(len(_MATRIX)),
                             ids=["N{}-p{}-{}-t{}".format(n, p, "half" if h else "full", t)
                                  for n, p, h, t in _MATRIX])
    def test_matches_reference(self, case, monkeypatch):
        # every N, rate, geometry and time; the last chunk of 7 is partial
        n, p, halfline, t = _MATRIX[case]
        args = (t, p, 1.0 - p, halfline, 100, _SEEDS[case % len(_SEEDS)])
        ref = _gillespie_hits_py(_Y[n], _X[n], *args)
        assert _hits(n, args) == ref
        assert _hits(n, args, 7, monkeypatch) == ref

    @pytest.mark.parametrize("n,trials,seed", [(1, 1, 2 ** 64 - 1), (4, 1, 3),
                                               (2, 1000, 11), (2, 4097, 2 ** 64 - 1),
                                               (4, 4097, 5)])
    def test_trial_counts_match_reference(self, n, trials, seed):
        # 4097 trials leave one trial in a second chunk
        args = (3.0, 0.6, 0.4, n % 2 == 0, trials, seed)
        assert _hits(n, args) == _gillespie_hits_py(_Y[n], _X[n], *args)

    @pytest.mark.parametrize("chunk", [1, 7, _kernels.CHUNK])
    def test_chunking_does_not_change_hits(self, chunk, monkeypatch):
        # a trial's substream depends on its index only, not on its chunk
        args = (1.0, 0.4, 0.6, True, 300, 2 ** 64 - 3)
        assert (_hits(3, args, chunk, monkeypatch)
                == _gillespie_hits_py(_Y[3], _X[3], *args))

    def test_memory_follows_the_chunk(self):
        def peak(trials):
            tracemalloc.start()
            try:
                _hits(2, (1.0, 0.4, 0.6, True, trials, 1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200_000) <= 2 * peak(5_000)

    def test_seed_reproducibility(self):
        y = np.array([0, 2], dtype=np.int64)
        x = np.array([1, 3], dtype=np.int64)
        a = gillespie_hits(y, x, 1.0, 0.4, 0.6, True, 5000, 99)
        b = gillespie_hits(y, x, 1.0, 0.4, 0.6, True, 5000, 99)
        assert a == b

    def test_python_and_dispatch_agree(self):
        # the public entry point gives the reference chain's count
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
