"""The contraction must match its definition for every pattern of present
pairs up to N = 4 and for K4 cores inside N = 5, and refuse larger cores;
the lockstep jump chain must match its one-trial SplitMix64 reference."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from halfline_bethe import _kernels, asep_exact, bose_exact
from halfline_bethe._kernels import (LevelTables, _plan, compile_schedule, contract,
                                    gillespie_hits, term_sum)
from halfline_bethe.asep_exact import _circle_contour, tuned_radii
from halfline_bethe.bose_exact import _line_contour, _staggered
from halfline_bethe.contour_quad import (CircleContour, LineGrid, QuadOptions,
                                         circle_nodes, line_nodes)
from halfline_bethe.errors import SingularityError
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


def _table_keys(n, halfline):
    """The keys of the matrices a model's tables carry: the signed pairs
    and, on the half line at N >= 3, the stacked (a, 0) of merged terms."""
    return _used_pairs(n, halfline) + list(_kernels.stacked_pairs(n, halfline))


def _owners(smats):
    """The distinct arrays that hold the matrices, a view counted as its
    base."""
    return {id(m if m.base is None else m.base) for m in smats.values()}


def _stacked(smats):
    """The stacked matrices (a, 0) among the tables' matrices."""
    return {(a, b): m for (a, b), m in smats.items() if b == 0}


def _check_stacks(smats):
    """Each stacked matrix (a, 0) is S(a, 1) and S(a, -1) side by side, and
    each of those is the half of a stack, not a copy of one."""
    stacks = _stacked(smats)
    for (a, _), stack in stacks.items():
        np.testing.assert_array_equal(stack, np.hstack((smats[a, 1], smats[a, -1])))
        assert not stack.flags.writeable
        for s in (1, -1):
            assert any(np.shares_memory(smats[a, s], other) for other in stacks.values())


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
    # the core's highest dimension is summed out first, unless `first` names another
    assert _plan(5, tuple(present))[1][0] == k4[3:] + k4[:3]
    assert _plan(5, tuple(present), k4[1])[1][0] == (k4[1], k4[0], *k4[2:])
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
    # the remaining core is K4 on every dimension, the one summed out first
    # leading, its pairs in itertools.combinations order of those four
    assert {_plan(n, p)[1] for p in patterns} - {None} == (
        {((3, 0, 1, 2), (2, 4, 5, 0, 1, 3))} if dense else set())


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
        tables = LevelTables(vectors, smats, compile_schedule(n, halfline, frozenset(smats)))
        group = enumerate_bn if halfline else enumerate_sn
        want = _unfolded_sum(tables, n, group=group)
        assert term_sum(tables) == pytest.approx(want, rel=1e-12)

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


def _real_if(fold, value):
    """The level as `evaluate` keeps it: its real part when folded."""
    return value.real if fold else value


class TestScalarPath:
    """A level's tables against the integrand straight from the paper's
    formula: sum over sigma of the amplitude (`amplitude_asep`,
    `amplitude_bose`) times the closed-form plane waves, summed over the
    product grid, with no factor table in between.  A folded level is the
    real part of that sum."""

    @pytest.mark.parametrize("n,halfline", [
        pytest.param(n, halfline, id=f"N{n}-{'half' if halfline else 'full'}")
        for n in (1, 2, 3) for halfline in (True, False)
    ])
    def test_asep(self, n, halfline):
        params, m, t = AsepParams.from_p(0.3), 8, 0.5
        y, x = (0, 2, 4)[:n], (1, 2, 5)[:n]
        contours = (tuned_radii(params, n).contours() if halfline
                    else (CircleContour(0.0, 2.0 / params.q),) * n)
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

        want = _grid_sum(xi, w, integrand)
        for fold in (False, True):
            got = term_sum(_circle_contour(params, contours, m, halfline, fold).level(y, x, t))
            assert _real_if(fold, got) == pytest.approx(_real_if(fold, want), rel=1e-12)

    @pytest.mark.parametrize("n,halfline", [
        pytest.param(n, halfline, id=f"N{n}-{'half' if halfline else 'full'}")
        for n in (1, 2, 3) for halfline in (True, False)
    ])
    def test_bose(self, n, halfline):
        params, t, h = BoseParams(1.0), -0.5j, 0.5
        y, x = BOSE_Y[:n], (0.8, 1.7, 2.9)[:n]
        # m = 16, the coarsest LineGrid: 17 nodes on [-4, 4]
        nodes = [K - 1j * (d + 1) * h for d in range(n)]

        def integrand(v):
            total = 0.0
            for sigma in (enumerate_bn if halfline else enumerate_sn)(n):
                term = amplitude_bose(sigma, v, params)
                for j, a in enumerate(sigma.values):
                    term = term * np.exp(1j * k_signed(a, v) * x[j])
                total = total + term
            return total * math.prod(np.exp(-1j * v[..., d] * y[d] - 1j * t * v[..., d] ** 2)
                                     for d in range(n))

        want = _grid_sum(nodes, (W,) * n, integrand)
        for fold in (False, True):
            got = term_sum(_line_contour(nodes, W, params.c, halfline, fold).level(y, x, t))
            assert _real_if(fold, got) == pytest.approx(_real_if(fold, want), rel=1e-12)


class TestPairWalk:
    """`_kernels.pair_matrices` with a toy kind and a build that counts its
    calls: the one walk that both models' S-matrices come from."""

    M, KEEP = 6, slice(3, None)

    def _walk(self, n, halfline, kind, fold=None):
        calls = []

        def build(k, rows):
            calls.append((k, rows))
            mat = np.random.default_rng(len(calls)).normal(size=(self.M, self.M))
            return mat if rows is None else mat[rows].copy()

        return _kernels.pair_matrices(n, halfline, kind, build, fold), calls

    @pytest.mark.parametrize("n,halfline", [(2, True), (3, True), (4, True), (3, False)])
    def test_each_kind_once_and_every_mirror_a_transposed_view(self, n, halfline):
        for kind in (lambda a, b: (a, b), lambda a, b: b > 0, lambda a, b: a - b):
            smats, calls = self._walk(n, halfline, kind)
            assert set(smats) == set(_table_keys(n, halfline))
            _check_stacks(smats)
            built = {kind(a, b) for a, b in smats if a + b >= 0 and b}
            assert sorted(k for k, _ in calls) == sorted(built)
            assert all(rows is None for _, rows in calls)
            for (a, b), mat in smats.items():
                assert not mat.flags.writeable
                if not b:
                    continue
                if a + b < 0:
                    partner = smats[-b, -a]
                    assert np.shares_memory(mat, partner)
                    np.testing.assert_array_equal(mat, partner.T)
                else:
                    assert a > 0
                    # pairs of one kind share one matrix
                    assert all(other is mat for (c, d), other in smats.items()
                               if c + d >= 0 and d and kind(c, d) == kind(a, b))

    @pytest.mark.parametrize("halfline", [True, False])
    def test_folded_rows_alone_or_views_of_the_full_matrix(self, halfline):
        # the last variable, 3, holds its kept rows: built alone where no
        # pair without it has their kind, views of the full matrix where one
        # does
        n, kept = 3, self.M - self.KEEP.start
        for kind, alone in ((lambda a, b: (a, b), True), (lambda a, b: b > 0, False)):
            smats, calls = self._walk(n, halfline, kind, self.KEEP)
            assert len(calls) == len({k for k, _ in calls})
            _check_stacks(smats)
            folded = [(a, b) for a, b in smats if a == n and b]
            assert [rows for _, rows in calls if rows is not None] \
                == ([self.KEEP] * len(folded) if alone else [])
            for a, b in folded:
                mat = smats[a, b]
                assert mat.shape == (kept, self.M)
                if alone:
                    assert (kind(a, b), self.KEEP) in calls
                else:
                    full = smats[2, 1] if b > 0 else smats[2, -1]
                    assert np.shares_memory(mat, full)
                    np.testing.assert_array_equal(mat, full[self.KEEP])
                if halfline:
                    assert smats[-b, -a].shape == (self.M, kept)
            assert all(mat.shape == (self.M, self.M) for (a, b), mat in smats.items()
                       if n not in (a, -b) and b)


class TestPairMatrices:
    """Bose: S(sa k - sb k) on one shared grid, so two distinct matrices on
    the half-line (++ and +-; -- is the transpose of ++), one on the full
    line and none at c = 0; on the staggered lines one per offset
    Im(k_a - k_b) and kind (Toeplitz for ++, Hankel for +-) of the signed
    pairs with a + b >= 0.  From N = 3 on the half line holds S(a, 1) and
    S(a, -1) as the halves of one stack, so each distinct stack holds two
    of the distinct matrices in one array.  ASEP's counts are in
    test_asep_exact."""

    @pytest.mark.parametrize("n,halfline,c,distinct", [
        (2, True, 1.0, 2), (3, True, 0.5, 2), (4, True, 4.0, 2),
        (3, False, 1.0, 1), (3, True, 0.0, 0), (2, False, 0.0, 0),
    ])
    def test_bose(self, n, halfline, c, distinct):
        # folded, the last variable takes the nodes k >= 0 as
        # rows or columns of the same matrices
        for fold in (False, True):
            tables = _line_contour((K,) * n, W, c, halfline, fold)
            smats = tables.smats
            assert len(_owners(smats)) == distinct - len(_owners(_stacked(smats)))
            if c == 0.0:
                assert smats == {}
                continue
            assert set(smats) == set(_table_keys(n, halfline))
            _check_stacks(smats)
            nodes = [K] * n
            if fold:
                nodes[tables.fold] = K[K.size // 2:]
            for (a, b), mat in ((ab, mat) for ab, mat in smats.items() if ab[1]):
                ka, kb = (np.sign(v) * nodes[abs(v) - 1] for v in (a, b))
                direct = s_bose(ka[:, None] - kb[None, :], BoseParams(c))
                np.testing.assert_array_equal(mat, direct)
                assert not mat.flags.writeable

    @pytest.mark.parametrize("n,halfline,distinct", [
        (2, True, 2), (3, True, 5), (4, True, 8), (3, False, 2),
    ])
    def test_bose_staggered(self, n, halfline, distinct):
        # variable d on Im k = -d h: pairs with one offset and kind share a
        # matrix, at N = 3 (2, 1) and (3, 2), both Toeplitz at -h; each
        # inversion (a, b), a > b, at Im(k_a - k_b) <= -h, below the pole at
        # ic, so every |S| <= 1; folded, the matrices of the last variable
        # take the rows of its nodes Re k >= 0
        h = 0.5
        for fold in (False, True):
            nodes = _staggered(K, n, h)
            tables = _line_contour(nodes, W, 0.5, halfline, fold)
            smats = tables.smats
            if fold:
                nodes[tables.fold] = nodes[tables.fold][K.size // 2:]
            assert len(_owners(smats)) == distinct - len(_owners(_stacked(smats)))
            assert set(smats) == set(_table_keys(n, halfline))
            _check_stacks(smats)
            for (a, b), mat in ((ab, mat) for ab, mat in smats.items() if ab[1]):
                ka, kb = (np.sign(v) * nodes[abs(v) - 1] for v in (a, b))
                assert a > b
                assert (ka[:, None] - kb[None, :]).imag.max() <= -h * (1 - 1e-15)
                np.testing.assert_array_equal(mat, s_bose(ka[:, None] - kb[None, :],
                                                          BoseParams(0.5)))
                assert np.abs(mat).max() <= 1.0 + 1e-15


#: a grid whose node differences round: 0.3 is not dyadic
ODD_K, ODD_W = line_nodes(LineGrid(4.2, 0.3))
ULP = np.finfo(float).eps


def _ulps(got, want) -> float:
    """The largest relative difference, in units of double rounding."""
    return float(np.max(np.abs(got - want) / np.abs(want))) / ULP


class TestLineTables:
    """The Bose lines share one uniform real grid, so each S-matrix is spread
    from s_bose at the 2m - 1 points n sp + i (Im k_a - Im k_b), and each
    plane wave at x from e^(ikx) times a scalar (`bose_exact._line_contour`)."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended long double for the exact reference")
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("halfline", [True, False])
    @pytest.mark.parametrize("h", [0.3, 0.0])
    def test_every_matrix_is_s_bose_within_four_ulps(self, n, halfline, h):
        # against S at each exact node difference (a - b) sp + i (Im k_a -
        # Im k_b), in extended precision; s_bose on the rounded 2-D
        # differences fl(a sp) - fl(b sp) carries their rounding, up to
        # 5.1 ulps from the exact S here, and lies within 8 ulps
        c, half = 0.5, ODD_K.size // 2
        sp = ODD_K[half + 1]
        index = np.arange(-half, half + 1)
        for fold in (False, True):
            nodes = _staggered(ODD_K, n, h)
            tables = _line_contour(nodes, ODD_W, c, halfline, fold)
            assert set(tables.smats) == set(_table_keys(n, halfline))
            _check_stacks(tables.smats)
            rows = [index] * n
            if fold:
                rows[-1], nodes[-1] = index[half:], nodes[-1][half:]
            for (a, b), mat in ((ab, mat) for ab, mat in tables.smats.items() if ab[1]):
                ia, ib = (np.sign(v) * rows[abs(v) - 1] for v in (a, b))
                ka, kb = (np.sign(v) * nodes[abs(v) - 1] for v in (a, b))
                offset = (ka[0] - kb[0]).imag
                k = ((ia[:, None] - ib[None, :]) * np.longdouble(sp)
                     + 1j * np.longdouble(offset)).astype(np.clongdouble)
                exact = (k + 1j * np.longdouble(c)) / (k - 1j * np.longdouble(c))
                assert _ulps(mat, exact) <= 4.0, (a, b, fold)
                rounded = s_bose(ka[:, None] - kb[None, :], BoseParams(c))
                assert _ulps(mat, rounded) <= 8.0, (a, b, fold)
                assert not mat.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("halfline", [True, False])
    @pytest.mark.parametrize("h", [0.3, 0.0])
    def test_every_wave_is_exp_of_its_node_within_four_ulps(self, n, halfline, h):
        for fold in (False, True):
            tables = _line_contour(_staggered(ODD_K, n, h), ODD_W, 1.0, halfline, fold)
            for x in (0.8, 1.7, 2.9, 4.1):
                waves = tables.waves(x)
                assert waves.keys() == tables.nodes.keys()
                for key, wave in waves.items():
                    assert _ulps(wave, np.exp(1j * tables.nodes[key] * x)) <= 4.0, (key, x)

    def test_a_node_difference_at_the_pole_raises(self):
        # variable 2 at Im k = c above variable 1: k_2 - k_1 = ic at equal
        # real parts, and k_2 + k_1 = ic at opposite ones
        for halfline in (True, False):
            with pytest.raises(SingularityError):
                _line_contour([ODD_K, ODD_K + 0.5j], ODD_W, 0.5, halfline)

    def test_a_level_spreads_one_diagonal_per_offset(self, monkeypatch):
        # a propagator builds every level from at most one s_bose call of
        # 2m - 1 points per distinct offset, and asks for no term structure
        y, x, time = (0.5, 1.4, 2.6), (0.8, 1.9, 3.1), bose_exact.DampedTime.imaginary(0.5)
        params = BoseParams(1.0)
        want = bose_exact.propagator_halfline(y, x, time, params)
        h = bose_exact._line_opts(y, x, time, 1.0, None)[2]
        assert h > 0
        # Im(k_a - k_b) of (2, 1), (3, 2), (2, -1); (3, 1), (3, -1); (3, -2)
        offsets = 3
        sizes, levels, structures = [], [], []
        s = bose_exact.s_bose
        monkeypatch.setattr(bose_exact, "s_bose", lambda k, p: sizes.append(k.size) or s(k, p))
        contour = bose_exact._line_contour

        def counted(nodes, *args):
            levels.append((nodes[0].size, len(sizes)))
            return contour(nodes, *args)

        monkeypatch.setattr(bose_exact, "_line_contour", counted)
        structure = _kernels.term_structure
        monkeypatch.setattr(_kernels, "term_structure",
                            lambda *args: structures.append(args) or structure(*args))
        assert repr(bose_exact.propagator_halfline(y, x, time, params)) == repr(want)
        assert structures == []
        assert len(levels) == 2
        ends = [start for _, start in levels[1:]] + [len(sizes)]
        for (nodes, start), end in zip(levels, ends):
            assert end - start == offsets
            assert sizes[start:end] == [2 * nodes - 1] * offsets


class TestFolding:
    """One contraction per sign-flip pair gives the per-sigma sum over B_N,
    also for the tables of a derivative."""

    @pytest.mark.parametrize("n,derivative", [
        pytest.param(n, derivative, id=f"N{n}-{derivative}")
        for derivative in ("plain", "energy") for n in (1, 2, 3, 4)
    ])
    def test_asep(self, n, derivative):
        contour, tables = _asep_tables(n)
        if derivative == "plain":
            assert term_sum(tables) == pytest.approx(_unfolded_sum(tables, n), rel=1e-13)
            return
        # d/dt through each variable in turn, the folded one (d = 0) included
        for d in range(n):
            factors = _energy(contour, tables, d)
            got = term_sum(tables.scaled(factors))
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
        if j is None:
            assert term_sum(tables) == pytest.approx(_unfolded_sum(tables, n), rel=1e-13)
            return
        # the bc1_residual level: (d/dx_{j+1} - d/dx_j - c) u, j 1-based
        upper, lower = _momentum(tables, j), _momentum(tables, j - 1)
        got = (term_sum(tables.scaled(upper)) - term_sum(tables.scaled(lower))
               - c * term_sum(tables))
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
        got = term_sum(tables.scaled(factors))
        assert got == pytest.approx(_unfolded_sum(tables, n, factors), rel=1e-13)

    def test_derivative_tables_share_the_scattering_cache(self):
        contour, asep = _asep_tables(2)
        bose = _bose_tables(2)
        for tables, factors in ((asep, _energy(contour, asep, 1)),
                                (bose, _momentum(bose, 0))):
            scaled = tables.scaled(factors)
            assert scaled.smats is tables.smats
            assert scaled.schedule is tables.schedule
            unchanged = [key for key in tables.vectors if key not in factors]
            assert unchanged
            assert all(scaled.vectors[key] is tables.vectors[key] for key in unchanged)


def _reference_term_sum(tables, terms):
    """The per-term loop that `term_sum` replaced: every term contracted on
    its own (the standalone `contract`, its program compiled from the
    pattern of present pairs) in `term_structure` order, a folded vector
    formed once per run of terms that fold it."""
    vecs = tables.vectors
    fold_key = folded = None
    total = 0.0 + 0.0j
    for term in terms:
        for d, sign, pos in term.vectors:
            if sign == 0 and (d, pos) != fold_key:
                fold_key, folded = (d, pos), vecs[d, 1, pos] + vecs[d, -1, pos]
        mats = []
        for invs in term.mats:
            mat = None
            for a, b in invs:
                smat = tables.smats.get((a, b))
                if smat is not None:
                    smat = smat.T if abs(a) > abs(b) else smat
                    mat = smat if mat is None else mat * smat
            mats.append(mat)
        total += contract([vecs[key] if key[1] else folded for key in term.vectors], mats)
    return total


def _model_level(model, n, halfline):
    """(contour, level tables) of one level of `model` on N variables:
    "asep" on its circles, "bose" at c = 1 and "bose-c0", without
    S-matrices, on staggered lines."""
    if model == "asep":
        params = AsepParams.from_p(0.3)
        contours = (tuned_radii(params, n).contours() if halfline
                    else (CircleContour(0.0, 2.0 / params.q),) * n)
        contour = _circle_contour(params, contours, 8, halfline)
        return contour, contour.level((0, 2, 4, 6)[:n], (1, 2, 5, 7)[:n], 0.5)
    contour = _line_contour(_staggered(K, n, 0.5), W, 1.0 if model == "bose" else 0.0,
                            halfline)
    return contour, contour.level((0.5, 1.4, 2.6, 3.5)[:n], (0.8, 1.7, 2.9, 3.6)[:n],
                                  BOSE_T)


def _n4_level(m):
    """The tables of one half-line N=4 exclusion-process level at m points,
    folded as the evaluators fold it: dimension 0 on m // 2 + 1 nodes."""
    params = AsepParams.from_p(0.4)
    contour = _circle_contour(params, tuned_radii(params, 4).contours(), m, True, True)
    return contour.level((0, 1, 2, 3), (0, 1, 3, 5), 0.5)


#: per N, the (runs, complete terms) of the complete half-line terms once
#: the sign partners of dimension 0 are merged (`compile_schedule`)
MERGED_RUNS = {3: (4, 7), 4: (8, 33)}

#: per instruction code, (registers it writes, registers it reads)
OPERANDS = {_kernels.SUM: (0, 1), _kernels.MATVEC: (1, 3), _kernels.DOT: (0, 3),
            _kernels.COUPLE: (1, 3), _kernels.MUL: (1, 2), _kernels.K4_INNER: (1, 4),
            _kernels.K4_FINISH: (1, 4), _kernels.K4_CLOSE: (0, 4), _kernels.STACK: (1, 4)}


def _schedule_program(n, halfline, used):
    """(program, input registers) of the (N, half/full line) sum with all
    the matrices a model's tables carry (`_table_keys`) or none."""
    schedule = compile_schedule(n, halfline,
                                frozenset(_table_keys(n, halfline) if used else ()))
    return schedule.program, (len(schedule.vectors) + len(schedule.folds)
                              + len(schedule.stacks) + len(schedule.mats))


def _inputs(tables):
    """The register file's inputs that `term_sum` forms from the tables."""
    schedule = tables.schedule
    vecs = [tables.vectors[key] for key in schedule.vectors]
    vecs += [tables.vectors[d, 1, pos] + tables.vectors[d, -1, pos]
             for d, pos in schedule.folds]
    vecs += [np.concatenate((tables.vectors[d, 1, pos], tables.vectors[d, -1, pos]))
             for d, pos in schedule.stacks]
    mats = [tables.smats[ab].T if transposed else tables.smats[ab]
            for ab, transposed in schedule.mats]
    return vecs, mats


def _term_steps(schedule):
    """The level program's instructions, split at each term's END."""
    terms, steps = [], []
    for step in schedule.program.instructions:
        steps.append(step)
        if step[0] == _kernels.END:
            terms.append(steps)
            steps = []
    assert len(terms) == len(schedule.terms) and not steps
    return terms


class TestLevelProgram:
    """`term_sum` runs the compiled sum that its tables carry (`Schedule`)
    as one program: the terms that build one step run one after another,
    the first builds it and the others read its register.  The per-term
    loop it replaced is the reference."""

    @pytest.mark.parametrize("model,n,halfline", [
        pytest.param(model, n, halfline, id=f"{model}-N{n}-{'half' if halfline else 'full'}")
        for model in ("asep", "bose", "bose-c0") for n in (1, 2, 3, 4)
        for halfline in (True, False)
    ])
    def test_agrees_with_the_per_term_loop(self, model, n, halfline):
        # the plain level, d/dt through the folded dimension 0, and the
        # last position's vectors times their nodes (u(X + e_N) for the
        # exclusion process, d/dx_N up to i for the Bose gas)
        contour, tables = _model_level(model, n, halfline)
        shift = {(d, s, pos): contour.nodes[d, s] for d, s, pos in tables.vectors
                 if pos == n - 1}
        for level in (tables, tables.scaled(_energy(contour, tables, 0)),
                      tables.scaled(shift)):
            got = term_sum(level)
            want = _reference_term_sum(level, term_structure(n, halfline))
            if n <= 2:
                # no step is shared: the same terms and operands in the same order
                assert repr(got) == repr(want)
            else:
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n,halfline,first,complete,runs", [
        # summing out the highest dimension first would give 10 and 34 runs
        # (6 and 19 merged)
        (3, True, 0, 12, 7),
        (4, True, 0, 60, 15),
        # one complete term: every dimension ties, the highest goes first
        (3, False, 2, 1, 1),
        (4, False, 3, 1, 1),
    ])
    def test_complete_terms_share_their_first_step(self, n, halfline, first, complete,
                                                   runs):
        # the first step of a complete term is the triangle's coupling (N = 3)
        # or the K4 inner tensor (N = 4); each is built once per run.  Tables
        # without stacked matrices contract every term; a model's tables
        # merge the sign partners of dimension 0 on the half line, which
        # leaves (runs, complete terms) MERGED_RUNS[n]
        assert sum(all(term.mats) for term in term_structure(n, halfline)) == complete
        merged = MERGED_RUNS[n] if halfline else (runs, complete)
        for keys, (runs, complete) in ((_used_pairs, (runs, complete)),
                                       (_table_keys, merged)):
            schedule = compile_schedule(n, halfline, frozenset(keys(n, halfline)))
            # only a complete term leaves a triangle (N = 3) or a K4 core (N = 4)
            kind = "k4 inner" if n == 4 else "coupling"
            full = [i for i, graph in enumerate(schedule.terms)
                    if any(node.kind == kind for node in graph)]
            assert len(full) == complete
            assert schedule.steps[kind] == (runs, complete)
            # the level program's first steps read dimension `first`'s vector
            dims = ([key[0] for key in schedule.vectors] + [d for d, _ in schedule.folds]
                    + [d for d, _ in schedule.stacks])
            first_steps = {_kernels.K4_INNER: 2, _kernels.COUPLE: 3}  # field of the vector
            assert {dims[step[first_steps[step[0]]]] for i in full
                    for step in _term_steps(schedule)[i] if step[0] in first_steps} == {first}

    @pytest.mark.parametrize("n,halfline,counts", [
        # (steps a level computes, steps its terms read) per kind
        pytest.param(3, True, {"coupling": (4, 7), "product": (7, 7), "pair": (9, 14),
                               "matvec": (22, 23), "sum": (7, 7)}, id="N3-half"),
        pytest.param(3, False, {"coupling": (1, 1), "product": (1, 1), "matvec": (7, 7),
                                "sum": (5, 5)}, id="N3-full"),
        pytest.param(4, True, {"k4 inner": (8, 33), "k4 finish": (21, 33),
                               "coupling": (64, 93), "product": (81, 92),
                               "pair": (99, 198), "matvec": (140, 154),
                               "k4 close": (33, 33), "sum": (30, 30)}, id="N4-half"),
        pytest.param(4, False, {"k4 inner": (1, 1), "k4 finish": (1, 1), "coupling": (10, 14),
                                "product": (12, 13), "matvec": (36, 39), "k4 close": (1, 1),
                                "sum": (16, 16)}, id="N4-full"),
    ])
    def test_step_counts(self, n, halfline, counts):
        steps = compile_schedule(n, halfline, frozenset(_table_keys(n, halfline))).steps
        assert {kind: c for kind, c in steps.items() if c != (0, 0)} == counts

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_level_without_s_matrices_shares_nothing(self, n):
        # the Bose gas at c = 0: no pair carries a factor, so each term sums
        # its vectors, in the order of the per-term loop
        _, tables = _model_level("bose-c0", n, True)
        assert tables.smats == {}
        schedule, terms = tables.schedule, term_structure(n, True)
        assert schedule is compile_schedule(n, True, frozenset())
        assert schedule.steps["sum"] == (n * len(terms),) * 2
        assert all(built == read for built, read in schedule.steps.values())
        assert repr(term_sum(tables)) == repr(_reference_term_sum(tables, terms))

    @pytest.mark.parametrize("n,halfline,level,terms", [
        pytest.param(4, True, lambda: _n4_level(16), 126, id="16"),
        pytest.param(4, True, lambda: _n4_level(32), 126, id="32"),
        pytest.param(3, True, lambda: _model_level("asep", 3, True)[1], 18, id="asep-N3"),
        pytest.param(3, True, lambda: _model_level("bose", 3, True)[1], 18, id="bose-N3"),
        # the full line shares nothing at N = 3
        pytest.param(4, False, lambda: _model_level("asep", 4, False)[1], 24,
                     id="asep-N4-full"),
    ])
    def test_the_workspace_leaves_every_term_unchanged(self, n, halfline, level, terms):
        # the level's one program, its shared steps read from the registers
        # of the terms that built them and its K4 tensors in two buffers,
        # against each term's graph contracted alone, every step built,
        # summed in the schedule's order; the sign partners of dimension 0
        # are merged on the half line
        tables = level()
        schedule = tables.schedule
        assert len(schedule.terms) == terms
        vecs, mats = _inputs(tables)
        alone = 0.0 + 0.0j
        for graph in schedule.terms:
            alone += contract(vecs, mats, _kernels._program([graph], len(vecs) + len(mats)))
        assert repr(term_sum(tables)) == repr(alone)
        # some term read a step that an earlier one built
        assert any(built < read for built, read in schedule.steps.values())

    @pytest.mark.parametrize("x,p", [
        pytest.param(x, p, id=f"{''.join(map(str, x))}-p{p}")
        for p in (0.4, 0.6) for x in ((0, 1, 2, 3), (0, 1, 2, 4))
    ])
    def test_the_benchmark_n4_inputs_agree_with_the_per_term_loop(self, x, p):
        # the asep-n4 pool at its last level, m = 32, folded, in both
        # orientations
        params = AsepParams.from_p(p)
        contour = _circle_contour(params, tuned_radii(params, 4).contours(), 32, True, True)
        for y, target in (((0, 1, 2, 3), x), (x, (0, 1, 2, 3))):
            tables = contour.level(y, target, 0.1)
            assert term_sum(tables) == pytest.approx(
                _reference_term_sum(tables, term_structure(4, True)), rel=1e-12)

    @pytest.mark.parametrize("compiled", [
        *(pytest.param(lambda n=n, halfline=halfline, used=used:
                       _schedule_program(n, halfline, used),
                       id=f"N{n}-{'half' if halfline else 'full'}-{'all' if used else 'none'}")
          for n in (1, 2, 3, 4) for halfline in (True, False) for used in (True, False)),
        *(pytest.param(lambda n=n, present=present:
                       (_kernels._standalone(n, present), n + len(present)),
                       id=f"alone-N{n}-{''.join('01'[on] for on in present)}")
          for n in (1, 2, 3, 4)
          for present in itertools.product((False, True), repeat=n * (n - 1) // 2)),
    ])
    def test_the_register_file_holds_every_step(self, compiled):
        # no step writes an input, every register is in the file, and END
        # clears temporaries only
        program, inputs = compiled()
        size = inputs + program.temporaries
        for code, *fields in program.instructions:
            if code == _kernels.END:
                clears, = fields
                assert all(inputs <= k < size for k in clears)
                continue
            writes, reads = OPERANDS[code]
            out, regs = fields[:writes], fields[writes:writes + reads]
            assert all(inputs <= k < size for k in out)
            assert all(0 <= k < size for k in regs)

    def test_an_n4_half_line_level_reuses_its_temporaries(self):
        # a released register serves the next value: six serve the whole
        # level, where a register per term's step would take hundreds
        program, _ = _schedule_program(4, True, True)
        assert program.temporaries <= 8

    def test_an_n4_level_allocates_two_m3_arrays(self, monkeypatch):
        # 8 K4 inner tensors, 8 outer products and 21 finishes, all in the
        # level's two buffers, not one array per step.  The outer products,
        # over (a, x, y), and the finishes, over (x, y, z), share the head of
        # one buffer, on m/2 + 1 nodes along the folded dimension, which no
        # finish sums; each buffer is sized by the shapes the level's steps
        # use, 2m m (m/2 + 1) and m^2 (m/2 + 1) entries
        shapes = []

        class Counted:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, shape, *args, **kwargs):
                shapes.append(shape)
                return np.empty(shape, *args, **kwargs)

        tables = _n4_level(32)
        monkeypatch.setattr(_kernels, "np", Counted())
        term_sum(tables)
        big = [shape for shape in shapes if math.prod(shape) >= 32 * 32 * 17]
        assert len(big) <= 2
        assert sorted(big) == [(32 * 32 * 17,), (64 * 32 * 17,)]

    def test_an_n4_level_holds_one_shared_step_at_a_time(self):
        # each K4 inner tensor (m^3, 0.5 MiB at m = 32) is rebuilt in place
        # by the next run: the level's peak stays within 1.25 times the
        # 1.10 MiB of the per-term loop; all 15 kept would take 8 MiB.  It
        # reads 1.20 MiB; building the outer product with a broadcasting
        # multiply into `out` read 1.32 MiB, numpy's iterator buffers
        tables = _n4_level(32)
        term_sum(tables)  # a first run outside the count
        tracemalloc.start()
        try:
            term_sum(tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 1.10 * 2 ** 20


#: the (temporaries, instructions) that the N <= 2 sums compiled to before
#: the sign partners of dimension 0 were merged, per (N, half line, with
#: S-matrices)
UNMERGED_PROGRAMS = {
    (1, True, True): (0, ((0, 0), (8, ()))),
    (1, True, False): (0, ((0, 0), (8, ()))),
    (1, False, True): (0, ((0, 0), (8, ()))),
    (1, False, False): (0, ((0, 0), (8, ()))),
    (2, True, True): (1, ((4, 10, 7, 6), (2, 10, 2, 4, False), (8, (10,)), (0, 3), (0, 4),
                          (8, ()), (2, 8, 5, 0, False), (8, ()), (2, 9, 5, 1, False), (8, ()))),
    (2, True, False): (0, ((0, 2), (0, 4), (8, ()), (0, 3), (0, 4), (8, ()), (0, 5), (0, 0),
                           (8, ()), (0, 5), (0, 1), (8, ()))),
    (2, False, True): (0, ((0, 3), (0, 0), (8, ()), (2, 4, 2, 1, False), (8, ()))),
    (2, False, False): (0, ((0, 3), (0, 0), (8, ()), (0, 2), (0, 1), (8, ()))),
}


#: two levels whatever they give
LEVELS = QuadOptions(initial_points=16, max_points=32, tol=1.0)


def _merged_terms(n, pairs):
    """The half-line terms as `compile_schedule` contracts them, the sign
    partners of dimension 0 merged (`_kernels._merge`)."""
    return _kernels._merge([(term.vectors, tuple(tuple(ab for ab in invs if ab in pairs)
                                                 for invs in term.mats))
                            for term in term_structure(n, True)], pairs)


class TestMergedTerms:
    """Two half-line terms that differ only in the sign of dimension 0 are
    contracted as one, dimension 0 running over both signs' nodes
    (`compile_schedule`).  The per-term loop is the reference."""

    @pytest.mark.parametrize("model,n,fold", [
        pytest.param(model, n, fold, id=f"{model}-N{n}-{'folded' if fold else 'whole'}")
        for model in ("asep", "bose") for n in (3, 4) for fold in (False, True)
    ])
    def test_a_merged_level_agrees_with_the_per_term_loop(self, model, n, fold):
        # the plain level, d/dt through dimension 0, whose vectors a merged
        # term stacks, and the last position's vectors times their nodes
        if model == "asep":
            params = AsepParams.from_p(0.3)
            contour = _circle_contour(params, tuned_radii(params, n).contours(), 8, True,
                                      fold)
            tables = contour.level((0, 2, 4, 6)[:n], (1, 2, 5, 7)[:n], 0.5)
        else:
            contour = _line_contour(_staggered(K, n, 0.5), W, 1.0, True, fold)
            tables = contour.level((0.5, 1.4, 2.6, 3.5)[:n], (0.8, 1.7, 2.9, 3.6)[:n],
                                   BOSE_T)
        assert tables.schedule.stacks and len(tables.schedule.terms) == {3: 18, 4: 126}[n]
        shift = {(d, s, pos): contour.nodes[d, s] for d, s, pos in tables.vectors
                 if pos == n - 1}
        for level in (tables, tables.scaled(_energy(contour, tables, 0)),
                      tables.scaled(shift)):
            assert term_sum(level) == pytest.approx(
                _reference_term_sum(level, term_structure(n, True)), rel=1e-12)

    @pytest.mark.parametrize("call", [
        lambda: asep_exact.evaluate_extended((0, 2, 4), (-1, 4, 2), 0.5, P04, LEVELS),
        lambda: asep_exact.evaluate_extended((0, 1, 2, 3), (3, 0, 1, 4), 0.5, P04, LEVELS),
        lambda: asep_exact.master_equation_residual((0, 2, 4), (1, 2, 5), 0.5, P04, LEVELS),
    ], ids=["extended-N3", "extended-N4", "residual-N3"])
    def test_every_level_of_a_call_agrees_with_the_per_term_loop(self, monkeypatch, call):
        # the master equation's levels are functionals of one level's tables
        # (`LevelTables.scaled`), each summed with its stacked vectors
        sums = []

        def checked(tables):
            got = term_sum(tables)
            n = 1 + max(d for d, _, _ in tables.vectors)
            sums.append((got, _reference_term_sum(tables, term_structure(n, True))))
            return got

        monkeypatch.setattr(_kernels, "term_sum", checked)
        call()
        assert len(sums) >= 2
        for got, want in sums:
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("key", sorted(UNMERGED_PROGRAMS))
    def test_n1_and_n2_compile_as_before(self, key):
        n, halfline, used = key
        schedule = compile_schedule(n, halfline,
                                    frozenset(_table_keys(n, halfline) if used else ()))
        assert schedule.stacks == ()
        assert (schedule.program.temporaries,
                schedule.program.instructions) == UNMERGED_PROGRAMS[key]

    @pytest.mark.parametrize("n,merged", [(1, 0), (2, 0), (3, 6), (4, 66)])
    def test_every_term_is_contracted_once(self, n, merged):
        # a merged term stands for two, every other for one
        terms = _merged_terms(n, frozenset(_table_keys(n, True)))
        stacked = [keys for keys, _ in terms if keys[0][1] == _kernels.STACKED]
        assert len(stacked) == merged
        assert 2 * len(stacked) + len(terms) - len(stacked) == len(term_structure(n, True))
        assert len({keys for keys, _ in terms}) == len(terms)

    @pytest.mark.parametrize("n", [3, 4])
    def test_only_a_dimension_0_with_two_pair_neighbours_is_doubled(self, n):
        pairs = frozenset(_table_keys(n, True))
        zero = [k for k, pair in enumerate(_pairs(n)) if 0 in pair]
        terms = _merged_terms(n, pairs)
        for keys, slots in terms:
            neighbours = sum(bool(slots[k]) for k in zero)
            if keys[0][1] == _kernels.STACKED:
                assert neighbours >= 2
                # one inversion reads its stack, two their four matrices
                assert all(len(slots[k]) in (0, 1, 4) for k in zero)
        # the unmerged partners are those whose dimension 0 has one neighbour
        lone = [keys for keys, slots in terms if abs(keys[0][1]) == 1]
        assert all(sum(bool(slots[k]) for k in zero) < 2
                   for keys, slots in terms if abs(keys[0][1]) == 1)
        assert len(lone) == {3: 4, 4: 12}[n]
        # tables without the stacked matrices merge nothing
        plain = frozenset(_used_pairs(n, True))
        assert len(_merged_terms(n, plain)) == len(term_structure(n, True))


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
    """The (trial+1)-th output of the SplitMix64 generator seeded with seed."""
    return _mix64_py((seed + (trial + 1) * _GOLDEN) & _MASK)


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

    @pytest.mark.parametrize("seed", [0, 99, 2 ** 64 - 1])
    def test_no_two_trials_share_a_state(self, seed):
        # started at seed + (i+1) * golden ratio, trial i+1 drew trial i's
        # numbers shifted by one; mixed starts share none over 64 draws
        state = _kernels._trial_states(seed, 0, 4096)
        assert state.tolist() == [_trial_state_py(seed, i) for i in range(4096)]
        seen = []
        for _ in range(64):
            _kernels._next_units(state)
            seen.append(state.copy())
        assert np.unique(np.concatenate(seen)).size == 64 * 4096

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
