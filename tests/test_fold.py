"""The conjugate fold (`_kernels.ContourTables`): on a level whose every
factor is conjugate-symmetric, the last variable runs over the self-mirror
half of its nodes with doubled weights and the level keeps its real part.

Each folded level must equal the real part of the same level summed over
every node, whose imaginary part is rounding, for both models, on both
lines, at even and odd resolutions.  Inputs without the symmetry (a complex
circle centre, a complex Bose time) must stay unfolded, with their
imaginary part and its guard."""

import numpy as np
import pytest

from halfline_bethe import _kernels, asep_exact, bose_exact
from halfline_bethe._kernels import LevelTables, term_sum
from halfline_bethe.asep_exact import (_circle_contour, prob_fullline, prob_halfline,
                                       prob_n1_closed, tuned_radii, unfolded_imag_residual)
from halfline_bethe.bose_exact import (DampedTime, _line_contour, _staggered,
                                       propagator_fullline, propagator_halfline)
from halfline_bethe.contour_quad import (CircleContour, LineGrid, RadiiScheme, circle_half,
                                         circle_nodes, line_half, line_nodes)
from halfline_bethe.errors import ConvergenceError
from halfline_bethe.scattering import AsepParams, BoseParams

#: how far a folded level may sit from the unfolded one, and the unfolded
#: one's imaginary part from 0, relative to the sum of |integrand| over the
#: level's grid (measured: at most 2e-16)
ROUNDING = 1e-14

ASEP_Y, ASEP_X, ASEP_T = (0, 2, 4, 6), (1, 2, 5, 7), 0.5
BOSE_Y, BOSE_X, BOSE_T = (0.5, 1.4, 2.6), (0.8, 1.7, 2.9), -0.5j
#: (line shift h, coupling c): staggered lines, one shared real line, and no
#: S-matrix at all
BOSE_LINES = {"staggered": (0.5, 1.0), "real": (0.0, 1.0), "c0": (0.5, 0.0)}


def _asep_contour(n, halfline, m, fold):
    params = AsepParams.from_p(0.3)
    contours = (tuned_radii(params, n).contours() if halfline
                else (CircleContour(0.0, 2.0 / params.q),) * n)
    return _circle_contour(params, contours, m, halfline, fold)


def _bose_contour(n, halfline, cells, lines, fold):
    """Tables on 2 cells + 1 nodes of [-4, 4]."""
    h, c = BOSE_LINES[lines]
    k, w = line_nodes(LineGrid(4.0, 4.0 / cells))
    return _line_contour(_staggered(k, n, h), w, c, halfline, fold)


def _magnitude(tables) -> float:
    """Sum of |integrand| over every term and grid point: the level of the
    absolute values of the tables, a partner's |v-| added to |v+|."""
    return term_sum(LevelTables({key: abs(v) for key, v in tables.vectors.items()},
                                {key: abs(s) for key, s in tables.smats.items()},
                                tables.schedule)).real


def _derivatives(contour, tables, f, unit):
    """The plain tables, those of d/dt through variable f (times -i, unit
    -i, for the Bose gas: d/dtau at t = -i tau) and those with every vector
    at position 0 times its node (u(X + e_1) for the exclusion process, unit
    1, d/dx_1 for the Bose gas, unit i): the factors of each are
    conjugate-symmetric."""
    energy = {key: np.conj(unit) * contour.energies[f] for key in tables.vectors
              if key[0] == f}
    node = {(d, s, pos): unit * contour.nodes[d, s] for d, s, pos in tables.vectors
            if pos == 0}
    return [tables, tables.scaled(energy), tables.scaled(node)]


def _check_levels(unfolded, folded, y, x, t, unit):
    n = len(y)
    assert unfolded.fold is None and folded.fold == n - 1
    pairs = zip(_derivatives(unfolded, unfolded.level(y, x, t), n - 1, unit),
                _derivatives(folded, folded.level(y, x, t), n - 1, unit))
    for whole, half in pairs:
        value = term_sum(whole)
        scale = _magnitude(whole)
        assert abs(term_sum(half).real - value.real) <= ROUNDING * scale
        assert abs(value.imag) <= ROUNDING * scale


class TestHalves:
    """The kept nodes of a circle about a real centre and of a line."""

    @pytest.mark.parametrize("m", [8, 9, 16, 17])
    def test_circle(self, m):
        nodes, weights = circle_nodes(CircleContour(0.7, 1.3), m)
        keep, factor = circle_half(m)
        assert nodes[keep].size == factor.size == m // 2 + 1
        # node j mirrors node m - j; the real nodes keep their weight
        np.testing.assert_allclose(np.conj(nodes[1:]), nodes[:0:-1], rtol=1e-14)
        real = np.flatnonzero(factor == 1.0)
        assert real.tolist() == ([0, m // 2] if m % 2 == 0 else [0])
        np.testing.assert_allclose(nodes[keep][real].imag, 0.0, atol=1e-15)
        assert set(factor.tolist()) == {1.0, 2.0}
        # the folded rule integrates a real Laurent polynomial about 0.7
        for power in (-3, -1, 0, 2):
            f = (nodes - 0.7) ** power + 0.5 * nodes ** 2
            whole = np.sum(weights * f)
            half = np.sum((weights * f)[keep] * factor).real
            assert half == pytest.approx(whole.real, abs=1e-14)

    @pytest.mark.parametrize("cells", [8, 9])
    def test_line(self, cells):
        nodes, weights = line_nodes(LineGrid(4.0, 4.0 / cells))
        keep, factor = line_half(nodes.size)
        # node s mirrors node -s; s = 0 keeps its weight
        np.testing.assert_array_equal(nodes[keep], -nodes[:cells + 1][::-1])
        assert nodes[keep][0] == 0.0
        assert factor.tolist() == [1.0] + [2.0] * cells
        # e^(ikx - k^2) on Im k = -0.3: k -> -conj(k) conjugates it
        k = nodes - 0.3j
        f = np.exp(1.1j * k - k * k)
        assert np.sum((weights * f)[keep] * factor).real == pytest.approx(
            np.sum(weights * f).real, abs=1e-15)


class TestTables:
    """Folded tables are the unfolded ones on the kept nodes, bit for bit,
    the folded variable's weights times their factor, a power of 2."""

    @pytest.mark.parametrize("model,n,halfline", [
        pytest.param(model, n, halfline, id=f"{model}-N{n}-{'half' if halfline else 'full'}")
        for model in ("asep", "staggered", "real") for n in (1, 2, 3, 4)
        for halfline in (True, False)
    ])
    def test_the_kept_nodes_of_the_whole_tables(self, model, n, halfline):
        if model == "asep":
            whole, half = (_asep_contour(n, halfline, 9, fold) for fold in (False, True))
            keep, factor = circle_half(9)
            y, x, t = ASEP_Y[:n], ASEP_X[:n], ASEP_T
        else:
            whole, half = (_bose_contour(n, halfline, 9, model, fold) for fold in (False, True))
            keep, factor = line_half(19)
            y, x, t = (BOSE_Y + (3.5,))[:n], (BOSE_X + (3.6,))[:n], BOSE_T
        f = half.fold
        assert f == n - 1

        def cut(d, a):
            return a[keep] if d == f else a

        for key, nodes in whole.nodes.items():
            np.testing.assert_array_equal(half.nodes[key], cut(key[0], nodes))
        np.testing.assert_array_equal(half.weights[f], whole.weights[f][keep] * factor)
        whole_vectors, half_vectors = (c.level(y, x, t).vectors for c in (whole, half))
        assert half_vectors.keys() == whole_vectors.keys()
        for key, v in whole_vectors.items():
            np.testing.assert_array_equal(
                half_vectors[key], v[keep] * factor if key[0] == f else v)
        assert half.smats.keys() == whole.smats.keys()
        for (a, b), mat in whole.smats.items():
            if abs(a) == f + 1:
                mat = mat[keep]
            elif abs(b) == f + 1:
                mat = mat[:, keep]
            np.testing.assert_array_equal(half.smats[a, b], mat)
            assert not half.smats[a, b].flags.writeable
        # the fold builds no matrix the unfolded tables do not
        owners = [{id(m if m.base is None else m.base) for m in c.smats.values()}
                  for c in (whole, half)]
        assert len(owners[1]) == len(owners[0])


class TestLevels:
    """A folded level is the real part of the unfolded one, whose imaginary
    part is rounding: the plain level, d/dt through the folded variable
    and the vectors at position 0 times their nodes."""

    @pytest.mark.parametrize("n,halfline,m", [
        pytest.param(n, halfline, m, id=f"N{n}-{'half' if halfline else 'full'}-m{m}")
        for n in (1, 2, 3, 4) for halfline in (True, False) for m in (16, 17)
    ])
    def test_asep(self, n, halfline, m):
        _check_levels(*(_asep_contour(n, halfline, m, fold) for fold in (False, True)),
                      ASEP_Y[:n], ASEP_X[:n], ASEP_T, 1.0)

    @pytest.mark.parametrize("n,halfline,lines,cells", [
        pytest.param(n, halfline, lines, cells,
                     id=f"N{n}-{'half' if halfline else 'full'}-{lines}-{2 * cells}")
        for n in (1, 2, 3) for halfline in (True, False) for lines in BOSE_LINES
        for cells in (8, 9)
    ])
    def test_bose(self, n, halfline, lines, cells):
        _check_levels(*(_bose_contour(n, halfline, cells, lines, fold)
                        for fold in (False, True)),
                      BOSE_Y[:n], BOSE_X[:n], BOSE_T, 1j)


P04 = AsepParams.from_p(0.4)


@pytest.fixture
def folds(monkeypatch):
    """The `fold` of every contour table built for a level."""
    seen = []
    for module, name in ((asep_exact, "_circle_contour"), (bose_exact, "_line_contour")):
        build = getattr(module, name)

        def spy(*args, build=build):
            contour = build(*args)
            seen.append(contour.fold)
            return contour

        monkeypatch.setattr(module, name, spy)
    asep_exact._CONTOUR_CACHE.clear()
    yield seen
    asep_exact._CONTOUR_CACHE.clear()


def _complex_centre(n):
    """The tuned circles moved off the real axis, scaled to keep the poles
    0, 1 and tau inside."""
    tuned = tuned_radii(P04, n)
    return RadiiScheme(tuned.center + 0.2j, tuned.scaled(1.2).radii)


class TestWhereItApplies:
    """The fold follows from the input: real centres and imaginary times
    fold, a complex centre and a complex time do not."""

    def test_real_centres_fold(self, folds):
        for rep in (prob_halfline((0, 2), (1, 3), 1.0, P04),
                    prob_fullline((0, 2), (-1, 3), 1.0, P04)):
            assert rep.imag_residual == 0.0
        assert folds and set(folds) == {1}

    def test_a_complex_centre_stays_unfolded(self, folds):
        rep = prob_halfline((0, 2), (1, 3), 1.0, P04, radii=_complex_centre(2))
        assert folds and set(folds) == {None}
        assert 0.0 < rep.imag_residual < 1e-12
        assert rep.value == pytest.approx(prob_halfline((0, 2), (1, 3), 1.0, P04).value,
                                          abs=1e-12)

    def test_a_complex_time_stays_unfolded(self, folds):
        y, x, params = (0.7, 1.9), (1.2, 2.8), BoseParams(1.0)
        complex_time = propagator_halfline(y, x, 1.0 - 0.5j, params)
        assert folds and set(folds) == {None}
        folds.clear()
        imaginary = [propagator_halfline(y, x, DampedTime.imaginary(0.5), params),
                     propagator_fullline(y, x, DampedTime.imaginary(0.5), params)]
        assert folds and set(folds) == {1}
        assert complex_time.value.imag != 0.0
        assert all(rep.value.imag == 0.0 for rep in imaginary)

    def test_the_guard_sees_only_an_unfolded_sum(self, monkeypatch):
        # an imaginary part far above rounding: the folded level drops it,
        # the unfolded one keeps it and `_report` refuses the value
        monkeypatch.setattr(_kernels, "term_sum", lambda *args: term_sum(*args) + 1e-6j)
        assert prob_halfline((0, 2), (1, 3), 1.0, P04).imag_residual == 0.0
        with pytest.raises(ConvergenceError, match="imaginary residual"):
            prob_halfline((0, 2), (1, 3), 1.0, P04, radii=_complex_centre(2))

    def test_a_complex_centre_refuses_the_fold(self):
        with pytest.raises(ValueError, match="real centre"):
            _circle_contour(P04, _complex_centre(2).contours(), 16, True, True)


class TestIndependentReference:
    """`prob_n1_closed` never folds; the folded N = 1 sum must match it."""

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_closed_form_matches_the_folded_sum(self, p, t, folds):
        params = AsepParams.from_p(p)
        for y, x in ((0, 0), (1, 3), (3, 1), (2, 2)):
            folded = prob_halfline((y,), (x,), t, params)
            assert abs(prob_n1_closed(y, x, t, params).value - folded.value) < 1e-12
        assert folds and set(folds) == {0}


class TestRealness:
    """The realness diagnostic reads the unfolded last level."""

    @pytest.mark.parametrize("x", [(1, 3), (0, 2), (4, 6)])
    def test_unfolded_residual(self, x):
        rep = prob_halfline((0, 2), x, 0.5, P04)
        residual = unfolded_imag_residual((0, 2), x, 0.5, P04, rep.points_used)
        radii = tuned_radii(P04, 2)
        src, dst, prefactor = asep_exact._orientation((0, 2), x, radii, P04.tau)
        tables = _circle_contour(P04, radii.contours(), rep.points_used, True).level(
            src, dst, 0.5)
        level = term_sum(tables)
        assert residual == abs(prefactor * level.imag)
        assert 0.0 < residual <= ROUNDING * prefactor * _magnitude(tables)
