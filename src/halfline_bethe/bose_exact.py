"""Propagators of the delta-interacting Bose gas at damped time.

The hard-wall (half-line) propagator is a sum over signed permutations of
line integrals; the full-line propagator is the same sum restricted to
ordinary permutations.  Evaluation requires Im(t) < 0 so every integrand
carries Gaussian damping exp(Im(t) k^2); pure imaginary t = -i*tau is the
standard mode and turns the N = 1 half-line case into the method of images
for the heat kernel, which several tests use as ground truth.

Variable d is integrated on its own line, Im k_d = -d h (`_staggered`):
every scattering factor S(k_a - k_b) of an inversion a > b then sits at
least h below the real axis, away from its pole at ic, so the poles no
longer narrow the strip of analyticity that sets the trapezoid grid.  The
shift raises the integrand's peak, so h is what the strip needs but no
more than `GROWTH_BUDGET` and the rounding at tol allow (`_stagger`,
`_budget`), and the grid spacing pays for that growth.  Every propagator
and residual refines through `_kernels.evaluate` on these lines' tables.  At
pure imaginary time k -> -conj(k) conjugates every factor, so each level is
folded: one variable runs over Re k >= 0 only and the level keeps its real
part (`_line_contour`).  Every line runs over one uniform real grid, so a
level's tables come from one-dimensional values: each S-matrix is the
Toeplitz or Hankel spread of s_bose at 2m - 1 points (`_line_matrices`),
and each plane wave at a position one exponential e^(ikx) times a scalar.

Closed-form limits (free bosons at c = 0, impenetrable bosons at c = inf)
are derived independently and double as oracles for the full sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import ContourTables, evaluate, pair_matrices
from .contour_quad import LineGrid, QuadOptions, line_half, line_nodes
from .errors import ConvergenceError
from .scattering import BoseParams, s_bose
from .signed_perm import group_order

#: minimum damping -Im(t) of a time with a real part; keeps every integrand
#: Gaussian-integrable
MIN_DAMPING = 1e-3


def _check_tau(tau: float):
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")


@dataclass(frozen=True)
class DampedTime:
    """Complex time with Im(t) <= -MIN_DAMPING, or pure imaginary t = -i tau
    with tau > 0 (`imaginary`), so |exp(-i t k^2)| decays."""

    t: complex

    def __post_init__(self):
        object.__setattr__(self, "t", complex(self.t))
        if not np.isfinite(self.t.real) or not np.isfinite(self.t.imag):
            raise ValueError("time must be finite")
        if self.t.imag > -MIN_DAMPING and not (self.t.real == 0.0 and self.t.imag < 0.0):
            raise ValueError(f"need Im(t) <= -{MIN_DAMPING}, or Re(t) = 0 and Im(t) < 0, "
                             f"for damped evaluation, got {self.t}")

    @classmethod
    def imaginary(cls, tau: float) -> "DampedTime":
        """Diffusive mode t = -i*tau; any tau > 0 is admissible here."""
        _check_tau(tau)
        return cls(-1j * float(tau))

    @property
    def damping(self) -> float:
        return -self.t.imag


@dataclass(frozen=True)
class BoseEvalReport:
    value: complex
    error_estimate: float
    points_used: int
    term_count: int


def _check_positions(xs, *, positive: bool, allow_equal_pair: int | None = None,
                     allow_zero_first: bool = False) -> tuple[float, ...]:
    xs = tuple(float(v) for v in xs)
    if len(xs) < 1:
        raise ValueError("need at least one particle")
    if not all(math.isfinite(v) for v in xs):
        raise ValueError(f"positions must be finite: {xs}")
    for j, (a, b) in enumerate(zip(xs, xs[1:])):
        if allow_equal_pair is not None and j == allow_equal_pair:
            if a != b:
                raise ValueError(f"positions {j + 1}, {j + 2} must coincide: {xs}")
            continue
        if b <= a:
            raise ValueError(f"positions must strictly increase: {xs}")
    if positive and not allow_zero_first and xs[0] <= 0:
        raise ValueError(f"half-line positions must be positive: {xs}")
    if positive and allow_zero_first and (xs[0] != 0.0 or (len(xs) > 1 and xs[1] <= 0)):
        raise ValueError(f"wall evaluation needs x_1 = 0 < x_2 < ...: {xs}")
    return xs


#: how far the staggered lines may raise the peak of |integrand| above its
#: real-line peak at most; `_budget` lowers it where rounding would show
GROWTH_BUDGET = 1e3


def _growth(y, x, delta: float) -> tuple[float, float]:
    """(A, B) with A h^2 + B h the log of prod_d e^(delta eta_d^2 + eta_d
    (max x - y_d)), eta_d = d h: on Im k_d = -eta_d at t = -i delta the
    damping, the y-phase and the largest x-phase of variable d peak at that,
    at Re k_d = 0, while every |S| stays at most 1.  Variable 0 runs on the
    real line and adds nothing."""
    a = delta * sum(d * d for d in range(len(y)))
    b = sum(d * (max(x) - yd) for d, yd in enumerate(y))
    return a, b


def _budget(n: int, delta: float, tol: float) -> float:
    """The largest growth e^(A h^2 + B h) (`_growth`) the lines of n
    variables at damping delta may put on the sum: GROWTH_BUDGET, and no
    more than keeps the rounding eps of the raised peak within tol/100 on
    the scale S = 2^n n!/(2 sqrt(pi delta))^n of the sum, the 2^n n! terms
    each at most prod_d int e^(-delta k^2) dk/(2 pi).  The full line takes
    the same S: on its n! terms alone, N = 2 values at tol 1e-12 land up to
    2.7e-15 off their closed form, against 3.4e-16 on this S.  Below 1 no
    shift fits."""
    scale = group_order(n, True) / (2.0 * math.sqrt(math.pi * delta)) ** n
    return min(GROWTH_BUDGET, tol / (100.0 * np.finfo(float).eps * scale))


def _log_tol(tol: float) -> float:
    return max(math.log(1.0 / tol), 1.0)


#: the coarsest spacing of any line grid (`_grid_parameters`)
MAX_SPACING = 0.35


def _cutoff(n: int, delta: float, tol: float) -> float:
    """The smallest cutoff K whose tail bound (`_log_tail`) is at most
    tol/10 on every grid the lines of n variables at damping delta allow:
    2^n n! terms, the growth GROWTH_BUDGET of the largest shift
    (`_stagger`) and the coarsest spacing MAX_SPACING, so the cutoff does
    not depend on h.

    f(K) = log(bound) - log(tol/10) falls and is concave in K, so every
    Newton step lands at or above the root, and from there the steps fall
    to it."""
    order, log_target = 2 ** n * math.factorial(n), math.log(tol) - math.log(10.0)
    k = math.sqrt(_log_tol(tol) / delta)
    for _ in range(50):
        f = _log_tail(n, delta, math.log(GROWTH_BUDGET), order, k, MAX_SPACING) - log_target
        step = f / (-1.0 / (k * (MAX_SPACING * delta * k + 1.0)) - 2.0 * delta * k)
        k -= step
        if abs(step) <= 1e-12 * k:
            break
    return k


def _stagger(y, x, time: DampedTime, c: float, tol: float) -> float:
    """The shift h of the staggered lines (`_staggered`): just enough that
    the S-poles stop capping the strip below sqrt(log(1/tol)/delta), the
    width at which `_grid_parameters` spaces the grid coarsest, and at most
    the root of A h^2 + B h = log(budget) (`_growth`, `_budget`), so the
    raised peak neither outgrows GROWTH_BUDGET nor rounds past tol/100.
    0 where no pair carries an S-matrix (c = 0 or N = 1), where the poles
    cap nothing, where the budget allows no growth, and at Re t != 0, where
    the shift would move each Gaussian off the real axis and lengthen the
    cutoff."""
    if c == 0.0 or len(y) < 2 or time.t.real != 0.0:
        return 0.0
    h = math.sqrt(_log_tol(tol) / time.damping) / 0.9 - c
    log_budget = math.log(_budget(len(y), time.damping, tol))
    if h <= 0.0 or log_budget <= 0.0:
        return 0.0
    a, b = _growth(y, x, time.damping)
    return min(h, (math.sqrt(b * b + 4.0 * a * log_budget) - b) / (2.0 * a))


def _staggered(k, n: int, h: float) -> list:
    """Variable d's nodes, on the line Im k = -d h over the real grid k; at
    h = 0 every variable shares k itself.  Every line keeps the real parts
    k, so k_a - k_b of two variables runs over the node-index differences
    or sums alone (`_line_matrices`).

    With k_-a = -k_a, signed variable v then sits at Im k_v = -sign(v)
    (|v| - 1) h, and an inversion (a, b), a > b, has Im(k_a - k_b) <= -h
    unless it pairs the first variable with its own reflection, and no
    inversion pairs any variable with its reflection
    (`signed_perm.inversions`): every S-pole lies at least c + h from the
    contour."""
    return [k - 1j * (d * h) if h else k for d in range(n)]


def _grid_parameters(y, x, time: DampedTime, c: float, h: float, tol: float,
                     cutoff: float) -> int:
    """The points of the first even grid on the cutoff (`_cutoff`, which
    does not depend on h), from the Gaussian decay and the strip of
    analyticity of the scattering factors.

    The spacing makes the trapezoid error, which falls like sup|f| e^(-2 pi
    beta/spacing) (Trefethen & Weideman, SIAM Rev. 56, 2014), about tol on
    a strip of half-width beta: 2 pi/spacing is z + (delta + |Re t|) beta +
    (log(1/tol) + A h^2 + B h)/beta + 5, z = max|x| + max|y|, where the
    growth A h^2 + B h (`_growth`) covers the peak the shifted lines raise
    sup|f| by.  beta is at most sqrt(log(1/tol)/(delta + |Re t|)), where
    the sum without growth is smallest, and the spacing never exceeds 0.35.
    So an error e^(-a m) has a m0 >= log(1/tol), which `_line_levels`
    relies on.

    S(k_a - k_b) has its pole at k_a - k_b = ic.  On the staggered lines
    every inversion has Im(k_a - k_b) <= -h (`_staggered`), so every pole
    lies at least c + h from the contour and the strip is capped at
    0.9 (c + h); N = 1 has no S-matrix and no cap."""
    rate = time.damping + abs(time.t.real)
    logt = _log_tol(tol)
    z = max(abs(v) for v in x) + max(abs(v) for v in y)
    beta = math.sqrt(logt / rate)
    if c > 0 and len(y) > 1:
        beta = min(0.9 * (c + h), beta)
    a, b = _growth(y, x, time.damping)
    spacing = min(MAX_SPACING,
                  2.0 * math.pi / (z + rate * beta + (logt + (a * h + b) * h) / beta + 5.0))
    return max(16, 2 * math.ceil(cutoff / spacing))


def _spread(values: np.ndarray, toeplitz: bool, first: int = 0) -> np.ndarray:
    """Rows first .. m - 1 of the m x m matrix values[i - j + m - 1]
    (Toeplitz) or values[i + j] (Hankel) of the 2m - 1 contiguous values,
    as a strided view of them, which `_kernels.pair_matrices` copies once."""
    m, step = (values.size + 1) // 2, values.strides[0]
    if toeplitz:
        offset, strides = (first + m - 1) * step, (step, -step)
    else:
        offset, strides = first * step, (step, step)
    return np.ndarray((m - first, m), values.dtype, values, offset, strides)


def _line_matrices(k, lines, c: float, halfline: bool, fold) -> dict:
    """The S-matrix S(k_a - k_b) of every signed pair (a, b) the sum uses,
    k_-a = -k_a, on lines that share the uniform real grid k of
    `line_nodes` and put variable d at Im k = lines[d] (`_line_contour`),
    from the one walk of both models (`_kernels.pair_matrices`), with
    `fold` None or the kept nodes of the last variable.

    A same-sign pair's k_a - k_b depends only on the difference of the two
    node indices, a mixed-sign pair's on their sum, and both run over n sp
    + i (Im k_a - Im k_b), n = 1 - m .. m - 1.  So a pair's kind is its
    offset Im k_a - Im k_b and whether it is Toeplitz (b > 0) or Hankel
    (b < 0; the walk's pairs all have a > 0), and each matrix is that
    spread (`_spread`) of s_bose at those 2m - 1 points, computed once per
    offset.  Folded rows come from the same diagonals, so they equal the
    unfolded kept rows bit for bit.
    """
    m = k.size
    points = k[m // 2 + 1] * np.arange(1 - m, m)  # n sp, as line_nodes spaces k
    params, values = BoseParams(c), {}

    def kind(a, b):
        im_a, im_b = (lines[v - 1] if v > 0 else -lines[-v - 1] for v in (a, b))
        return im_a - im_b, b > 0

    def build(kind, rows):
        offset, toeplitz = kind
        if offset not in values:
            values[offset] = s_bose(points + 1j * offset, params)
        return _spread(values[offset], toeplitz, 0 if rows is None else rows.start)

    return pair_matrices(len(lines), halfline, kind, build, fold)


def _line_contour(nodes, w, c: float, halfline: bool, fold: bool = False) -> ContourTables:
    """The contour tables on the nodes of each variable (`_staggered`), with
    S(k_a - k_b), k_-a = -k_a, but none at c = 0.

    Every line must run over the one uniform real grid k of `line_nodes`,
    at its own Im k, read from its first node.  The S-matrices are then
    spread from one-dimensional values (`_line_matrices`), and the plane
    waves at a position x come from one exponential: on Im k_d = -eta_d,
    e^(i k_d x) = e^(i k x) e^(eta_d x), and the reflected e^(-i k_d x) =
    conj(e^(i k x)) e^(-eta_d x).

    `fold` folds the level (`ContourTables`, `line_half`), which needs an
    imaginary time: k -> -conj(k) maps each line onto itself and conjugates
    every factor, e^(-i k^2 t) only when Re t = 0."""
    n = len(nodes)
    k = np.real(nodes[0])
    lines = [float(np.imag(kd[0])) for kd in nodes]
    half = line_half(w.size) if fold else None
    keep = half[0] if fold else None
    signs = (1, -1) if halfline else (1,)

    def waves(x):
        e = np.exp(1j * k * x)
        real_line = {1: e, -1: e.conj()} if halfline else {1: e}
        out = {}
        for d, im in enumerate(lines):
            for s in signs:
                wave = real_line[s][keep] if fold and d == n - 1 else real_line[s]
                out[d, s] = wave * math.exp(-s * im * x) if im else wave
        return out

    return ContourTables(
        nodes, [-kd for kd in nodes] if halfline else None, (w,) * n,
        [-1j * kd * kd for kd in nodes], (-1.0,) * n, lambda kd, x: np.exp(1j * kd * x),
        _line_matrices(k, lines, c, halfline, keep) if c != 0.0 else None, half, waves)


def _line_opts(y, x, time, c, opts: QuadOptions | None):
    """Cutoff, options with the first level m0 as initial_points, and line
    shift h (`_stagger`); the grid starts even and no coarser than the
    damping, the analytic strip and the growth of the shifted lines need,
    whatever initial_points asks for.  The caller's max_points and tol are
    kept, and an m0 above max_points raises ConvergenceError, as
    `adaptive_trace` does for a first resolution above it.  The cutoff is
    computed once and serves both lines.  A shift that buys no coarser
    first grid is dropped: on the real line every variable shares one grid
    and one set of S-matrices."""
    opts = opts or QuadOptions()
    cutoff = _cutoff(len(y), time.damping, opts.tol)
    m0 = _grid_parameters(y, x, time, c, 0.0, opts.tol, cutoff)
    h = _stagger(y, x, time, c, opts.tol)
    shifted = _grid_parameters(y, x, time, c, h, opts.tol, cutoff) if h else m0
    h, m0 = (h, shifted) if shifted < m0 else (0.0, m0)
    m0 = max(opts.initial_points + opts.initial_points % 2, m0)
    if m0 > opts.max_points:
        raise ConvergenceError(f"the first resolution {m0} exceeds "
                               f"max_points={opts.max_points}", estimates=(None, None))
    return cutoff, QuadOptions(m0, opts.max_points, opts.tol), h


def _check_step(tol: float) -> float:
    """1 + min(1/4, log 10/log(1/tol)): 1.1 at tol 1e-10, 5/4 at tol >= 1e-4."""
    return 1.0 + min(0.25, math.log(10.0) / _log_tol(tol))


def _check_level(m: int, tol: float) -> int:
    """The level after m on the way up, m times `_check_step` rounded up to
    even, as LineGrid needs (`_line_levels`)."""
    return 2 * math.ceil(m * _check_step(tol) / 2)


def _line_levels(m0: int, tol: float):
    """The refinement schedule of a line grid that starts at m0: m0, then
    the coarser check m0/s, s = `_check_step`, rounded down to even and at
    least 16 (the coarsest LineGrid), then s m0, s^2 m0, ... (`_check_level`).
    An m0 of 16 has no coarser grid and goes up at once.

    The first grid resolves the integrand to about tol, and its spacing
    gives an error e^(-a m) with a m0 >= log(1/tol) (`_grid_parameters`),
    so the check level carries about ten times m0's error: the difference
    of the two, which `adaptive_eval` reports against m0's value, bounds
    m0's own error about tenfold.  Only where they disagree by tol does
    refinement go up, comparing the two finest levels."""
    yield m0
    coarse = max(16, 2 * math.floor(m0 / _check_step(tol) / 2))
    if coarse < m0:
        yield coarse
    m = m0
    while True:
        m = _check_level(m, tol)
        yield m


def _propagator(y, x, t, params: BoseParams, opts: QuadOptions | None,
                halfline: bool, functional=None) -> BoseEvalReport:
    time = t if isinstance(t, DampedTime) else DampedTime(t)
    cutoff, opts, h = _line_opts(y, x, time, params.c, opts)
    folded = time.t.real == 0.0

    def contour_at(m):
        k, w = line_nodes(LineGrid(cutoff, 2.0 * cutoff / m))
        return _line_contour(_staggered(k, len(y), h), w, params.c, halfline, folded)

    value, err, m = evaluate(contour_at, y, x, time.t, opts,
                             _line_levels(opts.initial_points, opts.tol), functional)
    order = group_order(len(y), halfline)
    tail = _cutoff_tail(y, x, time, h, order, cutoff, 2.0 * cutoff / m)
    return BoseEvalReport(value, max(err, tail), m, order)


def _log_tail(n: int, delta: float, log_growth: float, order: int, cutoff: float,
              spacing: float) -> float:
    """Log of the bound on the lattice points that no level sees: those
    beyond +-cutoff, and the half weights the trapezoid gives the end points.

    On the line of variable d every |S| <= 1, so each of the `order` terms
    is at most the growth e^(log_growth) (`_growth`; 1 on the real line)
    times prod_d e^(-delta (Re k_d)^2)/(2 pi).  A point left out has some
    |Re k_d| >= cutoff = K: n choices of d, the 1-D tail (spacing +
    1/(delta K)) e^(-delta K^2)/(2 pi) over both sides, and the whole 1-D
    lattice sum (spacing + sqrt(pi/delta))/(2 pi) for each other dimension.
    """
    whole = (spacing + math.sqrt(math.pi / delta)) / (2.0 * math.pi)
    return (math.log(order * n * (spacing + 1.0 / (delta * cutoff)) / (2.0 * math.pi))
            + log_growth - delta * cutoff * cutoff + (n - 1) * math.log(whole))


def _cutoff_tail(y, x, time: DampedTime, h: float, order: int, cutoff: float,
                 spacing: float) -> float:
    """`_log_tail`'s bound for the lines of shift h, at the growth
    e^(A h^2 + B h) of (y, x) (`_growth`).  It bounds the plain propagator
    sum, not the derivative sums of bc1_residual, which reports no error
    estimate."""
    a, b = _growth(y, x, time.damping)
    return math.exp(_log_tail(len(y), time.damping, (a * h + b) * h, order, cutoff, spacing))


def propagator_halfline(y, x, t, params: BoseParams,
                        opts: QuadOptions | None = None) -> BoseEvalReport:
    """Hard-wall propagator from ordered y to ordered x at damped time t.

    Positions are strictly increasing and positive; t may be a DampedTime or
    a complex number with Im(t) <= -1e-3 (t = -i*tau for diffusive mode).
    """
    yv = _check_positions(y, positive=True)
    xv = _check_positions(x, positive=True)
    return _propagator(yv, xv, t, params, opts, halfline=True)


def propagator_fullline(y, x, t, params: BoseParams,
                        opts: QuadOptions | None = None) -> BoseEvalReport:
    """Free-boundary propagator (permutation sum only, no reflections)."""
    yv = _check_positions(y, positive=False)
    xv = _check_positions(x, positive=False)
    return _propagator(yv, xv, t, params, opts, halfline=False)


def wall_residual(y, x, t, params: BoseParams,
                  opts: QuadOptions | None = None) -> complex:
    """Propagator evaluated at x_1 = 0; exactly zero by the reflection pairing."""
    yv = _check_positions(y, positive=True)
    xv = _check_positions(x, positive=True, allow_zero_first=True)
    return complex(_propagator(yv, xv, t, params, opts, halfline=True).value)


def bc1_residual(y, x, j: int, t, params: BoseParams,
                 opts: QuadOptions | None = None) -> complex:
    """(d/dx_{j+1} - d/dx_j - c) applied to the propagator at x_{j+1} = x_j.

    The derivatives are exact (no finite differences): d/dx_i multiplies
    every vector placed at position i with sign s by i s k_d = i nodes[d, s]
    (`_kernels.evaluate`).  j is 1-based; x must carry x_{j+1} = x_j.
    """
    n = len(tuple(y))
    if n < 2:
        raise ValueError("boundary matching needs N >= 2")
    if not 1 <= j <= n - 1:
        raise ValueError(f"pair index must satisfy 1 <= j <= N-1, got {j}")
    yv = _check_positions(y, positive=True)
    xv = _check_positions(x, positive=True, allow_equal_pair=j - 1)

    def boundary(contour, tables):
        def d_dx(i):
            return {(d, s, pos): 1j * contour.nodes[d, s]
                    for d, s, pos in tables.vectors if pos == i}

        # u itself enters with coefficient -c, so not at all at c = 0
        pairs = [(1, d_dx(j)), (-1, d_dx(j - 1))]
        return pairs + [(-params.c, {})] if params.c else pairs

    rep = _propagator(yv, xv, t, params, opts, halfline=True, functional=boundary)
    return complex(rep.value)


def _heat_kernel(z: float, tau: float) -> float:
    return math.exp(-z * z / (4.0 * tau)) / math.sqrt(4.0 * math.pi * tau)


def images_kernel(x: float, y: float, tau: float) -> float:
    """Single-particle hard-wall kernel g(x-y; tau) - g(x+y; tau)."""
    return _heat_kernel(x - y, tau) - _heat_kernel(x + y, tau)


def free_limit_c0(y, x, tau: float) -> float:
    """c -> 0 closed form: permanent of the single-particle images kernel.

    At zero coupling every scattering factor is 1 and the signed-permutation
    sum factorizes into sum_perm prod_j images(x_j, y_perm(j)).
    """
    yv = _check_positions(y, positive=True)
    xv = _check_positions(x, positive=True)
    _check_tau(tau)
    n = len(yv)
    total = 0.0
    for perm in itertools.permutations(range(n)):
        prod = 1.0
        for j, pj in enumerate(perm):
            prod *= images_kernel(xv[j], yv[pj], tau)
        total += prod
    return total


def fermion_limit_cinf(y, x, tau: float) -> float:
    """c -> inf closed form: determinant of the single-particle images kernel
    (impenetrable bosons on the ordered sector)."""
    yv = _check_positions(y, positive=True)
    xv = _check_positions(x, positive=True)
    _check_tau(tau)
    n = len(yv)
    mat = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            mat[i, j] = images_kernel(xv[i], yv[j], tau)
    return float(np.linalg.det(mat))
