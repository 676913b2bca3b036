"""Propagators of the delta-interacting Bose gas at damped time.

The hard-wall (half-line) propagator is a sum over signed permutations of
line integrals; the full-line propagator is the same sum restricted to
ordinary permutations.  Evaluation requires Im(t) < 0 so every integrand
carries Gaussian damping exp(Im(t) k^2); pure imaginary t = -i*tau is the
standard mode and turns the N = 1 half-line case into the method of images
for the heat kernel, which several tests use as ground truth.

Variable d is integrated on its own line, Im k_d = -(d+1) h (`_staggered`):
every scattering factor S(k_a - k_b) of an inversion a > b then sits below
the real axis, away from its pole at ic, so the poles no longer narrow the
strip of analyticity that sets the trapezoid grid.  Every propagator and
residual refines through `_kernels.evaluate` on these lines' tables.

Closed-form limits (free bosons at c = 0, impenetrable bosons at c = inf)
are derived independently and double as oracles for the full sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import ContourTables, evaluate
from .contour_quad import LineGrid, QuadOptions, line_nodes
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
#: real-line peak; `_stagger` takes the largest shift that fits
GROWTH_BUDGET = 1e3


def _growth(y, x, delta: float) -> tuple[float, float]:
    """(A, B) with A h^2 + B h the log of prod_d e^(delta eta_d^2 + eta_d
    (max x - y_d)), eta_d = (d+1) h: on Im k_d = -eta_d at t = -i delta the
    damping, the y-phase and the largest x-phase of variable d peak at that,
    at Re k_d = 0, while every |S| stays at most 1."""
    a = delta * sum((d + 1) ** 2 for d in range(len(y)))
    b = sum((d + 1) * (max(x) - yd) for d, yd in enumerate(y))
    return a, b


def _log_tol(tol: float) -> float:
    return max(math.log(1.0 / tol), 1.0)


def _stagger(y, x, time: DampedTime, c: float, tol: float) -> float:
    """The shift h of the staggered lines (`_staggered`): just enough that
    the S-poles stop capping the strip below sqrt(log(1/tol)/delta), the
    width at which `_grid_parameters` spaces the grid coarsest, at most 0.5,
    and at most the root of A h^2 + B h = log(GROWTH_BUDGET) (`_growth`).
    0 where no pair carries an S-matrix (c = 0 or N = 1), where the poles
    cap nothing, and at Re t != 0, where the shift would move each Gaussian
    off the real axis and lengthen the cutoff."""
    h = min(0.5, math.sqrt(_log_tol(tol) / time.damping) / 0.9 - c)
    if c == 0.0 or len(y) < 2 or h <= 0.0 or time.t.real != 0.0:
        return 0.0
    a, b = _growth(y, x, time.damping)
    return min(h, (math.sqrt(b * b + 4.0 * a * math.log(GROWTH_BUDGET)) - b) / (2.0 * a))


def _staggered(k, n: int, h: float) -> list:
    """Variable d's nodes, on the line Im k = -(d+1) h; at h = 0 every
    variable shares the real grid k."""
    return [k - 1j * ((d + 1) * h) if h else k for d in range(n)]


def _grid_parameters(y, x, time: DampedTime, c: float, h: float, tol: float):
    """Cutoff and target spacing from the Gaussian decay and the strip of
    analyticity of the scattering factors.

    S(k_a - k_b) has its pole at k_a - k_b = ic.  On the staggered lines an
    inversion (a, b), a > b, has Im(k_a - k_b) = -(a - b) h, so every pole
    lies at least c + h from the contour and the strip is capped at
    0.9 (c + h); N = 1 has no S-matrix and no cap."""
    delta = time.damping
    logt = _log_tol(tol)
    cutoff = 1.25 * math.sqrt(logt / delta) + 1.0
    z = max(abs(v) for v in x) + max(abs(v) for v in y)
    beta = math.sqrt(logt / delta)
    if c > 0 and len(y) > 1:
        beta = min(0.9 * (c + h), beta)
    denom = z + (delta + abs(time.t.real)) * beta + logt / beta + 5.0
    spacing = min(0.35, 2.0 * math.pi / denom)
    return cutoff, spacing


def _line_contour(nodes, w, c: float, halfline: bool) -> ContourTables:
    """The contour tables on the nodes of each variable (`_staggered`), with
    S(k_a - k_b), k_-a = -k_a, but none at c = 0.  Variables on one shared
    node array share their matrices (`pair_matrices`)."""
    n = len(nodes)
    # S(-k_b + k_a) = S(k_a - k_b); a lambda, so a wrapper of s_bose here is seen
    return ContourTables(
        nodes, [-kd for kd in nodes] if halfline else None, (w,) * n,
        [-1j * kd * kd for kd in nodes], (-1.0,) * n, lambda k, x: np.exp(1j * k * x),
        (lambda ka, kb: s_bose(ka - kb, BoseParams(c))) if c != 0.0 else None)


def _line_opts(y, x, time, c, opts: QuadOptions | None):
    """Cutoff, refinement schedule and line shift h (`_stagger`); the grid
    starts even and no coarser than the damping and the analytic strip
    need, whatever `opts` asks for."""
    opts = opts or QuadOptions()
    h = _stagger(y, x, time, c, opts.tol)
    cutoff, spacing = _grid_parameters(y, x, time, c, h, opts.tol)
    m0 = max(16, 2 * math.ceil(cutoff / spacing))
    return cutoff, QuadOptions(initial_points=max(opts.initial_points
                                                  + opts.initial_points % 2, m0),
                               max_points=max(opts.max_points, 8 * m0), tol=opts.tol), h


def _five_quarters(m: int) -> int:
    """The level after m: m0 already resolves the integrand to about tol, so
    the check level needs only 5/4 of it; its error, about err(m0)**1.25,
    stays well below the difference the stopping rule compares.  The result
    is even, as LineGrid needs."""
    return 2 * math.ceil(5 * m / 8)


def _propagator(y, x, t, params: BoseParams, opts: QuadOptions | None,
                halfline: bool, functional=None) -> BoseEvalReport:
    time = t if isinstance(t, DampedTime) else DampedTime(t)
    cutoff, opts, h = _line_opts(y, x, time, params.c, opts)

    def contour_at(m):
        k, w = line_nodes(LineGrid(cutoff, 2.0 * cutoff / m))
        return _line_contour(_staggered(k, len(y), h), w, params.c, halfline)

    value, err, m = evaluate(contour_at, y, x, time.t, halfline, opts,
                             _five_quarters, functional)
    order = group_order(len(y), halfline)
    tail = _cutoff_tail(y, x, time, h, order, cutoff, 2.0 * cutoff / m)
    return BoseEvalReport(value, max(err, tail), m, order)


def _cutoff_tail(y, x, time: DampedTime, h: float, order: int, cutoff: float,
                 spacing: float) -> float:
    """Bound on the lattice points that no level sees: those beyond
    +-cutoff, and the half weights the trapezoid gives the end points.

    On the line of variable d every |S| <= 1, so each of the `order` terms
    is at most the growth e^(A h^2 + B h) (`_growth`; 1 on the real line,
    h = 0) times prod_d e^(-delta (Re k_d)^2)/(2 pi).  A point left out has
    some |Re k_d| >= cutoff = K: N choices of d, the 1-D tail (spacing +
    1/(delta K)) e^(-delta K^2)/(2 pi) over both sides, and the whole 1-D
    lattice sum (spacing + sqrt(pi/delta))/(2 pi) for each other dimension.
    This bounds the plain propagator sum, not the derivative sums of
    bc1_residual, which reports no error estimate.
    """
    n, delta, k = len(y), time.damping, cutoff
    a, b = _growth(y, x, delta)
    tail = (spacing + 1.0 / (delta * k)) * math.exp(-delta * k * k) / (2.0 * math.pi)
    whole = (spacing + math.sqrt(math.pi / delta)) / (2.0 * math.pi)
    return order * n * math.exp((a * h + b) * h) * tail * whole ** (n - 1)


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

        return (1, d_dx(j)), (-1, d_dx(j - 1)), (-params.c, {})

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
