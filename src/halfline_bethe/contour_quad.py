"""Quadrature engines for the exact formulas.

Trapezoid rules on circles carry the 1/(2*pi*i) contour normalization and are
spectrally accurate for integrands analytic in an annulus around the contour;
truncated trapezoid rules on lines carry the 1/(2*pi) normalization and are
spectrally accurate for Gaussian-damped analytic integrands.  Adaptive
refinement sets the per-dimension resolution of every dimension together,
by doubling unless the caller passes its own schedule (the line grids, whose
first level is sized a priori, check it on a grid 1.1 to 5/4 coarser), and
every reduction runs in a fixed order, so repeated runs with one BLAS thread
count are bit-for-bit reproducible; another count can move the last bits of
a value (OPENBLAS_NUM_THREADS=1 pins it).
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError


@dataclass(frozen=True)
class CircleContour:
    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not np.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")


@dataclass(frozen=True)
class RadiiScheme:
    """Finite common center with strictly increasing radii R_1 < ... < R_N."""

    center: complex
    radii: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if not np.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if not radii or any(not np.isfinite(r) or r <= 0 for r in radii):
            raise ValueError(f"need one or more positive finite radii: {radii}")
        gap = 0.05 * radii[0]
        for lo, hi in zip(radii, radii[1:]):
            if hi - lo < gap:
                raise ValueError(
                    f"radii must increase by at least {gap}: {radii}"
                )

    @property
    def n(self) -> int:
        return len(self.radii)

    def contours(self) -> tuple[CircleContour, ...]:
        return tuple(CircleContour(self.center, r) for r in self.radii)

    def scaled(self, factor: float) -> "RadiiScheme":
        return RadiiScheme(self.center, tuple(factor * r for r in self.radii))

    def gaps_doubled(self) -> "RadiiScheme":
        r1 = self.radii[0]
        return RadiiScheme(self.center, tuple(r1 + 2 * (r - r1) for r in self.radii))


@dataclass(frozen=True)
class LineGrid:
    """Uniform grid on [-cutoff, cutoff]; finite cutoff/spacing an integer >= 8."""

    cutoff: float
    spacing: float

    def __post_init__(self):
        object.__setattr__(self, "cutoff", float(self.cutoff))
        object.__setattr__(self, "spacing", float(self.spacing))
        if not (0 < self.cutoff < np.inf and 0 < self.spacing < np.inf):
            raise ValueError("cutoff and spacing must be positive and finite")
        ratio = self.cutoff / self.spacing
        if np.isinf(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 8:
            raise ValueError(
                f"cutoff/spacing must be an integer >= 8, got {ratio}"
            )


@dataclass(frozen=True)
class QuadOptions:
    initial_points: int = 16
    max_points: int = 4096
    tol: float = 1e-10

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) for v in (self.initial_points,
                                                              self.max_points)):
            raise ValueError(f"point counts must be integers: {self}")
        if self.initial_points < 8:
            raise ValueError("initial_points must be >= 8")
        if self.max_points < self.initial_points:
            raise ValueError("max_points must be >= initial_points")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


def circle_nodes(contour: CircleContour, m: int):
    """Nodes and weights so that sum(w * f(nodes)) ~ (2*pi*i)^-1 * closed integral.

    Exact on Laurent monomials (xi - center)^n: gives 1 for n = -1 and 0 for
    every other n with n != -1 (mod m).
    """
    if m < 8:
        raise ValueError(f"need at least 8 nodes on a circle, got {m}")
    phase = np.exp(2j * np.pi * np.arange(m) / m)
    nodes = contour.center + contour.radius * phase
    weights = (contour.radius / m) * phase
    return nodes, weights


def line_nodes(grid: LineGrid):
    """Trapezoid nodes/weights so that sum(w * f(nodes)) ~ (2*pi)^-1 * line integral."""
    half = round(grid.cutoff / grid.spacing)
    nodes = grid.spacing * np.arange(-half, half + 1)
    weights = np.full(nodes.size, grid.spacing / (2.0 * np.pi))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return nodes, weights


def circle_half(m: int) -> tuple[slice, np.ndarray]:
    """The self-mirror half of `circle_nodes`' m nodes on a circle about a
    real centre, as (slice of the kept nodes, weight factor per kept node).

    Conjugation maps node j to node m - j, and its weight to that node's, so
    the nodes j = 0 .. m // 2 keep one node of every mirror pair.  The real
    nodes, j = 0 and, for even m, j = m / 2, are their own mirror images and
    keep their weight; every other kept node doubles it.
    """
    factor = np.full(m // 2 + 1, 2.0)
    factor[0] = 1.0
    if m % 2 == 0:
        factor[-1] = 1.0
    return slice(0, factor.size), factor


def line_half(size: int) -> tuple[slice, np.ndarray]:
    """The self-mirror half of the `size` nodes of `line_nodes`, as
    `circle_half` gives it.

    The nodes s * spacing, s = -half .. half, lie on a line Im k = const
    mapped onto itself by k -> -conj(k), which sends s to -s; the nodes
    s >= 0 are kept, and every one but s = 0 doubles its weight.
    """
    half = size // 2
    factor = np.full(half + 1, 2.0)
    factor[0] = 1.0
    return slice(half, None), factor


def _doubling(m: int):
    """The default schedule: m, 2 m, 4 m, ..."""
    while True:
        yield m
        m *= 2


def adaptive_trace(level_eval, opts: QuadOptions | None = None, *, resolutions=None):
    """Estimates [(m, value), ...] at the resolutions of the schedule, sorted
    by m with the finest last, until the two finest agree.

    `resolutions` is read in order until one exceeds opts.max_points; by
    default it doubles from opts.initial_points.  It need not increase: the
    line grids list their first level, then a coarser check, then finer
    ones (`bose_exact._line_levels`).  After each level the two finest so
    far are compared, and refinement stops once they differ by less than
    opts.tol.  A rounding-floor plateau is also accepted: spectral
    refinement shrinks the successive differences at least geometrically,
    so two differences of the three finest levels that are small (below
    100*tol) and have stopped shrinking indicate the cancellation floor of
    double precision, not an unresolved integrand; the plateau size is then
    the honest error estimate.  "Stopped shrinking" means the finer
    difference kept more than 0.3 of the coarser per doubling of m: a step
    from m_a to m_b allows 0.3**((m_b - m_a)/m_a), since an error
    exp(-a*m) shrinks by exp(-a*(m_b - m_a)).  A resolution listed twice
    raises ValueError.  Raises ConvergenceError (carrying the two finest
    estimates, None where there are fewer) if the schedule ends or passes
    the resolution cap first; a first resolution above the cap raises it
    before any level runs, and a level that is not finite raises it at once,
    carrying the finest level before it (or None) and that level: the nodes
    keep their magnitudes as m grows, so a level that overflows at one
    resolution overflows at all.
    """
    opts = opts or QuadOptions()
    trace: list[tuple[int, complex]] = []
    for m in _doubling(opts.initial_points) if resolutions is None else resolutions:
        if m > opts.max_points:
            if not trace:
                raise ConvergenceError(f"the first resolution {m} exceeds "
                                       f"max_points={opts.max_points}",
                                       estimates=(None, None))
            break
        if any(m == seen for seen, _ in trace):
            raise ValueError(f"resolution {m} is listed twice")
        value = complex(level_eval(m))
        if not cmath.isfinite(value):
            raise ConvergenceError(f"the level at m={m} is {value}, not finite: the "
                                   f"integrand overflows on the contour, and no finer "
                                   f"level can change that",
                                   estimates=(trace[-1][1] if trace else None, value))
        trace.append((m, value))
        trace.sort(key=lambda level: level[0])
        if len(trace) >= 2:
            diff = abs(trace[-1][1] - trace[-2][1])
            if diff < opts.tol:
                return trace
            if len(trace) >= 3:
                prev = abs(trace[-2][1] - trace[-3][1])
                m_a, m_b = trace[-3][0], trace[-2][0]
                if diff < 100.0 * opts.tol and prev < 100.0 * opts.tol \
                        and diff > 0.3 ** ((m_b - m_a) / m_a) * prev:
                    return trace
    last = trace[-1][1] if trace else None
    prev = trace[-2][1] if len(trace) >= 2 else None
    raise ConvergenceError(
        f"no convergence at max_points={opts.max_points}: "
        f"finest estimates {prev} -> {last}",
        estimates=(prev, last),
    )


def adaptive_eval(level_eval, opts: QuadOptions | None = None, *, resolutions=None):
    """Refine a quadrature level function until two levels agree within tol.

    `level_eval(m)` is the estimate at per-dimension resolution m, and
    `resolutions` the schedule (`adaptive_trace`).  Returns (value,
    error_estimate, m) of the finest level; the error estimate is its
    difference from the next finest (no extrapolation, by design).
    """
    trace = adaptive_trace(level_eval, opts, resolutions=resolutions)
    (m, value), (_, prev) = trace[-1], trace[-2]
    return value, abs(value - prev), m
