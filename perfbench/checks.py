"""The checks the benchmark applies to every output, and the references it
computes for them without the evaluators it checks.

Every check is an interval: a value passes when it lies in
[lo - tol, hi + tol].  A reference value has lo == hi; a bracket or a
one-sided bound has lo < hi.  The Bose references (heat-kernel images,
permanent, determinant) are computed here from their closed forms and share
no code with ``bose_exact``; the exclusion-process references come from the
CTMC oracle, which shares no code with ``asep_exact``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

#: the number of binomial standard errors a Monte Carlo estimate may miss by
MC_SIGMAS = 5.0


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    lo: float
    hi: float
    tol: float
    #: entry of an array output whose change moves `value` one for one
    index: int | None = None

    @property
    def ok(self) -> bool:
        # written so that a NaN value fails
        return self.lo - self.tol <= self.value <= self.hi + self.tol

    @property
    def error(self) -> float:
        """Distance from the reference or bracket (0 inside it)."""
        return max(self.lo - self.value, self.value - self.hi, 0.0)


def against(name: str, value: float, ref: float, tol: float,
            index: int | None = None) -> Check:
    return Check(name, float(value), float(ref), float(ref), float(tol), index)


# ---------------------------------------------------------------------------
# independent Bose references
# ---------------------------------------------------------------------------

def heat_kernel(z: float, tau: float) -> float:
    """Free heat kernel exp(-z^2 / 4 tau) / sqrt(4 pi tau) of d/dtau = d^2/dx^2."""
    return math.exp(-z * z / (4.0 * tau)) / math.sqrt(4.0 * math.pi * tau)


def images_matrix(xs, ys, tau: float) -> np.ndarray:
    """Hard-wall kernel g(x_i - y_j) - g(x_i + y_j) by the method of images."""
    return np.array([[heat_kernel(x - y, tau) - heat_kernel(x + y, tau)
                      for y in ys] for x in xs])


def permanent(mat: np.ndarray) -> float:
    n = mat.shape[0]
    return float(sum(math.prod(mat[i, perm[i]] for i in range(n))
                     for perm in itertools.permutations(range(n))))


def bose_bounds(xs, ys, tau: float) -> tuple[float, float]:
    """(det, perm) of the images kernel: the impenetrable (c = inf) and free
    (c = 0) propagators, which bracket every 0 < c < inf."""
    mat = images_matrix(xs, ys, tau)
    return float(np.linalg.det(mat)), permanent(mat)


def mc_tolerance(prob: float, trials: int) -> float:
    """MC_SIGMAS binomial standard errors of a hit frequency with mean prob."""
    return MC_SIGMAS * math.sqrt(prob * (1.0 - prob) / trials)
