"""Scattering factors, energies, reflected variables, and boundary amplitudes.

Spectral variables are plain complex arrays of shape (..., N): k_1..k_N for
the delta-interacting Bose gas, xi_1..xi_N for the asymmetric exclusion
process.  Leading axes broadcast, so identity suites can evaluate hundreds of
random draws in one call.  A negative index a addresses the reflected
variable: k_{-a} = -k_a and xi_{-a} = tau/xi_a with tau = p/q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .signed_perm import SignedPermutation, inversions, neg_count

#: denominators below this magnitude raise SingularityError
DENOM_FLOOR = 1e-300


@dataclass(frozen=True)
class BoseParams:
    """Repulsive contact-interaction strength; c = 0 and very large c are
    allowed for limit tests."""

    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        if not np.isfinite(self.c) or self.c < 0:
            raise ValueError(f"coupling must be finite and >= 0, got {self.c}")


@dataclass(frozen=True)
class AsepParams:
    """Hop probabilities of the exclusion process: right p, left q = 1 - p.

    p is the one field and q a property, so p = 1 (q = 0) raises.  p = 0
    constructs (the jump-chain oracles simulate it), but the exact formulas
    need p != 0: the reflection xi -> tau/xi degenerates at tau = 0.  A p
    outside [0, 1] constructs too, but the evaluators and the oracles reject
    it: one of its hop rates is negative.
    """

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        if not np.isfinite(self.p):
            raise ValueError(f"p must be finite, got {self.p}")
        if self.p == 1.0:
            raise ValueError("p = 1 leaves q = 1 - p zero")

    @classmethod
    def from_p(cls, p: float) -> "AsepParams":
        return cls(p)

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def tau(self) -> float:
        return self.p / self.q

    def require_formula_ok(self):
        """The exact formulas need 0 < p < 1: at p = 0 tau degenerates (the
        oracles simulate p = 0), and outside [0, 1] one hop rate is negative."""
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"the exact formulas need 0 < p < 1, got p = {self.p}")


def integer_sites(values) -> tuple[int, ...]:
    """Lattice sites of the exclusion process as ints; a value that is not an
    integer (2.7, nan, inf) raises ValueError instead of being truncated."""
    values = tuple(values)
    bad = [v for v in values if not float(v).is_integer()]
    if bad:
        raise ValueError(f"sites must be integers, got {bad[0]!r}")
    return tuple(int(v) for v in values)


def lattice_sites(config, halfline: bool) -> tuple[int, ...]:
    """The one rule for an exclusion-process configuration, which evaluators
    and oracles share: integer sites (`integer_sites`), at least one, strictly
    increasing and, on the half-line, none below 0; ValueError names the rule."""
    sites = integer_sites(config)
    if not sites:
        raise ValueError("need at least one particle")
    if any(b <= a for a, b in zip(sites, sites[1:])):
        raise ValueError(f"sites must strictly increase: {sites}")
    if halfline and sites[0] < 0:
        raise ValueError(f"half-line sites must be >= 0 (the wall is at 0): {sites}")
    return sites


def require_time(t: float):
    """The exclusion process's time: a nan or infinite t would run every
    evaluator and oracle to its limit, or forever."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")


def _check_index(a: int, n: int):
    if a == 0:
        raise ValueError("variable index 0 is not allowed")
    if abs(a) > n:
        raise ValueError(f"variable index {a} out of range for N={n}")


def k_signed(a: int, kvals) -> np.ndarray | complex:
    """k_a for a > 0, -k_{-a} for a < 0."""
    kvals = np.asarray(kvals, dtype=complex)
    _check_index(a, kvals.shape[-1])
    out = kvals[..., abs(a) - 1] if a > 0 else -kvals[..., -a - 1]
    return complex(out) if out.ndim == 0 else out


def xi_signed(a: int, xivals, params: AsepParams) -> np.ndarray | complex:
    """xi_a for a > 0, tau/xi_{-a} for a < 0."""
    xivals = np.asarray(xivals, dtype=complex)
    _check_index(a, xivals.shape[-1])
    base = xivals[..., abs(a) - 1]
    if a < 0:
        if np.any(np.abs(base) < DENOM_FLOOR):
            raise SingularityError(f"xi_{-a} is zero; cannot reflect index {a}")
        base = params.tau / base
    return complex(base) if base.ndim == 0 else base


def s_bose(k, params: BoseParams) -> np.ndarray | complex:
    """Two-particle factor -(c - ik)/(c + ik); unimodular for real k.

    Computed as (k + ic)/(k - ic), numerator and denominator times -i, for
    which numpy's complex division returns the quotient above bit for bit,
    but for the sign of a zero part where |Re(k - ic)| = |Im(k - ic)|.  The
    pole guard takes |k - ic| only where |Re(k - ic)| is below the floor,
    as it is wherever |k - ic| is."""
    k = np.asarray(k, dtype=complex)
    ic = 1j * params.c
    den = k - ic
    near = np.abs(den.real) < DENOM_FLOOR
    if near.any() and np.any(np.abs(den[near]) < DENOM_FLOOR):
        raise SingularityError(f"s_bose pole: |c + ik| < {DENOM_FLOOR}")
    out = k + ic
    out /= den
    return complex(out) if out.ndim == 0 else out


def s_asep(x, y, params: AsepParams) -> np.ndarray | complex:
    """Two-particle factor -(p + q*x*y - x)/(p + q*x*y - y)."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    common = params.p + params.q * x * y
    den = common - y
    if np.any(np.abs(den) < DENOM_FLOOR):
        raise SingularityError(f"s_asep pole: |p + q*x*y - y| < {DENOM_FLOOR}")
    out = -(common - x) / den
    return complex(out) if out.ndim == 0 else out


def eps_asep(x, params: AsepParams) -> np.ndarray | complex:
    """Jump-rate symbol p/xi + q*xi - 1; invariant under xi -> tau/xi."""
    x = np.asarray(x, dtype=complex)
    if np.any(np.abs(x) < DENOM_FLOOR):
        raise SingularityError("eps_asep requires xi != 0")
    out = params.p / x + params.q * x - 1.0
    return complex(out) if out.ndim == 0 else out


def r_factor(x, params: AsepParams) -> np.ndarray | complex:
    """Wall amplitude -(1 - xi)/(1 - tau/xi), attached to reflected entries."""
    x = np.asarray(x, dtype=complex)
    if np.any(np.abs(x) < DENOM_FLOOR):
        raise SingularityError("r_factor requires xi != 0")
    den = 1.0 - params.tau / x
    if np.any(np.abs(den) < DENOM_FLOOR):
        raise SingularityError("r_factor pole at xi = tau")
    out = -(1.0 - x) / den
    return complex(out) if out.ndim == 0 else out


def s_product(sigma: SignedPermutation, vars, params) -> np.ndarray | complex:
    """Product of scattering factors over the inversions of sigma.

    Bose: prod S(k_a - k_b); exclusion process: prod S(xi_a, xi_b), with
    negative indices resolved through the reflection substitutions.
    """
    vars = np.asarray(vars, dtype=complex)
    if vars.shape[-1] != sigma.n:
        raise ValueError(f"vars last axis {vars.shape[-1]} != N={sigma.n}")
    bose = isinstance(params, BoseParams)
    out = np.ones(vars.shape[:-1], dtype=complex)
    for inv in inversions(sigma):
        try:
            if bose:
                f = s_bose(k_signed(inv.first, vars) - k_signed(inv.second, vars), params)
            else:
                f = s_asep(
                    xi_signed(inv.first, vars, params),
                    xi_signed(inv.second, vars, params),
                    params,
                )
        except SingularityError as exc:
            raise SingularityError(f"inversion {tuple(inv)}: {exc}") from exc
        out = out * f
    return complex(out) if out.ndim == 0 else out


def amplitude_bose(sigma: SignedPermutation, kvals, params: BoseParams):
    """(-1)^(#negative entries) times the scattering product."""
    return (-1.0) ** neg_count(sigma) * s_product(sigma, kvals, params)


def amplitude_asep(sigma: SignedPermutation, xivals, params: AsepParams):
    """Wall factors r(xi_{sigma(i)}) over negative entries times the
    scattering product."""
    params.require_formula_ok()
    xivals = np.asarray(xivals, dtype=complex)
    out = s_product(sigma, xivals, params)
    for v in sigma.values:
        if v < 0:
            out = out * r_factor(xi_signed(v, xivals, params), params)
    return complex(out) if np.ndim(out) == 0 else out
