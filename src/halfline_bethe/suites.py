"""Named numerical-identity and invariant suites.

Each check exercises one algebraic identity or evaluator invariant over
seeded random draws and reports the worst residual against its tolerance.
The CLI `validate-*` commands run these suites and exit 0 only if every
check passes; the acceptance tests reuse the identity suite directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bose_exact, oracles
from ._kernels import MAX_N
from .asep_exact import (evaluate_extended, master_equation_residual,
                         prob_fullline, prob_halfline, prob_n1_closed, total_mass,
                         tuned_radii, unfolded_imag_residual)
from .bose_exact import (DampedTime, fermion_limit_cinf, free_limit_c0,
                         images_kernel, propagator_fullline, propagator_halfline,
                         wall_residual)
from .contour_quad import QuadOptions
from .scattering import (AsepParams, BoseParams, amplitude_asep, amplitude_bose,
                         s_bose, s_asep, s_product, xi_signed, k_signed)
from .signed_perm import (SignedPermutation, ab_pair, apply_adjacent_transposition,
                          enumerate_bn, group_order, negate_first)

DEFAULT_SEED = 20120517


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status}  {self.name}: worst={self.worst:.3e} tol={self.tol:.1e}"
        return out + (f"  [{self.detail}]" if self.detail else "")


@dataclass
class SuiteReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, worst, tol, detail=""):
        self.checks.append(CheckResult(name, bool(worst < tol), float(worst),
                                       float(tol), detail))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# random draws avoiding every pole by a fixed margin
# ---------------------------------------------------------------------------

def draw_bose_vars(rng, n: int, draws: int) -> np.ndarray:
    """Real spectral variables; the Bose scattering factor has no real poles."""
    return rng.uniform(-3.0, 3.0, size=(draws, n)) + 0j


def _asep_draw_ok(xi: np.ndarray, params: AsepParams, margin: float) -> np.ndarray:
    """Rows whose every scattering/wall denominator clears the margin."""
    p, q, tau = params.p, params.q, params.tau
    n = xi.shape[1]
    ok = np.all(np.abs(xi) > 0.3, axis=1)
    ok &= np.all(np.abs(1.0 - xi) > margin, axis=1)
    ok &= np.all(np.abs(1.0 - tau / xi) > margin, axis=1)
    signed = {a: xi[:, a - 1] for a in range(1, n + 1)}
    signed.update({-a: tau / xi[:, a - 1] for a in range(1, n + 1)})
    for a, va in signed.items():
        for b, vb in signed.items():
            if abs(a) == abs(b):
                continue
            ok &= np.abs(p + q * va * vb - vb) > margin
    return ok


def draw_asep_vars(rng, n: int, draws: int, params: AsepParams,
                   margin: float = 0.05, equalize: tuple[int, int] | None = None
                   ) -> np.ndarray:
    """Complex spectral variables from an annulus, redrawn until every
    denominator used by the identities clears the margin.

    With equalize=(a, b) the b-th variable is set equal to the a-th before
    the margin check (the coincidence slice used by the cancellation tables).
    """
    out = np.empty((draws, n), dtype=complex)
    need = np.ones(draws, dtype=bool)
    for _ in range(200):
        count = int(need.sum())
        if count == 0:
            return out
        radius = rng.uniform(0.7, 2.2, size=(count, n))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=(count, n))
        cand = radius * np.exp(1j * angle)
        if equalize is not None:
            a, b = equalize
            cand[:, b - 1] = cand[:, a - 1]
        good = _asep_draw_ok(cand, params, margin)
        idx = np.flatnonzero(need)[np.flatnonzero(good)]
        out[idx] = cand[good]
        need[idx] = False
    raise RuntimeError("pole-avoiding draw did not fill; margin too tight")


# ---------------------------------------------------------------------------
# identity suite (scattering-level algebra)
# ---------------------------------------------------------------------------

#: bytes of amplitudes the identity suite may hold: two tables of |B_n_max|
#: complex values per draw.  N = 4 at the default 200 draws needs 2.5 MB.
MAX_IDENTITY_BYTES = 2 ** 28


def run_identity_suite(n_max: int = 4, draws: int = 200,
                       seed: int = DEFAULT_SEED, p: float = 0.4,
                       c: float = 1.0) -> SuiteReport:
    """All scattering identities over every signed permutation up to n_max.

    n_max runs to MAX_N, as the evaluators do (N = 5 took 40 s), and the
    amplitude tables of n_max must fit in MAX_IDENTITY_BYTES; a larger
    request raises ValueError before any work."""
    if not 1 <= n_max <= MAX_N:
        raise ValueError(f"n_max must lie in 1..{MAX_N}, got {n_max}")
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    need = 2 * draws * group_order(n_max, True) * 16
    if need > MAX_IDENTITY_BYTES:
        raise ValueError(f"{draws} draws at N = {n_max} need {need / 2**20:.0f} MiB of "
                         f"amplitudes, over the {MAX_IDENTITY_BYTES // 2**20} MiB cap")
    rng = np.random.default_rng(seed)
    asep = AsepParams.from_p(p)
    bose = BoseParams(c)
    rep = SuiteReport()

    worst_as1 = worst_as2 = worst_flip = worst_wall = 0.0
    worst_cancel = 0.0
    for n in range(1, n_max + 1):
        sigmas = enumerate_bn(n)
        kv = draw_bose_vars(rng, n, draws)
        xv = draw_asep_vars(rng, n, draws, asep)
        amps_b = {s.values: np.asarray(amplitude_bose(s, kv, bose)) for s in sigmas}
        amps_a = {s.values: np.asarray(amplitude_asep(s, xv, asep)) for s in sigmas}

        for sigma in sigmas:
            ab = amps_b[sigma.values]
            aa = amps_a[sigma.values]
            # adjacent-transposition ratios against the scattering factor
            for i in range(1, n):
                tsig = apply_adjacent_transposition(sigma, i).values
                sb = s_bose(k_signed(sigma.values[i], kv)
                            - k_signed(sigma.values[i - 1], kv), bose)
                worst_as1 = max(worst_as1, float(np.max(np.abs(
                    amps_b[tsig] / ab - sb))))
                sa = s_asep(xi_signed(sigma.values[i], xv, asep),
                            xi_signed(sigma.values[i - 1], xv, asep), asep)
                worst_as2 = max(worst_as2, float(np.max(np.abs(
                    amps_a[tsig] / aa - sa))))
            # reflection pairing of the first entry
            prim = negate_first(sigma).values
            flip = np.abs(amps_b[prim] + ab) / np.maximum(np.abs(ab), 1e-300)
            worst_flip = max(worst_flip, float(np.max(flip)))
            den_s = 1.0 - xi_signed(sigma.values[0], xv, asep)
            den_p = 1.0 - xi_signed(-sigma.values[0], xv, asep)
            wall = amps_a[prim] / den_p + aa / den_s
            scale = np.maximum(np.abs(aa / den_s), 1e-300)
            worst_wall = max(worst_wall, float(np.max(np.abs(wall) / scale)))

        # coincidence-slice cancellation for magnitude-swapped partners
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                xeq = draw_asep_vars(rng, n, draws, asep, equalize=(a, b))
                for sigma in sigmas:
                    pos = {abs(v): i for i, v in enumerate(sigma.values)}
                    if pos[a] > pos[b]:
                        continue
                    partner = ab_pair(sigma, a, b)
                    s1 = np.asarray(s_product(sigma, xeq, asep))
                    s2 = np.asarray(s_product(partner, xeq, asep))
                    scale = np.maximum(np.abs(s1), 1.0)
                    worst_cancel = max(worst_cancel, float(np.max(
                        np.abs(s1 + s2) / scale)))
                    a1 = np.asarray(amplitude_asep(sigma, xeq, asep))
                    a2 = np.asarray(amplitude_asep(partner, xeq, asep))
                    scale = np.maximum(np.abs(a1), 1.0)
                    worst_cancel = max(worst_cancel, float(np.max(
                        np.abs(a1 + a2) / scale)))

    rep.add("ratio-relation-bose", worst_as1, 1e-10,
            f"N<={n_max}, {draws} draws")
    rep.add("ratio-relation-asep", worst_as2, 1e-10,
            f"N<={n_max}, {draws} draws")
    rep.add("signflip-pairing-bose", worst_flip, 1e-12, "relative")
    rep.add("wall-pairing-asep", worst_wall, 1e-10, "relative")
    rep.add("ab-pair-cancellation", worst_cancel, 1e-10,
            "coincidence slice, all sign cases")

    # scattering factor analytic below the real axis
    grid_r = np.linspace(-6.0, 6.0, 41)
    grid_i = np.linspace(-6.0, -0.05, 25)
    kk = grid_r[:, None] + 1j * grid_i[None, :]
    vals = s_bose(kk, bose)
    worst = 0.0 if np.all(np.isfinite(vals)) else math.inf
    rep.add("lower-halfplane-analytic", worst, 1.0, "no singularities hit")
    return rep


# ---------------------------------------------------------------------------
# exclusion-process evaluator suite
# ---------------------------------------------------------------------------

def run_asep_suite(p: float = 0.4) -> SuiteReport:
    params = AsepParams.from_p(p)
    rep = SuiteReport()

    worst = max(abs(prob_halfline((0, 2), (0, 2), 0.0, params).value - 1.0),
                abs(prob_halfline((0, 2), (1, 3), 0.0, params).value),
                abs(prob_n1_closed(3, 3, 0.0, params).value - 1.0))
    rep.add("delta-initial-condition", worst, 1e-8)

    worst = 0.0
    for t in (0.25, 1.0):
        for y in (0, 2):
            for x in (0, 1, 4):
                a = prob_n1_closed(y, x, t, params).value
                b = prob_halfline((y,), (x,), t, params).value
                cref = oracles.ctmc_prob((y,), (x,), t, params)
                worst = max(worst, abs(a - b) * 1e2, abs(a - cref), abs(b - cref))
    rep.add("n1-closed-vs-sum-vs-ctmc", worst, 1e-8)

    worst_d = worst_imag = 0.0
    most_neg = 0.0
    t = 0.5
    states, dist = oracles.ctmc_distribution(
        (0, 2), t, params, oracles.LatticeWindow(0, 14), halfline=True)
    for st, mass in zip(states, dist):
        if mass <= 1e-9:
            continue
        r = prob_halfline((0, 2), st, t, params)
        worst_d = max(worst_d, abs(r.value - mass))
        # the folded sum reports 0.0; its unfolded last level measures the
        # conjugate symmetry that the fold relies on
        worst_imag = max(worst_imag,
                         unfolded_imag_residual((0, 2), st, t, params, r.points_used))
        most_neg = min(most_neg, r.value)
    rep.add("n2-oracle-equivalence", worst_d, 1e-6, "t=0.5, Y=(0,2)")
    rep.add("realness", worst_imag, 1e-8)
    rep.add("nonnegativity", -most_neg, 1e-8)

    worst = max(abs(total_mass((0,), 1.0, params, 30) - 1.0),
                abs(total_mass((0, 2), 0.5, params, 16) - 1.0))
    rep.add("normalization", worst, 1e-6)

    base = tuned_radii(params, 2)
    ref = prob_halfline((0, 2), (1, 3), 1.0, params).value
    worst = max(
        abs(prob_halfline((0, 2), (1, 3), 1.0, params, radii=base.scaled(1.1)).value - ref),
        abs(prob_halfline((0, 2), (1, 3), 1.0, params, radii=base.gaps_doubled()).value - ref),
    )
    rep.add("contour-invariance", worst, 1e-8)

    u_xx = evaluate_extended((0, 2), (3, 3), 0.7, params)
    u_x1 = evaluate_extended((0, 2), (4, 4), 0.7, params)
    u_mix = evaluate_extended((0, 2), (3, 4), 0.7, params)
    bc2 = abs(params.p * u_xx + params.q * u_x1 - u_mix)
    bc4 = abs(evaluate_extended((0, 2), (0, 5), 0.7, params)
              - params.tau * evaluate_extended((0, 2), (-1, 5), 0.7, params))
    rep.add("boundary-residuals", max(bc2, bc4), 1e-8)

    worst = max(master_equation_residual((0,), (0,), 1.0, params),
                master_equation_residual((0, 2), (3, 4), 1.0, params),
                master_equation_residual((0, 2), (1, 4), 1.0, params))
    rep.add("master-equation-residual", worst, 1e-8)

    worst = 0.0
    for (y, x) in (((0,), (2,)), ((0, 2), (1, 3))):
        ex = prob_fullline(y, x, 1.0, params).value
        cref = oracles.ctmc_prob(y, x, 1.0, params, halfline=False)
        worst = max(worst, abs(ex - cref))
    rep.add("fullline-oracle-equivalence", worst, 1e-6)
    return rep


# ---------------------------------------------------------------------------
# Bose evaluator suite
# ---------------------------------------------------------------------------

def run_bose_suite(c: float = 1.0) -> SuiteReport:
    rep = SuiteReport()
    params = BoseParams(c)

    worst = 0.0
    for tau in (0.1, 0.5, 2.0):
        t = DampedTime.imaginary(tau)
        for (y, x) in ((1.0, 2.0), (0.4, 3.6), (3.0, 0.8)):
            r = propagator_halfline((y,), (x,), t, params)
            worst = max(worst, abs(r.value - images_kernel(x, y, tau)))
    rep.add("n1-method-of-images", worst, 1e-10)

    t = DampedTime.imaginary(0.5)
    r = propagator_fullline((1.0,), (2.3,), t, params)
    g = math.exp(-1.3 ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    rep.add("fullline-heat-kernel", abs(r.value - g), 1e-10)

    y2, x2 = (0.7, 1.9), (0.0, 1.5)
    scale = abs(propagator_halfline(y2, (0.4, 1.5), t, params).value)
    worst = abs(wall_residual(y2, x2, t, params)) / scale
    y3, x3 = (0.5, 1.4, 2.6), (0.0, 1.2, 2.3)
    scale3 = abs(propagator_halfline(y3, (0.5, 1.2, 2.3), t, params).value)
    worst = max(worst, abs(wall_residual(y3, x3, t, params)) / scale3)
    rep.add("wall-vanishing", worst, 1e-9, "relative, N=2,3")

    worst = 0.0
    for cc in (0.5, 1.0, 4.0):
        res = bose_exact.bc1_residual(y2, (1.3, 1.3), 1, t, BoseParams(cc))
        scale = abs(propagator_halfline(y2, (1.3, 1.3 + 1e-9), t, BoseParams(cc)).value)
        worst = max(worst, abs(res) / scale)
    rep.add("boundary-matching", worst, 1e-8, "relative, N=2")

    worst = 0.0
    for (y, x) in (((0.7, 1.9), (1.2, 2.8)), ((0.5, 1.4, 2.6), (0.8, 1.9, 3.1))):
        pv = propagator_halfline(y, x, t, BoseParams(0.0)).value
        worst = max(worst, abs(pv - free_limit_c0(y, x, 0.5)))
    rep.add("free-limit", worst, 1e-10, "c=0 closed form, N=2,3")

    errs = []
    for cc in (1e2, 1e3, 1e4):
        pv = propagator_halfline(y2, (1.2, 2.8), t, BoseParams(cc)).value
        errs.append(abs(pv - fermion_limit_cinf(y2, (1.2, 2.8), 0.5)))
    decaying = all(b < 0.2 * a for a, b in zip(errs, errs[1:]))
    rep.add("fermion-limit-sweep", 0.0 if decaying else math.inf, 1.0,
            f"errors {errs[0]:.1e} -> {errs[1]:.1e} -> {errs[2]:.1e}")

    ref = propagator_halfline(y2, (1.2, 2.8), t, params)
    fine = propagator_halfline(y2, (1.2, 2.8), t, params,
                               QuadOptions(initial_points=2 * ref.points_used,
                                           max_points=8 * ref.points_used,
                                           tol=1e-10))
    rep.add("grid-robustness", abs(ref.value - fine.value), 1e-9,
            "spacing halved")

    # short-time concentration against a compactly supported test function;
    # the width keeps the physical tau*phi''(y) correction well below tol
    tau = 1e-4
    yc = 2.0
    xs = np.linspace(yc - 0.2, yc + 0.2, 201)

    def bump(u):
        v = (u - yc) / 1.5
        out = np.zeros_like(u)
        inside = np.abs(v) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - v[inside] ** 2))
        return out

    vals = np.array([propagator_halfline((yc,), (xx,),
                                          DampedTime.imaginary(tau), params).value.real
                     for xx in xs])
    integral = np.trapezoid(vals * bump(xs), xs)
    rep.add("short-time-concentration", abs(integral - bump(np.array([yc]))[0]),
            1e-4, f"tau={tau}")
    return rep
