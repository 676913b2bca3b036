"""Exact transition probabilities of the asymmetric exclusion process.

The half-line probability is a sum over signed permutations of tensor contour
integrals over one product contour: xi_d runs on the circle of radius R_d
about the center 1/(2q), with R_1 < ... < R_N.  Nested distinct radii enclose
the same poles, so every assignment of radii to variables gives the same
value.  The full-line probability is the ordinary permutation sum over a
single large circle about zero.  `evaluate_extended` takes negative and
unordered tuples X, as the boundary-condition checks need; the
master-equation residual shifts X on one level's tables instead.

Every per-term integrand factorizes into per-dimension vectors coupled by
two-variable scattering matrices, so each term reduces to the tensor
contraction in `_kernels`, refined by `_kernels.evaluate` except in
`prob_n1_closed`.  The contour tables depend only on p, the contours and the
resolution, so a bounded cache shares them between calls (`_contour_tables`).
On circles about a real centre every level is folded: one variable runs
over the upper half of its circle and the level keeps its real part
(`_circle_contour`).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# contract is bound here as well because perfbench/tracing.py patches it here
from ._kernels import (ContourTables, contract, evaluate, pair_matrices,  # noqa: F401
                       term_sum)
from .contour_quad import (CircleContour, QuadOptions, RadiiScheme,
                           adaptive_eval, circle_half, circle_nodes)
from .errors import ConvergenceError
from .scattering import (AsepParams, eps_asep, integer_sites, lattice_sites,
                         r_factor, require_time, s_asep)
from .signed_perm import group_order


@dataclass(frozen=True)
class AsepEvalReport:
    """A transition probability and how it was computed.

    `imag_residual` is |Im| of the refined sum, which is real in exact
    arithmetic.  It is 0.0 by construction on circles about a real centre
    (the tuned radii and the full line): those levels are folded and keep
    only their real part (`_kernels.ContourTables`).  With a complex centre
    it is the rounding the quadrature leaves; `unfolded_imag_residual` reads
    it for a real centre."""

    value: float
    imag_residual: float
    error_estimate: float
    points_used: int
    term_count: int


#: `tuned_radii`: R_d = RADIUS_RATIO^(d-1) R_1, every pole within POLE_SAFETY R_1
RADIUS_RATIO = 1.3
POLE_SAFETY = 0.75


def _fixed_reach(center: complex, tau: float) -> float:
    """Distance from the center to the farthest fixed pole 0, 1 or tau."""
    return max(abs(center), abs(1.0 - center), abs(tau - center))


def _image_reach(params: AsepParams, r: float) -> float:
    """Farthest distance from c = 1/(2q) of the images of |xi - c| = r under
    the scattering-pole maps xi -> p/(1 - q xi) and xi -> p xi/(xi - p): real
    Moebius maps, so each image is a circle about the real axis, farthest
    from c at the image of c - r or c + r.  For 0 < p < 1 that is
    c + p/(qr - 1/2) or (c - p) + p^2/(r - c + p); both fall as r grows."""
    p, q = params.p, params.q
    center = 1.0 / (2.0 * q)
    return max(abs(img - center) for xi in (center - r, center + r)
               for img in (p / (1.0 - q * xi), p * xi / (xi - p)))


def tuned_radii(params: AsepParams, n: int) -> RadiiScheme:
    """Accuracy-tuned contour scheme used by the evaluators.

    The fixed poles (0, 1, tau) and the pole images of the scattering
    denominators (`_image_reach`) lie within POLE_SAFETY of the smallest
    circle, and the radii grow by RADIUS_RATIO so the mirrored singularities
    never touch a contour.  R_1 is the first radius on the ladder 1.3, 1.3 *
    1.12, 1.3 * 1.12^2, ... times the farthest fixed pole that meets this:
    small radii keep the dynamic range of exp(eps(xi) t) low, which is what
    limits the absolute accuracy in double precision at larger times.  p is
    checked on every call; the ladder runs once per (p, n) (`_tuned_radii`).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    params.require_formula_ok()
    return _tuned_radii(params.p, n)


@lru_cache(maxsize=1024)
def _tuned_radii(p: float, n: int) -> RadiiScheme:
    """`tuned_radii` of a checked p, keyed on plain values."""
    params = AsepParams(p)
    center = 1.0 / (2.0 * params.q)
    fixed = _fixed_reach(center, params.tau)
    base = 1.3 * fixed
    for _ in range(80):
        if max(fixed, _image_reach(params, base)) <= POLE_SAFETY * base:
            return RadiiScheme(center, tuple(base * RADIUS_RATIO ** a for a in range(n)))
        base *= 1.12
    raise RuntimeError(f"could not tune contour radii for {params}")


#: bytes of contour tables kept between calls (`_contour_tables`).  The
#: whole distributions of N <= 3 at tol 1e-10 need about 6 MiB; at m = 4096
#: one S-matrix alone takes 256 MiB, so such a level is never kept.
MAX_CACHED_BYTES = 32 * 2**20


def _circle_contour(params: AsepParams, contours, m: int, halfline: bool,
                    fold: bool = False) -> ContourTables:
    """The contour tables of one level, variable d on contours[d]; every array
    is read-only, as `_contour_tables` shares them between calls.
    Dimensions on one contour (the full line) share arrays and matrices:
    `_kernels.pair_matrices` builds s_asep once per kind, the (sign,
    contour) of each variable of a pair, on xi or tau/xi of those contours.

    `fold` folds the level (`ContourTables`, `circle_half`), which needs
    circles about a real centre: every factor has real coefficients and
    conjugation maps each such circle onto itself, so the terms at mirror
    grid points are complex conjugates.  A complex centre raises ValueError.
    """
    if fold and contours[0].center.imag != 0.0:
        raise ValueError(f"only circles about a real centre fold, not {contours[0].center}")
    columns = {}
    for contour in dict.fromkeys(contours):  # the distinct contours, in order
        xi, w = circle_nodes(contour, m)
        arrays = [xi, w / xi, eps_asep(xi, params)]
        if halfline:
            arrays.append(params.tau / xi)
            arrays.append(r_factor(arrays[-1], params))
        for a in arrays:
            a.flags.writeable = False
        columns[contour] = arrays
    pos, weights, energies, *reflected = zip(*(columns[c] for c in contours))
    neg, amplitudes = reflected or (None, ())
    half = circle_half(m) if fold else None

    def kind(a, b):  # the (sign, contour) of each variable
        return tuple((v > 0, contours[abs(v) - 1]) for v in (a, b))

    def build(kind, rows):  # xi or tau/xi on each contour
        x, y = (columns[contour][0 if positive else 3] for positive, contour in kind)
        # s_asep is looked up here, so a wrapper of it is seen
        return s_asep((x if rows is None else x[rows])[:, None], y[None, :], params)

    smats = pair_matrices(len(contours), halfline, kind, build, half[0] if fold else None)
    return ContourTables(pos, neg, weights, energies, amplitudes, np.power, smats, half)


_CONTOUR_CACHE: OrderedDict = OrderedDict()


def _contour_tables(p: float, center: complex, radii: tuple, m: int,
                    halfline: bool) -> ContourTables:
    """The contour tables of one level at hop probability p, variable d on
    the circle of radius radii[d] about center, from a least-recently-used
    cache of at most MAX_CACHED_BYTES; tables larger than that serve one
    call only.  The cache is keyed on these plain values, which hash and
    compare in C, not on `AsepParams` and `CircleContour` objects.  A real
    centre folds the level (`_circle_contour`)."""
    key = (p, center, radii, m, halfline)
    tables = _CONTOUR_CACHE.pop(key, None)
    if tables is None:
        tables = _circle_contour(AsepParams(p), tuple(CircleContour(center, r) for r in radii),
                                 m, halfline, complex(center).imag == 0.0)
        if tables.nbytes > MAX_CACHED_BYTES:
            return tables
        held = tables.nbytes + sum(t.nbytes for t in _CONTOUR_CACHE.values())
        while held > MAX_CACHED_BYTES:
            held -= _CONTOUR_CACHE.popitem(last=False)[1].nbytes
    _CONTOUR_CACHE[key] = tables
    return tables


def _checked_opts(t: float, params: AsepParams, n: int,
                  opts: QuadOptions | None) -> QuadOptions:
    params.require_formula_ok()
    require_time(t)
    if opts is None and n >= 4:  # the reduced N = 4 budget (`prob_halfline`)
        return QuadOptions(max_points=96, tol=1e-6)
    return opts or QuadOptions()


def _alias_safe(opts: QuadOptions, y, x) -> QuadOptions:
    """`opts` with the half-line refinement starting at the smallest power
    of two above 2 (max|X| + max Y + 1), never below opts.initial_points
    nor above max_points // 2, so a second level always fits.

    The plane waves xi^x and (tau/xi)^x xi^(-y) reach that degree; a
    coarser circle aliases them, and two coarse levels can agree on the
    aliased value: at p = 0.3, t = 0.5, (18,20,22) -> (18,20,22) once
    stopped on levels 32 and 64, both off by 4.8e-8."""
    first = 1 << (2 * (max(abs(v) for v in x) + max(y) + 1)).bit_length()
    return dataclasses.replace(
        opts, initial_points=max(opts.initial_points, min(first, opts.max_points // 2)))


def _require_fixed_poles_inside(center: complex, r_min: float, tau: float):
    """The integrand always has poles at 0, 1 and tau."""
    reach = _fixed_reach(center, tau)
    if r_min <= reach:
        raise ValueError(f"the innermost contour radius {r_min} must exceed {reach}, "
                         f"the distance from its center to the poles 0, 1 and tau")


def _halfline_radii(radii: RadiiScheme | None, params: AsepParams,
                    n: int) -> RadiiScheme:
    """The caller's radii, one per particle, or `tuned_radii` when None."""
    if radii is None:
        return tuned_radii(params, n)
    if radii.n != n:
        raise ValueError(f"need one contour radius per particle: {n} particles, "
                         f"{radii.n} radii")
    _require_fixed_poles_inside(radii.center, radii.radii[0], params.tau)
    return radii


def _halfline_entry(y, x, t: float, params: AsepParams, opts: QuadOptions | None,
                    radii: RadiiScheme | None = None):
    """(options, radii, tables of each resolution) of a half-line sum from Y
    to X: the checked options (`_checked_opts`) started above the plane
    waves' degree (`_alias_safe`), the caller's radii or `tuned_radii`
    (`_halfline_radii`), and the cached contour tables on those circles."""
    opts = _alias_safe(_checked_opts(t, params, len(y), opts), y, x)
    radii = _halfline_radii(radii, params, len(y))
    return opts, radii, lambda m: _contour_tables(params.p, radii.center, radii.radii, m, True)


@lru_cache(maxsize=1024)
def _log_reach(tau: float, center: complex, radii: tuple) -> float:
    """The largest |log| of |xi| and |tau/xi| over the circles of these
    radii about center, bounded by the innermost and the outermost."""
    reach = (radii[0] - abs(center), radii[-1] + abs(center))
    return max(abs(math.log(r)) for r in reach + tuple(tau / r for r in reach))


def _require_finite_waves(params: AsepParams, radii: RadiiScheme, x, m: int):
    """Raise ConvergenceError, as `adaptive_trace` does for a level that is
    not finite, where a plane wave xi^x or (tau/xi)^x at a site x of the
    target overflows on the nodes that the level of resolution m reads: the
    level reads every wave, so it would not be finite, and every finer one
    reaches the same magnitudes.  The nodes are `_circle_contour`'s, the
    last variable's kept half where a real centre folds the level, so no
    table is built to find this out.  Where every |node| and |tau/node|
    keeps the waves below e^700 (`_log_reach`), nothing is computed."""
    if max(map(abs, x)) * _log_reach(params.tau, radii.center, radii.radii) <= 700.0:
        return
    fold = radii.center.imag == 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for d, contour in enumerate(radii.contours()):
            xi = circle_nodes(contour, m)[0]
            if fold and d == radii.n - 1:
                xi = xi[circle_half(m)[0]]
            for nodes, site in itertools.product((xi, params.tau / xi), set(x)):
                if not np.isfinite(np.power(nodes, site)).all():
                    raise ConvergenceError(
                        f"the level at m={m} is not finite: the plane wave at site {site} "
                        f"overflows on the contour, and no finer level can change that",
                        estimates=(None, complex("nan")))


def _report(raw: complex, err: float, m: int, terms: int, opts: QuadOptions) -> AsepEvalReport:
    imag = abs(raw.imag)
    if imag > 100.0 * max(opts.tol, err):
        raise ConvergenceError(
            f"imaginary residual {imag} exceeds 100*tol; quadrature inconsistent",
            estimates=(raw, raw),
        )
    return AsepEvalReport(float(raw.real), imag, err, m, terms)


def _orientation(y, x, radii: RadiiScheme, tau: float):
    """(source, target, prefactor) of the sum `prob_halfline` evaluates: the
    reversed one, X -> Y times tau^delta, where delta * gain > 0."""
    delta = sum(x) - sum(y)
    log_tau = math.log(tau)
    outer = radii.radii[-1] + abs(radii.center)
    inner = radii.radii[0] - abs(radii.center)
    gain = math.log(outer * inner) - log_tau
    if delta * gain > 0 and abs(delta * log_tau) < 600.0:
        return x, y, tau ** delta
    return y, x, 1.0


def prob_halfline(Y, X, t: float, params: AsepParams,
                  opts: QuadOptions | None = None,
                  radii: RadiiScheme | None = None) -> AsepEvalReport:
    """Transition probability Y -> X at time t for the half-line process.

    Both configurations live on the nonnegative integers.  The contour scheme
    defaults to `tuned_radii`; pass `radii` to override (robustness tests
    scale the defaults and check invariance).  The innermost of the caller's
    circles must enclose the poles 0, 1 and tau, or ValueError is raised.

    The process is reversible with respect to tau^(sum of sites), so
    P_Y(X;t) = tau^delta P_X(Y;t) exactly, delta = sum X - sum Y.  The
    double-precision cancellation floor scales with the integrand magnitude,
    whose log is sum X log(R_N + |c|) - sum (Y + 1) log(R_1 - |c|) for the
    direct sum (c the circles' center); the reversed sum's, plus delta log
    tau, is smaller by delta * gain, gain = log((R_N + |c|)(R_1 - |c|)) -
    log tau.  So the evaluator reverses when delta * gain > 0 (and tau^delta
    stays within double range), and at delta = 0 evaluates directly.
    This lowers the cancellation floor of deep-tail probabilities.  The
    refinement starts above the plane waves' degree (`_alias_safe`), so two
    levels cannot agree on an aliased value: at p = 0.5, t = 0.5, (20,) ->
    (20,) is within 1e-15 of the CTMC, where a start at 16 points was off
    by 3.2e-10 with an error estimate of 4.3e-13.

    Without `opts`, N <= 3 asks for `QuadOptions()` and N = 4 for tol 1e-6
    within 96 points.  At tol 1e-10 some N = 4 inputs (p = 0.5, t = 10)
    refine to m = 512, where the K4 outer product, 2m m (m/2 + 1) entries,
    takes 2.0 GiB and the inner tensor 1.0 GiB (`_kernels.contract`); this
    budget refuses them with ConvergenceError until every request is
    bounded (ROADMAP item 8).  A target whose plane waves overflow on the
    first level's nodes is refused before any table is built
    (`_require_finite_waves`).
    """
    y, x = lattice_sites(Y, halfline=True), lattice_sites(X, halfline=True)
    opts, radii, contour_at = _halfline_entry(y, x, t, params, opts, radii)
    src, dst, prefactor = _orientation(y, x, radii, params.tau)
    _require_finite_waves(params, radii, dst, opts.initial_points)

    # the reversed sum is scaled by the prefactor, so its own tolerance is
    # tightened for `tol` to bound the returned value
    value, err, m = evaluate(
        contour_at, src, dst, t,
        dataclasses.replace(opts, tol=opts.tol / prefactor) if prefactor > 1.0 else opts)
    return _report(prefactor * value, prefactor * err, m, group_order(len(y), True), opts)


def unfolded_imag_residual(Y, X, t: float, params: AsepParams, m: int) -> float:
    """|Im| of the level of resolution m that `prob_halfline` sums on its
    tuned circles, in the orientation it picks and times its prefactor, but
    unfolded: over every node of every circle.  The integrand's conjugate
    symmetry makes it pure rounding.  A folded evaluation reports an
    `imag_residual` of 0.0, so the realness diagnostics read this instead."""
    y, x = lattice_sites(Y, halfline=True), lattice_sites(X, halfline=True)
    require_time(t)
    radii = tuned_radii(params, len(y))
    src, dst, prefactor = _orientation(y, x, radii, params.tau)
    tables = _circle_contour(params, radii.contours(), m, True).level(src, dst, t)
    return abs(prefactor * term_sum(tables).imag)


def _saddle_radius(d: int, t: float, params: AsepParams) -> float:
    """The radius r > 0 at which d log r + t (p/r + q r), the log of
    |xi^d e^(t eps(xi))| on the positive axis, is stationary: the root of
    t q r^2 + d r - t p = 0, written to cancel nothing for either sign of d."""
    p, q = params.p, params.q
    root = math.sqrt(d * d + 4.0 * t * t * p * q)
    return 2.0 * t * p / (d + root) if d >= 0 else (root - d) / (2.0 * t * q)


def prob_fullline(Y, X, t: float, params: AsepParams,
                  opts: QuadOptions | None = None,
                  radius: float | None = None) -> AsepEvalReport:
    """Transition probability for the process on all of Z (permutation sum
    over a single circle about zero).

    Without a caller's radius, N = 1 at t > 0 runs on the saddle radius of
    its one term, xi^(x-y) e^(t eps) (`_saddle_radius`): its only pole is
    0, and there the integrand is no larger than the value needs, so deep
    tails come out to relative accuracy.  On the radius max(2, 2/q) that
    every other call takes, (0,) -> (15,) at t = 0.5, p = 0.5 (4.3e-22)
    never converged."""
    y, x = lattice_sites(Y, halfline=False), lattice_sites(X, halfline=False)
    opts = _checked_opts(t, params, len(y), opts)
    if radius is None:
        radius = (_saddle_radius(x[0] - y[0], t, params) if len(y) == 1 and t > 0
                  else max(2.0, 2.0 / abs(params.q)))
    circle = CircleContour(0.0, radius)
    radii = (circle.radius,) * len(y)
    value, err, m = evaluate(
        lambda mm: _contour_tables(params.p, circle.center, radii, mm, False),
        y, x, t, opts)
    return _report(value, err, m, group_order(len(y), False), opts)


def prob_n1_closed(y: int, x: int, t: float, params: AsepParams,
                   opts: QuadOptions | None = None,
                   radius: float | None = None) -> AsepEvalReport:
    """Single-particle half-line probability from the closed-form integrand
    xi^(x-y-1) - ((1 - tau/xi)/(1 - xi)) tau^x xi^(-x-y-1), times exp(eps t).

    Kept independent of the signed-permutation machinery so the two can
    cross-check each other.
    """
    params.require_formula_ok()
    (y,), (x,) = lattice_sites((y,), halfline=True), lattice_sites((x,), halfline=True)
    require_time(t)
    opts = opts or QuadOptions()
    tau = params.tau
    center = 1.0 / (2.0 * params.q)
    radius = radius if radius is not None else tuned_radii(params, 1).radii[0]
    _require_fixed_poles_inside(center, radius, tau)
    contour = CircleContour(center, radius)

    def level(m):
        nodes, weights = circle_nodes(contour, m)
        bracket = nodes ** (x - y - 1) - ((1.0 - tau / nodes) / (1.0 - nodes)
                                          ) * tau ** x * nodes ** (-x - y - 1)
        return np.sum(weights * bracket * np.exp(eps_asep(nodes, params) * t))

    value, err, m = adaptive_eval(level, opts)
    return _report(value, err, m, 2, opts)


def evaluate_extended(Y, Z, t: float, params: AsepParams,
                      opts: QuadOptions | None = None,
                      radii: RadiiScheme | None = None) -> complex:
    """The half-line integral sum with X replaced by an arbitrary integer
    tuple Z (no ordering or nonnegativity constraints).

    This is the analytic extension whose boundary identities make the
    physical master equation hold; on physical ordered tuples it coincides
    with prob_halfline.
    """
    y, z = lattice_sites(Y, halfline=True), integer_sites(Z)
    opts, radii, contour_at = _halfline_entry(y, z, t, params, opts, radii)
    _require_finite_waves(params, radii, z, opts.initial_points)
    value, _, _ = evaluate(contour_at, y, z, t, opts)
    return complex(value)


def master_equation_residual(Y, X, t: float, params: AsepParams,
                             opts: QuadOptions | None = None) -> float:
    """|du/dt - (master-equation right side)| at configuration X, each
    level a functional of that level's tables (`_kernels.evaluate`).

    du/dt is the sum over d of the tables with every vector of dimension d,
    v- too as eps(tau/xi) = eps(xi), times eps(xi_d).  u(X +- e_i) is the
    tables with every vector at position i times xi^(+-1), tau/xi for a
    negative entry.  Particle i hops to the left (rate q) or arrives from it
    (rate p) only when site x_i - 1 is free and not beyond the wall at 0.
    """
    y, x = lattice_sites(Y, halfline=True), lattice_sites(X, halfline=True)
    opts, radii, contour_at = _halfline_entry(y, x, t, params, opts)
    n, p, q = len(y), params.p, params.q
    if n > 3:
        raise ValueError("master-equation residual supports N <= 3")
    if t <= 0:
        raise ValueError("residual check needs t > 0")
    _require_finite_waves(params, radii, x, opts.initial_points)

    def residual(contour, tables):
        def shifted(j, step):
            return {(d, s, i): contour.nodes[d, s] ** step
                    for d, s, i in tables.vectors if i == j}

        pairs = [(1, {key: contour.energies[d] for key in tables.vectors if key[0] == d})
                 for d in range(n)]  # du/dt
        stay = 0.0  # the rate of leaving X, on u(X) itself
        for i in range(n):
            if x[i] > (x[i - 1] + 1 if i else 0):  # x_i - 1 is free, not past the wall
                pairs.append((-p, shifted(i, -1)))
                stay += q
            if i == n - 1 or x[i + 1] > x[i] + 1:  # the site to the right is free
                pairs.append((-q, shifted(i, 1)))
                stay += p
        return pairs + [(stay, {})]

    value, _, _ = evaluate(contour_at, y, x, t, opts, functional=residual)
    return abs(value)


#: most prob_halfline calls one `total_mass` makes; the tests and the
#: validate-asep suite make at most 325 (N = 2 in {0..25})
MAX_MASS_CALLS = 10_000


def total_mass(Y, t: float, params: AsepParams, window: int,
               opts: QuadOptions | None = None) -> float:
    """Sum of prob_halfline over every ordered configuration inside {0..window}.

    Converges to 1 as the window grows (probability conservation).  The
    window must be an integer that holds at least N sites, and hold at most
    MAX_MASS_CALLS configurations, or ValueError is raised before any
    evaluation.
    """
    y = lattice_sites(Y, halfline=True)
    if len(y) > 3:
        raise ValueError("total_mass supports N <= 3")
    window, = integer_sites((window,))
    if window + 1 < len(y):
        raise ValueError(f"window {{0..{window}}} holds fewer than {len(y)} sites")
    calls = math.comb(window + 1, len(y))
    if calls > MAX_MASS_CALLS:
        raise ValueError(f"window {{0..{window}}} holds {calls} configurations of "
                         f"{len(y)} particles, more than {MAX_MASS_CALLS}")
    total = 0.0
    for sites in itertools.combinations(range(window + 1), len(y)):
        total += prob_halfline(y, sites, t, params, opts).value
    return total
