"""The benchmark's workloads: inputs drawn from a seed, the public library
calls made on them, and the checks applied to every output.

An op is one public call.  `build` returns the ops of one round (every op
once) and computes their references, outside any timed window.  `warm_up`
makes one cheap call per particle number a workload uses, so the library's
per-N caches are full before anything is timed.  The seed changes the inputs
but not the work: it draws times, rates, positions and targets from sets on
which every call does the same quadrature levels, and it shuffles the order.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from checks import Check, against, bose_bounds, mc_tolerance

#: a value may miss its reference by this many requested tolerances
CHECK_FACTOR = 10.0

# asep-dist ---------------------------------------------------------------
ASEP_TOL = 1e-10
DIST_T_RANGE = (0.45, 0.55)
#: the p > 1/2 distribution that holds the far-downstream targets; its time
#: does not depend on the seed, so the same targets fail in every run
FAULT_Y, FAULT_P, FAULT_T = (1, 3), 0.7, 0.5
#: targets for which the reversed orientation multiplies an absolute error of
#: size tol by tau^(sum X - sum Y): the value comes back negative or far off,
#: with no ConvergenceError
FAULT_TARGETS = ((7, 8), (8, 9))

# asep-n4 -----------------------------------------------------------------
N4_Y, N4_T = (0, 1, 2, 3), 0.1
N4_TOL, N4_MAX_POINTS = 1e-4, 32
#: every entry converges at m = 32, so every pick costs the same.  Targets
#: reached in zero or one hop only: their probabilities (0.94-0.96 and
#: 0.037-0.054) are far above the check tolerance of 10 * N4_TOL, where a
#: two-hop target (7e-4 at p=0.4) would pass even if the value were 0
N4_POOL = tuple((x, p) for p in (0.4, 0.6) for x in ((0, 1, 2, 3), (0, 1, 2, 4)))
N4_OPS = 1

# bose-hardwall -----------------------------------------------------------
#: the evaluator's default line-grid tolerance (no options are passed)
BOSE_TOL = 1e-10
BOSE_TAUS = (0.2, 0.5, 2.0)
BOSE_CS = (0.0, 0.5, 1.0, 4.0)
#: one particle feels no coupling, so N=1 runs once per tau, at the c with the
#: finest grid; a sweep over c would add only sub-millisecond ops
BOSE_N1_C = 0.5
BOSE_POS = {1: ((0.7,), (1.2,)),
            2: ((0.7, 1.9), (1.2, 2.8)),
            3: ((0.5, 1.3, 2.4), (0.9, 1.7, 3.0))}
BOSE_JITTER = 0.1

# oracles -----------------------------------------------------------------
ORACLE_T = 1.0
ORACLE_P_RANGE = (0.3, 0.45)
#: N -> (Y, right end of the CTMC window)
CTMC_SYSTEMS = {2: ((1, 3), 40), 3: ((0, 2, 4), 24), 4: ((0, 2, 4, 6), 20)}
#: N -> (Y, number of targets).  More Monte Carlo ops than CTMC ops, so the
#: median op is a Monte Carlo run, not a millisecond CTMC solve.
MC_SYSTEMS = {2: ((1, 3), 3), 3: ((0, 2, 4), 2), 4: ((0, 2, 4, 6), 2)}
MC_TRIALS = 20_000
#: uniformization conserves mass up to its Poisson truncation (1e-13 here)
CTMC_TOL = 1e-11


@dataclass
class Op:
    name: str
    #: library module the call enters; the op's span when traced
    layer: str
    run: Callable[[], object]
    #: (output, outputs of the round by op name) -> checks
    check: Callable[[object, dict], list[Check]]
    known_fault: bool = False


def _combos(n: int, hi: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(hi + 1), n))


def _call_value(fn, *args):
    return fn(*args).value


def _asep_checks(out, results, ref, tol):
    return [against("ctmc", out, ref, tol),
            Check("nonnegative", out, 0.0, math.inf, tol)]


def _asep_ops(hb, y, targets, t, p, opts, *, halfline=True, faults=()):
    """One op per target X: P_Y(X; t), checked against the CTMC."""
    params = hb.AsepParams.from_p(p)
    if halfline and len(y) < 4:
        hi = max(max(y), *(max(x) for x in targets)) + 24
        states, dist = hb.ctmc_distribution(y, t, params, hb.LatticeWindow(0, hi))
        refs = dict(zip(states, dist))
    else:
        refs = {x: hb.ctmc_prob(y, x, t, params, halfline=halfline) for x in targets}
    fn = hb.prob_halfline if halfline else hb.prob_fullline
    kind = "half" if halfline else "full"
    return [Op(f"{kind} p={p} t={t:.6f} {y}->{x}", "asep_exact",
               functools.partial(_call_value, fn, y, x, t, params, opts),
               functools.partial(_asep_checks, ref=float(refs[x]),
                                 tol=CHECK_FACTOR * opts.tol),
               known_fault=x in faults)
            for x in targets]


def _build_asep_dist(hb, rnd, quick):
    t = rnd.uniform(*DIST_T_RANGE)
    opts = hb.QuadOptions(tol=ASEP_TOL)
    if quick:
        return (_asep_ops(hb, (2,), _combos(1, 3), t, 0.3, opts)
                + _asep_ops(hb, FAULT_Y, [(1, 3), *FAULT_TARGETS], FAULT_T, FAULT_P,
                            opts, faults=FAULT_TARGETS)
                + _asep_ops(hb, (0, 2, 4), [(0, 2, 4)], t, 0.3, opts)
                + _asep_ops(hb, (0, 2), [(-1, 2)], t, 0.4, opts, halfline=False))
    ops = []
    for p in (0.3, 0.7):
        ops += _asep_ops(hb, (2,), _combos(1, 8), t, p, opts)
    ops += _asep_ops(hb, (1, 3), _combos(2, 9), t, 0.3, opts)
    ops += _asep_ops(hb, FAULT_Y, _combos(2, 9), FAULT_T, FAULT_P, opts,
                     faults=FAULT_TARGETS)
    for p in (0.3, 0.7):
        ops += _asep_ops(hb, (0, 2, 4), _combos(3, 4), t, p, opts)
    ops += _asep_ops(hb, (0, 2), [(-1, 2), (0, 3), (1, 3)], t, 0.4, opts,
                     halfline=False)
    ops += _asep_ops(hb, (0, 2, 4), [(-1, 1, 4), (0, 2, 5)], t, 0.4, opts,
                     halfline=False)
    return ops


def _build_asep_n4(hb, rnd, quick):
    if quick:
        opts = hb.QuadOptions(initial_points=8, max_points=16, tol=1e-3)
        return _asep_ops(hb, N4_Y, [N4_Y], 0.01, 0.4, opts)
    opts = hb.QuadOptions(tol=N4_TOL, max_points=N4_MAX_POINTS)
    ops = []
    for x, p in rnd.sample(N4_POOL, N4_OPS):
        ops += _asep_ops(hb, N4_Y, [x], N4_T, p, opts)
    return ops


def _bose_positions(rnd, n):
    """Jittered positions.  The line grid depends only on max|x| + max|y|,
    so that sum stays fixed and the cost of every call with it."""
    y, x = BOSE_POS[n]
    if n == 1:
        d = rnd.uniform(-BOSE_JITTER, BOSE_JITTER)
        return (y[0] + d,), (x[0] - d,)

    def jitter(v):
        return tuple(a + rnd.uniform(-BOSE_JITTER, BOSE_JITTER) for a in v[:-1]) + v[-1:]

    return jitter(y), jitter(x)


def _bose_name(n, tau, c):
    return f"bose N={n} tau={tau} c={c}"


def _bose_checks(out, results, *, n, tau, c, bounds):
    det, perm = bounds
    tol = CHECK_FACTOR * BOSE_TOL
    value = out.real
    if n == 1:
        return [against("images", value, perm, tol)]
    if c == 0.0:
        return [against("permanent", value, perm, tol)]
    checks = [Check("bracket", value, det, perm, tol)]
    prev = results.get(_bose_name(n, tau, BOSE_CS[BOSE_CS.index(c) - 1]))
    if isinstance(prev, complex):
        checks.append(Check("c-monotone", value, -math.inf, prev.real, tol))
    return checks


def _build_bose(hb, rnd, quick):
    grid = ({1: ((2.0,), (1.0,)), 2: ((2.0,), (0.0, 4.0)), 3: ((2.0,), (0.0, 4.0))}
            if quick else {1: (BOSE_TAUS, (BOSE_N1_C,)), 2: (BOSE_TAUS, BOSE_CS),
                           3: (BOSE_TAUS, BOSE_CS)})
    ops = []
    for n, (taus, cs) in grid.items():
        y, x = _bose_positions(rnd, n)
        for tau in taus:
            bounds = bose_bounds(x, y, tau)
            for c in cs:
                ops.append(Op(
                    _bose_name(n, tau, c), "bose_exact",
                    functools.partial(_call_value, hb.propagator_halfline, y, x,
                                      hb.DampedTime.imaginary(tau), hb.BoseParams(c)),
                    functools.partial(_bose_checks, n=n, tau=tau, c=c, bounds=bounds)))
    return ops


def _ctmc_checks(out, results, *, y, x=None, reverse=None, tau=None):
    """Mass, nonnegativity and, given the distribution out of x,
    reversibility P_y(x) = tau^(sum x - sum y) P_x(y)."""
    states, dist = out
    index = {s: i for i, s in enumerate(states)}
    low = int(dist.argmin())
    checks = [against("mass", dist.sum(), 1.0, CTMC_TOL, index=index[y]),
              Check("nonnegative", float(dist[low]), 0.0, math.inf, CTMC_TOL, low)]
    back = results.get(reverse)
    if isinstance(back, tuple):
        back_states, back_dist = back
        scale = tau ** (sum(x) - sum(y))
        ref = scale * back_dist[back_states.index(y)]
        checks.append(against("reversibility", dist[index[x]], ref,
                              CTMC_TOL * max(1.0, scale), index=index[x]))
    return checks


def _mc_hits(hb, y, x, cfg, params):
    return hb.mc_estimate(y, x, cfg, params)[0]


def _mc_checks(out, results, *, prob, trials):
    return [against("ctmc", out, prob, mc_tolerance(prob, trials))]


def _build_oracles(hb, rnd, quick):
    params = hb.AsepParams.from_p(rnd.uniform(*ORACLE_P_RANGE))
    t = ORACLE_T
    if quick:
        systems = {2: ((1, 3), 10), 3: ((0, 2, 4), 8)}
        mc_systems, trials = {2: ((1, 3), 1)}, 2000
    else:
        systems, mc_systems, trials = CTMC_SYSTEMS, MC_SYSTEMS, MC_TRIALS
    ops = []
    for n, (y, hi) in systems.items():
        window = hb.LatticeWindow(0, hi)
        x = y
        while x == y:
            x = tuple(sorted(rnd.sample(range(max(y) + 5), n)))
        forward, reverse = f"ctmc N={n} from {y}", f"ctmc N={n} from {x}"
        ops.append(Op(forward, "oracles",
                      functools.partial(hb.ctmc_distribution, y, t, params, window),
                      functools.partial(_ctmc_checks, y=y, x=x, reverse=reverse,
                                        tau=params.tau)))
        ops.append(Op(reverse, "oracles",
                      functools.partial(hb.ctmc_distribution, x, t, params, window),
                      functools.partial(_ctmc_checks, y=x)))
    for n, (y, count) in mc_systems.items():
        states, dist = hb.ctmc_distribution(y, t, params, hb.LatticeWindow(0, max(y) + 24))
        likely = sorted(zip(dist, states), reverse=True)[:5]
        for prob, x in rnd.sample(likely, count):
            cfg = hb.McConfig(trials, rnd.randrange(2 ** 32), t)
            ops.append(Op(f"mc N={n} {y}->{x}", "oracles",
                          functools.partial(_mc_hits, hb, y, x, cfg, params),
                          functools.partial(_mc_checks, prob=float(prob), trials=trials)))
    return ops


BUILDERS = {
    "asep-dist": _build_asep_dist,
    "asep-n4": _build_asep_n4,
    "bose-hardwall": _build_bose,
    "oracles": _build_oracles,
}


def build(name: str, hb, seed: int, quick: bool = False) -> list[Op]:
    """The ops of one round of workload `name`, in a seed-shuffled order."""
    rnd = random.Random(seed)
    ops = BUILDERS[name](hb, rnd, quick)
    rnd.shuffle(ops)
    return ops


def warm_up(name: str, hb) -> None:
    """One cheap call per particle number the workload uses."""
    loose = hb.QuadOptions(initial_points=8, max_points=16, tol=1.0)
    params = hb.AsepParams.from_p(0.4)
    if name == "asep-dist":
        for n in (1, 2, 3):
            hb.prob_halfline(range(n), range(n), 0.1, params, loose)
        for n in (2, 3):
            hb.prob_fullline(range(n), range(n), 0.1, params, loose)
    elif name == "asep-n4":
        hb.prob_halfline(N4_Y, N4_Y, N4_T, params, loose)
    elif name == "bose-hardwall":
        line = hb.QuadOptions(initial_points=16, max_points=32, tol=1.0)
        for y, x in BOSE_POS.values():
            hb.propagator_halfline(y, x, hb.DampedTime.imaginary(2.0), hb.BoseParams(1.0),
                                   line)
    elif name == "oracles":
        hb.ctmc_distribution((1, 3), 0.1, params, hb.LatticeWindow(0, 8))
        hb.mc_estimate((1, 3), (1, 3), hb.McConfig(10, 1, 0.1), params)
