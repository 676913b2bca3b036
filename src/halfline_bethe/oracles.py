"""Independent ground truth for the exclusion process.

Two generators of reference values live here: a finite-window continuous-time
Markov chain solved by uniformization (a Poisson mixture of powers of a
stochastic matrix, with a rigorous truncation bound), and a kinetic Monte
Carlo simulator.  The chain's states are a window's n-subsets in lex order;
their positions come from the combinatorial number system (`StateIndex`), so
the rate matrix is built by array arithmetic over all states at once and no
per-state dictionary is kept.  Neither oracle shares any computation with
the contour-integral evaluators they validate: they share only the input
checks of `scattering` (`lattice_sites`, `integer_sites`, `require_time`), so
no value computed here depends on evaluator code.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .scattering import AsepParams, integer_sites, lattice_sites, require_time

#: state-count guard for the generator build
MAX_STATES = 2_000_000
#: windows with more states are enumerated on every call, not cached
MAX_CACHED_STATES = 50_000
#: jump-count guard for `mc_estimate`: trials * N * t bounds the expected
#: jumps, as no particle hops at a rate above p + q = 1.  A full chunk costs
#: 0.21-0.34 us per trial and unit of N * t, so 4e8 is about 2 minutes (2-vCPU
#: VM, one thread); a lockstep step costs about 60 us however few trials it
#: moves, so fewer than MC_MIN_TRIALS trials are charged as that many.
MAX_MC_JUMPS = 4 * 10**8
MC_MIN_TRIALS = 256


@dataclass(frozen=True)
class LatticeWindow:
    """Closed site interval [lo, hi]; half-line truncations use lo = 0."""

    lo: int
    hi: int

    def __post_init__(self):
        object.__setattr__(self, "lo", integer_sites((self.lo,))[0])
        object.__setattr__(self, "hi", integer_sites((self.hi,))[0])
        if self.hi <= self.lo:
            raise ValueError(f"window must satisfy hi > lo, got [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int
    t: float

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) for v in (self.trials, self.seed)):
            raise ValueError(f"trials and seed must be integers: {self}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        require_time(self.t)


class CooRates(NamedTuple):
    """A rate matrix in coordinate form: entry k is vals[k] at (rows[k],
    cols[k]), the diagonal included, so every row sums to zero."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


class StateIndex(Mapping):
    """Read-only map from a window's states to their positions in lex order.

    The position is computed, not stored: in the combinatorial number system
    (Knuth, TAOCP 4A, 7.2.1.3) the lex rank of the n-subset u_0 < ... < u_{n-1}
    of {0, ..., span - 1} is C(span, n) - 1 - sum_k C(span - 1 - u_k, n - k),
    with u = site - lo.  A key that is not a tuple of n integer sites strictly
    increasing inside the window is missing (KeyError), as a float or a list
    is; numpy integers are sites like ints.
    """

    def __init__(self, states: tuple[tuple[int, ...], ...], n: int, lo: int, hi: int):
        self._states, self._lo = states, lo
        span = hi - lo + 1
        #: terms[k, u + 1] = C(span - 1 - u, n - k), so a hop of particle k
        #: by +-1 changes the rank by one table difference.  Particle k sits
        #: at k <= u <= span - n + k; one step past that the term is at most
        #: C(span, n), and the table holds 0 further out, where the binomials
        #: could pass int64 when n is close to span.
        self.terms = np.array([[math.comb(span - j, n - k)
                                if k <= j <= span - n + k + 1 else 0
                                for j in range(span + 2)] for k in range(n)],
                              dtype=np.intp)
        self.terms.flags.writeable = False

    def __getitem__(self, state) -> int:
        n, span = self.terms.shape[0], self.terms.shape[1] - 2
        if not isinstance(state, tuple) or len(state) != n:
            raise KeyError(state)
        try:
            u = [operator.index(site) - self._lo for site in state]
        except TypeError:
            raise KeyError(state) from None
        if not (0 <= u[0] and u[-1] < span and all(a < b for a, b in zip(u, u[1:]))):
            raise KeyError(state)
        return len(self._states) - 1 - sum(int(self.terms[k, v + 1])
                                           for k, v in enumerate(u))

    def __iter__(self):
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)


@dataclass
class GeneratorMatrix:
    """Sparse rate matrix over ordered particle configurations in a window.

    `states` lists the window's n-subsets in lex order, and `index` maps each
    to its position by rank arithmetic (`StateIndex`).  Both may be shared
    with every other generator on the same window and particle number, so
    they are read-only.
    """

    states: tuple[tuple[int, ...], ...]
    index: StateIndex
    rates: CooRates


def _require_rates(params: AsepParams):
    """A p outside [0, 1] makes one hop rate negative: no Markov chain."""
    if params.p < 0.0 or params.q < 0.0:
        raise ValueError(f"hop rates must be nonnegative, got p = {params.p}, "
                         f"q = {params.q}")


def _enumerate(n: int, lo: int, hi: int):
    """The ordered n-subsets of sites lo..hi, in lex order, and their index."""
    states = tuple(itertools.combinations(range(lo, hi + 1), n))
    return states, StateIndex(states, n, lo, hi)


#: four windows of at most MAX_CACHED_STATES states each
_enumerate_cached = lru_cache(maxsize=4)(_enumerate)


def build_generator(params: AsepParams, window: LatticeWindow, n: int,
                    halfline: bool) -> GeneratorMatrix:
    """Exclusion-process generator on ordered n-subsets of the window.

    A particle hops right at rate p when the target site is inside the window
    and unoccupied, and left at rate q under the same conditions; on the
    half-line a particle at site 0 additionally never hops left.  The states
    and their index come from a cache of the last four windows of at most
    MAX_CACHED_STATES states, so generators on one window share them.

    The build is array arithmetic over the (states, n) sites: the hop masks
    compare neighbouring particles, and a hop's target position is the
    source's position plus one difference of `StateIndex.terms`.  Entries
    come row by row, each row's hops in particle order (right, then left)
    and its diagonal last, and each exit rate is summed in that order, so
    the arrays equal those of a loop over the states element for element
    (the tests keep that loop as the reference).
    """
    _require_rates(params)
    span = window.size
    if span - 1 < n:
        raise ValueError(f"window of {span} sites is too small for {n} particles")
    if span - 1 > 64 * n:
        raise ValueError(f"window span {span - 1} exceeds the 64*N guard")
    if math.comb(span, n) > MAX_STATES:
        raise ValueError(
            f"state count C({span},{n}) exceeds the {MAX_STATES} guard"
        )
    if halfline and window.lo != 0:
        raise ValueError("half-line windows must start at 0")

    enumerate_window = (_enumerate_cached if math.comb(span, n) <= MAX_CACHED_STATES
                        else _enumerate)
    states, index = enumerate_window(n, window.lo, window.hi)
    count = len(states)
    u = np.fromiter(itertools.chain.from_iterable(states), np.intp,
                    count * n).reshape(count, n) - window.lo
    # slot 2k (2k + 1) of row i is the right (left) hop of particle k, and
    # slot 2n the diagonal, in the order the entries are emitted; hops and
    # targets below are views of the hop slots
    mask = np.empty((count, 2 * n + 1), dtype=bool)
    slot_cols = np.empty((count, 2 * n + 1), dtype=np.intp)
    slot_vals = np.empty((count, 2 * n + 1))
    hops = mask[:, :-1].reshape(count, n, 2)
    # the half-line window starts at 0, so u > 0 is also the wall
    free = u[:, 1:] - u[:, :-1] > 1
    hops[:, :-1, 0], hops[:, -1, 0] = free, u[:, -1] < span - 1
    hops[:, 1:, 1], hops[:, 0, 1] = free, u[:, 0] > 0
    # a hop of particle k changes only term k of the rank: at is the flat
    # position of terms[k, u_k + 1], and its neighbours hold u_k +- 1
    terms = index.terms
    at = u + np.arange(1, terms.size, terms.shape[1])
    position = np.arange(count)
    here = position[:, None] + terms.take(at)
    targets = slot_cols[:, :-1].reshape(count, n, 2)
    targets[..., 0] = here - terms.take(at + 1)
    targets[..., 1] = here - terms.take(at - 1)
    slot_cols[:, -1] = position
    del u, at, here  # the selection below holds the peak: free them first
    hop_rates = np.tile([params.p, params.q], n)
    slot_vals[:, :-1] = hop_rates
    exit_rate = np.zeros(count)
    for slot in range(2 * n):  # slot by slot: np.sum may add in another order
        exit_rate += np.where(mask[:, slot], hop_rates[slot], 0.0)
    mask[:, -1] = exit_rate != 0.0
    slot_vals[:, -1] = -exit_rate
    rows = np.repeat(position, np.count_nonzero(mask, axis=1))
    rates = CooRates(rows, slot_cols[mask], slot_vals[mask])
    return GeneratorMatrix(states, index, rates)


def _uniformized_distribution(gen: GeneratorMatrix, y: tuple[int, ...], t: float,
                              tail_tol: float) -> np.ndarray:
    """exp(Q t) applied to the point mass at y, via the Poisson mixture."""
    m = len(gen.states)
    v = np.zeros(m)
    v[gen.index[y]] = 1.0
    if t == 0.0:
        return v
    rows, cols, vals = gen.rates
    diagonal = rows == cols
    exit_rate = np.zeros(m)
    exit_rate[rows[diagonal]] = -vals[diagonal]
    lam = float(exit_rate.max())
    if lam == 0.0:
        return v
    if lam * t > 700.0:
        raise ValueError(f"uniformization rate*t = {lam * t} too large")
    # distribution evolves as a row vector: v <- v P with P = I + Q/lam, that
    # is, each state keeps 1 - exit/lam of its mass and moves rate/lam of it
    keep = 1.0 - exit_rate / lam
    moves = ~diagonal
    sources, targets, moved = rows[moves], cols[moves], vals[moves] / lam
    weight = math.exp(-lam * t)
    acc = weight * v
    covered = weight
    k = 0
    while covered < 1.0 - tail_tol:
        k += 1
        if k > 200_000:
            raise RuntimeError("Poisson series failed to terminate")
        v = keep * v + np.bincount(targets, moved * v[sources], minlength=m)
        weight *= lam * t / k
        acc += weight * v
        covered += weight
    return acc


def _configs(y, x, halfline: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """y and x by `lattice_sites`, holding the same number of particles."""
    y, x = lattice_sites(y, halfline), lattice_sites(x, halfline)
    if len(x) != len(y):
        raise ValueError("configurations must have equal particle number")
    return y, x


def _require_tol(tol: float):
    """A nan or infinite tol ends the Poisson series after one term, and no
    window growth in `ctmc_prob` meets a nan, zero or negative one."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def ctmc_distribution(y, t: float, params: AsepParams, window: LatticeWindow,
                      tol: float = 1e-12, halfline: bool = True):
    """All transition probabilities out of y at time t, over window states;
    ValueError unless y follows `lattice_sites` and t >= 0 and tol > 0 are finite."""
    y = lattice_sites(y, halfline)
    require_time(t)
    _require_tol(tol)
    gen = build_generator(params, window, len(y), halfline)
    if y not in gen.index:
        raise ValueError(f"initial configuration {y} not inside window")
    # the covered-mass accumulator cannot resolve tails below ~1e-13
    dist = _uniformized_distribution(gen, y, float(t),
                                     tail_tol=max(0.01 * tol, 1e-13))
    return gen.states, dist


def ctmc_prob(y, x, t: float, params: AsepParams,
              window: LatticeWindow | None = None, tol: float = 1e-12,
              halfline: bool = True) -> float:
    """Transition probability from y to x at time t by uniformization.

    With window=None the window reaches a drift+diffusion margin past the
    configurations, and the margin doubles until the answer is stable within
    tol; a window the caller gives must hold both y and x.  y and x follow
    `lattice_sites` with as many particles each, and t >= 0 and tol > 0 must
    be finite, or ValueError is raised.
    """
    _require_rates(params)
    y, x = _configs(y, x, halfline)
    require_time(t)
    _require_tol(tol)
    if window is not None and any(c[0] < window.lo or c[-1] > window.hi for c in (y, x)):
        raise ValueError(f"configuration {y} or {x} not inside window")
    if t == 0.0:
        return 1.0 if x == y else 0.0

    def prob(window):
        states, dist = ctmc_distribution(y, t, params, window, tol, halfline)
        return float(dist[states.index(x)])

    if window is not None:
        return prob(window)
    margin = math.ceil(4.0 * math.sqrt(t)) + 4
    prev = None
    for _ in range(8):
        lo = 0 if halfline else min(y[0], x[0]) - margin
        cur = prob(LatticeWindow(lo, max(y[-1], x[-1]) + margin))
        if prev is not None and abs(cur - prev) < tol:
            return cur
        prev = cur
        margin *= 2
    raise RuntimeError("window growth did not stabilize the CTMC probability")


def mc_estimate(y, x, cfg: McConfig, params: AsepParams,
                halfline: bool = True) -> tuple[float, float]:
    """Kinetic Monte Carlo estimate of the transition probability.

    Returns (hit frequency of x at time t, binomial standard error).  Trial
    i runs on the SplitMix64 substream that starts at the (i+1)-th output of
    the generator seeded with cfg.seed (`_kernels.gillespie_hits`), so no
    trial's draws repeat another's and identical seeds reproduce identical
    estimates.  Like `ctmc_prob`, it raises ValueError unless y and x follow
    `lattice_sites`, and unless both hop rates are nonnegative.  It also
    raises ValueError, before any trial runs, when max(trials,
    MC_MIN_TRIALS) * N * t exceeds MAX_MC_JUMPS.
    """
    _require_rates(params)
    y, x = (np.asarray(c, dtype=np.int64) for c in _configs(y, x, halfline))
    jumps = max(cfg.trials, MC_MIN_TRIALS) * y.size * cfg.t
    if jumps > MAX_MC_JUMPS:
        raise ValueError(f"{cfg.trials} trials of {y.size} particles up to t = {cfg.t} "
                         f"expect up to {jumps:.3g} jumps, over the MAX_MC_JUMPS guard "
                         f"of {MAX_MC_JUMPS:.3g}")
    hits = _kernels.gillespie_hits(y, x, cfg.t, params.p, params.q,
                                   halfline, cfg.trials, cfg.seed)
    est = hits / cfg.trials
    se = math.sqrt(est * (1.0 - est) / cfg.trials)
    return est, se
