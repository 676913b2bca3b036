"""Hot numerical kernels.

Two kernel families live here:

* ``contract``: sum over a full tensor grid of a factorized integrand
  prod_d v_d[m_d] * prod_{d1<d2} M_{d1 d2}[m_{d1}, m_{d2}], as BLAS-backed
  matrix products.  A pair without a factor is None, and the sum is
  eliminated along the graph of the pairs that have one: a dimension with at
  most two such pairs costs at most one m^3 product.  Up to MAX_N the only
  core left, where every dimension keeps three or more pairs, is the
  complete graph K4, which one m^4 step (`_k4`) sums; a larger core raises
  ValueError.  Every exact evaluator reduces its per-term quadrature to this
  shape, and ``term_sum`` sums it over the signed-permutation terms of both
  models, one contraction per sign-flip pair of a half-line sum.  The models
  differ only in their `ContourTables`, which ``evaluate`` refines.
* ``gillespie_hits``: the jump chain behind the Monte Carlo oracle.  Chunks
  of CHUNK trials step in lockstep numpy, each trial on its own SplitMix64
  substream, so counts are reproducible and independent of trial order and
  chunking, and memory follows the chunk, not the trial count.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .contour_quad import _doubled, adaptive_eval
from .signed_perm import term_structure

#: largest particle number the evaluators accept.  A half-line level runs
#: 2^(N-1) N! contractions; at N = 4 the 60 whose pair graph is complete run
#: the K4 step (m^4), every other one costs m^3 or less.  From N = 5 on,
#: some pair graphs leave larger cores, which `contract` refuses.
MAX_N = 4


# ---------------------------------------------------------------------------
# tensor contraction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _plan(n: int, present: tuple[bool, ...]):
    """Elimination steps for n dimensions whose pairs (in
    itertools.combinations order) carry a matrix where `present` is true.

    While some dimension has at most two neighbours, the one with the fewest
    (the highest index among ties) is summed out: a step (d, links, closes)
    where links holds, per neighbour u, (u, pair index), plus for two
    neighbours u < w the index of the pair (u, w) that receives their new
    coupling; closes says that the one neighbour has no other, so the step
    sums out both.  Every pair matrix has rows over its lower dimension.
    What is left is nothing or, up to MAX_N, the complete graph K4, returned
    as its four dimensions in increasing order and its six pair indices in
    itertools.combinations order.  Any other core (every dimension with three
    or more neighbours, five or more dimensions) raises ValueError.
    """
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    adj = {d: set() for d in range(n)}
    for (i, j), on in zip(pairs, present):
        if on:
            adj[i].add(j)
            adj[j].add(i)
    steps = []
    while adj:
        d = min(adj, key=lambda v: (len(adj[v]), -v))
        nbrs = sorted(adj[d])
        if len(nbrs) > 2:
            break
        links = tuple((u, index[min(u, d), max(u, d)]) for u in nbrs)
        for u in nbrs:
            adj[u].discard(d)
        if len(nbrs) == 2:
            u, w = nbrs
            adj[u].add(w)
            adj[w].add(u)
            links += (index[u, w],)
        closes = len(nbrs) == 1 and not adj[nbrs[0]]
        del adj[d]
        if closes:
            del adj[nbrs[0]]
        steps.append((d, links, closes))
    if not adj:
        return tuple(steps), None
    if len(adj) != 4:
        raise ValueError(f"contract sums a K4 core at most; this pattern of {n} "
                         f"dimensions leaves a core of {len(adj)}")
    dims = tuple(sorted(adj))
    return tuple(steps), (dims, tuple(index[pair]
                                      for pair in itertools.combinations(dims, 2)))


def _k4(vecs, mats, dims, pairs) -> complex:
    """The m^4 sum over a complete core on dimensions a < b < c < d: one
    (m^2, m) x (m, m) product sums out d, the pair matrices of c are
    multiplied in place, c is summed by a matrix-vector product, and
    v_a @ (M_ab * F) @ v_b closes.  numpy's complex product is not bitwise
    commutative, so every operand order is part of the result."""
    a, b, c, d = dims
    m_ab, m_ac, m_ad, m_bc, m_bd, m_cd = (mats[k] for k in pairs)
    m = vecs[a].size
    w = (vecs[d] * m_ad)[:, None, :] * m_bd  # over (a, b, d)
    f = (w.reshape(-1, m) @ m_cd.T).reshape(m, m, m)  # over (a, b, c)
    del w  # so the next allocation can reuse its memory
    f *= m_bc.reshape(1, m, m)
    f *= m_ac.reshape(m, 1, m)
    return complex(vecs[a] @ (m_ab * (f @ vecs[c])) @ vecs[b])


def contract(vectors, mats) -> complex:
    """BLAS-backed contraction for N <= MAX_N; vectors is a list of N 1-d
    complex arrays and mats the N(N-1)/2 pair matrices in
    itertools.combinations order, rows over the lower dimension, None for a
    pair without a factor.

    Dimensions are summed out along the pair graph (`_plan`): with no
    neighbour by a sum, with one by a matrix-vector product into the
    neighbour's vector, with two by one matrix product into the neighbours'
    pair matrix; a remaining K4 core runs `_k4`.  A larger core raises
    ValueError.
    """
    steps, core = _plan(len(vectors), tuple([m is not None for m in mats]))
    vecs = list(vectors)
    mats = list(mats)
    scale = 1.0 + 0.0j
    for d, links, closes in steps:
        if not links:
            scale *= vecs[d].sum()
        elif len(links) == 1:
            (u, k), = links
            # ndarray.dot: a third of matmul's call overhead on small operands
            summed = (mats[k].T if d < u else mats[k]).dot(vecs[d])
            if closes:
                scale *= vecs[u].dot(summed)
            else:
                vecs[u] = vecs[u] * summed
        else:
            (u, ku), (w, kw), kuw = links
            mu = mats[ku].T if d < u else mats[ku]  # rows over u, columns over d
            mw = mats[kw] if d < w else mats[kw].T  # rows over d, columns over w
            coupling = (mu * vecs[d]).dot(mw)
            if mats[kuw] is not None:
                coupling *= mats[kuw]
            mats[kuw] = coupling
    if core is not None:
        scale *= _k4(vecs, mats, *core)
    return complex(scale)


class LevelTables(NamedTuple):
    """The factor tables of one quadrature level, for either model.

    `vectors[d, s, pos]` is the factor of variable d placed at position pos
    with sign s, a negative entry's amplitude included (`ContourTables`).
    `smats[a, b]` is the scattering matrix of the signed variables a and b,
    rows over |a|; a pair it lacks is identically 1.
    """

    vectors: dict
    smats: dict

    def scaled(self, factors: dict) -> "LevelTables":
        """The tables with each vector times its key's entry in `factors`,
        sharing the matrices: the tables of a derivative."""
        return LevelTables({key: v * factors[key] if key in factors else v
                            for key, v in self.vectors.items()}, self.smats)


def pair_matrices(pos, neg, pair) -> dict:
    """The read-only S-matrix of every signed pair (a, b) the half-line terms
    (full-line for neg None) use: pair(x[:, None], y[None, :]) over the node
    values x of a and y of b, pos[d] for variable d+1, neg[d] for -(d+1).

    In both models S(-b, -a) = S(a, b)^T, so only the pairs with a + b >= 0
    are computed, the others are transposed views.  Variables on one node
    array share their matrices: each counts as the first variable on it
    (the exclusion process on the full line, one circle for every variable).
    Variables on distinct arrays (the Bose gas on its staggered lines) get
    one matrix per signed pair with a + b >= 0.
    """
    first = {}
    grid = [first.setdefault(id(v), d + 1) for d, v in enumerate(pos)]
    built = {}
    smats = {}
    terms = term_structure(len(pos), neg is not None)
    for a, b in sorted({ab for term in terms for invs in term.mats for ab in invs}):
        ga, gb = (grid[abs(v) - 1] if v > 0 else -grid[abs(v) - 1] for v in (a, b))
        mirrored = ga + gb < 0
        key = (-gb, -ga) if mirrored else (ga, gb)
        if key not in built:
            x, y = (pos[g - 1] if g > 0 else neg[-g - 1] for g in key)
            built[key] = pair(x[:, None], y[None, :])
            built[key].flags.writeable = False
        smats[a, b] = built[key].T if mirrored else built[key]
    return smats


def term_sum(tables: LevelTables, terms) -> complex:
    """Sum of the contracted integrands of compiled signed-permutation terms
    (`signed_perm.term_structure`) at one quadrature level.

    Each term names its table entries.  A folded vector (sign 0) is v+ + v-,
    the partner's amplitude riding in v-, formed once per run of terms that
    fold it (`term_structure` lists them by sigma(1)).  Each S-matrix is
    oriented with rows over the lower dimension of its pair.
    """
    vecs = tables.vectors
    fold_key = folded = None
    total = 0.0 + 0.0j
    for term in terms:
        for d, sign, pos in term.vectors:
            if sign == 0 and (d, pos) != fold_key:
                fold_key, folded = (d, pos), vecs[d, 1, pos] + vecs[d, -1, pos]
        mats = []
        for invs in term.mats:
            mat = None
            for a, b in invs:
                smat = tables.smats.get((a, b))
                if smat is not None:
                    smat = smat.T if abs(a) > abs(b) else smat
                    mat = smat if mat is None else mat * smat
            mats.append(mat)
        total += contract([vecs[key] if key[1] else folded for key in term.vectors], mats)
    return total


class ContourTables:
    """The factor tables of one quadrature level that do not depend on Y, X
    or t, for either model, on the node arrays pos[d] and, on the half line,
    neg[d] (None on the full line), with the S-matrices of `pair`, if any.

    Per variable d: `nodes[d, s]`, s = -1 the reflected node (tau/xi or -k),
    on the half line only; `weights[d]`, for the exclusion process times the
    1/xi of xi^(x-y-1); `energies[d]`, the e of e^(e t) (eps(xi) or -i k^2)
    for both signs; `amplitudes[d]`, a negative entry's amplitude (r(tau/xi)
    or -1).  `smats` holds the S-matrices (`pair_matrices`) and `wave(nodes,
    x)` is the plane wave, xi^x or e^(ikx).
    """

    def __init__(self, pos, neg, weights, energies, amplitudes, wave, pair=None):
        self.nodes = {(d, 1): v for d, v in enumerate(pos)}
        if neg is not None:
            self.nodes.update({(d, -1): v for d, v in enumerate(neg)})
        self.weights, self.energies, self.amplitudes = weights, energies, amplitudes
        self.smats = {} if pair is None else pair_matrices(pos, neg, pair)
        self.wave = wave

    @property
    def nbytes(self) -> int:
        """Bytes of the distinct arrays held, a view counted as its base."""
        arrays = (*self.nodes.values(), *self.weights, *self.energies,
                  *self.amplitudes, *self.smats.values())
        return sum({id(a if a.base is None else a.base): a.nbytes
                    for a in arrays if isinstance(a, np.ndarray)}.values())

    def level(self, y, x, t) -> LevelTables:
        """The level tables of one call: vector (d, s, j) is w_d wave(xi_d,
        -y_d) e^(e_d t) wave(nodes[d, s], x_j), times the amplitude at s = -1."""
        signs = (1, -1) if (0, -1) in self.nodes else (1,)
        vectors = {}
        for d, yd in enumerate(y):
            base = (self.weights[d] * self.wave(self.nodes[d, 1], -yd)
                    * np.exp(self.energies[d] * t))
            for s in signs:
                for j, xj in enumerate(x):
                    v = base * self.wave(self.nodes[d, s], xj)
                    vectors[d, s, j] = v * self.amplitudes[d] if s < 0 else v
        return LevelTables(vectors, self.smats)


def evaluate(contour_at, y, x, t, halfline: bool, opts, next_points=_doubled,
             functional=None):
    """(value, error_estimate, m) of one sum of either model, refined by
    `adaptive_eval` on the model's schedule `next_points` after the one
    N <= MAX_N and |X| = |Y| check of every entry point.  `contour_at(m)`
    gives the `ContourTables` of resolution m.  A level is the sum on the
    tables of (Y, X, t) or, given `functional(contour, tables)`, sum coef *
    term_sum(tables.scaled(factors)) over the (coef, factors) it lists.
    """
    if len(y) > MAX_N:
        raise ValueError(f"evaluators support N <= {MAX_N}")
    if len(x) != len(y):
        raise ValueError("X and Y must hold the same number of particles")
    terms = term_structure(len(y), halfline)

    def level(m):
        contour = contour_at(m)
        tables = contour.level(y, x, t)
        if functional is None:
            return term_sum(tables, terms)
        return sum(coef * term_sum(tables.scaled(factors), terms)
                   for coef, factors in functional(contour, tables))

    return adaptive_eval(level, opts, next_points=next_points)


# ---------------------------------------------------------------------------
# jump-chain simulator on SplitMix64 substreams
# ---------------------------------------------------------------------------

#: trials that step in lockstep; memory follows this, not the trial count
CHUNK = 4096

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _next_units(state: np.ndarray) -> np.ndarray:
    """Advance each SplitMix64 state in place and return its next draw in
    [0, 1); uint64 array arithmetic wraps modulo 2^64."""
    state += _GOLDEN
    z = (state ^ (state >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _chunk_hits(y, x, t, p, q, halfline, first, count, seed) -> int:
    """Hits among trials first .. first+count-1, stepped in lockstep.

    Move slot 2i is particle i's right hop (rate p), slot 2i+1 its left hop
    (rate q).  Each step adds the slot rates in that order, 0.0 for a move
    that is absent, so the running sums and the total are those of the
    one-trial chain, bit for bit; the first slot whose running sum exceeds
    u2 * total is taken, or the last allowed one if rounding leaves none.
    """
    n = y.size
    slot_rates = np.tile(np.array([p, q]), n)
    pos = np.tile(y, (count, 1))
    live = np.arange(count)
    state = np.uint64(seed) + (live + first + 1).astype(np.uint64) * _GOLDEN
    clock = np.zeros(count)
    while live.size:
        s = pos[live]
        right = np.ones(s.shape, bool)
        right[:, :-1] = s[:, 1:] > s[:, :-1] + 1
        left = np.ones(s.shape, bool)
        left[:, 1:] = right[:, :-1]
        if halfline:
            left &= s >= 1
        allowed = np.stack((right, left), axis=2).reshape(live.size, 2 * n)
        running = np.where(allowed, slot_rates, 0.0).cumsum(axis=1)
        total = running[:, -1]
        moving = total > 0.0
        # a trial without moves stops before it draws; dividing it by 1.0
        # keeps the step free of warnings
        clock += -np.log(1.0 - _next_units(state)) / np.where(moving, total, 1.0)
        keep = moving & ~(clock > t)
        live, state, clock = live[keep], state[keep], clock[keep]
        allowed, running, total = allowed[keep], running[keep], total[keep]
        below = (_next_units(state) * total)[:, None] < running
        last = 2 * n - 1 - allowed[:, ::-1].argmax(axis=1)
        pick = np.where(below.any(axis=1), below.argmax(axis=1), last)
        pos[live, pick // 2] += 1 - 2 * (pick % 2)
    return int((pos == x).all(axis=1).sum())


def gillespie_hits(y, x, t, p, q, halfline, trials, seed) -> int:
    """Count trials whose configuration at time t equals x.

    Trial i runs on its own SplitMix64 substream, started at
    seed + (i+1) * golden ratio mod 2^64, so two runs with the same seed
    give identical counts whatever the chunking.
    """
    y = np.asarray(y, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    trials, seed = int(trials), int(seed) % 2 ** 64
    return sum(_chunk_hits(y, x, float(t), float(p), float(q), bool(halfline),
                           first, min(CHUNK, trials - first), seed)
               for first in range(0, trials, CHUNK))
