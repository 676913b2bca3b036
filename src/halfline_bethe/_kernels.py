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
  models, one contraction per sign-flip pair of a half-line sum, as a
  `LevelProgram` compiled once per (N, half/full line) orders them: terms
  whose costly first step reads the same operands run one after another and
  build that step once, and the K4 steps of a level write their m^3 tensors
  into one `Workspace`.  The models differ only in their `ContourTables`,
  which ``evaluate`` refines.
* ``gillespie_hits``: the jump chain behind the Monte Carlo oracle.  Chunks
  of CHUNK trials step in lockstep numpy, each trial on its own SplitMix64
  substream, started at one output of the generator seeded with the seed,
  so counts are reproducible and independent of trial order and chunking,
  and memory follows the chunk, not the trial count.
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
#: the K4 step, and 15 m^4 inner tensors serve them all (`LevelProgram`);
#: every other one costs m^3 or less.  From N = 5 on,
#: some pair graphs leave larger cores, which `contract` refuses.
MAX_N = 4


# ---------------------------------------------------------------------------
# tensor contraction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _plan(n: int, present: tuple[bool, ...], first: int | None = None):
    """Elimination steps for n dimensions whose pairs (in
    itertools.combinations order) carry a matrix where `present` is true.

    While some dimension has at most two neighbours, the one with the fewest
    is summed out, ties going to `first`, then to the highest index: a step
    (d, links, closes) where links holds, per neighbour u, (u, pair index),
    plus for two neighbours u < w the index of the pair (u, w) that receives
    their new coupling; closes says that the one neighbour has no other, so
    the step sums out both.  Every pair matrix has rows over its lower
    dimension.  What is left is nothing or, up to MAX_N, the complete graph
    K4, returned as its four dimensions, the one summed out first leading
    (by the same tie rule) and the other three increasing, and its six pair
    indices in itertools.combinations order of those four.  Any other core
    (every dimension with three or more neighbours, five or more dimensions)
    raises ValueError.
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
        d = min(adj, key=lambda v: (len(adj[v]), v != first, -v))
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
    dims = (d,) + tuple(sorted(v for v in adj if v != d))
    return tuple(steps), (dims, tuple(index[min(pair), max(pair)]
                                      for pair in itertools.combinations(dims, 2)))


def _once(shared, build):
    """build(), or for a run of terms the result that the run's first call
    built and left in the list `shared` (`contract`)."""
    if shared is None:
        return build()
    if not shared:
        shared.append(build())
    return shared[0]


class Workspace:
    """Scratch arrays that the contractions of one level reuse (`term_sum`):
    `array(slot, shape)` returns the slot's complex array, allocated anew
    only when the slot is empty or held another shape, so a level's K4 steps
    write their m^3 tensors into two arrays instead of allocating one per
    step.  `allocations` counts the arrays made."""

    def __init__(self):
        self.arrays = {}
        self.allocations = 0

    def array(self, slot, shape) -> np.ndarray:
        out = self.arrays.get(slot)
        if out is None or out.shape != shape:
            out = self.arrays[slot] = np.empty(shape, complex)
            self.allocations += 1
        return out


def _k4(vecs, mats, dims, pairs, shared, work) -> complex:
    """The m^4 sum over a complete core on dimensions a, then b < c < d: one
    (m^2, m) x (m, m) product sums out a into T[b, c, d] = sum_a v_a M_ab
    M_ac M_ad (kept in `shared`, see `contract`), the pair matrices of d
    multiply a copy, d is summed by a matrix-vector product, and
    v_b @ (M_bc * F) @ v_c closes.  numpy's complex product is not bitwise
    commutative, so every operand order is part of the result.

    T goes into the workspace's "inner" array, and both the outer product
    that builds it and the copy F into its "outer" array, so a level that
    passes one `Workspace` to all its terms allocates two m^3 arrays."""
    a, b, c, d = dims
    m_ab, m_ac, m_ad, m_bc, m_bd, m_cd = (mats[k] for k in pairs)
    m = vecs[a].size
    work = Workspace() if work is None else work

    def inner():
        ab, ac, ad = (mat if a < u else mat.T
                      for mat, u in ((m_ab, b), (m_ac, c), (m_ad, d)))  # rows over a
        w = work.array("outer", (m, m, m))
        np.multiply((vecs[a][:, None] * ab)[:, :, None], ac[:, None, :],
                    out=w)  # over (a, b, c)
        t = work.array("inner", (m, m, m))
        np.matmul(w.reshape(m, m * m).T, ad, out=t.reshape(m * m, m))
        return t  # over (b, c, d)

    # a copy: the shared tensor stays as built
    f = np.multiply(_once(shared, inner), m_cd, out=work.array("outer", (m, m, m)))
    f *= m_bd.reshape(m, 1, m)
    return complex(vecs[b] @ (m_bc * (f @ vecs[d])) @ vecs[c])


def contract(vectors, mats, plan=None, shared=None, work=None) -> complex:
    """BLAS-backed contraction for N <= MAX_N; vectors is a list of N 1-d
    complex arrays and mats the N(N-1)/2 pair matrices in
    itertools.combinations order, rows over the lower dimension, None for a
    pair without a factor.

    Dimensions are summed out along the pair graph (`_plan`, looked up from
    the pattern of present pairs unless `plan` gives it): with no neighbour
    by a sum, with one by a matrix-vector product into the neighbour's
    vector, with two by one matrix product into the neighbours' pair matrix;
    a remaining K4 core runs `_k4`.  A larger core raises ValueError.

    `shared` is None, or a list that carries the first step's result (a
    two-neighbour coupling or the K4's inner tensor) across a run of calls
    whose first step reads the same vector and pair matrices
    (`LevelProgram`): the run's first call builds it, the others reuse it.
    `work` is None or the `Workspace` whose arrays a K4 core writes into; a
    shared K4 tensor lives there, so a run's calls pass the same one.
    """
    steps, core = plan or _plan(len(vectors), tuple([m is not None for m in mats]))
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
            coupling = _once(shared, lambda: (mu * vecs[d]).dot(mw))
            mats[kuw] = coupling if mats[kuw] is None else coupling * mats[kuw]
        shared = None  # only the first step is shared
    if core is not None:
        scale *= _k4(vecs, mats, *core, shared, work)
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


class LevelProgram:
    """The terms of one sum (`signed_perm.term_structure`) compiled for
    `term_sum`, once per (N, half/full line) by `level_program`.

    `folds` lists the (d, pos) of every folded vector v+ + v-, which a
    level forms once.  `schedule(pairs)` gives, for tables carrying the
    S-matrices of the signed pairs in `pairs`, each term's operand keys and
    `_plan` in run order.  The first step of a term whose present pairs form
    the complete graph on N >= 3 dimensions costs m^3 (the triangle's
    coupling) or m^4 (the K4's inner tensor) and reads only the vector of
    the dimension it sums out and that dimension's pair matrices.  Terms
    whose first steps read the same operands form a run: they follow one
    another, and the run's first contraction builds the step for all of
    them (`contract`).  Every complete term sums out the same dimension
    first, the one that gives the fewest runs, ties to the highest index: on
    the half line dimension 0, with 15 runs for the 60 complete terms at
    N = 4 and 7 for 12 at N = 3.
    """

    def __init__(self, n: int, halfline: bool):
        self.n = n
        self.terms = term_structure(n, halfline)
        self.folds = tuple(sorted({(d, pos) for term in self.terms
                                   for d, sign, pos in term.vectors if sign == 0}))

    # one schedule per program and pattern of S-matrices: every pair or none
    # in both models; the programs live for the whole process anyway
    # (`level_program`)
    @lru_cache(maxsize=64)
    def schedule(self, pairs: frozenset) -> tuple:
        """(vector keys, per dimension pair the signed inversions whose
        S-matrices are in `pairs`, plan, run) per term, in run order; run is
        the key of the term's shared first step, None for a term that shares
        nothing."""
        dim_pairs = list(itertools.combinations(range(self.n), 2))
        terms = [(term.vectors, tuple(tuple(ab for ab in invs if ab in pairs)
                                      for invs in term.mats)) for term in self.terms]
        complete = [i for i, (_, invs) in enumerate(terms) if self.n >= 3 and all(invs)]

        def step(i, first):
            keys, invs = terms[i]
            return first, keys[first], tuple(m for pair, m in zip(dim_pairs, invs)
                                              if first in pair)

        first = min(range(self.n),
                    key=lambda f: (len({step(i, f) for i in complete}), -f))
        runs = {i: step(i, first) for i in complete}
        lead = {}
        for i in complete:
            lead.setdefault(runs[i], i)
        order = sorted(range(len(terms)), key=lambda i: (lead.get(runs.get(i), i), i))
        return tuple((*terms[i], _plan(self.n, tuple(bool(m) for m in terms[i][1]),
                                       first if i in runs else None), runs.get(i))
                     for i in order)


@lru_cache(maxsize=16)
def level_program(n: int, halfline: bool) -> LevelProgram:
    """The `LevelProgram` of the (N, half/full line) sum, compiled once."""
    return LevelProgram(n, halfline)


def term_sum(tables: LevelTables, program: LevelProgram) -> complex:
    """Sum of the contracted integrands of a compiled signed-permutation sum
    (`level_program`) at one quadrature level.

    Each term names its table entries.  A folded vector (sign 0) is v+ + v-,
    the partner's amplitude riding in v-, formed once per level.  Each
    S-matrix is oriented with rows over the lower dimension of its pair.  A
    run of terms that share their first step passes one list to `contract`,
    so the step is built once and dropped before the next run builds its
    own.  Every term gets the level's one `Workspace`, whose two m^3 arrays
    hold the K4 steps' tensors, so the next run overwrites them in place.
    """
    vecs = dict(tables.vectors)
    for d, pos in program.folds:
        vecs[d, 0, pos] = vecs[d, 1, pos] + vecs[d, -1, pos]
    smats = tables.smats
    total = 0.0 + 0.0j
    run = shared = None
    work = Workspace()
    for keys, invs, plan, step in program.schedule(frozenset(smats)):
        if step != run:
            run, shared = step, None if step is None else []
        mats = []
        for pair in invs:
            mat = None
            for a, b in pair:
                smat = smats[a, b].T if abs(a) > abs(b) else smats[a, b]
                mat = smat if mat is None else mat * smat
            mats.append(mat)
        total += contract([vecs[key] for key in keys], mats, plan, shared, work)
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
    gives the `ContourTables` of resolution m.  A level runs the sum's
    `level_program` on the tables of (Y, X, t) or, given
    `functional(contour, tables)`, sums coef * term_sum(tables.scaled(factors))
    over the (coef, factors) it lists.
    """
    if len(y) > MAX_N:
        raise ValueError(f"evaluators support N <= {MAX_N}")
    if len(x) != len(y):
        raise ValueError("X and Y must hold the same number of particles")
    program = level_program(len(y), halfline)

    def level(m):
        contour = contour_at(m)
        tables = contour.level(y, x, t)
        if functional is None:
            return term_sum(tables, program)
        return sum(coef * term_sum(tables.scaled(factors), program)
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


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function of each uint64 in z; uint64 array
    arithmetic wraps modulo 2^64."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _next_units(state: np.ndarray) -> np.ndarray:
    """Advance each SplitMix64 state in place and return its next draw in
    [0, 1)."""
    state += _GOLDEN
    return (_mix64(state) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _trial_states(seed: int, first: int, count: int) -> np.ndarray:
    """The start states of trials first .. first+count-1: trial i starts at
    the (i+1)-th output of the SplitMix64 generator seeded with `seed`,
    mix64(seed + (i+1) * golden ratio), so no trial's stream is another's
    shifted by a few draws."""
    return _mix64(np.uint64(seed) + np.arange(first + 1, first + count + 1,
                                              dtype=np.uint64) * _GOLDEN)


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
    state = _trial_states(seed, first, count)
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

    Trial i runs on its own SplitMix64 substream, started at the (i+1)-th
    output of the generator seeded with `seed`, mix64(seed + (i+1) * golden
    ratio mod 2^64) (`_trial_states`), so two runs with the same seed give
    identical counts whatever the chunking.  A start at seed + (i+1) *
    golden ratio itself would make trial i+1's draws trial i's shifted by
    one, and the hit indicators of nearby trials correlated.
    """
    y = np.asarray(y, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    trials, seed = int(trials), int(seed) % 2 ** 64
    return sum(_chunk_hits(y, x, float(t), float(p), float(q), bool(halfline),
                           first, min(CHUNK, trials - first), seed)
               for first in range(0, trials, CHUNK))
