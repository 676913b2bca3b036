"""Hot numerical kernels.

Two kernel families live here:

* ``contract``: sum over a full tensor grid of a factorized integrand
  prod_d v_d[m_d] * prod_{d1<d2} M_{d1 d2}[m_{d1}, m_{d2}], as BLAS-backed
  matrix products.  A pair without a factor is None, and the sum is
  eliminated along the graph of the pairs that have one: a dimension with at
  most two such pairs costs at most one m^3 product.  Up to MAX_N the only
  core left, where every dimension keeps three or more pairs, is the
  complete graph K4, which one m^4 step (the K4 inner tensor) and two
  smaller ones sum; a larger core raises ValueError.  Every exact evaluator
  reduces its per-term quadrature to this shape, and ``term_sum`` sums it
  over the signed-permutation terms of both models, one contraction per
  sign-flip pair of a half-line sum, in the order of the `Schedule` its
  tables carry (`compile_schedule`).  Each step of a term is keyed by its
  operands, and the terms that build one value run one after another in
  nested runs: the run's first term builds it (a pair product, a coupling,
  a K4 inner tensor or finish) and the others read it.  The schedule
  compiles the whole level into one register `Program`, which one
  `contract` call runs: a shared value stays in the register its builder
  wrote until its last reader's term ends, and the K4 steps write their
  m^3 tensors into two buffers per call.  The models differ only in their
  `ContourTables`, which ``evaluate`` refines.  A level whose every factor
  is conjugate-symmetric is folded: its last variable runs over the
  self-mirror half of its nodes, with doubled weights, and the level keeps
  its real part.
* ``gillespie_hits``: the jump chain behind the Monte Carlo oracle.  Chunks
  of CHUNK trials step in lockstep numpy, each trial on its own SplitMix64
  substream, started at one output of the generator seeded with the seed,
  so counts are reproducible and independent of trial order and chunking,
  and memory follows the chunk, not the trial count.
"""

from __future__ import annotations

import collections
import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .contour_quad import adaptive_eval
from .signed_perm import term_structure

#: largest particle number the evaluators accept.  A half-line level runs
#: 2^(N-1) N! contractions; at N = 4 the 60 whose pair graph is complete run
#: the K4 steps, and 15 m^4 inner tensors serve them all (`compile_schedule`);
#: every other step costs m^3 or less.  From N = 5 on,
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


#: instruction codes of a compiled contraction (`_compile`, `_program`,
#: `contract`); DOT is a matrix-vector product that closes, and END ends a
#: term
PAIR, SUM, MATVEC, DOT, COUPLE, MUL, K4_INNER, K4_FINISH, K4_CLOSE, END = range(10)


class Node(NamedTuple):
    """One step of a contraction's value graph (`_compile`), on the term's
    own registers: its N vectors, then its pair slots, then the coupling,
    K4 inner tensor and finish."""

    #: what `contract` runs
    code: int
    #: register the step writes; None for a step that only multiplies the
    #: term's scalar
    out: int | None
    #: registers it reads, then its flags, in the layout of `contract`
    regs: tuple
    flags: tuple
    #: id of the value the step makes; None where `out` is None
    value: int | None
    #: ids of the values it reads
    reads: tuple
    #: one of `STEP_KINDS`
    kind: str


#: the steps a contraction runs, costliest first: at resolution m a K4 inner
#: tensor costs m^4, a K4 finish and a coupling m^3, the others m^2 or less
STEP_KINDS = ("k4 inner", "k4 finish", "coupling", "product", "pair", "matvec",
              "k4 close", "sum")


def _interner():
    """A function that numbers hashable keys in the order it first sees
    them."""
    ids = {}
    return lambda key: ids.setdefault(key, len(ids))


def _compile(plan, vectors, slots, intern, z=None) -> tuple[Node, ...]:
    """The value graph of the contraction that `plan` (`_plan`) sums, in the
    order `contract` runs it.

    `vectors` names each dimension's vector and `slots` each pair's factors
    in itertools.combinations order: () for a pair without one, and two or
    more factors make a "pair" step that multiplies them in order on first
    read.  A value's id is intern(key), its key made of what the step does
    and the ids it reads, so equal steps of two terms get equal ids.  A K4
    core (a, b, c, d) sums a into T over its other three dimensions, x < y
    then z, z being `z` or else d; its finish sums z and its close x and y.
    """
    steps, core = plan
    n = len(vectors)
    coupling, inner, finish = (n + len(slots) + i for i in range(3))
    vec = [intern(("vector", key)) for key in vectors]
    mat = [intern(("slot", slot)) if slot else None for slot in slots]
    unformed = {k for k, slot in enumerate(slots) if len(slot) > 1}
    nodes = []

    def read(k):
        if k in unformed:
            unformed.discard(k)
            nodes.append(Node(PAIR, n + k, (n + k,), (), mat[k], (), "pair"))
        return mat[k]

    for d, links, closes in steps:
        if not links:
            nodes.append(Node(SUM, None, (d,), (), None, (vec[d],), "sum"))
        elif len(links) == 1:
            (u, k), = links
            reads = (read(k), vec[d], vec[u])
            if closes:
                nodes.append(Node(DOT, None, (n + k, d, u), (d < u,), None, reads, "matvec"))
            else:
                vec[u] = intern(("matvec", d < u) + reads)
                nodes.append(Node(MATVEC, u, (n + k, d, u), (d < u,), vec[u], reads, "matvec"))
        else:
            (u, ku), (w, kw), kuw = links
            reads = (read(ku), vec[d], read(kw))
            value = intern(("coupling", d < u, d > w) + reads)
            out = n + kuw if mat[kuw] is None else coupling
            nodes.append(Node(COUPLE, out, (n + ku, d, n + kw), (d < u, d > w), value, reads,
                              "coupling"))
            if out == coupling:
                reads = (value, read(kuw))
                value = intern(("product",) + reads)
                nodes.append(Node(MUL, n + kuw, (coupling, n + kuw), (), value, reads,
                                  "product"))
            mat[kuw] = value
    if core is not None:
        dims, pairs = core
        a = dims[0]
        z = dims[3] if z is None else z
        x, y = (v for v in dims[1:] if v != z)
        slot = dict(zip(itertools.combinations(dims, 2), pairs))

        def rows_over(u, v):  # (register, transposed, value) of the (u, v) matrix, rows over u
            k = slot.get((u, v), slot.get((v, u)))
            return n + k, u > v, read(k)

        ax, ay, az, xy, xz, yz = (rows_over(u, v) for u, v in
                                  ((a, x), (a, y), (a, z), (x, y), (x, z), (y, z)))
        reads = (vec[a], ax[2], ay[2], az[2])
        t = intern(("k4 inner", x, y, z) + reads)
        nodes.append(Node(K4_INNER, inner, (a, ax[0], ay[0], az[0]), (ax[1], ay[1], az[1]),
                          t, reads, "k4 inner"))
        reads = (t, vec[z], yz[2], xz[2])
        g = intern(("k4 finish",) + reads)
        nodes.append(Node(K4_FINISH, finish, (inner, z, yz[0], xz[0]), (yz[1], xz[1]),
                          g, reads, "k4 finish"))
        nodes.append(Node(K4_CLOSE, None, (x, y, xy[0], finish), (xy[1],), None,
                          (g, vec[x], vec[y], xy[2]), "k4 close"))
    return tuple(nodes)


class Program(NamedTuple):
    """A compiled sum of contractions (`_program`), which `contract` runs on
    a register file of its input vectors, then its pair slots, then
    `temporaries` registers."""

    temporaries: int
    #: the instructions, each term's ending in END, which adds the term's
    #: scalar to the sum and clears the registers that no later term reads
    instructions: tuple


def _program(terms, inputs: int) -> Program:
    """The program that runs `terms` one after another on a register file
    whose first `inputs` registers hold the inputs.

    Each term is (its graph (`_compile`), per step whether it builds, loads
    or skips it, the values it keeps and those it drops (`_share`), the
    register of each of its vectors and pair slots).  A built step writes a
    new register, or overwrites in place one that the term wrote and does
    not keep, as the term alone would; a loaded step reads the register its
    builder wrote.  A term's END clears the registers it wrote and does not
    keep, and those of the values it drops.
    """
    instructions, home = [], {}
    top = inputs
    for nodes, acts, keep, drop, registers in terms:
        where, own = dict(enumerate(registers)), set()
        for node, builds in zip(nodes, acts):
            if builds is None:
                continue
            if not builds:
                where[node.out] = home[node.value]
                continue
            regs = tuple(where[k] for k in node.regs)
            out = ()
            if node.out is not None:
                target = where.get(node.out)
                if target not in own:
                    target, top = top, top + 1
                    own.add(target)
                if node.value in keep:
                    own.discard(target)
                    home[node.value] = target
                where[node.out] = target
                out = (target,)
            instructions.append((node.code,) + out + regs + node.flags)
        instructions.append((END, tuple(sorted(own | {home.pop(v) for v in drop}))))
    return Program(top - inputs, tuple(instructions))


def _alone(nodes, inputs) -> Program:
    """The program of one term (`_compile`) that builds every step, its
    vectors and pair slots in the registers `inputs`."""
    return _program([(nodes, [True] * len(nodes), (), (), inputs)], len(inputs))


@lru_cache(maxsize=1024)
def _standalone(n: int, present: tuple[bool, ...]) -> Program:
    """The program of n dimensions whose present pairs carry one matrix
    each."""
    nodes = _compile(_plan(n, present), range(n),
                     tuple((k,) if on else () for k, on in enumerate(present)), _interner())
    return _alone(nodes, range(n + len(present)))


def _head(array: np.ndarray, shape) -> np.ndarray:
    """The first prod(shape) entries of a contiguous array, viewed in shape."""
    return array.reshape(-1)[:math.prod(shape)].reshape(shape)


def contract(vectors, mats, program: Program | None = None) -> complex:
    """The sum of the terms that `program` contracts, run on the register
    file [*vectors, *mats, temporaries]; vectors are 1-d complex arrays and
    mats pair matrices, None for a pair without a factor, or a tuple of
    factors that a PAIR step multiplies.

    Without a program, `vectors` are the N <= MAX_N vectors of one
    contraction and `mats` its N(N-1)/2 pair matrices in
    itertools.combinations order, rows over the lower dimension, and the
    program is compiled from the pattern of present pairs (`_standalone`):
    dimensions are summed out along the pair graph (`_plan`), with no
    neighbour by a sum, with one by a matrix-vector product into the
    neighbour's vector (or, closing, into the scalar), with two by one
    matrix product into the neighbours' pair matrix; a remaining K4 core
    runs three steps.  A larger core raises ValueError.  `term_sum` runs a
    whole level in one call, its program compiled by `compile_schedule`.

    The K4 steps: one (m^2, m) x (m, m) product sums out a into the inner
    tensor T[x, y, z] = sum_a v_a M_ax M_ay M_az, one m^3 product
    F = T * (M_yz v_z) and one batched matrix-vector product
    G[x, y] = sum_z F[x, y, z] M_xz finish it, and v_x @ (M_xy * G) @ v_y
    closes.  Each dimension has its own size, since a folded level halves
    one (`ContourTables`).  T goes into the head of an "inner" buffer, and
    both the outer product over (a, x, y) that builds T and F into the head
    of an "outer" buffer; both are m^3 at the largest size m, allocated by
    the first inner tensor of the call, so a level allocates two m^3 arrays
    whichever dimension is halved, and a T that later terms read lives in
    its buffer until the next inner tensor overwrites it.  The outer product
    is a broadcast copy of v_a M_ax, multiplied in place by M_ay: a
    broadcasting multiply into `out` made numpy allocate iterator buffers
    for every inner tensor, 0.12 MiB of an N = 4 level's peak at m = 32.
    numpy's complex product is not bitwise commutative, so every operand
    order is part of the result.
    """
    if program is None:
        program = _standalone(len(vectors), tuple([m is not None for m in mats]))
    r = [*vectors, *mats, *itertools.repeat(None, program.temporaries)]
    total, scale = 0.0 + 0.0j, 1.0 + 0.0j
    inner = outer = None
    for step in program.instructions:
        code = step[0]
        if code == MATVEC:
            _, out, k, d, u, transposed = step
            # ndarray.dot: a third of matmul's call overhead on small operands
            r[out] = r[u] * (r[k].T if transposed else r[k]).dot(r[d])
        elif code == DOT:
            _, k, d, u, transposed = step
            scale *= r[u].dot((r[k].T if transposed else r[k]).dot(r[d]))
        elif code == END:
            total += complex(scale)
            scale = 1.0 + 0.0j
            for k in step[1]:
                r[k] = None
        elif code == PAIR:
            mat, *factors = r[step[2]]
            for factor in factors:
                mat = mat * factor
            r[step[1]] = mat
        elif code == MUL:
            r[step[1]] = r[step[2]] * r[step[3]]
        elif code == COUPLE:
            _, out, ku, d, kw, tu, tw = step
            r[out] = ((r[ku].T if tu else r[ku]) * r[d]).dot(r[kw].T if tw else r[kw])
        elif code == SUM:
            scale *= r[step[1]].sum()
        elif code == K4_CLOSE:
            _, x, y, xy, g, transposed = step
            scale *= complex(r[x] @ ((r[xy].T if transposed else r[xy]) * r[g]) @ r[y])
        elif code == K4_FINISH:
            _, out, t, z, yz, xz, tyz, txz = step
            f = np.multiply(r[t], (r[yz].T if tyz else r[yz]) * r[z],
                            out=_head(outer, r[t].shape))
            r[out] = np.matmul(f, (r[xz].T if txz else r[xz])[:, :, None]).reshape(f.shape[:2])
        else:  # K4_INNER
            _, out, a, ax, ay, az, tax, tay, taz = step
            ax, ay, az = (r[k].T if tk else r[k] for k, tk in ((ax, tax), (ay, tay), (az, taz)))
            (ma, mx), my, mz = ax.shape, ay.shape[1], az.shape[1]
            size = max(ma, mx, my, mz)
            if inner is None or len(inner) < size:
                inner, outer = (np.empty((size,) * 3, complex) for _ in range(2))
            w = _head(outer, (ma, mx, my))
            w[...] = (r[a][:, None] * ax)[:, :, None]
            w *= ay[:, None, :]
            t = r[out] = _head(inner, (mx, my, mz))
            np.matmul(w.reshape(ma, mx * my).T, az, out=t.reshape(mx * my, mz))
    return total


class LevelTables(NamedTuple):
    """The factor tables of one quadrature level, for either model.

    `vectors[d, s, pos]` is the factor of variable d placed at position pos
    with sign s, a negative entry's amplitude included (`ContourTables`).
    `smats[a, b]` is the scattering matrix of the signed variables a and b,
    rows over |a|; a pair it lacks is identically 1.  `schedule` is the
    compiled sum that `term_sum` runs on them (`compile_schedule`).
    """

    vectors: dict
    smats: dict
    schedule: Schedule

    def scaled(self, factors: dict) -> "LevelTables":
        """The tables with each vector times its key's entry in `factors`,
        sharing the matrices and the schedule: the tables of a derivative."""
        return self._replace(vectors={key: v * factors[key] if key in factors else v
                                      for key, v in self.vectors.items()})


@lru_cache(maxsize=16)
def signed_pairs(n: int, halfline: bool) -> tuple:
    """The signed pairs (a, b), a > b, whose S-matrices the terms of the
    (N, half/full line) sum use (`signed_perm.term_structure`), sorted:
    collected once per sum, not per level."""
    return tuple(sorted({ab for term in term_structure(n, halfline)
                         for invs in term.mats for ab in invs}))


def pair_matrices(n: int, halfline: bool, kind, build, fold=None) -> dict:
    """The read-only S-matrix of every signed pair (a, b) the (N, half/full
    line) terms use (`signed_pairs`), rows over |a|, for either model: the
    model says which pairs have one matrix, `kind(a, b)`, and builds it,
    `build(kind, rows)`, with rows None for all of a's nodes.

    In both models S(-b, -a) = S(a, b)^T, so only the pairs with a + b >= 0
    are built, all with a > 0, and the others are transposed views of their
    partners.  Pairs of one kind share one matrix.

    `fold` is None or the kept nodes of the last variable N on a folded
    level (`ContourTables`).  A pair with a + b >= 0 holds N, if at all, as
    a, so its matrices take the kept rows: views of the full matrix where a
    pair without N has their kind, else `build(kind, fold)` on those rows
    alone.  Either way each kind's rows are built once.
    """
    pairs = signed_pairs(n, halfline)
    kinds = {(a, b): kind(a, b) for a, b in pairs if a + b >= 0}
    full = {k for (a, _), k in kinds.items() if fold is None or a != n}
    built, smats = {}, {}
    for (a, b), k in kinds.items():
        if k not in built:
            built[k] = build(k, None if k in full else fold)
            built[k].flags.writeable = False
        cut = fold is not None and a == n and k in full
        smats[a, b] = built[k][fold] if cut else built[k]
    for a, b in pairs:
        if a + b < 0:
            smats[a, b] = smats[-b, -a].T
    return smats


class Schedule(NamedTuple):
    """The terms of one sum compiled for one pattern of S-matrices
    (`compile_schedule`): `term_sum` runs `program` on the level's
    `vectors`, then its `folds`, then its `slots`."""

    #: the distinct vector keys (d, sign, pos) the terms read, sign +-1
    vectors: tuple
    #: the (d, pos) of the folded vectors v+ + v- they read, sign 0
    folds: tuple
    #: per distinct pair of the terms, its inversions' S-matrix keys, each
    #: with whether it is transposed to rows over the lower dimension
    slots: tuple
    #: (indices into `vectors` + `folds` per dimension, indices into `slots`
    #: per pair, the term's value graph (`_compile`), whose `_alone` program
    #: contracts the term on its own) per term, in run order
    terms: tuple
    #: per kind of `STEP_KINDS`, (steps a level computes, steps its terms read)
    steps: dict
    #: the level's one `Program`, the terms' steps in run order, each term's
    #: ending in END
    program: Program


@lru_cache(maxsize=64)
def compile_schedule(n: int, halfline: bool, pairs: frozenset) -> Schedule:
    """The terms of the (N, half/full line) sum
    (`signed_perm.term_structure`) compiled for `term_sum` on tables that
    carry the S-matrices of the signed pairs in `pairs`, once per pattern:
    `ContourTables` looks its schedule up when it is built.

    Each step of a term (`_compile`) is keyed by its operands, so equal steps
    of two terms are one value.  The terms are ordered by the values they
    share with other terms, costliest first, so that the terms that build
    one value follow one another; these runs nest, a K4 inner tensor's run
    holding the runs of its finishes, and those of the couplings and pair
    products within.  A value is built by the first term of its run that
    needs it, kept while a later term of the run reads it and dropped after
    the last (`_share`); a step that only fed loaded values is skipped.
    Terms that share nothing keep their order and run their steps as built.
    The level's `Program` (`_program`) runs every term on one register
    file: the level's vectors, folded vectors and pair slots, then
    temporaries; a kept value stays in the register its builder wrote until
    the END of the term that drops it.

    Every complete term (all pairs present, N >= 3) sums out the same
    dimension first, the one that gives the fewest distinct first steps,
    ties to the highest index: on the half line dimension 0, with 15 K4
    inner tensors for the 60 complete terms at N = 4 and 7 couplings for 12
    at N = 3.  The terms of one K4 inner tensor sum in their finish the
    dimension that leaves the fewest distinct finishes (`_finish_dims`).
    """
    dim_pairs = list(itertools.combinations(range(n), 2))
    terms = [(term.vectors, tuple(tuple(ab for ab in invs if ab in pairs)
                                  for invs in term.mats)) for term in term_structure(n, halfline)]
    complete = [i for i, (_, slots) in enumerate(terms) if n >= 3 and all(slots)]

    def first_step(i, first):
        keys, slots = terms[i]
        return keys[first], tuple(s for pair, s in zip(dim_pairs, slots) if first in pair)

    first = min(range(n), key=lambda f: (len({first_step(i, f) for i in complete}), -f))
    plans = [_plan(n, tuple(map(bool, slots)), first if i in complete else None)
             for i, (_, slots) in enumerate(terms)]
    finish = _finish_dims(terms, plans)
    intern = _interner()
    graphs = [_compile(plan, keys, slots, intern, finish.get(i))
              for i, (plan, (keys, slots)) in enumerate(zip(plans, terms))]
    order = _run_order(graphs)
    # the plain vectors first, then the folded ones
    vectors = sorted({key for term_keys, _ in terms for key in term_keys},
                     key=lambda key: (not key[1], key))
    slots = sorted({slot for _, term_slots in terms for slot in term_slots})
    steps = {kind: [0, 0] for kind in STEP_KINDS}
    scheduled, level = [], []
    for i, (acts, keep, drop) in zip(order, _share(graphs, order)):
        for node, builds in zip(graphs[i], acts):
            steps[node.kind][1] += 1
            steps[node.kind][0] += bool(builds)
        term_keys, term_slots = terms[i]
        vector_ids = tuple(map(vectors.index, term_keys))
        slot_ids = tuple(map(slots.index, term_slots))
        scheduled.append((vector_ids, slot_ids, graphs[i]))
        level.append((graphs[i], acts, keep, drop,
                      vector_ids + tuple(len(vectors) + k for k in slot_ids)))
    return Schedule(tuple(key for key in vectors if key[1]),
                    tuple((d, pos) for d, sign, pos in vectors if not sign),
                    tuple(tuple((ab, abs(ab[0]) > abs(ab[1])) for ab in slot)
                          for slot in slots),
                    tuple(scheduled), {kind: tuple(counts) for kind, counts in steps.items()},
                    _program(level, len(vectors) + len(slots)))


def _finish_dims(terms, plans) -> dict:
    """Per term with a K4 core, the dimension z its finish sums: for all the
    terms of one inner tensor, the one of its three dimensions whose vector
    and pair matrices take the fewest distinct values, ties to the highest."""
    runs = collections.defaultdict(list)
    for i, ((keys, slots), (_, core)) in enumerate(zip(terms, plans)):
        if core is not None:
            (a, *rest), pairs = core
            slot = dict(zip(itertools.combinations(core[0], 2), (slots[k] for k in pairs)))
            runs[(keys[a],) + tuple(slot[a, v] for v in rest)].append(
                (i, {z: (keys[z],) + tuple(slot[p] for p in itertools.combinations(rest, 2)
                                           if z in p) for z in rest}))
    finish = {}
    for members in runs.values():
        z = min(members[0][1], key=lambda v: (len({ops[v] for _, ops in members}), -v))
        finish.update((i, z) for i, _ in members)
    return finish


def _run_order(graphs) -> list:
    """The terms ordered by the ids of the values each shares with other
    terms, costliest kind first (`STEP_KINDS`), then in step order: terms
    that build a value follow one another, and terms that share nothing
    keep their order."""
    builders = collections.Counter(v for nodes in graphs for v in {node.value for node in nodes})
    rank = {kind: r for r, kind in enumerate(STEP_KINDS)}

    def shared_values(i):
        return [v for *_, v in sorted((rank[node.kind], j, node.value)
                                      for j, node in enumerate(graphs[i])
                                      if node.value is not None and builders[node.value] > 1)]

    return sorted(range(len(graphs)), key=shared_values)


def _share(graphs, order) -> list:
    """Per term in `order`: per step whether the term builds it (True),
    loads it (False) or skips it (None), the values it keeps for a later
    term and those it drops after its last reader.

    A value's run is the consecutive terms whose graphs contain it.  A term
    needs the steps that multiply its scalar and, from the last step back,
    what the steps it builds read.  It loads a needed value that an earlier
    term of the run built, and builds the others."""
    built = set()
    acts, history = [], collections.defaultdict(list)
    for at, i in enumerate(order):
        nodes = graphs[i]
        built &= {node.value for node in nodes}
        wanted, act = set(), [None] * len(nodes)
        for j in reversed(range(len(nodes))):
            value = nodes[j].value
            if value is None or value in wanted:
                act[j] = value not in built
                if act[j]:
                    wanted.update(nodes[j].reads)
                if value is not None:
                    history[value].append((at, act[j]))
        built.update(node.value for node, builds in zip(nodes, act)
                     if builds and node.value is not None)
        acts.append(act)
    keep, drop = ([set() for _ in order] for _ in range(2))
    for value, events in history.items():
        for (at, builds), (_, builds_next) in zip(events, events[1:] + [(None, True)]):
            if builds and not builds_next:
                keep[at].add(value)
            elif not builds and builds_next:
                drop[at].add(value)
    return list(zip(acts, keep, drop))


def _factors(smats, slot):
    """The S-matrices of one pair's inversions (`Schedule.slots`), rows over
    the lower dimension: None for none, the matrix for one, else their
    tuple."""
    factors = [smats[key].T if transposed else smats[key] for key, transposed in slot]
    return factors[0] if len(factors) == 1 else tuple(factors) or None


def term_sum(tables: LevelTables) -> complex:
    """Sum of the contracted integrands of the signed-permutation sum that
    the tables' schedule compiles, at one quadrature level.

    A folded vector (sign 0) is v+ + v-, the partner's amplitude riding in
    v-, formed once per level, as is each pair's tuple of S-matrices,
    oriented with rows over the lower dimension.  One `contract` call runs
    the schedule's `Program` on them: every term in run order, each shared
    step passed on in its register from the term that builds it to the
    later terms of its run, and the K4 steps writing into the call's two
    m^3 buffers.  `contract` is looked up here at each call, where a tracer
    may have wrapped it.
    """
    schedule = tables.schedule
    given = tables.vectors
    vecs = [given[key] for key in schedule.vectors]
    vecs += [given[d, 1, pos] + given[d, -1, pos] for d, pos in schedule.folds]
    mats = [_factors(tables.smats, slot) for slot in schedule.slots]
    return contract(vecs, mats, schedule.program)


#: source factors (`ContourTables.source`) one set of contour tables keeps;
#: each holds one vector of the level's nodes, 16 m bytes
MAX_SOURCE_FACTORS = 64


class ContourTables:
    """The factor tables of one quadrature level that do not depend on Y, X
    or t, for either model, on the node arrays pos[d] and, on the half line,
    neg[d] (None on the full line), with the S-matrices `matrices` builds,
    if any.

    Per variable d: `nodes[d, s]`, s = -1 the reflected node (tau/xi or -k),
    on the half line only; `weights[d]`, for the exclusion process times the
    1/xi of xi^(x-y-1); `energies[d]`, the e of e^(e t) (eps(xi) or -i k^2)
    for both signs; `amplitudes[d]`, a negative entry's amplitude (r(tau/xi)
    or -1).  `wave(nodes, x)` is the plane wave, xi^x or e^(ikx).  Each
    model supplies its S-matrices and position waves:

    * `smats` is None, for no S-matrices, or the S-matrix of every signed
      pair the sum uses, the folded variable's on its kept nodes: both
      models build them with `pair_matrices`, the exclusion process from
      two-dimensional node values, the Bose gas by spreading each from its
      Toeplitz or Hankel diagonal (`bose_exact._line_matrices`);
    * `waves(x)`, if given, gives the plane wave at position x of every
      (d, s) of `nodes`, on its kept nodes; by default it is `wave` at each
      node array (ASEP's powers), while the Bose lines take one exponential
      per position (`bose_exact._line_contour`).

    `half` is None, or (slice of the kept nodes, weight factor per kept
    node) for a level whose every factor is conjugate-symmetric: at the
    mirror image of a node (`contour_quad.circle_half`, `line_half`) each
    factor takes its complex conjugate, so the terms at two mirror grid
    points are conjugates, and the level is the real part of the sum in
    which one variable runs over its kept nodes only, each weight times its
    factor (2, or 1 at a node that is its own mirror image).  That variable,
    `fold`, is the last one, N - 1, and all its tables hold its kept nodes
    only; `fold` is None on an unfolded level.  `evaluate` keeps the real
    part.  Every contraction step that reads the last variable is halved.
    The half-line terms sum out dimension 0 first (`compile_schedule`), so
    N - 1 halves that first step too, the N = 3 couplings and the N = 4 K4
    inner tensor, and then stays in what they leave: the K4 finishes and
    the matrix-vector products that follow; on the full line N - 1 is the
    dimension summed out first.

    `schedule` is the sum the tables feed (`compile_schedule`): N, the half
    line if there are reflected nodes, and the signed pairs in `smats`.  It
    is looked up once, here, and every `level` carries it.
    """

    def __init__(self, pos, neg, weights, energies, amplitudes, wave, smats=None,
                 half=None, waves=None):
        self.fold = None if half is None else len(pos) - 1
        keep, factor = half or (None, None)

        def kept(d, table):  # variable d's table on its kept nodes
            return table[keep] if d == self.fold and isinstance(table, np.ndarray) else table

        self.nodes = {(d, 1): kept(d, v) for d, v in enumerate(pos)}
        if neg is not None:
            self.nodes.update({(d, -1): kept(d, v) for d, v in enumerate(neg)})
        self.weights = [kept(d, w) for d, w in enumerate(weights)]
        if half is not None:
            self.weights[self.fold] = self.weights[self.fold] * factor
            self.weights[self.fold].flags.writeable = False
        self.energies = [kept(d, e) for d, e in enumerate(energies)]
        self.amplitudes = [kept(d, a) for d, a in enumerate(amplitudes)]
        self.smats = smats or {}
        self.wave, self._waves = wave, waves
        self.schedule = compile_schedule(len(pos), neg is not None, frozenset(self.smats))
        self._sources = {}

    def waves(self, x) -> dict:
        """The plane wave at position x of every (d, s) of `nodes`."""
        if self._waves is not None:
            return self._waves(x)
        return {key: self.wave(v, x) for key, v in self.nodes.items()}

    @property
    def nbytes(self) -> int:
        """Bytes of the distinct arrays held, a view counted as its base."""
        arrays = (*self.nodes.values(), *self.weights, *self.energies,
                  *self.amplitudes, *self.smats.values(), *self._sources.values())
        return sum({id(a if a.base is None else a.base): a.nbytes
                    for a in arrays if isinstance(a, np.ndarray)}.values())

    def source(self, d, yd, t) -> np.ndarray:
        """The source factor w_d wave(nodes[d, 1], -y_d) e^(e_d t) of variable
        d, kept for the next call with the same (d, y_d, t): every target of
        one distribution shares it.  At most MAX_SOURCE_FACTORS are kept, the
        oldest dropped first."""
        key = (d, yd, t)
        factor = self._sources.get(key)
        if factor is None:
            if len(self._sources) >= MAX_SOURCE_FACTORS:
                del self._sources[next(iter(self._sources))]
            factor = (self.weights[d] * self.wave(self.nodes[d, 1], -yd)
                      * np.exp(self.energies[d] * t))
            factor.flags.writeable = False
            self._sources[key] = factor
        return factor

    def level(self, y, x, t) -> LevelTables:
        """The level tables of one call: vector (d, s, j) is the source
        factor of (d, y_d, t) (`source`) times waves(x_j)[d, s], times the
        amplitude at s = -1."""
        signs = (1, -1) if (0, -1) in self.nodes else (1,)
        waves = [self.waves(xj) for xj in x]
        vectors = {}
        for d, yd in enumerate(y):
            base = self.source(d, yd, t)
            for s in signs:
                for j, wave in enumerate(waves):
                    v = base * wave[d, s]
                    vectors[d, s, j] = v * self.amplitudes[d] if s < 0 else v
        return LevelTables(vectors, self.smats, self.schedule)


def evaluate(contour_at, y, x, t, opts, resolutions=None, functional=None):
    """(value, error_estimate, m) of one sum of either model, refined by
    `adaptive_eval` on the model's schedule `resolutions` (None doubles
    from opts.initial_points) after the one N <= MAX_N and |X| = |Y| check
    of every entry point.  `contour_at(m)` gives the `ContourTables` of
    resolution m, which decide the sum: half or full line, and its
    compiled schedule.  A level is term_sum of the
    tables of (Y, X, t) or, given `functional(contour, tables)`, the sum of
    coef * term_sum(tables.scaled(factors)) over the (coef, factors) it
    lists.  On folded tables the level is the real part of that sum, taken
    once: the coefficients are then real and each factor
    conjugate-symmetric, as the fold needs.
    """
    if len(y) > MAX_N:
        raise ValueError(f"evaluators support N <= {MAX_N}")
    if len(x) != len(y):
        raise ValueError("X and Y must hold the same number of particles")

    def level(m):
        contour = contour_at(m)
        tables = contour.level(y, x, t)
        if functional is None:
            value = term_sum(tables)
        else:
            value = sum(coef * term_sum(tables.scaled(factors))
                        for coef, factors in functional(contour, tables))
        return value if contour.fold is None else value.real

    return adaptive_eval(level, opts, resolutions=resolutions)


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
