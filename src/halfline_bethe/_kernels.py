"""Hot numerical kernels.

Two kernel families live here:

* ``contract``: sum over a full tensor grid of a factorized integrand
  prod_d v_d[m_d] * prod_{d1<d2} M_{d1 d2}[m_{d1}, m_{d2}], as BLAS-backed
  matrix products.  Every exact evaluator reduces its per-term quadrature to
  this shape, and ``term_sum`` sums it over the signed-permutation terms of
  both models.
* the jump-chain simulator behind the Monte Carlo oracle, with a SplitMix64
  substream per trial so runs are reproducible and trial-order independent.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: largest particle number the evaluators accept: a cap on cost, not on code,
#: since one contraction costs m^N and a level runs 2^N N! of them
MAX_N = 4


# ---------------------------------------------------------------------------
# tensor contraction
# ---------------------------------------------------------------------------

def contract(vectors, mats) -> complex:
    """BLAS-backed contraction for any N; vectors is a list of N 1-d complex
    arrays and mats the N(N-1)/2 matrices in itertools.combinations order.

    Dimensions N-1 down to 2 are summed out in turn: the first by folding v_j
    into M_0j and one product with M_(j-1)j, each later one by multiplying its
    pair matrices in place and one product with v_j.  numpy's complex product
    is not bitwise commutative, so every operand order is part of the result.
    """
    n = len(vectors)
    if n == 1:
        return complex(vectors[0].sum())
    m = vectors[0].size
    pair = dict(zip(itertools.combinations(range(n), 2), mats))
    f = None  # the eliminated dimensions, as a tensor over dimensions 0..j-1
    for j in range(n - 1, 1, -1):
        if f is None:
            w = pair[0, j] * vectors[j]
            for i in range(1, j - 1):
                w = w[..., None, :] * pair[i, j]
            f = (w.reshape(-1, m) @ pair[j - 1, j].T).reshape((m,) * j)
            del w  # so the next allocation can reuse its memory
            continue
        for i in range(j - 1, -1, -1):
            axes = [1] * (j + 1)
            axes[i] = axes[j] = m
            f *= pair[i, j].reshape(axes)
        f = f @ vectors[j]
    coupled = pair[0, 1] if f is None else pair[0, 1] * f
    return complex(vectors[0] @ coupled @ vectors[1])


def term_sum(tables, terms, insert=None) -> complex:
    """Sum of the contracted integrands of compiled signed-permutation terms
    (`signed_perm.term_structure`) at one quadrature level.

    `tables` is a model's factor table: `tables.vectors[d, sign, pos]` is the
    per-dimension factor of variable d placed at position pos with that sign,
    `tables.smat(a, b)` the scattering matrix between the signed variables a
    and b (None where it is identically 1), and `tables.signed` whether a
    term carries its parity.  `insert(tables, term)`, if given, lists
    (d, factor, scale): the term is then contracted once per entry, with
    dimension d's vector multiplied by factor (d None: no factor), and added
    with weight scale.
    """
    n = len(terms[0].dims)
    size = tables.vectors[0, 1, 0].size
    ones = np.ones((size, size), dtype=complex) if n > 1 else None
    total = 0.0 + 0.0j
    for term in terms:
        vectors = [tables.vectors[d, s, pos] for d, (s, pos) in enumerate(term.dims)]
        mats = [None] * (n * (n - 1) // 2)
        for k, a, b, transpose in term.invs:
            m = tables.smat(a, b)
            if m is None:
                continue
            if transpose:
                m = m.T
            mats[k] = m if mats[k] is None else mats[k] * m
        mats = [ones if m is None else np.ascontiguousarray(m) for m in mats]
        sign = term.parity if tables.signed else 1.0
        if insert is None:
            total += sign * contract(vectors, mats)
            continue
        for d, factor, scale in insert(tables, term):
            inserted = list(vectors)
            if d is not None:
                inserted[d] = inserted[d] * factor
            total += sign * scale * contract(inserted, mats)
    return total


# ---------------------------------------------------------------------------
# SplitMix64 substreams + jump-chain simulator
# ---------------------------------------------------------------------------

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64_py(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def _trial_state_py(seed: int, trial: int) -> int:
    return (seed + (trial + 1) * _GOLDEN) & _MASK


def _next_unit_py(state: int) -> tuple[int, float]:
    state = (state + _GOLDEN) & _MASK
    return state, (_mix64_py(state) >> 11) * 2.0 ** -53


def _gillespie_hits_py(y, x, t, p, q, halfline, trials, seed):
    """Count trials whose configuration at time t equals x.

    One SplitMix64 substream per trial, derived from (seed, trial index); two
    runs with the same seed produce identical counts.
    """
    n = y.size
    s = np.empty(n, np.int64)
    move_site = np.empty(2 * n, np.int64)
    move_step = np.empty(2 * n, np.int64)
    move_rate = np.empty(2 * n, np.float64)
    hits = 0
    for trial in range(trials):
        state = _trial_state_py(seed, trial)
        for i in range(n):
            s[i] = y[i]
        tcur = 0.0
        while True:
            nm = 0
            total = 0.0
            for i in range(n):
                if i == n - 1 or s[i + 1] > s[i] + 1:
                    move_site[nm] = i
                    move_step[nm] = 1
                    move_rate[nm] = p
                    total += p
                    nm += 1
                if (not halfline or s[i] >= 1) and (i == 0 or s[i - 1] < s[i] - 1):
                    move_site[nm] = i
                    move_step[nm] = -1
                    move_rate[nm] = q
                    total += q
                    nm += 1
            if total <= 0.0:
                break
            state, u1 = _next_unit_py(state)
            tcur += -math.log(1.0 - u1) / total
            if tcur > t:
                break
            state, u2 = _next_unit_py(state)
            r = u2 * total
            pick = nm - 1
            acc = 0.0
            for j in range(nm):
                acc += move_rate[j]
                if r < acc:
                    pick = j
                    break
            s[move_site[pick]] += move_step[pick]
        ok = True
        for i in range(n):
            if s[i] != x[i]:
                ok = False
                break
        if ok:
            hits += 1
    return hits


def gillespie_hits(y, x, t, p, q, halfline, trials, seed) -> int:
    y = np.asarray(y, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return int(_gillespie_hits_py(y, x, float(t), float(p), float(q),
                                  bool(halfline), int(trials), int(seed)))
