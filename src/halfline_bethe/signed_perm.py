"""Combinatorics of signed permutations (the hyperoctahedral group B_N).

A signed permutation on N letters is a map sigma with sigma(i) in
{-N,...,-1} u {1,...,N} whose absolute values form an ordinary permutation
of 1..N.  Everything in this module is exact integer combinatorics; the
reflected-variable meaning of a negative entry (k_{-a} = -k_a,
xi_{-a} = tau/xi_a) lives in `scattering`.

Positions are 1-based in the mathematical notation; `values[i]` holds
sigma(i+1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import SizeLimitError

# 2^8 * 8! ~ 1e7 elements is the desk-scale enumeration ceiling
MAX_ENUMERATION_N = 8


@dataclass(frozen=True)
class SignedPermutation:
    """One-line notation: values = (sigma(1), ..., sigma(N))."""

    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 1:
            raise ValueError("signed permutation needs at least one entry")
        if any(v == 0 for v in vals):
            raise ValueError(f"entries must be nonzero: {vals}")
        if sorted(abs(v) for v in vals) != list(range(1, len(vals) + 1)):
            raise ValueError(f"absolute values must permute 1..N: {vals}")

    @property
    def n(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


class Inversion(NamedTuple):
    """A pair (+-sigma(i), sigma(j)) with i < j and +-sigma(i) > sigma(j)."""

    first: int
    second: int


def identity(n: int) -> SignedPermutation:
    """The identity element (1, 2, ..., n).

    >>> identity(3).values
    (1, 2, 3)
    """
    return SignedPermutation(tuple(range(1, n + 1)))


def enumerate_bn(n: int) -> list[SignedPermutation]:
    """All 2^n * n! signed permutations, lexicographically ordered by values.

    >>> [s.values for s in enumerate_bn(1)]
    [(-1,), (1,)]
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise SizeLimitError(
            f"enumerate_bn supports 1 <= n <= {MAX_ENUMERATION_N}, got {n}"
        )
    out = [
        SignedPermutation(tuple(s * v for v, s in zip(perm, signs)))
        for perm in itertools.permutations(range(1, n + 1))
        for signs in itertools.product((1, -1), repeat=n)
    ]
    out.sort(key=lambda sp: sp.values)
    return out


def enumerate_sn(n: int) -> list[SignedPermutation]:
    """The all-positive subgroup S_n inside B_n, same ordering convention."""
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise SizeLimitError(
            f"enumerate_sn supports 1 <= n <= {MAX_ENUMERATION_N}, got {n}"
        )
    out = [
        SignedPermutation(perm)
        for perm in itertools.permutations(range(1, n + 1))
    ]
    out.sort(key=lambda sp: sp.values)
    return out


@lru_cache(maxsize=65536)
def _inversions_cached(values: tuple[int, ...]) -> tuple[Inversion, ...]:
    out = []
    for i, vi in enumerate(values):
        for vj in values[i + 1:]:
            if vi > vj:
                out.append(Inversion(vi, vj))
            if -vi > vj:
                out.append(Inversion(-vi, vj))
    return tuple(out)


def inversions(sigma: SignedPermutation) -> list[Inversion]:
    """Inversions of sigma: pairs (+-sigma(i), sigma(j)), i < j, +-sigma(i) > sigma(j).

    For each position pair (i, j) the unsigned candidate (sigma(i), sigma(j))
    is emitted before the negated one; pairs are scanned in lexicographic
    (i, j) order.

    >>> [tuple(v) for v in inversions(SignedPermutation((-3, 1, -2)))]
    [(3, 1), (3, -2), (1, -2), (-1, -2)]
    """
    return list(_inversions_cached(sigma.values))


def neg_count(sigma: SignedPermutation) -> int:
    """Number of positions with sigma(i) < 0."""
    return sum(1 for v in sigma.values if v < 0)


class Term(NamedTuple):
    """One signed permutation, as the keys of the table entries its
    integrand reads (`_kernels.LevelTables`)."""

    #: per dimension d (variable d+1), the key (d, sign, position) of its
    #: vector; sign 0 marks the folded entry v+ + v-, whose term also stands
    #: for its `negate_first` partner (the two share every inversion)
    vectors: tuple[tuple[int, int, int], ...]
    #: per dimension pair, in itertools.combinations(range(n), 2) order, the
    #: signed inversions (a, b) whose S-matrices multiply there, in
    #: `inversions` order
    mats: tuple[tuple[tuple[int, int], ...], ...]


def compile_term(sigma: SignedPermutation) -> Term:
    """sigma's vector keys and its inversions by dimension pair, unfolded."""
    vectors = [None] * sigma.n
    for pos, v in enumerate(sigma.values):
        vectors[abs(v) - 1] = (abs(v) - 1, 1 if v > 0 else -1, pos)
    mats = {pair: () for pair in itertools.combinations(range(sigma.n), 2)}
    for a, b in inversions(sigma):
        da, db = abs(a) - 1, abs(b) - 1
        mats[min(da, db), max(da, db)] += ((a, b),)
    return Term(tuple(vectors), tuple(mats.values()))


@lru_cache(maxsize=32)
def term_structure(n: int, halfline: bool) -> tuple[Term, ...]:
    """The terms `_kernels.term_sum` contracts for B_n (halfline) or S_n,
    compiled once per (n, group).

    For B_n only the sigma with sigma(1) > 0 are listed, by sigma(1), each
    with its entry at position 0 folded (sign 0): a sigma and its
    `negate_first` partner share every scattering factor, so one contraction
    covers both.  `group_order` counts the unfolded terms.  Two listed terms
    that differ only in the sign of variable 1 share every factor but those
    of dimension 0, which `_kernels.compile_schedule` stacks to contract
    them as one: 2^(n-1) n! terms here, 126 contractions at n = 4.
    """
    if not halfline:
        return tuple(compile_term(s) for s in enumerate_sn(n))
    terms = (compile_term(s) for s in enumerate_bn(n) if s.values[0] > 0)
    return tuple(term._replace(vectors=tuple((d, 0 if pos == 0 else sign, pos)
                                             for d, sign, pos in term.vectors))
                 for term in terms)


def group_order(n: int, halfline: bool) -> int:
    """|B_n| = 2^n n! (halfline) or |S_n| = n!: the number of terms a sum
    over the group has before folding."""
    return 2 ** n * math.factorial(n) if halfline else math.factorial(n)


def apply_adjacent_transposition(sigma: SignedPermutation, i: int) -> SignedPermutation:
    """T_i: swap the values at (1-based) positions i and i+1."""
    if not 1 <= i <= sigma.n - 1:
        raise ValueError(f"transposition index must satisfy 1 <= i <= N-1, got {i}")
    vals = list(sigma.values)
    vals[i - 1], vals[i] = vals[i], vals[i - 1]
    return SignedPermutation(tuple(vals))


def negate_first(sigma: SignedPermutation) -> SignedPermutation:
    """The partner with sigma'(1) = -sigma(1) and all other entries unchanged.

    An involution; it preserves the inversion multiset (both candidates
    +-sigma(1) are tested against every later entry, so flipping the first
    sign only reorders which candidate fires).
    """
    vals = (-sigma.values[0],) + sigma.values[1:]
    return SignedPermutation(vals)


def ab_pair(sigma: SignedPermutation, a: int, b: int) -> SignedPermutation:
    """Swap the magnitudes a and b wherever they occur, keeping signs in place.

    >>> ab_pair(SignedPermutation((1, -2, 3, 5, -4)), 2, 5).values
    (1, -5, 3, 2, -4)
    """
    n = sigma.n
    if a == b:
        raise ValueError("magnitudes a and b must differ")
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"magnitudes must lie in 1..{n}: got ({a}, {b})")
    swap = {a: b, b: a}
    vals = tuple(
        (1 if v > 0 else -1) * swap.get(abs(v), abs(v)) for v in sigma.values
    )
    return SignedPermutation(vals)
