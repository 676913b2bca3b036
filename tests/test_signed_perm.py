import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfline_bethe.errors import SizeLimitError
from halfline_bethe.signed_perm import (Inversion, SignedPermutation, ab_pair,
                                        apply_adjacent_transposition,
                                        compile_term, enumerate_bn,
                                        enumerate_sn, group_order, identity,
                                        inversions, neg_count, negate_first,
                                        term_structure)


def random_sigma(draw_n=st.integers(1, 5)):
    """Hypothesis strategy for a signed permutation."""
    return draw_n.flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))),
            st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
        ).map(lambda pair: SignedPermutation(
            tuple(s * v for v, s in zip(pair[0], pair[1]))))
    )


def _partner(term):
    """The `negate_first` partner of a term: the sign of the dimension at
    position 0 flipped, the same inversions, unfolded."""
    d = next(d for d, (_, pos) in enumerate(term.dims) if pos == 0)
    dims = list(term.dims)
    dims[d] = (-dims[d][0], 0)
    return term._replace(dims=tuple(dims), fold=None)


class TestConstruction:
    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            SignedPermutation((1, 0, 2))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            SignedPermutation((1, 1))
        with pytest.raises(ValueError):
            SignedPermutation((1, 3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SignedPermutation(())


class TestEnumeration:
    def test_n1(self):
        elems = enumerate_bn(1)
        assert [s.values for s in elems] == [(-1,), (1,)]

    def test_n2_size(self):
        assert len(enumerate_bn(2)) == 8

    def test_n3_size_and_membership(self):
        elems = enumerate_bn(3)
        assert len(elems) == 48
        assert SignedPermutation((-3, 1, -2)) in elems

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_distinct_sorted(self, n):
        elems = enumerate_bn(n)
        assert len(elems) == 2 ** n * [1, 1, 2, 6, 24][n]
        vals = [s.values for s in elems]
        assert len(set(vals)) == len(vals)
        assert vals == sorted(vals)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            enumerate_bn(0)
        with pytest.raises(SizeLimitError):
            enumerate_bn(9)

    def test_sn_subset(self):
        sn = enumerate_sn(3)
        assert len(sn) == 6
        assert all(all(v > 0 for v in s.values) for s in sn)


class TestInversions:
    def test_worked_example(self):
        got = {tuple(i) for i in inversions(SignedPermutation((-3, 1, -2)))}
        assert got == {(3, 1), (3, -2), (-1, -2), (1, -2)}

    def test_identity_empty(self):
        assert inversions(identity(4)) == []

    def test_single_swap(self):
        assert {tuple(i) for i in inversions(SignedPermutation((2, 1)))} == {(2, 1)}

    def test_singleton_negative(self):
        assert inversions(SignedPermutation((-1,))) == []

    def test_positive_sigmas_reduce_to_classical(self):
        # negative-first candidates never fire when all values are positive
        for sigma in enumerate_sn(4):
            got = inversions(sigma)
            vals = sigma.values
            classical = [
                Inversion(vals[i], vals[j])
                for i in range(4) for j in range(i + 1, 4)
                if vals[i] > vals[j]
            ]
            assert got == classical

    def test_deterministic_order(self):
        got = [tuple(i) for i in inversions(SignedPermutation((-3, 1, -2)))]
        assert got == [(3, 1), (3, -2), (1, -2), (-1, -2)]


class TestNegCount:
    @pytest.mark.parametrize("vals,count", [
        ((-3, 1, -2), 2),
        ((1, 2, 3), 0),
        ((-1,), 1),
    ])
    def test_examples(self, vals, count):
        assert neg_count(SignedPermutation(vals)) == count


class TestAdjacentTransposition:
    def test_examples(self):
        assert apply_adjacent_transposition(
            SignedPermutation((-3, 1, -2)), 1).values == (1, -3, -2)
        assert apply_adjacent_transposition(
            SignedPermutation((1, 2, 3)), 2).values == (1, 3, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_adjacent_transposition(identity(3), 0)
        with pytest.raises(ValueError):
            apply_adjacent_transposition(identity(3), 3)

    @given(random_sigma(), st.data())
    def test_involution(self, sigma, data):
        if sigma.n < 2:
            return
        i = data.draw(st.integers(1, sigma.n - 1))
        assert apply_adjacent_transposition(
            apply_adjacent_transposition(sigma, i), i) == sigma


class TestNegateFirst:
    def test_examples(self):
        assert negate_first(SignedPermutation((-3, 1, -2))).values == (3, 1, -2)
        assert negate_first(SignedPermutation((1,))).values == (-1,)

    def test_preserves_inversions(self):
        assert inversions(SignedPermutation((3, 1, -2))) == \
            inversions(SignedPermutation((-3, 1, -2)))

    @given(random_sigma())
    def test_involution_and_inversion_multiset(self, sigma):
        flipped = negate_first(sigma)
        assert negate_first(flipped) == sigma
        assert sorted(inversions(flipped)) == sorted(inversions(sigma))
        assert abs(neg_count(flipped) - neg_count(sigma)) == 1

    @given(random_sigma(st.integers(1, 4)))
    def test_partners_compile_to_the_same_pair_factors(self, sigma):
        term, flipped = compile_term(sigma), compile_term(negate_first(sigma))
        assert sorted(term.invs) == sorted(flipped.invs)
        # the flipped term is the folded one with the sign at position 0
        # negated, which is what term_sum's fold assumes
        assert flipped._replace(invs=term.invs) == _partner(term)


class TestTermStructure:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_halfline_folds_each_partner_pair_once(self, n):
        terms = term_structure(n, True)
        assert 2 * len(terms) == group_order(n, True) == len(enumerate_bn(n))
        assert all(term.dims[term.fold] == (1, 0) for term in terms)
        # the terms and their partners are B_n, each element once
        covered = [t.dims for t in terms] + [u.dims for u in map(_partner, terms)]
        assert sorted(covered) == sorted(u.dims for u in
                                         map(compile_term, enumerate_bn(n)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fullline_is_unfolded(self, n):
        terms = term_structure(n, False)
        assert len(terms) == group_order(n, False) == len(enumerate_sn(n))
        assert all(term.fold is None for term in terms)


class TestAbPair:
    def test_worked_example(self):
        got = ab_pair(SignedPermutation((1, -2, 3, 5, -4)), 2, 5)
        assert got.values == (1, -5, 3, 2, -4)

    def test_identity_swap(self):
        assert ab_pair(identity(2), 1, 2).values == (2, 1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ab_pair(identity(3), 2, 2)
        with pytest.raises(ValueError):
            ab_pair(identity(3), 1, 4)

    @given(random_sigma(st.integers(2, 5)), st.data())
    def test_involution(self, sigma, data):
        a = data.draw(st.integers(1, sigma.n))
        b = data.draw(st.integers(1, sigma.n).filter(lambda v: v != a))
        assert ab_pair(ab_pair(sigma, a, b), a, b) == sigma

    def test_signs_stay_in_place(self):
        for sigma in enumerate_bn(3):
            swapped = ab_pair(sigma, 1, 3)
            signs = tuple(1 if v > 0 else -1 for v in sigma.values)
            assert tuple(1 if v > 0 else -1 for v in swapped.values) == signs
            assert sorted(abs(v) for v in swapped.values) == [1, 2, 3]


def test_group_closure_under_ti():
    # T_i maps the enumeration onto itself
    elems = set(enumerate_bn(3))
    for sigma in elems:
        for i in (1, 2):
            assert apply_adjacent_transposition(sigma, i) in elems


def test_enumeration_matches_bruteforce():
    # independent brute force straight from the definition
    brute = set()
    for perm in itertools.permutations((1, 2, 3)):
        for signs in itertools.product((1, -1), repeat=3):
            brute.add(tuple(s * v for s, v in zip(signs, perm)))
    assert {s.values for s in enumerate_bn(3)} == brute
