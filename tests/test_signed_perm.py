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


def _at_first(term, sign):
    """The vector keys of a term with the entry at position 0 given `sign`:
    1 and -1 unfold a folded term into its sigma and its `negate_first`
    partner."""
    return tuple((d, sign if pos == 0 else s, pos) for d, s, pos in term.vectors)


def _by_pair(mats):
    """The inversions of each dimension pair, in a fixed order."""
    return tuple(tuple(sorted(invs)) for invs in mats)


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
        assert _by_pair(term.mats) == _by_pair(flipped.mats)
        # the flipped term reads the vector of the entry at position 0 with
        # the other sign, which is what term_sum's fold (v+ + v-) assumes
        assert flipped.vectors == _at_first(term, -1 if sigma.values[0] > 0 else 1)


class TestTermStructure:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_halfline_folds_each_partner_pair_once(self, n):
        terms = term_structure(n, True)
        assert 2 * len(terms) == group_order(n, True) == len(enumerate_bn(n))
        assert all(_at_first(term, 0) == term.vectors for term in terms)
        # the terms and their partners are B_n, each element once, and each
        # partner has the term's pair factors
        covered = [(_at_first(t, s), _by_pair(t.mats)) for t in terms for s in (1, -1)]
        assert sorted(covered) == sorted((u.vectors, _by_pair(u.mats)) for u in
                                         map(compile_term, enumerate_bn(n)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fullline_is_unfolded(self, n):
        terms = term_structure(n, False)
        assert len(terms) == group_order(n, False) == len(enumerate_sn(n))
        assert all(s != 0 for term in terms for _, s, _ in term.vectors)

    @pytest.mark.parametrize("halfline", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_keys_are_the_placements_and_inversions(self, n, halfline):
        # each term's mats are inversions(sigma) grouped by dimension pair, in
        # inversions order, and only a half-line term folds, at position 0
        pairs = list(itertools.combinations(range(n), 2))
        sigmas = []
        for term in term_structure(n, halfline):
            values = [0] * n
            for d, s, pos in term.vectors:
                values[pos] = (s or 1) * (d + 1)
            sigma = SignedPermutation(tuple(values))
            sigmas.append(sigma)
            grouped = [[] for _ in pairs]
            for a, b in inversions(sigma):
                grouped[pairs.index(tuple(sorted((abs(a) - 1, abs(b) - 1))))].append((a, b))
            assert term.mats == tuple(map(tuple, grouped))
            folded = [(d, pos) for d, s, pos in term.vectors if s == 0]
            assert folded == ([(sigma.values[0] - 1, 0)] if halfline else [])
        group = enumerate_bn(n) if halfline else enumerate_sn(n)
        assert sigmas == [s for s in group if s.values[0] > 0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_no_inversion_pairs_a_variable_with_its_reflection(self, n):
        # the Bose lines put k_-a = -k_a at the mirror of k_a, so a pair
        # (a, -a) would put the first variable's S-pole on its own line
        assert all(a != -b for halfline in (True, False) for term in term_structure(n, halfline)
                   for invs in term.mats for a, b in invs)
        assert all(a != -b for sigma in enumerate_bn(n) for a, b in inversions(sigma))


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
