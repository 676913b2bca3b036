import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfline_bethe.errors import SingularityError
from halfline_bethe.scattering import (AsepParams, BoseParams, amplitude_asep,
                                       amplitude_bose, eps_asep, k_signed,
                                       r_factor, s_asep, s_bose, s_product,
                                       xi_signed)
from halfline_bethe.signed_perm import (SignedPermutation, enumerate_bn,
                                        enumerate_sn, identity, negate_first)

finite_reals = st.floats(-50.0, 50.0)


class TestParams:
    def test_asep_invariants(self):
        with pytest.raises(ValueError):
            AsepParams(1.0)
        p = AsepParams.from_p(0.4)
        assert p.tau == pytest.approx(2.0 / 3.0)

    def test_p_zero_allowed_but_not_for_formulas(self):
        p = AsepParams.from_p(0.0)
        with pytest.raises(ValueError):
            p.require_formula_ok()

    def test_bose_params(self):
        with pytest.raises(ValueError):
            BoseParams(-1.0)
        assert BoseParams(0.0).c == 0.0


class TestSignedVariables:
    def test_k_signed(self):
        k = np.array([2.0, 5.0])
        assert k_signed(1, k) == 2.0
        assert k_signed(-1, k) == -2.0
        for a in (1, -1, 2, -2):
            assert k_signed(-a, k) == -k_signed(a, k)

    def test_k_signed_bad_index(self):
        with pytest.raises(ValueError):
            k_signed(0, np.array([1.0]))
        with pytest.raises(ValueError):
            k_signed(3, np.array([1.0, 2.0]))

    def test_xi_signed(self):
        params = AsepParams.from_p(0.5)
        xi = np.array([2.0 + 0j])
        assert xi_signed(-1, xi, params) == pytest.approx(0.5)
        # round trip tau/(tau/xi) = xi
        assert params.tau / xi_signed(-1, xi, params) == pytest.approx(2.0)

    def test_xi_signed_tau_value(self):
        params = AsepParams.from_p(0.4)  # tau = 2/3
        assert xi_signed(-1, np.array([2.0 + 0j]), params) == pytest.approx(1.0 / 3.0)

    def test_xi_signed_zero(self):
        with pytest.raises(SingularityError):
            xi_signed(-1, np.array([0.0 + 0j]), AsepParams.from_p(0.5))


class TestSBose:
    def test_at_zero(self):
        assert s_bose(0.0, BoseParams(1.5)) == pytest.approx(-1.0)

    @given(finite_reals, st.floats(0.1, 100.0))
    def test_unimodular_on_reals(self, k, c):
        assert abs(s_bose(k, BoseParams(c))) == pytest.approx(1.0)

    @given(finite_reals, st.floats(0.1, 100.0))
    def test_reciprocal(self, k, c):
        params = BoseParams(c)
        assert s_bose(k, params) * s_bose(-k, params) == pytest.approx(1.0)

    def test_pole(self):
        with pytest.raises(SingularityError):
            s_bose(1j * 2.0, BoseParams(2.0))

    def test_lower_halfplane_analytic(self):
        params = BoseParams(0.5)
        re, im = np.meshgrid(np.linspace(-5, 5, 21), np.linspace(-5, -0.01, 11))
        vals = s_bose(re + 1j * im, params)
        assert np.all(np.isfinite(vals))


class TestEnergies:
    def test_eps_asep(self):
        params = AsepParams.from_p(0.5)
        assert eps_asep(1.0, params) == pytest.approx(0.0)
        assert eps_asep(2.0, params) == pytest.approx(0.25)

    @given(st.floats(0.05, 0.95), st.complex_numbers(
        min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False))
    def test_eps_asep_reflection_invariant(self, p, x):
        params = AsepParams.from_p(p)
        assert eps_asep(params.tau / x, params) == pytest.approx(
            eps_asep(x, params), rel=1e-9, abs=1e-9)


class TestSAsep:
    def test_equal_arguments(self):
        assert s_asep(1.7 + 0.3j, 1.7 + 0.3j, AsepParams.from_p(0.4)) == \
            pytest.approx(-1.0)

    @given(st.floats(0.05, 0.95), st.data())
    def test_reciprocal_product(self, p, data):
        params = AsepParams.from_p(p)
        cplx = st.complex_numbers(min_magnitude=0.3, max_magnitude=3.0,
                                  allow_nan=False, allow_infinity=False)
        x, y = data.draw(cplx), data.draw(cplx)
        try:
            prod = s_asep(x, y, params) * s_asep(y, x, params)
        except SingularityError:
            return
        assert prod == pytest.approx(1.0, rel=1e-8)

    def test_reflection_identity(self, rng):
        # S(tau/x, tau/y) = S(y, x)
        params = AsepParams.from_p(0.35)
        for _ in range(100):
            x, y = rng.uniform(0.5, 2.0, 2) * np.exp(2j * np.pi * rng.uniform(0, 1, 2))
            lhs = s_asep(params.tau / x, params.tau / y, params)
            rhs = s_asep(y, x, params)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestRFactor:
    def test_zero_at_one(self):
        assert r_factor(1.0, AsepParams.from_p(0.4)) == pytest.approx(0.0)

    def test_symmetric_rates_give_identity_map(self):
        params = AsepParams.from_p(0.5)  # tau = 1
        for x in (0.5 + 0.1j, 2.0, -1.3 + 0.7j):
            assert r_factor(x, params) == pytest.approx(x)

    def test_linear_growth_at_infinity(self):
        # r(x)/x = (x-1)/(x-tau) -> 1 like 1 + (tau-1)/x
        params = AsepParams.from_p(0.3)
        x = 1e6 * np.exp(0.3j)
        assert abs(r_factor(x, params) / x - 1.0) < 2e-6

    def test_pole_at_tau(self):
        params = AsepParams.from_p(0.4)
        with pytest.raises(SingularityError):
            r_factor(params.tau, params)


class IndependentInversions:
    """Brute-force re-derivation of the inversion set, used as an oracle."""

    @staticmethod
    def of(values):
        out = []
        n = len(values)
        for i in range(n):
            for j in range(i + 1, n):
                for cand in (values[i], -values[i]):
                    if cand > values[j]:
                        out.append((cand, values[j]))
        return out


class TestSProduct:
    def test_identity_is_one(self):
        k = np.array([0.3, 0.7, -0.2])
        assert s_product(identity(3), k, BoseParams(1.0)) == 1.0

    def test_single_inversion(self):
        k = np.array([0.4, 1.1])
        params = BoseParams(0.8)
        got = s_product(SignedPermutation((2, 1)), k, params)
        assert got == pytest.approx(s_bose(k[1] - k[0], params))

    def test_reflected_inversion(self):
        # (2, -1) has the single inversion (2, -1); k_{-1} = -k_1
        k = np.array([0.4, 1.1])
        params = BoseParams(0.8)
        got = s_product(SignedPermutation((2, -1)), k, params)
        assert got == pytest.approx(s_bose(k[1] + k[0], params))

    def test_against_bruteforce_definition(self, rng):
        params = BoseParams(1.3)
        k = rng.uniform(-2, 2, 3)
        for sigma in enumerate_bn(3):
            expected = 1.0 + 0j
            for (a, b) in IndependentInversions.of(sigma.values):
                ka = k[abs(a) - 1] * (1 if a > 0 else -1)
                kb = k[abs(b) - 1] * (1 if b > 0 else -1)
                expected *= s_bose(ka - kb, params)
            assert s_product(sigma, k, params) == pytest.approx(expected)


class TestAmplitudes:
    def test_bose_singletons(self):
        k = np.array([0.9])
        assert amplitude_bose(SignedPermutation((1,)), k, BoseParams(1.0)) == 1.0
        assert amplitude_bose(SignedPermutation((-1,)), k, BoseParams(1.0)) == -1.0

    def test_bose_signflip_pairing(self, rng):
        params = BoseParams(0.7)
        k = rng.uniform(-2, 2, (50, 3))
        for sigma in enumerate_bn(3):
            a = amplitude_bose(sigma, k, params)
            b = amplitude_bose(negate_first(sigma), k, params)
            assert np.max(np.abs(a + b)) < 1e-12

    def test_asep_identity(self):
        xi = np.array([1.4 + 0.2j, 0.8 - 0.5j])
        assert amplitude_asep(identity(2), xi, AsepParams.from_p(0.4)) == 1.0

    def test_asep_singleton_matches_wall_bracket(self):
        # sigma = (-1): amplitude is r(tau/xi) = -(1 - tau/xi)/(1 - xi)
        params = AsepParams.from_p(0.4)
        xi = np.array([1.7 + 0.4j])
        got = amplitude_asep(SignedPermutation((-1,)), xi, params)
        x = xi[0]
        assert got == pytest.approx(-(1 - params.tau / x) / (1 - x))

    def test_positive_sigmas_reduce_to_plain_product(self, rng):
        params = AsepParams.from_p(0.45)
        xi = rng.uniform(1.2, 2.0, 3) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
        for sigma in enumerate_sn(3):
            amp = amplitude_asep(sigma, xi, params)
            vals = sigma.values
            expected = 1.0 + 0j
            for i in range(3):
                for j in range(i + 1, 3):
                    if vals[i] > vals[j]:
                        expected *= s_asep(xi[vals[i] - 1], xi[vals[j] - 1], params)
            assert amp == pytest.approx(expected)

    def test_singularity_reports_inversion(self):
        params = AsepParams.from_p(0.4)
        # choose xi so that p + q*x*y - y = 0 for the (2,1) inversion
        x = 2.0
        y = params.p / (1 - params.q * x)
        with pytest.raises(SingularityError, match="inversion"):
            s_product(SignedPermutation((2, 1)), np.array([y, x]), params)
