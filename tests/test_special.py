"""Baseline special functions against quadrature oracles and identities."""

import math

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from covertvd import special
from covertvd.errors import AccuracyError, DomainError
from covertvd.special import (
    chi2_cdf,
    erfc,
    q_fn,
    q_inv,
    reg_lower_gamma,
    reg_upper_gamma,
)


class TestRegLowerGamma:
    def test_shape_one_is_exponential(self):
        # gamma(1, z) = 1 - e^(-z), so P(1, ln 2) = 1/2
        assert reg_lower_gamma(1.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_half_shape_reduces_to_erf(self):
        assert reg_lower_gamma(0.5, 1.0) == pytest.approx(math.erf(1.0), abs=1e-13)

    def test_large_shape_against_quadrature(self, gamma_oracle):
        assert reg_lower_gamma(250.0, 260.0) == pytest.approx(gamma_oracle(250.0, 260.0), abs=1e-12)

    @pytest.mark.parametrize("a,z", [(3.0, 0.5), (3.0, 10.0), (500.0, 480.0), (500.0, 530.0)])
    def test_both_branches_against_quadrature(self, gamma_oracle, a, z):
        assert reg_lower_gamma(a, z) == pytest.approx(gamma_oracle(a, z), abs=1e-12)

    def test_at_zero(self):
        assert reg_lower_gamma(5.0, 0.0) == 0.0

    def test_limit_to_one(self):
        assert reg_lower_gamma(5.0, 500.0) == pytest.approx(1.0, abs=1e-15)

    @given(a=st.floats(0.01, 1e4), z=st.floats(0.0, 2e4))
    @settings(max_examples=150, deadline=None)
    def test_range_and_complement(self, a, z):
        p = reg_lower_gamma(a, z)
        q = reg_upper_gamma(a, z)
        assert 0.0 <= p <= 1.0
        assert abs(p + q - 1.0) <= 1e-12

    @given(a=st.floats(0.5, 2e3), z=st.floats(0.0, 4e3), dz=st.floats(1e-3, 50.0))
    @settings(max_examples=150, deadline=None)
    def test_strictly_increasing_in_z(self, a, z, dz):
        assert reg_lower_gamma(a, z + dz) >= reg_lower_gamma(a, z)

    def test_large_blocklength_scale(self, gamma_oracle):
        # a = n/2 at n = 1e6, argument near the transition point
        a = 5e5
        val = reg_lower_gamma(a, a + 100.0)
        assert 0.5 < val < 0.6
        assert reg_lower_gamma(a, a - 1e4) < 1e-40

    @pytest.mark.parametrize("a,z", [(-1.0, 1.0), (0.0, 1.0), (1.0, -0.5),
                                     (math.nan, 1.0), (1.0, math.inf)])
    def test_domain_errors(self, a, z):
        with pytest.raises(DomainError):
            reg_lower_gamma(a, z)

    @pytest.mark.parametrize("kernel,wrapper", [("gammainc", reg_lower_gamma),
                                                ("gammaincc", reg_upper_gamma)])
    def test_non_finite_kernel_result_raises(self, monkeypatch, kernel, wrapper):
        monkeypatch.setattr(special, kernel, lambda a, z: math.nan)
        with pytest.raises(AccuracyError, match=kernel):
            wrapper(50.0, 49.0)


class TestUfuncParity:
    """The wrappers call scipy's compiled scalar API; its values must be
    those of the scipy.special ufuncs bit for bit over the whole domain."""

    @staticmethod
    def gamma_pairs():
        rng = np.random.default_rng(2020)
        a = 10.0 ** rng.uniform(-1.0, math.log10(5e5), 500)
        root = np.sqrt(a)
        zs = (
            np.zeros_like(a),
            a,
            a * rng.uniform(0.0, 2.0, a.size),  # bulk
            np.maximum(a + root * rng.uniform(-3.0, 3.0, a.size), 0.0),  # near z = a
            a * 10.0 ** rng.uniform(-300.0, -1.0, a.size),  # lower tail
            a * 10.0 ** rng.uniform(0.3, 3.0, a.size),  # upper tail
        )
        return np.tile(a, len(zs)), np.concatenate(zs)

    def test_incomplete_gamma(self):
        a, z = self.gamma_pairs()
        lower, upper = sc.gammainc(a, z), sc.gammaincc(a, z)
        for i, (ai, zi) in enumerate(zip(a.tolist(), z.tolist())):
            assert reg_lower_gamma(ai, zi) == lower[i], (ai, zi)
            assert reg_upper_gamma(ai, zi) == upper[i], (ai, zi)

    def test_chi2_cdf(self):
        rng = np.random.default_rng(2021)
        n = np.rint(10.0 ** rng.uniform(0.0, 6.0, 2000)).astype(int)
        x = n * 10.0 ** rng.uniform(-2.0, 1.0, n.size)
        expected = sc.gammainc(0.5 * n, 0.5 * x)
        for i, (ni, xi) in enumerate(zip(n.tolist(), x.tolist())):
            assert chi2_cdf(ni, xi) == expected[i], (ni, xi)

    def test_q_inv(self):
        rng = np.random.default_rng(2022)
        p = np.concatenate((10.0 ** rng.uniform(-300.0, 0.0, 1500),
                            rng.uniform(0.0, 1.0, 500)))
        p = p[(p > 0.0) & (p < 1.0)]
        expected = -sc.ndtri(p)
        for i, pi in enumerate(p.tolist()):
            assert q_inv(pi) == expected[i], pi


class TestChi2Cdf:
    def test_two_dof_closed_form(self):
        # F(x) = 1 - e^(-x/2) at n = 2
        assert chi2_cdf(2, 2.0 * math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_at_zero(self):
        assert chi2_cdf(2, 0.0) == 0.0

    def test_median_scale_against_quadrature(self, gamma_oracle):
        val = chi2_cdf(1000, 1000.0)
        assert val == pytest.approx(gamma_oracle(500.0, 500.0), abs=1e-12)
        # frozen from the quadrature oracle
        assert val == pytest.approx(0.5059471461707322, abs=1e-12)

    def test_identical_call_path(self):
        assert chi2_cdf(1000, 987.6) == reg_lower_gamma(500.0, 493.8)

    def test_monotone_in_x(self):
        xs = [0.0, 10.0, 100.0, 500.0, 1000.0, 2000.0]
        vals = [chi2_cdf(500, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n,x", [(0, 1.0), (-2, 1.0), (2, -1.0)])
    def test_domain_errors(self, n, x):
        with pytest.raises(DomainError):
            chi2_cdf(n, x)


class TestErfc:
    def test_at_zero(self):
        assert erfc(0.0) == 1.0

    def test_tail_limit(self):
        assert erfc(30.0) < 1e-200

    def test_against_quadrature(self, erfc_oracle):
        assert erfc(1.0) == pytest.approx(erfc_oracle(1.0), abs=1e-13)
        assert erfc(1.0) == pytest.approx(0.15729920705028513, abs=1e-12)

    @given(x=st.floats(-6.0, 6.0))
    @settings(max_examples=100, deadline=None)
    def test_reflection(self, x):
        assert erfc(-x) == pytest.approx(2.0 - erfc(x), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            erfc(math.inf)


class TestQInv:
    def test_median(self):
        assert q_inv(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_roundtrip_at_one(self):
        assert q_inv(q_fn(1.0)) == pytest.approx(1.0, abs=1e-10)

    def test_decile(self):
        assert q_inv(0.1) == pytest.approx(1.2815515655446004, abs=1e-9)

    def test_roundtrip_on_log_grid(self):
        # p spanning [1e-6, 1 - 1e-6]
        ps = [10.0 ** e for e in range(-6, 0)]
        ps += [1.0 - p for p in ps]
        for p in ps:
            assert abs(q_fn(q_inv(p)) - p) <= 1e-10

    def test_strictly_decreasing(self):
        ps = [0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
        xs = [q_inv(p) for p in ps]
        assert all(b < a for a, b in zip(xs, xs[1:]))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_domain_errors(self, p):
        with pytest.raises(DomainError):
            q_inv(p)
