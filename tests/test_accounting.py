import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, gammaln, log_ndtr, logsumexp, ndtr

from dpflow import accounting as acc
from dpflow.errors import (ConfigurationError, DpflowError,
                           NumericalOverflowError)


def rdp_oracle(alpha, q, sigma):
    """High-precision direct evaluation of the subsampled-Gaussian RDP bound,
    written independently of the log-space production code."""
    with mp.workdps(60):
        q = mp.mpf(q)
        sigma = mp.mpf(sigma)

        def eps(j):
            return mp.mpf(j) / (2 * sigma ** 2)

        total = 1 + q ** 2 * mp.binomial(alpha, 2) * min(
            4 * (mp.e ** eps(2) - 1), 2 * mp.e ** eps(2))
        for j in range(3, alpha + 1):
            total += q ** j * mp.binomial(alpha, j) \
                * mp.e ** ((j - 1) * eps(j)) * 2
        return float(mp.log(total) / (alpha - 1))


def rdp_at(alpha, q, sigma):
    """``rdp_curve`` at the order ``alpha`` of its fixed grid 2..256."""
    assert 2 <= alpha <= 256, alpha
    return float(acc.rdp_curve(q, sigma)[alpha - 2])


def gaussian_mechanism_sigma(l2_sensitivity, eps, delta):
    """Noise std of the classic Gaussian mechanism for (eps, delta) on a
    query with the given l2 sensitivity: sqrt(2 ln(1.25/delta)) *
    sensitivity / eps, plus a hair of margin. The library releases nothing
    through this mechanism; it is the oracle the noise-moment checks hold
    numpy's Gaussian draws to."""
    if eps <= 0.0 or not 0.0 < delta < 1.0 or l2_sensitivity <= 0.0:
        raise ConfigurationError(
            "need eps > 0, delta in (0,1), sensitivity > 0")
    return math.sqrt(2.0 * math.log(1.25 / delta)) * l2_sensitivity / eps \
        * (1.0 + 1e-12)


def gaussian_mechanism(value, l2_sensitivity, eps, delta, seed):
    """``value`` plus i.i.d. Gaussian noise calibrated for (eps, delta)."""
    value = np.asarray(value, dtype=float)
    sigma = gaussian_mechanism_sigma(l2_sensitivity, eps, delta)
    rng = np.random.default_rng(seed)
    return value + rng.normal(0.0, sigma, size=value.shape)


def rdp_curve_loop_oracle(q, sigma, orders):
    """The per-order, per-term loop that the one-array ``rdp_curve``
    replaced: a Python list of log-terms for each order, one logsumexp
    each."""
    def log_binom(n, k):
        return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)

    inv = 1.0 / (sigma * sigma)
    log_q = math.log(q)
    log_b2 = min(math.log(4.0) + inv + math.log1p(-math.exp(-inv)),
                 math.log(2.0) + inv)
    curve = []
    for alpha in orders:
        terms = [0.0, 2.0 * log_q + log_binom(alpha, 2) + log_b2]
        for j in range(3, alpha + 1):
            terms.append(j * log_q + log_binom(alpha, j)
                         + (j - 1) * j * inv / 2.0 + math.log(2.0))
        curve.append(float(logsumexp(terms)) / (alpha - 1))
    return np.array(curve)


# Below the smallest normal double a CDF (x < -37.5) or its upper tail
# (x > 37.5) is subnormal or underflows to zero, with fewer significant bits
# on either side; there the special functions are compared absolutely.
TINY = np.finfo(float).tiny

# Log-spaced over [-1e8, 40], with the floats on both sides of 0, 6 and -20:
# the branch points of ``_log_ndtr`` and the upper-tail cut of cephes.
NDTR_GRID = np.unique(np.concatenate([
    -np.geomspace(1e-8, 1e8, 4000), [0.0], np.geomspace(1e-8, 40.0, 2000),
    [np.nextafter(x, side) for x in (0.0, 6.0, -20.0)
     for side in (-np.inf, np.inf)], [6.0, -20.0]]))


class TestSpecialFunctions:
    """The numpy/math special functions of the accountant against scipy's,
    which the package no longer imports."""

    def test_ndtr_matches_scipy(self):
        got = np.array([acc._ndtr(x) for x in NDTR_GRID])
        np.testing.assert_allclose(got, ndtr(NDTR_GRID), rtol=1e-13,
                                   atol=TINY)

    def test_log_ndtr_matches_scipy(self):
        got = np.array([acc._log_ndtr(x) for x in NDTR_GRID])
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, log_ndtr(NDTR_GRID), rtol=1e-13,
                                   atol=TINY)

    def test_expit_matches_scipy_without_warnings(self):
        x = np.linspace(-1000.0, 1000.0, 200_001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = acc._expit(x)
            scalar = acc._expit(np.asarray(-1000.0))
        np.testing.assert_allclose(got, expit(x), rtol=1e-15, atol=TINY)
        assert scalar == 0.0 and got[0] == 0.0 and got[-1] == 1.0

    def test_log_binomials_match_gammaln(self):
        alphas = np.array(acc.DEFAULT_ORDERS, dtype=float)
        a = alphas[:, None]
        j = np.arange(alphas.max() + 1)[None, :]
        want = gammaln(a + 1) - gammaln(j + 1) - gammaln(a - j + 1)
        got = acc._log_binomials(alphas)
        assert got.shape == want.shape
        np.testing.assert_array_equal(np.isneginf(got), j > a)
        np.testing.assert_array_equal(np.isneginf(want), j > a)
        assert (got[:, 0] == 0.0).all()
        # A log-term off by d moves the RDP curve by at most d relative, so
        # this bound keeps rdp_curve within the loop oracle's rtol 1e-12.
        finite = j <= a
        np.testing.assert_allclose(got[finite], want[finite], rtol=0,
                                   atol=1e-12)

    def test_logsumexp_rows_matches_scipy(self):
        rng = np.random.default_rng(8)
        x = rng.normal(scale=30.0, size=(50, 40))
        x[rng.random(x.shape) < 0.3] = -np.inf
        x[:, 0] = rng.normal(size=50)  # a finite maximum in every row
        got = acc._logsumexp_rows(x)
        np.testing.assert_allclose(got, logsumexp(x, axis=1), rtol=1e-15)

    def test_logsumexp_rows_infinite_top_is_inf(self):
        x = np.array([[0.0, np.inf, 3.0], [np.inf, np.inf, -np.inf],
                      [0.0, -np.inf, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = acc._logsumexp_rows(x)
        assert got[:2].tolist() == [math.inf, math.inf]
        assert got[2] == pytest.approx(math.log1p(math.e), rel=1e-15)

    def test_logsumexp_rows_small_term_keeps_precision(self):
        """Order 2 at q = 2^-9, sigma = 1: the row is [0, t] with e^t about
        2e-5, where log(1 + e^t) rounded through 1 + e^t is off by ~4e-12
        relative; the top term is left out of the sum and log1p taken."""
        t = float(acc._log_binomials(np.array([2.0]))[0, 2]) \
            + 2.0 * math.log(2.0 ** -9) + math.log(2.0) + 1.0
        got = float(acc._logsumexp_rows(np.array([[0.0, -np.inf, t]]))[0])
        with mp.workdps(40):
            want = float(mp.log(1 + mp.e ** mp.mpf(t)))
        assert got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(rdp_at(2, 2.0 ** -9, 1.0), rel=1e-15)


class TestRdpCurve:
    @settings(max_examples=60, deadline=None)
    @given(q=st.floats(1e-6, 1.0), sigma=st.floats(0.2, 50.0),
           orders=st.lists(st.integers(2, 256), min_size=1, max_size=12))
    def test_matches_loop_oracle(self, q, sigma, orders):
        curve = acc.rdp_curve(q, sigma)
        np.testing.assert_allclose(curve[np.array(orders) - 2],
                                   rdp_curve_loop_oracle(q, sigma, orders),
                                   rtol=1e-12)

    @pytest.mark.parametrize("q, sigma", [(64 / 27000, 0.8), (0.01, 1.1),
                                          (1.0, 0.5), (1e-4, 10.0)])
    def test_default_grid_matches_loop_oracle(self, q, sigma):
        np.testing.assert_allclose(
            acc.rdp_curve(q, sigma),
            rdp_curve_loop_oracle(q, sigma, acc.DEFAULT_ORDERS), rtol=1e-12)

    @pytest.mark.parametrize("q, sigma", [(0.0, 1.0), (1.5, 1.0),
                                          (0.1, 0.0), (0.1, -1.0),
                                          (0.1, math.nan)])
    def test_bad_q_sigma_rejected(self, q, sigma):
        with pytest.raises(ConfigurationError):
            acc.rdp_curve(q, sigma)

    @pytest.mark.parametrize("sigma", [1e8, 1e9, 1e12])
    def test_huge_sigma_is_finite(self, sigma):
        """exp(-1/sigma^2) rounds to 1 from sigma about 1e8 on; the j = 2
        term must not take log1p(-1) there. Every order stays finite and
        nonnegative, and the j = 2 term alone sets order 2."""
        curve = acc.rdp_curve(0.01, sigma)
        assert np.isfinite(curve).all() and (curve >= 0.0).all()
        assert curve[0] == pytest.approx(4 * 0.01 ** 2 / sigma ** 2,
                                         rel=1e-9)
        assert acc.Accountant("rdp", 0.01, sigma, 1e-5).eps(10) > 0.0

    @pytest.mark.parametrize("sigma", [1e-160, 1e-170])
    def test_overflowing_inverse_variance_is_inf(self, sigma):
        """1/sigma^2 overflows at 1e-160, and sigma^2 underflows to 0 at
        1e-170: every order is +inf, not NaN, and nothing warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = acc.rdp_curve(0.01, sigma)
            eps = acc.Accountant("rdp", 0.01, sigma, 1e-5).eps(1)
        assert np.isposinf(curve).all()
        assert eps == math.inf

    def test_overflowing_terms_are_inf(self):
        """At sigma = 1e-153 the exponent (j-1) j / (2 sigma^2) overflows
        from j = 20 on: orders 2..19 keep their finite values (about 1e306)
        and orders from 20 on are +inf, not NaN, and nothing warns. At
        2e-152 no exponent overflows."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = acc.rdp_curve(0.01, 1e-153)
            assert np.isfinite(acc.rdp_curve(0.01, 2e-152)).all()
        assert np.isposinf(curve[18:]).all()
        for alpha in (2, 10, 19):
            assert curve[alpha - 2] == pytest.approx(
                rdp_oracle(alpha, 0.01, 1e-153), rel=1e-12)


class TestRdpSubsampledGaussian:
    def test_vanishing_sampling_ratio(self):
        assert rdp_at(2, 1e-12, 2.0) < 1e-20

    def test_order2_closed_form(self):
        # eps(2) = 0.25; min{4(e^.25-1), 2e^.25} = 4(e^.25-1);
        # value = ln(1 + 1e-4 * 4(e^.25-1))
        expected = math.log(1 + 1e-4 * 4 * (math.exp(0.25) - 1))
        got = rdp_at(2, 0.01, 2.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.13604e-4, rel=1e-5)

    def test_monotone_in_sigma(self):
        assert rdp_at(4, 0.01, 4.0) < rdp_at(4, 0.01, 2.0)

    def test_matches_oracle_across_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            alpha = int(rng.integers(2, 65))
            q = float(rng.uniform(1e-4, 0.05))
            sigma = float(rng.uniform(0.5, 10.0))
            got = rdp_at(alpha, q, sigma)
            want = rdp_oracle(alpha, q, sigma)
            assert got == pytest.approx(want, rel=1e-9)

    def test_large_order_no_overflow(self):
        assert np.isfinite(rdp_at(256, 0.05, 0.5))

    def test_composition_is_linear(self):
        curve = acc.rdp_curve(0.01, 1.5)
        np.testing.assert_allclose(7 * curve, 7.0 * curve)


class TestRdpToDp:
    def test_single_order(self):
        """Order 2 alone finite: the conversion is its value plus
        log(1/delta)."""
        curve = np.full(len(acc.DEFAULT_ORDERS), np.inf)
        curve[0] = 1.0
        assert acc.rdp_to_dp(curve, math.exp(-1)) == pytest.approx(2.0)

    def test_all_zero_curve(self):
        got = acc.rdp_to_dp(np.zeros(len(acc.DEFAULT_ORDERS)), 1e-5)
        assert got == pytest.approx(math.log(1e5) / 255)

    def test_composed_conversion_matches_independent_min(self):
        orders = acc.DEFAULT_ORDERS
        steps = 10_000
        curve = steps * acc.rdp_curve(0.01, 2.0)
        got = acc.rdp_to_dp(curve, 1e-5)
        want = min(steps * rdp_oracle(a, 0.01, 2.0)
                   + math.log(1e5) / (a - 1) for a in orders)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("delta", [0.0, 1.0, math.nan])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(ConfigurationError, match="delta"):
            acc.rdp_to_dp(np.zeros(len(acc.DEFAULT_ORDERS)), delta)


class TestGdp:
    def test_mu_zero_steps(self):
        assert acc.gdp_mu(0, 0.01, 1.0) == 0.0

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, -math.inf])
    def test_mu_bad_sigma_rejected(self, sigma):
        for t in (0, 10):
            with pytest.raises(ConfigurationError, match="noise multiplier"):
                acc.gdp_mu(t, 0.01, sigma)

    @pytest.mark.parametrize("q", [math.nan, 2.0, 1.5, 0.0, -0.1, math.inf])
    def test_mu_bad_sampling_ratio_rejected(self, q):
        """Refused with the RDP curve's message, at t = 0 as well."""
        for t in (0, 10):
            with pytest.raises(ConfigurationError,
                               match=r"sampling ratio must be in \(0, 1\]"):
                acc.gdp_mu(t, q, 1.0)

    def test_mu_reference_value(self):
        got = acc.gdp_mu(10_000, 4.676e-3, 2.1)
        want = 4.676e-3 * math.sqrt(10_000 * math.expm1(1 / 2.1 ** 2))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.2359, abs=2e-4)

    def test_mu_square_root_scaling(self):
        assert acc.gdp_mu(4 * 123, 0.02, 1.3) \
            == pytest.approx(2 * acc.gdp_mu(123, 0.02, 1.3), rel=1e-14)

    def test_delta_at_eps_zero(self):
        from scipy.special import ndtr
        assert acc.gdp_delta_for_eps(1.0, 0.0) \
            == pytest.approx(ndtr(0.5) - ndtr(-0.5), rel=1e-12)
        assert acc.gdp_delta_for_eps(1.0, 0.0) == pytest.approx(0.382925, abs=1e-6)

    def test_tiny_mu_vanishing_delta(self):
        assert acc.gdp_delta_for_eps(1e-6, 1.0) < 1e-10

    def test_round_trips(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            mu = float(rng.uniform(0.05, 3.0))
            delta = float(10 ** rng.uniform(-9, -2))
            if acc.gdp_delta_for_eps(mu, 0.0) <= delta:
                continue
            eps, bracketed = acc.gdp_eps_for_delta(mu, delta)
            assert bracketed
            assert acc.gdp_delta_for_eps(mu, eps) == pytest.approx(delta, abs=1e-9)

    def test_no_bracket_flag(self):
        eps, bracketed = acc.gdp_eps_for_delta(1.0, 0.9)
        assert eps == 0.0 and not bracketed

    @pytest.mark.parametrize("mu", [100.0, 300.0, 1000.0])
    def test_eps_between_4096_and_bracket_terminates(self, mu, monkeypatch):
        # Above 4096 adjacent floats are more than 1e-12 apart, so the
        # bisection has to stop on float adjacency, not on the width.
        calls = []
        delta_fn = acc.gdp_delta_for_eps

        def counted(m, e):
            calls.append(e)
            assert len(calls) < 10_000, "bisection does not terminate"
            return delta_fn(m, e)

        monkeypatch.setattr(acc, "gdp_delta_for_eps", counted)
        eps, bracketed = acc.gdp_eps_for_delta(mu, 1e-5)
        assert bracketed and 4096 < eps < 1e6
        assert delta_fn(mu, eps * (1 - 1e-9)) > 1e-5 >= delta_fn(
            mu, eps * (1 + 1e-9))

    def test_eps_above_bracket_raises_package_error(self):
        with pytest.raises(NumericalOverflowError) as err:
            acc.gdp_eps_for_delta(3000.0, 1e-5)
        assert isinstance(err.value, DpflowError)
        with pytest.raises(NumericalOverflowError):
            acc.Accountant("gdp", 0.5, 0.5, 1e-5).eps(10 ** 6)

    def test_log_space_path_large_eps(self):
        d = acc.gdp_delta_for_eps(0.5, 40.0)
        assert 0.0 <= d < 1e-300 or d == 0.0


class TestAccountantEps:
    def test_zero_steps_both_methods(self):
        for method in ("rdp", "gdp"):
            assert acc.Accountant(method, 0.01, 1.0, 1e-5).eps(0) == 0.0

    def test_gdp_below_rdp_on_reference_parameters(self):
        q = 100 / 21384
        for t in (10 ** 3, 10 ** 4, 10 ** 5):
            rdp = acc.Accountant("rdp", q, 2.1, 1e-4).eps(t)
            gdp = acc.Accountant("gdp", q, 2.1, 1e-4).eps(t)
            assert gdp < rdp

    def test_monotone_in_steps(self):
        for method in ("rdp", "gdp"):
            a = acc.Accountant(method, 0.005, 1.2, 1e-5)
            assert a.eps(2000) > a.eps(1000) > a.eps(1) > 0

    def test_monotone_in_q_and_sigma(self):
        for method in ("rdp", "gdp"):
            base = acc.Accountant(method, 0.005, 1.2, 1e-5).eps(500)
            assert acc.Accountant(method, 0.01, 1.2, 1e-5).eps(500) > base
            assert acc.Accountant(method, 0.005, 2.4, 1e-5).eps(500) < base

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_bad_sigma_rejected_both_methods(self, sigma):
        """A NaN sigma once passed the GDP path's ``sigma <= 0`` check and
        reported almost no privacy spent (eps 4.5e-13 after 10 steps)."""
        with pytest.raises(ConfigurationError):
            acc.Accountant("rdp", 0.01, sigma, 1e-5)
        with pytest.raises(ConfigurationError):
            acc.Accountant("gdp", 0.01, sigma, 1e-5).eps(10)

    @pytest.mark.parametrize("q", [math.nan, 2.0, 0.0, -0.1])
    @pytest.mark.parametrize("method", ["rdp", "gdp"])
    def test_bad_sampling_ratio_rejected_at_construction(self, method, q):
        """A NaN q once passed the GDP accountant (eps 4.5e-13 after 10
        steps, so a budget of 3 allowed all 1,000,000 steps), and q = 2
        gave eps 68.9 at t = 10. Both methods refuse either when built."""
        with pytest.raises(ConfigurationError, match="sampling ratio"):
            acc.Accountant(method, q, 1.0, 1e-5)

    def test_steps_for_budget_is_last_step_under_budget(self):
        a = acc.Accountant("gdp", 0.01, 1.0, 1e-5)
        t = acc.steps_for_budget(a.eps, 2.0)
        assert a.eps(t) < 2.0 <= a.eps(t + 1)


class TestStepsForBudget:
    def test_matches_linear_scan(self):
        """Doubling and bisection find what a step-by-step scan finds."""
        for method in ("rdp", "gdp"):
            a = acc.Accountant(method, 0.05, 1.0, 1e-5)
            for budget in (0.5, 1.0, 2.0):
                t = 0
                while a.eps(t + 1) < budget:
                    t += 1
                assert acc.steps_for_budget(a.eps, budget) == t

    def test_capped_at_t_max(self):
        assert acc.steps_for_budget(lambda t: 0.0, 1.0, t_max=37) == 37
        assert acc.steps_for_budget(lambda t: 0.1 * t, 1.0, t_max=5) == 5
        assert acc.steps_for_budget(lambda t: 0.0, 1.0, t_max=0) == 0

    def test_first_step_over_budget(self):
        assert acc.steps_for_budget(lambda t: 1.0, 1.0) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            acc.steps_for_budget(lambda t: bad, 1.0)
        with pytest.raises(ConfigurationError):
            acc.steps_for_budget(lambda t: bad if t > 3 else 0.0, 1.0)


class TestGaussianMechanism:
    def test_sigma_closed_form(self):
        want = math.sqrt(2 * math.log(1.25e5))
        assert gaussian_mechanism_sigma(1.0, 1.0, 1e-5) \
            == pytest.approx(want, rel=1e-9)
        assert gaussian_mechanism_sigma(1.0, 1.0, 1e-5) \
            == pytest.approx(4.84481, abs=2e-5)

    def test_empirical_std(self):
        out = gaussian_mechanism(np.zeros(100_000), 1.0, 1.0, 1e-5, seed=3)
        sigma = gaussian_mechanism_sigma(1.0, 1.0, 1e-5)
        assert np.std(out) == pytest.approx(sigma, rel=0.02)

    def test_seeded_determinism(self):
        a = gaussian_mechanism(np.arange(5.0), 1.0, 0.5, 1e-6, seed=11)
        b = gaussian_mechanism(np.arange(5.0), 1.0, 0.5, 1e-6, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            gaussian_mechanism(np.zeros(2), 1.0, 0.0, 1e-5, seed=0)


class TestLaplaceNoise:
    def test_empirical_variance(self):
        out = acc.laplace_noise(np.zeros(100_000), 2.0, seed=4)
        assert np.var(out) == pytest.approx(2 * 2.0 ** 2, rel=0.03)

    def test_tiny_scale_returns_value(self):
        value = np.array([1.0, -3.5, 2.25])
        np.testing.assert_array_equal(
            acc.laplace_noise(value, 1e-300, seed=0), value)

    def test_seeded_determinism(self):
        a = acc.laplace_noise(np.zeros(8), 1.0, seed=9)
        b = acc.laplace_noise(np.zeros(8), 1.0, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_nonpositive_scale(self):
        with pytest.raises(ConfigurationError):
            acc.laplace_noise(np.zeros(2), 0.0, seed=0)


class TestExpMechBinary:
    def test_probability_half_at_tie(self):
        draws = [acc.exp_mech_binary(5, 10, 1.0, seed=s) for s in range(4000)]
        assert np.mean(draws) == pytest.approx(0.5, abs=0.03)

    def test_eps_zero_is_fair_coin(self):
        draws = [acc.exp_mech_binary(9, 10, 0.0, seed=s) for s in range(4000)]
        assert np.mean(draws) == pytest.approx(0.5, abs=0.03)

    def test_unanimous_formula_value(self):
        # eps=1, k=10, c=10 -> P(in) = 1/(1+e^-5)
        p = 1 / (1 + math.exp(-5))
        assert p == pytest.approx(0.993307, abs=1e-6)
        n = 10_000
        draws = [acc.exp_mech_binary(10, 10, 1.0, seed=s) for s in range(n)]
        se = math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(draws) - p) < 3 * se + 1e-12

    def test_frequencies_match_formula(self):
        rng = np.random.default_rng(21)
        n = 10_000
        for trial in range(20):
            k = int(rng.integers(1, 20))
            c = int(rng.integers(0, k + 1))
            eps = float(rng.uniform(0.0, 3.0))
            p = 1 / (1 + math.exp(-eps * (2 * c - k) / 2))
            seq = np.random.SeedSequence([0, trial]).spawn(n)
            freq = np.mean([acc.exp_mech_binary(c, k, eps, s) for s in seq])
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) <= 3 * se + 1e-9

    def test_vote_count_out_of_range(self):
        with pytest.raises(ConfigurationError):
            acc.exp_mech_binary(11, 10, 1.0, seed=0)

    def test_array_equals_one_generator_draw(self):
        rng = np.random.default_rng(22)
        for trial in range(10):
            k = int(rng.integers(1, 20))
            votes = rng.integers(0, k + 1, size=int(rng.integers(1, 500)))
            eps = float(rng.uniform(0.0, 5.0))
            got = acc.exp_mech_binary(votes, k, eps, seed=trial)
            p_in = expit(eps * (2.0 * votes - k) / 2.0)
            want = np.random.default_rng(trial).random(votes.size) < p_in
            assert got.dtype == bool and got.shape == votes.shape
            assert got.tobytes() == want.tobytes()

    def test_scalar_draw_is_first_of_array(self):
        for s in range(200):
            scalar = acc.exp_mech_binary(5, 10, 0.0, seed=s)
            assert type(scalar) is bool
            assert scalar == acc.exp_mech_binary(np.full(3, 5), 10, 0.0,
                                                 seed=s)[0]

    def test_array_frequencies_per_count(self):
        k, eps, n = 10, 0.7, 4000
        votes = np.repeat(np.arange(k + 1), n)
        draws = acc.exp_mech_binary(votes, k, eps, seed=23)
        for c in range(k + 1):
            p = 1 / (1 + math.exp(-eps * (2 * c - k) / 2))
            freq = np.mean(draws[votes == c])
            assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / n) + 1e-12

    def test_array_vote_count_out_of_range(self):
        with pytest.raises(ConfigurationError, match="-1"):
            acc.exp_mech_binary(np.array([3, -1, 4]), 10, 1.0, seed=0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(ConfigurationError):
            acc.exp_mech_binary(5, 10, eps, seed=0)
        with pytest.raises(ConfigurationError):
            acc.exp_mech_binary(np.array([5, 7]), 10, eps, seed=0)
