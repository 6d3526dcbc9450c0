"""Privacy accounting and noise mechanisms.

Two interchangeable accountants map training progress (steps t, sampling
ratio q, noise multiplier sigma, tolerance delta) to a spent epsilon:

* ``rdp``: per-step Renyi-DP of the subsampled Gaussian mechanism at integer
  orders, composed linearly over steps, converted via
  eps = min_alpha [eps(alpha) + log(1/delta) / (alpha - 1)].
* ``gdp``: Gaussian-DP composition with the CLT-approximate per-run
  mu = q * sqrt(t * (exp(1/sigma^2) - 1)), converted analytically.

``steps_for_budget`` turns either into the number of steps a budget allows.
Also provides the Laplace noise mechanism and the binary exponential
mechanism used for private vote aggregation.

The few special functions these need (log-binomials, a row log-sum-exp, the
normal CDF and its log, the logistic function) are written here with numpy
and ``math``: importing scipy.special for them would double the start-up
time and resident memory of every process that imports the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalOverflowError

DEFAULT_ORDERS = tuple(range(2, 257))
_ORDERS = np.array(DEFAULT_ORDERS, dtype=float)

_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_binomials(alphas: np.ndarray) -> np.ndarray:
    """(orders x j) matrix of log C(alpha, j) for j = 0..max(alphas), -inf
    where j > alpha; ``alphas`` holds integers >= 0. One table of log k!
    from ``math.lgamma`` serves every entry."""
    a = alphas.astype(int)[:, None]
    j = np.arange(a.max() + 1)[None, :]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(a.max() + 1)])
    return np.where(j <= a, log_fact[a] - log_fact[j]
                    - log_fact[np.maximum(a - j, 0)], -np.inf)


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x), axis=1)) for a 2-D ``x`` whose row maxima are not
    -inf: the row maximum plus log1p of the other terms shifted by it, so
    a row with one dominant term keeps full relative precision. A row whose
    maximum is +inf sums to +inf (shifting by it would give NaN)."""
    top_at = np.argmax(x, axis=1)
    top = x[np.arange(x.shape[0]), top_at]
    out = np.full(top.shape, np.inf)
    finite = ~np.isposinf(top)
    x, top, top_at = x[finite], top[finite], top_at[finite]
    rows = np.arange(x.shape[0])
    shifted = np.exp(x - top[:, None])
    shifted[rows, top_at] = 0.0
    out[finite] = top + np.log1p(shifted.sum(axis=1))
    return out


def _ndtr(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x * _SQRT1_2)


def _log_ndtr(x: float) -> float:
    """log of the standard normal CDF, accurate far into the lower tail.

    log1p of the upper tail for x > 0; the log of the CDF down to -20; below
    that the asymptotic series log Phi(x) = -x^2/2 - log(-x) - log sqrt(2 pi)
    + log(1 - 1/x^2 + 3/x^4 - ...), summed until the total stops changing,
    which stays finite where the CDF itself underflows (x below about -38).
    """
    if x > 0.0:
        return math.log1p(-_ndtr(-x))
    if x > -20.0:
        return math.log(_ndtr(x))
    inv_x2 = 1.0 / (x * x)
    total, last, term, i = 1.0, 0.0, 1.0, 0
    while abs(total - last) > sys.float_info.epsilon:
        i += 1
        last = total
        term *= -(2 * i - 1) * inv_x2
        total += term
    return -0.5 * x * x - math.log(-x) - _LOG_SQRT_2PI + math.log(total)


def _expit(x):
    """Logistic function 1 / (1 + e^-x), elementwise; exp(-x) overflowing
    to inf gives the exact limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _check_sampling_ratio(q: float):
    """Refuse a sampling ratio outside (0, 1]; NaN fails the check."""
    if not 0.0 < q <= 1.0:
        raise ConfigurationError(f"sampling ratio must be in (0, 1], got {q}")


def rdp_curve(q: float, sigma: float) -> np.ndarray:
    """Per-step RDP at each order of ``DEFAULT_ORDERS`` of a Gaussian mechanism
    applied to a uniform without-replacement subsample with sampling ratio
    ``q``; composition over t steps is t times this curve, pointwise.

    The base mechanism has RDP curve eps(j) = j / (2 sigma^2); the subsampling
    bound is a binomial series in q over j = 0..alpha. All orders are
    evaluated at once: one (orders x j) matrix of log-terms (-inf where
    j == 1 or j > alpha) and one log-sum-exp along j, so large orders do not
    overflow. For a sigma so small that a term's exponent (j-1) j / (2
    sigma^2) overflows, that term and its order's value are +inf, with no
    warning; a 1/sigma^2 that overflows makes every order +inf.
    """
    _check_sampling_ratio(q)
    if not sigma > 0.0:
        raise ConfigurationError(f"noise multiplier must be positive, got {sigma}")

    # eps(2) of the base mechanism; when it overflows, so does the j = 2
    # term of every order.
    inv = 1.0 / (sigma * sigma) if sigma * sigma > 0.0 else math.inf
    if inv == math.inf:
        return np.full(_ORDERS.shape, np.inf)
    log_q = math.log(q)
    j = np.arange(DEFAULT_ORDERS[-1] + 1, dtype=float)[None, :]
    # log C(alpha, j) is -inf for j > alpha, and so is every such term.
    log_binom = _log_binomials(_ORDERS)
    with np.errstate(over="ignore"):
        exponent = (j - 1) * j / 2.0 * inv
    # An exponent that overflowed to inf must not meet those -inf (NaN).
    exponent = np.where(log_binom > -np.inf, exponent, 0.0)
    # j >= 3 terms: q^j C(alpha,j) e^{(j-1) eps(j)} * 2.
    terms = j * log_q + log_binom + exponent + math.log(2.0)
    # j = 2 term: q^2 C(alpha,2) min{4(e^eps2 - 1), 2 e^eps2}.
    # log(4(e^x - 1)) = log 4 + x + log(-expm1(-x)) is stable for all
    # x > 0, also where e^-x rounds to 1.
    log_b2 = min(math.log(4.0) + inv + math.log(-math.expm1(-inv)),
                 math.log(2.0) + inv)
    terms[:, 2] = 2.0 * log_q + log_binom[:, 2] + log_b2
    terms[:, 0] = 0.0
    terms[:, 1] = -np.inf
    return _logsumexp_rows(terms) / (_ORDERS - 1.0)


def rdp_to_dp(curve, delta: float) -> float:
    """Convert a cumulative RDP curve over ``DEFAULT_ORDERS`` to an
    (eps, delta) guarantee."""
    curve = np.asarray(curve, dtype=float)
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    return float(np.min(curve + math.log(1.0 / delta) / (_ORDERS - 1.0)))


def gdp_mu(t: int, q: float, sigma: float) -> float:
    """CLT-approximate mu after t subsampled Gaussian steps."""
    _check_sampling_ratio(q)
    if not sigma > 0.0:
        raise ConfigurationError(
            f"noise multiplier must be positive, got {sigma}")
    if t < 0:
        raise ConfigurationError("step count must be nonnegative")
    if t == 0:
        return 0.0
    try:
        growth = math.expm1(1.0 / (sigma * sigma))
    except (OverflowError, ZeroDivisionError):
        growth = math.inf  # sigma so small that mu has no finite value
    return q * math.sqrt(t * growth)


def gdp_delta_for_eps(mu: float, eps: float) -> float:
    """delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2)."""
    if mu <= 0.0:
        raise ConfigurationError("mu must be positive")
    a = -eps / mu + mu / 2.0
    b = -eps / mu - mu / 2.0
    if eps > 30.0:
        # Both terms are tiny; keep e^eps * Phi(b) in log space.
        return math.exp(_log_ndtr(a)) - math.exp(eps + _log_ndtr(b))
    return _ndtr(a) - math.exp(eps) * _ndtr(b)


def gdp_eps_for_delta(mu: float, delta: float) -> tuple[float, bool]:
    """Invert delta(eps) by bisection.

    Returns (eps, bracketed). delta(eps) is strictly decreasing in eps, so
    the root is unique when it exists; if ``delta >= delta(0)`` there is no
    eps >= 0 to find and (0.0, False) is returned. An epsilon above 1e6
    raises NumericalOverflowError.
    """
    if mu <= 0.0:
        raise ConfigurationError("mu must be positive")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    if gdp_delta_for_eps(mu, 0.0) <= delta:
        return 0.0, False
    lo, hi = 0.0, 1.0
    while gdp_delta_for_eps(mu, hi) > delta:
        lo, hi = hi, hi * 2.0
        if hi > 1e6:
            raise NumericalOverflowError(
                f"epsilon exceeds 1e6 at mu={mu!r}, delta={delta!r}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats (eps >= 4096): no finer bracket exists
        if gdp_delta_for_eps(mu, mid) > delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), True


@dataclass
class Accountant:
    """Reusable accountant for a fixed (q, sigma, delta) training run.

    ``eps(t)`` is the budget spent after t steps; the per-step RDP curve is
    precomputed once, over the orders ``DEFAULT_ORDERS``. The GDP path is
    the CLT-approximate composition (reported as such in run metadata). The
    clipping norm does not appear: noise is calibrated as sigma * C, so
    epsilon depends only on (t, q, sigma, delta).
    """

    method: str
    q: float
    sigma: float
    delta: float
    _step_curve: np.ndarray | None = field(default=None, init=False,
                                           repr=False)

    def __post_init__(self):
        if self.method not in ("rdp", "gdp"):
            raise ConfigurationError(f"unknown accountant method {self.method!r}")
        _check_sampling_ratio(self.q)
        if self.method == "rdp":
            self._step_curve = rdp_curve(self.q, self.sigma)

    def eps(self, t: int) -> float:
        if t == 0:
            return 0.0
        if self.method == "rdp":
            return rdp_to_dp(t * self._step_curve, self.delta)
        eps, _ = gdp_eps_for_delta(gdp_mu(t, self.q, self.sigma), self.delta)
        return eps


def steps_for_budget(eps_fn, epsilon: float, t_max: int = 10_000_000) -> int:
    """Largest t <= t_max with eps_fn(t) < epsilon (0 if even one step
    reaches it), by doubling and bisection; ``eps_fn`` (e.g.
    ``Accountant.eps``) must be nondecreasing in t. A non-finite epsilon
    raises ConfigurationError."""
    def under(t):
        eps = eps_fn(t)
        if not math.isfinite(eps):
            raise ConfigurationError("accountant returned non-finite epsilon")
        return eps < epsilon

    if t_max < 1 or not under(1):
        return 0
    lo, hi = 1, 2
    while hi <= t_max and under(hi):
        lo, hi = hi, hi * 2
    hi = min(hi, t_max + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if under(mid):
            lo = mid
        else:
            hi = mid
    return lo


def laplace_noise(value, scale: float, seed) -> np.ndarray:
    """Add i.i.d. Laplace(0, scale) noise."""
    if scale <= 0.0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    value = np.asarray(value, dtype=float)
    rng = np.random.default_rng(seed)
    return value + rng.laplace(0.0, scale, size=value.shape)


def exp_mech_binary(c, k: int, eps: float, seed):
    """Private binary vote aggregation over one vote count or an array.

    Each count c in [0, k] is labelled True ("in-distribution") with
    probability exp(eps c / 2) / (exp(eps c / 2) + exp(eps (k - c) / 2)),
    evaluated in the numerically stable logistic form. All labels come from
    one generator, ``rng.random(np.shape(c)) < p_in``, so a scalar count
    uses its first double. Returns a bool for a scalar count, else a bool
    array shaped like ``c``.
    """
    c = np.asarray(c)
    bad = c[(c < 0) | (c > k)]
    if bad.size:
        raise ConfigurationError(f"vote count {bad[0]} outside [0, {k}]")
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ConfigurationError(f"eps must be finite and >= 0, got {eps}")
    p_in = _expit(eps * (2.0 * c - k) / 2.0)
    labels = np.random.default_rng(seed).random(c.shape) < p_in
    return labels if labels.ndim else bool(labels)
