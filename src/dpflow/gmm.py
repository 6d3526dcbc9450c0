"""Diagonal-covariance Gaussian mixtures: density, sampling, EM fitting.

Used as an alternative base density for flow models on multi-modal data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

VARIANCE_FLOOR = 1e-6


@dataclass
class GmmParams:
    """Mixture weights, means and per-component diagonal variances."""

    weights: np.ndarray    # (M,), simplex
    means: np.ndarray      # (M, D)
    variances: np.ndarray  # (M, D), entrywise >= VARIANCE_FLOOR

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.variances = np.atleast_2d(np.asarray(self.variances, dtype=float))
        if self.means.shape != self.variances.shape:
            raise ConfigurationError("means and variances must share a shape")
        if self.weights.shape[0] != self.means.shape[0]:
            raise ConfigurationError("one weight per component required")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ConfigurationError("weights must lie on the simplex")
        if np.any(self.variances < VARIANCE_FLOOR * (1 - 1e-12)):
            raise ConfigurationError("variances below floor")

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _log_joint(weights, means, variances, x) -> np.ndarray:
    """log pi_m + log N(x_n; mean_m, diag var_m), shape (M, n).

    Component-major and built one coordinate at a time on (M, n) rows, so no
    (n, M, D) temporary exists.
    """
    m, d = means.shape
    quad = np.zeros((m, x.shape[0]))
    diff = np.empty_like(quad)
    for k in range(d):
        np.subtract(x[:, k], means[:, k, None], out=diff)
        diff *= diff
        diff /= variances[:, k, None]
        quad += diff
    norm = np.sum(np.log(variances), axis=1) + d * math.log(2 * math.pi)
    quad += norm[:, None]
    quad *= -0.5
    quad += np.log(weights)[:, None]
    return quad


def _logsumexp_components(log_joint) -> np.ndarray:
    """log sum_m exp(log_joint[m, n]) for each n, shifted by the column
    maximum. A column whose entries are all -inf gives -inf."""
    top = log_joint.max(axis=0)
    top[~np.isfinite(top)] = 0.0
    shifted = log_joint - top
    np.exp(shifted, out=shifted)
    with np.errstate(divide="ignore"):
        return np.log(shifted.sum(axis=0)) + top


def _responsibilities(weights, means, variances, x):
    """Posterior component probabilities (M, n) and the log-density (n,)."""
    resp = _log_joint(weights, means, variances, x)
    log_norm = _logsumexp_components(resp)
    resp -= log_norm
    np.exp(resp, out=resp)
    return resp, log_norm


def gmm_logpdf(gmm: GmmParams, x) -> np.ndarray:
    """log sum_m pi_m N(x; mean_m, diag var_m), via log-sum-exp.

    Accepts a single point (D,) or a batch (n, D); returns a scalar or (n,).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    out = _logsumexp_components(
        _log_joint(gmm.weights, gmm.means, gmm.variances, pts))
    return float(out[0]) if single else out


def gmm_logpdf_and_grad(gmm: GmmParams, x: np.ndarray):
    """The mixture log-density (n,), as ``gmm_logpdf``, and its gradient
    with respect to x (n, D), sum_m r_mn (mean_m - x_n) / var_m, from one
    E-step; the gradient is built one coordinate at a time."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    resp, log_norm = _responsibilities(gmm.weights, gmm.means, gmm.variances,
                                       pts)
    grad = np.empty(pts.shape)
    diff = np.empty_like(resp)
    for k in range(pts.shape[1]):
        np.subtract(gmm.means[:, k, None], pts[:, k], out=diff)
        diff /= gmm.variances[:, k, None]
        diff *= resp
        grad[:, k] = diff.sum(axis=0)
    return log_norm, grad


def gmm_sample(gmm: GmmParams, n: int, seed) -> np.ndarray:
    """Draw n points: categorical component choice, then a Gaussian draw."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    comps = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    noise = rng.standard_normal((n, gmm.dim))
    return gmm.means[comps] + noise * np.sqrt(gmm.variances[comps])


def _kmeanspp_centers(X: np.ndarray, m: int, rng) -> np.ndarray:
    centers = [X[rng.integers(len(X))]]
    for _ in range(m - 1):
        d2 = np.min([np.sum((X - c) ** 2, axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(X[rng.integers(len(X))])
            continue
        centers.append(X[rng.choice(len(X), p=d2 / total)])
    return np.array(centers)


def gmm_fit_em(X, n_components: int, n_iters: int = 100, seed=0):
    """Fit a diagonal-covariance mixture by EM with k-means++ seeding.

    Returns (GmmParams, per-iteration mean log-likelihoods). The likelihood
    trace is nondecreasing except when ``VARIANCE_FLOOR`` or an empty-cluster
    reseed intervenes. Both steps work on component-major (M, n) arrays; the
    M-step variances are sum_n r_mn (x_nd - mean_md)^2 / sum_n r_mn, one
    coordinate at a time. ``n_components < 1`` or ``n_iters < 0`` raises
    ConfigurationError.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n_components < 1:
        raise ConfigurationError(
            f"need at least one component, got {n_components}")
    if n_iters < 0:
        raise ConfigurationError(f"iterations must be >= 0, got {n_iters}")
    if n <= n_components:
        raise ConfigurationError("need more points than components")
    rng = np.random.default_rng(seed)

    means = _kmeanspp_centers(X, n_components, rng)
    variances = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR),
                        (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)

    ll_trace = []
    for _ in range(n_iters):
        resp, log_norm = _responsibilities(weights, means, variances, X)
        ll_trace.append(float(np.mean(log_norm)))

        counts = resp.sum(axis=1)
        empty = counts < 1e-10
        nonempty = ~empty
        r = resp[nonempty]
        c = counts[nonempty]
        means[nonempty] = (r @ X) / c[:, None]
        rows = np.empty_like(r)
        for k in range(d):
            np.subtract(X[:, k], means[nonempty, k, None], out=rows)
            rows *= rows
            variances[nonempty, k] = np.maximum(
                np.einsum("mn,mn->m", r, rows) / c, VARIANCE_FLOOR)
        for m_idx in np.flatnonzero(empty):
            means[m_idx] = X[rng.integers(n)]
            variances[m_idx] = VARIANCE_FLOOR
            counts[m_idx] = 1.0  # ~1/n weight, enough to recapture a point
        weights = counts / counts.sum()

    return GmmParams(weights, means, variances), ll_trace
