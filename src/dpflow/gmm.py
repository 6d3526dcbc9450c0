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
        if self.means.shape[1] < 1:
            raise ConfigurationError("components need at least one coordinate")
        for name in ("weights", "means", "variances"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigurationError(f"non-finite mixture {name}")
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


def _coordinate_rows(x) -> np.ndarray:
    """Points (n, D) as contiguous coordinate rows (D, n)."""
    return np.ascontiguousarray(np.asarray(x, dtype=float).T)


def _log_joint(weights, means, variances, xt, joint, work) -> None:
    """Write log pi_m + log N(x_n; mean_m, diag var_m) for coordinate rows
    ``xt`` (D, n) into ``joint`` (M, n).

    Each coordinate's term (x - mean)^2 * (-1/(2 var)) is formed in
    ``work`` (M, n); the first is written to ``joint`` plus the
    per-component constant, and the others are added to it. Both arrays
    belong to the caller; D >= 1. The square stays centred: the expanded
    x^2/var - 2 x mean/var + mean^2/var cancels at floor variances.
    """
    d = xt.shape[0]
    factor = -0.5 / variances
    const = np.log(weights) - 0.5 * (np.sum(np.log(variances), axis=1)
                                     + d * math.log(2 * math.pi))
    for k in range(d):
        np.subtract(xt[k], means[:, k, None], out=work)
        work *= work
        work *= factor[:, k, None]
        if k:
            joint += work
        else:
            np.add(work, const[:, None], out=joint)


def _e_step(weights, means, variances, xt, joint, work, resp=True):
    """One E-step on coordinate rows ``xt`` (D, n) in the caller's (M, n)
    arrays ``joint`` and ``work``; returns the mixture log-density (n,).

    The log-joint is shifted by its column maximum and exponentiated in
    place, once. With ``resp`` the columns are then divided by their sums,
    so ``joint`` holds the responsibilities r_mn; otherwise it holds the
    shifted exponentials. A column whose entries are all -inf gives -inf.
    """
    _log_joint(weights, means, variances, xt, joint, work)
    top = joint.max(axis=0)
    top[~np.isfinite(top)] = 0.0
    joint -= top
    np.exp(joint, out=joint)
    total = joint.sum(axis=0)
    if resp:
        joint /= total
    with np.errstate(divide="ignore"):
        return np.log(total) + top


def gmm_logpdf(gmm: GmmParams, x) -> np.ndarray:
    """log sum_m pi_m N(x; mean_m, diag var_m), via log-sum-exp.

    Accepts a single point (D,) or a batch (n, D); returns a scalar or (n,).
    """
    x = np.asarray(x, dtype=float)
    xt = _coordinate_rows(np.atleast_2d(x))
    joint = np.empty((gmm.n_components, xt.shape[1]))
    out = _e_step(gmm.weights, gmm.means, gmm.variances, xt, joint,
                  np.empty_like(joint), resp=False)
    return float(out[0]) if x.ndim == 1 else out


def gmm_logpdf_and_grad(gmm: GmmParams, x: np.ndarray):
    """The mixture log-density (n,), as ``gmm_logpdf``, and its gradient
    with respect to x (n, D), sum_m r_mn (mean_m - x_n) / var_m, from one
    E-step; the gradient is built one coordinate at a time."""
    xt = _coordinate_rows(np.atleast_2d(x))
    resp = np.empty((gmm.n_components, xt.shape[1]))
    diff = np.empty_like(resp)
    log_norm = _e_step(gmm.weights, gmm.means, gmm.variances, xt, resp, diff)
    grad = np.empty(xt.shape[::-1])
    for k in range(xt.shape[0]):
        np.subtract(gmm.means[:, k, None], xt[k], out=diff)
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
    """k-means++ seeding: each next center is a row drawn with probability
    proportional to its squared distance to the nearest center so far. The
    distances to the newest center fold into a running minimum. A distance
    total that overflows raises ConfigurationError."""
    centers = [X[rng.integers(len(X))]]
    d2 = np.full(len(X), np.inf)
    for _ in range(m - 1):
        with np.errstate(over="ignore"):
            np.minimum(d2, np.sum((X - centers[-1]) ** 2, axis=1), out=d2)
            total = d2.sum()
        if not np.isfinite(total):
            raise ConfigurationError(
                "squared distances between points overflow; rescale the data")
        if total <= 0:
            centers.append(X[rng.integers(len(X))])
            continue
        centers.append(X[rng.choice(len(X), p=d2 / total)])
    return np.array(centers)


def gmm_fit_em(X, n_components: int, n_iters: int = 100, seed=0):
    """Fit a diagonal-covariance mixture by EM with k-means++ seeding.

    Returns (GmmParams, per-iteration mean log-likelihoods). The likelihood
    trace is nondecreasing except when ``VARIANCE_FLOOR`` or an empty-cluster
    reseed intervenes. X is read once into contiguous coordinate rows, and
    both steps work on two component-major (M, n) arrays that every
    iteration reuses. The M-step variances are
    sum_n r_mn (x_nd - mean_md)^2 / sum_n r_mn, one coordinate at a time.

    Exact early exit: the generator is drawn from only to reseed an empty
    component, so an iteration without a reseed is a function of its input
    state alone. The states since the last reseed (or the start) are kept
    by their bit patterns; once an iteration starts from one seen before,
    the rest of the run repeats that cycle, so the remaining trace entries
    are copied by the period and the state the full run would end on is
    returned. Params and trace are the bytes of all ``n_iters`` iterations.

    ``n_components < 1``, ``n_iters < 0`` or X without columns raises
    ConfigurationError, as do squared distances that overflow (k-means++)
    and a fit whose parameters stop being finite.
    """
    X = np.ascontiguousarray(X, dtype=float)
    n, d = X.shape
    if n_components < 1:
        raise ConfigurationError(
            f"need at least one component, got {n_components}")
    if n_iters < 0:
        raise ConfigurationError(f"iterations must be >= 0, got {n_iters}")
    if n <= n_components:
        raise ConfigurationError("need more points than components")
    if d < 1:
        raise ConfigurationError("points need at least one coordinate")
    rng = np.random.default_rng(seed)

    means = _kmeanspp_centers(X, n_components, rng)
    variances = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR),
                        (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)

    xt = _coordinate_rows(X)
    resp = np.empty((n_components, n))
    work = np.empty_like(resp)
    ll_trace = []
    # states[t] is the state before iteration t; seen maps the bit pattern
    # of each state since the last reseed to its t.
    states, seen = [], {}
    for it in range(n_iters):
        key = weights.tobytes() + means.tobytes() + variances.tobytes()
        if key in seen:
            start = seen[key]
            period = it - start
            for j in range(it, n_iters):
                ll_trace.append(ll_trace[j - period])
            weights, means, variances = \
                states[start + (n_iters - it) % period]
            break
        seen[key] = it
        states.append((weights.copy(), means.copy(), variances.copy()))

        log_norm = _e_step(weights, means, variances, xt, resp, work)
        ll_trace.append(float(np.mean(log_norm)))

        counts = resp.sum(axis=1)
        empty = counts < 1e-10
        if empty.any():
            keep = ~empty
            r, c = resp[keep], counts[keep]
            seen.clear()  # the reseed drew from the generator
        else:
            keep, r, c = slice(None), resp, counts
        means[keep] = (r @ xt.T) / c[:, None]
        rows = work[:len(c)]
        for k in range(d):
            np.subtract(xt[k], means[keep, k, None], out=rows)
            rows *= rows
            variances[keep, k] = np.maximum(
                np.vecdot(r, rows) / c, VARIANCE_FLOOR)
        for m_idx in np.flatnonzero(empty):
            means[m_idx] = X[rng.integers(n)]
            variances[m_idx] = VARIANCE_FLOOR
            counts[m_idx] = 1.0  # ~1/n weight, enough to recapture a point
        weights = counts / counts.sum()

    return GmmParams(weights, means, variances), ll_trace
