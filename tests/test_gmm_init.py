import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from dpflow import data
from dpflow import gmm as gmm_module
from dpflow.errors import ConfigurationError
from dpflow.flows import ActNormLayer, build_maf
from dpflow.gmm import (VARIANCE_FLOOR, GmmParams, gmm_fit_em, gmm_logpdf,
                        gmm_logpdf_and_grad, gmm_sample)
from dpflow.initialization import InitConfig, dp_nf_init, laplace_init_scale


def gmm_logpdf_grad(gmm, x):
    return gmm_logpdf_and_grad(gmm, x)[1]


def random_gmm(rng, m=3, d=2):
    w = rng.uniform(0.2, 1.0, m)
    return GmmParams(w / w.sum(), rng.normal(size=(m, d)),
                     rng.uniform(0.3, 2.0, (m, d)))


# Oracles: the row-major (n, M, D) mixture path with scipy's logsumexp that
# the component-major code replaced.

def component_logpdf_oracle(gmm, x):
    diff = x[:, None, :] - gmm.means[None, :, :]          # (n, M, D)
    quad = np.sum(diff * diff / gmm.variances[None], axis=2)
    norm = np.sum(np.log(gmm.variances), axis=1) \
        + gmm.dim * math.log(2 * math.pi)
    return -0.5 * (quad + norm[None, :])


def gmm_logpdf_oracle(gmm, x):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    log_joint = component_logpdf_oracle(gmm, pts) + np.log(gmm.weights)
    return logsumexp(log_joint, axis=1)


def gmm_logpdf_grad_oracle(gmm, x):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    log_joint = component_logpdf_oracle(gmm, pts) + np.log(gmm.weights)
    resp = np.exp(log_joint - logsumexp(log_joint, axis=1, keepdims=True))
    grads = -(pts[:, None, :] - gmm.means[None]) / gmm.variances[None]
    return np.sum(resp[:, :, None] * grads, axis=1)


def gmm_fit_em_oracle(X, n_components, n_iters=100, seed=0,
                      variance_floor=VARIANCE_FLOOR):
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    rng = np.random.default_rng(seed)
    means = gmm_module._kmeanspp_centers(X, n_components, rng)
    variances = np.tile(np.maximum(X.var(axis=0), variance_floor),
                        (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)
    ll_trace = []
    for _ in range(n_iters):
        gmm = GmmParams(weights, means, variances)
        log_joint = component_logpdf_oracle(gmm, X) + np.log(weights)[None, :]
        log_norm = logsumexp(log_joint, axis=1, keepdims=True)
        ll_trace.append(float(np.mean(log_norm)))
        resp = np.exp(log_joint - log_norm)                # (n, M)
        counts = resp.sum(axis=0)
        empty = counts < 1e-10
        nonempty = ~empty
        r = resp[:, nonempty]
        c = counts[nonempty][:, None]
        means[nonempty] = (r.T @ X) / c
        diff2 = (X[:, None, :] - means[None, nonempty, :]) ** 2
        variances[nonempty] = np.maximum(
            np.einsum("nm,nmd->md", r, diff2) / c, variance_floor)
        for m_idx in np.flatnonzero(empty):
            means[m_idx] = X[rng.integers(n)]
            variances[m_idx] = variance_floor
            counts[m_idx] = 1.0
        weights = counts / counts.sum()
    return GmmParams(weights, means, variances), ll_trace


def kmeanspp_centers_oracle(X, m, rng):
    """k-means++ seeding as it was before the running minimum: every
    round recomputes the distances to all centers chosen so far."""
    centers = [X[rng.integers(len(X))]]
    for _ in range(m - 1):
        d2 = np.min([np.sum((X - c) ** 2, axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(X[rng.integers(len(X))])
            continue
        centers.append(X[rng.choice(len(X), p=d2 / total)])
    return np.array(centers)


# Oracle: the component-major EM as it ran before the exact early exit,
# every one of its ``n_iters`` iterations, with its log-joint (constant
# first, then each coordinate's term added) and E-step. The library must
# give the same bytes.

def log_joint_full_oracle(weights, means, variances, xt, joint, work):
    d = xt.shape[0]
    factor = -0.5 / variances
    const = np.log(weights) - 0.5 * (np.sum(np.log(variances), axis=1)
                                     + d * math.log(2 * math.pi))
    joint[...] = const[:, None]
    for k in range(d):
        np.subtract(xt[k], means[:, k, None], out=work)
        work *= work
        work *= factor[:, k, None]
        joint += work


def e_step_full_oracle(weights, means, variances, xt, joint, work,
                       resp=True):
    log_joint_full_oracle(weights, means, variances, xt, joint, work)
    top = joint.max(axis=0)
    top[~np.isfinite(top)] = 0.0
    joint -= top
    np.exp(joint, out=joint)
    total = joint.sum(axis=0)
    if resp:
        joint /= total
    with np.errstate(divide="ignore"):
        return np.log(total) + top


def gmm_fit_em_full_oracle(X, n_components, n_iters=100, seed=0,
                           centers=kmeanspp_centers_oracle,
                           e_step=e_step_full_oracle):
    """Returns (GmmParams, trace, states): ``states`` holds the bit
    pattern of (weights, means, variances) before each iteration and after
    the last, n_iters + 1 entries."""
    X = np.ascontiguousarray(X, dtype=float)
    n, d = X.shape
    rng = np.random.default_rng(seed)
    means = centers(X, n_components, rng)
    variances = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR),
                        (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)
    xt = np.ascontiguousarray(X.T)
    resp = np.empty((n_components, n))
    work = np.empty_like(resp)
    ll_trace, states = [], []
    for _ in range(n_iters):
        states.append(weights.tobytes() + means.tobytes()
                      + variances.tobytes())
        log_norm = e_step(weights, means, variances, xt, resp, work)
        ll_trace.append(float(np.mean(log_norm)))
        counts = resp.sum(axis=1)
        empty = counts < 1e-10
        if empty.any():
            keep = ~empty
            r, c = resp[keep], counts[keep]
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
            counts[m_idx] = 1.0
        weights = counts / counts.sum()
    states.append(weights.tobytes() + means.tobytes() + variances.tobytes())
    return GmmParams(weights, means, variances), ll_trace, states


def first_repeat(states):
    """(start, period) of the first state that recurs, or None: states[t]
    equals states[start] with t = start + period the smallest such t."""
    seen = {}
    for t, key in enumerate(states):
        if key in seen:
            return seen[key], t - seen[key]
        seen[key] = t
    return None


def assert_same_fit_bytes(got, want):
    (gmm, trace), (oracle, oracle_trace) = got, want[:2]
    for field in ("weights", "means", "variances"):
        assert getattr(gmm, field).tobytes() \
            == getattr(oracle, field).tobytes(), field
    assert np.array(trace).tobytes() == np.array(oracle_trace).tobytes()


def assert_close_to_scale(got, want, rel=1e-12):
    """|got - want| <= rel * max|want|, elementwise: a relative bound on
    the array that does not blow up at entries that cancel to near zero."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) \
        <= rel * np.max(np.abs(want), initial=0.0)


@st.composite
def mixtures(draw):
    """A mixture with D in 1..4 and M in 1..6, some components duplicated
    (ties), and query points that include the component means."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = rng.normal(0.0, 2.0, (m, d))
    variances = rng.uniform(0.05, 3.0, (m, d))
    weights = rng.uniform(0.1, 1.0, m)
    for k in range(1, m):
        if draw(st.booleans()):  # duplicate an earlier component exactly
            src = int(rng.integers(k))
            means[k], variances[k], weights[k] = \
                means[src], variances[src], weights[src]
    gmm = GmmParams(weights / weights.sum(), means, variances)
    x = np.vstack([rng.normal(0.0, 3.0, (draw(st.integers(0, 40)), d)),
                   means])
    return gmm, x


class TestGmmLogpdf:
    def test_single_standard_component(self):
        gmm = GmmParams(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        assert gmm_logpdf(gmm, np.zeros(2)) \
            == pytest.approx(-math.log(2 * math.pi), rel=1e-14)

    def test_duplicate_components_collapse(self):
        mean, var = np.array([[0.5, -1.0]]), np.array([[1.2, 0.7]])
        one = GmmParams(np.array([1.0]), mean, var)
        two = GmmParams(np.array([0.5, 0.5]), np.vstack([mean, mean]),
                        np.vstack([var, var]))
        x = np.array([0.3, 0.4])
        assert gmm_logpdf(two, x) == pytest.approx(gmm_logpdf(one, x),
                                                   rel=1e-14)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        gmm = random_gmm(rng)
        for _ in range(20):
            x = rng.normal(size=2)
            direct = 0.0
            for w, mu, var in zip(gmm.weights, gmm.means, gmm.variances):
                norm = np.prod(1 / np.sqrt(2 * math.pi * var))
                direct += w * norm * math.exp(-0.5 * np.sum((x - mu) ** 2 / var))
            assert gmm_logpdf(gmm, x) == pytest.approx(math.log(direct),
                                                       abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        gmm = random_gmm(rng)
        x = rng.normal(size=(4, 2))
        grad = gmm_logpdf_grad(gmm, x)
        h = 1e-6
        for i in range(4):
            for j in range(2):
                hi, lo = x[i].copy(), x[i].copy()
                hi[j] += h
                lo[j] -= h
                fd = (gmm_logpdf(gmm, hi) - gmm_logpdf(gmm, lo)) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, abs=1e-7)

    def test_1d_normalization(self):
        rng = np.random.default_rng(3)
        gmm = random_gmm(rng, m=3, d=1)
        xs = np.arange(-20.0, 20.0, 1e-3)[:, None]
        integral = np.trapezoid(np.exp(gmm_logpdf(gmm, xs)), dx=1e-3)
        assert integral == pytest.approx(1.0, abs=1e-3)


class TestAgainstRowMajorOracle:
    @settings(max_examples=150, deadline=None)
    @given(mixtures())
    def test_logpdf_and_grad(self, case):
        gmm, x = case
        np.testing.assert_allclose(gmm_logpdf(gmm, x),
                                   gmm_logpdf_oracle(gmm, x), rtol=1e-12)
        assert gmm_logpdf(gmm, x[0]) == pytest.approx(
            float(gmm_logpdf_oracle(gmm, x[:1])[0]), rel=1e-12)
        # Each gradient entry is a sum of signed terms; bound its error by
        # the largest term.
        terms = np.abs((x[:, None, :] - gmm.means) / gmm.variances)
        err = np.abs(gmm_logpdf_grad(gmm, x) - gmm_logpdf_grad_oracle(gmm, x))
        assert np.all(err <= 1e-12 * terms.max(axis=1))

    def test_all_minus_inf_row_gives_minus_inf(self):
        gmm = GmmParams(np.array([0.5, 0.5]), np.zeros((2, 2)),
                        np.ones((2, 2)))
        x = np.array([[0.0, 0.0], [1e200, 0.0], [0.5, -0.5]])
        with np.errstate(over="ignore"):
            got, want = gmm_logpdf(gmm, x), gmm_logpdf_oracle(gmm, x)
        assert got[1] == -np.inf and want[1] == -np.inf
        assert not np.any(np.isnan(got))
        np.testing.assert_allclose(got[[0, 2]], want[[0, 2]], rtol=1e-12)

    def test_zero_rows(self):
        gmm = GmmParams(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
        assert gmm_logpdf(gmm, np.zeros((0, 3))).shape == (0,)
        assert gmm_logpdf_grad(gmm, np.zeros((0, 3))).shape == (0, 3)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 6),
           iters=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
           duplicate_rows=st.booleans())
    def test_em_matches_oracle(self, d, m, iters, seed, duplicate_rows):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(int(rng.integers(m + 1, 150)), d)) \
            + rng.normal(0.0, 3.0, (1, d))
        if duplicate_rows:  # exact ties between points
            X[len(X) // 2:] = X[:len(X) - len(X) // 2]
        got, got_trace = gmm_fit_em(X, m, n_iters=iters, seed=seed)
        want, want_trace = gmm_fit_em_oracle(X, m, n_iters=iters, seed=seed)
        for a, b in ((got.weights, want.weights), (got.means, want.means),
                     (got.variances, want.variances)):
            assert_close_to_scale(a, b)
        assert_close_to_scale(got_trace, want_trace)

    def test_em_empty_component_reseed_matches_oracle(self, monkeypatch):
        # Seed one component a million units from the data: it takes no
        # responsibility in the first E-step, so both paths reseed it at a
        # data point drawn from the same generator.
        real_centers = gmm_module._kmeanspp_centers

        def far_centers(X, m, rng):
            centers = real_centers(X, m, rng)
            centers[-1] = 1e6
            return centers

        monkeypatch.setattr(gmm_module, "_kmeanspp_centers", far_centers)
        X = np.random.default_rng(31).normal(size=(200, 2))
        one_step = []
        for fit in (gmm_fit_em, gmm_fit_em_oracle):
            gmm, _ = fit(X, 3, n_iters=1, seed=4)
            assert gmm.variances[-1].tolist() == [VARIANCE_FLOOR] * 2
            assert any(np.array_equal(gmm.means[-1], row) for row in X)
            one_step.append(gmm.means[-1])
        np.testing.assert_array_equal(one_step[0], one_step[1])
        got, got_trace = gmm_fit_em(X, 3, n_iters=6, seed=4)
        want, want_trace = gmm_fit_em_oracle(X, 3, n_iters=6, seed=4)
        for a, b in ((got.weights, want.weights), (got.means, want.means),
                     (got.variances, want.variances)):
            assert_close_to_scale(a, b)
        assert_close_to_scale(got_trace, want_trace)


class TestLongEmRuns:
    """EM at the size of the pinwheel benchmark's fit, against the oracle
    and across memory layouts."""

    @staticmethod
    def assert_fit_close(got, want):
        (gmm, trace), (oracle, oracle_trace) = got, want
        for a, b in ((gmm.weights, oracle.weights), (gmm.means, oracle.means),
                     (gmm.variances, oracle.variances)):
            assert_close_to_scale(a, b)
        assert_close_to_scale(trace, oracle_trace)

    def test_pinwheel_size_matches_oracle(self):
        # This fit reaches a fixed point within its 100 iterations, so the
        # early exit runs at full size; its bytes are the full run's.
        X = data.standardize(data.gen_pinwheel(27_000, seed=4)).X
        got = gmm_fit_em(X, 5, n_iters=100, seed=7)
        self.assert_fit_close(got,
                              gmm_fit_em_oracle(X, 5, n_iters=100, seed=7))
        full = gmm_fit_em_full_oracle(X, 5, n_iters=100, seed=7)
        assert first_repeat(full[2])[0] < 100
        assert_same_fit_bytes(got, full)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_component_on_variance_floor_matches_oracle(self, seed):
        # 60 copies of one point: from the second iteration on one
        # component holds exactly them, with both variances on the floor.
        rng = np.random.default_rng(23)
        X = np.vstack([rng.normal(size=(600, 2)),
                       np.tile([6.0, -4.0], (60, 1))])
        X = X[rng.permutation(len(X))]
        floored = []
        for iters in (2, 20, 60):
            gmm, _ = gmm_fit_em(X, 4, n_iters=iters, seed=seed)
            floored.append(np.flatnonzero(
                np.all(gmm.variances == VARIANCE_FLOOR, axis=1)).tolist())
        assert len(floored[0]) == 1 and floored == [floored[0]] * 3
        self.assert_fit_close(gmm_fit_em(X, 4, n_iters=60, seed=seed),
                              gmm_fit_em_oracle(X, 4, n_iters=60, seed=seed))

    def test_memory_layout_gives_same_bytes(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(3_000, 3)) + rng.normal(0.0, 3.0, (1, 3))
        wide = np.zeros((len(X), 2 * X.shape[1]))
        wide[:, ::2] = X
        want, want_trace = gmm_fit_em(X, 4, n_iters=30, seed=1)
        for layout in (np.asfortranarray(X), wide[:, ::2]):
            got, got_trace = gmm_fit_em(layout, 4, n_iters=30, seed=1)
            for field in ("weights", "means", "variances"):
                assert getattr(got, field).tobytes() \
                    == getattr(want, field).tobytes()
            assert got_trace == want_trace


def clustered_points(seed):
    """Points around up to five random centres; D (1-3), the component
    count M (1-5) and n (40-199) are drawn from the seed."""
    rng = np.random.default_rng(seed)
    d, m = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    n = int(rng.integers(40, 200))
    centres = rng.normal(0.0, 2.0, (m, d))
    X = rng.normal(size=(n, d)) * rng.uniform(0.3, 2.0, d) \
        + centres[rng.integers(m, size=n)]
    return X, m


def far_centers(X, m, rng):
    """k-means++ seeding with the last center a million units out: that
    component takes no responsibility and is reseeded in iteration 0."""
    centers = kmeanspp_centers_oracle(X, m, rng)
    centers[-1] = 1e6
    return centers


class TestEarlyExitMatchesFullRun:
    """``gmm_fit_em`` stops once a state recurs. Its params and trace must
    be the bytes of every iteration run, for run lengths on both sides of
    the cycle's start and of its first repeat."""

    # (seed of clustered_points, D, M, period of the first repeat, reseed)
    CASES = [(11, 1, 1, 1, False), (3, 3, 1, 1, False),
             (60, 1, 2, 1, False), (20, 3, 2, 1, False),
             (260, 3, 5, 2, False), (96, 3, 4, 3, False),
             (30, 1, 2, 2, True), (277, 1, 3, 3, True)]

    @pytest.mark.parametrize("seed, d, m, period, reseed", CASES)
    def test_cycle(self, monkeypatch, seed, d, m, period, reseed):
        X, got_m = clustered_points(seed)
        assert (X.shape[1], got_m) == (d, m)
        centers = kmeanspp_centers_oracle
        if reseed:
            centers = far_centers
            monkeypatch.setattr(gmm_module, "_kmeanspp_centers", far_centers)
            one, _, _ = gmm_fit_em_full_oracle(X, m, 1, seed, centers)
            assert one.variances[-1].tolist() == [VARIANCE_FLOOR] * d
        _, _, states = gmm_fit_em_full_oracle(X, m, 400, seed, centers)
        start, got_period = first_repeat(states)
        assert got_period == period
        repeat = start + period  # the first iteration that starts on a repeat
        lengths = {0, 1, start - 1, start, start + 1, repeat - 1, repeat,
                   repeat + 1, repeat + 2, repeat + 3 * period + 1, 400}
        for n_iters in sorted(k for k in lengths if k >= 0):
            assert_same_fit_bytes(
                gmm_fit_em(X, m, n_iters=n_iters, seed=seed),
                gmm_fit_em_full_oracle(X, m, n_iters, seed, centers))

    def test_state_before_a_reseed_is_no_repeat(self, monkeypatch):
        # Plain EM came back to a state from before a reseed in no fit
        # tried, so a scripted E-step makes the cycle A -> B -> A -> B' ...
        # Each pass through A empties the last component, and its reseed
        # draws a new point, so B and B' differ: the run does not repeat,
        # although A recurs. Component k owns four copies of k * 1e-4, so
        # every mean is exact and every variance (and X.var) on the floor.
        m, copies = 3, 4
        X = np.repeat(np.arange(m) * 1e-4, copies)[:, None]
        labels = np.repeat(np.arange(m), copies)

        def scripted_e_step(weights, means, variances, xt, joint, work,
                            resp=True):
            log_norm = e_step_full_oracle(weights, means, variances, xt,
                                          joint, work, resp=False)
            owner = labels.copy()
            if np.all(weights == 1 / m):  # state A
                owner[owner == m - 1] = 0
            joint[...] = 0.0
            joint[owner, np.arange(len(owner))] = 1.0
            return log_norm

        def centers(X, m, rng):
            return X[::copies].copy()

        monkeypatch.setattr(gmm_module, "_e_step", scripted_e_step)
        monkeypatch.setattr(gmm_module, "_kmeanspp_centers", centers)
        seed = 3
        _, _, states = gmm_fit_em_full_oracle(X, m, 9, seed, centers,
                                              scripted_e_step)
        assert states[0::2] == [states[0]] * 5
        assert len(set(states[1::2])) > 1
        for n_iters in range(10):
            assert_same_fit_bytes(
                gmm_fit_em(X, m, n_iters=n_iters, seed=seed),
                gmm_fit_em_full_oracle(X, m, n_iters, seed, centers,
                                       scripted_e_step))

    @pytest.mark.parametrize("seed", [7, 30])
    def test_no_repeat(self, seed):
        X, m = clustered_points(seed)
        want = gmm_fit_em_full_oracle(X, m, 400, seed)
        assert first_repeat(want[2]) is None
        assert_same_fit_bytes(gmm_fit_em(X, m, n_iters=400, seed=seed), want)

    @settings(max_examples=40, deadline=None)
    @given(case=mixtures())
    def test_logpdf_and_grad_match_full_e_step(self, case):
        gmm, x = case
        xt = np.ascontiguousarray(x.T)
        joint = np.empty((gmm.n_components, len(x)))
        work = np.empty_like(joint)
        want = e_step_full_oracle(gmm.weights, gmm.means, gmm.variances, xt,
                                  joint, work, resp=False)
        assert gmm_logpdf(gmm, x).tobytes() == want.tobytes()
        log_norm, grad = gmm_logpdf_and_grad(gmm, x)
        want = e_step_full_oracle(gmm.weights, gmm.means, gmm.variances, xt,
                                  joint, work)
        assert log_norm.tobytes() == want.tobytes()
        want_grad = np.empty_like(x)
        for k in range(gmm.dim):
            np.subtract(gmm.means[:, k, None], xt[k], out=work)
            work /= gmm.variances[:, k, None]
            work *= joint
            want_grad[:, k] = work.sum(axis=0)
        assert grad.tobytes() == want_grad.tobytes()


class TestKmeansppSeeding:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_recomputing_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(500, 3)) * rng.uniform(0.1, 3.0, 3)
        m = 2 + seed
        got = gmm_module._kmeanspp_centers(X, m, np.random.default_rng(seed))
        want = kmeanspp_centers_oracle(X, m, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()

    def test_identical_rows_match_oracle(self):
        # Every distance is zero, so each center comes from the fallback
        # uniform draw.
        X = np.tile([1.5, -2.0], (40, 1))
        got = gmm_module._kmeanspp_centers(X, 4, np.random.default_rng(3))
        want = kmeanspp_centers_oracle(X, 4, np.random.default_rng(3))
        assert got.tobytes() == want.tobytes()


class TestGmmSample:
    def test_component_frequencies(self):
        rng = np.random.default_rng(4)
        weights = np.array([0.2, 0.5, 0.3])
        gmm = GmmParams(weights, np.array([[-50.0], [0.0], [50.0]]),
                        np.ones((3, 1)))
        pts = gmm_sample(gmm, 100_000, seed=5)[:, 0]
        counts = np.array([(pts < -25).sum(),
                           ((pts >= -25) & (pts < 25)).sum(),
                           (pts >= 25).sum()])
        for c, w in zip(counts, weights):
            sd = math.sqrt(100_000 * w * (1 - w))
            assert abs(c - 100_000 * w) < 3 * sd

    def test_single_component_mean(self):
        gmm = GmmParams(np.array([1.0]), np.array([[2.0, -1.0]]),
                        np.array([[4.0, 0.25]]))
        pts = gmm_sample(gmm, 100_000, seed=6)
        assert abs(pts[:, 0].mean() - 2.0) < 4 * 2.0 / math.sqrt(100_000)
        assert abs(pts[:, 1].mean() + 1.0) < 4 * 0.5 / math.sqrt(100_000)

    def test_seed_determinism(self):
        rng = np.random.default_rng(7)
        gmm = random_gmm(rng)
        np.testing.assert_array_equal(gmm_sample(gmm, 64, seed=8),
                                      gmm_sample(gmm, 64, seed=8))


class TestGmmFitEm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(500, 3)) * [1.0, 2.0, 0.5] + [1.0, -1.0, 0.0]
        gmm, _ = gmm_fit_em(X, 1, n_iters=3, seed=0)
        np.testing.assert_allclose(gmm.means[0], X.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(gmm.variances[0], X.var(axis=0),
                                   rtol=1e-12)

    def test_separated_clusters_recovered(self):
        rng = np.random.default_rng(10)
        X = np.vstack([rng.normal(size=(1000, 2)) + 5.0,
                       rng.normal(size=(1000, 2)) - 5.0])
        gmm, _ = gmm_fit_em(X, 2, n_iters=50, seed=1)
        means = gmm.means[np.argsort(gmm.means[:, 0])]
        np.testing.assert_allclose(means[0], [-5.0, -5.0], atol=0.2)
        np.testing.assert_allclose(means[1], [5.0, 5.0], atol=0.2)
        np.testing.assert_allclose(gmm.weights, [0.5, 0.5], atol=0.05)

    def test_variance_does_not_cancel_at_large_offset(self):
        # Unit spread a million units from the origin: a variance taken as
        # E[x^2] - mean^2 would lose about 12 of its 16 digits here.
        rng = np.random.default_rng(19)
        X = rng.normal(size=(500, 2)) + 1e6
        gmm, _ = gmm_fit_em(X, 1, n_iters=2, seed=0)
        np.testing.assert_allclose(gmm.variances[0], X.var(axis=0),
                                   rtol=1e-8)

    def test_loglik_monotone(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(400, 2)) @ np.array([[1.0, 0.4], [0.0, 0.8]])
        _, trace = gmm_fit_em(X, 4, n_iters=40, seed=2)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9)

    def test_needs_more_points_than_components(self):
        with pytest.raises(ConfigurationError):
            gmm_fit_em(np.zeros((3, 2)), 5)

    @pytest.mark.parametrize("components, iters",
                             [(0, 10), (-2, 10), (2, -1)])
    def test_bad_sizes_rejected(self, components, iters):
        X = np.random.default_rng(0).normal(size=(20, 2))
        with pytest.raises(ConfigurationError):
            gmm_fit_em(X, components, n_iters=iters)

    def test_zero_iterations_is_the_seeding(self):
        X = np.random.default_rng(1).normal(size=(20, 2))
        gmm, trace = gmm_fit_em(X, 3, n_iters=0, seed=5)
        assert trace == []
        np.testing.assert_array_equal(gmm.weights, np.full(3, 1 / 3))
        np.testing.assert_array_equal(
            gmm.means,
            gmm_module._kmeanspp_centers(X, 3, np.random.default_rng(5)))

    def test_variances_floored(self):
        X = np.vstack([np.zeros((50, 2)), np.ones((50, 2))])
        gmm, _ = gmm_fit_em(X, 2, n_iters=30, seed=3)
        assert np.all(gmm.variances >= VARIANCE_FLOOR * (1 - 1e-12))

    @pytest.mark.parametrize("huge", [1e200, 1e160])
    def test_overflowing_distances_rejected(self, huge):
        # One huge finite value: the k-means++ squared distances overflow,
        # and their total would make the draw's probabilities NaN.
        X = np.random.default_rng(2).normal(size=(600, 2))
        X[0] = [huge, 0.0]
        with pytest.raises(ConfigurationError, match="overflow"):
            gmm_fit_em(X, 5, n_iters=3, seed=0)

    def test_points_without_coordinates_rejected(self):
        with pytest.raises(ConfigurationError, match="coordinate"):
            gmm_fit_em(np.zeros((20, 0)), 2)


class TestGmmParamsValidation:
    GOOD = dict(weights=[0.5, 0.5], means=np.zeros((2, 2)),
                variances=np.ones((2, 2)))

    @pytest.mark.parametrize("field", ["weights", "means", "variances"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, field, bad):
        value = np.array(self.GOOD[field], dtype=float)
        value.flat[0] = bad
        with pytest.raises(ConfigurationError, match=field):
            GmmParams(**{**self.GOOD, field: value})

    def test_zero_dimensions_rejected(self):
        with pytest.raises(ConfigurationError, match="coordinate"):
            GmmParams([1.0], np.zeros((1, 0)), np.zeros((1, 0)))


class TestGmmBaseFlow:
    def test_density_normalized_and_invertible(self):
        from dpflow.flows import GmmBase, build_maf
        rng = np.random.default_rng(15)
        gmm = random_gmm(rng, m=3, d=1)
        model = build_maf(1, n_blocks=2, hidden=8, seed=4)
        model.base = GmmBase(gmm)
        model.set_flat(rng.normal(0.0, 0.25, model.n_params))
        xs = np.arange(-20.0, 20.0, 1e-3)[:, None]
        integral = np.trapezoid(np.exp(model.log_prob(xs)), dx=1e-3)
        assert integral == pytest.approx(1.0, abs=1e-3)
        pts = model.sample(200, seed=5)
        back = model.transform_to_base(pts)
        rebuilt = back
        for layer in reversed(model.layers):
            rebuilt, _ = layer.inverse(rebuilt)
        np.testing.assert_allclose(rebuilt, pts, atol=1e-10)


class TestDpNfInit:
    def test_laplace_scale_formula(self):
        # K=1, delta=e^-1, sensitivity 1, eps=2 -> 2 sqrt(4)/2 = 2.
        assert laplace_init_scale(1, math.exp(-1), 1.0, 2.0) \
            == pytest.approx(2.0, rel=1e-14)

    def test_infinite_budget_gives_exact_clipped_stats(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(500, 2)) * 3.0
        model = build_maf(2, n_blocks=1, hidden=8, actnorm=True, seed=0)
        cfg = InitConfig(clip_range=2.0, epsilon=math.inf, delta=0.5, seed=0)
        dp_nf_init(X, model, cfg)
        actnorm = [l for l in model.layers if isinstance(l, ActNormLayer)][0]
        # layers before the actnorm are identity + reversal at build time
        clipped = np.clip(X[:, ::-1], -1.0, 1.0)
        np.testing.assert_allclose(actnorm.b, clipped.mean(axis=0),
                                   rtol=1e-12)
        np.testing.assert_allclose(actnorm.w, clipped.std(axis=0), rtol=1e-12)

    def test_standardizes_features_without_noise(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(2000, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        model = build_maf(3, n_blocks=3, hidden=8, actnorm=True, seed=1)
        cfg = InitConfig(clip_range=50.0, epsilon=math.inf, delta=0.5, seed=0)
        dp_nf_init(X, model, cfg)
        out = model.transform_to_base(X)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-10)

    def test_deterministic_and_floored(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 2))
        results = []
        for _ in range(2):
            model = build_maf(2, n_blocks=2, hidden=8, actnorm=True, seed=2)
            cfg = InitConfig(clip_range=4.0, epsilon=0.5, delta=1e-3, seed=9)
            dp_nf_init(X, model, cfg)
            ws = np.concatenate([l.w for l in model.layers
                                 if isinstance(l, ActNormLayer)])
            assert np.all(ws >= 1e-6)
            results.append(model.get_flat())
        np.testing.assert_array_equal(results[0], results[1])

    @pytest.mark.parametrize("field, message", [
        ("epsilon", "epsilon must be positive"),
        ("clip_range", "clip range must be positive")])
    def test_nan_setting_rejected(self, field, message):
        """A NaN budget would skip the noise and release exact statistics;
        a NaN clip range would give NaN scales."""
        with pytest.raises(ConfigurationError, match=message):
            InitConfig(**{field: math.nan}).validate()

    def test_overflowing_statistics_rejected(self):
        """At a clip range near the float maximum the noisy statistics or
        the data they normalize overflow; that raises before the layer is
        set, instead of writing infinities and NaNs into it."""
        X = np.random.default_rng(4).normal(size=(200, 2))
        model = build_maf(2, n_blocks=2, hidden=4, actnorm=True, seed=0)
        with pytest.raises(ConfigurationError, match="not finite"):
            dp_nf_init(X, model, InitConfig(clip_range=1e308, seed=1))
        assert np.isfinite(model.params).all()

    def test_requires_actnorm_layers(self):
        model = build_maf(2, n_blocks=1, hidden=4, actnorm=False, seed=0)
        with pytest.raises(ConfigurationError):
            dp_nf_init(np.zeros((10, 2)), model, InitConfig())

    def test_empty_dataset_rejected(self):
        model = build_maf(2, n_blocks=1, hidden=4, actnorm=True, seed=0)
        with pytest.raises(ConfigurationError):
            dp_nf_init(np.zeros((0, 2)), model, InitConfig())
