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
        X = data.standardize(data.gen_pinwheel(27_000, seed=4)).X
        self.assert_fit_close(gmm_fit_em(X, 5, n_iters=100, seed=7),
                              gmm_fit_em_oracle(X, 5, n_iters=100, seed=7))

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
