import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpflow.errors import (ConfigurationError, NonFiniteInputError,
                           NumericalOverflowError)
from dpflow.flows import (BLOCK_ROWS, ActNormLayer, FlowModel, GmmBase,
                          MadeLayer, ReversalLayer, SphericalGaussian,
                          build_maf, made_degrees, made_masks, push_rows)
from dpflow.gmm import GmmParams
from dpflow.initialization import InitConfig, dp_nf_init
from dpflow.training import (OptimizerState, TrainConfig, apply_update,
                             train_dp_nf)


def random_model(rng, dim=None, hidden=None, blocks=None, actnorm=None,
                 scale=0.4):
    dim = dim or int(rng.integers(1, 6))
    hidden = hidden or int(rng.integers(4, 17))
    blocks = blocks or int(rng.integers(1, 4))
    actnorm = bool(rng.integers(2)) if actnorm is None else actnorm
    model = build_maf(dim, n_blocks=blocks, hidden=hidden, actnorm=actnorm,
                      seed=int(rng.integers(1 << 31)))
    model.set_flat(rng.normal(0.0, scale, model.n_params))
    for layer in model.layers:
        if isinstance(layer, ActNormLayer):
            layer.w[...] = np.abs(layer.w) + 0.5
    return model


def example_grad(model, x):
    """Exact gradient of -log p at one point (D,), from the fused path that
    training runs: a one-row batch with no clipping."""
    return model.clipped_grad_sum(np.asarray(x, dtype=float)[None], np.inf)[1]


def weighted_sum(layer, pieces, weights):
    """``pieces_weighted_sum`` into new arrays shaped like the layer's
    tensors."""
    return layer.pieces_weighted_sum(
        pieces, weights, [np.empty_like(t) for t in layer.param_tensors()])


def numerical_jacobian(fn, x, h=1e-6):
    d = x.shape[0]
    jac = np.empty((d, d))
    for j in range(d):
        hi, lo = x.copy(), x.copy()
        hi[j] += h
        lo[j] -= h
        jac[:, j] = (fn(hi) - fn(lo)) / (2 * h)
    return jac


class TestMasks:
    def test_entries_binary(self):
        for dim, hidden in [(1, 4), (2, 7), (5, 16)]:
            for mask in made_masks(dim, hidden):
                assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_autoregressivity_by_perturbation(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            dim = int(rng.integers(1, 6))
            layer = MadeLayer(dim, 12, rng=rng)
            layer.set_param_tensors([rng.normal(0, 0.5, t.shape)
                                     for t in layer.param_tensors()])
            x = rng.normal(size=(1, dim))
            u, _ = layer.forward(x)
            for i in range(dim):
                for j in range(i, dim):
                    bumped = x.copy()
                    bumped[0, j] += rng.normal() + 0.5
                    u2, _ = layer.forward(bumped)
                    assert u2[0, i] == u[0, i] or (j == i)
                    if j > i:
                        assert u2[0, i] == u[0, i]


class TestMadeLayer:
    def test_identity_at_zero_parameters(self):
        layer = MadeLayer(3, 8, rng=0)
        layer.set_param_tensors([np.zeros_like(t)
                                 for t in layer.param_tensors()])
        u, logdet = layer.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(u, [[1.0, 2.0, 3.0]])
        assert logdet[0] == 0.0

    def test_constant_log_scale(self):
        # Constant alpha = ln 2 per coordinate through the tanh squash.
        layer = MadeLayer(3, 8, s_max=5.0, rng=0)
        tensors = [np.zeros_like(t) for t in layer.param_tensors()]
        tensors[-1] = np.full(3, 5.0 * math.atanh(math.log(2.0) / 5.0))
        layer.set_param_tensors(tensors)
        u, logdet = layer.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(u, [[0.5, 1.0, 1.5]], rtol=1e-14)
        assert logdet[0] == pytest.approx(-3 * math.log(2.0), rel=1e-14)

    def test_logdet_matches_numerical_jacobian(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            layer = MadeLayer(2, 10, rng=rng)
            layer.set_param_tensors([rng.normal(0, 0.5, t.shape)
                                     for t in layer.param_tensors()])
            x = rng.normal(size=2)
            _, logdet = layer.forward(x[None, :])
            jac = numerical_jacobian(
                lambda v: layer.forward(v[None, :])[0][0], x)
            assert logdet[0] == pytest.approx(
                math.log(abs(np.linalg.det(jac))), abs=1e-5)

    def test_inverse_zero_weight(self):
        layer = MadeLayer(2, 6, rng=0)
        layer.set_param_tensors([np.zeros_like(t)
                                 for t in layer.param_tensors()])
        x, _ = layer.inverse(np.array([[0.1, -0.2]]))
        np.testing.assert_array_equal(x, [[0.1, -0.2]])

    def test_inverse_constant_scale(self):
        layer = MadeLayer(3, 8, rng=0)
        tensors = [np.zeros_like(t) for t in layer.param_tensors()]
        tensors[-1] = np.full(3, 5.0 * math.atanh(math.log(2.0) / 5.0))
        layer.set_param_tensors(tensors)
        x, _ = layer.inverse(np.array([[0.5, 1.0, 1.5]]))
        np.testing.assert_allclose(x, [[1.0, 2.0, 3.0]], rtol=1e-14)

    def test_inverse_bitwise_equal_to_all_pass_oracle(self):
        rng = np.random.default_rng(21)
        for dim in range(1, 6):
            for _ in range(8):
                layer = MadeLayer(dim, int(rng.integers(1, 20)),
                                  s_max=float(rng.uniform(0.5, 6.0)), rng=rng)
                # Non-zero heads and biases, masked entries included.
                layer.set_param_tensors([rng.normal(0, 0.8, t.shape)
                                         for t in layer.param_tensors()])
                u = rng.normal(size=(int(rng.integers(1, 300)), dim))
                x, logdet = layer.inverse(u)
                x_want, logdet_want = made_inverse_oracle(layer, u)
                assert x.tobytes() == x_want.tobytes()
                assert logdet.tobytes() == logdet_want.tobytes()

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            dim = int(rng.integers(1, 6))
            layer = MadeLayer(dim, 12, rng=rng)
            layer.set_param_tensors([rng.normal(0, 0.5, t.shape)
                                     for t in layer.param_tensors()])
            x = rng.normal(size=(30, dim))
            u, _ = layer.forward(x)
            back, _ = layer.inverse(u)
            fwd_again, _ = layer.forward(back)
            assert np.abs(back - x).max() < 1e-10
            assert np.abs(fwd_again - u).max() < 1e-10


class TestActNorm:
    def test_identity_defaults(self):
        layer = ActNormLayer(2)
        y, logdet = layer.forward(np.array([[3.0, -1.0]]))
        np.testing.assert_array_equal(y, [[3.0, -1.0]])
        assert logdet[0] == 0.0

    def test_affine_case(self):
        layer = ActNormLayer(2, w=[2.0, 4.0], b=[1.0, 1.0])
        y, logdet = layer.forward(np.array([[3.0, 5.0]]))
        np.testing.assert_allclose(y, [[1.0, 1.0]])
        assert logdet[0] == pytest.approx(-math.log(8.0))

    def test_round_trip_and_logdet_negation(self):
        rng = np.random.default_rng(5)
        layer = ActNormLayer(3, w=rng.uniform(0.5, 2.0, 3),
                             b=rng.normal(size=3))
        x = rng.normal(size=(10, 3))
        y, ld_fwd = layer.forward(x)
        back, ld_inv = layer.inverse(y)
        np.testing.assert_allclose(back, x, atol=1e-12)
        np.testing.assert_allclose(ld_fwd, -ld_inv)

    def test_scale_floor_rejected(self):
        with pytest.raises(ConfigurationError):
            ActNormLayer(2, w=[1.0, 1e-9])


class TestLogProb:
    def test_identity_flow_origin(self):
        model = build_maf(2, n_blocks=2, hidden=8, seed=0)
        model.set_flat(np.zeros(model.n_params))
        assert model.log_prob(np.zeros(2)) \
            == pytest.approx(-math.log(2 * math.pi), rel=1e-12)

    def test_identity_flow_unit_point(self):
        model = build_maf(2, n_blocks=2, hidden=8, seed=0)
        model.set_flat(np.zeros(model.n_params))
        assert model.log_prob(np.ones(2)) \
            == pytest.approx(-math.log(2 * math.pi) - 1.0, rel=1e-12)

    def test_single_actnorm_closed_form(self):
        model = FlowModel([ActNormLayer(1, w=[2.0])], SphericalGaussian(1))
        assert model.log_prob(np.zeros(1)) \
            == pytest.approx(-0.5 * math.log(2 * math.pi) - math.log(2.0))

    def test_non_finite_input_rejected(self):
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        with pytest.raises(NonFiniteInputError):
            model.log_prob(np.array([np.nan, 0.0]))

    def test_wrong_shape_is_configuration_error(self):
        """A wrong dimension or shape is a configuration fault, not bad
        values: ConfigurationError, with the value check never reached."""
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        for bad in (np.zeros((3, 3)), np.full((3, 3), np.nan),
                    np.zeros((2, 3, 2)), np.zeros(3)):
            with pytest.raises(ConfigurationError):
                model.log_prob(bad)
            with pytest.raises(ConfigurationError):
                model.transform_to_base(bad)

    def test_in_layer_overflow_raises(self):
        model = build_maf(2, n_blocks=2, hidden=4, seed=0)
        # Force an in-layer overflow: a huge shift head turns mu into inf,
        # so u = (x - mu) exp(-alpha) is non-finite inside layer 0.
        model.layers[0].b2[:] = 1.0
        model.layers[0].Wm[:] = 1e308
        with pytest.raises(NumericalOverflowError):
            model.log_prob(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("base", ["spherical", "gmm"])
    def test_base_density_overflow_raises(self, base):
        """A finite row whose square overflows in the base density: the
        layers pass it finite, the base term is -inf."""
        model = build_maf(2, n_blocks=2, hidden=4, seed=0)
        if base == "gmm":
            model.base = GmmBase(GmmParams(np.array([0.5, 0.5]),
                                           np.array([[0.0, 0.0], [1.0, 1.0]]),
                                           np.ones((2, 2))))
        x = np.array([[0.5, 0.0], [1e160, 0.0]])
        with pytest.raises(NumericalOverflowError) as err:
            model.log_prob(x)
        assert "1e+160" not in str(err.value)
        assert np.isfinite(model.log_prob(x[:1])).all()

    def test_normalization_1d(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            model = random_model(rng, dim=1, hidden=8, blocks=2, scale=0.25)
            xs = np.arange(-20.0, 20.0 + 1e-3, 1e-3)[:, None]
            density = np.exp(model.log_prob(xs))
            integral = np.trapezoid(density, dx=1e-3)
            assert integral == pytest.approx(1.0, abs=1e-3)


def made_heads_oracle(layer, x):
    """Reference MADE trunk: each masked weight formed at its product,
    out-of-place bias adds, ReLUs and squash, and ReLU indicators taken from
    the pre-activations."""
    z1 = x @ (layer.W1 * layer.m1).T + layer.b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ (layer.W2 * layer.m2).T + layer.b2
    h2 = np.maximum(z2, 0.0)
    mu = h2 @ (layer.Wm * layer.m_out).T + layer.bm
    raw = h2 @ (layer.Wa * layer.m_out).T + layer.ba
    alpha = layer.s_max * np.tanh(raw / layer.s_max)
    return mu, alpha, (z1 > 0.0, h1, z2 > 0.0, h2)


def made_kernel_oracle(layer, x, du, dld, weights):
    """Reference MADE kernels on one batch: the forward image and
    log-determinant, the reverse step's dx and gradient factors, and the
    per-example squared norms and weighted sums formed from those factors."""
    mu, alpha, (r1, h1, r2, h2) = made_heads_oracle(layer, x)
    eneg = np.exp(-alpha)
    u = (x - mu) * eneg
    dalpha = -du * u - dld[:, None]
    dmu = -du * eneg
    draw = dalpha * (1.0 - (alpha / layer.s_max) ** 2)
    dh2 = dmu @ (layer.Wm * layer.m_out) + draw @ (layer.Wa * layer.m_out)
    dz2 = dh2 * r2
    dh1 = dz2 @ (layer.W2 * layer.m2)
    dz1 = dh1 * r1
    dx = du * eneg + dz1 @ (layer.W1 * layer.m1)
    row_dot = lambda a, b: np.einsum("ij,ij->i", a, b)  # noqa: E731
    _, deg_h = made_degrees(layer.dim, layer.hidden)
    groups = (deg_h[:, None] == np.unique(deg_h)[None, :]).astype(float)
    a = dz1 * dz1
    sq = row_dot(a @ layer.m1, x * x) + (a @ np.ones((layer.hidden, 1)))[:, 0]
    sq += row_dot((dz2 * dz2) @ groups,
                  np.cumsum((h1 * h1) @ groups, axis=1) + 1.0)
    sq += row_dot(dmu * dmu + draw * draw, (h2 * h2) @ layer.m_out.T + 1.0)
    sums = [((out * weights[:, None]).T @ act) * mask
            for out, act, mask in ((dz1, x, layer.m1), (dz2, h1, layer.m2),
                                   (dmu, h2, layer.m_out),
                                   (draw, h2, layer.m_out))]
    sums += [weights @ factor for factor in (dz1, dz2, dmu, draw)]
    return {"u": u, "logdet": -alpha.sum(axis=1), "dx": dx,
            "pieces": (x, h1, h2, dz1, dz2, dmu, draw), "sq_norms": sq,
            "sums": sums}


def made_inverse_oracle(layer, u):
    """Reference MADE inversion: one full trunk pass per coordinate plus a
    final pass for the log-determinant (D+1 passes)."""
    x = np.array(u, dtype=float)
    for i in range(layer.dim):
        mu, alpha, _ = made_heads_oracle(layer, x)
        x[:, i] = u[:, i] * np.exp(alpha[:, i]) + mu[:, i]
    mu, alpha, _ = made_heads_oracle(layer, x)
    return x, alpha.sum(axis=1)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(dim=st.integers(1, 5), hidden=st.integers(1, 16),
       rows=st.sampled_from([1, 7, 64, BLOCK_ROWS + 3]),
       seed=st.integers(0, 2**32 - 1))
def test_made_kernels_bitwise_equal_to_oracle(dim, hidden, rows, seed):
    rng = np.random.default_rng(seed)
    layer = MadeLayer(dim, hidden, s_max=float(rng.uniform(0.5, 6.0)),
                      rng=rng)
    # Non-zero heads and biases, masked entries included.
    layer.set_param_tensors([rng.normal(0, 0.8, t.shape)
                             for t in layer.param_tensors()])
    x = rng.normal(size=(rows, dim))
    du, dld = rng.normal(size=(rows, dim)), rng.normal(size=rows)
    weights = rng.uniform(0.0, 1.0, rows)
    want = made_kernel_oracle(layer, x, du, dld, weights)

    def same(got, expected):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()

    same(layer.forward(x), (want["u"], want["logdet"]))
    u, logdet, cache = layer.forward_cache(x)
    same((u, logdet), (want["u"], want["logdet"]))
    dx, pieces = layer.backward_pieces(cache, du, dld)
    same((dx,) + pieces, (want["dx"],) + want["pieces"])
    same((layer.pieces_sq_norms(pieces),), (want["sq_norms"],))
    same(weighted_sum(layer, pieces, weights), want["sums"])
    same(layer.inverse(x), made_inverse_oracle(layer, x))


class TestSampling:
    def test_sample_bytes_match_oracle_stack(self):
        rng = np.random.default_rng(22)
        for seed in range(6):
            model = random_model(rng)
            z = model.base.sample(257, np.random.default_rng(seed))
            for layer in reversed(model.layers):
                if isinstance(layer, MadeLayer):
                    z, _ = made_inverse_oracle(layer, z)
                else:
                    z, _ = layer.inverse(z)
            assert model.sample(257, seed).tobytes() == z.tobytes()

    def test_identity_flow_mean(self):
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        model.set_flat(np.zeros(model.n_params))
        pts = model.sample(100_000, seed=8)
        assert np.abs(pts.mean(axis=0)).max() < 4 / math.sqrt(100_000)

    def test_seed_determinism(self):
        model = build_maf(3, n_blocks=2, hidden=8, seed=1)
        np.testing.assert_array_equal(model.sample(50, seed=3),
                                      model.sample(50, seed=3))

    def test_actnorm_pushforward(self):
        model = FlowModel([ActNormLayer(1, w=[2.0], b=[3.0])],
                          SphericalGaussian(1))
        pts = model.sample(100_000, seed=9)[:, 0]
        assert pts.mean() == pytest.approx(3.0, abs=4 * 2 / math.sqrt(100_000))
        assert pts.std() == pytest.approx(2.0, rel=0.02)

    def test_full_stack_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            model = random_model(rng)
            x = rng.normal(size=(40, model.dim))
            z = x
            for layer in model.layers:
                z, _ = layer.forward(z)
            back = z
            for layer in reversed(model.layers):
                back, _ = layer.inverse(back)
            assert np.abs(back - x).max() < 1e-8


def stack_oracle(layers, x, inverse=False):
    """One unblocked pass of every row through ``layers``: the image and
    the summed log-determinants."""
    z, total = x, np.zeros(x.shape[0])
    for layer in layers:
        z, ld = layer.inverse(z) if inverse else layer.forward(z)
        total = total + ld
    return z, total


# Row counts around one block edge, plus fixed counts that keep their case
# ids whatever BLOCK_ROWS is: 2,047-2,049 straddle a multi-block edge and
# 6,149 leaves a short last block (at 512 rows: 4 blocks +-1, 12 blocks + 5).
BOUNDARY_ROWS = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                 3 * BLOCK_ROWS + 5, 2047, 2048, 2049, 6149]


def boundary_model(seed):
    """A small non-trivial stack with actnorm and a mixture base."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim=3, hidden=6, blocks=2, actnorm=True,
                         scale=0.3)
    w = rng.uniform(0.2, 1.0, 3)
    model.base = GmmBase(GmmParams(w / w.sum(), rng.normal(size=(3, 3)),
                                   rng.uniform(0.5, 2.0, (3, 3))))
    return model


def count_layer_rows(monkeypatch, model, method):
    """Record the row count of every ``method`` call on the model's layers."""
    calls = []
    for layer in model.layers:
        real = getattr(layer, method)

        def counted(z, real=real):
            calls.append(z.shape[0])
            return real(z)
        monkeypatch.setattr(layer, method, counted)
    return calls


class TestRowBlocks:
    @pytest.mark.parametrize("n", BOUNDARY_ROWS)
    def test_log_prob_and_transform(self, monkeypatch, n):
        model = boundary_model(40)
        x = np.random.default_rng(n).normal(size=(n, 3))
        z, total = stack_oracle(model.layers, x)
        want = model.base.log_prob(z) + total
        calls = count_layer_rows(monkeypatch, model, "forward")
        got = model.log_prob(x)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        np.testing.assert_allclose(model.transform_to_base(x), z,
                                   rtol=1e-12, atol=1e-13)
        blocks = -(-n // BLOCK_ROWS)
        assert len(calls) == 2 * blocks * len(model.layers)
        assert max(calls, default=0) <= BLOCK_ROWS

    @pytest.mark.parametrize("n", BOUNDARY_ROWS[1:])
    def test_sample(self, monkeypatch, n):
        model = boundary_model(41)
        base = model.base.sample(n, np.random.default_rng(7))
        want, _ = stack_oracle(model.layers[::-1], base, inverse=True)
        calls = count_layer_rows(monkeypatch, model, "inverse")
        got = model.sample(n, 7)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
        assert max(calls) <= BLOCK_ROWS
        assert model.sample(n, 7).tobytes() == got.tobytes()

    @pytest.mark.parametrize("n", BOUNDARY_ROWS[1:])
    def test_dp_nf_init(self, n):
        # Oracle: the unblocked init loop, with the same noise streams.
        X = np.random.default_rng(n).normal(size=(n, 3)) * 2.0
        cfg = InitConfig(clip_range=6.0, epsilon=2.0, delta=1e-5, seed=3)
        model, oracle = boundary_model(42), boundary_model(42)
        dp_nf_init(X, model, cfg)
        init_oracle(X, oracle, cfg)
        np.testing.assert_allclose(model.params, oracle.params, rtol=1e-12)

    def test_last_block_overflow_raises(self):
        model = FlowModel([ReversalLayer(2), ActNormLayer(2, w=[1e-6, 1e-6])],
                          SphericalGaussian(2))
        x = np.zeros((BLOCK_ROWS + 3, 2))
        x[-1, 1] = 1e305  # only the last block overflows, at layer 1
        with pytest.raises(NumericalOverflowError):
            model.log_prob(x)

    def test_sample_size_below_one_rejected(self):
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        for n in (0, -3):
            with pytest.raises(ConfigurationError):
                model.sample(n, 0)


def init_oracle(X, model, config):
    """dp_nf_init with one unblocked pass through every layer before each
    actnorm layer (the loop that the segmented, row-blocked one replaced)."""
    from dpflow.accounting import laplace_noise
    from dpflow.flows import ACTNORM_SCALE_FLOOR
    from dpflow.initialization import laplace_init_scale
    n = X.shape[0]
    n_layers = sum(isinstance(layer, ActNormLayer) for layer in model.layers)
    half = config.clip_range / 2.0
    scale_mean = laplace_init_scale(n_layers, config.delta,
                                    config.clip_range / n, config.epsilon)
    scale_std = laplace_init_scale(n_layers, config.delta,
                                   config.clip_range / math.sqrt(n),
                                   config.epsilon)
    streams = iter(np.random.SeedSequence(config.seed).spawn(2 * n_layers))
    Z = X
    for layer in model.layers:
        if not isinstance(layer, ActNormLayer):
            Z, _ = layer.forward(Z)
            continue
        Z = np.clip(Z, -half, half)
        b = laplace_noise(Z.mean(axis=0), scale_mean, next(streams))
        w = laplace_noise(Z.std(axis=0), scale_std, next(streams))
        w = np.maximum(w, ACTNORM_SCALE_FLOOR)
        layer.set_param_tensors([w, b])
        Z = (Z - b) / w
    return model


def push_rows_oracle(layers, x, inverse=False):
    """``push_rows`` as it was before zero-head MADE layers were skipped:
    every layer runs on every block of rows."""
    out = np.empty(x.shape)
    total = np.zeros(x.shape[0])
    for start in range(0, x.shape[0], BLOCK_ROWS):
        z = x[start:start + BLOCK_ROWS]
        block_total = total[start:start + BLOCK_ROWS]
        for layer in layers:
            z, ld = layer.inverse(z) if inverse else layer.forward(z)
            block_total += ld
        out[start:start + BLOCK_ROWS] = z
    return out, total


def with_oracle_push(monkeypatch):
    """Route the model's passes and the private init through
    ``push_rows_oracle`` until the returned undo is called."""
    import dpflow.flows.model
    import dpflow.initialization
    for module in (dpflow.flows.model, dpflow.initialization):
        monkeypatch.setattr(module, "push_rows", push_rows_oracle)
    return monkeypatch.undo


def fresh_queries(model, x):
    """log_prob, transform_to_base and sample of ``model`` at rows x."""
    return [model.log_prob(x), model.transform_to_base(x),
            model.sample(x.shape[0], 5)]


class TestZeroHeadSkip:
    """A MADE layer with all-zero heads is skipped by ``push_rows``; on
    models with such layers every query gives the unskipped pass's bytes."""

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS,
                                   BLOCK_ROWS + 1])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("actnorm", [False, True])
    def test_fresh_model_bytes_match_unskipped(self, monkeypatch, actnorm,
                                               dim, n):
        x = np.random.default_rng(n + dim).normal(size=(n, dim)) * 2.0
        cfg = InitConfig(clip_range=6.0, epsilon=2.0, delta=1e-5, seed=3)
        model, oracle = (build_maf(dim, n_blocks=3, hidden=8,
                                   actnorm=actnorm, seed=9)
                         for _ in range(2))
        if actnorm:
            dp_nf_init(x, model, cfg)
        got = fresh_queries(model, x)
        undo = with_oracle_push(monkeypatch)
        if actnorm:
            dp_nf_init(x, oracle, cfg)
        want = fresh_queries(oracle, x)
        undo()
        assert model.params.tobytes() == oracle.params.tobytes()
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_only_live_block_runs(self, monkeypatch):
        """Of four MADE blocks only block 2 has a non-zero head; it alone
        runs, once per block of rows, in both directions."""
        n = BLOCK_ROWS + 1
        model = build_maf(2, n_blocks=4, hidden=8, actnorm=True, seed=1)
        made = [layer for layer in model.layers
                if isinstance(layer, MadeLayer)]
        made[2].ba[1] = 0.3
        assert [layer.heads_are_zero() for layer in made] == \
            [True, True, False, True]
        x = np.random.default_rng(0).normal(size=(n, 2))
        undo = with_oracle_push(monkeypatch)
        want = fresh_queries(model, x)
        undo()
        calls = []
        for method in ("forward", "inverse"):
            real = getattr(MadeLayer, method)

            def spy(self, z, real=real, method=method):
                calls.append((method, self))
                return real(self, z)
            monkeypatch.setattr(MadeLayer, method, spy)
        got = fresh_queries(model, x)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        # log_prob and transform_to_base forward, sample inverse: two blocks
        # of rows each.
        assert calls == [("forward", made[2])] * 4 + [("inverse", made[2])] * 2

    def test_overflow_after_skipped_layer_raises(self):
        """An overflow in a live layer behind a skipped one is still
        caught by the one test of the result."""
        model = build_maf(2, n_blocks=2, hidden=4, seed=0)
        model.layers[2].b2[:] = 1.0
        model.layers[2].Wm[:] = 1e308
        assert model.layers[0].heads_are_zero()
        with pytest.raises(NumericalOverflowError):
            model.log_prob(np.array([1.0, 1.0]))

    def test_trunk_overflow_row_kept(self, monkeypatch):
        """Contract: a zero-head layer maps a row whose trunk overflows to
        itself; the unskipped pass gave NaN (inf * 0), so log_prob through
        it raised NumericalOverflowError."""
        layer = MadeLayer(2, 4, rng=0)
        layer.W1[...] = 1e308
        layer.W2[...] = 1.0
        model = FlowModel([layer], SphericalGaussian(2))
        x = np.array([[1e10, 1e10], [1.0, 2.0]])
        z, total = push_rows(model.layers, x)
        assert z.tobytes() == x.tobytes()
        assert total.tobytes() == np.zeros(2).tobytes()
        assert np.isfinite(model.log_prob(x)).all()
        undo = with_oracle_push(monkeypatch)
        with pytest.raises(NumericalOverflowError):
            model.log_prob(x)
        undo()
        with np.errstate(over="ignore", invalid="ignore"):
            z_old, _ = push_rows_oracle(model.layers, x)
        assert np.isnan(z_old[0]).all()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_inverse_negative_zero_kept(self, dim):
        """Contract: in the inverse direction a zero-head layer keeps a
        -0.0 input as -0.0; the trunk pass added the +0.0 shift and gave
        +0.0. Nonzero values are the same bytes either way."""
        layer = MadeLayer(dim, 4, rng=0)
        u = np.full((2, dim), -0.0)
        u[1] = 0.25
        z, _ = push_rows([layer], u, inverse=True)
        z_old, _ = push_rows_oracle([layer], u, inverse=True)
        assert np.signbit(z[0]).all() and not np.signbit(z_old[0]).any()
        assert z[1].tobytes() == z_old[1].tobytes() == u[1].tobytes()


class TestNll:
    def test_identity_flow_single_point(self):
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        model.set_flat(np.zeros(model.n_params))
        assert model.nll(np.zeros((1, 2))) \
            == pytest.approx(math.log(2 * math.pi))

    def test_duplicate_row_invariance(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, dim=2)
        row = rng.normal(size=(1, 2))
        assert model.nll(row) \
            == pytest.approx(model.nll(np.vstack([row, row])))

    def test_matches_mean_log_prob(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, dim=3)
        batch = rng.normal(size=(17, 3))
        assert model.nll(batch) \
            == pytest.approx(-np.mean(model.log_prob(batch)), rel=1e-15)

    def test_empty_batch(self):
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        with pytest.raises(ConfigurationError):
            model.nll(np.zeros((0, 2)))


class TestPerExampleGrad:
    def test_actnorm_offset_symbolic(self):
        model = FlowModel([ActNormLayer(1)], SphericalGaussian(1))
        grad = example_grad(model, np.array([1.0]))
        # layout: [w, b]; d(-log p)/db = -(x - b)/w^2 = -1
        assert grad[1] == pytest.approx(-1.0, rel=1e-12)
        assert grad[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            model = random_model(rng)
            flat = model.get_flat()
            x = rng.normal(size=model.dim)
            grad = example_grad(model, x)
            h = 1e-5
            for j in rng.choice(model.n_params,
                                size=min(60, model.n_params), replace=False):
                bumped = flat.copy()
                bumped[j] += h
                model.set_flat(bumped)
                hi = -model.log_prob(x)
                bumped[j] -= 2 * h
                model.set_flat(bumped)
                lo = -model.log_prob(x)
                model.set_flat(flat)
                fd = (hi - lo) / (2 * h)
                denom = max(1.0, abs(grad[j]), abs(fd))
                assert abs(grad[j] - fd) / denom < 1e-5

    def test_stationary_shift_biases(self):
        model = build_maf(2, n_blocks=2, hidden=6, seed=0)
        model.set_flat(np.zeros(model.n_params))
        # Loading the gradient as parameters lays it out per tensor.
        model.set_flat(example_grad(model, np.zeros(2)))
        for layer in model.layers:
            if isinstance(layer, MadeLayer):
                np.testing.assert_allclose(layer.bm, 0.0, atol=1e-15)

    def test_batch_shape(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, dim=2)
        losses, total, norms = model.clipped_grad_sum(
            rng.normal(size=(7, 2)), 1.0)
        assert losses.shape == norms.shape == (7,)
        assert total.shape == (model.n_params,)


class TestBaseLogProbAndGrad:
    @pytest.mark.parametrize("components", [0, 1, 4])
    def test_matches_separate_calls(self, components):
        rng = np.random.default_rng(components)
        base = SphericalGaussian(3)
        if components:
            w = rng.uniform(0.1, 1.0, components)
            base = GmmBase(GmmParams(w / w.sum(),
                                     rng.normal(size=(components, 3)),
                                     rng.uniform(0.2, 3.0, (components, 3))))
        u = rng.normal(0.0, 2.0, (50, 3))
        log_p, grad = base.log_prob_and_grad(u)
        assert log_p.tobytes() == base.log_prob(u).tobytes()
        want = base.grad_log_prob(u) if components else -u
        assert grad.tobytes() == want.tobytes()

    def test_one_mixture_e_step_per_gradient(self, monkeypatch):
        from dpflow import gmm as gmm_module
        rng = np.random.default_rng(3)
        gmm = GmmParams([0.3, 0.7], rng.normal(size=(2, 2)), np.ones((2, 2)))
        model = build_maf(2, n_blocks=2, hidden=6, seed=1)
        model.base = GmmBase(gmm)
        calls = []
        real = gmm_module._log_joint

        def counted(*args):
            calls.append(1)
            return real(*args)
        monkeypatch.setattr(gmm_module, "_log_joint", counted)
        model.clipped_grad_sum(rng.normal(size=(9, 2)), 1.0)
        assert len(calls) == 1


class TestMadeSqNorms:
    def test_fused_matches_explicit_per_example_norms(self):
        """pieces_sq_norms equals the squared norm of each example's
        materialised masked weight and bias gradients."""
        rng = np.random.default_rng(21)
        # Random shapes, then widths below D - 1, where some of the degrees
        # 1..D-1 have no hidden unit.
        shapes = [(int(rng.integers(1, 6)), int(rng.integers(1, 20)))
                  for _ in range(25)]
        shapes += [(3, 1), (4, 1), (4, 2), (5, 3), (7, 2), (9, 5)]
        for dim, hidden in shapes:
            m = int(rng.integers(1, 30))
            layer = MadeLayer(dim, hidden, s_max=float(rng.uniform(1, 5)),
                              rng=rng)
            layer.set_param_tensors([rng.normal(0, 0.5, t.shape)
                                     for t in layer.param_tensors()])
            _, _, cache = layer.forward_cache(rng.normal(size=(m, dim)))
            _, pieces = layer.backward_pieces(
                cache, rng.normal(size=(m, dim)), rng.normal(size=m))
            x, h1, h2, dz1, dz2, dmu, draw = pieces
            grads = [np.einsum("mo,mi->moi", out, act) * mask
                     for out, act, mask in ((dz1, x, layer.m1),
                                            (dz2, h1, layer.m2),
                                            (dmu, h2, layer.m_out),
                                            (draw, h2, layer.m_out))]
            grads += [dz1, dz2, dmu, draw]
            explicit = sum(np.sum(g.reshape(m, -1) ** 2, axis=1)
                           for g in grads)
            np.testing.assert_allclose(layer.pieces_sq_norms(pieces),
                                       explicit, rtol=1e-13, atol=0)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(15)
        model = random_model(rng)
        points = rng.normal(size=(100, model.dim))
        reloaded = FlowModel.from_json(model.to_json())
        np.testing.assert_array_equal(model.log_prob(points),
                                      reloaded.log_prob(points))
        np.testing.assert_array_equal(model.get_flat(), reloaded.get_flat())

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        model = random_model(rng, dim=2, actnorm=True)
        path = tmp_path / "model.json"
        model.save(path)
        reloaded = FlowModel.load(path)
        pts = rng.normal(size=(20, 2))
        np.testing.assert_array_equal(model.log_prob(pts),
                                      reloaded.log_prob(pts))

    def test_format_version_present(self):
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        doc = json.loads(model.to_json())
        assert doc["format_version"] == 1
        assert doc["dim"] == 2

    def test_gmm_base_round_trip(self):
        from dpflow.flows import GmmBase
        from dpflow.gmm import GmmParams
        rng = np.random.default_rng(17)
        gmm = GmmParams(np.array([0.3, 0.7]), rng.normal(size=(2, 2)),
                        rng.uniform(0.5, 2.0, (2, 2)))
        model = build_maf(2, n_blocks=2, hidden=6, seed=2)
        model.base = GmmBase(gmm)
        model.set_flat(rng.normal(0, 0.3, model.n_params))
        reloaded = FlowModel.from_json(model.to_json())
        pts = rng.normal(size=(30, 2))
        np.testing.assert_array_equal(model.log_prob(pts),
                                      reloaded.log_prob(pts))


@st.composite
def architectures(draw):
    """A random stack (dimension, blocks, width, actnorm) with random
    parameters over a spherical or a random mixture base."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_model(rng, dim=draw(st.integers(1, 4)),
                         hidden=draw(st.integers(1, 12)),
                         blocks=draw(st.integers(1, 3)),
                         actnorm=draw(st.booleans()))
    m = draw(st.integers(0, 4))
    if m:
        w = rng.uniform(0.1, 1.0, m)
        model.base = GmmBase(GmmParams(
            w / w.sum(), rng.normal(size=(m, model.dim)),
            rng.uniform(0.2, 3.0, (m, model.dim))))
    return model, rng.normal(size=(17, model.dim))


@settings(max_examples=60, deadline=None)
@given(architectures())
def test_serialization_round_trip_property(case):
    model, points = case
    text = model.to_json()
    reloaded = FlowModel.from_json(text)
    assert reloaded.to_json() == text
    assert reloaded.params.tobytes() == model.params.tobytes()
    assert [type(layer) for layer in reloaded.layers] \
        == [type(layer) for layer in model.layers]
    assert type(reloaded.base) is type(model.base)
    assert reloaded.log_prob(points).tobytes() \
        == model.log_prob(points).tobytes()
    assert reloaded.sample(9, 3).tobytes() == model.sample(9, 3).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(architectures(), st.integers(1, 64),
       st.floats(1e-3, 1e3), st.floats(0.1, 30.0))
def test_clipped_sum_norm_bounded_property(case, b, clip, spread):
    """However large the per-example gradients, the clipped sum of b rows
    has norm at most b * C, and every per-example norm is finite."""
    model, _ = case
    x = np.random.default_rng(b).normal(0.0, spread, (b, model.dim))
    _, total, norms = model.clipped_grad_sum(x, clip)
    assert norms.shape == (b,) and np.all(np.isfinite(norms))
    assert np.linalg.norm(total) <= b * clip * (1 + 1e-12)


def two_phase_grad_sum(model, x, clip):
    """Reference for the norms and gradient of ``clipped_grad_sum``: every
    layer's factors kept to the end of the reverse pass, the squared norms
    summed in layer order, then each clipping weight (at clip = inf, an
    explicit 1) multiplied into its output factor and the tensor sums
    concatenated in the layout of ``params``."""
    z, caches = x, []
    for layer in model.layers:
        z, _, cache = layer.forward_cache(z)
        caches.append(cache)
    du = -model.base.log_prob_and_grad(z)[1]
    dld = -np.ones(x.shape[:-1])
    pieces = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        du, pieces[i] = model.layers[i].backward_pieces(caches[i], du, dld)
    sq = np.zeros(x.shape[:-1])
    for layer, p in zip(model.layers, pieces):
        sq = sq + layer.pieces_sq_norms(p)
    norms = np.sqrt(sq)
    weights = 1.0 / np.maximum(1.0, norms / clip)
    sums = []
    for layer, p in zip(model.layers, pieces):
        if isinstance(layer, MadeLayer):
            x_in, h1, h2, dz1, dz2, dmu, draw = p
            sums += [((out * weights[..., None]).mT @ act) * mask
                     for out, act, mask in ((dz1, x_in, layer.m1),
                                            (dz2, h1, layer.m2),
                                            (dmu, h2, layer.m_out),
                                            (draw, h2, layer.m_out))]
            sums += [(weights[..., None, :] @ factor)[..., 0, :]
                     for factor in (dz1, dz2, dmu, draw)]
        elif isinstance(layer, ActNormLayer):
            sums += [weights @ factor for factor in p]
    return norms, np.concatenate([s.ravel() for s in sums])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(architectures(), st.sampled_from([np.inf, 1e3, 0.3]))
def test_clipped_sum_bytes_match_two_phase_property(case, clip):
    """At clip = inf the sums formed on the reverse pass have the bytes of
    the two-phase path with explicit unit weights; at a finite clip, with
    rows clipped or not, the bytes of the two-phase path. The norms keep
    their bytes too."""
    model, x = case
    _, total, norms = model.clipped_grad_sum(x, clip)
    want_norms, want_total = two_phase_grad_sum(model, x, clip)
    assert norms.tobytes() == want_norms.tobytes()
    assert total.tobytes() == want_total.tobytes()


def grad_models():
    """A plain model with actnorm blocks and a stack of three flows, each
    with three MADE layers, and a batch for each."""
    rng = np.random.default_rng(41)
    plain = random_model(rng, dim=3, hidden=6, blocks=3, actnorm=True)
    stack = FlowModel.stack(random_members(rng, 3, 3, 6, blocks=3))
    return [(plain, rng.normal(size=(9, 3))),
            (stack, rng.normal(size=(3, 9, 3)))]


class TestClippedGradSumPasses:
    @pytest.mark.parametrize("clip", [np.inf, 0.5])
    def test_one_norm_and_one_sum_per_made_layer(self, monkeypatch, clip):
        """Each MADE layer runs each gradient kernel once per call, at both
        clip settings, so that both are timed on every workload."""
        calls = []
        for method in ("pieces_sq_norms", "pieces_weighted_sum"):
            def counted(self, *args, _real=getattr(MadeLayer, method),
                        _method=method):
                calls.append((id(self), _method))
                return _real(self, *args)
            monkeypatch.setattr(MadeLayer, method, counted)
        for model, x in grad_models():
            calls.clear()
            model.clipped_grad_sum(x, clip)
            made = [id(layer) for layer in model.layers
                    if isinstance(layer, MadeLayer)]
            assert len(made) == 3
            assert sorted(calls) == sorted(
                (layer, method) for layer in made
                for method in ("pieces_sq_norms", "pieces_weighted_sum"))

    @pytest.mark.parametrize("clip", [np.inf, 0.5])
    def test_each_call_returns_new_gradient(self, clip):
        for model, x in grad_models():
            _, first, _ = model.clipped_grad_sum(x, clip)
            _, second, _ = model.clipped_grad_sum(x, clip)
            assert not np.shares_memory(first, second)
            assert not np.shares_memory(first, model.params)
            assert first.tobytes() == second.tobytes()


@pytest.mark.parametrize("case", ["s_max", "actnorm_scale", "gmm_mean",
                                  "gmm_variance"])
def test_overlong_literal_rejected(case):
    """A number literal that parses to inf is rejected wherever it sits."""
    gmm = GmmParams([0.5, 0.5], [[0.0, 1.0], [2.0, 3.0]], np.ones((2, 2)))
    model = build_maf(2, n_blocks=1, hidden=4, actnorm=True, seed=0)
    model.base = GmmBase(gmm)
    doc = json.loads(model.to_json())
    made, _, actnorm = doc["layers"]
    marker = 123.25
    if case == "s_max":
        made["s_max"] = marker
    elif case == "actnorm_scale":
        actnorm["params"]["w"][1] = marker
    elif case == "gmm_mean":
        doc["base"]["means"][1][0] = marker
    else:
        doc["base"]["variances"][0][1] = marker
    text = json.dumps(doc)
    assert text.count(repr(marker)) == 1
    FlowModel.from_json(text)  # the marker itself is a valid value
    with pytest.raises(ConfigurationError, match="non-finite"):
        FlowModel.from_json(text.replace(repr(marker), "1e999"))


@pytest.mark.parametrize("case", ["wrong_shape", "missing_tensor",
                                  "unknown_layer", "invalid_json",
                                  "nan_tensor", "inf_literal", "bad_version",
                                  "dim_mismatch"])
def test_malformed_model_file_rejected(case):
    doc = json.loads(build_maf(2, n_blocks=1, hidden=4, seed=0).to_json())
    made, reversal = doc["layers"]
    if case == "wrong_shape":
        made["params"]["W1"] = [[1.0]]  # would broadcast if not rejected
    elif case == "missing_tensor":
        del made["params"]["b1"]
    elif case == "unknown_layer":
        reversal["type"] = "coupling"
    elif case == "nan_tensor":
        made["params"]["bm"] = [math.nan, 0.0]
    elif case == "bad_version":
        doc["format_version"] = 2
    elif case == "dim_mismatch":
        doc["base"]["dim"] = 3
    text = json.dumps(doc)
    if case == "invalid_json":
        text = text[:-5]
    elif case == "inf_literal":  # parses to inf without the NaN keyword
        text = text.replace('"ba": [0.0, 0.0]', '"ba": [1e999, 0.0]')
        assert "1e999" in text
    with pytest.raises(ConfigurationError):
        FlowModel.from_json(text)


class TestLayout:
    def test_flat_round_trip(self):
        rng = np.random.default_rng(18)
        model = random_model(rng)
        flat = rng.normal(size=model.n_params)
        model.set_flat(flat)
        np.testing.assert_array_equal(model.get_flat(), flat)

    def test_tensors_alias_params(self):
        """Every layer tensor is a view into ``params`` after training,
        loading and private initialization."""
        def check(model):
            for layer in model.layers:
                for tensor in layer.param_tensors():
                    assert np.shares_memory(tensor, model.params)
            np.testing.assert_array_equal(
                model.get_flat(),
                np.concatenate([t.ravel() for layer in model.layers
                                for t in layer.param_tensors()]))

        X = np.random.default_rng(19).normal(size=(200, 2))
        model = build_maf(2, n_blocks=2, hidden=6, actnorm=True, seed=0)
        dp_nf_init(X, model, InitConfig(epsilon=1.0, seed=0))
        check(model)
        model, _ = train_dp_nf(X, model, TrainConfig(
            epsilon=10.0, batch_size=20, max_steps=5, seed=0))
        check(model)
        check(FlowModel.from_json(model.to_json()))

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copies_alias_their_params(self, how):
        rng = np.random.default_rng(20)
        model = random_model(rng, dim=2, actnorm=True)
        clone = copy.deepcopy(model) if how == "deepcopy" \
            else pickle.loads(pickle.dumps(model))
        for layer in clone.layers:
            for tensor in layer.param_tensors():
                assert np.shares_memory(tensor, clone.params)
                assert not np.shares_memory(tensor, model.params)
        np.testing.assert_array_equal(clone.params, model.params)
        pts = rng.normal(size=(10, 2))
        before = model.log_prob(pts)
        np.testing.assert_array_equal(clone.log_prob(pts), before)
        apply_update(clone.params, rng.normal(size=clone.n_params),
                     OptimizerState(), TrainConfig(learning_rate=0.1))
        assert not np.array_equal(clone.log_prob(pts), before)
        np.testing.assert_array_equal(model.log_prob(pts), before)

    def test_set_flat_wrong_length_rejected(self):
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        before = model.get_flat()
        for bad in (np.zeros(3), np.zeros(model.n_params + 1),
                    np.zeros((1, model.n_params))):
            with pytest.raises(ConfigurationError):
                model.set_flat(bad)
        np.testing.assert_array_equal(model.params, before)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_set_flat_non_finite_rejected(self, value):
        rng = np.random.default_rng(23)
        model = random_model(rng, dim=2)
        before = model.get_flat()
        flat = rng.normal(size=model.n_params)
        flat[model.n_params // 2] = value
        with pytest.raises(NonFiniteInputError):
            model.set_flat(flat)
        assert model.params.tobytes() == before.tobytes()

    def test_layout_covers_all_parameters(self):
        model = build_maf(3, n_blocks=2, hidden=8, actnorm=True, seed=0)
        total = sum(t.size for layer in model.layers
                    for t in layer.param_tensors())
        assert model.n_params == total


# -- member stacking --------------------------------------------------------

def random_members(rng, k, dim, hidden, s_max=None, blocks=1):
    """k MADE/reversal flows of one architecture with random non-zero
    parameters, masked entries included."""
    s_max = float(rng.uniform(0.5, 6.0)) if s_max is None else s_max
    members = []
    for _ in range(k):
        layers = []
        for _ in range(blocks):
            layer = MadeLayer(dim, hidden, s_max=s_max, rng=rng)
            layer.set_param_tensors([rng.normal(0, 0.8, t.shape)
                                     for t in layer.param_tensors()])
            layers += [layer, ReversalLayer(dim)]
        members.append(FlowModel(layers, SphericalGaussian(dim)))
    return members


def same_bytes(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=80, derandomize=True, deadline=None)
@given(k=st.integers(1, 4), dim=st.integers(1, 5), hidden=st.integers(1, 16),
       rows=st.sampled_from([1, 7, 64]), seed=st.integers(0, 2**32 - 1))
def test_stacked_kernels_bitwise_equal_per_member(k, dim, hidden, rows, seed):
    """Slice j of every stacked layer kernel, of the base and of the fused
    clipped sum has the bytes of member j's own 2-D computation."""
    rng = np.random.default_rng(seed)
    members = random_members(rng, k, dim, hidden)
    stack = FlowModel.stack(members)
    x = rng.normal(size=(k, rows, dim))
    du, dld = rng.normal(size=(k, rows, dim)), rng.normal(size=(k, rows))
    weights = rng.uniform(0.0, 1.0, (k, rows))

    for i, stacked in enumerate(stack.layers):
        fwd = stacked.forward(x)
        u, logdet, cache = stacked.forward_cache(x)
        dx, pieces = stacked.backward_pieces(cache, du, dld)
        sq = np.broadcast_to(stacked.pieces_sq_norms(pieces), (k, rows))
        sums = weighted_sum(stacked, pieces, weights)
        for j, member in enumerate(members):
            layer = member.layers[i]
            same_bytes([a[j] for a in fwd], layer.forward(x[j]))
            u_j, logdet_j, cache_j = layer.forward_cache(x[j])
            same_bytes((u[j], logdet[j]), (u_j, logdet_j))
            dx_j, pieces_j = layer.backward_pieces(cache_j, du[j], dld[j])
            same_bytes((dx[j],) + tuple(p[j] for p in pieces),
                       (dx_j,) + tuple(pieces_j))
            same_bytes([sq[j]], [np.broadcast_to(
                layer.pieces_sq_norms(pieces_j), rows)])
            same_bytes([s[j] for s in sums],
                       weighted_sum(layer, pieces_j, weights[j]))

    lp, grad = stack.base.log_prob_and_grad(x)
    for j, member in enumerate(members):
        same_bytes((lp[j], grad[j]), member.base.log_prob_and_grad(x[j]))

    for clip in (np.inf, 1.0):
        losses, total, norms = stack.clipped_grad_sum(x, clip)
        assert total.shape == stack.params.shape
        # The summed gradient is laid out like params: written into a
        # stack, member j's share is member(j)'s parameter vector.
        layout = FlowModel.stack(members)
        layout.set_flat(total)
        for j, member in enumerate(members):
            losses_j, total_j, norms_j = member.clipped_grad_sum(x[j], clip)
            same_bytes((losses[j], norms[j], layout.member(j).params),
                       (losses_j, norms_j, total_j))


class TestStack:
    def test_members_round_trip(self):
        models = [build_maf(3, n_blocks=2, hidden=5, seed=s)
                  for s in range(4)]
        for model in models:
            model.set_flat(np.random.default_rng(7).normal(
                size=model.n_params))
        stack = FlowModel.stack(models)
        assert stack.members == 4 and stack.n_params == 4 * models[0].n_params
        for layer in stack.layers:
            for tensor in layer.param_tensors():
                assert tensor.shape[0] == 4
                assert np.shares_memory(tensor, stack.params)
        for j, model in enumerate(models):
            member = stack.member(j)
            assert member.members is None
            assert member.to_json() == model.to_json()
            assert member.params.tobytes() == model.params.tobytes()
            assert not np.shares_memory(member.params, stack.params)
            assert not np.shares_memory(member.params, model.params)

    @pytest.mark.parametrize("call", [
        lambda s: s.log_prob(np.zeros((2, 3, 2))),
        lambda s: s.log_prob(np.zeros(2)),
        lambda s: s.sample(4, 0),
        lambda s: s.to_json(),
        lambda s: s.transform_to_base(np.zeros((2, 3, 2))),
        lambda s: s.nll(np.zeros((2, 3, 2))),
    ], ids=["log_prob", "log_prob_point", "sample", "to_json",
            "transform_to_base", "nll"])
    def test_plain_queries_refused(self, call, tmp_path):
        stack = FlowModel.stack(build_maf(2, n_blocks=1, hidden=4, seed=s)
                                for s in range(2))
        with pytest.raises(ConfigurationError, match="member"):
            call(stack)
        with pytest.raises(ConfigurationError):
            stack.save(tmp_path / "stack.json")
        assert not (tmp_path / "stack.json").exists()

    @pytest.mark.parametrize("case", ["actnorm", "gmm_base", "hidden",
                                      "s_max", "dim", "empty", "stacked"])
    def test_stack_rejected(self, case):
        models = [build_maf(2, n_blocks=1, hidden=4, seed=s) for s in (0, 1)]
        if case == "actnorm":
            models[1] = build_maf(2, n_blocks=1, hidden=4, actnorm=True)
        elif case == "gmm_base":
            models[0].base = GmmBase(GmmParams([1.0], [[0.0, 0.0]],
                                               [[1.0, 1.0]]))
        elif case == "hidden":
            models[1] = build_maf(2, n_blocks=1, hidden=5)
        elif case == "s_max":
            models[1] = FlowModel([MadeLayer(2, 4, s_max=3.0, rng=1),
                                   ReversalLayer(2)], SphericalGaussian(2))
        elif case == "dim":
            models = [FlowModel([ReversalLayer(d)], SphericalGaussian(d))
                      for d in (2, 3)]
        elif case == "empty":
            models = []
        else:
            models = [FlowModel.stack(models)]
        with pytest.raises(ConfigurationError):
            FlowModel.stack(models)

    def test_input_shapes_checked(self):
        plain = build_maf(2, n_blocks=1, hidden=4, seed=0)
        stack = FlowModel.stack([plain, plain])
        for bad in (np.zeros((3, 2)), np.zeros((3, 4, 2)),
                    np.zeros((2, 4, 3)), np.zeros((1, 2, 4, 2))):
            with pytest.raises(ConfigurationError):
                stack.clipped_grad_sum(bad, 1.0)
        with pytest.raises(ConfigurationError):
            plain.clipped_grad_sum(np.zeros((2, 4, 2)), 1.0)
        with pytest.raises(ConfigurationError):
            plain.member(0)
