import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpflow import training
from dpflow.accounting import Accountant, steps_for_budget
from dpflow.data import gen_half_moons, gen_pinwheel, standardize
from dpflow.errors import ConfigurationError, TrainingInstabilityError
from dpflow.flows import FlowModel, GmmBase, build_maf
from dpflow.gmm import gmm_fit_em
from dpflow.initialization import InitConfig, dp_nf_init
from dpflow.training import (MAX_BAD_BATCHES, NOISE_SLOTS, OptimizerState,
                             TrainConfig, _draw_batch, _NoiseStream,
                             apply_update, train_dp_nf, train_flow)

from test_anomaly import forks, no_child_left, process_state  # noqa: F401
from test_flows import example_grad


def clip_rows(grads, clip_norm):
    """Numpy oracle: scale each row to l2 norm at most clip_norm."""
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    return grads / np.maximum(1.0, norms / clip_norm)


class TestClipGrad:
    """Per-row clipping as the fused path applies it: a one-row batch gives
    that row's clipped gradient."""

    @staticmethod
    def setup_row(seed=0, dim=2):
        rng = np.random.default_rng(seed)
        model = build_maf(dim, n_blocks=2, hidden=8, actnorm=True, seed=seed)
        model.set_flat(rng.normal(0, 0.4, model.n_params))
        model.project_params()
        x = rng.normal(size=(1, dim))
        g = example_grad(model, x[0])
        return model, x, g

    def test_above_bound_rescaled(self):
        model, x, g = self.setup_row()
        clip = np.linalg.norm(g) / 2
        _, out, norms = model.clipped_grad_sum(x, clip)
        np.testing.assert_allclose(out, g / 2, rtol=1e-12, atol=1e-15)
        assert np.linalg.norm(out) == pytest.approx(clip)
        assert norms[0] == pytest.approx(np.linalg.norm(g), rel=1e-12)

    def test_below_bound_unchanged(self):
        model, x, g = self.setup_row()
        _, out, _ = model.clipped_grad_sum(x, 2 * np.linalg.norm(g))
        np.testing.assert_array_equal(out, g)

    def test_zero_gradient(self):
        # A saturated log-scale head (tanh' == 0 exactly) at a point mapped
        # to the base mode has an exactly zero gradient; clipping it must
        # not divide by zero.
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        model.set_flat(np.zeros(model.n_params))
        model.layers[0].ba[:] = 1e3
        _, out, norms = model.clipped_grad_sum(np.zeros((1, 2)), 1.0)
        assert norms[0] == 0.0
        np.testing.assert_array_equal(out, np.zeros(model.n_params))

    @given(st.integers(0, 2 ** 31 - 1), st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_idempotent_and_bounded(self, seed, clip_norm):
        model, x, _ = self.setup_row(seed, dim=int(seed % 3) + 1)
        _, once, _ = model.clipped_grad_sum(x, clip_norm)
        assert np.linalg.norm(once) <= clip_norm * (1 + 1e-12)
        np.testing.assert_allclose(clip_rows(once[None], clip_norm)[0], once,
                                   rtol=1e-12, atol=1e-300)

    def test_direction_preserved(self):
        model, x, g = self.setup_row(1)
        _, out, _ = model.clipped_grad_sum(x, 0.5)
        cos = out @ g / (np.linalg.norm(out) * np.linalg.norm(g))
        assert cos == pytest.approx(1.0)

    def test_rowwise_matches_single(self):
        rng = np.random.default_rng(1)
        model = build_maf(2, n_blocks=2, hidden=8, seed=1)
        model.set_flat(rng.normal(0, 0.4, model.n_params))
        X = rng.normal(size=(6, 2)) * 3
        _, total, norms = model.clipped_grad_sum(X, 3.0)
        rows = [model.clipped_grad_sum(x[None], 3.0) for x in X]
        np.testing.assert_allclose(total, sum(r[1] for r in rows),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(norms, [r[2][0] for r in rows],
                                   rtol=1e-12)


def noisy_mean(total: np.ndarray, clip_norm: float, noise_multiplier: float,
               rng, denominator: int) -> np.ndarray:
    """(sum of clipped gradients + N(0, (sigma C)^2 I)) / denominator, the
    noise drawn from ``rng`` at the call: the oracle ``_NoiseStream``'s
    noisy mean must reproduce bit for bit.

    ``denominator`` is the nominal batch size b, also under Poisson
    sampling, where the drawn size varies.
    """
    if denominator < 1:
        raise ConfigurationError("empty gradient batch")
    if noise_multiplier <= 0:
        return total / denominator
    # Same stream and floats as total + rng.normal(0, sigma C), one buffer.
    out = rng.standard_normal(total.shape)
    out *= noise_multiplier * clip_norm
    out += total
    out /= denominator
    return out


def noisy_mean_oracle(total, clip_norm, noise_multiplier, rng, denominator):
    """The allocating form ``noisy_mean`` must reproduce bit for bit."""
    if noise_multiplier > 0:
        total = total + rng.normal(
            0.0, noise_multiplier * clip_norm, size=total.shape)
    return total / denominator


def adam_oracle(params, grad, m, v, t, config):
    """The allocating Adam step ``apply_update`` must reproduce bit for
    bit; updates ``params``, ``m`` and ``v``. The Adam constants are
    written out, so a changed module constant fails the comparison."""
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    m *= beta1
    m += (1 - beta1) * grad
    v *= beta2
    v += (1 - beta2) * grad * grad
    m_hat = m / (1 - beta1 ** t)
    v_hat = v / (1 - beta2 ** t)
    params -= config.learning_rate * m_hat / (np.sqrt(v_hat) + adam_eps)


class TestNoisyMean:
    def test_bitwise_equal_to_allocating_form(self):
        rng = np.random.default_rng(4)
        a, b = np.random.default_rng(99), np.random.default_rng(99)
        for _ in range(5):
            total = rng.normal(size=257) * 10.0 ** rng.integers(-3, 4, 257)
            # Denominators other than powers of two, where scaling is exact.
            args = (float(rng.uniform(0.1, 300)), float(rng.uniform(0.1, 3)))
            denominator = int(rng.integers(3, 200)) | 1
            out = noisy_mean(total.copy(), *args, a, denominator)
            assert out.tobytes() == noisy_mean_oracle(
                total, *args, b, denominator).tobytes()
        assert a.random() == b.random()  # same number of draws consumed

    def test_zero_noise_is_exact_mean(self):
        rng = np.random.default_rng(2)
        grads = rng.normal(size=(5, 7))
        out = noisy_mean(grads.sum(axis=0), 1.0, 0.0,
                         np.random.default_rng(0), 5)
        np.testing.assert_allclose(out, grads.mean(axis=0), rtol=1e-15)

    def test_single_gradient_passthrough(self):
        g = np.array([1.0, -2.0, 3.0])
        out = noisy_mean(g, 5.0, 0.0, np.random.default_rng(0), 1)
        np.testing.assert_array_equal(out, g)

    def test_noise_variance(self):
        # Per-coordinate variance of the noise term is (sigma C / b)^2.
        sigma, clip, b, reps = 0.9, 2.0, 4, 100_000
        rng = np.random.default_rng(3)
        draws = np.array([noisy_mean(np.zeros(2), clip, sigma, rng, b)
                          for _ in range(reps)])
        target = (sigma * clip / b) ** 2
        assert np.var(draws[:, 0]) == pytest.approx(target, rel=0.02)

    def test_deterministic_given_seed(self):
        total = np.full(4, 3.0)
        a = noisy_mean(total, 1.0, 1.0, np.random.default_rng(42), 3)
        b = noisy_mean(total, 1.0, 1.0, np.random.default_rng(42), 3)
        np.testing.assert_array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            noisy_mean(np.zeros(3), 1.0, 1.0, np.random.default_rng(0), 0)


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


@pytest.fixture(params=["here", "forked"])
def where(request, monkeypatch):
    """Where a ``_NoiseStream`` opened in the test draws its blocks: in
    this process (one usable CPU) or in a forked producer (two)."""
    use_cpus(monkeypatch, 1 if request.param == "here" else 2)
    return request.param


@pytest.mark.usefixtures("no_child_left")
class TestNoiseStream:
    """``_NoiseStream.noisy_mean``, the trainer's one noise path, keeps the
    contract of ``noisy_mean`` whether this process or a forked producer
    draws the blocks."""

    def test_bitwise_equal_to_noisy_mean(self, where, forks):
        rng = np.random.default_rng(4)
        counts = (1, NOISE_SLOTS, 3 * NOISE_SLOTS + 1)
        for count in counts:
            clip, sigma = (float(rng.uniform(0.1, 300)),
                           float(rng.uniform(0.1, 3)))
            denominator = int(rng.integers(3, 200)) | 1
            oracle_rng = np.random.default_rng(99 + count)
            with _NoiseStream(np.random.default_rng(99 + count),
                              sigma * clip, 257, count) as noise:
                for _ in range(count):
                    total = rng.normal(size=257) \
                        * 10.0 ** rng.integers(-3, 4, 257)
                    kept = total.copy()
                    got = noise.noisy_mean(total, denominator)
                    assert total.tobytes() == kept.tobytes()
                    assert got.tobytes() == noisy_mean(
                        total, clip, sigma, oracle_rng,
                        denominator).tobytes()
        assert len(forks) == (len(counts) if where == "forked" else 0)

    def test_deterministic_given_seed(self, monkeypatch, forks):
        runs = []
        for cpus in (2, 2, 1):
            use_cpus(monkeypatch, cpus)
            with _NoiseStream(np.random.default_rng(42), 1.0, 4, 9) as noise:
                runs.append([noise.noisy_mean(np.full(4, 3.0), 3).tobytes()
                             for _ in range(9)])
        assert runs[0] == runs[1] == runs[2]
        assert len(forks) == 2

    def test_noise_variance(self, where):
        # Per-coordinate variance of the noise term is (sigma C / b)^2; the
        # P coordinates of a block are independent draws.
        sigma, clip, b, reps, size = 0.9, 2.0, 4, 50, 4000
        with _NoiseStream(np.random.default_rng(3), sigma * clip, size,
                          reps) as noise:
            draws = np.array([noise.noisy_mean(np.zeros(size), b)
                              for _ in range(reps)])
        target = (sigma * clip / b) ** 2
        assert np.var(draws) == pytest.approx(target, rel=0.02)

    def test_zero_noise_is_exact_mean_and_forks_nothing(self, where, forks):
        grads = np.random.default_rng(2).normal(size=(5, 7))
        with _NoiseStream(np.random.default_rng(0), 0.0, 7, 3) as noise:
            out = noise.noisy_mean(grads.sum(axis=0), 5)
            one = noise.noisy_mean(grads[0], 1)
        assert out.tobytes() == (grads.sum(axis=0) / 5).tobytes()
        np.testing.assert_allclose(out, grads.mean(axis=0), rtol=1e-15)
        np.testing.assert_array_equal(one, grads[0])
        assert forks == []

    def test_fewer_blocks_taken_than_drawn(self, where):
        """Skipped batches leave blocks untaken: the producer, waiting for
        a free slot, sees the pipe close and exits."""
        start = time.monotonic()
        with _NoiseStream(np.random.default_rng(1), 1.0, 16, 50) as noise:
            for _ in range(NOISE_SLOTS + 2):
                noise.noisy_mean(np.zeros(16), 1)
        assert time.monotonic() - start < 10


class TestApplyUpdate:
    def test_sgd_step(self):
        cfg = TrainConfig(learning_rate=0.1, optimizer="sgd")
        params = np.array([1.0, 1.0])
        apply_update(params, np.array([0.5, -0.5]), OptimizerState(), cfg)
        np.testing.assert_allclose(params, [0.95, 1.05])

    def test_adam_first_step_sign(self):
        cfg = TrainConfig(learning_rate=0.01, optimizer="adam")
        grad = np.array([3.0, -0.2, 7.5])
        params, state = np.zeros(3), OptimizerState()
        apply_update(params, grad, state, cfg)
        # First bias-corrected step is -lr * g/|g| up to the stability eps.
        np.testing.assert_allclose(params, -0.01 * np.sign(grad), rtol=1e-6)
        assert state.step == 1

    def test_adam_zero_grad_with_zero_state(self):
        cfg = TrainConfig(optimizer="adam")
        params = np.array([2.0, -1.0])
        apply_update(params, np.zeros(2), OptimizerState(), cfg)
        np.testing.assert_array_equal(params, [2.0, -1.0])

    def test_adam_bitwise_equal_to_allocating_form(self):
        rng = np.random.default_rng(5)
        cfg = TrainConfig(learning_rate=3e-4, optimizer="adam")
        params = rng.normal(size=300)
        expected, m, v = params.copy(), np.zeros(300), np.zeros(300)
        state = OptimizerState()
        for t in range(1, 9):
            grad = rng.normal(size=300) * 10.0 ** rng.integers(-6, 6, 300)
            apply_update(params, grad, state, cfg)
            adam_oracle(expected, grad, m, v, t, cfg)
            assert params.tobytes() == expected.tobytes()
            assert state.m.tobytes() == m.tobytes()
            assert state.v.tobytes() == v.tobytes()

    def test_dimension_mismatch(self):
        cfg = TrainConfig(optimizer="sgd")
        with pytest.raises(ConfigurationError):
            apply_update(np.zeros(3), np.zeros(2), OptimizerState(), cfg)


class TestDrawBatch:
    @given(st.integers(1, 5000), st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_uniform_is_b_distinct_rows(self, n, data):
        b = data.draw(st.integers(1, n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        idx = _draw_batch(rng, n, TrainConfig(batch_size=b))
        assert idx.shape == (b,)
        assert np.unique(idx).size == b
        assert 0 <= idx.min() and idx.max() < n

    def test_poisson_includes_each_row_with_probability_q(self):
        n, b, reps = 500, 40, 20_000
        q = b / n
        cfg = TrainConfig(batch_size=b, sampling="poisson")
        rng = np.random.default_rng(123)
        sizes = np.empty(reps)
        counts = np.zeros(n)
        for r in range(reps):
            idx = _draw_batch(rng, n, cfg)
            assert np.unique(idx).size == idx.size
            assert idx.size == 0 or (0 <= idx.min() and idx.max() < n)
            sizes[r] = idx.size
            counts[idx] += 1
        # Binomial(n, q) size: mean n q, variance n q (1 - q); bounds are
        # five standard errors at this sample count.
        var = n * q * (1 - q)
        assert sizes.mean() == pytest.approx(n * q, abs=5 * np.sqrt(var / reps))
        assert sizes.var() == pytest.approx(var, abs=5 * var * np.sqrt(2 / reps))
        rate_se = np.sqrt(q * (1 - q) / reps)
        assert np.abs(counts / reps - q).max() < 5 * rate_se


class StubAccountant:
    """Accountant returning a fixed schedule of epsilon values."""

    def __init__(self, eps_fn):
        self.eps_fn = eps_fn

    def eps(self, t):
        return self.eps_fn(t)


def tiny_dataset(n=400, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 2))


@pytest.mark.parametrize("name, value", [
    ("epsilon", np.nan), ("epsilon", 0.0),
    ("clip_norm", np.nan), ("clip_norm", np.inf), ("clip_norm", 0.0),
    ("learning_rate", np.nan), ("learning_rate", np.inf),
    ("learning_rate", -1e-3),
    ("noise_multiplier", np.nan), ("noise_multiplier", np.inf),
    ("noise_multiplier", -0.5),
    ("delta", np.nan), ("delta", 1.0),
    ("batch_size", 0), ("eval_every", 0),
    ("batch_size", np.nan), ("eval_every", np.nan),
])
def test_config_rejects_bad_number(name, value):
    """A NaN, infinite or out-of-range setting is refused by name before
    any step runs, instead of a 0-step or all-skipped run or a runtime
    error that names nothing."""
    config = TrainConfig(max_steps=5, **{name: value})
    with pytest.raises(ConfigurationError, match=name):
        config.validate()
    model = build_maf(2, n_blocks=1, hidden=4, seed=0)
    before = model.params.copy()
    with pytest.raises(ConfigurationError, match=name):
        train_dp_nf(tiny_dataset(), model, config)
    assert model.params.tobytes() == before.tobytes()


@pytest.mark.parametrize("value", [-7, -1, np.nan])
def test_config_rejects_bad_max_steps(value):
    """A negative step cap once ran zero steps, reported epsilon 0 and
    returned the untrained model; it is refused by name. 0 stays allowed."""
    config = TrainConfig(max_steps=value)
    with pytest.raises(ConfigurationError, match="max_steps"):
        config.validate()
    model = build_maf(2, n_blocks=1, hidden=4, seed=0)
    with pytest.raises(ConfigurationError, match="max_steps"):
        train_dp_nf(tiny_dataset(), model, config)
    TrainConfig(max_steps=0).validate()


def spherical_model(X):
    return build_maf(2, n_blocks=2, hidden=8, seed=4)


def actnorm_mixture_model(X):
    """Actnorm blocks set by the private init and an EM-fit mixture base,
    as in the benchmark's Poisson configuration."""
    model = build_maf(2, n_blocks=2, hidden=8, actnorm=True, seed=4)
    dp_nf_init(X, model, InitConfig(clip_range=8.0, epsilon=5.0,
                                    delta=1e-5, seed=4))
    params, _ = gmm_fit_em(model.transform_to_base(X), 3, n_iters=30, seed=4)
    model.base = GmmBase(params)
    return model


class TestEmptyPoissonBatch:
    """An empty Poisson batch goes through ``clipped_grad_sum`` like any
    other and takes a noise-only step."""

    @pytest.mark.parametrize("make_model",
                             [spherical_model, actnorm_mixture_model])
    def test_same_bytes_as_zero_gradient_oracle(self, make_model,
                                                monkeypatch):
        X = tiny_dataset(300, seed=6)
        cfg = TrainConfig(batch_size=1, sampling="poisson", max_steps=400,
                          epsilon=10.0, clip_norm=1.0, learning_rate=1e-3,
                          seed=9, eval_every=150)

        def run():
            model, report = train_dp_nf(
                X, make_model(X), cfg,
                accountant=StubAccountant(lambda t: 1e-3 * t))
            assert report.steps == 400 and report.skipped_batches == 0
            return model.params.tobytes(), report.to_jsonl()

        sizes = []
        draw = training._draw_batch

        def counted(rng, n, config):
            idx = draw(rng, n, config)
            sizes.append(idx.size)
            return idx
        monkeypatch.setattr(training, "_draw_batch", counted)
        got = run()
        assert sizes.count(0) >= 1 and len(sizes) == 400

        # The oracle: an empty batch skips the gradient pass and sums to
        # np.zeros(P), the noise-only step the trainer once took apart.
        real = FlowModel.clipped_grad_sum

        def zero_for_empty(model, x, clip_norm):
            if len(x) == 0:
                return np.empty(0), np.zeros(model.n_params), np.empty(0)
            return real(model, x, clip_norm)
        monkeypatch.setattr(FlowModel, "clipped_grad_sum", zero_for_empty)
        assert run() == got

    @pytest.mark.parametrize("make_model",
                             [spherical_model, actnorm_mixture_model])
    def test_empty_batch_sums_to_new_zeros(self, make_model):
        X = tiny_dataset(300, seed=6)
        model = make_model(X)
        first = model.clipped_grad_sum(np.empty((0, 2)), 1.0)
        losses, grad, norms = model.clipped_grad_sum(np.empty((0, 2)), 1.0)
        assert losses.shape == (0,) and norms.shape == (0,)
        assert grad.tobytes() == np.zeros(model.n_params).tobytes()
        assert not np.shares_memory(grad, first[1])
        assert not np.shares_memory(grad, model.params)


class TestTrainDpNf:
    def test_immediate_halt_on_exhausted_budget(self):
        X = tiny_dataset()
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        before = model.get_flat()
        cfg = TrainConfig(epsilon=1.0, batch_size=32, max_steps=100, seed=0)
        model, report = train_dp_nf(X, model, cfg,
                                    accountant=StubAccountant(lambda t: 1.0))
        assert report.steps == 0
        assert report.final_epsilon == 0.0
        np.testing.assert_array_equal(model.get_flat(), before)

    def test_halts_before_budget(self):
        X = tiny_dataset()
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        cfg = TrainConfig(epsilon=1.0, batch_size=32, max_steps=50, seed=0)
        acct = StubAccountant(lambda t: 0.11 * t)
        model, report = train_dp_nf(X, model, cfg, accountant=acct)
        # steps 1..9 cost < 1.0; step 10 would reach 1.1.
        assert report.steps == 9
        assert report.final_epsilon == pytest.approx(0.99)
        assert report.final_epsilon < cfg.epsilon

    def test_deterministic_given_seed(self):
        X = tiny_dataset()
        finals = []
        for _ in range(2):
            model = build_maf(2, n_blocks=1, hidden=8, seed=3)
            cfg = TrainConfig(epsilon=10.0, batch_size=32, max_steps=25,
                              seed=11, eval_every=100)
            model, _ = train_dp_nf(
                X, model, cfg, accountant=StubAccountant(lambda t: 0.0))
            finals.append(model.get_flat())
        np.testing.assert_array_equal(finals[0], finals[1])

    def test_degenerate_noise_report_well_formed(self):
        X = tiny_dataset()
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        cfg = TrainConfig(noise_multiplier=1e6, epsilon=5.0, batch_size=32,
                          max_steps=10, seed=0, accountant="gdp",
                          delta=1e-5)
        model, report = train_dp_nf(X, model, cfg)
        assert report.steps <= 10
        from dpflow.accounting import Accountant
        acct = Accountant("gdp", 32 / 400, 1e6, 1e-5)
        assert report.final_epsilon == pytest.approx(acct.eps(report.steps))

    @pytest.mark.parametrize("method,budget", [("gdp", 2.0), ("rdp", 5.0)])
    @pytest.mark.parametrize("max_steps", [5, 1000])
    def test_steps_match_budget_horizon(self, method, budget, max_steps):
        """The horizon computed once equals what checking the accountant
        before every step gives."""
        X = tiny_dataset()
        acct = Accountant(method, 32 / 400, 1.0, 1e-5)
        cfg = TrainConfig(epsilon=budget, batch_size=32, noise_multiplier=1.0,
                          delta=1e-5, accountant=method, max_steps=max_steps,
                          seed=0, eval_every=4)
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        _, report = train_dp_nf(X, model, cfg)
        scanned = 0
        while scanned < max_steps and acct.eps(scanned + 1) < budget:
            scanned += 1
        assert 5 < scanned < 1000 if max_steps == 1000 else scanned == 5
        assert report.skipped_batches == 0
        assert report.steps == scanned == min(
            max_steps, steps_for_budget(acct.eps, budget))
        assert report.final_epsilon == acct.eps(scanned) < budget
        assert [c.epsilon for c in report.checkpoints] == \
            [acct.eps(c.step) for c in report.checkpoints]

    def test_non_finite_epsilon_rejected(self):
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        with pytest.raises(ConfigurationError):
            train_dp_nf(tiny_dataset(), model,
                        TrainConfig(batch_size=32, max_steps=10),
                        accountant=StubAccountant(lambda t: float("nan")))

    def test_vanishing_noise_rdp_rejected(self):
        """At sigma = 1e-160 the RDP epsilon is +inf, not NaN, and the run
        is refused before any step, with no RuntimeWarning on the way."""
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        before = model.params.copy()
        cfg = TrainConfig(batch_size=32, max_steps=10, accountant="rdp",
                          noise_multiplier=1e-160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="non-finite"):
                train_dp_nf(tiny_dataset(), model, cfg)
        assert model.params.tobytes() == before.tobytes()

    @pytest.mark.parametrize("field, value", [
        ("method", "rdp"), ("q", 33 / 400), ("sigma", 1.2), ("delta", 2e-5)])
    def test_mismatched_accountant_rejected(self, field, value):
        """An accountant built for other settings would report another
        run's epsilon: it is refused, naming the field, before any step."""
        run = dict(method="gdp", q=32 / 400, sigma=1.0, delta=1e-5)
        cfg = TrainConfig(epsilon=5.0, batch_size=32, noise_multiplier=1.0,
                          delta=1e-5, accountant="gdp", max_steps=5)
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        before = model.params.copy()
        with pytest.raises(ConfigurationError, match=f"accountant {field} "):
            train_dp_nf(tiny_dataset(), model, cfg,
                        accountant=Accountant(**{**run, field: value}))
        assert model.params.tobytes() == before.tobytes()

    def test_matching_accountant_gives_the_default_run(self):
        cfg = TrainConfig(epsilon=5.0, batch_size=32, noise_multiplier=1.0,
                          delta=1e-5, accountant="rdp", max_steps=5,
                          eval_every=2)
        runs = []
        for acct in (None, Accountant("rdp", 32 / 400, 1.0, 1e-5)):
            model = build_maf(2, n_blocks=1, hidden=4, seed=0)
            _, report = train_dp_nf(tiny_dataset(), model, cfg,
                                    accountant=acct)
            runs.append((model.params.tobytes(), report.to_jsonl()))
        assert runs[0] == runs[1]

    def test_improvement_on_half_moons(self):
        ds = standardize(gen_half_moons(30_000, seed=1))
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n)
        X, hold = ds.X[perm[3000:]], ds.X[perm[:3000]]
        model = build_maf(2, n_blocks=5, hidden=64, seed=0)
        nll_init = model.nll(hold)
        cfg = TrainConfig(learning_rate=1e-4, batch_size=256,
                          noise_multiplier=1.1, clip_norm=10.0, epsilon=3.0,
                          delta=3.7e-5, accountant="gdp", max_steps=400,
                          seed=0, eval_every=1000)
        model, report = train_dp_nf(X, model, cfg, holdout=hold)
        assert model.nll(hold) < nll_init
        assert report.final_epsilon < 3.0

    def test_poisson_mode_runs(self):
        X = tiny_dataset()
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        cfg = TrainConfig(epsilon=10.0, batch_size=32, max_steps=20, seed=0,
                          sampling="poisson")
        model, report = train_dp_nf(
            X, model, cfg, accountant=StubAccountant(lambda t: 0.0))
        assert report.steps == 20

    def test_batch_larger_than_dataset(self):
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        with pytest.raises(ConfigurationError):
            train_dp_nf(tiny_dataset(10), model,
                        TrainConfig(batch_size=32))

    def test_nonfinite_batches_skipped_and_charged(self):
        X = tiny_dataset()
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        model.layers[0].b2[:] = 1.0
        model.layers[0].Wm[:] = 1e308  # every batch overflows
        cfg = TrainConfig(epsilon=5.0, batch_size=16, max_steps=100, seed=0)
        drawn = []
        grad_sum = model.clipped_grad_sum

        def counted(batch, clip_norm):
            drawn.append(len(batch))
            return grad_sum(batch, clip_norm)

        model.clipped_grad_sum = counted
        with pytest.raises(TrainingInstabilityError):
            train_dp_nf(X, model, cfg,
                        accountant=StubAccountant(lambda t: 0.01 * t))
        assert drawn == [16] * (MAX_BAD_BATCHES + 1)

    def test_checkpoint_epsilons_nondecreasing(self):
        X = tiny_dataset()
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        cfg = TrainConfig(epsilon=2.0, batch_size=32, max_steps=30, seed=0,
                          eval_every=10)
        acct = StubAccountant(lambda t: 0.05 * t)
        _, report = train_dp_nf(X, model, cfg, accountant=acct)
        eps = [c.epsilon for c in report.checkpoints]
        assert eps == sorted(eps)
        assert report.to_jsonl().count("\n") == len(report.checkpoints) + 1


class TestClippedGradSum:
    def test_matches_explicit_per_example_path(self):
        """The fused norm/weighted-sum path must agree with taking each
        row's exact gradient, clipping it in numpy, and summing."""
        rng = np.random.default_rng(6)
        for _ in range(5):
            dim = int(rng.integers(1, 5))
            model = build_maf(dim, n_blocks=2, hidden=10,
                              actnorm=bool(rng.integers(2)),
                              seed=int(rng.integers(1 << 31)))
            model.set_flat(rng.normal(0, 0.4, model.n_params))
            model.project_params()
            X = rng.normal(size=(24, dim))
            clip = float(rng.uniform(0.2, 3.0))
            losses, fused, norms = model.clipped_grad_sum(X, clip)
            grads = np.array([example_grad(model, x) for x in X])
            np.testing.assert_allclose(losses, -model.log_prob(X), rtol=1e-12)
            np.testing.assert_allclose(norms, np.linalg.norm(grads, axis=1),
                                       rtol=1e-10)
            explicit = clip_rows(grads, clip).sum(axis=0)
            scale = max(1.0, np.abs(explicit).max())
            assert np.abs(fused - explicit).max() / scale < 1e-12

    @pytest.mark.parametrize("clip", [1.0, np.inf])
    @pytest.mark.parametrize("base", ["spherical", "gmm"])
    def test_base_density_overflow_raises(self, base, clip):
        """A finite row whose loss overflows in the base density raises
        TrainingInstabilityError, with no RuntimeWarning on the way."""
        X = tiny_dataset(64)
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        if base == "gmm":
            model.base = GmmBase(gmm_fit_em(X, 2, n_iters=5, seed=0)[0])
        X[3] = [1e160, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingInstabilityError):
                model.clipped_grad_sum(X, clip)


class TestSensitivityBound:
    def test_replace_one_changes_sum_by_at_most_2c(self):
        """Swapping one example moves the pre-noise clipped sum by <= 2C."""
        rng = np.random.default_rng(7)
        model = build_maf(2, n_blocks=2, hidden=8, seed=1)
        model.set_flat(rng.normal(0, 0.3, model.n_params))
        clip = 0.5
        batch = rng.normal(size=(16, 2))
        _, base_sum, _ = model.clipped_grad_sum(batch, clip)
        for _ in range(5):
            swapped = batch.copy()
            swapped[rng.integers(16)] = rng.normal(size=2) * 3
            _, new_sum, _ = model.clipped_grad_sum(swapped, clip)
            assert np.linalg.norm(new_sum - base_sum) <= 2 * clip + 1e-9

    def test_remove_one_changes_sum_by_at_most_c(self):
        rng = np.random.default_rng(8)
        model = build_maf(2, n_blocks=1, hidden=8, seed=2)
        model.set_flat(rng.normal(0, 0.3, model.n_params))
        clip = 0.5
        batch = rng.normal(size=(16, 2))
        _, base_sum, _ = model.clipped_grad_sum(batch, clip)
        _, smaller, _ = model.clipped_grad_sum(batch[:-1], clip)
        assert np.linalg.norm(base_sum - smaller) <= clip + 1e-9


class TestTrainFlow:
    def test_nonprivate_training_reduces_nll(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(2000, 2)) * np.array([0.5, 2.0])
        model = build_maf(2, n_blocks=2, hidden=16, seed=0)
        before = model.nll(X)
        train_flow(X, model, n_steps=300, batch_size=128, seed=0)
        assert model.nll(X) < before

    def test_plain_run_bitwise_equal_to_loop_oracle(self):
        X = np.random.default_rng(10).normal(size=(300, 2))
        model = build_maf(2, n_blocks=2, hidden=8, seed=1)
        want = build_maf(2, n_blocks=2, hidden=8, seed=1)
        train_flow(X, model, n_steps=25, batch_size=64,
                   learning_rate=2e-3, seed=5)
        # The loop itself: one uniform batch, the unclipped gradient mean
        # and one Adam step per iteration.
        rng = np.random.default_rng(5)
        config = TrainConfig(learning_rate=2e-3, optimizer="adam")
        state = OptimizerState()
        for _ in range(25):
            idx = rng.choice(300, 64, replace=False)
            _, grad_sum, _ = want.clipped_grad_sum(X[idx], np.inf)
            apply_update(want.params, grad_sum / 64, state, config)
        assert model.params.tobytes() == want.params.tobytes()

    def test_stack_trains_each_member_as_alone(self):
        rng = np.random.default_rng(11)
        parts = [rng.normal(size=(n, 3)) for n in (50, 61, 72)]
        seeds = [7, 8, 9]
        models = [build_maf(3, n_blocks=2, hidden=5, seed=s) for s in seeds]
        stack = FlowModel.stack(models)
        train_flow(parts, stack, n_steps=20, batch_size=24,
                   learning_rate=3e-3, seed=seeds)
        for j, (part, model, seed) in enumerate(zip(parts, models, seeds)):
            train_flow(part, model, n_steps=20, batch_size=24,
                       learning_rate=3e-3, seed=seed)
            assert stack.member(j).params.tobytes() == model.params.tobytes()

    @pytest.mark.parametrize("bad", [
        dict(n_steps=-3), dict(batch_size=0), dict(learning_rate=0.0),
        dict(learning_rate=-1.0), dict(batch_size=-5),
        dict(learning_rate=-1e-3)])
    def test_bad_sizes_rejected(self, bad):
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        before = model.get_flat()
        kwargs = dict(n_steps=2, batch_size=8, learning_rate=1e-3)
        kwargs.update(bad)
        with pytest.raises(ConfigurationError):
            train_flow(np.zeros((20, 2)), model, **kwargs)
        assert model.params.tobytes() == before.tobytes()

    @pytest.mark.parametrize("case", ["too_few_parts", "too_few_seeds",
                                      "empty_part"])
    def test_stack_inputs_checked(self, case):
        stack = FlowModel.stack(build_maf(2, n_blocks=1, hidden=4, seed=s)
                                for s in range(2))
        parts, seeds = [np.zeros((10, 2)), np.zeros((12, 2))], [0, 1]
        if case == "too_few_parts":
            parts = parts[:1]
        elif case == "too_few_seeds":
            seeds = seeds[:1]
        else:
            parts[1] = np.zeros((0, 2))
        with pytest.raises(ConfigurationError):
            train_flow(parts, stack, 3, batch_size=4, seed=seeds)


class OracleNoise:
    """The run's noise as drawn before the producer: ``noisy_mean`` on the
    noise generator, in this process, at each executed step. Stands in for
    ``training._NoiseStream``; ``scale`` is sigma C."""

    def __init__(self, rng, scale, size, count):
        self.rng, self.scale = rng, scale

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def noisy_mean(self, total, denominator):
        return noisy_mean(total, 1.0, self.scale, self.rng, denominator)


def moons_run(**changes):
    """Half-moons, GDP, uniform batches, spherical base: the benchmark's
    reference config at a smaller size."""
    X = standardize(gen_half_moons(1200, seed=3)).X
    model = build_maf(2, n_blocks=2, hidden=16, seed=3)
    cfg = TrainConfig(learning_rate=3e-4, batch_size=64,
                      noise_multiplier=0.8, clip_norm=300.0, epsilon=3.0,
                      delta=3.7e-5, accountant="gdp", max_steps=60, seed=5,
                      eval_every=25)
    for name, value in changes.items():
        setattr(cfg, name, value)
    accountant = StubAccountant(lambda t: 1e-3 * t) \
        if cfg.noise_multiplier == 0 else None
    return X[:1000], model, cfg, accountant, X[1000:]


def pinwheel_run():
    """Pinwheel, RDP, Poisson batches, actnorm set by ``dp_nf_init`` and a
    5-component ``GmmBase``: the benchmark's other branch, smaller."""
    X = standardize(gen_pinwheel(1200, seed=4)).X
    model = build_maf(2, n_blocks=2, hidden=16, actnorm=True, seed=4)
    dp_nf_init(X, model, InitConfig(clip_range=8.0, epsilon=5.0,
                                    delta=1e-5, seed=4))
    params, _ = gmm_fit_em(model.transform_to_base(X), 5, n_iters=30,
                           seed=4)
    model.base = GmmBase(params)
    cfg = TrainConfig(learning_rate=3e-4, batch_size=64,
                      noise_multiplier=0.8, clip_norm=300.0, epsilon=4.5,
                      delta=3.7e-5, accountant="rdp", sampling="poisson",
                      max_steps=60, seed=6, eval_every=25)
    return X[:1000], model, cfg, None, X[1000:]


def skipping_run():
    """A run in which every third batch is non-finite and skipped."""
    model = build_maf(2, n_blocks=1, hidden=4, seed=0)
    grad_sum = model.clipped_grad_sum
    drawn = []

    def every_third_fails(batch, clip_norm):
        drawn.append(len(batch))
        if len(drawn) % 3 == 0:
            raise TrainingInstabilityError("non-finite batch")
        return grad_sum(batch, clip_norm)

    model.clipped_grad_sum = every_third_fails
    cfg = TrainConfig(epsilon=5.0, batch_size=16, max_steps=60, seed=2,
                      eval_every=7)
    return tiny_dataset(), model, cfg, StubAccountant(lambda t: 1e-3 * t), \
        None


def no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


def one_cpu(monkeypatch):
    use_cpus(monkeypatch, 1)


# (id, run, forks expected, set-up that forbids the fork or None)
PRODUCER_CASES = [
    ("moons_gdp_uniform", moons_run, 1, None),
    ("pinwheel_rdp_poisson_actnorm_gmm", pinwheel_run, 1, None),
    ("skipped_batches", skipping_run, 1, None),
    ("sigma_0", lambda: moons_run(noise_multiplier=0.0), 0, None),
    ("max_steps_0", lambda: moons_run(max_steps=0), 0, None),
    ("no_os_fork", moons_run, 0, no_fork),
    ("one_cpu", moons_run, 0, one_cpu),
]


@pytest.mark.usefixtures("no_child_left")
class TestNoiseProducer:
    """``train_dp_nf`` draws its noise in a forked producer where it may,
    with the bytes of the in-process run, and no process outlives it."""

    @pytest.mark.parametrize("make, want_forks, forbid",
                             [case[1:] for case in PRODUCER_CASES],
                             ids=[case[0] for case in PRODUCER_CASES])
    def test_bitwise_equal_to_in_process_oracle(self, monkeypatch, forks,
                                                make, want_forks, forbid):
        def run():
            X, model, cfg, accountant, holdout = make()
            _, report = train_dp_nf(X, model, cfg, accountant=accountant,
                                    holdout=holdout)
            return model.params.tobytes(), report.to_jsonl(), report

        with monkeypatch.context() as patch:
            patch.setattr(training, "_NoiseStream", OracleNoise)
            want = run()
        use_cpus(monkeypatch, 2)
        if forbid is not None:
            forbid(monkeypatch)
        got = run()
        assert got[:2] == want[:2]
        assert len(forks) == want_forks
        report = got[2]
        if make is skipping_run:
            assert (report.steps, report.skipped_batches) == (40, 20)

    def test_no_fork_while_another_thread_runs(self, monkeypatch, forks):
        use_cpus(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            X, model, cfg, accountant, holdout = moons_run(max_steps=10)
            train_dp_nf(X, model, cfg, accountant=accountant)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        X, want, cfg, accountant, holdout = moons_run(max_steps=10)
        train_dp_nf(X, want, cfg, accountant=accountant)
        assert len(forks) == 1
        assert model.params.tobytes() == want.params.tobytes()

    def test_reaped_after_too_many_bad_batches(self, monkeypatch, forks):
        use_cpus(monkeypatch, 2)
        model = build_maf(2, n_blocks=1, hidden=4, seed=0)
        model.layers[0].b2[:] = 1.0
        model.layers[0].Wm[:] = 1e308  # every batch overflows
        cfg = TrainConfig(epsilon=5.0, batch_size=16, max_steps=100, seed=0)
        with pytest.raises(TrainingInstabilityError):
            train_dp_nf(tiny_dataset(), model, cfg,
                        accountant=StubAccountant(lambda t: 0.01 * t))
        assert len(forks) == 1

    def test_killed_and_reaped_after_an_error_in_a_step(self, monkeypatch,
                                                        forks):
        use_cpus(monkeypatch, 2)
        real = training.apply_update
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("injected")
            return real(*args)

        monkeypatch.setattr(training, "apply_update", failing)
        X, model, cfg, accountant, _ = moons_run(max_steps=500)
        with pytest.raises(ValueError, match="injected"):
            train_dp_nf(X, model, cfg, accountant=accountant)
        assert len(forks) == 1

    def test_killed_producer_raises_child_process_error(self, monkeypatch,
                                                        forks):
        use_cpus(monkeypatch, 2)
        real = training.apply_update
        calls = []

        def kill_producer(*args):
            calls.append(1)
            if len(calls) == 2:
                os.kill(forks[0], signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(training, "apply_update", kill_producer)
        X, model, cfg, accountant, _ = moons_run(max_steps=2000)
        start = time.monotonic()
        with pytest.raises(ChildProcessError, match="noise producer"):
            train_dp_nf(X, model, cfg, accountant=accountant)
        assert time.monotonic() - start < 10
        assert len(calls) < 2 + NOISE_SLOTS + 1

    def test_producer_dead_before_its_first_block(self, monkeypatch,
                                                  forks):
        """A run no longer than the ring frees no slot, so only the end of
        the ready pipe can tell it that the producer died."""
        use_cpus(monkeypatch, 2)
        parent = os.getpid()

        def die_in_child(*args):
            if os.getpid() != parent:
                os._exit(3)
            raise AssertionError("noise drawn in the training process")

        monkeypatch.setattr(training, "_draw_noise", die_in_child)
        X, model, cfg, accountant, _ = moons_run(max_steps=NOISE_SLOTS)
        before = model.params.copy()
        with pytest.raises(ChildProcessError, match="noise producer"):
            train_dp_nf(X, model, cfg, accountant=accountant)
        assert model.params.tobytes() == before.tobytes()
        assert len(forks) == 1

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_orphaned_producer_exits_at_its_pipe_write(self, monkeypatch):
        """A producer whose run dies before taking a block fails its ready
        write (EPIPE) and exits within seconds. The middle process starts
        the run, reports the producer's pid and dies as soon as it is
        forked; the producer draws its first block only once orphaned."""
        use_cpus(monkeypatch, 2)
        report_r, report_w = os.pipe()
        middle = os.fork()
        if middle == 0:
            try:
                os.close(report_r)
                parent = os.getpid()
                real_fork, draw = os.fork, training._draw_noise

                def fork():
                    pid = real_fork()
                    if pid:
                        os.write(report_w, str(pid).encode())
                        os._exit(0)
                    return pid

                def draw_when_orphaned(*args):
                    deadline = time.monotonic() + 30
                    while os.getppid() == parent \
                            and time.monotonic() < deadline:
                        time.sleep(0.01)
                    draw(*args)

                os.fork = fork
                training._draw_noise = draw_when_orphaned
                X, model, cfg, accountant, _ = moons_run()
                train_dp_nf(X, model, cfg, accountant=accountant)
            finally:
                os._exit(1)
        os.close(report_w)
        try:
            producer = int(os.read(report_r, 64))
        finally:
            os.close(report_r)
        assert os.waitstatus_to_exitcode(os.waitpid(middle, 0)[1]) == 0
        try:
            deadline = time.monotonic() + 10
            while process_state(producer) not in (None, "Z"):
                assert time.monotonic() < deadline, "orphaned producer runs on"
                time.sleep(0.05)
        finally:
            if process_state(producer) is not None:
                os.kill(producer, signal.SIGKILL)
            try:  # a child only where this process adopts orphans
                os.waitpid(producer, 0)
            except ChildProcessError:
                pass
