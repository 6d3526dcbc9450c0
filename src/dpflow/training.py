"""Noisy gradient training of flow models.

Each iteration draws a uniform without-replacement (or Poisson) batch in
O(b) time, asks the model for the sum of its per-example gradients clipped to
an l2 bound, averages that sum with Gaussian noise, and applies an SGD or Adam
update in place to the model's flat parameter buffer. The number of steps is
fixed once, before the loop, as the last step whose cumulative accountant cost
stays below the epsilon budget (capped at ``max_steps``); the accountant is
consulted again only at checkpoints and at the end.

The noise does not depend on the model, so a forked producer process draws
it ahead of the steps, on another CPU, from the run's own noise generator.
Nothing is forked when sigma is 0 (no noise) or the run has no step, and
the noise stays in this process where the library may not fork
(``os.fork`` missing, another thread alive, one usable CPU). Nothing
selects this: the draws, and so the params and the report, have the same
bytes either way. The producer ends with the run, which raises
ChildProcessError if it dies first.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from dataclasses import dataclass, field

import numpy as np

from ._fork import fork_child, reap, usable_processes
from .accounting import Accountant, steps_for_budget
from .errors import ConfigurationError, TrainingInstabilityError
from .flows import FlowModel

# Adam moment decay rates and denominator offset.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Consecutive non-finite batches tolerated before training gives up.
MAX_BAD_BATCHES = 20
# Noise blocks a forked producer may draw ahead of the step that adds them.
NOISE_SLOTS = 4


@dataclass
class TrainConfig:
    """Settings of one noisy training run; Adam's constants and the
    non-finite batch tolerance are module constants."""

    learning_rate: float = 1e-4
    batch_size: int = 256
    noise_multiplier: float = 1.1
    clip_norm: float = 10.0
    epsilon: float = 1.0
    delta: float = 1e-5
    accountant: str = "gdp"          # "rdp" | "gdp"
    optimizer: str = "adam"          # "sgd" | "adam"
    max_steps: int = 1_000_000
    seed: int = 0
    sampling: str = "uniform"        # "uniform" | "poisson"
    eval_every: int = 500

    def validate(self):
        """Raise ConfigurationError, naming the field, for a setting no run
        can use. Each number check is written so that NaN fails it."""
        for name in ("learning_rate", "clip_norm"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.noise_multiplier < math.inf:
            raise ConfigurationError(
                "noise_multiplier must be nonnegative and finite, "
                f"got {self.noise_multiplier}")
        if not self.epsilon > 0.0:
            raise ConfigurationError(
                f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(
                f"delta must be in (0, 1), got {self.delta}")
        for name in ("batch_size", "eval_every"):
            if not getattr(self, name) >= 1:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}")
        if not self.max_steps >= 0:
            raise ConfigurationError(
                f"max_steps must be nonnegative, got {self.max_steps}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if self.sampling not in ("uniform", "poisson"):
            raise ConfigurationError(f"unknown sampling mode {self.sampling!r}")


@dataclass
class OptimizerState:
    m: np.ndarray | None = None  # first moment (adam)
    v: np.ndarray | None = None  # second moment (adam)
    step: int = 0
    scratch: tuple = ()          # two work buffers for the adam step


@dataclass
class Checkpoint:
    step: int
    epsilon: float
    train_nll: float
    holdout_nll: float | None


@dataclass
class TrainReport:
    steps: int = 0
    final_epsilon: float = 0.0
    skipped_batches: int = 0
    checkpoints: list = field(default_factory=list)

    def to_jsonl(self) -> str:
        lines = [json.dumps({"step": c.step, "epsilon": c.epsilon,
                             "train_nll": c.train_nll,
                             "holdout_nll": c.holdout_nll})
                 for c in self.checkpoints]
        lines.append(json.dumps({"final": True, "steps": self.steps,
                                 "epsilon": self.final_epsilon,
                                 "skipped_batches": self.skipped_batches}))
        return "\n".join(lines) + "\n"


def _draw_noise(rng, scale: float, out: np.ndarray):
    """One noise block N(0, scale^2 I) into ``out``: the draws and floats
    of ``rng.standard_normal(out.shape) * scale``."""
    rng.standard_normal(out=out)
    out *= scale


def _produce_noise(rng, scale: float, ring: np.ndarray, count: int,
                   ready_w: int, free_r: int) -> int:
    """The producer's loop: block j into slot j mod S of ``ring``, once
    the parent has freed that slot, then a ready token. Ends after
    ``count`` blocks or at the end of the free pipe; a ready token written
    after the parent is gone raises BrokenPipeError."""
    for j in range(count):
        if j >= len(ring) and not os.read(free_r, 1):
            break
        _draw_noise(rng, scale, ring[j % len(ring)])
        os.write(ready_w, b"\0")
    return 0


class _NoiseStream:
    """The run's noise blocks N(0, (sigma C)^2 I_P), in the order one
    generator draws them, and the noisy mean that adds each to a clipped
    sum.

    Where ``usable_processes()`` allows a second process, a forked
    producer draws up to ``count`` blocks ahead into the NOISE_SLOTS slots
    of an anonymous shared mmap; a one-byte token on one pipe says a slot
    is ready, one on the other says it is free again. Otherwise, and when
    ``count`` is 0, each block is drawn in this process when it is needed;
    with sigma C = 0 none is drawn. Either way the bytes are the same.
    Leaving the ``with`` block reaps the producer, SIGKILLed first if the
    block raised.
    """

    def __init__(self, rng, scale: float, size: int, count: int):
        self.rng, self.scale, self.count = rng, scale, count
        self.taken = 0
        self.pid = None
        self.fds = ()
        if scale == 0 or count == 0 or usable_processes() < 2:
            self.ring = np.empty((1, size))
            return
        self.ring = np.frombuffer(
            mmap.mmap(-1, NOISE_SLOTS * size * 8)).reshape(NOISE_SLOTS, size)
        ready_r, ready_w = os.pipe()
        free_r, free_w = os.pipe()
        try:
            self.pid = fork_child(
                lambda: _produce_noise(rng, scale, self.ring, count, ready_w,
                                       free_r), [ready_r, free_w])
        except BaseException:
            os.close(ready_r)
            os.close(free_w)
            raise
        finally:
            os.close(ready_w)
            os.close(free_r)
        self.fds = (ready_r, free_w)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.pid is not None:
            reap([self.pid], self.fds, finished=exc_type is None)

    def noisy_mean(self, total: np.ndarray, denominator: int) -> np.ndarray:
        """(total + the next noise block) / denominator, in a new array:
        the floats of ``(rng.normal(0, sigma C, P) + total) / denominator``.
        With sigma C = 0 it is total / denominator and takes no block.

        ``denominator`` is the nominal batch size b, also under Poisson
        sampling, where the drawn size varies.
        """
        if self.scale == 0:
            return total / denominator
        j = self.taken
        slot = self.ring[j % len(self.ring)]
        if self.pid is None:
            _draw_noise(self.rng, self.scale, slot)
        elif not os.read(self.fds[0], 1):
            raise ChildProcessError(
                f"noise producer {self.pid} ended before the run")
        out = np.add(slot, total)
        self.taken += 1
        if self.pid is not None and j + len(self.ring) < self.count:
            try:
                os.write(self.fds[1], b"\0")
            except BrokenPipeError:
                raise ChildProcessError(
                    f"noise producer {self.pid} ended before the run") \
                    from None
        out /= denominator
        return out


def apply_update(params: np.ndarray, grad: np.ndarray, state: OptimizerState,
                 config: TrainConfig):
    """One optimizer step on a flat parameter vector, in place: ``params``
    and the Adam moments in ``state`` are overwritten. Adam is plain
    post-processing of the (already private) gradient, so it leaves the
    privacy guarantee unchanged."""
    if params.shape != grad.shape:
        raise ConfigurationError("parameter / gradient shape mismatch")
    if config.optimizer == "sgd":
        params -= config.learning_rate * grad
        return
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    if not state.scratch:
        state.scratch = (np.empty_like(params), np.empty_like(params))
    state.step += 1
    t = state.step
    a, b = state.scratch
    # Same operations in the same order as the allocating form
    #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
    #   params -= lr m_hat / (sqrt(v_hat) + eps)
    # so the floats are identical.
    state.m *= ADAM_BETA1
    state.m += np.multiply(grad, 1 - ADAM_BETA1, out=a)
    state.v *= ADAM_BETA2
    np.multiply(grad, 1 - ADAM_BETA2, out=a)
    state.v += np.multiply(a, grad, out=a)
    np.divide(state.m, 1 - ADAM_BETA1 ** t, out=a)
    a *= config.learning_rate
    np.divide(state.v, 1 - ADAM_BETA2 ** t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    params -= np.divide(a, b, out=a)


def _draw_batch(rng, n: int, config: TrainConfig):
    """Row indices of one batch, drawn in O(b).

    Uniform: b distinct rows. Poisson: a Binomial(n, q) size, then that many
    distinct rows, which includes every row independently with q = b / n.
    """
    if config.sampling == "poisson":
        size = rng.binomial(n, config.batch_size / n)
        return rng.choice(n, size, replace=False)
    return rng.choice(n, config.batch_size, replace=False)


def train_dp_nf(X, model: FlowModel, config: TrainConfig,
                accountant: Accountant | None = None, holdout=None):
    """Budget-gated noisy training (returns the mutated model and a report).

    The run draws ``steps_for_budget(accountant.eps, epsilon, max_steps)``
    batches: every step it executes (or skips on a non-finite batch, which
    is still charged) keeps the cumulative cost below the configured
    epsilon. ``accountant`` is anything with a nondecreasing ``eps(t)``; one
    whose method, q, sigma or delta differ from the run's (accountant,
    batch_size / n, noise_multiplier, delta) raises ConfigurationError.
    """
    config.validate()
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < config.batch_size:
        raise ConfigurationError("batch size exceeds dataset size")
    run = dict(method=config.accountant, q=config.batch_size / n,
               sigma=config.noise_multiplier, delta=config.delta)
    if accountant is None:
        accountant = Accountant(**run)
    for name, value in run.items():
        if getattr(accountant, name, value) != value:
            raise ConfigurationError(f"accountant {name} differs from the "
                                     f"run's {value!r}")
    horizon = steps_for_budget(accountant.eps, config.epsilon,
                               config.max_steps)

    seq = np.random.SeedSequence(config.seed)
    sample_rng, noise_rng = (np.random.default_rng(s) for s in seq.spawn(2))

    state = OptimizerState()
    report = TrainReport()
    bad_streak = 0

    def spent(t):
        """Budget charged for the first t drawn batches."""
        return accountant.eps(t) if t else 0.0

    def checkpoint(step, epsilon):
        if report.checkpoints and report.checkpoints[-1].step == step:
            return
        probe = X[:min(n, 2048)]
        train_nll = model.nll(probe)
        hold_nll = model.nll(holdout) if holdout is not None else None
        report.checkpoints.append(
            Checkpoint(step, epsilon, train_nll, hold_nll))

    with _NoiseStream(noise_rng, config.noise_multiplier * config.clip_norm,
                      model.n_params, horizon) as noise:
        for t in range(1, horizon + 1):
            idx = _draw_batch(sample_rng, n, config)
            # An empty Poisson batch gives a zero sum: a noise-only step.
            try:
                _, clipped_sum, _ = model.clipped_grad_sum(X[idx],
                                                           config.clip_norm)
            except TrainingInstabilityError:
                # The batch was drawn, so its privacy cost is charged even
                # though the update is dropped.
                report.skipped_batches += 1
                bad_streak += 1
                if bad_streak > MAX_BAD_BATCHES:
                    raise TrainingInstabilityError(
                        f"{bad_streak} consecutive non-finite batches")
                continue
            bad_streak = 0
            noisy = noise.noisy_mean(clipped_sum, config.batch_size)
            apply_update(model.params, noisy, state, config)
            model.project_params()
            report.steps += 1
            if report.steps % config.eval_every == 0:
                checkpoint(report.steps, spent(t))

    report.final_epsilon = spent(horizon)
    checkpoint(report.steps, report.final_epsilon)
    return model, report


def train_flow(X, model: FlowModel, n_steps: int, batch_size: int = 128,
               learning_rate: float = 1e-3, seed=0) -> FlowModel:
    """Plain (non-private) minibatch Adam on the mean negative log-likelihood.

    Used for ensemble members and non-private reference models. For a
    stacked model (``FlowModel.stack`` of k flows), X is a sequence of k row
    arrays and ``seed`` a sequence of k seeds: member j draws its batches
    from X[j] with its own generator, every member takes
    b = min(batch_size, fewest rows of any X[j]) rows per step, and one
    gradient pass serves all k. Adam is elementwise, so each member ends
    with the bytes of its own run at batch size b. A negative step count,
    a batch size below 1, a non-positive learning rate or an empty row
    array raises ConfigurationError.
    """
    if n_steps < 0:
        raise ConfigurationError(
            f"step count must be nonnegative, got {n_steps}")
    config = TrainConfig(learning_rate=learning_rate, batch_size=batch_size,
                         optimizer="adam")
    config.validate()
    if model.members is None:
        parts, seeds = [X], [seed]
    else:
        parts, seeds = list(X), list(seed)
        if len(parts) != model.members or len(seeds) != model.members:
            raise ConfigurationError(
                f"a stack of {model.members} needs as many row arrays "
                f"and seeds")
    parts = [np.asarray(part, dtype=float) for part in parts]
    b = min(batch_size, min(len(part) for part in parts))
    if b < 1:
        raise ConfigurationError("no rows to train on")
    rngs = [np.random.default_rng(s) for s in seeds]
    state = OptimizerState()
    for _ in range(n_steps):
        batch = np.stack([part[rng.choice(len(part), b, replace=False)]
                          for part, rng in zip(parts, rngs)])
        _, grad_sum, _ = model.clipped_grad_sum(
            batch if model.members else batch[0], np.inf)
        apply_update(model.params, grad_sum / b, state, config)
        model.project_params()
    return model
