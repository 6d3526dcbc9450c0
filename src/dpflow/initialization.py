"""Private data-dependent initialization of feature-normalization layers.

For each actnorm layer in stack order: push the data (in row blocks)
through the layers since the previous actnorm layer, clip features to
[-c/2, c/2], set the offset to the noisy feature-wise mean and the scale to
the noisy feature-wise std (floored), then normalize and continue. Noise is
Laplace at scale 2 sqrt(4 K ln(1/delta)) * sensitivity / eps per statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accounting import laplace_noise
from .errors import ConfigurationError
from .flows import ACTNORM_SCALE_FLOOR, ActNormLayer, FlowModel, push_rows


@dataclass
class InitConfig:
    """Settings of the private init; the per-coordinate sensitivities over
    n rows are c/n (mean) and c/sqrt(n) (std), c = ``clip_range``."""

    clip_range: float = 20.0      # features clipped to [-clip_range/2, +clip_range/2]
    epsilon: float = 1.0
    delta: float = 1e-5
    seed: int = 0

    def validate(self):
        """Each number check is written so that NaN fails it; epsilon =
        inf is the exact-statistics mode, a clip range of inf an error."""
        if not 0 < self.clip_range < math.inf:
            raise ConfigurationError("clip range must be positive and "
                                     f"finite, got {self.clip_range}")
        if not self.epsilon > 0:
            raise ConfigurationError(
                f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError("delta must be in (0, 1)")


def laplace_init_scale(n_layers: int, delta: float, sensitivity: float,
                       epsilon: float) -> float:
    """Noise scale 2 sqrt(4 K ln(1/delta)) * sensitivity / eps; zero when the
    budget is infinite."""
    if math.isinf(epsilon):
        return 0.0
    return 2.0 * math.sqrt(4.0 * n_layers * math.log(1.0 / delta)) \
        * sensitivity / epsilon


def dp_nf_init(X, model: FlowModel, config: InitConfig) -> FlowModel:
    """Set the actnorm parameters of ``model`` from privatized feature
    statistics; mutates and returns the model.

    The total budget charged is (config.epsilon, config.delta); the scale
    formula already splits it over the 2K noised statistics. A noisy
    statistic, or the data normalized by it, that is not finite (a clip
    range so wide that the noise overflows) raises ConfigurationError before
    that layer is set; the layers before it are already set.
    """
    config.validate()
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        raise ConfigurationError("empty dataset")
    n = X.shape[0]
    n_layers = sum(isinstance(layer, ActNormLayer) for layer in model.layers)
    if n_layers == 0:
        raise ConfigurationError("model has no actnorm layers to initialize")

    half = config.clip_range / 2.0
    scale_mean = laplace_init_scale(n_layers, config.delta,
                                    config.clip_range / n, config.epsilon)
    scale_std = laplace_init_scale(n_layers, config.delta,
                                   config.clip_range / math.sqrt(n),
                                   config.epsilon)

    seq = np.random.SeedSequence(config.seed)
    streams = iter(seq.spawn(2 * n_layers))

    Z = X
    segment = []
    for layer in model.layers:
        if not isinstance(layer, ActNormLayer):
            segment.append(layer)
            continue
        Z, _ = push_rows(segment, Z)
        segment = []
        Z = np.clip(Z, -half, half)
        b = Z.mean(axis=0)
        w = Z.std(axis=0)
        if scale_mean > 0:
            b = laplace_noise(b, scale_mean, next(streams))
        else:
            next(streams)
        if scale_std > 0:
            w = laplace_noise(w, scale_std, next(streams))
        else:
            next(streams)
        w = np.maximum(w, ACTNORM_SCALE_FLOOR)
        with np.errstate(over="ignore", invalid="ignore"):
            Z = (Z - b) / w
        if not (np.isfinite(b).all() and np.isfinite(w).all()
                and np.isfinite(Z).all()):
            raise ConfigurationError(
                "noisy actnorm statistics or the data they normalize are not "
                f"finite at clip range {config.clip_range:g}")
        layer.set_param_tensors([w, b])
    return model
