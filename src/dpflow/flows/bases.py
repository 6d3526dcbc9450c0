"""Base densities a flow transforms: spherical Gaussian or a fitted mixture."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..gmm import GmmParams, gmm_logpdf, gmm_logpdf_and_grad, gmm_sample


class SphericalGaussian:
    """Standard normal in D dimensions: zero mean, identity covariance."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ConfigurationError("dim must be positive")
        self.dim = dim

    def log_prob(self, u):
        return -0.5 * (self.dim * math.log(2 * math.pi)
                       + np.sum(u * u, axis=-1))

    def log_prob_and_grad(self, u):
        return self.log_prob(u), -u

    def sample(self, n, rng):
        return np.random.default_rng(rng).standard_normal((n, self.dim))

    def descriptor(self):
        return {"type": "spherical", "dim": self.dim}


class GmmBase:
    """Diagonal Gaussian mixture used as a fixed (non-trainable) base."""

    def __init__(self, params: GmmParams):
        self.params = params
        self.dim = params.dim

    def log_prob(self, u):
        return gmm_logpdf(self.params, u)

    def grad_log_prob(self, u):
        return self.log_prob_and_grad(u)[1]

    def log_prob_and_grad(self, u):
        """Log-density (n,) and its gradient (n, D) from one E-step."""
        return gmm_logpdf_and_grad(self.params, u)

    def sample(self, n, rng):
        return gmm_sample(self.params, n, rng)

    def descriptor(self):
        return {"type": "gmm",
                "weights": self.params.weights.tolist(),
                "means": self.params.means.tolist(),
                "variances": self.params.variances.tolist()}


def base_from_descriptor(desc):
    if desc["type"] == "spherical":
        return SphericalGaussian(desc["dim"])
    if desc["type"] == "gmm":
        return GmmBase(GmmParams(np.array(desc["weights"]),
                                 np.array(desc["means"]),
                                 np.array(desc["variances"])))
    raise ConfigurationError(f"unknown base distribution {desc['type']!r}")
