"""Invertible layers: masked autoregressive nets, feature normalization,
order reversal.

All layers share one convention: ``forward`` maps data toward the base
distribution (the density-evaluation direction) and returns the batch image
together with log|det d(out)/d(in)| per example; ``inverse`` runs the
sampling direction. ``forward_cache``/``backward_pieces`` run reverse-mode
accumulation down to per-example gradient factors, from which
``pieces_sq_norms`` and ``pieces_weighted_sum`` form the clipped batch
gradient without materializing per-example gradients:
``pieces_weighted_sum`` writes each tensor's sum with its matmul into a given
array (the model passes views into one flat gradient) and skips the scaling
when every weight is 1. The MADE norms go through the degree groups of the
hidden units instead of the (H, H) mask. A MADE layer forms its masked
weights once per ``forward``, ``inverse`` or ``forward_cache`` call;
``forward_cache`` carries them in its cache for ``backward_pieces``.

A layer's trainable tensors are the attributes named in ``tensor_names``.
Once the layer joins a ``FlowModel`` they are views into the model's flat
parameter buffer, so they are only ever written in place.

Member axis: in a stack of k same-architecture layers (``FlowModel.stack``)
every tensor has a leading axis of length k and the batch is (k, m, D).
The MADE gradient kernels (``forward_cache``, ``backward_pieces``,
``pieces_sq_norms``, ``pieces_weighted_sum``), ``forward`` and the reversal
layer take either shape. They are written so that slice j of a stacked
result has the bytes of the 2-D call on member j: batched matmuls against
``.mT``, biases added as ``b[..., None, :]``, reductions over ``axis=-1``,
an ``...ij`` einsum for row dot products, row sums as a matmul against a
ones column, a cumulative sum over ``axis=-1``, and each bias sum as a
(1, m) by (m, width) matmul. ``inverse`` and the actnorm layer are 2-D only.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

ACTNORM_SCALE_FLOOR = 1e-6


class _ParamTensors:
    """Access to the tensors named in ``tensor_names``, in that order."""

    tensor_names = ()

    def param_tensors(self):
        return [getattr(self, name) for name in self.tensor_names]

    def set_param_tensors(self, tensors):
        """Write ``tensors`` into the current tensors in place; every shape
        must match exactly (no broadcasting)."""
        values = [np.asarray(v, dtype=float) for v in tensors]
        targets = self.param_tensors()
        if len(values) != len(targets):
            raise ConfigurationError(
                f"expected {len(targets)} tensors, got {len(values)}")
        for name, target, value in zip(self.tensor_names, targets, values):
            if value.shape != target.shape:
                raise ConfigurationError(
                    f"tensor {name}: expected shape {target.shape}, "
                    f"got {value.shape}")
        for target, value in zip(targets, values):
            target[...] = value


def _row_dot(a, b):
    """sum_j a[..., i, j] * b[..., i, j] for each row i."""
    return np.einsum("...ij,...ij->...i", a, b)


def made_degrees(dim: int, hidden: int):
    """Sequential degree assignment: input i gets degree i+1, hidden units
    cycle over [1, dim-1] (degree 0 when dim == 1, i.e. no input feeds)."""
    deg_in = np.arange(1, dim + 1)
    deg_hidden = np.arange(hidden) % max(1, dim - 1) + min(1, dim - 1)
    return deg_in, deg_hidden


def made_masks(dim: int, hidden: int):
    """Binary masks enforcing strict autoregressivity.

    A unit of degree d reads units of degree <= d; outputs read strictly
    lower degrees, so output i depends only on inputs 0..i-1.
    """
    deg_in, deg_h = made_degrees(dim, hidden)
    m1 = (deg_in[None, :] <= deg_h[:, None]).astype(float)   # (H, D)
    m2 = (deg_h[None, :] <= deg_h[:, None]).astype(float)    # (H, H)
    m_out = (deg_h[None, :] < deg_in[:, None]).astype(float)  # (D, H)
    return m1, m2, m_out


class MadeLayer(_ParamTensors):
    """One masked autoregressive transform.

    Density direction: u_i = (x_i - mu_i(x_<i)) * exp(-alpha_i(x_<i)) with
    log|det| = -sum_i alpha_i. The shift and log-scale heads share a two-layer
    ReLU trunk; the log-scale output is squashed to [-s_max, s_max] via
    s_max * tanh(raw / s_max). Each pass forms the four masked weights once
    (``forward_cache`` keeps them in the cache for ``backward_pieces``) and
    writes the bias adds, ReLUs and squash into its matmul outputs.
    """

    tensor_names = ("W1", "W2", "Wm", "Wa", "b1", "b2", "bm", "ba")

    def __init__(self, dim: int, hidden: int, s_max: float = 5.0, *, rng):
        if dim < 1 or hidden < 1:
            raise ConfigurationError("dim and hidden must be positive")
        if s_max <= 0:
            raise ConfigurationError("s_max must be positive")
        self.dim = dim
        self.hidden = hidden
        self.s_max = float(s_max)
        self.m1, self.m2, self.m_out = made_masks(dim, hidden)
        # One-hot (H, #degrees) of the hidden degrees, in increasing degree,
        # and an (H, 1) ones column: ``pieces_sq_norms`` reads h1 through
        # the degree groups and takes row sums as matmuls.
        _, deg_h = made_degrees(dim, hidden)
        self.degree_groups = (deg_h[:, None] == np.unique(deg_h)).astype(float)
        self.ones_h = np.ones((hidden, 1))
        rng = np.random.default_rng(rng)
        # Fan-in scaled trunk; zeroed heads make the layer start as the
        # identity map, which keeps early noisy training stable.
        self.W1 = rng.standard_normal((hidden, dim)) / np.sqrt(dim + 1) * self.m1
        self.W2 = rng.standard_normal((hidden, hidden)) / np.sqrt(hidden + 1) * self.m2
        self.Wm = np.zeros((dim, hidden))
        self.Wa = np.zeros((dim, hidden))
        self.b1 = np.zeros(hidden)
        self.b2 = np.zeros(hidden)
        self.bm = np.zeros(dim)
        self.ba = np.zeros(dim)

    def heads_are_zero(self) -> bool:
        """Whether the shift and log-scale heads (Wm, Wa, bm, ba) are all
        zero, as ``__init__`` leaves them: then mu = alpha = 0, and the layer
        maps every row whose trunk is finite to itself with log-det 0."""
        return not (self.Wm.any() or self.Wa.any() or self.bm.any()
                    or self.ba.any())

    def _masked_weights(self):
        """The masked trunk and head weights (W1, W2, Wm, Wa), formed once
        per pass."""
        return (self.W1 * self.m1, self.W2 * self.m2,
                self.Wm * self.m_out, self.Wa * self.m_out)

    def _heads(self, x, weights):
        """Shift, squashed log-scale and the two ReLU activations for a
        batch. Each bias add, ReLU and squash is written into the output of
        its matmul."""
        w1, w2, wm, wa = weights
        h1 = x @ w1.mT
        h1 += self.b1[..., None, :]
        np.maximum(h1, 0.0, out=h1)
        h2 = h1 @ w2.mT
        h2 += self.b2[..., None, :]
        np.maximum(h2, 0.0, out=h2)
        mu = h2 @ wm.mT
        mu += self.bm[..., None, :]
        alpha = h2 @ wa.mT
        alpha += self.ba[..., None, :]
        alpha /= self.s_max
        np.tanh(alpha, out=alpha)
        alpha *= self.s_max
        return mu, alpha, h1, h2

    def forward(self, x):
        mu, alpha, _, _ = self._heads(x, self._masked_weights())
        u = (x - mu) * np.exp(-alpha)
        return u, -alpha.sum(axis=-1)

    def forward_cache(self, x):
        weights = self._masked_weights()
        mu, alpha, h1, h2 = self._heads(x, weights)
        eneg = np.exp(-alpha)
        u = (x - mu) * eneg
        cache = (x, h1, h2, alpha, eneg, u, weights)
        return u, -alpha.sum(axis=-1), cache

    def backward_pieces(self, cache, du, dld):
        """Reverse step keeping only the (m, width) factors of each
        parameter gradient; every per-example weight gradient is the masked
        outer product of one factor with one cached activation. The masked
        weights come from the cache, and the ReLU indicators are h > 0
        (the same mask as pre-activation > 0, also for NaN)."""
        x, h1, h2, alpha, eneg, u, (w1, w2, wm, wa) = cache
        dalpha = -du * u - dld[..., None]
        dmu = -du * eneg
        draw = dalpha * (1.0 - (alpha / self.s_max) ** 2)
        dz2 = dmu @ wm + draw @ wa
        dz2 *= h2 > 0.0
        dz1 = dz2 @ w2
        dz1 *= h1 > 0.0
        dx = du * eneg + dz1 @ w1
        return dx, (x, h1, h2, dz1, dz2, dmu, draw)

    # (output factor, input activation, mask) for each weight tensor, in
    # canonical order; biases reuse the output factors.
    def _factor_triples(self, pieces):
        x, h1, h2, dz1, dz2, dmu, draw = pieces
        return [(dz1, x, self.m1), (dz2, h1, self.m2),
                (dmu, h2, self.m_out), (draw, h2, self.m_out)]

    def pieces_sq_norms(self, pieces):
        """Per-example squared gradient norm over this layer's parameters.

        For a masked outer product, sum_{oi} (out_o act_i M_oi)^2 =
        sum_i act_i^2 [(out^2) @ M]_i = sum_o out_o^2 [(act^2) @ M.T]_o since
        M is binary; a bias gradient out_o adds out_o^2. The trunk terms use
        the MADE degrees: W1 takes the first form, (m, H) @ (H, D) with the
        b1 row sum as a matmul against a ones column. m2[o, i] is
        [deg_i <= deg_o], so (h1^2) @ m2.T is a cumulative sum of h1^2 over
        the degree groups, read back per unit through the one-hot G: the
        W2 and b2 term is row_dot((dz2^2) @ G, cumsum((h1^2) @ G) + 1). Both
        heads read h2 through m_out, so they share one (m, D) product. The
        four (m, H) squares share one buffer, which stays in cache.
        """
        x, h1, h2, dz1, dz2, dmu, draw = pieces
        groups = self.degree_groups
        sq = np.multiply(dz1, dz1)
        total = _row_dot(sq @ self.m1, x * x)
        total += (sq @ self.ones_h)[..., 0]
        below = np.cumsum(np.multiply(h1, h1, out=sq) @ groups, axis=-1)
        below += 1.0
        total += _row_dot(np.multiply(dz2, dz2, out=sq) @ groups, below)
        total += _row_dot(dmu * dmu + draw * draw,
                          np.multiply(h2, h2, out=sq) @ self.m_out.T + 1.0)
        return total

    def pieces_weighted_sum(self, pieces, weights, out):
        """sum_m weights[m] * grad_m per tensor, without materializing the
        per-example gradients. Each sum is written by its matmul into
        ``out``, arrays shaped like the layer's tensors, which is returned.
        When every weight is exactly 1 the factors are used unscaled:
        x * 1.0 == x, so the sums keep their bytes."""
        unit = np.all(weights == 1.0)
        for (factor, act, mask), dest in zip(self._factor_triples(pieces),
                                             out):
            if not unit:
                factor = factor * weights[..., None]
            np.matmul(factor.mT, act, out=dest)
            dest *= mask
        row = weights[..., None, :]
        for factor, dest in zip(pieces[3:], out[4:]):
            np.matmul(row, factor, out=dest[..., None, :])
        return out

    def inverse(self, u):
        """Sequential inversion: coordinate i needs only coordinates < i,
        which are final after pass i.

        For D > 1, output 0 reads no hidden unit (row 0 of ``m_out`` is
        zero), so its shift and log-scale are the bias terms and pass 0
        needs no trunk evaluation. After the trunk pass for coordinate D-1
        every head has its final inputs, so that pass also gives the
        log-determinant: D-1 trunk evaluations in all (one when D == 1,
        where the hidden units read only biases).
        """
        x = np.array(u, dtype=float)
        first = 0
        if self.dim > 1:
            alpha0 = self.s_max * np.tanh(self.ba[0] / self.s_max)
            x[:, 0] = u[:, 0] * np.exp(alpha0) + self.bm[0]
            first = 1
        weights = self._masked_weights()
        for i in range(first, self.dim):
            mu, alpha, _, _ = self._heads(x, weights)
            x[:, i] = u[:, i] * np.exp(alpha[:, i]) + mu[:, i]
        return x, alpha.sum(axis=1)

    def descriptor(self):
        return {
            "type": "made", "dim": self.dim, "hidden": self.hidden,
            "s_max": self.s_max,
            "params": {name: getattr(self, name).tolist()
                       for name in self.tensor_names},
        }

    @classmethod
    def from_descriptor(cls, desc):
        layer = cls(desc["dim"], desc["hidden"], desc["s_max"], rng=0)
        layer.set_param_tensors([desc["params"][n] for n in cls.tensor_names])
        return layer


class ActNormLayer(_ParamTensors):
    """Per-feature affine map (x - b) / w with a strictly positive scale."""

    tensor_names = ("w", "b")

    def __init__(self, dim: int, w=None, b=None):
        self.dim = dim
        self.w = np.ones(dim)
        self.b = np.zeros(dim)
        self.set_param_tensors([self.w if w is None else w,
                                self.b if b is None else b])
        self._check_scale()

    def _check_scale(self):
        if np.any(self.w < ACTNORM_SCALE_FLOOR):
            raise ConfigurationError(
                f"actnorm scale below floor {ACTNORM_SCALE_FLOOR}")

    def project(self):
        """Clamp the scale back to its floor after an unconstrained update."""
        np.maximum(self.w, ACTNORM_SCALE_FLOOR, out=self.w)

    def forward(self, x):
        self._check_scale()
        y = (x - self.b) / self.w
        ld = -np.sum(np.log(self.w))
        return y, np.full(x.shape[0], ld)

    def forward_cache(self, x):
        y, ld = self.forward(x)
        return y, ld, y

    def backward_pieces(self, cache, du, dld):
        y = cache
        dx = du / self.w
        dw = -(du * y + dld[:, None]) / self.w
        db = -du / self.w
        return dx, (dw, db)

    def pieces_sq_norms(self, pieces):
        dw, db = pieces
        return np.sum(dw * dw + db * db, axis=1)

    def pieces_weighted_sum(self, pieces, weights, out):
        for factor, dest in zip(pieces, out):
            np.matmul(weights, factor, out=dest)
        return out

    def inverse(self, u):
        self._check_scale()
        return u * self.w + self.b, np.full(u.shape[0], np.sum(np.log(self.w)))

    def descriptor(self):
        return {"type": "actnorm", "dim": self.dim,
                "params": {"w": self.w.tolist(), "b": self.b.tolist()}}

    @classmethod
    def from_descriptor(cls, desc):
        return cls(desc["dim"], desc["params"]["w"], desc["params"]["b"])


class ReversalLayer(_ParamTensors):
    """Fixed coordinate flip i -> D-1-i; volume preserving."""

    def __init__(self, dim: int):
        self.dim = dim

    def forward(self, x):
        return x[..., ::-1], np.zeros(x.shape[:-1])

    def forward_cache(self, x):
        return x[..., ::-1], np.zeros(x.shape[:-1]), None

    def backward_pieces(self, cache, du, dld):
        return du[..., ::-1], ()

    def pieces_sq_norms(self, pieces):
        return 0.0

    def pieces_weighted_sum(self, pieces, weights, out):
        return out

    def inverse(self, u):
        return u[:, ::-1], np.zeros(u.shape[0])

    def descriptor(self):
        return {"type": "reversal", "dim": self.dim}

    @classmethod
    def from_descriptor(cls, desc):
        return cls(desc["dim"])


LAYER_TYPES = {"made": MadeLayer, "actnorm": ActNormLayer,
               "reversal": ReversalLayer}
