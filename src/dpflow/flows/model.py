"""Flow model: an ordered layer stack over a base density.

Exact log-density via the change of variables, seeded sampling through the
layer inverses (both pass large batches through the stack in fixed row
blocks, ``push_rows``), and the clipped sum of per-example parameter
gradients by reverse-mode accumulation, written into a new flat gradient
laid out like the parameters (at clip = inf, layer by layer on the reverse
pass, so each layer's cache is dropped as soon as it is used). All
trainable scalars live in one flat float64 buffer, ``FlowModel.params``, in
a canonical layout (layer order, weights before biases within a layer,
row-major); each layer tensor is a view into it, so optimizers update the
model by writing that buffer in place.

``FlowModel.stack`` joins k flows of one architecture into a model with a
leading member axis: every layer tensor is the members' tensors stacked
along axis 0 (a (k, ...) view into one ``params``), inputs are (k, m, D)
batches, and ``clipped_grad_sum`` returns one gradient laid out like
``params`` in a single pass over the layers. Slice j of each stacked result
has the bytes of member j's own 2-D computation, so an elementwise
optimizer trains the k members exactly as k separate runs would. A stacked
model only computes gradients; ``member(j)`` gives back a plain model.
"""

from __future__ import annotations

import copy
import json

import numpy as np

from ..errors import (ConfigurationError, DpflowError, NonFiniteInputError,
                      NumericalOverflowError, TrainingInstabilityError)
from .bases import SphericalGaussian, base_from_descriptor
from .layers import LAYER_TYPES, ActNormLayer, MadeLayer, ReversalLayer

FORMAT_VERSION = 1

# Rows per block in ``push_rows``: one (rows, H) float64 temporary is
# 256 KiB at H = 64, so a block's working set stays in L2 cache.
BLOCK_ROWS = 512


def _reject_constant(text: str):
    """JSON hook for the NaN and Infinity keywords, which Python's json
    accepts; a model holds neither."""
    raise ConfigurationError(f"non-finite value {text} in model file")


def _check_finite(model: "FlowModel"):
    """An overlong number literal parses to inf; check every float a model
    file sets (parameters, squash bounds) once, as arrays. ``GmmParams``
    checks the mixture arrays itself."""
    values = [model.params] + [layer.s_max for layer in model.layers
                               if isinstance(layer, MadeLayer)]
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ConfigurationError("non-finite value in model file")


class FlowModel:
    def __init__(self, layers, base):
        self.layers = list(layers)
        self.base = base
        self.dim = base.dim
        self.members = None  # k once ``stack`` has joined k flows
        for layer in self.layers:
            if layer.dim != self.dim:
                raise ConfigurationError(
                    f"layer dimension {layer.dim} != model dimension {self.dim}")
        self.n_params = sum(t.size for layer in self.layers
                            for t in layer.param_tensors())
        self._bind_params()

    def _bind_params(self):
        """Move every layer tensor into one new buffer ``params`` and rebind
        it to a view, so that an in-place update of ``params`` is the model
        update. Records each tensor's (start, stop, shape) in ``params``."""
        self._spans, offset = [], 0
        for layer in self.layers:
            self._spans.append([])
            for tensor in layer.param_tensors():
                self._spans[-1].append(
                    (offset, offset + tensor.size, tensor.shape))
                offset += tensor.size
        self.params = np.empty(self.n_params)
        for layer, views in zip(self.layers, self._tensor_views(self.params)):
            for name, view, tensor in zip(layer.tensor_names, views,
                                          layer.param_tensors()):
                view[...] = tensor
                setattr(layer, name, view)

    def _tensor_views(self, buffer):
        """Per layer, views into the flat ``buffer`` shaped like that layer's
        tensors, in the canonical layout of ``params``."""
        return [[buffer[start:stop].reshape(shape)
                 for start, stop, shape in spans] for spans in self._spans]

    @classmethod
    def stack(cls, models) -> "FlowModel":
        """One model whose tensors are the tensors of ``models`` stacked
        along a leading member axis. The members must share one architecture
        of MADE and reversal layers over a spherical Gaussian base; an
        actnorm layer, a mixture base or a differing layer, width or squash
        bound raises ConfigurationError."""
        models = list(models)
        if not models:
            raise ConfigurationError("nothing to stack")
        first = models[0]
        for model in models:
            if model.members is not None:
                raise ConfigurationError("cannot stack a stacked model")
            if not isinstance(model.base, SphericalGaussian):
                raise ConfigurationError(
                    "stacking needs a spherical Gaussian base")
            if any(isinstance(layer, ActNormLayer) for layer in model.layers):
                raise ConfigurationError("cannot stack actnorm layers")
            if [_layer_shape(layer) for layer in model.layers] != \
                    [_layer_shape(layer) for layer in first.layers]:
                raise ConfigurationError("stacked models differ in layers")
        layers = [_with_tensors(group[0], [
            np.stack(tensors)
            for tensors in zip(*(layer.param_tensors() for layer in group))])
            for group in zip(*(model.layers for model in models))]
        stacked = cls(layers, SphericalGaussian(first.dim))
        stacked.members = len(models)
        return stacked

    def member(self, j: int) -> "FlowModel":
        """Member j of a stacked model as a plain model with its own copy
        of the parameters."""
        if self.members is None:
            raise ConfigurationError("not a stacked model")
        layers = [_with_tensors(layer, [t[j] for t in layer.param_tensors()])
                  for layer in self.layers]
        return FlowModel(layers, SphericalGaussian(self.dim))

    def _require_plain(self, what: str):
        """A stacked model holds k members; a density, sample or file of
        one must come from ``member(j)``, never from broadcasting."""
        if self.members is not None:
            raise ConfigurationError(
                f"{what} needs a plain model; use member(j) of the stack")

    # A copy or unpickled model would hold each layer tensor as its own
    # array; drop the buffer from the state and bind a new one on restore.
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["params"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind_params()

    # -- parameter layout ---------------------------------------------------

    def get_flat(self) -> np.ndarray:
        return self.params.copy()

    def set_flat(self, flat: np.ndarray):
        """Write a flat parameter vector into ``params``. A wrong length
        raises ConfigurationError and a NaN or infinity NonFiniteInputError,
        both before anything is written."""
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.n_params,):
            raise ConfigurationError(
                f"expected {self.n_params} parameters, got {flat.shape}")
        if not np.all(np.isfinite(flat)):
            raise NonFiniteInputError("parameters contain non-finite values")
        self.params[...] = flat

    def project_params(self):
        """Re-apply per-layer constraints (actnorm scale floor) after an
        unconstrained parameter update."""
        for layer in self.layers:
            if isinstance(layer, ActNormLayer):
                layer.project()

    # -- density, sampling --------------------------------------------------

    def _check_input(self, x):
        """Rows as an (n, D) array (a stack: (k, m, D)), and whether x was
        one point (D,). A wrong shape or dimension raises
        ConfigurationError, a NaN or infinity NonFiniteInputError."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        lead = () if self.members is None else (self.members,)
        if pts.ndim != len(lead) + 2 or pts.shape[:len(lead)] != lead:
            want = "(n, D)" if self.members is None \
                else f"({self.members}, m, D)"
            raise ConfigurationError(
                f"expected rows of shape {want}, got {pts.shape}")
        if pts.shape[-1] != self.dim:
            raise ConfigurationError(
                f"input dimension {pts.shape[-1]} != model dimension {self.dim}")
        if not np.all(np.isfinite(pts)):
            raise NonFiniteInputError("input contains non-finite values")
        return pts, single

    @np.errstate(over="ignore", invalid="ignore")
    def log_prob(self, x):
        """Exact log-density; accepts one point (D,) or a batch (n, D). A
        non-finite log-density, from the layers or the base density, raises
        NumericalOverflowError (naming no row: the rows may be private)."""
        self._require_plain("log_prob")
        pts, single = self._check_input(x)
        z, total = push_rows(self.layers, pts)
        out = self.base.log_prob(z) + total
        if not np.all(np.isfinite(out)):
            raise NumericalOverflowError("a row's log-density is not finite")
        return float(out[0]) if single else out

    @np.errstate(over="ignore", invalid="ignore")
    def transform_to_base(self, x) -> np.ndarray:
        """Image of x under the layer stack (the point whose base density
        enters log_prob). Useful for fitting a data-dependent base: at the
        identity initialization this is exactly the stack's net permutation
        (and the actnorm maps), and ``push_rows`` skips the zero-head MADE
        layers, so no trunk runs. A non-finite image raises
        NumericalOverflowError (naming no row: the rows may be private)."""
        self._require_plain("transform_to_base")
        pts, single = self._check_input(x)
        z, _ = push_rows(self.layers, pts)
        if not np.all(np.isfinite(z)):
            raise NumericalOverflowError("a row's image is not finite")
        return z[0] if single else z

    @np.errstate(over="ignore", invalid="ignore")
    def sample(self, n: int, seed) -> np.ndarray:
        """n draws: all n base points from one generator, then the layer
        inverses in reverse order. ``n < 1`` raises ConfigurationError, a
        non-finite draw NumericalOverflowError."""
        self._require_plain("sample")
        if n < 1:
            raise ConfigurationError("n must be >= 1")
        rng = np.random.default_rng(seed)
        z, _ = push_rows(self.layers[::-1], self.base.sample(n, rng),
                         inverse=True)
        if not np.all(np.isfinite(z)):
            raise NumericalOverflowError("a sampled row is not finite")
        return z

    def nll(self, batch) -> float:
        """Mean negative log-likelihood of a batch; an empty batch raises
        ConfigurationError."""
        batch = np.atleast_2d(np.asarray(batch, dtype=float))
        if batch.shape[0] == 0:
            raise ConfigurationError("empty batch")
        return float(-np.mean(self.log_prob(batch)))

    # -- gradients ----------------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")
    def clipped_grad_sum(self, x, clip_norm: float):
        """Sum over the batch of per-example loss gradients clipped to l2
        norm ``clip_norm``, computed without materializing the (m, P)
        gradient matrix. With ``clip_norm=np.inf`` and one row this is that
        row's exact gradient of -log p.

        Returns (losses (m,), summed gradient (P,), per-example norms (m,));
        each call returns a new gradient array. A stacked model takes
        (k, m, D) rows, member j's batch in slice j, and returns losses and
        norms of shape (k, m) and the k members' summed gradients in one
        vector laid out like ``params``. A non-finite loss, gradient entry or
        norm raises TrainingInstabilityError.

        Each layer's factors are formed on the reverse pass, and its share of
        the squared norms right after. At ``clip_norm=np.inf`` every clipping
        weight is 1 before any norm is known, so each layer also writes its
        weighted sum there and its cache and factors are dropped at once;
        otherwise the sums follow once the norms give the weights.
        """
        pts, _ = self._check_input(x)
        rows = pts.shape[:-1]
        z = pts
        total = np.zeros(rows)
        caches = []
        for layer in self.layers:
            z, ld, cache = layer.forward_cache(z)
            caches.append(cache)
            total += ld
        log_base, grad_base = self.base.log_prob_and_grad(z)
        losses = -(log_base + total)
        du = -grad_base
        dld = -np.ones(rows)
        out = np.empty(self.n_params)
        views = self._tensor_views(out)
        weights = np.ones(rows) if clip_norm == np.inf else None
        pieces = [None] * len(self.layers)
        sq_parts = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            du, p = layer.backward_pieces(caches.pop(), du, dld)
            sq_parts[i] = layer.pieces_sq_norms(p)
            if weights is None:
                pieces[i] = p
            else:
                layer.pieces_weighted_sum(p, weights, views[i])

        sq = np.zeros(rows)
        for part in sq_parts:
            sq = sq + part
        norms = np.sqrt(sq)
        if weights is None:
            weights = 1.0 / np.maximum(1.0, norms / clip_norm)
            for layer, p, view in zip(self.layers, pieces, views):
                layer.pieces_weighted_sum(p, weights, view)
        if not all(np.all(np.isfinite(a)) for a in (losses, out, norms)):
            raise TrainingInstabilityError("non-finite loss or gradient")
        return losses, out, norms

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        self._require_plain("to_json")
        doc = {
            "format_version": FORMAT_VERSION,
            "dim": self.dim,
            "layers": [layer.descriptor() for layer in self.layers],
            "base": self.base.descriptor(),
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "FlowModel":
        """Rebuild a model from ``to_json`` output. Invalid JSON, an
        unsupported format version, a missing entry, an unknown layer type,
        a tensor of the wrong shape, a layer/base dimension mismatch or a
        non-finite value raises ConfigurationError."""
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
            if doc.get("format_version") != FORMAT_VERSION:
                raise ConfigurationError(
                    f"unsupported model format {doc.get('format_version')}")
            layers = []
            for desc in doc["layers"]:
                if desc["type"] not in LAYER_TYPES:
                    raise ConfigurationError(
                        f"unknown layer type {desc['type']!r}")
                layers.append(LAYER_TYPES[desc["type"]].from_descriptor(desc))
            model = cls(layers, base_from_descriptor(doc["base"]))
            _check_finite(model)
            return model
        except DpflowError:
            raise
        except (AttributeError, KeyError, OverflowError, TypeError,
                ValueError) as exc:
            raise ConfigurationError(f"malformed model file: {exc!r}") from exc

    def save(self, path):
        text = self.to_json()  # a refused model leaves no file behind
        with open(path, "w") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "FlowModel":
        with open(path) as fh:
            return cls.from_json(fh.read())


def _with_tensors(layer, tensors):
    """A shallow copy of ``layer`` holding ``tensors`` in the order of its
    ``tensor_names`` (masks and settings shared with ``layer``)."""
    out = copy.copy(layer)
    for name, tensor in zip(layer.tensor_names, tensors):
        setattr(out, name, tensor)
    return out


def _layer_shape(layer):
    """What two layers must share to be stacked: type, dimension, tensor
    shapes and, for MADE, the squash bound."""
    return (type(layer), layer.dim, [t.shape for t in layer.param_tensors()],
            getattr(layer, "s_max", None))


def push_rows(layers, x, inverse=False):
    """Push the rows of x through ``layers`` in order, with each layer's
    ``forward`` (or ``inverse``), in blocks of at most BLOCK_ROWS rows, so
    the layers' per-row temporaries stay bounded whatever the batch size.

    A MADE layer whose heads are all zero (``heads_are_zero``, decided once
    per call) is the identity and is skipped, so a freshly built model's
    passes run only its reversal and actnorm layers. Its log-det would be
    a zero, which leaves the sums' bytes unchanged. Unlike the trunk pass,
    a skipped layer keeps a -0.0 input of ``inverse`` as -0.0 (the pass
    gave +0.0) and leaves a row whose trunk overflows as it is (the pass
    gave NaN from inf * 0).

    Returns (image (n, D), summed per-row log-determinants (n,)), untested:
    no layer makes a non-finite value finite again (each MADE output u_i
    carries x_i, actnorm is affine, log-dets add), so the ``FlowModel``
    passes run with overflow warnings off and test only their results.
    """
    live = [layer for layer in layers
            if not (isinstance(layer, MadeLayer) and layer.heads_are_zero())]
    out = np.empty(x.shape)
    total = np.zeros(x.shape[0])
    for start in range(0, x.shape[0], BLOCK_ROWS):
        z = x[start:start + BLOCK_ROWS]
        block_total = total[start:start + BLOCK_ROWS]
        for layer in live:
            z, ld = layer.inverse(z) if inverse else layer.forward(z)
            block_total += ld
        out[start:start + BLOCK_ROWS] = z
    return out, total


def build_maf(dim: int, n_blocks: int = 5, hidden: int = 64,
              actnorm: bool = False, seed=0) -> FlowModel:
    """Stack of [masked-autoregressive, reversal, optional actnorm] blocks
    over a spherical Gaussian base; a caller that wants a mixture base sets
    ``model.base`` afterwards."""
    if n_blocks < 1:
        raise ConfigurationError(f"n_blocks must be >= 1, got {n_blocks}")
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(n_blocks):
        layers.append(MadeLayer(dim, hidden, rng=rng))
        layers.append(ReversalLayer(dim))
        if actnorm:
            layers.append(ActNormLayer(dim))
    return FlowModel(layers, SphericalGaussian(dim))
