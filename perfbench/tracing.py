"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only from the benchmark's own files: ``Tracer.install``
replaces public dpflow entry points with timing wrappers in the namespace
where callers look them up (module attributes for functions, class
attributes for methods), and ``uninstall`` puts the originals back, so an
untraced op runs exactly the library code. Spans stay in memory until the
run writes them out.

A span's self time is its duration minus the time its child spans cover.
Every traced segment of the run sits under a root ``bench.*`` span, so the
self times of all spans add up to the traced wall time; the self time of the
``bench.*`` spans is the benchmark's own remainder.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time

import numpy as np

LAYERS = ("flows", "training", "accounting", "gmm", "initialization",
          "anomaly", "data", "cli")

# Spans reported in the per-layer table, in report order.
SPAN_NAMES = (
    "flows.clipped_grad_sum",
    "flows.made.forward_cache", "flows.made.backward_pieces",
    "flows.made.pieces_sq_norms", "flows.made.pieces_weighted_sum",
    "flows.made.forward", "flows.made.inverse",
    "flows.actnorm.forward_cache", "flows.actnorm.backward_pieces",
    "flows.actnorm.pieces_sq_norms", "flows.actnorm.pieces_weighted_sum",
    "flows.actnorm.forward", "flows.actnorm.inverse",
    "flows.param_copy", "flows.log_prob", "flows.sample", "flows.serialize",
    "training.train_dp_nf", "training.train_flow", "training.apply_update",
    "accounting.eps", "accounting.rdp_curve", "accounting.exp_mech_binary",
    "gmm.fit_em", "gmm.base_log_prob", "gmm.base_grad_log_prob",
    "initialization.dp_nf_init",
    "anomaly.build_ensemble", "anomaly.select_threshold", "anomaly.roc",
    "anomaly.gen_tail_anomalies",
    "data.load_csv", "data.save_csv", "data.gen_half_moons",
    "data.gen_pinwheel", "data.standardize",
    "cli.logprob", "cli.sample", "cli.anomaly-roc", "cli.dp-ad",
)

# Spans whose per-call latency percentiles are reported: the per-step and
# per-query calls an optimisation of the hot paths would move.
LATENCY_SPANS = (
    "flows.clipped_grad_sum", "flows.made.forward_cache",
    "flows.made.backward_pieces", "flows.made.pieces_sq_norms",
    "flows.made.pieces_weighted_sum", "flows.param_copy",
    "training.apply_update", "accounting.eps", "accounting.exp_mech_binary",
    "gmm.base_grad_log_prob", "flows.log_prob",
)

# Spans that also count the work they were given, as (span, unit name).
WORK_COUNTS = (
    ("flows.log_prob", "rows"),
    ("data.save_csv", "rows"),
    ("anomaly.select_threshold", "candidates"),
)


def _rows(x) -> int:
    shape = np.shape(getattr(x, "X", x))
    return int(shape[0]) if len(shape) == 2 else 1


def _log_prob_rows(args, kwargs):
    return _rows(args[1])


def _save_csv_rows(args, kwargs):
    return _rows(args[1])


def _threshold_candidates(args, kwargs):
    # select_threshold tries the midpoints of adjacent unique scores plus
    # the two extremes: one more than the number of unique scores.
    return int(np.unique(np.asarray(args[0], dtype=float)).size) + 1


def _patch_table():
    """(owner, attribute, span name, work counter) for every traced entry
    point. Imported lazily: the benchmark pins BLAS threads before numpy
    and dpflow load."""
    from dpflow import accounting, anomaly, cli, data, gmm, initialization
    from dpflow import training
    from dpflow.flows import ActNormLayer, FlowModel, GmmBase, MadeLayer

    table = [
        (FlowModel, "clipped_grad_sum", "flows.clipped_grad_sum", None),
        (FlowModel, "get_flat", "flows.param_copy", None),
        (FlowModel, "set_flat", "flows.param_copy", None),
        (FlowModel, "project_params", "flows.param_copy", None),
        (FlowModel, "log_prob", "flows.log_prob", _log_prob_rows),
        (FlowModel, "sample", "flows.sample", None),
        (FlowModel, "save", "flows.serialize", None),
        (FlowModel, "load", "flows.serialize", None),
        (GmmBase, "log_prob", "gmm.base_log_prob", None),
        (GmmBase, "grad_log_prob", "gmm.base_grad_log_prob", None),
        (training, "train_dp_nf", "training.train_dp_nf", None),
        (training, "train_flow", "training.train_flow", None),
        (anomaly, "train_flow", "training.train_flow", None),
        (training, "apply_update", "training.apply_update", None),
        (accounting.Accountant, "eps", "accounting.eps", None),
        (accounting, "rdp_curve", "accounting.rdp_curve", None),
        (cli, "exp_mech_binary", "accounting.exp_mech_binary", None),
        (gmm, "gmm_fit_em", "gmm.fit_em", None),
        (initialization, "dp_nf_init", "initialization.dp_nf_init", None),
        (anomaly, "build_ensemble", "anomaly.build_ensemble", None),
        (anomaly, "select_threshold", "anomaly.select_threshold",
         _threshold_candidates),
        (anomaly, "roc", "anomaly.roc", None),
        (anomaly, "gen_tail_anomalies", "anomaly.gen_tail_anomalies", None),
        (data, "load_csv", "data.load_csv", None),
        (data, "save_csv", "data.save_csv", _save_csv_rows),
        (data, "gen_half_moons", "data.gen_half_moons", None),
        (data, "gen_pinwheel", "data.gen_pinwheel", None),
        (data, "standardize", "data.standardize", None),
    ]
    for cls, prefix in ((MadeLayer, "flows.made"),
                        (ActNormLayer, "flows.actnorm")):
        for method in ("forward_cache", "backward_pieces", "pieces_sq_norms",
                       "pieces_weighted_sum", "forward", "inverse"):
            table.append((cls, method, f"{prefix}.{method}", None))
    return table


class Tracer:
    """Records (name, parent, start, end, op, work) spans in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None  # identifier shared by the spans of one op

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, count):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = count(args, kwargs) if count is not None else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, parent, start, end, tracer.op, work)
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, parent, start, end, self.op, None)

    # -- patching -----------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count in _patch_table():
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self._wrap(name, raw.__func__, count)))
            else:
                setattr(owner, attr, self._wrap(name, raw, count))

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    @contextlib.contextmanager
    def active(self, root: str, op=None):
        """Trace one segment of the run under the root span ``root``."""
        self.op = op
        self.install()
        try:
            with self.span(root):
                yield
        finally:
            self.uninstall()
            self.op = None

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-span and per-layer aggregates of everything recorded."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, parent, start, end, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        per_span = {}
        for sid, (name, parent, start, end, _, work) in enumerate(spans):
            entry = per_span.setdefault(
                name, {"calls": 0, "self_s": 0.0, "durations": [], "work": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered[sid]
            entry["durations"].append(end - start)
            if work is not None:
                entry["work"] += work
        wall = sum(end - start for _, parent, start, end, _, _ in spans
                   if parent < 0)
        layers = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, entry in per_span.items():
            layers[name.split(".", 1)[0]] += entry["self_s"]
        return {"per_span": per_span, "per_layer": layers, "wall_s": wall,
                "step_intervals": self._step_intervals()}

    def _step_intervals(self):
        """Time between successive ``Accountant.eps`` calls inside one
        ``train_dp_nf`` call: the loop checks the budget once per step."""
        by_run = {}
        for name, parent, start, _, _, _ in self.spans:
            if name == "accounting.eps" and parent >= 0 \
                    and self.spans[parent][0] == "training.train_dp_nf":
                by_run.setdefault(parent, []).append(start)
        out = []
        for starts in by_run.values():
            out.extend(np.diff(np.sort(starts)).tolist())
        return out

    def dump(self, path):
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt") as fh:
            for sid, (name, parent, start, end, op, work) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end, "op": op, "work": work}))
                fh.write("\n")
