"""Metric names, units and the tables the benchmark prints.

The names and units here are the ones BENCHMARK.json declares; the
benchmark's test checks that the two agree.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import LATENCY_SPANS, SPAN_NAMES, WORK_COUNTS
from workloads import DETAIL_UNITS

# (name, unit, better). op_s is the wall time of one op of the workload: a
# capped private training run, one logprob + sample + anomaly-roc round, or
# one dp-ad sweep.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# Spans and layers that do work on every workload. Only these carry times in
# the printed per-layer metrics: a layer idle on a workload would print a
# time of exactly zero on every run. The full table, every span and layer
# included, is in the result record.
EVERYWHERE_SPANS = (
    "flows.clipped_grad_sum", "flows.made.forward_cache",
    "flows.made.backward_pieces", "flows.made.pieces_sq_norms",
    "flows.made.pieces_weighted_sum", "flows.made.forward",
    "flows.param_copy", "flows.log_prob", "training.apply_update",
    "data.standardize",
)
EVERYWHERE_LAYERS = ("flows", "training", "data", "bench")
PRINTED_LATENCY_SPANS = tuple(s for s in LATENCY_SPANS
                              if s in EVERYWHERE_SPANS)


def _per_layer_spec():
    spec = [(f"layer.{layer}.self_s", "s", "lower")
            for layer in EVERYWHERE_LAYERS]
    spec.append(("trace.wall_s", "s", "lower"))
    spec += [(f"{span}.self_s", "s", "lower") for span in EVERYWHERE_SPANS]
    for span in PRINTED_LATENCY_SPANS:
        spec += [(f"{span}.p50_us", "us", "lower"),
                 (f"{span}.p90_us", "us", "lower")]
    spec += [("trace.overhead_op_frac", "fraction", "lower"),
             ("trace.overhead_setup_frac", "fraction", "lower")]
    spec += [(f"{span}.calls", "count", "lower") for span in SPAN_NAMES]
    spec += [(f"{span}.{unit}", "count", "lower") for span, unit in WORK_COUNTS]
    spec += [("training.dp_steps", "count", "higher"),
             ("training.skipped_batches", "count", "lower"),
             ("training.step_ratio", "fraction", "higher"),
             ("trace.ops", "count", "higher")]
    return tuple(spec)


PER_LAYER = _per_layer_spec()


def end_to_end(values, setup_s, peak_rss_mb):
    if "op_s" not in values or not setup_s:
        return None
    measured = {"setup_s": statistics.median(setup_s),
                "op_s": values["op_s"]["median"],
                "peak_rss_mb": peak_rss_mb}
    return {name: {"value": measured[name], "unit": unit}
            for name, unit, _ in END_TO_END}


def detail(values):
    """Workload-specific values (medians over rounds), with units."""
    return {key: dict(values[key], unit=unit, better=better)
            for key, (unit, better) in DETAIL_UNITS.items() if key in values}


def trace_table(summary):
    """Every span and layer of the traced work, for the result record."""
    if summary is None:
        return None
    spans = {}
    for name, entry in sorted(summary["per_span"].items()):
        p50, p90, p99 = np.percentile(entry["durations"], [50, 90, 99]) * 1e6
        spans[name] = {"calls": entry["calls"], "self_s": entry["self_s"],
                       "p50_us": p50, "p90_us": p90, "p99_us": p99,
                       "samples": entry["calls"], "work": entry["work"]}
    steps = summary["step_intervals"]
    step = ({"p50_us": float(np.percentile(steps, 50) * 1e6),
             "p90_us": float(np.percentile(steps, 90) * 1e6),
             "p99_us": float(np.percentile(steps, 99) * 1e6),
             "samples": len(steps)} if steps else None)
    layers = summary["per_layer"]
    return {"wall_s": summary["wall_s"], "layers": layers,
            "unattributed_s": summary["wall_s"] - sum(layers.values()),
            "spans": spans, "step_interval": step}


def per_layer(summary, rounds, untraced, setup_s, traced_setup_s):
    """The printed per-layer metrics of a --trace 1 run."""
    traced = [r for r in rounds[True] if r is not None]
    if summary is None or not traced or "op_s" not in untraced or not setup_s:
        return None
    per_span, layers = summary["per_span"], summary["per_layer"]
    empty = {"calls": 0, "self_s": 0.0, "durations": [], "work": 0}
    values = {f"layer.{layer}.self_s": layers[layer]
              for layer in EVERYWHERE_LAYERS}
    values["trace.wall_s"] = summary["wall_s"]
    for span in EVERYWHERE_SPANS:
        values[f"{span}.self_s"] = per_span.get(span, empty)["self_s"]
    for span in PRINTED_LATENCY_SPANS:
        durations = per_span.get(span, empty)["durations"]
        p50, p90 = (np.percentile(durations, [50, 90]) * 1e6
                    if durations else (0.0, 0.0))
        values[f"{span}.p50_us"] = float(p50)
        values[f"{span}.p90_us"] = float(p90)
    traced_op = statistics.median(r["op_s"] for r in traced)
    values["trace.overhead_op_frac"] = traced_op / untraced["op_s"]["median"] - 1
    values["trace.overhead_setup_frac"] = \
        traced_setup_s / statistics.median(setup_s) - 1
    for span in SPAN_NAMES:
        values[f"{span}.calls"] = per_span.get(span, empty)["calls"]
    for span, unit in WORK_COUNTS:
        values[f"{span}.{unit}"] = per_span.get(span, empty)["work"]
    steps = sum(r.get("dp_steps", 0) for r in traced)
    skipped = sum(r.get("skipped_batches", 0) for r in traced)
    values["training.dp_steps"] = steps
    values["training.skipped_batches"] = skipped
    values["training.step_ratio"] = steps / (steps + skipped) if steps else 0.0
    values["trace.ops"] = len(traced)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def print_table(record, file):
    """Human-readable summary of one run."""
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} correct={record['correct']} "
          f"attempted={record['attempted']} failed={record['failed']}",
          file=file)
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=file)
    for name, m in record["metrics"].items():
        if not record["trace"]:
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}", file=file)
    for name, m in (record.get("detail") or {}).items():
        print(f"  {name:<40} {m['median']:>14.6g} {m['unit']} "
              f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})", file=file)
    table = record.get("trace_table")
    if table:
        print(f"  traced wall {table['wall_s']:.4f} s, unattributed "
              f"{table['unattributed_s']:.2e} s", file=file)
        for layer, self_s in sorted(table["layers"].items(),
                                    key=lambda kv: -kv[1]):
            print(f"  layer {layer:<34} {self_s:>10.4f} s", file=file)
        print(f"  {'span':<38} {'calls':>7} {'self_s':>9} {'p50_us':>10} "
              f"{'p90_us':>10} {'work':>9}", file=file)
        for name, s in sorted(table["spans"].items(),
                              key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<38} {s['calls']:>7} {s['self_s']:>9.4f} "
                  f"{s['p50_us']:>10.1f} {s['p90_us']:>10.1f} "
                  f"{s['work']:>9}", file=file)
        if table["step_interval"]:
            st = table["step_interval"]
            print(f"  training.step_us p50 {st['p50_us']:.1f} p90 "
                  f"{st['p90_us']:.1f} p99 {st['p99_us']:.1f} "
                  f"(n {st['samples']})", file=file)
        metrics = record["metrics"]
        if metrics:
            print(f"  trace overhead: op {metrics['trace.overhead_op_frac']['value']:+.3f}, "
                  f"setup {metrics['trace.overhead_setup_frac']['value']:+.3f}",
                  file=file)
