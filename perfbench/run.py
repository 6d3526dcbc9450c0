"""dpflow benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload moons_gdp --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the benchmark imports dpflow from the
checkout's ``src`` directory. With ``--trace 0`` it measures the end-to-end
metrics; with ``--trace 1`` it traces a fixed amount of work and reports the
per-layer metrics. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller record (every
measured value, per-span table, provenance) is written under
``perfbench/out/results``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Pinned on this process only, before numpy loads: the reference box has two
# cores shared with other jobs, and one BLAS thread per process keeps the
# per-call overhead that dominates small-batch steps comparable across runs.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("moons_gdp", "pinwheel_gmm_rdp", "model_queries",
                  "dp_ad_ensemble")

# Consecutive failed ops after which a run stops trying: a broken program
# should report quickly instead of spinning for the whole window.
MAX_FAILED_STREAK = 5

# Cheap set-ups repeat until Sizes.setup_min_s is spent, so their median
# rests on enough samples to be steady.
MAX_SETUP_REPS = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measuring window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own test")
    p.add_argument("--results", type=Path, default=OUT / "results",
                   help="directory for the full result record")
    return p.parse_args(argv)


def git_commit(root: Path):
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def dist_version(name):
    from importlib import metadata
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def provenance(args):
    import numpy as np
    import scipy

    def blas(mod):
        try:
            deps = mod.show_config(mode="dicts")["Build Dependencies"]
            return f"{deps['blas']['name']} {deps['blas']['version']}"
        except (KeyError, TypeError, ValueError):
            return None

    return {
        "commit": git_commit(ROOT),
        "workload_seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": dist_version("click"),
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """Harness state of one benchmark process."""

    def __init__(self, args, sizes, work, tracer):
        self.seed = args.seed
        self.seconds = args.seconds
        self.sizes = sizes
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.traced_rounds = set()

    def segment(self, round_index, span=None):
        """Trace context of one op: active only on the traced rounds of a
        --trace 1 run, so untraced ops run the unpatched library."""
        if round_index not in self.traced_rounds:
            return contextlib.nullcontext()
        stack = contextlib.ExitStack()
        stack.enter_context(self.tracer.active("bench.op", op=round_index))
        if span:
            stack.enter_context(self.tracer.span(span))
        return stack

    def guard(self, label, fn):
        """Run one op; a raised error or failed check counts it as failed.

        This is the boundary that must keep the run going, so it catches
        every ``Exception`` and records the traceback."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - recorded and reported
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None


def measure(run, workload, trace):
    """Set up, then run rounds of ops for the window.

    Returns the untraced set-up times, the traced set-up time (None when
    untraced) and the rounds keyed by whether they were traced; a failed
    round is None."""
    sizes = run.sizes
    reps = max(sizes.setup_reps, 2 if trace else 1)
    traced_rep = 1 if trace else None
    setup_s, traced_setup_s = [], None
    rep = 0
    while rep < reps or (not trace and rep < MAX_SETUP_REPS
                         and sum(setup_s) < sizes.setup_min_s):
        ctx = (run.tracer.active("bench.setup") if rep == traced_rep
               else contextlib.nullcontext())
        start = time.perf_counter()
        with ctx:
            workload.setup()
        elapsed = time.perf_counter() - start
        if rep == traced_rep:
            traced_setup_s = elapsed
        else:
            setup_s.append(elapsed)
        rep += 1
    workload.prepare_checks()

    if trace:
        # Traced and untraced rounds alternate, so the traced amount of work
        # is fixed and the untraced rounds give the overhead baseline.
        run.traced_rounds = set(range(0, 2 * sizes.traced_ops, 2))
    rounds = {True: [], False: []}
    start = time.perf_counter()
    i, streak = 0, 0
    while (time.perf_counter() - start < run.seconds
           or (trace and i < 2 * sizes.traced_ops)):
        merged, ok = {}, True
        for j, op in enumerate(workload.ops(i)):
            values = run.guard(f"round {i} op {j}", op)
            if values is None:
                ok = False
                continue
            for key, value in values.items():
                merged[key] = merged.get(key, 0.0) + value \
                    if key == "op_s" else value
        rounds[i in run.traced_rounds].append(merged if ok else None)
        streak = 0 if ok else streak + 1
        i += 1
        if streak >= MAX_FAILED_STREAK:
            break
    return setup_s, traced_setup_s, rounds


def medians(rounds):
    """Median and quartiles over the completed rounds, per value."""
    done = [r for r in rounds if r is not None]
    keys = sorted({k for r in done for k in r})
    out = {}
    for key in keys:
        values = [r[key] for r in done if key in r]
        q1, q2, q3 = quartiles(values)
        out[key] = {"median": q2, "q1": q1, "q3": q3, "n": len(values)}
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "dpflow" / "__init__.py").is_file():
        print(f"perfbench: no dpflow sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import dpflow
    if Path(dpflow.__file__).resolve().parent != ROOT / "src" / "dpflow":
        print(f"perfbench: imported dpflow from {dpflow.__file__}, not from "
              "the checkout", file=sys.stderr)
        return 2

    import metrics
    import tracing
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    run = Run(args, sizes, work, tracer)
    started_at = time.time()
    wall_start = time.perf_counter()
    try:
        workload = workloads.make(args.workload, run)
        try:
            setup_s, traced_setup_s, rounds = measure(run, workload,
                                                      args.trace)
        except Exception as exc:  # noqa: BLE001 - a set-up failure is reported
            traceback.print_exc(file=sys.stderr)
            run.attempted += 1
            run.failed += 1
            run.failures.append(f"setup: {type(exc).__name__}: {exc}")
            setup_s, traced_setup_s, rounds = [], None, {True: [], False: []}
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = medians(rounds[False])
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "started_at": started_at,
        "seconds": args.seconds, "smoke": args.smoke,
        "provenance": provenance(args),
        "run_wall_s": time.perf_counter() - wall_start,
        "setup_s_samples": setup_s,
        "rounds": {"untraced": len(rounds[False]),
                   "traced": len(rounds[True])},
        "values": untraced,
        "failures": run.failures,
    }
    if args.trace:
        summary = tracer.summary() if run.failed == 0 else None
        printed = metrics.per_layer(summary, rounds, untraced, setup_s,
                                    traced_setup_s)
        record["traced_values"] = medians(rounds[True])
        record["trace_table"] = metrics.trace_table(summary)
    else:
        printed = metrics.end_to_end(untraced, setup_s, peak_rss_mb)
        record["detail"] = metrics.detail(untraced)
    correct = run.failed == 0 and printed is not None
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed if run.attempted else 1,
              "metrics": printed or {}}
    record.update(result)

    args.results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    base = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    (args.results / f"{base}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(args.results / f"{base}.spans.jsonl.gz")
    metrics.print_table(record, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
