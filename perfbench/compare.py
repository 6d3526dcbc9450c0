"""Compare two sets of benchmark results, per workload and per metric.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the ``*.json`` records that ``run.py`` writes (by
default under perfbench/out/results); copy each commit's records to its own
directory. Only untraced runs are compared. Run the two commits alternately
(base, head, base, head, ...) with the same --seconds and seeds: the i-th run
of one side is paired with the i-th run of the other, in start order.

For every metric the table gives each side's median and quartiles, the share
of pairs the head won (ties count for neither), and a verdict:

* ``better``: every head run beats every base run, or the head wins at least
  nine tenths of the pairs and the medians differ by more than the base's
  own quartile spread;
* ``unresolved``: the run-to-run spread (quartile distance over median) of
  either side is wider than the metric's bound;
* ``worse``: the head median is worse than the base median by more than the
  bound;
* ``same``: none of the above.

Bounds are the ``end_to_end`` bounds of BENCHMARK.json; the workload-specific
detail metrics (steps/s, rows/s, held-out NLL, ...) use the bound of
``op_s``, from which they derive.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import ROOT, quartiles


def load(directory: Path):
    """Untraced records per workload, in start order."""
    by_workload = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            by_workload.setdefault(record["workload"], []).append(record)
    for records in by_workload.values():
        records.sort(key=lambda r: r["started_at"])
    return by_workload


def metric_values(records):
    """name -> (unit, better, [value per run]) over end-to-end and detail."""
    out = {}
    for record in records:
        for name, m in record["metrics"].items():
            out.setdefault(name, [m["unit"], None, []])[2].append(m["value"])
        for name, m in (record.get("detail") or {}).items():
            entry = out.setdefault(name, [m["unit"], m["better"], []])
            entry[2].append(m["median"])
    return out


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, head, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    share = wins / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    if all(sign * (h - b) > 0 for h in head for b in base):
        return "better", share
    if spread(base) > bound or spread(head) > bound:
        return "unresolved", share
    if sign * (hmed - bmed) < -bound * abs(bmed):
        return "worse", share
    if share >= 0.9 and abs(hmed - bmed) > bq3 - bq1:
        return "better", share
    return "same", share


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("head", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    detail_bound = e2e["op_s"]["bound"]
    base, head = load(args.base), load(args.head)
    if not base or not head:
        print("compare: no untraced result records in one of the "
              "directories", file=sys.stderr)
        return 2

    header = (f"{'workload':<17} {'metric':<18} {'unit':<9} "
              f"{'base median [q1, q3]':<32} {'head median [q1, q3]':<32} "
              f"{'change':>8} {'won':>5}  verdict")
    print(header)
    for workload in sorted(set(base) | set(head)):
        if workload not in base or workload not in head:
            print(f"{workload:<17} only on one side")
            continue
        failed = (sum(r["failed"] for r in base[workload]),
                  sum(r["failed"] for r in head[workload]))
        bvals, hvals = metric_values(base[workload]), \
            metric_values(head[workload])
        for name, (unit, better, bv) in bvals.items():
            if name not in hvals:
                continue
            hv = hvals[name][2]
            bound = e2e[name]["bound"] if name in e2e else detail_bound
            better = e2e[name]["better"] if name in e2e else better
            result, share = verdict(bv, hv, better, bound)
            bq = quartiles(bv)
            hq = quartiles(hv)
            change = (hq[1] - bq[1]) / abs(bq[1]) if bq[1] else float("nan")
            print(f"{workload:<17} {name:<18} {unit:<9} "
                  f"{f'{bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]':<32} "
                  f"{f'{hq[1]:.5g} [{hq[0]:.5g}, {hq[2]:.5g}]':<32} "
                  f"{change:>+8.2%} {share:>5.0%}  {result} "
                  f"(n {len(bv)}/{len(hv)}, bound {bound:g})")
        print(f"{workload:<17} ops failed: base {failed[0]}, head {failed[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
