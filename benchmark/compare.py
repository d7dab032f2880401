#!/usr/bin/env python3
"""Collect benchmark result sets and compare two of them.

Run from the repository root; needs only the Python 3 standard library.

    python3 benchmark/compare.py collect OUT.jsonl [--trace 0|1]
    python3 benchmark/compare.py spread RESULTS.jsonl
    python3 benchmark/compare.py compare PARENT.jsonl CHANGE.jsonl

`collect` runs the command in BENCHMARK.json once per workload and seed
1 to 10 and appends each result line, tagged with its workload, seed
and trace flag, to OUT.jsonl. `spread` prints, per workload and metric,
the median and the quartile spread (q3 - q1) as a share of the median,
next to the metric's bound. `compare` pairs the runs of two result sets by
(workload, seed, trace) and prints, per (workload, metric), each side's
median and quartiles, the share of pairs the change won, and a verdict:

  improved       the change won at least 9/10 of the pairs and its median
                 is better than the parent's by more than the parent's
                 quartile spread
  unresolved     (end-to-end metrics) either side's quartile spread is
                 wider than the bound, and not every change run beats
                 every parent run
  regressed      end-to-end: the change's median is worse than the
                 parent's by more than the bound; per-layer metrics have
                 no bound, so there the mirror image of `improved`
  no-regression  otherwise

Quartiles are statistics.quantiles(values, n=4). `compare` exits 1 when
an end-to-end row regressed or the change failed more iterations than
the parent.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC_PATH = Path("BENCHMARK.json")
WIN_SHARE = 0.9
RUNS = 10


def load_spec():
    return json.loads(SPEC_PATH.read_text())


def metric_specs(spec):
    """(name, better, bound) per metric, end-to-end first; bound is None per layer."""
    return [
        (m["name"], m["better"], m.get("bound"))
        for m in spec["end_to_end"] + spec["per_layer"]
    ]


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative(width, median):
    """width as a share of |median|."""
    if median:
        return width / abs(median)
    return 0.0 if width == 0 else float("inf")


def read_results(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            runs[(run["workload"], run["seed"], run["trace"])] = run
    return runs


def values_by_run(runs, workload, name):
    """{(seed, trace): value} of one metric on one workload."""
    return {
        (seed, trace): run["metrics"][name]["value"]
        for (w, seed, trace), run in runs.items()
        if w == workload and name in run["metrics"]
    }


def collect(args):
    spec = load_spec()
    with open(args.out, "a") as out:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in range(1, RUNS + 1):
                cmd = spec["command"] + [
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace),
                ]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if not lines:
                    print(f"{workload} seed {seed}: no result (exit {proc.returncode})",
                          file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                result.update(workload=workload, seed=seed, trace=args.trace)
                out.write(json.dumps(result) + "\n")
                out.flush()
                ok = result["correct"] and proc.returncode == 0
                status = "ok" if ok else f"FAILED (exit {proc.returncode})"
                print(f"{workload} seed {seed}: {status}", file=sys.stderr)
    return 0


def spread(args):
    spec = load_spec()
    runs = read_results(args.results)
    print(f"{'workload':<20} {'metric':<26} {'n':>3} {'median':>14} {'iqr/median':>10} {'bound':>6}")
    for workload in sorted({w for w, _, _ in runs}):
        failed = sorted(s for (w, s, _), r in runs.items() if w == workload and not r["correct"])
        if failed:
            print(f"{workload}: failed checks on seeds {failed}")
        for name, _, bound in metric_specs(spec):
            vals = list(values_by_run(runs, workload, name).values())
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            rel = relative(q3 - q1, med)
            note = ""
            if bound is not None:
                note = "ok" if rel < bound / 3 else ("within bound" if rel <= bound else "OVER BOUND")
            shown = "" if bound is None else bound
            print(f"{workload:<20} {name:<26} {len(vals):>3} {med:>14.6g} {rel:>10.4f} {shown:>6} {note}")
    return 0


def verdict(parent, change, better, bound):
    """(win share, verdict) for paired {(seed, trace): value} dicts."""
    sign = 1.0 if better == "higher" else -1.0
    keys = sorted(parent.keys() & change.keys())
    wins = sum(sign * (change[k] - parent[k]) > 0 for k in keys)
    losses = sum(sign * (change[k] - parent[k]) < 0 for k in keys)
    share = wins / len(keys)
    pq1, pmed, pq3 = quartiles([parent[k] for k in keys])
    cq1, cmed, cq3 = quartiles([change[k] for k in keys])
    gain = sign * (cmed - pmed)
    if share >= WIN_SHARE and gain > pq3 - pq1:
        return share, "improved"
    if bound is None:
        if losses / len(keys) >= WIN_SHARE and -gain > pq3 - pq1:
            return share, "regressed"
        return share, "no-regression"
    wide = max(relative(pq3 - pq1, pmed), relative(cq3 - cq1, cmed)) > bound
    every_run_better = min(sign * change[k] for k in keys) > max(sign * parent[k] for k in keys)
    if wide and not every_run_better:
        return share, "unresolved"
    if -gain > bound * abs(pmed):
        return share, "regressed"
    return share, "no-regression"


def fmt(med, q1, q3):
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(args):
    spec = load_spec()
    parent = read_results(args.parent)
    change = read_results(args.change)
    workloads = sorted({w for w, _, _ in parent} & {w for w, _, _ in change})
    bad = 0
    print(f"{'workload':<20} {'metric':<26} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>5}  verdict")
    for workload in workloads:
        failed = [sum(r["failed"] for (w, _, _), r in side.items() if w == workload)
                  for side in (parent, change)]
        if failed[1] > failed[0]:
            print(f"{workload}: the change failed {failed[1]} iterations, the parent {failed[0]}")
            bad += 1
        for name, better, bound in metric_specs(spec):
            p = values_by_run(parent, workload, name)
            c = values_by_run(change, workload, name)
            keys = sorted(p.keys() & c.keys())
            if not keys:
                continue
            share, v = verdict(p, c, better, bound)
            if v == "regressed" and bound is not None:
                bad += 1
            pq = quartiles([p[k] for k in keys])
            cq = quartiles([c[k] for k in keys])
            print(f"{workload:<20} {name:<26} {fmt(pq[1], pq[0], pq[2]):>34} "
                  f"{fmt(cq[1], cq[0], cq[2]):>34} {share:>5.2f}  {v}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark and append results")
    c.add_argument("out")
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    s = sub.add_parser("spread", help="quartile spread of each metric vs its bound")
    s.add_argument("results")
    p = sub.add_parser("compare", help="verdict per (workload, metric)")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args()
    return {"collect": collect, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
