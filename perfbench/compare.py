#!/usr/bin/env python3
"""Collect repeated benchmark runs and compare two sets of them.

Collect one set (one end-to-end run per seed and workload, results saved
as JSON):

    python3 perfbench/compare.py collect SET_DIR [--workloads a,b] \
        [--seeds 1-10] [--seconds N]

Report a set, or compare a new set against a base set:

    python3 perfbench/compare.py report SET_DIR [BASE_DIR]

For each workload x end-to-end metric the report prints one row: the
number of runs, the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (Q3 - Q1) as a
share of the median, and the metric's bound from BENCHMARK.json. A row is
"steady" when its spread is within the bound ("steady/3" when within a
third of it) and "NOISY" otherwise. With a base set, the
row also shows the base median, the change of the median in the metric's
worse direction, and "ok" when that change is within the bound.

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def load_spec():
    return json.loads(Path("BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    failures = 0
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            out = Path(args.set_dir) / workload
            out.mkdir(parents=True, exist_ok=True)
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
            with open(out / f"seed{seed}.log", "w") as log:
                run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log,
                                     text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                failures += 1
                print(f"{workload} seed {seed}: exit {run.returncode}", file=sys.stderr)
            if lines:
                (out / f"seed{seed}.json").write_text(lines[-1] + "\n")
            print(f"{workload} seed {seed}: done", file=sys.stderr)
    return 1 if failures else 0


def load_set(set_dir):
    """{workload: {metric: [values]}} plus failed-run counts."""
    values, failed = {}, {}
    for path in sorted(Path(set_dir).glob("*/seed*.json")):
        workload = path.parent.name
        result = json.loads(path.read_text())
        if not result.get("correct") or result.get("failed"):
            failed[workload] = failed.get(workload, 0) + 1
        for name, metric in result["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(
                metric["value"])
    return values, failed


def summary(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3


def report(args, spec):
    new, failed = load_set(args.set_dir)
    base = load_set(args.base_dir)[0] if args.base_dir else None
    status = 0
    header = (f"{'workload':18s} {'metric':22s} {'n':>3s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s} {'':9s}")
    if base is not None:
        header += f" {'base':>12s} {'worse':>7s}"
    print(header)
    for workload in sorted(new):
        for m in spec["end_to_end"]:
            xs = new[workload].get(m["name"])
            if not xs:
                continue
            med, q1, q3 = summary(xs)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            if spread <= m["bound"] / 3:
                verdict = "steady/3"
            elif spread <= m["bound"]:
                verdict = "steady"
            else:
                verdict = "NOISY"
                status = 1
            row = (f"{workload:18s} {m['name']:22s} {len(xs):3d} {med:12.6g} "
                   f"{q1:12.6g} {q3:12.6g} {spread:7.1%} {m['bound']:6.2f} "
                   f"{verdict:9s}")
            if base is not None and base.get(workload, {}).get(m["name"]):
                bmed = summary(base[workload][m["name"]])[0]
                change = (med - bmed) / abs(bmed)
                worse = change if m["better"] == "lower" else -change
                ok = worse <= m["bound"]
                status = status if ok else 1
                row += f" {bmed:12.6g} {worse:7.1%} {'ok' if ok else 'WORSE'}"
            print(row)
    for workload, n in sorted(failed.items()):
        print(f"{workload}: {n} run(s) failed their output checks")
        status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("set_dir")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int, default=0)
    r = sub.add_parser("report")
    r.add_argument("set_dir")
    r.add_argument("base_dir", nargs="?")
    args = parser.parse_args()
    spec = load_spec()
    sys.exit(collect(args, spec) if args.cmd == "collect" else report(args, spec))


if __name__ == "__main__":
    main()
