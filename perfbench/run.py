#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (which builds the mmsoc libraries from the repository's own
CMakeLists) into $CARGO_TARGET_DIR, default .bench_build; later calls
rebuild only what changed. The program's output is checked against
BENCHMARK.json and its result is printed as the last line of standard
output. The exit code is 0 only when the run completed and every output
check passed; build logs and diagnostics go to standard error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("encode_cif", "relay_64", "transcode_disk_64")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_revision(root):
    """Git revision when the tree is a checkout, else a digest of src/."""
    if (root / ".git").exists():
        rev = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "none (src sha256 " + digest.hexdigest()[:12] + ")"


def build(root, out):
    build_dir = out / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def check_result(result, spec, trace):
    """Problems with the shape of a result line, as a list of strings."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys are not exactly " + ", ".join(sorted(RESULT_KEYS))]
    problems = []
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']} has no numeric value")
        elif got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} unit {got.get('unit')} != {m['unit']}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append("undeclared metrics: " + ", ".join(sorted(extra)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path.cwd()
    for needed in ("CMakeLists.txt", "src/runtime/pipelines.h", "BENCHMARK.json"):
        if not (root / needed).is_file():
            die(f"{needed} not found: run from the root of a full source tree")
    if args.seconds < 1:
        die("--seconds must be at least 1")
    spec = json.loads((root / "BENCHMARK.json").read_text())

    out = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(root, out)
    except subprocess.CalledProcessError as err:
        die(f"build failed ({err})")

    trace_out = out / "perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-rev", source_revision(root)]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")

    lines = run.stdout.strip().splitlines()
    if not lines:
        die(f"no output (exit code {run.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"last output line is not JSON: {lines[-1][:200]}")
    problems = check_result(result, spec, args.trace)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if args.trace:
        print(f"perfbench: spans written to {trace_out}", file=sys.stderr)
    print(json.dumps(result))
    ok = not problems and run.returncode == 0 and result["correct"] is True
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
