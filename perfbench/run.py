#!/usr/bin/env python3
"""Layer-attributed benchmark of the ftcolor crates.

    python3 perfbench/run.py --workload fleet|explore|ring|netsim \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench-rep` (the Rust package
next to this file) in release mode, then starts one `perfbench-rep`
process per repetition until `--seconds` have passed (at least
MIN_REPS repetitions), so every repetition's peak resident set belongs
to it alone. Each repetition checks its workload's oracle; with the
default seed its deterministic fields must also equal `expected.json`.
Any failed check ends the run with exit code 1 and no result.

With `--trace 0` the result holds every end-to-end metric of
BENCHMARK.json, each the median over the repetitions. With `--trace 1`
untraced and traced repetitions alternate; the result holds every
per-layer metric (the median over the traced repetitions; 0 for a layer
the workload does not run) and `trace.overhead_ratio`, the traced
run's wall time over the untraced one's, minus one. The table before
it also lists the end-to-end metrics of the untraced repetitions, so
`--trace 1` prints every metric.

The last line of standard output is the result as one JSON object; the
lines before it are a human-readable table and the run's provenance.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet", "explore", "ring", "netsim")
DEFAULT_SEED = 1  # keep equal to `DEFAULT_SEED` in src/lib.rs
MIN_REPS = 3
MAX_RUN_S = 120.0
REP_TIMEOUT_S = 30.0
THREADS = 1  # every workload runs with jobs = 1


class BenchError(Exception):
    """A failed build, oracle or exact-match check."""


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        raise BenchError(f"build failed: {' '.join(cmd)}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    if not target.is_absolute():
        target = ROOT / target
    exe = target / "release" / "perfbench-rep"
    if not exe.is_file():
        raise BenchError(f"build produced no {exe}")
    return exe


def run_rep(exe, workload, seed, traced):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    if rep["oracle_error"] or rep["failed"]:
        raise BenchError(f"{workload} seed {seed}: oracle failed: "
                         f"{rep['oracle_error']} ({rep['failed']} failed ops)")
    return rep


def check_same(label, got, want):
    if got != want:
        raise BenchError(f"{label}: deterministic fields differ\n"
                         f"  got:  {json.dumps(got, sort_keys=True)}\n"
                         f"  want: {json.dumps(want, sort_keys=True)}")


def e2e_values(rep):
    wall = rep["wall_s"]
    work = rep["work"]
    return {
        "setup_s": rep["setup_s"],
        "colorings_per_s": work["colorings"] / wall,
        "configs_per_s": work["configs"] / wall,
        "processes_per_s": work["processes"] / wall,
        "events_per_s": work["events"] / wall,
        "peak_rss_mib": rep["peak_rss_kib"] / 1024.0,
        "ops": rep["ops"],
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def read_first_line(path, prefix):
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=30, check=False)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def git_commit():
    """HEAD of the repository at ROOT, or "unknown" outside one."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top == "unknown" or Path(top).resolve() != ROOT:
        return "unknown"
    return command_output(["git", "rev-parse", "HEAD"])


def provenance(params):
    return {
        "git_commit": git_commit(),
        "rustc": command_output(["rustc", "--version"]),
        "nproc": os.cpu_count(),
        "cpu_model": read_first_line("/proc/cpuinfo", "model name"),
        "benchmark_threads": THREADS,
        "workload_params": params,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    with open(HERE / "expected.json", encoding="utf-8") as f:
        expected = json.load(f)[args.workload]

    exe = build()
    plain, traced = [], []
    start = time.monotonic()
    while True:
        rep = run_rep(exe, args.workload, args.seed, traced=False)
        plain.append(rep)
        check_same("repetitions of one seed", rep["det"], plain[0]["det"])
        if args.trace:
            trep = run_rep(exe, args.workload, args.seed, traced=True)
            check_same("traced vs untraced run", trep["det"], rep["det"])
            traced.append(trep)
        elapsed = time.monotonic() - start
        if (elapsed >= args.seconds and len(plain) >= MIN_REPS) or elapsed >= MAX_RUN_S:
            break
    if args.seed == DEFAULT_SEED:
        check_same("default-seed parameters", plain[0]["params"], expected["params"])
        check_same("default-seed exact match", plain[0]["det"], expected["det"])

    e2e_unit = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_unit = {m["name"]: m["unit"] for m in spec["per_layer"]}
    samples = {name: [] for name in {**e2e_unit, **layer_unit}}
    for rep in plain:
        for name, value in e2e_values(rep).items():
            samples[name].append(value)
    if args.trace:
        for rep in traced:
            for name, value in rep["layers"].items():
                samples[name].append(value)
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        samples["trace.overhead_ratio"] = [traced_wall / plain_wall - 1.0]

    # Both tables are printed in traced mode; the result line carries the
    # mode's own metrics.
    shown = {**e2e_unit, **layer_unit} if args.trace else e2e_unit
    result_unit = layer_unit if args.trace else e2e_unit
    metrics = {}
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"untraced repetitions={len(plain)} traced repetitions={len(traced)}")
    print(f"{'metric':44} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3} unit")
    for name, u in shown.items():
        values = samples[name]
        med = statistics.median(values) if values else 0.0
        q1, q3 = quartiles(values) if values else (0.0, 0.0)
        if name in result_unit:
            metrics[name] = {"value": med, "unit": u}
        print(f"{name:44} {med:14.6g} {q1:14.6g} {q3:14.6g} {len(values):3} {u}")
    print("provenance: " + json.dumps(provenance(plain[0]["params"]), sort_keys=True))

    all_reps = plain + traced
    result = {
        "correct": True,
        "attempted": sum(r["ops"] for r in all_reps),
        "failed": sum(r["failed"] for r in all_reps),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError,
            IndexError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
