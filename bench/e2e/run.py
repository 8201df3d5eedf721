#!/usr/bin/env python3
"""The end-to-end benchmark's one command: builds e2e_tune from this checkout,
runs it, and checks its decisions against the checked-in golden.json.

  python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1
      One run of one workload. The last stdout line is the JSON summary
      {"correct", "attempted", "failed", "metrics"}.
  python3 bench/e2e/run.py [--seed S] [--seconds T] [--repeat N] [--record]
      Every workload N times untraced (seeds S..S+N-1) and once traced.
      Prints each metric's median, quartiles and spreads and writes them to
      BENCH_e2e.json in the build directory; with --record, to the
      checked-in bench/e2e/BENCH_e2e.json instead.
  python3 bench/e2e/run.py --smoke [--bin PATH]
      One N=200 cell per tune workload and 3 s of serve_mixed, traced, with
      every gate armed. Exits non-zero if any gate fails.
  python3 bench/e2e/run.py --write-golden
      Regenerates golden.json from the default-seed decisions.

bench/e2e is a CMake project of its own that builds the repository's
libraries; it is configured into .bench_build/ at the repository root
(--build-dir to change it). --bin runs an already built e2e_tune instead.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
GOLDEN = HERE / "golden.json"
WORKLOADS = ["tune_fit_bound", "tune_scan_bound", "serve_mixed"]
DEFAULT_SEED = 1
DECISION_FIELDS = ("success", "best_config", "best_time_ms", "sim_cost_ms")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def quiet(cmd):
    """Run a build step; its output goes to stderr only when it fails."""
    proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"build step failed: {' '.join(str(c) for c in cmd)}")


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no source tree to build at {ROOT}")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        quiet(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    quiet(["cmake", "--build", build_dir, "--target", "e2e_tune", "-j", jobs])
    return build_dir / "e2e_tune"


def golden_errors(report, seed):
    """Decisions of this run that golden.json also holds must match it."""
    golden = json.loads(GOLDEN.read_text())["decisions"] if GOLDEN.is_file() else {}
    errors, checked = [], 0
    for d in report["decisions"]:
        want = golden.get(d["id"])
        if want is None:
            continue
        checked += 1
        got = {k: d[k] for k in DECISION_FIELDS}
        if got != want:
            errors.append(f"{d['id']}: {got} differs from golden {want}")
    if seed == DEFAULT_SEED and checked == 0:
        errors.append("no decision of this default-seed run is in golden.json")
    return errors


def run_once(binary, workload, seed, seconds, trace, smoke=False, golden=True):
    """One e2e_tune invocation; returns (summary, report). Echoes its lines."""
    out_dir = Path(binary).parent
    report_path = out_dir / f"{workload}.report.json"
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(trace)}", f"--out={report_path}"]
    if trace:
        cmd.append(f"--trace-out={out_dir / (workload + '.trace.json')}")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 3) or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    summary = json.loads(lines[-1])
    report = json.loads(report_path.read_text())
    errors = golden_errors(report, seed) if golden else []
    for e in errors:
        print(f"GATE FAILED: {e}", flush=True)
    if errors:
        summary["correct"] = False
    return summary, report


def spread(values):
    """Median, quartiles (statistics.quantiles, n=4) and relative spreads."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    rel = (lambda x: x / med) if med else (lambda x: 0.0)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": rel(q3 - q1),
            "range_share": rel(max(values) - min(values)), "n": len(values),
            "values": values}


def repeat(binary, seed, seconds, n, report_path):
    """Every workload n times untraced and once traced; the bounds in
    BENCHMARK.json are set from the IQR share this prints (range too)."""
    results, ok = {}, True
    for workload in WORKLOADS:
        runs = []
        for i in range(n):
            summary, _ = run_once(binary, workload, seed + i, seconds, trace=False)
            ok = ok and summary["correct"]
            runs.append(summary["metrics"])
        traced, _ = run_once(binary, workload, seed, seconds, trace=True)
        ok = ok and traced["correct"]
        results[workload] = {
            "end_to_end": {name: dict(spread([r[name]["value"] for r in runs]),
                                      unit=m["unit"])
                           for name, m in runs[0].items()},
            "per_layer": traced["metrics"],
        }
    print(f"\n{n} untraced run(s) per workload, seeds {seed}..{seed + n - 1}")
    print(f"{'workload':16} {'metric':16} {'median':>14} {'q1':>14} {'q3':>14}"
          f" {'iqr/med':>8} {'range/med':>9}")
    for workload, r in results.items():
        for name, s in r["end_to_end"].items():
            print(f"{workload:16} {name:16} {s['median']:14.6g} {s['q1']:14.6g}"
                  f" {s['q3']:14.6g} {s['iqr_share']:8.4f} {s['range_share']:9.4f}"
                  f" {s['unit']}")
    report = {"seed": seed, "seconds": seconds, "repeat": n, "workloads": results}
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report written to {report_path}")
    return ok


def smoke(binary):
    ok = True
    for workload in WORKLOADS:
        summary, _ = run_once(binary, workload, DEFAULT_SEED, 3, trace=True,
                              smoke=True)
        ok = ok and summary["correct"]
    return ok


def write_golden(binary):
    decisions = {}
    for workload in WORKLOADS:
        seconds = 3 if workload == "serve_mixed" else 0
        for is_smoke in (False, True):
            _, report = run_once(binary, workload, DEFAULT_SEED, seconds,
                                 trace=False, smoke=is_smoke, golden=False)
            for d in report["decisions"]:
                decisions[d["id"]] = {k: d[k] for k in DECISION_FIELDS}
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "decisions": decisions},
                                 indent=1, sort_keys=True) + "\n")
    print(f"{len(decisions)} decisions written to {GOLDEN}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--record", action="store_true",
                   help="write the --repeat report to bench/e2e/BENCH_e2e.json")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--write-golden", action="store_true")
    p.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build")
    p.add_argument("--bin", type=Path, help="an already built e2e_tune")
    args = p.parse_args()

    binary = args.bin.resolve() if args.bin else build(args.build_dir.resolve())
    if args.write_golden:
        write_golden(binary)
        return 0
    if args.smoke:
        return 0 if smoke(binary) else 3
    if args.workload:
        summary, _ = run_once(binary, args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(summary))
        return 0 if summary["correct"] else 3
    report_path = HERE / "BENCH_e2e.json" if args.record else binary.parent / "BENCH_e2e.json"
    ok = repeat(binary, args.seed, args.seconds, max(1, args.repeat), report_path)
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
