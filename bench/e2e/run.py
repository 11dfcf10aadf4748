#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark (README.md in this directory).

    python3 bench/e2e/run.py --workload train-mnist --seed 1 --seconds 15 --trace 0

Builds gmpsvm_bench (Release, in .bench_build/e2e at the repository root)
unless --binary names one, runs the workload, and prints as the last line of
standard output one JSON object with the keys "correct", "attempted",
"failed" and "metrics": the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. The full result is kept in
.bench_build/e2e/results/ (input for compare.py) and, with --trace 1, the
Chrome trace and layers.json in .bench_build/e2e/traces/.

    python3 bench/e2e/run.py --smoke [--binary PATH] [--out DIR]

runs every workload at minimal size, traced, and fails unless every
correctness check passes and the emitted metric names and units are exactly
those of BENCHMARK.json.

Exit codes: 0 on success, 1 when the build, the run or a check failed, 2 on
a usage error.
"""

import argparse
import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
BUILD_DIR = ROOT / ".bench_build" / "e2e"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds gmpsvm_bench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"gmpsvm sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", str(BUILD_DIR), "--target", "gmpsvm_bench",
                    "-j", "4"])
    return BUILD_DIR / "gmpsvm_bench"


def run_build_step(command):
    try:
        step = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"build step failed: {error}")
    if step.returncode != 0:
        fail(f"build step exited {step.returncode}: {' '.join(command)}")


def run_binary(binary, args):
    """Runs gmpsvm_bench, forwarding its report to stdout; returns the exit code."""
    try:
        return subprocess.run([str(binary)] + args, stdout=sys.stdout,
                              timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"gmpsvm_bench did not finish: {error}")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}")


def select_metrics(result, specs):
    """The result's metrics named in `specs`, checked against their units."""
    selected = {}
    for spec in specs:
        metric = result["metrics"].get(spec["name"])
        if metric is None:
            fail(f"gmpsvm_bench did not report {spec['name']}")
        if metric["unit"] != spec["unit"]:
            fail(f"{spec['name']}: unit {metric['unit']} differs from BENCHMARK.json "
                 f"{spec['unit']}")
        selected[spec["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    return selected


def measure(args, benchmark):
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload}; one of {', '.join(names)}",
              file=sys.stderr)
        sys.exit(2)
    binary = args.binary or build()
    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out.unlink(missing_ok=True)
    command = [f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--json={out}"]
    if args.trace:
        command.append(f"--trace={BUILD_DIR / 'traces' / f'{args.workload}.seed{args.seed}'}")
    code = run_binary(binary, command)
    if not out.is_file():
        fail(f"gmpsvm_bench exited {code} without a result")
    result = load_json(out)
    metrics = select_metrics(result, benchmark["per_layer" if args.trace else "end_to_end"])
    sys.stdout.flush()
    print(json.dumps({"correct": result["correct"], "attempted": result["ops"],
                      "failed": result["ops_failed"], "metrics": metrics}))
    return code


def smoke(args, benchmark):
    binary = args.binary or build()
    out_dir = pathlib.Path(args.out) if args.out else BUILD_DIR / "smoke"
    out_dir.mkdir(parents=True, exist_ok=True)
    expected = {s["name"]: s["unit"] for s in benchmark["end_to_end"] + benchmark["per_layer"]}
    problems = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        out = out_dir / f"{workload}.json"
        trace_dir = out_dir / workload
        code = run_binary(binary, [f"--workload={workload}", "--seed=1", "--smoke",
                                   f"--json={out}", f"--trace={trace_dir}"])
        if code != 0 or not out.is_file():
            problems.append(f"{workload}: gmpsvm_bench exited {code}")
            continue
        result = load_json(out)
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        if emitted != expected:
            missing = sorted(set(expected) - set(emitted))
            extra = sorted(set(emitted) - set(expected))
            units = sorted(n for n in set(expected) & set(emitted) if expected[n] != emitted[n])
            problems.append(f"{workload}: metrics differ from BENCHMARK.json "
                            f"(missing {missing}, extra {extra}, unit mismatch {units})")
        for check in result["checks"]:
            if not check["passed"]:
                problems.append(f"{workload}: check failed: {check['name']} {check['detail']}")
        if result["ops_failed"] != 0:
            problems.append(f"{workload}: {result['ops_failed']} ops failed")
        for name in ("trace.json", "layers.json"):
            load_json(trace_dir / name)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"smoke: {len(benchmark['workloads'])} workloads, "
          f"{'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this gmpsvm_bench instead of building one")
    parser.add_argument("--out", help="--smoke output directory")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    benchmark = load_json(ROOT / "BENCHMARK.json")
    return smoke(args, benchmark) if args.smoke else measure(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
