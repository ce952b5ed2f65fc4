#!/usr/bin/env python3
"""Build the end-to-end benchmark and run one workload.

    python3 bench/e2e/run.py --workload echo_64b --seed 1 --seconds 30 \
        --trace 0 [--record runs.jsonl]

Run from the root of a checkout. The runner is built from source into
.bench_build/e2e (or $CARGO_TARGET_DIR/e2e when that is set) as a
Release build, then run once for the workload. Its report is passed
through; the last line printed is the run's JSON result, checked to
name exactly the metrics BENCHMARK.json lists for the trace mode. With
--record the result is also appended, with the workload, seed and trace
mode, to a JSON-lines file that compare.py reads.

Exits non-zero, without printing a result, when the build fails or the
result is malformed, and non-zero after printing it when the run's
output checks failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2e"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "bench_e2e", "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "bench_e2e"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def valid(result, trace):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, or units differ"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the result to this file")
    args = ap.parse_args()

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"run exceeded {RUN_TIMEOUT_S} s")
            return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    problem = valid(result, args.trace) if result is not None \
        else "no JSON result line"
    if problem:
        log("\n".join(lines))
        log(f"malformed result: {problem}")
        return 1

    print("\n".join(lines[:-1]))
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace,
                                "seconds": args.seconds,
                                "result": result}) + "\n")
    print(lines[-1], flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
