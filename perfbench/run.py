#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR (or
.bench_build) and the run's datadirs to <build dir>/work.  The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}.  With
--trace 1 the workload runs twice with the same seed, untraced then traced,
each with a single set-up, and the per-layer metrics carry the tracing
overhead (traced minus untraced end-to-end numbers).  Exits non-zero,
without a result, if the build fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One run must end within 180 s after the build, a traced run's two binaries
# together.
RUN_BUDGET_S = 165
OVERHEAD_METRICS = {
    "confirmed_tps": "tx/s",
    "commit_p50_ms": "ms",
    "final_p50_ms": "ms",
    "read_p50_ms": "ms",
}


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = ROOT / top
        if not base.is_dir():
            continue
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(build_dir), "--target", "perfbench",
              "-j", jobs]]
    # Configure once; the build step re-runs it when a CMakeLists changes.
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            sys.stderr.write(done.stderr[-4000:])
            return None
    binary = build_dir / "perfbench"
    return binary if binary.is_file() else None


def run_once(binary, args, trace, work, env, deadline, setup_reps=None):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--work", str(work)]
    if setup_reps is not None:
        cmd += ["--setup-reps", str(setup_reps)]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"run timed out after {timeout:.0f} s")
        return None, None, []
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    result, e2e = None, None
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run printed no result (exit {done.returncode})")
    for line in lines:
        if line.startswith("e2e "):
            e2e = json.loads(line[4:])
    return result, e2e, lines[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-check size: small state, short phases")
    parser.add_argument("--inject",
                        choices=("tamper_proof", "drop_tx", "read_error"),
                        help="fault injected by the generator (self-check)")
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    env = dict(os.environ, PERFBENCH_SOURCE=source_id())
    work = build_dir / "work"

    if args.trace == 0:
        result, _, lines = run_once(binary, args, 0, work, env, deadline)
        if result is None:
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0 if result.get("correct") else 1

    # Traced: the untraced twin first, for the overhead.  Neither reports
    # setup_s, so each sets up once.
    plain, plain_e2e, _ = run_once(binary, args, 0, work, env, deadline, 1)
    traced, traced_e2e, lines = run_once(binary, args, 1, work, env, deadline, 1)
    if plain is None or traced is None or plain_e2e is None or traced_e2e is None:
        return 1
    for name, unit in OVERHEAD_METRICS.items():
        traced["metrics"]["trace.overhead_" + name] = {
            "value": traced_e2e[name]["value"] - plain_e2e[name]["value"],
            "unit": unit,
        }
    traced["correct"] = bool(traced["correct"] and plain["correct"])
    print("\n".join(lines))
    print(json.dumps(traced), flush=True)
    return 0 if traced["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
