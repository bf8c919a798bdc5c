#!/usr/bin/env python3
"""Self-check of the benchmark at tiny size.

    python3 perfbench/tests/selfcheck.py

Run from the repository root (builds like perfbench/run.py does).  Asserts:
  * every workload prints every end-to-end metric of BENCHMARK.json with its
    unit, passes its output checks and counts no failure;
  * a traced run prints every per-layer metric with its unit;
  * a tampered proof byte, a dropped transaction and a proof read the node
    answers with an RPC error each count toward fail_ratio and make the run
    incorrect.
Exits 0 when every assertion holds.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run(workload, trace=0, inject=None, seconds=2):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace",
           str(trace), "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    result, e2e = None, None
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr[-3000:])
    for line in lines:
        if line.startswith("e2e "):
            e2e = json.loads(line[4:])
    return done.returncode, result, e2e


def check_metrics(result, declared, label):
    metrics = result["metrics"]
    for spec in declared:
        got = metrics.get(spec["name"])
        expect(got is not None and got.get("unit") == spec["unit"] and
               isinstance(got.get("value"), (int, float)) and
               math.isfinite(got["value"]),
               f"{label}: {spec['name']} printed in {spec['unit']}")
    extra = set(metrics) - {spec["name"] for spec in declared}
    expect(not extra, f"{label}: no undeclared metric ({sorted(extra)})")


def main():
    for workload in SPEC["workloads"]:
        name = workload["name"]
        code, result, _ = run(name)
        expect(result is not None, f"{name}: printed a result")
        if result is None:
            continue
        expect(code == 0 and result["correct"], f"{name}: output checks pass")
        expect(result["failed"] == 0 and result["attempted"] > 0,
               f"{name}: no failed operation")
        check_metrics(result, SPEC["end_to_end"], name)

    code, result, _ = run("txpipe_closed", trace=1)
    expect(result is not None and result["correct"], "traced run is correct")
    if result is not None:
        check_metrics(result, SPEC["per_layer"], "traced txpipe_closed")

    for workload, inject in (("mixed_open", "tamper_proof"),
                             ("txpipe_closed", "drop_tx"),
                             ("txpipe_closed", "read_error")):
        code, result, e2e = run(workload, inject=inject)
        expect(result is not None, f"{inject}: printed a result")
        if result is None:
            continue
        expect(result["failed"] >= 1, f"{inject}: counted as a failed operation")
        expect(e2e is not None and e2e["fail_ratio"]["value"] > 0,
               f"{inject}: fail_ratio > 0")
        expect(code != 0 and not result["correct"],
               f"{inject}: the run fails its output checks")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
