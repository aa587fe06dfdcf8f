"""Self-test of the benchmark: a short pass of every workload, in both modes.

Run from the root of a checkout:

    python3 bench/selftest.py

Checks that each pass exits 0 with no failed command, that its result line
carries exactly the metric names and units listed in BENCHMARK.json, and
that the detail line reports every end-to-end metric with error_rate 0.
Last, it copies BENCHMARK.json and bench/ alone into a scratch directory and
checks that the benchmark fails there without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = "1"
DETAIL_ONLY = {"command_ms_p90", "error_rate"}


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_pass(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"failed {result['failed']} of {result['attempted']}: "
                        f"{detail['failures']}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[k for k in want if k in got and got[k] != want[k]]}")
    if trace == 0:
        e2e = detail["end_to_end"]
        missing = (set(want) | DETAIL_ONLY) - set(e2e)
        if missing:
            problems.append(f"detail lacks end-to-end metrics {sorted(missing)}")
        if e2e.get("error_rate", {}).get("value") != 0:
            problems.append(f"error_rate {e2e.get('error_rate')}")
    elif detail.get("error_rate") != 0:
        problems.append(f"error_rate {detail.get('error_rate')}")
    return problems


def check_bare_directory(workload):
    """Without the package the benchmark must fail and print no result."""
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check_pass(spec, w["name"], trace)
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {w['name']} trace={trace}")
            for p in problems:
                print(f"     {p}")
    problems = check_bare_directory(spec["workloads"][0]["name"])
    failed |= bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} bare directory fails without a result")
    for p in problems:
        print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
