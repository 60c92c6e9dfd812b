#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json in the tiny mode (--tiny:
shrunken inputs, one-second runs), untraced and traced. Checks that
each run exits 0 with a correct result, that the untraced run prints
exactly the end-to-end metrics of BENCHMARK.json and the traced run
exactly its per-layer metrics, each with the declared unit, and that
the details line carries the host fields and a sim_digest. Exits 1 on
the first mismatch. Run from the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}:\n{out.stderr[-3000:]}")
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            try:
                details, result = run(workload, trace)
            except AssertionError as e:
                failures.append(str(e))
                continue
            if set(result) != {"correct", "attempted", "failed",
                               "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: not correct")
            printed = result["metrics"]
            for name, unit in expected[trace].items():
                if name not in printed:
                    failures.append(f"{label}: {name} missing")
                elif printed[name].get("unit") != unit:
                    failures.append(f"{label}: {name} unit "
                                    f"{printed[name].get('unit')} != {unit}")
                elif not isinstance(printed[name].get("value"),
                                    (int, float)):
                    failures.append(f"{label}: {name} has no number")
            for name in set(printed) - set(expected[trace]):
                failures.append(f"{label}: {name} not in BENCHMARK.json")
            host = details.get("host", {})
            for key in ("nproc", "build_type", "compiler", "commit"):
                if key not in host:
                    failures.append(f"{label}: host field {key} missing")
            if not details.get("sim_digest"):
                failures.append(f"{label}: no sim_digest")
            print(f"{label}: {len(printed)} metrics", flush=True)
    for f in failures:
        print("FAIL " + f)
    print("smoke test " + ("failed" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
