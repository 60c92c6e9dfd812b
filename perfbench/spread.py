#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads evolve,sfi_gate]
                                [--seeds 1-10] [--seconds N]
                                [--save runs.json] [--compare runs.json]

Runs perfbench/run.py once per (workload, seed), then prints for each
end-to-end metric its median and the distance between its first and
third quartile (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound from BENCHMARK.json. A spread above the
bound (setup_s excepted) is flagged.

--save writes every run's metrics and sim_digest to a file. --compare
reads such a file from an earlier set of runs of the same code and
checks that no metric's median got worse than the earlier median by
more than its bound, and that every seed reproduced its sim_digest.
Exits 1 when a check fails. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: correctness check failed")
    details = json.loads(lines[-2])["perfbench"]
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "sim_digest": details["sim_digest"]}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    if len(seed_list(args.seeds)) < 2:
        ap.error("quartiles need at least two seeds")

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) \
        if args.compare else {}
    runs = {}
    worst = 0.0
    failed = False
    for workload in args.workloads.split(","):
        runs[workload] = {str(s): run(workload, s, args.seconds)
                          for s in seed_list(args.seeds)}
        print(f"== {workload} ({len(runs[workload])} runs)")
        for name, m in metrics.items():
            vals = [r["metrics"][name] for r in runs[workload].values()]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = ""
            if name != "setup_s":
                worst = max(worst, spread / m["bound"])
                if spread > m["bound"]:
                    flag = "  OVER BOUND"
            if workload in earlier:
                old = statistics.median(
                    r["metrics"][name] for r in earlier[workload].values())
                worse = (med - old) / old if m["better"] == "lower" \
                    else (old - med) / old
                flag += f"  vs earlier median {old:.6g}: {worse:+.4f}"
                if worse > m["bound"]:
                    flag += " WORSE THAN BOUND"
                    failed = True
            print(f"  {name:20s} median {med:<12.6g} spread "
                  f"{spread:7.4f}  bound {m['bound']:.3f}{flag}")
            print("      " + " ".join(f"{v:.5g}" for v in vals))
        for seed, r in runs[workload].items():
            old = earlier.get(workload, {}).get(seed, {}).get("sim_digest")
            if old and old != r["sim_digest"]:
                print(f"  seed {seed}: sim_digest {r['sim_digest']} != "
                      f"earlier {old}")
                failed = True
        print("  sim_digest: " + " ".join(
            f"{s}={r['sim_digest']}" for s, r in runs[workload].items()))
    print(f"largest spread/bound (setup_s excepted): {worst:.3f}")
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
