"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload crowded_near --runs 10

Each run is a fresh ``run.py`` process with its own seed (``--first-seed``,
then the next ones). For every metric the table gives the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``), and the
quartile spread as a share of the median, next to the bound that
BENCHMARK.json sets for end-to-end metrics. ``--out`` writes the same
numbers, with every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, failed_runs = [], 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            failed_runs += 1
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct {result['correct']} "
              f"{result['failed']}/{result['attempted']} failed  " +
              "  ".join(f"{k}={v['value']:.6g}"
                        for k, v in result["metrics"].items()
                        if k in bounds or args.trace), flush=True)
    if len(runs) < 2:
        return 1

    table = {}
    for name in runs[0]["metrics"]:
        table[name] = summarize([r["metrics"][name]["value"] for r in runs])
        table[name]["unit"] = runs[0]["metrics"][name]["unit"]
    print(f"\n{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, s in table.items():
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            mark = "ok" if s["spread"] < bound / 3 else "WIDE"
        print(f"{name:<28} {s['median']:>12.6g} {s['q1']:>12.6g} "
              f"{s['q3']:>12.6g} {s['spread']:>8.2%} "
              f"{'' if bound is None else bound:>6} {mark}")
    all_correct = all(r["correct"] for r in runs) and not failed_runs
    print(f"runs {len(runs)}, all correct: {all_correct}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seconds": seconds,
            "trace": args.trace, "all_correct": all_correct,
            "runs": runs, "summary": table}, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
