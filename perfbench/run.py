"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload full_range --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from an installed copy. Workloads
are ``full_range``, ``crowded_near`` and ``postprocess`` (README.md says
why each exists). ``--trace 0`` measures the end-to-end metrics; ``--trace
1`` makes the traced run and reports the per-layer metrics. Every output
file goes under ``.bench_out/`` in the checkout. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with the environment, input
sizes, samples, digests and funnel counts, is written beside the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import time

# BLAS threads are pinned here, before NumPy loads, so that the host's
# default cannot change the load; the package itself never sets them.
BLAS_THREADS = 2
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _pin_blas_threads() -> int:
    n = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _import_package() -> None:
    if not (SRC / "pillardet" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}; run the "
                         "benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import pillardet
    if Path(pillardet.__file__).resolve().parent != SRC / "pillardet":
        raise SystemExit(f"error: imported pillardet from {pillardet.__file__},"
                         f" not from {SRC}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time a fresh process's set-up (see workloads.measure_setup)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _summary(name: str, args, result: dict) -> list[str]:
    d = result["details"]
    lines = [f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}"]
    for key, m in result["metrics"].items():
        lines.append(f"  {key:<28} {m['value']:>14.6g} {m['unit']}")
    samples = d.get("scene_s_samples") or d.get("pass_s_samples")
    if samples is not None:
        lines.append(f"  scene_s_p50 samples          {len(samples):>14d}")
    lines.append(f"  fail_ratio                   {d['fail_ratio']:>14.6g} "
                 f"({result['failed']}/{result['attempted']} operations)")
    lines.append(f"  outputs_sha256               {d.get('outputs_sha256')}")
    for problem in d["problems"][:20]:
        lines.append(f"  FAILED {problem}")
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    blas_threads = _pin_blas_threads()
    _import_package()
    import hostinfo
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose "
                         f"from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        wl.setup()
        print(repr(time()))
        return 0
    out_dir = (ROOT / ".bench_out"
               / f"{wl.name}-seed{args.seed}-trace{args.trace}")
    result = workloads.run(wl, args.seed, args.seconds, bool(args.trace),
                           out_dir)
    details = result["details"]
    details.update({"workload": wl.name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "environment": hostinfo.environment(blas_threads)})
    record = out_dir / "result.json"
    record.write_text(json.dumps(result, indent=1, default=str) + "\n")
    for line in _summary(wl.name, args, result):
        print(line)
    print(f"  record                       {record}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
