"""Command-line front end: synth, detect, eval, verify.

Exit codes are a stable contract: 0 on success, 1 on validation failures
(bad usage or config, failed verification, mismatched inputs), 2 on I/O
problems (unreadable paths, corrupt files). Every command is deterministic
given its config, seed and inputs; ``--jobs`` only parallelizes across
scenes, whose outputs are independent.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import sys
import time

from . import fileio
from .config import CLASS_NAMES, ConfigError, PipelineConfig, load_config
from .metrics import evaluate_levels
from .pipeline import DetectionPipeline, format_shapes
from .synth import SceneSpec, generate_scene, scene_seed
from .verify import run_all

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error: exit 1 with one line, not
    argparse's exit 2, which the contract reserves for I/O problems."""

    def error(self, message):
        raise ConfigError(message)


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pillardet",
        description="Pillar-grid BEV 3D detection: synthetic scenes, "
                    "detection, evaluation and self-verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scene_level=False):
        p.add_argument("--config", help="JSON config file (defaults used when omitted)")
        if scene_level:
            p.add_argument("--seed", type=int, help="override the config seed")
            p.add_argument("--jobs", type=_at_least_one, default=1,
                           help="scene-level parallelism (default 1)")

    p_synth = sub.add_parser("synth", help="generate synthetic scene archives")
    common(p_synth, scene_level=True)
    p_synth.add_argument("--scenes", type=int, default=1)
    p_synth.add_argument("--out", required=True, help="output directory")

    p_detect = sub.add_parser("detect", help="run the pipeline on scene files")
    common(p_detect, scene_level=True)
    p_detect.add_argument("scenes", nargs="+", help="point-cloud .pbk files")
    p_detect.add_argument("--out", required=True, help="output directory")

    p_eval = sub.add_parser("eval", help="score detection files against ground truth")
    common(p_eval)
    p_eval.add_argument("--dets", nargs="+", required=True,
                        help="detection files or one directory")
    p_eval.add_argument("--gt", nargs="+", required=True,
                        help="ground-truth files or one directory")
    p_eval.add_argument("--out", help="optional JSON report path")

    p_verify = sub.add_parser("verify", help="run all oracle comparison suites")
    common(p_verify)
    return parser


def _load(args) -> PipelineConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _synth_one(payload) -> str:
    cfg, index, out_dir = payload
    spec = SceneSpec(seed=scene_seed(cfg.seed, index))
    cloud, boxes = generate_scene(spec, cfg.grid)
    stem = os.path.join(out_dir, f"scene_{index:04d}")
    fileio.save_point_cloud(stem + ".pbk", cloud)
    fileio.save_gt(stem + ".gt.txt", boxes)
    per_class = {name: sum(1 for b in boxes if b.class_id == cid)
                 for cid, name in CLASS_NAMES.items()}
    counts = " ".join(f"{k}={v}" for k, v in per_class.items())
    return f"scene_{index:04d}: {len(boxes)} objects ({counts}), {len(cloud)} points"


def cmd_synth(args) -> int:
    cfg = _load(args)
    if args.scenes < 0:
        raise ConfigError("scenes: must be non-negative")
    os.makedirs(args.out, exist_ok=True)
    payloads = [(cfg, i, args.out) for i in range(args.scenes)]
    for line in _map_jobs(_synth_one, payloads, args.jobs):
        print(line)
    return EXIT_OK


# the pipeline of a ``detect --jobs`` worker process, installed once per worker
_worker_pipeline: DetectionPipeline | None = None


def _init_detect_worker(pipeline: DetectionPipeline) -> None:
    global _worker_pipeline
    _worker_pipeline = pipeline


def _detect_one(payload) -> str:
    scene_path, out_dir = payload
    return _detect_one_with(_worker_pipeline, scene_path, out_dir)


def _stem(scene_path: str) -> str:
    return os.path.splitext(os.path.basename(scene_path))[0]


def cmd_detect(args) -> int:
    cfg = _load(args)
    # each scene writes <stem>.det.txt: two inputs with one stem would
    # overwrite each other's detections
    seen: dict[str, str] = {}
    for path in args.scenes:
        stem = _stem(path)
        if stem in seen:
            raise ConfigError(f"{seen[stem]} and {path} would both write "
                              f"{stem}.det.txt")
        seen[stem] = path
    os.makedirs(args.out, exist_ok=True)
    # built once, here: a bad config or weight file fails before any worker
    # starts, and workers receive the weights instead of rebuilding them
    pipeline = DetectionPipeline(cfg)
    if args.jobs <= 1 or len(args.scenes) <= 1:
        lines = (_detect_one_with(pipeline, path, args.out)
                 for path in args.scenes)
    else:
        lines = _map_jobs(_detect_one, [(path, args.out) for path in args.scenes],
                          args.jobs, _init_detect_worker, (pipeline,))
    for line in lines:
        print(line)
    return EXIT_OK


def _detect_one_with(pipeline: DetectionPipeline, scene_path: str,
                     out_dir: str) -> str:
    cloud = fileio.load_point_cloud(scene_path)
    t0 = time.perf_counter()
    result = pipeline.run(cloud)
    total = time.perf_counter() - t0
    stem = _stem(scene_path)
    fileio.save_detections(os.path.join(out_dir, stem + ".det.txt"),
                           result.detections)
    stages = " ".join(f"{k}={v * 1000:.0f}ms" for k, v in result.timings.items())
    return (f"{stem}: {len(result.detections)} detections in {total:.2f}s\n"
            f"  shapes: {format_shapes(result.shapes)}\n"
            f"  stages: {stages}")


def _expand(paths: list[str], suffix: str) -> list[str]:
    if len(paths) == 1 and os.path.isdir(paths[0]):
        found = sorted(os.path.join(paths[0], n) for n in os.listdir(paths[0])
                       if n.endswith(suffix))
        if not found:
            raise ConfigError(f"no *{suffix} files in directory {paths[0]}")
        return found
    return sorted(paths)


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    det_paths = _expand(args.dets, ".det.txt")
    gt_paths = _expand(args.gt, ".gt.txt")
    if len(det_paths) != len(gt_paths):
        raise ConfigError(
            f"scene mismatch: {len(det_paths)} detection files vs "
            f"{len(gt_paths)} ground-truth files")
    if len(det_paths) > 1:
        for d, g in zip(det_paths, gt_paths):
            if (os.path.basename(d).removesuffix(".det.txt")
                    != os.path.basename(g).removesuffix(".gt.txt")):
                raise ConfigError(f"scene mismatch: {d} vs {g}")
    det_scenes = [fileio.load_detections(p) for p in det_paths]
    gt_scenes = [fileio.load_gt(p) for p in gt_paths]
    report = evaluate_levels(det_scenes, gt_scenes, cfg.eval_iou)

    print(f"{'class':<12}{'level':<8}{'AP':>10}{'APH':>10}{'#gt':>7}")
    json_report: dict = {}
    for level, per_class in report.items():
        json_report[level] = {}
        for class_id, m in per_class.items():
            name = CLASS_NAMES[class_id]
            flag = "" if m.valid else "  (no ground truth)"
            print(f"{name:<12}{level:<8}{m.ap:>10.4f}{m.aph:>10.4f}"
                  f"{m.num_gt:>7}{flag}")
            json_report[level][name] = {"ap": m.ap, "aph": m.aph,
                                        "num_gt": m.num_gt, "valid": m.valid}
    if args.out:
        fileio.atomic_write_text(args.out, json.dumps(json_report, indent=2) + "\n")
        print(f"report written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    load_config(args.config)  # validated even though suites use fixed budgets
    results = run_all()
    width = max(len(r.name) for r in results)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  max_err={r.max_error:.3e}  "
              f"[{r.budget}] {r.detail}")
    if failed:
        print(f"{len(failed)} suite(s) failed")
        return EXIT_VALIDATION
    print("all suites passed")
    return EXIT_OK


# the variables that set the BLAS thread count of OpenBLAS, OpenMP and MKL
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _map_jobs(fn, payloads, jobs: int, initializer=None, initargs=()):
    """``fn`` over payloads, in worker processes when ``jobs`` > 1.

    Workers are spawned, not forked, so no BLAS thread state is inherited;
    each starts with an equal share of the usable CPUs as its BLAS thread
    count, set in the environment it is spawned with (the caller's is
    restored after). ``initializer(*initargs)`` runs once in each worker.
    """
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    workers = min(jobs, len(payloads))
    threads = str(max(1, len(os.sched_getaffinity(0)) // workers))
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, threads))
    try:
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(workers, initializer, initargs) as pool:
            return pool.map(fn, payloads)
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def main(argv: list[str] | None = None) -> int:
    handlers = {"synth": cmd_synth, "detect": cmd_detect,
                "eval": cmd_eval, "verify": cmd_verify}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except fileio.FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError, KeyError, RuntimeError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
