#!/usr/bin/env python3
"""AP/APH evaluation against a controllable pseudo-detector.

Sweeps the jitter detector's noise from zero (perfect, AP = 1) through
center noise (localization decay) to heading flips (APH-only decay),
reporting both difficulty levels like a leaderboard table.
"""

from pillardet import GridSpec, JitterSpec, SceneSpec, generate_scene
from pillardet.config import CLASS_NAMES
from pillardet.metrics import evaluate_levels
from pillardet.synth import jitter_detections

grid = GridSpec(x_min=-25.6, x_max=25.6, y_min=-25.6, y_max=25.6,
                z_min=-2.0, z_max=4.0, pillar_size=0.1)
EVAL_IOU = {0: 0.7, 1: 0.5, 2: 0.5}

scenes = [generate_scene(SceneSpec(seed=s, counts={0: 8, 1: 6, 2: 4}), grid)
          for s in range(5)]
gt_scenes = [gt for _, gt in scenes]
n_objects = sum(len(g) for g in gt_scenes)
print(f"{len(scenes)} scenes, {n_objects} objects total\n")

sweeps = [
    ("perfect detector", JitterSpec()),
    ("center sigma 0.15 m", JitterSpec(sigma_center=0.15)),
    ("center sigma 0.40 m", JitterSpec(sigma_center=0.40)),
    ("sigma 0.15 m + 10 FPs", JitterSpec(sigma_center=0.15, false_positives=10)),
    ("heading flipped 50%", JitterSpec(yaw_flip_prob=0.5)),
    ("heading flipped 100%", JitterSpec(yaw_flip_prob=1.0)),
]

for label, noise in sweeps:
    det_scenes = [jitter_detections(gt, noise, seed=100 + i)
                  for i, gt in enumerate(gt_scenes)]
    report = evaluate_levels(det_scenes, gt_scenes, EVAL_IOU)
    print(f"-- {label}")
    print(f"   {'class':<12}{'AP/L1':>8}{'APH/L1':>9}{'AP/L2':>8}{'APH/L2':>9}")
    for cls in (0, 1, 2):
        l1, l2 = report["L1"][cls], report["L2"][cls]
        print(f"   {CLASS_NAMES[cls]:<12}{l1.ap:>8.4f}{l1.aph:>9.4f}"
              f"{l2.ap:>8.4f}{l2.aph:>9.4f}")
    print()

print("Heading flips leave AP untouched (the boxes still overlap perfectly)"
      "\nbut send APH to zero: each true positive is weighted by "
      "1 - heading_error/pi.")
