#!/usr/bin/env python3
"""The three-family training loss and its exact aggregation.

Builds targets for a small scene, evaluates the proposal loss, samples
RoIs for the refinement losses, and shows that the total is the plain sum
of the parts, at its minimum only for the clamped exact match.
"""

import numpy as np

from pillardet import Box3D, GridSpec, LossReport
from pillardet.rcnn import aux_seg_labels, rcnn_loss, sample_proposals
from pillardet.rpn import HeadOutput, encode_targets, rpn_loss

spec = GridSpec(x_min=-12.8, x_max=12.8, y_min=-12.8, y_max=12.8,
                z_min=-2.0, z_max=4.0, pillar_size=0.1)
gt = [Box3D(1.0, 2.0, 0.0, 4.6, 2.1, 1.7, 0.3, class_id=0),
      Box3D(-5.0, 4.0, 0.1, 0.9, 0.9, 1.7, -1.0, class_id=1),
      Box3D(6.0, -6.0, 0.0, 1.8, 0.8, 1.7, 2.0, class_id=2)]

targets = {8: encode_targets(gt, 8, spec, (0,)),
           4: encode_targets(gt, 4, spec, (1, 2))}
print("targets: vehicle on the stride-8 level, pedestrian/cyclist on stride 4")
for s, t in targets.items():
    print(f"  stride {s}: heatmap {t.heatmap.shape}, "
          f"{int(t.mask.sum())} positive cells")


def ideal_heads(noise=0.0, rng=None):
    heads = {}
    for s, t in targets.items():
        hm = np.where(t.heatmap == 1.0, 1.0 - 1e-4, 1e-4)
        reg = t.reg.copy()
        if noise:
            hm = np.clip(hm + rng.uniform(0, noise, hm.shape), 1e-4, 1 - 1e-4)
            reg = reg + rng.normal(0, noise, reg.shape)
        heads[s] = HeadOutput(s, t.class_ids, hm, reg,
                              np.zeros_like(t.heatmap[..., :1]))
    return heads


rng = np.random.default_rng(9)
print("\nproposal loss at the optimum and under noise:")
for label, heads in (("clamped exact match", ideal_heads()),
                     ("noise 0.05", ideal_heads(0.05, rng)),
                     ("noise 0.20", ideal_heads(0.20, rng))):
    total, breakdown = rpn_loss(heads, targets)
    terms = ", ".join(f"s{s}: hm={b['heatmap']:.4f} reg={b['regression']:.4f}"
                      for s, b in breakdown.items())
    print(f"  {label:<22} total={total:.4f}  ({terms})")

print("\nrefinement losses over a sampled 1:1 batch:")
proposals = [gt[0],
             Box3D(1.2, 2.1, 0.0, 4.4, 2.0, 1.7, 0.35, class_id=0),
             Box3D(9.0, 9.0, 0.0, 4.6, 2.1, 1.7, 0.0),
             Box3D(-9.0, -9.0, 0.0, 4.6, 2.1, 1.7, 0.0)]
batch = sample_proposals(proposals, gt, seed=1, sample_size=4)
print(f"  sampled {len(batch)} RoIs, {int(batch.positive.sum())} positive")
g = 4
labels = aux_seg_labels(batch.rois, gt, g)
rng_logits = np.random.default_rng(10)
parts = rcnn_loss(rng_logits.normal(size=len(batch)),
                  rng_logits.normal(size=(len(batch), 7)),
                  rng_logits.normal(size=(len(batch), g, g)),
                  batch, labels)
print(f"  confidence={parts.confidence:.4f}  regression={parts.regression:.4f}"
      f"  segmentation={parts.seg:.4f}")

report = LossReport.build(
    {s: b["heatmap"] + b["regression"]
     for s, b in rpn_loss(ideal_heads(0.1, rng), targets)[1].items()}, parts)
print("\nloss report (equal weights, no hidden scaling):")
print(f"  per-level proposal terms: {dict((s, round(v, 4)) for s, v in report.rpn.items())}")
print(f"  refinement (conf + reg):  {report.rcnn:.4f}")
print(f"  segmentation:             {report.seg:.4f}")
print(f"  total:                    {report.total:.4f}")
check = sum(report.rpn[s] for s in sorted(report.rpn)) + report.rcnn + report.seg
print(f"  recomputed sum:           {check:.4f}  "
      f"(bit-identical: {check == report.total})")
