"""Brute-force reference implementations used to validate the fast paths,
each defined here once.

Each oracle is deliberately naive and structurally independent of the code
it checks: Monte-Carlo sampling instead of polygon clipping
(:func:`mc_rotated_iou`), edge cross products instead of a rotation into
the rect frame (:func:`footprint_margin`), one RoI at a time instead of
all at once (:func:`roi_grid_reference`), per-pixel loops instead of
banded GEMMs (:func:`dense_conv_reference`, :func:`deconv_reference` and
:func:`lateral_reference`), a full pairwise matrix instead of lazy IoU
evaluation (:func:`exhaustive_nms`), finite differences instead of
analytic gradients (:func:`finite_difference_grad`). All are
deterministic given a seed. The module imports only ``__future__``,
``math``, ``numpy`` and the data classes ``Box3D``, ``RotatedRect2D`` and
``GridSpec``, never a kernel (``tests/test_imports.py`` checks it).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Box3D, RotatedRect2D


def mc_rotated_iou(a: RotatedRect2D, b: RotatedRect2D,
                   samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo IoU of two rotated rects.

    Uniform samples are drawn over the joint axis-aligned bounding box and
    IoU is estimated as hits-in-both / hits-in-either, which is exact for
    identical rects. Standard error at 10^6 samples is on the order of
    1e-3 for moderately overlapping rects.
    """
    corners = np.array(a.corners() + b.corners())
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    rng = np.random.default_rng(seed)
    # float32 keeps the hot loop memory-bound ops cheap; its rounding is
    # orders of magnitude below the Monte-Carlo noise floor
    x = rng.random(samples, dtype=np.float32)
    x *= np.float32(hi[0] - lo[0])
    x += np.float32(lo[0])
    y = rng.random(samples, dtype=np.float32)
    y *= np.float32(hi[1] - lo[1])
    y += np.float32(lo[1])

    def inside(rect: RotatedRect2D) -> np.ndarray:
        c = np.float32(np.cos(rect.yaw))
        s = np.float32(np.sin(rect.yaw))
        dx = x - np.float32(rect.cx)
        dy = y - np.float32(rect.cy)
        lx = c * dx
        lx += s * dy
        np.abs(lx, out=lx)
        hit = lx <= np.float32(0.5 * rect.length)
        dx *= -s
        dy *= c
        dx += dy
        np.abs(dx, out=dx)
        hit &= dx <= np.float32(0.5 * rect.width)
        return hit

    in_a = inside(a)
    in_b = inside(b)
    both = np.count_nonzero(in_a & in_b)
    in_a |= in_b
    either = np.count_nonzero(in_a)
    if either == 0:
        return 0.0
    return both / either


def footprint_margin(xy: np.ndarray, rect: RotatedRect2D) -> np.ndarray:
    """Least signed distance of each (..., 2) point to the four edge lines
    of ``rect``: > 0 inside, < 0 outside and 0 on the boundary.

    Built from edge cross products against ``rect.corners()``, so it shares
    nothing with ``geometry.points_in_rect``, which rotates each point into
    the rect frame. Corners and edges of an axis-aligned rect with dyadic
    fields are exact, so points on its boundary read exactly 0.
    """
    xy = np.asarray(xy, dtype=np.float64)
    corners = rect.corners()
    margin = np.full(xy.shape[:-1], np.inf)
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        cross = (bx - ax) * (xy[..., 1] - ay) - (by - ay) * (xy[..., 0] - ax)
        margin = np.minimum(margin, cross / math.hypot(bx - ax, by - ay))
    return margin


def roi_grid_reference(roi: Box3D, grid_size: int) -> np.ndarray:
    """The (G, G, 2) grid points of one RoI, placed from its center, yaw
    and the (i + 0.5) / G - 0.5 offsets along its length (i) and width (j)."""
    offset = (np.arange(grid_size) + 0.5) / grid_size - 0.5
    lx, ly = offset[:, None] * roi.length, offset[None, :] * roi.width
    c, s = math.cos(roi.yaw), math.sin(roi.yaw)
    return np.stack([roi.cx + c * lx - s * ly, roi.cy + s * lx + c * ly], -1)


def dense_conv_reference(data: np.ndarray, weight: np.ndarray,
                         stride: int = 1) -> np.ndarray:
    """Per-output-pixel 3x3 convolution with zero padding 1 (no bias).

    Computed in the dtype ``data`` and ``weight`` promote to.
    """
    h, w_in, c_in = data.shape
    c_out = weight.shape[3]
    h_out = (h - 1) // stride + 1
    w_out = (w_in - 1) // stride + 1
    dtype = np.result_type(data, weight)
    padded = np.zeros((h + 2, w_in + 2, c_in), dtype)
    padded[1:-1, 1:-1] = data
    out = np.empty((h_out, w_out, c_out), dtype)
    for oy in range(h_out):
        for ox in range(w_out):
            window = padded[oy * stride:oy * stride + 3,
                            ox * stride:ox * stride + 3]
            out[oy, ox] = np.tensordot(window, weight, axes=([0, 1, 2], [0, 1, 2]))
    return out


def deconv_reference(data: np.ndarray, weight: np.ndarray,
                     bias: np.ndarray) -> np.ndarray:
    """2x2 stride-2 transposed convolution, one output pixel at a time, in
    the dtype ``data``, ``weight`` and ``bias`` promote to."""
    h, w, _ = data.shape
    out = np.empty((2 * h, 2 * w, weight.shape[3]),
                   np.result_type(data, weight, bias))
    for y in range(2 * h):
        for x in range(2 * w):
            out[y, x] = data[y // 2, x // 2] @ weight[y % 2, x % 2] + bias
    return out


def lateral_reference(semantic: np.ndarray, deconv_w: np.ndarray,
                      deconv_b: np.ndarray, bottom_up, conv_w: np.ndarray,
                      conv_b: np.ndarray) -> np.ndarray:
    """A lateral map from its formula, in the dtype the inputs promote to:
    the (H, W, C) ``semantic`` map deconvolved plus bias, ReLU, concatenated
    with the dense (2H, 2W, C_k) ``bottom_up`` maps, convolved plus bias,
    ReLU."""
    up = np.maximum(deconv_reference(semantic, deconv_w, deconv_b), 0.0)
    merged = np.concatenate([up, *bottom_up], axis=-1)
    return np.maximum(dense_conv_reference(merged, conv_w) + conv_b, 0.0)


def exhaustive_nms(dets, iou_thresholds: dict[int, float], iou_fn) -> list:
    """Greedy per-class NMS computed from the full pairwise IoU matrix.

    ``dets`` is any sequence with ``box``, ``class_id`` and
    ``rectified_score`` attributes; ``iou_fn`` computes the 3D IoUs of two
    equal-length sequences of boxes, pair by pair. Each class's matrix is
    one call over all its pairs, with no distance screen. Ordering is by
    descending ``rectified_score`` with ties broken by earlier input index.
    """
    kept: list = []
    by_class: dict[int, list[int]] = {}
    for i, d in enumerate(dets):
        by_class.setdefault(d.class_id, []).append(i)
    for class_id in sorted(by_class):
        idx = by_class[class_id]
        thr = iou_thresholds[class_id]
        n = len(idx)
        iou = np.zeros((n, n))
        upper = np.triu_indices(n, 1)
        iou[upper] = iou_fn([dets[idx[i]].box for i in upper[0].tolist()],
                            [dets[idx[j]].box for j in upper[1].tolist()])
        iou.T[upper] = iou[upper]
        order = sorted(range(n),
                       key=lambda i: (-dets[idx[i]].rectified_score, idx[i]))
        alive = [True] * n
        for pos, i in enumerate(order):
            if not alive[i]:
                continue
            kept.append(idx[i])
            for j in order[pos + 1:]:
                if alive[j] and iou[i, j] > thr:
                    alive[j] = False
    kept_set = set(kept)
    order_all = sorted(kept_set, key=lambda i: (-dets[i].rectified_score, i))
    return [dets[i] for i in order_all]


def finite_difference_grad(f, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central finite differences of scalar ``f`` w.r.t. every entry of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.copy().reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        fp = f(xf.reshape(x.shape))
        xf[i] = orig - h
        fm = f(xf.reshape(x.shape))
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * h)
    return grad
