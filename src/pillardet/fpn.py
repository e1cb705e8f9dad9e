"""Lateral connections: the proposal pyramid and the R-CNN pooling map.

Both follow the same recipe: upsample the semantically stronger coarse map
with a stride-2 deconvolution, densify the spatially precise sparse volume
at the target stride, concatenate [top-down, bottom-up], and blend with a
3x3 convolution. Concatenation (rather than addition) keeps the mostly
empty bottom-up channels from washing out the semantics.

The concat + conv is evaluated without building the concatenation: a
convolution is linear in its input channels, so the kernel splits by
channel. A dense conv runs over the upsampled half and a scatter conv
adds the bottom-up half from its active sites only (a few percent of the
cells); bias and ReLU follow once. This is the same operation, checked
against the per-pixel oracle on the concatenated input by ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# densify stays importable here: traced runs patch this module's call sites
from .grid import (BackboneFeatures, DenseFeatureMap, SparsePillarVolume,  # noqa: F401
                   deconv2x2, dense_conv2d, densify, relu, scatter_conv2d,
                   sparse_conv2d)
from .weights import WeightStore


@dataclass(frozen=True)
class FeaturePyramid:
    """Proposal-stage feature maps keyed by stride (default {4: P3, 8: P4})."""

    levels: dict[int, DenseFeatureMap]

    def __getitem__(self, stride: int) -> DenseFeatureMap:
        return self.levels[stride]


def split_lateral_conv(up: np.ndarray, bottom_up: list[SparsePillarVolume],
                       weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``relu(conv3x3(concat([up] + [densify(v) for v in bottom_up])))``.

    Kernel input channels are sliced in concat order: ``up`` takes the
    first ``up.shape[2]``, each volume the next ``v.channels``. An empty
    ``bottom_up`` list convolves ``up`` alone with its slice.
    """
    c_in = up.shape[2] + sum(v.channels for v in bottom_up)
    if weight.shape[:3] != (3, 3, c_in):
        raise ValueError(f"kernel shape {weight.shape} incompatible with "
                         f"{c_in} concatenated input channels")
    c_out = weight.shape[3]
    out = dense_conv2d(up, weight[:, :, :up.shape[2]], np.zeros(c_out))
    start = up.shape[2]
    for v in bottom_up:
        scatter_conv2d(out, v, weight[:, :, start:start + v.channels])
        start += v.channels
    out += bias
    return np.maximum(out, 0.0, out=out)


def lateral_merge(top_down: DenseFeatureMap, bottom_up: SparsePillarVolume,
                  weights: WeightStore, prefix: str) -> DenseFeatureMap:
    """Merge a coarse dense map into the sparse volume one level below.

    ``top_down`` must sit at exactly twice the stride of ``bottom_up``;
    its deconv output has to land on the bottom-up grid dims.
    """
    if top_down.stride != 2 * bottom_up.stride:
        raise ValueError(
            f"top-down stride {top_down.stride} must be twice bottom-up "
            f"stride {bottom_up.stride}"
        )
    up = relu(deconv2x2(top_down.data, weights.get(f"{prefix}.deconv.w"),
                        weights.get(f"{prefix}.deconv.b")))
    if up.shape[:2] != (bottom_up.ny, bottom_up.nx):
        raise ValueError(
            f"upsampled dims {up.shape[:2]} do not match bottom-up grid "
            f"({bottom_up.ny}, {bottom_up.nx})"
        )
    out = split_lateral_conv(up, [bottom_up], weights.get(f"{prefix}.conv.w"),
                             weights.get(f"{prefix}.conv.b"))
    return DenseFeatureMap(bottom_up.stride, out)


def build_pyramid(backbone: BackboneFeatures,
                  weights: WeightStore) -> FeaturePyramid:
    """Iterate the lateral merge top-down: C5+C4 -> P4, then P4+C3 -> P3."""
    p4 = lateral_merge(backbone.c5, backbone.c4, weights, "neck.p4")
    p3 = lateral_merge(p4, backbone.c3, weights, "neck.p3")
    return FeaturePyramid({4: p3, 8: p4})


def _downsample_chain(volume: SparsePillarVolume, target_stride: int,
                      weights: WeightStore, prefix: str) -> SparsePillarVolume:
    v = volume
    step = 0
    while v.stride < target_stride:
        name = f"{prefix}.down{step}"
        v = sparse_conv2d(v, weights.get(f"{name}.w"), weights.get(f"{name}.b"),
                          stride=2)
        v = SparsePillarVolume(v.stride, v.nx, v.ny, v.coords, relu(v.features))
        step += 1
    return v


def build_pooling_map(backbone: BackboneFeatures, pyramid: FeaturePyramid,
                      weights: WeightStore, pool_stride: int = 4,
                      bottom_up_strides: tuple[int, ...] | None = None,
                      use_bottom_up: bool = True) -> DenseFeatureMap:
    """Class-agnostic dense map the R-CNN stage pools from.

    The top-down branch deconvolves the semantic map one level above the
    pooling stride (a pyramid level when present, else C5). Each bottom-up
    volume is brought to the pooling stride with stride-2 sparse convs
    (identity when already there) and densified; ``use_bottom_up=False``
    zeroes that branch, leaving the semantics-only ablation: the branch
    becomes an empty volume, so its scatter half adds nothing.
    """
    if pool_stride not in (2, 4, 8):
        raise ValueError(f"pool_stride must be one of 2, 4, 8, got {pool_stride}")
    if bottom_up_strides is None:
        bottom_up_strides = (pool_stride,)
    for s in bottom_up_strides:
        if s > pool_stride:
            raise ValueError(
                f"bottom-up stride {s} is coarser than pooling stride {pool_stride}"
            )

    semantic_stride = pool_stride * 2
    semantic = (pyramid.levels[semantic_stride]
                if semantic_stride in pyramid.levels else backbone.c5)
    if semantic.stride != semantic_stride:
        raise ValueError(
            f"no semantic map at stride {semantic_stride} for pooling "
            f"stride {pool_stride}"
        )
    up = relu(deconv2x2(semantic.data, weights.get("neck.pool.deconv.w"),
                        weights.get("neck.pool.deconv.b")))

    branches = []
    for s in bottom_up_strides:
        vol = _downsample_chain(backbone.volume_at(s), pool_stride, weights,
                                f"neck.pool.s{s}")
        if (vol.ny, vol.nx) != up.shape[:2]:
            raise ValueError("bottom-up branch dims do not match upsampled map")
        if not use_bottom_up:
            vol = SparsePillarVolume.empty(vol.stride, vol.nx, vol.ny,
                                           vol.channels)
        branches.append(vol)

    out = split_lateral_conv(up, branches, weights.get("neck.pool.conv.w"),
                             weights.get("neck.pool.conv.b"))
    return DenseFeatureMap(pool_stride, out)
