"""Named-tensor archive supplying every convolution/MLP parameter.

The store is a flat mapping from dotted tensor names to float arrays.
Forward passes never mutate it; when no trained weights exist, a seeded
uniform initializer fills the same layout so every shape-sensitive test
runs hermetically.

Feature maps are computed in the dtype of the weights: float32 for
archives and seeded stores (the archive format holds f4 values), float64
for a store built from float64 arrays. :func:`as_float` is the one rule.
"""

from __future__ import annotations

import math

import numpy as np


def as_float(arr) -> np.ndarray:
    """``arr`` as float32 when it is float32 already, else as float64.

    The dtype rule of every stored tensor and feature array: float32
    stays float32, anything else (float64, ints, lists) becomes float64.
    """
    arr = np.asarray(arr)
    return arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)


class WeightStore:
    """Immutable-by-convention map from tensor name to float array."""

    def __init__(self, tensors: dict[str, np.ndarray] | None = None):
        self._tensors: dict[str, np.ndarray] = {}
        for name, arr in (tensors or {}).items():
            self.put(name, arr)

    def put(self, name: str, arr: np.ndarray) -> None:
        a = as_float(arr).copy()
        if not np.all(np.isfinite(a)):
            raise ValueError(f"weight tensor '{name}' contains non-finite values")
        a.setflags(write=False)
        self._tensors[name] = a

    def get(self, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
        if name not in self._tensors:
            raise KeyError(f"missing weight tensor '{name}'")
        arr = self._tensors[name]
        if shape is not None and arr.shape != tuple(shape):
            raise ValueError(
                f"weight tensor '{name}' has shape {arr.shape}, expected {tuple(shape)}"
            )
        return arr

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self) -> list[str]:
        return sorted(self._tensors)

    def items(self):
        return self._tensors.items()

    def validate(self, layout: dict[str, tuple[int, ...]]) -> None:
        """Check that every layout tensor exists with the exact shape."""
        for name, shape in layout.items():
            self.get(name, shape)

    @classmethod
    def seeded(cls, layout: dict[str, tuple[int, ...]], seed: int) -> "WeightStore":
        """Fill a layout with uniform(-k, k), k = 1/sqrt(fan_in) tensors.

        Biases borrow the fan-in of their sibling ``.w`` tensor. Tensor
        order is fixed (sorted by name), so a given (layout, seed) pair
        always produces identical values. The float64 draws are rounded
        to float32, the precision a weight archive stores, so a saved and
        reloaded store is bit-equal to this one.
        """
        rng = np.random.default_rng(seed)
        tensors = {}
        for name in sorted(layout):
            shape = tuple(layout[name])
            fan_in = _fan_in(name, shape, layout)
            k = 1.0 / math.sqrt(fan_in)
            tensors[name] = rng.uniform(-k, k, size=shape).astype(np.float32)
        return cls(tensors)


def _fan_in(name: str, shape: tuple[int, ...], layout: dict) -> int:
    if len(shape) == 4:        # (kh, kw, c_in, c_out) convolution kernel
        return shape[0] * shape[1] * shape[2]
    if len(shape) == 2:        # (in, out) linear layer
        return shape[0]
    if len(shape) == 1 and name.endswith(".b"):
        sibling = name[:-2] + ".w"
        if sibling in layout:
            return _fan_in(sibling, tuple(layout[sibling]), layout)
        return shape[0]
    raise ValueError(f"cannot derive fan-in for tensor '{name}' with shape {shape}")
