"""Pipeline configuration: defaults, JSON loading, validation.

The default configuration reproduces the reference operating point:
+-75.2 m range with 0.1 m pillars, channel plan (16, 32, 64, 128, 256),
128-channel neck, stride-4 pooling map, 7x7 RoI grids, per-class NMS IoU
(0.8, 0.55, 0.55), per-class proposal caps (200, 150, 150), and detection
IoU thresholds (0.7, 0.5, 0.5) for evaluation.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .grid import GridSpec

CLASS_IDS = {"vehicle": 0, "pedestrian": 1, "cyclist": 2}
CLASS_NAMES = {v: k for k, v in CLASS_IDS.items()}


class ConfigError(ValueError):
    """Configuration validation failure; message names the field."""


@dataclass(frozen=True)
class PipelineConfig:
    grid: GridSpec = field(default_factory=GridSpec)
    backbone_channels: tuple[int, ...] = (16, 32, 64, 128, 256)
    neck_channels: int = 128
    head_channels: int = 64
    pool_stride: int = 4
    pool_channels: int = 128
    pool_bottom_up_strides: tuple[int, ...] | None = None  # None -> (pool_stride,)
    roi_grid_size: int = 7
    mlp_channels: tuple[int, int] = (256, 256)
    seg_hidden: int = 64
    beta: dict[int, float] = field(default_factory=lambda: {0: 0.68, 1: 0.68, 2: 0.68})
    nms_iou: dict[int, float] = field(default_factory=lambda: {0: 0.8, 1: 0.55, 2: 0.55})
    top_k: dict[int, int] = field(default_factory=lambda: {0: 200, 1: 150, 2: 150})
    eval_iou: dict[int, float] = field(default_factory=lambda: {0: 0.7, 1: 0.5, 2: 0.5})
    class_strides: dict[int, int] = field(default_factory=lambda: {0: 8, 1: 4, 2: 4})
    seed: int = 0
    weights_path: str | None = None

    def __post_init__(self):
        _validate(self)

    @property
    def level_classes(self) -> dict[int, tuple[int, ...]]:
        """Pyramid stride -> class ids detected at that level."""
        levels: dict[int, list[int]] = {}
        for class_id in sorted(self.class_strides):
            levels.setdefault(self.class_strides[class_id], []).append(class_id)
        return {s: tuple(c) for s, c in sorted(levels.items())}

    @property
    def bottom_up_strides(self) -> tuple[int, ...]:
        if self.pool_bottom_up_strides is None:
            return (self.pool_stride,)
        return self.pool_bottom_up_strides


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _validate(cfg: PipelineConfig) -> None:
    if len(cfg.backbone_channels) != 5:
        raise ConfigError("backbone_channels: expected exactly 5 stages")
    if any(c < 1 for c in cfg.backbone_channels):
        raise ConfigError("backbone_channels: all entries must be >= 1")
    for name, value in (("neck_channels", cfg.neck_channels),
                        ("head_channels", cfg.head_channels),
                        ("pool_channels", cfg.pool_channels),
                        ("seg_hidden", cfg.seg_hidden)):
        if value < 1:
            raise ConfigError(f"{name}: must be >= 1")
    if cfg.pool_stride not in (2, 4, 8):
        raise ConfigError("pool_stride: must be one of 2, 4, 8")
    for s in cfg.bottom_up_strides:
        if not _is_power_of_two(s) or s > cfg.pool_stride:
            raise ConfigError(
                "pool_bottom_up_strides: entries must be powers of two no "
                "coarser than pool_stride")
    if len(set(cfg.bottom_up_strides)) != len(cfg.bottom_up_strides):
        raise ConfigError("pool_bottom_up_strides: each stride may be listed "
                          "only once")
    if cfg.roi_grid_size < 1:
        raise ConfigError("roi_grid_size: must be >= 1")
    if len(cfg.mlp_channels) != 2 or any(c < 1 for c in cfg.mlp_channels):
        raise ConfigError("mlp_channels: expected two positive widths")
    for field_name, mapping, lo, hi in (("beta", cfg.beta, 0.0, 1.0),
                                        ("nms_iou", cfg.nms_iou, 0.0, 1.0),
                                        ("eval_iou", cfg.eval_iou, 0.0, 1.0)):
        for class_id in (0, 1, 2):
            if class_id not in mapping:
                raise ConfigError(f"{field_name}: missing class {class_id}")
            v = mapping[class_id]
            open_lo = field_name != "beta"
            if (v < lo or v > hi or (open_lo and v <= lo)):
                rng = "(0, 1]" if open_lo else "[0, 1]"
                raise ConfigError(f"{field_name}[{CLASS_NAMES[class_id]}]: "
                                  f"value {v} outside {rng}")
    for class_id in (0, 1, 2):
        if cfg.top_k.get(class_id, -1) < 0:
            raise ConfigError(f"top_k: class {class_id} must be >= 0")
        if cfg.class_strides.get(class_id) not in (4, 8):
            raise ConfigError(
                f"class_strides[{CLASS_NAMES[class_id]}]: must be 4 or 8")
    if cfg.grid.nx % 16 or cfg.grid.ny % 16:
        raise ConfigError("grid: cell counts must be divisible by 16 for the "
                          "five-stage backbone")
    if cfg.seed < 0:
        raise ConfigError("seed: must be non-negative")


_KINDS = {tuple: "an array", int: "an integer", float: "a finite number",
          str: "a string"}


def _escaped(key: str) -> str:
    """A JSON object key as JSON escapes it: one line, whatever it holds."""
    return json.dumps(key)[1:-1]


def _read(tp, value, path: str, default=None):
    """``value`` read as the declared type ``tp``, else a ConfigError naming
    ``path``. Class maps (``dict[int, X]``) are keyed by class name and merge
    into ``default``; ints are no booleans and floats are finite."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:  # X | None
        return None if value is None else _read(args[0], value, path)
    if is_dataclass(tp) and isinstance(value, dict):
        hints, defaults = get_type_hints(tp), tp()
        prefix = f"{path}." if path else ""
        kwargs = {}
        for name, v in value.items():
            if name not in hints:
                raise ConfigError(f"unknown configuration field "
                                  f"'{prefix}{_escaped(name)}'")
            kwargs[name] = _read(hints[name], v, prefix + name, getattr(defaults, name))
        try:
            return tp(**kwargs)
        except ConfigError:
            raise
        except (ValueError, ArithmeticError) as exc:  # GridSpec's own checks
            raise ConfigError(f"{path}: {exc}") from exc
    if origin is dict and isinstance(value, dict):
        merged = dict(default)
        for name, v in value.items():
            if name not in CLASS_IDS:
                raise ConfigError(f"{path}: unknown class '{_escaped(name)}'")
            merged[CLASS_IDS[name]] = _read(args[1], v, f"{path}[{name}]")
        return merged
    if origin is tuple and isinstance(value, (list, tuple)):
        return tuple(_read(args[0], v, f"{path}[{i}]")
                     for i, v in enumerate(value))
    if tp in (int, str) and type(value) is tp:
        return value
    if tp is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)  # finite: NaN fails the comparison
    raise ConfigError(f"{path}: expected {_KINDS.get(origin or tp, 'an object')}"
                      f", got {json.dumps(value)}")


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build a config from a (possibly partial) JSON-style dict."""
    return _read(PipelineConfig, raw, "")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict, or a ConfigError naming a key they
    repeat: ``json`` alone would keep its last value without a word."""
    seen: set[str] = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"key '{_escaped(key)}' occurs twice")
        seen.add(key)
    return dict(pairs)


def load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f, object_pairs_hook=_unique_keys)
        except ConfigError as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        except ValueError as exc:  # bad syntax, bad UTF-8, oversize integer
            raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return config_from_dict(raw)


def volume_channels(cfg: PipelineConfig) -> dict[int, int]:
    """Sparse-volume channel count by stride."""
    plan = cfg.backbone_channels
    return {1: plan[0], 2: plan[1], 4: plan[2], 8: plan[3]}


def weight_layout(cfg: PipelineConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor name and shape the forward pipeline reads, plus
    ``rcnn.seg.*``, read only by the training-time head ``rcnn.seg_forward``.

    1x1 head convolutions are stored as plain (in, out) matrices; 3x3 and
    2x2 kernels as (kh, kw, in, out).
    """
    plan = cfg.backbone_channels
    neck = cfg.neck_channels
    layout: dict[str, tuple[int, ...]] = {
        "pfe.linear.w": (4, plan[0]), "pfe.linear.b": (plan[0],),
        "backbone.s1.subm.w": (3, 3, plan[0], plan[0]),
        "backbone.s1.subm.b": (plan[0],),
    }
    for k in (2, 3, 4):
        layout[f"backbone.s{k}.down.w"] = (3, 3, plan[k - 2], plan[k - 1])
        layout[f"backbone.s{k}.down.b"] = (plan[k - 1],)
        layout[f"backbone.s{k}.subm.w"] = (3, 3, plan[k - 1], plan[k - 1])
        layout[f"backbone.s{k}.subm.b"] = (plan[k - 1],)
    layout["backbone.s5.down.w"] = (3, 3, plan[3], plan[4])
    layout["backbone.s5.down.b"] = (plan[4],)
    layout["backbone.s5.conv.w"] = (3, 3, plan[4], plan[4])
    layout["backbone.s5.conv.b"] = (plan[4],)

    # pyramid: P4 merges C5 into C4, P3 merges P4 into C3
    layout["neck.p4.deconv.w"] = (2, 2, plan[4], neck)
    layout["neck.p4.deconv.b"] = (neck,)
    layout["neck.p4.conv.w"] = (3, 3, neck + plan[3], neck)
    layout["neck.p4.conv.b"] = (neck,)
    layout["neck.p3.deconv.w"] = (2, 2, neck, neck)
    layout["neck.p3.deconv.b"] = (neck,)
    layout["neck.p3.conv.w"] = (3, 3, neck + plan[2], neck)
    layout["neck.p3.conv.b"] = (neck,)

    # pooling map: semantic source is the map one level above pool_stride
    semantic_c = neck if cfg.pool_stride * 2 in (4, 8) else plan[4]
    layout["neck.pool.deconv.w"] = (2, 2, semantic_c, cfg.pool_channels)
    layout["neck.pool.deconv.b"] = (cfg.pool_channels,)
    vol_c = volume_channels(cfg)
    concat = cfg.pool_channels
    for s in cfg.bottom_up_strides:
        c = vol_c[s]
        step = 0
        stride = s
        while stride < cfg.pool_stride:
            layout[f"neck.pool.s{s}.down{step}.w"] = (3, 3, c, c)
            layout[f"neck.pool.s{s}.down{step}.b"] = (c,)
            stride *= 2
            step += 1
        concat += c
    layout["neck.pool.conv.w"] = (3, 3, concat, cfg.pool_channels)
    layout["neck.pool.conv.b"] = (cfg.pool_channels,)

    for stride, classes in cfg.level_classes.items():
        prefix = f"rpn.s{stride}"
        layout[f"{prefix}.shared.w"] = (3, 3, neck, cfg.head_channels)
        layout[f"{prefix}.shared.b"] = (cfg.head_channels,)
        layout[f"{prefix}.hm.w"] = (cfg.head_channels, len(classes))
        layout[f"{prefix}.hm.b"] = (len(classes),)
        layout[f"{prefix}.reg.w"] = (cfg.head_channels, 8)
        layout[f"{prefix}.reg.b"] = (8,)
        layout[f"{prefix}.iou.w"] = (cfg.head_channels, 1)
        layout[f"{prefix}.iou.b"] = (1,)

    g = cfg.roi_grid_size
    m1, m2 = cfg.mlp_channels
    layout["rcnn.fc1.w"] = (g * g * cfg.pool_channels, m1)
    layout["rcnn.fc1.b"] = (m1,)
    layout["rcnn.fc2.w"] = (m1, m2)
    layout["rcnn.fc2.b"] = (m2,)
    layout["rcnn.cls.w"] = (m2, 1)
    layout["rcnn.cls.b"] = (1,)
    layout["rcnn.reg.w"] = (m2, 7)
    layout["rcnn.reg.b"] = (7,)
    layout["rcnn.seg.fc1.w"] = (cfg.pool_channels, cfg.seg_hidden)
    layout["rcnn.seg.fc1.b"] = (cfg.seg_hidden,)
    layout["rcnn.seg.fc2.w"] = (cfg.seg_hidden, 1)
    layout["rcnn.seg.fc2.b"] = (1,)
    return layout
