"""Negative controls: every ``verify`` suite is shown to fail.

``MUTANTS`` maps each suite that ``verify.run_all`` calls to one or more
faults, each patched in from outside through a name the suite calls, so
the shipped suites have no fault-injection option. Each fault must make
its suite return ``passed=False``. An ``ast`` check keeps the table's keys
equal to the suites ``run_all`` calls, so a new suite cannot ship without
a control. A second one keeps the gates fixed: a suite parameter with a
default that no caller in ``src/``, ``tests/`` or ``demos/`` passes must be
a constant in the suite instead, so no caller can loosen a gate without a
diff to the suite.
"""

import ast
import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (half_cell_shifted, halve_iou_bound,
                      raise_sparse_conv_weight)
from pillardet import geometry, pipeline, rcnn, verify
from pillardet.fpn import LateralMap
from pillardet.geometry import iou_3d
from pillardet.pipeline import DetectionPipeline
from pillardet.rcnn import bilinear_sample
from pillardet.weights import WeightStore

ROOT = Path(__file__).resolve().parent.parent
VERIFY = ROOT / "src" / "pillardet" / "verify.py"


def clip_three_edges(monkeypatch):
    """Every rect intersection skips its fourth clipping edge."""
    clip_edge, calls = geometry._clip_edge, itertools.count(1)

    def skipped(poly, n, start, end):
        if next(calls) % 4 == 0:
            return poly, n
        return clip_edge(poly, n, start, end)

    monkeypatch.setattr(geometry, "_clip_edge", skipped)


def _raise_lateral_weight(monkeypatch, channel):
    """``verify.LateralMap`` with conv weight [1, 1, channel(c_up), 0]
    raised by 1e-3, for ``c_up`` upsampled channels: the map's side only."""
    def perturbed(semantic, bottom_up, deconv_w, deconv_b, conv_w, conv_b):
        conv_w = conv_w.copy()
        conv_w[1, 1, channel(deconv_w.shape[3]), 0] += 1e-3
        return LateralMap(semantic, bottom_up, deconv_w, deconv_b, conv_w,
                          conv_b)

    monkeypatch.setattr(verify, "LateralMap", perturbed)


def raise_bottom_up_weight(monkeypatch):
    _raise_lateral_weight(monkeypatch, lambda c_up: c_up)


def raise_upsampled_weight(monkeypatch):
    _raise_lateral_weight(monkeypatch, lambda c_up: 0)


def keep_every_candidate(monkeypatch):
    """``verify.nms_3d`` suppresses nothing: every candidate in score order."""
    monkeypatch.setattr(verify, "nms_3d", lambda dets, thresholds: sorted(
        dets, key=lambda d: -d.rectified_score))


def suppressed_still_suppress(monkeypatch):
    """``verify.nms_3d`` lets a suppressed candidate suppress later ones."""
    def greedy(dets, thresholds):
        order = sorted(dets, key=lambda d: -d.rectified_score)
        kept = []
        for pos, d in enumerate(order):
            earlier = [e.box for e in order[:pos] if e.class_id == d.class_id]
            ious = iou_3d(earlier, [d.box] * len(earlier))
            if not np.any(ious > thresholds[d.class_id]):
                kept.append(d)
        return kept

    monkeypatch.setattr(verify, "nms_3d", greedy)


def reverse_bilinear_weights(monkeypatch):
    """``verify.bilinear_sample`` returns its support weights in reverse
    corner order, so they disagree with the blend it returns."""
    def perturbed(m, spec, pts):
        out, sup = bilinear_sample(m, spec, pts)
        return out, replace(sup, weight=sup.weight[:, ::-1])

    monkeypatch.setattr(verify, "bilinear_sample", perturbed)


def shift_roi_grids(monkeypatch):
    """RoI grid points moved half a cell along each RoI's length."""
    monkeypatch.setattr(rcnn, "roi_grids", half_cell_shifted(rcnn.roi_grids))


def raise_float32_heatmap_bias(monkeypatch):
    """``verify.DetectionPipeline`` with ``rpn.s4.hm.b`` raised by 1e-3 in
    float32 stores only."""
    def perturbed(cfg, store):
        tensors = dict(store.items())
        if tensors["rpn.s4.hm.b"].dtype == np.float32:
            tensors["rpn.s4.hm.b"] = tensors["rpn.s4.hm.b"] + np.float32(1e-3)
        return DetectionPipeline(cfg, WeightStore(tensors))

    monkeypatch.setattr(verify, "DetectionPipeline", perturbed)


def upcast_float32_heads(monkeypatch):
    """``pipeline.rpn_forward`` upcasts its head maps to float64, so the
    float32 run's heads are float64 too."""
    forward = pipeline.rpn_forward

    def upcast(*args, **kwargs):
        return {s: replace(h, heatmap=h.heatmap.astype(np.float64),
                           reg=h.reg.astype(np.float64),
                           iou=h.iou.astype(np.float64))
                for s, h in forward(*args, **kwargs).items()}

    monkeypatch.setattr(pipeline, "rpn_forward", upcast)


# suite -> (fault, the max error it gives or None). The four given errors
# are those of the fault-injection option the suites once had; float32's
# is a float32 run minus a float64 one, so it is held only to the suite's
# own scale, and a head of the wrong dtype reads inf. keep_every_candidate
# failing shows that the NMS suite's candidates do suppress.
MUTANTS = {
    "geometry_suite": [(clip_three_edges, None)],
    "sparse_dense_suite": [
        (raise_sparse_conv_weight, pytest.approx(3.985553242586093e-03, rel=1e-6))],
    "split_lateral_suite": [
        (raise_bottom_up_weight, pytest.approx(3.1597750873739727e-03, rel=1e-6))],
    "pooling_at_cells_suite": [
        (raise_upsampled_weight, pytest.approx(6.94722214921617e-03, rel=1e-6))],
    "nms_suite": [(keep_every_candidate, None),
                  (suppressed_still_suppress, None),
                  (halve_iou_bound, None)],
    "bilinear_suite": [(reverse_bilinear_weights, None)],
    "aux_label_suite": [(shift_roi_grids, None)],
    "float32_suite": [
        (raise_float32_heatmap_bias, pytest.approx(2.497e-04, abs=1e-6)),
        (upcast_float32_heads, np.inf)],
}


@pytest.mark.parametrize("suite, fault, max_error", [
    pytest.param(suite, fault, max_error, id=f"{suite}-{fault.__name__}")
    for suite, faults in MUTANTS.items() for fault, max_error in faults])
def test_fault_fails_its_suite(monkeypatch, suite, fault, max_error):
    fault(monkeypatch)
    result = getattr(verify, suite)()
    assert not result.passed
    if max_error is not None:
        assert result.max_error == max_error


def run_all_suites(source: str) -> list[str]:
    """The names of the functions ``run_all`` calls in ``source``."""
    run_all = next(node for node in ast.parse(source).body
                   if isinstance(node, ast.FunctionDef) and node.name == "run_all")
    return sorted({node.func.id for node in ast.walk(run_all)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)})


def test_every_suite_has_a_fault():
    assert run_all_suites(VERIFY.read_text()) == sorted(MUTANTS)


def test_check_finds_a_planted_suite():
    assert run_all_suites("def a_suite():\n    pass\n"
                          "def run_all():\n"
                          "    return [b_suite(x=1), a_suite()]\n") == [
        "a_suite", "b_suite"]


def unset_suite_parameters(verify_source: str, callers: list[str]) -> list[str]:
    """``suite.param`` of each defaulted parameter of a suite that
    ``run_all`` calls in ``verify_source`` which no call in ``callers``
    passes, by keyword or by position."""
    names = run_all_suites(verify_source)
    suites = {node.name: node.args for node in ast.parse(verify_source).body
              if isinstance(node, ast.FunctionDef) and node.name in names}
    calls = [node for source in callers for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)]
    passed = set()
    for call in calls:
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name in suites:
            params = suites[name].posonlyargs + suites[name].args
            passed.update(f"{name}.{p.arg}" for p in params[:len(call.args)])
            passed.update(f"{name}.{k.arg}" for k in call.keywords)
    unset = []
    for name, args in suites.items():
        params = args.posonlyargs + args.args
        defaulted = params[len(params) - len(args.defaults):] + [
            p for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        unset += [f"{name}.{p.arg}" for p in defaulted
                  if f"{name}.{p.arg}" not in passed]
    return unset


def test_every_suite_parameter_has_a_caller():
    callers = [path.read_text() for folder in ("src", "tests", "demos")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unset_suite_parameters(VERIFY.read_text(), callers) == []


def test_check_finds_a_planted_unset_parameter():
    verify_source = ("def a_suite(rounds=1, seed=2, tolerance=3, *, extra=4):\n"
                     "    pass\n"
                     "def run_all():\n"
                     "    return [a_suite()]\n")
    callers = ["a_suite(10, tolerance=1)\n", "verify.a_suite(extra=5)\n"]
    assert unset_suite_parameters(verify_source, callers) == ["a_suite.seed"]
