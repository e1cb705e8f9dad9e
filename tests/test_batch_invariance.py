"""Batch invariance on real scenes: a pooled cell's or a refined box's value
depends on its own row alone.

Every row-wise product of the forward pass is a ``grid.gemm_rows`` product
of a fixed row count, so on a crowded near-range scene and a full-range
scene the lazy pooling map's ``at`` equals ``dense()`` bit for bit at the
cells refine samples, whatever order or subset of them is asked for, and
refining a prefix or a permutation of the proposals gives the same bytes
per box as refining them all.
"""

import numpy as np
import pytest

from pillardet.config import config_from_dict
from pillardet.fileio import format_detections
from pillardet.pipeline import DetectionPipeline
from pillardet.rcnn import refine
from pillardet.synth import SceneSpec, generate_scene, scene_seed

NEAR_GRID = {"x_min": -25.6, "x_max": 25.6, "y_min": -25.6, "y_max": 25.6,
             "z_min": -2.0, "z_max": 4.0, "pillar_size": 0.1}
CROWDED = {"counts": {0: 20, 1: 30, 2: 20}, "noise_density": 2.0}
# name -> (config overrides, SceneSpec fields, master seed); scene 0 of each
SCENES = {"crowded_near": ({"grid": NEAR_GRID}, CROWDED, 702),
          "full_range": ({}, {}, 1101)}


class RecordedMap:
    """A pooling map that logs the cells each ``at`` call asks for."""

    def __init__(self, m):
        self.m, self.asked = m, []

    def __getattr__(self, name):
        return getattr(self.m, name)

    def at(self, iy, ix):
        self.asked.append((iy, ix))
        return self.m.at(iy, ix)


@pytest.fixture(scope="module", params=sorted(SCENES))
def scene(request):
    """(pipeline, run result, the cells refine samples, the refined lines)."""
    overrides, fields, seed = SCENES[request.param]
    pipe = DetectionPipeline(config_from_dict(overrides))
    cloud, _ = generate_scene(SceneSpec(seed=scene_seed(seed, 0), **fields),
                              pipe.config.grid)
    result = pipe.run(cloud)
    recorded = RecordedMap(result.pooling_map)
    lines = refine_lines(pipe, result.proposals, recorded)
    (iy, ix), = recorded.asked
    assert len(result.proposals) >= 50 and len(iy) > 2000
    return pipe, result, (iy, ix), lines


def refine_lines(pipe, proposals, m):
    cfg = pipe.config
    return format_detections(refine(proposals, m, cfg.grid, pipe.weights,
                                    cfg.roi_grid_size)).splitlines()


def test_at_equals_dense_at_the_sampled_cells(scene):
    _, result, (iy, ix), _ = scene
    m = result.pooling_map
    assert m.at(iy, ix).tobytes() == m.dense().data[iy, ix].tobytes()


def test_a_permutation_and_a_prefix_of_the_cells_give_the_same_rows(scene):
    _, result, (iy, ix), _ = scene
    m = result.pooling_map
    rows = m.at(iy, ix)
    perm = np.random.default_rng(0).permutation(len(iy))
    assert m.at(iy[perm], ix[perm]).tobytes() == rows[perm].tobytes()
    k = len(iy) // 3
    assert m.at(iy[:k], ix[:k]).tobytes() == rows[:k].tobytes()


def test_refining_a_prefix_gives_the_prefix(scene):
    pipe, result, _, lines = scene
    proposals = result.proposals
    for k in (1, 2, 7, 50, len(proposals)):
        assert refine_lines(pipe, proposals[:k], result.pooling_map) == lines[:k], k


def test_permuting_the_proposals_permutes_the_detections(scene):
    pipe, result, _, lines = scene
    rng = np.random.default_rng(1)
    n = len(result.proposals)
    # all of them, and a third of them picked at random
    for perm in (rng.permutation(n), rng.permutation(n)[:n // 3]):
        permuted = refine_lines(pipe, [result.proposals[i] for i in perm],
                                result.pooling_map)
        assert permuted == [lines[i] for i in perm], len(perm)
