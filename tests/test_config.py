import dataclasses
import json
import re
from pathlib import Path

import pytest

from conftest import ODD_VALUES
from pillardet.config import (ConfigError, PipelineConfig, config_from_dict,
                              load_config, volume_channels, weight_layout)
from pillardet.weights import WeightStore


class TestDefaults:
    def test_reference_operating_point(self):
        cfg = PipelineConfig()
        assert (cfg.grid.x_min, cfg.grid.x_max) == (-75.2, 75.2)
        assert (cfg.grid.z_min, cfg.grid.z_max) == (-2.0, 4.0)
        assert cfg.grid.pillar_size == 0.1
        assert cfg.backbone_channels == (16, 32, 64, 128, 256)
        assert cfg.neck_channels == 128
        assert cfg.pool_stride == 4
        assert cfg.roi_grid_size == 7
        assert cfg.mlp_channels == (256, 256)
        assert cfg.top_k == {0: 200, 1: 150, 2: 150}
        assert cfg.nms_iou == {0: 0.8, 1: 0.55, 2: 0.55}
        assert cfg.eval_iou == {0: 0.7, 1: 0.5, 2: 0.5}
        assert cfg.beta == {0: 0.68, 1: 0.68, 2: 0.68}

    def test_level_assignment_by_class(self):
        cfg = PipelineConfig()
        assert cfg.class_strides == {0: 8, 1: 4, 2: 4}
        assert cfg.level_classes == {4: (1, 2), 8: (0,)}

    def test_pool_bottom_up_defaults_to_pool_stride(self):
        assert PipelineConfig().bottom_up_strides == (4,)


class TestValidation:
    def test_bad_pool_stride_names_field(self):
        with pytest.raises(ConfigError, match="pool_stride"):
            config_from_dict({"pool_stride": 5})

    def test_beta_out_of_range(self):
        with pytest.raises(ConfigError, match="beta"):
            config_from_dict({"beta": {"vehicle": 1.5}})

    def test_zero_nms_threshold_rejected(self):
        with pytest.raises(ConfigError, match="nms_iou"):
            config_from_dict({"nms_iou": {"pedestrian": 0.0}})

    def test_negative_top_k_rejected(self):
        with pytest.raises(ConfigError, match="top_k"):
            config_from_dict({"top_k": {"cyclist": -1}})

    def test_grid_not_divisible_by_sixteen(self):
        with pytest.raises(ConfigError, match="divisible"):
            config_from_dict({"grid": {"x_min": 0.0, "x_max": 0.8,
                                       "y_min": 0.0, "y_max": 0.8,
                                       "pillar_size": 0.1}})

    def test_wrong_channel_plan_length(self):
        with pytest.raises(ConfigError, match="backbone_channels"):
            config_from_dict({"backbone_channels": [16, 32, 64]})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"pillars": 0.1})

    @pytest.mark.parametrize("name", ["sample_size", "pos_iou"])
    def test_removed_sampling_fields_rejected(self, name):
        # refinement sampling takes its cap as an argument and fixes its
        # IoU rule
        with pytest.raises(ConfigError, match=f"unknown .*'{name}'"):
            config_from_dict({name: 1})

    def test_unknown_class_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown class"):
            config_from_dict({"beta": {"truck": 0.5}})

    def test_partial_class_map_merges_with_defaults(self):
        cfg = config_from_dict({"beta": {"vehicle": 0.5}})
        assert cfg.beta == {0: 0.5, 1: 0.68, 2: 0.68}


class TestTypes:
    """Each value is read by its field's declared type."""

    @pytest.mark.parametrize("text, path", ODD_VALUES)
    def test_wrong_type_names_field_path(self, text, path):
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: "):
            config_from_dict(json.loads(text))

    @pytest.mark.parametrize("raw, path", [
        ({"grid": {"x_min": -1e308, "x_max": 1e308}}, "grid"),
        ({"grid": {"pillar_size": 10 ** 400}}, "grid.pillar_size"),
        ({"backbone_channels": [16, 32, None, 128, 256]}, "backbone_channels[2]"),
        ({"pool_bottom_up_strides": 4}, "pool_bottom_up_strides"),
        ({"class_strides": []}, "class_strides"),
    ])
    def test_overflow_and_nesting_name_field_path(self, raw, path):
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: "):
            config_from_dict(raw)

    def test_unknown_grid_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown .*'grid.pillar'"):
            config_from_dict({"grid": {"pillar": 0.1}})

    def test_integers_read_as_floats_and_null_as_default(self):
        cfg = config_from_dict({"grid": {"z_min": -3}, "nms_iou": {"vehicle": 1},
                                "pool_bottom_up_strides": None,
                                "weights_path": None})
        assert type(cfg.grid.z_min) is float and cfg.grid.z_min == -3.0
        assert type(cfg.nms_iou[0]) is float
        assert cfg == dataclasses.replace(
            PipelineConfig(), grid=cfg.grid, nms_iou={0: 1.0, 1: 0.55, 2: 0.55})

    def test_readme_table_lists_every_field(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
        assert listed == [f.name for f in dataclasses.fields(PipelineConfig)]


class TestFiles:
    def test_load_from_file_and_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 17}))
        cfg = load_config(str(path))
        assert cfg.seed == 17 and cfg.neck_channels == 128
        assert load_config(None) == PipelineConfig()

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))


class TestWeightLayout:
    def test_seeded_store_satisfies_layout(self):
        cfg = config_from_dict({"backbone_channels": [4, 4, 8, 8, 16],
                                "neck_channels": 8, "head_channels": 8,
                                "pool_channels": 8, "mlp_channels": [16, 16],
                                "seg_hidden": 4})
        layout = weight_layout(cfg)
        store = WeightStore.seeded(layout, 0)
        store.validate(layout)  # exact names and shapes

    def test_layout_deterministic_given_seed(self):
        cfg = PipelineConfig()
        layout = weight_layout(cfg)
        a = WeightStore.seeded({k: layout[k] for k in list(layout)[:6]}, 1)
        b = WeightStore.seeded({k: layout[k] for k in list(layout)[:6]}, 1)
        for name in a.names():
            assert a.get(name).tobytes() == b.get(name).tobytes()

    def test_volume_channels_by_stride(self):
        cfg = PipelineConfig()
        assert volume_channels(cfg) == {1: 16, 2: 32, 4: 64, 8: 128}

    def test_heads_follow_level_classes(self):
        layout = weight_layout(PipelineConfig())
        assert layout["rpn.s8.hm.w"] == (64, 1)   # vehicle only
        assert layout["rpn.s4.hm.w"] == (64, 2)   # pedestrian + cyclist
        assert layout["rcnn.fc1.w"] == (7 * 7 * 128, 256)
