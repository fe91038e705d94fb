"""Run-config parsing: defaults, strictness, and type checks."""
import json

import numpy as np
import pytest

from instance_embed import (
    ConfigError,
    DEFAULT_EMBEDDING_DIM,
    MetricsConfig,
    default_run_config,
    load_run_config,
    override_seed,
    parse_run_config,
)
from instance_embed.cli import main
from instance_embed.config import MAX_EMBEDDING_DIM, MAX_FIELD_VALUES
from instance_embed.scenes import MAX_CANVAS_SIDE


class TestDefaults:
    def test_empty_document_gives_defaults(self):
        cfg = parse_run_config({})
        assert cfg.scene.width == 64 and cfg.scene.height == 64
        assert cfg.loss.delta_v == 0.5 and cfg.loss.delta_d == 1.5
        assert cfg.loss.alpha == 1.0 and cfg.loss.beta == 1.0 and cfg.loss.gamma == 0.001
        assert cfg.cluster.kappa == 10.0
        assert cfg.embedding_dim == DEFAULT_EMBEDDING_DIM
        assert cfg.metrics.classes == (0,)
        assert cfg.output_dir == ""

    def test_default_run_config_helper(self):
        assert default_run_config() == parse_run_config({})

    def test_partial_section_keeps_other_defaults(self):
        cfg = parse_run_config({"loss": {"delta_v": 0.3}})
        assert cfg.loss.delta_v == 0.3
        assert cfg.loss.delta_d == 1.5


class TestStrictness:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_run_config({"optimiser": {}})
        assert "optimiser" in str(err.value)

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError) as err:
            parse_run_config({"loss": {"delta": 0.5}})
        assert "loss" in str(err.value) and "delta" in str(err.value)

    def test_non_object_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_run_config({"scene": [1, 2]})

    def test_non_object_document_rejected(self):
        with pytest.raises(ConfigError):
            parse_run_config([])


class TestTypes:
    def test_string_for_float_rejected(self):
        with pytest.raises(ConfigError):
            parse_run_config({"loss": {"alpha": "1.0"}})

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(ConfigError):
            parse_run_config({"scene": {"width": True}})

    def test_int_accepted_for_float_field(self):
        cfg = parse_run_config({"loss": {"alpha": 2}})
        assert cfg.loss.alpha == 2

    def test_float_for_int_rejected(self):
        with pytest.raises(ConfigError):
            parse_run_config({"scene": {"width": 64.5}})

    def test_domain_error_carries_section(self):
        with pytest.raises(ConfigError) as err:
            parse_run_config({"scene": {"num_instances": 9}})
        assert "scene" in str(err.value)

    def test_removed_parallel_seeds_key_is_unknown(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_run_config({"cluster": {"parallel_seeds": False}})
        assert "parallel_seeds" in str(err.value)
        p = tmp_path / "run.json"
        p.write_text('{"cluster": {"parallel_seeds": true}}\n')
        assert main(["gen", "--config", str(p), "--out", str(tmp_path / "out")]) == 2


    def test_removed_init_scale_key_is_unknown(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_run_config({"optimizer": {"init_scale": 1.0}})
        assert "init_scale" in str(err.value)
        p = tmp_path / "run.json"
        p.write_text('{"optimizer": {"init_scale": 1.0}}\n')
        assert main(["pipeline", "--config", str(p), "--out", str(tmp_path / "out")]) == 2

class TestEmbeddingDim:
    def test_dim_rides_in_optimizer_section(self):
        cfg = parse_run_config({"optimizer": {"dim": 4, "step_size": 2.0}})
        assert cfg.embedding_dim == 4
        assert cfg.optimizer.step_size == 2.0

    def test_bad_dim_rejected(self):
        with pytest.raises(ConfigError):
            parse_run_config({"optimizer": {"dim": 0}})
        with pytest.raises(ConfigError):
            parse_run_config({"optimizer": {"dim": 2.5}})

    def test_dim_bounded(self, tmp_path, caplog):
        cfg = parse_run_config({"optimizer": {"dim": MAX_EMBEDDING_DIM}})
        assert cfg.embedding_dim == MAX_EMBEDDING_DIM == 256
        with pytest.raises(ConfigError):
            parse_run_config({"optimizer": {"dim": MAX_EMBEDDING_DIM + 1}})
        # 2**40 dimensions would need 16 TiB for the descent's arrays
        p = tmp_path / "run.json"
        p.write_text('{"optimizer": {"dim": 1099511627776}}\n')
        assert main(["pipeline", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "optimizer.dim must be an integer in [1, 256]" in caplog.text
        assert not (tmp_path / "out").exists()


class TestSceneCanvas:
    def test_canvas_bounded(self, tmp_path, caplog):
        cfg = parse_run_config({"scene": {"width": MAX_CANVAS_SIDE, "height": 1}})
        assert cfg.scene.width == MAX_CANVAS_SIDE == 4096
        for side in ("width", "height"):
            with pytest.raises(ConfigError):
                parse_run_config({"scene": {side: MAX_CANVAS_SIDE + 1}})
        # a 10**6 x 10**6 canvas would need 7.28 TiB for one int64 label plane
        p = tmp_path / "run.json"
        p.write_text('{"scene": {"width": 1000000, "height": 1000000}}\n')
        for command in ("gen", "pipeline"):
            out = tmp_path / command
            assert main([command, "--config", str(p), "--out", str(out)]) == 2
            assert not out.exists()
        assert "canvas sides must lie in [1, 4096], got 1000000x1000000" in caplog.text


class TestFieldSize:
    def test_canvas_times_dim_bounded(self, tmp_path, caplog):
        side = {"width": MAX_CANVAS_SIDE, "height": MAX_CANVAS_SIDE}
        cfg = parse_run_config({"scene": side, "optimizer": {"dim": DEFAULT_EMBEDDING_DIM}})
        assert cfg.scene.width * cfg.scene.height * cfg.embedding_dim == MAX_FIELD_VALUES
        with pytest.raises(ConfigError):
            parse_run_config({"scene": side, "optimizer": {"dim": DEFAULT_EMBEDDING_DIM + 1}})
        # each sits within its own bound, but one (4096, 4096, 256) float64
        # array of the descent would take 32 GiB
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"scene": side, "optimizer": {"dim": MAX_EMBEDDING_DIM}}))
        for command in ("gen", "optimize", "pipeline"):
            out = tmp_path / command
            args = [command, "--config", str(p), "--out", str(out)]
            if command == "optimize":
                args += ["--labels", str(tmp_path / "labels.pgm")]
            assert main(args) == 2
            assert not out.exists()
        assert (f"scene.width x scene.height x optimizer.dim must be at most {MAX_FIELD_VALUES}, "
                "got 4096x4096x256") in caplog.text


class TestLoadAndOverride:
    def test_load_from_file(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text('{"scene": {"num_instances": 3}, "output_dir": "out"}\n')
        cfg = load_run_config(p)
        assert cfg.scene.num_instances == 3
        assert cfg.output_dir == "out"

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(tmp_path / "absent.json")

    def test_override_seed_touches_scene_and_optimizer(self):
        cfg = parse_run_config({"scene": {"seed": 1}, "optimizer": {"seed": 2}})
        out = override_seed(cfg, 42)
        assert out.scene.seed == 42
        assert out.optimizer.seed == 42
        # everything else untouched
        assert out.loss == cfg.loss and out.cluster == cfg.cluster

    def test_negative_override_rejected(self):
        with pytest.raises(ConfigError):
            override_seed(default_run_config(), -1)


class TestMetricsConfig:
    def test_classes_coerced_to_ints(self):
        m = MetricsConfig(classes=[0, 1])
        assert m.classes == (0, 1)

    def test_numpy_integer_classes_accepted(self):
        m = MetricsConfig(classes=[np.int64(0), np.int32(2)])
        assert m.classes == (0, 2)
        assert all(type(c) is int for c in m.classes)

    @pytest.mark.parametrize("bad", [[0.7], [True], ["0"], [0, 1.0]])
    def test_non_int_class_entries_rejected(self, bad, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_run_config({"metrics": {"classes": bad}})
        assert "metrics.classes" in str(err.value)
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"metrics": {"classes": bad}}) + "\n")
        assert main(["gen", "--config", str(p), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("bad", [[0.7], [True], ["3"], [0, np.float64(1.0)], [np.bool_(True)]])
    def test_non_int_classes_rejected_by_constructor(self, bad):
        with pytest.raises(ValueError, match="classes"):
            MetricsConfig(classes=bad)

    def test_int_class_entries_accepted(self):
        cfg = parse_run_config({"metrics": {"classes": [0, 3]}})
        assert cfg.metrics.classes == (0, 3)

    def test_empty_classes_rejected(self):
        with pytest.raises(ValueError):
            MetricsConfig(classes=())

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            MetricsConfig(recall_iou_threshold=1.5)
        with pytest.raises(ValueError):
            MetricsConfig(recall_score_threshold=-0.1)
