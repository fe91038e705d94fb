"""Command-line behavior: files written, exit codes, reproducibility."""
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from instance_embed import Detection, DetectionSet, fileio
from instance_embed.cli import main


GEN_FILES = ["boxes.json", "drivable.pgm", "labels.pgm", "lanes.pgm", "scene.json"]


def _write_config(tmp_path, doc, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc) + "\n")
    return str(p)


def _dir_bytes(path, names):
    return {n: (path / n).read_bytes() for n in names}


class TestGen:
    def test_writes_five_files(self, tmp_path):
        out = tmp_path / "scene"
        assert main(["gen", "--out", str(out), "--seed", "3"]) == 0
        assert sorted(p.name for p in out.iterdir()) == GEN_FILES

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--out", str(a), "--seed", "5"]) == 0
        assert main(["gen", "--out", str(b), "--seed", "5"]) == 0
        assert _dir_bytes(a, GEN_FILES) == _dir_bytes(b, GEN_FILES)

    def test_seed_changes_content(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--out", str(a), "--seed", "0"])
        main(["gen", "--out", str(b), "--seed", "1"])
        assert (a / "labels.pgm").read_bytes() != (b / "labels.pgm").read_bytes()

    def test_scene_json_reflects_config(self, tmp_path):
        cfg = _write_config(tmp_path, {"scene": {"num_instances": 3, "layout": "fork"}})
        out = tmp_path / "scene"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "scene.json").read_text())
        assert doc["num_instances"] == 3
        assert doc["layout"] == "fork"

    def test_output_dir_from_config(self, tmp_path):
        out = tmp_path / "from_cfg"
        cfg = _write_config(tmp_path, {"output_dir": str(out)})
        assert main(["gen", "--config", cfg]) == 0
        assert (out / "labels.pgm").exists()

    def test_no_output_dir_is_config_error(self):
        assert main(["gen"]) == 2

    def test_infeasible_scene_is_config_error(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"scene": {"width": 10, "height": 16, "num_instances": 4, "gap_pixels": 5}},
        )
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


class TestOptimize:
    def _gen(self, tmp_path, seed="2"):
        out = tmp_path / "scene"
        main(["gen", "--out", str(out), "--seed", seed])
        return out

    def test_writes_embeddings_and_trace(self, tmp_path):
        scene = self._gen(tmp_path)
        out = tmp_path / "opt"
        cfg = _write_config(tmp_path, {"optimizer": {"max_steps": 5, "step_size": 10.0}})
        rc = main(["optimize", "--labels", str(scene / "labels.pgm"),
                   "--config", cfg, "--out", str(out)])
        assert rc == 0
        emb = fileio.read_embf(out / "embeddings.embf")
        assert emb.shape == (64, 64, 8)
        doc = json.loads((out / "trace.json").read_text())
        assert doc["steps_taken"] == 5
        assert len(doc["entries"]) == 6  # initial evaluation plus five steps
        assert set(doc["entries"][0]) == {"l_var", "l_dist", "l_reg", "total"}

    def test_dim_override(self, tmp_path):
        scene = self._gen(tmp_path)
        cfg = _write_config(tmp_path, {"optimizer": {"dim": 3, "max_steps": 1}})
        out = tmp_path / "opt"
        main(["optimize", "--labels", str(scene / "labels.pgm"),
              "--config", cfg, "--out", str(out)])
        assert fileio.read_embf(out / "embeddings.embf").shape == (64, 64, 3)

    def test_zero_steps_round_trips_initialization(self, tmp_path):
        scene = self._gen(tmp_path)
        cfg = _write_config(tmp_path, {"optimizer": {"max_steps": 0, "seed": 9}})
        out = tmp_path / "opt"
        assert main(["optimize", "--labels", str(scene / "labels.pgm"),
                     "--config", cfg, "--out", str(out)]) == 0
        got = fileio.read_embf(out / "embeddings.embf")
        want = np.random.default_rng(9).uniform(-1.0, 1.0, size=(64, 64, 8))
        np.testing.assert_array_equal(got, want.astype(np.float32).astype(np.float64))

    def test_divergent_step_size_exits_4(self, tmp_path):
        scene = self._gen(tmp_path)
        cfg = _write_config(tmp_path, {"optimizer": {"step_size": 1e6, "max_steps": 600}})
        rc = main(["optimize", "--labels", str(scene / "labels.pgm"),
                   "--config", cfg, "--out", str(tmp_path / "opt")])
        assert rc == 4

    def test_background_only_labels_exit_5(self, tmp_path):
        from instance_embed import LabelMap

        p = tmp_path / "empty.pgm"
        fileio.write_labels(p, LabelMap(np.zeros((8, 8), dtype=np.int64)))
        rc = main(["optimize", "--labels", str(p), "--out", str(tmp_path / "opt")])
        assert rc == 5

    def test_missing_labels_file_exits_3(self, tmp_path):
        rc = main(["optimize", "--labels", str(tmp_path / "absent.pgm"),
                   "--out", str(tmp_path / "opt")])
        assert rc == 3

    def test_rerun_byte_identical(self, tmp_path):
        scene = self._gen(tmp_path)
        cfg = _write_config(tmp_path, {"optimizer": {"max_steps": 10, "step_size": 20.0}})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["optimize", "--labels", str(scene / "labels.pgm"),
                  "--config", cfg, "--out", str(out)])
            outs.append(_dir_bytes(out, ["embeddings.embf", "trace.json"]))
        assert outs[0] == outs[1]


class TestCluster:
    def _optimized(self, tmp_path):
        scene = tmp_path / "scene"
        main(["gen", "--out", str(scene), "--seed", "2"])
        cfg = _write_config(
            tmp_path, {"optimizer": {"max_steps": 250, "step_size": 40.0}}
        )
        opt = tmp_path / "opt"
        main(["optimize", "--labels", str(scene / "labels.pgm"),
              "--config", cfg, "--out", str(opt)])
        return scene, opt

    def test_writes_instances_and_modes(self, tmp_path):
        scene, opt = self._optimized(tmp_path)
        out = tmp_path / "clu"
        rc = main(["cluster", "--embeddings", str(opt / "embeddings.embf"),
                   "--mask", str(scene / "drivable.pgm"), "--out", str(out)])
        assert rc == 0
        inst = fileio.read_labels(out / "instances.pgm")
        assert inst.values.shape == (64, 64)
        doc = json.loads((out / "modes.json").read_text())
        assert set(doc) == {
            "num_clusters", "modes", "basin_pixels", "dropped_seeds", "unconverged_seeds"
        }
        assert doc["num_clusters"] == len(doc["modes"]) == len(doc["basin_pixels"])
        if doc["num_clusters"]:
            assert np.linalg.norm(doc["modes"][0]) == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_mask_exits_5(self, tmp_path):
        from instance_embed import BinaryMask

        scene, opt = self._optimized(tmp_path)
        zero = tmp_path / "zero.pgm"
        fileio.write_mask(zero, BinaryMask(np.zeros((64, 64), dtype=np.uint8)))
        rc = main(["cluster", "--embeddings", str(opt / "embeddings.embf"),
                   "--mask", str(zero), "--out", str(tmp_path / "clu")])
        assert rc == 5

    def test_mismatched_shapes_exit_2(self, tmp_path):
        from instance_embed import BinaryMask

        scene, opt = self._optimized(tmp_path)
        small = tmp_path / "small.pgm"
        fileio.write_mask(small, BinaryMask(np.ones((8, 8), dtype=np.uint8)))
        rc = main(["cluster", "--embeddings", str(opt / "embeddings.embf"),
                   "--mask", str(small), "--out", str(tmp_path / "clu")])
        assert rc == 2

    def test_too_many_clusters_exit_2_before_writing(self, tmp_path, caplog):
        from instance_embed import BinaryMask

        # A narrow kernel and a tiny merge tolerance leave hundreds of modes
        # on random directions, more than instances.pgm can label.
        field = tmp_path / "field.embf"
        fileio.write_embf(field, np.random.default_rng(0).standard_normal((24, 24, 3)))
        mask = tmp_path / "mask.pgm"
        fileio.write_mask(mask, BinaryMask(np.ones((24, 24), dtype=np.uint8)))
        cfg = _write_config(tmp_path, {"cluster": {
            "kappa": 200.0, "merge_tolerance": 0.001, "max_iters": 5, "min_cluster_pixels": 0,
        }})
        out = tmp_path / "clu"
        rc = main(["cluster", "--embeddings", str(field), "--mask", str(mask),
                   "--config", cfg, "--out", str(out)])
        assert rc == 2
        found = re.search(r"found (\d+) clusters", caplog.text)
        assert found and int(found.group(1)) > 255
        assert "cluster.merge_tolerance" in caplog.text
        assert list(out.iterdir()) == []


class TestEval:
    def test_segmentation_pair(self, tmp_path):
        scene = tmp_path / "scene"
        main(["gen", "--out", str(scene), "--seed", "1"])
        out = tmp_path / "ev"
        rc = main(["eval", "--pred-drivable", str(scene / "drivable.pgm"),
                   "--gt-drivable", str(scene / "drivable.pgm"), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["drivable_segmentation"]["iou"] == 1.0
        assert doc["drivable_segmentation"]["accuracy"] == 1.0

    def test_detection_pair(self, tmp_path):
        scene = tmp_path / "scene"
        main(["gen", "--out", str(scene), "--seed", "1"])
        # score the ground truth itself as a perfect prediction
        sets = fileio.read_boxes(scene / "boxes.json")
        dets = tuple(Detection(d.box, d.class_id, score=1.0) for d in sets[0].detections)
        preds = [DetectionSet(dets, image_id=sets[0].image_id)]
        fileio.write_boxes(tmp_path / "preds.json", preds)
        out = tmp_path / "ev"
        rc = main(["eval", "--pred-boxes", str(tmp_path / "preds.json"),
                   "--gt-boxes", str(scene / "boxes.json"), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["detection"]["map_50_95"] == 1.0
        assert doc["detection"]["recall"] == 1.0

    def test_instance_pair(self, tmp_path):
        scene = tmp_path / "scene"
        main(["gen", "--out", str(scene), "--seed", "1"])
        out = tmp_path / "ev"
        rc = main(["eval", "--pred-instances", str(scene / "labels.pgm"),
                   "--gt-labels", str(scene / "labels.pgm"), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["instance_segmentation"]["map50"] == 1.0

    def test_nothing_to_evaluate_exits_2(self, tmp_path):
        assert main(["eval", "--out", str(tmp_path / "ev")]) == 2

    def test_half_pair_exits_2(self, tmp_path):
        scene = tmp_path / "scene"
        main(["gen", "--out", str(scene), "--seed", "1"])
        rc = main(["eval", "--pred-drivable", str(scene / "drivable.pgm"),
                   "--out", str(tmp_path / "ev")])
        assert rc == 2

    def test_empty_vs_empty_flags(self, tmp_path):
        from instance_embed import BinaryMask

        zero = tmp_path / "zero.pgm"
        fileio.write_mask(zero, BinaryMask(np.zeros((8, 8), dtype=np.uint8)))
        out = tmp_path / "ev"
        rc = main(["eval", "--pred-drivable", str(zero), "--gt-drivable", str(zero),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["drivable_segmentation"]["iou"] == 1.0
        assert "iou_empty_vs_empty" in doc["drivable_segmentation"]["flags"]


class TestTrace:
    def test_zero_offset_trace(self, tmp_path):
        out = tmp_path / "tr"
        rc = main(["trace", "--origin", "5", "5", "--levels", "2", "--out", str(out)])
        assert rc == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "level,y,x"
        assert len(lines) == 1 + 9 + 81

    def test_offset_files_set_level_count(self, tmp_path):
        blob = np.zeros((12, 12, 18))
        fileio.write_embf(tmp_path / "o1.embf", blob)
        fileio.write_embf(tmp_path / "o2.embf", blob)
        out = tmp_path / "tr"
        rc = main(["trace", "--origin", "6", "6",
                   "--offsets", str(tmp_path / "o1.embf"),
                   "--offsets", str(tmp_path / "o2.embf"), "--out", str(out)])
        assert rc == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == 1 + 9 + 81

    def test_wrong_offset_depth_exits_2(self, tmp_path):
        fileio.write_embf(tmp_path / "bad.embf", np.zeros((12, 12, 7)))
        rc = main(["trace", "--origin", "6", "6",
                   "--offsets", str(tmp_path / "bad.embf"),
                   "--out", str(tmp_path / "tr")])
        assert rc == 2

    def test_level_offset_mismatch_exits_2(self, tmp_path):
        fileio.write_embf(tmp_path / "o1.embf", np.zeros((12, 12, 18)))
        rc = main(["trace", "--origin", "6", "6", "--levels", "3",
                   "--offsets", str(tmp_path / "o1.embf"),
                   "--out", str(tmp_path / "tr")])
        assert rc == 2

    def test_strides_parsed(self, tmp_path):
        out = tmp_path / "tr"
        rc = main(["trace", "--origin", "3", "3", "--levels", "2",
                   "--strides", "2,1", "--out", str(out)])
        assert rc == 0
        rc = main(["trace", "--origin", "3", "3", "--levels", "2",
                   "--strides", "2,x", "--out", str(out)])
        assert rc == 2


class TestPipeline:
    def _config(self, tmp_path):
        return _write_config(tmp_path, {
            "scene": {"num_instances": 2, "seed": 4},
            "optimizer": {"max_steps": 250, "step_size": 40.0, "seed": 4},
            "cluster": {"merge_tolerance": 1.6, "seed_stride": 5},
        })

    def test_end_to_end_files(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["pipeline", "--config", self._config(tmp_path), "--out", str(out)])
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(GEN_FILES + [
            "embeddings.embf", "trace.json", "instances.pgm", "modes.json",
            "pred_boxes.json", "metrics.json",
        ])
        doc = json.loads((out / "metrics.json").read_text())
        assert set(doc) == {"drivable_segmentation", "instance_segmentation", "detection"}

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["pipeline", "--config", cfg, "--out", str(a)]) == 0
        assert main(["pipeline", "--config", cfg, "--out", str(b)]) == 0
        names = [p.name for p in a.iterdir()]
        assert _dir_bytes(a, names) == _dir_bytes(b, names)

    def test_staged_commands_write_the_same_bytes(self, tmp_path):
        # The second config dissolves every mode (more pixels per cluster than
        # the foreground holds), so pred_boxes.json holds no box.
        no_clusters = _write_config(tmp_path, {
            "scene": {"num_instances": 2, "seed": 4},
            "optimizer": {"max_steps": 250, "step_size": 40.0, "seed": 4},
            "cluster": {"merge_tolerance": 1.6, "seed_stride": 5,
                        "min_cluster_pixels": 64 * 64 + 1},
        }, name="no_clusters.json")
        for cfg, expect_boxes in ((self._config(tmp_path), True), (no_clusters, False)):
            whole, staged = tmp_path / f"whole{expect_boxes}", tmp_path / f"staged{expect_boxes}"
            assert main(["pipeline", "--config", cfg, "--out", str(whole)]) == 0
            assert main(["gen", "--config", cfg, "--out", str(staged)]) == 0
            assert main(["optimize", "--config", cfg, "--out", str(staged),
                         "--labels", str(staged / "labels.pgm")]) == 0
            assert main(["cluster", "--config", cfg, "--out", str(staged),
                         "--embeddings", str(staged / "embeddings.embf"),
                         "--mask", str(staged / "drivable.pgm")]) == 0
            assert main(["eval", "--config", cfg, "--out", str(staged),
                         "--pred-drivable", str(staged / "instances.pgm"),
                         "--gt-drivable", str(staged / "drivable.pgm"),
                         "--pred-instances", str(staged / "instances.pgm"),
                         "--gt-labels", str(staged / "labels.pgm"),
                         "--pred-boxes", str(staged / "pred_boxes.json"),
                         "--gt-boxes", str(staged / "boxes.json")]) == 0
            names = sorted(p.name for p in whole.iterdir())
            assert len(names) == 11
            assert sorted(p.name for p in staged.iterdir()) == names
            assert _dir_bytes(whole, names) == _dir_bytes(staged, names)
            boxes = fileio.read_boxes(whole / "pred_boxes.json")[0].detections
            num_clusters = json.loads((whole / "modes.json").read_text())["num_clusters"]
            assert len(boxes) == num_clusters
            assert (num_clusters > 0) == expect_boxes


class TestErrorPaths:
    def test_bad_json_config_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["gen", "--config", str(p), "--out", str(tmp_path / "x")]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = _write_config(tmp_path, {"loss": {"delta": 1}})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_unwritable_output_exits_3(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        # a path component that is a regular file cannot become a directory
        rc = main(["gen", "--out", str(blocker / "sub"), "--seed", "0"])
        assert rc == 3

    def test_bad_log_level_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("INSTANCE_EMBED_LOG", "loud")
        rc = main(["gen", "--out", str(tmp_path / "x"), "--seed", "0"])
        assert rc == 2
        assert "INSTANCE_EMBED_LOG" in capsys.readouterr().err

    def test_valid_log_levels_accepted(self, tmp_path, monkeypatch):
        for level in ("error", "info", "debug"):
            monkeypatch.setenv("INSTANCE_EMBED_LOG", level)
            assert main(["gen", "--out", str(tmp_path / level), "--seed", "0"]) == 0

    def test_console_script_installed(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "instance_embed.cli", "gen",
             "--out", str(tmp_path / "sub"), "--seed", "1"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "sub" / "labels.pgm").exists()
