"""Command-line behavior: files written, exit codes, reproducibility."""
import json
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from instance_embed import (
    Detection, DetectionSet, EmbeddingField, cluster_field, fileio, load_run_config,
)
from instance_embed.cli import build_parser, main


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

    def test_trace_records_stop_reason_and_grad_norm(self, tmp_path):
        scene = self._gen(tmp_path)
        runs = {"capped": {"max_steps": 5}, "tolerant": {"loss_tolerance": 1e-3}}
        docs = {}
        for name, opt in runs.items():
            cfg = _write_config(tmp_path, {"optimizer": opt}, name=f"{name}.json")
            out = tmp_path / name
            assert main(["optimize", "--labels", str(scene / "labels.pgm"),
                         "--config", cfg, "--out", str(out)]) == 0
            docs[name] = json.loads((out / "trace.json").read_text())
        assert set(docs["capped"]) == {
            "steps_taken", "pixel_steps", "stop_reason", "final_grad_norm", "entries",
        }
        assert docs["capped"]["pixel_steps"] == 5
        assert 0 < docs["tolerant"]["pixel_steps"] < docs["tolerant"]["steps_taken"]
        assert docs["capped"]["stop_reason"] == "max_steps"
        assert docs["tolerant"]["stop_reason"] == "loss_tolerance"
        assert docs["tolerant"]["steps_taken"] < 600
        for doc in docs.values():
            assert isinstance(doc["final_grad_norm"], float) and doc["final_grad_norm"] > 0.0

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
        cfg = _write_config(tmp_path, {"optimizer": {"step_size": 1e300, "max_steps": 600}})
        rc = main(["optimize", "--labels", str(scene / "labels.pgm"),
                   "--config", cfg, "--out", str(tmp_path / "opt")])
        assert rc == 4

    def test_background_only_labels_exit_5(self, tmp_path):
        from instance_embed import LabelMap

        p = tmp_path / "empty.pgm"
        fileio.write_labels(p, LabelMap(np.zeros((8, 8), dtype=np.int64)))
        rc = main(["optimize", "--labels", str(p), "--out", str(tmp_path / "opt")])
        assert rc == 5

    def test_label_above_maxval_exits_2(self, tmp_path):
        p = tmp_path / "over.pgm"
        p.write_bytes(b"P5\n2 2\n1\n" + bytes([0, 5, 1, 1]))
        rc = main(["optimize", "--labels", str(p), "--out", str(tmp_path / "opt")])
        assert rc == 2

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
            "num_clusters", "modes", "basin_pixels", "dropped_seeds", "unconverged_seeds",
            "capture_groups", "unconfirmed_groups", "capture_sweeps", "merged_captures",
            "passes", "row_updates",
        }
        assert doc["num_clusters"] == len(doc["modes"]) == len(doc["basin_pixels"])
        assert 1 <= doc["passes"] <= doc["row_updates"]
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

    def test_out_independent_of_blas_threads_at_4133_points(self, tmp_path):
        from instance_embed import BinaryMask

        # 4133 mask pixels at stride 5, and 4133 % 32 == 5: OpenBLAS 0.3.31
        # rounds mean shift's products at such a count differently at one
        # and two threads, so only a one-thread search keeps these bytes.
        rng = np.random.default_rng(21)
        centers = 2.0 * rng.standard_normal((3, 8))
        v = centers[rng.integers(0, 3, (70, 64))] + 0.3 * rng.standard_normal((70, 64, 8))
        mask = np.ones(70 * 64, dtype=np.uint8)
        mask[rng.choice(mask.size, 70 * 64 - 4133, replace=False)] = 0
        fileio.write_embf(tmp_path / "emb.embf", v)
        fileio.write_mask(tmp_path / "mask.pgm", BinaryMask(mask.reshape(70, 64)))
        cfg = _write_config(tmp_path, {"cluster": {"seed_stride": 5}})
        for threads in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-m", "instance_embed.cli", "cluster", "--config", cfg,
                 "--embeddings", str(tmp_path / "emb.embf"), "--mask", str(tmp_path / "mask.pgm"),
                 "--out", str(tmp_path / threads)],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert run.returncode == 0, run.stderr
        names = ["instances.pgm", "modes.json", "pred_boxes.json"]
        assert sorted(p.name for p in (tmp_path / "1").iterdir()) == names
        assert json.loads((tmp_path / "1" / "modes.json").read_text())["num_clusters"] == 3
        assert _dir_bytes(tmp_path / "1", names) == _dir_bytes(tmp_path / "2", names)

    @pytest.mark.parametrize("masked, code", [(True, 4), (False, 0)])
    def test_zero_vector_under_mask_exits_4_before_writing(self, tmp_path, masked, code):
        from instance_embed import BinaryMask

        v = np.zeros((8, 8, 3))
        v[:4] = [1.0, 0.2, 0.0]
        v[4:] = [0.0, 0.2, 1.0]
        v[2, 5] = 0.0
        mask = np.ones((8, 8), dtype=np.uint8)
        mask[2, 5] = masked
        fileio.write_embf(tmp_path / "emb.embf", v)
        fileio.write_mask(tmp_path / "mask.pgm", BinaryMask(mask))
        out = tmp_path / "clu"
        rc = main(["cluster", "--embeddings", str(tmp_path / "emb.embf"),
                   "--mask", str(tmp_path / "mask.pgm"), "--out", str(out)])
        assert rc == code
        if masked:
            assert list(out.iterdir()) == []
        else:
            assert fileio.read_labels(out / "instances.pgm").values[2, 5] == 0


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

    def test_non_integer_class_id_exits_2(self, tmp_path, caplog):
        scene = tmp_path / "scene"
        main(["gen", "--out", str(scene), "--seed", "1"])
        preds = tmp_path / "preds.json"
        preds.write_text(json.dumps(
            [{"image_id": 0, "detections": [{"box": [0, 0, 4, 4], "class_id": 0.7, "score": 1.0}]}]
        ))
        rc = main(["eval", "--pred-boxes", str(preds), "--gt-boxes", str(scene / "boxes.json"),
                   "--out", str(tmp_path / "ev")])
        assert rc == 2
        assert f"{preds}: detection set 0 is malformed" in caplog.text

    def test_huge_box_coordinate_exits_2(self, tmp_path, caplog):
        scene = tmp_path / "scene"
        main(["gen", "--out", str(scene), "--seed", "1"])
        preds = tmp_path / "preds.json"
        preds.write_text(json.dumps(
            [{"image_id": 0, "detections": [
                {"box": [0, 0, 4, int("9" * 400)], "class_id": 0, "score": 1.0}]}]
        ))
        rc = main(["eval", "--pred-boxes", str(preds), "--gt-boxes", str(scene / "boxes.json"),
                   "--out", str(tmp_path / "ev")])
        assert rc == 2
        assert f"{preds}: detection set 0 is malformed" in caplog.text

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

    def test_single_instance_default_config_finds_one_cluster(self, tmp_path):
        # One instance leaves its mean near the origin. Without the lift its
        # directions cover the whole sphere and mean shift finds dozens of
        # clusters.
        cfg = _write_config(tmp_path, {"scene": {"num_instances": 1}})
        out = tmp_path / "run"
        assert main(["pipeline", "--config", cfg, "--seed", "11", "--out", str(out)]) == 0
        modes = json.loads((out / "modes.json").read_text())
        assert modes["num_clusters"] == 1
        assert len(modes["modes"][0]) == 9  # dim 8 plus the lift
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["instance_segmentation"]["map50"] == 1.0

    def test_instances_are_the_cluster_result_map(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
        run_cfg = load_run_config(cfg)
        mask = fileio.read_mask(out / "drivable.pgm")
        result, _ = cluster_field(
            EmbeddingField(fileio.read_embf(out / "embeddings.embf")), mask,
            run_cfg.cluster, run_cfg.loss.delta_v,
        )
        assert result.num_clusters == 2
        np.testing.assert_array_equal(
            fileio.read_labels(out / "instances.pgm").values, result.instances.values
        )
        (boxes,) = fileio.read_boxes(out / "pred_boxes.json")
        basin = result.basin_pixels
        assert [d.score for d in boxes.detections] == [float(b) / basin.max() for b in basin]

    def test_no_cluster_kept_warns_once(self, tmp_path, monkeypatch, caplog):
        # the default scene's two modes each own fewer than 100000 pixels
        cfg = _write_config(tmp_path, {"cluster": {"min_cluster_pixels": 100000}})
        for level in ("error", "info"):
            monkeypatch.setenv("INSTANCE_EMBED_LOG", level)
            assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / level)]) == 0
        names = sorted(p.name for p in (tmp_path / "error").iterdir())
        assert _dir_bytes(tmp_path / "error", names) == _dir_bytes(tmp_path / "info", names)
        assert not fileio.read_labels(tmp_path / "info" / "instances.pgm").values.any()
        fg = fileio.read_mask(tmp_path / "info" / "drivable.pgm").count()
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            f"no cluster kept: 2 mean-shift modes, none with at least 100000 pixels; "
            f"{fg} foreground pixels stay unassigned"
        ]
        assert "found 0 clusters" in caplog.text and "2 modes dissolved as runts" in caplog.text

    @pytest.mark.parametrize("seed, clusters", [(106, 1), (177, 2)])
    def test_merge_that_joins_capture_groups_warns_once(
        self, tmp_path, monkeypatch, caplog, seed, clusters
    ):
        # benchmark small-scenes s03 of seeds 106 and 177: capture keeps the
        # four stripes apart, and the angular merge at merge_tolerance 1.65
        # joins them into fewer modes
        s = seed * 1000 + 3
        cfg = _write_config(tmp_path, {
            "scene": {"num_instances": 4, "layout": "parallel_stripes", "seed": s},
            "optimizer": {"max_steps": 300, "loss_tolerance": 1e-3, "seed": s},
            "cluster": {"seed_stride": 5, "merge_tolerance": 1.65},
        })
        for level in ("error", "info"):
            monkeypatch.setenv("INSTANCE_EMBED_LOG", level)
            assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / level)]) == 0
        names = sorted(p.name for p in (tmp_path / "error").iterdir())
        assert _dir_bytes(tmp_path / "error", names) == _dir_bytes(tmp_path / "info", names)
        modes = json.loads((tmp_path / "info" / "modes.json").read_text())
        counts = [modes[k] for k in (
            "num_clusters", "capture_groups", "unconfirmed_groups", "merged_captures")]
        assert counts == [clusters, 4, 0, 4 - clusters]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            f"the mean-shift merge joined {4 - clusters} confirmed capture groups "
            "to another group's mode"
        ]

    @pytest.mark.parametrize("scene", [
        # dense-128: four stripes at 128x128
        {"width": 128, "height": 128, "num_instances": 4, "layout": "parallel_stripes",
         "seed": 1000},
        {"num_instances": 3, "seed": 3},
    ], ids=["dense-128", "three-64"])
    def test_every_clean_instance_is_recalled(self, tmp_path, scene):
        # each box is scored by its pixels over the largest instance's, so on
        # a clean scene no instance falls below recall_score_threshold
        cfg = _write_config(tmp_path, {"scene": scene, "optimizer": {"seed": scene["seed"]}})
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        detection = json.loads((tmp_path / "run" / "metrics.json").read_text())["detection"]
        assert (detection["map_50_95"], detection["recall"]) == (1.0, 1.0)

    @staticmethod
    def _run_in_subprocess(cfg, out, **env):
        run = subprocess.run(
            [sys.executable, "-m", "instance_embed.cli", "pipeline",
             "--config", cfg, "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, **env},
        )
        assert run.returncode == 0, run.stderr
        return run

    def test_info_log_timings_leave_outputs_unchanged(self, tmp_path):
        cfg = self._config(tmp_path)
        runs = {
            level: self._run_in_subprocess(cfg, tmp_path / level, INSTANCE_EMBED_LOG=level)
            for level in ("error", "info")
        }
        names = sorted(p.name for p in (tmp_path / "error").iterdir())
        assert sorted(p.name for p in (tmp_path / "info").iterdir()) == names
        assert _dir_bytes(tmp_path / "error", names) == _dir_bytes(tmp_path / "info", names)
        assert runs["error"].stderr == ""
        assert re.search(
            r"optimized \d+ steps \(\d+ on every pixel\) in [\d.]+ s, final total \S+, "
            r"stop_reason loss_tolerance, final_grad_norm \S+, step 40\n",
            runs["info"].stderr,
        )
        found = re.search(
            r"found (\d+) clusters in [\d.]+ s \((\d+) passes, (\d+) row updates, "
            r"(\d+) modes dissolved as runts\) from (\d+) capture groups "
            r"\((\d+) unconfirmed, (\d+) sweeps\)",
            runs["info"].stderr,
        )
        assert found
        passes, row_updates = int(found[2]), int(found[3])
        assert 1 <= passes <= 100 and row_updates >= passes
        assert int(found[1]) == 2 and int(found[4]) == 0
        modes = json.loads((tmp_path / "error" / "modes.json").read_text())
        capture = [modes[k] for k in ("capture_groups", "unconfirmed_groups", "capture_sweeps")]
        assert [int(found[i]) for i in (5, 6, 7)] == capture
        assert capture[0] >= 1 and capture[2] >= capture[0]
        assert "WARNING" not in runs["info"].stderr  # every seed converged

    def test_unconverged_seeds_warn_on_stderr_only(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "scene": {"num_instances": 2, "seed": 4},
            "optimizer": {"max_steps": 250, "step_size": 40.0, "seed": 4},
            "cluster": {"merge_tolerance": 1.6, "seed_stride": 5, "max_iters": 1},
        })
        runs = {
            level: self._run_in_subprocess(cfg, tmp_path / level, INSTANCE_EMBED_LOG=level)
            for level in ("error", "info")
        }
        names = sorted(p.name for p in (tmp_path / "error").iterdir())
        assert _dir_bytes(tmp_path / "error", names) == _dir_bytes(tmp_path / "info", names)
        assert runs["error"].stderr == ""
        warnings = [ln for ln in runs["info"].stderr.splitlines() if ln.startswith("WARNING")]
        assert len(warnings) == 1
        found = re.fullmatch(
            r"WARNING instance_embed: (\d+) of (\d+) mean-shift seeds \(([\d.]+)%\) "
            r"still moving after 1 passes",
            warnings[0],
        )
        assert found
        unconverged, seeds = int(found[1]), int(found[2])
        modes = json.loads((tmp_path / "error" / "modes.json").read_text())
        fg = fileio.read_mask(tmp_path / "error" / "drivable.pgm").count()
        assert unconverged == modes["unconverged_seeds"] > 0
        assert seeds == -(-fg // 5)
        assert float(found[3]) == pytest.approx(100.0 * unconverged / seeds, abs=0.05)

    @pytest.mark.parametrize("doc", [
        # Stride 1 makes every foreground point a seed, so every seed that
        # no capture group folds is shifted against every point.
        {
            "scene": {"num_instances": 3, "seed": 6},
            "optimizer": {"max_steps": 150, "step_size": 40.0, "seed": 6},
            "cluster": {"merge_tolerance": 1.6, "seed_stride": 1},
        },
        # A final_grad_norm summed by a multi-threaded ddot read
        # 0.0012168394503610897 at one thread and 0.00121683945036109 at two.
        {
            "scene": {"num_instances": 4, "layout": "parallel_stripes", "seed": 1003},
            "optimizer": {"max_steps": 300, "loss_tolerance": 1e-3, "seed": 1003},
            "cluster": {"seed_stride": 5, "merge_tolerance": 1.65},
        },
        # 96x96 at stride 1: 6528 points, which each kernel pass meets in
        # strips of 1024 columns.
        {
            "scene": {"width": 96, "height": 96, "num_instances": 3,
                      "layout": "curved_bands", "seed": 6},
            "optimizer": {"seed": 6},
            "cluster": {"seed_stride": 1},
        },
    ], ids=["stride1", "grad_norm", "stride1_96x96"])
    def test_out_tree_independent_of_blas_threads(self, tmp_path, doc):
        cfg = _write_config(tmp_path, doc)
        for threads in ("1", "2"):
            self._run_in_subprocess(cfg, tmp_path / threads, OPENBLAS_NUM_THREADS=threads)
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert len(names) == 11
        assert _dir_bytes(tmp_path / "1", names) == _dir_bytes(tmp_path / "2", names)

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


class TestParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_calls_share_no_arguments(self, tmp_path):
        # --seed 5 and a rejected argv leave nothing behind in the shared
        # parser: the next call without --seed runs at the config's seed
        cfg = _write_config(tmp_path, {"scene": {"seed": 9}, "optimizer": {"seed": 9}})
        assert main(["gen", "--config", cfg, "--seed", "9", "--out", str(tmp_path / "want")]) == 0
        assert main(["gen", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "five")]) == 0
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--config", cfg, "--seed", "6", "--labels", "x.pgm"])
        assert exc.value.code == 2
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        want = _dir_bytes(tmp_path / "want", GEN_FILES)
        assert _dir_bytes(tmp_path / "five", GEN_FILES) != want
        assert _dir_bytes(tmp_path / "a", GEN_FILES) == want
        assert _dir_bytes(tmp_path / "b", GEN_FILES) == want


class TestErrorPaths:
    def test_bad_json_config_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["gen", "--config", str(p), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen"],
            ["optimize", "--labels", "labels.pgm"],
            ["cluster", "--embeddings", "e.embf", "--mask", "m.pgm"],
            ["eval", "--pred-drivable", "p.pgm", "--gt-drivable", "g.pgm"],
            ["pipeline"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, argv):
        cfg = _write_config(tmp_path, {"loss": {"delta": 1}})
        out = tmp_path / "x"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("loss", "alpha"), ("scene", "width")])
    def test_huge_json_integer_exits_2(self, tmp_path, caplog, section, key):
        cfg = _write_config(tmp_path, {section: {key: int("9" * 400)}})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert f"{section}.{key}: expected" in caplog.text

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
