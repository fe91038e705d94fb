"""Self-tests of the benchmark harness: arithmetic, tracing and metric names.

    python3 -m pytest perfbench/test_harness.py
"""
import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from stats import median, percentile, quartile_spread  # noqa: E402
from tracing import Span, Tracer, covered_length, instrument, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TestPercentile:
    def test_interpolates_between_neighbours(self):
        assert percentile([1, 2, 3, 4], 25) == pytest.approx(1.75)
        assert percentile([10, 0, 20], 75) == pytest.approx(15.0)

    def test_ends_are_min_and_max(self):
        xs = [5.0, -1.0, 3.5, 9.25]
        assert percentile(xs, 0) == -1.0
        assert percentile(xs, 100) == 9.25

    @pytest.mark.parametrize("xs", [[3.0], [2.0, 8.0], [7, 1, 4], [0.5, 0.25, 4.0, 1.0, 9.0, 2.0]])
    def test_p50_is_the_median(self, xs):
        assert median(xs) == pytest.approx(statistics.median(xs))

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestQuartileSpread:
    def test_matches_statistics_quantiles(self):
        xs = [10.0, 11.0, 9.5, 10.4, 12.0, 10.1, 9.9, 10.8, 11.5, 10.2]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        assert quartile_spread(xs) == pytest.approx((q3 - q1) / statistics.median(xs))

    def test_constant_values_have_no_spread(self):
        assert quartile_spread([4.0] * 10) == 0.0
        assert quartile_spread([0.0] * 10) == 0.0


class TestSelfTime:
    def test_covered_length_merges_overlaps_and_clips(self):
        assert covered_length([], 0.0, 5.0) == 0.0
        assert covered_length([(1, 2), (1.5, 3), (4, 9)], 0.0, 5.0) == pytest.approx(3.0)
        assert covered_length([(2, 3), (2.2, 2.8)], 0.0, 10.0) == pytest.approx(1.0)

    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            Span("scene", 0.0, 10.0, -1, "a"),
            Span("cli", 1.0, 9.0, 0, "a"),
            Span("opt", 2.0, 5.0, 1, "a"),
            Span("io", 4.0, 4.5, 2, "a"),
            Span("ms", 5.0, 8.0, 1, "a"),
        ]
        assert self_times(spans) == pytest.approx([2.0, 2.0, 2.5, 0.5, 3.0])

    def test_tracer_nests_and_sums_by_name(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
            with tr.span("inner"):
                pass
        assert [s.parent for s in tr.spans] == [-1, 0, 0]
        by_name = tr.self_time_by_name()
        total = tr.spans[0].end - tr.spans[0].start
        assert by_name["outer"] + by_name["inner"] == pytest.approx(total)


class TestInstrument:
    def test_spans_counts_and_restore(self, tmp_path):
        run.load_package()
        import instance_embed.cli as cli
        import instance_embed.scenes as scenes
        from instance_embed import fileio
        from instance_embed.scenes import SceneConfig

        originals = (scenes.gen_scene, cli.gen_scene, fileio.write_labels, fileio.write_pgm)
        tracer = Tracer()
        with instrument(tracer):
            scene = cli.gen_scene(SceneConfig())
            fileio.write_labels(tmp_path / "l.pgm", scene.labels)
        names = [s.name for s in tracer.spans]
        assert names == ["scenes.gen_scene", "fileio.write_labels", "fileio.write_pgm"]
        # nested writes count the file once
        assert tracer.counts["fileio.write.bytes"] == (tmp_path / "l.pgm").stat().st_size
        assert (scenes.gen_scene, cli.gen_scene, fileio.write_labels, fileio.write_pgm) == originals


class FakeRunner:
    def run_pass(self, tracer=None):
        return 2.0, 3.0, [run.SceneResult("s00", 1.0, "", 1.0), run.SceneResult("s01", 1.0, "", 0.5)]


class TestMetricNames:
    def test_end_to_end_names_and_units_match_benchmark_json(self):
        assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

    def test_per_layer_names_and_units_match_benchmark_json(self):
        assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    def test_timed_run_emits_every_end_to_end_metric(self):
        metrics, scenes, flags = run.timed_run(FakeRunner(), 1, 0.25)
        assert set(metrics) == set(run.END_TO_END)
        assert metrics["map50"] == 0.75 and metrics["success_ratio"] == 1.0
        assert not flags and len(scenes) == 2

    def test_traced_metrics_cover_every_per_layer_metric(self):
        names = set(run.layer_metrics(Tracer(), 0)) | set(run.losses_probe([]))
        assert names | {"trace.overhead_s"} == set(run.PER_LAYER)

    def test_workload_names_match_benchmark_json(self):
        assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
