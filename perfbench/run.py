#!/usr/bin/env python3
"""Closed-loop benchmark of the instance-embed pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload small-scenes --seed 1 --seconds 40 --trace 0

One client in this process sends the workload's scenes to
`instance_embed.cli.main` one after another, each only after the previous
one has finished. It repeats the whole list (a pass) while the next pass
should still end within --seconds, and always runs at least one. Every
scene's outputs are checked. With --trace 0 the last stdout line is a JSON
object holding the end-to-end metrics; with --trace 1 the benchmark runs one
untraced pass and two traced passes of the same scenes and reports the
per-layer metrics instead. Run outputs go to .bench_runs/ in the checkout.
See perfbench/README.md for the workloads and what each metric predicts.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from envinfo import environment, tree_sha256
from stats import median
from tracing import Tracer, instrument
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".bench_runs"
DIGESTS = RUNS / "digests.json"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "scene_s_p50": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "map50": "ratio",
    "success_ratio": "ratio",
}

PER_LAYER = {
    "optimize.optimize_embeddings.s": "s",
    "optimize.step_ms": "ms",
    "optimize.steps": "count",
    "optimize.early_stops": "count",
    "optimize.normalize_field.s": "s",
    "losses.loss_ms": "ms",
    "losses.grad_ms": "ms",
    "clustering.mean_shift_modes.s": "s",
    "clustering.mean_shift_modes.peak_mb": "MB",
    "clustering.seeds": "count",
    "clustering.dropped_seeds": "count",
    "clustering.modes": "count",
    "clustering.seeds_per_mode": "ratio",
    "clustering.assign_to_modes.s": "s",
    "clustering.dissolved_modes": "count",
    "clustering.flatten_foreground.s": "s",
    "fileio.write.s": "s",
    "fileio.write.bytes": "bytes",
    "fileio.read.s": "s",
    "fileio.read.bytes": "bytes",
    "scenes.gen_scene.s": "s",
    "metrics.s": "s",
    "config.load_run_config.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Counts a traced pass must repeat exactly in the next one.
EXACT_COUNTS = (
    "optimize.steps", "optimize.early_stops", "clustering.seeds",
    "clustering.dropped_seeds", "clustering.modes", "clustering.dissolved_modes",
    "fileio.write.bytes", "fileio.read.bytes",
)

SETUP_PROBES = 5
LOSS_PROBE_CALLS = 11
# No pass starts once the run could no longer finish well inside 180 s.
PASS_DEADLINE_S = 120.0


def load_package():
    """Import instance_embed from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import instance_embed.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"instance_embed imported from {cli.__file__}, not from {src}")
    return cli


def setup(workload: str, seed: int, cfg_dir: Path):
    """Import the program, write the workload's configs and parse each."""
    cli = load_package()
    from instance_embed.config import load_run_config

    jobs = WORKLOADS[workload](seed)
    cfg_dir.mkdir(parents=True, exist_ok=True)
    cfg_paths = []
    for job in jobs:
        path = cfg_dir / f"{job.key}.json"
        path.write_text(json.dumps(job.config, sort_keys=True))
        load_run_config(str(path))
        cfg_paths.append(str(path))
    return cli, jobs, cfg_paths


def measure_setup(workload: str, seed: int, run_dir: Path) -> float:
    """Median wall time of fresh interpreters doing the whole set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed),
            "--probe-dir", str(run_dir / "probe")]
    walls = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    return median(walls)


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


@dataclass
class SceneResult:
    key: str
    seconds: float
    error: str  # empty when every check passed
    map50: float


class Runner:
    """Runs passes over one workload's jobs and checks every scene."""

    def __init__(self, cli, workload, seed, jobs, cfg_paths, run_dir, known_digests):
        self.cli = cli
        self.jobs = jobs
        self.cfg_paths = cfg_paths
        self.run_dir = run_dir
        self.prefix = f"{workload}/{seed}/"
        # job key -> digest of its --out tree from an earlier pass or an
        # earlier invocation on the same source tree
        self.digests = {k[len(self.prefix):]: v for k, v in known_digests.items()
                        if k.startswith(self.prefix)}
        self.passes = 0

    def call(self, argv, tracer):
        try:
            if tracer is None:
                return self.cli.main(argv)
            with tracer.span("cli." + argv[0]):
                return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:  # a crash fails the scene, not the benchmark
            traceback.print_exc()
            return "exception"

    def run_job(self, job, cfg, out: Path, tracer):
        for argv in job.commands(cfg, str(out)):
            rc = self.call(argv, tracer)
            if rc != 0:
                return f"{argv[0]} exited {rc}"
        return ""

    def check(self, job, out: Path):
        missing = [f for f in job.expected_files if not (out / f).is_file()]
        if missing:
            return f"missing {', '.join(missing)}", 0.0
        try:
            report = json.loads((out / job.metrics_file).read_text())
            map50 = float(report["instance_segmentation"]["map50"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"metrics.json unreadable: {exc}", 0.0
        digest = tree_sha256(out)
        ref = self.digests.setdefault(job.key, digest)
        if digest != ref:
            return "--out tree differs from an earlier run of the same scene", map50
        return "", map50

    def run_pass(self, tracer=None):
        """One closed-loop pass; returns (wall seconds, cpu seconds, scenes)."""
        pass_dir = self.run_dir / f"pass{self.passes}"
        self.passes += 1
        scenes = []
        cpu0 = cpu_seconds()
        t_pass = time.perf_counter()
        for job, cfg in zip(self.jobs, self.cfg_paths):
            out = pass_dir / job.key
            t0 = time.perf_counter()
            if tracer is None:
                error = self.run_job(job, cfg, out, None)
            else:
                tracer.scene = job.key
                with tracer.span("bench.scene"):
                    error = self.run_job(job, cfg, out, tracer)
            seconds = time.perf_counter() - t0
            map50 = 0.0
            if not error:
                error, map50 = self.check(job, out)
            if error:
                print(f"perfbench: scene {job.key} failed: {error}", file=sys.stderr)
            scenes.append(SceneResult(job.key, seconds, error, map50))
        wall = time.perf_counter() - t_pass
        return wall, cpu_seconds() - cpu0, scenes

    def stored_digests(self) -> dict:
        return {self.prefix + k: v for k, v in self.digests.items()}


def warm_up(cli, run_dir: Path) -> None:
    """One small untimed pipeline so lazy imports and BLAS threads start first."""
    cfg = run_dir / "warmup.json"
    cfg.write_text(json.dumps({
        "scene": {"num_instances": 2},
        "optimizer": {"max_steps": 100},
        "cluster": {"seed_stride": 5, "merge_tolerance": 1.65},
    }))
    cli.main(["pipeline", "--config", str(cfg), "--out", str(run_dir / "warmup")])


def timed_run(runner: Runner, seconds: int, setup_s: float):
    walls, cpus, scenes = [], [], []
    t_start = time.perf_counter()
    while True:
        wall, cpu, pass_scenes = runner.run_pass()
        walls.append(wall)
        cpus.append(cpu)
        scenes += pass_scenes
        # Start another pass only if it should end within --seconds, so the
        # number of passes, and the run's length, stay the same across runs.
        finish = time.perf_counter() - t_start + median(walls)
        if finish > min(seconds, PASS_DEADLINE_S):
            break
    ok = sum(1 for s in scenes if not s.error)
    metrics = {
        "setup_s": setup_s,
        "wall_s": median(walls),
        "scene_s_p50": median([s.seconds for s in scenes]),
        "cpu_s": median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "map50": statistics.fmean(s.map50 for s in scenes),
        "success_ratio": ok / len(scenes),
    }
    return metrics, scenes, []


def layer_metrics(tracer: Tracer, peak_bytes: int) -> dict:
    st = tracer.self_time_by_name()

    def total(prefix):
        return sum(v for name, v in st.items() if name.startswith(prefix))

    c = tracer.counts
    opt_s = st["optimize.optimize_embeddings"]
    return {
        "optimize.optimize_embeddings.s": opt_s,
        "optimize.step_ms": 1000.0 * opt_s / c["optimize.steps"] if c["optimize.steps"] else 0.0,
        "optimize.normalize_field.s": st["optimize.normalize_field"],
        "clustering.mean_shift_modes.s": st["clustering.mean_shift_modes"],
        "clustering.mean_shift_modes.peak_mb": peak_bytes / 2**20,
        "clustering.seeds_per_mode": (
            c["clustering.seeds"] / c["clustering.modes"] if c["clustering.modes"] else 0.0
        ),
        "clustering.assign_to_modes.s": st["clustering.assign_to_modes"],
        "clustering.flatten_foreground.s": st["clustering.flatten_foreground"],
        "fileio.write.s": total("fileio.write_"),
        "fileio.read.s": total("fileio.read_"),
        "scenes.gen_scene.s": st["scenes.gen_scene"],
        "metrics.s": total("metrics."),
        "config.load_run_config.s": st["config.load_run_config"],
        "cli.self_s": total("cli."),
        **{name: c[name] for name in EXACT_COUNTS},
    }


def losses_probe(fields) -> dict:
    """Median time of the public loss and gradient on each final field."""
    from instance_embed.losses import discriminative_grad, discriminative_loss

    per_scene = {"losses.loss_ms": [], "losses.grad_ms": []}
    for labels, final, loss_cfg in fields:
        for name, fn in (("losses.loss_ms", discriminative_loss),
                         ("losses.grad_ms", discriminative_grad)):
            calls = []
            for _ in range(LOSS_PROBE_CALLS):
                t0 = time.perf_counter()
                fn(final, labels, loss_cfg)
                calls.append(1000.0 * (time.perf_counter() - t0))
            per_scene[name].append(median(calls))
    return {name: median(v) if v else 0.0 for name, v in per_scene.items()}


def traced_run(runner: Runner, run_dir: Path):
    """One untraced pass, then two traced passes of the same scenes."""
    untraced_wall, _, scenes = runner.run_pass()
    walls, per_pass, flags = [], [], []
    probe = {}
    for k in (1, 2):
        tracer = Tracer()
        with instrument(tracer) as inst:
            wall, _, pass_scenes = runner.run_pass(tracer)
        tracer.dump(run_dir / f"spans-pass{k}.json")
        walls.append(wall)
        scenes += pass_scenes
        per_pass.append(layer_metrics(tracer, inst.peak_bytes))
        if k == 1:
            probe = losses_probe(inst.fields)
    first, second = per_pass
    for name in EXACT_COUNTS:
        if first[name] != second[name]:
            flags.append(f"{name}: {first[name]} then {second[name]}")
            print(f"perfbench: count {flags[-1]} does not repeat", file=sys.stderr)
    metrics = {}
    for name in first:
        exact = name in EXACT_COUNTS or name == "clustering.seeds_per_mode"
        metrics[name] = first[name] if exact else median([first[name], second[name]])
    metrics.update(probe)
    metrics["trace.overhead_s"] = median(walls) - untraced_wall
    return metrics, scenes, flags


def read_digests(src_sha: str) -> dict:
    try:
        return json.loads(DIGESTS.read_text()).get(src_sha, {})
    except (OSError, ValueError):
        return {}


def write_digests(src_sha: str, digests: dict) -> None:
    try:
        doc = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        doc = {}
    doc.setdefault(src_sha, {}).update(digests)
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True, indent=1))
    os.replace(tmp, DIGESTS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["INSTANCE_EMBED_LOG"] = "error"
    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.probe_dir))
        return 0

    run_dir = RUNS / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        cli, jobs, cfg_paths = setup(args.workload, args.seed, run_dir / "configs")
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    env = environment(ROOT, [job.config["scene"]["seed"] for job in jobs])
    setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed, run_dir)
    warm_up(cli, run_dir)

    runner = Runner(cli, args.workload, args.seed, jobs, cfg_paths, run_dir,
                    read_digests(env["src_sha256"]))
    if args.trace:
        metrics, scenes, flags = traced_run(runner, run_dir)
        units = PER_LAYER
    else:
        metrics, scenes, flags = timed_run(runner, args.seconds, setup_s)
        units = END_TO_END
    write_digests(env["src_sha256"], runner.stored_digests())

    failed = sum(1 for s in scenes if s.error)
    result = {
        "correct": failed == 0 and not flags,
        "attempted": len(scenes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (run_dir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": runner.passes, "env": env, "flags": flags,
        "scenes": [vars(s) for s in scenes], "result": result,
    }, indent=1, sort_keys=True))
    for pass_dir in run_dir.glob("pass*"):
        if pass_dir.name != "pass0":
            shutil.rmtree(pass_dir)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{runner.passes} passes, {len(scenes)} scenes, {failed} failed")
    for name, unit in units.items():
        print(f"  {name:38s} {metrics[name]:.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
