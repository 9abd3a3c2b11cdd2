"""The three workloads: how each sets up, what one round runs, what it checks.

A round is a closed loop of CLI commands run in-process through
`pccorrupt.cli.main`, one after another, each starting when the previous
one returns.  The program's own `--seed` is fixed (PROGRAM_SEED) so that
output fingerprints depend only on the workload seed.
"""

from __future__ import annotations

import hashlib
import io
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pccorrupt import cli, load_cloud, metrics, pipeline
from pccorrupt.severity import MESH_KINDS, CorruptionKind, SeverityTable

import inputs

PROGRAM_SEED = "7"
SEVERITIES = metrics.SEVERITIES
CLOUD_KINDS = tuple(k.value for k in CorruptionKind if k not in MESH_KINDS)
EPSILON = 0.05
# adversarial clouds are stored as float32; |x| <= ~1.3 rounds by < 1e-7
FLOAT32_TOL = 1e-6


@dataclass
class Command:
    label: str
    n: int  # ops: cells for gen, clouds for train / eval / attack
    rc: int
    wall: float
    stdout: str
    stderr: str


@dataclass
class Round:
    commands: list[Command] = field(default_factory=list)
    refusals: int = 0
    fingerprints: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    main_cpu: tuple[float, float] = (0.0, 0.0)  # main thread's user, system CPU s

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.commands)

    @property
    def ops(self) -> int:
        return sum(c.n for c in self.commands)


def command_samples(rounds: list[Round], label: str, rate: bool = True) -> list[float]:
    """Ops per second (or seconds, without rate) of each command named label."""
    return [c.n / c.wall if rate else c.wall
            for r in rounds for c in r.commands if c.label == label]


def run_cli(label: str, argv: list[str], tracer=None, n: int = 0, probe=None) -> Command:
    """One CLI command with its stdout/stderr captured; traced if asked.

    With a probe, the speed probe runs once before the command and samples
    the speed inside it (probe.py).
    """
    out, err = io.StringIO(), io.StringIO()
    if probe is not None:
        probe.run()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            with tracer.span(f"cli.{label}") as span:
                rc = cli.main(argv)
                span.n = n
        elif probe is not None:
            with probe.sampling():
                rc = cli.main(argv)
        else:
            rc = cli.main(argv)
    return Command(label, n, rc, time.perf_counter() - start, out.getvalue(), err.getvalue())


def sha256_file(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# count contracts


REFUSE = "refuse"


def contract_count(n: int, kind: str, severity: int, table: SeverityTable):
    """Point count a cell must have, REFUSE where the op must raise instead.

    Derived from the severity table's parameters and the documented
    count contract of each kind; None for the view-based kinds, whose
    count depends on the geometry.
    """
    p = table.params(CorruptionKind(kind), severity)
    if kind in ("occlusion", "lidar"):
        return None
    if kind in ("local_density_inc", "local_density_dec"):
        per_cluster = int(0.75 * p["cluster_size"])
        if kind == "local_density_inc":
            return n + p["n_clusters"] * per_cluster if p["cluster_size"] <= n else REFUSE
        left = n
        for _ in range(p["n_clusters"]):
            if p["cluster_size"] > left or left - per_cluster < 1:
                return REFUSE
            left -= per_cluster
        return left
    if kind == "cutout":
        left = n
        for _ in range(p["n_clusters"]):
            if p["k"] >= left:
                return REFUSE
            left -= p["k"]
        return left
    if kind == "background":
        return n + p["count"]
    if kind == "upsampling":
        return n + (n * p["count_mul"]) // p["count_div"]
    if kind == "impulse":
        return n if (n // p["count_div"]) * p["count_mul"] <= n else REFUSE
    return n


def check_generated(out: Path, kinds, severities, problems: list[str]) -> int:
    """Check a gen output tree against the count contracts.

    Returns the number of refusals the contracts predict; the manifest's
    failure list must be exactly that set.
    """
    manifest = pipeline.load_manifest(out / pipeline.MANIFEST_NAME)
    problems += pipeline.verify_manifest(manifest, out)
    table = SeverityTable.default()
    refusals = set()
    for sample in manifest.samples:
        sid, n = sample["sample_id"], sample["clean"]["n_points"]
        for kind in kinds:
            for sev in severities:
                want = contract_count(n, kind, sev, table)
                entry = sample["corrupted"].get(kind, {}).get(str(sev))
                if want == REFUSE:
                    refusals.add((sid, kind, sev))
                    if entry is not None:
                        problems.append(f"{sid} {kind} s{sev}: expected a refusal")
                elif entry is None:
                    problems.append(f"{sid} {kind} s{sev}: missing cell")
                elif want is not None and entry["n_points"] != want:
                    problems.append(
                        f"{sid} {kind} s{sev}: {entry['n_points']} points, contract {want}"
                    )
                elif entry["n_points"] < 1:
                    problems.append(f"{sid} {kind} s{sev}: empty cloud")
    failed = {(f["sample"], f["kind"], f["severity"]) for f in manifest.failures}
    if failed != refusals:
        problems.append(
            f"failure set {sorted(failed)} differs from the contract's "
            f"{sorted(refusals)}"
        )
    return len(refusals)


# ---------------------------------------------------------------------------
# workloads


class GenWorkload:
    """`gen` over generated inputs; one gen command per round."""

    def __init__(self, name, kinds, workers, make_inputs, refusals):
        self.name = name
        self.kinds = kinds
        self.workers = workers
        self.make_inputs = make_inputs
        self.refusals = refusals  # cells the count contracts refuse, per round

    def setup(self, work: Path, seed: int) -> list[Command]:
        self.make_inputs(work / "in", seed)
        return []

    def check_setup(self, work: Path, problems: list[str]) -> dict:
        return {}

    def round(self, work: Path, out: Path, tracer=None, probe=None) -> Round:
        n_inputs = len(pipeline.discover_samples(work / "in"))
        cells = n_inputs * len(self.kinds) * len(SEVERITIES)
        argv = [
            "gen", str(work / "in"), str(out),
            "--kinds", ",".join(self.kinds), "--severities", "all",
            "--points", "1024", "--workers", str(self.workers), "--seed", PROGRAM_SEED,
        ]
        # the cells overwrite the last round's; the manifest must be new
        (out / pipeline.MANIFEST_NAME).unlink(missing_ok=True)
        rnd = Round()
        cmd = run_cli("gen", argv, tracer, cells, probe)
        rnd.commands.append(cmd)
        rnd.refusals = check_generated(out, self.kinds, SEVERITIES, rnd.problems)
        if rnd.refusals != self.refusals:
            rnd.problems.append(
                f"{rnd.refusals} cells refused; this workload expects {self.refusals}")
        want_rc = 3 if rnd.refusals else 0
        if cmd.rc != want_rc:
            rnd.problems.append(f"gen exit code {cmd.rc}, expected {want_rc}")
        rnd.fingerprints["manifest_sha256"] = sha256_file(out / pipeline.MANIFEST_NAME)
        rnd.fingerprints["bytes_written"] = sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file()
        )
        return rnd

    def report(self, rounds: list[Round]) -> dict:
        """Workload metric name -> (per-round samples, unit)."""
        return {"gen_cells_per_s": (command_samples(rounds, "gen"), "cells/s")}


class ModelWorkload:
    """train, eval x3, attack and bench on generated labelled clouds."""

    name = "model"
    TRAIN_PER_CLASS = 16
    EVAL_PER_CLASS = 8  # 4 classes x 8 = 32 clouds: one full --adapt-batch
    EVAL_KINDS = ("background", "cutout", "rbf")  # one per family, at s3
    ADAPT_MODES = ("none", "bn", "tent")

    def setup(self, work: Path, seed: int) -> list[Command]:
        def points(_):
            return 1024

        inputs.write_clouds(work / "train_in", seed, 2, self.TRAIN_PER_CLASS, points)
        inputs.write_clouds(work / "eval_in", seed, 3, self.EVAL_PER_CLASS, points)
        # train reads the clean split of a manifest; one cheap cell makes one
        return [
            run_cli("gen", ["gen", str(work / "train_in"), str(work / "train"),
                            "--kinds", "rotation", "--severities", "1",
                            "--seed", PROGRAM_SEED]),
            run_cli("gen", ["gen", str(work / "eval_in"), str(work / "eval"),
                            "--kinds", ",".join(self.EVAL_KINDS), "--severities", "3",
                            "--seed", PROGRAM_SEED]),
        ]

    def check_setup(self, work: Path, problems: list[str]) -> dict:
        for split, kinds, sevs in (("train", ("rotation",), (1,)),
                                   ("eval", self.EVAL_KINDS, (3,))):
            if check_generated(work / split, kinds, sevs, problems):
                problems.append(f"{split} split: unexpected refusals")
        return {"eval_manifest_sha256": sha256_file(work / "eval" / pipeline.MANIFEST_NAME)}

    def round(self, work: Path, out: Path, tracer=None, probe=None) -> Round:
        manifest_path = work / "eval" / pipeline.MANIFEST_NAME
        manifest = pipeline.load_manifest(manifest_path)
        n_eval = len(manifest.samples)
        cells = sorted(pipeline.expected_cells(manifest))
        n_train = len(pipeline.load_manifest(work / "train" / pipeline.MANIFEST_NAME).samples)
        model, adv = out / "model.tpn", out / "adversarial"
        # the results the checks read must be this round's
        shutil.rmtree(adv, ignore_errors=True)
        for name in ("model.tpn", "report.json", *(f"predictions_{m}.csv" for m in self.ADAPT_MODES)):
            (out / name).unlink(missing_ok=True)
        rnd = Round()

        def run(label, argv, n):
            cmd = run_cli(label, argv, tracer, n, probe)
            rnd.commands.append(cmd)
            if cmd.rc != 0:
                rnd.problems.append(f"{label} exit code {cmd.rc}: {cmd.stderr[-300:]}")
            return cmd

        run("train", ["train", str(work / "train" / pipeline.MANIFEST_NAME),
                      "--out", str(model), "--epochs", "1", "--mix", "mixup",
                      "--seed", PROGRAM_SEED], n_train)
        for mode in self.ADAPT_MODES:
            preds = out / f"predictions_{mode}.csv"
            run(f"eval_{mode}", ["eval", str(model), str(manifest_path),
                                 "--out", str(preds), "--adapt", mode], n_eval * len(cells))
        run("attack", ["attack", str(model), str(manifest_path), "--out", str(adv),
                       "--epsilon", str(EPSILON), "--seed", PROGRAM_SEED], n_eval)
        bench = run("bench", ["bench", str(out / "predictions_none.csv"), str(manifest_path),
                              "--out", str(out / "report.json")], 0)
        if rnd.problems:
            return rnd

        if "missing_cell" in bench.stderr or "missing" in bench.stdout:
            rnd.problems.append("bench reports missing cells")
        want_rows = {(s["sample_id"], c, sev) for s in manifest.samples for c, sev in cells}
        rnd.fingerprints["checkpoint_sha256"] = sha256_file(model)
        for mode in self.ADAPT_MODES:
            preds = out / f"predictions_{mode}.csv"
            rows = metrics.ingest_predictions(preds)
            got = {(r.sample_id, r.corruption, r.severity) for r in rows}
            if len(rows) != len(want_rows) or got != want_rows:
                rnd.problems.append(
                    f"eval {mode}: {len(rows)} rows, want one per (sample, cell) "
                    f"= {len(want_rows)}"
                )
            rnd.fingerprints[f"predictions_{mode}_sha256"] = sha256_file(preds)
        eval_root = manifest_path.parent
        for sample in manifest.samples:
            clean = load_cloud(eval_root / sample["clean"]["path"]).points
            path = adv / f"{sample['sample_id']}.ply"
            if not path.is_file():
                rnd.problems.append(f"attack wrote no cloud for {sample['sample_id']}")
                continue
            shifted = load_cloud(path).points
            if shifted.shape != clean.shape or np.abs(shifted - clean).max() > EPSILON + FLOAT32_TOL:
                rnd.problems.append(f"{sample['sample_id']}: adversarial cloud leaves the eps ball")
        return rnd

    def report(self, rounds: list[Round]) -> dict:
        """Workload metric name -> (per-round samples, unit)."""
        return {
            # one epoch per train command
            "train_s_per_epoch": (command_samples(rounds, "train", rate=False), "s"),
            "eval_clouds_per_s": (command_samples(rounds, "eval_none"), "clouds/s"),
            "eval_bn_clouds_per_s": (command_samples(rounds, "eval_bn"), "clouds/s"),
            "eval_tent_clouds_per_s": (command_samples(rounds, "eval_tent"), "clouds/s"),
            "attack_clouds_per_s": (command_samples(rounds, "attack"), "clouds/s"),
        }


WORKLOADS = {
    "gen_mesh": GenWorkload(
        "gen_mesh", tuple(k.value for k in CorruptionKind), 2,
        inputs.write_meshes, refusals=0,
    ),
    "gen_cloud": GenWorkload(
        "gen_cloud", CLOUD_KINDS, 1,
        # 16 clouds, one of them sparse: local_density_dec must refuse it at s4, s5
        lambda root, seed: inputs.write_clouds(root, seed, 1, 4, inputs.scan_points),
        refusals=2,
    ),
    "model": ModelWorkload(),
}
