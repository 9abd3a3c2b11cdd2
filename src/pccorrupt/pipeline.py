"""Dataset generation and benchmark orchestration.

run_generate walks an input directory of meshes or clouds, writes a clean
normalized cloud per sample plus one corrupted cloud per selected
(corruption, severity), each with a provenance sidecar, and finally a
manifest tying everything together with content digests.  Nothing in the
outputs depends on wall-clock time or worker scheduling: every task derives
its randomness from (seed, kind, severity, sample id), so a rerun is
byte-identical no matter how many workers ran it.

prepare_sample is the one way a source file becomes the clean cloud (and,
for a mesh, the normalized mesh) that gen and apply corrupt; apply
--no-normalize takes a cloud through its subsample step alone.  sidecar_json
is the one provenance record, for gen and apply alike: sample id, seed,
kind, severity, params and table digest, which replay the cell exactly.

DatasetManifest.cells() is the one reader of a sample's `clean` /
`corrupted[kind][severity]` layout; verify_manifest and the bench, train,
eval and attack commands all take the manifest's clouds from it.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _cpus, _rng, metrics
from ._version import __version__
from .geometry import (
    PointCloud,
    TriangleMesh,
    normalize_mesh,
    normalize_unit_sphere,
    sample_surface,
)
from .io_formats import (
    CLOUD_SUFFIXES,
    MESH_SUFFIXES,
    load_cloud,
    load_mesh,
    parse_json,
    sha256_tag,
    write_file,
    write_ply,
)
from .augmentation import LabeledCloud
from .corruptions import apply_corruption
from .severity import (
    KIND_NAMES, SEVERITIES, CorruptionKind, CorruptionSpec, MESH_KINDS, SeverityTable,
    check_severity,
)

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
_SEVERITY_KEYS = frozenset(str(s) for s in SEVERITIES)
MIN_POINT_BUDGET = 64


class DataError(ValueError):
    """Input data failed validation (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    input_dir: str
    output_dir: str
    kinds: tuple[str, ...] = KIND_NAMES
    severities: tuple[int, ...] = SEVERITIES
    point_budget: int = 1024
    seed: int = 0
    workers: int = 1
    table: SeverityTable | None = None

    def __post_init__(self):
        for what, chosen in (("kind", self.kinds), ("severity", self.severities)):
            if not chosen:
                raise ValueError(f"{what} selection is empty")
            if len(set(chosen)) < len(chosen):
                raise ValueError(f"{what} selection repeats an entry: {list(chosen)}")
        for name in self.kinds:
            CorruptionKind.from_name(name)  # raises on unknown
        for s in self.severities:
            check_severity(s)
        if self.point_budget < MIN_POINT_BUDGET:
            raise ValueError(f"point budget must be >= {MIN_POINT_BUDGET}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def _write_cloud(path: Path, cloud: PointCloud) -> str:
    """Write `cloud` as binary PLY; returns the digest of the bytes written."""
    data = write_ply(cloud)
    write_file(path, data)
    return sha256_tag(data)


def _cell_dir(kind: str, severity: int) -> Path:
    return Path(kind) / f"s{severity}"


def _check_sample_id(sid: str, where: str) -> None:
    # attack writes <out>/<sample_id>.ply, which must stay inside <out>
    if sid in ("", ".", "..") or "/" in sid or "\\" in sid:
        raise DataError(f"{where}: sample_id {sid!r} is not a plain file name")


def _sample_id(rel: Path) -> str:
    sid = "_".join(rel.with_suffix("").parts)
    _check_sample_id(sid, rel.as_posix())
    return sid


def _class_name(rel: Path) -> str:
    return rel.parts[0] if len(rel.parts) > 1 else "unknown"


def discover_samples(input_dir: str | Path):
    """Sorted (relative path, is_mesh) pairs for every recognized file."""
    root = Path(input_dir)
    if not root.is_dir():
        raise DataError(f"input directory not found: {root}")
    found = []
    for path in sorted(root.rglob("*")):
        if path.suffix.lower() in MESH_SUFFIXES:
            found.append((path.relative_to(root), True))
        elif path.suffix.lower() in CLOUD_SUFFIXES:
            found.append((path.relative_to(root), False))
    if not found:
        raise DataError(f"no mesh or cloud files under {root}")
    return found


@dataclass
class DatasetManifest:
    seed: int
    point_budget: int
    table_digest: str
    samples: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    tool_version: str = __version__
    manifest_version: int = MANIFEST_VERSION

    def to_json(self) -> str:
        payload = {
            "manifest_version": self.manifest_version,
            "tool_version": self.tool_version,
            "seed": self.seed,
            "point_budget": self.point_budget,
            "severity_table_digest": self.table_digest,
            "samples": self.samples,
            "failures": self.failures,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, data: str | bytes) -> "DatasetManifest":
        raw = parse_json(data, "manifest")
        if not isinstance(raw, dict):
            raise DataError("a manifest must be a JSON object")
        if raw.get("manifest_version") != MANIFEST_VERSION:
            raise DataError(
                f"unsupported manifest_version {raw.get('manifest_version')!r}"
            )
        required = {"seed", "point_budget", "severity_table_digest", "samples"}
        missing = sorted(required - raw.keys())
        if missing:
            raise DataError(f"manifest lacks {missing}")
        if not isinstance(raw["samples"], list):
            raise DataError("manifest samples must be a list")
        first_at: dict[str, int] = {}
        for i, sample in enumerate(raw["samples"]):
            _check_sample(i, sample)
            # one sample id, one output file: attack writes <out>/<sample_id>.ply
            j = first_at.setdefault(sample["sample_id"], i)
            if j != i:
                raise DataError(f"manifest samples[{j}] and samples[{i}] share "
                                f"sample_id {sample['sample_id']!r}")
        return cls(
            seed=raw["seed"],
            point_budget=raw["point_budget"],
            table_digest=raw["severity_table_digest"],
            samples=raw["samples"],
            failures=raw.get("failures", []),
            tool_version=raw.get("tool_version", "unknown"),
        )

    def cells(self):
        """(kind, severity, sample, entry) for every cloud the manifest names:
        each sample's clean cloud as (metrics.CLEAN, 0), then its corrupted cells."""
        for sample in self.samples:
            yield metrics.CLEAN, 0, sample, sample["clean"]
            for kind, by_sev in sample["corrupted"].items():
                for sev, entry in by_sev.items():
                    yield kind, int(sev), sample, entry

    def sample_ids(self) -> list[str]:
        return [s["sample_id"] for s in self.samples]

    def class_names(self) -> list[str]:
        return sorted({s["class_name"] for s in self.samples})


def _has_strings(entry, keys) -> bool:
    return isinstance(entry, dict) and all(isinstance(entry.get(k), str) for k in keys)


def _check_sample(i: int, sample) -> None:
    """DataError naming samples[i] unless it has the shape run_generate writes."""
    where = f"manifest samples[{i}]"
    if not _has_strings(sample, ("sample_id", "class_name")):
        raise DataError(f"{where} needs a string sample_id and class_name")
    _check_sample_id(sample["sample_id"], where)
    if not _has_strings(sample.get("clean"), ("path", "sha256")):
        raise DataError(f"{where}: clean needs a string path and sha256")
    corrupted = sample.get("corrupted")
    if not isinstance(corrupted, dict):
        raise DataError(f"{where}: corrupted must be an object")
    for kind, by_sev in corrupted.items():
        if kind not in KIND_NAMES or not isinstance(by_sev, dict):
            raise DataError(f"{where}: corrupted[{kind!r}] must be an object of a known kind")
        for sev, entry in by_sev.items():
            if sev not in _SEVERITY_KEYS or not _has_strings(entry, ("path", "sidecar", "sha256")):
                raise DataError(
                    f"{where}: corrupted[{kind!r}][{sev!r}] needs a severity in "
                    f"{SEVERITIES[0]}..{SEVERITIES[-1]} and a string path, sidecar and sha256"
                )


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"manifest not found: {path}")
    return DatasetManifest.from_json(path.read_bytes())


def verify_manifest(manifest: DatasetManifest, root: str | Path) -> list[str]:
    """Existence + digest check for every file the manifest names, a check
    that each sidecar is a JSON object whose identifying fields agree with
    the manifest, and one `unlisted file` problem per `unlisted_files` path."""
    root = Path(root)
    problems = []
    for kind, sev, sample, entry in manifest.cells():
        sid = sample["sample_id"]
        what = f"{sid} clean" if kind == metrics.CLEAN else f"{sid} {kind} s={sev}"
        path = root / entry["path"]
        if not os.path.isfile(path):
            problems.append(f"{what}: missing file {entry['path']}")
        elif sha256_tag(path.read_bytes()) != entry["sha256"]:
            problems.append(f"{what}: digest mismatch for {entry['path']}")
        if kind == metrics.CLEAN:
            continue
        sidecar = root / entry["sidecar"]
        if not os.path.isfile(sidecar):
            problems.append(f"{what}: missing sidecar")
            continue
        try:
            record = parse_json(sidecar.read_bytes(), entry["sidecar"])
        except ValueError:
            record = None
        if not isinstance(record, dict):
            problems.append(f"{what}: sidecar {entry['sidecar']} is not a JSON object")
            continue
        expected = {"sample_id": sid, "seed": manifest.seed, "kind": kind, "severity": sev,
                    "table_digest": manifest.table_digest}
        stale = sorted(k for k, v in expected.items() if record.get(k) != v)
        if stale:
            problems.append(f"{what}: sidecar {entry['sidecar']} disagrees on {stale}")
    problems += [f"unlisted file {rel}" for rel in unlisted_files(manifest, root)]
    return problems


def unlisted_files(manifest: DatasetManifest, root: str | Path) -> list[str]:
    """Sorted root-relative paths of the files under `clean/` or a
    `<kind>/s<N>/` directory of `root` that no manifest entry names as its
    path or sidecar, such as the cells of an earlier run's other kinds."""
    root = Path(root)
    named = {entry.get(key) for *_, entry in manifest.cells() for key in ("path", "sidecar")}
    found = set()
    for rel_dir in (Path("clean"), *(_cell_dir(k, s) for k in KIND_NAMES for s in SEVERITIES)):
        for top, _, files in os.walk(root / rel_dir):
            rel_top = Path(top).relative_to(root).as_posix()  # not a Path per file: 4x slower
            found.update(f"{rel_top}/{name}" for name in files)
    return sorted(found - named)


def prepare_sample(path: Path, point_budget: int, seed: int, sample_hash: int):
    """(normalized mesh or None, clean cloud) for the mesh or cloud file at `path`.

    A mesh is normalized and `point_budget` points are sampled from its
    surface; a cloud with more points than that keeps a random
    `point_budget` of them.  The cloud is then normalized to the unit
    sphere.  Both draws are keyed by (seed, stage, sample_hash).
    """
    mesh = None
    if path.suffix.lower() in MESH_SUFFIXES:
        mesh = normalize_mesh(load_mesh(path))
        cloud = sample_surface(mesh, point_budget, _rng.mix_keys(seed, 0x73616D70, sample_hash))
    else:
        cloud = subsample(load_cloud(path), point_budget, seed, sample_hash)
    return mesh, normalize_unit_sphere(cloud)


def subsample(cloud: PointCloud, point_budget: int, seed: int, sample_hash: int) -> PointCloud:
    """A random `point_budget` of the cloud's points, kept in file order, if
    it has more; the draw is keyed by (seed, stage, sample_hash)."""
    if cloud.count <= point_budget:
        return cloud
    rng = _rng.stream(seed, 0x73756273, sample_hash)
    keep = np.sort(rng.choice(cloud.count, point_budget, replace=False))
    return PointCloud(cloud.points[keep])


def sidecar_json(sample_id: str, spec: CorruptionSpec, table: SeverityTable,
                 table_digest: str) -> str:
    """The provenance sidecar of one corrupted cloud, as JSON text.

    Its six fields replay the cell: `apply_corruption` on the sample as
    `prepare_sample` gives it, with `CorruptionSpec(kind, severity, seed)`,
    the table whose digest is `table_digest` and
    `sample_key=_rng.hash_sample_id(sample_id)`, gives the same cloud.
    `params` repeats the table's record for the cell for readers without
    the table.  `table_digest` is `table.digest()`, which a caller
    writing many sidecars computes once.
    """
    record = {
        "sample_id": sample_id,
        "seed": spec.seed,
        "kind": spec.kind.value,
        "severity": spec.severity,
        "params": table.params(spec.kind, spec.severity),
        "table_digest": table_digest,
    }
    return json.dumps(record, indent=2, sort_keys=True)


def run_generate(config: RunConfig, log=None) -> DatasetManifest:
    """Generate the corrupted dataset; see the module docstring.

    `log` is an optional callable receiving event dicts.  Per-task failures
    are recorded in the manifest's `failures` list and do not stop the run.
    Files under `config.output_dir` are never inputs, even when it lies
    inside `config.input_dir`.  Every output directory exists before the
    first file is written; a rerun into the same directory overwrites each
    file in place.
    """
    start_s = time.perf_counter()
    log = log or (lambda event: None)
    table = config.table if config.table is not None else SeverityTable.default()
    table_digest = table.digest()
    in_root = Path(config.input_dir)
    out_root = Path(config.output_dir)

    found = discover_samples(in_root)
    in_abs, out_abs = in_root.resolve(), out_root.resolve()
    if out_abs.is_relative_to(in_abs):  # an earlier run's outputs are not inputs
        outputs = out_abs.relative_to(in_abs)
        found = [(rel, is_mesh) for rel, is_mesh in found if not rel.is_relative_to(outputs)]
        if not found:
            raise DataError(f"no mesh or cloud files under {in_root} outside {out_root}")
    mesh_kind_names = {k.value for k in MESH_KINDS}
    selected_mesh_kinds = sorted(set(config.kinds) & mesh_kind_names)
    if selected_mesh_kinds and any(not is_mesh for _, is_mesh in found):
        raise DataError(
            f"corruptions {selected_mesh_kinds} need mesh input, but the input "
            "directory contains point-cloud files"
        )

    prepared = {}  # sample id -> (rel, sample_hash, mesh, cloud)
    failures = []
    for rel, _ in found:
        try:
            sid = _sample_id(rel)
            if sid in prepared:
                raise DataError(f"sample id {sid!r} is taken by {prepared[sid][0].as_posix()}")
            sample_hash = _rng.hash_sample_id(sid)
            mesh, cloud = prepare_sample(in_root / rel, config.point_budget, config.seed,
                                         sample_hash)
            prepared[sid] = (rel, sample_hash, mesh, cloud)
        except Exception as exc:  # noqa: BLE001 - per-sample isolation
            failures.append({"sample": rel.as_posix(), "stage": "load", "error": str(exc)})
            log({"event": "sample_failed", "sample": rel.as_posix(), "error": str(exc),
                 "error_type": type(exc).__name__})
    if not prepared and failures:
        raise DataError("every input sample failed to load")
    cell_dirs = [_cell_dir(kind, sev) for kind in config.kinds for sev in config.severities]
    for rel_dir in (Path("clean"), *cell_dirs):
        (out_root / rel_dir).mkdir(parents=True, exist_ok=True)

    samples: dict[str, dict] = {}
    for sid, (rel, sample_hash, mesh, cloud) in prepared.items():
        rel_clean = Path("clean") / f"{sid}.ply"
        sha256 = _write_cloud(out_root / rel_clean, cloud)
        samples[sid] = {
            "sample_id": sid,
            "class_name": _class_name(rel),
            "source": rel.as_posix(),
            "clean": {
                "path": rel_clean.as_posix(),
                "sha256": sha256,
                "n_points": cloud.count,
            },
            "corrupted": {},
        }
        log({"event": "clean_written", "sample": sid})

    tasks = [
        (sid, kind, severity)
        for sid in prepared
        for kind in config.kinds
        for severity in config.severities
    ]

    def run_task(task):
        """One (sample, kind, severity) unit of work: its manifest entry or error."""
        sid, kind, severity = task
        _, sample_hash, mesh, cloud = prepared[sid]
        task_start_s = time.perf_counter()
        try:
            spec = CorruptionSpec(CorruptionKind.from_name(kind), severity, seed=config.seed)
            source = mesh if spec.kind in MESH_KINDS else cloud
            corrupted = apply_corruption(source, spec, table, sample_key=sample_hash)
            rel_ply = _cell_dir(kind, severity) / f"{sid}.ply"
            rel_sidecar = rel_ply.with_suffix(".json")
            sha256 = _write_cloud(out_root / rel_ply, corrupted)
            write_file(out_root / rel_sidecar,
                       sidecar_json(sid, spec, table, table_digest).encode())
            entry = {
                "path": rel_ply.as_posix(),
                "sidecar": rel_sidecar.as_posix(),
                "sha256": sha256,
                "n_points": corrupted.count,
            }
            error = None
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            entry, error = None, exc
        return sid, kind, severity, entry, error, (time.perf_counter() - task_start_s) * 1e3

    workers = min(config.workers, _cpus.usable_cpus())
    if workers < config.workers:
        log({"event": "workers_capped", "requested": config.workers, "used": workers})
    results = _cpus.map_tasks(run_task, tasks, workers, log)

    kind_ms: dict[str, list[float]] = {}
    for sid, kind, severity, entry, error, ms in results:
        kind_ms.setdefault(kind, []).append(ms)
        if error is not None:
            failures.append(
                {"sample": sid, "kind": kind, "severity": severity, "error": str(error)}
            )
            log({"event": "task_failed", "sample": sid, "kind": kind, "severity": severity,
                 "error": str(error), "error_type": type(error).__name__})
            continue
        samples[sid]["corrupted"].setdefault(kind, {})[str(severity)] = entry

    manifest = DatasetManifest(
        seed=config.seed,
        point_budget=config.point_budget,
        table_digest=table_digest,
        samples=[samples[sid] for sid in sorted(samples)],
        failures=sorted(failures, key=lambda f: json.dumps(f, sort_keys=True)),
    )
    write_file(out_root / MANIFEST_NAME, manifest.to_json().encode())
    n_unlisted = len(unlisted_files(manifest, out_root))
    if n_unlisted:
        log({"event": "unlisted_files", "count": n_unlisted})
    elapsed_s = time.perf_counter() - start_s
    log({
        "event": "manifest_written",
        "samples": len(manifest.samples),
        "failures": len(manifest.failures),
        "ms": elapsed_s * 1e3,
        "cells_per_s": len(tasks) / elapsed_s,
    })
    for kind, ms in kind_ms.items():
        log({"event": "kind_timing", "kind": kind, "count": len(ms), "ms": sum(ms),
             "p50_ms": statistics.median(ms), "max_ms": max(ms)})
    return manifest


# ---------------------------------------------------------------------------
# benchmark


def expected_cells(manifest: DatasetManifest) -> set[tuple[str, int]]:
    return {(kind, sev) for kind, sev, _, _ in manifest.cells()}


def run_benchmark(
    predictions_path, manifest_path, report_path=None, fmt: str = "json"
):
    """Cross-check predictions against a manifest and build the report.

    Returns (report, missing): `missing` lists, sorted, the [kind, severity]
    cells the manifest provides but the predictions never mention.
    """
    records = metrics.ingest_predictions(predictions_path)
    manifest = load_manifest(manifest_path)
    known_ids = set(manifest.sample_ids())
    orphans = sorted({r.sample_id for r in records} - known_ids)
    if orphans:
        raise DataError(
            f"predictions reference {len(orphans)} unknown sample ids, "
            f"e.g. {orphans[:3]}"
        )
    have = {(r.corruption, r.severity) for r in records}
    missing = sorted(expected_cells(manifest) - have)
    report = metrics.aggregate(records)
    text = metrics.render_report(report, fmt)
    if report_path is not None:
        write_file(report_path, text.encode())
    return report, [list(c) for c in missing]


# ---------------------------------------------------------------------------
# dataset access for train / eval / attack


def load_labeled_clean(manifest: DatasetManifest, root):
    """Clean clouds as (LabeledCloud list, sorted class name list)."""
    names = manifest.class_names()
    index = {name: i for i, name in enumerate(names)}
    _, _, clean = next(iter_cells(manifest, root))
    return [LabeledCloud.from_class(cloud, index[cls], len(names))
            for _, cls, cloud in clean], names


def iter_cells(manifest: DatasetManifest, root):
    """Yield (corruption, severity, [(sample_id, class_name, cloud), ...]) for
    the clean cell, then each corrupted cell in sorted order, loading a cell's
    clouds when it is yielded.  A manifest with no samples is a DataError."""
    if not manifest.samples:
        raise DataError("manifest lists no samples")
    root = Path(root)
    cells: dict[tuple[str, int], list] = {}
    for kind, sev, sample, entry in manifest.cells():
        cells.setdefault((kind, sev), []).append(
            (sample["sample_id"], sample["class_name"], root / entry["path"]))
    for kind, sev in sorted(cells, key=lambda cell: (cell != (metrics.CLEAN, 0), cell)):
        yield kind, sev, [(sid, cls, load_cloud(path)) for sid, cls, path in cells[kind, sev]]
