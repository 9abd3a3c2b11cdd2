"""Dataset generation, manifests and the benchmark wiring."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pccorrupt import (
    DataError,
    DatasetManifest,
    RunConfig,
    discover_samples,
    expected_cells,
    iter_cells,
    load_labeled_clean,
    load_manifest,
    run_benchmark,
    run_generate,
    save_cloud,
    verify_manifest,
    write_predictions,
)
from pccorrupt.metrics import PredictionRecord

from synthdata import random_cloud, write_shape_dataset

FAST_KINDS = ("gaussian", "cutout", "rotation")


def _tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def mesh_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("meshes")
    write_shape_dataset(root, n_per_class=1, seed=0)
    return root


@pytest.fixture(scope="module")
def generated(tmp_path_factory, mesh_dataset):
    out = tmp_path_factory.mktemp("generated")
    config = RunConfig(
        input_dir=mesh_dataset,
        output_dir=out,
        kinds=FAST_KINDS,
        severities=(1, 3),
        point_budget=256,
        seed=11,
        workers=2,
    )
    manifest = run_generate(config)
    return out, manifest


# -- discovery and config --------------------------------------------------


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(tmp_path, tmp_path, kinds=("fog",))
    with pytest.raises(ValueError):
        RunConfig(tmp_path, tmp_path, severities=(0,))
    with pytest.raises(ValueError):
        RunConfig(tmp_path, tmp_path, point_budget=10)
    with pytest.raises(ValueError):
        RunConfig(tmp_path, tmp_path, workers=0)


def test_discover_samples(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "m.off").write_text("OFF\n0 0 0\n")
    save_cloud(random_cloud(8, 0), tmp_path / "c.ply")
    (tmp_path / "notes.txt").write_text("ignored")
    found = discover_samples(tmp_path)
    assert [(r.as_posix(), m) for r, m in found] == [("a/m.off", True), ("c.ply", False)]


def test_discover_samples_errors(tmp_path):
    with pytest.raises(DataError):
        discover_samples(tmp_path / "missing")
    (tmp_path / "only.txt").write_text("x")
    with pytest.raises(DataError):
        discover_samples(tmp_path)


# -- generation ------------------------------------------------------------


def test_generate_layout_and_manifest(generated):
    out, manifest = generated
    assert manifest.failures == []
    assert len(manifest.samples) == 4
    assert manifest.seed == 11

    # expected tree: clean + kinds x severities per sample, plus sidecars
    for sample in manifest.samples:
        clean = out / sample["clean"]["path"]
        assert clean.is_file()
        assert sample["clean"]["n_points"] == 256
        assert set(sample["corrupted"]) == set(FAST_KINDS)
        for kind in FAST_KINDS:
            assert set(sample["corrupted"][kind]) == {"1", "3"}
            for sev, entry in sample["corrupted"][kind].items():
                assert (out / entry["path"]).is_file()
                sidecar = json.loads((out / entry["sidecar"]).read_text())
                assert sidecar["kind"] == kind
                assert sidecar["severity"] == int(sev)
                assert sidecar["table_digest"] == manifest.table_digest

    assert verify_manifest(manifest, out) == []


def test_every_cell_replays_from_manifest_and_sidecar(mesh_dataset, tmp_path):
    """The six sidecar fields, with the manifest's source, seed and point
    budget, rebuild every cell of all 15 kinds byte for byte."""
    import hashlib

    from pccorrupt import CorruptionKind, CorruptionSpec, SeverityTable, apply_corruption
    from pccorrupt import _rng
    from pccorrupt.io_formats import write_ply
    from pccorrupt.pipeline import prepare_sample

    manifest = run_generate(RunConfig(mesh_dataset, tmp_path, point_budget=256, seed=13,
                                      workers=2))
    table = SeverityTable.default()
    replayed = set()
    for sample in manifest.samples:
        for entry in (e for by_sev in sample["corrupted"].values() for e in by_sev.values()):
            sidecar = json.loads((tmp_path / entry["sidecar"]).read_text())
            assert set(sidecar) == {"sample_id", "seed", "kind", "severity", "params",
                                    "table_digest"}
            assert sidecar["table_digest"] == table.digest()
            sample_key = _rng.hash_sample_id(sidecar["sample_id"])
            mesh, cloud = prepare_sample(mesh_dataset / sample["source"],
                                         manifest.point_budget, manifest.seed, sample_key)
            spec = CorruptionSpec(CorruptionKind.from_name(sidecar["kind"]),
                                  sidecar["severity"], seed=sidecar["seed"])
            assert sidecar["params"] == table.params(spec.kind, spec.severity)
            out = apply_corruption(mesh if spec.kind.needs_mesh else cloud, spec, table,
                                   sample_key=sample_key)
            assert "sha256:" + hashlib.sha256(write_ply(out)).hexdigest() == entry["sha256"]
            replayed.add(spec.kind)
    assert replayed == set(CorruptionKind)


def test_generate_manifest_has_no_timestamps(generated):
    out, _ = generated
    text = (out / "manifest.json").read_text()
    payload = json.loads(text)
    assert set(payload) == {
        "manifest_version", "tool_version", "seed", "point_budget",
        "severity_table_digest", "samples", "failures",
    }
    loaded = load_manifest(out / "manifest.json")
    assert loaded.to_json() == text


def test_generate_reproducible_across_worker_counts(mesh_dataset, tmp_path):
    trees = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        config = RunConfig(
            input_dir=mesh_dataset, output_dir=out,
            kinds=("gaussian", "shear"), severities=(2,),
            point_budget=96, seed=4, workers=workers,
        )
        run_generate(config)
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1]


def test_generate_over_longer_files_matches_a_fresh_run(mesh_dataset, tmp_path):
    # every output a rerun rewrites in place must be cut to its new length
    import shutil

    def generate(out):
        run_generate(RunConfig(input_dir=mesh_dataset, output_dir=out,
                               kinds=("gaussian", "cutout"), severities=(1, 3),
                               point_budget=96, seed=4, workers=2))

    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    generate(fresh)
    shutil.copytree(fresh, reused)
    for path in reused.rglob("*"):
        if path.is_file():
            path.write_bytes(path.read_bytes() + b"\0stale tail" * 64)
    generate(reused)
    assert _tree_bytes(reused) == _tree_bytes(fresh)
    assert verify_manifest(load_manifest(reused / "manifest.json"), reused) == []


@pytest.mark.parametrize("requested,cpus,used", [(8, 2, 2), (3, 4, 3), (1, 4, 1)])
def test_generate_worker_threads_capped_at_usable_cpus(
    mesh_dataset, tmp_path, monkeypatch, requested, cpus, used
):
    import threading

    from pccorrupt import pipeline

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    live = []
    apply = pipeline.apply_corruption

    def counting_apply(*args, **kwargs):
        live.append(threading.active_count())
        return apply(*args, **kwargs)

    monkeypatch.setattr(pipeline, "apply_corruption", counting_apply)
    events = []
    before = threading.active_count()
    run_generate(
        RunConfig(input_dir=mesh_dataset, output_dir=tmp_path, kinds=FAST_KINDS,
                  severities=(1, 2, 3), point_budget=64, workers=requested),
        log=events.append,
    )
    assert len(live) == 4 * len(FAST_KINDS) * 3
    assert max(live) - before <= used
    capped = [e for e in events if e["event"] == "workers_capped"]
    if used < requested:
        assert capped == [{"event": "workers_capped", "requested": requested, "used": used}]
    else:
        assert capped == []


def test_generate_digests_the_table_once(mesh_dataset, tmp_path, monkeypatch):
    from pccorrupt import SeverityTable

    calls = []
    digest = SeverityTable.digest

    def counting_digest(self):
        calls.append(1)
        return digest(self)

    monkeypatch.setattr(SeverityTable, "digest", counting_digest)
    manifest = run_generate(
        RunConfig(input_dir=mesh_dataset, output_dir=tmp_path,
                  kinds=("gaussian", "rotation", "ffd", "rbf"), severities=(1, 2),
                  point_budget=64, workers=2)
    )
    assert len(calls) == 1
    assert manifest.failures == []
    assert manifest.table_digest == digest(SeverityTable.default())


def test_generate_counts_respect_contracts(generated):
    out, manifest = generated
    from pccorrupt import load_cloud

    sample = manifest.samples[0]
    assert load_cloud(out / sample["corrupted"]["cutout"]["1"]["path"]).count == 256 - 50
    assert load_cloud(out / sample["corrupted"]["cutout"]["3"]["path"]).count == 256 - 150
    assert load_cloud(out / sample["corrupted"]["gaussian"]["3"]["path"]).count == 256
    assert sample["corrupted"]["cutout"]["1"]["n_points"] == 206


def test_generate_mesh_kinds_reject_cloud_input(tmp_path):
    save_cloud(random_cloud(200, 1), tmp_path / "c.ply")
    out = tmp_path / "out"
    config = RunConfig(tmp_path, out, kinds=("occlusion", "gaussian"), severities=(1,))
    with pytest.raises(DataError):
        run_generate(config)


def test_generate_cloud_input_with_cloud_kinds(tmp_path):
    save_cloud(random_cloud(200, 2), tmp_path / "c.ply")
    out = tmp_path / "out"
    config = RunConfig(tmp_path, out, kinds=("gaussian",), severities=(1,),
                       point_budget=64)
    manifest = run_generate(config)
    assert manifest.failures == []
    # clouds bigger than the budget get subsampled
    assert manifest.samples[0]["clean"]["n_points"] == 64


def test_generate_isolates_broken_sample(mesh_dataset, tmp_path):
    import shutil

    src = tmp_path / "src"
    shutil.copytree(mesh_dataset, src)
    (src / "pyramid" / "broken.off").write_text("OFF\n2 1 0\n0 0 0\n")
    out = tmp_path / "out"
    events = []
    config = RunConfig(src, out, kinds=("gaussian",), severities=(1,),
                       point_budget=64, workers=1)
    manifest = run_generate(config, log=events.append)
    assert len(manifest.samples) == 4  # the healthy ones all survive
    assert len(manifest.failures) == 1
    assert manifest.failures[0]["stage"] == "load"
    assert any(e["event"] == "sample_failed" for e in events)


def test_expected_cells(generated):
    _, manifest = generated
    cells = expected_cells(manifest)
    assert ("clean", 0) in cells
    assert ("cutout", 3) in cells
    assert ("cutout", 2) not in cells


def test_cells_yields_each_sample_clean_then_corrupted(generated):
    _, manifest = generated
    cells = list(manifest.cells())
    assert len(cells) == len(manifest.samples) * (1 + len(FAST_KINDS) * 2)
    for sample in manifest.samples:
        own = [(kind, sev) for kind, sev, owner, _ in cells if owner is sample]
        assert own[0] == ("clean", 0)
        assert sorted(own[1:]) == sorted((k, s) for k in FAST_KINDS for s in (1, 3))


# -- manifest verification -------------------------------------------------


def test_verify_manifest_detects_tampering(generated, tmp_path):
    import shutil

    out, _ = generated
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    manifest = load_manifest(copy / "manifest.json")
    victim = copy / manifest.samples[0]["clean"]["path"]
    victim.write_bytes(victim.read_bytes() + b"x")
    problems = verify_manifest(manifest, copy)
    assert len(problems) == 1 and "digest mismatch" in problems[0]

    gone = copy / manifest.samples[1]["corrupted"]["cutout"]["1"]["path"]
    gone.unlink()
    problems = verify_manifest(manifest, copy)
    assert any("missing file" in p for p in problems)


@pytest.mark.parametrize("content, problem", [
    (b'{"sample_id": "someone_else", "seed": 11, "kind": "cutout", "severity": 1}',
     "disagrees on ['sample_id', 'table_digest']"),
    (b"{not json", "is not a JSON object"),
    (b"\xff\xfe", "is not a JSON object"),
    (b"[1, 2]", "is not a JSON object"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "is not a JSON object", id="deeply-nested"),
])
def test_verify_manifest_checks_sidecars(generated, tmp_path, content, problem):
    import shutil

    out, _ = generated
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    manifest = load_manifest(copy / "manifest.json")
    sample = manifest.samples[0]
    (copy / sample["corrupted"]["cutout"]["1"]["sidecar"]).write_bytes(content)
    problems = verify_manifest(manifest, copy)
    assert len(problems) == 1
    assert problems[0].startswith(f"{sample['sample_id']} cutout s=1: sidecar ")
    assert problems[0].endswith(problem)


def test_rerun_with_fewer_kinds_reports_unlisted_files(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    for i in range(3):
        save_cloud(random_cloud(300, i), src / f"c{i}.ply")
    out = tmp_path / "out"
    events = []

    def generate(kinds):
        return run_generate(RunConfig(src, out, kinds=kinds, severities=(1,),
                                      point_budget=256), log=events.append)

    assert verify_manifest(generate(("gaussian", "cutout")), out) == []
    (out / "notes.txt").write_text("outside clean/ and the cell directories")
    (out / "clean" / "extra.ply").write_bytes(b"user file")
    manifest = generate(("gaussian",))
    unlisted = ["clean/extra.ply",
                *(f"cutout/s1/c{i}.{ext}" for i in range(3) for ext in ("json", "ply"))]
    assert verify_manifest(manifest, out) == [f"unlisted file {p}" for p in unlisted]
    assert [e for e in events if e["event"] == "unlisted_files"] == [
        {"event": "unlisted_files", "count": len(unlisted)}]
    assert all((out / p).is_file() for p in unlisted)  # reported, not deleted


def test_manifest_version_guard():
    bad = json.dumps({"manifest_version": 99, "seed": 0, "point_budget": 64,
                      "severity_table_digest": "sha256:0", "samples": []})
    with pytest.raises(DataError):
        DatasetManifest.from_json(bad)


_GOOD_MANIFEST = {"manifest_version": 1, "seed": 0, "point_budget": 64,
                  "severity_table_digest": "sha256:0", "samples": []}
_ENTRY = {"path": "gaussian/s1/a.ply", "sidecar": "gaussian/s1/a.json", "sha256": "sha256:0"}
_GOOD_SAMPLE = {"sample_id": "a", "class_name": "c",
                "clean": {"path": "clean/a.ply", "sha256": "sha256:0"},
                "corrupted": {"gaussian": {"1": _ENTRY}}}


def _with_sample(**changes):
    """The good manifest with one good sample and, after it, one changed copy."""
    return {**_GOOD_MANIFEST, "samples": [_GOOD_SAMPLE, {**_GOOD_SAMPLE, **changes}]}


_BAD_SAMPLES = [
    {**_GOOD_MANIFEST, "samples": 5},
    {**_GOOD_MANIFEST, "samples": [_GOOD_SAMPLE, 1]},
    _with_sample(sample_id=1),
    _with_sample(class_name=None),
    _with_sample(clean=None),
    _with_sample(clean={"path": "clean/a.ply"}),
    _with_sample(corrupted=[]),
    _with_sample(corrupted={"gaussian": [_ENTRY]}),
    _with_sample(corrupted={"fog": {"1": _ENTRY}}),
    _with_sample(corrupted={"gaussian": {"9": _ENTRY}}),
    _with_sample(corrupted={"gaussian": {"1": {**_ENTRY, "sidecar": 3}}}),
    _with_sample(corrupted={"gaussian": {"1": "gaussian/s1/a.ply"}}),
    *(_with_sample(sample_id=sid) for sid in ("", ".", "..", "../../escaped", "a/b", "a\\b")),
]


@pytest.mark.parametrize("payload", [
    [1],
    "manifest",
    {"manifest_version": 1},
    *({k: v for k, v in _GOOD_MANIFEST.items() if k != key}
      for key in ("seed", "point_budget", "severity_table_digest", "samples")),
    *_BAD_SAMPLES,
])
def test_manifest_malformed_is_data_error(payload):
    DatasetManifest.from_json(json.dumps(_GOOD_MANIFEST))
    DatasetManifest.from_json(json.dumps({**_GOOD_MANIFEST, "samples": [_GOOD_SAMPLE]}))
    with pytest.raises(DataError):
        DatasetManifest.from_json(json.dumps(payload))


@pytest.mark.parametrize("payload", _BAD_SAMPLES[1:])
def test_manifest_sample_error_names_the_entry(payload):
    with pytest.raises(DataError, match=r"samples\[1\]"):
        DatasetManifest.from_json(json.dumps(payload))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
# paths into a sample, each naming one field to replace, rename or drop
_SAMPLE_FIELDS = [
    ("sample_id",), ("class_name",), ("clean",), ("clean", "path"), ("clean", "sha256"),
    ("corrupted",), ("corrupted", "gaussian"), ("corrupted", "gaussian", "1"),
    *(("corrupted", "gaussian", "1", key) for key in ("path", "sidecar", "sha256")),
]


@st.composite
def _mutated_manifests(draw):
    """The good manifest with two good samples, one field of one of them changed."""
    samples = json.loads(json.dumps([_GOOD_SAMPLE, _GOOD_SAMPLE]))
    *parents, key = draw(st.sampled_from(_SAMPLE_FIELDS))
    owner = samples[draw(st.integers(0, 1))]
    for name in parents:
        owner = owner[name]
    value = owner.pop(key)
    action = draw(st.sampled_from(["replace", "rename", "drop"]))
    if action == "replace":  # a string is the right type for most fields
        owner[key] = draw(st.text() | _JSON)
    elif action == "rename":
        owner[draw(st.sampled_from(["0", "5", "fog", "clean", "Gaussian"]) | st.text())] = value
    return {**_GOOD_MANIFEST, "samples": samples}


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("empty")


@settings(max_examples=500, deadline=None)
@example(payload={**_GOOD_MANIFEST, "samples": [  # a name too long for the file system
    {**_GOOD_SAMPLE, "clean": {"path": "a" * 300, "sha256": "sha256:0"}}]})
@given(payload=_JSON | _mutated_manifests()
       | st.builds(lambda samples: {**_GOOD_MANIFEST, "samples": samples}, _JSON))
def test_manifest_fuzz_loads_or_is_data_error(empty_dir, payload):
    try:
        manifest = DatasetManifest.from_json(json.dumps(payload))
    except DataError:
        return
    cells = list(manifest.cells())
    assert expected_cells(manifest) == {(kind, sev) for kind, sev, _, _ in cells}
    problems = verify_manifest(manifest, empty_dir)
    assert len(problems) == len(cells) + len(cells) - len(manifest.samples)


def test_gen_refuses_a_sample_id_that_is_not_a_file_name(tmp_path):
    # "...ply" and "a\\b.ply" would give the ids ".." and "a\\b", which the
    # manifest loader refuses; gen records them as failed samples instead
    src = tmp_path / "src"
    src.mkdir()
    for name in ("...ply", "a\\b.ply", "good.ply"):
        save_cloud(random_cloud(300, 1), src / name)
    manifest = run_generate(RunConfig(src, tmp_path / "out", kinds=("gaussian",),
                                      severities=(1,), point_budget=256))
    assert manifest.sample_ids() == ["good"]
    assert sorted(f["sample"] for f in manifest.failures) == ["...ply", "a\\b.ply"]
    assert load_manifest(tmp_path / "out" / "manifest.json").sample_ids() == ["good"]


# -- dataset access --------------------------------------------------------


def test_load_labeled_clean(generated):
    out, manifest = generated
    labelled, names = load_labeled_clean(manifest, out)
    assert names == ["box", "prism", "pyramid", "sphere"]
    assert len(labelled) == 4
    assert {int(s.label.argmax()) for s in labelled} == {0, 1, 2, 3}
    assert all(s.cloud.count == 256 for s in labelled)


def test_iter_cells_covers_manifest(generated):
    out, manifest = generated
    seen = {}
    for kind, severity, batch in iter_cells(manifest, out):
        seen[(kind, severity)] = len(batch)
        for sid, cls, cloud in batch:
            assert cloud.count > 0
    assert seen[("clean", 0)] == 4
    assert set(seen) == expected_cells(manifest)


# -- benchmark wiring ------------------------------------------------------


def _write_outputs(manifest, tmp_path, wrong_every=5):
    records = []
    i = 0
    for sample in manifest.samples:
        sid = sample["sample_id"]
        records.append(PredictionRecord(sid, "clean", 0, 0, 0))
        for kind, by_sev in sample["corrupted"].items():
            for sev in by_sev:
                i += 1
                records.append(
                    PredictionRecord(sid, kind, int(sev), 0, int(i % wrong_every == 0))
                )
    path = tmp_path / "preds.csv"
    write_predictions(records, path)
    return path


def test_run_benchmark_report_and_coverage(generated, tmp_path):
    out, manifest = generated
    preds = _write_outputs(manifest, tmp_path)
    report_path = tmp_path / "report.json"
    report, missing = run_benchmark(preds, out / "manifest.json", report_path, "json")
    assert missing == []
    assert report.er_clean == 0.0
    assert report.er_cor is not None
    assert report_path.is_file()
    loaded = json.loads(report_path.read_text())
    assert loaded["report_version"] == 1


def test_run_benchmark_flags_missing_cells(generated, tmp_path):
    out, manifest = generated
    records = [PredictionRecord(s["sample_id"], "clean", 0, 0, 0) for s in manifest.samples]
    path = tmp_path / "partial.csv"
    write_predictions(records, path)
    report, missing = run_benchmark(path, out / "manifest.json")
    assert ["cutout", 1] in missing
    assert report.er_cor is None


def test_run_benchmark_rejects_orphan_ids(generated, tmp_path):
    out, _ = generated
    path = tmp_path / "orphan.csv"
    write_predictions([PredictionRecord("ghost", "clean", 0, 0, 0)], path)
    with pytest.raises(DataError):
        run_benchmark(path, out / "manifest.json")
