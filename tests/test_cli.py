"""Command-line surface: subcommands, exit codes, logs, config precedence."""

import argparse
import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccorrupt import (
    PointCloud, SeverityTable, _cpus, load_cloud, network, save_cloud, write_off,
)
from pccorrupt.cli import main

from synthdata import box_mesh, random_cloud, write_shape_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus a (briefly) trained model, via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    src = root / "src"
    write_shape_dataset(src, n_per_class=1, seed=1)
    data = root / "data"
    code = main([
        "gen", str(src), str(data),
        "--kinds", "gaussian,cutout", "--severities", "1,3",
        "--points", "256", "--seed", "3", "--workers", "2",
    ])
    assert code == 0
    model = root / "model.tpn"
    code = main([
        "train", str(data / "manifest.json"), "--out", str(model),
        "--epochs", "2", "--batch-size", "4", "--seed", "1",
    ])
    assert code == 0
    return root, src, data, model


def _read_json_lines(text):
    events = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events


# -- gen -------------------------------------------------------------------


def test_gen_summary_and_logs(workspace, capsys, tmp_path):
    _, src, _, _ = workspace
    out = tmp_path / "d2"
    argv = ["gen", str(src), str(out), "--kinds", "shear,gaussian",
            "--severities", "2,3", "--points", "64"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert "4 samples" in captured.out
    events = _read_json_lines(captured.err)
    assert events[-3]["event"] == "manifest_written"
    written = events[-3]
    timings = [written["ms"], written["cells_per_s"]]
    # one kind_timing event per kind, after manifest_written: 4 samples x 2 severities
    by_kind = events[-2:]
    assert [(e["event"], e["kind"], e["count"]) for e in by_kind] == [
        ("kind_timing", "shear", 8), ("kind_timing", "gaussian", 8)]
    timings += [e[f] for e in by_kind for f in ("ms", "p50_ms", "max_ms")]
    assert all(type(t) is float and 0.0 < t < math.inf for t in timings), timings
    assert all(e["p50_ms"] <= e["max_ms"] <= e["ms"] for e in by_kind)
    # the timings stay in the log: a rerun writes the same manifest bytes
    first = (out / "manifest.json").read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert (out / "manifest.json").read_bytes() == first


def test_gen_missing_input_is_data_error(tmp_path, capsys):
    code = main(["gen", str(tmp_path / "nope"), str(tmp_path / "out")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing", "mesh_kind_on_clouds", "nothing_loads"])
def test_gen_rejected_input_leaves_no_output_directory(tmp_path, capsys, case):
    src = tmp_path / "src"
    src.mkdir()
    if case == "mesh_kind_on_clouds":
        save_cloud(random_cloud(128, seed=6), src / "a.ply")
    if case == "nothing_loads":
        (src / "broken.ply").write_text("ply\nnonsense\n")
    in_dir = tmp_path / "missing" if case == "missing" else src
    kinds = "occlusion" if case == "mesh_kind_on_clouds" else "gaussian"
    out = tmp_path / "out"
    code = main(["gen", str(in_dir), str(out), "--kinds", kinds])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["clean", "cell"])
def test_gen_output_path_that_is_a_directory(workspace, tmp_path, capsys, target):
    # a clean cloud that cannot be written stops gen; a corrupted cell is one failure
    _, src, _, _ = workspace
    out = tmp_path / "out"
    rel = sorted(src.rglob("*.off"))[0].relative_to(src)
    sid = "_".join(rel.with_suffix("").parts)
    blocked = out / ("clean" if target == "clean" else "gaussian/s2") / f"{sid}.ply"
    blocked.mkdir(parents=True)
    code = main(["gen", str(src), str(out), "--kinds", "gaussian", "--severities", "2",
                 "--points", "64"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if target == "clean":
        assert code == 2 and not (out / "manifest.json").exists()
        return
    assert code == 3
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert [(f["sample"], f["kind"], f["severity"]) for f in failures] == [(sid, "gaussian", 2)]


def test_gen_bad_kind_is_usage_error(workspace, tmp_path, capsys):
    _, src, _, _ = workspace
    code = main(["gen", str(src), str(tmp_path / "out"), "--kinds", "fog"])
    capsys.readouterr()
    assert code == 1


def test_gen_bad_severity_is_usage_error(workspace, tmp_path, capsys):
    _, src, _, _ = workspace
    code = main(["gen", str(src), str(tmp_path / "out"), "--severities", "9"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("entry", [
    {"kinds": 5}, {"severities": [1, 2]}, {"points": "64"}, {"workers": 1.5},
    {"seed": True}, {"table": 3},
])
def test_gen_config_wrong_type_is_data_error(workspace, tmp_path, capsys, entry):
    _, src, _, _ = workspace
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps(entry))
    code = main(["gen", str(src), str(tmp_path / "out"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and repr(next(iter(entry))) in err


def test_gen_broken_sample_gives_partial_exit(tmp_path, capsys):
    src = tmp_path / "src"
    write_shape_dataset(src, n_per_class=1, seed=5)
    (src / "sphere" / "broken.off").write_text("OFF\nnot counts\n")
    code = main(["gen", str(src), str(tmp_path / "out"),
                 "--kinds", "gaussian", "--severities", "1", "--points", "64"])
    capsys.readouterr()
    assert code == 3  # dataset generated, but with recorded failures


def test_gen_failure_events_name_cell_and_exception_type(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    save_cloud(random_cloud(20, 1), src / "small.ply")  # too few points for the clusters
    (src / "broken.ply").write_text("ply\nnonsense\n")
    out = tmp_path / "out"
    code = main(["gen", str(src), str(out), "--kinds", "local_density_inc",
                 "--severities", "5"])
    events = _read_json_lines(capsys.readouterr().err)
    assert code == 3
    by_event = {e["event"]: e for e in events}
    assert by_event["sample_failed"]["sample"] == "broken.ply"
    assert by_event["sample_failed"]["error_type"] == "PlyParseError"
    task = by_event["task_failed"]
    assert (task["sample"], task["kind"], task["severity"]) == ("small", "local_density_inc", 5)
    assert task["error_type"] == "ValueError"
    # the manifest keeps its failure entries free of the exception type
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert failures == [
        {"sample": "small", "kind": "local_density_inc", "severity": 5,
         "error": task["error"]},
        {"sample": "broken.ply", "stage": "load", "error": by_event["sample_failed"]["error"]},
    ]


def test_gen_refuses_a_second_input_with_a_taken_sample_id(tmp_path, capsys):
    # "a/b.ply" and a top-level "a_b.ply" both give the sample id "a_b"
    src = tmp_path / "src"
    (src / "a").mkdir(parents=True)
    save_cloud(random_cloud(300, 1), src / "a" / "b.ply")
    save_cloud(random_cloud(300, 2), src / "a_b.ply")
    out = tmp_path / "out"
    code = main(["gen", str(src), str(out), "--kinds", "gaussian", "--severities", "1",
                 "--points", "256"])
    events = _read_json_lines(capsys.readouterr().err)
    assert code == 3
    error = "sample id 'a_b' is taken by a/b.ply"
    assert [(e["sample"], e["error"]) for e in events if e["event"] == "sample_failed"] == [
        ("a_b.ply", error)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [(s["sample_id"], s["source"]) for s in manifest["samples"]] == [("a_b", "a/b.ply")]
    assert manifest["failures"] == [{"sample": "a_b.ply", "stage": "load", "error": error}]


def test_gen_seed_ignores_environment_and_flag_wins(workspace, tmp_path, capsys, monkeypatch):
    # the seed comes from --seed, else the config file, else 0; no variable sets it
    _, src, _, _ = workspace
    args = ["--kinds", "shear", "--severities", "1", "--points", "64"]

    monkeypatch.setenv("PC_CORRUPT_SEED", "77")
    assert main(["gen", str(src), str(tmp_path / "a")] + args) == 0
    seed_default = json.loads((tmp_path / "a" / "manifest.json").read_text())["seed"]
    assert seed_default == 0

    assert main(["gen", str(src), str(tmp_path / "b"), "--seed", "5"] + args) == 0
    seed_flag = json.loads((tmp_path / "b" / "manifest.json").read_text())["seed"]
    assert seed_flag == 5
    capsys.readouterr()


@pytest.mark.parametrize("kinds, severities, error", [
    ("gaussian,gaussian", "1", "kind list 'gaussian,gaussian' repeats ['gaussian']"),
    ("gaussian, shear,gaussian", "1", "repeats ['gaussian']"),
    ("gaussian", "1,1", "severity list '1,1' repeats [1]"),
    ("", "1", "kind list '' names nothing"),
    (",", "1", "kind list ',' names nothing"),
    ("gaussian", "", "severity list '' names nothing"),
    ("gaussian", " , ", "severity list ' , ' names nothing"),
])
def test_gen_empty_or_repeating_selection_is_usage_error(workspace, tmp_path, capsys, kinds,
                                                          severities, error):
    _, src, _, _ = workspace
    out = tmp_path / "out"
    code = main(["gen", str(src), str(out), "--kinds", kinds, "--severities", severities,
                 "--points", "64", "--workers", "2"])
    events = _read_json_lines(capsys.readouterr().err)
    assert code == 1
    assert [e["event"] for e in events] == ["usage_error"]
    assert error in events[0]["error"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("nested", ["out", "deep/out"])
def test_gen_rerun_into_output_inside_input_ignores_earlier_outputs(tmp_path, capsys, nested):
    src = tmp_path / "in"
    for i in range(4):
        (src / f"c{i % 2}").mkdir(parents=True, exist_ok=True)
        save_cloud(random_cloud(100, i), src / f"c{i % 2}" / f"s{i}.ply")
    out = src / nested
    argv = ["gen", str(src), str(out), "--kinds", "gaussian", "--severities", "1",
            "--points", "64"]
    assert main(argv) == 0
    first = (out / "manifest.json").read_bytes()
    assert [s["source"] for s in json.loads(first)["samples"]] == [
        "c0/s0.ply", "c0/s2.ply", "c1/s1.ply", "c1/s3.ply"]
    assert main(argv) == 0
    capsys.readouterr()
    assert (out / "manifest.json").read_bytes() == first


def test_gen_output_dir_holding_every_input_is_data_error(tmp_path, capsys):
    save_cloud(random_cloud(100, 1), tmp_path / "c.ply")
    code = main(["gen", str(tmp_path), str(tmp_path), "--kinds", "gaussian",
                 "--severities", "1", "--points", "64"])
    events = _read_json_lines(capsys.readouterr().err)
    assert code == 2
    assert [e["event"] for e in events] == ["error"]
    assert "outside" in events[0]["error"]
    assert not (tmp_path / "manifest.json").exists()


def test_gen_config_file_with_flag_override(workspace, tmp_path, capsys):
    _, src, _, _ = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kinds": "shear", "severities": "1", "points": 64,
                               "seed": 9}))
    out = tmp_path / "out"
    code = main(["gen", str(src), str(out), "--config", str(cfg), "--seed", "13"])
    capsys.readouterr()
    assert code == 0
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["seed"] == 13  # flag beats config
    assert payload["point_budget"] == 64  # config beats default
    kinds = set(payload["samples"][0]["corrupted"])
    assert kinds == {"shear"}


def test_unknown_subcommand_exit_code(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pccorrupt" in out


# -- apply / export --------------------------------------------------------


def test_apply_cloud_kind_with_sidecar(tmp_path, capsys):
    src = tmp_path / "in.ply"
    save_cloud(random_cloud(128, seed=2), src)
    dst = tmp_path / "out.ply"
    sidecar = tmp_path / "out.json"
    code = main(["apply", str(src), str(dst), "--kind", "cutout",
                 "--severity", "1", "--sidecar", str(sidecar)])
    captured = capsys.readouterr()
    assert code == 0
    assert load_cloud(dst).count == 128 - 50
    assert "cutout s=1" in captured.out
    assert json.loads(sidecar.read_text()) == {
        "sample_id": "in",
        "seed": 0,
        "kind": "cutout",
        "severity": 1,
        "params": {"n_clusters": 1, "k": 50},
        "table_digest": SeverityTable.default().digest(),
    }


def test_apply_over_longer_files_matches_a_fresh_write(tmp_path, capsys):
    src = tmp_path / "in.ply"
    save_cloud(random_cloud(128, seed=2), src)

    def apply(name):
        assert main(["apply", str(src), str(tmp_path / f"{name}.ply"), "--kind", "gaussian",
                     "--sidecar", str(tmp_path / f"{name}.json")]) == 0

    apply("fresh")
    for suffix in (".ply", ".json"):
        fresh = (tmp_path / f"fresh{suffix}").read_bytes()
        (tmp_path / f"reused{suffix}").write_bytes(fresh + b"\0stale tail" * 64)
    apply("reused")
    capsys.readouterr()
    for suffix in (".ply", ".json"):
        reused = (tmp_path / f"reused{suffix}").read_bytes()
        assert reused == (tmp_path / f"fresh{suffix}").read_bytes()


def test_apply_output_that_is_a_directory_is_data_error(tmp_path, capsys):
    src = tmp_path / "in.ply"
    save_cloud(random_cloud(128, seed=2), src)
    (tmp_path / "out.ply").mkdir()
    code = main(["apply", str(src), str(tmp_path / "out.ply"), "--kind", "gaussian"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "IsADirectoryError" in err


@pytest.mark.parametrize("kind", ["gaussian", "occlusion"])
def test_gen_and_apply_agree_on_a_top_level_mesh(tmp_path, capsys, kind):
    # one mesh preparation and one sidecar record serve both commands
    src = tmp_path / "src"
    src.mkdir()
    (src / "chair.off").write_text(write_off(box_mesh()))
    assert main(["gen", str(src), str(tmp_path / "gen"), "--kinds", kind,
                 "--severities", "2", "--seed", "5", "--points", "300"]) == 0
    assert main(["apply", str(src / "chair.off"), str(tmp_path / "a.ply"), "--kind", kind,
                 "--severity", "2", "--seed", "5", "--points", "300",
                 "--sidecar", str(tmp_path / "a.json")]) == 0
    capsys.readouterr()
    cell = tmp_path / "gen" / kind / "s2" / "chair"
    assert (tmp_path / "a.ply").read_bytes() == cell.with_suffix(".ply").read_bytes()
    applied = json.loads((tmp_path / "a.json").read_text())
    assert applied == json.loads(cell.with_suffix(".json").read_text())
    assert applied["sample_id"] == "chair"


def test_gen_and_apply_agree_on_a_top_level_cloud(tmp_path, capsys):
    # apply subsamples a cloud above --points with gen's draw
    src = tmp_path / "src"
    src.mkdir()
    save_cloud(random_cloud(2048, seed=4), src / "scan.ply")
    common = ["--seed", "5", "--points", "1024"]
    assert main(["gen", str(src), str(tmp_path / "gen"), "--kinds", "gaussian",
                 "--severities", "3", *common]) == 0
    apply = ["apply", str(src / "scan.ply"), "--kind", "gaussian", "--severity", "3", *common]
    assert main([*apply, str(tmp_path / "a.ply"), "--sidecar", str(tmp_path / "a.json")]) == 0
    assert main([*apply, str(tmp_path / "raw.ply"), "--no-normalize"]) == 0
    capsys.readouterr()
    cell = tmp_path / "gen" / "gaussian" / "s3" / "scan"
    assert (tmp_path / "a.ply").read_bytes() == cell.with_suffix(".ply").read_bytes()
    assert (tmp_path / "a.json").read_text() == cell.with_suffix(".json").read_text()
    raw = load_cloud(tmp_path / "raw.ply")
    assert raw.count == 1024
    assert not np.allclose(raw.points, load_cloud(tmp_path / "a.ply").points)


def test_apply_mesh_input_cloud_kind(workspace, tmp_path, capsys):
    _, src, _, _ = workspace
    mesh = next((src / "sphere").glob("*.off"))
    dst = tmp_path / "out.ply"
    code = main(["apply", str(mesh), str(dst), "--kind", "gaussian",
                 "--points", "200"])
    capsys.readouterr()
    assert code == 0
    assert load_cloud(dst).count == 200


def test_apply_mesh_kind(workspace, tmp_path, capsys):
    _, src, _, _ = workspace
    mesh = next((src / "box").glob("*.off"))
    dst = tmp_path / "occ.ply"
    code = main(["apply", str(mesh), str(dst), "--kind", "occlusion",
                 "--severity", "2"])
    capsys.readouterr()
    assert code == 0
    assert 768 <= load_cloud(dst).count <= 1280


def test_apply_missing_kind_is_usage_error(tmp_path, capsys):
    src = tmp_path / "in.ply"
    save_cloud(random_cloud(64, seed=3), src)
    code = main(["apply", str(src), str(tmp_path / "o.ply")])
    assert code == 1
    assert _read_json_lines(capsys.readouterr().err) == [
        {"event": "usage_error", "error": "apply needs --kind (or 'kind' in the config file)"}]


def test_apply_mesh_kind_on_cloud_is_data_error(tmp_path, capsys):
    src = tmp_path / "in.ply"
    save_cloud(random_cloud(64, seed=4), src)
    code = main(["apply", str(src), str(tmp_path / "o.ply"), "--kind", "lidar"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("points", ["63", "3", "1", "0", "-5", "config"])
def test_apply_points_below_floor_is_data_error(workspace, tmp_path, capsys, points):
    _, src, _, _ = workspace
    mesh = next((src / "box").glob("*.off"))
    how = ["--points", points]
    if points == "config":
        cfg = tmp_path / "a.json"
        cfg.write_text(json.dumps({"points": 8}))
        how = ["--config", str(cfg)]
    out = tmp_path / "o.ply"
    code = main(["apply", str(mesh), str(out), "--kind", "gaussian", *how])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "--points must be >= 64" in err
    assert not out.exists()


@pytest.mark.parametrize("how", [["--severity", "9"], ["--severity", "0"], ["config"]])
def test_apply_bad_severity_is_usage_error(tmp_path, capsys, how):
    src = tmp_path / "in.ply"
    save_cloud(random_cloud(64, seed=4), src)
    if how == ["config"]:
        cfg = tmp_path / "a.json"
        cfg.write_text(json.dumps({"severity": 6}))
        how = ["--config", str(cfg)]
    code = main(["apply", str(src), str(tmp_path / "o.ply"), "--kind", "gaussian", *how])
    err = capsys.readouterr().err
    assert code == 1
    assert "outside 1..5" in err


@pytest.mark.parametrize("k", ["50", None])
def test_apply_bad_severity_table_is_data_error(tmp_path, capsys, k):
    src = tmp_path / "in.ply"
    save_cloud(random_cloud(128, seed=4), src)
    records = [{"n_clusters": s, "k": 50} for s in range(1, 6)]
    if k is None:
        del records[2]["k"]  # severity 3, the one applied
    else:
        records[2]["k"] = k
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"cutout": records}))
    code = main(["apply", str(src), str(tmp_path / "o.ply"), "--kind", "cutout",
                 "--table", str(table)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "cutout" in err


def test_apply_deterministic(tmp_path, capsys):
    src = tmp_path / "in.ply"
    save_cloud(random_cloud(128, seed=5), src)
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    main(["apply", str(src), str(a), "--kind", "gaussian", "--seed", "8"])
    main(["apply", str(src), str(b), "--kind", "gaussian", "--seed", "8"])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_export_conversion(tmp_path, capsys):
    src = tmp_path / "in.bin"
    save_cloud(random_cloud(32, seed=6), src)
    dst = tmp_path / "out.ply"
    code = main(["export", str(src), str(dst), "--ascii"])
    capsys.readouterr()
    assert code == 0
    assert dst.read_bytes().startswith(b"ply")
    assert np.allclose(load_cloud(dst).points, load_cloud(src).points)


@pytest.mark.parametrize("old,new", [
    (b"format ascii 1.0", b"format"),
    (b"element vertex 2", b"element vertex"),
    (b"property float x", b"property float"),
    (b"element vertex 2", b"element vertex -3"),
])
def test_export_ply_header_defect_is_data_error(tmp_path, capsys, old, new):
    src = tmp_path / "in.ply"
    save_cloud(random_cloud(2, seed=6), src, ascii_format=True)
    src.write_bytes(src.read_bytes().replace(old, new))
    code = main(["export", str(src), str(tmp_path / "out.ply")])
    err = capsys.readouterr().err
    assert code == 2
    [event] = _read_json_lines(err)
    assert (event["event"], event["error_type"]) == ("error", "PlyParseError")
    assert "header line" in event["error"]


@pytest.mark.parametrize("command", ["export", "apply"])
def test_xyz_is_unrecognized_extension(tmp_path, capsys, command):
    src = tmp_path / "in.xyz"
    src.write_text("0 0 0\n1 1 1\n0.5 0.5 0.5\n")
    extra = ["--kind", "gaussian"] if command == "apply" else []
    code = main([command, str(src), str(tmp_path / "out.ply"), *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert "unrecognized cloud extension" in err
    assert not (tmp_path / "out.ply").exists()


def test_export_rejects_mesh_input(workspace, tmp_path, capsys):
    _, src, _, _ = workspace
    mesh = next((src / "prism").glob("*.off"))
    code = main(["export", str(mesh), str(tmp_path / "o.ply")])
    capsys.readouterr()
    assert code == 2


# -- train / eval / attack / bench ----------------------------------------


def test_train_writes_checkpoint_and_logs(workspace, capsys):
    root, _, data, model = workspace
    assert model.is_file()
    # epoch logs were emitted during the fixture's train call, so re-train
    # quickly to inspect them here
    out = root / "model2.tpn"
    code = main(["train", str(data / "manifest.json"), "--out", str(out),
                 "--epochs", "1", "--batch-size", "4", "--mix", "mixup"])
    captured = capsys.readouterr()
    assert code == 0
    events = _read_json_lines(captured.err)
    assert any(e["event"] == "train_start" for e in events)
    epochs = [e for e in events if e["event"] == "epoch"]
    assert len(epochs) == 1
    assert {"train_loss", "val_loss", "val_acc", "lr"} <= set(epochs[0])
    seconds = float(epochs[0]["s"])
    assert math.isfinite(seconds) and seconds > 0.0
    # the seconds spent mixing are part of the epoch's
    assert 0.0 <= float(epochs[0]["mix_s"]) <= seconds
    assert "val_acc=" in captured.out

    from pccorrupt import load_checkpoint

    state, meta = load_checkpoint(out)
    assert meta["class_names"] == ["box", "prism", "pyramid", "sphere"]
    assert meta["config_digest"].startswith("sha256:")


def test_train_flags_win_over_config_keys(workspace, tmp_path, capsys):
    from pccorrupt import TrainConfig, load_checkpoint

    _, _, data, _ = workspace
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"mix": "rsmix", "mix_lam": 0.3}))
    for flags, mix, mix_lam in [
        (["--mix", "cutmix_r", "--mix-lam", "0.7"], "cutmix_r", 0.7),
        ([], "rsmix", 0.3),
    ]:
        out = tmp_path / f"{mix}.tpn"
        code = main(["train", str(data / "manifest.json"), "--out", str(out), "--epochs", "1",
                     "--batch-size", "4", "--config", str(config), *flags])
        capsys.readouterr()
        assert code == 0
        want = TrainConfig(epochs=1, batch_size=4, mix=mix, mix_lam=mix_lam)
        digest = hashlib.sha256(json.dumps(want.__dict__, sort_keys=True).encode()).hexdigest()
        assert load_checkpoint(out)[1]["config_digest"] == "sha256:" + digest


@pytest.mark.parametrize("key, value", [("augmentation", "rsmix"), ("lambda", 0.3)])
def test_train_config_alias_key_is_unknown(workspace, tmp_path, capsys, key, value):
    # a train config key is the TrainConfig field it sets, and only that
    _, _, data, _ = workspace
    config = tmp_path / "c.json"
    config.write_text(json.dumps({key: value, "epochs": 1}))
    out = tmp_path / "m.tpn"
    code = main(["train", str(data / "manifest.json"), "--out", str(out),
                 "--batch-size", "4", "--config", str(config)])
    events = _read_json_lines(capsys.readouterr().err)
    assert code == 2
    assert [e["event"] for e in events] == ["error"]
    accepted = ["augment", "batch_size", "epochs", "lr", "mix", "mix_lam", "seed", "smoothing"]
    assert f"has unknown keys [{key!r}]; accepted: {accepted}" in events[0]["error"]
    assert not out.exists()


@pytest.mark.parametrize("mix", ["none", "cutmix_r", "mixup"])
def test_train_mix_needs_clouds_of_one_size(tmp_path, capsys, mix):
    # 7 clouds of 128 points and one of 96: which pairs a batch mixes depends
    # on the seed, so mixing refuses the set before the first step
    src = tmp_path / "in"
    for i in range(8):
        (src / f"c{i % 2}").mkdir(parents=True, exist_ok=True)
        save_cloud(random_cloud(96 if i == 5 else 128, i), src / f"c{i % 2}" / f"s{i}.ply")
    data = tmp_path / "data"
    assert main(["gen", str(src), str(data), "--kinds", "gaussian", "--severities", "1",
                 "--points", "128"]) == 0
    capsys.readouterr()
    out = tmp_path / "m.tpn"
    code = main(["train", str(data / "manifest.json"), "--out", str(out), "--epochs", "1",
                 "--batch-size", "4", "--mix", mix])
    events = _read_json_lines(capsys.readouterr().err)
    if mix == "none":
        assert code == 0 and out.exists()
        return
    assert code == 2
    assert [e["event"] for e in events] == ["train_start", "error"]
    assert f"mix {mix!r} needs clouds of one size" in events[-1]["error"]
    assert "sizes [96, 128]" in events[-1]["error"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "apply", "train"])
def test_config_unknown_key_is_data_error(workspace, tmp_path, capsys, command):
    _, src, data, _ = workspace
    cloud = tmp_path / "in.ply"
    save_cloud(random_cloud(64, seed=4), cloud)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"point": 64, "optimizer": "sgd"}))
    out = tmp_path / "out"
    argv, accepted = {
        "gen": (["gen", str(src), str(out), "--kinds", "shear", "--severities", "1"],
                "'points'"),
        "apply": (["apply", str(cloud), str(out), "--kind", "gaussian"], "'points'"),
        "train": (["train", str(data / "manifest.json"), "--out", str(out)], "'mix_lam'"),
    }[command]
    code = main([*argv, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert "unknown keys ['optimizer', 'point']" in err and accepted in err
    assert not out.exists()


@pytest.mark.parametrize("entry", [
    {"epochs": [1]}, {"batch_size": 4.0}, {"lr": "0.01"}, {"mix": 1}, {"augment": "no"},
])
def test_train_config_wrong_type_is_data_error(workspace, tmp_path, capsys, entry):
    _, _, data, _ = workspace
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(entry))
    code = main(["train", str(data / "manifest.json"), "--out", str(tmp_path / "m.tpn"),
                 "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and repr(next(iter(entry))) in err
    assert not (tmp_path / "m.tpn").exists()


def test_train_config_outside_choices_is_data_error(workspace, tmp_path, capsys):
    _, _, data, _ = workspace
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mix": "cutmix"}))
    code = main(["train", str(data / "manifest.json"), "--out", str(tmp_path / "m.tpn"),
                 "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "config key 'mix' must be one of" in err
    assert not (tmp_path / "m.tpn").exists()


def test_train_mix_lam_outside_unit_interval_fails_before_loading(workspace, tmp_path, capsys):
    _, _, data, _ = workspace
    code = main(["train", str(data / "manifest.json"), "--out", str(tmp_path / "m.tpn"),
                 "--mix-lam", "1.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "mix_lam must be in [0, 1], got 1.5" in err
    assert "train_start" not in err
    assert not (tmp_path / "m.tpn").exists()


_SCALAR = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**1024)
           | st.floats() | st.text(max_size=8))
_JSON = _SCALAR | st.lists(_SCALAR, max_size=3) | st.dictionaries(st.text(max_size=8), _SCALAR,
                                                                  max_size=3)


# Every knob a user can turn: each subcommand's flags (positionals as their
# dest) and --config keys.  Adding one is an edit here.
KNOBS = {
    "gen": ({"input_dir", "output_dir", "--kinds", "--severities", "--points", "--seed",
             "--workers", "--table", "--config"},
            {"kinds", "severities", "points", "seed", "workers", "table"}),
    "apply": ({"input", "output", "--kind", "--severity", "--seed", "--points", "--table",
               "--config", "--ascii", "--no-normalize", "--sidecar"},
              {"kind", "severity", "seed", "points", "table"}),
    "train": ({"manifest", "--out", "--epochs", "--batch-size", "--lr", "--smoothing", "--mix",
               "--mix-lam", "--seed", "--config", "--no-augment"},
              {"epochs", "batch_size", "lr", "smoothing", "mix", "mix_lam", "seed", "augment"}),
    "eval": ({"model", "manifest", "--out", "--adapt", "--adapt-batch", "--blend", "--tent-lr",
              "--tent-steps"}, set()),
    "attack": ({"model", "manifest", "--out", "--epsilon", "--alpha", "--steps", "--seed"},
               set()),
    "bench": ({"predictions", "manifest", "--out", "--format"}, set()),
    "export": ({"input", "output", "--ascii"}, set()),
}


def _flags(parser) -> set:
    return {a.option_strings[-1] if a.option_strings else a.dest for a in parser._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))}


def test_knob_inventory():
    from dataclasses import fields

    from pccorrupt import cli

    parser = cli.build_parser()
    assert _flags(parser) == {"--version"}
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    tables = {"gen": cli.GEN_OPTIONS, "apply": cli.APPLY_OPTIONS, "train": cli.TRAIN_OPTIONS}
    assert set(commands.choices) == set(KNOBS)
    for name, sub in commands.choices.items():
        flags, keys = KNOBS[name]
        assert (_flags(sub), set(tables.get(name, ()))) == (flags, keys), name
    assert sum(len(keys) for _, keys in KNOBS.values()) == 19
    assert set(cli.TRAIN_OPTIONS) == {f.name for f in fields(network.TrainConfig)}


def test_no_module_reads_the_environment():
    import ast
    from pathlib import Path

    import pccorrupt

    readers = []
    for path in sorted(Path(pccorrupt.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [a.name for a in node.names if a.name in ("environ", "getenv")]
            else:
                continue
            readers += [f"{path.name}:{node.lineno} {name}" for name in names]
    assert readers == []


def test_readme_layout_lists_every_module():
    from pathlib import Path

    import pccorrupt

    package = Path(pccorrupt.__file__).parent
    readme = (package.parents[1] / "README.md").read_text()
    layout = readme.split("## Layout", 1)[1].split("```")[1]
    listed = {line.split()[0] for line in layout.splitlines() if line.startswith("  ")}
    # __init__ re-exports the API and _version holds the version string
    modules = {p.name for p in package.glob("*.py")} - {"__init__.py", "_version.py"}
    assert listed == modules


@pytest.mark.parametrize("command", ["gen", "apply", "train"])
def test_config_fuzz_exits_typed(tmp_path, monkeypatch, command):
    from pccorrupt import cli

    accepted = {"gen": cli.GEN_OPTIONS, "apply": cli.APPLY_OPTIONS,
                "train": cli.TRAIN_OPTIONS}[command]
    argv = {"gen": ["gen", "missing", "out"],
            "apply": ["apply", "missing.ply", "out.ply"],
            "train": ["train", "missing.json", "--out", "m.tpn"]}[command]
    monkeypatch.chdir(tmp_path)  # a path-valued key then names nothing outside tmp_path

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.sampled_from(sorted(accepted)), _JSON, max_size=4),
           st.dictionaries(st.text(max_size=8), _JSON, max_size=1))
    def check(known, other):
        config = {**other, **known}  # `other` is mostly empty or an unknown key
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert main([*argv, "--config", "c.json"]) in (1, 2)

    check()


def test_eval_writes_predictions(workspace, tmp_path, capsys):
    _, _, data, model = workspace
    out = tmp_path / "preds.csv"
    code = main(["eval", str(model), str(data / "manifest.json"),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    from pccorrupt import ingest_predictions

    records = ingest_predictions(out)
    # 4 samples x (clean + 2 kinds x 2 severities)
    assert len(records) == 4 * 5
    cells = {(r.corruption, r.severity) for r in records}
    assert ("clean", 0) in cells and ("cutout", 3) in cells
    events = _read_json_lines(captured.err)
    evaluated = [e for e in events if e["event"] == "cell_evaluated"]
    assert len(evaluated) == 5
    assert all(e["min_chunk_classes"] is None for e in evaluated)  # nothing adapted
    assert "ER" in captured.out


@pytest.mark.parametrize("adapt", ["bn", "tent"])
def test_eval_with_adaptation(workspace, tmp_path, capsys, adapt):
    _, _, data, model = workspace
    out = tmp_path / f"preds_{adapt}.csv"
    code = main(["eval", str(model), str(data / "manifest.json"),
                 "--out", str(out), "--adapt", adapt, "--adapt-batch", "4"])
    events = _read_json_lines(capsys.readouterr().err)
    assert code == 0
    from pccorrupt import ingest_predictions

    assert len(ingest_predictions(out)) == 20
    # one sample of each of the 4 classes per cell: its one chunk holds all 4
    cells = [e for e in events if e["event"] == "cell_evaluated"]
    assert [e["min_chunk_classes"] for e in cells] == [4] * 5


def test_eval_logs_class_sorted_adaptation_chunks(workspace, tmp_path, capsys):
    """Manifest order groups samples by class, so with 2 samples per class
    every adapted chunk of 2 holds a single class."""
    _, _, _, model = workspace
    src, data = tmp_path / "src", tmp_path / "data"
    write_shape_dataset(src, n_per_class=2, seed=2)
    assert main(["gen", str(src), str(data), "--kinds", "gaussian", "--severities", "1",
                 "--points", "64", "--seed", "3"]) == 0
    capsys.readouterr()
    code = main(["eval", str(model), str(data / "manifest.json"), "--out",
                 str(tmp_path / "p.csv"), "--adapt", "bn", "--adapt-batch", "2"])
    events = _read_json_lines(capsys.readouterr().err)
    assert code == 0
    cells = [e for e in events if e["event"] == "cell_evaluated"]
    assert [(e["corruption"], e["min_chunk_classes"]) for e in cells] == [
        ("clean", 1), ("gaussian", 1)]


@pytest.mark.parametrize("adapt", ["bn", "tent"])
def test_eval_single_cloud_chunk_logs_adaptation_skipped(workspace, tmp_path, capsys, adapt):
    # 4 clouds per cell in chunks of 3 leave a 1-cloud chunk in each of the
    # 5 cells; that cloud is predicted by the unadapted model
    _, _, data, model = workspace
    out, plain = tmp_path / "adapted.csv", tmp_path / "plain.csv"
    code = main(["eval", str(model), str(data / "manifest.json"),
                 "--out", str(out), "--adapt", adapt, "--adapt-batch", "3"])
    events = _read_json_lines(capsys.readouterr().err)
    assert code == 0
    skipped = [e for e in events if e["event"] == "adaptation_skipped"]
    assert len(skipped) == 5
    assert {(e["corruption"], e["severity"]) for e in skipped} == {
        ("clean", 0), ("gaussian", 1), ("gaussian", 3), ("cutout", 1), ("cutout", 3)}
    assert all(e["n"] == 1 for e in skipped)
    main(["eval", str(model), str(data / "manifest.json"), "--out", str(plain)])
    capsys.readouterr()
    from pccorrupt import ingest_predictions

    unadapted = {(r.sample_id, r.corruption, r.severity): r.pred_label
                 for r in ingest_predictions(plain)}
    records = ingest_predictions(out)
    assert len(records) == 20
    for r in records[3::4]:  # the last cloud of each cell
        assert r.pred_label == unadapted[(r.sample_id, r.corruption, r.severity)]


@pytest.mark.parametrize("bad", [["bn", "--blend", "0"], ["bn", "--blend", "nan"],
                                 ["tent", "--tent-steps", "0"], ["tent", "--tent-lr", "nan"]])
def test_eval_checks_adaptation_settings_before_the_first_cell(workspace, tmp_path, capsys,
                                                               bad):
    # a setting is checked before the chunk size, so --adapt-batch 1 does not hide it
    _, _, data, model = workspace
    out = tmp_path / "p.csv"
    code = main(["eval", str(model), str(data / "manifest.json"), "--out", str(out),
                 "--adapt-batch", "1", "--adapt", *bad])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "cell_evaluated" not in err and "adapt-batch" not in err
    assert not out.exists()


@pytest.mark.parametrize("other", [["none", "--tent-lr", "nan", "--blend", "0"],
                                   ["bn", "--tent-steps", "0"], ["tent", "--blend", "0"]])
def test_eval_ignores_the_settings_of_other_adaptations(workspace, tmp_path, capsys, other):
    _, _, data, model = workspace
    out = tmp_path / "p.csv"
    code = main(["eval", str(model), str(data / "manifest.json"), "--out", str(out),
                 "--adapt", *other])
    capsys.readouterr()
    assert code == 0 and out.exists()


def test_eval_and_bench_print_the_same_error_rates(workspace, tmp_path, capsys):
    """ER_cor is the mean over kinds of each kind's mean cell rate, which
    differs from the pooled corrupted error when cells differ in size."""
    import re
    import shutil
    from collections import Counter

    from pccorrupt import ingest_predictions

    _, shapes, _, model = workspace
    src, data, preds = tmp_path / "src", tmp_path / "data", tmp_path / "p.csv"
    shutil.copytree(shapes, src)
    # 256 points: local_density_dec refuses this cloud at s4 and s5
    save_cloud(random_cloud(256, seed=5), src / "box" / "sparse.ply")
    assert main(["gen", str(src), str(data), "--kinds", "local_density_dec",
                 "--points", "1024", "--seed", "3"]) == 3
    capsys.readouterr()
    assert main(["eval", str(model), str(data / "manifest.json"), "--out", str(preds)]) == 0
    eval_out = capsys.readouterr().out
    assert main(["bench", str(preds), str(data / "manifest.json"),
                 "--out", str(tmp_path / "r.json")]) == 0
    bench_out = capsys.readouterr().out

    sizes = Counter((r.corruption, r.severity) for r in ingest_predictions(preds))
    assert [sizes["local_density_dec", s] for s in range(1, 6)] == [5, 5, 5, 4, 4]
    rates = re.search(r"ER_clean=\S+  ER_cor=\S+", bench_out).group()
    assert rates in eval_out


def test_eval_truncated_checkpoint_is_data_error(workspace, tmp_path, capsys):
    _, _, data, model = workspace
    short = tmp_path / "short.tpn"
    short.write_bytes(model.read_bytes()[:6])
    code = main(["eval", str(short), str(data / "manifest.json"),
                 "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "header" in err


def test_eval_checkpoint_declaring_huge_layers_is_data_error(workspace, tmp_path, capsys):
    _, _, data, model = workspace
    blob = model.read_bytes()
    (n,) = struct.unpack("<I", blob[4:8])
    meta = json.loads(blob[8 : 8 + n])
    meta["point_dims"] = [2**40]
    text = json.dumps(meta).encode()
    huge = tmp_path / "huge.tpn"
    huge.write_bytes(blob[:4] + struct.pack("<I", len(text)) + text + blob[8 + n :])
    code = main(["eval", str(huge), str(data / "manifest.json"),
                 "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "tensor bytes" in err


def test_eval_non_finite_checkpoint_is_data_error(workspace, tmp_path, capsys):
    from pccorrupt import load_checkpoint, save_checkpoint

    _, _, data, model = workspace
    state, meta = load_checkpoint(model)
    state.layers[1].w[0, 0] = np.nan
    state.layers[-1].var[0] = np.inf
    bad = tmp_path / "bad.tpn"
    save_checkpoint(state, bad, class_names=meta["class_names"])
    out = tmp_path / "p.csv"
    code = main(["eval", str(bad), str(data / "manifest.json"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "'point1.w' holds non-finite values" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "attack"])
def test_negative_variance_checkpoint_is_data_error(workspace, tmp_path, capsys, command):
    from pccorrupt import load_checkpoint, save_checkpoint

    _, _, data, model = workspace
    state, meta = load_checkpoint(model)
    state.layers[0].var[0] = -5.0
    bad = tmp_path / "bad.tpn"
    save_checkpoint(state, bad, class_names=meta["class_names"])
    out = tmp_path / "out"
    code = main([command, str(bad), str(data / "manifest.json"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "'point0.bn.var' holds negative variances" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "attack"])
@pytest.mark.parametrize("names", [lambda names: [[1], *names[1:]], lambda names: "abc"],
                         ids=["list_entry", "string"])
def test_checkpoint_bad_class_names_is_data_error(workspace, tmp_path, capsys, command, names):
    from pccorrupt import load_checkpoint, save_checkpoint

    _, _, data, model = workspace
    state, meta = load_checkpoint(model)
    bad = tmp_path / "bad.tpn"
    save_checkpoint(state, bad, class_names=names(meta["class_names"]))
    out = tmp_path / "out"
    code = main([command, str(bad), str(data / "manifest.json"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "class_names" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["eval", "--adapt", "none"], ["eval", "--adapt", "bn"],
                                  ["attack"]])
@pytest.mark.parametrize("edit, message", [
    (lambda samples: [], "manifest lists no samples"),
    (lambda samples: [*samples[:-1], {**samples[-1], "class_name": "nope"}],
     "has class 'nope' unknown to the model"),
], ids=["no_samples", "unknown_class"])
def test_manifest_the_model_cannot_serve_is_data_error(workspace, tmp_path, capsys, argv,
                                                      edit, message):
    # refused before any cloud is read or any output is written
    _, _, data, model = workspace
    manifest = json.loads((data / "manifest.json").read_text())
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({**manifest, "samples": edit(manifest["samples"])}))
    out = tmp_path / "out"
    code = main([argv[0], str(model), str(bad), "--out", str(out), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "attack"])
def test_manifest_with_no_samples_is_data_error(workspace, tmp_path, capsys, command):
    _, _, data, model = workspace
    manifest = json.loads((data / "manifest.json").read_text())
    empty = tmp_path / "manifest.json"
    empty.write_text(json.dumps({**manifest, "samples": []}))
    out = tmp_path / "out"
    inputs = [str(empty)] if command == "train" else [str(model), str(empty)]
    code = main([command, *inputs, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "manifest lists no samples" in err
    assert not out.exists()


def test_attack_sample_id_outside_out_is_data_error(workspace, tmp_path, capsys):
    _, _, data, model = workspace
    manifest = json.loads((data / "manifest.json").read_text())
    for sample in manifest["samples"]:
        sample["clean"]["path"] = str(data / sample["clean"]["path"])
    manifest["samples"][0]["sample_id"] = "../../escaped"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code = main(["attack", str(model), str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path / "a" / "b" / "adv"), "--steps", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "samples[0]" in err
    assert not list(tmp_path.rglob("escaped.ply"))


@pytest.mark.parametrize("adapt", [["bn", "--blend", "0.5"], ["tent"]])
def test_eval_adapted_predictions_equal_adapt_then_predict(workspace, tmp_path, capsys, adapt):
    from pccorrupt import (PredictionRecord, bn_adapt, iter_cells, load_checkpoint,
                           load_manifest, predict, tent_adapt, write_predictions)

    _, _, data, model = workspace
    out = tmp_path / "eval.csv"
    # chunks of 3 over 4 clouds per cell: one adapted chunk, one left unadapted
    code = main(["eval", str(model), str(data / "manifest.json"), "--out", str(out),
                 "--adapt-batch", "3", "--adapt", *adapt])
    capsys.readouterr()
    assert code == 0

    state, meta = load_checkpoint(model)
    index = {name: i for i, name in enumerate(meta["class_names"])}
    records = []
    for kind, severity, batch in iter_cells(load_manifest(data / "manifest.json"), data):
        for start in range(0, len(batch), 3):
            chunk = batch[start : start + 3]
            clouds = [cloud for _, _, cloud in chunk]
            adapted = state
            if len(clouds) > 1:
                adapted = (bn_adapt(state, clouds, blend=0.5) if adapt[0] == "bn"
                           else tent_adapt(state, clouds))[0]
            for (sid, cls, _), pred in zip(chunk, predict(adapted, clouds)):
                records.append(PredictionRecord(sid, kind, severity, index[cls], int(pred)))
    expected = tmp_path / "expected.csv"
    write_predictions(records, expected)
    assert out.read_bytes() == expected.read_bytes()


def test_bench_json_and_markdown(workspace, tmp_path, capsys):
    _, _, data, model = workspace
    preds = tmp_path / "p.csv"
    main(["eval", str(model), str(data / "manifest.json"), "--out", str(preds)])
    capsys.readouterr()

    report = tmp_path / "r.json"
    code = main(["bench", str(preds), str(data / "manifest.json"),
                 "--out", str(report)])
    captured = capsys.readouterr()
    assert code == 0
    assert "ER_clean" in captured.out
    payload = json.loads(report.read_text())
    assert payload["report_version"] == 3

    md = tmp_path / "r.md"
    code = main(["bench", str(preds), str(data / "manifest.json"),
                 "--out", str(md), "--format", "markdown"])
    capsys.readouterr()
    assert code == 0
    assert "| metric |" in md.read_text()


def test_bench_missing_predictions_is_data_error(workspace, tmp_path, capsys):
    _, _, data, _ = workspace
    code = main(["bench", str(tmp_path / "nope.csv"), str(data / "manifest.json")])
    capsys.readouterr()
    assert code == 2


def test_bench_oversized_csv_field_is_data_error(workspace, tmp_path, capsys):
    _, _, data, _ = workspace
    preds = tmp_path / "p.csv"
    preds.write_text("sample_id,corruption,severity,true_label,pred_label\n"
                     + "a" * 131_073 + ",clean,0,0,0\n")
    code = main(["bench", str(preds), str(data / "manifest.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "row 2" in err


@pytest.mark.parametrize("payload", [
    {"manifest_version": 1},
    [1],
    {"manifest_version": 1, "seed": 0, "point_budget": 64,
     "severity_table_digest": "sha256:0", "samples": [1]},
])
def test_bench_malformed_manifest_is_data_error(workspace, tmp_path, capsys, payload):
    _, _, data, model = workspace
    preds = tmp_path / "p.csv"
    main(["eval", str(model), str(data / "manifest.json"), "--out", str(preds)])
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["bench", str(preds), str(bad), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "manifest" in err


def test_attack_reports_accuracies(workspace, tmp_path, capsys):
    _, _, data, model = workspace
    out = tmp_path / "adv"
    code = main(["attack", str(model), str(data / "manifest.json"),
                 "--out", str(out), "--steps", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert len(list(out.glob("*.ply"))) == 4
    assert "clean_acc" in captured.out and "adv_acc" in captured.out


def test_attack_adversarial_clouds_stay_in_ball(workspace, tmp_path, capsys):
    _, _, data, model = workspace
    out = tmp_path / "adv2"
    main(["attack", str(model), str(data / "manifest.json"),
          "--out", str(out), "--steps", "1", "--epsilon", "0.02", "--alpha", "0.02"])
    capsys.readouterr()
    manifest = json.loads((data / "manifest.json").read_text())
    for sample in manifest["samples"]:
        clean = load_cloud(data / sample["clean"]["path"])
        adv = load_cloud(out / f"{sample['sample_id']}.ply")
        # both files are float32 on disk; compare at float32 resolution
        assert np.abs(adv.points - clean.points).max() <= 0.02 + 1e-6


def test_eval_and_attack_log_timings_to_stderr_only(workspace, tmp_path, capsys):
    _, _, data, model = workspace
    manifest = str(data / "manifest.json")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["eval", str(model), manifest, "--out", str(first)]) == 0
    evaluated = [e for e in _read_json_lines(capsys.readouterr().err)
                 if e["event"] == "cell_evaluated"]
    assert main(["attack", str(model), manifest, "--out", str(tmp_path / "adv"),
                 "--steps", "1"]) == 0
    events = _read_json_lines(capsys.readouterr().err)
    attacked = [e for e in events if e["event"] == "attacked"]
    finished = [e for e in events if e["event"] == "attack_finished"]
    assert len(evaluated) == 5 and len(attacked) == 4 and len(finished) == 1
    assert events[-1] is finished[0]
    assert finished[0]["n"] == 4 and finished[0]["workers"] == min(4, _cpus.usable_cpus())
    timings = [e[f] for e in evaluated for f in ("ms", "clouds_per_s")]
    timings += [e["ms"] for e in attacked] + [finished[0][f] for f in ("ms", "clouds_per_s")]
    assert all(type(t) is float and 0.0 <= t < math.inf for t in timings), timings
    # the predictions file carries no timing: a second run writes the same bytes
    assert main(["eval", str(model), manifest, "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_attack_bytes_and_logs_do_not_depend_on_the_cpu_count(
    workspace, tmp_path, capsys, monkeypatch
):
    _, _, data, model = workspace
    runs = []
    for cpus in (1, 4):
        monkeypatch.setattr(_cpus, "usable_cpus", lambda: cpus)
        out = tmp_path / f"adv{cpus}"
        assert main(["attack", str(model), str(data / "manifest.json"),
                     "--out", str(out), "--steps", "2"]) == 0
        captured = capsys.readouterr()
        events = _read_json_lines(captured.err)
        attacked = [{k: v for k, v in e.items() if k != "ms"}
                    for e in events if e["event"] == "attacked"]
        workers = [e["workers"] for e in events if e["event"] == "attack_finished"]
        assert workers == [min(4, cpus)]
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((files, captured.out.replace(str(out), "<out>"), attacked))
    assert len(runs[0][0]) == 4 and len(runs[0][2]) == 4
    assert runs[0] == runs[1]


@pytest.mark.parametrize("tasks", ["succeed", "fail"])
def test_attack_caps_openblas_while_its_workers_run_then_restores_it(
    workspace, tmp_path, capsys, monkeypatch, openblas_at_two_threads, tasks
):
    _, _, data, model = workspace
    monkeypatch.setattr(_cpus, "usable_cpus", lambda: 2)
    before = openblas_at_two_threads()
    inside = []
    attack = network.pgd_attack

    def observing_attack(*args, **kwargs):
        # read from the worker thread: the cap is set from the main thread
        inside.append(openblas_at_two_threads())
        if tasks == "fail":
            raise ValueError("attack failed")
        return attack(*args, **kwargs)

    monkeypatch.setattr(network, "pgd_attack", observing_attack)
    code = main(["attack", str(model), str(data / "manifest.json"),
                 "--out", str(tmp_path / "adv"), "--steps", "1"])
    err = capsys.readouterr().err
    events = _read_json_lines(err)
    assert code == (2 if tasks == "fail" else 0)
    assert inside and all(counts == [1] * len(before) for counts in inside)
    assert openblas_at_two_threads() == before == [2] * len(before)
    assert [e for e in events if e["event"] == "blas_threads"] == [
        {"event": "blas_threads", "libraries": len(before), "before": before, "used": 1}
    ]
    if tasks == "fail":
        assert events[-1] == {"event": "error", "error": "attack failed",
                              "error_type": "ValueError"}
        assert not [e for e in events if e["event"] in ("attacked", "attack_finished")]


@pytest.mark.parametrize("command", ["train", "eval", "attack", "bench"])
def test_manifest_with_a_repeated_sample_id_is_data_error(workspace, tmp_path, capsys, command):
    _, _, data, model = workspace
    manifest = json.loads((data / "manifest.json").read_text())
    for sample in manifest["samples"]:
        for entry in (sample["clean"], *(e for by_sev in sample["corrupted"].values()
                                         for e in by_sev.values())):
            entry["path"] = str(data / entry["path"])
    manifest["samples"][3]["sample_id"] = manifest["samples"][1]["sample_id"]
    path = tmp_path / "in" / "manifest.json"
    path.parent.mkdir()
    path.write_text(json.dumps(manifest))
    preds = tmp_path / "in" / "p.csv"
    if command == "bench":
        assert main(["eval", str(model), str(data / "manifest.json"), "--out", str(preds)]) == 0
        capsys.readouterr()
    out = tmp_path / "out"
    argv = {
        "train": ["train", str(path)],
        "eval": ["eval", str(model), str(path)],
        "attack": ["attack", str(model), str(path)],
        "bench": ["bench", str(preds), str(path)],
    }[command]
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "samples[1] and samples[3]" in err
    assert not out.exists()


# a log field that holds a duration or a rate: ms, s, p50_ms, mix_s, clouds_per_s, ...
_TIMING_FIELD = re.compile(r"(^|_)(ms|s)$|time")


def _keys(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


def test_every_command_logs_json_events_and_keeps_timings_out_of_its_files(tmp_path, capsys):
    src, data = tmp_path / "src", tmp_path / "data"
    write_shape_dataset(src, n_per_class=1, seed=2)
    model, preds = tmp_path / "model.tpn", tmp_path / "p.csv"
    clean = data / "clean" / "box_box_0000.ply"
    runs = [
        ["gen", str(src), str(data), "--kinds", "gaussian,occlusion", "--severities", "1",
         "--points", "96", "--workers", "2"],
        ["apply", str(clean), str(tmp_path / "cut.ply"), "--kind", "cutout",
         "--severity", "1", "--sidecar", str(tmp_path / "cut.json")],
        ["train", str(data / "manifest.json"), "--out", str(model), "--epochs", "1",
         "--batch-size", "4", "--mix", "mixup"],
        ["eval", str(model), str(data / "manifest.json"), "--out", str(preds), "--adapt", "bn"],
        ["attack", str(model), str(data / "manifest.json"), "--out", str(tmp_path / "adv"),
         "--steps", "1"],
        ["bench", str(preds), str(data / "manifest.json"), "--out", str(tmp_path / "r.json")],
        ["export", str(clean), str(tmp_path / "clean.ply"), "--ascii"],
    ]
    logged = set()
    for argv in runs:
        assert main(argv) == 0, argv
        for line in capsys.readouterr().err.splitlines():
            event = json.loads(line)
            assert isinstance(event, dict) and isinstance(event.get("event"), str), line
            logged |= {key for key in event if _TIMING_FIELD.search(key)}
    assert {"ms", "s", "mix_s", "p50_ms", "cells_per_s", "clouds_per_s"} <= logged
    files = [data / "manifest.json", tmp_path / "cut.json", *data.glob("*/*/*.json")]
    assert len(files) == 2 + 2 * 4
    for path in files:
        timed = [key for key in _keys(json.loads(path.read_text())) if _TIMING_FIELD.search(key)]
        assert timed == [], path


@pytest.mark.parametrize("case,expected", [
    ("unknown_flag", 1), ("bad_severity", 1), ("missing_manifest", 2),
    ("ill_conditioned", 2), ("refused_cell", 3),
])
def test_every_failing_command_logs_only_json_events(tmp_path, capsys, case, expected):
    cloud, out = tmp_path / "in.ply", tmp_path / "out.ply"
    points = random_cloud(200, seed=4).points
    if case == "ill_conditioned":
        points = points * [1e6, 1.0, 1.0]  # an RBF system that no lattice conditions
    save_cloud(PointCloud(points), cloud)
    if case == "refused_cell":
        (tmp_path / "src").mkdir()
        save_cloud(random_cloud(20, 1), tmp_path / "src" / "small.ply")  # too few for clusters
    argv = {
        "unknown_flag": ["apply", str(cloud), str(out), "--kind", "gaussian", "--bogus"],
        "bad_severity": ["apply", str(cloud), str(out), "--kind", "gaussian", "--severity", "9"],
        "missing_manifest": ["train", str(tmp_path / "nope.json")],
        "ill_conditioned": ["apply", str(cloud), str(out), "--kind", "rbf", "--no-normalize"],
        "refused_cell": ["gen", str(tmp_path / "src"), str(tmp_path / "data"),
                         "--kinds", "local_density_inc", "--severities", "5"],
    }[case]
    assert main(argv) == expected
    events = []
    for line in capsys.readouterr().err.splitlines():
        event = json.loads(line)
        assert isinstance(event, dict) and isinstance(event.get("event"), str), line
        events.append(event)
    failure = {1: "usage_error", 2: "error", 3: "task_failed"}[expected]
    assert [e["event"] for e in events].count(failure) == 1
    if case == "ill_conditioned":
        assert events[-1]["error_type"] == "IllConditionedError" and not out.exists()


def test_eval_byte_flipped_checkpoint_is_data_error(workspace, tmp_path, capsys):
    _, _, data, model = workspace
    bad = tmp_path / "flipped.tpn"
    raw = bytearray(model.read_bytes())
    raw[9] ^= 0x80  # the metadata's first character is no longer valid UTF-8
    bad.write_bytes(bytes(raw))
    code = main(["eval", str(bad), str(data / "manifest.json"),
                 "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "checkpoint metadata is not valid JSON" in err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("command", ["train", "gen_config", "gen_table", "apply_table", "eval"])
def test_deeply_nested_json_is_data_error(workspace, tmp_path, capsys, command):
    from pccorrupt.network import CHECKPOINT_MAGIC

    _, src, data, _ = workspace
    nested = b"[" * 100_000 + b"]" * 100_000
    bad = tmp_path / "nested.json"
    bad.write_bytes(nested)
    checkpoint = tmp_path / "nested.tpn"
    checkpoint.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(nested)) + nested)
    out = tmp_path / "out"
    argv = {
        "train": ["train", str(bad), "--out", str(out)],
        "gen_config": ["gen", str(src), str(out), "--config", str(bad)],
        "gen_table": ["gen", str(src), str(out), "--table", str(bad)],
        "apply_table": ["apply", str(next(src.rglob("*.off"))), str(out), "--kind", "shear",
                        "--table", str(bad)],
        "eval": ["eval", str(checkpoint), str(data / "manifest.json"), "--out", str(out)],
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "is not valid JSON" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "apply", "train", "eval", "attack", "bench", "export"])
def test_directory_or_overflowing_argument_is_data_error(workspace, tmp_path, capsys, command):
    _, src, data, model = workspace
    manifest, mesh = str(data / "manifest.json"), str(next(src.rglob("*.off")))
    out = tmp_path / "out"
    argv = {
        "gen": ["gen", str(src), str(out), "--config", str(src)],
        "apply": ["apply", mesh, str(out), "--kind", "shear", "--points", str(10**20)],
        "train": ["train", manifest, "--out", str(out), "--config", str(src)],
        "eval": ["eval", str(src), manifest, "--out", str(out)],
        "attack": ["attack", str(model), manifest, "--out", str(out), "--epsilon", "inf"],
        "bench": ["bench", str(src), manifest, "--out", str(out)],
        "export": ["export", str(src), str(out)],
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert not out.exists()


def test_non_finite_learning_rate_is_data_error(workspace, tmp_path, capsys):
    _, _, data, model = workspace
    out = tmp_path / "out"
    for argv in (["train", str(data / "manifest.json"), "--lr", "nan"],
                 ["eval", str(model), str(data / "manifest.json"), "--adapt", "tent",
                  "--tent-lr", "inf"]):
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and "lr must be finite" in err
        assert not out.exists()


@pytest.mark.parametrize("size", ["0", "-1"])
def test_eval_adapt_batch_below_one_is_data_error(workspace, tmp_path, capsys, size):
    _, _, data, model = workspace
    out = tmp_path / "p.csv"
    code = main(["eval", str(model), str(data / "manifest.json"), "--out", str(out),
                 "--adapt-batch", size])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "--adapt-batch" in err
    assert not out.exists()


@pytest.mark.parametrize("adapt", ["bn", "tent"])
@pytest.mark.parametrize("short", ["chunk", "manifest"])
def test_eval_adaptation_that_could_never_run_is_data_error(workspace, tmp_path, capsys,
                                                            adapt, short):
    # below MIN_ADAPT_BATCH clouds per chunk every cloud would be predicted
    # unadapted, and the predictions would be those of --adapt none
    _, src, data, model = workspace
    manifest, size = data / "manifest.json", str(network.MIN_ADAPT_BATCH - 1)
    if short == "manifest":
        first = sorted(src.rglob("*.off"))[0]
        one = tmp_path / "one" / first.parent.name
        one.mkdir(parents=True)
        (one / first.name).write_bytes(first.read_bytes())
        assert main(["gen", str(one.parent), str(tmp_path / "data"), "--kinds", "gaussian",
                     "--severities", "1", "--points", "256"]) == 0
        manifest, size = tmp_path / "data" / "manifest.json", "32"
    capsys.readouterr()
    out = tmp_path / "p.csv"
    code = main(["eval", str(model), str(manifest), "--out", str(out), "--adapt", adapt,
                 "--adapt-batch", size])
    events = _read_json_lines(capsys.readouterr().err)
    assert code == 2
    assert [e["event"] for e in events] == ["error"]
    assert f"{network.MIN_ADAPT_BATCH}" in events[0]["error"]
    assert not out.exists()


def test_eval_without_adaptation_takes_chunks_of_one(workspace, tmp_path, capsys):
    _, _, data, model = workspace
    out = tmp_path / "p.csv"
    code = main(["eval", str(model), str(data / "manifest.json"), "--out", str(out),
                 "--adapt", "none", "--adapt-batch", "1"])
    capsys.readouterr()
    assert code == 0 and out.exists()
