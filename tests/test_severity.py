"""Corruption registry and the severity -> parameter table."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccorrupt import (
    CorruptionKind,
    CorruptionSpec,
    MESH_KINDS,
    RunConfig,
    SeverityTable,
)
from pccorrupt.cli import main


def test_fifteen_kinds_in_three_families():
    assert len(list(CorruptionKind)) == 15
    families = [k.family for k in CorruptionKind]
    # declaration order keeps each family contiguous (the report header relies on it)
    assert families == ["Density"] * 5 + ["Noise"] * 5 + ["Transformation"] * 5


def test_ordinals_are_stable_and_distinct():
    ordinals = [k.ordinal for k in CorruptionKind]
    assert ordinals == list(range(15))
    # the ordinal feeds the RNG key derivation, so pin the first few
    assert CorruptionKind.OCCLUSION.ordinal == 0
    assert CorruptionKind.LIDAR.ordinal == 1


def test_from_name():
    assert CorruptionKind.from_name("cutout") is CorruptionKind.CUTOUT
    with pytest.raises(ValueError) as err:
        CorruptionKind.from_name("nosuch")
    assert "nosuch" in str(err.value)


def test_mesh_kinds():
    assert MESH_KINDS == {CorruptionKind.OCCLUSION, CorruptionKind.LIDAR}


def test_spec_validation():
    CorruptionSpec(CorruptionKind.UNIFORM, 1, seed=0)
    for bad in (0, 6, -1):
        with pytest.raises(ValueError):
            CorruptionSpec(CorruptionKind.UNIFORM, bad, seed=0)


def test_default_table_complete():
    table = SeverityTable.default()
    for kind in CorruptionKind:
        for s in range(1, 6):
            assert isinstance(table.params(kind, s), dict)
    with pytest.raises(ValueError):
        table.params(CorruptionKind.UNIFORM, 0)


def test_default_table_pinned_values():
    table = SeverityTable.default()
    assert table.params(CorruptionKind.UNIFORM, 2)["scale"] == pytest.approx(0.02)
    assert table.params(CorruptionKind.GAUSSIAN, 1)["sigma"] == pytest.approx(0.01)
    assert table.params(CorruptionKind.GAUSSIAN, 5)["sigma"] == pytest.approx(0.03)
    assert table.params(CorruptionKind.CUTOUT, 3) == {"n_clusters": 3, "k": 50}
    assert table.params(CorruptionKind.ROTATION, 5)["max_angle_deg"] == pytest.approx(15.0)
    assert table.params(CorruptionKind.FFD, 4)["distance"] == pytest.approx(0.4)
    assert table.params(CorruptionKind.BACKGROUND, 2)["count"] == 40
    assert table.params(CorruptionKind.OCCLUSION, 3)["view_index"] == 3


def test_severity_scaling_monotone_by_default():
    table = SeverityTable.default().as_dict()
    dominant = {
        "occlusion": "view_index",
        "lidar": "view_index",
        "local_density_inc": "n_clusters",
        "local_density_dec": "n_clusters",
        "cutout": "n_clusters",
        "uniform": "scale",
        "gaussian": "sigma",
        "impulse": "count_mul",
        "upsampling": "count_mul",
        "background": "count",
        "rotation": "max_angle_deg",
        "shear": "max_coeff",
        "ffd": "distance",
        "rbf": "distance",
        "inv_rbf": "distance",
    }
    for name, entries in table.items():
        values = [e[dominant[name]] for e in entries]
        assert values == sorted(values), name


def test_override_merges_with_defaults():
    override = {"uniform": [{"scale": s} for s in (0.1, 0.2, 0.3, 0.4, 0.5)]}
    table = SeverityTable(override)
    assert table.params(CorruptionKind.UNIFORM, 3)["scale"] == 0.3
    # untouched kinds keep defaults
    assert table.params(CorruptionKind.GAUSSIAN, 1)["sigma"] == pytest.approx(0.01)


def test_override_validation():
    with pytest.raises(ValueError):
        SeverityTable({"uniform": [{"scale": 0.1}] * 4})  # not 5 entries
    with pytest.raises(ValueError):
        SeverityTable({"uniform": [{"bad_key": 0.1}] * 5})  # dominant missing
    decreasing = {"uniform": [{"scale": s} for s in (0.5, 0.4, 0.3, 0.2, 0.1)]}
    with pytest.raises(ValueError):
        SeverityTable(decreasing)
    with pytest.raises(ValueError):
        SeverityTable({"mystery": [{"scale": 0.1}] * 5})


def _cutout(**changes):
    entries = [{"n_clusters": s, "k": 50} for s in range(1, 6)]
    entries[2] = {**entries[2], **changes}
    return entries


@pytest.mark.parametrize(
    "override",
    [
        {"cutout": _cutout(k="50")},                      # string for an int
        {"cutout": _cutout(k=50.0)},                      # float for an int
        {"cutout": _cutout(k=True)},                      # bool is not an int
        {"cutout": _cutout(k=-1)},                        # negative count
        {"cutout": _cutout(kk=50)},                       # unknown name
        {"cutout": [{"n_clusters": s} for s in range(1, 6)]},  # k missing
        {"cutout": 5},                                    # not a list
        {"cutout": [5, 5, 5, 5, 5]},                      # records not dicts
        {"uniform": [{"scale": float("nan")}] * 5},       # not finite
        {"uniform": [{"scale": "0.1"}] * 5},              # string for a float
        {"impulse": [{"count_div": 0, "count_mul": s, "magnitude": 0.05}
                     for s in range(1, 6)]},              # divisor below 1
        [1, 2, 3],                                        # not an object
        {"uniform": [{"scale": 10**400}] * 5},            # an int past the float range
        {"gaussian": [{"sigma": -0.01}] * 5},             # negative floats
        {"uniform": [{"scale": -0.01}] * 5},
        {"shear": [{"max_coeff": -0.05}] * 5},
        {"ffd": [{"distance": -0.1}] * 5},
        {"rbf": [{"distance": -0.1}] * 5},
        {"upsampling": [{"count_div": 10, "count_mul": s, "bound": -0.05}
                        for s in range(1, 6)]},
    ],
)
def test_override_checked_against_registry(override):
    with pytest.raises(ValueError):
        SeverityTable(override)


@pytest.mark.parametrize("kind", ["occlusion", "lidar"])
@pytest.mark.parametrize("views", [(0, 1, 2, 3, 4), (1, 2, 3, 4, 6), (1, 2, 3, 4, 9),
                                   (1, 2, 3, 4, 5.0)])
def test_view_index_outside_the_five_views_fails_at_load(kind, views):
    with pytest.raises(ValueError, match="'view_index' must be an integer in 1..5"):
        SeverityTable({kind: [{"view_index": v} for v in views]})
    # the five canonical views, in any non-decreasing order, load
    table = SeverityTable({kind: [{"view_index": v} for v in (1, 1, 3, 5, 5)]})
    assert table.params(CorruptionKind.from_name(kind), 4) == {"view_index": 5}


def test_gen_rejects_a_view_index_outside_the_five_views(tmp_path, capsys):
    from synthdata import write_shape_dataset

    src, out, path = tmp_path / "src", tmp_path / "out", tmp_path / "t.json"
    write_shape_dataset(src, n_per_class=1, seed=0)
    path.write_text(json.dumps({"occlusion": [{"view_index": v} for v in (1, 2, 3, 4, 9)]}))
    code = main(["gen", str(src), str(out), "--kinds", "occlusion", "--severities", "5",
                 "--points", "64", "--table", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "an integer in 1..5, got 9" in err
    assert not (out / "manifest.json").exists()


def test_override_accepts_int_for_float_parameter():
    table = SeverityTable({"uniform": [{"scale": s} for s in range(1, 6)]})
    assert table.params(CorruptionKind.UNIFORM, 2) == {"scale": 2}


_NAMES = sorted({*(k.value for k in CorruptionKind), "fog"})
_PARAMS = sorted({name for k in CorruptionKind for name in k.params} | {"x"})
_SCALAR = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**1023)
           | st.floats() | st.text(max_size=4))
_RECORD = st.dictionaries(st.sampled_from(_PARAMS), _SCALAR, max_size=3)
_TABLE = st.dictionaries(st.sampled_from(_NAMES),
                         st.lists(_RECORD | _SCALAR, min_size=4, max_size=6) | _SCALAR,
                         max_size=2)
_JSON = _TABLE | st.recursive(_SCALAR, lambda inner: st.lists(inner, max_size=3)
                              | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                              max_leaves=6)


def test_table_fuzz_loads_or_is_value_error(tmp_path, capsys):
    """Any JSON value or byte string gives a table or a ValueError, and
    `apply --table` on a rejected one exits 2 with that error."""
    path = tmp_path / "t.json"

    @settings(max_examples=300, deadline=None)
    @given(_JSON.map(lambda value: json.dumps(value).encode()) | st.binary(max_size=16))
    def check(data):
        path.write_bytes(data)
        try:
            table = SeverityTable.from_json(data)
        except ValueError as exc:
            code = main(["apply", str(tmp_path / "in.ply"), str(tmp_path / "out.ply"),
                         "--kind", "cutout", "--table", str(path)])
            err = capsys.readouterr().err
            assert code == 2
            events = [json.loads(line) for line in err.splitlines()]
            assert events[-1] == {"event": "error", "error": str(exc),
                                  "error_type": type(exc).__name__}
            return
        assert isinstance(table, SeverityTable)

    check()


def test_json_round_trip_and_digest():
    table = SeverityTable.default()
    clone = SeverityTable.from_json(table.to_json())
    assert clone.as_dict() == table.as_dict()
    assert clone.digest() == table.digest()
    assert table.digest().startswith("sha256:")

    changed = SeverityTable({"uniform": [{"scale": s} for s in (0.1, 0.2, 0.3, 0.4, 0.5)]})
    assert changed.digest() != table.digest()


def test_digest_ignores_key_order():
    data = json.loads(SeverityTable.default().to_json())
    reordered = {k: data[k] for k in reversed(list(data))}
    assert SeverityTable(reordered).digest() == SeverityTable.default().digest()


def _prediction_row(sev):
    from pccorrupt import ingest_predictions

    with open("p.csv", "w") as fh:
        fh.write(f"sample_id,corruption,severity,true_label,pred_label\na,gaussian,{sev},0,0\n")
    return ingest_predictions("p.csv")


_SEVERITY_SURFACES = {
    "CorruptionSpec": lambda sev: CorruptionSpec(CorruptionKind.GAUSSIAN, sev),
    "SeverityTable.params": lambda sev: SeverityTable().params(CorruptionKind.GAUSSIAN, sev),
    "RunConfig": lambda sev: RunConfig("in", "out", severities=(sev,)),
    "prediction CSV row": _prediction_row,
    "gen": lambda sev: main(["gen", "in", "out", "--severities", str(sev)]),
    "apply": lambda sev: main(["apply", "in.ply", "out.ply", "--kind", "gaussian",
                               "--severity", str(sev)]),
}


@pytest.mark.parametrize("sev", [0, 6])
@pytest.mark.parametrize("surface", list(_SEVERITY_SURFACES))
def test_a_severity_outside_the_range_is_refused_with_one_message(tmp_path, monkeypatch,
                                                                  capsys, surface, sev):
    monkeypatch.chdir(tmp_path)
    message = f"severity {sev} outside 1..5"
    if surface in ("gen", "apply"):
        assert _SEVERITY_SURFACES[surface](sev) == 1
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert events == [{"event": "usage_error", "error": message}]
    else:
        with pytest.raises(ValueError, match=message):
            _SEVERITY_SURFACES[surface](sev)
