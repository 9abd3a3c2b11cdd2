"""Error-rate bookkeeping: ingestion, counting, aggregation, rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccorrupt import (
    CountTable,
    PredictionFormatError,
    PredictionRecord,
    aggregate,
    count_records,
    error_rate,
    ingest_predictions,
    merge_tables,
    render_markdown,
    render_report,
    report_from_table,
    report_to_json,
    write_predictions,
)
from pccorrupt.cli import main
from pccorrupt.metrics import CSV_HEADER

KINDS_15 = [
    "occlusion", "lidar", "local_density_inc", "local_density_dec", "cutout",
    "uniform", "gaussian", "impulse", "upsampling", "background",
    "rotation", "shear", "ffd", "rbf", "inv_rbf",
]

GOOD_CSV = """sample_id,corruption,severity,true_label,pred_label
chair_1,clean,0,2,2
chair_1,gaussian,3,2,0
table_4,clean,0,1,1
"""


def _rec(sid, corr, sev, t, p):
    return PredictionRecord(sid, corr, sev, t, p)


def _random_records(n, seed, n_classes=6, acc=0.7):
    rng = np.random.default_rng(seed)
    corrs = np.array(["clean"] + KINDS_15)
    records = []
    for i in range(n):
        c = str(rng.choice(corrs))
        s = 0 if c == "clean" else int(rng.integers(1, 6))
        t = int(rng.integers(n_classes))
        p = t if rng.random() < acc else int(rng.integers(n_classes))
        records.append(_rec(f"s{i}", c, s, t, p))
    return records


# -- records and ingestion -------------------------------------------------


def test_record_validation():
    _rec("a", "clean", 0, 1, 1)
    _rec("a", "cutout", 5, 0, 3)
    with pytest.raises(ValueError):
        _rec("a", "fog", 1, 0, 0)
    with pytest.raises(ValueError):
        _rec("a", "clean", 1, 0, 0)  # clean must be severity 0
    with pytest.raises(ValueError):
        _rec("a", "gaussian", 0, 0, 0)  # severity 0 is clean-only
    with pytest.raises(ValueError):
        _rec("a", "gaussian", 6, 0, 0)
    with pytest.raises(ValueError):
        _rec("a", "gaussian", 1, -1, 0)
    assert _rec("a", "gaussian", 1, 2, 3).wrong
    assert not _rec("a", "gaussian", 1, 2, 2).wrong


def _csv_file(tmp_path, body: str):
    path = tmp_path / "preds.csv"
    path.write_text(body)
    return path


def test_ingest_from_path_or_string_path(tmp_path):
    path = _csv_file(tmp_path, GOOD_CSV)
    records = ingest_predictions(path)
    assert len(records) == 3
    assert records[1].corruption == "gaussian"
    assert ingest_predictions(str(path)) == records


@pytest.mark.parametrize(
    "body,row,fragment",
    [
        ("sample,corruption,severity,true_label,pred_label\n", 1, "header"),
        ("sample_id,corruption,severity,true_label,pred_label\na,gaussian,x,0,0\n", 2, "non-integer"),
        ("sample_id,corruption,severity,true_label,pred_label\na,gaussian,6,0,0\n", 2, "severity"),
        ("sample_id,corruption,severity,true_label,pred_label\na,gaussian,1,0\n", 2, "5 fields"),
        ("sample_id,corruption,severity,true_label,pred_label\na,fog,1,0,0\n", 2, "fog"),
        (
            "sample_id,corruption,severity,true_label,pred_label\n"
            "a,gaussian,1,0,0\na,gaussian,1,1,1\n",
            3,
            "duplicate",
        ),
    ],
)
def test_ingest_rejects_bad_rows(tmp_path, body, row, fragment):
    with pytest.raises(PredictionFormatError) as err:
        ingest_predictions(_csv_file(tmp_path, body))
    message = str(err.value)
    assert f"row {row}" in message
    assert fragment in message


def test_ingest_oversized_field_names_the_row(tmp_path):
    body = ("sample_id,corruption,severity,true_label,pred_label\n"
            "a,gaussian,1,0,0\n" + "b" * 131_073 + ",gaussian,1,0,0\n")
    with pytest.raises(PredictionFormatError, match="row 3: field larger"):
        ingest_predictions(_csv_file(tmp_path, body))


def test_ingest_empty_file(tmp_path):
    with pytest.raises(PredictionFormatError):
        ingest_predictions(_csv_file(tmp_path, ""))


_CSV_FIELD = (st.sampled_from(["clean", "gaussian", "fog", "0", "1", "5", "6", "-1", " 2 ", ""])
              | st.integers().map(str) | st.text(max_size=5))
_CSV_TEXT = st.lists(st.lists(_CSV_FIELD, max_size=6).map(",".join), max_size=4).map(
    lambda rows: "\n".join([",".join(CSV_HEADER), *rows]))
_CSV_BYTES = (st.binary(max_size=64) | _CSV_TEXT.map(str.encode)
              | st.tuples(_CSV_TEXT, st.binary(min_size=1, max_size=2)).map(
                  lambda parts: parts[0].encode() + parts[1]))


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode()
    except UnicodeDecodeError:
        return False
    return True


def test_ingest_fuzz_records_or_format_error(tmp_path, capsys):
    """Any file gives records or a PredictionFormatError naming a row (row 1
    for bytes that are not UTF-8), and `bench` on a rejected file exits 2."""
    path = tmp_path / "preds.csv"

    @settings(max_examples=300, deadline=None)
    @given(_CSV_BYTES)
    def check(data):
        path.write_bytes(data)
        try:
            records = ingest_predictions(path)
        except PredictionFormatError as exc:
            assert str(exc).startswith("row 1: " if not _is_utf8(data) else "row ")
            code = main(["bench", str(path), str(tmp_path / "m.json"),
                         "--out", str(tmp_path / "r.json")])
            err = capsys.readouterr().err
            assert code == 2
            assert f"error: {exc}" in err and "Traceback" not in err
            return
        assert _is_utf8(data)
        assert all(isinstance(r, PredictionRecord) for r in records)

    check()


def test_write_then_ingest_round_trip(tmp_path):
    records = _random_records(200, seed=1)
    # unique keys required: re-key by index
    records = [
        _rec(f"s{i}", r.corruption, r.severity, r.true_label, r.pred_label)
        for i, r in enumerate(records)
    ]
    path = tmp_path / "out.csv"
    write_predictions(records, path)
    assert ingest_predictions(path) == records


# -- counting and rates ----------------------------------------------------


def test_error_rate_simple():
    records = [
        _rec("a", "clean", 0, 0, 0),
        _rec("b", "clean", 0, 0, 1),
        _rec("c", "clean", 0, 1, 1),
        _rec("d", "clean", 0, 1, 1),
    ]
    assert error_rate(records) == 0.25
    assert aggregate(records).mer_clean == pytest.approx((0.5 + 0.0) / 2)


def test_class_mean_ignores_absent_classes():
    # class 1 never appears; the mean is over classes that do
    records = [
        _rec("a", "clean", 0, 0, 0),
        _rec("b", "clean", 0, 0, 2),
        _rec("c", "clean", 0, 2, 2),
    ]
    assert aggregate(records).mer_clean == pytest.approx((0.5 + 0.0) / 2)


def test_balanced_classes_make_both_rates_agree():
    records = []
    for c in range(4):
        for i in range(10):
            pred = c if i < 7 else (c + 1) % 4
            records.append(_rec(f"{c}_{i}", "clean", 0, c, pred))
    assert error_rate(records) == pytest.approx(0.3)
    assert aggregate(records).mer_clean == pytest.approx(0.3)


def test_count_table_recount_oracle():
    records = _random_records(5000, seed=2)
    table = count_records(records)

    counts = {}
    for r in records:
        key = (r.corruption, r.severity)
        c = counts.setdefault(key, [0, 0])
        c[0] += 1
        c[1] += r.wrong
    assert set(table.cells) == set(counts)
    for key, (n, wrong) in counts.items():
        assert table.cells[key].count == n
        assert table.cells[key].wrong == wrong
        assert table.cells[key].error_rate() == wrong / n


def test_merge_tables_matches_joint_count():
    records = _random_records(900, seed=3)
    a, b, c = records[:300], records[300:500], records[500:]
    joint = count_records(records)
    left = merge_tables(merge_tables(count_records(a), count_records(b)), count_records(c))
    right = merge_tables(count_records(a), merge_tables(count_records(b), count_records(c)))
    for merged in (left, right):
        assert set(merged.cells) == set(joint.cells)
        for key, cell in joint.cells.items():
            assert merged.cells[key].count == cell.count
            assert merged.cells[key].wrong == cell.wrong
            assert merged.cells[key].confusion == cell.confusion


def test_merge_does_not_mutate_inputs():
    a = count_records(_random_records(50, seed=4))
    b = count_records(_random_records(50, seed=5))
    before = {k: (c.count, c.wrong) for k, c in a.cells.items()}
    merge_tables(a, b)
    assert {k: (c.count, c.wrong) for k, c in a.cells.items()} == before


# -- confusion -------------------------------------------------------------


def test_confusion_counts_and_rows():
    records = [
        _rec("a", "clean", 0, 0, 0),
        _rec("b", "clean", 0, 0, 1),
        _rec("c", "clean", 0, 1, 1),
        _rec("d", "gaussian", 2, 1, 0),
    ]
    scopes = aggregate(records, n_classes=2).confusion_counts
    counts = np.array(scopes["all"])
    assert counts.tolist() == [[1, 1], [1, 1]]
    # diagonal mass equals the number of correct predictions
    assert np.trace(counts) == sum(not r.wrong for r in records)
    # row sums equal per-class record counts
    assert counts.sum(axis=1).tolist() == [2, 2]

    assert scopes["clean"] == [[1, 1], [0, 1]]
    assert scopes["corrupted"] == [[0, 0], [1, 0]]


# -- aggregation -----------------------------------------------------------


def test_aggregate_severity_mean():
    records = []
    rates = {1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4, 5: 0.5}
    for s, rate in rates.items():
        for i in range(10):
            records.append(_rec(f"x{i}", "uniform", s, 0, 0 if i >= 10 * rate else 1))
    report = aggregate(records)
    for s, rate in rates.items():
        assert report.er["uniform"][s] == pytest.approx(rate)
    assert report.er_c["uniform"] == pytest.approx(0.3)
    assert report.sum_er_c["uniform"] == pytest.approx(1.5)
    # only one kind present, so the overall corruption mean equals it
    assert report.er_cor == pytest.approx(0.3)
    assert report.presence["uniform"] == [1, 2, 3, 4, 5]


def test_aggregate_skips_absent_cells():
    records = [
        _rec("a", "clean", 0, 0, 0),
        _rec("a", "uniform", 1, 0, 0),
        _rec("b", "uniform", 1, 1, 0),
        _rec("a", "uniform", 5, 0, 1),
        _rec("a", "gaussian", 2, 0, 0),
    ]
    report = aggregate(records)
    assert report.presence["uniform"] == [1, 5]
    assert "shear" not in report.presence
    assert report.er["uniform"] == {1: 0.5, 5: 1.0}
    assert report.er_c["uniform"] == pytest.approx(0.75)  # mean of present only
    assert report.er_c["gaussian"] == 0.0
    assert report.er_cor == pytest.approx((0.75 + 0.0) / 2)
    assert report.er_clean == 0.0


def test_aggregate_without_clean_records():
    report = aggregate([_rec("a", "cutout", 1, 0, 1), _rec("b", "cutout", 1, 1, 1)])
    assert report.er_clean is None
    assert report.mer_clean is None
    assert report.confusion_counts["clean"] is None
    assert report.er_cor == pytest.approx(0.5)


def test_constant_predictor_rates():
    # predicting class 0 always: ER = fraction of non-zero labels
    records = [_rec(f"s{i}", "clean", 0, i % 4, 0) for i in range(40)]
    report = aggregate(records)
    assert report.er_clean == pytest.approx(0.75)
    assert report.mer_clean == pytest.approx(0.75)  # balanced classes


def test_empty_aggregate_rejected():
    with pytest.raises(ValueError):
        aggregate([])


# -- serialization ---------------------------------------------------------


def test_report_version_pinned():
    report = aggregate(_random_records(100, seed=8))
    assert report.report_version == 1
    assert '"report_version": 1' in report_to_json(report)


# -- rendering -------------------------------------------------------------


def test_markdown_table_shape():
    report = aggregate(_random_records(4000, seed=9))
    text = render_markdown(report)
    lines = text.splitlines()
    assert lines[0].startswith("ER_clean:")
    group_row = lines[2]
    assert "Density" in group_row and "Noise" in group_row and "Transformation" in group_row
    header = [c.strip() for c in lines[3].strip("|").split("|")]
    assert header == ["metric"] + KINDS_15 + ["ER_cor"]
    er_row = [c.strip() for c in lines[5].strip("|").split("|")]
    assert er_row[0] == "ER_c"
    assert len(er_row) == 17
    # one-decimal percentages
    for value in er_row[1:]:
        assert value == "-" or "." in value
    assert any(line.startswith("| ER s=3") for line in lines)


def test_markdown_marks_missing_cells():
    report = aggregate([_rec("a", "uniform", 1, 0, 0), _rec("b", "uniform", 1, 0, 1)])
    text = render_markdown(report)
    er_line = next(l for l in text.splitlines() if l.startswith("| ER_c"))
    cols = [c.strip() for c in er_line.strip("|").split("|")]
    assert cols[KINDS_15.index("uniform") + 1] == "50.0"
    assert cols[KINDS_15.index("gaussian") + 1] == "-"


def test_render_report_dispatch():
    report = aggregate(_random_records(50, seed=10))
    assert render_report(report, "json").startswith("{")
    assert "| metric |" in render_report(report, "markdown")
    for fmt in ("csv", "md", "markdown-table"):
        with pytest.raises(ValueError):
            render_report(report, fmt)


# -- golden output ---------------------------------------------------------


def test_golden_report_bytes(tmp_path, capsys):
    """Pin the JSON and markdown report bytes, and what `bench` prints and
    writes, for a report with clean records, one without and one with a
    partial kind set."""
    import hashlib
    import json

    from pccorrupt.cli import main

    with_clean = _random_records(600, seed=11)
    without_clean = [r for r in _random_records(600, seed=12) if r.corruption != "clean"]
    partial = [
        r for r in _random_records(600, seed=13)
        if r.corruption in ("clean", "lidar", "uniform", "shear")
    ]
    h = hashlib.sha256()
    for i, records in enumerate((with_clean, without_clean, partial)):
        for report in (aggregate(records), aggregate(records, n_classes=8)):
            h.update(report_to_json(report).encode())
            h.update(render_markdown(report).encode())

        preds = tmp_path / f"p{i}.csv"
        write_predictions(records, preds)
        cells = {(r.corruption, r.severity) for r in records} | {("rbf", 4)}
        samples = [
            {
                "sample_id": sid,
                "class_name": "c",
                "clean": {"path": f"clean/{sid}.ply", "sha256": "sha256:0"},
                "corrupted": {
                    kind: {
                        str(s): {"path": f"{kind}/s{s}/{sid}.ply",
                                 "sidecar": f"{kind}/s{s}/{sid}.json",
                                 "sha256": "sha256:0"}
                        for k, s in sorted(cells) if k == kind
                    }
                    for kind in sorted({k for k, _ in cells} - {"clean"})
                },
            }
            for sid in sorted({r.sample_id for r in records})
        ]
        manifest = tmp_path / f"m{i}.json"
        manifest.write_text(json.dumps({
            "manifest_version": 1, "seed": 0, "point_budget": 64,
            "severity_table_digest": "sha256:0", "samples": samples,
        }))
        for fmt in ("json", "markdown"):
            out = tmp_path / f"r{i}.{fmt}"
            code = main(["bench", str(preds), str(manifest), "--out", str(out),
                         "--format", fmt])
            assert code == 0
            h.update(capsys.readouterr().out.encode())
            h.update(out.read_bytes())
    assert h.hexdigest() == "0010ba74baeba20d5bf0ed54ec3dcb2efc93c43efcc9e403645fd7f8a7024411"
