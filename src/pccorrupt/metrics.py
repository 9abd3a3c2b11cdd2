"""Benchmark bookkeeping: prediction records (a CSV read from a path),
error rates, reports.

Each (corruption, severity) cell keeps one tally, the number of records
with each (true, pred) label pair.  Every count, rate and confusion count
derives from it, rates once at the end in double precision, so partial
aggregation + merge give the same bits as one sequential pass.

ER and mER apply one rule to two cell rates: each present cell's rate, each
kind's mean over its present severities, then the mean of those (_cor).
Absent (corruption, severity) cells are tracked in a presence mask and
excluded from every mean -- they are never imputed as zero.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import asdict, dataclass, field

from .io_formats import write_file
from .severity import KIND_NAMES, SEVERITIES, CorruptionKind, check_severity

CLEAN = "clean"
REPORT_VERSION = 3
CSV_HEADER = ["sample_id", "corruption", "severity", "true_label", "pred_label"]

_VALID_CORRUPTIONS = frozenset(KIND_NAMES) | {CLEAN}


class PredictionFormatError(ValueError):
    """Bad row in a prediction CSV; message carries the row number."""


@dataclass(frozen=True)
class PredictionRecord:
    sample_id: str
    corruption: str
    severity: int
    true_label: int
    pred_label: int

    def __post_init__(self):
        if self.corruption not in _VALID_CORRUPTIONS:
            raise ValueError(f"unknown corruption {self.corruption!r}")
        if self.corruption != CLEAN:
            check_severity(self.severity)
        elif type(self.severity) is not int or self.severity != 0:
            raise ValueError(f"clean records carry severity 0, got {self.severity}")
        if self.true_label < 0 or self.pred_label < 0:
            raise ValueError("class indices must be >= 0")


def ingest_predictions(path) -> list[PredictionRecord]:
    """Read and validate the prediction CSV at `path`.

    The file must be UTF-8 text.  The header must match
    sample_id,corruption,severity,true_label,pred_label exactly;
    duplicated (sample_id, corruption, severity) keys are errors.
    """
    with open(path, "rb") as fh:
        try:
            lines = fh.read().decode().splitlines()
        except UnicodeDecodeError as exc:
            raise PredictionFormatError(f"row 1: not UTF-8 text ({exc})") from None
    reader = csv.reader(lines)
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise PredictionFormatError(f"row {reader.line_num}: {exc}") from None
    if not rows:
        raise PredictionFormatError("row 1: empty file, expected a header")
    header = rows[0]
    if [h.strip() for h in header] != CSV_HEADER:
        raise PredictionFormatError(
            f"row 1: header must be {','.join(CSV_HEADER)}, got {','.join(header)}"
        )
    records = []
    seen = set()
    for row_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise PredictionFormatError(f"row {row_no}: expected 5 fields, got {len(row)}")
        sample_id, corruption, severity_s, true_s, pred_s = (f.strip() for f in row)
        try:
            severity, true_label, pred_label = int(severity_s), int(true_s), int(pred_s)
        except ValueError:
            raise PredictionFormatError(f"row {row_no}: non-integer numeric field") from None
        try:
            rec = PredictionRecord(sample_id, corruption, severity, true_label, pred_label)
        except ValueError as exc:
            raise PredictionFormatError(f"row {row_no}: {exc}") from None
        key = (rec.sample_id, rec.corruption, rec.severity)
        if key in seen:
            raise PredictionFormatError(f"row {row_no}: duplicate record for {key}")
        seen.add(key)
        records.append(rec)
    return records


def write_predictions(records, path) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([r.sample_id, r.corruption, r.severity, r.true_label, r.pred_label])
    write_file(path, text.getvalue().encode())


# ---------------------------------------------------------------------------
# counting


@dataclass
class Cell:
    """One (corruption, severity) slot: the record count of each (true, pred) pair."""

    confusion: Counter = field(default_factory=Counter)  # (true, pred) -> count

    @property
    def count(self) -> int:
        return self.confusion.total()

    @property
    def wrong(self) -> int:
        return sum(n for (true, pred), n in self.confusion.items() if true != pred)

    def error_rate(self) -> float:
        return self.wrong / self.count

    def class_mean_error_rate(self) -> float:
        """Mean of the per-class error rates, summed in the order each true
        label first appears."""
        count, wrong = Counter(), Counter()
        for (true, pred), n in self.confusion.items():
            count[true] += n
            wrong[true] += n * (true != pred)
        rates = [wrong[c] / n for c, n in count.items()]
        return sum(rates) / len(rates)


@dataclass
class CountTable:
    """Commutative-associative fold state over prediction records."""

    cells: dict = field(default_factory=dict)  # (corruption, severity) -> Cell

    def add(self, record: PredictionRecord):
        key = (record.corruption, record.severity)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = Cell()
        cell.confusion[(record.true_label, record.pred_label)] += 1


def count_records(records) -> CountTable:
    table = CountTable()
    for r in records:
        table.add(r)
    return table


def merge_tables(a: CountTable, b: CountTable) -> CountTable:
    """Cell by cell, the sum of both tables' confusion counts; a and b stay as they are."""
    empty = Cell()
    return CountTable({
        key: Cell(a.cells.get(key, empty).confusion + b.cells.get(key, empty).confusion)
        for key in set(a.cells) | set(b.cells)
    })


# ---------------------------------------------------------------------------
# the report


@dataclass
class MetricsReport:
    cells: dict                 # corruption -> {severity -> {"count", "wrong"}}
    er_clean: float | None
    mer_clean: float | None
    er: dict                    # kind -> {severity -> rate}, present cells only
    mer: dict
    er_c: dict                  # kind -> mean over present severities
    mer_c: dict
    sum_er_c: dict              # kind -> raw sum over present severities
    er_cor: float | None        # mean of er_c over present kinds
    mer_cor: float | None
    sum_er_cor: float | None
    presence: dict              # kind -> sorted list of present severities
    confusion_counts: dict      # scope name -> sorted [true, pred, count] triples
    report_version: int = REPORT_VERSION


def _scope_confusion(cells: list):
    """The (true, pred) pairs counted in `cells`, as sorted [true, pred, count]
    triples; None for no cells.  Sparse, so its size is bounded by the
    records, not by the largest label."""
    if not cells:
        return None
    pooled = Counter()
    for cell in cells:
        pooled.update(cell.confusion)
    return [[true, pred, n] for (true, pred), n in sorted(pooled.items())]


def report_from_table(table: CountTable) -> MetricsReport:
    """Every rate and mask of the report."""
    if not table.cells:
        raise ValueError("no records counted")

    cells_out: dict = {}
    for (corruption, severity), cell in sorted(table.cells.items()):
        cells_out.setdefault(corruption, {})[severity] = {"count": cell.count, "wrong": cell.wrong}

    clean_cell = table.cells.get((CLEAN, 0))
    presence = {kind: present for kind in KIND_NAMES
                if (present := [s for s in SEVERITIES if (kind, s) in table.cells])}

    def over_table(rate):
        """`rate` (a Cell method) of the clean cell and of each present cell, each
        kind's sum and mean over those, the mean of the means (None if absent)."""
        clean = rate(clean_cell) if clean_cell else None
        per_cell = {k: {s: rate(table.cells[(k, s)]) for s in present}
                    for k, present in presence.items()}
        sums = {k: sum(rates.values()) for k, rates in per_cell.items()}
        means = {k: sums[k] / len(presence[k]) for k in sums}
        overall = sum(means.values()) / len(means) if means else None
        return clean, per_cell, sums, means, overall

    er_clean, er, sum_er_c, er_c, er_cor = over_table(Cell.error_rate)
    mer_clean, mer, _, mer_c, mer_cor = over_table(Cell.class_mean_error_rate)
    sum_er_cor = sum(er_c.values()) if er_c else None

    corrupted = [cell for (corruption, _), cell in table.cells.items() if corruption != CLEAN]
    confusion_counts = {
        "clean": _scope_confusion([clean_cell] if clean_cell else []),
        "corrupted": _scope_confusion(corrupted),
        "all": _scope_confusion(list(table.cells.values())),
    }

    return MetricsReport(
        cells=cells_out, er_clean=er_clean, mer_clean=mer_clean, er=er, mer=mer,
        er_c=er_c, mer_c=mer_c, sum_er_c=sum_er_c, er_cor=er_cor, mer_cor=mer_cor,
        sum_er_cor=sum_er_cor, presence=presence, confusion_counts=confusion_counts,
    )


def aggregate(records) -> MetricsReport:
    """One-shot: count every record, then derive all rates and masks."""
    return report_from_table(count_records(records))


# ---------------------------------------------------------------------------
# rendering


def report_to_json(report: MetricsReport) -> str:
    """Every field of the report; severity keys become JSON strings."""
    return json.dumps(asdict(report), indent=2, sort_keys=True)


def pct(rate) -> str:
    """A rate in percent to one decimal, without a sign (0.8 -> "80.0"); "-" if absent."""
    return "-" if rate is None else f"{100.0 * rate:.1f}"


def render_markdown(report: MetricsReport) -> str:
    """Grouped 15-column table (plus the all-corruption mean), one-decimal
    percentages, with a clean-error line above."""
    families = [k.family for k in CorruptionKind]
    group_row = ["", *(
        family if i == 0 or family != families[i - 1] else ""
        for i, family in enumerate(families)
    ), ""]
    kinds = KIND_NAMES
    header = ["metric", *kinds, "ER_cor"]
    rows = [("ER_c", report.er_c, pct(report.er_cor)), ("mER_c", report.mer_c, pct(report.mer_cor))]
    for s in SEVERITIES:
        at_s = {k: rates[s] for k, rates in report.er.items() if s in rates}
        if at_s:
            rows.append((f"ER s={s}", at_s, "-"))

    def table_line(cols):
        return "| " + " | ".join(cols) + " |"

    lines = [
        f"ER_clean: {pct(report.er_clean)}  |  mER_clean: {pct(report.mer_clean)}",
        "",
        table_line(group_row),
        table_line(header),
        "|" + "|".join("---" for _ in header) + "|",
        *(table_line([label, *(pct(rates.get(k)) for k in kinds), overall])
          for label, rates, overall in rows),
    ]
    return "\n".join(lines) + "\n"


def render_report(report: MetricsReport, fmt: str = "json") -> str:
    if fmt == "json":
        return report_to_json(report)
    if fmt == "markdown":
        return render_markdown(report)
    raise ValueError(f"unknown report format {fmt!r}")
