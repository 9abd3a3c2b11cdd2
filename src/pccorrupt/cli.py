"""Command-line front end.

Subcommands: gen, apply, train, eval, attack, bench, export.  gen, apply
and train also read their parameters from a --config JSON file; explicit
flags win, and an unknown key is a data error.  Logs are JSON lines on
stderr, the human-readable summary goes to stdout.

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 generation finished with some per-sample failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import _rng, metrics, network, pipeline
from ._version import __version__
from .geometry import (
    DegenerateGeometryError,
    OffParseError,
    normalize_mesh,
    normalize_unit_sphere,
    sample_surface,
)
from .io_formats import (
    MESH_SUFFIXES,
    PlyParseError,
    RawFormatError,
    load_cloud,
    load_mesh,
    save_cloud,
)
from .corruptions import apply_corruption
from .occlusion import DegenerateViewError
from .pipeline import DataError, RunConfig
from .severity import SEVERITIES, CorruptionKind, CorruptionSpec, SeverityTable

USAGE_ERROR = 1
DATA_ERROR = 2
PARTIAL_ERROR = 3


class UsageError(Exception):
    """Bad invocation detected after argparse (maps to exit code 1)."""

_DATA_EXCEPTIONS = (
    DataError,
    OffParseError,
    PlyParseError,
    RawFormatError,
    DegenerateGeometryError,
    DegenerateViewError,
    metrics.PredictionFormatError,
    json.JSONDecodeError,
    FileNotFoundError,
)


def log_event(**fields):
    print(json.dumps(fields, sort_keys=True), file=sys.stderr, flush=True)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        log_event(event="usage_error", error=message)
        raise SystemExit(USAGE_ERROR)


def _load_config(path, accepted) -> dict:
    """The --config JSON object; a key outside `accepted` is a DataError."""
    if path is None:
        return {}
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(accepted))
    if unknown:
        raise DataError(
            f"config file {path} has unknown keys {unknown}; accepted: {sorted(accepted)}"
        )
    return raw


def _pick(args, config: dict, name: str, default, expected=str):
    """Flag value if given, else config-file value, else default.

    A config-file value must be of type `expected` (an int passes for
    float; a bool passes only for bool), else the config is a DataError.
    """
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name not in config:
        return default
    value = config[name]
    allowed = (int, float) if expected is float else expected
    if not isinstance(value, allowed) or (isinstance(value, bool) and expected is not bool):
        raise DataError(
            f"config key {name!r} must be of type {expected.__name__}, got {json.dumps(value)}"
        )
    return value


def _resolve_seed(args, config: dict) -> int:
    value = _pick(args, config, "seed", None, int)
    if value is not None:
        return value
    env = os.environ.get("PC_CORRUPT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DataError(f"PC_CORRUPT_SEED is not an integer: {env!r}") from None
    return 0


def _parse_kinds(text: str) -> tuple[str, ...]:
    if text in (None, "", "all"):
        return tuple(k.value for k in CorruptionKind)
    names = tuple(t.strip() for t in text.split(",") if t.strip())
    for name in names:
        try:
            CorruptionKind.from_name(name)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return names


def _parse_severities(text: str) -> tuple[int, ...]:
    if text in (None, "", "all"):
        return SEVERITIES
    try:
        values = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise UsageError(f"bad severity list {text!r}") from None
    return tuple(_check_severity(v) for v in values)


def _check_severity(value: int) -> int:
    if value not in SEVERITIES:
        raise UsageError(f"severity {value} outside 1..5")
    return value


def _load_table(path) -> SeverityTable | None:
    if path is None:
        return None
    return SeverityTable.from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    config = _load_config(
        args.config, ("kinds", "severities", "points", "seed", "workers", "table")
    )
    run = RunConfig(
        input_dir=args.input_dir,
        output_dir=args.output_dir,
        kinds=_parse_kinds(_pick(args, config, "kinds", "all")),
        severities=_parse_severities(_pick(args, config, "severities", "all")),
        point_budget=_pick(args, config, "points", 1024, int),
        seed=_resolve_seed(args, config),
        workers=_pick(args, config, "workers", 1, int),
        table=_load_table(_pick(args, config, "table", None)),
    )
    manifest = pipeline.run_generate(run, log=lambda e: log_event(**e))
    n_kinds, n_sev = len(run.kinds), len(run.severities)
    print(
        f"generated {len(manifest.samples)} samples x {n_kinds} corruptions x "
        f"{n_sev} severities -> {run.output_dir} "
        f"({len(manifest.failures)} failures)"
    )
    return PARTIAL_ERROR if manifest.failures else 0


def cmd_apply(args) -> int:
    config = _load_config(args.config, ("kind", "severity", "seed", "table", "points"))
    kind_name = _pick(args, config, "kind", None)
    if kind_name is None:
        raise UsageError("apply needs --kind (or 'kind' in the config file)")
    try:
        kind = CorruptionKind.from_name(kind_name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    severity = _check_severity(_pick(args, config, "severity", 3, int))
    seed = _resolve_seed(args, config)
    table = _load_table(_pick(args, config, "table", None))
    points = _pick(args, config, "points", 1024, int)
    spec = CorruptionSpec(kind, severity, seed=seed)

    in_path = Path(args.input)
    is_mesh = in_path.suffix.lower() in MESH_SUFFIXES
    if kind in pipeline.MESH_KINDS and not is_mesh:
        raise DataError(f"{kind.value} needs a mesh input, got {in_path.suffix}")
    info: dict = {}
    sample_key = _rng.hash_sample_id(in_path.stem)
    if kind in pipeline.MESH_KINDS:
        data = normalize_mesh(load_mesh(in_path))
    elif is_mesh:
        mesh = normalize_mesh(load_mesh(in_path))
        data = normalize_unit_sphere(
            sample_surface(mesh, points, _rng.mix_keys(seed, 0x73616D70, sample_key))
        )
    else:
        cloud = load_cloud(in_path)
        data = cloud if args.no_normalize else normalize_unit_sphere(cloud)
    corrupted = apply_corruption(data, spec, table, sample_key=sample_key, info=info)
    save_cloud(corrupted, args.output, ascii_format=args.ascii)
    if args.sidecar:
        Path(args.sidecar).write_text(json.dumps(info, indent=2, sort_keys=True))
    log_event(event="applied", kind=kind.value, severity=severity,
              n_points=corrupted.count)
    print(f"{kind.value} s={severity}: {corrupted.count} points -> {args.output}")
    return 0


# The TrainConfig fields that train reads from a flag or its config file,
# besides `augment` and `seed`; a config file may give two of them by alias.
_TRAIN_FIELDS = (
    ("epochs", int),
    ("batch_size", int),
    ("lr", float),
    ("smoothing", float),
    ("mix", str),
    ("mix_lam", float),
)
_TRAIN_ALIASES = {"augmentation": "mix", "lambda": "mix_lam"}
_TRAIN_KEYS = (*(name for name, _ in _TRAIN_FIELDS), "augment", "seed", *_TRAIN_ALIASES)


def _train_config(args, config: dict) -> network.TrainConfig:
    config = dict(config)
    for alias, name in _TRAIN_ALIASES.items():
        if alias in config:
            if name in config:
                raise DataError(f"config gives both {name!r} and its alias {alias!r}")
            config[name] = config.pop(alias)
    fields = {
        name: cast(_pick(args, config, name, getattr(network.TrainConfig, name), cast))
        for name, cast in _TRAIN_FIELDS
    }
    augment = not args.no_augment if args.no_augment is not None else _pick(
        args, config, "augment", True, bool
    )
    return network.TrainConfig(
        **fields, augment=augment, seed=_resolve_seed(args, config)
    )


def cmd_train(args) -> int:
    config = _load_config(args.config, _TRAIN_KEYS)
    tconf = _train_config(args, config)
    manifest = pipeline.load_manifest(args.manifest)
    root = Path(args.manifest).parent
    samples, class_names = pipeline.load_labeled_clean(manifest, root)
    state = network.NetworkState.create(len(class_names), seed=tconf.seed)
    log_event(event="train_start", samples=len(samples), classes=len(class_names))
    trained, history = network.train(state, samples, tconf)
    for row in history:
        log_event(event="epoch", **row)
    digest = "sha256:" + hashlib.sha256(
        json.dumps(tconf.__dict__, sort_keys=True).encode()
    ).hexdigest()
    network.save_checkpoint(trained, args.out, class_names=class_names,
                            config_digest=digest)
    last = history[-1]
    print(
        f"trained {len(samples)} samples, {len(class_names)} classes: "
        f"val_acc={last['val_acc']:.3f} val_loss={last['val_loss']:.4f} -> {args.out}"
    )
    return 0


def _adapted_state(base, clouds, args, kind, severity):
    if args.adapt == "none":
        return base
    if len(clouds) < 2:  # batch statistics need at least two clouds
        log_event(event="adaptation_skipped", corruption=kind, severity=severity,
                  n=len(clouds))
        return base
    if args.adapt == "bn":
        return network.bn_adapt(base, clouds, blend=args.blend)
    return network.tent_adapt(
        base, clouds, network.TentConfig(lr=args.tent_lr, steps=args.tent_steps)
    )


def cmd_eval(args) -> int:
    state, meta = network.load_checkpoint(args.model)
    class_names = meta.get("class_names")
    if not class_names:
        raise DataError("model checkpoint carries no class names")
    index = {name: i for i, name in enumerate(class_names)}
    manifest = pipeline.load_manifest(args.manifest)
    root = Path(args.manifest).parent
    records = []
    for kind, severity, batch in pipeline.iter_cells(manifest, root):
        preds = []
        for start in range(0, len(batch), args.adapt_batch):
            chunk = batch[start : start + args.adapt_batch]
            clouds = [cloud for _, _, cloud in chunk]
            model = _adapted_state(state, clouds, args, kind, severity)
            preds.extend(network.predict(model, clouds).tolist())
        wrong = 0
        for (sid, cls, _), pred in zip(batch, preds):
            if cls not in index:
                raise DataError(f"sample {sid} has class {cls!r} unknown to the model")
            records.append(
                metrics.PredictionRecord(sid, kind, severity, index[cls], int(pred))
            )
            wrong += int(index[cls] != pred)
        log_event(event="cell_evaluated", corruption=kind, severity=severity,
                  n=len(batch), error_rate=wrong / len(batch))
    metrics.write_predictions(records, args.out)
    clean = [r for r in records if r.corruption == "clean"]
    corrupted = [r for r in records if r.corruption != "clean"]
    parts = [f"{len(records)} predictions -> {args.out}"]
    if clean:
        parts.append(f"ER_clean={metrics.error_rate(clean):.3f}")
    if corrupted:
        parts.append(f"ER_corrupted={metrics.error_rate(corrupted):.3f}")
    print("  ".join(parts))
    return 0


def cmd_attack(args) -> int:
    state, meta = network.load_checkpoint(args.model)
    class_names = meta.get("class_names")
    if not class_names:
        raise DataError("model checkpoint carries no class names")
    index = {name: i for i, name in enumerate(class_names)}
    manifest = pipeline.load_manifest(args.manifest)
    root = Path(args.manifest).parent
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    pgd = network.PgdConfig(epsilon=args.epsilon, alpha=args.alpha, steps=args.steps)
    seed = _resolve_seed(args, {})
    n_total = n_clean_ok = n_adv_ok = 0
    for sample in manifest.samples:
        sid, cls = sample["sample_id"], sample["class_name"]
        if cls not in index:
            raise DataError(f"sample {sid} has class {cls!r} unknown to the model")
        label = index[cls]
        cloud = load_cloud(root / sample["clean"]["path"])
        rng = _rng.stream(seed, 0x706764, _rng.hash_sample_id(sid))
        adv = network.pgd_attack(state, cloud, label, pgd, rng)
        save_cloud(adv, out_root / f"{sid}.ply")
        pred_clean = int(network.predict(state, [cloud])[0])
        pred_adv = int(network.predict(state, [adv])[0])
        n_total += 1
        n_clean_ok += int(pred_clean == label)
        n_adv_ok += int(pred_adv == label)
        log_event(event="attacked", sample=sid, clean_pred=pred_clean,
                  adv_pred=pred_adv, label=label)
    print(
        f"attacked {n_total} samples: clean_acc={n_clean_ok / n_total:.3f} "
        f"adv_acc={n_adv_ok / n_total:.3f} -> {out_root}"
    )
    return 0


def cmd_bench(args) -> int:
    report, coverage = pipeline.run_benchmark(
        args.predictions, args.manifest, args.out, fmt=args.format
    )
    for cell in coverage["missing_cells"]:
        log_event(event="missing_cell", corruption=cell[0], severity=cell[1])
    def pct(x):
        return "n/a" if x is None else f"{100 * x:.1f}%"
    print(
        f"ER_clean={pct(report.er_clean)}  ER_cor={pct(report.er_cor)}  "
        f"mER_cor={pct(report.mer_cor)}"
        + (f"  ({len(coverage['missing_cells'])} cells missing)"
           if coverage["missing_cells"] else "")
    )
    return 0


def cmd_export(args) -> int:
    in_path = Path(args.input)
    if in_path.suffix.lower() in MESH_SUFFIXES:
        raise DataError("export converts point-cloud files; sample the mesh first")
    cloud = load_cloud(in_path)
    save_cloud(cloud, args.output, ascii_format=args.ascii)
    print(f"{cloud.count} points -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="pccorrupt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a corrupted dataset")
    p.add_argument("input_dir")
    p.add_argument("output_dir")
    p.add_argument("--kinds", help="comma list or 'all'")
    p.add_argument("--severities", help="comma list or 'all'")
    p.add_argument("--points", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--table", help="severity-table override JSON")
    p.add_argument("--config", help="JSON config; flags win")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("apply", help="corrupt a single file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--kind", required=False)
    p.add_argument("--severity", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--points", type=int)
    p.add_argument("--table")
    p.add_argument("--config")
    p.add_argument("--ascii", action="store_true")
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--sidecar", help="write provenance JSON here")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("train", help="train the point classifier on clean clouds")
    p.add_argument("manifest")
    p.add_argument("--out", default="model.tpn")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--smoothing", type=float)
    p.add_argument("--mix", choices=["none", "cutmix_r", "cutmix_k", "mixup", "rsmix"])
    p.add_argument("--mix-lam", dest="mix_lam", type=float)
    p.add_argument("--no-augment", action="store_const", const=True, default=None)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="predict over a generated dataset")
    p.add_argument("model")
    p.add_argument("manifest")
    p.add_argument("--out", default="predictions.csv")
    p.add_argument("--adapt", choices=["none", "bn", "tent"], default="none")
    p.add_argument("--adapt-batch", dest="adapt_batch", type=int, default=32)
    p.add_argument("--blend", type=float, default=1.0)
    p.add_argument("--tent-lr", dest="tent_lr", type=float, default=1e-3)
    p.add_argument("--tent-steps", dest="tent_steps", type=int, default=1)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("attack", help="run the point-shifting attack on clean clouds")
    p.add_argument("model")
    p.add_argument("manifest")
    p.add_argument("--out", default="adversarial")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=7)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("bench", help="score a prediction CSV against a manifest")
    p.add_argument("predictions")
    p.add_argument("manifest")
    p.add_argument("--out", default="report.json")
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export", help="convert a point-cloud file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--ascii", action="store_true")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        log_event(event="usage_error", error=str(exc))
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _DATA_EXCEPTIONS as exc:
        log_event(event="error", error=str(exc), type=type(exc).__name__)
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        log_event(event="error", error=str(exc), type="ValueError")
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
