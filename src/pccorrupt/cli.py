"""Command-line front end.

Subcommands: gen, apply, train, eval, attack, bench, export.  gen, apply
and train declare the options a flag or a --config JSON file may set in
one table each (GEN_OPTIONS, APPLY_OPTIONS, TRAIN_OPTIONS); a setting
comes from its flag, else its config key (the option's name), else its
default.  An unknown config key, a value of the wrong JSON type and a
value outside a flag's choices are data errors; a gen kind or severity
list that names nothing or repeats an entry is a usage error.  A
default that a consuming dataclass holds (RunConfig, TrainConfig,
PgdConfig, TentConfig, CorruptionSpec) or bn_adapt's blend is read from
there.  stderr carries only JSON lines, a failing command's `usage_error`
or `error` event included; the human-readable summary goes to stdout.

Exit codes: 0 success, 1 usage error (argparse or UsageError), 2 any
ValueError, OSError or OverflowError (every bad-input error pccorrupt
raises is a ValueError), 3 generation finished with some per-sample
failures.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import _cpus, _rng, metrics, network, pipeline
from ._version import __version__
from .augmentation import MIXERS
from .io_formats import MESH_SUFFIXES, load_cloud, parse_json, save_cloud, sha256_tag, write_file
from .corruptions import apply_corruption
from .pipeline import MIN_POINT_BUDGET, DataError, RunConfig
from .severity import (
    KIND_NAMES, SEVERITIES, CorruptionKind, CorruptionSpec, SeverityTable, check_severity,
)

USAGE_ERROR = 1
DATA_ERROR = 2
PARTIAL_ERROR = 3


class UsageError(Exception):
    """Bad invocation detected after argparse (maps to exit code 1)."""


class Option(NamedTuple):
    """An option a flag or the --config file may set; a None default means unset."""

    type: type
    default: object = None
    choices: tuple | None = None
    help: str | None = None


GEN_OPTIONS = {
    "kinds": Option(str, help="comma list or 'all'"),
    "severities": Option(str, help="comma list or 'all'"),
    "points": Option(int, RunConfig.point_budget),
    "seed": Option(int, RunConfig.seed),
    "workers": Option(int, RunConfig.workers),
    "table": Option(str, help="severity-table override JSON"),
}
APPLY_OPTIONS = {
    "kind": Option(str),
    "severity": Option(int, 3),
    "seed": Option(int, CorruptionSpec.seed),
    "points": Option(int, RunConfig.point_budget),
    "table": Option(str),
}
# Named as the TrainConfig fields they set.
TRAIN_OPTIONS = {
    "epochs": Option(int, network.TrainConfig.epochs),
    "batch_size": Option(int, network.TrainConfig.batch_size),
    "lr": Option(float, network.TrainConfig.lr),
    "smoothing": Option(float, network.TrainConfig.smoothing),
    "mix": Option(str, network.TrainConfig.mix, choices=("none", *MIXERS)),
    "mix_lam": Option(float, network.TrainConfig.mix_lam),
    "seed": Option(int, network.TrainConfig.seed),
    "augment": Option(bool, network.TrainConfig.augment),
}


def log_event(**fields):
    print(json.dumps(fields, sort_keys=True), file=sys.stderr, flush=True)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        log_event(event="usage_error", error=message)
        raise SystemExit(USAGE_ERROR)


def _options(flags: dict, path, options: dict) -> dict:
    """Each option's flag value if given, else its --config value, else its default.

    The config file holds a JSON object keyed by option names; a value
    must be of its option's type (an int passes for a float and becomes
    one; a bool passes only for bool) and among its choices.  Anything
    else is a DataError.
    """
    config = {}
    if path is not None:
        config = parse_json(Path(path).read_bytes(), f"config file {path}")
        if not isinstance(config, dict):
            raise DataError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(config) - set(options))
        if unknown:
            raise DataError(
                f"config file {path} has unknown keys {unknown}; accepted: {sorted(options)}")
    values = {}
    for name, (kind, default, choices, _) in options.items():
        value = flags.get(name)
        if value is None and name in config:
            value = config[name]
            allowed = (int, float) if kind is float else kind
            if not isinstance(value, allowed) or (isinstance(value, bool) and kind is not bool):
                raise DataError(
                    f"config key {name!r} must be of type {kind.__name__}, got {json.dumps(value)}"
                )
            if choices is not None and value not in choices:
                raise DataError(
                    f"config key {name!r} must be one of {list(choices)}, got {json.dumps(value)}"
                )
            value = kind(value)
        values[name] = default if value is None else value
    return values


def _parse_list(text, what: str, everything: tuple, parse) -> tuple:
    """`everything` for an unset list or 'all', else the comma list's entries
    through `parse`; an entry `parse` refuses, a list that names nothing and
    one that repeats an entry are UsageErrors."""
    if text in (None, "all"):
        return everything
    try:
        entries = tuple(parse(t.strip()) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not entries:
        raise UsageError(f"{what} list {text!r} names nothing")
    repeated = sorted({e for e in entries if entries.count(e) > 1})
    if repeated:
        raise UsageError(f"{what} list {text!r} repeats {repeated}")
    return entries


def _load_table(path) -> SeverityTable:
    if path is None:
        return SeverityTable.default()
    return SeverityTable.from_json(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    opts = _options(vars(args), args.config, GEN_OPTIONS)
    run = RunConfig(
        input_dir=args.input_dir,
        output_dir=args.output_dir,
        kinds=_parse_list(opts["kinds"], "kind", KIND_NAMES,
                          lambda name: CorruptionKind.from_name(name).value),
        severities=_parse_list(opts["severities"], "severity", SEVERITIES,
                               lambda text: check_severity(int(text))),
        point_budget=opts["points"],
        seed=opts["seed"],
        workers=opts["workers"],
        table=_load_table(opts["table"]),
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
    opts = _options(vars(args), args.config, APPLY_OPTIONS)
    if opts["kind"] is None:
        raise UsageError("apply needs --kind (or 'kind' in the config file)")
    try:
        kind = CorruptionKind.from_name(opts["kind"])
        severity = check_severity(opts["severity"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if opts["points"] < MIN_POINT_BUDGET:
        raise DataError(f"--points must be >= {MIN_POINT_BUDGET}, got {opts['points']}")
    seed = opts["seed"]
    table = _load_table(opts["table"])
    spec = CorruptionSpec(kind, severity, seed=seed)

    in_path = Path(args.input)
    is_mesh = in_path.suffix.lower() in MESH_SUFFIXES
    if kind in pipeline.MESH_KINDS and not is_mesh:
        raise DataError(f"{kind.value} needs a mesh input, got {in_path.suffix}")
    sample_id = in_path.stem
    sample_key = _rng.hash_sample_id(sample_id)
    if is_mesh or not args.no_normalize:
        mesh, cloud = pipeline.prepare_sample(in_path, opts["points"], seed, sample_key)
        data = mesh if kind in pipeline.MESH_KINDS else cloud
    else:
        data = pipeline.subsample(load_cloud(in_path), opts["points"], seed, sample_key)
    corrupted = apply_corruption(data, spec, table, sample_key=sample_key)
    save_cloud(corrupted, args.output, ascii_format=args.ascii)
    if args.sidecar:
        write_file(args.sidecar,
                   pipeline.sidecar_json(sample_id, spec, table, table.digest()).encode())
    log_event(event="applied", kind=kind.value, severity=severity,
              n_points=corrupted.count)
    print(f"{kind.value} s={severity}: {corrupted.count} points -> {args.output}")
    return 0


def cmd_train(args) -> int:
    flags = {**vars(args), "augment": False if args.no_augment else None}
    tconf = network.TrainConfig(**_options(flags, args.config, TRAIN_OPTIONS))
    manifest = pipeline.load_manifest(args.manifest)
    root = Path(args.manifest).parent
    samples, class_names = pipeline.load_labeled_clean(manifest, root)
    state = network.NetworkState.create(len(class_names), seed=tconf.seed)
    log_event(event="train_start", samples=len(samples), classes=len(class_names))
    trained, history = network.train(state, samples, tconf,
                                     on_epoch=lambda row: log_event(event="epoch", **row))
    digest = sha256_tag(json.dumps(tconf.__dict__, sort_keys=True).encode())
    network.save_checkpoint(trained, args.out, class_names=class_names,
                            config_digest=digest)
    last = history[-1]
    print(
        f"trained {len(samples)} samples, {len(class_names)} classes: "
        f"val_acc={last['val_acc']:.3f} val_loss={last['val_loss']:.4f} -> {args.out}"
    )
    return 0


def _model_and_manifest(args):
    """The checkpoint's state and class-name index, the manifest and its root."""
    state, meta = network.load_checkpoint(args.model)
    class_names = meta.get("class_names")
    if not class_names:
        raise DataError("model checkpoint carries no class names")
    index = {name: i for i, name in enumerate(class_names)}
    manifest = pipeline.load_manifest(args.manifest)
    for sample in manifest.samples:
        if sample["class_name"] not in index:
            raise DataError(f"sample {sample['sample_id']} has class "
                            f"{sample['class_name']!r} unknown to the model")
    return state, index, manifest, Path(args.manifest).parent


def cmd_eval(args) -> int:
    if args.adapt == "bn":
        network.check_blend(args.blend)
    tent = (network.TentConfig(lr=args.tent_lr, steps=args.tent_steps)
            if args.adapt == "tent" else None)
    least = 1 if args.adapt == "none" else network.MIN_ADAPT_BATCH  # a smaller chunk never adapts
    if args.adapt_batch < least:
        raise DataError(f"--adapt {args.adapt} needs --adapt-batch >= {least}, "
                        f"got {args.adapt_batch}")
    state, index, manifest, root = _model_and_manifest(args)
    if 0 < len(manifest.samples) < least:  # an empty manifest is iter_cells' error
        raise DataError(f"--adapt {args.adapt} needs {least} samples, got {len(manifest.samples)}")
    records, table = [], metrics.CountTable()
    for kind, severity, batch in pipeline.iter_cells(manifest, root):
        start_s = time.perf_counter()
        preds, chunk_classes = [], []
        for start in range(0, len(batch), args.adapt_batch):
            chunk = batch[start : start + args.adapt_batch]
            clouds = [cloud for _, _, cloud in chunk]
            if args.adapt == "none" or len(chunk) < network.MIN_ADAPT_BATCH:
                if args.adapt != "none":
                    log_event(event="adaptation_skipped", corruption=kind, severity=severity,
                              n=len(chunk))
                preds.extend(network.predict(state, clouds).tolist())
                continue
            _, logits = (network.bn_adapt(state, clouds, blend=args.blend) if args.adapt == "bn"
                         else network.tent_adapt(state, clouds, tent))
            preds.extend(logits.argmax(axis=1).tolist())
            # batch statistics adapt to this chunk's class mix as much as to the corruption
            chunk_classes.append(len({cls for _, cls, _ in chunk}))
        for (sid, cls, _), pred in zip(batch, preds):
            records.append(metrics.PredictionRecord(sid, kind, severity, index[cls], pred))
            table.add(records[-1])
        elapsed_s = time.perf_counter() - start_s
        log_event(event="cell_evaluated", corruption=kind, severity=severity,
                  n=len(batch), error_rate=table.cells[kind, severity].error_rate(),
                  ms=elapsed_s * 1e3, clouds_per_s=len(batch) / elapsed_s,
                  min_chunk_classes=min(chunk_classes, default=None))
    metrics.write_predictions(records, args.out)
    report = metrics.report_from_table(table)
    print(f"{len(records)} predictions -> {args.out}  "
          f"ER_clean={metrics.pct(report.er_clean)}  ER_cor={metrics.pct(report.er_cor)}")
    return 0


def cmd_attack(args) -> int:
    state, index, manifest, root = _model_and_manifest(args)
    pgd = network.PgdConfig(epsilon=args.epsilon, alpha=args.alpha, steps=args.steps)
    _, _, clean = next(pipeline.iter_cells(manifest, root))
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    def attack_one(item):
        """One clean cloud: its adversarial file and both predictions."""
        sid, cls, cloud = item
        cloud_start_s = time.perf_counter()
        rng = _rng.stream(args.seed, 0x706764, _rng.hash_sample_id(sid))
        adv = network.pgd_attack(state, cloud, index[cls], pgd, rng)
        save_cloud(adv, out_root / f"{sid}.ply")
        pred_clean = int(network.predict(state, [cloud])[0])
        pred_adv = int(network.predict(state, [adv])[0])
        return pred_clean, pred_adv, (time.perf_counter() - cloud_start_s) * 1e3

    start_s = time.perf_counter()
    # clouds are independent and each draws from its own stream; the
    # eval-mode products reduce over at most 256 terms, never over points,
    # so the bytes do not depend on the worker or BLAS thread count
    workers = min(len(clean), _cpus.usable_cpus())
    results = _cpus.map_tasks(attack_one, clean, workers, lambda e: log_event(**e))
    elapsed_s = time.perf_counter() - start_s
    n_clean_ok = n_adv_ok = 0
    for (sid, cls, _), (pred_clean, pred_adv, ms) in zip(clean, results):
        label = index[cls]
        n_clean_ok += int(pred_clean == label)
        n_adv_ok += int(pred_adv == label)
        log_event(event="attacked", sample=sid, clean_pred=pred_clean,
                  adv_pred=pred_adv, label=label, ms=ms)
    n_total = len(clean)
    log_event(event="attack_finished", n=n_total, ms=elapsed_s * 1e3,
              clouds_per_s=n_total / elapsed_s, workers=workers)
    print(
        f"attacked {n_total} samples: clean_acc={n_clean_ok / n_total:.3f} "
        f"adv_acc={n_adv_ok / n_total:.3f} -> {out_root}"
    )
    return 0


def cmd_bench(args) -> int:
    report, missing = pipeline.run_benchmark(
        args.predictions, args.manifest, args.out, fmt=args.format
    )
    for cell in missing:
        log_event(event="missing_cell", corruption=cell[0], severity=cell[1])
    missing_note = f"  ({len(missing)} cells missing)" if missing else ""
    print(f"ER_clean={metrics.pct(report.er_clean)}  ER_cor={metrics.pct(report.er_cor)}  "
          f"mER_cor={metrics.pct(report.mer_cor)}{missing_note}")
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


def _add_options(parser, options: dict):
    """A --flag for each option but a bool (train's augment has --no-augment), and --config."""
    for name, (kind, _, choices, help_text) in options.items():
        if kind is not bool:
            parser.add_argument("--" + name.replace("_", "-"), type=kind, choices=choices,
                                help=help_text)
    parser.add_argument("--config", help="JSON config; flags win")


def build_parser() -> _Parser:
    parser = _Parser(prog="pccorrupt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a corrupted dataset")
    p.add_argument("input_dir")
    p.add_argument("output_dir")
    _add_options(p, GEN_OPTIONS)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("apply", help="corrupt a single file")
    p.add_argument("input")
    p.add_argument("output")
    _add_options(p, APPLY_OPTIONS)
    p.add_argument("--ascii", action="store_true")
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--sidecar", help="write provenance JSON here")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("train", help="train the point classifier on clean clouds")
    p.add_argument("manifest")
    p.add_argument("--out", default="model.tpn")
    _add_options(p, TRAIN_OPTIONS)
    p.add_argument("--no-augment", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="predict over a generated dataset")
    p.add_argument("model")
    p.add_argument("manifest")
    p.add_argument("--out", default="predictions.csv")
    p.add_argument("--adapt", choices=["none", "bn", "tent"], default="none")
    p.add_argument("--adapt-batch", dest="adapt_batch", type=int, default=32)
    p.add_argument("--blend", type=float,
                   default=inspect.signature(network.bn_adapt).parameters["blend"].default)
    p.add_argument("--tent-lr", dest="tent_lr", type=float, default=network.TentConfig.lr)
    p.add_argument("--tent-steps", dest="tent_steps", type=int,
                   default=network.TentConfig.steps)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("attack", help="run the point-shifting attack on clean clouds")
    p.add_argument("model")
    p.add_argument("manifest")
    p.add_argument("--out", default="adversarial")
    p.add_argument("--epsilon", type=float, default=network.PgdConfig.epsilon)
    p.add_argument("--alpha", type=float, default=network.PgdConfig.alpha)
    p.add_argument("--steps", type=int, default=network.PgdConfig.steps)
    p.add_argument("--seed", type=int, default=0)
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
        return USAGE_ERROR
    except (ValueError, OSError, OverflowError) as exc:
        log_event(event="error", error=str(exc), error_type=type(exc).__name__)
        return DATA_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
