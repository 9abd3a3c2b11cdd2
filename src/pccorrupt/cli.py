"""Command-line front end.

Subcommands: gen, apply, train, eval, attack, bench, export.  gen, apply
and train declare the options a flag or a --config JSON file may set in
one table each (GEN_OPTIONS, APPLY_OPTIONS, TRAIN_OPTIONS); explicit
flags win over the file.  An unknown config key, a value of the wrong
JSON type and a value outside a flag's choices are data errors.  A
default that a consuming dataclass holds (RunConfig, TrainConfig,
PgdConfig, TentConfig, CorruptionSpec) or bn_adapt's blend is read from
there.  Logs are JSON lines on stderr, the human-readable summary goes to
stdout.

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 generation finished with some per-sample failures.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import _rng, metrics, network, pipeline
from ._version import __version__
from .augmentation import MIXERS
from .io_formats import MESH_SUFFIXES, load_cloud, parse_json, save_cloud, write_file
from .corruptions import apply_corruption
from .occlusion import DegenerateViewError
from .pipeline import MIN_POINT_BUDGET, DataError, RunConfig
from .severity import SEVERITIES, CorruptionKind, CorruptionSpec, SeverityTable

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
# Named as the TrainConfig fields they set; a config file may give two of
# them by alias.
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
TRAIN_ALIASES = {"augmentation": "mix", "lambda": "mix_lam"}


def log_event(**fields):
    print(json.dumps(fields, sort_keys=True), file=sys.stderr, flush=True)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        log_event(event="usage_error", error=message)
        raise SystemExit(USAGE_ERROR)


def _options(flags: dict, path, options: dict, aliases: dict = {}) -> dict:
    """Each option's flag value if given, else its --config value, else its default.

    For `seed`, PC_CORRUPT_SEED comes between the config file and the
    default.  The config file holds a JSON object keyed by option names
    or their `aliases`; a value must be of its option's type (an int
    passes for a float and becomes one; a bool passes only for bool) and
    among its choices.  Anything else is a DataError.
    """
    config = {}
    if path is not None:
        config = parse_json(Path(path).read_bytes(), f"config file {path}")
        if not isinstance(config, dict):
            raise DataError(f"config file {path} must hold a JSON object")
        accepted = sorted([*options, *aliases])
        unknown = sorted(set(config) - set(accepted))
        if unknown:
            raise DataError(f"config file {path} has unknown keys {unknown}; accepted: {accepted}")
        for alias, name in aliases.items():
            if alias in config:
                if name in config:
                    raise DataError(f"config gives both {name!r} and its alias {alias!r}")
                config[name] = config.pop(alias)
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
        if value is None and name == "seed":
            value = _env_seed(default)
        values[name] = default if value is None else value
    return values


def _env_seed(default: int) -> int:
    """PC_CORRUPT_SEED if set, else `default`."""
    env = os.environ.get("PC_CORRUPT_SEED")
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise DataError(f"PC_CORRUPT_SEED is not an integer: {env!r}") from None


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
        kinds=_parse_kinds(opts["kinds"]),
        severities=_parse_severities(opts["severities"]),
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
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    severity = _check_severity(opts["severity"])
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
    tconf = network.TrainConfig(**_options(flags, args.config, TRAIN_OPTIONS, TRAIN_ALIASES))
    manifest = pipeline.load_manifest(args.manifest)
    root = Path(args.manifest).parent
    samples, class_names = pipeline.load_labeled_clean(manifest, root)
    state = network.NetworkState.create(len(class_names), seed=tconf.seed)
    log_event(event="train_start", samples=len(samples), classes=len(class_names))
    trained, history = network.train(state, samples, tconf,
                                     on_epoch=lambda row: log_event(event="epoch", **row))
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


def _predict_chunk(base, clouds, args, kind, severity):
    """Predicted classes of one chunk under the state `--adapt` makes of `base`."""
    if args.adapt == "none":
        return network.predict(base, clouds)
    if len(clouds) < 2:  # batch statistics need at least two clouds
        log_event(event="adaptation_skipped", corruption=kind, severity=severity,
                  n=len(clouds))
        return network.predict(base, clouds)
    if args.adapt == "bn":
        _, logits = network.bn_adapt(base, clouds, blend=args.blend)
    else:
        _, logits = network.tent_adapt(
            base, clouds, network.TentConfig(lr=args.tent_lr, steps=args.tent_steps)
        )
    return logits.argmax(axis=1)


def cmd_eval(args) -> int:
    if args.adapt_batch < 1:
        raise DataError(f"--adapt-batch must be >= 1, got {args.adapt_batch}")
    state, index, manifest, root = _model_and_manifest(args)
    records = []
    for kind, severity, batch in pipeline.iter_cells(manifest, root):
        start_s = time.perf_counter()
        preds = []
        for start in range(0, len(batch), args.adapt_batch):
            chunk = batch[start : start + args.adapt_batch]
            clouds = [cloud for _, _, cloud in chunk]
            preds.extend(_predict_chunk(state, clouds, args, kind, severity).tolist())
        wrong = 0
        for (sid, cls, _), pred in zip(batch, preds):
            records.append(
                metrics.PredictionRecord(sid, kind, severity, index[cls], int(pred))
            )
            wrong += int(index[cls] != pred)
        elapsed_s = time.perf_counter() - start_s
        log_event(event="cell_evaluated", corruption=kind, severity=severity,
                  n=len(batch), error_rate=wrong / len(batch), ms=elapsed_s * 1e3,
                  clouds_per_s=len(batch) / elapsed_s)
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
    state, index, manifest, root = _model_and_manifest(args)
    pgd = network.PgdConfig(epsilon=args.epsilon, alpha=args.alpha, steps=args.steps)
    seed = _env_seed(0) if args.seed is None else args.seed
    _, _, clean = next(pipeline.iter_cells(manifest, root))
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    n_total = n_clean_ok = n_adv_ok = 0
    for sid, cls, cloud in clean:
        label = index[cls]
        start_s = time.perf_counter()
        rng = _rng.stream(seed, 0x706764, _rng.hash_sample_id(sid))
        adv = network.pgd_attack(state, cloud, label, pgd, rng)
        save_cloud(adv, out_root / f"{sid}.ply")
        pred_clean = int(network.predict(state, [cloud])[0])
        pred_adv = int(network.predict(state, [adv])[0])
        n_total += 1
        n_clean_ok += int(pred_clean == label)
        n_adv_ok += int(pred_adv == label)
        log_event(event="attacked", sample=sid, clean_pred=pred_clean,
                  adv_pred=pred_adv, label=label, ms=(time.perf_counter() - start_s) * 1e3)
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
    def pct(x):
        return "n/a" if x is None else f"{100 * x:.1f}%"
    print(
        f"ER_clean={pct(report.er_clean)}  ER_cor={pct(report.er_cor)}  "
        f"mER_cor={pct(report.mer_cor)}"
        + (f"  ({len(missing)} cells missing)" if missing else "")
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
    except (DataError, DegenerateViewError, ValueError, OSError, OverflowError) as exc:
        log_event(event="error", error=str(exc), type=type(exc).__name__)
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
