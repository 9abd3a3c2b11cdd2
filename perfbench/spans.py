"""Span recorder that wraps pccorrupt's layer entry points from outside.

Nothing under src/ knows about tracing: `instrument` replaces public
functions and methods where their callers look them up (a module global,
a class attribute) with wrappers that open a span, and puts the originals
back afterwards.  Spans stay in memory; `Tracer.dump` writes them out once
the run is over.

A span records its name, start and end (perf_counter), the thread and
process CPU it consumed, an optional work count `n`, its parent span and
the run id.  Spans opened by gen's worker threads, which start with an
empty stack, get the innermost open span of the main thread as parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from pccorrupt import augmentation, cli, corruptions, metrics, network, occlusion, pipeline
from pccorrupt.severity import CorruptionKind, SeverityTable


@dataclass
class Span:
    span_id: int
    parent: int
    name: str
    run: str
    start: float
    end: float = 0.0
    thread_cpu: float = 0.0
    process_cpu: float = 0.0
    n: int = 0

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1].span_id
        else:
            main = self._main_stack
            parent = main[-1].span_id if main else 0
        span = Span(next(self._ids), parent, name, self.run, time.perf_counter())
        cpu0, pcpu0 = time.thread_time(), time.process_time()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = time.perf_counter()
            span.thread_cpu = time.thread_time() - cpu0
            span.process_cpu = time.process_time() - pcpu0
            self.spans.append(span)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _wrap(tracer, owner, attr, name, count=None):
    """Replace owner.attr by a span-recording wrapper; return an undo record.

    `name` is a string or a callable of (args, kwargs) giving the span name;
    `count` maps (args, kwargs, result) to the span's work count.
    """
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        with tracer.span(label) as span:
            result = original(*args, **kwargs)
            if count is not None:
                span.n = count(args, kwargs, result)
        return result

    setattr(owner, attr, wrapper)
    return owner, attr, original


def _wrap_generator(tracer, owner, attr, name):
    """Like _wrap for a generator function: one span per item produced."""
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        items = original(*args, **kwargs)
        while True:
            with tracer.span(name):
                try:
                    item = next(items)
                except StopIteration:
                    return
            yield item

    setattr(owner, attr, wrapper)
    return owner, attr, original


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    return f"network.forward.{mode}"


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced entry point for the duration of the block."""

    def w(owner, attr, name, count=None):
        undo.append(_wrap(tracer, owner, attr, name, count))

    undo = []
    try:
        w(pipeline, "run_generate", "pipeline.run_generate")
        w(pipeline, "apply_corruption", lambda a, k: f"corruptions.{a[1].kind.value}")
        undo.append(_wrap_generator(tracer, pipeline, "iter_cells", "pipeline.iter_cells"))
        w(SeverityTable, "digest", "severity.table_digest")
        for owner in (corruptions, augmentation):
            w(owner, "nearest_indices", "geometry.nearest_indices")
        w(pipeline, "sample_surface", "geometry.sample_surface")
        for attr in ("solve_rbf", "apply_rbf", "apply_ffd"):
            w(corruptions, attr, f"deformation.{attr}")
        w(corruptions, "occlusion_cloud", "occlusion.occlusion_cloud")
        w(corruptions, "lidar_cloud", "occlusion.lidar_cloud")
        w(occlusion, "raycast_visible", "occlusion.raycast_visible")
        w(occlusion.Bvh, "__init__", "occlusion.bvh_build")
        w(occlusion.Bvh, "nearest_hits", "occlusion.nearest_hits",
          lambda a, k, r: len(r[0]))
        w(pipeline, "write_ply", "io_formats.write_ply", lambda a, k, r: len(r))
        for owner in (pipeline, cli):
            w(owner, "load_cloud", "io_formats.load_cloud")
        w(pipeline, "load_mesh", "io_formats.load_mesh")
        w(cli, "save_cloud", "io_formats.save_cloud")
        w(network, "apply_mix", "augmentation.apply_mix")
        w(network, "forward", _forward_name, lambda a, k, r: len(r[1]["x"]))
        w(network, "backward", "network.backward")
        w(network.AdamState, "step", "network.adam_step")
        for attr in ("bn_adapt", "tent_adapt", "pgd_attack", "predict"):
            w(network, attr, f"network.{attr}")
        w(metrics, "write_predictions", "metrics.write_predictions")
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[Span], children: dict[int, list[Span]]) -> dict[int, float]:
    """Span id -> wall time not covered by any of its child spans.

    Children of one parent may overlap (worker threads), so the covered
    part is the length of the union of their intervals.
    """
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = s.wall - covered
    return out


KINDS = tuple(k.value for k in CorruptionKind)
SELF_TIMED = (
    "pipeline.run_generate", "pipeline.iter_cells", "severity.table_digest",
    "geometry.nearest_indices", "geometry.sample_surface",
    "deformation.solve_rbf", "deformation.apply_rbf", "deformation.apply_ffd",
    "occlusion.bvh_build", "occlusion.nearest_hits",
    "occlusion.occlusion_cloud", "occlusion.lidar_cloud",
    "io_formats.write_ply", "io_formats.load_cloud", "io_formats.load_mesh",
    "io_formats.save_cloud", "augmentation.apply_mix",
    "network.forward.train", "network.forward.eval", "network.forward.adapt",
    "network.backward", "network.adam_step", "network.bn_adapt",
    "network.tent_adapt", "network.pgd_attack", "metrics.write_predictions",
    "cli.gen", "cli.train", "cli.eval", "cli.attack", "cli.bench",
) + tuple(f"corruptions.{k}" for k in KINDS)
CALL_COUNTED = (
    "severity.table_digest", "geometry.nearest_indices", "io_formats.write_ply",
    "io_formats.load_cloud", "augmentation.apply_mix",
) + tuple(f"corruptions.{k}" for k in KINDS)


def point_layer_shapes() -> list[tuple[int, int]]:
    """(fan_in, width) of the network's shared per-point layers, by default."""
    widths = inspect.signature(network.NetworkState.create).parameters["point_dims"].default
    dims = (3, *widths)
    return list(zip(dims, dims[1:]))


def forward_flop_per_point() -> int:
    """FLOP of one point through the shared per-point layers (2 per
    multiply-add); the per-cloud head adds < 0.1% at 1,024 points."""
    return 2 * sum(a * b for a, b in point_layer_shapes())


def layer_metrics(spans: list[Span], rounds: int) -> dict:
    """Per-round per-layer metrics (see BENCHMARK.json `per_layer`).

    Span names `cli.eval_none` etc. fold into `cli.eval`.  Self times and
    counts are totals over all traced rounds divided by `rounds`.
    """
    groups, kids = defaultdict(list), defaultdict(list)
    for s in spans:
        groups["cli.eval" if s.name.startswith("cli.eval") else s.name].append(s)
        kids[s.parent].append(s)
    own = self_times(spans, kids)

    def total_self(name):
        return sum(own[s.span_id] for s in groups.get(name, ()))

    def per_round(x):
        return x / rounds

    m = {}
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = per_round(total_self(name))
    for name in CALL_COUNTED:
        m[f"{name}.calls"] = per_round(len(groups.get(name, ())))

    m["io_formats.write_ply.bytes"] = per_round(sum(s.n for s in groups["io_formats.write_ply"]))
    m["corruptions.wait_s"] = per_round(sum(
        s.wall - s.thread_cpu for k in KINDS for s in groups.get(f"corruptions.{k}", ())
    ))

    def cpu_per_wall(names):
        chosen = [s for n in names for s in groups.get(n, ())]
        wall = sum(s.wall for s in chosen)
        return sum(s.process_cpu for s in chosen) / wall if wall > 0 else 0.0

    m["pipeline.cpu_per_wall"] = cpu_per_wall(["cli.gen"])
    m["network.cpu_per_wall"] = cpu_per_wall(["cli.train", "cli.eval", "cli.attack"])

    hits = groups.get("occlusion.nearest_hits", ())
    rays = sum(s.n for s in hits)
    hit_time = sum(s.wall for s in hits)
    m["occlusion.bvh_builds"] = per_round(len(groups.get("occlusion.bvh_build", ())))
    m["occlusion.rays_cast"] = per_round(rays)
    m["occlusion.rays_per_s"] = rays / hit_time if hit_time > 0 else 0.0

    def rays_below(span):
        """Rays cast per nearest_hits call in the subtree, in start order."""
        found = []
        for c in kids.get(span.span_id, ()):
            found += [(c.start, c.n)] if c.name == "occlusion.nearest_hits" else rays_below(c)
        return sorted(found)

    view_calls = groups.get("occlusion.occlusion_cloud", [])
    casts = kept = cast_rays = 0
    for s in view_calls + groups.get("occlusion.lidar_cloud", []):
        found = rays_below(s)
        if s.name == "occlusion.occlusion_cloud":
            casts += len(found)
        if found:
            kept += found[-1][1]
            cast_rays += sum(n for _, n in found)
    m["occlusion.casts_per_call"] = casts / len(view_calls) if view_calls else 0.0
    m["occlusion.useful_ray_ratio"] = kept / cast_rays if cast_rays else 0.0

    flop, fwd_time = 0, 0.0
    per_point = forward_flop_per_point()
    for mode in ("train", "eval", "adapt"):
        calls = groups.get(f"network.forward.{mode}", ())
        points = sum(s.n for s in calls)
        m[f"network.forward.{mode}.points"] = per_round(points)
        flop += points * per_point
        fwd_time += sum(s.wall for s in calls)
    m["network.forward.gflop"] = per_round(flop / 1e9)
    m["network.forward.gflops_achieved"] = flop / 1e9 / fwd_time if fwd_time > 0 else 0.0

    attacks = groups.get("cli.attack", ())
    attacked = sum(s.n for s in attacks)
    predicts = sum(c.name == "network.predict" for s in attacks for c in kids[s.span_id])
    m["network.predict.calls_per_attacked_cloud"] = predicts / attacked if attacked else 0.0
    return m
