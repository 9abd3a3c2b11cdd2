"""The benchmark's span wrappers still find, and then restore, every traced
entry point of the program (a renamed function fails here, not mid-run)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import spans  # noqa: E402
from pccorrupt import CorruptionKind, CorruptionSpec  # noqa: E402
from synthdata import random_cloud  # noqa: E402

TRACED_MODULES = ("augmentation", "cli", "corruptions", "metrics", "network",
                  "occlusion", "pipeline")


def _snapshot():
    """(owner, attribute) -> value over the traced modules and their classes."""
    owners = [getattr(spans, name) for name in TRACED_MODULES]
    owners += [
        value for module in list(owners) for value in vars(module).values()
        if isinstance(value, type) and value.__module__.startswith("pccorrupt.")
    ]
    return {(owner, key): value for owner in owners for key, value in vars(owner).items()}


def test_instrument_wraps_and_restores_every_entry_point():
    before = _snapshot()
    with spans.instrument(spans.Tracer()):
        during = _snapshot()
    after = _snapshot()

    wrapped = {key for key, value in during.items() if value is not before.get(key)}
    occlusion = spans.occlusion
    assert (occlusion.Bvh, "nearest_hits") in wrapped
    assert (occlusion.Bvh, "__init__") in wrapped
    # occlusion.casts_per_call counts the casts below each occlusion_cloud span
    assert (occlusion, "raycast_visible") in wrapped
    assert (spans.corruptions, "occlusion_cloud") in wrapped
    assert (spans.pipeline, "run_generate") in wrapped
    # the model workload's adam_step and apply_mix spans
    assert (spans.network.AdamState, "step") in wrapped
    assert (spans.network, "apply_mix") in wrapped
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_deformation_ops_call_their_steps_through_the_wrapped_globals():
    # an op that bound apply_ffd / solve_rbf / apply_rbf at import time would
    # bypass the wrappers and zero the deformation.* per-layer metrics
    tracer = spans.Tracer()
    cloud = random_cloud(64, seed=0)
    with spans.instrument(tracer):
        for kind in ("ffd", "rbf", "inv_rbf"):
            spec = CorruptionSpec(CorruptionKind.from_name(kind), 3, seed=0)
            spans.pipeline.apply_corruption(cloud, spec, sample_key=1)
    by_id = {s.span_id: s for s in tracer.spans}
    under = {(by_id[s.parent].name, s.name) for s in tracer.spans if s.parent in by_id}
    assert under == {
        ("corruptions.ffd", "deformation.apply_ffd"),
        ("corruptions.rbf", "deformation.solve_rbf"),
        ("corruptions.rbf", "deformation.apply_rbf"),
        ("corruptions.inv_rbf", "deformation.solve_rbf"),
        ("corruptions.inv_rbf", "deformation.apply_rbf"),
    }


def test_eval_adaptations_are_traced_through_the_network_module(tmp_path, capsys):
    # eval must look bn_adapt / tent_adapt up on the network module at call
    # time; a loop that bound them early would bypass the wrappers and zero
    # the network.bn_adapt / network.tent_adapt per-layer metrics
    from pccorrupt import NetworkState, save_checkpoint
    from synthdata import SHAPE_NAMES, write_shape_dataset

    src, data, model = tmp_path / "src", tmp_path / "data", tmp_path / "m.tpn"
    write_shape_dataset(src, n_per_class=1, seed=0)
    assert spans.cli.main(["gen", str(src), str(data), "--kinds", "gaussian",
                           "--severities", "1", "--points", "64"]) == 0
    save_checkpoint(NetworkState.create(len(SHAPE_NAMES)), model, class_names=list(SHAPE_NAMES))
    for mode in ("bn", "tent"):
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            assert spans.cli.main(["eval", str(model), str(data / "manifest.json"),
                                   "--out", str(tmp_path / f"{mode}.csv"),
                                   "--adapt", mode]) == 0
        adapted = [s for s in tracer.spans if s.name == f"network.{mode}_adapt"]
        assert len(adapted) == 2  # the clean and the gaussian cell, one chunk each
        for span in adapted:
            children = {c.name for c in tracer.spans if c.parent == span.span_id}
            assert "network.forward.adapt" in children
    capsys.readouterr()
