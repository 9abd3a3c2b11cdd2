"""The point-cloud classifier: forward/backward, training loop, attack and
test-time adaptation."""

import json
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccorrupt import (
    AdamState,
    NetworkState,
    PgdConfig,
    PointCloud,
    StaleCacheError,
    TentConfig,
    TrainConfig,
    backward,
    bn_adapt,
    forward,
    load_checkpoint,
    loss_entropy,
    loss_smoothed_ce,
    pgd_attack,
    predict,
    save_checkpoint,
    smooth_targets,
    tent_adapt,
    train,
)
from pccorrupt import network
from pccorrupt.network import BN_EPS, BN_MOMENTUM

from synthdata import labelled_clouds, random_cloud


def _tiny_state(n_classes=3, seed=0):
    return NetworkState.create(n_classes, point_dims=(4, 6, 8), head_dim=6, seed=seed)


def _clouds(sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, size=(n, 3)) for n in sizes]


# -- forward ---------------------------------------------------------------


def test_forward_shapes():
    state = _tiny_state()
    logits, cache = forward(state, _clouds([10, 7, 12]), mode="eval")
    assert logits.shape == (3, 3)
    assert np.isfinite(logits).all()
    assert cache["mode"] == "eval"
    assert len(cache["layers"]) == 4  # point0-point2, then head


def test_create_needs_two_classes_and_a_per_point_layer():
    with pytest.raises(ValueError, match="2 classes"):
        NetworkState.create(1)
    with pytest.raises(ValueError, match="per-point layer"):
        NetworkState.create(3, point_dims=())


def test_forward_rejects_bad_mode():
    with pytest.raises(ValueError):
        forward(_tiny_state(), _clouds([5]), mode="test")


def test_forward_permutation_invariant():
    state = _tiny_state()
    cloud = _clouds([40], seed=3)[0]
    rng = np.random.default_rng(4)
    shuffled = cloud[rng.permutation(40)]
    la, _ = forward(state, [cloud], mode="eval")
    lb, _ = forward(state, [shuffled], mode="eval")
    assert np.abs(la - lb).max() < 1e-10


def test_forward_duplicate_points_ignored_in_eval():
    state = _tiny_state()
    cloud = _clouds([20], seed=5)[0]
    dup = np.concatenate([cloud, cloud[3:4]], axis=0)
    la, _ = forward(state, [cloud], mode="eval")
    lb, _ = forward(state, [dup], mode="eval")
    assert np.array_equal(la, lb)


def test_forward_eval_batch_composition_irrelevant():
    state = _tiny_state()
    c1, c2 = _clouds([15, 9], seed=6)
    joint, _ = forward(state, [c1, c2], mode="eval")
    alone1, _ = forward(state, [c1], mode="eval")
    alone2, _ = forward(state, [c2], mode="eval")
    assert np.allclose(joint, np.concatenate([alone1, alone2]), atol=1e-12)


def test_forward_train_mode_reports_momentum_stats():
    """forward leaves the state alone; set_running_stats(batch, BN_MOMENTUM)
    then stores the momentum blend bit for bit."""
    state = _perturbed_state(seed=7)
    old = {name: t.copy() for name, t in state.running_stats().items()}
    _, cache = forward(state, _clouds([8, 8], seed=7), mode="train")
    batch = cache["batch_stats"]
    assert batch.keys() == old.keys()
    assert all(np.array_equal(t, old[name]) for name, t in state.running_stats().items())
    state.set_running_stats(batch, BN_MOMENTUM)
    for name, value in state.running_stats().items():
        expected = (1 - BN_MOMENTUM) * old[name] + BN_MOMENTUM * batch[name]
        assert np.array_equal(value, expected)


def test_forward_train_batch_stats_are_biased_moments():
    state = _tiny_state()
    clouds = _clouds([6, 10], seed=8)
    _, cache = forward(state, clouds, mode="train")
    x = np.concatenate(clouds) @ state.layers[0].w.T
    assert np.allclose(cache["batch_stats"]["point0.bn.mean"], x.mean(axis=0))
    assert np.allclose(cache["batch_stats"]["point0.bn.var"], x.var(axis=0))  # ddof=0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_rejects_non_finite_raw_points(bad):
    clouds = _clouds([5, 6], seed=12)
    clouds[1][2, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        forward(_tiny_state(), clouds, mode="eval")


def _perturbed_state(seed=13):
    """A tiny state whose batch-norm tensors are all away from their init."""
    state = _tiny_state(seed=seed)
    rng = np.random.default_rng(seed)
    for layer in state.layers:
        layer.gamma[...] = rng.uniform(0.5, 1.5, layer.gamma.shape)
        layer.beta[...] = rng.normal(0.0, 0.3, layer.beta.shape)
        layer.mean[...] = rng.normal(0.0, 0.3, layer.mean.shape)
        layer.var[...] = rng.uniform(0.5, 2.0, layer.var.shape)
    state.touch()
    return state


@pytest.mark.parametrize("mode", ["eval", "train", "adapt"])
def test_forward_and_backward_leave_inputs_and_state_unchanged(mode):
    state = _perturbed_state()
    clouds = _clouds([7, 9], seed=14)
    clouds_before = [c.copy() for c in clouds]
    tensors_before = {n: t.copy() for n, t in state.tensors().items()}
    logits, cache = forward(state, clouds, mode=mode)
    _, dlogits = loss_smoothed_ce(logits, np.array([0, 2]), 0.2)
    dlogits_before = dlogits.copy()
    backward(state, cache, dlogits)
    for before, after in zip(clouds_before, clouds):
        assert before.tobytes() == after.tobytes()
    for name, tensor in state.tensors().items():
        assert tensors_before[name].tobytes() == tensor.tobytes(), name
    assert dlogits_before.tobytes() == dlogits.tobytes()


@pytest.mark.parametrize("mode", ["eval", "train", "adapt"])
def test_backward_twice_on_one_cache_is_bit_identical(mode):
    state = _perturbed_state()
    logits, cache = forward(state, _clouds([7, 9], seed=15), mode=mode)
    _, dlogits = loss_smoothed_ce(logits, np.array([1, 2]), 0.2)
    grads1, dpoints1 = backward(state, cache, dlogits)
    grads2, dpoints2 = backward(state, cache, dlogits)
    assert dpoints1.tobytes() == dpoints2.tobytes()
    assert grads1.keys() == grads2.keys()
    for name in grads1:
        assert grads1[name].tobytes() == grads2[name].tobytes(), name


# -- backward --------------------------------------------------------------


@pytest.mark.parametrize("mode", ["train", "eval", "adapt"])
@pytest.mark.parametrize("requested", ["all", "bn_affine", "none"])
def test_backward_requested_gradients_equal_full_backward(mode, requested):
    state = _perturbed_state()
    logits, cache = forward(state, _clouds([7, 9], seed=17), mode=mode)
    _, dlogits = loss_smoothed_ce(logits, np.array([2, 0]), 0.2)
    full, full_points = backward(state, cache, dlogits)
    assert full.keys() == state.parameters().keys()
    wanted = {"all": list(full),
              "bn_affine": [n for n in full if n.endswith((".bn.gamma", ".bn.beta"))],
              "none": []}[requested]
    grads, dpoints = backward(state, cache, dlogits, wanted=wanted)
    assert grads.keys() == set(wanted)
    for name, g in grads.items():
        assert g.tobytes() == full[name].tobytes(), name
    assert dpoints.tobytes() == full_points.tobytes()


def test_backward_rejects_unknown_parameter_names():
    state = _tiny_state()
    logits, cache = forward(state, _clouds([5]), mode="eval")
    with pytest.raises(KeyError, match="point9.w"):
        backward(state, cache, logits, wanted=["point0.w", "point9.w"])


def _numeric_grad(f, tensor, h=1e-5):
    g = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = tensor[idx]
        tensor[idx] = orig + h
        fp = f()
        tensor[idx] = orig - h
        fm = f()
        tensor[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def _worst_gradcheck_error(state, clouds, labels, mode, check_points=False):
    """Worst relative error of backward's parameter gradients (and, if asked,
    input-point gradients) against central differences."""

    def run_loss():
        logits, _ = forward(state, clouds, mode=mode)
        loss, _ = loss_smoothed_ce(logits, labels, 0.2)
        return loss

    logits, cache = forward(state, clouds, mode=mode)
    _, dlogits = loss_smoothed_ce(logits, labels, 0.2)
    grads, dpoints = backward(state, cache, dlogits)
    checks = [(tensor, grads[name]) for name, tensor in state.parameters().items()]
    if check_points:
        offsets = np.cumsum([0] + [len(c) for c in clouds])
        checks += [(c, dpoints[a:b]) for c, a, b in zip(clouds, offsets[:-1], offsets[1:])]

    worst = 0.0
    for tensor, analytic in checks:
        fd = _numeric_grad(run_loss, tensor)
        err = np.abs(fd - analytic)
        # the 1e-5 floor sits above central-difference roundoff (~1e-10 on an
        # O(1) loss); some betas have exactly-zero gradients in train mode
        rel = err / np.maximum(np.abs(fd) + np.abs(analytic), 1e-5)
        worst = max(worst, float(rel.max()))
    return worst


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_gradcheck_all_parameters(mode):
    state = _tiny_state(seed=2)
    worst = _worst_gradcheck_error(state, _clouds([5, 4], seed=9), np.array([0, 2]), mode)
    assert worst < 1e-4, f"worst rel err {worst:.3e} in {mode} mode"


def _negative_pre_pool_gamma_state(seed=21):
    """A perturbed tiny state whose pre-pool layer has gammas of both signs."""
    state = _perturbed_state(seed)
    state.layers[-2].gamma[::2] *= -1.0
    state.touch()
    return state


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_gradcheck_negative_pre_pool_gamma(mode):
    # a feature with gamma < 0 pools at its smallest centred value, so its
    # gradient must reach that point and no other
    state = _negative_pre_pool_gamma_state()
    worst = _worst_gradcheck_error(state, _clouds([6, 5, 7], seed=22), np.array([0, 2, 1]),
                                   mode, check_points=True)
    assert worst < 1e-4, f"worst rel err {worst:.3e} in {mode} mode"


@pytest.mark.parametrize("mode", ["eval", "train", "adapt"])
@pytest.mark.parametrize("negative_gamma", [False, True])
def test_head_input_is_pooled_full_pre_pool_output(mode, negative_gamma):
    # the pre-pool layer pools before its scale, shift and ReLU; that must
    # equal pooling its full per-point output, computed the same way
    state = _negative_pre_pool_gamma_state() if negative_gamma else _perturbed_state()
    clouds = _clouds([7, 9, 5], seed=23)
    _, cache = forward(state, clouds, mode=mode)
    layer, layer_cache = state.layers[-2], cache["layers"][-2]
    y = layer.w @ layer_cache["input"].T  # (features x points), as forward computes it
    y -= layer_cache["mean"][:, None]
    y *= (layer.gamma * layer_cache["inv_std"])[:, None]
    y += layer.beta[:, None]
    np.maximum(y, 0.0, out=y)
    offsets = np.cumsum([0] + [len(c) for c in clouds])
    pooled = np.stack([y[:, a:b].max(axis=1) for a, b in zip(offsets[:-1], offsets[1:])])
    assert pooled.tobytes() == cache["layers"][-1]["input"].tobytes()


def _arrays(tree):
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, dict):
        for value in tree.values():
            yield from _arrays(value)
    elif isinstance(tree, list):
        for value in tree:
            yield from _arrays(value)


@pytest.mark.parametrize("mode", ["eval", "train", "adapt"])
def test_cache_holds_no_per_point_array_wider_than_a_fan_in(mode):
    # per point the cache keeps each layer's input and nothing wider: no
    # normalized copy, and no full pre-pool output
    state = NetworkState.create(3, seed=24)
    clouds = _clouds([20, 25], seed=25)
    _, cache = forward(state, clouds, mode=mode)
    n_points = sum(len(c) for c in clouds)
    widest = max(layer.w.shape[1] for layer in state.layers[:-1])
    per_point = [a.shape for a in _arrays({k: v for k, v in cache.items() if k != "state"})
                 if a.ndim == 2 and len(a) == n_points]
    assert per_point and max(width for _, width in per_point) <= widest, per_point


def test_gradcheck_input_points():
    state = _tiny_state(seed=3)
    clouds = _clouds([6], seed=10)
    labels = np.array([1])

    logits, cache = forward(state, clouds, mode="eval")
    _, dlogits = loss_smoothed_ce(logits, labels, 0.0)
    _, dpoints = backward(state, cache, dlogits)
    assert dpoints.shape == (6, 3)

    def run_loss():
        lg, _ = forward(state, clouds, mode="eval")
        loss, _ = loss_smoothed_ce(lg, labels, 0.0)
        return loss

    fd = _numeric_grad(run_loss, clouds[0])
    rel = np.abs(fd - dpoints) / np.maximum(np.abs(fd) + np.abs(dpoints), 1e-5)
    assert rel.max() < 1e-4


def test_backward_rejects_stale_cache():
    state = _tiny_state()
    logits, cache = forward(state, _clouds([5]), mode="train")
    _, dlogits = loss_smoothed_ce(logits, np.array([0]), 0.2)
    state.touch()
    with pytest.raises(StaleCacheError):
        backward(state, cache, dlogits)
    other = _tiny_state(seed=9)
    logits2, cache2 = forward(other, _clouds([5]), mode="train")
    with pytest.raises(StaleCacheError):
        backward(state, cache2, dlogits)


def test_max_pool_gradient_skips_shadowed_duplicates():
    # a duplicated point can never win the first-index tie-break, so in eval
    # mode (no batch-stat coupling) its input gradient must vanish
    state = _tiny_state()
    cloud = _clouds([12], seed=11)[0]
    dup = np.concatenate([cloud, cloud[4:5]], axis=0)
    logits, cache = forward(state, [dup], mode="eval")
    _, dlogits = loss_smoothed_ce(logits, np.array([0]), 0.0)
    _, dpoints = backward(state, cache, dlogits)
    assert np.array_equal(dpoints[12], np.zeros(3))
    assert np.abs(dpoints[:12]).max() > 0.0


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_pre_pool_feature_pooled_at_zero_routes_no_gradient(mode):
    # a pre-pool feature whose ReLU output is 0 at every point pools to 0, so
    # no gradient may reach that feature's column at any point
    state = _perturbed_state()
    pre_pool = state.layers[-2]
    dead = 3
    pre_pool.beta[dead] = -1e3
    state.touch()
    logits, cache = forward(state, _clouds([7, 9], seed=16), mode=mode)
    assert np.all(cache["layers"][-1]["input"][:, dead] == 0.0)
    _, dlogits = loss_smoothed_ce(logits, np.array([0, 1]), 0.2)
    grads, _ = backward(state, cache, dlogits)
    assert grads[f"{pre_pool.name}.bn.beta"][dead] == 0.0
    assert grads[f"{pre_pool.name}.bn.gamma"][dead] == 0.0
    assert np.all(grads[f"{pre_pool.name}.w"][dead] == 0.0)
    live = np.delete(np.arange(pre_pool.w.shape[0]), dead)
    assert np.abs(grads[f"{pre_pool.name}.bn.beta"][live]).max() > 0.0


# -- losses ----------------------------------------------------------------


def test_smooth_targets_values():
    t = smooth_targets(np.array([1]), 4, 0.3)
    off = 0.3 / 3
    assert np.allclose(t, [[off, 0.7, off, off]])
    assert t.sum() == pytest.approx(1.0)
    t0 = smooth_targets(np.array([2]), 4, 0.0)
    assert np.array_equal(t0, [[0, 0, 1, 0]])
    with pytest.raises(ValueError):
        smooth_targets(np.array([4]), 4, 0.1)


def test_smoothed_ce_reduces_to_plain_ce():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(5, 7))
    labels = rng.integers(0, 7, size=5)
    loss, _ = loss_smoothed_ce(logits, labels, 0.0)
    log_p = logits - logits.max(axis=1, keepdims=True)
    log_p = log_p - np.log(np.exp(log_p).sum(axis=1, keepdims=True))
    manual = -log_p[np.arange(5), labels].mean()
    assert loss == pytest.approx(manual, rel=1e-12)


def test_uniform_logits_loss_is_log_c():
    logits = np.zeros((3, 40))
    loss, grad = loss_smoothed_ce(logits, np.array([0, 1, 2]), 0.2)
    assert loss == pytest.approx(math.log(40), rel=1e-12)
    # softmax == target rows is false here, but each grad row still sums to 0
    assert np.abs(grad.sum(axis=1)).max() < 1e-12


def test_loss_gradients_numerically():
    rng = np.random.default_rng(13)
    logits = rng.normal(size=(2, 5))
    labels = np.array([3, 1])

    for loss_fn in (
        lambda lg: loss_smoothed_ce(lg, labels, 0.2),
        lambda lg: loss_entropy(lg),
    ):
        _, grad = loss_fn(logits)
        fd = np.zeros_like(logits)
        h = 1e-6
        for i in range(2):
            for j in range(5):
                up = logits.copy(); up[i, j] += h
                dn = logits.copy(); dn[i, j] -= h
                fd[i, j] = (loss_fn(up)[0] - loss_fn(dn)[0]) / (2 * h)
        assert np.abs(fd - grad).max() < 1e-6


def test_entropy_bounds():
    uniform = np.zeros((1, 8))
    ent, _ = loss_entropy(uniform)
    assert ent == pytest.approx(math.log(8), rel=1e-12)
    peaked = np.array([[50.0, 0, 0, 0, 0, 0, 0, 0]])
    ent_peaked, _ = loss_entropy(peaked)
    assert 0.0 <= ent_peaked < 1e-12


# -- optimizer -------------------------------------------------------------


def test_adam_zero_lr_is_identity():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    before = params["w"].copy()
    adam = AdamState(lr=0.0)
    adam.step(params, {"w": np.array([10.0, -5.0, 1.0])})
    assert np.array_equal(params["w"], before)


def test_adam_first_step_size():
    params = {"w": np.array([1.0, -2.0])}
    adam = AdamState(lr=0.01)
    adam.step(params, {"w": np.array([3.0, -0.5])})
    # bias correction makes the first update lr * g/|g| (up to eps)
    assert np.allclose(params["w"], [1.0 - 0.01, -2.0 + 0.01], atol=1e-7)


def test_adam_accumulates_momentum():
    params = {"w": np.zeros(1)}
    adam = AdamState(lr=0.1)
    for _ in range(5):
        adam.step(params, {"w": np.ones(1)})
    assert adam.t == 5
    assert params["w"][0] < -0.4  # five ~0.1-sized steps downhill


# -- training --------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(smoothing=1.0)
    with pytest.raises(ValueError, match="unknown mix 'cutmix'"):
        TrainConfig(mix="cutmix")
    for lam in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="mix_lam must be in"):
            TrainConfig(mix_lam=lam)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            TrainConfig(lr=bad)
        with pytest.raises(ValueError):
            TentConfig(lr=bad)
        with pytest.raises(ValueError):
            PgdConfig(epsilon=bad)


def test_train_learns_separable_toy_set():
    # two point blobs at +x and -x: linearly separable after pooling
    from pccorrupt import LabeledCloud, one_hot

    rng = np.random.default_rng(31)
    data = []
    for i in range(24):
        cls = i % 2
        center = np.array([1.0 if cls == 0 else -1.0, 0.0, 0.0])
        pts = center + 0.1 * rng.standard_normal((32, 3))
        data.append(LabeledCloud(PointCloud(pts), one_hot(cls, 2)))
    state = NetworkState.create(2, seed=1, point_dims=(8, 16, 32), head_dim=16)
    best, _ = train(state, data, TrainConfig(epochs=50, batch_size=8, lr=1e-3, seed=3))
    preds = predict(best, [s.cloud.points for s in data])
    truth = np.array([int(s.label.argmax()) for s in data])
    assert (preds == truth).mean() == 1.0


def test_train_returns_history_and_is_deterministic():
    data = labelled_clouds(8, 32, seed=21, n_classes=2)
    cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=5)
    make = lambda: NetworkState.create(2, point_dims=(4, 6, 8), head_dim=6, seed=2)
    s1, h1 = train(make(), data, cfg)
    s2, h2 = train(make(), data, cfg)
    assert [row["epoch"] for row in h1] == [0, 1]
    assert set(h1[0]) == {"epoch", "train_loss", "val_loss", "val_acc", "lr"}
    assert h1 == h2
    for name, t in s1.parameters().items():
        assert np.array_equal(t, s2.parameters()[name]), name


def test_train_plateau_rule_halves_lr(monkeypatch):
    data = labelled_clouds(8, 32, seed=22, n_classes=2)
    # an impossible improvement threshold forces a halving every 2 epochs
    monkeypatch.setattr(network, "PLATEAU_PATIENCE", 2)
    monkeypatch.setattr(network, "PLATEAU_MIN_DELTA", 1e9)
    cfg = TrainConfig(epochs=6, batch_size=8, lr=1e-3, seed=6)
    state = NetworkState.create(2, point_dims=(4, 6, 8), head_dim=6, seed=2)
    _, history = train(state, data, cfg)
    lrs = [row["lr"] for row in history]
    assert lrs == [1e-3, 5e-4, 5e-4, 2.5e-4, 2.5e-4, 1.25e-4]


def test_train_needs_two_classes():
    data = labelled_clouds(8, 16, seed=23, n_classes=2)
    single = [s for s in data if int(s.label.argmax()) == 0]
    with pytest.raises(ValueError):
        train(_tiny_state(2), single, TrainConfig(epochs=1, batch_size=4))


# -- checkpoints -----------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    state = _tiny_state(seed=4)
    # make running stats non-trivial so they round-trip too
    adapted, _ = bn_adapt(state, _clouds([8, 8], seed=14))
    path = tmp_path / "model.tpn"
    save_checkpoint(adapted, path, class_names=["a", "b", "c"], config_digest="sha256:x")
    loaded, meta = load_checkpoint(path)
    assert meta["class_names"] == ["a", "b", "c"]
    assert meta["config_digest"] == "sha256:x"
    assert meta["point_dims"] == [4, 6, 8]
    for name, t in adapted.parameters().items():
        assert np.array_equal(t, loaded.parameters()[name]), name
    for name, t in adapted.running_stats().items():
        assert np.array_equal(t, loaded.running_stats()[name]), name
    lg_a, _ = forward(adapted, _clouds([5], seed=15), mode="eval")
    lg_b, _ = forward(loaded, _clouds([5], seed=15), mode="eval")
    assert np.array_equal(lg_a, lg_b)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tpn"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_checkpoint(path)

    good = tmp_path / "good.tpn"
    save_checkpoint(_tiny_state(), good)
    data = good.read_bytes()
    (tmp_path / "cut.tpn").write_bytes(data[:-17])
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "cut.tpn")


def _meta_edited(edit):
    """Corrupt a checkpoint by applying the in-place `edit` to its metadata."""

    def corrupt(data):
        (n,) = struct.unpack("<I", data[4:8])
        meta = json.loads(data[8 : 8 + n])
        edit(meta)
        blob = json.dumps(meta).encode()
        return data[:4] + struct.pack("<I", len(blob)) + blob + data[8 + n :]

    return corrupt


def _meta_replaced(blob):
    return lambda data: data[:4] + struct.pack("<I", len(blob)) + blob


def _tensor_value_set(*edits):
    """Corrupt a checkpoint by setting the first value of each named tensor."""

    def corrupt(data):
        (n,) = struct.unpack("<I", data[4:8])
        offsets, offset = {}, 8 + n
        for entry in json.loads(data[8 : 8 + n])["tensors"]:
            offsets[entry["name"]] = offset
            offset += 8 * math.prod(entry["shape"])
        for name, value in edits:
            at = offsets[name]
            data = data[:at] + struct.pack("<d", value) + data[at + 8 :]
        return data

    return corrupt


_MALFORMED_CHECKPOINTS = {
    "header_only_magic": lambda data: data[:4],
    "header_cut": lambda data: data[:7],
    "meta_list": _meta_replaced(b"[1, 2]"),
    "meta_string": _meta_replaced(b'"meta"'),
    **{f"no_{key}": _meta_edited(lambda m, key=key: m.pop(key))
       for key in ("n_classes", "point_dims", "head_dim", "tensors")},
    "n_classes_str": _meta_edited(lambda m: m.update(n_classes="x")),
    "n_classes_bool": _meta_edited(lambda m: m.update(n_classes=True)),
    "head_dim_float": _meta_edited(lambda m: m.update(head_dim=2.5)),
    "head_dim_zero": _meta_edited(lambda m: m.update(head_dim=0)),
    "point_dims_str": _meta_edited(lambda m: m.update(point_dims="468")),
    "point_dims_mixed": _meta_edited(lambda m: m.update(point_dims=[4, "6", 8])),
    # refused from the byte count, before any tensor of that size is allocated
    "point_dims_huge": _meta_edited(lambda m: m.update(point_dims=[2**40])),
    "n_classes_huge": _meta_edited(lambda m: m.update(n_classes=2**40)),
    "tensors_short": lambda data: data[:-8],
    "tensors_trailing": lambda data: data + bytes(8),
    "tensors_object": _meta_edited(lambda m: m.update(tensors={"point0.w": [4, 3]})),
    "entry_no_name": _meta_edited(lambda m: m["tensors"][0].pop("name")),
    "entry_no_shape": _meta_edited(lambda m: m["tensors"][0].pop("shape")),
    "entry_string": _meta_edited(lambda m: m["tensors"].insert(0, "point0.w")),
    "entry_name_list": _meta_edited(lambda m: m["tensors"][0].update(name=["point0.w"])),
    "entry_shape_int": _meta_edited(lambda m: m["tensors"][0].update(shape=12)),
    "nan_weight": _tensor_value_set(("point1.w", math.nan)),
    "inf_var": _tensor_value_set(("head.bn.var", math.inf)),
    "nan_weight_and_inf_var": _tensor_value_set(("point1.w", math.nan),
                                                ("head.bn.var", math.inf)),
    "minus_inf_bias": _tensor_value_set(("out.b", -math.inf)),
    "negative_var": _tensor_value_set(("point0.bn.var", -5.0)),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_CHECKPOINTS))
def test_checkpoint_rejects_malformed_header_and_metadata(tmp_path, case):
    good = tmp_path / "good.tpn"
    save_checkpoint(_tiny_state(), good)
    bad = tmp_path / "bad.tpn"
    bad.write_bytes(_MALFORMED_CHECKPOINTS[case](good.read_bytes()))
    with pytest.raises(ValueError):
        load_checkpoint(bad)


@pytest.mark.parametrize("names", [[[1], "b", "c"], "abc", ["a", "b"], ["a", "b", "c", "d"],
                                   ["a", "a", "b"], ["a", 2, "c"], {"a": 0}, []])
def test_checkpoint_class_names_must_be_null_or_distinct_strings(tmp_path, names):
    path = tmp_path / "model.tpn"
    for good in (None, ["a", "b", "c"]):
        save_checkpoint(_tiny_state(), path, class_names=good)
        assert load_checkpoint(path)[1]["class_names"] == good
    save_checkpoint(_tiny_state(), path, class_names=names)
    with pytest.raises(ValueError, match="class_names"):
        load_checkpoint(path)


def _checkpoint_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "good.tpn"
        save_checkpoint(_perturbed_state(), path, class_names=["a", "b", "c"])
        return path.read_bytes()


_GOOD_CHECKPOINT = _checkpoint_bytes()
_META_END = 8 + struct.unpack("<I", _GOOD_CHECKPOINT[4:8])[0]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.integers(0, len(_GOOD_CHECKPOINT) - 1).map(lambda n: ("cut", n)),
        st.lists(st.tuples(st.integers(0, len(_GOOD_CHECKPOINT) - 1), st.integers(1, 255)),
                 min_size=1, max_size=4).map(lambda flips: ("flip", flips)),
        # one printable character in the JSON metadata mostly keeps it
        # parseable, so the checks on its keys, types and values are reached
        st.tuples(st.integers(8, _META_END - 1), st.integers(0x20, 0x7E))
        .map(lambda edit: ("set", edit)),
    )
)
def test_checkpoint_fuzzed_bytes_load_or_raise_value_error(mutation):
    how, arg = mutation
    data = bytearray(_GOOD_CHECKPOINT)
    if how == "cut":
        del data[arg:]
    elif how == "flip":
        for at, mask in arg:
            data[at] ^= mask
    else:
        data[arg[0]] = arg[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.tpn"
        path.write_bytes(bytes(data))
        try:
            state, _ = load_checkpoint(path)
        except ValueError:
            return
    assert isinstance(state, NetworkState)


# -- the attack ------------------------------------------------------------


def test_pgd_config_validation():
    PgdConfig()
    with pytest.raises(ValueError):
        PgdConfig(alpha=0.1, epsilon=0.05)
    with pytest.raises(ValueError):
        PgdConfig(steps=0)


def test_pgd_stays_in_ball_and_keeps_count(small_model):
    state, data = small_model
    cfg = PgdConfig()
    rng = np.random.default_rng(30)
    for sample in data[:5]:
        adv = pgd_attack(state, sample.cloud, int(sample.label.argmax()), cfg, rng)
        assert adv.count == sample.cloud.count
        gap = np.abs(adv.points - sample.cloud.points).max()
        assert gap <= cfg.epsilon + 1e-15  # float-rounding slack on the clip


def test_pgd_single_step_is_signed_gradient(small_model):
    state, _ = small_model
    cloud = PointCloud(random_cloud(30, seed=31).points * 0.5)
    cfg = PgdConfig(epsilon=0.05, alpha=0.05, steps=1)
    seed_rng = np.random.default_rng(77)
    adv = pgd_attack(state, cloud, 0, cfg, seed_rng)

    replay = np.random.default_rng(77)
    x0 = cloud.points + replay.uniform(-0.05, 0.05, size=cloud.points.shape)
    logits, cache = forward(state, [x0], mode="eval")
    _, dlogits = loss_smoothed_ce(logits, np.array([0]), 0.0)
    _, dpoints = backward(state, cache, dlogits)
    expected = np.clip(x0 + 0.05 * np.sign(dpoints),
                       cloud.points - 0.05, cloud.points + 0.05)
    assert np.array_equal(adv.points, expected)


def test_pgd_increases_loss(small_model):
    state, data = small_model
    cfg = PgdConfig()
    rng = np.random.default_rng(32)
    wins = 0
    for sample in data[:10]:
        label = int(sample.label.argmax())
        adv = pgd_attack(state, sample.cloud, label, cfg, rng)
        clean_loss, _ = loss_smoothed_ce(
            forward(state, [sample.cloud.points], "eval")[0], np.array([label]), 0.0)
        adv_loss, _ = loss_smoothed_ce(
            forward(state, [adv.points], "eval")[0], np.array([label]), 0.0)
        wins += adv_loss >= clean_loss
    assert wins >= 9


@pytest.mark.parametrize("n_points", [7, 100, 1024, 3000])
def test_pgd_bytes_do_not_depend_on_the_blas_thread_count(openblas_at_two_threads, n_points):
    # every product of an eval-mode forward/backward sums at most 256 terms
    # and never over points, so attack may run its clouds on capped workers
    from pccorrupt import _cpus

    state = NetworkState.create(4, seed=5)
    cloud = random_cloud(n_points, seed=n_points)

    def attack():
        return pgd_attack(state, cloud, 2, PgdConfig(steps=3), np.random.default_rng(9)).points

    before = openblas_at_two_threads()
    uncapped = attack()
    with _cpus.openblas_capped(1, lambda event: None):
        assert openblas_at_two_threads() == [1] * len(before)
        capped = attack()
    assert capped.tobytes() == uncapped.tobytes()


# -- test-time adaptation --------------------------------------------------


def test_bn_adapt_standardizes_first_layer(small_model):
    state, _ = small_model
    clouds = _clouds([64, 64, 64], seed=33)
    adapted, _ = bn_adapt(state, clouds, blend=1.0)
    _, cache = forward(adapted, clouds, mode="eval")
    first = adapted.layers[0]
    x_hat = (cache["layers"][0]["input"] @ first.w.T - first.mean) / np.sqrt(first.var + BN_EPS)
    assert np.abs(x_hat.mean(axis=0)).max() < 1e-6
    assert np.abs(x_hat.var(axis=0) - 1.0).max() < 1e-3


def test_bn_adapt_touches_only_stats(small_model):
    state, _ = small_model
    adapted, _ = bn_adapt(state, _clouds([16, 16], seed=34), blend=0.5)
    for name, t in state.parameters().items():
        assert np.array_equal(t, adapted.parameters()[name]), name
    changed = [
        name
        for name, t in state.running_stats().items()
        if not np.array_equal(t, adapted.running_stats()[name])
    ]
    assert changed  # statistics did move


def test_bn_adapt_blend_and_batch_validation(small_model):
    state, _ = small_model
    with pytest.raises(ValueError):
        bn_adapt(state, _clouds([16, 16]), blend=0.0)
    with pytest.raises(ValueError):
        bn_adapt(state, _clouds([16, 16]), blend=1.5)
    with pytest.raises(ValueError):
        bn_adapt(state, _clouds([16]))


def test_bn_adapt_tiny_blend_barely_moves(small_model):
    state, _ = small_model
    adapted, _ = bn_adapt(state, _clouds([16, 16], seed=35), blend=1e-9)
    for name, t in state.running_stats().items():
        assert np.allclose(t, adapted.running_stats()[name], atol=1e-6), name


def test_tent_updates_only_affine_and_stats(small_model):
    state, _ = small_model
    clouds = _clouds([32, 32], seed=36)
    adapted, _ = tent_adapt(state, clouds, TentConfig(lr=1e-2, steps=2))
    for name, t in state.parameters().items():
        same = np.array_equal(t, adapted.parameters()[name])
        if name.endswith((".bn.gamma", ".bn.beta")):
            assert not same, f"{name} should have been updated"
        else:
            assert same, f"{name} must stay bit-identical"


def test_tent_zero_lr_equals_stat_replacement(small_model):
    state, _ = small_model
    clouds = _clouds([24, 24], seed=37)
    tented, _ = tent_adapt(state, clouds, TentConfig(lr=0.0, steps=3))
    replaced, _ = bn_adapt(state, clouds, blend=1.0)
    for name, t in tented.running_stats().items():
        assert np.array_equal(t, replaced.running_stats()[name]), name
    for name, t in tented.parameters().items():
        assert np.array_equal(t, replaced.parameters()[name]), name


def test_tent_eval_replays_adapted_forward(small_model):
    # after adaptation, an eval-mode pass over the same batch must equal the
    # adapt-mode pass that produced the stored statistics
    state, _ = small_model
    clouds = _clouds([20, 20], seed=38)
    adapted, _ = tent_adapt(state, clouds, TentConfig(lr=1e-2, steps=1))
    eval_logits, _ = forward(adapted, clouds, mode="eval")
    adapt_logits, _ = forward(adapted, clouds, mode="adapt")
    assert np.array_equal(eval_logits, adapt_logits)


@pytest.mark.parametrize("blend", [1.0, 0.5, 1e-9])
def test_bn_adapt_logits_equal_eval_pass(small_model, blend):
    state, _ = small_model
    clouds = _clouds([20, 24, 16], seed=41)
    adapted, logits = bn_adapt(state, clouds, blend=blend)
    assert logits.tobytes() == forward(adapted, clouds, mode="eval")[0].tobytes()


@pytest.mark.parametrize("lr", [0.0, 1e-2])
@pytest.mark.parametrize("steps", [1, 2])
def test_tent_adapt_logits_equal_eval_pass(small_model, lr, steps):
    state, _ = small_model
    clouds = _clouds([20, 24, 16], seed=42)
    adapted, logits = tent_adapt(state, clouds, TentConfig(lr=lr, steps=steps))
    assert logits.tobytes() == forward(adapted, clouds, mode="eval")[0].tobytes()


def test_tent_reduces_entropy_on_shifted_batches(small_model):
    state, data = small_model
    rng = np.random.default_rng(39)
    wins = 0
    trials = 10
    for t in range(trials):
        batch = [
            s.cloud.points + rng.normal(0.0, 0.04, size=s.cloud.points.shape)
            for s in (data[rng.integers(len(data))] for _ in range(8))
        ]
        before, _ = bn_adapt(state, batch, blend=1.0)
        ent_before, _ = loss_entropy(forward(before, batch, "eval")[0])
        after, _ = tent_adapt(state, batch, TentConfig(lr=1e-3, steps=1))
        ent_after, _ = loss_entropy(forward(after, batch, "eval")[0])
        wins += ent_after <= ent_before + 1e-12
    assert wins >= 9


def test_bn_eps_is_tiny():
    # the variance floor must stay far below real feature variances so that
    # adapted statistics standardize within the documented 1e-3 bound
    assert BN_EPS <= 1e-8


# -- memory ----------------------------------------------------------------


def _traced_peak(run):
    """Peak bytes that `run()` holds above what was live before it, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run", ["tent_adapt", "bn_adapt", "train"])
def test_no_pass_starts_while_the_last_ones_cache_lives(run):
    # a TENT step, bn_adapt's eval pass and the next training batch each free
    # the previous pass's activation cache first; two live caches would take
    # the peak to about 1.45x one forward's (~30 MB at 8 x 1,024 points)
    state = NetworkState.create(4, seed=0)
    clouds = _clouds([1024] * 8, seed=43)
    data = labelled_clouds(6, 1024, seed=44)  # 22 training clouds: 3 batches of <= 8
    runs = {
        "tent_adapt": lambda: tent_adapt(state, clouds, TentConfig(steps=2)),
        "bn_adapt": lambda: bn_adapt(state, clouds, blend=0.5),
        "train": lambda: train(state, data, TrainConfig(epochs=1, batch_size=8, seed=0)),
    }
    one_forward = _traced_peak(lambda: forward(state, clouds, mode="adapt"))
    assert _traced_peak(runs[run]) <= 1.15 * one_forward


# -- golden output ---------------------------------------------------------


def test_golden_forward_backward_checkpoint_and_adaptation(tmp_path):
    """Pin one sha256 over logits, gradients and statistics in every mode,
    the checkpoint bytes of a tiny trained model and its reload, and the
    TENT, BN-adaptation and PGD outputs, so refactors cannot drift silently."""
    import hashlib

    h = hashlib.sha256()

    def feed(tensors):
        for name in sorted(tensors):
            h.update(name.encode())
            h.update(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())

    clouds = _clouds([9, 5, 12], seed=40)
    labels = np.array([0, 1, 2])
    for dims, head in (((64, 128, 256), 128), ((4, 6, 8), 6), ((5,), 3)):
        state = NetworkState.create(3, point_dims=dims, head_dim=head, seed=2)
        for mode in ("eval", "train", "adapt"):
            logits, cache = forward(state, clouds, mode=mode)
            _, dlogits = loss_smoothed_ce(logits, labels, 0.2)
            grads, dpoints = backward(state, cache, dlogits)
            running = state.running_stats()
            momentum = {name: (1 - BN_MOMENTUM) * running[name] + BN_MOMENTUM * value
                        for name, value in cache["batch_stats"].items()}
            feed({"logits": logits, "points": dpoints, **grads, **momentum})

    data = labelled_clouds(4, 24, seed=41, n_classes=3)
    config = TrainConfig(epochs=2, batch_size=4, lr=3e-3, mix="cutmix_r", seed=6)
    trained, _ = train(_tiny_state(seed=5), data, config)
    path = tmp_path / "golden.tpn"
    save_checkpoint(trained, path, class_names=["a", "b", "c"], config_digest="sha256:g")
    saved = path.read_bytes()
    h.update(saved)
    loaded, _ = load_checkpoint(path)
    save_checkpoint(loaded, path, class_names=["a", "b", "c"], config_digest="sha256:g")
    assert path.read_bytes() == saved
    feed({"logits": forward(loaded, clouds, mode="eval")[0],
          "predict": predict(loaded, clouds)})

    tented, _ = tent_adapt(loaded, clouds, TentConfig(lr=1e-2, steps=2))
    feed({**tented.parameters(), **tented.running_stats()})
    feed(bn_adapt(loaded, clouds, blend=0.5)[0].running_stats())
    adv = pgd_attack(loaded, PointCloud(clouds[2]), 1, PgdConfig(), np.random.default_rng(42))
    feed({"pgd": adv.points})
    assert h.hexdigest() == "ee988133c381a253256d270dd0e24f77945cb005510fc77fd8b141787807080e"
