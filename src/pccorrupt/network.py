"""A small permutation-invariant point classifier, written out by hand.

The network is one ordered list of layers, each a shared linear map, batch
norm and ReLU: the per-point layers (3 -> 64 -> 128 -> 256), a global max
pool over each cloud's points, then the head layer (256 -> 128), and last
an affine map to the C class logits.  The forward pass is pure; batch-norm
running statistics are updated explicitly by the training loop from values
the forward pass reports.  The backward pass produces exact analytic
gradients for the input points, which is what the projected-gradient
attack consumes, and for the parameters its caller names: training takes
all of them, TENT the batch-norm scale/shift and the attack none.  A
weight gradient costs as many FLOPs as its forward matmul, so the others
are not computed.

Both test-time adaptations also return the batch's logits under the
adapted state, bit-equal to an eval-mode pass over that batch.  When the
stored statistics are exactly the last batch-statistics pass's (always
for TENT, and for BN adaptation at blend 1), that pass's logits are
returned: an eval pass would subtract the same mean and divide by the
same variance in the same order, so it would repeat it bit for bit.
Otherwise one eval pass computes them.

The activation cache holds, per layer, its `input`, the normalized `x_hat`
and `inv_std`, plus the packed points `x`, each pooled feature's winning
row `argmax_rows` and the out map's input `out_input`.  No ReLU mask is
kept: a layer's ReLU output is the next layer's cached input (the head's
is `out_input`), and the pre-pool layer's mask is applied to the pooled
gradient before it is routed back to the winning points.  Batch norm and
ReLU work in place, in the operation order of the plain expressions, so
the bits are those of the plain expressions.

Everything is float64.  Batch statistics use the biased variance (divide
by N), both for normalization and for the running-average update.
"""

from __future__ import annotations

import copy
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import _rng
from .augmentation import LabeledCloud, MixSpec, apply_mix
from .geometry import PointCloud

# small eps keeps the normalized batch variance within ~eps/sigma^2 of 1
# even for low-variance features; float64 tolerates the wide dynamic range
BN_EPS = 1e-8
BN_MOMENTUM = 0.1
CHECKPOINT_MAGIC = b"TPN1"

_MODES = ("train", "eval", "adapt")
_STAT_SUFFIXES = (".bn.mean", ".bn.var")


class StaleCacheError(RuntimeError):
    """The activation cache does not belong to this network state."""


@dataclass
class Layer:
    """Linear map `w` (width, fan_in), then batch norm, then ReLU."""

    name: str
    w: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray


@dataclass
class NetworkState:
    layers: list[Layer]  # point0 ... pointN-1, then head; the max pool precedes head
    out_weight: np.ndarray
    out_bias: np.ndarray
    version: int = 0

    @classmethod
    def create(
        cls,
        n_classes: int,
        point_dims: tuple[int, ...] = (64, 128, 256),
        head_dim: int = 128,
        seed: int = 0,
    ) -> "NetworkState":
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        rng = _rng.stream(seed, 0x6E6574)  # distinct stream for init draws
        names = [f"point{i}" for i in range(len(point_dims))] + ["head"]
        layers = []
        fan_in = 3
        for name, width in zip(names, (*point_dims, head_dim)):
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(width, fan_in))
            layers.append(Layer(name, w, np.ones(width), np.zeros(width),
                                np.zeros(width), np.ones(width)))
            fan_in = width
        out_w = rng.normal(0.0, np.sqrt(2.0 / head_dim), size=(n_classes, head_dim))
        return cls(layers=layers, out_weight=out_w, out_bias=np.zeros(n_classes))

    @property
    def n_classes(self) -> int:
        return len(self.out_bias)

    @property
    def point_dims(self) -> tuple[int, ...]:
        return tuple(layer.w.shape[0] for layer in self.layers[:-1])

    @property
    def head_dim(self) -> int:
        return self.layers[-1].w.shape[0]

    def copy(self) -> "NetworkState":
        return copy.deepcopy(self)

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor, layer by layer, in the fixed checkpoint order."""
        out = {}
        for layer in self.layers:
            out[f"{layer.name}.w"] = layer.w
            for part in ("gamma", "beta", "mean", "var"):
                out[f"{layer.name}.bn.{part}"] = getattr(layer, part)
        out["out.w"] = self.out_weight
        out["out.b"] = self.out_bias
        return out

    def parameters(self) -> dict[str, np.ndarray]:
        """Trainable tensors, in a fixed declared order."""
        return {n: t for n, t in self.tensors().items() if not n.endswith(_STAT_SUFFIXES)}

    def running_stats(self) -> dict[str, np.ndarray]:
        return {n: t for n, t in self.tensors().items() if n.endswith(_STAT_SUFFIXES)}

    def touch(self):
        self.version += 1

    def set_running_stats(self, stats: dict[str, np.ndarray]):
        current = self.running_stats()
        for name, value in stats.items():
            if name not in current:
                raise KeyError(f"unknown statistic {name!r}")
            current[name][...] = value
        self.touch()


# ---------------------------------------------------------------------------
# forward / backward


def pack_batch(clouds) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate variable-size clouds into (points, offsets)."""
    arrays = []
    for c in clouds:
        pts = c.points if isinstance(c, PointCloud) else np.asarray(c, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("each cloud must have shape (n, 3)")
        if len(pts) == 0:
            raise ValueError("empty cloud in batch")
        if not np.isfinite(pts).all():
            raise ValueError("non-finite coordinates in batch")
        arrays.append(pts.astype(np.float64, copy=False))
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in arrays], out=offsets[1:])
    return np.concatenate(arrays, axis=0), offsets


def _max_pool(h, offsets):
    """Per-cloud feature maxima and their rows; the first index wins ties."""
    n_batch, feat_dim = len(offsets) - 1, h.shape[1]
    pooled = np.empty((n_batch, feat_dim))
    argmax_rows = np.empty((n_batch, feat_dim), dtype=np.int64)
    for s in range(n_batch):
        seg = h[offsets[s] : offsets[s + 1]]
        local = seg.argmax(axis=0)
        argmax_rows[s] = offsets[s] + local
        pooled[s] = seg[local, np.arange(feat_dim)]
    return pooled, argmax_rows


def _bn_relu_forward(z, layer: Layer, batch_stats: bool):
    """Batch norm then ReLU; `z` is a fresh buffer and becomes `x_hat`."""
    mean = z.mean(axis=0) if batch_stats else layer.mean
    x_hat = np.subtract(z, mean, out=z)
    # the biased variance, summed from the centered values as np.var does
    var = np.square(x_hat).sum(axis=0) / len(z) if batch_stats else layer.var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat *= inv_std
    y = np.multiply(layer.gamma, x_hat)
    y += layer.beta
    np.maximum(y, 0.0, out=y)  # gives +0.0 for -0.0; np.maximum(0.0, y) would not
    return y, x_hat, mean, var, inv_std


def forward(state: NetworkState, clouds, mode: str = "eval"):
    """Run the classifier; returns (logits, cache).

    train/adapt modes normalize with current-batch statistics and report the
    momentum-updated running statistics in cache["new_stats"] without
    touching the state.  eval mode uses the stored running statistics.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    x, offsets = pack_batch(clouds)
    batch_stats = mode in ("train", "adapt")

    cache = {
        "state": state,
        "version": state.version,
        "mode": mode,
        "x": x,
        "layers": [],
        "batch_stats": {},
    }

    h = x
    head = state.layers[-1]
    for layer in state.layers:
        if layer is head:
            h, cache["argmax_rows"] = _max_pool(h, offsets)
        y, x_hat, mean, var, inv_std = _bn_relu_forward(h @ layer.w.T, layer, batch_stats)
        cache["layers"].append({"input": h, "x_hat": x_hat, "inv_std": inv_std})
        if batch_stats:
            cache["batch_stats"][f"{layer.name}.bn.mean"] = mean
            cache["batch_stats"][f"{layer.name}.bn.var"] = var
        h = y

    running = state.running_stats() if batch_stats else {}
    cache["new_stats"] = {
        name: (1 - BN_MOMENTUM) * running[name] + BN_MOMENTUM * value
        for name, value in cache["batch_stats"].items()
    }
    cache["out_input"] = h
    logits = h @ state.out_weight.T + state.out_bias
    return logits, cache


def _bn_backward(dy, layer_cache, layer: Layer, batch_stats: bool,
                 want_gamma: bool, want_beta: bool):
    """Gradients through batch norm; `dy` is a fresh buffer and becomes `dz`.

    Batch-statistics dz needs both scale/shift sums; in eval mode a sum
    that is not wanted is skipped and comes back as None.
    """
    x_hat = layer_cache["x_hat"]
    inv_std = layer_cache["inv_std"]
    dgamma = (dy * x_hat).sum(axis=0) if batch_stats or want_gamma else None
    dbeta = dy.sum(axis=0) if batch_stats or want_beta else None
    dz = dy
    if batch_stats:
        n = len(dy)
        # (gamma * inv_std) * (dy - mean(dy) - x_hat * dgamma / n), in that order
        dz -= dbeta / n
        correction = np.multiply(x_hat, dgamma)
        correction /= n
        dz -= correction
        dz *= layer.gamma * inv_std
    else:
        dz *= layer.gamma
        dz *= inv_std
    return dz, dgamma, dbeta


def backward(state: NetworkState, cache: dict, grad_logits: np.ndarray, wanted=None):
    """Exact gradients of a scalar loss given d(loss)/d(logits).

    Returns (param_grads, point_grads) where point_grads matches the
    concatenated (total_points, 3) layout of the forward batch and
    param_grads holds the parameters named in `wanted` (all by default).
    """
    if cache.get("state") is not state or cache.get("version") != state.version:
        raise StaleCacheError("activation cache does not match this state")
    params = state.parameters()
    wanted = set(params if wanted is None else wanted)
    if not wanted.issubset(params):
        raise KeyError(f"unknown parameters {sorted(wanted.difference(params))}")
    batch_stats = cache["mode"] in ("train", "adapt")
    grads: dict[str, np.ndarray] = {}

    if "out.w" in wanted:
        grads["out.w"] = grad_logits.T @ cache["out_input"]
    if "out.b" in wanted:
        grads["out.b"] = grad_logits.sum(axis=0)
    dh = grad_logits @ state.out_weight
    # a ReLU unit whose output is 0 passes no gradient; each layer's ReLU
    # output is the next layer's cached input (the head's is out_input)
    np.copyto(dh, 0.0, where=cache["out_input"] <= 0)

    head, first = state.layers[-1], state.layers[0]
    for layer, layer_cache in zip(reversed(state.layers), reversed(cache["layers"])):
        gamma, beta, w = (f"{layer.name}.{part}" for part in ("bn.gamma", "bn.beta", "w"))
        dz, grads[gamma], grads[beta] = _bn_backward(
            dh, layer_cache, layer, batch_stats, gamma in wanted, beta in wanted
        )
        if w in wanted:
            grads[w] = dz.T @ layer_cache["input"]
        dh = dz @ layer.w
        if layer is not first:
            # below the head this masks the pooled gradient: each feature's
            # winning point holds the pooled value, and the others get none
            np.copyto(dh, 0.0, where=layer_cache["input"] <= 0)
        if layer is head:
            # route pooled gradient back to each feature's winning point
            feat_cols = np.arange(dh.shape[1])
            dpooled, dh = dh, np.zeros((len(cache["x"]), len(feat_cols)))
            np.add.at(dh, (cache["argmax_rows"], feat_cols[None, :]), dpooled)

    return {name: g for name, g in grads.items() if name in wanted}, dh


# ---------------------------------------------------------------------------
# losses


def smooth_targets(labels, n_classes: int, smoothing: float) -> np.ndarray:
    """Label smoothing as an affine map on (soft or one-hot) target rows."""
    if not 0.0 <= smoothing < 1.0:
        raise ValueError("smoothing must be in [0, 1)")
    labels = np.asarray(labels)
    if labels.ndim == 1 and np.issubdtype(labels.dtype, np.integer):
        if ((labels < 0) | (labels >= n_classes)).any():
            raise ValueError("class index out of range")
        t = np.eye(n_classes)[labels]
    else:
        t = np.asarray(labels, dtype=np.float64)
        if t.ndim == 1:
            t = t[None, :]
        if t.shape[1] != n_classes:
            raise ValueError("target width does not match class count")
    if smoothing == 0.0:
        return t
    floor = smoothing / (n_classes - 1)
    return (1.0 - smoothing - floor) * t + floor


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_smoothed_ce(logits: np.ndarray, labels, smoothing: float = 0.2):
    """Mean smoothed cross-entropy and its gradient w.r.t. the logits.

    labels may be integer class indices or soft target rows; soft targets
    are passed through the same smoothing map.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    n, c = logits.shape
    targets = smooth_targets(labels, c, smoothing)
    if len(targets) != n:
        raise ValueError("batch size mismatch between logits and labels")
    log_p = _log_softmax(logits)
    loss = float(-(targets * log_p).sum() / n)
    grad = (np.exp(log_p) - targets) / n
    return loss, grad


def loss_entropy(logits: np.ndarray):
    """Mean softmax entropy and its gradient w.r.t. the logits."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    n = len(logits)
    log_p = _log_softmax(logits)
    p = np.exp(log_p)
    ent = -(p * log_p).sum(axis=1)
    grad = -p * (log_p + ent[:, None]) / n
    return float(ent.mean()), grad


# ---------------------------------------------------------------------------
# optimizer and training


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m += (1 - self.beta1) * (g - m)
            v += (1 - self.beta2) * (g * g - v)
            m_hat = m / (1 - self.beta1**self.t)
            v_hat = v / (1 - self.beta2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    smoothing: float = 0.2
    plateau_patience: int = 10
    plateau_factor: float = 0.5
    plateau_min_delta: float = 1e-4
    augment: bool = True
    mix: str = "none"
    mix_lam: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.lr):
            raise ValueError("lr must be finite")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError("smoothing must be in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


def _default_augment(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    scale = rng.uniform(2.0 / 3.0, 3.0 / 2.0)
    shift = rng.uniform(-0.2, 0.2, size=3)
    return points * scale + shift


def _evaluate(state, samples, smoothing):
    """Mean eval-mode loss and accuracy over labeled samples."""
    total_loss, correct = 0.0, 0
    batch = 32
    for start in range(0, len(samples), batch):
        chunk = samples[start : start + batch]
        logits, _ = forward(state, [s.cloud for s in chunk], mode="eval")
        targets = np.stack([s.label for s in chunk])
        loss, _ = loss_smoothed_ce(logits, targets, smoothing)
        total_loss += loss * len(chunk)
        correct += int(
            (logits.argmax(axis=1) == targets.argmax(axis=1)).sum()
        )
    return total_loss / len(samples), correct / len(samples)


def train(
    state: NetworkState,
    train_set: list[LabeledCloud],
    config: TrainConfig,
    val_set: list[LabeledCloud] | None = None,
):
    """Adam training with the plateau learning-rate rule and best-val snapshot.

    Returns (best_state, history); history holds one dict per epoch with
    train_loss, val_loss, val_acc and the lr in force.
    """
    if len(train_set) < config.batch_size:
        raise ValueError("dataset smaller than one batch")
    if len({int(s.label.argmax()) for s in train_set}) < 2:
        raise ValueError("need at least 2 classes present in the training set")

    rng = _rng.stream(config.seed, 0x747261696E)
    if val_set is None:
        order = rng.permutation(len(train_set))
        n_val = max(1, len(train_set) // 10)
        val_set = [train_set[i] for i in order[:n_val]]
        train_set = [train_set[i] for i in order[n_val:]]

    state = state.copy()
    adam = AdamState(config.lr, config.beta1, config.beta2, config.adam_eps)
    best_loss, _ = _evaluate(state, val_set, config.smoothing)
    best_state = state.copy()
    stall = 0
    history = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        epoch_loss, n_seen = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            samples = [train_set[i] for i in idx]
            if config.mix != "none" and len(samples) > 1:
                partners = rng.permutation(len(samples))
                spec = MixSpec(lam=config.mix_lam, seed=config.seed)
                samples = [
                    apply_mix(config.mix, s, samples[partners[j]], spec, rng=rng)
                    for j, s in enumerate(samples)
                ]
            clouds = [s.cloud.points for s in samples]
            if config.augment:
                clouds = [_default_augment(c, rng) for c in clouds]
            targets = np.stack([s.label for s in samples])

            logits, cache = forward(state, clouds, mode="train")
            loss, dlogits = loss_smoothed_ce(logits, targets, config.smoothing)
            grads, _ = backward(state, cache, dlogits)
            adam.step(state.parameters(), grads)
            state.set_running_stats(cache["new_stats"])
            epoch_loss += loss * len(samples)
            n_seen += len(samples)

        val_loss, val_acc = _evaluate(state, val_set, config.smoothing)
        lr_now = adam.lr
        if val_loss < best_loss - config.plateau_min_delta:
            best_loss = val_loss
            best_state = state.copy()
            stall = 0
        else:
            stall += 1
            if stall >= config.plateau_patience:
                lr_now = adam.lr * config.plateau_factor
                adam.lr = lr_now
                stall = 0
        history.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / n_seen,
                "val_loss": val_loss,
                "val_acc": val_acc,
                "lr": lr_now,
            }
        )
    return best_state, history


def predict(state: NetworkState, clouds) -> np.ndarray:
    logits, _ = forward(state, clouds, mode="eval")
    return logits.argmax(axis=1)


# ---------------------------------------------------------------------------
# the point-shifting attack


@dataclass(frozen=True)
class PgdConfig:
    epsilon: float = 0.05
    alpha: float = 0.01
    steps: int = 7
    smoothing: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        if not 0 < self.alpha <= self.epsilon:
            raise ValueError("need 0 < alpha <= epsilon")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


def pgd_attack(
    state: NetworkState,
    cloud: PointCloud,
    label: int,
    config: PgdConfig,
    rng: np.random.Generator,
) -> PointCloud:
    """Iterated signed-gradient point shifting inside an l-inf ball.

    Starts from uniform noise in [-eps, eps], ascends the classification
    loss with eval-mode (frozen) statistics, and projects back onto the
    ball around the original points after every step.
    """
    base = cloud.points
    x = base + rng.uniform(-config.epsilon, config.epsilon, size=base.shape)
    lo, hi = base - config.epsilon, base + config.epsilon
    for _ in range(config.steps):
        logits, cache = forward(state, [x], mode="eval")
        _, dlogits = loss_smoothed_ce(logits, np.array([label]), config.smoothing)
        _, dpoints = backward(state, cache, dlogits, wanted=())
        x = np.clip(x + config.alpha * np.sign(dpoints), lo, hi)
    return PointCloud(x)


# ---------------------------------------------------------------------------
# test-time adaptation


def bn_adapt(state: NetworkState, clouds, blend: float = 1.0):
    """Re-estimate batch-norm statistics from one batch; weights untouched.

    blend=1 replaces the running statistics outright; smaller values mix
    batch and running statistics.  Returns (adapted state, the batch's
    eval-mode logits under it).
    """
    if not 0.0 < blend <= 1.0:
        raise ValueError("blend must be in (0, 1]")
    if len(clouds) < 2:
        raise ValueError("need a batch of at least 2 clouds")
    adapted = state.copy()
    logits, cache = forward(adapted, clouds, mode="adapt")
    batch = cache["batch_stats"]
    if blend == 1.0:
        adapted.set_running_stats(batch)
        return adapted, logits
    running = adapted.running_stats()
    merged = {
        name: blend * batch[name] + (1.0 - blend) * running[name] for name in batch
    }
    adapted.set_running_stats(merged)
    return adapted, forward(adapted, clouds, mode="eval")[0]


@dataclass(frozen=True)
class TentConfig:
    lr: float = 1e-3
    steps: int = 1

    def __post_init__(self):
        if not np.isfinite(self.lr):
            raise ValueError("lr must be finite")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


_TENT_PARAM_SUFFIXES = (".bn.gamma", ".bn.beta")


def tent_adapt(state: NetworkState, clouds, config: TentConfig | None = None):
    """Entropy-minimizing test-time adaptation.

    Normalization statistics come from the adaptation batch itself; then
    `steps` Adam updates are applied to the batch-norm scale/shift
    parameters only, minimizing the mean softmax entropy of the batch.
    Every other parameter is left bit-identical.  Returns (adapted state,
    the batch's eval-mode logits under it).
    """
    if len(clouds) < 2:
        raise ValueError("need a batch of at least 2 clouds")
    config = config or TentConfig()
    adapted = state.copy()
    affine = {
        name: p
        for name, p in adapted.parameters().items()
        if name.endswith(_TENT_PARAM_SUFFIXES)
    }
    adam = AdamState(lr=config.lr)
    for _ in range(config.steps if config.lr > 0 else 0):  # a step at lr 0 moves nothing
        logits, cache = forward(adapted, clouds, mode="adapt")
        _, dlogits = loss_entropy(logits)
        grads, _ = backward(adapted, cache, dlogits, wanted=affine)
        adam.step(affine, grads)
        adapted.touch()
    # store the batch statistics seen under the final scale/shift values, so
    # a later eval-mode pass reproduces the adapted forward exactly
    logits, cache = forward(adapted, clouds, mode="adapt")
    adapted.set_running_stats(cache["batch_stats"])
    return adapted, logits


# ---------------------------------------------------------------------------
# checkpoint container


def save_checkpoint(
    state: NetworkState,
    path,
    class_names: list[str] | None = None,
    config_digest: str | None = None,
) -> None:
    """Write magic + length-prefixed JSON metadata + float64 LE tensors."""
    entries = state.tensors().items()
    meta = {
        "format": CHECKPOINT_MAGIC.decode(),
        "point_dims": list(state.point_dims),
        "head_dim": state.head_dim,
        "n_classes": state.n_classes,
        "class_names": class_names,
        "config_digest": config_digest,
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in entries],
    }
    blob = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, t in entries:
            fh.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (state, metadata).

    Malformed files, tensors holding NaN or infinity, and negative BN
    variances raise ValueError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic bytes)")
    if len(data) < 8:
        raise ValueError("checkpoint truncated inside its 8-byte header")
    (meta_len,) = struct.unpack("<I", data[4:8])
    try:
        meta = json.loads(data[8 : 8 + meta_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"corrupt checkpoint metadata: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError("checkpoint metadata is not a JSON object")
    for key, kind in (("n_classes", int), ("head_dim", int), ("point_dims", list),
                      ("tensors", list)):
        if type(meta.get(key)) is not kind:
            raise ValueError(f"checkpoint metadata needs {key!r} as JSON {kind.__name__}")
    dims = (meta["n_classes"], meta["head_dim"], *meta["point_dims"])
    if not all(type(d) is int and d >= 1 for d in dims):
        raise ValueError("checkpoint n_classes, head_dim and point_dims must be ints >= 1")
    entries = meta["tensors"]
    if not all(isinstance(e, dict) and isinstance(e.get("name"), str) and "shape" in e
               for e in entries):
        raise ValueError("each checkpoint tensor entry needs a name and a shape")
    state = NetworkState.create(
        meta["n_classes"], point_dims=tuple(meta["point_dims"]), head_dim=meta["head_dim"]
    )
    offset = 8 + meta_len
    declared = {e["name"]: e["shape"] for e in entries}
    for name, tensor in state.tensors().items():
        shape, expected = declared.get(name), list(tensor.shape)
        if shape != expected:
            raise ValueError(f"checkpoint tensor {name!r} has shape {shape}, not {expected}")
        size = tensor.size * 8
        raw = data[offset : offset + size]
        if len(raw) != size:
            raise ValueError("checkpoint truncated")
        tensor[...] = np.frombuffer(raw, dtype="<f8").reshape(tensor.shape)
        if not np.isfinite(tensor).all():
            raise ValueError(f"checkpoint tensor {name!r} holds non-finite values")
        if name.endswith(".bn.var") and (tensor < 0).any():
            raise ValueError(f"checkpoint tensor {name!r} holds negative variances")
        offset += size
    if offset != len(data):
        raise ValueError("trailing bytes after checkpoint tensors")
    state.touch()
    return state, meta
