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

Every mode evaluates one expression per layer, in place on the matmul
output z = w h^T, laid out (features x points) so that each feature's
values lie contiguous: subtract the mean (the batch's in train and adapt
mode, the stored one in eval), take the biased batch variance from the
centred values (batch modes only), multiply by gamma * inv_std, add beta,
apply ReLU.  Eval and adapt share that expression, so an eval pass whose
stored statistics are exactly the last batch-statistics pass's (always for
TENT, and for BN adaptation at blend 1) repeats that pass bit for bit.
Both test-time adaptations therefore return that pass's logits as the
batch's eval-mode logits under the adapted state; otherwise one eval pass
computes them.

The pre-pool layer pools first: it max-pools its centred matmul output per
cloud, then scales, shifts and applies ReLU to the pooled rows only.
Those three steps are nondecreasing in each feature once the features with
gamma < 0 are negated (their weight rows and stored mean; negation is
exact), so the pooled values are bit for bit those of pooling the full
output, and only each (cloud, feature)'s winning point carries gradient.

The activation cache holds the packed points `x`; per layer its `input`
(points x fan_in, a view of the layer below's output), `mean` and
`inv_std`; each pooled feature's winning row `argmax_rows`; the out map's
input `out_input`; and `batch_stats` and `new_stats`.  No normalized
activations and no ReLU masks are kept: a layer's ReLU output is the next
layer's cached input (the head's is `out_input`), and the pre-pool layer's
mask is its pooled output's.  Per point, nothing wider than a per-point
layer's fan-in is cached.

The backward pass is in GEMM form, in the same layout.  With du the
gradient at a layer's pre-ReLU output and hc its input centred on the
batch mean (the input itself in eval mode), d gamma is inv_std times the
row sums of (du hc) o w (less d beta * mean in eval mode); the batch
statistics' coupling reaches the input through the fan_in x fan_in matrix
w^T diag(scale * inv_std * d gamma / n) w; and the weight gradient needs
hc hc^T only when it is wanted.  Below the pool du is kept on the winning
points only, so an eval-mode backward (the attack's) never touches the
other points; batch statistics spread it to every point.  Batch statistics
come from the centred outputs, not from the input's covariance: diag(w Cov
w^T) loses about 1e-11 relative on the low-variance features of small
batches, which the finite-difference gradient check notices.

Everything is float64.  Batch statistics use the biased variance (divide
by N), both for normalization and for the running-average update.
"""

from __future__ import annotations

import copy
import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import _rng
from .augmentation import LabeledCloud, MixSpec, apply_mix
from .geometry import PointCloud
from .io_formats import parse_json, write_file

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


def _layer_dims(point_dims, head_dim):
    """(name, width, fan_in) of each layer: point0 ... pointN-1, then head."""
    names = [f"point{i}" for i in range(len(point_dims))] + ["head"]
    widths = (*point_dims, head_dim)
    return list(zip(names, widths, (3, *widths[:-1])))


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
        if not point_dims:
            raise ValueError("need at least one per-point layer before the pool")
        rng = _rng.stream(seed, 0x6E6574)  # distinct stream for init draws
        layers = []
        for name, width, fan_in in _layer_dims(point_dims, head_dim):
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(width, fan_in))
            layers.append(Layer(name, w, np.ones(width), np.zeros(width),
                                np.zeros(width), np.ones(width)))
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


def _max_pool(z, offsets):
    """Per-cloud maxima of each feature row of `z` (features x points), as
    (features x clouds), and their point rows (clouds x features); the
    first point wins ties."""
    n_batch, feat_dim = len(offsets) - 1, len(z)
    pooled = np.empty((feat_dim, n_batch))
    argmax_rows = np.empty((n_batch, feat_dim), dtype=np.int64)
    feats = np.arange(feat_dim)
    for s in range(n_batch):
        seg = z[:, offsets[s] : offsets[s + 1]]
        local = seg.argmax(axis=1)
        argmax_rows[s] = offsets[s] + local
        pooled[:, s] = seg[feats, local]
    return pooled, argmax_rows


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
        "new_stats": {},
    }

    h = x
    pre_pool = state.layers[-2]
    for layer in state.layers:
        w, gamma, stored_mean = layer.w, layer.gamma, layer.mean
        flip = layer is pre_pool and (gamma < 0).any()
        if flip:
            # negating the features with gamma < 0 makes scale, shift and
            # ReLU nondecreasing in each, so pooling first is exact
            sign = np.where(gamma < 0, -1.0, 1.0)
            w, gamma, stored_mean = w * sign[:, None], gamma * sign, stored_mean * sign
        # z is (features x points), so that each feature's values lie
        # contiguous for its mean, its variance and the pool
        z = w @ h.T
        n = z.shape[1]
        # sum / n is np.mean's arithmetic without its per-call overhead
        mean = z.sum(axis=1) / n if batch_stats else stored_mean
        z -= mean[:, None]
        var = np.einsum("ij,ij->i", z, z) / n if batch_stats else layer.var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        if layer is pre_pool:
            z, cache["argmax_rows"] = _max_pool(z, offsets)
        z *= (gamma * inv_std)[:, None]
        z += layer.beta[:, None]
        np.maximum(z, 0.0, out=z)  # gives +0.0 for -0.0; np.maximum(0.0, z) would not
        if flip:
            mean = mean * sign
        cache["layers"].append({"input": h, "mean": mean, "inv_std": inv_std})
        if batch_stats:
            for part, value in (("mean", mean), ("var", var)):
                name = f"{layer.name}.bn.{part}"
                cache["batch_stats"][name] = value
                running = getattr(layer, part)
                cache["new_stats"][name] = (1 - BN_MOMENTUM) * running + BN_MOMENTUM * value
        h = z.T

    cache["out_input"] = h
    logits = h @ state.out_weight.T + state.out_bias
    return logits, cache


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
    # gradients are (features x points), as in forward.  `du` is the one at
    # a layer's pre-ReLU output, held for the points `cols` only: below the
    # pool only the points that won a pooled feature have any, until a
    # batch-statistics layer spreads it to every point
    du, cols = state.out_weight.T @ grad_logits.T, slice(None)
    # a ReLU unit whose output is 0 passes no gradient; each layer's ReLU
    # output is the next layer's cached input (the head's is out_input)
    np.copyto(du, 0.0, where=cache["out_input"].T <= 0)

    head, first = state.layers[-1], state.layers[0]
    for layer, layer_cache in zip(reversed(state.layers), reversed(cache["layers"])):
        gamma, beta, w = (f"{layer.name}.{part}" for part in ("bn.gamma", "bn.beta", "w"))
        h, inv_std = layer_cache["input"].T, layer_cache["inv_std"]
        # the centred output u is w hc, with hc the input centred on its
        # batch mean in batch modes; in eval mode u = w h - mean
        n = h.shape[1]
        hc = h - h.sum(axis=1, keepdims=True) / n if batch_stats else h
        scale = layer.gamma * inv_std
        if batch_stats or gamma in wanted or w in wanted:
            du_h = du @ hc[:, cols].T
        if batch_stats or gamma in wanted or beta in wanted:
            grads[beta] = du.sum(axis=1)
        if batch_stats or gamma in wanted:
            du_u = np.einsum("ij,ij->i", du_h, layer.w)
            if not batch_stats:
                du_u -= grads[beta] * layer_cache["mean"]
            grads[gamma] = inv_std * du_u
        dh = (scale[:, None] * layer.w).T @ du
        if batch_stats:
            # the batch mean and variance pass gradient to every point:
            # dz = scale * du - scale * dbeta / n - u * scale * inv_std * dgamma / n
            coupling = scale * inv_std * grads[gamma] / n
            dh_cols, dh = dh, (layer.w.T @ (-coupling[:, None] * layer.w)) @ hc
            dh -= ((scale * grads[beta] / n) @ layer.w)[:, None]
            dh[:, cols] += dh_cols
            cols = slice(None)
        if w in wanted:
            grads[w] = scale[:, None] * du_h
            if batch_stats:
                grads[w] -= coupling[:, None] * (layer.w @ (hc @ hc.T))
        if layer is not first:
            # below the head this masks the pooled gradient: each feature's
            # winning point holds the pooled value, and the others get none
            np.copyto(dh, 0.0, where=h[:, cols] <= 0)
        du = dh
        if layer is head:
            # each pooled feature's gradient goes to its winning point
            rows = cache["argmax_rows"]
            cols, at = np.unique(rows, return_inverse=True)
            du = np.zeros((len(dh), len(cols)))
            du[np.arange(len(dh)), at.reshape(rows.shape)] = dh.T

    points = np.zeros(cache["x"].shape)
    points[cols] = du.T
    return {name: g for name, g in grads.items() if name in wanted}, points


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
    on_epoch=None,
):
    """Adam training with the plateau learning-rate rule and best-val snapshot.

    Returns (best_state, history); history holds one dict per epoch with
    train_loss, val_loss, val_acc and the lr in force.  `on_epoch`, if
    given, receives each epoch's row as it ends, with `s`, the epoch's
    seconds, added.
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
        start_s = time.perf_counter()
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
        if on_epoch is not None:
            on_epoch({**history[-1], "s": time.perf_counter() - start_s})
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
    tensors = [np.ascontiguousarray(t, dtype="<f8").tobytes() for _, t in entries]
    write_file(path, b"".join([CHECKPOINT_MAGIC, struct.pack("<I", len(blob)), blob, *tensors]))


def load_checkpoint(path):
    """Read a checkpoint; returns (state, metadata).

    Malformed files (class_names included), tensors holding NaN or infinity,
    and negative BN variances raise ValueError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic bytes)")
    if len(data) < 8:
        raise ValueError("checkpoint truncated inside its 8-byte header")
    (meta_len,) = struct.unpack("<I", data[4:8])
    meta = parse_json(data[8 : 8 + meta_len], "checkpoint metadata")
    if not isinstance(meta, dict):
        raise ValueError("checkpoint metadata is not a JSON object")
    for key, kind in (("n_classes", int), ("head_dim", int), ("point_dims", list),
                      ("tensors", list)):
        if type(meta.get(key)) is not kind:
            raise ValueError(f"checkpoint metadata needs {key!r} as JSON {kind.__name__}")
    dims = (meta["n_classes"], meta["head_dim"], *meta["point_dims"])
    if not all(type(d) is int and d >= 1 for d in dims):
        raise ValueError("checkpoint n_classes, head_dim and point_dims must be ints >= 1")
    names = meta.get("class_names")
    if names is not None and not (type(names) is list and all(type(c) is str for c in names)
                                  and len(set(names)) == len(names) == meta["n_classes"]):
        raise ValueError("checkpoint class_names must be null or n_classes distinct strings")
    entries = meta["tensors"]
    if not all(isinstance(e, dict) and isinstance(e.get("name"), str) and "shape" in e
               for e in entries):
        raise ValueError("each checkpoint tensor entry needs a name and a shape")
    # every layer is w (width x fan_in) plus four BN vectors; then out.w and out.b
    n_classes, point_dims, head_dim = meta["n_classes"], meta["point_dims"], meta["head_dim"]
    values = n_classes * (head_dim + 1) + sum(
        width * (fan_in + 4) for _, width, fan_in in _layer_dims(point_dims, head_dim)
    )
    offset = 8 + meta_len
    if 8 * values != len(data) - offset:
        raise ValueError(f"checkpoint metadata declares {8 * values} tensor bytes, "
                         f"the file holds {len(data) - offset}")
    state = NetworkState.create(n_classes, point_dims=tuple(point_dims), head_dim=head_dim)
    declared = {e["name"]: e["shape"] for e in entries}
    for name, tensor in state.tensors().items():
        shape, expected = declared.get(name), list(tensor.shape)
        if shape != expected:
            raise ValueError(f"checkpoint tensor {name!r} has shape {shape}, not {expected}")
        size = tensor.size * 8
        raw = data[offset : offset + size]
        tensor[...] = np.frombuffer(raw, dtype="<f8").reshape(tensor.shape)
        if not np.isfinite(tensor).all():
            raise ValueError(f"checkpoint tensor {name!r} holds non-finite values")
        if name.endswith(".bn.var") and (tensor < 0).any():
            raise ValueError(f"checkpoint tensor {name!r} holds negative variances")
        offset += size
    state.touch()
    return state, meta
