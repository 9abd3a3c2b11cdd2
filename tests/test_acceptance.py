"""End-to-end acceptance checks.

Each test exercises one release criterion against an independent oracle and
prints a single [acceptance NN] PASS/FAIL line (echoed again in the terminal
summary).  Tolerances are part of the contract and are asserted verbatim.
"""

import itertools
import time

import numpy as np
import pytest

from pccorrupt import (
    Bvh,
    CorruptionKind,
    CorruptionSpec,
    NetworkState,
    PgdConfig,
    PointCloud,
    RunConfig,
    TentConfig,
    TrainConfig,
    ViewPose,
    apply_corruption,
    apply_ffd,
    backward,
    bn_adapt,
    count_records,
    emd_assign,
    assignment_cost,
    deformation_lattice,
    forward,
    loss_entropy,
    loss_smoothed_ce,
    merge_tables,
    nearest_indices,
    pgd_attack,
    predict,
    random_unit_vectors,
    raycast_visible,
    report_from_table,
    report_to_json,
    run_generate,
    solve_rbf,
    tent_adapt,
    train,
)
from pccorrupt.deformation import MULTIQUADRIC, RbfKernel
from pccorrupt.network import BN_EPS
from pccorrupt import _rng

from synthdata import (
    box_mesh,
    labelled_clouds,
    prism_mesh,
    pyramid_mesh,
    random_cloud,
    uv_sphere,
    write_shape_dataset,
)
from test_occlusion import brute_nearest_hits
from test_geometry import _point_triangle_distance

RESULTS = []

CLOUD_KINDS = [k for k in CorruptionKind if k.value not in ("occlusion", "lidar")]


def _criterion(num, name, ok, detail=""):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    RESULTS.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_model():
    """800/200 train/test split over the 4 synthetic shape classes.

    Test clouds carry 400 points so that even severity-5 removals (375 points
    for the density decrease) leave a non-empty cloud.
    """
    train_set = labelled_clouds(200, 256, seed=42)
    test_set = labelled_clouds(50, 400, seed=4242)
    state = NetworkState.create(4, seed=0)
    config = TrainConfig(epochs=10, batch_size=32, lr=1e-3, seed=0)
    best, history = train(state, train_set, config)
    return best, test_set, history


# -- 1: count contracts ----------------------------------------------------


def test_acceptance_01_count_contracts():
    cloud = random_cloud(1024, seed=101)
    expected = {
        "uniform": lambda n, s: n,
        "gaussian": lambda n, s: n,
        "impulse": lambda n, s: n,
        "upsampling": lambda n, s: n + (n * s) // 10,
        "background": lambda n, s: n + 20 * s,
        "local_density_inc": lambda n, s: n + 75 * s,
        "local_density_dec": lambda n, s: n - 75 * s,
        "cutout": lambda n, s: n - 50 * s,
        "rotation": lambda n, s: n,
        "shear": lambda n, s: n,
        "ffd": lambda n, s: n,
        "rbf": lambda n, s: n,
        "inv_rbf": lambda n, s: n,
    }
    start = time.perf_counter()
    bad = []
    for kind in CLOUD_KINDS:
        for s in range(1, 6):
            out = apply_corruption(
                cloud, CorruptionSpec(kind, s, seed=7), sample_key=3
            )
            want = expected[kind.value](1024, s)
            if out.count != want:
                bad.append((kind.value, s, out.count, want))
    elapsed = time.perf_counter() - start
    _criterion(
        1, "count contracts for all 13 cloud corruptions",
        not bad and elapsed < 10.0,
        f"65 cells in {elapsed:.2f}s" + (f", mismatches {bad[:3]}" if bad else ""),
    )


# -- 2: isometries ---------------------------------------------------------


def test_acceptance_02_rotation_and_shear_isometries():
    worst_dist = 0.0
    z_exact = True
    for i in range(100):
        cloud = random_cloud(64, seed=200 + i)
        s = i % 5 + 1
        rot = apply_corruption(
            cloud, CorruptionSpec(CorruptionKind.ROTATION, s, seed=11), sample_key=i
        )
        d_in = np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=2)
        d_out = np.linalg.norm(rot.points[:, None] - rot.points[None, :], axis=2)
        worst_dist = max(worst_dist, float(np.abs(d_in - d_out).max()))

        sh = apply_corruption(
            cloud, CorruptionSpec(CorruptionKind.SHEAR, s, seed=11), sample_key=i
        )
        z_exact = z_exact and np.array_equal(sh.points[:, 2], cloud.points[:, 2])
    _criterion(
        2, "rotation preserves distances, shear preserves z",
        worst_dist < 1e-9 and z_exact,
        f"worst pairwise-distance drift {worst_dist:.2e} over 100 clouds",
    )


# -- 3: deformation identity / bounds / affine -----------------------------


def test_acceptance_03_deformation_identity_bounds_affine():
    from pccorrupt import INVERSE_MULTIQUADRIC, apply_rbf

    cloud = random_cloud(500, seed=300)
    # the cloud lies in [-1, 1]^3, so its control lattice spans the unit cube
    lo, hi, rest, _ = deformation_lattice(cloud.points)
    assert np.array_equal(lo, [-1.0] * 3) and np.array_equal(hi, [1.0] * 3)

    identity = apply_ffd(cloud, np.zeros_like(rest))
    id_err = float(np.abs(identity.points - cloud.points).max())

    centers = rest.reshape(-1, 3)
    zero = np.zeros((125, 3))
    for kernel_kind in (MULTIQUADRIC, INVERSE_MULTIQUADRIC):
        still = apply_rbf(cloud, solve_rbf(centers, zero, RbfKernel(kernel_kind, 0.5)))
        id_err = max(id_err, float(np.abs(still.points - cloud.points).max()))

    rng = np.random.default_rng(301)
    a = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    affine = apply_ffd(cloud, rest @ a.T - rest)
    affine_err = float(np.abs(affine.points - cloud.points @ a.T).max())

    bent = apply_ffd(cloud, 0.3 * random_unit_vectors(125, rng))
    bound_excess = float(
        np.linalg.norm(bent.points - cloud.points, axis=1).max() - 0.3
    )

    disp = 0.2 * rng.standard_normal((125, 3))
    solved = solve_rbf(centers, disp, RbfKernel(MULTIQUADRIC, 0.5))
    at_centers = apply_rbf(PointCloud(centers), solved)
    residual = float(np.abs(at_centers.points - (centers + disp)).max())

    _criterion(
        3, "lattice/RBF deformations: identity, affine, bound, residual",
        id_err <= 1e-10 and affine_err <= 1e-9 and bound_excess <= 1e-9
        and residual < 1e-8,
        f"identity {id_err:.1e}, affine {affine_err:.1e}, "
        f"bound excess {bound_excess:.1e}, residual {residual:.1e}",
    )


# -- 4: occlusion visibility oracle ----------------------------------------


def test_acceptance_04_visibility_oracle_and_bvh():
    meshes = [uv_sphere(), box_mesh(), pyramid_mesh(), prism_mesh()]
    assert all(len(m.faces) <= 500 for m in meshes)

    worst_surface = 0.0
    worst_ray = 0.0
    for mesh, az in zip(meshes, (0.0, 72.0, 144.0, 216.0)):
        pose = ViewPose(az, 42.0)
        cloud = raycast_visible(mesh, pose, 1600)
        origin = pose.position
        dirs = cloud.points - origin
        ts = np.linalg.norm(dirs, axis=1)
        dirs /= ts[:, None]
        bt, btri = brute_nearest_hits(mesh, origin, dirs)
        assert np.all(btri >= 0)
        worst_ray = max(worst_ray, float(np.abs(bt - ts).max()))
        tris = mesh.triangles
        for p, fi in zip(cloud.points[::7], btri[::7]):
            worst_surface = max(worst_surface, _point_triangle_distance(p, tris[fi]))

    # BVH against brute force on 10^4 random rays (hits and misses)
    mesh = uv_sphere()
    bvh = Bvh(mesh)
    rng = np.random.default_rng(404)
    origin = np.array([2.2, -1.4, 1.9])
    targets = rng.uniform(-1.5, 1.5, size=(10_000, 3))
    dirs = targets - origin
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    t, tri = bvh.nearest_hits(origin, dirs)
    bt, btri = brute_nearest_hits(mesh, origin, dirs)
    same_tri = bool(np.array_equal(tri, btri))
    hit = tri >= 0
    same_t = bool(np.allclose(t[hit], bt[hit], rtol=0, atol=1e-12))

    _criterion(
        4, "emitted points are nearest visible surface; BVH == brute force",
        worst_ray < 1e-9 and worst_surface < 1e-9 and same_tri and same_t,
        f"ray-depth err {worst_ray:.1e}, surface dist {worst_surface:.1e}, "
        f"{int(hit.sum())}/10000 rays hit",
    )


# -- 5: neighbour search and matching oracles ------------------------------


def test_acceptance_05_knn_and_matching_oracles():
    rng = np.random.default_rng(505)
    base = rng.uniform(-1, 1, size=(1700, 3))
    pts = np.concatenate([base, base[:300]])  # n = 2000 with exact ties

    def linear_scan(q, k):
        d2 = ((pts - q) ** 2).sum(axis=1)
        return np.lexsort((np.arange(len(pts)), d2))[:k]

    knn_ok = True
    for qi in range(40):
        q = pts[rng.integers(0, len(pts))]
        for k in (1, 7, 33, 64, 500):
            if not np.array_equal(nearest_indices(pts, q, k), linear_scan(q, k)):
                knn_ok = False

    # exact cost equality: the oracle prices every permutation with the
    # same assignment_cost arithmetic, so optimal costs match bitwise
    from pccorrupt import Permutation

    emd_ok = True
    for trial in range(100):
        n = int(rng.integers(2, 8))  # n <= 7 keeps n! enumerable
        a = PointCloud(rng.uniform(-1, 1, size=(n, 3)))
        b = PointCloud(rng.uniform(-1, 1, size=(n, 3)))
        got = assignment_cost(a, b, emd_assign(a, b))
        best = min(
            assignment_cost(a, b, Permutation(np.array(p)))
            for p in itertools.permutations(range(n))
        )
        if got != best:
            emd_ok = False

    _criterion(
        5, "kNN == linear scan (n=2000); matching == factorial oracle (n<=7)",
        knn_ok and emd_ok,
        "100 matching trials at exact cost equality",
    )


# -- 6: gradient check over every parameter --------------------------------


def test_acceptance_06_gradcheck_full_network():
    state = NetworkState.create(3, seed=606)  # full-width architecture
    rng = np.random.default_rng(607)
    clouds = [rng.uniform(-1, 1, size=(4, 3)), rng.uniform(-1, 1, size=(3, 3))]
    labels = np.array([0, 2])
    h = 1e-5

    def rel_err(fd, g):
        # floor 1e-5: central differences on an O(1) loss carry ~1e-10 of
        # roundoff, and some betas have exactly-zero train-mode gradients
        return abs(fd - g) / max(abs(fd) + abs(g), 1e-5)

    worst = {"train": 0.0, "eval": 0.0}
    worst_input = 0.0
    for mode in ("train", "eval"):
        logits, cache = forward(state, clouds, mode=mode)
        _, dlogits = loss_smoothed_ce(logits, labels, 0.2)
        grads, dpoints = backward(state, cache, dlogits)

        def run_loss():
            lg, _ = forward(state, clouds, mode=mode)
            return loss_smoothed_ce(lg, labels, 0.2)[0]

        for name, tensor in state.parameters().items():
            flat = tensor.reshape(-1)
            g = grads[name].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                fp = run_loss()
                flat[j] = orig - h
                fm = run_loss()
                flat[j] = orig
                fd = (fp - fm) / (2 * h)
                worst[mode] = max(worst[mode], rel_err(fd, g[j]))

        offsets = np.cumsum([0] + [len(c) for c in clouds])
        for ci, cloud in enumerate(clouds):
            flat = cloud.reshape(-1)
            g = dpoints[offsets[ci] : offsets[ci + 1]].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                fp = run_loss()
                flat[j] = orig - h
                fm = run_loss()
                flat[j] = orig
                fd = (fp - fm) / (2 * h)
                worst_input = max(worst_input, rel_err(fd, g[j]))

    ok = worst["train"] < 1e-4 and worst["eval"] < 1e-4 and worst_input < 1e-4
    _criterion(
        6, "finite-difference gradcheck over every parameter and input",
        ok,
        f"worst rel err train {worst['train']:.2e}, eval {worst['eval']:.2e}, "
        f"inputs {worst_input:.2e}",
    )


# -- 7: the attack stays in its ball and raises the loss -------------------


def test_acceptance_07_pgd_ball_and_loss(desk_model):
    state, test_set, _ = desk_model
    cfg = PgdConfig(epsilon=0.05, alpha=0.01, steps=7)
    n = 200
    in_ball = 0
    loss_up = 0
    for i, sample in enumerate(test_set[:n]):
        label = int(sample.label.argmax())
        keys = (707, i)
        adv = pgd_attack(state, sample.cloud, label, cfg, _rng.stream(*keys))
        gap = float(np.abs(adv.points - sample.cloud.points).max())
        in_ball += gap <= cfg.epsilon + 1e-15

        # replay the same stream to recover the randomized starting point
        x0 = sample.cloud.points + _rng.stream(*keys).uniform(
            -cfg.epsilon, cfg.epsilon, size=sample.cloud.points.shape
        )
        start_loss, _ = loss_smoothed_ce(
            forward(state, [x0], "eval")[0], np.array([label]), 0.0
        )
        adv_loss, _ = loss_smoothed_ce(
            forward(state, [adv.points], "eval")[0], np.array([label]), 0.0
        )
        loss_up += adv_loss >= start_loss
    _criterion(
        7, "attack respects the 0.05 ball and ascends the loss",
        in_ball == n and loss_up >= 0.9 * n,
        f"{in_ball}/{n} inside the ball, {loss_up}/{n} loss increases",
    )


# -- 8: test-time adaptation contracts -------------------------------------


def test_acceptance_08_adaptation_contracts(desk_model):
    state, test_set, _ = desk_model
    rng = np.random.default_rng(808)

    # (a) entropy non-increase on 100 noisy batches
    wins = 0
    frozen_ok = True
    for _ in range(100):
        batch = []
        for _ in range(8):
            pts = test_set[rng.integers(len(test_set))].cloud.points
            batch.append(pts + rng.normal(0.0, 0.03, size=pts.shape))
        baseline, _ = bn_adapt(state, batch, blend=1.0)
        ent_before, _ = loss_entropy(forward(baseline, batch, "eval")[0])
        adapted, _ = tent_adapt(state, batch, TentConfig(lr=1e-3, steps=1))
        ent_after, _ = loss_entropy(forward(adapted, batch, "eval")[0])
        wins += ent_after <= ent_before + 1e-12
        for name, t in state.parameters().items():
            same = np.array_equal(t, adapted.parameters()[name])
            if name.endswith((".bn.gamma", ".bn.beta")):
                continue  # these are allowed (expected) to move
            frozen_ok = frozen_ok and same

    # (b) statistic replacement standardizes the batch
    big_batch = [s.cloud.points for s in test_set[:64]]
    replaced, _ = bn_adapt(state, big_batch, blend=1.0)
    _, cache = forward(replaced, big_batch, mode="eval")
    first = replaced.layers[0]
    x_hat = (cache["layers"][0]["input"] @ first.w.T - first.mean) / np.sqrt(first.var + BN_EPS)
    mean_dev = float(np.abs(x_hat.mean(axis=0)).max())
    var_dev = float(np.abs(x_hat.var(axis=0) - 1.0).max())

    _criterion(
        8, "adaptation touches only scale/shift/stats; entropy and stats behave",
        wins >= 90 and frozen_ok and mean_dev < 1e-6 and var_dev < 1e-3,
        f"{wins}/100 entropy non-increases, mean dev {mean_dev:.1e}, "
        f"var dev {var_dev:.1e}",
    )


# -- 9: metric counting vs a recount oracle --------------------------------


def test_acceptance_09_metrics_recount_and_merge():
    rng = np.random.default_rng(909)
    kinds = ["clean"] + [k.value for k in CorruptionKind]
    n = 100_000
    from pccorrupt.metrics import PredictionRecord

    corr_idx = rng.integers(0, len(kinds), size=n)
    sev = rng.integers(1, 6, size=n)
    true = rng.integers(0, 8, size=n)
    pred = np.where(rng.random(n) < 0.65, true, rng.integers(0, 8, size=n))
    records = [
        PredictionRecord(
            f"s{i}",
            kinds[corr_idx[i]],
            0 if corr_idx[i] == 0 else int(sev[i]),
            int(true[i]),
            int(pred[i]),
        )
        for i in range(n)
    ]

    table = count_records(records)
    oracle = {}
    for r in records:
        cell = oracle.setdefault((r.corruption, r.severity), [0, 0])
        cell[0] += 1
        cell[1] += r.true_label != r.pred_label
    counts_ok = set(table.cells) == set(oracle) and all(
        table.cells[k].count == v[0] and table.cells[k].wrong == v[1]
        for k, v in oracle.items()
    )

    report = report_from_table(table)
    rate_gap = max(
        abs(report.er[c][s] - oracle[(c, s)][1] / oracle[(c, s)][0])
        for c in report.er
        for s in report.er[c]
    )
    clean = oracle[("clean", 0)]
    rate_gap = max(rate_gap, abs(report.er_clean - clean[1] / clean[0]))

    thirds = [records[:30_000], records[30_000:70_000], records[70_000:]]
    t1, t2, t3 = (count_records(part) for part in thirds)
    left = merge_tables(merge_tables(t1, t2), t3)
    right = merge_tables(t1, merge_tables(t2, t3))
    cells_ok = set(left.cells) == set(right.cells) == set(table.cells) and all(
        left.cells[k] == right.cells[k] == table.cells[k] for k in table.cells
    )
    merge_ok = cells_ok and (
        report_to_json(report_from_table(left))
        == report_to_json(report_from_table(right))
        == report_to_json(report)
    )

    _criterion(
        9, "rebuilt counts match a recount of 100k records; merging associates",
        counts_ok and rate_gap <= 1e-15 and merge_ok,
        f"{len(oracle)} cells, max rate gap {rate_gap:.1e}",
    )


# -- 10: corruption hurts a trained classifier -----------------------------


def test_acceptance_10_robustness_trend(desk_model):
    state, test_set, history = desk_model
    clean_preds = []
    clouds = [s.cloud.points for s in test_set]
    for start in range(0, len(clouds), 32):
        clean_preds.extend(predict(state, clouds[start : start + 32]).tolist())
    truth = np.array([int(s.label.argmax()) for s in test_set])
    er_clean = float((np.array(clean_preds) != truth).mean())

    er_cells = []
    for kind in CLOUD_KINDS:
        per_kind = []
        for severity in range(1, 6):
            spec = CorruptionSpec(kind, severity, seed=1010)
            corrupted = [
                apply_corruption(s.cloud, spec, sample_key=i).points
                for i, s in enumerate(test_set)
            ]
            preds = []
            for start in range(0, len(corrupted), 32):
                preds.extend(predict(state, corrupted[start : start + 32]).tolist())
            per_kind.append(float((np.array(preds) != truth).mean()))
        er_cells.append(sum(per_kind) / len(per_kind))
    er_cor = sum(er_cells) / len(er_cells)

    ok = er_clean < 0.15 and er_cor >= 1.5 * er_clean
    _criterion(
        10, "trained model: clean error < 15%, corruption at least 1.5x worse",
        ok,
        f"ER_clean {100 * er_clean:.1f}%, ER_cor {100 * er_cor:.1f}%, "
        f"{len(history)} epochs",
    )


# -- 11: generation is worker-count invariant ------------------------------


def test_acceptance_11_generation_bitwise_reproducible(tmp_path):
    src = tmp_path / "src"
    write_shape_dataset(src, n_per_class=1, seed=3)
    keep = {"sphere", "box"}
    for path in list(src.rglob("*.off")):
        if path.parent.name not in keep:
            path.unlink()

    trees = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        run_generate(
            RunConfig(
                input_dir=src,
                output_dir=out,
                kinds=("gaussian", "cutout", "rbf", "occlusion"),
                severities=(1, 3),
                point_budget=256,
                seed=1111,
                workers=workers,
            )
        )
        trees.append(
            {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    same = trees[0] == trees[1]
    _criterion(
        11, "dataset generation is byte-identical for 1 and 3 workers",
        same,
        f"{len(trees[0])} files compared",
    )
