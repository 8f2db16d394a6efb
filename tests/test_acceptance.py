"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Criteria 5 and 6 reproduce the class-0 result table at desk scale and need
the real MNIST IDX files; point LATENT_GUARD_DATA_DIR (or tests/data/mnist)
at a directory containing train-images-idx3-ubyte[.gz] etc. to run them.
Without the data they skip -- they are never faked.

Criterion 8 (appendix AUPR-out columns are NOT reproduction targets) is a
negative requirement: AUPR(out) correctness is covered by oracle
equivalence in criterion 2 only, and no test below compares AUPR(out)
against appendix table values.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from latent_guard import (
    GaussianStats,
    ScoredSet,
    TrainConfig,
    aupr,
    auroc,
    calibrate,
    fit_gaussian,
    fpr_at_tpr,
    inlier_indices,
    novelty_scores,
    train,
)
from latent_guard import cli
from latent_guard.data import load_mnist_split, write_idx_images, write_idx_labels
from latent_guard.nn import layers as L
from latent_guard.nn import losses
from latent_guard.novelty import MODE_HYBRID, MODE_RECONSTRUCTION, features

from conftest import synthetic_digits
from helpers import (
    aupr_exhaustive,
    auroc_pairwise,
    fpr_at_tpr_exhaustive,
    mahalanobis,
    numeric_grad,
    scored_set,
)
from manifolds import LinearProjectionCodec, linear_set


def _mnist_dir():
    env = os.environ.get("LATENT_GUARD_DATA_DIR")
    if env and Path(env).is_dir():
        return Path(env)
    local = Path(__file__).parent / "data" / "mnist"
    if local.is_dir():
        return local
    return None


MNIST_DIR = _mnist_dir()
requires_mnist = pytest.mark.skipif(
    MNIST_DIR is None,
    reason="MNIST IDX data not available; set LATENT_GUARD_DATA_DIR to run "
    "the desk-scale paper reproduction",
)

SEED = 7


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness, every layer, fd oracle, < 1 minute
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    rtol, atol = 1e-4, 1e-9
    checked = 0

    def check(analytic, numeric):
        np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)

    # conv3x3 over several channel/spatial configs, both kernel paths
    for c_in, c_out, h, w in [(1, 3, 4, 4), (2, 2, 6, 4), (4, 1, 4, 6), (6, 2, 4, 4)]:
        for _ in range(2):
            layer = L.Conv3x3(c_in, c_out, rng)
            x = rng.standard_normal((2, h, w, c_in))
            proj = rng.standard_normal((2, h, w, c_out))

            def loss_from(which, value, layer=layer, x=x, proj=proj):
                saved = None
                if which == "x":
                    out, _ = layer.forward(value, train=False)
                else:
                    saved = layer.params[which].copy()
                    layer.params[which][...] = value
                    out, _ = layer.forward(x, train=False)
                    layer.params[which][...] = saved
                return float((out * proj).sum())

            _, cache = layer.forward(x, train=True)
            dx, grads = layer.backward(proj, cache)
            check(dx, numeric_grad(lambda v: loss_from("x", v), x.copy()))
            check(grads["weight"],
                  numeric_grad(lambda v: loss_from("weight", v),
                               layer.params["weight"].copy()))
            check(grads["bias"],
                  numeric_grad(lambda v: loss_from("bias", v),
                               layer.params["bias"].copy()))
            checked += 3

    # dense
    for in_dim, out_dim in [(5, 3), (8, 8), (3, 7)]:
        layer = L.Dense(in_dim, out_dim, rng)
        x = rng.standard_normal((3, in_dim))
        proj = rng.standard_normal((3, out_dim))
        _, cache = layer.forward(x, train=True)
        dx, grads = layer.backward(proj, cache)

        def dense_loss(which, value, layer=layer, x=x, proj=proj):
            if which == "x":
                return float((layer.forward(value)[0] * proj).sum())
            saved = layer.params[which].copy()
            layer.params[which][...] = value
            out = float((layer.forward(x)[0] * proj).sum())
            layer.params[which][...] = saved
            return out

        check(dx, numeric_grad(lambda v: dense_loss("x", v), x.copy()))
        check(grads["weight"],
              numeric_grad(lambda v: dense_loss("weight", v), layer.params["weight"].copy()))
        check(grads["bias"],
              numeric_grad(lambda v: dense_loss("bias", v), layer.params["bias"].copy()))
        checked += 3

    # parameter-free layers: maxpool, upsample, relu, sigmoid, flatten, reshape
    for _ in range(3):
        x = rng.standard_normal((2, 4, 4, 3))
        proj = rng.standard_normal((2, 2, 2, 3))
        pool = L.MaxPool2x2()
        _, cache = pool.forward(x, train=True)
        check(pool.backward(proj, cache)[0],
              numeric_grad(lambda v: float((L.MaxPool2x2().forward(v)[0] * proj).sum()),
                           x.copy()))

        up = L.Upsample2x2()
        proj_up = rng.standard_normal((2, 8, 8, 3))
        _, cache = up.forward(x, train=True)
        check(up.backward(proj_up, cache)[0],
              numeric_grad(lambda v: float((L.Upsample2x2().forward(v)[0] * proj_up).sum()),
                           x.copy()))

        act_x = rng.standard_normal((4, 6)) + 0.05
        proj_act = rng.standard_normal((4, 6))
        relu = L.ReLU()
        _, cache = relu.forward(act_x, train=True)
        check(relu.backward(proj_act, cache)[0],
              numeric_grad(lambda v: float((L.ReLU().forward(v)[0] * proj_act).sum()),
                           act_x.copy()))

        sig = L.Sigmoid()
        _, cache = sig.forward(act_x, train=True)
        check(sig.backward(proj_act, cache)[0],
              numeric_grad(lambda v: float((L.Sigmoid().forward(v)[0] * proj_act).sum()),
                           act_x.copy()))

        flat = L.Flatten()
        proj_flat = rng.standard_normal((2, 48))
        _, cache = flat.forward(x, train=True)
        check(flat.backward(proj_flat, cache)[0],
              numeric_grad(lambda v: float((L.Flatten().forward(v)[0] * proj_flat).sum()),
                           x.copy()))

        resh = L.Reshape((4, 4, 3))
        flat_x = rng.standard_normal((2, 48))
        proj_resh = rng.standard_normal((2, 4, 4, 3))
        _, cache = resh.forward(flat_x, train=True)
        check(resh.backward(proj_resh, cache)[0],
              numeric_grad(lambda v: float((L.Reshape((4, 4, 3)).forward(v)[0] * proj_resh).sum()),
                           flat_x.copy()))
        checked += 6

    # loss gradients
    for _ in range(3):
        p = rng.uniform(0.05, 0.95, size=20)
        t = rng.uniform(size=20)
        _, grad = losses.bce_loss_and_grad(p, t)
        check(grad, numeric_grad(lambda v: losses.bce_loss(v, t), p.copy()))
        a = rng.standard_normal(15)
        a[np.abs(a) < 0.1] += 0.2
        _, l1_grad = losses.l1_penalty(a, 1e-3)
        check(l1_grad, numeric_grad(lambda v: losses.l1_penalty(v, 1e-3)[0], a.copy()))
        checked += 2

    elapsed = time.monotonic() - start
    assert checked >= 20, f"only {checked} tensors gradient-checked"
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: metric oracle equivalence at 1e-9 on 100 random sets
# ---------------------------------------------------------------------------

def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(2)
    for trial in range(100):
        n_in = int(rng.integers(1, 100))
        n_ood = int(rng.integers(1, 100))
        scores = rng.standard_normal(n_in + n_ood) * float(rng.uniform(0.5, 3.0))
        if trial % 3 == 0:
            scores = np.round(scores, 1)  # heavy ties
        scored = scored_set(scores[:n_in], scores[n_in:])
        in_scores, ood_scores = scores[:n_in], scores[n_in:]

        assert abs(auroc(scored) - auroc_pairwise(in_scores, ood_scores)) < 1e-9
        assert abs(
            aupr(scored, "ood") - aupr_exhaustive(scores, scored.is_inlier == False)
        ) < 1e-9
        assert abs(
            aupr(scored, "inlier")
            - aupr_exhaustive(scores, scored.is_inlier, descending=False)
        ) < 1e-9
        assert abs(
            fpr_at_tpr(scored, 0.95)
            - fpr_at_tpr_exhaustive(in_scores, ood_scores, 0.95)
        ) < 1e-9


# ---------------------------------------------------------------------------
# criterion 3: Mahalanobis properties
# ---------------------------------------------------------------------------

def test_criterion_3_mahalanobis_properties():
    rng = np.random.default_rng(3)

    # affine equivariance within 1e-8 (jitter-free fits)
    z = rng.standard_normal((500, 5))
    a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    b = rng.standard_normal(5)
    base = fit_gaussian(z)
    mapped = fit_gaussian(z @ a.T + b)
    assert base.jitter == 0.0 and mapped.jitter == 0.0
    for _ in range(20):
        x = rng.standard_normal(5)
        d_base = mahalanobis(base, x)
        d_mapped = mahalanobis(mapped, a @ x + b)
        assert abs(d_base - d_mapped) <= 1e-8 * max(1.0, d_base)

    # distance at the mean is exactly zero
    assert mahalanobis(base, base.mean) == 0.0

    # identity covariance reduces to Euclidean distance exactly
    stats = GaussianStats(
        mean=rng.standard_normal(4),
        covariance=np.eye(4),
        basis=np.eye(4),
        variances=np.ones(4),
        jitter=0.0,
    )
    for _ in range(20):
        x = rng.standard_normal(4)
        assert mahalanobis(stats, x) == np.linalg.norm(x - stats.mean)


# ---------------------------------------------------------------------------
# criterion 4: Figure-2a geometry, quantitative and deterministic
# ---------------------------------------------------------------------------

def test_criterion_4_linear_manifold_reproduction():
    basis = np.array([[1.0, 0.0]])
    ms = linear_set(basis, n_train=1000, seed=4, n_test=500)
    codec = LinearProjectionCodec(basis)

    stats = fit_gaussian(codec.encode(ms.inlier_train))
    # separate validation draw for calibration (still inliers)
    val = linear_set(basis, n_train=500, seed=5, n_test=1).inlier_train
    cal = calibrate(codec, stats, val)

    far = ms.ood_on_manifold
    inliers = ms.inlier_test

    # reconstruction error of the far point is below the inlier median
    far_re = novelty_scores(codec, stats, far, MODE_RECONSTRUCTION)[0]
    inlier_re = novelty_scores(codec, stats, inliers, MODE_RECONSTRUCTION)
    assert far_re < np.median(inlier_re)

    # hybrid score of the far point clears the 99th inlier percentile
    far_h = novelty_scores(codec, stats, far, MODE_HYBRID, cal)[0]
    inlier_h = novelty_scores(codec, stats, inliers, MODE_HYBRID, cal)
    assert far_h > np.percentile(inlier_h, 99)

    # RE-mode detection misses the far point entirely, H-mode catches it
    re_scored = scored_set(inlier_re, [far_re])
    assert fpr_at_tpr(re_scored, 0.95) == 1.0
    h_scored = scored_set(inlier_h, [far_h])
    assert fpr_at_tpr(h_scored, 0.95) == 0.0

    # deterministic: regenerating everything reproduces identical scores
    ms2 = linear_set(basis, n_train=1000, seed=4, n_test=500)
    stats2 = fit_gaussian(codec.encode(ms2.inlier_train))
    far_h2 = novelty_scores(codec, stats2, ms2.ood_on_manifold, MODE_HYBRID, cal)[0]
    assert far_h2 == far_h


# ---------------------------------------------------------------------------
# criteria 5 and 6: desk-scale MNIST reproduction (skipped without data)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def mnist_class0_runs():
    """Trains class-0 models on demand (full appendix procedure) and caches
    the evaluation features per bottleneck size."""
    train_full = load_mnist_split(MNIST_DIR, "train")
    test_set = load_mnist_split(MNIST_DIR, "t10k")
    is_inlier = test_set.labels == 0
    cache = {}

    def get(k):
        if k not in cache:
            config = TrainConfig(inlier_class=0, bottleneck_size=k, seed=SEED)
            model, _ = train(config, train_full)
            train_rows, val_rows = inlier_indices(config, train_full.labels)
            stats = fit_gaussian(model.encode(train_full.images[train_rows]))
            cal = calibrate(model, stats, train_full.images[val_rows])
            re, ld = features(model, stats, test_set.images)
            hybrid = cal.alpha * ld + cal.beta * re
            cache[k] = {
                "re": ScoredSet(scores=re, is_inlier=is_inlier),
                "h": ScoredSet(scores=hybrid, is_inlier=is_inlier),
            }
        return cache[k]

    return get


@requires_mnist
def test_criterion_5_desk_scale_class0_reproduction(mnist_class0_runs):
    results = {k: mnist_class0_runs(k) for k in (8, 16, 32)}

    # (a) hybrid FPR@95%TPR <= recon FPR@95%TPR for at least 2 of 3 ks
    improved = sum(
        fpr_at_tpr(r["h"]) <= fpr_at_tpr(r["re"]) for r in results.values()
    )
    assert improved >= 2, f"hybrid improved FPR at only {improved}/3 bottlenecks"

    # (b) hybrid AUROC at k=16 within tolerance of the reported 0.995
    assert auroc(results[16]["h"]) >= 0.97

    # (c) recon-only AUROC at k=8 within tolerance of the reported 0.989
    assert auroc(results[8]["re"]) >= 0.93


@requires_mnist
def test_criterion_6_large_bottleneck_degrades_reconstruction(mnist_class0_runs):
    fpr_k128 = fpr_at_tpr(mnist_class0_runs(128)["re"])
    fpr_k16 = fpr_at_tpr(mnist_class0_runs(16)["re"])
    assert fpr_k128 > fpr_k16, (
        f"recon FPR@95%TPR should degrade with k: k=128 gave {fpr_k128:.3f}, "
        f"k=16 gave {fpr_k16:.3f}"
    )


# ---------------------------------------------------------------------------
# criterion 7: end-to-end determinism of cmd_train + cmd_eval
# ---------------------------------------------------------------------------

def test_criterion_7_cli_determinism(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    train_ds = synthetic_digits(400, seed=70)
    test_ds = synthetic_digits(150, seed=71)
    for name, ds in (("train", train_ds), ("t10k", test_ds)):
        as_u8 = np.round(ds.images[:, 0] * 255.0).astype(np.uint8)
        write_idx_images(data_dir / f"{name}-images-idx3-ubyte", as_u8)
        write_idx_labels(data_dir / f"{name}-labels-idx1-ubyte", ds.labels)

    reports = []
    for run in ("one", "two"):
        out = tmp_path / f"bundle-{run}"
        code = cli.main([
            "train", "--class", "0", "--bottleneck", "4", "--seed", "99",
            "--data-dir", str(data_dir), "--out", str(out),
            "--max-epochs", "3", "--patience", "2", "--batch-size", "64",
            "--val-size", "80",
        ])
        assert code == 0
        for mode in ("RE", "LD", "H"):
            assert cli.main(["eval", "--bundle", str(out),
                             "--data-dir", str(data_dir), "--mode", mode]) == 0
        reports.append({
            mode: (out / f"eval_{mode}.json").read_bytes() for mode in ("RE", "LD", "H")
        })
        reports[-1]["scores"] = (out / "scores_H.csv").read_bytes()

    assert reports[0] == reports[1], "EvalReports differ between identical runs"


# ---------------------------------------------------------------------------
# criterion 8: AUPR(out) is validated by oracle equivalence only
# ---------------------------------------------------------------------------

def test_criterion_8_aupr_out_not_an_appendix_target():
    # the appendix AUPR(out) columns sit near 0.05 at AUROC ~0.99, which no
    # convention reproduces; this suite never asserts them.  AUPR(out)
    # correctness is pinned to the exhaustive oracle instead (criterion 2);
    # spot-check that binding once more here.
    rng = np.random.default_rng(8)
    scores = np.round(rng.standard_normal(120), 1)
    scored = scored_set(scores[:40], scores[40:])
    assert abs(
        aupr(scored, "ood") - aupr_exhaustive(scores, ~scored.is_inlier)
    ) < 1e-9
