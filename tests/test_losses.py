import numpy as np
import pytest

from lanebev.errors import NonFiniteInput, ShapeMismatch, TooManyInstances
from lanebev.lane_grid import GridTensors
from lanebev.losses import (
    EmbedMargins,
    FrontViewPrediction,
    FrontViewTruth,
    LossWeights,
    PredictionBatch,
    conf_loss,
    embed_loss,
    height_loss,
    offset_loss,
    run_gradient_suite,
    seg_loss_2d,
    sigmoid,
    total_loss,
)

SHAPE = (10, 8)
DIM = 4


def fd_gradient(f, x, step=1e-5):
    """Independent central-difference oracle (kept separate from the library's)."""
    x = np.array(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        fp = f(x)
        x[idx] = orig - step
        fm = f(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * step)
        it.iternext()
    return g


def rel_err(analytic, numeric):
    return np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-8)


def random_gt(rng, shape=SHAPE, n_inst=3):
    inst = rng.integers(0, n_inst + 1, size=shape)
    return GridTensors(
        confidence=(inst > 0).astype(float),
        offset=np.where(inst > 0, rng.uniform(-0.45, 0.45, size=shape), 0.0),
        height=np.where(inst > 0, rng.normal(scale=0.5, size=shape), 0.0),
        instance=inst,
    )


def random_pred(rng, shape=SHAPE, dim=DIM):
    return PredictionBatch(
        raw_confidence=rng.normal(size=shape),
        raw_offset=rng.normal(size=shape),
        embedding=rng.normal(size=shape + (dim,)),
        height=rng.normal(size=shape),
    )


class TestConfLoss:
    def test_saturated_correct_logits(self, rng):
        gt = random_gt(rng)
        raw = np.where(gt.confidence > 0.5, 20.0, -20.0)
        pred = PredictionBatch(raw, np.zeros(SHAPE), np.zeros(SHAPE + (DIM,)), np.zeros(SHAPE))
        value, _ = conf_loss(pred, gt)
        assert value < 1e-6 * SHAPE[0] * SHAPE[1]

    def test_zero_logits_give_log_two_per_cell(self, rng):
        gt = random_gt(rng)
        pred = PredictionBatch(np.zeros(SHAPE), np.zeros(SHAPE), np.zeros(SHAPE + (DIM,)), np.zeros(SHAPE))
        value, _ = conf_loss(pred, gt)
        assert abs(value - SHAPE[0] * SHAPE[1] * np.log(2.0)) < 1e-9

    def test_gradient_matches_finite_differences(self, rng):
        gt = random_gt(rng)
        pred = random_pred(rng)
        _, grad = conf_loss(pred, gt)

        def f(raw):
            return conf_loss(PredictionBatch(raw, pred.raw_offset, pred.embedding, pred.height), gt)[0]

        assert rel_err(grad, fd_gradient(f, pred.raw_confidence)) < 1e-6

    def test_shape_mismatch(self, rng):
        gt = random_gt(rng, shape=(4, 4))
        with pytest.raises(ShapeMismatch):
            conf_loss(random_pred(rng), gt)


class TestOffsetLoss:
    def test_exact_inversion_is_zero(self, rng):
        gt = random_gt(rng)
        p = np.clip(gt.offset + 0.5, 1e-6, 1 - 1e-6)
        raw = np.log(p / (1.0 - p))  # sigma^-1
        pred = PredictionBatch(np.zeros(SHAPE), raw, np.zeros(SHAPE + (DIM,)), np.zeros(SHAPE))
        value, grad = offset_loss(pred, gt)
        assert value < 1e-18
        assert np.abs(grad).max() < 1e-9

    def test_all_background_is_zero(self, rng):
        gt = GridTensors(
            confidence=np.zeros(SHAPE),
            offset=np.zeros(SHAPE),
            height=np.zeros(SHAPE),
            instance=np.zeros(SHAPE, dtype=int),
        )
        value, grad = offset_loss(random_pred(rng), gt)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_background_values_do_not_matter(self, rng):
        gt = random_gt(rng)
        pred = random_pred(rng)
        tweaked_raw = pred.raw_offset.copy()
        tweaked_raw[gt.instance == 0] += rng.normal(size=(gt.instance == 0).sum()) * 100.0
        tweaked = PredictionBatch(pred.raw_confidence, tweaked_raw, pred.embedding, pred.height)
        assert offset_loss(pred, gt)[0] == offset_loss(tweaked, gt)[0]

    def test_gradient_matches_finite_differences(self, rng):
        gt = random_gt(rng)
        pred = random_pred(rng)
        _, grad = offset_loss(pred, gt)

        def f(raw):
            return offset_loss(PredictionBatch(pred.raw_confidence, raw, pred.embedding, pred.height), gt)[0]

        assert rel_err(grad, fd_gradient(f, pred.raw_offset)) < 1e-6


class TestHeightLoss:
    def test_exact_fit_is_zero(self, rng):
        gt = random_gt(rng)
        pred = PredictionBatch(np.zeros(SHAPE), np.zeros(SHAPE), np.zeros(SHAPE + (DIM,)), gt.height.copy())
        assert height_loss(pred, gt)[0] == 0.0

    def test_uniform_error_sums_squares(self, rng):
        gt = random_gt(rng)
        n = int((gt.instance > 0).sum())
        pred = PredictionBatch(np.zeros(SHAPE), np.zeros(SHAPE), np.zeros(SHAPE + (DIM,)), gt.height + 0.1)
        assert abs(height_loss(pred, gt)[0] - 0.01 * n) < 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        gt = random_gt(rng)
        pred = random_pred(rng)
        _, grad = height_loss(pred, gt)

        def f(h):
            return height_loss(PredictionBatch(pred.raw_confidence, pred.raw_offset, pred.embedding, h), gt)[0]

        # quadratic loss: central differences are exact to rounding
        assert rel_err(grad, fd_gradient(f, pred.height)) < 1e-8


class TestEmbedLoss:
    def test_two_tight_separated_clusters_zero(self):
        margins = EmbedMargins()
        inst = np.zeros(SHAPE, dtype=int)
        inst[:5] = 1
        inst[5:] = 2
        emb = np.zeros(SHAPE + (DIM,))
        emb[inst == 2, 0] = 2.0 * margins.delta_d + 1.0
        value, grad = embed_loss(emb, inst, margins)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_single_instance_within_delta_v_zero(self, rng):
        margins = EmbedMargins()
        inst = np.ones(SHAPE, dtype=int)
        emb = np.full(SHAPE + (DIM,), 3.0) + rng.uniform(-0.1, 0.1, size=SHAPE + (DIM,))
        value, _ = embed_loss(emb, inst, margins)
        assert value == 0.0

    def test_no_instances_zero(self, rng):
        value, grad = embed_loss(rng.normal(size=SHAPE + (DIM,)), np.zeros(SHAPE, dtype=int))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_rotation_invariance(self, rng):
        inst = rng.integers(0, 4, size=SHAPE)
        emb = rng.normal(size=SHAPE + (DIM,))
        q, _ = np.linalg.qr(rng.normal(size=(DIM, DIM)))
        rotated = emb @ q.T
        v1, _ = embed_loss(emb, inst)
        v2, _ = embed_loss(rotated, inst)
        assert abs(v1 - v2) < 1e-10

    def test_gradient_matches_finite_differences(self, rng):
        margins = EmbedMargins()
        inst = rng.integers(0, 4, size=SHAPE)
        # keep away from hinge kinks (the loss is non-differentiable there)
        emb = rng.normal(size=SHAPE + (DIM,))
        while _kink_near(emb, inst, margins):
            emb = rng.normal(size=SHAPE + (DIM,))
        _, grad = embed_loss(emb, inst, margins)
        fd = fd_gradient(lambda e: embed_loss(e, inst, margins)[0], emb)
        assert rel_err(grad, fd) < 1e-5

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            embed_loss(rng.normal(size=(4, 4, 2)), np.zeros((5, 4), dtype=int))

    @pytest.mark.parametrize("labels", [(0, 1), (0, 1, 2, 3), (0, 2, 5, 9), (3, 4, 100)])
    def test_matches_plain_per_cluster_loop(self, rng, labels):
        margins = EmbedMargins(delta_v=0.3, delta_d=1.2)
        for _ in range(10):
            inst = rng.choice(labels, size=(6, 5))
            emb = rng.normal(scale=rng.choice([0.2, 1.0, 3.0]), size=(6, 5, int(rng.integers(1, 6))))
            value, grad = embed_loss(emb, inst, margins)
            ref_value, ref_grad = reference_embed_loss(emb, inst, margins)
            assert abs(value - ref_value) <= 1e-12 * max(ref_value, 1e-300)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * max(np.abs(ref_grad).max(), 1e-300)

    def test_coincident_centers_count_in_value_without_gradient(self):
        margins = EmbedMargins()
        inst = np.zeros(SHAPE, dtype=int)
        inst[:4], inst[4:8] = 1, 2
        emb = np.zeros(SHAPE + (DIM,))
        emb[:4] = emb[4:8] = np.linspace(-0.1, 0.1, SHAPE[1] * DIM).reshape(SHAPE[1], DIM)
        value, grad = embed_loss(emb, inst, margins)
        # pull is 0 (every member within delta_v); push: 1/(2*1) * two ordered pairs * (2 delta_d)^2
        assert value == (2.0 * margins.delta_d) ** 2
        assert np.all(grad == 0.0)
        assert reference_embed_loss(emb, inst, margins)[0] == value

    def test_one_member_cluster_and_skipped_ids(self, rng):
        margins = EmbedMargins(delta_v=0.2, delta_d=1.0)
        consecutive = rng.integers(0, 3, size=SHAPE)
        consecutive[0, 0] = 3  # the only member of cluster 3
        skipped = np.choose(consecutive, [0, 2, 5, 40])
        emb = rng.normal(size=SHAPE + (DIM,))
        value, grad = embed_loss(emb, skipped, margins)
        same_value, same_grad = embed_loss(emb, consecutive, margins)
        assert value == same_value and np.array_equal(grad, same_grad)
        ref_value, ref_grad = reference_embed_loss(emb, skipped, margins)
        assert abs(value - ref_value) <= 1e-12 * ref_value
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
        assert np.any(grad[0, 0] != 0.0)

    @pytest.mark.parametrize("first_id", [1, 1000])
    def test_instance_limit(self, rng, first_id):
        emb = rng.normal(size=(16, 17, 2))
        inst = np.zeros((16, 17), dtype=int)
        inst.flat[:256] = np.arange(first_id, first_id + 256)
        value, grad = embed_loss(emb, inst)
        assert np.isfinite(value) and np.isfinite(grad).all()
        inst.flat[256] = first_id + 256
        with pytest.raises(TooManyInstances, match="257"):
            embed_loss(emb, inst)


def reference_embed_loss(emb, inst, margins):
    """The documented pull-push loss as a plain loop over clusters, members and
    ordered pairs; kept independent of the library's vectorised pass."""
    flat = emb.reshape(-1, emb.shape[2])
    labels = inst.reshape(-1)
    members = [np.flatnonzero(labels == k) for k in np.unique(labels) if k > 0]
    c = len(members)
    mus = [flat[idx].mean(axis=0) for idx in members]
    value = 0.0
    grad = np.zeros_like(flat)
    for idx, mu in zip(members, mus):
        n = len(idx)
        for i in idx:
            d = np.linalg.norm(mu - flat[i])
            hinge = max(0.0, d - margins.delta_v)
            value += hinge**2 / (n * c)
            if hinge > 0.0:
                g = 2.0 * hinge / (n * c) * (mu - flat[i]) / d  # d/d mu of the term
                grad[idx] += g / n
                grad[i] -= g
    for a in range(c):
        for b in range(c):
            if a == b:
                continue
            dist = np.linalg.norm(mus[a] - mus[b])
            hinge = max(0.0, 2.0 * margins.delta_d - dist)
            value += hinge**2 / (c * (c - 1))
            if hinge > 0.0 and dist > 0.0:
                g = -2.0 * hinge / (c * (c - 1)) * (mus[a] - mus[b]) / dist  # d/d mu_a of the term
                grad[members[a]] += g / len(members[a])
                grad[members[b]] -= g / len(members[b])
    return value, grad.reshape(emb.shape)


def _kink_near(emb, inst, margins, tol=1e-4):
    flat = emb.reshape(-1, emb.shape[2])
    labels = inst.reshape(-1)
    mus = []
    for k in np.unique(labels):
        if k <= 0:
            continue
        e = flat[labels == k]
        mu = e.mean(axis=0)
        mus.append(mu)
        if np.any(np.abs(np.linalg.norm(e - mu, axis=1) - margins.delta_v) < tol):
            return True
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            if abs(2.0 * margins.delta_d - np.linalg.norm(mus[i] - mus[j])) < tol:
                return True
    return False


class TestSegLoss2D:
    def test_matches_conf_loss_contract(self, rng):
        mask = (rng.random((12, 9)) < 0.25).astype(float)
        raw = np.where(mask > 0.5, 20.0, -20.0)
        value, _ = seg_loss_2d(raw, mask)
        assert value < 1e-6 * mask.size
        value0, _ = seg_loss_2d(np.zeros_like(mask), mask)
        assert abs(value0 - mask.size * np.log(2.0)) < 1e-9

    def test_gradient_matches_finite_differences(self, rng):
        mask = (rng.random(SHAPE) < 0.3).astype(float)
        raw = rng.normal(size=SHAPE)
        _, grad = seg_loss_2d(raw, mask)
        assert rel_err(grad, fd_gradient(lambda r: seg_loss_2d(r, mask)[0], raw)) < 1e-6


class TestTotalLoss:
    @pytest.mark.parametrize("field", ["raw_confidence", "raw_offset", "embedding", "height"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prediction_raises_naming_the_field(self, rng, field, bad):
        pred = random_pred(rng)
        arrays = {name: getattr(pred, name).copy() for name in ("raw_confidence", "raw_offset", "embedding", "height")}
        arrays[field].flat[3] = bad
        with pytest.raises(NonFiniteInput, match=field):
            PredictionBatch(**arrays)

    @pytest.mark.parametrize("field", ["raw_seg", "embedding", "mask", "instance"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_front_view_raises_naming_the_field(self, rng, field, bad):
        arrays = {
            "raw_seg": rng.normal(size=(6, 7)),
            "embedding": rng.normal(size=(6, 7, 3)),
            "mask": (rng.random((6, 7)) < 0.3).astype(float),
            "instance": rng.integers(0, 3, size=(6, 7)).astype(float),
        }
        arrays[field].flat[3] = bad
        with pytest.raises(NonFiniteInput, match=field):
            FrontViewPrediction(raw_seg=arrays["raw_seg"], embedding=arrays["embedding"])
            FrontViewTruth(mask=arrays["mask"], instance=arrays["instance"])

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: FrontViewPrediction(raw_seg=np.zeros(6), embedding=np.zeros((6, 1, 3))), "raw_seg"),
            (lambda: FrontViewPrediction(raw_seg=np.zeros((6, 7)), embedding=np.zeros((6, 7))), "embedding"),
            (lambda: FrontViewPrediction(raw_seg=np.zeros((6, 7)), embedding=np.zeros((7, 6, 3))), "embedding"),
            (lambda: FrontViewTruth(mask=np.zeros((6, 7, 1)), instance=np.zeros((6, 7, 1))), "mask"),
            (lambda: FrontViewTruth(mask=np.zeros((6, 7)), instance=np.zeros((6, 8))), "instance"),
        ],
    )
    def test_front_view_shapes_are_checked(self, build, field):
        with pytest.raises(ShapeMismatch, match=field):
            build()

    def test_single_weight_equals_component(self, rng):
        gt = random_gt(rng)
        pred = random_pred(rng)
        w = LossWeights(w_conf=1.0, w_embed=0.0, w_offset=0.0, w_height=0.0, w_seg2d=0.0, w_embed2d=0.0)
        assert total_loss(pred, gt, weights=w) == conf_loss(pred, gt)[0]

    def test_all_zero_weights(self, rng):
        w = LossWeights(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert total_loss(random_pred(rng), random_gt(rng), weights=w) == 0.0

    def test_equals_sum_of_terms(self, rng):
        gt = random_gt(rng)
        pred = random_pred(rng)
        mask2d = (rng.random((6, 7)) < 0.3).astype(float)
        inst2d = np.where(mask2d > 0.5, rng.integers(1, 3, size=(6, 7)), 0)
        pred2d = FrontViewPrediction(raw_seg=rng.normal(size=(6, 7)), embedding=rng.normal(size=(6, 7, 3)))
        gt2d = FrontViewTruth(mask=mask2d, instance=inst2d)
        margins = EmbedMargins()
        expected = (
            conf_loss(pred, gt)[0]
            + offset_loss(pred, gt)[0]
            + height_loss(pred, gt)[0]
            + embed_loss(pred.embedding, gt.instance, margins)[0]
            + seg_loss_2d(pred2d.raw_seg, gt2d.mask)[0]
            + embed_loss(pred2d.embedding, gt2d.instance, margins)[0]
        )
        got = total_loss(pred, gt, pred2d, gt2d)
        assert abs(got - expected) < 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(w_conf=-0.5)


class TestInvariants:
    def test_losses_nonnegative(self, rng):
        for _ in range(5):
            gt = random_gt(rng)
            pred = random_pred(rng)
            assert conf_loss(pred, gt)[0] >= 0.0
            assert offset_loss(pred, gt)[0] >= 0.0
            assert height_loss(pred, gt)[0] >= 0.0
            assert embed_loss(pred.embedding, gt.instance)[0] >= 0.0

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            EmbedMargins(delta_v=2.0, delta_d=1.0)

    def test_sigmoid_is_stable(self):
        assert sigmoid(np.array([-800.0]))[0] == 0.0
        assert sigmoid(np.array([800.0]))[0] == 1.0
        assert sigmoid(np.array([0.0]))[0] == 0.5


@pytest.mark.parametrize("batches", [0, -1])
def test_gradient_suite_refuses_no_batches(batches):
    with pytest.raises(ValueError, match="batches"):
        run_gradient_suite(batches=batches)
