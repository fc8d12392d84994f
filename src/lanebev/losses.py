"""Reference numerics for the training losses, with analytic gradients.

The 3D head losses over the s1 x s2 grid:

  - confidence: binary cross-entropy on sigmoid(raw) against {0, 1} targets
  - offset: masked squared error of (sigmoid(raw) - 0.5) against the
    ground-truth lateral offset in [-0.5, 0.5)
  - embedding: pull-push discriminative loss with squared hinges, at the
    fixed margins lane_grid.DELTA_V = 0.5 (pull) and DELTA_D = 3.0 (push)
  - height: masked squared error in meters

plus the front-view auxiliaries: pixelwise segmentation BCE and the same
discriminative loss on 2D embeddings.  Offset and height only count cells
with a ground-truth confidence above 0.5.  All reductions run in a fixed
order, so values are bit-stable across runs.

Every loss returns (value, gradient-with-respect-to-its-raw-input); the
gradients are exact derivatives of the clamped forward computations.
`run_gradient_suite` (`lanebev losscheck`) checks them against central
finite differences; the embedding loss and that check's hinge-kink guard
share one cluster pass, `_cluster_geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeMismatch, TooManyInstances
from .errors import _array, _array_field, _Declared, _numbers, _object_field, _scalar, _scalar_field
from .lane_grid import DELTA_D, DELTA_V, GridTensors

_P_CLAMP = 1e-7
_CHECK_SHAPE = (10, 8)  # grid of the gradient self-check batches
_EMBED_DIM = 4  # their embedding width
_FD_STEP = 1e-5  # the step of its central differences
# Most distinct instance ids embed_loss takes: its pair terms hold C x C x D
# arrays, and a lane grid holds a handful of instances.
_MAX_INSTANCES = 256


@dataclass
class PredictionBatch(_Declared):
    """Raw (pre-activation) head outputs aligned with one grid."""

    raw_confidence: np.ndarray = _array(shape=(None, None))
    raw_offset: np.ndarray = _array(shape=("raw_confidence",))
    embedding: np.ndarray = _array(shape=("raw_confidence", None))
    height: np.ndarray = _array(shape=("raw_confidence",))

    def activate(self) -> GridTensors:
        """Apply the head activations, yielding decodable grid tensors."""
        return GridTensors(
            confidence=sigmoid(self.raw_confidence),
            offset=sigmoid(self.raw_offset) - 0.5,
            height=self.height.copy(),
            embedding=self.embedding.copy(),
        )


@dataclass(frozen=True)
class LossWeights(_Declared):
    """Weights of the six total-loss terms; each defaults to 1 and must lie in [0, inf), so not NaN."""

    w_conf: float = _scalar(1.0, "non-negative")
    w_embed: float = _scalar(1.0, "non-negative")
    w_offset: float = _scalar(1.0, "non-negative")
    w_height: float = _scalar(1.0, "non-negative")
    w_seg2d: float = _scalar(1.0, "non-negative")
    w_embed2d: float = _scalar(1.0, "non-negative")


@dataclass
class FrontViewPrediction(_Declared):
    """Front-view auxiliary head output: (H, W) segmentation logits and
    (H, W, D) embeddings."""

    raw_seg: np.ndarray = _array(shape=(None, None))
    embedding: np.ndarray = _array(shape=("raw_seg", None))


@dataclass
class FrontViewTruth(_Declared):
    """Front-view supervision: (H, W) {0,1} lane mask and instance labels."""

    mask: np.ndarray = _array(shape=(None, None))
    instance: np.ndarray = _array(shape=("mask",), dtype=None)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as float64, computed in x's dtype from exp(-|x|),
    which never overflows: 1 / (1 + e) where x >= 0, else e / (1 + e).
    Raises InvalidValue naming `sigmoid.x` unless x is numbers (see
    errors._numbers); an ndarray is not copied."""
    x = _numbers("sigmoid.x", x)
    e = np.exp(-np.abs(x))
    d = 1 + e
    return np.where(x >= 0, 1 / d, e / d).astype(float, copy=False)


def binary_cross_entropy(raw: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed BCE of sigmoid(raw) against targets, probabilities clamped to
    [1e-7, 1 - 1e-7]; gradient is w.r.t. raw and is 0 where the clamp is active."""
    raw = _numbers("binary_cross_entropy.raw", raw).astype(float, copy=False)
    target = _array_field("binary_cross_entropy.target", target, raw.shape, finite=False)
    p = sigmoid(raw)
    pc = np.clip(p, _P_CLAMP, 1.0 - _P_CLAMP)
    value = -(target * np.log(pc) + (1.0 - target) * np.log(1.0 - pc)).sum()
    grad = np.where((p > _P_CLAMP) & (p < 1.0 - _P_CLAMP), p - target, 0.0)
    return float(value), grad


def conf_loss(pred: PredictionBatch, gt: GridTensors) -> tuple[float, np.ndarray]:
    """Confidence BCE over all cells; gradient w.r.t. raw_confidence."""
    _object_field("conf_loss.pred", pred, PredictionBatch)
    _object_field("conf_loss.gt", gt, GridTensors)
    _array_field("conf_loss.gt", gt.confidence, pred.raw_confidence.shape, finite=False)
    return binary_cross_entropy(pred.raw_confidence, gt.confidence)


def offset_loss(pred: PredictionBatch, gt: GridTensors) -> tuple[float, np.ndarray]:
    """Masked squared error of sigmoid(raw_offset) - 0.5 against the GT offset.

    Background cells contribute nothing to value or gradient.
    """
    _object_field("offset_loss.pred", pred, PredictionBatch)
    _object_field("offset_loss.gt", gt, GridTensors)
    _array_field("offset_loss.gt", gt.offset, pred.raw_offset.shape, finite=False)
    mask = gt.confidence > 0.5
    s = sigmoid(pred.raw_offset)
    resid = (s - 0.5) - gt.offset
    value = float((mask * resid**2).sum())
    grad = np.where(mask, 2.0 * resid * s * (1.0 - s), 0.0)
    return value, grad


def height_loss(pred: PredictionBatch, gt: GridTensors) -> tuple[float, np.ndarray]:
    """Masked squared height error in meters; gradient w.r.t. pred.height."""
    _object_field("height_loss.pred", pred, PredictionBatch)
    _object_field("height_loss.gt", gt, GridTensors)
    _array_field("height_loss.gt", gt.height, pred.height.shape, finite=False)
    mask = gt.confidence > 0.5
    resid = pred.height - gt.height
    value = float((mask * resid**2).sum())
    grad = np.where(mask, 2.0 * resid, 0.0)
    return value, grad


def _sum_per_cluster(member: np.ndarray, values: np.ndarray, c_count: int) -> np.ndarray:
    """(C, D) sums of the (F, D) rows of `values` per cluster, added in row order."""
    d = values.shape[1]
    bins = (member[:, None] * d + np.arange(d)).ravel()
    return np.bincount(bins, weights=values.ravel(), minlength=c_count * d).reshape(c_count, d)


def _cluster_geometry(flat: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Group the (N, D) embeddings `flat` by their (N,) labels (> 0) in one pass.

    Returns, for C clusters and F labelled cells: the cells' (F,) flat
    indices, their (F,) cluster indices (in increasing label order), the
    (C,) member counts, the (F, D) offsets from each cell to its cluster
    mean and their (F,) lengths, and the (C, C, D) differences of the means
    (a minus b) and their (C, C) lengths.  The means are summed in cell
    order, as `mean(axis=0)` over each cluster's members sums them.
    """
    cells = np.flatnonzero(labels > 0)
    ids, member = np.unique(labels[cells], return_inverse=True)
    if len(ids) > _MAX_INSTANCES:
        raise TooManyInstances(f"{len(ids)} instance ids, at most {_MAX_INSTANCES} are supported")
    e = flat[cells]
    counts = np.bincount(member, minlength=len(ids))
    centers = _sum_per_cluster(member, e, len(ids)) / counts[:, None]
    offset = centers[member] - e
    delta = centers[:, None, :] - centers[None, :, :]
    return cells, member, counts, offset, np.sqrt((offset**2).sum(axis=1)), delta, np.sqrt((delta**2).sum(axis=2))


def embed_loss(embedding: np.ndarray, instance: np.ndarray) -> tuple[float, np.ndarray]:
    """Discriminative pull-push loss over instance clusters.

    pull = (1/C) sum_c (1/N_c) sum_i max(0, |mu_c - e_i| - DELTA_V)^2
    push = (1/(C(C-1))) sum_{a != b} max(0, 2 DELTA_D - |mu_a - mu_b|)^2

    C is the number of instances with label > 0; the gradient accounts for
    the dependence of each cluster mean on its members.  C <= 1 gives
    push = 0; C = 0 gives value 0.  Coincident centers (|mu_a - mu_b| = 0)
    count in the push value but give it no gradient.  Raises
    TooManyInstances when C exceeds 256, which bounds the C x C x D pair
    temporaries (about 12 MB at D = 8).
    """
    emb = _array_field("embed_loss.embedding", embedding, (None, None, None), finite=False)
    inst = _array_field("embed_loss.instance", instance, emb.shape[:2], finite=False, dtype=None)

    flat = emb.reshape(-1, emb.shape[2])
    cells, member, counts, offset, dist, delta, pair = _cluster_geometry(flat, inst.reshape(-1))
    c_count = len(counts)
    n = counts[member]
    h = np.maximum(0.0, dist - DELTA_V)
    value = float((np.bincount(member, weights=h**2, minlength=c_count) / counts).sum()) / max(c_count, 1)
    hg = np.zeros_like(offset)
    active = h > 0
    hg[active] = h[active, None] * (offset[active] / dist[active, None])
    hsum = _sum_per_cluster(member, hg, c_count)
    cell_grad = (2.0 / (c_count * n))[:, None] * (hsum[member] / n[:, None] - hg)

    # C(C-1) ordered pairs; C <= 1 has none
    norm = 1.0 / max(c_count * (c_count - 1), 1)
    m = 2.0 * DELTA_D - pair
    hinged = (m > 0.0) & ~np.eye(c_count, dtype=bool)
    value += norm * float((m[hinged] ** 2).sum())
    moving = hinged & (pair > 0.0)
    coef = np.zeros_like(m)
    coef[moving] = 2.0 * m[moving] / pair[moving]
    # d push / d mu_a = -2 sum_b (2 m_ab / |delta_ab|) delta_ab, both orders of each pair
    gmu = -2.0 * (coef[:, :, None] * delta).sum(axis=1)
    cell_grad += norm * gmu[member] / n[:, None]

    grad = np.zeros_like(flat)
    grad[cells] = cell_grad
    return value, grad.reshape(emb.shape)


def seg_loss_2d(raw_seg: np.ndarray, mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Front-view lane segmentation as pixelwise BCE; same contract as conf_loss."""
    return binary_cross_entropy(_numbers("seg_loss_2d.raw_seg", raw_seg), mask)


def total_loss(
    pred3d: PredictionBatch,
    gt3d: GridTensors,
    pred2d: FrontViewPrediction | None = None,
    gt2d: FrontViewTruth | None = None,
    weights: LossWeights = LossWeights(),
) -> float:
    """Weighted sum of the six loss terms.  Terms with weight 0 are skipped
    (so a zero-weight front-view pair may be omitted entirely)."""
    _object_field("total_loss.pred3d", pred3d, PredictionBatch)
    _object_field("total_loss.gt3d", gt3d, GridTensors)
    if pred2d is not None:
        _object_field("total_loss.pred2d", pred2d, FrontViewPrediction)
    if gt2d is not None:
        _object_field("total_loss.gt2d", gt2d, FrontViewTruth)
    _object_field("total_loss.weights", weights, LossWeights)
    if (weights.w_seg2d > 0 or weights.w_embed2d > 0) and (pred2d is None or gt2d is None):
        raise ShapeMismatch(f"total_loss.{'pred2d' if pred2d is None else 'gt2d'}: the 2D terms need a front-view pair")
    total = 0.0
    if weights.w_conf > 0:
        total += weights.w_conf * conf_loss(pred3d, gt3d)[0]
    if weights.w_offset > 0:
        total += weights.w_offset * offset_loss(pred3d, gt3d)[0]
    if weights.w_height > 0:
        total += weights.w_height * height_loss(pred3d, gt3d)[0]
    if weights.w_embed > 0:
        if gt3d.instance is None:
            raise ShapeMismatch("total_loss.gt3d: the embedding loss needs ground truth instances")
        total += weights.w_embed * embed_loss(pred3d.embedding, gt3d.instance)[0]
    if weights.w_seg2d > 0:
        total += weights.w_seg2d * seg_loss_2d(pred2d.raw_seg, gt2d.mask)[0]
    if weights.w_embed2d > 0:
        total += weights.w_embed2d * embed_loss(pred2d.embedding, gt2d.instance)[0]
    return float(total)


def finite_difference_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central finite differences, with step _FD_STEP, of a scalar function of an array."""
    x = np.array(_numbers("finite_difference_gradient.x", x), dtype=float)  # a C-order copy, perturbed in place
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + _FD_STEP
        fp = f(x)
        flat[i] = orig - _FD_STEP
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * _FD_STEP)
    return grad


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.abs(numeric).max()), 1e-8)
    return float(np.abs(analytic - numeric).max()) / scale


def _random_gt(rng: np.random.Generator, shape: tuple[int, int], n_inst: int) -> GridTensors:
    inst = rng.integers(0, n_inst + 1, size=shape)
    return GridTensors(
        confidence=(inst > 0).astype(float),
        offset=np.where(inst > 0, rng.uniform(-0.49, 0.49, size=shape), 0.0),
        height=np.where(inst > 0, rng.normal(scale=0.5, size=shape), 0.0),
        instance=inst,
    )


def _hinge_kink_near(emb, inst) -> bool:
    _, _, _, _, dist, _, pair = _cluster_geometry(emb.reshape(-1, emb.shape[2]), inst.reshape(-1))
    return bool(
        np.any(np.abs(dist - DELTA_V) < 1e-4)
        or np.any(np.abs(2.0 * DELTA_D - pair[~np.eye(len(pair), dtype=bool)]) < 1e-4)
    )


def run_gradient_suite(seed: int = 0, batches: int = 20) -> dict[str, float]:
    """Compare every analytic gradient against central finite differences
    on random _CHECK_SHAPE batches; returns the max relative error per loss.

    Each batch checks one table row per loss.  Embedding batches whose
    hinge arguments sit within 1e-4 of a kink are resampled, since the loss
    is not differentiable there.  At least one batch is required, since no
    batch would check nothing and still pass.
    """
    _scalar_field("run_gradient_suite.batches", batches, "at least 1", integer=True)
    rng = np.random.default_rng(seed)
    worst = {k: 0.0 for k in ("conf", "offset", "height", "embed", "seg2d")}

    for _ in range(batches):
        gt = _random_gt(rng, _CHECK_SHAPE, n_inst=3)
        pred = PredictionBatch(
            raw_confidence=rng.normal(size=_CHECK_SHAPE),
            raw_offset=rng.normal(size=_CHECK_SHAPE),
            embedding=rng.normal(size=_CHECK_SHAPE + (_EMBED_DIM,)),
            height=rng.normal(size=_CHECK_SHAPE),
        )
        emb = pred.embedding
        while _hinge_kink_near(emb, gt.instance):
            emb = rng.normal(size=_CHECK_SHAPE + (_EMBED_DIM,))
        seg_mask = (rng.random(size=_CHECK_SHAPE) < 0.3).astype(float)
        raw_seg = rng.normal(size=_CHECK_SHAPE)

        table = (
            ("conf", lambda a: binary_cross_entropy(a, gt.confidence), pred.raw_confidence),
            ("offset", lambda a: offset_loss(replace(pred, raw_offset=a), gt), pred.raw_offset),
            ("height", lambda a: height_loss(replace(pred, height=a), gt), pred.height),
            ("embed", lambda a: embed_loss(a, gt.instance), emb),
            ("seg2d", lambda a: seg_loss_2d(a, seg_mask), raw_seg),
        )
        for name, loss, x in table:
            fd = finite_difference_gradient(lambda a: loss(a)[0], x)
            worst[name] = max(worst[name], _rel_error(loss(x)[1], fd))

    return worst
