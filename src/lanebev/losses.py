"""Reference numerics for the training losses, with analytic gradients.

The 3D head losses over the s1 x s2 grid:

  - confidence: binary cross-entropy on sigmoid(raw) against {0, 1} targets
  - offset: masked squared error of (sigmoid(raw) - 0.5) against the
    ground-truth lateral offset in [-0.5, 0.5)
  - embedding: pull-push discriminative loss with squared hinges
  - height: masked squared error in meters

plus the front-view auxiliaries: pixelwise segmentation BCE and the same
discriminative loss on 2D embeddings.  Offset and height only count cells
with a positive ground-truth confidence.  All reductions run in a fixed
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

from .errors import NonFiniteInput, ShapeMismatch, TooManyInstances
from .lane_grid import GridTensors

_P_CLAMP = 1e-7
_EMBED_DIM = 4  # embedding width of the gradient self-check batches
# Most distinct instance ids embed_loss takes: its pair terms hold C x C x D
# arrays, and a lane grid holds a handful of instances.
_MAX_INSTANCES = 256


@dataclass
class PredictionBatch:
    """Raw (pre-activation) head outputs aligned with one grid.

    Raises ShapeMismatch when the shapes disagree, and NonFiniteInput,
    naming the field, when a tensor holds NaN or infinity.
    """

    raw_confidence: np.ndarray
    raw_offset: np.ndarray
    embedding: np.ndarray
    height: np.ndarray

    def __post_init__(self):
        self.raw_confidence = np.asarray(self.raw_confidence, dtype=float)
        self.raw_offset = np.asarray(self.raw_offset, dtype=float)
        self.embedding = np.asarray(self.embedding, dtype=float)
        self.height = np.asarray(self.height, dtype=float)
        s = self.raw_confidence.shape
        if self.raw_confidence.ndim != 2:
            raise ShapeMismatch(f"raw_confidence must be 2-D, got {s}")
        if self.raw_offset.shape != s or self.height.shape != s:
            raise ShapeMismatch("raw_offset and height must match raw_confidence")
        if self.embedding.ndim != 3 or self.embedding.shape[:2] != s:
            raise ShapeMismatch(f"embedding must be (s1, s2, D), got {self.embedding.shape}")
        _require_finite(self, ("raw_confidence", "raw_offset", "embedding", "height"))

    def activate(self) -> GridTensors:
        """Apply the head activations, yielding decodable grid tensors."""
        return GridTensors(
            confidence=sigmoid(self.raw_confidence),
            offset=sigmoid(self.raw_offset) - 0.5,
            height=self.height.copy(),
            embedding=self.embedding.copy(),
        )


@dataclass(frozen=True)
class LossWeights:
    """Weights of the six total-loss terms; all default to 1."""

    w_conf: float = 1.0
    w_embed: float = 1.0
    w_offset: float = 1.0
    w_height: float = 1.0
    w_seg2d: float = 1.0
    w_embed2d: float = 1.0

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")


@dataclass(frozen=True)
class EmbedMargins:
    """Hinge margins of the discriminative embedding loss."""

    delta_v: float = 0.5
    delta_d: float = 3.0

    def __post_init__(self):
        if not (self.delta_d > self.delta_v > 0):
            raise ValueError(f"need delta_d > delta_v > 0, got {self.delta_v}, {self.delta_d}")


@dataclass
class FrontViewPrediction:
    """Front-view auxiliary head output: (H, W) segmentation logits and
    (H, W, D) embeddings.

    Raises ShapeMismatch when the shapes disagree, and NonFiniteInput,
    naming the field, when a tensor holds NaN or infinity.
    """

    raw_seg: np.ndarray
    embedding: np.ndarray

    def __post_init__(self):
        self.raw_seg = np.asarray(self.raw_seg, dtype=float)
        self.embedding = np.asarray(self.embedding, dtype=float)
        if self.raw_seg.ndim != 2:
            raise ShapeMismatch(f"raw_seg must be 2-D, got {self.raw_seg.shape}")
        if self.embedding.ndim != 3 or self.embedding.shape[:2] != self.raw_seg.shape:
            raise ShapeMismatch(f"embedding must be (H, W, D) over raw_seg {self.raw_seg.shape}, got {self.embedding.shape}")
        _require_finite(self, ("raw_seg", "embedding"))


@dataclass
class FrontViewTruth:
    """Front-view supervision: (H, W) {0,1} lane mask and instance labels.

    Raises ShapeMismatch when the shapes disagree, and NonFiniteInput,
    naming the field, when a tensor holds NaN or infinity.
    """

    mask: np.ndarray
    instance: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=float)
        self.instance = np.asarray(self.instance)
        if self.mask.ndim != 2:
            raise ShapeMismatch(f"mask must be 2-D, got {self.mask.shape}")
        if self.instance.shape != self.mask.shape:
            raise ShapeMismatch(f"instance {self.instance.shape} vs mask {self.mask.shape}")
        _require_finite(self, ("mask", "instance"))


def _require_finite(tensors, names: tuple[str, ...]):
    """Raise NonFiniteInput naming the first of the named fields of tensors
    that holds NaN or infinity."""
    for name in names:
        if not np.isfinite(getattr(tensors, name)).all():
            raise NonFiniteInput(f"{name} holds NaN or infinite values")


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str):
    if a.shape != b.shape:
        raise ShapeMismatch(f"{what}: {a.shape} vs {b.shape}")


def _object_mask(gt: GridTensors) -> np.ndarray:
    if gt.instance is not None:
        return gt.instance > 0
    return gt.confidence > 0.5


def binary_cross_entropy(raw: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed BCE of sigmoid(raw) against targets, probabilities clamped to
    [1e-7, 1 - 1e-7]; gradient is w.r.t. raw and is 0 where the clamp is active."""
    raw = np.asarray(raw, dtype=float)
    target = np.asarray(target, dtype=float)
    _check_same_shape(raw, target, "logits vs targets")
    p = sigmoid(raw)
    pc = np.clip(p, _P_CLAMP, 1.0 - _P_CLAMP)
    value = -(target * np.log(pc) + (1.0 - target) * np.log(1.0 - pc)).sum()
    grad = np.where((p > _P_CLAMP) & (p < 1.0 - _P_CLAMP), p - target, 0.0)
    return float(value), grad


def conf_loss(pred: PredictionBatch, gt: GridTensors) -> tuple[float, np.ndarray]:
    """Confidence BCE over all cells; gradient w.r.t. raw_confidence."""
    _check_same_shape(pred.raw_confidence, gt.confidence, "confidence")
    return binary_cross_entropy(pred.raw_confidence, gt.confidence)


def offset_loss(pred: PredictionBatch, gt: GridTensors) -> tuple[float, np.ndarray]:
    """Masked squared error of sigmoid(raw_offset) - 0.5 against the GT offset.

    Background cells contribute nothing to value or gradient.
    """
    _check_same_shape(pred.raw_offset, gt.offset, "offset")
    mask = _object_mask(gt)
    s = sigmoid(pred.raw_offset)
    resid = (s - 0.5) - gt.offset
    value = float((mask * resid**2).sum())
    grad = np.where(mask, 2.0 * resid * s * (1.0 - s), 0.0)
    return value, grad


def height_loss(pred: PredictionBatch, gt: GridTensors) -> tuple[float, np.ndarray]:
    """Masked squared height error in meters; gradient w.r.t. pred.height."""
    _check_same_shape(pred.height, gt.height, "height")
    mask = _object_mask(gt)
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


def embed_loss(
    embedding: np.ndarray,
    instance: np.ndarray,
    margins: EmbedMargins = EmbedMargins(),
) -> tuple[float, np.ndarray]:
    """Discriminative pull-push loss over instance clusters.

    pull = (1/C) sum_c (1/N_c) sum_i max(0, |mu_c - e_i| - delta_v)^2
    push = (1/(C(C-1))) sum_{a != b} max(0, 2 delta_d - |mu_a - mu_b|)^2

    C is the number of instances with label > 0; the gradient accounts for
    the dependence of each cluster mean on its members.  C <= 1 gives
    push = 0; C = 0 gives value 0.  Coincident centers (|mu_a - mu_b| = 0)
    count in the push value but give it no gradient.  Raises
    TooManyInstances when C exceeds 256, which bounds the C x C x D pair
    temporaries (about 12 MB at D = 8).
    """
    emb = np.asarray(embedding, dtype=float)
    inst = np.asarray(instance)
    if emb.ndim != 3 or emb.shape[:2] != inst.shape:
        raise ShapeMismatch(f"embedding {emb.shape} vs instance {inst.shape}")

    flat = emb.reshape(-1, emb.shape[2])
    cells, member, counts, offset, dist, delta, pair = _cluster_geometry(flat, inst.reshape(-1))
    c_count = len(counts)
    n = counts[member]
    h = np.maximum(0.0, dist - margins.delta_v)
    value = float((np.bincount(member, weights=h**2, minlength=c_count) / counts).sum()) / max(c_count, 1)
    hg = np.zeros_like(offset)
    active = h > 0
    hg[active] = h[active, None] * (offset[active] / dist[active, None])
    hsum = _sum_per_cluster(member, hg, c_count)
    cell_grad = (2.0 / (c_count * n))[:, None] * (hsum[member] / n[:, None] - hg)

    # C(C-1) ordered pairs; C <= 1 has none
    norm = 1.0 / max(c_count * (c_count - 1), 1)
    m = 2.0 * margins.delta_d - pair
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
    return binary_cross_entropy(raw_seg, mask)


def total_loss(
    pred3d: PredictionBatch,
    gt3d: GridTensors,
    pred2d: FrontViewPrediction | None = None,
    gt2d: FrontViewTruth | None = None,
    weights: LossWeights = LossWeights(),
    margins: EmbedMargins = EmbedMargins(),
) -> float:
    """Weighted sum of the six loss terms.  Terms with weight 0 are skipped
    (so a zero-weight front-view pair may be omitted entirely)."""
    total = 0.0
    if weights.w_conf > 0:
        total += weights.w_conf * conf_loss(pred3d, gt3d)[0]
    if weights.w_offset > 0:
        total += weights.w_offset * offset_loss(pred3d, gt3d)[0]
    if weights.w_height > 0:
        total += weights.w_height * height_loss(pred3d, gt3d)[0]
    if weights.w_embed > 0:
        if gt3d.instance is None:
            raise ShapeMismatch("embedding loss needs ground truth instances")
        total += weights.w_embed * embed_loss(pred3d.embedding, gt3d.instance, margins)[0]
    if weights.w_seg2d > 0:
        if pred2d is None or gt2d is None:
            raise ShapeMismatch("2D segmentation loss needs a front-view pair")
        total += weights.w_seg2d * seg_loss_2d(pred2d.raw_seg, gt2d.mask)[0]
    if weights.w_embed2d > 0:
        if pred2d is None or gt2d is None:
            raise ShapeMismatch("2D embedding loss needs a front-view pair")
        total += weights.w_embed2d * embed_loss(pred2d.embedding, gt2d.instance, margins)[0]
    return float(total)


def finite_difference_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    x = np.array(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
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


def _hinge_kink_near(emb, inst, margins, tol=1e-4) -> bool:
    _, _, _, _, dist, _, pair = _cluster_geometry(emb.reshape(-1, emb.shape[2]), inst.reshape(-1))
    return bool(
        np.any(np.abs(dist - margins.delta_v) < tol)
        or np.any(np.abs(2.0 * margins.delta_d - pair[~np.eye(len(pair), dtype=bool)]) < tol)
    )


def run_gradient_suite(seed: int = 0, batches: int = 20, shape: tuple[int, int] = (10, 8)) -> dict[str, float]:
    """Compare every analytic gradient against central finite differences
    on random batches; returns the max relative error per loss.

    Each batch checks one table row per loss.  Embedding batches whose
    hinge arguments sit within 1e-4 of a kink are resampled, since the loss
    is not differentiable there.  At least one batch is required, since no
    batch would check nothing and still pass.
    """
    if batches < 1:
        raise ValueError(f"batches must be at least 1, got {batches}")
    rng = np.random.default_rng(seed)
    margins = EmbedMargins()
    worst = {k: 0.0 for k in ("conf", "offset", "height", "embed", "seg2d")}

    for _ in range(batches):
        gt = _random_gt(rng, shape, n_inst=3)
        pred = PredictionBatch(
            raw_confidence=rng.normal(size=shape),
            raw_offset=rng.normal(size=shape),
            embedding=rng.normal(size=shape + (_EMBED_DIM,)),
            height=rng.normal(size=shape),
        )
        emb = pred.embedding
        while _hinge_kink_near(emb, gt.instance, margins):
            emb = rng.normal(size=shape + (_EMBED_DIM,))
        seg_mask = (rng.random(size=shape) < 0.3).astype(float)
        raw_seg = rng.normal(size=shape)

        table = (
            ("conf", lambda a: binary_cross_entropy(a, gt.confidence), pred.raw_confidence),
            ("offset", lambda a: offset_loss(replace(pred, raw_offset=a), gt), pred.raw_offset),
            ("height", lambda a: height_loss(replace(pred, height=a), gt), pred.height),
            ("embed", lambda a: embed_loss(a, gt.instance, margins), emb),
            ("seg2d", lambda a: seg_loss_2d(a, seg_mask), raw_seg),
        )
        for name, loss, x in table:
            fd = finite_difference_gradient(lambda a: loss(a)[0], x)
            worst[name] = max(worst[name], _rel_error(loss(x)[1], fd))

    return worst
