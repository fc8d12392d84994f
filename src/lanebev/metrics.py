"""Lane-level evaluation: F-Score and lateral/height errors near and far.

Lanes are resampled by linear interpolation at fixed forward positions
(default every 5 m from 3 m to 98 m).  Prediction/ground-truth pairs are
matched one-to-one by the Hungarian algorithm on the mean pointwise
lateral-vertical distance over co-valid samples; the (P, G) costs and the
per-pair co-valid masks come from one broadcast of the (P, N) prediction
samples against the (G, N) ground-truth samples.  A matched pair is a true
positive when at least `match_ratio` of the ground-truth lane's valid
samples lie within `match_threshold`.  Lateral ("x error") and height
("z error") statistics are means of absolute differences over the true
positives' co-valid samples, split at `near_limit` meters forward.

Frames aggregate micro-style: counts and error sums are added across
frames before ratios are formed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import product

import numpy as np

from .errors import EmptyInput
from .lane_grid import Lane3D

_INFEASIBLE = 1e12


@dataclass(frozen=True)
class EvalConfig:
    sample_xs: tuple[float, ...] = tuple(float(x) for x in range(3, 103, 5))
    match_threshold: float = 1.5
    match_ratio: float = 0.75
    near_limit: float = 40.0

    def __post_init__(self):
        xs = tuple(float(x) for x in self.sample_xs)
        if not xs or not all(a < b for a, b in zip(xs, xs[1:])):
            raise ValueError(f"sample_xs must be non-empty and strictly ascending, got {xs}")
        if not 0.0 < self.match_ratio <= 1.0:
            raise ValueError(f"match_ratio must be in (0, 1], got {self.match_ratio}")
        if not self.match_threshold > 0:
            raise ValueError(f"match_threshold must be positive, got {self.match_threshold}")
        if not np.isfinite(self.near_limit):
            raise ValueError(f"near_limit must be finite, got {self.near_limit}")
        object.__setattr__(self, "sample_xs", xs)


@dataclass
class MatchedPair:
    pred_index: int
    gt_index: int
    cost: float
    is_tp: bool
    # per-sample arrays over cfg.sample_xs
    covalid: np.ndarray
    y_diff: np.ndarray
    z_diff: np.ndarray


@dataclass
class Matching:
    pairs: list[MatchedPair]
    n_pred: int
    n_gt: int

    @property
    def tp(self) -> int:
        return sum(1 for p in self.pairs if p.is_tp)


@dataclass
class EvalResult:
    f_score: float
    precision: float
    recall: float
    x_err_near: float | None
    x_err_far: float | None
    z_err_near: float | None
    z_err_far: float | None
    tp: int = 0
    n_pred: int = 0
    n_gt: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def resample_lane(lane: Lane3D, xs) -> tuple[np.ndarray, np.ndarray]:
    """Linear interpolation of (x, y, z) at the given abscissae.

    Returns (points (N, 3), valid (N,)); samples outside the lane's x-span
    are flagged invalid (their y, z values are extrapolation artifacts and
    must not be used).
    """
    xs = np.asarray(xs, dtype=float)
    valid = (xs >= lane.x[0]) & (xs <= lane.x[-1])
    y = np.interp(xs, lane.x, lane.y)
    z = np.interp(xs, lane.x, lane.z)
    return np.column_stack([xs, y, z]), valid


def _resample_all(lanes: list[Lane3D], xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """resample_lane of every lane, stacked: points (L, N, 3) and valid (L, N)."""
    points = np.zeros((len(lanes), len(xs), 3))
    valid = np.zeros((len(lanes), len(xs)), dtype=bool)
    for k, lane in enumerate(lanes):
        points[k], valid[k] = resample_lane(lane, xs)
    return points, valid


def match_lanes(preds: list[Lane3D], gts: list[Lane3D], cfg: EvalConfig = EvalConfig()) -> Matching:
    """Optimal one-to-one assignment of predictions to ground truth.

    Pair cost is the mean over co-valid samples of the Euclidean distance
    in the lateral-vertical (y, z) plane; pairs with no co-valid samples
    are infeasible and never become true positives.
    """
    xs = np.asarray(cfg.sample_xs)
    pred_pts, pred_valid = _resample_all(preds, xs)
    gt_pts, gt_valid = _resample_all(gts, xs)
    both = pred_valid[:, None] & gt_valid[None]  # (P, G, N)
    diff = pred_pts[:, None] - gt_pts[None]  # (P, G, N, 3); the x column is 0
    d = np.sqrt(diff[..., 1] ** 2 + diff[..., 2] ** 2)
    n_both = both.sum(axis=2)
    cost = np.full(n_both.shape, _INFEASIBLE)
    np.divide(np.where(both, d, 0.0).sum(axis=2), n_both, out=cost, where=n_both > 0)

    from scipy.optimize import linear_sum_assignment  # about 0.4 s to import; only matching needs it

    rows, cols = linear_sum_assignment(cost)
    keep = cost[rows, cols] < _INFEASIBLE
    rows, cols = rows[keep], cols[keep]
    n_close = ((d[rows, cols] <= cfg.match_threshold) & both[rows, cols]).sum(axis=1)
    is_tp = n_close / gt_valid[cols].sum(axis=1) >= cfg.match_ratio
    pairs = [
        MatchedPair(
            pred_index=i,
            gt_index=j,
            cost=cost[i, j],
            is_tp=tp,
            covalid=both[i, j],
            y_diff=np.abs(diff[i, j, :, 1]),
            z_diff=np.abs(diff[i, j, :, 2]),
        )
        for i, j, tp in zip(rows, cols, is_tp.tolist())
    ]
    return Matching(pairs=pairs, n_pred=len(preds), n_gt=len(gts))


def evaluate(preds: list[Lane3D], gts: list[Lane3D], cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Single-frame evaluation; see module docstring for the protocol."""
    return evaluate_frames([(preds, gts)], cfg)


def evaluate_frames(
    frames: list[tuple[list[Lane3D], list[Lane3D]]],
    cfg: EvalConfig = EvalConfig(),
) -> EvalResult:
    """Micro-averaged evaluation over (preds, gts) frames: true-positive,
    prediction and ground-truth counts and the error sums per distance
    bucket are summed before the ratios are formed.  Raises EmptyInput when
    there are no frames; one frame with no lanes on either side scores 1."""
    if not frames:
        raise EmptyInput("evaluate_frames needs at least one frame")
    near = np.asarray(cfg.sample_xs) <= cfg.near_limit
    tp = n_pred = n_gt = 0
    sums = np.zeros(4)  # x near, x far, z near, z far
    counts = np.zeros(4, dtype=int)
    for preds, gts in frames:
        matching = match_lanes(preds, gts, cfg)
        tp += matching.tp
        n_pred += matching.n_pred
        n_gt += matching.n_gt
        for pair in matching.pairs:
            if not pair.is_tp:
                continue
            masks = (pair.covalid & near, pair.covalid & ~near)
            for k, (diff, mask) in enumerate(product((pair.y_diff, pair.z_diff), masks)):
                sums[k] += diff[mask].sum()
                counts[k] += int(mask.sum())

    if n_pred == 0 and n_gt == 0:
        precision = recall = 1.0
    else:
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_gt if n_gt else 0.0
    f = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    errs = [float(s / c) if c else None for s, c in zip(sums, counts)]
    return EvalResult(
        f_score=f,
        precision=precision,
        recall=recall,
        x_err_near=errs[0],
        x_err_far=errs[1],
        z_err_near=errs[2],
        z_err_far=errs[3],
        tp=tp,
        n_pred=n_pred,
        n_gt=n_gt,
    )
