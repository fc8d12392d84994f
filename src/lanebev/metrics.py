"""Lane-level evaluation: F-Score and lateral/height errors near and far.

Lanes are resampled by linear interpolation at fixed forward positions
(default every 5 m from 3 m to 98 m).  Prediction/ground-truth pairs are
matched one-to-one by the Hungarian algorithm on the mean pointwise
lateral-vertical distance over co-valid samples.  A matched pair is a true
positive when at least `match_ratio` of the ground-truth lane's valid
samples lie within `match_threshold`.  Lateral ("x error") and height
("z error") statistics are means of absolute differences over the true
positives' co-valid samples, split at `near_limit` meters forward.

Frames aggregate micro-style: counts and error sums are added across
frames before ratios are formed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .lane_grid import Lane3D

_INFEASIBLE = 1e12


@dataclass(frozen=True)
class EvalConfig:
    sample_xs: tuple[float, ...] = tuple(float(x) for x in range(3, 103, 5))
    match_threshold: float = 1.5
    match_ratio: float = 0.75
    near_limit: float = 40.0

    def __post_init__(self):
        if list(self.sample_xs) != sorted(self.sample_xs):
            raise ValueError("sample_xs must be sorted ascending")
        if not 0.0 < self.match_ratio <= 1.0:
            raise ValueError(f"match_ratio must be in (0, 1], got {self.match_ratio}")
        if self.match_threshold <= 0:
            raise ValueError(f"match_threshold must be positive, got {self.match_threshold}")
        object.__setattr__(self, "sample_xs", tuple(float(x) for x in self.sample_xs))


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


def match_lanes(preds: list[Lane3D], gts: list[Lane3D], cfg: EvalConfig = EvalConfig()) -> Matching:
    """Optimal one-to-one assignment of predictions to ground truth.

    Pair cost is the mean over co-valid samples of the Euclidean distance
    in the lateral-vertical (y, z) plane; pairs with no co-valid samples
    are infeasible and never become true positives.
    """
    xs = np.asarray(cfg.sample_xs)
    rp = [resample_lane(lane, xs) for lane in preds]
    rg = [resample_lane(lane, xs) for lane in gts]

    cost = np.full((len(preds), len(gts)), _INFEASIBLE)
    dists = {}
    for i, (pp, pv) in enumerate(rp):
        for j, (gp, gv) in enumerate(rg):
            both = pv & gv
            d = np.sqrt((pp[:, 1] - gp[:, 1]) ** 2 + (pp[:, 2] - gp[:, 2]) ** 2)
            dists[i, j] = (both, d)
            if both.any():
                cost[i, j] = float(d[both].mean())

    pairs = []
    if len(preds) and len(gts):
        rows, cols = linear_sum_assignment(cost)
        for i, j in zip(rows, cols):
            if cost[i, j] >= _INFEASIBLE:
                continue
            both, d = dists[i, j]
            gt_valid = rg[j][1]
            n_close = int(((d <= cfg.match_threshold) & both).sum())
            is_tp = gt_valid.any() and n_close / int(gt_valid.sum()) >= cfg.match_ratio
            pp, gp = rp[i][0], rg[j][0]
            pairs.append(
                MatchedPair(
                    pred_index=i,
                    gt_index=j,
                    cost=cost[i, j],
                    is_tp=is_tp,
                    covalid=both,
                    y_diff=np.abs(pp[:, 1] - gp[:, 1]),
                    z_diff=np.abs(pp[:, 2] - gp[:, 2]),
                )
            )
    return Matching(pairs=pairs, n_pred=len(preds), n_gt=len(gts))


@dataclass
class _ErrorSums:
    """Micro-aggregation state: counts plus error sums per distance bucket."""

    tp: int = 0
    n_pred: int = 0
    n_gt: int = 0
    sums: np.ndarray = field(default_factory=lambda: np.zeros(4))  # xn, xf, zn, zf
    counts: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=int))

    def add_matching(self, matching: Matching, cfg: EvalConfig):
        xs = np.asarray(cfg.sample_xs)
        near = xs <= cfg.near_limit
        self.tp += matching.tp
        self.n_pred += matching.n_pred
        self.n_gt += matching.n_gt
        for pair in matching.pairs:
            if not pair.is_tp:
                continue
            for k, (diff, mask) in enumerate(
                (
                    (pair.y_diff, pair.covalid & near),
                    (pair.y_diff, pair.covalid & ~near),
                    (pair.z_diff, pair.covalid & near),
                    (pair.z_diff, pair.covalid & ~near),
                )
            ):
                self.sums[k] += diff[mask].sum()
                self.counts[k] += int(mask.sum())

    def result(self) -> EvalResult:
        if self.n_pred == 0 and self.n_gt == 0:
            precision = recall = 1.0
        else:
            precision = self.tp / self.n_pred if self.n_pred else 0.0
            recall = self.tp / self.n_gt if self.n_gt else 0.0
        f = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        errs = [float(s / c) if c else None for s, c in zip(self.sums, self.counts)]
        return EvalResult(
            f_score=f,
            precision=precision,
            recall=recall,
            x_err_near=errs[0],
            x_err_far=errs[1],
            z_err_near=errs[2],
            z_err_far=errs[3],
            tp=self.tp,
            n_pred=self.n_pred,
            n_gt=self.n_gt,
        )


def evaluate(preds: list[Lane3D], gts: list[Lane3D], cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Single-frame evaluation; see module docstring for the protocol."""
    return evaluate_frames([(preds, gts)], cfg)


def evaluate_frames(
    frames: list[tuple[list[Lane3D], list[Lane3D]]],
    cfg: EvalConfig = EvalConfig(),
) -> EvalResult:
    """Micro-averaged evaluation over (preds, gts) frames: true-positive,
    prediction and ground-truth counts are summed before computing ratios."""
    sums = _ErrorSums()
    for preds, gts in frames:
        sums.add_matching(match_lanes(preds, gts, cfg), cfg)
    return sums.result()
