"""Grid decoding: confidence gating, online embedding clustering, curve fits.

The decode scan order is fixed: outer loop over grid columns, inner over
rows.  Each confident cell is assigned to the nearest existing cluster
center by Euclidean embedding distance when that distance is below d_gap
(strictly, ties keep the earlier center), updating the center by running
mean; otherwise it opens a new center.  Points are never reassigned once
clustered, so results depend on the documented scan order and are
bit-reproducible.

The scan runs in numpy on blocks of cells.  A block whose cells all lie
well inside d_gap of their nearest centers is certain at once, because
no center can move farther than the farthest cell that joins it.  Any
other block is decided tentatively against the centers as they stood at
its start, then again against the running centers those decisions give;
the prefix where both agree is accepted, and so is the first cell where
they differ, since its running centers are exact.  A decision counts only
where a rounding bound makes it certain; a cell whose decision is that
close goes through the published per-cell step on the exact running
means.  Assignments and cluster sizes are therefore those of the
published scan on every input; embeddings of confident cells must be
finite.

Retained cells are converted to road-frame coordinates using the lateral
offset and the height channel, and small clusters are dropped.  A decoded
lane holds one key point per grid row: where a cluster has several cells
in one row, the first in scan order (the lowest column) is kept, by the
same-x rule of lane_grid.Lane3D.  decode_lanes turns the clusters into
lanes, dropping any cluster whose cells span fewer than 2 rows.  Every fit
is made from a Lane3D: y(x) and z(x) through its points, sorted on x, on
abscissae rescaled to [-1, 1], in one joint least-squares solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, NonFiniteInput, ShapeMismatch
from .errors import _checked, _Declared, _field
from .lane_grid import GridSpec, GridTensors, Lane3D

_UNIT_ROUNDOFF = 2.0**-53
_MIN_BLOCK, _MAX_BLOCK = 4, 1024  # cells decided per numpy block
_MAX_BLOCK_FLOATS = 2**18  # cap on block cells * centers (or columns) * dim, i.e. on the block's memory


@dataclass(frozen=True)
class DecodeParams(_Declared):
    s_threshold: float = _field(0.5, "in (0, 1)")
    d_gap: float = _field(1.5, "positive")
    min_points: int = _field(4, "at least 2")
    fit_degree: int = _field(3, "at least 1")


@dataclass
class LaneInstance(_Declared):
    """One decoded lane: cluster id and at least one finite road-frame (x, y, z) point."""

    cluster_id: int = _field(bounds="non-negative")
    points: np.ndarray = _field(shape=(None, 3))

    def __post_init__(self):
        super().__post_init__()
        if len(self.points) == 0:
            raise InvalidValue(f"LaneInstance.points: cluster {self.cluster_id} needs at least one point")


@dataclass
class FittedLane(_Declared):
    """Polynomials for y(x) and z(x) on the rescaled abscissa t in [-1, 1].

    Coefficients are in increasing-power order of t = (2x - (a + b)) / (b - a)
    where (a, b) = x_range, two distinct ends.  The values may be NaN or
    infinite, as y and z then are: lanes_to_dict refuses them.
    """

    y_coeffs: np.ndarray = _field(shape=(None,), finite=False)
    z_coeffs: np.ndarray = _field(shape=(None,), finite=False)
    x_range: tuple[float, float] = _field(finite=False)

    def __post_init__(self):
        super().__post_init__()
        if self.x_range[0] == self.x_range[1]:
            raise InvalidValue(f"FittedLane.x_range: ends must differ, got {self.x_range}")

    def _at(self, x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        a, b = self.x_range
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.polynomial.polynomial.polyval((2.0 * x.astype(float, copy=False) - (a + b)) / (b - a), coeffs)

    @_checked
    def y(self, x: np.ndarray) -> np.ndarray:
        return self._at(x, self.y_coeffs)

    @_checked
    def z(self, x: np.ndarray) -> np.ndarray:
        return self._at(x, self.z_coeffs)


def _rounding_bound(vals: np.ndarray) -> float:
    """Bound on the rounding gaps between the block distances and the published ones.

    It covers four gaps: the block's own distance rounding, the sum/count
    centers against the real means, the published running means against
    the real means, and the published distance rounding.  Each is at most
    about (n + dim) roundings of sqrt(dim) * max|vals|; the factor 8 leaves
    room for the arithmetic on the bounds, and 1e-150 covers underflow.
    Valid for finite values.
    """
    n, dim = vals.shape
    scale = float(np.abs(vals).max(initial=0.0)) * math.sqrt(dim)
    return 8.0 * _UNIT_ROUNDOFF * scale * (n + dim + 4) + 1e-150


def _decide_block(blk, sums, k, d_gap, eta):
    """Decide a block of cells, in scan order, against their running centers.

    `blk` holds the cells as (value, 1) rows and `sums` each center's member
    sum and count; k centers exist at the block's start.  When every cell
    lies well inside d_gap of its nearest center, the whole block is
    certain at once: no center moves farther than the farthest cell that
    joins it.  Otherwise each cell is first decided tentatively against the
    k centers as they stood at the start: its nearest center, or, when none
    is within d_gap, a new center, shared with the tentative opener before
    it when the two are within d_gap, so a new lane's cells share one
    column.  One cumsum over those decisions gives every cell the running
    centers of the columns the block touches, and each cell is decided
    again against them, opening a center counting as one more center at
    distance d_gap.  A decision is certain when the rounding bound
    separates the winner from every other choice.  While the decisions
    before a cell are right its running centers are exact, so the prefix
    where both decisions agree is decided, and so is the first cell where
    they differ, unless its decision is not certain.

    Returns (q, tcol, cols, upto, last): the first q cells join tcol[:q]
    (new centers numbered from k in creation order), and `upto` holds the
    sums and counts of the columns `cols` after them.  `last` is None when
    q is the whole block, else cell q's decision: a center, -1 to open one,
    or -2 when only the published step can decide it.
    """
    dim = blk.shape[1] - 1
    b = len(blk)
    rows = np.arange(b)
    diff = blk[:, None, :dim] - sums[None, :k, :dim] / sums[:k, dim:]
    dist = np.sqrt(np.einsum("bkd,bkd->bk", diff, diff))
    if k:
        tcol = dist.argmin(axis=1)
        near = dist[rows, tcol]
        reach = float(near.max()) + eta  # no center moves farther inside the block
        if 2.0 * reach < d_gap:  # nothing opens, and the whole block may be certain
            dist[rows, tcol] = np.inf
            if (near + reach + eta < dist[rows, dist.argmin(axis=1)] - reach - eta).all():
                return b, tcol, np.arange(k), sums[:k] + (tcol[:, None] == np.arange(k)).T @ blk, None
            dist[rows, tcol] = near
        opener = (near >= d_gap).nonzero()[0]
    else:
        tcol = np.zeros(b, dtype=np.int64)
        opener = rows
    expected = tcol.copy()  # the tentative decisions, with `width` for a cell that opens
    width = k
    if len(opener):
        w = blk[opener, :dim]
        step = w[1:] - w[:-1]
        first = np.ones(len(opener), dtype=bool)
        first[1:] = np.einsum("od,od->o", step, step) >= d_gap * d_gap
        new = first.cumsum()
        width = k + int(new[-1])
        expected[opener] = tcol[opener] = k - 1 + new
        expected[opener[first]] = width
    cols = np.bincount(tcol, minlength=width).nonzero()[0]
    if b * len(cols) * (dim + 1) > _MAX_BLOCK_FLOATS:
        b = max(1, _MAX_BLOCK_FLOATS // (len(cols) * (dim + 1)))
        blk, dist, tcol, expected, rows = blk[:b], dist[:b], tcol[:b], expected[:b], rows[:b]
        cols = np.bincount(tcol, minlength=width).nonzero()[0]
    # run[i]: sums and counts of the touched columns before cell i
    run = np.zeros((b + 1, len(cols), dim + 1))
    run[0] = sums[cols]
    run[rows + 1, cols.searchsorted(tcol)] = blk
    np.cumsum(run, axis=0, out=run)
    count = run[:-1, :, dim]
    diff = run[:-1, :, :dim] / np.maximum(count, 1.0)[:, :, None]
    diff -= blk[:, None, :dim]
    moved = np.sqrt(np.einsum("bcd,bcd->bc", diff, diff))
    moved[count == 0] = np.inf  # a new column before its first cell
    d = np.full((b, width + 1), np.inf)  # a cut block may not reach every new column
    d[:, :k] = dist
    d[:, cols] = moved
    d[:, width] = d_gap
    win = d.argmin(axis=1)
    near = d[rows, win]
    d[rows, win] = np.inf
    certain = near + eta < d[rows, d.argmin(axis=1)] - eta
    agree = certain & (win == expected)
    if agree.all():
        return b, tcol, cols, run[b], None
    q = int(agree.argmin())
    last = -2 if not certain[q] else -1 if win[q] == width else int(win[q])
    return q, tcol, cols, run[q], last


def _fold(vals, assign, exact, folded, start, stop):
    """Bring the exact centers up to date with cells start..stop-1, in scan order."""
    for i in range(start, stop):
        c = assign[i]
        num = folded[c]
        exact[c] = (exact[c] * num + vals[i]) / (num + 1) if num else vals[i]
        folded[c] = num + 1


def _exact_step(value, exact, d_gap):
    """The published per-cell decision against the exact centers `exact`.

    Sequential sum of squared differences, sqrt, the earlier center on a
    tie; returns the winning center, or -1 when none is closer than d_gap.
    """
    s = np.zeros(len(exact))
    for t in range(len(value)):
        dt = exact[:, t] - value[t]
        s += dt * dt
    diff = np.sqrt(s)
    best = int(diff.argmin())
    return best if diff[best] < d_gap else -1


def _cluster_scan(vals: np.ndarray, d_gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Online nearest-center clustering with exactly the published result.

    The published scan visits the values in order: the nearest existing
    center wins if strictly closer than d_gap (ties keep the earlier center)
    and moves to the running mean of its members; otherwise the value opens
    a new center.  Here blocks of values are decided at once in numpy (see
    _decide_block), centers kept as a sum and a count.  A block whose values
    all sit well inside d_gap of their nearest centers is certain at once;
    any other block decides its values tentatively against the centers as
    they stood at its start, then again against the running centers those
    decisions give, and accepts the prefix where both agree plus the first
    value where they differ.  A decision is accepted only when the rounding
    bound makes it certain; a value whose decision is that close goes
    through the published per-cell step against the exact running means,
    which are kept up to date incrementally.  Each block decides at least
    one value, holds at most twice the previous block's progress and keeps
    its tensors under _MAX_BLOCK_FLOATS, so the work is
    O(n * (k + _MAX_BLOCK) * dim) for k centers.  Values must be finite.
    Returns (assign, counts): each value's center and each center's size,
    centers numbered in creation order.
    """
    n, dim = vals.shape
    cells = np.ones((n, dim + 1))  # each value, then a 1 for the count
    cells[:, :dim] = vals
    assign = np.empty(n, dtype=np.int64)
    sums = np.zeros((n, dim + 1))  # per center: the sum of its members, then their count
    exact = np.empty((n, dim))  # published running means, up to date with cells < synced
    folded = np.zeros(n, dtype=np.int64)
    eta = _rounding_bound(vals)
    k = pos = synced = 0
    block = _MIN_BLOCK
    while pos < n:
        q, tcol, cols, upto, last = _decide_block(cells[pos : pos + block], sums, k, d_gap, eta)
        assign[pos : pos + q] = tcol[:q]
        sums[cols] = upto
        k = max(k, int(tcol[:q].max(initial=-1)) + 1)
        pos += q
        if last is not None:
            if last == -2:
                _fold(vals, assign, exact, folded, synced, pos)
                synced = pos
                last = _exact_step(vals[pos], exact[:k], d_gap)
            if last < 0:
                last = k
                k += 1
            assign[pos] = last
            sums[last] += cells[pos]
            pos += 1
            q += 1
        block = min(max(2 * q, _MIN_BLOCK), _MAX_BLOCK, max(1, _MAX_BLOCK_FLOATS // max(1, k * dim)))
    return assign, sums[:k, dim].astype(np.int64)


@_checked
def decode_grid(
    pred: GridTensors,
    spec: GridSpec = GridSpec(),
    params: DecodeParams = DecodeParams(),
) -> list[LaneInstance]:
    """Turn prediction-side grid tensors into instance-level 3D lanes.

    `pred` must carry confidence in [0, 1], an (s1, s2, D) embedding, the
    lateral offset in cell units and the height channel.  Cluster ids are
    center-creation order; clusters smaller than min_points are dropped
    (ids are not renumbered).  Raises NonFiniteInput when a cell that passes
    the confidence gate has a NaN or infinite embedding.
    """
    if pred.embedding is None:
        raise ShapeMismatch("decode_grid.pred: needs an embedding")
    if pred.shape != spec.shape:
        raise ShapeMismatch(f"decode_grid.pred: shape {pred.shape} differs from the grid's {spec.shape}")

    # scan order: outer columns, inner rows
    keep = np.argwhere(pred.confidence.T >= params.s_threshold)
    if len(keep) == 0:
        return []
    cols = keep[:, 0]
    rows = keep[:, 1]
    vals = np.ascontiguousarray(pred.embedding[rows, cols], dtype=float)
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        raise NonFiniteInput(f"decode_grid.pred: embedding is NaN or infinite in {int((~finite).sum())} confident cell(s)")
    assign, counts = _cluster_scan(vals, float(params.d_gap))

    off = np.clip(pred.offset[rows, cols], -0.5, 0.5)
    xs = spec.x_min + (rows + 0.5) * spec.cell
    ys = spec.y_min + (cols + 0.5 + off) * spec.cell
    zs = pred.height[rows, cols]

    # one stable sort groups the cells by cluster, each group in scan order
    points = np.column_stack([xs, ys, zs])[np.argsort(assign, kind="stable")]
    groups = np.split(points, np.cumsum(counts)[:-1])
    return [LaneInstance(cluster_id=cid, points=pts) for cid, pts in enumerate(groups) if len(pts) >= params.min_points]


def _vander(t: np.ndarray, degree: int) -> np.ndarray:
    """The (len(t), degree + 1) Vandermonde matrix [1, t, t**2, ...], bit for
    bit as polyvander builds it: each power is the one before times t."""
    v = np.ones((len(t), degree + 1))
    v[:, 1:] = t[:, None]
    return np.cumprod(v, axis=1)


def _fit_lane(lane: Lane3D, degree: int) -> FittedLane:
    """Least-squares y(x) and z(x) through the lane's points in one solve, on
    t in [-1, 1] over its x range; the degree is capped at len(points) - 1."""
    lo, hi = float(lane.x[0]), float(lane.x[-1])
    t = (2.0 * lane.x - (lo + hi)) / (hi - lo)
    coeffs = np.linalg.lstsq(_vander(t, min(degree, len(t) - 1)), lane.points[:, 1:], rcond=None)[0]
    return FittedLane(y_coeffs=coeffs[:, 0], z_coeffs=coeffs[:, 1], x_range=(lo, hi))


@_checked
def fit_lanes(instances: list[LaneInstance], params: DecodeParams = DecodeParams()) -> list[FittedLane]:
    """Fit y(x) and z(x) per instance on one point per grid row.

    Each instance is fitted as its Lane3D: the first point in scan order of
    each distinct x, sorted on x, in one joint solve.  The degree is capped
    at the number of distinct x (grid rows) - 1.  The abscissa is affinely
    mapped to [-1, 1] for conditioning; see FittedLane for the recorded
    transform.  An instance that spans fewer than 2 distinct x is refused by
    Lane3D(id=cluster_id + 1), as decode_lanes names it.
    """
    return [_fit_lane(Lane3D(points=inst.points, id=inst.cluster_id + 1), params.fit_degree) for inst in instances]


@_checked
def decode_lanes(
    pred: GridTensors,
    spec: GridSpec = GridSpec(),
    params: DecodeParams = DecodeParams(),
) -> tuple[list[Lane3D], list[FittedLane]]:
    """Decode `pred` into lanes and their fits, one key point per grid row.

    Runs decode_grid, then drops every cluster whose cells span fewer than
    2 grid rows, since such a cluster cannot be a lane.  Each remaining
    cluster becomes Lane3D(id=cluster_id + 1), keeping the first cell in
    scan order of each row, and is fitted from it, bit for bit as fit_lanes.
    """
    instances = [inst for inst in decode_grid.__wrapped__(pred, spec, params) if np.ptp(inst.points[:, 0]) > 0]
    lanes = [Lane3D(points=inst.points, id=inst.cluster_id + 1) for inst in instances]
    return lanes, [_fit_lane(lane, params.fit_degree) for lane in lanes]
