"""BEV grid geometry and the key-points ground-truth encoder.

The road plane z = 0 is divided into s1 x s2 cells: rows index the forward
(x) direction, columns the lateral (y) direction.  The defaults cover
x in (3 m, 103 m) and y in (-10 m, 10 m) at 0.5 m cells, i.e. a 200 x 40
grid.  A lane is encoded with one sample per grid row at the row-center
abscissa, producing four aligned tensors: confidence, lateral offset from
the cell center (cell units), height (meters) and instance id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, ShapeMismatch, TooManyInstances
from .errors import _array, _Declared, _object_field, _object_list, _scalar, _scalar_field

# Margins of the discriminative embedding loss: the pull loss lets a cell
# lie DELTA_V from its lane's centre, the push loss drives centres
# 2 * DELTA_D apart, and ideal_prediction places them exactly that far apart.
DELTA_V = 0.5
DELTA_D = 3.0


@dataclass(frozen=True)
class GridSpec(_Declared):
    """Metric extent and resolution of the BEV grid."""

    x_min: float = _scalar(3.0)
    x_max: float = _scalar(103.0)
    y_min: float = _scalar(-10.0)
    y_max: float = _scalar(10.0)
    cell: float = _scalar(0.5, "positive")

    def __post_init__(self):
        super().__post_init__()
        for lo, hi, name in ((self.x_min, self.x_max, "x"), (self.y_min, self.y_max, "y")):
            span = hi - lo
            if span <= 0:
                raise InvalidValue(f"GridSpec.{name}_max: must exceed {name}_min, got [{lo}, {hi}]")
            n = span / self.cell
            # From 2**23 cells up, floats near n lie over 1e-9 apart, so the
            # divisibility test below could see no remainder
            if not (np.isfinite(n) and 1 <= round(n) < 2**23):
                raise InvalidValue(f"GridSpec.cell: must give 1 to 2**23 - 1 {name} cells, got {n:.6g} for {self.cell}")
            if abs(n - round(n)) > 1e-9:
                raise InvalidValue(f"GridSpec.cell: must divide the {name} extent {span}, got {self.cell}")

    @property
    def rows(self) -> int:
        return int(round((self.x_max - self.x_min) / self.cell))

    @property
    def cols(self) -> int:
        return int(round((self.y_max - self.y_min) / self.cell))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.rows) + 0.5) * self.cell

    def col_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.cols) + 0.5) * self.cell


@dataclass
class Lane3D(_Declared):
    """Polyline of finite (x, y, z) road-frame points, sorted on x.

    Points that share an x keep the first in input order.  This is the one
    same-x rule: on a decoded lane, whose points are in scan order, it
    keeps the cell of each grid row with the lowest column.  Raises
    InvalidValue, naming the lane id, on fewer than 2 distinct x.
    """

    points: np.ndarray = _array(shape=(None, 3))
    id: int = _scalar(0, f"in [{-(2**63)}, {2**63})", integer=True)

    def __post_init__(self):
        super().__post_init__()
        pts = self.points
        x = pts[:, 0]
        if (x[1:] > x[:-1]).all():
            pts = pts.copy()  # never alias the caller's array
        else:
            # The first index of each x, by increasing x, as np.unique(return_index=True) picks it.
            order = np.argsort(x, kind="stable")
            xs = x[order]
            pts = pts[order[np.concatenate(([True], xs[1:] != xs[:-1]))]]
        if len(pts) < 2:
            raise InvalidValue(f"Lane3D.points: lane {self.id} needs at least 2 points with distinct x")
        self.points = pts

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.points[:, 2]


@dataclass
class GridTensors(_Declared):
    """The aligned per-cell tensors of the key-points representation.

    `instance` (int, 0 = background) is present on the encoding side;
    `embedding` (s1 x s2 x D) on the prediction side.  Either may be None.
    The embedding may hold NaN: decode_grid checks its confident cells.
    """

    confidence: np.ndarray = _array(shape=(None, None))
    offset: np.ndarray = _array(shape=("confidence",))
    height: np.ndarray = _array(shape=("confidence",))
    instance: np.ndarray | None = _array(None, shape=("confidence",), dtype=None, none=True)
    embedding: np.ndarray | None = _array(None, shape=("confidence", None), finite=False, none=True)

    def __post_init__(self):
        super().__post_init__()
        if not ((self.confidence >= 0.0) & (self.confidence <= 1.0)).all():
            raise InvalidValue("GridTensors.confidence: values must lie in [0, 1]")
        if self.instance is not None:
            if np.any(np.abs(self.offset[self.instance > 0]) > 0.5):
                raise InvalidValue("GridTensors.offset: values on lane cells must lie in [-0.5, 0.5]")
            self.instance = self.instance.astype(int)

    @property
    def shape(self) -> tuple[int, int]:
        return self.confidence.shape


def encode_lanes(lanes: list[Lane3D], spec: GridSpec = GridSpec()) -> GridTensors:
    """Encode ground-truth lanes into the four supervision tensors.

    Each lane is sampled once per grid row at the row-center abscissa by
    linear interpolation.  The hit cell gets confidence 1, the lane id,
    the lateral offset from the cell center in [-0.5, 0.5) cell units and
    the interpolated height.  Samples outside the grid are dropped.  When
    lanes share a cell, one sort on the key (cell, |offset|, id) picks the
    winner: the sample nearest the cell center, then the lower lane id.
    Raises InvalidValue naming `encode_lanes.lanes` on an id that is not
    positive or that two lanes share, since the instance map would merge them.
    """
    _object_list("encode_lanes.lanes", lanes, Lane3D)
    _object_field("encode_lanes.spec", spec, GridSpec)
    ids = np.array([lane.id for lane in lanes], dtype=int)
    if np.any(ids <= 0):
        raise InvalidValue(f"encode_lanes.lanes: ids must be positive to encode, got {ids[ids <= 0][0]}")
    listed = ids.tolist()
    if len(set(listed)) < len(listed):
        repeated = min(i for i in listed if listed.count(i) > 1)
        raise InvalidValue(f"encode_lanes.lanes: id {repeated} is shared by more than one lane")
    s1, s2 = spec.shape
    xs = spec.row_centers()
    # every lane at every row center; NaN off its x-span, so no cell takes it
    y = np.array([np.interp(xs, lane.x, lane.y, left=np.nan, right=np.nan) for lane in lanes]).reshape(-1, s1)
    z = np.array([np.interp(xs, lane.x, lane.z) for lane in lanes]).reshape(-1, s1)
    frac = (y - spec.y_min) / spec.cell
    k, rows = np.nonzero((frac >= 0) & (frac < s2))  # lane-major: the samples in list order
    frac = frac[k, rows]
    cols = np.floor(frac).astype(int)
    offset = frac - cols - 0.5  # in [-0.5, 0.5) by construction
    cell = rows * s2 + cols

    order = np.lexsort((ids[k], np.abs(offset), cell))
    _, first = np.unique(cell[order], return_index=True)
    win = order[first]
    r, c = rows[win], cols[win]
    conf = np.zeros((s1, s2))
    off = np.zeros((s1, s2))
    hgt = np.zeros((s1, s2))
    inst = np.zeros((s1, s2), dtype=int)
    conf[r, c] = 1.0
    off[r, c] = offset[win]
    hgt[r, c] = z[k[win], r]
    inst[r, c] = ids[k[win]]
    return GridTensors(confidence=conf, offset=off, height=hgt, instance=inst)


def simplex_vertices(n: int, dim: int) -> np.ndarray:
    """n points in R^dim with unit pairwise distance, centered at the origin.

    A regular simplex in R^dim holds at most dim + 1 vertices.
    """
    if n > dim + 1:
        raise TooManyInstances(f"{n} vertices do not fit a simplex in {dim} dimensions")
    if n == 0:
        return np.zeros((0, dim))
    e = np.eye(n) - 1.0 / n  # centered standard simplex, pairwise distance sqrt(2)
    _, _, vt = np.linalg.svd(e, full_matrices=False)
    coords = e @ vt[: max(n - 1, 1)].T
    out = np.zeros((n, dim))
    out[:, : coords.shape[1]] = coords / np.sqrt(2.0)
    return out


def ideal_prediction(gt: GridTensors, spec: GridSpec = GridSpec(), embed_dim: int = 4) -> GridTensors:
    """Build the prediction a perfectly trained head would output for `gt`.

    Confidence, offset and height are copied.  Each lane instance gets a
    vertex of a regular simplex as its embedding, scaled so inter-class
    distance equals 2 * DELTA_D; background cells get the zero vector.
    Raises ShapeMismatch when `gt` has no instance tensor or another shape
    than the grid, InvalidValue unless embed_dim is a non-negative integer,
    and TooManyInstances when the instances exceed the simplex capacity
    embed_dim + 1.
    """
    _object_field("ideal_prediction.gt", gt, GridTensors)
    _object_field("ideal_prediction.spec", spec, GridSpec)
    _scalar_field("ideal_prediction.embed_dim", embed_dim, "non-negative", integer=True)
    if gt.instance is None:
        raise ShapeMismatch("ideal_prediction.gt: needs an instance tensor")
    if gt.shape != spec.shape:
        raise ShapeMismatch(f"ideal_prediction.gt: shape {gt.shape} differs from the grid's {spec.shape}")
    lane = gt.instance > 0
    ids, which = np.unique(gt.instance[lane], return_inverse=True)
    verts = simplex_vertices(len(ids), embed_dim) * (2.0 * DELTA_D)
    emb = np.zeros(gt.shape + (embed_dim,))
    emb[lane] = verts[which]
    return GridTensors(
        confidence=gt.confidence.copy(),
        offset=gt.offset.copy(),
        height=gt.height.copy(),
        embedding=emb,
    )
