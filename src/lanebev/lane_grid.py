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

from .errors import NonFiniteInput, TooManyInstances


@dataclass(frozen=True)
class GridSpec:
    """Metric extent and resolution of the BEV grid."""

    x_min: float = 3.0
    x_max: float = 103.0
    y_min: float = -10.0
    y_max: float = 10.0
    cell: float = 0.5

    def __post_init__(self):
        if self.cell <= 0:
            raise ValueError(f"cell size must be positive, got {self.cell}")
        for lo, hi, name in ((self.x_min, self.x_max, "x"), (self.y_min, self.y_max, "y")):
            span = hi - lo
            if span <= 0:
                raise ValueError(f"{name} extent is empty: [{lo}, {hi}]")
            n = span / self.cell
            if not np.isfinite(n) or abs(n - round(n)) > 1e-9:
                raise ValueError(f"{name} extent {span} is not an integer multiple of cell {self.cell}")

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
class Lane3D:
    """Polyline of finite (x, y, z) road-frame points, sorted on x.

    Points that share an x keep the first in input order.  This is the one
    same-x rule: on a decoded lane, whose points are in scan order, it
    keeps the cell of each grid row with the lowest column.  Raises
    NonFiniteInput on a NaN or infinite coordinate.
    """

    points: np.ndarray
    id: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise NonFiniteInput("points hold NaN or infinite values")
        pts = pts[np.unique(pts[:, 0], return_index=True)[1]]  # the first index of each x, by increasing x
        if len(pts) < 2:
            raise ValueError("a lane needs at least 2 points with distinct x")
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
class GridTensors:
    """The aligned per-cell tensors of the key-points representation.

    `instance` (int, 0 = background) is present on the encoding side;
    `embedding` (s1 x s2 x D) on the prediction side.  Either may be None.
    Raises NonFiniteInput, naming the tensor, when confidence, offset or
    height holds NaN or infinity; decode_grid checks the embedding.
    """

    confidence: np.ndarray
    offset: np.ndarray
    height: np.ndarray
    instance: np.ndarray | None = None
    embedding: np.ndarray | None = None

    def __post_init__(self):
        conf = np.asarray(self.confidence, dtype=float)
        off = np.asarray(self.offset, dtype=float)
        hgt = np.asarray(self.height, dtype=float)
        if conf.ndim != 2:
            raise ValueError(f"confidence must be 2-D, got {conf.shape}")
        if off.shape != conf.shape or hgt.shape != conf.shape:
            raise ValueError("confidence, offset and height must share one shape")
        for name, arr in (("confidence", conf), ("offset", off), ("height", hgt)):
            if not np.isfinite(arr).all():
                raise NonFiniteInput(f"{name} holds NaN or infinite values")
        if conf.min() < 0.0 or conf.max() > 1.0:
            raise ValueError("confidence values must lie in [0, 1]")
        if self.instance is not None:
            inst = np.asarray(self.instance)
            if inst.shape != conf.shape:
                raise ValueError("instance tensor shape differs from confidence")
            if np.any(np.abs(off[inst > 0]) > 0.5):
                raise ValueError("offsets on lane cells must lie in [-0.5, 0.5]")
            self.instance = inst.astype(int)
        if self.embedding is not None:
            emb = np.asarray(self.embedding, dtype=float)
            if emb.ndim != 3 or emb.shape[:2] != conf.shape:
                raise ValueError(f"embedding must be (s1, s2, D), got {emb.shape}")
            self.embedding = emb
        self.confidence = conf
        self.offset = off
        self.height = hgt

    @property
    def shape(self) -> tuple[int, int]:
        return self.confidence.shape


def encode_lanes(lanes: list[Lane3D], spec: GridSpec = GridSpec()) -> GridTensors:
    """Encode ground-truth lanes into the four supervision tensors.

    Each lane is sampled once per grid row at the row-center abscissa by
    linear interpolation.  The hit cell gets confidence 1, the lane id,
    the lateral offset from the cell center in [-0.5, 0.5) cell units and
    the interpolated height.  Samples outside the grid are dropped.  When
    lanes share a cell, one stable sort on the key (cell, |offset|, id)
    picks the winner: the sample nearest the cell center, then the lower
    lane id, then the lane earlier in the list.
    """
    ids = np.array([lane.id for lane in lanes], dtype=int)
    if np.any(ids <= 0):
        raise ValueError(f"lane ids must be positive to encode, got {ids[ids <= 0][0]}")
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


def ideal_prediction(
    gt: GridTensors,
    spec: GridSpec = GridSpec(),
    margin_scale: float = 1.0,
    embed_dim: int = 4,
    delta_d: float = 3.0,
) -> GridTensors:
    """Build the prediction a perfectly trained head would output for `gt`.

    Confidence, offset and height are copied.  Each lane instance gets a
    vertex of a regular simplex as its embedding, scaled so inter-class
    distance equals margin_scale * 2 * delta_d; background cells get the
    zero vector.  Raises TooManyInstances when the instances exceed the
    simplex capacity embed_dim + 1.
    """
    if gt.instance is None:
        raise ValueError("ideal_prediction needs ground truth with an instance tensor")
    if gt.shape != spec.shape:
        raise ValueError(f"gt shape {gt.shape} does not match grid {spec.shape}")
    ids = np.unique(gt.instance)
    ids = ids[ids > 0]
    verts = simplex_vertices(len(ids), embed_dim) * (margin_scale * 2.0 * delta_d)
    emb = np.zeros(gt.shape + (embed_dim,))
    for vert, k in zip(verts, ids):
        emb[gt.instance == k] = vert
    return GridTensors(
        confidence=gt.confidence.copy(),
        offset=gt.offset.copy(),
        height=gt.height.copy(),
        embedding=emb,
    )
