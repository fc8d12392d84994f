"""Front-view to BEV transformation as explicit linear operators.

A view relation map is a single matrix applied per channel to row-major
flattened front-view features, producing flattened BEV features: the
function class of a bias-free single linear layer over flattened pixels.
Two constructions are provided: an analytic one that samples front-view
features at the camera projection of each BEV cell center (inverse
perspective mapping), stored sparse, and a dense least-squares fit from
(front-view, BEV) feature pairs.  A pyramid concatenates per-scale results
along channels.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .camera_geometry import _MIN_DEPTH, CameraRig, _ground_to_image, bilinear_operator
from .errors import EmptyInput, InsufficientRank, InvalidValue, NonFiniteInput, ShapeMismatch
from .errors import _array, _checked, _Declared, _ints, _number_type, _scalar
from .lane_grid import GridSpec

if TYPE_CHECKING:
    from scipy import sparse


@dataclass
class FeatureTensor(_Declared):
    """(H, W, C) feature map, every dim positive, tagged with its downsample
    factor, a positive integer.

    The data may hold NaN: apply_vrm carries it to its output, and
    fit_vrm_least_squares, where it would spoil the fit, refuses it; a
    check here would scan every frame's feature maps once more.
    """

    data: np.ndarray = _array(shape=(None, None, None), finite=False)
    scale: int = _scalar(32, "positive", integer=True)

    def __post_init__(self):
        super().__post_init__()
        if 0 in self.data.shape:
            raise ShapeMismatch(f"FeatureTensor.data: every dim must be positive, got shape {self.data.shape}")

    @property
    def hw(self) -> tuple[int, int]:
        return self.data.shape[:2]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class ViewRelationMap(_Declared):
    """(HW_bev, HW_fv) operator between flattened feature planes: a dense
    ndarray (fitted maps) or a scipy.sparse matrix (IPM sampling maps).

    Immutable, and equal only to itself.  A CSR matrix is stored as a copy,
    each row in its stored order, whose data, indices and indptr are
    read-only (a write raises ValueError), so the operator apply_pyramid
    keeps for a tuple of maps always matches their matrices.  A matrix of
    values that are not real numbers raises InvalidValue.
    """

    matrix: np.ndarray | sparse.sparray = _array(shape=(None, None), finite=False)
    fv_shape: tuple[int, int] = _ints(shape=(2,))
    bev_shape: tuple[int, int] = _ints(shape=(2,))

    def __post_init__(self):
        matrix = self.matrix
        # A sparse matrix can only exist once scipy.sparse is imported.
        scipy_sparse = sys.modules.get("scipy.sparse")
        is_sparse = scipy_sparse is not None and scipy_sparse.issparse(matrix)
        if is_sparse and not _number_type(matrix.dtype.type):
            raise InvalidValue(f"ViewRelationMap.matrix: must be an array of numbers, got {matrix.dtype} values")
        if is_sparse and matrix.format == "csr":
            matrix = matrix.copy()
            for part in (matrix.data, matrix.indices, matrix.indptr):
                part.flags.writeable = False
            object.__setattr__(self, "matrix", matrix)
        super().__post_init__(skip="matrix" if is_sparse else None)
        expect = (self.bev_shape[0] * self.bev_shape[1], self.fv_shape[0] * self.fv_shape[1])
        if self.matrix.shape != expect:
            raise ShapeMismatch(f"ViewRelationMap.matrix: shape {self.matrix.shape} differs from (HW_bev, HW_fv) = {expect}")


@dataclass(frozen=True)
class PyramidSpec(_Declared):
    """Which scales feed the transform, distinct positive integers, and the
    shared BEV output shape, two positive integers."""

    scales: tuple[int, ...] = _ints((32, 64))
    bev_shape: tuple[int, int] = _ints((50, 10), shape=(2,))

    def __post_init__(self):
        super().__post_init__()
        if len(set(self.scales)) != len(self.scales):
            raise InvalidValue(f"PyramidSpec.scales: must be distinct, got {self.scales}")


@_checked(scale="positive")
def build_ipm_sampling_map(
    virtual_rig: CameraRig,
    fv_shape: tuple[int, int],
    scale: int,
    bev_spec: GridSpec = GridSpec(),
    bev_shape: tuple[int, int] = (50, 10),
) -> ViewRelationMap:
    """Analytic ground-plane sampling operator.

    Each BEV cell's ground center is projected through the rig; the pixel
    coordinate is divided by `scale` and bilinear weights are deposited on
    the surrounding front-view feature pixels.  Cells that project behind
    the camera or outside the feature plane get an all-zero row, so every
    row sums to exactly 1 or 0.
    """
    fv_h, fv_w = fv_shape
    s1, s2 = bev_shape
    cell_x = (bev_spec.x_max - bev_spec.x_min) / s1
    cell_y = (bev_spec.y_max - bev_spec.y_min) / s2

    rr, cc = np.meshgrid(np.arange(s1), np.arange(s2), indexing="ij")
    gx = bev_spec.x_min + (rr.reshape(-1) + 0.5) * cell_x
    gy = bev_spec.y_min + (cc.reshape(-1) + 0.5) * cell_y

    uvw, depth = _ground_to_image(virtual_rig, gx, gy)
    front = depth > _MIN_DEPTH
    with np.errstate(divide="ignore", invalid="ignore"):
        uf = uvw[:, 0] / uvw[:, 2] / scale
        vf = uvw[:, 1] / uvw[:, 2] / scale

    usable = front & (uf >= 0) & (uf <= fv_w - 1) & (vf >= 0) & (vf <= fv_h - 1)
    matrix = bilinear_operator(np.where(usable, uf, np.nan), np.where(usable, vf, np.nan), (fv_h, fv_w))
    matrix.eliminate_zeros()
    return ViewRelationMap(matrix=matrix, fv_shape=(fv_h, fv_w), bev_shape=(s1, s2))


@_checked
def apply_vrm(vrm: ViewRelationMap, fv: FeatureTensor) -> FeatureTensor:
    """Apply the operator channel-by-channel: flatten, multiply, reshape."""
    if fv.hw != vrm.fv_shape:
        raise ShapeMismatch(f"apply_vrm.fv: shape {fv.hw} differs from the map's fv_shape {vrm.fv_shape}")
    flat = fv.data.reshape(-1, fv.channels)  # (HW_fv, C), row-major
    bev = vrm.matrix @ flat
    return FeatureTensor(data=bev.reshape(vrm.bev_shape + (fv.channels,)), scale=fv.scale)


@_checked
def apply_pyramid(
    maps: dict[int, ViewRelationMap],
    features: dict[int, FeatureTensor],
    spec: PyramidSpec = PyramidSpec(),
) -> FeatureTensor:
    """Per-scale apply_vrm, concatenated along channels in spec order.

    When every map is a CSR matrix and every scale has the same channel
    count C (an IPM pyramid), the K = len(spec.scales) maps run as one
    product: the features are stacked as (sum of HW_fv, C) and multiplied
    by _interleaved_operator's (HW_bev * K, sum of HW_fv) operator, whose
    (HW_bev * K, C) product already is the (s1, s2, K * C) channel layout.
    Every row adds its entries in the map's stored order, so each channel
    slice equals apply_vrm's bit for bit.  Maps are immutable, so the
    operator, with int32 indices, is built once per tuple of map objects in
    spec order; the last pyramid's maps and operator (about 1.2 MB for
    scales 8, 16 and 32 of a 1024 x 576 view onto the 200 x 40 grid) stay
    alive until another pyramid is applied.  Any other pyramid (a dense
    fitted map, a sparse map in another format, or unequal channel counts)
    writes each scale's apply_vrm into its channel slice of one
    preallocated (s1, s2, sum of channels) output.  Every entry of `maps`
    and `features`, also under a scale the spec does not name, and every
    shape are checked on every call, before any product is made.
    """
    for scale in spec.scales:
        if scale not in maps or scale not in features:
            raise ShapeMismatch(f"apply_pyramid.{'maps' if scale not in maps else 'features'}: nothing for scale {scale}")
        if maps[scale].bev_shape != spec.bev_shape:
            raise ShapeMismatch(
                f"apply_pyramid.maps: scale {scale} outputs {maps[scale].bev_shape}, the spec wants {spec.bev_shape}"
            )
        if features[scale].hw != maps[scale].fv_shape:
            raise ShapeMismatch(
                f"apply_pyramid.features: scale {scale} has shape {features[scale].hw}, its map wants {maps[scale].fv_shape}"
            )
    pyramid = tuple(maps[scale] for scale in spec.scales)
    planes = [features[scale].data for scale in spec.scales]
    channels = [plane.shape[2] for plane in planes]
    if all(getattr(m.matrix, "format", None) == "csr" for m in pyramid) and len(set(channels)) == 1:
        stacked = np.concatenate([plane.reshape(-1, channels[0]) for plane in planes])
        out = (_pyramid_operator(pyramid) @ stacked).reshape(spec.bev_shape + (sum(channels),))
        return FeatureTensor(data=out, scale=min(spec.scales))
    out = np.empty(spec.bev_shape + (sum(channels),))
    start = 0
    for scale in spec.scales:
        bev = apply_vrm.__wrapped__(maps[scale], features[scale]).data
        out[..., start : start + bev.shape[2]] = bev
        start += bev.shape[2]
    return FeatureTensor(data=out, scale=min(spec.scales))


@functools.lru_cache(maxsize=1)
def _pyramid_operator(pyramid: tuple[ViewRelationMap, ...]) -> sparse.csr_array:
    """_interleaved_operator of the maps' matrices, kept for the last tuple
    of map objects: a map hashes by identity and its CSR arrays are
    read-only, so the same tuple always means the same operator."""
    return _interleaved_operator([m.matrix for m in pyramid])


def _interleaved_operator(matrices: list[sparse.csr_array]) -> sparse.csr_array:
    """One CSR operator for K CSR matrices of N rows each: its row n * K + k
    is row n of matrices[k], with the column indices shifted past the
    columns of matrices[:k].  Each row's entries are gathered in their
    stored order, which is the order the product adds them in; nothing is
    sorted, summed or converted.  The indices and indptr are int32, as
    scipy makes them, when the non-zeros and the columns fit."""
    from scipy import sparse

    counts = np.stack([np.diff(m.indptr) for m in matrices], axis=1).ravel()
    offsets = np.cumsum([0] + [m.data.size for m in matrices])
    starts = np.stack([m.indptr[:-1] + offset for m, offset in zip(matrices, offsets)], axis=1).ravel()
    indptr = np.concatenate([[0], np.cumsum(counts)])
    take = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
    cols = np.cumsum([0] + [m.shape[1] for m in matrices])
    data = np.concatenate([m.data for m in matrices])[take]
    indices = np.concatenate([m.indices + c for m, c in zip(matrices, cols)])[take]
    shape = (matrices[0].shape[0] * len(matrices), int(cols[-1]))
    if max(indptr[-1], *shape) <= np.iinfo(np.int32).max:
        indices, indptr = indices.astype(np.int32), indptr.astype(np.int32)
    return sparse.csr_array((data, indices, indptr), shape=shape)


@_checked(ridge="non-negative")
def fit_vrm_least_squares(
    samples: list[tuple[FeatureTensor, FeatureTensor]],
    ridge: float = 0.0,
) -> ViewRelationMap:
    """Recover the linear operator from (front-view, BEV) feature pairs.

    Every channel of every sample is one (input, output) pair.  Solves
    min_M sum ||M x - y||^2 + ridge ||M||_F^2.  With ridge = 0 the system
    must be determined: InsufficientRank is raised instead of silently
    regularizing when there are fewer pairs than front-view pixels (or the
    design matrix is rank-deficient).  For ill-posed fits a ridge around
    1e-6 times the mean diagonal of X^T X is a reasonable starting point;
    the value given here is used as-is, never rescaled.  No samples raise
    EmptyInput, and a sample holding NaN or infinity NonFiniteInput naming it.
    """
    if not samples:
        raise EmptyInput("fit_vrm_least_squares.samples: needs at least one sample")
    fv_shape = samples[0][0].hw
    bev_shape = samples[0][1].hw
    xs = []
    ys = []
    for i, (fv, bev) in enumerate(samples):
        if not (np.isfinite(fv.data).all() and np.isfinite(bev.data).all()):
            raise NonFiniteInput(f"fit_vrm_least_squares.samples[{i}]: holds NaN or infinite values")
        if fv.hw != fv_shape or bev.hw != bev_shape:
            raise ShapeMismatch(f"fit_vrm_least_squares.samples[{i}]: front-view and BEV shapes differ from samples[0]'s")
        if fv.channels != bev.channels:
            raise ShapeMismatch(f"fit_vrm_least_squares.samples[{i}]: front-view and BEV channel counts differ")
        xs.append(fv.data.reshape(-1, fv.channels).T)
        ys.append(bev.data.reshape(-1, bev.channels).T)
    x = np.concatenate(xs, axis=0)  # (pairs, HW_fv)
    y = np.concatenate(ys, axis=0)  # (pairs, HW_bev)

    n_unknown = x.shape[1]
    if ridge == 0.0:
        if x.shape[0] < n_unknown:
            raise InsufficientRank(f"{x.shape[0]} pairs cannot determine {n_unknown} columns without ridge")
        mt, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
        if rank < n_unknown:
            raise InsufficientRank(f"design matrix rank {rank} < {n_unknown}")
    else:
        gram = x.T @ x + ridge * np.eye(n_unknown)
        mt = np.linalg.solve(gram, x.T @ y)
    return ViewRelationMap(matrix=mt.T, fv_shape=fv_shape, bev_shape=bev_shape)
