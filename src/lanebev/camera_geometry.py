"""Pinhole cameras, ground-plane projection and ground-plane homographies.

Coordinate conventions used throughout the library:

    Road frame (right-handed):
      - x: forward (meters)
      - y: lateral, positive left (meters)
      - z: up (meters)
      - Ground plane: z = 0

    Camera frame (right-handed, computer-vision standard):
      - x: right in the image
      - y: down in the image
      - z: forward along the optical axis
      - Extrinsics map road coordinates to camera coordinates:
            p_cam = R @ p_road + T

    Image frame:
      - u: right (pixels), v: down (pixels), origin at the top-left
      - Projection: (u, v, 1) ~ K @ p_cam

Homographies here are induced by the z = 0 ground plane: H maps pixels of
one camera to the pixels of another camera observing the same ground point.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DegenerateDepth,
    EmptyInput,
    InvalidValue,
    NonFiniteInput,
    ShapeMismatch,
    SingularHomography,
    _array,
    _Declared,
    _instance,
    _ints,
    _ints_field,
    _numbers,
    _object_field,
    _object_list,
    _scalar,
)

if TYPE_CHECKING:
    from scipy import sparse

# The road region (meters) that both cameras of compute_homography must
# see: corners of a 100 m x 10 m box centered on the forward axis, inside
# the BEV range.
DEFAULT_GROUND_POINTS = ((3.0, -5.0), (3.0, 5.0), (103.0, -5.0), (103.0, 5.0))

_MIN_DEPTH = 1e-9

# Output points per block in the sampler kernel (_sample_rows), rounded
# down to whole output rows and at least one row.  A block's coordinates
# and taps fit in cache and the allocator reuses them, where image-sized
# ones would fault in fresh pages on every call.
_SAMPLE_BLOCK = 16384


@dataclass(frozen=True)
class Intrinsics(_Declared):
    """Pinhole intrinsic parameters in pixels.  The focal lengths fx and fy,
    pixels per unit tangent, are at least 1: below 1, the whole +-45 degree
    field (tangents up to 1) lands within one pixel of the principal point."""

    fx: float = _scalar(bounds="at least 1")
    fy: float = _scalar(bounds="at least 1")
    cx: float = _scalar()
    cy: float = _scalar()
    skew: float = _scalar(0.0)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class Extrinsics(_Declared):
    """Road-to-camera rigid transform: p_cam = rotation @ p_road + translation,
    a finite (3, 3) rotation with determinant +1 and a finite (3,) translation."""

    rotation: np.ndarray = _array(shape=(3, 3))
    translation: np.ndarray = _array(shape=(3,))

    def __post_init__(self):
        super().__post_init__()
        r = self.rotation
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf or NaN, refused next
            off = np.max(np.abs(r.T @ r - np.eye(3)))
        if not off <= 1e-9:
            raise InvalidValue("Extrinsics.rotation: not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise InvalidValue("Extrinsics.rotation: determinant is not +1 within 1e-9")

    @property
    def camera_center(self) -> np.ndarray:
        """Camera optical center expressed in road coordinates."""
        return -self.rotation.T @ self.translation


@dataclass(frozen=True)
class CameraRig(_Declared):
    """One camera: intrinsics, extrinsics and image size (width, height)."""

    intrinsics: Intrinsics = _instance(cls=Intrinsics)
    extrinsics: Extrinsics = _instance(cls=Extrinsics)
    image_size: tuple[int, int] = _ints(shape=(2,), items="w,h")


@dataclass(frozen=True)
class Homography(_Declared):
    """3x3 ground-plane mapping between two camera images, normalized so matrix[2][2] = 1."""

    matrix: np.ndarray = _array(shape=(3, 3), factory=lambda: np.eye(3))

    def __post_init__(self):
        super().__post_init__()
        m = self.matrix
        if abs(m[2, 2]) < 1e-12:
            raise SingularHomography("Homography.matrix: matrix[2][2] is zero; cannot normalize")
        with np.errstate(over="ignore"):  # an overflow is refused on the next line
            m = m / m[2, 2]
        if not np.isfinite(m).all():
            raise NonFiniteInput("Homography.matrix: overflows when normalized by matrix[2][2]")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # subnormal pivots; refused next
            det = np.linalg.det(m)
        if not abs(det) >= 1e-12:
            raise SingularHomography("Homography.matrix: singular")
        object.__setattr__(self, "matrix", m)

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self.matrix))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map (N, 2) pixel points through the homography.

        A point mapped to infinity (w = 0) gives inf or NaN, without a
        warning, as do points too far away for a float pixel.
        """
        pts = np.atleast_2d(_numbers("Homography.apply.points", points).astype(float, copy=False))
        ph = np.column_stack([pts, np.ones(len(pts))])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = ph @ self.matrix.T
            return q[:, :2] / q[:, 2:3]


def _ground_to_image(rig: CameraRig, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Homogeneous pixels (N, 3) and camera-frame depths (N,) of the
    road-frame ground points (x, y, 0)."""
    p_road = np.column_stack([x, y, np.zeros_like(x)])
    p_cam = p_road @ rig.extrinsics.rotation.T + rig.extrinsics.translation
    return p_cam @ rig.intrinsics.matrix.T, p_cam[:, 2]


def project_ground_point(rig: CameraRig, x: float, y: float) -> tuple[float, float]:
    """Project road-frame ground point (x, y, 0) to pixel coordinates.

    Raises DegenerateDepth if the point's camera-frame depth is <= 1e-9.
    The result may lie outside the image bounds; callers decide what to do.
    """
    _object_field("project_ground_point.rig", rig, CameraRig)
    return tuple(project_ground_points(rig, [(x, y)])[0])


def project_ground_points(rig: CameraRig, points_xy: np.ndarray) -> np.ndarray:
    """Vectorized projection of (N, 2) ground points; returns (N, 2) pixels.

    Same contract as project_ground_point, raised on the first bad depth.
    A point too far away for a float pixel projects to inf or NaN, without
    a warning.
    """
    _object_field("project_ground_points.rig", rig, CameraRig)
    pts = np.atleast_2d(_numbers("project_ground_points.points_xy", points_xy).astype(float, copy=False))
    with np.errstate(over="ignore", invalid="ignore"):
        uvw, depths = _ground_to_image(rig, pts[:, 0], pts[:, 1])
        if np.any(depths <= _MIN_DEPTH):
            bad = pts[int(np.argmin(depths))]
            raise DegenerateDepth(f"ground point ({bad[0]}, {bad[1]}) has depth {depths.min():.3g}")
        return uvw[:, :2] / uvw[:, 2:3]


def _nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor of m with determinant +1."""
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def mean_virtual_camera(rigs: list[CameraRig]) -> CameraRig:
    """Average a fleet of rigs into one canonical (virtual) rig.

    Intrinsics and translation are averaged element-wise.  Rotations are
    averaged chordally: element-wise mean projected back onto the nearest
    orthonormal matrix with determinant +1.  Raises EmptyInput on no rigs
    and ShapeMismatch when their image sizes differ.
    """
    _object_list("mean_virtual_camera.rigs", rigs, CameraRig)
    if not rigs:
        raise EmptyInput("mean_virtual_camera requires at least one rig")
    sizes = {rig.image_size for rig in rigs}
    if len(sizes) > 1:
        raise ShapeMismatch(f"mean_virtual_camera.rigs: image sizes differ: {sorted(sizes)}")

    rot = _nearest_rotation(np.mean([r.extrinsics.rotation for r in rigs], axis=0))
    trans = np.mean([r.extrinsics.translation for r in rigs], axis=0)
    return CameraRig(
        intrinsics=Intrinsics(*np.mean([astuple(r.intrinsics) for r in rigs], axis=0)),
        extrinsics=Extrinsics(rotation=rot, translation=trans),
        image_size=rigs[0].image_size,
    )


def _ground_homography(rig: CameraRig) -> np.ndarray:
    """G = K [r1 r2 t], which maps the ground point (x, y, 0), as (x, y, 1),
    to its homogeneous pixel in the rig.  det G = -det K * (camera height),
    so G is singular exactly when the camera centre lies on the ground."""
    rot = rig.extrinsics.rotation
    return rig.intrinsics.matrix @ np.column_stack([rot[:, 0], rot[:, 1], rig.extrinsics.translation])


def compute_homography(src: CameraRig, dst: CameraRig) -> Homography:
    """Ground-plane homography mapping src pixels to dst pixels.

    In closed form, H = G_dst G_src^-1 with G = K [r1 r2 t] (Hartley and
    Zisserman, Multiple View Geometry, 13.1): exact on the z = 0 plane up
    to rounding.  Both cameras must see the road region
    DEFAULT_GROUND_POINTS ahead (DegenerateDepth, from
    project_ground_points on src, then on dst).  A camera centre within
    1e-9 m of the ground plane, a G_src that cannot be inverted, and an H
    that Homography refuses (h[2, 2] about 0, an overflow, |det| < 1e-12)
    raise DegenerateConfiguration; a src or dst that is not a CameraRig
    InvalidValue naming `compute_homography.src` or `.dst`.
    """
    _object_field("compute_homography.src", src, CameraRig)
    _object_field("compute_homography.dst", dst, CameraRig)
    for rig in (src, dst):
        project_ground_points(rig, DEFAULT_GROUND_POINTS)
    for name, rig in (("src", src), ("dst", dst)):
        if abs(rig.extrinsics.camera_center[2]) <= _MIN_DEPTH:
            raise DegenerateConfiguration(f"{name} camera centre lies within 1e-9 m of the ground plane")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite H is refused by Homography
        try:
            g_src_inv = np.linalg.inv(_ground_homography(src))
        except np.linalg.LinAlgError as exc:  # an exact zero pivot: rounding cancels the height of a far camera
            raise DegenerateConfiguration("src ground map G cannot be inverted") from exc
        h = _ground_homography(dst) @ g_src_inv
    try:
        return Homography(h)
    except (SingularHomography, NonFiniteInput) as exc:
        raise DegenerateConfiguration(str(exc)) from exc


def warp_image(image: np.ndarray, h: Homography, out_size: tuple[int, int]) -> np.ndarray:
    """Inverse-warp an image by a homography, like cv2.warpPerspective.

    Each output pixel (u, v) samples the input at H^-1 @ (u, v, 1) with
    bilinear interpolation; samples outside the source are 0.  `out_size`
    is (width, height), two non-negative integers; any other raises
    InvalidValue naming `warp_image.out_size`, and an `h` that is not a
    Homography InvalidValue naming `warp_image.h`.  Accepts (H, W) or
    (H, W, C) arrays; any other raises ShapeMismatch naming
    `warp_image.image`.  The sampler and its row rule are
    _homography_sample's, which synth.render_ground_pattern shares.
    """
    _object_field("warp_image.h", h, Homography)
    img = _numbers("warp_image.image", image).astype(float, copy=False)
    # Homography refuses |det| < 1e-12, so the inverse exists
    return _homography_sample(img, h.matrix, np.linalg.inv(h.matrix), out_size, "warp_image")


def _homography_sample(
    img: np.ndarray, h: np.ndarray, hinv: np.ndarray, out_size: tuple[int, int], owner: str, max_w: float | None = None
) -> np.ndarray:
    """Sample an (H, W) or (H, W, C) image at hinv @ (u, v, 1) for each pixel
    (u, v) of an out_size (width, height) grid, where the 3x3 matrix h maps
    source pixels to output pixels and hinv is its inverse (NaN for none).

    The source coordinates are made one row block at a time by _sample_rows,
    so no image-sized coordinate array is built; a point beyond the float
    range or at w = 0 is non-finite and samples +0.0.  If max_w is given,
    only the points whose w lies in (0, max_w) are sampled and any other,
    NaN included, is +0.0: for a ground-plane H, w is 1 / depth, so that is
    a depth gate.  `owner`, the public function, prefixes the refusals of
    _sample_rows.

    One row rule: only the output rows that can reach the source's non-zero
    rows [r0, r1) are cast (see _sample_rows).  A point gathers from them
    only if it lies in the rectangle [-1, W] x [r0 - 1, r1] of source
    pixels.  When h gives all four of its corners a w of one sign, w has
    that sign over the whole rectangle, and the rectangle's image is the
    convex quad of the mapped corners; the rows outside the quad's rows and
    a row of margin on each side gather nothing, so they stay +0.0 and cost
    nothing.  Otherwise, or if a corner maps to no finite row, every row is
    cast.  The margin keeps the output the same bytes as casting every row,
    because it is many orders of magnitude wider than the rounding that
    separates the mapped corners from the source coordinates that the cast
    rows compute.  The gate only zeroes points, so it keeps the rule exact.
    An out_size that is not two non-negative integers raises InvalidValue
    naming `owner.out_size`.
    """
    out_w, out_h = _ints_field(f"{owner}.out_size", out_size, 2, "non-negative")
    uu = np.arange(out_w, dtype=float)

    def coords(v):
        vv = v[:, None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w = hinv[2, 0] * uu + hinv[2, 1] * vv + hinv[2, 2]
            if max_w is not None:
                w = np.where((w > 0) & (w < max_w), w, np.nan)
            sx = (hinv[0, 0] * uu + hinv[0, 1] * vv + hinv[0, 2]) / w
            sy = (hinv[1, 0] * uu + hinv[1, 1] * vv + hinv[1, 2]) / w
        return sx, sy

    def rows(r0, r1):
        corners = np.array([(x, y, 1.0) for x in (-1.0, img.shape[1]) for y in (r0 - 1.0, r1)])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a non-finite row casts every row
            _, qv, qw = h @ corners.T
            v = qv / qw
        if not ((qw > 0).all() or (qw < 0).all()) or not np.isfinite(v).all():
            return None
        return int(np.floor(v.min())) - 1, int(np.ceil(v.max())) + 2

    return _sample_rows(img, (out_h, out_w), coords, rows, owner)


def _bilinear_weights(sx: np.ndarray, sy: np.ndarray, x0: np.ndarray, y0: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four bilinear weights of the points (sx, sy) whose floors are x0,
    y0, in the order (x0, y0), (x0+1, y0), (x0, y0+1), (x0+1, y0+1)."""
    with np.errstate(invalid="ignore"):
        fx = sx - x0
        fy = sy - y0
        gx = 1 - fx
        gy = 1 - fy
        return gx * gy, fx * gy, gx * fy, fx * fy


def bilinear_operator(sx: np.ndarray, sy: np.ndarray, src_shape: tuple[int, int]) -> sparse.csr_array:
    """Sparse bilinear sampling operator over a row-major flattened source.

    Row i holds the bilinear weights of the point (sx[i], sy[i]) (column,
    row) on its four neighbour pixels of an (H, W) source, stored in the
    order (x0, y0), (x0+1, y0), (x0, y0+1), (x0+1, y0+1).  Neighbours
    outside the source are not stored, so samples fade to 0 at the border
    like a constant-0 border in OpenCV; non-finite points give a zero row.
    """
    from scipy import sparse  # about 0.25 s to import; only the IPM maps need it

    src_h, src_w = src_shape
    sx, sy = np.ravel(sx), np.ravel(sy)
    x0, y0 = np.floor(sx), np.floor(sy)
    weights = _bilinear_weights(sx, sy, x0, y0)
    xi = x0[:, None] + [0, 1, 0, 1]
    yi = y0[:, None] + [0, 0, 1, 1]
    # NaN fails every comparison and +-inf one of them, so non-finite
    # points keep no neighbour and their inf - inf weights are dropped.
    keep = (xi >= 0) & (xi < src_w) & (yi >= 0) & (yi < src_h)
    cols = (yi[keep] * src_w + xi[keep]).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sparse.csr_array((np.column_stack(weights)[keep], cols, indptr), shape=(len(sx), src_h * src_w))


def _sample_rows(
    img: np.ndarray,
    out_hw: tuple[int, int],
    coords,
    rows: Callable[[int, int], tuple[int, int] | None] | None = None,
    owner: str = "warp_image",
) -> np.ndarray:
    """Bilinearly sample an (H, W) or (H, W, C) image into an (out_h, out_w)
    grid of points, one block of whole output rows at a time.

    coords(v) gets the block's row indices v as floats and returns the
    source coordinates (sx, sy) of its points, each of shape
    (len(v), out_w).  The four neighbours are gathered from a zero-padded
    copy of the image and their weighted values are added from 0.0 in
    bilinear_operator's storage order, as scipy's CSR product adds them, so
    the result equals the operator product bit for bit.  Every tap is
    gathered at one flat index per point from a view of the padded image
    shifted by the tap's offset, with indices clipped, so no index array is
    built per tap.

    Only the band [r0, r1) of source rows is gathered: the rows that hold
    any value other than +-0.0 (NaN and +-inf count as non-zero).  It is
    padded with one zero row and column on each side.  A point is gathered
    only if its floor column lies in [-1, W - 1] and its floor row in
    [r0 - 1, r1 - 1]; any other point, or a non-finite one, gives +0.0.
    That is exact: inside the source the weights are finite and >= 0, so a
    neighbour outside the band adds +0.0 to a sum that starts at +0.0, and
    a point whose neighbours all lie outside it is +0.0 either way.  A
    block is not gathered when no point's floor row lies in the band's
    range, which is tested before the taps are formed; its rows stay +0.0.
    An all-zero source gathers nothing and calls neither coords nor rows.

    rows, if given, is called once as rows(r0, r1) and returns a half-open
    range [lo, hi) of output rows that holds every point whose floors lie
    in the ranges above, or None for every row.  The range is clamped to
    [0, out_h); coords is called only for the rows in it, and the rows
    outside it stay +0.0.

    An image that is not 2-D or 3-D raises ShapeMismatch naming
    `owner.image`.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim not in (2, 3):
        raise ShapeMismatch(f"{owner}.image: must be 2-D or 3-D, got shape {img.shape}")
    out_h, out_w = out_hw
    out = np.zeros((out_h * out_w, int(np.prod(img.shape[2:]))))
    nonzero = np.flatnonzero(img.any(axis=tuple(range(1, img.ndim))))
    if nonzero.size == 0:
        return out.reshape((out_h, out_w) + img.shape[2:])

    r0, r1 = int(nonzero[0]), int(nonzero[-1]) + 1
    src_w = img.shape[1]
    pad_w = src_w + 2
    padded = np.zeros((r1 - r0 + 2, pad_w) + img.shape[2:])
    padded[1:-1, 1:-1] = img[r0:r1]
    flat = padded.reshape(len(padded) * pad_w, -1)

    span = None if rows is None else rows(r0, r1)
    first, end = (0, out_h) if span is None else (min(max(r, 0), out_h) for r in span)
    step = max(1, _SAMPLE_BLOCK // max(out_w, 1))
    for lo in range(first, end, step):
        v = np.arange(lo, min(lo + step, end), dtype=float)
        sx, sy = (np.ravel(a) for a in coords(v))
        # NaN fails every comparison and +-inf one of them, so such a point
        # is never inside.
        y0 = np.floor(sy)
        inside = (y0 >= r0 - 1) & (y0 <= r1 - 1)
        if not inside.any():
            continue
        x0 = np.floor(sx)
        inside &= (x0 >= -1) & (x0 <= src_w - 1)
        if not inside.any():
            continue
        acc = out[lo * out_w : (lo + len(v)) * out_w]
        # An outside point's index (perhaps cast from inf - inf) is clipped,
        # and whatever it gathers is zeroed below.
        with np.errstate(invalid="ignore", over="ignore"):
            base = ((y0 - (r0 - 1)) * pad_w + (x0 + 1)).astype(np.intp)
            for w, offset in zip(_bilinear_weights(sx, sy, x0, y0), (0, 1, pad_w, pad_w + 1)):
                tap = np.take(flat[offset:], base, axis=0, mode="clip")
                tap *= w[:, None]
                acc += tap
        if not inside.all():
            np.copyto(acc, 0.0, where=~inside[:, None])
    return out.reshape((out_h, out_w) + img.shape[2:])
