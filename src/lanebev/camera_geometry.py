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

from collections.abc import Callable, Iterator
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
    _checked,
    _Declared,
    _field,
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

    fx: float = _field(bounds="at least 1")
    fy: float = _field(bounds="at least 1")
    cx: float = _field()
    cy: float = _field()
    skew: float = _field(0.0)

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

    rotation: np.ndarray = _field(shape=(3, 3))
    translation: np.ndarray = _field(shape=(3,))

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

    intrinsics: Intrinsics = _field()
    extrinsics: Extrinsics = _field()
    image_size: tuple[int, int] = _field(items="w,h")


@dataclass(frozen=True)
class Homography(_Declared):
    """3x3 ground-plane mapping between two camera images, normalized so matrix[2][2] = 1."""

    matrix: np.ndarray = _field(shape=(3, 3), factory=lambda: np.eye(3))

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

    @_checked
    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map (N, 2) pixel points through the homography.

        A point mapped to infinity (w = 0) gives inf or NaN, without a
        warning, as do points too far away for a float pixel.
        """
        pts = np.atleast_2d(points.astype(float, copy=False))
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


@_checked
def project_ground_point(rig: CameraRig, x: float, y: float) -> tuple[float, float]:
    """Project road-frame ground point (x, y, 0) to pixel coordinates.

    Raises DegenerateDepth if the point's camera-frame depth is <= 1e-9.
    The result may lie outside the image bounds; callers decide what to do.
    """
    return tuple(project_ground_points(rig, [(x, y)])[0])


@_checked
def project_ground_points(rig: CameraRig, points_xy: np.ndarray) -> np.ndarray:
    """Vectorized projection of (N, 2) ground points; returns (N, 2) pixels.

    Same contract as project_ground_point, raised on the first bad depth.
    A point too far away for a float pixel projects to inf or NaN, without
    a warning.
    """
    pts = np.atleast_2d(points_xy.astype(float, copy=False))
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


@_checked
def mean_virtual_camera(rigs: list[CameraRig]) -> CameraRig:
    """Average a fleet of rigs into one canonical (virtual) rig.

    Intrinsics and translation are averaged element-wise.  Rotations are
    averaged chordally: element-wise mean projected back onto the nearest
    orthonormal matrix with determinant +1.  Raises EmptyInput on no rigs
    and ShapeMismatch when their image sizes differ.
    """
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


@_checked
def compute_homography(src: CameraRig, dst: CameraRig) -> Homography:
    """Ground-plane homography mapping src pixels to dst pixels.

    In closed form, H = G_dst G_src^-1 with G = K [r1 r2 t] (Hartley and
    Zisserman, Multiple View Geometry, 13.1): exact on the z = 0 plane up
    to rounding.  Both cameras must see the road region
    DEFAULT_GROUND_POINTS ahead (DegenerateDepth, from
    project_ground_points on src, then on dst).  A camera centre within
    1e-9 m of the ground plane, a G_src that cannot be inverted, and an H
    that Homography refuses (h[2, 2] about 0, an overflow, |det| < 1e-12)
    raise DegenerateConfiguration.
    """
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


@_checked(out_size="non-negative")
def warp_image(image: np.ndarray, h: Homography, out_size: tuple[int, int]) -> np.ndarray:
    """Inverse-warp an image by a homography, like cv2.warpPerspective.

    Each output pixel (u, v) samples the input at H^-1 @ (u, v, 1) with
    bilinear interpolation; samples outside the source are 0.  `out_size`
    is (width, height).  Accepts (H, W) or (H, W, C) arrays; any other
    raises ShapeMismatch naming `warp_image.image`.  The sampler and its
    row rule are _homography_sample's, which synth.render_ground_pattern
    shares.
    """
    if image.ndim not in (2, 3):
        raise ShapeMismatch(f"warp_image.image: must be 2-D or 3-D, got shape {image.shape}")
    # Homography refuses |det| < 1e-12, so the inverse exists
    return _homography_sample(image.astype(float, copy=False), h.matrix, np.linalg.inv(h.matrix), out_size)


def _homography_sample(
    img: np.ndarray, h: np.ndarray, hinv: np.ndarray, out_size: tuple[int, int], max_w: float | None = None
) -> np.ndarray:
    """Sample an (H, W) or (H, W, C) image at hinv @ (u, v, 1) for each pixel
    (u, v) of an out_size (width, height) grid, where the 3x3 matrix h maps
    source pixels to output pixels and hinv is its inverse (NaN for none).

    The source coordinates are made one row block at a time by _sample_rows,
    into its per-call buffers, so no image-sized coordinate array is built.
    The three rows hinv[i, 0] * u are formed once per call, and each block's
    w goes into one more buffer of the call; a point beyond the float range
    or at w = 0 is non-finite and samples +0.0.  If max_w is given, only the
    points whose w lies in (0, max_w) are sampled and any other, NaN
    included, is +0.0: for a ground-plane H, w is 1 / depth, so that is a
    depth gate.

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

    The gate is skipped for a block whose every w already lies in
    (0, max_w), where it would keep every point.  A block's w is
    (hinv[2, 0] * u + hinv[2, 1] * v) + hinv[2, 2], rounded at each step,
    and rounding is monotone, so its least and greatest w are those of the
    least and greatest terms, summed in the same order: an exact bound, with
    no margin.  A NaN or infinite term keeps the gate on, and a gated block
    makes its gated w afresh.  The row rule's corners cannot decide the
    gate: for a camera within about 1e-200 m of the ground, hinv is too far
    from the exact inverse of h for a margin on the corners' depths to hold.
    """
    out_w, out_h = out_size
    hu = hinv[:, :1] * np.arange(out_w, dtype=float)  # row i is hinv[i, 0] * u
    u_terms = hu[2].min(initial=np.inf), hu[2].max(initial=-np.inf)  # w's least and greatest u term
    w_buffer = np.empty(min(_block_rows(out_w), out_h) * out_w)

    def coords(v, sx, sy):
        w = w_buffer[: sx.size].reshape(sx.shape)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for row, out in ((2, w), (0, sx), (1, sy)):
                np.add(hu[row], (hinv[row, 1] * v)[:, None], out=out)
                out += hinv[row, 2]
            if max_w is not None:
                v_terms = hinv[2, 1] * v[[0, -1]]  # v ascends, so these are its least and greatest
                least = u_terms[0] + v_terms.min() + hinv[2, 2]
                most = u_terms[1] + v_terms.max() + hinv[2, 2]
                if not (least > 0 and most < max_w):
                    w = np.where((w > 0) & (w < max_w), w, np.nan)
            sx /= w
            sy /= w

    def rows(r0, r1):
        corners = np.array([(x, y, 1.0) for x in (-1.0, img.shape[1]) for y in (r0 - 1.0, r1)])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a non-finite row casts every row
            _, qv, qw = h @ corners.T
            v = qv / qw
        if not ((qw > 0).all() or (qw < 0).all()) or not np.isfinite(v).all():
            return None
        return int(np.floor(v.min())) - 1, int(np.ceil(v.max())) + 2

    return _sample_rows(img, (out_h, out_w), coords, rows)


def _bilinear_weights(
    sx: np.ndarray, sy: np.ndarray, x0: np.ndarray, y0: np.ndarray, out: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """The four bilinear weights of the points (sx, sy) whose floors are x0,
    y0, one at a time, in the order (x0, y0), (x0+1, y0), (x0, y0+1),
    (x0+1, y0+1).

    With out given, nothing is allocated: fx = sx - x0 and fy = sy - y0
    overwrite sx and sy, gx = 1 - fx and gy = 1 - fy overwrite x0 and y0,
    and each weight is written to out, where it holds until the next one is
    asked for.  The fractions lie in [0, 1] or are NaN (inf - inf), so only
    their subtraction can raise a floating-point error."""
    into = (None,) * 4 if out is None else (sx, sy, x0, y0)
    with np.errstate(invalid="ignore"):
        fx = np.subtract(sx, x0, out=into[0])
        fy = np.subtract(sy, y0, out=into[1])
    gx = np.subtract(1, fx, out=into[2])
    gy = np.subtract(1, fy, out=into[3])
    for p, q in ((gx, gy), (fx, gy), (gx, fy), (fx, fy)):
        yield np.multiply(p, q, out=out)


@_checked(src_shape="non-negative")
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
    weights = tuple(_bilinear_weights(sx, sy, x0, y0))
    xi = x0[:, None] + [0, 1, 0, 1]
    yi = y0[:, None] + [0, 0, 1, 1]
    # NaN fails every comparison and +-inf one of them, so non-finite
    # points keep no neighbour and their inf - inf weights are dropped.
    keep = (xi >= 0) & (xi < src_w) & (yi >= 0) & (yi < src_h)
    cols = (yi[keep] * src_w + xi[keep]).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sparse.csr_array((np.column_stack(weights)[keep], cols, indptr), shape=(len(sx), src_h * src_w))


def _block_rows(out_w: int) -> int:
    """Output rows per block of _sample_rows: whole rows of at most
    _SAMPLE_BLOCK points, and at least one row."""
    return max(1, _SAMPLE_BLOCK // max(out_w, 1))


def _sample_rows(
    img: np.ndarray,
    out_hw: tuple[int, int],
    coords: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
    rows: Callable[[int, int], tuple[int, int] | None] | None = None,
) -> np.ndarray:
    """Bilinearly sample an (H, W) or (H, W, C) image into an (out_h, out_w)
    grid of points, one block of whole output rows at a time.

    coords(v, sx, sy) gets the block's row indices v as floats and fills
    the (len(v), out_w) arrays sx and sy with the source coordinates of its
    points; they are the kernel's own buffers, which it overwrites after
    the call.  The four neighbours are gathered from a zero-padded copy of
    the image and their weighted values are added from 0.0 in
    bilinear_operator's storage order, as scipy's CSR product adds them, so
    the result equals the operator product bit for bit.  Every tap is
    gathered at one flat index per point from a view of the padded image
    shifted by the tap's offset, with indices clipped, so no index array is
    built per tap.

    Each call allocates its block scratch once: five float buffers of one
    block's points (sx, sy, their floors and the weight, which first holds
    the flat index as a float), one index buffer, two masks and one tap
    buffer of the block's points by channels.  Every step of a block
    writes into them, with out= or in place, so no block-sized array is
    made per block: the bilinear weights' fractions overwrite the
    coordinates and their complements the floors (_bilinear_weights), and
    each tap's weight is written to the weight buffer just before the tap
    is gathered.  The buffers belong to the call, never to the module, so
    calls on two threads share nothing.

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

    rows, if given, is called once as rows(r0, r1), before coords, and
    returns a half-open range [lo, hi) of output rows that holds every
    point whose floors lie in the ranges above, or None for every row.  The
    range is clamped to [0, out_h); coords is called only for the rows in
    it, and the rows outside it stay +0.0.
    """
    img = np.asarray(img, dtype=float)
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
    nan = bool(np.isnan(flat.max()))  # an image's NaN may differ from the one 0 * inf and inf - inf make

    span = None if rows is None else rows(r0, r1)
    first, end = (0, out_h) if span is None else (min(max(r, 0), out_h) for r in span)
    step = _block_rows(out_w)
    size = min(step, end - first) * out_w
    sx_b, sy_b, x0_b, y0_b, weight_b = np.empty((5, size))
    index_b = np.empty(size, dtype=np.intp)
    inside_b, test_b = np.empty((2, size), dtype=bool)
    tap_b = np.empty((size, flat.shape[1]))
    for lo in range(first, end, step):
        n_rows = min(step, end - lo)
        n = n_rows * out_w
        sx, sy, x0, y0, weight = (b[:n] for b in (sx_b, sy_b, x0_b, y0_b, weight_b))
        index, inside, test, tap = index_b[:n], inside_b[:n], test_b[:n], tap_b[:n]
        coords(np.arange(lo, lo + n_rows, dtype=float), sx.reshape(n_rows, out_w), sy.reshape(n_rows, out_w))
        # NaN fails every comparison and +-inf one of them, so such a point
        # is never inside.
        np.floor(sy, out=y0)
        np.greater_equal(y0, r0 - 1, out=inside)
        inside &= np.less_equal(y0, r1 - 1, out=test)
        if not inside.any():
            continue
        np.floor(sx, out=x0)
        inside &= np.greater_equal(x0, -1, out=test)
        inside &= np.less_equal(x0, src_w - 1, out=test)
        if not inside.any():
            continue
        acc = out[lo * out_w : lo * out_w + n]
        # An outside point's index (perhaps cast from inf - inf) is clipped,
        # and whatever it gathers is zeroed below.
        with np.errstate(invalid="ignore", over="ignore"):
            # (y0 - (r0 - 1)) * pad_w + x0 + 1, exact for an inside point
            np.multiply(y0, pad_w, out=weight)
            weight += x0
            np.add(weight, 1 - (r0 - 1) * pad_w, out=index, casting="unsafe")
            for w, offset in zip(_bilinear_weights(sx, sy, x0, y0, weight), (0, 1, pad_w, pad_w + 1)):
                np.take(flat[offset:], index, axis=0, mode="clip", out=tap)
                tap *= w[:, None]
                kept = (acc.copy() if flat.shape[1] == 1 else tap) if nan else None
                acc += tap
                if nan:  # numpy's add keeps either NaN, the CSR product the first of one channel, the last of several
                    np.copyto(acc, kept, where=np.isnan(kept))
        if not inside.all():
            np.copyto(acc, 0.0, where=np.logical_not(inside, out=test)[:, None])
    return out.reshape((out_h, out_w) + img.shape[2:])
