"""Pinhole cameras, ground-plane projection and homography estimation.

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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DegenerateDepth,
    EmptyInput,
    MixedImageSizes,
    NonFiniteInput,
    SingularHomography,
)

if TYPE_CHECKING:
    from scipy import sparse

# Default ground anchor points (meters) for homography estimation: corners
# of a 100 m x 10 m box centered on the forward axis, inside the BEV range.
DEFAULT_GROUND_POINTS = ((3.0, -5.0), (3.0, 5.0), (103.0, -5.0), (103.0, 5.0))

_MIN_DEPTH = 1e-9

# Output points per block in the sampler kernel (_sample_rows), rounded
# down to whole output rows and at least one row.  A block's coordinates
# and taps fit in cache and the allocator reuses them, where image-sized
# ones would fault in fresh pages on every call.
_SAMPLE_BLOCK = 16384


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsic parameters in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if not np.isfinite(v):
                raise NonFiniteInput(f"{name} must be finite, got {v}")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")

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
class Extrinsics:
    """Road-to-camera rigid transform: p_cam = rotation @ p_road + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        for name, v in (("rotation", r), ("translation", t)):
            if not np.isfinite(v).all():
                raise NonFiniteInput(f"{name} holds NaN or infinite values")
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf or NaN, refused next
            off = np.max(np.abs(r.T @ r - np.eye(3)))
        if not off <= 1e-9:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation determinant is not +1 within 1e-9")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @property
    def camera_center(self) -> np.ndarray:
        """Camera optical center expressed in road coordinates."""
        return -self.rotation.T @ self.translation


@dataclass(frozen=True)
class CameraRig:
    """One camera: intrinsics, extrinsics and image size (width, height)."""

    intrinsics: Intrinsics
    extrinsics: Extrinsics
    image_size: tuple[int, int]

    def __post_init__(self):
        w, h = self.image_size
        if w <= 0 or h <= 0:
            raise ValueError(f"image_size components must be positive, got {self.image_size}")
        object.__setattr__(self, "image_size", (int(w), int(h)))


@dataclass(frozen=True)
class Homography:
    """3x3 ground-plane mapping between two camera images, normalized so matrix[2][2] = 1."""

    matrix: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"homography must be 3x3, got {m.shape}")
        if not np.isfinite(m).all():
            raise NonFiniteInput("homography matrix holds NaN or infinite values")
        if abs(m[2, 2]) < 1e-12:
            raise SingularHomography("matrix[2][2] is zero; cannot normalize")
        with np.errstate(over="ignore"):  # an overflow is refused on the next line
            m = m / m[2, 2]
        if not np.isfinite(m).all():
            raise NonFiniteInput("homography matrix overflows when normalized by matrix[2][2]")
        if abs(np.linalg.det(m)) < 1e-12:
            raise SingularHomography("homography matrix is singular")
        object.__setattr__(self, "matrix", m)

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self.matrix))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map (N, 2) pixel points through the homography."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ph = np.column_stack([pts, np.ones(len(pts))])
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
    return tuple(project_ground_points(rig, [(x, y)])[0])


def project_ground_points(rig: CameraRig, points_xy: np.ndarray) -> np.ndarray:
    """Vectorized projection of (N, 2) ground points; returns (N, 2) pixels.

    Same contract as project_ground_point, raised on the first bad depth.
    """
    pts = np.atleast_2d(np.asarray(points_xy, dtype=float))
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
    orthonormal matrix with determinant +1.
    """
    if not rigs:
        raise EmptyInput("mean_virtual_camera requires at least one rig")
    sizes = {rig.image_size for rig in rigs}
    if len(sizes) > 1:
        raise MixedImageSizes(f"rigs have different image sizes: {sorted(sizes)}")

    k = np.mean(
        [[r.intrinsics.fx, r.intrinsics.fy, r.intrinsics.cx, r.intrinsics.cy, r.intrinsics.skew] for r in rigs],
        axis=0,
    )
    rot = _nearest_rotation(np.mean([r.extrinsics.rotation for r in rigs], axis=0))
    trans = np.mean([r.extrinsics.translation for r in rigs], axis=0)
    return CameraRig(
        intrinsics=Intrinsics(fx=k[0], fy=k[1], cx=k[2], cy=k[3], skew=k[4]),
        extrinsics=Extrinsics(rotation=rot, translation=trans),
        image_size=rigs[0].image_size,
    )


def _conditioning_transform(pts: np.ndarray) -> np.ndarray:
    """Hartley normalization: centroid to origin, mean distance sqrt(2)."""
    centroid = pts.mean(axis=0)
    dist = np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean()
    if dist < 1e-12:
        raise DegenerateConfiguration("all projected points coincide")
    s = np.sqrt(2.0) / dist
    return np.array(
        [
            [s, 0.0, -s * centroid[0]],
            [0.0, s, -s * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def _dlt(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Direct linear transform for src -> dst pixel correspondences."""
    t_src = _conditioning_transform(src)
    t_dst = _conditioning_transform(dst)
    sh = np.column_stack([src, np.ones(len(src))]) @ t_src.T
    dh = np.column_stack([dst, np.ones(len(dst))]) @ t_dst.T

    rows = []
    for (x, y, _), (xp, yp, _) in zip(sh, dh):
        rows.append([0.0, 0.0, 0.0, -x, -y, -1.0, yp * x, yp * y, yp])
        rows.append([x, y, 1.0, 0.0, 0.0, 0.0, -xp * x, -xp * y, -xp])
    a = np.asarray(rows)

    _, sigma, vt = np.linalg.svd(a)
    # A one-parameter solution family (three collinear points, repeated
    # points) shows up as a second vanishing singular value.
    if sigma[7] < 1e-10 * sigma[0]:
        raise DegenerateConfiguration("points do not determine a unique homography")
    h_norm = vt[-1].reshape(3, 3)
    return np.linalg.inv(t_dst) @ h_norm @ t_src


def compute_homography(
    src: CameraRig,
    dst: CameraRig,
    ground_points: list[tuple[float, float]] | None = None,
) -> Homography:
    """Ground-plane homography mapping src pixels to dst pixels.

    The given road-frame (x, y) anchors (default DEFAULT_GROUND_POINTS) are
    projected through both rigs and the 8-d.o.f. homography is solved by
    normalized DLT least squares.
    """
    pts = np.asarray(ground_points if ground_points is not None else DEFAULT_GROUND_POINTS, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 4:
        raise DegenerateConfiguration(f"need at least 4 ground points, got {pts.shape}")
    u_src = project_ground_points(src, pts)
    u_dst = project_ground_points(dst, pts)
    h = _dlt(u_src, u_dst)
    if abs(h[2, 2]) < 1e-12:
        raise DegenerateConfiguration("homography normalization failed (h[2,2] ~ 0)")
    return Homography(h)


def warp_image(image: np.ndarray, h: Homography, out_size: tuple[int, int]) -> np.ndarray:
    """Inverse-warp an image by a homography, like cv2.warpPerspective.

    Each output pixel (u, v) samples the input at H^-1 @ (u, v, 1) with
    bilinear interpolation; samples outside the source are 0.  The source
    coordinates are made one row block at a time and sampled by the same
    kernel as bilinear_sample, so no image-sized coordinate array is built.
    `out_size` is (width, height).  Accepts (H, W) or (H, W, C) arrays.
    """
    out_w, out_h = out_size
    hinv = np.linalg.inv(h.matrix)  # Homography refuses |det| < 1e-12

    uu = np.arange(out_w, dtype=float)

    def coords(v):
        vv = v[:, None]
        w = hinv[2, 0] * uu + hinv[2, 1] * vv + hinv[2, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            sx = (hinv[0, 0] * uu + hinv[0, 1] * vv + hinv[0, 2]) / w
            sy = (hinv[1, 0] * uu + hinv[1, 1] * vv + hinv[1, 2]) / w
        return sx, sy

    return _sample_rows(image, (out_h, out_w), coords)


def _bilinear_taps(sx: np.ndarray, sy: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Floors x0, y0 of the points (sx, sy) and their four bilinear weights
    in the order (x0, y0), (x0+1, y0), (x0, y0+1), (x0+1, y0+1)."""
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    with np.errstate(invalid="ignore"):
        fx = sx - x0
        fy = sy - y0
        gx = 1 - fx
        gy = 1 - fy
        return x0, y0, (gx * gy, fx * gy, gx * fy, fx * fy)


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
    x0, y0, weights = _bilinear_taps(sx, sy)
    xi = x0[:, None] + [0, 1, 0, 1]
    yi = y0[:, None] + [0, 0, 1, 1]
    # NaN fails every comparison and +-inf one of them, so non-finite
    # points keep no neighbour and their inf - inf weights are dropped.
    keep = (xi >= 0) & (xi < src_w) & (yi >= 0) & (yi < src_h)
    cols = (yi[keep] * src_w + xi[keep]).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sparse.csr_array((np.column_stack(weights)[keep], cols, indptr), shape=(len(sx), src_h * src_w))


def bilinear_sample(img: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Sample an (H, W) or (H, W, C) image at real coordinates (sx, sy).

    The result has the shape of sx followed by the image's channel axis, if
    any, and equals bilinear_operator(sx, sy, (H, W)) @ img bit for bit
    without building the operator (see _sample_rows, which this runs with
    every point as one output row).
    """
    px, py = np.ravel(sx), np.ravel(sy)

    def coords(v):
        points = slice(int(v[0]), int(v[0]) + len(v))
        return px[points], py[points]

    out = _sample_rows(img, (px.size, 1), coords)
    return out.reshape(np.shape(sx) + out.shape[2:])


def _sample_rows(img: np.ndarray, out_hw: tuple[int, int], coords, rows: tuple[int, int] | None = None) -> np.ndarray:
    """Bilinearly sample an (H, W) or (H, W, C) image into an (out_h, out_w)
    grid of points, one block of whole output rows at a time.

    coords(v) gets the block's row indices v as floats and returns the
    source coordinates (sx, sy) of its points, each of shape
    (len(v), out_w).  The four neighbours are gathered from a zero-padded
    copy of the image and their weighted values are added from 0.0 in
    bilinear_operator's storage order, as scipy's CSR product adds them, so
    the result equals the operator product bit for bit.  A neighbour
    outside the source reads the pad and adds +0.0; a point with no
    neighbour inside, or a non-finite one, gives 0.  A block with no point
    inside the source is not gathered, and its rows stay +0.0.

    rows, if given, is a half-open range [lo, hi) of output rows that the
    caller knows to hold every point inside the source.  It is clamped to
    [0, out_h) once out_hw is known to be valid; coords is called only for
    the rows in it, and the rows outside it stay +0.0.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim not in (2, 3):
        raise ValueError(f"image must be 2-D or 3-D, got shape {img.shape}")
    src_h, src_w = img.shape[:2]
    pad_w = src_w + 2
    padded = np.zeros((src_h + 2, pad_w) + img.shape[2:])
    padded[1:-1, 1:-1] = img
    flat = padded.reshape((src_h + 2) * pad_w, -1)

    out_h, out_w = out_hw
    if not all(isinstance(n, (int, np.integer)) and n >= 0 for n in out_hw):
        raise ValueError(f"output height and width must be non-negative integers, got {out_h!r} and {out_w!r}")
    first, end = (0, out_h) if rows is None else (min(max(r, 0), out_h) for r in rows)
    out = np.zeros((out_h * out_w, flat.shape[1]))
    step = max(1, _SAMPLE_BLOCK // max(out_w, 1))
    for lo in range(first, end, step):
        v = np.arange(lo, min(lo + step, end), dtype=float)
        sx, sy = coords(v)
        x0, y0, weights = _bilinear_taps(np.ravel(sx), np.ravel(sy))
        # NaN fails every comparison and +-inf one of them; where() drops
        # the index of such a point, which may be inf - inf.
        inside = (x0 >= -1) & (x0 <= src_w - 1) & (y0 >= -1) & (y0 <= src_h - 1)
        if not inside.any():
            continue
        with np.errstate(invalid="ignore"):
            base = np.where(inside, (y0 + 1) * pad_w + (x0 + 1), 0).astype(np.intp)
        acc = out[lo * out_w : (lo + len(v)) * out_w]
        with np.errstate(invalid="ignore", over="ignore"):
            for w, offset in zip(weights, (0, 1, pad_w, pad_w + 1)):
                acc += w[:, None] * np.take(flat, base + offset, axis=0)
        if not inside.all():
            acc[~inside] = 0.0
    return out.reshape((out_h, out_w) + img.shape[2:])
