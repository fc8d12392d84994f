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

import numpy as np
from scipy import sparse

from .errors import (
    DegenerateConfiguration,
    DegenerateDepth,
    EmptyInput,
    MixedImageSizes,
    SingularHomography,
)

# Default ground anchor points (meters) for homography estimation: corners
# of a 100 m x 10 m box centered on the forward axis, inside the BEV range.
DEFAULT_GROUND_POINTS = ((3.0, -5.0), (3.0, 5.0), (103.0, -5.0), (103.0, 5.0))

_MIN_DEPTH = 1e-9


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsic parameters in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
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
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9:
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
        if abs(m[2, 2]) < 1e-12:
            raise SingularHomography("matrix[2][2] is zero; cannot normalize")
        m = m / m[2, 2]
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


def project_ground_point(rig: CameraRig, x: float, y: float) -> tuple[float, float]:
    """Project road-frame ground point (x, y, 0) to pixel coordinates.

    Raises DegenerateDepth if the point's camera-frame depth is <= 1e-9.
    The result may lie outside the image bounds; callers decide what to do.
    """
    p_cam = rig.extrinsics.rotation @ np.array([x, y, 0.0]) + rig.extrinsics.translation
    depth = p_cam[2]
    if depth <= _MIN_DEPTH:
        raise DegenerateDepth(f"ground point ({x}, {y}) has depth {depth:.3g}")
    uvw = rig.intrinsics.matrix @ p_cam
    return uvw[0] / uvw[2], uvw[1] / uvw[2]


def project_ground_points(rig: CameraRig, points_xy: np.ndarray) -> np.ndarray:
    """Vectorized projection of (N, 2) ground points; returns (N, 2) pixels.

    Same contract as project_ground_point, raised on the first bad depth.
    """
    pts = np.atleast_2d(np.asarray(points_xy, dtype=float))
    p_road = np.column_stack([pts, np.zeros(len(pts))])
    p_cam = p_road @ rig.extrinsics.rotation.T + rig.extrinsics.translation
    depths = p_cam[:, 2]
    if np.any(depths <= _MIN_DEPTH):
        bad = pts[int(np.argmin(depths))]
        raise DegenerateDepth(f"ground point ({bad[0]}, {bad[1]}) has depth {depths.min():.3g}")
    uvw = p_cam @ rig.intrinsics.matrix.T
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
    bilinear interpolation; samples outside the source are 0.
    `out_size` is (width, height).  Accepts (H, W) or (H, W, C) arrays.
    """
    out_w, out_h = out_size
    try:
        hinv = np.linalg.inv(h.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - Homography validates
        raise SingularHomography(str(exc)) from exc

    uu, vv = np.meshgrid(np.arange(out_w, dtype=float), np.arange(out_h, dtype=float))
    w = hinv[2, 0] * uu + hinv[2, 1] * vv + hinv[2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        sx = (hinv[0, 0] * uu + hinv[0, 1] * vv + hinv[0, 2]) / w
        sy = (hinv[1, 0] * uu + hinv[1, 1] * vv + hinv[1, 2]) / w
    return bilinear_sample(image, sx, sy)


def bilinear_operator(sx: np.ndarray, sy: np.ndarray, src_shape: tuple[int, int]) -> sparse.csr_array:
    """Sparse bilinear sampling operator over a row-major flattened source.

    Row i holds the bilinear weights of the point (sx[i], sy[i]) (column,
    row) on its four neighbour pixels of an (H, W) source, stored in the
    order (x0, y0), (x0+1, y0), (x0, y0+1), (x0+1, y0+1).  Neighbours
    outside the source are not stored, so samples fade to 0 at the border
    like a constant-0 border in OpenCV; non-finite points give a zero row.
    """
    src_h, src_w = src_shape
    sx, sy = np.ravel(sx), np.ravel(sy)
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    xi = x0[:, None] + [0, 1, 0, 1]
    yi = y0[:, None] + [0, 0, 1, 1]
    # NaN fails every comparison and +-inf one of them, so non-finite
    # points keep no neighbour and their inf - inf weights are dropped.
    keep = (xi >= 0) & (xi < src_w) & (yi >= 0) & (yi < src_h)
    with np.errstate(invalid="ignore"):
        fx = sx - x0
        fy = sy - y0
        weights = np.column_stack([(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy])
    cols = (yi * src_w + xi)[keep].astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sparse.csr_array((weights[keep], cols, indptr), shape=(len(sx), src_h * src_w))


def bilinear_sample(img: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Sample an (H, W) or (H, W, C) image at real coordinates (sx, sy).

    The result has the shape of sx followed by the image's channel axis, if
    any; weights are those of bilinear_operator.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim not in (2, 3):
        raise ValueError(f"image must be 2-D or 3-D, got shape {img.shape}")
    op = bilinear_operator(sx, sy, img.shape[:2])
    return (op @ img.reshape(op.shape[1], -1)).reshape(np.shape(sx) + img.shape[2:])
