"""Synthetic road scenes: parametric lanes, hilly height profiles, jittered rigs.

Scenes are fully determined by their seed.  Lane k of n follows

    y_k(x) = (k - (n - 1) / 2) * spacing + c2 * x**2
    z(x)   = hill_amplitude * sin(2 * pi * x / hill_wavelength)

with the quadratic coefficient c2 drawn once per scene from the configured
curvature range, sampled at 1 m over x in [3, 103].  The camera is the
canonical forward-looking rig perturbed by seeded rotation/translation
jitter.  A ground-pattern renderer provides the pixel-level oracle for
homography and view-transform checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .camera_geometry import CameraRig, Extrinsics, Intrinsics, _sample_rows, project_ground_points
from .errors import DegenerateDepth
from .lane_grid import GridSpec, Lane3D

LANE_X_START = 3.0
LANE_X_END = 103.0
LANE_POINT_SPACING = 1.0


@dataclass(frozen=True)
class SceneParams:
    n_lanes: int = 4
    lane_spacing: float = 3.5
    curvature: tuple[float, float] = (0.0, 0.0)
    hill_amplitude: float = 0.0
    hill_wavelength: float = 60.0
    camera_jitter: tuple[float, float] = (0.0, 0.0)  # (degrees, meters)
    seed: int = 0

    def __post_init__(self):
        if self.n_lanes < 0:
            raise ValueError(f"n_lanes must be >= 0, got {self.n_lanes}")
        if self.lane_spacing <= 0:
            raise ValueError(f"lane_spacing must be positive, got {self.lane_spacing}")
        if self.hill_wavelength <= 0:
            raise ValueError(f"hill_wavelength must be positive, got {self.hill_wavelength}")
        for name in ("curvature", "camera_jitter"):
            if np.shape(getattr(self, name)) != (2,):
                raise ValueError(f"{name} must be a pair, got {getattr(self, name)!r}")


@dataclass
class SceneRecord:
    rig: CameraRig
    lanes: list[Lane3D] = field(default_factory=list)
    scene_tag: str = ""


def canonical_rig() -> CameraRig:
    """The fleet-reference forward-looking camera, 1.5 m above the ground.

    Camera x = -road y (right), camera y = -road z (down), camera z = road x.
    """
    rotation = np.array(
        [
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
            [1.0, 0.0, 0.0],
        ]
    )
    center = np.array([0.0, 0.0, 1.5])
    return CameraRig(
        intrinsics=Intrinsics(fx=1000.0, fy=1000.0, cx=512.0, cy=288.0),
        extrinsics=Extrinsics(rotation=rotation, translation=-rotation @ center),
        image_size=(1024, 576),
    )


def _rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation for a unit axis."""
    kx, ky, kz = axis
    k = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def jittered_rig(rng: np.random.Generator, rot_deg: float, trans_m: float) -> CameraRig:
    """Canonical rig with a random small pose perturbation.

    Zero jitter returns the canonical rig exactly.  Two seeded draws are
    consumed regardless of magnitude so scenes stay reproducible when only
    the jitter amplitudes change.
    """
    base = canonical_rig()
    axis = rng.normal(size=3)
    angle = rng.uniform(-1.0, 1.0) * np.deg2rad(rot_deg)
    shift = rng.uniform(-1.0, 1.0, size=3) * trans_m
    if rot_deg == 0.0 and trans_m == 0.0:
        return base
    axis_norm = np.linalg.norm(axis)
    rot = base.extrinsics.rotation
    if axis_norm > 0 and angle != 0.0:
        rot = _rotation_about_axis(axis / axis_norm, angle) @ rot
    center = base.extrinsics.camera_center + shift
    return CameraRig(
        intrinsics=base.intrinsics,
        extrinsics=Extrinsics(rotation=rot, translation=-rot @ center),
        image_size=base.image_size,
    )


def generate_scene(params: SceneParams) -> SceneRecord:
    """Deterministically build lanes and a jittered rig from the seed."""
    rng = np.random.default_rng(params.seed)
    c2 = rng.uniform(params.curvature[0], params.curvature[1])
    rig = jittered_rig(rng, *params.camera_jitter)

    max_c2 = max(abs(params.curvature[0]), abs(params.curvature[1]))
    if params.n_lanes >= 2 and params.lane_spacing <= 2.0 * max_c2 * LANE_X_END**2:
        warnings.warn(
            "lane_spacing may not guarantee non-intersecting lanes at this curvature",
            stacklevel=2,
        )

    xs = np.arange(LANE_X_START, LANE_X_END + 0.5 * LANE_POINT_SPACING, LANE_POINT_SPACING)
    z = params.hill_amplitude * np.sin(2.0 * np.pi * xs / params.hill_wavelength)
    lanes = []
    for k in range(params.n_lanes):
        y = (k - (params.n_lanes - 1) / 2.0) * params.lane_spacing + c2 * xs**2
        lanes.append(Lane3D(points=np.column_stack([xs, y, z]), id=k + 1))

    tag = "curve" if abs(c2) > 1e-6 else "straight"
    if params.hill_amplitude != 0.0:
        tag += "+updown"
    return SceneRecord(rig=rig, lanes=lanes, scene_tag=tag)


def render_ground_pattern(
    rig: CameraRig,
    pattern: np.ndarray,
    spec: GridSpec = GridSpec(),
    out_size: tuple[int, int] | None = None,
) -> np.ndarray:
    """Render a BEV pattern as seen from the rig, by exact ray-plane casting.

    Every output pixel's ray is intersected with the z = 0 plane and the
    pattern (rows = forward x over the spec extent, columns = lateral y) is
    sampled bilinearly there.  Rays that do not hit the ground in front of
    the camera give 0.  The rays are cast one row block at a time by the
    sampler's kernel, and a block with no ray on the pattern is not
    sampled.  `out_size` is (width, height), default the rig's.

    Rays are cast only for the rows of the pattern's ground footprint.  The
    sampler keeps a point only if its floors fall inside the pattern, so
    only ground points in the spec extent widened by half a pattern pixel
    on each side can add to the output.  When all four corners of that
    rectangle lie in front of the camera, so does all of it, and its image
    is the convex quad of the projected corners.  A row more than one row
    above or below the quad's rows then gathers nothing, stays +0.0 and
    casts no rays: the sky, and the ground beyond the pattern's far edge.
    The one-row margin keeps the output the same bytes as casting every
    row, because it is many orders of magnitude wider than the rounding
    that separates the projected corners from the cast rays.  If a corner
    is behind the camera, every row is cast.
    """
    pat = np.asarray(pattern, dtype=float)
    w, h = out_size if out_size is not None else rig.image_size

    intr = rig.intrinsics
    rot_t = rig.extrinsics.rotation.T
    center = rig.extrinsics.camera_center
    rows_p, cols_p = pat.shape[:2]
    uu = np.arange(w, dtype=float)

    def coords(v):
        yn = (v[:, None] - intr.cy) / intr.fy
        xn = (uu - intr.cx - intr.skew * yn) / intr.fx
        d_cam = np.stack([xn, np.broadcast_to(yn, xn.shape), np.ones_like(xn)], axis=-1)
        d_road = d_cam @ rot_t.T

        dz = d_road[:, :, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -center[2] / dz
        # t equals the camera-frame depth because the ray direction has unit
        # camera z; only strictly positive depths hit the ground ahead.
        valid = np.isfinite(t) & (t > 1e-9)
        t = np.where(valid, t, np.nan)
        gx = center[0] + t * d_road[:, :, 0]
        gy = center[1] + t * d_road[:, :, 1]

        ix = (gx - spec.x_min) / (spec.x_max - spec.x_min) * rows_p - 0.5
        iy = (gy - spec.y_min) / (spec.y_max - spec.y_min) * cols_p - 0.5
        return iy, ix  # pattern axes: row = x, col = y

    return _sample_rows(pat, (h, w), coords, _footprint_rows(rig, spec, (rows_p, cols_p)))


def _footprint_rows(rig: CameraRig, spec: GridSpec, pattern_hw: tuple[int, int]) -> tuple[int, int] | None:
    """The rows [lo, hi) that render_ground_pattern casts for a pattern of
    pattern_hw pixels over the spec extent: the rows of its widened extent's
    projected corners, one row of margin above and below, or None (every
    row) for an empty pattern, a corner behind the camera or a corner that
    projects to no finite pixel."""
    rows_p, cols_p = pattern_hw
    if rows_p == 0 or cols_p == 0:
        return None
    half_x = 0.5 * (spec.x_max - spec.x_min) / rows_p
    half_y = 0.5 * (spec.y_max - spec.y_min) / cols_p
    xs = (spec.x_min - half_x, spec.x_max + half_x)
    ys = (spec.y_min - half_y, spec.y_max + half_y)
    corners = [(x, y) for x in xs for y in ys]
    try:
        v = project_ground_points(rig, corners)[:, 1]
    except DegenerateDepth:
        return None
    if not np.isfinite(v).all():
        return None
    return int(np.floor(v.min())) - 1, int(np.ceil(v.max())) + 2


def checkerboard(
    spec: GridSpec = GridSpec(),
    square_x: float = 20.0,
    square_y: float = 4.0,
    px_per_cell: int = 1,
) -> np.ndarray:
    """BEV checkerboard pattern in [0, 1]; square sizes in meters."""
    rows = spec.rows * px_per_cell
    cols = spec.cols * px_per_cell
    x = spec.x_min + (np.arange(rows) + 0.5) * (spec.x_max - spec.x_min) / rows
    y = spec.y_min + (np.arange(cols) + 0.5) * (spec.y_max - spec.y_min) / cols
    xi = np.floor(x / square_x).astype(int)
    yi = np.floor(y / square_y).astype(int)
    return ((xi[:, None] + yi[None, :]) % 2).astype(float)
