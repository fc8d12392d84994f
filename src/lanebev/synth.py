"""Synthetic road scenes: parametric lanes, hilly height profiles, jittered rigs.

Scenes are fully determined by their seed.  Lane k of n follows

    y_k(x) = (k - (n - 1) / 2) * spacing + c2 * x**2
    z(x)   = hill_amplitude * sin(2 * pi * x / hill_wavelength)

with the quadratic coefficient c2 drawn once per scene from the configured
curvature range, sampled at 1 m over x in [3, 103].  The lanes share c2,
so adjacent lanes stay exactly `spacing` apart at every x and never meet.
The camera is the canonical forward-looking rig perturbed by seeded
rotation/translation jitter.  A ground-pattern renderer provides the
pixel-level oracle for homography and view-transform checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera_geometry import _MIN_DEPTH, CameraRig, Extrinsics, Intrinsics, _ground_homography, _homography_sample
from .errors import InvalidValue, ShapeMismatch
from .errors import _Declared, _instance, _instances, _numbers, _object_field, _scalar, _scalar_field, _tuple
from .lane_grid import GridSpec, Lane3D

LANE_X_START = 3.0
LANE_X_END = 103.0
LANE_POINT_SPACING = 1.0


@dataclass(frozen=True)
class SceneParams(_Declared):
    n_lanes: int = _scalar(4, "non-negative", integer=True)
    lane_spacing: float = _scalar(3.5, "positive")
    curvature: tuple[float, float] = _tuple((0.0, 0.0), shape=(2,), items="lo,hi")
    hill_amplitude: float = _scalar(0.0)
    hill_wavelength: float = _scalar(60.0, "positive")
    camera_jitter: tuple[float, float] = _tuple((0.0, 0.0), shape=(2,), items="deg,m")
    seed: int = _scalar(0, "non-negative", integer=True)

    def __post_init__(self):
        super().__post_init__()
        if self.curvature[0] > self.curvature[1]:
            raise InvalidValue(f"SceneParams.curvature: must be [lo, hi] with lo <= hi, got {self.curvature!r}")


@dataclass
class SceneRecord(_Declared):
    rig: CameraRig = _instance(cls=CameraRig)
    lanes: list[Lane3D] = _instances(cls=Lane3D)
    scene_tag: str = _instance("", cls=str)


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

    Zero jitter returns the canonical rig exactly.  Three seeded draws (the
    axis, the angle and the shift) are consumed regardless of magnitude so
    scenes stay reproducible when only the jitter amplitudes change.
    """
    _object_field("jittered_rig.rng", rng, np.random.Generator)
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
    _object_field("generate_scene.params", params, SceneParams)
    rng = np.random.default_rng(params.seed)
    c2 = rng.uniform(params.curvature[0], params.curvature[1])
    rig = jittered_rig(rng, *params.camera_jitter)

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
    """Render a BEV pattern as seen from the rig: a homography warp of the pattern.

    The pattern's rows run along forward x over the spec extent and its
    columns along lateral y: pattern pixel (column c, row r) sits at the
    ground point (x_min + (r + 0.5) * dx, y_min + (c + 0.5) * dy).  Call
    that affine map P^-1.  The z = 0 plane reaches the image through
    G = K [r1 r2 t] (camera_geometry._ground_homography), so H = G P^-1
    maps pattern pixels to image pixels, and every output pixel (u, v)
    samples the pattern bilinearly at P G^-1 @ (u, v, 1) with
    warp_image's sampler and row rule
    (camera_geometry._homography_sample): only the rows that can reach the
    pattern's non-zero rows are cast, so the sky and the ground beyond the
    far edge cost nothing.  The w of that point is 1 / depth of the ground
    point on the pixel's ray, so only points with 0 < w < 1 / _MIN_DEPTH,
    on the ground ahead of the camera, are sampled; any other gives +0.0,
    and so does every pixel when the camera centre lies on the ground plane
    (G is singular).  `out_size` is (width, height), default the rig's; a
    size that is not two non-negative integers raises InvalidValue naming
    `render_ground_pattern.out_size`, a `rig` that is not a CameraRig or a
    `spec` that is not a GridSpec InvalidValue naming it, and a pattern
    that is not 2-D or 3-D ShapeMismatch naming
    `render_ground_pattern.pattern`.
    """
    _object_field("render_ground_pattern.rig", rig, CameraRig)
    _object_field("render_ground_pattern.spec", spec, GridSpec)
    pat = _numbers("render_ground_pattern.pattern", pattern).astype(float, copy=False)
    if pat.ndim not in (2, 3):
        raise ShapeMismatch(f"render_ground_pattern.pattern: must be 2-D or 3-D, got shape {pat.shape}")
    # An empty pattern samples nothing; max() keeps its steps finite.
    dx = (spec.x_max - spec.x_min) / max(pat.shape[0], 1)
    dy = (spec.y_max - spec.y_min) / max(pat.shape[1], 1)
    to_ground = np.array([[0.0, dx, spec.x_min + 0.5 * dx], [dy, 0.0, spec.y_min + 0.5 * dy], [0.0, 0.0, 1.0]])
    g = _ground_homography(rig)
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:  # the camera centre lies on the ground, or so far off that rounding cancels its height
        ginv = np.full((3, 3), np.nan)
    hinv = np.linalg.inv(to_ground) @ ginv
    size = out_size if out_size is not None else rig.image_size
    return _homography_sample(pat, g @ to_ground, hinv, size, "render_ground_pattern", 1.0 / _MIN_DEPTH)


def checkerboard(
    spec: GridSpec = GridSpec(),
    square_x: float = 20.0,
    square_y: float = 4.0,
    px_per_cell: int = 1,
) -> np.ndarray:
    """BEV checkerboard pattern in [0, 1]; square sizes in meters.

    Raises InvalidValue naming `checkerboard.<arg>` unless `spec` is a
    GridSpec, the square sizes are positive and px_per_cell a positive
    integer, and NonFiniteInput on a NaN or infinite square size.
    """
    _object_field("checkerboard.spec", spec, GridSpec)
    square_x = _scalar_field("checkerboard.square_x", square_x, "positive")
    square_y = _scalar_field("checkerboard.square_y", square_y, "positive")
    px_per_cell = _scalar_field("checkerboard.px_per_cell", px_per_cell, "positive", integer=True)
    rows = spec.rows * px_per_cell
    cols = spec.cols * px_per_cell
    x = spec.x_min + (np.arange(rows) + 0.5) * (spec.x_max - spec.x_min) / rows
    y = spec.y_min + (np.arange(cols) + 0.5) * (spec.y_max - spec.y_min) / cols
    xi = np.floor(x / square_x).astype(int)
    yi = np.floor(y / square_y).astype(int)
    return ((xi[:, None] + yi[None, :]) % 2).astype(float)
