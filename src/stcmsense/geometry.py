"""Scene layout and angle/position conversions on the 2-D sensing plane.

The base station (BS) and the reflecting panel both sit in the x-z plane
(y = 0 everywhere), the panel on the BS boresight above the BS: same x,
larger z, the one frame ``config.merge_config`` accepts.  Angles follow one
convention throughout the package:

* ``alpha`` -- BS-to-target angle from the BS boresight (+z), signed
  positive toward +x: ``alpha = atan2(x - bx, z - bz)``.
* ``xi`` -- panel-to-target angle from the panel boresight, which points
  into the scene (down, toward the BS): ``xi = atan2(x - sx, |z - sz|)``.

With both terminals on one vertical axis, alpha and xi carry the same sign,
and the BS/target/panel triangle obeys the law of sines; that is what makes
the target range recoverable from the two angles alone.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePoint, DegenerateTriangle

# Below this total angle the triangle is numerically collapsed: the range
# formula divides by sin(alpha + xi).
DEGENERATE_ANGLE_SUM = 1e-3

_TERMINAL_EPS = 1e-9


class TargetKind(enum.Enum):
    ABSENT = "absent"
    HUMAN_LIKE = "human_like"
    OBJECT_LIKE = "object_like"


@dataclass(frozen=True)
class SceneGeometry:
    """BS/panel placement and the rectangular sensing plane.

    Attributes
    ----------
    bs_center, stcm_center : (3,) arrays, meters; both in the y = 0 plane.
    x_bounds, z_bounds : (min, max) extents of the sensing area, meters.
    """

    bs_center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    stcm_center: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 100.0]))
    x_bounds: tuple = (-80.0, 80.0)
    z_bounds: tuple = (0.0, 100.0)

    def __post_init__(self):
        object.__setattr__(self, "bs_center", np.asarray(self.bs_center, dtype=float))
        object.__setattr__(self, "stcm_center", np.asarray(self.stcm_center, dtype=float))
        if self.bs_center[1] != 0.0 or self.stcm_center[1] != 0.0:
            raise ValueError("BS and panel centers must lie in the y=0 plane")
        if self.d_s <= 0:
            raise ValueError("BS and panel centers must be distinct")

    @functools.cached_property
    def d_s(self) -> float:
        """BS-to-panel distance, meters, taken once per (frozen) geometry."""
        return float(np.linalg.norm(self.bs_center - self.stcm_center))


@dataclass(frozen=True)
class AnglePair:
    """BS-side and panel-side target angles, radians."""

    alpha: float
    xi: float


@dataclass(frozen=True)
class ScatterPoint:
    """Point target: position on the plane, amplitude-domain sqrt-RCS, kind.

    A stacked (n, 3) position stands for n targets of one RCS and kind.
    """

    position: np.ndarray
    rcs_sqrt: float
    kind: TargetKind = TargetKind.OBJECT_LIKE

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        if self.rcs_sqrt < 0:
            raise ValueError("rcs_sqrt must be nonnegative")
        if (self.rcs_sqrt == 0) != (self.kind is TargetKind.ABSENT):
            raise ValueError("rcs_sqrt == 0 iff kind is ABSENT")


def rcs_sqrt_from_dbsm(rcs_dbsm: float) -> float:
    """Amplitude-domain sqrt-RCS from a power-domain RCS in dB.m^2."""
    return 10.0 ** (rcs_dbsm / 20.0)


def terminal_mask(q, geom: SceneGeometry) -> np.ndarray:
    """True where a point, (3,) or stacked (n, 3), sits on the BS or panel
    phase center, where neither angle is defined."""
    q = np.asarray(q, dtype=float)
    return ((np.linalg.norm(q - geom.bs_center, axis=-1) < _TERMINAL_EPS)
            | (np.linalg.norm(q - geom.stcm_center, axis=-1) < _TERMINAL_EPS))


def _check_terminals(q: np.ndarray, geom: SceneGeometry) -> None:
    if terminal_mask(q, geom).any():
        raise DegeneratePoint("point coincides with the BS or panel center")


def angles_from_position(q, geom: SceneGeometry) -> AnglePair:
    """Angles (alpha, xi) of scene point ``q`` seen from the BS and the panel.

    Full-quadrant arctangents; the panel-side angle uses |z - sz| so the
    panel boresight points into the scene.  A point (3,) gives float angles;
    stacked points (n, 3) give (n,) arrays in the same pair.
    """
    q = np.asarray(q, dtype=float)
    _check_terminals(q, geom)
    bx, _, bz = geom.bs_center
    sx, _, sz = geom.stcm_center
    alpha = np.arctan2(q[..., 0] - bx, q[..., 2] - bz)
    xi = np.arctan2(q[..., 0] - sx, np.abs(q[..., 2] - sz))
    if q.ndim == 1:
        return AnglePair(alpha=float(alpha), xi=float(xi))
    return AnglePair(alpha=alpha, xi=xi)


def position_from_angles(angles: AnglePair, geom: SceneGeometry) -> np.ndarray:
    """Target position from the angle pair via the law of sines.

    The BS-target range is ``d_r = d_S sin(xi) / sin(alpha + xi)`` and the
    returned point is ``bs_center + d_r (sin(alpha), 0, cos(alpha))``.  Float
    angles give a point (3,); (n,) angle arrays give stacked points (n, 3).

    Raises
    ------
    DegenerateTriangle
        When any |alpha + xi| < 1e-3 rad (target on the BS-panel axis; range
        is unobservable) or any angle pair does not close a triangle.
    """
    a, x = np.asarray(angles.alpha, dtype=float), np.asarray(angles.xi, dtype=float)
    total = a + x
    bad = (np.abs(total) < DEGENERATE_ANGLE_SUM) | (np.abs(a) + np.abs(x) >= np.pi)
    if np.count_nonzero(bad):
        raise DegenerateTriangle(f"angle sum {total[bad][0]:.3e} rad does not identify a range")
    d_r = geom.d_s * np.sin(x) / np.sin(total)
    if np.count_nonzero(d_r <= 0):
        raise DegenerateTriangle("angles close no triangle on this side of the axis")
    # (3,) or (3, n) rays; a -0.0 y adds to the BS's y = 0.0 as +0.0
    return geom.bs_center + (d_r * np.array([np.sin(a), 0.0 * a, np.cos(a)])).T


def triangle_distances(q, geom: SceneGeometry):
    """(d_r, d_S, d_r') = BS-target, BS-panel and panel-target distances.

    Floats for a point (3,); d_r and d_r' are (n,) arrays for stacked points.
    """
    q = np.asarray(q, dtype=float)
    d_r = np.linalg.norm(q - geom.bs_center, axis=-1)
    d_rp = np.linalg.norm(q - geom.stcm_center, axis=-1)
    if q.ndim == 1:
        return float(d_r), geom.d_s, float(d_rp)
    return d_r, geom.d_s, d_rp


def jacobian_angles_to_position(q, geom: SceneGeometry) -> np.ndarray:
    """2x2 Jacobian d(alpha, xi)/d(x, z) at scene point ``q``.

    Rows are the gradients of alpha and xi; entries are the exact derivatives
    of :func:`angles_from_position` for points on the scene side of the panel
    plane, so the matrix matches central finite differences of that function.
    Stacked points (n, 3) give stacked (n, 2, 2) Jacobians.
    """
    q = np.asarray(q, dtype=float)
    _check_terminals(q, geom)
    bx, _, bz = geom.bs_center
    sx, _, sz = geom.stcm_center
    dxb, dzb = q[..., 0] - bx, q[..., 2] - bz
    db2 = dxb * dxb + dzb * dzb
    dxs = q[..., 0] - sx
    w = sz - q[..., 2]  # == |z - sz| on the scene side, below the panel
    ds2 = dxs * dxs + w * w
    rows = [[dzb / db2, -dxb / db2], [w / ds2, dxs / ds2]]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))
