"""Concentric-disk geometry, boundary cutoffs, and visibility sets.

Sources live in an inner disk, detectors on the boundary circle of a larger
concentric disk.  A smooth cutoff supported on part of the outgoing boundary
phase space models which exiting rays are actually recorded; the visible and
microlocally visible sets describe what that cutoff lets one reconstruct.

All directions are unit vectors in R^2.  Boundary points of the outer circle
are parametrized by polar angle.  Rasters are (ny, nx) arrays over the square
[-half_width, half_width]^2 with values at pixel centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def rotate90(v):
    """Rotate vectors by +pi/2.  Works on any (..., 2) array."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def uniform_angles(n):
    """The n uniformly spaced angles 2*pi*k/n, k = 0..n-1."""
    return TWO_PI * np.arange(n) / n


def unit_vector(angle):
    """Unit vector(s) (cos a, sin a) for polar angle(s) a."""
    a = np.asarray(angle, dtype=float)
    return np.stack([np.cos(a), np.sin(a)], axis=-1)


@dataclass(frozen=True)
class DiskGeometry:
    """Two concentric origin-centered disks, 0 < radius_inner < radius_outer."""

    radius_inner: float
    radius_outer: float

    def __post_init__(self):
        if not (0.0 < self.radius_inner < self.radius_outer):
            raise ValueError(
                "need 0 < radius_inner < radius_outer, got "
                f"{self.radius_inner!r}, {self.radius_outer!r}"
            )


@dataclass(frozen=True)
class Grid:
    """Uniform pixel raster over the square [-half_width, half_width]^2.

    Arrays indexed ``values[iy, ix]``; the flat pixel index is
    ``p = iy * nx + ix``.  Pixel centers are offset half a cell from the box
    edges.
    """

    nx: int
    ny: int
    half_width: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 pixels per axis")
        if self.half_width <= 0.0:
            raise ValueError("half_width must be positive")

    @property
    def hx(self):
        return 2.0 * self.half_width / self.nx

    @property
    def hy(self):
        return 2.0 * self.half_width / self.ny

    @property
    def pixel_area(self):
        return self.hx * self.hy

    @property
    def n_pixels(self):
        return self.nx * self.ny

    @property
    def xs(self):
        return -self.half_width + self.hx * (np.arange(self.nx) + 0.5)

    @property
    def ys(self):
        return -self.half_width + self.hy * (np.arange(self.ny) + 0.5)

    def centers(self):
        """Pixel center coordinates, shape (ny, nx, 2)."""
        X, Y = np.meshgrid(self.xs, self.ys)
        return np.stack([X, Y], axis=-1)

    def points_flat(self):
        """Pixel centers flattened to (nx*ny, 2) in flat-index order."""
        return self.centers().reshape(-1, 2)

    def disk_mask(self, radius):
        """Boolean (ny, nx) mask of pixels whose center lies inside the disk."""
        c = self.centers()
        return c[..., 0] ** 2 + c[..., 1] ** 2 < radius * radius


def exit_times(geom, points, thetas):
    """Forward exit parameter t+ >= 0 of the outer circle, vectorized.

    No domain validation; callers pass points with |x| <= radius_outer.
    """
    points = np.asarray(points, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    b = np.sum(points * thetas, axis=-1)
    # A numpy scalar square overflows to inf where a Python float one raises.
    c = np.sum(points * points, axis=-1) - np.float64(geom.radius_outer) ** 2
    disc = np.maximum(b * b - c, 0.0)
    return -b + np.sqrt(disc)


def exit_points(geom, points, thetas):
    """Exit point and travel time along +theta, vectorized (no validation)."""
    t = exit_times(geom, points, thetas)
    points = np.asarray(points, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    return points + t[..., None] * thetas, t


# ---------------------------------------------------------------------------
# boundary cutoff
# ---------------------------------------------------------------------------


def smooth_step(d, w):
    """C-infinity ramp: 0 for d <= 0, 1 for d >= w, smooth in between.

    The profile on the transition band is exp(1 - 1/(1 - s^2)) with
    s = 1 - d/w, so it glues flatly to both plateaus.  w = 0 degenerates to
    the hard indicator of d > 0.  The plateaus are written directly and the
    bump is evaluated only on the rest, which includes NaN, so NaN
    propagates; the result has the shape of d, 0-d included.
    """
    d = np.asarray(d, dtype=float)
    if w <= 0.0:
        return (d > 0.0).astype(float)
    top = d >= w
    band = ~(top | (d <= 0.0))
    out = np.zeros(d.shape)
    out[top] = 1.0
    with np.errstate(divide="ignore", over="ignore", under="ignore",
                     invalid="ignore"):
        s = 1.0 - d[band] / w
        out[band] = np.exp(1.0 - 1.0 / (1.0 - s * s))
    return out


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth cutoff chi on outgoing boundary phase space.

    arcs
        Tuple of (angle_start, angle_end) pairs; each arc spans
        counterclockwise from start to end, width in (0, 2*pi].
    cones
        Per-arc optional half-angle restriction on the angle between the
        outgoing direction and the outward normal.  None means all outgoing
        directions are kept.
    transition_width
        Angular width (radians) of the smooth roll-off applied inward from
        every arc edge and cone edge.  The cutoff equals 1 on the shrunk
        region and 0 outside the arcs;  it always vanishes where
        theta . nu(z) <= 0.
    """

    arcs: tuple
    cones: tuple
    transition_width: float = 0.0

    def __post_init__(self):
        if len(self.arcs) != len(self.cones):
            raise ValueError("arcs and cones must have equal length")
        if self.transition_width < 0.0:
            raise ValueError("transition_width must be >= 0")
        for a0, a1 in self.arcs:
            if not (a1 > a0):
                raise ValueError("arc must satisfy angle_end > angle_start")
            if a1 - a0 > TWO_PI + 1e-12:
                raise ValueError("arc width cannot exceed 2*pi")
        for c in self.cones:
            if c is not None and not (0.0 < c <= math.pi):
                raise ValueError("cone half-angle must lie in (0, pi]")

    @classmethod
    def from_arcs(cls, arcs, cones=None, transition_width=0.0):
        arcs = tuple((float(a), float(b)) for a, b in arcs)
        if cones is None:
            cones = (None,) * len(arcs)
        else:
            cones = tuple(None if c is None else float(c) for c in cones)
        return cls(arcs=arcs, cones=cones, transition_width=float(transition_width))

    @classmethod
    def full_data(cls):
        """Every outgoing ray is recorded."""
        return cls.from_arcs([(0.0, TWO_PI)])

    @classmethod
    def empty(cls):
        """Nothing is recorded."""
        return cls(arcs=(), cones=(), transition_width=0.0)

    @property
    def is_empty(self):
        return len(self.arcs) == 0

    @property
    def is_full(self):
        """True when chi is identically 1 on the outgoing set."""
        return any(
            a1 - a0 >= TWO_PI - 1e-12 and c is None
            for (a0, a1), c in zip(self.arcs, self.cones)
        )

    @property
    def direction_restricted(self):
        return any(c is not None for c in self.cones)


def cutoff_boundary_values(spec, boundary_angle, normal_dot):
    """Evaluate the cutoff from boundary angles and theta . nu values.

    Vectorized core shared by every cutoff entry point; inputs broadcast.
    """
    phi = np.asarray(boundary_angle, dtype=float)
    m = np.asarray(normal_dot, dtype=float)
    phi, m = np.broadcast_arrays(phi, m)
    total = np.zeros(phi.shape)
    w = spec.transition_width
    for (a0, a1), cone in zip(spec.arcs, spec.cones):
        width = a1 - a0
        if width >= TWO_PI - 1e-12:
            arc_f = np.ones(phi.shape)
        else:
            rel = np.mod(phi - a0, TWO_PI)
            inside = rel <= width
            d = np.where(inside, np.minimum(rel, width - rel), -1.0)
            arc_f = smooth_step(d, w)
        if cone is not None:
            psi = np.arccos(np.clip(m, -1.0, 1.0))
            arc_f = arc_f * smooth_step(cone - psi, w)
        total = np.maximum(total, arc_f)
    return np.where(m > 0.0, total, 0.0)


def cutoff_extended_values(spec, geom, points, thetas):
    """chi^#(x, theta): cutoff at the forward exit, constant along rays.

    Vectorized over leading axes of ``points``/``thetas`` (shape (..., 2)).
    """
    z, t = exit_points(geom, points, thetas)
    phi = np.arctan2(z[..., 1], z[..., 0])
    thetas = np.asarray(thetas, dtype=float)
    m = np.sum(thetas * z, axis=-1) / geom.radius_outer
    return cutoff_boundary_values(spec, phi, m)


# ---------------------------------------------------------------------------
# visibility sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VisibilityMask:
    """Boolean pixel mask over a raster grid."""

    grid: Grid
    visible: np.ndarray

    def __post_init__(self):
        if self.visible.shape != (self.grid.ny, self.grid.nx):
            raise ValueError("mask shape does not match grid")

    @property
    def count(self):
        return int(np.count_nonzero(self.visible))


def visible_mask(spec, geom, grid, n_theta=64):
    """Pixels of the source disk where every covector is microvisible.

    The visible set is defined through microvisible: a pixel center x is
    marked when microvisible accepts (x, xi) for each of n_theta uniformly
    spaced covector directions xi.  The directions are counted per
    source-disk pixel, one at a time, so temporaries stay one direction in
    size.
    """
    if n_theta < 8:
        raise ValueError("n_theta must be at least 8")
    omega = grid.disk_mask(geom.radius_inner)
    pts = grid.centers()[omega]
    accepted = np.zeros(len(pts), dtype=np.intp)
    for ang in uniform_angles(n_theta):
        accepted += microvisible(spec, geom, pts, unit_vector(ang))
    visible = np.zeros(omega.shape, dtype=bool)
    visible[omega] = accepted == n_theta
    return VisibilityMask(grid=grid, visible=visible)


def microvisible(spec, geom, x, xi):
    """Whether covector directions xi at points x are microlocally visible.

    ``x`` and ``xi`` are (..., 2) arrays that broadcast against each other;
    the result is a bool array over the broadcast leading shape, 0-d for a
    single pair.  A pair is visible when at least one of the two rays
    through x perpendicular to xi exits with a positive cutoff.  Every xi
    row must be nonzero and every point must lie in the outer disk.  This
    is the one microvisibility test: the visible pixel mask and the
    wavefront edge report are built on it.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n = np.linalg.norm(xi, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("xi must be nonzero")
    # The squared form of Grid.disk_mask, so every source-disk pixel passes.
    limit = geom.radius_outer * (1.0 + 1e-12)
    if np.any(x[..., 0] ** 2 + x[..., 1] ** 2 > limit * limit):
        raise ValueError("point lies outside the outer disk")
    x, perp = np.broadcast_arrays(x, rotate90(xi / n))
    # A contiguous copy lets the products below run as one flat loop.
    perp = np.ascontiguousarray(perp)
    return ((cutoff_extended_values(spec, geom, x, perp) > 0.0)
            | (cutoff_extended_values(spec, geom, x, -perp) > 0.0))


def convex_hull_mask(spec, geom, grid):
    """Union of the open circular segments spanned by the cutoff arcs.

    Each arc of the boundary circle contributes the interior of its convex
    hull, the circular segment between the arc and its chord.  Only
    direction-unrestricted cutoffs are supported.
    """
    if spec.direction_restricted:
        raise ValueError("convex hull mask is undefined for direction-restricted cutoffs")
    centers = grid.points_flat()
    in_outer = np.sum(centers * centers, axis=-1) < geom.radius_outer**2
    mask = np.zeros(grid.n_pixels, dtype=bool)
    for a0, a1 in spec.arcs:
        width = a1 - a0
        if width >= TWO_PI - 1e-12:
            mask |= in_outer
            continue
        mid = unit_vector(0.5 * (a0 + a1))
        depth = geom.radius_outer * math.cos(0.5 * width)
        mask |= in_outer & (centers @ mid > depth)
    return VisibilityMask(grid=grid, visible=mask.reshape(grid.ny, grid.nx))
