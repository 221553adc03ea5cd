"""Absorption and scattering coefficients with truncated angular modes.

An absorption field sigma(x, theta) is a finite sum of spatial rasters
multiplied by circular harmonics cos(m phi), sin(m phi) of the direction
angle.  A scattering kernel k(x, theta, theta') is a finite sum of separable
modes Theta_j(theta) * kappa_j(x, theta') where Theta_j is a trigonometric
polynomial and kappa_j is again a raster-times-harmonics field in theta'.

Absorption line integrals have one integrator, ray_absorption: a trapezoid
rule on the lattice step * k from each ray's origin.  attenuation_stack
anchors it at the pixel (+theta, half a pixel width); principal_symbol
anchors it at the exit point (-theta, h_ray).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._interp import bilinear_sample
from .geometry import smooth_step

TWO_PI = 2.0 * math.pi

# The default attenuation and exit-chord step h_ray is R1 over this many.
RAY_STEPS_PER_RADIUS = 256

# Lattice nodes laid out at once by ray_absorption.  A block peaks near 45
# bytes a node (tracemalloc, Gaussian absorption), 55 with per-ray directions.
STACK_BLOCK_NODES = 2**20

# The fixed extension of coefficients given on the inner disk rolls off to
# zero over this fraction of the gap between the two radii.
_EXTENSION_FRACTION = 0.9


def angle_of(v):
    v = np.asarray(v, dtype=float)
    return np.arctan2(v[..., 1], v[..., 0])


def _radius_squared(points):
    """x*x + y*y of (..., 2) points, from the two coordinate columns."""
    pts = np.asarray(points, dtype=float)
    x = pts[..., 0]
    y = pts[..., 1]
    return x * x + y * y


def extension_profile(geom):
    """Radial factor: 1 on the inner disk, 0 near the outer boundary."""
    r_in = geom.radius_inner
    r_end = r_in + _EXTENSION_FRACTION * (geom.radius_outer - r_in)
    band = r_end - r_in

    def profile(points):
        return smooth_step(r_end - np.sqrt(_radius_squared(points)), band)

    return profile


def trig_basis(order, phase, angle):
    angle = np.asarray(angle, dtype=float)
    if phase == "cos":
        return np.cos(order * angle)
    if phase == "sin":
        return np.sin(order * angle)
    raise ValueError(f"unknown phase {phase!r}")


@dataclass(frozen=True)
class AngularMode:
    """One separable term raster(x) * trig(order * angle)."""

    order: int
    phase: str          # "cos" or "sin"
    raster: np.ndarray
    profile: object = None   # optional exact callable points -> values

    def spatial_values(self, grid, points):
        if self.profile is not None:
            return np.asarray(self.profile(points), dtype=float)
        return bilinear_sample(grid, self.raster, points)


class AngularField:
    """Field g(x, angle) = sum of raster_m(x) * trig_m(angle) terms."""

    def __init__(self, grid, modes):
        self.grid = grid
        self.modes = tuple(modes)
        for m in self.modes:
            if m.raster.shape != (grid.ny, grid.nx):
                raise ValueError("mode raster shape does not match grid")
            if m.order < 0:
                raise ValueError("mode order must be >= 0")

    @property
    def is_zero(self):
        return all(np.all(m.raster == 0.0) for m in self.modes)

    def sample(self, points, angle):
        """Exact-where-available point values at one angle or one per point."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for m in self.modes:
            out = out + trig_basis(m.order, m.phase, angle) * m.spatial_values(self.grid, pts)
        return out


class AbsorptionField(AngularField):
    """Nonnegative absorption sigma(x, theta) as truncated angular modes.

    Each preset proves its own sign from its arguments: constant and
    gaussian refuse a negative value or amplitude (the extension factor lies
    in [0, 1]), and cosine_anisotropic refuses |amplitude| > base.  Only
    from_raster, which takes outside data, checks the raster it is given.
    """

    def __init__(self, grid, modes):
        super().__init__(grid, modes)
        if not all(np.all(np.isfinite(m.raster)) for m in self.modes):
            raise ValueError("absorption field has non-finite values")

    @classmethod
    def zero(cls, grid):
        return cls(grid, modes=())

    @classmethod
    def constant(cls, grid, geom, value):
        """sigma = value on the whole outer disk (its own natural extension)."""
        if value < 0.0:
            raise ValueError("constant absorption must be >= 0")
        r2 = geom.radius_outer**2

        def profile(points):
            return np.where(_radius_squared(points) <= r2, value, 0.0)

        raster = profile(grid.centers())
        return cls(grid, modes=(AngularMode(0, "cos", raster, profile),))

    @classmethod
    def gaussian(cls, grid, geom, amplitude, center=(0.0, 0.0), width=0.25):
        """Isotropic Gaussian bump, tapered by the fixed radial extension."""
        if amplitude < 0.0:
            raise ValueError("gaussian amplitude must be >= 0")
        ext = extension_profile(geom)
        cx, cy = float(center[0]), float(center[1])
        w2 = 2.0 * width * width

        def profile(points):
            pts = np.asarray(points, dtype=float)
            # A centre far off the grid squares to inf: the bump is exactly 0.
            with np.errstate(over="ignore"):
                d2 = (pts[..., 0] - cx) ** 2 + (pts[..., 1] - cy) ** 2
            return amplitude * np.exp(-d2 / w2) * ext(pts)

        raster = profile(grid.centers())
        return cls(grid, modes=(AngularMode(0, "cos", raster, profile),))

    @classmethod
    def cosine_anisotropic(cls, grid, geom, base, amplitude, order=1):
        """sigma = base + amplitude*cos(order*phi_theta) on the outer disk."""
        if abs(amplitude) > base:
            raise ValueError("anisotropic amplitude cannot exceed the base value")
        r2 = geom.radius_outer**2

        def indicator(points):
            return (_radius_squared(points) <= r2).astype(float)

        def prof_base(points):
            return base * indicator(points)

        def prof_aniso(points):
            return amplitude * indicator(points)

        ind = indicator(grid.centers())
        return cls(grid, modes=(
            AngularMode(0, "cos", base * ind, prof_base),
            AngularMode(int(order), "cos", amplitude * ind, prof_aniso),
        ))

    @classmethod
    def from_raster(cls, grid, geom, raster):
        """Data-defined isotropic field, tapered by the fixed radial extension."""
        raster = np.asarray(raster, dtype=float)
        if raster.shape != (grid.ny, grid.nx):
            raise ValueError("raster shape does not match grid")
        ext = extension_profile(geom)(grid.centers())
        # inf * 0 outside the extension is nan, which __init__ refuses.
        with np.errstate(invalid="ignore"):
            tapered = raster * ext
        sigma = cls(grid, modes=(AngularMode(0, "cos", tapered),))
        # After the non-finite refusal: min cannot see nan, and -inf fails no
        # scaled bound.
        if tapered.min() < -1e-12 * max(float(np.abs(tapered).max()), 1.0):
            raise ValueError("absorption field takes negative values")
        return sigma


@dataclass(frozen=True)
class TrigPoly:
    """Real trigonometric polynomial c0 + sum cm cos(m a) + sm sin(m a)."""

    cos_coef: tuple
    sin_coef: tuple   # index 0 unused

    @classmethod
    def constant(cls, value):
        return cls(cos_coef=(float(value),), sin_coef=(0.0,))

    @classmethod
    def harmonic(cls, order, phase, value=1.0):
        c = [0.0] * (order + 1)
        s = [0.0] * (order + 1)
        if phase == "cos":
            c[order] = float(value)
        else:
            s[order] = float(value)
        return cls(cos_coef=tuple(c), sin_coef=tuple(s))

    @property
    def max_order(self):
        return len(self.cos_coef) - 1

    def eval(self, angle):
        a = np.asarray(angle, dtype=float)
        out = np.full(a.shape, self.cos_coef[0])
        for m in range(1, len(self.cos_coef)):
            if self.cos_coef[m]:
                out = out + self.cos_coef[m] * np.cos(m * a)
            if self.sin_coef[m]:
                out = out + self.sin_coef[m] * np.sin(m * a)
        return out


class ScatteringKernel:
    """k(x, theta, theta') = sum_j Theta_j(theta) * kappa_j(x, theta')."""

    def __init__(self, grid, modes):
        self.grid = grid
        self.modes = tuple(modes)
        for theta_poly, kappa in self.modes:
            if kappa.grid is not grid and kappa.grid != grid:
                raise ValueError("kappa grid does not match kernel grid")
            _ = theta_poly.max_order

    @property
    def is_zero(self):
        return all(kappa.is_zero for _, kappa in self.modes)

    @classmethod
    def zero(cls, grid):
        return cls(grid, modes=())

    @classmethod
    def isotropic(cls, grid, geom, total):
        """k = total/(2 pi) inside the source disk, tapered outward."""
        ext = extension_profile(geom)
        amp = total / TWO_PI

        def profile(points):
            return amp * ext(points)

        raster = profile(grid.centers())
        kappa = AngularField(grid, (AngularMode(0, "cos", raster, profile),))
        return cls(grid, modes=((TrigPoly.constant(1.0), kappa),))

    @classmethod
    def henyey_greenstein(cls, grid, geom, total, g, n_modes=3):
        """Forward-peaked phase kernel, truncated cosine expansion.

        k = total*ext(x)/(2 pi) * (1 + 2 sum_{m<=n_modes} g^m cos(m(phi-phi')))
        split into separable harmonics.
        """
        if not (0.0 <= g < 1.0):
            raise ValueError("anisotropy g must lie in [0, 1)")
        ext = extension_profile(geom)
        modes = []
        amp0 = total / TWO_PI

        def prof0(points, _a=amp0):
            return _a * ext(points)

        modes.append((TrigPoly.constant(1.0),
                      AngularField(grid, (AngularMode(0, "cos", prof0(grid.centers()), prof0),))))
        for m in range(1, n_modes + 1):
            amp = total * g**m / math.pi

            def prof(points, _a=amp):
                return _a * ext(points)

            raster = prof(grid.centers())
            kc = AngularField(grid, (AngularMode(m, "cos", raster, prof),))
            ks = AngularField(grid, (AngularMode(m, "sin", raster, prof),))
            modes.append((TrigPoly.harmonic(m, "cos"), kc))
            modes.append((TrigPoly.harmonic(m, "sin"), ks))
        return cls(grid, modes=tuple(modes))

    def eval(self, x, theta, theta_prime):
        """Pointwise kernel value(s); theta, theta_prime are unit vectors."""
        a = angle_of(theta)
        ap = angle_of(theta_prime)
        out = 0.0
        for theta_poly, kappa in self.modes:
            out = out + theta_poly.eval(a) * kappa.sample(x, float(ap))
        return out


# ---------------------------------------------------------------------------
# attenuation along rays
# ---------------------------------------------------------------------------


def ray_nodes(step, lengths):
    """Live lattice nodes of rays of the given lengths, ray after ray.

    Ray c gets the n[c] lattice nodes step * k below lengths[c], in order,
    then lengths[c] itself, so n[c] cells.  Returns (lattice, n, flat nodes);
    with no rays, the nodes are empty.
    """
    n_full = int(math.floor(lengths.max(initial=0.0) / step + 1e-12))
    lattice = step * np.arange(n_full + 1)
    n = np.searchsorted(lattice, lengths)
    last = np.cumsum(n + 1) - 1
    rank = np.arange(int(np.sum(n + 1))) - np.repeat(last - n, n + 1)
    nodes = lattice.take(rank, mode="clip")
    nodes[last] = lengths
    return lattice, n, nodes


def ray_points(origins, counts, dist, direction):
    """Points origins + dist * direction, ray after ray, in contiguous columns.

    counts[c] distances belong to origins[c]; direction is one or one per ray.
    Returns the transpose of one (2, n) buffer, filled coordinate by
    coordinate.
    """
    if np.ndim(direction) == 2:
        dx, dy = np.repeat(direction[:, 0], counts), np.repeat(direction[:, 1], counts)
    else:
        dx, dy = direction
    out = np.empty((2, len(dist)))
    for axis, d in enumerate((dx, dy)):
        np.multiply(dist, d, out=out[axis])
        out[axis] += np.repeat(origins[:, axis], counts)
    return out.T


def ray_absorption(sigma, origins, directions, lengths, step, angle):
    """Absorption integral G of sigma along rays from origins (n, 2).

    With lengths (n,), ray c runs lengths[c] along directions[c] and reads
    sigma at angle[c].  With lengths (k, n), fan d runs every origin along
    directions[d] at angle[d]; its direction and angle stay scalars.  G has
    the shape of lengths: the trapezoid rule on the lattice step * k below
    each length, then the partial cell.  Rays go in blocks of at most
    STACK_BLOCK_NODES nodes, a fan at a time.
    """
    G = np.zeros(lengths.shape)
    if sigma.is_zero:
        return G
    fans = lengths.ndim == 2
    # A ray has at most n_full + 2 nodes.
    n_full = int(math.floor(lengths.max(initial=0.0) / step + 1e-12))
    block = max(1, STACK_BLOCK_NODES // (n_full + 2))
    for d in range(len(lengths) if fans else 1):
        L, g = (lengths[d], G[d]) if fans else (lengths, G)
        for first in range(0, len(L), block):
            rays = slice(first, first + block)
            _, m, nodes = ray_nodes(step, L[rays])
            direction = directions[d] if fans else directions[rays]
            ang = float(angle[d]) if fans else np.repeat(angle[rays], m + 1)
            sig = sigma.sample(ray_points(origins[rays], m + 1, nodes, direction), ang)
            # Neighbouring nodes bound a cell unless they belong to two rays.
            cell = np.ones(len(nodes) - 1, dtype=bool)
            cell[np.cumsum(m + 1)[:-1] - 1] = False
            seg = (0.5 * np.diff(nodes) * (sig[:-1] + sig[1:]))[cell]
            # A ray from a point on the outer circle may have no cell.
            live = np.flatnonzero(m)
            g[first + live] = np.add.reduceat(seg, (np.cumsum(m) - m)[live])
    return G


def ray_step(radius_outer, h_ray=None):
    """The attenuation and exit-chord step.

    A positive h_ray is returned as given; None or 0 selects the default
    radius_outer / RAY_STEPS_PER_RADIUS.  A negative or nan step is refused.
    """
    if h_ray is not None and not h_ray >= 0.0:
        raise ValueError(f"h_ray must be nonnegative (0 selects the default), got {h_ray}")
    return h_ray or radius_outer / RAY_STEPS_PER_RADIUS
