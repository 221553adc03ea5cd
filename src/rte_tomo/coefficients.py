"""Absorption and scattering coefficients with truncated angular modes.

An absorption field sigma(x, theta) is a finite sum of spatial rasters
multiplied by circular harmonics cos(m phi), sin(m phi) of the direction
angle.  A scattering kernel k(x, theta, theta') is a finite sum of separable
modes Theta_j(theta) * kappa_j(x, theta') where Theta_j is a trigonometric
polynomial and kappa_j is again a raster-times-harmonics field in theta'.

Attenuation line integrals use a composite trapezoid rule on a lattice
anchored at the ray's exit point, so that splitting a ray path in two gives
exactly multiplicative attenuation factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._interp import bilinear_sample
from .geometry import exit_points, smooth_step, unit_vector

TWO_PI = 2.0 * math.pi

# The default attenuation and exit-chord step h_ray is R1 over this many.
RAY_STEPS_PER_RADIUS = 256

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


def harmonic_h1_norm(order, phase):
    """H^1 circle norm of cos(m phi) or sin(m phi)."""
    if order == 0:
        return 0.0 if phase == "sin" else math.sqrt(TWO_PI)
    return math.sqrt(math.pi * (1.0 + order * order))


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
    def max_order(self):
        return max((m.order for m in self.modes), default=0)

    @property
    def is_zero(self):
        return all(np.all(m.raster == 0.0) for m in self.modes)

    def slice_raster(self, angle):
        """Combined raster at a fixed direction angle."""
        out = np.zeros((self.grid.ny, self.grid.nx))
        for m in self.modes:
            out += trig_basis(m.order, m.phase, angle) * m.raster
        return out

    def sample(self, points, angle):
        """Exact-where-available point values at a fixed direction angle."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for m in self.modes:
            out = out + trig_basis(m.order, m.phase, angle) * m.spatial_values(self.grid, pts)
        return out


class AbsorptionField(AngularField):
    """Nonnegative absorption sigma(x, theta) as truncated angular modes."""

    def __init__(self, grid, modes):
        super().__init__(grid, modes)
        if self.modes:
            self._check_nonnegative()

    def _check_nonnegative(self):
        worst = np.inf
        scale = 0.0
        angles = np.linspace(0.0, TWO_PI, 4 * self.max_order + 9)
        for ang in angles:
            s = self.slice_raster(ang)
            worst = min(worst, float(s.min()))
            scale = max(scale, float(np.abs(s).max()))
        if worst < -1e-12 * max(scale, 1.0):
            raise ValueError("absorption field takes negative values")

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
        return cls(grid, modes=(AngularMode(0, "cos", raster * ext),))


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

    def h1_norm(self):
        total = self.cos_coef[0] ** 2 * TWO_PI
        for m in range(1, len(self.cos_coef)):
            total += (self.cos_coef[m] ** 2 + self.sin_coef[m] ** 2) * math.pi * (1 + m * m)
        return math.sqrt(total)


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

    def convergence_sum(self):
        """sum_j ||Theta_j||_{H^1} * sup |kappa_j|, the factorization size."""
        total = 0.0
        for theta_poly, kappa in self.modes:
            sup = 0.0
            for ang in np.linspace(0.0, TWO_PI, 4 * max(kappa.max_order, 1) + 9):
                sup = max(sup, float(np.abs(kappa.slice_raster(ang)).max()))
            total += theta_poly.h1_norm() * sup
        return total


def kernel_eval(kernel, x, theta, theta_prime):
    """Scattering kernel value k(x, theta, theta')."""
    return kernel.eval(x, theta, theta_prime)


# ---------------------------------------------------------------------------
# attenuation along rays
# ---------------------------------------------------------------------------


def ray_absorption(sigma, geom, x, theta, radii, h_ray):
    """Absorption integrals from the exit of (x, theta) back along -theta.

    Returns G(r) = integral of sigma over the path of length r ending at the
    exit point, for each backward distance r in ``radii``.  All integrals
    share one trapezoid lattice anchored at the exit, so results for nested
    radii are exactly additive.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if sigma.is_zero:
        return np.zeros(radii.shape)
    z, _ = exit_points(geom, x, theta)
    ang = float(angle_of(theta))
    rmax = float(radii.max(initial=0.0))
    n_full = int(math.floor(rmax / h_ray + 1e-12))
    lattice = h_ray * np.arange(n_full + 1)
    nodes = z[None, :] - lattice[:, None] * theta[None, :]
    svals = sigma.sample(nodes, ang)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * h_ray * (svals[:-1] + svals[1:]))]) \
        if n_full > 0 else np.zeros(1)
    k = np.minimum(np.floor(radii / h_ray + 1e-12).astype(int), n_full)
    frac = radii - lattice[k]
    ends = z[None, :] - radii[:, None] * theta[None, :]
    s_end = sigma.sample(ends, ang)
    return cum[k] + 0.5 * frac * (svals[k] + s_end)


def attenuation_E(sigma, geom, x, theta, h_ray=None):
    """Attenuation exp(-integral of sigma from x to the boundary along theta)."""
    if h_ray is None:
        h_ray = geom.radius_outer / RAY_STEPS_PER_RADIUS
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    _, tau = exit_points(geom, x, theta)
    g = ray_absorption(sigma, geom, x, theta, [float(tau)], h_ray)
    return float(np.exp(-g[0]))


def attenuation_Sigma(sigma, geom, x, s, theta_prime, h_ray=None):
    """Partial attenuation over the path of length s ending at x along theta'."""
    if s < 0.0:
        raise ValueError("path length s must be >= 0")
    if h_ray is None:
        h_ray = geom.radius_outer / RAY_STEPS_PER_RADIUS
    x = np.asarray(x, dtype=float)
    theta_prime = np.asarray(theta_prime, dtype=float)
    _, tau = exit_points(geom, x, theta_prime)
    g = ray_absorption(sigma, geom, x, theta_prime, [float(tau), float(tau) + s], h_ray)
    return float(np.exp(-(g[1] - g[0])))


# ---------------------------------------------------------------------------
# Sobolev mode norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeNormEntry:
    label: str
    spatial_norm: float
    angular_norm: float

    @property
    def product(self):
        return self.spatial_norm * self.angular_norm


@dataclass(frozen=True)
class ModeNorms:
    order: int
    entries: tuple

    @property
    def aggregate(self):
        return sum(e.product for e in self.entries)


def sobolev_order_limit(grid):
    """Largest Sobolev order whose FFT multiplier stays inside float range."""
    kmax2 = (math.pi / grid.hx) ** 2 + (math.pi / grid.hy) ** 2
    return int(700.0 / math.log1p(kmax2))


def sobolev_raster_norm(grid, raster, order):
    """Discrete H^order norm of a raster via Fourier multipliers."""
    if order < 0:
        raise ValueError("Sobolev order must be >= 0")
    limit = sobolev_order_limit(grid)
    if order > limit:
        raise ValueError(
            f"Sobolev order {order} exceeds the resolvable limit {limit} for this grid"
        )
    kx = TWO_PI * np.fft.fftfreq(grid.nx, d=grid.hx)
    ky = TWO_PI * np.fft.fftfreq(grid.ny, d=grid.hy)
    mult = (1.0 + kx[None, :] ** 2 + ky[:, None] ** 2) ** order
    spec = np.fft.fft2(np.asarray(raster, dtype=float))
    total = float(np.sum(mult * np.abs(spec) ** 2))
    return math.sqrt(total * grid.pixel_area / grid.n_pixels)


def _phase_field_modes(values, grid):
    """Split (n_theta, ny, nx) values into cos/sin harmonic rasters."""
    n = values.shape[0]
    coef = np.fft.rfft(values, axis=0)
    out = [(0, "cos", coef[0].real / n)]
    for m in range(1, coef.shape[0]):
        scale = 1.0 if (n % 2 == 0 and m == n // 2) else 2.0
        out.append((m, "cos", scale * coef[m].real / n))
        if not (n % 2 == 0 and m == n // 2):
            out.append((m, "sin", -scale * coef[m].imag / n))
    return out


def mode_norms(obj, order, grid=None):
    """Per-mode Sobolev norm report for fields and kernels.

    Accepts an AngularField (including AbsorptionField), a ScatteringKernel,
    or a phase-space array of shape (n_theta, ny, nx) together with ``grid``.
    Each entry pairs the spatial H^order norm of a harmonic raster with the
    H^1 circle norm of its harmonic.
    """
    entries = []
    if isinstance(obj, ScatteringKernel):
        for j, (theta_poly, kappa) in enumerate(obj.modes):
            tnorm = theta_poly.h1_norm()
            for m in kappa.modes:
                entries.append(ModeNormEntry(
                    label=f"term{j}:{m.phase}{m.order}",
                    spatial_norm=tnorm * sobolev_raster_norm(kappa.grid, m.raster, order),
                    angular_norm=harmonic_h1_norm(m.order, m.phase),
                ))
        return ModeNorms(order=order, entries=tuple(entries))
    if isinstance(obj, AngularField):
        for m in obj.modes:
            entries.append(ModeNormEntry(
                label=f"{m.phase}{m.order}",
                spatial_norm=sobolev_raster_norm(obj.grid, m.raster, order),
                angular_norm=harmonic_h1_norm(m.order, m.phase),
            ))
        return ModeNorms(order=order, entries=tuple(entries))
    values = np.asarray(obj, dtype=float)
    if values.ndim != 3 or grid is None:
        raise TypeError("expected an AngularField, ScatteringKernel, or (n_theta, ny, nx) array with grid")
    for m, phase, raster in _phase_field_modes(values, grid):
        entries.append(ModeNormEntry(
            label=f"{phase}{m}",
            spatial_norm=sobolev_raster_norm(grid, raster, order),
            angular_norm=harmonic_h1_norm(m, phase),
        ))
    return ModeNorms(order=order, entries=tuple(entries))
