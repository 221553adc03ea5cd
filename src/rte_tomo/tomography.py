"""Ballistic ray transform, adjoints, normal operator, and diagnostics.

The measurement chain has two realizations that are kept deliberately
consistent.  Assembled dense matrices carry their discrete inner-product
weights, so the stored adjoint is the weighted transpose and adjoint
identities hold to machine precision.  Iterative applications reuse the
transport primitives, whose plain transposes are exact, so the two paths
agree far below the quadrature error.

Independent quadratures (the pixelwise adjoint sum, the singular-kernel
pair sum) back the same operators for cross-validation; those agree with
the assembled versions only to discretization accuracy, which is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .coefficients import attenuation_E
from .geometry import (
    exit_points,
    cutoff_boundary_values,
    cutoff_extended,
    cutoff_extended_values,
    microvisible,
    rotate90,
    uniform_angles,
    unit_vector,
)
from .transport import BoundaryData, TransportSolver, phase_norm

TWO_PI = 2.0 * math.pi

# Unit-source columns measured per xv_apply call during matrix assembly.
ASSEMBLY_BATCH = 64
# Pixel rows per block of the singular-kernel quadrature.
KERNEL_CHUNK = 256
# Largest problem assembled as a dense matrix.
DENSE_MAX_PIXELS = 1024
DENSE_MAX_THETA = 32
# Edge-response window in pixels; see edge_strengths.
EDGE_WINDOW = 3


def _make_solver(sigma, kernel, geom, grid, n_theta, n_bdry, h_ray,
                 tol, max_iter, solver):
    if solver is not None:
        return solver
    if grid is None:
        grid = sigma.grid
    return TransportSolver(geom=geom, grid=grid, sigma=sigma, kernel=kernel,
                           n_theta=n_theta, n_bdry=n_bdry, h_ray=h_ray,
                           tol=tol, max_iter=max_iter)


def _dense_fits(solver):
    """Whether the solver's problem is small enough for dense assembly."""
    return (solver.grid.n_pixels <= DENSE_MAX_PIXELS
            and solver.n_theta <= DENSE_MAX_THETA)


def series_length(solver):
    """Scattering series length matching the solver tolerance.

    Zero for a vanishing kernel; otherwise the smallest m with rho^m below
    tol, clamped to [1, max_iter].  Both the assembled-matrix and the
    iterative measurement paths use this, so they sum the same series.
    """
    if solver.kernel.is_zero:
        return 0
    rho = solver.require_contraction()
    if rho <= 0.0:
        return 1
    m = int(math.ceil(math.log(solver.tol) / math.log(rho)))
    return min(max(m, 1), solver.max_iter)


# ---------------------------------------------------------------------------
# attenuation and cutoff stacks over the pixel grid
# ---------------------------------------------------------------------------


def attenuation_stack(sigma, geom, grid, angles, step=None):
    """E(x, theta) on all pixels for each direction angle, shape (n, N).

    Forward trapezoid integral of sigma from the pixel to its exit, on a
    per-pixel lattice padded to the longest exit time.  The padding repeats
    the exit time, so its segments have zero length: sigma is sampled only
    on the nodes up to each pixel's exit and set to 0 past it, which leaves
    every sum as it is on the fully sampled table.  Pixels outside the outer
    disk get the neutral value 1.
    """
    if step is None:
        step = 0.5 * grid.hx
    pts = grid.points_flat()
    inside = grid.disk_mask(geom.radius_outer).reshape(-1)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    out = np.ones((len(angles), grid.n_pixels))
    if sigma.is_zero:
        return out
    p = pts[inside]
    for a, ang in enumerate(angles):
        th = unit_vector(ang)
        z, tau = exit_points(geom, p, th)
        n_full = int(math.floor(tau.max() / step + 1e-12))
        lattice = step * np.arange(n_full + 1)
        nodes = np.concatenate(
            [np.minimum(lattice[None, :], tau[:, None]), tau[:, None]], axis=1)
        m = np.searchsorted(lattice, tau)                  # last live node
        at = np.arange(nodes.shape[1]) <= m[:, None]
        sig = np.zeros(nodes.shape)
        sig[at] = sigma.sample(np.repeat(p, m + 1, axis=0) + nodes[at][:, None] * th,
                               float(ang))
        delta = np.diff(nodes, axis=1)
        G = np.sum(0.5 * delta * (sig[:, :-1] + sig[:, 1:]), axis=1)
        out[a, inside] = np.exp(-G)
    return out


def cutoff_stack(spec, geom, grid, angles):
    """chi^#(x, theta) on all pixels for each direction angle, shape (n, N)."""
    pts = grid.points_flat()
    inside = grid.disk_mask(geom.radius_outer).reshape(-1)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    out = np.zeros((len(angles), grid.n_pixels))
    p = pts[inside]
    for a, ang in enumerate(angles):
        th = np.broadcast_to(unit_vector(ang), p.shape)
        out[a, inside] = cutoff_extended_values(spec, geom, p, th)
    return out


# ---------------------------------------------------------------------------
# ballistic transform and its independently discretized adjoint
# ---------------------------------------------------------------------------


def ray_transform(spec, sigma, geom, f, grid=None, n_theta=64, n_bdry=256,
                  h_ray=None, solver=None, phantom=None):
    """Attenuated ray transform cut to the visible boundary set.

    ``f`` is a source raster over the inner disk; analytic phantoms go in
    through ``phantom`` and are integrated with quadrature cells split at
    their jump circles.
    """
    solver = _make_solver(sigma, None, geom, grid, n_theta, n_bdry,
                          h_ray, 1e-10, 200, solver)
    if phantom is not None:
        values = solver.trace_phase(None, phantom)[..., 0]
    else:
        f_flat = solver._f_flat(f, None)
        values = solver.trace_phase(None, f_flat)[..., 0]
    values = solver.chi_values(spec) * values
    return BoundaryData(bgrid=solver.bgrid, values=values)


def adjoint_ray_transform(spec, sigma, geom, h, grid=None, step=None):
    """Pixelwise angular sum E * chi^# * h^#, the adjoint quadrature.

    h^# extends boundary data along rays: each pixel and direction map to
    an exit point, and the data is interpolated in the exit angle over the
    half circle of boundary samples that are outgoing for that direction
    (directions are on-grid, so no interpolation happens in theta).  Data
    on incoming pairs is structurally zero and must not bleed into
    near-tangential exits, so the interpolation never crosses the tangent
    points; beyond the last outgoing sample it clamps to it.  This
    discretization is independent of the forward chord quadrature.
    """
    if grid is None:
        grid = sigma.grid
    bg = h.bgrid
    pts = grid.points_flat()
    inside = grid.disk_mask(geom.radius_outer).reshape(-1)
    p = pts[inside]
    e_stack = attenuation_stack(sigma, geom, grid, bg.theta_angles, step=step)
    acc = np.zeros(inside.sum())
    for q in range(bg.n_theta):
        th = bg.theta_vecs[q]
        z, _ = exit_points(geom, p, th)
        beta = np.mod(np.arctan2(z[:, 1], z[:, 0]), TWO_PI)
        m = (z @ th) / geom.radius_outer
        chi = cutoff_boundary_values(spec, beta, m)
        lo = bg.theta_angles[q] - 0.5 * math.pi
        rel = np.mod(bg.angles - lo, TWO_PI)
        keep = bg.outgoing[:, q]
        order = np.argsort(rel[keep])
        hq = np.interp(np.mod(beta - lo, TWO_PI),
                       rel[keep][order], h.values[keep, q][order])
        acc += e_stack[q, inside] * chi * hq
    out = np.zeros(grid.n_pixels)
    out[inside] = bg.dtheta * acc
    return out.reshape(grid.ny, grid.nx)


# ---------------------------------------------------------------------------
# principal symbol
# ---------------------------------------------------------------------------


@dataclass
class SymbolField:
    """b0(x, xi) over grid pixels and unit covector angles."""

    grid: object
    xi_angles: np.ndarray
    values: np.ndarray                # (n_xi, ny, nx)

    def __post_init__(self):
        if self.values.shape != (len(self.xi_angles), self.grid.ny, self.grid.nx):
            raise ValueError("symbol value shape does not match grids")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0.0):
            raise ValueError("symbol values must be finite and nonnegative")


def principal_symbol(spec, sigma, geom, x, xi, h_ray=None):
    """b0(x, xi) at a single point and unit covector.

    The codirection integral over {theta . xi = 0} collapses to the two
    directions perpendicular to xi; each contributes |E chi^#| squared.
    """
    xi = np.asarray(xi, dtype=float)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-6:
        raise ValueError("xi must be a unit covector")
    total = 0.0
    perp = rotate90(xi)
    for th in (perp, -perp):
        chi = cutoff_extended(spec, geom, x, th)
        if chi == 0.0:
            continue
        e = attenuation_E(sigma, geom, x, th, h_ray=h_ray)
        total += (e * chi) ** 2
    return TWO_PI * total


def symbol_field(spec, sigma, geom, grid, n_xi=32):
    """SymbolField of b0 over all pixels and n_xi covector angles.

    For even n_xi the directions xi - pi/2 are the directions xi + pi/2
    shifted by n_xi/2, so one attenuation stack and one cutoff stack serve
    both orientations; odd n_xi computes the two orientations separately.
    """
    xi_angles = uniform_angles(n_xi)
    inside = grid.disk_mask(geom.radius_outer).reshape(-1)

    def orientation(sign):
        perp_angles = xi_angles + sign * 0.5 * math.pi
        e = attenuation_stack(sigma, geom, grid, perp_angles)
        chi = cutoff_stack(spec, geom, grid, perp_angles)
        return (e * chi) ** 2

    values = orientation(+1.0)
    if n_xi % 2 == 0:
        # xi_k - pi/2 is the +pi/2 direction of xi_{k - n_xi/2}.
        values += np.roll(values, n_xi // 2, axis=0)
    else:
        values += orientation(-1.0)
    values *= TWO_PI
    values[:, ~inside] = 0.0
    return SymbolField(grid=grid, xi_angles=xi_angles,
                       values=values.reshape(n_xi, grid.ny, grid.nx))


# ---------------------------------------------------------------------------
# normal operator via the singular kernel
# ---------------------------------------------------------------------------


def _singular_pixel_weight(hx, hy):
    """Closed-form integral of 1/|y - x| over a pixel centered at x."""
    a = 0.5 * hx
    b = 0.5 * hy
    return 4.0 * (a * math.asinh(b / a) + b * math.asinh(a / b))


def _angle_lookup(stack_t, cols, ang, n_angles):
    """Periodic linear interpolation of per-pixel angle profiles.

    stack_t is (N, n_angles); cols indexes pixels; ang is in radians.
    """
    t = np.mod(ang, TWO_PI) * (n_angles / TWO_PI)
    i0 = np.floor(t).astype(np.intp) % n_angles
    w = t - np.floor(t)
    i1 = (i0 + 1) % n_angles
    return stack_t[cols, i0] * (1.0 - w) + stack_t[cols, i1] * w


def normal_operator_kernel(spec, sigma, geom, f, grid=None, n_theta=64):
    """Apply the ballistic normal operator by direct singular quadrature.

    Off-diagonal pairs use the kernel w(x, y)/|y - x| with
    w = sum over the two orientations of (E chi^#)(x) (E chi^#)(y); the
    cutoff at the shared exit is squared because both factors see the same
    exit point.  The diagonal pixel integrates 1/r in closed form.
    """
    if grid is None:
        grid = sigma.grid
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.ny, grid.nx):
        raise ValueError("source raster shape does not match the grid")
    inside = grid.disk_mask(geom.radius_outer).reshape(-1)
    f_flat = f.reshape(-1) * inside
    pts = grid.points_flat()
    out = np.zeros(grid.n_pixels)
    if spec.is_empty:
        return out.reshape(grid.ny, grid.nx)
    w_sing = _singular_pixel_weight(grid.hx, grid.hy)
    plain = sigma.is_zero and spec.is_full
    if plain:
        diag_weight = np.full(grid.n_pixels, 2.0)
    else:
        angles = uniform_angles(n_theta)
        fstack = attenuation_stack(sigma, geom, grid, angles)
        fstack *= cutoff_stack(spec, geom, grid, angles)
        fstack_t = np.ascontiguousarray(fstack.T)      # (N, n_theta)
        diag_weight = 2.0 * np.mean(fstack**2, axis=0)
    rows = np.nonzero(inside)[0]
    src = np.nonzero(inside & (f_flat != 0.0))[0]
    if len(src) == 0:
        return out.reshape(grid.ny, grid.nx)
    src_pts = pts[src]
    src_f = f_flat[src]
    area = grid.pixel_area
    for start in range(0, len(rows), KERNEL_CHUNK):
        r = rows[start:start + KERNEL_CHUNK]
        dy = src_pts[None, :, :] - pts[r][:, None, :]
        dist = np.hypot(dy[..., 0], dy[..., 1])
        np.maximum(dist, 1e-300, out=dist)
        if plain:
            w = 2.0
        else:
            ang = np.arctan2(dy[..., 1], dy[..., 0])
            rcols = np.broadcast_to(r[:, None], ang.shape)
            scols = np.broadcast_to(src[None, :], ang.shape)
            w = (_angle_lookup(fstack_t, rcols, ang, n_theta)
                 * _angle_lookup(fstack_t, scols, ang, n_theta))
            ang_op = ang + math.pi
            w = w + (_angle_lookup(fstack_t, rcols, ang_op, n_theta)
                     * _angle_lookup(fstack_t, scols, ang_op, n_theta))
        same = dist < 0.5 * min(grid.hx, grid.hy)
        vals = np.where(same, 0.0, w / dist) * src_f[None, :]
        out[r] = area * vals.sum(axis=1)
    out[inside] += diag_weight[inside] * w_sing * f_flat[inside]
    return out.reshape(grid.ny, grid.nx)


# ---------------------------------------------------------------------------
# assembled measurement matrices
# ---------------------------------------------------------------------------


@dataclass
class OperatorMatrix:
    """Dense measurement matrix with its discrete inner-product weights.

    Rows are boundary samples in (boundary angle, direction) row-major
    order; columns are the pixels listed in col_pixels.  The adjoint is the
    weighted transpose by construction.
    """

    matrix: np.ndarray
    row_weights: np.ndarray
    col_weights: np.ndarray
    col_pixels: np.ndarray = None
    flags: int = 0

    def __post_init__(self):
        rows, cols = self.matrix.shape
        if self.row_weights.shape != (rows,) or self.col_weights.shape != (cols,):
            raise ValueError("weight vector lengths do not match the matrix")

    @property
    def rows(self):
        return self.matrix.shape[0]

    @property
    def cols(self):
        return self.matrix.shape[1]

    def apply(self, coeffs):
        return self.matrix @ coeffs

    def apply_adjoint(self, data):
        return (self.matrix.T @ (self.row_weights * data)) / self.col_weights

    def adjoint_matrix(self):
        return (self.matrix.T * self.row_weights[None, :]) / self.col_weights[:, None]

    def gram(self):
        """Normal matrix, self-adjoint in the column weights."""
        return self.adjoint_matrix() @ self.matrix

    def singular_values(self):
        """Singular values in the weighted norms."""
        b = (np.sqrt(self.row_weights)[:, None] * self.matrix
             / np.sqrt(self.col_weights)[None, :])
        return np.linalg.svd(b, compute_uv=False)


def assemble_xv_matrix(solver, spec, col_pixels=None, n_terms=None):
    """Assemble the measurement operator column by column.

    Columns march in increasing pixel index; each is the measurement of a
    unit pixel source, kept at the shared scattering series length so the
    matrix and the iterative application agree.
    """
    grid = solver.grid
    if col_pixels is None:
        col_pixels = np.nonzero(solver._omega_flat)[0]
    col_pixels = np.asarray(col_pixels, dtype=np.intp)
    if n_terms is None:
        n_terms = series_length(solver)
    n_rows = solver.bgrid.n_bdry * solver.n_theta
    matrix = np.empty((n_rows, len(col_pixels)))
    for start in range(0, len(col_pixels), ASSEMBLY_BATCH):
        idx = col_pixels[start:start + ASSEMBLY_BATCH]
        f = np.zeros((grid.n_pixels, len(idx)))
        f[idx, np.arange(len(idx))] = 1.0
        b = solver.xv_apply(f, spec, n_terms)
        matrix[:, start:start + len(idx)] = b.reshape(n_rows, len(idx))
    return OperatorMatrix(
        matrix=matrix,
        row_weights=solver.bgrid.measure.reshape(-1).copy(),
        col_weights=np.full(len(col_pixels), grid.pixel_area),
        col_pixels=col_pixels,
    )


# ---------------------------------------------------------------------------
# normal operator, wavefront image, pairings
# ---------------------------------------------------------------------------


@dataclass
class WavefrontImage:
    """Normal-operator image N = X*X f with companion diagnostics."""

    grid: object
    values: np.ndarray                 # (ny, nx), zero outside the source disk
    gradient_magnitude: np.ndarray
    ballistic: np.ndarray = None       # I*I part (scattering series length 0)
    scattering_remainder: np.ndarray = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("wavefront image has non-finite entries")


def _gradient_magnitude(raster, grid):
    gy, gx = np.gradient(raster, grid.hy, grid.hx)
    return np.hypot(gx, gy)


def normal_operator_full(spec, sigma, kernel, geom, f, grid=None, n_theta=64,
                         n_bdry=256, h_ray=None, tol=1e-10, max_iter=200,
                         method="auto", solver=None):
    """X*X f with its ballistic part and scattering remainder.

    The adjoint is the weighted transpose of the assembled matrix on small
    grids, or the transposed source iteration at matched series length on
    large ones; the two agree to roundoff by construction.
    """
    solver = _make_solver(sigma, kernel, geom, grid, n_theta, n_bdry,
                          h_ray, tol, max_iter, solver)
    grid = solver.grid
    f_flat = solver._f_flat(f, None)[:, 0]
    omega = solver._omega_flat
    m = series_length(solver)
    if method == "auto":
        method = "matrix" if _dense_fits(solver) else "iterative"
    if method == "matrix":
        op = assemble_xv_matrix(solver, spec, n_terms=m)
        cols = op.col_pixels
        full = np.zeros(grid.n_pixels)
        full[cols] = op.apply_adjoint(op.apply(f_flat[cols]))
        if m == 0:
            ball = full.copy()
        else:
            op0 = assemble_xv_matrix(solver, spec, n_terms=0)
            ball = np.zeros(grid.n_pixels)
            ball[cols] = op0.apply_adjoint(op0.apply(f_flat[cols]))
    elif method == "iterative":
        area = grid.pixel_area
        meas = solver.bgrid.measure[..., None]
        b = solver.xv_apply(f_flat[:, None], spec, m)
        full = solver.xv_transpose(meas * b, spec, m)[:, 0] / area
        full *= omega
        if m == 0:
            ball = full.copy()
        else:
            b0 = solver.xv_apply(f_flat[:, None], spec, 0)
            ball = solver.xv_transpose(meas * b0, spec, 0)[:, 0] / area
            ball *= omega
    else:
        raise ValueError("method must be 'auto', 'matrix', or 'iterative'")
    values = full.reshape(grid.ny, grid.nx)
    ballistic = ball.reshape(grid.ny, grid.nx)
    return WavefrontImage(
        grid=grid,
        values=values,
        gradient_magnitude=_gradient_magnitude(values, grid) * omega.reshape(values.shape),
        ballistic=ballistic,
        scattering_remainder=values - ballistic,
    )


def point_source_pairing(spec, sigma, kernel, geom, f, z, grid=None,
                         n_theta=64, n_bdry=256, h_ray=None, tol=1e-10,
                         max_iter=200, solver=None):
    """Boundary inner product of the measurements of f and a pixel delta.

    The delta at pixel z carries weight 1/pixel-area, so the pairing equals
    the normal-operator image at z up to floating-point accumulation order.
    """
    solver = _make_solver(sigma, kernel, geom, grid, n_theta, n_bdry,
                          h_ray, tol, max_iter, solver)
    grid = solver.grid
    if np.ndim(z) == 1 or isinstance(z, tuple):
        iy, ix = z
        zf = int(iy) * grid.nx + int(ix)
    else:
        zf = int(z)
    if not solver._omega_flat[zf]:
        raise ValueError("z must be a pixel of the source disk")
    m = series_length(solver)
    f_flat = solver._f_flat(f, None)
    phi = np.zeros((grid.n_pixels, 1))
    phi[zf, 0] = 1.0 / grid.pixel_area
    bf = solver.xv_apply(f_flat, spec, m)[..., 0]
    bphi = solver.xv_apply(phi, spec, m)[..., 0]
    return float(np.sum(bf * bphi * solver.bgrid.measure))


# ---------------------------------------------------------------------------
# injectivity SVD
# ---------------------------------------------------------------------------


def svd_injectivity(spec, sigma, kernel, geom, support_mask, n_bdry=256,
                    h_ray=None, tol=1e-10, max_iter=200, n_theta=16,
                    solver=None, return_operator=False):
    """Smallest singular values on visible and shadowed pixel supports.

    The visible support is the given mask eroded by two pixels (compact
    containment); the shadowed support is the eroded complement of the mask
    inside the source disk, the pixels carrying singularities the cutoff
    cannot see.  An empty shadowed set maps to 0 since the restricted
    operator has no columns to be small on.
    """
    solver = _make_solver(sigma, kernel, geom, support_mask.grid, n_theta,
                          n_bdry, h_ray, tol, max_iter, solver)
    if not _dense_fits(solver):
        raise ValueError(
            f"dense SVD requires at most {DENSE_MAX_PIXELS} pixels and "
            f"{DENSE_MAX_THETA} angles")
    grid = solver.grid
    m = series_length(solver)
    omega = solver._omega_flat.reshape(grid.ny, grid.nx)
    eroded = ndimage.binary_erosion(support_mask.visible, iterations=2) & omega
    vis_cols = np.nonzero(eroded.reshape(-1))[0]
    if len(vis_cols) == 0:
        raise ValueError("visible support is empty after erosion")
    op_vis = assemble_xv_matrix(solver, spec, col_pixels=vis_cols, n_terms=m)
    sigma_min_visible = float(op_vis.singular_values()[-1])
    shadow = ndimage.binary_erosion(omega & ~support_mask.visible, iterations=2)
    inv_cols = np.nonzero(shadow.reshape(-1))[0]
    if len(inv_cols) == 0:
        sigma_min_invisible = 0.0
    else:
        op_inv = assemble_xv_matrix(solver, spec, col_pixels=inv_cols, n_terms=m)
        sigma_min_invisible = float(op_inv.singular_values()[-1])
    if return_operator:
        return sigma_min_visible, sigma_min_invisible, op_vis
    return sigma_min_visible, sigma_min_invisible


# ---------------------------------------------------------------------------
# smoothing diagnostic
# ---------------------------------------------------------------------------


def high_frequency_fraction(values, grid):
    """Energy fraction above half-Nyquist, per-direction 2D Fourier shells."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        values = values[None]
    kx = TWO_PI * np.fft.fftfreq(grid.nx, d=grid.hx)
    ky = TWO_PI * np.fft.fftfreq(grid.ny, d=grid.hy)
    kmag = np.hypot(kx[None, :], ky[:, None])
    cut = 0.5 * math.pi / max(grid.hx, grid.hy)
    shell = kmag > cut
    total = 0.0
    high = 0.0
    for sl in values:
        power = np.abs(np.fft.fft2(sl)) ** 2
        total += float(power.sum())
        high += float(power[shell].sum())
    if total == 0.0:
        return 0.0
    return high / total


def smoothing_diagnostic(sigma, kernel, geom, f_rough, n_bdry=8, solver=None):
    """High-frequency energy fraction before and after one K T1^{-1} pass."""
    grid = f_rough.grid
    solver = _make_solver(sigma, kernel, geom, grid, f_rough.n_theta, n_bdry,
                          None, 1e-10, 200, solver)
    before = high_frequency_fraction(f_rough.values, grid)
    v = f_rough.values.reshape(f_rough.n_theta, -1, 1)
    smoothed = solver.k_apply(solver.t1_apply(v))
    if float(np.max(np.abs(smoothed))) == 0.0:
        after = 0.0
    else:
        after = high_frequency_fraction(
            smoothed[..., 0].reshape(f_rough.values.shape), grid)
    if float(np.max(np.abs(f_rough.values))) == 0.0:
        return 0.0, 0.0
    return before, after


# ---------------------------------------------------------------------------
# wavefront imaging and edge response
# ---------------------------------------------------------------------------


@dataclass
class EdgeReport:
    """Edge responses of a normal-operator image, split by visibility."""

    points: np.ndarray
    normals: np.ndarray
    jumps: np.ndarray
    strengths: np.ndarray
    visible: np.ndarray

    @property
    def median_visible(self):
        vals = self.strengths[self.visible]
        return float(np.median(vals)) if len(vals) else 0.0

    @property
    def max_invisible(self):
        vals = self.strengths[~self.visible]
        return float(np.max(vals)) if len(vals) else 0.0

    @property
    def response_ratio(self):
        """Worst shadowed edge response relative to the visible median."""
        med = self.median_visible
        if med == 0.0:
            return math.inf if self.max_invisible > 0.0 else 0.0
        return self.max_invisible / med


def edge_strengths(values, grid, points, normals, jumps):
    """Trend-cancelling directional edge response at labeled points.

    The raw centered difference of N across an edge is dominated by the
    smooth large-scale slope of N, which is nonzero even where no
    singularity crosses, so the response combines two centered differences
    taken along the normal, one at the window edge and one at a third of
    it, weighted to cancel any locally affine trend.  What survives is the
    strength of the kink that a jump imprints on N when the edge direction
    is visible.  The value is averaged over a few pixel offsets along the
    edge to suppress backprojection raster noise (the cross-edge window is
    unchanged by that) and divided by the jump height.
    """
    from ._interp import bilinear_sample

    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    jumps = np.asarray(jumps, dtype=float)
    d_outer = 0.5 * EDGE_WINDOW * grid.hx
    d_inner = d_outer / 3.0
    tangents = np.stack([-normals[:, 1], normals[:, 0]], axis=1)

    def across(offset):
        probe = points + offset[:, None] * tangents
        outer = (bilinear_sample(grid, values, probe + d_outer * normals)
                 - bilinear_sample(grid, values, probe - d_outer * normals))
        inner = (bilinear_sample(grid, values, probe + d_inner * normals)
                 - bilinear_sample(grid, values, probe - d_inner * normals))
        return outer - 3.0 * inner

    shifts = np.arange(-EDGE_WINDOW, EDGE_WINDOW + 1) * grid.hx
    acc = np.zeros(len(points))
    for t in shifts:
        acc += across(np.full(len(points), t))
    return np.abs(acc / len(shifts)) / np.where(jumps > 0.0, jumps, 1.0)


def wavefront_image(spec, sigma, kernel, geom, phantom, grid=None, n_theta=64,
                    n_bdry=256, h_ray=None, tol=1e-10, max_iter=200,
                    n_edge=96, solver=None):
    """Normal-operator image of a phantom plus its edge-response report.

    Edge strength at a labeled point (z, xi) is the trend-cancelling
    finite difference of N along xi over EDGE_WINDOW pixels; see
    edge_strengths.  The report groups edges by microvisibility of (z, xi),
    tested for all edges in one microvisible call.
    """
    from .phantoms import rasterize

    solver = _make_solver(sigma, kernel, geom, grid, n_theta, n_bdry,
                          h_ray, tol, max_iter, solver)
    grid = solver.grid
    f = rasterize(phantom, grid, geom)
    image = normal_operator_full(spec, sigma, kernel, geom, f, solver=solver)
    pts, normals, jumps = phantom.edge_points(n_edge)
    strengths = edge_strengths(image.values, grid, pts, normals, jumps)
    report = EdgeReport(points=pts, normals=normals, jumps=jumps,
                        strengths=strengths,
                        visible=microvisible(spec, geom, pts, normals))
    return image, report
