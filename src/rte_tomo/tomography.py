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

from .coefficients import angle_of, ray_absorption, ray_step
from .geometry import (
    exit_points,
    exit_times,
    cutoff_boundary_values,
    cutoff_extended_values,
    rotate90,
    uniform_angles,
    unit_vector,
)
from .transport import BoundaryData, source_raster

TWO_PI = 2.0 * math.pi

# Pixel rows per block of the singular-kernel quadrature, and the direction
# angles its attenuation and cutoff profiles are tabulated at.
KERNEL_CHUNK = 256
KERNEL_N_THETA = 64
# Largest problem assembled as a dense matrix.
DENSE_MAX_PIXELS = 1024
DENSE_MAX_THETA = 32
# Edge-response window in pixels; see edge_strengths.
EDGE_WINDOW = 3


def dense_fits(solver):
    """Whether the solver's problem is small enough for dense assembly."""
    return (solver.grid.n_pixels <= DENSE_MAX_PIXELS
            and solver.n_theta <= DENSE_MAX_THETA)


def series_length(solver):
    """Scattering series length matching the solver tolerance.

    Zero for a vanishing kernel; otherwise the smallest m with rho^m below
    tol, clamped to [1, max_iter], where rho is the solver's spectral radius
    bound (the upper end of its Collatz-Wielandt bracket, or the power
    estimate for a kernel with a negative discrete entry).  Both the
    assembled-matrix and the iterative measurement paths use this, so they
    sum the same series.
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

    One ray_absorption fan per angle, from the pixels to their exit times
    (default step half a pixel width).  Pixels outside the outer disk get 1.
    """
    if step is None:
        step = 0.5 * grid.hx
    inside = grid.disk_mask(geom.radius_outer).reshape(-1)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    out = np.ones((len(angles), grid.n_pixels))
    p = grid.points_flat()[inside]
    th = unit_vector(angles)
    # One call, not one per angle: each return frees the block arrays, and
    # faulting them in again cost 30% of `symbol` at 64x64 (glibc, 2 CPUs).
    G = ray_absorption(sigma, p, th, exit_times(geom, p[None], th[:, None]), step, angles)
    out[:, inside] = np.exp(np.negative(G, out=G), out=G)
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


def ray_transform(solver, spec, f):
    """Attenuated ray transform cut to the visible boundary set.

    The solver's absorption attenuates; its kernel plays no part.  ``f`` is
    a source raster over the inner disk or an analytic phantom, which is
    integrated with quadrature cells split at its jump circles.
    """
    src = f if callable(f) else solver._f_flat(f)
    values = solver.trace_phase(None, src, spec)[..., 0]
    return BoundaryData(bgrid=solver.bgrid, values=values)


def adjoint_ray_transform(spec, sigma, geom, h, step=None):
    """Pixelwise angular sum E * chi^# * h^#, the adjoint quadrature.

    h^# extends boundary data along rays: each pixel and direction map to
    an exit point, and the data is interpolated in the exit angle over the
    half circle of boundary samples that are outgoing for that direction
    (directions are on-grid, so no interpolation happens in theta).  Data
    on incoming pairs is structurally zero and must not bleed into
    near-tangential exits, so the interpolation never crosses the tangent
    points; beyond the last outgoing sample it clamps to it.  This
    discretization is independent of the forward chord quadrature.  The
    pixel raster is the absorption field's.
    """
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


def principal_symbol(spec, sigma, geom, x, xi):
    """b0(x, xi) over (..., 2) points and unit covectors that broadcast, as
    in microvisible: an array over their leading shape, 0-d for one pair.

    The codirection integral over {theta . xi = 0} collapses to the two
    directions perpendicular to xi; each contributes |E chi^#| squared.  E
    runs back from the exit point at h_ray (symbol_field's from the pixel).
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if np.any(np.abs(np.linalg.norm(xi, axis=-1) - 1.0) > 1e-12):
        raise ValueError("xi must be a unit covector")
    # The squared form of Grid.disk_mask, as in microvisible.
    limit = geom.radius_outer * (1.0 + 1e-12)
    if np.any(x[..., 0] ** 2 + x[..., 1] ** 2 > limit * limit):
        raise ValueError("point lies outside the outer disk")
    x, perp = np.broadcast_arrays(x, rotate90(xi))
    h_ray = ray_step(geom.radius_outer)
    total = np.zeros(x.shape[:-1])
    for th in (perp, -perp):
        chi = cutoff_extended_values(spec, geom, x, th)
        live = chi != 0.0
        z, tau = exit_points(geom, x[live], th[live])
        g = ray_absorption(sigma, z, -th[live], tau, h_ray, angle_of(th[live]))
        total[live] += (np.exp(-g) * chi[live]) ** 2
    total *= TWO_PI
    return total


def symbol_field(spec, sigma, geom, grid, n_xi=32):
    """SymbolField of b0 over all pixels and n_xi covector angles.

    The directions xi_k +- pi/2 lie on the angles 2 pi j / (2 n_xi) + pi/2,
    at j = 2k and j = 2k - n_xi (mod 2 n_xi): n_xi distinct angles for even
    n_xi, 2 n_xi for odd.  One attenuation stack and one cutoff stack on
    them serve both orientations.
    """
    xi_angles = uniform_angles(n_xi)
    inside = grid.disk_mask(geom.radius_outer).reshape(-1)
    plus = 2 * np.arange(n_xi)
    used, at = np.unique(np.concatenate([plus, (plus - n_xi) % (2 * n_xi)]),
                         return_inverse=True)
    perp_angles = uniform_angles(2 * n_xi)[used] + 0.5 * math.pi
    e = attenuation_stack(sigma, geom, grid, perp_angles)
    chi = cutoff_stack(spec, geom, grid, perp_angles)
    values = (e * chi) ** 2
    values = values[at[:n_xi]] + values[at[n_xi:]]
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


def _angle_lookup(stack_t, cols, ang):
    """Periodic linear interpolation of per-pixel angle profiles.

    stack_t is (N, n_angles) over uniform angles; cols indexes pixels; ang
    is in radians.
    """
    n_angles = stack_t.shape[1]
    t = np.mod(ang, TWO_PI) * (n_angles / TWO_PI)
    i0 = np.floor(t).astype(np.intp) % n_angles
    w = t - np.floor(t)
    i1 = (i0 + 1) % n_angles
    return stack_t[cols, i0] * (1.0 - w) + stack_t[cols, i1] * w


def normal_operator_kernel(spec, sigma, geom, f):
    """Apply the ballistic normal operator by direct singular quadrature.

    Off-diagonal pairs use the kernel w(x, y)/|y - x| with
    w = sum over the two orientations of (E chi^#)(x) (E chi^#)(y); the
    cutoff at the shared exit is squared because both factors see the same
    exit point.  The diagonal pixel integrates 1/r in closed form.  The
    pixel raster is the absorption field's; the weights are tabulated at
    KERNEL_N_THETA directions and interpolated in angle.
    """
    grid = sigma.grid
    f = source_raster(f, grid)
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
        angles = uniform_angles(KERNEL_N_THETA)
        fstack = attenuation_stack(sigma, geom, grid, angles)
        fstack *= cutoff_stack(spec, geom, grid, angles)
        fstack_t = np.ascontiguousarray(fstack.T)      # (N, KERNEL_N_THETA)
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
            w = (_angle_lookup(fstack_t, rcols, ang)
                 * _angle_lookup(fstack_t, scols, ang))
            ang_op = ang + math.pi
            w = w + (_angle_lookup(fstack_t, rcols, ang_op)
                     * _angle_lookup(fstack_t, scols, ang_op))
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

    def singular_values(self):
        """Singular values in the weighted norms."""
        b = (np.sqrt(self.row_weights)[:, None] * self.matrix
             / np.sqrt(self.col_weights)[None, :])
        return np.linalg.svd(b, compute_uv=False)


def assemble_xv_matrix(solver, spec, n_terms, col_pixels=None):
    """Assemble the measurement operator from unit pixel sources.

    Columns march in increasing pixel index; each is the measurement of a
    unit pixel source summed to n_terms scattering terms, so at
    series_length(solver) the matrix and the iterative application agree.
    solver.xv_columns measures them, summing the series in the kernel's
    moment space where it can.  col_pixels defaults to the source-disk
    pixels.
    """
    if col_pixels is None:
        col_pixels = np.nonzero(solver._omega_flat)[0]
    col_pixels = np.asarray(col_pixels, dtype=np.intp)
    n_rows = solver.bgrid.n_bdry * solver.n_theta
    matrix = solver.xv_columns(col_pixels, spec, n_terms).reshape(n_rows, len(col_pixels))
    return OperatorMatrix(
        matrix=matrix,
        row_weights=solver.bgrid.measure.reshape(-1).copy(),
        col_weights=np.full(len(col_pixels), solver.grid.pixel_area),
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


def normal_operator_full(solver, spec, f, method="auto"):
    """X*X f with its ballistic part and scattering remainder.

    f is a source raster or an analytic phantom, taken at its raster.  On
    small grids the adjoint is the weighted transpose of the matrix that
    assemble_xv_matrix builds (its series summed in the kernel's moment
    space where that is cheaper); on large ones it is the transposed source
    iteration at matched series length.  The two agree to roundoff by
    construction.
    """
    if method not in ("auto", "matrix", "iterative"):
        raise ValueError("method must be 'auto', 'matrix', or 'iterative'")
    grid = solver.grid
    f_flat = solver._f_flat(f)[:, 0]
    omega = solver._omega_flat
    m = series_length(solver)
    if method == "auto":
        method = "matrix" if dense_fits(solver) else "iterative"
    if method == "matrix":
        def image(n_terms):
            op = assemble_xv_matrix(solver, spec, n_terms)
            out = np.zeros(grid.n_pixels)
            out[op.col_pixels] = op.apply_adjoint(op.apply(f_flat[op.col_pixels]))
            return out
    else:
        meas = solver.bgrid.measure[..., None]

        def image(n_terms):
            b = solver.xv_apply(f_flat[:, None], spec, n_terms)
            out = solver.xv_transpose(meas * b, spec, n_terms)[:, 0] / grid.pixel_area
            out *= omega
            return out
    full = image(m)
    ball = full.copy() if m == 0 else image(0)
    values = full.reshape(grid.ny, grid.nx)
    ballistic = ball.reshape(grid.ny, grid.nx)
    return WavefrontImage(
        grid=grid,
        values=values,
        gradient_magnitude=_gradient_magnitude(values, grid) * omega.reshape(values.shape),
        ballistic=ballistic,
        scattering_remainder=values - ballistic,
    )


def point_source_pairing(solver, spec, f, z):
    """Boundary inner product of the measurements of f and a pixel delta.

    f is a source raster or an analytic phantom, taken at its raster; z is
    a pixel (iy, ix) or a flat pixel index.  The delta at pixel z
    carries weight 1/pixel-area, so the pairing equals the normal-operator
    image at z up to floating-point accumulation order.
    """
    grid = solver.grid
    if np.ndim(z) == 1 or isinstance(z, tuple):
        iy, ix = (int(i) for i in z)
        if not (0 <= iy < grid.ny and 0 <= ix < grid.nx):
            raise ValueError(f"pixel z = ({iy}, {ix}) lies outside the "
                             f"{grid.ny}x{grid.nx} grid")
        zf = iy * grid.nx + ix
    else:
        zf = int(z)
        if not 0 <= zf < grid.n_pixels:
            raise ValueError(f"flat pixel index z = {zf} lies outside "
                             f"[0, {grid.n_pixels})")
    if not solver._omega_flat[zf]:
        raise ValueError("z must be a pixel of the source disk")
    m = series_length(solver)
    f_flat = solver._f_flat(f)
    phi = np.zeros((grid.n_pixels, 1))
    phi[zf, 0] = 1.0 / grid.pixel_area
    bf = solver.xv_apply(f_flat, spec, m)[..., 0]
    bphi = solver.xv_apply(phi, spec, m)[..., 0]
    return float(np.sum(bf * bphi * solver.bgrid.measure))


# ---------------------------------------------------------------------------
# injectivity SVD
# ---------------------------------------------------------------------------


def _erode_twice(mask):
    """A 2-D bool mask eroded twice by the 4-connected cross.

    A pixel survives a pass when it and its four edge neighbours are all
    set; pixels outside the raster read False.
    """
    m = np.asarray(mask, dtype=bool)
    for _ in range(2):
        pad = np.zeros((m.shape[0] + 2, m.shape[1] + 2), dtype=bool)
        pad[1:-1, 1:-1] = m
        m = m & pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:]
    return m


def visible_columns(solver, support_mask):
    """Flat source-disk pixels of the visible support eroded by two pixels."""
    omega = solver._omega_flat.reshape(solver.grid.ny, solver.grid.nx)
    eroded = _erode_twice(support_mask.visible) & omega
    return np.nonzero(eroded.reshape(-1))[0]


def svd_injectivity(solver, spec, support_mask):
    """Smallest singular values on visible and shadowed pixel supports.

    The visible support is the given mask eroded by two pixels (compact
    containment); the shadowed support is the eroded complement of the mask
    inside the source disk, the pixels carrying singularities the cutoff
    cannot see.  An empty shadowed set maps to 0 since the restricted
    operator has no columns to be small on.  Returns (smallest visible
    singular value, smallest shadowed one, the visible-support
    OperatorMatrix).
    """
    if not dense_fits(solver):
        raise ValueError(
            f"dense SVD requires at most {DENSE_MAX_PIXELS} pixels and "
            f"{DENSE_MAX_THETA} angles")
    grid = solver.grid
    if support_mask.grid != grid:
        raise ValueError("support mask grid does not match the solver grid")
    vis_cols = visible_columns(solver, support_mask)
    if len(vis_cols) == 0:
        raise ValueError("visible support is empty after erosion")
    m = series_length(solver)
    op_vis = assemble_xv_matrix(solver, spec, m, col_pixels=vis_cols)
    sigma_min_visible = float(op_vis.singular_values()[-1])
    omega = solver._omega_flat.reshape(grid.ny, grid.nx)
    shadow = _erode_twice(omega & ~support_mask.visible)
    inv_cols = np.nonzero(shadow.reshape(-1))[0]
    sigma_min_invisible = 0.0
    if len(inv_cols):
        op_inv = assemble_xv_matrix(solver, spec, m, col_pixels=inv_cols)
        sigma_min_invisible = float(op_inv.singular_values()[-1])
    return sigma_min_visible, sigma_min_invisible, op_vis


# ---------------------------------------------------------------------------
# smoothing diagnostic
# ---------------------------------------------------------------------------


def high_frequency_fraction(values, grid):
    """Energy fraction above half-Nyquist, per-direction 2D Fourier shells.

    The fraction does not depend on the scale of the values, so they are
    first scaled by the power of two that brings their peak magnitude into
    [0.5, 1).  The power spectrum then cannot overflow, and the scaling is
    exact, so the fraction keeps its bits unless an entry is subnormal.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        values = values[None]
    if values.size:
        values = np.ldexp(values, -math.frexp(float(np.max(np.abs(values))))[1])
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


def smoothing_diagnostic(solver, f_rough):
    """High-frequency energy fraction before and after one K T1^{-1} pass.

    f_rough is a PhaseSpaceField on the solver's pixel and direction grids.
    """
    grid = f_rough.grid
    if grid != solver.grid or f_rough.n_theta != solver.n_theta:
        raise ValueError("f_rough does not lie on the solver's pixel and "
                         "direction grids")
    before = high_frequency_fraction(f_rough.values, grid)
    v = f_rough.values.reshape(f_rough.n_theta, -1, 1)
    smoothed = solver.k_apply(solver.t1_apply(v))
    after = high_frequency_fraction(smoothed[..., 0].reshape(f_rough.values.shape), grid)
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


def wavefront_image(solver, spec, phantom, edges, visible):
    """Normal-operator image of a phantom plus its edge-response report.

    edges is the (points, normals, jumps) triple of phantom.edge_points and
    visible its microvisible mask under spec, both from the caller.  Edge
    strength at a labeled point (z, xi) is the trend-cancelling finite
    difference of N along xi over EDGE_WINDOW pixels; see edge_strengths.
    The report groups edges by microvisibility of (z, xi).
    """
    image = normal_operator_full(solver, spec, phantom)
    pts, normals, jumps = edges
    strengths = edge_strengths(image.values, solver.grid, pts, normals, jumps)
    report = EdgeReport(points=pts, normals=normals, jumps=jumps,
                        strengths=strengths, visible=visible)
    return image, report
