"""Discrete transport: free streaming with absorption, scattering, traces.

The stationary problem is theta . grad u + sigma u - K u = J f in the outer
disk with zero inflow, where J broadcasts a source over directions and K
integrates against a scattering kernel.  Everything is discretized on a
pixel raster times a uniform direction grid.  A TransportSolver holds the
coefficients, the grids and every table built from them; all transport and
measurement operators are its methods.

The free-streaming inverse is a product-trapezoid march along rotated
coordinate frames.  All directions march together: each solver stacks the
per-direction rotation gathers, once and on first use, into one sparse
operator each way, and these gathers own the march layout and the disk
mask.  The gather into the rotated frames lists its rows in march order,
step after step with every direction in each step; the gather back reads
that order and has no entries for pixels outside the outer disk.  A sweep
is one product into march order, one recurrence over the steps and one
product back, with no other pass over phase space.
Every linear primitive here carries an exact transpose (gathers become
scatters, the march recurrence reverses), so measurement operators built
from them have machine-precision adjoint pairings.

Boundary traces re-integrate the transport source along the exit chord with
the same attenuated quadrature used by the ray transform; a field produced
by a transport solve remembers its source for this purpose, in the form the
trace reads (the analytic phantom or the (N, 1) raster, and the
(n_theta, N, 1) scattering source).  Only the live
cells of a chord, those before its entry point, enter the quadrature; one
builder lays them out as flat ragged arrays, chord after chord, with an
analytic source's jump-circle crossings merged into each chord's lattice.
A cell is named by its midpoint's distance back from the exit point.  For
raster sources the quadrature does not depend on the input, so each solver
folds it, once and on first use, into one sparse exit-chord operator per
direction (one row per outgoing chord, each run of cells in one bilinear
patch summed into one entry per corner pixel, the patches found in pixel
coordinates taken straight from the distances); tracing is a product with
it and the transpose trace is the product with its transpose.  Analytic
phantoms are evaluated at the midpoints of their refined cells on every
trace and summed chord by chord; a scattering source next to them goes
through an operator folded from the same cells.  A trace under a cutoff chi
is chi times the trace, and every quantity of a chord depends on that chord
alone, so it integrates only the chords whose outgoing sample has chi != 0
(the operators are folded once per cutoff); the full trace integrates all.

The scattering fixed point is only iterated when the spectral radius of
K T1^{-1} is certified below one.  For a kernel that is nonnegative on the
discrete direction grid, K T1^{-1} is an entrywise nonnegative matrix (the
gathers and march factors are all nonnegative), so a Collatz-Wielandt
bracket proves bounds on its spectral radius: for any x > 0 on the
kernel's pixel support, min (Ax)_i / x_i <= rho <= max (Ax)_i / x_i.  The
bracket is tightened by normalised power steps until it closes.  A kernel
with a negative discrete entry falls back to a power-iteration estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._interp import BilinearGather, csr
from .coefficients import (AbsorptionField, ScatteringKernel, ray_nodes, ray_points,
                           ray_step, trig_basis)
from .geometry import cutoff_boundary_values, rotate90, uniform_angles, unit_vector
from .phantoms import rasterize

TWO_PI = 2.0 * math.pi

# Refuse the fixed-point solve unless the scattering spectral radius bound
# (the upper end of the bracket, or the power estimate) is below 1 minus
# this margin.  A bracket whose lower end reaches it proves the refusal.
CONTRACTION_MARGIN = 1e-3

# The Collatz-Wielandt bracket stops once its gap is at most this fraction
# of its upper end, or after BRACKET_MAX_APPLICATIONS products with
# K T1^{-1} (the power fallback's budget); the upper end is a sound bound
# either way.
BRACKET_RTOL = 1e-11
BRACKET_MAX_APPLICATIONS = 60

# Kernel entries per pixel chunk of the discrete sign check, so the check
# never holds an (n_theta^2, N) table.
SIGN_CHECK_ENTRIES = 2**20

# Power-iteration fallback for kernels with a negative discrete entry: steps
# on the square of (K T1^{-1}), two products each, and the start-vector seed.
# Its result is an estimate, not a bound.
POWER_STEPS = 30
POWER_SEED = 0

# Unit-source columns per sweep in xv_columns and in the moment-matrix build.
_ASSEMBLY_BATCH = 64
# Largest moment-space dimension D whose (D, D) moment matrix a solver builds
# and keeps (8 MiB).
MOMENT_MAX_DIM = 1024


class NonConvergenceError(RuntimeError):
    """Raised when the scattering fixed point cannot be trusted to converge."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Certificate:
    """How the spectral radius of K T1^{-1} was bounded.

    method is "collatz-wielandt" (rho lies in [lower, upper]),
    "power-iteration" (upper is an estimate, lower is None) or "none" (zero
    kernel, rho = 0); applications counts the products with K T1^{-1} spent.
    """

    method: str
    applications: int
    upper: float
    lower: float = None


NO_SCATTERING = Certificate("none", 0, 0.0)


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual_history: tuple
    converged: bool
    certificate: Certificate

    @property
    def spectral_radius_estimate(self):
        """The spectral radius bound the solve rested on (upper end)."""
        return self.certificate.upper


class BoundaryGrid:
    """Uniform sample layout on outgoing boundary phase space.

    Boundary points at n_bdry uniform angles of the outer circle, paired
    with n_theta uniform directions.  The product measure weight per sample
    is |theta . nu| ds dtheta, zero on incoming pairs.
    """

    def __init__(self, geom, n_bdry, n_theta):
        self.geom = geom
        self.n_bdry = int(n_bdry)
        self.n_theta = int(n_theta)
        self.angles = uniform_angles(self.n_bdry)
        self.points = geom.radius_outer * unit_vector(self.angles)
        self.theta_angles = uniform_angles(self.n_theta)
        self.theta_vecs = unit_vector(self.theta_angles)
        nu = self.points / geom.radius_outer
        self.normal_dot = nu @ self.theta_vecs.T          # (n_bdry, n_theta)
        self.outgoing = self.normal_dot > 0.0
        self.ds = TWO_PI * geom.radius_outer / self.n_bdry
        self.dtheta = TWO_PI / self.n_theta
        self.weights = np.abs(self.normal_dot)
        self.measure = np.where(self.outgoing, self.normal_dot, 0.0) * self.ds * self.dtheta


@dataclass
class BoundaryData:
    """Values on a BoundaryGrid, zero on incoming pairs."""

    bgrid: BoundaryGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.bgrid.n_bdry, self.bgrid.n_theta):
            raise ValueError("boundary value shape does not match the grid")
        self.values = np.where(self.bgrid.outgoing, self.values, 0.0)

    def dot(self, other):
        """Inner product in the outgoing boundary measure."""
        return float(np.sum(self.values * other.values * self.bgrid.measure))

    def norm(self):
        return math.sqrt(max(self.dot(self), 0.0))


@dataclass
class PhaseSpaceField:
    """Field u(x, theta) on raster pixels times the direction grid.

    ``source_f`` and ``source_scatter`` record, when known, the transport
    source whose free-streaming integral produced this field, in the form
    TransportSolver.trace_phase reads: ``source_f`` is the analytic phantom
    or the (N, 1) pixel raster, ``source_scatter`` the (n_theta, N, 1)
    scattering source or None.  TransportSolver.trace_field re-integrates
    that source along the exit chords, so it traces only fields that record
    one.
    """

    grid: object
    theta_angles: np.ndarray
    values: np.ndarray                # (n_theta, ny, nx)
    source_f: object = None           # analytic phantom or (N, 1) raster
    source_scatter: np.ndarray = None  # (n_theta, N, 1)

    def __post_init__(self):
        n_theta = len(self.theta_angles)
        if self.values.shape != (n_theta, self.grid.ny, self.grid.nx):
            raise ValueError("phase-space value shape does not match grids")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("phase-space field has non-finite entries")

    @property
    def n_theta(self):
        return len(self.theta_angles)

    def norm(self):
        w = TWO_PI / self.n_theta * self.grid.pixel_area
        return math.sqrt(w * float(np.sum(self.values**2)))


def phase_norm(values, grid):
    """L2 norm over pixels times directions, values (n_theta, N, B) or similar."""
    n_theta = values.shape[0]
    w = TWO_PI / n_theta * grid.pixel_area
    return np.sqrt(w * np.sum(values**2, axis=tuple(range(values.ndim - 1))))


def source_raster(f, grid, geom=None):
    """f as a float (ny, nx) raster on the grid.

    With geom, the raster must also vanish outside the inner disk.
    """
    raster = np.asarray(f, dtype=float)
    if raster.shape != (grid.ny, grid.nx):
        raise ValueError("source raster shape does not match the grid")
    if geom is not None and np.any(raster[~grid.disk_mask(geom.radius_inner)] != 0.0):
        raise ValueError("source must vanish outside the inner disk")
    return raster


def apply_J(f, grid, n_theta=64, geom=None):
    """Broadcast a pixel source raster over the direction grid."""
    raster = source_raster(f, grid, geom)
    return PhaseSpaceField(grid=grid, theta_angles=uniform_angles(n_theta),
                           values=np.broadcast_to(raster, (n_theta,) + raster.shape).copy())


def _unit_sources(n_pixels, pixels):
    """(n_pixels, len(pixels)) raster columns, column c the unit source at
    pixels[c]."""
    f = np.zeros((n_pixels, len(pixels)))
    f[pixels, np.arange(len(pixels))] = 1.0
    return f


class TransportSolver:
    """Shared engine for the transport solve and its boundary measurements."""

    def __init__(self, geom, grid, sigma=None, kernel=None, n_theta=64,
                 n_bdry=256, h_ray=None, tol=1e-10, max_iter=200):
        if n_theta < 4:
            raise ValueError("n_theta must be at least 4")
        self.geom = geom
        self.grid = grid
        self.sigma = sigma if sigma is not None else AbsorptionField.zero(grid)
        self.kernel = kernel if kernel is not None else ScatteringKernel.zero(grid)
        if self.sigma.grid != grid or self.kernel.grid != grid:
            raise ValueError("coefficient grids do not match the solver grid")
        self.n_theta = int(n_theta)
        self.h_ray = ray_step(geom.radius_outer, h_ray)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.theta_angles = uniform_angles(self.n_theta)
        self.theta_vecs = unit_vector(self.theta_angles)
        self.w_theta = TWO_PI / self.n_theta
        self.bgrid = BoundaryGrid(geom, n_bdry, self.n_theta)
        self._h_march = grid.hx
        self._omega_flat = grid.disk_mask(geom.radius_inner).reshape(-1)
        self._rot = None
        self._trace_ops = {}
        self._march_A = None
        self._k_tables = None
        self._moment_space = None
        self._moment_C = None
        self.certificate = None

    # -- phase-space tables, built once ------------------------------------

    def _build_rotations(self):
        """Stacked rotation gathers and march factors of all directions.

        Rotated-frame values of all directions are laid out in march order
        (nx, n_theta, ny), so step i of every direction is one contiguous
        slice.  ``to`` samples a raster of each direction on its frame
        rotated to that direction (march axis along x), one row per frame
        value in march order; ``back`` samples each frame at the pixel
        centers inside the outer disk, its columns in march order, and has
        no entries in the rows of the other pixels, so those pixels read
        zero and its transpose ignores them.  Each direction's at_points
        entries are written straight into the final tables, in order, so a
        product equals the per-direction products bit for bit.  ``_march_A``
        holds the trapezoid attenuation factors in march order, shape
        (nx - 1, n_theta, ny).
        """
        grid = self.grid
        nx, ny, N = grid.nx, grid.ny, grid.n_pixels
        n = self.n_theta * N
        X, Y = np.meshgrid(grid.xs, grid.ys)
        perps = rotate90(self.theta_vecs)
        # Each frame lists its points column by column, so direction q's
        # rows of ``to`` are the (nx, ny) block [:, q] of march order.
        data = np.empty((nx, self.n_theta, 4 * ny))
        indices = np.empty(data.shape, dtype=np.int32)
        sig = np.empty((nx, self.n_theta, ny))
        for q, (th, perp) in enumerate(zip(self.theta_vecs, perps)):
            rot_pts = X[..., None] * th + Y[..., None] * perp
            sig[:, q] = self.sigma.sample(rot_pts, float(self.theta_angles[q])).T
            frame = rot_pts.transpose(1, 0, 2).reshape(-1, 2)
            m = BilinearGather.at_points(grid, frame).matrix
            data[:, q] = m.data.reshape(nx, 4 * ny)
            indices[:, q] = m.indices.reshape(nx, 4 * ny) + q * N
        self._march_A = np.exp(-0.5 * self._h_march * (sig[:-1] + sig[1:]))
        del sig
        to = csr(data.reshape(-1), indices.reshape(-1),
                 4 * np.arange(n + 1, dtype=np.int32), (n, n))
        # Frame pixel (iy, ix) of direction q sits at march position
        # (ix * n_theta + q) * ny + iy.
        disk = grid.disk_mask(self.geom.radius_outer).reshape(-1)
        pts = grid.points_flat()
        data = np.empty((self.n_theta, 4 * int(disk.sum())))
        indices = np.empty(data.shape, dtype=np.int32)
        for q, (th, perp) in enumerate(zip(self.theta_vecs, perps)):
            m = BilinearGather.at_points(
                grid, np.stack([(pts @ th)[disk], (pts @ perp)[disk]], axis=-1)).matrix
            data[q] = m.data
            iy, ix = np.divmod(m.indices, nx)
            indices[q] = (ix * self.n_theta + q) * ny + iy
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(4 * np.tile(disk, self.n_theta), out=indptr[1:])
        self._rot = (to, csr(data.reshape(-1), indices.reshape(-1), indptr, (n, n)))

    def _rotations(self):
        if self._rot is None:
            self._build_rotations()
        return self._rot

    def _k_matrices(self):
        """Kernel tables, one row per (term j, mode of kappa_j), in order.

        trig (T, n_theta) holds each mode's harmonic and ka (T, N) its
        raster; theta_mat (T, n_theta) holds its term's Theta_j.  A zero
        kernel has no rows.
        """
        if self._k_tables is None:
            rows = [(theta_poly, m) for theta_poly, kappa in self.kernel.modes
                    for m in kappa.modes]
            trig = np.zeros((len(rows), self.n_theta))
            ka = np.zeros((len(rows), self.grid.n_pixels))
            theta_mat = np.zeros((len(rows), self.n_theta))
            for t, (theta_poly, m) in enumerate(rows):
                trig[t] = trig_basis(m.order, m.phase, self.theta_angles)
                ka[t] = m.raster.reshape(-1)
                theta_mat[t] = theta_poly.eval(self.theta_angles)
            self._k_tables = (trig, ka, theta_mat)
        return self._k_tables

    # -- linear primitives on (n_theta, N, B) arrays -----------------------

    def j_apply(self, f_flat):
        """Broadcast a pixel source over directions; f_flat is (N, B)."""
        return np.broadcast_to(f_flat, (self.n_theta,) + f_flat.shape).copy()

    def j_transpose(self, values):
        return values.sum(axis=0)

    def k_apply(self, values):
        trig, ka, theta_mat = self._k_matrices()
        moments = self.w_theta * np.einsum("tq,qnb->tnb", trig, values)
        return np.einsum("tq,tnb->qnb", theta_mat, ka[..., None] * moments)

    def k_transpose(self, values):
        trig, ka, theta_mat = self._k_matrices()
        integrals = np.einsum("tq,qnb->tnb", theta_mat, values)
        return self.w_theta * np.einsum("tq,tnb->qnb", trig, ka[..., None] * integrals)

    def t1_apply(self, values):
        """Free-streaming solve with absorption: u = T1^{-1} g, g = values.

        All directions march together: one product with the stacked
        rotation gather into march order, one trapezoid recurrence over the
        nx columns of the rotated frames (each step on an (n_theta, ny, B)
        slice), one product back to the pixels of the outer disk.
        """
        B = values.shape[2]
        to, back = self._rotations()
        h2 = 0.5 * self._h_march
        g = (to @ values.reshape(-1, B)).reshape(
            (self.grid.nx, self.n_theta, self.grid.ny, B))
        u = np.zeros_like(g)
        for i in range(1, self.grid.nx):
            Ai = self._march_A[i - 1, :, :, None]
            u[i] = Ai * (u[i - 1] + h2 * g[i - 1]) + h2 * g[i]
        return (back @ u.reshape(-1, B)).reshape(values.shape)

    def t1_transpose(self, values):
        """Exact transpose of t1_apply: the same steps in reverse order."""
        B = values.shape[2]
        to, back = self._rotations()
        h2 = 0.5 * self._h_march
        v_rot = (back.T @ values.reshape(-1, B)).reshape(
            (self.grid.nx, self.n_theta, self.grid.ny, B))
        gbar = np.zeros_like(v_rot)
        c = np.zeros(v_rot.shape[1:])
        for i in range(self.grid.nx - 1, 0, -1):
            c = c + v_rot[i]
            Ai = self._march_A[i - 1, :, :, None]
            gbar[i] += h2 * c
            gbar[i - 1] += h2 * Ai * c
            c = Ai * c
        return (to.T @ gbar.reshape(-1, B)).reshape(values.shape)

    # -- scattering moment space ---------------------------------------------

    def moment_layout(self):
        """(S, live) of the kernel's moment space, built once.

        k_apply is K = E M: M takes the moments w_theta * trig @ u of a field
        and E spreads them back through theta_mat and ka.  S lists the pixels
        where some row of ka is nonzero; live lists, as flat indices into
        (len(S), T) in pixel-major order, the moments (pixel, row) where ka is
        nonzero, the only ones E reads.  len(live) is the dimension D of the
        moment space; a zero kernel has D = 0.
        """
        if self._moment_space is None:
            _, ka, _ = self._k_matrices()
            support = np.flatnonzero(np.any(ka != 0.0, axis=0))
            live = np.flatnonzero(ka[:, support].T.reshape(-1) != 0.0)
            self._moment_space = (support, live)
        return self._moment_space

    def moment_matrix(self):
        """C = M T1^{-1} E on the live moments, (D, D), built once.

        T1 acts on each direction alone, so one sweep of J e_p gives every
        column (b, p) at pixel p: with U = T1^{-1} J e_p, column (b, p) holds
        w_theta * ka[b, p] * sum_q trig[a, q] theta_mat[b, q] U[q, m] in row
        (m, a).  The trig x theta_mat products over q are one product with
        a (T^2, n_theta) table.  Pixels of S are swept in blocks small enough
        that no temporary outgrows an (n_theta, N, _ASSEMBLY_BATCH) batch.
        """
        if self._moment_C is None:
            trig, ka, theta_mat = self._k_matrices()
            support, live = self.moment_layout()
            n_t, n_s = len(trig), len(support)
            pairs = (trig[:, None] * theta_mat[None]).reshape(-1, self.n_theta)
            # Live moment (pixel of S, row) pairs: rows (m, a) and columns
            # (p, b) of C, gathered from the (a, b, m, p) product.
            pix, row = np.divmod(live, n_t)
            C = np.empty((len(live), len(live)))
            block = max(1, _ASSEMBLY_BATCH * self.n_theta // max(self.n_theta, n_t * n_t))
            for first in range(0, n_s, block):
                swept = support[first:first + block]
                f = _unit_sources(self.grid.n_pixels, swept)
                u = self.t1_apply(self.j_apply(f))[:, support]
                g = (pairs @ u.reshape(self.n_theta, -1)).reshape(n_t, n_t, n_s, len(swept))
                g *= self.w_theta * ka[None, :, None, swept]
                cols = (pix >= first) & (pix < first + len(swept))
                C[:, cols] = g[row[:, None], row[cols], pix[:, None], pix[cols] - first]
            self._moment_C = C
        return self._moment_C

    def xv_columns(self, pixels, spec, n_terms):
        """xv_apply on the unit sources at pixels: (n_bdry, n_theta, len(pixels)).

        With a scattering term (n_terms >= 1) and a moment space of at most
        MOMENT_MAX_DIM dimensions, the series is summed with moment_matrix()
        (_xv_moments): one sweep per column, plus |S| sweeps the first time
        C is built.  Otherwise each block of _ASSEMBLY_BATCH columns takes
        n_terms sweeps through xv_apply.  The choice depends on the inputs
        only, never on what the solver has cached.
        """
        pixels = np.asarray(pixels, dtype=np.intp)
        blocks = [slice(first, first + _ASSEMBLY_BATCH)
                  for first in range(0, len(pixels), _ASSEMBLY_BATCH)]
        if n_terms >= 1 and len(self.moment_layout()[1]) <= MOMENT_MAX_DIM:
            return self._xv_moments(pixels, blocks, spec, n_terms)
        out = np.empty((self.bgrid.n_bdry, self.n_theta, len(pixels)))
        for blk in blocks:
            f = _unit_sources(self.grid.n_pixels, pixels[blk])
            out[..., blk] = self.xv_apply(f, spec, n_terms)
        return out

    def _xv_moments(self, pixels, blocks, spec, n_terms):
        """xv_columns summed in the moment space, for n_terms >= 1.

        sum_{j<=n} (K T1^{-1})^j J f = J f + E sum_{i<n} C^i b with
        b = M T1^{-1} J f on the live moments: one sweep per column, n - 1
        products with moment_matrix() and one E, the same polynomial as
        xv_apply summed in another order.  Columns are swept and traced in
        blocks, but the series runs on all of them at once, so its products
        with C are few and large.  The trace takes J f as its raster part.
        """
        trig, ka, theta_mat = self._k_matrices()
        support, live = self.moment_layout()
        C = self.moment_matrix()
        n_pixels = self.grid.n_pixels
        b = np.empty((len(live), len(pixels)))
        for blk in blocks:
            f = _unit_sources(n_pixels, pixels[blk])
            u = self.t1_apply(self.j_apply(f))[:, support]
            b[:, blk] = self.w_theta * np.einsum("tq,qsb->stb", trig, u).reshape(
                -1, f.shape[1])[live]
        z = b
        for _ in range(n_terms - 1):
            z = b + C @ z
        ka_s = ka[:, support].T[..., None]
        out = np.empty((self.bgrid.n_bdry, self.n_theta, len(pixels)))
        for blk in blocks:
            f = _unit_sources(n_pixels, pixels[blk])
            moments = np.zeros((len(support) * len(trig), f.shape[1]))
            moments[live] = z[:, blk]
            moments = moments.reshape(len(support), len(trig), f.shape[1])
            scatter = np.zeros((self.n_theta,) + f.shape)
            scatter[:, support] = np.einsum("tq,stb->qsb", theta_mat, ka_s * moments)
            out[..., blk] = self.trace_phase(scatter, f, spec)
        return out

    # -- boundary trace -----------------------------------------------------

    def _chord_cells(self, q, circles, rows=None):
        """Attenuated quadrature cells for chords of direction q.

        The chords are those leaving at the boundary samples rows, which
        must be outgoing for q (default: every outgoing sample; a trace
        under a cutoff passes only those where the cutoff is nonzero).  The
        cells of a chord depend on that chord alone, so they are the same
        whichever other chords are built with it.

        The nodes of a chord of length L run back from its exit point: the
        lattice h_ray * k for every k with h_ray * k < L, merged in order
        with the crossings of an analytic source's jump circles that fall
        strictly inside (0, L), then L itself.  Only these live nodes are
        laid out, chord after chord in flat arrays, with one cell between
        neighbouring nodes of a chord.  Absorption is sampled at the nodes
        and its trapezoid integral G from the exit point is accumulated
        chord by chord; a cell weighs 0.5 * delta * (exp(-G) at its two
        ends).  Returns (outgoing indices, flat cell weights, cells per
        chord, flat midpoint distances back from the exit point), the cells
        listed chord after chord; the midpoint of a cell of chord c is
        bgrid.points[out_idx[c]] - dist * theta_q.  Raster traces fold the
        cells without circles once, through _trace_operators; analytic
        phantoms rebuild their refined cells on every trace.
        """
        bg = self.bgrid
        out_idx = np.flatnonzero(bg.outgoing[:, q]) if rows is None else rows
        z = bg.points[out_idx]
        L = 2.0 * self.geom.radius_outer * bg.normal_dot[out_idx, q]
        th = self.theta_vecs[q]
        lattice, n_lattice, nodes = ray_nodes(self.h_ray, L)
        # Each crossing goes in before the first lattice node of its chord
        # not below it; the rows of jumps are sorted, so crossings stay in
        # order.
        jumps = self._jump_nodes(z, L, th, circles)
        chord, rank = np.nonzero(np.isfinite(jumps))
        t = jumps[chord, rank]
        lattice_first = np.cumsum(n_lattice + 1) - (n_lattice + 1)
        nodes = np.insert(nodes, lattice_first[chord] + np.searchsorted(lattice, t), t)
        counts = n_lattice + np.bincount(chord, minlength=len(L))   # live cells per chord
        node_start = np.cumsum(counts + 1) - (counts + 1)
        last = node_start + counts
        # Neighbouring nodes bound a cell unless they belong to two chords.
        delta = np.diff(nodes)
        cell = np.ones(len(delta), dtype=bool)
        cell[last[:-1]] = False
        if self.sigma.is_zero:
            weights = delta[cell]
        else:
            sig = self.sigma.sample(ray_points(z, counts + 1, nodes, -th),
                                    float(self.theta_angles[q]))
            seg = 0.5 * delta * (sig[:-1] + sig[1:])
            G = np.zeros(len(nodes))
            for first, n in zip(node_start, counts):
                np.add.accumulate(seg[first:first + n], out=G[first + 1:first + n + 1])
            E = np.exp(-G)
            weights = (0.5 * delta * (E[:-1] + E[1:]))[cell]
        delta = delta[cell]
        return out_idx, weights, counts, nodes[:-1][cell] + 0.5 * delta

    @staticmethod
    def _jump_nodes(z, L, th, circles):
        """Jump-circle crossings of the chords, as distances back from z.

        Row c holds the crossings of chord c strictly inside (0, L[c]) in
        increasing order, padded with inf; a tangent circle (zero
        discriminant) adds none.  Shape (n_out, 2 * len(circles)).
        """
        cols = []
        for cx, cy, r in circles:
            o = z - np.array([cx, cy])
            b = o @ th
            c = np.sum(o * o, axis=1) - r * r
            disc = b * b - c
            root = np.sqrt(np.maximum(disc, 0.0))
            for back in (b + root, b - root):
                ok = (disc > 0.0) & (back > 0.0) & (back < L)
                cols.append(np.where(ok, back, np.inf))
        if not cols:
            return np.empty((len(z), 0))
        return np.sort(np.stack(cols, axis=1), axis=1)

    def _trace_rows(self, spec):
        """Per direction, the boundary samples whose chords a trace reads.

        Without a cutoff (spec None) these are the outgoing samples, with
        chi = 1.  Under one, only the outgoing samples where chi != 0: every
        other row of chi * trace is zero, so its chord is never integrated.
        Returns (q, sample indices, chi there as an (n, 1) column) for each
        direction with at least one such sample.
        """
        bg = self.bgrid
        chi = bg.outgoing.astype(float) if spec is None else self.chi_values(spec)
        support = bg.outgoing & (chi != 0.0)
        rows = []
        for q in range(self.n_theta):
            idx = np.flatnonzero(support[:, q])
            if len(idx):
                rows.append((q, idx, chi[idx, q, None]))
        return rows

    def _trace_operators(self, spec=None):
        """(q, sample indices, chi column, exit-chord operator) per direction.

        Built once per cutoff, for the chords of _trace_rows(spec).  Row c
        of operator q sums the weighted bilinear samples of the live cells of
        the chord leaving at sample rows[c], so it maps a raster source
        (N, B) to the chord quadratures (n, B).
        BilinearGather.along_chords finds each cell's patch from its distance
        back from the exit point and sums each run of cells in one patch into
        one entry per corner pixel.
        """
        if spec not in self._trace_ops:
            ops = []
            for q, rows, chi in self._trace_rows(spec):
                _, weights, counts, dist = self._chord_cells(q, [], rows)
                op = BilinearGather.along_chords(self.grid, self.bgrid.points[rows],
                                                 -self.theta_vecs[q], dist, weights, counts)
                ops.append((q, rows, chi, op))
            self._trace_ops[spec] = ops
        return self._trace_ops[spec]

    def trace_phase(self, scatter, f_part, spec=None):
        """Exit-chord quadrature of the transport source.

        scatter: (n_theta, N, B) raster source or None; f_part: (N, B)
        raster, an analytic phantom broadcast over directions, or None.
        Without a cutoff every outgoing chord is integrated; under a cutoff
        spec the result is chi * trace and only the chords where chi != 0
        are integrated, the rest reading 0 (without a cutoff chi is 1, and
        multiplying by it is exact).  Raster sources go through the cached
        per-direction operators.  An analytic phantom is evaluated at the
        midpoints of the live cells refined at its jump circles and summed
        chord by chord; a scattering source next to it goes through an
        exit-chord operator folded from the distances of the same cells.
        Returns boundary values (n_bdry, n_theta, B).
        """
        analytic = callable(f_part)
        B = scatter.shape[2] if scatter is not None else (
            1 if analytic else f_part.shape[1])
        out = np.zeros((self.bgrid.n_bdry, self.n_theta, B))
        if not analytic:
            for q, rows, chi, op in self._trace_operators(spec):
                if scatter is None:
                    src = f_part
                elif f_part is None:
                    src = scatter[q]
                else:
                    src = scatter[q] + f_part
                out[rows, q] = chi * op.apply(src)
            return out
        circles = f_part.jump_circles()
        for q, rows, chi in self._trace_rows(spec):
            _, weights, counts, dist = self._chord_cells(q, circles, rows)
            z, back = self.bgrid.points[rows], -self.theta_vecs[q]
            mids = ray_points(z, counts, dist, back)
            vals = weights * np.asarray(f_part(mids), dtype=float).reshape(-1)
            # Every outgoing chord has at least one live cell.
            vals = np.add.reduceat(vals, np.cumsum(counts) - counts)[:, None]
            if scatter is not None:
                op = BilinearGather.along_chords(self.grid, z, back, dist, weights, counts)
                vals = vals + op.apply(scatter[q])
            out[rows, q] = chi * vals
        return out

    def trace_transpose(self, cot, spec=None):
        """Exact transpose of trace_phase on full phase-space sources,
        under the same cutoff."""
        out = np.zeros((self.n_theta, self.grid.n_pixels, cot.shape[2]))
        for q, rows, chi, op in self._trace_operators(spec):
            out[q] = op.apply_transpose(chi * cot[rows, q])
        return out

    def chi_values(self, spec):
        """Cutoff on the boundary grid; _trace_rows reads it once per cutoff."""
        bg = self.bgrid
        return cutoff_boundary_values(spec, bg.angles[:, None], bg.normal_dot)

    # -- contraction certificate and fixed point ----------------------------

    def spectral_radius(self):
        """Upper bound of the spectral radius of K T1^{-1}, computed once.

        For a kernel nonnegative on the discrete grid this is the upper end
        of a Collatz-Wielandt bracket (_collatz_wielandt); otherwise, or when
        an iterate of the bracket is not strictly positive on the kernel's
        support, it is the power-iteration estimate (_power_estimate).  The
        Certificate is kept in ``self.certificate`` (None until this runs).
        """
        if self.certificate is None:
            if self.kernel.is_zero:
                self.certificate = NO_SCATTERING
            else:
                cert, spent = self._collatz_wielandt()
                self.certificate = cert or self._power_estimate(spent)
        return self.certificate.upper

    def _kernel_nonnegative(self):
        """Whether every discrete kernel entry is nonnegative.

        Pixel n scatters direction q' into q with weight
        w_theta * (theta_mat^T diag(ka[:, n]) trig)[q, q'].  Nonnegative factor
        tables settle it at once.  Otherwise each column of ka is scaled by
        the positive factor 1 / max |ka[:, n]|, which keeps the signs of its
        entries, and the products are checked once per distinct scaled
        column (a Henyey-Greenstein kernel, whose columns are multiples of
        one vector, has a handful), in chunks of at most SIGN_CHECK_ENTRIES
        entries.
        """
        trig, ka, theta_mat = self._k_matrices()
        if all(np.all(t >= 0.0) for t in (trig, ka, theta_mat)):
            return True
        peak = np.abs(ka).max(axis=0)
        live = peak > 0.0
        cols = ka[:, live] / peak[live]
        cols = cols[:, np.lexsort(cols)]
        distinct = np.ones(cols.shape[1], dtype=bool)
        distinct[1:] = np.any(cols[:, 1:] != cols[:, :-1], axis=0)
        cols = cols[:, distinct]
        chunk = max(1, SIGN_CHECK_ENTRIES // self.n_theta**2)
        for first in range(0, cols.shape[1], chunk):
            left = np.einsum("tq,tn->nqt", theta_mat, cols[:, first:first + chunk])
            if np.any(left @ trig < 0.0):
                return False
        return True

    def _collatz_wielandt(self):
        """Collatz-Wielandt bracket of rho(K T1^{-1}) for a nonnegative kernel.

        Rows of K T1^{-1} vanish off the pixels S where the kernel does, so
        its spectral radius is that of the block on S.  Each step forms
        y = K T1^{-1} x; with x > 0 on S, min_S y/x <= rho <= max_S y/x, and
        x = y / max_S y/x is the next start.  The first x is the kernel's
        largest factor magnitude at each pixel of S, scaled to peak at 1: a
        flat start would put the first lower end near the smallest kernel
        value on S, which the tapered extension drives towards zero.  Stops
        when the gap is at most BRACKET_RTOL of the upper end, when the
        lower end proves the refusal, or after BRACKET_MAX_APPLICATIONS
        steps.  A product that overflows gives an infinite, still sound,
        upper end.  Returns (Certificate or None, products spent); None when
        the kernel has a negative discrete entry or an iterate is not
        strictly positive on S.
        """
        if not self._kernel_nonnegative():
            return None, 0
        _, ka, _ = self._k_matrices()
        profile = np.abs(ka).max(axis=0)
        support = profile > 0.0
        x = np.zeros((self.n_theta, self.grid.n_pixels, 1))
        x[:, support, 0] = profile[support] / profile.max()
        for n in range(1, BRACKET_MAX_APPLICATIONS + 1):
            y = self.k_apply(self.t1_apply(x))
            y_s = y[:, support]
            if not np.all(y_s > 0.0):
                return None, n
            ratio = y_s / x[:, support]
            lo, hi = float(ratio.min()), float(ratio.max())
            if hi - lo <= BRACKET_RTOL * hi or lo >= 1.0 - CONTRACTION_MARGIN:
                break
            x = y / hi
        return Certificate("collatz-wielandt", n, hi, lo), n

    def _power_estimate(self, spent):
        """Power-iteration estimate of rho(K T1^{-1}), not a bound.

        Runs POWER_STEPS steps on the square of (K T1^{-1}) from a seeded
        random start.  Each of a step's two products y = K T1^{-1} x is
        divided by its largest magnitude before its norm is taken, so no
        norm overflows, and its growth ||y|| / ||x|| is kept.  With g1 and
        g2 the growths of the last step, the estimate is sqrt(g1) * sqrt(g2),
        the square root of the last growth of the square.  It is inf when a
        product overflows.  spent counts products already used by an
        abandoned bracket.
        """
        rng = np.random.default_rng(POWER_SEED)
        v = rng.standard_normal((self.n_theta, self.grid.n_pixels, 1))
        v /= np.max(np.abs(v))
        norm_v = float(phase_norm(v, self.grid)[0])
        growth = []
        for step in range(1, 2 * POWER_STEPS + 1):
            w = self.k_apply(self.t1_apply(v))
            peak = float(np.max(np.abs(w)))
            if peak == 0.0 or not math.isfinite(peak):
                return Certificate("power-iteration", spent + step,
                                   0.0 if peak == 0.0 else math.inf)
            w /= peak
            norm_w = float(phase_norm(w, self.grid)[0])
            growth.append(peak * norm_w / norm_v)
            v, norm_v = w, norm_w
        rho = math.sqrt(growth[-2]) * math.sqrt(growth[-1])
        return Certificate("power-iteration", spent + 2 * POWER_STEPS,
                           rho if math.isfinite(rho) else math.inf)

    def _report(self, iterations, history, converged):
        """SolveReport carrying this solver's certificate."""
        return SolveReport(iterations=iterations, residual_history=tuple(history),
                           converged=converged, certificate=self.certificate)

    def require_contraction(self):
        """The spectral radius bound; raises NonConvergenceError unless it
        is below 1 - CONTRACTION_MARGIN."""
        rho = self.spectral_radius()
        if rho >= 1.0 - CONTRACTION_MARGIN:
            cert = self.certificate
            if cert.lower is not None and cert.lower >= 1.0 - CONTRACTION_MARGIN:
                what = f"is at least {cert.lower:.9g} (Collatz-Wielandt lower bound)"
            else:
                kind = "estimate" if cert.lower is None else "bound"
                what = f"{kind} {rho:.9g} is not safely below 1"
            raise NonConvergenceError(
                f"scattering spectral radius {what}; refusing the fixed-point "
                f"solve", self._report(0, (), False))
        return rho

    def _f_flat(self, f):
        """The source f, a raster or an analytic phantom, as an (N, 1) raster."""
        if callable(f):
            raster = rasterize(f, self.grid, self.geom)
        else:
            raster = source_raster(f, self.grid, self.geom)
        return raster.reshape(-1, 1)

    def solve(self, f):
        """Source iteration for u = T1^{-1}(K u + J f).

        f is a source raster or an analytic phantom, which the field records
        for its trace.  Returns (PhaseSpaceField, SolveReport).  Refuses to
        iterate when the spectral radius bound is not safely below one; raises
        NonConvergenceError carrying the report as soon as the residual is
        non-finite, or once max_iter is exhausted.
        """
        f_flat = self._f_flat(f)
        jf = self.j_apply(f_flat)
        self.require_contraction()
        u = self.t1_apply(jf)
        scatter, it, history = None, 1, []
        if not (self.kernel.is_zero or float(phase_norm(u, self.grid)[0]) == 0.0):
            for it in range(2, self.max_iter + 1):
                scatter = self.k_apply(u)
                u_next = self.t1_apply(jf + scatter)
                res = float(phase_norm(u_next - u, self.grid)[0])
                res /= max(float(phase_norm(u_next, self.grid)[0]), 1e-300)
                history.append(res)
                u = u_next
                if not math.isfinite(res):
                    raise NonConvergenceError(
                        f"fixed-point residual is non-finite ({res}) at iteration {it}",
                        self._report(it, history, False))
                if res < self.tol:
                    break
            else:
                raise NonConvergenceError(
                    f"fixed point did not reach tolerance {self.tol:g} in "
                    f"{self.max_iter} iterations",
                    self._report(self.max_iter, history, False))
        field = PhaseSpaceField(
            grid=self.grid, theta_angles=self.theta_angles,
            values=u[..., 0].reshape(self.n_theta, self.grid.ny, self.grid.nx),
            source_f=f if callable(f) else f_flat, source_scatter=scatter)
        return field, self._report(it, history, True)

    # -- measurement operator ------------------------------------------------

    def trace_field(self, field, spec=None):
        """Outgoing boundary trace of a field from its recorded source.

        The raster or phantom in ``field.source_f`` and the scattering
        source in ``field.source_scatter`` go through trace_phase, so under
        a cutoff spec this is chi * trace from the chords where chi != 0.  A
        field that records neither, such as one built by hand, is refused.
        """
        if field.source_f is None and field.source_scatter is None:
            raise ValueError("field carries no transport source to trace; trace "
                             "a field returned by TransportSolver.solve")
        values = self.trace_phase(field.source_scatter, field.source_f, spec)[..., 0]
        return BoundaryData(bgrid=self.bgrid, values=values)

    def measurement(self, spec, f):
        """Partial boundary measurement chi * (trace of the solved field) of
        a source raster or phantom f."""
        field, report = self.solve(f)
        return self.trace_field(field, spec), report

    def xv_apply(self, f_flat, spec, n_terms):
        """chi * trace of sum_{j<=n_terms} (K T1^{-1})^j J f, fixed length."""
        jf = self.j_apply(f_flat)
        acc = jf.copy()
        y = jf
        for _ in range(n_terms):
            y = self.k_apply(self.t1_apply(y))
            acc += y
        return self.trace_phase(acc, None, spec)

    def xv_transpose(self, cot, spec, n_terms):
        """Exact transpose of xv_apply at matched series length."""
        w = self.trace_transpose(cot, spec)
        acc = w.copy()
        y = w
        for _ in range(n_terms):
            y = self.t1_transpose(self.k_transpose(y))
            acc += y
        return self.j_transpose(acc)
