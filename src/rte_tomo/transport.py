"""Discrete transport: free streaming with absorption, scattering, traces.

The stationary problem is theta . grad u + sigma u - K u = J f in the outer
disk with zero inflow, where J broadcasts a source over directions and K
integrates against a scattering kernel.  Everything is discretized on a
pixel raster times a uniform direction grid.

The free-streaming inverse is a product-trapezoid march along rotated
coordinate frames.  All directions march together: each solver stacks the
per-direction rotation gathers, once and on first use, into one
block-diagonal sparse operator each way, so a sweep is one product into the
rotated frames, one recurrence over their columns and one product back.
Every linear primitive here carries an exact transpose (gathers become
scatters, the march recurrence reverses), so measurement operators built
from them have machine-precision adjoint pairings.

Boundary traces re-integrate the transport source along the exit chord with
the same attenuated quadrature used by the ray transform; a field produced
by a transport solve remembers its source for this purpose.  Only the live
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
through an operator folded from the same cells.

The scattering fixed point is only iterated when the spectral radius of
K T1^{-1} is certified below one.  For a kernel that is nonnegative on the
discrete direction grid, K T1^{-1} is an entrywise nonnegative matrix (the
gathers, march factors and masks are all nonnegative), so a Collatz-Wielandt
bracket proves bounds on its spectral radius: for any x > 0 on the
kernel's pixel support, min (Ax)_i / x_i <= rho <= max (Ax)_i / x_i.  The
bracket is tightened by normalised power steps until it closes.  A kernel
with a negative discrete entry falls back to a power-iteration estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._interp import BilinearGather
from .coefficients import (RAY_STEPS_PER_RADIUS, AbsorptionField,
                           ScatteringKernel, trig_basis)
from .geometry import uniform_angles, unit_vector

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

    @property
    def scatter_terms(self):
        """Number of scattering applications folded into the solution."""
        return max(self.iterations - 1, 0)


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
    source whose free-streaming integral produced this field; boundary
    traces reuse them for an exit-chord quadrature instead of extrapolating
    raster values.
    """

    grid: object
    theta_angles: np.ndarray
    values: np.ndarray                # (n_theta, ny, nx)
    source_f: object = None           # raster or analytic phantom
    source_scatter: np.ndarray = None

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


def _phantom_circles(phantom):
    if not hasattr(phantom, "jump_circles"):
        return []
    return list(phantom.jump_circles())


def ray_nodes(step, lengths):
    """Live lattice nodes of rays of the given lengths, ray after ray.

    Ray c gets the n[c] lattice nodes step * k below lengths[c], in order,
    then lengths[c] itself, so n[c] cells.  Returns (lattice, n, flat nodes).
    """
    n_full = int(math.floor(lengths.max() / step + 1e-12))
    lattice = step * np.arange(n_full + 1)
    n = np.searchsorted(lattice, lengths)
    last = np.cumsum(n + 1) - 1
    rank = np.arange(int(last[-1]) + 1) - np.repeat(last - n, n + 1)
    nodes = lattice.take(rank, mode="clip")
    nodes[last] = lengths
    return lattice, n, nodes


def ray_points(origins, counts, dist, direction):
    """Points origins + dist * direction, ray after ray.

    counts[c] consecutive distances belong to origins[c].  Returns (n, 2)
    points whose two columns are contiguous.
    """
    return np.stack([np.repeat(origins[:, 0], counts) + dist * direction[0],
                     np.repeat(origins[:, 1], counts) + dist * direction[1]]).T


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
        if h_ray is None:
            h_ray = geom.radius_outer / RAY_STEPS_PER_RADIUS
        self.h_ray = h_ray
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.theta_angles = uniform_angles(self.n_theta)
        self.theta_vecs = unit_vector(self.theta_angles)
        self.w_theta = TWO_PI / self.n_theta
        self.bgrid = BoundaryGrid(geom, n_bdry, self.n_theta)
        self._h_march = grid.hx
        self._mask_flat = grid.disk_mask(geom.radius_outer).reshape(-1).astype(float)
        self._omega_flat = grid.disk_mask(geom.radius_inner).reshape(-1)
        self._rot = None
        self._trace_ops = None
        self._march_A = None
        self._k_tables = None
        self.certificate = None
        self._chi_cache = {}

    # -- phase-space tables, built once ------------------------------------

    def _build_rotations(self):
        """Stacked rotation gathers and march factors of all directions.

        Row block q of ``to`` samples a raster on the frame rotated to
        direction q (march axis along x); row block q of ``back`` samples
        that frame's values at the pixel centers.  Both are block-diagonal
        over (n_theta * N) phase-space rows, so one product serves every
        direction and equals the per-direction products bit for bit.
        ``_march_A`` holds the
        trapezoid attenuation factors in march order, shape
        (nx - 1, n_theta, ny): step i of every direction is one contiguous
        slice.
        """
        grid = self.grid
        pts = grid.points_flat()
        X, Y = np.meshgrid(grid.xs, grid.ys)
        to_pts, back_pts, sig = [], [], []
        for q in range(self.n_theta):
            th = self.theta_vecs[q]
            perp = np.array([-th[1], th[0]])
            rot_pts = X[..., None] * th + Y[..., None] * perp
            to_pts.append(rot_pts.reshape(-1, 2))
            back_pts.append(np.stack([pts @ th, pts @ perp], axis=-1))
            sig.append(self.sigma.sample(rot_pts, float(self.theta_angles[q])))
        self._rot = (BilinearGather.block_diagonal(grid, to_pts).matrix,
                     BilinearGather.block_diagonal(grid, back_pts).matrix)
        sig = np.ascontiguousarray(np.stack(sig).transpose(2, 0, 1))  # (nx, n_theta, ny)
        h2 = 0.5 * self._h_march
        self._march_A = np.exp(-h2 * (sig[:-1] + sig[1:]))

    def _rotations(self):
        if self._rot is None:
            self._build_rotations()
        return self._rot

    def _k_matrices(self):
        if self._k_tables is None:
            keys = []
            for _, kappa in self.kernel.modes:
                for m in kappa.modes:
                    key = (m.order, m.phase)
                    if key not in keys:
                        keys.append(key)
            M = max(len(keys), 1)
            J = max(len(self.kernel.modes), 1)
            trig = np.zeros((M, self.n_theta))
            for i, (order, phase) in enumerate(keys):
                trig[i] = trig_basis(order, phase, self.theta_angles)
            ka = np.zeros((J, M, self.grid.n_pixels))
            theta_mat = np.zeros((J, self.n_theta))
            for j, (theta_poly, kappa) in enumerate(self.kernel.modes):
                theta_mat[j] = theta_poly.eval(self.theta_angles)
                for m in kappa.modes:
                    i = keys.index((m.order, m.phase))
                    ka[j, i] += m.raster.reshape(-1)
            self._k_tables = (trig, ka, theta_mat)
        return self._k_tables

    # -- linear primitives on (n_theta, N, B) arrays -----------------------

    def j_apply(self, f_flat):
        """Broadcast a pixel source over directions; f_flat is (N, B)."""
        return np.broadcast_to(f_flat, (self.n_theta,) + f_flat.shape).copy()

    def j_transpose(self, values):
        return values.sum(axis=0)

    def k_apply(self, values):
        if self.kernel.is_zero:
            return np.zeros_like(values)
        trig, ka, theta_mat = self._k_matrices()
        moments = self.w_theta * np.einsum("mq,qnb->mnb", trig, values)
        integrals = np.einsum("jmn,mnb->jnb", ka, moments)
        return np.einsum("jq,jnb->qnb", theta_mat, integrals)

    def k_transpose(self, values):
        if self.kernel.is_zero:
            return np.zeros_like(values)
        trig, ka, theta_mat = self._k_matrices()
        integrals = np.einsum("jq,qnb->jnb", theta_mat, values)
        moments = np.einsum("jmn,jnb->mnb", ka, integrals)
        return self.w_theta * np.einsum("mq,mnb->qnb", trig, moments)

    def _to_columns(self, flat):
        """(n_theta * N, B) rotated-frame values as (nx, n_theta, ny, B) columns."""
        shape = (self.n_theta, self.grid.ny, self.grid.nx, flat.shape[1])
        return flat.reshape(shape).transpose(2, 0, 1, 3).copy()

    @staticmethod
    def _from_columns(cols):
        """Inverse of _to_columns."""
        return cols.transpose(1, 2, 0, 3).reshape(-1, cols.shape[3])

    def t1_apply(self, values):
        """Free-streaming solve with absorption: u = T1^{-1} g, g = values.

        All directions march together: one product with the stacked
        rotation gather, one trapezoid recurrence over the nx columns of
        the rotated frames (each step on an (n_theta, ny, B) slice), one
        product back to the pixels, then the outer-disk mask.
        """
        B = values.shape[2]
        to_all, back_all = self._rotations()
        h2 = 0.5 * self._h_march
        g = self._to_columns(to_all @ values.reshape(-1, B))
        u = np.zeros_like(g)
        for i in range(1, self.grid.nx):
            Ai = self._march_A[i - 1, :, :, None]
            u[i] = Ai * (u[i - 1] + h2 * g[i - 1]) + h2 * g[i]
        back = (back_all @ self._from_columns(u)).reshape(values.shape)
        return self._mask_flat[:, None] * back

    def t1_transpose(self, values):
        """Exact transpose of t1_apply: the same steps in reverse order."""
        B = values.shape[2]
        to_all, back_all = self._rotations()
        h2 = 0.5 * self._h_march
        v = self._mask_flat[:, None] * values
        v_rot = self._to_columns(back_all.T @ v.reshape(-1, B))
        gbar = np.zeros_like(v_rot)
        c = np.zeros(v_rot.shape[1:])
        for i in range(self.grid.nx - 1, 0, -1):
            c = c + v_rot[i]
            Ai = self._march_A[i - 1, :, :, None]
            gbar[i] += h2 * c
            gbar[i - 1] += h2 * Ai * c
            c = Ai * c
        return (to_all.T @ self._from_columns(gbar)).reshape(values.shape)

    # -- boundary trace -----------------------------------------------------

    def _chord_cells(self, q, circles):
        """Attenuated quadrature cells for all chords of direction q.

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
        out_idx = np.nonzero(bg.outgoing[:, q])[0]
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

    def _trace_operators(self):
        """Per-direction (outgoing indices, exit-chord operator), built once.

        Row c of operator q sums the weighted bilinear samples of the live
        cells of chord c of direction q, so it maps a raster source (N, B)
        to the chord quadratures (n_out, B).  BilinearGather.along_chords
        finds each cell's patch from its distance back from the exit point
        and sums each run of cells in one patch into one entry per corner
        pixel.
        """
        if self._trace_ops is None:
            ops = []
            for q in range(self.n_theta):
                out_idx, weights, counts, dist = self._chord_cells(q, [])
                op = BilinearGather.along_chords(self.grid, self.bgrid.points[out_idx],
                                                 -self.theta_vecs[q], dist, weights, counts)
                ops.append((out_idx, op))
            self._trace_ops = ops
        return self._trace_ops

    def trace_phase(self, scatter, f_part):
        """Exit-chord quadrature of the transport source.

        scatter: (n_theta, N, B) raster source or None; f_part: (N, B)
        raster, an analytic phantom broadcast over directions, or None.
        Raster sources go through the cached per-direction operators.  An
        analytic phantom is evaluated at the midpoints of the live cells
        refined at its jump circles and summed chord by chord; a scattering
        source next to it goes through an exit-chord operator folded from
        the distances of the same cells.  Returns boundary values
        (n_bdry, n_theta, B).
        """
        analytic = f_part is not None and not isinstance(f_part, np.ndarray)
        B = scatter.shape[2] if scatter is not None else (
            1 if analytic else f_part.shape[1])
        out = np.zeros((self.bgrid.n_bdry, self.n_theta, B))
        if not analytic:
            for q, (out_idx, op) in enumerate(self._trace_operators()):
                if scatter is None:
                    src = f_part
                elif f_part is None:
                    src = scatter[q]
                else:
                    src = scatter[q] + f_part
                out[out_idx, q] = op.apply(src)
            return out
        circles = _phantom_circles(f_part)
        for q in range(self.n_theta):
            out_idx, weights, counts, dist = self._chord_cells(q, circles)
            z, back = self.bgrid.points[out_idx], -self.theta_vecs[q]
            mids = ray_points(z, counts, dist, back)
            vals = weights * np.asarray(f_part(mids), dtype=float).reshape(-1)
            # Every outgoing chord has at least one live cell.
            out[out_idx, q] = np.add.reduceat(vals, np.cumsum(counts) - counts)[:, None]
            if scatter is not None:
                op = BilinearGather.along_chords(self.grid, z, back, dist, weights, counts)
                out[out_idx, q] += op.apply(scatter[q])
        return out

    def trace_transpose(self, cot):
        """Exact transpose of trace_phase on full phase-space sources."""
        out = np.zeros((self.n_theta, self.grid.n_pixels, cot.shape[2]))
        for q, (out_idx, op) in enumerate(self._trace_operators()):
            out[q] = op.apply_transpose(cot[out_idx, q])
        return out

    def chi_values(self, spec):
        """Cutoff evaluated on the boundary grid, cached per cutoff."""
        if spec not in self._chi_cache:
            from .geometry import cutoff_boundary_values
            bg = self.bgrid
            self._chi_cache[spec] = cutoff_boundary_values(
                spec, bg.angles[:, None], bg.normal_dot)
        return self._chi_cache[spec]

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
        w_theta * (theta_mat^T ka[:, :, n] trig)[q, q'].  Nonnegative factor
        tables settle it at once; otherwise the products are checked in
        chunks of at most SIGN_CHECK_ENTRIES entries.
        """
        trig, ka, theta_mat = self._k_matrices()
        if all(np.all(t >= 0.0) for t in (trig, ka, theta_mat)):
            return True
        chunk = max(1, SIGN_CHECK_ENTRIES // self.n_theta**2)
        for first in range(0, ka.shape[2], chunk):
            left = np.einsum("jq,jmn->nqm", theta_mat, ka[:, :, first:first + chunk])
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
        profile = np.abs(ka).max(axis=(0, 1))
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

    def _report(self, iterations, history, converged, cert=None):
        """SolveReport carrying a certificate, by default this solver's."""
        return SolveReport(iterations=iterations, residual_history=tuple(history),
                           converged=converged,
                           certificate=cert if cert is not None else self.certificate)

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

    def _f_flat(self, f, phantom):
        from .phantoms import rasterize
        if phantom is not None:
            raster = rasterize(phantom, self.grid, self.geom)
        else:
            raster = np.asarray(f, dtype=float)
            if raster.shape != (self.grid.ny, self.grid.nx):
                raise ValueError("source raster shape does not match the grid")
            outside = raster.reshape(-1)[~self._omega_flat]
            if np.any(outside != 0.0):
                raise ValueError("source must vanish outside the inner disk")
        return raster.reshape(-1, 1)

    def solve(self, f=None, phantom=None):
        """Source iteration for u = T1^{-1}(K u + J f).

        Returns (PhaseSpaceField, SolveReport).  Refuses to iterate when the
        spectral radius bound is not safely below one; raises
        NonConvergenceError carrying the report as soon as the residual is
        non-finite, or once max_iter is exhausted.
        """
        f_flat = self._f_flat(f, phantom)
        jf = self.j_apply(f_flat)
        if self.kernel.is_zero:
            u = self.t1_apply(jf)
            report = self._report(1, (), True, NO_SCATTERING)
            return self._make_field(u, phantom if phantom is not None else f_flat,
                                    None), report
        self.require_contraction()
        u = self.t1_apply(jf)
        scale = float(phase_norm(u, self.grid)[0])
        if scale == 0.0:
            report = self._report(1, (), True)
            return self._make_field(u, phantom if phantom is not None else f_flat,
                                    None), report
        history = []
        scatter = None
        for it in range(2, self.max_iter + 1):
            scatter = self.k_apply(u)
            g = jf + scatter
            u_next = self.t1_apply(g)
            res = float(phase_norm(u_next - u, self.grid)[0])
            res /= max(float(phase_norm(u_next, self.grid)[0]), 1e-300)
            history.append(res)
            u = u_next
            if not math.isfinite(res):
                report = self._report(it, history, False)
                raise NonConvergenceError(
                    f"fixed-point residual is non-finite ({res}) at iteration {it}",
                    report)
            if res < self.tol:
                report = self._report(it, history, True)
                return self._make_field(u, phantom if phantom is not None else f_flat,
                                        scatter), report
        report = self._report(self.max_iter, history, False)
        raise NonConvergenceError(
            f"fixed point did not reach tolerance {self.tol:g} in "
            f"{self.max_iter} iterations", report)

    def _make_field(self, values, source_f, scatter):
        if isinstance(source_f, np.ndarray):
            source_f = source_f.reshape(self.grid.ny, self.grid.nx)
        return PhaseSpaceField(
            grid=self.grid,
            theta_angles=self.theta_angles,
            values=values[..., 0].reshape(self.n_theta, self.grid.ny, self.grid.nx),
            source_f=source_f,
            source_scatter=scatter[..., 0] if scatter is not None else None,
        )

    # -- measurement operator ------------------------------------------------

    def trace_field(self, field):
        """Outgoing boundary trace of a field from its recorded source.

        The raster or phantom in ``field.source_f`` and the scattering
        source in ``field.source_scatter`` go through trace_phase.
        """
        scatter = None
        if field.source_scatter is not None:
            scatter = field.source_scatter[..., None]
        src = field.source_f
        if isinstance(src, np.ndarray):
            src = src.reshape(-1, 1)
        values = self.trace_phase(scatter, src)[..., 0]
        return BoundaryData(bgrid=self.bgrid, values=values)

    def measurement(self, spec, f=None, phantom=None):
        """Partial boundary measurement chi * (trace of the solved field)."""
        field, report = self.solve(f=f, phantom=phantom)
        values = self.chi_values(spec) * self.trace_field(field).values
        return BoundaryData(bgrid=self.bgrid, values=values), report

    def xv_apply(self, f_flat, spec, n_terms):
        """chi * trace of sum_{j<=n_terms} (K T1^{-1})^j J f, fixed length."""
        jf = self.j_apply(f_flat)
        acc = jf.copy()
        y = jf
        for _ in range(n_terms):
            y = self.k_apply(self.t1_apply(y))
            acc += y
        b = self.trace_phase(acc, None)
        return self.chi_values(spec)[..., None] * b

    def xv_apply_auto(self, f_flat, spec):
        """Like xv_apply but chooses the series length from the tolerance.

        Raises NonConvergenceError as soon as a term's norm ratio is
        non-finite, or when the series has not settled after max_iter terms.
        """
        self.require_contraction()
        jf = self.j_apply(f_flat)
        acc = jf.copy()
        y = jf
        n_terms = 0
        scale = np.maximum(phase_norm(jf, self.grid), 1e-300)
        if self.kernel.is_zero or float(scale.max()) <= 1e-300:
            return self.xv_apply(f_flat, spec, 0), 0
        for _ in range(self.max_iter):
            y = self.k_apply(self.t1_apply(y))
            acc += y
            n_terms += 1
            ratio = float((phase_norm(y, self.grid) / scale).max())
            if not math.isfinite(ratio):
                report = self._report(n_terms, (), False)
                raise NonConvergenceError(
                    f"scattering series residual is non-finite ({ratio}) at "
                    f"term {n_terms}", report)
            if ratio < self.tol:
                break
        else:
            report = self._report(self.max_iter, (), False)
            raise NonConvergenceError("scattering series did not settle", report)
        b = self.trace_phase(acc, None)
        return self.chi_values(spec)[..., None] * b, n_terms

    def xv_transpose(self, cot, spec, n_terms):
        """Exact transpose of xv_apply at matched series length."""
        w = self.trace_transpose(self.chi_values(spec)[..., None] * cot)
        acc = w.copy()
        y = w
        for _ in range(n_terms):
            y = self.t1_transpose(self.k_transpose(y))
            acc += y
        return self.j_transpose(acc)


# ---------------------------------------------------------------------------
# free-function interface
# ---------------------------------------------------------------------------


def apply_J(f, grid, n_theta=64, geom=None):
    """Broadcast a pixel source raster over the direction grid."""
    raster = np.asarray(f, dtype=float)
    if raster.shape != (grid.ny, grid.nx):
        raise ValueError("source raster shape does not match the grid")
    if geom is not None:
        outside = raster[~grid.disk_mask(geom.radius_inner)]
        if np.any(outside != 0.0):
            raise ValueError("source must vanish outside the inner disk")
    return PhaseSpaceField(grid=grid, theta_angles=uniform_angles(n_theta),
                           values=np.broadcast_to(raster, (n_theta,) + raster.shape).copy())


def apply_K(kernel, u):
    """Angular scattering integral applied slice by slice."""
    solver = TransportSolver(geom=_grid_geom(u.grid), grid=u.grid,
                             kernel=kernel, n_theta=u.n_theta, n_bdry=8)
    vals = solver.k_apply(u.values.reshape(u.n_theta, -1, 1))
    return PhaseSpaceField(grid=u.grid, theta_angles=u.theta_angles,
                           values=vals[..., 0].reshape(u.values.shape))


def _grid_geom(grid):
    from .geometry import DiskGeometry
    return DiskGeometry(radius_inner=0.5 * grid.half_width,
                        radius_outer=grid.half_width)


def apply_T1_inverse(sigma, geom, g, h_ray=None):
    """Free-streaming inverse of a phase-space source field."""
    solver = TransportSolver(geom=geom, grid=g.grid, sigma=sigma,
                             n_theta=g.n_theta, n_bdry=8, h_ray=h_ray)
    vals = solver.t1_apply(g.values.reshape(g.n_theta, -1, 1))
    return PhaseSpaceField(grid=g.grid, theta_angles=g.theta_angles,
                           values=vals[..., 0].reshape(g.values.shape),
                           source_scatter=g.values.reshape(g.n_theta, -1))


def solve_forward(sigma, kernel, geom, f, grid=None, n_theta=64, n_bdry=256,
                  h_ray=None, tol=1e-10, max_iter=200, phantom=None):
    """Solve the transport problem for a source raster or analytic phantom."""
    if grid is None:
        grid = sigma.grid
    solver = TransportSolver(geom=geom, grid=grid, sigma=sigma, kernel=kernel,
                             n_theta=n_theta, n_bdry=n_bdry, h_ray=h_ray,
                             tol=tol, max_iter=max_iter)
    return solver.solve(f=f, phantom=phantom)


def trace_plus(u, geom, n_bdry=256, h_ray=None, sigma=None):
    """Outgoing boundary trace of a phase-space field.

    Fields carrying their transport source are traced by re-integrating the
    source along each exit chord, which lands exactly on the boundary.  Bare
    fields fall back to sampling one march step inside the boundary and
    attenuating over the remaining step.
    """
    if sigma is None:
        sigma = AbsorptionField.zero(u.grid)
    solver = TransportSolver(geom=geom, grid=u.grid, sigma=sigma,
                             n_theta=u.n_theta, n_bdry=n_bdry, h_ray=h_ray)
    if u.source_f is not None or u.source_scatter is not None:
        return solver.trace_field(u)
    bg = solver.bgrid
    from ._interp import bilinear_sample
    from .coefficients import ray_absorption
    step = u.grid.hx
    values = np.zeros((bg.n_bdry, u.n_theta))
    for q in range(u.n_theta):
        th = solver.theta_vecs[q]
        out_idx = np.nonzero(bg.outgoing[:, q])[0]
        pts = bg.points[out_idx] - step * th
        samples = bilinear_sample(u.grid, u.values[q], pts)
        if not sigma.is_zero:
            att = np.array([
                math.exp(-float(ray_absorption(sigma, geom, p, th, [step],
                                               solver.h_ray)[0]))
                for p in pts])
            samples = samples * att
        values[out_idx, q] = samples
    return BoundaryData(bgrid=bg, values=values)


def measure_XV(spec, sigma, kernel, geom, f, grid=None, n_theta=64, n_bdry=256,
               h_ray=None, tol=1e-10, max_iter=200, phantom=None):
    """Partial-data measurement: cutoff times the outgoing trace of the solve."""
    if grid is None:
        grid = sigma.grid
    solver = TransportSolver(geom=geom, grid=grid, sigma=sigma, kernel=kernel,
                             n_theta=n_theta, n_bdry=n_bdry, h_ray=h_ray,
                             tol=tol, max_iter=max_iter)
    bd, _ = solver.measurement(spec, f=f, phantom=phantom)
    return bd
