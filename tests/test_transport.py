"""Transport solver tests: operator building blocks, fixed point, traces."""

import math

import numpy as np
import pytest

from rte_tomo._interp import BilinearGather, bilinear_sample
from rte_tomo import transport
from rte_tomo.coefficients import (AbsorptionField, AngularField, AngularMode,
                                   ScatteringKernel, TrigPoly)
from rte_tomo.geometry import CutoffSpec, DiskGeometry, Grid
from rte_tomo.phantoms import DiskPhantom
from rte_tomo.tomography import ray_transform
from rte_tomo.transport import (
    BoundaryGrid,
    BoundaryData,
    NonConvergenceError,
    PhaseSpaceField,
    TransportSolver,
    apply_J,
    phase_norm,
)

GEOM = DiskGeometry(0.8, 1.0)
GRID = Grid(48, 48, 1.0)
TWO_PI = 2.0 * math.pi


def bumped_source(grid, geom, amplitude=1.0):
    """Smooth raster supported strictly inside the inner disk."""
    c = grid.centers()
    r2 = c[..., 0] ** 2 + c[..., 1] ** 2
    vals = amplitude * np.exp(-6.0 * r2)
    vals[r2 > (0.9 * geom.radius_inner) ** 2] = 0.0
    return vals


def shared_harmonic_kernel(grid, geom):
    """Two kernel terms whose kappa share the harmonic (1, "cos"), one of
    them with two modes of it, so no term is a single harmonic."""
    c = grid.centers()
    taper = bumped_source(grid, geom)
    kappa_a = AngularField(grid, (
        AngularMode(1, "cos", 0.05 * taper),
        AngularMode(1, "cos", 0.03 * taper * (1.0 + c[..., 0])),
        AngularMode(0, "cos", 0.02 * taper),
    ))
    kappa_b = AngularField(grid, (
        AngularMode(1, "cos", -0.04 * taper * (1.0 - c[..., 1])),
        AngularMode(2, "sin", 0.01 * taper),
    ))
    return ScatteringKernel(grid, (
        (TrigPoly(cos_coef=(0.5, 1.0), sin_coef=(0.0, 0.0)), kappa_a),
        (TrigPoly(cos_coef=(0.0, 0.0, 0.0), sin_coef=(0.0, 0.3, 0.0)), kappa_b),
    ))


def apply_to(op, values):
    """A solver primitive on (n_theta, ny, nx) values, shaped the same."""
    return op(values.reshape(len(values), -1, 1)).reshape(values.shape)


def cell_midpoints(solver, q, out_idx, counts, dist):
    """(n_cells, 2) midpoints of direction q's cells from their exit distances."""
    return transport.ray_points(solver.bgrid.points[out_idx], counts, dist,
                                -solver.theta_vecs[q])


class TestApplyJ:
    def test_zero_source(self):
        u = apply_J(np.zeros((GRID.ny, GRID.nx)), GRID, n_theta=8)
        assert u.values.shape == (8, GRID.ny, GRID.nx)
        assert np.all(u.values == 0.0)

    def test_constant_in_direction(self):
        f = np.zeros((GRID.ny, GRID.nx))
        f[20, 30] = 3.5
        u = apply_J(f, GRID, n_theta=12)
        for q in range(12):
            np.testing.assert_array_equal(u.values[q], f)

    def test_isometry_up_to_two_pi(self):
        rng = np.random.default_rng(3)
        f = bumped_source(GRID, GEOM) * rng.standard_normal((GRID.ny, GRID.nx))
        u = apply_J(f, GRID, n_theta=32, geom=GEOM)
        lhs = u.norm() ** 2
        rhs = TWO_PI * float(np.sum(f**2)) * GRID.pixel_area
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_support_outside_source_disk(self):
        f = np.ones((GRID.ny, GRID.nx))
        with pytest.raises(ValueError, match="vanish outside"):
            apply_J(f, GRID, geom=GEOM)


class TestApplyK:
    def test_zero_kernel(self):
        u = apply_J(bumped_source(GRID, GEOM), GRID, n_theta=8)
        s = TransportSolver(GEOM, GRID, kernel=ScatteringKernel.zero(GRID),
                            n_theta=8, n_bdry=8)
        assert np.all(apply_to(s.k_apply, u.values) == 0.0)

    def test_isotropic_on_direction_independent_field(self):
        # Inside the source disk the taper is identically one, so an
        # isotropic kernel integrates a theta-independent field to
        # total * u(x) there.
        total = 0.7
        kernel = ScatteringKernel.isotropic(GRID, GEOM, total)
        f = bumped_source(GRID, GEOM, 2.0)
        u = apply_J(f, GRID, n_theta=16)
        s = TransportSolver(GEOM, GRID, kernel=kernel, n_theta=16, n_bdry=8)
        ku = apply_to(s.k_apply, u.values)
        core = GRID.disk_mask(GEOM.radius_inner)
        for q in range(16):
            np.testing.assert_allclose(ku[q][core],
                                       total * f[core], atol=1e-12)

    def test_single_harmonic_against_direct_quadrature(self):
        n_theta = 24
        angles = TWO_PI * np.arange(n_theta) / n_theta
        rng = np.random.default_rng(11)
        a = bumped_source(GRID, GEOM) * rng.standard_normal((GRID.ny, GRID.nx))
        vals = a[None, :, :] * np.cos(angles)[:, None, None]
        for kernel in (ScatteringKernel.henyey_greenstein(GRID, GEOM, 0.5, 0.4),
                       shared_harmonic_kernel(GRID, GEOM)):
            s = TransportSolver(GEOM, GRID, kernel=kernel, n_theta=n_theta, n_bdry=8)
            ku = apply_to(s.k_apply, vals)

            # Oracle: direct Riemann sum over the same direction grid using
            # the kernel's pointwise eval, assembled without the solver's
            # matrices.
            pts = GRID.centers().reshape(-1, 2)
            dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            oracle = np.zeros((n_theta, len(pts)))
            flat_u = vals.reshape(n_theta, -1)
            for q in range(n_theta):
                acc = np.zeros(len(pts))
                for qp in range(n_theta):
                    kv = kernel.eval(pts, dirs[q], dirs[qp])
                    acc += kv * flat_u[qp]
                oracle[q] = acc * (TWO_PI / n_theta)
            np.testing.assert_allclose(ku.reshape(n_theta, -1), oracle,
                                       atol=1e-10)

    def test_kernel_table_has_one_row_per_term(self):
        kernel = ScatteringKernel.henyey_greenstein(GRID, GEOM, 0.5, 0.4, n_modes=3)
        s = TransportSolver(GEOM, GRID, kernel=kernel, n_theta=8, n_bdry=8)
        trig, ka, theta_mat = s._k_matrices()
        assert ka.shape == (7, GRID.n_pixels)
        assert trig.shape == theta_mat.shape == (7, 8)
        s = TransportSolver(GEOM, GRID, kernel=shared_harmonic_kernel(GRID, GEOM),
                            n_theta=8, n_bdry=8)
        assert s._k_matrices()[1].shape == (5, GRID.n_pixels)


class TestApplyT1Inverse:
    def test_zero_source(self):
        s = TransportSolver(GEOM, GRID, n_theta=8, n_bdry=8)
        u = apply_to(s.t1_apply, np.zeros((8, GRID.ny, GRID.nx)))
        assert np.allclose(u, 0.0)

    @staticmethod
    def _indicator_field(grid, r0, n_theta):
        c = grid.centers()
        mask = (c[..., 0] ** 2 + c[..., 1] ** 2 <= r0**2).astype(float)
        angles = TWO_PI * np.arange(n_theta) / n_theta
        vals = np.broadcast_to(mask, (n_theta, grid.ny, grid.nx)).copy()
        return PhaseSpaceField(grid=grid, theta_angles=angles, values=vals)

    def test_unattenuated_chord_length(self):
        # Streaming 1 on a disk of radius r0 along theta = 0 accumulates the
        # chord length 2 r0 by the time the ray leaves the support.  Odd grid
        # size puts pixel centers on the y = 0 row.
        geom = DiskGeometry(1.0, 1.2)
        grid = Grid(97, 97, 1.2)
        r0 = 0.9
        g = self._indicator_field(grid, r0, 4)
        s = TransportSolver(geom, grid, n_theta=4, n_bdry=8)
        u = apply_to(s.t1_apply, g.values)
        iy = 48
        ix = int(np.argmin(np.abs(grid.xs - 1.05)))
        assert abs(grid.ys[iy]) < 1e-12
        val = u[0, iy, ix]
        assert val == pytest.approx(2.0 * r0, abs=2.5 * grid.hx)

    def test_constant_absorption_closed_form(self):
        # With sigma = c the streaming integral of the indicator observed a
        # distance d past its support is exp(-c d) (1 - exp(-c L)) / c with
        # L the chord length.
        geom = DiskGeometry(1.0, 1.2)
        grid = Grid(97, 97, 1.2)
        c, r0 = 0.6, 0.9
        sigma = AbsorptionField.constant(grid, geom, c)
        g = self._indicator_field(grid, r0, 4)
        s = TransportSolver(geom, grid, sigma=sigma, n_theta=4, n_bdry=8)
        u = apply_to(s.t1_apply, g.values)
        iy = 48
        ix = int(np.argmin(np.abs(grid.xs - 1.05)))
        x0 = grid.xs[ix]
        expected = math.exp(-c * (x0 - r0)) * (1.0 - math.exp(-2.0 * c * r0)) / c
        assert u[0, iy, ix] == pytest.approx(expected, rel=2e-2)


class TestSolveForward:
    def test_no_scattering_truncates_after_one_sweep(self):
        sigma = AbsorptionField.constant(GRID, GEOM, 0.4)
        f = bumped_source(GRID, GEOM)
        s = TransportSolver(GEOM, GRID, sigma=sigma, kernel=ScatteringKernel.zero(GRID),
                            n_theta=8, n_bdry=16)
        u, report = s.solve(f=f)
        assert report.iterations == 1
        assert report.converged
        stream = apply_to(s.t1_apply, apply_J(f, GRID, n_theta=8, geom=GEOM).values)
        np.testing.assert_allclose(u.values, stream, atol=1e-14)

    def test_zero_source_converges_immediately(self):
        sigma = AbsorptionField.zero(GRID)
        kernel = ScatteringKernel.isotropic(GRID, GEOM, 0.5)
        s = TransportSolver(GEOM, GRID, sigma=sigma, kernel=kernel, n_theta=8, n_bdry=16)
        u, report = s.solve(f=np.zeros((48, 48)))
        assert report.iterations == 1
        assert np.all(u.values == 0.0)

    def test_residual_ratio_matches_spectral_radius(self):
        grid = Grid(32, 32, 1.0)
        sigma = AbsorptionField.zero(grid)
        kernel = ScatteringKernel.isotropic(grid, GEOM, 0.8)
        f = bumped_source(grid, GEOM)
        s = TransportSolver(GEOM, grid, sigma=sigma, kernel=kernel, n_theta=16,
                            n_bdry=32, tol=1e-12)
        u, report = s.solve(f=f)
        assert report.converged
        hist = np.asarray(report.residual_history)
        ratios = hist[1:] / hist[:-1]
        tail = ratios[-4:]
        rho = report.spectral_radius_estimate
        assert 0.0 < rho < 1.0
        np.testing.assert_allclose(tail, rho, rtol=0.1)

    def test_supercritical_scattering_is_refused(self):
        grid = Grid(24, 24, 1.0)
        sigma = AbsorptionField.zero(grid)
        kernel = ScatteringKernel.isotropic(grid, GEOM, 12.0)
        f = bumped_source(grid, GEOM)
        s = TransportSolver(GEOM, grid, sigma=sigma, kernel=kernel, n_theta=8, n_bdry=16)
        with pytest.raises(NonConvergenceError, match="refusing"):
            s.solve(f=f)
        try:
            s.solve(f=f)
        except NonConvergenceError as err:
            assert not err.report.converged
            assert err.report.spectral_radius_estimate >= 1.0 - 5e-2

    @staticmethod
    def _poisoned_solver(monkeypatch, calls):
        """Scattering solver whose k_apply returns inf on its third call.

        The spectral radius is estimated first, so only the iteration under
        test calls the patched k_apply.
        """
        grid = Grid(24, 24, 1.0)
        s = TransportSolver(geom=GEOM, grid=grid, sigma=AbsorptionField.zero(grid),
                            kernel=ScatteringKernel.isotropic(grid, GEOM, 0.5),
                            n_theta=8, n_bdry=16, max_iter=50)
        s.spectral_radius()
        k_apply = s.k_apply

        def poisoned(values):
            calls.append(len(calls) + 1)
            out = k_apply(values)
            return np.full_like(out, np.inf) if len(calls) == 3 else out

        monkeypatch.setattr(s, "k_apply", poisoned)
        return s

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_residual_stops_at_once(self, monkeypatch):
        calls = []
        s = self._poisoned_solver(monkeypatch, calls)
        f = bumped_source(s.grid, GEOM)
        with pytest.raises(NonConvergenceError,
                           match=r"residual is non-finite .* at iteration 4$") as err:
            s.solve(f=f)
        assert calls == [1, 2, 3]
        assert err.value.report.iterations == 4
        assert not err.value.report.converged
        assert len(err.value.report.residual_history) == 3

    def test_spectral_radius_scales_linearly_in_kernel(self):
        grid = Grid(24, 24, 1.0)
        rhos = []
        for total in (0.5, 1.0):
            solver = TransportSolver(
                geom=GEOM, grid=grid,
                sigma=AbsorptionField.zero(grid),
                kernel=ScatteringKernel.isotropic(grid, GEOM, total),
                n_theta=8, n_bdry=16)
            rhos.append(solver.spectral_radius())
        assert rhos[1] == pytest.approx(2.0 * rhos[0], rel=1e-9)


def power_estimate(solver, steps, seed=0):
    """Power iteration on (K T1^{-1})^2 from a seeded normal start.

    Each step is two products y = K T1^{-1} x, each divided by its largest
    magnitude, and the estimate is sqrt(g1) * sqrt(g2) from the growths
    ||y|| / ||x|| of the last step's products.  With 30 steps and seed 0
    this is the certificate's fallback estimate, step for step; longer runs
    serve as a reference value.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((solver.n_theta, solver.grid.n_pixels, 1))
    v /= np.max(np.abs(v))
    norm_v = float(phase_norm(v, solver.grid)[0])
    for _ in range(steps):
        growth = []
        for _ in range(2):
            w = solver.k_apply(solver.t1_apply(v))
            peak = float(np.max(np.abs(w)))
            w /= peak
            norm_w = float(phase_norm(w, solver.grid)[0])
            growth.append(peak * norm_w / norm_v)
            v, norm_v = w, norm_w
    return math.sqrt(growth[0]) * math.sqrt(growth[1])


def counting_t1(solver):
    """Count the solver's t1_apply calls in the returned list's length."""
    calls = []
    t1_apply = solver.t1_apply

    def counted(values):
        calls.append(1)
        return t1_apply(values)

    solver.t1_apply = counted
    return calls


def isotropic(total):
    return lambda grid: ScatteringKernel.isotropic(grid, GEOM, total)


def henyey_greenstein(total, g):
    return lambda grid: ScatteringKernel.henyey_greenstein(grid, GEOM, total, g)


class TestCertificate:
    @staticmethod
    def _solver(kernel_of, sigma=0.0):
        grid = Grid(24, 24, 1.0)
        sig = (AbsorptionField.constant(grid, GEOM, sigma) if sigma
               else AbsorptionField.zero(grid))
        return TransportSolver(geom=GEOM, grid=grid, sigma=sig,
                               kernel=kernel_of(grid), n_theta=8, n_bdry=16)

    @pytest.mark.parametrize("kernel_of, sigma", [
        (isotropic(0.9), 0.0),
        (isotropic(0.9), 0.5),
        (henyey_greenstein(0.9, 0.4), 0.5),
    ], ids=["isotropic", "isotropic-absorbing", "hg-0.4-absorbing"])
    def test_bracket_contains_long_power_iteration(self, kernel_of, sigma):
        solver = self._solver(kernel_of, sigma=sigma)
        rho = solver.spectral_radius()
        cert = solver.certificate
        assert cert.method == "collatz-wielandt"
        assert rho == cert.upper
        reference = power_estimate(self._solver(kernel_of, sigma=sigma), 300)
        assert cert.lower <= reference * (1 + 1e-13)
        assert reference <= cert.upper * (1 + 1e-13)
        assert cert.upper - cert.lower <= 1e-9 * cert.upper

    def test_bracket_needs_at_most_thirty_sweeps(self):
        # R = 1, R1 = 1.2, constant absorption 0.3, isotropic total 0.4:
        # the 40x40 grid with 24 directions of the forward benchmark.
        geom = DiskGeometry(1.0, 1.2)
        grid = Grid(40, 40, 1.2)
        solver = TransportSolver(
            geom=geom, grid=grid, sigma=AbsorptionField.constant(grid, geom, 0.3),
            kernel=ScatteringKernel.isotropic(grid, geom, 0.4), n_theta=24,
            n_bdry=16)
        calls = counting_t1(solver)
        solver.spectral_radius()
        assert solver.certificate.method == "collatz-wielandt"
        assert len(calls) == solver.certificate.applications <= 30

    def test_negative_kernel_falls_back_to_power_iteration(self):
        # The truncated Henyey-Greenstein kernel at g = 0.9 is negative at
        # back-scattering directions of the 8-direction grid.
        kernel_of = henyey_greenstein(0.5, 0.9)
        solver = self._solver(kernel_of)
        assert not solver._kernel_nonnegative()
        calls = counting_t1(solver)
        rho = solver.spectral_radius()
        assert solver.certificate.method == "power-iteration"
        assert solver.certificate.lower is None
        assert len(calls) == solver.certificate.applications == 60
        assert rho == power_estimate(self._solver(kernel_of), 30)

    def test_sign_check_in_one_pixel_chunks(self, monkeypatch):
        solvers = [self._solver(henyey_greenstein(0.5, g)) for g in (0.4, 0.9)]
        assert [s._kernel_nonnegative() for s in solvers] == [True, False]
        monkeypatch.setattr(transport, "SIGN_CHECK_ENTRIES", 8 * 8)
        assert [s._kernel_nonnegative() for s in solvers] == [True, False]

    def test_sign_check_finds_one_negative_pixel(self, monkeypatch):
        # kappa = r0 + r1 cos(theta') with r1 = 0.5 r0 except at one pixel,
        # where r1 = 3 r0 makes the kernel negative for cos(theta') < -1/3.
        def kernel_of(bump):
            def build(grid):
                r0 = bumped_source(grid, GEOM)
                r1 = 0.5 * r0
                assert r0[12, 12] > 0.0
                r1[12, 12] = bump * r0[12, 12]
                kappa = AngularField(grid, (AngularMode(0, "cos", r0),
                                            AngularMode(1, "cos", r1)))
                return ScatteringKernel(grid, ((TrigPoly.constant(1.0), kappa),))
            return build
        solvers = [self._solver(kernel_of(bump)) for bump in (0.5, 3.0)]
        assert [s._kernel_nonnegative() for s in solvers] == [True, False]
        monkeypatch.setattr(transport, "SIGN_CHECK_ENTRIES", 8 * 8)
        assert [s._kernel_nonnegative() for s in solvers] == [True, False]

    def test_vanishing_kernel_row_falls_back_to_power_iteration(self):
        # Theta(theta) = 1 + cos(theta) is nonnegative but zero at theta = pi,
        # a grid direction, so K T1^{-1} x is not strictly positive there.
        def kernel_of(grid):
            iso = ScatteringKernel.isotropic(grid, GEOM, 0.5)
            return ScatteringKernel(grid, modes=(
                (TrigPoly(cos_coef=(1.0, 1.0), sin_coef=(0.0, 0.0)), iso.modes[0][1]),))
        solver = self._solver(kernel_of)
        assert solver._kernel_nonnegative()
        rho = solver.spectral_radius()
        assert solver.certificate.method == "power-iteration"
        assert solver.certificate.applications == 1 + 60
        assert rho == power_estimate(self._solver(kernel_of), 30)

    def test_supercritical_refusal_is_proven_after_one_sweep(self):
        solver = self._solver(isotropic(12.0))
        calls = counting_t1(solver)
        with pytest.raises(NonConvergenceError, match="refusing") as err:
            solver.solve(f=bumped_source(solver.grid, GEOM))
        cert = err.value.report.certificate
        assert len(calls) == cert.applications == 1
        assert cert.method == "collatz-wielandt"
        assert 1.0 - transport.CONTRACTION_MARGIN <= cert.lower <= cert.upper
        assert f"at least {cert.lower:.9g}" in str(err.value)
        assert err.value.report.spectral_radius_estimate == cert.upper


class TestTracePlus:
    def test_zero_field(self):
        s = TransportSolver(GEOM, GRID, n_theta=8, n_bdry=32)
        # A field without a recorded transport source has nothing to trace.
        bare = PhaseSpaceField(grid=GRID, theta_angles=s.theta_angles,
                               values=np.zeros((8, GRID.ny, GRID.nx)))
        with pytest.raises(ValueError, match="no transport source"):
            s.trace_field(bare)
        u, _ = s.solve(f=np.zeros((GRID.ny, GRID.nx)))
        bd = s.trace_field(u)
        assert np.all(bd.values == 0.0)

    def test_diameter_trace_of_disk_phantom(self):
        # No absorption, no scattering: the exit value along a diameter is
        # the chord length of the phantom support.
        geom = DiskGeometry(1.0, 1.2)
        grid = Grid(48, 48, 1.2)
        r = 0.5
        s = TransportSolver(geom, grid, n_theta=8, n_bdry=16)
        u, _ = s.solve(DiskPhantom(radius=r, value=1.0))
        bd = s.trace_field(u)
        # Boundary angle 0 is the point (R1, 0); direction index 0 is
        # theta = (1, 0), an outgoing diameter through the phantom center.
        assert bd.bgrid.outgoing[0, 0]
        assert bd.values[0, 0] == pytest.approx(2.0 * r, abs=1e-9)

    def test_trace_of_streamed_source_matches_ray_transform(self):
        geom = DiskGeometry(1.0, 1.2)
        grid = Grid(40, 40, 1.2)
        sigma = AbsorptionField.gaussian(grid, geom, 0.5, width=0.5)
        s = TransportSolver(geom, grid, sigma=sigma, n_theta=12, n_bdry=48)
        u, _ = s.solve(DiskPhantom(radius=0.5, value=1.0))
        traced = s.trace_field(u)
        direct = ray_transform(s, CutoffSpec.full_data(),
                               DiskPhantom(radius=0.5, value=1.0))
        np.testing.assert_allclose(traced.values, direct.values, atol=1e-8)

    def test_zero_h_ray_selects_the_default_step(self):
        # h_ray = 0 means the default R1 / 256 in the library as in the CLI.
        grid = Grid(16, 16, 1.0)
        sigma = AbsorptionField.constant(grid, GEOM, 0.3)
        zero = TransportSolver(GEOM, grid, sigma=sigma, n_theta=8, n_bdry=16, h_ray=0.0)
        default = TransportSolver(GEOM, grid, sigma=sigma, n_theta=8, n_bdry=16)
        assert zero.h_ray == default.h_ray == GEOM.radius_outer / 256
        f = bumped_source(grid, GEOM)
        np.testing.assert_array_equal(zero.measurement(CutoffSpec.full_data(), f=f)[0].values,
                                      default.measurement(CutoffSpec.full_data(), f=f)[0].values)

    def test_negative_h_ray_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="h_ray must be nonnegative"):
            TransportSolver(GEOM, Grid(16, 16, 1.0), n_theta=8, n_bdry=16, h_ray=-0.05)


class TestMeasureXV:
    def test_empty_cutoff_measures_nothing(self):
        sigma = AbsorptionField.constant(GRID, GEOM, 0.3)
        f = bumped_source(GRID, GEOM)
        s = TransportSolver(GEOM, GRID, sigma=sigma, kernel=ScatteringKernel.zero(GRID),
                            n_theta=8, n_bdry=16)
        bd, _ = s.measurement(CutoffSpec.empty(), f=f)
        assert np.all(bd.values == 0.0)

    def test_zero_source_measures_nothing(self):
        sigma = AbsorptionField.constant(GRID, GEOM, 0.3)
        kernel = ScatteringKernel.isotropic(GRID, GEOM, 0.4)
        s = TransportSolver(GEOM, GRID, sigma=sigma, kernel=kernel, n_theta=8, n_bdry=16)
        bd, _ = s.measurement(CutoffSpec.full_data(), f=np.zeros((48, 48)))
        assert np.all(bd.values == 0.0)

    def test_full_data_ballistic_measurement_is_ray_transform(self):
        grid = Grid(32, 32, 1.0)
        sigma = AbsorptionField.gaussian(grid, GEOM, 0.4, width=0.4)
        f = bumped_source(grid, GEOM)
        s = TransportSolver(GEOM, grid, sigma=sigma, kernel=ScatteringKernel.zero(grid),
                            n_theta=12, n_bdry=32)
        bd, _ = s.measurement(CutoffSpec.full_data(), f=f)
        direct = ray_transform(s, CutoffSpec.full_data(), f)
        np.testing.assert_allclose(bd.values, direct.values, atol=1e-8)


class TestAdjointPairs:
    """The building-block transposes are exact matrix transposes."""

    @staticmethod
    def _solver(kernel=None):
        grid = Grid(20, 20, 1.0)
        sigma = AbsorptionField.gaussian(grid, GEOM, 0.5, width=0.4)
        return TransportSolver(geom=GEOM, grid=grid, sigma=sigma,
                               kernel=kernel or ScatteringKernel.zero(grid),
                               n_theta=8, n_bdry=24)

    def test_bilinear_gather_transpose(self):
        grid = Grid(14, 11, 1.0)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.5, 1.5, (400, 2))
        gather = BilinearGather.at_points(grid, pts)
        for shape in ((), (3,)):
            x = rng.standard_normal((grid.n_pixels,) + shape)
            v = rng.standard_normal((len(pts),) + shape)
            lhs = float(np.sum(gather.apply(x) * v))
            rhs = float(np.sum(x * gather.apply_transpose(v)))
            assert gather.apply(x).shape == v.shape
            assert gather.apply_transpose(v).shape == x.shape
            assert lhs == pytest.approx(rhs, rel=1e-12)
        c = grid.centers()
        affine = 0.7 - 1.3 * c[..., 0] + 2.1 * c[..., 1]
        sampled = gather.apply(affine.reshape(-1))
        inner = ((pts[:, 0] >= grid.xs[0]) & (pts[:, 0] <= grid.xs[-1])
                 & (pts[:, 1] >= grid.ys[0]) & (pts[:, 1] <= grid.ys[-1]))
        assert inner.sum() >= 100
        expected = 0.7 - 1.3 * pts[:, 0] + 2.1 * pts[:, 1]
        assert np.max(np.abs(sampled[inner] - expected[inner])) <= 1e-12
        far = ((np.abs(pts[:, 0]) > grid.half_width + grid.hx)
               | (np.abs(pts[:, 1]) > grid.half_width + grid.hy))
        assert far.sum() >= 50
        dense = rng.uniform(1.0, 2.0, grid.n_pixels)
        assert np.all(gather.apply(dense)[far] == 0.0)

    def test_trace_transpose(self):
        s = self._solver()
        rng = np.random.default_rng(6)
        for B in (1, 8):
            scatter = rng.standard_normal((8, s.grid.n_pixels, B))
            f = rng.standard_normal((s.grid.n_pixels, B))
            cot = rng.standard_normal((s.bgrid.n_bdry, 8, B))
            lhs = float(np.sum(s.trace_phase(scatter, f) * cot))
            rhs = float(np.sum((scatter + s.j_apply(f)) * s.trace_transpose(cot)))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_cached_trace_matches_cell_quadrature(self):
        s = self._solver()
        rng = np.random.default_rng(7)
        scatter = rng.standard_normal((8, s.grid.n_pixels, 3))
        f = rng.standard_normal((s.grid.n_pixels, 3))
        ref = np.zeros((s.bgrid.n_bdry, 8, 3))
        for q in range(8):
            out_idx, weights, counts, dist = s._chord_cells(q, [])
            gather = BilinearGather.at_points(s.grid, cell_midpoints(s, q, out_idx, counts, dist))
            vals = gather.apply(scatter[q]) + gather.apply(f)
            cells = weights[..., None] * vals
            np.add.at(ref[:, q], np.repeat(out_idx, counts), cells)
        got = s.trace_phase(scatter, f)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @staticmethod
    def _padded_cells(s, q, circles):
        """Jump-refined cells of direction q on the full padded node table.

        Every chord keeps a lattice padded to the longest chord, sigma is
        sampled at every node, and zero-length cells stay in the table.
        Returns (outgoing indices, (n_out, n_cells) weights, midpoints).
        """
        bg = s.bgrid
        out_idx = np.nonzero(bg.outgoing[:, q])[0]
        z = bg.points[out_idx]
        L = 2.0 * s.geom.radius_outer * bg.normal_dot[out_idx, q]
        th = s.theta_vecs[q]
        n_full = int(math.floor(L.max() / s.h_ray + 1e-12))
        lattice = s.h_ray * np.arange(n_full + 1)
        cols = [np.minimum(lattice[None, :], L[:, None]), L[:, None]]
        for cx, cy, r in circles:
            o = z - np.array([cx, cy])
            b = o @ th
            disc = b * b - (np.sum(o * o, axis=1) - r * r)
            root = np.sqrt(np.maximum(disc, 0.0))
            for back in (b + root, b - root):
                ok = (disc > 0.0) & (back > 0.0) & (back < L)
                cols.append(np.where(ok, back, L)[:, None])
        nodes = np.sort(np.concatenate(cols, axis=1), axis=1)
        sig = s.sigma.sample(z[:, None, :] - nodes[..., None] * th,
                             float(s.theta_angles[q]))
        delta = np.diff(nodes, axis=1)
        seg = 0.5 * delta * (sig[:, :-1] + sig[:, 1:])
        G = np.concatenate([np.zeros((len(z), 1)), np.cumsum(seg, axis=1)], axis=1)
        E = np.exp(-G)
        weights = 0.5 * delta * (E[:, :-1] + E[:, 1:])
        mids = z[:, None, :] - (nodes[:, :-1] + 0.5 * delta)[..., None] * th
        return out_idx, weights, mids

    def _ragged_matches_padded(self, s, q, circles):
        """Ragged cells of direction q against the padded reference at 1e-12.

        The reference row of chord c holds its counts[c] live cells first;
        every later cell has zero length and weight.  Returns the ragged
        (outgoing indices, weights, counts).
        """
        out_idx, weights, counts, dist = s._chord_cells(q, circles)
        mids = cell_midpoints(s, q, out_idx, counts, dist)
        ref_idx, ref_w, ref_mids = self._padded_cells(s, q, circles)
        np.testing.assert_array_equal(out_idx, ref_idx)
        live = np.arange(ref_w.shape[1]) < counts[:, None]
        assert np.all(ref_w[~live] == 0.0)
        assert weights.shape == (int(counts.sum()),)
        assert np.max(np.abs(weights - ref_w[live])) <= 1e-12 * np.max(np.abs(ref_w))
        assert np.max(np.abs(mids - ref_mids[live])) <= 1e-12
        return out_idx, weights, counts

    def test_ragged_cells_chord_shorter_than_step(self):
        grid = Grid(20, 20, 1.0)
        sigma = AbsorptionField.gaussian(grid, GEOM, 0.5, width=0.4)
        s = TransportSolver(geom=GEOM, grid=grid, sigma=sigma, n_theta=8,
                            n_bdry=24, h_ray=0.6)
        phantom = DiskPhantom(center=(0.15, -0.1), radius=0.45, value=1.3)
        short = 0
        for q in range(8):
            self._ragged_matches_padded(s, q, phantom.jump_circles())
            out_idx, _, counts = self._ragged_matches_padded(s, q, [])
            L = 2.0 * GEOM.radius_outer * s.bgrid.normal_dot[out_idx, q]
            assert np.all(counts[L < s.h_ray] == 1)
            short += int(np.sum(L < s.h_ray))
        assert short > 0

    def test_ragged_cells_tangent_circle(self):
        s = self._solver()
        # Through exit point (1, 0) direction 0 runs the x axis; the circle
        # touches it at distance 0.5 back, with a discriminant of exactly 0.
        circles = [(0.5, -0.25, 0.25)]
        np.testing.assert_array_equal(s.bgrid.points[0], [1.0, 0.0])
        np.testing.assert_array_equal(s.theta_vecs[0], [1.0, 0.0])
        o = s.bgrid.points[0] - np.array([0.5, -0.25])
        assert (o @ s.theta_vecs[0]) ** 2 - (o @ o - 0.25 ** 2) == 0.0
        out_idx, _, counts = self._ragged_matches_padded(s, 0, circles)
        assert out_idx[0] == 0
        _, _, plain = self._ragged_matches_padded(s, 0, [])
        assert counts[0] == plain[0]

    def test_ragged_cells_jump_on_lattice_node(self):
        s = self._solver()
        # The x axis crosses this circle at 0.25 and 0.75 back from (1, 0),
        # lattice nodes 64 and 192 of h_ray = 1/256.
        circles = [(0.5, 0.0, 0.25)]
        assert s.h_ray == 1.0 / 256
        out_idx, weights, counts = self._ragged_matches_padded(s, 0, circles)
        _, _, plain = self._ragged_matches_padded(s, 0, [])
        assert out_idx[0] == 0 and counts[0] == plain[0] + 2
        assert np.sum(weights[:counts[0]] == 0.0) == 2

    def test_ragged_cells_crossings_outside_chords(self):
        s = self._solver()
        # One circle encloses the outer disk; two lie just outside it on the
        # x axis, behind the exit point (1, 0) and beyond the entry point
        # (-1, 0) of direction 0.  Every crossing falls outside (0, L).
        circles = [(0.0, 0.0, 5.0), (1.3, 0.0, 0.2), (-1.3, 0.0, 0.2)]
        for q in range(8):
            _, weights, counts = self._ragged_matches_padded(s, q, circles)
            _, plain_w, plain = s._chord_cells(q, [])[:3]
            np.testing.assert_array_equal(counts, plain)
            np.testing.assert_array_equal(weights, plain_w)

    def test_analytic_trace_matches_cell_quadrature(self):
        s = self._solver()
        assert not s.sigma.is_zero
        phantom = DiskPhantom(center=(0.15, -0.1), radius=0.45, value=1.3)
        circles = phantom.jump_circles()
        rng = np.random.default_rng(11)
        scatter = rng.standard_normal((8, s.grid.n_pixels, 1))
        crossed = 0
        for with_scatter in (False, True):
            src = scatter if with_scatter else None
            ref = np.zeros((s.bgrid.n_bdry, 8, 1))
            for q in range(8):
                out_idx, weights, mids = self._padded_cells(s, q, circles)
                vals = phantom(mids)
                crossed += int(np.sum(np.any(vals != vals[:, :1], axis=1)))
                if with_scatter:
                    gather = BilinearGather.at_points(s.grid, mids.reshape(-1, 2))
                    vals = vals + gather.apply(scatter[q, :, 0]).reshape(vals.shape)
                ref[out_idx, q, 0] = np.sum(weights * vals, axis=1)
            got = s.trace_phase(src, phantom)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert crossed > 0

    def test_bilinear_sample_matches_the_gather_bit_for_bit(self):
        # Rasters with exact zeros and both signs make signed-zero products;
        # the sums must match the CSR product's bits, -0.0 against 0.0 included.
        rng = np.random.default_rng(24)
        for case in range(30):
            nx, ny = (2 * rng.integers(1, 9, size=2) + 1).tolist()
            if nx == ny:
                ny += 2
            grid = Grid(nx, ny, 1.0)
            raster = rng.standard_normal((ny, nx))
            raster[rng.uniform(size=raster.shape) < 0.4] = 0.0
            reach = 1.5 * grid.half_width
            pts = rng.uniform(-reach, reach, (60, 2))
            pts[:10] = grid.centers().reshape(-1, 2)[rng.integers(grid.n_pixels, size=10)]
            got = bilinear_sample(grid, raster, pts.reshape(3, 20, 2))
            want = BilinearGather.at_points(grid, pts).apply(raster.reshape(-1))
            assert got.shape == (3, 20)
            assert np.array_equal(got.reshape(-1).view(np.int64), want.view(np.int64)), case

    def test_summed_folds_runs(self):
        grid = Grid(9, 7, 1.0)
        rng = np.random.default_rng(12)
        counts = np.array([0, 7, 1, 0, 12] + [9] * 14 + [0])
        origins = rng.uniform(-1.3, 1.3, (len(counts), 2))
        direction = np.array([math.cos(0.7), math.sin(0.7)])
        # Steps of at most half a pixel, some zero, so cells share patches
        # in runs; the chords cross the raster edge and leave it.
        steps = np.where(rng.uniform(size=counts.sum()) < 0.2, 0.0,
                         rng.uniform(0.0, 0.5 * grid.hx, counts.sum()))
        dist = np.concatenate([np.cumsum(part) for part in
                               np.split(steps, np.cumsum(counts)[:-1])])
        n = len(dist)
        weights = rng.uniform(0.1, 2.0, n)
        folded = BilinearGather.along_chords(grid, origins, direction, dist, weights, counts)
        assert folded.matrix.shape == (len(counts), grid.n_pixels)
        assert folded.matrix.has_canonical_format
        pts = np.repeat(origins, counts, axis=0) + dist[:, None] * direction
        assert np.any(np.abs(pts) > grid.half_width + grid.hx)
        gather = BilinearGather.at_points(grid, pts)
        dense = gather.matrix.toarray() * weights[:, None]
        group = np.repeat(np.arange(len(counts)), counts)
        ref = np.zeros((len(counts), grid.n_pixels))
        np.add.at(ref, group, dense)
        got = folded.matrix.toarray()
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.all(got[counts == 0] == 0.0)
        for shape in ((), (3,)):
            x = rng.standard_normal((grid.n_pixels,) + shape)
            v = rng.standard_normal((len(counts),) + shape)
            lhs = float(np.sum(folded.apply(x) * v))
            rhs = float(np.sum(x * folded.apply_transpose(v)))
            assert lhs == pytest.approx(rhs, rel=1e-12)
        for bad in (counts[:-1], np.append(counts, 1), counts + 1):
            with pytest.raises(ValueError, match="do not cover"):
                BilinearGather.along_chords(grid, origins, direction, dist, weights, bad)
        with pytest.raises(ValueError, match="do not cover"):
            BilinearGather.along_chords(grid, origins, direction, dist, weights[:-1],
                                        counts)

    @staticmethod
    def _cell_reference(s, scatter, phantom=None):
        """Trace summed cell by cell from at_points samples at the midpoints."""
        circles = phantom.jump_circles() if phantom is not None else []
        ref = np.zeros((s.bgrid.n_bdry, s.n_theta, scatter.shape[2]))
        for q in range(s.n_theta):
            out_idx, weights, counts, dist = s._chord_cells(q, circles)
            mids = cell_midpoints(s, q, out_idx, counts, dist)
            vals = BilinearGather.at_points(s.grid, mids).apply(scatter[q])
            if phantom is not None:
                vals = vals + phantom(mids)[:, None]
            np.add.at(ref[:, q], np.repeat(out_idx, counts), weights[:, None] * vals)
        return ref

    # (grid, h_ray) per case: hx != hy; a raster ending inside the outer
    # disk, so patches straddle its edge and cells lie more than one pixel
    # beyond it; a ray step longer than the shortest chords.
    FOLD_CASES = {
        "non-square": (Grid(13, 7, 1.0), None),
        "raster-edge": (Grid(10, 10, 0.7), None),
        "short-chord": (Grid(20, 20, 1.0), 0.6),
    }

    @pytest.mark.parametrize("case", list(FOLD_CASES))
    def test_fold_matches_cell_quadrature(self, case):
        grid, h_ray = self.FOLD_CASES[case]
        sigma = AbsorptionField.gaussian(grid, GEOM, 0.5, width=0.4)
        s = TransportSolver(geom=GEOM, grid=grid, sigma=sigma, n_theta=8,
                            n_bdry=24, h_ray=h_ray)
        if case == "non-square":
            assert grid.hx != grid.hy
        if case == "raster-edge":
            out_idx, _, counts, dist = s._chord_cells(1, [])
            mids = cell_midpoints(s, 1, out_idx, counts, dist)
            assert np.any(np.abs(mids) > grid.half_width + grid.hx)
            assert np.any((np.abs(mids) > grid.xs[-1]).any(axis=1)
                          & (np.abs(mids) < grid.half_width).all(axis=1))
        if case == "short-chord":
            L = 2.0 * GEOM.radius_outer * s.bgrid.normal_dot[s.bgrid.outgoing]
            assert np.any(L < s.h_ray)
        rng = np.random.default_rng(13)
        scatter = rng.standard_normal((8, grid.n_pixels, 2))
        ref = self._cell_reference(s, scatter)
        got = s.trace_phase(scatter, None)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        cot = rng.standard_normal((s.bgrid.n_bdry, 8, 2))
        lhs = float(np.sum(got * cot))
        rhs = float(np.sum(scatter * s.trace_transpose(cot)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_fold_with_jump_on_lattice_node(self):
        s = self._solver()
        # The x axis crosses this circle at 0.25 and 0.75 back from (1, 0),
        # lattice nodes of h_ray = 1/256, so chord 0 of direction 0 gets two
        # zero-length cells.
        phantom = DiskPhantom(center=(0.5, 0.0), radius=0.25, value=1.3)
        out_idx, weights, counts, dist = s._chord_cells(0, phantom.jump_circles())
        assert out_idx[0] == 0 and np.sum(weights[:counts[0]] == 0.0) == 2
        rng = np.random.default_rng(14)
        scatter = rng.standard_normal((8, s.grid.n_pixels, 1))
        ref = self._cell_reference(s, scatter, phantom)
        got = s.trace_phase(scatter, phantom)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        op = BilinearGather.along_chords(s.grid, s.bgrid.points[out_idx], -s.theta_vecs[0],
                                         dist, weights, counts)
        x = rng.standard_normal(s.grid.n_pixels)
        v = rng.standard_normal(len(out_idx))
        lhs = float(np.sum(op.apply(x) * v))
        rhs = float(np.sum(x * op.apply_transpose(v)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_trace_operators_are_built_once(self, monkeypatch):
        s = self._solver()
        builds = counting_along_chords(monkeypatch)
        rng = np.random.default_rng(8)
        f = rng.standard_normal((s.grid.n_pixels, 2))
        first = s.trace_phase(None, f)
        assert len(builds) == s.n_theta
        np.testing.assert_array_equal(s.trace_phase(None, f), first)
        s.trace_transpose(rng.standard_normal((s.bgrid.n_bdry, 8, 2)))
        assert len(builds) == s.n_theta

    def test_streaming_transpose(self):
        s = self._solver()
        rng = np.random.default_rng(0)
        for B in (1, 8):
            v = rng.standard_normal((8, s.grid.n_pixels, B))
            w = rng.standard_normal((8, s.grid.n_pixels, B))
            lhs = float(np.sum(s.t1_apply(v) * w))
            rhs = float(np.sum(v * s.t1_transpose(w)))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @staticmethod
    def _per_direction_march(s, values, transpose):
        """Reference march: one direction at a time, tables built per call."""
        grid = s.grid
        ny, nx, N = grid.ny, grid.nx, grid.n_pixels
        B = values.shape[2]
        h2 = 0.5 * grid.hx
        mask = grid.disk_mask(s.geom.radius_outer).reshape(-1, 1).astype(float)
        X, Y = np.meshgrid(grid.xs, grid.ys)
        out = np.empty_like(values)
        for q in range(s.n_theta):
            th = s.theta_vecs[q]
            perp = np.array([-th[1], th[0]])
            rot_pts = X[..., None] * th + Y[..., None] * perp
            to = BilinearGather.at_points(grid, rot_pts.reshape(-1, 2))
            pts = grid.points_flat()
            back = BilinearGather.at_points(
                grid, np.stack([pts @ th, pts @ perp], axis=-1))
            sig = s.sigma.sample(rot_pts, float(s.theta_angles[q]))
            A = np.exp(-h2 * (sig[:, :-1] + sig[:, 1:]))
            if not transpose:
                g = to.apply(values[q]).reshape(ny, nx, B)
                u = np.zeros_like(g)
                for i in range(1, nx):
                    Ai = A[:, i - 1, None]
                    u[:, i] = Ai * (u[:, i - 1] + h2 * g[:, i - 1]) + h2 * g[:, i]
                out[q] = mask * back.apply(u.reshape(N, B))
            else:
                v = back.apply_transpose(mask * values[q]).reshape(ny, nx, B)
                gbar = np.zeros_like(v)
                c = np.zeros((ny, B))
                for i in range(nx - 1, 0, -1):
                    c = c + v[:, i]
                    Ai = A[:, i - 1, None]
                    gbar[:, i] += h2 * c
                    gbar[:, i - 1] += h2 * Ai * c
                    c = Ai * c
                out[q] = to.apply_transpose(gbar.reshape(N, B))
        return out

    def test_batched_march_matches_per_direction_march(self):
        s = self._solver()
        assert not s.sigma.is_zero
        rng = np.random.default_rng(9)
        for B in (1, 8):
            v = rng.standard_normal((8, s.grid.n_pixels, B))
            for transpose, op in ((False, s.t1_apply), (True, s.t1_transpose)):
                ref = self._per_direction_march(s, v, transpose)
                got = op(v)
                assert got.shape == v.shape
                if transpose:
                    # to.T scatters in march order, so sums differ in rounding.
                    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
                else:
                    np.testing.assert_array_equal(got, ref)

    def test_rotation_tables_are_built_once(self, monkeypatch):
        s = self._solver()
        built = []
        at_points = BilinearGather.at_points.__func__

        def counted(cls, grid, points):
            built.append(len(points))
            return at_points(cls, grid, points)

        monkeypatch.setattr(BilinearGather, "at_points", classmethod(counted))
        rng = np.random.default_rng(10)
        v = rng.standard_normal((8, s.grid.n_pixels, 2))
        first = s.t1_apply(v)
        after_first = list(built)
        np.testing.assert_array_equal(s.t1_apply(v), first)
        s.t1_transpose(v)
        assert built == after_first
        # One gather to the rotated frames at every pixel and one back at the
        # pixels inside the outer disk, for every direction.
        n_disk = int(s.grid.disk_mask(s.geom.radius_outer).sum())
        assert sum(built) == s.n_theta * (s.grid.n_pixels + n_disk)

    def test_march_is_zero_outside_the_outer_disk(self):
        s = self._solver()
        outside = ~s.grid.disk_mask(s.geom.radius_outer).reshape(-1)
        assert 0 < outside.sum() < s.grid.n_pixels
        rng = np.random.default_rng(11)
        v = rng.standard_normal((8, s.grid.n_pixels, 3))
        u = s.t1_apply(v)
        assert np.all(u[:, outside] == 0.0)
        w = v.copy()
        w[:, outside] = rng.uniform(-1e3, 1e3, w[:, outside].shape)
        np.testing.assert_array_equal(s.t1_transpose(w), s.t1_transpose(v))

    def test_scattering_transpose(self):
        grid = Grid(20, 20, 1.0)
        for kernel in (ScatteringKernel.henyey_greenstein(grid, GEOM, 0.6, 0.3),
                       shared_harmonic_kernel(grid, GEOM)):
            s = self._solver(kernel)
            rng = np.random.default_rng(1)
            v = rng.standard_normal((8, s.grid.n_pixels, 1))
            w = rng.standard_normal((8, s.grid.n_pixels, 1))
            lhs = float(np.sum(s.k_apply(v) * w))
            rhs = float(np.sum(v * s.k_transpose(w)))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_direction_broadcast_transpose(self):
        s = self._solver()
        rng = np.random.default_rng(2)
        f = rng.standard_normal((s.grid.n_pixels, 1))
        w = rng.standard_normal((8, s.grid.n_pixels, 1))
        lhs = float(np.sum(s.j_apply(f) * w))
        rhs = float(np.sum(f * s.j_transpose(w)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_measurement_transpose(self):
        spec = CutoffSpec.from_arcs([(0.0, math.pi)], transition_width=0.3)
        kernel = ScatteringKernel.isotropic(Grid(20, 20, 1.0), GEOM, 0.5)
        s = self._solver(kernel)
        rng = np.random.default_rng(3)
        f = rng.standard_normal((s.grid.n_pixels, 1))
        cot = rng.standard_normal((s.bgrid.n_bdry, 8, 1))
        n_terms = 6
        lhs = float(np.sum(s.xv_apply(f, spec, n_terms) * cot))
        rhs = float(np.sum(f * s.xv_transpose(cot, spec, n_terms)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def counting_along_chords(monkeypatch):
    """Record the chord count of every BilinearGather.along_chords build."""
    builds = []
    along_chords = BilinearGather.along_chords.__func__

    def counted(cls, grid, origins, direction, dist, weights, counts):
        builds.append(len(counts))
        return along_chords(cls, grid, origins, direction, dist, weights, counts)

    monkeypatch.setattr(BilinearGather, "along_chords", classmethod(counted))
    return builds


class TestRestrictedTrace:
    """Traces under a cutoff integrate only the chords where chi != 0."""

    # Two arcs with cones: most directions have no supported chord.
    SPEC = CutoffSpec.from_arcs([(0.0, 1.0), (2.5, 3.5)], cones=[0.5, 0.8],
                                transition_width=0.2)

    @staticmethod
    def _solver():
        grid = Grid(20, 20, 1.0)
        return TransportSolver(geom=GEOM, grid=grid,
                               sigma=AbsorptionField.gaussian(grid, GEOM, 0.5, width=0.4),
                               kernel=ScatteringKernel.isotropic(grid, GEOM, 0.4),
                               n_theta=8, n_bdry=32)

    def _support(self, s):
        support = s.bgrid.outgoing & (s.chi_values(self.SPEC) != 0.0)
        per_direction = support.sum(axis=0)
        assert np.any(per_direction == 0) and np.any(per_direction > 0)
        return support

    def test_zero_rays_and_chords(self):
        lattice, n, nodes = transport.ray_nodes(0.1, np.empty(0))
        assert len(lattice) == 1 and n.shape == nodes.shape == (0,)
        grid = Grid(9, 7, 1.0)
        direction = np.array([1.0, 0.0])
        for n_chords in (0, 3):
            op = BilinearGather.along_chords(grid, np.zeros((n_chords, 2)), direction,
                                             np.empty(0), np.empty(0),
                                             np.zeros(n_chords, dtype=int))
            assert op.matrix.shape == (n_chords, grid.n_pixels) and op.matrix.nnz == 0
            assert op.apply(np.ones((grid.n_pixels, 2))).shape == (n_chords, 2)
            assert np.all(op.apply_transpose(np.ones((n_chords, 2))) == 0.0)
        s = self._solver()
        cells = s._chord_cells(0, DiskPhantom(radius=0.3, value=1.0).jump_circles(),
                               np.empty(0, dtype=int))
        assert [len(a) for a in cells] == [0, 0, 0, 0]

    def test_matches_cutoff_times_full_trace(self):
        s, fresh = self._solver(), self._solver()
        chi = s.chi_values(self.SPEC)
        self._support(s)
        f = bumped_source(s.grid, GEOM)
        n_terms = 3
        series = y = fresh.j_apply(f.reshape(-1, 1))
        for _ in range(n_terms):
            y = fresh.k_apply(fresh.t1_apply(y))
            series = series + y
        np.testing.assert_array_equal(s.xv_apply(f.reshape(-1, 1), self.SPEC, n_terms),
                                      chi[..., None] * fresh.trace_phase(series, None))
        phantom = DiskPhantom(center=(0.1, -0.2), radius=0.4, value=1.3)
        for source in ({"f": f}, {"f": phantom}):
            bd, _ = s.measurement(self.SPEC, **source)
            field, _ = fresh.solve(**source)
            np.testing.assert_array_equal(bd.values, chi * fresh.trace_field(field).values)

    def test_pairing(self):
        s = self._solver()
        self._support(s)
        rng = np.random.default_rng(21)
        f = rng.standard_normal((s.grid.n_pixels, 2))
        cot = rng.standard_normal((s.bgrid.n_bdry, s.n_theta, 2))
        lhs = float(np.sum(s.xv_apply(f, self.SPEC, 4) * cot))
        rhs = float(np.sum(f * s.xv_transpose(cot, self.SPEC, 4)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_empty_cutoff_builds_nothing(self, monkeypatch):
        s = self._solver()
        builds = counting_along_chords(monkeypatch)
        empty = CutoffSpec.empty()
        f = bumped_source(s.grid, GEOM)
        assert np.all(s.xv_apply(f.reshape(-1, 1), empty, 2) == 0.0)
        assert np.all(s.xv_transpose(np.ones((s.bgrid.n_bdry, s.n_theta, 1)), empty, 2) == 0.0)
        for source in ({"f": f}, {"f": DiskPhantom(radius=0.4, value=1.0)}):
            assert np.all(s.measurement(empty, **source)[0].values == 0.0)
        assert builds == []

    def test_each_direction_is_built_once(self, monkeypatch):
        s = self._solver()
        support = self._support(s)
        builds = counting_along_chords(monkeypatch)
        rng = np.random.default_rng(22)
        b = s.xv_apply(rng.standard_normal((s.grid.n_pixels, 1)), self.SPEC, 2)
        s.xv_transpose(b, self.SPEC, 2)
        assert len(builds) == np.count_nonzero(support.any(axis=0))
        assert sum(builds) == support.sum()


class TestBoundarySampling:
    def test_outgoing_measure_total(self):
        # Integral of (theta . nu)_+ over the boundary circle times S^1 is
        # 2 * 2 pi R1.
        geom = DiskGeometry(1.0, 1.2)
        bg = BoundaryGrid(geom, 256, 64)
        total = float(np.sum(bg.measure))
        assert total == pytest.approx(4.0 * math.pi * geom.radius_outer,
                                      rel=1e-3)

    def test_incoming_entries_are_zeroed(self):
        bg = BoundaryGrid(GEOM, 16, 8)
        bd = BoundaryData(bgrid=bg, values=np.ones((16, 8)))
        assert np.all(bd.values[~bg.outgoing] == 0.0)
        assert np.all(bd.values[bg.outgoing] == 1.0)

    def test_dot_symmetry_and_norm(self):
        bg = BoundaryGrid(GEOM, 16, 8)
        rng = np.random.default_rng(5)
        a = BoundaryData(bgrid=bg, values=rng.standard_normal((16, 8)))
        b = BoundaryData(bgrid=bg, values=rng.standard_normal((16, 8)))
        assert a.dot(b) == pytest.approx(b.dot(a), rel=1e-12)
        assert a.norm() >= 0.0
        assert a.norm() == pytest.approx(math.sqrt(a.dot(a)), rel=1e-12)
