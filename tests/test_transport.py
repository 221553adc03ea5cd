"""Transport solver tests: operator building blocks, fixed point, traces."""

import math

import numpy as np
import pytest

from rte_tomo._interp import BilinearGather
from rte_tomo.coefficients import AbsorptionField, ScatteringKernel
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
    apply_K,
    apply_T1_inverse,
    measure_XV,
    solve_forward,
    trace_plus,
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
        ku = apply_K(ScatteringKernel.zero(GRID), u)
        assert np.all(ku.values == 0.0)

    def test_isotropic_on_direction_independent_field(self):
        # Inside the source disk the taper is identically one, so an
        # isotropic kernel integrates a theta-independent field to
        # total * u(x) there.
        total = 0.7
        kernel = ScatteringKernel.isotropic(GRID, GEOM, total)
        f = bumped_source(GRID, GEOM, 2.0)
        u = apply_J(f, GRID, n_theta=16)
        ku = apply_K(kernel, u)
        core = GRID.disk_mask(GEOM.radius_inner)
        for q in range(16):
            np.testing.assert_allclose(ku.values[q][core],
                                       total * f[core], atol=1e-12)

    def test_single_harmonic_against_direct_quadrature(self):
        kernel = ScatteringKernel.henyey_greenstein(GRID, GEOM, 0.5, 0.4)
        n_theta = 24
        angles = TWO_PI * np.arange(n_theta) / n_theta
        rng = np.random.default_rng(11)
        a = bumped_source(GRID, GEOM) * rng.standard_normal((GRID.ny, GRID.nx))
        vals = a[None, :, :] * np.cos(angles)[:, None, None]
        u = PhaseSpaceField(grid=GRID, theta_angles=angles, values=vals)
        ku = apply_K(kernel, u)

        # Oracle: direct Riemann sum over the same direction grid using the
        # kernel's pointwise eval, assembled without the solver's matrices.
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
        np.testing.assert_allclose(ku.values.reshape(n_theta, -1), oracle,
                                   atol=1e-10)


class TestApplyT1Inverse:
    def test_zero_source(self):
        angles = TWO_PI * np.arange(8) / 8
        g = PhaseSpaceField(grid=GRID, theta_angles=angles,
                            values=np.zeros((8, GRID.ny, GRID.nx)))
        u = apply_T1_inverse(AbsorptionField.zero(GRID), GEOM, g)
        assert np.allclose(u.values, 0.0)

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
        u = apply_T1_inverse(AbsorptionField.zero(grid), geom, g)
        iy = 48
        ix = int(np.argmin(np.abs(grid.xs - 1.05)))
        assert abs(grid.ys[iy]) < 1e-12
        val = u.values[0, iy, ix]
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
        u = apply_T1_inverse(sigma, geom, g, h_ray=geom.radius_outer / 1024)
        iy = 48
        ix = int(np.argmin(np.abs(grid.xs - 1.05)))
        x0 = grid.xs[ix]
        expected = math.exp(-c * (x0 - r0)) * (1.0 - math.exp(-2.0 * c * r0)) / c
        assert u.values[0, iy, ix] == pytest.approx(expected, rel=2e-2)


class TestSolveForward:
    def test_no_scattering_truncates_after_one_sweep(self):
        sigma = AbsorptionField.constant(GRID, GEOM, 0.4)
        f = bumped_source(GRID, GEOM)
        u, report = solve_forward(sigma, ScatteringKernel.zero(GRID), GEOM, f,
                                  n_theta=8, n_bdry=16)
        assert report.iterations == 1
        assert report.converged
        stream = apply_T1_inverse(sigma, GEOM,
                                  apply_J(f, GRID, n_theta=8, geom=GEOM))
        np.testing.assert_allclose(u.values, stream.values, atol=1e-14)

    def test_zero_source_converges_immediately(self):
        sigma = AbsorptionField.zero(GRID)
        kernel = ScatteringKernel.isotropic(GRID, GEOM, 0.5)
        u, report = solve_forward(sigma, kernel, GEOM, np.zeros((48, 48)),
                                  n_theta=8, n_bdry=16)
        assert report.iterations == 1
        assert np.all(u.values == 0.0)

    def test_residual_ratio_matches_spectral_radius(self):
        grid = Grid(32, 32, 1.0)
        sigma = AbsorptionField.zero(grid)
        kernel = ScatteringKernel.isotropic(grid, GEOM, 0.8)
        f = bumped_source(grid, GEOM)
        u, report = solve_forward(sigma, kernel, GEOM, f, n_theta=16,
                                  n_bdry=32, tol=1e-12)
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
        with pytest.raises(NonConvergenceError, match="refusing"):
            solve_forward(sigma, kernel, GEOM, f, n_theta=8, n_bdry=16)
        try:
            solve_forward(sigma, kernel, GEOM, f, n_theta=8, n_bdry=16)
        except NonConvergenceError as err:
            assert not err.report.converged
            assert err.report.spectral_radius_estimate >= 1.0 - 5e-2

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


class TestTracePlus:
    def test_zero_field(self):
        angles = TWO_PI * np.arange(8) / 8
        u = PhaseSpaceField(grid=GRID, theta_angles=angles,
                            values=np.zeros((8, GRID.ny, GRID.nx)))
        bd = trace_plus(u, GEOM, n_bdry=32)
        assert np.all(bd.values == 0.0)

    def test_diameter_trace_of_disk_phantom(self):
        # No absorption, no scattering: the exit value along a diameter is
        # the chord length of the phantom support.
        geom = DiskGeometry(1.0, 1.2)
        grid = Grid(48, 48, 1.2)
        r = 0.5
        u, _ = solve_forward(AbsorptionField.zero(grid),
                             ScatteringKernel.zero(grid), geom,
                             None, grid=grid, n_theta=8, n_bdry=16,
                             phantom=DiskPhantom(radius=r, value=1.0))
        bd = trace_plus(u, geom, n_bdry=16)
        # Boundary angle 0 is the point (R1, 0); direction index 0 is
        # theta = (1, 0), an outgoing diameter through the phantom center.
        assert bd.bgrid.outgoing[0, 0]
        assert bd.values[0, 0] == pytest.approx(2.0 * r, abs=1e-9)

    def test_trace_of_streamed_source_matches_ray_transform(self):
        geom = DiskGeometry(1.0, 1.2)
        grid = Grid(40, 40, 1.2)
        sigma = AbsorptionField.gaussian(grid, geom, 0.5, width=0.5)
        u, _ = solve_forward(sigma, ScatteringKernel.zero(grid), geom, None,
                             grid=grid, n_theta=12, n_bdry=48,
                             phantom=DiskPhantom(radius=0.5, value=1.0))
        traced = trace_plus(u, geom, n_bdry=48, sigma=sigma)
        direct = ray_transform(CutoffSpec.full_data(), sigma, geom, None,
                               grid=grid, n_theta=12, n_bdry=48,
                               phantom=DiskPhantom(radius=0.5, value=1.0))
        np.testing.assert_allclose(traced.values, direct.values, atol=1e-8)

    def test_bare_field_fallback_samples_near_boundary(self):
        # A field without source provenance is traced by sampling one march
        # step inside the rim, so a smooth profile comes back with O(h) error.
        geom = DiskGeometry(0.8, 1.0)
        grid = Grid(64, 64, 1.0)
        c = grid.centers()
        profile = c[..., 0]
        angles = TWO_PI * np.arange(8) / 8
        vals = np.broadcast_to(profile, (8, grid.ny, grid.nx)).copy()
        u = PhaseSpaceField(grid=grid, theta_angles=angles, values=vals)
        bd = trace_plus(u, geom, n_bdry=32)
        for b in range(32):
            for q in range(8):
                # Near-tangential exits step back along theta without leaving
                # the rim, so only transversal pairs sample the raster well.
                if bd.bgrid.normal_dot[b, q] < 0.7:
                    continue
                z = bd.bgrid.points[b]
                assert bd.values[b, q] == pytest.approx(z[0], abs=3.0 * grid.hx)


class TestMeasureXV:
    def test_empty_cutoff_measures_nothing(self):
        sigma = AbsorptionField.constant(GRID, GEOM, 0.3)
        f = bumped_source(GRID, GEOM)
        bd = measure_XV(CutoffSpec.empty(), sigma, ScatteringKernel.zero(GRID),
                        GEOM, f, n_theta=8, n_bdry=16)
        assert np.all(bd.values == 0.0)

    def test_zero_source_measures_nothing(self):
        sigma = AbsorptionField.constant(GRID, GEOM, 0.3)
        kernel = ScatteringKernel.isotropic(GRID, GEOM, 0.4)
        bd = measure_XV(CutoffSpec.full_data(), sigma, kernel, GEOM,
                        np.zeros((48, 48)), n_theta=8, n_bdry=16)
        assert np.all(bd.values == 0.0)

    def test_full_data_ballistic_measurement_is_ray_transform(self):
        grid = Grid(32, 32, 1.0)
        sigma = AbsorptionField.gaussian(grid, GEOM, 0.4, width=0.4)
        f = bumped_source(grid, GEOM)
        bd = measure_XV(CutoffSpec.full_data(), sigma,
                        ScatteringKernel.zero(grid), GEOM, f,
                        n_theta=12, n_bdry=32)
        direct = ray_transform(CutoffSpec.full_data(), sigma, GEOM, f,
                               grid=grid, n_theta=12, n_bdry=32)
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

    def test_streaming_transpose(self):
        s = self._solver()
        rng = np.random.default_rng(0)
        v = rng.standard_normal((8, s.grid.n_pixels, 1))
        w = rng.standard_normal((8, s.grid.n_pixels, 1))
        lhs = float(np.sum(s.t1_apply(v) * w))
        rhs = float(np.sum(v * s.t1_transpose(w)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_scattering_transpose(self):
        grid = Grid(20, 20, 1.0)
        kernel = ScatteringKernel.henyey_greenstein(grid, GEOM, 0.6, 0.3)
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

    def test_auto_series_matches_fixed_length(self):
        spec = CutoffSpec.full_data()
        kernel = ScatteringKernel.isotropic(Grid(20, 20, 1.0), GEOM, 0.5)
        s = self._solver(kernel)
        rng = np.random.default_rng(4)
        f = rng.standard_normal((s.grid.n_pixels, 1))
        auto, n_terms = s.xv_apply_auto(f, spec)
        assert n_terms >= 1
        fixed = s.xv_apply(f, spec, n_terms)
        np.testing.assert_allclose(auto, fixed, atol=1e-13)


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
