"""Tomography tests: transforms, adjoints, symbol, SVD, smoothing, edges."""

import math
import tracemalloc

import numpy as np
import pytest

from rte_tomo.coefficients import AbsorptionField, ScatteringKernel
from rte_tomo.geometry import (
    CutoffSpec,
    DiskGeometry,
    Grid,
    exit_points,
    microvisible,
    smooth_step,
    visible_mask,
)
from rte_tomo import coefficients
from rte_tomo.phantoms import ConstantPhantom, DiskPhantom
from rte_tomo.tomography import (
    attenuation_stack,
    cutoff_stack,
    edge_strengths,
    adjoint_ray_transform,
    assemble_xv_matrix,
    high_frequency_fraction,
    normal_operator_full,
    normal_operator_kernel,
    point_source_pairing,
    principal_symbol,
    ray_transform,
    series_length,
    smoothing_diagnostic,
    svd_injectivity,
    symbol_field,
    wavefront_image,
)
from rte_tomo.transport import (
    MOMENT_MAX_DIM,
    BoundaryData,
    BoundaryGrid,
    PhaseSpaceField,
    TransportSolver,
)

TWO_PI = 2.0 * math.pi
GEOM = DiskGeometry(1.0, 1.2)
HALF = CutoffSpec.from_arcs([(0.0, math.pi)])
HALF_SOFT = CutoffSpec.from_arcs([(0.0, math.pi)], transition_width=0.5)


def taper_source(grid, geom, profile):
    c = grid.centers()
    r = np.hypot(c[..., 0], c[..., 1])
    return profile * smooth_step(geom.radius_inner - r, 0.25)


class TestRayTransform:
    def test_zero_source(self):
        grid = Grid(32, 32, 1.2)
        solver = TransportSolver(GEOM, grid, n_theta=8, n_bdry=16)
        bd = ray_transform(solver, CutoffSpec.full_data(), np.zeros((32, 32)))
        assert np.all(bd.values == 0.0)

    def test_unattenuated_diameter_chord(self):
        grid = Grid(48, 48, 1.2)
        r = 0.5
        solver = TransportSolver(GEOM, grid, n_theta=8, n_bdry=16)
        bd = ray_transform(solver, CutoffSpec.full_data(),
                           phantom=DiskPhantom(radius=r, value=1.0))
        assert bd.values[0, 0] == pytest.approx(2.0 * r, abs=1e-9)

    def test_constant_attenuation_closed_form(self):
        # Diameter integral of exp(-c * (distance to exit)) over the disk
        # chord, with D = R1 the center-to-exit distance.
        grid = Grid(48, 48, 1.2)
        c, r, D = 0.7, 0.5, GEOM.radius_outer
        sigma = AbsorptionField.constant(grid, GEOM, c)
        solver = TransportSolver(GEOM, grid, sigma=sigma, n_theta=8, n_bdry=16,
                                 h_ray=GEOM.radius_outer / 512)
        bd = ray_transform(solver, CutoffSpec.full_data(),
                           phantom=DiskPhantom(radius=r, value=1.0))
        expected = (math.exp(-c * (D - r)) - math.exp(-c * (D + r))) / c
        assert bd.values[0, 0] == pytest.approx(expected, rel=1e-6)

    def test_empty_cutoff(self):
        grid = Grid(32, 32, 1.2)
        solver = TransportSolver(GEOM, grid, n_theta=8, n_bdry=16)
        bd = ray_transform(solver, CutoffSpec.empty(),
                           phantom=DiskPhantom(radius=0.5, value=1.0))
        assert np.all(bd.values == 0.0)


class TestAdjointRayTransform:
    def test_zero_data(self):
        grid = Grid(32, 32, 1.2)
        bg = BoundaryGrid(GEOM, 16, 8)
        h = BoundaryData(bgrid=bg, values=np.zeros((16, 8)))
        out = adjoint_ray_transform(CutoffSpec.full_data(),
                                    AbsorptionField.zero(grid), GEOM, h)
        assert np.all(out == 0.0)

    def test_constant_data_gives_two_pi(self):
        # With no attenuation and full data every direction contributes
        # weight one, so the angular sum is exactly 2 pi.
        grid = Grid(32, 32, 1.2)
        bg = BoundaryGrid(GEOM, 32, 16)
        h = BoundaryData(bgrid=bg, values=np.ones((32, 16)))
        out = adjoint_ray_transform(CutoffSpec.full_data(),
                                    AbsorptionField.zero(grid), GEOM, h)
        inside = grid.disk_mask(GEOM.radius_outer)
        np.testing.assert_allclose(out[inside], TWO_PI, rtol=1e-12)
        assert np.all(out[~inside] == 0.0)

    def test_independent_discretization_adjoint_identity(self):
        # Forward chords and the adjoint angular sum are discretized
        # independently, so the identity holds only to quadrature accuracy.
        grid = Grid(48, 48, 1.2)
        sigma = AbsorptionField.constant(grid, GEOM, 0.3)
        spec = HALF_SOFT
        c = grid.centers()
        f = taper_source(
            grid, GEOM,
            1.0 + 0.5 * np.sin(3.0 * c[..., 0]) * np.cos(2.0 * c[..., 1]))
        solver = TransportSolver(GEOM, grid, sigma=sigma, n_theta=32, n_bdry=512)
        fwd = ray_transform(solver, spec, f)
        bg = fwd.bgrid
        hv = (1.0 + 0.4 * np.cos(bg.angles)[:, None]
              + 0.3 * np.sin(2.0 * bg.theta_angles)[None, :])
        h = BoundaryData(bgrid=bg, values=np.broadcast_to(
            hv, (bg.n_bdry, bg.n_theta)).copy())
        lhs = fwd.dot(h)
        back = adjoint_ray_transform(spec, sigma, GEOM, h, step=grid.hx / 4)
        rhs = float(np.sum(f * back)) * grid.pixel_area
        assert lhs == pytest.approx(rhs, rel=1e-3)


class TestNormalOperatorKernel:
    def test_zero_source(self):
        grid = Grid(32, 32, 1.2)
        out = normal_operator_kernel(CutoffSpec.full_data(),
                                     AbsorptionField.zero(grid), GEOM,
                                     np.zeros((32, 32)))
        assert np.all(out == 0.0)

    def test_empty_cutoff(self):
        grid = Grid(32, 32, 1.2)
        c = grid.centers()
        f = taper_source(grid, GEOM, np.exp(-4.0 * (c[..., 0] ** 2 + c[..., 1] ** 2)))
        out = normal_operator_kernel(CutoffSpec.empty(),
                                     AbsorptionField.zero(grid), GEOM, f)
        assert np.all(out == 0.0)

    def test_matches_composition_of_forward_and_adjoint(self):
        # Singular-kernel quadrature versus I*(I f): two independent
        # discretizations of the same normal operator.
        grid = Grid(64, 64, 1.2)
        sigma = AbsorptionField.zero(grid)
        spec = CutoffSpec.full_data()
        c = grid.centers()
        f = taper_source(grid, GEOM,
                         np.exp(-4.0 * ((c[..., 0] - 0.2) ** 2 + c[..., 1] ** 2)))
        direct = normal_operator_kernel(spec, sigma, GEOM, f)
        solver = TransportSolver(GEOM, grid, sigma=sigma, n_theta=64, n_bdry=512)
        fwd = ray_transform(solver, spec, f)
        composed = adjoint_ray_transform(spec, sigma, GEOM, fwd)
        mask = grid.disk_mask(GEOM.radius_inner)
        num = np.linalg.norm((direct - composed)[mask])
        den = np.linalg.norm(composed[mask])
        assert num / den < 0.02


class TestNormalOperatorFull:
    def test_no_scattering_has_zero_remainder(self):
        grid = Grid(24, 24, 1.2)
        sigma = AbsorptionField.constant(grid, GEOM, 0.3)
        c = grid.centers()
        f = taper_source(grid, GEOM, np.exp(-3.0 * (c[..., 0] ** 2 + c[..., 1] ** 2)))
        solver = TransportSolver(GEOM, grid, sigma=sigma,
                                 kernel=ScatteringKernel.zero(grid), n_theta=16, n_bdry=64)
        img = normal_operator_full(solver, HALF_SOFT, f)
        assert np.all(img.scattering_remainder == 0.0)
        assert np.any(img.values != 0.0)

    def test_zero_source(self):
        grid = Grid(24, 24, 1.2)
        solver = TransportSolver(GEOM, grid, n_theta=16, n_bdry=64)
        img = normal_operator_full(solver, CutoffSpec.full_data(), np.zeros((24, 24)))
        assert np.all(img.values == 0.0)

    def test_matrix_and_iterative_paths_agree(self):
        grid = Grid(24, 24, 1.2)
        sigma = AbsorptionField.constant(grid, GEOM, 0.3)
        kernel = ScatteringKernel.isotropic(grid, GEOM, 0.4)
        c = grid.centers()
        f = taper_source(grid, GEOM, np.exp(-3.0 * (c[..., 0] ** 2 + c[..., 1] ** 2)))
        solver = TransportSolver(GEOM, grid, sigma=sigma, kernel=kernel,
                                 n_theta=16, n_bdry=64)
        a = normal_operator_full(solver, HALF_SOFT, f, method="matrix")
        b = normal_operator_full(solver, HALF_SOFT, f, method="iterative")
        scale = np.max(np.abs(a.values))
        assert np.max(np.abs(a.values - b.values)) <= 1e-8 * scale

    def test_unknown_method_fails_before_the_certificate(self):
        # The method is checked before series_length runs the contraction
        # certificate, the first product with K T1^{-1}.
        grid = Grid(24, 24, 1.2)
        solver = TransportSolver(GEOM, grid,
                                 kernel=ScatteringKernel.isotropic(grid, GEOM, 0.4),
                                 n_theta=16, n_bdry=64)
        with pytest.raises(ValueError, match="method must be"):
            normal_operator_full(solver, HALF_SOFT, np.zeros((24, 24)), method="dense")
        assert solver.certificate is None


class TestPointSourcePairing:
    def test_zero_source(self):
        grid = Grid(24, 24, 1.2)
        solver = TransportSolver(GEOM, grid, n_theta=16, n_bdry=64)
        val = point_source_pairing(solver, CutoffSpec.full_data(),
                                   np.zeros((24, 24)), (12, 12))
        assert val == 0.0

    def test_equals_normal_operator_sample(self):
        grid = Grid(24, 24, 1.2)
        sigma = AbsorptionField.constant(grid, GEOM, 0.3)
        kernel = ScatteringKernel.isotropic(grid, GEOM, 0.4)
        c = grid.centers()
        f = taper_source(grid, GEOM, np.exp(-3.0 * (c[..., 0] ** 2 + c[..., 1] ** 2)))
        solver = TransportSolver(GEOM, grid, sigma=sigma, kernel=kernel,
                                 n_theta=16, n_bdry=64)
        img = normal_operator_full(solver, HALF_SOFT, f, method="iterative")
        for z in [(12, 12), (10, 14), (14, 9)]:
            val = point_source_pairing(solver, HALF_SOFT, f, z)
            ref = img.values[z]
            assert val == pytest.approx(ref, rel=1e-8)

    def test_self_pairing_is_positive(self):
        grid = Grid(24, 24, 1.2)
        z = (12, 12)
        phi = np.zeros((24, 24))
        phi[z] = 1.0 / grid.pixel_area
        solver = TransportSolver(GEOM, grid, n_theta=16, n_bdry=64)
        val = point_source_pairing(solver, CutoffSpec.full_data(), phi, z)
        assert val > 0.0

    def test_pixel_off_the_grid_is_refused(self):
        # z = (11, 36) on this 24x24 grid used to flatten to 11 * 24 + 36,
        # the flat index of pixel (12, 12), and pair that pixel silently; a
        # negative index wrapped the same way.
        grid = Grid(24, 24, 1.2)
        solver = TransportSolver(GEOM, grid, n_theta=16, n_bdry=64)
        f = np.zeros((24, 24))
        for z in [(11, 36), (13, -12), (24, 0), (-1, 12)]:
            with pytest.raises(ValueError, match="outside the 24x24 grid"):
                point_source_pairing(solver, HALF_SOFT, f, z)
        for z in [576, -1]:
            with pytest.raises(ValueError, match=r"outside \[0, 576\)"):
                point_source_pairing(solver, HALF_SOFT, f, z)
        assert point_source_pairing(solver, HALF_SOFT, f, 12 * 24 + 12) == 0.0


class TestPrincipalSymbol:
    def test_full_data_no_attenuation_is_four_pi(self):
        grid = Grid(16, 16, 1.2)
        sigma = AbsorptionField.zero(grid)
        for x, ang in [((0.0, 0.0), 0.3), ((0.4, -0.2), 2.0), ((-0.6, 0.1), 4.4)]:
            xi = (math.cos(ang), math.sin(ang))
            val = principal_symbol(CutoffSpec.full_data(), sigma, GEOM, x, xi)
            assert val == pytest.approx(4.0 * math.pi, rel=1e-12)

    def test_empty_cutoff_is_zero(self):
        grid = Grid(16, 16, 1.2)
        sigma = AbsorptionField.zero(grid)
        val = principal_symbol(CutoffSpec.empty(), sigma, GEOM,
                               (0.1, 0.2), (1.0, 0.0))
        assert val == 0.0

    def test_even_in_xi(self):
        grid = Grid(16, 16, 1.2)
        sigma = AbsorptionField.gaussian(grid, GEOM, 0.4, width=0.5)
        rng = np.random.default_rng(2)
        for _ in range(20):
            ang = rng.uniform(0.0, TWO_PI)
            rad = rng.uniform(0.0, 0.9)
            pos = rng.uniform(0.0, TWO_PI)
            x = (rad * math.cos(pos), rad * math.sin(pos))
            xi = np.array([math.cos(ang), math.sin(ang)])
            a = principal_symbol(HALF_SOFT, sigma, GEOM, x, xi)
            b = principal_symbol(HALF_SOFT, sigma, GEOM, x, -xi)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_rotation_invariance_of_the_disk_problem(self):
        grid = Grid(16, 16, 1.2)
        sigma = AbsorptionField.zero(grid)
        alpha = 0.83
        spec_rot = CutoffSpec.from_arcs([(alpha, math.pi + alpha)],
                                        transition_width=0.5)
        rot = np.array([[math.cos(alpha), -math.sin(alpha)],
                        [math.sin(alpha), math.cos(alpha)]])
        rng = np.random.default_rng(3)
        for _ in range(20):
            rad = rng.uniform(0.0, 0.9)
            pos, ang = rng.uniform(0.0, TWO_PI, size=2)
            x = np.array([rad * math.cos(pos), rad * math.sin(pos)])
            xi = np.array([math.cos(ang), math.sin(ang)])
            a = principal_symbol(HALF_SOFT, sigma, GEOM, x, xi)
            b = principal_symbol(spec_rot, sigma, GEOM, rot @ x, rot @ xi)
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    def test_positivity_matches_microvisibility(self):
        # Hard cutoff: the symbol is positive exactly where some
        # perpendicular exit is visible.
        grid = Grid(16, 16, 1.2)
        sigma = AbsorptionField.constant(grid, GEOM, 0.2)
        spec = CutoffSpec.from_arcs([(0.4, 2.1)])
        rng = np.random.default_rng(4)
        n = 2000
        rad = np.sqrt(rng.uniform(0.0, 1.0, n)) * 0.95
        pos = rng.uniform(0.0, TWO_PI, n)
        ang = rng.uniform(0.0, TWO_PI, n)
        disagreements = 0
        for i in range(n):
            x = (rad[i] * math.cos(pos[i]), rad[i] * math.sin(pos[i]))
            xi = (math.cos(ang[i]), math.sin(ang[i]))
            b0 = principal_symbol(spec, sigma, GEOM, x, xi)
            if (b0 > 0.0) != bool(microvisible(spec, GEOM, x, xi)):
                disagreements += 1
        assert disagreements == 0

    def test_symbol_field_matches_pointwise_symbol(self):
        grid = Grid(16, 16, 1.2)
        sigma = AbsorptionField.gaussian(grid, GEOM, 0.4, width=0.5)
        field = symbol_field(HALF_SOFT, sigma, GEOM, grid, n_xi=8)
        centers = grid.centers()
        for (iy, ix) in [(8, 8), (5, 10), (11, 4)]:
            x = centers[iy, ix]
            for q, ang in enumerate(field.xi_angles):
                xi = (math.cos(ang), math.sin(ang))
                ref = principal_symbol(HALF_SOFT, sigma, GEOM, x, xi)
                assert field.values[q, iy, ix] == pytest.approx(
                    ref, rel=2e-3, abs=1e-9)

    @staticmethod
    def _pairs(n, seed):
        rng = np.random.default_rng(seed)
        rad = np.sqrt(rng.uniform(0.0, 1.0, n)) * 0.95
        pos = rng.uniform(0.0, TWO_PI, n)
        ang = rng.uniform(0.0, TWO_PI, n)
        x = np.stack([rad * np.cos(pos), rad * np.sin(pos)], axis=1)
        xi = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return x, xi

    def test_stacked_call_equals_one_pair_calls_bitwise(self):
        grid = Grid(16, 16, 1.2)
        sigma = AbsorptionField.cosine_anisotropic(grid, GEOM, 0.5, 0.3, order=2)
        x, xi = self._pairs(60, 5)
        got = principal_symbol(HALF_SOFT, sigma, GEOM, x, xi)
        assert got.shape == (60,)
        one = [principal_symbol(HALF_SOFT, sigma, GEOM, p, c) for p, c in zip(x, xi)]
        assert np.array_equal(got, one)
        assert np.count_nonzero(got) > 10 and np.count_nonzero(got == 0.0) > 0

    def test_single_pair_is_zero_dimensional(self):
        sigma = AbsorptionField.gaussian(Grid(16, 16, 1.2), GEOM, 0.4, width=0.5)
        val = principal_symbol(HALF_SOFT, sigma, GEOM, (0.1, 0.2), (0.0, 1.0))
        assert isinstance(val, np.ndarray) and val.shape == ()
        assert val > 0.0

    def test_points_broadcast_against_one_covector(self):
        sigma = AbsorptionField.gaussian(Grid(16, 16, 1.2), GEOM, 0.4, width=0.5)
        x, _ = self._pairs(40, 6)
        xi = np.array([math.cos(0.7), math.sin(0.7)])
        got = principal_symbol(HALF_SOFT, sigma, GEOM, x, xi)
        ref = principal_symbol(HALF_SOFT, sigma, GEOM, x, np.broadcast_to(xi, x.shape))
        assert got.shape == (40,)
        assert np.array_equal(got, ref)
        grid_pts = principal_symbol(HALF_SOFT, sigma, GEOM, x.reshape(4, 10, 2), xi)
        assert np.array_equal(grid_pts.reshape(-1), ref)

    def test_one_bad_row_is_refused(self):
        sigma = AbsorptionField.zero(Grid(16, 16, 1.2))
        x, xi = self._pairs(20, 7)
        long_xi = xi.copy()
        long_xi[13] *= 1.5
        with pytest.raises(ValueError, match="xi must be a unit covector"):
            principal_symbol(HALF_SOFT, sigma, GEOM, x, long_xi)
        far = x.copy()
        far[4] = (0.0, 1.3)
        with pytest.raises(ValueError, match="point lies outside the outer disk"):
            principal_symbol(HALF_SOFT, sigma, GEOM, far, xi)


class TestAttenuationStack:
    @staticmethod
    def _padded_reference(sigma, grid, angles, step):
        """E on every pixel from sigma sampled at every padded lattice node.

        Each row holds the lattice clamped to the pixel's exit time tau, then
        tau.  Returns E with G summed over each row's live prefix by the
        reduction the stack uses, and E with G summed pairwise over the
        whole padded row.
        """
        p = grid.points_flat()
        inside = grid.disk_mask(GEOM.radius_outer).reshape(-1)
        live_sum = np.ones((len(angles), grid.n_pixels))
        padded_sum = np.ones((len(angles), grid.n_pixels))
        for a, ang in enumerate(angles):
            th = np.array([math.cos(ang), math.sin(ang)])
            _, tau = exit_points(GEOM, p[inside], th)
            n_full = int(math.floor(tau.max() / step + 1e-12))
            lattice = step * np.arange(n_full + 1)
            m = np.searchsorted(lattice, tau)              # live cells per row
            assert np.all(m > 0)
            nodes = np.concatenate(
                [np.minimum(lattice[None, :], tau[:, None]), tau[:, None]], axis=1)
            sig = sigma.sample(p[inside][:, None, :] + nodes[..., None] * th, float(ang))
            delta = np.diff(nodes, axis=1)
            terms = 0.5 * delta * (sig[:, :-1] + sig[:, 1:])
            live = np.arange(terms.shape[1]) < m[:, None]
            G = np.add.reduceat(terms[live], np.cumsum(m) - m)
            live_sum[a, inside] = np.exp(-G)
            padded_sum[a, inside] = np.exp(-np.sum(terms, axis=1))
        return live_sum, padded_sum

    def test_matches_padded_lattice_bitwise(self):
        angles = TWO_PI * np.arange(12) / 12 + 0.1
        for shape in [(20, 18), (40, 40), (33, 17)]:
            grid = Grid(*shape, 1.2)
            sigma = AbsorptionField.gaussian(grid, GEOM, 0.7, center=(-0.1, 0.2),
                                             width=0.35)
            got = attenuation_stack(sigma, GEOM, grid, angles)
            ref, padded = self._padded_reference(sigma, grid, angles, 0.5 * grid.hx)
            assert np.array_equal(got, ref)
            # Summing the padded rows pairwise rounds differently.
            assert np.max(np.abs(got - padded) / padded) <= 1e-15
            assert got.min() < 0.9

    def test_block_size_leaves_the_stack_unchanged(self, monkeypatch):
        grid = Grid(24, 20, 1.2)
        sigma = AbsorptionField.cosine_anisotropic(grid, GEOM, 0.5, 0.3, order=2)
        angles = TWO_PI * np.arange(7) / 7
        whole = attenuation_stack(sigma, GEOM, grid, angles)
        # 300 nodes hold a few rays; 7 is below one ray, so one ray a block.
        for nodes in (300, 7):
            monkeypatch.setattr(coefficients, "STACK_BLOCK_NODES", nodes)
            assert np.array_equal(attenuation_stack(sigma, GEOM, grid, angles), whole)

    def test_one_direction_stays_within_a_block(self):
        """256x256 pixels: a padded (pixels, lattice) float table would take
        about 200 MiB; one block of STACK_BLOCK_NODES = 2**20 nodes peaks near
        47 MiB."""
        grid = Grid(256, 256, 1.2)
        sigma = AbsorptionField.gaussian(grid, GEOM, 0.7, center=(-0.1, 0.2), width=0.35)
        tracemalloc.start()
        try:
            attenuation_stack(sigma, GEOM, grid, [0.3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("n_xi", [8, 9])
    def test_symbol_field_sums_both_orientations(self, n_xi):
        grid = Grid(16, 16, 1.2)
        sigma = AbsorptionField.gaussian(grid, GEOM, 0.6, center=(0.2, -0.1), width=0.4)
        xi_angles = TWO_PI * np.arange(n_xi) / n_xi
        ref = np.zeros((n_xi, grid.n_pixels))
        for sign in (+1.0, -1.0):
            perp = xi_angles + sign * 0.5 * math.pi
            e = attenuation_stack(sigma, GEOM, grid, perp)
            ref += (e * cutoff_stack(HALF_SOFT, GEOM, grid, perp)) ** 2
        ref *= TWO_PI
        ref[:, ~grid.disk_mask(GEOM.radius_outer).reshape(-1)] = 0.0
        got = symbol_field(HALF_SOFT, sigma, GEOM, grid, n_xi=n_xi).values
        ref = ref.reshape(got.shape)
        assert np.max(ref) > 0.0
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestSvdInjectivity:
    def test_empty_cutoff_gives_zero_operator(self):
        grid = Grid(24, 24, 1.2)
        sigma = AbsorptionField.zero(grid)
        mask = visible_mask(CutoffSpec.full_data(), GEOM, grid)
        solver = TransportSolver(GEOM, grid, sigma=sigma,
                                 kernel=ScatteringKernel.zero(grid), n_theta=16, n_bdry=64)
        sv, si, _ = svd_injectivity(solver, CutoffSpec.empty(), mask)
        assert sv == 0.0
        assert si == 0.0

    def test_full_data_plain_transform_is_injective(self):
        grid = Grid(24, 24, 1.2)
        sigma = AbsorptionField.zero(grid)
        mask = visible_mask(CutoffSpec.full_data(), GEOM, grid)
        solver = TransportSolver(GEOM, grid, sigma=sigma,
                                 kernel=ScatteringKernel.zero(grid), n_theta=16, n_bdry=64)
        sv, si, _ = svd_injectivity(solver, CutoffSpec.full_data(), mask)
        assert sv > 0.0

    def test_half_circle_separation(self):
        grid = Grid(24, 24, 1.2)
        sigma = AbsorptionField.constant(grid, GEOM, 0.3)
        mask = visible_mask(HALF, GEOM, grid)
        solver = TransportSolver(GEOM, grid, sigma=sigma,
                                 kernel=ScatteringKernel.zero(grid), n_theta=16, n_bdry=64)
        sv, si, _ = svd_injectivity(solver, HALF, mask)
        assert sv > 0.0
        assert sv / max(si, 1e-14) >= 10.0

    def test_oversized_grid_is_refused(self):
        grid = Grid(48, 48, 1.2)
        sigma = AbsorptionField.zero(grid)
        mask = visible_mask(CutoffSpec.full_data(), GEOM, grid)
        solver = TransportSolver(GEOM, grid, sigma=sigma,
                                 kernel=ScatteringKernel.zero(grid), n_theta=16)
        with pytest.raises(ValueError, match="dense SVD"):
            svd_injectivity(solver, CutoffSpec.full_data(), mask)
        # A solver with too many directions is refused as well.
        grid = Grid(16, 16, 1.2)
        sigma = AbsorptionField.zero(grid)
        kernel = ScatteringKernel.zero(grid)
        mask = visible_mask(CutoffSpec.full_data(), GEOM, grid)
        solver = TransportSolver(geom=GEOM, grid=grid, sigma=sigma,
                                 kernel=kernel, n_theta=64, n_bdry=32)
        with pytest.raises(ValueError, match="dense SVD"):
            svd_injectivity(solver, CutoffSpec.full_data(), mask)

    def test_mask_on_another_grid_is_refused(self):
        grid = Grid(16, 16, 1.2)
        solver = TransportSolver(GEOM, grid, n_theta=8, n_bdry=32)
        mask = visible_mask(CutoffSpec.full_data(), GEOM, Grid(16, 16, 1.3))
        with pytest.raises(ValueError, match="mask grid does not match"):
            svd_injectivity(solver, CutoffSpec.full_data(), mask)

    def test_weighted_adjoint_is_exact(self):
        grid = Grid(16, 16, 1.2)
        sigma = AbsorptionField.constant(grid, GEOM, 0.3)
        solver = TransportSolver(geom=GEOM, grid=grid, sigma=sigma,
                                 kernel=ScatteringKernel.zero(grid),
                                 n_theta=8, n_bdry=32)
        op = assemble_xv_matrix(solver, HALF_SOFT, n_terms=0)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(op.cols)
        w = rng.standard_normal(op.rows)
        lhs = float(np.sum(op.apply(v) * w * op.row_weights))
        rhs = float(np.sum(v * op.apply_adjoint(w) * op.col_weights))
        scale = np.linalg.norm(v) * np.linalg.norm(w)
        assert abs(lhs - rhs) <= 1e-12 * scale


TWO_ARCS = CutoffSpec.from_arcs([(0.2, 1.4), (3.0, 4.6)], transition_width=0.3)


def _scattering_solver(kind, nx=12):
    """Isotropic kernel over constant absorption, or Henyey-Greenstein with
    three modes over Gaussian absorption, at 8 directions."""
    grid = Grid(nx, nx, 1.2)
    if kind == "isotropic":
        sigma = AbsorptionField.constant(grid, GEOM, 0.3)
        kernel = ScatteringKernel.isotropic(grid, GEOM, 0.4)
    else:
        sigma = AbsorptionField.gaussian(grid, GEOM, 0.7, center=(-0.1, 0.2), width=0.35)
        kernel = ScatteringKernel.henyey_greenstein(grid, GEOM, 0.4, 0.5, n_modes=3)
    return TransportSolver(GEOM, grid, sigma=sigma, kernel=kernel, n_theta=8, n_bdry=32)


def _count_xv_apply(monkeypatch, solver):
    calls = []
    xv_apply = solver.xv_apply
    monkeypatch.setattr(solver, "xv_apply",
                        lambda f, spec, n: calls.append(n) or xv_apply(f, spec, n))
    return calls


class TestMomentAssembly:
    """assemble_xv_matrix summing its series with the moment matrix C."""

    @pytest.mark.parametrize("n_terms", [1, 2, "series"])
    @pytest.mark.parametrize("kind", ["isotropic", "henyey-greenstein"])
    def test_columns_match_xv_apply(self, monkeypatch, kind, n_terms):
        solver = _scattering_solver(kind)
        if n_terms == "series":
            n_terms = series_length(solver)
        n = solver.grid.n_pixels
        ref = solver.xv_apply(np.eye(n), TWO_ARCS, n_terms).reshape(-1, n)
        calls = _count_xv_apply(monkeypatch, solver)
        op = assemble_xv_matrix(solver, TWO_ARCS, n_terms, col_pixels=np.arange(n))
        assert calls == []
        assert np.max(np.abs(op.matrix - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind, nx, n_terms", [
        ("henyey-greenstein", 16, 2),     # D = 1344 > MOMENT_MAX_DIM
        ("isotropic", 12, 0),             # no scattering term
    ], ids=["moment-space-too-large", "no-terms"])
    def test_falls_back_to_xv_apply(self, monkeypatch, kind, nx, n_terms):
        solver = _scattering_solver(kind, nx)
        assert (len(solver.moment_layout()[1]) > MOMENT_MAX_DIM) == (n_terms > 0)
        cols = np.nonzero(solver._omega_flat)[0]
        calls = _count_xv_apply(monkeypatch, solver)
        op = assemble_xv_matrix(solver, TWO_ARCS, n_terms, col_pixels=cols)
        assert op.cols == len(cols)
        assert calls and all(n == n_terms for n in calls)
        assert solver._moment_C is None

    def test_svd_builds_the_moment_matrix_once(self, monkeypatch):
        solver = _scattering_solver("isotropic", nx=16)
        mask = visible_mask(HALF, GEOM, solver.grid)
        series_length(solver)
        swept, traced = [], []
        t1_apply, trace_phase = solver.t1_apply, solver.trace_phase
        monkeypatch.setattr(solver, "t1_apply",
                            lambda v: swept.append(v.shape[2]) or t1_apply(v))
        monkeypatch.setattr(solver, "trace_phase", lambda s, f, spec=None: (
            traced.append(s.shape[2]) or trace_phase(s, f, spec)))
        calls = _count_xv_apply(monkeypatch, solver)
        svd_injectivity(solver, HALF, mask)
        support, _ = solver.moment_layout()
        assert calls == []
        assert len(traced) == 2         # one block for each support
        assert sum(swept) == len(support) + sum(traced)

    @pytest.mark.parametrize("kernel", ["no-terms", "zero-raster"])
    def test_zero_kernel_with_terms(self, monkeypatch, kernel):
        grid = Grid(12, 12, 1.2)
        k = (ScatteringKernel.zero(grid) if kernel == "no-terms"
             else ScatteringKernel.isotropic(grid, GEOM, 0.0))
        solver = TransportSolver(GEOM, grid, sigma=AbsorptionField.constant(grid, GEOM, 0.3),
                                 kernel=k, n_theta=8, n_bdry=32)
        calls = _count_xv_apply(monkeypatch, solver)
        op = assemble_xv_matrix(solver, TWO_ARCS, 3)
        assert calls == []
        assert solver.moment_matrix().shape == (0, 0)
        # n_terms = 0 still takes xv_apply, which sweeps nothing.
        ballistic = assemble_xv_matrix(solver, TWO_ARCS, 0)
        assert calls and set(calls) == {0}
        np.testing.assert_array_equal(op.matrix, ballistic.matrix)
        assert np.any(op.matrix != 0.0)


class TestSmoothingDiagnostic:
    def test_zero_input(self):
        grid = Grid(32, 32, 1.2)
        angles = TWO_PI * np.arange(8) / 8
        f = PhaseSpaceField(grid=grid, theta_angles=angles,
                            values=np.zeros((8, 32, 32)))
        kernel = ScatteringKernel.isotropic(grid, GEOM, 0.5)
        solver = TransportSolver(GEOM, grid, kernel=kernel, n_theta=8, n_bdry=8)
        before, after = smoothing_diagnostic(solver, f)
        assert (before, after) == (0.0, 0.0)

    def test_white_noise_loses_high_frequencies(self):
        grid = Grid(64, 64, 1.2)
        rng = np.random.default_rng(7)
        angles = TWO_PI * np.arange(16) / 16
        f = PhaseSpaceField(grid=grid, theta_angles=angles,
                            values=rng.standard_normal((16, 64, 64)))
        kernel = ScatteringKernel.isotropic(grid, GEOM, 0.5)
        solver = TransportSolver(GEOM, grid, kernel=kernel, n_theta=16, n_bdry=8)
        before, after = smoothing_diagnostic(solver, f)
        assert after / before < 0.5

    def test_smooth_input_has_nothing_to_smooth(self):
        grid = Grid(64, 64, 1.2)
        c = grid.centers()
        bump = np.exp(-4.0 * (c[..., 0] ** 2 + c[..., 1] ** 2))
        angles = TWO_PI * np.arange(16) / 16
        f = PhaseSpaceField(grid=grid, theta_angles=angles,
                            values=np.broadcast_to(bump, (16, 64, 64)).copy())
        kernel = ScatteringKernel.isotropic(grid, GEOM, 0.5)
        solver = TransportSolver(GEOM, grid, kernel=kernel, n_theta=16, n_bdry=8)
        before, after = smoothing_diagnostic(solver, f)
        assert before < 0.05
        assert after < 0.05

    def test_field_on_other_grids_is_refused(self):
        grid = Grid(16, 16, 1.2)
        solver = TransportSolver(GEOM, grid, n_theta=8, n_bdry=8)
        for other, n_theta in ((Grid(16, 16, 1.3), 8), (grid, 16)):
            f = PhaseSpaceField(grid=other, theta_angles=TWO_PI * np.arange(n_theta) / n_theta,
                                values=np.ones((n_theta, 16, 16)))
            with pytest.raises(ValueError, match="solver's pixel and direction grids"):
                smoothing_diagnostic(solver, f)


class TestHighFrequencyFraction:
    def test_low_mode_is_all_low(self):
        grid = Grid(32, 32, 1.2)
        c = grid.centers()
        k = TWO_PI * 3 / (32 * grid.hx)
        vals = np.cos(k * c[..., 0])
        assert high_frequency_fraction(vals, grid) == pytest.approx(0.0, abs=1e-12)

    def test_high_mode_is_all_high(self):
        grid = Grid(32, 32, 1.2)
        c = grid.centers()
        k = TWO_PI * 12 / (32 * grid.hx)
        vals = np.cos(k * c[..., 0])
        assert high_frequency_fraction(vals, grid) == pytest.approx(1.0, rel=1e-12)

    def test_equal_mix_splits_evenly(self):
        grid = Grid(32, 32, 1.2)
        c = grid.centers()
        k_lo = TWO_PI * 3 / (32 * grid.hx)
        k_hi = TWO_PI * 12 / (32 * grid.hx)
        vals = np.cos(k_lo * c[..., 0]) + np.sin(k_hi * c[..., 1])
        assert high_frequency_fraction(vals, grid) == pytest.approx(0.5, rel=1e-12)

    def test_huge_values_keep_their_fraction(self):
        # Values near 1e154 and above overflowed the power spectrum and gave
        # nan.  The fraction is scale-free: a power-of-two scale of the input
        # leaves it bit for bit unchanged, any other scale to rounding.
        grid = Grid(32, 32, 1.2)
        c = grid.centers()
        k_lo = TWO_PI * 3 / (32 * grid.hx)
        k_hi = TWO_PI * 12 / (32 * grid.hx)
        vals = 0.3 * np.cos(k_lo * c[..., 0]) + np.sin(k_hi * c[..., 1] + 0.4)
        ref = high_frequency_fraction(vals, grid)
        for scale in (2.0**-900, 2.0**-20, 2.0**520, 2.0**1000):
            assert high_frequency_fraction(scale * vals, grid) == ref
        assert high_frequency_fraction(1e300 * vals, grid) == pytest.approx(ref, rel=1e-12)


class TestSeriesLength:
    def test_zero_kernel_needs_no_terms(self):
        grid = Grid(16, 16, 1.2)
        solver = TransportSolver(geom=GEOM, grid=grid,
                                 sigma=AbsorptionField.zero(grid),
                                 kernel=ScatteringKernel.zero(grid),
                                 n_theta=8, n_bdry=16)
        assert series_length(solver) == 0

    def test_matches_geometric_tail_bound(self):
        grid = Grid(16, 16, 1.2)
        solver = TransportSolver(geom=GEOM, grid=grid,
                                 sigma=AbsorptionField.zero(grid),
                                 kernel=ScatteringKernel.isotropic(grid, GEOM, 0.5),
                                 n_theta=8, n_bdry=16, tol=1e-10)
        rho = solver.spectral_radius()
        expected = min(max(int(math.ceil(math.log(1e-10) / math.log(rho))), 1), 200)
        assert series_length(solver) == expected


def _rho_one_total(grid, geom, n_theta, n_bdry, sigma):
    probe = TransportSolver(geom=geom, grid=grid, sigma=sigma,
                            kernel=ScatteringKernel.isotropic(grid, geom, 1.0),
                            n_theta=n_theta, n_bdry=n_bdry)
    return probe.spectral_radius()


class TestWavefrontImage:
    @staticmethod
    def _scaled_solver(grid, sigma, rho_target, n_theta, n_bdry):
        """Solver whose isotropic kernel has spectral radius rho_target."""
        base = _rho_one_total(grid, GEOM, n_theta, n_bdry, sigma)
        kernel = ScatteringKernel.isotropic(grid, GEOM, rho_target / base)
        return TransportSolver(GEOM, grid, sigma=sigma, kernel=kernel,
                               n_theta=n_theta, n_bdry=n_bdry)

    def test_full_data_every_edge_responds(self):
        grid = Grid(48, 48, 1.2)
        sigma = AbsorptionField.constant(grid, GEOM, 0.3)
        solver = self._scaled_solver(grid, sigma, 0.15, 64, 256)
        _, report = wavefront_image(solver, CutoffSpec.full_data(),
                                    DiskPhantom(radius=0.5, value=1.0), n_edge=72)
        assert np.all(report.visible)
        assert float(np.min(report.strengths)) > 0.0

    def test_half_circle_shadowed_edges_stay_quiet(self):
        grid = Grid(48, 48, 1.2)
        sigma = AbsorptionField.constant(grid, GEOM, 0.3)
        solver = self._scaled_solver(grid, sigma, 0.15, 64, 256)
        _, report = wavefront_image(solver, HALF_SOFT,
                                    DiskPhantom(radius=0.5, value=1.0), n_edge=72)
        assert np.any(report.visible)
        assert np.any(~report.visible)
        assert report.response_ratio <= 0.2

    def test_constant_phantom_has_quiet_interior(self):
        # A source with its only jump at the rim of the source disk leaves
        # the deep interior of N smooth; a disk phantom run at the same
        # settings sets the scale for what an actual edge response looks
        # like.  Probing both images at the same interior circle with the
        # edge metric separates kink from trend slope.
        grid = Grid(48, 48, 1.2)
        sigma = AbsorptionField.constant(grid, GEOM, 0.3)
        solver = self._scaled_solver(grid, sigma, 0.15, 32, 128)
        flat, _ = wavefront_image(solver, CutoffSpec.full_data(),
                                  ConstantPhantom(radius=GEOM.radius_inner * 0.98))
        edged, _ = wavefront_image(solver, CutoffSpec.full_data(),
                                   DiskPhantom(radius=0.5, value=1.0))
        probes, normals, jumps = DiskPhantom(radius=0.5, value=1.0).edge_points(72)
        ghost = edge_strengths(flat.values, grid, probes, normals, jumps)
        real = edge_strengths(edged.values, grid, probes, normals, jumps)
        rim = edge_strengths(flat.values, grid,
                             *ConstantPhantom(radius=GEOM.radius_inner * 0.98)
                             .edge_points(72))
        # Interior probes of the flat image respond far below its own rim
        # edge, and below what a true edge at the probe circle produces.
        assert float(np.max(ghost)) <= 0.2 * float(np.median(rim))
        assert float(np.max(ghost)) < float(np.median(real))
