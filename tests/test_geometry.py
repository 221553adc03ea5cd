import math
import warnings

import numpy as np
import pytest

import rte_tomo as rt
from rte_tomo.geometry import (
    cutoff_boundary_values,
    cutoff_extended_values,
    exit_points,
    exit_times,
    microvisible,
    smooth_step,
    visible_mask,
    convex_hull_mask,
)

GEOM = rt.DiskGeometry(0.8, 1.0)
GEOM_WIDE = rt.DiskGeometry(1.0, 1.2)


def bisect_exit(radius, x, theta):
    """Independent root finder for |x + t*theta| = radius."""
    lo, hi = 0.0, 2.0 * radius + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p = np.asarray(x) + mid * np.asarray(theta)
        if np.hypot(p[0], p[1]) < radius:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBoundaryExit:
    def test_center_straight_out(self):
        z, t = exit_points(GEOM, (0.0, 0.0), (1.0, 0.0))
        assert np.allclose(z, (1.0, 0.0))
        assert t == pytest.approx(1.0)

    def test_collinear_with_center(self):
        z, t = exit_points(GEOM, (0.5, 0.0), (1.0, 0.0))
        assert np.allclose(z, (1.0, 0.0))
        assert t == pytest.approx(0.5)

    def test_offset_point_matches_bisection(self):
        x, theta = (0.0, 0.5), (1.0, 0.0)
        z, t = exit_points(GEOM, x, theta)
        t_ref = bisect_exit(1.0, x, theta)
        assert t == pytest.approx(t_ref, abs=1e-9)
        assert t == pytest.approx(0.86603, abs=1e-5)
        assert np.allclose(z, (0.86603, 0.5), atol=1e-5)

    def test_random_points_match_bisection(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = 1.19 * math.sqrt(rng.uniform())
            a = rng.uniform(0.0, 2.0 * math.pi)
            x = (r * math.cos(a), r * math.sin(a))
            b = rng.uniform(0.0, 2.0 * math.pi)
            theta = (math.cos(b), math.sin(b))
            _, t = exit_points(GEOM_WIDE, x, theta)
            assert t == pytest.approx(bisect_exit(1.2, x, theta), abs=1e-8)


class TestChord:
    """The backward chord from boundary point z along -theta has length
    2 R cos(gamma), gamma the angle between theta and the outward normal."""

    def test_diameter(self):
        assert exit_times(GEOM, (1.0, 0.0), (-1.0, 0.0)) == pytest.approx(2.0)
        assert exit_times(GEOM, (1.0, 0.0), (1.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_45_degree_chord_length(self):
        s = math.sqrt(0.5)
        assert exit_times(GEOM, (1.0, 0.0), (-s, -s)) == pytest.approx(math.sqrt(2.0),
                                                                       abs=1e-12)


class TestSmoothStep:
    def test_plateaus(self):
        assert smooth_step(-0.3, 0.5) == 0.0
        assert smooth_step(0.0, 0.5) == 0.0
        assert smooth_step(0.5, 0.5) == 1.0
        assert smooth_step(2.0, 0.5) == 1.0

    def test_monotone_inside_band(self):
        # the profile underflows to 0 extremely close to the band edge, so
        # probe the part of the band where doubles can resolve it
        d = np.linspace(0.05, 0.45, 200)
        v = smooth_step(d, 0.5)
        assert np.all(np.diff(v) > 0.0)
        assert np.all((v > 0.0) & (v < 1.0))

    def test_zero_width_is_indicator(self):
        assert smooth_step(1e-12, 0.0) == 1.0
        assert smooth_step(0.0, 0.0) == 0.0

    def test_tiny_width_warns_nothing(self):
        """Far outside a subnormal band the squared ramp overflows quietly."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = smooth_step(np.array([-1.0, 0.0, 1.0]), 5e-324)
        assert np.array_equal(v, [0.0, 0.0, 1.0])

    @staticmethod
    def _whole_array(d, w):
        """The bump evaluated everywhere, then the plateaus chosen over it."""
        d = np.asarray(d, dtype=float)
        if w <= 0.0:
            return (d > 0.0).astype(float)
        with np.errstate(divide="ignore", over="ignore", under="ignore",
                         invalid="ignore"):
            s = 1.0 - d / w
            bump = np.exp(1.0 - 1.0 / (1.0 - s * s))
        return np.where(d >= w, 1.0, np.where(d <= 0.0, 0.0, bump))

    @pytest.mark.parametrize("w", [0.0, 5e-324, 1e-300, 0.5])
    def test_matches_whole_array_formula_bitwise(self, w):
        d = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, w,
                      np.nextafter(w, -np.inf), 5e-324])
        rng = np.random.default_rng(11)
        band = rng.uniform(-0.2 * w, 1.2 * w, 997)
        for values in (d, band, band.reshape(-1, 1)[::3], np.tile(d, (3, 2)).T):
            assert np.array_equal(smooth_step(values, w),
                                  self._whole_array(values, w), equal_nan=True)
        for x in d:
            got = smooth_step(x, w)
            ref = self._whole_array(x, w)
            assert type(got) is type(ref) and np.shape(got) == ()
            assert np.array_equal(got, ref, equal_nan=True)


class TestCutoffSpec:
    """Cutoff values at boundary angle phi and theta . nu = cos(angle of theta - phi)."""

    def test_full_data_is_one_on_outgoing(self):
        spec = rt.CutoffSpec.full_data()
        rng = np.random.default_rng(5)
        a = rng.uniform(0.0, 2.0 * math.pi, 20)
        b = a + rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 20)
        got = cutoff_boundary_values(spec, a, np.cos(b - a))
        assert got == pytest.approx(np.ones(20))

    def test_empty_spec_zero(self):
        spec = rt.CutoffSpec.empty()
        assert cutoff_boundary_values(spec, 0.0, 1.0) == 0.0

    def test_incoming_always_zero(self):
        spec = rt.CutoffSpec.full_data()
        assert cutoff_boundary_values(spec, 0.0, -1.0) == 0.0

    def test_soft_arc_center(self):
        spec = rt.CutoffSpec.from_arcs([(-math.pi / 2, math.pi / 2)],
                                       transition_width=0.1)
        assert cutoff_boundary_values(spec, 0.0, 1.0) == pytest.approx(1.0)

    def test_transition_rolls_off_inside_arc(self):
        spec = rt.CutoffSpec.from_arcs([(-math.pi / 2, math.pi / 2)],
                                       transition_width=0.4)
        v = cutoff_boundary_values(spec, math.pi / 2 - 0.05, 1.0)
        assert 0.0 < v < 1.0

    def test_outside_arc_zero(self):
        spec = rt.CutoffSpec.from_arcs([(-math.pi / 2, math.pi / 2)])
        assert cutoff_boundary_values(spec, math.pi, 1.0) == 0.0

    def test_invalid_arcs_rejected(self):
        with pytest.raises(ValueError):
            rt.CutoffSpec.from_arcs([(1.0, 0.5)])
        with pytest.raises(ValueError):
            rt.CutoffSpec.from_arcs([(0.0, 7.0)])
        with pytest.raises(ValueError):
            rt.CutoffSpec.from_arcs([(0.0, 1.0)], transition_width=-0.1)

    def test_cone_restriction(self):
        spec = rt.CutoffSpec.from_arcs([(0.0, 2.0 * math.pi)], cones=[0.3])
        # straight out passes, a grazing exit does not
        assert cutoff_boundary_values(spec, 0.0, 1.0) == pytest.approx(1.0)
        assert cutoff_boundary_values(spec, 0.0, math.cos(1.2)) == 0.0

    def test_extended_cutoff_constant_along_ray(self):
        spec = rt.CutoffSpec.from_arcs([(-1.0, 1.0)], transition_width=0.2)
        theta = (math.cos(0.3), math.sin(0.3))
        vals = [cutoff_extended_values(spec, GEOM_WIDE, (x, -0.1), theta)
                for x in (-0.5, -0.2, 0.0, 0.4)]
        assert np.allclose(vals, vals[0])


class TestMicrovisible:
    def test_full_spec_everywhere(self):
        spec = rt.CutoffSpec.full_data()
        assert microvisible(spec, GEOM, (0.3, -0.2), (0.0, 1.0))

    def test_empty_spec_nowhere(self):
        spec = rt.CutoffSpec.empty()
        assert not microvisible(spec, GEOM, (0.3, -0.2), (0.0, 1.0))

    def test_right_half_circle_at_origin(self):
        """Perpendicular lines exit at (0, +-1); compare with direct cutoff values."""
        spec = rt.CutoffSpec.from_arcs([(-math.pi / 2, math.pi / 2)])
        got = microvisible(spec, GEOM, (0.0, 0.0), (1.0, 0.0))
        up = cutoff_boundary_values(spec, math.pi / 2, 1.0)
        dn = cutoff_boundary_values(spec, -math.pi / 2, 1.0)
        assert got == ((up > 0.0) or (dn > 0.0))

    def test_half_circle_shadow_side(self):
        spec = rt.CutoffSpec.from_arcs([(-math.pi / 2, math.pi / 2)])
        # left-edge normal: both perpendicular exits are on the dark side
        assert not microvisible(spec, GEOM_WIDE, (-0.5, 0.0), (-1.0, 0.0))
        assert microvisible(spec, GEOM_WIDE, (0.5, 0.0), (1.0, 0.0))

    def test_many_matches_scalar(self):
        spec = rt.CutoffSpec.from_arcs([(0.3, 2.1)])
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.6, 0.6, size=(40, 2))
        angs = rng.uniform(0.0, 2.0 * math.pi, size=40)
        xis = np.stack([np.cos(angs), np.sin(angs)], axis=1)
        batch = microvisible(spec, GEOM_WIDE, pts, xis)
        single = np.array([microvisible(spec, GEOM_WIDE, pts[i], xis[i])
                           for i in range(40)])
        assert batch.shape == (40,)
        assert np.array_equal(batch, single)

    def test_masks_are_all_and_none_of_the_predicate(self):
        """The visible mask equals all of a per-pixel scalar loop."""
        spec = rt.CutoffSpec.from_arcs([(0.4, 2.6), (3.5, 4.4)],
                                       cones=[0.5, 0.3], transition_width=0.2)
        grid = rt.Grid(16, 16, 1.2)
        n_theta = 8
        omega = grid.disk_mask(1.0)
        centers = grid.centers()
        expect_all = np.zeros_like(omega)
        for iy, ix in zip(*np.nonzero(omega)):
            seen = [bool(microvisible(spec, GEOM_WIDE, centers[iy, ix],
                                      (math.cos(a), math.sin(a))))
                    for a in 2.0 * math.pi * np.arange(n_theta) / n_theta]
            expect_all[iy, ix] = all(seen)
        vis = visible_mask(spec, GEOM_WIDE, grid, n_theta=n_theta).visible
        assert 0 < expect_all.sum() < omega.sum()
        assert np.array_equal(vis, expect_all)

    def test_stacked_input_checks(self):
        spec = rt.CutoffSpec.full_data()
        pts = np.array([[0.1, 0.2], [0.0, -0.3]])
        with pytest.raises(ValueError, match="xi must be nonzero"):
            microvisible(spec, GEOM_WIDE, pts, np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="outside the outer disk"):
            microvisible(spec, GEOM_WIDE, np.array([[0.1, 0.2], [1.3, 0.0]]),
                         (0.0, 1.0))


class TestVisibleMask:
    def test_full_spec_covers_interior(self):
        grid = rt.Grid(32, 32, 1.2)
        mask = visible_mask(rt.CutoffSpec.full_data(), GEOM_WIDE, grid)
        omega = grid.disk_mask(1.0)
        assert np.array_equal(mask.visible & omega, omega)

    def test_empty_spec_covers_nothing(self):
        grid = rt.Grid(32, 32, 1.2)
        mask = visible_mask(rt.CutoffSpec.empty(), GEOM_WIDE, grid)
        assert mask.count == 0

    def test_half_circle_contains_half_disk_hull(self):
        """The visible set must cover the convex hull of the data arc."""
        grid = rt.Grid(48, 48, 1.2)
        spec = rt.CutoffSpec.from_arcs([(-math.pi / 2, math.pi / 2)])
        vis = visible_mask(spec, GEOM_WIDE, grid)
        c = grid.centers()
        # hull of the right half circle of radius R1 is the segment x >= 0
        half_disk = (c[..., 0] >= 2.0 * grid.hx) & grid.disk_mask(1.0 - 2.0 * grid.hx)
        assert np.all(vis.visible[half_disk])


class TestConvexHullMask:
    def test_full_circle_hull_is_interior(self):
        grid = rt.Grid(32, 32, 1.2)
        hull = convex_hull_mask(rt.CutoffSpec.full_data(), GEOM_WIDE, grid).visible
        omega = grid.disk_mask(1.0)
        assert np.array_equal(hull & omega, omega)

    def test_half_circle_hull_is_segment(self):
        grid = rt.Grid(64, 64, 1.2)
        spec = rt.CutoffSpec.from_arcs([(-math.pi / 2, math.pi / 2)])
        hull = convex_hull_mask(spec, GEOM_WIDE, grid).visible
        c = grid.centers()
        inside = grid.disk_mask(1.2)
        # hull of the right half circle: circular segment {x >= 0} of radius R1,
        # intersected with the source disk when R1 exceeds it
        expect = inside & (c[..., 0] > grid.hx) & grid.disk_mask(1.0)
        boundary_band = np.abs(c[..., 0]) <= grid.hx
        ring = ~grid.disk_mask(1.0 - 2.0 * grid.hx)
        interior = expect & ~boundary_band & ~ring
        assert np.all(hull[interior])
        dark = inside & (c[..., 0] < -2.0 * grid.hx)
        assert not np.any(hull[dark])

    def test_two_quarter_arcs_hull_inside_visible(self):
        grid = rt.Grid(40, 40, 1.2)
        spec = rt.CutoffSpec.from_arcs([(0.0, math.pi / 2),
                                        (math.pi, 1.5 * math.pi)])
        hull = convex_hull_mask(spec, GEOM_WIDE, grid).visible
        vis = visible_mask(spec, GEOM_WIDE, grid)
        from scipy import ndimage
        core = ndimage.binary_erosion(hull, iterations=2) & grid.disk_mask(1.0)
        assert np.all(vis.visible[core])


class TestGrid:
    def test_pixel_geometry(self):
        grid = rt.Grid(10, 20, 1.0)
        assert grid.hx == pytest.approx(0.2)
        assert grid.hy == pytest.approx(0.1)
        assert grid.n_pixels == 200
        assert grid.pixel_area == pytest.approx(0.02)

    def test_centers_cover_square_symmetrically(self):
        grid = rt.Grid(16, 16, 1.2)
        c = grid.centers()
        assert c.shape == (16, 16, 2)
        assert np.allclose(c.mean(axis=(0, 1)), 0.0, atol=1e-12)

    def test_exit_points_vectorized_matches_scalar(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-0.5, 0.5, size=(30, 2))
        angs = rng.uniform(0.0, 2.0 * math.pi, size=30)
        thetas = np.stack([np.cos(angs), np.sin(angs)], axis=1)
        z, t = exit_points(GEOM_WIDE, pts, thetas)
        for i in range(30):
            ti = bisect_exit(1.2, pts[i], thetas[i])
            assert np.allclose(z[i], pts[i] + ti * thetas[i], atol=1e-10)
            assert t[i] == pytest.approx(ti, abs=1e-10)
