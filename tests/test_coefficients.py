import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

import rte_tomo as rt
from rte_tomo.coefficients import (
    _EXTENSION_FRACTION,
    TrigPoly,
    extension_profile,
    ray_absorption,
    ray_step,
)
from rte_tomo.geometry import exit_points, smooth_step

GEOM = rt.DiskGeometry(1.0, 1.2)
GRID = rt.Grid(48, 48, 1.2)


def exit_attenuation(sigma, geom, x, theta, h_ray):
    """E(x, theta) = exp(-G): ray_absorption from the exit point back along -theta."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    z, tau = exit_points(geom, x, theta)
    angle = np.array([math.atan2(theta[1], theta[0])])
    g = ray_absorption(sigma, z[None], -theta[None], np.array([tau]), h_ray, angle)
    return math.exp(-g[0])


class TestAttenuationE:
    def test_zero_absorption_is_one(self):
        sigma = rt.AbsorptionField.zero(GRID)
        h_ray = ray_step(GEOM.radius_outer)
        assert exit_attenuation(sigma, GEOM, (0.3, -0.1), (0.0, 1.0), h_ray) == 1.0

    def test_constant_from_origin(self):
        # path length from the center to the outer circle is R1
        geom = rt.DiskGeometry(0.8, 1.0)
        grid = rt.Grid(48, 48, 1.0)
        c = 0.7
        sigma = rt.AbsorptionField.constant(grid, geom, c)
        val = exit_attenuation(sigma, geom, (0.0, 0.0), (1.0, 0.0), ray_step(geom.radius_outer))
        assert val == pytest.approx(math.exp(-c), rel=1e-9)

    def test_gaussian_blob_matches_simpson(self):
        """Line integral of a smooth blob against a dense Simpson rule."""
        sigma = rt.AbsorptionField.gaussian(GRID, GEOM, 0.9, center=(0.2, -0.1),
                                            width=0.3)
        x = np.array([-0.4, 0.25])
        theta = np.array([math.cos(0.7), math.sin(0.7)])
        _, tau = exit_points(GEOM, x, theta)
        ts = np.linspace(0.0, tau, 20001)
        pts = x[None, :] + ts[:, None] * theta[None, :]
        svals = sigma.sample(pts, 0.7)
        ref = math.exp(-simpson(svals, x=ts))
        got = exit_attenuation(sigma, GEOM, x, theta, 1.2 / 2048)
        assert got == pytest.approx(ref, rel=1e-6)


class TestAbsorptionPresets:
    def test_constant_negative_rejected(self):
        with pytest.raises(ValueError):
            rt.AbsorptionField.constant(GRID, GEOM, -0.2)

    @pytest.mark.parametrize("pixel", [(24, 24), (0, 0)], ids=["centre", "corner"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf, math.inf])
    def test_nonfinite_raster_rejected(self, value, pixel):
        # The corner lies outside the extension, where the raster is tapered
        # to 0 and inf * 0 is nan.  The negative entry beside it does not
        # turn the refusal into a sign error.
        raster = np.ones((GRID.ny, GRID.nx))
        raster[20, 20] = -0.5
        raster[pixel] = value
        with pytest.raises(ValueError, match="non-finite"):
            rt.AbsorptionField.from_raster(GRID, GEOM, raster)

    def test_negative_raster_rejected(self):
        raster = np.ones((GRID.ny, GRID.nx))
        raster[24, 24] = -0.5
        with pytest.raises(ValueError, match="takes negative values"):
            rt.AbsorptionField.from_raster(GRID, GEOM, raster)
        # Rounding-sized negatives stay within the check's slack.
        raster[24, 24] = -1e-13
        rt.AbsorptionField.from_raster(GRID, GEOM, raster)

    def test_anisotropic_must_stay_nonnegative(self):
        with pytest.raises(ValueError):
            rt.AbsorptionField.cosine_anisotropic(GRID, GEOM, base=0.2,
                                                  amplitude=0.5)

    def test_anisotropic_angle_dependence(self):
        sigma = rt.AbsorptionField.cosine_anisotropic(GRID, GEOM, base=0.5,
                                                      amplitude=0.2, order=1)
        v0 = sigma.sample(np.zeros(2), 0.0)
        vpi = sigma.sample(np.zeros(2), math.pi)
        assert v0 == pytest.approx(0.7, rel=1e-12)
        assert vpi == pytest.approx(0.3, rel=1e-12)

    @staticmethod
    def _points(layout):
        """Random points plus points on the radii where the profiles switch."""
        r_end = 1.0 + _EXTENSION_FRACTION * (GEOM.radius_outer - 1.0)
        a = np.linspace(0.0, 2.0 * math.pi, 37)
        rings = [r * np.stack([np.cos(a), np.sin(a)], axis=1)
                 for r in (1.0, r_end, GEOM.radius_outer)]
        rng = np.random.default_rng(4)
        pts = np.concatenate([rng.uniform(-1.3, 1.3, (2000, 2)), *rings,
                              [[0.0, 0.0], [-0.0, 1.2], [1.2, 0.0]]])
        if layout == "columns":
            return np.stack([pts[:, 0], pts[:, 1]]).T
        return np.ascontiguousarray(pts)

    @pytest.mark.parametrize("layout", ["rows", "columns"])
    def test_profiles_match_reduction_forms_bitwise(self, layout):
        pts = self._points(layout)
        r2 = np.sum(pts * pts, axis=-1)
        inside = r2 <= GEOM.radius_outer**2
        r_end = 1.0 + _EXTENSION_FRACTION * (GEOM.radius_outer - 1.0)
        ext = smooth_step(r_end - np.linalg.norm(pts, axis=-1), r_end - 1.0)
        assert np.array_equal(extension_profile(GEOM)(pts), ext)
        assert np.any((ext > 0.0) & (ext < 1.0))
        const = rt.AbsorptionField.constant(GRID, GEOM, 0.3).modes[0].profile
        assert np.array_equal(const(pts), np.where(inside, 0.3, 0.0))
        base, aniso = (m.profile for m in rt.AbsorptionField.cosine_anisotropic(
            GRID, GEOM, base=0.5, amplitude=0.2, order=2).modes)
        assert np.array_equal(base(pts), 0.5 * inside.astype(float))
        assert np.array_equal(aniso(pts), 0.2 * inside.astype(float))

    def test_from_raster_roundtrip(self):
        rng = np.random.default_rng(0)
        raster = np.abs(rng.standard_normal((GRID.ny, GRID.nx)))
        raster *= GRID.disk_mask(GEOM.radius_inner)
        sigma = rt.AbsorptionField.from_raster(GRID, GEOM, raster)
        assert np.allclose(sigma.modes[0].raster, raster)


def _sample_points_and_angles(seed):
    """Random points over the grid square and past it, the pixel centres,
    and one random direction angle per point."""
    rng = np.random.default_rng(seed)
    pts = np.concatenate([rng.uniform(-1.4, 1.4, (256, 2)),
                          GRID.centers().reshape(-1, 2)])
    return pts, rng.uniform(-4.0 * math.pi, 4.0 * math.pi, len(pts))


# The presets take no runtime sign check: each is nonnegative by the check
# it runs on its own arguments, and these properties pin that down.
_PRESET_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                            database=None)
_SEEDS = st.integers(0, 2**32 - 1)


@_PRESET_SETTINGS
@given(base_amp=st.floats(0.0, 1e3).flatmap(
           lambda b: st.tuples(st.just(b), st.floats(-b, b))),
       order=st.integers(0, 256), seed=_SEEDS)
def test_cosine_preset_is_nonnegative(base_amp, order, seed):
    base, amplitude = base_amp
    sigma = rt.AbsorptionField.cosine_anisotropic(GRID, GEOM, base, amplitude,
                                                  order=order)
    pts, angles = _sample_points_and_angles(seed)
    assert np.all(sigma.sample(pts, angles) >= 0.0)


@_PRESET_SETTINGS
@given(value=st.floats(0.0, 1e3), seed=_SEEDS)
def test_constant_preset_is_nonnegative(value, seed):
    sigma = rt.AbsorptionField.constant(GRID, GEOM, value)
    pts, angles = _sample_points_and_angles(seed)
    assert np.all(sigma.sample(pts, angles) >= 0.0)


@_PRESET_SETTINGS
@given(amplitude=st.floats(0.0, 1e3),
       center=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       width=st.floats(1e-3, 3.0), seed=_SEEDS)
def test_gaussian_preset_is_nonnegative(amplitude, center, width, seed):
    sigma = rt.AbsorptionField.gaussian(GRID, GEOM, amplitude, center=center,
                                        width=width)
    pts, angles = _sample_points_and_angles(seed)
    assert np.all(sigma.sample(pts, angles) >= 0.0)


class TestScatteringKernel:
    def test_empty_modes_zero(self):
        k = rt.ScatteringKernel.zero(GRID)
        assert k.is_zero
        assert k.eval((0.1, 0.1), (1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_isotropic_mass_inside_disk(self):
        c = 0.8
        k = rt.ScatteringKernel.isotropic(GRID, GEOM, c)
        v = k.eval((0.1, -0.2), (1.0, 0.0), (0.0, 1.0))
        assert v == pytest.approx(c / (2.0 * math.pi), rel=1e-12)
        # taper pushes it to zero near the outer boundary
        edge = k.eval((1.19, 0.0), (1.0, 0.0), (0.0, 1.0))
        assert edge == pytest.approx(0.0, abs=1e-12)

    def test_henyey_greenstein_matches_direct_sum(self):
        """The truncated HG kernel is its own defining trig sum."""
        total, g, n_modes = 0.6, 0.4, 3
        k = rt.ScatteringKernel.henyey_greenstein(GRID, GEOM, total, g,
                                                  n_modes=n_modes)
        rng = np.random.default_rng(8)
        for _ in range(12):
            a, ap = rng.uniform(0.0, 2.0 * math.pi, size=2)
            x = rng.uniform(-0.5, 0.5, size=2)
            theta = (math.cos(a), math.sin(a))
            theta_p = (math.cos(ap), math.sin(ap))
            expect = 1.0
            for m in range(1, n_modes + 1):
                expect += 2.0 * g**m * math.cos(m * (a - ap))
            expect *= total / (2.0 * math.pi)
            got = k.eval(x, theta, theta_p)
            assert got == pytest.approx(expect, rel=1e-10)

    def test_anisotropy_bounds(self):
        with pytest.raises(ValueError):
            rt.ScatteringKernel.henyey_greenstein(GRID, GEOM, 0.5, 1.0)


class TestTrigPoly:
    def test_eval_matches_cosine_series(self):
        p = TrigPoly(cos_coef=(0.5, 0.2, 0.0, 0.1), sin_coef=(0.0, -0.3, 0.0, 0.0))
        a = np.linspace(0.0, 2.0 * math.pi, 17)
        expect = 0.5 + 0.2 * np.cos(a) - 0.3 * np.sin(a) + 0.1 * np.cos(3 * a)
        assert np.allclose(p.eval(a), expect)
