"""Acceptance suite: ten end-to-end checks at fixed desk-scale configurations.

Every test prints one `criterion N: PASS/FAIL` line (visible with -s or on
failure) and then asserts, so the verbose pytest listing carries exactly one
pass/fail verdict per criterion.  Tolerances are part of the contract and are
not to be loosened; configurations are frozen where the margin was measured.
"""

import math

import numpy as np
from scipy import ndimage

import rte_tomo as rt
from rte_tomo import cli
from rte_tomo.geometry import cutoff_extended_values, rotate90, smooth_step
from rte_tomo.transport import BoundaryData, PhaseSpaceField, TransportSolver

GEOM = rt.DiskGeometry(1.0, 1.2)


def verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def scaled_isotropic(grid, geom, solver_args, target_rho):
    """Isotropic kernel whose power-iteration spectral radius hits a target.

    The estimate is exactly linear in the kernel total, so one calibration
    solve at total 1 fixes the scale.
    """
    probe = rt.ScatteringKernel.isotropic(grid, geom, 1.0)
    rho_one = TransportSolver(GEOM, grid, solver_args["sigma"], probe,
                              n_theta=solver_args["n_theta"],
                              n_bdry=solver_args["n_bdry"]).spectral_radius()
    return rt.ScatteringKernel.isotropic(grid, geom, target_rho / rho_one)


def band_limited_source(grid, geom, rng, tapered):
    c = grid.centers()
    x, y = c[..., 0], c[..., 1]
    f = np.zeros((grid.ny, grid.nx))
    for _ in range(6):
        kx, ky = rng.uniform(-3, 3, 2)
        f += rng.standard_normal() * np.cos(kx * x + ky * y + rng.uniform(0, 6))
    if tapered:
        r = np.hypot(x, y)
        f *= smooth_step(geom.radius_inner - r, 0.25)
    return f * grid.disk_mask(geom.radius_inner)


def boundary_harmonics(bg, rng, max_order):
    h = np.zeros((bg.n_bdry, bg.n_theta))
    for _ in range(5):
        a, b = rng.integers(1, max_order + 1, 2)
        h += rng.standard_normal() * np.cos(a * bg.angles[:, None]
                                            + b * bg.theta_angles[None, :]
                                            + rng.uniform(0, 6))
    return np.where(bg.outgoing, h, 0.0)


def test_criterion_01_adjoint_identity():
    grid = rt.Grid(48, 48, 1.2)
    sigma = rt.AbsorptionField.gaussian(grid, GEOM, 0.7, center=(-0.1, 0.2),
                                        width=0.35)

    # Matched discretization: the adjoint is the measure-weighted transpose
    # of the same truncated-series operator, so the pairing gap is pure
    # floating-point noise.
    kernel = rt.ScatteringKernel.isotropic(grid, GEOM, 0.4)
    spec = rt.CutoffSpec.from_arcs([(0.3, 2.4), (3.5, 5.9)],
                                   transition_width=0.2)
    solver = TransportSolver(GEOM, grid, sigma, kernel, n_theta=32, n_bdry=256)
    bg = solver.bgrid
    omega = grid.disk_mask(GEOM.radius_inner).reshape(-1, 1)
    n_terms = 6
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        f = rng.standard_normal((grid.n_pixels, 1)) * omega
        h = rng.standard_normal((bg.n_bdry, bg.n_theta, 1))
        h *= bg.outgoing[..., None]
        lhs = float(np.sum(solver.xv_apply(f, spec, n_terms)
                           * h * bg.measure[..., None]))
        rhs = float(np.sum(f * solver.xv_transpose(h * bg.measure[..., None],
                                                   spec, n_terms)))
        nf = math.sqrt(grid.pixel_area * float(np.sum(f * f)))
        nh = math.sqrt(float(np.sum(h * h * bg.measure[..., None])))
        worst = max(worst, abs(lhs - rhs) / (nf * nh))
    ok_exact = worst <= 1e-12

    # Independent discretizations: chord quadrature forward against the
    # pixelwise backprojection sum, agreeing only to discretization error.
    # The defect is normalized by the norm product, same convention as the
    # exact-transpose clause; pairing-relative error is meaningless when a
    # random pair happens to be nearly orthogonal.
    spec_soft = rt.CutoffSpec.from_arcs([(0.3, 2.4), (3.5, 5.9)],
                                        transition_width=0.5)
    solver0 = TransportSolver(GEOM, grid, sigma, None, n_theta=32, n_bdry=512)
    rng = np.random.default_rng(7)
    worst_ind = 0.0
    for _ in range(10):
        f = band_limited_source(grid, GEOM, rng, tapered=True)
        h = boundary_harmonics(solver0.bgrid, rng, max_order=2)
        fwd = rt.ray_transform(solver0, spec_soft, f)
        hb = BoundaryData(bgrid=solver0.bgrid, values=h)
        back = rt.adjoint_ray_transform(spec_soft, sigma, GEOM, hb, step=grid.hx / 4)
        lhs = fwd.dot(hb)
        rhs = grid.pixel_area * float(np.sum(f * back))
        nf = math.sqrt(grid.pixel_area * float(np.sum(f * f)))
        worst_ind = max(worst_ind, abs(lhs - rhs) / (nf * hb.norm()))
    ok_ind = worst_ind <= 1e-3

    verdict(1, ok_exact and ok_ind,
            f"weighted transpose {worst:.2e} (tol 1e-12), "
            f"independent quadratures {worst_ind:.2e} (tol 1e-3)")


def test_criterion_02_ballistic_measurement_consistency():
    grid = rt.Grid(32, 32, 1.2)
    sigma = rt.AbsorptionField.gaussian(grid, GEOM, 0.5, center=(0.1, -0.2),
                                        width=0.4)
    spec = rt.CutoffSpec.full_data()
    rng = np.random.default_rng(2)
    f = band_limited_source(grid, GEOM, rng, tapered=False)

    solver = TransportSolver(GEOM, grid, sigma, rt.ScatteringKernel.zero(grid),
                             n_theta=16, n_bdry=64)
    measured, _ = solver.measurement(spec, f=f)
    direct = rt.ray_transform(solver, spec, f)
    floor = 0.01 * np.abs(direct.values).max()
    bs, qs = np.nonzero(direct.values > floor)
    pick = rng.choice(len(bs), size=20, replace=False)
    rel = np.abs(measured.values[bs[pick], qs[pick]]
                 - direct.values[bs[pick], qs[pick]])
    rel /= np.abs(direct.values[bs[pick], qs[pick]])
    ok_rays = float(rel.max()) <= 1e-8

    # Disk of radius r seen along a diameter: chord length 2r without
    # attenuation, and (e^{-c(R1-r)} - e^{-c(R1+r)})/c with constant c.
    ph = rt.DiskPhantom(radius=0.5, value=1.0)
    bd0 = rt.ray_transform(TransportSolver(GEOM, grid, n_theta=16, n_bdry=64),
                           spec, phantom=ph)
    bd1 = rt.ray_transform(
        TransportSolver(GEOM, grid, rt.AbsorptionField.constant(grid, GEOM, 1.0),
                        n_theta=16, n_bdry=64),
        spec, phantom=ph)
    exact = (math.exp(-1.0 * (1.2 - 0.5)) - math.exp(-1.0 * (1.2 + 0.5))) / 1.0
    err0 = abs(float(bd0.values[0, 0]) - 1.0)
    err1 = abs(float(bd1.values[0, 0]) - exact)
    ok_exact = err0 <= 1e-6 and err1 <= 1e-6

    verdict(2, ok_rays and ok_exact,
            f"20 rays worst rel {float(rel.max()):.2e} (tol 1e-8), "
            f"diameter errors {err0:.1e}/{err1:.1e} (tol 1e-6)")


def test_criterion_03_scattering_series_convergence(tmp_path):
    grid = rt.Grid(32, 32, 1.2)
    sigma = rt.AbsorptionField.constant(grid, GEOM, 0.3)
    kernel = scaled_isotropic(grid, GEOM,
                              dict(sigma=sigma, n_theta=16, n_bdry=64),
                              target_rho=0.5)
    solver = TransportSolver(GEOM, grid, sigma, kernel, n_theta=16, n_bdry=64,
                             tol=1e-12, max_iter=100)
    c = grid.centers()
    f = np.exp(-4.0 * (c[..., 0] ** 2 + c[..., 1] ** 2))
    f *= grid.disk_mask(GEOM.radius_inner)
    _, report = solver.solve(f=f)
    res = np.asarray(report.residual_history, dtype=float)
    rho = report.spectral_radius_estimate
    fitted = float((res[-1] / res[2]) ** (1.0 / (len(res) - 3)))
    ok_fit = report.converged and abs(fitted - rho) <= 0.1 * rho

    # Supercritical scaling must be refused with exit status 2.
    probe = rt.ScatteringKernel.isotropic(rt.Grid(24, 24, 1.2), GEOM, 1.0)
    rho_one = TransportSolver(GEOM, rt.Grid(24, 24, 1.2),
                              rt.AbsorptionField.zero(rt.Grid(24, 24, 1.2)),
                              probe, n_theta=16, n_bdry=64).spectral_radius()
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("geometry.R = 1.0\ngeometry.R1 = 1.2\n"
                   "grid.nx = 24\ngrid.ny = 24\n"
                   "grid.n_theta = 16\ngrid.n_bdry = 64\n"
                   "scattering.preset = isotropic\n"
                   f"scattering.total = {1.2 / rho_one}\n")
    code = cli.main(["forward", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    ok_exit = code == 2

    verdict(3, ok_fit and ok_exit,
            f"fitted ratio {fitted:.4f} vs estimate {rho:.4f} (tol 10%), "
            f"supercritical exit code {code} (want 2)")


def test_criterion_04_symbol_positivity_matches_microvisibility():
    grid = rt.Grid(48, 48, 1.2)
    sigma = rt.AbsorptionField.gaussian(grid, GEOM, 0.7, center=(-0.1, 0.2),
                                        width=0.35)
    hard = rt.CutoffSpec.from_arcs([(0.3, 2.4), (3.5, 5.9)])
    soft = rt.CutoffSpec.from_arcs([(0.3, 2.4), (3.5, 5.9)],
                                   transition_width=0.3)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.7, 0.7, (10000, 2))
    angles = rng.uniform(0.0, 2.0 * math.pi, len(pts))
    xis = np.array([[math.cos(a), math.sin(a)] for a in angles])
    hard_visible = rt.microvisible(hard, GEOM, pts, xis)
    soft_visible = rt.microvisible(soft, GEOM, pts, xis)
    hard_b0 = rt.principal_symbol(hard, sigma, GEOM, pts, xis)
    soft_b0 = rt.principal_symbol(soft, sigma, GEOM, pts, xis)
    hard_bad = int(np.count_nonzero((hard_b0 > 0.0) != hard_visible))
    soft_in_band = 0
    soft_off_band = 0
    for i in np.flatnonzero((soft_b0 > 0.0) != soft_visible):
        # A smooth cutoff may disagree where an exit sits so deep in the
        # rolloff tail that squaring underflows; such samples must lie
        # strictly inside a transition band.
        p, perp = pts[i], rotate90(xis[i])
        cp = float(cutoff_extended_values(soft, GEOM, p[None, :],
                                          perp[None, :])[0])
        cm = float(cutoff_extended_values(soft, GEOM, p[None, :],
                                          -perp[None, :])[0])
        if 0.0 < cp < 1.0 or 0.0 < cm < 1.0:
            soft_in_band += 1
        else:
            soft_off_band += 1
    verdict(4, hard_bad == 0 and soft_off_band == 0,
            f"hard cutoff disagreements {hard_bad}/10000 (want 0), smooth "
            f"cutoff off-band {soft_off_band} (want 0, {soft_in_band} in band)")


def test_criterion_05_arc_hulls_lie_in_the_visible_set():
    grid = rt.Grid(64, 64, 1.2)
    rng = np.random.default_rng(5)
    worst = 0
    for _ in range(5):
        arcs = []
        for _ in range(int(rng.integers(1, 4))):
            start = float(rng.uniform(0.0, 2.0 * math.pi))
            arcs.append((start, start + float(rng.uniform(0.6, 2.2))))
        spec = rt.CutoffSpec.from_arcs(arcs)
        hull = rt.convex_hull_mask(spec, GEOM, grid).visible
        hull &= grid.disk_mask(GEOM.radius_inner)
        visible = rt.visible_mask(spec, GEOM, grid, n_theta=64).visible
        core = ndimage.binary_erosion(hull, iterations=2)
        worst = max(worst, int(np.count_nonzero(core & ~visible)))
    verdict(5, worst == 0,
            f"core violations across 5 arc draws: {worst} (want 0, "
            "2-pixel boundary band excluded)")


def test_criterion_06_visible_singular_values_dominate():
    grid = rt.Grid(24, 24, 1.2)
    sigma = rt.AbsorptionField.constant(grid, GEOM, 0.3)
    spec = rt.CutoffSpec.from_arcs([(-math.pi / 2, math.pi / 2)])
    kernel = scaled_isotropic(grid, GEOM,
                              dict(sigma=sigma, n_theta=16, n_bdry=128),
                              target_rho=0.3)
    solver = TransportSolver(GEOM, grid, sigma, kernel, n_theta=16, n_bdry=128)
    mask = rt.visible_mask(spec, GEOM, grid, n_theta=64)
    sv, si, _ = rt.svd_injectivity(solver, spec, mask)
    ratio = sv / max(si, 1e-14)
    verdict(6, sv > 0.0 and ratio >= 10.0,
            f"sigma_min visible {sv:.3e}, shadow {si:.3e}, "
            f"ratio {ratio:.1f} (want >= 10)")


def test_criterion_07_normal_operator_paths_cross_validate():
    # Independent singular-kernel quadrature against forward-then-adjoint.
    grid = rt.Grid(64, 64, 1.2)
    sigma0 = rt.AbsorptionField.zero(grid)
    full = rt.CutoffSpec.full_data()
    c = grid.centers()
    f = np.exp(-4.0 * ((c[..., 0] - 0.2) ** 2 + c[..., 1] ** 2))
    f *= smooth_step(GEOM.radius_inner - np.hypot(c[..., 0], c[..., 1]), 0.25)
    f *= grid.disk_mask(GEOM.radius_inner)
    direct = rt.normal_operator_kernel(full, sigma0, GEOM, f)
    fwd = rt.ray_transform(TransportSolver(GEOM, grid, sigma0, n_theta=64, n_bdry=512),
                           full, f)
    composed = rt.adjoint_ray_transform(full, sigma0, GEOM, fwd)
    mask = grid.disk_mask(GEOM.radius_inner)
    rel_kernel = float(np.linalg.norm((direct - composed)[mask])
                       / np.linalg.norm(composed[mask]))

    # Assembled-matrix path against the iterative application.
    grid24 = rt.Grid(24, 24, 1.2)
    sigma = rt.AbsorptionField.gaussian(grid24, GEOM, 0.6, center=(0.1, 0.1),
                                        width=0.3)
    kernel = rt.ScatteringKernel.isotropic(grid24, GEOM, 0.3)
    spec = rt.CutoffSpec.from_arcs([(-math.pi / 2, math.pi / 2)])
    f24 = rt.rasterize(rt.DiskPhantom(radius=0.45), grid24, GEOM)
    solver = TransportSolver(GEOM, grid24, sigma, kernel, n_theta=16, n_bdry=64)
    im_mat = rt.normal_operator_full(solver, spec, f24, method="matrix")
    im_it = rt.normal_operator_full(solver, spec, f24, method="iterative")
    rel_paths = float(np.linalg.norm(im_mat.values - im_it.values)
                      / np.linalg.norm(im_mat.values))

    verdict(7, rel_kernel < 0.02 and rel_paths <= 1e-8,
            f"kernel vs composition {rel_kernel:.2%} (tol 2%), "
            f"matrix vs iterative {rel_paths:.2e} (tol 1e-8)")


def test_criterion_08_pairing_reproduces_image_samples():
    grid = rt.Grid(24, 24, 1.2)
    sigma = rt.AbsorptionField.gaussian(grid, GEOM, 0.6, center=(0.1, 0.1),
                                        width=0.3)
    kernel = rt.ScatteringKernel.isotropic(grid, GEOM, 0.3)
    spec = rt.CutoffSpec.from_arcs([(-math.pi / 2, math.pi / 2)])
    f = rt.rasterize(rt.DiskPhantom(radius=0.45), grid, GEOM)
    solver = TransportSolver(GEOM, grid, sigma, kernel, n_theta=16, n_bdry=64)
    image = rt.normal_operator_full(solver, spec, f, method="iterative")
    worst = 0.0
    for pix in ((12, 12), (10, 14), (14, 9)):
        paired = rt.point_source_pairing(solver, spec, f, pix)
        sample = float(image.values[pix])
        worst = max(worst, abs(paired - sample) / abs(sample))
    verdict(8, worst <= 1e-8,
            f"worst pixel rel deviation {worst:.2e} (tol 1e-8)")


def test_criterion_09_one_scattering_pass_smooths_noise():
    grid = rt.Grid(64, 64, 1.2)
    sigma = rt.AbsorptionField.constant(grid, GEOM, 0.3)
    kernel = rt.ScatteringKernel.isotropic(grid, GEOM, 0.5)
    n_theta = 16
    angles = 2.0 * math.pi * np.arange(n_theta) / n_theta
    rng = np.random.default_rng(7)
    noise = rng.standard_normal((n_theta, 64, 64))
    noise *= grid.disk_mask(GEOM.radius_inner)[None]
    rough = PhaseSpaceField(grid, angles, noise)
    solver = TransportSolver(GEOM, grid, sigma, kernel, n_theta=n_theta, n_bdry=8)
    before, after = rt.smoothing_diagnostic(solver, rough)
    verdict(9, after <= 0.5 * before,
            f"high-frequency fraction {before:.4f} -> {after:.4f} "
            f"({before / max(after, 1e-30):.2f}x, want >= 2x)")


def test_criterion_10_shadowed_edges_stay_quiet():
    grid = rt.Grid(48, 48, 1.2)
    sigma = rt.AbsorptionField.constant(grid, GEOM, 0.3)
    spec = rt.CutoffSpec.from_arcs([(-math.pi / 2, math.pi / 2)],
                                   transition_width=0.5)
    kernel = scaled_isotropic(grid, GEOM,
                              dict(sigma=sigma, n_theta=64, n_bdry=256),
                              target_rho=0.15)
    solver = TransportSolver(GEOM, grid, sigma, kernel, n_theta=64, n_bdry=256)
    rho = solver.spectral_radius()
    ph = rt.DiskPhantom(radius=0.5, value=1.0)
    _, edges = rt.wavefront_image(solver, spec, ph, n_edge=72)
    min_visible = float(edges.strengths[edges.visible].min())
    ok = (rho < 1.0 and min_visible > 0.0
          and edges.response_ratio <= 0.2)
    verdict(10, ok,
            f"rho {rho:.3f} (< 1), visible floor {min_visible:.4f} (> 0), "
            f"shadow/median ratio {edges.response_ratio:.4f} (tol 0.2)")
