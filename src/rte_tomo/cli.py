"""Batch front-end: flat key-value configs, command dispatch, artifacts.

Every command reads one config file, writes its artifacts plus a report.txt
with norms, built-in check results, and a checksum line per artifact.  Exit
status is 0 on success, 1 on configuration problems, 2 when the transport
solve refuses or fails to converge.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import _apply_thread_cap, formats
from .coefficients import AbsorptionField, ScatteringKernel, ray_step
from .geometry import CutoffSpec, DiskGeometry, Grid, microvisible, visible_mask
from .phantoms import ConstantPhantom, DiskPhantom, GaussianPhantom, rasterize
from .tomography import (
    DENSE_MAX_PIXELS,
    DENSE_MAX_THETA,
    dense_fits,
    normal_operator_full,
    svd_injectivity,
    symbol_field,
    smoothing_diagnostic,
    visible_columns,
    wavefront_image,
)
from .transport import NonConvergenceError, TransportSolver, apply_J

# Cap on the boundary-trace quadrature cells of one direction, estimated as
# (n_bdry / 2) * (2 R1 / h_ray) for every outgoing chord, as a trace without
# a cutoff builds them; a trace under a cutoff builds only the chords where
# it is nonzero, so this full-data count bounds it too.  Building one
# direction's ragged live cells and their patch-run fold for a raster trace
# peaks near 71 bytes an estimated cell, and tracing an analytic phantom
# with a scattering source sampled at its cells near 55 (tracemalloc,
# Gaussian absorption, with or without a jump circle), so the cap keeps
# that near 150 MiB; the default h_ray = R1 / 256 at n_bdry = 256 needs
# 65536 cells.
MAX_TRACE_CELLS = 2**21

# Cap on pixel-directions nx * ny * n_theta.  The stacked rotation gathers
# and march factors keep 102 bytes per pixel-direction (the gather back has
# no rows for pixels outside the outer disk), their build peaks near 120 and
# a scattering solve near 162, so the cap keeps a solve near 650 MiB; the
# default 64x64 grid with 64 directions has 2**18.  The same cap bounds
# nx * ny * symbol.n_xi: the symbol keeps four (n_xi, N) float arrays, 32
# bytes a pixel-direction; its attenuation stack keeps three at most (exit
# times and G besides its result) and one block of
# coefficients.STACK_BLOCK_NODES lattice nodes.
# It also bounds the Henyey-Greenstein preset's scattering table,
# (2 scattering.n_modes + 1) * nx * ny floats: the solver keeps one kernel
# raster per harmonic, and each scattering product one moment per harmonic,
# pixel and source column, so the cap keeps either near 32 MiB.
MAX_PIXEL_DIRECTIONS = 2**22

# Cap on wavefront edge samples.  The edge report tests microvisibility in
# one stacked call and measures the edge responses, about 3 microseconds and
# 220 bytes (tracemalloc) an edge on a 2-CPU machine, so the cap keeps it
# near 0.2 s and 14 MiB; the default is 96.
MAX_EDGE_SAMPLES = 2**16

# Cap on absorption.order of the cosine preset.  Building and sampling the
# preset cost the same at every order (under 0.01 s to build at orders 1, 64
# and 256 on the 724x724 grid the cap above admits, 2 CPUs).  What grows
# with the order is the rounding of the argument order * phi: against a
# 200-bit reference, cos(order phi) is off by up to 1.1e-13 at order 255
# and 4.7e-7 at order 10^9 (|phi| <= 2 pi), so the cap keeps it near 1e-13.
MAX_ABSORPTION_ORDER = 256

# Bounds on scattering.total * 2 R1 and on the Henyey-Greenstein harmonics
# 2 scattering.n_modes + 1; see _validate.
MAX_SCATTERING_REACH = 1e300
MAX_KERNEL_HARMONICS = 256


class ConfigError(Exception):
    pass


def _key(key, default):
    """A RunConfig field set by the config key ``key``."""
    return field(default=default, metadata={"key": key})


@dataclass
class RunConfig:
    radius_inner: float = _key("geometry.R", 1.0)
    radius_outer: float = _key("geometry.R1", 1.2)
    nx: int = _key("grid.nx", 64)
    ny: int = _key("grid.ny", 64)
    n_theta: int = _key("grid.n_theta", 64)
    n_bdry: int = _key("grid.n_bdry", 256)
    absorption_preset: str = _key("absorption.preset", "zero")
    absorption_value: float = _key("absorption.value", 0.5)
    absorption_amplitude: float = _key("absorption.amplitude", 0.5)
    absorption_center_x: float = _key("absorption.center_x", 0.0)
    absorption_center_y: float = _key("absorption.center_y", 0.0)
    absorption_width: float = _key("absorption.width", 0.25)
    absorption_base: float = _key("absorption.base", 0.5)
    absorption_order: int = _key("absorption.order", 1)
    absorption_path: str = _key("absorption.path", "")
    scattering_preset: str = _key("scattering.preset", "zero")
    scattering_total: float = _key("scattering.total", 0.3)
    scattering_g: float = _key("scattering.g", 0.5)
    scattering_n_modes: int = _key("scattering.n_modes", 3)
    cutoff_preset: str = _key("cutoff.preset", "full")
    cutoff_arcs: str = _key("cutoff.arcs", "")
    cutoff_cones: str = _key("cutoff.cones", "")
    cutoff_transition_width: float = _key("cutoff.transition_width", 0.0)
    solver_tol: float = _key("solver.tol", 1e-10)
    solver_max_iter: int = _key("solver.max_iter", 200)
    solver_h_ray: float = _key("solver.h_ray", 0.0)
    source_preset: str = _key("source.preset", "disk")
    source_center_x: float = _key("source.center_x", 0.0)
    source_center_y: float = _key("source.center_y", 0.0)
    source_radius: float = _key("source.radius", 0.5)
    source_value: float = _key("source.value", 1.0)
    source_width: float = _key("source.width", 0.2)
    source_amplitude: float = _key("source.amplitude", 1.0)
    source_path: str = _key("source.path", "")
    output_dir: str = _key("output.dir", "out")
    seed: int = _key("run.seed", 0)
    symbol_n_xi: int = _key("symbol.n_xi", 32)
    wavefront_n_edge: int = _key("wavefront.n_edge", 96)


# Config key -> (RunConfig attribute, parser), in declaration order.
_SCHEMA = {f.metadata["key"]: (f.name, type(f.default)) for f in fields(RunConfig)}


def parse_config(text):
    """Parse and validate a flat `section.key = value` document.

    Unknown and duplicate keys, malformed lines, non-finite numbers and
    bad values are all rejected with their line number.
    """
    cfg = RunConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        seen.add(key)
        attr, conv = _SCHEMA[key]
        try:
            parsed = conv(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse '{value}' as {conv.__name__} "
                f"for '{key}'") from None
        if conv is float and not math.isfinite(parsed):
            raise ConfigError(f"line {lineno}: '{key}' must be finite, got '{value}'")
        setattr(cfg, attr, parsed)
    _validate(cfg)
    return cfg


def _validate(cfg):
    if not cfg.radius_inner < cfg.radius_outer:
        raise ConfigError(
            f"R < R1 violated: R = {cfg.radius_inner:g}, R1 = {cfg.radius_outer:g}")
    if cfg.radius_inner <= 0.0:
        raise ConfigError("geometry.R must be positive")
    for key in ("grid.nx", "grid.ny", "grid.n_theta", "grid.n_bdry", "symbol.n_xi",
                "wavefront.n_edge"):
        if getattr(cfg, _SCHEMA[key][0]) < 8:
            raise ConfigError(f"count '{key}' must be at least 8")
    if not 0.0 < cfg.solver_tol <= 1e-2:
        raise ConfigError("solver.tol must lie in (0, 1e-2]")
    if cfg.solver_max_iter < 1:
        raise ConfigError("solver.max_iter must be at least 1")
    if cfg.solver_h_ray < 0.0:
        raise ConfigError("solver.h_ray must be nonnegative (0 selects the default)")
    if cfg.cutoff_transition_width < 0.0:
        raise ConfigError("cutoff.transition_width must be nonnegative")
    if cfg.scattering_total < 0.0:
        raise ConfigError("scattering.total must be nonnegative")
    # A product K T1^{-1} x with |x| <= 1 is at most 2 pi sup|k| times the
    # longest chord 2 R1.  Every scattering preset has
    # sup|k| <= (2 n_modes + 1) total / (2 pi), and the Henyey-Greenstein
    # harmonic cap below keeps 2 n_modes + 1 <= MAX_KERNEL_HARMONICS = 256,
    # so under this bound the certificate's first product stays below
    # 256e300 and its bracket stays finite.
    reach = cfg.scattering_total * 2.0 * cfg.radius_outer
    if cfg.scattering_preset != "zero" and reach >= MAX_SCATTERING_REACH:
        raise ConfigError(
            f"scattering.total = {cfg.scattering_total:g} with geometry.R1 = "
            f"{cfg.radius_outer:g} gives scattering.total * 2 R1 = {reach:g}; it must "
            f"stay below {MAX_SCATTERING_REACH:g} so that the spectral radius "
            f"certificate cannot overflow (lower scattering.total)")
    if cfg.source_radius <= 0.0:
        raise ConfigError("source.radius must be positive")
    if cfg.seed < 0:
        raise ConfigError(f"run.seed = {cfg.seed} must be nonnegative")
    if (cfg.absorption_preset == "cosine"
            and not 0 <= cfg.absorption_order <= MAX_ABSORPTION_ORDER):
        raise ConfigError(
            f"absorption.order = {cfg.absorption_order} must lie in "
            f"[0, {MAX_ABSORPTION_ORDER}] for the cosine preset")
    for kind in ("source", "absorption"):
        if getattr(cfg, f"{kind}_preset") != "gaussian":
            continue
        width = getattr(cfg, f"{kind}_width")
        if width <= 0.0:
            raise ConfigError(f"{kind}.width must be positive for the gaussian preset")
        # A zero 2 width**2 makes the bump 0/0 = nan at its centre.
        if 2.0 * width * width == 0.0:
            raise ConfigError(
                f"{kind}.width = {width:g} is too small for the gaussian preset: "
                f"2 width**2 underflows to 0")
    pixel_directions = cfg.nx * cfg.ny * cfg.n_theta
    if pixel_directions > MAX_PIXEL_DIRECTIONS:
        raise ConfigError(
            f"grid.nx = {cfg.nx}, grid.ny = {cfg.ny} and grid.n_theta = {cfg.n_theta} "
            f"give {pixel_directions} pixel-directions; the cap is "
            f"{MAX_PIXEL_DIRECTIONS} (lower grid.nx, grid.ny or grid.n_theta)")
    pixel_covectors = cfg.symbol_n_xi * cfg.nx * cfg.ny
    if pixel_covectors > MAX_PIXEL_DIRECTIONS:
        raise ConfigError(
            f"symbol.n_xi = {cfg.symbol_n_xi} on a {cfg.nx}x{cfg.ny} grid gives "
            f"{pixel_covectors} pixel-directions; the cap is {MAX_PIXEL_DIRECTIONS} "
            f"(lower symbol.n_xi)")
    if cfg.scattering_preset == "henyey-greenstein":
        if cfg.scattering_n_modes < 0:
            raise ConfigError("scattering.n_modes must be nonnegative")
        harmonics = 2 * cfg.scattering_n_modes + 1
        if harmonics > MAX_KERNEL_HARMONICS:
            raise ConfigError(
                f"scattering.n_modes = {cfg.scattering_n_modes} gives {harmonics} "
                f"kernel harmonics (2 n_modes + 1); the cap is {MAX_KERNEL_HARMONICS} "
                f"(lower scattering.n_modes)")
        table = harmonics * cfg.nx * cfg.ny
        if table > MAX_PIXEL_DIRECTIONS:
            raise ConfigError(
                f"scattering.n_modes = {cfg.scattering_n_modes} on a {cfg.nx}x{cfg.ny} "
                f"grid gives a scattering table of {table} entries; the cap is "
                f"{MAX_PIXEL_DIRECTIONS} (lower scattering.n_modes)")
    if cfg.wavefront_n_edge > MAX_EDGE_SAMPLES:
        raise ConfigError(
            f"wavefront.n_edge = {cfg.wavefront_n_edge} is above the cap "
            f"{MAX_EDGE_SAMPLES}")
    if not _source_disk_has_pixels(cfg):
        raise ConfigError(
            f"no pixel centre of the grid.nx = {cfg.nx} by grid.ny = {cfg.ny} grid "
            f"lies inside the source disk: geometry.R = {cfg.radius_inner:g} is too "
            f"small against geometry.R1 = {cfg.radius_outer:g} (raise geometry.R, "
            f"grid.nx or grid.ny, or lower geometry.R1)")
    h_ray = ray_step(cfg.radius_outer, cfg.solver_h_ray)
    cells = 0.5 * cfg.n_bdry * 2.0 * cfg.radius_outer / h_ray
    if cells > MAX_TRACE_CELLS:
        raise ConfigError(
            f"solver.h_ray = {h_ray:g} with grid.n_bdry = {cfg.n_bdry} needs about "
            f"{cells:.3g} boundary-trace cells per direction; the cap is "
            f"{MAX_TRACE_CELLS} (raise solver.h_ray or lower grid.n_bdry)")


def _source_disk_has_pixels(cfg):
    """Whether a pixel centre lies strictly inside the source disk.

    Works in units of R1, where the centres sit at (2i + 1)/n - 1 for
    i < n along each axis and the disk has radius R/R1 < 1, so nothing
    overflows.  The centre nearest 0 is at 0 for odd n and 1/n for even n.
    """
    def nearest_sq(n):
        return 0.0 if n % 2 else (1.0 / n) ** 2

    ratio = cfg.radius_inner / cfg.radius_outer
    return nearest_sq(cfg.nx) + nearest_sq(cfg.ny) < ratio * ratio


# ---------------------------------------------------------------------------
# object construction from a validated config
# ---------------------------------------------------------------------------


def build_geometry(cfg):
    return DiskGeometry(radius_inner=cfg.radius_inner, radius_outer=cfg.radius_outer)


def build_grid(cfg):
    return Grid(nx=cfg.nx, ny=cfg.ny, half_width=cfg.radius_outer)


# Config keys whose values a coefficient preset checks when it is built.
_COEFFICIENT_KEYS = {
    ("absorption", "constant"): "absorption.value",
    ("absorption", "gaussian"): "absorption.amplitude",
    ("absorption", "cosine"): "absorption.amplitude' and 'absorption.base",
    ("absorption", "csv"): "absorption.path",
    ("scattering", "henyey-greenstein"): "scattering.g",
}


def _coefficient_error(kind, preset, exc):
    key = _COEFFICIENT_KEYS.get((kind, preset), f"{kind}.preset")
    return ConfigError(f"'{key}' rejected by the {preset} {kind} preset: {exc}")


def build_absorption(cfg, grid, geom):
    preset = cfg.absorption_preset
    try:
        if preset == "zero":
            return AbsorptionField.zero(grid)
        if preset == "constant":
            return AbsorptionField.constant(grid, geom, cfg.absorption_value)
        if preset == "gaussian":
            return AbsorptionField.gaussian(
                grid, geom, cfg.absorption_amplitude,
                center=(cfg.absorption_center_x, cfg.absorption_center_y),
                width=cfg.absorption_width)
        if preset == "cosine":
            return AbsorptionField.cosine_anisotropic(
                grid, geom, cfg.absorption_base, cfg.absorption_amplitude,
                order=cfg.absorption_order)
        if preset == "csv":
            path = _existing_path("absorption.path", cfg.absorption_path)
            raster, radius = formats.read_grid_csv(path)
            _check_csv_grid("absorption.path", raster, radius, grid, geom)
            return AbsorptionField.from_raster(grid, geom, raster)
    except ValueError as exc:
        raise _coefficient_error("absorption", preset, exc) from None
    raise ConfigError(f"'absorption.preset': unknown preset '{preset}'")


def build_scattering(cfg, grid, geom):
    preset = cfg.scattering_preset
    try:
        if preset == "zero":
            return ScatteringKernel.zero(grid)
        if preset == "isotropic":
            return ScatteringKernel.isotropic(grid, geom, cfg.scattering_total)
        if preset == "henyey-greenstein":
            return ScatteringKernel.henyey_greenstein(
                grid, geom, cfg.scattering_total, cfg.scattering_g,
                n_modes=cfg.scattering_n_modes)
    except ValueError as exc:
        raise _coefficient_error("scattering", preset, exc) from None
    raise ConfigError(f"'scattering.preset': unknown preset '{preset}'")


def _parse_float_list(text, what):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(float(tok))
        except ValueError:
            raise ConfigError(f"cannot parse {what} entry '{tok}'") from None
    return out


def build_cutoff(cfg):
    preset = cfg.cutoff_preset
    if preset == "full":
        return CutoffSpec.full_data()
    if preset == "empty":
        return CutoffSpec.empty()
    if preset != "arcs":
        raise ConfigError(f"'cutoff.preset': unknown preset '{preset}'")
    arcs = []
    for tok in cfg.cutoff_arcs.split(","):
        tok = tok.strip()
        if not tok:
            continue
        lo, sep, hi = tok.partition(":")
        if not sep:
            raise ConfigError(f"'cutoff.arcs' entry '{tok}' must look like 'start:end'")
        try:
            arcs.append((float(lo), float(hi)))
        except ValueError:
            raise ConfigError(f"cannot parse 'cutoff.arcs' entry '{tok}'") from None
    if not arcs:
        raise ConfigError("cutoff.preset = arcs requires cutoff.arcs")
    cones = _parse_float_list(cfg.cutoff_cones, "cutoff.cones") or None
    try:
        return CutoffSpec.from_arcs(arcs, cones=cones,
                                    transition_width=cfg.cutoff_transition_width)
    except ValueError as exc:
        raise ConfigError(f"'cutoff.arcs' and 'cutoff.cones' rejected: {exc}") from None


def build_source(cfg, grid, geom):
    """The phantom of the disk and constant presets, or the raster of the
    gaussian and csv presets."""
    preset = cfg.source_preset
    if preset == "disk":
        c = (cfg.source_center_x, cfg.source_center_y)
        if math.hypot(*c) + cfg.source_radius > geom.radius_inner:
            raise ConfigError(
                f"the disk source ('source.center_x', 'source.center_y', "
                f"'source.radius') = ({c[0]:g}, {c[1]:g}, {cfg.source_radius:g}) "
                f"reaches outside the source region (geometry.R = "
                f"{geom.radius_inner:g})")
        return DiskPhantom(center=c, radius=cfg.source_radius, value=cfg.source_value)
    if preset == "constant":
        if cfg.source_radius > geom.radius_inner:
            raise ConfigError(
                f"the constant source with 'source.radius' = {cfg.source_radius:g} "
                f"reaches outside the source region (geometry.R = "
                f"{geom.radius_inner:g})")
        return ConstantPhantom(radius=cfg.source_radius, value=cfg.source_value)
    if preset == "gaussian":
        phantom = GaussianPhantom(center=(cfg.source_center_x, cfg.source_center_y),
                                  width=cfg.source_width,
                                  amplitude=cfg.source_amplitude)
        return rasterize(phantom, grid, geom)
    if preset == "csv":
        try:
            path = _existing_path("source.path", cfg.source_path)
            raster, radius = formats.read_grid_csv(path)
        except ValueError as exc:
            raise ConfigError(f"'source.path' is not a grid CSV: {exc}") from None
        _check_csv_grid("source.path", raster, radius, grid, geom)
        return raster * grid.disk_mask(geom.radius_inner)
    raise ConfigError(f"'source.preset': unknown preset '{preset}'")


def _check_csv_grid(key, raster, radius, grid, geom):
    """Refuse a grid CSV whose header radius is not geometry.R1 or whose
    raster is not grid.ny by grid.nx."""
    if not abs(radius - geom.radius_outer) <= 1e-12 * geom.radius_outer:
        raise ConfigError(f"'{key}' holds a grid for R1 = {radius!r}, but "
                          f"geometry.R1 = {geom.radius_outer!r}")
    if raster.shape != (grid.ny, grid.nx):
        raise ConfigError(f"'{key}' holds a {raster.shape[1]}x{raster.shape[0]} grid, "
                          f"but grid.nx = {grid.nx} and grid.ny = {grid.ny}")


def _existing_path(key, text):
    if not text:
        raise ConfigError(f"'{key}' is required but empty")
    path = Path(text)
    if not path.is_file():
        raise ConfigError(f"'{key}': file not found: {text}")
    return path


def _make_solver(cfg):
    geom = build_geometry(cfg)
    grid = build_grid(cfg)
    return TransportSolver(geom=geom, grid=grid,
                           sigma=build_absorption(cfg, grid, geom),
                           kernel=build_scattering(cfg, grid, geom),
                           n_theta=cfg.n_theta, n_bdry=cfg.n_bdry,
                           h_ray=cfg.solver_h_ray, tol=cfg.solver_tol,
                           max_iter=cfg.solver_max_iter)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


class Report:
    def __init__(self, out_dir, command, config_path):
        self.out = Path(out_dir)
        self.lines = [f"command = {command}", f"config = {config_path}"]
        self.artifacts = []

    def line(self, text):
        self.lines.append(text)

    def value(self, name, val):
        if isinstance(val, float):
            self.lines.append(f"{name} = {formats.fmt(val)}")
        else:
            self.lines.append(f"{name} = {val}")

    def check(self, name, ok):
        self.lines.append(f"check {name} = {'PASS' if ok else 'FAIL'}")

    def _path(self, name):
        """A file in the output directory, which is created on first use so
        that a config error raised by a command leaves no directory."""
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / name

    def artifact(self, name):
        path = self._path(name)
        self.artifacts.append(path)
        return path

    def solve_report(self, rep):
        self.value("iterations", rep.iterations)
        self.value("converged", rep.converged)
        self.certificate(rep)
        for i, res in enumerate(rep.residual_history):
            self.value(f"residual[{i}]", res)

    def certificate(self, rep):
        """The spectral radius bound (upper end) and how it was obtained."""
        cert = rep.certificate
        self.value("spectral_radius_estimate", cert.upper)
        self.value("certificate", cert.method)
        self.value("certificate_applications", cert.applications)
        if cert.lower is not None:
            self.value("spectral_radius_lower", cert.lower)

    def write(self):
        path = self._path("report.txt")
        with open(path, "w", newline="\n") as fh:
            for line in self.lines:
                fh.write(line + "\n")
            for art in self.artifacts:
                extras = [art]
                meta = Path(str(art) + ".meta")
                if meta.exists():
                    extras.append(meta)
                for p in extras:
                    fh.write(f"artifact {p.name} sha256 {formats.sha256_file(p)}\n")
        return path


def _raster_norm(raster, grid):
    return math.sqrt(grid.pixel_area * float(np.sum(np.asarray(raster) ** 2)))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_forward(cfg, rep):
    solver = _make_solver(cfg)
    field, srep = solver.solve(build_source(cfg, solver.grid, solver.geom))
    rep.solve_report(srep)
    rep.value("field_phase_norm", field.norm())
    bd = solver.trace_field(field)
    rep.value("trace_norm", bd.norm())
    rep.check("trace_zero_on_incoming",
              bool(np.all(bd.values[~solver.bgrid.outgoing] == 0.0)))
    formats.write_pgm(rep.artifact("field_mean.pgm"), field.values.mean(axis=0))
    formats.write_boundary_csv(rep.artifact("trace.csv"), bd)
    return 0


def _cmd_measure(cfg, rep):
    solver = _make_solver(cfg)
    source = build_source(cfg, solver.grid, solver.geom)
    spec = build_cutoff(cfg)
    bd, srep = solver.measurement(spec, source)
    rep.solve_report(srep)
    rep.value("measurement_norm", bd.norm())
    rep.check("measurement_zero_on_incoming",
              bool(np.all(bd.values[~solver.bgrid.outgoing] == 0.0)))
    formats.write_boundary_csv(rep.artifact("measurement.csv"), bd)
    return 0


def _cmd_normal(cfg, rep):
    solver = _make_solver(cfg)
    source = build_source(cfg, solver.grid, solver.geom)
    spec = build_cutoff(cfg)
    image = normal_operator_full(solver, spec, source)
    remainder = _raster_norm(image.scattering_remainder, solver.grid)
    rep.value("normal_image_norm", _raster_norm(image.values, solver.grid))
    rep.line(f"L_V remainder norm = {formats.fmt(remainder)}")
    if solver.kernel.is_zero:
        rep.check("remainder_vanishes_without_scattering", remainder <= 1e-14)
    formats.write_grid_csv(rep.artifact("normal.csv"), image.values,
                           cfg.radius_outer)
    formats.write_pgm(rep.artifact("normal.pgm"), image.values)
    formats.write_pgm(rep.artifact("gradient.pgm"), image.gradient_magnitude)
    return 0


def _cmd_visible_set(cfg, rep):
    geom = build_geometry(cfg)
    grid = build_grid(cfg)
    spec = build_cutoff(cfg)
    mask = visible_mask(spec, geom, grid, n_theta=cfg.n_theta)
    omega = grid.disk_mask(geom.radius_inner)
    rep.value("visible_pixels", int(mask.count))
    rep.value("source_region_pixels", int(omega.sum()))
    rep.check("visible_inside_source_region",
              bool(np.all(~mask.visible | omega)))
    formats.write_pgm(rep.artifact("visible.pgm"), mask.visible.astype(float))
    return 0


def _cmd_symbol(cfg, rep):
    geom = build_geometry(cfg)
    grid = build_grid(cfg)
    spec = build_cutoff(cfg)
    sigma = build_absorption(cfg, grid, geom)
    field = symbol_field(spec, sigma, geom, grid, n_xi=cfg.symbol_n_xi)
    bmin = field.values.min(axis=0)
    rep.value("symbol_min", float(field.values.min()))
    rep.value("symbol_max", float(field.values.max()))
    rep.check("symbol_nonnegative", bool(np.all(field.values >= 0.0)))
    formats.write_grid_csv(rep.artifact("symbol_min.csv"), bmin, cfg.radius_outer)
    formats.write_pgm(rep.artifact("symbol_min.pgm"), bmin)
    return 0


def _cmd_svd(cfg, rep):
    solver = _make_solver(cfg)
    if not dense_fits(solver):
        raise ConfigError(
            f"svd assembles a dense matrix, at most {DENSE_MAX_PIXELS} pixels and "
            f"{DENSE_MAX_THETA} directions; grid.nx = {cfg.nx}, grid.ny = {cfg.ny} and "
            f"grid.n_theta = {cfg.n_theta} exceed that (lower them)")
    spec = build_cutoff(cfg)
    mask = visible_mask(spec, solver.geom, solver.grid, n_theta=cfg.n_theta)
    if len(visible_columns(solver, mask)) == 0:
        raise ConfigError(
            f"'cutoff.preset', 'cutoff.arcs' and 'cutoff.cones' leave no visible pixel "
            f"once svd erodes the visible set by two pixels (cutoff.preset = "
            f"{cfg.cutoff_preset}; widen cutoff.arcs or cutoff.cones)")
    sv, si, op_vis = svd_injectivity(solver, spec, mask)
    rep.value("sigma_min_visible", sv)
    rep.value("sigma_min_invisible", si)
    rep.value("ratio", sv / max(si, 1e-14))
    rng = np.random.default_rng(cfg.seed)
    fvec = rng.standard_normal(op_vis.cols)
    hvec = rng.standard_normal(op_vis.rows)
    lhs = float(np.sum(op_vis.apply(fvec) * hvec * op_vis.row_weights))
    rhs = float(np.sum(fvec * op_vis.apply_adjoint(hvec) * op_vis.col_weights))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    rep.check("weighted_adjoint_identity", abs(lhs - rhs) <= 1e-12 * scale)
    formats.write_operator(rep.artifact("operator_visible.rteop"), op_vis)
    return 0


def _cmd_wavefront(cfg, rep):
    solver = _make_solver(cfg)
    phantom = build_source(cfg, solver.grid, solver.geom)
    if not callable(phantom):
        raise ConfigError(
            f"'source.preset' = {cfg.source_preset}: wavefront requires a "
            f"piecewise-constant source preset (disk or constant)")
    spec = build_cutoff(cfg)
    # No microvisible edge means no visible response to compare with: refuse
    # before the image is built.
    pts, normals, jumps = phantom.edge_points(cfg.wavefront_n_edge)
    visible = microvisible(spec, solver.geom, pts, normals)
    if not np.any(visible):
        raise ConfigError(
            f"'cutoff.arcs' and 'cutoff.cones' leave 0 of {len(pts)} source edges "
            f"microvisible, so no edge can respond visibly and the response ratio "
            f"is undefined (widen cutoff.arcs or cutoff.cones)")
    image, edges = wavefront_image(solver, spec, phantom, (pts, normals, jumps),
                                   visible)
    if not math.isfinite(edges.response_ratio):
        raise ConfigError(
            f"'cutoff.arcs' and 'cutoff.cones' leave {int(edges.visible.sum())} of "
            f"{len(edges.strengths)} source edges microvisible, with a median "
            f"response of 0 while a shadowed edge responds, so the response ratio "
            f"is undefined (widen cutoff.arcs or cutoff.cones)")
    rep.value("edges_total", len(edges.strengths))
    rep.value("edges_visible", int(edges.visible.sum()))
    rep.value("median_visible_strength", edges.median_visible)
    rep.value("max_invisible_strength", edges.max_invisible)
    rep.value("response_ratio", edges.response_ratio)
    rep.check("edge_strengths_finite",
              bool(np.all(np.isfinite(edges.strengths))))
    formats.write_grid_csv(rep.artifact("wavefront.csv"), image.values,
                           cfg.radius_outer)
    formats.write_pgm(rep.artifact("wavefront.pgm"), image.values)
    formats.write_pgm(rep.artifact("gradient.pgm"), image.gradient_magnitude)
    return 0


def _cmd_smoothing(cfg, rep):
    solver = _make_solver(cfg)
    grid, geom = solver.grid, solver.geom
    rng = np.random.default_rng(cfg.seed)
    noise = rng.standard_normal((grid.ny, grid.nx))
    noise *= grid.disk_mask(geom.radius_inner)
    rough = apply_J(noise, grid, n_theta=cfg.n_theta)
    before, after = smoothing_diagnostic(solver, rough)
    rep.value("high_freq_fraction_before", before)
    rep.value("high_freq_fraction_after", after)
    if not solver.kernel.is_zero:
        rep.check("smoothing_reduces_high_frequencies", after < before)
    return 0


_DISPATCH = {
    "forward": _cmd_forward,
    "measure": _cmd_measure,
    "normal": _cmd_normal,
    "visible-set": _cmd_visible_set,
    "symbol": _cmd_symbol,
    "svd": _cmd_svd,
    "wavefront": _cmd_wavefront,
    "smoothing": _cmd_smoothing,
}


def run_command(command, cfg, config_path="<config>"):
    """Dispatch one command; returns the process exit status."""
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command '{command}'")
    rep = Report(cfg.output_dir, command, config_path)
    try:
        status = _DISPATCH[command](cfg, rep)
    except NonConvergenceError as exc:
        rep.value("converged", False)
        rep.certificate(exc.report)
        rep.line(f"error = {exc}")
        rep.write()
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 2
    rep.write()
    return status


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def main(argv=None):
    parser = _Parser(prog="rte-tomo",
                     description="Transport tomography batch commands")
    parser.add_argument("command", choices=tuple(_DISPATCH))
    parser.add_argument("--config", required=True, help="path to a config file")
    parser.add_argument("--out", help="output directory (overrides output.dir)")
    try:
        args = parser.parse_args(argv)
        _apply_thread_cap()
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        cfg = parse_config(text)
        if args.out:
            cfg.output_dir = args.out
        return run_command(args.command, cfg, config_path=args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
