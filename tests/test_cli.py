"""End-to-end tests of the batch command line front end.

Each command runs on a deliberately small problem (24 pixels per side,
16 directions) so the whole module stays in smoke-test territory while
still writing real artifacts through the real dispatch path.
"""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rte_tomo import cli, formats, geometry, tomography
from rte_tomo.cli import ConfigError, parse_config, run_command
from rte_tomo.geometry import Grid
from rte_tomo.phantoms import DiskPhantom

TINY = """
geometry.R = 1.0
geometry.R1 = 1.2
grid.nx = 24
grid.ny = 24
grid.n_theta = 16
grid.n_bdry = 64
"""

HALF_ARC = """
cutoff.preset = arcs
cutoff.arcs = 0:3.141592653589793
cutoff.transition_width = 0.5
"""


def launch(tmp_path, command, text, out_name="out", use_out_flag=True):
    """Write a config file and run `rte-tomo command` against it."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    out_dir = tmp_path / out_name
    argv = [command, "--config", str(cfg_path)]
    if use_out_flag:
        argv += ["--out", str(out_dir)]
    code = cli.main(argv)
    return code, out_dir


def read_report(out_dir):
    lines = (out_dir / "report.txt").read_text().splitlines()
    values = {}
    for ln in lines:
        if ln.startswith("artifact "):
            continue
        key, sep, val = ln.partition(" = ")
        if sep:
            values[key] = val
    return lines, values


class TestParseConfig:
    def test_empty_text_yields_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.nx == 64
        assert cfg.ny == 64
        assert cfg.n_theta == 64
        assert cfg.n_bdry == 256
        assert cfg.solver_tol == 1e-10
        assert cfg.radius_inner == 1.0
        assert cfg.radius_outer == 1.2
        assert cfg.seed == 0
        assert cfg.output_dir == "out"

    def test_comments_and_blank_lines_are_skipped(self):
        cfg = parse_config("# leading comment\n\ngrid.nx = 32  # trailing\n")
        assert cfg.nx == 32
        assert cfg.ny == 64

    def test_radii_out_of_order(self):
        with pytest.raises(ConfigError,
                           match=re.escape("R < R1 violated: R = 1.5, R1 = 1")):
            parse_config("geometry.R = 1.5\ngeometry.R1 = 1.0\n")

    def test_duplicate_key_names_key_and_line(self):
        with pytest.raises(ConfigError,
                           match=re.escape("line 2: duplicate key 'grid.nx'")):
            parse_config("grid.nx = 16\ngrid.nx = 24\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError,
                           match=re.escape("line 1: unknown key 'grid.nz'")):
            parse_config("grid.nz = 16\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError,
                           match=re.escape("line 3: expected 'key = value'")):
            parse_config("\n# fine\njust words\n")

    def test_unparseable_value_reports_type_and_key(self):
        msg = "line 1: cannot parse 'lots' as int for 'grid.nx'"
        with pytest.raises(ConfigError, match=re.escape(msg)):
            parse_config("grid.nx = lots\n")

    def test_counts_below_eight_rejected(self):
        with pytest.raises(ConfigError,
                           match=re.escape("count 'grid.nx' must be at least 8")):
            parse_config("grid.nx = 4\n")
        with pytest.raises(ConfigError,
                           match=re.escape("count 'grid.n_bdry' must be at least 8")):
            parse_config("grid.n_bdry = 7\n")

    def test_tolerance_window(self):
        with pytest.raises(ConfigError, match=r"solver\.tol"):
            parse_config("solver.tol = 0.5\n")
        with pytest.raises(ConfigError, match=r"solver\.tol"):
            parse_config("solver.tol = 0\n")
        assert parse_config("solver.tol = 1e-2\n").solver_tol == 1e-2

    def test_max_iter_and_h_ray_bounds(self):
        with pytest.raises(ConfigError, match="max_iter"):
            parse_config("solver.max_iter = 0\n")
        with pytest.raises(ConfigError, match="h_ray"):
            parse_config("solver.h_ray = -0.1\n")

    def test_nonpositive_inner_radius(self):
        with pytest.raises(ConfigError, match="must be positive"):
            parse_config("geometry.R = -1.0\ngeometry.R1 = 1.0\n")

    def test_negative_transition_width(self):
        with pytest.raises(ConfigError, match="transition_width"):
            parse_config("cutoff.transition_width = -0.5\n")

    @pytest.mark.parametrize("text, message", [
        ("absorption.value = inf\n", "line 1: 'absorption.value' must be finite"),
        ("grid.nx = 16\nabsorption.value = nan\n",
         "line 2: 'absorption.value' must be finite"),
        ("source.center_x = -inf\n", "line 1: 'source.center_x' must be finite"),
        ("scattering.total = -0.5\n", "scattering.total must be nonnegative"),
        ("source.radius = -0.2\n", "source.radius must be positive"),
        ("source.radius = 0\n", "source.radius must be positive"),
        ("solver.h_ray = 1e-9\n",
         "solver.h_ray = 1e-09 with grid.n_bdry = 256 needs about 3.07e+11"),
        ("grid.n_bdry = 100000\n",
         "solver.h_ray = 0.0046875 with grid.n_bdry = 100000 needs about"),
        ("source.preset = gaussian\nsource.width = 0\n",
         "source.width must be positive for the gaussian preset"),
        ("absorption.preset = gaussian\nabsorption.width = -0.1\n",
         "absorption.width must be positive for the gaussian preset"),
        # Found by the symbol fuzzer: a nan at the bump's centre pixel.
        ("absorption.preset = gaussian\nabsorption.width = 5e-324\n",
         "absorption.width = 4.94066e-324 is too small for the gaussian preset"),
        ("source.preset = gaussian\nsource.width = 1e-170\n",
         "source.width = 1e-170 is too small for the gaussian preset"),
        ("grid.nx = 1024\ngrid.ny = 512\n",
         "grid.nx = 1024, grid.ny = 512 and grid.n_theta = 64 give 33554432 "
         "pixel-directions; the cap is 4194304"),
        ("symbol.n_xi = 1000000\n",
         "symbol.n_xi = 1000000 on a 64x64 grid gives 4096000000 pixel-directions; "
         "the cap is 4194304 (lower symbol.n_xi)"),
        ("wavefront.n_edge = 1000000000\n",
         "wavefront.n_edge = 1000000000 is above the cap 65536"),
        # Found by the forward fuzzer: the kernel build exhausted memory.
        ("scattering.preset = henyey-greenstein\nscattering.n_modes = 1000000\n",
         "scattering.n_modes = 1000000 gives 2000001 kernel harmonics (2 n_modes + 1); "
         "the cap is 256 (lower scattering.n_modes)"),
        ("scattering.preset = henyey-greenstein\nscattering.n_modes = 127\n"
         "grid.nx = 256\ngrid.ny = 256\ngrid.n_theta = 8\n",
         "scattering.n_modes = 127 on a 256x256 grid gives a scattering table of "
         "16711680 entries; the cap is 4194304 (lower scattering.n_modes)"),
        ("scattering.preset = henyey-greenstein\nscattering.n_modes = -1\n",
         "scattering.n_modes must be nonnegative"),
        ("geometry.R = 0.01\ngrid.nx = 8\ngrid.ny = 8\n",
         "no pixel centre of the grid.nx = 8 by grid.ny = 8 grid lies inside the "
         "source disk: geometry.R = 0.01 is too small against geometry.R1 = 1.2"),
        # The certificate's first product overflowed: "spectral radius is at
        # least inf".
        ("geometry.R = 99\ngeometry.R1 = 100\ngrid.nx = 8\ngrid.ny = 8\n"
         "scattering.preset = isotropic\nscattering.total = 1e307\n",
         "scattering.total = 1e+307 with geometry.R1 = 100 gives scattering.total "
         "* 2 R1 = inf; it must stay below 1e+300"),
        # smoothing and svd raised ValueError from np.random.default_rng.
        ("run.seed = -1\n", "run.seed = -1 must be nonnegative"),
        # The sign check builds one raster at each of 4 order + 9 angles.
        ("absorption.preset = cosine\nabsorption.order = 1000000000\n",
         "absorption.order = 1000000000 must lie in [0, 256] for the cosine preset"),
    ], ids=["inf", "nan", "minus-inf", "negative-scattering", "negative-radius",
            "zero-radius", "tiny-ray-step", "huge-boundary-count",
            "zero-source-width", "negative-absorption-width",
            "subnormal-absorption-width", "tiny-source-width", "huge-phase-space",
            "huge-symbol-directions", "huge-edge-count", "huge-hg-mode-count",
            "huge-hg-table", "negative-hg-mode-count", "no-source-pixel",
            "huge-scattering-total", "negative-seed", "huge-absorption-order"])
    def test_bad_values_rejected(self, text, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)

    def test_hg_mode_caps(self):
        # The table holds 2 n_modes + 1 floats a pixel: 33 * 4096 at n = 16.
        hg = "scattering.preset = henyey-greenstein\n"
        assert parse_config(hg + "scattering.n_modes = 16\n").scattering_n_modes == 16
        assert parse_config(hg + "scattering.n_modes = 127\n").scattering_n_modes == 127
        with pytest.raises(ConfigError, match=re.escape("gives 257 kernel harmonics")):
            parse_config(hg + "scattering.n_modes = 128\n")


class TestExitCodes:
    def test_config_error_exits_one(self, tmp_path, capsys):
        code, _ = launch(tmp_path, "forward",
                         "geometry.R = 1.5\ngeometry.R1 = 1.0\n")
        assert code == 1
        assert "config error:" in capsys.readouterr().err

    def test_infinite_absorption_exits_one(self, tmp_path, capsys):
        text = TINY + "absorption.preset = constant\nabsorption.value = inf\n"
        code, out_dir = launch(tmp_path, "measure", text)
        assert code == 1
        assert "'absorption.value' must be finite" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("text, message", [
        ("scattering.preset = henyey-greenstein\nscattering.g = 1.5\n",
         "'scattering.g' rejected by the henyey-greenstein scattering preset"),
        ("absorption.preset = constant\nabsorption.value = -1\n",
         "'absorption.value' rejected by the constant absorption preset"),
        ("absorption.preset = gaussian\nabsorption.amplitude = -0.2\n",
         "'absorption.amplitude' rejected by the gaussian absorption preset"),
        ("absorption.preset = cosine\nabsorption.base = 0.2\n"
         "absorption.amplitude = 0.5\n",
         "'absorption.amplitude' and 'absorption.base' rejected by the cosine"),
    ], ids=["hg-anisotropy", "negative-constant", "negative-gaussian",
            "cosine-above-base"])
    def test_bad_coefficient_exits_one(self, tmp_path, capsys, text, message):
        code, _ = launch(tmp_path, "measure", TINY + text)
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["source", "absorption"])
    def test_malformed_grid_csv_exits_one(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad.csv"
        bad.write_text("24,24\n0,1\n")
        text = TINY + f"{kind}.preset = csv\n{kind}.path = {bad}\n"
        code, _ = launch(tmp_path, "forward", text)
        assert code == 1
        err = capsys.readouterr().err
        assert f"'{kind}.path'" in err
        assert "malformed grid CSV header" in err

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    @pytest.mark.parametrize("command, kind", [
        ("forward", "source"), ("forward", "absorption"), ("symbol", "absorption"),
    ])
    def test_nonfinite_grid_csv_exits_one(self, tmp_path, capsys, command, kind,
                                          value):
        # The absorption sign check cannot see nan or -inf and the source
        # disk mask keeps nan, so the CSV reader is where they must stop.
        raster = np.ones((24, 24))
        raster[5, 7] = float(value)
        bad = tmp_path / "bad.csv"
        formats.write_grid_csv(bad, raster, 1.2)
        text = TINY + f"{kind}.preset = csv\n{kind}.path = {bad}\n"
        code, out_dir = launch(tmp_path, command, text)
        assert code == 1
        err = capsys.readouterr().err
        assert f"'{kind}.path'" in err
        assert "non-finite" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_negative_absorption_csv_exits_one(self, tmp_path, capsys):
        raster = np.ones((24, 24))
        raster[12, 12] = -0.5
        bad = tmp_path / "negative.csv"
        formats.write_grid_csv(bad, raster, 1.2)
        text = TINY + f"absorption.preset = csv\nabsorption.path = {bad}\n"
        code, out_dir = launch(tmp_path, "forward", text)
        assert code == 1
        err = capsys.readouterr().err
        assert "'absorption.path' rejected by the csv absorption preset" in err
        assert "takes negative values" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind", ["source", "absorption"])
    def test_grid_csv_for_another_disk_exits_one(self, tmp_path, capsys, kind):
        grid_csv = tmp_path / "grid.csv"
        formats.write_grid_csv(grid_csv, np.full((24, 24), 0.5), 1.3)
        text = TINY + f"{kind}.preset = csv\n{kind}.path = {grid_csv}\n"
        code, out_dir = launch(tmp_path, "forward", text)
        assert code == 1
        err = capsys.readouterr().err
        assert f"'{kind}.path'" in err
        assert "R1 = 1.3" in err
        assert not out_dir.exists()
        # The same grid written for this disk is accepted.
        formats.write_grid_csv(grid_csv, np.full((24, 24), 0.5), 1.2)
        code, out_dir = launch(tmp_path, "forward", text)
        assert code == 0
        assert (out_dir / "report.txt").exists()

    @pytest.mark.parametrize("kind", ["source", "absorption"])
    def test_grid_csv_of_another_size_exits_one(self, tmp_path, capsys, kind):
        grid_csv = tmp_path / "grid.csv"
        formats.write_grid_csv(grid_csv, np.full((20, 24), 0.5), 1.2)
        text = TINY + f"{kind}.preset = csv\n{kind}.path = {grid_csv}\n"
        code, out_dir = launch(tmp_path, "forward", text)
        assert code == 1
        err = capsys.readouterr().err
        assert f"'{kind}.path' holds a 24x20 grid, but grid.nx = 24" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind", ["source", "absorption"])
    def test_missing_grid_csv_names_its_key(self, tmp_path, capsys, kind):
        for path, message in (("", "is required but empty"),
                              (tmp_path / "absent.csv", "file not found")):
            text = TINY + f"{kind}.preset = csv\n{kind}.path = {path}\n"
            code, _ = launch(tmp_path, "forward", text)
            assert code == 1
            err = capsys.readouterr().err
            assert f"'{kind}.path'" in err and message in err

    def test_missing_config_flag_exits_one(self, capsys):
        assert cli.main(["forward"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_unknown_command_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY)
        assert cli.main(["reconstruct", "--config", str(cfg_path)]) == 1
        capsys.readouterr()

    def test_unreadable_config_exits_one(self, tmp_path, capsys):
        assert cli.main(["forward", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_nonconvergent_solver_exits_two(self, tmp_path, capsys):
        text = TINY + "scattering.preset = isotropic\nscattering.total = 12.0\n"
        code, out_dir = launch(tmp_path, "forward", text)
        assert code == 2
        assert "solver did not converge" in capsys.readouterr().err
        lines, values = read_report(out_dir)
        assert values["converged"] == "False"
        assert float(values["spectral_radius_estimate"]) > 1.0
        assert any(ln.startswith("error = ") for ln in lines)

    def test_huge_negative_kernel_gives_finite_estimate(self, tmp_path, capsys):
        # Henyey-Greenstein at g = 0.9 is negative on the discrete grid, so
        # the power-iteration fallback runs; each product is about 1e299
        # times its input, so squaring one overflows, yet the estimate must
        # stay finite.
        text = ("geometry.R = 1.0\ngeometry.R1 = 1.2\ngrid.nx = 8\ngrid.ny = 8\n"
                "grid.n_theta = 8\ngrid.n_bdry = 16\n"
                "scattering.preset = henyey-greenstein\nscattering.g = 0.9\n"
                "scattering.total = 1e299\n")
        code, out_dir = launch(tmp_path, "forward", text)
        assert code == 2
        assert "refusing" in capsys.readouterr().err
        _, values = read_report(out_dir)
        assert values["certificate"] == "power-iteration"
        assert 1.0 < float(values["spectral_radius_estimate"]) < math.inf

    @pytest.mark.parametrize("command", ["symbol", "forward"])
    def test_gaussian_centre_far_off_grid(self, tmp_path, command):
        # (x - 1e300)**2 overflows; both bumps are exactly 0 on the grid.
        text = ("geometry.R = 1.0\ngeometry.R1 = 1.2\ngrid.nx = 8\ngrid.ny = 8\n"
                "grid.n_theta = 8\ngrid.n_bdry = 16\n"
                "absorption.preset = gaussian\nabsorption.center_x = 1e300\n"
                "source.preset = gaussian\nsource.center_x = 1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out_dir = launch(tmp_path, command, text)
        assert code == 0
        report = (out_dir / "report.txt").read_text()
        assert not re.search(r"\b(?:nan|inf)\b", report)

    def test_svd_above_dense_cap_exits_one(self, tmp_path, capsys):
        # The default 64x64 grid fails the same way; this refusal came as a
        # ValueError traceback from svd_injectivity.
        text = ("grid.nx = 40\ngrid.ny = 40\ngrid.n_theta = 8\ngrid.n_bdry = 16\n"
                "scattering.preset = isotropic\nscattering.total = 0.5\n")
        code, out_dir = launch(tmp_path, "svd", text)
        assert code == 1
        err = capsys.readouterr().err
        assert "grid.nx = 40, grid.ny = 40 and grid.n_theta = 8" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("cutoff", [
        "cutoff.preset = arcs\ncutoff.arcs = 0:0.3\n",
        "cutoff.preset = empty\n",
    ], ids=["narrow-arc", "empty-preset"])
    def test_svd_with_empty_eroded_support_exits_one(self, tmp_path, capsys, cutoff):
        text = "grid.nx = 12\ngrid.ny = 12\ngrid.n_theta = 8\n" + cutoff
        code, out_dir = launch(tmp_path, "svd", text)
        assert code == 1
        err = capsys.readouterr().err
        assert "'cutoff.preset', 'cutoff.arcs' and 'cutoff.cones' leave no visible" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, text", [
        ("wavefront", TINY + "cutoff.preset = arcs\ncutoff.arcs = 0:0.3\n"
                             "cutoff.cones = 0.1\n"),
        ("forward", TINY + "source.preset = csv\n"),
    ], ids=["wavefront-no-visible-edge", "forward-csv-without-path"])
    def test_command_config_error_leaves_no_directory(self, tmp_path, capsys,
                                                      command, text):
        code, out_dir = launch(tmp_path, command, text)
        assert code == 1
        assert "config error:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_run_command_rejects_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown command"):
            run_command("sharpen", parse_config(""))


def artifact_digests(lines):
    out = {}
    for ln in lines:
        m = re.fullmatch(r"artifact (\S+) sha256 ([0-9a-f]{64})", ln)
        if m:
            out[m.group(1)] = m.group(2)
    return out


def check_recorded_checksums(out_dir):
    """Every non-report file must appear in report.txt with its real hash."""
    lines, _ = read_report(out_dir)
    recorded = artifact_digests(lines)
    on_disk = {p.name for p in out_dir.iterdir()} - {"report.txt"}
    assert recorded.keys() == on_disk
    for name, digest in recorded.items():
        assert formats.sha256_file(out_dir / name) == digest
    return recorded


class TestForwardCommand:
    def test_writes_field_and_trace(self, tmp_path):
        code, out_dir = launch(tmp_path, "forward", TINY)
        assert code == 0
        lines, values = read_report(out_dir)
        assert values["command"] == "forward"
        assert values["iterations"] == "1"
        assert float(values["field_phase_norm"]) > 0.0
        assert "check trace_zero_on_incoming = PASS" in lines
        recorded = check_recorded_checksums(out_dir)
        assert {"field_mean.pgm", "field_mean.pgm.meta",
                "trace.csv"} <= recorded.keys()
        beta, theta, weights, vals = formats.read_boundary_csv(
            out_dir / "trace.csv")
        assert vals.shape == (64 * 16,)
        assert np.all(np.isfinite(vals))

    def test_gaussian_source_takes_raster_path(self, tmp_path):
        text = TINY + "source.preset = gaussian\nsource.width = 0.3\n"
        code, out_dir = launch(tmp_path, "forward", text)
        assert code == 0
        _, values = read_report(out_dir)
        assert float(values["trace_norm"]) > 0.0

    def test_oversized_disk_source_is_a_config_error(self, tmp_path, capsys):
        text = TINY + "source.radius = 0.9\nsource.center_x = 0.5\n"
        code, _ = launch(tmp_path, "forward", text)
        assert code == 1
        err = capsys.readouterr().err
        assert "reaches outside the source region" in err
        for key in ("'source.center_x'", "'source.center_y'", "'source.radius'"):
            assert key in err


    @pytest.mark.parametrize("scattering, code, method", [
        ("isotropic\nscattering.total = 0.5", 0, "collatz-wielandt"),
        ("isotropic\nscattering.total = 12.0", 2, "collatz-wielandt"),
        ("henyey-greenstein\nscattering.total = 0.5\nscattering.g = 0.9", 0,
         "power-iteration"),
        ("zero", 0, "none"),
    ], ids=["bracket", "proven-refusal", "power-fallback", "zero-kernel"])
    def test_report_states_the_certificate(self, tmp_path, capsys, scattering,
                                           code, method):
        text = TINY + f"scattering.preset = {scattering}\n"
        status, out_dir = launch(tmp_path, "forward", text)
        capsys.readouterr()
        assert status == code
        lines, values = read_report(out_dir)
        assert values["certificate"] == method
        upper = float(values["spectral_radius_estimate"])
        applications = int(values["certificate_applications"])
        if method == "collatz-wielandt":
            lower = float(values["spectral_radius_lower"])
            assert 0.0 < lower <= upper
            if code == 0:
                assert upper - lower <= 1e-9 * upper
                assert applications <= 30
            else:
                assert lower >= 1.0 and applications == 1
        else:
            assert "spectral_radius_lower" not in values
            assert applications == (60 if method == "power-iteration" else 0)
        assert not any("nan" in ln for ln in lines)


class TestMeasureCommand:
    def test_partial_data_measurement(self, tmp_path):
        code, out_dir = launch(tmp_path, "measure", TINY + HALF_ARC)
        assert code == 0
        lines, values = read_report(out_dir)
        assert float(values["measurement_norm"]) > 0.0
        assert "check measurement_zero_on_incoming = PASS" in lines
        check_recorded_checksums(out_dir)
        beta, theta, weights, vals = formats.read_boundary_csv(
            out_dir / "measurement.csv")
        assert vals.shape == (64 * 16,)
        assert np.all(vals[weights == 0.0] == 0.0)

    def test_empty_cutoff_measures_zero(self, tmp_path):
        code, out_dir = launch(tmp_path, "measure",
                               TINY + "cutoff.preset = empty\n")
        assert code == 0
        _, values = read_report(out_dir)
        assert float(values["measurement_norm"]) == 0.0


class TestNormalCommand:
    def test_remainder_line_is_zero_without_scattering(self, tmp_path):
        code, out_dir = launch(tmp_path, "normal", TINY + HALF_ARC)
        assert code == 0
        lines, values = read_report(out_dir)
        assert "L_V remainder norm = 0" in lines
        assert "check remainder_vanishes_without_scattering = PASS" in lines
        assert float(values["normal_image_norm"]) > 0.0
        recorded = check_recorded_checksums(out_dir)
        assert {"normal.csv", "normal.pgm", "gradient.pgm"} <= recorded.keys()
        raster, r1 = formats.read_grid_csv(out_dir / "normal.csv")
        assert raster.shape == (24, 24)
        assert r1 == 1.2

    def test_scattering_produces_nonzero_remainder(self, tmp_path):
        text = (TINY + HALF_ARC
                + "scattering.preset = isotropic\nscattering.total = 0.6\n")
        code, out_dir = launch(tmp_path, "normal", text)
        assert code == 0
        lines, _ = read_report(out_dir)
        row = next(ln for ln in lines if ln.startswith("L_V remainder norm = "))
        assert float(row.rpartition("= ")[2]) > 0.0
        assert not any("remainder_vanishes" in ln for ln in lines)


class TestVisibleSetCommand:
    def test_full_data_mask_is_white_inside_source_disk(self, tmp_path):
        code, out_dir = launch(tmp_path, "visible-set", TINY)
        assert code == 0
        lines, values = read_report(out_dir)
        assert values["visible_pixels"] == values["source_region_pixels"]
        assert "check visible_inside_source_region = PASS" in lines
        raster, (lo, hi) = formats.read_pgm(out_dir / "visible.pgm")
        omega = Grid(24, 24, 1.2).disk_mask(1.0)
        assert (lo, hi) == (0.0, 1.0)
        assert np.all(raster[omega] == 255)
        assert np.all(raster[~omega] == 0)

    def test_quarter_arc_sees_less(self, tmp_path):
        text = TINY + "cutoff.preset = arcs\ncutoff.arcs = 0:1.5707963\n"
        code, out_dir = launch(tmp_path, "visible-set", text)
        assert code == 0
        _, values = read_report(out_dir)
        assert int(values["visible_pixels"]) < int(values["source_region_pixels"])


class TestSymbolCommand:
    def test_full_data_symbol_tops_out_at_four_pi(self, tmp_path):
        code, out_dir = launch(tmp_path, "symbol", TINY + "symbol.n_xi = 16\n")
        assert code == 0
        lines, values = read_report(out_dir)
        assert "check symbol_nonnegative = PASS" in lines
        assert float(values["symbol_max"]) == pytest.approx(4.0 * math.pi,
                                                            rel=1e-12)
        assert float(values["symbol_min"]) == 0.0
        check_recorded_checksums(out_dir)

    def test_empty_cutoff_symbol_vanishes(self, tmp_path):
        text = TINY + "cutoff.preset = empty\nsymbol.n_xi = 8\n"
        code, out_dir = launch(tmp_path, "symbol", text)
        assert code == 0
        _, values = read_report(out_dir)
        assert float(values["symbol_max"]) == 0.0


class TestSvdCommand:
    def test_half_circle_report_and_operator_file(self, tmp_path):
        text = (TINY + HALF_ARC
                + "absorption.preset = constant\nabsorption.value = 0.3\n")
        code, out_dir = launch(tmp_path, "svd", text)
        assert code == 0
        lines, values = read_report(out_dir)
        sv = float(values["sigma_min_visible"])
        si = float(values["sigma_min_invisible"])
        ratio = float(values["ratio"])
        assert sv > 0.0
        assert ratio == pytest.approx(sv / max(si, 1e-14), rel=1e-12)
        assert ratio > 1.0
        assert "check weighted_adjoint_identity = PASS" in lines
        check_recorded_checksums(out_dir)
        op = formats.read_operator(out_dir / "operator_visible.rteop")
        assert op.rows == 64 * 16
        assert 0 < op.cols < 24 * 24
        assert op.matrix.shape == (op.rows, op.cols)


class TestWavefrontCommand:
    def test_full_data_disk_edges_all_respond(self, tmp_path):
        text = TINY + "wavefront.n_edge = 12\n"
        code, out_dir = launch(tmp_path, "wavefront", text)
        assert code == 0
        lines, values = read_report(out_dir)
        assert values["edges_total"] == "12"
        assert values["edges_visible"] == "12"
        assert float(values["median_visible_strength"]) > 0.0
        assert float(values["max_invisible_strength"]) == 0.0
        assert float(values["response_ratio"]) == 0.0
        assert "check edge_strengths_finite = PASS" in lines
        recorded = check_recorded_checksums(out_dir)
        assert {"wavefront.csv", "wavefront.pgm",
                "gradient.pgm"} <= recorded.keys()

    def test_smooth_source_is_rejected(self, tmp_path, capsys):
        text = TINY + "source.preset = gaussian\nwavefront.n_edge = 8\n"
        code, _ = launch(tmp_path, "wavefront", text)
        assert code == 1
        err = capsys.readouterr().err
        assert "piecewise-constant source" in err
        assert "'source.preset'" in err

    def test_no_responding_visible_edge_is_a_config_error(self, tmp_path, capsys):
        # This cone lets no edge of the disk source be microvisible, while
        # the image still responds at shadowed edges; the report said
        # response_ratio = inf at exit 0.
        text = ("grid.nx = 12\ngrid.ny = 12\ngrid.n_theta = 8\n"
                "cutoff.preset = arcs\ncutoff.arcs = 0:0.3\ncutoff.cones = 0.1\n")
        code, _ = launch(tmp_path, "wavefront", text)
        assert code == 1
        err = capsys.readouterr().err
        assert "'cutoff.arcs' and 'cutoff.cones' leave 0 of 96 source edges" in err

    def test_no_microvisible_edge_is_refused_before_the_image(self, tmp_path, capsys,
                                                              monkeypatch):
        def image_built(*args, **kwargs):
            raise RuntimeError("wavefront_image ran")

        monkeypatch.setattr(cli, "wavefront_image", image_built)
        text = ("grid.nx = 12\ngrid.ny = 12\ngrid.n_theta = 8\nwavefront.n_edge = 40\n"
                "cutoff.preset = arcs\ncutoff.arcs = 0:0.3\ncutoff.cones = 0.1\n")
        code, out_dir = launch(tmp_path, "wavefront", text)
        assert code == 1
        err = capsys.readouterr().err
        assert "'cutoff.arcs' and 'cutoff.cones' leave 0 of 40 source edges" in err
        assert not out_dir.exists()


    def test_edges_and_their_visibility_are_found_once(self, tmp_path, monkeypatch):
        calls = {"edge_points": 0, "microvisible": 0}
        edge_points = DiskPhantom.edge_points
        microvisible = geometry.microvisible

        def counted_edges(phantom, n):
            calls["edge_points"] += 1
            return edge_points(phantom, n)

        def counted_visible(*args):
            calls["microvisible"] += 1
            return microvisible(*args)

        monkeypatch.setattr(DiskPhantom, "edge_points", counted_edges)
        # Every module that bound microvisible at import time.
        for mod in (cli, geometry, tomography):
            if getattr(mod, "microvisible", None) is microvisible:
                monkeypatch.setattr(mod, "microvisible", counted_visible)
        code, _ = launch(tmp_path, "wavefront", TINY + "wavefront.n_edge = 12\n")
        assert code == 0
        assert calls == {"edge_points": 1, "microvisible": 1}


class TestSmoothingCommand:
    def test_scattering_damps_high_frequencies(self, tmp_path):
        text = (TINY.replace("24", "32")
                + "scattering.preset = isotropic\nscattering.total = 0.5\n")
        code, out_dir = launch(tmp_path, "smoothing", text)
        assert code == 0
        lines, values = read_report(out_dir)
        before = float(values["high_freq_fraction_before"])
        after = float(values["high_freq_fraction_after"])
        assert after < before
        assert "check smoothing_reduces_high_frequencies = PASS" in lines


class TestDeterminism:
    def test_identical_config_gives_byte_identical_artifacts(self, tmp_path):
        text = (TINY + HALF_ARC
                + "absorption.preset = constant\nabsorption.value = 0.3\n")
        _, first = launch(tmp_path, "normal", text, out_name="run_a")
        _, second = launch(tmp_path, "normal", text, out_name="run_b")
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestOutputPlumbing:
    def test_config_output_dir_used_without_flag(self, tmp_path):
        target = tmp_path / "from_config"
        text = TINY + f"output.dir = {target}\n"
        code, _ = launch(tmp_path, "visible-set", text, use_out_flag=False)
        assert code == 0
        assert (target / "report.txt").is_file()

    def test_thread_cap_env_propagates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RTE_TOMO_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        launch(tmp_path, "visible-set", TINY)
        assert os.environ["OMP_NUM_THREADS"] == "3"

    def test_thread_cap_reaches_blas(self):
        probe = """
import ctypes, glob, pathlib
import rte_tomo.cli
import numpy
libdir = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
count = -1
for path in sorted(glob.glob(str(libdir / "*openblas*"))):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None and count < 0:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            count = int(fn())
print(count)
"""
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")}
        env["RTE_TOMO_THREADS"] = "1"
        src = str(Path(cli.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        count = int(done.stdout.split()[-1])
        if count < 0:
            pytest.skip("numpy does not bundle OpenBLAS here")
        assert count == 1

    def test_thread_cap_zero_means_auto(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RTE_TOMO_THREADS", "0")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        launch(tmp_path, "visible-set", TINY)
        assert "OMP_NUM_THREADS" not in os.environ


def _run_python(probe, *args):
    """Run a Python snippet in a fresh process with this package on its path."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, timeout=120)


# Runs one command and prints the scipy modules it left loaded; "blocked"
# makes any scipy import fail.
SCIPY_PROBE = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
import rte_tomo.cli
status = rte_tomo.cli.main(sys.argv[2:])
print(" ".join(sorted(m for m in sys.modules
                      if m.split(".")[0] == "scipy" and sys.modules[m] is not None)))
sys.exit(status)
"""


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        done = _run_python("import sys, rte_tomo.cli\n"
                           "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", ["visible-set", "symbol"])
    def test_command_runs_without_scipy(self, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY + HALF_ARC, encoding="utf-8")
        outs = []
        for mode in ("blocked", "open"):
            out = tmp_path / mode
            done = _run_python(SCIPY_PROBE, mode, command, "--config", str(cfg),
                               "--out", str(out))
            assert done.returncode == 0, done.stderr
            assert done.stdout.strip() == ""
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert "report.txt" in names
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_normal_loads_no_ndimage_or_special(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY + HALF_ARC, encoding="utf-8")
        done = _run_python(SCIPY_PROBE, "open", "normal", "--config", str(cfg),
                           "--out", str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        loaded = done.stdout.split()
        assert "scipy.sparse" in loaded
        assert not any(m.startswith(("scipy.ndimage", "scipy.special")) for m in loaded)
