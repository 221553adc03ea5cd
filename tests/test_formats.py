"""Artifact format round-trips and bit-exactness."""

import hashlib
import math

import numpy as np
import pytest

from rte_tomo.formats import (
    read_boundary_csv,
    read_grid_csv,
    read_operator,
    read_pgm,
    sha256_file,
    write_boundary_csv,
    write_grid_csv,
    write_operator,
    write_pgm,
)
from rte_tomo.geometry import DiskGeometry
from rte_tomo.tomography import OperatorMatrix
from rte_tomo.transport import BoundaryData, BoundaryGrid


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        raster = rng.standard_normal((5, 7))
        path = tmp_path / "grid.csv"
        write_grid_csv(path, raster, 1.2)
        back, r1 = read_grid_csv(path)
        np.testing.assert_array_equal(back, raster)
        assert r1 == 1.2

    def test_header_line(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_grid_csv(path, np.zeros((3, 4)), 1.2)
        head = path.read_text().splitlines()[0]
        assert head == "4,3,1.2"

    def test_seventeen_digits_survive(self, tmp_path):
        value = 1.0 + 2.0 ** -50
        path = tmp_path / "grid.csv"
        write_grid_csv(path, np.full((2, 2), value), 1.2)
        back, _ = read_grid_csv(path)
        assert back[0, 0] == value

    def test_body_shape_mismatch_is_detected(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("3,2,1.2\n0,0,0\n")
        with pytest.raises(ValueError, match="does not match its header"):
            read_grid_csv(path)

    def test_rewrites_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        raster = rng.standard_normal((6, 6))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_grid_csv(a, raster, 1.2)
        write_grid_csv(b, raster.copy(), 1.2)
        assert a.read_bytes() == b.read_bytes()


class TestBoundaryCsv:
    def test_round_trip_columns(self, tmp_path):
        geom = DiskGeometry(1.0, 1.2)
        bg = BoundaryGrid(geom, 8, 8)
        rng = np.random.default_rng(2)
        bd = BoundaryData(bgrid=bg, values=rng.standard_normal((8, 8)))
        path = tmp_path / "boundary.csv"
        write_boundary_csv(path, bd)
        angles, dirs, weights, values = read_boundary_csv(path)
        assert len(angles) == 64
        np.testing.assert_array_equal(values.reshape(8, 8), bd.values)
        np.testing.assert_array_equal(weights.reshape(8, 8), bg.weights)
        np.testing.assert_allclose(angles.reshape(8, 8)[:, 0], bg.angles)
        np.testing.assert_allclose(dirs.reshape(8, 8)[0, :], bg.theta_angles)

    def test_header(self, tmp_path):
        geom = DiskGeometry(1.0, 1.2)
        bg = BoundaryGrid(geom, 8, 8)
        bd = BoundaryData(bgrid=bg, values=np.zeros((8, 8)))
        path = tmp_path / "boundary.csv"
        write_boundary_csv(path, bd)
        head = path.read_text().splitlines()[0]
        assert head == "boundary_angle,direction_angle,weight,value"


class TestPgm:
    def test_round_trip_scale(self, tmp_path):
        raster = np.linspace(-2.0, 3.0, 12).reshape(3, 4)
        path = tmp_path / "img.pgm"
        write_pgm(path, raster)
        pixels, (lo, hi) = read_pgm(path)
        assert (lo, hi) == (-2.0, 3.0)
        assert pixels.dtype == np.uint8
        assert pixels.shape == (3, 4)
        assert pixels[0, 0] == 0
        assert pixels[-1, -1] == 255
        restored = lo + pixels / 255.0 * (hi - lo)
        assert np.max(np.abs(restored - raster)) <= (hi - lo) / 255.0

    def test_constant_raster_maps_to_zero(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(path, np.full((4, 4), 7.5))
        pixels, (lo, hi) = read_pgm(path)
        assert np.all(pixels == 0)
        assert lo == hi == 7.5

    def test_binary_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((2, 5)))
        data = path.read_bytes()
        assert data.startswith(b"P5\n5 2\n255\n")
        assert len(data) == len(b"P5\n5 2\n255\n") + 10

    def test_meta_sidecar_records_extent(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.array([[1.0, 4.0]]))
        meta = (tmp_path / "img.pgm.meta").read_text()
        assert "min = 1\n" in meta
        assert "max = 4\n" in meta

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\nxxx")
        with pytest.raises(ValueError, match="not a binary PGM"):
            read_pgm(path)


class TestOperatorBinary:
    @staticmethod
    def _op(rows=6, cols=4, flags=3):
        rng = np.random.default_rng(5)
        return OperatorMatrix(matrix=rng.standard_normal((rows, cols)),
                              row_weights=rng.uniform(0.5, 2.0, rows),
                              col_weights=rng.uniform(0.5, 2.0, cols),
                              flags=flags)

    def test_round_trip(self, tmp_path):
        op = self._op()
        path = tmp_path / "op.rteop"
        write_operator(path, op)
        back = read_operator(path)
        np.testing.assert_array_equal(back.matrix, op.matrix)
        np.testing.assert_array_equal(back.row_weights, op.row_weights)
        np.testing.assert_array_equal(back.col_weights, op.col_weights)
        assert back.flags == op.flags

    def test_layout_is_exactly_as_documented(self, tmp_path):
        op = self._op(rows=2, cols=3, flags=0)
        path = tmp_path / "op.rteop"
        write_operator(path, op)
        data = path.read_bytes()
        assert data[:6] == b"RTEOP1"
        assert len(data) == 6 + 12 + 8 * (2 * 3 + 2 + 3)
        first = np.frombuffer(data[18:26], dtype="<f8")[0]
        assert first == op.matrix[0, 0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "op.rteop"
        path.write_bytes(b"NOTOP1" + b"\x00" * 32)
        with pytest.raises(ValueError, match="bad operator magic"):
            read_operator(path)

    def test_trailing_bytes(self, tmp_path):
        op = self._op()
        path = tmp_path / "op.rteop"
        write_operator(path, op)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            read_operator(path)


class TestChecksum:
    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = bytes(range(256)) * 300
        path.write_bytes(payload)
        assert sha256_file(path) == hashlib.sha256(payload).hexdigest()
