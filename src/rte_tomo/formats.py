"""Bit-exact artifact formats: CSV grids, boundary CSV, PGM, operator binary.

Text formats use 17 significant digits and '\n' line endings regardless of
platform so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

_FMT = "%.17g"

OPERATOR_MAGIC = b"RTEOP1"


def fmt(x):
    return _FMT % float(x)


def write_grid_csv(path, raster, radius_outer):
    """Row-major grid CSV; the first line records nx, ny, R1."""
    raster = np.asarray(raster, dtype=float)
    ny, nx = raster.shape
    row = ",".join([_FMT] * nx) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{nx},{ny},{fmt(radius_outer)}\n")
        fh.write((row * ny) % tuple(raster.ravel().tolist()))


def read_grid_csv(path):
    """Returns (raster, radius_outer)."""
    with open(path, "r") as fh:
        head = fh.readline().strip().split(",")
        if len(head) != 3:
            raise ValueError(f"{path}: malformed grid CSV header")
        nx, ny = int(head[0]), int(head[1])
        radius_outer = float(head[2])
        raster = np.loadtxt(fh, delimiter=",", ndmin=2)
    if raster.shape != (ny, nx):
        raise ValueError(f"{path}: grid CSV body does not match its header")
    if not np.all(np.isfinite(raster)):
        raise ValueError(f"{path}: grid CSV has non-finite entries")
    return raster, radius_outer


def write_boundary_csv(path, bd):
    """All boundary samples, row-major in (boundary angle, direction)."""
    bg = bd.bgrid
    rows = np.stack([np.repeat(bg.angles, bg.n_theta),
                     np.tile(bg.theta_angles, bg.n_bdry),
                     np.ravel(bg.weights), np.ravel(bd.values)], axis=1)
    with open(path, "w", newline="\n") as fh:
        fh.write("boundary_angle,direction_angle,weight,value\n")
        fh.write((f"{_FMT},{_FMT},{_FMT},{_FMT}\n" * len(rows))
                 % tuple(rows.ravel().tolist()))


def read_boundary_csv(path):
    """Returns (boundary_angles, direction_angles, weights, values) arrays."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2], data[:, 3]


def write_pgm(path, raster):
    """8-bit binary PGM with the linear scale recorded in a .meta sidecar."""
    raster = np.asarray(raster, dtype=float)
    lo = float(raster.min())
    hi = float(raster.max())
    if hi > lo:
        scaled = np.rint((raster - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(raster)
    body = scaled.astype(np.uint8).tobytes(order="C")
    ny, nx = raster.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(body)
    with open(str(path) + ".meta", "w", newline="\n") as fh:
        fh.write(f"min = {fmt(lo)}\n")
        fh.write(f"max = {fmt(hi)}\n")
        fh.write(f"cols = {nx}\n")
        fh.write(f"rows = {ny}\n")


def read_pgm(path):
    """Returns the uint8 raster and the (min, max) scale from the sidecar."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P5":
            raise ValueError(f"{path}: not a binary PGM")
        nx, ny = (int(t) for t in fh.readline().split())
        maxval = int(fh.readline())
        if maxval != 255:
            raise ValueError(f"{path}: expected 8-bit data")
        raster = np.frombuffer(fh.read(nx * ny), dtype=np.uint8).reshape(ny, nx)
    lo = hi = None
    with open(str(path) + ".meta", "r") as fh:
        for line in fh:
            key, _, val = line.partition("=")
            if key.strip() == "min":
                lo = float(val)
            elif key.strip() == "max":
                hi = float(val)
    return raster, (lo, hi)


def write_operator(path, op):
    """Dense operator with weights: magic, sizes, matrix, row/col weights."""
    rows, cols = op.matrix.shape
    with open(path, "wb") as fh:
        fh.write(OPERATOR_MAGIC)
        fh.write(struct.pack("<III", rows, cols, op.flags))
        fh.write(np.ascontiguousarray(op.matrix, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(op.row_weights, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(op.col_weights, dtype="<f8").tobytes())


def read_operator(path):
    from .tomography import OperatorMatrix

    with open(path, "rb") as fh:
        if fh.read(len(OPERATOR_MAGIC)) != OPERATOR_MAGIC:
            raise ValueError(f"{path}: bad operator magic")
        rows, cols, flags = struct.unpack("<III", fh.read(12))
        matrix = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
        matrix = matrix.reshape(rows, cols).copy()
        row_weights = np.frombuffer(fh.read(rows * 8), dtype="<f8").copy()
        col_weights = np.frombuffer(fh.read(cols * 8), dtype="<f8").copy()
        tail = fh.read(1)
    if len(tail):
        raise ValueError(f"{path}: trailing bytes after operator data")
    return OperatorMatrix(matrix=matrix, row_weights=row_weights,
                          col_weights=col_weights, flags=flags)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()
