"""Bilinear sampling on pixel rasters, with exact transposes.

Values live at pixel centers; sampling decays linearly to zero within one
cell beyond the outermost centers and is zero further out.  A point's patch
is the cell of four pixel centers around it: its lower-left pixel and its
fractions along x and y.  One helper tests which corners of a patch lie in
the raster and names their pixels; every constructor below builds on it.

A gather is one CSR matrix, so sampling is ``matrix @ x`` and the exact
adjoint scatter is ``matrix.T @ v``.  ``scipy.sparse`` is imported only when
the first one is built (see ``csr``), so a command that builds none never
loads it:

- ``at_points(grid, points)`` stores four entries per point, one per patch
  corner in a fixed order (corners outside the raster keep a zero weight).
- ``along_chords(grid, origins, direction, dist, weights, counts)`` gathers
  one weighted sum per chord over the points ``origin + dist * direction``
  (the quadrature cells of one chord after another), in pixel coordinates
  taken straight from the distances (``_chord_coordinates``).  Consecutive
  cells of a chord in one patch form a run: the weighted corner weights of
  each run are summed, and the corner tests and pixel indices are done once
  per run, so a row holds one entry per pixel, merged from its runs.

``bilinear_sample`` samples a raster once without a matrix: it sums the
four corner products of each point in stored order, starting from 0.0, as
the CSR product does, so it equals ``at_points(grid, points).apply`` bit
for bit.  ``chord_samples`` samples a raster once along chords, at the
points and in the pixel coordinates of ``along_chords``: the raster is
zero-padded wide enough that no corner needs a test, and each sample is one
interpolation of its four corners, equal to the fold's to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse

# Cell corners (dx, dy) in stored order.
_CORNERS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _corners(grid, iu, iv):
    """Pixels of the corners of patches (iu, iv) and whether they lie in the raster.

    iu and iv are integer lower-left pixel coordinates.  Returns two lists
    in _CORNERS order: corner (dx, dy) is pixel (iv + dy) * nx + iu + dx,
    and the flag of whether both its column and its row lie in the raster.
    """
    x_ok = ((iu >= 0) & (iu < grid.nx), (iu >= -1) & (iu < grid.nx - 1))
    y_ok = ((iv >= 0) & (iv < grid.ny), (iv >= -1) & (iv < grid.ny - 1))
    pixels = [(iv + dy) * grid.nx + iu + dx for dx, dy in _CORNERS]
    inside = [x_ok[dx] & y_ok[dy] for dx, dy in _CORNERS]
    return pixels, inside


def _point_corners(grid, points):
    """(pixel, weight) of each patch corner of (n, 2) points, in _CORNERS order.

    A corner outside the raster names pixel 0 with weight 0.
    """
    u = (points[:, 0] + grid.half_width) / grid.hx - 0.5
    v = (points[:, 1] + grid.half_width) / grid.hy - 0.5
    iu = np.floor(u)
    iv = np.floor(v)
    fu = u - iu
    fv = v - iv
    wx = (1 - fu, fu)
    wy = (1 - fv, fv)
    pixels, inside = _corners(grid, iu.astype(np.int64), iv.astype(np.int64))
    for (dx, dy), pixel, ok in zip(_CORNERS, pixels, inside):
        yield np.where(ok, pixel, 0), np.where(ok, wx[dx] * wy[dy], 0.0)


def _chord_coordinates(grid, origins, direction, dist, counts):
    """Pixel coordinates (u, v) of origins[c] + dist * direction, chord after chord.

    Chord c owns counts[c] consecutive distances.  u = (x_c + half_width) /
    hx - 1/2, repeated over the chord, plus dist * direction_x / hx, and v
    likewise, so pixel centres sit at integers.
    """
    u = dist * (direction[0] / grid.hx)
    u += np.repeat((origins[:, 0] + grid.half_width) / grid.hx - 0.5, counts)
    v = dist * (direction[1] / grid.hy)
    v += np.repeat((origins[:, 1] + grid.half_width) / grid.hy - 0.5, counts)
    return u, v


def csr(data, indices, indptr, shape):
    """CSR matrix from its arrays; scipy.sparse is imported on first use."""
    import scipy.sparse as sp

    return sp.csr_matrix((data, indices, indptr), shape=shape)


@dataclass
class BilinearGather:
    """Precomputed bilinear interpolation at a fixed set of points."""

    matrix: scipy.sparse.csr_matrix   # (n_points, n_pixels)

    @classmethod
    def at_points(cls, grid, points):
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        n = len(points)
        indices = np.empty((n, 4), dtype=np.int32)
        data = np.empty((n, 4))
        for k, (pixel, weight) in enumerate(_point_corners(grid, points)):
            indices[:, k] = pixel
            data[:, k] = weight
        indptr = 4 * np.arange(n + 1, dtype=np.int32)
        return cls(matrix=csr(data.reshape(-1), indices.reshape(-1), indptr,
                              (n, grid.n_pixels)))

    @classmethod
    def along_chords(cls, grid, origins, direction, dist, weights, counts):
        """Gather of weighted sums of samples along chords.

        Chord c owns counts[c] >= 0 consecutive entries of dist and weights,
        chords following each other.  Row c samples sum_k weights[k] *
        (bilinear sample at origins[c] + dist[k] * direction) over the
        entries k of chord c, in the pixel coordinates of
        _chord_coordinates, taken straight from the distances.  Consecutive
        entries of a chord in one patch form a run: the weighted corner
        weights of each run are summed, the corner tests and pixel indices
        are done once per run, and repeated pixels of a row are merged.
        """
        origins = np.asarray(origins, dtype=float).reshape(-1, 2)
        dist = np.asarray(dist, dtype=float).reshape(-1)
        weights = np.asarray(weights, dtype=float).reshape(-1)
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        n = len(dist)
        if (len(weights) != n or len(counts) != len(origins) or np.any(counts < 0)
                or int(counts.sum()) != n):
            raise ValueError("weights and counts do not cover the distances")
        u, v = _chord_coordinates(grid, origins, direction, dist, counts)
        iu = np.floor(u)
        iv = np.floor(v)
        u -= iu
        v -= iv
        # A run starts where the patch changes or a chord starts.
        ends = np.cumsum(counts)
        new_run = np.ones(n, dtype=bool)
        np.not_equal(iu[1:], iu[:-1], out=new_run[1:])
        new_run[1:] |= iv[1:] != iv[:-1]
        new_run[ends[ends < n]] = True
        starts = np.flatnonzero(new_run)
        # Corner weights in _CORNERS order: a0 (1 - fv), a1 (1 - fv), a0 fv,
        # a1 fv with a1 = w fu and a0 = w - a1.
        corner = np.empty((4, n))
        np.multiply(weights, u, out=corner[1])
        np.subtract(weights, corner[1], out=corner[0])
        np.multiply(corner[0], v, out=corner[2])
        corner[0] -= corner[2]
        np.multiply(corner[1], v, out=corner[3])
        corner[1] -= corner[3]
        sums = np.add.reduceat(corner, starts, axis=1).T
        pixels, inside = _corners(grid, iu[starts].astype(np.int64),
                                  iv[starts].astype(np.int64))
        ok = np.stack(inside, axis=1)
        # Runs follow chord order: chord c's entries are those of the runs
        # starting before ends[c].
        nnz = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(ok.sum(axis=1), out=nnz[1:])
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        indptr[1:] = nnz[np.searchsorted(starts, ends)]
        matrix = csr(sums[ok], np.stack(pixels, axis=1)[ok], indptr,
                     (len(counts), grid.n_pixels))
        matrix.sum_duplicates()
        return cls(matrix=matrix)

    def apply(self, flat_raster):
        """Sample; flat_raster has shape (n_pixels,) or (n_pixels, B)."""
        return self.matrix @ flat_raster

    def apply_transpose(self, values):
        """Exact transpose scatter; values shape (n,) or (n, B)."""
        return self.matrix.T @ values


def _ring(grid, h, reach):
    """Zero pixels to pad on each side of an axis of pixel size h so that
    every patch corner of a coordinate in [-reach, reach] lies in the padded
    raster, with half a pixel to spare for roundoff."""
    return max(0, int(np.ceil((reach - grid.half_width) / h))) + 2


def chord_samples(grid, values, origins, direction, dist, counts, reach):
    """Bilinear samples of a flat raster at origins[c] + dist * direction.

    Chords are laid out as in BilinearGather.along_chords and share its
    pixel coordinates (_chord_coordinates), so a point's patch and
    fractions are those of its fold; every point must lie within reach of
    the centre in x and in y.  values has shape (N, B); the samples have
    shape (n, B).  The raster is copied into a ring of zero
    pixels wide enough (_ring) that every corner of such a point's patch
    lies inside it, so a sample interpolates its four corners with no
    corner test: top = a + fu (b - a) and bottom = c + fu (d - c) along x,
    then top + fv (bottom - top).
    """
    px, py = _ring(grid, grid.hx, reach), _ring(grid, grid.hy, reach)
    width = grid.nx + 2 * px
    B = values.shape[1]
    pad = np.zeros((grid.ny + 2 * py, width, B))
    pad[py:py + grid.ny, px:px + grid.nx] = values.reshape(grid.ny, grid.nx, B)
    pad = pad.reshape(-1, B)
    fu, fv = _chord_coordinates(grid, origins, direction, dist, counts)
    iu = np.floor(fu)
    fu -= iu
    k = np.floor(fv)
    fv -= k
    # Flat index of the lower-left corner in the padded raster.
    k *= width
    k += iu
    del iu
    k += py * width + px
    k = k.astype(np.intp)
    fu = fu[:, None]
    fv = fv[:, None]
    top, right = pad.take(k, axis=0), pad[1:].take(k, axis=0)
    right -= top
    right *= fu
    top += right
    bottom, right = pad[width:].take(k, axis=0), pad[width + 1:].take(k, axis=0)
    right -= bottom
    right *= fu
    bottom += right
    bottom -= top
    bottom *= fv
    top += bottom
    return top


def bilinear_sample(grid, raster, points):
    """One-off bilinear samples of a (ny, nx) raster at (..., 2) points."""
    pts = np.asarray(points, dtype=float)
    shape = pts.shape[:-1]
    values = np.asarray(raster, dtype=float).reshape(-1)
    if values.size != grid.n_pixels:
        raise ValueError(f"raster has {values.size} values; the grid has "
                         f"{grid.n_pixels} pixels")
    pts = pts.reshape(-1, 2)
    out = np.zeros(len(pts))
    for pixel, weight in _point_corners(grid, pts):
        out += weight * values[pixel]
    return out.reshape(shape)
