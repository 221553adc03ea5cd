"""Bilinear sampling on pixel rasters, with exact transposes.

Values live at pixel centers; sampling decays linearly to zero within one
cell beyond the outermost centers and is zero further out.  A point's patch
is the cell of four pixel centers around it: its lower-left pixel and its
fractions along x and y.  One helper tests which corners of a patch lie in
the raster and names their pixels; every constructor below builds on it.

A gather is one CSR matrix, so sampling is ``matrix @ x`` and the exact
adjoint scatter is ``matrix.T @ v``:

- ``at_points(grid, points)`` stores four entries per point, one per patch
  corner in a fixed order (corners outside the raster keep a zero weight).
- ``block_diagonal(grid, blocks)`` samples each block of points from its own
  copy of the raster, one block after another, as one matrix; the transport
  march uses it to rotate every direction's raster in one product.
- ``along_chords(grid, origins, direction, dist, weights, counts)`` gathers
  one weighted sum per chord over the points ``origin + dist * direction``
  (the quadrature cells of one chord after another), in pixel coordinates
  taken straight from the distances.  Consecutive cells of a chord in one
  patch form a run: the weighted corner weights of each run are summed,
  and the corner tests and pixel indices are done once per run, so a row
  holds one entry per pixel, merged from its runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


@dataclass
class BilinearGather:
    """Precomputed bilinear interpolation at a fixed set of points."""

    matrix: sp.csr_matrix   # (n_points, n_pixels)

    @classmethod
    def at_points(cls, grid, points):
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        n = len(points)
        u = (points[:, 0] + grid.half_width) / grid.hx - 0.5
        v = (points[:, 1] + grid.half_width) / grid.hy - 0.5
        iu = np.floor(u)
        iv = np.floor(v)
        fu = u - iu
        fv = v - iv
        wx = (1 - fu, fu)
        wy = (1 - fv, fv)
        pixels, inside = _corners(grid, iu.astype(np.int64), iv.astype(np.int64))
        indices = np.empty((n, 4), dtype=np.int32)
        data = np.empty((n, 4))
        for k, (dx, dy) in enumerate(_CORNERS):
            indices[:, k] = np.where(inside[k], pixels[k], 0)
            data[:, k] = np.where(inside[k], wx[dx] * wy[dy], 0.0)
        indptr = 4 * np.arange(n + 1, dtype=np.int32)
        matrix = sp.csr_matrix((data.reshape(-1), indices.reshape(-1), indptr),
                               shape=(n, grid.n_pixels))
        return cls(matrix=matrix)

    @classmethod
    def block_diagonal(cls, grid, point_blocks):
        """Gathers at each block of points, placed on one block diagonal.

        Block q samples the q-th of len(point_blocks) stacked rasters, so
        the matrix is (total points, len(point_blocks) * n_pixels).  Each
        row keeps the stored entries of at_points in order, so a product
        with it equals the per-block products bit for bit, and only one
        block's temporaries are alive at a time.
        """
        n = sum(len(pts) for pts in point_blocks)
        data = np.empty(4 * n)
        indices = np.empty(4 * n, dtype=np.int32)
        start = 0
        for q, pts in enumerate(point_blocks):
            m = cls.at_points(grid, pts).matrix
            stop = start + 4 * len(pts)
            data[start:stop] = m.data
            indices[start:stop] = m.indices + q * grid.n_pixels
            start = stop
        indptr = 4 * np.arange(n + 1, dtype=np.int32)
        matrix = sp.csr_matrix((data, indices, indptr),
                               shape=(n, len(point_blocks) * grid.n_pixels))
        return cls(matrix=matrix)

    @classmethod
    def along_chords(cls, grid, origins, direction, dist, weights, counts):
        """Gather of weighted sums of samples along chords.

        Chord c owns counts[c] >= 0 consecutive entries of dist and weights,
        chords following each other.  Row c samples sum_k weights[k] *
        (bilinear sample at origins[c] + dist[k] * direction) over the
        entries k of chord c.  The pixel coordinates come straight from the
        distances: u = (x_c + half_width) / hx - 1/2, repeated over the
        chord, plus dist * direction_x / hx, and v likewise.  Consecutive
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
        u = np.repeat((origins[:, 0] + grid.half_width) / grid.hx - 0.5, counts)
        u += dist * (direction[0] / grid.hx)
        v = np.repeat((origins[:, 1] + grid.half_width) / grid.hy - 0.5, counts)
        v += dist * (direction[1] / grid.hy)
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
        matrix = sp.csr_matrix((sums[ok], np.stack(pixels, axis=1)[ok], indptr),
                               shape=(len(counts), grid.n_pixels))
        matrix.sum_duplicates()
        return cls(matrix=matrix)

    def apply(self, flat_raster):
        """Sample; flat_raster has shape (n_pixels,) or (n_pixels, B)."""
        return self.matrix @ flat_raster

    def apply_transpose(self, values):
        """Exact transpose scatter; values shape (n,) or (n, B)."""
        return self.matrix.T @ values


def bilinear_sample(grid, raster, points):
    """One-off bilinear samples of a (ny, nx) raster at (..., 2) points."""
    pts = np.asarray(points, dtype=float)
    shape = pts.shape[:-1]
    g = BilinearGather.at_points(grid, pts.reshape(-1, 2))
    return g.apply(np.asarray(raster, dtype=float).reshape(-1)).reshape(shape)
