"""Bilinear sampling on pixel rasters, with exact transposes.

Values live at pixel centers; sampling decays linearly to zero within one
cell beyond the outermost centers and is zero further out.  A point's patch
is the cell of four pixel centers around it: its lower-left pixel and its
fractions along x and y.  One helper finds the patches and tests which of
their corners lie in the raster; every constructor below builds on it, with
one corner formula.

A gather is one CSR matrix, so sampling is ``matrix @ x`` and the exact
adjoint scatter is ``matrix.T @ v``:

- ``at_points(grid, points)`` stores four entries per point, one per patch
  corner in a fixed order (corners outside the raster keep a zero weight).
- ``block_diagonal(grid, blocks)`` samples each block of points from its own
  copy of the raster, one block after another, as one matrix; the transport
  march uses it to rotate every direction's raster in one product.
- ``folded(grid, points, weights, counts)`` gathers one weighted sum per
  group of consecutive points (the quadrature cells of one chord after
  another).  Consecutive points of a group in one patch form a run; the
  weighted corner weights of each run are summed before the rows are built,
  so a row holds one entry per pixel, merged from its runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Cell corners (dx, dy) in stored order.
_CORNERS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _patches(grid, points):
    """Bilinear patches of (n, 2) points and the weights of their corners.

    Returns the lower-left pixel (iu, iv) of each point's patch, then for
    each corner (dx, dy) in _CORNERS order its weight (fu or 1 - fu times
    fv or 1 - fv, fu and fv the in-patch fractions) and whether it lies in
    the raster.  Corner (dx, dy) is pixel (iv + dy) * nx + iu + dx.
    """
    u = (points[:, 0] + grid.half_width) / grid.hx - 0.5
    v = (points[:, 1] + grid.half_width) / grid.hy - 0.5
    iu = np.floor(u)
    iv = np.floor(v)
    fu = u - iu
    fv = v - iv
    iu = iu.astype(np.int64)
    iv = iv.astype(np.int64)
    wx = (1 - fu, fu)
    wy = (1 - fv, fv)
    x_ok = ((iu >= 0) & (iu < grid.nx), (iu >= -1) & (iu < grid.nx - 1))
    y_ok = ((iv >= 0) & (iv < grid.ny), (iv >= -1) & (iv < grid.ny - 1))
    weights = [wx[dx] * wy[dy] for dx, dy in _CORNERS]
    inside = [x_ok[dx] & y_ok[dy] for dx, dy in _CORNERS]
    return iu, iv, weights, inside


@dataclass
class BilinearGather:
    """Precomputed bilinear interpolation at a fixed set of points."""

    matrix: sp.csr_matrix   # (n_points, n_pixels)

    @classmethod
    def at_points(cls, grid, points):
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        n = len(points)
        iu, iv, weights, inside = _patches(grid, points)
        indices = np.empty((n, 4), dtype=np.int32)
        data = np.empty((n, 4))
        for k, (dx, dy) in enumerate(_CORNERS):
            indices[:, k] = np.where(inside[k], (iv + dy) * grid.nx + iu + dx, 0)
            data[:, k] = np.where(inside[k], weights[k], 0.0)
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
    def folded(cls, grid, points, weights, counts):
        """Gather of weighted sums over consecutive groups of points.

        weights has one entry per (n, 2) point; counts[g] >= 0 points make
        up group g, groups following each other in point order.  Row g
        samples sum_k weights[k] * (bilinear sample at point k) over the
        points k of group g.  Consecutive points of a group in one patch
        form a run: each run's weighted corner weights are summed first,
        corners outside the raster are dropped, then repeated pixels of a
        row are merged.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        weights = np.asarray(weights, dtype=float).reshape(-1)
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        n = len(points)
        if len(weights) != n or np.any(counts < 0) or int(counts.sum()) != n:
            raise ValueError("weights and counts do not cover the points")
        iu, iv, corner_weights, inside = _patches(grid, points)
        new_run = np.ones(n, dtype=bool)
        new_run[1:] = (iu[1:] != iu[:-1]) | (iv[1:] != iv[:-1])
        group_starts = np.cumsum(counts)[:-1]
        new_run[group_starts[group_starts < n]] = True
        starts = np.nonzero(new_run)[0]
        corner = np.stack(corner_weights)
        corner *= weights
        sums = np.add.reduceat(corner, starts, axis=1).T
        iu, iv = iu[starts], iv[starts]
        ok = np.stack([m[starts] for m in inside], axis=1)
        cols = np.stack([(iv + dy) * grid.nx + iu + dx for dx, dy in _CORNERS], axis=1)
        run_group = np.repeat(np.arange(len(counts)), counts)[starts]
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(np.bincount(np.repeat(run_group, ok.sum(axis=1)), minlength=len(counts)),
                  out=indptr[1:])
        matrix = sp.csr_matrix((sums[ok], cols[ok], indptr),
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
