"""Bilinear sampling on pixel rasters, with exact transposes.

Values live at pixel centers; sampling decays linearly to zero within one
cell beyond the outermost centers and is zero further out.  A gather is one
CSR matrix with four stored entries per point, one per cell corner in a
fixed order (corners outside the raster keep a zero weight), so sampling is
``matrix @ x`` and the exact adjoint scatter is ``matrix.T @ v``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Cell corners (dx, dy) in stored order.
_CORNERS = ((0, 0), (1, 0), (0, 1), (1, 1))


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
        iu = iu.astype(np.int64)
        iv = iv.astype(np.int64)
        indices = np.empty((n, 4), dtype=np.int32)
        data = np.empty((n, 4))
        for k, (dx, dy) in enumerate(_CORNERS):
            ix = iu + dx
            iy = iv + dy
            ok = (ix >= 0) & (ix < grid.nx) & (iy >= 0) & (iy < grid.ny)
            indices[:, k] = np.where(ok, iy * grid.nx + ix, 0)
            w = (fu if dx else 1 - fu) * (fv if dy else 1 - fv)
            data[:, k] = np.where(ok, w, 0.0)
        indptr = 4 * np.arange(n + 1, dtype=np.int32)
        matrix = sp.csr_matrix((data.reshape(-1), indices.reshape(-1), indptr),
                               shape=(n, grid.n_pixels))
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
