"""Analytic source phantoms supported in the inner disk.

Phantoms are callables on (..., 2) point arrays; a callable source is a
phantom wherever the API takes a raster.  Every phantom lists its jump
circles (a smooth one lists none), so ray quadratures can split
integration cells exactly at discontinuities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DiskPhantom:
    """Indicator of a disk, scaled by ``value``."""

    center: tuple = (0.0, 0.0)
    radius: float = 0.5
    value: float = 1.0

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        d2 = (pts[..., 0] - self.center[0]) ** 2 + (pts[..., 1] - self.center[1]) ** 2
        return np.where(d2 <= self.radius**2, self.value, 0.0)

    def jump_circles(self):
        return [(self.center[0], self.center[1], self.radius)]

    def edge_points(self, n):
        """Jump-set samples: (point, outward unit normal, jump height)."""
        angles = TWO_PI * (np.arange(n) + 0.5) / n
        normals = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        pts = np.asarray(self.center, dtype=float) + self.radius * normals
        jumps = np.full(n, abs(self.value))
        return pts, normals, jumps


@dataclass(frozen=True)
class GaussianPhantom:
    """Smooth bump amplitude * exp(-|x - center|^2 / (2 width^2))."""

    center: tuple = (0.0, 0.0)
    width: float = 0.2
    amplitude: float = 1.0

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        # A centre far off the grid squares to inf: the bump is exactly 0.
        with np.errstate(over="ignore"):
            d2 = (pts[..., 0] - self.center[0]) ** 2 + (pts[..., 1] - self.center[1]) ** 2
        return self.amplitude * np.exp(-d2 / (2.0 * self.width**2))

    def jump_circles(self):
        return []


@dataclass(frozen=True)
class ConstantPhantom:
    """Constant value on the inner disk of the given radius."""

    radius: float
    value: float = 1.0

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        d2 = pts[..., 0] ** 2 + pts[..., 1] ** 2
        return np.where(d2 <= self.radius**2, self.value, 0.0)

    def jump_circles(self):
        return [(0.0, 0.0, self.radius)]

    def edge_points(self, n):
        angles = TWO_PI * (np.arange(n) + 0.5) / n
        normals = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        return self.radius * normals, normals, np.full(n, abs(self.value))


def rasterize(phantom, grid, geom):
    """Sample a phantom at pixel centers, zeroed outside the inner disk."""
    raster = np.asarray(phantom(grid.centers()), dtype=float)
    return raster * grid.disk_mask(geom.radius_inner)
