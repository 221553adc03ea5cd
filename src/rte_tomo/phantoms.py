"""Analytic source phantoms supported in the inner disk.

Phantoms are callables on (..., 2) point arrays.  Piecewise-constant ones
also list their jump circles, so ray quadratures can split integration
cells exactly at discontinuities.
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
class MultiPhantom:
    """Sum of component phantoms."""

    parts: tuple

    def __call__(self, points):
        out = 0.0
        for p in self.parts:
            out = out + p(points)
        return out

    def jump_circles(self):
        out = []
        for p in self.parts:
            if hasattr(p, "jump_circles"):
                out.extend(p.jump_circles())
        return out

    def edge_points(self, n):
        pts, normals, jumps = [], [], []
        for p in self.parts:
            if hasattr(p, "edge_points"):
                a, b, c = p.edge_points(n)
                pts.append(a)
                normals.append(b)
                jumps.append(c)
        return (np.concatenate(pts), np.concatenate(normals), np.concatenate(jumps))


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


def rasterize(phantom, grid, geom=None):
    """Sample a phantom at pixel centers, zeroed outside the inner disk."""
    raster = np.asarray(phantom(grid.centers()), dtype=float)
    if geom is not None:
        raster = raster * grid.disk_mask(geom.radius_inner)
    return raster
