"""Seeded workload definitions for the rte-tomo benchmark.

A workload fixes everything that sets the amount of work (grid size,
direction count, absorption and scattering strength, the command list).  The
seed picks one of N_VARIANTS input variants, which move only the disk
source's centre and radius, turn the half-circle cutoff arc by a multiple
of 90 degrees and set ``run.seed``.  Variant HELD_OUT_VARIANT is never used while tuning the
benchmark or a change; later claims are checked on it.

This module uses only the standard library, so config generation does not
depend on numpy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

N_VARIANTS = 16
HELD_OUT_VARIANT = 15

RADIUS_INNER = 1.0
RADIUS_OUTER = 1.2


@dataclass(frozen=True)
class Workload:
    name: str
    nx: int
    n_theta: int
    absorption: tuple      # config lines
    scattering: tuple
    commands: tuple


CONSTANT_ABSORPTION = ("absorption.preset = constant", "absorption.value = 0.3")
GAUSSIAN_ABSORPTION = (
    "absorption.preset = gaussian",
    "absorption.amplitude = 0.7",
    "absorption.center_x = -0.1",
    "absorption.center_y = 0.2",
    "absorption.width = 0.35",
)
# Commands too short (tens of milliseconds) to time within a tenth from one
# call; they count only inside a pass, not in the per-command mean.
SHORT_COMMANDS = ("visible-set", "smoothing")

ISOTROPIC_SCATTERING = ("scattering.preset = isotropic", "scattering.total = 0.4")
NO_SCATTERING = ("scattering.preset = zero",)

# Grid sizes are chosen so that one pass fits several times into a run while
# keeping each workload on its route: forward-scatter and image-ballistic
# have more than 1024 pixels, so `normal` and `wavefront` take the iterative
# normal-operator route; assemble-small stays at or under 32x32 pixels and
# 32 directions, so `normal` assembles the dense matrix column by column.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="forward-scatter",
            nx=40, n_theta=24,
            absorption=CONSTANT_ABSORPTION,
            scattering=ISOTROPIC_SCATTERING,
            commands=("forward", "measure", "wavefront", "smoothing"),
        ),
        Workload(
            name="assemble-small",
            nx=16, n_theta=8,
            absorption=CONSTANT_ABSORPTION,
            scattering=ISOTROPIC_SCATTERING,
            commands=("normal", "svd"),
        ),
        Workload(
            name="image-ballistic",
            nx=40, n_theta=32,
            absorption=GAUSSIAN_ABSORPTION,
            scattering=NO_SCATTERING,
            commands=("visible-set", "symbol", "wavefront", "normal"),
        ),
    )
}


def variant_of(seed):
    return int(seed) % N_VARIANTS


def variant_inputs(variant):
    """Source disk, cutoff arc and run seed for one variant.

    The disk stays at least 0.05 inside the source region, so rounding can
    never push it outside.  The arc turns by quarter turns only: the pixel
    grid, the direction grid and the boundary samples are all symmetric
    under them, so the visible pixel set, and with it the number of columns
    `svd` assembles, is the same for every variant.
    """
    rng = random.Random(variant)
    radius = round(rng.uniform(0.3, 0.55), 4)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    dist = rng.uniform(0.0, RADIUS_INNER - radius - 0.05)
    phi = 0.5 * math.pi * rng.randrange(4)
    return {
        "source.center_x": round(dist * math.cos(angle), 4),
        "source.center_y": round(dist * math.sin(angle), 4),
        "source.radius": radius,
        "cutoff.arcs": f"{phi - 0.5 * math.pi:.6f}:{phi + 0.5 * math.pi:.6f}",
        "run.seed": variant,
    }


def config_text(workload, variant, nx=None, n_theta=None):
    """The flat config document the CLI reads; nx/n_theta override the size."""
    w = WORKLOADS[workload]
    nx = w.nx if nx is None else nx
    n_theta = w.n_theta if n_theta is None else n_theta
    inputs = variant_inputs(variant)
    lines = [
        f"# perfbench workload {workload}, variant {variant}",
        f"geometry.R = {RADIUS_INNER}",
        f"geometry.R1 = {RADIUS_OUTER}",
        f"grid.nx = {nx}",
        f"grid.ny = {nx}",
        f"grid.n_theta = {n_theta}",
        "grid.n_bdry = 256",
        *w.absorption,
        *w.scattering,
        "cutoff.preset = arcs",
        f"cutoff.arcs = {inputs['cutoff.arcs']}",
        "cutoff.transition_width = 0.5",
        "source.preset = disk",
        f"source.center_x = {inputs['source.center_x']}",
        f"source.center_y = {inputs['source.center_y']}",
        f"source.radius = {inputs['source.radius']}",
        "source.value = 1.0",
        f"run.seed = {inputs['run.seed']}",
    ]
    return "\n".join(lines) + "\n"


def write_config(out_dir, workload, variant, nx=None, n_theta=None):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}.cfg"
    path.write_text(config_text(workload, variant, nx, n_theta), encoding="utf-8")
    return path
