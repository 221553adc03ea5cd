"""2D transport tomography: forward solves, partial-data ray transforms,
normal-operator diagnostics, and visibility analysis on concentric disks.

Setting ``RTE_TOMO_THREADS`` to a positive count caps the BLAS and OpenMP
threads.  The thread pools are sized when numpy loads, so the cap takes
effect when this package is imported before numpy is.
"""

import os as _os


def _apply_thread_cap():
    """Copy RTE_TOMO_THREADS into the BLAS/OpenMP thread variables.

    Unset, empty or 0 leaves them alone.  Called here, before numpy is
    imported, so the cap takes effect in this process; the CLI calls it
    again so child processes inherit it.
    """
    cap = _os.environ.get("RTE_TOMO_THREADS", "").strip()
    if not cap or cap == "0":
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[var] = cap


# Before any submodule imports numpy.
_apply_thread_cap()

from .geometry import (
    CutoffSpec,
    DiskGeometry,
    Grid,
    VisibilityMask,
    convex_hull_mask,
    microvisible,
    visible_mask,
)
from .coefficients import (
    AbsorptionField,
    AngularField,
    AngularMode,
    ScatteringKernel,
    TrigPoly,
)
from .phantoms import (
    ConstantPhantom,
    DiskPhantom,
    GaussianPhantom,
    rasterize,
)
from .transport import (
    BoundaryData,
    BoundaryGrid,
    NonConvergenceError,
    PhaseSpaceField,
    SolveReport,
    TransportSolver,
    apply_J,
)
from .tomography import (
    EdgeReport,
    OperatorMatrix,
    SymbolField,
    WavefrontImage,
    adjoint_ray_transform,
    assemble_xv_matrix,
    edge_strengths,
    normal_operator_full,
    normal_operator_kernel,
    point_source_pairing,
    principal_symbol,
    ray_transform,
    smoothing_diagnostic,
    svd_injectivity,
    symbol_field,
    wavefront_image,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
