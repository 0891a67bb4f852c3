"""Numerical laboratory for speed-constrained swarming dynamics.

Particle-level integrators for the stiff self-propulsion/friction system and
its fixed-speed limit on the sphere, closed-form relaxation analytics, and
exact Wasserstein-1 diagnostics for convergence experiments.
"""

__version__ = "0.1.0"

from .core import (
    ModelParams,
    MomentReport,
    PhaseEnsemble,
    moments,
    project_measure,
    support_in_band,
)
from .eps_dynamics import SimConfig, Trajectory, simulate
from .kernels import (
    FieldSample,
    KernelSpec,
    acceleration,
    builtin_kernels,
    compose_kernels,
    field_gap_bound,
)
from .relaxation import (
    RootTriple,
    adjoint_potential,
    blowup_time,
    free_flow,
    lambda_eps,
    root_asymptotics,
    solve_roots,
    trapping_time_bounds,
)
from .sphere_dynamics import (
    laplace_beltrami_via_extension,
    spherical_coords_3d,
    spherical_laplacian_3d,
    tangential_projection,
    zero_hom_laplacian_formula,
)
from .transport import (
    ConvergenceTable,
    W1Report,
    convergence_study,
    equicontinuity_probe,
    w1_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
