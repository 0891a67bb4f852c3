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
    spherical_coords_3d,
)
from .eps_dynamics import SimConfig, simulate
from .kernels import KernelSpec, builtin_kernels, compose_kernels
from .relaxation import (
    RootTriple,
    blowup_time,
    free_flow,
    lambda_eps,
    root_asymptotics,
    solve_roots,
)
from .sphere_dynamics import tangential_projection
from .transport import W1Report, convergence_study, w1_exact

__all__ = [name for name in dir() if not name.startswith("_")]
