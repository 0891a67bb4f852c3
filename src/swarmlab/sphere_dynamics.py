"""Dynamics on the speed sphere.

The limit of the stiff system constrains velocities to |omega| = r; what
remains of the interaction field is its tangential part
(I - omega (x) omega / r^2) a. The limit step `advance_limit` is project-then-
renormalize (the tangency of the projected drift makes the renormalization
correction O(dt^2)); with diffusion it projects an ambient sqrt(2)-Gaussian
increment the same way, which realizes the intrinsic sphere Laplacian as its
weak generator (validated by the degree-1 eigenvalue test in the suite). The
step maps the arrays (x, v) to (x, v); runs go through `eps_dynamics.simulate`
as eps runs do, one build and one matvec a step. `simulate` alone makes the
snapshot ensembles, yields each as the run reaches it, and turns a diverged
step into `Diverged`; a drift that would turn omega past `MAX_TURN` is one.

The dynamics runs in Cartesian components and never touches a chart; the 3D
chart that labels sphere snapshots is `core.spherical_coords_3d`. The
Laplacian identities the suite checks the generator against live in
`tests/oracles.py`.
"""

from __future__ import annotations

import math

import numpy as np

from . import noise
from .errors import Diverged
from .kernels import PairOperator

# The most a limit step may turn omega, as the turn measure tau =
# dt max_i |P a_i| / r. Project-then-renormalize turns by arctan(tau) where the
# drift asks for tau: 1 - arctan(tau)/tau is 3.3e-3 at tau 0.1, 7.3% at 0.5 and
# 21.5% at 1. On Cucker-Smale runs, against 16 steps of dt/16, one step misses
# its turn by about tau itself (9.4% at tau 0.098). The lab's runs stay below
# 7.3e-3.
MAX_TURN = 0.1


def tangential_projection(a, omega):
    """(I - omega (x) omega / |omega|^2) a, for one vector or row by row.

    The measured |omega|^2 is used in the denominator so the result is
    orthogonal to omega to roundoff even when |omega| carries the 1e-12
    sphere tolerance.
    """
    a = np.asarray(a, dtype=float)
    omega = np.asarray(omega, dtype=float)
    coef = (np.sum(omega * a, axis=-1, keepdims=True)
            / np.sum(omega * omega, axis=-1, keepdims=True))
    return a - coef * omega


def _renormalize(u, omega, r):
    # rows the update left untouched stay bitwise identical (a = 0 transport)
    out = u * (r / np.sqrt(np.sum(u * u, axis=1)))[:, None]
    unchanged = np.all(u == omega, axis=1)
    if np.any(unchanged):
        out[unchanged] = omega[unchanged]
    return out


def advance_limit(x, v, cfg, step_index: int, op: PairOperator, r: float):
    """One limit step of (x, v) with v on the radius-r sphere: transport by
    omega = v, then rotate omega by the projected field, plus, iff
    cfg.diffusion, a projected sqrt(2)-Gaussian increment (projected
    Euler-Maruyama: weak order 1 for drift plus intrinsic sphere diffusion).
    `op` is built at x and left built at the new positions; `cfg.params.eps`
    plays no role. A drift that would turn omega past MAX_TURN raises
    Diverged."""
    xi = tangential_projection(op.field(v), v)
    turn = cfg.dt * math.sqrt(float(np.max(np.sum(xi * xi, axis=1)))) / r
    if not turn <= MAX_TURN:
        raise Diverged(f"turn measure dt max|P a|/r = {turn:.3g} is past the limit "
                       f"step's bound {MAX_TURN}")
    x = x + cfg.dt * v
    u = v + cfg.dt * xi
    if cfg.diffusion:
        # drift and noise projected separately so a zero draw reproduces the
        # deterministic step bit for bit
        shot = noise.gaussian_increments(cfg.rng_seed, noise.SPHERE_DYNAMICS,
                                         step_index, v.shape)
        u = u + math.sqrt(2.0 * cfg.dt) * tangential_projection(shot, v)
    op.build(x)
    return x, _renormalize(u, v, r)
