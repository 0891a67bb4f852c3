"""Dynamics on the speed sphere.

The limit of the stiff system constrains velocities to |omega| = r; what
remains of the interaction field is its tangential part
(I - omega (x) omega / r^2) a. The limit step `advance_limit` is project-then-
renormalize (the tangency of the projected drift makes the renormalization
correction O(dt^2)); with diffusion it projects an ambient sqrt(2)-Gaussian
increment the same way, which realizes the intrinsic sphere Laplacian as its
weak generator (validated by the degree-1 eigenvalue test in the suite). Runs
go through `eps_dynamics.simulate` as eps runs do: one build, one matvec a step.

The dynamics runs in Cartesian components and never touches a chart; the 3D
chart angles of `spherical_coords_3d` only label sphere snapshots. The
Laplacian identities the suite checks the generator against live in
`tests/oracles.py`.
"""

from __future__ import annotations

import math

import numpy as np

from . import noise
from .core import PhaseEnsemble
from .errors import ValidationError
from .kernels import PairOperator


def tangential_projection(a, omega):
    """(I - omega (x) omega / |omega|^2) a, vectorized over rows.

    The measured |omega|^2 is used in the denominator so the result is
    orthogonal to omega to roundoff even when |omega| carries the 1e-12
    sphere tolerance.
    """
    a = np.asarray(a, dtype=float)
    omega = np.asarray(omega, dtype=float)
    single = a.ndim == 1
    a2 = a[None, :] if single else a
    o2 = omega[None, :] if single else omega
    coef = np.sum(o2 * a2, axis=1) / np.sum(o2 * o2, axis=1)
    out = a2 - coef[:, None] * o2
    return out[0] if single else out


def _renormalize(u, omega, r):
    # rows the update left untouched stay bitwise identical (a = 0 transport)
    norms = np.sqrt(np.sum(u * u, axis=1))
    out = u * (r / norms)[:, None]
    unchanged = np.all(u == omega, axis=1)
    if np.any(unchanged):
        out[unchanged] = omega[unchanged]
    return out


def advance_limit(ens: PhaseEnsemble, cfg, step_index: int,
                  op: PairOperator, time: float) -> PhaseEnsemble:
    """One limit step of an ensemble on the radius-r sphere to the new time
    `time`: transport by omega = v, then rotate omega by the projected field,
    plus, iff cfg.diffusion, a projected sqrt(2)-Gaussian increment (projected
    Euler-Maruyama: weak order 1 for drift plus intrinsic sphere diffusion).
    `op` is built at ens.x and left built at x; `cfg.params.eps` plays no role."""
    a = op.field(ens.v)
    xi = tangential_projection(a, ens.v)
    x = ens.x + cfg.dt * ens.v
    u = ens.v + cfg.dt * xi
    if cfg.diffusion:
        # drift and noise projected separately so a zero draw reproduces the
        # deterministic step bit for bit
        shot = noise.gaussian_increments(cfg.rng_seed, noise.SPHERE_DYNAMICS,
                                         step_index, ens.v.shape)
        u = u + math.sqrt(2.0 * cfg.dt) * tangential_projection(shot, ens.v)
    v = _renormalize(u, ens.v, ens.r)
    op.build(x)
    return PhaseEnsemble(x=x, v=v, w=ens.w, time=time, r=ens.r)


# ---------------------------------------------------------------------------
# 3D charts: omega = r (cos(theta) cos(phi), cos(theta) sin(phi), sin(theta)),
# theta in (-pi/2, pi/2), phi in [0, 2 pi).
# ---------------------------------------------------------------------------

def spherical_coords_3d(omega, r: float):
    """Chart angles (theta, phi) of a point, or arrays of them over the rows
    of an (n, 3) batch."""
    omega = np.asarray(omega, dtype=float)
    if omega.ndim not in (1, 2) or omega.shape[-1] != 3:
        raise ValidationError(f"expected 3D points, got shape {omega.shape}")
    off = np.abs(np.sqrt(np.sum(omega * omega, axis=-1)) - r)
    if np.any(off > 1e-9 * r):
        raise ValidationError(f"point is off the radius-{r} sphere by {np.max(off):.3e}")
    theta = np.arcsin(np.clip(omega[..., 2] / r, -1.0, 1.0))
    phi = np.arctan2(omega[..., 1], omega[..., 0]) % (2.0 * math.pi)
    return (float(theta), float(phi)) if omega.ndim == 1 else (theta, phi)
