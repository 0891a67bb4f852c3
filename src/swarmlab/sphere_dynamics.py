"""Dynamics on the speed sphere plus the spherical-calculus verification kit.

The limit of the stiff system constrains velocities to |omega| = r; what
remains of the interaction field is its tangential part
(I - omega (x) omega / r^2) a. The limit step `advance_limit` is project-then-
renormalize (the tangency of the projected drift makes the renormalization
correction O(dt^2)); with diffusion it projects an ambient sqrt(2)-Gaussian
increment the same way, which realizes the intrinsic sphere Laplacian as its
weak generator (validated by the degree-1 eigenvalue test in the suite). Runs
go through `eps_dynamics.simulate` as eps runs do: one build, one matvec a step.

The remaining operations are executable identities: the intrinsic Laplacian
computed three ways (finite differences of the degree-zero homogeneous
extension, the projected-Hessian formula, and the explicit 3D polar formula)
must agree. The 3D chart angles label sphere snapshots; the Laplacian in the
chart excludes a small band around the poles. The dynamics itself runs in
Cartesian components and never touches a chart.
"""

from __future__ import annotations

import math

import numpy as np

from . import noise
from .core import PhaseEnsemble
from .errors import PoleSingularity, ValidationError, ZeroVelocityParticle
from .kernels import PairOperator

POLE_BAND = 1e-10  # excluded |sin(theta)| margin for chart-based operations


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
# Spherical calculus: three independent routes to the intrinsic Laplacian.
# ---------------------------------------------------------------------------

def laplace_beltrami_via_extension(phi, omega, r: float, step: float | None = None) -> float:
    """Intrinsic Laplacian of phi at omega computed as the ambient Laplacian
    of the degree-zero homogeneous extension Phi(y) = phi(r y / |y|),
    by central differences with step ~ 1e-4 r."""
    omega = np.asarray(omega, dtype=float)
    h = 1e-4 * r if step is None else step
    d = omega.shape[0]

    def ext(y):
        norm = math.sqrt(float(np.sum(y * y)))
        return float(phi(y * (r / norm)))

    center = ext(omega)
    total = 0.0
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        total += ext(omega + e) - 2.0 * center + ext(omega - e)
    return total / (h * h)


def zero_hom_laplacian_formula(phi, v, r: float, step: float | None = None) -> float:
    """Off-sphere evaluation of the same Laplacian through the projected-
    Hessian identity

        (r/|v|)^2 (I - vv/|v|^2) : Hess(phi)(r v/|v|)
            - 2 (r/|v|) (v . grad(phi)(r v/|v|)) / |v|^2

    with the derivatives of phi taken by central differences. The scalar
    coefficient 2 in the radial term is the 3D value, so this route is a
    three-dimensional verification tool."""
    v = np.asarray(v, dtype=float)
    vnorm = math.sqrt(float(np.sum(v * v)))
    if vnorm == 0.0:
        raise ZeroVelocityParticle("formula undefined at v = 0")
    h = 1e-4 * r if step is None else step
    d = v.shape[0]
    u = v * (r / vnorm)

    def f(y):
        return float(phi(y))

    grad = np.zeros(d)
    hess = np.zeros((d, d))
    center = f(u)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        fp, fm = f(u + ei), f(u - ei)
        grad[i] = (fp - fm) / (2.0 * h)
        hess[i, i] = (fp - 2.0 * center + fm) / (h * h)
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            val = (f(u + ei + ej) - f(u + ei - ej)
                   - f(u - ei + ej) + f(u - ei - ej)) / (4.0 * h * h)
            hess[i, j] = hess[j, i] = val
    vhat = v / vnorm
    proj_hess = float(np.trace(hess)) - float(vhat @ hess @ vhat)
    radial = float(np.dot(v, grad)) / (vnorm * vnorm)
    scale = r / vnorm
    return scale * scale * proj_hess - 2.0 * scale * radial


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


def sphere_point_3d(theta: float, phi: float, r: float) -> np.ndarray:
    return r * np.array([math.cos(theta) * math.cos(phi),
                         math.cos(theta) * math.sin(phi),
                         math.sin(theta)])


def _check_pole(theta):
    if abs(math.sin(theta)) >= 1.0 - POLE_BAND:
        raise PoleSingularity("operation excluded near the poles")


def spherical_laplacian_3d(F, theta: float, phi: float, r: float,
                           step: float = 1e-4) -> float:
    """(1/r^2) { (1/cos t) d_t(cos t d_t F) + (1/cos^2 t) d_pp F } by central
    finite differences of the chart function F(theta, phi)."""
    _check_pole(theta)
    h = step
    f0 = F(theta, phi)
    f_tp = F(theta + h, phi)
    f_tm = F(theta - h, phi)
    d_theta = (f_tp - f_tm) / (2.0 * h)
    d2_theta = (f_tp - 2.0 * f0 + f_tm) / (h * h)
    d2_phi = (F(theta, phi + h) - 2.0 * f0 + F(theta, phi - h)) / (h * h)
    cos_t = math.cos(theta)
    return (d2_theta - math.tan(theta) * d_theta + d2_phi / (cos_t * cos_t)) / (r * r)
