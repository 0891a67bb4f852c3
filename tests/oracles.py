"""Closed-form reference evaluators for the kernel families and 3D charts.

Each function writes its family's formula out from the spec's name and
parameters (the table in `builtin_kernels`' docstring) and never calls the
spec's profiles, so a wrong profile in `swarmlab.kernels` shows up as a gap
between the pair sums and these oracles. A composed spec is split into its
potential and weight parts.

The kernel evaluators are vectorized over leading axes: potential and
align_weight map (..., d) -> (...), the gradients map (..., d) -> (..., d),
and hess_potential maps (d,) -> (d, d).
"""

import math

import numpy as np

from swarmlab.errors import PoleSingularity
from swarmlab.sphere_dynamics import POLE_BAND


def _family(spec, part):
    """(family name, params) of the potential or weight part of a spec."""
    if "+" in spec.name:
        names = dict(zip(("potential", "weight"), spec.name.split("+")))
        return names[part], spec.params[part]
    return spec.name, spec.params


def _sq(x):
    x = np.asarray(x, dtype=float)
    return x, np.sum(x * x, axis=-1)


def _gaussian_terms(p, s):
    """exp(-s/l_A^2) and exp(-s/l_R^2) of U = -C_A e_A + C_R e_R."""
    return np.exp(-s / p["l_A"] ** 2), np.exp(-s / p["l_R"] ** 2)


def potential(spec, x):
    x, s = _sq(x)
    name, p = _family(spec, "potential")
    if name != "gaussian_attraction_repulsion":
        return np.zeros(s.shape)
    e_a, e_r = _gaussian_terms(p, s)
    return -p["C_A"] * e_a + p["C_R"] * e_r


def _gaussian_dU(p, s):
    """dU/ds and d^2U/ds^2 of the Gaussian potential at s = |x|^2."""
    e_a, e_r = _gaussian_terms(p, s)
    a2, r2 = p["l_A"] ** 2, p["l_R"] ** 2
    return (p["C_A"] / a2 * e_a - p["C_R"] / r2 * e_r,
            -p["C_A"] / a2**2 * e_a + p["C_R"] / r2**2 * e_r)


def grad_potential(spec, x):
    x, s = _sq(x)
    name, p = _family(spec, "potential")
    if name != "gaussian_attraction_repulsion":
        return np.zeros(x.shape)
    return 2.0 * _gaussian_dU(p, s)[0][..., None] * x


def hess_potential(spec, x):
    """2 U'(s) I + 4 U''(s) x x^T at a single point x."""
    x, s = _sq(x)
    name, p = _family(spec, "potential")
    if name != "gaussian_attraction_repulsion":
        return np.zeros((x.shape[-1], x.shape[-1]))
    du, d2u = _gaussian_dU(p, s)
    return 2.0 * du * np.eye(x.shape[-1]) + 4.0 * d2u * np.outer(x, x)


def align_weight(spec, x):
    x, s = _sq(x)
    name, p = _family(spec, "weight")
    if name == "cucker_smale_weight":
        return p["K"] / (1.0 + s) ** p["gamma"]
    if name == "constant_weight":
        return np.full(s.shape, p["K"])
    return np.zeros(s.shape)


def grad_align_weight(spec, x):
    x, s = _sq(x)
    name, p = _family(spec, "weight")
    if name != "cucker_smale_weight":
        return np.zeros(x.shape)
    gamma = p["gamma"]
    return (-2.0 * gamma * p["K"] * (1.0 + s) ** (-gamma - 1.0))[..., None] * x


def _check_pole(theta):
    if abs(math.sin(theta)) >= 1.0 - POLE_BAND:
        raise PoleSingularity(f"chart operation undefined within {POLE_BAND} of a pole")


def tangent_frame_3d(theta, phi):
    """Coordinate frame (e_theta, e_phi) of the chart
    omega = r (cos t cos p, cos t sin p, sin t): |e_theta| = 1, |e_phi| = cos t."""
    _check_pole(theta)
    e_theta = np.array([-math.sin(theta) * math.cos(phi),
                        -math.sin(theta) * math.sin(phi),
                        math.cos(theta)])
    e_phi = np.array([-math.cos(theta) * math.sin(phi),
                      math.cos(theta) * math.cos(phi),
                      0.0])
    return e_theta, e_phi


def spherical_divergence_3d(xi_theta, xi_phi, theta, phi, r, step=1e-4):
    """(1/r) { (1/cos t) d_t(xi_theta cos t) + d_p xi_phi } by central
    differences, for a tangent field given through its frame components."""
    _check_pole(theta)
    h = step

    def g(t):
        return xi_theta(t, phi) * math.cos(t)

    d_theta = (g(theta + h) - g(theta - h)) / (2.0 * h)
    d_phi = (xi_phi(theta, phi + h) - xi_phi(theta, phi - h)) / (2.0 * h)
    return (d_theta / math.cos(theta) + d_phi) / r
