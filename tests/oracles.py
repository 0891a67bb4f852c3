"""The paper's analytic facts as executable checks; the package never calls
anything here.

- Kernel evaluators and bound formulas, keyed on the spec's name and
  parameters (the table in `builtin_kernels`' docstring; a composed spec is
  split into its parts). They never call the spec's profiles, so a wrong
  profile in `swarmlab.kernels` shows up as a gap between the pair sums and
  these oracles. potential and align_weight map (..., d) -> (...), the
  gradients (..., d) -> (..., d), hess_potential (d,) -> (d, d); `sup_norms`
  gives each family's closed-form sup norms, `field_gap_bound` the
  W1-Lipschitz constant of the field gap.
- Relaxation: crossing times, the trapping-time bounds, the adjoint
  potential and its sup bound.
- Sphere: three routes to the intrinsic Laplacian; the 3D chart point, frame
  and divergence, whose chart operations exclude POLE_BAND around the poles.
- Alignment: the Moebius family that solves noiseless `constant_weight`
  alignment on the circle exactly (the Cucker-Smale-to-Vicsek reduction).
- Harnesses over whole runs, built on the program's field and W1:
  `support_in_band` and the equicontinuity probe.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from swarmlab.core import ModelParams, PhaseEnsemble
from swarmlab.eps_dynamics import snapshot_indices
from swarmlab.errors import ValidationError, ZeroVelocityParticle
from swarmlab.relaxation import free_flow, solve_roots
from swarmlab.transport import w1_exact

from conftest import field_sup

POLE_BAND = 1e-10  # excluded |sin(theta)| margin for chart-based operations


class BadBand(ValueError):
    """Speed-band ordering violated (expects 0 < lo < r < hi, or lo <= hi)."""


class UnsupportedPsi(ValueError):
    """Test function support touches the origin or the equilibrium sphere."""


class PoleSingularity(ValueError):
    """Spherical-coordinate operation evaluated too close to a pole."""


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


SupNorms = namedtuple("SupNorms", "norm_U_hess norm_grad_U norm_h norm_grad_h")


def sup_norms(spec) -> SupNorms:
    """Certified sup-norm bounds of a spec's ingredients, in closed form."""
    name, p = _family(spec, "potential")
    hess_bound = grad_bound = 0.0
    if name == "gaussian_attraction_repulsion":
        c_a, l_a, c_r, l_r = p["C_A"], p["l_A"], p["C_R"], p["l_R"]
        # Single-Gaussian bounds attained at the origin (Hessian) and at
        # rho = ell/sqrt(2) (gradient); the sum is bounded by the triangle
        # inequality, exact whenever one amplitude is zero.
        hess_bound = 2 * c_a / l_a**2 + 2 * c_r / l_r**2
        grad_bound = math.sqrt(2.0) * math.exp(-0.5) * (c_a / l_a + c_r / l_r)
    name, p = _family(spec, "weight")
    norm_h = norm_grad_h = 0.0
    if name == "cucker_smale_weight":
        k, gamma = p["K"], p["gamma"]
        # |grad h| = 2 gamma k rho (1+rho^2)^(-gamma-1) peaks at rho^2 = 1/(2 gamma + 1).
        rho_star = 1.0 / math.sqrt(2.0 * gamma + 1.0)
        norm_h = k
        norm_grad_h = 2.0 * gamma * k * rho_star * (1.0 + rho_star**2) ** (-(gamma + 1.0))
    elif name == "constant_weight":
        norm_h = p["K"]
    return SupNorms(hess_bound, grad_bound, norm_h, norm_grad_h)


def field_gap_bound(norms: SupNorms, R: float) -> float:
    """Lipschitz constant tying the field gap of two measures to their W1 gap:
    ||a_f - a_g||_inf <= field_gap_bound(sup_norms(spec), R) * W1(f, g)
    whenever both measures live in velocities of norm at most R."""
    if not R > 0:
        raise ValidationError(f"speed-support radius must be positive, got {R}")
    return norms.norm_U_hess + math.sqrt(norms.norm_h**2 + 4.0 * R**2 * norms.norm_grad_h**2)


# ---------------------------------------------------------------------------
# Relaxation: the crossing-time integral int d(rho) / ((alpha - beta rho^2) rho).
# ---------------------------------------------------------------------------

def crossing_time(rho_a: float, rho_b: float, params: ModelParams) -> float:
    """Time for the flow to carry speed rho_a to rho_b, i.e. the integral of
    d(rho) / ((alpha - beta rho^2) rho) between them. Both speeds must lie
    strictly on the same side of the sphere (neither touching 0 nor r)."""
    r2 = params.r**2
    for rho in (rho_a, rho_b):
        if rho <= 0 or rho == params.r:
            raise ValidationError(f"crossing time undefined at rho={rho}")
    same_side = (rho_a < params.r) == (rho_b < params.r)
    if not same_side:
        raise ValidationError("speeds lie on opposite sides of the sphere")
    ratio = (rho_b**2 * (rho_a**2 - r2)) / (rho_a**2 * (rho_b**2 - r2))
    return math.log(ratio) / (2.0 * params.alpha)


def trapping_time_bounds(r0: float, R0: float, eps: float, params: ModelParams):
    """Worst-case times to reach the eps-widened invariant band:
    from below (speed r0) and from above (speed R0)."""
    r = params.r
    if not (0 < r0 < r < R0):
        raise BadBand(f"need 0 < r0 < r < R0, got r0={r0}, r={r}, R0={R0}")
    if eps >= r - r0 or eps >= R0 - r:
        raise BadBand(f"eps={eps} too large for positive log in the bounds")
    t1 = eps / (2.0 * params.beta * r0**2) * math.log((r - r0) / eps)
    t2 = eps / (2.0 * params.beta * r**2) * math.log((R0 - r) / eps)
    return (t1, t2)


def adjoint_potential(psi, v, params: ModelParams, support, tol: float = 1e-10) -> float:
    """Bounded C1 potential phi with -(alpha - beta|v|^2) v . grad(phi) = psi.

    psi must be continuous with support inside the two open annuli
    r1 < |v| < r2 < r and r < r3 < |v| < r4 given by ``support``; phi is the
    line integral of psi along the closed-form flow over the finite window in
    which the trajectory crosses the support. phi vanishes for |v| <= r1 and
    is constant along rays through the support gaps, which makes it constant
    on r2 <= |v| <= r3 (including the equilibrium sphere itself).
    """
    r1, r2, r3, r4 = support
    r = params.r
    if not (0.0 < r1 < r2 < r < r3 < r4):
        raise UnsupportedPsi(
            f"support radii must satisfy 0 < r1 < r2 < r < r3 < r4, got {support}"
        )
    v = np.asarray(v, dtype=float)
    u = float(np.sqrt(np.sum(v * v)))

    def line_integral(start, t0, t1):
        return quad(lambda t: psi(free_flow(start, t, params)), t0, t1,
                    epsabs=tol, epsrel=0.0)[0]

    def phi_inner(speed, direction):
        # -int_{tau1}^{0} psi(V(tau; speed*dir)) dtau, tau1 = flow time back to r1
        if speed <= r1:
            return 0.0
        start = direction * speed
        tau1 = crossing_time(speed, r1, params)  # negative
        return -line_integral(start, tau1, 0.0)

    if u <= r1:
        return 0.0
    direction = v / u
    if u < r2:
        return phi_inner(u, direction)
    base = phi_inner(r2, direction)
    if u <= r3:
        return base
    u_eff = min(u, r4)  # phi is constant along rays beyond r4
    start = direction * u_eff
    tau3 = crossing_time(u_eff, r3, params)  # positive: outward flow decays to r3
    outer = line_integral(start, 0.0, tau3)
    return base + outer


def adjoint_sup_bound(params: ModelParams, support, psi_sup: float) -> float:
    """Crossing-time bound |phi| <= (T(r1->r2) + T(r4->r3)) * sup|psi|."""
    r1, r2, r3, r4 = support
    t_in = crossing_time(r1, r2, params)
    t_out = crossing_time(r4, r3, params)
    return (t_in + t_out) * psi_sup


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


def sphere_point_3d(theta: float, phi: float, r: float) -> np.ndarray:
    return r * np.array([math.cos(theta) * math.cos(phi),
                         math.cos(theta) * math.sin(phi),
                         math.sin(theta)])


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


# ---------------------------------------------------------------------------
# Exact alignment solution: Cucker-Smale reduces to Vicsek (Kuramoto) on the
# sphere.
# ---------------------------------------------------------------------------

def mobius_alignment(n: int, q0: float, K: float, r: float, t: float):
    """The noiseless sphere limit in d = 2 of `constant_weight` alignment at
    gain K, where every particle turns by theta_i' = (K |J| / r) sin(psi -
    theta_i) toward the direction psi of the mean velocity J. Started from
    omega_j(0) = r M_q0(w_j), w_j = e^(2 pi i j / n), with the Moebius map
    M_q(z) = (z + q) / (1 + conj(q) z) and a real q0 in (0, 1), the motion
    stays in that family (Watanabe & Strogatz, Physica D 74, 1994):

        omega_j(t) = r M_q(t)(w_j),  q(t)^2 = q0^2 e^(Kt) / (1 - q0^2 + q0^2 e^(Kt)),

    which solves q' = (K/2) q (1 - q^2), while J = r q up to a term of order
    q^n. Positions move by x_j(t) - x_j(0) = r (F_j(q(t)) - F_j(q0)), with
    F_j(q) = (2 artanh(q) + 2 w_j log(q / (1 + q w_j))) / K the antiderivative
    of M_q(w_j) dt = 2 M_q(w_j) dq / (K q (1 - q^2)). Returns the displacement
    and omega at time t as (n, 2) arrays. ValueError when q(t)^n reaches
    1e-16, where the family stops being exact to rounding."""
    if not 0.0 < q0 < 1.0:
        raise ValueError(f"need a real q0 in (0, 1), got {q0}")
    grow = q0 * q0 * math.exp(K * t)
    q = math.sqrt(grow / (1.0 - q0 * q0 + grow))
    if q**n >= 1e-16:
        raise ValueError(f"q(t)^n = {q**n:.3g} is not below 1e-16: take more particles")
    w = np.exp(2j * math.pi * np.arange(n) / n)

    def antiderivative(p):
        return (2.0 * math.atanh(p) + 2.0 * w * np.log(p / (1.0 + p * w))) / K

    omega = r * (w + q) / (1.0 + q * w)
    dx = r * (antiderivative(q) - antiderivative(q0))
    return (np.column_stack([dx.real, dx.imag]),
            np.column_stack([omega.real, omega.imag]))


# ---------------------------------------------------------------------------
# Harnesses over whole runs.
# ---------------------------------------------------------------------------

def coupling_bound(mu: PhaseEnsemble, nu: PhaseEnsemble) -> float:
    """sum_i w_i |z_i - z'_i|, the cost of the plan that sends atom i of mu to
    atom i of nu in the (x, v) norm of `w1_exact`: an upper bound on W1(mu,
    nu) in O(N), tight for two runs from the same atoms that stay close.
    Needs equal counts and weights."""
    if mu.n != nu.n or not np.array_equal(mu.w, nu.w):
        raise ValueError("the coupling bound needs equal counts and weights")
    gap = np.hstack([mu.x - nu.x, mu.v - nu.v])
    return float(np.sum(mu.w * np.linalg.norm(gap, axis=1)))


def support_in_band(ens: PhaseEnsemble, lo: float, hi: float) -> bool:
    """True iff every particle speed lies in [lo, hi]."""
    if lo > hi:
        raise BadBand(f"need lo <= hi, got [{lo}, {hi}]")
    speeds = ens.speeds()
    return bool(np.all(speeds >= lo) and np.all(speeds <= hi))


@dataclass(frozen=True)
class EquicontinuityReport:
    max_ratio: float
    bound_constant: float
    worst_pair: tuple
    n_pairs: int


def equicontinuity_probe(trajectory, cfg, t_pairs) -> EquicontinuityReport:
    """Empirical Lipschitz ratio sup W1(f(t), f(s)) / |t - s| over the given
    pairs of a trajectory `simulate` ran under cfg, reported against the
    constant assembled from the measured field amplitude:
    A + beta (r + R0) R0 max((rho3 - r)/eps, (r - rho2)/eps) + R0."""
    ratios = []
    pairs = list(t_pairs)
    if not pairs:
        raise ValidationError("equicontinuity probe needs at least one (t, s) "
                              "pair; the pair list is empty")
    for (t, s) in pairs:
        if t == s:
            raise ValidationError("equicontinuity ratio needs t != s")
        k_t, k_s = snapshot_indices(trajectory.times[0], cfg, [t, s])
        rep = w1_exact(trajectory.snapshots[k_t], trajectory.snapshots[k_s])
        ratios.append(rep.value / abs(t - s))
    k = int(np.argmax(ratios))
    p = cfg.params
    a_meas = max(field_sup(s, cfg.spec) for s in trajectory.snapshots)
    r0_meas = max(rep.speed_max for rep in trajectory.moment_reports)
    low = solve_roots(p.eps, -a_meas, p) if a_meas > 0 else None
    high = solve_roots(p.eps, a_meas, p) if a_meas > 0 else None
    if a_meas == 0.0:
        band = 0.0
    elif low is not None and low.validity and high.rho3 is not None:
        band = max((high.rho3 - p.r) / p.eps, (p.r - low.rho2) / p.eps)
    else:
        band = math.inf
    const = a_meas + p.beta * (p.r + r0_meas) * r0_meas * band + r0_meas
    return EquicontinuityReport(max_ratio=float(max(ratios)), bound_constant=const,
                                worst_pair=pairs[k], n_pairs=len(pairs))
