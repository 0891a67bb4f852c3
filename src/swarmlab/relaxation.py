"""Analytics of the speed-relaxation force (alpha - beta |v|^2) v.

The autonomous field has the closed-form flow

    V(s; v) = r e^(alpha s) / sqrt(|v|^2 (e^(2 alpha s) - 1) + r^2) * v

which preserves the direction v/|v| exactly and drives every nonzero speed
monotonically toward r. Backward in time the flow blows up at the finite time
S(v) = (1/2 alpha) ln(1 - r^2/|v|^2) when |v| > r.

Under a bounded forcing of amplitude A the speed balance
lambda_eps(rho) = eps*A + (alpha - beta rho^2) rho controls everything:
its roots bracket the invariant speed band, their eps-asymptotics are
|A|/alpha and |A|/(2 alpha), and the crossing-time integral
int d(rho) / ((alpha - beta rho^2) rho) yields both trapping-time bounds and
the adjoint potential solving -(alpha - beta|v|^2) v . grad(phi) = psi for
annulus-supported psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import ModelParams
from .errors import BadBand, FlowBlowup, UnsupportedPsi, ValidationError

RADICAND_GUARD = 1e-12  # relative guard band before declaring blow-up


@dataclass(frozen=True)
class RootTriple:
    """Roots of lambda_eps on the positive axis, with absence encoded as None.

    For A < 0 (and eps |A| below the fold threshold 2 alpha r / (3 sqrt(3))):
    0 < rho1 < r/sqrt(3) < rho2 < r. For A > 0: a single root rho3 > r.
    """

    rho1: float | None
    rho2: float | None
    rho3: float | None
    A: float
    eps: float
    validity: bool


def lambda_eps(rho: float, eps: float, A: float, params: ModelParams) -> float:
    """Forced speed balance eps*A + (alpha - beta rho^2) rho."""
    if np.any(np.asarray(rho) < 0):
        raise ValidationError(f"rho must be nonnegative, got {rho}")
    return eps * A + (params.alpha - params.beta * rho**2) * rho


def _root(f, lo, hi):
    # xtol far below any root: brentq then stops at its relative tolerance,
    # a few ulps of the root; a bracket without a sign change raises
    return brentq(f, lo, hi, xtol=1e-300)


def solve_roots(eps: float, A: float, params: ModelParams) -> RootTriple:
    """Brent's method on the sign-analysis brackets: lambda increases on
    [0, r/sqrt(3)] and decreases beyond, so each root is bracketed a priori.
    No Newton steps (the derivative vanishes at rho = r/sqrt(3))."""
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    if not math.isfinite(eps * A):
        raise ValidationError(f"forcing eps*A overflows: eps={eps}, A={A}")
    r = params.r
    if A == 0.0:
        return RootTriple(rho1=0.0, rho2=r, rho3=r, A=A, eps=eps, validity=True)
    f = lambda rho: lambda_eps(rho, eps, A, params)
    if A < 0.0:
        # compared as a product: 1/(3 sqrt(3) |A|) underflows to 0 for huge A
        if eps * abs(A) >= 2.0 * params.alpha * r / (3.0 * math.sqrt(3.0)):
            return RootTriple(rho1=None, rho2=None, rho3=None, A=A, eps=eps,
                              validity=False)
        knee = r / math.sqrt(3.0)
        rho1 = _root(f, 0.0, knee)
        rho2 = _root(f, knee, r)
        return RootTriple(rho1=rho1, rho2=rho2, rho3=None, A=A, eps=eps,
                          validity=True)
    hi = r + max(r, 1.0)
    while f(hi) >= 0.0:
        hi = r + 2.0 * (hi - r)
    rho3 = _root(f, r, hi)
    return RootTriple(rho1=None, rho2=None, rho3=rho3, A=A, eps=eps, validity=True)


def root_asymptotics(A: float, params: ModelParams):
    """Limits as eps -> 0 of (rho1/eps, (r - rho2)/eps, (rho3 - r)/eps)."""
    if A == 0.0:
        raise ValidationError("asymptotics need a nonzero forcing amplitude")
    a = abs(A) / params.alpha
    return (a, 0.5 * a, 0.5 * a)


def _speed_squares(v: np.ndarray) -> np.ndarray:
    """|v|^2 along the last axis; ValidationError where it is past float range."""
    with np.errstate(over="ignore"):  # reported below as a config problem, not warned
        vv = np.sum(v * v, axis=-1)
    if not np.all(np.isfinite(vv)):
        raise ValidationError("flow needs a finite |v|^2 for every particle")
    return vv


def blowup_time(v, params: ModelParams) -> float:
    """Backward blow-up time of the flow through v: -inf for |v| <= r.
    Raises ValidationError when |v|^2 is not finite."""
    vv = float(_speed_squares(np.asarray(v, dtype=float)))
    r2 = params.r**2
    if vv <= r2:
        return -math.inf
    # log1p keeps S(v) strictly negative even when r^2/|v|^2 underflows
    return math.log1p(-r2 / vv) / (2.0 * params.alpha)


def free_flow(v, s: float, params: ModelParams) -> np.ndarray:
    """Closed-form relaxation flow, vectorized over particles.

    Accepts a single velocity (d,) or a stack (n, d). Directions are
    preserved exactly (scalar multiple of the input); velocities already on
    the equilibrium sphere are returned unchanged. Raises FlowBlowup when s
    lies at or below the backward blow-up time of some particle, and
    ValidationError when some |v|^2 is not finite.
    """
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    vs = v[None, :] if single else v
    vv = _speed_squares(vs)
    r2 = params.r**2
    if s >= 0.0:
        # q = |V|^(-2) r^2 |v|^2 rearranged to avoid e^(2 alpha s) overflow.
        damp = math.exp(-2.0 * params.alpha * s)
        q = vv + damp * (r2 - vv)
        factor = params.r / np.sqrt(q)
    else:
        grow = math.exp(2.0 * params.alpha * s)
        q = vv * (grow - 1.0) + r2
        guard = RADICAND_GUARD * np.maximum(r2, vv * grow)
        if np.any(q <= guard):
            raise FlowBlowup(
                f"flow time s={s} at or below blow-up for a particle "
                f"(min radicand {float(np.min(q)):.3e})"
            )
        factor = params.r * math.exp(params.alpha * s) / np.sqrt(q)
    factor = np.where(vv == r2, 1.0, factor)
    out = vs * factor[:, None]
    return out[0] if single else out


def speed_flow(u: float, s: float, params: ModelParams) -> float:
    """Speed component of the flow: |V(s; v)| for |v| = u."""
    if u == 0.0:
        return 0.0
    return float(np.sqrt(np.sum(free_flow(np.array([u]), s, params) ** 2)))


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
    # imported here: scipy.integrate would add its load time to `import swarmlab`
    from scipy.integrate import quad

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
