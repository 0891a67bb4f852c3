"""Analytics of the speed-relaxation force (alpha - beta |v|^2) v.

The autonomous field has the closed-form flow

    V(s; v) = r e^(alpha s) / sqrt(|v|^2 (e^(2 alpha s) - 1) + r^2) * v

which preserves the direction v/|v| exactly and drives every nonzero speed
monotonically toward r. Backward in time the flow blows up at the finite time
S(v) = (1/2 alpha) ln(1 - r^2/|v|^2) when |v| > r.

Under a bounded forcing of amplitude A the speed balance
lambda_eps(rho) = eps*A + (alpha - beta rho^2) rho controls everything:
its roots bracket the invariant speed band, and their eps-asymptotics are
|A|/alpha and |A|/(2 alpha). The trapping times and the adjoint potential,
which follow from the crossing-time integral of the same flow, are checks
of the suite and live in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import ModelParams
from .errors import FlowBlowup, ValidationError

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


def _rho3_ceiling(eps: float, A: float, params: ModelParams) -> float:
    """r + 2 max(r, 1, (eps A / beta)^(1/3)), above rho3 for A > 0: from
    t = (eps A / beta)^(1/3) on, lambda_eps(r + t) <= -beta (2 r^2 t + 3 r t^2) < 0."""
    return params.r + 2.0 * max(params.r, 1.0, (eps * A) ** (1 / 3) / params.beta ** (1 / 3))


def check_speed_balance(eps: float, A: float, params: ModelParams):
    """ValidationError unless solve_roots(eps, A, params) stays in float range.

    Its brackets reach rho = r for A < 0 and `_rho3_ceiling` for A > 0. There
    lambda forms rho^2, alpha rho and beta rho^3, each of which must be
    finite: an infinite bracket value leaves brentq without a secant."""
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    if not math.isfinite(eps * A):
        raise ValidationError(f"forcing eps*A overflows: eps={eps}, A={A}")
    if A == 0.0:
        return
    rho = params.r if A < 0.0 else _rho3_ceiling(eps, A, params)
    if not math.isfinite(max(rho * rho, params.alpha * rho, params.beta * rho * rho * rho)):
        raise ValidationError(
            f"speed balance past float range: alpha={params.alpha}, beta={params.beta}, "
            f"eps*A={eps * A} bracket roots up to rho={rho}")


def solve_roots(eps: float, A: float, params: ModelParams) -> RootTriple:
    """Brent's method on the sign-analysis brackets: lambda increases on
    [0, r/sqrt(3)] and decreases beyond, so each root is bracketed a priori.
    No Newton steps (the derivative vanishes at rho = r/sqrt(3))."""
    check_speed_balance(eps, A, params)
    r = params.r
    if A == 0.0:
        return RootTriple(rho1=0.0, rho2=r, rho3=r, validity=True)
    f = lambda rho: lambda_eps(rho, eps, A, params)
    if A < 0.0:
        # compared as a product: 1/(3 sqrt(3) |A|) underflows to 0 for huge A
        if eps * abs(A) >= 2.0 * params.alpha * r / (3.0 * math.sqrt(3.0)):
            return RootTriple(rho1=None, rho2=None, rho3=None, validity=False)
        knee = r / math.sqrt(3.0)
        rho1 = _root(f, 0.0, knee)
        rho2 = _root(f, knee, r)
        return RootTriple(rho1=rho1, rho2=rho2, rho3=None, validity=True)
    rho3 = _root(f, r, _rho3_ceiling(eps, A, params))
    return RootTriple(rho1=None, rho2=None, rho3=rho3, validity=True)


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
    vv = _speed_squares(v)
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
    return v * np.where(vv == r2, 1.0, factor)[..., None]


def speed_flow(u: float, s: float, params: ModelParams) -> float:
    """Speed component of the flow: |V(s; v)| for |v| = u."""
    if u == 0.0:
        return 0.0
    return float(abs(free_flow(np.array([u]), s, params)[0]))
