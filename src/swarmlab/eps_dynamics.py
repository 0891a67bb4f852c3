"""Time integration of the stiff particle system at scale separation eps.

The velocity equation dv/dt = a + (1/eps)(alpha - beta|v|^2) v is split so
that the stiff term never has to be resolved by the time step: the relaxation
substep applies the closed-form flow at rescaled time s = t/eps, which is
exact for any eps. The composition is Strang,

    R(dt/2) . K(dt/2) . D(dt) . K(dt/2) . R(dt/2)

with D the free transport of positions and K the interaction kick. The kick
field is re-evaluated at the substep midpoint (positions frozen): a plain
frozen-field Euler kick leaves an O(dt^2) defect per step from the velocity
dependence of the alignment force, which would drop the whole composition to
first order.

Both kicks of a step, and the first kick of the next, see frozen positions,
so the pair sums are built once per position state (kernels.PairOperator):
a K-step Strang run makes K + 1 builds, and each kick costs two matvecs.

The diffusive variant adds, per half-kick, an increment sqrt(2) N(0, (dt/2) I)
drawn from a counter-based stream keyed by (seed, step), so trajectories are
reproducible at any worker count.

`simulate` integrates both regimes: an ensemble without a radius takes the
splitting step above, one with a radius r (speeds fixed at r) the limit step
of `sphere_dynamics`. Either step maps (x, v) to (x, v), taking one
PairOperator built at its start positions and leaving it built at its end
positions: K + 1 builds for K steps, and each snapshot's interaction energy
comes with its build. `simulate` yields each stored snapshot and its energy
as the run reaches it and keeps none, and it alone makes snapshot ensembles.
It turns a step that overflows, makes an invalid value or, on the sphere,
turns omega past `sphere_dynamics.MAX_TURN` into a `Diverged` naming the step
and time. A run is `SimConfig.steps` steps, so it ends on the step grid at
T = steps*dt. Which snapshot a time point means is read off the config
(`snapshot_indices`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import noise
from .core import ModelParams, PhaseEnsemble
from .errors import Diverged, ValidationError
from .kernels import KernelSpec, PairOperator
from .relaxation import free_flow
from .sphere_dynamics import advance_limit


@dataclass(frozen=True)
class SimConfig:
    """`steps` steps of dt in either regime. The limit step ignores `params.eps`."""

    params: ModelParams
    spec: KernelSpec
    dt: float
    steps: int
    snapshot_stride: int = 100
    diffusion: bool = False
    rng_seed: int = 0
    T = property(lambda self: self.steps * self.dt, doc="The horizon, steps * dt.")

    def __post_init__(self):
        if not self.dt > 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if not noise.is_int(self.steps, 1, 2**63):
            raise ValidationError(f"steps must be an integer in [1, 2**63), got {self.steps!r}")
        if not noise.is_int(self.snapshot_stride, 1, math.inf):
            raise ValidationError(
                f"snapshot stride must be a positive integer, got {self.snapshot_stride!r}")
        if not isinstance(self.diffusion, bool):  # its truth value switches the noise on
            raise ValidationError(f"diffusion must be a bool, got {self.diffusion!r}")
        if not noise.is_seed(self.rng_seed):
            raise ValidationError(
                f"rng_seed must be an integer in [0, 2**64), got {self.rng_seed!r}")


def _kick(op, v, tau, shot=None):
    """Interaction kick over time tau with positions frozen at those `op` was
    built on; midpoint re-evaluation keeps the substep second order in tau.
    `shot` is an optional pre-scaled Gaussian increment (Euler-Maruyama,
    additive)."""
    vm = v + (0.5 * tau) * op.field(v)
    out = v + tau * op.field(vm)
    if shot is not None:
        out = out + shot
    return out


def _advance(x, v, cfg: SimConfig, step_index: int, op: PairOperator):
    """One Strang step of (x, v); `op` is built at x and is left built at the
    new positions."""
    dt = cfg.dt
    p = cfg.params
    shots = (None, None)
    if cfg.diffusion:
        shots = math.sqrt(dt) * noise.gaussian_increments(
            cfg.rng_seed, noise.EPS_DYNAMICS, step_index, (2,) + v.shape)
    half_s = dt / (2.0 * p.eps)
    v = free_flow(v, half_s, p)
    v = _kick(op, v, 0.5 * dt, shots[0])
    x = x + dt * v
    v = _kick(op.build(x), v, 0.5 * dt, shots[1])
    v = free_flow(v, half_s, p)
    return x, v


def snapshot_steps(cfg: SimConfig) -> list:
    """Step counts after which `simulate` stores a snapshot: 0 (the initial
    state), every `snapshot_stride`-th step, and the last step."""
    return [0, *range(cfg.snapshot_stride, cfg.steps, cfg.snapshot_stride), cfg.steps]


def snapshot_indices(t0: float, cfg: SimConfig, ts) -> list:
    """The snapshot-time rule: for each t of ts, the index of the first stored
    time t0 + k*dt (k in `snapshot_steps`) within dt/2 of t in a run started
    at t0. ValidationError names the points no snapshot lands that near."""
    times = [t0 + k * cfg.dt for k in snapshot_steps(cfg)]
    found = [next((k for k, tk in enumerate(times) if abs(tk - t) <= 0.5 * cfg.dt), None)
             for t in ts]
    missing = [t for t, k in zip(ts, found) if k is None]
    if missing:
        raise ValidationError(f"t_grid points {missing} lie more than dt/2 from every snapshot "
                              f"time (dt={cfg.dt}, stride={cfg.snapshot_stride})")
    return found


def simulate(f_in: PhaseEnsemble, cfg: SimConfig):
    """Push the initial ensemble through `cfg.steps` steps, yielding
    (snapshot, pair energy) after each step count of `snapshot_steps`, f_in
    itself first. An ensemble without a radius runs the eps system, one with
    a radius its sphere limit. Snapshot times not strictly increasing are
    rejected at the first item, before any build."""
    stored = {k: f_in.time + k * cfg.dt for k in snapshot_steps(cfg)}
    times = list(stored.values())
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError(f"snapshot times {f_in.time} + k*{cfg.dt} must strictly increase")
    advance = _advance if f_in.r is None else partial(advance_limit, r=f_in.r)
    op = PairOperator(f_in.w, cfg.spec).build(f_in.x)
    yield f_in, op.energy
    x, v = f_in.x, f_in.v
    for k in range(1, cfg.steps + 1):
        try:
            with np.errstate(over="raise", invalid="raise"):
                x, v = advance(x, v, cfg, k - 1, op)
        except (FloatingPointError, ValidationError, Diverged) as exc:
            # free_flow's non-finite |v|^2; the limit step's turn bound
            raise Diverged(f"run diverged in step {k} (t={f_in.time + k * cfg.dt}): {exc}") from exc
        if k in stored:
            yield PhaseEnsemble(x, v, f_in.w, stored[k], f_in.r), op.energy
