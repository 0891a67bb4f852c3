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
of `sphere_dynamics`. Either way each step takes one PairOperator built at its
start positions and leaves it built at its end positions: K + 1 builds for K
steps, and each snapshot's interaction energy comes with its build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import noise
from .core import ModelParams, PhaseEnsemble, moments
from .errors import MissingSnapshot, ValidationError
from .kernels import KernelSpec, PairOperator
from .relaxation import free_flow
from .sphere_dynamics import advance_limit


@dataclass(frozen=True)
class SimConfig:
    """Run parameters of either regime. The limit step ignores `params.eps`."""

    params: ModelParams
    spec: KernelSpec
    dt: float
    T: float
    snapshot_stride: int = 100
    diffusion: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.T < self.dt:
            raise ValidationError(f"horizon T={self.T} shorter than one step dt={self.dt}")
        if not self.T / self.dt < 2.0**63:   # false for inf and nan too
            raise ValidationError(f"step count T/dt = {self.T / self.dt} must be below 2**63")
        if self.snapshot_stride < 1:
            raise ValidationError(f"snapshot stride must be >= 1, got {self.snapshot_stride}")


@dataclass(frozen=True)
class Trajectory:
    """Ordered snapshots with per-snapshot moments and total energy."""

    cfg: SimConfig
    times: tuple
    snapshots: tuple
    moment_reports: tuple
    energies: tuple

    def __post_init__(self):
        times = np.asarray(self.times)
        if np.any(np.diff(times) <= 0):
            raise ValidationError("snapshot times must be strictly increasing")
        counts = {s.n for s in self.snapshots}
        if len(counts) > 1:
            raise ValidationError("snapshot particle count changed mid-run")

    def snapshot_at(self, t: float):
        k = _snapshot_index(self.times, t, self.cfg.dt)
        if k is None:
            raise MissingSnapshot(f"no snapshot within dt/2 of t={t}")
        return self.snapshots[k]


def _snapshot_index(times, t, dt):
    """The snapshot-time rule: the index of the first of `times` within dt/2
    of t, or None."""
    return next((k for k, tk in enumerate(times) if abs(tk - t) <= 0.5 * dt), None)


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


def _advance(ens: PhaseEnsemble, cfg: SimConfig, step_index: int,
             op: PairOperator, time: float) -> PhaseEnsemble:
    """One Strang step to the new time `time`; `op` is built at ens.x and is
    left built at the new positions."""
    dt = cfg.dt
    p = cfg.params
    shots = (None, None)
    if cfg.diffusion:
        shots = math.sqrt(dt) * noise.gaussian_increments(
            cfg.rng_seed, noise.EPS_DYNAMICS, step_index, (2,) + ens.v.shape)
    half_s = dt / (2.0 * p.eps)
    v = free_flow(ens.v, half_s, p)
    v = _kick(op, v, 0.5 * dt, shots[0])
    x = ens.x + dt * v
    v = _kick(op.build(x), v, 0.5 * dt, shots[1])
    v = free_flow(v, half_s, p)
    return PhaseEnsemble(x=x, v=v, w=ens.w, time=time)


def snapshot_steps(cfg: SimConfig) -> list:
    """Step counts after which `simulate` stores a snapshot: 0 (the initial
    state), every `snapshot_stride`-th step, and the last step."""
    n_steps = int(round(cfg.T / cfg.dt))
    return [0, *range(cfg.snapshot_stride, n_steps, cfg.snapshot_stride), n_steps]


def unstored_times(t0: float, cfg: SimConfig, ts) -> list:
    """The points of ts that `snapshot_at` would miss in a run started at t0."""
    times = [t0 + k * cfg.dt for k in snapshot_steps(cfg)]
    return [t for t in ts if _snapshot_index(times, t, cfg.dt) is None]


def simulate(f_in: PhaseEnsemble, cfg: SimConfig) -> Trajectory:
    """Push the initial ensemble through round(T/dt) steps, storing snapshots
    after the step counts of `snapshot_steps`. An ensemble without a radius
    runs the eps system, one with a radius its sphere limit."""
    steps = snapshot_steps(cfg)
    stored = set(steps)
    advance = _advance if f_in.r is None else advance_limit
    op = PairOperator(f_in.w, cfg.spec).build(f_in.x)
    snaps, pair_energies = [f_in], [op.energy]
    ens = f_in
    for k in range(steps[-1]):
        ens = advance(ens, cfg, k, op, f_in.time + (k + 1) * cfg.dt)
        if k + 1 in stored:
            snaps.append(ens)
            pair_energies.append(op.energy)
    reports = [moments(snap) for snap in snaps]
    energies = [rep.kinetic_energy + e for rep, e in zip(reports, pair_energies)]
    return Trajectory(cfg=cfg, times=tuple(snap.time for snap in snaps),
                      snapshots=tuple(snaps), moment_reports=tuple(reports),
                      energies=tuple(energies))
