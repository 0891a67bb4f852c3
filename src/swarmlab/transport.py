"""Exact Wasserstein-1 between weighted particle ensembles, plus the
convergence and equicontinuity experiment harness built on top of it.

Ground metric: Euclidean norm on the concatenated (x, v) state, the product
norm under which the field-gap estimate of `kernels.field_gap_bound` is
stated. No entropic regularization anywhere: acceptance tests need exact
optima.

Routing. A pair of uniform-weight measures on n and m atoms is one min-cost
assignment (shortest augmenting path) between L = lcm(n, m) replicas: each
atom carries L/n or L/m unit masses, and the transportation polytope with
those integer supplies and demands is totally unimodular, so the matching
folded back into (i, j, mass) triples is an exact optimal plan. Equal counts
are the case L = n. Non-uniform weights, and uniform pairs whose L exceeds
EXACT_CAP, go through an exact transport LP (HiGHS).

Past a size cap `w1_exact` raises TooLarge, naming the cap it hit.
EXACT_CAP bounds the combined atom count of both solvers and the replica
count L of the assignment; LP_CAP bounds the plan entries n*m of the LP,
checked before any cost matrix is built. On random 2-D phase clouds
(2-CPU Xeon, scipy 1.17.1) a 300x400 pair took 0.39 s as a 1200-replica
assignment against 1.3 s as an LP, and 100x150 took 0.009 s against 0.13 s,
at equal values; the LP took 5.0 s for 500x600.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix
from scipy.spatial.distance import cdist

from .core import ModelParams, project_measure
from .errors import (
    DimensionMismatch,
    MissingSnapshot,
    TooLarge,
    ValidationError,
)
from .eps_dynamics import SimConfig, simulate, snapshot_steps
from .kernels import acceleration
from .relaxation import solve_roots

EXACT_CAP = 2048  # combined atoms of both solvers; replicas of the assignment
LP_CAP = 300_000  # plan entries n*m of the transport LP


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("SWARM_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class W1Report:
    value: float
    plan: tuple          # (i, j, mass) triples
    solver: str          # "assignment" | "lp"
    iterations: int
    residual: float      # worst marginal violation of the plan


def _points(ens) -> np.ndarray:
    return np.hstack([ens.x, ens.v])


def w1_exact(mu, nu) -> W1Report:
    """Exact W1 distance with an optimal plan."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"phase dimensions differ: {mu.dim} vs {nu.dim}")
    n, m = mu.n, nu.n
    if n + m > EXACT_CAP:
        raise TooLarge(
            f"{n}+{m} particles exceed EXACT_CAP, the exact solvers' "
            f"budget of {EXACT_CAP} combined atoms"
        )
    replicas = math.lcm(n, m)
    if replicas <= EXACT_CAP and np.all(mu.w == mu.w[0]) and np.all(nu.w == nu.w[0]):
        return _w1_assignment(_points(mu), _points(nu), replicas)
    if n * m > LP_CAP:
        raise TooLarge(
            f"{n}x{m} transport plan exceeds LP_CAP, the LP's budget "
            f"of {LP_CAP} plan entries"
        )
    return _w1_lp(cdist(_points(mu), _points(nu)), mu.w, nu.w)


def _w1_assignment(a, b, replicas) -> W1Report:
    """Uniform measures on n and m atoms as one assignment between
    `replicas` = lcm(n, m) unit masses, folded back into (i, j, mass)
    triples sorted by (i, j) without duplicate pairs."""
    n, m = len(a), len(b)
    atom_a = np.repeat(np.arange(n), replicas // n)
    atom_b = np.repeat(np.arange(m), replicas // m)
    cost = cdist(a[atom_a], b[atom_b])
    rows, cols = linear_sum_assignment(cost)
    value = float(np.sum(cost[rows, cols]) * (1.0 / replicas))
    pairs, counts = np.unique(atom_a[rows] * m + atom_b[cols], return_counts=True)
    i, j = np.divmod(pairs, m)
    mass = counts / replicas
    residual = max(
        float(np.max(np.abs(np.bincount(i, weights=mass, minlength=n) - 1.0 / n))),
        float(np.max(np.abs(np.bincount(j, weights=mass, minlength=m) - 1.0 / m))),
    )
    plan = tuple(zip(i.tolist(), j.tolist(), mass.tolist()))
    return W1Report(value=value, plan=plan, solver="assignment",
                    iterations=replicas, residual=residual)


def _w1_lp(cost, w_mu, w_nu) -> W1Report:
    n, m = cost.shape
    # Row-sum and column-sum equality constraints on the n*m plan variables.
    idx = np.arange(n * m)
    row_of = idx // m
    col_of = idx % m
    rows = np.concatenate([row_of, n + col_of])
    cols = np.concatenate([idx, idx])
    data = np.ones(2 * n * m)
    a_eq = coo_matrix((data, (rows, cols)), shape=(n + m, n * m)).tocsr()
    b_eq = np.concatenate([w_mu, w_nu])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise ValidationError(f"transport LP failed: {res.message}")
    pi = res.x.reshape(n, m)
    marg_err = max(
        float(np.max(np.abs(pi.sum(axis=1) - w_mu))),
        float(np.max(np.abs(pi.sum(axis=0) - w_nu))),
    )
    nz = np.argwhere(pi > 1e-15)
    plan = tuple((int(i), int(j), float(pi[i, j])) for i, j in nz)
    value = float(np.sum(pi * cost))
    return W1Report(value=value, plan=plan, solver="lp",
                    iterations=int(getattr(res, "nit", 0)), residual=marg_err)


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows of (eps, t, w1, runtime_ms) plus run provenance."""

    rows: tuple
    metadata: dict

    def __post_init__(self):
        by_t = {}
        for row in self.rows:
            by_t.setdefault(row["t"], []).append(row["eps"])
        for t, eps_seq in by_t.items():
            if any(b >= a for a, b in zip(eps_seq, eps_seq[1:])):
                raise ValidationError(f"eps not strictly decreasing at t={t}")

    def w1(self, eps, t):
        for row in self.rows:
            if row["eps"] == eps and row["t"] == t:
                return row["w1"]
        raise MissingSnapshot(f"no table row for eps={eps}, t={t}")


def convergence_study(f_in, eps_list, t_grid, cfg: SimConfig) -> ConvergenceTable:
    """Run the stiff system at each eps and the sphere limit once, all from
    the same initial atoms (the limit starts from the projected measure), and
    tabulate W1 between matching snapshots. A t_grid point that no snapshot
    lands within dt/2 of is rejected before anything is integrated."""
    eps_list = list(eps_list)
    t_grid = sorted(t_grid)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValidationError("eps_list must be strictly decreasing")
    if cfg.diffusion:
        raise ValidationError("convergence study compares the deterministic dynamics")
    horizon = max(max(t_grid), cfg.dt)
    base = replace(cfg, T=horizon)
    snap_times = [f_in.time + k * base.dt for k in snapshot_steps(base)]
    missing = [t for t in t_grid if min(abs(tk - t) for tk in snap_times) > 0.5 * base.dt]
    if missing:
        raise ValidationError(f"t_grid points {missing} lie more than dt/2 from every snapshot "
                              f"time (dt={base.dt}, stride={base.snapshot_stride})")
    lim_traj = simulate(project_measure(f_in, base.params.r), base)
    eps_trajs = {}
    for eps in eps_list:
        params = ModelParams(alpha=base.params.alpha, beta=base.params.beta, eps=eps)
        eps_trajs[eps] = simulate(f_in, replace(base, params=params))

    tasks = [(eps, t) for eps in eps_list for t in t_grid]

    def solve(pair):
        eps, t = pair
        tic = time.perf_counter()
        rep = w1_exact(eps_trajs[eps].snapshot_at(t), lim_traj.snapshot_at(t))
        ms = 1000.0 * (time.perf_counter() - tic)
        return {"eps": eps, "t": t, "w1": rep.value, "runtime_ms": ms}

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        rows = tuple(pool.map(solve, tasks))
    meta = {"n": f_in.n, "seed": cfg.rng_seed}
    return ConvergenceTable(rows=rows, metadata=meta)


@dataclass(frozen=True)
class EquicontinuityReport:
    max_ratio: float
    bound_constant: float
    worst_pair: tuple
    n_pairs: int


def equicontinuity_probe(trajectory, t_pairs) -> EquicontinuityReport:
    """Empirical Lipschitz ratio sup W1(f(t), f(s)) / |t - s| over the given
    pairs, reported against the constant assembled from the measured field
    amplitude: A + beta (r + R0) R0 max((rho3 - r)/eps, (r - rho2)/eps) + R0."""
    ratios = []
    pairs = list(t_pairs)
    for (t, s) in pairs:
        if t == s:
            raise ValidationError("equicontinuity ratio needs t != s")
        rep = w1_exact(trajectory.snapshot_at(t), trajectory.snapshot_at(s))
        ratios.append(rep.value / abs(t - s))
    k = int(np.argmax(ratios))
    cfg = trajectory.cfg
    p = cfg.params
    a_meas = max(acceleration(s, cfg.spec).sup_norm for s in trajectory.snapshots)
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
