"""Exact Wasserstein-1 between weighted particle ensembles, plus the
convergence study built on top of it.

Ground metric: Euclidean norm on the concatenated (x, v) state, the product
norm under which the paper's W1-Lipschitz field-gap estimate is stated (its
constant is checked in `tests/oracles.py`). No entropic regularization
anywhere: acceptance tests need exact optima.

Routing, decided once by `exact_solver` before any cost matrix is built.
EXACT_CAP is the atom count of one exact solve. Uniform weights on n and m
atoms with L = lcm(n, m) <= EXACT_CAP are one min-cost assignment (shortest
augmenting path) between L replicas: each atom carries L/n or L/m unit
masses, and the transportation polytope with those integer supplies and
demands is totally unimodular, so the matching folded back into (i, j, mass)
triples is an exact optimal plan. Equal counts are the case L = n. Every
other pair takes an exact transport LP (HiGHS; scipy.sparse Kronecker
products give its row- and column-sum constraints) within n + m <= EXACT_CAP
and n*m <= LP_CAP plan entries; past those TooLarge names the bound exceeded.
Both solvers return their plan, and `w1_exact` alone makes the report: its
`residual` is the worst marginal violation of the plan it reports.
On random 2-D phase clouds (2-CPU Xeon, scipy 1.17.1) the assignment took
0.35 s at 1500x1500 and 0.89 s at 1024 vs 2048; a 300x400 pair took 0.39 s
as a 1200-replica assignment against 1.3 s as an LP, which took 5.0 s at
500x600.

Equal counts first try a certificate that needs no cost matrix. A KDTree of
nu's points gives each atom i of mu its nearest column near(i); when `near`
hits every column once it is an optimal plan, because every permutation t has
sum_i c(i, t(i)) >= sum_i min_j c(i, j) = sum_i c(i, near(i)). The tree sums
the squared coordinate differences in order and takes one square root, as
cdist does, so a certified report is the dense assignment's to the last bit.
A sweep compares runs from shared atoms, so most of its pairs certify: at
N=1024 the tree and its query take 0.8-1.8 ms, where cdist takes 3.1-4.3 ms
and the assignment 7.5-9.8 ms (2-CPU Xeon, scipy 1.17.1, `sweep_align` seeds
0 and 57); a pair that fails the certificate pays for both. The cost matrix
is still allocated before the tree: built first, the tree's small arrays
split the freed pair buffer that the matrix would reuse, and a sweep's peak
RSS grew by one matrix.

scipy.optimize is imported by the solve that first calls it: the LP, or an
assignment past the certificate. A process whose pairs all certify (a
coupled `compare`, a sweep whose every pair certifies) never loads it, and
saves its import, about 0.1 s on the machine above.

`convergence_study` checks its inputs, then runs its trajectories, then its
distinct W1 solves, on SWARM_THREADS lanes (default 1): the calling thread is
lane 0, and each run or solve is computed whole on one lane by the same
operations, so the rows it returns are byte-identical at any lane count.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.spatial import KDTree
from scipy.spatial.distance import cdist

from .core import project_measure
from .errors import DimensionMismatch, NumericAbort, TooLarge, ValidationError
from .eps_dynamics import SimConfig, simulate, snapshot_indices

EXACT_CAP = 2048  # atoms in one exact solve: replicas L, or n + m for the LP
LP_CAP = 300_000  # plan entries n*m of the transport LP


def _worker_count() -> int:
    """SWARM_THREADS lanes: 1 when unset or empty, else a decimal integer >= 1."""
    text = os.environ.get("SWARM_THREADS", "")
    if text and not (text.isdecimal() and int(text) >= 1):
        raise ValidationError(f"SWARM_THREADS must be an integer >= 1, got {text!r}")
    return int(text or 1)


def _lanes_map(fn, items) -> list:
    """[fn(item) for item in items] on lanes = min(_worker_count(), len(items))
    threads, the calling thread lane 0: item k runs on lane k % lanes, each
    lane in item order, and one lane starts no thread. A lane stops at its
    first failure. Once every lane has finished, the first failing item's
    exception in item order is raised, the one the serial loop would raise."""
    items = list(items)
    lanes = max(1, min(_worker_count(), len(items)))
    results = [None] * len(items)
    failed = {}  # item index -> its exception

    def lane(first):
        for k in range(first, len(items), lanes):
            try:
                results[k] = fn(items[k])
            except BaseException as exc:  # re-raised by the caller below
                failed[k] = exc
                return

    threads = [threading.Thread(target=lane, args=(i,), name=f"swarmlab-lane-{i}")
               for i in range(1, lanes)]
    for thread in threads:
        thread.start()
    try:
        lane(0)
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[min(failed)]
    return results


@dataclass(frozen=True)
class W1Report:  # field order is the key order of compare's w1_report.json
    value: float
    solver: str          # "assignment" | "lp"
    iterations: int
    residual: float      # worst marginal violation of the plan
    plan: tuple          # (i, j, mass) triples


def _points(ens) -> np.ndarray:
    return np.hstack([ens.x, ens.v])


def exact_solver(w_mu, w_nu) -> str:
    """The exact solver for measures with weight vectors w_mu and w_nu:
    "assignment" for uniform weights with lcm(n, m) <= EXACT_CAP, else "lp"
    within n + m <= EXACT_CAP and n*m <= LP_CAP; TooLarge past those."""
    n, m = len(w_mu), len(w_nu)
    if (math.lcm(n, m) <= EXACT_CAP
            and np.all(w_mu == w_mu[0]) and np.all(w_nu == w_nu[0])):
        return "assignment"
    if n + m <= EXACT_CAP and n * m <= LP_CAP:
        return "lp"
    raise TooLarge(f"{n}+{m} atoms exceed EXACT_CAP, the {EXACT_CAP} atoms of one exact solve"
                   if n + m > EXACT_CAP else
                   f"{n}x{m} transport plan exceeds LP_CAP, the LP's {LP_CAP} plan entries")


def w1_exact(mu, nu) -> W1Report:
    """Exact W1 with an optimal plan, from the solver `exact_solver` picks. Each
    returns (value, i, j, mass, iterations), the plan's nonzero entries sorted
    by (i, j); `residual` is that plan's worst violation of mu.w or nu.w."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"phase dimensions differ: {mu.dim} vs {nu.dim}")
    solver = exact_solver(mu.w, nu.w)
    solve = _w1_assignment if solver == "assignment" else _w1_lp
    value, i, j, mass, iterations = solve(mu, nu)
    residual = max(float(np.max(np.abs(np.bincount(k, weights=mass, minlength=len(w)) - w)))
                   for k, w in ((i, mu.w), (j, nu.w)))
    return W1Report(value=value, solver=solver, iterations=iterations, residual=residual,
                    plan=tuple(zip(i.tolist(), j.tolist(), mass.tolist())))


def _w1_assignment(mu, nu):
    """Uniform measures on n and m atoms as one assignment between
    `replicas` = lcm(n, m) unit masses, folded back into plan entries. Equal
    counts whose nearest-column map is a permutation take that map as the
    plan, and build no cost matrix (see the module docstring)."""
    n, m = mu.n, nu.n
    replicas = math.lcm(n, m)
    # the cost matrix is allocated first, so that a freed pair buffer of its
    # size (a sweep's run on the same lane) serves it before the tree or the
    # small arrays below can split that block and the lane's heap grows by a
    # whole matrix
    cost = np.empty((replicas, replicas))
    a, b = _points(mu), _points(nu)
    if n == m:
        # each point's nearest column: a plan when no column is hit twice
        dist, near = KDTree(b).query(a)
        if np.bincount(near, minlength=n).max() == 1:
            return float(np.sum(dist) * (1.0 / n)), np.arange(n), near, np.full(n, 1.0 / n), n
    # imported past the certificate: a certified pair never loads scipy.optimize
    from scipy.optimize import linear_sum_assignment

    atom_a = np.repeat(np.arange(n), replicas // n)
    atom_b = np.repeat(np.arange(m), replicas // m)
    cdist(a[atom_a], b[atom_b], out=cost)
    rows, cols = linear_sum_assignment(cost)
    value = float(np.sum(cost[rows, cols]) * (1.0 / replicas))
    pairs, counts = np.unique(atom_a[rows] * m + atom_b[cols], return_counts=True)
    i, j = np.divmod(pairs, m)
    return value, i, j, counts / replicas, replicas


def _w1_lp(mu, nu):
    """The transport LP on the n*m plan entries: one equality per atom's mass."""
    from scipy.optimize import linprog

    cost = cdist(_points(mu), _points(nu))
    n, m = cost.shape
    a_eq = sparse.vstack([sparse.kron(sparse.identity(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.identity(m))], format="csr")
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu.w, nu.w]),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise NumericAbort(f"transport LP failed: {res.message}")
    pi = res.x.reshape(n, m)
    i, j = np.nonzero(pi > 1e-15)
    return float(np.sum(pi * cost)), i, j, pi[i, j], int(getattr(res, "nit", 0))


def convergence_study(f_in, eps_list, t_grid, cfg: SimConfig) -> tuple:
    """Run the stiff system at each eps and the sphere limit once for
    cfg.steps steps, all from the same initial atoms (the limit starts from
    the projected measure), and return the rows {eps, t, w1, runtime_ms}, t
    ascending per eps: W1 between the snapshots `snapshot_indices` gives t.
    An eps_list not strictly decreasing, a repeated t_grid point, one no
    snapshot lands within dt/2 of, or atoms past the exact W1 caps are
    rejected before anything is integrated. The runs [limit, *eps_list],
    each keeping of what `simulate` yields only its t_grid snapshots, then
    the distinct snapshot pairs, are mapped over SWARM_THREADS lanes with the
    caller as one of them (`_lanes_map`); a failing run or solve raises the
    error of the first in that order, as a serial loop would."""
    eps_list = list(eps_list)
    t_grid = sorted(t_grid)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValidationError("eps_list must be strictly decreasing")
    repeated = sorted({a for a, b in zip(t_grid, t_grid[1:]) if a == b})
    if repeated:
        raise ValidationError(f"t_grid points must be distinct; {repeated} repeated")
    if cfg.diffusion:
        raise ValidationError("convergence study compares the deterministic dynamics")
    ks = snapshot_indices(f_in.time, cfg, t_grid)
    exact_solver(f_in.w, f_in.w)  # every W1 pair has f_in's atom count and weights
    runs = [(project_measure(f_in, cfg.params.r), cfg)]
    runs += [(f_in, replace(cfg, params=replace(cfg.params, eps=eps))) for eps in eps_list]
    lim_snaps, *eps_snaps = _lanes_map(
        lambda run: {k: snap for k, (snap, _) in enumerate(simulate(*run)) if k in ks}, runs)

    cells = [(eps, t, snaps[k], lim_snaps[k])
             for eps, snaps in zip(eps_list, eps_snaps) for t, k in zip(t_grid, ks)]
    # every eps run stores f_in itself as its first snapshot, so the rows at
    # t = f_in.time compare one pair: solve each distinct pair once
    pairs = {(id(a), id(b)): (a, b) for _, _, a, b in cells}

    def solve(pair):
        tic = time.perf_counter()
        value = w1_exact(*pair).value
        return {"w1": value, "runtime_ms": 1000.0 * (time.perf_counter() - tic)}

    solved = dict(zip(pairs, _lanes_map(solve, pairs.values())))
    return tuple({"eps": eps, "t": t, **solved[id(a), id(b)]} for eps, t, a, b in cells)
