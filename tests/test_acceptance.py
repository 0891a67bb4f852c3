"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Budgets are asserted from wall-clock measurements on desk hardware.
"""

import itertools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.spatial.distance import cdist

import swarmlab as sl
from swarmlab.cli import build_initial_ensemble, parse_config, run
from swarmlab.eps_dynamics import SimConfig
from swarmlab.kernels import compose_kernels

from conftest import field, field_sup, make_phase
from oracles import (adjoint_potential, adjoint_sup_bound, align_weight, coupling_bound,
                     equicontinuity_probe, laplace_beltrami_via_extension, sphere_point_3d,
                     spherical_laplacian_3d, support_in_band, trapping_time_bounds,
                     zero_hom_laplacian_formula)

P11 = sl.ModelParams(alpha=1.0, beta=1.0, eps=0.01)
CS = sl.builtin_kernels("cucker_smale_weight", {"K": 1.0, "gamma": 1.0})
GAUSS_CS = compose_kernels(
    sl.builtin_kernels("gaussian_attraction_repulsion",
                       {"C_A": 0.5, "l_A": 1.0, "C_R": 0.3, "l_R": 0.5}),
    CS,
)


def _report(name, runtime, budget, detail):
    print(f"PASS {name}: {detail} [{runtime:.1f}s < {budget:.0f}s]")
    assert runtime < budget


def test_criterion_01_root_asymptotics():
    tic = time.perf_counter()
    eps = 1e-5
    lo = sl.solve_roots(eps, -1.0, P11)
    hi = sl.solve_roots(eps, +1.0, P11)
    e1 = abs(lo.rho1 / eps - 1.0)
    e2 = abs((1.0 - lo.rho2) / eps - 0.5)
    e3 = abs((hi.rho3 - 1.0) / eps - 0.5)
    assert e1 <= 0.01 * 1.0
    assert e2 <= 0.01 * 0.5
    assert e3 <= 0.01 * 0.5
    _report("criterion 1 (root asymptotics)", time.perf_counter() - tic, 1.0,
            f"ratio errors {e1:.2e}/{e2:.2e}/{e3:.2e} <= 1%")


def test_criterion_02_closed_form_flow():
    tic = time.perf_counter()
    rng = np.random.default_rng(202)
    h = 1e-4
    worst_fd = worst_semi = worst_ode = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 4))
        v = rng.standard_normal(d)
        # the 1e-6 residual budget at step 1e-4 caps the admissible third
        # derivative of the flow, which grows steeply with off-sphere speed;
        # speeds up to 1.8 keep it within budget on both sides of the sphere
        v *= rng.uniform(0.1, 1.8) / np.linalg.norm(v)
        s = float(rng.uniform(0.0, 3.0))
        # ODE residual by central differences
        mid = sl.free_flow(v, s, P11)
        fd = (sl.free_flow(v, s + h, P11) - sl.free_flow(v, s - h, P11)) / (2 * h)
        worst_fd = max(worst_fd, float(np.max(np.abs(
            fd - (1.0 - mid @ mid) * mid))))
        # semigroup
        s1, s2 = 0.37 * s, 0.63 * s
        semi = sl.free_flow(sl.free_flow(v, s1, P11), s2, P11)
        direct = sl.free_flow(v, s, P11)
        worst_semi = max(worst_semi, float(np.max(
            np.abs(semi - direct) / np.maximum(np.abs(direct), 1e-30))))
        # high-accuracy adaptive oracle
        sol = solve_ivp(lambda t, y: (1.0 - y @ y) * y, (0.0, s), v,
                        rtol=1e-10, atol=1e-12, method="DOP853")
        worst_ode = max(worst_ode, float(np.max(np.abs(direct - sol.y[:, -1]))))
    assert worst_fd <= 1e-6
    assert worst_semi <= 1e-12
    assert worst_ode <= 1e-8
    _report("criterion 2 (closed-form flow)", time.perf_counter() - tic, 5.0,
            f"fd {worst_fd:.1e}, semigroup {worst_semi:.1e}, oracle {worst_ode:.1e}")


def test_criterion_03_trapping():
    tic = time.perf_counter()
    dt = 5e-3
    # (a) initialized inside the band (on the sphere): stays for T = 2
    ens = build_initial_ensemble(
        {"n": 256, "dim": 2, "L0": 1.0, "distribution": "on_sphere", "seed": 5}, P11)
    cfg = SimConfig(params=P11, spec=GAUSS_CS, dt=dt, steps=400,
                    snapshot_stride=20, rng_seed=5)
    traj = sl.simulate(ens, cfg)
    a_sup = max(field_sup(s, GAUSS_CS) for s in traj.snapshots)
    assert P11.eps * a_sup < 2.0 / (3.0 * math.sqrt(3.0))
    lo = sl.solve_roots(P11.eps, -a_sup, P11)
    hi = sl.solve_roots(P11.eps, a_sup, P11)
    stay = all(support_in_band(s, lo.rho2 - 2 * dt, hi.rho3 + 2 * dt)
               for s in traj.snapshots)
    assert stay
    # (b) initialized in [r0, R0]: enters the eps-widened band by t1 + t2
    r0, big_r = 0.5, 1.5
    ens2 = build_initial_ensemble(
        {"n": 256, "dim": 2, "L0": 1.0, "r0": r0, "R0": big_r,
         "distribution": "uniform_annulus", "seed": 6}, P11)
    cfg2 = SimConfig(params=P11, spec=GAUSS_CS, dt=dt, steps=40,
                     snapshot_stride=1, rng_seed=6)
    traj2 = sl.simulate(ens2, cfg2)
    a2 = max(field_sup(s, GAUSS_CS) for s in traj2.snapshots)
    lo2 = sl.solve_roots(P11.eps, -a2, P11)
    hi2 = sl.solve_roots(P11.eps, a2, P11)
    t1, t2 = trapping_time_bounds(r0, big_r, P11.eps, P11)
    in_band = [support_in_band(s, lo2.rho2 - P11.eps - 2 * dt,
                               hi2.rho3 + P11.eps + 2 * dt)
               for s in traj2.snapshots]
    entry = next(t for t, ok in zip(traj2.times, in_band) if ok)
    assert entry <= t1 + t2 + 2 * dt
    assert all(in_band[in_band.index(True):])
    _report("criterion 3 (trapping)", time.perf_counter() - tic, 30.0,
            f"A={a_sup:.3f}, stay ok, entry {entry:.3f} <= {t1 + t2 + 2 * dt:.3f}")


def test_criterion_04_momentum_energy_identities():
    tic = time.perf_counter()
    worst_mom = worst_diss = 0.0
    for seed in range(20):
        ens = make_phase(64, d=2, seed=seed)
        a = field(ens, CS)
        worst_mom = max(worst_mom, float(np.linalg.norm(
            np.sum(ens.w[:, None] * a, axis=0))))
        lhs = float(np.sum(ens.w * np.sum(ens.v * a, axis=1)))
        dx = ens.x[:, None, :] - ens.x[None, :, :]
        rhs = -0.5 * float(np.sum(
            ens.w[:, None] * ens.w[None, :] * align_weight(CS, dx)
            * np.sum((ens.v[:, None, :] - ens.v[None, :, :]) ** 2, axis=2)))
        worst_diss = max(worst_diss, abs(lhs - rhs) / abs(rhs))
    assert worst_mom <= 1e-13
    assert worst_diss <= 1e-12
    _report("criterion 4 (momentum/energy identities)", time.perf_counter() - tic,
            1.0, f"momentum {worst_mom:.1e}, dissipation rel {worst_diss:.1e}")


def test_criterion_05_w1_exactness():
    tic = time.perf_counter()
    rng = np.random.default_rng(505)
    perms = np.array(list(itertools.permutations(range(8))))
    worst = 0.0
    for trial in range(50):
        a = make_phase(8, seed=trial)
        b = make_phase(8, seed=trial + 500)
        cost = cdist(np.hstack([a.x, a.v]), np.hstack([b.x, b.v]))
        brute = float(cost[np.arange(8)[None, :], perms].sum(axis=1).min() / 8)
        worst = max(worst, abs(sl.w1_exact(a, b).value - brute))
    assert worst <= 1e-9
    worst_sym = 0.0
    tri_ok = True
    for trial in range(100):
        es = [make_phase(16, seed=1000 + 3 * trial + k) for k in range(3)]
        d01 = sl.w1_exact(es[0], es[1]).value
        worst_sym = max(worst_sym, abs(d01 - sl.w1_exact(es[1], es[0]).value))
        tri_ok &= (sl.w1_exact(es[0], es[2]).value
                   <= d01 + sl.w1_exact(es[1], es[2]).value + 1e-9)
    assert worst_sym <= 1e-12
    assert tri_ok
    _report("criterion 5 (W1 exactness)", time.perf_counter() - tic, 60.0,
            f"brute-force gap {worst:.1e}, symmetry {worst_sym:.1e}, triangle ok")


def test_criterion_06_convergence_well_prepared():
    tic = time.perf_counter()
    params = sl.ModelParams(1.0, 1.0, 0.08)
    ens = build_initial_ensemble(
        {"n": 256, "dim": 2, "L0": 1.0, "distribution": "on_sphere", "seed": 42},
        params)
    cfg = SimConfig(params=params, spec=CS, dt=1e-3, steps=1000,
                    snapshot_stride=100, rng_seed=42)
    rows = sl.convergence_study(ens, [0.08, 0.04, 0.02], [1.0], cfg)
    w1 = {(row["eps"], row["t"]): row["w1"] for row in rows}
    vals = [w1[e, 1.0] for e in (0.08, 0.04, 0.02)]
    strictly_dec = all(b < a for a, b in zip(vals, vals[1:]))
    per_halving = all(1.0 - b / a >= 0.30 for a, b in zip(vals, vals[1:]))
    total = 1.0 - vals[-1] / vals[0] >= 0.50
    assert strictly_dec
    assert per_halving or total
    _report("criterion 6 (convergence, well-prepared)",
            time.perf_counter() - tic, 600.0,
            "W1(1) = " + "/".join(f"{v:.4f}" for v in vals))


def test_criterion_07_convergence_non_prepared():
    tic = time.perf_counter()
    params = sl.ModelParams(1.0, 1.0, 0.08)
    ens = build_initial_ensemble(
        {"n": 256, "dim": 2, "L0": 1.0, "r0": 0.5, "R0": 1.5,
         "distribution": "uniform_annulus", "seed": 42}, params)
    cfg = SimConfig(params=params, spec=CS, dt=1e-3, steps=500,
                    snapshot_stride=100, rng_seed=42)
    rows = sl.convergence_study(ens, [0.08, 0.04, 0.02], [0.0, 0.5], cfg)
    w1 = {(row["eps"], row["t"]): row["w1"] for row in rows}
    at_half = [w1[e, 0.5] for e in (0.08, 0.04, 0.02)]
    at_zero = [w1[e, 0.0] for e in (0.08, 0.04, 0.02)]
    displacement = float(np.sum(ens.w * np.abs(ens.speeds() - params.r)))
    assert all(b < a for a, b in zip(at_half, at_half[1:]))
    for v in at_zero:
        assert abs(v - displacement) <= 0.10 * displacement
    _report("criterion 7 (convergence, non-prepared)",
            time.perf_counter() - tic, 600.0,
            f"W1(0.5) = " + "/".join(f"{v:.4f}" for v in at_half)
            + f"; W1(0) = {at_zero[0]:.4f} vs displacement {displacement:.4f}")


def test_w1_gap_is_first_order_in_eps():
    """The paper's O(eps) rate on configs/sweep.json's datum at t = 0.5: W1/eps
    holds one value over a 64-fold range of eps, and halving dt moves W1 by
    less than a stated share, because the coupled runs share most of their
    discretization error. Measured W1/eps at dt 1e-3: 0.3321, 0.3265, 0.3244,
    0.3191; W1 moved 0.001%, 0.011%, 0.139% and 1.057% at dt 5e-4. The
    certified half: |W1_dt - W1_dt'| <= W1(eps runs) + W1(limit runs), each
    at most the O(N) coupling bound of atom-by-atom twins."""
    tic = time.perf_counter()
    doc = json.loads((Path(__file__).parent.parent / "configs" / "sweep.json").read_text())
    params = sl.ModelParams(1.0, 1.0, 1.0)
    ens = build_initial_ensemble(doc["init"], params)
    spec = sl.builtin_kernels(doc["kernels"]["name"])
    eps_list = (0.08, 0.02, 0.005, 0.00125)
    ends = []  # per dt: the limit run's end, then each eps run's
    for dt, steps in ((1e-3, 500), (5e-4, 1000)):
        cfg = SimConfig(params=params, spec=spec, dt=dt, steps=steps, snapshot_stride=steps)
        runs = [(sl.project_measure(ens, params.r), cfg)]
        runs += [(ens, replace(cfg, params=replace(params, eps=eps))) for eps in eps_list]
        ends.append([sl.simulate(*run).snapshots[-1] for run in runs])
    w1 = [[sl.w1_exact(end, lim).value for end in eps_ends] for lim, *eps_ends in ends]
    lines = []
    for k, eps in enumerate(eps_list):
        coarse, fine = w1[0][k], w1[1][k]
        assert 0.315 <= coarse / eps <= 0.335 and 0.315 <= fine / eps <= 0.335
        share = abs(coarse - fine) / fine
        assert share <= (0.011 if eps < 0.005 else 0.002)
        bound = (coupling_bound(ends[0][k + 1], ends[1][k + 1])
                 + coupling_bound(ends[0][0], ends[1][0]))
        assert abs(coarse - fine) <= bound
        lines.append(f"eps {eps}: W1/eps {coarse / eps:.4f}, dt/2 moves W1 {share:.3%} "
                     f"({abs(coarse - fine):.1e} <= coupling bound {bound:.1e})")
    _report("O(eps) rate", time.perf_counter() - tic, 60.0, "; ".join(lines))


def test_criterion_08_equicontinuity():
    tic = time.perf_counter()
    params = sl.ModelParams(1.0, 1.0, 0.01)
    ens = build_initial_ensemble(
        {"n": 256, "dim": 2, "L0": 1.0, "distribution": "on_sphere", "seed": 8},
        params)
    cfg = SimConfig(params=params, spec=CS, dt=5e-3, steps=400,
                    snapshot_stride=40, rng_seed=8)
    traj = sl.simulate(ens, cfg)
    pairs = [(a, b) for a, b in itertools.combinations(traj.times, 2)]
    rep = equicontinuity_probe(traj, cfg, pairs)
    assert np.isfinite(rep.bound_constant)
    assert rep.max_ratio <= rep.bound_constant
    _report("criterion 8 (equicontinuity)", time.perf_counter() - tic, 120.0,
            f"sup ratio {rep.max_ratio:.3f} <= constant {rep.bound_constant:.3f}")


def test_criterion_09_laplace_beltrami_triangle():
    tic = time.perf_counter()
    r = 1.3
    rng = np.random.default_rng(909)
    funcs = [
        lambda y: y[2] / r,
        lambda y: (y[0] ** 2 - y[1] ** 2) / r**2,
        lambda y: math.exp(y[0] / r),
        lambda y: math.sin(y[1] / r) * math.cos(y[2] / r),
        lambda y: 1.0 / (2.0 + y[0] * y[1] / r**2),
    ]
    worst = 0.0
    for _ in range(200):
        theta = rng.uniform(-1.1, 1.1)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        om = sphere_point_3d(theta, phi, r)
        for f in funcs:
            a = laplace_beltrami_via_extension(f, om, r)
            b = zero_hom_laplacian_formula(f, om, r)
            c = spherical_laplacian_3d(
                lambda tt, pp: f(sphere_point_3d(tt, pp, r)), theta, phi, r)
            den = max(1.0, abs(a), abs(b), abs(c))
            worst = max(worst, abs(a - b) / den, abs(a - c) / den,
                        abs(b - c) / den)
    assert worst <= 1e-5
    worst_eig = 0.0
    for _ in range(50):
        theta = rng.uniform(-1.1, 1.1)
        if abs(math.sin(theta)) < 0.15:
            continue
        om = sphere_point_3d(theta, rng.uniform(0, 2 * math.pi), r)
        got = laplace_beltrami_via_extension(lambda y: y[2], om, r)
        target = -2.0 * om[2] / r**2
        worst_eig = max(worst_eig, abs(got - target) / abs(target))
    assert worst_eig <= 1e-4
    _report("criterion 9 (Laplace-Beltrami triangle)", time.perf_counter() - tic,
            10.0, f"pairwise {worst:.1e} <= 1e-5, eigenvalue {worst_eig:.1e} <= 1e-4")


def test_criterion_10_sphere_diffusion_generator():
    tic = time.perf_counter()
    r = 1.0
    n = 10000
    ens = sl.PhaseEnsemble(x=np.zeros((n, 3)), v=np.tile([0, 0, r], (n, 1)),
                           w=np.full(n, 1.0 / n), r=r)
    cfg = SimConfig(params=sl.ModelParams(1.0, 1.0, 1.0),
                    spec=sl.builtin_kernels("zero_potential"),
                    dt=2e-3, steps=2500, snapshot_stride=25,  # t = 5 r^2
                    diffusion=True, rng_seed=10)
    traj = sl.simulate(ens, cfg)
    ts = np.array(traj.times)
    m3 = np.array([float(np.sum(s.w * s.v[:, 2])) for s in traj.snapshots])
    mask = m3 > 0.1 * r
    rate = -np.polyfit(ts[mask], np.log(m3[mask] / r), 1)[0]
    assert rate == pytest.approx(2.0 / r**2, rel=0.10)
    final = np.linalg.norm(np.sum(traj.snapshots[-1].w[:, None]
                                  * traj.snapshots[-1].v, axis=0))
    assert final <= 0.05 * r
    _report("criterion 10 (sphere diffusion generator)",
            time.perf_counter() - tic, 120.0,
            f"rate {rate:.3f} vs 2/r^2 = {2/r**2:.3f}; |E omega|(t=5) = {final:.4f}")


def test_criterion_11_adjoint_potential():
    tic = time.perf_counter()
    support = (0.3, 0.6, 1.4, 1.9)
    r1, r2, r3, r4 = support

    def bump(t):
        return math.exp(-1.0 / (t * (1.0 - t))) if 0.0 < t < 1.0 else 0.0

    def psi(v):
        u = float(np.linalg.norm(v))
        ang = 1.0 + 0.3 * v[0] / u - 0.2 * v[1] / u
        if r1 < u < r2:
            return ang * bump((u - r1) / (r2 - r1))
        if r3 < u < r4:
            return ang * bump((u - r3) / (r4 - r3))
        return 0.0

    rng = np.random.default_rng(1111)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        lo, hi = (r1, r2) if rng.random() < 0.5 else (r3, r4)
        u = rng.uniform(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo))
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        v = u * d
        grad = np.zeros(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            grad[k] = (adjoint_potential(psi, v + e, P11, support, tol=1e-12)
                       - adjoint_potential(psi, v - e, P11, support, tol=1e-12)
                       ) / (2 * h)
        lhs = -(1.0 - u * u) * float(v @ grad)
        worst = max(worst, abs(lhs - psi(v)) / abs(psi(v)))
    assert worst <= 1e-3
    sup_psi = max(abs(psi(np.array([u * math.cos(t), u * math.sin(t)])))
                  for u in np.linspace(0.05, 2.5, 400)
                  for t in (0.0, 1.3, 2.6, 4.4))
    bound = adjoint_sup_bound(P11, support, sup_psi)
    sup_phi = max(
        abs(adjoint_potential(
            psi, rng.uniform(0.05, 2.5) * np.array([math.cos(t), math.sin(t)]),
            P11, support))
        for t in rng.uniform(0.0, 2 * math.pi, 100))
    assert sup_phi <= bound
    _report("criterion 11 (adjoint potential)", time.perf_counter() - tic, 30.0,
            f"worst FD rel err {worst:.1e} <= 1e-3; sup {sup_phi:.4f} <= {bound:.4f}")


def test_criterion_12_determinism(tmp_path, monkeypatch):
    tic = time.perf_counter()
    sweep_doc = {
        "mode": "sweep",
        "model": {"alpha": 1.0, "beta": 1.0},
        "kernels": {"name": "cucker_smale_weight", "params": {"K": 1.0, "gamma": 1.0}},
        "init": {"n": 64, "dim": 2, "L0": 1.0, "distribution": "on_sphere",
                 "seed": 12},
        "integrator": {"dt": 5e-3, "stride": 20},
        "sweep": {"eps_list": [0.08, 0.04], "t_grid": [0.0, 0.2]},
    }
    diffusive_doc = {
        "mode": "simulate-eps",
        "model": {"alpha": 1.0, "beta": 1.0, "eps": 0.05},
        "kernels": {"name": "cucker_smale_weight", "params": {"K": 1.0, "gamma": 1.0}},
        "init": {"n": 64, "dim": 2, "L0": 1.0, "distribution": "on_sphere",
                 "seed": 12},
        "integrator": {"dt": 5e-3, "T": 0.2, "stride": 10, "diffusion": True},
        "output": {"formats": ["csv", "json"]},
    }
    # the sphere noise path runs through the same `simulate` as the eps runs
    limit_doc = {
        "mode": "simulate-limit",
        "model": {"alpha": 1.0, "beta": 1.0},
        "kernels": {"name": "gaussian_attraction_repulsion",
                    "params": {"C_A": 1.0, "l_A": 1.0, "C_R": 0.5, "l_R": 0.5}},
        "init": {"n": 32, "dim": 3, "L0": 1.0, "distribution": "on_sphere",
                 "seed": 12},
        "integrator": {"dt": 5e-3, "T": 0.1, "stride": 5, "diffusion": True},
        "output": {"formats": ["csv", "json"]},
    }
    project_doc = {
        "mode": "project",
        "model": {"alpha": 1.0, "beta": 1.0},
        "init": {"n": 32, "dim": 3, "L0": 1.0, "r0": 0.5, "R0": 1.5,
                 "distribution": "uniform_annulus", "seed": 12},
        "output": {"formats": ["csv", "json"]},
    }
    roots_doc = {"mode": "roots", "model": {"alpha": 1.0, "beta": 1.0},
                 "roots": {"A": -1.0, "eps_list": [0.1, 0.01]}}
    flow_doc = {"mode": "flow", "model": {"alpha": 1.0, "beta": 1.0},
                "flow": {"v0_list": [0.5, 2.0], "s_list": [0.0, 1.0]}}
    outputs = []
    for label, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        monkeypatch.setenv("SWARM_THREADS", threads)
        blobs = {}
        # compare reads the two snapshots this label's project run wrote
        compare_doc = {"mode": "compare", "compare": {
            "file_a": str(tmp_path / label / "project" / "source.json"),
            "file_b": str(tmp_path / label / "project" / "projected.json")}}
        for sub, doc in (("sweep", sweep_doc), ("eps", diffusive_doc),
                         ("limit", limit_doc), ("project", project_doc),
                         ("roots", roots_doc), ("flow", flow_doc),
                         ("compare", compare_doc)):
            base = tmp_path / label / sub
            run(parse_config(json.dumps(doc)), output_dir=str(base), seed=12)
            for p in sorted(base.iterdir()):
                if p.name == "manifest.json":
                    continue
                blobs[f"{sub}/{p.name}"] = p.read_bytes()
        outputs.append(blobs)

    # runtime_ms is wall-clock (same status as manifest timestamps): strip it
    def normalize(blobs):
        out = {}
        for name, blob in blobs.items():
            if name.endswith("sweep.csv"):
                lines = blob.decode().splitlines()
                out[name] = "\n".join(",".join(ln.split(",")[:-1])
                                      for ln in lines).encode()
            else:
                out[name] = blob
        return out

    a, b, c = (normalize(o) for o in outputs)
    assert a == b == c
    assert len(a) > 10  # snapshot series, moments table, sweep table
    assert any(name.startswith("limit/snap_limit") for name in a)
    assert {"project/projected.csv", "project/projected.json", "roots/roots.csv",
            "flow/flow.csv", "compare/w1_report.json"} <= set(a)
    _report("criterion 12 (determinism)", time.perf_counter() - tic, 120.0,
            f"{len(a)} data files byte-identical across thread counts and reruns")
