import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

import swarmlab.noise as noise
from swarmlab import (
    ModelParams,
    PhaseEnsemble,
    builtin_kernels,
    compose_kernels,
    free_flow,
    project_measure,
    simulate,
    solve_roots,
    w1_exact,
)
from swarmlab.cli import build_initial_ensemble
from swarmlab.eps_dynamics import SimConfig, snapshot_indices, snapshot_steps
from swarmlab.errors import ValidationError
from swarmlab.kernels import PairOperator

from conftest import field, field_sup, make_phase, make_sphere
from oracles import align_weight, support_in_band, trapping_time_bounds

ZERO = builtin_kernels("zero_potential")
CS = builtin_kernels("cucker_smale_weight", {"K": 1.0, "gamma": 1.0})


def cfgf(params, spec, dt, steps, **kw):
    kw.setdefault("snapshot_stride", steps)
    return SimConfig(params=params, spec=spec, dt=dt, steps=steps, **kw)


class TestConfig:
    def test_invalid_configs_rejected(self):
        p = ModelParams(1, 1, 0.1)
        with pytest.raises(ValidationError):
            SimConfig(params=p, spec=ZERO, dt=-1e-3, steps=1000)
        with pytest.raises(ValidationError):
            SimConfig(params=p, spec=ZERO, dt=1e-3, steps=1000, snapshot_stride=0)

    @pytest.mark.parametrize("steps", [0, -1, 2**63, True, 2.0, 2.5, float("inf"), None])
    def test_step_count_is_an_integer_in_range(self, steps):
        with pytest.raises(ValidationError, match="steps must be an integer"):
            SimConfig(params=ModelParams(1, 1, 0.1), spec=ZERO, dt=1e-3, steps=steps)

    def test_largest_step_count_accepted(self):
        cfg = SimConfig(params=ModelParams(1, 1, 0.1), spec=ZERO, dt=1e-3, steps=2**63 - 1)
        assert cfg.T == (2**63 - 1) * 1e-3

    @pytest.mark.parametrize("kw,match", [
        ({"snapshot_stride": 2.5}, "snapshot stride"),   # a TypeError from range in simulate
        ({"snapshot_stride": True}, "snapshot stride"),  # ran as stride 1
        ({"rng_seed": -1, "diffusion": True}, "rng_seed"),  # numpy's OverflowError
        ({"rng_seed": 1.5}, "rng_seed"),                 # ran as seed 1
    ], ids=["stride-float", "stride-bool", "seed-negative", "seed-float"])
    def test_other_integers_checked_at_construction(self, kw, match):
        # each ran or failed inside `simulate` before
        with pytest.raises(ValidationError, match=match):
            SimConfig(params=ModelParams(1, 1, 0.1), spec=ZERO, dt=1e-3, steps=2, **kw)

    def test_horizon_is_steps_times_dt(self):
        cfg = SimConfig(params=ModelParams(1, 1, 0.1), spec=ZERO, dt=1e-3, steps=3,
                        snapshot_stride=2)
        assert cfg.T == 3 * 1e-3
        assert snapshot_steps(cfg) == [0, 2, 3]
        assert simulate(make_phase(2), cfg).times[-1] == 3 * 1e-3


class TestStep:
    def test_free_particle_on_sphere(self):
        # no field: speed stays exactly r, position advances r dt per direction
        p = ModelParams(4.0, 1.0, 0.05)  # r = 2
        ens = PhaseEnsemble(x=[[0.0, 0.0]], v=[[2.0, 0.0]], w=[1.0])
        cfg = cfgf(p, ZERO, dt=1e-2, steps=1)
        out = simulate(ens, cfg).snapshots[-1]
        assert_allclose(out.v, [[2.0, 0.0]], rtol=0, atol=0)
        assert_allclose(out.x, [[0.02, 0.0]], rtol=0, atol=1e-18)

    def test_zero_field_speed_matches_closed_form(self):
        p = ModelParams(1.0, 1.0, 0.05)
        ens = PhaseEnsemble(x=[[0.0, 0.0]], v=[[0.5, 0.0]], w=[1.0])
        T = 0.4
        cfg = cfgf(p, ZERO, dt=1e-3, steps=400)
        traj = simulate(ens, cfg)
        got = traj.snapshots[-1].v[0]
        expect = free_flow(np.array([0.5, 0.0]), T / p.eps, p)
        assert_allclose(got, expect, rtol=1e-10, atol=0)

    def test_strang_second_order_vs_rk_oracle(self):
        # two-particle alignment-only system against an adaptive RK oracle
        p = ModelParams(1.0, 1.0, 0.05)
        x0 = np.array([[0.0, 0.0], [1.0, 0.5]])
        v0 = np.array([[0.8, 0.1], [-0.3, 0.9]])
        w = np.array([0.5, 0.5])
        ens0 = PhaseEnsemble(x=x0, v=v0, w=w)
        T = 0.5

        def rhs(t, y):
            x = y[:4].reshape(2, 2)
            v = y[4:].reshape(2, 2)
            a = np.zeros((2, 2))
            for i in range(2):
                for j in range(2):
                    a[i] += w[j] * align_weight(CS, x[i] - x[j]) * (v[j] - v[i])
                a[i] += (1.0 - v[i] @ v[i]) * v[i] / p.eps
            return np.concatenate([v.ravel(), a.ravel()])

        sol = solve_ivp(rhs, (0.0, T), np.concatenate([x0.ravel(), v0.ravel()]),
                        rtol=1e-10, atol=1e-12, method="DOP853")
        oracle = PhaseEnsemble(x=sol.y[:4, -1].reshape(2, 2),
                               v=sol.y[4:, -1].reshape(2, 2), w=w)
        gaps = []
        for dt, steps in ((1e-2, 50), (5e-3, 100), (2.5e-3, 200)):
            traj = simulate(ens0, cfgf(p, CS, dt=dt, steps=steps))
            gaps.append(w1_exact(traj.snapshots[-1], oracle).value)
        c2 = gaps[0] / (1e-2) ** 2
        for dt, gap in zip((1e-2, 5e-3, 2.5e-3), gaps):
            assert gap <= 1.5 * c2 * dt**2
        assert gaps[0] / gaps[1] >= 3.0
        assert gaps[1] / gaps[2] >= 3.0

    def test_alignment_half_kick_dissipates_kinetic_energy(self):
        # discrete energy change tracks the dissipation identity to O(dt^2)
        from swarmlab.eps_dynamics import _kick
        from swarmlab.kernels import PairOperator
        ens = make_phase(32, seed=3)
        diss = []
        a = field(ens, CS)
        rate = 2.0 * float(np.sum(ens.w * np.sum(ens.v * a, axis=1)))  # d/dt KE
        assert rate < 0
        errs = []
        for dt in (4e-2, 2e-2, 1e-2):
            v1 = _kick(PairOperator(ens.w, CS).build(ens.x), ens.v, 0.5 * dt)
            ke0 = float(np.sum(ens.w * np.sum(ens.v**2, axis=1)))
            ke1 = float(np.sum(ens.w * np.sum(v1**2, axis=1)))
            errs.append(abs((ke1 - ke0) - 0.5 * dt * rate))
            diss.append(ke1 - ke0)
        assert all(d < 0 for d in diss)
        assert errs[0] / errs[1] >= 3.0  # O(dt^2) remainder
        assert errs[1] / errs[2] >= 3.0


class TestSimulate:
    def test_zero_field_trajectory_matches_quadrature(self):
        # x(t) = x0 + int_0^t V(s/eps; v0) ds computed by high-accuracy quadrature
        from scipy.integrate import quad
        p = ModelParams(1.0, 1.0, 0.05)
        v0 = np.array([0.4, 0.3])
        ens = PhaseEnsemble(x=[[0.1, -0.2]], v=[v0], w=[1.0])
        T = 0.5
        # the drift substep integrates the relaxation transient by midpoint
        # quadrature (error ~ dt^2/eps), so hitting 1e-8 needs a small step
        traj = simulate(ens, cfgf(p, ZERO, dt=2e-5, steps=25000))
        got = traj.snapshots[-1]
        expect_v = free_flow(v0, T / p.eps, p)
        direction = v0 / np.linalg.norm(v0)
        speed_int, _ = quad(
            lambda s: float(np.linalg.norm(free_flow(v0, s / p.eps, p))),
            0.0, T, epsabs=1e-12, epsrel=1e-12)
        expect_x = np.array([0.1, -0.2]) + direction * speed_int
        assert_allclose(got.v[0], expect_v, rtol=1e-9)
        assert_allclose(got.x[0], expect_x, rtol=0, atol=1e-8)

    def test_mass_exactly_conserved(self):
        p = ModelParams(1.0, 1.0, 0.1)
        ens = make_phase(20, seed=4, weights=np.arange(1, 21) / np.sum(np.arange(1, 21)))
        traj = simulate(ens, cfgf(p, CS, dt=1e-2, steps=10))
        for snap in traj.snapshots:
            assert np.array_equal(snap.w, ens.w)

    def test_snapshot_times_and_lookup(self):
        p = ModelParams(1.0, 1.0, 0.1)
        cfg = SimConfig(params=p, spec=ZERO, dt=1e-2, steps=10, snapshot_stride=2)
        traj = simulate(make_phase(4), cfg)
        assert traj.times == (0.0,) + tuple((k + 1) * 2e-2 for k in range(5))
        [k] = snapshot_indices(traj.times[0], cfg, [0.06])
        assert k == 3
        assert traj.snapshots[k].time == pytest.approx(0.06)
        with pytest.raises(ValidationError, match=r"t_grid points \[0.05\]"):
            snapshot_indices(traj.times[0], cfg, [0.06, 0.05])

    @pytest.mark.parametrize("limit", [False, True], ids=["eps", "limit"])
    def test_one_ensemble_per_stored_snapshot(self, limit, monkeypatch):
        # the steps map arrays; only the 5th and 10th of 10 make an ensemble
        f_in = make_sphere(8, seed=2) if limit else make_phase(8, seed=2)
        cfg = SimConfig(params=ModelParams(1.0, 1.0, 0.1), spec=CS, dt=1e-2, steps=10,
                        snapshot_stride=5)
        made = []
        post_init = PhaseEnsemble.__post_init__

        def counting(ens):
            made.append(ens.time)
            post_init(ens)

        monkeypatch.setattr(PhaseEnsemble, "__post_init__", counting)
        traj = simulate(f_in, cfg)
        assert len(made) == len(snapshot_steps(cfg)) - 1 == 2
        assert made == list(traj.times[1:])

    def test_start_time_without_step_resolution_rejected_before_any_build(self, monkeypatch):
        # at t0 = 1e20 a step of 1e-3 leaves the time unchanged: every stored
        # time is t0, which is rejected before the first pair build
        builds = []
        build = PairOperator.build

        def counting(op, x):
            builds.append(len(x))
            return build(op, x)

        monkeypatch.setattr(PairOperator, "build", counting)
        f_in = PhaseEnsemble(x=[[0.0, 0.0]], v=[[1.0, 0.0]], w=[1.0], time=1e20)
        cfg = SimConfig(params=ModelParams(1.0, 1.0, 0.1), spec=CS, dt=1e-3, steps=10,
                        snapshot_stride=5)
        with pytest.raises(ValidationError, match="strictly increas"):
            simulate(f_in, cfg)
        assert builds == []

    def test_position_cone_bound(self):
        p = ModelParams(1.0, 1.0, 0.02)
        l0, big_r = 1.0, 1.5
        ens = make_phase(64, seed=5, speed_lo=0.5, speed_hi=big_r, box=l0 / 2)
        dt = 1e-3
        traj = simulate(ens, SimConfig(params=p, spec=CS, dt=dt, steps=500,
                                       snapshot_stride=50))
        a_sup = max(field_sup(s, CS) for s in traj.snapshots)
        for t, snap in zip(traj.times, traj.snapshots):
            radius = float(np.max(np.linalg.norm(snap.x, axis=1)))
            assert radius <= l0 + t * big_r + (a_sup + 1.0) * dt * t + 1e-12

    def test_monotone_speed_approach(self):
        # no field: speeds below r increase monotonically, above r decrease
        p = ModelParams(1.0, 1.0, 0.05)
        lo = PhaseEnsemble(x=[[0.0, 0.0]], v=[[0.4, 0.0]], w=[1.0])
        hi = PhaseEnsemble(x=[[0.0, 0.0]], v=[[1.7, 0.0]], w=[1.0])
        cfg = SimConfig(params=p, spec=ZERO, dt=1e-3, steps=200, snapshot_stride=10)
        s_lo = [r.speed_max for r in simulate(lo, cfg).moment_reports]
        s_hi = [r.speed_max for r in simulate(hi, cfg).moment_reports]
        assert all(b > a for a, b in zip(s_lo, s_lo[1:]))
        assert all(b < a for a, b in zip(s_hi, s_hi[1:]))
        assert all(s > 0.4 for s in s_lo[1:])
        assert all(s >= 1.0 for s in s_hi)

    def test_total_energy_decreases_zero_potential(self):
        p = ModelParams(1.0, 1.0, 1e6)  # relaxation negligible
        ens = make_phase(16, seed=6)
        traj = simulate(ens, SimConfig(params=p, spec=CS, dt=1e-3, steps=300,
                                       snapshot_stride=30))
        assert all(b <= a + 1e-12 for a, b in zip(traj.energies, traj.energies[1:]))

    def test_determinism_bitwise(self):
        p = ModelParams(1.0, 1.0, 0.05)
        ens = make_phase(12, seed=7)
        cfg = SimConfig(params=p, spec=CS, dt=1e-3, steps=50,
                        snapshot_stride=10, diffusion=True, rng_seed=99)
        a = simulate(ens, cfg)
        b = simulate(ens, cfg)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa.x, sb.x)
            assert np.array_equal(sa.v, sb.v)


class TestDiffusive:
    def test_variance_grows_like_2dt(self):
        # relaxation effectively off (huge eps), pure sqrt(2) noise
        p = ModelParams(1.0, 1.0, 1e9)
        n, d = 10000, 2
        v0 = np.tile([1.0, 0.0], (n, 1))
        ens = PhaseEnsemble(x=np.zeros((n, d)), v=v0, w=np.full(n, 1.0 / n))
        cfg = SimConfig(params=p, spec=ZERO, dt=1e-2, steps=100,
                        snapshot_stride=100, diffusion=True, rng_seed=11)
        traj = simulate(ens, cfg)
        disp = traj.snapshots[-1].v - v0
        var = float(np.mean(np.sum(disp**2, axis=1)))
        assert var == pytest.approx(2 * d * 1.0, rel=0.05)

    def test_zero_noise_draw_coincides_with_step(self, monkeypatch):
        p = ModelParams(1.0, 1.0, 0.05)
        ens = make_phase(8, seed=8)
        monkeypatch.setattr(noise, "gaussian_increments",
                            lambda seed, dom, k, shape: np.zeros(shape))
        det = simulate(ens, SimConfig(params=p, spec=CS, dt=1e-3, steps=1)).snapshots[-1]
        sto = simulate(ens, SimConfig(params=p, spec=CS, dt=1e-3,
                                      steps=1, diffusion=True)).snapshots[-1]
        assert np.array_equal(det.v, sto.v)
        assert np.array_equal(det.x, sto.x)

    def test_speeds_concentrate_near_r(self):
        # stationary speed spread is O(sqrt(eps)); 5 sqrt(eps) captures >= 95%
        p = ModelParams(1.0, 1.0, 0.01)
        n = 4000
        ens = PhaseEnsemble(x=np.zeros((n, 2)), v=np.tile([1.0, 0.0], (n, 1)),
                            w=np.full(n, 1.0 / n))
        cfg = SimConfig(params=p, spec=ZERO, dt=1e-3, steps=1000,
                        snapshot_stride=1000, diffusion=True, rng_seed=13)
        traj = simulate(ens, cfg)
        speeds = traj.snapshots[-1].speeds()
        band = 5.0 * math.sqrt(p.eps)
        frac = float(np.mean((speeds >= 1.0 - band) & (speeds <= 1.0 + band)))
        assert frac >= 0.95

    def test_trapping_band_invariant_and_entered(self):
        # deterministic run with a bounded field: speeds enter and remain in
        # the eps-widened root band
        p = ModelParams(1.0, 1.0, 0.01)
        dt = 2e-3
        ens = make_phase(64, seed=9, speed_lo=0.5, speed_hi=1.5)
        cfg = SimConfig(params=p, spec=CS, dt=dt, steps=250, snapshot_stride=25)
        traj = simulate(ens, cfg)
        a_sup = max(field_sup(s, CS) for s in traj.snapshots)
        lo = solve_roots(p.eps, -a_sup, p)
        hi = solve_roots(p.eps, a_sup, p)
        assert lo.validity
        t1, t2 = trapping_time_bounds(0.5, 1.5, p.eps, p)
        entered = [t for t, s in zip(traj.times, traj.snapshots)
                   if support_in_band(s, lo.rho2 - p.eps - 2 * dt,
                                      hi.rho3 + p.eps + 2 * dt)]
        assert entered and entered[0] <= t1 + t2 + 2 * dt
        # once in, never out
        k = traj.times.index(entered[0])
        assert len(entered) == len(traj.times) - k


class TestMeasuredOrder:
    """Temporal order of both regimes through one `simulate`, measured in W1
    at T = 0.5 against a dt = 1.25e-4 limit run (N = 32, d = 2, CS+G)."""

    P = ModelParams(1.0, 1.0, 1e-9)
    SPEC = compose_kernels(
        builtin_kernels("gaussian_attraction_repulsion",
                        {"C_A": 1.0, "l_A": 1.0, "C_R": 0.5, "l_R": 0.5}),
        CS,
    )
    DTS = (4e-3, 2e-3, 1e-3)

    def final(self, ens, dt):
        cfg = SimConfig(params=self.P, spec=self.SPEC, dt=dt, steps=round(0.5 / dt),
                        snapshot_stride=10**6)
        return simulate(ens, cfg).snapshots[-1]

    @pytest.fixture(scope="class")
    def runs(self):
        ens = build_initial_ensemble(
            {"n": 32, "dim": 2, "distribution": "on_sphere", "seed": 3}, self.P)
        sphere = project_measure(ens, self.P.r)
        return ens, sphere, self.final(sphere, 1.25e-4)

    def orders(self, start, ref):
        errs = [w1_exact(self.final(start, dt), ref).value for dt in self.DTS]
        return [math.log2(a / b) for a, b in zip(errs, errs[1:])]

    def test_limit_step_first_order(self, runs):
        _, sphere, ref = runs
        for q in self.orders(sphere, ref):
            assert 0.8 <= q <= 1.4

    def test_strang_converges_to_limit_as_eps_vanishes(self, runs):
        # asymptotic preservation: at eps = 1e-9 the splitting tracks the
        # limit dynamics, at first order (Strang's second order is lost)
        ens, _, ref = runs
        for q in self.orders(ens, ref):
            assert 0.8 <= q <= 1.4
