import itertools
import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from swarmlab import (
    ModelParams,
    PhaseEnsemble,
    builtin_kernels,
    convergence_study,
    simulate,
    w1_exact,
)
from swarmlab.eps_dynamics import SimConfig, snapshot_indices
from swarmlab.errors import DimensionMismatch, Diverged, TooLarge, ValidationError
from swarmlab.transport import EXACT_CAP, _w1_lp

from conftest import make_phase, make_sphere, snapshots
from oracles import equicontinuity_probe

ZERO = builtin_kernels("zero_potential")
CS = builtin_kernels("cucker_smale_weight", {"K": 1.0, "gamma": 1.0})


class TestW1Exact:
    def test_identical_ensembles(self):
        ens = make_phase(10, seed=1)
        assert w1_exact(ens, ens).value == 0.0

    def test_single_pair_transport(self):
        a = PhaseEnsemble(x=[[0.0, 0.0]], v=[[1e-9, 0.0]], w=[1.0])
        b = PhaseEnsemble(x=[[3.0, 4.0]], v=[[1e-9, 0.0]], w=[1.0])
        assert w1_exact(a, b).value == pytest.approx(5.0, rel=1e-12)

    def test_brute_force_eight_points(self, rng):
        perms = np.array(list(itertools.permutations(range(8))))
        for trial in range(10):
            a = make_phase(8, seed=trial)
            b = make_phase(8, seed=trial + 1000)
            cost = cdist(np.hstack([a.x, a.v]), np.hstack([b.x, b.v]))
            brute = float(cost[np.arange(8)[None, :], perms].sum(axis=1).min() / 8)
            assert w1_exact(a, b).value == pytest.approx(brute, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            w1_exact(make_phase(4, d=2), make_phase(4, d=3))

    @pytest.fixture
    def no_cost(self, monkeypatch):
        import swarmlab.transport as transport

        def no_cost(*args, **kwargs):
            raise AssertionError("cost matrix built past the LP cap")

        monkeypatch.setattr(transport, "cdist", no_cost)

    def test_too_large_names_the_cap(self, no_cost, rng):
        # weighted, so the LP's n + m bound applies: 1100 + 1000 > EXACT_CAP
        a = make_phase(1100, seed=2, weights=rng.dirichlet(np.ones(1100)))
        with pytest.raises(TooLarge, match="EXACT_CAP"):
            w1_exact(a, make_phase(1000, seed=3))

    @pytest.mark.parametrize("n,m", [(1500, 1500), (1024, 2048)])
    def test_uniform_up_to_the_replica_bound_is_one_assignment(self, n, m):
        # past n + m = EXACT_CAP, but lcm(n, m) <= EXACT_CAP replicas
        a, b = make_phase(n, seed=2), make_phase(m, seed=3)
        rep = w1_exact(a, b)
        assert rep.solver == "assignment"
        marginal, cost = _plan_marginals_and_cost(rep, a, b)
        assert marginal <= 1e-12
        assert abs(cost - rep.value) <= 1e-12

    def test_uniform_past_both_bounds_names_exact_cap(self, no_cost):
        with pytest.raises(TooLarge, match="EXACT_CAP"):
            w1_exact(make_phase(2049, seed=2), make_phase(2049, seed=3))

    def test_lp_cap_raises_before_building_cost(self, no_cost, rng):
        # 400 + 800 atoms pass the combined cap, but the 320k-entry LP that
        # non-uniform weights need does not
        a = make_phase(400, seed=2, weights=rng.dirichlet(np.ones(400)))
        with pytest.raises(TooLarge, match="LP_CAP"):
            w1_exact(a, make_phase(800, seed=3))

    def test_uniform_past_replica_bound_hits_lp_cap(self, no_cost):
        # uniform, but lcm(401, 800) = 320,800 replicas is past EXACT_CAP, so
        # the pair falls back to the LP and its 320,800 plan entries
        assert math.lcm(401, 800) > EXACT_CAP
        with pytest.raises(TooLarge, match="LP_CAP"):
            w1_exact(make_phase(401, seed=2), make_phase(800, seed=3))

    def test_plan_marginals_and_value(self, rng):
        a = make_phase(9, seed=4, weights=rng.dirichlet(np.ones(9)))
        b = make_phase(7, seed=5, weights=rng.dirichlet(np.ones(7)))
        rep = w1_exact(a, b)
        assert rep.solver == "lp"
        row = np.zeros(9)
        col = np.zeros(7)
        cost_from_plan = 0.0
        pa, pb = np.hstack([a.x, a.v]), np.hstack([b.x, b.v])
        for i, j, m in rep.plan:
            row[i] += m
            col[j] += m
            cost_from_plan += m * float(np.linalg.norm(pa[i] - pb[j]))
        assert np.max(np.abs(row - a.w)) <= 1e-12
        assert np.max(np.abs(col - b.w)) <= 1e-12
        assert cost_from_plan == pytest.approx(rep.value, abs=1e-12)
        assert rep.residual <= 1e-12

    def test_lp_residual_is_that_of_its_plan(self):
        # HiGHS's solution vector, before its entries <= 1e-15 leave the
        # plan, misses a marginal by 2.220e-16; the reported plan by 2.255e-16
        rng = np.random.default_rng(1)
        a = make_phase(37, seed=1, weights=rng.dirichlet(np.ones(37)))
        b = make_phase(61, seed=101)
        rep = w1_exact(a, b)
        assert rep.solver == "lp"
        marginal, _ = _plan_marginals_and_cost(rep, a, b)
        assert rep.residual == marginal

    def test_lp_agrees_with_assignment_on_duplicated_atoms(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 2))
        v = rng.normal(size=(3, 2)) + 2
        mu = PhaseEnsemble(x=x, v=v, w=[0.5, 0.25, 0.25])
        mu4 = PhaseEnsemble(x=np.vstack([x[0], x]), v=np.vstack([v[0], v]),
                            w=np.full(4, 0.25))
        nu = make_phase(4, seed=7)
        assert w1_exact(mu, nu).value == pytest.approx(
            w1_exact(mu4, nu).value, abs=1e-12)

    def test_two_opt_local_optimality(self, rng):
        for trial in range(5):
            a = make_phase(12, seed=trial + 20)
            b = make_phase(12, seed=trial + 40)
            rep = w1_exact(a, b)
            cost = cdist(np.hstack([a.x, a.v]), np.hstack([b.x, b.v]))
            match = {i: j for i, j, _ in rep.plan}
            for i1, i2 in itertools.combinations(range(12), 2):
                j1, j2 = match[i1], match[i2]
                assert (cost[i1, j1] + cost[i2, j2]
                        <= cost[i1, j2] + cost[i2, j1] + 1e-12)

    def test_metric_axioms(self):
        for trial in range(20):
            es = [make_phase(16, seed=trial * 3 + k) for k in range(3)]
            d01 = w1_exact(es[0], es[1]).value
            d10 = w1_exact(es[1], es[0]).value
            d12 = w1_exact(es[1], es[2]).value
            d02 = w1_exact(es[0], es[2]).value
            assert abs(d01 - d10) <= 1e-12
            assert d02 <= d01 + d12 + 1e-9

    def test_translation_identity(self, rng):
        ens = make_phase(20, seed=8)
        for _ in range(5):
            u = rng.uniform(-3, 3, size=2)
            moved = PhaseEnsemble(x=ens.x + u, v=ens.v, w=ens.w)
            assert w1_exact(ens, moved).value == pytest.approx(
                float(np.linalg.norm(u)), rel=1e-12)

    def test_shrinking_perturbation_linear(self, rng):
        ens = make_phase(24, seed=9)
        dirs = rng.standard_normal((24, 4))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for delta in (1e-1, 1e-2, 1e-3):
            x = ens.x + delta * dirs[:, :2]
            v = ens.v + delta * dirs[:, 2:]
            moved = PhaseEnsemble(x=x, v=v, w=ens.w)
            val = w1_exact(ens, moved).value
            assert val == pytest.approx(delta, rel=1e-9)

    def test_accepts_sphere_vs_phase(self):
        sph = make_sphere(6, d=2, r=1.0, seed=10)
        phs = PhaseEnsemble(x=sph.x, v=sph.v, w=sph.w)
        assert w1_exact(sph, phs).value == 0.0


def _plan_marginals_and_cost(rep, a, b):
    i, j, mass = (np.array(col) for col in zip(*rep.plan))
    i, j = i.astype(int), j.astype(int)
    rows = np.bincount(i, weights=mass, minlength=a.n)
    cols = np.bincount(j, weights=mass, minlength=b.n)
    marginal = max(float(np.max(np.abs(rows - a.w))), float(np.max(np.abs(cols - b.w))))
    pa, pb = np.hstack([a.x, a.v]), np.hstack([b.x, b.v])
    cost = float(np.sum(mass * np.linalg.norm(pa[i] - pb[j], axis=1)))
    return marginal, cost


class TestUniformReplicatedAssignment:
    """Uniform n != m pairs with lcm(n, m) <= EXACT_CAP solve one assignment
    on replicated atoms; it must reach the transport LP's optimum."""

    @pytest.mark.parametrize("n,m,solver", [
        (3, 5, "assignment"), (4, 6, "assignment"), (60, 90, "assignment"),
        (37, 61, "lp"),   # lcm 2257 is past the replica bound
    ])
    def test_agrees_with_lp(self, n, m, solver):
        a, b = make_phase(n, seed=n), make_phase(m, seed=1000 + m)
        rep = w1_exact(a, b)
        assert rep.solver == solver
        lp_value = _w1_lp(a, b)[0]
        assert abs(rep.value - lp_value) <= 1e-12
        marginal, cost = _plan_marginals_and_cost(rep, a, b)
        assert marginal <= 1e-12
        assert abs(cost - rep.value) <= 1e-12
        assert rep.residual <= 1e-12
        assert rep.residual == marginal   # measured from the reported plan, not assumed

    def test_plan_sorted_without_duplicates(self):
        rep = w1_exact(make_phase(4, seed=1), make_phase(6, seed=2))
        keys = [(i, j) for i, j, _ in rep.plan]
        assert keys == sorted(set(keys))
        assert rep.iterations == 12

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 12), m=st.integers(1, 12), seed=st.integers(0, 10**6))
    def test_value_matches_lp(self, n, m, seed):
        a, b = make_phase(n, seed=seed), make_phase(m, seed=seed + 1)
        rep = w1_exact(a, b)
        assert rep.solver == "assignment"
        lp_value = _w1_lp(a, b)[0]
        assert abs(rep.value - lp_value) <= 1e-12


def _coupled(n, d, seed, noise):
    """A uniform cloud and its copy moved by `noise`-sized Gaussian steps."""
    a = make_phase(n, d=d, seed=seed)
    step = noise * np.random.default_rng(seed + 1).standard_normal((n, 2 * d))
    return a, PhaseEnsemble(x=a.x + step[:, :d], v=a.v + step[:, d:], w=a.w)


def _dense_assignment(mu, nu):
    """The equal-count value and plan of a cdist matrix and one LSAP solve."""
    cost = cdist(np.hstack([mu.x, mu.v]), np.hstack([nu.x, nu.v]))
    rows, cols = linear_sum_assignment(cost)
    value = float(np.sum(cost[rows, cols]) * (1.0 / mu.n))
    return value, tuple(zip(rows.tolist(), cols.tolist(), [1.0 / mu.n] * mu.n))


class TestNearestNeighbourCertificate:
    """Equal uniform counts whose nearest-column map is a permutation take it
    as the plan without a cost matrix or an assignment; others reach LSAP."""

    # _w1_assignment imports linear_sum_assignment when it calls it, so the
    # patches go on scipy.optimize itself

    @pytest.fixture
    def lsap_calls(self, monkeypatch):
        import scipy.optimize

        calls = []

        def counting(cost):
            calls.append(cost.shape)
            return linear_sum_assignment(cost)

        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counting)
        return calls

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("d", [2, 3])
    def test_coupled_clouds_skip_the_assignment(self, n, d, monkeypatch):
        import scipy.optimize

        def no_lsap(cost):
            raise AssertionError("a coupled pair reached linear_sum_assignment")

        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", no_lsap)
        mu, nu = _coupled(n, d, seed=n + d, noise=1e-3)
        rep = w1_exact(mu, nu)
        value, plan = _dense_assignment(mu, nu)
        assert (rep.value, rep.plan) == (value, plan)
        assert (rep.solver, rep.iterations, rep.residual) == ("assignment", n, 0.0)

    def test_independent_clouds_reach_the_assignment(self, lsap_calls):
        mu, nu = make_phase(64, seed=1), make_phase(64, seed=2)
        rep = w1_exact(mu, nu)
        assert lsap_calls == [(64, 64)]
        assert (rep.value, rep.plan) == _dense_assignment(mu, nu)

    def test_duplicated_atom_reaches_the_assignment(self, lsap_calls):
        # mu's first two atoms are one point, so both rows find the same
        # nearest column of nu, whose first two atoms are one point too
        keep = [0, 0, *range(2, 64)]
        mu, nu = (PhaseEnsemble(x=e.x[keep], v=e.v[keep], w=e.w)
                  for e in _coupled(64, 2, seed=3, noise=1e-3))
        rep = w1_exact(mu, nu)
        assert lsap_calls == [(64, 64)]
        assert (rep.value, rep.plan) == _dense_assignment(mu, nu)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), d=st.sampled_from([2, 3]), seed=st.integers(0, 10**6),
           noise=st.sampled_from([0.0, 1e-9, 1e-3, 0.1, 10.0]))
    def test_value_is_the_dense_value(self, n, d, seed, noise):
        mu, nu = _coupled(n, d, seed, noise)
        rep = w1_exact(mu, nu)
        assert rep.value == _dense_assignment(mu, nu)[0]
        assert rep.residual == 0.0


class TestConvergenceStudy:
    def test_well_prepared_t0_is_zero_and_table_shape(self):
        params = ModelParams(1.0, 1.0, 0.1)
        ens = make_sphere(16, d=2, r=1.0, seed=11)
        f_in = PhaseEnsemble(x=ens.x, v=ens.v, w=ens.w)
        cfg = SimConfig(params=params, spec=CS, dt=1e-2, steps=20,
                        snapshot_stride=10, rng_seed=1)
        rows = convergence_study(f_in, [0.1, 0.05], [0.0, 0.2], cfg)
        w1 = {(row["eps"], row["t"]): row["w1"] for row in rows}
        # shared atoms at t = 0; the sphere projection of on-sphere data moves
        # each atom by at most one rounding, so "zero" means machine-level
        assert w1[0.1, 0.0] <= 1e-14
        assert w1[0.05, 0.0] <= 1e-14
        assert len(rows) == 4

    def test_eps_order_enforced(self):
        params = ModelParams(1.0, 1.0, 0.1)
        f_in = make_phase(8, seed=12)
        cfg = SimConfig(params=params, spec=CS, dt=1e-2, steps=10, rng_seed=1)
        with pytest.raises(ValidationError):
            convergence_study(f_in, [0.05, 0.1], [0.1], cfg)

    def test_t_grid_off_snapshots_rejected_before_integration(self, monkeypatch):
        import swarmlab.transport as transport

        def no_run(*args, **kwargs):
            raise AssertionError("simulate ran before the t_grid check")

        monkeypatch.setattr(transport, "simulate", no_run)
        params = ModelParams(1.0, 1.0, 0.1)
        cfg = SimConfig(params=params, spec=CS, dt=1e-3, steps=200,
                        snapshot_stride=100, rng_seed=1)
        # snapshots land at 0, 0.1 and 0.2; 0.05 is 0.05 away from each
        with pytest.raises(ValidationError, match="t_grid"):
            convergence_study(make_phase(8, seed=12), [0.1, 0.05], [0.0, 0.05, 0.2], cfg)

    def test_too_large_rejected_before_integration(self, monkeypatch):
        import swarmlab.transport as transport

        def no_run(*args, **kwargs):
            raise AssertionError("simulate ran before the W1 size check")

        monkeypatch.setattr(transport, "simulate", no_run)
        cfg = SimConfig(params=ModelParams(1.0, 1.0, 0.1), spec=CS, dt=1e-2, steps=10,
                        snapshot_stride=10, rng_seed=1)
        with pytest.raises(TooLarge, match="EXACT_CAP"):
            convergence_study(make_phase(2049, seed=12), [0.1, 0.05], [0.0, 0.1], cfg)

    def test_runs_integrate_to_the_callers_horizon(self, monkeypatch):
        import swarmlab.transport as transport

        horizons = []

        def recording(f_in, cfg):
            horizons.append(cfg.steps)
            return simulate(f_in, cfg)

        monkeypatch.setattr(transport, "simulate", recording)
        cfg = SimConfig(params=ModelParams(1.0, 1.0, 0.1), spec=CS, dt=1e-2, steps=100,
                        snapshot_stride=10, rng_seed=1)
        rows = convergence_study(make_phase(8, seed=12), [0.1, 0.05], [0.0, 0.1], cfg)
        assert horizons == [100, 100, 100]
        assert len(rows) == 4

    def test_each_distinct_snapshot_pair_is_solved_once(self, monkeypatch):
        import swarmlab.transport as transport

        pairs = []

        def counting(mu, nu):
            pairs.append((mu, nu))
            return w1_exact(mu, nu)

        monkeypatch.setattr(transport, "w1_exact", counting)
        cfg = SimConfig(params=ModelParams(1.0, 1.0, 0.1), spec=CS, dt=1e-2, steps=10,
                        snapshot_stride=10, rng_seed=1)
        f_in = make_phase(8, seed=12)
        rows = convergence_study(f_in, [0.1, 0.05, 0.02], [0.0, 0.1], cfg)
        # at t = 0 every eps run's snapshot is f_in: one solve for three rows
        assert len(pairs) == 4
        assert sum(mu is f_in for mu, _ in pairs) == 1
        assert len(rows) == 6
        at_t0 = [row for row in rows if row["t"] == 0.0]
        assert len({(row["w1"], row["runtime_ms"]) for row in at_t0}) == 1


class TestStudyLanes:
    """convergence_study's runs and W1 solves on SWARM_THREADS lanes."""

    CFG = SimConfig(params=ModelParams(1.0, 1.0, 0.1), spec=CS, dt=1e-2, steps=10,
                    snapshot_stride=10, rng_seed=1)

    @staticmethod
    def _rows(rows):
        return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]

    def test_rows_equal_at_one_two_and_three_lanes(self, monkeypatch):
        f_in = make_phase(16, seed=12)
        tables = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("SWARM_THREADS", threads)
            tables.append(self._rows(convergence_study(f_in, [0.1, 0.05, 0.02],
                                                       [0.0, 0.1], self.CFG)))
        assert len(tables[0]) == 6
        assert tables[0] == tables[1] == tables[2]

    @pytest.mark.parametrize("threads", [None, ""])
    def test_unset_or_empty_is_one_lane(self, threads, monkeypatch):
        import swarmlab.transport as transport
        if threads is None:
            monkeypatch.delenv("SWARM_THREADS", raising=False)
        else:
            monkeypatch.setenv("SWARM_THREADS", threads)
        assert transport._worker_count() == 1

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5", "²"])
    def test_value_not_a_lane_count_raises(self, threads, monkeypatch):
        import swarmlab.transport as transport
        monkeypatch.setenv("SWARM_THREADS", threads)
        with pytest.raises(ValidationError, match="SWARM_THREADS"):
            transport._worker_count()

    def test_one_lane_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started at SWARM_THREADS=1")

        monkeypatch.setattr(threading, "Thread", no_thread)
        monkeypatch.setenv("SWARM_THREADS", "1")
        rows = convergence_study(make_phase(8, seed=12), [0.1, 0.05], [0.0, 0.1], self.CFG)
        assert len(rows) == 4

    def test_runs_use_at_most_one_lane_each_with_the_caller(self, monkeypatch):
        import swarmlab.transport as transport

        ran_on = set()

        def recording(f_in, cfg):
            ran_on.add(threading.current_thread())
            return simulate(f_in, cfg)

        monkeypatch.setattr(transport, "simulate", recording)
        monkeypatch.setenv("SWARM_THREADS", "8")
        convergence_study(make_phase(8, seed=12), [0.1, 0.05], [0.0, 0.1], self.CFG)
        assert len(ran_on) <= 3  # the limit run and two eps runs
        assert threading.current_thread() in ran_on

    def test_lanes_keep_item_order_under_fast_switching(self, monkeypatch):
        from swarmlab.transport import _lanes_map

        def square(k):
            if k in (77, 150):
                raise ValueError(f"item {k}")
            return k * k

        monkeypatch.setenv("SWARM_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert _lanes_map(lambda k: k * k, range(200)) == [k * k for k in range(200)]
            with pytest.raises(ValueError, match="item 77"):
                _lanes_map(square, range(200))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_raises_diverged(self, monkeypatch):
        # the limit run on lane 0 stays on its sphere; the eps run on lane 1
        # overflows, and its lane raises that as Diverged rather than warning
        cfg = replace(self.CFG, spec=builtin_kernels("constant_weight", {"K": 1e100}))
        monkeypatch.setenv("SWARM_THREADS", "2")
        with pytest.raises(Diverged, match="step 1 "):
            convergence_study(make_phase(8, seed=12), [0.1], [0.0, 0.1], cfg)

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_first_failing_run_in_order_raises(self, threads, monkeypatch):
        import swarmlab.transport as transport

        ran_on = set()

        def failing(f_in, cfg):
            ran_on.add(threading.current_thread())
            if cfg.params.eps == 0.05:
                time.sleep(0.05)  # fails after the later run 0.02 has failed
                raise ValidationError("run at eps 0.05 failed")
            if cfg.params.eps == 0.02:
                raise ValidationError("run at eps 0.02 failed")
            return simulate(f_in, cfg)

        monkeypatch.setattr(transport, "simulate", failing)
        monkeypatch.setenv("SWARM_THREADS", threads)
        with pytest.raises(ValidationError, match="eps 0.05"):
            convergence_study(make_phase(8, seed=12), [0.1, 0.05, 0.02], [0.0, 0.1],
                              self.CFG)
        assert not any(t.is_alive() for t in ran_on - {threading.current_thread()})


class TestEquicontinuityProbe:
    def test_pure_transport_ratio_is_r(self):
        # a = 0 on the sphere: atoms translate at speed r, so
        # W1(f(t), f(s)) = r |t - s| for small gaps
        r = 1.5
        params = ModelParams(2.25, 1.0, 1.0)
        ens = make_sphere(12, d=2, r=r, seed=13, box=4.0)
        cfg = SimConfig(params=params, spec=ZERO, dt=1e-2, steps=20,
                        snapshot_stride=5)
        snaps = snapshots(ens, cfg)
        for (t, s) in [(0.0, 0.05), (0.05, 0.15), (0.0, 0.1)]:
            k_t, k_s = snapshot_indices(ens.time, cfg, [t, s])
            rep = w1_exact(snaps[k_t], snaps[k_s])
            assert rep.value == pytest.approx(r * abs(t - s), rel=1e-9)

    def test_identical_times_rejected(self):
        params = ModelParams(1.0, 1.0, 0.1)
        cfg = SimConfig(params=params, spec=ZERO, dt=1e-2, steps=10, snapshot_stride=5)
        snaps = snapshots(make_phase(6, seed=14), cfg)
        with pytest.raises(ValidationError):
            equicontinuity_probe(snaps, cfg, [(0.0, 0.0)])

    def test_empty_pair_list_rejected(self):
        params = ModelParams(1.0, 1.0, 0.1)
        cfg = SimConfig(params=params, spec=ZERO, dt=1e-2, steps=10, snapshot_stride=5)
        snaps = snapshots(make_phase(6, seed=14), cfg)
        with pytest.raises(ValidationError, match="pair list is empty"):
            equicontinuity_probe(snaps, cfg, [])

    def test_well_prepared_ratio_below_constant(self):
        params = ModelParams(1.0, 1.0, 0.05)
        sph = make_sphere(32, d=2, r=1.0, seed=15)
        f_in = PhaseEnsemble(x=sph.x, v=sph.v, w=sph.w)
        cfg = SimConfig(params=params, spec=CS, dt=1e-3, steps=500,
                        snapshot_stride=100)
        snaps = snapshots(f_in, cfg)
        pairs = [(a.time, b.time) for a, b in itertools.combinations(snaps, 2)]
        rep = equicontinuity_probe(snaps, cfg, pairs)
        assert rep.n_pairs == len(pairs)
        assert np.isfinite(rep.bound_constant)
        assert rep.max_ratio <= rep.bound_constant
