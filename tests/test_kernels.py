import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import swarmlab
from swarmlab import (
    PhaseEnsemble,
    builtin_kernels,
    compose_kernels,
    w1_exact,
)
from swarmlab.errors import BadKernelParams, ValidationError
from swarmlab.core import ModelParams, moments, project_measure
from swarmlab.eps_dynamics import SimConfig, simulate
from swarmlab import kernels
from swarmlab.kernels import PairOperator

from conftest import field, field_sup, make_phase
from oracles import (SupNorms, align_weight, field_gap_bound, grad_align_weight, grad_potential,
                     hess_potential, potential, sup_norms)

GAUSSIAN = builtin_kernels("gaussian_attraction_repulsion",
                           {"C_A": 0.7, "l_A": 1.1, "C_R": 0.4, "l_R": 0.6})
ORACLE_SPECS = {
    "gaussian": GAUSSIAN,
    "cucker_smale": builtin_kernels("cucker_smale_weight", {"K": 1.3, "gamma": 0.8}),
    "constant": builtin_kernels("constant_weight", {"K": 0.9}),
    "zero": builtin_kernels("zero_potential"),
    "composed": compose_kernels(
        GAUSSIAN, builtin_kernels("cucker_smale_weight", {"K": 1.3, "gamma": 0.8})),
}


class TestBuiltins:
    def test_zero_potential(self):
        spec = builtin_kernels("zero_potential")
        norms = sup_norms(spec)
        assert norms.norm_U_hess == 0.0 and norms.norm_h == 0.0
        pts = np.random.default_rng(0).normal(size=(5, 2))
        assert_allclose(potential(spec, pts), 0.0)
        assert_allclose(grad_potential(spec, pts), 0.0)

    def test_cucker_smale_peak_at_origin(self):
        spec = builtin_kernels("cucker_smale_weight", {"K": 1.0, "gamma": 1.0})
        assert align_weight(spec, np.zeros(2)) == 1.0
        assert sup_norms(spec).norm_h == 1.0
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(200, 2)) * 3
        assert np.all(align_weight(spec, pts) <= 1.0)

    def test_cucker_smale_grad_bound_certified(self):
        spec = builtin_kernels("cucker_smale_weight", {"K": 2.0, "gamma": 1.5})
        rho = np.linspace(0, 10, 20001)
        pts = np.stack([rho, np.zeros_like(rho)], axis=1)
        grads = np.linalg.norm(grad_align_weight(spec, pts), axis=1)
        norm_grad_h = sup_norms(spec).norm_grad_h
        assert np.max(grads) <= norm_grad_h * (1 + 1e-12)
        assert np.max(grads) >= norm_grad_h * (1 - 1e-6)

    def test_gaussian_hessian_bound_grid_oracle(self):
        # dense grid maximization of the operator norm, cross-checked against
        # the closed-form critical points (max at the origin: 2 C_A / l_A^2)
        spec = builtin_kernels("gaussian_attraction_repulsion",
                               {"C_A": 1.0, "l_A": 1.0, "C_R": 0.0, "l_R": 1.0})
        grid = np.linspace(0.0, 6.0, 4001)
        worst = 0.0
        for rho in grid:
            h = hess_potential(spec, np.array([rho, 0.0]))
            worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(h)))))
        assert worst == pytest.approx(2.0, rel=1e-9)
        assert sup_norms(spec).norm_U_hess == pytest.approx(2.0, rel=1e-12)

    def test_gaussian_sum_bound_is_upper_bound(self):
        spec = builtin_kernels("gaussian_attraction_repulsion",
                               {"C_A": 0.8, "l_A": 1.2, "C_R": 0.5, "l_R": 0.4})
        grid = np.linspace(0.0, 8.0, 8001)
        worst = max(
            float(np.max(np.abs(np.linalg.eigvalsh(hess_potential(spec, np.array([rho, 0.0]))))))
            for rho in grid
        )
        norms = sup_norms(spec)
        assert worst <= norms.norm_U_hess * (1 + 1e-12)
        grads = np.linalg.norm(
            grad_potential(spec, np.stack([grid, np.zeros_like(grid)], axis=1)), axis=1)
        assert np.max(grads) <= norms.norm_grad_U * (1 + 1e-12)

    @pytest.mark.parametrize("name,params", [
        ("gaussian_attraction_repulsion", {"l_A": -1.0}),
        ("gaussian_attraction_repulsion", {"l_R": 0.0}),
        ("cucker_smale_weight", {"K": -1.0}),
        ("cucker_smale_weight", {"gamma": 0.0}),
        ("constant_weight", {"K": 0.0}),
        ("no_such_family", {}),
    ])
    def test_bad_params_rejected(self, name, params):
        with pytest.raises(BadKernelParams):
            builtin_kernels(name, params)

    def test_gaussian_term_without_amplitude_is_unchecked(self):
        # l_R^2 underflows to 0, but with C_R 0 that term is never evaluated
        spec = builtin_kernels("gaussian_attraction_repulsion",
                               {"C_A": 1.0, "l_A": 1.0, "C_R": 0.0, "l_R": 1e-300})
        assert spec.params["l_R"] == 1e-300

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cucker_smale_power_overflow_gives_weight_zero(self):
        # (1 + s)^gamma overflows to inf off the diagonal: the weight K w_j / inf is 0
        spec = builtin_kernels("cucker_smale_weight", {"K": 2.0, "gamma": 1e300})
        ens = make_phase(5, seed=3)
        op = PairOperator(ens.w, spec).build(ens.x)
        assert np.array_equal(op.H, np.diag(2.0 * ens.w))

    @pytest.mark.parametrize("name,params", [
        ("cucker_smale_weight", {"K": 1.0, "gama": 5.0}),
        ("constant_weight", {"K": 1.0, "gamma": 1.0}),
        ("gaussian_attraction_repulsion", {"C_A": 1.0, "l_a": 2.0}),
        ("zero_potential", {"K": 1.0}),
    ])
    def test_parameter_the_family_does_not_take_rejected(self, name, params):
        # a misspelled key would otherwise leave its parameter at the default
        with pytest.raises(BadKernelParams, match="takes parameters"):
            builtin_kernels(name, params)

    @pytest.mark.parametrize("potential_part,weight_part", [
        ("cucker_smale", "gaussian"),   # (weight, potential) order
        ("composed", "cucker_smale"),   # a composed spec already has a weight
        ("gaussian", "composed"),       # a composed spec has a potential
        ("gaussian", "gaussian"),       # two potentials
    ])
    def test_compose_rejects_a_part_of_the_wrong_kind(self, potential_part, weight_part):
        with pytest.raises(BadKernelParams, match="potential-only, weight-only"):
            compose_kernels(ORACLE_SPECS[potential_part], ORACLE_SPECS[weight_part])

    def test_compose_keeps_each_part(self):
        weight = ORACLE_SPECS["cucker_smale"]
        spec = compose_kernels(GAUSSIAN, weight)
        assert spec.potential is GAUSSIAN.potential
        assert spec.h is weight.h

    def test_builtins_pass_evenness_check(self):
        # a radial h is even by construction, which lets the pairwise alignment
        # sum conserve momentum; sample w_j h(s) >= 0 on squared distances of
        # the box [-5, 5]^3 (the profile overwrites its argument: pass a copy)
        rng = np.random.default_rng(0)
        s = rng.uniform(0.0, 75.0, size=(16, 16))
        w = rng.uniform(0.1, 1.0, size=16)
        for name in ("zero_potential", "constant_weight", "cucker_smale_weight"):
            spec = builtin_kernels(name)
            if spec.h is not None:
                weighted = s.copy()
                spec.h(weighted, w)
                assert np.all(weighted >= 0), name

    def test_gradient_consistency_central_differences(self):
        # numerical gradient of the closed-form U matches the pair build's
        # potential profile, grad_U(x) = 2 U'(|x|^2) x, to O(step^2)
        spec = builtin_kernels("gaussian_attraction_repulsion",
                               {"C_A": 1.0, "l_A": 1.0, "C_R": 0.6, "l_R": 0.5})
        rng = np.random.default_rng(3)
        errs = {}
        for step in (1e-3, 5e-4):
            worst = 0.0
            for _ in range(20):
                x = rng.uniform(-2, 2, size=2)
                s = np.array([[x @ x]])
                spec.potential(s, np.ones(1))   # overwrites s with U'(s)
                g = 2.0 * s[0, 0] * x
                fd = np.zeros(2)
                for k in range(2):
                    e = np.zeros(2)
                    e[k] = step
                    fd[k] = (potential(spec, x + e) - potential(spec, x - e)) / (2 * step)
                worst = max(worst, float(np.max(np.abs(fd - g))))
            errs[step] = worst
        assert errs[1e-3] < 5e-6
        assert errs[5e-4] < 0.3 * errs[1e-3]  # ~O(step^2) decay


class TestAcceleration:
    def test_two_body_alignment(self):
        spec = builtin_kernels("constant_weight", {"K": 1.0})
        ens = PhaseEnsemble(x=[[0.5, 0.5], [0.5, 0.5]],
                            v=[[1.0, 0.0], [-1.0, 0.0]], w=[0.5, 0.5])
        assert_allclose(field(ens, spec), [[-1.0, 0.0], [1.0, 0.0]], atol=1e-15)
        assert field_sup(ens, spec) == pytest.approx(1.0)

    def test_consensus_is_fixed_point(self):
        spec = builtin_kernels("cucker_smale_weight")
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 2))
        v = np.tile([0.3, 0.7], (10, 1))
        ens = PhaseEnsemble.uniform_weights(x, v)
        assert field_sup(ens, spec) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("family", sorted(ORACLE_SPECS))
    def test_against_double_loop_fsum_oracle(self, family, d):
        # the pair-operator field against exactly rounded pair sums of the
        # vector evaluators
        spec = ORACLE_SPECS[family]
        ens = make_phase(50, d=d, seed=5)
        got = field(ens, spec)
        n = ens.n
        dx = ens.x[:, None, :] - ens.x[None, :, :]
        grad = grad_potential(spec, dx)
        h = align_weight(spec, dx)
        oracle = np.zeros((n, d))
        for i in range(n):
            for k in range(d):
                terms = []
                for j in range(n):
                    terms.append(-ens.w[j] * float(grad[i, j, k]))
                    terms.append(ens.w[j] * float(h[i, j]) * (ens.v[j, k] - ens.v[i, k]))
                oracle[i, k] = math.fsum(terms)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(got - oracle)) <= 1e-12 * scale

    def test_momentum_identity(self):
        spec = builtin_kernels("cucker_smale_weight")
        for seed in range(5):
            ens = make_phase(64, seed=seed)
            a = field(ens, spec)
            assert np.linalg.norm(np.sum(ens.w[:, None] * a, axis=0)) <= 1e-13

    def test_dissipation_identity(self):
        spec = builtin_kernels("cucker_smale_weight")
        for seed in range(5):
            ens = make_phase(64, seed=seed + 100)
            a = field(ens, spec)
            lhs = float(np.sum(ens.w * np.sum(ens.v * a, axis=1)))
            dx = ens.x[:, None, :] - ens.x[None, :, :]
            hh = align_weight(spec, dx)
            dv2 = np.sum((ens.v[:, None, :] - ens.v[None, :, :]) ** 2, axis=2)
            rhs = -0.5 * float(np.sum(ens.w[:, None] * ens.w[None, :] * hh * dv2))
            assert rhs <= 0
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_sup_norm_bound(self):
        spec = compose_kernels(
            builtin_kernels("gaussian_attraction_repulsion", {"C_A": 1.0, "l_A": 1.0}),
            builtin_kernels("cucker_smale_weight"),
        )
        ens = make_phase(80, seed=6)
        norms = sup_norms(spec)
        rep_speeds = np.linalg.norm(ens.v, axis=1)
        diam = float(np.max(rep_speeds) + np.max(rep_speeds))
        assert field_sup(ens, spec) <= norms.norm_grad_U + norms.norm_h * diam + 1e-12

    def test_interaction_energy_matches_double_sum(self):
        spec = builtin_kernels("gaussian_attraction_repulsion",
                               {"C_A": 1.0, "l_A": 1.0, "C_R": 0.2, "l_R": 0.5})
        ens = make_phase(30, seed=7)
        got = PairOperator(ens.w, spec).build(ens.x).energy
        oracle = 0.5 * math.fsum(
            float(ens.w[i] * ens.w[j] * potential(spec, ens.x[i] - ens.x[j]))
            for i in range(30) for j in range(30))
        assert got == pytest.approx(oracle, rel=1e-12)


K_STEPS = 5

# Bytes of pair-operator fields, one line per (N, d) case given as JSON in
# argv[1]: the Cucker-Smale field and a Gaussian build's force.
_FIELD_BYTES = """
import hashlib, json, sys
import numpy as np
from swarmlab import builtin_kernels
from swarmlab.kernels import PairOperator
specs = {"cucker_smale": builtin_kernels("cucker_smale_weight", {"K": 1.0, "gamma": 1.0}),
         "gaussian": builtin_kernels("gaussian_attraction_repulsion",
                                     {"C_A": 0.7, "l_A": 1.1, "C_R": 0.4, "l_R": 0.6})}
for name, n, d in json.loads(sys.argv[1]):
    rng = np.random.default_rng(n)
    x, v = rng.standard_normal((2, n, d))
    a = PairOperator(np.full(n, 1.0 / n), specs[name]).build(x).field(v)
    print(name, n, d, hashlib.sha256(a.tobytes()).hexdigest())
"""


def _stride_2_run(limit):
    """A K_STEPS-step run of the composed kernel at snapshot stride 2 (steps
    0, 2, 4 and 5), in the eps regime or, with diffusion, its sphere limit."""
    p = ModelParams(1.0, 1.0, 0.05)
    ens = make_phase(16, seed=9)
    return list(simulate(project_measure(ens, p.r) if limit else ens,
                         SimConfig(params=p, spec=ORACLE_SPECS["composed"], dt=1e-2,
                                   steps=K_STEPS, snapshot_stride=2, diffusion=limit)))


class TestPairOperator:
    @pytest.mark.parametrize("gamma", [1.0, 1.5])
    def test_built_alignment_matrix_is_weighted_profile(self, gamma):
        # H_ij = w_j h(s_ij) against the closed form, for non-uniform weights;
        # gamma = 1 takes the profile's path without the power
        rng = np.random.default_rng(11)
        w = rng.uniform(0.2, 1.0, size=60)
        w /= np.sum(w)
        x = rng.uniform(-2.0, 2.0, size=(60, 3))
        dx = x[:, None, :] - x[None, :, :]
        for spec in (builtin_kernels("cucker_smale_weight", {"K": 1.3, "gamma": gamma}),
                     builtin_kernels("constant_weight", {"K": 0.9})):
            op = PairOperator(w, spec).build(x)
            oracle = w[None, :] * align_weight(spec, dx)
            assert_allclose(op.H, oracle, rtol=4 * np.finfo(float).eps, atol=0)
            assert_allclose(op.h_rowsum, np.sum(oracle, axis=1), rtol=1e-14, atol=0)

    def test_gaussian_force_and_energy_with_non_uniform_weights(self):
        # the potential profile folds w_j into U'(s_ij): check the force and
        # the energy against exactly rounded double sums of the closed forms
        rng = np.random.default_rng(12)
        w = rng.uniform(0.2, 1.0, size=40)
        w /= np.sum(w)
        ens = make_phase(40, d=3, seed=12, weights=w)
        op = PairOperator(ens.w, GAUSSIAN).build(ens.x)
        dx = ens.x[:, None, :] - ens.x[None, :, :]
        grad = grad_potential(GAUSSIAN, dx)
        force = np.array([[math.fsum(-ens.w * grad[i, :, k]) for k in range(3)]
                          for i in range(40)])
        assert np.max(np.abs(op.force - force)) <= 1e-12 * np.max(np.abs(force))
        energy = 0.5 * math.fsum(
            (ens.w[:, None] * ens.w[None, :] * potential(GAUSSIAN, dx)).ravel())
        assert op.energy == pytest.approx(energy, rel=1e-12)

    def test_field_bytes_independent_of_blas_threads(self):
        # a whole-matrix BLAS product changed bytes between 1 and 2 OpenBLAS
        # threads in each of these cases (OpenBLAS 0.3.31, 2-CPU x86). OpenBLAS
        # reads its thread count when numpy loads: one process per count.
        cases = ([["cucker_smale", n, 3] for n in (581, 616, 651, 686)]
                 + [["cucker_smale", 1000, 2], ["gaussian", 616, 3]])
        src = str(Path(swarmlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        lines = []
        for blas in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas, "PYTHONPATH": path}
            lines.append(subprocess.run(
                [sys.executable, "-c", _FIELD_BYTES, json.dumps(cases)], env=env,
                check=True, capture_output=True, text=True).stdout.splitlines())
        assert len(lines[0]) == len(cases)
        assert lines[0] == lines[1]

    def test_one_pair_pass_per_position_state(self, monkeypatch):
        # every pair pass is a cdist call, the interaction energy included:
        # a K-step run of either regime visits K + 1 position states
        passes = []
        real_cdist = kernels.cdist

        def counting_cdist(*args, **kwargs):
            passes.append(args[0].shape)
            return real_cdist(*args, **kwargs)

        monkeypatch.setattr(kernels, "cdist", counting_cdist)
        for limit in (False, True):
            passes.clear()
            _stride_2_run(limit)
            assert len(passes) == K_STEPS + 1, "limit" if limit else "eps"

    @pytest.mark.parametrize("limit", [False, True], ids=["eps", "limit"])
    def test_energies_match_double_sum(self, limit):
        spec = ORACLE_SPECS["composed"]
        run = _stride_2_run(limit)
        assert len(run) == 4   # steps 0, 2, 4 and the last, 5
        for snap, pair_energy in run:
            kinetic = 0.5 * math.fsum(snap.w * np.sum(snap.v * snap.v, axis=1))
            dx = snap.x[:, None, :] - snap.x[None, :, :]
            pair = 0.5 * math.fsum(
                (snap.w[:, None] * snap.w[None, :] * potential(spec, dx)).ravel())
            assert moments(snap).kinetic_energy + pair_energy == pytest.approx(
                kinetic + pair, rel=1e-13)

    def test_rebuild_matches_fresh_build(self):
        # a rebuild reuses the N x N buffer; nothing of the old state survives
        spec = ORACLE_SPECS["composed"]
        a, b = make_phase(40, d=3, seed=1), make_phase(40, d=3, seed=2)
        op = PairOperator(a.w, spec).build(a.x)
        op.field(a.v)
        fresh = PairOperator(b.w, spec).build(b.x)
        assert np.array_equal(op.build(b.x).field(b.v), fresh.field(b.v))
        assert op.energy == fresh.energy


class TestFieldGapBound:
    def test_zero_kernels_give_zero(self):
        assert field_gap_bound(sup_norms(builtin_kernels("zero_potential")), 1.0) == 0.0

    def test_displayed_constant(self):
        # ||U''|| = 2, ||h|| = 1, ||grad h|| = 0.5, R = 1 -> 2 + sqrt(2)
        norms = SupNorms(norm_U_hess=2.0, norm_grad_U=0.0, norm_h=1.0, norm_grad_h=0.5)
        assert field_gap_bound(norms, 1.0) == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-12)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValidationError):
            field_gap_bound(sup_norms(builtin_kernels("zero_potential")), 0.0)

    def test_monte_carlo_lipschitz_verification(self):
        # |a_f(z) - a_g(z)| <= bound * W1(f, g) at sampled field points, for
        # ensembles supported in a common velocity ball B_R
        spec = compose_kernels(
            builtin_kernels("gaussian_attraction_repulsion",
                            {"C_A": 0.5, "l_A": 1.0, "C_R": 0.3, "l_R": 0.5}),
            builtin_kernels("cucker_smale_weight", {"K": 1.0, "gamma": 1.0}),
        )
        R = 2.0
        bound = field_gap_bound(sup_norms(spec), R)
        rng = np.random.default_rng(8)
        for trial in range(10):
            f = make_phase(32, seed=trial, speed_lo=0.3, speed_hi=R)
            g = make_phase(32, seed=trial + 50, speed_lo=0.3, speed_hi=R)
            w1 = w1_exact(f, g).value
            # field gap at sample points (z, u): evaluate both mean fields
            for _ in range(6):
                z = rng.uniform(-1, 1, size=2)
                u = rng.uniform(-R, R, size=2)
                gap = np.zeros(2)
                for ens, sign in ((f, 1.0), (g, -1.0)):
                    pot = -np.sum(ens.w[:, None] * grad_potential(spec, z - ens.x), axis=0)
                    ali = np.sum((ens.w * align_weight(spec, z - ens.x))[:, None]
                                 * (ens.v - u), axis=0)
                    gap += sign * (pot + ali)
                assert np.linalg.norm(gap) <= bound * w1 * (1 + 1e-9)
