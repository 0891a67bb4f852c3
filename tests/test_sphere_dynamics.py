import math

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

import swarmlab.noise as noise
from swarmlab import (
    ModelParams,
    PhaseEnsemble,
    builtin_kernels,
    simulate,
    spherical_coords_3d,
    tangential_projection,
)
from swarmlab.eps_dynamics import SimConfig
from swarmlab.errors import ValidationError, ZeroVelocityParticle

from conftest import make_sphere
from oracles import (PoleSingularity, laplace_beltrami_via_extension, mobius_alignment,
                     sphere_point_3d, spherical_divergence_3d, spherical_laplacian_3d,
                     tangent_frame_3d, zero_hom_laplacian_formula)

ZERO = builtin_kernels("zero_potential")
CONST = builtin_kernels("constant_weight", {"K": 1.0})


class TestTangentialProjection:
    def test_parallel_killed(self):
        omega = np.array([0.0, 0.0, 2.0])
        assert_allclose(tangential_projection(3.0 * omega, omega), 0.0, atol=1e-15)

    def test_orthogonal_unchanged(self):
        omega = np.array([0.0, 0.0, 2.0])
        a = np.array([1.0, -2.0, 0.0])
        assert_allclose(tangential_projection(a, omega), a, rtol=0, atol=0)

    def test_component_removal(self):
        omega = np.array([0.0, 0.0, 1.0])
        assert_allclose(tangential_projection(np.array([1.0, 0.0, 1.0]), omega),
                        [1.0, 0.0, 0.0], atol=1e-16)

    def test_tangency_tolerance(self, rng):
        ens = make_sphere(100, d=3, r=1.3, seed=1)
        a = rng.standard_normal((100, 3))
        xi = tangential_projection(a, ens.v)
        dots = np.abs(np.sum(xi * ens.v, axis=1))
        norms = np.linalg.norm(xi, axis=1)
        assert np.all(dots <= 1e-12 * 1.3 * np.maximum(norms, 1e-300))


class TestStepLimit:
    def test_zero_field_straight_lines(self):
        ens = make_sphere(8, d=2, r=1.5, seed=2)
        cfg = SimConfig(params=ModelParams(2.25, 1.0, 1.0), spec=ZERO,
                        dt=0.01, steps=1)
        out = simulate(ens, cfg).snapshots[-1]
        assert_allclose(out.v, ens.v, rtol=0, atol=0)
        assert_allclose(out.x, ens.x + 0.01 * ens.v, rtol=0, atol=0)

    def test_speed_conservation(self):
        ens = make_sphere(64, d=3, r=1.2, seed=3)
        cfg = SimConfig(params=ModelParams(1.44, 1.0, 1.0), spec=CONST,
                        dt=0.01, steps=100, snapshot_stride=10)
        traj = simulate(ens, cfg)
        for snap in traj.snapshots:
            assert np.max(np.abs(snap.speeds() - 1.2)) <= 1e-14 * 1.2

    def test_global_alignment_consensus(self):
        # h = 1, U = 0, d = 2: circular variance below 1e-6 by t = 20
        rng = np.random.default_rng(9)
        n = 64
        ang = rng.uniform(-np.pi / 3, np.pi / 3, n)
        omega = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        ens = PhaseEnsemble(x=rng.normal(size=(n, 2)), v=omega,
                            w=np.full(n, 1.0 / n), r=1.0)
        cfg = SimConfig(params=ModelParams(1.0, 1.0, 1.0), spec=CONST,
                        dt=0.01, steps=2000, snapshot_stride=100)
        traj = simulate(ens, cfg)
        cv = [1.0 - np.linalg.norm(np.sum(s.w[:, None] * s.v, axis=0))
              for s in traj.snapshots]
        assert all(b <= a + 1e-12 for a, b in zip(cv, cv[1:]))
        assert cv[-1] < 1e-6

    def test_pair_spread_nonincreasing(self):
        ens = make_sphere(32, d=2, r=1.0, seed=4)
        cfg = SimConfig(params=ModelParams(1.0, 1.0, 1.0), spec=CONST,
                        dt=0.01, steps=200, snapshot_stride=10)
        traj = simulate(ens, cfg)
        spread = [
            float(np.sum(s.w[:, None] * s.w[None, :]
                         * np.sum((s.v[:, None, :] - s.v[None, :, :]) ** 2,
                                  axis=2)))
            for s in traj.snapshots
        ]
        assert all(b <= a + 1e-12 for a, b in zip(spread, spread[1:]))


class TestMobiusAlignment:
    """Noiseless constant_weight alignment on the circle, the paper's
    Cucker-Smale-to-Vicsek reduction, has the exact Moebius-family solution
    of `oracles.mobius_alignment`; on a great circle of the 3-sphere it is the
    same motion. N = 128 keeps q(T)^N near 1e-24."""

    N, Q0, K, T = 128, 0.3, 1.0, 2.0

    def test_family_solves_the_limit_equation(self):
        # omega' = K P(J) and x' = omega by central differences, and J = r q(t)
        h = 1e-5
        for t in (0.7, 2.0):
            (dx_m, om_m), (_, om), (dx_p, om_p) = (
                mobius_alignment(self.N, self.Q0, self.K, 1.0, s) for s in (t - h, t, t + h))
            mean = om.mean(axis=0)
            drift = self.K * tangential_projection(np.broadcast_to(mean, om.shape), om)
            assert np.max(np.abs((om_p - om_m) / (2 * h) - drift)) <= 1e-9
            assert np.max(np.abs((dx_p - dx_m) / (2 * h) - om)) <= 1e-9
            grow = self.Q0**2 * math.exp(self.K * t)
            assert_allclose(mean, [math.sqrt(grow / (1 - self.Q0**2 + grow)), 0.0],
                            rtol=0, atol=1e-15)

    def test_family_needs_q_power_n_below_rounding(self):
        with pytest.raises(ValueError, match=r"q\(t\)\^n"):
            mobius_alignment(16, self.Q0, self.K, 1.0, self.T)

    @pytest.mark.parametrize("d", [2, 3])
    def test_limit_step_is_first_order(self, d):
        # measured errors, the same in d = 2 and on the embedded circle:
        # max_i |omega_i - exact| 1.447e-3, 7.239e-4, 3.620e-4 and max_i
        # |x_i - exact| 2.713e-3, 1.357e-3, 6.789e-4 at dt 4e-3, 2e-3, 1e-3
        rng = np.random.default_rng(d)
        plane = np.linalg.qr(rng.standard_normal((d, d)))[0][:2]  # orthonormal rows
        x0 = rng.uniform(-1.0, 1.0, (self.N, d))
        _, omega0 = mobius_alignment(self.N, self.Q0, self.K, 1.0, 0.0)
        dx, omega = mobius_alignment(self.N, self.Q0, self.K, 1.0, self.T)
        errors = []
        for dt, steps in ((4e-3, 500), (2e-3, 1000), (1e-3, 2000)):  # to T = 2
            ens = PhaseEnsemble(x=x0, v=omega0 @ plane, w=np.full(self.N, 1.0 / self.N), r=1.0)
            cfg = SimConfig(params=ModelParams(1.0, 1.0, 1.0),
                            spec=builtin_kernels("constant_weight", {"K": self.K}),
                            dt=dt, steps=steps, snapshot_stride=steps)
            end = simulate(ens, cfg).snapshots[-1]
            errors.append([np.max(np.linalg.norm(end.v - omega @ plane, axis=1)) / dt,
                           np.max(np.linalg.norm(end.x - x0 - dx @ plane, axis=1)) / dt])
        errors = np.array(errors)  # error / dt: constant at first order
        assert np.all((0.355 <= errors[:, 0]) & (errors[:, 0] <= 0.37))
        assert np.all((0.67 <= errors[:, 1]) & (errors[:, 1] <= 0.69))
        assert np.all(np.abs(errors[1:] / errors[:-1] - 1.0) <= 0.01)


class TestStepLimitDiffusive:
    def test_zero_noise_coincides_with_deterministic(self, monkeypatch):
        ens = make_sphere(16, d=3, r=1.0, seed=5)
        monkeypatch.setattr(noise, "gaussian_increments",
                            lambda seed, dom, k, shape: np.zeros(shape))
        cfg_d = SimConfig(params=ModelParams(1.0, 1.0, 1.0), spec=CONST,
                          dt=0.01, steps=1, diffusion=True)
        cfg = SimConfig(params=ModelParams(1.0, 1.0, 1.0), spec=CONST,
                        dt=0.01, steps=1)
        a = simulate(ens, cfg_d).snapshots[-1]
        b = simulate(ens, cfg).snapshots[-1]
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.x, b.x)

    def test_uniformization_on_sphere(self):
        # free sphere diffusion forgets the initial pole concentration
        r = 1.0
        n = 10000
        ens = PhaseEnsemble(x=np.zeros((n, 3)), v=np.tile([0, 0, r], (n, 1)),
                            w=np.full(n, 1.0 / n), r=r)
        cfg = SimConfig(params=ModelParams(1.0, 1.0, 1.0), spec=ZERO,
                        dt=2e-3, steps=2500, snapshot_stride=2500,
                        diffusion=True, rng_seed=21)
        traj = simulate(ens, cfg)
        first_moment = np.linalg.norm(
            np.sum(traj.snapshots[-1].w[:, None] * traj.snapshots[-1].v, axis=0))
        assert first_moment <= 0.05 * r

    def test_degree_one_decay_rate(self):
        # E[omega_3] decays like exp(-2 t / r^2)
        r = 1.0
        n = 8000
        ens = PhaseEnsemble(x=np.zeros((n, 3)), v=np.tile([0, 0, r], (n, 1)),
                            w=np.full(n, 1.0 / n), r=r)
        cfg = SimConfig(params=ModelParams(1.0, 1.0, 1.0), spec=ZERO,
                        dt=2e-3, steps=500, snapshot_stride=50,
                        diffusion=True, rng_seed=7)
        traj = simulate(ens, cfg)
        ts = np.array(traj.times)
        m3 = np.array([float(np.sum(s.w * s.v[:, 2])) for s in traj.snapshots])
        mask = m3 > 0.1 * r
        rate = -np.polyfit(ts[mask], np.log(m3[mask] / r), 1)[0]
        assert rate == pytest.approx(2.0 / r**2, rel=0.10)


class TestLaplaceBeltrami:
    def test_constant_is_harmonic(self):
        om = sphere_point_3d(0.3, 1.0, 2.0)
        assert laplace_beltrami_via_extension(lambda y: 4.2, om, 2.0) == \
            pytest.approx(0.0, abs=1e-8)
        assert zero_hom_laplacian_formula(lambda y: 4.2, om * 1.4, 2.0) == \
            pytest.approx(0.0, abs=1e-8)

    def test_degree_one_eigenvalue(self):
        # symbolic oracle: omega_3 restricted to the sphere is a degree-1
        # harmonic with intrinsic Laplacian -2 omega_3 / r^2
        r = 1.3
        rng = np.random.default_rng(6)
        for _ in range(25):
            theta = rng.uniform(-1.1, 1.1)
            if abs(math.sin(theta)) < 0.15:
                continue
            om = sphere_point_3d(theta, rng.uniform(0, 2 * np.pi), r)
            got = laplace_beltrami_via_extension(lambda y: y[2], om, r)
            assert got == pytest.approx(-2.0 * om[2] / r**2, rel=1e-4)

    def test_zero_velocity_rejected(self):
        with pytest.raises(ZeroVelocityParticle):
            zero_hom_laplacian_formula(lambda y: y[0], np.zeros(3), 1.0)

    def test_formula_matches_extension_on_sphere(self):
        r = 1.3
        f = lambda y: math.sin(y[1] / r) * math.cos(y[2] / r)
        rng = np.random.default_rng(7)
        for _ in range(20):
            om = sphere_point_3d(rng.uniform(-1.1, 1.1), rng.uniform(0, 6.28), r)
            a = laplace_beltrami_via_extension(f, om, r)
            b = zero_hom_laplacian_formula(f, om, r)
            assert b == pytest.approx(a, rel=1e-5, abs=1e-7)

    def test_formula_off_sphere_vs_direct_fd(self):
        # at |v| != r the identity gives the ambient Laplacian of the
        # extension at v, which carries the (r/|v|)^2 scaling
        r = 1.3
        h = 1e-4 * r
        f = lambda y: math.exp(y[0] / r) + y[1] * y[2] / r**2

        def fd_ext_laplacian(v):
            def ext(y):
                return f(y * (r / math.sqrt(float(np.sum(y * y)))))
            c = ext(v)
            tot = 0.0
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                tot += ext(v + e) - 2 * c + ext(v - e)
            return tot / h**2

        rng = np.random.default_rng(8)
        for _ in range(10):
            om = sphere_point_3d(rng.uniform(-1.0, 1.0), rng.uniform(0, 6.28), r)
            v = om * rng.uniform(0.5, 2.0)
            got = zero_hom_laplacian_formula(f, v, r)
            assert got == pytest.approx(fd_ext_laplacian(v), rel=1e-5, abs=1e-7)

    def test_linear_function_double_radius(self):
        # linear phi, |v| = 2r: tangential Hessian term vanishes, so the value
        # is -(1/(2r)) times the radial component, and matches the direct FD
        # Laplacian of the extension there
        r = 1.1
        v = np.array([0.0, 0.0, 2 * r])
        got = zero_hom_laplacian_formula(lambda y: y[2], v, r)
        assert got == pytest.approx(-2.0 * r * (2 * r) / (2 * r) ** 3, rel=1e-6)


class TestSphericalCharts:
    def test_equator_point(self):
        r = 2.0
        om = r * np.array([1.0, 0.0, 0.0])
        theta, phi = spherical_coords_3d(om, r)
        assert (theta, phi) == (0.0, 0.0)
        e_theta, e_phi = tangent_frame_3d(theta, phi)
        assert_allclose(e_theta, [0.0, 0.0, 1.0], atol=1e-16)
        assert_allclose(e_phi, [0.0, 1.0, 0.0], atol=1e-16)

    def test_round_trip_1000_points(self):
        r = 1.7
        rng = np.random.default_rng(10)
        for _ in range(1000):
            g = rng.standard_normal(3)
            om = r * g / np.linalg.norm(g)
            theta, phi = spherical_coords_3d(om, r)
            back = sphere_point_3d(theta, phi, r)
            assert np.max(np.abs(back - om)) <= 1e-12

    def test_batch_matches_point_round_trips(self):
        r = 1.7
        g = np.random.default_rng(11).standard_normal((200, 3))
        om = r * g / np.linalg.norm(g, axis=1, keepdims=True)
        theta, phi = spherical_coords_3d(om, r)
        assert theta.shape == phi.shape == (200,)
        for k in range(200):
            back = sphere_point_3d(theta[k], phi[k], r)
            assert np.max(np.abs(back - om[k])) <= 1e-12
            assert spherical_coords_3d(om[k], r) == (theta[k], phi[k])
            # the scalar libm chart the batch replaced, to within one ulp
            ref = (math.asin(max(-1.0, min(1.0, om[k, 2] / r))),
                   math.atan2(om[k, 1], om[k, 0]) % (2.0 * math.pi))
            assert np.all(np.abs(np.subtract(ref, (theta[k], phi[k])))
                          <= np.spacing(np.abs(ref)))
        assert np.all((phi >= 0) & (phi < 2 * np.pi))

    def test_angles_stay_in_their_ranges(self):
        # atan2 of a tiny negative y is -1e-17, and -1e-17 % (2 pi) rounds to
        # 2 pi; at the poles arcsin gives theta exactly +-pi/2
        om = np.array([[1.0, -1e-17, 0.0], [1.0, -1e-300, 0.0], [1.0, -0.0, 0.0],
                       [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        theta, phi = spherical_coords_3d(om, 1.0)
        assert phi.tolist()[:3] == [0.0, 0.0, 0.0]
        assert np.all((phi >= 0) & (phi < 2 * np.pi))
        assert theta.tolist()[3:] == [np.pi / 2, -np.pi / 2]
        assert spherical_coords_3d(om[0], 1.0) == (0.0, 0.0)

    def test_batch_rejects_one_row_off_sphere(self):
        r = 1.0
        om = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0 + 1e-6]])
        with pytest.raises(ValidationError, match="off the radius"):
            spherical_coords_3d(om, r)
        with pytest.raises(ValidationError, match="3D points"):
            spherical_coords_3d(om[:, :2], r)

    def test_frame_normalization(self, rng):
        for _ in range(50):
            theta = rng.uniform(-1.4, 1.4)
            phi = rng.uniform(0, 2 * np.pi)
            e_theta, e_phi = tangent_frame_3d(theta, phi)
            assert np.linalg.norm(e_theta) == pytest.approx(1.0, abs=1e-14)
            assert np.linalg.norm(e_phi) == pytest.approx(abs(math.cos(theta)),
                                                          abs=1e-14)

    def test_pole_guard(self):
        with pytest.raises(PoleSingularity):
            tangent_frame_3d(math.pi / 2, 0.0)
        with pytest.raises(PoleSingularity):
            spherical_laplacian_3d(lambda t, p: 1.0, -math.pi / 2, 0.0, 1.0)


class TestSphericalFormulas:
    def test_laplacian_constant(self):
        assert spherical_laplacian_3d(lambda t, p: 3.3, 0.4, 1.0, 1.5) == \
            pytest.approx(0.0, abs=1e-8)

    def test_laplacian_sin_theta_symbolic_oracle(self):
        # sympy evaluates the displayed formula exactly for F = sin(theta)
        t, r_ = sp.symbols("t r", positive=True)
        F = sp.sin(t)
        lap = ((sp.diff(sp.cos(t) * sp.diff(F, t), t) / sp.cos(t))) / r_**2
        simplified = sp.simplify(lap)
        assert simplified == -2 * sp.sin(t) / r_**2
        for r in (1.0, 2.0):
            for theta in (-0.8, 0.1, 1.2):
                got = spherical_laplacian_3d(lambda tt, pp: math.sin(tt),
                                             theta, 0.7, r)
                assert got == pytest.approx(-2.0 * math.sin(theta) / r**2,
                                            rel=1e-6, abs=1e-9)

    def test_laplacian_matches_extension(self):
        r = 1.4
        f = lambda y: 1.0 / (2.0 + y[0] * y[1] / r**2) + y[2] / r
        rng = np.random.default_rng(11)
        for _ in range(30):
            theta = rng.uniform(-1.1, 1.1)
            phi = rng.uniform(0, 2 * np.pi)
            om = sphere_point_3d(theta, phi, r)
            a = laplace_beltrami_via_extension(f, om, r)
            c = spherical_laplacian_3d(
                lambda tt, pp: f(sphere_point_3d(tt, pp, r)), theta, phi, r)
            assert c == pytest.approx(a, rel=1e-5, abs=1e-7)

    def test_divergence_constant_phi_component(self):
        got = spherical_divergence_3d(lambda t, p: 0.0, lambda t, p: 2.5,
                                      0.3, 0.9, 1.2)
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_divergence_symbolic_oracle(self):
        # xi_theta = g(phi)/cos(theta) makes the theta-term vanish; add a
        # phi-component and compare against sympy's evaluation of the formula
        t, p = sp.symbols("t p")
        r = 1.3
        xi_t = sp.sin(p) / sp.cos(t)
        xi_p = sp.cos(t) * sp.cos(p)
        div = (sp.diff(xi_t * sp.cos(t), t) / sp.cos(t) + sp.diff(xi_p, p)) / r
        fn = sp.lambdify((t, p), div)
        for theta in (-0.9, 0.2, 1.1):
            for phi in (0.5, 2.0, 5.0):
                got = spherical_divergence_3d(
                    lambda tt, pp: math.sin(pp) / math.cos(tt),
                    lambda tt, pp: math.cos(tt) * math.cos(pp),
                    theta, phi, r)
                assert got == pytest.approx(float(fn(theta, phi)),
                                            rel=1e-6, abs=1e-9)

    def test_divergence_theorem_quadrature(self):
        # integral of div(xi) over the sphere vanishes for the smooth tangent
        # field xi = P(omega) c; quadrature grid excludes the poles by using
        # Gauss-Legendre nodes in sin(theta)
        r = 1.0
        c = np.array([0.3, -0.7, 0.5])

        def components(theta, phi):
            om = sphere_point_3d(theta, phi, r)
            xi = tangential_projection(c, om)
            e_theta, e_phi = tangent_frame_3d(theta, phi)
            return float(xi @ e_theta), float(xi @ e_phi) / math.cos(theta) ** 2

        nodes, weights = np.polynomial.legendre.leggauss(40)
        nphi = 60
        total = 0.0
        for u, wu in zip(nodes, weights):
            theta = math.asin(u)
            for k in range(nphi):
                phi = 2 * math.pi * k / nphi
                div = spherical_divergence_3d(
                    lambda tt, pp: components(tt, pp)[0],
                    lambda tt, pp: components(tt, pp)[1],
                    theta, phi, r)
                total += wu * (2 * math.pi / nphi) * r**2 * div
        assert abs(total) <= 1e-6
