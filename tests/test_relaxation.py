import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

import swarmlab
from swarmlab import (
    ModelParams,
    blowup_time,
    free_flow,
    lambda_eps,
    root_asymptotics,
    solve_roots,
)
from swarmlab.errors import FlowBlowup, ValidationError
from swarmlab.relaxation import speed_flow

from oracles import (BadBand, UnsupportedPsi, adjoint_potential, adjoint_sup_bound,
                     crossing_time, trapping_time_bounds)

P11 = ModelParams(alpha=1.0, beta=1.0, eps=0.01)


class TestLambda:
    def test_equilibria(self):
        assert lambda_eps(1.0, 0.5, 0.0, P11) == 0.0
        assert lambda_eps(0.0, 0.5, 0.0, P11) == 0.0

    def test_direct_value(self):
        assert lambda_eps(1.0, 0.001, -1.0, P11) == pytest.approx(-0.001, abs=1e-18)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValidationError):
            lambda_eps(-0.1, 0.01, 1.0, P11)


class TestRoots:
    def test_negative_forcing_pair(self):
        triple = solve_roots(0.001, -1.0, P11)
        assert triple.validity
        # independent oracle: cubic roots of -beta rho^3 + alpha rho + eps A
        cubic = np.roots([-1.0, 0.0, 1.0, 0.001 * -1.0])
        pos = sorted(c.real for c in cubic if abs(c.imag) < 1e-12 and c.real > 0)
        assert triple.rho1 == pytest.approx(pos[0], rel=1e-10)
        assert triple.rho2 == pytest.approx(pos[1], rel=1e-10)
        assert triple.rho3 is None
        assert 0 < triple.rho1 < 1 / math.sqrt(3) < triple.rho2 < 1.0

    def test_positive_forcing_single(self):
        triple = solve_roots(0.001, 1.0, P11)
        cubic = np.roots([-1.0, 0.0, 1.0, 0.001])
        pos = sorted(c.real for c in cubic if abs(c.imag) < 1e-12 and c.real > 0)
        assert triple.rho1 is None and triple.rho2 is None
        assert triple.rho3 == pytest.approx(max(pos), rel=1e-10)
        assert triple.rho3 > 1.0
        assert triple.rho3 == pytest.approx(1.0005, abs=1e-5)

    def test_zero_forcing_exact(self):
        triple = solve_roots(0.3, 0.0, P11)
        assert (triple.rho1, triple.rho2, triple.rho3) == (0.0, 1.0, 1.0)

    def test_fold_threshold_encoded_as_invalid(self):
        thr = 2.0 / (3.0 * math.sqrt(3.0))  # alpha = beta = 1, |A| = 1
        triple = solve_roots(thr * 1.01, -1.0, P11)
        assert not triple.validity
        assert triple.rho1 is None and triple.rho2 is None
        assert solve_roots(thr * 0.99, -1.0, P11).validity

    def test_huge_forcing_far_below_fold_is_valid(self):
        # eps*|A| = 1e-12, but 2 alpha r / (3 sqrt(3) |A|) alone underflows to 0
        triple = solve_roots(1e-320, -1e308, P11)
        assert triple.validity
        assert triple.rho2 == pytest.approx(1.0, abs=1e-11)

    def test_forcing_past_float_range_rejected(self):
        with pytest.raises(ValidationError, match="eps\\*A"):
            solve_roots(10.0, 1e308, P11)

    @pytest.mark.parametrize("alpha,beta,eps,amp", [
        (1e308, 1.0, 0.1, 1.0),      # rho^2 at the first bracket, (2r)^2 = 4e308
        (1e200, 1e-100, 0.1, -1.0),  # alpha r = 1e350 at the knee
        (1e-10, 1e-318, 0.1, 1.0),   # alpha r^2 = 1e298 is finite, (2r)^2 is not
        (1.0, 1.0, 1.0, 1e308),      # beta rho^3 past the root rho3 = 4.6e102
    ])
    def test_speed_balance_past_float_range_rejected(self, alpha, beta, eps, amp):
        with pytest.raises(ValidationError, match="speed balance past float range"):
            solve_roots(eps, amp, ModelParams(alpha, beta, eps))

    @pytest.mark.parametrize("alpha,beta,eps,amp", [
        (1e100, 1e-100, 0.01, -1.0),  # rho1 = 1e-102 against r = 1e100
        (1.0, 1.0, 1.0, 1e300),       # rho3 = 1e100
    ])
    def test_wide_but_finite_speed_balance_solves(self, alpha, beta, eps, amp):
        p = ModelParams(alpha, beta, eps)
        triple = solve_roots(eps, amp, p)
        for root in (triple.rho1, triple.rho2, triple.rho3):
            if root is not None:
                # a root to a few ulps of rho: |lambda'| rho times their size
                slope = abs(alpha - 3.0 * beta * root**2) * root
                assert abs(lambda_eps(root, eps, amp, p)) <= 1e-14 * max(slope, abs(eps * amp))

    def test_residuals_below_tolerance(self):
        for eps in (1e-5, 1e-3, 1e-1):
            for amp in (-2.0, -0.5, 0.7, 3.0):
                triple = solve_roots(eps, amp, P11)
                for root in (triple.rho1, triple.rho2, triple.rho3):
                    if root is not None:
                        assert abs(lambda_eps(root, eps, amp, P11)) <= 1e-14 * 1.0

    def test_monotone_in_eps(self):
        eps_grid = np.logspace(-4, -1.2, 12)
        r1 = [solve_roots(e, -1.0, P11).rho1 for e in eps_grid]
        r2 = [solve_roots(e, -1.0, P11).rho2 for e in eps_grid]
        assert all(b > a for a, b in zip(r1, r1[1:]))
        assert all(b < a for a, b in zip(r2, r2[1:]))


class TestAsymptotics:
    def test_formula_values(self):
        p = ModelParams(alpha=2.0, beta=1.0, eps=0.01)
        assert root_asymptotics(-3.0, p) == (1.5, 0.75, 0.75)
        assert root_asymptotics(-1.0, P11) == (1.0, 0.5, 0.5)

    def test_consistency_with_bisection(self):
        eps = 1e-5
        lo = solve_roots(eps, -1.0, P11)
        hi = solve_roots(eps, 1.0, P11)
        lim1, lim2, lim3 = root_asymptotics(-1.0, P11)
        assert abs(lo.rho1 / eps - lim1) <= 0.01 * lim1
        assert abs((1.0 - lo.rho2) / eps - lim2) <= 0.01 * lim2
        assert abs((hi.rho3 - 1.0) / eps - lim3) <= 0.01 * lim3

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValidationError):
            root_asymptotics(0.0, P11)


class TestFreeFlow:
    def test_sphere_is_fixed(self):
        v = np.array([1.0, 0.0])
        for s in (-3.0, 0.0, 0.5, 200.0):
            assert_allclose(free_flow(v, s, P11), v, rtol=0, atol=0)

    def test_half_speed_forward_value(self):
        # frozen from the high-accuracy ODE oracle (DOP853, rtol 1e-12)
        out = free_flow(np.array([0.5, 0.0]), 3.0, P11)
        assert out[1] == 0.0
        assert out[0] == pytest.approx(0.9963024807793301, rel=1e-10)

    def test_matches_ode_oracle(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 4))
            v = rng.standard_normal(d)
            v *= rng.uniform(0.2, 2.0) / np.linalg.norm(v)
            s = float(rng.uniform(0.0, 3.0))
            sol = solve_ivp(
                lambda t, y: (1.0 - np.dot(y, y)) * y, (0.0, s), v,
                rtol=1e-12, atol=1e-14, method="DOP853")
            assert_allclose(free_flow(v, s, P11), sol.y[:, -1], rtol=1e-8, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(speed=st.floats(0.05, 3.0), s1=st.floats(-0.01, 2.0), s2=st.floats(0.0, 2.0))
    def test_semigroup(self, speed, s1, s2):
        v = np.array([speed, 0.0])
        once = free_flow(free_flow(v, s1, P11), s2, P11)
        combined = free_flow(v, s1 + s2, P11)
        assert_allclose(once, combined, rtol=1e-12, atol=1e-15)

    def test_ode_consistency_central_difference(self, rng):
        h = 1e-4
        for _ in range(20):
            v = rng.standard_normal(2)
            v *= rng.uniform(0.2, 1.8) / np.linalg.norm(v)
            s = float(rng.uniform(0.0, 2.0))
            mid = free_flow(v, s, P11)
            fd = (free_flow(v, s + h, P11) - free_flow(v, s - h, P11)) / (2 * h)
            exact = (1.0 - np.dot(mid, mid)) * mid
            assert np.max(np.abs(fd - exact)) <= 1e-6

    def test_speed_monotonicity(self):
        s_grid = np.linspace(0.0, 4.0, 30)
        inside = [speed_flow(0.3, s, P11) for s in s_grid]
        outside = [speed_flow(1.8, s, P11) for s in s_grid]
        assert all(b > a for a, b in zip(inside, inside[1:]))
        assert all(b < a for a, b in zip(outside, outside[1:]))
        assert speed_flow(1.0, 2.5, P11) == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("u,s", [(0.25, -400.0), (1e-170, 1.0), (1e-160, 1.0)])
    def test_speeds_with_underflowing_squares_match_closed_form(self, u, s):
        # each speed squared is subnormal or 0; the closed form at alpha = beta = 1,
        # u e^s / sqrt(1 + u^2 (e^(2s) - 1)), in 50-digit arithmetic
        import mpmath

        with mpmath.workdps(50):
            mu = mpmath.mpf(u)
            exact = float(mu * mpmath.exp(s) / mpmath.sqrt(1 + mu**2 * (mpmath.exp(2 * s) - 1)))
        assert exact > 0.0
        assert speed_flow(u, s, P11) == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_zero_stays_zero(self):
        assert_allclose(free_flow(np.zeros(2), 5.0, P11), np.zeros(2))

    def test_blowup_guard(self):
        v = np.array([2.0, 0.0])
        s_star = blowup_time(v, P11)  # -0.14384...
        with pytest.raises(FlowBlowup):
            free_flow(v, s_star - 0.01, P11)
        with pytest.raises(FlowBlowup):
            free_flow(v, s_star, P11)
        out = free_flow(v, s_star + 1e-3, P11)
        assert np.linalg.norm(out) > 10.0  # huge but finite near the blow-up

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("v", [[1e200, 0.0], [np.inf, 0.0], [np.nan, 1.0]])
    def test_non_finite_speed_square_rejected(self, v):
        # |v|^2 = 1e400 overflows: q = vv + damp * (r2 - vv) would be inf - inf.
        # The flow and the blow-up time both reject it, without an overflow warning
        batch = np.array([[0.5, 0.0], v])
        for s in (0.0, 1.0, -0.1):
            with pytest.raises(ValidationError, match="finite"):
                free_flow(batch, s, P11)
        with pytest.raises(ValidationError, match="finite"):
            blowup_time(np.array(v), P11)

    def test_vectorized_matches_rows(self, rng):
        vs = rng.standard_normal((7, 3))
        batch = free_flow(vs, 0.7, P11)
        for i in range(7):
            assert_allclose(batch[i], free_flow(vs[i], 0.7, P11), rtol=0, atol=0)


class TestBlowupTime:
    def test_inside_sphere_minus_infinity(self):
        assert blowup_time(np.array([0.5, 0.0]), P11) == -math.inf
        assert blowup_time(np.array([1.0, 0.0]), P11) == -math.inf

    def test_formula_value(self):
        got = blowup_time(np.array([2.0, 0.0]), P11)
        assert got == pytest.approx(0.5 * math.log(0.75), rel=1e-15)

    def test_large_speed_limit(self):
        assert blowup_time(np.array([1e9, 0.0]), P11) == pytest.approx(0.0, abs=1e-15)
        assert blowup_time(np.array([1e9, 0.0]), P11) < 0.0


class TestTrappingBounds:
    def test_frozen_values(self):
        t1, _ = trapping_time_bounds(0.5, 2.0, 0.01, P11)
        assert t1 == pytest.approx(0.02 * math.log(50.0), rel=1e-14)
        assert t1 == pytest.approx(0.07824046010856292, abs=1e-15)
        _, t2 = trapping_time_bounds(0.5, 2.0, 0.01, P11)
        assert t2 == pytest.approx(0.005 * math.log(100.0), rel=1e-14)
        assert t2 == pytest.approx(0.02302585092994046, abs=1e-15)

    def test_band_ordering_enforced(self):
        with pytest.raises(BadBand):
            trapping_time_bounds(1.5, 2.0, 0.01, P11)
        with pytest.raises(BadBand):
            trapping_time_bounds(0.5, 0.9, 0.01, P11)
        with pytest.raises(BadBand):
            trapping_time_bounds(0.5, 2.0, 0.6, P11)  # log would go nonpositive

    def test_frozen_worst_case_ode_enters_before_bound(self):
        # scalar speed ODE with the forcing frozen at its worst sign
        eps, amp = 0.01, 1.0
        r0, big_r = 0.5, 2.0
        lo = solve_roots(eps, -amp, P11)
        hi = solve_roots(eps, amp, P11)
        t1, t2 = trapping_time_bounds(r0, big_r, eps, P11)

        def entry_time(u0, target, rhs):
            event = lambda t, y: y[0] - target
            event.terminal = True
            sol = solve_ivp(rhs, (0.0, 10.0), [u0], events=event,
                            rtol=1e-10, atol=1e-12, max_step=1e-3)
            assert sol.t_events[0].size, "never reached the band"
            return float(sol.t_events[0][0])

        up = entry_time(
            r0, lo.rho2 - eps,
            lambda t, y: [-amp + (1.0 - y[0] ** 2) * y[0] / eps])
        down = entry_time(
            big_r, hi.rho3 + eps,
            lambda t, y: [amp + (1.0 - y[0] ** 2) * y[0] / eps])
        assert up <= t1
        assert down <= t2


class TestAdjointPotential:
    SUPPORT = (0.3, 0.6, 1.4, 1.9)

    @staticmethod
    def _bump(t):
        if not 0.0 < t < 1.0:
            return 0.0
        return math.exp(-1.0 / (t * (1.0 - t)))

    @classmethod
    def psi(cls, v):
        r1, r2, r3, r4 = cls.SUPPORT
        u = float(np.linalg.norm(v))
        ang = 1.0 + 0.3 * v[0] / u - 0.2 * v[1] / u
        if r1 < u < r2:
            return ang * cls._bump((u - r1) / (r2 - r1))
        if r3 < u < r4:
            return ang * cls._bump((u - r3) / (r4 - r3))
        return 0.0

    def test_import_leaves_scipy_integrate_unloaded(self):
        # no package module imports scipy.integrate, so `import swarmlab`
        # does not pay its load time
        src = str(Path(swarmlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, swarmlab; print('scipy.integrate' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.stdout.strip() == "False"

    def test_zero_below_inner_annulus(self):
        for u in (0.05, 0.2, 0.3):
            assert adjoint_potential(self.psi, np.array([u, 0.0]), P11,
                                     self.SUPPORT) == 0.0

    def test_constant_along_rays_through_gap(self):
        d = np.array([0.6, 0.8])
        ref = adjoint_potential(self.psi, 0.6 * d, P11, self.SUPPORT)
        for u in (0.7, 0.9, 1.0, 1.2, 1.4):
            got = adjoint_potential(self.psi, u * d, P11, self.SUPPORT)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_constant_beyond_outer_annulus(self):
        d = np.array([0.0, 1.0])
        ref = adjoint_potential(self.psi, 1.9 * d, P11, self.SUPPORT)
        for u in (2.2, 3.0, 10.0):
            assert adjoint_potential(self.psi, u * d, P11, self.SUPPORT) == \
                pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_directional_derivative_reproduces_psi(self, rng):
        r1, r2, r3, r4 = self.SUPPORT
        h = 1e-5
        for _ in range(15):
            lo, hi = (r1, r2) if rng.random() < 0.5 else (r3, r4)
            u = rng.uniform(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo))
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            v = u * d
            grad = np.zeros(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                grad[k] = (
                    adjoint_potential(self.psi, v + e, P11, self.SUPPORT, tol=1e-12)
                    - adjoint_potential(self.psi, v - e, P11, self.SUPPORT, tol=1e-12)
                ) / (2 * h)
            lhs = -(1.0 - u * u) * float(v @ grad)
            assert lhs == pytest.approx(self.psi(v), rel=1e-6)

    def test_sup_bound_from_crossing_integral(self, rng):
        sup_psi = max(
            abs(self.psi(np.array([u * math.cos(t), u * math.sin(t)])))
            for u in np.linspace(0.05, 2.5, 300) for t in (0.0, 1.3, 2.6, 4.4))
        bound = adjoint_sup_bound(P11, self.SUPPORT, sup_psi)
        for _ in range(100):
            u = rng.uniform(0.05, 2.5)
            t = rng.uniform(0, 2 * math.pi)
            v = u * np.array([math.cos(t), math.sin(t)])
            assert abs(adjoint_potential(self.psi, v, P11, self.SUPPORT)) <= bound

    def test_bad_support_rejected(self):
        with pytest.raises(UnsupportedPsi):
            adjoint_potential(self.psi, np.array([0.5, 0.0]), P11,
                              (0.3, 1.1, 1.4, 1.9))  # r2 past the sphere
        with pytest.raises(UnsupportedPsi):
            adjoint_potential(self.psi, np.array([0.5, 0.0]), P11,
                              (0.0, 0.6, 1.4, 1.9))  # touches the origin


class TestCrossingTime:
    def test_matches_quadrature(self):
        # independent oracle: numeric quadrature of d(rho)/((alpha-beta rho^2) rho)
        from scipy.integrate import quad
        got = crossing_time(0.3, 0.6, P11)
        oracle, err = quad(lambda rho: 1.0 / ((1.0 - rho**2) * rho), 0.3, 0.6)
        assert got == pytest.approx(oracle, rel=1e-10)
        got_out = crossing_time(1.9, 1.4, P11)
        oracle_out, _ = quad(lambda rho: 1.0 / ((1.0 - rho**2) * rho), 1.9, 1.4)
        assert got_out == pytest.approx(oracle_out, rel=1e-10)
        assert got > 0 and got_out > 0

    def test_consistent_with_flow(self):
        s = crossing_time(0.3, 0.6, P11)
        assert speed_flow(0.3, s, P11) == pytest.approx(0.6, rel=1e-12)
