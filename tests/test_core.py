import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from swarmlab import (
    ModelParams,
    PhaseEnsemble,
    moments,
    project_measure,
)
from swarmlab.core import (
    config_hash,
    csv_text,
    ensemble_from_csv,
    ensemble_from_json,
    spherical_coords_3d,
)
from swarmlab.errors import ValidationError, ZeroVelocityParticle

from conftest import make_phase, make_sphere, snapshot_text
from oracles import BadBand, support_in_band


class TestModelParams:
    def test_equilibrium_speed(self):
        p = ModelParams(alpha=2.0, beta=0.5, eps=0.1)
        assert p.r == 2.0
        assert p.r**2 * p.beta == pytest.approx(p.alpha, rel=1e-15)

    @pytest.mark.parametrize("bad", [(-1, 1, 1), (1, 0, 1), (1, 1, -2)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValidationError):
            ModelParams(*bad)


class TestEnsembles:
    def test_weights_must_normalize(self):
        with pytest.raises(ValidationError):
            PhaseEnsemble(x=[[0.0, 0.0]], v=[[1.0, 0.0]], w=[0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            PhaseEnsemble(x=[[0, 0], [0, 0]], v=[[1, 0], [1, 0]], w=[1.5, -0.5])

    def test_nan_weight_rejected(self):
        # nan slips past both the sign and the mass checks
        with pytest.raises(ValidationError, match="non-finite particle weights"):
            PhaseEnsemble(x=[[0, 0], [0, 0]], v=[[1, 0], [1, 0]], w=[math.nan, 1.0])

    def test_zero_velocity_rejected(self):
        with pytest.raises(ZeroVelocityParticle):
            PhaseEnsemble(x=[[0.0, 0.0]], v=[[0.0, 0.0]], w=[1.0])

    def test_arrays_are_immutable(self):
        ens = make_phase(4)
        with pytest.raises(ValueError):
            ens.x[0, 0] = 99.0

    def test_sphere_radius_enforced(self):
        with pytest.raises(ValidationError):
            PhaseEnsemble(x=[[0.0, 0.0]], v=[[1.1, 0.0]], w=[1.0], r=1.0)

    def test_dim_must_be_2_or_3(self):
        with pytest.raises(ValidationError):
            PhaseEnsemble(x=[[0.0]], v=[[1.0]], w=[1.0])


class TestProjection:
    def test_three_four_five(self):
        ens = PhaseEnsemble(x=[[1.0, 2.0]], v=[[3.0, 4.0]], w=[1.0])
        out = project_measure(ens, 1.0)
        assert_allclose(out.v, [[0.6, 0.8]], rtol=0, atol=1e-15)
        assert_allclose(out.x, ens.x)
        assert out.w[0] == 1.0

    def test_idempotent_on_sphere(self):
        ens = make_sphere(64, d=3, r=1.7, seed=3)
        phase = PhaseEnsemble(x=ens.x, v=ens.v, w=ens.w)
        out = project_measure(phase, 1.7)
        assert_allclose(out.v, ens.v, rtol=5e-15, atol=0)

    def test_mass_identity_random_64(self):
        ens = make_phase(64, d=2, seed=7)
        out = project_measure(ens, 2.0)
        assert abs(moments(out).mass - moments(ens).mass) <= 1e-15

    def test_rejects_zero_radius(self):
        with pytest.raises(ValidationError):
            project_measure(make_phase(3), 0.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), r=st.floats(0.1, 10.0))
    def test_direction_preserved_and_idempotent(self, seed, r):
        ens = make_phase(16, d=2, seed=seed)
        out = project_measure(ens, r)
        dirs_in = ens.v / np.linalg.norm(ens.v, axis=1, keepdims=True)
        dirs_out = out.v / np.linalg.norm(out.v, axis=1, keepdims=True)
        assert np.max(np.abs(dirs_in - dirs_out)) <= 1e-14
        again = project_measure(
            PhaseEnsemble(x=out.x, v=out.v, w=out.w), r)
        assert_allclose(again.v, out.v, rtol=5e-15, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6),
           shift=st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    def test_commutes_with_translation(self, seed, shift):
        ens = make_phase(12, d=2, seed=seed)
        u = np.asarray(shift)
        translated = PhaseEnsemble(x=ens.x + u, v=ens.v, w=ens.w)
        a = project_measure(translated, 1.5)
        b = project_measure(ens, 1.5)
        assert_allclose(a.v, b.v, rtol=0, atol=0)
        assert_allclose(a.x, b.x + u, rtol=0, atol=0)


class TestMoments:
    def test_single_particle(self):
        ens = PhaseEnsemble(x=[[0.0, 0.0]], v=[[1.0, 0.0]], w=[1.0])
        rep = moments(ens)
        assert rep.kinetic_energy == 0.5
        assert_allclose(rep.momentum, [1.0, 0.0])

    def test_symmetric_pair(self):
        ens = PhaseEnsemble(x=[[0, 0], [0, 0]], v=[[1, 0], [-1, 0]], w=[0.5, 0.5])
        rep = moments(ens)
        assert_allclose(rep.momentum, [0.0, 0.0], atol=1e-16)
        assert rep.kinetic_energy == 0.5

    def test_against_fsum_oracle(self):
        ens = make_phase(100, d=3, seed=11)
        rep = moments(ens)
        # independent extended-precision summation oracle
        mass = math.fsum(float(wi) for wi in ens.w)
        mom = [math.fsum(float(ens.w[i] * ens.v[i, k]) for i in range(100))
               for k in range(3)]
        kin = 0.5 * math.fsum(float(ens.w[i] * np.dot(ens.v[i], ens.v[i]))
                              for i in range(100))
        assert abs(rep.mass - mass) <= 1e-12
        assert_allclose(rep.momentum, mom, rtol=1e-12, atol=1e-15)
        assert abs(rep.kinetic_energy - kin) <= 1e-12 * abs(kin)
        assert rep.speed_min <= rep.speed_max


class TestSupportBand:
    def test_on_sphere_band(self):
        ens = make_sphere(32, r=1.0, seed=2)
        assert support_in_band(ens, 1 - 1e-9, 1 + 1e-9)

    def test_slow_particle_outside(self):
        ens = PhaseEnsemble(x=[[0, 0]], v=[[0.4, 0.0]], w=[1.0])
        assert not support_in_band(ens, 0.5, 2.0)

    def test_bad_band_rejected(self):
        with pytest.raises(BadBand):
            support_in_band(make_phase(3), 2.0, 1.0)


def _json_reference(ens):
    """The snapshot document as the json encoder writes it: the bytes
    snapshot_files must reproduce."""
    doc = {
        "header": {"dim": ens.dim, "time": ens.time, "r": ens.r},
        "particles": [
            {"id": i, "x": xi, "v": vi, "w": wi}
            for i, (xi, vi, wi) in enumerate(zip(ens.x.tolist(), ens.v.tolist(),
                                                 ens.w.tolist()))
        ],
    }
    return json.dumps(doc, indent=1)


# subnormals, signed zeros, huge values, and both sides of repr's switches
# between positional and exponent form (below 1e-4, from 1e16)
_EDGE_FLOATS = (5e-324, 1e-310, 2.2250738585072014e-308, 0.0, -0.0, 1e300, -1e300,
                1e-4, 9.999999999999999e-05, 1e-5, -1e-5, 9999999999999998.0, 1e16,
                -1e16, 1.0000000000000002e16)
_coords = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


def _drawn_ensemble(data, d, n, time, r):
    """An ensemble of n particles in d dimensions whose coordinates are drawn
    from _coords, with a radius r (None or exactly on the sphere)."""
    def table(cells):
        return np.array(data.draw(st.lists(cells, min_size=n * d, max_size=n * d)),
                        dtype=float).reshape(n, d)

    x = table(_coords)
    if r is None:
        v = table(_coords)
        v[np.all(v == 0.0, axis=1), 0] = 1.0
    else:  # +-r along a drawn axis: exactly on the sphere
        axes = np.array(data.draw(st.lists(st.integers(0, 2 * d - 1),
                                           min_size=n, max_size=n)))
        v = table(st.sampled_from([0.0, -0.0]))
        v[np.arange(n), axes % d] = np.where(axes < d, r, -r)
    rest = data.draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS[:5] + (1e-5,)),
                                        st.floats(0.0, 1 / 64)),
                              min_size=n - 1, max_size=n - 1))
    w = [1.0 - math.fsum(rest), *rest]
    return PhaseEnsemble(x=x, v=v, w=w, time=time, r=r)


_radii = st.one_of(st.none(), st.integers(1, 10**6), st.floats(1e-100, 1e100))


class TestSerialization:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), d=st.sampled_from([2, 3]), n=st.integers(1, 40),
           time=st.one_of(st.integers(-2**62, 2**62),
                          st.floats(allow_nan=False, allow_infinity=False)),
           r=_radii)
    def test_json_is_the_encoder_bytes(self, data, d, n, time, r):
        ens = _drawn_ensemble(data, d, n, time, r)
        assert snapshot_text(ens) == _json_reference(ens)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), d=st.sampled_from([2, 3]), n=st.integers(1, 40), r=_radii)
    def test_csv_is_repr_of_each_cell(self, data, d, n, r):
        ens = _drawn_ensemble(data, d, n, 0.0, r)
        # a d = 3 sphere snapshot's rows end in its chart angles
        chart = ("theta", "phi") if d == 3 and r is not None else ()
        angles = zip(*spherical_coords_3d(ens.v, r)) if chart else [()] * n
        header = ["id", *(f"x{k + 1}" for k in range(d)), *(f"v{k + 1}" for k in range(d)),
                  "w", *chart]
        rows = [[i, *xi, *vi, wi, *map(float, ang)] for i, (xi, vi, wi, ang) in enumerate(
            zip(ens.x.tolist(), ens.v.tolist(), ens.w.tolist(), angles))]
        assert snapshot_text(ens, "csv") == "".join(
            ",".join(row) + "\n" for row in [header, *(map(repr, row) for row in rows)])

    @pytest.mark.parametrize("d", [2, 3])
    def test_csv_round_trip(self, d):
        ens = make_phase(17, d=d, seed=5)
        back = ensemble_from_csv(snapshot_text(ens, "csv"))
        assert_allclose(back.x, ens.x, rtol=0, atol=0)
        assert_allclose(back.v, ens.v, rtol=0, atol=0)
        assert_allclose(back.w, ens.w, rtol=0, atol=0)

    def test_json_round_trip_sphere(self):
        ens = make_sphere(9, d=3, r=1.4, seed=6)
        back = ensemble_from_json(snapshot_text(ens))
        assert back.r == ens.r
        assert back.r == 1.4
        assert_allclose(back.v, ens.v, rtol=0, atol=0)

    def test_csv_text_literal(self):
        text = csv_text(["a", "b", "c"], [[0, 0.1, None], [1, -2.5e-300, float("nan")]])
        assert text == "a,b,c\n0,0.1,\n1,-2.5e-300,nan\n"

    def test_csv_literal(self):
        ens = PhaseEnsemble(x=[[0.1, -2.0], [3.0, 1e-20]], v=[[0.6, 0.8], [-1.0, 0.0]],
                            w=[0.25, 0.75], r=1.0)
        assert snapshot_text(ens, "csv") == (
            "id,x1,x2,v1,v2,w\n"
            "0,0.1,-2.0,0.6,0.8,0.25\n"
            "1,3.0,1e-20,-1.0,0.0,0.75\n"
        )
        sphere = PhaseEnsemble(x=[[0.1, -2.0, 0.0], [3.0, 1e-20, 0.5]],
                               v=[[0.0, 2.0, 0.0], [0.0, 0.0, -2.0]], w=[0.25, 0.75], r=2.0)
        assert snapshot_text(sphere, "csv") == (
            "id,x1,x2,x3,v1,v2,v3,w,theta,phi\n"
            "0,0.1,-2.0,0.0,0.0,2.0,0.0,0.25,0.0,1.5707963267948966\n"
            "1,3.0,1e-20,0.5,0.0,0.0,-2.0,0.75,-1.5707963267948966,0.0\n"
        )

    def test_json_literal(self):
        ens = PhaseEnsemble(x=[[0.1, -2.0], [3.0, 1e-20]], v=[[0.5, 0.0], [-1.0, 2.0]],
                            w=[0.25, 0.75], time=0.5)
        expected = """{
 "header": {
  "dim": 2,
  "time": 0.5,
  "r": null
 },
 "particles": [
  {
   "id": 0,
   "x": [
    0.1,
    -2.0
   ],
   "v": [
    0.5,
    0.0
   ],
   "w": 0.25
  },
  {
   "id": 1,
   "x": [
    3.0,
    1e-20
   ],
   "v": [
    -1.0,
    2.0
   ],
   "w": 0.75
  }
 ]
}"""
        assert snapshot_text(ens) == expected

    def test_csv_extra_columns_tolerated(self):
        # the chart columns of a sphere snapshot are read past, not parsed
        ens = make_sphere(4, d=3, r=1.0, seed=8)
        text = snapshot_text(ens, "csv")
        assert text.splitlines()[0].endswith(",w,theta,phi")
        back = ensemble_from_csv(text, r=1.0)
        assert_allclose(back.v, ens.v, rtol=0, atol=0)


def test_config_hash_stable_under_reordering():
    a = {"alpha": 1.0, "beta": 2.0, "nested": {"x": 1, "y": 2}}
    b = {"nested": {"y": 2, "x": 1}, "beta": 2.0, "alpha": 1.0}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "alpha": 1.5})
