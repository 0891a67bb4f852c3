"""The measure-solution structure of both regimes, as properties of a run.

A run pushes forward an empirical measure, so splitting an atom, moving the
whole cloud by a Euclidean motion or relabelling the particles must carry
the trajectory along. Each property is checked on CS+G interactions with
non-uniform weights, deterministic (noise rows belong to particle indices,
so with diffusion these hold only in distribution). Their deviations are
roundoff, below 1e-14 at this size; the tolerances are fixed at 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmlab import ModelParams, PhaseEnsemble, builtin_kernels, compose_kernels, simulate
from swarmlab.eps_dynamics import SimConfig

TOL = 1e-12
N = 10
SPEC = compose_kernels(
    builtin_kernels("gaussian_attraction_repulsion",
                    {"C_A": 0.5, "l_A": 1.0, "C_R": 0.3, "l_R": 0.5}),
    builtin_kernels("cucker_smale_weight", {"K": 1.0, "gamma": 1.0}),
)
CFG = SimConfig(params=ModelParams(1.0, 1.0, 0.05), spec=SPEC, dt=1e-2, steps=10,
                snapshot_stride=5)

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.sampled_from([2, 3])
PROPERTY = settings(max_examples=10, deadline=None, derandomize=True)
REGIMES = pytest.mark.parametrize("limit", [False, True], ids=["eps", "limit"])


def _datum(seed, d, limit):
    """N atoms in the unit box with non-uniform weights; speeds in [0.5, 1.5],
    or on the unit sphere for the limit."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(N, d))
    dirs = rng.standard_normal((N, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    speeds = np.ones(N) if limit else rng.uniform(0.5, 1.5, size=N)
    w = rng.uniform(0.5, 1.5, size=N)
    return rng, x, dirs * speeds[:, None], w / np.sum(w)


def _run(x, v, w, limit):
    """The (x, v) arrays of every snapshot of the run from (x, v, w)."""
    return [(snap.x, snap.v)
            for snap, _ in simulate(PhaseEnsemble(x, v, w, r=1.0 if limit else None), CFG)]


def _assert_runs_match(got, want):
    assert len(got) == len(want)
    for (gx, gv), (wx, wv) in zip(got, want):
        assert np.max(np.abs(gx - wx)) <= TOL
        assert np.max(np.abs(gv - wv)) <= TOL


@REGIMES
@PROPERTY
@given(seed=SEEDS, d=DIMS)
def test_split_atoms_follow_the_unsplit_run(limit, seed, d):
    # unequal halves: a dropped or misplaced w_j shows
    _, x, v, w = _datum(seed, d, limit)
    whole = _run(x, v, w, limit)
    split = _run(np.vstack([x, x]), np.vstack([v, v]),
                 np.concatenate([w / 3.0, 2.0 * w / 3.0]), limit)
    _assert_runs_match([(sx[:N], sv[:N]) for sx, sv in split], whole)
    _assert_runs_match([(sx[N:], sv[N:]) for sx, sv in split], whole)


@REGIMES
@PROPERTY
@given(seed=SEEDS, d=DIMS)
def test_euclidean_motion_maps_the_run(limit, seed, d):
    rng, x, v, w = _datum(seed, d, limit)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    shift = rng.uniform(-5.0, 5.0, size=d)
    base = _run(x, v, w, limit)
    moved = _run(x @ q.T + shift, v @ q.T, w, limit)
    _assert_runs_match(moved, [(bx @ q.T + shift, bv @ q.T) for bx, bv in base])


@REGIMES
@PROPERTY
@given(seed=SEEDS, d=DIMS)
def test_permuted_particles_permute_the_run(limit, seed, d):
    rng, x, v, w = _datum(seed, d, limit)
    perm = rng.permutation(N)
    base = _run(x, v, w, limit)
    permuted = _run(x[perm], v[perm], w[perm], limit)
    _assert_runs_match(permuted, [(bx[perm], bv[perm]) for bx, bv in base])
