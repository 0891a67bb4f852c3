import numpy as np
import pytest

from swarmlab import PhaseEnsemble, simulate
from swarmlab.kernels import PairOperator


def make_phase(n, d=2, seed=0, speed_lo=0.5, speed_hi=2.0, box=1.0, weights=None):
    """Random phase ensemble with speeds bounded away from zero."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-box, box, size=(n, d))
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    speeds = rng.uniform(speed_lo, speed_hi, size=n)
    v = dirs * speeds[:, None]
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=float)
    return PhaseEnsemble(x=x, v=v, w=w)


def make_sphere(n, d=2, r=1.0, seed=0, box=1.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-box, box, size=(n, d))
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return PhaseEnsemble(x=x, v=r * dirs, w=np.full(n, 1.0 / n), r=r)


def snapshots(f_in, cfg) -> list:
    """Every snapshot `simulate` yields for the run, in order, without its energy."""
    return [snap for snap, _ in simulate(f_in, cfg)]


def field(ens, spec):
    """Mean-field acceleration of every particle against the whole ensemble."""
    return PairOperator(ens.w, spec).build(ens.x).field(ens.v)


def field_sup(ens, spec) -> float:
    """max_i |a_i| of that field."""
    return float(np.max(np.sqrt(np.sum(field(ens, spec) ** 2, axis=1))))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
