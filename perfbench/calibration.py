"""Machine-speed calibration for the benchmark's timings.

On a shared host the same code runs up to ~40% slower for tens of seconds at
a time, when neighbouring work contends for the cores. A run lasts about as
long as one such phase, so raw medians jump between phases from run to run.
Each timed interval is therefore bracketed by calibration samples and reported
in reference seconds:

    reference seconds = measured seconds * reference_s / calibration seconds

where the calibration time is the mean of the samples taken just before and
just after the interval. Each workload is calibrated with a fixed kernel of
the same kind as its dominant layer, so that both slow down alike; the
kernels are frozen here and never call swarmlab. A change to swarmlab
changes the measured seconds and leaves the kernels alone, so it shows in
full. The raw seconds are kept beside every reference value in result.json.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix
from scipy.spatial.distance import cdist

_rng = np.random.default_rng(12345)
_X2, _V2 = _rng.standard_normal((1024, 2)), _rng.standard_normal((1024, 2))
_X3 = _rng.standard_normal((256, 3))
_A4, _B4 = _rng.standard_normal((512, 4)), _rng.standard_normal((512, 4))
_P4, _Q4 = _rng.standard_normal((100, 4)), _rng.standard_normal((130, 4))


def _alignment_sweep() -> None:
    """One Cucker-Smale field evaluation at N=1024, d=2, in 512-row blocks."""
    w = 1.0 / len(_X2)
    for i0 in range(0, len(_X2), 512):
        dx = _X2[i0:i0 + 512, None, :] - _X2[None, :, :]
        hw = w / (1.0 + np.sum(dx * dx, axis=-1))
        np.sum(hw[:, :, None] * _V2[None, :, :], axis=1) - np.sum(hw, axis=1)[:, None] * _V2[i0:i0 + 512]


def _snapshot_step() -> None:
    """A Gaussian pair sum at N=256, d=3, and one JSON snapshot of 256 atoms."""
    dx = _X3[:, None, :] - _X3[None, :, :]
    rho2 = np.sum(dx * dx, axis=-1)
    np.sum((np.exp(-rho2) - np.exp(-4.0 * rho2))[..., None] * dx, axis=1)
    json.dumps([{"id": i, "x": [float(c) for c in row], "v": [float(c) for c in row],
                 "w": 1.0 / 256} for i, row in enumerate(_X3)], indent=1)


def _transport() -> None:
    """An exact transport LP between 100 and 130 atoms, built as transport.py
    builds it, then a min-cost assignment between two 512-atom clouds."""
    n, m = len(_P4), len(_Q4)
    idx = np.arange(n * m)
    a_eq = coo_matrix((np.ones(2 * n * m), (np.concatenate([idx // m, n + idx % m]),
                                            np.concatenate([idx, idx]))),
                      shape=(n + m, n * m)).tocsr()
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    linprog(cdist(_P4, _Q4).ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    linear_sum_assignment(cdist(_A4, _B4))


# workload -> (kernel, its median seconds per call in the fast phase of the
# machine the bounds were set on: 2-CPU Intel Xeon, numpy 2.4 with OpenBLAS,
# one BLAS thread). The constants only fix the scale of reference seconds.
KERNELS = {
    "sweep_align": (_alignment_sweep, 0.085),
    "limit_snapshots": (_snapshot_step, 0.0098),
    "w1_compare": (_transport, 0.085),
}
SAMPLE_S = 0.3  # a sample spans this long, to average out sub-second jitter

# Set-up is calibrated by a fresh interpreter that imports what swarmlab
# imported when the benchmark was defined (`setup_probe.py --imports`); this
# is its time in the fast phase of the same machine.
IMPORTS_REFERENCE_S = 0.45


def to_reference(seconds: float, reference_s: float, before: float, after: float) -> float:
    return seconds * reference_s / (0.5 * (before + after))


class Calibration:
    def __init__(self, workload: str):
        self.kernel, self.reference_s = KERNELS[workload]

    def sample(self) -> float:
        """Median seconds per kernel call over at least SAMPLE_S of calls."""
        times = []
        end = time.perf_counter() + SAMPLE_S
        while len(times) < 3 or time.perf_counter() < end:
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def to_reference(self, seconds: float, before: float, after: float) -> float:
        return to_reference(seconds, self.reference_s, before, after)
