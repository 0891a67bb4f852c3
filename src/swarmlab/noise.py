"""Counter-based Gaussian noise streams.

Each (seed, domain, step) triple names a disjoint block of the Philox counter
space, and every particle reads a fixed row of the block's output. Draws are
therefore reproducible bit-for-bit no matter how work is scheduled: nothing
is consumed incrementally across steps, so no ordering can leak in.
"""

from __future__ import annotations

import numpy as np

# Domain separators so the two dynamics and the initial sampler never share
# a stream even under the same seed.
EPS_DYNAMICS = 0x45505344
SPHERE_DYNAMICS = 0x53504844
INIT_SAMPLING = 0x494E4954


def is_int(value, lo, hi) -> bool:
    """An int, not a bool, in [lo, hi): the rule of a run's counts and keys."""
    return isinstance(value, int) and not isinstance(value, bool) and lo <= value < hi


def is_seed(value) -> bool:
    """A Philox key word, a uint64."""
    return is_int(value, 0, 2**64)


def generator(seed: int, domain: int, step_index: int = 0) -> np.random.Generator:
    """Generator positioned at the (seed, domain, step) block."""
    bg = np.random.Philox(key=[np.uint64(seed), np.uint64(domain)],
                          counter=[0, 0, 0, np.uint64(step_index)])
    return np.random.Generator(bg)


def gaussian_increments(seed: int, domain: int, step_index: int, shape) -> np.ndarray:
    """Standard-normal block for one time step, one row per particle."""
    return generator(seed, domain, step_index).standard_normal(shape)
