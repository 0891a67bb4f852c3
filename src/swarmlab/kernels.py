"""Interaction ingredients: pair potential, alignment weight, mean-field field.

The acceleration felt by particle i is the exact pairwise sum

    a_i = - sum_j w_j grad_U(x_i - x_j) + sum_j w_j h(x_i - x_j) (v_j - v_i)

Every built-in kernel is radial, so a KernelSpec stores the profiles of the
squared distance s = rho^2 = |x|^2 that the pair sums evaluate: U'(s) with
the energy, and h(s), where grad_U(x) = 2 U'(|x|^2) x.

A PairOperator evaluates the profiles once per position state, on the matrix
s_ij = |x_i - x_j|^2 from scipy's cdist (the package's only pair pass). It
holds the energy (1/2) sum_ij w_i w_j U(s_ij), the potential force
F_i = -2 (sum_j G_ij x_i - (G x)_i) with G_ij = w_j U'(s_ij), and the weighted
alignment matrix H_ij = w_j h(s_ij) with its row sums, so every
velocity-dependent field evaluation at those positions is one (N, N) by
(N, d) product,

    a = F + H v - rowsum(H) v.

The j = i term is kept (grad_U(0) = 0, the alignment difference vanishes, the
empirical convolution keeps the self-pair energy), so the sums are
branch-free. The cost is O(N^2) time per build and O(N^2) memory: H is one
N x N float64 matrix, 8 N^2 bytes (8 MB at N = 1024, 128 MB at N = 4096),
built in place in the distance buffer. A build passes over that buffer in
cdist, in the profile, whose last pass also folds in the weight w_j, and in
the row sums; an apply passes over H once. A kernel with both a potential
and a weight holds a second N x N buffer while the force is built.

Both pair products, H v and G x, are BLAS calls on fixed blocks of
BLOCK_ROWS rows. How OpenBLAS splits one call over its threads can change
the order in which a row's sum is added up, so the bytes of a whole-matrix
product depend on the BLAS thread count; over 64-row blocks they did not, at
any N probed (OpenBLAS 0.3.31, 1 against 2 threads, N = 560 to 8192, d = 2
and 3). That is an empirical fact about this library, not a guarantee:
128- and 256-row blocks differed at some N.

The closed-form sup-norm bounds of each family, and the field-gap constant
built from them, are checks of the suite and live in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist

from .errors import BadKernelParams

BLOCK_ROWS = 64  # rows per BLAS call of a pair product; see the module docstring


@dataclass(frozen=True)
class KernelSpec:
    """A radial potential/weight pair.

    Both profiles take the matrix s of squared pair distances, a buffer the
    pair build no longer needs, and the weights w, and overwrite s_ij with
    the weighted profile w_j p(s_ij): `potential(s, w)` leaves w_j U'(s_ij)
    and returns (1/2) sum_ij w_i w_j U(s_ij); `h(s, w)` leaves w_j h(s_ij).
    None stands for an identically zero profile.
    """

    name: str
    params: dict
    potential: Callable | None = None   # (s, w) -> energy; s becomes w_j U'(s)
    h: Callable | None = None           # (s, w); s becomes w_j h(s)


def _gaussian_family(c_a, l_a, c_r, l_r):
    """U(x) = -c_a exp(-|x|^2/l_a^2) + c_r exp(-|x|^2/l_r^2), smooth and bounded
    with bounded derivatives of all orders (unlike the Morse potential, which
    is not twice differentiable at the origin)."""
    terms = [(amp, ell**2) for amp, ell in ((-c_a, l_a), (c_r, l_r)) if amp != 0.0]

    def potential(s, w):
        """Overwrite s with w_j U'(s_ij) and return (1/2) sum_ij w_i w_j U(s_ij);
        each exponential is computed once, the last in the buffer of s."""
        energy, du = 0.0, None
        for k, (amp, ell2) in enumerate(terms):
            e = s if k == len(terms) - 1 else s.copy()
            np.divide(e, -ell2, out=e)
            np.exp(e, out=e)
            energy += amp * float(np.sum(np.einsum("ij,j->i", e, w) * w))
            e *= (-amp / ell2) * w
            if du is not None:
                e += du
            du = e
        return 0.5 * energy

    return potential if terms else None


def _cucker_smale_family(k, gamma):
    """h(x) = k / (1 + |x|^2)^gamma: the classical decreasing radial weight."""

    def h(s, w):
        np.add(s, 1.0, out=s)
        if gamma != 1.0:  # x**1.0 == x, but numpy would still make the pass
            s **= gamma
        np.divide(k * w, s, out=s)

    return h


def _constant_profile(k):
    def h(s, w):
        s[...] = k * w
    return h


def builtin_kernels(name: str, params: dict | None = None) -> KernelSpec:
    """Construct one of the built-in kernel families.

    gaussian_attraction_repulsion: U(x) = -C_A exp(-|x|^2/l_A^2)
                                          + C_R exp(-|x|^2/l_R^2), h = 0;
                                   params C_A, l_A, C_R, l_R.
    cucker_smale_weight:           h(x) = K / (1 + |x|^2)^gamma, U = 0;
                                   params K, gamma.
    constant_weight:               h = K, U = 0; params K.
    zero_potential:                U = 0, h = 0.
    Any other parameter raises BadKernelParams.
    """
    params = dict(params or {})
    if name == "zero_potential":
        spec = KernelSpec(name=name, params={})
    elif name == "constant_weight":
        k = float(params.get("K", 1.0))
        if k <= 0:
            raise BadKernelParams(f"constant_weight needs K > 0, got {k}")
        spec = KernelSpec(name=name, params={"K": k}, h=_constant_profile(k))
    elif name == "cucker_smale_weight":
        k = float(params.get("K", 1.0))
        gamma = float(params.get("gamma", 1.0))
        if k <= 0 or gamma <= 0:
            raise BadKernelParams(f"cucker_smale_weight needs K, gamma > 0, got {k}, {gamma}")
        spec = KernelSpec(name=name, params={"K": k, "gamma": gamma},
                          h=_cucker_smale_family(k, gamma))
    elif name == "gaussian_attraction_repulsion":
        c_a = float(params.get("C_A", 1.0))
        l_a = float(params.get("l_A", 1.0))
        c_r = float(params.get("C_R", 0.0))
        l_r = float(params.get("l_R", 0.5))
        if l_a <= 0 or l_r <= 0:
            raise BadKernelParams(f"gaussian scales must be positive, got l_A={l_a}, l_R={l_r}")
        if c_a < 0 or c_r < 0:
            raise BadKernelParams("gaussian amplitudes C_A, C_R must be nonnegative")
        spec = KernelSpec(name=name, params={"C_A": c_a, "l_A": l_a, "C_R": c_r, "l_R": l_r},
                          potential=_gaussian_family(c_a, l_a, c_r, l_r))
    else:
        raise BadKernelParams(f"unknown kernel family {name!r}")
    if set(params) - set(spec.params):
        raise BadKernelParams(f"{name} takes parameters {sorted(spec.params)}, "
                              f"got {sorted(params)}")
    return spec


def compose_kernels(potential_spec: KernelSpec, weight_spec: KernelSpec) -> KernelSpec:
    """Merge a potential-only spec with a weight-only spec into one interaction."""
    if potential_spec.h is not None or weight_spec.potential is not None:
        raise BadKernelParams("compose expects (potential-only, weight-only)")
    return replace(
        potential_spec,
        name=f"{potential_spec.name}+{weight_spec.name}",
        params={"potential": potential_spec.params, "weight": weight_spec.params},
        h=weight_spec.h,
    )


def _row_blocks_matmul(m, y):
    """m @ y, one BLAS call per block of BLOCK_ROWS rows of m."""
    out = np.empty((m.shape[0], y.shape[1]))
    for i in range(0, m.shape[0], BLOCK_ROWS):
        np.matmul(m[i:i + BLOCK_ROWS], y, out=out[i:i + BLOCK_ROWS])
    return out


class PairOperator:
    """The pair sums of one frozen position state, for a fixed weight vector.

    `build(x)` evaluates the interaction energy, the force F and the weighted
    alignment matrix H at positions x, reusing the N x N buffer of the
    previous build; `field(v)` then costs one pass over H. An operator belongs to
    one run: it is not shared and not cached past it.
    """

    def __init__(self, w, spec: KernelSpec):
        self.w = np.asarray(w, dtype=float)
        self.spec = spec
        self.force = None
        self.energy = None
        self.H = None
        self.h_rowsum = None
        self._buf = None

    def build(self, x) -> "PairOperator":
        x = np.asarray(x, dtype=float)
        spec, w = self.spec, self.w
        self.force = np.zeros(x.shape)
        self.energy = 0.0
        if spec.potential is None and spec.h is None:
            return self  # no N x N buffer: noise-only runs reach N = 10^4
        s = self._buf = cdist(x, x, "sqeuclidean", out=self._buf)
        if spec.potential is not None:
            g = s.copy() if spec.h is not None else s
            self.energy = spec.potential(g, w)
            # F depends on differences only; centring x keeps the two sums
            # from cancelling when the swarm sits far from the origin
            xc = x - np.mean(x, axis=0)
            self.force = -2.0 * (np.sum(g, axis=1)[:, None] * xc - _row_blocks_matmul(g, xc))
        if spec.h is not None:
            spec.h(s, w)
            self.H = s
            self.h_rowsum = np.sum(s, axis=1)
        return self

    def field(self, v) -> np.ndarray:
        """a_i = F_i + sum_j H_ij (v_j - v_i) at the built positions."""
        if self.H is None:
            return self.force.copy()
        a = _row_blocks_matmul(self.H, v)
        a -= self.h_rowsum[:, None] * v
        a += self.force
        return a
