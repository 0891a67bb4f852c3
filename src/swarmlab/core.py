"""Domain types, ensemble bookkeeping, and the sphere-projection operator.

Ensembles are immutable weighted particle clouds: the discrete stand-in for a
probability measure on phase space (x, v), or, given a radius r, on the
fixed-speed set {|v| = r} of the sphere limit.
All operations are pure functions of their inputs; arrays inside ensembles are
marked read-only so snapshots can be shared freely across threads.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParseError, ValidationError, ZeroVelocityParticle

MASS_TOL = 1e-12          # |sum(w) - 1| allowed at construction
SPHERE_RADIUS_TOL = 1e-12  # relative deviation of |v| from r


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ModelParams:
    """Propulsion/friction coefficients and the equilibrium speed r = sqrt(alpha/beta).

    alpha: self-propulsion rate (1/time), beta: friction (1/(time*speed^2)),
    eps: scale separation between the speed relaxation and the slow transport.
    """

    alpha: float
    beta: float
    eps: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0 and self.eps > 0):
            raise ValidationError(
                f"alpha, beta, eps must be positive, got "
                f"({self.alpha}, {self.beta}, {self.eps})"
            )
        if not 0 < self.r < math.inf:  # alpha/beta past float range, either way
            raise ValidationError(
                f"equilibrium speed r = sqrt(alpha/beta) must be finite and positive, "
                f"got {self.r} from alpha={self.alpha}, beta={self.beta}"
            )

    @property
    def r(self) -> float:
        return math.sqrt(self.alpha / self.beta)


@dataclass(frozen=True)
class PhaseEnsemble:
    """N weighted particles (x_i, v_i, w_i) in R^d x R^d, d in {2, 3}.

    Weights are nonnegative and sum to 1. Without a radius, particles with
    exactly zero velocity are rejected: the zero-speed equilibrium is unstable
    and every analytical statement the lab verifies assumes initial support
    away from it. With a radius r the ensemble is a measure on the
    fixed-speed set R^d x {|v| = r}: every |v_i| lies within
    SPHERE_RADIUS_TOL * r of r, and the dynamics run the sphere limit.
    """

    x: np.ndarray   # (n, d) positions
    v: np.ndarray   # (n, d) velocities
    w: np.ndarray   # (n,) weights
    time: float = 0.0
    r: float | None = None   # speed-sphere radius of a limit ensemble

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_array(self.x))
        object.__setattr__(self, "v", _frozen_array(self.v))
        object.__setattr__(self, "w", _frozen_array(self.w))
        x, v, w = self.x, self.v, self.w
        if x.ndim != 2 or x.shape[1] not in (2, 3):
            raise ValidationError(f"positions must be (n, d) with d in {{2, 3}}, got {x.shape}")
        if v.shape != x.shape:
            raise DimensionMismatch(f"velocity shape {v.shape} != position shape {x.shape}")
        if w.shape != (x.shape[0],):
            raise ValidationError(f"weights must be ({x.shape[0]},), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("non-finite particle weights")
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > MASS_TOL:
            raise ValidationError(f"weights must sum to 1, got {float(np.sum(w))!r}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValidationError("non-finite particle coordinates")
        if self.r is None:
            if np.any(np.all(v == 0.0, axis=1)):
                raise ZeroVelocityParticle("ensemble contains a particle with v = 0")
            return
        if not self.r > 0:
            raise ValidationError(f"sphere radius must be positive, got {self.r}")
        off = np.max(np.abs(self.speeds() - self.r))
        if off > SPHERE_RADIUS_TOL * self.r:
            raise ValidationError(
                f"velocities stray from the radius-{self.r} sphere by {off:.3e}"
            )

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def speeds(self) -> np.ndarray:
        return np.sqrt(np.sum(self.v * self.v, axis=1))

    @classmethod
    def uniform_weights(cls, x, v, time=0.0) -> "PhaseEnsemble":
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        return cls(x=x, v=v, w=np.full(n, 1.0 / n), time=time)


@dataclass(frozen=True)
class MomentReport:
    mass: float
    momentum: np.ndarray
    kinetic_energy: float   # (1/2) sum_i w_i |v_i|^2
    speed_min: float
    speed_max: float

    def __post_init__(self):
        object.__setattr__(self, "momentum", _frozen_array(self.momentum))


def project_measure(ens: PhaseEnsemble, r: float) -> PhaseEnsemble:
    """Send every atom (x, v, w) to (x, r*v/|v|, w): the projected measure on the
    radius-r sphere, from an ensemble with or without a radius. Positions and
    weights are untouched, so mass is preserved exactly and each velocity
    keeps its direction."""
    if not r > 0:
        raise ValidationError(f"projection radius must be positive, got {r}")
    speeds = ens.speeds()
    if np.any(speeds == 0.0):
        raise ZeroVelocityParticle("cannot project a particle with v = 0")
    v = ens.v * (r / speeds)[:, None]
    return PhaseEnsemble(x=ens.x, v=v, w=ens.w, time=ens.time, r=r)


def moments(ens: PhaseEnsemble) -> MomentReport:
    """Weighted moments and support diagnostics of an ensemble."""
    speeds2 = np.sum(ens.v * ens.v, axis=1)
    speeds = np.sqrt(speeds2)
    return MomentReport(
        mass=float(np.sum(ens.w)),
        momentum=np.sum(ens.w[:, None] * ens.v, axis=0),
        kinetic_energy=0.5 * float(np.sum(ens.w * speeds2)),
        speed_min=float(np.min(speeds)),
        speed_max=float(np.max(speeds)),
    )


# ---------------------------------------------------------------------------
# Serialization: CSV (one row per particle) and JSON (with a header object).
# Floats are written with repr() so identical runs emit identical bytes and
# values round-trip exactly.
# ---------------------------------------------------------------------------

def csv_text(header, rows) -> str:
    """A header line, then one line per row of Python numbers; each cell is
    repr() of its number, and None is an empty cell."""
    lines = [",".join(header)]
    lines += [",".join("" if c is None else repr(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def ensemble_to_csv(ens: PhaseEnsemble, **extra) -> str:
    """One row per particle; each `extra` entry is a named per-particle
    column written after w."""
    d = range(1, ens.dim + 1)
    header = ["id", *(f"x{k}" for k in d), *(f"v{k}" for k in d), "w", *extra]
    table = np.column_stack([ens.x, ens.v, ens.w, *extra.values()])
    return csv_text(header, ([i, *row] for i, row in enumerate(table.tolist())))


def ensemble_from_csv(text: str, time: float = 0.0,
                      r: float | None = None) -> PhaseEnsemble:
    """Parse the CSV particle table. CSV carries no header object, so the
    time and the sphere radius (None for a phase ensemble) are passed in.
    Columns are looked up by name, so extra diagnostic columns are
    tolerated; missing columns, ragged rows and non-numeric x, v, w cells
    are ParseErrors."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()] or [""]
    header = lines[0].split(",")
    dim = sum(1 for c in header if c.startswith("x") and c[1:].isdigit())
    rows = [ln.split(",") for ln in lines[1:]]
    try:
        if dim not in (2, 3):
            raise ValueError(f"unexpected CSV columns: {header}")
        xi = [header.index(f"x{k + 1}") for k in range(dim)]
        vi = [header.index(f"v{k + 1}") for k in range(dim)]
        wi = header.index("w")
        if {len(row) for row in rows} != {len(header)}:
            raise ValueError(f"need particle rows of the header's {len(header)} cells")
        table = np.array([[float(row[k]) for k in (*xi, *vi, wi)] for row in rows])
    except ValueError as exc:
        raise ParseError(f"malformed CSV snapshot: {exc}") from exc
    return PhaseEnsemble(x=table[:, :dim], v=table[:, dim:-1], w=table[:, -1],
                         time=time, r=r)


def ensemble_to_json(ens: PhaseEnsemble) -> str:
    """The snapshot document, as exactly the bytes of `json.dumps(doc, indent=1)`
    for doc = {"header": {"dim", "time", "r"}, "particles": [{"id", "x", "v",
    "w"}, ...]}. With `indent` set, `json.dumps` runs its pure-Python encoder,
    so the particles are written instead through one %-template per particle.
    `json` writes a float as `float.__repr__`, the function `%r` calls, and
    x, v and w are finite, so the bytes agree. The header values still go
    through `json.dumps`, which keeps an integer time or radius, and null."""
    cells = ",\n    ".join(["%r"] * ens.dim)
    particle = ('  {\n   "id": %d,\n   "x": [\n    ' + cells + '\n   ],\n   "v": [\n    '
                + cells + '\n   ],\n   "w": %r\n  }')
    rows = np.column_stack([ens.x, ens.v, ens.w]).tolist()
    head = ('{\n "header": {\n  "dim": %d,\n  "time": %s,\n  "r": %s\n },\n "particles": [\n'
            % (ens.dim, json.dumps(ens.time), json.dumps(ens.r)))
    body = ",\n".join([particle % (i, *row) for i, row in enumerate(rows)])
    return head + body + "\n ]\n}"


def _finite_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -math.inf < value < math.inf)


def ensemble_from_json(text: str) -> PhaseEnsemble:
    """Parse a snapshot document; malformed ones raise ParseError. The header
    must give the rows' dimension, a finite time, and a radius that is null
    or positive. Header numbers are kept as parsed, not converted to float,
    so an integer time or radius is written back with the same bytes."""
    try:
        doc = json.loads(text)
        head, parts = doc["header"], doc["particles"]
        x, v, w = (np.array([p[key] for p in parts], dtype=float) for key in "xvw")
        dim, time, r = head["dim"], head["time"], head.get("r")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed snapshot JSON: {exc!r}") from exc
    if not (type(dim) is int and x.shape[1:] == (dim,)):
        raise ParseError(f"snapshot header dim {dim!r} does not match "
                         f"particle positions of shape {x.shape}")
    if not _finite_real(time):
        raise ParseError(f"snapshot header time must be a finite number, got {time!r}")
    if not (r is None or (_finite_real(r) and r > 0)):
        raise ParseError(f"snapshot header r must be null or a positive number, got {r!r}")
    return PhaseEnsemble(x=x, v=v, w=w, time=time, r=r)


def config_hash(mapping) -> str:
    """Stable hash of a JSON-serializable mapping: invariant under key order."""
    blob = json.dumps(mapping, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
