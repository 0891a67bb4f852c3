"""The benchmark's workloads: generated configs and inputs, the particle-step
count of one pass, and the correctness gate of every `cli.run` call.

A pass is the list of `cli.run` calls a workload makes once. Every input is a
function of the workload seed alone, and is written before timing starts.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Relative tolerance of a W1 value or an energy against the value recorded in
# references.json. It leaves room for a changed summation order, not for a
# changed result.
REFERENCE_RTOL = 1e-6
# Largest admitted violation of a transport plan's marginals, and the relative
# gap allowed between a report's W1 value and the cost of its own plan.
MARGINAL_TOL = 1e-8
PLAN_COST_RTOL = 1e-9
# How far a limit-dynamics speed may sit from the sphere radius r = 1.
SPHERE_TOL = 1e-9

REFERENCES = Path(__file__).with_name("references.json")


def _digest(path: Path) -> str:
    """Hash of a data file, without the bytes a rerun may change: the manifest
    timestamps and the runtime_ms column of sweep.csv."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        doc = json.loads(data)
        doc.pop("started", None)
        doc.pop("finished", None)
        data = json.dumps(doc, sort_keys=True).encode()
    elif path.name == "sweep.csv":
        lines = data.decode().splitlines()
        cut = lines[0].split(",").index("runtime_ms")
        data = "\n".join(
            ",".join(c for k, c in enumerate(ln.split(",")) if k != cut) for ln in lines
        ).encode()
    return hashlib.sha256(data).hexdigest()


def output_digests(outdir: Path) -> dict:
    return {str(p.relative_to(outdir)): _digest(p)
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(abs(ref), 1e-300)


class Workload:
    """Base: subclasses fill `calls` with (label, config document) pairs and
    write any input files they need under `workdir`."""

    name = ""
    reference_keys: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.calls: list = []
        self.particle_steps = 0

    def observe(self, label: str, outdir: Path) -> dict:
        """The values of one call's output that references.json records."""
        raise NotImplementedError

    def invariants(self, label: str, outdir: Path, observed: dict) -> list:
        """Problems with one call's output that need no reference."""
        raise NotImplementedError

    def check(self, label: str, outdir: Path, references: dict) -> list:
        """Every problem found in one call's output; empty when correct."""
        try:
            observed = self.observe(label, outdir)
            problems = self.invariants(label, outdir, observed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{label}: unreadable output: {exc!r}"]
        ref = references.get(self.name, {}).get(str(self.seed), {}).get(label)
        if ref is not None:
            for key, want in ref.items():
                got = observed[key]
                pairs = zip(got, want) if isinstance(want, list) else [(got, want)]
                if (isinstance(want, list) and len(got) != len(want)) or not all(
                        _close(g, w, REFERENCE_RTOL) for g, w in pairs):
                    problems.append(f"{label}: {key} = {got} differs from reference {want}"
                                    f" beyond rtol {REFERENCE_RTOL}")
        return problems


class SweepAlign(Workload):
    """The paper's eps-convergence experiment through `swarmlab sweep`."""

    name = "sweep_align"

    N = 1024
    EPS_LIST = [0.08, 0.04, 0.02]
    DT = 0.05
    STEPS = 3
    reference_keys = ("w1_t0", "w1_horizon")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        horizon = self.DT * self.STEPS
        self.calls = [("sweep", {
            "mode": "sweep",
            "model": {"alpha": 1.0, "beta": 1.0},
            "kernels": {"name": "cucker_smale_weight", "params": {"K": 1.0, "gamma": 1.0}},
            "init": {"n": self.N, "dim": 2, "L0": 1.0, "r0": 0.5, "R0": 1.5,
                     "distribution": "uniform_annulus", "seed": seed},
            "integrator": {"dt": self.DT, "stride": self.STEPS, "scheme": "strang"},
            "sweep": {"eps_list": self.EPS_LIST, "t_grid": [0.0, horizon]},
        })]
        # the stiff run at every eps plus the one limit run
        self.particle_steps = self.N * self.STEPS * (len(self.EPS_LIST) + 1)

    def observe(self, label, outdir):
        lines = (outdir / "sweep.csv").read_text().splitlines()
        head = lines[0].split(",")
        rows = [dict(zip(head, ln.split(","))) for ln in lines[1:]]
        by_t = {}
        for row in rows:
            by_t.setdefault(float(row["t"]), []).append((float(row["eps"]), float(row["w1"])))
        t0, horizon = min(by_t), max(by_t)
        return {
            "eps_t0": [e for e, _ in by_t[t0]],
            "eps_horizon": [e for e, _ in by_t[horizon]],
            "w1_t0": [w for _, w in by_t[t0]],
            "w1_horizon": [w for _, w in by_t[horizon]],
        }

    def invariants(self, label, outdir, obs):
        problems = []
        if obs["eps_t0"] != self.EPS_LIST or obs["eps_horizon"] != self.EPS_LIST:
            problems.append(f"{label}: table rows are not one per eps in {self.EPS_LIST}")
        if not all(math.isfinite(w) and w > 0 for w in obs["w1_t0"] + obs["w1_horizon"]):
            problems.append(f"{label}: a W1 value is not finite and positive")
        # every stiff run starts from the same atoms as the limit run
        if len(set(obs["w1_t0"])) != 1:
            problems.append(f"{label}: W1 at t = 0 depends on eps: {obs['w1_t0']}")
        # criterion 7: the gap to the limit shrinks with eps
        w1 = obs["w1_horizon"]
        if any(b >= a for a, b in zip(w1, w1[1:])):
            problems.append(f"{label}: W1 at the horizon is not strictly decreasing in eps: {w1}")
        return problems


class LimitSnapshots(Workload):
    """A diffusive sphere-limit run that writes CSV and JSON at every step."""

    name = "limit_snapshots"

    N = 256
    DT = 0.01
    STEPS = 50
    reference_keys = ("final_total_energy", "final_momentum_norm")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.calls = [("limit", {
            "mode": "simulate-limit",
            "model": {"alpha": 1.0, "beta": 1.0},
            "kernels": {"name": "gaussian_attraction_repulsion",
                        "params": {"C_A": 0.5, "l_A": 1.0, "C_R": 0.3, "l_R": 0.5}},
            "init": {"n": self.N, "dim": 3, "L0": 1.0, "distribution": "on_sphere",
                     "seed": seed},
            "integrator": {"dt": self.DT, "T": self.DT * self.STEPS, "stride": 1,
                           "diffusion": True},
            "output": {"formats": ["csv", "json"]},
        })]
        self.particle_steps = self.N * self.STEPS

    def observe(self, label, outdir):
        # A row holds t, mass, momentum_1..3, total_energy, speed_min and
        # speed_max. The header also names a kinetic column that no row has,
        # so the trailing columns are read by their position from the end.
        rows = [ln.split(",") for ln in (outdir / "moments.csv").read_text().splitlines()[1:]]
        last = [float(c) for c in rows[-1]]
        return {
            "mass": [float(row[1]) for row in rows],
            "speed_band": last[-2:],
            "final_total_energy": last[-3],
            "final_momentum_norm": math.hypot(*last[2:5]),
        }

    def invariants(self, label, outdir, obs):
        problems = []
        snaps = self.STEPS + 1
        for ext in ("csv", "json"):
            found = len(list(outdir.glob(f"snap_limit_*.{ext}")))
            if found != snaps:
                problems.append(f"{label}: {found} {ext} snapshots, expected {snaps}")
        if len(obs["mass"]) != snaps or any(abs(m - 1.0) > 1e-12 for m in obs["mass"]):
            problems.append(f"{label}: moments.csv mass column is not 1 at {snaps} snapshots")
        last = json.loads((outdir / f"snap_limit_{self.STEPS:05d}.json").read_text())
        omega = np.array([p["v"] for p in last["particles"]])
        off = float(np.max(np.abs(np.linalg.norm(omega, axis=1) - 1.0)))
        if len(omega) != self.N or off > SPHERE_TOL:
            problems.append(f"{label}: final snapshot has {len(omega)} particles, "
                            f"|omega| off the sphere by {off:.3e}")
        if any(abs(s - 1.0) > SPHERE_TOL for s in obs["speed_band"]):
            problems.append(f"{label}: final speed band {obs['speed_band']} is off r = 1")
        return problems


def _phase_cloud(rng, n, d=2):
    """Positions uniform in the unit ball, speeds uniform in [0.5, 1.5]."""
    dirs = rng.standard_normal((n, d))
    x = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * rng.random(n)[:, None] ** (1 / d)
    heads = rng.standard_normal((n, d))
    v = heads / np.linalg.norm(heads, axis=1, keepdims=True) * rng.uniform(0.5, 1.5, n)[:, None]
    return x, v


def _snapshot_json(x, v) -> str:
    """A PhaseEnsemble snapshot in the program's documented JSON format."""
    n = len(x)
    return json.dumps({
        "header": {"dim": x.shape[1], "time": 0.0, "r": None},
        "particles": [{"id": i, "x": x[i].tolist(), "v": v[i].tolist(), "w": 1.0 / n}
                      for i in range(n)],
    }, indent=1)


class W1Compare(Workload):
    """`swarmlab compare` on generated snapshot files: two equal pairs that
    take the assignment solver and one unequal pair that takes the LP."""

    name = "w1_compare"

    # (label, atoms in file_a, atoms in file_b)
    PAIRS = [("pair_a", 1024, 1024), ("pair_b", 1024, 1024), ("pair_lp", 300, 400)]
    reference_keys = ("w1",)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.points = {}
        for k, (label, n, m) in enumerate(self.PAIRS):
            rng = np.random.default_rng([seed, k])
            files = []
            clouds = []
            for side, count in (("a", n), ("b", m)):
                x, v = _phase_cloud(rng, count)
                path = inputs / f"{label}_{side}.json"
                path.write_text(_snapshot_json(x, v))
                files.append(str(path))
                clouds.append(np.hstack([x, v]))
            self.points[label] = clouds
            self.calls.append((label, {
                "mode": "compare",
                "compare": {"file_a": files[0], "file_b": files[1]},
            }))
        # a W1 solve counts as one step over the atoms of both measures
        self.particle_steps = sum(n + m for _, n, m in self.PAIRS)

    def observe(self, label, outdir):
        doc = json.loads((outdir / "w1_report.json").read_text())
        return {"w1": float(doc["value"]), "residual": float(doc["residual"]),
                "plan": doc["plan"]}

    def invariants(self, label, outdir, obs):
        problems = []
        a, b = self.points[label]
        plan = np.array(obs["plan"], dtype=float).reshape(-1, 3)
        i, j, mass = plan[:, 0].astype(int), plan[:, 1].astype(int), plan[:, 2]
        rows = np.bincount(i, weights=mass, minlength=len(a))
        cols = np.bincount(j, weights=mass, minlength=len(b))
        marginal = max(float(np.max(np.abs(rows - 1.0 / len(a)))),
                       float(np.max(np.abs(cols - 1.0 / len(b)))))
        if not obs["residual"] <= MARGINAL_TOL or not marginal <= MARGINAL_TOL:
            problems.append(f"{label}: marginal residual {obs['residual']:.3e} reported, "
                            f"{marginal:.3e} recomputed, above {MARGINAL_TOL}")
        cost = float(np.sum(mass * np.linalg.norm(a[i] - b[j], axis=1)))
        if not _close(obs["w1"], cost, PLAN_COST_RTOL):
            problems.append(f"{label}: W1 {obs['w1']!r} is not the cost {cost!r} of its plan")
        return problems


WORKLOADS = {w.name: w for w in (SweepAlign, LimitSnapshots, W1Compare)}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
