"""Experiment runner: one JSON config per run, reproducible outputs.

A run is fully determined by (config, seed): every numeric output file is
byte-identical across repeats at any SWARM_THREADS setting. The manifest
records the config hash, seed, version and the emitted file list; its
timestamps are the only non-reproducible bytes a run produces.

Exit codes: 0 success, 2 a ConfigError, 3 a NumericAbort or out of memory,
4 I/O failure; `main` reads the code and label off the error type.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, noise
from .core import (
    ModelParams,
    PhaseEnsemble,
    config_hash,
    csv_text,
    ensemble_from_csv,
    ensemble_from_json,
    ensemble_to_csv,
    ensemble_to_json,
    format_particles,
    project_measure,
)
from .eps_dynamics import SimConfig, simulate
from .errors import ParseError, SwarmError, ValidationError
from .kernels import builtin_kernels
from .relaxation import (
    blowup_time,
    check_speed_balance,
    root_asymptotics,
    solve_roots,
    speed_flow,
)
from .sphere_dynamics import spherical_coords_3d
from .transport import convergence_study, w1_exact

INTEGRATOR_DEFAULTS = {"dt": 1e-3, "stride": 100, "scheme": "strang", "diffusion": False}
DEFAULT_T = 1.0  # the simulate modes' horizon when integrator.T is not given
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    mode: str
    model: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)
    init: dict = field(default_factory=dict)
    integrator: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    roots: dict = field(default_factory=dict)
    flow: dict = field(default_factory=dict)
    compare: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v or k == "mode"}


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    seed: int
    version: str
    started: str
    finished: str
    files: tuple


SECTIONS = tuple(f.name for f in fields(RunConfig) if f.name != "mode")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a run configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object")
    unknown = set(doc) - {"mode", *SECTIONS}
    if unknown:
        raise ParseError(f"unknown config sections: {sorted(unknown)}")
    mode = doc.get("mode")
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {tuple(MODES)}, got {mode!r}")
    sections = {name: doc.get(name, {}) for name in SECTIONS}
    not_objects = [name for name, sec in sections.items() if not isinstance(sec, dict)]
    if not_objects:
        raise ValidationError(f"config sections must be JSON objects: {not_objects}")
    # the document's own keys, before the defaults join them
    reads, _ = _row(mode)
    _reject_unread([f"{section}.{key}" for section, sec in sections.items() for key in sec
                    if f"{section}.{key}" not in reads], f"{mode} mode")
    sections["integrator"] = {**INTEGRATOR_DEFAULTS, **sections["integrator"]}
    cfg = RunConfig(mode=mode, **sections)
    _validate(cfg)
    return cfg


def _is_number(value) -> bool:
    """A finite int or float that float() can hold: the handlers convert
    config numbers with float(), which overflows past float range."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an int past float range
        return False


# the least nonzero flow speed whose square is a normal float: once
# e^(-2 alpha s) underflows, the flow divides v0 by sqrt(|v0|^2), which a
# subnormal square makes inexact and a square underflowed to 0 makes inf
_MIN_FLOW_SPEED = math.sqrt(sys.float_info.min)

# (what a value must be, its test, the config values it applies to where given)
_VALUE_KINDS = (
    ("a number", _is_number,
     "model.alpha model.beta model.eps init.L0 init.r0 init.R0 integrator.T roots.A"),
    ("a positive number", lambda v: _is_number(v) and v > 0, "integrator.dt"),
    ("2 or 3", lambda v: isinstance(v, int) and v in (2, 3), "init.dim"),
    ("an integer in [0, 2**64)", noise.is_seed, "init.seed"),
    ("a positive integer", lambda v: noise.is_int(v, 1, math.inf), "init.n integrator.stride"),
    ("a boolean", lambda v: isinstance(v, bool), "integrator.diffusion"),
    ("a string", lambda v: isinstance(v, str),
     "init.input init.distribution kernels.name compare.file_a compare.file_b output.directory"),
    ("'strang'", lambda v: v == "strang", "integrator.scheme"),
    ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)),
     "sweep.eps_list sweep.t_grid roots.eps_list flow.s_list"),
    (f"a list of speeds, each 0 or at least {_MIN_FLOW_SPEED:.3g} (a normal |v0|^2)",
     lambda v: isinstance(v, list)
     and all(_is_number(u) and (u == 0 or u >= _MIN_FLOW_SPEED) for u in v), "flow.v0_list"),
    ("an object of numbers",
     lambda v: isinstance(v, dict) and all(map(_is_number, v.values())), "kernels.params"),
    (f"a list drawn from {FORMATS}",
     lambda v: isinstance(v, list) and all(f in FORMATS for f in v), "output.formats"),
)


def _row(mode: str):
    """The keys a mode's row in MODES reads, and the required ones among them."""
    names = MODES[mode][1].split()
    return {name.rstrip("*") for name in names}, [n[:-1] for n in names if n.endswith("*")]


def _reject_unread(keys, reader: str):
    if keys:
        raise ValidationError(f"{reader} does not read config keys {keys}")


def _validate(cfg: RunConfig):
    for kind, ok, names in _VALUE_KINDS:
        for section, key in (name.split(".") for name in names.split()):
            values = getattr(cfg, section)
            if key in values and not ok(values[key]):
                raise ValidationError(f"{section}.{key} must be {kind}, got {values[key]!r}")
    reads, required = _row(cfg.mode)
    missing = [f"{sec}.{key}" for sec, key in (name.split(".") for name in required)
               if getattr(cfg, sec).get(key) in (None, [], "")]
    if missing:
        raise ValidationError(f"{cfg.mode} mode needs {' and '.join(missing)}")
    if "model.alpha" in reads:
        params = _model_params(cfg)
    if "kernels.name" in reads:
        _kernel_spec(cfg)
    if "init.n" in reads:
        if cfg.init.get("input"):
            _reject_unread([f"init.{key}" for key in cfg.init if key != "input"],
                           "a run from init.input")
        else:
            _init_ensemble_checks(cfg.init, params)
    if "roots.A" in reads:
        for eps in cfg.roots["eps_list"]:
            check_speed_balance(float(eps), float(cfg.roots["A"]), params)
    if "integrator.T" in reads:
        _step_count(cfg.integrator)


def _step_count(integ: dict, horizon=None) -> int:
    """Steps of integrator.dt in integrator.T, or in `horizon` rounded to a step.
    ValidationError if T/dt is not in [1, 2**63), or if integrator.T is not a
    whole number of steps to a relative 1e-9 (it would end at another time)."""
    dt = float(integ["dt"])
    T = float(integ.get("T", DEFAULT_T) if horizon is None else horizon)
    steps = T / dt
    if not 1.0 <= steps < 2.0**63:  # false for inf too
        raise ValidationError(f"step count T/dt = {steps!r} (T={T}, dt={dt}) is not in [1, 2**63)")
    if horizon is None and abs(steps - round(steps)) > 1e-9 * steps:
        nearest = " and ".join(f"{k * dt:.12g}" for k in (math.floor(steps), math.ceil(steps)))
        raise ValidationError(f"integrator.T={T} is not a whole number of steps dt={dt} "
                              f"(T/dt = {steps!r}); the nearest whole-step horizons are {nearest}")
    return round(steps)


def _model_params(cfg: RunConfig) -> ModelParams:
    model = cfg.model  # only simulate-eps reads eps; the other modes never use it
    return ModelParams(model["alpha"], model["beta"], model.get("eps", 1.0))


def _kernel_spec(cfg: RunConfig):
    name = cfg.kernels.get("name", "zero_potential")
    return builtin_kernels(name, cfg.kernels.get("params", {}))


def _init_ensemble_checks(init: dict, params: ModelParams):
    """The rules of a sampled initial datum, in the one copy that parse_config
    and build_initial_ensemble both apply."""
    if "n" not in init:
        raise ValidationError("init.n (particle count) is required")
    dist = init.get("distribution", "uniform_annulus")
    if dist not in ("uniform_annulus", "on_sphere", "two_clusters"):
        raise ValidationError(f"unknown init.distribution {dist!r}")
    if dist == "on_sphere":  # its speeds are r: no band to sample from
        _reject_unread([f"init.{key}" for key in ("r0", "R0") if key in init],
                       "an on_sphere datum")
        return
    r0, big_r0 = init.get("r0"), init.get("R0")
    if r0 is None or big_r0 is None:
        raise ValidationError(f"a {dist} datum needs init.r0 and init.R0")
    if not (0 < r0 < params.r < big_r0):
        raise ValidationError(
            f"need 0 < r0 < r < R0, got r0={r0}, r={params.r}, R0={big_r0}"
        )
    if not math.isfinite(float(big_r0) * float(big_r0)):  # the dynamics square |v|
        raise ValidationError(f"init.R0 must have a finite square, got R0={big_r0}")


def _unit_directions(rng, n, d):
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _uniform_ball(rng, n, d, radius):
    dirs = _unit_directions(rng, n, d)
    rad = radius * rng.random(n) ** (1.0 / d)
    return dirs * rad[:, None]


def build_initial_ensemble(init: dict, params: ModelParams) -> PhaseEnsemble:
    """Sample the configured initial datum (deterministic in init.seed)."""
    _init_ensemble_checks(init, params)
    n = int(init["n"])
    d = int(init.get("dim", 2))
    seed = int(init.get("seed", 0))
    l0 = float(init.get("L0", 1.0))
    dist = init.get("distribution", "uniform_annulus")
    rng = noise.generator(seed, noise.INIT_SAMPLING)
    if dist == "on_sphere":
        x = _uniform_ball(rng, n, d, l0)
        v = params.r * _unit_directions(rng, n, d)
    elif dist == "uniform_annulus":
        x = _uniform_ball(rng, n, d, l0)
        speeds = rng.uniform(float(init["r0"]), float(init["R0"]), size=n)
        v = _unit_directions(rng, n, d) * speeds[:, None]
    else:  # two_clusters
        half = n // 2
        centers = np.zeros((n, d))
        centers[:half, 0] = -0.5 * l0
        centers[half:, 0] = +0.5 * l0
        x = centers + _uniform_ball(rng, n, d, 0.25 * l0)
        bias = np.zeros((n, d))
        bias[:half, 1] = 1.0
        bias[half:, 1] = -1.0
        dirs = bias + 0.5 * rng.standard_normal((n, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        speeds = rng.uniform(float(init["r0"]), float(init["R0"]), size=n)
        v = dirs * speeds[:, None]
    return PhaseEnsemble.uniform_weights(x, v)


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _snapshot_files(named, formats):
    """Each (stem, ensemble)'s files in the run's formats, the CSVs first.
    A snapshot's numbers are formatted once, and both writers fill their
    templates from those strings; a CSV of a d = 3 sphere snapshot gains
    its chart angles."""
    if not formats:
        return
    tables = []
    for stem, ens in named:
        extra = {}
        if "csv" in formats and ens.r is not None and ens.dim == 3:
            extra = dict(zip(("theta", "phi"), spherical_coords_3d(ens.v, ens.r)))
        tables.append((stem, format_particles(ens, **extra)))
    for fmt, write in (("csv", ensemble_to_csv), ("json", ensemble_to_json)):
        if fmt in formats:
            for stem, table in tables:
                yield f"{stem}.{fmt}", write(table)


def _moments_csv(traj) -> str:
    d = traj.snapshots[0].dim
    cols = ["t", "mass"] + [f"momentum_{k+1}" for k in range(d)] + \
        ["kinetic", "total_energy", "speed_min", "speed_max"]
    rows = ([float(t), rep.mass, *rep.momentum.tolist(), rep.kinetic_energy, energy,
             rep.speed_min, rep.speed_max]
            for t, rep, energy in zip(traj.times, traj.moment_reports, traj.energies))
    return csv_text(cols, rows)


def load_snapshot(path: str) -> PhaseEnsemble:
    """Read a snapshot file (JSON preferred: CSV carries no sphere radius);
    a file that does not parse to a valid ensemble raises ParseError naming it."""
    parse = ensemble_from_json if Path(path).suffix == ".json" else ensemble_from_csv
    try:
        return parse(Path(path).read_text())
    except (SwarmError, UnicodeDecodeError) as exc:
        raise ParseError(f"snapshot {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Mode handlers
# ---------------------------------------------------------------------------

def _run_config(cfg: RunConfig, params, spec, seed, steps=None) -> SimConfig:
    integ = cfg.integrator
    return SimConfig(
        params=params, spec=spec, dt=float(integ["dt"]),
        steps=_step_count(integ) if steps is None else steps,
        snapshot_stride=integ["stride"], diffusion=integ["diffusion"], rng_seed=seed,
    )


def _mode_simulate(cfg, seed, formats):
    """simulate-eps runs the sampled ensemble, simulate-limit its projection
    onto the speed sphere; `simulate` picks the step from the ensemble's
    radius."""
    limit = cfg.mode == "simulate-limit"
    params = _model_params(cfg)
    spec = _kernel_spec(cfg)
    ens = build_initial_ensemble({**cfg.init, "seed": seed}, params)
    if limit:
        ens = project_measure(ens, params.r)
    traj = simulate(ens, _run_config(cfg, params, spec, seed))
    prefix = "snap_limit" if limit else "snap_eps"
    for k, snap in enumerate(traj.snapshots):  # one snapshot's strings at a time
        yield from _snapshot_files([(f"{prefix}_{k:05d}", snap)], formats)
    yield "moments.csv", _moments_csv(traj)


def _mode_project(cfg, seed, formats):
    params = _model_params(cfg)
    source = cfg.init.get("input")
    ens = (load_snapshot(source) if source
           else build_initial_ensemble({**cfg.init, "seed": seed}, params))
    sphere = project_measure(ens, params.r)
    yield from _snapshot_files([("source", ens), ("projected", sphere)], formats)


def _mode_roots(cfg, seed, formats):
    params = _model_params(cfg)
    amp = float(cfg.roots["A"])
    lims = root_asymptotics(amp, params) if amp != 0.0 else (math.nan,) * 3
    rows = []
    for eps in cfg.roots["eps_list"]:
        triple = solve_roots(float(eps), amp, params)
        vals = [triple.rho1, triple.rho2, triple.rho3]
        ratios = [
            vals[0] / eps if vals[0] is not None else math.nan,
            (params.r - vals[1]) / eps if vals[1] is not None else math.nan,
            (vals[2] - params.r) / eps if vals[2] is not None else math.nan,
        ]
        rows.append([float(eps), amp, *vals, *ratios, *lims])
    yield "roots.csv", csv_text(
        "eps,A,rho1,rho2,rho3,ratio1,ratio2,ratio3,lim1,lim2,lim3".split(","), rows)


def _mode_flow(cfg, seed, formats):
    params = _model_params(cfg)
    rows = []
    for v0 in cfg.flow["v0_list"]:
        s_v = blowup_time(np.array([float(v0)]), params)
        for s in cfg.flow["s_list"]:
            rows.append([float(v0), float(s), speed_flow(float(v0), float(s), params), s_v])
    yield "flow.csv", csv_text(["v0", "s", "speed", "blowup_time"], rows)


def _mode_compare(cfg, seed, formats):
    a = load_snapshot(cfg.compare["file_a"])
    b = load_snapshot(cfg.compare["file_b"])
    yield "w1_report.json", _w1_report_json(w1_exact(a, b))


def _w1_report_json(rep) -> str:
    """The report as exactly the bytes of `json.dumps(vars(rep), indent=1)`,
    through one %-template per plan triple instead of the pure-Python encoder
    that `indent` selects. Its numbers are finite Python ints and floats, which
    `json` writes as `%d` and `float.__repr__` do."""
    plan = ",\n".join(["  [\n   %d,\n   %d,\n   %r\n  ]" % entry for entry in rep.plan])
    return ('{\n "value": %r,\n "solver": %s,\n "iterations": %d,\n "residual": %r,\n'
            ' "plan": [\n%s\n ]\n}'
            % (rep.value, json.dumps(rep.solver), rep.iterations, rep.residual, plan))


def _mode_sweep(cfg, seed, formats):
    params = _model_params(cfg)
    spec = _kernel_spec(cfg)
    ens = build_initial_ensemble({**cfg.init, "seed": seed}, params)
    eps_list = [float(e) for e in cfg.sweep["eps_list"]]
    t_grid = [float(t) for t in cfg.sweep["t_grid"]]
    # a t_grid's horizon is its last point, at least a step, rounded to a step
    base = _run_config(cfg, params, spec, seed,
                       _step_count(cfg.integrator, max(*t_grid, float(cfg.integrator["dt"]))))
    rows = ([row["eps"], row["t"], row["w1"], ens.n, seed, row["runtime_ms"]]
            for row in convergence_study(ens, eps_list, t_grid, base))
    yield "sweep.csv", csv_text(["eps", "t", "w1", "n", "seed", "runtime_ms"], rows)


# What each mode reads: its handler, and the config keys it reads, a `*`
# marking the required ones. parse_config rejects a key that a document gives
# and its mode does not read. A row that reads model.alpha, kernels.name,
# init.n or roots.A has its ModelParams, kernel spec, sampled datum or speed
# balances checked at parse time.
_MODEL = "model.alpha* model.beta*"
_SAMPLING = "init.n init.dim init.L0 init.distribution init.r0 init.R0 init.seed"
_STEPPING = ("kernels.name kernels.params integrator.dt integrator.stride "
             "integrator.scheme integrator.diffusion")
_SIMULATE = f"{_MODEL} {_SAMPLING} {_STEPPING} integrator.T output.directory output.formats"

MODES = {
    "simulate-eps": (_mode_simulate, f"{_SIMULATE} model.eps*"),
    "simulate-limit": (_mode_simulate, _SIMULATE),
    "compare": (_mode_compare, "compare.file_a* compare.file_b* output.directory"),
    "sweep": (_mode_sweep,
              f"{_MODEL} {_SAMPLING} {_STEPPING} sweep.eps_list* sweep.t_grid* output.directory"),
    "roots": (_mode_roots, f"{_MODEL} roots.A* roots.eps_list* output.directory"),
    "flow": (_mode_flow, f"{_MODEL} flow.v0_list* flow.s_list* output.directory"),
    "project": (_mode_project,
                f"{_MODEL} {_SAMPLING} init.input output.directory output.formats"),
}


def run(cfg: RunConfig, output_dir: str | None = None,
        seed: int | None = None) -> RunManifest:
    """Dispatch a validated config and write outputs plus a manifest."""
    seed = int(seed if seed is not None else cfg.init.get("seed", 0))
    if not noise.is_seed(seed):
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed}")
    outdir = Path(output_dir or cfg.output.get("directory", "out"))
    formats = list(cfg.output.get("formats", ["csv"]))
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    files: list = []
    for name, text in MODES[cfg.mode][0](cfg, seed, formats):
        if not files:
            outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / name
        path.write_text(text)
        files.append(str(path))
    finished = time.strftime("%Y-%m-%dT%H:%M:%S")
    digest = config_hash({**cfg.as_dict(), "seed": seed})
    manifest = RunManifest(config_hash=digest, seed=seed, version=__version__,
                           started=started, finished=finished, files=tuple(files))
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").write_text(json.dumps(asdict(manifest), indent=1))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="swarmlab",
                                     description="speed-constrained swarming lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        if mode == "compare":
            p.add_argument("file_a", nargs="?")
            p.add_argument("file_b", nargs="?")
            p.add_argument("--config")
        else:
            p.add_argument("config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    try:
        if args.command == "compare" and args.file_a and args.file_b:
            cfg = RunConfig(mode="compare",
                            compare={"file_a": args.file_a, "file_b": args.file_b})
        else:
            path = args.config
            if path is None:
                raise ValidationError("compare needs two snapshot files or --config")
            cfg = parse_config(Path(path).read_text())
            if cfg.mode != args.command:
                raise ValidationError(
                    f"config mode {cfg.mode!r} does not match subcommand {args.command!r}"
                )
        manifest = run(cfg, output_dir=args.output, seed=args.seed)
    except SwarmError as exc:  # each error type carries its exit code and label
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # e.g. an N x N pair buffer past the machine
        print(f"numeric abort: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    print(f"ok: {len(manifest.files)} files, config {manifest.config_hash[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
