"""Outside-in tracing of swarmlab's layers.

For a traced pass the tracer replaces public functions at the module attribute
where their caller looks them up (for example `eps_dynamics.acceleration_arrays`)
with a wrapper that records one span per call, and puts the originals back
afterwards. The program is not edited, and untraced passes run it untouched.

A span is (run id, span id, parent span id, name, start, end, attributes). The
first part of its name is the layer, which is one of swarmlab's modules. All
per-layer metrics are derived from the spans of one pass.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "run_id span_id parent name start end attrs")

LAYERS = ("cli", "core", "kernels", "relaxation", "eps_dynamics",
          "sphere_dynamics", "noise", "transport")


def _field_attrs(args, result):
    n, d = args[0].shape
    return {"n": n, "d": d}


def _run_attrs(args, result):
    cfg = args[1]
    return {"n": args[0].n, "steps": int(round(cfg.T / cfg.dt))}


def _w1_attrs(args, rep):
    return {"solver": rep.solver, "iterations": rep.iterations, "residual": rep.residual}


def _text_attrs(args, text):
    return {"bytes": len(text.encode())}


# (module, attribute the caller looks up, span name, attributes of a call)
PROBES = (
    ("eps_dynamics", "acceleration_arrays", "kernels.field", _field_attrs),
    ("sphere_dynamics", "acceleration_arrays", "kernels.field", _field_attrs),
    ("eps_dynamics", "interaction_energy", "kernels.energy", None),
    ("eps_dynamics", "free_flow", "relaxation.free_flow", None),
    ("noise", "gaussian_increments", "noise.draw", None),
    ("eps_dynamics", "moments", "core.moments", None),
    ("sphere_dynamics", "moments", "core.moments", None),
    ("cli", "simulate", "eps_dynamics.simulate", _run_attrs),
    ("transport", "simulate", "eps_dynamics.simulate", _run_attrs),
    ("cli", "simulate_limit", "sphere_dynamics.simulate_limit", _run_attrs),
    ("transport", "simulate_limit", "sphere_dynamics.simulate_limit", _run_attrs),
    ("cli", "spherical_coords_3d", "sphere_dynamics.chart", None),
    ("cli", "convergence_study", "transport.convergence_study", None),
    ("cli", "w1_exact", "transport.w1", _w1_attrs),
    ("transport", "w1_exact", "transport.w1", _w1_attrs),
    ("cli", "project_measure", "core.project", None),
    ("transport", "project_measure", "core.project", None),
    ("cli", "ensemble_to_csv", "core.serialize", _text_attrs),
    ("cli", "ensemble_to_json", "core.serialize", _text_attrs),
    ("cli", "ensemble_from_csv", "core.parse", None),
    ("cli", "ensemble_from_json", "core.parse", None),
)

# (name, unit, better); every one is reported by a traced run of any workload
PER_LAYER = (
    ("kernels.field_calls", "count", "lower"),
    ("kernels.field_s", "s", "lower"),
    ("kernels.pair_evals", "count", "lower"),
    ("kernels.field_bytes_computed", "B", "lower"),
    ("kernels.energy_calls", "count", "lower"),
    ("kernels.energy_s", "s", "lower"),
    ("relaxation.free_flow_calls", "count", "lower"),
    ("relaxation.free_flow_s", "s", "lower"),
    ("eps_dynamics.steps", "count", "lower"),
    ("eps_dynamics.self_s", "s", "lower"),
    ("sphere_dynamics.steps", "count", "lower"),
    ("sphere_dynamics.self_s", "s", "lower"),
    ("sphere_dynamics.chart_calls", "count", "lower"),
    ("sphere_dynamics.chart_s", "s", "lower"),
    ("noise.draw_calls", "count", "lower"),
    ("noise.draw_s", "s", "lower"),
    ("transport.w1_solves", "count", "lower"),
    ("transport.w1_assignment_s", "s", "lower"),
    ("transport.w1_lp_s", "s", "lower"),
    ("transport.lp_iterations", "count", "lower"),
    ("transport.w1_residual_max", "mass", "lower"),
    ("core.serialize_s", "s", "lower"),
    ("core.bytes_written", "B", "lower"),
    ("core.parse_s", "s", "lower"),
    ("core.moments_s", "s", "lower"),
    ("cli.run_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
) + tuple((f"share.{layer}", "ratio", "lower") for layer in LAYERS) + (
    ("trace.spans", "count", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records spans in memory; `installed` patches the probes for one pass."""

    def __init__(self):
        self.spans: list = []
        self.missing: set = set()
        self.run_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main: list = []   # open spans of the thread that runs the pass

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        """Push a new span id; a worker thread with nothing open yet takes the
        innermost span of the pass's own thread as its parent."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        sid = next(self._ids)
        stack.append(sid)
        return stack, parent, sid

    @contextmanager
    def span(self, name: str):
        stack, parent, sid = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(self.run_id, sid, parent, name, start, end, None))

    def _wrap(self, name, fn, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, parent, sid = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append(Span(self.run_id, sid, parent, name, start, end,
                                   attrs_of(args, result) if attrs_of else None))
            return result
        return traced

    @contextmanager
    def installed(self, modules: dict, run_id: str):
        """Patch every probe whose attribute exists, run the body, restore."""
        self.run_id = run_id
        self._local.stack = self._main
        patched = []
        try:
            for mod_name, attr, name, attrs_of in PROBES:
                module = modules[mod_name]
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.add(f"{mod_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(name, original, attrs_of))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def write(self, path, t0: float):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run_id": s.run_id, "span_id": s.span_id, "parent": s.parent,
                    "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "attrs": s.attrs}) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
    return {s.span_id: (s.end - s.start) - _covered(
        (max(c.start, s.start), min(c.end, s.end)) for c in kids[s.span_id])
        for s in spans}


def pass_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (every PER_LAYER name except the
    trace.*_wall_s and overhead entries, which need the untraced passes)."""
    own = self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def dur(name):
        return sum(s.end - s.start for s in by[name])

    def self_of(name):
        return sum(own[s.span_id] for s in by[name])

    def attr_sum(name, key, fn=lambda v: v):
        return sum(fn(s.attrs[key]) for s in by[name] if s.attrs and key in s.attrs)

    fields = [s.attrs for s in by["kernels.field"] if s.attrs]
    w1 = [s for s in by["transport.w1"] if s.attrs]
    run_s = dur("cli.run")
    m = {
        "kernels.field_calls": len(by["kernels.field"]),
        "kernels.field_s": dur("kernels.field"),
        "kernels.pair_evals": sum(a["n"] * a["n"] for a in fields),
        "kernels.field_bytes_computed": sum(8 * a["n"] * a["n"] * a["d"] for a in fields),
        "kernels.energy_calls": len(by["kernels.energy"]),
        "kernels.energy_s": dur("kernels.energy"),
        "relaxation.free_flow_calls": len(by["relaxation.free_flow"]),
        "relaxation.free_flow_s": dur("relaxation.free_flow"),
        "eps_dynamics.steps": attr_sum("eps_dynamics.simulate", "steps"),
        "eps_dynamics.self_s": self_of("eps_dynamics.simulate"),
        "sphere_dynamics.steps": attr_sum("sphere_dynamics.simulate_limit", "steps"),
        "sphere_dynamics.self_s": self_of("sphere_dynamics.simulate_limit"),
        "sphere_dynamics.chart_calls": len(by["sphere_dynamics.chart"]),
        "sphere_dynamics.chart_s": dur("sphere_dynamics.chart"),
        "noise.draw_calls": len(by["noise.draw"]),
        "noise.draw_s": dur("noise.draw"),
        "transport.w1_solves": len(by["transport.w1"]),
        "transport.w1_assignment_s": sum(s.end - s.start for s in w1
                                         if s.attrs["solver"] == "assignment"),
        "transport.w1_lp_s": sum(s.end - s.start for s in w1 if s.attrs["solver"] != "assignment"),
        "transport.lp_iterations": sum(s.attrs["iterations"] for s in w1
                                       if s.attrs["solver"] != "assignment"),
        "transport.w1_residual_max": max((s.attrs["residual"] for s in w1), default=0.0),
        "core.serialize_s": dur("core.serialize"),
        "core.bytes_written": attr_sum("core.serialize", "bytes"),
        "core.parse_s": dur("core.parse"),
        "core.moments_s": dur("core.moments"),
        "cli.run_s": run_s,
        "cli.self_s": self_of("cli.run"),
        "trace.spans": len(spans),
    }
    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.name.split(".")[0]] += own[s.span_id]
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / run_s if run_s > 0 else 0.0
    return m
