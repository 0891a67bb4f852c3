"""swarmlab benchmark: drives `swarmlab.cli.run` in-process on generated inputs.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_align --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

`--trace 0` reports the end-to-end metrics with tracing off. `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics of the
traced ones, plus the tracing overhead. `--workload all` runs every workload
in its own process and prints one table. Every call's output is checked; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full record, with the machine description
and sample counts, goes to .perfbench-work/<workload>-seed<seed>-trace<t>/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# Pinned before numpy loads: one BLAS thread per process and the two W1
# workers SWARM_THREADS gives convergence_study, so at most two threads
# compute, one per CPU of a 2-CPU machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "SWARM_THREADS": "2"}
SETUP_PROBES = 5
WORKDIR = ".perfbench-work"
HERE = Path(__file__).resolve().parent


def bootstrap(root: Path):
    """Import the checkout's own swarmlab; None if it has none."""
    src = root / "src"
    if not (src / "swarmlab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import swarmlab
    if not Path(swarmlab.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return swarmlab


def _run_call(cli, cfg, outdir: Path, tracer) -> tuple:
    """One timed `cli.run`; (ok, seconds). A raise counts as a failed call."""
    start = time.perf_counter()
    try:
        with tracer.span("cli.run") if tracer else nullcontext():
            cli.run(cfg, output_dir=str(outdir))
    except Exception:  # noqa: BLE001 - every failure is counted, never fatal
        traceback.print_exc()
        return False, time.perf_counter() - start
    return True, time.perf_counter() - start


def _probe(*args: str) -> float:
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _setup_times(root: Path, config_path: Path) -> list:
    """(reference seconds, raw seconds) of each fresh-interpreter set-up, each
    bracketed by fresh-interpreter import calibrations."""
    import calibration
    out = []
    before = _probe("--imports")
    for _ in range(SETUP_PROBES):
        raw = _probe(str(root / "src"), str(config_path))
        after = _probe("--imports")
        out.append((calibration.to_reference(raw, calibration.IMPORTS_REFERENCE_S,
                                             before, after), raw))
        before = after
    return out


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> int:
    import calibration
    import machine
    import tracing
    import workloads
    from swarmlab import cli

    work = root / WORKDIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](seed, work)
    refs = workloads.load_references()
    configs = []
    for label, doc in wl.calls:
        path = work / f"{label}.config.json"
        path.write_text(json.dumps(doc, indent=1))
        configs.append((label, path, cli.parse_config(path.read_text())))
    setup = [] if trace else _setup_times(root, configs[0][1])
    cal = calibration.Calibration(name)

    modules = {m: sys.modules[f"swarmlab.{m}"] for m in tracing.LAYERS}
    tracer = tracing.Tracer() if trace else None
    walls = {False: [], True: []}      # reference seconds, see calibration.py
    raw_walls = {False: [], True: []}  # seconds as measured
    calibrations = []                  # kernel seconds before and after each pass
    layer_rows = []
    first_digests: dict = {}
    problems: list = []
    attempted = failed = 0
    # pass 0 warms lazy imports and caches and is checked but not timed;
    # in a traced run the timed passes alternate untraced and traced
    min_passes = 5 if trace else 4
    t0 = time.perf_counter()
    last = 0.0
    k = 0
    while k < min_passes or time.perf_counter() - t0 + last <= seconds:
        p0 = time.perf_counter()
        traced = trace and k % 2 == 0 and k > 0
        for label, _, _ in configs:
            shutil.rmtree(work / "out" / label, ignore_errors=True)
        n_spans = len(tracer.spans) if tracer else 0
        wall, ok = 0.0, {}
        with tracer.installed(modules, f"{name}:{seed}:pass{k}") if traced else nullcontext():
            for label, _, cfg in configs:
                ok[label], dt = _run_call(cli, cfg, work / "out" / label,
                                          tracer if traced else None)
                wall += dt
        if k == 0:
            # the program's own peak, read before any calibration kernel runs:
            # the kernels allocate blocks as large as the field's own
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            warmup = wall
            before = cal.sample()
        else:
            after = cal.sample()
            scale = cal.to_reference(1.0, before, after)
            calibrations.append((before, after))
            before = after
            walls[traced].append(wall * scale)
            raw_walls[traced].append(wall)
        for label, _, _ in configs:
            outdir = work / "out" / label
            attempted += 1
            faults = [f"{label}: cli.run raised"] if not ok[label] else \
                wl.check(label, outdir, refs)
            if ok[label]:
                digests = workloads.output_digests(outdir)
                if first_digests.setdefault(label, digests) != digests:
                    changed = sorted(f for f in set(digests) | set(first_digests[label])
                                     if digests.get(f) != first_digests[label].get(f))
                    faults.append(f"{label}: output differs from the first pass in {changed[:5]}")
            if faults:
                failed += 1
                problems.extend(f"pass {k}: {p}" for p in faults)
                print("\n".join(f"FAILED pass {k}: {p}" for p in faults), file=sys.stderr)
        if traced:
            layer_rows.append({m: v * scale if m.endswith("_s") else v for m, v in
                               tracing.pass_metrics(tracer.spans[n_spans:]).items()})
        last = time.perf_counter() - p0
        k += 1

    untraced = statistics.median(walls[False])
    if trace:
        traced_wall = statistics.median(walls[True])
        found = {m: (statistics.median(r[m] for r in layer_rows), len(layer_rows))
                 for m in layer_rows[0]}
        found["trace.untraced_wall_s"] = (untraced, len(walls[False]))
        found["trace.traced_wall_s"] = (traced_wall, len(walls[True]))
        found["trace.overhead_s"] = (traced_wall - untraced, len(walls[True]))
        metrics = {m: (found[m][0], unit, found[m][1]) for m, unit, _ in tracing.PER_LAYER}
        tracer.write(work / "spans.jsonl", t0)
    else:
        metrics = {
            "setup_s": (statistics.median(ref for ref, _ in setup), "s", len(setup)),
            "wall_s": (untraced, "s", len(walls[False])),
            "particle_steps_per_s": (wl.particle_steps / untraced, "1/s", len(walls[False])),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
        }
    shutil.rmtree(work / "out", ignore_errors=True)
    shutil.rmtree(work / "inputs", ignore_errors=True)

    correct = failed == 0 and attempted > 0
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": k, "warmup_wall_raw_s": warmup, "pass_walls_s": walls,
        "pass_walls_raw_s": raw_walls, "calibrations_s": calibrations,
        "setup_s_ref_raw": setup, "calibration_reference_s": cal.reference_s,
        "raw_wall_s": statistics.median(raw_walls[False]), "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "correct": correct, "problems": problems,
        "reference_checked": str(seed) in refs.get(name, {}),
        "particle_steps_per_pass": wl.particle_steps,
        "missing_probes": sorted(tracer.missing) if tracer else [],
        "metrics": {m: {"value": v, "unit": u, "samples": n} for m, (v, u, n) in metrics.items()},
        "machine": machine.describe(root, THREAD_ENV),
    }
    (work / "result.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"perfbench {name} seed={seed} trace={int(trace)}: {k} passes, "
          f"error_rate {failed / attempted:.4g} ({failed}/{attempted} calls failed), "
          f"reference {'checked' if record['reference_checked'] else 'not recorded for this seed'}")
    for m, (v, u, n) in metrics.items():
        print(f"  {m:32s} {v:14.6g} {u:6s} (n={n})")
    print(f"  times are reference seconds (calibration.py); as measured, the median pass took "
          f"{record['raw_wall_s']:.6g} s" + (f" and set-up {statistics.median(r for _, r in setup):.6g} s"
                                               if setup else ""))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()}}))
    return 0


def run_all(root: Path, seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one table of all metrics."""
    import workloads
    rows, summary = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((root / WORKDIR / f"{name}-seed{seed}-trace{int(trace)}"
                             / "result.json").read_text())
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for m, v in record["metrics"].items():
            rows.append((name, m, v["value"], v["unit"], v["samples"]))
            summary["metrics"][f"{name}.{m}"] = {"value": v["value"], "unit": v["unit"]}
        rows.append((name, "error_rate", record["error_rate"], "ratio", record["attempted"]))
    for name, m, v, u, n in rows:
        print(f"{name:16s} {m:32s} {v:14.6g} {u:6s} (n={n})")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    os.environ.update(THREAD_ENV)
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if bootstrap(root) is None:
        print("perfbench: run from the root of a swarmlab checkout (no src/swarmlab here)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(root, args.seed, args.seconds, bool(args.trace))
    return run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
