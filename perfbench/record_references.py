"""Record the reference values that the correctness gate compares against.

    python3 perfbench/record_references.py

Run from the repository root. Runs every call of every workload once for each
seed 0 .. SEEDS-1, checks its invariants, and rewrites
perfbench/references.json with the values each workload names in
`reference_keys`. Re-record only for a change that is meant to alter results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run

SEEDS = 64  # the seeds whose results the correctness gate compares exactly


def main() -> int:
    os.environ.update(run.THREAD_ENV)
    root = Path.cwd()
    if run.bootstrap(root) is None:
        print("record_references: run from the root of a swarmlab checkout", file=sys.stderr)
        return 2
    import workloads
    from swarmlab import cli

    refs = {}
    for name, workload in workloads.WORKLOADS.items():
        refs[name] = {}
        for seed in range(SEEDS):
            work = root / run.WORKDIR / "references" / f"{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            wl = workload(seed, work)
            for label, doc in wl.calls:
                outdir = work / "out" / label
                cli.run(cli.parse_config(json.dumps(doc)), output_dir=str(outdir))
                problems = wl.check(label, outdir, {})
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                observed = wl.observe(label, outdir)
                refs[name].setdefault(str(seed), {})[label] = {
                    key: observed[key] for key in wl.reference_keys}
            shutil.rmtree(work)
            print(f"{name} seed {seed}: {refs[name][str(seed)]}", flush=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
