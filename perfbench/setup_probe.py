"""Set-up time of one run, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py <src dir> <config file>
    python3 perfbench/setup_probe.py --imports

The first form prints the seconds spent importing swarmlab, parsing the
config and, for the modes that simulate, building the kernel spec and the
initial ensemble. The second prints the seconds spent importing the
third-party modules swarmlab imported when the benchmark was defined; it
calibrates the first (see calibration.py).
"""

import importlib
import sys
import time

FROZEN_IMPORTS = ("numpy", "scipy.optimize", "scipy.sparse", "scipy.spatial.distance")


def setup(src: str, config_path: str) -> float:
    start = time.perf_counter()
    sys.path.insert(0, src)
    from swarmlab import ModelParams, builtin_kernels, cli

    with open(config_path) as fh:
        cfg = cli.parse_config(fh.read())
    if cfg.mode != "compare":
        params = ModelParams(cfg.model["alpha"], cfg.model["beta"], cfg.model.get("eps", 1.0))
        builtin_kernels(cfg.kernels["name"], cfg.kernels.get("params", {}))
        cli.build_initial_ensemble(cfg.init, params)
    return time.perf_counter() - start


def imports() -> float:
    start = time.perf_counter()
    for name in FROZEN_IMPORTS:
        importlib.import_module(name)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(imports() if sys.argv[1:] == ["--imports"] else setup(*sys.argv[1:3])))
