import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import KDTree

import swarmlab
from swarmlab.cli import (
    MODES,
    RunConfig,
    _w1_report_json,
    build_initial_ensemble,
    main,
    parse_config,
    run,
)
from swarmlab.core import (
    ModelParams,
    PhaseEnsemble,
    ensemble_from_csv,
    load_snapshot,
)
from swarmlab.errors import ConfigError, NumericAbort, ParseError, SwarmError, ValidationError
from swarmlab.sphere_dynamics import MAX_TURN
from swarmlab.transport import w1_exact

from conftest import snapshot_text

CONFIGS = Path(__file__).parent.parent / "configs"
MINIMAL_EPS = {
    "mode": "simulate-eps",
    "model": {"alpha": 1.0, "beta": 1.0, "eps": 0.05},
    "kernels": {"name": "cucker_smale_weight", "params": {"K": 1.0, "gamma": 1.0}},
    "init": {"n": 16, "dim": 2, "L0": 1.0, "distribution": "on_sphere", "seed": 3},
    "integrator": {"T": 0.02, "dt": 1e-3, "stride": 10},
}


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(json.dumps({
            "mode": "simulate-eps",
            "model": {"alpha": 1.0, "beta": 1.0, "eps": 0.05},
            "init": {"n": 256, "dim": 2, "distribution": "on_sphere"},
        }))
        assert cfg.integrator["dt"] == 1e-3
        assert cfg.integrator["stride"] == 100
        assert cfg.integrator["scheme"] == "strang"

    def test_explicit_strang_parses(self):
        doc = {**MINIMAL_EPS, "integrator": {**MINIMAL_EPS["integrator"], "scheme": "strang"}}
        assert parse_config(json.dumps(doc)).integrator["scheme"] == "strang"

    @pytest.mark.parametrize("scheme", ["lie", "verlet"])
    def test_other_schemes_rejected(self, scheme, tmp_path):
        doc = {**MINIMAL_EPS, "integrator": {**MINIMAL_EPS["integrator"], "scheme": scheme}}
        with pytest.raises(ValidationError, match="scheme"):
            parse_config(json.dumps(doc))
        path = tmp_path / "eps.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate-eps", str(path), "--output", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                             ids=lambda p: p.name)
    def test_shipped_configs_parse(self, path):
        assert parse_config(path.read_text()).mode == json.loads(path.read_text())["mode"]

    def test_band_ordering_validated(self):
        doc = {
            "mode": "simulate-eps",
            "model": {"alpha": 1.0, "beta": 1.0, "eps": 0.05},
            "init": {"n": 8, "distribution": "uniform_annulus",
                     "r0": 1.5, "R0": 2.0},
        }
        with pytest.raises(ValidationError, match="r0 < r"):
            parse_config(json.dumps(doc))

    def test_parse_error_on_bad_json(self):
        with pytest.raises(ParseError):
            parse_config("{not json")

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError):
            parse_config(json.dumps({"mode": "roots", "extra": {}}))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            parse_config(json.dumps({"mode": "simulate"}))

    @pytest.mark.parametrize("section,key,value", [
        ("init", "n", "many"),
        ("init", "seed", -1),
        ("integrator", "stride", "x"),
        ("model", "alpha", "1"),
        ("output", "formats", "json"),
        ("output", "formats", ["csv", "xml"]),
        ("kernels", "params", {"K": "1"}),
        ("kernels", "name", 3),
        ("integrator", "difusion", True),   # unknown keys, misspelled or not
        ("init", "N", 16),
        ("model", "gamma", 1.0),
    ])
    def test_malformed_values_are_config_errors(self, section, key, value, tmp_path):
        doc = {**MINIMAL_EPS, section: {**MINIMAL_EPS.get(section, {}), key: value}}
        with pytest.raises(ValidationError, match=f"{section}.{key}"):
            parse_config(json.dumps(doc))
        path = tmp_path / "eps.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate-eps", str(path), "--output", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_section_must_be_object(self):
        with pytest.raises(ValidationError, match="objects"):
            parse_config(json.dumps({**MINIMAL_EPS, "model": 5}))

    def test_sweep_t_grid_off_snapshots_exits_before_running(self, tmp_path, monkeypatch):
        import swarmlab.transport as transport

        def no_run(*args, **kwargs):
            raise AssertionError("simulate ran before the t_grid check")

        monkeypatch.setattr(transport, "simulate", no_run)
        doc = {
            "mode": "sweep",
            "model": {"alpha": 1.0, "beta": 1.0},
            "kernels": {"name": "cucker_smale_weight"},
            "init": {"n": 16, "dim": 2, "r0": 0.5, "R0": 1.5, "seed": 7,
                     "distribution": "uniform_annulus"},
            "integrator": {"dt": 1e-3, "stride": 100},
            "sweep": {"eps_list": [0.08, 0.04], "t_grid": [0.0, 0.05, 0.2]},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", str(path), "--output", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["simulate-eps", "simulate-limit", "sweep"])
    def test_init_input_outside_project_is_config_error(self, mode, tmp_path):
        # only project reads init.input; elsewhere it would be silently ignored
        source = build_initial_ensemble({"n": 64, "distribution": "on_sphere"},
                                        ModelParams(1.0, 1.0, 0.05))
        snap = tmp_path / "snap.json"
        snap.write_text(snapshot_text(source))
        doc = {**MINIMAL_EPS, "mode": mode,
               "init": {**MINIMAL_EPS["init"], "n": 8, "input": str(snap)}}
        if mode == "sweep":
            doc["sweep"] = {"eps_list": [0.08, 0.04], "t_grid": [0.0, 0.02]}
        with pytest.raises(ValidationError, match="init.input"):
            parse_config(json.dumps(doc))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([mode, str(path), "--output", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_sweep_round_trip(self):
        doc = {
            "mode": "sweep",
            "model": {"alpha": 1.0, "beta": 1.0},
            "kernels": {"name": "cucker_smale_weight"},
            "init": {"n": 32, "dim": 2, "r0": 0.5, "R0": 1.5, "seed": 7,
                     "distribution": "uniform_annulus"},
            "sweep": {"eps_list": [0.08, 0.04, 0.02], "t_grid": [0.0, 0.5]},
        }
        cfg = parse_config(json.dumps(doc))
        again = parse_config(json.dumps(cfg.as_dict()))
        assert again == cfg


ALPHA_BETA = {"alpha": 1.0, "beta": 1.0}
SAMPLED = {"n": 8, "r0": 0.5, "R0": 1.5}
# each mode's required keys, plus the band a sampled datum needs by default
MODE_MINIMA = {
    "simulate-eps": {"model": {**ALPHA_BETA, "eps": 0.05}, "init": SAMPLED},
    "simulate-limit": {"model": ALPHA_BETA, "init": SAMPLED},
    "compare": {"compare": {"file_a": "a.json", "file_b": "b.json"}},
    "sweep": {"model": ALPHA_BETA, "init": SAMPLED,
              "sweep": {"eps_list": [0.08], "t_grid": [0.0]}},
    "roots": {"model": ALPHA_BETA, "roots": {"A": -1.0, "eps_list": [0.01]}},
    "flow": {"model": ALPHA_BETA, "flow": {"v0_list": [0.5], "s_list": [1.0]}},
    "project": {"model": ALPHA_BETA, "init": SAMPLED},
}
KEY_SAMPLES = {
    "model.alpha": 1.5, "model.beta": 0.8, "model.eps": 0.1,
    "kernels.name": "constant_weight", "kernels.params": {},
    "init.n": 4, "init.dim": 3, "init.L0": 2.0, "init.distribution": "two_clusters",
    "init.r0": 0.25, "init.R0": 2.0, "init.seed": 5, "init.input": "snap.json",
    "integrator.dt": 0.01, "integrator.stride": 2, "integrator.scheme": "strang",
    "integrator.diffusion": False, "integrator.T": 0.5,
    "sweep.eps_list": [0.08, 0.04], "sweep.t_grid": [0.0, 0.1],
    "roots.A": 1.0, "roots.eps_list": [0.1], "flow.v0_list": [0.0, 2.0],
    "flow.s_list": [-0.1], "compare.file_a": "c.json", "compare.file_b": "d.json",
    "output.directory": "out", "output.formats": ["json"],
}


class TestModeTable:
    @pytest.mark.parametrize("mode,name", [
        (mode, name.rstrip("*")) for mode, (_, row) in MODES.items() for name in row.split()])
    def test_every_key_of_a_row_parses_in_its_mode(self, mode, name):
        doc = json.loads(json.dumps({"mode": mode, **MODE_MINIMA[mode]}))
        section, key = name.split(".")
        if name == "init.input":  # a datum read from a file takes no sampling key
            doc["init"] = {}
        doc.setdefault(section, {})[key] = KEY_SAMPLES[name]
        assert getattr(parse_config(json.dumps(doc)), section)[key] == KEY_SAMPLES[name]

    @pytest.mark.parametrize("mode,extra,unread", [
        ("sweep", {"integrator": {"T": 1.0}}, "integrator.T"),
        ("sweep", {"model": {**ALPHA_BETA, "eps": 0.05}}, "model.eps"),
        ("sweep", {"output": {"formats": ["json"]}}, "output.formats"),
        ("simulate-limit", {"model": {**ALPHA_BETA, "eps": 0.05}}, "model.eps"),
        ("project", {"kernels": {"name": "cucker_smale_weight"}}, "kernels.name"),
        ("roots", {"init": {"n": 8}}, "init.n"),
        ("compare", {"init": {"seed": 3}}, "init.seed"),
        ("simulate-eps", {"init": {"n": 8, "distribution": "on_sphere", "r0": 0.5}},
         "init.r0"),
        ("project", {"init": {"input": "snap.json", "n": 8}}, "init.n"),
    ])
    def test_key_its_mode_does_not_read_is_config_error(self, mode, extra, unread,
                                                         tmp_path, capsys):
        doc = {"mode": mode, **MODE_MINIMA[mode], **extra}
        with pytest.raises(ValidationError, match=rf"does not read config keys \['{unread}'\]"):
            parse_config(json.dumps(doc))
        assert _main_in(tmp_path, doc) == (2, False)
        assert unread in capsys.readouterr().err


class TestInitialEnsembles:
    @pytest.mark.parametrize("init,message", [
        ({"n": 4, "distribution": "typo", "r0": 0.5, "R0": 1.5}, "init.distribution"),
        ({"n": 4, "r0": 2.0, "R0": 3.0}, "r0 < r"),
        ({"n": 4, "R0": 1.5}, "init.r0 and init.R0"),
        ({"distribution": "on_sphere"}, "init.n"),
        ({"n": 4, "distribution": "on_sphere", "R0": 1.5}, "init.R0"),
    ], ids=["typo", "r0-past-r", "no-r0", "no-n", "sphere-band"])
    def test_builder_holds_the_datum_to_the_config_rules(self, init, message):
        with pytest.raises(ValidationError, match=message):
            build_initial_ensemble(init, ModelParams(1.0, 1.0, 0.1))

    def test_on_sphere_exact_speeds(self):
        p = ModelParams(4.0, 1.0, 0.1)
        ens = build_initial_ensemble(
            {"n": 50, "dim": 3, "L0": 2.0, "distribution": "on_sphere", "seed": 1}, p)
        assert np.allclose(ens.speeds(), 2.0, rtol=1e-15)
        assert np.max(np.linalg.norm(ens.x, axis=1)) <= 2.0

    def test_annulus_speed_band(self):
        p = ModelParams(1.0, 1.0, 0.1)
        ens = build_initial_ensemble(
            {"n": 50, "dim": 2, "L0": 1.0, "r0": 0.5, "R0": 1.5,
             "distribution": "uniform_annulus", "seed": 2}, p)
        sp = ens.speeds()
        assert np.all(sp >= 0.5) and np.all(sp <= 1.5)

    def test_two_clusters_split(self):
        p = ModelParams(1.0, 1.0, 0.1)
        ens = build_initial_ensemble(
            {"n": 40, "dim": 2, "L0": 2.0, "r0": 0.5, "R0": 1.5,
             "distribution": "two_clusters", "seed": 3}, p)
        assert np.all(ens.x[:20, 0] < 0)
        assert np.all(ens.x[20:, 0] > 0)

    def test_deterministic_in_seed(self):
        p = ModelParams(1.0, 1.0, 0.1)
        spec = {"n": 8, "dim": 2, "L0": 1.0, "distribution": "on_sphere", "seed": 9}
        a = build_initial_ensemble(spec, p)
        b = build_initial_ensemble(spec, p)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)


class TestRun:
    def test_simulate_eps_outputs(self, tmp_path):
        cfg = parse_config(json.dumps(MINIMAL_EPS))
        manifest = run(cfg, output_dir=str(tmp_path / "o"))
        names = [Path(f).name for f in manifest.files]
        assert "snap_eps_00000.csv" in names
        assert "moments.csv" in names
        assert (tmp_path / "o" / "manifest.json").exists()
        moments = (tmp_path / "o" / "moments.csv").read_text().splitlines()
        assert moments[0].startswith("t,mass,momentum_1,momentum_2,kinetic")
        assert len(moments) == 1 + 3  # t=0 plus snapshots at steps 10 and 20
        width = len(moments[0].split(","))
        assert all(len(row.split(",")) == width for row in moments[1:])

    def test_simulate_limit_has_angles_in_3d(self, tmp_path):
        doc = {
            "mode": "simulate-limit",
            "model": {"alpha": 1.0, "beta": 1.0},
            "kernels": {"name": "constant_weight", "params": {"K": 1.0}},
            "init": {"n": 8, "dim": 3, "L0": 1.0, "distribution": "on_sphere",
                     "seed": 4},
            "integrator": {"T": 0.01, "dt": 1e-2, "stride": 1},
        }
        manifest = run(parse_config(json.dumps(doc)), output_dir=str(tmp_path))
        csv = (tmp_path / "snap_limit_00000.csv").read_text()
        assert csv.splitlines()[0].endswith("w,theta,phi")
        back = ensemble_from_csv(csv, r=1.0)
        assert back.n == 8

    def test_limit_json_snapshots_are_encoder_bytes(self, tmp_path):
        doc = {
            "mode": "simulate-limit",
            "model": {"alpha": 1.0, "beta": 1.0},
            "kernels": {"name": "gaussian_attraction_repulsion",
                        "params": {"C_A": 0.5, "l_A": 1.0, "C_R": 0.3, "l_R": 0.5}},
            "init": {"n": 12, "dim": 3, "L0": 1.0, "distribution": "on_sphere", "seed": 5},
            "integrator": {"T": 0.05, "dt": 1e-2, "stride": 1, "diffusion": True},
            "output": {"formats": ["json"]},
        }
        run(parse_config(json.dumps(doc)), output_dir=str(tmp_path))
        snaps = sorted(tmp_path.glob("snap_limit_*.json"))
        assert len(snaps) == 6
        for path in snaps:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=1)

    def test_roots_table(self, tmp_path):
        doc = {
            "mode": "roots",
            "model": {"alpha": 1.0, "beta": 1.0},
            "roots": {"A": -1.0, "eps_list": [0.01, 0.001]},
        }
        run(parse_config(json.dumps(doc)), output_dir=str(tmp_path))
        lines = (tmp_path / "roots.csv").read_text().splitlines()
        assert lines[0] == "eps,A,rho1,rho2,rho3,ratio1,ratio2,ratio3,lim1,lim2,lim3"
        cells = lines[2].split(",")
        assert float(cells[0]) == 0.001
        assert float(cells[2]) == pytest.approx(0.001000001, rel=1e-6)
        assert cells[4] == ""  # no rho3 for negative forcing

    def test_flow_table(self, tmp_path):
        doc = {
            "mode": "flow",
            "model": {"alpha": 1.0, "beta": 1.0},
            "flow": {"v0_list": [0.5], "s_list": [3.0]},
        }
        run(parse_config(json.dumps(doc)), output_dir=str(tmp_path))
        lines = (tmp_path / "flow.csv").read_text().splitlines()
        assert float(lines[1].split(",")[2]) == pytest.approx(0.99630248, rel=1e-7)

    def test_project_round_trip(self, tmp_path):
        doc = {
            "mode": "project",
            "model": {"alpha": 1.0, "beta": 1.0},
            "init": {"n": 12, "dim": 2, "L0": 1.0, "r0": 0.5, "R0": 1.5,
                     "distribution": "uniform_annulus", "seed": 5},
            "output": {"formats": ["csv", "json"]},
        }
        run(parse_config(json.dumps(doc)), output_dir=str(tmp_path))
        projected = load_snapshot(str(tmp_path / "projected.json"))
        assert np.allclose(projected.speeds(), 1.0, rtol=1e-12)

    def test_compare_mode(self, tmp_path):
        doc = {
            "mode": "project",
            "model": {"alpha": 1.0, "beta": 1.0},
            "init": {"n": 6, "dim": 2, "L0": 1.0, "r0": 0.5, "R0": 1.5,
                     "distribution": "uniform_annulus", "seed": 6},
            "output": {"formats": ["json"]},
        }
        run(parse_config(json.dumps(doc)), output_dir=str(tmp_path / "p"))
        rc = main(["compare", str(tmp_path / "p" / "source.json"),
                   str(tmp_path / "p" / "projected.json"),
                   "--output", str(tmp_path / "c")])
        assert rc == 0
        rep = json.loads((tmp_path / "c" / "w1_report.json").read_text())
        assert rep["value"] > 0
        assert rep["solver"] == "assignment"

    @pytest.mark.parametrize("weights_a,m,solver", [
        (None, 6, "assignment"),                  # 4 vs 6: masses 1/12
        (None, 4, "assignment"),                  # a self pair: value 0.0
        ([0.5, 0.3, 0.15, 0.05], 7, "lp"),        # HiGHS masses
    ])
    def test_w1_report_is_the_encoder_bytes(self, weights_a, m, solver):
        a = PhaseEnsemble(x=[[0.1, 0.2], [0.3, -0.4], [-1.0, 0.5], [0.7, 0.7]],
                          v=[[1.0, 0.0], [0.0, 1.5], [-0.5, 0.5], [0.3, -0.9]],
                          w=weights_a or [0.25] * 4)
        rng = np.random.default_rng(m)
        b = a if m == 4 else PhaseEnsemble(x=rng.normal(size=(m, 2)), v=rng.normal(size=(m, 2)),
                                           w=np.full(m, 1.0 / m))
        rep = w1_exact(a, b)
        assert rep.solver == solver
        assert any(mass * 2**20 % 1 for _, _, mass in rep.plan) == (m != 4)  # not dyadic
        assert _w1_report_json(rep) == json.dumps(vars(rep), indent=1)

    def test_project_from_limit_snapshot(self, tmp_path):
        limit = {
            "mode": "simulate-limit",
            "model": {"alpha": 4.0, "beta": 1.0},
            "kernels": {"name": "constant_weight", "params": {"K": 1.0}},
            "init": {"n": 8, "dim": 3, "L0": 1.0, "distribution": "on_sphere", "seed": 4},
            "integrator": {"T": 0.02, "dt": 1e-2, "stride": 1, "diffusion": True},
            "output": {"formats": ["json"]},
        }
        run(parse_config(json.dumps(limit)), output_dir=str(tmp_path / "lim"))
        snap = tmp_path / "lim" / "snap_limit_00002.json"
        cfg = tmp_path / "project.json"
        cfg.write_text(json.dumps({
            "mode": "project", "model": {"alpha": 4.0, "beta": 1.0},
            "init": {"input": str(snap)}, "output": {"formats": ["csv", "json"]}}))
        assert main(["project", str(cfg), "--output", str(tmp_path / "p")]) == 0
        source = load_snapshot(str(snap))
        projected = load_snapshot(str(tmp_path / "p" / "projected.json"))
        assert projected.r == 2.0
        assert np.array_equal(projected.x, source.x)
        assert np.max(np.abs(projected.speeds() - 2.0)) <= 1e-12

    def test_negative_seed_flag_is_config_error(self, tmp_path):
        path = tmp_path / "eps.json"
        path.write_text(json.dumps(MINIMAL_EPS))
        out = tmp_path / "out"
        assert main(["simulate-eps", str(path), "--seed", "-3", "--output", str(out)]) == 2
        assert not out.exists()

    def test_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["roots", str(bad)]) == 2
        good = tmp_path / "roots.json"
        good.write_text(json.dumps({
            "mode": "roots", "model": {"alpha": 1.0, "beta": 1.0},
            "roots": {"A": -1.0, "eps_list": [0.01]}}))
        assert main(["flow", str(good)]) == 2  # subcommand/mode mismatch
        assert main(["roots", str(good), "--output", str(tmp_path / "r")]) == 0

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        cfg = parse_config(json.dumps(MINIMAL_EPS))
        monkeypatch.setenv("SWARM_THREADS", "1")
        run(cfg, output_dir=str(tmp_path / "a"), seed=42)
        monkeypatch.setenv("SWARM_THREADS", "4")
        run(cfg, output_dir=str(tmp_path / "b"), seed=42)
        files_a = sorted(p for p in (tmp_path / "a").iterdir()
                         if p.name != "manifest.json")
        files_b = sorted(p for p in (tmp_path / "b").iterdir()
                         if p.name != "manifest.json")
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_byte_identical_across_blas_threads(self, tmp_path):
        # the pair products are BLAS calls on fixed row blocks. A whole-matrix
        # (N, 3) product changed bytes between 1 and 2 OpenBLAS threads for
        # most N from 578 to 699 (OpenBLAS 0.3.31), N = 600 among them. The
        # sweep's W1 values absorb last-bit differences; the limit run's
        # snapshots do not. At SWARM_THREADS=2 two study lanes call OpenBLAS.
        def outputs(mode, doc, blas, lanes):
            cfg_path = tmp_path / f"{mode}.json"
            cfg_path.write_text(json.dumps(doc))
            out = tmp_path / f"{mode}-blas{blas}-lanes{lanes}"
            env = _fresh_env(OPENBLAS_NUM_THREADS=blas, SWARM_THREADS=lanes)
            subprocess.run([sys.executable, "-m", "swarmlab.cli", mode, str(cfg_path),
                            "--output", str(out)], env=env, check=True,
                           capture_output=True)
            blobs = {}
            for p in sorted(out.iterdir()):
                if p.name == "manifest.json":   # timestamps and output paths
                    continue
                data = p.read_bytes()
                if p.name == "sweep.csv":
                    data = _without_runtime(data.decode()).encode()
                blobs[p.name] = data
            return blobs

        sweep = {
            "mode": "sweep",
            "model": {"alpha": 1.0, "beta": 1.0},
            "kernels": {"name": "cucker_smale_weight", "params": {"K": 1.0, "gamma": 1.0}},
            "init": {"n": 600, "dim": 3, "L0": 1.0, "r0": 0.5, "R0": 1.5,
                     "distribution": "uniform_annulus", "seed": 21},
            "integrator": {"dt": 5e-3, "stride": 5},
            "sweep": {"eps_list": [0.08, 0.04], "t_grid": [0.0, 0.05]},
        }
        runs = [outputs("sweep", sweep, blas, lanes)
                for blas, lanes in (("1", "1"), ("2", "1"), ("2", "2"))]
        assert "sweep.csv" in runs[0]
        assert runs[0] == runs[1] == runs[2]

        limit = json.loads((CONFIGS / "limit.json").read_text())
        limit["init"].update(n=600, dim=3, seed=7)
        limit["integrator"].update(T=0.1, stride=20)
        one, two = (outputs("simulate-limit", limit, blas, "1") for blas in ("1", "2"))
        assert len(one) > 2 and one.keys() == two.keys()
        assert [name for name in one if one[name] != two[name]] == []

    def test_manifest_lists_all_files_and_hash_recomputes(self, tmp_path):
        cfg = parse_config(json.dumps(MINIMAL_EPS))
        manifest = run(cfg, output_dir=str(tmp_path), seed=1)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        emitted = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
        assert {Path(f).name for f in doc["files"]} == emitted
        from swarmlab.core import config_hash
        assert doc["config_hash"] == config_hash({**cfg.as_dict(), "seed": 1})


LIMIT_3D_BOTH = {
    "mode": "simulate-limit",
    "model": {"alpha": 1.0, "beta": 1.0},
    "kernels": {"name": "constant_weight", "params": {"K": 1.0}},
    "init": {"n": 8, "dim": 3, "L0": 1.0, "distribution": "on_sphere", "seed": 4},
    "integrator": {"T": 0.03, "dt": 1e-2, "stride": 1, "diffusion": True},
    "output": {"formats": ["csv", "json"]},
}
PROJECT_BOTH = {
    "mode": "project",
    "model": {"alpha": 1.0, "beta": 1.0},
    "init": {"n": 12, "dim": 3, "L0": 1.0, "r0": 0.5, "R0": 1.5,
             "distribution": "uniform_annulus", "seed": 5},
    "output": {"formats": ["csv", "json"]},
}


class TestSnapshotFormatting:
    @pytest.fixture
    def formatted(self, monkeypatch):
        """The ensembles of the repr() passes that core makes."""
        calls = []
        cells = swarmlab.core._cells

        def counted(ens, chart):
            calls.append(ens)
            return cells(ens, chart)

        monkeypatch.setattr("swarmlab.core._cells", counted)
        return calls

    @pytest.mark.parametrize("doc, stems", [
        (LIMIT_3D_BOTH, [f"snap_limit_{k:05d}" for k in range(4)]),
        (PROJECT_BOTH, ["projected", "source"]),
    ], ids=["simulate-limit", "project"])
    def test_one_pass_fills_both_twins(self, doc, stems, tmp_path, formatted):
        run(parse_config(json.dumps(doc)), output_dir=str(tmp_path))
        assert sorted(p.stem for p in tmp_path.glob("*.json") if p.stem != "manifest") == stems
        assert len(formatted) == len(stems)
        for stem in stems:
            twin = load_snapshot(str(tmp_path / f"{stem}.json"))
            table = ensemble_from_csv((tmp_path / f"{stem}.csv").read_text())
            for key in "xvw":
                np.testing.assert_array_equal(getattr(table, key), getattr(twin, key))

    def test_json_only_run_computes_no_chart(self, tmp_path, formatted, monkeypatch):
        def no_chart(*args):
            raise AssertionError("a JSON-only run computed chart angles")

        monkeypatch.setattr("swarmlab.core.spherical_coords_3d", no_chart)
        doc = {**LIMIT_3D_BOTH, "output": {"formats": ["json"]}}
        run(parse_config(json.dumps(doc)), output_dir=str(tmp_path))
        assert len(list(tmp_path.glob("snap_limit_*.json"))) == len(formatted) == 4
        assert not list(tmp_path.glob("snap_limit_*.csv"))

    @pytest.mark.parametrize("doc", [LIMIT_3D_BOTH, PROJECT_BOTH],
                             ids=["simulate-limit", "project"])
    def test_format_order_and_repeats_write_the_same_files(self, doc, tmp_path):
        """Every order and repeat of the same formats writes the same files and
        bytes, listed in the same order: the CSVs of each snapshot_files call
        before its JSONs."""
        written = []
        for formats in (["csv", "json"], ["json", "csv"], ["csv", "json", "csv"]):
            out = tmp_path / "-".join(formats)
            manifest = run(parse_config(json.dumps({**doc, "output": {"formats": formats}})),
                           output_dir=str(out))
            names = [Path(f).name for f in manifest.files]
            written.append((names, [(out / name).read_bytes() for name in names]))
        first, *rest = written
        assert all(files == first for files in rest)
        assert first[0] == (
            ["source.csv", "projected.csv", "source.json", "projected.json"] if doc is PROJECT_BOTH
            else [f"snap_limit_{k:05d}.{fmt}" for k in range(4) for fmt in ("csv", "json")]
            + ["moments.csv"])

    @pytest.mark.parametrize("doc", [LIMIT_3D_BOTH, PROJECT_BOTH],
                             ids=["simulate-limit", "project"])
    def test_no_formats_write_no_snapshot(self, doc, tmp_path, formatted):
        manifest = run(parse_config(json.dumps({**doc, "output": {"formats": []}})),
                       output_dir=str(tmp_path))
        assert [Path(f).name for f in manifest.files] == (
            ["moments.csv"] if doc is LIMIT_3D_BOTH else [])
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["manifest.json", *(Path(f).name for f in manifest.files)])
        assert formatted == []


SWEEP_16 = {
    "mode": "sweep",
    "model": {"alpha": 1.0, "beta": 1.0},
    "kernels": {"name": "cucker_smale_weight"},
    "init": {"n": 16, "dim": 2, "r0": 0.5, "R0": 1.5, "seed": 7,
             "distribution": "uniform_annulus"},
    "integrator": {"dt": 1e-2, "stride": 10},
    "sweep": {"eps_list": [0.08, 0.04], "t_grid": [0.0, 0.1]},
}

GAUSSIAN_NAME = "gaussian_attraction_repulsion"
LIMIT_16 = {
    "mode": "simulate-limit",
    "model": {"alpha": 1.0, "beta": 1.0},
    "init": {"n": 16, "dim": 2, "distribution": "on_sphere", "seed": 3},
    "integrator": {"T": 0.01, "dt": 1e-3, "stride": 10},
}
SAMPLED_EPS = {**MINIMAL_EPS, "init": {**SWEEP_16["init"]}}


def _aligned(mode, gain):
    """LIMIT_16's datum and horizon in `mode`, under Cucker-Smale alignment of
    gain K = `gain`."""
    model = {**LIMIT_16["model"], "eps": 0.05} if mode == "simulate-eps" else LIMIT_16["model"]
    return {**LIMIT_16, "mode": mode, "model": model,
            "kernels": {"name": "cucker_smale_weight", "params": {"K": gain}}}


def _one_particle(**header):
    """A one-particle 2-D snapshot document with the given header."""
    return json.dumps({"header": header, "particles": [
        {"id": 0, "x": [0.0, 0.0], "v": [1.0, 0.0], "w": 1.0}]})


def _main_in(tmp_path, doc, *flags):
    """Exit code of the CLI on `doc`, and whether it made its output directory."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    source = ["--config", str(path)] if doc["mode"] == "compare" else [str(path)]
    return main([doc["mode"], *source, "--output", str(out), *flags]), out.exists()


@pytest.fixture
def no_simulate(monkeypatch):
    import swarmlab.transport as transport

    def no_run(*args, **kwargs):
        raise AssertionError("simulate ran before the sweep's checks")

    monkeypatch.setattr(transport, "simulate", no_run)


class TestFailFast:
    def test_misspelled_kernel_parameter_is_config_error(self, tmp_path):
        doc = {**MINIMAL_EPS, "kernels": {"name": "cucker_smale_weight",
                                          "params": {"K": 1.0, "gama": 5.0}}}
        assert _main_in(tmp_path, doc) == (2, False)

    @pytest.mark.parametrize("name,text", [
        ("bad.json", "{oops"),
        ("no_header.json", json.dumps({"particles": []})),
        ("no_particles.json", json.dumps({"header": {"dim": 2, "time": 0.0}})),
        ("word.csv", "id,x1,x2,v1,v2,w\n0,0.0,0.0,1.0,0.0,one\n"),
        ("ragged.csv", "id,x1,x2,v1,v2,w\n0,0.0,0.0,1.0,0.0\n"),
        ("long.csv", "id,x1,x2,v1,v2,w\n0,0.0,0.0,1.0,0.0,1.0,9\n"),
        ("binary.json", b"\xff\xfe{"),
        ("long_v.json", json.dumps({"header": {"time": 0.0}, "particles": [
            {"x": [0.0, 0.0], "v": [1.0, 0.0, 0.0], "w": 1.0}]})),
        ("empty.csv", ""),
        ("columns.csv", "id,x1,x2,u1,u2,w\n0,0.0,0.0,1.0,0.0,1.0\n"),
        ("mass.csv", "id,x1,x2,v1,v2,w\n0,0.0,0.0,1.0,0.0,0.5\n"),
        ("at_rest.csv", "id,x1,x2,v1,v2,w\n0,0.0,0.0,0.0,0.0,1.0\n"),
        ("r_word.json", _one_particle(dim=2, time=0.0, r="one")),
        ("r_bool.json", _one_particle(dim=2, time=0.0, r=True)),
        ("r_inf.json", _one_particle(dim=2, time=0.0, r=float("inf"))),
        ("time_word.json", _one_particle(dim=2, time="abc")),
        ("time_bool.json", _one_particle(dim=2, time=True)),
        ("time_list.json", _one_particle(dim=2, time=[1])),
        ("time_nan.json", _one_particle(dim=2, time=float("nan"))),
        ("dim_3_on_2d.json", _one_particle(dim=3, time=0.0)),
        ("no_dim.json", _one_particle(time=0.0)),
        ("dim_2_long_v.json", json.dumps({"header": {"dim": 2, "time": 0.0}, "particles": [
            {"x": [0.0, 0.0], "v": [1.0, 0.0, 0.0], "w": 1.0}]})),
        ("w_nan.json", json.dumps({"header": {"dim": 2, "time": 0.0}, "particles": [
            {"x": [0.0, 0.0], "v": [1.0, 0.0], "w": float("nan")},
            {"x": [0.0, 0.0], "v": [1.0, 0.0], "w": 1.0}]})),
    ])
    def test_malformed_snapshot_is_config_error(self, name, text, tmp_path, capsys):
        bad = tmp_path / name
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        good = tmp_path / "good.json"
        good.write_text(snapshot_text(build_initial_ensemble(
            {"n": 4, "distribution": "on_sphere"}, ModelParams(1.0, 1.0, 0.05))))
        out = tmp_path / "out"
        assert main(["compare", str(bad), str(good), "--output", str(out)]) == 2
        assert not out.exists()
        assert str(bad) in capsys.readouterr().err
        with pytest.raises(ParseError):
            load_snapshot(str(bad))

    def test_compare_of_2d_and_3d_snapshots_is_config_error(self, tmp_path, capsys):
        # both files parse; they hold measures on phase spaces of different dimension
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("id,x1,x2,v1,v2,w\n0,0.0,0.0,1.0,0.0,1.0\n")
        b.write_text("id,x1,x2,x3,v1,v2,v3,w\n0,0.0,0.0,0.0,1.0,0.0,0.0,1.0\n")
        out = tmp_path / "out"
        assert main(["compare", str(a), str(b), "--output", str(out)]) == 2
        assert not out.exists()
        assert "config error: phase dimensions differ: 2 vs 3" in capsys.readouterr().err

    def _snapshot_pair(self, tmp_path):
        """Two snapshot files, and the path of a config file beside them."""
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for seed, path in enumerate(paths):
            path.write_text(snapshot_text(build_initial_ensemble(
                {"n": 4, "distribution": "on_sphere", "seed": seed}, ModelParams(1.0, 1.0, 0.05))))
        return [*map(str, paths)], tmp_path / "cfg.json"

    def test_compare_of_two_files_and_a_config_is_config_error(self, tmp_path, capsys):
        # the config would be ignored, whatever its mode
        files, cfg = self._snapshot_pair(tmp_path)
        cfg.write_text(json.dumps(MINIMAL_EPS))
        out = tmp_path / "out"
        assert main(["compare", *files, "--config", str(cfg), "--output", str(out)]) == 2
        assert not out.exists()
        assert "compare takes two snapshot files or --config, not both" in capsys.readouterr().err

    def test_compare_of_one_file_and_a_config_is_config_error(self, tmp_path, capsys):
        # the file would be ignored for the config's two
        files, cfg = self._snapshot_pair(tmp_path)
        cfg.write_text(json.dumps({"mode": "compare",
                                   "compare": {"file_a": files[0], "file_b": files[1]}}))
        out = tmp_path / "out"
        assert main(["compare", files[0], "--config", str(cfg), "--output", str(out)]) == 2
        assert not out.exists()
        assert "compare takes two snapshot files or --config, not both" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [2**64, 36893488147419103232])
    def test_seed_flag_past_uint64_is_config_error(self, flag, tmp_path):
        assert _main_in(tmp_path, MINIMAL_EPS, "--seed", str(flag)) == (2, False)

    def test_config_seed_past_uint64_is_config_error(self, tmp_path):
        doc = {**MINIMAL_EPS, "init": {**MINIMAL_EPS["init"], "seed": 2**64}}
        with pytest.raises(ValidationError, match="init.seed"):
            parse_config(json.dumps(doc))
        assert _main_in(tmp_path, doc) == (2, False)

    @pytest.mark.parametrize("section,key,value", [
        ("flow", "s_list", [10**400]),
        ("model", "alpha", 10**400),
    ])
    def test_number_past_float_range_is_config_error(self, section, key, value, tmp_path,
                                                     capsys):
        doc = json.loads((CONFIGS / "flow.json").read_text())
        doc[section] = {**doc[section], key: value}
        with pytest.raises(ValidationError, match=f"{section}.{key}"):
            parse_config(json.dumps(doc))
        assert _main_in(tmp_path, doc) == (2, False)
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_flow_speed_square_past_float_range_is_config_error(self, tmp_path, capsys):
        # |v0|^2 = 1e400 overflows; the table would hold speed nan
        doc = json.loads((CONFIGS / "flow.json").read_text())
        doc["flow"] = {"v0_list": [1e200], "s_list": [0.0, 1.0]}
        assert _main_in(tmp_path, doc) == (2, False)
        assert "finite |v|^2" in capsys.readouterr().err

    @pytest.mark.parametrize("v0", [1e-170, 5e-324,
                                    math.nextafter(math.sqrt(sys.float_info.min), 0.0)])
    def test_flow_speed_with_subnormal_square_is_config_error(self, v0, tmp_path, capsys):
        # |v0|^2 is subnormal or 0; at s 400 e^(-800) underflows too, and the
        # flow divided by zero: speed inf in flow.csv, with exit 0
        doc = json.loads((CONFIGS / "flow.json").read_text())
        doc["flow"] = {"v0_list": [0.5, v0], "s_list": [1.0, 400.0]}
        with pytest.raises(ValidationError, match="flow.v0_list"):
            parse_config(json.dumps(doc))
        assert _main_in(tmp_path, doc) == (2, False)
        assert "flow.v0_list" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_flow_speed_with_normal_square_runs(self, tmp_path):
        # the least nonzero speed accepted: its square is the least normal float
        doc = json.loads((CONFIGS / "flow.json").read_text())
        doc["flow"] = {"v0_list": [0.0, math.sqrt(sys.float_info.min)], "s_list": [1.0, 400.0]}
        assert _main_in(tmp_path, doc) == (0, True)
        rows = (tmp_path / "out" / "flow.csv").read_text().splitlines()[1:]
        speeds = [float(row.split(",")[2]) for row in rows]
        assert speeds[:2] == [0.0, 0.0]
        assert all(math.isfinite(u) and u > 0.0 for u in speeds[2:])

    def test_negative_flow_speed_is_config_error(self, tmp_path, capsys):
        # a speed of -1.0 would be read as its absolute value
        doc = json.loads((CONFIGS / "flow.json").read_text())
        doc["flow"] = {"v0_list": [0.5, -1.0], "s_list": [1.0]}
        with pytest.raises(ValidationError, match="flow.v0_list"):
            parse_config(json.dumps(doc))
        assert _main_in(tmp_path, doc) == (2, False)

    @pytest.mark.parametrize("amp", [-1.0, 1.0])
    @pytest.mark.parametrize("alpha,beta", [(1e308, 1e-308), (1e-308, 1e308)])
    def test_equilibrium_speed_past_float_range_is_config_error(self, alpha, beta, amp,
                                                                tmp_path, capsys):
        # r = sqrt(alpha/beta) is inf or 0: brentq would get no bracket
        doc = {"mode": "roots", "model": {"alpha": alpha, "beta": beta},
               "roots": {"A": amp, "eps_list": [0.1]}}
        assert _main_in(tmp_path, doc) == (2, False)
        assert "sqrt(alpha/beta)" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {**MINIMAL_EPS, "integrator": {"dt": 1e-308, "T": 1e10}},
        {**SWEEP_16, "integrator": {"dt": 1e-308},
         "sweep": {"eps_list": [0.08], "t_grid": [0.0, 1e10]}},
        {**MINIMAL_EPS, "integrator": {"dt": 1.0, "T": 1e300}},
    ], ids=["inf-eps", "inf-sweep", "finite-1e300"])
    def test_step_count_out_of_range_is_config_error(self, doc, tmp_path, capsys):
        # T/dt = 1e318 is inf, which the snapshot-step rule cannot round; a
        # finite 1e300 steps is past the range of a list index
        assert _main_in(tmp_path, doc) == (2, False)
        assert "T/dt" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["simulate-eps", "simulate-limit"])
    @pytest.mark.parametrize("horizon,nearest", [
        (0.0025, "0.002 and 0.003"), (0.0035, "0.003 and 0.004"), (0.0015, "0.001 and 0.002")])
    def test_horizon_between_steps_is_config_error(self, mode, horizon, nearest, tmp_path,
                                                   capsys):
        # round(T/dt) rounds half to even: these ran to t = 0.002, 0.004 and
        # 0.002 with exit 0
        model = MINIMAL_EPS["model"] if mode == "simulate-eps" else ALPHA_BETA
        doc = {**MINIMAL_EPS, "mode": mode, "model": model,
               "integrator": {"T": horizon, "dt": 1e-3, "stride": 1}}
        assert _main_in(tmp_path, doc) == (2, False)
        err = capsys.readouterr().err
        assert err.startswith(f"config error: integrator.T={horizon} is not a whole number")
        assert err.endswith(f"the nearest whole-step horizons are {nearest}\n")

    @pytest.mark.parametrize("horizon,dt,steps", [(0.05, 1e-2, 5), (0.07, 1e-2, 7)])
    def test_horizon_a_rounding_off_the_step_grid_runs(self, horizon, dt, steps, tmp_path):
        # 0.07 / 0.01 is 7.000000000000001: within the 1e-9 relative tolerance
        doc = {**MINIMAL_EPS, "integrator": {"T": horizon, "dt": dt, "stride": 1}}
        assert _main_in(tmp_path, doc) == (0, True)
        rows = (tmp_path / "out" / "moments.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [k * dt for k in range(steps + 1)]

    # a sweep's last t_grid point is rounded to a step (half to even), and
    # each point reads the first snapshot within dt/2; the rows are the bytes
    # the sweep wrote when SimConfig still took a float horizon
    @pytest.mark.parametrize("end,steps,index,w1", [
        (0.0025, 2, 2, ("0.27882909404338296", "0.2655734674986854")),
        (0.0035, 4, 3, ("0.27193408454928625", "0.2530890603781091")),
        (0.0004, 1, 0, ("0.293460628872692", "0.293460628872692")),
    ])
    def test_sweep_t_grid_end_off_the_step_grid(self, end, steps, index, w1, tmp_path,
                                                monkeypatch):
        import swarmlab.cli as cli
        from swarmlab.eps_dynamics import snapshot_indices

        study, seen = cli.convergence_study, []

        def recording(f_in, eps_list, t_grid, cfg):
            seen.append((cfg.steps, snapshot_indices(f_in.time, cfg, t_grid)))
            return study(f_in, eps_list, t_grid, cfg)

        monkeypatch.setattr(cli, "convergence_study", recording)
        doc = {**SWEEP_16, "integrator": {"dt": 1e-3, "stride": 1},
               "sweep": {"eps_list": [0.08, 0.04], "t_grid": [0.0, end]}}
        assert _main_in(tmp_path, doc) == (0, True)
        assert seen == [(steps, [0, index])]
        t0 = "0.293460628872692"
        assert _without_runtime((tmp_path / "out" / "sweep.csv").read_text()) == "\n".join([
            "eps,t,w1,n,seed",
            f"0.08,0.0,{t0},16,7", f"0.08,{end},{w1[0]},16,7",
            f"0.04,0.0,{t0},16,7", f"0.04,{end},{w1[1]},16,7"])

    def test_largest_seed_runs(self, tmp_path):
        assert _main_in(tmp_path, MINIMAL_EPS, "--seed", str(2**64 - 1)) == (0, True)

    def test_dimension_other_than_2_or_3_is_config_error(self, tmp_path):
        doc = {**MINIMAL_EPS, "init": {**MINIMAL_EPS["init"], "dim": 4}}
        with pytest.raises(ValidationError, match="init.dim"):
            parse_config(json.dumps(doc))

    def test_sweep_past_exact_cap_exits_before_integrating(self, tmp_path, no_simulate):
        doc = {**SWEEP_16, "init": {**SWEEP_16["init"], "n": 2049}}
        assert _main_in(tmp_path, doc) == (3, False)

    def test_sweep_eps_not_decreasing_exits_before_integrating(self, tmp_path, no_simulate):
        doc = {**SWEEP_16, "sweep": {"eps_list": [0.04, 0.08], "t_grid": [0.0]}}
        assert _main_in(tmp_path, doc) == (2, False)

    def test_sweep_repeated_t_grid_point_exits_before_integrating(self, tmp_path, no_simulate,
                                                                 capsys):
        # the repeat used to surface after three runs and a W1 solve, reported
        # as eps not strictly decreasing
        doc = {**SWEEP_16, "sweep": {"eps_list": [0.08, 0.04], "t_grid": [0.1, 0.1]}}
        assert _main_in(tmp_path, doc) == (2, False)
        assert "t_grid points must be distinct" in capsys.readouterr().err

    def test_sweep_at_t0_only_runs(self, tmp_path):
        doc = {**SWEEP_16, "sweep": {"eps_list": [0.08, 0.04, 0.02], "t_grid": [0.0]}}
        assert _main_in(tmp_path, doc) == (0, True)
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["0.08", "0.0"], ["0.04", "0.0"], ["0.02", "0.0"]]

    def test_out_of_memory_is_numeric_abort(self, tmp_path, monkeypatch, capsys):
        # an N x N pair buffer past the machine's memory (init.n 200000 asks
        # cdist for 298 GiB): patched, so nothing is allocated for real
        from swarmlab.kernels import PairOperator

        def no_memory(self, x):
            raise MemoryError("Unable to allocate 298. GiB for the pair buffer")

        monkeypatch.setattr(PairOperator, "build", no_memory)
        assert _main_in(tmp_path, MINIMAL_EPS) == (3, False)
        assert "numeric abort: out of memory" in capsys.readouterr().err

    @pytest.mark.parametrize("model,amp", [
        ({"alpha": 1e308, "beta": 1.0}, 1.0),       # was an OverflowError traceback
        ({"alpha": 1e200, "beta": 1e-100}, -1.0),   # was brentq's RuntimeError
    ])
    def test_roots_speed_balance_past_float_range_is_config_error(self, model, amp,
                                                                 tmp_path, capsys):
        doc = {**json.loads((CONFIGS / "roots.json").read_text()), "model": model}
        doc["roots"] = {**doc["roots"], "A": amp}
        with pytest.raises(ValidationError, match="speed balance past float range"):
            parse_config(json.dumps(doc))
        assert _main_in(tmp_path, doc) == (2, False)
        assert "speed balance past float range" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kernels,named", [
        ({"name": GAUSSIAN_NAME, "params": {"l_A": 1e200}}, "l_A"),   # was OverflowError
        ({"name": GAUSSIAN_NAME, "params": {"l_A": 1e-300}}, "l_A"),  # was ZeroDivisionError
        ({"name": GAUSSIAN_NAME, "params": {"l_A": 1e-160}}, "l_A"),  # was "non-finite coordinates"
        ({"name": GAUSSIAN_NAME, "params": {"C_A": 1e300, "l_A": 1e-10}}, "C_A"),
        ({"name": GAUSSIAN_NAME, "params": {"C_R": 1.0, "l_R": 1e-300}}, "l_R"),
    ], ids=["l_A-1e200", "l_A-1e-300", "l_A-1e-160", "C_A-1e300", "l_R-1e-300"])
    def test_gaussian_term_past_float_range_is_config_error(self, kernels, named, tmp_path,
                                                            capsys):
        assert _main_in(tmp_path, {**LIMIT_16, "kernels": kernels}) == (2, False)
        assert named in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cucker_smale_power_overflow_runs(self, tmp_path):
        # (1 + s)^1e300 overflowed with a RuntimeWarning; the weight is 0
        doc = {**LIMIT_16, "kernels": {"name": "cucker_smale_weight", "params": {"gamma": 1e300}}}
        assert _main_in(tmp_path, doc) == (0, True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode,gain", [("simulate-eps", 1e300), ("simulate-limit", 1e300),
                                           ("simulate-eps", 1e100)])
    def test_diverged_run_is_numeric_abort(self, mode, gain, tmp_path, capsys):
        # was a config error (exit 2), or an overflow traceback under -W error
        assert _main_in(tmp_path, _aligned(mode, gain)) == (3, False)
        err = capsys.readouterr().err
        assert err.startswith("numeric abort: run diverged in step 1 (t=0.001)")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_alignment_on_the_sphere_is_numeric_abort(self, tmp_path, capsys):
        # renormalizing kept the speeds in range, so each step turned every
        # omega by 90 degrees and the run exited 0
        assert _main_in(tmp_path, _aligned("simulate-limit", 1e100)) == (3, False)
        err = capsys.readouterr().err
        assert err.startswith("numeric abort: run diverged in step 1 (t=0.001): turn measure")
        assert f"bound {MAX_TURN}" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("doc", [
        {**SAMPLED_EPS, "init": {**SAMPLED_EPS["init"], "R0": 1e160}},
        {**SAMPLED_EPS, "init": {**SAMPLED_EPS["init"], "R0": 1e160,
                                 "distribution": "two_clusters"}},
        {**SWEEP_16, "init": {**SWEEP_16["init"], "R0": 1e160}},
        {"mode": "project", "model": {"alpha": 1.0, "beta": 1.0},
         "init": {**SWEEP_16["init"], "R0": 1e160}},
    ], ids=["simulate-eps", "two_clusters", "sweep", "project"])
    def test_speed_bound_with_infinite_square_is_config_error(self, doc, tmp_path, capsys):
        # each mode failed its own way, none naming init.R0
        with pytest.raises(ValidationError, match="init.R0"):
            parse_config(json.dumps(doc))
        with pytest.raises(ValidationError, match="init.R0"):
            build_initial_ensemble(doc["init"], ModelParams(1.0, 1.0, 0.05))
        assert _main_in(tmp_path, doc) == (2, False)
        assert "init.R0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("big_r0", [1e150, 1.3e154])
    def test_speed_bound_with_finite_square_runs(self, big_r0, tmp_path):
        doc = {**SAMPLED_EPS, "kernels": {"name": GAUSSIAN_NAME},
               "init": {**SAMPLED_EPS["init"], "R0": big_r0}}
        assert _main_in(tmp_path, doc) == (0, True)

    def test_scheme_that_is_not_a_string_names_strang(self):
        doc = {**MINIMAL_EPS, "integrator": {**MINIMAL_EPS["integrator"], "scheme": 5}}
        with pytest.raises(ValidationError, match="integrator.scheme must be 'strang', got 5"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
    def test_swarm_threads_not_a_lane_count_is_config_error(self, threads, tmp_path,
                                                            monkeypatch, no_simulate, capsys):
        # each of these used to mean one lane, silently
        monkeypatch.setenv("SWARM_THREADS", threads)
        assert _main_in(tmp_path, SWEEP_16) == (2, False)
        assert "SWARM_THREADS" in capsys.readouterr().err

    def test_roots_forcing_past_float_range_is_config_error(self, tmp_path, capsys):
        # eps*A = 1e309 is inf: brentq would see NaN
        doc = {"mode": "roots", "model": {"alpha": 1.0, "beta": 1.0},
               "roots": {"A": 1e308, "eps_list": [10.0]}}
        assert _main_in(tmp_path, doc) == (2, False)
        assert "eps*A" in capsys.readouterr().err


# two atoms of 16 come within the attraction's 0.02 range and overflow |v|^2 in
# step 9, after the snapshots of steps 0 to 8 are on disk
DIVERGES_IN_STEP_9 = {
    **MINIMAL_EPS,
    "kernels": {"name": GAUSSIAN_NAME, "params": {"C_A": 1e100, "l_A": 0.02, "C_R": 0.0}},
    "integrator": {"T": 0.05, "dt": 1e-3, "stride": 1},
    "output": {"formats": ["csv", "json"]},
}


def _record_writes(monkeypatch, fail_at=None):
    """The names `Path.write_text` is called on, in order; call number
    `fail_at` raises a disk-full OSError instead of writing."""
    called = []
    write_text = Path.write_text

    def recording(path, text, *args, **kwargs):
        called.append(path.name)
        if len(called) == fail_at:
            raise OSError(28, "No space left on device", str(path))
        return write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", recording)
    return called


class TestFailedRunRemovesItsOutput:
    """Files reach disk as a run makes them; a run that fails removes them."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_run_diverging_after_written_snapshots_leaves_no_directory(self, tmp_path,
                                                                       monkeypatch, capsys):
        writes = _record_writes(monkeypatch)
        assert _main_in(tmp_path, DIVERGES_IN_STEP_9) == (3, False)
        assert capsys.readouterr().err.startswith("numeric abort: run diverged in step 9 ")
        assert writes[-2:] == [".snap_eps_00008.csv.part", ".snap_eps_00008.json.part"]
        assert len(writes) == 1 + 18  # the config, then two files a snapshot

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_run_diverging_into_an_existing_directory_keeps_its_earlier_file(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("an earlier file\n")
        assert _main_in(tmp_path, DIVERGES_IN_STEP_9) == (3, True)
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "an earlier file\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_run_diverging_over_an_earlier_run_keeps_its_files_and_manifest(self, tmp_path):
        # the earlier run's snap_eps_00000 to 00008 share names with the failed run's
        doc = {**DIVERGES_IN_STEP_9, "kernels": MINIMAL_EPS["kernels"]}
        assert _main_in(tmp_path, doc) == (0, True)
        out = tmp_path / "out"
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(earlier) == 2 * 51 + 2
        assert _main_in(tmp_path, DIVERGES_IN_STEP_9) == (3, True)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_failed_write_removes_the_files_before_it(self, tmp_path, monkeypatch, capsys):
        # the two files written before the failing one used to stay behind
        writes = _record_writes(monkeypatch, fail_at=1 + 3)  # the config, then the run's third
        path = tmp_path / "cfg.json"
        doc = {**MINIMAL_EPS, "integrator": {**MINIMAL_EPS["integrator"], "stride": 5}}
        path.write_text(json.dumps(doc))
        assert main(["simulate-eps", str(path), "--output", str(tmp_path / "a" / "out")]) == 4
        assert "No space left on device" in capsys.readouterr().err
        assert writes[1:] == [f".snap_eps_0000{k}.csv.part" for k in range(3)]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def _error_types(base=SwarmError):
    """`base` and every subclass of it, recursively."""
    return [base, *(t for sub in base.__subclasses__() for t in _error_types(sub))]


CATEGORIES = (SwarmError, ConfigError, NumericAbort)
ROOTS = {"mode": "roots", "model": {"alpha": 1.0, "beta": 1.0},
         "roots": {"A": -1.0, "eps_list": [0.01]}}


class TestExitCodes:
    """The exit-code policy lives on the error types, and `main` reads it off."""

    def test_every_error_type_is_in_a_category(self):
        concrete = [t for t in _error_types() if t not in CATEGORIES]
        assert len(concrete) >= 8
        assert [t for t in concrete if not issubclass(t, (ConfigError, NumericAbort))] == []

    def test_categories_carry_codes_and_labels(self):
        assert [(t.exit_code, t.label) for t in CATEGORIES] == [
            (3, "error"), (2, "config error"), (3, "numeric abort")]

    @pytest.mark.parametrize("error", _error_types(), ids=lambda t: t.__name__)
    def test_main_reports_an_error_by_its_type(self, error, tmp_path, monkeypatch, capsys):
        def fail(cfg, seed, formats):
            raise error("probe")

        monkeypatch.setitem(MODES, "roots", (fail, MODES["roots"][1]))
        assert _main_in(tmp_path, ROOTS) == (error.exit_code, False)
        assert capsys.readouterr().err == f"{error.label}: probe\n"

    def test_failed_transport_lp_is_numeric_abort(self, tmp_path, monkeypatch, capsys):
        # a solver failure on valid snapshots used to exit 2 as a config error;
        # _w1_lp imports linprog when it calls it, so the patch goes on scipy.optimize
        import scipy.optimize
        from scipy.optimize import OptimizeResult

        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *args, **kwargs: OptimizeResult(success=False,
                                                                   message="probe"))
        a = build_initial_ensemble({"n": 4, "distribution": "on_sphere"},
                                   ModelParams(1.0, 1.0, 0.05))
        b = PhaseEnsemble(a.x[:3], a.v[:3], [0.5, 0.25, 0.25])  # unequal weights: the LP
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, ens in zip(paths, (a, b)):
            path.write_text(snapshot_text(ens))
        out = tmp_path / "out"
        assert main(["compare", *map(str, paths), "--output", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err.startswith("numeric abort: transport LP failed: probe")


def _fresh_env(**extra) -> dict:
    """os.environ for a fresh interpreter that imports this swarmlab."""
    src = str(Path(swarmlab.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _without_runtime(table: str) -> str:
    """A sweep.csv without its runtime_ms column, the one that varies by run."""
    lines = table.splitlines()
    cut = lines[0].split(",").index("runtime_ms")
    return "\n".join(",".join(c for k, c in enumerate(line.split(",")) if k != cut)
                     for line in lines)


# Runs each argv of a JSON list through cli.main in one fresh interpreter (null:
# the import alone) and prints, per entry, its exit code and whether
# scipy.optimize is loaded after it.
_IMPORT_PROBE = """
import json, sys
from swarmlab import cli

rows = []
for argv in json.loads(sys.argv[1]):
    code = 0 if argv is None else cli.main(argv)
    rows.append([code, "scipy.optimize" in sys.modules])
print(json.dumps(rows))
"""


def _import_probe(cwd, steps, **env) -> list:
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(steps)], cwd=cwd,
                         env=_fresh_env(**env), check=True, capture_output=True, text=True)
    return [tuple(row) for row in json.loads(out.stdout.splitlines()[-1])]


def _certifies(mu, nu) -> bool:
    """The nearest-neighbour certificate of transport._w1_assignment."""
    near = KDTree(np.hstack([nu.x, nu.v])).query(np.hstack([mu.x, mu.v]))[1]
    return bool(np.bincount(near, minlength=nu.n).max() == 1)


class TestImportGraph:
    """scipy.optimize holds the speed-balance root finder and the two W1
    solvers, and loads at the first call of one: a run that calls none never
    imports it. Each check starts a fresh interpreter."""

    def test_runs_without_a_solver_leave_scipy_optimize_unloaded(self, tmp_path):
        limit = json.loads((CONFIGS / "limit.json").read_text())
        limit["init"]["n"] = 32
        limit["integrator"].update(T=0.1, stride=20)
        (tmp_path / "limit.json").write_text(json.dumps(limit))
        steps = [None,
                 ["simulate-limit", "limit.json", "--output", "limit"],
                 ["project", str(CONFIGS / "project.json"), "--output", "project"],
                 ["flow", str(CONFIGS / "flow.json"), "--output", "flow"],
                 # every atom next to its projection: the pair certifies
                 ["compare", "project/source.json", "project/projected.json",
                  "--output", "compare"]]
        assert _import_probe(tmp_path, steps) == [(0, False)] * len(steps)
        assert json.loads((tmp_path / "compare" / "w1_report.json").read_text())["value"] > 0

    def test_roots_loads_scipy_optimize(self, tmp_path):
        steps = [None, ["roots", str(CONFIGS / "roots.json"), "--output", "roots"]]
        assert _import_probe(tmp_path, steps) == [(0, False), (0, True)]

    def test_compare_of_independent_clouds_loads_scipy_optimize(self, tmp_path):
        project = parse_config((CONFIGS / "project.json").read_text())
        for name, seed in (("a", 1), ("b", 2)):
            run(project, output_dir=str(tmp_path / name), seed=seed)
        assert not _certifies(*(load_snapshot(str(tmp_path / name / "source.json"))
                                for name in "ab"))
        steps = [None, ["compare", "a/source.json", "b/source.json", "--output", "compare"]]
        assert _import_probe(tmp_path, steps) == [(0, False), (0, True)]

    def test_two_lanes_import_the_assignment_at_once(self, tmp_path, monkeypatch):
        # t_grid holds only the horizon, so the sweep solves two pairs: one on
        # each lane, and neither certifies. Both lanes' first solves import
        # scipy.optimize at about the same time
        import swarmlab.transport as transport

        doc = {**SWEEP_16, "init": {**SWEEP_16["init"], "n": 128},
               "sweep": {"eps_list": [1.0, 0.5], "t_grid": [1.0]}}
        (tmp_path / "sweep.json").write_text(json.dumps(doc))
        pairs, solve = [], transport.w1_exact

        def recording(a, b):
            pairs.append((a, b))
            return solve(a, b)

        monkeypatch.setattr(transport, "w1_exact", recording)
        monkeypatch.setenv("SWARM_THREADS", "1")
        run(parse_config(json.dumps(doc)), output_dir=str(tmp_path / "one"))
        assert len(pairs) == 2 and not any(_certifies(*pair) for pair in pairs)

        steps = [None, ["sweep", "sweep.json", "--output", "two"]]
        assert _import_probe(tmp_path, steps, SWARM_THREADS="2") == [(0, False), (0, True)]
        one, two = ((tmp_path / name / "sweep.csv").read_text() for name in ("one", "two"))
        assert _without_runtime(two) == _without_runtime(one)
