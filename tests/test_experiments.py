import dataclasses
import json
import math
import os

import numpy as np
import pytest

from mixedfrac import ConfigError, DegenerateData, ExperimentConfig, fit_rate
from mixedfrac import experiments
from mixedfrac.cli import main as cli_main


def base_config(**overrides):
    cfg = {
        "schema": 1,
        "order": {"dimension": 1, "s": 0.5},
        "omega": {"a": -1.0, "b": 1.0},
        "family": {"kind": "explicit",
                   "params": {"neumann": [[1.0, 2.0]], "dirichlet": "rest"},
                   "k_list": [0, 1, 2]},
        "discretization": {"h": 0.1, "L": 8.0, "scheme": "P1"},
        "solver": {"tol": 1e-12, "max_iter": 500},
        "outputs": {},
        "verify": {"gauss": True, "conditionC": True, "measures": True},
    }
    cfg.update(overrides)
    return cfg


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(base_config())
        assert cfg.s == 0.5
        assert cfg.k_list == (0, 1, 2)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(extra=1))

    def test_unknown_nested_key_rejected(self):
        bad = base_config()
        bad["discretization"]["compression"] = "low-rank"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(schema=2))

    @pytest.mark.parametrize("section, key, value", [
        ("discretization", "h", "abc"), ("order", "s", None), ("solver", "max_iter", 0),
        ("solver", "tol", 0.0), ("family", "k_list", [1.7]), ("order", "s", 2.0),
        ("order", "dimension", 2), ("discretization", "h", math.nan),
        ("discretization", "L", math.nan), ("discretization", "L", math.inf),
        ("family", "k_list", [math.inf]), ("solver", "max_iter", math.inf)],
        ids=["h-abc", "s-null", "max_iter-0", "tol-0", "k_list-1.7", "s-2", "dimension-2",
             "h-nan", "L-nan", "L-inf", "k_list-inf", "max_iter-inf"])
    def test_bad_value_is_config_error(self, tmp_path, capsys, section, key, value):
        bad = base_config()
        bad[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            ExperimentConfig.from_dict(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert cli_main(["solve", "--config", str(path)]) == 1
        assert f"config error: {section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["shrinking_neumann", "shrinking_dirichlet_touching"])
    def test_zero_ratio_is_config_error(self, tmp_path, capsys, kind):
        # ratio^-k of the shrinking kinds divides by zero
        bad = base_config(family={"kind": kind, "params": {"ratio": 0.0}, "k_list": [1]})
        with pytest.raises(ConfigError, match="family: params.ratio must be"):
            ExperimentConfig.from_dict(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert cli_main(["solve", "--config", str(path)]) == 1
        assert "config error: family: params.ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, where", [
        (1, "config"), ([], "config"), (base_config(order=5), "order"),
        (base_config(solver=[1]), "solver")], ids=["int", "list", "order-int", "solver-list"])
    def test_non_object_is_config_error(self, bad, where):
        with pytest.raises(ConfigError, match=f"{where} must be a JSON object"):
            ExperimentConfig.from_dict(bad)

    def test_validate_catches_mesh_violations(self):
        bad = base_config()
        bad["discretization"]["h"] = 0.3    # does not divide |Omega|
        cfg = ExperimentConfig.from_dict(bad)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_validate_catches_p0_scheme_conflict(self):
        bad = base_config()
        bad["discretization"]["scheme"] = "P0"   # s = 0.5
        cfg = ExperimentConfig.from_dict(bad)
        with pytest.raises(ConfigError):
            cfg.validate()


class TestFitRate:
    def test_exact_power_law(self):
        recs = [{"x": x, "y": 3.0 * x ** 2} for x in (1.0, 2.0, 3.0, 4.0, 5.0)]
        slope, intercept, r2 = fit_rate(recs, "x", "y")
        assert abs(slope - 2.0) < 1e-12
        assert abs(math.exp(intercept) - 3.0) < 1e-12
        assert abs(r2 - 1.0) < 1e-12

    def test_degenerate_data(self):
        with pytest.raises(DegenerateData):
            fit_rate([{"x": 1.0, "y": 1.0}], "x", "y")
        with pytest.raises(DegenerateData):
            fit_rate([{"x": -1.0, "y": 1.0}] * 6, "x", "y")


def unconverged_baseline(monkeypatch):
    """Report every Dirichlet baseline of experiments.run as not converged."""
    real = experiments.dirichlet_baseline
    monkeypatch.setattr(experiments, "dirichlet_baseline", lambda *a, **k: (
        dataclasses.replace(real(*a, **k), converged=False)))


@pytest.fixture(scope="module")
def fixed_interval_run():
    cfg = ExperimentConfig.from_dict(base_config())
    return experiments.run(cfg), cfg


class TestRun:
    def test_fixed_set_records_identical(self, fixed_interval_run):
        result, _ = fixed_interval_run
        lams = {r.lambda1 for r in result.records}
        assert len(lams) == 1       # k-independent family, bitwise identical
        assert result.n_failed == 0

    def test_record_invariants(self, fixed_interval_run):
        from mixedfrac import make_order, tail_mass
        result, _ = fixed_interval_run
        bound = 3.0 * tail_mass(8.0, make_order(1, 0.5))
        for r in result.records:
            assert 0.0 <= r.lambda1 <= r.baseline * (1 + 1e-8)
            assert r.gap >= -1e-12
            # Gauss defect is only the far-field Dirichlet tail
            assert r.gauss_res <= bound

    def test_determinism_bitwise(self, fixed_interval_run):
        result, cfg = fixed_interval_run
        again = experiments.run(cfg)
        for a, b in zip(result.records, again.records):
            assert a.lambda1 == b.lambda1
            assert a.baseline == b.baseline

    def test_jobs_do_not_change_results(self, fixed_interval_run):
        result, cfg = fixed_interval_run
        threaded = experiments.run(cfg, jobs=3)
        for a, b in zip(result.records, threaded.records):
            assert a.lambda1 == b.lambda1

    def test_per_record_failure_tagged(self, fixed_interval_run, monkeypatch):
        _, cfg = fixed_interval_run
        from mixedfrac import errors

        real = experiments.solve_mixed
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise errors.SingularExteriorBlock("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "solve_mixed", flaky)
        result = experiments.run(cfg)
        assert result.n_failed == 1
        failed = [r for r in result.records if r.error]
        assert len(failed) == 1
        assert "SingularExteriorBlock" in failed[0].error
        assert math.isnan(failed[0].lambda1)

    def test_unconverged_baseline_fails_every_record(self, fixed_interval_run,
                                                     monkeypatch):
        _, cfg = fixed_interval_run
        unconverged_baseline(monkeypatch)
        result = experiments.run(cfg)
        assert math.isnan(result.baseline)
        assert all(r.converged for r in result.records)
        assert all(math.isnan(r.baseline) and math.isnan(r.gap) for r in result.records)
        assert result.n_failed == len(result.records)
        assert result.fits == {}


class TestEmit:
    def test_csv_header_and_rows(self, fixed_interval_run, tmp_path):
        result, cfg0 = fixed_interval_run
        cfg = ExperimentConfig.from_dict(
            base_config(outputs={"csv": "out.csv", "json": "out.json",
                                 "plotdata": "out.dat"}))
        paths = experiments.emit(result, cfg, out_dir=str(tmp_path))
        lines = open(paths["csv"]).read().splitlines()
        assert lines[0] == experiments.CSV_HEADER
        assert len(lines) == 1 + len(result.records)
        payload = json.load(open(paths["json"]))
        assert payload["n_records"] == 3
        assert payload["config"]["schema"] == 1
        assert "farfield_slopes" in payload
        dat = open(paths["plotdata"]).read().splitlines()
        assert dat[0].startswith("#")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_farfield_slopes_for_every_k(self, tmp_path, jobs):
        cfg = ExperimentConfig.from_dict(base_config(verify={"farfield": True},
                                                     outputs={"json": "f.json"}))
        result = experiments.run(cfg, jobs=jobs)
        assert sorted(result.farfield_slopes) == list(cfg.k_list)
        assert all(math.isfinite(v) for v in result.farfield_slopes.values())
        paths = experiments.emit(result, cfg, out_dir=str(tmp_path))
        assert json.load(open(paths["json"]))["farfield_slopes"] == {
            str(k): v for k, v in result.farfield_slopes.items()}

    def test_empty_records_header_only(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(outputs={"csv": "e.csv",
                                                              "json": "e.json"}))
        empty = experiments.RunResult(records=(), baseline=0.0, fits={}, n_failed=0)
        paths = experiments.emit(empty, cfg, out_dir=str(tmp_path))
        lines = open(paths["csv"]).read().splitlines()
        assert lines == [experiments.CSV_HEADER]
        assert json.load(open(paths["json"]))["n_records"] == 0

    def test_rerun_byte_identical_except_ms(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(outputs={"csv": "d.csv"}))
        r1 = experiments.run(cfg)
        r2 = experiments.run(cfg)
        p1 = experiments.emit(r1, cfg, out_dir=str(tmp_path / "a"))
        os.makedirs(tmp_path / "b", exist_ok=True)
        p2 = experiments.emit(r2, cfg, out_dir=str(tmp_path / "b"))

        def strip_ms(path):
            return ["," .join(line.split(",")[:-1])
                    for line in open(path).read().splitlines()]

        assert strip_ms(p1["csv"]) == strip_ms(p2["csv"])


class TestCli:
    def _write_cfg(self, tmp_path,**overrides):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(**overrides)))
        return str(path)

    def test_sweep_writes_outputs(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, outputs={"csv": "s.csv", "json": "s.json"})
        code = cli_main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "s.csv").exists()
        assert "lambda1" in capsys.readouterr().out

    def test_solve_single(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        assert cli_main(["solve", "--config", cfg]) == 0
        assert "k=0" in capsys.readouterr().out

    def test_baseline_richardson(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        code = cli_main(["baseline", "--config", cfg,
                         "--richardson", "0.2,0.1,0.05"])
        assert code == 0
        assert "extrapolated" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["abc", "0.1,0.05,abc"])
    def test_baseline_bad_richardson_is_config_error(self, tmp_path, capsys, value):
        cfg = self._write_cfg(tmp_path)
        assert cli_main(["baseline", "--config", cfg, "--richardson", value]) == 1
        assert "config error: --richardson" in capsys.readouterr().err

    @pytest.mark.parametrize("richardson", [[], ["--richardson", "0.2,0.1,0.05"]],
                             ids=["single", "richardson"])
    def test_baseline_non_converged_exit_code(self, tmp_path, capsys, richardson):
        cfg = self._write_cfg(tmp_path, solver={"tol": 1e-12, "max_iter": 2})
        assert cli_main(["baseline", "--config", cfg, *richardson]) == 2
        out = capsys.readouterr().out
        assert "NOT CONVERGED (2 iterations)" in out
        assert "extrapolated" not in out

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_unconverged_baseline_exit_code(self, tmp_path, capsys, monkeypatch, command):
        cfg = self._write_cfg(tmp_path)
        unconverged_baseline(monkeypatch)
        assert cli_main([command, "--config", cfg]) == 2
        assert "gap=nan" in capsys.readouterr().out

    def test_verify_passes(self, capsys):
        assert cli_main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_efr(self, capsys):
        assert cli_main(["efr", "--s", "0.6", "--rmin-exp", "3",
                         "--rmax-exp", "6"]) == 0
        assert "slope" in capsys.readouterr().out

    def test_efr_empty_range_is_config_error(self, capsys):
        assert cli_main(["efr", "--s", "0.6", "--rmin-exp", "5", "--rmax-exp", "3"]) == 1
        assert "config error: --rmin-exp" in capsys.readouterr().err

    def test_efr_divergent(self, capsys):
        assert cli_main(["efr", "--s", "0.8"]) == 0
        assert "DivergentIntegral" in capsys.readouterr().out

    def test_dini(self, capsys):
        assert cli_main(["dini", "--omega0", "power:0.6",
                         "--kernel", "power:0.3"]) == 0
        out = capsys.readouterr().out
        assert "Finite" in out
        assert cli_main(["dini", "--omega0", "log_spine",
                         "--kernel", "power:0.5"]) == 0
        assert "Divergent" in capsys.readouterr().out

    def test_dini_tables(self, capsys):
        # the tabulated t^0.7 modulus and t^0.2 kernel of TestDini, as CLI specs
        ts = [float(t) for t in np.logspace(-9, -0.1, 60)]
        omega0 = "table:" + ",".join(f"{t!r}:{t ** 0.7!r}" for t in ts)
        kernel = "table:" + ",".join(f"{t * 1e6!r}:{(t * 1e6) ** 0.2!r}" for t in ts)
        assert cli_main(["dini", "--omega0", omega0, "--kernel", kernel]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Finite(")
        assert abs(float(out[len("Finite("):out.index(")")]) - 2.0) < 2e-2

    @pytest.mark.parametrize("t0", ["0", "-1"])
    def test_dini_nonpositive_table_t_is_config_error(self, capsys, t0):
        spec = f"table:{t0}:1,1:2,2:3"
        assert cli_main(["dini", "--omega0", "power:0.6", "--kernel", spec]) == 1
        assert f"config error: bad KernelOrder spec {spec!r}" in capsys.readouterr().err

    def test_dini_bad_spec_is_config_error(self, capsys):
        assert cli_main(["dini", "--omega0", "power:abc", "--kernel", "power:0.3"]) == 1
        assert "config error: bad ModulusOfContinuity spec 'power:abc'" \
            in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(base_config(schema=9)))
        assert cli_main(["sweep", "--config", str(path)]) == 1

    @pytest.mark.parametrize("content", [None, "{"], ids=["missing", "malformed"])
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_text(content)
        assert cli_main(["solve", "--config", str(path)]) == 1
        assert f"config error: cannot read {path}" in capsys.readouterr().err

    def test_partial_failure_exit_code(self, tmp_path, monkeypatch):
        cfg = self._write_cfg(tmp_path)
        bad = experiments.RunResult(records=(), baseline=1.0, fits={}, n_failed=1)
        monkeypatch.setattr(experiments, "run", lambda *a, **k: bad)
        assert cli_main(["sweep", "--config", cfg]) == 2

    def test_non_converged_records_fail(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, solver={"tol": 1e-12, "max_iter": 2},
                              outputs={"csv": "nc.csv", "json": "nc.json"})
        assert cli_main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "NOT CONVERGED" in capsys.readouterr().out
        payload = json.load(open(tmp_path / "nc.json"))
        assert payload["n_failed"] == len(base_config()["family"]["k_list"])
        assert all(r["converged"] is False for r in payload["records"])
        header = open(tmp_path / "nc.csv").read().splitlines()[0]
        assert header == experiments.CSV_HEADER

    def test_solve_non_converged_exit_code(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, solver={"tol": 1e-12, "max_iter": 2})
        assert cli_main(["solve", "--config", cfg]) == 2
        assert "NOT CONVERGED (2 iterations)" in capsys.readouterr().out

    def test_seed_accepted_and_ignored(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        assert cli_main(["solve", "--config", cfg, "--seed", "123"]) == 0
