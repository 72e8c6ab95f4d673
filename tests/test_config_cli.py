"""Configuration loading, sweep machinery, and command-line behavior.

CLI tests call main() in-process for speed; byte-level determinism and the
installed entry point are exercised through subprocesses.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import corequilib as cq
from corequilib.cli import main
from corequilib.config import dump_effective, load_config_file
from corequilib.scan import ScanTable, _monotonicity_warnings, cell_config, worker_count
from test_eos import scaled_rule


def base_raw(n=32, omega=0.0, mu=0.0, core_rho=0.0, core_a=0.02, extra=None):
    raw = {
        "eos": {"kind": "polytrope", "k": 1.0, "gamma": 2.0},
        "grid": {"r_max": 2.0, "z_max": 2.0, "n_r": n, "n_z": n},
        "core": {"a_r": core_a, "a_z": core_a, "rho": core_rho, "mu": mu},
        "rotation": {"kind": "constant", "omega": omega},
        "solver": {"mass": 1.0},
    }
    if extra:
        raw.update(extra)
    return raw


#: solver values of the right type that ScfConfig's range checks reject
OUT_OF_RANGE_SOLVER = [
    ("alpha", 1.5),
    ("runoff_fraction", 2.0),
]


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestEffectiveConfig:
    def test_defaults_are_materialized(self):
        eff = cq.effective_config(
            {
                "eos": {"kind": "polytrope", "k": 1.0, "gamma": 2.0},
                "grid": {"r_max": 1.0, "z_max": 1.0, "n_r": 16, "n_z": 16},
            }
        )
        assert eff["solver"]["mass"] == 1.0
        assert eff["solver"]["alpha"] == 0.5
        assert eff["solver"]["tol_density"] == 1e-8
        assert eff["solver"]["max_iter"] == 500
        assert eff["solver"]["initial_guess"] == {"kind": "gaussian-blob"}
        # the solver defaults are ScfConfig's
        expected = dataclasses.asdict(cq.ScfConfig())
        expected.update(mass=1.0, initial_guess={"kind": "gaussian-blob"})
        assert eff["solver"] == expected
        assert cq.build_problem(eff)[1] == cq.ScfConfig()
        assert eff["rotation"] == {"kind": "constant", "omega": 0.0}
        assert eff["core"]["rho"] == 0.0
        assert eff["core"]["mu"] == 0.0
        assert eff["core"]["a_r"] == pytest.approx(1e-3)
        assert "scan" not in eff

    def test_materialization_is_idempotent(self):
        raw = base_raw(
            extra={
                "scan": {"omega_values": [0.0, 0.5], "mu_values": [0.0, 1.0]}
            }
        )
        eff = cq.effective_config(raw, need_scan=True)
        again = cq.effective_config(eff, need_scan=True)
        assert again == eff
        assert eff["scan"]["retry_factor"] == 1.5

    def test_unknown_names_are_reported(self):
        with pytest.raises(cq.ConfigError, match="unknown section 'extra'"):
            cq.effective_config(base_raw(extra={"extra": {}}))
        raw = base_raw()
        raw["solver"]["typo_key"] = 1
        with pytest.raises(
            cq.ConfigError, match="unknown key 'typo_key' in section 'solver'"
        ):
            cq.effective_config(raw)

    def test_missing_required_pieces(self):
        with pytest.raises(cq.ConfigError, match="missing section 'grid'"):
            cq.effective_config({"eos": {"kind": "polytrope", "k": 1, "gamma": 2}})
        raw = base_raw()
        del raw["eos"]["k"]
        with pytest.raises(cq.ConfigError, match="missing key 'k'"):
            cq.effective_config(raw)
        raw = base_raw()
        del raw["grid"]["n_z"]
        with pytest.raises(cq.ConfigError, match="missing key 'n_z'"):
            cq.effective_config(raw)

    def test_type_checking(self):
        raw = base_raw()
        raw["grid"]["n_r"] = 32.5
        with pytest.raises(cq.ConfigError, match="must be an integer"):
            cq.effective_config(raw)
        raw = base_raw()
        raw["solver"]["mass"] = True
        with pytest.raises(cq.ConfigError, match="must be a number"):
            cq.effective_config(raw)
        raw = base_raw()
        raw["solver"]["max_iter"] = 10.0
        with pytest.raises(cq.ConfigError, match="'max_iter'.* must be an integer"):
            cq.effective_config(raw)

    @pytest.mark.parametrize("key, value", OUT_OF_RANGE_SOLVER)
    def test_solver_ranges_name_the_key(self, key, value):
        raw = base_raw()
        raw["solver"][key] = value
        with pytest.raises(cq.ConfigError, match="section 'solver': %s" % key):
            cq.effective_config(raw)

    def test_core_shape_keys_are_exclusive(self):
        raw = base_raw()
        raw["core"] = {"a_r": 0.1, "profile_z": [0.0, 0.1], "profile_a": [0.1, 0.0]}
        with pytest.raises(cq.ConfigError, match="mixes spheroid keys"):
            cq.effective_config(raw)

    def test_initial_guess_forms(self):
        raw = base_raw()
        raw["solver"]["initial_guess"] = "uniform-shell"
        eff = cq.effective_config(raw)
        assert eff["solver"]["initial_guess"] == {"kind": "uniform-shell"}

        raw["solver"]["initial_guess"] = {"kind": "from-file"}
        with pytest.raises(cq.ConfigError, match="missing key 'path'"):
            cq.effective_config(raw)

        raw["solver"]["initial_guess"] = {"kind": "gaussian-blob", "path": "x"}
        with pytest.raises(cq.ConfigError, match="only applies to from-file"):
            cq.effective_config(raw)

    def test_scan_section_validation(self):
        raw = base_raw()
        with pytest.raises(cq.ConfigError, match="missing section 'scan'"):
            cq.effective_config(raw, need_scan=True)
        raw["scan"] = {"omega_values": [0.5, 0.5], "mu_values": [0.0]}
        with pytest.raises(cq.ConfigError, match="strictly increasing"):
            cq.effective_config(raw, need_scan=True)
        raw["scan"] = {
            "omega_values": [0.0, 0.5],
            "mu_values": [0.0],
            "retry_factor": 1.0,
        }
        with pytest.raises(cq.ConfigError, match="must exceed 1"):
            cq.effective_config(raw, need_scan=True)

    def test_build_problem_values(self):
        eff = cq.effective_config(base_raw(omega=0.4, mu=2.0, core_rho=5.0))
        spec, scf = cq.build_problem(eff)
        assert isinstance(spec, cq.ProblemSpec)
        assert isinstance(scf, cq.ScfConfig)
        assert spec.mass == 1.0
        assert spec.mu == 2.0
        assert spec.core.rho_core == 5.0
        assert spec.rotation.omega == 0.4

    def test_build_problem_wraps_construction_errors(self):
        raw = base_raw()
        raw["eos"]["gamma"] = 1.2      # below the admissible exponent range
        with pytest.raises(cq.ConfigError):
            cq.build_problem(cq.effective_config(raw))
        raw = base_raw()
        raw["core"] = {"a_r": 5.0, "a_z": 5.0}   # cannot fit the grid
        with pytest.raises(cq.ConfigError):
            cq.build_problem(cq.effective_config(raw))

    def test_tabulated_eos_and_profile_rotation_sections(self):
        s = list(np.geomspace(1e-3, 10.0, 24))
        raw = base_raw()
        raw["eos"] = {"kind": "tabulated-generic", "s": s, "f": [v**2 for v in s]}
        raw["rotation"] = {
            "kind": "profile",
            "s": [0.0, 1.0, 2.0, 3.0],
            "omega": [0.3, 0.2, 0.1, 0.0],
        }
        spec, _ = cq.build_problem(cq.effective_config(raw))
        assert isinstance(spec.eos, cq.TabulatedEos)
        assert spec.rotation.kind == "profile"

    def test_load_config_file_errors(self, tmp_path):
        with pytest.raises(cq.ConfigError, match="cannot read"):
            load_config_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(cq.ConfigError, match="not valid JSON"):
            load_config_file(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(cq.ConfigError, match="JSON object"):
            load_config_file(str(arr))

    def test_dump_is_stable_and_parseable(self):
        eff = cq.effective_config(base_raw())
        text = dump_effective(eff)
        assert text.endswith("\n")
        assert json.loads(text) == eff
        assert dump_effective(eff) == text


class TestScanMachinery:
    def scan_raw(self, n=24):
        return base_raw(
            n=n,
            core_rho=10.0,
            core_a=0.1,
            extra={"scan": {"omega_values": [0.0, 1.2], "mu_values": [0.0]}},
        )

    def test_from_config_requires_scan_and_constant_rotation(self):
        eff = cq.effective_config(base_raw())
        with pytest.raises(cq.ConfigError, match="missing section 'scan'"):
            cq.ScanSpec.from_config(eff)
        raw = self.scan_raw()
        raw["rotation"] = {
            "kind": "profile",
            "s": [0.0, 1.0, 2.0, 3.0],
            "omega": [0.1, 0.1, 0.1, 0.1],
        }
        with pytest.raises(cq.ConfigError, match="constant"):
            cq.ScanSpec.from_config(cq.effective_config(raw, need_scan=True))

    def test_cell_config_substitution_and_growth(self):
        eff = cq.effective_config(self.scan_raw(), need_scan=True)
        cfg = cell_config(eff, 0.7, 3.0)
        assert "scan" not in cfg
        assert cfg["rotation"] == {"kind": "constant", "omega": 0.7}
        assert cfg["core"]["mu"] == 3.0
        assert cfg["grid"] == eff["grid"]
        grown = cell_config(eff, 0.7, 3.0, grow=1.5)
        assert grown["grid"]["r_max"] == pytest.approx(3.0)
        assert grown["grid"]["z_max"] == pytest.approx(3.0)
        assert grown["grid"]["n_r"] == eff["grid"]["n_r"]

    def test_single_cell_scan_equals_direct_solve(self, tmp_path):
        eff = cq.effective_config(
            base_raw(
                n=24,
                core_rho=10.0,
                core_a=0.1,
                extra={"scan": {"omega_values": [0.3], "mu_values": [2.0]}},
            ),
            need_scan=True,
        )
        table = cq.run_scan(cq.ScanSpec.from_config(eff), tmp_path, workers=1)
        record = table.cells[(0, 0)]
        spec, scf = cq.build_problem(cell_config(eff, 0.3, 2.0))
        solved = cq.solve(spec, scf)
        assert record["outcome"] == cq.outcome_to_dict(solved)
        core_mask = spec.core.mask(spec.grid)
        assert np.any(core_mask)
        written = cq.read_field_csv(tmp_path / "cell_00_00" / "field.csv", spec.grid)
        np.testing.assert_array_equal(written.values, solved.state.rho.values)
        assert np.all(written.values[core_mask] == 0.0)

    def test_retry_marks_and_grows_runoff_cells(self, tmp_path):
        eff = cq.effective_config(self.scan_raw(), need_scan=True)
        table = cq.run_scan(cq.ScanSpec.from_config(eff), tmp_path, workers=1)
        calm = table.cells[(0, 0)]
        windy = table.cells[(1, 0)]
        assert calm["outcome"]["verdict"] == "Converged"
        assert calm["retried"] is False
        assert windy["first_verdict"] == "MassRunoff"
        assert windy["retried"] is True
        assert windy["outcome"]["retried"] is True
        assert windy["outcome"]["verdict"] != "Converged"
        assert windy["config"]["grid"]["r_max"] == pytest.approx(2.0 * 1.5)

    def test_pooled_retry_writes_the_grown_cell(self, tmp_path):
        eff = cq.effective_config(self.scan_raw(), need_scan=True)
        table = cq.run_scan(cq.ScanSpec.from_config(eff), tmp_path, workers=2)
        assert table.cells[(1, 0)]["retried"] is True

        def read(cell, name):
            return json.loads((tmp_path / cell / name).read_text())

        grown = read("cell_01_00", "effective_config.json")["grid"]
        assert grown["r_max"] == pytest.approx(2.0 * 1.5)
        assert grown["z_max"] == pytest.approx(2.0 * 1.5)
        assert read("cell_01_00", "result.json")["retried"] is True
        assert read("cell_00_00", "effective_config.json")["grid"]["r_max"] == 2.0
        assert read("cell_00_00", "result.json")["retried"] is False
        # plain data only: json refuses a numpy array
        json.dumps(list(table.cells.values()))

    def test_pool_results_match_serial(self, tmp_path):
        eff = cq.effective_config(
            base_raw(
                n=24,
                core_rho=10.0,
                core_a=0.1,
                extra={"scan": {"omega_values": [0.0, 0.3], "mu_values": [1.0]}},
            ),
            need_scan=True,
        )
        spec = cq.ScanSpec.from_config(eff)
        serial = cq.run_scan(spec, tmp_path / "serial", workers=1)
        pooled = cq.run_scan(spec, tmp_path / "pooled", workers=2)
        assert sorted(serial.cells) == sorted(pooled.cells)
        for key in serial.cells:
            assert serial.cells[key]["outcome"] == pooled.cells[key]["outcome"]

        def tree(root):
            return {
                str(path.relative_to(root)): path.read_bytes()
                for path in root.rglob("*") if path.is_file()
            }

        written = tree(tmp_path / "serial")
        assert len(written) == 8
        assert written == tree(tmp_path / "pooled")

    def test_monotonicity_warning_wording(self):
        def rec(verdict):
            return {"outcome": {"verdict": verdict}}

        table = ScanTable(
            omega_values=(0.5,),
            mu_values=(0.0, 1.0, 10.0),
            cells={
                (0, 0): rec("MassRunoff"),
                (0, 1): rec("Converged"),
                (0, 2): rec("MassRunoff"),
            },
        )
        notes = _monotonicity_warnings(table)
        assert len(notes) == 1
        assert "omega=0.5" in notes[0]
        assert "mu=10" in notes[0]

    def test_scan_csv_format(self, tmp_path):
        eff = cq.effective_config(self.scan_raw(), need_scan=True)
        table = cq.run_scan(cq.ScanSpec.from_config(eff), tmp_path / "sweep", workers=1)
        path = tmp_path / "scan.csv"
        cq.write_scan_csv(table, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "omega,mu,verdict,lambda,iters,d_r,d_z"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "Converged"
        assert float(first[3]) < 0.0

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("COREQUILIB_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("COREQUILIB_THREADS", "0")
        with pytest.raises(cq.ConfigError):
            worker_count()
        monkeypatch.setenv("COREQUILIB_THREADS", "abc")
        with pytest.raises(cq.ConfigError):
            worker_count()
        monkeypatch.delenv("COREQUILIB_THREADS")
        assert worker_count() >= 1


class TestCli:
    def test_usage_errors_exit_one(self):
        for argv in ([], ["bogus"], ["solve"], ["oracle"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 1

    def test_solve_happy_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_raw())
        out = tmp_path / "run"
        rc = main(["solve", "--config", cfg, "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "verdict=Converged" in printed

        result = json.loads((out / "result.json").read_text())
        assert result["verdict"] == "Converged"
        assert result["lambda"] < 0.0
        eff_back = json.loads((out / "effective_config.json").read_text())
        assert eff_back == cq.effective_config(base_raw())
        assert (out / "field.csv").read_text().splitlines()[0] == "r,z,rho"
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "iter,lambda,energy_total,update_norm"
        assert len(trace_lines) == result["iterations"] + 1

    def test_solve_requires_out(self, tmp_path):
        cfg = write_config(tmp_path, base_raw())
        assert main(["solve", "--config", cfg]) == 1

    def test_solve_nonconverged_exits_three(self, tmp_path):
        raw = base_raw(n=24, omega=1.2, core_rho=10.0, core_a=0.1)
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        rc = main(["solve", "--config", cfg, "--out", str(out)])
        assert rc == 3
        result = json.loads((out / "result.json").read_text())
        assert result["verdict"] in ("MassRunoff", "LambdaBracketFail")

    def test_config_problems_exit_one(self, tmp_path):
        raw = base_raw(extra={"extra_section": {}})
        cfg = write_config(tmp_path, raw)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert (
            main(
                [
                    "solve",
                    "--config",
                    str(tmp_path / "nope.json"),
                    "--out",
                    str(tmp_path / "o"),
                ]
            )
            == 1
        )

    def test_numeric_problems_exit_two(self, capsys):
        # index above the invertibility threshold: the oracle cannot map
        # mass to central density
        assert main(["oracle", "lane-emden", "--gamma", "1.3"]) == 2

    def test_dump_effective_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_raw())
        rc = main(["solve", "--config", cfg, "--dump-effective-config"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert json.loads(printed) == cq.effective_config(base_raw())

    @pytest.mark.parametrize("key, value", OUT_OF_RANGE_SOLVER)
    def test_dump_rejects_out_of_range_solver_keys(
        self, tmp_path, capsys, key, value
    ):
        raw = base_raw()
        raw["solver"][key] = value
        cfg = write_config(tmp_path, raw)
        rc = main(["solve", "--config", cfg, "--dump-effective-config"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "section 'solver': %s" % key in captured.err

    def test_removed_lambda_bracket_key_exits_one(self, tmp_path, capsys):
        raw = base_raw()
        raw["solver"]["lambda_bracket"] = [-10.0, 10.0]
        cfg = write_config(tmp_path, raw)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "unknown key 'lambda_bracket' in section 'solver'" in (
            capsys.readouterr().err
        )

    def test_kernel_too_large_for_memory_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cq.potential, "_physical_memory_bytes", lambda: 64)
        cq.kernel_for.cache_clear()
        cfg = write_config(tmp_path, base_raw(n=32))
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric error: potential kernel for a 32 x 32 grid")
        assert "needs 270336 bytes" in err and "the 64 bytes" in err

    def test_mass_drift_exits_two(self, tmp_path, capsys, monkeypatch):
        rescale = cq.solver.rescale_to_mass

        def off_by_a_millionth(fld, mass):
            return rescale(fld, mass * (1.0 + 1e-6))

        monkeypatch.setattr(cq.solver, "rescale_to_mass", off_by_a_millionth)
        cfg = write_config(tmp_path, base_raw(n=24))
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "numeric error: mass renormalization drifted to 1e-06 relative"
        )

    def test_eos_inversion_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        slope = cq.TabulatedEos._enthalpy_slope_u
        monkeypatch.setattr(
            cq.TabulatedEos,
            "_enthalpy_slope_u",
            lambda self, u: 1e6 * slope(self, u),
        )
        s = np.geomspace(1e-3, 10.0, 24)
        raw = base_raw(n=24)
        raw["eos"] = {
            "kind": "tabulated-generic",
            "s": s.tolist(),
            "f": (s**2).tolist(),
        }
        cfg = write_config(tmp_path, raw)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "numeric error: enthalpy inversion did not reach its tolerance"
        )

    def test_log_uniform_table_solve_converges(self, tmp_path, capsys):
        # an admissible log-uniform table: each sample must be one knot of
        # the fine integration grid, not two a rounding error apart
        s = np.logspace(-4.0, 2.0, 9)
        raw = base_raw(n=32)
        raw["eos"] = {
            "kind": "tabulated-generic",
            "s": s.tolist(),
            "f": (s**2).tolist(),
        }
        cfg = write_config(tmp_path, raw)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "verdict=Converged" in capsys.readouterr().out

    def test_quadrature_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        # a 10-point rule off by 1e-9 disagrees with the 20-point rule on
        # every piece of the table's integral
        monkeypatch.setattr(cq.eos, "leggauss", scaled_rule(10, 1.0 + 1e-9))
        s = np.geomspace(1e-3, 10.0, 24)
        raw = base_raw(n=24)
        raw["eos"] = {
            "kind": "tabulated-generic",
            "s": s.tolist(),
            "f": (s**2).tolist(),
        }
        cfg = write_config(tmp_path, raw)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "numeric error: quadrature of f(t)/t^2 missed its tolerance on ["
        )

    def test_oracle_output(self, capsys):
        rc = main(["oracle", "lane-emden", "--gamma", "2.0", "--k", "1.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["xi1"] == pytest.approx(np.pi, abs=1e-6)
        assert payload["radius"] == pytest.approx(1.2533141373, abs=1e-6)
        assert payload["central_density"] == pytest.approx(
            1.0 / np.sqrt(2.0 * np.pi), abs=1e-8
        )
        assert sorted(payload) == [
            "central_density", "gamma", "k", "mass", "n",
            "radius", "theta_slope", "xi1",
        ]

    def test_scan_cli_writes_table_and_cells(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COREQUILIB_THREADS", "1")
        raw = base_raw(
            n=24,
            core_rho=10.0,
            core_a=0.1,
            extra={"scan": {"omega_values": [0.0, 0.3], "mu_values": [1.0]}},
        )
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "sweep"
        rc = main(["scan", "--config", cfg, "--out", str(out)])
        assert rc == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "omega,mu,verdict,lambda,iters,d_r,d_z"
        assert len(lines) == 3
        for cell in ("cell_00_00", "cell_01_00"):
            for name in ("result.json", "effective_config.json", "field.csv", "trace.csv"):
                assert (out / cell / name).exists()
        printed = capsys.readouterr().out
        assert printed.count("omega=") == 2

    def test_scan_cell_output_matches_solve_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COREQUILIB_THREADS", "1")
        scan_raw = base_raw(
            n=24,
            core_rho=10.0,
            core_a=0.1,
            extra={"scan": {"omega_values": [0.3], "mu_values": [2.0]}},
        )
        solve_raw = base_raw(n=24, omega=0.3, mu=2.0, core_rho=10.0, core_a=0.1)
        scan_cfg = write_config(tmp_path, scan_raw, "scan.json")
        solve_cfg = write_config(tmp_path, solve_raw, "solve.json")
        sweep = tmp_path / "sweep"
        single = tmp_path / "single"
        assert main(["scan", "--config", scan_cfg, "--out", str(sweep)]) == 0
        assert main(["solve", "--config", solve_cfg, "--out", str(single)]) == 0
        cell = sweep / "cell_00_00"
        for name in ("result.json", "field.csv", "trace.csv"):
            assert (cell / name).read_bytes() == (single / name).read_bytes()

    def test_check_reports_stable_ratios(self, tmp_path, capsys):
        raw = {
            "eos": {"kind": "polytrope", "k": 1.0, "gamma": 2.0},
            "grid": {"r_max": 1.0, "z_max": 1.0, "n_r": 16, "n_z": 16},
            "core": {"a_r": 0.25, "a_z": 0.25, "rho": 2.0, "mu": 1.0},
        }
        cfg = write_config(tmp_path, raw)
        rc = main(["check", "--config", cfg])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["passed"] is True
        assert payload["ensemble_fields"] == 100
        assert payload["grid"] == {"base": [16, 16], "refined": [32, 32]}
        assert payload["eos_growth_conditions"] == "satisfied"
        assert payload["core_potential"]["passed"] is True
        for key in ("self_energy_bound_ratio", "sup_bound_ratio"):
            assert payload[key]["rel_change"] <= 0.10

    def test_cli_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, base_raw())
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "corequilib",
                    "solve", "--config", cfg, "--out", str(out),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for name in ("result.json", "field.csv", "trace.csv", "effective_config.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        raw = base_raw(n=32, omega=0.4, mu=1.0, core_rho=10.0, core_a=0.1)
        cfg = write_config(tmp_path, raw)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / ("threads-" + threads)
            proc = subprocess.run(
                [
                    sys.executable, "-m", "corequilib",
                    "solve", "--config", cfg, "--out", str(out),
                ],
                capture_output=True,
                text=True,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for name in ("result.json", "field.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
