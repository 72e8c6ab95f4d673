"""Configuration loading, sweep machinery, and command-line behavior.

CLI tests call main() in-process for speed; byte-level determinism and the
installed entry point are exercised through subprocesses.
"""

import concurrent.futures
import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import corequilib as cq
from corequilib import config
from corequilib.cli import main
from corequilib.config import cpu_budget, load_config_file
from corequilib.output import json_text
from corequilib.scan import ScanTable, _monotonicity_warnings, cell_config
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
    ("tol_residual", 0.0),
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
        spec, scf = cq.build_problem(eff)
        assert scf == cq.ScfConfig()
        assert isinstance(spec.eos, cq.Polytrope)
        assert eff["rotation"] == {"kind": "constant", "omega": 0.0}
        assert eff["core"]["rho"] == 0.0
        assert eff["core"]["mu"] == 0.0
        assert eff["core"]["a_r"] == eff["core"]["a_z"] == 0.0
        assert "scan" not in eff

    def test_materialization_is_idempotent(self):
        raw = base_raw(
            extra={
                "scan": {"omega_values": [0.0, 0.5], "mu_values": [0.0, 1.0]}
            }
        )
        eff = cq.effective_config(raw)
        again = cq.effective_config(eff)
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

    @pytest.mark.parametrize("grid", [
        {"r_max": 2, "z_max": 2, "n_r": 32, "n_z": 32},
        {"r_max": 1, "z_max": 1, "n_r": 600, "n_z": 600},
        # a core of 1e-3 r_max would stick out of the grid
        {"r_max": 2, "z_max": 0.0015, "n_r": 16, "n_z": 8},
        # a core of 1e-3 r_max would cover two cell centres
        {"r_max": 1, "z_max": 0.004, "n_r": 600, "n_z": 8},
    ])
    def test_coreless_config_gets_the_empty_core(self, grid):
        eff = cq.effective_config({"eos": POLY, "grid": grid})
        assert eff["core"] == {"a_r": 0.0, "a_z": 0.0, "rho": 0.0, "mu": 0.0}
        spec, _ = cq.build_problem(eff)
        assert not spec.core.mask(spec.grid).any()

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
        with pytest.raises(cq.ConfigError, match="unknown key 'path'"):
            cq.effective_config(raw)

    def test_scan_section_validation(self):
        raw = base_raw()
        with pytest.raises(cq.ConfigError, match="missing section 'scan'"):
            cq.ScanSpec.from_config(cq.effective_config(raw))
        raw["scan"] = {"omega_values": [0.5, 0.5], "mu_values": [0.0]}
        with pytest.raises(cq.ConfigError, match="strictly increasing"):
            cq.effective_config(raw)
        raw["scan"] = {
            "omega_values": [0.0, 0.5],
            "mu_values": [0.0],
            "retry_factor": 1.0,
        }
        with pytest.raises(cq.ConfigError, match="must exceed 1"):
            cq.effective_config(raw)

    def test_build_problem_values(self):
        eff = cq.effective_config(
            base_raw(omega=0.4, mu=2.0, core_rho=5.0, core_a=0.1)
        )
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
        text = json_text(eff)
        assert text.endswith("\n")
        assert json.loads(text) == eff
        assert json_text(eff) == text


class TestScanMachinery:
    def scan_raw(self, n=24):
        return base_raw(
            n=n,
            core_rho=10.0,
            core_a=0.15,
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
            cq.ScanSpec.from_config(cq.effective_config(raw))

    def test_cell_config_substitution_and_growth(self):
        eff = cq.effective_config(self.scan_raw())
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
                core_a=0.15,
                extra={"scan": {"omega_values": [0.3], "mu_values": [2.0]}},
            ),
        )
        table = cq.run_scan(cq.ScanSpec.from_config(eff), tmp_path, budget=1)
        record = table.cells[(0, 0)]
        spec, scf = cq.build_problem(cell_config(eff, 0.3, 2.0))
        solved = cq.solve(spec, scf)
        assert record["outcome"] == cq.outcome_to_dict(solved)
        core_mask = spec.core.mask(spec.grid)
        assert np.any(core_mask)
        written = cq.read_field_csv(tmp_path / "cell_00_00" / "field.csv", spec.grid)
        np.testing.assert_array_equal(written.values, solved.rho.values)
        assert np.all(written.values[core_mask] == 0.0)

    def test_retry_marks_and_grows_runoff_cells(self, tmp_path):
        eff = cq.effective_config(self.scan_raw())
        table = cq.run_scan(cq.ScanSpec.from_config(eff), tmp_path, budget=1)
        calm = table.cells[(0, 0)]
        windy = table.cells[(1, 0)]
        assert calm["outcome"]["verdict"] == "Converged"
        assert calm["outcome"]["retried"] is False
        first = cq.solve(*cq.build_problem(cell_config(eff, 1.2, 0.0)))
        assert first.verdict == "MassRunoff"
        assert windy["outcome"]["retried"] is True
        assert windy["outcome"]["verdict"] != "Converged"
        grown = json.loads(
            (tmp_path / "cell_01_00" / "effective_config.json").read_text()
        )
        assert grown["grid"]["r_max"] == pytest.approx(2.0 * 1.5)

    def test_pooled_retry_writes_the_grown_cell(self, tmp_path):
        eff = cq.effective_config(self.scan_raw())
        table = cq.run_scan(cq.ScanSpec.from_config(eff), tmp_path, budget=2)
        assert table.cells[(1, 0)]["outcome"]["retried"] is True

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
                core_a=0.15,
                extra={"scan": {"omega_values": [0.0, 0.3], "mu_values": [1.0]}},
            ),
        )
        spec = cq.ScanSpec.from_config(eff)
        serial = cq.run_scan(spec, tmp_path / "serial", budget=1)
        pooled = cq.run_scan(spec, tmp_path / "pooled", budget=2)
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
        eff = cq.effective_config(self.scan_raw())
        table = cq.run_scan(cq.ScanSpec.from_config(eff), tmp_path / "sweep", budget=1)
        path = tmp_path / "scan.csv"
        cq.write_scan_csv(table, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "omega,mu,verdict,lambda,iters,d_r,d_z"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "Converged"
        assert float(first[3]) < 0.0

    def test_worker_count_env(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("COREQUILIB_THREADS", "3")
        assert cpu_budget() == 3
        cfg = write_config(tmp_path, base_raw(n=16))
        for raw, message in (("0", "at least 1"), ("abc", "an integer")):
            monkeypatch.setenv("COREQUILIB_THREADS", raw)
            with pytest.raises(cq.ConfigError):
                cpu_budget()
            rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "run")])
            assert rc == 1
            assert capsys.readouterr().err == (
                "config error: COREQUILIB_THREADS must be %s\n" % message
            )
        monkeypatch.delenv("COREQUILIB_THREADS")
        assert cpu_budget() >= 1

    def test_scan_worker_that_dies_exits_two(self, monkeypatch, tmp_path, capsys):
        # the worker of the cell at omega 0.3 dies once the cell at omega 0
        # is written: only the dead worker's cell is lost
        monkeypatch.setenv("COREQUILIB_THREADS", "2")
        out = tmp_path / "sweep"
        monkeypatch.setattr(cq.scan, "solve", functools.partial(
            _die_at_omega_0_3, out / "cell_00_00" / "result.json"
        ))
        sweep = {"scan": {"omega_values": [0.0, 0.3], "mu_values": [0.0]}}
        cfg = write_config(tmp_path, base_raw(n=16, extra=sweep))
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 3
        assert re.fullmatch(r"cell 00 00: \w+, \d+ iterations, .*", err[0])
        assert err[1].startswith("cell 01 00: worker died: A process in the ")
        assert err[2] == "scan error: 1 of 2 cells failed"
        rows = (out / "scan.csv").read_text().splitlines()
        assert rows[2] == "0.29999999999999999,0,Error,nan,nan,nan,nan"
        assert rows[1].split(",")[2] == captured.out.split()[1] != "Error"
        assert (out / "cell_00_00" / "field.csv").exists()
        assert not (out / "cell_01_00").exists()

    @pytest.mark.parametrize("budget", ["1", "2"])
    def test_scan_goes_on_past_a_cell_that_raises(
        self, monkeypatch, tmp_path, capsys, budget
    ):
        # patched before the pool forks, so the workers inherit it
        monkeypatch.setenv("COREQUILIB_THREADS", budget)
        monkeypatch.setattr(cq.scan, "solve", _raise_in_one_cell)
        sweep = {"scan": {"omega_values": [0.0, 1.0, 1.5], "mu_values": [0.0, 1.0]}}
        cfg = write_config(tmp_path, base_raw(n=16, extra=sweep))
        out = tmp_path / "sweep"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        for i, j in ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1)):
            assert any(line.startswith("cell %02d %02d: " % (i, j)) for line in err)
            assert (out / ("cell_%02d_%02d" % (i, j)) / "result.json").exists()
        assert "cell 00 01: numeric error: no inverse at omega 0, mu 1" in err
        assert err[-1] == "scan error: 1 of 6 cells failed"
        # an error is no verdict: it breaks no row's monotonicity
        assert not any(line.startswith("warning:") for line in err)
        assert not (out / "cell_00_01").exists()
        rows = (out / "scan.csv").read_text().splitlines()
        assert len(rows) == 7
        assert rows[1].split(",")[2] == "Converged"
        assert rows[2] == "0,1,Error,nan,nan,nan,nan"
        table = captured.out.splitlines()
        assert len(table) == 3 and table[0].split()[1:] == ["Converged", "Error"]

    @pytest.mark.parametrize("budget", ["1", "2"])
    def test_a_cell_whose_config_overflows_is_an_error_cell(
        self, monkeypatch, tmp_path, capsys, budget
    ):
        monkeypatch.setenv("COREQUILIB_THREADS", budget)
        sweep = {"scan": {"omega_values": [0.0, 1e200], "mu_values": [0.0]}}
        cfg = write_config(tmp_path, base_raw(n=16, extra=sweep))
        out = tmp_path / "sweep"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[1] == "cell 01 00: numeric error: %s" % OVERFLOW
        assert err[-1] == "scan error: 1 of 2 cells failed"
        rows = (out / "scan.csv").read_text().splitlines()
        assert rows[1].split(",")[2] == "Converged"
        assert rows[2] == "9.9999999999999997e+199,0,Error,nan,nan,nan,nan"
        assert (out / "cell_00_00" / "result.json").exists()
        assert not (out / "cell_01_00").exists()

    def test_a_cell_that_cannot_be_written_is_an_error_cell(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("COREQUILIB_THREADS", "1")
        sweep = {"scan": {"omega_values": [0.0], "mu_values": [0.0, 1.0]}}
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "cell_00_00").write_text("in the way")
        cfg = write_config(tmp_path, base_raw(n=16, extra=sweep))
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("cell 00 00: io error: [Errno 17] File exists: ")
        assert err[1].startswith("cell 00 01: Converged, ")
        assert err[-1] == "scan error: 1 of 2 cells failed"
        rows = (out / "scan.csv").read_text().splitlines()
        assert rows[1] == "0,0,Error,nan,nan,nan,nan"
        assert rows[2].split(",")[2] == "Converged"
        assert (out / "cell_00_01" / "result.json").exists()

    def test_scan_prints_the_table_warnings(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("COREQUILIB_THREADS", "1")
        run_scan = cq.cli.run_scan

        def with_a_warning(*args):
            table = run_scan(*args)
            table.warnings.append("row omega=0: a note")
            return table

        monkeypatch.setattr(cq.cli, "run_scan", with_a_warning)
        sweep = {"scan": {"omega_values": [0.0], "mu_values": [0.0]}}
        cfg = write_config(tmp_path, base_raw(n=16, extra=sweep))
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == "warning: row omega=0: a note"
        assert captured.out.split() == ["omega=0", "Converged"]

    def test_collapsed_multiplier_bracket_is_an_error_cell(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("COREQUILIB_THREADS", "1")
        monkeypatch.setattr(cq.solver, "MASS_TOL", 1e-18)
        sweep = {"scan": {"omega_values": [0.5], "mu_values": [1.0]}}
        raw = base_raw(n=24, core_rho=10.0, core_a=0.2, extra=sweep)
        out = tmp_path / "sweep"
        assert main(["scan", "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("cell 00 00: numeric error: multiplier bracket ")
        assert err[-1] == "scan error: 1 of 1 cells failed"
        rows = (out / "scan.csv").read_text().splitlines()
        assert rows[1] == "0.5,1,Error,nan,nan,nan,nan"

    def test_scan_with_a_bad_config_creates_no_out_and_no_pool(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("COREQUILIB_THREADS", "2")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        raw = base_raw(n=16, extra={"scan": dict(SWEEP)})
        raw["eos"] = dict(POLY, gamma=1.2)
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "sweep"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: polytrope exponent gamma must exceed 4/3, got 1.2\n"
        )
        assert not out.exists()

    def test_scan_from_a_guess_file_exits_one_before_out(
        self, monkeypatch, tmp_path, capsys
    ):
        # a retried cell's grown grid can never match the file, even when
        # the base grid does
        monkeypatch.setenv("COREQUILIB_THREADS", "1")
        guess = tmp_path / "guess.csv"
        grid = cq.CylGrid(2.0, 2.0, 16, 16)
        cq.write_field_csv(cq.DensityField(grid, np.ones((16, 16))), guess)
        raw = base_raw(n=16, extra={"scan": dict(SWEEP)})
        raw["solver"]["initial_guess"] = {"kind": "from-file", "path": str(guess)}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "sweep"
        for extra in (["--dump-effective-config"], ["--out", str(out)]):
            assert main(["scan", "--config", cfg] + extra) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "config error: scans start each cell on its own grid; key "
                "'initial_guess' in section 'solver' must not be 'from-file'\n"
            )
        assert not out.exists()


def _die_at_omega_0_3(written, spec, config, threads=1):
    """Stands in for a cell's solve whose worker is killed at omega 0.3,
    once the file ``written`` exists and the record written with it has had
    time to reach the pool."""
    if spec.rotation.omega != 0.3:
        return cq.solve(spec, config, threads=threads)
    deadline = time.monotonic() + 60.0
    while not os.path.exists(written) and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.5)
    os._exit(9)


def _raise_in_one_cell(spec, config, threads=1):
    """Stands in for a cell's solve that raises at omega 0 and mu 1."""
    if spec.rotation.omega == 0.0 and spec.mu == 1.0:
        raise cq.EosInversionError("no inverse at omega 0, mu 1")
    return cq.solve(spec, config, threads=threads)


def _no_pool(*args, **kwargs):
    """Stands in for the scan's process pool, which must not be started."""
    raise AssertionError("a process pool was constructed")


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

    def test_guess_file_that_does_not_fit_the_grid_exits_one(
        self, tmp_path, capsys, monkeypatch, recwarn
    ):
        monkeypatch.setenv("COREQUILIB_THREADS", "1")
        guess = tmp_path / "guess.csv"
        grid = cq.CylGrid(2.0, 2.0, 48, 48)
        cq.write_field_csv(cq.DensityField(grid, np.ones((48, 48))), guess)
        lines = guess.read_text().splitlines(keepends=True)
        raw = base_raw(n=32)
        raw["solver"]["initial_guess"] = {"kind": "from-file", "path": str(guess)}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        rows = "field file has %d rows, grid needs 1024"
        # the 48^2 field, its first row alone, its header alone, and its
        # first row followed by a row of two fields
        short = lines[2].rsplit(",", 1)[0] + "\n"
        for text, message in (
            (None, rows % 2304), (lines[0] + lines[1], rows % 1),
            (lines[0], rows % 0),
            (lines[0] + lines[1] + short, "field file line 3 has 2 fields, not r,z,rho"),
        ):
            if text is not None:
                guess.write_text(text)
            for argv in (
                ["solve", "--config", cfg, "--out", str(out)],
                ["solve", "--config", cfg, "--dump-effective-config"],
                ["check", "--config", cfg],
            ):
                assert main(argv) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == "config error: %s\n" % message
        assert not out.exists()
        assert not recwarn.list

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
        # central densities out of a float's range: an overflow, and a zero
        # raised to a negative power
        for argv in (["--gamma", "1.34", "--mass", "1e300"], ["--gamma", "1.3334"]):
            assert main(["oracle", "lane-emden"] + argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.fullmatch(r"numeric error: [^\n]+\n", captured.err)

    @pytest.mark.parametrize("argv, name, least", [
        (["--gamma", "2", "--k", "-1"], "k", "0"),
        (["--gamma", "2", "--k", "0"], "k", "0"),
        (["--gamma", "2", "--k", "inf"], "k", "0"),
        (["--gamma", "2", "--mass", "-1"], "mass", "0"),
        (["--gamma", "2", "--mass", "0"], "mass", "0"),
        (["--gamma", "2", "--mass=-inf"], "mass", "0"),
        (["--gamma", "nan"], "gamma", "4/3"),
        # the mass relation needs the index n = 1 / (gamma - 1) below 3
        (["--gamma", "1.0"], "gamma", "4/3"),
        (["--gamma", "1.3"], "gamma", "4/3"),
        (["--gamma", repr(4.0 / 3.0)], "gamma", "4/3"),
    ])
    def test_oracle_refuses_bad_arguments(self, capsys, argv, name, least):
        assert main(["oracle", "lane-emden"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "oracle: --%s must be finite and exceed %s\n" % (
            name, least
        )

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

    @pytest.mark.parametrize("command, section, key, value", [
        ("solve", "core", "mu", float("nan")),
        ("solve", "core", "rho", float("nan")),
        ("solve", "rotation", "omega", float("nan")),
        ("solve", "rotation", "omega", float("inf")),
        ("solve", "solver", "tol_density", float("inf")),
        ("solve", "solver", "mass", float("inf")),
        ("solve", "eos", "k", float("-inf")),
        # an integer beyond the float range
        pytest.param("check", "grid", "r_max", 10**400, id="check-grid-r_max-1e400"),
        ("scan", "scan", "omega_values", [0.0, float("nan")]),
    ])
    def test_non_finite_numbers_exit_one(
        self, tmp_path, capsys, monkeypatch, command, section, key, value
    ):
        # json reads NaN, Infinity and -Infinity as floats
        monkeypatch.setenv("COREQUILIB_THREADS", "1")
        raw = base_raw(extra={"scan": dict(SWEEP)} if command == "scan" else None)
        raw[section][key] = value
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        run = ["--out", str(out)] if command != "check" else []
        for argv in ([command, "--config", cfg, *run],
                     [command, "--config", cfg, "--dump-effective-config"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "config error: key '%s' in section '%s' must be finite\n"
                % (key, section)
            )
        assert not out.exists()

    def test_removed_lambda_bracket_key_exits_one(self, tmp_path, capsys):
        raw = base_raw()
        raw["solver"]["lambda_bracket"] = [-10.0, 10.0]
        cfg = write_config(tmp_path, raw)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "unknown key 'lambda_bracket' in section 'solver'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("key, value", [
        ("mass_tol", 1e-10), ("runoff_fraction", 0.05), ("runoff_margin_cells", 2),
    ])
    @pytest.mark.parametrize("dump", [True, False])
    def test_removed_verdict_keys_exit_one(self, tmp_path, capsys, key, value, dump):
        # the tests behind the verdicts are solver constants, not settings
        raw = base_raw()
        raw["solver"][key] = value
        cfg = write_config(tmp_path, raw)
        extra = ["--dump-effective-config"] if dump else ["--out", str(tmp_path / "o")]
        assert main(["solve", "--config", cfg] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: unknown key '%s' in section 'solver'\n" % key
        )
        assert not (tmp_path / "o").exists()

    def test_collapsed_multiplier_bracket_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        # no multiplier reconstructs the mass to 1e-18: a numeric failure,
        # not the LambdaBracketFail verdict
        monkeypatch.setattr(cq.solver, "MASS_TOL", 1e-18)
        raw = base_raw(n=32, omega=0.4, mu=1.0, core_rho=10.0, core_a=0.2)
        cfg = write_config(tmp_path, raw)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            r"numeric error: multiplier bracket collapsed at \S+ with the mass "
            r"off by \S+ relative\n", captured.err,
        )

    def test_kernel_too_large_for_memory_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cq.potential, "_physical_memory_bytes", lambda: 64)
        cq.potential._shape_kernel.cache_clear()
        cfg = write_config(tmp_path, base_raw(n=32))
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric error: potential kernel for a 32 x 32 grid")
        assert "needs 270336 bytes" in err and "the 64 bytes" in err

    @pytest.mark.parametrize("command", ["solve", "scan"])
    def test_out_naming_a_file_exits_one(self, tmp_path, capsys, monkeypatch, command):
        # a solve meets the file only at its outputs, after its SCF
        monkeypatch.setenv("COREQUILIB_THREADS", "1")
        sweep = {"scan": {"omega_values": [0.0], "mu_values": [0.0]}}
        raw = base_raw(n=16, extra=sweep if command == "scan" else None)
        out = tmp_path / "taken"
        out.write_text("")
        cfg = write_config(tmp_path, raw)
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "io error: [Errno 17] File exists: %r\n" % str(out)

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
        table_enthalpy = cq.TabulatedEos._table_enthalpy

        def too_steep(self, u):
            value, slope = table_enthalpy(self, u)
            return value, 1e6 * slope

        monkeypatch.setattr(cq.TabulatedEos, "_table_enthalpy", too_steep)
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
            core_a=0.15,
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
            core_a=0.15,
            extra={"scan": {"omega_values": [0.3], "mu_values": [2.0]}},
        )
        solve_raw = base_raw(n=24, omega=0.3, mu=2.0, core_rho=10.0, core_a=0.15)
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

    def test_outputs_do_not_depend_on_the_cpu_budget(self, tmp_path, monkeypatch):
        # a 128 x 96 grid, whose kernel runs on two threads out of two
        raw = base_raw(omega=0.4, mu=1.0, core_rho=10.0, core_a=0.1)
        raw["grid"] = {"r_max": 2.0, "z_max": 1.5, "n_r": 128, "n_z": 96}
        cfg = write_config(tmp_path, raw)
        for threads in ("1", "2"):
            monkeypatch.setenv("COREQUILIB_THREADS", threads)
            out = tmp_path / ("threads-" + threads)
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        info = cq.potential._shape_kernel.cache_info
        hits = info().hits
        assert cq.kernel_for(cq.CylGrid(2.0, 1.5, 128, 96), 2).threads == 2
        assert info().hits == hits + 1  # the solve's kernel
        for name in ("result.json", "field.csv", "trace.csv", "effective_config.json"):
            one = (tmp_path / "threads-1" / name).read_bytes()
            assert one == (tmp_path / "threads-2" / name).read_bytes()

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


# -- every config message, pinned -----------------------------------------------

POLY = {"kind": "polytrope", "k": 1.0, "gamma": 2.0}
TABLE = {
    "kind": "tabulated-generic",
    "s": [1e-3, 1e-2, 1e-1, 1.0, 10.0],
    "f": [1e-6, 1e-4, 1e-2, 1.0, 100.0],
}
CORE = {"a_r": 0.02, "a_z": 0.02, "rho": 0.0, "mu": 0.0}
PROFILE_CORE = {
    "profile_z": [-0.1, 0.0, 0.1], "profile_a": [0.0, 0.1, 0.0],
    "rho": 10.0, "mu": 1.0,
}
PROFILE_ROTATION = {
    "kind": "profile", "s": [0.0, 1.0, 2.0, 3.0], "omega": [0.3, 0.2, 0.1, 0.0],
}
#: a profile that stops short of the outer cell centre of base_raw()'s grid
SHORT_ROTATION = dict(PROFILE_ROTATION, s=[0.0, 0.25, 0.5, 1.0])
SHORT_ROTATION_MESSAGE = "rotation profile sampled only to s = 1, grid needs 1.96875"
SWEEP = {"omega_values": [0.0, 0.5], "mu_values": [0.0, 1.0]}
DROP = "<dropped>"
#: dense cores that cover no cell centre of base_raw()'s grid, and only
#: of the scan's grown retry grid
DENSE_CORE = dict(CORE, rho=10.0)
RETRY_CORE = dict(DENSE_CORE, a_r=0.08, a_z=0.08)
NO_CELL = "core covers no cell centre of the 32 x 32 grid with r_max %s and z_max %s"
NO_SHELL = "uniform-shell guess does not fit between core and boundary"


def shell_guess(n, a, rho, scan=False):
    """A uniform-shell guess on an n^2 grid of the 1 x 1 box, around a core
    of radius a: the shell runs from 1.1 a to 0.5."""
    raw = faulty("solver", {"initial_guess": "uniform-shell"}, scan)
    raw["grid"] = {"r_max": 1.0, "z_max": 1.0, "n_r": n, "n_z": n}
    raw["core"] = {"a_r": a, "a_z": a, "rho": rho, "mu": 1.0}
    return raw


def faulty(section, value, scan=False):
    """base_raw() with one section replaced, or dropped by DROP."""
    raw = base_raw(extra={"scan": dict(SWEEP)} if scan else None)
    if value == DROP:
        del raw[section]
    else:
        raw[section] = value
    return raw


def check_config(command, raw):
    """What a run of ``command`` checks before it solves; the effective config."""
    eff = cq.effective_config(raw)
    if command == "scan":
        cq.ScanSpec.from_config(eff)
    cq.build_problem(eff)
    return eff


#: a profile core whose one positive sample is at z = 0, but whose
#: interpolant reaches |z| = 1, past the grid's z_max 0.5
TALL_PROFILE = dict(
    faulty("core", dict(PROFILE_CORE, profile_z=[-1.0, 0.0, 1.0],
                        profile_a=[0.0, 0.5, 0.0])),
    grid={"r_max": 2.0, "z_max": 0.5, "n_r": 32, "n_z": 16},
)


OVERFLOW = "a config value overflows a float"
#: a rotation whose omega**2 overflows a float
FAST_ROTATION = faulty("rotation", {"kind": "constant", "omega": 1e200})
#: a grid of extent 1e200 and a core that fits it: the guess's width squared
#: overflows a float, after numpy has squared the cell centres to inf
HUGE_GRID = dict(
    faulty("grid", {"r_max": 1e200, "z_max": 1e200, "n_r": 32, "n_z": 32}),
    core={"a_r": 1e199, "a_z": 1e199, "rho": 1.0, "mu": 1.0},
    rotation={"kind": "constant", "omega": 1.0},
)
SQUARES_TO_INF = pytest.mark.filterwarnings(
    "ignore:overflow encountered in square:RuntimeWarning"
)


#: (command, config, message): each config breaks exactly one rule; a
#: string is the config file's text and None a file that does not exist
CONFIG_FAULTS = [
    ("solve", None, "cannot read config file: [Errno 2] No such file or "
     "directory: '<path>'"),
    ("solve", "{not json", "config is not valid JSON: Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1)"),
    ("solve", "[1, 2]", "config must be a JSON object"),
    ("solve", faulty("extra", {}), "unknown section 'extra'"),
    ("solve", faulty("eos", DROP), "missing section 'eos'"),
    ("solve", faulty("grid", DROP), "missing section 'grid'"),
    ("scan", base_raw(), "missing section 'scan'"),
    # eos
    ("solve", faulty("eos", None), "section 'eos' needs a 'kind' key"),
    ("solve", faulty("eos", {"k": 1.0, "gamma": 2.0}),
     "section 'eos' needs a 'kind' key"),
    ("solve", faulty("eos", dict(POLY, kind="ideal")), "unknown eos kind 'ideal'"),
    ("solve", faulty("eos", dict(POLY, kind=[1])), "unknown eos kind [1]"),
    ("solve", faulty("eos", {"kind": "polytrope", "gamma": 2.0}),
     "missing key 'k' in section 'eos'"),
    ("solve", faulty("eos", {"kind": "polytrope", "k": 1.0}),
     "missing key 'gamma' in section 'eos'"),
    ("solve", faulty("eos", dict(POLY, s=[1.0])), "unknown key 's' in section 'eos'"),
    ("solve", faulty("eos", dict(POLY, k="1")),
     "key 'k' in section 'eos' must be a number"),
    ("solve", faulty("eos", dict(POLY, k=True)),
     "key 'k' in section 'eos' must be a number"),
    ("solve", faulty("eos", dict(POLY, k=0)), "key 'k' in section 'eos' must be positive"),
    ("solve", faulty("eos", dict(POLY, gamma=-2.0)),
     "key 'gamma' in section 'eos' must be positive"),
    ("solve", faulty("eos", dict(POLY, gamma=1.2)),
     "polytrope exponent gamma must exceed 4/3, got 1.2"),
    ("solve", faulty("eos", {"kind": "tabulated-generic", "s": TABLE["s"]}),
     "missing key 'f' in section 'eos'"),
    ("solve", faulty("eos", {"kind": "tabulated-generic", "f": TABLE["f"]}),
     "missing key 's' in section 'eos'"),
    ("solve", faulty("eos", dict(TABLE, gamma=2.0)),
     "unknown key 'gamma' in section 'eos'"),
    ("solve", faulty("eos", dict(TABLE, s=[])),
     "key 's' in section 'eos' must be a non-empty array"),
    ("solve", faulty("eos", dict(TABLE, s="abc")),
     "key 's' in section 'eos' must be a non-empty array"),
    ("solve", faulty("eos", dict(TABLE, f=[1e-6, "x", 1e-2, 1.0, 100.0])),
     "key 'f' in section 'eos' must be a number"),
    ("solve", faulty("eos", dict(TABLE, s=TABLE["s"][:4])),
     "s_table and f_table must be 1-d and equal length"),
    ("solve", faulty("eos", dict(TABLE, s=TABLE["s"][:3], f=TABLE["f"][:3])),
     "need at least 4 table samples"),
    ("solve", faulty("eos", dict(TABLE, s=[1e-3, 1e-2, 1e-2, 1.0, 10.0])),
     "s_table must be positive and strictly increasing"),
    ("solve", faulty("eos", dict(TABLE, f=[1e-6, 1e-4, 1e-5, 1.0, 100.0])),
     "f_table must be positive and strictly increasing"),
    ("solve", faulty("eos", dict(TABLE, s=[1.0, 2.0, 4.0, 8.0], f=[1.0, 2.0, 8.0, 32.0])),
     "table slope near zero density is 1.000, must exceed 4/3"),
    ("solve", faulty("eos", dict(TABLE, s=[1.0, 2.0, 4.0, 8.0], f=[1.0, 4.0, 16.0, 20.0])),
     "table slope at high density is 0.322, must exceed 4/3"),
    # grid
    ("solve", faulty("grid", [2.0, 2.0, 32, 32]), "section 'grid' must be an object"),
    ("solve", faulty("grid", {"r_max": 2.0, "z_max": 2.0, "n_r": 32}),
     "missing key 'n_z' in section 'grid'"),
    ("solve", faulty("grid", dict(base_raw()["grid"], n=32)),
     "unknown key 'n' in section 'grid'"),
    ("solve", faulty("grid", dict(base_raw()["grid"], r_max="2")),
     "key 'r_max' in section 'grid' must be a number"),
    ("solve", faulty("grid", dict(base_raw()["grid"], z_max=0.0)),
     "key 'z_max' in section 'grid' must be positive"),
    ("solve", faulty("grid", dict(base_raw()["grid"], n_r=32.5)),
     "key 'n_r' in section 'grid' must be an integer"),
    ("solve", faulty("grid", dict(base_raw()["grid"], n_r=True)),
     "key 'n_r' in section 'grid' must be an integer"),
    ("solve", faulty("grid", dict(base_raw()["grid"], n_z=4)),
     "key 'n_z' in section 'grid' must be at least 8"),
    # core
    ("solve", faulty("core", "sphere"), "section 'core' must be an object"),
    ("solve", faulty("core", dict(CORE, radius=0.1)),
     "unknown key 'radius' in section 'core'"),
    ("solve", faulty("core", {"a_r": 0.02}), "missing key 'a_z' in section 'core'"),
    ("solve", faulty("core", dict(CORE, a_r=-0.02)),
     "key 'a_r' in section 'core' must be non-negative"),
    ("solve", faulty("core", dict(CORE, rho=-1.0)),
     "key 'rho' in section 'core' must be non-negative"),
    ("solve", faulty("core", dict(CORE, mu="1")),
     "key 'mu' in section 'core' must be a number"),
    ("solve", faulty("core", dict(PROFILE_CORE, a_r=0.1)),
     "section 'core' mixes spheroid keys with profile keys"),
    ("solve", faulty("core", {"profile_z": [0.0, 0.1]}),
     "missing key 'profile_a' in section 'core'"),
    ("solve", faulty("core", dict(PROFILE_CORE, profile_z=0.1)),
     "key 'profile_z' in section 'core' must be a non-empty array"),
    ("solve", faulty("core", dict(PROFILE_CORE, profile_a=[0.0, -0.1, 0.0])),
     "key 'profile_a' in section 'core' must be non-negative"),
    ("solve", faulty("core", dict(CORE, a_r=5.0, a_z=5.0)),
     "core does not fit strictly inside the grid"),
    ("solve", faulty("core", dict(PROFILE_CORE, profile_z=[0.1, 0.0, -0.1])),
     "profile z samples must be strictly increasing"),
    ("solve", faulty("core", dict(PROFILE_CORE, profile_a=[0.0, 0.1])),
     "profile arrays must be 1-d and equal length"),
    ("solve", faulty("core", dict(PROFILE_CORE, profile_a=[0.0, 0.0, 0.0])),
     "profile radii must be >= 0 and not all zero"),
    # rotation
    ("solve", faulty("rotation", {"omega": 0.4}),
     "section 'rotation' needs a 'kind' key"),
    ("solve", faulty("rotation", {"kind": "differential"}),
     "unknown rotation kind 'differential'"),
    ("solve", faulty("rotation", {"kind": "constant", "s": [0.0]}),
     "unknown key 's' in section 'rotation'"),
    ("solve", faulty("rotation", {"kind": "constant", "omega": -0.1}),
     "key 'omega' in section 'rotation' must be non-negative"),
    ("solve", faulty("rotation", {"kind": "profile", "omega": [0.1]}),
     "missing key 's' in section 'rotation'"),
    ("solve", faulty("rotation", dict(PROFILE_ROTATION, omega=0.3)),
     "key 'omega' in section 'rotation' must be a non-empty array"),
    ("solve", faulty("rotation", dict(PROFILE_ROTATION, s=[0.0, -1.0, 2.0, 3.0])),
     "key 's' in section 'rotation' must be non-negative"),
    ("solve", faulty("rotation", {"kind": "profile", "s": [0.0, 1.0], "omega": [0.1, 0.1]}),
     "profile needs matching 1-d arrays, >= 4 samples"),
    ("solve", faulty("rotation", dict(PROFILE_ROTATION, s=[0.5, 1.0, 2.0, 3.0])),
     "profile s samples must start at 0 and increase"),
    ("scan", faulty("rotation", PROFILE_ROTATION, scan=True),
     "scans sweep constant rotation; section 'rotation' must have kind 'constant'"),
    # solver
    ("solve", faulty("solver", [1.0]), "section 'solver' must be an object"),
    ("solve", faulty("solver", {"lambda_bracket": [-1.0, 1.0]}),
     "unknown key 'lambda_bracket' in section 'solver'"),
    ("solve", faulty("solver", {"mass": 0.0}),
     "key 'mass' in section 'solver' must be positive"),
    ("solve", faulty("solver", {"mass": True}),
     "key 'mass' in section 'solver' must be a number"),
    ("solve", faulty("solver", {"max_iter": 10.0}),
     "key 'max_iter' in section 'solver' must be an integer"),
    ("solve", faulty("solver", {"alpha": "0.5"}),
     "key 'alpha' in section 'solver' must be a number"),
    ("solve", faulty("solver", {"alpha": 1.5}),
     "section 'solver': alpha must be in (0, 1]"),
    ("solve", faulty("solver", {"tol_density": 0.0}),
     "section 'solver': tol_density must be positive"),
    ("solve", faulty("solver", {"max_iter": 0}),
     "section 'solver': max_iter must be at least 1"),
    ("solve", faulty("solver", {"runoff_fraction": 0.05}),
     "unknown key 'runoff_fraction' in section 'solver'"),
    ("solve", faulty("solver", {"runoff_margin_cells": 2}),
     "unknown key 'runoff_margin_cells' in section 'solver'"),
    ("solve", faulty("solver", {"initial_guess": 3}),
     "section 'solver.initial_guess' needs a 'kind' key"),
    ("solve", faulty("solver", {"initial_guess": {"path": "field.csv"}}),
     "section 'solver.initial_guess' needs a 'kind' key"),
    ("solve", faulty("solver", {"initial_guess": {"kind": "from-file"}}),
     "missing key 'path' in section 'solver.initial_guess'"),
    ("solve", faulty("solver", {"initial_guess": {"kind": "gaussian-blob", "path": "x"}}),
     "unknown key 'path' in section 'solver.initial_guess'"),
    ("solve", faulty("solver", {"initial_guess": {"kind": "from-file", "path": "x",
                                                  "at": 1}}),
     "unknown key 'at' in section 'solver.initial_guess'"),
    ("solve", faulty("solver", {"initial_guess": "bogus"}),
     "unknown solver.initial_guess kind 'bogus'"),
    ("solve", faulty("solver", {"initial_guess": {"kind": "from-file", "path": ""}}),
     "from-file initial guess needs a path"),
    # scan
    ("scan", faulty("scan", [0.0, 0.5]), "section 'scan' must be an object"),
    ("scan", faulty("scan", {"omega_values": [0.0]}),
     "missing key 'mu_values' in section 'scan'"),
    ("scan", faulty("scan", dict(SWEEP, steps=4)), "unknown key 'steps' in section 'scan'"),
    ("scan", faulty("scan", dict(SWEEP, omega_values=[])),
     "key 'omega_values' in section 'scan' must be a non-empty array"),
    ("scan", faulty("scan", dict(SWEEP, omega_values=[0.5, 0.5])),
     "key 'omega_values' in section 'scan' must be strictly increasing"),
    ("scan", faulty("scan", dict(SWEEP, mu_values=[-1.0, 0.0])),
     "key 'mu_values' in section 'scan' must be non-negative"),
    ("scan", faulty("scan", dict(SWEEP, retry_factor=1.0)),
     "key 'retry_factor' in section 'scan' must exceed 1"),
    ("scan", faulty("scan", dict(SWEEP, retry_factor=0)),
     "key 'retry_factor' in section 'scan' must be positive"),
    ("scan", faulty("scan", dict(SWEEP, retry_factor="2")),
     "key 'retry_factor' in section 'scan' must be a number"),
    # rotation against the grid
    ("solve", faulty("rotation", SHORT_ROTATION), SHORT_ROTATION_MESSAGE),
    # core against the grid and the scan's retry grid
    ("solve", faulty("core", DENSE_CORE), NO_CELL % (2, 2)),
    ("scan", faulty("core", RETRY_CORE, scan=True), NO_CELL % (3, 3)),
    # solver, continued
    ("solve", faulty("solver", {"mass_tol": 1e-10}),
     "unknown key 'mass_tol' in section 'solver'"),
    ("solve", faulty("solver", {"initial_guess": {"kind": "from-file", "path": 3}}),
     "key 'path' in section 'solver.initial_guess' must be a string"),
    ("solve", faulty("solver", {"initial_guess": ["gaussian-blob"]}),
     "section 'solver.initial_guess' needs a 'kind' key"),
    # core against the grid, continued
    ("solve", TALL_PROFILE, "core does not fit strictly inside the grid"),
    # values whose squares overflow a float
    ("solve", FAST_ROTATION, OVERFLOW),
    pytest.param("solve", HUGE_GRID, OVERFLOW, marks=SQUARES_TO_INF),
]


@pytest.mark.parametrize("command, raw, message", CONFIG_FAULTS)
def test_every_config_fault_has_its_message(tmp_path, command, raw, message):
    path = tmp_path / "config.json"
    if raw is not None:
        path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    with pytest.raises(cq.ConfigError) as err:
        check_config(command, load_config_file(str(path)))
    assert str(err.value) == message.replace("<path>", str(path))


#: the effective form of MINIMAL, byte for byte
MINIMAL_DUMP = """\
{
  "core": {
    "a_r": 0.0,
    "a_z": 0.0,
    "mu": 0.0,
    "rho": 0.0
  },
  "eos": {
    "gamma": 2.0,
    "k": 1.0,
    "kind": "polytrope"
  },
  "grid": {
    "n_r": 32,
    "n_z": 32,
    "r_max": 2.0,
    "z_max": 2.0
  },
  "rotation": {
    "kind": "constant",
    "omega": 0.0
  },
  "solver": {
    "alpha": 0.5,
    "initial_guess": {
      "kind": "gaussian-blob"
    },
    "mass": 1.0,
    "max_iter": 500,
    "tol_density": 1e-08,
    "tol_residual": 0.001
  }
}
"""
MINIMAL = {
    "eos": {"kind": "polytrope", "k": 1, "gamma": 2},
    "grid": {"r_max": 2, "z_max": 2, "n_r": 32, "n_z": 32},
}
EFF = json.loads(MINIMAL_DUMP)


def with_guess(guess):
    return dict(EFF["solver"], initial_guess=guess)


#: (command, config, its effective config)
VALID_FORMS = [
    ("solve", MINIMAL, EFF),
    ("solve", dict(MINIMAL, core=None, rotation=None, solver=None), EFF),
    ("solve", dict(MINIMAL, eos=TABLE), dict(EFF, eos=TABLE)),
    ("solve", dict(MINIMAL, core={"a_r": 1, "a_z": 0.5, "rho": 10, "mu": 1}),
     dict(EFF, core={"a_r": 1.0, "a_z": 0.5, "rho": 10.0, "mu": 1.0})),
    ("solve", dict(MINIMAL, core=PROFILE_CORE), dict(EFF, core=PROFILE_CORE)),
    ("solve", dict(MINIMAL, rotation=PROFILE_ROTATION),
     dict(EFF, rotation=PROFILE_ROTATION)),
    ("solve", dict(MINIMAL, solver={"mass": 2, "max_iter": 100, "tol_residual": 1}),
     dict(EFF, solver=dict(EFF["solver"], mass=2.0, max_iter=100, tol_residual=1.0))),
    ("solve", dict(MINIMAL, solver={"initial_guess": "uniform-shell"}),
     dict(EFF, solver=with_guess({"kind": "uniform-shell"}))),
    ("solve", dict(MINIMAL, solver={"initial_guess": {"kind": "from-file",
                                                      "path": "f.csv"}}),
     dict(EFF, solver=with_guess({"kind": "from-file", "path": "f.csv"}))),
    ("scan", dict(MINIMAL, scan=SWEEP), dict(EFF, scan=dict(SWEEP, retry_factor=1.5))),
    ("scan", dict(MINIMAL, scan=dict(SWEEP, retry_factor=2)),
     dict(EFF, scan=dict(SWEEP, retry_factor=2.0))),
]


@pytest.mark.parametrize("command, raw, expected", VALID_FORMS)
def test_valid_forms_dump_their_effective_config(
    tmp_path, monkeypatch, command, raw, expected
):
    # the from-file form's guess is read where the config is checked
    monkeypatch.chdir(tmp_path)
    grid = cq.CylGrid(2.0, 2.0, 32, 32)
    cq.write_field_csv(cq.DensityField(grid, np.ones((32, 32))), "f.csv")
    text = json_text(check_config(command, raw))
    assert text == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    if expected is EFF:
        assert text == MINIMAL_DUMP


@pytest.mark.parametrize("grid", [
    {"r_max": 2, "z_max": 0.0015, "n_r": 16, "n_z": 8},
    {"r_max": 1, "z_max": 0.004, "n_r": 600, "n_z": 8},
])
def test_thin_coreless_grids_solve(tmp_path, capsys, monkeypatch, grid):
    monkeypatch.setenv("COREQUILIB_THREADS", "1")
    raw = {"eos": POLY, "grid": grid, "solver": {"max_iter": 3}}
    out = tmp_path / "o"
    rc = main(["solve", "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert rc in (0, 3)
    assert capsys.readouterr().err == ""
    assert (out / "result.json").exists()


def test_a_placeholder_core_solves_as_the_empty_core(tmp_path, monkeypatch):
    # older effective configs name a pinpoint core of 1e-3 r_max and no mass
    # where the config had no core; they run as the empty core does
    monkeypatch.setenv("COREQUILIB_THREADS", "1")
    raw = {"eos": POLY, "grid": dict(MINIMAL["grid"], n_r=16, n_z=16)}
    placeholder = dict(cq.effective_config(raw),
                       core={"a_r": 0.002, "a_z": 0.002, "rho": 0.0, "mu": 0.0})
    runs = {}
    for name, cfg in (("empty", raw), ("placeholder", placeholder)):
        out = tmp_path / name
        rc = main(["solve", "--config", write_config(tmp_path, cfg, name + ".json"),
                   "--out", str(out)])
        assert rc == 0
        runs[name] = {f: (out / f).read_bytes()
                      for f in ("result.json", "field.csv", "trace.csv")}
    assert runs["placeholder"] == runs["empty"]


@pytest.mark.parametrize("command, raw, message", [
    ("solve", faulty("eos", dict(POLY, gamma=1.2)),
     "polytrope exponent gamma must exceed 4/3, got 1.2"),
    ("solve", faulty("core", dict(CORE, a_r=5.0, a_z=5.0)),
     "core does not fit strictly inside the grid"),
    ("solve", faulty("solver", {"initial_guess": "bogus"}),
     "unknown solver.initial_guess kind 'bogus'"),
    ("solve", faulty("eos", dict(TABLE, f=[1e-6, 1e-4, 1e-5, 1.0, 100.0])),
     "f_table must be positive and strictly increasing"),
    ("scan", faulty("eos", dict(POLY, gamma=1.2), scan=True),
     "polytrope exponent gamma must exceed 4/3, got 1.2"),
    ("scan", faulty("rotation", PROFILE_ROTATION, scan=True),
     "scans sweep constant rotation; section 'rotation' must have kind 'constant'"),
    ("check", faulty("eos", dict(POLY, gamma=1.2)),
     "polytrope exponent gamma must exceed 4/3, got 1.2"),
    ("check", faulty("core", dict(CORE, a_r=5.0, a_z=5.0)),
     "core does not fit strictly inside the grid"),
    ("solve", faulty("rotation", SHORT_ROTATION), SHORT_ROTATION_MESSAGE),
    ("check", faulty("rotation", SHORT_ROTATION), SHORT_ROTATION_MESSAGE),
    ("solve", faulty("core", DENSE_CORE), NO_CELL % (2, 2)),
    ("scan", faulty("core", DENSE_CORE, scan=True), NO_CELL % (2, 2)),
    ("check", faulty("core", DENSE_CORE), NO_CELL % (2, 2)),
    ("scan", faulty("core", RETRY_CORE, scan=True), NO_CELL % (3, 3)),
    ("solve", shell_guess(32, 0.5, 1.0), NO_SHELL),
    ("check", shell_guess(32, 0.5, 1.0), NO_SHELL),
    ("scan", shell_guess(32, 0.5, 1.0, scan=True), NO_SHELL),
    ("solve", shell_guess(16, 0.45, 0.0), "cannot rescale a zero field"),
    ("solve", TALL_PROFILE, "core does not fit strictly inside the grid"),
    ("check", TALL_PROFILE, "core does not fit strictly inside the grid"),
    ("solve", FAST_ROTATION, OVERFLOW),
    pytest.param("solve", HUGE_GRID, OVERFLOW, marks=SQUARES_TO_INF),
])
def test_dump_fails_where_the_run_fails(
    tmp_path, capsys, monkeypatch, command, raw, message
):
    monkeypatch.setenv("COREQUILIB_THREADS", "1")
    cfg = write_config(tmp_path, raw)
    run = [] if command == "check" else ["--out", str(tmp_path / "out")]
    for extra in (["--dump-effective-config"], run):
        assert main([command, "--config", cfg] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: %s\n" % message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error", [
    cq.QuadratureError, cq.EosRangeError, cq.EosDomainError,
    cq.EosInversionError, cq.GridError, cq.DegenerateFieldError,
    cq.MassDriftError, FloatingPointError,
])
def test_numeric_errors_exit_two(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("broken on purpose")

    monkeypatch.setattr(cq.cli, "solve", fail)
    cfg = write_config(tmp_path, base_raw(n=16))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "numeric error: broken on purpose\n"


def test_readme_names_every_config_key_and_kind():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text.split("\n## Configuration\n")[1].split("\n## ")[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    named = set(re.findall(r"\w[\w-]*", " ".join(re.findall(r"`([^`]+)`", prose))))
    keys = set()
    for tables in (config._EOS, config._ROTATION):
        keys |= set(tables)
        for table in tables.values():
            keys |= set(table)
    for table in (config._GRID, config._SPHEROID, config._PROFILE,
                  config._SOLVER, config._SCAN):
        keys |= set(table)
    assert sorted(keys - named) == []
