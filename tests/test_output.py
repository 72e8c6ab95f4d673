"""Every JSON text the program writes has one format, owned by ``output``.

The CLI's JSON files and printed JSON must each equal ``json_text`` of
their own parse, and no module but ``output.py`` may serialize JSON or
know the ``result.json`` layout's ``schema_version``.
"""

import ast
import json
import os

import corequilib as cq
from corequilib.cli import main
from corequilib.output import json_text

SRC = os.path.dirname(os.path.abspath(cq.__file__))

RAW = {
    "eos": {"kind": "polytrope", "k": 1.0, "gamma": 2.0},
    "grid": {"r_max": 2.0, "z_max": 2.0, "n_r": 16, "n_z": 16},
    "core": {"a_r": 0.25, "a_z": 0.25, "rho": 2.0, "mu": 1.0},
    "rotation": {"kind": "constant", "omega": 0.3},
}
SCAN_RAW = dict(
    {key: value for key, value in RAW.items() if key != "rotation"},
    scan={"omega_values": [0.3], "mu_values": [1.0]},
)


def assert_canonical(text):
    assert text == json_text(json.loads(text))


def test_every_json_text_of_the_cli_is_canonical(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COREQUILIB_THREADS", "1")
    solve_cfg = tmp_path / "solve.json"
    solve_cfg.write_text(json.dumps(RAW))
    scan_cfg = tmp_path / "scan.json"
    scan_cfg.write_text(json.dumps(SCAN_RAW))
    capsys.readouterr()

    for argv in (
        ["solve", "--config", str(solve_cfg)],
        ["scan", "--config", str(scan_cfg)],
        ["check", "--config", str(solve_cfg)],
    ):
        assert main(argv + ["--dump-effective-config"]) == 0
        assert_canonical(capsys.readouterr().out)
    for argv in (
        ["check", "--config", str(solve_cfg)],
        ["oracle", "lane-emden", "--gamma", "2", "--k", "1"],
    ):
        assert main(argv) == 0
        assert_canonical(capsys.readouterr().out)

    assert main(["solve", "--config", str(solve_cfg),
                 "--out", str(tmp_path / "run")]) == 0
    assert main(["scan", "--config", str(scan_cfg),
                 "--out", str(tmp_path / "sweep")]) == 0
    for run in (tmp_path / "run", tmp_path / "sweep" / "cell_00_00"):
        for name in ("result.json", "effective_config.json"):
            assert_canonical((run / name).read_text())


def _imports(tree):
    """Module names a module imports, relative ones without their dots."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


def test_only_output_formats_json():
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            text = fh.read()
        trees[name] = tree = ast.parse(text)
        if name == "output.py":
            continue
        dumps = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "dumps"
            and isinstance(node.value, ast.Name) and node.value.id == "json"
        ]
        assert not dumps, name
        assert "schema_version" not in text, name
    assert not _imports(trees["solver.py"]) & {"json", "output"}
    assert "solver" not in _imports(trees["output.py"])
