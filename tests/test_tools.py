import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from topochain.cli import run_command
from topochain.spectral import BRANCH_LABELS

ROOT = Path(__file__).resolve().parents[1]


def test_preset_diff_reports_a_tree_identical_to_itself():
    """tools/preset_diff.py run with one source tree on both sides finds
    every output file identical and exits 0.  table1_row1 runs winding and
    fig3 bands (so also bands --format json): nine files."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "preset_diff.py"), str(ROOT / "src"),
         str(ROOT / "src"), "table1_row1", "fig3"],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    same, total = map(int, re.search(r"^(\d+) of (\d+) files identical$",
                                     proc.stdout, re.M).groups())
    assert same == total == 9


def test_sweep_corpus_writes_its_nine_configs(tmp_path):
    """tools/sweep_corpus.py writes the five sweep corpora and the four
    table-row skin configs.  A corpus's first point is the first row of the
    seed's draw its docstring names, and a skin config runs as written."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "sweep_corpus.py"),
                           str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"sweep_{seed}.json" for seed in (5001, 6001, 7001, 8001, 9001)]
        + [f"skin_row{row}.json" for row in range(1, 5)])
    corpus = json.loads((tmp_path / "sweep_5001.json").read_text())
    first = np.random.default_rng(5001).uniform(0.05, 2.0, (200, 5))[0]
    want = dict(zip(("r1", "r2", "c1", "c2", "l"), first.tolist()), n_cells=2)
    assert corpus["sweep"]["points"][0] == corpus["circuit"] == want
    assert len(corpus["sweep"]["points"]) == 200
    run_command("skin", json.loads((tmp_path / "skin_row1.json").read_text()),
                tmp_path / "out", "csv")
    assert tuple(json.loads((tmp_path / "out" / "skin.json").read_text())) == BRANCH_LABELS


def _literal(path: Path, name: str):
    """The literal value assigned to a module-level name, read from the
    source without importing the module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_traced_functions_exist_in_their_modules():
    """Every function perfbench/spans.py traces (SPANNED) or counts
    (COUNTED) is defined in the topochain module it is listed under, so
    none of them can leave the package while the benchmark reads it."""
    spans = ROOT / "perfbench" / "spans.py"
    listed = [(mod, fn) for table in ("SPANNED", "COUNTED")
              for mod, names in _literal(spans, table).items() for fn in names]
    assert listed
    for mod, fn in listed:
        module = importlib.import_module(f"topochain.{mod}")
        assert getattr(getattr(module, fn, None), "__module__", None) == module.__name__, \
            f"topochain.{mod}.{fn}"


def test_tool_imports_from_topochain_resolve():
    """Every name that a script under tools/ or perfbench/ imports with
    `from topochain... import` exists: a module attribute or a submodule."""
    scripts = sorted(ROOT.glob("tools/**/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    checked = 0
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "topochain"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                assert (hasattr(module, alias.name)
                        or importlib.util.find_spec(name)), f"{path.relative_to(ROOT)}: {name}"
                checked += 1
    assert checked
