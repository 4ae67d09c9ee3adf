"""Run every packaged preset from two source trees and compare the outputs.

    python tools/preset_diff.py OLD_SRC NEW_SRC [PRESET | CONFIG.json ...]

OLD_SRC and NEW_SRC are directories holding a ``topochain`` package (a
checkout's ``src``).  Each tree runs all its presets (or the named presets
and JSON config files) through ``cli.run_command`` in one subprocess with
``PYTHONPATH`` set to that tree, so neither sees the other's code.  A
config file runs the command its one non-circuit section names, into a
directory named after the file's stem.  A transient preset or config also
runs ``netlist`` into ``<name>-netlist``, so the exported chain netlists are
compared at full chain length, and a bands preset or config also runs
``bands --format json`` into ``<name>-json``.  Each output file is then reported
as identical, or with its largest absolute and relative numeric
difference; files whose non-numeric text or value count differs are
reported as such.  A changed ``sweep.csv`` also lists its changed rows by
index (row i is sweep point i), each changed column as ``old -> new``.
The exit status is 0 only when every file is identical.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

RUNNER = """
import json
import sys
from pathlib import Path
from topochain import cli
out, names = Path(sys.argv[1]), sys.argv[2:] or cli.preset_names()
for name in names:
    path = Path(name)
    if path.suffix == ".json":
        cfg, name = json.loads(path.read_text()), path.stem
    else:
        cfg = cli.load_preset(name)
    command = next(key for key in cfg if key != "circuit")
    cli.run_command(command, cfg, out / name, "csv")
    if command == "transient":
        cli.run_command("netlist", cfg, out / f"{name}-netlist", "csv")
    if command == "bands":
        cli.run_command("bands", cfg, out / f"{name}-json", "json")
"""
SEPARATORS = re.compile(r'[\s,:\[\]{}"|]+')


def run_tree(src: Path, out: Path, names: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    subprocess.run([sys.executable, "-c", RUNNER, str(out), *names],
                   env=env, check=True)


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def compare(old: bytes, new: bytes) -> str:
    """'identical', or the largest numeric difference between two files."""
    if old == new:
        return "identical"
    a = SEPARATORS.split(old.decode())
    b = SEPARATORS.split(new.decode())
    if len(a) != len(b):
        return f"differs: {len(a)} vs {len(b)} tokens"
    worst_abs = worst_rel = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            return f"differs: text {x!r} vs {y!r}"
        diff = abs(fx - fy)
        worst_abs = max(worst_abs, diff)
        if diff:
            worst_rel = max(worst_rel, diff / max(abs(fx), abs(fy)))
    return f"max abs diff {worst_abs:.3e}, max rel diff {worst_rel:.3e}"


def changed_rows(old: bytes, new: bytes) -> list[str]:
    """One line per differing data row of two CSV files with one header."""
    a, b = old.decode().splitlines(), new.decode().splitlines()
    header = a[0].split(",")
    lines = []
    for i, (x, y) in enumerate(zip(a[1:], b[1:])):
        if x != y:
            cells = [f"{h} {u} -> {v}" for h, u, v
                     in zip(header, x.split(","), y.split(",")) if u != v]
            lines.append(f"  row {i}: " + ", ".join(cells))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_src, new_src, names = Path(argv[0]), Path(argv[1]), argv[2:]
    with tempfile.TemporaryDirectory() as tmp:
        old_out, new_out = Path(tmp, "old"), Path(tmp, "new")
        run_tree(old_src, old_out, names)
        run_tree(new_src, new_out, names)
        files = sorted({p.relative_to(root) for root in (old_out, new_out)
                        for p in root.rglob("*") if p.is_file()})
        same = 0
        for rel in files:
            a, b = old_out / rel, new_out / rel
            rows = []
            if not (a.is_file() and b.is_file()):
                verdict = f"only in {'old' if a.is_file() else 'new'}"
            else:
                verdict = compare(a.read_bytes(), b.read_bytes())
                if rel.name == "sweep.csv":
                    rows = changed_rows(a.read_bytes(), b.read_bytes())
            same += verdict == "identical"
            print("\n".join([f"{rel}: {verdict}", *rows]))
    print(f"{same} of {len(files)} files identical")
    return 0 if same == len(files) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
