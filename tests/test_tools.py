import re
import subprocess
import sys
from pathlib import Path

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
