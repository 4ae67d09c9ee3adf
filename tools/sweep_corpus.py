"""Write the five 200-point sweep corpora and the four table-row skin runs as
CLI config files.

    python tools/sweep_corpus.py OUT_DIR

Each file ``sweep_<seed>.json`` (seed 5001, 6001, 7001, 8001, 9001) holds the
first 200 of the 2-cell parameter sets drawn as
``np.random.default_rng(seed).uniform(0.05, 2.0, size=(count, 5))`` gives
them, rows of (r1, r2, c1, c2, l), swept at n_k = 256 with the skin check.
This is the draw of the benchmark's sweep workload and of
``tests/test_topology.py::_sweep_draws``, so row i of a corpus's
``sweep.csv`` is sweep point i of that seed.

Each file ``skin_row<i>.json`` (i = 1..4) is the circuit of the packaged
preset ``table1_row<i>`` with an empty ``skin`` section, so every branch is
judged at the default grid.  No packaged preset runs ``skin``; these files
make its ``skin.json`` comparable.  Compare two source
trees on all nine files with
``python tools/preset_diff.py OLD_SRC NEW_SRC OUT_DIR/*.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

SEEDS = (5001, 6001, 7001, 8001, 9001)
COUNT = 200
N_K = 256
KEYS = ("r1", "r2", "c1", "c2", "l")
PRESETS = Path(__file__).resolve().parents[1] / "src" / "topochain" / "presets"


def corpus(seed: int) -> dict:
    draws = np.random.default_rng(seed).uniform(0.05, 2.0, size=(COUNT, 5))
    points = [dict(zip(KEYS, row.tolist()), n_cells=2) for row in draws]
    return {"circuit": points[0],
            "sweep": {"points": points, "n_k": N_K, "check_skin": True}}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for seed in SEEDS:
        (out / f"sweep_{seed}.json").write_text(json.dumps(corpus(seed), indent=1) + "\n")
    for row in range(1, 5):
        preset = json.loads((PRESETS / f"table1_row{row}.json").read_text())
        skin = {"circuit": preset["circuit"], "skin": {}}
        (out / f"skin_row{row}.json").write_text(json.dumps(skin, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
