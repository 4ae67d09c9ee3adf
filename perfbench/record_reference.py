"""Record the reference outputs that the chain and ringdown checks compare to.

    python3 perfbench/record_reference.py

Runs every chain and ringdown preset once and writes their eigenvalues and
final stored energies to reference.json.  Rerun it only when a change is
meant to alter those values, and say why in the change.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> None:
    out = HERE.parent / ".perfbench_out" / "reference"
    ref = {"chain": {}, "ringdown": {}}
    for workload in ("chain", "ringdown"):
        for op in sorted(workloads.make_inputs(workload, 0).ops, key=lambda o: o.key):
            workloads.run_op(op, out)
            if workload == "chain":
                report = json.loads((out / "spectrum.json").read_text())
                ref["chain"][op.key] = report["eigenvalues"]
            else:
                report = json.loads((out / "transient.json").read_text())
                ref["ringdown"][op.key] = report["final_energy"]
            print(op.key, flush=True)
    (HERE / "reference.json").write_text(json.dumps(ref, sort_keys=True) + "\n")
    shutil.rmtree(out)


if __name__ == "__main__":
    main()
