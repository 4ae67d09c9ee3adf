"""Benchmark a parent and a changed checkout and write both sets of numbers.

    python tools/bench.py --parent OLD_CHECKOUT [--change NEW_CHECKOUT]
                          --out BENCH_<n>.json

A checkout is a directory holding ``src/topochain`` and ``perfbench/``
(``--change`` defaults to this repository).  Each checkout is measured in
its own processes, one at a time, with its own files:

- ``perfbench/suite.py --runs 3 --workloads sweep ringdown``: the median
  and quartiles of every end-to-end metric.  A sweep operation is one
  random point, so the sweep's ``ops_per_s`` is its points per second.
- ``perfbench/run.py --trace 1`` for 10 s per workload: the per-layer
  metrics.
- every packaged preset through ``cli.run_command``, each preset in its
  own process, so no other preset's heap history reaches its numbers: one
  warm-up run, then the median wall time and the median minor page faults
  (``ru_minflt``) of 3 timed runs.
- the ``src/`` line count and the environment record ``run.py`` prints.
- the median wall time of 5 fresh ``python -c "import topochain.cli"``
  processes, and the sorted top-level packages that import loads, so a
  change that puts scipy back on every command's path shows here.
- the sorted top-level packages one ``fig8a`` ``transient`` run loads in a
  fresh process beyond those of ``import topochain.cli``, so a change that
  brings scipy back onto the ringdown fit's path shows here.
- the Tier-1 test suite's wall time and summary line.

The whole measurement takes about ten minutes per checkout on 2 cores.

Nothing under ``perfbench/`` is written.  The output holds one record per
checkout under "parent" and "change", and the change-over-parent ratio of
each end-to-end median and of the preset total under "ratio".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "ringdown")
RUNS = 3             # suite runs per workload; the suite needs 2 for quartiles
REPEATS = 3          # timed runs per preset, after one warm-up
TRACE_SECONDS = 10
IMPORT_RUNS = 5      # fresh processes timed per import measurement
IMPORT_PACKAGES = """
import json, sys
before = set(sys.modules)
import topochain.cli
print(json.dumps(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""
RINGDOWN_PACKAGES = """
import json, sys, tempfile
from pathlib import Path
from topochain import cli
before = set(sys.modules)
with tempfile.TemporaryDirectory() as tmp:
    cli.run_command("transient", cli.load_preset("fig8a"), Path(tmp) / "run", "csv")
print(json.dumps(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""
PRESET_NAMES = """
import json
from topochain import cli
print(json.dumps(cli.preset_names()))
"""
PRESET_TIMER = """
import json, resource, shutil, statistics, sys, time
from pathlib import Path
from topochain import cli
out, repeats, name = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
cfg = cli.load_preset(name)
command = next(key for key in cfg if key != "circuit")
times, faults = [], []
for _ in range(repeats + 1):
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    cli.run_command(command, cfg, out, "csv")
    times.append(time.perf_counter() - t0)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    shutil.rmtree(out)
print(json.dumps([statistics.median(times[1:]), statistics.median(faults[1:])]))
"""


def _run(args: list[str], cwd: Path, env: dict | None = None) -> str:
    return subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True,
                          check=True).stdout


def import_cost(checkout: Path, env: dict) -> dict:
    """Wall time of a fresh process that imports the CLI, what that loads,
    and what a fig8a transient run loads on top of it."""
    walls = []
    for _ in range(IMPORT_RUNS):
        t0 = time.perf_counter()
        _run([sys.executable, "-c", "import topochain.cli"], checkout, env)
        walls.append(time.perf_counter() - t0)
    packages = json.loads(_run([sys.executable, "-c", IMPORT_PACKAGES], checkout, env))
    ringdown = json.loads(_run([sys.executable, "-c", RINGDOWN_PACKAGES], checkout, env))
    return {"median_wall_s": statistics.median(walls), "packages": packages,
            "ringdown_packages": ringdown}


def measure(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        summary_path = Path(tmp) / "suite.json"
        _run([sys.executable, "perfbench/suite.py", "--runs", str(RUNS),
              "--workloads", *WORKLOADS, "--out", str(summary_path)], checkout)
        suite = json.loads(summary_path.read_text())
    per_layer = {}
    for workload in WORKLOADS:
        lines = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                      "--seed", "1", "--seconds", str(TRACE_SECONDS), "--trace", "1"],
                     checkout).strip().splitlines()
        result = json.loads(lines[-1])
        per_layer[workload] = {"correct": result["correct"],
                               **{k: m["value"] for k, m in result["metrics"].items()}}
    presets, faults = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in json.loads(_run([sys.executable, "-c", PRESET_NAMES], checkout, env)):
            out = _run([sys.executable, "-c", PRESET_TIMER, str(Path(tmp) / "run"),
                        str(REPEATS), name], checkout, env)
            presets[name], faults[name] = json.loads(out.strip().splitlines()[-1])
    record = {
        "environment": suite["environment"],
        "src_lines": suite["environment"]["src_lines"],
        "end_to_end": {
            w: {"runs": s["runs"], "all_correct": s["all_correct"],
                "fail_ratio": s["fail_ratio"],
                **{k: {key: m.get(key) for key in ("median", "q1", "q3", "unit")}
                   for k, m in s["metrics"].items()}}
            for w, s in suite["workloads"].items()},
        "sweep_points_per_s": suite["workloads"]["sweep"]["metrics"]["ops_per_s"]["median"],
        "per_layer": per_layer,
        "presets_s": presets,
        "presets_minflt": faults,
        "presets_total_s": sum(presets.values()),
        "import": import_cost(checkout, env),
    }
    t0 = time.perf_counter()
    # not checked: a failing suite still has a wall time and a summary line
    done = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors", "-p", "no:cacheprovider"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    record["tier1"] = {"wall_s": time.perf_counter() - t0,
                       "summary": done.stdout.strip().splitlines()[-1]}
    return record


def ratios(parent: dict, change: dict) -> dict:
    out = {"presets_total_s": change["presets_total_s"] / parent["presets_total_s"],
           "import_wall_s": (change["import"]["median_wall_s"]
                             / parent["import"]["median_wall_s"])}
    for w, metrics in change["end_to_end"].items():
        for name, m in metrics.items():
            if isinstance(m, dict) and m.get("median"):
                out[f"{w}.{name}"] = m["median"] / parent["end_to_end"][w][name]["median"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=ROOT)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    report = {}
    for role, checkout in (("parent", args.parent), ("change", args.change)):
        print(f"measuring {role}: {checkout}", file=sys.stderr)
        report[role] = measure(checkout.resolve())
    report["ratio"] = ratios(report["parent"], report["change"])
    report["protocol"] = {"runs": RUNS, "repeats": REPEATS, "trace_seconds": TRACE_SECONDS}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
