"""Benchmark a parent and a changed checkout and write both sets of numbers.

    python tools/bench.py --parent OLD_CHECKOUT [--change NEW_CHECKOUT]
                          --out BENCH_<n>.json

A checkout is a directory holding ``src/topochain`` and ``perfbench/``
(``--change`` defaults to this repository).  Each checkout is measured in
its own processes, one at a time, with its own files:

- ``perfbench/run.py --workload W --seed S --seconds 30 --trace 0`` for
  seeds 1-10 of each workload, as ten alternating pairs: the two checkouts
  take turns seed by seed, and which of them goes first alternates, so host
  drift reaches both alike.  Each checkout's record holds every run's value
  and the median and quartiles of each end-to-end metric;
  "change_better_pairs" counts, for each metric, the seeds on which the
  change is better, in the direction ``BENCHMARK.json`` gives.  A sweep operation is one random
  point, so the sweep's ``ops_per_s`` is its points per second.
- ``perfbench/run.py --trace 1`` for 10 s per workload: the per-layer
  metrics.
- every packaged preset through ``cli.run_command``, each preset in its
  own process, so no other preset's heap history reaches its numbers: one
  warm-up run, then the median wall time and the median minor page faults
  (``ru_minflt``) of 3 timed runs, and the process's peak resident size
  (``ru_maxrss``).  The two checkouts take turns preset by preset, and which
  of them goes first alternates, so host drift over the run reaches both
  alike.
- the ``src/`` line count and the environment record ``run.py`` prints.
- the median wall time of 5 fresh ``python -c "import topochain.cli"``
  processes, and the sorted top-level packages that import loads, so a
  change that puts scipy back on every command's path shows here.
- the sorted top-level packages one ``fig8a`` ``transient`` run loads in a
  fresh process beyond those of ``import topochain.cli``, so a change that
  brings scipy back onto the ringdown fit's path shows here.
- the Tier-1 test suite's wall time and summary line.

The whole measurement takes about 40 minutes on 2 cores, over 30 of them
the pairs.

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
PAIRS = 10           # alternating pairs per workload, one seed each
PAIR_SECONDS = 30
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
maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps([statistics.median(times[1:]), statistics.median(faults[1:]), maxrss_mb]))
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


def _env(checkout: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"))


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def pairs(checkouts: dict) -> tuple[dict, dict]:
    """Each checkout's environment record and end-to-end metrics over PAIRS
    alternating pairs per workload, and for each metric the number of pairs
    in which the change is better."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    roles = list(checkouts)
    results = {role: {w: [] for w in WORKLOADS} for role in roles}
    environment = {}
    for w in WORKLOADS:
        for seed in range(1, PAIRS + 1):
            for role in roles if seed % 2 else roles[::-1]:
                lines = _run([sys.executable, "perfbench/run.py", "--workload", w,
                              "--seed", str(seed), "--seconds", str(PAIR_SECONDS),
                              "--trace", "0"], checkouts[role]).strip().splitlines()
                environment[role] = json.loads(lines[-2])["environment"]
                results[role][w].append(json.loads(lines[-1]))
    records = {role: {"environment": environment[role], "end_to_end": {}} for role in roles}
    better = {}
    for w in WORKLOADS:
        values = {}
        for role in roles:
            runs = results[role][w]
            values[role] = {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs]
                            for m in bench}
            records[role]["end_to_end"][w] = {
                "runs": len(runs), "all_correct": all(r["correct"] for r in runs),
                "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
                **{m["name"]: {"unit": m["unit"], "values": values[role][m["name"]],
                               **_quartiles(values[role][m["name"]])} for m in bench}}
        for m in bench:
            sign = 1.0 if m["better"] == "higher" else -1.0
            better[f"{w}.{m['name']}"] = sum(
                sign * (c - p) > 0.0
                for p, c in zip(values["parent"][m["name"]], values["change"][m["name"]]))
    return records, better


def measure(checkout: Path) -> dict:
    """Every number of one checkout but its pairs' and presets' (see pairs
    and presets)."""
    env = _env(checkout)
    per_layer = {}
    for workload in WORKLOADS:
        lines = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                      "--seed", "1", "--seconds", str(TRACE_SECONDS), "--trace", "1"],
                     checkout).strip().splitlines()
        result = json.loads(lines[-1])
        per_layer[workload] = {"correct": result["correct"],
                               **{k: m["value"] for k, m in result["metrics"].items()}}
    record = {"per_layer": per_layer, "import": import_cost(checkout, env)}
    t0 = time.perf_counter()
    # not checked: a failing suite still has a wall time and a summary line
    done = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors", "-p", "no:cacheprovider"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    record["tier1"] = {"wall_s": time.perf_counter() - t0,
                       "summary": done.stdout.strip().splitlines()[-1]}
    return record


def presets(checkouts: dict) -> dict:
    """Each checkout's preset record: every preset it has, timed in its own
    process, the checkouts taking turns preset by preset."""
    names = {role: json.loads(_run([sys.executable, "-c", PRESET_NAMES], c, _env(c)))
             for role, c in checkouts.items()}
    keys = ("presets_s", "presets_minflt", "presets_maxrss_mb")
    records = {role: {key: {} for key in keys} for role in checkouts}
    roles = list(checkouts)
    order = list(dict.fromkeys(n for role in roles for n in names[role]))
    with tempfile.TemporaryDirectory() as tmp:
        for i, name in enumerate(order):
            for role in roles if i % 2 == 0 else roles[::-1]:
                if name not in names[role]:
                    continue
                out = _run([sys.executable, "-c", PRESET_TIMER, str(Path(tmp) / "run"),
                            str(REPEATS), name], checkouts[role], _env(checkouts[role]))
                values = json.loads(out.strip().splitlines()[-1])
                for key, value in zip(keys, values):
                    records[role][key][name] = value
    for record in records.values():
        record["presets_total_s"] = sum(record["presets_s"].values())
    return records


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
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    print(f"running {PAIRS} alternating pairs per workload", file=sys.stderr)
    records, better = pairs(checkouts)
    report = {}
    for role, checkout in checkouts.items():
        print(f"measuring {role}: {checkout}", file=sys.stderr)
        report[role] = {**records[role], **measure(checkout),
                        "src_lines": records[role]["environment"]["src_lines"],
                        "sweep_points_per_s":
                            records[role]["end_to_end"]["sweep"]["ops_per_s"]["median"]}
    print("timing the presets of both, preset by preset", file=sys.stderr)
    for role, record in presets(checkouts).items():
        report[role].update(record)
    report["ratio"] = ratios(report["parent"], report["change"])
    report["change_better_pairs"] = better
    report["protocol"] = {"pairs": PAIRS, "pair_seconds": PAIR_SECONDS, "repeats": REPEATS,
                          "trace_seconds": TRACE_SECONDS}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
