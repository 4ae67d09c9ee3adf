"""Run the benchmark over several seeds and summarize it per workload.

    python3 perfbench/suite.py --runs 10 [--workloads sweep chain ringdown]
                               [--first-seed 1] [--trace] [--out FILE]

For each workload, runs ``run.py`` once per seed, one process at a time, and
prints every end-to-end metric by name and unit: the median over the runs,
the quartile spread as a share of the median (against the bound in
BENCHMARK.json), the pooled tail percentile of the operation times with its
sample count, and the failure ratio.  With --trace, one traced run per
workload follows and its per-layer metrics and largest self times are
printed.  --out writes everything, with the environment record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import tail_percentile  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    record, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(record), json.loads(result)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def summarize(bench: dict, runs: list[tuple[dict, dict]]) -> dict:
    attempted = sum(res["attempted"] for _, res in runs)
    failed = sum(res["failed"] for _, res in runs)
    op_s = [t for rec, _ in runs for t in rec["detail"]["op_s"]]
    tail = tail_percentile(op_s)
    out = {"runs": len(runs), "seeds": [rec["seed"] for rec, _ in runs],
           "all_correct": all(res["correct"] for _, res in runs),
           "fail_ratio": failed / attempted, "attempted": attempted,
           "problems": {rec["seed"]: rec["problems"] for rec, _ in runs if rec["problems"]},
           "op_tail_s": None if tail is None else
           {"percentile": tail[0], "value": tail[1], "samples": tail[2]},
           "metrics": {}}
    for m in bench["end_to_end"]:
        values = [res["metrics"][m["name"]]["value"] for _, res in runs]
        entry = {"unit": m["unit"], "bound": m["bound"], "values": values}
        if len(values) >= 2:
            med, q1, q3, rel = spread(values)
            entry.update(median=med, q1=q1, q3=q3, spread=rel,
                         steady=rel < m["bound"] / 3)
        out["metrics"][m["name"]] = entry
    return out


def print_summary(workload: str, s: dict) -> None:
    print(f"\n== {workload}: {s['runs']} runs, all correct: {s['all_correct']}, "
          f"fail_ratio {s['fail_ratio']:.4g} of {s['attempted']} ops")
    for name, e in s["metrics"].items():
        if "median" in e:
            print(f"  {name:<12} {e['median']:.6g} {e['unit']:<4} "
                  f"spread {e['spread']:.4f} (bound {e['bound']}, "
                  f"{'steady' if e['steady'] else 'NOT below a third of the bound'})")
        else:
            print(f"  {name:<12} {e['values'][0]:.6g} {e['unit']}")
    t = s["op_tail_s"]
    if t is None:
        print("  op_tail_s    n/a: fewer than 20 operations pooled")
    else:
        print(f"  op_tail_s    {t['value']:.6g} s   (p{t['percentile']:g} of "
              f"{t['samples']} pooled operations)")
    print(f"  fail_ratio   {s['fail_ratio']:.6g}")
    for seed, problems in s["problems"].items():
        print(f"  seed {seed}: " + "; ".join(problems))


def print_trace(workload: str, record: dict, result: dict) -> None:
    print(f"\n== {workload} traced: {record['detail']['traced_ops']} ops, "
          f"correct: {result['correct']}")
    top = list(record["detail"]["self_s_per_op"].items())[:6]
    print("  largest self times (s/op): "
          + ", ".join(f"{k} {v:.4g}" for k, v in top))
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=("sweep", "chain", "ringdown"),
                    default=gated)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    report = {"run_seconds": bench["run_seconds"], "workloads": {}, "traced": {}}
    for workload in args.workloads:
        runs = [run_once(workload, args.first_seed + i, bench["run_seconds"], 0)
                for i in range(args.runs)]
        report["environment"] = runs[-1][0]["environment"]
        report["workloads"][workload] = summarize(bench, runs)
        print_summary(workload, report["workloads"][workload])
    if args.trace:
        for workload in args.workloads:
            record, result = run_once(workload, args.first_seed, bench["run_seconds"], 1)
            report["environment"] = record["environment"]
            report["traced"][workload] = {
                "correct": result["correct"], "metrics": result["metrics"],
                "self_s_per_op": record["detail"]["self_s_per_op"]}
            print_trace(workload, record, result)
    print("\nenvironment:", json.dumps(report.get("environment")))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
