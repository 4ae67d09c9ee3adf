"""topochain benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the operations run bare and the end-to-end metrics are
reported; with ``--trace 1`` every public function of the package is wrapped
(see spans.py) and the per-layer metrics are reported.  The last line of
standard output is the result object; the line before it is the
environment record and per-run detail.  See README.md for the workloads.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5          # this process plus four fresh probe processes
PAIRED_OPS = 16            # leading inputs run both bare and traced
# one BLAS thread per CPU this process may use; set before numpy loads
BLAS_THREADS = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "chain", "ringdown"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up in this fresh process, print it and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_runtime_threads() -> int | None:
    import ctypes
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_runtime_threads(),
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def setup(workload: str, seed: int):
    """Import the package and make the workload's inputs; this is setup_s."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads, workloads.make_inputs(workload, seed)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, as that process measures it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class Runner:
    """Runs operations in cycles, checks each, and keeps their timings."""

    def __init__(self, wl, workload: str, inputs, outdir: Path, reference: dict):
        self.wl, self.inputs, self.outdir = wl, inputs, outdir
        self.check = wl.CHECKS[workload]
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one(self, op, tracer=None) -> tuple[float | None, str | None]:
        """Run one op; return (seconds, digest of its outputs), None on failure."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        self.attempted += 1
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                self.wl.run_op(op, self.outdir)
                seconds = time.perf_counter() - t0
            found = self.check(op, self.outdir, self.reference)
        except Exception as exc:   # one failed op, not an aborted run
            found = [f"{type(exc).__name__}: {exc}"]
        if found:
            self.failed += 1
            self.problems += [f"{op.key}: {p}" for p in found[:3]]
            return None, None
        if tracer is not None:
            sizes = [p.stat().st_size for p in self.outdir.iterdir()]
            tracer.counts["cli.bytes_written"] += sum(sizes)
            tracer.counts["cli.files_written"] += len(sizes)
        return seconds, self.wl.digest(self.outdir)

    def timed_pass(self, seconds: float, tracer=None, paired: int = 0):
        """Whole cycles of ops, from the first input on, until they took `seconds`.

        With a tracer, each of the first `paired` inputs also runs bare just
        before its traced run, and the two must write byte-identical files.
        Returns the op times and the (bare, traced) time pairs.
        """
        ops, cycle = self.inputs.ops, self.inputs.cycle
        times, pairs = [], []
        busy, i = 0.0, 0
        started = time.perf_counter()
        while True:
            op = ops[i % len(ops)]
            bare_s, bare_digest = self.one(op) if i < paired else (None, None)
            took, digest = self.one(op, tracer)
            if took is not None:
                times.append(took)
                busy += took
                if bare_s is not None:
                    pairs.append((bare_s, took))
                    if digest != bare_digest:
                        self.failed += 1
                        self.problems.append(f"{op.key}: traced outputs differ from bare ones")
            i += 1
            # the wall-clock guard ends a run whose ops keep failing
            if i % cycle == 0 and (
                    busy >= seconds or time.perf_counter() - started >= 4 * seconds):
                return times, pairs


def end_to_end(runner: Runner, args, setup_first: float) -> tuple[dict, dict]:
    times, _ = runner.timed_pass(args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_first] + [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_SAMPLES - 1)]
    metrics = {
        "ops_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "op_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return metrics, {"op_s": times, "setup_samples_s": setups}


def per_layer(runner: Runner, args, tracer) -> tuple[dict, dict]:
    from spans import self_times
    paired = min(len(runner.inputs.ops), PAIRED_OPS)
    traced_times, pairs = runner.timed_pass(args.seconds, tracer, paired)
    overhead = sum(t - b for b, t in pairs) / max(len(pairs), 1)

    n = max(len(traced_times), 1)
    total, own = self_times(tracer.spans)
    calls, counts = tracer.calls, tracer.counts

    def s(name):
        return total[name] / n

    def module_self(mod):
        return sum(v for k, v in own.items() if k.startswith(mod + ".")) / n

    samples = counts["simulate.samples"]
    metrics = {
        "spectral.band_trace.s": (s("spectral.band_trace"), "s/op"),
        "spectral.band_trace.calls": (calls["spectral.band_trace"] / n, "1/op"),
        "spectral.natural_frequencies.s": (s("spectral.natural_frequencies"), "s/op"),
        "spectral.natural_frequencies.calls": (calls["spectral.natural_frequencies"] / n, "1/op"),
        "spectral.self_s": (module_self("spectral"), "s/op"),
        "topology.skin_effect_present.s": (s("topology.skin_effect_present"), "s/op"),
        "topology.skin_effect_present.calls": (calls["topology.skin_effect_present"] / n, "1/op"),
        "topology.winding_per_branch.s": (s("topology.winding_per_branch"), "s/op"),
        "topology.winding_per_branch.certified_ratio": (
            counts["winding.certified"] / max(counts["winding.attempted"], 1), "ratio"),
        "topology.self_s": (module_self("topology"), "s/op"),
        "circuit.hoppings.calls": (calls["circuit.hoppings"] / n, "1/op"),
        "circuit.lambda_diag.calls": (calls["circuit.lambda_diag"] / n, "1/op"),
        "transient.simulate.s": (s("transient.simulate"), "s/op"),
        "transient.simulate.calls": (calls["transient.simulate"] / n, "1/op"),
        "transient.simulate.steps": (counts["simulate.steps"] / n, "1/op"),
        "transient.simulate.s_per_sample": (
            total["transient.simulate"] / max(samples, 1), "s/sample"),
        "transient.state_dim": (counts["state_dim"], "count"),
        "transient.assemble_state_space.s": (s("transient.assemble_state_space"), "s/op"),
        "transient.fit_damped_oscillation.s": (s("transient.fit_damped_oscillation"), "s/op"),
        "transient.fit_damped_oscillation.errors": (
            tracer.errors["transient.fit_damped_oscillation"] / n, "1/op"),
        "transient.ground_current_profile.s": (s("transient.ground_current_profile"), "s/op"),
        "transient.self_s": (module_self("transient"), "s/op"),
        "cli.self_s": (module_self("cli"), "s/op"),
        "cli.bytes_written": (counts["cli.bytes_written"] / n, "B/op"),
        "cli.files_written": (counts["cli.files_written"] / n, "1/op"),
        "trace.overhead_s": (overhead, "s/op"),
    }
    detail = {
        "traced_ops": len(traced_times),
        "paired_ops": len(pairs),
        "self_s_per_op": {k: v / n for k, v in sorted(own.items(), key=lambda kv: -kv[1])},
        "total_s_per_op": {k: v / n for k, v in sorted(total.items(), key=lambda kv: -kv[1])},
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "topochain" / "__init__.py").is_file():
        print(f"error: no topochain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    wl, inputs = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = json.loads((HERE / "reference.json").read_text())
    outdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    runner = Runner(wl, args.workload, inputs, outdir, reference)
    try:
        if args.trace:
            from spans import Tracer
            metrics, detail = per_layer(runner, args, Tracer())
        else:
            metrics, detail = end_to_end(runner, args, setup_s)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace,
                      "problems": runner.problems, "detail": detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
