"""Self-tests of the benchmark harness: python3 perfbench/selftest.py

Named so that pytest does not collect it into the package's own suite.
"""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import COUNTED, MODULES, SPANNED, Span, Tracer, self_times, tail_percentile  # noqa: E402


def bindings():
    import importlib
    mods = [importlib.import_module("topochain")] + [
        importlib.import_module(f"topochain.{m}") for m in MODULES]
    return {(mod.__name__, attr): value for mod in mods
            for attr, value in vars(mod).items() if callable(value)}


class Arithmetic(unittest.TestCase):
    def test_self_time_on_span_tree(self):
        # a(0..10) holds b(1..4), which holds c(2..3), and d(5..9); a second
        # top-level a(20..22) has no children
        spans = [Span("a", -1, 0.0, 10.0), Span("b", 0, 1.0, 4.0),
                 Span("c", 1, 2.0, 3.0), Span("d", 0, 5.0, 9.0),
                 Span("a", -1, 20.0, 22.0)]
        total, own = self_times(spans)
        self.assertEqual(dict(total), {"a": 12.0, "b": 3.0, "c": 1.0, "d": 4.0})
        self.assertEqual(dict(own), {"a": 5.0, "b": 2.0, "c": 1.0, "d": 4.0})

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(tail_percentile(range(1, 101)), (90.0, 90, 100))
        self.assertEqual(tail_percentile(range(1, 1001)), (99.0, 990, 1000))
        self.assertEqual(tail_percentile(range(1, 21)), (50.0, 10, 20))
        self.assertIsNone(tail_percentile(range(1, 20)))


class Inputs(unittest.TestCase):
    def test_same_seed_same_sweep_points(self):
        a, b = workloads.sweep_points(4), workloads.sweep_points(4)
        self.assertEqual(a, b)
        self.assertNotEqual(a, workloads.sweep_points(5))
        values = np.array([[p[k] for k in ("r1", "r2", "c1", "c2", "l")] for p in a])
        lo, hi = workloads.ELEMENT_RANGE
        self.assertTrue(np.all((values >= lo) & (values <= hi)))

    def test_preset_order_follows_seed(self):
        keys = [op.key for op in workloads.make_inputs("ringdown", 9).ops]
        self.assertEqual(keys, [op.key for op in workloads.make_inputs("ringdown", 9).ops])
        self.assertEqual(sorted(keys), list(workloads.RINGDOWN_PRESETS))


class Wrappers(unittest.TestCase):
    def test_wrappers_restore_the_original_functions(self):
        before = bindings()
        tracer = Tracer()
        with self.assertRaises(RuntimeError):
            with tracer.installed():
                wrapped = bindings()
                for mod, names in {**SPANNED, **COUNTED}.items():
                    for name in names:
                        self.assertIsNot(wrapped[(f"topochain.{mod}", name)],
                                         before[(f"topochain.{mod}", name)])
                # the by-name imports into other modules are wrapped too
                self.assertIsNot(wrapped[("topochain.topology", "hoppings")],
                                 before[("topochain.topology", "hoppings")])
                self.assertIsNot(wrapped[("topochain.topology", "band_trace")],
                                 before[("topochain.topology", "band_trace")])
                raise RuntimeError("leave the block by an exception")
        after = bindings()
        self.assertEqual(after.keys(), before.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_calls_between_modules_are_counted(self):
        from topochain import spectral, topology
        from topochain.params import CircuitParams
        params = CircuitParams(0.05, 1.41, 0.03, 1.34, 1.17)
        tracer = Tracer()
        with tracer.installed():
            band = spectral.band_trace(params, 64)
            topology.winding_per_branch(params, band)
        self.assertEqual(tracer.calls["spectral.band_trace"], 1)
        self.assertEqual(tracer.calls["spectral.natural_frequencies"], 64)
        self.assertGreaterEqual(tracer.calls["circuit.hoppings"], 4 * 64)
        self.assertEqual(tracer.counts["winding.attempted"], 4)
        total, own = self_times(tracer.spans)
        self.assertLess(own["spectral.band_trace"], total["spectral.band_trace"])


if __name__ == "__main__":
    unittest.main()
