"""Tests of the benchmark's own machinery.

Run from the root of a checkout: python3 -m pytest perfbench/tests
(or python3 -m unittest discover perfbench/tests).
"""

import contextlib
import io
import json
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [15, 25]
        parent = [-1, 0, 1, 0]
        start = [0, 10, 15, 50]
        end = [100, 40, 25, 90]
        self.assertEqual(tracer.self_times(parent, start, end), [30, 20, 10, 40])

    def test_wrapped_calls(self):
        t = tracer.Tracer(clock=FakeClock())

        def leaf(x):
            return x + 1

        def gen(n):
            for i in range(n):
                yield leaf(i)

        def fails():
            leaf(0)
            raise ValueError("boom")

        leaf_w = t.wrap("partitions.leaf", leaf)
        gen_w = t.wrap("partitions.reverse_tableaux", gen)
        fails_w = t.wrap("okounkov.fails", fails)
        t.wrap("okounkov.outer", lambda: None)  # wrapped, never called
        leaf = leaf_w  # the generator and fails() now reach the wrapper

        def outer():
            out = list(gen_w(2))
            try:
                fails_w()
            except ValueError:
                pass
            return out

        outer_w = t.wrap("okounkov.top", outer)
        self.assertEqual(outer_w(), [1, 2])
        summary = t.summary()
        funcs = summary["funcs"]
        # gen: two yielding next() calls plus the one that ends the generator
        self.assertEqual(funcs["partitions.reverse_tableaux"]["calls"], 3)
        self.assertEqual(funcs["partitions.reverse_tableaux"]["items"], 2)
        self.assertEqual(funcs["partitions.leaf"]["calls"], 3)
        # the error is counted once, where it was raised
        self.assertEqual(funcs["okounkov.fails"]["errors"], 1)
        self.assertEqual(funcs["okounkov.top"]["errors"], 0)
        # each span costs two clock ticks; self times add up to the root span
        root = [i for i, f in enumerate(t.func) if t.names[f] == "okounkov.top"][0]
        total_self = sum(rec["self_ns"] for rec in funcs.values())
        self.assertEqual(total_self, t.end[root] - t.start[root])
        self.assertNotIn("okounkov.outer", funcs)
        metrics = tracer.layer_metrics(tracer.merge([summary]))
        self.assertEqual(metrics["partitions.tableaux"], 2)
        self.assertEqual(metrics["okounkov.errors"], 1)
        self.assertAlmostEqual(
            sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS), total_self / 1e9
        )

    def test_percentile(self):
        self.assertEqual(tracer.percentile(range(1, 101), 50), 50.0)
        self.assertEqual(tracer.percentile(range(1, 101), 99), 99.0)
        self.assertEqual(tracer.percentile([], 99), 0.0)


class CheckerTest(unittest.TestCase):
    def test_exact_output_one_byte_change_fails(self):
        argv = ["expand", "--n", "2", "--tau", "1", "--alpha", "1/2", "--lambda", "1"]
        out = b'{"n": 2, "terms": [{"coeff": "1", "exp": [1, 0]}, {"coeff": "-5/2", "exp": [0, 0]}]}\n'
        ref = check.make_reference(argv, 0, out)
        self.assertIsNone(check.check(ref, 0, out))
        changed = out.replace(b"-5/2", b"-5/3")
        self.assertEqual(len(changed), len(out))
        self.assertIsNotNone(check.check(ref, 0, changed))
        self.assertIsNotNone(check.check(ref, 3, out))

    def test_float_raster(self):
        argv = ["region", "--kind", "W", "--m", "0", "--grid", "2"]
        out = b"x,y,member,witness\n0,0,0,\n2.5,0,0,\n2.5,2.5,1,\n"
        ref = check.make_reference(argv, 0, out)
        self.assertEqual(ref["axis"], [0.0, 2.5])
        self.assertEqual(ref["flags"], [["0,", 2], ["1,", 1]])
        self.assertIsNone(check.check(ref, 0, out))
        self.assertIsNone(check.check(ref, 0, out.replace(b"2.5,2.5", b"2.5,2.500000000001")))
        self.assertIsNotNone(check.check(ref, 0, out.replace(b"2.5,2.5", b"2.5,2.51")))
        self.assertIsNotNone(check.check(ref, 0, out.replace(b"2.5,2.5,1", b"2.5,2.5,0")))
        self.assertIsNotNone(check.check(ref, 0, out[: -len(b"2.5,2.5,1,\n")]))

    def test_contour_and_json(self):
        lines = check.make_reference(["contour", "--m", "0"], 0, b"x,y\n0.5,0.25\n\n1,1\n")
        self.assertIsNone(check.check(lines, 0, b"x,y\n0.5000000000001,0.25\n\n1,1\n"))
        self.assertIsNotNone(check.check(lines, 0, b"x,y\n0.5,0.25\n1,1\n"))
        self.assertIsNotNone(check.check(lines, 0, b"x,y\n0.5,0.26\n\n1,1\n"))
        obj = check.make_reference(["crossing", "--m", "0"], 0, b'{"c_m": 0.5, "residual": -2e-13}\n')
        self.assertIsNone(check.check(obj, 0, b'{"c_m": 0.5000000000002, "residual": 1e-13}\n'))
        self.assertIsNotNone(check.check(obj, 0, b'{"c_m": 0.51, "residual": -2e-13}\n'))
        self.assertIsNotNone(check.check(obj, 0, b'{"c_m": 0.5}\n'))


class WorkloadTest(unittest.TestCase):
    def test_seed_determines_argv(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.commands(name, 7), workloads.commands(name, 7))
            passes = [workloads.commands(name, seed) for seed in range(20)]
            for a in range(len(passes)):
                for b in range(a):
                    self.assertNotEqual(passes[a], passes[b], f"{name}: seeds {a} and {b}")

    def test_every_command_has_a_reference(self):
        refs = run.load_references()
        keys = {check.key(argv) for argv in workloads.all_commands()}
        self.assertEqual(keys, set(refs))


class ScalingTest(unittest.TestCase):
    def test_probe_scales_each_command(self):
        def result(cmd, wall, main, probe, rows=0):
            report = {"imported_ns": 0, "main_ns": main, "rss_kb": 2048}
            return {"argv": [cmd], "wall": wall, "setup": wall // 4, "main": main, "rows": rows,
                    "report": report, "probe": probe}

        # the machine halves its speed during the first pass; the probes
        # around each command see it
        nominal = run.PROBE_NOMINAL_S
        first = [result("region", 2_000_000_000, 1_000_000_000, nominal, rows=1000),
                 result("eval", 2_000_000_000, 0, 2 * nominal)]
        slow = [result("region", 4_000_000_000, 2_000_000_000, 2 * nominal, rows=1000),
                result("eval", 2_000_000_000, 0, 2 * nominal)]
        scaled, raw = run.end_to_end([first, slow, slow])
        self.assertEqual(raw["wall_s"], 6.0)
        self.assertEqual(raw["points_per_s"], 500.0)
        # every pass is 3.0 on the nominal machine
        self.assertAlmostEqual(scaled["wall_s"], 3.0)
        self.assertAlmostEqual(scaled["setup_s"], 0.75)
        self.assertAlmostEqual(scaled["points_per_s"], 1000.0)
        self.assertEqual(scaled["peak_rss_mb"], 2.0)


class BrokenProgramTest(unittest.TestCase):
    """A program whose commands fail or die is measured and reported as
    incorrect; the benchmark itself does not fail."""

    @staticmethod
    def result(argv, report=True, region_reports=False):
        # the command exits 1 with no output, as when main raises; unless
        # region_reports, region commands die before their process can
        # report
        rep = {"imported_ns": 0, "main_ns": 1_000_000, "rss_kb": 2048, "module": ""}
        alive = report and (region_reports or argv[0] != "region")
        return {"argv": argv, "rc": 1, "stdout": b"", "stderr": b"", "wall": 5_000_000,
                "setup": 1_000_000 if alive else None, "main": 1_000_000 if alive else None,
                "report": rep if alive else None, "probe": run.PROBE_NOMINAL_S}

    def test_no_region_report_gives_zero_rate(self):
        p = [dict(self.result(["region"]), rows=0), dict(self.result(["contour"]), rows=0)]
        scaled, raw = run.end_to_end([p])
        self.assertEqual(scaled["points_per_s"], 0.0)
        self.assertAlmostEqual(raw["wall_s"], 0.005)
        self.assertEqual(scaled["peak_rss_mb"], 2.0)
        dead = [dict(self.result(["eval"], report=False), rows=0)]
        self.assertEqual(run.end_to_end([dead])[0]["peak_rss_mb"], 0.0)
        layers = run.per_layer([[(p[0], p[0])]])
        self.assertEqual(layers["trace.overhead_frac"], 0.0)
        self.assertEqual(layers["okounkov.eval_calls"], 0)

    def test_every_command_failing_is_reported(self):
        for region_reports in (False, True):
            with self.subTest(region_reports=region_reports):
                result = self.run_failing(region_reports)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(result["metrics"]["points_per_s"]["value"], 0.0)
                self.assertGreater(result["metrics"]["wall_s"]["value"], 0.0)

    def run_failing(self, region_reports: bool) -> dict:
        """run.main on raster-float with every command failing; the JSON
        result it prints."""
        saved = run.preflight, run.probe_s, run.run_command
        run.preflight = lambda: None
        run.probe_s = lambda: run.PROBE_NOMINAL_S

        def run_command(argv, trace=False):
            time.sleep(0.01)  # a few dozen commands in the one-second run
            return self.result(argv, region_reports=region_reports)

        run.run_command = run_command
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = run.main(["--workload", "raster-float", "--seed", "0", "--seconds", "1", "--trace", "0"])
        finally:
            run.preflight, run.probe_s, run.run_command = saved
        self.assertEqual(rc, 0)
        return json.loads(out.getvalue().splitlines()[-1])


class ChildTest(unittest.TestCase):
    """One short command through the real child process, traced."""

    def test_traced_eval_matches_reference(self):
        argv = workloads.commands("algebra", 0)
        argv = next(a for a in argv if a[0] == "eval")
        res = run.run_command(argv, trace=True)
        ref = run.load_references()[check.key(argv)]
        self.assertIsNone(check.check(ref, res["rc"], res["stdout"]))
        funcs = res["report"]["trace"]["funcs"]
        self.assertEqual(funcs["cli.main"]["calls"], 1)
        self.assertEqual(funcs["okounkov.okounkov_eval"]["calls"], 1)
        self.assertEqual(funcs["okounkov.okounkov_eval"]["exact"], 1)
        self.assertGreater(funcs["partitions.reverse_tableaux"]["items"], 0)
        self.assertGreater(res["setup"], 0)
        self.assertLess(res["setup"], res["wall"])


if __name__ == "__main__":
    unittest.main()
