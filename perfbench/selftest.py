"""Self-tests of the benchmark harness (tracing, self time, reference checks).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import threading
import time
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import checks
import tracing
import worker
import workloads

cli = worker.import_program()
import oscpair.fock  # noqa: E402
import oscpair.moments  # noqa: E402
import oscpair.runner  # noqa: E402
import oscpair.spectral  # noqa: E402
import scipy.integrate  # noqa: E402

CHEAP_OPS = (workloads.Op("run_small", ("run", "--preset", "fig5", "--set",
                                        "schemes=global,local,mixture", "--grid", "0:10:11:lin")),)


def _bindings():
    return {
        "cli.memory_time": cli.memory_time,
        "spectral.memory_time": oscpair.spectral.memory_time,
        "runner.propagate": oscpair.runner.propagate,
        "moments.expm": oscpair.moments.expm,
        "fock.solve_ivp": oscpair.fock.solve_ivp,
        "SchemeRunner.trajectory": oscpair.runner.SchemeRunner.__dict__["trajectory"],
    }


class TempDirCase(unittest.TestCase):
    def setUp(self):
        (worker.ROOT / ".perfbench" / "tmp").mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=worker.ROOT / ".perfbench" / "tmp"))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class TracerInstall(TempDirCase):
    def test_traced_run_wraps_and_restores_every_binding(self):
        before = _bindings()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            during = _bindings()
            for name, original in before.items():
                self.assertIsNot(during[name], original, name)
            self.assertIs(scipy.integrate.solve_ivp, before["fock.solve_ivp"])
            rec, _ = worker.run_op(cli, CHEAP_OPS[0], self.tmp)
            self.assertEqual(rec["rc"], 0, rec["problems"])
        finally:
            tracer.restore()
        self.assertEqual(tracing.installed_wrappers(), [])
        after = _bindings()
        for name, original in before.items():
            self.assertIs(after[name], original, name)
        names = {s.name for s in tracer.spans}
        self.assertTrue({"cli.cmd_run", "runner.trajectory", "spectral.memory_time",
                         "moments.propagate"} <= names, names)

    def test_missing_listed_name_fails_and_installs_nothing(self):
        for missing in ("no_such_function", "SchemeRunner.no_such_method"):
            saved = tracing.LAYERS["runner"]
            tracing.LAYERS["runner"] = ("oscpair.runner", ["SchemeRunner.trajectory", missing])
            try:
                with self.assertRaises(LookupError):
                    tracing.Tracer().install()
            finally:
                tracing.LAYERS["runner"] = saved
            self.assertEqual(tracing.installed_wrappers(), [], missing)

    def test_untraced_pass_installs_nothing(self):
        saved = workloads.FIGURES
        workloads.FIGURES = CHEAP_OPS
        try:
            out = worker.run_pass("figures", 0, self.tmp, record={})
            self.assertNotIn("layers", out)
            self.assertEqual(tracing.installed_wrappers(), [])
            traced = worker.run_pass("figures", 0, self.tmp, trace=True, record={})
        finally:
            workloads.FIGURES = saved
        self.assertEqual(tracing.installed_wrappers(), [])
        self.assertGreater(traced["layers"]["cli.cmd_run.calls"], 0)
        self.assertTrue(all(op["ok"] for op in out["ops"] + traced["ops"]))


class SelfTime(unittest.TestCase):
    def test_synthetic_tree_with_overlapping_children(self):
        spans = [tracing.Span(0, None, "cli.cmd_sweep", 1, 0.0, 10.0),
                 tracing.Span(1, 0, "cli.cmd_run", 2, 1.0, 4.0),
                 tracing.Span(2, 0, "cli.cmd_run", 3, 3.0, 6.0),
                 tracing.Span(3, 1, "runner.trajectory", 2, 2.0, 3.0),
                 tracing.Span(4, None, "runner.trajectory", 1, 11.0, 12.0)]
        own = tracing.self_times(spans)
        self.assertEqual(own, {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0})
        metrics = tracing.layer_metrics(spans)
        self.assertEqual(metrics["cli.cmd_run.self_s"], 5.0)
        self.assertEqual(metrics["cli.self_s"], 10.0)
        self.assertEqual(metrics["cli.sweep.overlap"], 0.6)
        self.assertEqual(metrics["runner.trajectory.hit_ratio"], 1.0)

    def test_pool_thread_spans_are_children_of_the_main_thread_span(self):
        tracer = tracing.Tracer()
        outer = tracer.open("cli.cmd_sweep")

        def inner(_):
            span = tracer.open("cli.cmd_run")
            leaf = tracer.open("runner.trajectory")
            time.sleep(0.02)
            tracer.close(leaf)
            time.sleep(0.02)
            tracer.close(span)
            return threading.get_ident()

        with ThreadPoolExecutor(max_workers=2) as pool:
            idents = set(pool.map(inner, range(4)))
        tracer.close(outer)
        self.assertNotIn(threading.get_ident(), idents)
        runs = [s for s in tracer.spans if s.name == "cli.cmd_run"]
        leaves = [s for s in tracer.spans if s.name == "runner.trajectory"]
        self.assertTrue(all(s.parent == outer.sid for s in runs))
        self.assertEqual({s.parent for s in leaves}, {s.sid for s in runs})
        own = tracing.self_times(tracer.spans)
        covered = tracing._union_length([(s.start, s.end) for s in runs])
        self.assertAlmostEqual(own[outer.sid], (outer.end - outer.start) - covered, places=12)
        for run in runs:
            leaf = next(s for s in leaves if s.parent == run.sid)
            self.assertAlmostEqual(own[run.sid], (run.end - run.start) - (leaf.end - leaf.start),
                                   places=12)
        self.assertGreater(tracing.layer_metrics(tracer.spans)["cli.sweep.overlap"], 1.0)


class ReferenceCheck(TempDirCase):
    def _write(self, value: float) -> Path:
        out = Path(tempfile.mkdtemp(dir=self.tmp))
        (out / "M=1").mkdir(parents=True)
        (out / "M=1" / "exact.csv").write_text(
            "t,n_plus\n" + "".join(f"{t},{value * t}\n" for t in range(20)))
        (out / "summary.json").write_text(json.dumps({"tau": value, "name": "x",
                                                      "nested": {"v": [1.0, value]}}))
        (out / "index.json").write_text(json.dumps({"values": {"1": {"status": "ok"}}}))
        return out

    def test_identical_outputs_pass_with_zero_deviation(self):
        ref = checks.describe_outputs(self._write(2.5))
        dev = checks.Deviation()
        self.assertEqual(checks.check_outputs(self._write(2.5), ref, dev), [])
        self.assertEqual(dev.abs, 0.0)

    def test_roundoff_passes_and_perturbation_fails(self):
        ref = checks.describe_outputs(self._write(2.5))
        dev = checks.Deviation()
        self.assertEqual(checks.check_outputs(self._write(2.5 * (1 + 1e-13)), ref, dev), [])
        self.assertGreater(dev.abs, 0.0)
        problems = checks.check_outputs(self._write(2.5 * (1 + 1e-4)), ref, checks.Deviation())
        self.assertTrue(any("n_plus" in p for p in problems), problems)
        self.assertTrue(any("summary.json: tau" in p for p in problems), problems)

    def test_missing_file_and_status_change_fail(self):
        ref = checks.describe_outputs(self._write(2.5))
        out = self._write(3.5)
        (out / "M=1" / "exact.csv").unlink()
        (out / "index.json").write_text(json.dumps({"values": {"1": {"status": "error"}}}))
        problems = checks.check_outputs(out, ref, checks.Deviation())
        self.assertTrue(any("missing" in p for p in problems), problems)
        self.assertTrue(any("statuses" in p for p in problems), problems)

    def test_nonzero_exit_is_a_failure(self):
        op = workloads.Op("bad", ("run", "--preset", "fig5", "--set", "no_such_field=1"))
        rec, _ = worker.run_op(cli, op, self.tmp)
        self.assertEqual(rec["rc"], 1)
        self.assertTrue(rec["problems"] and rec["problems"][0].startswith("exit code 1"))


if __name__ == "__main__":
    sys.exit(unittest.main())
