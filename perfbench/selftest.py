"""Self-test of the benchmark's checker, on small versions of each workload.

    python3 perfbench/selftest.py

Shows that a clean op passes and that a corrupted transcript, a
nondeterministic rerun, a wrong exit code and a non-aborting Eve op each
count as a failure.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

import run  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SMALL_PPP = {**workloads.PPP_LARGE, "n": 100_000, "seed": 5}
SMALL_EVE = {**workloads.DESK_PPP, "seed": 5, "eve": 0.3}


class SmallLarge(workloads.PppLarge):
    """ppp_large at n = 1e5."""

    def next_op(self, index):
        cfg = {**SMALL_PPP, "seed": self.op_seed()}
        return workloads.Op("ppp", cfg["n"], runs=[("ppp", cfg)])


class Flaky(SmallLarge):
    """Returns a different transcript every time the same op runs."""

    calls = 0

    def execute(self, op, tracer=None, op_id=0):
        result = super().execute(op, tracer, op_id)
        Flaky.calls += 1
        result.outputs = [text.replace('"schema":1', f'"schema":1,"x":{Flaky.calls}') for text in result.outputs]
        return result


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT_DIR.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(dir=run.OUT_DIR))
        cls.checker = Checker()
        cls.clean = SmallLarge(0, cls.workdir, dict(os.environ)).execute(
            workloads.Op("ppp", SMALL_PPP["n"], runs=[("ppp", SMALL_PPP)])).outputs[0]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def problems(self, text, config=SMALL_PPP, expect_abort=False):
        return self.checker.transcript_problems(text, config, expect_abort)

    def test_clean_transcript_passes(self):
        self.assertEqual(self.problems(self.clean), [])

    def test_corrupted_transcripts_fail(self):
        t = json.loads(self.clean)
        self.assertTrue(self.problems(self.clean[:-10]))  # truncated JSON
        cut = dict(t, events=t["events"][:-1])
        self.assertTrue(self.problems(json.dumps(cut)))  # no complete/abort at the end
        bad_key = dict(t, key=dict(t["key"], final_len=t["key"]["final_len"] + 9))
        self.assertTrue(self.problems(json.dumps(bad_key)))  # hex length != final_len
        far = dict(t, estimates=dict(t["estimates"], eps_x_hat=t["estimates"]["eps_x_hat"] + 0.1))
        self.assertTrue(self.problems(json.dumps(far)))  # eps_x_hat 12 standard errors off

    def test_non_aborting_eve_op_fails(self):
        t = json.loads(self.clean)
        t["abort"], t["abort_reason"] = False, None
        t["events"] = [e for e in t["events"] if e["event"] != "abort"] + [{"event": "complete"}]
        self.assertIn("an Eve run did not abort", self.problems(json.dumps(t), expect_abort=True))

    def test_nondeterministic_rerun_fails(self):
        _, results = run.run_window(Flaky(0, self.workdir, dict(os.environ)), 0.01)
        self.assertIn("rerun of the op is not byte-identical", results[0].problems)
        _, results = run.run_window(SmallLarge(0, self.workdir, dict(os.environ)), 0.01)
        self.assertEqual(results[0].problems, [])
        # a traced window runs each op twice and compares the two outputs
        _, results = run.run_window(Flaky(0, self.workdir, dict(os.environ)), 0.01, Tracer())
        self.assertEqual(len(results), 2)
        self.assertIn("rerun of the op is not byte-identical", results[1].problems)

    def test_cli_rerun_op_takes_a_seed(self):
        cli = workloads.CliCold(0, self.workdir, dict(os.environ))
        op = cli.next_op(cli.rerun_index)
        self.assertEqual(op.label, "run-ppp")
        self.assertIn("seed", json.loads(op.files["run.json"]))

    def test_wrong_exit_code_fails(self):
        stdout = json.dumps({"ok": True, "checks": []})
        self.assertEqual(self.checker.cli_problems("verify-example", 0, stdout, {}), [])
        self.assertTrue(self.checker.cli_problems("verify-example", 1, stdout, {}))
        # a real child: run-ppp without a seed is a usage error, exit 2
        op = workloads.Op("run-ppp", 0, argv=["run-ppp", "--n", "1000"], expect={"config": SMALL_PPP})
        cli = workloads.CliCold(0, self.workdir, dict(os.environ))
        result = cli.execute(op)
        self.assertEqual(result.code, 2)
        self.assertTrue(cli.check(op, result))

    def test_small_workloads_pass(self):
        keyed = workloads.KeyedPbit(3, self.workdir, dict(os.environ))
        cli = workloads.CliCold(3, self.workdir, dict(os.environ))
        ops = [(keyed, keyed.next_op(0))]
        ops += [(cli, op) for op in (cli.next_op(i) for i in range(8)) if op.label in ("run-ppp eve", "estimate")]
        for workload, op in ops:
            result = workload.execute(op)
            self.assertEqual(workload.check(op, result), [], op.label)
        eve = workloads.Op("run-ppp", SMALL_EVE["n"], runs=[("ppp", SMALL_EVE)])
        result = keyed.execute(eve)
        self.assertEqual(keyed.check(eve, result), [])
        self.assertTrue(json.loads(result.outputs[0])["abort"])

    def test_traced_layer_metrics(self):
        tracer = Tracer()
        workload = workloads.KeyedPbit(4, self.workdir, dict(os.environ))
        result = workload.execute(workload.next_op(0), tracer, 0)
        self.assertTrue(result.traced)
        metrics = layer_metrics(tracer.spans, 1)
        self.assertGreater(metrics["ecpa.error_correct_s"], 0.0)
        self.assertLessEqual(metrics["protocol.self_s"], metrics["protocol.run_s"])
        self.assertEqual(metrics["estimation.table_calls"], 80)  # 2 runs x 4 components x (9 + 1) tables

    def test_importtime_parse(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |       scipy._lib",
            "import time:        90 |        100 |     scipy",
            "import time:         5 |         50 |       scipy.signal.sub",
            "import time:         5 |         55 |     scipy.signal",
            "import time:        20 |        200 |   pbitqkd.ecpa",
            "import time:        30 |        300 | pbitqkd",
        ])
        self.assertEqual(run.parse_importtime(text), (300e-6, 155e-6))


if __name__ == "__main__":
    unittest.main()
