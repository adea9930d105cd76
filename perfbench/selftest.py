"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that a seed fixes the inputs, that the drift ledger equals
``check``'s findings on several seeds, and that traced and untraced runs
write byte-identical outputs.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import os
import shutil
import tempfile
import unittest
from pathlib import Path

import run
import spans
import workloads

TINY = workloads.Shape(classes=4, methods=10, attributes=2, drift=0.5,
                       kinds=("rename", "return", "missing", "extra"))
SEEDS = range(1, 6)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.modules = run.load_modules()
        run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
        cls.work = Path(tempfile.mkdtemp(prefix="selftest-",
                                         dir=run.WORK_ROOT))
        cls.cwd = os.getcwd()

    @classmethod
    def tearDownClass(cls):
        os.chdir(cls.cwd)
        shutil.rmtree(cls.work, ignore_errors=True)

    def inputs_in(self, inputs: workloads.Inputs, name: str) -> Path:
        base = self.work / name
        inputs.write(base)
        os.chdir(base)
        return base

    def test_same_seed_same_bytes(self):
        for seed in SEEDS:
            a = workloads.generate(TINY, seed)
            b = workloads.generate(TINY, seed)
            self.assertEqual(a.ledger(), b.ledger())
        self.assertNotEqual(workloads.generate(TINY, 1).ledger(),
                            workloads.generate(TINY, 2).ledger())

    def test_ledger_equals_findings(self):
        for workload in workloads.WORKLOADS:
            self.run_gated(workloads.build(workload, 1, run.ROOT), workload)
        for seed in SEEDS:
            inputs = workloads.generate(TINY, seed, run.ROOT)
            self.assertTrue(inputs.expected_findings)
            self.run_gated(inputs, f"tiny-{seed}")

    def run_gated(self, inputs: workloads.Inputs, name: str):
        base = self.inputs_in(inputs, name)
        commands = run.make_commands(inputs)
        run.run_in_process(self.modules, commands, base)
        for cmd in commands:
            self.assertEqual(cmd.failed, 0, f"{name} {cmd.label}: "
                             f"{cmd.problems}")
        return base, commands

    def test_traced_outputs_match_untraced(self):
        base, commands = self.run_gated(
            workloads.generate(TINY, 7, run.ROOT), "traced")
        tracer = spans.Tracer(self.modules)
        tracer.install()
        try:
            run.run_in_process(self.modules, commands, base)
        finally:
            tracer.uninstall()
        self.assertTrue(tracer.spans)
        for cmd in commands:
            self.assertEqual((cmd.attempted, cmd.failed), (2, 0), cmd.label)

    def test_gate_rejects_wrong_findings(self):
        inputs = workloads.generate(TINY, 3, run.ROOT)
        inputs.expected_findings = inputs.expected_findings[1:]
        base = self.inputs_in(inputs, "wrong")
        commands = run.make_commands(inputs)[:1]
        run.run_in_process(self.modules, commands, base)
        self.assertEqual(commands[0].failed, 1)


if __name__ == "__main__":
    unittest.main()
