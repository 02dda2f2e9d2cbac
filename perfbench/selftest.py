"""The benchmark's own tests: smoke runs of every workload and oracle negative controls.

Usage, from the repository root: python3 perfbench/selftest.py [-v]
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

_FIXTURES = {}


def library_result(workload: str, inp: dict) -> dict:
    """A genuine serialized result of one op, for corrupting in the controls."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import frickelab as fl
    import frickelab.cli as cli

    import worker

    if not _FIXTURES:
        _FIXTURES.update(worker.build_fixtures(fl, cli))
    arg = worker.prepare(fl, workload, inp)
    return worker.serialize(workload, worker.OPS[workload](_FIXTURES, arg, {"fl": fl}), fl)


def smoke(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def check_result(self, workload: str, trace: int, expected_names: list[str]) -> dict:
        proc = smoke(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out = last_json(proc)
        self.assertEqual(sorted(out), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(sorted(out["metrics"]), sorted(expected_names))
        for name, m in out["metrics"].items():
            self.assertEqual(sorted(m), ["unit", "value"], name)
        return out

    def test_end_to_end_every_workload(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                out = self.check_result(w["name"], 0, names)
                for name in names:
                    self.assertGreater(out["metrics"][name]["value"], 0, name)
                # known defect: length_of refuses the four words per block with trace < -2
                expected = 0.25 if w["name"] == "traces" else 0.0
                self.assertEqual(out["failed"] / out["attempted"], expected)

    def test_per_layer_traced(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for workload in ("paper", "traces"):
            with self.subTest(workload=workload):
                out = self.check_result(workload, 1, names)
                self.assertGreater(out["metrics"]["tracering.trace_polynomial.calls"]["value"], 0)
                self.assertGreater(out["metrics"]["trace.overhead_ratio"]["value"], 0)

    def test_refuses_without_sources(self):
        lone = os.path.join(ROOT, ".perfbench_out", "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(lone, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=lone, timeout=170,
                env=dict(os.environ, PYTHONPATH=""),
            )
        finally:
            shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        mp = oracles.MpPoints()
        for workload in ("paper", "traces", "sweep", "galois"):
            self.assertEqual(gen.make_pool(workload, 5, 2, mp), gen.make_pool(workload, 5, 2, mp))
            self.assertNotEqual(gen.make_pool(workload, 5, 2, mp), gen.make_pool(workload, 6, 2, mp))

    def test_traces_block_composition(self):
        for block in gen.make_pool("traces", 3, 4, oracles.MpPoints()):
            self.assertEqual(len(block), 16)
            self.assertEqual(sum(op["paper_class"] == "neg" for op in block), 4)
            self.assertEqual(sum(op["periodic"] for op in block), 4)

    def test_percentile(self):
        self.assertEqual(run.percentile([1, 2, 3, 4, 5], 50), 3)
        self.assertEqual(run.percentile([0, 10], 70), 7)

    def test_scaled_latencies(self):
        # each op is scaled by the mean of the probes during it and on either side
        ref = run.worker.PROBE_REF_S
        r = {"latencies": [0.01, 0.03], "windows": [(1, 1), (1, 3)], "probes": [2 * ref, 2 * ref, ref, ref]}
        self.assertEqual([round(x, 12) for x in run.scaled_latencies(r)], [0.005, 0.02])


class OracleControls(unittest.TestCase):
    """Each oracle must reject a deliberately wrong answer."""

    def test_paper(self):
        good = {"returncode": 0, "stdout": checks.PAPER_STDOUT}
        self.assertEqual(checks.check_paper({}, good, None), "ok")
        bad = {"returncode": 1, "stdout": checks.PAPER_STDOUT.replace("galois: pass", "galois: fail")}
        self.assertEqual(checks.check_paper({}, bad, None), "wrong")

    def test_trace_polynomial(self):
        rng = random.Random(0)
        aab = [((1, 0, 1), 1), ((0, 1, 0), -1)]  # tr(aab) = XZ - Y
        self.assertTrue(oracles.check_trace_polynomial("aab", aab, rng))
        self.assertFalse(oracles.check_trace_polynomial("aab", [((1, 0, 1), 1)], rng))

    def test_sweep(self):
        ctx = {"sweep_truth": {}}
        inp = {"coeffs": [-3, -1, 1]}  # t^2 - t - 3: geometric Salem
        good = {"status": "GeometricSalem", "witness": 2, "transform": [1, -1, -1, -1, 1],
                "back": [-3, -1, 1], "salem": "Salem"}
        self.assertEqual(checks.check_sweep(inp, good, ctx), "ok")
        self.assertEqual(checks.check_sweep(inp, dict(good, status="NotSalem"), ctx), "wrong")
        self.assertEqual(checks.check_sweep(inp, dict(good, transform=[1, -1, 0, -1, 1]), ctx), "wrong")
        self.assertEqual(checks.check_sweep(inp, dict(good, witness=3), ctx), "wrong")  # splits mod 3
        reducible = {"coeffs": [2, -3, 1]}
        self.assertEqual(checks.check_sweep(reducible, {"status": "GeometricSalem", "witness": 5}, ctx), "wrong")
        self.assertEqual(checks.check_sweep(inp, dict(good, status="Inconclusive"), ctx), "undecided")

    def test_galois(self):
        quintic = list(oracles.PAPER_QUINTIC)
        good = library_result("galois", {"coeffs": quintic})
        self.assertEqual(checks.check_galois({"coeffs": quintic}, good, None), "ok")
        inp = {"coeffs": quintic}
        wide = dict(good, refined=good["isolating"])
        self.assertEqual(checks.check_galois(inp, wide, None), "wrong")
        self.assertEqual(checks.check_galois(inp, dict(good, witness=2), None), "wrong")
        # claim a 5-cycle at 3, where the quintic factors as 2 + 3
        forged = [[p, [5] if p == 3 else pat] for p, pat in good["samples"]]
        self.assertNotEqual(forged, good["samples"])
        self.assertEqual(checks.check_galois(inp, dict(good, samples=forged), None), "wrong")
        sextic = {"coeffs": [3, -1, 4, 1, -5, 2, 1]}
        res = library_result("galois", sextic)
        self.assertEqual(checks.check_galois(sextic, res, None), "undecided")
        claim = dict(res, verdict="NonArithmeticCertified", conclusion="FullSymmetric(6)")
        self.assertEqual(checks.check_galois(sextic, claim, None), "wrong")

    def test_traces(self):
        ctx = {"mp": oracles.MpPoints()}
        for word, expected in (("aab", "ok"), ("abAAB", "refused"), ("abAB", "ok")):
            inp = {"word": word, "check_seed": 1}
            good = library_result("traces", inp)
            self.assertEqual(checks.check_traces(inp, good, ctx), expected, word)
        inp = {"word": "aab", "check_seed": 1}
        good = library_result("traces", inp)
        shifted = [str(Fraction(c) + Fraction(1, 10**30)) for c in good["paper_coeffs"]]
        self.assertEqual(checks.check_traces(inp, dict(good, paper_coeffs=shifted), ctx), "wrong")
        lo, hi = good["interval"]
        self.assertEqual(checks.check_traces(inp, dict(good, interval=[hi, str(Fraction(hi) + 1)]), ctx), "wrong")
        lo, hi = good["length"]
        self.assertEqual(checks.check_traces(inp, dict(good, length=[hi, str(Fraction(hi) + Fraction(1, 2**100))]), ctx), "wrong")
        self.assertEqual(checks.check_traces(inp, dict(good, terms=good["terms"][1:]), ctx), "wrong")

    def test_patterns_agree(self):
        rng = random.Random(1)
        for _ in range(20):
            f = [rng.randint(-9, 9) for _ in range(rng.randint(2, 6))] + [1]
            for p in (2, 3, 5):
                g = oracles._gf_trim(f, p)
                dg = oracles._gf_trim([i * c for i, c in enumerate(g)][1:], p)
                if len(oracles.gf_gcd(g, dg, p)) == 1:
                    self.assertEqual(oracles.pattern_by_trial_division(f, p), oracles.pattern_by_root_counts(f, p))


if __name__ == "__main__":
    unittest.main()
