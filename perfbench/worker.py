"""One fresh interpreter: import frickelab, build the fixtures, run ops.

Usage: python3 perfbench/worker.py JOB.json

The job names the checkout root, the workload, the mode ("setup" stops
after the fixtures and prints "ready" and its probe times; "run" also runs
the timed phase),
whether to trace, the seconds to measure or the exact number of blocks to run,
and where the inputs, results and spans live.  Only the public API of
frickelab and its CLI are used.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction

EPS_128 = Fraction(1, 2**128)
PRIME_BOUND = 500
HERE = os.path.dirname(os.path.abspath(__file__))

# The shared host's speed moves by up to 1.8x within a tenth of a second and
# drifts between levels for seconds to minutes, seen by the guest neither as
# steal nor as lost CPU time.  So a SIGALRM handler times a fixed probe every
# PROBE_EVERY_S of wall time, also in the middle of ops; its time is taken
# out of the op that it interrupted.  Each op's latency is later scaled to the
# host speed where a probe takes PROBE_REF_S by the probes taken during it and
# the one on either side (see run.py).
PROBE_REF_S = 0.0003
PROBE_EVERY_S = 0.01


def probe() -> float:
    """Seconds the fixed probe takes now.  Two halves that never touch
    frickelab: dicts keyed by monomial tuples with big integers and
    Fractions, which slow down less than the ops when the host is slow, and
    a tight integer loop, which slows down more; their sum tracks them."""
    t = time.perf_counter()
    terms: dict = {}
    for i in range(300):
        key = (i % 17, i % 5, i % 3)
        terms[key] = terms.get(key, 0) + (i << 70) * 3
    x = Fraction(0)
    for i in range(1, 15):
        x += Fraction(i, i + 3)
    s = 0
    for i in range(2000):
        s += i * i % 7
    return time.perf_counter() - t


class SpeedSampler:
    """Times probe() every PROBE_EVERY_S of wall time from a SIGALRM handler."""

    def __init__(self):
        self.took: list[float] = []  # seconds each probe took
        self.spent = 0.0  # seconds spent in the handler, probes included

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.took.append(probe())
        self.spent += time.perf_counter() - t

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def build_fixtures(fl, cli) -> dict:
    """The certified paper point and an interval-backed Markov point.

    The paper point goes through the CLI's point parser and its certificate
    chain (Teichmuller membership, S5 non-arithmeticity, the defining
    patterns, the length of a) is checked once, as every workload relies on it.
    """
    cfg = cli.RunConfig()
    paper = cli.parse_point("paper", cfg)
    if not fl.in_teichmuller(paper).member:
        raise AssertionError("paper point is not certified in Teichmuller space")
    if fl.non_arithmeticity_report(fl.eliminate_pattern_system(), PRIME_BOUND).verdict != "NonArithmeticCertified":
        raise AssertionError("paper quintic is not certified non-arithmetic")
    w = fl.parse_word
    for u, v in (("a", "b"), ("aa", "aab")):
        if fl.pattern_member(w(u), w(v), paper) != "In":
            raise AssertionError(f"paper point violates the pattern tr({u}) = tr({v})")
    fl.length_of(paper, w("a"))
    markov = fl.sample_markov_point(Fraction(3), Fraction(16, 5))
    interval = fl.FrickePoint.from_intervals(*markov.coordinate_intervals(EPS_128))
    if fl.trace_of(interval, w("ab")).value.width() > Fraction(1, 2**100):
        raise AssertionError("interval point lost its 2^-128 enclosure of z")
    return {"paper": paper, "interval": interval}


# -- operations ----------------------------------------------------------------------


def prepare(fl, workload: str, inp: dict):
    if workload == "traces":
        return fl.parse_word(inp["word"])
    if workload in ("sweep", "galois"):
        return fl.UniPoly(inp["coeffs"])
    return inp["cli_seed"]


def op_paper(fx, cli_seed, ctx):
    cmd = [sys.executable, os.path.join(HERE, "cli_entry.py")]
    if ctx["trace_dir"]:
        path = os.path.join(ctx["trace_dir"], f"cli-{len(ctx['child_spans'])}")
        ctx["child_spans"].append(path)
        cmd += ["--trace-to", path]
    cmd += ["verify-paper", "--machine", "--seed", str(cli_seed)]
    proc = subprocess.run(cmd, capture_output=True, env=ctx["env"], cwd=ctx["root"], timeout=170)
    return {"returncode": proc.returncode, "stdout": proc.stdout.decode()}


def op_traces(fx, word, ctx):
    fl = ctx["fl"]
    tp = fl.trace_polynomial(word)
    at_paper = fl.trace_of(fx["paper"], word)
    at_interval = fl.trace_of(fx["interval"], word)
    try:
        length = fl.length_of(fx["paper"], word)
    except fl.NonHyperbolicError as exc:
        length = exc
    return tp, at_paper, at_interval, length


def op_sweep(fx, p, ctx):
    fl = ctx["fl"]
    verdict = fl.is_geometric_salem(p, PRIME_BOUND)
    if verdict.status != "GeometricSalem":
        return verdict, None, None, None
    t = fl.salem_transform(p)
    back = fl.salem_inverse_transform(t)
    salem = fl.is_salem(t) if p.lc() == 1 else None
    return verdict, t, back, salem


def op_galois(fx, p, ctx):
    fl = ctx["fl"]
    report = fl.non_arithmeticity_report(p, PRIME_BOUND)
    isolating = fl.isolate_real_roots(p)
    refined = [fl.refine_root(p, iv, EPS_128) for iv in isolating]
    return report, isolating, refined


OPS = {"paper": op_paper, "traces": op_traces, "sweep": op_sweep, "galois": op_galois}


# -- results as JSON -------------------------------------------------------------------


def _q(x) -> str:
    return str(Fraction(x))


def _iv(pair) -> list[str]:
    return [_q(pair[0]), _q(pair[1])]


def serialize(workload: str, res, fl) -> dict:
    if isinstance(res, Exception):
        return {"error": f"{type(res).__name__}: {res}"[:300],
                "precision": isinstance(res, fl.PrecisionError)}
    if workload == "paper":
        return res
    if workload == "traces":
        tp, at_paper, at_interval, length = res
        out = {
            "terms": [[*m, c] for m, c in tp.terms.items()],
            "paper_coeffs": [_q(c) for c in at_paper.value.coeffs],
            "interval": _iv((at_interval.value.lo, at_interval.value.hi)),
        }
        if isinstance(length, Exception):
            out["refused"] = str(length)[:200]
            out["precision"] = isinstance(length.__cause__, fl.PrecisionError)
        else:
            out["length"] = _iv((length.lo, length.hi))
        return out
    if workload == "sweep":
        verdict, t, back, salem = res
        out = {"status": verdict.status, "witness": verdict.evidence.get("irreducibility_witness")}
        if t is not None:
            out.update(transform=list(t.coeffs), back=list(back.coeffs),
                       salem=salem.status if salem is not None else None)
        return out
    report, isolating, refined = res
    cert = report.certificate
    return {
        "verdict": report.verdict,
        "conclusion": cert.conclusion if cert else None,
        "irreducibility": cert.irreducibility.status if cert else None,
        "witness": cert.irreducibility.witness if cert else None,
        "samples": [[prime, list(pattern)] for prime, pattern in cert.samples] if cert else [],
        "isolating": [_iv(iv) for iv in isolating],
        "refined": [_iv(iv) for iv in refined],
    }


# -- main --------------------------------------------------------------------------------


def main() -> int:
    # The ops, the probes and the CLI processes of paper share one CPU: the
    # two CPUs of a shared host are often at different speeds, and a probe
    # only tells the speed of the CPU it ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    root = job["root"]
    src = os.path.join(root, "src")
    sampler = None
    if job["mode"] == "setup":
        sampler = SpeedSampler()
        sampler.start()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import frickelab as fl
    import frickelab.cli as cli
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(fl.__file__))) != os.path.abspath(src):
        print(f"worker: frickelab imported from {fl.__file__}, not from {src}", file=sys.stderr)
        return 3

    workload = job["workload"]
    prepared = None
    if job["mode"] == "run":
        with open(job["inputs"]) as fh:
            pool = json.load(fh)
        prepared = [[prepare(fl, workload, inp) for inp in block] for block in pool]

    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    fx = build_fixtures(fl, cli)
    if job["mode"] == "setup":
        sampler.stop()
        sampler.took.append(probe())  # at least one, however fast the set-up
        print("ready", json.dumps({"took": sampler.took, "spent": sampler.spent}), flush=True)
        return 0

    ctx = {
        "fl": fl,
        "root": root,
        "env": dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
        "trace_dir": job["out_dir"] if tracer else None,
        "child_spans": [],
    }
    op = OPS[workload]
    seconds, max_blocks, rss_blocks = job["seconds"], job.get("max_blocks"), job.get("rss_blocks")
    latencies: list[float] = []
    # op i ran from just after probe windows[i][0] - 1 to just before probe windows[i][1]
    windows: list[tuple[int, int]] = []
    results = []
    blocks = 0
    peak_rss_kb = None
    perf = time.perf_counter
    sampler = None if tracer else SpeedSampler()
    start = perf()
    if sampler:
        sampler.took.append(probe())
        sampler.start()
    while True:
        for arg in prepared[blocks % len(prepared)]:
            if tracer:
                tracer.op_id = len(latencies)
            if sampler:
                i0, spent0 = len(sampler.took), sampler.spent
            t = perf()
            try:
                res = op(fx, arg, ctx)
            except Exception as exc:  # counted as a failed op
                res = exc
            lat = perf() - t
            if sampler:
                lat -= sampler.spent - spent0
                windows.append((i0, len(sampler.took)))
            latencies.append(lat)
            results.append(res)
        blocks += 1
        if blocks == rss_blocks:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if max_blocks is not None:
            if blocks >= max_blocks:
                break
        else:
            elapsed = perf() - start
            if blocks >= (rss_blocks or 0) and elapsed + elapsed / blocks / 2 >= seconds:
                break  # the block boundary nearest to the requested duration
    if sampler:
        sampler.stop()
        sampler.took.append(probe())
    wall = perf() - start
    if peak_rss_kb is None:
        who = resource.RUSAGE_CHILDREN if workload == "paper" else resource.RUSAGE_SELF
        peak_rss_kb = resource.getrusage(who).ru_maxrss

    if tracer:
        tracer.op_id = -1
        tracer.write(os.path.join(job["out_dir"], "worker"), import_s=import_s)
    out = {
        "wall_s": wall,
        "latencies": latencies,
        "probes": sampler.took if sampler else [],
        "windows": windows,
        "peak_rss_kb": peak_rss_kb,
        "child_spans": ctx["child_spans"],
        "results": [serialize(workload, r, fl) for r in results],
    }
    with open(job["results"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
