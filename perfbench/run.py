"""Seeded benchmark of frickelab: cold verify-paper, long-word traces, a Salem
sweep and a Galois degree scan.

Usage, from the repository root:
  python3 perfbench/run.py --workload {paper,traces,sweep,galois} --seed N
                           --seconds S --trace {0,1} [--smoke]

One client runs one operation at a time (closed loop).  Set-up is timed in
fresh interpreters; the timed phase runs in one more fresh interpreter.
Results are checked by independent oracles after the timed phase.  The
last line of standard output is one JSON object:
  --trace 0: the end-to-end metrics, measured with tracing off;
  --trace 1: the per-layer metrics of a traced run and the tracing overhead.
See perfbench/NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

# pool sizes leave room for code several times faster than at sizing; the
# worker cycles through the pool if it runs out.  The tail percentile of
# each workload is fixed so that ~10 or more samples lie beyond it at sizing.
# The traced run does a fixed number of blocks, so that its counts repeat
# exactly for a seed: half of --seconds at the untraced rate seen in sizing.
# Peak RSS is read after a fixed number of blocks (the run does at least
# that many), so that it depends on the inputs and not on how many ops the
# host's speed allowed; on paper it is the largest CLI process, read at the end.
WORKLOADS = {
    "paper": {"blocks": 400, "tail_pct": 70, "blocks_per_s": 2.0, "rss_blocks": None},
    "traces": {"blocks": 80, "tail_pct": 90, "blocks_per_s": 0.87, "rss_blocks": 16},
    "sweep": {"blocks": 40000, "tail_pct": 99, "blocks_per_s": 580.0, "rss_blocks": 5000},
    "galois": {"blocks": 20, "tail_pct": 75, "blocks_per_s": 0.2, "rss_blocks": 2},
}
SETUP_REPEATS = 5
# Times are reported at the host speed where worker.probe() takes
# worker.PROBE_REF_S: each raw time is multiplied by it over the mean of the
# probes taken during it and the one on either side.  Raw times, which move
# by up to 1.8x with the host's speed, are printed alongside.
SMOKE = {"blocks": 3, "setup_repeats": 2, "sweep_blocks": 60}
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _write_job(job_dir: str, name: str, **job) -> str:
    path = os.path.join(job_dir, f"{name}.job.json")
    with open(path, "w") as fh:
        json.dump(job, fh)
    return path


def measure_setup(root: str, out_dir: str, workload: str) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its fixtures being built,
    raw and scaled to the reference host speed by the probes the set-up
    process took from its start to the fixtures (their time is not counted)."""
    job = _write_job(out_dir, "setup", root=root, workload=workload, mode="setup", trace=False)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), job],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    word, _, probes = line.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up process failed (exit {proc.returncode}):\n{err[-2000:]}")
    probes = json.loads(probes)
    elapsed -= probes["spent"]
    return elapsed, elapsed * worker.PROBE_REF_S / statistics.fmean(probes["took"])


def run_worker(root: str, out_dir: str, workload: str, name: str, trace: bool,
               seconds: float, max_blocks: int | None = None, rss_blocks: int | None = None) -> dict:
    results = os.path.join(out_dir, f"{name}.results.json")
    job = _write_job(out_dir, name, root=root, workload=workload, mode="run", trace=trace,
                     seconds=seconds, max_blocks=max_blocks, rss_blocks=rss_blocks, out_dir=out_dir,
                     inputs=os.path.join(out_dir, "inputs.json"), results=results)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job],
                              capture_output=True, text=True, timeout=seconds + 120)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {seconds + 120} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    with open(results) as fh:
        return json.load(fh)


def _attempted_inputs(pool: list[list[dict]], n: int) -> list[dict]:
    flat = [inp for block in pool for inp in block]
    return [flat[i % len(flat)] for i in range(n)]


def summarize(workload: str, run: dict, inputs: list[dict], mp) -> tuple[dict, dict]:
    outcomes = checks.classify(workload, inputs, run["results"], mp)
    counts = {k: outcomes.count(k) for k in ("ok", "undecided", "refused", "error", "wrong")}
    return counts, gen.properties(workload, inputs)


def scaled_latencies(run: dict) -> list[float]:
    """Each op's latency at the reference host speed, by the probes taken
    during it and the one on either side of it."""
    p = run["probes"]
    return [lat * worker.PROBE_REF_S / statistics.fmean(p[max(0, i0 - 1):i1 + 1])
            for lat, (i0, i1) in zip(run["latencies"], run["windows"])]


def latency_metrics(workload: str, lat: list[float], setup_times: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": percentile(lat, WORKLOADS[workload]["tail_pct"]) * 1000,
    }


def end_to_end(workload: str, run: dict, counts: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    lat = scaled_latencies(run)
    n = len(lat)
    pct = WORKLOADS[workload]["tail_pct"]
    tail = percentile(lat, pct)
    failed = sum(counts[k] for k in checks.FAILED)
    values = latency_metrics(workload, lat, [scaled for _, scaled in setups])
    values.update({
        "ok_frac": 1 - failed / n,
        "decided_frac": 1 - counts["undecided"] / n,
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
    })
    info = {
        "raw": latency_metrics(workload, run["latencies"], [raw for raw, _ in setups]),
        "probe_median_s": statistics.median(run["probes"]),
        "tail_percentile": pct,
        "tail_samples_beyond": sum(1 for x in lat if x > tail),
        "samples": n,
        "failed_frac": failed / n,
        "undecided_frac": counts["undecided"] / n,
    }
    return values, info


PER_LAYER_UNITS = {"s": "s", "calls": "count", "errors": "count", "refused": "count",
                   "calls_per_word": "calls/word", "primes_per_call": "primes/call",
                   "full_symmetric_ratio": "ratio"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s") or last == "s":
        return "s"
    return PER_LAYER_UNITS[last]


def per_layer(run_traced: dict, run_plain: dict, out_dir: str) -> dict:
    stats = tracer.LayerStats()
    import_times = []
    for path in [os.path.join(out_dir, "worker")] + run_traced["child_spans"]:
        spans = tracer.read_spans(path)
        stats.add(spans)
        import_times.append(spans["import_s"])
    values = {name: (v, layer_unit(name)) for name, v in stats.metrics().items()}
    values["cli.import_s"] = (statistics.median(import_times), "s")
    traced = len(run_traced["latencies"]) / run_traced["wall_s"]
    plain = len(run_plain["latencies"]) / run_plain["wall_s"]
    values["trace.ops_per_s_traced"] = (traced, "1/s")
    values["trace.ops_per_s_untraced"] = (plain, "1/s")
    values["trace.overhead_ratio"] = (plain / traced, "ratio")
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny pools and few set-ups; oracles stay on")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "frickelab", "__init__.py")):
        print("perfbench: src/frickelab not found; run from the repository root", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    blocks = WORKLOADS[args.workload]["blocks"]
    if args.smoke:
        blocks = SMOKE["sweep_blocks"] if args.workload == "sweep" else SMOKE["blocks"]
    mp = oracles.MpPoints() if args.workload == "traces" else None
    pool = gen.make_pool(args.workload, args.seed, blocks, mp)
    with open(os.path.join(out_dir, "inputs.json"), "w") as fh:
        json.dump(pool, fh)

    try:
        if args.trace:
            n = max(1, round(args.seconds * WORKLOADS[args.workload]["blocks_per_s"] / 2))
            run = run_worker(root, out_dir, args.workload, "traced", True, args.seconds, max_blocks=n)
            plain = run_worker(root, out_dir, args.workload, "untraced", False, args.seconds, max_blocks=n)
        else:
            repeats = SMOKE["setup_repeats"] if args.smoke else SETUP_REPEATS
            setups = [measure_setup(root, out_dir, args.workload) for _ in range(repeats)]
            rss_blocks = WORKLOADS[args.workload]["rss_blocks"]
            if args.smoke and rss_blocks:
                rss_blocks = 1
            run = run_worker(root, out_dir, args.workload, "run", False, args.seconds, rss_blocks=rss_blocks)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    inputs = _attempted_inputs(pool, len(run["latencies"]))
    counts, props = summarize(args.workload, run, inputs, mp)
    attempted = len(inputs)
    failed = sum(counts[k] for k in checks.FAILED)
    correct = counts["error"] == 0 and counts["wrong"] == 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {attempted}")
    print(f"outcomes {json.dumps(counts)}")
    print(f"inputs {json.dumps(props)}")
    if args.trace:
        values = per_layer(run, plain, out_dir)
        for name, (v, unit) in values.items():
            print(f"  {name} = {v} {unit}")
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    else:
        values, info = end_to_end(args.workload, run, counts, setups)
        for name, v in values.items():
            print(f"  {name} = {v} {UNITS[name]}")
        print("  unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in info["raw"].items())
              + f"; median probe {info['probe_median_s'] * 1000:.4g} ms (reference {worker.PROBE_REF_S * 1000:g} ms)")
        print(f"  tail = p{info['tail_percentile']} with {info['tail_samples_beyond']} of "
              f"{info['samples']} samples beyond it")
        print(f"  failed_frac = {info['failed_frac']} ratio, undecided_frac = {info['undecided_frac']} ratio")
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
