"""Seeded inputs for the four workloads, grouped in blocks of fixed composition.

The timed phase stops only at block boundaries, so every share fixed per
block (trace classes, periodic words, degree mix) holds exactly for the
ops a run attempts, whatever its speed.  Each generator returns a pool of
blocks; the worker cycles through the pool if it runs out.
"""

from __future__ import annotations

import random

import oracles

# Per-op cost grows steeply with word length and with degree, so a quantile
# that falls between two sizes jumps with every rank it moves.  Each block
# therefore repeats one size at the median and one at the tail percentile.
#
# traces: twelve random freely reduced words of these lengths (five of
# length 14 at the median, three of 26 at p90) and four periodic words u^k;
# exactly four of the random words of length >= 7 have trace < -2 at the
# paper point (sizing saw 37 of 150, about a quarter)
WORD_LENGTHS = (3, 7, 14, 14, 14, 14, 14, 18, 21, 26, 26, 26)
PERIODIC_PER_BLOCK = 4
NEGATIVE_PER_BLOCK = 4
PERIODIC_MAX_LEN = {"single-sign": 24, "mixed-sign": 16}

# galois: three of degree 12 at the median, three of 17 at p75; five of the
# eleven degrees are prime
GALOIS_DEGREES = (5, 6, 7, 9, 12, 12, 12, 17, 17, 17, 20)

SWEEP_DEGREES = (2, 3, 4)
COEFF_RANGE = (-9, 9)

_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def random_word(rng: random.Random, n: int) -> str:
    out = []
    while len(out) < n:
        ch = rng.choice("aAbB")
        if out and _INVERSE[ch] == out[-1]:
            continue
        out.append(ch)
    return "".join(out)


def _periodic_word(rng: random.Random) -> str:
    while True:
        u = random_word(rng, rng.randint(1, 4))
        if len(u) > 1 and _INVERSE[u[0]] == u[-1]:
            continue  # u^k must stay freely reduced
        kind = "mixed-sign" if (u.lower() != u and u.upper() != u) else "single-sign"
        kmax = PERIODIC_MAX_LEN[kind] // len(u)
        if kmax >= 2:
            return u * rng.randint(2, kmax)


def traces_pool(seed: int, blocks: int, mp: oracles.MpPoints) -> list[list[dict]]:
    rng = random.Random(seed)
    pool = []
    for _ in range(blocks):
        eligible = [slot for slot, n in enumerate(WORD_LENGTHS) if n >= 7]
        negative = set(rng.sample(eligible, NEGATIVE_PER_BLOCK))
        block = []
        for slot, n in enumerate(WORD_LENGTHS):
            for _attempt in range(100000):
                w = random_word(rng, n)
                cls = oracles.trace_class(mp.paper_trace(w))
                if (cls == "neg") == (slot in negative):
                    break
            else:
                raise RuntimeError(f"no word of length {n} with the wanted trace class")
            block.append({"word": w, "periodic": False, "paper_class": cls})
        for _ in range(PERIODIC_PER_BLOCK):
            while True:
                w = _periodic_word(rng)
                cls = oracles.trace_class(mp.paper_trace(w))
                if cls != "neg":
                    break
            block.append({"word": w, "periodic": True, "paper_class": cls})
        rng.shuffle(block)
        for op in block:
            op["check_seed"] = rng.randrange(2**31)
        pool.append(block)
    return pool


def sweep_pool(seed: int, blocks: int) -> list[list[dict]]:
    rng = random.Random(seed)
    pool = []
    for _ in range(blocks):
        deg = rng.choice(SWEEP_DEGREES)
        coeffs = [rng.randint(*COEFF_RANGE) for _ in range(deg)]
        coeffs.append(rng.choice([c for c in range(COEFF_RANGE[0], COEFF_RANGE[1] + 1) if c]))
        pool.append([{"coeffs": coeffs}])
    return pool


def galois_pool(seed: int, blocks: int) -> list[list[dict]]:
    rng = random.Random(seed)
    pool = []
    for _ in range(blocks):
        block = []
        for deg in rng.sample(GALOIS_DEGREES, len(GALOIS_DEGREES)):
            while True:
                coeffs = [rng.randint(*COEFF_RANGE) for _ in range(deg)] + [1]
                # refine_root needs simple roots and x must not divide p.  No
                # rational root either: it ends the analysis early at a random
                # ~6% of draws, and without it the decided share of a block is
                # set by its degree mix (today its five prime degrees).
                if coeffs[0] != 0 and oracles.is_square_free(coeffs) and not oracles.rational_roots(coeffs):
                    break
            block.append({"coeffs": coeffs})
        pool.append(block)
    return pool


def paper_pool(seed: int, blocks: int) -> list[list[dict]]:
    rng = random.Random(seed)
    return [[{"cli_seed": rng.randrange(2**31)}] for _ in range(blocks)]


def make_pool(workload: str, seed: int, blocks: int, mp: oracles.MpPoints | None = None):
    if workload == "traces":
        return traces_pool(seed, blocks, mp)
    return {"paper": paper_pool, "sweep": sweep_pool, "galois": galois_pool}[workload](seed, blocks)


# -- input properties of the ops a run attempted ----------------------------------


def _shares(counts: dict, total: int) -> dict:
    return {str(k): round(v / total, 4) for k, v in sorted(counts.items())}


def properties(workload: str, ops: list[dict]) -> dict:
    n = len(ops)
    if not n:
        return {}
    if workload == "traces":
        hist: dict = {}
        for op in ops:
            bucket = f"{len(op['word']) // 4 * 4}-{len(op['word']) // 4 * 4 + 3}"
            hist[bucket] = hist.get(bucket, 0) + 1
        classes: dict = {}
        for op in ops:
            classes[op["paper_class"]] = classes.get(op["paper_class"], 0) + 1
        return {
            "word_length_histogram": _shares(hist, n),
            "periodic_share": sum(op["periodic"] for op in ops) / n,
            "trace_below_minus2_share": classes.get("neg", 0) / n,
            "peripheral_share": classes.get("peripheral", 0) / n,
        }
    if workload in ("sweep", "galois"):
        degs: dict = {}
        for op in ops:
            d = len(op["coeffs"]) - 1
            degs[d] = degs.get(d, 0) + 1
        composite = sum(v for d, v in degs.items() if not oracles.is_prime(d))
        out = {"degree_mix": _shares(degs, n), "composite_degree_share": composite / n}
        if workload == "sweep":
            out["monic_share"] = sum(op["coeffs"][-1] == 1 for op in ops) / n
        return out
    return {"distinct_cli_seeds": len({op["cli_seed"] for op in ops})}
