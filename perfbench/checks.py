"""Classify each op's result with the independent oracles.

Every op ends in exactly one outcome:
  ok         the answer was given and the oracle confirms it
  undecided  an honest non-answer (Inconclusive, Unknown, ContainsNCycle,
             NotCertified, Undecided, PrecisionError)
  refused    length_of refused a hyperbolic word whose trace is below -2
             (a known defect: counted as a failed op, not as a wrong answer)
  error      the op raised anything else
  wrong      the oracle rejects the answer
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import mpmath

import oracles

STAGES = ("elimination", "uniqueness", "refinement", "membership", "irreducibility",
          "galois", "nonarithmeticity", "trace-identity", "patterns")
PAPER_STDOUT = "".join(f"{stage}: pass\n" for stage in STAGES)
FAILED = ("refused", "error", "wrong")


def check_paper(inp: dict, res: dict, ctx) -> str:
    if "error" in res:
        return "error"
    return "ok" if res["returncode"] == 0 and res["stdout"] == PAPER_STDOUT else "wrong"


def check_traces(inp: dict, res: dict, ctx) -> str:
    if "error" in res:
        return "undecided" if res["precision"] else "error"
    mp: oracles.MpPoints = ctx["mp"]
    word = inp["word"]
    terms = [((i, j, k), c) for i, j, k, c in res["terms"]]
    if not oracles.check_trace_polynomial(word, terms, random.Random(inp["check_seed"])):
        return "wrong"
    tr = mp.paper_trace(word)
    if not oracles.close(mp.field_value([Fraction(c) for c in res["paper_coeffs"]]), tr):
        return "wrong"
    lo, hi = map(Fraction, res["interval"])
    if not oracles.encloses(lo, hi, mp.markov_trace(word)):
        return "wrong"
    cls = oracles.trace_class(tr)
    if "refused" in res:
        if res["precision"]:
            return "undecided"
        return "ok" if cls == "peripheral" else "refused"
    if cls not in ("pos", "neg"):
        return "wrong"  # a peripheral element has no closed geodesic
    lo, hi = map(Fraction, res["length"])
    mpmath.mp.dps = oracles.DPS
    length = 2 * mpmath.acosh(abs(tr) / 2)
    return "ok" if hi - lo < oracles.EPS_96 and oracles.encloses(lo, hi, length) else "wrong"


def _sweep_truth(q: tuple[int, ...]) -> dict:
    deg = len(q) - 1
    if oracles.rational_roots(list(q)):
        return {"rational_root": True}
    below, window, above = oracles.roots_between(list(q), ["-inf", Fraction(-2), Fraction(2), "+inf"])
    geometric = below + window + above == deg and above == 1 and window == deg - 1
    return {"rational_root": False, "geometric": geometric}


def check_sweep(inp: dict, res: dict, ctx) -> str:
    if "error" in res:
        return "undecided" if res["precision"] else "error"
    coeffs = inp["coeffs"]
    q = tuple(oracles.primitive(coeffs))
    truth = ctx["sweep_truth"].get(q)
    if truth is None:
        truth = ctx["sweep_truth"][q] = _sweep_truth(q)
    status = res["status"]
    if truth["rational_root"]:
        return "ok" if status == "NotSalem" else "wrong"
    if status == "Inconclusive":
        return "undecided"
    if status == "NotSalem":
        # without a rational root, NotSalem is true only for a non-geometric
        # root configuration or a quartic that splits into quadratics
        if not truth["geometric"] or (len(q) == 5 and oracles.has_quadratic_factor(list(q))):
            return "ok"
        return "wrong"
    if status != "GeometricSalem" or not truth["geometric"]:
        return "wrong"
    witness = res["witness"]
    deg = len(q) - 1
    if deg > 1 and (witness is None or q[-1] % witness == 0
                    or oracles.factor_pattern(list(q), witness) != (deg,)):
        return "wrong"
    if res["transform"] != oracles.salem_transform(coeffs) or res["back"] != list(coeffs):
        return "wrong"
    expected_salem = "Salem" if coeffs[-1] == 1 else None
    return "ok" if res["salem"] == expected_salem else "wrong"


def _recheck(coeffs, cited: dict, primes) -> dict | None:
    """Recompute the cited patterns for these primes; None if any differs."""
    out = {}
    for prime in primes:
        pattern = oracles.factor_pattern(coeffs, prime)
        if pattern != tuple(cited[prime]):
            return None
        out[prime] = pattern
    return out


def _justifies_symmetric(patterns: dict, n: int) -> bool:
    values = list(patterns.values())
    if oracles.is_prime(n) and (n,) in values and any(oracles.forces_transposition(p) for p in values):
        return True
    return any(oracles.forces_alternating(p, n) for p in values) and any(oracles.is_odd(p, n) for p in values)


def _pick_justification(cited: dict, n: int) -> list[int]:
    """The first cited primes whose patterns could prove S_n."""
    picks = []
    for test in (
        lambda p: p == (n,),
        oracles.forces_transposition,
        lambda p: oracles.forces_alternating(p, n),
        lambda p: oracles.is_odd(p, n),
    ):
        prime = next((pr for pr, pat in cited.items() if test(tuple(pat))), None)
        if prime is not None and prime not in picks:
            picks.append(prime)
    return picks


def _roots_ok(coeffs, res) -> bool:
    count = oracles.count_real_roots(coeffs)
    iso, ref = res["isolating"], res["refined"]
    if len(iso) != count or len(ref) != count:
        return False
    prev = None
    for (lo, hi), (rlo, rhi) in zip(iso, ref):
        lo, hi, rlo, rhi = map(Fraction, (lo, hi, rlo, rhi))
        if not (lo < hi and lo <= rlo < rhi <= hi and rhi - rlo < oracles.EPS_128):
            return False
        if prev is not None and lo < prev:
            return False
        prev = hi
        for a, b in ((lo, hi), (rlo, rhi)):
            if oracles.sign_at(coeffs, a) * oracles.sign_at(coeffs, b) >= 0:
                return False
    return True


def check_galois(inp: dict, res: dict, ctx) -> str:
    if "error" in res:
        return "undecided" if res["precision"] else "error"
    coeffs = inp["coeffs"]
    n = len(coeffs) - 1
    if not _roots_ok(coeffs, res):
        return "wrong"
    cited = {prime: pattern for prime, pattern in res["samples"]}
    if any(sum(p) != n for p in cited.values()):
        return "wrong"
    witness = res["witness"]
    if res["irreducibility"] == "irreducible" and oracles.factor_pattern(coeffs, witness) != (n,):
        return "wrong"
    # two more cited patterns at the smallest primes, as a spot check
    if _recheck(coeffs, cited, sorted(cited)[:2]) is None:
        return "wrong"
    verdict = res["verdict"]
    if verdict == "NotCertified":
        if res["conclusion"] == f"ContainsNCycle({n})":
            prime = next((pr for pr, pat in cited.items() if tuple(pat) == (n,)), None)
            if prime is None or _recheck(coeffs, cited, [prime]) is None:
                return "wrong"
        return "undecided"
    if verdict != "NonArithmeticCertified" or res["conclusion"] != f"FullSymmetric({n})":
        return "wrong"
    if res["irreducibility"] != "irreducible":
        return "wrong"  # transitivity needs irreducibility
    patterns = _recheck(coeffs, cited, _pick_justification(cited, n))
    return "ok" if patterns is not None and _justifies_symmetric(patterns, n) else "wrong"


CHECKS = {"paper": check_paper, "traces": check_traces, "sweep": check_sweep, "galois": check_galois}


def classify(workload: str, inputs: list[dict], results: list[dict], mp=None) -> list[str]:
    ctx = {"mp": mp, "sweep_truth": {}}
    check = CHECKS[workload]
    seen: dict[tuple[str, str], str] = {}
    outcomes = []
    for inp, res in zip(inputs, results):
        key = (json.dumps(inp, sort_keys=True), json.dumps(res, sort_keys=True))
        if key not in seen:
            seen[key] = check(inp, res, ctx)
        outcomes.append(seen[key])
    return outcomes
