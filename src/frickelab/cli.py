"""Command-line front end.

Exit codes: 0 success, 1 certification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import algebraic, fricke, variety
from .intervals import PrecisionError, RatInterval, format_interval
from .poly import UniPoly, format_poly, parse_poly
from .tracering import format_tracepoly, trace_polynomial
from .words import Word, parse_word, parse_word_list


class RunConfig:
    def __init__(
        self, precision_bits: int = 128, prime_bound: int = 500, seed: int = 0, machine: bool = False, raw: bool = False
    ):
        if precision_bits < 32:
            raise ValueError("--precision-bits must be at least 32")
        if prime_bound < 2:
            raise ValueError("--prime-bound must be at least 2")
        self.precision_bits = precision_bits
        self.prime_bound = prime_bound
        self.seed = seed
        self.machine = machine
        self.raw = raw

    @property
    def eps(self) -> Fraction:
        return Fraction(1, 2 ** self.precision_bits)

    @property
    def residual_tol(self) -> Fraction:
        # 2^-96 at the default 128 bits, scaling with the working precision
        return Fraction(1, 2 ** max(self.precision_bits - 32, 16))


class UsageError(ValueError):
    pass


def _default_seed() -> int:
    env = os.environ.get("FRICKE_LAB_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"FRICKE_LAB_SEED must be an integer, got {env!r}")


def parse_point(text: str, cfg: RunConfig) -> fricke.FrickePoint:
    if text == "paper":
        return fricke.solve_pattern_system(cfg.precision_bits)
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--point takes x,y,z or the token 'paper', got {text!r}")
    try:
        coords = [Fraction(part.strip()) for part in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad point coordinate in {text!r}: {exc}")
    return fricke.FrickePoint.from_rationals(*coords)


def _display_digits(cfg: RunConfig) -> int:
    return min(30, max(6, cfg.precision_bits * 3 // 10))


def render_value(result: fricke.EvalResult, cfg: RunConfig) -> str:
    if result.kind == "rational":
        return str(result.value)
    return render_interval(result.interval(cfg.eps), cfg)


def render_interval(iv: RatInterval, cfg: RunConfig) -> str:
    if cfg.raw:
        return f"[{iv.lo}, {iv.hi}]"
    return format_interval(iv, _display_digits(cfg))


# -- subcommands ---------------------------------------------------------------


def cmd_trace(args, cfg: RunConfig) -> int:
    words: list[Word] = []
    if args.words_file:
        try:
            with open(args.words_file) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read --words-file {args.words_file}: {exc.strerror or exc}")
        words.extend(parse_word_list(text))
        if not words and not args.word:
            raise UsageError(f"--words-file {args.words_file} holds no words")
    if args.word:
        words.append(parse_word(args.word))
    if not words:
        raise UsageError("trace needs a word argument or --words-file")
    pt = parse_point(args.point, cfg) if args.point else None
    for w in words:
        if pt is None:
            print(format_tracepoly(trace_polynomial(w)))
        else:
            print(render_value(fricke.trace_of(pt, w), cfg))
    return 0


def cmd_quintic(args, cfg: RunConfig) -> int:
    print(format_poly(fricke.eliminate_pattern_system()))
    return 0


def cmd_solve(args, cfg: RunConfig) -> int:
    pt = fricke.solve_pattern_system(cfg.precision_bits)
    for name, coord in zip("xyz", pt.coords):
        iv = coord.interval(cfg.eps)
        print(f"{name} = {render_interval(iv, cfg)}")
    cert = fricke.in_teichmuller(pt, cfg.residual_tol)
    print(cert.to_text())
    return 0 if cert.member else 1


def cmd_length(args, cfg: RunConfig) -> int:
    pt = parse_point(args.point, cfg)
    w = parse_word(args.word)
    iv = fricke.length_of(pt, w, cfg.eps)
    print(render_interval(iv, cfg))
    return 0


def _poly_from_args(tokens: list[str]) -> UniPoly:
    try:
        return parse_poly(" ".join(tokens))
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_galois(args, cfg: RunConfig) -> int:
    p = _poly_from_args(args.poly)
    cert = algebraic.galois_cycle_types(p, cfg.prime_bound)
    print(algebraic._irreducibility_line(cert.irreducibility))
    shown = 0
    for prime, pattern in cert.samples:
        # one part: an n-cycle of the square-free part that was sampled
        if len(pattern) == 1 or algebraic._forces_transposition(pattern):
            print(f"sample: prime {prime} degrees {list(pattern)}")
            shown += 1
        if shown >= 4:
            break
    print(f"samples: {len(cert.samples)} primes up to {cfg.prime_bound}")
    if cert.note:
        print(f"note: {cert.note}")
    print(f"verdict: {cert.conclusion}")
    return 0


def cmd_salem(args, cfg: RunConfig) -> int:
    """`salem` and `geosalem`: the Salem or the geometric-Salem verdict."""
    p = _poly_from_args(args.poly)
    if args.command == "salem":
        verdict = algebraic.is_salem(p)
    else:
        verdict = algebraic.is_geometric_salem(p, cfg.prime_bound)
    print(f"reason: {verdict.reason}")
    print(f"verdict: {verdict.status}")
    return 0


def cmd_salem_transform(args, cfg: RunConfig) -> int:
    print(format_poly(algebraic.salem_transform(_poly_from_args(args.poly))))
    return 0


def cmd_nonarith(args, cfg: RunConfig) -> int:
    report = algebraic.non_arithmeticity_report(_poly_from_args(args.poly), cfg.prime_bound)
    print(report.to_text())
    return 0


def cmd_variety_check(args, cfg: RunConfig) -> int:
    F = variety.parse_variety_poly(args.poly)
    words = tuple(parse_word(tok.strip()) for tok in args.words.split(","))
    pt = parse_point(args.point, cfg)
    verdict = variety.numeric_member(F, words, pt)
    print(f"verdict: {verdict}")
    return 0


def cmd_variety_suite(args, cfg: RunConfig) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    if args.maxlen < 0:
        raise UsageError(f"--maxlen must be at least 0, got {args.maxlen}")
    poly = variety.parse_variety_poly(args.poly, arity=4) if args.poly else None
    report = variety.trace_identity_suite(args.n, args.maxlen, cfg.seed, poly)
    print(report.to_text())
    return 0 if report.passed() else 1


def _parse_minpoly_spec(spec: str) -> tuple[tuple[int, ...], UniPoly]:
    # "{1,2}:poly: c0 c1 ..."
    if ":" not in spec:
        raise UsageError(f"--minpoly takes '{{i,j}}:poly: c0 c1 ...', got {spec!r}")
    head, _, body = spec.partition(":")
    head = head.strip()
    if not (head.startswith("{") and head.endswith("}")):
        raise UsageError(f"bad subset {head!r} in --minpoly (expected e.g. {{1,2}})")
    try:
        subset = tuple(sorted(int(tok) for tok in head[1:-1].split(",")))
    except ValueError:
        raise UsageError(f"bad subset {head!r} in --minpoly")
    try:
        poly = parse_poly(body)
    except ValueError as exc:
        raise UsageError(f"bad polynomial in --minpoly {spec!r}: {exc}")
    return subset, poly


def cmd_variety_thma(args, cfg: RunConfig) -> int:
    generators = tuple(parse_word(tok.strip()) for tok in args.gens.split(","))
    minpolys = dict(_parse_minpoly_spec(spec) for spec in args.minpoly or [])
    pt = parse_point(args.point, cfg)
    try:
        report = variety.check_rigidity_hypothesis(
            generators, minpolys, pt, cfg.prime_bound, cfg.residual_tol
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    print(report.to_text())
    return 0


# -- the end-to-end verification pipeline ------------------------------------------


_CERTIFICATION_ERRORS = (PrecisionError, fricke.NonHyperbolicError, AssertionError)


def _attempt(make, *args):
    """make(*args), or the certification error it raised."""
    try:
        return make(*args)
    except _CERTIFICATION_ERRORS as exc:
        return exc


def _stage_elimination(pt: fricke.FrickePoint, cfg: RunConfig) -> tuple[bool, str]:
    q = pt.field.defining
    expected = UniPoly([-4, 4, 3, -4, -2, 1])
    # eliminate_pattern_system cross-checks both routes and raises AssertionError if they differ
    return q == expected, f"quintic {format_poly(q)}; elimination routes agree: True"


def _stage_uniqueness(pt: fricke.FrickePoint, cfg: RunConfig) -> tuple[bool, str]:
    _, n = pt._isolation
    return n == 1, f"real root count {n}"


def _stage_refinement(pt: fricke.FrickePoint, cfg: RunConfig) -> tuple[bool, str]:
    isolated, _ = pt._isolation
    root = isolated.refined(Fraction(1, 10 ** 6))
    lo_digits = int(root.lo * 10 ** 5)
    hi_digits = int(root.hi * 10 ** 5)
    ok = lo_digits == hi_digits == 291330
    return ok, f"root in [{float(root.lo):.7f}, {float(root.hi):.7f}]"


def _stage_membership(pt: fricke.FrickePoint, cfg: RunConfig) -> tuple[bool, str]:
    cert = fricke.in_teichmuller(pt, cfg.residual_tol)
    residual_iv = fricke.markov_residual(pt).interval(cfg.eps)
    width_ok = residual_iv.width() < cfg.residual_tol
    box = fricke.FrickePoint.from_intervals(*pt.coordinate_intervals(cfg.eps))
    interval_residual = fricke.markov_residual(box).value
    interval_ok = interval_residual.contains_zero() and interval_residual.width() < cfg.residual_tol
    ok = cert.member and width_ok and interval_ok
    return ok, f"member: {cert.member}; residual interval width {float(interval_residual.width()):.3e}"


def _stage_irreducibility(pt: fricke.FrickePoint, cfg: RunConfig) -> tuple[bool, str]:
    # the witness solve_pattern_system certified before building the field
    verdict = pt.field.irreducibility
    ok = verdict.is_irreducible()
    return ok, f"{verdict.status}" + (f" (witness {verdict.witness})" if ok else "")


def _stage_galois(report: algebraic.NonArithmeticityReport, cfg: RunConfig) -> tuple[bool, str]:
    cert = report.certificate
    if cert is None:
        return False, "no Galois certificate"
    return cert.is_full_symmetric(), f"conclusion {cert.conclusion}"


def _stage_nonarithmeticity(report: algebraic.NonArithmeticityReport, cfg: RunConfig) -> tuple[bool, str]:
    return report.verdict == "NonArithmeticCertified", f"verdict {report.verdict}"


def _stage_trace_identity(_, cfg: RunConfig) -> tuple[bool, str]:
    report = variety.trace_identity_suite(200, 10, cfg.seed)
    return report.passed(), f"{report.samples} samples, failures {len(report.failures)}"


def _stage_patterns(pt: fricke.FrickePoint, cfg: RunConfig) -> tuple[bool, str]:
    verdicts = [(u, v, variety.pattern_member(u, v, pt)) for u, v in fricke.PATTERN_PAIRS]
    ok = all(verdict == variety.IN for _, _, verdict in verdicts)
    return ok, "; ".join(f"({u}, {v}): {verdict}" for u, v, verdict in verdicts)


# (stage, the artifact it checks, check)
_STAGES = (
    ("elimination", "point", _stage_elimination),
    ("uniqueness", "point", _stage_uniqueness),
    ("refinement", "point", _stage_refinement),
    ("membership", "point", _stage_membership),
    ("irreducibility", "point", _stage_irreducibility),
    ("galois", "report", _stage_galois),
    ("nonarithmeticity", "report", _stage_nonarithmeticity),
    ("trace-identity", None, _stage_trace_identity),
    ("patterns", "point", _stage_patterns),
)


def cmd_verify_paper(args, cfg: RunConfig) -> int:
    # the solved point carries the quintic, its isolation and its irreducibility witness
    pt = _attempt(fricke.solve_pattern_system, cfg.precision_bits)
    artifacts = {
        "point": pt,
        "report": pt if isinstance(pt, Exception) else _attempt(algebraic.non_arithmeticity_report, pt.field.defining, cfg.prime_bound),
    }
    all_ok = True
    for name, needs, check in _STAGES:
        artifact = artifacts.get(needs)
        result = artifact if isinstance(artifact, Exception) else _attempt(check, artifact, cfg)
        ok, detail = (False, f"certification error: {result}") if isinstance(result, Exception) else result
        all_ok = all_ok and ok
        if cfg.machine:
            print(f"{name}: {'pass' if ok else 'fail'}")
        else:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if not cfg.machine:
        print("all stages passed" if all_ok else "verification FAILED")
    return 0 if all_ok else 1


# -- wiring ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=int, default=128)
    common.add_argument("--prime-bound", type=int, default=500)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--machine", action="store_true")
    common.add_argument("--raw", action="store_true")

    parser = argparse.ArgumentParser(
        prog="frickelab",
        description="Exact-arithmetic toolkit for trace calculus on the once-punctured torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", parents=[common], help="trace polynomial or certified value of a word")
    p.add_argument("word", nargs="?", help="word over a, b, A, B (or '1')")
    p.add_argument("--words-file", help="file with one word per line, # comments")
    p.add_argument("--point", help="x,y,z (rationals or decimals) or 'paper'")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("quintic", parents=[common], help="eliminate the pattern constraints to the quintic")
    p.set_defaults(func=cmd_quintic)

    p = sub.add_parser("solve", parents=[common], help="solve and certify the pattern point")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("length", parents=[common], help="certified geodesic length of a word")
    p.add_argument("word")
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_length)

    for name, func, description in (
        ("galois", cmd_galois, "Dedekind cycle-type sampling and symmetric-group certification"),
        ("salem", cmd_salem, "Salem certification of a reciprocal polynomial"),
        ("geosalem", cmd_salem, "geometric-Salem certification"),
        ("salem-transform", cmd_salem_transform, "expand t^d p(t + 1/t)"),
        ("nonarith", cmd_nonarith, "solvability obstruction report for a trace minimal polynomial"),
    ):
        p = sub.add_parser(name, parents=[common], help=description)
        p.add_argument("poly", nargs="+", help="'poly: c0 c1 ... cn' (ascending coefficients)")
        p.set_defaults(func=func)

    p = sub.add_parser("variety", help="marked length variety operations")
    vsub = p.add_subparsers(dest="subcommand", required=True)

    v = vsub.add_parser("check", parents=[common], help="membership of a word tuple at a point")
    v.add_argument("--poly", required=True, help="e.g. 'X1-X2' or 'X1*X2 - X3 - X4'")
    v.add_argument("--words", required=True, help="comma-separated words")
    v.add_argument("--point", required=True)
    v.set_defaults(func=cmd_variety_check)

    v = vsub.add_parser("identity-suite", parents=[common], help="randomized universal-identity suite")
    v.add_argument("--n", type=int, default=200)
    v.add_argument("--maxlen", type=int, default=10)
    v.add_argument("--poly", help="override the identity polynomial (negative control)")
    v.set_defaults(func=cmd_variety_suite)

    v = vsub.add_parser("thmA", parents=[common], help="geometric-Salem hypothesis check for a generating set")
    v.add_argument("--gens", required=True, help="comma-separated generator words")
    v.add_argument("--minpoly", action="append", help="'{i,j}:poly: c0 c1 ...' (repeatable)")
    v.add_argument("--point", required=True)
    v.set_defaults(func=cmd_variety_thma)

    p = sub.add_parser("verify-paper", parents=[common], help="run the full certification pipeline")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact values print in full: lift the int/str digit limit (Python >= 3.11
    # and late 3.10 releases) while the command runs, and restore it after
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        cfg = RunConfig(
            precision_bits=args.precision_bits,
            prime_bound=args.prime_bound,
            seed=args.seed if args.seed is not None else _default_seed(),
            machine=args.machine,
            raw=args.raw,
        )
        return args.func(args, cfg)
    except (PrecisionError, fricke.NonHyperbolicError) as exc:  # first: NonHyperbolicError is a ValueError
        print(f"certification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # includes UsageError and WordParseError
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
