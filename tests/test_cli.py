import contextlib
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import frickelab
from frickelab import algebraic, fricke, tracering, variety
from frickelab.cli import main
from frickelab.poly import UniPoly
from frickelab.words import parse_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quintic(capsys):
    code, out, _ = run(capsys, "quintic")
    assert code == 0
    assert out == "poly: -4 4 3 -4 -2 1\n"


def test_trace_symbolic(capsys):
    assert run(capsys, "trace", "aa") == (0, "X^2 - 2\n", "")
    assert run(capsys, "trace", "aab") == (0, "X*Z - Y\n", "")
    assert run(capsys, "trace", "1") == (0, "2\n", "")


def test_trace_at_point(capsys):
    code, out, _ = run(capsys, "trace", "a", "--point", "3,3,3")
    assert code == 0
    assert out.strip() == "3"
    code, out, _ = run(capsys, "trace", "a", "--point", "2.5,7/2,4")
    assert code == 0
    assert out.strip() == "5/2"
    code, out, _ = run(capsys, "trace", "a", "--point", "paper")
    assert code == 0
    assert out.startswith("2.9133011931")


def test_trace_words_file(capsys, tmp_path):
    f = tmp_path / "words.txt"
    f.write_text("# two words\naa\naab\n")
    code, out, _ = run(capsys, "trace", "--words-file", str(f))
    assert code == 0
    assert out.splitlines() == ["X^2 - 2", "X*Z - Y"]


def test_salem_transform(capsys):
    code, out, _ = run(capsys, "salem-transform", "poly:", "-3", "-1", "1")
    assert code == 0
    assert out == "poly: 1 -1 -1 -1 1\n"


def test_geosalem(capsys):
    code, out, _ = run(capsys, "geosalem", "poly:", "-4", "4", "3", "-4", "-2", "1")
    assert code == 0
    assert out.strip().endswith("verdict: NotSalem")
    code, out, _ = run(capsys, "geosalem", "poly:", "-3", "-1", "1")
    assert out.strip().endswith("verdict: GeometricSalem")


def test_salem(capsys):
    code, out, _ = run(capsys, "salem", "poly:", "1", "-1", "-1", "-1", "1")
    assert code == 0
    assert out.strip().endswith("verdict: Salem")


def test_galois(capsys):
    code, out, _ = run(capsys, "galois", "poly:", "-4", "4", "3", "-4", "-2", "1")
    assert code == 0
    assert out.strip().endswith("verdict: FullSymmetric(5)")


def test_nonarith(capsys):
    code, out, _ = run(capsys, "nonarith", "poly:", "-4", "4", "3", "-4", "-2", "1")
    assert code == 0
    assert "non-arithmetic: certified" in out
    assert out.strip().endswith("verdict: NonArithmeticCertified")


def test_solve(capsys):
    code, out, _ = run(capsys, "solve")
    assert code == 0
    assert "x = 2.9133011931" in out
    assert "z = 3.2267947636" in out
    assert "verdict: Member" in out


def test_length(capsys):
    code, out, _ = run(capsys, "length", "a", "--point", "paper")
    assert code == 0
    assert out.startswith("1.8451942615")


def test_raw_interval_output(capsys):
    code, out, _ = run(capsys, "length", "a", "--point", "paper", "--raw")
    assert code == 0
    assert out.startswith("[") and "," in out


def test_variety_check(capsys):
    code, out, _ = run(capsys, "variety", "check", "--poly", "X1-X2", "--words", "a,b", "--point", "paper")
    assert (code, out.strip()) == (0, "verdict: In")
    code, out, _ = run(capsys, "variety", "check", "--poly", "X1-X2", "--words", "a,b", "--point", "3,4,5")
    assert (code, out.strip()) == (0, "verdict: Out")
    code, out, _ = run(
        capsys, "variety", "check", "--poly", "X1*X2 - X3 - X4", "--words", "a,b,ab,aB", "--point", "3,4,5"
    )
    assert (code, out.strip()) == (0, "verdict: In")
    code, _, err = run(capsys, "variety", "check", "--poly=--X1", "--words", "a", "--point", "3,4,5")
    assert code == 2 and "sign without a term" in err


def test_variety_identity_suite(capsys):
    code, out, _ = run(capsys, "variety", "identity-suite", "--n", "25", "--maxlen", "8", "--seed", "42")
    assert code == 0
    assert "verdict: Pass" in out
    code, out, _ = run(
        capsys, "variety", "identity-suite", "--n", "10", "--maxlen", "8", "--seed", "42",
        "--poly", "X1*X2 - X3",
    )
    assert code == 1
    assert "verdict: Fail" in out


@pytest.mark.parametrize("flag, value", [("--n", "-3"), ("--n", "0"), ("--maxlen", "-1")])
def test_variety_identity_suite_rejects_empty_runs(capsys, flag, value):
    code, out, err = run(capsys, "variety", "identity-suite", flag, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {flag} must be at least")


@pytest.mark.parametrize("coeff", ["0", "5"])
def test_nonarith_rejects_constants(capsys, coeff):
    code, out, err = run(capsys, "nonarith", "poly:", coeff)
    assert (code, out) == (2, "")
    assert err == "usage error: non-arithmeticity report needs a nonconstant polynomial\n"


def test_trace_missing_words_file(capsys, tmp_path):
    missing = tmp_path / "no-such-file.txt"
    code, out, err = run(capsys, "trace", "a", "--words-file", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: cannot read --words-file {missing}")


@pytest.mark.parametrize("text", ["", "# only a comment\n\n   # and another\n"])
def test_trace_empty_words_file(capsys, tmp_path, text):
    f = tmp_path / "words.txt"
    f.write_text(text)
    assert run(capsys, "trace", "--words-file", str(f)) == (2, "", f"usage error: --words-file {f} holds no words\n")
    # a word argument next to it is still traced
    assert run(capsys, "trace", "aab", "--words-file", str(f)) == (0, "X*Z - Y\n", "")


def test_variety_thma(capsys):
    code, out, _ = run(
        capsys, "variety", "thmA", "--gens", "a", "--minpoly", "{1}:poly: -3 1", "--point", "3,3,3"
    )
    assert code == 0
    assert "verdict: Satisfied" in out
    # missing subset polynomial: usage error naming the subset
    code, out, err = run(capsys, "variety", "thmA", "--gens", "a,b", "--minpoly", "{1}:poly: -3 1", "--point", "3,3,3")
    assert code == 2
    assert "{2}" in err


def test_verify_paper_machine_mode_and_stability(capsys):
    code1, out1, _ = run(capsys, "verify-paper", "--machine", "--seed", "11")
    code2, out2, _ = run(capsys, "verify-paper", "--machine", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert len(lines) == 9
    assert all(line.endswith(": pass") for line in lines)
    assert lines[0] == "elimination: pass"


GOLDEN_VERIFY_PAPER = (
    "[PASS] elimination: quintic poly: -4 4 3 -4 -2 1; elimination routes agree: True\n"
    "[PASS] uniqueness: real root count 1\n"
    "[PASS] refinement: root in [2.9133010, 2.9133016]\n"
    "[PASS] membership: member: True; residual interval width 8.962e-38\n"
    "[PASS] irreducibility: irreducible (witness 5)\n"
    "[PASS] galois: conclusion FullSymmetric(5)\n"
    "[PASS] nonarithmeticity: verdict NonArithmeticCertified\n"
    "[PASS] trace-identity: 200 samples, failures 0\n"
    "[PASS] patterns: (a, b): In; (aa, aab): In\n"
    "all stages passed\n"
)


def test_verify_paper_golden_report(capsys):
    assert run(capsys, "verify-paper") == (0, GOLDEN_VERIFY_PAPER, "")


STAGES = (
    "elimination", "uniqueness", "refinement", "membership", "irreducibility",
    "galois", "nonarithmeticity", "trace-identity", "patterns",
)


def _verify_paper_patched(capsys, monkeypatch, module, name, replacement):
    """Exit code and {stage: detail} of each [FAIL] line of a plain
    verify-paper run with module.name replaced; the solved point is not
    cached across the run."""
    fricke.solve_pattern_system.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(module, name, replacement)
        code, out, _ = run(capsys, "verify-paper")
    fricke.solve_pattern_system.cache_clear()
    failed = [line[len("[FAIL] "):].split(": ", 1) for line in out.splitlines() if line.startswith("[FAIL] ")]
    return code, dict(failed)


def test_verify_paper_isolates_failed_artifacts(capsys, monkeypatch):
    # a stage fails when an artifact it reads cannot be certified; the rest still run
    def no_galois(*args, **kwargs):
        raise AssertionError("no galois certificate")

    assert _verify_paper_patched(capsys, monkeypatch, algebraic, "galois_cycle_types", no_galois) == (
        1,
        dict.fromkeys(("galois", "nonarithmeticity"), "certification error: no galois certificate"),
    )
    silent = lambda p, bound: algebraic.NonArithmeticityReport((), "Silent")
    assert _verify_paper_patched(capsys, monkeypatch, algebraic, "non_arithmeticity_report", silent) == (
        1,
        {"galois": "no Galois certificate", "nonarithmeticity": "verdict Silent"},
    )
    disagree = lambda: UniPoly([1, 1])
    assert _verify_paper_patched(capsys, monkeypatch, fricke, "eliminate_by_resultants", disagree) == (
        1,
        dict.fromkeys(
            (s for s in STAGES if s != "trace-identity"), "certification error: elimination routes disagree"
        ),
    )
    # every stage but trace-identity reads the solved point, so a failure
    # inside solve_pattern_system fails them all
    inconclusive = lambda p, bound: frickelab.poly.IrreducibilityVerdict("inconclusive")
    assert _verify_paper_patched(capsys, monkeypatch, fricke, "irreducible_over_Q", inconclusive) == (
        1,
        dict.fromkeys(
            (s for s in STAGES if s != "trace-identity"), "certification error: pattern quintic must be irreducible"
        ),
    )


def test_identity_stage_catches_a_broken_packed_letter_rule(capsys, monkeypatch):
    # W = Z - XY read as Z in the a-rule for c0: the symbolic identity
    # suite, which does not run trace_in, must see the broken packed pass
    rules = list(tracering._LETTER_RULES[("a", 1)])
    assert rules[0] == "W*c2 - c1 - Y*c3"
    rules[0] = "Z*c2 - c1 - Y*c3"
    monkeypatch.setitem(tracering._PACKED_RULES, ("a", 1), tuple(map(tracering._packed_rule, rules)))
    assert variety.trace_identity_suite(200, 10, seed=0).failures
    fricke.solve_pattern_system.cache_clear()
    code, out, _ = run(capsys, "verify-paper", "--machine")
    fricke.solve_pattern_system.cache_clear()
    assert code == 1
    assert "trace-identity: fail" in out.splitlines()


def test_verify_paper_derives_each_artifact_once(capsys, monkeypatch):
    targets = {
        "galois_cycle_types": algebraic.galois_cycle_types,
        "irreducible_over_Q": frickelab.poly.irreducible_over_Q,
        "eliminate_pattern_system": fricke.eliminate_pattern_system,
        "factor_mod_p": frickelab.poly.factor_mod_p,
        "isolate_real_roots": frickelab.poly.isolate_real_roots,
        "sturm_chain": frickelab.poly.sturm_chain,
        "sturm_count": frickelab.poly.sturm_count,
    }
    calls = dict.fromkeys(targets, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {id(fn): counting(name, fn) for name, fn in targets.items()}
    modules = [mod for name, mod in sys.modules.items() if name == "frickelab" or name.startswith("frickelab.")]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                monkeypatch.setattr(mod, attr, wrappers[id(obj)])
    fricke.solve_pattern_system.cache_clear()
    code, _, _ = run(capsys, "verify-paper", "--machine")
    assert code == 0
    assert calls["galois_cycle_types"] == 1
    assert calls["irreducible_over_Q"] == 1
    assert calls["eliminate_pattern_system"] == 1
    assert calls["factor_mod_p"] <= 96
    # the quintic's roots are isolated once, by solve_pattern_system; the
    # uniqueness and refinement stages read the solved point's isolation
    assert calls["isolate_real_roots"] == 1
    assert calls["sturm_chain"] <= 2
    assert calls["sturm_count"] <= 1


def test_verify_paper_starved_prime_bound(capsys):
    code, out, _ = run(capsys, "verify-paper", "--machine", "--prime-bound", "2")
    assert code == 1
    assert "galois: fail" in out
    assert "nonarithmeticity: fail" in out


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "trace", "axb")
    assert code == 2
    assert "position 1" in err
    code, _, err = run(capsys, "trace", "a", "--point", "1,2")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_certification_failures_exit_1(capsys):
    # NonHyperbolicError is a ValueError, but it is no usage error
    code, out, err = run(capsys, "length", "1", "--point", "paper")
    assert (code, out) == (1, "")
    assert err == "certification failure: trace of 1 is not certified outside [-2, 2]: parabolic or elliptic element\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("variety", "check", "--poly", "1/0*X1", "--words", "a", "--point", "paper"),
        ("variety", "identity-suite", "--poly", "1/0*X1*X2"),
    ],
)
def test_zero_denominator_in_a_variety_coefficient_exits_2(capsys, argv):
    assert run(capsys, *argv) == (2, "", "usage error: zero denominator in '1/0'\n")


def test_config_validation(capsys):
    code, _, err = run(capsys, "quintic", "--precision-bits", "8")
    assert code == 2
    code, _, err = run(capsys, "quintic", "--prime-bound", "1")
    assert code == 2


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("FRICKE_LAB_SEED", "99")
    code, out1, _ = run(capsys, "verify-paper", "--machine")
    monkeypatch.delenv("FRICKE_LAB_SEED")
    code2, out2, _ = run(capsys, "verify-paper", "--machine", "--seed", "99")
    assert code == code2 == 0
    assert out1 == out2


# Exact output at the paper point: a change to number-field arithmetic or
# to FieldElement.interval that moves one digit of a coordinate, trace or
# length shows up here.
GOLDEN_TRACE = (
    '-8.739903579395170192558073182011 ± 0.000000000000000000000000000000\n'
)
GOLDEN_TRACE_RAW = (
    '[-23792280613258965882580581053019940507905/2722258935367507707706996859454145691648, -95169122453035863530322324212079762031605/10889035741470030830827987437816582766592]\n'
)
GOLDEN_LENGTH_RAW = (
    '[1612220414796032594612602197528434971001371508478287/374144419156711147060143317175368453031918731001856, 806110207398016297306301098764217485500689540356717/187072209578355573530071658587684226515959365500928]\n'
)
GOLDEN_SOLVE = (
    'x = 2.913301193131723397519357727337 ± 0.000000000000000000000000000000\n'
    'y = 2.913301193131723397519357727337 ± 0.000000000000000000000000000000\n'
    'z = 3.226794763684910260991602039210 ± 0.000000000000000000000000000000\n'
    'certification: exact elements of a shared real number field\n'
    'x > 2: certified\n'
    'y > 2: certified\n'
    'z > 2: certified\n'
    'markov residual: exactly zero\n'
    'verdict: Member\n'
)
GOLDEN_SOLVE_RAW = (
    'x = [3965380102209827647096763508836656751315/1361129467683753853853498429727072845824, 7930760204419655294193527017673313502635/2722258935367507707706996859454145691648]\n'
    'y = [3965380102209827647096763508836656751315/1361129467683753853853498429727072845824, 7930760204419655294193527017673313502635/2722258935367507707706996859454145691648]\n'
    'z = [5806828589800718514613155274597039616234150819671502692067817290476290757858546327543509235696895682428772017299665854672915123768015198351809261308730576363808287/1799565517817278553124215403074392743547878847320766653240302229044735032268595148127616274441556342859968364253408358049283306422197719875603406072346065542053888, 5806828589800718514613155274597039616238208159881116557460512030276023957624003275181629348632766349054052882556198339721255760600023907694993728761579190834914847/1799565517817278553124215403074392743547878847320766653240302229044735032268595148127616274441556342859968364253408358049283306422197719875603406072346065542053888]\n'
    'certification: exact elements of a shared real number field\n'
    'x > 2: certified\n'
    'y > 2: certified\n'
    'z > 2: certified\n'
    'markov residual: exactly zero\n'
    'verdict: Member\n'
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["trace", "abAAB", "--point", "paper"], GOLDEN_TRACE),
        (["trace", "abAAB", "--point", "paper", "--raw"], GOLDEN_TRACE_RAW),
        (["length", "abAAB", "--point", "paper", "--raw"], GOLDEN_LENGTH_RAW),
        (["solve"], GOLDEN_SOLVE),
        (["solve", "--raw"], GOLDEN_SOLVE_RAW),
    ],
)
def test_golden_output_at_paper_point(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")


def _assert_mpmath_not_imported(argv):
    code = (
        "import contextlib, io, sys\n"
        "import frickelab, frickelab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert frickelab.cli.main({argv!r}) == 0\n"
        "assert 'mpmath' not in sys.modules, 'mpmath imported'\n"
    )
    src = os.path.dirname(os.path.dirname(frickelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_mpmath_not_imported_by_verify_paper():
    # the runtime is the standard library alone: mpmath is a test oracle
    _assert_mpmath_not_imported(["verify-paper", "--machine"])


@pytest.mark.parametrize("command", ["length", "trace"])
def test_mpmath_not_imported_by_length_and_trace(command):
    # length_of encloses log and sqrt on integers, without mpmath
    _assert_mpmath_not_imported([command, "abAAB", "--point", "paper"])


SQUARED_QUINTIC = ("poly:", "16", "-32", "-8", "56", "-7", "-48", "12", "22", "-4", "-4", "1")


def test_galois_of_a_square_lists_the_square_free_parts_cycles(capsys):
    # the samples factor the quintic, so its 5-cycles are the n-cycles shown
    code, out, _ = run(capsys, "galois", *SQUARED_QUINTIC)
    assert code == 0
    assert out == run(capsys, "galois", "poly:", "-4", "4", "3", "-4", "-2", "1")[1]
    assert "sample: prime 5 degrees [5]\n" in out


def test_nonarith_of_a_square_names_the_square_free_degree(capsys):
    code, out, _ = run(capsys, "nonarith", *SQUARED_QUINTIC)
    assert code == 0
    assert out == (
        "minimal polynomial: poly: 16 -32 -8 56 -7 -48 12 22 -4 -4 1\n"
        "degree: 10\n"
        "irreducibility: witness prime 5\n"
        "galois: FullSymmetric(5)\n"
        "consequence: S5 is not solvable, so the root is not expressible by radicals\n"
        "consequence: a trace of the form lambda + 1/lambda with lambda radical is impossible\n"
        "consequence: the group is not commensurable with the modular group\n"
        "conclusion: non-arithmetic: certified\n"
        "verdict: NonArithmeticCertified\n"
    )


def test_nonarith_of_a_cubed_quadratic_is_silent(capsys):
    # (x^2 - 2)^3: the Galois group of x^2 - 2 is S2, which is solvable
    code, out, _ = run(capsys, "nonarith", "poly:", "-8", "0", "12", "0", "-6", "0", "1")
    assert code == 0
    assert "galois: FullSymmetric(2)\n" in out
    assert "not solvable" not in out
    assert out.endswith("conclusion: solvable Galois group; this test is silent\nverdict: Silent\n")


def test_galois_of_x4_plus_1_is_unknown(capsys):
    # x^4 + 1 factors mod every prime, so no prime witnesses irreducibility
    code, out, _ = run(capsys, "galois", "poly:", "1", "0", "0", "0", "1")
    assert code == 0
    assert out == (
        "irreducibility: inconclusive\n"
        "samples: 94 primes up to 500\n"
        "note: no irreducibility witness below 500\n"
        "verdict: Unknown\n"
    )


@contextlib.contextmanager
def _no_digit_limit():
    """Python's int/str digit limit lifted, where it exists."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_values_past_the_int_digit_limit_print_in_full(capsys):
    # (ab)^6000 at a rational point and the solved point at 4000 bits print
    # integers of more than 4300 digits, Python's default int/str limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    word = "ab" * 6000
    code, out, err = run(capsys, "trace", word, "--point", "1/2,-7/3,5/11")
    assert (code, err) == (0, "")
    pt = fricke.FrickePoint.from_rationals(Fraction(1, 2), Fraction(-7, 3), Fraction(5, 11))
    with _no_digit_limit():
        assert out == f"{fricke.trace_of(pt, parse_word(word)).value}\n"
    assert len(out) > 4300

    code, out, err = run(capsys, "solve", "--raw", "--precision-bits", "4000")
    assert (code, err) == (0, "")
    eps = Fraction(1, 2 ** 4000)
    with _no_digit_limit():
        expected = [f"{name} = [{iv.lo}, {iv.hi}]" for name, iv in
                    zip("xyz", (c.interval(eps) for c in fricke.solve_pattern_system(4000).coords))]
    assert out.splitlines()[:3] == expected
    assert out.splitlines()[-1] == "verdict: Member"
    assert max(map(len, expected)) > 4300
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit  # restored
