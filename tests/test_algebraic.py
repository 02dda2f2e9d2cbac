from fractions import Fraction

import pytest

from frickelab.algebraic import (
    NumberField,
    galois_cycle_types,
    is_geometric_salem,
    is_salem,
    make_algebraic,
    non_arithmeticity_report,
    salem_inverse_transform,
    salem_transform,
)
from frickelab.poly import IsolationError, UniPoly, irreducible_over_Q, square_free_part

QUINTIC = UniPoly([-4, 4, 3, -4, -2, 1])
QUADRATIC = UniPoly([-3, -1, 1])  # x^2 - x - 3, roots (1 +- sqrt 13)/2
SALEM_QUARTIC = UniPoly([1, -1, -1, -1, 1])
CYCLOTOMIC5 = UniPoly([1, 1, 1, 1, 1])
LEHMER = UniPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


def test_make_algebraic():
    r = make_algebraic(UniPoly([-2, 0, 1]), (1, 2))
    assert r.cmp_rational(Fraction(1414, 1000)) == 1
    assert r.cmp_rational(Fraction(1415, 1000)) == -1

    x0 = make_algebraic(QUINTIC, (2, 3))
    assert x0.cmp_rational(2) == 1 and x0.cmp_rational(3) == -1

    with pytest.raises(IsolationError) as exc:
        make_algebraic(UniPoly([-2, 0, 1]), (-2, 2))
    assert exc.value.count == 2


def test_make_algebraic_squarefrees_input():
    r = make_algebraic(UniPoly([-2, 0, 1]) * UniPoly([-2, 0, 1]), (1, 2))
    assert r.poly == UniPoly([-2, 0, 1])


def test_algebraic_refinement_nests_and_keeps_digits():
    x0 = make_algebraic(QUINTIC, (2, 3))
    previous = x0
    for k in range(1, 13):
        refined = previous.refined(Fraction(1, 10 ** k))
        assert previous.lo <= refined.lo and refined.hi <= previous.hi
        assert refined.lo < Fraction(291331, 100000)
        assert refined.hi > Fraction(291330, 100000)
        previous = refined
    # printed to five decimals: 2.91330
    tight = x0.refined(Fraction(1, 10 ** 6))
    assert int(tight.lo * 10 ** 5) == int(tight.hi * 10 ** 5) == 291330


def test_algebraic_root_membership():
    x0 = make_algebraic(QUINTIC, (2, 3))
    assert x0.is_root_of(QUINTIC)
    assert x0.is_root_of(QUINTIC * UniPoly([1, 1]))
    assert not x0.is_root_of(UniPoly([-2, 0, 1]))


def test_number_field_arithmetic():
    x0 = make_algebraic(QUINTIC, (2, 3))
    field = NumberField(QUINTIC, x0, irreducible_over_Q(QUINTIC, 200))
    x = field.gen()
    z = (x * x + x - 2) / x
    # z > 2, and x*z - x = x^2 - 2 exactly
    assert z.cmp_rational(2) == 1
    assert (z * x - x) == (x * x - 2)
    assert (x - x).is_zero()
    inv = x.inverse()
    assert (inv * x - 1).is_zero()
    # interval evaluation tightens on demand
    iv = z.interval(Fraction(1, 2 ** 90))
    assert iv.width() < Fraction(1, 2 ** 90)
    assert iv.contains(Fraction(32268, 10000)) or iv.lo > 3


def test_geometric_salem_examples():
    assert is_geometric_salem(QUADRATIC).status == "GeometricSalem"
    v = is_geometric_salem(QUINTIC)
    assert v.status == "NotSalem"
    assert v.evidence["real_roots"] == 1
    assert is_geometric_salem(UniPoly([1, -4, 1])).status == "GeometricSalem"  # roots 2 +- sqrt 3
    assert is_geometric_salem(UniPoly([-3, 1])).status == "GeometricSalem"  # x - 3
    assert is_geometric_salem(UniPoly([-1, 1])).status == "NotSalem"  # root 1 < 2
    assert is_geometric_salem(UniPoly([-1, 0, 1])).status == "NotSalem"  # reducible


def test_geometric_salem_scale_stability():
    for p in (QUADRATIC, UniPoly([1, -4, 1]), QUINTIC):
        assert is_geometric_salem(p.scale(7)).status == is_geometric_salem(p).status


def test_salem_transform_examples():
    assert salem_transform(UniPoly([-3, 1])) == UniPoly([1, -3, 1])
    assert salem_transform(QUADRATIC) == SALEM_QUARTIC
    assert salem_transform(UniPoly([0, 1])) == UniPoly([1, 0, 1])


def test_is_salem_examples():
    assert is_salem(SALEM_QUARTIC).status == "Salem"
    assert is_salem(UniPoly([1, -3, 1])).status == "NotSalem"  # degenerate degree 2
    assert is_salem(CYCLOTOMIC5).status == "NotSalem"
    assert is_salem(LEHMER).status == "Salem"
    with pytest.raises(ValueError):
        is_salem(UniPoly([1, 0, 0, 1]))  # odd degree
    with pytest.raises(ValueError):
        is_salem(UniPoly([1, 1, 1, 1, 2]))  # not monic
    # palindromic with the real pair negative: off the circle but not Salem
    v = is_salem(UniPoly([1, 2, 1, 1, 1, 2, 1]))
    assert v.status == "NotSalem"
    v = is_salem(UniPoly([2, 1, 1, 1, 1]))  # monic quartic, not palindromic
    assert v.status == "NotSalem" and "reciprocal" in v.reason


def test_salem_roundtrip_on_quadratics():
    found_geo = 0
    for a in list(range(-9, 0)) + list(range(1, 10)):
        for b in range(-9, 10):
            for c in range(-9, 10):
                p = UniPoly([c, b, a])
                if p.degree() != 2:
                    continue
                verdict = is_geometric_salem(p, prime_bound=60)
                if verdict.status != "GeometricSalem":
                    continue
                found_geo += 1
                q = salem_transform(p)
                assert salem_inverse_transform(q) == p
                if p.lc() == 1:
                    assert is_salem(q).status == "Salem"
    assert found_geo > 20


def test_galois_certificates():
    cert = galois_cycle_types(QUINTIC, 500)
    assert cert.conclusion == "FullSymmetric(5)"
    assert any(pat == (5,) for _, pat in cert.samples)
    assert any(pat == (2, 3) for _, pat in cert.samples)
    for prime, pat in cert.samples:
        assert sum(pat) == 5
        assert 1644224 % prime != 0  # never samples ramified primes

    cert = galois_cycle_types(UniPoly([-2, 0, 1]), 50)
    assert cert.conclusion == "FullSymmetric(2)"
    patterns = {pat for _, pat in cert.samples}
    assert (2,) in patterns and (1, 1) in patterns

    cert = galois_cycle_types(UniPoly([-1, 0, 0, 0, 0, 1]), 100)  # x^5 - 1, reducible
    assert cert.conclusion == "Unknown"
    assert "rational root" in cert.note


@pytest.mark.parametrize(
    "p",
    [UniPoly([1, 0, 0, 0, 1]), UniPoly([-2, 0, 0, 1]) * UniPoly([-1, -1, 0, 1])],
    ids=["x^4+1", "(x^3-2)(x^3-x-1)"],
)
def test_galois_without_n_cycle_factors_each_sample_once(p, monkeypatch):
    import frickelab.algebraic
    import frickelab.poly

    calls = []
    factor = frickelab.poly.factor_mod_p

    def counting(*args):
        calls.append(args[1])
        return factor(*args)

    monkeypatch.setattr(frickelab.poly, "factor_mod_p", counting)
    monkeypatch.setattr(frickelab.algebraic, "factor_mod_p", counting)
    cert = galois_cycle_types(p, 500)
    assert cert.conclusion == "Unknown"
    assert cert.irreducibility.status == "inconclusive"
    assert calls == [prime for prime, _ in cert.samples]


def test_galois_starved_sampler():
    cert = galois_cycle_types(QUINTIC, 2)
    assert cert.conclusion == "Unknown"


def test_non_arithmeticity_reports():
    rep = non_arithmeticity_report(QUINTIC)
    assert rep.verdict == "NonArithmeticCertified"
    assert "non-arithmetic: certified" in rep.to_text()
    assert rep.to_text().strip().endswith("verdict: NonArithmeticCertified")

    rep = non_arithmeticity_report(UniPoly([-2, 0, 1]))
    assert rep.verdict == "Silent"
    assert "solvable" in rep.to_text()

    rep = non_arithmeticity_report(UniPoly([-3, 1]))
    assert rep.verdict == "Silent"
    assert "rational trace" in rep.to_text()

    rep = non_arithmeticity_report(QUINTIC, prime_bound=2)
    assert rep.verdict == "NotCertified"
    assert "NOT certified" in rep.to_text()


def test_non_arithmeticity_report_reads_the_square_free_degree():
    rep = non_arithmeticity_report(QUINTIC * QUINTIC)
    assert rep.verdict == "NonArithmeticCertified"
    assert "consequence: S5 is not solvable" in rep.to_text()
    assert "S10" not in rep.to_text()
    assert rep.certificate.samples == galois_cycle_types(QUINTIC).samples

    rep = non_arithmeticity_report(UniPoly([-2, 0, 1]) ** 3)
    assert rep.certificate.conclusion == "FullSymmetric(2)"
    assert rep.verdict == "Silent"


@pytest.mark.parametrize(
    "p, conclusion",
    [
        (UniPoly([1, 1, 0, 0, 1]) ** 2, "ContainsNCycle(4)"),
        (UniPoly([1, 0, 0, 0, 1]) ** 2, "Unknown"),
        (UniPoly([0, 1]) ** 5, "ContainsNCycle(1)"),
    ],
)
def test_non_arithmeticity_report_is_silent_when_the_square_free_part_has_degree_at_most_4(p, conclusion):
    # every group of degree <= 4 is solvable, as for the square-free part alone
    rep = non_arithmeticity_report(p)
    assert rep.certificate.conclusion == conclusion
    assert rep.verdict == "Silent"
    assert rep.to_text().endswith("conclusion: solvable Galois group; this test is silent\nverdict: Silent")
    assert non_arithmeticity_report(square_free_part(p)).verdict == "Silent"
