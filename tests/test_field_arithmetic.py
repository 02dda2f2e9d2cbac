"""Number-field arithmetic against schoolbook products and long division.

The oracle (tests/oracles.mul_mod) works on Fraction coefficient lists and
never touches frickelab; the fields are the paper's quintic field (monic),
the z-field of sample_markov_point(3, 16/5), whose defining polynomial
25z^2 - 240z + 481 is not monic, and the field of the real root of the
non-monic cubic 7t^3 + 3t^2 - 5.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frickelab.algebraic import NumberField, make_algebraic
from frickelab.fricke import FrickePoint, sample_markov_point, trace_of
from frickelab.poly import UniPoly, _rem_monic, irreducible_over_Q, isolate_real_roots
from frickelab.words import Word

from oracles import mul_mod, rem_mod

QUINTIC = UniPoly([-4, 4, 3, -4, -2, 1])


def _quintic_field():
    root = make_algebraic(QUINTIC, (2, 3))
    return NumberField(QUINTIC, root, irreducible_over_Q(QUINTIC, 200))


def _markov_field():
    field = sample_markov_point(Fraction(3), Fraction(16, 5)).field
    assert field.defining.coeffs == (481, -240, 25)
    return field


def _cubic_field():
    f = UniPoly([-5, 0, 3, 7])
    return NumberField(f, make_algebraic(f, isolate_real_roots(f)[0]), irreducible_over_Q(f))


FIELDS = {"quintic": _quintic_field(), "markov": _markov_field(), "cubic": _cubic_field()}


def _f(field):
    return [Fraction(c) for c in field.defining.coeffs]


def _random_coeffs(rng, n):
    kind = rng.random()
    if kind < 0.1:
        return [0] * n
    if kind < 0.2:
        return [Fraction(rng.randint(-50, 50), rng.randint(1, 30))]
    return [
        Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) if rng.random() < 0.8 else 0
        for _ in range(n)
    ]


def _seeded_elements(field, seed, count=40):
    rng = random.Random(seed)
    return [(cs, field.element(cs)) for cs in (_random_coeffs(rng, field.degree) for _ in range(count))]


def _lowest_terms(e):
    return e._den > 0 and math.gcd(e._den, *e._nums) == 1 and len(e._nums) == e.field.degree


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_ring_operations_match_long_division(name):
    field = FIELDS[name]
    f = _f(field)
    elements = _seeded_elements(field, 17)
    for (ca, a), (cb, b) in zip(elements, elements[1:] + elements[:1]):
        ra, rb = rem_mod(ca, f), rem_mod(cb, f)
        assert a.coeffs == ra
        assert (a + b).coeffs == tuple(x + y for x, y in zip(ra, rb))
        assert (a - b).coeffs == tuple(x - y for x, y in zip(ra, rb))
        assert (a * b).coeffs == mul_mod(ca, cb, f)
        for e in (a + b, a - b, a * b, -a):
            assert _lowest_terms(e)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_unreduced_input_reduces_like_long_division(name):
    field = FIELDS[name]
    rng = random.Random(23)
    for _ in range(30):
        cs = [Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(rng.randint(1, 3 * field.degree))]
        e = field.element(cs)
        assert e.coeffs == rem_mod(cs, _f(field))
        assert _lowest_terms(e)


# the monic g of phi = |lc f| theta: t for a rational, f for the monic
# quintic, 25 (25t^2 - 240t + 481)(t / 25) for the Markov field
MONIC = {"t": (0, 1), "quintic": QUINTIC.coeffs, "markov": (12025, -240, 1)}


def test_fields_reduce_modulo_their_monic_polynomial():
    assert FIELDS["quintic"]._monic == MONIC["quintic"]
    assert FIELDS["markov"]._monic == MONIC["markov"]


@pytest.mark.parametrize("name", sorted(MONIC))
def test_monic_reduction_matches_long_division(name):
    g = MONIC[name]
    n = len(g) - 1
    rng = random.Random(name)
    for length in range(3 * n + 2):
        for _ in range(20):
            nums = [rng.randint(-10**12, 10**12) if rng.random() < 0.8 else 0 for _ in range(length)]
            assert tuple(_rem_monic(list(nums), g)) == rem_mod(nums, g)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_inverse_and_division(name):
    field = FIELDS[name]
    one = field.from_rational(1)
    for cs, a in _seeded_elements(field, 29):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            continue
        inv = a.inverse()
        assert a * inv == one
        assert mul_mod(a.coeffs, inv.coeffs, _f(field)) == one.coeffs


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_canonical_form_is_route_independent(name):
    field = FIELDS[name]
    elements = [e for _, e in _seeded_elements(field, 31)]
    for x, y, z in zip(elements, elements[1:], elements[2:]):
        left, right = (x * y) * z, x * (y * z)
        assert left == right
        assert (left._nums, left._den) == (right._nums, right._den)
        assert left.coeffs == right.coeffs
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if not y.is_zero():
            back = x / y * y
            assert back == x and back.coeffs == x.coeffs
        assert field.element(x.coeffs) == x


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_zero_and_rational_elements(name):
    field = FIELDS[name]
    zero = field.from_rational(0)
    assert zero.is_zero() and zero.is_rational() and (zero._nums, zero._den) == ((0,) * field.degree, 1)
    assert field.element([]) == zero == field.element([0] * (2 * field.degree))
    q = field.from_rational(Fraction(-6, 4))
    assert q.is_rational() and (q._nums[0], q._den) == (-3, 2)
    assert q == field.element([Fraction(-3, 2)])
    assert q.sign() == -1 and q.cmp_rational(Fraction(-3, 2)) == 0
    x = field.gen()
    assert x * zero == zero and x + zero == x and (x - x).is_zero()
    assert (x * q).coeffs == tuple(c * Fraction(-3, 2) for c in x.coeffs)
    assert 2 * x == x + x and x - 1 == -(1 - x)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_interval_and_sign_at_the_generator(name):
    # the value at a rational within 2^-200 of theta, by plain Fraction
    # Horner, must lie in the enclosure up to far less than its width
    field = FIELDS[name]
    near = field.root.refined(Fraction(1, 2**200)).lo
    slack = Fraction(1, 2**100)
    for _, e in _seeded_elements(field, 37, count=12):
        iv = e.interval(Fraction(1, 2**60))
        assert iv.width() < Fraction(1, 2**60)
        value = sum(c * near**i for i, c in enumerate(e.coeffs))
        assert iv.lo - slack <= value <= iv.hi + slack
        assert e.sign() == (value > 0) - (value < 0)


coefficient = st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(FIELDS)),
    st.lists(coefficient, max_size=8),
    st.lists(coefficient, max_size=8),
)
def test_property_against_oracle(name, ca, cb):
    field = FIELDS[name]
    f = _f(field)
    a, b = field.element(ca), field.element(cb)
    ra, rb = rem_mod(ca, f), rem_mod(cb, f)
    assert (a * b).coeffs == mul_mod(ra, rb, f)
    assert (a + b).coeffs == tuple(x + y for x, y in zip(ra, rb))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(ra, rb))
    assert a * b == b * a
    for e in (a, b, a * b, a + b, a - b):
        assert _lowest_terms(e)
    if not b.is_zero():
        assert (a / b) * b == a


# sha256 of the interval(2^-k) endpoints and sign() of seeded elements,
# taken before interval() and sign() shared one refinement loop; the
# elements theta - r, with r a rational within 2^-k of theta, need many
# refinements before their sign shows
ENCLOSURE_DIGESTS = {
    "cubic": "8109898eb2cc9770aacbf3483b06a324773016c02b0511e27304db3e5c4bef05",
    "markov": "9d1dffe2a040f09bc08eaf4e5c5d68440a94f3c40802b3ca011087ad36f22cc0",
    "quintic": "ab476695b695342da4c67918a5a7a9c73c44e53058f2c32927fae7d11563bdbf",
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_enclosures_and_signs_match_pinned_digest(name):
    field = FIELDS[name]
    elements = [e for _, e in _seeded_elements(field, 53, count=20)]
    for k in (10, 60, 150):
        r = field.root.refined(Fraction(1, 2**k)).lo
        elements += [field.gen() - r, (r - field.gen()) * field.element([Fraction(3, 7), 1])]
    lines = []
    for e in elements:
        for k in (4, 30, 90, 200):
            iv = e.interval(Fraction(1, 2**k))
            lines.append(f"{k} {iv.lo} {iv.hi}")
        lines.append(f"sign {e.sign()}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ENCLOSURE_DIGESTS[name]


def _point(field):
    t = field.gen()
    return FrickePoint.from_field_elements(field, t + Fraction(5, 3), t * t - Fraction(1, 4), t / 3 + 2)


@pytest.mark.parametrize("name", ["markov", "cubic"])
def test_negated_defining_polynomial_gives_the_same_field(name):
    # -f has the same root as f and a negative leading coefficient
    field = FIELDS[name]
    f = UniPoly([-c for c in field.defining.coeffs])
    negated = NumberField(f, make_algebraic(f, (field.root.lo, field.root.hi)), irreducible_over_Q(f))
    assert negated.defining.lc() < 0
    pairs = [(e, negated.element(cs)) for cs, e in _seeded_elements(field, 59, count=20)]
    for k in (10, 60):
        r = field.root.refined(Fraction(1, 2**k)).lo
        pairs.append((field.gen() - r, negated.gen() - r))
    for e, d in pairs:
        assert d.coeffs == e.coeffs
        for k in (4, 30, 90, 200):
            assert d.interval(Fraction(1, 2**k)) == e.interval(Fraction(1, 2**k))
        assert d.sign() == e.sign()
    rng = random.Random(61)
    words = [Word([(rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randint(0, 20))]) for _ in range(30)]
    p, q = _point(field), _point(negated)
    for w in words:
        assert trace_of(q, w).value.coeffs == trace_of(p, w).value.coeffs
