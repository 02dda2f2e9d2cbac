"""The exact pass of trace_of in one ring, Z/g(2^s) under t -> 2^s
(tracering._ring_numerators), against the vector pass on n numerators
(tracering._vector_numerators) and against independent oracles: exact
SL(2, Q) matrices at rational points, and 2x2 matrices over a quadratic
extension of Q[theta]/(f), multiplied with oracles.mul_mod, at field
points.  Also the proven growth bound behind s, the smallest s that still
decodes, and the size rule that picks the pass."""

import os
import random
from fractions import Fraction

import pytest

from frickelab import tracering
from frickelab.fricke import FrickePoint, sample_markov_point, solve_pattern_system, trace_of
from frickelab.words import Word, parse_word, parse_word_list

from oracles import mat_mul, mul_mod, random_sl2_rational, rem_mod, word_matrix

LETTERS = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]


def rand_word(rng, length):
    """Freely reduced word of exactly length letters."""
    letters = []
    while len(letters) < length:
        gen, exp = rng.choice(LETTERS)
        if not letters or letters[-1] != (gen, -exp):
            letters.append((gen, exp))
    return Word(letters)


def sample_words():
    """Seeded words of 0-60 letters, periodic words, and fast-growing ones."""
    rng = random.Random(2727)
    words = [rand_word(rng, n) for n in list(range(0, 61, 3)) + [26, 32, 33, 40, 48, 60]]
    words += [parse_word(u) ** k for u, k in (("ab", 12), ("aab", 7), ("abAB", 5), ("aB", 20), ("bbA", 11))]
    words += [parse_word("A") ** k for k in (1, 7, 30, 32, 60)]
    words += [parse_word("aB") ** k for k in (3, 16, 30)]
    return words


POINTS = {
    "paper": lambda: solve_pattern_system(128),
    # the field of 25t^2 - 240t + 481, whose defining polynomial is not monic
    "markov": lambda: sample_markov_point(Fraction(3), Fraction(16, 5)),
    "3,3,3": lambda: FrickePoint.from_rationals(3, 3, 3),
    "1/2,-7/3,5/11": lambda: FrickePoint.from_rationals(Fraction(1, 2), Fraction(-7, 3), Fraction(5, 11)),
}


@pytest.fixture(scope="module")
def points():
    return {name: make() for name, make in POINTS.items()}


def proven_s(pt, w: Word) -> int:
    s0, s_a, s_b = pt._trace_data[3]
    n_a = sum(1 for gen, _ in w.letters if gen == "a")
    return s0 + n_a * s_a + (len(w) - n_a) * s_b


def ring(pt, w: Word, s: int):
    g, table, _, _ = pt._trace_data
    try:
        return tracering._ring_numerators(w.letters, table, g, s)
    except ZeroDivisionError:
        # g(2^s) = 0: such an s decodes nothing
        return None


def vector(pt, w: Word):
    g, table, _, _ = pt._trace_data
    return tracering._vector_numerators(w.letters, table, g)


def as_coeffs(pt, w: Word, nums):
    """tr(w) on theta's power basis from its numerators on phi = c theta
    over E^(L+1), with no library arithmetic."""
    den = pt._trace_data[2] ** (len(w) + 1)
    c = pt.field._scale if pt.field else 1
    return tuple(Fraction(v * c ** k, den) for k, v in enumerate(nums))


# -- the oracle: 2x2 matrices over K[s]/(s^2 - z s + 1) ------------------------------
# with A = [[x, -1], [1, 0]] and B = [[0, s], [-1/s, y]], 1/s = z - s, so
# that tr A = x, tr B = y and tr AB = s + 1/s = z; K is Q[theta]/(f), an
# element of K its theta-coefficients, and u + v s the pair (u, v)


def oracle_trace(pt, w: Word):
    f = pt.field.defining.coeffs if pt.field else (0, 1)
    x, y, z = (tuple(map(Fraction, c.coeffs)) if pt.field else (c,) for c in pt.coords)
    zero = (Fraction(0),) * (len(f) - 1)
    one = (Fraction(1),) + zero[1:]

    def add(p, q):
        return tuple(tuple(a + b for a, b in zip(u, v)) for u, v in zip(p, q))

    def neg(p):
        return tuple(tuple(-a for a in u) for u in p)

    def mul(p, q):
        # (u1 + v1 s)(u2 + v2 s) with s^2 = z s - 1
        (u1, v1), (u2, v2) = p, q
        vv = mul_mod(v1, v2, f)
        u = tuple(a - b for a, b in zip(mul_mod(u1, u2, f), vv))
        v = tuple(a + b + c for a, b, c in zip(mul_mod(u1, v2, f), mul_mod(v1, u2, f), mul_mod(vv, z, f)))
        return u, v

    def matmul(m1, m2):
        return [[add(mul(m1[i][0], m2[0][j]), mul(m1[i][1], m2[1][j])) for j in range(2)] for i in range(2)]

    def inverse(m):
        return [[m[1][1], neg(m[0][1])], [neg(m[1][0]), m[0][0]]]

    def k(u):
        return u, zero

    s, s_inv = (zero, one), (z, neg((one,))[0])
    A = [[k(x), neg(k(one))], [k(one), k(zero)]]
    B = [[k(zero), s], [neg(s_inv), k(y)]]
    matrices = {("a", 1): A, ("a", -1): inverse(A), ("b", 1): B, ("b", -1): inverse(B)}
    m = [[k(one), k(zero)], [k(zero), k(one)]]
    for letter in w.letters:
        m = matmul(m, matrices[letter])
    u, v = add(m[0][0], m[1][1])
    assert not any(v), "the trace of a matrix word lies in K"
    return u


@pytest.mark.parametrize("name", sorted(POINTS))
def test_ring_and_vector_passes_equal_the_matrix_oracle(points, name):
    pt = points[name]
    for w in sample_words():
        assert ring(pt, w, proven_s(pt, w)) == vector(pt, w), w
    # the oracle takes some 7 ms a letter at the paper point: a subset
    rng = random.Random(2828)
    words = [rand_word(rng, n) for n in (0, 1, 4, 9, 17, 26, 33, 45, 60)]
    words += [parse_word(u) ** k for u, k in (("aab", 7), ("abAB", 5), ("A", 30), ("aB", 16))]
    for w in words:
        nums = ring(pt, w, proven_s(pt, w))
        assert nums == vector(pt, w), w
        assert as_coeffs(pt, w, nums) == oracle_trace(pt, w), w


def test_ring_pass_at_rational_points_equals_sl2q_matrices():
    rng = random.Random(3131)
    for _ in range(30):
        A, B = random_sl2_rational(rng), random_sl2_rational(rng)
        ab = mat_mul(A, B)
        pt = FrickePoint.from_rationals(A[0][0] + A[1][1], B[0][0] + B[1][1], ab[0][0] + ab[1][1])
        for w in [rand_word(rng, n) for n in (0, 1, 5, 20, 40, 60)] + [parse_word("A") ** 25]:
            m = word_matrix(w, A, B)
            nums = ring(pt, w, proven_s(pt, w))
            assert nums == vector(pt, w), w
            assert as_coeffs(pt, w, nums) == (m[0][0] + m[1][1],), w


# the letter rules and the trace rule as their multipliers, from trace_in
RULE_MULTIPLIERS = {
    ("a", 1): ("W1Y", "1XYZ", "X1", "1"),
    ("a", -1): ("X1WY", "1YZ", "1", "1X"),
    ("b", 1): ("1", "1", "1Y", "1Y"),
    ("b", -1): ("Y1", "Y1", "1", "1"),
}
TRACE_MULTIPLIERS = "11XYZ"


@pytest.mark.parametrize("name", sorted(POINTS))
def test_growth_bits_equal_independent_row_sums(points, name):
    # mu_m is the largest absolute row sum of multiplication by E m on the
    # power basis, column j being E m t^j reduced modulo g by long division
    pt = points[name]
    g, _, e, growth = pt._trace_data
    n = len(g) - 1
    x, y, z = pt.coords
    one = pt.field.from_rational(1) if pt.field else Fraction(1)
    mu = {}
    for m, value in {"1": one, "X": x, "Y": y, "Z": z, "W": z - x * y}.items():
        scaled = value * e
        vec = [Fraction(v, scaled._den) for v in scaled._nums] if pt.field else [scaled]
        assert all(v.denominator == 1 for v in vec)
        columns = [rem_mod([0] * j + vec, g) for j in range(n)]
        mu[m] = max(sum(abs(col[r]) for col in columns) for r in range(n))
    grow = {gen: max(sum(mu[m] for m in rule) for exp in (1, -1) for rule in RULE_MULTIPLIERS[gen, exp]) for gen in "ab"}
    trace = sum(mu[m] for m in TRACE_MULTIPLIERS)
    bits = lambda q: int(q).bit_length()
    assert growth == (bits(max(trace, *map(abs, g))) + 3, bits(grow["a"]), bits(grow["b"]))


@pytest.mark.parametrize("name", sorted(POINTS))
def test_numerators_fit_the_proven_bound_with_the_decode_margin(points, name):
    # the decode is exact when 4B + 2|g|_inf <= 2^s for every numerator
    # |d| <= B; a growth bound that came out too small fails here
    pt = points[name]
    g = pt._trace_data[0]
    for w in sample_words():
        top = max(map(abs, vector(pt, w)))
        assert 4 * top + 2 * max(map(abs, g)) <= 2 ** proven_s(pt, w), w


def smallest_decoding_s(pt, w: Word) -> int:
    """The smallest s from which every s up to the proven one decodes w."""
    want, s = vector(pt, w), proven_s(pt, w)
    assert ring(pt, w, s) == want, w
    while s > 1 and ring(pt, w, s - 1) == want:
        s -= 1
    return s


@pytest.mark.parametrize("name", sorted(POINTS))
def test_one_bit_under_the_smallest_decoding_s_decodes_wrong(points, name):
    # the proven s decodes (smallest_decoding_s asserts it) and overshoots
    # the smallest s by some 3-4 bits a letter at the paper point
    pt = points[name]
    for w in sample_words():
        s = smallest_decoding_s(pt, w)
        want = vector(pt, w)
        # a balanced s-bit digit is at least -2^(s-1) and below 2^(s-1)
        assert max(map(abs, want)) <= 2 ** (s - 1), w
        assert s == 1 or ring(pt, w, s - 1) != want, w


# -- which pass runs ---------------------------------------------------------------------


@pytest.fixture
def spy(monkeypatch):
    """The names of the passes that trace_of runs, in order."""
    runs = []
    for name in ("_ring_numerators", "_vector_numerators"):
        real = getattr(tracering, name)
        monkeypatch.setattr(tracering, name, lambda *args, real=real, name=name: runs.append(name) or real(*args))
    return runs


def test_every_word_of_the_traces_workload_takes_the_ring_pass(points, spy):
    # the benchmark's traces words have at most 26 letters, its periodic
    # ones at most 24; a-letters grow fastest, so a^26 is the widest
    paper = points["paper"]
    rng = random.Random(9191)
    words = [rand_word(rng, n) for n in (3, 7, 14, 18, 21, 26) for _ in range(20)]
    words += [parse_word(u) ** (24 // len(u)) for u in ("a", "ab", "aB", "abb", "aBAb")]
    words += [parse_word("a") ** 26, parse_word("A") ** 26]
    for w in words:
        trace_of(paper, w)
    assert spy == ["_ring_numerators"] * len(words)
    # n s at n = 5, for a^26: 5 (9 + 26 * 6)
    assert max(5 * proven_s(paper, w) for w in words) == 825


def test_long_words_take_the_vector_pass_at_the_paper_point(points, spy):
    paper = points["paper"]
    path = os.path.join(os.path.dirname(__file__), "data", "trace_words.txt")
    longest = max(parse_word_list(open(path).read()), key=len)
    assert len(longest) == 72
    for w in (longest, rand_word(random.Random(700), 700)):
        spy.clear()
        trace_of(paper, w)
        assert spy == ["_vector_numerators"], w


@pytest.mark.parametrize("base", ["a", "b"])
def test_the_size_rule_at_its_edge_at_the_paper_point(points, spy, base):
    # the longest power of a (of b) whose n s bits fit _RING_BITS takes the
    # ring pass, and one letter more takes the vector pass; both decode
    paper = points["paper"]
    n = len(paper._trace_data[0]) - 1
    k = max(k for k in range(200) if n * proven_s(paper, parse_word(base) ** k) <= tracering._RING_BITS)
    assert k == {"a": 32, "b": 48}[base]
    for w, route in ((parse_word(base) ** k, "_ring_numerators"), (parse_word(base) ** (k + 1), "_vector_numerators")):
        spy.clear()
        trace_of(paper, w)
        assert spy == [route], w
        assert ring(paper, w, proven_s(paper, w)) == vector(paper, w), w
