import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from queeralg.scalars import (Tower, _co_add, _co_mul, _co_neg, parse_scalar,
                              raw_inv, raw_mul, raw_of, raw_submul, scalar_of)


@pytest.fixture
def K():
    return Tower()


def test_basic_arithmetic(K):
    a = K.from_fraction(Fraction(3, 4))
    b = K.from_qi(1, 2)  # 1 + 2i
    assert str(a) == "3/4"
    assert (a + b) - b == a
    assert a * b / b == a
    assert (K.i() * K.i()) == -1
    assert (b * b) == K.from_qi(-3, 4)


def test_adjoin_sqrt_trivial_cases(K):
    assert K.adjoin_sqrt(K.from_int(-1)) == K.i()
    assert K.adjoin_sqrt(K.from_int(4)) == K.from_int(2)
    assert K.adjoin_sqrt(K.from_fraction(Fraction(9, 25))) == K.from_fraction(Fraction(3, 5))
    assert K.height == 0


def test_adjoin_sqrt_extends_once(K):
    s = K.adjoin_sqrt(K.from_int(2))
    assert K.height == 1
    assert s * s == 2
    # already a square now: no growth, canonical root returned
    t = K.adjoin_sqrt(K.from_int(2))
    assert t == s
    u = K.adjoin_sqrt(K.from_int(8))
    assert u == 2 * s
    assert K.height == 1


def test_sqrt_inside_extension(K):
    s2 = K.adjoin_sqrt(K.from_int(2))
    # 3 + 2*sqrt(2) = (1 + sqrt(2))^2
    x = 3 + 2 * s2
    r = K.sqrt(x)
    assert r is not None and r * r == x
    assert r == 1 + s2
    assert K.sqrt(K.from_int(3)) is None


def test_nested_tower(K):
    s2 = K.adjoin_sqrt(K.from_int(2))
    r = K.adjoin_sqrt(s2)  # 2^(1/4)
    assert K.height == 2
    assert r * r == s2
    assert (r * r * r * r) == 2
    # inverse through two levels
    x = 1 + r + s2
    assert x * x.inv() == 1


def test_sqrt_in_q_i(K):
    # sqrt(2i) = 1 + i
    x = K.from_qi(0, 2)
    r = K.sqrt(x)
    assert r is not None and r * r == x
    # sqrt(-4) = 2i
    assert K.sqrt(K.from_int(-4)) == K.from_qi(0, 2)


def test_canonical_root_sign(K):
    assert K.sqrt(K.from_int(9)) == K.from_int(3)
    assert K.sqrt(K.from_int(-9)) == K.from_qi(0, 3)


def test_field_identities_random(K):
    rng = random.Random(7)
    s2 = K.adjoin_sqrt(K.from_int(2))
    s3 = K.adjoin_sqrt(K.from_int(3))

    def rand_scalar():
        out = K.zero()
        for mono in (K.one(), K.i(), s2, s3, s2 * s3):
            out = out + K.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) * mono
        return out

    for _ in range(40):
        a, b = rand_scalar(), rand_scalar()
        assert (a + b) * (a + b) == a * a + 2 * a * b + b * b
        assert a * b == b * a
        if not b.is_zero:
            assert (a / b) * b == a
            assert b * b.inv() == 1


def test_zero_division(K):
    with pytest.raises(ZeroDivisionError):
        K.one() / K.zero()


def test_hash_and_eq(K):
    a = K.from_fraction(Fraction(1, 2)) + K.i()
    b = (K.one() + 2 * K.i()) / 2
    assert a == b and hash(a) == hash(b)
    assert a != K.one()


def test_adjoin_sqrt_zero(K):
    assert K.adjoin_sqrt(K.zero()) == K.zero()
    assert K.height == 0


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/4", (3, 0, 4)),
        ("-2", (-2, 0, 1)),
        ("i", (0, 1, 1)),
        ("-i", (0, -1, 1)),
        ("1+2*i", (1, 2, 1)),
        ("1/2-3/4*i", (2, -3, 4)),
        ("0", (0, 0, 1)),
    ],
)
def test_parse_scalar(K, text, expected):
    a, b, d = expected
    assert parse_scalar(K, text) == K.from_qi(a, b, d)


def test_parse_scalar_rejects_garbage(K):
    for bad in ("", "1+", "x", "1//2"):
        with pytest.raises(ValueError):
            parse_scalar(K, bad)


def test_serialization_roundtrip(K):
    a = K.from_qi(1, -2, 3)
    assert a.to_json() == "1/3-2/3*i"
    s2 = K.adjoin_sqrt(K.from_int(2))
    x = 1 + s2
    assert x.to_json() == [[0, "1"], [1, "1"]]
    assert str(x) == "1 + (1)*s1"


# ---------------------------------------------------------------------------
# The Q(i) fast path agrees with the coefficient-dict path
# ---------------------------------------------------------------------------

QI = Tower()
EXT = Tower()
S2 = EXT.adjoin_sqrt(EXT.from_int(2))   # EXT = Q(i)(sqrt 2), height 1


def qi_scalars(tower):
    return st.builds(tower.from_qi, st.integers(-3, 3), st.integers(-2, 2),
                     st.sampled_from([1, 2, 3]))


def ext_scalars():
    # about half the draws lie in Q(i), the rest use sqrt 2
    return st.one_of(qi_scalars(EXT),
                     st.builds(lambda x, y: x + y * S2,
                               qi_scalars(EXT), qi_scalars(EXT)))


@st.composite
def operand_pairs(draw, scalars):
    a = draw(scalars)
    b = draw(st.one_of(scalars, st.just(a), st.just(-a)))  # zero sums too
    return a, b


def co_oracle(a, b):
    """+, - and * through the coefficient-dict functions alone."""
    gens = a.tower.gens
    prod = _co_mul(a.co, b.co, gens) if a.co and b.co else {}
    return (_co_add(a.co, b.co), _co_add(a.co, _co_neg(b.co)), prod)


@settings(max_examples=200)
@given(st.one_of(operand_pairs(qi_scalars(QI)), operand_pairs(ext_scalars())),
       st.integers(-3, 3))
def test_fast_arithmetic_matches_co_path(pair, n):
    a, b = pair
    add, sub, mul = co_oracle(a, b)
    assert ((a + b).co, (a - b).co, (a * b).co) == (add, sub, mul)
    # int operands on either side take the coercing path
    c = a.tower.from_int(n)
    add, sub, mul = co_oracle(a, c)
    assert ((a + n).co, (n + a).co, (a - n).co, (a * n).co, (n * a).co) == \
        (add, add, sub, mul, mul)
    assert (n - a).co == co_oracle(c, a)[1]


@settings(max_examples=200)
@given(ext_scalars(), ext_scalars(), ext_scalars())
def test_raw_submul_matches_scalars(c, f, x):
    assume(not f.is_zero and not x.is_zero)   # raw entries are nonzero
    gens = EXT.gens
    # a zero c is None, the raw form of zero
    assert raw_submul(raw_of(c), raw_of(f), raw_of(x), gens) == \
        raw_of(c - f * x)
    assert raw_mul(raw_of(f), raw_of(x), gens) == raw_of(f * x)
    assert scalar_of(EXT, raw_inv(raw_of(f), gens)) == f.inv()
    assert scalar_of(EXT, raw_of(f)) == f


def test_fast_path_keeps_cross_tower_error():
    a, b = QI.from_qi(1, 1), Tower().from_qi(1, 1)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError):
            op()
