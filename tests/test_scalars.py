import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from queeralg.scalars import (MOD_P_PRIMES, ModP, Tower, _co_add, _co_mul,
                              _co_neg, _sqrt_mod, parse_scalar, raw_inv,
                              raw_mul, raw_of, raw_submul, scalar_of)


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
    s2 = K.adjoin_sqrt(K.from_int(2))
    x = 1 + s2
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


# ---------------------------------------------------------------------------
# One-pass raw_submul against the coefficient-dict composition it replaced
# ---------------------------------------------------------------------------

HIGH = Tower()
HIGH.adjoin_sqrt(HIGH.from_int(2))                     # s1, radicand in Q(i)
HIGH.adjoin_sqrt(HIGH.from_int(3) + HIGH.gen(0))       # s2, radicand 3 + s1
HIGH.adjoin_sqrt(HIGH.from_int(5))                     # s3, radicand in Q(i)
assert HIGH.height == 3


def old_raw_submul(cur, f, x, gens):
    """Reference: the two-dict path, _co_add(cur, -(f*x)) in raw form."""
    co = _co_add(_raw_co(cur) if cur is not None else {},
                 _co_neg(_co_mul(_raw_co(f), _raw_co(x), gens)))
    return raw_of(HIGH.scalar(co))


def _raw_co(x):
    return {0: x} if x.__class__ is tuple else x


@st.composite
def high_scalars(draw, height=None):
    """A scalar of HIGH using generators below the drawn height only."""
    h = draw(st.integers(0, 3)) if height is None else height
    masks = draw(st.sets(st.integers(0, (1 << h) - 1), max_size=4))
    co = {}
    for m in masks:
        q = draw(st.tuples(st.integers(-3, 3), st.integers(-2, 2),
                           st.sampled_from([1, 2, 3, 6])))
        s = HIGH.from_qi(*q)
        if not s.is_zero:
            co[m] = s.co[0]
    return HIGH.scalar(co)


@settings(max_examples=400)
@given(high_scalars(), high_scalars(), high_scalars(),
       st.sampled_from(["drawn", "none", "cancel"]))
def test_one_pass_raw_submul_matches_two_dict_path(c, f, x, mode):
    assume(not f.is_zero and not x.is_zero)
    gens = HIGH.gens
    rf, rx = raw_of(f), raw_of(x)
    if mode == "none":
        rc = None
    elif mode == "cancel":           # the result is zero
        rc = raw_of(f * x)
    else:
        rc = raw_of(c)
    got = raw_submul(rc, rf, rx, gens)
    assert got == old_raw_submul(rc, rf, rx, gens)
    assert got == raw_of((scalar_of(HIGH, rc) if rc is not None
                          else HIGH.zero()) - f * x)
    if mode == "cancel":
        assert got is None


def test_one_pass_raw_submul_each_height():
    gens = HIGH.gens
    s1, s2, s3 = (HIGH.gen(j) for j in range(3))
    one = HIGH.one()
    cases = [(one, HIGH.from_qi(1, 2, 3), HIGH.from_qi(-2, 1, 5)),      # h0
             (one + s1, s1, 2 - s1),                                  # h1
             (s1 * s2, s2, s1 + s2),            # h2: s2^2 = 3 + s1
             (s3 + s2, s1 * s2 * s3, s2 * s3 - s1)]                   # h3
    for c, f, x in cases:
        for cur in (raw_of(c), None, raw_of(f * x)):
            got = raw_submul(cur, raw_of(f), raw_of(x), gens)
            assert got == old_raw_submul(cur, raw_of(f), raw_of(x), gens)
    assert raw_submul(raw_of(s2 * s2), raw_of(s2), raw_of(s2), gens) is None


# ---------------------------------------------------------------------------
# The reduction of the tower modulo a prime
# ---------------------------------------------------------------------------

RED = [Tower() for _ in range(4)]
for _t in RED[1:]:
    _t.adjoin_sqrt(_t.from_int(3))                         # in Q
for _t in RED[2:]:
    _t.adjoin_sqrt(_t.one() + _t.gen(0))                   # 1 + s1, above Q(i)
RED[3].adjoin_sqrt(RED[3].from_qi(2, 1) + RED[3].gen(0) * RED[3].gen(1))
assert [t.height for t in RED] == [0, 1, 2, 3]


def assert_reduces_i_and_roots(t):
    red = t.mod_p()
    p = red.p
    assert p in MOD_P_PRIMES and p % 8 == 1 and red.height == t.height
    assert red.scalar(t.i()) ** 2 % p == p - 1
    for j, d in enumerate(t.gens):
        assert red.scalar(d) != 0
        assert red.scalar(t.gen(j)) ** 2 % p == red.scalar(d)


@st.composite
def red_scalars(draw, t):
    co = {}
    for m in draw(st.sets(st.integers(0, (1 << t.height) - 1), max_size=4)):
        q = t.from_qi(draw(st.integers(-4, 4)), draw(st.integers(-3, 3)),
                      draw(st.sampled_from([1, 2, 3, 6])))
        if not q.is_zero:
            co[m] = q.co[0]
    return t.scalar(co)


@st.composite
def red_operands(draw):
    t = RED[draw(st.integers(0, 3))]
    return t, draw(red_scalars(t)), draw(red_scalars(t))


@pytest.mark.parametrize("height", [0, 1, 2, 3])
def test_reduction_sends_i_and_each_root_to_roots(height):
    assert_reduces_i_and_roots(RED[height])


@settings(max_examples=200)
@given(red_operands())
def test_reduction_is_a_ring_map(drawn):
    t, x, y = drawn
    red = t.mod_p()
    p, r = red.p, red.scalar
    assert r(x + y) == (r(x) + r(y)) % p
    assert r(x - y) == (r(x) - r(y)) % p
    assert r(x * y) == r(x) * r(y) % p
    if not x.is_zero:
        inv = r(x.inv())
        assume(inv is not None)   # the norm of x may carry p
        assert r(x) * inv % p == 1


def test_reduction_refuses_a_denominator_divisible_by_p():
    t = RED[2]
    red = t.mod_p()
    p = red.p
    assert red.scalar(t.from_fraction(Fraction(1, p))) is None
    assert red.scalar(t.one() + t.gen(1) * t.from_qi(1, 1, 2 * p)) is None
    assert red.raw(raw_of(t.from_qi(1, 1, 3 * p))) is None
    assert red.scalar(t.from_fraction(Fraction(p, 2))) == 0
    assert red.scalar(t.zero()) == 0
    # a radicand with p in its denominator has no reduction at p
    t2 = Tower()
    p0 = t2.mod_p().p
    t2.adjoin_sqrt(t2.from_fraction(Fraction(3, p0)))
    assert t2.mod_p().p != p0
    assert_reduces_i_and_roots(t2)


def test_cached_reduction_extends_or_moves_on():
    t = Tower()
    first = t.mod_p()
    assert t.mod_p() is first and first.p == MOD_P_PRIMES[0]
    # a radicand that is a square mod p: the reduction extends
    p0 = first.p
    squares = [q for q in (3, 5, 7, 11, 13) if pow(q, (p0 - 1) // 2, p0) == 1]
    q_res = squares[0]
    t.adjoin_sqrt(t.from_int(q_res))
    second = t.mod_p()
    assert (second.p, second.iota, second.height) == (p0, first.iota, 1)
    # a non-square mod p: it moves on to a later prime
    q_non = next(q for q in (3, 5, 7, 11, 13) if q not in squares)
    t.adjoin_sqrt(t.from_int(q_non))
    third = t.mod_p()
    assert MOD_P_PRIMES.index(third.p) > 0 and third.height == 2
    assert_reduces_i_and_roots(t)
    # a radicand that is already a square adds no root and keeps the cache
    t.adjoin_sqrt(t.from_int(4 * q_res))
    assert t.height == 2 and t.mod_p() is third


def fresh_reduction(t):
    """Reference: the first listed prime that fits every radicand of t,
    searched from scratch, as (p, sigmas); None when none fits."""
    for p in MOD_P_PRIMES:
        red = ModP(p, _sqrt_mod(p - 1, p), (), [1]).extended(t.gens)
        if red is not None:
            return red.p, red.sigmas
    return None


@settings(max_examples=30)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-2, 2),
                          st.booleans()), min_size=1, max_size=3))
def test_cached_reduction_after_adjoin_sqrt(steps):
    """After each adjoin_sqrt the cached reduction is the one a search from
    scratch finds, and it sends i and the roots to roots."""
    t = Tower()
    for a, b, above in steps:
        d = t.from_qi(a, b)
        if above and t.height:
            d = d + t.gen(t.height - 1)    # a radicand above Q(i)
        if d.is_zero:
            continue
        t.mod_p()                           # cached at the old height
        t.adjoin_sqrt(d)
        red = t.mod_p()
        assert (None if red is None else (red.p, red.sigmas)) == \
            fresh_reduction(t)
        if red is not None:
            assert_reduces_i_and_roots(t)
            x = t.one() + t.gen(t.height - 1) if t.height else t.i()
            assert red.scalar(x * x) == red.scalar(x) ** 2 % red.p
