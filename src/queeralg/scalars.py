"""Exact scalar arithmetic in a tower of quadratic extensions of Q(i).

Every scalar in one computation context lives in a common field
Q(i)[s1, ..., sk] / (sj^2 - dj), where each dj is an element of the
subtower generated by s1, ..., s_{j-1}.  New square roots are adjoined
on demand; a root is only adjoined when the radicand is not already a
square, so the tower never acquires zero divisors and remains a field.

Coefficients over the monomial basis {prod_{j in S} sj : S subset} are
Gaussian rationals stored as normalized integer triples (a, b, d)
meaning (a + b*i)/d with gcd(a, b, d) = 1 and d > 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

# ---------------------------------------------------------------------------
# Gaussian rational triples (a, b, d)  <->  (a + b i)/d
# ---------------------------------------------------------------------------

QI_ZERO = (0, 0, 1)
QI_ONE = (1, 0, 1)
QI_I = (0, 1, 1)


def qi_make(a: int, b: int, d: int):
    if d == 0:
        raise ZeroDivisionError("zero denominator")
    if a == 0 and b == 0:
        return QI_ZERO
    if d == 1:
        return (a, b, 1)
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(gcd(a, b), d)
    if g > 1:
        a, b, d = a // g, b // g, d // g
    return (a, b, d)


def qi_add(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    return qi_make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def qi_neg(x):
    a, b, d = x
    return (-a, -b, d)


def qi_sub(x, y):
    return qi_add(x, qi_neg(y))


def qi_mul(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    return qi_make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def qi_inv(x):
    a, b, d = x
    n = a * a + b * b
    if n == 0:
        raise ZeroDivisionError("division by zero in Q(i)")
    return qi_make(a * d, -b * d, n)


def qi_from_fraction(fr: Fraction):
    return qi_make(fr.numerator, 0, fr.denominator)


def _fraction_sqrt(fr: Fraction):
    """Exact square root of a rational, or None."""
    if fr < 0:
        return None
    p, q = fr.numerator, fr.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def qi_sqrt(x):
    """Square root of (a + b i)/d inside Q(i), or None."""
    a, b, d = x
    if b == 0:
        r = _fraction_sqrt(Fraction(a, d))
        if r is not None:
            return qi_from_fraction(r)
        r = _fraction_sqrt(Fraction(-a, d))
        if r is not None:
            return qi_make(0, r.numerator, r.denominator)
        return None
    # c^2 - e^2 = a/d, 2 c e = b/d, c^2 + e^2 = |x|; need |x| rational.
    s = isqrt(a * a + b * b)
    if s * s != a * a + b * b:
        return None
    c2 = Fraction(a + s, 2 * d)
    c = _fraction_sqrt(c2)
    if c is None or c == 0:
        return None
    e = Fraction(b, d) / (2 * c)
    y = qi_make(c.numerator * e.denominator, e.numerator * c.denominator,
                c.denominator * e.denominator)
    if qi_mul(y, y) == qi_make(a, b, d):
        return y
    return None


def qi_str(x) -> str:
    a, b, d = x
    if b == 0:
        return f"{a}/{d}" if d != 1 else f"{a}"
    re = f"{a}/{d}" if d != 1 else f"{a}"
    im = f"{abs(b)}/{d}" if d != 1 else f"{abs(b)}"
    sign = "-" if b < 0 else "+"
    if a == 0:
        return f"{'-' if b < 0 else ''}{im}*i"
    return f"{re}{sign}{im}*i"


# ---------------------------------------------------------------------------
# Tower and Scalar
# ---------------------------------------------------------------------------


class Tower:
    """Append-only descriptor of the quadratic extension tower.

    Holds the defining radicands d1, ..., dk.  All scalars of one
    computation context must reference the same Tower instance; the
    single-writer contract applies to adjoin_sqrt.
    """

    __slots__ = ("gens", "_roots", "_mod_p")

    def __init__(self):
        self.gens: list[Scalar] = []
        # cache of known square roots (successes only: append-only towers
        # never invalidate a found root, while a cached failure would be)
        self._roots: dict = {}
        # the reduction of mod_p: a ModP, or False once no listed prime fits
        self._mod_p = None

    @property
    def height(self) -> int:
        return len(self.gens)

    def gen_name(self, j: int) -> str:
        return f"s{j + 1}"

    # -- constructors -------------------------------------------------

    def scalar(self, co: dict) -> Scalar:
        return Scalar(self, co)

    def zero(self) -> Scalar:
        return Scalar(self, {})

    def one(self) -> Scalar:
        return Scalar(self, {0: QI_ONE})

    def i(self) -> Scalar:
        return Scalar(self, {0: QI_I})

    def from_int(self, n: int) -> Scalar:
        if n == 0:
            return self.zero()
        return Scalar(self, {0: qi_make(n, 0, 1)})

    def from_fraction(self, fr) -> Scalar:
        fr = Fraction(fr)
        if fr == 0:
            return self.zero()
        return Scalar(self, {0: qi_from_fraction(fr)})

    def from_qi(self, a, b=0, d=1) -> Scalar:
        q = qi_make(a, b, d)
        return Scalar(self, {0: q} if q != QI_ZERO else {})

    def gen(self, j: int) -> Scalar:
        return Scalar(self, {1 << j: QI_ONE})

    # -- roots ---------------------------------------------------------

    def sqrt(self, x) -> Scalar | None:
        """A square root of x inside the current tower, canonical sign, or None."""
        x = self._coerce(x)
        key = tuple(sorted(x.co.items()))
        cached = self._roots.get(key)
        if cached is not None:
            return cached
        co = _co_sqrt(x.co, self.gens)
        if co is None:
            return None
        r = Scalar(self, co)
        if not _co_canonical_positive(co):
            r = -r
        self._roots[key] = r
        return r

    def adjoin_sqrt(self, d) -> Scalar:
        """Return r with r*r == d, extending the tower only when needed.

        If d is already a square the stored root (canonical sign) is
        returned and the tower is untouched; otherwise a fresh generator
        is appended and is itself the canonical root.
        """
        d = self._coerce(d)
        r = self.sqrt(d)
        if r is not None:
            return r
        j = len(self.gens)
        self.gens.append(d)
        r = self.gen(j)
        self._roots[tuple(sorted(d.co.items()))] = r
        return r

    def mod_p(self) -> ModP | None:
        """The reduction of the tower modulo the first listed prime at which
        every radicand reduces to a nonzero square (see ModP); None when no
        prime of MOD_P_PRIMES fits.  Cached for the current height: a
        higher tower extends the cached reduction when its prime still
        fits, and otherwise moves on to the next prime of the list."""
        red = self._mod_p
        if red is False or (red is not None and red.height == len(self.gens)):
            return red or None
        start = 0
        if red is not None:
            ext = red.extended(self.gens)
            if ext is not None:
                self._mod_p = ext
                return ext
            start = MOD_P_PRIMES.index(red.p) + 1
        for p in MOD_P_PRIMES[start:]:
            red = ModP(p, _sqrt_mod(p - 1, p), (), [1]).extended(self.gens)
            if red is not None:
                self._mod_p = red
                return red
        self._mod_p = False
        return None

    def _coerce(self, x) -> Scalar:
        if isinstance(x, Scalar):
            if x.tower is not self:
                raise ValueError("scalar belongs to a different tower")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return self.from_fraction(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into tower scalar")

    def __repr__(self):
        return f"Tower(height={self.height})"


# -- coefficient-dict arithmetic (masks index square-free monomials) --------


def _co_add(c1: dict, c2: dict) -> dict:
    out = dict(c1)
    for m, q in c2.items():
        cur = out.get(m)
        if cur is None:
            out[m] = q
        else:
            s = qi_add(cur, q)
            if s == QI_ZERO:
                del out[m]
            else:
                out[m] = s
    return out


def _co_neg(c: dict) -> dict:
    return {m: qi_neg(q) for m, q in c.items()}


def _co_mul(c1: dict, c2: dict, gens) -> dict:
    # the products accumulate unnormalized; one qi_make per monomial
    acc: dict = {}
    _raw_prod_into(acc, c1, c2, gens)
    return {m: qi_make(a, b, d) for m, (a, b, d) in acc.items() if a or b}


def _co_inv(c: dict, gens) -> dict:
    if not c:
        raise ZeroDivisionError("scalar division by zero")
    top = max(c)
    if top == 0:
        return {0: qi_inv(c[0])}
    k = top.bit_length() - 1
    bit = 1 << k
    a = {m: q for m, q in c.items() if not m & bit}
    b = {m ^ bit: q for m, q in c.items() if m & bit}
    # (a + b s)^-1 = (a - b s) / (a^2 - b^2 d)
    norm = _co_add(_co_mul(a, a, gens),
                   _co_neg(_co_mul(_co_mul(b, b, gens), gens[k].co, gens)))
    ninv = _co_inv(norm, gens)
    num = _co_add(a, {m | bit: qi_neg(q) for m, q in b.items()})
    return _co_mul(num, ninv, gens)


def _co_canonical_positive(c: dict) -> bool:
    """Sign convention: first nonzero coefficient (in mask order) has
    positive real part, or zero real part and positive imaginary part."""
    if not c:
        return False
    m = min(c)
    a, b, _ = c[m]
    return a > 0 or (a == 0 and b > 0)


def _co_sqrt(c: dict, gens) -> dict | None:
    return _co_sqrt_lvl(c, gens, len(gens))


def _co_sqrt_lvl(c: dict, gens, lvl: int) -> dict | None:
    """Square root of c within the subtower generated by s1..s_lvl.

    The recursion descends over tower levels (not over the masks present
    in c): a root may involve generators the radicand does not mention.
    """
    if not c:
        return {}
    if lvl == 0:
        if set(c) != {0}:
            return None
        q = qi_sqrt(c[0])
        return None if q is None else {0: q}
    k = lvl - 1
    bit = 1 << k
    a = {m: q for m, q in c.items() if not m & bit}
    b = {m ^ bit: q for m, q in c.items() if m & bit}
    if not b:
        r = _co_sqrt_lvl(a, gens, k)
        if r is not None:
            return r
        # root of the form e * s_k with e^2 = a / d_k
        e2 = _co_mul(a, _co_inv(gens[k].co, gens), gens)
        e = _co_sqrt_lvl(e2, gens, k)
        if e is not None:
            return {m | bit: q for m, q in e.items()}
        return None
    # y = c0 + e s_k: c0^2 = (a +- n)/2 with n^2 = a^2 - b^2 d (the norm).
    n2 = _co_add(_co_mul(a, a, gens),
                 _co_neg(_co_mul(_co_mul(b, b, gens), gens[k].co, gens)))
    n = _co_sqrt_lvl(n2, gens, k)
    if n is None:
        return None
    half = {0: qi_make(1, 0, 2)}
    for nn in (n, _co_neg(n)):
        c0sq = _co_mul(_co_add(a, nn), half, gens)
        c0 = _co_sqrt_lvl(c0sq, gens, k)
        if c0 is None or not c0:
            continue
        e = _co_mul(_co_mul(b, half, gens), _co_inv(c0, gens), gens)
        root = _co_add(c0, {m | bit: q for m, q in e.items()})
        if _co_add(_co_mul(root, root, gens), _co_neg(c)) == {}:
            return root
    return None


# -- raw entries: the form the elimination loops work on --------------------
#
# A nonzero value is its (a, b, d) triple when it lies in Q(i) and its
# coefficient dict otherwise; zero has no raw form (None).  Height-0
# arithmetic then runs on bare triples, and the tower's coefficient-dict
# arithmetic is reached only above Q(i).


def _co_raw(co: dict):
    if not co:
        return None
    if len(co) == 1:
        q = co.get(0)
        if q is not None:
            return q
    return co


def _raw_co(x) -> dict:
    return {0: x} if x.__class__ is tuple else x


def raw_of(x: Scalar):
    """Raw form of a scalar; None when it is zero."""
    return _co_raw(x.co)


def scalar_of(tower: Tower, x) -> Scalar:
    """The scalar of a (nonzero) raw entry."""
    return Scalar(tower, {0: x} if x.__class__ is tuple else x)


def raw_mul(x, y, gens):
    """Product of two nonzero raw entries (nonzero: the tower is a field)."""
    if x.__class__ is tuple and y.__class__ is tuple:
        return qi_mul(x, y)
    return _co_raw(_co_mul(_raw_co(x), _raw_co(y), gens))


def raw_neg(x):
    """Negative of a nonzero raw entry."""
    if x.__class__ is tuple:
        return qi_neg(x)
    return _co_neg(x)


def raw_inv(x, gens):
    if x.__class__ is tuple:
        return qi_inv(x)
    return _co_raw(_co_inv(x, gens))


def _raw_prod_into(acc: dict, f, x, gens):
    """Add f*x into acc, a mask -> unnormalized (a, b, d) accumulator.

    s_j^2 folds in as the triple of d_j when d_j lies in Q(i); only a
    radicand above Q(i) goes through _co_mul."""
    for m1, (a1, b1, d1) in (((0, f),) if f.__class__ is tuple
                             else f.items()):
        for m2, (a2, b2, d2) in (((0, x),) if x.__class__ is tuple
                                 else x.items()):
            a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
            m = m1 ^ m2
            common = m1 & m2
            j = 0
            while common:
                if common & 1:
                    r = gens[j].co
                    t = r.get(0) if len(r) == 1 else None
                    if t is None:
                        break   # a radicand above Q(i)
                    ta, tb, td = t
                    a, b, d = a * ta - b * tb, a * tb + b * ta, d * td
                common >>= 1
                j += 1
            if common:
                term = {m: qi_make(a, b, d)}
                while common:
                    if common & 1:
                        term = _co_mul(term, gens[j].co, gens)
                    common >>= 1
                    j += 1
                terms = term.items()
            else:
                terms = ((m, (a, b, d)),)
            for m, (a, b, d) in terms:
                p = acc.get(m)
                if p is not None:
                    pa, pb, pd = p
                    if pd == d:
                        a, b = pa + a, pb + b
                    else:
                        a, b, d = pa * d + a * pd, pb * d + b * pd, pd * d
                acc[m] = (a, b, d)


def raw_dot(pairs, gens):
    """Raw sum of f*x over (f, x) pairs of nonzero raw entries,
    normalized once at the end; None when it is zero."""
    a = b = 0
    d = 1
    acc = None
    for f, x in pairs:
        if f.__class__ is tuple and x.__class__ is tuple:
            a1, b1, d1 = f
            a2, b2, d2 = x
            pa, pb, pd = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
            if pd == d:
                a, b = a + pa, b + pb
            else:
                a, b, d = a * pd + pa * d, b * pd + pb * d, d * pd
        else:
            if acc is None:
                acc = {}
            _raw_prod_into(acc, f, x, gens)
    if acc is None:
        return qi_make(a, b, d) if a or b else None
    if a or b:   # the Q(i) products join at mask 0
        _raw_prod_into(acc, (a, b, d), QI_ONE, gens)
    return _co_raw({m: qi_make(a, b, d) for m, (a, b, d) in acc.items()
                    if a or b})


def raw_submul(cur, f, x, gens):
    """Raw cur - f*x, with cur None standing for zero; None when the
    result is zero.  Above Q(i) f*x is accumulated by mask and subtracted
    from one copy of cur."""
    if f.__class__ is tuple and x.__class__ is tuple:
        a1, b1, d1 = f
        a2, b2, d2 = x
        pa, pb, pd = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
        if cur is None:
            return qi_make(-pa, -pb, pd)
        if cur.__class__ is tuple:
            a, b, d = cur
            a, b = a * pd - pa * d, b * pd - pb * d
            if a == 0 and b == 0:
                return None
            return qi_make(a, b, d * pd)
    prod: dict = {}
    _raw_prod_into(prod, f, x, gens)
    out = {} if cur is None else dict(_raw_co(cur))
    for m, (a, b, d) in prod.items():
        c = out.get(m)
        if c is not None:
            a1, b1, d1 = c
            a, b, d = a * d1 - a1 * d, b * d1 - b1 * d, d * d1
        if a or b:
            out[m] = qi_make(-a, -b, d)
        elif c is not None:
            del out[m]
    return _co_raw(out)


# -- reduction modulo a prime -------------------------------------------------
#
# Primes p = 1 (mod 8) below 2^30: -1 and 2 are squares mod p, and residues
# and their products stay small machine-size integers.

MOD_P_PRIMES = (
    1073741689, 1073741561, 1073741441, 1073741329, 1073740793, 1073740697,
    1073740649, 1073740609, 1073740537, 1073740529, 1073740489, 1073740249,
    1073740201, 1073740177, 1073740049, 1073739937, 1073739881, 1073739817,
    1073739721, 1073739649, 1073739617, 1073739577, 1073739473, 1073739449,
    1073739361, 1073739353, 1073739313, 1073739169, 1073739089, 1073739041,
    1073738977, 1073738929)


def _sqrt_mod(a: int, p: int) -> int | None:
    """The smaller square root of a modulo the odd prime p (Tonelli-Shanks),
    or None unless a is a nonzero square mod p."""
    a %= p
    if a == 0 or pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


class ModP:
    """A reduction of the tower modulo the prime p: i maps to iota and s_j
    to sigma_j, with iota^2 = -1 and sigma_j^2 = red(d_j) != 0 mod p.

    It is defined on the p-integral scalars, those whose Q(i) coefficients
    have denominators prime to p.  They form a subring holding every d_j,
    and on it the map is a ring homomorphism onto F_p: it is the map of
    polynomials in i, s_1, ..., s_k with p-integral coefficients, and it
    kills each relation s_j^2 - d_j.  So p-integral vectors are at least
    as independent over the tower as their reductions are over F_p (a
    minor that is nonzero mod p reduces from a nonzero minor): reduction
    proves rank lower bounds, never upper ones."""

    __slots__ = ("p", "iota", "sigmas", "mono")

    def __init__(self, p: int, iota: int, sigmas: tuple, mono: list):
        self.p = p
        self.iota = iota
        self.sigmas = sigmas
        self.mono = mono   # mask -> residue of prod_{j in mask} s_j

    @property
    def height(self) -> int:
        return len(self.sigmas)

    def extended(self, gens) -> ModP | None:
        """This reduction extended over every radicand of gens past its
        height; None when one of them reduces to zero or to a non-square
        (or is not p-integral)."""
        red = self
        for d in gens[self.height:]:
            r = red.raw(raw_of(d))
            sigma = None if r is None else _sqrt_mod(r, self.p)
            if sigma is None:
                return None
            red = ModP(self.p, self.iota, red.sigmas + (sigma,),
                       red.mono + [x * sigma % self.p for x in red.mono])
        return red

    def _qi(self, q) -> int | None:
        a, b, d = q
        p = self.p
        if d == 1:
            return (a + b * self.iota) % p
        if d % p == 0:
            return None
        return (a + b * self.iota) * pow(d, -1, p) % p

    def raw(self, x) -> int | None:
        """Residue of a nonzero raw entry; None when x is not p-integral."""
        if x.__class__ is tuple:
            return self._qi(x)
        total = 0
        mono = self.mono
        for m, q in x.items():
            r = self._qi(q)
            if r is None:
                return None
            total += r * mono[m]
        return total % self.p

    def scalar(self, x: Scalar) -> int | None:
        """Residue of a scalar; None when it is not p-integral."""
        return self.raw(x.co) if x.co else 0


class Scalar:
    """Immutable element of a Tower; hashable, pure-value semantics.

    +, - and * of two Q(i) scalars of one tower compute the triple
    directly; everything else goes through the coefficient dicts."""

    __slots__ = ("tower", "co", "_hash")

    def __init__(self, tower: Tower, co: dict):
        self.tower = tower
        self.co = co
        self._hash = None

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.co

    @property
    def is_rational(self) -> bool:
        if not self.co:
            return True
        if set(self.co) != {0}:
            return False
        return self.co[0][1] == 0

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; ValueError unless it is rational.
        Public API: the Fraction-based test oracles read exact values
        through it."""
        if not self.co:
            return Fraction(0)
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        a, _, d = self.co[0]
        return Fraction(a, d)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.tower is not self.tower:
                raise ValueError("mixing scalars from different towers")
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower._coerce(other)
        return None

    def _qi_pair(self, other):
        """The two triples when both operands are Q(i) scalars of one
        tower, else None."""
        if other.__class__ is Scalar and other.tower is self.tower:
            c1, c2 = self.co, other.co
            if len(c1) == 1 and len(c2) == 1:
                x, y = c1.get(0), c2.get(0)
                if x is not None and y is not None:
                    return x, y
        return None

    def __add__(self, other):
        qq = self._qi_pair(other)
        if qq is not None:
            s = qi_add(*qq)
            return Scalar(self.tower, {0: s} if s[0] or s[1] else {})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.tower, _co_add(self.co, o.co))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.tower, _co_neg(self.co))

    def __sub__(self, other):
        qq = self._qi_pair(other)
        if qq is not None:
            s = qi_sub(*qq)
            return Scalar(self.tower, {0: s} if s[0] or s[1] else {})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.tower, _co_add(self.co, _co_neg(o.co)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.tower, _co_add(o.co, _co_neg(self.co)))

    def __mul__(self, other):
        qq = self._qi_pair(other)
        if qq is not None:
            return Scalar(self.tower, {0: qi_mul(*qq)})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.co or not o.co:
            return Scalar(self.tower, {})
        return Scalar(self.tower, _co_mul(self.co, o.co, self.tower.gens))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * Scalar(self.tower, _co_inv(o.co, self.tower.gens))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * Scalar(self.tower, _co_inv(self.co, self.tower.gens))

    def inv(self) -> Scalar:
        return Scalar(self.tower, _co_inv(self.co, self.tower.gens))

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.tower.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.tower._coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.co == other.co

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.co.items())))
        return self._hash

    def sort_key(self):
        return tuple(sorted(self.co.items()))

    # -- display ----------------------------------------------------------

    def __str__(self):
        if not self.co:
            return "0"
        parts = []
        for m in sorted(self.co):
            q = qi_str(self.co[m])
            if m == 0:
                parts.append(q)
            else:
                mono = "*".join(self.tower.gen_name(j)
                                for j in range(m.bit_length()) if m >> j & 1)
                parts.append(f"({q})*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Parsing of exact scalar strings: "p/q", "a+b*i", "-3/4*i", ...
# ---------------------------------------------------------------------------


def scalar_from_json(tower: Tower, x) -> Scalar:
    """A scalar given in JSON input: an exact string such as "3/2+i", or
    an integer.  A boolean is refused, although Python counts it as an
    int, and so is a float, which is not exact."""
    if isinstance(x, str):
        return parse_scalar(tower, x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"a scalar must be a string or an integer, "
                         f"not {x!r}")
    return tower.from_int(x)


def parse_scalar(tower: Tower, text: str) -> Scalar:
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    # split into signed terms
    terms = []
    cur = ""
    for idx, ch in enumerate(s):
        if ch in "+-" and idx > 0 and s[idx - 1] not in "+-/*":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    total = tower.zero()
    for t in terms:
        if not t or t in "+-":
            raise ValueError(f"malformed scalar string {text!r}")
        neg = t.startswith("-")
        t = t.lstrip("+-")
        imag = False
        if t.endswith("i"):
            imag = True
            t = t[:-1]
            if t.endswith("*"):
                t = t[:-1]
            if t == "":
                t = "1"
        try:
            fr = Fraction(t)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed scalar string {text!r}") from exc
        if neg:
            fr = -fr
        term = tower.from_qi(0, fr.numerator, fr.denominator) if imag \
            else tower.from_fraction(fr)
        total = total + term
    return total
