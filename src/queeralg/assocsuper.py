"""Associative superalgebras given by structure constants.

Covers the full matrix superalgebra M(m|n), the queer algebra Q(m),
Clifford superalgebras of quadratic pairs, the classification of graded
simple algebras into types M and Q, the irreducible Clifford module, and
the span-closure density oracle used to certify irreducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import isqrt

from .graded import (EVEN, ODD, GradedMap, GradedSpace, Span, _table_product,
                     add_entries, graded_tensor, homogeneous_entries,
                     mat_kernel, odd_schur, solve_columns, tensor_space)
from .scalars import (QI_ONE, Tower, qi_add, qi_inv, qi_mul, qi_neg, qi_sqrt,
                      raw_dot, raw_of)


class AssocSuper:
    """Associative unital superalgebra on a homogeneous basis.

    mult[i][j] is the sparse coordinate dict of e_i * e_j; unit is a
    coordinate dict.
    """

    def __init__(self, tower: Tower, space: GradedSpace, mult, unit: dict,
                 name: str = ""):
        self.tower = tower
        self.space = space
        self.mult = mult
        self.unit = unit
        self.name = name

    @property
    def dim(self) -> int:
        return self.space.dim

    def product(self, u: dict, v: dict) -> dict:
        return _table_product(self.mult, u, v)

    def check(self, triples="all"):
        """Exact unit, parity and associativity sweep; raises on failure.

        triples may be "all" or an iterable of (i, j, k) index triples.
        """
        one = self.tower.one()
        for i in range(self.dim):
            if self.product(self.unit, {i: one}) != {i: one} or \
                    self.product({i: one}, self.unit) != {i: one}:
                raise AssertionError("unit law fails")
        for i in range(self.dim):
            pi = self.space.parity(i)
            for j in range(self.dim):
                p = (pi + self.space.parity(j)) % 2
                for k in self.mult[i][j]:
                    if self.space.parity(k) != p:
                        raise AssertionError("multiplication violates parity")
        if triples == "all":
            triples = ((i, j, k) for i in range(self.dim)
                       for j in range(self.dim) for k in range(self.dim))
        for i, j, k in triples:
            ei, ej, ek = {i: one}, {j: one}, {k: one}
            lhs = self.product(self.product(ei, ej), ek)
            rhs = self.product(ei, self.product(ej, ek))
            if lhs != rhs:
                raise AssertionError(f"associativity fails at ({i},{j},{k})")

    def __repr__(self):
        return f"AssocSuper({self.name or self.space!r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# Matrix superalgebras
# ---------------------------------------------------------------------------


def make_M(tower: Tower, m: int, n: int) -> AssocSuper:
    """Full matrix superalgebra M(m|n) in the block basis."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1, n >= 0")
    d = m + n
    entries_even = [(i, j) for i in range(d) for j in range(d)
                    if (i < m) == (j < m)]
    entries_odd = [(i, j) for i in range(d) for j in range(d)
                   if (i < m) != (j < m)]
    entries = entries_even + entries_odd
    idx = {e: k for k, e in enumerate(entries)}
    labels = tuple(f"E[{i + 1},{j + 1}]" for i, j in entries)
    space = GradedSpace(len(entries_even), len(entries_odd), labels)
    one = tower.one()
    mult = [[{} for _ in entries] for _ in entries]
    for a, (i, j) in enumerate(entries):
        for b, (k, l) in enumerate(entries):
            if j == k:
                mult[a][b] = {idx[(i, l)]: one}
    unit = {idx[(i, i)]: one for i in range(d)}
    return AssocSuper(tower, space, mult, unit, name=f"M({m}|{n})")


def make_Q(tower: Tower, m: int) -> AssocSuper:
    """Queer superalgebra Q(m): matrices with equal diagonal blocks A and
    equal antidiagonal blocks B; basis = diag-pairs then antidiag-pairs."""
    if m < 1:
        raise ValueError("need m >= 1")
    pairs = [(i, j) for i in range(m) for j in range(m)]
    idx_even = {p: k for k, p in enumerate(pairs)}
    idx_odd = {p: k + m * m for k, p in enumerate(pairs)}
    labels = tuple(f"D[{i + 1},{j + 1}]" for i, j in pairs) + \
        tuple(f"A[{i + 1},{j + 1}]" for i, j in pairs)
    space = GradedSpace(m * m, m * m, labels)
    one = tower.one()
    dim = 2 * m * m
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    # (A,B)(A',B') = (AA'+BB', AB'+BA') on the pair representation
    for (i, j), a in idx_even.items():
        for (k, l), b in idx_even.items():
            if j == k:
                mult[a][b] = {idx_even[(i, l)]: one}
    for (i, j), a in idx_even.items():
        for (k, l), b in idx_odd.items():
            if j == k:
                mult[a][b] = {idx_odd[(i, l)]: one}
    for (i, j), a in idx_odd.items():
        for (k, l), b in idx_even.items():
            if j == k:
                mult[a][b] = {idx_odd[(i, l)]: one}
    for (i, j), a in idx_odd.items():
        for (k, l), b in idx_odd.items():
            if j == k:
                mult[a][b] = {idx_even[(i, l)]: one}
    unit = {idx_even[(i, i)]: one for i in range(m)}
    return AssocSuper(tower, space, mult, unit, name=f"Q({m})")


def assoc_tensor(a: AssocSuper, b: AssocSuper) -> AssocSuper:
    """Graded tensor product of superalgebras:
    (a1 (x) b1)(a2 (x) b2) = (-1)^{|a2||b1|} a1 a2 (x) b1 b2."""
    tower = a.tower
    space, idx = tensor_space(a.space, b.space)
    dim = space.dim
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(a.dim):
        for j in range(b.dim):
            r = idx[(i, j)]
            pj = b.space.parity(j)
            for k in range(a.dim):
                sgn = -1 if (pj and a.space.parity(k)) else 1
                prod_a = a.mult[i][k]
                if not prod_a:
                    continue
                for l in range(b.dim):
                    c = idx[(k, l)]
                    prod_b = b.mult[j][l]
                    if not prod_b:
                        continue
                    out = {}
                    for x, sx in prod_a.items():
                        for y, sy in prod_b.items():
                            s = sx * sy
                            if sgn < 0:
                                s = -s
                            if not s.is_zero:
                                out[idx[(x, y)]] = s
                    mult[r][c] = out
    unit = {}
    for x, sx in a.unit.items():
        for y, sy in b.unit.items():
            unit[idx[(x, y)]] = sx * sy
    return AssocSuper(tower, space, mult, unit,
                      name=f"{a.name}(x){b.name}")


# ---------------------------------------------------------------------------
# Clifford superalgebras
# ---------------------------------------------------------------------------


@dataclass
class QuadraticPair:
    """Symmetric bilinear form on an r-dimensional space of odd generators."""

    tower: Tower
    rows: list  # r x r symmetric matrix of Scalars

    def __post_init__(self):
        r = len(self.rows)
        for i in range(r):
            if len(self.rows[i]) != r:
                raise ValueError("form matrix is not square")
            for j in range(r):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("form matrix is not symmetric")

    @property
    def r(self) -> int:
        return len(self.rows)

    def radical_dim(self) -> int:
        if self.r == 0:
            return 0
        return len(mat_kernel([{j: x for j, x in enumerate(row) if x.co}
                               for row in self.rows], self.r, self.tower))


def _cliff_mul_gen(mask: int, g: int, f_rows, tower: Tower) -> dict:
    """x_mask * x_g with the relation x_i x_j + x_j x_i = 2 f(x_i, x_j)."""
    if mask == 0 or mask.bit_length() - 1 < g:
        return {mask | (1 << g): tower.one()}
    h = mask.bit_length() - 1
    rest = mask ^ (1 << h)
    if h == g:
        c = f_rows[g][g]
        return {rest: c} if not c.is_zero else {}
    terms = [(m2 | (1 << h), -c)
             for m2, c in _cliff_mul_gen(rest, g, f_rows, tower).items()]
    c2 = 2 * f_rows[h][g]
    if c2.co:
        terms.append((rest, c2))
    return add_entries({}, terms)


def straighten(word, f_rows, tower: Tower) -> dict:
    """Expand an arbitrary generator word into the sorted monomial basis."""
    terms = {0: tower.one()}
    for g in word:
        terms = add_entries({}, (
            (m2, c * c2) for mask, c in terms.items()
            for m2, c2 in _cliff_mul_gen(mask, g, f_rows, tower).items()))
    return terms


def _mask_bits(mask: int):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def clifford(q: QuadraticPair) -> AssocSuper:
    """Clifford superalgebra of (V, f): dimension 2^r, odd generators,
    relations x_i x_j + x_j x_i = 2 f(x_i, x_j) (so x^2 = f(x, x))."""
    tower = q.tower
    r = q.r
    masks = sorted(range(1 << r), key=lambda m: (bin(m).count("1") % 2, m))
    pos = {m: k for k, m in enumerate(masks)}
    n_even = sum(1 for m in masks if bin(m).count("1") % 2 == 0)
    labels = tuple("1" if m == 0 else
                   "".join(f"x{j + 1}" for j in _mask_bits(m)) for m in masks)
    space = GradedSpace(n_even, (1 << r) - n_even, labels)
    dim = 1 << r
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for a, ma in enumerate(masks):
        for b, mb in enumerate(masks):
            terms = straighten(_mask_bits(ma) + _mask_bits(mb), q.rows, tower)
            mult[a][b] = {pos[m]: c for m, c in terms.items()}
    unit = {0: tower.one()}
    alg = AssocSuper(tower, space, mult, unit, name=f"C({r})")
    alg.generator_indices = [pos[1 << j] for j in range(r)]
    alg.form = q
    return alg


# ---------------------------------------------------------------------------
# Centers and the type M / type Q classification
# ---------------------------------------------------------------------------


def _ungraded_center_vectors(a: AssocSuper, parity: int):
    """Coordinate dicts spanning Z(|A|) intersected with the given parity
    (strict commutation with every basis element; commuting with a
    generating set suffices when the algebra advertises one)."""
    tower = a.tower
    cols = [i for i in range(a.dim) if a.space.parity(i) == parity]
    if not cols:
        return []
    gen_set = getattr(a, "generator_indices", None)
    probes = list(gen_set) if gen_set else list(range(a.dim))
    rows = []
    for k in probes:
        per_col = []
        for i in cols:
            per_col.append(add_entries(dict(a.mult[i][k]), (
                (out, -s) for out, s in a.mult[k][i].items())))
        for o in sorted({o for d in per_col for o in d}):
            rows.append({c: d[o] for c, d in enumerate(per_col) if o in d})
    return [{cols[c]: x for c, x in kv.items()}
            for kv in mat_kernel(rows, len(cols), tower)]


def odd_center(a: AssocSuper):
    """Basis of Z(|A|)_odd as (GradedSpace, coordinate dicts)."""
    vecs = _ungraded_center_vectors(a, ODD)
    return GradedSpace(0, len(vecs)), vecs


def even_center(a: AssocSuper):
    vecs = _ungraded_center_vectors(a, EVEN)
    return GradedSpace(len(vecs), 0), vecs


def trace_form_kernel(a: AssocSuper) -> list:
    """Basis of the radical of the trace form (x, y) -> tr(L_x L_y), as
    mat_kernel gives it; empty exactly when the underlying algebra is
    semisimple (characteristic zero).  The Gram rows are sparse."""
    tower = a.tower
    lmats = []
    for i in range(a.dim):
        sparse = {}
        for j in range(a.dim):
            for k, s in a.mult[i][j].items():
                sparse.setdefault(k, {})[j] = s
        lmats.append(sparse)
    gram = []
    for li in lmats:
        row = {}
        for j, lj in enumerate(lmats):
            acc = tower.zero()
            for p, lrow in li.items():
                for q, x in lrow.items():
                    y = lj.get(q, {}).get(p)
                    if y is not None:
                        acc = acc + x * y
            if acc.co:
                row[j] = acc
        gram.append(row)
    return mat_kernel(gram, a.dim, tower)


@dataclass(frozen=True)
class SimpleType:
    kind: str  # "M", "Q" or "not_simple"
    m: int = 0
    n: int = 0

    def __repr__(self):
        if self.kind == "M":
            return f"TypeM({self.m},{self.n})"
        if self.kind == "Q":
            return f"TypeQ({self.m})"
        return "NotSimple"


NOT_SIMPLE = SimpleType("not_simple")


def classify_simple(a: AssocSuper) -> SimpleType:
    """Decide graded simplicity and the normal form.

    A finite-dimensional superalgebra over a characteristic-zero field is
    graded simple iff the underlying algebra is semisimple and the even
    part of its ungraded center is one-dimensional (graded ideals are the
    parity-stable sums of Wedderburn blocks).  Simple algebras split into
    type Q (nonzero odd center) and type M.  Since M(m|n) and M(n|m) are
    isomorphic superalgebras, type M is reported with m >= n.
    """
    if trace_form_kernel(a):
        return NOT_SIMPLE
    _, z0 = even_center(a)
    if len(z0) != 1:
        return NOT_SIMPLE
    _, z1 = odd_center(a)
    if z1:
        m = _exact_isqrt(a.dim // 2) if a.dim % 2 == 0 else None
        if m is None or 2 * m * m != a.dim:
            raise ValueError("simple algebra with odd center has dimension "
                             f"{a.dim}, not of the form 2m^2")
        return SimpleType("Q", m)
    s = _exact_isqrt(a.dim)
    if s is None:
        raise ValueError(f"simple type-M algebra of non-square dimension {a.dim}")
    odd_dim = a.space.odd_dim
    if odd_dim % 2 != 0:
        raise ValueError("type-M algebra with odd part of odd dimension")
    t = _exact_isqrt(s * s - 2 * odd_dim)
    if t is None or (s + t) % 2 != 0:
        raise ValueError("dimensions inconsistent with M(m|n) normal form")
    return SimpleType("M", (s + t) // 2, (s - t) // 2)


def _exact_isqrt(n: int):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


# ---------------------------------------------------------------------------
# The irreducible Clifford module
# ---------------------------------------------------------------------------


def clifford_generators(q: QuadraticPair, pivot_order=None):
    """The irreducible module of the Clifford superalgebra of a
    nondegenerate pair, of dimension 2^ceil(r/2), by its generators.

    Returns (carrier, generator_maps): the carrier space and the action
    of x_1, ..., x_r.  The form is diagonalized by congruence, z = P x, and
    hyperbolic planes are split off the orthogonal lines z_k (a Witt
    decomposition; `_witt_split`).  Each plane (u, w) with u^2 = w^2 = 0
    and B(u, w) = 1 is one mode of an exterior-algebra model: u acts as
    the creation operator c and w as 2a, where a is the annihilation
    operator (ca + ac = 1), with entries in the field of the form.  The
    anisotropic lines left over are paired as before: a pair of lines
    with squares a, b is one mode, on which they act as c + a*a and
    (c - a*a)/t with t^2 = -a/b (the only square roots adjoined).  For
    odd r the last line, of square d, is tensored in through the rank-one
    Clifford module C^{1|1}, where it acts by [[0, d], [1, 0]].  Then
    x = M^{-1} y, where the rows of M are the model basis over x (M = P
    when no plane splits off).  pivot_order permutes the diagonalization
    pivots (used to exhibit uniqueness up to isomorphism).  The Clifford
    relations x_i x_j + x_j x_i = 2 f_ij are checked exactly on the
    carrier (AssertionError otherwise); the algebra itself is never built.
    """
    tower = q.tower
    r = q.r
    # P f P^T = diag(d), P invertible: f is degenerate iff some d_k is 0
    p_rows, diag = _congruence_diagonalize(q, pivot_order)
    if any(d.is_zero for d in diag):
        raise ValueError("form is degenerate; no irreducible Clifford module")
    planes, lines = _witt_split(tower, list(zip(p_rows, diag)))

    k = r // 2
    lam_space, create, annihilate = _exterior_model(tower, k)
    basis, y_mats = [], []   # the model basis over x and its action
    for jj, (u, w) in enumerate(planes):
        basis += [u, w]
        y_mats += [create[jj], annihilate[jj] * 2]
    # pair (z1, z2) with z1^2 = a, z2^2 = b: with t^2 = -a/b,
    # z1 acts as C + a A and z2 as (C - a A)/t on the pair's mode
    for jj in range(len(planes), k):
        (z1, a), (z2, b) = lines[:2]
        lines = lines[2:]
        t = tower.adjoin_sqrt(-a / b)
        c_op, a_op = create[jj], annihilate[jj]
        basis += [z1, z2]
        y_mats += [c_op + a_op * a, (c_op - a_op * a) * t.inv()]
    if r % 2 == 1:
        (z, d), = lines
        c11 = GradedSpace(1, 1)
        x11 = GradedMap(tower, c11, c11, {(0, 1): d, (1, 0): tower.one()},
                        parity=ODD)
        id11 = GradedMap.identity(tower, c11)
        idlam = GradedMap.identity(tower, lam_space)
        basis.append(z)
        y_mats = [graded_tensor(y, id11) for y in y_mats]
        y_mats.append(graded_tensor(idlam, x11))
        carrier = y_mats[0].target
    else:
        carrier = lam_space

    # original generators: x = M^{-1} y; row i of M^{-1} solves
    # M^T v = e_i
    one = tower.one()
    mt = [{i: v[j] for i, v in enumerate(basis) if v[j].co} for j in range(r)]
    minv = solve_columns(mt, [{i: one} for i in range(r)], r, tower)
    gen_mats = [GradedMap.combination(tower, carrier, carrier,
                                      ((c, y_mats[j]) for j, c in row.items()))
                for row in minv]
    _check_clifford_relations(q, gen_mats)
    return carrier, gen_mats


# the pairs (c, c^2) of the isotropic-vector search: c runs over the 24
# nonzero Gaussian integers with |Re|, |Im| <= 2 up to sign (c and -c give
# the same c^2)
_SEARCH_C = tuple(((a, b, 1), qi_mul((a, b, 1), (a, b, 1)))
                  for a in range(3) for b in range(-2, 3) if a > 0 or b > 0)


def _find_isotropic(vals):
    """A small isotropic combination of orthogonal lines z_n with squares
    vals[n], or None.  Only the values in Q(i) (raw triples) take part.

    Returns (k, [(i, c_i), ...]), for the isotropic vector
    z_k + sum c_i z_i, with raw coefficients: first a pair,
    c_i^2 = -vals[k]/vals[i]; else a triple, vals[i] c_i^2 + vals[j] c_j^2
    + vals[k] = 0, with c_i in _SEARCH_C and c_j solved for.  A bounded
    search: a miss only means that fewer planes split off.  A candidate
    c_j^2 = -num/vals[j] is tested for a square root only when its norm,
    the square of a square root's norm, is a square in Q: exactly when
    (a^2 + b^2)(a_j^2 + b_j^2) is one, for the numerators a + bi of num
    and a_j + b_j i of vals[j] (the denominators enter the norm squared)."""
    qi = [(n, x) for n, x in enumerate(vals) if x.__class__ is tuple]
    for (i, di), (k, dk) in combinations(qi, 2):
        c = qi_sqrt(qi_neg(qi_mul(dk, qi_inv(di))))
        if c is not None:
            return k, [(i, c)]
    if len(qi) < 3:
        return None
    for k, dk in qi:
        for i, di in qi:
            if i == k:
                continue
            nums = []
            for c, c2 in _SEARCH_C:
                num = qi_add(qi_mul(di, c2), dk)
                nums.append((c, num, num[0] * num[0] + num[1] * num[1]))
            for j, dj in qi:
                if j == i or j == k:
                    continue
                norm_j = dj[0] * dj[0] + dj[1] * dj[1]
                m = qi_neg(qi_inv(dj))
                for c, num, norm in nums:
                    if _exact_isqrt(norm * norm_j) is None:
                        continue
                    cj = qi_sqrt(qi_mul(num, m))
                    if cj is not None:
                        return k, [(i, c), (j, cj)]
    return None


def _witt_split(tower: Tower, lines):
    """Split hyperbolic planes off an orthogonal list of lines (vector,
    square), as long as _find_isotropic finds an isotropic vector.

    Returns (planes, lines): planes (u, w) with u^2 = w^2 = 0 and
    B(u, w) = 1, and the lines left, orthogonal to each other and to the
    planes, in their order.  For u = z_k + sum c_i z_i isotropic, with
    z_k of square d_k, w = (z_k - sum c_i z_i)/(2 d_k): w^2 = 0, and
    B(u, w) = (d_k - sum c_i^2 d_i)/(2 d_k) = 1.  A pair spans its plane.
    The rest of a triple (c_i, c_j) is the line c_j d_j z_i - c_i d_i z_j,
    of square -d_i d_j d_k, which takes part in the search that
    follows."""
    planes = []

    def comb(terms):
        return [sum((c * v[n] for c, v in terms), tower.zero())
                for n in range(len(terms[0][1]))]

    while True:
        found = _find_isotropic([raw_of(d) for _, d in lines])
        if found is None:
            return planes, lines
        k, coeffs = found
        zk, dk = lines[k]
        inv = (dk * 2).inv()
        terms = [(tower.from_qi(*c), lines[i]) for i, c in coeffs]
        planes.append((comb([(c, z) for c, (z, _) in terms] + [(1, zk)]),
                       comb([(-c * inv, z) for c, (z, _) in terms]
                            + [(inv, zk)])))
        rest = []
        if len(terms) == 2:
            (ci, (zi, di)), (cj, (zj, dj)) = terms
            rest = [(comb([(cj * dj, zi), (-ci * di, zj)]), -di * dj * dk)]
        used = {k} | {i for i, _ in coeffs}
        lines = [ln for n, ln in enumerate(lines) if n not in used] + rest


def _check_clifford_relations(q: QuadraticPair, gen_mats):
    """x_i x_j + x_j x_i == 2 f_ij * id for all i <= j, exactly (on raw
    sparse matrices, each entry one raw_dot)."""
    gens = q.tower.gens
    n = gen_mats[0].source.dim if gen_mats else 0
    xs = [_raw_mat(m.entries) for m in gen_mats]
    for i in range(q.r):
        for j in range(i, q.r):
            if i == j:   # x_i^2 = f_ii
                anti = _raw_products(((xs[i], xs[i]),), gens)
                f = raw_of(q.rows[i][i])
            else:
                anti = _raw_products(((xs[i], xs[j]), (xs[j], xs[i])), gens)
                f = raw_of(2 * q.rows[i][j])
            if anti != ({p: {p: f} for p in range(n)} if f else {}):
                raise AssertionError("Clifford relation fails at "
                                     f"generators ({i},{j})")


def _congruence_diagonalize(q: QuadraticPair, pivot_order=None):
    """Return (P, diag) with P f P^T diagonal; pivots on the first nonzero
    diagonal entry, else symmetrizes an off-diagonal pair."""
    tower = q.tower
    r = q.r
    order = list(pivot_order) if pivot_order is not None else list(range(r))
    if sorted(order) != list(range(r)):
        raise ValueError("pivot_order must be a permutation of range(r)")
    m = [[q.rows[order[i]][order[j]] for j in range(r)] for i in range(r)]
    p = [[tower.one() if order[i] == j else tower.zero() for j in range(r)]
         for i in range(r)]

    def row_op(dst, src, c):
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        for i in range(r):
            m[i][dst] = m[i][dst] + c * m[i][src]
        p[dst] = [x + c * y for x, y in zip(p[dst], p[src])]

    def swap(a, b):
        m[a], m[b] = m[b], m[a]
        for i in range(r):
            m[i][a], m[i][b] = m[i][b], m[i][a]
        p[a], p[b] = p[b], p[a]

    for kk in range(r):
        piv = None
        for l in range(kk, r):
            if not m[l][l].is_zero:
                piv = l
                break
        if piv is None:
            found = None
            for l in range(kk, r):
                for jj in range(l + 1, r):
                    if not m[l][jj].is_zero:
                        found = (l, jj)
                        break
                if found:
                    break
            if found is None:
                break  # remaining block is zero (degenerate form)
            l, jj = found
            row_op(l, jj, tower.one())
            piv = l
        if piv != kk:
            swap(kk, piv)
        d = m[kk][kk]
        for l in range(kk + 1, r):
            if not m[l][kk].is_zero:
                row_op(l, kk, -m[l][kk] / d)
    diag = [m[i][i] for i in range(r)]
    return p, diag


def _exterior_model(tower: Tower, k: int):
    """Exterior algebra on k modes: creation/annihilation GradedMaps with
    a_j adag_j + adag_j a_j = id, parity odd, basis = subsets (even degree
    first)."""
    subsets = sorted(range(1 << k), key=lambda s: (bin(s).count("1") % 2, s))
    pos = {s: i for i, s in enumerate(subsets)}
    n_even = sum(1 for s in subsets if bin(s).count("1") % 2 == 0)
    labels = tuple("w" + "".join(str(j + 1) for j in _mask_bits(s)) if s else "w0"
                   for s in subsets)
    space = GradedSpace(n_even, (1 << k) - n_even, labels)
    one = tower.one()
    create, annihilate = [], []
    for j in range(k):
        bit = 1 << j
        c_ent, a_ent = {}, {}
        for s in subsets:
            below = bin(s & (bit - 1)).count("1")
            sgn = -one if below % 2 else one
            if not s & bit:
                c_ent[(pos[s | bit], pos[s])] = sgn
            else:
                a_ent[(pos[s ^ bit], pos[s])] = sgn
        create.append(GradedMap(tower, space, space, c_ent, parity=ODD))
        annihilate.append(GradedMap(tower, space, space, a_ent, parity=ODD))
    return space, create, annihilate


# ---------------------------------------------------------------------------
# Density oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityType:
    kind: str  # "full", "qcomm" or "smaller"
    closure_dim: int

    def __repr__(self):
        if self.kind == "smaller":
            return f"Smaller({self.closure_dim})"
        return self.kind.capitalize() if self.kind == "full" else "QComm"

    @property
    def certifies_irreducible(self) -> bool:
        return self.kind in ("full", "qcomm")


def _raw_mat(entries) -> dict:
    """Nonzero entries {(i, j): Scalar} as a raw sparse matrix
    {i: {j: raw}}."""
    out: dict = {}
    for (i, j), x in entries.items():
        out.setdefault(i, {})[j] = raw_of(x)
    return out


def _raw_products(factors, gens) -> dict:
    """Sum of the products A*B over the (A, B) pairs of raw sparse
    matrices, each entry one raw_dot."""
    terms: dict = {}
    for a, b in factors:
        for i, arow in a.items():
            ti = terms.setdefault(i, {})
            for k, av in arow.items():
                brow = b.get(k)
                if brow:
                    for j, bv in brow.items():
                        tij = ti.get(j)
                        if tij is None:
                            ti[j] = [(av, bv)]
                        else:
                            tij.append((av, bv))
    out = {}
    for i, ti in terms.items():
        ci = {}
        for j, pairs in ti.items():
            v = raw_dot(pairs, gens)
            if v is not None:
                ci[j] = v
        if ci:
            out[i] = ci
    return out


def _mod_p_product(a, b, p: int) -> dict:
    """A*B of sparse matrices {i: {j: residue}} over F_p, nonzero entries
    only."""
    out = {}
    for i, arow in a.items():
        acc: dict = {}
        for k, av in arow.items():
            brow = b.get(k)
            if brow:
                for j, bv in brow.items():
                    acc[j] = acc.get(j, 0) + av * bv
        row = {j: x % p for j, x in acc.items() if x % p}
        if row:
            out[i] = row
    return out


def _word_closure(mats, n: int, span: Span, one, product) -> int:
    """The closure of operator_closure_dim on sparse matrices {i: {j: x}}
    in the entry form of span (raw entries over the tower, residues over
    F_p), one being the unit entry and product the matrix product of that
    form; span.dim at the end."""
    full = n * n

    def flat(mat):
        return {i * n + j: v for i, row in mat.items() for j, v in row.items()}

    span.add(flat({i: {i: one} for i in range(n)}))
    # 1*g = g is already in V_0, so the identity needs no multiplying
    frontier = [m for m in mats if span.add(flat(m))]
    # an op that adds nothing lies in span(1, the ops kept before it)
    mults = frontier
    while frontier and span.dim < full:
        new_frontier = []
        for e in frontier:
            for g in mults:
                prod = product(e, g)
                if prod and span.add(flat(prod)):
                    if span.dim == full:
                        return full
                    new_frontier.append(prod)
        frontier = new_frontier
    return span.dim


def _closure_dim_mod_p(ops, n: int, tower: Tower):
    """The closure of operator_closure_dim run on the operators reduced
    modulo a prime (Tower.mod_p), a lower bound on the exact dimension
    (scalars.ModP); None when the tower or an entry has no reduction.
    Every vector of the F_p span is the reduction of a word in the
    operators, whose entries are p-integral like theirs, so as many words
    are independent over the tower."""
    red = tower.mod_p()
    if red is None:
        return None
    mats = []
    for op in ops:
        mat: dict = {}
        for (i, j), x in op.items():
            r = red.scalar(x)
            if r is None:
                return None
            if r:
                mat.setdefault(i, {})[j] = r
        mats.append(mat)
    p = red.p
    return _word_closure(mats, n, Span(tower, p=p), 1,
                         lambda e, g: _mod_p_product(e, g, p))


def _closure_dim_exact(ops, n: int, tower: Tower) -> int:
    """The closure of operator_closure_dim over the tower, on raw entries."""
    gens = tower.gens
    return _word_closure(map(_raw_mat, ops), n, Span(tower), QI_ONE,
                         lambda e, g: _raw_products(((e, g),), gens))


def operator_closure_dim(ops, dim: int, tower: Tower):
    """Dimension of the unital algebra generated by the operators (entry
    dicts {(i, j): Scalar} of nonzero entries, as GradedMap.entries, on
    K^dim).

    With S the ops, the algebra is the union of V_0 = span(1, S) and
    V_{k+1} = V_k + V_k*S: a word in S is a shorter word times one letter
    on the right.  So only e*g is formed, for e added at the last step
    (the rest of V_k was multiplied before) and g in S; the mirrored g*e
    is never needed.  A multiplier in span(1, earlier multipliers) adds
    no word, since e*(c + sum a_i g_i) = c e + sum a_i e*g_i is already
    in the span; such multipliers, for example operators that act by
    scalars, are dropped first.  The span lies in
    End(K^dim), so it is complete once it has dimension dim^2, and the
    loop stops there.

    The closure runs over F_p first (_closure_dim_mod_p): its dimension
    is a lower bound, so dim^2 there proves dim^2.  Otherwise it runs
    exactly, with the operators converted to raw entries once and the
    products and the span run on those."""
    if _closure_dim_mod_p(ops, dim, tower) == dim * dim:
        return dim * dim
    return _closure_dim_exact(ops, dim, tower)


def density_type_from_maps(maps, space: GradedSpace,
                           tower: Tower) -> DensityType:
    """Span-closure irreducibility oracle for the operators maps on space.

    Full: the operators generate all of End(V).  QComm: the carrier is
    C^{m|m}, the closure has dimension 2 m^2 and the odd supercommutant
    contains phi with phi^2 a nonzero scalar.  Both certify
    irreducibility over any extension field; otherwise Smaller(d).  Both
    the closure and the supercommutant depend only on the algebra the
    operators generate, so a generating set, such as the Clifford
    generators, stands for every operator it generates.

    The closure runs over F_p first, which bounds its dimension from
    below (_closure_dim_mod_p).  n^2 there is Full.  2 m^2 there, with
    the exact phi that odd_schur solves for, is QComm: the operators that
    supercommute with an odd phi with phi^2 = c != 0 form an algebra of
    dimension 2 m^2 (where c is a square, phi/sqrt(c) swaps the halves of
    C^{m|m}, and they are the even block matrices diag(A, A) and the odd
    ones with off-diagonal blocks B and -B), which holds the closure, so
    its dimension is exactly 2 m^2.  Only the other cases run the exact
    closure; every verdict and closure_dim is the exact one.
    """
    n, m = space.dim, space.even_dim
    ops = [mp.entries for mp in maps]
    d = _closure_dim_mod_p(ops, n, tower)
    if d == n * n:
        return DensityType("full", d)
    q_dim = None
    if space.odd_dim == m and all(mp.parity is not None for mp in maps):
        q_dim = 2 * m * m
    if q_dim is not None and d == q_dim:
        if odd_schur(homogeneous_entries(maps), space, tower) is not None:
            return DensityType("qcomm", d)
        q_dim = None   # no phi: QComm at no closure dimension
    d = _closure_dim_exact(ops, n, tower)
    if d == n * n:
        return DensityType("full", d)
    if d == q_dim and odd_schur(homogeneous_entries(maps), space,
                                tower) is not None:
        return DensityType("qcomm", d)
    return DensityType("smaller", d)
