"""Associative superalgebras given by structure constants.

Covers the full matrix superalgebra M(m|n), the queer algebra Q(m),
Clifford superalgebras of quadratic pairs, the classification of graded
simple algebras into types M and Q, the irreducible Clifford module, and
the span-closure density oracle used to certify irreducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graded import (EVEN, ODD, GradedMap, GradedSpace, Span, graded_tensor,
                     homogeneous_entries, mat_kernel, mat_rref, odd_schur,
                     tensor_space, zero_rows)
from .scalars import QI_ONE, Tower, raw_dot, raw_of


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
        out: dict = {}
        for i, a in u.items():
            row = self.mult[i]
            for j, b in v.items():
                c = a * b
                if c.is_zero:
                    continue
                for k, s in row[j].items():
                    t = out.get(k)
                    t = c * s if t is None else t + c * s
                    if t.is_zero:
                        out.pop(k, None)
                    else:
                        out[k] = t
        return out

    def left_mult_rows(self, u: dict):
        """Dense matrix of x -> u*x in the basis."""
        rows = zero_rows(self.tower, self.dim, self.dim)
        for j in range(self.dim):
            for k, s in self.product(u, {j: self.tower.one()}).items():
                rows[k][j] = s
        return rows

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
        return len(mat_kernel(self.rows, self.r, self.tower))


def _cliff_mul_gen(mask: int, g: int, f_rows, tower: Tower) -> dict:
    """x_mask * x_g with the relation x_i x_j + x_j x_i = 2 f(x_i, x_j)."""
    if mask == 0 or mask.bit_length() - 1 < g:
        return {mask | (1 << g): tower.one()}
    h = mask.bit_length() - 1
    rest = mask ^ (1 << h)
    if h == g:
        c = f_rows[g][g]
        return {rest: c} if not c.is_zero else {}
    out: dict = {}
    for m2, c in _cliff_mul_gen(rest, g, f_rows, tower).items():
        m3 = m2 | (1 << h)
        cur = out.get(m3)
        nxt = -c if cur is None else cur - c
        if nxt.is_zero:
            out.pop(m3, None)
        else:
            out[m3] = nxt
    c2 = 2 * f_rows[h][g]
    if not c2.is_zero:
        cur = out.get(rest)
        nxt = c2 if cur is None else cur + c2
        if nxt.is_zero:
            out.pop(rest, None)
        else:
            out[rest] = nxt
    return out


def straighten(word, f_rows, tower: Tower) -> dict:
    """Expand an arbitrary generator word into the sorted monomial basis."""
    terms = {0: tower.one()}
    for g in word:
        nxt: dict = {}
        for mask, c in terms.items():
            for m2, c2 in _cliff_mul_gen(mask, g, f_rows, tower).items():
                s = c * c2
                cur = nxt.get(m2)
                s = s if cur is None else cur + s
                if s.is_zero:
                    nxt.pop(m2, None)
                else:
                    nxt[m2] = s
        terms = nxt
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
        base = {ma: tower.one()}
        for b, mb in enumerate(masks):
            terms = dict(base)
            for g in _mask_bits(mb):
                nxt: dict = {}
                for mask, c in terms.items():
                    for m2, c2 in _cliff_mul_gen(mask, g, q.rows, tower).items():
                        s = c * c2
                        cur = nxt.get(m2)
                        s = s if cur is None else cur + s
                        if s.is_zero:
                            nxt.pop(m2, None)
                        else:
                            nxt[m2] = s
                terms = nxt
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
    """Coordinate vectors spanning Z(|A|) intersected with the given parity
    (strict commutation with every basis element; commuting with a
    generating set suffices when the algebra advertises one)."""
    tower = a.tower
    cols = [i for i in range(a.dim) if a.space.parity(i) == parity]
    if not cols:
        return []
    one = tower.one()
    gen_set = getattr(a, "generator_indices", None)
    probes = list(gen_set) if gen_set else list(range(a.dim))
    rows = []
    for k in probes:
        ek = {k: one}
        per_col = []
        for i in cols:
            ei = {i: one}
            diff = a.product(ei, ek)
            for out, s in a.product(ek, ei).items():
                cur = diff.get(out)
                nxt = -s if cur is None else cur - s
                if nxt.is_zero:
                    diff.pop(out, None)
                else:
                    diff[out] = nxt
            per_col.append(diff)
        outs = sorted({o for d in per_col for o in d})
        for o in outs:
            rows.append([d.get(o, tower.zero()) for d in per_col])
    vecs = []
    for kv in mat_kernel(rows, len(cols), tower):
        vec = [tower.zero()] * a.dim
        for c, i in enumerate(cols):
            vec[i] = kv[c]
        vecs.append(vec)
    return vecs


def odd_center(a: AssocSuper):
    """Basis of Z(|A|)_odd as (GradedSpace, coordinate vectors)."""
    vecs = _ungraded_center_vectors(a, ODD)
    return GradedSpace(0, len(vecs)), vecs


def even_center(a: AssocSuper):
    vecs = _ungraded_center_vectors(a, EVEN)
    return GradedSpace(len(vecs), 0), vecs


def trace_form_radical_dim(a: AssocSuper) -> int:
    """Dimension of the radical of (x, y) -> tr(L_x L_y); zero exactly
    when the underlying algebra is semisimple (characteristic zero)."""
    tower = a.tower
    one = tower.one()
    lmats = []
    for i in range(a.dim):
        sparse = {}
        for j in range(a.dim):
            for k, s in a.product({i: one}, {j: one}).items():
                sparse.setdefault(k, {})[j] = s
        lmats.append(sparse)
    gram = zero_rows(tower, a.dim, a.dim)
    for i in range(a.dim):
        li = lmats[i]
        for j in range(a.dim):
            lj = lmats[j]
            acc = tower.zero()
            for p, row in li.items():
                for q, x in row.items():
                    y = lj.get(q, {}).get(p)
                    if y is not None:
                        acc = acc + x * y
            gram[i][j] = acc
    return len(mat_kernel(gram, a.dim, tower))


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
    if trace_form_radical_dim(a) != 0:
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
    from math import isqrt
    r = isqrt(n)
    return r if r * r == n else None


# ---------------------------------------------------------------------------
# Modules over associative superalgebras
# ---------------------------------------------------------------------------


class ModuleAction:
    """Module over an AssocSuper: one GradedMap per algebra basis element."""

    def __init__(self, algebra: AssocSuper, space: GradedSpace, mats):
        self.algebra = algebra
        self.space = space
        self.mats = mats
        if len(mats) != algebra.dim:
            raise ValueError("one matrix per algebra basis element required")

    @property
    def tower(self):
        return self.algebra.tower

    def act(self, coords: dict) -> GradedMap:
        out = GradedMap.zero(self.tower, self.space, self.space)
        for i, c in coords.items():
            out = out + self.mats[i] * c
        return out

    def check(self):
        """Homomorphism property on all basis pairs, unit acts as id,
        parities match; raises on failure."""
        alg = self.algebra
        if not (self.act(alg.unit) == GradedMap.identity(self.tower, self.space)):
            raise AssertionError("unit does not act as identity")
        for i in range(alg.dim):
            if self.mats[i].parity not in (alg.space.parity(i),):
                if not self.mats[i].is_zero:
                    raise AssertionError(f"action of basis element {i} has wrong parity")
        one = self.tower.one()
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = self.mats[i] * self.mats[j]
                rhs = self.act(alg.product({i: one}, {j: one}))
                if not (lhs - rhs).is_zero:
                    raise AssertionError(f"action not multiplicative at ({i},{j})")


def clifford_generators(q: QuadraticPair, pivot_order=None):
    """The irreducible module of the Clifford superalgebra of a
    nondegenerate pair, of dimension 2^ceil(r/2), by its generators.

    Returns (carrier, generator_maps, z_maps): the carrier space, the
    action of x_1, ..., x_r, and the action of the diagonalized generators
    z = P x.  The form is diagonalized by congruence; diagonal generators
    are paired into creation/annihilation operators acting on an
    exterior-algebra model (one square root adjoined per pair), and for
    odd r the leftover generator is tensored in through the rank-one
    Clifford module C^{1|1}.  pivot_order permutes the diagonalization
    pivots (used to exhibit uniqueness up to isomorphism).  The Clifford
    relations x_i x_j + x_j x_i = 2 f_ij are checked exactly on the
    carrier (AssertionError otherwise); the algebra itself is never built.
    """
    tower = q.tower
    r = q.r
    if q.radical_dim() != 0:
        raise ValueError("form is degenerate; no irreducible Clifford module")
    p_rows, diag = _congruence_diagonalize(q, pivot_order)

    k = r // 2
    lam_space, create, annihilate = _exterior_model(tower, k)
    # pair (z1, z2) with z1^2 = a, z2^2 = b: with t^2 = -a/b,
    # z1 acts as C + a A and z2 as (C - a A)/t on the pair's mode
    z_mats = []
    for jj in range(k):
        a, b = diag[2 * jj], diag[2 * jj + 1]
        t = tower.adjoin_sqrt(-a / b)
        c_op, a_op = create[jj], annihilate[jj]
        z_mats.append(c_op + a_op * a)
        z_mats.append((c_op - a_op * a) * t.inv())
    if r % 2 == 1:
        d = diag[r - 1]
        c11 = GradedSpace(1, 1)
        x11 = GradedMap(tower, c11, c11,
                        [[tower.zero(), d], [tower.one(), tower.zero()]],
                        parity=ODD)
        id11 = GradedMap.identity(tower, c11)
        idlam = GradedMap.identity(tower, lam_space)
        z_mats = [graded_tensor(z, id11) for z in z_mats]
        z_mats.append(graded_tensor(idlam, x11))
        carrier = z_mats[0].target
    else:
        carrier = lam_space

    # original generators: x = P^{-1} z
    aug = [list(p_rows[i]) + [tower.one() if jx == i else tower.zero()
                              for jx in range(r)] for i in range(r)]
    rref, _ = mat_rref(aug, 2 * r, tower)
    pinv = [row[r:] for row in rref]
    gen_mats = [GradedMap.combination(tower, carrier, carrier,
                                      zip(pinv[i], z_mats))
                for i in range(r)]
    _check_clifford_relations(q, gen_mats)
    return carrier, gen_mats, z_mats


def _check_clifford_relations(q: QuadraticPair, gen_mats):
    """x_i x_j + x_j x_i == 2 f_ij * id for all i <= j, exactly (on raw
    sparse matrices, each entry one raw_dot)."""
    gens = q.tower.gens
    n = gen_mats[0].source.dim if gen_mats else 0
    xs = [_raw_mat(_sparse_of(m.rows)) for m in gen_mats]
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


def clifford_irrep(q: QuadraticPair, pivot_order=None) -> ModuleAction:
    """The irreducible Clifford module of clifford_generators as a
    ModuleAction: the Clifford superalgebra and the matrices of all 2^r
    monomials are built on top of the generator maps (for the module
    checks and the density oracle; HModule needs only the generators).
    """
    carrier, gen_mats, z_mats = clifford_generators(q, pivot_order)
    tower = q.tower
    masks = sorted(range(1 << q.r), key=lambda m: (bin(m).count("1") % 2, m))
    mats = []
    for m in masks:
        cur = GradedMap.identity(tower, carrier)
        for g in _mask_bits(m):
            cur = cur * gen_mats[g]
        mats.append(cur)
    act = ModuleAction(clifford(q), carrier, mats)
    act.generator_maps = gen_mats
    # the diagonalized generators span the same generating set but have
    # single-monomial scalar entries, which keeps the closure cheap
    act.closure_generator_maps = z_mats
    return act


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
        c_rows = zero_rows(tower, space.dim, space.dim)
        a_rows = zero_rows(tower, space.dim, space.dim)
        for s in subsets:
            below = bin(s & (bit - 1)).count("1")
            sgn = -one if below % 2 else one
            if not s & bit:
                c_rows[pos[s | bit]][pos[s]] = sgn
            else:
                a_rows[pos[s ^ bit]][pos[s]] = sgn
        create.append(GradedMap(tower, space, space, c_rows, parity=ODD))
        annihilate.append(GradedMap(tower, space, space, a_rows, parity=ODD))
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


def _sparse_of(rows):
    out = {}
    for i, row in enumerate(rows):
        r = {j: x for j, x in enumerate(row) if not x.is_zero}
        if r:
            out[i] = r
    return out


def _raw_mat(mat) -> dict:
    """A sparse Scalar matrix {i: {j: Scalar}} with raw entries."""
    out = {}
    for i, row in mat.items():
        r = {j: raw_of(x) for j, x in row.items() if not x.is_zero}
        if r:
            out[i] = r
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


def operator_closure_dim(ops, dim: int, tower: Tower):
    """Dimension of the unital algebra generated by the operators (sparse
    {i: {j: Scalar}} matrices on K^dim).

    With S the ops, the algebra is the union of V_0 = span(1, S) and
    V_{k+1} = V_k + V_k*S: a word in S is a shorter word times one letter
    on the right.  So only e*g is formed, for e added at the last step
    (the rest of V_k was multiplied before) and g in S; the mirrored g*e
    is never needed.  A multiplier in span(1, earlier multipliers) adds
    no word, since e*(c + sum a_i g_i) = c e + sum a_i e*g_i is already
    in the span; such multipliers, for example operators that act by
    scalars, are dropped first.  The span lies in
    End(K^dim), so it is complete once it has dimension dim^2, and the
    loop stops there.  The operators are converted to raw entries once,
    and the products and the span run on those."""
    n = dim
    full = n * n
    gens = tower.gens
    span = Span(tower)

    def flat(mat):
        return {i * n + j: v for i, row in mat.items() for j, v in row.items()}

    ident = flat({i: {i: QI_ONE} for i in range(n)})
    span.add(ident)
    # 1*g = g is already in V_0, so the identity needs no multiplying
    frontier = [m for m in map(_raw_mat, ops) if span.add(flat(m))]
    # an op that adds nothing lies in span(1, the ops kept before it)
    mults = frontier
    while frontier and span.dim < full:
        new_frontier = []
        for e in frontier:
            for g in mults:
                prod = _raw_products(((e, g),), gens)
                if prod and span.add(flat(prod)):
                    if span.dim == full:
                        return full
                    new_frontier.append(prod)
        frontier = new_frontier
    return span.dim


def density_type(act: ModuleAction) -> DensityType:
    """Span-closure irreducibility oracle.

    Full: the operators generate all of End(V).  QComm: the carrier is
    C^{m|m}, the closure has dimension 2 m^2 and the odd supercommutant
    contains phi with phi^2 a nonzero scalar.  Both certify
    irreducibility over any extension field; otherwise Smaller(d).
    """
    # a generating subset yields the same closure as the full list of
    # acting operators (each operator is a product of generators)
    gen_maps = getattr(act, "closure_generator_maps", None) or \
        getattr(act, "generator_maps", None) or act.mats
    ops = [_sparse_of(m.rows) for m in gen_maps]
    return density_type_from_maps(act.mats, act.space, act.tower, ops)


def density_type_from_maps(maps, space: GradedSpace, tower: Tower,
                           sparse_ops=None) -> DensityType:
    n = space.dim
    if sparse_ops is None:
        sparse_ops = [_sparse_of(m.rows) for m in maps]
    d = operator_closure_dim(sparse_ops, n, tower)
    if d == n * n:
        return DensityType("full", d)
    m = space.even_dim
    if space.odd_dim == m and d == 2 * m * m:
        if all(mp.parity is not None for mp in maps) and odd_schur(
                homogeneous_entries(maps), space, tower) is not None:
            return DensityType("qcomm", d)
    return DensityType("smaller", d)
