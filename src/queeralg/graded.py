"""Z2-graded vector spaces, parity-homogeneous maps, and the exact
linear-algebra routines (elimination, kernels, spans, intertwiners and
supercommutants) used by every other module.

Basis order convention, used for every matrix in the package: even basis
vectors come before odd ones; within a parity, construction order.
"""

from __future__ import annotations

from .scalars import (Scalar, Tower, raw_inv, raw_mul, raw_neg, raw_of,
                      raw_submul, scalar_of)

EVEN, ODD = 0, 1


class GradedSpace:
    """Finite-dimensional Z2-graded space with a chosen homogeneous basis;
    parities[k] is the parity of basis vector k.  GradedSpace(e, o) puts
    the even vectors first; from_parities takes any pattern (a direct sum
    keeps each summand's own order)."""

    __slots__ = ("parities", "even_dim", "odd_dim", "labels")

    def __init__(self, even_dim: int, odd_dim: int, labels=None):
        if even_dim < 0 or odd_dim < 0:
            raise ValueError("negative dimension")
        if labels is None:
            labels = tuple(f"e{k}" for k in range(even_dim)) + \
                tuple(f"o{k}" for k in range(odd_dim))
        self._set((EVEN,) * even_dim + (ODD,) * odd_dim, labels)

    @classmethod
    def from_parities(cls, parities, labels=None):
        space = cls.__new__(cls)
        parities = tuple(parities)
        if labels is None:
            labels = tuple(f"b{k}" for k in range(len(parities)))
        space._set(parities, labels)
        return space

    def _set(self, parities, labels):
        if len(labels) != len(parities):
            raise ValueError("label count does not match dimension")
        self.parities = parities
        self.even_dim = parities.count(EVEN)
        self.odd_dim = len(parities) - self.even_dim
        self.labels = tuple(labels)

    @property
    def dim(self) -> int:
        return len(self.parities)

    def parity(self, idx: int) -> int:
        return self.parities[idx]

    def __eq__(self, other):
        return (isinstance(other, GradedSpace)
                and self.parities == other.parities)

    def __repr__(self):
        return f"GradedSpace({self.even_dim}|{self.odd_dim})"


def tensor_space(v: GradedSpace, w: GradedSpace):
    """Graded tensor product space, basis reordered even-first.

    Returns (space, index) where index[(i, j)] is the position of
    v_i (x) w_j in the product basis.
    """
    pairs_even, pairs_odd = [], []
    for i in range(v.dim):
        for j in range(w.dim):
            (pairs_even if (v.parity(i) + w.parity(j)) % 2 == EVEN
             else pairs_odd).append((i, j))
    pairs = pairs_even + pairs_odd
    labels = tuple(f"{v.labels[i]}*{w.labels[j]}" for i, j in pairs)
    space = GradedSpace(len(pairs_even), len(pairs_odd), labels)
    index = {p: k for k, p in enumerate(pairs)}
    return space, index


# ---------------------------------------------------------------------------
# Exact elimination: every vector is a coordinate dict {index: Scalar} of
# its nonzero entries
# ---------------------------------------------------------------------------


def zero_rows(tower: Tower, nrows: int, ncols: int):
    z = tower.zero()
    return [[z] * ncols for _ in range(nrows)]


def mat_rref(rows, ncols: int, tower: Tower):
    """(basis, pivots): the reduced row echelon form of the list of rows,
    the basis rows in increasing pivot order; zero rows are dropped.
    Reading stops once the rank is ncols (every further row lies in the
    span)."""
    sp = Span(tower, rows, ncols)
    return sp.basis_vectors(), sorted(sp.rows)


def mat_kernel(rows, ncols: int, tower: Tower):
    """Basis of {x : A x = 0} for the rows of A, any iterable: the kernel
    of their Span, read until the rank is ncols, so a lazy iterable never
    builds the rows past full rank.  The identity basis when A has no
    rows."""
    return Span(tower, rows, ncols).kernel(ncols)


def solve_columns(rows, rhs_cols, ncols: int, tower: Tower):
    """Solutions x_c of A x_c = b_c for every right-hand side b_c (a
    coordinate dict over the rows of A), from one elimination of [A | B]
    through mat_rref; None when some b_c is outside the column space of
    A.  Each x_c is the solution a one-column call finds for b_c alone
    (pivot coordinates read off the RREF, free coordinates zero)."""
    if not rhs_cols:
        return []
    aug = [dict(r) for r in rows]
    for c, b in enumerate(rhs_cols):
        for i, x in b.items():
            aug[i][ncols + c] = x
    rref, pivots = mat_rref(aug, ncols + len(rhs_cols), tower)
    if pivots and pivots[-1] >= ncols:
        return None  # inconsistent
    sols = [{} for _ in rhs_cols]
    for row, p in zip(rref, pivots):
        for k, x in row.items():
            if k >= ncols:
                sols[k - ncols][p] = x
    return sols


class Span:
    """Subspace of K^n in reduced row echelon form: the package's one
    exact elimination engine, with its one kernel routine (kernel).
    mat_rref, mat_kernel and solve_columns (through mat_rref) each read
    their result off one Span of the given rows.

    Vectors are index-keyed dicts, of Scalars or of raw entries (a value
    that is not a Scalar is taken as its raw form, None as zero).  Rows
    are stored sparsely, keyed by pivot column, and keep one invariant:
    every row has a 1 in its pivot column and a 0 in every other pivot
    column.  reduce() therefore clears every pivot column of a
    vector in one pass, and add() back-substitutes each new row into the
    stored ones.  The basis is the RREF of the subspace, so it does not
    depend on the order in which vectors were added.

    The stored entries are raw (see scalars.raw_of): bare (a, b, d)
    triples in Q(i), coefficient dicts above it.  Scalars are built only
    at the edges, in reduce()'s result, kernel() and basis_vectors().

    With a prime p the span lies in F_p^n instead: vectors are dicts of
    nonzero residues mod p, and only add() and dim apply.  The density
    oracle runs its closure over F_p this way (scalars.ModP).
    """

    def __init__(self, tower: Tower, vectors=(), n=None, p=None):
        self.tower = tower
        self.p = p
        # pivot column -> {column: raw entry, or residue mod p}
        self.rows: dict[int, dict] = {}
        self.extend(vectors, n)

    def extend(self, vectors, n=None):
        """Add the vectors in order; reading stops once the dimension is
        n (every further vector lies in the span)."""
        for v in vectors:
            if len(self.rows) == n:
                return
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce_raw(self, vec) -> dict:
        v = {}
        for k, x in vec.items():
            r = raw_of(x) if x.__class__ is Scalar else x
            if r is not None:
                v[k] = r
        rows = self.rows
        gens = self.tower.gens
        # a stored row is zero in every other pivot column, so eliminating
        # one pivot never brings another back
        for p in [k for k in v if k in rows]:
            f = v.pop(p)
            for k, x in rows[p].items():
                if k == p:
                    continue
                nxt = raw_submul(v.get(k), f, x, gens)
                if nxt is None:
                    v.pop(k, None)
                else:
                    v[k] = nxt
        return v

    def reduce(self, vec) -> dict:
        """Residual of vec modulo the current span (sparse dict): it has
        no entry in any pivot column, and is empty exactly when vec lies
        in the span."""
        tower = self.tower
        return {k: scalar_of(tower, x)
                for k, x in self._reduce_raw(vec).items()}

    def add(self, vec) -> bool:
        """Insert vec; True if the dimension grew."""
        if self.p is not None:
            return self._add_mod_p(vec)
        v = self._reduce_raw(vec)
        if not v:
            return False
        gens = self.tower.gens
        p = min(v)
        inv = raw_inv(v[p], gens)
        row = {k: raw_mul(x, inv, gens) for k, x in v.items()}
        # back-substitute into the stored rows to keep the invariant
        for other in self.rows.values():
            f = other.pop(p, None)
            if f is not None:
                for k, x in row.items():
                    if k == p:
                        continue
                    nxt = raw_submul(other.get(k), f, x, gens)
                    if nxt is None:
                        other.pop(k, None)
                    else:
                        other[k] = nxt
        self.rows[p] = row
        return True

    def _add_mod_p(self, vec) -> bool:
        """add() over F_p: the same reduction and back-substitution on
        residues."""
        p, rows = self.p, self.rows
        v = dict(vec)
        for c in [k for k in v if k in rows]:
            f = v.pop(c)
            for k, x in rows[c].items():
                if k != c:
                    y = (v.get(k, 0) - f * x) % p
                    if y:
                        v[k] = y
                    else:
                        v.pop(k, None)
        if not v:
            return False
        c = min(v)
        inv = pow(v[c], -1, p)
        row = {k: x * inv % p for k, x in v.items()}
        for other in rows.values():
            f = other.pop(c, None)
            if f is not None:
                for k, x in row.items():
                    if k != c:
                        y = (other.get(k, 0) - f * x) % p
                        if y:
                            other[k] = y
                        else:
                            other.pop(k, None)
        rows[c] = row
        return True

    def contains(self, vec) -> bool:
        return not self._reduce_raw(vec)

    def kernel(self, n: int):
        """Basis of {x in K^n : r . x = 0 for every r in the span}, one
        vector per free column f: e_f minus the column f of the RREF."""
        tower = self.tower
        one, out = tower.one(), []
        for f in range(n):
            if f not in self.rows:
                vec = {f: one}
                for p, row in self.rows.items():
                    x = row.get(f)
                    if x is not None:
                        vec[p] = scalar_of(tower, raw_neg(x))
                out.append(vec)
        return out

    def basis_vectors(self):
        """The basis rows, in increasing pivot order (the RREF)."""
        tower = self.tower
        return [{k: scalar_of(tower, x) for k, x in self.rows[p].items()}
                for p in sorted(self.rows)]


# ---------------------------------------------------------------------------
# Graded maps
# ---------------------------------------------------------------------------


def add_entries(acc: dict, items) -> dict:
    """Add the (key, value) items into the entry dict acc, in place, and
    drop every entry whose sum cancels, so acc keeps only nonzero
    entries; the values must be nonzero.  Returns acc."""
    for key, v in items:
        cur = acc.get(key)
        if cur is not None:
            v = cur + v
            if not v.co:
                del acc[key]
                continue
        acc[key] = v
    return acc


def _table_product(table, u: dict, v: dict) -> dict:
    """sum_{i,j} u_i v_j table[i][j] over a structure table (table[i][j]
    the coordinate dict of the product of basis elements i and j), with
    the entries that cancel dropped."""
    pairs = ((table[i][j], a * b) for i, a in u.items() for j, b in v.items())
    return add_entries({}, ((k, c * s) for row, c in pairs if c.co
                            for k, s in row.items()))


def _by_row(entries) -> dict:
    """Entries {(i, j): x} as sparse rows {i: {j: x}}."""
    rows: dict = {}
    for (i, j), x in entries.items():
        rows.setdefault(i, {})[j] = x
    return rows


class GradedMap:
    """Linear map between graded spaces, stored as entries, the dict
    {(row, col): Scalar} of its nonzero matrix entries: row indexes the
    target basis and col the source basis, so column col holds the image
    of source basis vector col.  No zero is stored, so two maps between
    the same spaces are equal exactly when their entry dicts are, and the
    zero map has none.  parity is 0, 1 or None (inhomogeneous); it is
    inferred from the entries, or declared and checked against them.

    from_rows builds a map from a dense matrix (outside input, tests),
    and rows is a dense view, a fresh list of rows made on each read, for
    readers outside the package and tests; nothing inside it reads one.
    Maps are not mutated after construction."""

    __slots__ = ("tower", "source", "target", "entries", "parity")

    def __init__(self, tower: Tower, source: GradedSpace, target: GradedSpace,
                 entries: dict, parity="infer"):
        self.tower = tower
        self.source = source
        self.target = target
        self.entries = entries
        sp, tp = source.parities, target.parities
        seen = {tp[i] ^ sp[j] for i, j in entries}
        if parity == "infer":
            parity = seen.pop() if len(seen) == 1 else \
                EVEN if not seen else None   # the zero map counts as even
        elif parity is not None and seen - {parity}:
            raise ValueError("matrix entries violate declared parity")
        self.parity = parity

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, tower, source, target, rows, parity="infer"):
        """The map with the dense matrix rows: target.dim rows of
        source.dim Scalars each."""
        if len(rows) != target.dim or any(len(r) != source.dim for r in rows):
            raise ValueError("matrix shape does not match spaces")
        return cls(tower, source, target, nonzero_entries(rows), parity)

    @classmethod
    def zero(cls, tower, source, target):
        return cls(tower, source, target, {}, parity=EVEN)

    @classmethod
    def identity(cls, tower, space):
        one = tower.one()
        return cls(tower, space, space,
                   {(k, k): one for k in range(space.dim)}, parity=EVEN)

    @classmethod
    def combination(cls, tower, source, target, terms):
        """sum_k c_k M_k over (c_k, M_k) terms in one pass over the nonzero
        coefficients and entries; the parity is the terms' common parity
        (EVEN when the sum is zero)."""
        acc: dict = {}
        parities = set()
        for c, m in terms:
            if c.co:
                parities.add(m.parity)
                add_entries(acc, ((k, c * v) for k, v in m.entries.items()))
        if not acc:
            parity = EVEN
        else:
            parity = parities.pop() if len(parities) == 1 else None
        return cls(tower, source, target, acc, parity)

    def columns(self) -> dict:
        """Sparse columns {col: {row: Scalar}}: column col is the image of
        source basis vector col; a zero column has no key."""
        cols: dict = {}
        for (i, j), x in self.entries.items():
            cols.setdefault(j, {})[i] = x
        return cols

    @property
    def rows(self):
        """Dense view: target.dim rows of source.dim Scalars."""
        rows = zero_rows(self.tower, self.target.dim, self.source.dim)
        for (i, j), x in self.entries.items():
            rows[i][j] = x
        return rows

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, GradedMap):
            if other.target != self.source:
                raise ValueError("composition shape mismatch")
            p = None
            if self.parity is not None and other.parity is not None:
                p = (self.parity + other.parity) % 2
            right = _by_row(other.entries)
            out = add_entries({}, (((i, j), a * b)
                                   for (i, k), a in self.entries.items()
                                   for j, b in right.get(k, {}).items()))
            return GradedMap(self.tower, other.source, self.target, out, p)
        if isinstance(other, (Scalar, int)):
            s = self.tower._coerce(other)
            out = {k: v * s for k, v in self.entries.items()} if s.co else {}
            return GradedMap(self.tower, self.source, self.target, out,
                             self.parity)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        p = self.parity if self.parity == other.parity else None
        out = add_entries(dict(self.entries), other.entries.items())
        return GradedMap(self.tower, self.source, self.target, out, p)

    def __sub__(self, other):
        return self + other * (-1)

    def __neg__(self):
        return self * (-1)

    def __eq__(self, other):
        return (isinstance(other, GradedMap) and self.source == other.source
                and self.target == other.target
                and self.entries == other.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def apply(self, vec: dict) -> dict:
        """The image of the coordinate dict vec."""
        return add_entries({}, ((i, x * vec[j])
                                for (i, j), x in self.entries.items()
                                if j in vec))

    def rank(self) -> int:
        return len(mat_rref(list(_by_row(self.entries).values()),
                            self.source.dim, self.tower)[1])

    def __repr__(self):
        return (f"GradedMap({self.source!r}->{self.target!r}, "
                f"parity={self.parity})")


def kernel(f: GradedMap):
    """Kernel of f with a homogeneous basis, as (space, embedding).

    For a parity-homogeneous f the kernel is computed blockwise over the
    even and odd source coordinates (it is automatically graded); an
    inhomogeneous map is rejected.
    """
    if f.parity is None:
        raise ValueError("kernel of an inhomogeneous map is not graded")
    src = f.source
    rows = list(_by_row(f.entries).values())
    entries: dict = {}
    dims = []
    for par in (EVEN, ODD):
        cols = [j for j, p in enumerate(src.parities) if p == par]
        pos = {j: c for c, j in enumerate(cols)}
        sub = [{pos[j]: x for j, x in row.items() if j in pos} for row in rows]
        kvecs = mat_kernel(sub, len(cols), f.tower)
        for k, kvec in enumerate(kvecs, sum(dims)):
            entries.update(((cols[c], k), x) for c, x in kvec.items())
        dims.append(len(kvecs))
    ker_space = GradedSpace(*dims)
    return ker_space, GradedMap(f.tower, ker_space, src, entries, parity=EVEN)


def graded_tensor(f: GradedMap, g: GradedMap):
    """Koszul-signed tensor of maps:
    (f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w)."""
    if f.parity is None or g.parity is None:
        raise ValueError("graded_tensor requires parity-homogeneous maps")
    src, src_idx = tensor_space(f.source, g.source)
    tgt, tgt_idx = tensor_space(f.target, g.target)
    sp = f.source.parities
    entries = {}
    for (i, j), a in f.entries.items():
        if g.parity and sp[j]:
            a = -a
        for (k, l), b in g.entries.items():
            entries[(tgt_idx[(i, k)], src_idx[(j, l)])] = a * b
    return GradedMap(f.tower, src, tgt, entries,
                     parity=(f.parity + g.parity) % 2)


def intertwiners(pairs, slots, tower: Tower):
    """Kernel basis of {T : T a - s b T = 0 for every (a, b, s) in pairs}.

    The unknowns are the entries slots = [(row_key, col_key), ...] of T;
    every other entry of T is zero, and the basis vectors are coordinate
    vectors in slot order.  a and b are sparse {(row_key, col_key):
    Scalar} operators on the source and the target, and s is 1 or -1.

    The equation at entry (r, c) of T a - s b T is one sparse row keyed by
    slot index.  Rows of different pairs are never merged: on an
    evaluation module at t = -1, x (x) 1 and x (x) t act by opposite
    operators, and a shared row would cancel their equations.  Rows are
    built one pair at a time and pairs may be a lazy iterable: the
    elimination stops reading once the rows have full rank (then T = 0).
    The kernel is read off the RREF of the rows, so it depends only on
    their span and the slot order."""
    n = len(slots)
    by_row: dict = {}
    by_col: dict = {}
    for k, (r, c) in enumerate(slots):
        by_row.setdefault(r, []).append((c, k))
        by_col.setdefault(c, []).append((r, k))

    def equations():
        for a, b, s in pairs:
            eqs: dict = {}
            # (T a)_{r c} = sum_k T_{r k} a_{k c}
            for (k, c), v in a.items():
                for r, t in by_col.get(k, ()):
                    eq = eqs.setdefault((r, c), {})
                    eq[t] = eq[t] + v if t in eq else v
            # (s b T)_{r c} = s sum_k b_{r k} T_{k c}, subtracted
            for (r, k), v in b.items():
                if s > 0:
                    v = -v
                for c, t in by_row.get(k, ()):
                    eq = eqs.setdefault((r, c), {})
                    x = eq.pop(t, None)
                    x = v if x is None else x + v
                    if not x.is_zero:
                        eq[t] = x
            # an entry that cancels is dropped, and so is an equation left
            # empty: an even Cartan generator acts by the same scalar on
            # both sides, so every equation of its pair vanishes
            yield from (eq for eq in eqs.values() if eq)

    return mat_kernel(equations(), n, tower)


def nonzero_entries(rows) -> dict:
    """The nonzero entries {(i, j): Scalar} of dense rows: the one
    operator form, of GradedMap, weight-module blocks and Schur blocks."""
    return {(i, j): x for i, row in enumerate(rows)
            for j, x in enumerate(row) if not x.is_zero}


def homogeneous_entries(ops):
    """(entries, parity) of each GradedMap; every op must be
    parity-homogeneous."""
    out = []
    for op in ops:
        if op.parity is None:
            raise ValueError("commutant requires parity-homogeneous operators")
        out.append((op.entries, op.parity))
    return out


def commutant(ops, space: GradedSpace, tower: Tower, parity_filter=(EVEN, ODD)):
    """Basis of {T of requested parity on space :
    T r - (-1)^{|T||r|} r T = 0 for all r in ops}.

    Each op must be parity-homogeneous.  Returns a list of GradedMap.
    """
    if isinstance(parity_filter, int):
        parity_filter = (parity_filter,)
    entries = homogeneous_entries(ops)
    par = space.parities
    return [t for p in parity_filter for t in _supercommutant(
        entries, space, tower, p,
        [(i, j) for i in range(space.dim) for j in range(space.dim)
         if (par[i] + par[j]) % 2 == p])]


def _supercommutant(entries, space: GradedSpace, tower: Tower, p, slots):
    """The kernel basis of commutant at parity p over the given slots, as
    GradedMaps, one at a time; entries as from homogeneous_entries."""
    pairs = [(e, e, -1 if p and q else 1) for e, q in entries]
    for kvec in intertwiners(pairs, slots, tower):
        yield GradedMap(tower, space, space,
                        {slots[k]: x for k, x in kvec.items()}, parity=p)


def odd_schur(ops, space: GradedSpace, tower: Tower, slots=None):
    """(phi, c) for the first odd supercommutant phi of ops (in the
    kernel basis order) with phi^2 = c id and c != 0, or None.  Such a
    phi makes an irreducible module type Q.

    ops are homogeneous_entries pairs on the basis of space.  The
    unknowns are the entries slots of phi, by default every (i, j) of
    opposite parities, row-major.  A caller that knows phi vanishes off
    some of them may pass the rest in the same relative order: the kernel
    basis depends only on the solution space and the slot order, so phi
    is the same."""
    if slots is None:
        par = space.parities
        slots = [(i, j) for i in range(space.dim) for j in range(space.dim)
                 if par[i] != par[j]]
    ident = GradedMap.identity(tower, space)
    for phi in _supercommutant(ops, space, tower, ODD, slots):
        sq = phi * phi
        c = sq.entries.get((0, 0))
        if c is not None and sq == ident * c:
            return phi, c
    return None


def first_invertible(basis, invertible, add):
    """The first invertible element among the basis elements and then
    their pairwise sums add(basis[i], basis[j]), i < j; None when there is
    none.  The isomorphism tests run it on a basis of Hom(M, N).

    The scan is exact when dim Hom(M, N) <= 2.  If some T0 in Hom(M, N) is
    invertible, T -> T0^-1 T identifies Hom(M, N) with End(M), a unital
    algebra of dimension <= 2, so K or K[x]/(q) with q quadratic; its
    non-units lie on at most two lines through the origin.  T1, T2 and
    T1 + T2 are pairwise independent, so no two of them lie on one such
    line, and one of them is invertible.  In higher dimension every
    candidate can be singular although an isomorphism exists (three
    trivial modules: Hom = M_3(K), every candidate of rank <= 2), so the
    scan raises ValueError rather than answer "not isomorphic".

    Between irreducible modules the dimension does not matter.  The
    equations of a Hom space never mix the parities of the slots, so its
    RREF kernel basis is homogeneous, and a nonzero homogeneous intertwiner
    of irreducible modules is invertible (its kernel and image are graded
    submodules): the first basis element decides."""
    for t in basis:
        if invertible(t):
            return t
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            t = add(basis[i], basis[j])
            if invertible(t):
                return t
    if len(basis) > 2:
        raise ValueError(
            f"isomorphism scan inconclusive: no basis element of the "
            f"{len(basis)}-dimensional Hom space nor a sum of two is "
            f"invertible (exact only up to dimension 2)")
    return None
