"""Z2-graded vector spaces, parity-homogeneous maps, and the exact
linear-algebra routines (elimination, kernels, spans, intertwiners and
supercommutants) used by every other module.

Basis order convention, used for every matrix in the package: even basis
vectors come before odd ones; within a parity, construction order.
"""

from __future__ import annotations

from .scalars import (QI_ONE, Scalar, Tower, raw_inv, raw_mul, raw_neg, raw_of,
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
# Dense exact matrices (lists of rows of Scalars)
# ---------------------------------------------------------------------------


def zero_rows(tower: Tower, nrows: int, ncols: int):
    z = tower.zero()
    return [[z] * ncols for _ in range(nrows)]


def identity_rows(tower: Tower, n: int):
    rows = zero_rows(tower, n, n)
    one = tower.one()
    for k in range(n):
        rows[k][k] = one
    return rows


def mat_mul(a, b, tower: Tower):
    n, m = len(a), len(b[0]) if b else 0
    out = zero_rows(tower, n, m)
    for i, arow in enumerate(a):
        orow = out[i]
        for k, av in enumerate(arow):
            if av.is_zero:
                continue
            brow = b[k]
            for j, bv in enumerate(brow):
                if not bv.is_zero:
                    orow[j] = orow[j] + av * bv
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s: Scalar):
    return [[x * s for x in row] for row in a]


def mat_vec(a, v, tower: Tower):
    out = []
    for row in a:
        acc = tower.zero()
        for x, c in zip(row, v):
            if not x.is_zero and not c.is_zero:
                acc = acc + x * c
        out.append(acc)
    return out


def mat_is_zero(a) -> bool:
    return all(x.is_zero for row in a for x in row)


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _row_span(rows, ncols: int, tower: Tower) -> Span:
    sp = Span(tower)
    for row in rows:
        if sp.dim == ncols:
            break  # every further row lies in the span
        sp.add(row)
    return sp


def mat_rref(rows, ncols: int, tower: Tower):
    """Reduced row echelon form of the rows (dense lists or sparse dicts).
    Returns (rref_rows, pivot_cols) with dense rows; zero rows are
    dropped."""
    sp = _row_span(rows, ncols, tower)
    return sp.basis_vectors(ncols), sorted(sp.rows)


def mat_rank(rows, ncols: int, tower: Tower) -> int:
    return _row_span(rows, ncols, tower).dim


def mat_kernel(rows, ncols: int, tower: Tower):
    """Basis (list of coordinate vectors) of {x : A x = 0}; the identity
    basis when A has no rows."""
    return _row_span(rows, ncols, tower).kernel(ncols)


def solve_columns(rows, rhs_cols, ncols: int, tower: Tower):
    """Solutions x_c of A x_c = b_c for every right-hand side b_c, from one
    elimination of [A | B]; None when some b_c is outside the column
    space of A.  Each x_c is the solution a one-column call finds for b_c
    alone (pivot coordinates read off the RREF, free coordinates zero)."""
    if not rhs_cols:
        return []
    aug = [list(r) + list(b) for r, b in zip(rows, zip(*rhs_cols))]
    rref, pivots = mat_rref(aug, ncols + len(rhs_cols), tower)
    if pivots and pivots[-1] >= ncols:
        return None  # inconsistent
    zero = tower.zero()
    sols = [[zero] * ncols for _ in rhs_cols]
    for row, p in zip(rref, pivots):
        for c, x in enumerate(sols):
            x[p] = row[ncols + c]
    return sols


class Span:
    """Subspace of K^n in reduced row echelon form: the package's one
    exact elimination engine (mat_rref, mat_kernel and the solvers are
    thin layers over it).

    Vectors may be dense lists or index-keyed dicts, of Scalars or of raw
    entries (a value that is not a Scalar is taken as its raw form, None
    as zero).  Rows are stored sparsely, keyed by pivot column, and keep
    one invariant: every row has a 1 in its pivot column and a 0 in every
    other pivot column.  reduce() therefore clears every pivot column of a
    vector in one pass, and add() back-substitutes each new row into the
    stored ones.  The basis is the RREF of the subspace, so it does not
    depend on the order in which vectors were added.

    The stored entries are raw (see scalars.raw_of): bare (a, b, d)
    triples in Q(i), coefficient dicts above it.  Scalars are built only
    at the edges, in reduce()'s result, kernel() and basis_vectors().
    """

    def __init__(self, tower: Tower, vectors=()):
        self.tower = tower
        # pivot column -> {column: raw entry}
        self.rows: dict[int, dict] = {}
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce_raw(self, vec) -> dict:
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {}
        for k, x in items:
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

    def contains(self, vec) -> bool:
        return not self._reduce_raw(vec)

    def _kernel_raw(self, n: int):
        """The kernel basis of kernel(), as sparse dicts of raw entries."""
        for f in range(n):
            if f not in self.rows:
                vec = {f: QI_ONE}
                for p, row in self.rows.items():
                    x = row.get(f)
                    if x is not None:
                        vec[p] = raw_neg(x)
                yield vec

    def kernel(self, n: int):
        """Basis of {x in K^n : r . x = 0 for every r in the span}, one
        vector per free column f: e_f minus the column f of the RREF."""
        tower = self.tower
        zero = tower.zero()
        basis = []
        for sparse in self._kernel_raw(n):
            vec = [zero] * n
            for k, x in sparse.items():
                vec[k] = scalar_of(tower, x)
            basis.append(vec)
        return basis

    def basis_vectors(self, n: int):
        """Dense basis rows, in increasing pivot order (the RREF)."""
        tower = self.tower
        zero = tower.zero()
        out = []
        for p in sorted(self.rows):
            row = [zero] * n
            for k, x in self.rows[p].items():
                row[k] = scalar_of(tower, x)
            out.append(row)
        return out


# ---------------------------------------------------------------------------
# Graded maps
# ---------------------------------------------------------------------------


class GradedMap:
    """Linear map between graded spaces; matrix columns are images of
    source basis vectors.  parity is 0, 1 or None (inhomogeneous)."""

    __slots__ = ("tower", "source", "target", "rows", "parity")

    def __init__(self, tower: Tower, source: GradedSpace, target: GradedSpace,
                 rows, parity="infer"):
        self.tower = tower
        self.source = source
        self.target = target
        self.rows = rows
        if len(rows) != target.dim or any(len(r) != source.dim for r in rows):
            raise ValueError("matrix shape does not match spaces")
        if parity == "infer":
            parity = self._infer_parity()
        else:
            self._check_parity(parity)
        self.parity = parity

    def _infer_parity(self):
        seen = set()
        for i, row in enumerate(self.rows):
            pi = self.target.parity(i)
            for j, x in enumerate(row):
                if not x.is_zero:
                    seen.add((pi + self.source.parity(j)) % 2)
        if len(seen) == 2:
            return None
        if len(seen) == 1:
            return seen.pop()
        return EVEN  # zero map counts as even

    def _check_parity(self, parity):
        if parity is None:
            return
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if not x.is_zero and \
                        (self.target.parity(i) + self.source.parity(j)) % 2 != parity:
                    raise ValueError("matrix entries violate declared parity")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, tower, source, target):
        return cls(tower, source, target, zero_rows(tower, target.dim, source.dim),
                   parity=EVEN)

    @classmethod
    def identity(cls, tower, space):
        return cls(tower, space, space, identity_rows(tower, space.dim), parity=EVEN)

    @classmethod
    def combination(cls, tower, source, target, terms):
        """sum_k c_k M_k over (c_k, M_k) terms in one pass: only nonzero
        coefficients and entries are multiplied and added, and the parity
        (the terms' common parity, EVEN when the sum is zero) is checked
        once."""
        rows = zero_rows(tower, target.dim, source.dim)
        parities = set()
        for c, m in terms:
            if c.is_zero:
                continue
            parities.add(m.parity)
            for ra, row in zip(rows, m.rows):
                for j, v in enumerate(row):
                    if not v.is_zero:
                        a = ra[j]
                        ra[j] = c * v if a.is_zero else a + c * v
        if mat_is_zero(rows):
            parity = EVEN
        else:
            parity = parities.pop() if len(parities) == 1 else None
        return cls(tower, source, target, rows, parity)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, GradedMap):
            if other.target != self.source:
                raise ValueError("composition shape mismatch")
            p = None
            if self.parity is not None and other.parity is not None:
                p = (self.parity + other.parity) % 2
            return GradedMap(self.tower, other.source, self.target,
                             mat_mul(self.rows, other.rows, self.tower), p)
        if isinstance(other, (Scalar, int)):
            s = self.tower._coerce(other)
            return GradedMap(self.tower, self.source, self.target,
                             mat_scale(self.rows, s), self.parity)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        p = self.parity if self.parity == other.parity else None
        return GradedMap(self.tower, self.source, self.target,
                         mat_add(self.rows, other.rows), p)

    def __sub__(self, other):
        return self + other * (-1)

    def __neg__(self):
        return self * (-1)

    def __eq__(self, other):
        return (isinstance(other, GradedMap) and self.source == other.source
                and self.target == other.target and mat_eq(self.rows, other.rows))

    @property
    def is_zero(self) -> bool:
        return mat_is_zero(self.rows)

    def apply(self, vec):
        return mat_vec(self.rows, vec, self.tower)

    def rank(self) -> int:
        return mat_rank(self.rows, self.source.dim, self.tower)

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
    blocks = {EVEN: [j for j in range(src.dim) if src.parity(j) == EVEN],
              ODD: [j for j in range(src.dim) if src.parity(j) == ODD]}
    vecs = {EVEN: [], ODD: []}
    for par, cols in blocks.items():
        if not cols:
            continue
        sub = [[row[j] for j in cols] for row in f.rows]
        for kvec in mat_kernel(sub, len(cols), f.tower):
            full = [f.tower.zero()] * src.dim
            for c, j in enumerate(cols):
                full[j] = kvec[c]
            vecs[par].append(full)
    basis = vecs[EVEN] + vecs[ODD]
    ker_space = GradedSpace(len(vecs[EVEN]), len(vecs[ODD]))
    cols = basis  # embedding columns
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(src.dim)]
    if not cols:
        rows = zero_rows(f.tower, src.dim, 0)
    emb = GradedMap(f.tower, ker_space, src, rows, parity=EVEN)
    return ker_space, emb


def graded_tensor(f: GradedMap, g: GradedMap):
    """Koszul-signed tensor of maps:
    (f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w)."""
    if f.parity is None or g.parity is None:
        raise ValueError("graded_tensor requires parity-homogeneous maps")
    tower = f.tower
    src, src_idx = tensor_space(f.source, g.source)
    tgt, tgt_idx = tensor_space(f.target, g.target)
    rows = zero_rows(tower, tgt.dim, src.dim)
    for j in range(f.source.dim):
        sign = -1 if (g.parity and f.source.parity(j)) else 1
        for l in range(g.source.dim):
            col = src_idx[(j, l)]
            for i in range(f.target.dim):
                a = f.rows[i][j]
                if a.is_zero:
                    continue
                if sign < 0:
                    a = -a
                for k in range(g.target.dim):
                    b = g.rows[k][l]
                    if not b.is_zero:
                        rows[tgt_idx[(i, k)]][col] = rows[tgt_idx[(i, k)]][col] + a * b
    return GradedMap(tower, src, tgt, rows, parity=(f.parity + g.parity) % 2)


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

    return mat_kernel(equations(), len(slots), tower)


def nonzero_entries(rows) -> dict:
    """The nonzero entries {(i, j): Scalar} of dense rows: the operator
    form of weight-module blocks, Schur blocks, commutant and odd_schur."""
    return {(i, j): x for i, row in enumerate(rows)
            for j, x in enumerate(row) if not x.is_zero}


def homogeneous_entries(ops):
    """(nonzero_entries, parity) of each operator; every op must be
    parity-homogeneous."""
    out = []
    for op in ops:
        if op.parity is None:
            raise ValueError("commutant requires parity-homogeneous operators")
        out.append((nonzero_entries(op.rows), op.parity))
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
    n = space.dim
    pairs = [(e, e, -1 if p and q else 1) for e, q in entries]
    for kvec in intertwiners(pairs, slots, tower):
        mat = zero_rows(tower, n, n)
        for (i, j), x in zip(slots, kvec):
            if not x.is_zero:
                mat[i][j] = x
        yield GradedMap(tower, space, space, mat, parity=p)


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
        c = sq.rows[0][0]
        if not c.is_zero and sq == ident * c:
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
