"""Finite-dimensional Lie superalgebras by structure constants, with the
structural predicates (solvability, ideal closure, simplicity), and the
one module class used throughout: modules stored blockwise by weight,
with their direct sum, Hom solver and isomorphism test."""

from __future__ import annotations

from fractions import Fraction

from .assocsuper import AssocSuper
from .graded import (EVEN, ODD, GradedMap, GradedSpace, Span, _by_row,
                     _table_product, add_entries, first_invertible,
                     intertwiners, mat_kernel, mat_rref, solve_columns)
from .scalars import Tower


class LieSuper:
    """Lie superalgebra on a homogeneous basis; bk[i][j] is the sparse
    coordinate dict of [e_i, e_j].  No code mutates a table after
    construction, so algebras may share one (relabeled).

    triangular is the (raising, cartan, lowering) triple of basis index
    lists that the highest-weight criterion reads (a module over an
    algebra with None, no such split, is certified by the flat density
    oracle instead): q(n) sets it, q (x) A and a relabeling carry it over.

    generators are basis indices, ascending, that generate the algebra as
    a Lie superalgebra: the whole basis unless the builder knows a smaller
    set (q(n) gives its simple root vectors), kept by a relabeling.  An
    identity that is linear in x and whose solution set is a Lie
    sub-superalgebra holds on all of the algebra once it holds on the
    generators.  By super-Jacobi this is so, for modules rho, rho' and an
    even linear f, for {x : T rho(x) = rho'(x) T},
    {x : phi rho(x) = (-1)^|x| rho(x) phi} and
    {x : f[x, y] = [f x, f y] for every y}; hom_space_weight,
    products._solve_weight_schur and coeffalg.gamma_validate check their
    identity on the generators only."""

    def __init__(self, tower: Tower, space: GradedSpace, bk, name: str = "",
                 triangular=None, generators=None):
        self.tower = tower
        self.space = space
        self.bk = bk
        self.name = name
        self.triangular = triangular
        self.generators = range(space.dim) if generators is None \
            else generators

    @property
    def dim(self) -> int:
        return self.space.dim

    def relabeled(self, space: GradedSpace, name: str = "") -> "LieSuper":
        """The same algebra on a relabeled basis of the same parities,
        sharing this one's table and keeping its triangular split and
        generators."""
        if space.parities != self.space.parities:
            raise ValueError("a relabeling must keep every parity")
        return LieSuper(self.tower, space, self.bk, name=name,
                        triangular=self.triangular,
                        generators=self.generators)

    def bracket(self, u: dict, v: dict) -> dict:
        return _table_product(self.bk, u, v)

    def is_abelian(self) -> bool:
        return all(not self.bk[i][j] for i in range(self.dim)
                   for j in range(self.dim))

    def check(self, triples="all"):
        """Exact grading, skew-supersymmetry and super-Jacobi sweep."""
        par = self.space.parity
        one = self.tower.one()
        for i in range(self.dim):
            for j in range(self.dim):
                p = (par(i) + par(j)) % 2
                for k in self.bk[i][j]:
                    if par(k) != p:
                        raise AssertionError("bracket violates grading")
                sgn = -1 if (par(i) and par(j)) else 1
                flip = {k: (s if sgn < 0 else -s) for k, s in self.bk[j][i].items()}
                if self.bk[i][j] != {k: v for k, v in flip.items() if not v.is_zero}:
                    raise AssertionError(f"skew-supersymmetry fails at ({i},{j})")
        if triples == "all":
            triples = ((i, j, k) for i in range(self.dim)
                       for j in range(self.dim) for k in range(self.dim))
        for i, j, k in triples:
            ei, ej, ek = {i: one}, {j: one}, {k: one}
            lhs = self.bracket(ei, self.bracket(ej, ek))
            rhs = self.bracket(self.bracket(ei, ej), ek)
            swap = self.bracket(ej, self.bracket(ei, ek)).items()
            add_entries(rhs, ((t, -s) for t, s in swap)
                        if par(i) and par(j) else swap)
            if lhs != rhs:
                raise AssertionError(f"Jacobi identity fails at ({i},{j},{k})")

    def __repr__(self):
        return f"LieSuper({self.name or self.space!r}, dim={self.dim})"


def from_assoc(a: AssocSuper) -> LieSuper:
    """Lie superalgebra with the supercommutator bracket
    [x, y] = x y - (-1)^{|x||y|} y x."""
    tower = a.tower
    dim = a.dim
    bk = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            swap = a.mult[j][i].items()
            bk[i][j] = add_entries(dict(a.mult[i][j]), swap
                                   if a.space.parity(i) and a.space.parity(j)
                                   else ((k, -s) for k, s in swap))
    return LieSuper(tower, a.space, bk, name=f"Lie({a.name})")


def subalgebra(g: LieSuper, vectors, name: str = "") -> tuple:
    """Lie superalgebra on the span of the given homogeneous coordinate
    dicts (must be closed under bracket).  Returns (sub, embedding)
    where embedding maps sub coordinates to g coordinates."""
    tower = g.tower
    vecs = list(vectors)
    par = []
    for v in vecs:
        ps = {g.space.parity(k) for k in v}
        if len(ps) > 1:
            raise ValueError("subalgebra basis vector is not homogeneous")
        par.append(ps.pop() if ps else EVEN)
    order = sorted(range(len(vecs)), key=lambda t: par[t])
    vecs = [vecs[t] for t in order]
    par = [par[t] for t in order]
    space = GradedSpace(par.count(EVEN), par.count(ODD))
    n = len(vecs)
    if Span(tower, vecs).dim < n:
        raise ValueError("subalgebra basis vectors are dependent")
    # coordinates of every bracket [u_i, u_j], from one elimination over
    # the rows of the matrix whose columns are the u_j
    rows = [{} for _ in range(g.dim)]
    for j, u in enumerate(vecs):
        for k, s in u.items():
            rows[k][j] = s
    bk = solve_columns(rows, [g.bracket(ui, uj) for ui in vecs for uj in vecs],
                       n, tower)
    if bk is None:
        raise ValueError("vectors do not span a subalgebra")
    sub = LieSuper(tower, space, [bk[i * n:(i + 1) * n] for i in range(n)],
                   name=name)
    emb = GradedMap(tower, space, g.space,
                    {(k, j): s for j, u in enumerate(vecs)
                     for k, s in u.items()}, parity=EVEN)
    return sub, emb


def basis_subalgebra(g: LieSuper, indices, name: str = "") -> LieSuper:
    """The subalgebra spanned by the basis vectors e_k, k in indices
    (listed even-first), read off g's table: [e_a, e_b] keeps g's
    constants, renumbered by position in indices, in g's key order.
    Raises ValueError unless the span is closed under bracket."""
    pos = {k: p for p, k in enumerate(indices)}
    par = [g.space.parity(k) for k in indices]
    if len(pos) != len(par) or par != sorted(par):
        raise ValueError("subalgebra basis indices must be distinct and "
                         "even-first")
    bk = []
    for k in indices:
        row = g.bk[k]
        out = []
        for k2 in indices:
            entry = {}
            for t, s in row[k2].items():
                p = pos.get(t)
                if p is None:
                    raise ValueError("basis vectors do not span a subalgebra")
                entry[p] = s
            out.append(entry)
        bk.append(out)
    space = GradedSpace(par.count(EVEN), par.count(ODD))
    return LieSuper(g.tower, space, bk, name=name)


def direct_sum(g1: LieSuper, g2: LieSuper, name: str = "") -> LieSuper:
    """External direct sum; basis of g1 first, then g2 (each keeps its own
    even-before-odd order, so the global order is blockwise).  It has no
    triangular split."""
    tower = g1.tower
    n1, n2 = g1.dim, g2.dim
    labels = tuple(f"l.{x}" for x in g1.space.labels) + \
        tuple(f"r.{x}" for x in g2.space.labels)
    space = GradedSpace.from_parities(g1.space.parities + g2.space.parities,
                                      labels)
    bk = [[{} for _ in range(n1 + n2)] for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            bk[i][j] = dict(g1.bk[i][j])
    for i in range(n2):
        for j in range(n2):
            bk[n1 + i][n1 + j] = {n1 + k: s for k, s in g2.bk[i][j].items()}
    return LieSuper(tower, space, bk, name=name or f"{g1.name}(+){g2.name}")


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------


def derived_series(g: LieSuper):
    """Subspaces g = g^(0) >= g^(1) >= ... until stable, as RREF bases of
    coordinate dicts."""
    tower = g.tower
    one = tower.one()
    series = [[{i: one} for i in range(g.dim)]]
    while True:
        nxt = Span(tower, (g.bracket(a, b) for a in series[-1]
                           for b in series[-1])).basis_vectors()
        series.append(nxt)
        if len(nxt) == len(series[-2]) or not nxt:
            break
    return series


def is_solvable(g: LieSuper) -> bool:
    return len(derived_series(g)[-1]) == 0


def ideal_closure(g: LieSuper, seeds):
    """RREF basis, as coordinate dicts, of the smallest graded ideal
    containing the seed dicts (closure under ad of every basis element).
    Idempotent and monotone in the seed."""
    one = g.tower.one()
    sp = Span(g.tower)
    frontier = [v for v in seeds if sp.add(v)]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(g.dim):
                br = g.bracket({i: one}, v)
                if br and sp.add(br):
                    nxt.append(br)
        frontier = nxt
    return sp.basis_vectors()


def is_simple(g: LieSuper) -> bool:
    """Basis-seed test: g is nonabelian and the ideal generated by each
    basis vector is all of g.  Sound for the algebras of this package,
    whose distinguished bases expose the relevant ideals (e.g. the center
    of the pre-quotient queer algebra is spanned by a basis element)."""
    if g.is_abelian():
        return False
    one = g.tower.one()
    for i in range(g.dim):
        if len(ideal_closure(g, [{i: one}])) != g.dim:
            return False
    return True


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


def weight_sort_key(w):
    return tuple(x.sort_key() for x in w)


class WeightModule:
    """Module over a LieSuper, stored blockwise by weight of the even
    Cartan subalgebra of q.  A module with no such grading (from_flat) is
    the one-weight case, with the weight ().

    weights: sorted list of weight tuples (values on h_1..h_n).
    parities[w]: tuple of parities of the basis vectors of the w block.
    act[i][w]: list of (target_weight, entries) blocks for algebra basis
    element i: entries {(row, col): Scalar} holds the nonzero entries of
    the map from the w block into the target block (row indexes the
    target block, col the w block), and a block with no nonzero entry
    is left out.  The flat view (mats) and hom_map give GradedMaps,
    whose entries have the same form.
    """

    def __init__(self, algebra: LieSuper, tower: Tower, weights, parities,
                 act, qd=None):
        self.algebra = algebra
        self.tower = tower
        self.weights = sorted(weights, key=weight_sort_key)
        self.parities = parities
        self.act = act
        self.qd = qd
        self._entries: dict = {}   # generator -> its nonzero entries

    @classmethod
    def from_flat(cls, algebra: LieSuper, space: GradedSpace, mats):
        """The one-weight module on space where basis element i of algebra
        acts by mats[i]."""
        if len(mats) != algebra.dim:
            raise ValueError("one matrix per Lie basis element required")
        return cls(algebra, algebra.tower, [()], {(): space.parities},
                   [{(): [((), m.entries)]} if m.entries else {}
                    for m in mats])

    @property
    def dim(self) -> int:
        return sum(len(self.parities[w]) for w in self.weights)

    def block_dim(self, w) -> int:
        return len(self.parities.get(w, ()))

    def blocks_of(self, i: int, w):
        return self.act[i].get(w, [])

    def graded_dims(self):
        ne = sum(p == EVEN for w in self.weights for p in self.parities[w])
        return ne, self.dim - ne

    # -- generic operator plumbing ---------------------------------------

    def _gen_entries(self, i: int):
        """Nonzero entries (((w2, r), (w, s)), value) of generator i's
        blocks, collected on first use."""
        ent = self._entries.get(i)
        if ent is None:
            ent = self._entries[i] = [
                (((w2, r), (w, s)), v)
                for w in self.weights for (w2, blk) in self.blocks_of(i, w)
                for (r, s), v in blk.items()]
        return ent

    def op_entries(self, coords: dict) -> dict:
        """Sparse entries {((w2, r), (w, s)): value} of the operator of an
        algebra element given in coordinates: row r of block w2, column s
        of block w (the keys of flat_index)."""
        out: dict = {}
        for i, c in coords.items():
            if c.co:
                add_entries(out, ((key, c * v)
                                  for key, v in self._gen_entries(i)))
        return out

    def relation_rows(self, gens) -> list:
        """RREF rows r with sum_c w_c rho(gens[c]) = 0 exactly when r . w
        = 0 for every r: the row space of the entries of the operators of
        the basis elements gens, one row per matrix position, read until
        it has rank len(gens) (the operators are then independent).

        A matrix position lies in the blocks of one source weight, so the
        rows are made one source weight at a time: a position's row is
        complete once every generator's blocks from that weight are read,
        and no weight past full rank is read.  The RREF does not depend
        on the order of the rows."""
        def rows():
            for w in self.weights:
                by_key: dict = {}
                for c, g in enumerate(gens):
                    for w2, blk in self.blocks_of(g, w):
                        for (r, s), v in blk.items():
                            by_key.setdefault((w2, r, s), {})[c] = v
                yield from by_key.values()
        return Span(self.tower, rows(), len(gens)).basis_vectors()

    # -- flat view -----------------------------------------------------------

    def flat_index(self):
        idx = {}
        pos = 0
        for w in self.weights:
            for k in range(len(self.parities[w])):
                idx[(w, k)] = pos
                pos += 1
        return idx

    @property
    def space(self) -> GradedSpace:
        """The carrier, blocks in weight order (flat_index)."""
        return GradedSpace.from_parities(
            p for w in self.weights for p in self.parities[w])

    @property
    def mats(self):
        """One GradedMap on space per algebra basis element, built from the
        blocks on each access."""
        idx = self.flat_index()
        space = self.space
        return [GradedMap(self.tower, space, space,
                          {(idx[row], idx[col]): v
                           for (row, col), v in self._gen_entries(i)})
                for i in range(self.algebra.dim)]

    def check(self, pairs="all"):
        """rho([x,y]) = rho(x) rho(y) - (-1)^{|x||y|} rho(y) rho(x) on
        basis pairs; raises on failure."""
        g = self.algebra
        mats, space = self.mats, self.space
        if pairs == "all":
            pairs = ((i, j) for i in range(g.dim) for j in range(g.dim))
        for i, j in pairs:
            sgn = -1 if (g.space.parity(i) and g.space.parity(j)) else 1
            lhs = mats[i] * mats[j] - mats[j] * mats[i] * sgn
            rhs = GradedMap.combination(
                self.tower, space, space,
                ((c, mats[k]) for k, c in g.bk[i][j].items()))
            if not (lhs - rhs).is_zero:
                raise AssertionError(f"module relation fails at ({i},{j})")

    # -- structure ---------------------------------------------------------

    def maximal_weights(self):
        """Weights maximal for the partial order mu >= nu iff mu - nu is a
        nonnegative integer combination of simple roots.

        Each weight's simple-root coordinates are taken once, relative to
        the first weight whose difference from it is rational (the
        reference of its class; weights of different classes are never
        comparable), and split into an integer part and a fractional
        part.  Two weights are comparable exactly when they share class
        and fractional part, and then mu >= nu compares integer parts."""
        if self.qd is None:
            raise ValueError("weight comparison needs the root datum")
        roots = self.qd.roots
        refs = []
        keyed = []   # per weight: (class and fractional part, integer part)
        for w in self.weights:
            for c, ref in enumerate(refs):
                sc = roots.scaled_coords(tuple(a - b for a, b in zip(w, ref)))
                if sc is not None:
                    break
            else:
                c, sc = len(refs), ((0,) * len(w), 1)
                refs.append(w)
            scaled, scale = sc
            keyed.append(((c, tuple(Fraction(v % scale, scale)
                                    for v in scaled)),
                          tuple(v // scale for v in scaled)))
        members: dict = {}
        for key, ints in keyed:
            members.setdefault(key, []).append(ints)
        return [w for w, (key, ints) in zip(self.weights, keyed)
                if not any(o != ints and all(a >= b for a, b in zip(o, ints))
                           for o in members[key])]

    def singular_spaces(self, raising_gens):
        """Per weight, a basis of the joint kernel of the raising
        generators (as coordinate dicts on the block).  The rows are made
        one block at a time, as the elimination reads them."""
        out = {}
        for w in self.weights:
            rows = (row for g in raising_gens
                    for _, blk in self.blocks_of(g, w)
                    for row in _by_row(blk).values())
            out[w] = mat_kernel(rows, self.block_dim(w), self.tower)
        return out

    def scalars_on(self, w, gens):
        """{g: c} if each of gens acts on block w by a scalar c, else None."""
        out = {}
        for g in gens:
            blk = next((b for w2, b in self.blocks_of(g, w) if w2 == w), {})
            c = out[g] = blk.get((0, 0), self.tower.zero())
            if blk and blk != {(i, i): c for i in range(self.block_dim(w))}:
                return None
        return out

    def generated_by_top(self, top, lowering) -> bool:
        """True when every weight block below the top is spanned by the
        images of the blocks above it under the lowering generators.

        This is generation by the top block when top is the unique maximal
        weight lambda and its block is killed by the raising generators and
        stable under the Cartan part (the earlier clauses of
        is_irreducible_hw): by PBW the generated submodule is then
        N = U(n^-) M_lambda, each N_w with w != lambda is the sum of
        f(N_w') over lowering f and weights w' strictly above w, and
        induction down from lambda gives N = M exactly when every such
        rank is full.  Cartan generators stay out of the rank: h0 acts on
        each block by a scalar and would make every rank full.  A weight's
        columns are made when its rank is read; a short rank ends it."""
        into = {w: [] for w in self.weights}
        for g in lowering:
            for w in self.weights:
                for (w2, blk) in self.blocks_of(g, w):
                    if w2 == w:
                        raise AssertionError("a lowering generator maps a "
                                             "weight to itself")
                    into[w2].append(blk)
        def full_rank(w):
            d = self.block_dim(w)
            cols = [col for blk in into[w] for col in _by_row(
                {(c, r): v for (r, c), v in blk.items()}).values()]
            return len(mat_rref(cols, d, self.tower)[1]) == d
        return all(w == top or full_rank(w) for w in self.weights)


def direct_sum_weight(m1: WeightModule, m2: WeightModule) -> WeightModule:
    """Blockwise direct sum of weight modules over the same algebra: in
    each block, m2's rows and columns follow m1's."""
    weights = sorted(set(m1.weights) | set(m2.weights), key=weight_sort_key)
    parities = {}
    for w in weights:
        parities[w] = tuple(m1.parities.get(w, ())) + \
            tuple(m2.parities.get(w, ()))
    act = []
    for g in range(m1.algebra.dim):
        blocks: dict = {}
        for w in weights:
            d1 = m1.block_dim(w)
            pieces: dict = {}
            for (wt, blk) in m1.blocks_of(g, w):
                pieces.setdefault(wt, {}).update(blk)
            for (wt, blk) in m2.blocks_of(g, w):
                t1 = m1.block_dim(wt)
                pieces.setdefault(wt, {}).update(
                    ((t1 + r, d1 + c), v) for (r, c), v in blk.items())
            if pieces:
                blocks[w] = list(pieces.items())
        act.append(blocks)
    return WeightModule(m1.algebra, m1.tower, weights, parities, act,
                        qd=m1.qd)


# ---------------------------------------------------------------------------
# Hom spaces and isomorphism testing
# ---------------------------------------------------------------------------


def _check_comparable(m: WeightModule, n: WeightModule):
    """ValueError unless m and n are over one algebra and graded by one
    Cartan part: a one-weight module (weight ()) shares no weight with a
    weight-graded one, so their Hom space would read 0 whatever the
    actions are."""
    if m.algebra is not n.algebra and m.algebra.dim != n.algebra.dim:
        raise ValueError("modules are over different algebras")
    if len({len(w) for w in m.weights + n.weights}) > 1:
        raise ValueError("modules are graded by different Cartan parts "
                         "(a one-weight module against a weight module)")


def hom_space_weight(m: WeightModule, n: WeightModule):
    """Strict intertwiners T: M -> N, i.e. linear maps with
    T rho_M(x) = rho_N(x) T for every generator x of the algebra (no
    Koszul sign; odd homomorphisms are allowed and satisfy the same
    equation).  The x with T rho_M(x) = rho_N(x) T form a Lie
    sub-superalgebra (T rho_M([x, y]) = rho_N([x, y]) T by expanding the
    bracket), so T intertwines every element once it intertwines the
    generators (LieSuper.generators).  Intertwiners commute with the even
    Cartan action, hence preserve weights; unknowns are blockwise, T_w of
    shape (dim N_w) x (dim M_w) over the shared weights.  Returns (kernel
    basis over slots, slots)."""
    _check_comparable(m, n)
    tower = m.tower
    n_weights = set(n.weights)
    slots = [(w, i, j) for w in m.weights if w in n_weights
             for i in range(n.block_dim(w)) for j in range(m.block_dim(w))]
    one = tower.one()
    pairs = ((m.op_entries({g: one}), n.op_entries({g: one}), 1)
             for g in m.algebra.generators)
    return intertwiners(pairs, [((w, i), (w, j)) for w, i, j in slots],
                        tower), slots


def hom_map(vec, slots, m: WeightModule, n: WeightModule) -> GradedMap:
    """The intertwiner with the coordinate dict vec over slots (as
    returned by hom_space_weight), as a map from m.space to n.space."""
    src, tgt = m.flat_index(), n.flat_index()
    entries = {}
    for k, x in vec.items():
        w, i, j = slots[k]
        entries[(tgt[(w, i)], src[(w, j)])] = x
    return GradedMap(m.tower, m.space, n.space, entries)


def is_isomorphic_weight(m: WeightModule, n: WeightModule):
    """(bool, witness): an invertible (possibly inhomogeneous) strict
    intertwiner from m.space to n.space, if one exists
    (graded.first_invertible scans the Hom basis; exact up to
    dim Hom = 2, ValueError above when it finds none)."""
    _check_comparable(m, n)
    if m.weights != n.weights or \
            any(m.block_dim(w) != n.block_dim(w) for w in m.weights):
        return False, None   # both weight lists are sorted
    kerns, slots = hom_space_weight(m, n)
    vec = first_invertible(
        kerns, lambda v: _weight_hom_invertible(v, slots, m, n),
        lambda u, v: add_entries(dict(u), v.items()))
    if vec is None:
        return False, None
    return True, hom_map(vec, slots, m, n)


# the second name of the one isomorphism test, under which callers of the
# former flat-module API reach it
is_isomorphic_flat = is_isomorphic_weight


def _weight_hom_invertible(vec, slots, m: WeightModule, n: WeightModule) -> bool:
    rows: dict = {}   # weight -> {row: {col: entry}}
    for k, x in vec.items():
        w, i, j = slots[k]
        rows.setdefault(w, {}).setdefault(i, {})[j] = x
    return all(len(mat_rref(list(rows.get(w, {}).values()), m.block_dim(w),
                            m.tower)[1]) == m.block_dim(w)
               for w in m.weights)
