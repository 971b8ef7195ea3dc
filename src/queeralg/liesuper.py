"""Finite-dimensional Lie superalgebras by structure constants, with the
structural predicates (solvability, ideal closure, simplicity) and flat
module actions used throughout."""

from __future__ import annotations

import operator

from .assocsuper import AssocSuper
from .graded import (EVEN, ODD, GradedMap, GradedSpace, Span,
                     first_invertible, intertwiners, solve_columns,
                     zero_rows)
from .scalars import Tower


class LieSuper:
    """Lie superalgebra on a homogeneous basis; bk[i][j] is the sparse
    coordinate dict of [e_i, e_j]."""

    def __init__(self, tower: Tower, space: GradedSpace, bk, name: str = ""):
        self.tower = tower
        self.space = space
        self.bk = bk
        self.name = name

    @property
    def dim(self) -> int:
        return self.space.dim

    def bracket(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for i, a in u.items():
            row = self.bk[i]
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

    def ad_rows(self, i: int):
        """Dense matrix of ad e_i."""
        rows = zero_rows(self.tower, self.dim, self.dim)
        for j in range(self.dim):
            for k, s in self.bk[i][j].items():
                rows[k][j] = s
        return rows

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
            sgn = -1 if (par(i) and par(j)) else 1
            for t, s in self.bracket(ej, self.bracket(ei, ek)).items():
                cur = rhs.get(t)
                term = s if sgn > 0 else -s
                nxt = term if cur is None else cur + term
                if nxt.is_zero:
                    rhs.pop(t, None)
                else:
                    rhs[t] = nxt
            if lhs != rhs:
                raise AssertionError(f"Jacobi identity fails at ({i},{j},{k})")

    def __repr__(self):
        return f"LieSuper({self.name or self.space!r}, dim={self.dim})"


def from_assoc(a: AssocSuper) -> LieSuper:
    """Lie superalgebra with the supercommutator bracket
    [x, y] = x y - (-1)^{|x||y|} y x."""
    tower = a.tower
    dim = a.dim
    one = tower.one()
    bk = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            out = dict(a.product({i: one}, {j: one}))
            sgn = -1 if (a.space.parity(i) and a.space.parity(j)) else 1
            for k, s in a.product({j: one}, {i: one}).items():
                cur = out.get(k)
                term = -s if sgn > 0 else s
                nxt = term if cur is None else cur + term
                if nxt.is_zero:
                    out.pop(k, None)
                else:
                    out[k] = nxt
            bk[i][j] = out
    return LieSuper(tower, a.space, bk, name=f"Lie({a.name})")


def subalgebra(g: LieSuper, vectors, name: str = "") -> tuple:
    """Lie superalgebra on the span of the given homogeneous coordinate
    vectors (must be closed under bracket).  Returns (sub, embedding)
    where embedding maps sub coordinates to g coordinates."""
    tower = g.tower
    dense = []
    for v in vectors:
        if isinstance(v, dict):
            w = [tower.zero()] * g.dim
            for k, s in v.items():
                w[k] = s
            dense.append(w)
        else:
            dense.append(list(v))
    par = []
    for v in dense:
        ps = {g.space.parity(k) for k, s in enumerate(v) if not s.is_zero}
        if len(ps) > 1:
            raise ValueError("subalgebra basis vector is not homogeneous")
        par.append(ps.pop() if ps else EVEN)
    order = sorted(range(len(dense)), key=lambda t: par[t])
    dense = [dense[t] for t in order]
    par = [par[t] for t in order]
    space = GradedSpace(par.count(EVEN), par.count(ODD))
    n = len(dense)
    if Span(tower, dense).dim < n:
        raise ValueError("subalgebra basis vectors are dependent")
    # coordinates of every bracket [u_i, u_j], from one elimination
    cols = [[dense[j][i] for j in range(n)] for i in range(g.dim)]
    sparse = [{k: s for k, s in enumerate(v) if not s.is_zero} for v in dense]
    brackets = []
    for ui in sparse:
        for uj in sparse:
            vec = [tower.zero()] * g.dim
            for k, s in g.bracket(ui, uj).items():
                vec[k] = s
            brackets.append(vec)
    sols = solve_columns(cols, brackets, n, tower)
    if sols is None:
        raise ValueError("vectors do not span a subalgebra")
    bk = [[{k: s for k, s in enumerate(sols[i * n + j]) if not s.is_zero}
           for j in range(n)] for i in range(n)]
    sub = LieSuper(tower, space, bk, name=name)
    emb = GradedMap(tower, space, g.space,
                    [[dense[j][i] for j in range(n)] for i in range(g.dim)],
                    parity=EVEN)
    return sub, emb


def direct_sum(g1: LieSuper, g2: LieSuper, name: str = "") -> LieSuper:
    """External direct sum; basis of g1 first, then g2 (each keeps its own
    even-before-odd order, so the global order is blockwise)."""
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
    return LieSuper(tower, space, bk,
                    name=name or f"{g1.name}(+){g2.name}")


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------


def derived_series(g: LieSuper):
    """Subspaces g = g^(0) >= g^(1) >= ... until stable, as dense bases."""
    tower = g.tower
    one = tower.one()
    current = [[one if i == j else tower.zero() for i in range(g.dim)]
               for j in range(g.dim)]
    series = [current]
    while True:
        sp = Span(tower)
        cur_dicts = [{k: s for k, s in enumerate(v) if not s.is_zero}
                     for v in series[-1]]
        for a in cur_dicts:
            for b in cur_dicts:
                br = g.bracket(a, b)
                if br:
                    sp.add(br)
        nxt = sp.basis_vectors(g.dim)
        series.append(nxt)
        if len(nxt) == len(series[-2]) or not nxt:
            break
    return series


def is_solvable(g: LieSuper) -> bool:
    return len(derived_series(g)[-1]) == 0


def ideal_closure(g: LieSuper, seeds):
    """Dense basis of the smallest graded ideal containing the seed
    vectors (closure under ad of every basis element).  Idempotent and
    monotone in the seed."""
    tower = g.tower
    one = tower.one()
    sp = Span(tower)
    frontier = []
    for v in seeds:
        d = v if isinstance(v, dict) else \
            {k: s for k, s in enumerate(v) if not s.is_zero}
        if sp.add(d):
            frontier.append(d)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(g.dim):
                br = g.bracket({i: one}, v)
                if br and sp.add(br):
                    nxt.append(br)
        frontier = nxt
    return sp.basis_vectors(g.dim)


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
# Flat module actions
# ---------------------------------------------------------------------------


class LieModule:
    """Module over a LieSuper: one GradedMap per Lie basis element."""

    def __init__(self, algebra: LieSuper, space: GradedSpace, mats):
        self.algebra = algebra
        self.space = space
        self.mats = mats
        if len(mats) != algebra.dim:
            raise ValueError("one matrix per Lie basis element required")

    @property
    def tower(self):
        return self.algebra.tower

    @property
    def dim(self) -> int:
        return self.space.dim

    def act(self, coords: dict) -> GradedMap:
        out = GradedMap.zero(self.tower, self.space, self.space)
        for i, c in coords.items():
            out = out + self.mats[i] * c
        return out

    def op_entries(self, coords: dict) -> dict:
        """Sparse entries {(row, col): value} of the operator of an
        algebra element given in coordinates."""
        out: dict = {}
        for i, c in coords.items():
            for r, row in enumerate(self.mats[i].rows):
                for s, v in enumerate(row):
                    if v.is_zero:
                        continue
                    cur = out.get((r, s))
                    nxt = c * v if cur is None else cur + c * v
                    if nxt.is_zero:
                        out.pop((r, s), None)
                    else:
                        out[(r, s)] = nxt
        return out

    def check(self, pairs="all"):
        """rho([x,y]) = rho(x) rho(y) - (-1)^{|x||y|} rho(y) rho(x) on
        basis pairs; raises on failure."""
        g = self.algebra
        if pairs == "all":
            pairs = ((i, j) for i in range(g.dim) for j in range(g.dim))
        for i, j in pairs:
            sgn = -1 if (g.space.parity(i) and g.space.parity(j)) else 1
            lhs = self.mats[i] * self.mats[j] - self.mats[j] * self.mats[i] * sgn
            rhs = self.act(g.bk[i][j])
            if not (lhs - rhs).is_zero:
                raise AssertionError(f"module relation fails at ({i},{j})")


def direct_sum_module(m1: LieModule, m2: LieModule) -> LieModule:
    """Block direct sum of two modules over the same algebra."""
    tower = m1.tower
    n1, n2 = m1.dim, m2.dim
    space = GradedSpace.from_parities(m1.space.parities + m2.space.parities)
    mats = []
    for a, b in zip(m1.mats, m2.mats):
        rows = zero_rows(tower, n1 + n2, n1 + n2)
        for i in range(n1):
            for j in range(n1):
                rows[i][j] = a.rows[i][j]
        for i in range(n2):
            for j in range(n2):
                rows[n1 + i][n1 + j] = b.rows[i][j]
        mats.append(GradedMap(tower, space, space, rows))
    return LieModule(m1.algebra, space, mats)


def module_hom_basis(m: LieModule, n: LieModule):
    """Basis of strict module homomorphisms T: M -> N, i.e. linear maps
    with T rho_M(x) = rho_N(x) T for every basis element x (no Koszul
    sign; odd homomorphisms are allowed and satisfy the same equation).
    Returned as GradedMap objects with inferred parity."""
    if m.algebra is not n.algebra and m.algebra.dim != n.algebra.dim:
        raise ValueError("modules are over different algebras")
    tower = m.tower
    one = tower.one()
    dm, dn = m.dim, n.dim
    pairs = ((m.op_entries({g: one}), n.op_entries({g: one}), 1)
             for g in range(m.algebra.dim))
    kernel = intertwiners(pairs, [(i, j) for i in range(dn)
                                  for j in range(dm)], tower)
    return [GradedMap(tower, m.space, n.space,
                      [kv[i * dm:(i + 1) * dm] for i in range(dn)])
            for kv in kernel]


def is_isomorphic_flat(m: LieModule, n: LieModule):
    """(bool, witness): an invertible (possibly inhomogeneous) strict
    intertwiner, if one exists (graded.first_invertible scans the Hom
    basis; exact up to dim Hom = 2, ValueError above when it finds none)."""
    if m.dim != n.dim:
        return False, None
    t = first_invertible(module_hom_basis(m, n),
                         lambda t: t.rank() == m.dim, operator.add)
    return t is not None, t


def check_solvable_module_dim(g: LieSuper, act: LieModule) -> dict:
    """Verification harness for the one-dimensionality of irreducible
    modules over solvable superalgebras with [g1, g1] inside [g0, g0].

    The caller certifies irreducibility of act; the returned report
    carries the hypothesis status separately and claims nothing when the
    hypothesis fails.
    """
    solvable = is_solvable(g)
    one = g.tower.one()
    even_idx = [i for i in range(g.dim) if g.space.parity(i) == EVEN]
    odd_idx = [i for i in range(g.dim) if g.space.parity(i) == ODD]
    even_span = Span(g.tower)
    for i in even_idx:
        for j in even_idx:
            br = g.bracket({i: one}, {j: one})
            if br:
                even_span.add(br)
    hypothesis = True
    for i in odd_idx:
        for j in odd_idx:
            br = g.bracket({i: one}, {j: one})
            if br and not even_span.contains(br):
                hypothesis = False
    applies = solvable and hypothesis
    return {
        "solvable": solvable,
        "odd_bracket_in_even_bracket": hypothesis,
        "module_dim": act.dim,
        "conclusion_holds": (not applies) or act.dim == 1,
        "applies": applies,
    }
