"""Map superalgebras g (x) A, their equivariant subalgebras, evaluation
maps onto sums of copies of g at maximal ideals, and annihilator/support
computation for modules."""

from __future__ import annotations

from functools import cached_property

from .coeffalg import (CoeffAlgebra, GammaAction, IdealRep, gamma_validate,
                       radical, support)
from .graded import GradedSpace, Span, mat_kernel, zero_rows
from .liesuper import LieSuper, subalgebra
from .queer import QueerData
from .scalars import Tower


class MapSuper:
    """g (x) A with basis x_i (x) a_j, ordered g-major (so the global
    even-before-odd convention is inherited from g).  When g is a queer
    algebra the triangular structure is carried over generator index sets."""

    def __init__(self, g: LieSuper, coeff: CoeffAlgebra, algebra: LieSuper,
                 pair_index, qd: QueerData | None = None):
        self.g = g
        self.coeff = coeff
        self.algebra = algebra
        self.pair_index = pair_index
        self.qd = qd
        if qd is not None:
            self._index_triangular(qd)

    def _index_triangular(self, qd: QueerData):
        na = self.coeff.dim
        self.h0_gens = [self.pair_index[(x, j)] for x in qd.h0_indices
                        for j in range(na)]
        self.h1_gens = [self.pair_index[(x, j)] for x in qd.h1_indices
                        for j in range(na)]
        self.cartan_gens = self.h0_gens + self.h1_gens
        self.raising_gens = [self.pair_index[(x, j)] for x in qd.npos_indices
                             for j in range(na)]
        self.lowering_gens = [self.pair_index[(x, j)] for x in qd.nneg_indices
                              for j in range(na)]
        # (simple root vector) (x) a_j: they generate npos (x) A, A unital
        self.simple_raising_gens = [self.pair_index[(x, j)]
                                    for x in qd.simple_pos_indices
                                    for j in range(na)]
        # x (x) a_j has the ad-weight of x under h (x) 1
        self.gen_root = {idx: qd.basis_root[x]
                         for (x, _), idx in self.pair_index.items()}

    @property
    def tower(self) -> Tower:
        return self.g.tower

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def embed_g(self, x_coords: dict, a_coords: dict) -> dict:
        """Coordinates of x (x) a for x in g-coordinates, a in A-coordinates."""
        out = {}
        for xi, cx in x_coords.items():
            for aj, ca in a_coords.items():
                c = cx * ca
                if not c.is_zero:
                    out[self.pair_index[(xi, aj)]] = c
        return out


def tensor_lie(g, coeff: CoeffAlgebra) -> MapSuper:
    """Structure constants of g (x) A from those of g and A:
    [x1 (x) f1, x2 (x) f2] = [x1, x2] (x) f1 f2.

    Only nonzero brackets of g are visited.  Where f1 f2 is a single basis
    element with coefficient exactly 1, the bracket's entries are copied,
    not multiplied.  When A is one-dimensional with 1 * 1 = 1 (the base
    field), g (x) A is g relabeled and shares g's table outright: no code
    mutates a bracket table after construction.  Every bracket dict keeps
    the key order of the entry-by-entry product, [x1, x2]'s entries major
    and f1 f2's minor."""
    qd = None
    if isinstance(g, QueerData):
        qd, g = g, g.algebra
    tower = g.tower
    na = coeff.dim
    pair_index = {}
    labels = []
    parities = []
    for xi in range(g.dim):
        for aj in range(na):
            pair_index[(xi, aj)] = len(labels)
            labels.append(f"{g.space.labels[xi]}(x){coeff.space.labels[aj]}")
            parities.append(g.space.parity(xi))
    space = GradedSpace.from_parities(parities, tuple(labels))
    name = f"{g.name}(x){coeff.name}"
    one = tower.one()
    prods = [[tuple(coeff.product({p: one}, {q: one}).items())
              for q in range(na)] for p in range(na)]
    if na == 1 and prods[0][0] == ((0, one),):
        return MapSuper(g, coeff, g.relabeled(space, name), pair_index,
                        qd=qd)
    # the terms (t, c) of each a_j a_l, with c None for a coefficient 1
    terms = [[tuple((at, None if sa == one else sa) for at, sa in fp)
              for fp in row] for row in prods]
    dim = len(labels)
    bk = [[{} for _ in range(dim)] for _ in range(dim)]
    for xi, grow in enumerate(g.bk):
        for xk, br in enumerate(grow):
            if not br:
                continue
            for aj in range(na):
                row = bk[xi * na + aj]
                for al, fprod in enumerate(terms[aj]):
                    if not fprod:
                        continue
                    if len(fprod) == 1 and fprod[0][1] is None:
                        at = fprod[0][0]   # a_j a_l = a_t: copy
                        row[xk * na + al] = {xt * na + at: s
                                             for xt, s in br.items()}
                        continue
                    out = {}
                    for xt, s in br.items():
                        for at, sa in fprod:
                            v = s if sa is None else s * sa
                            if not v.is_zero:
                                out[xt * na + at] = v
                    row[xk * na + al] = out
    algebra = LieSuper(tower, space, bk, name=name)
    return MapSuper(g, coeff, algebra, pair_index, qd=qd)


# ---------------------------------------------------------------------------
# Equivariant subalgebras
# ---------------------------------------------------------------------------


class InvariantSub:
    """Fixed points (g (x) A)^Gamma of the diagonal action.

    span is their RREF Span in g (x) A coordinates, the one representation
    of the subspace; averaged[idx] is (1/|Gamma|) sum_gamma gamma(e_idx)
    for every basis element e_idx of g (x) A, sparse.  The Lie superalgebra
    on the invariants is built only when asked for (algebra)."""

    def __init__(self, parent: MapSuper, act: GammaAction, span: Span,
                 averaged: list, report: dict):
        self.parent = parent
        self.act = act
        self.span = span
        self.averaged = averaged
        self.gamma_report = report

    @property
    def tower(self):
        return self.parent.tower

    @property
    def dim(self) -> int:
        return self.span.dim

    def basis_vectors(self):
        """Dense RREF basis in g (x) A coordinates, in pivot order."""
        return self.span.basis_vectors(self.parent.dim)

    @cached_property
    def algebra(self) -> LieSuper:
        """The invariants as a Lie superalgebra on basis_vectors().
        subalgebra() checks bracket closure and orders its basis
        even-first, which the RREF order already is: g (x) A is g-major,
        q is even-first and every basis vector is homogeneous, with the
        parity of its pivot."""
        ms = self.parent
        parities = [ms.algebra.space.parity(p) for p in sorted(self.span.rows)]
        assert parities == sorted(parities), "RREF basis is not even-first"
        sub, _ = subalgebra(ms.algebra, self.basis_vectors(),
                            name=f"({ms.algebra.name})^Gamma")
        return sub


def gamma_element_action(ms: MapSuper, arows, qrows) -> dict:
    """Sparse column dict of the diagonal action of one group element on
    g (x) A: column idx -> image coordinate dict."""
    cols = {}
    na = ms.coeff.dim
    for (xi, aj), idx in ms.pair_index.items():
        out = {}
        for xk in range(ms.g.dim):
            cq = qrows[xk][xi]
            if cq.is_zero:
                continue
            for al in range(na):
                ca = arows[al][aj]
                if not ca.is_zero:
                    out[ms.pair_index[(xk, al)]] = cq * ca
        cols[idx] = out
    return cols


def _averaged(actions, idx: int, scale) -> dict:
    """(1/|Gamma|) sum_gamma gamma(e_idx), sparse, given each element's
    action as a gamma_element_action column dict and scale = 1/|Gamma|."""
    avg = {}
    for cols in actions:
        for k, v in cols[idx].items():
            cur = avg.get(k)
            nxt = v if cur is None else cur + v
            if nxt.is_zero:
                avg.pop(k, None)
            else:
                avg[k] = nxt
    return {k: v * scale for k, v in avg.items()}


def invariants(ms: MapSuper, act: GammaAction) -> InvariantSub:
    """The fixed points of Gamma on g (x) A, as the image of the averaging
    projector P = (1/|Gamma|) sum_gamma gamma.

    gamma_validate checks that every generator is an even automorphism of
    q that preserves the bracket and an algebra automorphism of A, so Gamma
    acts on g (x) A by automorphisms of Lie superalgebras
    ([x1 (x) f1, x2 (x) f2] = [x1, x2] (x) f1 f2).  Its fixed points are
    therefore a graded subalgebra, and P, which fixes them and maps
    everything into them, projects onto them: the averaged basis elements
    span the invariants, each homogeneous of its element's parity.  Each
    group element's action is computed once, here."""
    tower = ms.tower
    if act.is_trivial():
        report = {"valid": True, "free": True, "orbits":
                  [[k] for k in range(len(ms.coeff.maximal_ideals))],
                  "failures": [], "point_permutations":
                  [list(range(len(ms.coeff.maximal_ideals)))]}
        one = tower.one()
        averaged = [{idx: one} for idx in range(ms.dim)]
    else:
        report = gamma_validate(act, ms.coeff, ms.qd)
        if not report["valid"]:
            raise ValueError("group action failed validation: "
                             + "; ".join(report["failures"]))
        elements = act.elements()
        scale = tower.from_int(len(elements)).inv()
        actions = [gamma_element_action(ms, ar, qr) for ar, qr in elements]
        averaged = [_averaged(actions, idx, scale) for idx in range(ms.dim)]
    return InvariantSub(ms, act, Span(tower, averaged), averaged, report)


# ---------------------------------------------------------------------------
# Evaluation maps
# ---------------------------------------------------------------------------


class EvMap:
    """Surjection g (x) A -> (+)_i g at pairwise distinct maximal ideals,
    as an explicit matrix: row t * dim g + x is coordinate x of the copy
    of g at the t-th point."""

    def __init__(self, ms: MapSuper, point_indices):
        if len(set(point_indices)) != len(point_indices):
            raise ValueError("maximal ideals must be pairwise distinct")
        self.ms = ms
        self.points = list(point_indices)
        tower = ms.tower
        g = ms.g
        rows = zero_rows(tower, g.dim * len(self.points), ms.dim)
        for (xi, aj), idx in ms.pair_index.items():
            for t, p in enumerate(self.points):
                val = ms.coeff.evaluate(p, {aj: tower.one()})
                if not val.is_zero:
                    rows[t * g.dim + xi][idx] = val
        self.rows = rows

    def apply(self, coords: dict) -> dict:
        out = {}
        tower = self.ms.tower
        for idx, c in coords.items():
            for i in range(len(self.rows)):
                v = self.rows[i][idx]
                if not v.is_zero:
                    cur = out.get(i)
                    nxt = c * v if cur is None else cur + c * v
                    if nxt.is_zero:
                        out.pop(i, None)
                    else:
                        out[i] = nxt
        return out


def ev_gamma_rank(inv: InvariantSub, point_indices) -> int:
    """Rank of the evaluation map at the given points restricted to the
    invariants, which the averaged basis elements span; the points must
    lie in pairwise distinct orbits."""
    orbit_of = {p: oi for oi, orb in enumerate(inv.gamma_report["orbits"])
                for p in orb}
    if len({orbit_of[p] for p in point_indices}) != len(point_indices):
        raise ValueError("points must lie in pairwise distinct orbits")
    emap = EvMap(inv.parent, point_indices)
    return Span(inv.tower, (emap.apply(v) for v in inv.averaged)).dim


# ---------------------------------------------------------------------------
# Annihilators and supports
# ---------------------------------------------------------------------------


def _annihilator(module, ms: MapSuper, element):
    """(Ann_A(V), Supp(V), reduced?) of a module over a subalgebra of
    g (x) A that contains element(x, j) for every basis x of g and a_j of
    A, given in the module's coordinates.

    J = {a : rho(element(x, a)) = 0 for every x} is one kernel over dim A
    columns, fed one operator entry at a time and stopped as soon as its
    constraints have full rank (then J = 0).  Ann is the largest ideal
    inside J, {a : b a in J for every basis b}: the kernel of the rows
    c L_b, for c a constraint row of J and L_b multiplication by b."""
    tower = ms.tower
    coeff = ms.coeff
    na = coeff.dim
    one = tower.one()
    cons = Span(tower)
    for xi in range(ms.g.dim):
        if cons.dim == na:
            break
        mats = [module.op_entries(element(xi, j)) for j in range(na)]
        for key in dict.fromkeys(k for mset in mats for k in mset):
            if cons.add({j: mset[key] for j, mset in enumerate(mats)
                         if key in mset}) and cons.dim == na:
                break
    if cons.dim == na:
        ann = IdealRep(coeff, [])
    else:
        constraints = cons.basis_vectors(na)
        rows = []
        for b in range(na):
            lb = [coeff.product({b: one}, {j: one}) for j in range(na)]
            for c in constraints:
                rows.append([sum((c[i] * v for i, v in lb[j].items()
                                  if not c[i].is_zero), tower.zero())
                             for j in range(na)])
        ann = IdealRep(coeff, mat_kernel(rows, na, tower))
    ann.verify()
    supp = support(ann)
    reduced = radical(ann) == ann
    return ann, supp, reduced


def ann_and_support(module, ms: MapSuper):
    """(Ann_A(V), Supp(V), reduced?) for a module over g (x) A.

    Ann is the largest ideal with (g (x) I) V = 0; the module must expose
    op_entries(coords) returning the sparse entries of the operator."""
    one = ms.tower.one()
    return _annihilator(module, ms,
                        lambda xi, j: {ms.pair_index[(xi, j)]: one})


def ann_and_support_gamma(module, inv: InvariantSub):
    """Twisted variant: the largest Gamma-invariant ideal I with
    (g (x) I)^Gamma V = 0, for a module over g (x) A on which the
    invariants act through the inclusion: (x (x) a_j)^Gamma is the
    averaged basis element inv.averaged[x (x) a_j], applied in g (x) A
    coordinates."""
    ms = inv.parent
    return _annihilator(module, ms,
                        lambda xi, j: inv.averaged[ms.pair_index[(xi, j)]])
