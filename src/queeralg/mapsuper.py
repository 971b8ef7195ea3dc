"""Map superalgebras g (x) A, their equivariant subalgebras, evaluation
maps onto sums of copies of g at maximal ideals, and annihilator/support
computation for modules."""

from __future__ import annotations

from functools import cached_property

from .coeffalg import (CoeffAlgebra, GammaAction, IdealRep, gamma_validate,
                       radical, support)
from .graded import GradedMap, GradedSpace, Span, add_entries, mat_kernel
from .liesuper import LieSuper, subalgebra
from .queer import QueerData
from .scalars import Tower


class MapSuper:
    """g (x) A with basis x_i (x) a_j, ordered g-major (so the global
    even-before-odd convention is inherited from g): pair_index[(i, j)]
    is the index of x_i (x) a_j.  When g is a queer algebra its root data
    are carried over: the even Cartan generators h0_gens, the simple
    raising generators and each generator's root (the triangular split is
    algebra.triangular).

    The bracket table of g (x) A (algebra) is built on first read:
    classify reads only the basis, the root data and A, and never builds
    it."""

    def __init__(self, g: LieSuper, coeff: CoeffAlgebra, pair_index,
                 qd: QueerData | None = None):
        self.g = g
        self.coeff = coeff
        self.pair_index = pair_index
        self.qd = qd
        if qd is not None:
            self._index_triangular(qd)

    def _index_triangular(self, qd: QueerData):
        na = self.coeff.dim
        self.h0_gens = [self.pair_index[(x, j)] for x in qd.h0_indices
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
        return len(self.pair_index)

    @cached_property
    def algebra(self) -> LieSuper:
        """Structure constants of g (x) A from those of g and A:
        [x1 (x) f1, x2 (x) f2] = [x1, x2] (x) f1 f2.

        Only nonzero brackets of g are visited.  Where f1 f2 is a single
        basis element with coefficient exactly 1, the bracket's entries
        are copied, not multiplied.  When A is one-dimensional with
        1 * 1 = 1 (the base field), g (x) A is g relabeled and shares g's
        table and generators outright: no code mutates a bracket table
        after construction.  Otherwise its generators are the whole
        basis.  Every bracket dict keeps the key order of the
        entry-by-entry product, [x1, x2]'s entries major and f1 f2's
        minor.  Each piece of g's triangular split becomes the x (x) a_j
        for its x, g-major."""
        g, coeff = self.g, self.coeff
        tower = g.tower
        na = coeff.dim
        space = GradedSpace.from_parities(
            [g.space.parity(xi) for xi, _ in self.pair_index],
            tuple(f"{g.space.labels[xi]}(x){coeff.space.labels[aj]}"
                  for xi, aj in self.pair_index))
        name = f"{g.name}(x){coeff.name}"
        one = tower.one()
        prods = [[tuple(coeff.mult[p][q].items()) for q in range(na)]
                 for p in range(na)]
        if na == 1 and prods[0][0] == ((0, one),):
            return g.relabeled(space, name)
        # the terms (t, c) of each a_j a_l, with c None for a coefficient 1
        terms = [[tuple((at, None if sa == one else sa) for at, sa in fp)
                  for fp in row] for row in prods]
        dim = self.dim
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
        tri = None if g.triangular is None else \
            tuple([self.pair_index[(x, j)] for x in part for j in range(na)]
                  for part in g.triangular)
        return LieSuper(tower, space, bk, name=name, triangular=tri)

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
    """g (x) A for a Lie superalgebra g or a QueerData (whose root data
    the result carries), with basis x_i (x) a_j, g-major.  Its bracket
    table, MapSuper.algebra, is built on first read."""
    qd = None
    if isinstance(g, QueerData):
        qd, g = g, g.algebra
    na = coeff.dim
    pair_index = {(xi, aj): xi * na + aj
                  for xi in range(g.dim) for aj in range(na)}
    return MapSuper(g, coeff, pair_index, qd=qd)


# ---------------------------------------------------------------------------
# Equivariant subalgebras
# ---------------------------------------------------------------------------


class InvariantSub:
    """Fixed points (g (x) A)^Gamma of the diagonal action.

    averaged[idx] is (1/|Gamma|) sum_gamma gamma(e_idx) for every basis
    element e_idx of g (x) A, sparse; they span the invariants.  span,
    their RREF Span in g (x) A coordinates, and the Lie superalgebra on
    the invariants (algebra) are built only when read."""

    def __init__(self, parent: MapSuper, act: GammaAction, averaged: list,
                 report: dict):
        self.parent = parent
        self.act = act
        self.averaged = averaged
        self.gamma_report = report

    @cached_property
    def span(self) -> Span:
        return Span(self.tower, self.averaged)

    @property
    def tower(self):
        return self.parent.tower

    @property
    def dim(self) -> int:
        return self.span.dim

    def basis_vectors(self):
        """The RREF basis in g (x) A coordinates, in pivot order."""
        return self.span.basis_vectors()

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


def gamma_element_action(ms: MapSuper, a_map: GradedMap,
                         q_map: GradedMap) -> dict:
    """Sparse column dict of the diagonal action of one group element on
    g (x) A: column idx -> image coordinate dict.  The image of
    x_i (x) a_j pairs the column i of q_map with the column j of a_map;
    distinct pairs of entries land on distinct basis elements."""
    qcols, acols = q_map.columns(), a_map.columns()
    pair = ms.pair_index
    return {idx: {pair[(xk, al)]: cq * ca
                  for xk, cq in qcols.get(xi, {}).items()
                  for al, ca in acols.get(aj, {}).items()}
            for (xi, aj), idx in pair.items()}


def _averaged(actions, idx: int, scale) -> dict:
    """(1/|Gamma|) sum_gamma gamma(e_idx), sparse, given each element's
    action as a gamma_element_action column dict and scale = 1/|Gamma|."""
    avg = add_entries({}, (kv for cols in actions for kv in cols[idx].items()))
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
    group element's action is computed once, here.  Every declared
    generator is validated, one of order 1 too; only a group with no
    generators skips the check."""
    tower = ms.tower
    if not act.generators:
        report = {"valid": True, "free": True, "orbits":
                  [[k] for k in range(len(ms.coeff.maximal_ideals))],
                  "failures": []}
        one = tower.one()
        averaged = [{idx: one} for idx in range(ms.dim)]
    else:
        report = gamma_validate(act, ms.coeff, ms.qd)
        if not report["valid"]:
            raise ValueError("group action failed validation: "
                             + "; ".join(report["failures"]))
        scale = tower.from_int(len(act.elements)).inv()
        actions = [gamma_element_action(ms, a_map, q_map)
                   for a_map, q_map in act.elements]
        averaged = [_averaged(actions, idx, scale) for idx in range(ms.dim)]
    return InvariantSub(ms, act, averaged, report)


# ---------------------------------------------------------------------------
# Evaluation maps
# ---------------------------------------------------------------------------


class EvMap:
    """Surjection g (x) A -> (+)_i g at pairwise distinct maximal ideals:
    target coordinate t * dim g + x is coordinate x of the copy of g at
    the t-th point, and cols[idx] is the image of basis element idx, a
    sparse dict on the dim target coordinates."""

    def __init__(self, ms: MapSuper, point_indices):
        if len(set(point_indices)) != len(point_indices):
            raise ValueError("maximal ideals must be pairwise distinct")
        self.ms = ms
        self.points = list(point_indices)
        one = ms.tower.one()
        gdim = ms.g.dim
        self.dim = gdim * len(self.points)
        values = [[ms.coeff.evaluate(p, {aj: one}) for p in self.points]
                  for aj in range(ms.coeff.dim)]
        self.cols = {idx: {t * gdim + xi: v
                           for t, v in enumerate(values[aj]) if v.co}
                     for (xi, aj), idx in ms.pair_index.items()}

    def apply(self, coords: dict) -> dict:
        out: dict = {}
        for idx, c in coords.items():
            if c.co:
                add_entries(out, ((i, c * v)
                                  for i, v in self.cols[idx].items()))
        return out


def ev_rank(ms: MapSuper, point_indices, vectors=None) -> int:
    """Rank of evaluation at the given points on the span of vectors, in
    g (x) A coordinates (on all of g (x) A when vectors is None).  It maps
    them onto (+) g exactly when the rank is len(point_indices) * dim g,
    and reading stops there."""
    emap = EvMap(ms, point_indices)
    images = emap.cols.values() if vectors is None \
        else map(emap.apply, vectors)
    return Span(ms.tower, images, emap.dim).dim


# ---------------------------------------------------------------------------
# Annihilators and supports
# ---------------------------------------------------------------------------


def ann_and_support(module, ms: MapSuper, images=None):
    """(Ann_A(V), Supp(V), reduced?) for a WeightModule V on which basis
    element idx of g (x) A acts as images[idx], a coordinate dict over
    the module's algebra, or as itself when images is None (V is then a
    module over g (x) A).

    Ann is the largest ideal I with (g (x) I) V = 0.  J = {a : x (x) a
    acts as 0 for every x} is one kernel over dim A columns.  For each x
    its constraint rows come from the relation rows of the operators that
    the x (x) a_j act through, and it stops as soon as the constraints
    have full rank (then J = 0).  Ann is the largest ideal inside J,
    {a : b a in J for every basis b}: the kernel of the rows c L_b, for c
    a constraint row of J and L_b multiplication by b."""
    tower = ms.tower
    coeff = ms.coeff
    na = coeff.dim
    one = tower.one()
    if images is None:
        images = [{idx: one} for idx in range(ms.dim)]
    zero = tower.zero()
    cons = Span(tower)
    for xi in range(ms.g.dim):
        if cons.dim == na:
            break
        imgs = [images[ms.pair_index[(xi, j)]] for j in range(na)]
        ks = list(dict.fromkeys(k for v in imgs for k in v))
        # x (x) a acts as sum_k w_k rho(e_k) with w = sum_j a_j imgs[j],
        # which is 0 iff w is orthogonal to every relation row
        for r in module.relation_rows(ks):
            row = {}
            for j, v in enumerate(imgs):
                x = sum((rc * v[ks[c]] for c, rc in r.items() if ks[c] in v),
                        zero)
                if x.co:
                    row[j] = x
            if cons.add(row) and cons.dim == na:
                break
    if cons.dim == na:
        ann = IdealRep(coeff, [])
    else:
        constraints = cons.basis_vectors()

        def rows():   # made one at a time, as the elimination reads them
            for b in range(na):
                lb = coeff.mult[b]
                for c in constraints:
                    row = {}
                    for j in range(na):
                        x = sum((c[i] * v for i, v in lb[j].items()
                                 if i in c), tower.zero())
                        if x.co:
                            row[j] = x
                    yield row
        ann = IdealRep(coeff, mat_kernel(rows(), na, tower))
    ann.verify()
    supp = support(ann)
    reduced = radical(ann) == ann
    return ann, supp, reduced

