"""Map superalgebras g (x) A, their equivariant subalgebras, evaluation
maps onto sums of copies of g at maximal ideals, and annihilator/support
computation for modules."""

from __future__ import annotations

from .coeffalg import (CoeffAlgebra, GammaAction, IdealRep, gamma_validate,
                       ideal_product, radical, support)
from .graded import Span, mat_kernel, mat_rank, zero_rows
from .liesuper import GradedSpaceMixed, LieSuper, direct_sum, subalgebra
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
        self.gen_root = {}
        for (x, j), idx in self.pair_index.items():
            w = qd.weight_of({x: self.g.tower.one()})
            self.gen_root[idx] = w

    @property
    def tower(self) -> Tower:
        return self.g.tower

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def pair_of(self, idx: int):
        na = self.coeff.dim
        return idx // na, idx % na

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
    [x1 (x) f1, x2 (x) f2] = [x1, x2] (x) f1 f2."""
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
    space = GradedSpaceMixed(parities, tuple(labels))
    dim = len(labels)
    one = tower.one()
    bk = [[{} for _ in range(dim)] for _ in range(dim)]
    prod_cache = [[coeff.product({p: one}, {q: one}) for q in range(na)]
                  for p in range(na)]
    for (xi, aj), r in pair_index.items():
        for (xk, al), c in pair_index.items():
            br = g.bk[xi][xk]
            if not br:
                continue
            fprod = prod_cache[aj][al]
            if not fprod:
                continue
            out = {}
            for xt, s in br.items():
                for at, sa in fprod.items():
                    v = s * sa
                    if not v.is_zero:
                        out[pair_index[(xt, at)]] = v
            bk[r][c] = out
    algebra = LieSuper(tower, space, bk, name=f"{g.name}(x){coeff.name}")
    return MapSuper(g, coeff, algebra, pair_index, qd=qd)


# ---------------------------------------------------------------------------
# Equivariant subalgebras
# ---------------------------------------------------------------------------


class InvariantSub:
    """Fixed points of the diagonal action, with its own Lie structure and
    the embedding into the ambient map superalgebra."""

    def __init__(self, parent: MapSuper, act: GammaAction, algebra: LieSuper,
                 basis_vectors, report: dict):
        self.parent = parent
        self.act = act
        self.algebra = algebra
        self.basis_vectors = basis_vectors  # dense, in parent coordinates
        self.gamma_report = report
        # the basis is an RREF up to order: vector j is 1 at its pivot
        # column (its first nonzero entry) and every other vector is 0 there
        one = parent.tower.one()
        self._pivots = []
        for j, vec in enumerate(basis_vectors):
            p = next((k for k, v in enumerate(vec) if not v.is_zero), 0)
            col = [b[p] for b in basis_vectors]
            if col[j] != one or sum(not x.is_zero for x in col) != 1:
                raise ValueError("invariant basis is not in reduced row "
                                 "echelon form")
            self._pivots.append(p)

    @property
    def tower(self):
        return self.parent.tower

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def embed(self, coords: dict) -> dict:
        out = {}
        for i, c in coords.items():
            for k, v in enumerate(self.basis_vectors[i]):
                if not v.is_zero:
                    cur = out.get(k)
                    nxt = c * v if cur is None else cur + c * v
                    if nxt.is_zero:
                        out.pop(k, None)
                    else:
                        out[k] = nxt
        return out

    def coords_of(self, parent_coords: dict):
        """Invariant-basis coordinates of an ambient vector, or None when
        it is not invariant.  Coordinate j is the vector's entry at the
        pivot column of basis vector j; the sum is then checked exactly."""
        zero = self.tower.zero()
        coords = [parent_coords.get(p, zero) for p in self._pivots]
        target = {k: v for k, v in parent_coords.items() if not v.is_zero}
        if self.embed({j: c for j, c in enumerate(coords)
                       if not c.is_zero}) != target:
            return None
        return coords


def gamma_element_action(ms: MapSuper, arows, qrows) -> dict:
    """Sparse column dict of the diagonal action of one group element on
    g (x) A: column idx -> image coordinate dict."""
    cols = {}
    tower = ms.tower
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


def invariants(ms: MapSuper, act: GammaAction, qd_for_report=None) -> InvariantSub:
    """Image of the averaging projector (1/|Gamma|) sum_gamma gamma, as a
    Lie subalgebra (bracket closure is re-verified by construction)."""
    tower = ms.tower
    if qd_for_report is None:
        qd_for_report = ms.qd
    if act.is_trivial():
        report = {"valid": True, "free": True, "orbits":
                  [[k] for k in range(len(ms.coeff.maximal_ideals))],
                  "failures": [], "point_permutations":
                  [list(range(len(ms.coeff.maximal_ideals)))]}
        one = tower.one()
        vecs = [[one if i == j else tower.zero() for i in range(ms.dim)]
                for j in range(ms.dim)]
        return InvariantSub(ms, act, ms.algebra, vecs, report)
    report = gamma_validate(act, ms.coeff, qd_for_report)
    if not report["valid"]:
        raise ValueError("group action failed validation: "
                         + "; ".join(report["failures"]))
    elements = act.elements()
    scale = tower.from_int(len(elements)).inv()
    sp = Span(tower)
    actions = [gamma_element_action(ms, ar, qr) for ar, qr in elements]
    for idx in range(ms.dim):
        avg = {}
        for cols in actions:
            for k, v in cols[idx].items():
                cur = avg.get(k)
                nxt = v if cur is None else cur + v
                if nxt.is_zero:
                    avg.pop(k, None)
                else:
                    avg[k] = nxt
        avg = {k: v * scale for k, v in avg.items()}
        if avg:
            sp.add(avg)
    vecs = sp.basis_vectors(ms.dim)
    sub, emb = subalgebra(ms.algebra, vecs, name=f"({ms.algebra.name})^Gamma")
    # subalgebra() reorders basis vectors even-first; read its order off
    # the embedding columns
    ordered = [[emb.rows[i][j] for i in range(ms.dim)] for j in range(sub.dim)]
    return InvariantSub(ms, act, sub, ordered, report)


# ---------------------------------------------------------------------------
# Evaluation maps
# ---------------------------------------------------------------------------


class EvMap:
    """Surjection g (x) A -> (+)_i g at pairwise distinct maximal ideals,
    with explicit matrix; target is the external direct sum of copies of g."""

    def __init__(self, ms: MapSuper, point_indices):
        if len(set(point_indices)) != len(point_indices):
            raise ValueError("maximal ideals must be pairwise distinct")
        self.ms = ms
        self.points = list(point_indices)
        tower = ms.tower
        g = ms.g
        k = len(self.points)
        target = g
        for _ in range(k - 1):
            target = direct_sum(target, g)
        self.target = target if k > 1 else g
        rows = zero_rows(tower, g.dim * k, ms.dim)
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

    def rank(self) -> int:
        return mat_rank(self.rows, self.ms.dim, self.ms.tower)

    def is_surjective(self) -> bool:
        return self.rank() == len(self.rows)

    def kernel_matches_product_ideal(self) -> bool:
        """ker(ev) = g (x) prod m_i, verified exactly."""
        ms = self.ms
        tower = ms.tower
        prod = None
        for p in self.points:
            m = ms.coeff.maximal_ideals[p]
            prod = m if prod is None else ideal_product(prod, m)
        expected = Span(tower)
        for xi in range(ms.g.dim):
            for v in prod.basis:
                expected.add(ms.embed_g({xi: tower.one()},
                                        {j: s for j, s in enumerate(v)
                                         if not s.is_zero}))
        kern = mat_kernel(self.rows, ms.dim, tower)
        if len(kern) != expected.dim:
            return False
        return all(expected.contains(v) for v in kern)


def ev(ms: MapSuper, point_indices) -> EvMap:
    return EvMap(ms, point_indices)


def ev_gamma(inv: InvariantSub, point_indices):
    """Restriction of the evaluation map to the invariant subalgebra;
    requires the chosen points to lie in pairwise distinct orbits."""
    orbits = inv.gamma_report["orbits"]
    orbit_of = {}
    for oi, orb in enumerate(orbits):
        for p in orb:
            orbit_of[p] = oi
    seen = set()
    for p in point_indices:
        o = orbit_of[p]
        if o in seen:
            raise ValueError("points must lie in pairwise distinct orbits")
        seen.add(o)
    emap = EvMap(inv.parent, point_indices)
    tower = inv.tower
    rows = zero_rows(tower, len(emap.rows), inv.dim)
    for j, vec in enumerate(inv.basis_vectors):
        img = emap.apply({k: v for k, v in enumerate(vec) if not v.is_zero})
        for i, v in img.items():
            rows[i][j] = v
    return emap, rows


def ev_gamma_rank(inv: InvariantSub, point_indices) -> int:
    emap, rows = ev_gamma(inv, point_indices)
    return mat_rank(rows, inv.dim, inv.tower)


# ---------------------------------------------------------------------------
# Annihilators and supports
# ---------------------------------------------------------------------------


def ann_and_support(module, ms: MapSuper):
    """(Ann_A(V), Supp(V), reduced?) for a module over g (x) A.

    Ann is the largest ideal with (g (x) I) V = 0, computed as
    {a : rho(x (x) b a) = 0 for all x, b}; the module must expose
    op_entries(coords) returning the sparse entries of the operator."""
    tower = ms.tower
    na = ms.coeff.dim
    one = tower.one()
    rows = []
    for xi in range(ms.g.dim):
        for b in range(na):
            mats = []
            for j in range(na):
                prod = ms.coeff.product({b: one}, {j: one})
                coords = ms.embed_g({xi: one}, prod)
                mats.append(module.op_entries(coords))
            # the kernel is an RREF, so the row order does not matter
            keys = dict.fromkeys(k for mset in mats for k in mset)
            for key in keys:
                rows.append([mset.get(key, tower.zero()) for mset in mats])
    ann = IdealRep(ms.coeff, mat_kernel(rows, na, tower))
    ann.verify()
    supp = support(ann)
    reduced = radical(ann) == ann
    return ann, supp, reduced


def ann_and_support_gamma(module, inv: InvariantSub):
    """Twisted variant: the largest Gamma-invariant ideal I with
    (g (x) I)^Gamma V = 0, via the averaged generators."""
    ms = inv.parent
    tower = ms.tower
    na = ms.coeff.dim
    one = tower.one()
    elements = inv.act.elements()
    actions = [gamma_element_action(ms, ar, qr) for ar, qr in elements] \
        if not inv.act.is_trivial() else None
    scale = tower.from_int(max(1, len(elements))).inv() if elements else tower.one()

    def average(coords: dict) -> dict:
        if actions is None:
            return coords
        avg = {}
        for cols in actions:
            for idx, c in coords.items():
                for k, v in cols[idx].items():
                    cur = avg.get(k)
                    nxt = c * v if cur is None else cur + c * v
                    if nxt.is_zero:
                        avg.pop(k, None)
                    else:
                        avg[k] = nxt
        return {k: v * scale for k, v in avg.items()}

    rows = []
    for xi in range(ms.g.dim):
        for b in range(na):
            mats = []
            for j in range(na):
                prod = ms.coeff.product({b: one}, {j: one})
                amb = average(ms.embed_g({xi: one}, prod))
                coords = inv.coords_of(amb)
                if coords is None:
                    raise AssertionError("averaged element left the invariants")
                cd = {k: v for k, v in enumerate(coords) if not v.is_zero}
                mats.append(module.op_entries(cd))
            # the kernel is an RREF, so the row order does not matter
            keys = dict.fromkeys(k for mset in mats for k in mset)
            for key in keys:
                rows.append([mset.get(key, tower.zero()) for mset in mats])
    ann = IdealRep(ms.coeff, mat_kernel(rows, na, tower))
    ann.verify()
    supp = support(ann)
    reduced = radical(ann) == ann
    return ann, supp, reduced
