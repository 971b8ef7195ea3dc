"""Irreducible finite-dimensional modules over the Cartan part h (x) A.

For a functional psi on the even part, the machinery computes the largest
ideal killed by psi, the induced symmetric form on the odd part modulo
that ideal, its nondegenerate reduction, and realizes the unique
irreducible module as a Clifford module of dimension 2^ceil(r/2).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .assocsuper import (QuadraticPair, clifford_generators,
                         density_type_from_maps)
from .coeffalg import CoeffAlgebra, IdealRep, QuotientAlgebra
from .graded import (GradedMap, GradedSpace, Span, add_entries,
                     homogeneous_entries, mat_kernel, odd_schur, solve_columns)
from .liesuper import WeightModule, basis_subalgebra, is_isomorphic_weight
from .mapsuper import tensor_lie
from .queer import QueerData
from .scalars import Scalar, scalar_from_json


class CartanAlgebra:
    """h (x) A with canonical generator order: even pairs h_i (x) a_j
    first (i major), then odd pairs h'_i (x) a_j."""

    def __init__(self, qd: QueerData, coeff: CoeffAlgebra):
        self.qd = qd
        self.coeff = coeff
        self.tower = qd.tower
        # h is spanned by basis vectors of q, so its table is q's,
        # restricted (with a closure check)
        self.h = basis_subalgebra(qd.algebra, qd.cartan_indices, name="h")
        self.ms = tensor_lie(self.h, coeff)
        self.n = qd.n
        self.na = coeff.dim
        self.n_even = self.n * self.na

    @property
    def dim(self) -> int:
        return self.ms.dim

    def even_pair(self, i: int, j: int) -> int:
        """Generator index of h_i (x) a_j (0-based i < n, j < dim A)."""
        return i * self.na + j

    def odd_bracket_even_coords(self, i1: int, i2: int):
        """[h'_{i1}, h'_{i2}] expanded over h_1..h_n (inside h alone)."""
        one = self.tower.one()
        br = self.h.bracket({self.n + i1: one}, {self.n + i2: one})
        return br  # keys < n by construction


class PsiFunctional:
    """Functional on the even Cartan part of h (x) A, stored as its values
    on the canonical basis h_i (x) a_j."""

    def __init__(self, ctx: CartanAlgebra, values):
        self.ctx = ctx
        vals = list(values)
        if len(vals) != ctx.n_even:
            raise ValueError("wrong number of values")
        self.values = [ctx.tower._coerce(v) for v in vals]

    @classmethod
    def zero(cls, ctx: CartanAlgebra):
        return cls(ctx, [ctx.tower.zero()] * ctx.n_even)

    @classmethod
    def from_pairs(cls, ctx: CartanAlgebra, pairs):
        """pairs: iterable of (h_label, a_label, scalar), e.g.
        ("h1", "t", value); scalars may be exact strings like "3/2+i".
        A pair given twice is a ValueError, not a sum."""
        vals = [ctx.tower.zero()] * ctx.n_even
        seen = set()
        h_labels = {f"h{i + 1}": i for i in range(ctx.n)}
        a_labels = {lbl: j for j, lbl in enumerate(ctx.coeff.space.labels)}
        for entry in pairs:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ValueError("each value must be an [h_label, a_label, "
                                 f"scalar] triple, not {entry!r}")
            h_lbl, a_lbl, v = entry
            if not isinstance(h_lbl, str) or h_lbl not in h_labels:
                raise ValueError(f"unknown Cartan label {h_lbl!r}")
            if not isinstance(a_lbl, str) or a_lbl not in a_labels:
                raise ValueError(f"unknown coefficient label {a_lbl!r}")
            if (h_lbl, a_lbl) in seen:
                raise ValueError(f"repeated value for {(h_lbl, a_lbl)!r}")
            seen.add((h_lbl, a_lbl))
            vals[ctx.even_pair(h_labels[h_lbl], a_labels[a_lbl])] = \
                scalar_from_json(ctx.tower, v)
        return cls(ctx, vals)

    @classmethod
    def evaluation(cls, ctx: CartanAlgebra, point: int, lam):
        """psi = lambda composed with evaluation at a declared maximal
        ideal; lam is the list of values on h_1..h_n."""
        vals = []
        one = ctx.tower.one()
        for i in range(ctx.n):
            li = ctx.tower._coerce(lam[i])
            for j in range(ctx.na):
                vals.append(li * ctx.coeff.evaluate(point, {j: one}))
        return cls(ctx, vals)

    def __add__(self, other):
        return PsiFunctional(self.ctx, [a + b for a, b in
                                        zip(self.values, other.values)])

    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.values)

    def __eq__(self, other):
        return isinstance(other, PsiFunctional) and self.values == other.values

    def value(self, i: int, j: int) -> Scalar:
        return self.values[self.ctx.even_pair(i, j)]

    def eval_even(self, h_coords: dict, a_coords: dict) -> Scalar:
        """psi(h (x) a) for h over h_1..h_n and a over the A basis."""
        acc = self.ctx.tower.zero()
        for i, ch in h_coords.items():
            for j, ca in a_coords.items():
                v = self.values[self.ctx.even_pair(i, j)]
                if not v.is_zero:
                    acc = acc + ch * ca * v
        return acc

    def restriction_to_q(self):
        """lambda = psi restricted to h (x) 1: weight tuple on h_1..h_n."""
        unit = self.ctx.coeff.unit
        # unit may involve several basis vectors in a quotient; evaluate
        return tuple(self.eval_even({i: self.ctx.tower.one()}, unit)
                     for i in range(self.ctx.n))

    @cached_property
    def clifford_data(self) -> "CliffordData":
        """The CliffordData of psi, built on first read: every H(psi),
        whatever its pivot order, reads this one (pivot_order only enters
        clifford_generators).  CliffordData keeps no reference to psi, so
        the two form no cycle and are freed with psi."""
        return CliffordData(self)

    def kills(self, ideal: IdealRep) -> bool:
        """psi(h0 (x) I) == 0."""
        for a_coords in ideal.vectors:
            for i in range(self.ctx.n):
                if not self.eval_even({i: self.ctx.tower.one()}, a_coords).is_zero:
                    return False
        return True


def i_psi(psi: PsiFunctional) -> IdealRep:
    """Largest ideal I with psi(h0 (x) I) = 0, by one annihilator solve:
    I = {a : psi(h_i (x) b a) = 0 for all i, b}."""
    ctx = psi.ctx
    tower = ctx.tower
    na = ctx.na
    one = tower.one()
    rows = []
    for i in range(ctx.n):
        for b in range(na):
            row = {}
            for j in range(na):
                x = psi.eval_even({i: one}, ctx.coeff.mult[b][j])
                if x.co:
                    row[j] = x
            rows.append(row)
    ideal = IdealRep(ctx.coeff, mat_kernel(rows, na, tower))
    ideal.verify()
    return ideal


class CliffordData:
    """The quadratic data extracted from psi: the quotient A/I_psi, the
    form f_psi(x, y) = psi([x, y]) on the odd part h' (x) A/I_psi, its
    radical and the nondegenerate reduction.

    The odd basis is adapted to the points of A/I_psi: for each kept
    point x, in declared order, the pairs h'_i (x) v over the RREF basis v
    of e_x A/I_psi (i major), with e_x the point's idempotent.  Since
    e_x e_y = 0 for x != y, gram is block diagonal by point, so the
    Clifford generators pair lines of one point and each square root they
    adjoin is one point's square class.  With one point the block is the
    whole quotient in its monomial basis, and no idempotent is computed.
    odd_basis lists the pairs (i, v) with v a coordinate dict on A/I_psi;
    gram (one coordinate dict per row) and reduced_gram (dense: the form
    of a QuadraticPair, on gram's pivot rows) refer to that basis, while
    the rows _proj_rows, the projection to the reduced coordinates modulo
    the radical of f_psi, are in monomial coordinates, entry
    i * dim(A/I_psi) + j for h'_i (x) the j-th basis vector of
    A/I_psi."""

    def __init__(self, psi: PsiFunctional):
        if psi.is_zero():
            raise ValueError("psi = 0 carries no Clifford data; the module "
                             "is trivial")
        ctx = psi.ctx
        tower = ctx.tower
        one = tower.one()
        self.ideal = i_psi(psi)
        quotient = self.quotient = QuotientAlgebra(ctx.coeff, self.ideal)
        nq = quotient.dim
        if len(quotient.eval_functionals) > 1:
            blocks = [Span(tower, [quotient.product(e, {j: one})
                                   for j in range(nq)]).basis_vectors()
                      for e in quotient.idempotents]
        else:
            blocks = [[{j: one} for j in range(nq)]]
        hbr = [[ctx.odd_bracket_even_coords(i1, i2) for i2 in range(ctx.n)]
               for i1 in range(ctx.n)]
        self.odd_basis = [(i, v) for block in blocks
                          for i in range(ctx.n) for v in block]
        n_odd = len(self.odd_basis)
        # Gram matrix of f_psi, one diagonal block per point
        gram = []
        start = 0
        for block in blocks:
            prods = [[quotient.lift(quotient.product(u, v)) for v in block]
                     for u in block]
            size = len(block)
            for a in range(ctx.n * size):
                i1, k1 = divmod(a, size)
                row = {}
                for b in range(ctx.n * size):
                    i2, k2 = divmod(b, size)
                    x = psi.eval_even(hbr[i1][i2], prods[k1][k2])
                    if x.co:
                        row[start + b] = x
                gram.append(row)
            start += ctx.n * size
        self.gram = gram
        gram_span = Span(tower, gram)
        pivots = sorted(gram_span.rows)
        self.rank = len(pivots)
        zero = tower.zero()
        self.reduced_gram = [[gram[p].get(q, zero) for q in pivots]
                             for p in pivots]

        def monomial(terms):
            """sum c * odd_basis[a] over (a, c) in terms, in monomial
            coordinates."""
            out: dict = {}
            for a, c in terms:
                i, v = self.odd_basis[a]
                add_entries(out, ((i * nq + j, c * x) for j, x in v.items()))
            return out
        radical = [monomial(k.items()) for k in gram_span.kernel(n_odd)]
        # projection to the reduced odd coordinates, modulo the radical:
        # columns are the pivot basis vectors, then the radical
        cols = [monomial([(p, one)]) for p in pivots] + radical
        self._proj_rows = [{} for _ in range(n_odd)]
        for c, col in enumerate(cols):
            for t, x in col.items():
                self._proj_rows[t][c] = x


class HModule:
    """The irreducible h (x) A module attached to psi.

    cartan_mats follows the canonical Cartan generator order of the
    CartanAlgebra (even pairs then odd pairs); the even part acts by the
    psi scalars and the radical of f_psi acts by zero.  The odd part acts
    through generator_maps, the Clifford generators of the reduced form
    (psi/2 on the nondegenerate reduction) from
    assocsuper.clifford_generators, which checks the Clifford relations on
    the carrier; the Clifford algebra and its monomial matrices are never
    built.  That model splits hyperbolic planes off the form (a Witt
    decomposition), so a form that is hyperbolic over the field of psi,
    up to one leftover line for odd rank, adjoins no square root.  phi,
    the odd Schur endomorphism of odd rank, is built lazily on first
    read.
    """

    def __init__(self, psi: PsiFunctional, pivot_order=None):
        ctx = psi.ctx
        tower = ctx.tower
        self.psi = psi
        self.ctx = ctx
        if psi.is_zero():
            self.data = None
            self.rank = 0
            self.carrier = GradedSpace(1, 0)
            zero_map = GradedMap.zero(tower, self.carrier, self.carrier)
            self.cartan_mats = [zero_map] * ctx.dim
            return
        data = psi.clifford_data
        self.data = data
        self.rank = data.rank
        half = tower.from_fraction(Fraction(1, 2))
        pair = QuadraticPair(tower, [[half * x for x in row]
                                     for row in data.reduced_gram])
        if data.rank > 0:
            self.carrier, gen_maps = clifford_generators(
                pair, pivot_order=pivot_order)
        else:
            self.carrier = GradedSpace(1, 0)
            gen_maps = []
        self.generator_maps = gen_maps
        ident = GradedMap.identity(tower, self.carrier)
        mats = []
        for i in range(ctx.n):
            for j in range(ctx.na):
                mats.append(ident * psi.value(i, j))
        # reduced coordinates of every odd pair h'_i (x) a_j, modulo the
        # radical, from one elimination
        nq = data.quotient.dim
        proj = data._proj_rows
        images = [data.quotient.project({j: tower.one()})
                  for j in range(ctx.na)]
        sols = solve_columns(proj, [{i * nq + jq: c for jq, c in img.items()}
                                    for i in range(ctx.n) for img in images],
                             len(proj), tower)
        if sols is None:
            raise AssertionError("odd vector outside span of reduction data")
        for sol in sols:
            mats.append(GradedMap.combination(
                tower, self.carrier, self.carrier,
                ((c, gen_maps[k]) for k, c in sol.items() if k < data.rank)))
        self.cartan_mats = mats

    @property
    def dim(self) -> int:
        return self.carrier.dim

    def as_lie_module(self) -> WeightModule:
        """The one-weight module over h (x) A on the carrier."""
        return WeightModule.from_flat(self.ctx.ms.algebra, self.carrier,
                                      self.cartan_mats)

    @cached_property
    def phi(self):
        """For odd rank, an odd endomorphism supercommuting with the
        action, normalized to phi^2 = -id; None for even rank.  Built on
        first read, so a square root is adjoined for the normalization
        only when phi is read."""
        if self.rank % 2 == 0:
            return None
        tower = self.ctx.tower
        found = odd_schur(homogeneous_entries(self.cartan_mats), self.carrier,
                          tower)
        if found is None:
            raise AssertionError("no odd Schur endomorphism found for odd rank")
        phi, c = found
        return phi * tower.adjoin_sqrt(-c.inv())


def build_H(psi: PsiFunctional, pivot_order=None) -> HModule:
    return HModule(psi, pivot_order=pivot_order)


def classify_cartan_module(v: WeightModule, ctx: CartanAlgebra):
    """Read psi off an irreducible h (x) A module and produce an explicit
    isomorphism witness onto build_H(psi): an invertible map T from
    v.space to the model's carrier with T rho_v(x) = rho_H(x) T."""
    d = density_type_from_maps(v.mats, v.space, ctx.tower)
    if not d.certifies_irreducible:
        raise ValueError(f"module is not irreducible (oracle: {d!r})")
    vals = v.scalars_on((), range(ctx.n_even))
    if vals is None:
        raise ValueError("even Cartan part does not act by scalars")
    psi = PsiFunctional(ctx, list(vals.values()))
    h = build_H(psi)
    ok, witness = is_isomorphic_weight(v, h.as_lie_module())
    if not ok:
        raise AssertionError("no isomorphism onto the model module found")
    return psi, witness
