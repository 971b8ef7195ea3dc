"""Highest-weight machinery over map queer superalgebras: truncated
induced modules built from PBW monomials by straightening, singular
vectors, maximal submodules and simple quotients (as
liesuper.WeightModule), and the four-condition irreducibility
criterion."""

from __future__ import annotations

from itertools import product

from .assocsuper import density_type_from_maps
from .cartanmod import CartanAlgebra, PsiFunctional, build_H
from .coeffalg import IdealRep
from .graded import EVEN, Span, zero_rows
from .liesuper import WeightModule
from .mapsuper import MapSuper
from .queer import QueerData
from .scalars import QI_ONE, raw_dot, raw_mul, raw_neg, raw_of, scalar_of


# ---------------------------------------------------------------------------
# Triangular generator data
# ---------------------------------------------------------------------------


class TriangularSplit:
    """Raising / Cartan / lowering generator indices for an algebra acting
    on weight modules."""

    def __init__(self, raising, cartan, lowering):
        self.raising = list(raising)
        self.cartan = list(cartan)
        self.lowering = list(lowering)


def triangular_of_map(ms: MapSuper) -> TriangularSplit:
    return TriangularSplit(ms.raising_gens, ms.cartan_gens, ms.lowering_gens)


def triangular_of_q(qd: QueerData) -> TriangularSplit:
    """The triangular pieces of q itself, for modules over qd.algebra."""
    return TriangularSplit(qd.npos_indices, qd.cartan_indices,
                           qd.nneg_indices)


# ---------------------------------------------------------------------------
# Truncated induced modules
# ---------------------------------------------------------------------------


def _pbw_monomials(coords, n_even: int, n: int, depth: int) -> dict:
    """Every PBW monomial of height <= depth, bucketed by weight beta and
    sorted in each bucket: even positions nondecreasing, then odd
    positions strictly increasing.  One walk over an explicit stack, so
    no recursive closure ties the caller's module into a reference
    cycle."""
    heights = [sum(c) for c in coords]
    out: dict = {}
    stack = [((), 0, (0,) * n)]
    while stack:
        mono, start, beta = stack.pop()
        out.setdefault(beta, []).append(mono)
        h = sum(beta)
        for p in range(start, len(coords)):
            if h + heights[p] <= depth:
                stack.append((mono + (p,), p if p < n_even else p + 1,
                              tuple(b + c for b, c in zip(beta, coords[p]))))
    for monos in out.values():
        monos.sort()
    return out


class TruncatedVerma:
    """Weight components of the induced module for psi down to a given
    height, with PBW monomial basis and straightening-based actions.

    Monomials are tuples of lowering-generator positions: even positions
    nondecreasing, then odd positions strictly increasing (positions are
    indices into the lowering generator list, evens first).  A monomial
    is straightened once for all of H(psi) (_straighten), and act_on
    applies the Cartan operators to w_h last.  Straightening runs on raw
    entries (scalars.raw_of): the algebra's raw bracket table
    (LieSuper.raw_bk) and the Cartan matrices of H(psi), converted once,
    and blocks are sparse raw columns."""

    def __init__(self, ms: MapSuper, psi: PsiFunctional, depth: int):
        if ms.qd is None:
            raise ValueError("induced modules need the queer root structure")
        self.ms = ms
        self.qd = ms.qd
        self.psi = psi
        self.depth = depth
        self.tower = ms.tower
        self.h_mod = build_H(psi)
        self.lam = psi.restriction_to_q()
        self.lowering = list(ms.lowering_gens)
        self.low_pos = {g: p for p, g in enumerate(self.lowering)}
        self.n_even_low = sum(1 for g in self.lowering
                              if ms.algebra.space.parity(g) == EVEN)
        self.low_coords = []
        for g in self.lowering:
            root = ms.gen_root[g]
            neg = tuple(-x for x in root)
            self.low_coords.append(self.qd.roots.decompose_qplus(neg))
        # height of each lowering position (the window test of
        # _straighten)
        self.low_height = [sum(c) for c in self.low_coords]
        self._shift: dict = {}   # generator -> weight shift of its blocks
        self.cartan_pos = {g: k for k, g in enumerate(ms.cartan_gens)}
        # raw forms: bk[i][j] as (k, raw) pairs (q's own raw table when
        # A is the base field), and per Cartan generator and column h of
        # H(psi) its nonzero (k, raw), converted once
        self._bk = ms.algebra.raw_bk
        self._cartan = [[tuple((k, raw_of(mat.rows[k][h]))
                               for k in range(self.h_mod.dim)
                               if not mat.rows[k][h].is_zero)
                         for h in range(self.h_mod.dim)]
                        for mat in self.h_mod.cartan_mats]
        self._odd = [ms.algebra.space.parity(g) for g in range(ms.dim)]
        self._straight_memo: dict = {}
        self._ins_memo: dict = {}
        self._betas = self._enumerate_betas()
        monos = _pbw_monomials(self.low_coords, self.n_even_low, self.qd.n,
                               depth)
        hs = range(self.h_mod.dim)
        self.basis = {}
        self.basis_index = {}
        for beta in self._betas:
            vecs = [(m, h) for m in monos.get(beta, ()) for h in hs]
            self.basis[beta] = vecs
            self.basis_index[beta] = {v: k for k, v in enumerate(vecs)}
        self._block_memo: dict = {}

    # -- combinatorics ---------------------------------------------------

    def _enumerate_betas(self):
        """Every beta in N^n of height <= depth, by height, then in
        lexicographic order."""
        n = self.qd.n
        return [head + (h - sum(head),) for h in range(self.depth + 1)
                for head in product(range(h + 1), repeat=n - 1)
                if sum(head) <= h]

    def weight_tuple(self, beta):
        """Absolute weight lambda - sum beta_k alpha_k on h_1..h_n."""
        vals = list(self.lam)
        for k, mult in enumerate(beta):
            if mult:
                alpha = self.qd.roots.root_tuple((k + 1, k + 2))
                vals = [v - mult * a for v, a in zip(vals, alpha)]
        return tuple(vals)

    def mono_parity(self, mono, h) -> int:
        odd_count = sum(1 for p in mono if p >= self.n_even_low)
        return (odd_count + self.h_mod.carrier.parity(h)) % 2

    # -- straightening ------------------------------------------------------

    def _shift_of(self, gen: int):
        shift = self._shift.get(gen)
        if shift is None:
            shift = self._shift[gen] = self._weight_shift(gen)
        return shift

    def _insert_lowering(self, p: int, mono: tuple) -> dict:
        """f_p * (monomial) expanded over PBW monomials, raw (weight may
        exceed the window; act_on filters by height first)."""
        q = mono[0] if mono else None
        if q is None or p < q or (p == q and p < self.n_even_low):
            return {(p,) + mono: QI_ONE}
        key = (p, mono)
        out = self._ins_memo.get(key)
        if out is not None:
            return out
        terms: dict = {}
        fp, rest = self.lowering[p], mono[1:]
        if p == q:  # both odd: f_p^2 = (1/2)[f_p, f_p]
            for g2, c in self._bk[fp][fp]:
                c = raw_mul(_HALF, c, self.tower.gens)
                for m2, c2 in self._insert_lowering(self.low_pos[g2],
                                                    rest).items():
                    terms.setdefault(m2, []).append((c, c2))
        else:
            # p > q: f_p f_q = (-1)^{|p||q|} f_q f_p + [f_p, f_q], and q
            # odd makes p odd (odd positions come last)
            sgn = _MINUS_ONE if q >= self.n_even_low else QI_ONE
            for m2, c in self._insert_lowering(p, rest).items():
                terms.setdefault((q,) + m2, []).append((sgn, c))
            for g2, c in self._bk[fp][self.lowering[q]]:
                for m2, c2 in self._insert_lowering(self.low_pos[g2],
                                                    rest).items():
                    terms.setdefault(m2, []).append((c, c2))
        out = self._ins_memo[key] = _sum_terms(terms, self.tower.gens)
        return out

    def _straighten(self, gen: int, mono: tuple) -> dict:
        """gen * mono expanded over PBW monomials times one operator on
        H(psi), truncated to the window; keys are (mono', c), c None for
        the identity and k for cartan_gens[k], values raw.  No step
        depends on the vector of H(psi): a lowering factor acts on the
        monomial alone, and only a Cartan generator reaching the empty
        monomial leaves an operator.  Every term has the height of mono
        plus the height gen adds, so the whole expansion is empty when
        that leaves the window."""
        key = (gen, mono)
        memo = self._straight_memo
        out = memo.get(key)
        if out is not None:
            return out
        low_height = self.low_height
        if sum(low_height[p] for p in mono) + sum(self._shift_of(gen)) \
                > self.depth:
            out = {}
        elif not mono:
            if gen in self.low_pos:
                out = {((self.low_pos[gen],), None): QI_ONE}
            elif gen in self.cartan_pos:
                out = {((), self.cartan_pos[gen]): QI_ONE}
            else:
                out = {}
        else:
            terms: dict = {}
            p = mono[0]
            rest = mono[1:]
            fp = self.lowering[p]
            # [gen, f_p] rest term
            for g2, c in self._bk[gen][fp]:
                for skey, c2 in self._straighten(g2, rest).items():
                    terms.setdefault(skey, []).append((c, c2))
            # (-1)^{|gen||f_p|} f_p (gen rest) term
            neg = self._odd[gen] and self._odd[fp]
            for (m2, op), c in self._straighten(gen, rest).items():
                if neg:
                    c = raw_neg(c)
                for m3, c3 in self._insert_lowering(p, m2).items():
                    terms.setdefault((m3, op), []).append((c, c3))
            out = _sum_terms(terms, self.tower.gens)
        memo[key] = out
        return out

    def act_on(self, gen: int, mono: tuple, h: int) -> dict:
        """gen * (mono (x) w_h) expanded in the basis, truncated to the
        window; keys are (mono, h) pairs, values raw entries.  It reads
        _straighten(gen, mono), shared by every h: identity terms keep
        w_h, and a Cartan term is expanded by that generator's column h
        on H(psi)."""
        terms: dict = {}
        cartan = self._cartan
        for (m, op), c in self._straighten(gen, mono).items():
            if op is None:
                terms.setdefault((m, h), []).append((QI_ONE, c))
            else:
                for k, v in cartan[op][h]:
                    terms.setdefault((m, k), []).append((v, c))
        return _sum_terms(terms, self.tower.gens)

    def _weight_shift(self, gen: int):
        """beta coordinates added by gen: -root over the simple roots."""
        root = self.ms.gen_root[gen]
        if all(x.is_zero for x in root):
            return (0,) * self.qd.n
        delta = self.qd.roots.decompose_qplus(tuple(-x for x in root))
        if delta is not None:
            return delta
        return tuple(-d for d in self.qd.roots.decompose_qplus(root))

    def block(self, gen: int, beta):
        """Matrix of gen from the beta component to its target component,
        as (target_beta, columns): columns[c] is the image of source basis
        vector c as a sparse dict {target index: raw entry}.  None when the
        target leaves the window or the source is empty."""
        key = (gen, beta)
        if key in self._block_memo:
            return self._block_memo[key]
        src = self.basis.get(beta)
        if not src:
            self._block_memo[key] = None
            return None
        target = tuple(b + d for b, d in zip(beta, self._shift_of(gen)))
        if any(t < 0 for t in target) or sum(target) > self.depth:
            self._block_memo[key] = None
            return None
        tgt_index = self.basis_index[target]
        cols = []
        for mono, h in src:
            col = {}
            for bkey, c in self.act_on(gen, mono, h).items():
                t = tgt_index.get(bkey)
                if t is None:
                    raise AssertionError("straightened term landed outside "
                                         "its weight component")
                col[t] = c
            cols.append(col)
        result = (target, cols)
        self._block_memo[key] = result
        return result

    def dims_by_weight(self):
        return {beta: len(self.basis[beta]) for beta in self._betas}


_HALF = (1, 0, 2)
_MINUS_ONE = (-1, 0, 1)


def _sum_terms(terms: dict, gens) -> dict:
    """{key: sum of f*x over its (f, x) pairs}, raw, zero sums dropped.
    Most keys have one pair with a factor 1 (the q(n) brackets are mostly
    unit constants), which is taken as it is."""
    out = {}
    for k, pairs in terms.items():
        if len(pairs) == 1:
            f, x = pairs[0]
            out[k] = x if f == QI_ONE else f if x == QI_ONE else \
                raw_mul(f, x, gens)
        else:
            v = raw_dot(pairs, gens)
            if v is not None:
                out[k] = v
    return out


def verma(ms: MapSuper, psi: PsiFunctional, depth: int) -> TruncatedVerma:
    return TruncatedVerma(ms, psi, depth)


# ---------------------------------------------------------------------------
# Maximal submodule and simple quotient
# ---------------------------------------------------------------------------


class SimpleQuotient:
    """Truncation of the simple highest-weight module V(psi).

    The maximal submodule N is built one weight at a time, in order of
    height: a vector v of weight beta lies in N_beta exactly when every
    raising generator maps it into N at its target weight tgt.  It is
    enough to ask this of the simple raising generators e_{alpha_k} (x) a_j
    and e'_{alpha_k} (x) a_j (MapSuper.simple_raising_gens): A is unital, so
    they generate n+ (x) A, and since N is stable under n+ (x) A the set of
    x with x v in N is a subalgebra ([x, y] v = x (y v) -+ y (x v)).  The
    same argument with N = 0 gives the singular spaces.

    Each N_beta is kept as its RREF Span, with pivot columns P and free
    columns F (the free columns index a basis of the quotient).  One Span
    per weight then gives both N_beta and the singular dimension, by two
    exact identities, over the simple raising blocks B.

    1. Let R_tgt send e_c to its residual modulo N_tgt, keyed by F.
       Reducing the column B e_c of a raising block modulo N_tgt gives
       exactly the column c of R_tgt B.  So the reduced columns,
       regrouped into rows, span the rows of R_tgt B, and N_beta is the
       kernel of all of them.  A target whose quotient is 0 adds no rows.
    2. Row operations give B_F - C B_P = R_tgt B, where B_F and B_P are
       the rows of B at F and at P and C holds the RREF entries at F.  So
       ker B = ker [R_tgt B ; B_P]: once N_beta is read off, adding the
       rows of every simple raising block at the pivot columns of its
       target leaves the joint kernel of the raising generators, and
       singular_dims[beta] = d - span.dim.  For a target whose quotient
       is 0 that is every row.

    At beta = 0 no raising block lands in the window: N_0 = 0 (the top
    block generates V(psi)) and the singular dimension is d.  Blocks stay
    sparse raw columns throughout; Scalars are made only in _assemble.

    conclusive is True when the quotient vanishes on a band of n
    consecutive heights inside the window (n = maximal root height), in
    which case the module is complete and module is a WeightModule over
    the full map superalgebra, its blocks read off the same reductions
    for every generator."""

    def __init__(self, vm: TruncatedVerma):
        self.verma = vm
        tower = vm.tower
        n = vm.qd.n
        betas = sorted(vm._betas, key=lambda b: (sum(b), b))
        nspan: dict = {}   # beta -> RREF Span of N_beta
        quot_dims: dict = {}
        free_cols: dict = {}
        singular_dims: dict = {}
        for beta in betas:
            d = len(vm.basis[beta])
            blocks = [blk for blk in (vm.block(g, beta)
                                      for g in vm.ms.simple_raising_gens)
                      if blk is not None]
            sp = Span(tower)
            rows = []   # identity 1: the rows of every R_tgt B
            for tgt, cols in blocks:
                if quot_dims[tgt]:
                    ntgt = nspan[tgt]
                    by_free: dict = {}
                    for c, col in enumerate(cols):
                        for f, x in ntgt._reduce_raw(col).items():
                            by_free.setdefault(f, {})[c] = x
                    rows.extend(by_free.values())
            _add_rows(sp, rows, d)
            nspan[beta] = Span(tower, sp._kernel_raw(d) if any(beta) else ())
            rows = []   # identity 2: the rows of every B at P_tgt
            for tgt, cols in blocks:
                pivots = nspan[tgt].rows
                by_pivot: dict = {}
                for c, col in enumerate(cols):
                    for t, x in col.items():
                        if t in pivots:
                            by_pivot.setdefault(t, {})[c] = x
                rows.extend(by_pivot.values())
            _add_rows(sp, rows, d)
            singular_dims[beta] = d - sp.dim
            free_cols[beta] = [c for c in range(d)
                               if c not in nspan[beta].rows]
            quot_dims[beta] = len(free_cols[beta])
        self.nspan = nspan
        self.quot_dims = quot_dims
        self.free_cols = free_cols
        self.singular_dims = singular_dims
        # vanishing band detection
        max_h = vm.depth
        heights = {h: sum(quot_dims[b] for b in betas if sum(b) == h)
                   for h in range(max_h + 1)}
        self.height_dims = heights
        band_at = None
        for h0 in range(1, max_h - n + 2):
            if all(heights.get(h0 + t, None) == 0 for t in range(n)):
                band_at = h0
                break
        self.conclusive = band_at is not None
        self.band_start = band_at
        self.module = self._assemble() if self.conclusive else None

    def _assemble(self) -> WeightModule:
        """The quotient's blocks: block columns at the free columns of the
        source, reduced modulo N at the target."""
        vm = self.verma
        tower = vm.tower
        betas = [b for b in vm._betas
                 if self.quot_dims.get(b, 0) > 0 and sum(b) < self.band_start]
        for b in vm._betas:
            if self.quot_dims.get(b, 0) > 0 and sum(b) >= self.band_start:
                raise AssertionError("nonzero quotient component beyond the "
                                     "vanishing band")
        weights = {}
        parities = {}
        for beta in betas:
            w = vm.weight_tuple(beta)
            weights[beta] = w
            parities[w] = tuple(vm.mono_parity(*vm.basis[beta][c])
                                for c in self.free_cols[beta])
        act = []
        for g in range(vm.ms.dim):
            blocks: dict = {}
            for beta in betas:
                blk = vm.block(g, beta)
                if blk is None:
                    continue
                tgt, cols = blk
                if tgt not in weights:
                    continue  # target is zero in the quotient
                ntgt = self.nspan[tgt]
                entries = [(f, j, x)
                           for j, c in enumerate(self.free_cols[beta])
                           for f, x in ntgt._reduce_raw(cols[c]).items()]
                if not entries:
                    continue
                pos = {f: t for t, f in enumerate(self.free_cols[tgt])}
                red = zero_rows(tower, len(pos), len(self.free_cols[beta]))
                for f, j, x in entries:
                    red[pos[f]][j] = scalar_of(tower, x)
                blocks[weights[beta]] = [(weights[tgt], red)]
            act.append(blocks)
        return WeightModule(vm.ms.algebra, tower, list(weights.values()),
                            parities, act, qd=vm.qd)


def _add_rows(sp: Span, rows: list, d: int):
    """Add rows in decreasing order of their first column.  A new pivot
    then mostly lies left of the stored ones, where every stored row is
    zero, so the back-substitution of Span.add rarely has work: on the
    dims-q3 pool this cuts the entry updates by a third."""
    rows.sort(key=min, reverse=True)
    for row in rows:
        if sp.dim == d:
            return  # every further row lies in the span
        sp.add(row)


def simple_quotient(ms: MapSuper, psi: PsiFunctional, depth=None) -> SimpleQuotient:
    if depth is None:
        n = ms.qd.n
        depth = n * (n + 1)
    return SimpleQuotient(TruncatedVerma(ms, psi, depth))


# ---------------------------------------------------------------------------
# Irreducibility criterion and ideal checks
# ---------------------------------------------------------------------------


def is_irreducible_hw(m: WeightModule, tri: TriangularSplit,
                      details: dict | None = None) -> bool:
    """Four conditions, each exact: singular vectors only at the top
    weight; the whole top block singular; the top block irreducible over
    the Cartan part (density oracle); the top block generates the module,
    checked by one rank per weight (generated_by_top).  details["reason"]
    names the clause that failed, or is "irreducible"."""
    info = details if details is not None else {}
    if m.dim == 0:
        info["reason"] = "zero module"
        return False
    maxw = m.maximal_weights()
    if len(maxw) != 1:
        info["reason"] = "several maximal weights"
        return False
    lam = maxw[0]
    sing = m.singular_spaces(tri.raising)
    for w in m.weights:
        if w == lam:
            if len(sing[w]) != m.block_dim(w):
                info["reason"] = "top block not singular"
                return False
        elif sing[w]:
            info["reason"] = "singular vectors below the top"
            return False
    top_maps = m.top_block_maps(lam, tri.cartan)
    d = density_type_from_maps(top_maps, top_maps[0].source, m.tower) \
        if top_maps else None
    if d is None or not d.certifies_irreducible:
        info["reason"] = "top block reducible over the Cartan part"
        return False
    if not m.generated_by_top(lam, tri.lowering):
        info["reason"] = "top block does not generate"
        return False
    info["reason"] = "irreducible"
    info["top_weight"] = lam
    return True


def top_psi(m: WeightModule, ms: MapSuper, ctx: CartanAlgebra) -> PsiFunctional:
    """Read the highest-weight functional off the top block (the even
    Cartan generators must act there by scalars)."""
    lam = m.maximal_weights()
    if len(lam) != 1:
        raise ValueError("no unique top weight")
    lam = lam[0]
    d = m.block_dim(lam)
    tower = m.tower
    vals = []
    for g in ms.h0_gens:
        blocks = [blk for (w2, blk) in m.blocks_of(g, lam) if w2 == lam]
        if not blocks:
            vals.append(tower.zero())
            continue
        blk = blocks[0]
        c = blk[0][0]
        for i in range(d):
            for j in range(d):
                expect = c if i == j else tower.zero()
                if blk[i][j] != expect:
                    raise ValueError("top block is not a psi eigenspace")
        vals.append(c)
    return PsiFunctional(ctx, vals)


def check_psi0_ideal(m: WeightModule, psi: PsiFunctional, ideal: IdealRep,
                     ms: MapSuper) -> dict:
    """Both directions of: psi kills h0 (x) I iff q (x) I kills V(psi)."""
    kills_psi = psi.kills(ideal)
    tower = m.tower
    acts_zero = True
    for v in ideal.basis:
        a_coords = {j: s for j, s in enumerate(v) if not s.is_zero}
        for xi in range(ms.g.dim):
            coords = ms.embed_g({xi: tower.one()}, a_coords)
            if m.op_entries(coords):
                acts_zero = False
                break
        if not acts_zero:
            break
    return {"psi_kills_ideal": kills_psi, "ideal_acts_zero": acts_zero,
            "equivalent": kills_psi == acts_zero}
