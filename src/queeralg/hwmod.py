"""Highest-weight machinery over map queer superalgebras: truncated
induced modules built from PBW monomials by straightening, singular
vectors, maximal submodules and simple quotients (as
liesuper.WeightModule), and the four-condition irreducibility
criterion."""

from __future__ import annotations

from .cartanmod import CartanAlgebra, PsiFunctional, build_H
from .coeffalg import IdealRep
from .graded import EVEN, Span
from .liesuper import WeightModule
from .mapsuper import MapSuper
from .scalars import QI_ONE, raw_dot, raw_mul, raw_neg, raw_of, scalar_of


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
    basis is the window: its keys are the weights of the PBW monomials of
    height <= depth, by height and then lexicographically, and block is
    the one place that tests a weight against it.

    Monomials are tuples of lowering-generator positions: even positions
    nondecreasing, then odd positions strictly increasing (positions are
    indices into the lowering generator list, evens first).  A monomial
    is straightened once for all of H(psi) (_straighten), and act_on
    applies the Cartan operators to w_h last.  Straightening runs on raw
    entries (scalars.raw_of): the algebra's bracket table and the Cartan
    matrices of H(psi), each converted once, here, and blocks are sparse
    raw columns."""

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
        _, cartan, lowering = ms.algebra.triangular
        self.lowering = list(lowering)
        self.low_pos = {g: p for p, g in enumerate(self.lowering)}
        self.n_even_low = sum(1 for g in self.lowering
                              if ms.algebra.space.parity(g) == EVEN)
        self.cartan_pos = {g: k for k, g in enumerate(cartan)}
        # beta coordinates each generator adds, and the lowering
        # generators' own
        self.shift = [self._weight_shift(g) for g in range(ms.dim)]
        self.low_coords = [self.shift[g] for g in self.lowering]
        # raw forms: bk[i][j] as a tuple of (k, raw) pairs in bk's key
        # order, which reaches act_on, and per Cartan generator and column
        # h of H(psi) its nonzero (k, raw) by increasing k
        self._bk = [[tuple((k, raw_of(c)) for k, c in entry.items())
                     for entry in row] for row in ms.algebra.bk]
        self._cartan = []
        for mat in self.h_mod.cartan_mats:
            cols = [[] for _ in range(self.h_mod.dim)]
            for (k, h), x in sorted(mat.entries.items(), key=lambda e: e[0]):
                cols[h].append((k, raw_of(x)))
            self._cartan.append([tuple(c) for c in cols])
        self._odd = [ms.algebra.space.parity(g) for g in range(ms.dim)]
        self._straight_memo: dict = {}
        self._ins_memo: dict = {}
        monos = _pbw_monomials(self.low_coords, self.n_even_low, self.qd.n,
                               depth)
        hs = range(self.h_mod.dim)
        self.basis = {}
        self.basis_index = {}
        for beta in sorted(monos, key=lambda b: (sum(b), b)):
            vecs = [(m, h) for m in monos[beta] for h in hs]
            self.basis[beta] = vecs
            self.basis_index[beta] = {v: k for k, v in enumerate(vecs)}

    # -- combinatorics ---------------------------------------------------

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

    def _insert_lowering(self, p: int, mono: tuple) -> dict:
        """f_p * (monomial) expanded over PBW monomials, raw."""
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
        H(psi); keys are (mono', c), c None for the identity and k for the
        k-th Cartan generator of the split, values raw.  No step depends
        on the vector of H(psi): a lowering factor acts on the monomial
        alone, and only a Cartan generator reaching the empty monomial
        leaves an operator.  Every recursive call has the weight of
        gen * mono or a lower one, so a call for a target in the window
        stays in it."""
        key = (gen, mono)
        memo = self._straight_memo
        out = memo.get(key)
        if out is not None:
            return out
        if not mono:
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
        """gen * (mono (x) w_h) expanded over PBW monomials times vectors
        of H(psi); keys are (mono, h) pairs, values raw entries.  It reads
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
        vector c as a sparse dict {target index: raw entry}.  None when
        the source or the target is not in the window.  Blocks are built
        on request and not kept."""
        src = self.basis.get(beta)
        target = tuple(b + d for b, d in zip(beta, self.shift[gen]))
        tgt_index = self.basis_index.get(target)
        if src is None or tgt_index is None:
            return None
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
        return target, cols

    def dims_by_weight(self):
        return {beta: len(vecs) for beta, vecs in self.basis.items()}


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


# ---------------------------------------------------------------------------
# Maximal submodule and simple quotient
# ---------------------------------------------------------------------------


class SimpleQuotient:
    """Truncation of the simple highest-weight module V(psi).

    The maximal submodule N is found one weight at a time, in order of
    height: a vector v of weight beta lies in N_beta exactly when every
    raising generator maps it into N at its target weight tgt.  It is
    enough to ask this of the simple raising generators e_{alpha_k} (x) a_j
    and e'_{alpha_k} (x) a_j (MapSuper.simple_raising_gens): A is unital, so
    they generate n+ (x) A, and since N is stable under n+ (x) A the set of
    x with x v in N is a subalgebra ([x, y] v = x (y v) -+ y (x v)).  The
    same argument with N = 0 gives the singular spaces.

    N_beta itself is never stored.  Each weight keeps the projection
    R_beta, s = dim V(psi)_beta rows: for every vector v, R_beta v is the
    residual of v modulo N_beta in RREF(N_beta), keyed by the free
    columns F_beta of RREF(N_beta), which index a basis of the quotient.
    One Span per weight, with its columns reversed (c -> d - 1 - c, d the
    PBW dimension), gives R_beta and the singular dimension by two exact
    identities over the simple raising blocks B.

    1. The projected block columns R_tgt B e_c, regrouped into rows,
       are the rows M of every R_tgt B, and N_beta = ker M.  A column c
       is free in RREF(ker M) exactly when column c of M is not in the
       span of the later columns, that is, exactly when c is a pivot of
       M's RREF with pivots taken from the right: the reversed Span.  Its
       rows, read back in the original columns, are R_beta: they span
       M's rows, so ker R_beta = N_beta, and R_beta is the identity on
       F_beta, so R_beta v is that residual.  A target whose quotient is
       0 adds no rows.
    2. Row operations give B_F - C B_P = R_tgt B, where B_F and B_P are
       the rows of B at F_tgt and at the other columns P_tgt, and C holds
       the entries of RREF(N_tgt) at F_tgt.  So ker B = ker [R_tgt B ;
       B_P]: once R_beta is read off, adding the rows of every simple
       raising block at P_tgt leaves the joint kernel of the raising
       generators, and singular_dims[beta] = d - span.dim.  For a target
       whose quotient is 0 that is every row.

    At beta = 0 no raising block lands in the window: N_0 = 0 (the top
    block generates V(psi)), R_0 is the identity and the singular
    dimension is d.  R_beta is stored by column, each column the list of
    its (free column, raw entry) pairs, and applied by _project to the
    sparse raw columns of the blocks; Scalars are made only in _assemble.

    conclusive is True when the quotient vanishes on a band of n
    consecutive heights inside the window (n = maximal root height), in
    which case the module is complete and module is a WeightModule over
    the full map superalgebra, its blocks the projections of every
    generator's block columns."""

    def __init__(self, vm: TruncatedVerma):
        self.verma = vm
        n = vm.qd.n
        gens = vm.tower.gens
        proj: dict = {}   # beta -> R_beta by column
        quot_dims: dict = {}
        free_cols: dict = {}
        singular_dims: dict = {}
        for beta, vecs in vm.basis.items():
            d = len(vecs)
            blocks = [blk for blk in (vm.block(g, beta)
                                      for g in vm.ms.simple_raising_gens)
                      if blk is not None]
            sp = Span(vm.tower)   # columns reversed: c -> d - 1 - c
            rows = []   # identity 1: the rows of every R_tgt B
            for tgt, cols in blocks:
                if quot_dims[tgt]:
                    by_free: dict = {}
                    for c, col in enumerate(cols):
                        for f, x in _project(proj[tgt], col, gens).items():
                            by_free.setdefault(f, {})[d - 1 - c] = x
                    rows.extend(by_free.values())
            _add_rows(sp, rows, d)
            # R_beta's rows by pivot, over the reversed columns
            rrows = {d - 1 - p: row for p, row in sp.rows.items()} \
                if any(beta) else {c: {d - 1 - c: QI_ONE} for c in range(d)}
            proj[beta] = [[] for _ in range(d)]
            for f, row in rrows.items():
                for c, x in row.items():
                    proj[beta][d - 1 - c].append((f, x))
            free_cols[beta] = sorted(rrows)
            quot_dims[beta] = len(rrows)
            rows = []   # identity 2: the rows of every B at P_tgt
            for tgt, cols in blocks:
                free = set(free_cols[tgt])
                by_pivot: dict = {}
                for c, col in enumerate(cols):
                    for t, x in col.items():
                        if t not in free:
                            by_pivot.setdefault(t, {})[d - 1 - c] = x
                rows.extend(by_pivot.values())
            _add_rows(sp, rows, d)
            singular_dims[beta] = d - sp.dim
        self.proj = proj
        self.quot_dims = quot_dims
        self.free_cols = free_cols
        self.singular_dims = singular_dims
        # vanishing band detection
        max_h = vm.depth
        heights = {h: sum(quot_dims[b] for b in vm.basis if sum(b) == h)
                   for h in range(max_h + 1)}
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
        source, projected by R at the target."""
        vm = self.verma
        tower = vm.tower
        betas = [b for b in vm.basis
                 if self.quot_dims.get(b, 0) > 0 and sum(b) < self.band_start]
        for b in vm.basis:
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
                pos = {f: t for t, f in enumerate(self.free_cols[tgt])}
                red = {(pos[f], j): scalar_of(tower, x)
                       for j, c in enumerate(self.free_cols[beta])
                       for f, x in _project(self.proj[tgt], cols[c],
                                            tower.gens).items()}
                if red:
                    blocks[weights[beta]] = [(weights[tgt], red)]
            act.append(blocks)
        return WeightModule(vm.ms.algebra, tower, list(weights.values()),
                            parities, act, qd=vm.qd)


def _project(proj: list, col: dict, gens) -> dict:
    """R col for R stored by column (proj[t] lists the (free column, raw)
    entries of column t) and col a sparse raw column: the residual of col
    modulo N at col's weight, keyed by free column."""
    terms: dict = {}
    for t, x in col.items():
        for f, r in proj[t]:
            terms.setdefault(f, []).append((r, x))
    return _sum_terms(terms, gens)


def _add_rows(sp: Span, rows: list, d: int):
    """Add rows in decreasing order of their first column.  A new pivot
    then mostly lies left of the stored ones, where every stored row is
    zero, so the back-substitution of Span.add rarely has work: on the
    dims-q3 pool (seed 11) it cuts the entry updates by more than half."""
    rows.sort(key=min, reverse=True)
    sp.extend(rows, d)


def simple_quotient(ms: MapSuper, psi: PsiFunctional, depth=None) -> SimpleQuotient:
    if depth is None:
        n = ms.qd.n
        depth = n * (n + 1)
    return SimpleQuotient(TruncatedVerma(ms, psi, depth))


# ---------------------------------------------------------------------------
# Irreducibility criterion and ideal checks
# ---------------------------------------------------------------------------


def is_irreducible_hw(m: WeightModule, details: dict | None = None) -> bool:
    """Four conditions, each exact, over the triangular split of
    m.algebra (ValueError when it has none): singular vectors only at the
    top weight; the whole top block singular; the top block irreducible
    over the Cartan part, by its Clifford rank details["clifford_rank"];
    the top block generates the module, checked by one rank per weight
    (generated_by_top).  details["reason"] names the clause that failed,
    or is "irreducible".  Only hand-built blocks reach "top block not
    singular": a raising generator maps a genuine module's top block to a
    weight above the top, where the module is zero."""
    if m.algebra.triangular is None:
        raise ValueError(f"{m.algebra.name or 'the algebra'} has no "
                         "triangular split")
    raising, cartan, lowering = m.algebra.triangular
    info = details if details is not None else {}
    if m.dim == 0:
        info["reason"] = "zero module"
        return False
    maxw = m.maximal_weights()
    if len(maxw) != 1:
        info["reason"] = "several maximal weights"
        return False
    lam = maxw[0]
    sing = m.singular_spaces(raising)
    for w in m.weights:
        if w == lam:
            if len(sing[w]) != m.block_dim(w):
                info["reason"] = "top block not singular"
                return False
        elif sing[w]:
            info["reason"] = "singular vectors below the top"
            return False
    # The even Cartan generators are central in the Cartan part, so on a
    # simple top block H they act by scalars psi, and the odd ones c_a make
    # H a Cl(f)-module, f_ab = psi([c_a, c_b]) of rank r.  rad(f) acts
    # nilpotently, so H is simple exactly when it has the dimension of the
    # simple Cl(f / rad f)-module, 2^ceil(r/2) (of type Q for odd r).
    parity = m.algebra.space.parity
    psi = m.scalars_on(lam, [g for g in cartan if parity(g) == EVEN])
    if psi is not None:
        odd = [g for g in cartan if parity(g) != EVEN]
        bk, zero = m.algebra.bk, m.tower.zero()
        form = ({b: sum((c * psi[k] for k, c in bk[a][y].items()), zero)
                 for b, y in enumerate(odd)} for a in odd)
        r = info["clifford_rank"] = Span(m.tower, form, len(odd)).dim
    if psi is None or m.block_dim(lam) != 2 ** ((r + 1) // 2):
        info["reason"] = "top block reducible over the Cartan part"
        return False
    if not m.generated_by_top(lam, lowering):
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
    vals = m.scalars_on(lam[0], ms.h0_gens)
    if vals is None:
        raise ValueError("top block is not a psi eigenspace")
    return PsiFunctional(ctx, list(vals.values()))


def check_psi0_ideal(m: WeightModule, psi: PsiFunctional, ideal: IdealRep,
                     ms: MapSuper) -> dict:
    """Both directions of: psi kills h0 (x) I iff q (x) I kills V(psi)."""
    kills_psi = psi.kills(ideal)
    tower = m.tower
    acts_zero = True
    for a_coords in ideal.vectors:
        for xi in range(ms.g.dim):
            coords = ms.embed_g({xi: tower.one()}, a_coords)
            if m.op_entries(coords):
                acts_zero = False
                break
        if not acts_zero:
            break
    return {"psi_kills_ideal": kills_psi, "ideal_acts_zero": acts_zero,
            "equivalent": kills_psi == acts_zero}
