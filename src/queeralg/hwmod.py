"""Highest-weight machinery over map queer superalgebras: weight modules
stored blockwise by weight, truncated induced modules built from PBW
monomials by straightening, singular vectors, maximal submodules and
simple quotients, and the four-condition irreducibility criterion."""

from __future__ import annotations

from fractions import Fraction

from .cartanmod import CartanAlgebra, PsiFunctional, build_H
from .coeffalg import IdealRep
from .graded import (EVEN, GradedMap, Span, mat_kernel, mat_mul, mat_rank,
                     zero_rows)
from .liesuper import GradedSpaceMixed, LieModule, LieSuper
from .mapsuper import InvariantSub, MapSuper
from .scalars import Tower


def weight_key(values) -> tuple:
    return tuple(values)


def weight_sort_key(w):
    return tuple(x.sort_key() for x in w)


class WeightModule:
    """Module graded by weights of the even Cartan subalgebra of q.

    weights: sorted list of weight tuples (values on h_1..h_n).
    parities[w]: tuple of parities of the basis vectors of the w block.
    act[i][w]: list of (target_weight, rows) blocks for algebra basis
    element i (rows maps the w block into the target block).
    """

    def __init__(self, algebra: LieSuper, tower: Tower, weights, parities,
                 act, qd=None):
        self.algebra = algebra
        self.tower = tower
        self.weights = sorted(weights, key=weight_sort_key)
        self.parities = parities
        self.act = act
        self.qd = qd
        self._windex = {w: k for k, w in enumerate(self.weights)}
        self._entries: dict = {}   # generator -> its nonzero entries

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
        """Nonzero entries ((w2, r, w, s), value) of generator i's blocks,
        collected on first use."""
        ent = self._entries.get(i)
        if ent is None:
            ent = self._entries[i] = [
                ((w2, r, w, s), v)
                for w in self.weights for (w2, rows) in self.blocks_of(i, w)
                for r, row in enumerate(rows) for s, v in enumerate(row)
                if not v.is_zero]
        return ent

    def op_entries(self, coords: dict) -> dict:
        out: dict = {}
        for i, c in coords.items():
            for key, v in self._gen_entries(i):
                cur = out.get(key)
                nxt = c * v if cur is None else cur + c * v
                if nxt.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = nxt
        return out

    # -- flattening --------------------------------------------------------

    def flat_index(self):
        idx = {}
        pos = 0
        for w in self.weights:
            for k in range(len(self.parities[w])):
                idx[(w, k)] = pos
                pos += 1
        return idx

    def flatten(self) -> LieModule:
        tower = self.tower
        idx = self.flat_index()
        n = self.dim
        pars = [None] * n
        for w in self.weights:
            for k, p in enumerate(self.parities[w]):
                pars[idx[(w, k)]] = p
        space = GradedSpaceMixed(pars)
        mats = []
        for i in range(self.algebra.dim):
            rows = zero_rows(tower, n, n)
            for w in self.weights:
                for (w2, blk) in self.blocks_of(i, w):
                    for r, row in enumerate(blk):
                        for s, v in enumerate(row):
                            if not v.is_zero:
                                rows[idx[(w2, r)]][idx[(w, s)]] = v
            mats.append(GradedMap(tower, space, space, rows))
        return LieModule(self.algebra, space, mats)

    # -- structure ---------------------------------------------------------

    def maximal_weights(self):
        """Weights maximal for the partial order mu >= nu iff mu - nu is a
        nonnegative integer combination of simple roots."""
        if self.qd is None:
            raise ValueError("weight comparison needs the root datum")
        out = []
        for w in self.weights:
            dominated = False
            for w2 in self.weights:
                if w2 == w:
                    continue
                delta = tuple(a - b for a, b in zip(w2, w))
                dec = self.qd.roots.decompose_qplus(delta)
                if dec is not None and any(dec):
                    dominated = True
                    break
            if not dominated:
                out.append(w)
        return out

    def singular_spaces(self, raising_gens):
        """Per weight, a basis of the joint kernel of the raising
        generators (as dense vectors in the block)."""
        tower = self.tower
        out = {}
        for w in self.weights:
            d = self.block_dim(w)
            rows = []
            for g in raising_gens:
                for (_, blk) in self.blocks_of(g, w):
                    rows.extend(blk)
            out[w] = mat_kernel(rows, d, tower)
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
        each block by a scalar and would make every rank full.
        """
        cols = {w: [] for w in self.weights}
        for g in lowering:
            for w in self.weights:
                for (w2, rows) in self.blocks_of(g, w):
                    if w2 == w:
                        raise AssertionError("a lowering generator maps a "
                                             "weight to itself")
                    cols[w2].extend(zip(*rows))
        for w in self.weights:
            d = self.block_dim(w)
            if w != top and mat_rank(cols[w], d, self.tower) != d:
                return False
        return True

    def top_block_maps(self, w, gen_indices):
        """GradedMap-like dense matrices of the given generators on the w
        block (only their weight-preserving parts)."""
        tower = self.tower
        d = self.block_dim(w)
        space = GradedSpaceMixed(self.parities[w])
        out = []
        for g in gen_indices:
            rows = zero_rows(tower, d, d)
            for (w2, blk) in self.blocks_of(g, w):
                if w2 == w:
                    rows = blk
            out.append(GradedMap(tower, space, space,
                                 [list(r) for r in rows]))
        return out


# ---------------------------------------------------------------------------
# Triangular generator data
# ---------------------------------------------------------------------------


class TriangularSplit:
    """Raising / Cartan / lowering generator indices for an algebra acting
    on weight modules, with one h0-reading basis for weights."""

    def __init__(self, raising, cartan, lowering, cartan_even=None):
        self.raising = list(raising)
        self.cartan = list(cartan)
        self.lowering = list(lowering)
        self.cartan_even = list(cartan_even) if cartan_even is not None else []


def triangular_of_map(ms: MapSuper) -> TriangularSplit:
    return TriangularSplit(ms.raising_gens, ms.cartan_gens, ms.lowering_gens,
                           cartan_even=ms.h0_gens)


def triangular_of_invariants(inv: InvariantSub) -> TriangularSplit:
    """Classify invariant basis vectors by the sign of the roots they are
    supported on; requires the group to preserve the triangular pieces."""
    ms = inv.parent
    raising, cartan, lowering, cartan_even = [], [], [], []
    for k, vec in enumerate(inv.basis_vectors):
        kinds = set()
        even_only = True
        for idx, v in enumerate(vec):
            if v.is_zero:
                continue
            if idx in set(ms.raising_gens):
                kinds.add("+")
            elif idx in set(ms.lowering_gens):
                kinds.add("-")
            else:
                kinds.add("0")
                if idx not in set(ms.h0_gens):
                    even_only = False
        if kinds == {"+"}:
            raising.append(k)
        elif kinds == {"-"}:
            lowering.append(k)
        elif kinds == {"0"}:
            cartan.append(k)
            if even_only:
                cartan_even.append(k)
        else:
            raise ValueError("group action does not preserve the triangular "
                             "decomposition; weight criteria unavailable")
    return TriangularSplit(raising, cartan, lowering, cartan_even=cartan_even)


# ---------------------------------------------------------------------------
# Truncated induced modules
# ---------------------------------------------------------------------------


class TruncatedVerma:
    """Weight components of the induced module for psi down to a given
    height, with PBW monomial basis and straightening-based actions.

    Monomials are tuples of lowering-generator positions: even positions
    nondecreasing, then odd positions strictly increasing (positions are
    indices into the lowering generator list, evens first)."""

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
        self.cartan_pos = {g: k for k, g in enumerate(ms.cartan_gens)}
        self._act_memo: dict = {}
        self._betas = self._enumerate_betas()
        self.basis = {}
        self.basis_index = {}
        for beta in self._betas:
            monos = self._monomials_of_weight(beta)
            vecs = []
            for mono in monos:
                for h in range(self.h_mod.dim):
                    vecs.append((mono, h))
            self.basis[beta] = vecs
            self.basis_index[beta] = {v: k for k, v in enumerate(vecs)}
        self._block_memo: dict = {}

    # -- combinatorics ---------------------------------------------------

    def _enumerate_betas(self):
        n = self.qd.n
        out = []
        for h in range(self.depth + 1):
            tmp = []

            def rec(prefix, left):
                if len(prefix) == n - 1:
                    tmp.append(tuple(prefix + [left]))
                    return
                for v in range(left + 1):
                    rec(prefix + [v], left - v)

            rec([], h)
            out.extend(tmp)
        return out

    def _monomials_of_weight(self, beta):
        """All PBW monomials with total lowering weight beta."""
        n = self.qd.n
        odd_positions = [p for p in range(len(self.lowering))
                         if p >= self.n_even_low]
        even_positions = [p for p in range(self.n_even_low)]
        monos = []
        # odd part: increasing subsets of odd positions with weight <= beta
        subsets = [[]]
        for p in odd_positions:
            w = self.low_coords[p]
            new = []
            for s in subsets:
                new.append(s)
                tot = [sum(self.low_coords[q][k] for q in s) + w[k]
                       for k in range(n)]
                if all(t <= b for t, b in zip(tot, beta)):
                    new.append(s + [p])
            subsets = new
        for s in subsets:
            rem = tuple(b - sum(self.low_coords[q][k] for q in s)
                        for k, b in enumerate(beta))
            if any(r < 0 for r in rem):
                continue
            for ev in self._even_multisets(even_positions, rem):
                monos.append(tuple(ev) + tuple(s))
        monos.sort()
        return monos

    def _even_multisets(self, positions, target):
        """Multisets of even lowering positions with the given total weight
        (as nondecreasing position lists)."""
        out = []

        def rec(i, left, acc):
            if i == len(positions):
                if all(x == 0 for x in left):
                    out.append(list(acc))
                return
            w = self.low_coords[positions[i]]
            cur = list(left)
            mult = 0
            while True:
                rec(i + 1, tuple(cur), acc + [positions[i]] * mult)
                if not all(c >= x for c, x in zip(cur, w)):
                    break
                cur = [c - x for c, x in zip(cur, w)]
                mult += 1
        rec(0, tuple(target), [])
        return out

    def beta_height(self, beta) -> int:
        return sum(beta)

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
        """f_p * (monomial) expanded over PBW monomials (weight may exceed
        the window; filtering happens at act time)."""
        if not mono:
            return {(p,): self.tower.one()}
        q = mono[0]
        p_odd = p >= self.n_even_low
        q_odd = q >= self.n_even_low
        if p < q or (p == q and not p_odd):
            return {(p,) + mono: self.tower.one()}
        out: dict = {}
        if p == q:  # both odd: f_p^2 = (1/2)[f_p, f_p]
            half = self.tower.from_fraction(Fraction(1, 2))
            br = self.ms.algebra.bk[self.lowering[p]][self.lowering[p]]
            for g2, c in br.items():
                for m2, c2 in self._insert_lowering(self.low_pos[g2],
                                                    mono[1:]).items():
                    _dict_add(out, m2, half * c * c2)
            return out
        # p > q: f_p f_q = (-1)^{|p||q|} f_q f_p + [f_p, f_q]
        sgn = -1 if (p_odd and q_odd) else 1
        inner = self._insert_lowering(p, mono[1:])
        for m2, c in inner.items():
            _dict_add(out, (q,) + m2, c if sgn > 0 else -c)
        br = self.ms.algebra.bk[self.lowering[p]][self.lowering[q]]
        for g2, c in br.items():
            for m2, c2 in self._insert_lowering(self.low_pos[g2],
                                                mono[1:]).items():
                _dict_add(out, m2, c * c2)
        return out

    def _mono_weight(self, mono):
        n = self.qd.n
        return tuple(sum(self.low_coords[p][k] for p in mono)
                     for k in range(n))

    def act_on(self, gen: int, mono: tuple, h: int) -> dict:
        """gen * (mono (x) w_h) expanded in the basis, truncated to the
        window; keys are (mono, h) pairs."""
        key = (gen, mono, h)
        memo = self._act_memo
        if key in memo:
            return memo[key]
        ms = self.ms
        out: dict = {}
        if not mono:
            if gen in self.low_pos:
                out = {((self.low_pos[gen],), h): self.tower.one()}
            elif gen in self.cartan_pos:
                mat = self.h_mod.cartan_mats[self.cartan_pos[gen]]
                for k in range(self.h_mod.dim):
                    v = mat.rows[k][h]
                    if not v.is_zero:
                        out[((), k)] = v
            else:
                out = {}
        else:
            p = mono[0]
            rest = mono[1:]
            fp = self.lowering[p]
            # [gen, f_p] (rest (x) w) term
            br = ms.algebra.bk[gen][fp]
            for g2, c in br.items():
                for bkey, c2 in self.act_on(g2, rest, h).items():
                    _dict_add(out, bkey, c * c2)
            # (-1)^{|gen||f_p|} f_p (gen (rest (x) w)) term
            sgn = -1 if (ms.algebra.space.parity(gen)
                         and ms.algebra.space.parity(fp)) else 1
            for (m2, h2), c in self.act_on(gen, rest, h).items():
                for m3, c3 in self._insert_lowering(p, m2).items():
                    _dict_add(out, (m3, h2), c * c3 if sgn > 0 else -c * c3)
        # truncate to the window
        out = {k: v for k, v in out.items()
               if sum(self._mono_weight(k[0])) <= self.depth}
        memo[key] = out
        return out

    def block(self, gen: int, beta):
        """Matrix of gen from the beta component to its target component,
        as (target_beta, rows); None when the target leaves the window or
        the source is empty."""
        key = (gen, beta)
        if key in self._block_memo:
            return self._block_memo[key]
        src = self.basis.get(beta)
        if not src:
            self._block_memo[key] = None
            return None
        root = self.ms.gen_root[gen]
        if all(x.is_zero for x in root):
            target = beta
        else:
            delta = self.qd.roots.decompose_qplus(tuple(-x for x in root))
            if delta is not None:
                target = tuple(b + d for b, d in zip(beta, delta))
            else:
                delta = self.qd.roots.decompose_qplus(root)
                target = tuple(b - d for b, d in zip(beta, delta))
        if any(t < 0 for t in target) or sum(target) > self.depth:
            self._block_memo[key] = None
            return None
        tgt_index = self.basis_index[target]
        rows = zero_rows(self.tower, len(self.basis[target]), len(src))
        for col, (mono, h) in enumerate(src):
            for bkey, c in self.act_on(gen, mono, h).items():
                if bkey in tgt_index:
                    rows[tgt_index[bkey]][col] = c
                elif not c.is_zero:
                    raise AssertionError("straightened term landed outside "
                                         "its weight component")
        result = (target, rows)
        self._block_memo[key] = result
        return result

    def dims_by_weight(self):
        return {beta: len(self.basis[beta]) for beta in self._betas}

    def singular_dims(self):
        """Per weight component, the dimension of the joint kernel of all
        raising generators."""
        out = {}
        for beta in self._betas:
            d = len(self.basis[beta])
            rows = []
            for g in self.ms.raising_gens:
                blk = self.block(g, beta)
                if blk is not None:
                    rows.extend(blk[1])
            out[beta] = d - mat_rank(rows, d, self.tower)
        return out


def _dict_add(d: dict, key, val):
    if val.is_zero:
        return
    cur = d.get(key)
    nxt = val if cur is None else cur + val
    if nxt.is_zero:
        d.pop(key, None)
    else:
        d[key] = nxt


def verma(ms: MapSuper, psi: PsiFunctional, depth: int) -> TruncatedVerma:
    return TruncatedVerma(ms, psi, depth)


# ---------------------------------------------------------------------------
# Maximal submodule and simple quotient
# ---------------------------------------------------------------------------


class SimpleQuotient:
    """Truncation of the simple highest-weight module V(psi).

    conclusive is True when the quotient vanishes on a band of n
    consecutive heights inside the window (n = maximal root height), in
    which case the module is complete and module is a WeightModule over
    the full map superalgebra."""

    def __init__(self, vm: TruncatedVerma):
        self.verma = vm
        tower = vm.tower
        qd = vm.qd
        n = qd.n
        betas = sorted(vm._betas, key=lambda b: (sum(b), b))
        nsub: dict = {}
        residual: dict = {}
        quot_dims: dict = {}
        free_cols: dict = {}
        for beta in betas:
            d = len(vm.basis[beta])
            if sum(beta) == 0:
                nsub[beta] = []
            else:
                rows = []
                for g in vm.ms.raising_gens:
                    blk = vm.block(g, beta)
                    if blk is None:
                        continue
                    tgt, mat = blk
                    rmat = residual[tgt]
                    if rmat is None:
                        continue  # target quotient is zero: no constraint
                    rows.extend(mat_mul(rmat, mat, tower))
                nsub[beta] = mat_kernel(rows, d, tower)
            sp = Span(tower, nsub[beta])
            free = [c for c in range(d) if c not in sp.rows]
            quot_dims[beta] = len(free)
            free_cols[beta] = free
            # residual matrix: coordinates of the class of e_c over the
            # free columns
            if not free:
                residual[beta] = None
                continue
            pos = {c: t for t, c in enumerate(free)}
            rrows = zero_rows(tower, len(free), d)
            for c in range(d):
                red = sp.reduce({c: tower.one()})
                for k, v in red.items():
                    rrows[pos[k]][c] = v
            residual[beta] = rrows
        self.nsub = nsub
        self.quot_dims = quot_dims
        self.residual = residual
        self.free_cols = free_cols
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
                tgt, mat = blk
                if tgt not in weights:
                    continue  # target is zero in the quotient
                rmat = self.residual[tgt]
                free = self.free_cols[beta]
                sub = [[row[c] for c in free] for row in mat]
                red = mat_mul(rmat, sub, tower)
                if any(not v.is_zero for row in red for v in row):
                    blocks[weights[beta]] = [(weights[tgt], red)]
            act.append(blocks)
        return WeightModule(vm.ms.algebra, tower, list(weights.values()),
                            parities, act, qd=vm.qd)


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
            info["reason"] = f"singular vectors below the top"
            return False
    from .assocsuper import density_type_from_maps
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
