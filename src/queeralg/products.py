"""Irreducible products of modules, evaluation modules over map queer
superalgebras, Schur data, and the classification enumerator for finitely
supported point assignments."""

from __future__ import annotations

from dataclasses import dataclass

from .assocsuper import _raw_products, density_type_from_maps, make_Q
from .graded import EVEN, ODD, GradedMap, add_entries, odd_schur
from .coeffalg import GammaAction
from .hwmod import is_irreducible_hw
from .liesuper import (WeightModule, direct_sum, from_assoc,
                       is_isomorphic_weight, weight_sort_key)
from .mapsuper import EvMap, InvariantSub, MapSuper, ev_rank, invariants
from .queer import QueerData
from .scalars import Tower, raw_of


# ---------------------------------------------------------------------------
# Schur data
# ---------------------------------------------------------------------------


@dataclass
class WeightSchur:
    """Schur data for a weight module: the type flag and, for type Q, the
    odd endomorphism normalized to phi^2 = -id, stored blockwise by
    weight as the nonzero entries {(row, col): Scalar} of each block (phi
    preserves weights)."""

    is_type_q: bool
    phi_blocks: dict | None


def weight_schur_data(m: WeightModule, subject="module") -> WeightSchur:
    """WeightSchur of a module certified irreducible first (ValueError
    naming subject, see _certify_irreducible); phi solved only for type Q."""
    return _typed_weight_schur(m, _certify_irreducible(m, subject)[1])


def _typed_weight_schur(m: WeightModule, is_type_q: bool) -> WeightSchur:
    """WeightSchur of a module certified irreducible of the given type."""
    if not is_type_q:
        return WeightSchur(False, None)
    s = _solve_weight_schur(m)
    if not s.is_type_q:
        raise AssertionError("no odd supercommutant on a type-Q module")
    return s


def _certify_irreducible(m: WeightModule, subject: str) -> tuple:
    """(top weight, type Q?) of m certified irreducible, else ValueError
    "<subject> is not irreducible: <clause>".  A weight module over an
    algebra with a split (q, q (x) A) by the highest-weight criterion, type Q
    when the top block's Clifford rank is odd; otherwise (Q(1), products
    over direct sums) by the flat oracle, top weight None, type Q for QComm.

    The criterion is sufficient.  Let N != 0 be a graded submodule of the
    finite-dimensional module M; it is the sum of its weight spaces, since
    h0 acts diagonally.  The vectors of a maximal weight of N are killed
    by the raising generators, so they are singular; clause 1 puts that
    weight at the top lambda, so N meets M_lambda in a nonzero Cartan
    submodule.  Clause 3 (the Clifford rank of the small top block) gives
    M_lambda inside N, and clause 4 (generated_by_top) gives N = M.  It is
    also necessary for finite-dimensional irreducibles, so no valid module
    is refused.  M has the type of M_lambda: restriction embeds End(M) in
    End(M_lambda) (endomorphisms keep weights, and M_lambda generates),
    and an odd phi of M_lambda passes to the induced module and its simple
    quotient M."""
    if m.qd is not None and m.algebra.triangular is not None:
        why: dict = {}
        if not is_irreducible_hw(m, why):
            raise ValueError(f"{subject} is not irreducible: "
                             f"{why['reason']}")
        return why["top_weight"], why["clifford_rank"] % 2 == 1
    d = density_type_from_maps(m.mats, m.space, m.tower)
    if not d.certifies_irreducible:
        raise ValueError(f"{subject} is not irreducible: density oracle "
                         f"gives {d!r}")
    return None, d.kind == "qcomm"


def _solve_weight_schur(m: WeightModule) -> WeightSchur:
    """WeightSchur of an irreducible weight module, from its odd
    supercommutant solved on the weight blocks.

    The equations are those of the algebra's generators only: the x with
    phi rho(x) = (-1)^|x| rho(x) phi form a Lie sub-superalgebra (expand
    rho([x, y]) and move phi past each factor), so phi supercommutes with
    every element once it does with the generators (LieSuper.generators).
    In particular phi commutes with the even Cartan part, which acts on
    block w by the scalars w (as in hom_space_weight, the grading is taken
    to be that of m's algebra), so phi preserves weights.  The unknowns are
    therefore the slots of opposite parity inside each block, in
    flat-index order, and odd_schur returns the phi of the solve over all
    of End(V).  phi is normalized to phi^2 = -id (adjoining sqrt(-1/c)
    when needed)."""
    tower = m.tower
    idx = m.flat_index()
    ops = [(m.flat_entries(g, idx), m.algebra.space.parity(g))
           for g in m.algebra.generators]
    slots = [(idx[(w, i)], idx[(w, j)]) for w in m.weights
             for i, p in enumerate(m.parities[w])
             for j, q in enumerate(m.parities[w]) if p != q]
    found = odd_schur(ops, m.space, tower, slots)
    if found is None:
        return WeightSchur(False, None)
    phi, c = found
    at = list(idx)   # flat position -> (weight, position in its block)
    blocks = {w: {} for w in m.weights}
    for (r, col), v in (phi * tower.adjoin_sqrt(-c.inv())).entries.items():
        (w, i), (_, j) = at[r], at[col]   # phi preserves weights
        blocks[w][(i, j)] = v
    return WeightSchur(True, blocks)


def q1_module(tower: Tower) -> WeightModule:
    """C^{1|1} over Lie(Q(1)), of type Q: the identity acts as the
    identity and the odd generator as the parity swap.  Q(1) has no even
    Cartan part of q's kind, so the module has the one weight ()."""
    one = tower.one()
    act = [{(): [((), {(0, 0): one, (1, 1): one})]},
           {(): [((), {(0, 1): one, (1, 0): one})]}]
    return WeightModule(from_assoc(make_Q(tower, 1)), tower, [()],
                        {(): (EVEN, ODD)}, act)


# ---------------------------------------------------------------------------
# Weight-module tensor machinery
# ---------------------------------------------------------------------------


def tensor_same_algebra(m1: WeightModule, m2: WeightModule) -> WeightModule:
    """V1 (x) V2 with the diagonal action over a common algebra; weights
    add.  g acts by the Koszul tensors rho1(g) (x) 1 + 1 (x) rho2(g)
    (_koszul).

    Weights are handled by position: i1, i2 index m1.weights and
    m2.weights, t the product's weights.  out.pair_data holds
    (m1, m2, pair_basis, target, offset): pair_basis[t] lists the
    (i1, k1, i2, k2) spanning product weight t, and the pair block
    (i1, i2) sits in weight target[i1][i2] from position offset[i1][i2]
    on, k1-major, so (i1, k1, i2, k2) is at offset + k1 * d2 + k2."""
    alg = m1.algebra
    ws1, ws2 = m1.weights, m2.weights
    sums: dict = {}   # product weight -> [(i1, i2), ...] in meeting order
    for i1, w1 in enumerate(ws1):
        for i2, w2 in enumerate(ws2):
            sums.setdefault(tuple(a + b for a, b in zip(w1, w2)),
                            []).append((i1, i2))
    weights = sorted(sums, key=weight_sort_key)
    target = [[0] * len(ws2) for _ in ws1]
    offset = [[0] * len(ws2) for _ in ws1]
    pair_basis = []
    parities = {}
    for t, w in enumerate(weights):
        basis = []
        for i1, i2 in sums[w]:
            target[i1][i2], offset[i1][i2] = t, len(basis)
            basis.extend((i1, k1, i2, k2)
                         for k1 in range(m1.block_dim(ws1[i1]))
                         for k2 in range(m2.block_dim(ws2[i2])))
        pair_basis.append(basis)
        parities[w] = tuple((m1.parities[ws1[i1]][k1]
                             + m2.parities[ws2[i2]][k2]) % 2
                            for (i1, k1, i2, k2) in basis)
    pair = (m1, m2, pair_basis, target, offset)
    pos1 = {w: i for i, w in enumerate(ws1)}
    pos2 = {w: i for i, w in enumerate(ws2)}
    act = []
    for g in range(alg.dim):
        # each factor's blocks of g as (target position, entries)
        b1 = [[(pos1[wt], blk) for wt, blk in m1.blocks_of(g, w)]
              for w in ws1]
        b2 = [[(pos2[wt], blk) for wt, blk in m2.blocks_of(g, w)]
              for w in ws2]
        blocks: dict = {}
        for w, found in zip(weights, _koszul(
                pair, ((b1, None, False), (None, b2, alg.space.parity(g))))):
            # entries that cancelled are gone; so is a block left empty
            pieces = [(weights[tt], ent) for tt, ent in found.items() if ent]
            if pieces:
                blocks[w] = pieces
        act.append(blocks)
    out = WeightModule(alg, m1.tower, weights, parities, act, qd=m1.qd)
    out.pair_data = pair
    return out


def _koszul(pair, terms) -> list:
    """The sum of the Koszul tensors A (x) B over the (a, b, |B|) in terms,
    on the pair blocks of the layout pair of tensor_same_algebra:
    (A (x) B)(v (x) w) = (-1)^{|B||v|} Av (x) Bw.  a[i1] lists A's blocks
    (target position, entries) from m1.weights[i1], b[i2] B's from
    m2.weights[i2]; None is the identity, which is never multiplied.
    out[t] maps each target weight position to the entries from product
    weight t, in order of first meeting."""
    m1, m2, pair_basis, target, offset = pair
    d2 = [m2.block_dim(w) for w in m2.weights]
    ident1 = [[(i1, {(k, k): None for k in range(m1.block_dim(w))})]
              for i1, w in enumerate(m1.weights)]
    ident2 = [[(i2, {(k, k): None for k in range(d)})]
              for i2, d in enumerate(d2)]
    out = [{} for _ in pair_basis]
    for i1, w1 in enumerate(m1.weights):
        par = m1.parities[w1]
        for i2, dd in enumerate(d2):
            c0, found = offset[i1][i2], out[target[i1][i2]]
            for a, b, b_odd in terms:
                for i1t, x in (ident1 if a is None else a)[i1]:
                    for i2t, y in (ident2 if b is None else b)[i2]:
                        r0, dt = offset[i1t][i2t], d2[i2t]
                        items = []
                        for (r1, k1), u in x.items():
                            for (r2, k2), v in y.items():
                                e = v if u is None else u if v is None \
                                    else u * v
                                items.append(((r0 + r1 * dt + r2,
                                               c0 + k1 * dd + k2),
                                              -e if b_odd and par[k1] else e))
                        add_entries(found.setdefault(target[i1t][i2t], {}),
                                    items)
    return out


def hat_tensor_weight(m1: WeightModule, m2: WeightModule,
                      s1: WeightSchur, s2: WeightSchur):
    """Irreducible product of two weight modules over a common algebra
    (diagonal action; used for evaluation modules with disjoint supports,
    and through outer_factors for products over a direct sum).

    info carries the split decision, the resulting WeightSchur (the odd
    endomorphism of a product with exactly one type-Q factor is phi (x) 1
    or 1 (x) phi, checked by _check_product_phi; a split result is type
    M), and in the split case both halves (_split_half), the +1 and -1
    eigenspaces of the even J = (i phi1) (x) phi2.  J is checked exactly
    to square to id ("normalization broken" otherwise) and to commute
    with the action (_check_blockwise); AssertionError otherwise."""
    full = tensor_same_algebra(m1, m2)

    def on_full(phi1, phi2):
        # phi1 (x) phi2 for weight-preserving blocks {w: entries}, None
        # the identity and phi2 odd, as the product's blocks
        a, b = (None if phi is None else
                [[(i, phi[w])] for i, w in enumerate(m.weights)]
                for m, phi in ((m1, phi1), (m2, phi2)))
        found = _koszul(full.pair_data, ((a, b, phi2 is not None),))
        return {w: f.get(t, {})
                for t, (w, f) in enumerate(zip(full.weights, found))}
    if not (s1.is_type_q and s2.is_type_q):
        result = WeightSchur(False, None)
        if s1.is_type_q or s2.is_type_q:
            phi = on_full(s1.phi_blocks, s2.phi_blocks)
            _check_product_phi(full, phi)
            result = WeightSchur(True, phi)
        return full, {"split": False, "result_schur": result}
    i_unit = m1.tower.i()
    j = on_full({w: {k: v * i_unit for k, v in blk.items()}
                 for w, blk in s1.phi_blocks.items()}, s2.phi_blocks)
    _check_blockwise(full, j, False, 1, "(phi1_hat (x) phi2)")
    plus, minus = (_split_half(full, j, sign) for sign in (1, -1))
    return plus, {"split": True, "plus": plus, "minus": minus,
                  "result_schur": WeightSchur(False, None)}


def _split_half(full: WeightModule, j: dict, sign: int) -> WeightModule:
    """The sign-eigenspace of the even involution J, given by its blocks j,
    on the product full, where J commutes with the action.  J swaps the
    pair vectors whose first factor is even with the others (checked;
    AssertionError otherwise), so a basis is b_k = e_k + sign J e_k over
    the even-first positions k, in order: a vector of the eigenspace has
    coordinate v_k at b_k, and b_k has the parity of e_k.  g acts by the
    block of rho(g) (1 + sign J) at the rows and columns of those
    positions."""
    m1, _, pair_basis, _, _ = full.pair_data
    keep = {w: [k for k, (i1, k1, _, _) in enumerate(basis)
                if m1.parities[m1.weights[i1]][k1] == EVEN]
            for w, basis in zip(full.weights, pair_basis)}
    at = {w: {k: i for i, k in enumerate(ks)} for w, ks in keep.items()}
    # column k of 1 + sign J, for k kept, as (row, entry); None is 1
    cols = {w: {k: [(k, None)] for k in ks} for w, ks in keep.items()}
    for w, blk in j.items():
        for (r, c), v in blk.items():
            if (r in at[w]) == (c in at[w]):
                raise AssertionError("J keeps the parity of the first factor")
            if c in cols[w]:
                cols[w][c].append((r, v if sign > 0 else -v))
    act = []
    for g in range(full.algebra.dim):
        blocks: dict = {}
        for w in full.weights:
            pieces = []
            for wt, blk in full.blocks_of(g, w):
                rows = at[wt]
                by_col: dict = {}   # column -> [(row in the half, entry)]
                for (r, c), v in blk.items():
                    if r in rows:
                        by_col.setdefault(c, []).append((rows[r], v))
                ent: dict = {}
                for col, k in enumerate(keep[w]):
                    add_entries(ent, (((i, col), v if u is None else v * u)
                                      for r, u in cols[w][k]
                                      for i, v in by_col.get(r, ())))
                if ent:
                    pieces.append((wt, ent))
            if pieces:
                blocks[w] = pieces
        act.append(blocks)
    return WeightModule(full.algebra, full.tower, full.weights,
                        {w: tuple(full.parities[w][k] for k in ks)
                         for w, ks in keep.items()}, act, qd=full.qd)


def _check_product_phi(m: WeightModule, phi: dict):
    """The type rule's phi on a product, checked exactly to be odd, to
    supercommute with the action and to square to -id (_check_blockwise);
    AssertionError otherwise."""
    _check_blockwise(m, phi, True, -1, "phi of the product")


def _check_blockwise(m: WeightModule, op: dict, odd: bool, square: int,
                     name: str):
    """Exact checks on raw entries (each entry one raw_dot) of a
    weight-preserving operator op on m, given by its blocks {w: entries}:
    it has parity odd, supercommutes with every generator x of m's algebra
    (LieSuper.generators), op rho(x) = (-1)^{|op||x|} rho(x) op, and
    squares to square * id; AssertionError naming the operator otherwise.
    The x with which op supercommutes form a Lie sub-superalgebra (expand
    rho([x, y]) and move op past each factor), so op then supercommutes
    with every element."""
    tower = m.tower
    base, pos = {}, 0   # weight -> flat position of its block
    for w in m.weights:
        base[w], pos = pos, pos + m.block_dim(w)
    ph, neg = {}, {}
    for w, blk in op.items():
        pars, b = m.parities[w], base[w]
        for (r, c), v in blk.items():
            if (pars[r] != pars[c]) != odd:
                raise AssertionError(f"{name} is not "
                                     f"{'odd' if odd else 'even'}")
            ph.setdefault(b + r, {})[b + c] = raw_of(v)
            neg.setdefault(b + r, {})[b + c] = raw_of(-v)
    for g in m.algebra.generators:
        # x op - (-1)^{|x||op|} op x
        xs: dict = {}
        for w in m.weights:
            for wt, blk in m.blocks_of(g, w):
                for (r, c), v in blk.items():
                    xs.setdefault(base[wt] + r, {})[base[w] + c] = raw_of(v)
        anti = odd and m.algebra.space.parity(g) == ODD
        if _raw_products(((xs, ph), (ph if anti else neg, xs)), tower.gens):
            raise AssertionError(f"{name} does not "
                                 f"{'supercommute' if odd else 'commute'} "
                                 "with the action")
    want = raw_of(tower.from_int(square))
    if _raw_products(((ph, ph),), tower.gens) != \
            {i: {i: want} for i in range(pos)}:
        raise AssertionError(f"{name} does not square to "
                             f"{'-id' if square < 0 else 'id'}; "
                             "normalization broken")


def outer_factors(m1: WeightModule, m2: WeightModule,
                  s1: WeightSchur, s2: WeightSchur):
    """The factors of V1 (x) V2 over g1 (+) g2, in the argument order of
    hat_tensor_weight: each keeps its own blocks on its summand's basis
    elements and acts by zero on the other's, and its weights become
    weights of h1 (+) h2, w -> (w, 0) and w -> (0, w), so that the
    diagonal product carries true weights (and no root datum of q).  The
    phi blocks of the Schur data move with them."""
    g = direct_sum(m1.algebra, m2.algebra)
    zero = m1.tower.zero()
    z1 = tuple(zero for _ in m1.weights[0])
    z2 = tuple(zero for _ in m2.weights[0])

    def own(m, s, f, before, after):
        act = [{} for _ in range(before)] + \
            [{f(w): [(f(wt), blk) for wt, blk in blks]
              for w, blks in a.items()} for a in m.act] + \
            [{} for _ in range(after)]
        if s.is_type_q:
            s = WeightSchur(True, {f(w): blk
                                   for w, blk in s.phi_blocks.items()})
        return WeightModule(g, m.tower, [f(w) for w in m.weights],
                            {f(w): p for w, p in m.parities.items()},
                            act), s
    p1, t1 = own(m1, s1, lambda w: w + z2, 0, m2.algebra.dim)
    p2, t2 = own(m2, s2, lambda w: z1 + w, m1.algebra.dim, 0)
    return p1, p2, t1, t2


def assoc_check(m1: WeightModule, m2: WeightModule,
                m3: WeightModule) -> bool:
    """(V1 hat-x V2) hat-x V3 isomorphic to V1 hat-x (V2 hat-x V3), with
    an explicit witness.  Both are modules over (g1 + g2) + g3 and
    g1 + (g2 + g3): the basis enumerations of the direct sums and the
    concatenated weights coincide, so the actions compare directly."""

    def hat(a, sa, b, sb):
        prod, info = hat_tensor_weight(*outer_factors(a, b, sa, sb))
        return prod, info["result_schur"]

    s1, s2, s3 = (weight_schur_data(m) for m in (m1, m2, m3))
    left, _ = hat(*hat(m1, s1, m2, s2), m3, s3)
    right, _ = hat(m1, s1, *hat(m2, s2, m3, s3))
    ok, _ = is_isomorphic_weight(left, right)
    return ok


# ---------------------------------------------------------------------------
# Catalog of q-modules and evaluation modules
# ---------------------------------------------------------------------------


def trivial_q_module(qd: QueerData) -> WeightModule:
    tower = qd.tower
    zero_w = tuple(tower.zero() for _ in range(qd.n))
    act = [{} for _ in range(qd.dim)]
    return WeightModule(qd.algebra, tower, [zero_w], {zero_w: (EVEN,)},
                        act, qd=qd)


def adjoint_q_module(qd: QueerData) -> WeightModule:
    """The adjoint representation, graded by roots."""
    groups: dict = {}
    for i, w in enumerate(qd.basis_root):
        groups.setdefault(w, []).append(i)
    weights = sorted(groups, key=weight_sort_key)
    index = {w: {b: k for k, b in enumerate(groups[w])} for w in weights}
    parities = {w: tuple(qd.space.parity(b) for b in groups[w])
                for w in weights}
    act = []
    for g in range(qd.dim):
        blocks: dict = {}
        for w in weights:
            targets: dict = {}
            for col, b in enumerate(groups[w]):
                for t, c in qd.algebra.bk[g][b].items():
                    wt = qd.basis_root[t]
                    targets.setdefault(wt, {})[(index[wt][t], col)] = c
            if targets:
                blocks[w] = list(targets.items())
        act.append(blocks)
    return WeightModule(qd.algebra, qd.tower, weights, parities, act, qd=qd)


class Catalog:
    """Finite user-extensible catalog of irreducible q-modules (weight
    modules over q itself with cached certificates and Schur data)."""

    def __init__(self, qd: QueerData):
        self.qd = qd
        self.entries: dict = {}
        self.add("trivial", trivial_q_module(qd))
        self.add("adjoint", adjoint_q_module(qd))

    def add(self, name: str, module: WeightModule):
        """Add an entry; ValueError unless it is a module over q itself,
        the modules whose top weight is a complete invariant (an
        evaluation module over q (x) A shares its top weight with
        non-isomorphic ones).  One over a relabeling of q sharing its
        table (q (x) K, where simple_quotient builds) is re-pointed at q."""
        qd = self.qd
        if module.qd is not qd or module.algebra.bk is not qd.algebra.bk:
            raise ValueError(f"catalog entry {name!r} is not a module over "
                             f"q({qd.n}) itself")
        if module.algebra is not qd.algebra:
            module = WeightModule(qd.algebra, module.tower, module.weights,
                                  module.parities, module.act, qd=qd)
        self.entries[name] = {"module": module, "cert": None, "schur": None}

    def names(self):
        return sorted(self.entries)

    def module(self, name: str) -> WeightModule:
        return self.entries[name]["module"]

    def certificate(self, name: str) -> tuple:
        """(top weight, type Q?) of an entry certified irreducible
        (_certify_irreducible), cached."""
        e = self.entries[name]
        if e["cert"] is None:
            e["cert"] = _certify_irreducible(e["module"],
                                             f"catalog entry {name!r}")
        return e["cert"]

    def weight_schur(self, name: str) -> WeightSchur:
        """Schur data of an entry, typed by its certificate, cached."""
        e = self.entries[name]
        if e["schur"] is None:
            e["schur"] = _typed_weight_schur(e["module"],
                                             self.certificate(name)[1])
        return e["schur"]


def _h0_fixed_columns(qd: QueerData, tau: GradedMap) -> dict:
    """The columns of an automorphism tau of q, once tau is checked to fix
    the even Cartan part h0 pointwise (ValueError otherwise).  Such a tau
    commutes with ad h for every h in h0, so it maps each root space of q
    to itself and keeps the Borel subalgebra."""
    one = qd.tower.one()
    cols = tau.columns()
    if any(cols.get(h) != {h: one} for h in qd.h0_indices):
        raise ValueError("automorphism moves the even Cartan part; "
                         "cannot keep the weight grading")
    return cols


def twist_q_module(m: WeightModule, qd: QueerData,
                   tau: GradedMap) -> WeightModule:
    """Pullback of a q-module along an automorphism tau of q: x acts as
    tau(x), so the module twisted by sigma is the pullback along
    sigma^-1.  Requires tau to fix the even Cartan part pointwise (true
    for the diagonal conjugations used here); weights are then
    unchanged."""
    cols = _h0_fixed_columns(qd, tau)
    return pullback(m, m.algebra,
                    (cols.get(g, {}).items() for g in range(qd.dim)))


def ev_pullback(ms: MapSuper, p: int, m: WeightModule) -> WeightModule:
    """The evaluation module of a q-module m at point p: m as a module
    over q (x) A, pulled back along evaluation at p, EvMap(ms, [p])."""
    cols = EvMap(ms, [p]).cols
    return pullback(m, ms.algebra,
                    (cols[idx].items() for idx in range(ms.dim)))


def restrict_to_invariants(m: WeightModule, inv: InvariantSub) -> WeightModule:
    """The same carrier viewed as a module over the invariant subalgebra."""
    return pullback(m, inv.algebra,
                    (vec.items() for vec in inv.basis_vectors()))


def pullback(m: WeightModule, algebra, images) -> WeightModule:
    """m as a module over algebra through a linear map into m.algebra:
    basis element k of algebra acts as sum_j c_j rho(x_j) over the
    (j, c_j) in images[k].  Weights and parities are kept."""
    act = [_combine(m, terms) for terms in images]
    return WeightModule(algebra, m.tower, list(m.weights), dict(m.parities),
                        act, qd=m.qd)


def _combine(m: WeightModule, terms) -> dict:
    """Blocks of sum_k c_k rho(x_k) over (k, c_k) terms, in the act[i]
    form {w: [(target, entries)]}.  Only nonzero coefficients are
    multiplied out; entries and blocks that cancel to zero are dropped
    (a product c_k v is never zero: the tower is a field)."""
    acc: dict = {}   # w -> {target: {(row, col): entry}}
    for k, c in terms:
        if not c.co:
            continue
        for w, blks in m.act[k].items():
            cur = acc.setdefault(w, {})
            for (wt, blk) in blks:
                add_entries(cur.setdefault(wt, {}),
                            ((key, c * v) for key, v in blk.items()))
    act = {}
    for w, d in acc.items():
        pieces = [(wt, ent) for wt, ent in d.items() if ent]
        if pieces:
            act[w] = pieces
    return act


# ---------------------------------------------------------------------------
# Classification enumerator
# ---------------------------------------------------------------------------


@dataclass
class ClassificationRow:
    assignment: dict
    dim: int
    graded_dims: tuple
    irreducible: bool
    schur_types: list
    ann_basis: list
    support: list
    reduced: bool
    top_weight: tuple


def classify_enumerate(ms: MapSuper, catalog: Catalog,
                       inv: InvariantSub | None = None) -> dict:
    """Every equivariant finitely supported assignment over the catalog,
    each row read off the data of its classes.  inv holds the invariants
    of a free action; without it the group is trivial.

    Certificate, checked exactly once per run: each generator of the
    group fixes the even Cartan part h0 of q pointwise (ValueError
    otherwise); evaluation at the orbit representatives reps maps the
    invariants onto (+)_reps q; each entry, a module over q itself
    (Catalog.add), is certified irreducible (Catalog.certificate); and
    the entries' top weights are pairwise distinct (AssertionError naming
    both entries otherwise).

    The argument is the highest-weight theorem for q(n): an irreducible
    finite-dimensional q-module is fixed up to isomorphism by its top
    weight (its top block is the irreducible Clifford module of that
    weight, unique up to parity shift, and isomorphisms may be odd, so
    V and Pi V are isomorphic).  So the top weights, certified with the
    entries, decide isomorphism of classes.  An element fixing h0
    pointwise maps each root space to itself and keeps the Borel
    subalgebra, so every twist of a class is irreducible with the same
    top weight, hence isomorphic to the class, and the equivariant
    assignments are those constant on orbits.  The theorem then makes
    each row, the (x)^-product over (+)_S q of the classes at S, the reps
    of nontrivial class, an irreducible module, distinct rows
    non-isomorphic, and its annihilator the kernel of evaluation at its
    support."""
    names = catalog.names()
    if inv is None:
        inv = invariants(ms, GammaAction(ms.tower, []))
    twisted = not inv.act.is_trivial()
    report = {"twisted": twisted, "rows": [], "catalog": names}
    if not inv.gamma_report["free"]:
        raise ValueError("; ".join(
            f for f in inv.gamma_report["failures"] if "freeness" in f))
    orbits = inv.gamma_report["orbits"]
    # the generators fix h0 pointwise, hence so does every element
    for _, _, q_map in inv.act.generators:
        _h0_fixed_columns(ms.qd, q_map)
    reps = [min(orbit) for orbit in orbits]
    if ev_rank(ms, reps, inv.averaged) != len(reps) * ms.g.dim:
        what = "of the invariants at the orbit representatives" if twisted \
            else "at the points"
        raise AssertionError(f"evaluation {what} {reps} is not onto")
    # per class: graded dims, then top weight and type by its certificate
    classes = {n: (catalog.module(n).graded_dims(), *catalog.certificate(n))
               for n in names}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if classes[a][1] == classes[b][1]:
                raise AssertionError(f"catalog entries {a!r} and {b!r} are "
                                     "isomorphic")
    tower, coeff = ms.tower, ms.coeff
    zero_w = tuple(tower.zero() for _ in range(ms.qd.n))
    for assign in _assignments(orbits, names):
        factors = [classes[assign[p]] for p in sorted(reps)
                   if assign[p] != "trivial"]
        ne, no = _hat_graded_dims((dims, is_q) for dims, _, is_q in factors)
        top = zero_w
        for _, w, _ in factors:
            top = tuple(a + b for a, b in zip(top, w))
        supp = sorted(p for p, c in assign.items() if c != "trivial")
        ann = coeff.vanishing_ideal(supp)
        report["rows"].append(ClassificationRow(
            assignment=dict(assign), dim=ne + no, graded_dims=(ne, no),
            irreducible=True, schur_types=[f[2] for f in factors],
            ann_basis=[[str(x) for x in v] for v in ann.basis],
            support=supp, reduced=True,
            top_weight=tuple(str(x) for x in top)))
    report["pairwise_distinct"] = True
    return report


def _hat_graded_dims(factors) -> tuple:
    """Graded dimensions of the (x)^-product of modules given as (graded
    dims, type Q?) in product order: the parity convolution, halved at
    every second type-Q factor, as hat_tensor_weight splits each such
    pair and leaves a type-M product."""
    ne, no, pending_q = 1, 0, False
    for (e, o), is_q in factors:
        ne, no = ne * e + no * o, ne * o + no * e
        if is_q and pending_q:
            ne, no = ne // 2, no // 2
        pending_q ^= is_q
    return ne, no


def _assignments(groups, names):
    """All maps assigning a catalog name to each group (orbit or point);
    the assignment dict maps every member of the group to the name chosen
    at its representative."""
    out = [{}]
    for group in groups:
        new = []
        for cur in out:
            for name in names:
                nxt = dict(cur)
                for p in group:
                    nxt[p] = name
                new.append(nxt)
        out = new
    return out
