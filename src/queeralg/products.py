"""Irreducible products of modules, evaluation modules over map queer
superalgebras, Schur data, and the classification enumerator for finitely
supported point assignments."""

from __future__ import annotations

from dataclasses import dataclass

from .assocsuper import _raw_products, density_type_from_maps, make_Q
from .graded import (EVEN, ODD, GradedMap, GradedSpace, add_entries, kernel,
                     mat_kernel, odd_schur, solve_columns)
from .coeffalg import GammaAction, IdealRep
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


def weight_schur_data(m: WeightModule) -> WeightSchur:
    """WeightSchur of a weight module certified irreducible first
    (ValueError otherwise, see _certify_irreducible)."""
    _certify_irreducible(m, "module")
    return _solve_weight_schur(m)


def _certify_irreducible(m: WeightModule, subject: str):
    """Raise ValueError "<subject> is not irreducible: <clause>" unless m
    is certified irreducible: a module over q itself by the
    highest-weight criterion (is_irreducible_hw over the triangular split
    of q), any other module by the density oracle on its flat view.

    The criterion is sufficient.  Let N != 0 be a graded submodule of the
    finite-dimensional module M; it is the sum of its weight spaces, since
    h0 acts diagonally.  The vectors of a maximal weight of N are killed
    by the raising generators, so they are singular; clause 1 puts that
    weight at the top lambda, so N meets M_lambda in a nonzero Cartan
    submodule.  Clause 3 (the density oracle on the small top block) gives
    M_lambda inside N, and clause 4 (generated_by_top) gives N = M.  It is
    also necessary for finite-dimensional irreducibles, so no valid module
    is refused."""
    if m.qd is not None and m.algebra is m.qd.algebra:
        why: dict = {}
        if not is_irreducible_hw(m, why):
            raise ValueError(f"{subject} is not irreducible: "
                             f"{why['reason']}")
        return
    d = density_type_from_maps(m.mats, m.space, m.tower)
    if not d.certifies_irreducible:
        raise ValueError(f"{subject} is not irreducible: density oracle "
                         f"gives {d!r}")


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
    one = tower.one()
    ops = [({(idx[row], idx[col]): v
             for (row, col), v in m.op_entries({g: one}).items()},
            m.algebra.space.parity(g)) for g in m.algebra.generators]
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
    add.  The Koszul sign acts through the parity of the first factor.

    Weights are handled by position: i1, i2 index m1.weights and
    m2.weights, t the product's weights.  out.pair_data holds
    (m1, m2, pair_basis, target, offset): pair_basis[t] lists the
    (i1, k1, i2, k2) spanning product weight t, and the pair block
    (i1, i2) sits in weight target[i1][i2] from position offset[i1][i2]
    on, k1-major, so (i1, k1, i2, k2) is at offset + k1 * d2 + k2."""
    tower = m1.tower
    alg = m1.algebra
    ws1, ws2 = m1.weights, m2.weights
    d2 = [m2.block_dim(w) for w in ws2]
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
                         for k2 in range(d2[i2]))
        pair_basis.append(basis)
        parities[w] = tuple((m1.parities[ws1[i1]][k1]
                             + m2.parities[ws2[i2]][k2]) % 2
                            for (i1, k1, i2, k2) in basis)
    pos1 = {w: i for i, w in enumerate(ws1)}
    pos2 = {w: i for i, w in enumerate(ws2)}
    par1 = [m1.parities[w] for w in ws1]
    act = []
    for g in range(alg.dim):
        odd = alg.space.parity(g)
        # each factor's blocks of g as (target position, entries)
        b1 = [[(pos1[wt], blk) for wt, blk in m1.blocks_of(g, w)]
              for w in ws1]
        b2 = [[(pos2[wt], blk) for wt, blk in m2.blocks_of(g, w)]
              for w in ws2]
        blocks: dict = {}
        for t, w in enumerate(weights):
            # target weight -> {(row, col): entry}, in order of first meeting
            found: dict = {}
            for i1, i2 in sums[w]:
                c0, dd = offset[i1][i2], d2[i2]
                # rho1(g) (x) 1
                for i1t, nz in b1[i1]:
                    r0 = offset[i1t][i2]
                    add_entries(found.setdefault(target[i1t][i2], {}),
                                (((r0 + r * dd + k2, c0 + k1 * dd + k2), v)
                                 for (r, k1), v in nz.items()
                                 for k2 in range(dd)))
                # 1 (x) rho2(g), sign by parity of the first factor
                for i2t, nz in b2[i2]:
                    r0, dt = offset[i1][i2t], d2[i2t]
                    add_entries(found.setdefault(target[i1][i2t], {}),
                                (((r0 + k1 * dt + r, c0 + k1 * dd + k2),
                                  -v if odd and p else v)
                                 for k1, p in enumerate(par1[i1])
                                 for (r, k2), v in nz.items()))
            # entries that cancelled are gone; so is a block left empty
            pieces = [(weights[tt], ent) for tt, ent in found.items() if ent]
            if pieces:
                blocks[w] = pieces
        act.append(blocks)
    out = WeightModule(alg, tower, weights, parities, act, qd=m1.qd)
    out.pair_data = (m1, m2, pair_basis, target, offset)
    return out


def restrict_weight_module(m: WeightModule, emb: dict) -> WeightModule:
    """Submodule spanned per weight w by the columns of emb[w], an even
    injective GradedMap into block w (a kernel embedding), which must be
    action-invariant.  Each image rho(g) emb[w] landing in block wt is
    solved as emb[wt] X = image, every column of all images in one target
    weight by one solve_columns, and every X is checked exactly
    (AssertionError when the subspace is not invariant)."""
    tower = m.tower
    weights = [w for w in m.weights if w in emb]
    spaces = {w: GradedSpace.from_parities(p) for w, p in m.parities.items()}

    def image(w, wt, blk):
        return GradedMap(tower, spaces[w], spaces[wt], blk) * emb[w]
    pieces = []       # (g, w, wt, block), in action order
    for g in range(m.algebra.dim):
        for w in weights:
            for wt, blk in m.blocks_of(g, w):
                if wt in emb:
                    pieces.append((g, w, wt, blk))
                elif not image(w, wt, blk).is_zero:
                    raise AssertionError("subspace is not invariant")
    by_target: dict = {}
    for k, (_, _, wt, _) in enumerate(pieces):
        by_target.setdefault(wt, []).append(k)
    sols = [None] * len(pieces)
    # the images of one target weight at a time: only they are held
    for wt, ks in by_target.items():
        e = emb[wt]
        rows = [{} for _ in range(e.target.dim)]
        for (i, j), x in e.entries.items():
            rows[i][j] = x
        images = [image(*pieces[k][1:]) for k in ks]
        cols = [img.columns() for img in images]
        xs = solve_columns(rows, [c.get(j, {}) for img, c in zip(images, cols)
                                  for j in range(img.source.dim)],
                           e.source.dim, tower)
        if xs is None:
            raise AssertionError("operator image leaves the subspace")
        xs = iter(xs)
        for k, img in zip(ks, images):
            x = GradedMap(tower, img.source, e.source,
                          {(p, j): v for j in range(img.source.dim)
                           for p, v in next(xs).items()})
            if e * x != img:
                raise AssertionError("operator image leaves the subspace")
            sols[k] = x.entries
    act = [{} for _ in range(m.algebra.dim)]
    for (g, w, wt, _), x in zip(pieces, sols):
        if x:
            act[g].setdefault(w, []).append((wt, x))
    return WeightModule(m.algebra, tower, weights,
                        {w: emb[w].source.parities for w in weights}, act,
                        qd=m.qd)


def _tensor_phi_blocks(full: WeightModule, side: int, phi: dict) -> dict:
    """Blocks of phi (x) 1 (side 0) or 1 (x) phi (side 1) on a tensor
    module built by tensor_same_algebra; the second-factor case carries
    the Koszul sign of the first factor's parity."""
    m1, m2, _, target, offset = full.pair_data
    out: dict = {w: {} for w in full.weights}
    for i1, w1 in enumerate(m1.weights):
        for i2, w2 in enumerate(m2.weights):
            ent = out[full.weights[target[i1][i2]]]
            base, dd = offset[i1][i2], m2.block_dim(w2)
            if side == 0:
                for (r, k1), v in phi[w1].items():
                    for k2 in range(dd):
                        ent[(base + r * dd + k2, base + k1 * dd + k2)] = v
            else:
                for k1, p in enumerate(m1.parities[w1]):
                    for (r, k2), v in phi[w2].items():
                        ent[(base + k1 * dd + r, base + k1 * dd + k2)] = \
                            -v if p else v
    return out


def hat_tensor_weight(m1: WeightModule, m2: WeightModule,
                      s1: WeightSchur, s2: WeightSchur):
    """Irreducible product of two weight modules over a common algebra
    (diagonal action; used for evaluation modules with disjoint supports,
    and through outer_factors for products over a direct sum).

    info carries the split decision, the resulting WeightSchur (the odd
    endomorphism of a product with exactly one type-Q factor is phi (x) 1
    or 1 (x) phi, checked by _check_product_phi; a split result is type
    M), and in the split case both eigenspace halves.  The split
    operator phi1_tilde (x) phi2 must square to id on every block;
    AssertionError otherwise."""
    tower = m1.tower
    full = tensor_same_algebra(m1, m2)
    info = {"split": False, "schur_types": (s1.is_type_q, s2.is_type_q)}
    if not (s1.is_type_q and s2.is_type_q):
        result = WeightSchur(False, None)
        if s1.is_type_q or s2.is_type_q:
            side, s = (0, s1) if s1.is_type_q else (1, s2)
            phi = _tensor_phi_blocks(full, side, s.phi_blocks)
            _check_product_phi(full, phi)
            result = WeightSchur(True, phi)
        info["result_schur"] = result
        return full, info
    _, _, pair_basis, target, offset = full.pair_data
    i_unit = tower.adjoin_sqrt(tower.from_int(-1))
    # op(v (x) w) = (-1)^{|phi2||v|} phi1_tilde v (x) phi2 w, one even
    # map per product weight
    ops = [{} for _ in pair_basis]
    for i1, w1 in enumerate(m1.weights):
        for i2, w2 in enumerate(m2.weights):
            op = ops[target[i1][i2]]
            base, dd = offset[i1][i2], m2.block_dim(w2)
            for (r1, k1), v1 in s1.phi_blocks[w1].items():
                v1 = v1 * i_unit
                if m1.parities[w1][k1]:
                    v1 = -v1
                for (r2, k2), v2 in s2.phi_blocks[w2].items():
                    op[(base + r1 * dd + r2, base + k1 * dd + k2)] = v1 * v2
    plus_basis: dict = {}
    minus_basis: dict = {}
    for w, entries in zip(full.weights, ops):
        space = GradedSpace.from_parities(full.parities[w])
        op = GradedMap(tower, space, space, entries, parity=EVEN)
        ident = GradedMap.identity(tower, space)
        if op * op != ident:
            raise AssertionError("(phi1_hat (x) phi2)^2 != id; "
                                 "normalization broken")
        # eigenspaces, blockwise and parity-homogeneous, by their
        # kernel embeddings
        for eig, store in ((ident, plus_basis), (-ident, minus_basis)):
            _, emb = kernel(op - eig)
            if emb.source.dim:
                store[w] = emb
    plus = restrict_weight_module(full, plus_basis)
    minus = restrict_weight_module(full, minus_basis)
    info.update({"split": True, "plus": plus, "minus": minus, "full": full,
                 "result_schur": WeightSchur(False, None)})
    return plus, info


def _check_product_phi(m: WeightModule, phi: dict):
    """The type rule's phi on a product, checked exactly: it must be odd,
    supercommute with every generator of m and square to -id (each
    entry one raw_dot); AssertionError otherwise."""
    tower = m.tower
    ph, neg = {}, {}
    for w, blk in phi.items():
        pars = m.parities[w]
        for (r, c), v in blk.items():
            if pars[r] == pars[c]:
                raise AssertionError("phi of the product is not odd")
            ph.setdefault((w, r), {})[(w, c)] = raw_of(v)
            neg.setdefault((w, r), {})[(w, c)] = raw_of(-v)
    one = tower.one()
    for g in range(m.algebra.dim):
        # x phi - (-1)^|x| phi x
        xs: dict = {}
        for (row, col), v in m.op_entries({g: one}).items():
            xs.setdefault(row, {})[col] = raw_of(v)
        odd = m.algebra.space.parity(g) == ODD
        if _raw_products(((xs, ph), (ph if odd else neg, xs)), tower.gens):
            raise AssertionError("phi of the product does not supercommute "
                                 "with the action")
    minus_one = raw_of(-one)
    if _raw_products(((ph, ph),), tower.gens) != \
            {(w, r): {(w, r): minus_one}
             for w in m.weights for r in range(m.block_dim(w))}:
        raise AssertionError("phi of the product does not square to -id")


def outer_factors(m1: WeightModule, m2: WeightModule,
                  s1: WeightSchur, s2: WeightSchur):
    """The factors of V1 (x) V2 over g1 (+) g2, in the argument order of
    hat_tensor_weight: each is pulled back along its projection, and its
    weights become weights of h1 (+) h2, w -> (w, 0) and w -> (0, w), so
    that the diagonal product carries true weights.  The phi blocks of
    the Schur data move with them."""
    g = direct_sum(m1.algebra, m2.algebra)
    zero, one = m1.tower.zero(), m1.tower.one()
    z1 = tuple(zero for _ in m1.weights[0])
    z2 = tuple(zero for _ in m2.weights[0])
    # the projections: each basis element of one summand acts as itself
    n1, n2 = m1.algebra.dim, m2.algebra.dim
    own = [[(k, one)] for k in range(max(n1, n2))]
    p1, t1 = _relabelled(pullback(m1, g, own[:n1] + [()] * n2), s1,
                         lambda w: w + z2)
    p2, t2 = _relabelled(pullback(m2, g, [()] * n1 + own[:n2]), s2,
                         lambda w: z1 + w)
    return p1, p2, t1, t2


def _relabelled(m: WeightModule, s: WeightSchur, f):
    """m and its Schur data with every weight w renamed f(w); the weights
    are no longer those of q, so the result carries no root datum."""
    act = [{f(w): [(f(wt), rows) for wt, rows in blks]
            for w, blks in a.items()} for a in m.act]
    out = WeightModule(m.algebra, m.tower, [f(w) for w in m.weights],
                       {f(w): p for w, p in m.parities.items()}, act)
    if not s.is_type_q:
        return out, s
    return out, WeightSchur(True, {f(w): blk
                                   for w, blk in s.phi_blocks.items()})


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
    modules over q with cached Schur data)."""

    def __init__(self, qd: QueerData):
        self.qd = qd
        self.entries: dict = {}
        self.add("trivial", trivial_q_module(qd))
        self.add("adjoint", adjoint_q_module(qd))

    def add(self, name: str, module: WeightModule):
        self.entries[name] = {"module": module, "schur": None}

    def names(self):
        return sorted(self.entries)

    def module(self, name: str) -> WeightModule:
        return self.entries[name]["module"]

    def weight_schur(self, name: str) -> WeightSchur:
        """Schur data of an entry, certified irreducible first (by the
        highest-weight criterion for an entry over q) and cached.  Raises
        ValueError naming the entry and the failing clause."""
        e = self.entries[name]
        if e["schur"] is None:
            _certify_irreducible(e["module"], f"catalog entry {name!r}")
            e["schur"] = _solve_weight_schur(e["module"])
        return e["schur"]


def twist_q_module(m: WeightModule, qd: QueerData,
                   tau: GradedMap) -> WeightModule:
    """Pullback of a q-module along an automorphism tau of q: x acts as
    tau(x), so the module twisted by sigma is the pullback along
    sigma^-1.  Requires tau to fix the even Cartan part pointwise (true
    for the diagonal conjugations used here); weights are then
    unchanged."""
    one = m.tower.one()
    cols = tau.columns()
    for hidx in qd.h0_indices:
        if cols.get(hidx) != {hidx: one}:
            raise ValueError("automorphism moves the even Cartan part; "
                             "cannot keep the weight grading")
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
    top_weight: tuple | None = None


def classify_enumerate(ms: MapSuper, catalog: Catalog,
                       inv: InvariantSub | None = None) -> dict:
    """Every equivariant finitely supported assignment over the catalog,
    each row read off the data of its classes.  inv holds the invariants
    of a free action; without it the group is trivial.

    Certificate, checked exactly once per run: every class is stable
    under the group twist, so the equivariant assignments are those
    constant on orbits; evaluation at the orbit representatives reps maps
    the invariants onto (+)_reps q; each entry is certified irreducible
    (Catalog.weight_schur); and the classes are pairwise non-isomorphic
    (AssertionError naming both entries otherwise).  The theorem then
    makes each row, the (x)^-product over (+)_S q of the classes at S,
    the reps of nontrivial class, an irreducible module, distinct rows
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
    # the non-identity elements are closed under inverses, so pulling
    # back along each of them checks every twist
    for name in names:
        mod = catalog.module(name)
        for _, q_map in inv.act.elements[1:]:
            ok, _ = is_isomorphic_weight(mod, twist_q_module(mod, ms.qd,
                                                             q_map))
            if not ok:
                raise ValueError(f"catalog class {name!r} is not stable "
                                 "under the group twist")
    reps = [min(orbit) for orbit in orbits]
    if ev_rank(ms, reps, inv.averaged) != len(reps) * ms.g.dim:
        what = "of the invariants at the orbit representatives" if twisted \
            else "at the points"
        raise AssertionError(f"evaluation {what} {reps} is not onto")
    # per class: graded dims, Schur type (certified first), top weight
    classes = {}
    for name in names:
        mod, is_q = catalog.module(name), catalog.weight_schur(name).is_type_q
        classes[name] = (mod.graded_dims(), is_q, mod.maximal_weights()[0])
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if classes[a][0] == classes[b][0] and is_isomorphic_weight(
                    catalog.module(a), catalog.module(b))[0]:
                raise AssertionError(f"catalog entries {a!r} and {b!r} are "
                                     "isomorphic")
    tower, coeff = ms.tower, ms.coeff
    zero_w = tuple(tower.zero() for _ in range(ms.qd.n))
    for assign in _assignments(orbits, names):
        factors = [classes[assign[p]] for p in sorted(reps)
                   if assign[p] != "trivial"]
        ne, no = _hat_graded_dims((dims, is_q) for dims, is_q, _ in factors)
        top = zero_w
        for _, _, w in factors:
            top = tuple(a + b for a, b in zip(top, w))
        supp = sorted(p for p, c in assign.items() if c != "trivial")
        ann = IdealRep(coeff, mat_kernel(
            ({k: c for k, c in enumerate(coeff.eval_functionals[p]) if c.co}
             for p in supp), coeff.dim, tower))
        report["rows"].append(ClassificationRow(
            assignment=dict(assign), dim=ne + no, graded_dims=(ne, no),
            irreducible=True, schur_types=[f[1] for f in factors],
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
