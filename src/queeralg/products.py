"""Irreducible products of modules, evaluation modules over map queer
superalgebras, Schur data, and the classification enumerator for finitely
supported point assignments."""

from __future__ import annotations

from dataclasses import dataclass

from .assocsuper import _raw_products, density_type_from_maps, make_Q
from .graded import (EVEN, ODD, GradedMap, GradedSpace, identity_rows,
                     kernel, mat_mul, odd_schur, solve_columns, zero_rows)
from .hwmod import is_irreducible_hw, triangular_of_map, triangular_of_q
from .liesuper import (WeightModule, direct_sum, from_assoc,
                       is_isomorphic_weight, weight_sort_key)
from .mapsuper import (InvariantSub, MapSuper, ann_and_support,
                       ann_and_support_gamma, ev_gamma_rank)
from .queer import QueerData
from .scalars import Tower, raw_dot, raw_of


# ---------------------------------------------------------------------------
# Schur data
# ---------------------------------------------------------------------------


@dataclass
class WeightSchur:
    """Schur data for a weight module: the type flag and, for type Q, the
    odd endomorphism normalized to phi^2 = -id, stored blockwise by
    weight."""

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
    highest-weight criterion (is_irreducible_hw over the triangular pieces
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
        if not is_irreducible_hw(m, triangular_of_q(m.qd), why):
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

    phi supercommutes with the even Cartan generators, which act on block
    w by the scalars w (as in hom_space_weight, the grading is taken to
    be that of m's algebra), so phi preserves weights.  The unknowns are
    therefore the slots of opposite parity inside each block, in
    flat-index order, and odd_schur returns the phi of the solve over all
    of End(V).  phi is normalized to phi^2 = -id (adjoining sqrt(-1/c)
    when needed)."""
    tower = m.tower
    idx = m.flat_index()
    one = tower.one()
    ops = [({(idx[row], idx[col]): v
             for (row, col), v in m.op_entries({g: one}).items()},
            m.algebra.space.parity(g)) for g in range(m.algebra.dim)]
    slots = [(idx[(w, i)], idx[(w, j)]) for w in m.weights
             for i, p in enumerate(m.parities[w])
             for j, q in enumerate(m.parities[w]) if p != q]
    found = odd_schur(ops, m.space, tower, slots)
    if found is None:
        return WeightSchur(False, None)
    phi, c = found
    rows = (phi * tower.adjoin_sqrt(-c.inv())).rows
    blocks = {}
    for w in m.weights:
        b, d = idx[(w, 0)], m.block_dim(w)
        blocks[w] = [row[b:b + d] for row in rows[b:b + d]]
    return WeightSchur(True, blocks)


def q1_module(tower: Tower) -> WeightModule:
    """C^{1|1} over Lie(Q(1)), of type Q: the identity acts as the
    identity and the odd generator as the parity swap.  Q(1) has no even
    Cartan part of q's kind, so the module has the one weight ()."""
    one, zero = tower.one(), tower.zero()
    act = [{(): [((), [[one, zero], [zero, one]])]},
           {(): [((), [[zero, one], [one, zero]])]}]
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
        # each factor's blocks of g as (target position, nonzero entries)
        b1 = [_indexed_blocks(m1.blocks_of(g, w), pos1) for w in ws1]
        b2 = [_indexed_blocks(m2.blocks_of(g, w), pos2) for w in ws2]
        blocks: dict = {}
        for t, w in enumerate(weights):
            # target weight -> {(row, col): entry}, in order of first meeting
            found: dict = {}
            for i1, i2 in sums[w]:
                c0, dd = offset[i1][i2], d2[i2]
                # rho1(g) (x) 1
                for i1t, nz in b1[i1]:
                    tgt = found.setdefault(target[i1t][i2], {})
                    r0 = offset[i1t][i2]
                    for r, k1, v in nz:
                        for k2 in range(dd):
                            key = (r0 + r * dd + k2, c0 + k1 * dd + k2)
                            cur = tgt.get(key)
                            tgt[key] = v if cur is None else cur + v
                # 1 (x) rho2(g), sign by parity of the first factor
                for i2t, nz in b2[i2]:
                    tgt = found.setdefault(target[i1][i2t], {})
                    r0, dt = offset[i1][i2t], d2[i2t]
                    for k1, p in enumerate(par1[i1]):
                        for r, k2, v in nz:
                            key = (r0 + k1 * dt + r, c0 + k1 * dd + k2)
                            add = -v if odd and p else v
                            cur = tgt.get(key)
                            tgt[key] = add if cur is None else cur + add
            pieces = []
            for tt, entries in found.items():
                nonzero = [(key, v) for key, v in entries.items()
                           if not v.is_zero]
                if nonzero:
                    rows = zero_rows(tower, len(pair_basis[tt]),
                                     len(pair_basis[t]))
                    for (r, c), v in nonzero:
                        rows[r][c] = v
                    pieces.append((weights[tt], rows))
            if pieces:
                blocks[w] = pieces
        act.append(blocks)
    out = WeightModule(alg, tower, weights, parities, act, qd=m1.qd)
    out.pair_data = (m1, m2, pair_basis, target, offset)
    return out


def _indexed_blocks(blocks, pos: dict):
    """(target weight position, [(row, col, entry) nonzero]) per block."""
    return [(pos[wt], [(r, c, v) for r, row in enumerate(rows)
                       for c, v in enumerate(row) if not v.is_zero])
            for wt, rows in blocks]


def restrict_weight_module(m: WeightModule, sub_basis: dict) -> WeightModule:
    """Submodule spanned per weight by the given dense vectors (must be
    action-invariant; verified by exact solves)."""
    tower = m.tower
    weights = [w for w in m.weights if sub_basis.get(w)]
    emb = {w: [[sub_basis[w][j][i] for j in range(len(sub_basis[w]))]
               for i in range(m.block_dim(w))] for w in weights}
    parities = {}
    for w in weights:
        pars = []
        for vec in sub_basis[w]:
            ps = {m.parities[w][k] for k, v in enumerate(vec) if not v.is_zero}
            if len(ps) != 1:
                raise ValueError("subspace basis vector is not homogeneous")
            pars.append(ps.pop())
        parities[w] = tuple(pars)
    act = []
    for g in range(m.algebra.dim):
        blocks: dict = {}
        for w in weights:
            pieces = []
            for (wt, blk) in m.blocks_of(g, w):
                if wt not in emb:
                    img = mat_mul(blk, emb[w], tower)
                    if any(not v.is_zero for row in img for v in row):
                        raise AssertionError("subspace is not invariant")
                    continue
                img = mat_mul(blk, emb[w], tower)
                sol = _solve_columns(emb[wt], img, tower)
                if any(not v.is_zero for row in sol for v in row):
                    pieces.append((wt, sol))
            if pieces:
                blocks[w] = pieces
        act.append(blocks)
    out = WeightModule(m.algebra, tower, weights, parities, act, qd=m.qd)
    out.embedding = emb
    return out


def _solve_columns(emb, img, tower):
    """Solve emb * X = img by one elimination of [emb | img]; raises when
    a column leaves the span."""
    ncols_emb = len(emb[0]) if emb else 0
    ncols = len(img[0]) if img else 0
    rhs_cols = [[row[c] for row in img] for c in range(ncols)]
    sols = solve_columns(emb, rhs_cols, ncols_emb, tower)
    if sols is None:
        raise AssertionError("operator image leaves the subspace")
    # verify every row exactly (the solver only guarantees pivot
    # consistency): row i of emb x is one raw_dot over its nonzeros
    emb_raw = [[(j, raw_of(x)) for j, x in enumerate(row) if x.co]
               for row in emb]
    for sol, rhs in zip(sols, rhs_cols):
        xs = [raw_of(x) for x in sol]
        for row, b in zip(emb_raw, rhs):
            got = raw_dot(((f, xs[j]) for j, f in row if xs[j] is not None),
                          tower.gens)
            if got != raw_of(b):
                raise AssertionError("operator image leaves the subspace")
    return [[sol[j] for sol in sols] for j in range(ncols_emb)]


def _tensor_phi_blocks(full: WeightModule, side: int, phi: dict) -> dict:
    """Blocks of phi (x) 1 (side 0) or 1 (x) phi (side 1) on a tensor
    module built by tensor_same_algebra; the second-factor case carries
    the Koszul sign of the first factor's parity."""
    m1, m2, pair_basis, _, offset = full.pair_data
    m = m2 if side else m1
    blocks = [phi[w] for w in m.weights]
    par1 = [m1.parities[w] for w in m1.weights]
    d2 = [m2.block_dim(w) for w in m2.weights]
    out = {}
    for t, w in enumerate(full.weights):
        d = len(pair_basis[t])
        rows = zero_rows(full.tower, d, d)
        for col, (i1, k1, i2, k2) in enumerate(pair_basis[t]):
            base = offset[i1][i2]
            if side == 0:
                blk = blocks[i1]
                for r in range(len(blk)):
                    v = blk[r][k1]
                    if not v.is_zero:
                        rows[base + r * d2[i2] + k2][col] = v
            else:
                blk = blocks[i2]
                for r in range(len(blk)):
                    v = blk[r][k2]
                    if not v.is_zero:
                        rows[base + k1 * d2[i2] + r][col] = \
                            -v if par1[i1][k1] else v
        out[w] = rows
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
    _, _, pair_basis, _, offset = full.pair_data
    i_unit = tower.adjoin_sqrt(tower.from_int(-1))
    phi1 = [[[x * i_unit for x in row] for row in s1.phi_blocks[w]]
            for w in m1.weights]
    phi2 = [s2.phi_blocks[w] for w in m2.weights]
    par1 = [m1.parities[w] for w in m1.weights]
    d2 = [m2.block_dim(w) for w in m2.weights]
    # op(v (x) w) = (-1)^{|phi2||v|} phi1_tilde v (x) phi2 w, blockwise
    plus_basis: dict = {}
    minus_basis: dict = {}
    for t, w in enumerate(full.weights):
        d = len(pair_basis[t])
        op = zero_rows(tower, d, d)
        for col, (i1, k1, i2, k2) in enumerate(pair_basis[t]):
            b1, b2 = phi1[i1], phi2[i2]
            base, dd = offset[i1][i2], d2[i2]
            for r1 in range(len(b1)):
                v1 = b1[r1][k1]
                if v1.is_zero:
                    continue
                for r2 in range(len(b2)):
                    v2 = b2[r2][k2]
                    if not v2.is_zero:
                        row = base + r1 * dd + r2
                        add = v1 * v2
                        op[row][col] = op[row][col] + \
                            (-add if par1[i1][k1] else add)
        if mat_mul(op, op, tower) != identity_rows(tower, d):
            raise AssertionError("(phi1_hat (x) phi2)^2 != id; "
                                 "normalization broken")
        # eigenspaces, blockwise and parity-homogeneous
        space = GradedSpace.from_parities(full.parities[w])
        for eig, store in ((tower.one(), plus_basis), (-tower.one(), minus_basis)):
            diff = [[op[i][j] - (eig if i == j else tower.zero())
                     for j in range(d)] for i in range(d)]
            _, emb = kernel(GradedMap(tower, space, space, diff, parity=EVEN))
            if emb.source.dim:
                store[w] = [list(col) for col in zip(*emb.rows)]
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
        for r, row in enumerate(blk):
            for c, v in enumerate(row):
                if v.is_zero:
                    continue
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
    n1, n2 = m1.algebra.dim, m2.algebra.dim
    one, zero = m1.tower.one(), m1.tower.zero()
    z1 = tuple(zero for _ in m1.weights[0])
    z2 = tuple(zero for _ in m2.weights[0])
    p1, t1 = _relabelled(
        pullback(m1, g, [[(k, one)] for k in range(n1)] + [[]] * n2),
        s1, lambda w: w + z2)
    p2, t2 = _relabelled(
        pullback(m2, g, [[]] * n1 + [[(k, one)] for k in range(n2)]),
        s2, lambda w: z1 + w)
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
    tower = qd.tower
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
                    tgt = targets.setdefault(
                        wt, zero_rows(tower, len(groups[wt]), len(groups[w])))
                    tgt[index[wt][t]][col] = tgt[index[wt][t]][col] + c
            if targets:
                blocks[w] = list(targets.items())
        act.append(blocks)
    return WeightModule(qd.algebra, tower, weights, parities, act, qd=qd)


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

    def match_class(self, module: WeightModule):
        """Name of the catalog entry isomorphic to the module, or None."""
        for name in self.names():
            cand = self.entries[name]["module"]
            if cand.dim != module.dim:
                continue
            ok, _ = is_isomorphic_weight(cand, module)
            if ok:
                return name
        return None


def twist_q_module(m: WeightModule, qd: QueerData, sigma_rows) -> WeightModule:
    """Pullback of a q-module along an automorphism: x acts as sigma^-1(x).
    Requires sigma to fix the even Cartan part pointwise (true for the
    diagonal conjugations used here); weights are then unchanged."""
    tower = m.tower
    one = tower.one()
    # sigma^-1 columns = solve sigma X = I
    n = qd.dim
    inv_cols = solve_columns(sigma_rows, identity_rows(tower, n), n, tower)
    if inv_cols is None:
        raise ValueError("automorphism matrix is singular")
    for hidx in qd.h0_indices:
        for i in range(n):
            expect = one if i == hidx else tower.zero()
            if inv_cols[hidx][i] != expect:
                raise ValueError("automorphism moves the even Cartan part; "
                                 "cannot keep the weight grading")
    return pullback(m, m.algebra, (enumerate(inv_cols[g]) for g in range(n)))


def ev_module(ms: MapSuper, point: int, rho: WeightModule) -> WeightModule:
    """Pullback of a q-module along evaluation at a declared maximal ideal."""
    tower = ms.tower
    values = [ms.coeff.evaluate(point, {j: tower.one()})
              for j in range(ms.coeff.dim)]
    return pullback(rho, ms.algebra,
                    ([(x, c)] for x in range(ms.g.dim) for c in values))


def ev_hat(ms: MapSuper, assignment: dict, catalog: Catalog):
    """The irreducible product of evaluation modules for a finitely
    supported assignment {point index: catalog name}.

    Returns (module, audit) where audit records per-factor Schur types
    and each split decision."""
    points = sorted(k for k, name in assignment.items() if name != "trivial")
    audit = {"points": points, "factors": [], "splits": []}
    if not points:
        audit["schur_result_q"] = False
        return ev_module(ms, 0, trivial_q_module(ms.qd)), audit
    cur = None
    cur_schur = None
    for p in points:
        name = assignment[p]
        rho = catalog.module(name)
        factor = ev_module(ms, p, rho)
        s = catalog.weight_schur(name)
        audit["factors"].append({"point": p, "class": name,
                                 "schur_q": s.is_type_q, "dim": rho.dim})
        if cur is None:
            cur, cur_schur = factor, s
            continue
        nxt, info = hat_tensor_weight(cur, factor, cur_schur, s)
        audit["splits"].append({"split": info["split"],
                                "dims": (cur.dim, factor.dim, nxt.dim)})
        cur = nxt
        cur_schur = info["result_schur"]
    audit["schur_result_q"] = cur_schur.is_type_q if cur_schur else False
    return cur, audit


def ev_hat_gamma(inv: InvariantSub, assignment: dict, catalog: Catalog):
    """Equivariant version: (module, audit) for the untwisted module over
    q (x) A built at one point per orbit (the smallest declared index).
    The invariants act on it through the inclusion, by the same operators
    as q (x) A once evaluation at those points maps them onto (+) q, which
    classify_enumerate checks.  The assignment must be constant on orbits
    as catalog names; classify_enumerate verifies beforehand that
    the group twist fixes every catalog class, which makes such
    assignments exactly the equivariant ones."""
    ms = inv.parent
    orbits = inv.gamma_report["orbits"]
    chosen: dict = {}
    for orbit in orbits:
        names = {assignment.get(p, "trivial") for p in orbit}
        if len(names) != 1:
            raise ValueError("assignment is not constant on an orbit")
        name = names.pop()
        if name != "trivial":
            chosen[min(orbit)] = name
    untwisted, audit = ev_hat(ms, chosen, catalog)
    audit["orbit_representatives"] = sorted(chosen)
    return untwisted, audit


def restrict_to_invariants(m: WeightModule, inv: InvariantSub) -> WeightModule:
    """The same carrier viewed as a module over the invariant subalgebra."""
    return pullback(m, inv.algebra,
                    (enumerate(vec) for vec in inv.basis_vectors()))


def pullback(m: WeightModule, algebra, images) -> WeightModule:
    """m as a module over algebra through a linear map into m.algebra:
    basis element k of algebra acts as sum_j c_j rho(x_j) over the
    (j, c_j) in images[k].  Weights and parities are kept."""
    act = [_combine(m, terms) for terms in images]
    return WeightModule(algebra, m.tower, list(m.weights), dict(m.parities),
                        act, qd=m.qd)


def _combine(m: WeightModule, terms) -> dict:
    """Blocks of sum_k c_k rho(x_k) over (k, c_k) terms, in the act[i]
    form {w: [(target, rows)]}.  Only nonzero coefficients and entries
    are multiplied and added; a target block is allocated when the first
    nonzero entry lands in it, and blocks that cancel to zero are dropped
    (with one nonzero term nothing can cancel: the tower is a field)."""
    zero = m.tower.zero()
    acc: dict = {}   # w -> {target: dense rows}
    nterms = 0
    for k, c in terms:
        if not c.co:
            continue
        nterms += 1
        for w, blks in m.act[k].items():
            cur = acc.setdefault(w, {})
            for (wt, rows) in blks:
                tgt = cur.get(wt)
                for r, row in enumerate(rows):
                    for s, v in enumerate(row):
                        if v.co:
                            if tgt is None:
                                tgt = cur[wt] = [[zero] * len(x) for x in rows]
                            a = tgt[r][s]
                            tgt[r][s] = a + c * v if a.co else c * v
    act = {}
    for w, d in acc.items():
        pieces = [(wt, rows) for wt, rows in d.items()
                  if nterms == 1 or any(v.co for row in rows for v in row)]
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
    ann_key: tuple
    ann_basis: list
    support: list
    reduced: bool
    top_weight: tuple | None = None


def classify_enumerate(ms: MapSuper, catalog: Catalog,
                       inv: InvariantSub | None = None) -> dict:
    """Build every (equivariant) finitely supported assignment over the
    catalog, certify each module irreducible by the highest-weight
    criterion over q (x) A, and assert pairwise non-isomorphism.  Aborts
    with a counterexample on any failed assertion.

    In the twisted case the rows are modules over the invariants
    (q (x) A)^Gamma, built as modules over q (x) A at the orbit
    representatives reps (the smallest index of each orbit, as in
    ev_hat_gamma), and certified once per run by the argument of the
    paper.  Each such module factors through evaluation ev at reps, and
    the run first checks, exactly, that ev maps the invariants onto
    (+)_reps q (AssertionError naming reps otherwise).  Then the
    invariants act on every row by exactly the same set of operators as
    q (x) A does, so (1) the submodules over both algebras are the same
    and the untwisted criterion certifies the restriction irreducible;
    (2) the Hom spaces are the same, so the non-isomorphism sweep may
    compare the untwisted modules; (3) the averaged operators that
    ann_and_support_gamma applies are the same."""
    points = list(range(len(ms.coeff.maximal_ideals)))
    names = catalog.names()
    twisted = inv is not None and not inv.act.is_trivial()
    report = {"twisted": twisted, "rows": [], "catalog": names}
    if twisted:
        if not inv.gamma_report["free"]:
            raise ValueError("freeness violated: " + "; ".join(
                f for f in inv.gamma_report["failures"] if "freeness" in f))
        orbits = inv.gamma_report["orbits"]
        # classes must be stable under the group twist to extend
        # equivariantly over each orbit (verified, not assumed)
        for name in names:
            mod = catalog.module(name)
            for _, qrows in inv.act.elements()[1:]:
                tw = twist_q_module(mod, ms.qd, qrows)
                ok, _ = is_isomorphic_weight(mod, tw)
                if not ok:
                    raise ValueError(f"catalog class {name!r} is not stable "
                                     "under the group twist")
        reps = [min(orbit) for orbit in orbits]
        if ev_gamma_rank(inv, reps) != len(reps) * ms.g.dim:
            raise AssertionError("evaluation of the invariants at the orbit "
                                 f"representatives {reps} is not onto")
        assignments = _assignments(orbits, names)
    else:
        assignments = _assignments([[p] for p in points], names)
    tri = triangular_of_map(ms)
    built = []
    for assign in assignments:
        if twisted:
            module, audit = ev_hat_gamma(inv, assign, catalog)
            ann, supp, reduced = ann_and_support_gamma(module, inv)
        else:
            module, audit = ev_hat(ms, assign, catalog)
            ann, supp, reduced = ann_and_support(module, ms)
        why = {}
        if not is_irreducible_hw(module, tri, why):
            raise AssertionError(f"module for {assign} failed the "
                                 f"irreducibility criterion ({why['reason']})")
        top = module.maximal_weights()[0]
        ne, no = module.graded_dims()
        row = ClassificationRow(
            assignment=dict(assign), dim=module.dim, graded_dims=(ne, no),
            irreducible=True,
            schur_types=[f["schur_q"] for f in audit["factors"]],
            ann_key=ann.key(),
            ann_basis=[[str(x) for x in v] for v in ann.basis],
            support=supp, reduced=reduced,
            top_weight=tuple(str(x) for x in top))
        report["rows"].append(row)
        built.append((assign, module, row))
    # pairwise non-isomorphism
    for i in range(len(built)):
        for j in range(i + 1, len(built)):
            ai, mi, ri = built[i]
            aj, mj, rj = built[j]
            if (ri.dim, ri.ann_key, ri.graded_dims) != \
                    (rj.dim, rj.ann_key, rj.graded_dims):
                continue  # separated by invariants
            ok, _ = is_isomorphic_weight(mi, mj)
            if ok:
                raise AssertionError(
                    f"distinct assignments {ai} and {aj} gave isomorphic "
                    "modules")
    report["pairwise_distinct"] = True
    return report


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
