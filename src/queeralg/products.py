"""Irreducible products of modules, evaluation modules over map queer
superalgebras, Schur data, isomorphism testing, and the classification
enumerator for finitely supported point assignments."""

from __future__ import annotations

from dataclasses import dataclass

from .assocsuper import density_type_from_maps
from .graded import (EVEN, ODD, GradedMap, commutant, graded_tensor,
                     identity_rows, mat_kernel, mat_mul, mat_rank,
                     solve_columns, tensor_space, zero_rows)
from .hwmod import (WeightModule, is_irreducible_hw,
                    triangular_of_invariants, triangular_of_map,
                    weight_sort_key)
from .liesuper import (GradedSpaceMixed, LieModule, LieSuper, direct_sum,
                       is_isomorphic_flat)
from .mapsuper import (InvariantSub, MapSuper, ann_and_support,
                       ann_and_support_gamma)
from .queer import QueerData
from .scalars import Scalar


# ---------------------------------------------------------------------------
# Flat module utilities
# ---------------------------------------------------------------------------


def direct_sum_module(m1: LieModule, m2: LieModule) -> LieModule:
    """Block direct sum of two modules over the same algebra."""
    tower = m1.tower
    n1, n2 = m1.dim, m2.dim
    pars = list(m1.space.parities) + list(m2.space.parities)
    space = GradedSpaceMixed(pars)
    mats = []
    for a, b in zip(m1.mats, m2.mats):
        rows = zero_rows(tower, n1 + n2, n1 + n2)
        for i in range(n1):
            for j in range(n1):
                rows[i][j] = a.rows[i][j]
        for i in range(n2):
            for j in range(n2):
                rows[n1 + i][n1 + j] = b.rows[i][j]
        mats.append(GradedMap(tower, space, space, rows))
    return LieModule(m1.algebra, space, mats)


@dataclass
class SchurData:
    """Graded endomorphism data of an irreducible module: the even
    commutant is scalar; phi spans the odd part (or is None) and is
    normalized so that phi_hat^2 = -id."""

    even_dim: int
    phi: GradedMap | None
    c: Scalar | None  # phi^2 = c id before normalization
    phi_hat: GradedMap | None

    @property
    def is_type_q(self) -> bool:
        return self.phi is not None


def schur_data(m: LieModule, certify=True) -> SchurData:
    """Supercommutant solve on a flat module; requires irreducibility
    (density oracle) unless certify=False."""
    tower = m.tower
    if certify:
        d = density_type_from_maps(m.mats, m.space, tower)
        if not d.certifies_irreducible:
            raise ValueError(f"module is not irreducible (oracle: {d!r})")
    evens = commutant([x for x in m.mats if not x.is_zero], m.space, tower,
                      parity_filter=EVEN)
    odds = commutant([x for x in m.mats if not x.is_zero], m.space, tower,
                     parity_filter=ODD)
    phi = None
    c = None
    phi_hat = None
    for cand in odds:
        sq = cand * cand
        cc = sq.rows[0][0]
        if not cc.is_zero and sq == GradedMap.identity(tower, m.space) * cc:
            phi, c = cand, cc
            t = tower.adjoin_sqrt(-cc.inv())
            phi_hat = cand * t
            break
    return SchurData(len(evens), phi, c, phi_hat)


# ---------------------------------------------------------------------------
# Flat irreducible product over a direct sum of algebras
# ---------------------------------------------------------------------------


def outer_tensor_flat(m1: LieModule, m2: LieModule):
    """V1 (x) V2 as a module over g1 (+) g2, with Koszul signs on the
    second factor.  Returns (module, embedding index map)."""
    tower = m1.tower
    gsum = direct_sum(m1.algebra, m2.algebra)
    id1 = GradedMap.identity(tower, m1.space)
    id2 = GradedMap.identity(tower, m2.space)
    mats = [graded_tensor(x, id2) for x in m1.mats] + \
        [graded_tensor(id1, y) for y in m2.mats]
    space = mats[0].source if mats else tensor_space(m1.space, m2.space)[0]
    return LieModule(gsum, space, mats)


def hat_tensor_flat(m1: LieModule, m2: LieModule,
                    s1: SchurData | None = None,
                    s2: SchurData | None = None):
    """The irreducible product of two irreducible modules, as a module
    over the direct sum of their algebras.

    Returns (module, info) where info records the branch: the full tensor
    product when at most one factor has odd Schur data, else the
    +1-eigenspace of phi1_hat (x) phi2 together with its complement."""
    tower = m1.tower
    s1 = s1 or schur_data(m1)
    s2 = s2 or schur_data(m2)
    full = outer_tensor_flat(m1, m2)
    info = {"split": False, "schur_types": (s1.is_type_q, s2.is_type_q)}
    if not (s1.is_type_q and s2.is_type_q):
        if s2.is_type_q:
            info["phi"] = graded_tensor(GradedMap.identity(tower, m1.space),
                                        s2.phi_hat)
        elif s1.is_type_q:
            info["phi"] = graded_tensor(s1.phi_hat,
                                        GradedMap.identity(tower, m2.space))
        else:
            info["phi"] = None
        return full, info
    op = graded_tensor(s1.phi_hat * tower.adjoin_sqrt(tower.from_int(-1)),
                       s2.phi_hat)
    ident = GradedMap.identity(tower, full.space)
    if not (op * op == ident):
        raise AssertionError("(phi1_hat (x) phi2)^2 != id; normalization broken")
    plus = _flat_eigenspace(full, op, tower.one())
    minus = _flat_eigenspace(full, op, -tower.one())
    info.update({"split": True, "plus": plus, "minus": minus, "phi": None,
                 "operator": op})
    return plus, info


def _flat_eigenspace(m: LieModule, op: GradedMap, eigval) -> LieModule:
    """Restriction of a flat module to an eigenspace of an even operator
    commuting with the action."""
    tower = m.tower
    n = m.dim
    diff = op - GradedMap.identity(tower, m.space) * eigval
    cols = {EVEN: [j for j in range(n) if m.space.parity(j) == EVEN],
            ODD: [j for j in range(n) if m.space.parity(j) == ODD]}
    basis = []
    pars = []
    for par in (EVEN, ODD):
        sub = [[diff.rows[i][j] for j in cols[par]] for i in range(n)]
        for kv in mat_kernel(sub, len(cols[par]), tower):
            vec = [tower.zero()] * n
            for c, j in enumerate(cols[par]):
                vec[j] = kv[c]
            basis.append(vec)
            pars.append(par)
    space = GradedSpaceMixed(pars)
    emb = [[basis[j][i] for j in range(len(basis))] for i in range(n)]
    mats = []
    for x in m.mats:
        img = mat_mul(x.rows, emb, tower)
        sol = _solve_columns(emb, img, tower)
        mats.append(GradedMap(tower, space, space, sol))
    sub_mod = LieModule(m.algebra, space, mats)
    sub_mod.embedding = emb
    return sub_mod


def _solve_columns(emb, img, tower):
    """Solve emb * X = img by one elimination of [emb | img]; raises when
    a column leaves the span."""
    ncols_emb = len(emb[0]) if emb else 0
    ncols = len(img[0]) if img else 0
    rhs_cols = [[row[c] for row in img] for c in range(ncols)]
    sols = solve_columns(emb, rhs_cols, ncols_emb, tower)
    if sols is None:
        raise AssertionError("operator image leaves the subspace")
    # verify exactly (the solver only guarantees pivot consistency)
    for sol, rhs in zip(sols, rhs_cols):
        for i in range(len(emb)):
            acc = tower.zero()
            for j in range(ncols_emb):
                acc = acc + emb[i][j] * sol[j]
            if acc != rhs[i]:
                raise AssertionError("operator image leaves the subspace")
    return [[sol[j] for sol in sols] for j in range(ncols_emb)]


def assoc_check(m1: LieModule, m2: LieModule, m3: LieModule) -> bool:
    """(V1 hat-x V2) hat-x V3 isomorphic to V1 hat-x (V2 hat-x V3), with
    an explicit witness."""
    left_in, _ = hat_tensor_flat(m1, m2)
    left, _ = hat_tensor_flat(left_in, m3)
    right_in, _ = hat_tensor_flat(m2, m3)
    right, _ = hat_tensor_flat(m1, right_in)
    # both are modules over (g1 + g2) + g3 vs g1 + (g2 + g3): the basis
    # enumeration of the direct sums coincides, so the actions compare
    # directly.
    ok, _ = is_isomorphic_flat(left, _reindexed_copy(right, left.algebra))
    return ok


def _reindexed_copy(m: LieModule, algebra: LieSuper) -> LieModule:
    if algebra.dim != m.algebra.dim:
        raise ValueError("algebra dimensions differ")
    return LieModule(algebra, m.space, m.mats)


# ---------------------------------------------------------------------------
# Weight-module tensor machinery
# ---------------------------------------------------------------------------


def tensor_same_algebra(m1: WeightModule, m2: WeightModule) -> WeightModule:
    """V1 (x) V2 with the diagonal action over a common algebra; weights
    add.  The Koszul sign acts through the parity of the first factor."""
    tower = m1.tower
    alg = m1.algebra
    pair_basis: dict = {}
    for w1 in m1.weights:
        for w2 in m2.weights:
            w = tuple(a + b for a, b in zip(w1, w2))
            pair_basis.setdefault(w, []).extend(
                (w1, k1, w2, k2)
                for k1 in range(m1.block_dim(w1))
                for k2 in range(m2.block_dim(w2)))
    weights = sorted(pair_basis, key=weight_sort_key)
    index = {w: {p: i for i, p in enumerate(pair_basis[w])} for w in weights}
    parities = {}
    for w in weights:
        parities[w] = tuple((m1.parities[w1][k1] + m2.parities[w2][k2]) % 2
                            for (w1, k1, w2, k2) in pair_basis[w])
    act = []
    for g in range(alg.dim):
        blocks: dict = {}
        gpar = alg.space.parity(g)
        for w in weights:
            # target weight -> {(row, col): entry}, in order of first meeting
            targets: dict = {}
            for col, (w1, k1, w2, k2) in enumerate(pair_basis[w]):
                # rho1(g) (x) 1
                for (w1t, blk) in m1.blocks_of(g, w1):
                    wt = tuple(a + b for a, b in zip(w1t, w2))
                    if not pair_basis.get(wt):
                        continue
                    tgt = targets.setdefault(wt, {})
                    for r in range(len(blk)):
                        v = blk[r][k1]
                        if not v.is_zero:
                            key = (index[wt][(w1t, r, w2, k2)], col)
                            cur = tgt.get(key)
                            tgt[key] = v if cur is None else cur + v
                # 1 (x) rho2(g), sign by parity of the first factor
                sgn = -1 if (gpar and m1.parities[w1][k1]) else 1
                for (w2t, blk) in m2.blocks_of(g, w2):
                    wt = tuple(a + b for a, b in zip(w1, w2t))
                    if not pair_basis.get(wt):
                        continue
                    tgt = targets.setdefault(wt, {})
                    for r in range(len(blk)):
                        v = blk[r][k2]
                        if not v.is_zero:
                            key = (index[wt][(w1, k1, w2t, r)], col)
                            add = v if sgn > 0 else -v
                            cur = tgt.get(key)
                            tgt[key] = add if cur is None else cur + add
            found = []
            for wt, entries in targets.items():
                nz = [(key, v) for key, v in entries.items() if not v.is_zero]
                if nz:
                    rows = zero_rows(tower, len(pair_basis[wt]),
                                     len(pair_basis[w]))
                    for (r, c), v in nz:
                        rows[r][c] = v
                    found.append((wt, rows))
            blocks[w] = found
        act.append({w: blks for w, blks in blocks.items() if blks})
    out = WeightModule(alg, tower, weights, parities, act, qd=m1.qd)
    out.pair_data = (m1, m2, pair_basis, index)
    return out


def weight_phi_blocks(m: WeightModule, phi_flat: GradedMap) -> dict:
    """Re-block a weight-preserving flat endomorphism by weight; raises
    if it mixes weights."""
    idx = m.flat_index()
    rev = {v: k for k, v in idx.items()}
    out = {}
    tower = m.tower
    for w in m.weights:
        d = m.block_dim(w)
        out[w] = zero_rows(tower, d, d)
    n = m.dim
    for i in range(n):
        wi, ki = rev[i]
        for j in range(n):
            v = phi_flat.rows[i][j]
            if v.is_zero:
                continue
            wj, kj = rev[j]
            if wi != wj:
                raise ValueError("endomorphism does not preserve weights")
            out[wi][ki][kj] = v
    return out


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


@dataclass
class WeightSchur:
    """Schur data for a weight module: the type flag and, for type Q, the
    normalized odd endomorphism stored blockwise by weight."""

    is_type_q: bool
    phi_blocks: dict | None


def _tensor_phi_blocks(full: WeightModule, side: int, phi: dict) -> dict:
    """Blocks of phi (x) 1 (side 0) or 1 (x) phi (side 1) on a tensor
    module built by tensor_same_algebra; the second-factor case carries
    the Koszul sign of the first factor's parity."""
    m1, m2, pair_basis, index = full.pair_data
    tower = full.tower
    out = {}
    for w in full.weights:
        d = len(pair_basis[w])
        rows = zero_rows(tower, d, d)
        for col, (w1, k1, w2, k2) in enumerate(pair_basis[w]):
            if side == 0:
                blk = phi[w1]
                for r in range(len(blk)):
                    v = blk[r][k1]
                    if not v.is_zero:
                        rows[index[w][(w1, r, w2, k2)]][col] = v
            else:
                sgn = -1 if m1.parities[w1][k1] else 1
                blk = phi[w2]
                for r in range(len(blk)):
                    v = blk[r][k2]
                    if not v.is_zero:
                        rows[index[w][(w1, k1, w2, r)]][col] = \
                            v if sgn > 0 else -v
        out[w] = rows
    return out


def hat_tensor_weight(m1: WeightModule, m2: WeightModule,
                      s1: WeightSchur, s2: WeightSchur):
    """Irreducible product of two weight modules over a common algebra
    (diagonal action; used for evaluation modules with disjoint supports).

    info carries the split decision, the resulting WeightSchur (the odd
    endomorphism of a product with exactly one type-Q factor is phi (x) 1
    or 1 (x) phi; a split result is type M), and in the split case both
    eigenspace halves."""
    tower = m1.tower
    full = tensor_same_algebra(m1, m2)
    info = {"split": False, "schur_types": (s1.is_type_q, s2.is_type_q)}
    if not (s1.is_type_q and s2.is_type_q):
        if s1.is_type_q:
            result = WeightSchur(True, _tensor_phi_blocks(full, 0,
                                                          s1.phi_blocks))
        elif s2.is_type_q:
            result = WeightSchur(True, _tensor_phi_blocks(full, 1,
                                                          s2.phi_blocks))
        else:
            result = WeightSchur(False, None)
        info["result_schur"] = result
        return full, info
    _, _, pair_basis, index = full.pair_data
    i_unit = tower.adjoin_sqrt(tower.from_int(-1))
    phi1 = {w: [[x * i_unit for x in row] for row in blk]
            for w, blk in s1.phi_blocks.items()}
    phi2 = s2.phi_blocks
    # op(v (x) w) = (-1)^{|phi2||v|} phi1_tilde v (x) phi2 w, blockwise
    plus_basis: dict = {}
    minus_basis: dict = {}
    for w in full.weights:
        d = len(pair_basis[w])
        op = zero_rows(tower, d, d)
        for col, (w1, k1, w2, k2) in enumerate(pair_basis[w]):
            sgn = -1 if m1.parities[w1][k1] else 1
            b1 = phi1[w1]
            b2 = phi2[w2]
            for r1 in range(len(b1)):
                v1 = b1[r1][k1]
                if v1.is_zero:
                    continue
                for r2 in range(len(b2)):
                    v2 = b2[r2][k2]
                    if not v2.is_zero:
                        row = index[w][(w1, r1, w2, r2)]
                        add = v1 * v2
                        op[row][col] = op[row][col] + (add if sgn > 0 else -add)
        # eigenspaces, blockwise and parity-homogeneous
        for eig, store in ((tower.one(), plus_basis), (-tower.one(), minus_basis)):
            diff = [[op[i][j] - (eig if i == j else tower.zero())
                     for j in range(d)] for i in range(d)]
            pars = full.parities[w]
            for par in (EVEN, ODD):
                cols = [j for j in range(d) if pars[j] == par]
                if not cols:
                    continue
                sub = [[diff[i][j] for j in cols] for i in range(d)]
                for kv in mat_kernel(sub, len(cols), tower):
                    vec = [tower.zero()] * d
                    for c, j in enumerate(cols):
                        vec[j] = kv[c]
                    store.setdefault(w, []).append(vec)
    plus = restrict_weight_module(full, plus_basis)
    minus = restrict_weight_module(full, minus_basis)
    info.update({"split": True, "plus": plus, "minus": minus, "full": full,
                 "result_schur": WeightSchur(False, None)})
    return plus, info


# ---------------------------------------------------------------------------
# Catalog of q-modules and evaluation modules
# ---------------------------------------------------------------------------


def direct_sum_weight(m1: WeightModule, m2: WeightModule) -> WeightModule:
    """Blockwise direct sum of weight modules over the same algebra."""
    tower = m1.tower
    weights = sorted(set(m1.weights) | set(m2.weights), key=weight_sort_key)
    parities = {}
    for w in weights:
        parities[w] = tuple(m1.parities.get(w, ())) + \
            tuple(m2.parities.get(w, ()))
    act = []
    for g in range(m1.algebra.dim):
        blocks: dict = {}
        for w in weights:
            d1, d2 = m1.block_dim(w), m2.block_dim(w)
            pieces: dict = {}
            for (wt, blk) in m1.blocks_of(g, w):
                t1, t2 = m1.block_dim(wt), m2.block_dim(wt)
                tgt = pieces.setdefault(wt, zero_rows(tower, t1 + t2, d1 + d2))
                for i in range(t1):
                    for j in range(d1):
                        tgt[i][j] = blk[i][j]
            for (wt, blk) in m2.blocks_of(g, w):
                t1, t2 = m1.block_dim(wt), m2.block_dim(wt)
                tgt = pieces.setdefault(wt, zero_rows(tower, t1 + t2, d1 + d2))
                for i in range(t2):
                    for j in range(d2):
                        tgt[t1 + i][d1 + j] = blk[i][j]
            if pieces:
                blocks[w] = list(pieces.items())
        act.append(blocks)
    return WeightModule(m1.algebra, tower, weights, parities, act, qd=m1.qd)


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
    for i in range(qd.dim):
        w = qd.weight_of({i: tower.one()})
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
                    wt = qd.weight_of({t: tower.one()})
                    tgt = targets.setdefault(
                        wt, zero_rows(tower, len(groups[wt]), len(groups[w])))
                    tgt[index[wt][t]][col] = tgt[index[wt][t]][col] + c
            if targets:
                blocks[w] = list(targets.items())
        act.append(blocks)
    return WeightModule(qd.algebra, tower, weights, parities, act, qd=qd)


class Catalog:
    """Finite user-extensible catalog of irreducible q-modules (weight
    modules over q with cached flat forms and Schur data)."""

    def __init__(self, qd: QueerData):
        self.qd = qd
        self.entries: dict = {}
        self.add("trivial", trivial_q_module(qd))
        self.add("adjoint", adjoint_q_module(qd))

    def add(self, name: str, module: WeightModule):
        flat = module.flatten()
        self.entries[name] = {"module": module, "flat": flat, "schur": None}

    def names(self):
        return sorted(self.entries)

    def module(self, name: str) -> WeightModule:
        return self.entries[name]["module"]

    def schur(self, name: str) -> SchurData:
        e = self.entries[name]
        if e["schur"] is None:
            e["schur"] = schur_data(e["flat"])
        return e["schur"]

    def weight_schur(self, name: str) -> "WeightSchur":
        s = self.schur(name)
        if not s.is_type_q:
            return WeightSchur(False, None)
        return WeightSchur(True, weight_phi_blocks(self.module(name),
                                                   s.phi_hat))

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
    act = []
    for g in range(n):
        blocks: dict = {}
        for k in range(n):
            c = inv_cols[g][k]
            if c.is_zero:
                continue
            for w, blks in m.act[k].items():
                cur = blocks.setdefault(w, {})
                for (wt, rows) in blks:
                    tgt = cur.get(wt)
                    if tgt is None:
                        cur[wt] = [[c * v for v in row] for row in rows]
                    else:
                        cur[wt] = [[a + c * v for a, v in zip(ra, row)]
                                   for ra, row in zip(tgt, rows)]
        act.append({w: [(wt, rows) for wt, rows in d.items()
                        if any(not v.is_zero for rr in rows for v in rr)]
                    for w, d in blocks.items()})
    return WeightModule(m.algebra, tower, list(m.weights), dict(m.parities),
                        act, qd=m.qd)


def ev_module(ms: MapSuper, point: int, rho: WeightModule) -> WeightModule:
    """Pullback of a q-module along evaluation at a declared maximal ideal."""
    tower = ms.tower
    na = ms.coeff.dim
    act = []
    for x in range(ms.g.dim):
        for j in range(na):
            c = ms.coeff.evaluate(point, {j: tower.one()})
            if c.is_zero:
                act.append({})
                continue
            blocks: dict = {}
            for w, blks in rho.act[x].items():
                scaled = [(wt, [[c * v for v in row] for row in rows])
                          for (wt, rows) in blks]
                blocks[w] = scaled
            act.append(blocks)
    return WeightModule(ms.algebra, tower, list(rho.weights),
                        dict(rho.parities), act, qd=rho.qd)


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
    """Equivariant version: build the untwisted module at one point per
    orbit (the smallest declared index) and restrict it to the invariant
    subalgebra.  The assignment must be constant on orbits as catalog
    names; classify_enumerate verifies beforehand that the group twist
    fixes every catalog class, which makes such assignments exactly the
    equivariant ones."""
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
    restricted = restrict_to_invariants(untwisted, inv)
    audit["orbit_representatives"] = sorted(chosen)
    return restricted, untwisted, audit


def restrict_to_invariants(m: WeightModule, inv: InvariantSub) -> WeightModule:
    """The same carrier viewed as a module over the invariant subalgebra."""
    tower = m.tower
    act = []
    for vec in inv.basis_vectors:
        blocks: dict = {}
        for idx, c in ((k, v) for k, v in enumerate(vec) if not v.is_zero):
            for w, blks in m.act[idx].items():
                cur = blocks.setdefault(w, {})
                for (wt, rows) in blks:
                    tgt = cur.get(wt)
                    if tgt is None:
                        cur[wt] = [[c * v for v in row] for row in rows]
                    else:
                        cur[wt] = [[a + c * v for a, v in zip(ra, row)]
                                   for ra, row in zip(tgt, rows)]
        act.append({w: [(wt, rows) for wt, rows in d.items()
                        if any(not v.is_zero for rr in rows for v in rr)]
                    for w, d in blocks.items()})
    return WeightModule(inv.algebra, tower, list(m.weights),
                        dict(m.parities), act, qd=m.qd)


# ---------------------------------------------------------------------------
# Hom spaces and isomorphism testing
# ---------------------------------------------------------------------------


def hom_space_weight(m: WeightModule, n: WeightModule):
    """Strict intertwiners T: M -> N between weight modules over the same
    algebra.  Intertwiners commute with the even Cartan action, hence
    preserve weights; unknowns are blockwise, T_w of shape
    (dim N_w) x (dim M_w) over the shared weights."""
    tower = m.tower
    n_weights = set(n.weights)
    shared = [w for w in m.weights if w in n_weights]
    shared_set = set(shared)
    slots = []
    slot_index = {}
    for w in shared:
        for i in range(n.block_dim(w)):
            for j in range(m.block_dim(w)):
                slot_index[(w, i, j)] = len(slots)
                slots.append((w, i, j))
    if not slots:
        return [], slots
    srows = []
    for g in range(m.algebra.dim):
        for w in m.weights:
            m_blocks = {wt: blk for (wt, blk) in m.blocks_of(g, w)}
            n_blocks = {wt: blk for (wt, blk) in n.blocks_of(g, w)} \
                if w in shared_set else {}
            # equations live in the N component at each target weight
            targets = (set(m_blocks) | set(n_blocks)) & n_weights
            for wt in targets:
                blk_m = m_blocks.get(wt)
                blk_n = n_blocks.get(wt)
                for i in range(n.block_dim(wt)):
                    for j in range(m.block_dim(w)):
                        row = {}
                        if blk_m is not None and wt in shared_set:
                            for k in range(m.block_dim(wt)):
                                v = blk_m[k][j]
                                if not v.is_zero:
                                    key = slot_index[(wt, i, k)]
                                    row[key] = row.get(key, tower.zero()) + v
                        if blk_n is not None:
                            for k in range(n.block_dim(w)):
                                v = blk_n[i][k]
                                if not v.is_zero:
                                    key = slot_index[(w, k, j)]
                                    row[key] = row.get(key, tower.zero()) - v
                        row = {k: v for k, v in row.items() if not v.is_zero}
                        if row:
                            srows.append(row)
    return mat_kernel(srows, len(slots), tower), slots


def is_isomorphic_weight(m: WeightModule, n: WeightModule):
    """(bool, witness coords): strict isomorphism test for weight modules
    over the same algebra."""
    if m.dim != n.dim:
        return False, None
    if sorted(map(weight_sort_key, m.weights)) != \
            sorted(map(weight_sort_key, n.weights)):
        return False, None
    for w in m.weights:
        if m.block_dim(w) != n.block_dim(w):
            return False, None
    kerns, slots = hom_space_weight(m, n)
    candidates = list(kerns)
    for i in range(len(kerns)):
        for j in range(i + 1, len(kerns)):
            candidates.append([a + b for a, b in zip(kerns[i], kerns[j])])
    for vec in candidates:
        if _weight_hom_invertible(vec, slots, m, n):
            return True, vec
    return False, None


def _weight_hom_invertible(vec, slots, m: WeightModule, n: WeightModule) -> bool:
    tower = m.tower
    for w in m.weights:
        d = m.block_dim(w)
        rows = zero_rows(tower, n.block_dim(w), d)
        for k, (w2, i, j) in enumerate(slots):
            if w2 == w and not vec[k].is_zero:
                rows[i][j] = vec[k]
        if mat_rank(rows, d, tower) != d:
            return False
    return True


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
    catalog, certify each module irreducible, assert pairwise
    non-isomorphism, and (in the twisted case) check the restriction
    property.  Aborts with a counterexample on any failed assertion."""
    tower = ms.tower
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
        assignments = _assignments(orbits, names)
        tri = triangular_of_invariants(inv)
    else:
        assignments = _assignments([[p] for p in points], names)
        tri = triangular_of_map(ms)
    built = []
    for assign in assignments:
        if twisted:
            module, untwisted, audit = ev_hat_gamma(inv, assign, catalog)
            # restriction property: the untwisted module has support in
            # one point per orbit, and restricting preserves irreducibility
            why = {}
            if not is_irreducible_hw(untwisted, triangular_of_map(ms), why):
                raise AssertionError(
                    f"untwisted module for {assign} is not irreducible "
                    f"({why['reason']})")
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
