"""Finite-dimensional commutative coefficient algebras with declared
maximal spectra, ideal arithmetic (product, intersection, radical,
support), Chinese-remainder splittings, and finite abelian group actions.

Maximal ideals are declared by the presets rather than solved for:
locating the maximal ideals of an arbitrary algebra needs root finding
outside the scalar tower, while split polynomial quotients cover every
computation in scope.
"""

from __future__ import annotations

from .assocsuper import AssocSuper
from .graded import (EVEN, GradedMap, GradedSpace, Span, identity_rows,
                     mat_kernel, mat_mul, solve_right, zero_rows)
from .scalars import Scalar, Tower, parse_scalar


class CoeffAlgebra(AssocSuper):
    """Commutative unital algebra (purely even) with declared MaxSpec.

    points[k] = (root, multiplicity) for the k-th maximal ideal when the
    algebra is a polynomial quotient; eval_functionals[k] maps a
    coordinate vector to its value in A/m_k = K.
    """

    def __init__(self, tower, space, mult, unit, maximal_ideals=None,
                 points=None, eval_functionals=None, name="",
                 presentation=""):
        super().__init__(tower, space, mult, unit, name=name)
        self.maximal_ideals = maximal_ideals or []
        self.points = points or []
        self.eval_functionals = eval_functionals or []
        self.presentation = presentation

    def check(self, triples="all"):
        super().check(triples)
        one = self.tower.one()
        for i in range(self.dim):
            for j in range(self.dim):
                if self.product({i: one}, {j: one}) != \
                        self.product({j: one}, {i: one}):
                    raise AssertionError("algebra is not commutative")
        for k, ideal in enumerate(self.maximal_ideals):
            if len(ideal.basis) != self.dim - 1:
                raise AssertionError(f"declared maximal ideal {k} has codim != 1")

    def evaluate(self, k: int, coords: dict) -> Scalar:
        """Image of a in A/m_k under the declared identification with K."""
        chi = self.eval_functionals[k]
        acc = self.tower.zero()
        for i, c in coords.items():
            acc = acc + chi[i] * c
        return acc


class IdealRep:
    """Ideal of a CoeffAlgebra spanned by the given vectors (dense lists
    or sparse dicts), kept as the RREF basis of their span."""

    def __init__(self, algebra: CoeffAlgebra, vectors):
        self.algebra = algebra
        self._span = Span(algebra.tower, vectors)
        self.basis = self._span.basis_vectors(algebra.dim)

    @classmethod
    def from_generators(cls, algebra: CoeffAlgebra, gens):
        """Smallest ideal containing the generators: span of A * gens."""
        one = algebra.tower.one()
        vectors = []
        for g in gens:
            gd = g if isinstance(g, dict) else \
                {k: v for k, v in enumerate(g) if not v.is_zero}
            vectors.extend(algebra.product({i: one}, gd)
                           for i in range(algebra.dim))
        return cls(algebra, vectors)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        return self._span.contains(vec)

    def is_subideal_of(self, other: IdealRep) -> bool:
        return all(other.contains(v) for v in self.basis)

    def __eq__(self, other):
        return (isinstance(other, IdealRep) and self.dim == other.dim
                and self.is_subideal_of(other))

    def key(self):
        """Canonical hashable form (the RREF rows): equal ideals have equal
        keys whatever generators built them."""
        return tuple(tuple(x.sort_key() for x in row) for row in self.basis)

    def verify(self):
        one = self.algebra.tower.one()
        for v in self.basis:
            vd = {k: x for k, x in enumerate(v) if not x.is_zero}
            for i in range(self.algebra.dim):
                if not self.contains(self.algebra.product({i: one}, vd)):
                    raise AssertionError("subspace is not an ideal")

    def __repr__(self):
        return f"Ideal(dim={self.dim} of {self.algebra.name})"


def zero_ideal(a: CoeffAlgebra) -> IdealRep:
    return IdealRep(a, [])


def unit_ideal(a: CoeffAlgebra) -> IdealRep:
    one = a.tower.one()
    return IdealRep(a, [[one if i == j else a.tower.zero()
                         for i in range(a.dim)] for j in range(a.dim)])


# ---------------------------------------------------------------------------
# Polynomial quotient presets
# ---------------------------------------------------------------------------


def _poly_mul(tower, p, q):
    out = [tower.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero:
            continue
        for j, b in enumerate(q):
            if not b.is_zero:
                out[i + j] = out[i + j] + a * b
    return out


def preset_truncated(tower: Tower, modulus, roots) -> CoeffAlgebra:
    """K[t]/(f) for a monic split f with declared roots.

    modulus: coefficient list c0..cd (ascending, monic).
    roots: list of (root, multiplicity); the product of (t - a)^k must
    reproduce f exactly, and every root must lie in the tower.
    """
    f = [tower._coerce(c) for c in modulus]
    d = len(f) - 1
    if d < 1 or f[d] != tower.one():
        raise ValueError("modulus must be monic of degree >= 1")
    norm_roots = []
    for entry in roots:
        if isinstance(entry, (tuple, list)):
            root, mult = tower._coerce(entry[0]), int(entry[1])
        else:
            root, mult = tower._coerce(entry), 1
        norm_roots.append((root, mult))
    if sum(m for _, m in norm_roots) != d:
        raise ValueError("root multiplicities must sum to the degree")
    check = [tower.one()]
    for root, mult in norm_roots:
        for _ in range(mult):
            check = _poly_mul(tower, check, [-root, tower.one()])
    if check != f:
        raise ValueError("declared roots do not factor the modulus")

    # powers of t reduced mod f
    zero = tower.zero()
    powers = [[tower.one() if i == 0 else zero for i in range(d)]]
    for _ in range(2 * d):
        prev = powers[-1]
        nxt = [zero] + prev[:d - 1]
        lead = prev[d - 1]
        if not lead.is_zero:
            nxt = [x - lead * f[i] for i, x in enumerate(nxt)]
        powers.append(nxt)
    mult = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            mult[i][j] = {k: v for k, v in enumerate(powers[i + j]) if not v.is_zero}
    labels = tuple("1" if k == 0 else f"t^{k}" if k > 1 else "t" for k in range(d))
    space = GradedSpace(d, 0, labels)
    alg = CoeffAlgebra(tower, space, mult, {0: tower.one()},
                       name=f"K[t]/(deg {d})", presentation="poly_quotient")
    for root, multn in norm_roots:
        gen = {0: -root, 1: tower.one()} if d > 1 else {0: zero}
        if d == 1:
            ideal = IdealRep(alg, [])
        else:
            ideal = IdealRep.from_generators(alg, [gen])
        alg.maximal_ideals.append(ideal)
        alg.points.append((root, multn))
        alg.eval_functionals.append([root ** k for k in range(d)])
    alg.check()
    return alg


def preset_base_field(tower: Tower) -> CoeffAlgebra:
    """A = K itself (one point)."""
    return preset_truncated(tower, [tower.zero(), tower.one()], [(tower.zero(), 1)])


def algebra_from_spec(tower: Tower, spec: dict) -> CoeffAlgebra:
    """Build a preset from its JSON description."""
    if not isinstance(spec, dict):
        raise ValueError("an algebra preset must be a JSON object")
    kind = spec.get("type")
    if kind != "poly_quotient":
        raise ValueError(f"unknown algebra preset type {kind!r}")
    modulus = [parse_scalar(tower, str(c)) if isinstance(c, str)
               else tower._coerce(c) for c in spec["modulus"]]
    roots = []
    for entry in spec["roots"]:
        if isinstance(entry, (list, tuple)):
            roots.append((parse_scalar(tower, str(entry[0])), int(entry[1])))
        else:
            roots.append((parse_scalar(tower, str(entry)), 1))
    return preset_truncated(tower, modulus, roots)


# ---------------------------------------------------------------------------
# Ideal operations
# ---------------------------------------------------------------------------


def ideal_product(i1: IdealRep, i2: IdealRep) -> IdealRep:
    a = i1.algebra
    products = []
    for u in i1.basis:
        ud = {k: v for k, v in enumerate(u) if not v.is_zero}
        for w in i2.basis:
            wd = {k: v for k, v in enumerate(w) if not v.is_zero}
            products.append(a.product(ud, wd))
    return IdealRep(a, products)


def ideal_intersect(i1: IdealRep, i2: IdealRep) -> IdealRep:
    a = i1.algebra
    tower = a.tower
    n = a.dim
    cols = [[v[i] for v in i1.basis] + [v[i] for v in i2.basis] for i in range(n)]
    k1 = len(i1.basis)
    vecs = []
    for kv in mat_kernel(cols, k1 + len(i2.basis), tower):
        vec = [tower.zero()] * n
        for c in range(k1):
            if not kv[c].is_zero:
                for i in range(n):
                    vec[i] = vec[i] + kv[c] * i1.basis[c][i]
        vecs.append(vec)
    return IdealRep(a, vecs)


def ideal_sum(i1: IdealRep, i2: IdealRep) -> IdealRep:
    return IdealRep(i1.algebra, i1.basis + i2.basis)


def ideal_power(i1: IdealRep, k: int) -> IdealRep:
    out = unit_ideal(i1.algebra)
    for _ in range(k):
        out = ideal_product(out, i1)
    return out


class QuotientAlgebra(CoeffAlgebra):
    """A/I with the projection and a linear section kept explicit."""

    def __init__(self, source: CoeffAlgebra, ideal: IdealRep):
        tower = source.tower
        n = source.dim
        # projection: the residual modulo the ideal lives on its free
        # (non-pivot) columns
        sp = ideal._span
        free = [i for i in range(n) if i not in sp.rows]
        pos = {c: t for t, c in enumerate(free)}
        d = len(free)

        def project(vec) -> dict:
            return {pos[k]: v for k, v in sp.reduce(vec).items()}

        one = tower.one()
        mult = [[{} for _ in range(d)] for _ in range(d)]
        for a in range(d):
            for b in range(d):
                prod = source.product({free[a]: one}, {free[b]: one})
                mult[a][b] = project(prod)
        unit = project(source.unit)
        labels = tuple(source.space.labels[i] for i in free)
        super().__init__(tower, GradedSpace(d, 0, labels), mult, unit,
                         name=f"{source.name}/I",
                         presentation="quotient")
        self.source = source
        self.ideal = ideal
        self.free_indices = free
        self.project = project
        # surviving maximal ideals (those containing I)
        for k, m in enumerate(source.maximal_ideals):
            if ideal.is_subideal_of(m):
                gen_imgs = [project(v) for v in m.basis]
                self.maximal_ideals.append(
                    IdealRep.from_generators(self, gen_imgs))
                if source.points:
                    self.points.append(source.points[k])
                if source.eval_functionals:
                    chi = source.eval_functionals[k]
                    self.eval_functionals.append([chi[i] for i in free])

    def lift(self, coords: dict) -> dict:
        """Section: representative in the source algebra."""
        return {self.free_indices[k]: v for k, v in coords.items()}


def quotient_algebra(a: CoeffAlgebra, ideal: IdealRep) -> QuotientAlgebra:
    return QuotientAlgebra(a, ideal)


def radical(ideal: IdealRep) -> IdealRep:
    """sqrt(I): preimage of the nilradical of A/I, computed exactly as the
    trace-form kernel of the regular representation of A/I."""
    a = ideal.algebra
    tower = a.tower
    q = QuotientAlgebra(a, ideal)
    d = q.dim
    one = tower.one()
    lmats = [q.left_mult_rows({i: one}) for i in range(d)]
    gram = zero_rows(tower, d, d)
    for i in range(d):
        for j in range(d):
            acc = tower.zero()
            for p in range(d):
                for r in range(d):
                    x = lmats[i][p][r]
                    if not x.is_zero:
                        y = lmats[j][r][p]
                        if not y.is_zero:
                            acc = acc + x * y
            gram[i][j] = acc
    gens = [dict(v) for v in
            ({k: x for k, x in enumerate(kv) if not x.is_zero}
             for kv in mat_kernel(gram, d, tower))]
    pre = IdealRep(a, ideal.basis + [q.lift(g) for g in gens])
    out = IdealRep.from_generators(a, pre.basis) if pre.basis else zero_ideal(a)
    return out


def support(ideal: IdealRep):
    """Indices of declared maximal ideals containing the ideal."""
    return [k for k, m in enumerate(ideal.algebra.maximal_ideals)
            if ideal.is_subideal_of(m)]


def crt_split(a: CoeffAlgebra, ideal: IdealRep):
    """Splitting of A/I into its local pieces at the support points.

    Returns (quotient, idempotents, pieces) where idempotents are
    orthogonal coordinate dicts in A/I summing to 1 and pieces[k] is the
    echelon basis of the corresponding component e_k * (A/I).
    Raises if the idempotent solve fails (non-split input).
    """
    tower = a.tower
    q = QuotientAlgebra(a, ideal)
    supp = list(range(len(q.maximal_ideals)))
    if not supp:
        raise ValueError("ideal has empty support; no splitting")
    if len(supp) == 1:
        e = dict(q.unit)
        piece = [[tower.one() if i == j else tower.zero() for i in range(q.dim)]
                 for j in range(q.dim)]
        return q, [e], [piece]
    primaries = []
    for k in supp:
        primaries.append(ideal_power(q.maximal_ideals[k], q.dim))
    comp = []
    for k in supp:
        cur = None
        for j in supp:
            if j == k:
                continue
            cur = primaries[j] if cur is None else ideal_product(cur, primaries[j])
        comp.append(cur)
    # solve sum e_k = 1 with e_k in comp[k]
    cols = [c.basis for c in comp]
    ncols = sum(len(b) for b in cols)
    rows = [[] for _ in range(q.dim)]
    for b in cols:
        for v in b:
            for i in range(q.dim):
                rows[i].append(v[i])
    unit_vec = [tower.zero()] * q.dim
    for i, c in q.unit.items():
        unit_vec[i] = c
    sol = solve_right(rows, unit_vec, ncols, tower)
    if sol is None:
        raise ValueError("idempotent solve failed; input is not split")
    idems = []
    pos = 0
    for b in cols:
        e = [tower.zero()] * q.dim
        for v in b:
            c = sol[pos]
            pos += 1
            if not c.is_zero:
                for i in range(q.dim):
                    e[i] = e[i] + c * v[i]
        idems.append({i: x for i, x in enumerate(e) if not x.is_zero})
    for k, e in enumerate(idems):
        if q.product(e, e) != e:
            raise ValueError("idempotent solve failed; input is not split")
        for j in range(k + 1, len(idems)):
            if q.product(e, idems[j]):
                raise ValueError("idempotents are not orthogonal")
    pieces = []
    one = tower.one()
    for e in idems:
        sp = Span(tower, (q.product(e, {i: one}) for i in range(q.dim)))
        pieces.append(sp.basis_vectors(q.dim))
    return q, idems, pieces


# ---------------------------------------------------------------------------
# Finite abelian group actions
# ---------------------------------------------------------------------------


class GammaAction:
    """Finite abelian group given by generators with explicit matrices:
    per generator an algebra automorphism of A and an even automorphism
    of q."""

    def __init__(self, tower: Tower, generators):
        self.tower = tower
        # generators: list of (order, alg_rows, q_map)
        self.generators = list(generators)
        if any(o < 1 for o, _, _ in self.generators):
            raise ValueError("generator orders must be positive")

    @property
    def order(self) -> int:
        n = 1
        for o, _, _ in self.generators:
            n *= o
        return n

    def elements(self):
        """All (alg_rows, q_rows) pairs, identity first."""
        if not self.generators:
            return []
        tower = self.tower
        dim_a = len(self.generators[0][1])
        dim_q = len(self.generators[0][2].rows)
        out = [(identity_rows(tower, dim_a), identity_rows(tower, dim_q))]
        for order, arows, qmap in self.generators:
            powers_a, powers_q = [identity_rows(tower, dim_a)], \
                [identity_rows(tower, dim_q)]
            for _ in range(order - 1):
                powers_a.append(mat_mul(arows, powers_a[-1], tower))
                powers_q.append(mat_mul(qmap.rows, powers_q[-1], tower))
            new = []
            for ea, eq in out:
                for pa, pq in zip(powers_a, powers_q):
                    new.append((mat_mul(pa, ea, tower), mat_mul(pq, eq, tower)))
            out = new
        return out

    def is_trivial(self) -> bool:
        return self.order == 1


def trivial_gamma(tower: Tower, a: CoeffAlgebra, qd) -> GammaAction:
    return GammaAction(tower, [])


def _apply_rows_to_ideal(rows, ideal: IdealRep) -> list:
    tower = ideal.algebra.tower
    out = []
    for v in ideal.basis:
        w = [tower.zero()] * len(rows)
        for i in range(len(rows)):
            acc = tower.zero()
            for j, x in enumerate(v):
                if not x.is_zero and not rows[i][j].is_zero:
                    acc = acc + rows[i][j] * x
            w[i] = acc
        out.append(w)
    return out


def gamma_validate(act: GammaAction, a: CoeffAlgebra, qd) -> dict:
    """Exact validation report: generator relations, automorphism laws,
    abelianness, freeness on the declared MaxSpec, and the orbit
    structure (with the orbit-product invariant ideals)."""
    tower = act.tower
    report = {"relations": True, "algebra_automorphism": True,
              "lie_automorphism": True, "abelian": True, "free": True,
              "closed_on_maxspec": True, "failures": []}
    one = tower.one()
    dim_a = a.dim
    g = qd.algebra

    for gi, (order, arows, qmap) in enumerate(act.generators):
        pa, pq = arows, qmap.rows
        for _ in range(order - 1):
            pa = mat_mul(arows, pa, tower)
            pq = mat_mul(qmap.rows, pq, tower)
        if pa != identity_rows(tower, dim_a) or \
                pq != identity_rows(tower, g.dim):
            report["relations"] = False
            report["failures"].append(f"generator {gi}: order relation fails")
        # algebra automorphism: multiplicative and unit-preserving
        unit_vec = [a.unit.get(i, tower.zero()) for i in range(dim_a)]
        img_unit = [sum((arows[i][j] * unit_vec[j] for j in range(dim_a)),
                        tower.zero()) for i in range(dim_a)]
        if img_unit != unit_vec:
            report["algebra_automorphism"] = False
            report["failures"].append(f"generator {gi}: unit not fixed")
        for i in range(dim_a):
            ui = {k: arows[k][i] for k in range(dim_a) if not arows[k][i].is_zero}
            for j in range(dim_a):
                uj = {k: arows[k][j] for k in range(dim_a) if not arows[k][j].is_zero}
                lhs = a.product(ui, uj)
                rhs = {}
                for k, c in a.product({i: one}, {j: one}).items():
                    for t in range(dim_a):
                        if not arows[t][k].is_zero:
                            cur = rhs.get(t)
                            add = arows[t][k] * c
                            nxt = add if cur is None else cur + add
                            if nxt.is_zero:
                                rhs.pop(t, None)
                            else:
                                rhs[t] = nxt
                if lhs != rhs:
                    report["algebra_automorphism"] = False
                    report["failures"].append(
                        f"generator {gi}: not multiplicative at ({i},{j})")
                    break
            else:
                continue
            break
        if qmap.parity != EVEN:
            report["lie_automorphism"] = False
            report["failures"].append(f"generator {gi}: q-map is not even")
        for i in range(g.dim):
            vi = {k: qmap.rows[k][i] for k in range(g.dim)
                  if not qmap.rows[k][i].is_zero}
            for j in range(g.dim):
                vj = {k: qmap.rows[k][j] for k in range(g.dim)
                      if not qmap.rows[k][j].is_zero}
                lhs = g.bracket(vi, vj)
                rhs = {}
                for k, c in g.bk[i][j].items():
                    for t in range(g.dim):
                        if not qmap.rows[t][k].is_zero:
                            cur = rhs.get(t)
                            add = qmap.rows[t][k] * c
                            nxt = add if cur is None else cur + add
                            if nxt.is_zero:
                                rhs.pop(t, None)
                            else:
                                rhs[t] = nxt
                if lhs != rhs:
                    report["lie_automorphism"] = False
                    report["failures"].append(
                        f"generator {gi}: bracket not preserved at ({i},{j})")
                    break
            else:
                continue
            break
    # abelian: generators commute pairwise
    for x in range(len(act.generators)):
        for y in range(x + 1, len(act.generators)):
            _, ax, qx = act.generators[x]
            _, ay, qy = act.generators[y]
            if mat_mul(ax, ay, tower) != mat_mul(ay, ax, tower) or \
                    mat_mul(qx.rows, qy.rows, tower) != mat_mul(qy.rows, qx.rows, tower):
                report["abelian"] = False
                report["failures"].append(f"generators {x},{y} do not commute")

    # orbit structure and freeness on the declared MaxSpec
    n_pts = len(a.maximal_ideals)
    perms = []
    for ek, (arows, _) in enumerate(act.elements()):
        perm = []
        for k, m in enumerate(a.maximal_ideals):
            img_ideal = IdealRep(a, _apply_rows_to_ideal(arows, m))
            target = None
            for k2, m2 in enumerate(a.maximal_ideals):
                if img_ideal == m2:
                    target = k2
                    break
            if target is None:
                report["closed_on_maxspec"] = False
                report["failures"].append(
                    f"element {ek}: image of maximal ideal {k} is undeclared")
                target = k
            perm.append(target)
        perms.append(perm)
        if ek > 0 and any(perm[k] == k for k in range(n_pts)):
            fixed = [k for k in range(n_pts) if perm[k] == k]
            report["free"] = False
            report["failures"].append(
                f"freeness violated at maximal ideal {fixed[0]}")
    # orbits under the whole group
    orbits = []
    seen = set()
    for k in range(n_pts):
        if k in seen:
            continue
        orbit = sorted({perm[k] for perm in perms})
        seen.update(orbit)
        orbits.append(orbit)
    report["orbits"] = orbits
    report["invariant_ideals"] = []
    for orbit in orbits:
        prod = None
        for k in orbit:
            m = a.maximal_ideals[k]
            prod = m if prod is None else ideal_product(prod, m)
        report["invariant_ideals"].append(prod.key())
    report["valid"] = (report["relations"] and report["algebra_automorphism"]
                       and report["lie_automorphism"] and report["abelian"]
                       and report["closed_on_maxspec"])
    report["point_permutations"] = perms
    return report


def gamma_from_spec(tower: Tower, spec: dict, a: CoeffAlgebra, qd) -> GammaAction:
    """Build a group action from its JSON description.  Generators carry
    an order, an action on the algebra and an action on q; each action is
    an explicit matrix or one of the shortcuts substitute_t / diag_conj /
    trivial."""
    gens = []
    for gi, g in enumerate(spec.get("generators", [])):
        if not isinstance(g, dict):
            raise ValueError(f"generator {gi} must be a JSON object")
        order = int(g["order"])
        on_a = g["on_algebra"]
        if isinstance(on_a, dict):
            kind = on_a.get("type")
            if kind == "substitute_t":
                c = parse_scalar(tower, str(on_a["scale"]))
                rows = zero_rows(tower, a.dim, a.dim)
                for k in range(a.dim):
                    rows[k][k] = c ** k
            elif kind == "trivial":
                rows = identity_rows(tower, a.dim)
            else:
                raise ValueError(f"unknown algebra action type {kind!r}")
        else:
            rows = [[parse_scalar(tower, str(x)) for x in row] for row in on_a]
        on_q = g["on_q"]
        if isinstance(on_q, dict):
            kind = on_q.get("type")
            if kind == "diag_conj":
                qmap = qd.conj_automorphism(
                    [parse_scalar(tower, str(x)) for x in on_q["diag"]])
            elif kind == "trivial":
                qmap = GradedMap.identity(tower, qd.space)
            else:
                raise ValueError(f"unknown q action type {kind!r}")
        else:
            qrows = [[parse_scalar(tower, str(x)) for x in row] for row in on_q]
            qmap = GradedMap(tower, qd.space, qd.space, qrows, parity=EVEN)
        gens.append((order, rows, qmap))
    return GammaAction(tower, gens)
