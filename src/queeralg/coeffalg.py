"""Finite-dimensional commutative coefficient algebras with declared
maximal spectra, ideal arithmetic (product, radical, support), and
finite abelian group actions.

Maximal ideals are declared by the presets rather than solved for:
locating the maximal ideals of an arbitrary algebra needs root finding
outside the scalar tower, while split polynomial quotients cover every
computation in scope.
"""

from __future__ import annotations

from functools import cached_property

from .assocsuper import AssocSuper, trace_form_kernel
from .graded import (EVEN, GradedMap, GradedSpace, Span, add_entries,
                     solve_columns)
from .scalars import Scalar, Tower, scalar_from_json


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
        for i in range(self.dim):
            for j in range(self.dim):
                if self.mult[i][j] != self.mult[j][i]:
                    raise AssertionError("algebra is not commutative")
        for k, ideal in enumerate(self.maximal_ideals):
            if ideal.dim != self.dim - 1:
                raise AssertionError(f"declared maximal ideal {k} has codim != 1")

    def evaluate(self, k: int, coords: dict) -> Scalar:
        """Image of a in A/m_k under the declared identification with K."""
        chi = self.eval_functionals[k]
        acc = self.tower.zero()
        for i, c in coords.items():
            acc = acc + chi[i] * c
        return acc

    @cached_property
    def idempotents(self) -> list:
        """The primitive idempotents e_x, one per declared point in
        declared order, as coordinate dicts: e_x e_y = delta_xy e_x, the
        e_x sum to the unit and ev_y(e_x) = delta_xy, so A is the product
        of its local pieces e_x A.  With at most one declared point this is
        [unit], and nothing is solved.

        A solution u of ev_y(u) = delta_xy is idempotent modulo the
        nilradical N.  If u^2 - u = eps, then u' = 3u^2 - 2u^3 keeps the
        values at the points and u'^2 - u' = 4 eps^3 - 3 eps^2, so each
        round squares the power of N that eps lies in; N^dim A = 0, so u is
        idempotent after at most ceil(log2 dim A) + 1 rounds
        (AssertionError otherwise)."""
        if len(self.points) <= 1:
            return [dict(self.unit)]
        tower = self.tower
        n = self.dim
        zero, one = tower.zero(), tower.one()
        sols = solve_columns([{k: c for k, c in enumerate(chi) if c.co}
                              for chi in self.eval_functionals],
                             [{x: one} for x in range(len(self.points))],
                             n, tower)
        if sols is None:
            raise AssertionError("the evaluations at the declared points "
                                 "are not independent")
        rounds = (n - 1).bit_length() + 1
        out = []
        for u in sols:
            for _ in range(rounds):
                u2 = self.product(u, u)
                if u2 == u:
                    break
                u3 = self.product(u2, u)
                u = {k: c for k in sorted(set(u2) | set(u3))
                     if not (c := u2.get(k, zero) * 3
                             - u3.get(k, zero) * 2).is_zero}
            else:
                raise AssertionError("idempotent lift did not converge in "
                                     f"{rounds} rounds")
            out.append(u)
        return out


class IdealRep:
    """Ideal of a CoeffAlgebra spanned by the given coordinate dicts, kept
    as vectors, the RREF basis of their span.  basis is a dense view of
    the same rows, made on each read, for the reports."""

    def __init__(self, algebra: CoeffAlgebra, vectors):
        self.algebra = algebra
        self._span = Span(algebra.tower, vectors)
        self.vectors = self._span.basis_vectors()

    @classmethod
    def from_generators(cls, algebra: CoeffAlgebra, gens):
        """Smallest ideal containing the generators: span of A * gens."""
        one = algebra.tower.one()
        return cls(algebra, [algebra.product({i: one}, g) for g in gens
                             for i in range(algebra.dim)])

    @property
    def basis(self) -> list:
        zero = self.algebra.tower.zero()
        return [[v.get(k, zero) for k in range(self.algebra.dim)]
                for v in self.vectors]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, vec) -> bool:
        return self._span.contains(vec)

    def is_subideal_of(self, other: IdealRep) -> bool:
        return all(other.contains(v) for v in self.vectors)

    def __eq__(self, other):
        return (isinstance(other, IdealRep) and self.dim == other.dim
                and self.is_subideal_of(other))

    def verify(self):
        one = self.algebra.tower.one()
        for v in self.vectors:
            for i in range(self.algebra.dim):
                if not self.contains(self.algebra.product({i: one}, v)):
                    raise AssertionError("subspace is not an ideal")

    def __repr__(self):
        return f"Ideal(dim={self.dim} of {self.algebra.name})"


def zero_ideal(a: CoeffAlgebra) -> IdealRep:
    return IdealRep(a, [])


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
    roots: list of (root, multiplicity), each root given once; the
    product of (t - a)^k must reproduce f exactly, and every root must
    lie in the tower.
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
    for k, (root, _) in enumerate(norm_roots):
        if any(root == r for r, _ in norm_roots[:k]):
            total = sum(m for r, m in norm_roots if r == root)
            raise ValueError(f"root {root} is declared twice; give it once "
                             f"as [\"{root}\", {total}]")
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
    _check_truncated(alg)
    return alg


def _check_truncated(alg: CoeffAlgebra):
    """CoeffAlgebra.check of K[t]/(f) on the basis 1, t, ..., t^(d-1), with
    associativity checked on the triples (t, j, k) only.  The left nucleus
    {x : (x y) z = x (y z) for all y, z} is a subalgebra, and it holds the
    unit once the unit law does.  So once it holds t and t * t^(k-1) = t^k
    for every k (checked first, exactly), it holds every basis element,
    and the table is associative.  The unit, parity and commutativity
    sweeps stay complete."""
    one = alg.tower.one()
    d = alg.dim
    for k in range(2, d):
        if alg.mult[1][k - 1] != {k: one}:
            raise AssertionError(f"t * t^{k - 1} is not t^{k}")
    alg.check(((1, j, k) for j in range(d) for k in range(d))
              if d > 1 else ())


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
    for key in ("modulus", "roots"):
        if not isinstance(spec[key], list):
            raise ValueError(f"{key} must be a JSON list, not {spec[key]!r}")
    modulus = [scalar_from_json(tower, c) for c in spec["modulus"]]
    roots = []
    for entry in spec["roots"]:
        if not isinstance(entry, (list, tuple)):
            roots.append((scalar_from_json(tower, entry), 1))
            continue
        if len(entry) != 2:
            raise ValueError(f"a root with multiplicity must be a "
                             f"[root, multiplicity] pair, not {entry!r}")
        root, mult = entry
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
            raise ValueError(f"a root multiplicity must be a positive "
                             f"integer, not {mult!r}")
        roots.append((scalar_from_json(tower, root), mult))
    return preset_truncated(tower, modulus, roots)


# ---------------------------------------------------------------------------
# Ideal operations
# ---------------------------------------------------------------------------


def ideal_product(i1: IdealRep, i2: IdealRep) -> IdealRep:
    a = i1.algebra
    return IdealRep(a, [a.product(u, w) for u in i1.vectors
                        for w in i2.vectors])


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

        mult = [[project(source.mult[a][b]) for b in free] for a in free]
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
        self.kept_points = []
        for k, m in enumerate(source.maximal_ideals):
            if ideal.is_subideal_of(m):
                self.kept_points.append(k)
                gen_imgs = [project(v) for v in m.vectors]
                self.maximal_ideals.append(
                    IdealRep.from_generators(self, gen_imgs))
                if source.points:
                    self.points.append(source.points[k])
                if source.eval_functionals:
                    chi = source.eval_functionals[k]
                    self.eval_functionals.append([chi[i] for i in free])

    @cached_property
    def idempotents(self) -> list:
        """The images of the source's idempotents at the kept points: the
        idempotent of a dropped point y lies in I (I is not inside m_y, so
        I contains the whole local piece e_y A), so these still sum to
        the unit."""
        if len(self.points) <= 1:
            return [dict(self.unit)]
        src = self.source.idempotents
        return [self.project(src[k]) for k in self.kept_points]

    def lift(self, coords: dict) -> dict:
        """Section: representative in the source algebra."""
        return {self.free_indices[k]: v for k, v in coords.items()}


def radical(ideal: IdealRep) -> IdealRep:
    """sqrt(I): preimage of the nilradical of A/I, computed exactly as the
    trace-form kernel of the regular representation of A/I."""
    a = ideal.algebra
    q = QuotientAlgebra(a, ideal)
    pre = IdealRep(a, ideal.vectors + [q.lift(g) for g in trace_form_kernel(q)])
    return IdealRep.from_generators(a, pre.vectors) if pre.vectors \
        else zero_ideal(a)


def support(ideal: IdealRep):
    """Indices of declared maximal ideals containing the ideal."""
    return [k for k, m in enumerate(ideal.algebra.maximal_ideals)
            if ideal.is_subideal_of(m)]


# ---------------------------------------------------------------------------
# Finite abelian group actions
# ---------------------------------------------------------------------------


class GammaAction:
    """Finite abelian group given by generators: per generator its order,
    an algebra automorphism of A and an even automorphism of q, both as
    even GradedMaps."""

    def __init__(self, tower: Tower, generators):
        self.tower = tower
        # generators: list of (order, a_map, q_map)
        self.generators = list(generators)
        if any(o < 1 for o, _, _ in self.generators):
            raise ValueError("generator orders must be positive")

    @property
    def order(self) -> int:
        n = 1
        for o, _, _ in self.generators:
            n *= o
        return n

    @cached_property
    def elements(self) -> list:
        """All (a_map, q_map) pairs, identity first, built once per action:
        each element e is followed by g e, ..., g^(order - 1) e for the
        next generator g."""
        if not self.generators:
            return []
        _, a0, q0 = self.generators[0]
        out = [(GradedMap.identity(self.tower, a0.source),
                GradedMap.identity(self.tower, q0.source))]
        for order, a_map, q_map in self.generators:
            new = []
            for cur in out:
                new.append(cur)
                for _ in range(order - 1):
                    cur = (a_map * cur[0], q_map * cur[1])
                    new.append(cur)
            out = new
        return out

    def is_trivial(self) -> bool:
        return self.order == 1


def _first_unpreserved_pair(f: GradedMap, op, table, rows):
    """First (i, j), i in rows (ascending) and j any basis index, in
    row-major order, with op(f e_i, f e_j) != f table[i][j] for the square
    map f; None if there is none.  table[i][j] is the coordinate dict of
    op(e_i, e_j).  Given all basis indices as rows, None means that f
    preserves op."""
    dim = f.source.dim
    by_col = f.columns()
    cols = [by_col.get(i, {}) for i in range(dim)]
    for i in rows:
        for j in range(dim):
            rhs = add_entries({}, ((t, x * c) for k, c in table[i][j].items()
                                   for t, x in cols[k].items()))
            if op(cols[i], cols[j]) != rhs:
                return i, j
    return None


def gamma_validate(act: GammaAction, a: CoeffAlgebra, qd) -> dict:
    """Exact validation report: generator relations, automorphism laws,
    abelianness, freeness on the declared MaxSpec, and the orbits of the
    group on the declared points.

    An even linear map f of q preserves the bracket once
    f[x, y] = [f x, f y] holds for every generator x of q
    (LieSuper.generators) and every basis element y: the x for which it
    holds for every y form a Lie sub-superalgebra, by super-Jacobi, so
    they are all of q.  The first failing pair is reported in row-major
    order over the generator rows."""
    tower = act.tower
    report = {"relations": True, "algebra_automorphism": True,
              "lie_automorphism": True, "abelian": True, "free": True,
              "closed_on_maxspec": True, "failures": []}
    g = qd.algebra
    ident_a = GradedMap.identity(tower, a.space)
    ident_q = GradedMap.identity(tower, qd.space)

    for gi, (order, a_map, q_map) in enumerate(act.generators):
        pa, pq = a_map, q_map
        for _ in range(order - 1):
            pa, pq = a_map * pa, q_map * pq
        if pa != ident_a or pq != ident_q:
            report["relations"] = False
            report["failures"].append(f"generator {gi}: order relation fails")
        # algebra automorphism: multiplicative and unit-preserving
        if a_map.apply(a.unit) != a.unit:
            report["algebra_automorphism"] = False
            report["failures"].append(f"generator {gi}: unit not fixed")
        pair = _first_unpreserved_pair(a_map, a.product, a.mult,
                                       range(a.dim))
        if pair is not None:
            report["algebra_automorphism"] = False
            report["failures"].append(
                f"generator {gi}: not multiplicative at ({pair[0]},{pair[1]})")
        if q_map.parity != EVEN:
            report["lie_automorphism"] = False
            report["failures"].append(f"generator {gi}: q-map is not even")
        pair = _first_unpreserved_pair(q_map, g.bracket, g.bk,
                                       g.generators)
        if pair is not None:
            report["lie_automorphism"] = False
            report["failures"].append(
                f"generator {gi}: bracket not preserved at ({pair[0]},{pair[1]})")
    # abelian: generators commute pairwise
    for x in range(len(act.generators)):
        for y in range(x + 1, len(act.generators)):
            _, ax, qx = act.generators[x]
            _, ay, qy = act.generators[y]
            if ax * ay != ay * ax or qx * qy != qy * qx:
                report["abelian"] = False
                report["failures"].append(f"generators {x},{y} do not commute")

    # orbit structure and freeness on the declared MaxSpec
    n_pts = len(a.maximal_ideals)
    perms = []
    for ek, (a_map, q_map) in enumerate(act.elements):
        perm = []
        for k, m in enumerate(a.maximal_ideals):
            img_ideal = IdealRep(a, [a_map.apply(v) for v in m.vectors])
            target = None
            for k2, m2 in enumerate(a.maximal_ideals):
                if img_ideal == m2:
                    target = k2
                    break
            if target is None:
                report["closed_on_maxspec"] = False
                report["failures"].append(
                    f"element {ek}: image of maximal ideal {k} is undeclared")
            perm.append(target)  # None: neither a fixed point nor in an orbit
        perms.append(perm)
        # the identity fixes every point and witnesses nothing.  When an
        # order relation fails, the declared group does not act, and a
        # declared order above the true one lists the identity again: it
        # is no witness either (a group that acts but not faithfully, such
        # as a trivial action of order 2, stays non-free)
        if ek == 0 or (not report["relations"] and a_map == ident_a
                       and q_map == ident_q):
            continue
        if any(perm[k] == k for k in range(n_pts)):
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
        orbit = sorted({perm[k] for perm in perms} - {None})
        seen.update(orbit)
        orbits.append(orbit)
    report["orbits"] = orbits
    report["valid"] = (report["relations"] and report["algebra_automorphism"]
                       and report["lie_automorphism"] and report["abelian"]
                       and report["closed_on_maxspec"])
    return report


def _matrix_from_json(tower: Tower, rows, n: int, what: str) -> list:
    """An n x n matrix given in JSON input: a list of rows, each a list of
    scalars as scalars.scalar_from_json reads them; what names it in the
    shape error."""
    if not isinstance(rows, list) or \
            not all(isinstance(row, list) for row in rows):
        raise ValueError(f"a matrix must be a list of rows, not {rows!r}")
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"{what} must be a {n} x {n} matrix")
    return [[scalar_from_json(tower, x) for x in row] for row in rows]


def gamma_from_spec(tower: Tower, spec: dict, a: CoeffAlgebra, qd) -> GammaAction:
    """Build a group action from its JSON description.  Generators carry
    an order, an action on the algebra and an action on q; each action is
    an explicit matrix or one of the shortcuts substitute_t / diag_conj /
    trivial."""
    generators = spec.get("generators", [])
    if not isinstance(generators, list):
        raise ValueError("generators must be a list")
    gens = []
    for gi, g in enumerate(generators):
        if not isinstance(g, dict):
            raise ValueError(f"generator {gi} must be a JSON object")
        order = g["order"]
        if isinstance(order, bool) or not isinstance(order, int) or order < 1:
            raise ValueError(f"generator {gi}: the order must be a positive "
                             f"integer, not {order!r}")
        on_a = g["on_algebra"]
        if isinstance(on_a, dict):
            kind = on_a.get("type")
            if kind == "substitute_t":
                c = scalar_from_json(tower, on_a["scale"])
                a_map = GradedMap(tower, a.space, a.space,
                                  {(k, k): x for k in range(a.dim)
                                   if (x := c ** k).co}, parity=EVEN)
            elif kind == "trivial":
                a_map = GradedMap.identity(tower, a.space)
            else:
                raise ValueError(f"unknown algebra action type {kind!r}")
        else:
            a_map = GradedMap.from_rows(
                tower, a.space, a.space,
                _matrix_from_json(tower, on_a, a.dim,
                                  f"generator {gi}: on_algebra"),
                parity=EVEN)
        on_q = g["on_q"]
        if isinstance(on_q, dict):
            kind = on_q.get("type")
            if kind == "diag_conj":
                diag = on_q["diag"]
                if not isinstance(diag, list) or len(diag) != qd.n + 1:
                    raise ValueError(f"generator {gi}: on_q diag must be a "
                                     f"list of {qd.n + 1} scalars")
                q_map = qd.conj_automorphism(
                    [scalar_from_json(tower, x) for x in diag])
            elif kind == "trivial":
                q_map = GradedMap.identity(tower, qd.space)
            else:
                raise ValueError(f"unknown q action type {kind!r}")
        else:
            q_map = GradedMap.from_rows(
                tower, qd.space, qd.space,
                _matrix_from_json(tower, on_q, qd.space.dim,
                                  f"generator {gi}: on_q"),
                parity=EVEN)
        gens.append((order, a_map, q_map))
    return GammaAction(tower, gens)
