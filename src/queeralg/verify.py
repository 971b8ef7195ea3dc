"""Named verification suites: each suite runs a list of exact checks and
returns (name, passed, detail) records.  All randomness is drawn from a
seeded generator so reports are reproducible byte for byte."""

from __future__ import annotations

import random
from fractions import Fraction

from .assocsuper import (QuadraticPair, assoc_tensor, classify_simple,
                         clifford, clifford_generators,
                         density_type_from_maps, make_M, make_Q)
from .cartanmod import (CartanAlgebra, PsiFunctional, build_H,
                        classify_cartan_module, i_psi)
from .coeffalg import (gamma_from_spec, preset_base_field, preset_truncated,
                       zero_ideal)
from .graded import GradedMap, GradedSpace, commutant, kernel, \
    graded_tensor, mat_kernel
from .hwmod import (TruncatedVerma, check_psi0_ideal, is_irreducible_hw,
                    simple_quotient, top_psi)
from .liesuper import (direct_sum_weight, hom_space_weight,
                       is_isomorphic_weight, is_simple, is_solvable,
                       subalgebra)
from .mapsuper import ann_and_support, ev_rank, invariants, tensor_lie
from .products import (Catalog, assoc_check, classify_enumerate,
                       ev_pullback, hat_tensor_weight,
                       outer_factors, q1_module, restrict_to_invariants,
                       trivial_q_module, twist_q_module, weight_schur_data)
from .queer import build_q, build_q_tilde, cartan_generation_check
from .scalars import Tower

SUITES = ("superalg", "queer", "cartan", "hw", "products")


class Checks:
    def __init__(self):
        self.records = []

    def add(self, name: str, passed: bool, detail: str = ""):
        self.records.append({"name": name, "passed": bool(passed),
                             "detail": detail})

    @property
    def all_passed(self) -> bool:
        return all(r["passed"] for r in self.records)


def _rand_scalar(tower, rng, extra=()):
    out = tower.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    out = out + tower.i() * rng.randint(-2, 2)
    for s in extra:
        out = out + s * rng.randint(-2, 2)
    return out


def _rand_graded_map(tower, rng, src, tgt, parity):
    rows = [[tower.zero()] * src.dim for _ in range(tgt.dim)]
    for i in range(tgt.dim):
        for j in range(src.dim):
            if (tgt.parity(i) + src.parity(j)) % 2 == parity:
                rows[i][j] = tower.from_int(rng.randint(-3, 3))
    return GradedMap.from_rows(tower, src, tgt, rows, parity=parity)


def _two_point(tower):
    return preset_truncated(tower, [-tower.one(), tower.zero(), tower.one()],
                            [(tower.one(), 1), (-tower.one(), 1)])


def _dual(tower):
    return preset_truncated(tower, [tower.zero(), tower.zero(), tower.one()],
                            [(tower.zero(), 2)])


def _four_point(tower):
    return preset_truncated(
        tower,
        [-tower.one(), tower.zero(), tower.zero(), tower.zero(), tower.one()],
        [(tower.one(), 1), (-tower.one(), 1), (tower.i(), 1),
         (-tower.i(), 1)])


# ---------------------------------------------------------------------------


def suite_superalg(seed: int) -> Checks:
    rng = random.Random(seed)
    ck = Checks()
    tower = Tower()
    s2 = tower.adjoin_sqrt(tower.from_int(2))

    ok = True
    for _ in range(25):
        a, b = _rand_scalar(tower, rng, (s2,)), _rand_scalar(tower, rng, (s2,))
        ok &= (a + b) * (a + b) == a * a + 2 * a * b + b * b
        if not b.is_zero:
            ok &= (a / b) * b == a
    ck.add("scalar field identities on random tower elements", ok)

    ok = True
    for _ in range(30):
        src = GradedSpace(rng.randint(0, 3), rng.randint(0, 3))
        tgt = GradedSpace(rng.randint(0, 3), rng.randint(0, 3))
        f = _rand_graded_map(tower, rng, src, tgt, rng.randint(0, 1))
        ks, _ = kernel(f)
        ok &= ks.dim + f.rank() == src.dim
    ck.add("kernel rank-nullity on random graded maps", ok)

    ok = True
    v = GradedSpace(2, 1)
    for _ in range(10):
        pf, pg, pf2, pg2 = (rng.randint(0, 1) for _ in range(4))
        f, g = _rand_graded_map(tower, rng, v, v, pf), \
            _rand_graded_map(tower, rng, v, v, pg)
        f2, g2 = _rand_graded_map(tower, rng, v, v, pf2), \
            _rand_graded_map(tower, rng, v, v, pg2)
        lhs = graded_tensor(f, g) * graded_tensor(f2, g2)
        rhs = graded_tensor(f * f2, g * g2)
        if pg and pf2:
            rhs = rhs * (-1)
        ok &= lhs == rhs
    ck.add("graded tensor composition sign rule", ok)

    ops = [_rand_graded_map(tower, rng, v, v, p) for p in (0, 1)]
    ok = True
    for t in commutant(ops, v, tower):
        for op in ops:
            sgn = -1 if (t.parity and op.parity) else 1
            ok &= (t * op - op * t * sgn).is_zero
    ck.add("commutant output supercommutes exactly", ok)

    m11 = make_M(tower, 1, 1)
    q1 = make_Q(tower, 1)
    q2a = make_Q(tower, 2)
    for alg in (m11, q1, q2a):
        alg.check()
    ck.add("matrix superalgebra axioms (unit, parity, associativity)", True)
    ck.add("dims of M(1|1), Q(1), Q(2)",
           m11.dim == 4 and q1.dim == 2 and q2a.dim == 8)
    t = classify_simple(assoc_tensor(q1, make_Q(tower, 1)))
    ck.add("tensor of two rank-one queer algebras has type M(1,1)",
           (t.kind, t.m, t.n) == ("M", 1, 1))
    t2 = classify_simple(assoc_tensor(q2a, make_Q(tower, 1)))
    ck.add("Q(2) (x) Q(1) classifies as type M", t2.kind == "M")

    ok = True
    detail = []
    for r in range(1, 5):
        kk = Tower()
        rows = [[kk.from_int(1 if i == j else 0) for j in range(r)]
                for i in range(r)]
        q = QuadraticPair(kk, rows)
        alg = clifford(q)
        ok &= alg.dim == 2 ** r
        tt = classify_simple(alg)
        ok &= (tt.kind == "Q") == (r % 2 == 1)
        carrier, gens = clifford_generators(q)
        ok &= carrier.dim == 2 ** -(-r // 2)
        d = density_type_from_maps(gens, carrier, kk)
        ok &= d.kind == ("qcomm" if r % 2 else "full")
        detail.append(f"r={r}:{tt!r}/{d!r}")
    ck.add("Clifford dims, classification and density for unit forms",
           ok, " ".join(detail))
    deg = classify_simple(clifford(QuadraticPair(
        tower, [[tower.one(), tower.one()], [tower.one(), tower.one()]])))
    ck.add("degenerate Clifford form is not simple", deg.kind == "not_simple")

    # the rank-one queer module tensor square splits into two isomorphic
    # halves of dimension 2, and the image algebra acts densely
    m = q1_module(tower)
    s = weight_schur_data(m)
    prod, info = hat_tensor_weight(*outer_factors(m, m, s, s))
    ok = info["split"] and prod.dim == 2 and info["minus"].dim == 2
    iso, _ = is_isomorphic_weight(info["plus"], info["minus"])
    dd = density_type_from_maps(prod.mats, prod.space, tower)
    ck.add("tensor square of the rank-one queer module splits V (+) V",
           ok and iso and dd.kind == "full",
           f"dim V={prod.dim}, density={dd!r}")
    return ck


def suite_queer(seed: int) -> Checks:
    ck = Checks()
    tower = Tower()
    for n, dim, pos in ((2, 16, 3), (3, 30, 6)):
        qd = build_q(tower, n)
        qd.algebra.check()
        ck.add(f"q({n}) axioms (grading, skew, Jacobi on all triples)", True)
        ck.add(f"q({n}) dimension and positive root count",
               qd.dim == dim and len(qd.roots.positive_pairs) == pos)
        ck.add(f"q({n}) odd Cartan brackets generate the even Cartan",
               cartan_generation_check(qd))
        ck.add(f"q({n}) is simple", is_simple(qd.algebra))
    qd = build_q(tower, 2)
    one = tower.one()
    count = len(qd.cartan_indices) + sum(
        len(qd.root_space(p)) for p in qd.roots.all_pairs)
    ck.add("root space decomposition exhausts q(2)", count == qd.dim)
    ok = True
    for pa in qd.roots.all_pairs:
        for pb in qd.roots.all_pairs:
            target = tuple(x + y for x, y in zip(qd.roots.root_tuple(pa),
                                                 qd.roots.root_tuple(pb)))
            for ia in qd.root_space(pa):
                for ib in qd.root_space(pb):
                    br = qd.algebra.bracket({ia: one}, {ib: one})
                    if br:
                        ok &= qd.weight_of(br) == target
    ck.add("brackets respect root addition", ok)
    npos, _ = subalgebra(qd.algebra, [{i: one} for i in qd.npos_indices])
    nneg, _ = subalgebra(qd.algebra, [{i: one} for i in qd.nneg_indices])
    borel, _ = subalgebra(qd.algebra, [{i: one} for i in qd.borel_indices])
    ck.add("triangular parts: nilpotent radicals solvable, Borel closed",
           is_solvable(npos) and is_solvable(nneg) and borel.dim == 10)
    ck.add("pre-quotient algebra with central identity is not simple",
           not is_simple(build_q_tilde(tower, 1)))
    return ck


def cartan_random_corpus(label_maker, rng, count: int, ck: Checks,
                         label: str):
    """Shared body of the functional-corpus checks: each draw runs in its
    own computation context (fresh tower), since every build adjoins its
    own square roots.  After the seeded draws, and outside the rng
    stream, comes one fixed functional, evaluation of (1, 1) at the first
    point (skipped when already drawn): over the dual numbers and two
    points its I_psi is nonzero, so the killed-ideal check has an ideal
    to test whatever the draws.  Distinct functionals are pairwise
    non-isomorphic because a strict intertwiner between modules with
    different central characters is forced to zero; distinctness of the
    drawn values is asserted on their exact serializations."""
    seen_values = []
    ok_psi = ok_dim = ok_iso = ok_irr = ok_killed = ok_bound = True
    draws = []
    while len(draws) < count:
        draws.append([(rng.randint(-3, 3), rng.randint(-1, 1))
                      for _ in range(64)])
    for draw in draws + [None]:
        tower = Tower()
        qd, a = label_maker(tower)
        ctx = CartanAlgebra(qd, a)
        if draw is None:   # the fixed functional
            psi = PsiFunctional.evaluation(ctx, 0, [1, 1])
        else:
            psi = PsiFunctional(ctx, [tower.from_int(x) + tower.i() * y
                                      for (x, y) in draw[:ctx.n_even]])
        key = tuple(str(v) for v in psi.values)
        if psi.is_zero() or key in seen_values:
            continue
        seen_values.append(key)
        h = build_H(psi)
        mod = h.as_lie_module()
        mod.check()
        d = density_type_from_maps(mod.mats, mod.space, tower)
        ok_irr &= d.certifies_irreducible
        ident = GradedMap.identity(tower, h.carrier)
        for k in range(ctx.n_even):
            ok_psi &= h.cartan_mats[k] == ident * psi.values[k]
        ok_dim &= h.dim == 2 ** -(-h.rank // 2)
        h2 = build_H(psi, pivot_order=list(range(h.rank))[::-1] or None)
        iso, _ = is_isomorphic_weight(mod, h2.as_lie_module())
        ok_iso &= iso
        ideal = i_psi(psi)
        for coords in ideal.vectors:
            for i in range(ctx.n):
                acc = GradedMap.zero(tower, h.carrier, h.carrier)
                for j, ca in coords.items():
                    acc = acc + h.cartan_mats[ctx.n_even + i * ctx.na + j] * ca
                ok_killed &= acc.is_zero
        if h.data is not None:
            ok_bound &= h.dim <= 2 ** (ctx.n * h.data.quotient.dim)
    ck.add(f"[{label}] even Cartan part acts by the functional", ok_psi)
    ck.add(f"[{label}] module dimension is 2^ceil(rank/2)", ok_dim)
    ck.add(f"[{label}] density oracle certifies irreducibility", ok_irr)
    ck.add(f"[{label}] rebuilt module (other pivots) isomorphic", ok_iso)
    ck.add(f"[{label}] ideals killed by the functional act by zero", ok_killed)
    ck.add(f"[{label}] enveloping-monomial dimension bound", ok_bound)
    ck.add(f"[{label}] drawn functionals pairwise distinct",
           len(seen_values) == len(set(seen_values)))
    # witnessed non-isomorphism for one pair in a shared context; the rest
    # follow from the central-character argument above
    tower = Tower()
    qd, a = label_maker(tower)
    ctx = CartanAlgebra(qd, a)
    psi_a = PsiFunctional(ctx, [tower.from_int(1)] * ctx.n_even)
    psi_b = PsiFunctional(ctx, [tower.from_int(2)] * ctx.n_even)
    iso, _ = is_isomorphic_weight(build_H(psi_a).as_lie_module(),
                                  build_H(psi_b).as_lie_module())
    ck.add(f"[{label}] distinct functionals: no intertwiner found", not iso)


def suite_cartan(seed: int) -> Checks:
    rng = random.Random(seed)
    ck = Checks()

    def base(tower):
        return build_q(tower, 2), preset_base_field(tower)

    def dual(tower):
        return build_q(tower, 2), _dual(tower)

    def two(tower):
        return build_q(tower, 2), _two_point(tower)

    cartan_random_corpus(base, rng, 6, ck, "base field")
    cartan_random_corpus(dual, rng, 6, ck, "dual numbers")
    cartan_random_corpus(two, rng, 6, ck, "two points")
    tower = Tower()
    qd = build_q(tower, 2)
    ctx = CartanAlgebra(qd, _two_point(tower))
    psi = PsiFunctional.evaluation(ctx, 0, [1, 1])
    got, wit = classify_cartan_module(build_H(psi).as_lie_module(), ctx)
    ck.add("classification reads the functional back with a witness",
           got == psi and wit.rank() == build_H(psi).dim)
    return ck


def _pbw_count(low_weights, beta):
    """Independent monomial count with pruning (evens first)."""
    n_even = len(low_weights) // 2
    evens, odds = low_weights[:n_even], low_weights[n_even:]
    total = 0

    def count_even_exact(left):
        # count multisets with total weight exactly `left`
        def rec(i, rem):
            if i == len(evens):
                return 1 if all(x == 0 for x in rem) else 0
            acc = 0
            cur = list(rem)
            while True:
                acc += rec(i + 1, tuple(cur))
                if not all(c >= w for c, w in zip(cur, evens[i])):
                    break
                cur = [c - w for c, w in zip(cur, evens[i])]
            return acc
        return rec(0, left)

    for mask in range(1 << len(odds)):
        wt = [0] * len(beta)
        for k in range(len(odds)):
            if mask >> k & 1:
                wt = [a + b for a, b in zip(wt, odds[k])]
        rem = tuple(b - w for b, w in zip(beta, wt))
        if any(r < 0 for r in rem):
            continue
        total += count_even_exact(rem)
    return total


def suite_hw(seed: int) -> Checks:
    ck = Checks()
    tower = Tower()
    qd = build_q(tower, 2)
    a1 = preset_base_field(tower)
    ms1 = tensor_lie(qd, a1)
    ctx1 = CartanAlgebra(qd, a1)

    psi = PsiFunctional(ctx1, [tower.from_int(5), tower.from_int(3)])
    vm = TruncatedVerma(ms1, psi, 3)
    lows = [vm.low_coords[p] for p in range(len(vm.lowering))]
    ok = all(d == _pbw_count(lows, beta) * vm.h_mod.dim
             for beta, d in vm.dims_by_weight().items())
    ck.add("PBW dimension law over the base field (depth 3)", ok)

    psi_ad = PsiFunctional(ctx1, [tower.one(), tower.one()])
    sq = simple_quotient(ms1, psi_ad)
    ad_ms = ev_pullback(ms1, 0, Catalog(qd).module("adjoint"))
    iso, _ = is_isomorphic_weight(sq.module, ad_ms) if sq.conclusive \
        else (False, None)
    ck.add("adjoint weight recovers the 16-dim adjoint representation",
           sq.conclusive and sq.module.dim == 16 and iso)
    sq.module.check()
    ck.add("recovered module satisfies all bracket relations", True)

    a2 = _two_point(tower)
    ms2 = tensor_lie(qd, a2)
    cat = Catalog(qd)
    corpus = []
    ad0 = ev_pullback(ms2, 0, cat.module("adjoint"))
    triv = ev_pullback(ms2, 0, trivial_q_module(qd))
    corpus.append(("trivial", triv, True))
    corpus.append(("adjoint@p0", ad0, True))
    corpus.append(("adjoint@p1",
                   ev_pullback(ms2, 1, cat.module("adjoint")), True))
    corpus.append(("adjoint (+) trivial", direct_sum_weight(ad0, triv), False))
    corpus.append(("adjoint (+) adjoint", direct_sum_weight(ad0, ad0), False))
    ok = True
    details = []
    for name, mod, expect in corpus:
        crit = is_irreducible_hw(mod)
        d = density_type_from_maps(mod.mats, mod.space, tower)
        agree = crit == d.certifies_irreducible == expect
        ok &= agree
        details.append(f"{name}:{crit}/{d.kind}")
    ck.add("criterion agrees with the density oracle on the corpus",
           ok, " ".join(details))

    # an ideal that kills one vector of an irreducible kills the module:
    # here q (x) m1 kills no nonzero vector of the module supported at p0,
    # checked as a joint kernel of all operators x (x) a, a in m1
    one = tower.one()
    all_rows = []
    mats, space = ad0.mats, ad0.space
    for coords in a2.maximal_ideals[1].vectors:
        for xi in range(qd.dim):
            terms = ms2.embed_g({xi: one}, coords).items()
            op = GradedMap.combination(tower, space, space,
                                       ((c, mats[k]) for k, c in terms))
            rows: dict = {}
            for (i, j), x in op.entries.items():
                rows.setdefault(i, {})[j] = x
            all_rows.extend(rows.values())
    kern = mat_kernel(all_rows, ad0.dim, tower)
    ck.add("nonannihilating ideal kills no nonzero vector", kern == [])
    ann, supp, reduced = ann_and_support(ad0, ms2)
    ck.add("annihilating ideal kills the whole module (by construction)",
           ann == a2.maximal_ideals[0] and supp == [0] and reduced)

    ctx2 = CartanAlgebra(qd, a2)
    psi0 = PsiFunctional.evaluation(ctx2, 0, [1, 1])
    r1 = check_psi0_ideal(ad0, psi0, a2.maximal_ideals[0], ms2)
    r2 = check_psi0_ideal(ad0, psi0, a2.maximal_ideals[1], ms2)
    r3 = check_psi0_ideal(ad0, psi0, zero_ideal(a2), ms2)
    ck.add("highest-weight functional kills an ideal iff the ideal kills "
           "the module", r1["equivalent"] and r2["equivalent"]
           and r3["equivalent"] and r1["psi_kills_ideal"]
           and not r2["psi_kills_ideal"])
    return ck


def suite_products(seed: int) -> Checks:
    ck = Checks()
    tower = Tower()
    qd = build_q(tower, 2)
    cat = Catalog(qd)
    a2 = _two_point(tower)
    ms2 = tensor_lie(qd, a2)
    ctx2 = CartanAlgebra(qd, a2)

    m = q1_module(tower)
    ck.add("triple product associativity for rank-one queer factors",
           assoc_check(m, m, m))

    ad0 = ev_pullback(ms2, 0, cat.module("adjoint"))
    ad1 = ev_pullback(ms2, 1, cat.module("adjoint"))
    s = cat.weight_schur("adjoint")
    # q(2)'s adjoint is of type M, so the product does not split
    prod, info = hat_tensor_weight(ad0, ad1, s, s)
    ck.add("disjoint-support tensor dichotomy (irreducible branch)",
           not info["split"] and is_irreducible_hw(prod), f"dim {prod.dim}")

    got = top_psi(prod, ms2, ctx2)
    expect = PsiFunctional.evaluation(ctx2, 0, [1, 1]) + \
        PsiFunctional.evaluation(ctx2, 1, [1, 1])
    ck.add("top character of the two-point product is the sum", got == expect)

    kerns, _ = hom_space_weight(ad0, ad1)
    ck.add("evaluations at distinct points admit no nonzero intertwiner",
           kerns == [])

    a4 = _four_point(tower)
    ms4 = tensor_lie(qd, a4)
    act = gamma_from_spec(tower, {"generators": [
        {"order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": {"type": "diag_conj", "diag": ["1", "1", "-1"]}}]}, a4, qd)
    inv = invariants(ms4, act)
    ck.add("equivariant evaluation at one orbit point is surjective",
           ev_rank(ms4, [0], inv.averaged) == 16)
    # the twisted class pulls back along sigma^-1, which is sigma (order 2)
    sigma = act.generators[0][2]
    ad = cat.module("adjoint")
    here = restrict_to_invariants(ev_pullback(ms4, 0, ad), inv)
    there = restrict_to_invariants(
        ev_pullback(ms4, 1, twist_q_module(ad, qd, sigma)), inv)
    iso, _ = is_isomorphic_weight(here, there)
    ck.add("evaluation class is invariant along the group orbit", iso)

    rep2 = classify_enumerate(ms2, cat)
    dims = sorted(r.dim for r in rep2["rows"])
    ck.add("two-point enumeration: four pairwise distinct irreducibles",
           len(rep2["rows"]) == 4 and dims[:3] == [1, 16, 16]
           and rep2["pairwise_distinct"], f"dims {dims}")
    ck.add("all enumerated modules have reduced finite support",
           all(r.reduced for r in rep2["rows"]))

    rep4 = classify_enumerate(ms4, cat, inv=inv)
    dims4 = sorted(r.dim for r in rep4["rows"])
    ck.add("twisted four-point enumeration over two orbits",
           rep4["twisted"] and len(rep4["rows"]) == 4
           and dims4[:3] == [1, 16, 16] and rep4["pairwise_distinct"],
           f"dims {dims4}")
    return ck


SUITE_FUNCS = {
    "superalg": suite_superalg,
    "queer": suite_queer,
    "cartan": suite_cartan,
    "hw": suite_hw,
    "products": suite_products,
}


def run_suites(names, seed: int) -> dict:
    """Run the named suites; returns a structured, deterministic report."""
    out = {"seed": seed, "suites": []}
    failures = 0
    for name in names:
        ck = SUITE_FUNCS[name](seed)
        failures += sum(1 for r in ck.records if not r["passed"])
        out["suites"].append({"name": name, "passed": ck.all_passed,
                              "checks": ck.records})
    out["failures"] = failures
    return out
