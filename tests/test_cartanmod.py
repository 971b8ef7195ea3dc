import random
from fractions import Fraction

import pytest

import queeralg.assocsuper as assocsuper
from queeralg.assocsuper import (QuadraticPair, clifford_generators,
                                 density_type_from_maps)
from queeralg.cartanmod import (CartanAlgebra, CliffordData, PsiFunctional,
                                build_H, classify_cartan_module, i_psi)
from queeralg.coeffalg import preset_base_field, preset_truncated
from queeralg.graded import GradedMap, Span
from queeralg.liesuper import (WeightModule, direct_sum_weight,
                               is_isomorphic_flat)
from queeralg.queer import build_q
from queeralg.scalars import Tower


@pytest.fixture
def K():
    return Tower()


@pytest.fixture
def q2(K):
    return build_q(K, 2)


def ctx_over(K, q2, which):
    if which == "C":
        return CartanAlgebra(q2, preset_base_field(K))
    if which == "dual":
        return CartanAlgebra(q2, preset_truncated(
            K, [K.zero(), K.zero(), K.one()], [(K.zero(), 2)]))
    if which == "two":
        return CartanAlgebra(q2, preset_truncated(
            K, [-K.one(), K.zero(), K.one()], [(K.one(), 1), (-K.one(), 1)]))
    if which == "four":   # K[t]/(t^4 - 1)
        return CartanAlgebra(q2, preset_truncated(
            K, [-K.one(), K.zero(), K.zero(), K.zero(), K.one()],
            [(K.one(), 1), (-K.one(), 1), (K.i(), 1), (-K.i(), 1)]))
    if which == "cusp":   # K[t]/(t^2 (t - 1)): a double point and a simple one
        return CartanAlgebra(q2, preset_truncated(
            K, [K.zero(), K.zero(), -K.one(), K.one()],
            [(K.zero(), 2), (K.one(), 1)]))
    raise ValueError(which)


def test_i_psi_zero_and_full(K, q2):
    ctx = ctx_over(K, q2, "two")
    psi0 = PsiFunctional.zero(ctx)
    assert i_psi(psi0).dim == ctx.coeff.dim
    # psi active at both points: I_psi = 0
    psi = PsiFunctional.evaluation(ctx, 0, [1, 1]) + \
        PsiFunctional.evaluation(ctx, 1, [1, 0])
    assert i_psi(psi).dim == 0


def test_i_psi_single_point(K, q2):
    # psi = lambda . (evaluation at t=1): the largest killed ideal is the
    # maximal ideal at that point, i.e. (t-1)
    ctx = ctx_over(K, q2, "two")
    psi = PsiFunctional.evaluation(ctx, 0, [2, -1])
    ideal = i_psi(psi)
    assert ideal == ctx.coeff.maximal_ideals[0]
    assert psi.kills(ideal)
    assert not psi.kills(ctx.coeff.maximal_ideals[1])


def _adjoint_gram_oracle():
    """Independent computation of f_psi for lambda = eps1 - eps3 over the
    base field: 3x3 diagonal matrices with Fraction entries."""
    h = [
        [Fraction(1), Fraction(-1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(-1)],
    ]
    gram = [[Fraction(0)] * 2 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            prod = [h[i][t] * h[j][t] for t in range(3)]
            tr = sum(prod)
            proj = [2 * (p - tr / 3) for p in prod]
            gram[i][j] = proj[0] - proj[2]  # lambda = eps1 - eps3
    return gram


def test_adjoint_gram_rank(K, q2):
    ctx = ctx_over(K, q2, "C")
    psi = PsiFunctional(ctx, [K.one(), K.one()])  # lambda(h1)=lambda(h2)=1
    data = CliffordData(psi)
    oracle = _adjoint_gram_oracle()
    for i in range(2):
        for j in range(2):
            assert data.gram[i].get(j, K.zero()) == \
                K.from_fraction(oracle[i][j])
    assert data.rank == 2
    assert build_H(psi).dim == 2


def test_build_H_zero(K, q2):
    ctx = ctx_over(K, q2, "C")
    h = build_H(PsiFunctional.zero(ctx))
    assert h.dim == 1 and h.rank == 0
    assert all(m.is_zero for m in h.cartan_mats)


def test_build_H_dims(K, q2):
    ctx = ctx_over(K, q2, "C")
    # natural weight eps1: rank 2, dim 2
    psi = PsiFunctional(ctx, [K.one(), K.zero()])
    h = build_H(psi)
    assert h.rank == 2 and h.dim == 2
    # rank-1 case: lambda with degenerate Gram. f = [[2l1+..]]: choose
    # lambda = (1, -1): gram = [[2*(l1+2l2)/3... computed exactly below
    psi2 = PsiFunctional(ctx, [K.from_int(3), K.from_int(-3)])
    d2 = CliffordData(psi2)
    h2 = build_H(psi2)
    assert h2.dim == 2 ** -(-d2.rank // 2)


def test_even_part_acts_by_psi(K, q2):
    ctx = ctx_over(K, q2, "two")
    psi = PsiFunctional.evaluation(ctx, 0, [1, 1]) + \
        PsiFunctional.evaluation(ctx, 1, [0, 2])
    h = build_H(psi)
    ident = GradedMap.identity(K, h.carrier)
    for k in range(ctx.n_even):
        assert h.cartan_mats[k] == ident * psi.values[k]


def test_module_relations_hold(K, q2):
    for which in ("C", "dual", "two"):
        ctx = ctx_over(K, q2, which)
        psi = PsiFunctional(ctx, [K.from_int(v % 3 - 1) for v in range(ctx.n_even)])
        if psi.is_zero():
            continue
        build_H(psi).as_lie_module().check()


def test_radical_acts_by_zero_and_square_rule(K, q2):
    # x^2 v = (1/2) psi([x, x]) v for odd x
    ctx = ctx_over(K, q2, "C")
    psi = PsiFunctional(ctx, [K.from_int(2), K.from_int(1)])
    h = build_H(psi)
    half = K.from_fraction(Fraction(1, 2))
    for i in range(ctx.n):
        x = h.cartan_mats[ctx.n_even + i * ctx.na]
        br = ctx.odd_bracket_even_coords(i, i)
        expect = half * psi.eval_even(br, {0: K.one()})
        sq = x * x
        assert sq == GradedMap.identity(K, h.carrier) * expect


def test_lemma_ideal_kill_property(K, q2):
    # for ideals I killed by psi, the odd part h1 (x) I acts by zero
    rng = random.Random(41)
    ctx = ctx_over(K, q2, "two")
    for _ in range(20):
        psi = PsiFunctional.evaluation(
            ctx, 0, [rng.randint(-3, 3), rng.randint(-3, 3)])
        if psi.is_zero():
            continue
        ideal = i_psi(psi)
        h = build_H(psi)
        for v in ideal.basis:
            a_coords = {j: s for j, s in enumerate(v) if not s.is_zero}
            for i in range(ctx.n):
                acc = GradedMap.zero(K, h.carrier, h.carrier)
                for j, ca in a_coords.items():
                    acc = acc + h.cartan_mats[ctx.n_even + i * ctx.na + j] * ca
                assert acc.is_zero


def test_pbw_dimension_bound(K, q2):
    ctx = ctx_over(K, q2, "dual")
    psi = PsiFunctional(ctx, [K.one(), K.from_int(2), K.zero(), K.one()])
    h = build_H(psi)
    n_odd = ctx.n * h.data.quotient.dim
    assert h.dim <= 2 ** n_odd
    assert h.dim == 2 ** -(-h.rank // 2)


def test_uniqueness_different_pivots(K, q2):
    ctx = ctx_over(K, q2, "C")
    psi = PsiFunctional(ctx, [K.one(), K.one()])
    h1 = build_H(psi)
    h2 = build_H(psi, pivot_order=[1, 0])
    ok, wit = is_isomorphic_flat(h1.as_lie_module(), h2.as_lie_module())
    assert ok and wit.rank() == h1.dim


@pytest.mark.parametrize("which", ["C", "dual", "two"])
def test_iso_witness_intertwines_rebuilt_module(which):
    """H(psi) against its rebuild with reversed pivots, for random psi as
    in the cartan-corpus benchmark: the witness is_isomorphic_flat returns,
    either way round, is invertible and satisfies T rho_M(g) = rho_N(g) T
    exactly for every generator g."""
    rng = random.Random(11)
    for _ in range(3):
        K = Tower()   # each build adjoins its own square roots
        ctx = ctx_over(K, build_q(K, 2), which)
        vals = [(0, 0)]
        while all(v == (0, 0) for v in vals):
            vals = [(rng.randint(-3, 3), rng.randint(-1, 1))
                    for _ in range(ctx.n_even)]
        psi = PsiFunctional(ctx, [K.from_int(x) + K.i() * y
                                  for x, y in vals])
        h = build_H(psi)
        h2 = build_H(psi, pivot_order=list(range(h.rank))[::-1] or None)
        m1, m2 = h.as_lie_module(), h2.as_lie_module()
        for m, n in ((m1, m2), (m2, m1)):
            ok, wit = is_isomorphic_flat(m, n)
            assert ok and wit.rank() == m.dim
            for rho_m, rho_n in zip(m.mats, n.mats):
                assert wit * rho_m == rho_n * wit


def test_phi_attached_for_odd_rank(K, q2):
    # over the base field the Gram determinant is -(4/3)(a^2+ab+b^2), so
    # rational weights give even rank; rank 1 appears at the cube-root
    # ratio b = a(-1+sqrt(-3))/2
    ctx = ctx_over(K, q2, "C")
    s = K.adjoin_sqrt(K.from_int(-3))
    found = PsiFunctional(ctx, [K.from_int(2), K.from_int(-1) + s])
    assert CliffordData(found).rank == 1
    h = build_H(found)
    assert h.phi is not None
    assert h.phi.parity == 1
    assert h.phi * h.phi == GradedMap.identity(K, h.carrier) * (-1)


@pytest.mark.parametrize("n,labels", [(4, (1, 1, 1, 1)), (3, (2, 1, 1)),
                                      (3, (3, 0, 0))])
def test_build_H_stays_over_gaussian_rationals(n, labels):
    """These forms are hyperbolic over Q(i), up to one line for odd rank,
    so the Witt model adjoins no square root; phi, read later, still
    squares to -id."""
    K = Tower()
    ctx = CartanAlgebra(build_q(K, n), preset_base_field(K))
    h = build_H(PsiFunctional(ctx, [K.from_int(v) for v in labels]))
    assert K.height == 0
    assert h.dim == 2 ** -(-h.rank // 2) == 4
    h.as_lie_module().check()
    if h.rank % 2:
        assert h.phi * h.phi == GradedMap.identity(K, h.carrier) * (-1)
    else:
        assert h.phi is None


def test_classify_cartan_module_roundtrip(K, q2):
    ctx = ctx_over(K, q2, "two")
    psi = PsiFunctional.evaluation(ctx, 0, [1, 1])
    h = build_H(psi)
    got, wit = classify_cartan_module(h.as_lie_module(), ctx)
    assert got == psi
    assert wit.rank() == h.dim
    # permuted-basis copy classifies identically
    mod = h.as_lie_module()
    perm = list(range(h.dim))
    perm.reverse()
    # keep parity blocks aligned: reverse within parities
    ne = h.carrier.even_dim
    perm = list(reversed(range(ne))) + [ne + k for k in
                                        reversed(range(h.dim - ne))]
    pm = [[K.one() if perm[i] == j else K.zero() for j in range(h.dim)]
          for i in range(h.dim)]
    pmap = GradedMap.from_rows(K, h.carrier, h.carrier, pm)
    inv = GradedMap.from_rows(K, h.carrier, h.carrier,
                              [[K.one() if perm[j] == i else K.zero()
                                for j in range(h.dim)] for i in range(h.dim)])
    twisted = WeightModule.from_flat(mod.algebra, h.carrier,
                                     [pmap * m * inv for m in mod.mats])
    got2, wit2 = classify_cartan_module(twisted, ctx)
    assert got2 == psi


def test_classify_cartan_module_over_a_double_point(K, q2):
    """Over K[t]/(t^2 (t - 1)) a functional with I_psi = 0 has rank 6, so
    H(psi) has dimension 8; classify recovers psi from the rebuild with
    reversed pivots, a different basis of the same module."""
    ctx = ctx_over(K, q2, "cusp")
    psi = PsiFunctional(ctx, [K.from_int(v) for v in (1, 1, 0, 0, 2, 1)])
    h = build_H(psi)
    assert (h.rank, h.dim) == (6, 8)
    mod = h.as_lie_module()
    mod.check()
    assert density_type_from_maps(mod.mats, mod.space, K).kind == "full"
    rebuilt = build_H(psi, pivot_order=list(range(h.rank))[::-1])
    got, wit = classify_cartan_module(rebuilt.as_lie_module(), ctx)
    assert got == psi
    assert wit.rank() == h.dim


def test_non_reduced_support_flagged(K, q2):
    # t-dependent functional over the dual numbers: the annihilator is the
    # zero ideal, whose radical is the maximal ideal, so the support is
    # finite but not reduced
    from queeralg.mapsuper import ann_and_support
    ctx = ctx_over(K, q2, "dual")
    # order is h-major: values on h1(x)1, h1(x)t, h2(x)1, h2(x)t
    psi = PsiFunctional(ctx, [K.one(), K.one(), K.zero(), K.zero()])
    h = build_H(psi)
    ann, supp, reduced = ann_and_support(h.as_lie_module(), ctx.ms)
    assert ann.dim == 0
    assert supp == [0]
    assert not reduced
    # the evaluation-style functional at t = 0 has reduced support instead
    psi0 = PsiFunctional(ctx, [K.one(), K.zero(), K.one(), K.zero()])
    ann0, supp0, reduced0 = ann_and_support(build_H(psi0).as_lie_module(),
                                            ctx.ms)
    assert ann0 == ctx.coeff.maximal_ideals[0]
    assert supp0 == [0] and reduced0


def test_classify_rejects_reducible(K, q2):
    ctx = ctx_over(K, q2, "C")
    psi = PsiFunctional(ctx, [K.one(), K.one()])
    h = build_H(psi)
    big = direct_sum_weight(h.as_lie_module(), h.as_lie_module())
    with pytest.raises(ValueError):
        classify_cartan_module(big, ctx)


# ---------------------------------------------------------------------------
# HModule from the Clifford generator maps alone
# ---------------------------------------------------------------------------


def psi_of_rank(r):
    """A functional of Clifford rank r (1 to 4) on its own tower."""
    K = Tower()
    if r == 3:
        ctx = CartanAlgebra(build_q(K, 3), preset_base_field(K))
        return PsiFunctional(ctx, [K.from_int(v) for v in (2, 1, 0)])
    q2 = build_q(K, 2)
    if r == 1:   # the cube-root ratio of test_phi_attached_for_odd_rank
        s = K.adjoin_sqrt(K.from_int(-3))
        return PsiFunctional(ctx_over(K, q2, "C"),
                             [K.from_int(2), K.from_int(-1) + s])
    if r == 2:
        return PsiFunctional(ctx_over(K, q2, "C"), [K.one(), K.zero()])
    return PsiFunctional(ctx_over(K, q2, "two"),
                         [K.from_int(v) for v in (-2, 1, 0, 2)])


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_hmodule_generators_are_clifford_irrep_generators(r):
    psi = psi_of_rank(r)
    tower = psi.ctx.tower
    for order in (None, list(range(r))[::-1]):
        h = build_H(psi, pivot_order=order)
        assert h.rank == r
        half = tower.from_fraction(Fraction(1, 2))
        pair = QuadraticPair(tower, [[half * x for x in row]
                                     for row in h.data.reduced_gram])
        carrier, gens = clifford_generators(pair, pivot_order=order)
        assert h.carrier == carrier
        assert [m.rows for m in h.generator_maps] == [m.rows for m in gens]


def test_build_H_never_builds_the_clifford_algebra(monkeypatch):
    def refuse(q):
        raise AssertionError("clifford() called")
    monkeypatch.setattr(assocsuper, "clifford", refuse)
    for r in (1, 2, 3, 4):
        h = build_H(psi_of_rank(r))
        assert h.dim == 2 ** -(-r // 2)
        h.as_lie_module().check()


def test_span_add_under_positional_wrapper(monkeypatch):
    """Span.add is wrapped from outside as add(span, vec), positional only
    (the traced benchmark counts its calls that way); build_H and the
    density oracle must run under such a wrapper."""
    add = Span.add
    calls = []

    def counted_add(span, vec):
        calls.append(1)
        return add(span, vec)
    monkeypatch.setattr(Span, "add", counted_add)
    h = build_H(psi_of_rank(4))
    before = len(calls)
    mod = h.as_lie_module()
    d = density_type_from_maps(mod.mats, mod.space, h.ctx.tower)
    assert d.kind == "full" and d.closure_dim == h.dim ** 2
    assert before > 0 and len(calls) > before


# ---------------------------------------------------------------------------
# The odd basis adapted to the points of A/I_psi
# ---------------------------------------------------------------------------


def _point_of(quotient, v):
    """The point x with e_x v = v, for v in one local piece e_x A/I."""
    found = [x for x, e in enumerate(quotient.idempotents)
             if quotient.product(e, v) == v]
    assert len(found) == 1
    return found[0]


@pytest.mark.parametrize("which,values", [
    ("two", (1, 2, -1, 1)),
    ("four", (1, 2, 0, -1, 3, 0, 1, 1)),
    ("cusp", (1, 1, 0, 0, 2, 1)),
])
def test_gram_is_block_diagonal_by_point(K, q2, which, values):
    """Each odd basis vector lies in one point's piece, the points come in
    declared order, and f_psi, evaluated here on every pair of them, is
    zero across points and equals the stored Gram within a point."""
    ctx = ctx_over(K, q2, which)
    psi = PsiFunctional(ctx, [K.from_int(v) for v in values])
    data = CliffordData(psi)
    quotient = data.quotient
    assert len(quotient.points) == len(ctx.coeff.points)
    points = [_point_of(quotient, v) for _, v in data.odd_basis]
    assert points == sorted(points)
    assert len(set(points)) == len(quotient.points)
    for a, (i1, v1) in enumerate(data.odd_basis):
        for b, (i2, v2) in enumerate(data.odd_basis):
            f = psi.eval_even(ctx.odd_bracket_even_coords(i1, i2),
                              quotient.lift(quotient.product(v1, v2)))
            assert data.gram[a].get(b, K.zero()) == f
            if points[a] != points[b]:
                assert f.is_zero
    # sparse rows: one per basis vector, no zero stored
    assert len(data.gram) == len(data.odd_basis)
    assert all(x.co and b < len(data.odd_basis)
               for row in data.gram for b, x in row.items())
    h = build_H(psi)
    assert h.rank == data.rank
    h.as_lie_module().check()


def test_one_point_quotient_computes_no_idempotent(K, q2, monkeypatch):
    """A quotient with one point (the base field, the dual numbers, psi
    supported at one of two points) keeps the monomial odd basis."""
    from queeralg.coeffalg import CoeffAlgebra, QuotientAlgebra

    def refuse(self):
        raise AssertionError("idempotents computed")
    monkeypatch.setattr(CoeffAlgebra, "idempotents", property(refuse))
    monkeypatch.setattr(QuotientAlgebra, "idempotents", property(refuse))
    cases = [("C", PsiFunctional(ctx_over(K, q2, "C"), [K.one(), K.zero()])),
             ("dual", PsiFunctional(ctx_over(K, q2, "dual"),
                                    [K.one(), K.one(), K.zero(), K.one()])),
             ("two", PsiFunctional.evaluation(ctx_over(K, q2, "two"), 1,
                                              [2, -1]))]
    for which, psi in cases:
        data = CliffordData(psi)
        nq = data.quotient.dim
        assert data.odd_basis == [(i, {j: K.one()}) for i in range(2)
                                  for j in range(nq)]
        build_H(psi).as_lie_module().check()


def test_two_point_tower_stays_at_height_two():
    """Work counter: 50 seeded functionals on q(2) (x) K[t]/(t^2 - 1),
    drawn as in the cartan-corpus benchmark.  With the odd basis split by
    point, every square root the Clifford generators adjoin is one point's
    square class, and the rebuild with reversed pivots finds the same
    classes, so the tower ends at height at most 2 (one root per point).
    On the monomial basis most of these inputs reached height 3."""
    heights = []
    for seed in range(50):
        rng = random.Random(seed)
        K = Tower()
        ctx = ctx_over(K, build_q(K, 2), "two")
        vals = [(0, 0)]
        while all(v == (0, 0) for v in vals):
            vals = [(rng.randint(-3, 3), rng.randint(-1, 1))
                    for _ in range(ctx.n_even)]
        psi = PsiFunctional(ctx, [K.from_int(x) + K.i() * y
                                  for x, y in vals])
        h = build_H(psi)
        build_H(psi, pivot_order=list(range(h.rank))[::-1] or None)
        heights.append(K.height)
    assert max(heights) <= 2


def test_clifford_data_built_once_per_psi(K, q2, monkeypatch):
    """A rebuild with other pivots reads the same CliffordData: I_psi,
    A/I_psi and the Gram are computed once per functional.  The cached
    data holds no reference back to psi, so psi is freed without the
    cycle collector."""
    import gc
    import weakref
    import queeralg.cartanmod as cartanmod
    calls = []

    def counted(psi):
        calls.append(1)
        return i_psi(psi)

    monkeypatch.setattr(cartanmod, "i_psi", counted)
    ctx = ctx_over(K, q2, "two")
    psi = PsiFunctional(ctx, [K.from_int(v) for v in (1, 2, -1, 3)])
    h = build_H(psi)
    h2 = build_H(psi, pivot_order=list(range(h.rank))[::-1])
    assert len(calls) == 1 and h2.data is h.data
    assert is_isomorphic_flat(h.as_lie_module(), h2.as_lie_module())[0]
    gc.disable()
    try:
        ref = weakref.ref(psi)
        del psi, h, h2
        assert ref() is None
    finally:
        gc.enable()


def test_top_block_and_quotient_fill_no_dense_matrix(refuse_zero_rows):
    """The work guard of the entry form: H(psi), its module, the truncated
    Verma module and the simple quotient fill no dense zero matrix in any
    queeralg module (every binding of zero_rows refuses; only graded binds
    it, behind the dense rows view of a GradedMap).  Two cases: q(6) with
    psi(h1) = 1, psi(h3) = 2 over the base field, and q(2) over two
    points with psi active at both, so that A/I_psi keeps both points and
    the Gram of CliffordData has one block per point."""
    from queeralg.hwmod import SimpleQuotient, TruncatedVerma
    from queeralg.mapsuper import tensor_lie
    K = Tower()
    qd = build_q(K, 6)
    ctx = CartanAlgebra(qd, preset_base_field(K))
    q6 = PsiFunctional.from_pairs(ctx, [["h1", "1", "1"], ["h3", "1", "2"]])
    ctx2 = ctx_over(K, build_q(K, 2), "two")
    two = PsiFunctional.evaluation(ctx2, 0, [1, 1]) + \
        PsiFunctional.evaluation(ctx2, 1, [2, 1])
    assert len(two.clifford_data.quotient.points) == 2
    for psi in (q6, two):
        h = build_H(psi)
        assert h.as_lie_module().dim == h.dim
        vm = TruncatedVerma(tensor_lie(psi.ctx.qd, psi.ctx.coeff), psi, 1)
        assert SimpleQuotient(vm).quot_dims
