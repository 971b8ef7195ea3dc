import random

import pytest

from queeralg.cartanmod import CartanAlgebra, PsiFunctional, build_H
from queeralg.coeffalg import (IdealRep, gamma_from_spec, preset_base_field,
                               preset_truncated, radical, support)
from classify_ref import reference_rows
from dense_ref import ad_map, mat_mul, rank, sparse
from queeralg.graded import GradedMap, GradedSpace, mat_kernel
from queeralg.liesuper import (LieSuper, WeightModule, basis_subalgebra,
                               subalgebra)
from queeralg.mapsuper import (EvMap, ann_and_support, ev_rank,
                               gamma_element_action, invariants, tensor_lie)
from queeralg.products import Catalog, classify_enumerate
from queeralg.queer import build_q
from queeralg.scalars import Tower


@pytest.fixture
def K():
    return Tower()


@pytest.fixture
def q2(K):
    return build_q(K, 2)


def two_point(K):
    return preset_truncated(K, [-K.one(), K.zero(), K.one()],
                            [(K.one(), 1), (-K.one(), 1)])


def flip_action(K, a, qd, q_action=None):
    on_q = q_action or {"type": "trivial"}
    return gamma_from_spec(K, {"generators": [
        {"order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": on_q}]}, a, qd)


def test_tensor_dims(K, q2):
    assert tensor_lie(q2, preset_base_field(K)).dim == 16
    dual = preset_truncated(K, [K.zero(), K.zero(), K.one()], [(K.zero(), 2)])
    assert tensor_lie(q2, dual).dim == 32
    one = K.one()
    h, _ = subalgebra(q2.algebra, [{i: one} for i in q2.cartan_indices], name="h")
    assert tensor_lie(h, two_point(K)).dim == 8


def test_tensor_bracket_identity(K, q2):
    a = two_point(K)
    ms = tensor_lie(q2, a)
    one = K.one()
    rng = random.Random(23)
    # [x1 (x) f1, x2 (x) f2] = [x1,x2] (x) f1 f2 on sampled basis pairs
    for _ in range(60):
        xi, xk = rng.randrange(16), rng.randrange(16)
        aj, al = rng.randrange(2), rng.randrange(2)
        lhs = ms.algebra.bracket({ms.pair_index[(xi, aj)]: one},
                                 {ms.pair_index[(xk, al)]: one})
        rhs = ms.embed_g(q2.algebra.bk[xi][xk],
                         a.product({aj: one}, {al: one}))
        assert lhs == rhs


def test_tensor_jacobi_spot_checks(K, q2):
    ms = tensor_lie(q2, two_point(K))
    rng = random.Random(5)
    triples = [(rng.randrange(32), rng.randrange(32), rng.randrange(32))
               for _ in range(40)]
    ms.algebra.check(triples=triples)


# -- the setup shortcuts of tensor_lie, MapSuper.gen_root and CartanAlgebra,
# each against the computation it replaced

SHORTCUT_K = Tower()


@pytest.fixture(scope="module")
def queers():
    with pytest.warns(UserWarning, match="not simple"):
        q1 = build_q(SHORTCUT_K, 1)
    return {1: q1, **{n: build_q(SHORTCUT_K, n) for n in (2, 3, 4)}}


def shortcut_algebra(name):
    """The coefficient algebras of the shortcut tests.  t^4 - 16 and
    t^2 (t - 1) give products with coefficients other than 1 (t^4 = 16)
    and products that are other basis elements (t^3 = t^2); t^2 - t - 2
    gives products with several terms (t^2 = t + 2)."""
    K = SHORTCUT_K
    one, zero, f = K.one(), K.zero(), K.from_int
    if name == "base":
        return preset_base_field(K)
    modulus, roots = {
        "dual": ([zero, zero, one], [(zero, 2)]),
        "two_point": ([-one, zero, one], [(one, 1), (-one, 1)]),
        "t4-16": ([f(-16), zero, zero, zero, one],
                  [(f(2), 1), (f(-2), 1), (f(2) * K.i(), 1),
                   (f(-2) * K.i(), 1)]),
        "t2(t-1)": ([zero, zero, -one, one], [(zero, 2), (one, 1)]),
        "t2-t-2": ([f(-2), -one, one], [(f(2), 1), (-one, 1)]),
    }[name]
    return preset_truncated(K, modulus, roots)


SHORTCUT_ALGEBRAS = ["base", "dual", "two_point", "t4-16", "t2(t-1)",
                     "t2-t-2"]


def multiply_every_entry(g, coeff):
    """Reference for tensor_lie: every entry of every bracket of g times
    every term of every product of A, on Scalars."""
    one = g.tower.one()
    na = coeff.dim
    dim = g.dim * na
    bk = [[{} for _ in range(dim)] for _ in range(dim)]
    for xi in range(g.dim):
        for aj in range(na):
            for xk in range(g.dim):
                for al in range(na):
                    fprod = coeff.product({aj: one}, {al: one})
                    out = {}
                    for xt, s in g.bk[xi][xk].items():
                        for at, sa in fprod.items():
                            v = s * sa
                            if not v.is_zero:
                                out[xt * na + at] = v
                    bk[xi * na + aj][xk * na + al] = out
    return bk


def _items(bk):
    return [[list(d.items()) for d in row] for row in bk]


@pytest.mark.parametrize("alg", SHORTCUT_ALGEBRAS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tensor_lie_matches_entrywise_product(queers, n, alg):
    qd, coeff = queers[n], shortcut_algebra(alg)
    ms = tensor_lie(qd, coeff)
    assert _items(ms.algebra.bk) == _items(multiply_every_entry(qd.algebra,
                                                                coeff))
    if alg == "base":
        # the base field shares q's table
        assert ms.algebra.bk is qd.algebra.bk


@pytest.mark.parametrize("alg", ["base", "t4-16"])
def test_bracket_table_is_built_on_first_read(queers, alg):
    """tensor_lie builds no bracket table; the first read of
    MapSuper.algebra builds the eager construction's table, entry by
    entry and in key order, once.  Over the base field it is q's table
    relabeled, with q's generators; otherwise every basis element is a
    generator and the triangular split is carried over g-major."""
    qd, coeff = queers[2], shortcut_algebra(alg)
    ms = tensor_lie(qd, coeff)
    assert "algebra" not in vars(ms)
    assert ms.dim == len(ms.pair_index) == qd.dim * coeff.dim
    table = ms.algebra
    assert vars(ms)["algebra"] is table and ms.algebra is table
    assert _items(table.bk) == _items(multiply_every_entry(qd.algebra,
                                                           coeff))
    assert table.dim == ms.dim
    assert table.space.labels == tuple(
        f"{qd.space.labels[x]}(x){coeff.space.labels[a]}"
        for x, a in ms.pair_index)
    na = coeff.dim
    assert table.triangular == tuple(
        [x * na + j for x in part for j in range(na)]
        for part in qd.algebra.triangular)
    if alg == "base":
        assert table.bk is qd.algebra.bk
        assert table.generators == qd.algebra.generators
    else:
        assert list(table.generators) == list(range(ms.dim))


@pytest.mark.parametrize("alg", SHORTCUT_ALGEBRAS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gen_root_matches_weight_of(queers, n, alg):
    qd = queers[n]
    ms = tensor_lie(qd, shortcut_algebra(alg))
    one = SHORTCUT_K.one()
    assert list(ms.gen_root) == list(range(ms.dim))
    for (x, _), idx in ms.pair_index.items():
        assert ms.gen_root[idx] == qd.weight_of({x: one})


@pytest.mark.parametrize("alg", SHORTCUT_ALGEBRAS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cartan_table_matches_subalgebra_solve(queers, n, alg):
    qd = queers[n]
    one = SHORTCUT_K.one()
    ref, _ = subalgebra(qd.algebra, [{i: one} for i in qd.cartan_indices],
                        name="h")
    h = CartanAlgebra(qd, shortcut_algebra(alg)).h
    assert _items(h.bk) == _items(ref.bk)
    assert h.space.parities == ref.space.parities


def test_basis_subalgebra_rejects_a_span_that_is_not_closed(queers):
    qd = queers[2]
    # [e[1,2], e[2,1]] = h1 is outside the span of the two root vectors
    with pytest.raises(ValueError, match="do not span a subalgebra"):
        basis_subalgebra(qd.algebra, [qd.index["e[1,2]"], qd.index["e[2,1]"]])
    with pytest.raises(ValueError, match="even-first"):
        basis_subalgebra(qd.algebra, qd.h1_indices + qd.h0_indices)


def test_invariants_trivial_group(K, q2):
    from queeralg.coeffalg import GammaAction
    ms = tensor_lie(q2, two_point(K))
    inv = invariants(ms, GammaAction(K, []))
    assert inv.dim == 32


def test_invariants_flip_trivial_on_q(K, q2):
    a = two_point(K)
    ms = tensor_lie(q2, a)
    inv = invariants(ms, flip_action(K, a, q2))
    assert inv.dim == 16  # q (x) span{1}
    inv.algebra.check(triples=[])  # grading/skew sweep only


def test_invariants_flip_with_conjugation(K, q2):
    a = two_point(K)
    ms = tensor_lie(q2, a)
    act = flip_action(K, a, q2, {"type": "diag_conj", "diag": ["1", "1", "-1"]})
    inv = invariants(ms, act)
    # q^sigma (x) 1 + q^{-sigma} (x) t: dims 8 + 8
    assert inv.dim == 16
    # the lazily built Lie structure: its bracket, mapped back through the
    # basis, is the ambient bracket
    one = K.one()
    basis = inv.basis_vectors()

    def embed(coords):
        out = {}
        for i, c in coords.items():
            for k, v in basis[i].items():
                out[k] = out.get(k, K.zero()) + c * v
        return {k: v for k, v in out.items() if not v.is_zero}

    rng = random.Random(31)
    for _ in range(30):
        i, j = rng.randrange(16), rng.randrange(16)
        br = inv.algebra.bracket({i: one}, {j: one})
        assert embed(br) == ms.algebra.bracket(basis[i], basis[j])


def test_ev_two_points(K, q2):
    a = two_point(K)
    ms = tensor_lie(q2, a)
    emap = EvMap(ms, [0, 1])
    assert rank(emap.cols.values(), emap.dim, K) == emap.dim == 32
    single = EvMap(ms, [0])
    assert rank(single.cols.values(), single.dim, K) == 16
    with pytest.raises(ValueError):
        EvMap(ms, [0, 0])


def test_ev_composes_with_crt(K, q2):
    # evaluation at both points = pair of single-point evaluations
    a = two_point(K)
    ms = tensor_lie(q2, a)
    both = EvMap(ms, [0, 1])
    e0, e1 = EvMap(ms, [0]), EvMap(ms, [1])
    one = K.one()
    for idx in range(ms.dim):
        img = both.apply({idx: one})
        img0 = e0.apply({idx: one})
        img1 = e1.apply({idx: one})
        expect = dict(img0)
        expect.update({k + 16: v for k, v in img1.items()})
        assert img == expect


def test_ev_gamma_surjectivity(K, q2):
    a = two_point(K)
    ms = tensor_lie(q2, a)
    act = flip_action(K, a, q2, {"type": "diag_conj", "diag": ["1", "1", "-1"]})
    inv = invariants(ms, act)
    assert ev_rank(ms, [0], inv.averaged) == 16


def trivial_module(K, algebra):
    sp = GradedSpace(1, 0)
    return WeightModule.from_flat(algebra, sp,
                                  [GradedMap.zero(K, sp, sp)] * algebra.dim)


def test_ann_trivial_module(K, q2):
    a = two_point(K)
    ms = tensor_lie(q2, a)
    ann, supp, reduced = ann_and_support(trivial_module(K, ms.algebra), ms)
    assert ann.dim == a.dim and supp == [] and reduced


def adjoint_at_point(K, q2, ms, point):
    """The adjoint of q(2) pulled back through evaluation at a point."""
    one = K.one()
    ad_mats = [ad_map(q2.algebra, i) for i in range(16)]
    emap = EvMap(ms, [point])
    mats = []
    for idx in range(ms.dim):
        img = emap.apply({idx: one})
        acc = GradedMap.zero(K, q2.space, q2.space)
        for xk, c in img.items():
            acc = acc + ad_mats[xk] * c
        mats.append(acc)
    return WeightModule.from_flat(ms.algebra, q2.space, mats)


def test_ann_ev_module(K, q2):
    # pull the adjoint back through evaluation at t = 1
    a = two_point(K)
    ms = tensor_lie(q2, a)
    mod = adjoint_at_point(K, q2, ms, 0)
    ann, supp, reduced = ann_and_support(mod, ms)
    assert supp == [0] and reduced
    assert ann == a.maximal_ideals[0]


def test_ann_gamma(K, q2):
    a = two_point(K)
    ms = tensor_lie(q2, a)
    act = flip_action(K, a, q2, {"type": "diag_conj", "diag": ["1", "1", "-1"]})
    inv = invariants(ms, act)
    ann, supp, reduced = ann_and_support(trivial_module(K, ms.algebra), ms,
                                         inv.averaged)
    assert ann.dim == a.dim and supp == [] and reduced


def four_point(K, r):
    return preset_truncated(
        K, [K.from_int(-r ** 4), K.zero(), K.zero(), K.zero(), K.one()],
        [(K.from_int(r), 1), (K.from_int(-r), 1), (K.from_qi(0, r), 1),
         (K.from_qi(0, -r), 1)])


def _invariants_of(case):
    """(K, ms, inv) for the two-point flip (t -> -t), twisted4 (t -> -t on
    K[t]/(t^4 - 16)) and Z/4 (t -> i t on K[t]/(t^4 - 81)) actions, each
    with diag_conj (1, 1, -1) on q(2)."""
    K = Tower()
    q2 = build_q(K, 2)
    r, order, scale = {"flip": (None, 2, "-1"), "twisted4": (2, 2, "-1"),
                       "z4": (3, 4, "i")}[case]
    a = two_point(K) if r is None else four_point(K, r)
    ms = tensor_lie(q2, a)
    act = gamma_from_spec(K, {"generators": [
        {"order": order,
         "on_algebra": {"type": "substitute_t", "scale": scale},
         "on_q": {"type": "diag_conj", "diag": ["1", "1", "-1"]}}]}, a, q2)
    return K, ms, invariants(ms, act)


def _apply(cols, vec: dict) -> dict:
    """The image of a sparse vector under a gamma_element_action."""
    out = {}
    for idx, c in vec.items():
        for k, v in cols[idx].items():
            out[k] = out[k] + c * v if k in out else c * v
    return {k: v for k, v in out.items() if not v.is_zero}


def _actions(ms, inv):
    return [gamma_element_action(ms, a_map, q_map)
            for a_map, q_map in inv.act.elements]


def _dense_element_action(ms, arows, qrows) -> dict:
    """The dense Kronecker formula of the diagonal action on g (x) A: the
    image of x_i (x) a_j is sum over (k, l) of q[k][i] a[l][j]
    x_k (x) a_l, read entry by entry off dense matrices."""
    cols = {}
    for (xi, aj), idx in ms.pair_index.items():
        out = {}
        for xk in range(ms.g.dim):
            cq = qrows[xk][xi]
            if cq.is_zero:
                continue
            for al in range(ms.coeff.dim):
                ca = arows[al][aj]
                if not ca.is_zero:
                    out[ms.pair_index[(xk, al)]] = cq * ca
        cols[idx] = out
    return cols


@pytest.mark.parametrize("case", ["flip", "twisted4", "z4"])
def test_gamma_element_action_matches_dense_kronecker(case):
    """Every group element is the matching power of the generator, as dense
    matrix products, and its action paired from entries equals the dense
    Kronecker formula."""
    K, ms, inv = _invariants_of(case)
    (order, a_gen, q_gen), = inv.act.generators
    assert len(inv.act.elements) == order
    apow, qpow = GradedMap.identity(K, a_gen.source).rows, \
        GradedMap.identity(K, q_gen.source).rows
    for a_map, q_map in inv.act.elements:
        assert (a_map.rows, q_map.rows) == (apow, qpow)
        assert a_map.parity == q_map.parity == 0
        assert gamma_element_action(ms, a_map, q_map) == \
            _dense_element_action(ms, apow, qpow)
        apow = mat_mul(a_gen.rows, apow, K)
        qpow = mat_mul(q_gen.rows, qpow, K)


@pytest.mark.parametrize("case,dim", [("flip", 16), ("twisted4", 32),
                                      ("z4", 16)])
def test_invariant_span_is_a_graded_fixed_subalgebra(case, dim):
    """Every RREF basis vector of the invariants is homogeneous and fixed
    by every group element, and the ambient bracket of any two lies in
    the span."""
    K, ms, inv = _invariants_of(case)
    assert inv.dim == dim
    basis = inv.basis_vectors()
    actions = _actions(ms, inv)
    for vec in basis:
        assert len({ms.algebra.space.parity(k) for k in vec}) == 1
        assert all(_apply(cols, vec) == vec for cols in actions)
    for u in basis:
        for v in basis:
            assert inv.span.contains(ms.algebra.bracket(u, v))


def test_coords_of_rejects_non_invariant():
    """A unit vector lies in the span of the invariants exactly when every
    group element fixes it, and some do not."""
    K, ms, inv = _invariants_of("twisted4")
    one = K.one()
    actions = _actions(ms, inv)
    inside = [k for k in range(ms.dim)
              if all(_apply(cols, {k: one}) == {k: one} for cols in actions)]
    assert 0 < len(inside) < ms.dim
    assert all(inv.span.contains({k: one}) == (k in inside)
               for k in range(ms.dim))


# ---------------------------------------------------------------------------
# Annihilators against the direct construction
# ---------------------------------------------------------------------------


def _oracle_rows(module, ms, element):
    """Rows of the direct construction: for every x in g and basis b of
    A, the operator entries of element(x, b a_j) as functions of a."""
    K = ms.tower
    na = ms.coeff.dim
    one = K.one()
    rows = []
    for xi in range(ms.g.dim):
        for b in range(na):
            mats = [module.op_entries(element(
                ms.embed_g({xi: one}, ms.coeff.product({b: one}, {j: one}))))
                for j in range(na)]
            keys = dict.fromkeys(k for mset in mats for k in mset)
            for key in keys:
                rows.append([mset.get(key, K.zero()) for mset in mats])
    ann = IdealRep(ms.coeff, mat_kernel([sparse(r) for r in rows], na, K))
    return ann, support(ann), radical(ann) == ann


def oracle_ann(module, ms):
    """Ann = {a : rho(x (x) b a) = 0 for all x, b}, one operator per
    (x, b, a_j): dim g (dim A)^2 operators."""
    return _oracle_rows(module, ms, lambda coords: coords)


def oracle_ann_gamma(module, inv):
    """The same through the averaging projector onto the invariants, for
    a module over g (x) A: each averaged element is checked invariant and
    applied in g (x) A coordinates."""
    ms = inv.parent
    K = ms.tower
    elements = inv.act.elements
    actions = [gamma_element_action(ms, a_map, q_map)
               for a_map, q_map in elements]
    scale = K.from_int(len(elements)).inv()

    def element(coords):
        avg = {}
        for cols in actions:
            for idx, c in coords.items():
                for k, v in cols[idx].items():
                    avg[k] = avg.get(k, K.zero()) + c * v
        avg = {k: v * scale for k, v in avg.items() if not v.is_zero}
        assert inv.span.contains(avg)
        return avg

    return _oracle_rows(module, ms, element)


def assert_same_ann(got, want):
    assert got[0].basis == want[0].basis
    assert (got[1], got[2]) == (want[1], want[2])


def test_ann_matches_oracle_on_small_modules(K, q2):
    a = two_point(K)
    ms = tensor_lie(q2, a)
    for mod in (trivial_module(K, ms.algebra),
                adjoint_at_point(K, q2, ms, 0),
                adjoint_at_point(K, q2, ms, 1)):
        assert_same_ann(ann_and_support(mod, ms), oracle_ann(mod, ms))
    act = flip_action(K, a, q2, {"type": "diag_conj", "diag": ["1", "1", "-1"]})
    inv = invariants(ms, act)
    mod = trivial_module(K, ms.algebra)
    assert_same_ann(ann_and_support(mod, ms, inv.averaged),
                    oracle_ann_gamma(mod, inv))


def test_ann_matches_oracle_on_dual_cartan_modules(K, q2):
    ctx = CartanAlgebra(q2, preset_truncated(
        K, [K.zero(), K.zero(), K.one()], [(K.zero(), 2)]))
    for values in ([1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]):
        psi = PsiFunctional(ctx, [K.from_int(v) for v in values])
        mod = build_H(psi).as_lie_module()
        assert_same_ann(ann_and_support(mod, ctx.ms),
                        oracle_ann(mod, ctx.ms))


def test_ann_is_the_largest_ideal_inside_J(K):
    """A 1-dim module of the abelian g (x) K[t]/(t^2 - 1) that kills
    g (x) 1 but not g (x) t: J = {a : rho(x (x) a) = 0} is span{1}, which
    is no ideal, and Ann, the largest ideal inside J, is 0."""
    g = LieSuper(K, GradedSpace(1, 0), [[{}]], name="abelian")
    a = two_point(K)
    ms = tensor_lie(g, a)
    sp = GradedSpace(1, 0)
    mats = [None] * ms.dim
    mats[ms.pair_index[(0, 0)]] = GradedMap.zero(K, sp, sp)
    mats[ms.pair_index[(0, 1)]] = GradedMap.identity(K, sp)
    mod = WeightModule.from_flat(ms.algebra, sp, mats)
    got = ann_and_support(mod, ms)
    assert got[0].dim == 0 and got[1] == [0, 1] and got[2]
    assert_same_ann(got, oracle_ann(mod, ms))


@pytest.mark.parametrize("r", [None, 2, 3, 4])
def test_classify_annihilators_match_oracle(r):
    """Every row of twisted classify at r = 2, 3, 4 (q(2) over
    K[t]/(t^4 - r^4), t -> -t with diag_conj (1, 1, -1)) and of the
    untwisted two-point classify: the reference construction's
    annihilator of the row it builds over g (x) A is the oracle's, with
    no pullback between them, and classify's row reads the same
    annihilator, support and reducedness."""
    K = Tower()
    q2 = build_q(K, 2)
    a = two_point(K) if r is None else four_point(K, r)
    ms = tensor_lie(q2, a)
    inv = None if r is None else invariants(ms, flip_action(
        K, a, q2, {"type": "diag_conj", "diag": ["1", "1", "-1"]}))
    cat = Catalog(q2)
    rows = classify_enumerate(ms, cat, inv=inv)["rows"]
    ref = reference_rows(ms, cat, inv)
    assert len(rows) == len(ref) == 4
    for row, (_, module, got) in zip(rows, ref):
        assert module.algebra is ms.algebra
        assert_same_ann(got, oracle_ann(module, ms) if inv is None
                        else oracle_ann_gamma(module, inv))
        assert row.ann_basis == [[str(x) for x in v] for v in got[0].basis]
        assert (row.support, row.reduced) == got[1:]
