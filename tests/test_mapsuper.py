import random

import pytest
from hypothesis import given, settings, strategies as st

from queeralg.coeffalg import (gamma_from_spec, preset_base_field,
                               preset_truncated)
from queeralg.graded import GradedMap, GradedSpace, Span, solve_right
from queeralg.liesuper import LieModule, subalgebra
from queeralg.mapsuper import (InvariantSub, ann_and_support,
                               ann_and_support_gamma, ev, ev_gamma_rank,
                               invariants, tensor_lie)
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
    # genuinely a subalgebra: bracket closure verified via reconstruction
    one = K.one()
    rng = random.Random(31)
    for _ in range(30):
        i, j = rng.randrange(16), rng.randrange(16)
        br = inv.algebra.bracket({i: one}, {j: one})
        amb = ms.algebra.bracket(
            {k: v for k, v in enumerate(inv.basis_vectors[i]) if not v.is_zero},
            {k: v for k, v in enumerate(inv.basis_vectors[j]) if not v.is_zero})
        assert inv.embed(br) == amb


def test_ev_two_points(K, q2):
    a = two_point(K)
    ms = tensor_lie(q2, a)
    emap = ev(ms, [0, 1])
    assert emap.rank() == 32
    assert emap.is_surjective()
    assert emap.kernel_matches_product_ideal()
    single = ev(ms, [0])
    assert single.rank() == 16
    assert single.kernel_matches_product_ideal()
    with pytest.raises(ValueError):
        ev(ms, [0, 0])


def test_ev_composes_with_crt(K, q2):
    # evaluation at both points = pair of single-point evaluations
    a = two_point(K)
    ms = tensor_lie(q2, a)
    both = ev(ms, [0, 1])
    e0, e1 = ev(ms, [0]), ev(ms, [1])
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
    assert ev_gamma_rank(inv, [0]) == 16
    with pytest.raises(ValueError):
        ev_gamma_rank(inv, [0, 1])  # same orbit


def trivial_module(K, algebra):
    sp = GradedSpace(1, 0)
    return LieModule(algebra, sp, [GradedMap.zero(K, sp, sp)] * algebra.dim)


def test_ann_trivial_module(K, q2):
    a = two_point(K)
    ms = tensor_lie(q2, a)
    ann, supp, reduced = ann_and_support(trivial_module(K, ms.algebra), ms)
    assert ann.dim == a.dim and supp == [] and reduced


def test_ann_ev_module(K, q2):
    # pull the adjoint back through evaluation at t = 1
    a = two_point(K)
    ms = tensor_lie(q2, a)
    one = K.one()
    ad_mats = [GradedMap(K, q2.space, q2.space, q2.algebra.ad_rows(i))
               for i in range(16)]
    emap = ev(ms, [0])
    mats = []
    for idx in range(ms.dim):
        img = emap.apply({idx: one})
        acc = GradedMap.zero(K, q2.space, q2.space)
        for xk, c in img.items():
            acc = acc + ad_mats[xk] * c
        mats.append(acc)
    mod = LieModule(ms.algebra, q2.space, mats)
    ann, supp, reduced = ann_and_support(mod, ms)
    assert supp == [0] and reduced
    assert ann == a.maximal_ideals[0]


def test_ann_gamma(K, q2):
    a = two_point(K)
    ms = tensor_lie(q2, a)
    act = flip_action(K, a, q2, {"type": "diag_conj", "diag": ["1", "1", "-1"]})
    inv = invariants(ms, act)
    ann, supp, reduced = ann_and_support_gamma(trivial_module(K, inv.algebra), inv)
    assert ann.dim == a.dim and supp == [] and reduced


@pytest.fixture(scope="module")
def twisted4():
    """Invariants of q(2) (x) K[t]/(t^4 - 16) under t -> -t with
    diag_conj (1, 1, -1)."""
    K = Tower()
    q2 = build_q(K, 2)
    a = preset_truncated(
        K, [K.from_int(-16), K.zero(), K.zero(), K.zero(), K.one()],
        [(K.from_int(2), 1), (K.from_int(-2), 1), (K.from_qi(0, 2), 1),
         (K.from_qi(0, -2), 1)])
    ms = tensor_lie(q2, a)
    act = flip_action(K, a, q2, {"type": "diag_conj", "diag": ["1", "1", "-1"]})
    return K, invariants(ms, act)


def small_qi(K):
    return st.one_of(st.just(K.zero()),
                     st.builds(K.from_qi, st.integers(-3, 3),
                               st.integers(-2, 2), st.sampled_from([1, 2])))


def test_invariant_basis_must_be_rref(twisted4):
    K, inv = twisted4
    b = inv.basis_vectors
    for bad in ([[x * K.from_int(2) for x in b[0]]] + b[1:],
                [[x + y for x, y in zip(b[0], b[1])]] + b[1:]):
        with pytest.raises(ValueError):
            InvariantSub(inv.parent, inv.act, inv.algebra, bad,
                         inv.gamma_report)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_coords_of_inverts_embed(twisted4, data):
    K, inv = twisted4
    c = data.draw(st.lists(small_qi(K), min_size=inv.dim, max_size=inv.dim))
    assert inv.coords_of(inv.embed(dict(enumerate(c)))) == c


def test_coords_of_rejects_non_invariant(twisted4):
    K, inv = twisted4
    sp = Span(K, inv.basis_vectors)
    inside = [k for k in range(inv.parent.dim) if sp.contains({k: K.one()})]
    outside = [k for k in range(inv.parent.dim) if k not in inside]
    assert outside
    assert all(inv.coords_of({k: K.one()}) is None for k in outside)
    assert all(inv.coords_of({k: K.one()}) is not None for k in inside)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_coords_of_matches_solve_right(twisted4, data):
    K, inv = twisted4
    n = inv.parent.dim
    c = data.draw(st.lists(small_qi(K), min_size=inv.dim, max_size=inv.dim))
    noise = data.draw(st.dictionaries(st.integers(0, n - 1), small_qi(K),
                                      max_size=2))
    vec = inv.embed(dict(enumerate(c)))
    for k, v in noise.items():
        vec[k] = vec.get(k, K.zero()) + v
    vec = {k: v for k, v in vec.items() if not v.is_zero}
    rows = [[b[i] for b in inv.basis_vectors] for i in range(n)]
    dense = [vec.get(k, K.zero()) for k in range(n)]
    assert inv.coords_of(vec) == solve_right(rows, dense, inv.dim, K)
