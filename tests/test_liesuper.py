from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from classify_ref import row_module
from dense_ref import ad_map
from queeralg.assocsuper import make_M, make_Q
from queeralg.coeffalg import preset_truncated
from queeralg.graded import GradedMap, GradedSpace
from queeralg.liesuper import (LieSuper, WeightModule, derived_series,
                               direct_sum, from_assoc, ideal_closure,
                               is_simple, is_solvable, subalgebra)
from queeralg.mapsuper import tensor_lie
from queeralg.queer import build_q
from queeralg.scalars import Tower


@pytest.fixture
def K():
    return Tower()


def abelian(K, even, odd=0):
    space = GradedSpace(even, odd)
    bk = [[{} for _ in range(even + odd)] for _ in range(even + odd)]
    return LieSuper(K, space, bk, name="abelian")


def test_from_assoc_gl11(K):
    g = from_assoc(make_M(K, 1, 1))
    assert g.dim == 4
    g.check()


def test_from_assoc_scalars_abelian(K):
    g = from_assoc(make_M(K, 1, 0))
    assert g.dim == 1 and g.is_abelian()


def test_from_assoc_q2_is_qhat1(K):
    g = from_assoc(make_Q(K, 2))
    assert g.dim == 8
    g.check()


def test_from_assoc_matches_supercommutator(K):
    import random
    rng = random.Random(17)
    a = make_M(K, 1, 1)
    g = from_assoc(a)
    for _ in range(50):
        u = {rng.randrange(4): K.from_int(rng.randint(-3, 3))}
        v = {rng.randrange(4): K.from_int(rng.randint(-3, 3))}
        sgn = -1 if (a.space.parity(next(iter(u))) and a.space.parity(next(iter(v)))) else 1
        direct = dict(a.product(u, v))
        for k, s in a.product(v, u).items():
            cur = direct.get(k, K.zero())
            nxt = cur - s if sgn > 0 else cur + s
            if nxt.is_zero:
                direct.pop(k, None)
            else:
                direct[k] = nxt
        assert g.bracket(u, v) == direct


def test_solvability(K):
    assert is_solvable(abelian(K, 3))
    qd = build_q(K, 2)
    assert not is_solvable(qd.algebra)
    # derived series of q(2) stabilizes at q(2) itself (perfect)
    ser = derived_series(qd.algebra)
    assert len(ser[-1]) == 16
    # strictly upper triangular part is nilpotent, hence solvable
    one = K.one()
    npos, _ = subalgebra(qd.algebra, [{i: one} for i in qd.npos_indices])
    assert is_solvable(npos)
    # q(2) (x) tJ inside q(2) (x) C[t]/(t^2)
    ga = tensor_lie(qd.algebra, preset_truncated(
        K, [K.zero(), K.zero(), K.one()], [(K.zero(), 2)]))
    sub, _ = subalgebra(ga.algebra,
                        [{ga.pair_index[(x, 1)]: one} for x in range(16)])
    assert is_solvable(sub)
    # one odd x with [x, x] = 2h, h central even
    bk = [[{} for _ in range(2)] for _ in range(2)]
    bk[1][1] = {0: K.from_int(2)}
    g = LieSuper(K, GradedSpace(1, 1), bk)
    g.check()
    assert is_solvable(g)


def test_ideal_closure(K):
    g = abelian(K, 3)
    one = K.one()
    line = ideal_closure(g, [{1: one}])
    assert len(line) == 1
    # idempotent and monotone
    again = ideal_closure(g, line)
    assert again == line
    bigger = ideal_closure(g, [{1: one}, {2: one}])
    assert len(bigger) == 2


def test_is_simple(K):
    from queeralg.queer import build_q_tilde
    assert is_simple(build_q(K, 2).algebra)
    with pytest.warns(UserWarning):
        build_q(K, 1)
    assert not is_simple(build_q_tilde(K, 1))
    assert not is_simple(abelian(K, 2))


def test_direct_sum(K):
    g1 = from_assoc(make_Q(K, 1))
    g2 = from_assoc(make_Q(K, 1))
    g = direct_sum(g1, g2)
    assert g.dim == 4
    g.check()
    one = K.one()
    assert not g.bracket({0: one}, {2: one})  # summands commute


def test_lie_module_check(K):
    qd = build_q(K, 2)
    adj = [ad_map(qd.algebra, i) for i in range(16)]
    mod = WeightModule.from_flat(qd.algebra, qd.space, adj)
    mod.check()
    bad = WeightModule.from_flat(qd.algebra, qd.space, [adj[0] * 2] + adj[1:])
    with pytest.raises(AssertionError, match="module relation fails"):
        bad.check()


# -- maximal_weights against the pairwise comparison it replaced

def pairwise_maximal_weights(m):
    """Reference: the pairwise comparison of WeightModule.maximal_weights
    that integer coordinates replaced."""
    out = []
    for w in m.weights:
        dominated = False
        for w2 in m.weights:
            if w2 == w:
                continue
            delta = tuple(a - b for a, b in zip(w2, w))
            dec = m.qd.roots.decompose_qplus(delta)
            if dec is not None and any(dec):
                dominated = True
                break
        if not dominated:
            out.append(w)
    return out


MW = Tower()
SQRT2 = MW.adjoin_sqrt(MW.from_int(2))


@pytest.fixture(scope="module")
def mw_queers():
    return {n: build_q(MW, n) for n in (2, 3)}


def test_maximal_weights_match_pairwise_on_classify_rows():
    from queeralg.coeffalg import preset_truncated
    from queeralg.products import Catalog, _assignments
    K = Tower()
    q2 = build_q(K, 2)
    a = preset_truncated(K, [-K.one(), K.zero(), K.one()],
                         [(K.one(), 1), (-K.one(), 1)])
    ms = tensor_lie(q2, a)
    catalog = Catalog(q2)
    for assign in _assignments([[0], [1]], catalog.names()):
        module, _ = row_module(ms, assign, catalog)
        assert module.maximal_weights() == pairwise_maximal_weights(module)


# entries of a class's base weight: integers, a fraction, Gaussian
# rationals and an element outside Q(i)
_BASE_ENTRIES = [MW.from_int(0), MW.from_int(1), MW.from_int(-2),
                 MW.from_fraction(Fraction(1, 3)), MW.i(), MW.one() + MW.i(),
                 SQRT2]
# simple-root multiplicities, some fractional (incomparable shifts)
_MULTS = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2),
          Fraction(3, 2), Fraction(-1)]


@settings(max_examples=60)
@given(n=st.sampled_from([2, 3]), data=st.data())
def test_maximal_weights_match_pairwise_on_random_weights(mw_queers, n,
                                                          data):
    qd = mw_queers[n]
    alphas = [qd.roots.root_tuple((k, k + 1)) for k in range(1, n + 1)]
    weights = set()
    for _ in range(data.draw(st.integers(1, 3))):
        base = data.draw(st.lists(st.sampled_from(_BASE_ENTRIES),
                                  min_size=n, max_size=n))
        for _ in range(data.draw(st.integers(1, 6))):
            mults = data.draw(st.lists(st.sampled_from(_MULTS),
                                       min_size=n, max_size=n))
            w = list(base)
            for c, alpha in zip(mults, alphas):
                w = [x - MW.from_fraction(c) * y for x, y in zip(w, alpha)]
            weights.add(tuple(w))
    m = WeightModule(qd.algebra, MW, weights, {w: () for w in weights}, [],
                     qd=qd)
    assert m.maximal_weights() == pairwise_maximal_weights(m)
