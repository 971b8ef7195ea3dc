from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from queeralg.coeffalg import (IdealRep, algebra_from_spec, crt_split,
                               gamma_from_spec, gamma_validate,
                               ideal_intersect, ideal_power, ideal_product,
                               ideal_sum, preset_base_field, preset_truncated,
                               quotient_algebra, radical, support, unit_ideal,
                               zero_ideal)
from queeralg.queer import build_q
from queeralg.scalars import Tower, parse_scalar


@pytest.fixture
def K():
    return Tower()


def two_point(K):
    # K[t]/(t^2 - 1), points t = 1 and t = -1
    return preset_truncated(K, [-K.one(), K.zero(), K.one()],
                            [(K.one(), 1), (-K.one(), 1)])


def dual_numbers(K):
    return preset_truncated(K, [K.zero(), K.zero(), K.one()], [(K.zero(), 2)])


def four_point(K):
    return preset_truncated(
        K, [-K.one(), K.zero(), K.zero(), K.zero(), K.one()],
        [(K.one(), 1), (-K.one(), 1), (K.i(), 1), (-K.i(), 1)])


def test_presets(K):
    a = two_point(K)
    assert a.dim == 2 and len(a.maximal_ideals) == 2
    b = dual_numbers(K)
    assert b.dim == 2 and len(b.maximal_ideals) == 1
    c = four_point(K)
    assert c.dim == 4 and len(c.maximal_ideals) == 4
    assert preset_base_field(K).dim == 1


def test_preset_rejects_bad_roots(K):
    with pytest.raises(ValueError):
        preset_truncated(K, [-K.one(), K.zero(), K.one()], [(K.one(), 2)])
    with pytest.raises(ValueError):
        preset_truncated(K, [K.from_int(-2), K.zero(), K.one()],
                         [(K.one(), 1), (-K.one(), 1)])


def test_evaluation(K):
    a = two_point(K)
    # a(t) = 2 + 3t at t = 1 and t = -1
    coords = {0: K.from_int(2), 1: K.from_int(3)}
    assert a.evaluate(0, coords) == K.from_int(5)
    assert a.evaluate(1, coords) == K.from_int(-1)


def test_ideal_product_intersection_disjoint_supports(K):
    a = two_point(K)
    m0, m1 = a.maximal_ideals
    prod = ideal_product(m0, m1)
    inter = ideal_intersect(m0, m1)
    assert prod == inter
    assert prod.dim == 0  # (t-1)(t+1) = 0 in A
    assert support(m0) == [0] and support(m1) == [1]


def test_radical_dual_numbers(K):
    b = dual_numbers(K)
    r = radical(zero_ideal(b))
    assert r == b.maximal_ideals[0]
    # radical is idempotent and contains the ideal
    assert radical(r) == r
    assert zero_ideal(b).is_subideal_of(r)
    # r^k <= (0) for some k <= dim
    assert ideal_power(r, 2).dim == 0


def test_radical_split_algebra_ideals_are_radical(K):
    c = four_point(K)
    m0 = c.maximal_ideals[0]
    assert radical(m0) == m0
    i = ideal_product(m0, c.maximal_ideals[1])
    assert radical(i) == i
    assert radical(zero_ideal(c)).dim == 0


def test_support_counts(K):
    c = four_point(K)
    assert sum(m for _, m in c.points) == c.dim
    i = ideal_product(c.maximal_ideals[0], c.maximal_ideals[2])
    assert support(i) == [0, 2]
    assert support(zero_ideal(c)) == [0, 1, 2, 3]
    assert support(unit_ideal(c)) == []


def test_quotient_algebra(K):
    a = two_point(K)
    q = quotient_algebra(a, a.maximal_ideals[0])
    assert q.dim == 1
    q.check()


def test_crt_two_points(K):
    a = two_point(K)
    q, idems, pieces = crt_split(a, zero_ideal(a))
    assert len(idems) == 2
    half = K.from_fraction(Fraction(1, 2))
    assert idems[0] in ({0: half, 1: half}, {0: half, 1: -half})
    assert idems[1] in ({0: half, 1: half}, {0: half, 1: -half})
    assert all(len(p) == 1 for p in pieces)


def test_crt_single_local_piece(K):
    b = dual_numbers(K)
    q, idems, pieces = crt_split(b, zero_ideal(b))
    assert len(idems) == 1 and idems[0] == q.unit
    assert len(pieces[0]) == 2


def test_crt_four_points(K):
    c = four_point(K)
    q, idems, pieces = crt_split(c, zero_ideal(c))
    assert len(idems) == 4
    one = dict(q.unit)
    total = {}
    for e in idems:
        for k, v in e.items():
            total[k] = total.get(k, K.zero()) + v
    total = {k: v for k, v in total.items() if not v.is_zero}
    assert total == one


def test_gamma_validate_flip_two_points(K):
    a = two_point(K)
    qd = build_q(K, 2)
    act = gamma_from_spec(K, {"generators": [
        {"order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": {"type": "trivial"}}]}, a, qd)
    rep = gamma_validate(act, a, qd)
    assert rep["valid"] and rep["free"] and rep["abelian"]
    assert rep["orbits"] == [[0, 1]]


def test_gamma_not_free_on_double_point(K):
    b = dual_numbers(K)
    qd = build_q(K, 2)
    act = gamma_from_spec(K, {"generators": [
        {"order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": {"type": "trivial"}}]}, b, qd)
    rep = gamma_validate(act, b, qd)
    assert rep["valid"]
    assert not rep["free"]
    assert any("freeness violated" in f for f in rep["failures"])


def test_gamma_conjugation_on_q(K):
    a = two_point(K)
    qd = build_q(K, 2)
    act = gamma_from_spec(K, {"generators": [
        {"order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": {"type": "diag_conj", "diag": ["1", "1", "-1"]}}]}, a, qd)
    rep = gamma_validate(act, a, qd)
    assert rep["valid"] and rep["lie_automorphism"]


def test_gamma_rejects_non_automorphism(K):
    a = two_point(K)
    qd = build_q(K, 2)
    # t -> 2t is not an automorphism of K[t]/(t^2-1)
    act = gamma_from_spec(K, {"generators": [
        {"order": 2, "on_algebra": {"type": "substitute_t", "scale": "2"},
         "on_q": {"type": "trivial"}}]}, a, qd)
    rep = gamma_validate(act, a, qd)
    assert not rep["valid"]


def test_algebra_from_spec(K):
    a = algebra_from_spec(K, {"type": "poly_quotient",
                              "modulus": ["-1", "0", "0", "0", "1"],
                              "roots": ["1", "-1", "i", "-i"]})
    assert a.dim == 4 and len(a.maximal_ideals) == 4
    with pytest.raises(ValueError):
        algebra_from_spec(K, {"type": "mystery"})


def test_crt_idempotents_commute_with_gamma(K):
    # Gamma-invariant ideal (0) in the two-point algebra: the averaging
    # of the idempotent set under t -> -t permutes the idempotents
    a = two_point(K)
    qd = build_q(K, 2)
    act = gamma_from_spec(K, {"generators": [
        {"order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": {"type": "trivial"}}]}, a, qd)
    q, idems, _ = crt_split(a, zero_ideal(a))
    arows = act.generators[0][1]
    imgs = []
    for e in idems:
        vec = [e.get(i, K.zero()) for i in range(a.dim)]
        img = [sum((arows[i][j] * vec[j] for j in range(a.dim)), K.zero())
               for i in range(a.dim)]
        imgs.append({i: v for i, v in enumerate(img) if not v.is_zero})
    assert sorted(map(str, imgs)) == sorted(map(str, idems))


# ---------------------------------------------------------------------------
# Canonical ideal keys
# ---------------------------------------------------------------------------

GEN_PAIRS = [
    (["0", "1", "0", "1"], ["-1", "0", "-1", "1"]),
    (["1", "0", "0", "0"], ["1", "-1", "0", "-1"]),
    (["-1", "0", "-1", "0"], ["-1", "1", "-1", "0"]),
]


@pytest.mark.parametrize("g1,g2", GEN_PAIRS)
def test_ideal_key_independent_of_generator_order(K, g1, g2):
    a = four_point(K)
    gens = [[parse_scalar(K, x) for x in g] for g in (g1, g2)]
    fwd = IdealRep.from_generators(a, gens)
    rev = IdealRep.from_generators(a, gens[::-1])
    assert fwd == rev
    assert fwd.key() == rev.key()


_QI = Tower()
_FOUR = four_point(_QI)
_coeff = st.builds(_QI.from_int, st.sampled_from([0, 0, 1, -1, 2]))
_gens = st.lists(st.lists(_coeff, min_size=4, max_size=4),
                 min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(_gens, _gens, st.randoms(use_true_random=False))
def test_ideal_key_equality_is_ideal_equality(gens1, gens2, rnd):
    i1 = IdealRep.from_generators(_FOUR, gens1)
    shuffled = list(gens1)
    rnd.shuffle(shuffled)
    assert IdealRep.from_generators(_FOUR, shuffled).key() == i1.key()
    i2 = IdealRep.from_generators(_FOUR, gens2)
    assert (i1.key() == i2.key()) == (i1 == i2)
    # the ideal generated by both lists does not depend on which comes first
    assert ideal_sum(i1, i2).key() == ideal_sum(i2, i1).key()
