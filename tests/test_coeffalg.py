import copy

import pytest
from hypothesis import given, settings, strategies as st

from dense_ref import sparse
from queeralg.coeffalg import (CoeffAlgebra, GammaAction, IdealRep,
                               QuotientAlgebra, _check_truncated,
                               algebra_from_spec, gamma_from_spec,
                               gamma_validate, ideal_product,
                               preset_base_field, preset_truncated, radical,
                               support, zero_ideal)
from queeralg.assocsuper import trace_form_kernel
from queeralg.graded import EVEN, GradedMap, add_entries
from queeralg.liesuper import LieSuper
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
    assert prod.is_subideal_of(m0) and prod.is_subideal_of(m1)
    assert prod.dim == 0  # (t-1)(t+1) = 0 in A
    assert support(m0) == [0] and support(m1) == [1]


def test_radical_dual_numbers(K):
    b = dual_numbers(K)
    r = radical(zero_ideal(b))
    assert r == b.maximal_ideals[0]
    # radical is idempotent and contains the ideal
    assert radical(r) == r
    assert zero_ideal(b).is_subideal_of(r)
    # the radical is nilpotent: r^2 = (0)
    assert ideal_product(r, r).dim == 0


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
    assert support(IdealRep.from_generators(c, [c.unit])) == []


def test_quotient_algebra(K):
    a = two_point(K)
    q = QuotientAlgebra(a, a.maximal_ideals[0])
    assert q.dim == 1
    q.check()


def cusp_point(K):
    # K[t]/(t^2 (t - 1)): a double point at t = 0 and a simple one at t = 1
    return preset_truncated(K, [K.zero(), K.zero(), -K.one(), K.one()],
                            [(K.zero(), 2), (K.one(), 1)])


def _assert_split_unit(a, es):
    """es are orthogonal idempotents summing to the unit, with
    ev_y(e_x) = delta_xy."""
    K = a.tower
    assert len(es) == len(a.points)
    total = {}
    for x, ex in enumerate(es):
        for y, ey in enumerate(es):
            assert a.product(ex, ey) == (ex if x == y else {})
            assert a.evaluate(y, ex) == (K.one() if x == y else K.zero())
        for k, c in ex.items():
            total[k] = total.get(k, K.zero()) + c
    assert {k: c for k, c in total.items() if not c.is_zero} == a.unit


@pytest.mark.parametrize("make", [two_point, four_point, cusp_point])
def test_idempotents_split_the_unit(K, make):
    a = make(K)
    _assert_split_unit(a, a.idempotents)
    assert a.idempotents is a.idempotents   # cached


def test_idempotent_of_a_double_point_is_lifted(K):
    # the evaluations alone give u = 1 - t at t = 0, which is not
    # idempotent modulo t^2; the lift reaches 1 - t^2
    a = cusp_point(K)
    assert a.idempotents == [{0: K.one(), 2: -K.one()}, {2: K.one()}]


@pytest.mark.parametrize("make", [preset_base_field, dual_numbers])
def test_one_point_idempotent_is_the_unit_without_a_solve(K, make,
                                                          monkeypatch):
    import queeralg.coeffalg as coeffalg

    def refuse(*args):
        raise AssertionError("solve_columns called")
    monkeypatch.setattr(coeffalg, "solve_columns", refuse)
    a = make(K)
    assert a.idempotents == [a.unit]


def test_quotient_keeps_the_idempotents_of_its_points(K):
    a = cusp_point(K)
    m0, m1 = a.maximal_ideals
    # K[t]/(t (t - 1)): both points survive, each simple
    q = QuotientAlgebra(a, ideal_product(m0, m1))
    assert q.kept_points == [0, 1]
    _assert_split_unit(q, q.idempotents)
    # K[t]/(t^2), the double point alone: one point, the unit
    q0 = QuotientAlgebra(a, ideal_product(m0, m0))
    assert q0.kept_points == [0] and q0.idempotents == [q0.unit]


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


def test_gamma_validate_reports_first_non_multiplicative_pair(K):
    # t -> 1 - t fixes the unit and has order 2, but (1 - t)^2 = 2 - 2t
    # is not the image 1 of t^2 = 1
    a = two_point(K)
    qd = build_q(K, 2)
    act = gamma_from_spec(K, {"generators": [
        {"order": 2, "on_algebra": [["1", "1"], ["0", "-1"]],
         "on_q": {"type": "trivial"}}]}, a, qd)
    rep = gamma_validate(act, a, qd)
    assert not rep["valid"] and not rep["algebra_automorphism"]
    assert rep["relations"] and rep["lie_automorphism"]
    assert rep["failures"] == [
        "generator 0: not multiplicative at (1,1)",
        "element 1: image of maximal ideal 0 is undeclared",
        "element 1: image of maximal ideal 1 is undeclared"]
    # an undeclared image is neither a fixed point nor an orbit member
    assert rep["free"] and rep["orbits"] == [[0], [1]]


def test_gamma_validate_reports_first_unpreserved_bracket(K):
    # negating e[1,2] alone is even and of order 2, but [e[1,2], e[2,1]]
    # = h1 would have to go to -h1
    a = two_point(K)
    qd = build_q(K, 2)
    e12 = qd.index["e[1,2]"]
    rows = [["-1" if i == j == e12 else "1" if i == j else "0"
             for j in range(qd.dim)] for i in range(qd.dim)]
    act = gamma_from_spec(K, {"generators": [
        {"order": 2, "on_algebra": {"type": "trivial"}, "on_q": rows}]},
        a, qd)
    rep = gamma_validate(act, a, qd)
    assert not rep["valid"] and not rep["lie_automorphism"]
    assert rep["relations"] and rep["algebra_automorphism"]
    assert rep["failures"] == [
        "generator 0: bracket not preserved at (2,4)",
        "freeness violated at maximal ideal 0"]


def test_gamma_validate_declared_order_above_true_order(K):
    # t -> -t has order 2, so order 3 fails the relation; g^2 = id is then
    # listed as an element but fixes no point in its own right
    a = preset_truncated(K, [K.from_int(-81), K.zero(), K.zero(), K.zero(),
                             K.one()],
                         [(K.from_int(r), 1) for r in (3, -3)]
                         + [(K.from_qi(0, r), 1) for r in (3, -3)])
    qd = build_q(K, 2)
    act = gamma_from_spec(K, {"generators": [
        {"order": 3, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": {"type": "diag_conj", "diag": ["1", "1", "-1"]}}]}, a, qd)
    rep = gamma_validate(act, a, qd)
    assert rep["failures"] == ["generator 0: order relation fails"]
    assert rep["free"] and not rep["valid"]


def test_gamma_validate_trivial_action_is_not_free(K):
    # a group of order 2 that acts trivially is not free: its non-identity
    # element fixes every point although it acts as the identity
    a = two_point(K)
    qd = build_q(K, 2)
    act = gamma_from_spec(K, {"generators": [
        {"order": 2, "on_algebra": {"type": "trivial"},
         "on_q": {"type": "trivial"}}]}, a, qd)
    rep = gamma_validate(act, a, qd)
    assert rep["valid"] and not rep["free"]
    assert rep["failures"] == ["freeness violated at maximal ideal 0"]


# ---------------------------------------------------------------------------
# Identities checked on generators
# ---------------------------------------------------------------------------

_GK = Tower()
_GQ2 = build_q(_GK, 2)
_GA = two_point(_GK)
_scalar = st.sampled_from(["1", "-1", "2", "1/2", "i", "-i"]).map(
    lambda x: parse_scalar(_GK, x))


def _on_full_basis(qd):
    """qd with an algebra that generates from the whole basis (the
    LieSuper default): the reference for the generator rows."""
    full = copy.copy(qd)
    g = qd.algebra
    full.algebra = LieSuper(g.tower, g.space, g.bk, name=g.name,
                            triangular=g.triangular)
    return full


def _first_bracket_failure(f, g, rows):
    """First (i, j), i in rows and j any basis index, with
    f [e_i, e_j] != [f e_i, f e_j], written out with GradedMap.apply."""
    one = g.tower.one()
    for i in rows:
        for j in range(g.dim):
            lhs = f.apply(g.bracket({i: one}, {j: one}))
            if lhs != g.bracket(f.apply({i: one}), f.apply({j: one})):
                return i, j
    return None


def _diagonal(values):
    return GradedMap(_GK, _GQ2.space, _GQ2.space, dict(
        ((k, k), x) for k, x in enumerate(values)), parity=EVEN)


def _shear(i, off, c):
    # the identity plus c E_ij, j != i in i's parity block (0-7 even,
    # 8-15 odd)
    j = i - i % 8 + (i % 8 + off) % 8
    ident = GradedMap.identity(_GK, _GQ2.space)
    return GradedMap(_GK, _GQ2.space, _GQ2.space,
                     {**ident.entries, (i, j): c}, parity=EVEN)


_q_maps = st.one_of(
    st.lists(_scalar, min_size=3, max_size=3).map(_GQ2.conj_automorphism),
    st.lists(_scalar, min_size=16, max_size=16).map(_diagonal),
    st.builds(_shear, st.integers(0, 15), st.integers(1, 7), _scalar))


@settings(max_examples=60)
@given(_q_maps, st.sampled_from([1, 2, 4]))
def test_gamma_validate_on_generators_matches_the_full_basis(q_map, order):
    """gamma_validate checks f [x, y] = [f x, f y] on the rows x of the
    generators of q(2) only.  On random diagonal conjugations (valid),
    random diagonal maps and shears (mostly not automorphisms), its
    report equals that over every row, except that the bracket failure
    names the first failing pair over the generator rows; such a pair
    exists exactly when one exists over all rows."""
    g = _GQ2.algebra
    act = GammaAction(_GK, [(order, GradedMap.identity(_GK, _GA.space),
                             q_map)])
    got = gamma_validate(act, _GA, _GQ2)
    want = gamma_validate(act, _GA, _on_full_basis(_GQ2))
    assert {k: v for k, v in got.items() if k != "failures"} == \
        {k: v for k, v in want.items() if k != "failures"}
    for rep, rows in ((got, g.generators), (want, range(g.dim))):
        pair = _first_bracket_failure(q_map, g, rows)
        expect = [] if pair is None else \
            [f"generator 0: bracket not preserved at ({pair[0]},{pair[1]})"]
        assert [f for f in rep["failures"] if "bracket" in f] == expect
    assert [f for f in got["failures"] if "bracket" not in f] == \
        [f for f in want["failures"] if "bracket" not in f]


def _with_table(a, mult, functionals=None):
    return CoeffAlgebra(a.tower, a.space, mult, a.unit,
                        eval_functionals=functionals or a.eval_functionals)


@pytest.mark.parametrize("i, j", [(i, j) for i in range(4)
                                  for j in range(4)])
def test_truncated_check_refuses_every_corrupted_product(K, i, j):
    """preset_truncated sweeps associativity over the triples (t, j, k)
    only.  A table of K[t]/(t^4 - 1) with any one product changed (t^3
    added) is refused by it, as by the full sweep."""
    a = four_point(K)
    _check_truncated(a)
    mult = [[dict(e) for e in row] for row in a.mult]
    mult[i][j] = add_entries(mult[i][j], [(3, K.one())])
    bad = _with_table(a, mult)
    with pytest.raises(AssertionError):
        bad.check()
    with pytest.raises(AssertionError):
        _check_truncated(bad)


@pytest.mark.parametrize("chi,message", [
    (["1", "2"], r"declared point 0 is not multiplicative at \(1,1\)"),
    (["2", "2"], "declared point 0 is not unital"),
])
def test_check_refuses_a_point_that_is_not_a_homomorphism(K, chi, message):
    """A declared point must be a unital homomorphism A -> K: on
    K[t]/(t^2 - 1), t -> 2 breaks t * t = 1, and 1 -> 2 the unit."""
    a = two_point(K)
    bad = _with_table(a, a.mult, [[parse_scalar(K, x) for x in chi]])
    with pytest.raises(AssertionError, match=message):
        bad.check()


def test_truncated_check_needs_t_powers(K):
    """The shortcut needs t * t^(k-1) = t^k.  K[t]/(t^4 - 1) on the
    basis 1, t, t^3, t^2 is associative (the full sweep passes), but
    t * t is not basis element 2, so the check refuses it."""
    a = four_point(K)
    p = [0, 1, 3, 2]
    mult = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            mult[p[i]][p[j]] = {p[k]: v for k, v in a.mult[i][j].items()}
    chis = [[chi[p.index(k)] for k in range(4)] for chi in a.eval_functionals]
    perm = _with_table(a, mult, chis)
    perm.check()
    with pytest.raises(AssertionError, match=r"t \* t\^1 is not t\^2"):
        _check_truncated(perm)


def test_algebra_from_spec(K):
    a = algebra_from_spec(K, {"type": "poly_quotient",
                              "modulus": ["-1", "0", "0", "0", "1"],
                              "roots": ["1", "-1", "i", "-i"]})
    assert a.dim == 4 and len(a.maximal_ideals) == 4
    with pytest.raises(ValueError):
        algebra_from_spec(K, {"type": "mystery"})


# ---------------------------------------------------------------------------
# Canonical ideal bases
# ---------------------------------------------------------------------------

GEN_PAIRS = [
    (["0", "1", "0", "1"], ["-1", "0", "-1", "1"]),
    (["1", "0", "0", "0"], ["1", "-1", "0", "-1"]),
    (["-1", "0", "-1", "0"], ["-1", "1", "-1", "0"]),
]


@pytest.mark.parametrize("g1,g2", GEN_PAIRS)
def test_ideal_key_independent_of_generator_order(K, g1, g2):
    a = four_point(K)
    gens = [sparse([parse_scalar(K, x) for x in g]) for g in (g1, g2)]
    fwd = IdealRep.from_generators(a, gens)
    rev = IdealRep.from_generators(a, gens[::-1])
    assert fwd == rev
    assert fwd.basis == rev.basis


_QI = Tower()
_FOUR = four_point(_QI)
_coeff = st.builds(_QI.from_int, st.sampled_from([0, 0, 1, -1, 2]))
_gens = st.lists(st.lists(_coeff, min_size=4, max_size=4),
                 min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(_gens, _gens, st.randoms(use_true_random=False))
def test_ideal_key_equality_is_ideal_equality(gens1, gens2, rnd):
    gens1, gens2 = [sparse(g) for g in gens1], [sparse(g) for g in gens2]
    i1 = IdealRep.from_generators(_FOUR, gens1)
    shuffled = list(gens1)
    rnd.shuffle(shuffled)
    assert IdealRep.from_generators(_FOUR, shuffled).basis == i1.basis
    i2 = IdealRep.from_generators(_FOUR, gens2)
    assert (i1.basis == i2.basis) == (i1 == i2)
    # the ideal generated by both lists does not depend on which comes first
    assert IdealRep.from_generators(_FOUR, gens1 + gens2).basis == \
        IdealRep.from_generators(_FOUR, gens2 + gens1).basis


# ---------------------------------------------------------------------------
# Points are evaluation functionals: references built from ideals
# ---------------------------------------------------------------------------

def sixteen_root(K):
    # K[t]/(t^4 - 16), points 2, -2, 2i and -2i
    return preset_truncated(
        K, [K.from_int(-16), K.zero(), K.zero(), K.zero(), K.one()],
        [(K.from_int(2), 1), (K.from_int(-2), 1), (K.from_qi(0, 2), 1),
         (K.from_qi(0, -2), 1)])


_POINT_PRESETS = [make(_GK) for make in (two_point, dual_numbers,
                                         cusp_point, sixteen_root)]


def _linear(a, root):
    """t - root as a coordinate dict."""
    return {k: c for k, c in ((0, -root), (1, a.tower.one())) if c.co}


def _generated_maximal_ideals(a):
    """The maximal ideals (t - root) of a preset, each generated as an
    ideal."""
    return [IdealRep.from_generators(a, [_linear(a, root)])
            for root, _ in a.points]


@st.composite
def _preset_and_ideal(draw):
    """A preset and the ideal generated by one to three elements, each a
    random element times a random product of the (t - root)^e, e up to
    the root's multiplicity, so that proper ideals of every support
    occur."""
    a = draw(st.sampled_from(_POINT_PRESETS))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = sparse([a.tower.from_int(draw(st.integers(-2, 2)))
                    for _ in range(a.dim)])
        for root, mult in a.points:
            for _ in range(draw(st.integers(0, mult))):
                g = a.product(g, _linear(a, root))
        gens.append(g)
    return a, IdealRep.from_generators(a, gens)


def _trace_form_radical(ideal):
    """sqrt(I) as the preimage of the radical of the trace form of A/I,
    which is the nilradical of A/I in characteristic zero."""
    a = ideal.algebra
    q = QuotientAlgebra(a, ideal)
    return IdealRep.from_generators(
        a, ideal.vectors + [q.lift(g) for g in trace_form_kernel(q)])


@settings(max_examples=80, deadline=None)
@given(_preset_and_ideal())
def test_points_questions_match_the_ideal_references(case):
    """The maximal ideals are the generated (t - root); support is the
    set of maximal ideals containing I; kept_points is the support; and
    the radical, the vanishing ideal of the support, equals the
    preimage of the trace-form radical of A/I."""
    a, ideal = case
    maximal = _generated_maximal_ideals(a)
    assert a.maximal_ideals == maximal
    want = [k for k, m in enumerate(maximal) if ideal.is_subideal_of(m)]
    assert support(ideal) == want
    assert QuotientAlgebra(a, ideal).kept_points == want
    assert radical(ideal).basis == _trace_form_radical(ideal).basis


def _one_minus_t(a):
    """The linear map t^k -> (1 - t)^k; k < dim A, so nothing is
    reduced and the map is invertible."""
    K = a.tower
    col, cols = dict(a.unit), []
    for _ in range(a.dim):
        cols.append(col)
        col = a.product(col, {k: -c for k, c in _linear(a, K.one()).items()})
    return GradedMap(K, a.space, a.space,
                     {(r, k): x for k, c in enumerate(cols)
                      for r, x in c.items()}, parity=EVEN)


def _ideal_image_orbits(act, a, relations):
    """gamma_validate's orbit part read off ideals: element e sends point
    k to the declared maximal ideal equal to e(m_k).  Returns the
    undeclared-image and freeness failures, in report order, and the
    orbits."""
    maximal = _generated_maximal_ideals(a)
    ident_a = GradedMap.identity(a.tower, a.space)
    ident_q = GradedMap.identity(a.tower, _GQ2.space)
    failures, perms = [], []
    for ek, (a_map, q_map) in enumerate(act.elements):
        perm = []
        for k, m in enumerate(maximal):
            img = IdealRep(a, [a_map.apply(v) for v in m.vectors])
            target = next((k2 for k2, m2 in enumerate(maximal)
                           if img == m2), None)
            if target is None:
                failures.append(
                    f"element {ek}: image of maximal ideal {k} is undeclared")
            perm.append(target)
        perms.append(perm)
        if ek == 0 or (not relations and a_map == ident_a
                       and q_map == ident_q):
            continue
        fixed = [k for k, k2 in enumerate(perm) if k2 == k]
        if fixed:
            failures.append(f"freeness violated at maximal ideal {fixed[0]}")
    orbits, seen = [], set()
    for k in range(len(maximal)):
        if k not in seen:
            orbit = sorted({perm[k] for perm in perms} - {None})
            seen.update(orbit)
            orbits.append(orbit)
    return failures, orbits


@pytest.mark.parametrize("a", _POINT_PRESETS,
                         ids=["two", "dual", "cusp", "sixteen"])
@pytest.mark.parametrize("order,scale", [(2, "-1"), (4, "i"), (2, None)],
                         ids=["t->-t", "t->it", "t->1-t"])
def test_gamma_orbits_match_the_ideal_images(a, order, scale):
    """gamma_validate sends point k to k2 when chi_k2 o a is a nonzero
    multiple of chi_k.  For invertible maps (t -> -t, t -> i t and the
    matrix of t -> 1 - t, automorphisms or not) its orbits, freeness
    and failure lines equal those read off the images of the maximal
    ideals."""
    K = a.tower
    a_map = _one_minus_t(a) if scale is None else GradedMap(
        K, a.space, a.space,
        {(k, k): x for k in range(a.dim)
         if (x := parse_scalar(K, scale) ** k).co}, parity=EVEN)
    act = GammaAction(K, [(order, a_map, GradedMap.identity(K, _GQ2.space))])
    rep = gamma_validate(act, a, _GQ2)
    failures, orbits = _ideal_image_orbits(act, a, rep["relations"])
    assert [f for f in rep["failures"]
            if f.startswith(("element", "freeness"))] == failures
    assert rep["orbits"] == orbits
    assert rep["free"] == (not any(f.startswith("freeness")
                                   for f in failures))
