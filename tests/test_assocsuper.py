import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import queeralg.assocsuper as assocsuper
from queeralg.assocsuper import (QuadraticPair, assoc_tensor, classify_simple,
                                 clifford, clifford_generators,
                                 density_type_from_maps, make_M, make_Q,
                                 odd_center, operator_closure_dim, straighten)
from dense_ref import sparse
from queeralg.graded import (GradedMap, GradedSpace, Span, graded_tensor,
                             mat_rref)
from queeralg.liesuper import LieSuper, WeightModule, is_isomorphic_weight
from queeralg.scalars import Tower


@pytest.fixture
def K():
    return Tower()


def form(K, rows):
    return QuadraticPair(K, [[K.from_fraction(Fraction(x)) for x in r] for r in rows])


def natural_module(K, alg, m, n=None):
    """Column action of M(m|n) or Q(m) on C^{m|n} / C^{m|m}: (space, one
    map per algebra basis element)."""
    if n is None:  # Q(m)
        space = GradedSpace(m, m)
        mats = []
        for k in range(alg.dim):
            rows = [[K.zero()] * 2 * m for _ in range(2 * m)]
            lbl = alg.space.labels[k]
            i, j = (int(t) - 1 for t in lbl[2:-1].split(","))
            if lbl.startswith("D"):
                rows[i][j] = K.one()
                rows[m + i][m + j] = K.one()
            else:
                rows[i][m + j] = K.one()
                rows[m + i][j] = K.one()
            mats.append(GradedMap.from_rows(K, space, space, rows))
        return space, mats
    space = GradedSpace(m, n)
    mats = []
    for k in range(alg.dim):
        lbl = alg.space.labels[k]
        i, j = (int(t) - 1 for t in lbl[2:-1].split(","))
        rows = [[K.zero()] * (m + n) for _ in range(m + n)]
        rows[i][j] = K.one()
        mats.append(GradedMap.from_rows(K, space, space, rows))
    return space, mats


def test_make_M_dims(K):
    a = make_M(K, 1, 1)
    assert a.dim == 4 and a.space.even_dim == 2
    a.check()
    b = make_M(K, 2, 1)
    assert b.dim == 9 and b.space.even_dim == 5
    b.check()


def test_make_Q_dims(K):
    q1 = make_Q(K, 1)
    assert q1.dim == 2 and q1.space.even_dim == 1
    q1.check()
    q2 = make_Q(K, 2)
    assert q2.dim == 8 and q2.space.even_dim == 4
    q2.check()


def test_clifford_dims_and_relations(K):
    assert clifford(form(K, [])).dim == 1
    c1 = clifford(form(K, [[1]]))
    assert c1.dim == 2
    c2 = clifford(form(K, [[1, 0], [0, 1]]))
    assert c2.dim == 4
    c2.check()
    # x_i x_j + x_j x_i = 2 f(x_i, x_j)
    f = form(K, [[1, 2], [2, 3]])
    c = clifford(f)
    one = K.one()
    for i in range(2):
        for j in range(2):
            gi, gj = c.generator_indices[i], c.generator_indices[j]
            anti = c.product({gi: one}, {gj: one})
            for k, s in c.product({gj: one}, {gi: one}).items():
                anti[k] = anti.get(k, K.zero()) + s
            anti = {k: v for k, v in anti.items() if not v.is_zero}
            assert anti == {0: 2 * f.rows[i][j]} or (not anti and f.rows[i][j].is_zero)


def test_straighten_involutive(K):
    f = form(K, [[1, 1, 0], [1, 2, 1], [0, 1, 1]])
    rng = random.Random(2)
    for _ in range(20):
        word = [rng.randrange(3) for _ in range(rng.randint(0, 5))]
        once = straighten(word, f.rows, K)
        for mask, coeff in once.items():
            bits = [j for j in range(3) if mask >> j & 1]
            again = straighten(bits, f.rows, K)
            assert again == {mask: K.one()}
        assert coeff is not None or not word


def test_odd_center_examples(K):
    sp, vecs = odd_center(make_M(K, 1, 1))
    assert sp.dim == 0 and not vecs
    sp, vecs = odd_center(make_Q(K, 1))
    assert sp.dim == 1
    sp, vecs = odd_center(clifford(form(K, [[1]])))
    assert sp.dim == 1


def test_classify_simple_examples(K):
    assert classify_simple(make_M(K, 2, 1)).kind == "M"
    assert classify_simple(make_M(K, 2, 1)).m == 2
    t = classify_simple(clifford(form(K, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
    assert (t.kind, t.m) == ("Q", 2)
    assert classify_simple(clifford(form(K, [[0]]))).kind == "not_simple"
    # degenerate but with invertible generators: rank-1 all-ones form
    assert classify_simple(clifford(form(K, [[1, 1], [1, 1]]))).kind == "not_simple"


def test_classify_simple_q_and_m(K):
    t = classify_simple(make_Q(K, 2))
    assert (t.kind, t.m) == ("Q", 2)
    # M(1|2) and M(2|1) are isomorphic superalgebras; normal form has m >= n
    t = classify_simple(make_M(K, 1, 2))
    assert (t.kind, t.m, t.n) == ("M", 2, 1)


def test_q1_tensor_q1_is_M11(K):
    t = classify_simple(assoc_tensor(make_Q(K, 1), make_Q(K, 1)))
    assert (t.kind, t.m, t.n) == ("M", 1, 1)


def test_qm_tensor_q1_is_type_M(K):
    for m in (1, 2):
        a = assoc_tensor(make_Q(K, m), make_Q(K, 1))
        a.check()
        assert classify_simple(a).kind == "M"


def check_clifford_module(q, carrier, gens):
    """The monomials x_S of the generator maps multiply by the table of
    clifford(q): x_S x_T is the combination clifford(q).mult[S][T] of
    the monomial maps, the unit acts as the identity, and each monomial
    map has its basis element's parity (or is zero)."""
    tower = q.tower
    alg = clifford(q)
    masks = sorted(range(1 << q.r), key=lambda m: (bin(m).count("1") % 2, m))
    mats = []
    for m in masks:
        cur = GradedMap.identity(tower, carrier)
        for g in range(q.r):
            if m >> g & 1:
                cur = cur * gens[g]
        mats.append(cur)

    def act(coords):
        return GradedMap.combination(tower, carrier, carrier,
                                     ((c, mats[k]) for k, c in coords.items()))

    assert act(alg.unit) == GradedMap.identity(tower, carrier)
    for i, mi in enumerate(mats):
        assert mi.is_zero or mi.parity == alg.space.parity(i)
        for j, mj in enumerate(mats):
            assert (mi * mj - act(alg.mult[i][j])).is_zero, (i, j)


def test_clifford_irrep_small(K):
    f1 = form(K, [[1]])
    carrier, gens = clifford_generators(f1)
    assert carrier.dim == 2
    check_clifford_module(f1, carrier, gens)
    x = gens[0]
    assert x.rows[0][1] == K.one() and x.rows[1][0] == K.one()
    f2 = form(K, [[1, 0], [0, 1]])
    carrier2, gens2 = clifford_generators(f2)
    assert carrier2.dim == 2
    check_clifford_module(f2, carrier2, gens2)
    f4 = form(K, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    carrier4, gens4 = clifford_generators(f4)
    assert carrier4.dim == 4
    check_clifford_module(f4, carrier4, gens4)


def test_clifford_irrep_degenerate_rejected(K):
    with pytest.raises(ValueError):
        clifford_generators(form(K, [[1, 1], [1, 1]]))


def test_clifford_irrep_nondiagonal_form(K):
    f = form(K, [[0, 1], [1, 0]])
    carrier, gens = clifford_generators(f)
    check_clifford_module(f, carrier, gens)
    assert carrier.dim == 2


def test_clifford_module_check_catches_a_wrong_table(K):
    """check_clifford_module compares against the algebra's table: a
    generator map scaled by 2 fails it."""
    f = form(K, [[1, 0], [0, 1]])
    carrier, gens = clifford_generators(f)
    with pytest.raises(AssertionError):
        check_clifford_module(f, carrier, [gens[0] * 2, gens[1]])


def test_density_type_examples(K):
    m11 = make_M(K, 1, 1)
    space, mats = natural_module(K, m11, 1, 1)
    d = density_type_from_maps(mats, space, K)
    assert d.kind == "full"
    q1 = make_Q(K, 1)
    space, mats = natural_module(K, q1, 1)
    d = density_type_from_maps(mats, space, K)
    assert d.kind == "qcomm" and d.closure_dim == 2


def test_density_tensor_action_reducible(K):
    # Q(1)+Q(1) acting on C^{1|1} (x) C^{1|1} through x(x)1 and 1(x)y
    q1 = make_Q(K, 1)
    space, mats = natural_module(K, q1, 1)
    idm = GradedMap.identity(K, space)
    ops = [graded_tensor(m, idm) for m in mats] + \
        [graded_tensor(idm, m) for m in mats]
    d = density_type_from_maps(ops, ops[0].source, K)
    assert d.kind == "smaller" and d.closure_dim == 4


def test_density_on_clifford_irreps(K):
    for r, expect in [(1, "qcomm"), (2, "full"), (3, "qcomm"), (4, "full")]:
        kk = Tower()
        rows = [[kk.from_int(1 if i == j else 0) for j in range(r)] for i in range(r)]
        carrier, gens = clifford_generators(QuadraticPair(kk, rows))
        assert density_type_from_maps(gens, carrier, kk).kind == expect


def test_classify_clifford_random_forms(K):
    rng = random.Random(13)
    for r in range(1, 5):
        for _ in range(2):
            kk = Tower()
            rows = [[kk.zero()] * r for _ in range(r)]
            while True:
                for i in range(r):
                    for j in range(i, r):
                        rows[i][j] = rows[j][i] = kk.from_int(rng.randint(-2, 2))
                q = QuadraticPair(kk, rows)
                if q.radical_dim() == 0:
                    break
            t = classify_simple(clifford(q))
            assert t.kind == ("Q" if r % 2 else "M")


# ---------------------------------------------------------------------------
# The closure oracle on raw entries against the Scalar closure it replaced
# ---------------------------------------------------------------------------


def scalar_sparse_mul(a, b):
    """Reference: the sparse product on Scalar entries."""
    c: dict = {}
    for i, arow in a.items():
        ci = None
        for k, av in arow.items():
            brow = b.get(k)
            if not brow:
                continue
            if ci is None:
                ci = c.setdefault(i, {})
            for j, bv in brow.items():
                cur = ci.get(j)
                nxt = av * bv if cur is None else cur + av * bv
                if nxt.is_zero:
                    ci.pop(j, None)
                else:
                    ci[j] = nxt
        if ci is not None and not ci:
            c.pop(i, None)
    return c


def entry_dicts(ops):
    """Nested {i: {j: x}} operators as the entry dicts {(i, j): x} that
    operator_closure_dim reads."""
    return [{(i, j): x for i, row in op.items() for j, x in row.items()}
            for op in ops]


def scalar_closure_dim(ops, n, tower):
    """Reference: span-closure with Scalar products."""
    span = Span(tower)

    def flat(mat):
        return {i * n + j: v for i, row in mat.items() for j, v in row.items()}

    ident = {i: {i: tower.one()} for i in range(n)}
    frontier = [m for m in [ident] + list(ops) if span.add(flat(m))]
    while frontier:
        new = []
        for e in frontier:
            for g in ops:
                for prod in (scalar_sparse_mul(g, e), scalar_sparse_mul(e, g)):
                    if prod and span.add(flat(prod)):
                        new.append(prod)
        frontier = new
    return span.dim


CL = Tower()
CL.adjoin_sqrt(CL.from_int(2))
CL.adjoin_sqrt(CL.from_int(3) + CL.gen(0))   # a radicand above Q(i)


@st.composite
def operator_sets(draw):
    """1-3 sparse n x n operators, n in 1..3, entries at tower heights up to
    the drawn one (0, 1 or 2); then, in random places, scalar multiples of
    the identity and combinations of the operators drawn before, which the
    closure must drop as multipliers."""
    h = draw(st.integers(0, 2))
    n = draw(st.integers(1, 3))
    entry = st.builds(
        lambda q, m: CL.from_qi(*q) * (CL.gen(0) if m & 1 else 1)
        * (CL.gen(1) if m & 2 else 1),
        st.tuples(st.integers(-2, 2), st.integers(-1, 1),
                  st.sampled_from([1, 2])),
        st.integers(0, (1 << h) - 1))
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        cells = draw(st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            entry, max_size=n * n))
        mat: dict = {}
        for (i, j), v in cells.items():
            if not v.is_zero:
                mat.setdefault(i, {})[j] = v
        ops.append(mat)
    for _ in range(draw(st.integers(0, 2))):
        c = draw(entry)
        if draw(st.booleans()):
            extra = {i: {i: c} for i in range(n)} if not c.is_zero else {}
        else:
            # c * ident + sum of drawn multiples of earlier operators
            terms = [({i: {i: CL.one()} for i in range(n)}, c)] + \
                [(op, draw(entry)) for op in ops]
            extra = {}
            for op, f in terms:
                for i, row in op.items():
                    for j, v in row.items():
                        t = extra.setdefault(i, {}).get(j, CL.zero()) + f * v
                        extra[i][j] = t
            extra = {i: {j: v for j, v in row.items() if not v.is_zero}
                     for i, row in extra.items()}
            extra = {i: row for i, row in extra.items() if row}
        ops.insert(draw(st.integers(0, len(ops))), extra)
    return n, ops


@settings(max_examples=60)
@given(operator_sets())
def test_operator_closure_dim_matches_scalar_closure(drawn):
    n, ops = drawn
    assert operator_closure_dim(entry_dicts(ops), n, CL) == \
        scalar_closure_dim(ops, n, CL)


def unit(K, i, j):
    return {i: {j: K.one()}}


def test_operator_closure_stops_at_full_algebra(K, monkeypatch):
    """E12, E21 on K^2: E12*E21 = E11 fills End(K^2) while E21 is still
    on the frontier; nothing more is formed once the span has n^2."""
    adds = []
    add = Span.add

    def counted(self, vec):
        adds.append(1)
        return add(self, vec)

    monkeypatch.setattr(Span, "add", counted)
    ops = [unit(K, 0, 1), unit(K, 1, 0)]
    assert operator_closure_dim(entry_dicts(ops), 2, K) == 4
    # the identity, E12 and E21, then E12*E12 = 0 (never added) and
    # E12*E21 = E11, which fills End(K^2): E21 is never multiplied
    assert len(adds) == 4
    monkeypatch.undo()
    assert scalar_closure_dim(ops, 2, K) == 4
    # the cyclic shift and one diagonal unit generate End(K^3)
    shift = {0: {1: K.one()}, 1: {2: K.one()}, 2: {0: K.one()}}
    ops3 = [shift, unit(K, 0, 0)]
    assert operator_closure_dim(entry_dicts(ops3), 3, K) == 9 == \
        scalar_closure_dim(ops3, 3, K)


def test_operator_closure_drops_scalar_and_dependent_multipliers(K):
    """Operators acting by scalars, and a combination of the others, add
    no words: only the two independent nilpotents are multiplied."""
    e = {0: {1: K.one()}}
    f = {1: {0: K.one()}}
    two = {i: {i: K.from_int(2)} for i in range(2)}
    comb = {0: {0: K.from_int(3), 1: K.one()}, 1: {0: K.from_int(-1),
                                                  1: K.from_int(3)}}
    ops = [two, e, comb, f]
    assert operator_closure_dim(entry_dicts(ops), 2, K) == 4 == \
        scalar_closure_dim(ops, 2, K)
    assert operator_closure_dim(entry_dicts([two, e]), 2, K) == 2 == \
        scalar_closure_dim([two, e], 2, K)


def test_operator_closure_odd_rank_cartan_module_is_qcomm():
    """H(psi) of q(3) over the base field with Clifford rank 3: carrier
    C^{2|2}, closure 2 m^2 = 8 < 16, and the density oracle says QComm.
    The even Cartan operators act by the scalars psi(h_k)."""
    from queeralg.assocsuper import density_type_from_maps
    from queeralg.cartanmod import CartanAlgebra, PsiFunctional, build_H
    from queeralg.coeffalg import preset_base_field
    from queeralg.queer import build_q
    K = Tower()
    ctx = CartanAlgebra(build_q(K, 3), preset_base_field(K))
    h = build_H(PsiFunctional(ctx, [K.from_int(v) for v in (2, 1, 0)]))
    assert h.rank == 3 and h.dim == 4
    ops = [m.entries for m in h.cartan_mats]
    nested = [{} for _ in ops]
    for op, mat in zip(ops, nested):
        for (i, j), x in op.items():
            mat.setdefault(i, {})[j] = x
    assert operator_closure_dim(ops, 4, K) == 8 == \
        scalar_closure_dim(nested, 4, K)
    d = density_type_from_maps(h.cartan_mats, h.carrier, K)
    assert d.kind == "qcomm" and d.closure_dim == 8


# ---------------------------------------------------------------------------
# The oracle's certificates over F_p against the exact closure
# ---------------------------------------------------------------------------

TWO_POINTS = {"type": "poly_quotient", "modulus": ["-1", "0", "1"],
              "roots": ["1", "-1"]}
# psi on q(2) (x) K[t]/(t^2 - 1) of Clifford rank 4, by the tower height
# that H(psi) needs: none, one root (63/256), two roots (100/111, 4/3)
RANK4_BY_HEIGHT = {0: (-2, -2, -2, 2), 1: (-2, -2, -2, 0),
                   2: (-2, -2, -2, -1)}


def cartan_H(K, values, n=2, spec=TWO_POINTS):
    """H(psi) of q(n) (x) A on the tower K."""
    from queeralg.cartanmod import CartanAlgebra, PsiFunctional, build_H
    from queeralg.coeffalg import algebra_from_spec
    from queeralg.queer import build_q
    ctx = CartanAlgebra(build_q(K, n), algebra_from_spec(K, spec))
    return build_H(PsiFunctional(ctx, [K.from_int(v) for v in values]))


def block_sum(K, h1, h2):
    """(carrier, maps) of H1 (+) H2: each Cartan generator acts on both."""
    n1 = h1.dim
    space = GradedSpace.from_parities(h1.carrier.parities
                                      + h2.carrier.parities)
    maps = []
    for a, b in zip(h1.cartan_mats, h2.cartan_mats):
        entries = dict(a.entries)
        entries.update({(i + n1, j + n1): x
                        for (i, j), x in b.entries.items()})
        maps.append(GradedMap(K, space, space, entries, parity=a.parity))
    return space, maps


def exact_verdict(maps, space, K):
    """Reference: the oracle's verdict read off the Scalar closure."""
    from queeralg.graded import homogeneous_entries, odd_schur
    n, m = space.dim, space.even_dim
    nested = [{} for _ in maps]
    for mp, mat in zip(maps, nested):
        for (i, j), x in mp.entries.items():
            mat.setdefault(i, {})[j] = x
    d = scalar_closure_dim(nested, n, K)
    if d == n * n:
        return "full", d
    if space.odd_dim == m and d == 2 * m * m and odd_schur(
            homogeneous_entries(maps), space, K) is not None:
        return "qcomm", d
    return "smaller", d


def spied_verdict(maps, space, K, monkeypatch):
    """(kind, closure_dim) of the oracle and the number of exact closures
    it ran."""
    runs = []
    exact = assocsuper._closure_dim_exact

    def spy(*args):
        runs.append(1)
        return exact(*args)
    monkeypatch.setattr(assocsuper, "_closure_dim_exact", spy)
    d = density_type_from_maps(maps, space, K)
    monkeypatch.undo()
    return (d.kind, d.closure_dim), len(runs)


@pytest.mark.parametrize("height", [0, 1, 2])
def test_full_certificate_over_F_p_needs_no_exact_closure(height,
                                                          monkeypatch):
    K = Tower()
    h = cartan_H(K, RANK4_BY_HEIGHT[height])
    assert K.height == height and h.rank == 4 and K.mod_p() is not None
    got, exact_runs = spied_verdict(h.cartan_mats, h.carrier, K, monkeypatch)
    assert got == exact_verdict(h.cartan_mats, h.carrier, K) == ("full", 16)
    assert exact_runs == 0
    ops = [mp.entries for mp in h.cartan_mats]
    assert assocsuper._closure_dim_exact(ops, 4, K) == \
        operator_closure_dim(ops, 4, K) == 16


def test_qcomm_certificate_over_F_p_needs_no_exact_closure(monkeypatch):
    """Rank 3 over the base field (carrier C^{2|2}, closure 8), and rank 1
    above Q(i) (q(2) with psi = (2, -1 + sqrt(-3)), carrier C^{1|1})."""
    from queeralg.coeffalg import preset_base_field
    from queeralg.cartanmod import CartanAlgebra, PsiFunctional, build_H
    from queeralg.queer import build_q
    K = Tower()
    h3 = cartan_H(K, (2, 1, 0), n=3, spec={
        "type": "poly_quotient", "modulus": ["0", "1"], "roots": ["0"]})
    K1 = Tower()
    s = K1.adjoin_sqrt(K1.from_int(-3))
    h1 = build_H(PsiFunctional(
        CartanAlgebra(build_q(K1, 2), preset_base_field(K1)),
        [K1.from_int(2), K1.from_int(-1) + s]))
    for tower, h, dim in ((K, h3, 8), (K1, h1, 2)):
        assert h.rank % 2 == 1 and tower.mod_p() is not None
        got, exact_runs = spied_verdict(h.cartan_mats, h.carrier, tower,
                                        monkeypatch)
        assert got == exact_verdict(h.cartan_mats, h.carrier, tower) == \
            ("qcomm", dim)
        assert exact_runs == 0
    assert K1.height == 1


@pytest.mark.parametrize("height", [1, 2])
def test_smaller_verdicts_run_the_exact_closure(height, monkeypatch):
    """H(psi) (+) H(psi): End(H) once, 16 on C^{4|4}.  H(psi) (+) H(psi')
    for a psi' of height 0: closure 32 = 2 m^2 on C^{4|4}, so the oracle
    asks for phi, finds none (the sum of two type-M modules has no odd
    supercommutant) and closes exactly."""
    K = Tower()
    h = cartan_H(K, RANK4_BY_HEIGHT[height])
    h_other = cartan_H(K, RANK4_BY_HEIGHT[0])
    assert K.height == height and K.mod_p() is not None
    for other, dim in ((h, 16), (h_other, 32)):
        space, maps = block_sum(K, h, other)
        got, exact_runs = spied_verdict(maps, space, K, monkeypatch)
        assert got == exact_verdict(maps, space, K) == ("smaller", dim)
        assert exact_runs == 1
        ops = [mp.entries for mp in maps]
        assert operator_closure_dim(ops, 8, K) == dim
        assert assocsuper._closure_dim_mod_p(ops, 8, K) <= dim


def test_oracle_without_a_reduction_closes_exactly(monkeypatch):
    """An operator entry whose denominator the prime divides, and a tower
    with no prime of the list: no F_p closure, and the exact one gives the
    verdict."""
    import queeralg.scalars as scalars
    K = Tower()
    h = cartan_H(K, RANK4_BY_HEIGHT[1])
    ops = [mp.entries for mp in h.cartan_mats]
    assert assocsuper._closure_dim_mod_p(ops, 4, K) == 16
    # one operator times 1/p: the algebra is the same, the entries are not
    # p-integral
    scaled = [dict(ops[0])] + ops[1:]
    k = next(iter(scaled[0]))
    scaled[0][k] = scaled[0][k] * K.from_fraction(Fraction(1, K.mod_p().p))
    assert assocsuper._closure_dim_mod_p(scaled, 4, K) is None
    assert operator_closure_dim(scaled, 4, K) == 16
    monkeypatch.setattr(scalars, "MOD_P_PRIMES", ())
    K2 = Tower()
    h2 = cartan_H(K2, RANK4_BY_HEIGHT[1])
    assert K2.mod_p() is None
    d = density_type_from_maps(h2.cartan_mats, h2.carrier, K2)
    assert (d.kind, d.closure_dim) == ("full", 16)


# ---------------------------------------------------------------------------
# The generator-only Clifford module
# ---------------------------------------------------------------------------


def test_clifford_generators_need_no_clifford_algebra(K, monkeypatch):
    def refuse(q):
        raise AssertionError("clifford() called")
    f = form(K, [[1, 2, 0], [2, 3, 1], [0, 1, 1]])
    monkeypatch.setattr(assocsuper, "clifford", refuse)
    carrier, gens = clifford_generators(f)
    assert carrier.dim == 4 and len(gens) == 3


def test_clifford_relation_check_catches_corrupt_generator(K, monkeypatch):
    real = assocsuper._exterior_model

    def corrupt(tower, k):
        space, create, annihilate = real(tower, k)
        return space, create, [annihilate[0] * 2] + annihilate[1:]
    monkeypatch.setattr(assocsuper, "_exterior_model", corrupt)
    with pytest.raises(AssertionError, match="Clifford relation"):
        clifford_generators(form(K, [[1, 0], [0, 1]]))


def test_clifford_relation_check_on_given_maps(K):
    f = form(K, [[1, 1], [1, 3]])
    _, gens = clifford_generators(f)
    assocsuper._check_clifford_relations(f, gens)
    bad = list(gens)
    rows = [list(r) for r in bad[1].rows]
    rows[0][-1] = rows[0][-1] + 1
    bad[1] = GradedMap.from_rows(K, bad[1].source, bad[1].target, rows)
    with pytest.raises(AssertionError, match=r"\(0,1\)"):
        assocsuper._check_clifford_relations(f, bad)


# ---------------------------------------------------------------------------
# The Witt-decomposition model against the diagonal pairing
# ---------------------------------------------------------------------------


def pairing_model(q):
    """The oracle: the Clifford generators by the diagonal pairing alone,
    with no plane split off.  Diagonal generators z = P x are paired in
    pivot order, one square root t^2 = -a/b per pair (z1 -> C + aA,
    z2 -> (C - aA)/t), the last one of odd rank acts on C^{1|1} by
    [[0, d], [1, 0]], and x = P^{-1} z."""
    tower, r = q.tower, q.r
    p_rows, diag = assocsuper._congruence_diagonalize(q)
    k = r // 2
    lam, create, annihilate = assocsuper._exterior_model(tower, k)
    z_mats = []
    for jj in range(k):
        a, b = diag[2 * jj], diag[2 * jj + 1]
        t = tower.adjoin_sqrt(-a / b)
        z_mats += [create[jj] + annihilate[jj] * a,
                   (create[jj] - annihilate[jj] * a) * t.inv()]
    carrier = lam
    if r % 2:
        c11 = GradedSpace(1, 1)
        x11 = GradedMap.from_rows(tower, c11, c11,
                                  [[tower.zero(), diag[-1]],
                                   [tower.one(), tower.zero()]],
                                  parity=1)
        z_mats = [graded_tensor(z, GradedMap.identity(tower, c11))
                  for z in z_mats]
        z_mats.append(graded_tensor(GradedMap.identity(tower, lam), x11))
        carrier = z_mats[0].target
    aug = [sparse(list(p_rows[i]) + [tower.one() if j == i else tower.zero()
                                     for j in range(r)]) for i in range(r)]
    pinv = [[row.get(r + j, tower.zero()) for j in range(r)]
            for row in mat_rref(aug, 2 * r, tower)[0]]
    return carrier, [GradedMap.combination(tower, carrier, carrier,
                                           zip(pinv[i], z_mats))
                     for i in range(r)]


def clifford_lie(q):
    """The Lie superalgebra of the form: an even c and odd x_1..x_r with
    [x_i, x_j] = 2 f_ij c; a Clifford module is its module with c -> id."""
    tower, r = q.tower, q.r
    bk = [[{} for _ in range(r + 1)] for _ in range(r + 1)]
    for i in range(r):
        for j in range(r):
            if not q.rows[i][j].is_zero:
                bk[i + 1][j + 1] = {0: q.rows[i][j] * 2}
    return LieSuper(tower, GradedSpace(1, r), bk, name="heis")


def as_lie_module(lie, carrier, gens):
    ident = GradedMap.identity(lie.tower, carrier)
    return WeightModule.from_flat(lie, carrier, [ident] + list(gens))


_gauss = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def small_forms(draw):
    """Symmetric r x r matrices (r = 1..5) of Gaussian integers a + bi
    with |a|, |b| <= 2, as (a, b) pairs; half of them diagonal, which
    makes anisotropic pairs and triples frequent."""
    r = draw(st.integers(1, 5))
    diagonal = draw(st.booleans())
    rows = [[(0, 0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            if i == j or not diagonal:
                rows[i][j] = rows[j][i] = draw(_gauss)
    return rows


def _diag(*vals):
    return [[(v, 0) if i == j else (0, 0) for j in range(len(vals))]
            for i, v in enumerate(vals)]


@settings(max_examples=40)
@given(small_forms())
@example(_diag(1, 2))            # anisotropic pair: -2 is no square in Q(i)
@example(_diag(1, 1))            # hyperbolic over Q(i): -1 = i^2
@example(_diag(3, 6, -1, -2))    # a triple, then a pair: hyperbolic
@example(_diag(1, 2, 3, 5, 7))   # odd rank
def test_witt_model_matches_diagonal_pairing(rows):
    K = Tower()
    q = QuadraticPair(K, [[K.from_qi(a, b) for a, b in row] for row in rows])
    assume(q.radical_dim() == 0)
    carrier, gens = clifford_generators(q)
    assert carrier.dim == 2 ** -(-q.r // 2)
    assocsuper._check_clifford_relations(q, gens)
    lie = clifford_lie(q)
    ok, wit = is_isomorphic_weight(as_lie_module(lie, carrier, gens),
                                   as_lie_module(lie, *pairing_model(q)))
    assert ok and wit.rank() == carrier.dim


@pytest.mark.parametrize("rows,height", [
    (_diag(1, 1), 0),
    ([[(0, 0), (1, 0)], [(1, 0), (0, 0)]], 0),
    (_diag(3, 6, -1, -2), 0),     # (1, 0, 1, 1) is isotropic
    (_diag(1, -1, 5), 0),         # a plane and the line <5>
    (_diag(1, 2), 1),             # anisotropic: the pair takes sqrt(-1/2)
])
def test_witt_model_adjoins_roots_only_for_anisotropic_pairs(rows, height):
    K = Tower()
    clifford_generators(QuadraticPair(
        K, [[K.from_qi(a, b) for a, b in row] for row in rows]))
    assert K.height == height
