from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dense_ref import dense
from queeralg.cartanmod import CartanAlgebra, PsiFunctional
from queeralg.coeffalg import preset_base_field
from queeralg.graded import EVEN, Span
from queeralg.hwmod import TruncatedVerma
from queeralg.liesuper import is_simple, is_solvable, subalgebra
from queeralg.mapsuper import tensor_lie
from queeralg.queer import build_q, build_q_tilde, cartan_generation_check
from queeralg.scalars import Tower, raw_of


@pytest.fixture
def K():
    return Tower()


@pytest.fixture
def q2(K):
    return build_q(K, 2)


def test_dims(K, q2):
    assert q2.dim == 16
    assert build_q(K, 3).dim == 30
    assert build_q_tilde(K, 2).space.dim == 17


def test_jacobi_sweep_n2(q2):
    q2.algebra.check()


def test_jacobi_sweep_n3(K):
    build_q(K, 3).algebra.check()


def test_bracket_examples(K, q2):
    one = K.one()
    e12 = q2.index["e[1,2]"]
    e21 = q2.index["e[2,1]"]
    assert q2.algebra.bracket({e12: one}, {e21: one}) == {q2.index["h1"]: one}
    # [e'_12, e'_21] = (1/3)(e_11 + e_22 - 2 e_33) = (1/3)(h1 + 2 h2)
    ep12 = q2.index["e'[1,2]"]
    ep21 = q2.index["e'[2,1]"]
    br = q2.algebra.bracket({ep12: one}, {ep21: one})
    third = K.from_fraction(Fraction(1, 3))
    assert br == {q2.index["h1"]: third, q2.index["h2"]: 2 * third}


def test_simplicity(K, q2):
    assert is_simple(q2.algebra)
    assert is_simple(build_q(K, 3).algebra)


def test_root_counts(K, q2):
    assert len(q2.roots.positive_pairs) == 3
    assert len(build_q(K, 3).roots.positive_pairs) == 6
    assert len(q2.roots.all_pairs) == 6


def test_root_spaces(K, q2):
    rs = q2.root_space((1, 2))
    assert [q2.space.labels[i] for i in rs] == ["e[1,2]", "e'[1,2]"]
    assert len(q2.root_space(0)) == 4  # h0 dim 2 + h1 dim 2
    with pytest.raises(ValueError):
        q2.root_space((1, 1))
    # lookup by weight tuple
    alpha = q2.roots.root_tuple((1, 2))
    assert q2.root_space(alpha) == rs


def test_weight_of(K, q2):
    one = K.one()
    e23 = q2.index["e[2,3]"]
    assert q2.weight_of({e23: one}) == q2.roots.root_tuple((2, 3))
    h1 = q2.index["h1"]
    assert q2.weight_of({h1: one}) == (K.zero(), K.zero())
    # inhomogeneous element
    assert q2.weight_of({e23: one, q2.index["e[1,2]"]: one}) is None


def test_root_space_decomposition(K, q2):
    # q = h (+) sum of root spaces, and [q_a, q_b] <= q_{a+b}
    count = len(q2.cartan_indices)
    for pair in q2.roots.all_pairs:
        count += len(q2.root_space(pair))
    assert count == q2.dim
    one = K.one()
    for pa in q2.roots.all_pairs:
        ta = q2.roots.root_tuple(pa)
        for pb in q2.roots.all_pairs:
            tb = q2.roots.root_tuple(pb)
            target = tuple(x + y for x, y in zip(ta, tb))
            for ia in q2.root_space(pa):
                for ib in q2.root_space(pb):
                    br = q2.algebra.bracket({ia: one}, {ib: one})
                    if not br:
                        continue
                    w = q2.weight_of(br)
                    assert w == target


def test_triangular_parts(K, q2):
    one = K.one()
    npos, _ = subalgebra(q2.algebra, [{i: one} for i in q2.npos_indices])
    nneg, _ = subalgebra(q2.algebra, [{i: one} for i in q2.nneg_indices])
    assert is_solvable(npos) and is_solvable(nneg)
    borel, _ = subalgebra(q2.algebra, [{i: one} for i in q2.borel_indices])
    assert borel.dim == 10
    assert q2.dim == len(q2.nneg_indices) + len(q2.cartan_indices) + len(q2.npos_indices)


@pytest.mark.filterwarnings("ignore:q\\(1\\) is not simple")
@pytest.mark.parametrize("n, dim", [(1, 6), (2, 16), (3, 30), (4, 48)])
def test_simple_root_vectors_generate_q(K, n, dim):
    """Soundness of LieSuper.generators for q(n): the left-normed brackets
    [x_1, [x_2, ..., x_k]] of the 4n simple root vectors e_{+-alpha_k},
    e'_{+-alpha_k} span all of q(n) (exact Span).  Every identity checked
    on the generators alone rests on this."""
    qd = build_q(K, n)
    g = qd.algebra
    one = K.one()
    assert [qd.space.labels[i] for i in g.generators] == \
        [f"e{w}[{i},{j}]" for w in ("", "'") for k in range(1, n + 1)
         for i, j in ((k, k + 1), (k + 1, k))]
    assert list(g.generators) == sorted(g.generators)
    gens = [{i: one} for i in g.generators]
    span = Span(K)
    frontier = [v for v in gens if span.add(v)]
    while frontier:
        frontier = [br for x in gens for v in frontier
                    if (br := g.bracket(x, v)) and span.add(br)]
    assert span.dim == g.dim == dim


def test_cartan_generation(K, q2):
    assert cartan_generation_check(q2)
    assert cartan_generation_check(build_q(K, 3))


def test_cartan_generation_n1(K):
    with pytest.warns(UserWarning):
        q1 = build_q(K, 1)
    # for n = 1 the odd Cartan brackets do not span the even Cartan part
    assert not cartan_generation_check(q1)


@pytest.mark.parametrize("n, diag", [
    (2, [(2, 0, 1), (0, 1, 1), (-3, 0, 1)]),
    (3, [(1, 0, 1), (2, 0, 1), (1, 0, 3), (0, 1, 1)])])
def test_conj_automorphism_matches_dense_conjugation(K, n, diag):
    """The diagonal map equals the coordinates of D x D^-1, conjugated
    densely from each basis label, for D with distinct non-unit entries
    (Gaussian entries given as (a, b, d) for (a + b i) / d)."""
    qd = build_q(K, n)
    d = [K.from_qi(*x) for x in diag]
    sigma = qd.conj_automorphism(d)
    assert sigma.parity == EVEN
    want = {}
    for k, label in enumerate(qd.space.labels):
        parity, x = dense_unit(qd, label)
        conj = [[d[i] * x[i][j] / d[j] for j in range(n + 1)]
                for i in range(n + 1)]
        want.update({(t, k): c
                     for t, c in dense_coords(qd, conj, parity).items()})
    assert sigma.entries == want


def test_conj_automorphism(K, q2):
    sigma = q2.conj_automorphism([1, 1, -1])
    assert sigma * sigma == sigma * sigma * sigma * sigma  # sigma^2 = id on a sample
    one = K.one()
    # bracket preservation on all basis pairs
    import itertools
    for i, j in itertools.product(range(q2.dim), repeat=2):
        lhs = dense(sigma.apply(q2.algebra.bracket({i: one}, {j: one})),
                    q2.dim, K)
        vi = [sigma.rows[t][i] for t in range(q2.dim)]
        vj = [sigma.rows[t][j] for t in range(q2.dim)]
        rhs_d = q2.algebra.bracket({t: v for t, v in enumerate(vi) if not v.is_zero},
                                   {t: v for t, v in enumerate(vj) if not v.is_zero})
        rhs = [rhs_d.get(t, K.zero()) for t in range(q2.dim)]
        assert lhs == rhs


def dense_unit(qd, label):
    """(parity, dense Scalar matrix) of the basis vector with this label,
    read off the label alone: h_k (or h'_k) is E_kk - E_{k+1,k+1}, and
    e[i,j] (or e'[i,j]) is E_ij."""
    tower, n1 = qd.tower, qd.n + 1
    m = [[tower.zero()] * n1 for _ in range(n1)]
    parity = 1 if "'" in label else 0
    if label.startswith("h"):
        k = int(label.strip("h'")) - 1
        m[k][k], m[k + 1][k + 1] = tower.one(), -tower.one()
    else:
        i, j = (int(t) - 1 for t in label[label.index("[") + 1:-1].split(","))
        m[i][j] = tower.one()
    return parity, m


def dense_coords(qd, m, parity):
    """Coordinates of a traceless matrix in the block of the given parity,
    keyed through the basis labels: off-diagonal entries row by row, then
    the partial sums of the diagonal on h_1..h_n."""
    n1, w = qd.n + 1, "'" if parity else ""
    out = {qd.index[f"e{w}[{i + 1},{j + 1}]"]: m[i][j]
           for i in range(n1) for j in range(n1)
           if i != j and not m[i][j].is_zero}
    acc = qd.tower.zero()
    for k in range(qd.n):
        acc = acc + m[k][k]
        if not acc.is_zero:
            out[qd.index[f"h{w}{k + 1}"]] = acc
    assert (acc + m[qd.n][qd.n]).is_zero, "not traceless"
    return out


def dense_structure(qd):
    """bk of q(n) by bracketing dense Scalar matrices built from the basis
    labels (dense_unit) and reading their coordinates back
    (dense_coords): the reference for the sparse rational bracket
    build_q uses."""
    tower, n1 = qd.tower, qd.n + 1

    def mul(x, y):
        out = [[tower.zero()] * n1 for _ in range(n1)]
        for i in range(n1):
            for k in range(n1):
                for j in range(n1):
                    out[i][j] = out[i][j] + x[i][k] * y[k][j]
        return out

    def comb(x, y, sign):
        return [[a + sign * b for a, b in zip(r1, r2)] for r1, r2 in zip(x, y)]

    units = [dense_unit(qd, label) for label in qd.space.labels]
    bk = []
    for pi, x in units:
        row = []
        for pj, y in units:
            if pi == pj == 1:
                s = comb(mul(x, y), mul(y, x), 1)
                shift = sum((s[t][t] for t in range(n1)), tower.zero()) / n1
                for t in range(n1):
                    s[t][t] = s[t][t] - shift
            else:
                s = comb(mul(x, y), mul(y, x), -1)
            row.append(dense_coords(qd, s, pi ^ pj))
        bk.append(row)
    return bk


@pytest.mark.filterwarnings("ignore:q\\(1\\) is not simple")
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structure_constants_match_dense_oracle(K, n):
    qd = build_q(K, n)
    ref = dense_structure(qd)
    # same constants, and the same key order (it reaches act_on and reports)
    assert [[list(d.items()) for d in row] for row in qd.algebra.bk] == \
        [[list(d.items()) for d in row] for row in ref]


@pytest.mark.filterwarnings("ignore:q\\(1\\) is not simple")
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_raw_table_matches_structure_constants(K, n):
    """TruncatedVerma straightens over a raw view of the bracket table
    that it converts once; it must be the conversion of every entry, in
    the same key order."""
    qd = build_q(K, n)
    base = preset_base_field(K)
    psi = PsiFunctional(CartanAlgebra(qd, base), [K.one()] * n)
    vm = TruncatedVerma(tensor_lie(qd, base), psi, 0)
    assert vm._bk == [[tuple((k, raw_of(c)) for k, c in d.items())
                       for d in row] for row in qd.algebra.bk]


@pytest.mark.filterwarnings("ignore:q\\(1\\) is not simple")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_q_tilde_is_a_central_extension_of_q(K, n):
    """q~(n) satisfies the axioms, I is central, and each bracket minus
    its I coordinate is q(n)'s bracket under the label map; the I
    coordinate of [h'_1, h'_1] = 2 diag(1, 1, 0, ...) is its trace over
    n + 1."""
    qt = build_q_tilde(K, n)
    qt.check()
    qd = build_q(K, n)
    labels = qt.space.labels
    assert labels[0] == "I" and qt.space.parity(0) == 0
    to_q = {k: qd.index[lbl] for k, lbl in enumerate(labels) if k}
    assert sorted(to_q.values()) == list(range(qd.dim))
    one = K.one()
    for i in range(qt.dim):
        assert not qt.bracket({0: one}, {i: one})
        assert not qt.bracket({i: one}, {0: one})
    for i in range(1, qt.dim):
        for j in range(1, qt.dim):
            br = qt.bk[i][j]
            assert {to_q[k]: c for k, c in br.items() if k} == \
                qd.algebra.bk[to_q[i]][to_q[j]]
    h1 = qt.space.labels.index("h'1")
    assert qt.bk[h1][h1][0] == K.from_fraction(Fraction(4, n + 1))


def scalar_decompose_qplus(tower, n, delta):
    """Reference: the tridiagonal solve on exact Scalars that
    RootDatum.decompose_qplus replaced."""
    a = [tower.zero()] * (n + 2)
    s = tower.zero()
    for m in range(1, n + 1):
        s = s + delta[m - 1] * tower.from_fraction(Fraction(n + 1 - m, n + 1))
    a[1] = s
    for m in range(1, n):
        a[m + 1] = 2 * a[m] - a[m - 1] - delta[m - 1]
    if not (2 * a[n] - a[n - 1] - delta[n - 1]).is_zero:
        return None
    out = []
    for m in range(1, n + 1):
        v = a[m]
        if not v.is_rational:
            return None
        fr = v.as_fraction()
        if fr.denominator != 1 or fr < 0:
            return None
        out.append(int(fr))
    return tuple(out)


QP = Tower()
QP.adjoin_sqrt(QP.from_int(2))


@pytest.fixture(scope="module")
def root_data():
    with pytest.warns(UserWarning, match="not simple"):
        q1 = build_q(QP, 1)
    return {1: q1.roots, **{n: build_q(QP, n).roots for n in (2, 3, 4)}}


@st.composite
def weight_differences(draw):
    """n in 1..4 and a delta over QP: a point of the root lattice with
    coordinates in -1..3 (so often in Q+), arbitrary integers, rationals
    with denominators 2 and 3, or one entry moved off Q by i or sqrt 2."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("lattice", "integer", "rational",
                                 "non-rational")))
    if kind == "lattice":
        a = [0] + draw(st.lists(st.integers(-1, 3), min_size=n,
                                max_size=n)) + [0]
        vals = [Fraction(2 * a[m] - a[m - 1] - a[m + 1])
                for m in range(1, n + 1)]
    elif kind == "integer":
        vals = [Fraction(v) for v in draw(st.lists(
            st.integers(-4, 4), min_size=n, max_size=n))]
    else:
        vals = [Fraction(p, q) for p, q in draw(st.lists(
            st.tuples(st.integers(-6, 6), st.sampled_from((1, 2, 3))),
            min_size=n, max_size=n))]
    delta = [QP.from_fraction(v) for v in vals]
    if kind == "non-rational":
        k = draw(st.integers(0, n - 1))
        delta[k] = delta[k] + draw(st.sampled_from((QP.i(), QP.gen(0),
                                                    -QP.gen(0) / 2)))
    return n, tuple(delta)


@settings(max_examples=200)
@given(weight_differences())
def test_decompose_qplus_matches_scalar_solve(root_data, drawn):
    n, delta = drawn
    roots = root_data[n]
    assert roots.decompose_qplus(delta) == scalar_decompose_qplus(QP, n, delta)


def test_decompose_qplus_examples(root_data):
    roots = root_data[3]
    one, two = QP.from_int(1), QP.from_int(2)
    # alpha_1 + alpha_2 + alpha_3 = (1, 0, 1) on h_1..h_3
    assert roots.decompose_qplus((one, QP.zero(), one)) == (1, 1, 1)
    assert roots.decompose_qplus((two, -one, QP.zero())) == (1, 0, 0)
    assert roots.decompose_qplus((-two, one, QP.zero())) is None
    assert roots.decompose_qplus((one, QP.zero(), QP.zero())) is None
    assert roots.decompose_qplus((one + QP.gen(0), QP.zero(), one)) is None


@pytest.mark.parametrize("n", [2, 3])
def test_structure_constants_live_in_calling_tower(n):
    K = Tower()
    K.adjoin_sqrt(K.from_int(2))
    bk = build_q(K, n).algebra.bk
    assert all(v.tower is K for row in bk for d in row for v in d.values())

