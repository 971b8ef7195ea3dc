import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from queeralg.graded import (EVEN, ODD, GradedMap, GradedSpace, Span, commutant,
                             graded_tensor, kernel, mat_kernel, mat_rank,
                             mat_rref, solve_columns, solve_right,
                             tensor_space)
from queeralg.scalars import Tower


@pytest.fixture
def K():
    return Tower()


def rand_map(K, rng, src, tgt, parity):
    rows = [[K.zero()] * src.dim for _ in range(tgt.dim)]
    for i in range(tgt.dim):
        for j in range(src.dim):
            if (tgt.parity(i) + src.parity(j)) % 2 == parity:
                rows[i][j] = K.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return GradedMap(K, src, tgt, rows, parity=parity)


def test_space_basics():
    v = GradedSpace(2, 1)
    assert v.dim == 3
    assert v.parities == (EVEN, EVEN, ODD)
    with pytest.raises(ValueError):
        GradedSpace(-1, 0)


def test_parity_inference_and_check(K):
    v = GradedSpace(1, 1)
    f = GradedMap(K, v, v, [[K.zero(), K.one()], [K.zero(), K.zero()]])
    assert f.parity == ODD
    with pytest.raises(ValueError):
        GradedMap(K, v, v, [[K.one(), K.one()], [K.zero(), K.zero()]], parity=EVEN)


def test_kernel_examples(K):
    v11 = GradedSpace(1, 1)
    ks, _ = kernel(GradedMap.identity(K, v11))
    assert ks.dim == 0
    v21 = GradedSpace(2, 1)
    ks, _ = kernel(GradedMap.zero(K, v21, v21))
    assert (ks.even_dim, ks.odd_dim) == (2, 1)
    # parity-odd map on C^{1|1} with matrix [[0,1],[0,0]]: kernel = even line
    f = GradedMap(K, v11, v11, [[K.zero(), K.one()], [K.zero(), K.zero()]])
    ks, emb = kernel(f)
    assert (ks.even_dim, ks.odd_dim) == (1, 0)
    assert emb.rows[0][0] == K.one() and emb.rows[1][0].is_zero


def test_rank_nullity_random(K):
    rng = random.Random(11)
    for _ in range(100):
        src = GradedSpace(rng.randint(0, 3), rng.randint(0, 3))
        tgt = GradedSpace(rng.randint(0, 3), rng.randint(0, 3))
        f = rand_map(K, rng, src, tgt, rng.randint(0, 1))
        ks, _ = kernel(f)
        assert ks.dim + f.rank() == src.dim


def test_graded_tensor_identity(K):
    v = GradedSpace(1, 1)
    idv = GradedMap.identity(K, v)
    t = graded_tensor(idv, idv)
    assert t == GradedMap.identity(K, t.source)


def test_graded_tensor_odd_square_sign(K):
    # f, g odd on C^{1|1}: (f (x) g)^2 = -(f^2) (x) (g^2)
    v = GradedSpace(1, 1)
    rng = random.Random(3)
    f = rand_map(K, rng, v, v, ODD)
    g = rand_map(K, rng, v, v, ODD)
    lhs = graded_tensor(f, g) * graded_tensor(f, g)
    rhs = graded_tensor(f * f, g * g) * (-1)
    assert lhs == rhs


def test_graded_tensor_composition_sign(K):
    # (f (x) g)(f' (x) g') = (-1)^{|g||f'|} (f f') (x) (g g')
    rng = random.Random(5)
    v = GradedSpace(2, 1)
    for pf, pg, pf2, pg2 in [(0, 1, 1, 0), (1, 1, 1, 1), (0, 0, 1, 1), (1, 0, 0, 1)]:
        f, g = rand_map(K, rng, v, v, pf), rand_map(K, rng, v, v, pg)
        f2, g2 = rand_map(K, rng, v, v, pf2), rand_map(K, rng, v, v, pg2)
        lhs = graded_tensor(f, g) * graded_tensor(f2, g2)
        rhs = graded_tensor(f * f2, g * g2)
        if pg and pf2:
            rhs = rhs * (-1)
        assert lhs == rhs


def test_commutant_full_matrix_algebra(K):
    # ops spanning End(C^{1|1}): even commutant = scalars, odd = 0
    v = GradedSpace(1, 1)
    ops = []
    for i in range(2):
        for j in range(2):
            rows = [[K.zero()] * 2 for _ in range(2)]
            rows[i][j] = K.one()
            ops.append(GradedMap(K, v, v, rows))
    evens = commutant(ops, v, K, parity_filter=EVEN)
    odds = commutant(ops, v, K, parity_filter=ODD)
    assert len(evens) == 1 and len(odds) == 0
    e = evens[0]
    assert e.rows[0][0] == e.rows[1][1] and e.rows[0][1].is_zero


def test_commutant_empty_ops_gives_all(K):
    v = GradedSpace(1, 1)
    maps = commutant([], v, K)
    assert len(maps) == 4


def test_commutant_supercommutes(K):
    rng = random.Random(9)
    v = GradedSpace(2, 2)
    ops = [rand_map(K, rng, v, v, p) for p in (0, 1, 0)]
    for t in commutant(ops, v, K):
        for op in ops:
            resid = t * op - op * t * (1 if not (t.parity and op.parity) else -1)
            assert resid.is_zero


def test_span_incremental(K):
    sp = Span(K)
    assert sp.add([K.one(), K.zero(), K.one()])
    assert sp.add([K.zero(), K.one(), K.one()])
    assert not sp.add([K.one(), K.one(), K.from_int(2)])
    assert sp.dim == 2
    assert sp.contains({0: K.from_int(3), 1: K.from_int(3), 2: K.from_int(6)})
    assert not sp.contains([K.one(), K.zero(), K.zero()])


def test_solve_and_kernel(K):
    rows = [[K.from_int(1), K.from_int(2)], [K.from_int(2), K.from_int(4)]]
    assert mat_rank(rows, 2, K) == 1
    ker = mat_kernel(rows, 2, K)
    assert len(ker) == 1
    x = solve_right(rows, [K.from_int(3), K.from_int(6)], 2, K)
    assert x is not None
    assert x[0] + 2 * x[1] == 3
    assert solve_right(rows, [K.one(), K.one()], 2, K) is None


def test_tensor_space_ordering():
    v = GradedSpace(1, 1, labels=("a", "b"))
    w = GradedSpace(1, 1, labels=("c", "d"))
    t, idx = tensor_space(v, w)
    assert (t.even_dim, t.odd_dim) == (2, 2)
    # even pairs (0,0),(1,1) come first
    assert idx[(0, 0)] == 0 and idx[(1, 1)] == 1
    assert idx[(0, 1)] == 2 and idx[(1, 0)] == 3


# ---------------------------------------------------------------------------
# Span keeps a true reduced row echelon form
# ---------------------------------------------------------------------------

QI = Tower()   # Q(i) only: these tests never adjoin a square root


def test_span_residual_has_no_pivot_column(K):
    one = K.one()
    sp = Span(K)
    sp.add({3: one})
    sp.add({1: one, 2: one, 3: one})
    res = sp.reduce({1: one})
    assert set(res) == {2}
    assert res[2] == -one
    assert all(set(row) & set(sp.rows) == {p} for p, row in sp.rows.items())


def test_span_basis_independent_of_order(K):
    one, zero = K.one(), K.zero()
    u, v = [one, one, zero], [zero, one, one]
    assert Span(K, [u, v]).basis_vectors(3) == Span(K, [v, u]).basis_vectors(3)
    assert Span(K, [u, v]).basis_vectors(3) == \
        [[one, zero, -one], [zero, one, one]]


def qi_entries():
    # about half the entries are zero, so pivots skip columns
    return st.one_of(st.just(QI.zero()),
                     st.builds(QI.from_qi, st.integers(-2, 2),
                               st.integers(-1, 1), st.sampled_from([1, 2])))


def qi_vectors(n):
    return st.lists(qi_entries(), min_size=n, max_size=n)


@st.composite
def vector_lists(draw, max_vectors=5):
    n = draw(st.integers(1, 5))
    vecs = draw(st.lists(qi_vectors(n), min_size=0, max_size=max_vectors))
    return n, vecs


def is_rref(rows, pivots, n):
    if pivots != sorted(set(pivots)) or len(rows) != len(pivots):
        return False
    for row, p in zip(rows, pivots):
        if len(row) != n or row[p] != 1:
            return False
        if any(not x.is_zero for x in row[:p]):
            return False
        if any(not row[q].is_zero for q in pivots if q != p):
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(vector_lists(), st.randoms(use_true_random=False))
def test_span_basis_is_insertion_order_free(data, rnd):
    n, vecs = data
    shuffled = list(vecs)
    rnd.shuffle(shuffled)
    assert Span(QI, vecs).basis_vectors(n) == \
        Span(QI, shuffled).basis_vectors(n)


@settings(max_examples=60, deadline=None)
@given(vector_lists(), st.data())
def test_span_residual_avoids_pivots(data, draw):
    n, vecs = data
    w = draw.draw(qi_vectors(n))
    sp = Span(QI, vecs)
    res = sp.reduce(w)
    assert not set(res) & set(sp.rows)
    # w - residual lies in the span, and the residual is zero exactly on it
    diff = [x - res.get(k, QI.zero()) for k, x in enumerate(w)]
    assert sp.contains(diff)
    assert (not res) == sp.contains(w)
    assert is_rref(sp.basis_vectors(n), sorted(sp.rows), n)


@settings(max_examples=60, deadline=None)
@given(vector_lists())
def test_mat_rref_is_reduced(data):
    n, rows = data
    rref, pivots = mat_rref(rows, n, QI)
    assert is_rref(rref, pivots, n)
    assert len(rref) == mat_rank(rows, n, QI)
    sp = Span(QI, rref)
    assert all(sp.contains(r) for r in rows)
    assert all(Span(QI, rows).contains(r) for r in rref)
    for x in mat_kernel(rows, n, QI):
        assert all(sum((a * b for a, b in zip(r, x)), QI.zero()).is_zero
                   for r in rows)
    assert len(mat_kernel(rows, n, QI)) == n - len(rref)


@settings(max_examples=40, deadline=None)
@given(vector_lists(max_vectors=4), st.data())
def test_solve_columns_matches_solve_right(data, draw):
    ncols, rows = data
    nrows = len(rows)
    rhs_cols = draw.draw(st.lists(qi_vectors(nrows), min_size=1, max_size=3))
    one_by_one = [solve_right(rows, b, ncols, QI) for b in rhs_cols]
    together = solve_columns(rows, rhs_cols, ncols, QI)
    if any(x is None for x in one_by_one):
        assert together is None
    else:
        assert together == one_by_one


# ---------------------------------------------------------------------------
# Span on raw rows agrees with elimination on Scalar rows
# ---------------------------------------------------------------------------


class ScalarSpan:
    """The RREF loop on Scalar entries, as Span ran it before its rows
    became raw: the reference for Span's raw arithmetic."""

    def __init__(self, tower, vectors=()):
        self.tower = tower
        self.rows = {}
        for v in vectors:
            self.add(v)

    def reduce(self, vec):
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {k: x for k, x in items if not x.is_zero}
        rows = self.rows
        for p in [k for k in v if k in rows]:
            f = v.pop(p)
            for k, x in rows[p].items():
                if k == p:
                    continue
                cur = v.get(k)
                nxt = -f * x if cur is None else cur - f * x
                if nxt.is_zero:
                    v.pop(k, None)
                else:
                    v[k] = nxt
        return v

    def add(self, vec):
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        inv = v[p].inv()
        row = {k: x * inv for k, x in v.items()}
        for other in self.rows.values():
            f = other.pop(p, None)
            if f is not None:
                for k, x in row.items():
                    if k == p:
                        continue
                    cur = other.get(k)
                    nxt = -f * x if cur is None else cur - f * x
                    if nxt.is_zero:
                        other.pop(k, None)
                    else:
                        other[k] = nxt
        self.rows[p] = row
        return True

    def basis_vectors(self, n):
        zero = self.tower.zero()
        out = []
        for p in sorted(self.rows):
            row = [zero] * n
            for k, x in self.rows[p].items():
                row[k] = x
            out.append(row)
        return out

    def kernel(self, n):
        zero, one = self.tower.zero(), self.tower.one()
        basis = []
        for f in range(n):
            if f in self.rows:
                continue
            vec = [zero] * n
            vec[f] = one
            for p, row in self.rows.items():
                if f in row:
                    vec[p] = -row[f]
            basis.append(vec)
        return basis


EXT = Tower()
S2 = EXT.adjoin_sqrt(EXT.from_int(2))   # height 1: Q(i)(sqrt 2)


def mixed_entries():
    # zero, Q(i) values and values that use sqrt 2, so one row mixes heights
    qi = st.builds(EXT.from_qi, st.integers(-2, 2), st.integers(-1, 1),
                   st.sampled_from([1, 2]))
    return st.one_of(st.just(EXT.zero()), qi,
                     st.builds(lambda x, y: x + y * S2, qi, qi))


@settings(max_examples=80)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(mixed_entries(), min_size=n, max_size=n), max_size=5),
    st.lists(mixed_entries(), min_size=n, max_size=n))))
def test_span_matches_scalar_oracle(data):
    n, vecs, w = data
    sp, ref = Span(EXT), ScalarSpan(EXT)
    for v in vecs:
        assert sp.add(v) == ref.add(v)
    assert sp.basis_vectors(n) == ref.basis_vectors(n)
    assert sp.kernel(n) == ref.kernel(n)
    # residuals agree entry by entry, in the same order
    assert list(sp.reduce(w).items()) == list(ref.reduce(w).items())
    assert list(sp.reduce(dict(enumerate(w))).items()) == \
        list(ref.reduce(w).items())
    assert sp.contains(w) == (not ref.reduce(w))
