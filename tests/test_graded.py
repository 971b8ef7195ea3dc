import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dense_ref import dense, sparse
from queeralg.assocsuper import make_Q
from queeralg.graded import (EVEN, ODD, GradedMap, GradedSpace, Span,
                             _table_product, commutant, first_invertible,
                             graded_tensor, intertwiners, kernel, mat_kernel,
                             mat_rref, solve_columns, tensor_space)
from queeralg.queer import build_q
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
    return GradedMap.from_rows(K, src, tgt, rows, parity=parity)


def test_space_basics():
    v = GradedSpace(2, 1)
    assert v.dim == 3
    assert v.parities == (EVEN, EVEN, ODD)
    with pytest.raises(ValueError):
        GradedSpace(-1, 0)


def test_parity_inference_and_check(K):
    v = GradedSpace(1, 1)
    f = GradedMap.from_rows(K, v, v, [[K.zero(), K.one()], [K.zero(), K.zero()]])
    assert f.parity == ODD
    with pytest.raises(ValueError):
        GradedMap.from_rows(K, v, v, [[K.one(), K.one()], [K.zero(), K.zero()]],
                            parity=EVEN)


def test_kernel_examples(K):
    v11 = GradedSpace(1, 1)
    ks, _ = kernel(GradedMap.identity(K, v11))
    assert ks.dim == 0
    v21 = GradedSpace(2, 1)
    ks, _ = kernel(GradedMap.zero(K, v21, v21))
    assert (ks.even_dim, ks.odd_dim) == (2, 1)
    # parity-odd map on C^{1|1} with matrix [[0,1],[0,0]]: kernel = even line
    f = GradedMap.from_rows(K, v11, v11, [[K.zero(), K.one()], [K.zero(), K.zero()]])
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
            ops.append(GradedMap.from_rows(K, v, v, rows))
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


def test_intertwiners_keep_pairs_apart(K):
    # T a = a T for a nilpotent a: T in span(1, a).  A second pair with -a
    # adds the same equations up to sign; summed into shared rows the two
    # would cancel and leave every T.
    one = K.one()
    a = {(0, 1): one}
    slots = [(i, j) for i in range(2) for j in range(2)]
    alone = intertwiners([(a, a, 1)], slots, K)
    minus = {(0, 1): -one}
    assert len(alone) == 2
    assert intertwiners([(a, a, 1), (minus, minus, 1)], slots, K) == alone


def test_intertwiners_between_spaces(K):
    # T: K^1 -> K^2 with T a = b T, a = 0 on the source, b = E_{12} on the
    # target: b T = 0 forces T_2 = 0; the unknown T_1 is free
    one = K.one()
    slots = [((0,), "s"), ((1,), "s")]
    b = {((0,), (1,)): one}
    basis = intertwiners([({}, b, 1)], slots, K)
    assert basis == [{0: one}]


def test_space_from_parities():
    v = GradedSpace.from_parities([ODD, EVEN, ODD])
    assert (v.even_dim, v.odd_dim, v.dim) == (1, 2, 3)
    assert v.parity(0) == ODD and v.parities == (ODD, EVEN, ODD)
    assert v.labels == ("b0", "b1", "b2")
    assert GradedSpace.from_parities([EVEN, ODD]) == GradedSpace(1, 1)
    assert GradedSpace.from_parities([ODD, EVEN]) != GradedSpace(1, 1)
    with pytest.raises(ValueError):
        GradedSpace.from_parities([EVEN], labels=("a", "b"))


def _diag(K, *entries):
    v = GradedSpace(len(entries), 0)
    return GradedMap.from_rows(K, v, v, [[x if i == j else K.zero()
                                          for j, x in enumerate(entries)]
                                         for i in range(len(entries))])


def test_first_invertible_scan(K):
    one, zero = K.one(), K.zero()

    def full_rank(t):
        return t.rank() == t.source.dim

    def add(s, t):
        return s + t

    # K x K: both basis elements are singular, their sum is the identity
    e1, e2 = _diag(K, one, zero), _diag(K, zero, one)
    assert first_invertible([e1, e2], full_rank, add) == _diag(K, one, one)
    assert first_invertible([e1], full_rank, add) is None
    assert first_invertible([], full_rank, add) is None
    # three singular diagonal maps of K^3 whose pairwise sums stay
    # singular: beyond dimension 2 the scan refuses to answer
    e3 = _diag(K, zero, zero, one)
    f1, f2 = _diag(K, one, zero, zero), _diag(K, zero, one, zero)
    with pytest.raises(ValueError, match="3-dimensional"):
        first_invertible([f1, f2, e3], full_rank, add)


def test_span_incremental(K):
    sp = Span(K)
    assert sp.add(sparse([K.one(), K.zero(), K.one()]))
    assert sp.add(sparse([K.zero(), K.one(), K.one()]))
    assert not sp.add(sparse([K.one(), K.one(), K.from_int(2)]))
    assert sp.dim == 2
    assert sp.contains({0: K.from_int(3), 1: K.from_int(3), 2: K.from_int(6)})
    assert not sp.contains({0: K.one()})


def test_solve_and_kernel(K):
    rows = [{0: K.from_int(1), 1: K.from_int(2)},
            {0: K.from_int(2), 1: K.from_int(4)}]
    assert len(mat_rref(rows, 2, K)[1]) == 1
    ker = mat_kernel(rows, 2, K)
    assert len(ker) == 1
    [x] = solve_columns(rows, [{0: K.from_int(3), 1: K.from_int(6)}], 2, K)
    x = dense(x, 2, K)
    assert x[0] + 2 * x[1] == 3
    assert solve_columns(rows, [{0: K.one(), 1: K.one()}], 2, K) is None


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
    one = K.one()
    u, v = {0: one, 1: one}, {1: one, 2: one}
    assert Span(K, [u, v]).basis_vectors() == Span(K, [v, u]).basis_vectors()
    assert Span(K, [u, v]).basis_vectors() == \
        [{0: one, 2: -one}, {1: one, 2: one}]


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
    assert Span(QI, map(sparse, vecs)).basis_vectors() == \
        Span(QI, map(sparse, shuffled)).basis_vectors()


@settings(max_examples=60, deadline=None)
@given(vector_lists(), st.data())
def test_span_residual_avoids_pivots(data, draw):
    n, vecs = data
    w = draw.draw(qi_vectors(n))
    sp = Span(QI, map(sparse, vecs))
    res = sp.reduce(sparse(w))
    assert not set(res) & set(sp.rows)
    # w - residual lies in the span, and the residual is zero exactly on it
    diff = [x - res.get(k, QI.zero()) for k, x in enumerate(w)]
    assert sp.contains(sparse(diff))
    assert (not res) == sp.contains(sparse(w))
    assert is_rref([dense(r, n, QI) for r in sp.basis_vectors()],
                   sorted(sp.rows), n)


@settings(max_examples=60, deadline=None)
@given(vector_lists())
def test_mat_rref_is_reduced(data):
    n, rows = data
    sparse_rows = [sparse(r) for r in rows]
    rref, pivots = mat_rref(sparse_rows, n, QI)
    assert is_rref([dense(r, n, QI) for r in rref], pivots, n)
    assert len(rref) == Span(QI, sparse_rows).dim
    sp = Span(QI, rref)
    assert all(sp.contains(r) for r in sparse_rows)
    assert all(Span(QI, sparse_rows).contains(r) for r in rref)
    for x in mat_kernel(sparse_rows, n, QI):
        assert all(sum((r[k] * v for k, v in x.items()), QI.zero()).is_zero
                   for r in rows)
    assert len(mat_kernel(sparse_rows, n, QI)) == n - len(rref)


@settings(max_examples=40, deadline=None)
@given(vector_lists(max_vectors=4), st.data())
def test_solve_columns_matches_one_column_solves(data, draw):
    ncols, rows = data
    nrows = len(rows)
    rhs_cols = draw.draw(st.lists(qi_vectors(nrows), min_size=1, max_size=3))
    rows, rhs_cols = [sparse(r) for r in rows], [sparse(b) for b in rhs_cols]
    one_by_one = [solve_columns(rows, [b], ncols, QI) for b in rhs_cols]
    together = solve_columns(rows, rhs_cols, ncols, QI)
    if any(x is None for x in one_by_one):
        assert together is None
    else:
        assert together == [x for [x] in one_by_one]


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

    @classmethod
    def solve_columns(cls, tower, rows, rhs_cols, ncols):
        """The dense multi-right-hand-side solve, on [A | B]: None when
        some b_c is outside the column space of A."""
        ref = cls(tower, [list(r) + [b[i] for b in rhs_cols]
                          for i, r in enumerate(rows)])
        if any(p >= ncols for p in ref.rows):
            return None
        sols = [[tower.zero()] * ncols for _ in rhs_cols]
        for p, row in ref.rows.items():
            for c, x in enumerate(sols):
                x[p] = row.get(ncols + c, tower.zero())
        return sols


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
        assert sp.add(sparse(v)) == ref.add(v)
    basis, kern = sp.basis_vectors(), sp.kernel(n)
    assert [dense(v, n, EXT) for v in basis] == ref.basis_vectors(n)
    assert [dense(v, n, EXT) for v in kern] == ref.kernel(n)
    # residuals agree entry by entry, in the same order
    assert list(sp.reduce(sparse(w)).items()) == list(ref.reduce(w).items())
    assert list(sp.reduce(dict(enumerate(w))).items()) == \
        list(ref.reduce(w).items())
    assert sp.contains(sparse(w)) == (not ref.reduce(w))
    # solve_columns on the rows as A: b = A w and the first column of A
    # always have a solution, a unit vector over the rows may not
    rows = [sparse(v) for v in vecs]
    zero = EXT.zero()
    consistent = [[sum((a * x for a, x in zip(v, w)), zero) for v in vecs],
                  [v[0] for v in vecs]]
    unit = [[EXT.one()] + [zero] * (len(vecs) - 1)] if vecs else []
    sols = []
    for rhs in (consistent, unit):
        got = solve_columns(rows, [sparse(b) for b in rhs], n, EXT)
        want = ScalarSpan.solve_columns(EXT, vecs, rhs, n)
        assert (got is None) == (want is None)
        assert got is not None or rhs is unit
        if got is not None:
            assert [dense(x, n, EXT) for x in got] == want
            sols += got
    # no returned vector stores a zero
    assert all(not x.is_zero for v in basis + kern + sols for x in v.values())


def test_combination_matches_repeated_sums(K):
    rng = random.Random(5)
    sp = GradedSpace(2, 2)
    for parity in (EVEN, ODD):
        maps = [rand_map(K, rng, sp, sp, parity) for _ in range(4)]
        coeffs = [K.from_int(c) for c in (2, 0, -1, 3)]
        acc = GradedMap.zero(K, sp, sp)
        for c, m in zip(coeffs, maps):
            acc = acc + m * c
        got = GradedMap.combination(K, sp, sp, zip(coeffs, maps))
        assert got == acc and got.parity == parity
    # a sum that cancels is the even zero map; mixed parities are None
    m = rand_map(K, rng, sp, sp, ODD)
    zero = GradedMap.combination(K, sp, sp, [(K.one(), m), (-K.one(), m)])
    assert zero.is_zero and zero.parity == EVEN
    mixed = GradedMap.combination(
        K, sp, sp, [(K.one(), m), (K.one(), GradedMap.identity(K, sp))])
    assert mixed.parity is None and mixed == m + GradedMap.identity(K, sp)
    assert GradedMap.combination(K, sp, sp, []) == GradedMap.zero(K, sp, sp)


# ---------------------------------------------------------------------------
# The entry form of GradedMap against dense references
# ---------------------------------------------------------------------------


GK = Tower()
_gauss = st.builds(GK.from_qi, st.integers(-2, 2), st.integers(-2, 2))


def _draw_map(draw, src, tgt, parity):
    """A sparse map of the given parity: each allowed entry is left zero
    or drawn (a drawn value may be zero too)."""
    rows = [[draw(_gauss) if (tgt.parity(i) + src.parity(j)) % 2 == parity
             and draw(st.booleans()) else GK.zero() for j in range(src.dim)]
            for i in range(tgt.dim)]
    return GradedMap.from_rows(GK, src, tgt, rows, parity=parity)


def _dense_mul(a, b, ncols):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), GK.zero())
             for j in range(ncols)] for i in range(len(a))]


def _dense_tensor(f, g):
    """Koszul-signed tensor of dense matrices, by its definition."""
    src, sidx = tensor_space(f.source, g.source)
    tgt, tidx = tensor_space(f.target, g.target)
    rows = [[GK.zero()] * src.dim for _ in range(tgt.dim)]
    fr, gr = f.rows, g.rows
    for (i, k), r in tidx.items():
        for (j, l), c in sidx.items():
            sign = -1 if g.parity and f.source.parity(j) else 1
            rows[r][c] = fr[i][j] * gr[k][l] * sign
    return rows


def _dense_kernel(f):
    """The embedding rows of kernel(f) computed on dense blocks: the
    kernel basis of each parity block of columns, even first."""
    src = f.source
    cols_of = [[j for j in range(src.dim) if src.parity(j) == p]
               for p in (EVEN, ODD)]
    vecs = []
    for cols in cols_of:
        if cols:
            sub = [sparse([row[j] for j in cols]) for row in f.rows]
            for kvec in mat_kernel(sub, len(cols), GK):
                full = [GK.zero()] * src.dim
                for c, j in enumerate(cols):
                    full[j] = kvec.get(c, GK.zero())
                vecs.append(full)
    return [[v[i] for v in vecs] for i in range(src.dim)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_entry_arithmetic_matches_dense(data):
    draw = data.draw
    u, v, w = (GradedSpace(draw(st.integers(0, 3)), draw(st.integers(0, 2)))
               for _ in range(3))
    pf, pg = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    f, f2 = _draw_map(draw, u, v, pf), _draw_map(draw, u, v, pf)
    g = _draw_map(draw, v, w, pg)
    c, c2 = draw(_gauss), draw(_gauss)
    fr, f2r = f.rows, f2.rows

    results = []

    def check(m, rows, parity):
        assert m.rows == rows and m.parity == parity
        results.append(m)

    check(g * f, _dense_mul(g.rows, fr, u.dim), (pf + pg) % 2)
    check(f + f2, [[x + y for x, y in zip(a, b)] for a, b in zip(fr, f2r)],
          pf)
    check(f - f2, [[x - y for x, y in zip(a, b)] for a, b in zip(fr, f2r)],
          pf)
    check(f * c, [[x * c for x in a] for a in fr], pf)
    check(c * f, [[x * c for x in a] for a in fr], pf)
    check(-f, [[-x for x in a] for a in fr], pf)
    cancel = f + (-f)
    check(cancel, GradedMap.zero(GK, u, v).rows, pf)
    assert cancel.is_zero and cancel == GradedMap.zero(GK, u, v)
    comb = GradedMap.combination(GK, u, v, [(c, f), (c2, f2), (-c, f)])
    check(comb, [[y * c2 for y in b] for b in f2r],
          EVEN if comb.is_zero else pf)
    check(graded_tensor(f, g), _dense_tensor(f, g), (pf + pg) % 2)
    ks, emb = kernel(f)
    check(emb, _dense_kernel(f), EVEN)
    assert ks.dim + f.rank() == u.dim and (f * emb).is_zero
    assert (f == f2) == (fr == f2r)
    for m in results + [f, f2, g]:
        assert all(x.co for x in m.entries.values())
        assert all(0 <= i < m.target.dim and 0 <= j < m.source.dim
                   for i, j in m.entries)


# structure tables over GK: q(2)'s bracket and Q(2)'s product
_TABLES = {"q(2) bk": build_q(GK, 2).algebra.bk,
           "Q(2) mult": make_Q(GK, 2).mult}
_unit_sign = st.sampled_from([GK.one(), -GK.one()])


def _draw_sparse(draw, dim):
    """A coordinate dict on at most four basis vectors with entries +-1,
    so that products often land on one basis vector with opposite signs
    and cancel."""
    keys = draw(st.lists(st.integers(0, dim - 1), max_size=4, unique=True))
    return {k: draw(_unit_sign) for k in keys}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_table_product_matches_dense_and_stores_no_zero(data):
    """GradedMap equality and is_zero read a coordinate dict's keys, so
    the table product must drop every entry that cancels."""
    table = _TABLES[data.draw(st.sampled_from(sorted(_TABLES)))]
    dim = len(table)
    u, v = _draw_sparse(data.draw, dim), _draw_sparse(data.draw, dim)
    total = [GK.zero()] * dim
    for i, a in u.items():
        for j, b in v.items():
            for k, s in table[i][j].items():
                total[k] = total[k] + a * b * s
    got = _table_product(table, u, v)
    assert got == {k: x for k, x in enumerate(total) if x.co}
    assert all(x.co for x in got.values())


def test_table_product_drops_cancelled_entries():
    one = GK.one()
    q2 = build_q(GK, 2)
    h1, h2, e12 = (q2.index[x] for x in ("h1", "h2", "e[1,2]"))
    # [h1, e12] = 2 e12 and [h2, e12] = -e12
    assert _table_product(_TABLES["q(2) bk"], {h1: one, h2: 2 * one},
                          {e12: one}) == {}
    idx = make_Q(GK, 2).space.labels.index
    d11, d12, a11, a12 = (idx(x) for x in ("D[1,1]", "D[1,2]", "A[1,1]",
                                           "A[1,2]"))
    # D11 D12 = A11 A12 = D12 and D11 A12 = A11 D12 = A12
    assert _table_product(_TABLES["Q(2) mult"], {d11: one, a11: one},
                          {d12: one, a12: -one}) == {}
