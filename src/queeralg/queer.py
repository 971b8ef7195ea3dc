"""The queer Lie superalgebra q(n) and its relatives.

q(n) is realized as the traceless slice {(A, B) : tr A = tr B = 0} of
pairs of (n+1) x (n+1) matrices, the even component acting as the
diagonal block pair and the odd component as the antidiagonal pair.  The
bracket is computed blockwise and, for odd-odd brackets, projected back
into the slice by removing the multiple of the identity.  Also provided:
the pre-quotient algebra (with the identity as an explicit basis vector),
the root datum, and the triangular decomposition.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import lcm

from .graded import EVEN, ODD, GradedSpace, GradedMap, Span, zero_rows
from .liesuper import LieSuper
from .scalars import Tower, raw_of


def _mat(tower: Tower, n1: int):
    return [[tower.zero()] * n1 for _ in range(n1)]


def _sparse_h(i: int) -> dict:
    return {(i, i): 1, (i + 1, i + 1): -1}


def _dense(tower: Tower, n1: int, m: dict):
    out = _mat(tower, n1)
    for (i, j), v in m.items():
        out[i][j] = tower.from_int(v)
    return out


class RootDatum:
    """Roots of q(n) relative to the even Cartan part, as functionals on
    the basis h[1], ..., h[n] of traceless diagonals."""

    def __init__(self, qd):
        # no reference back to qd: QueerData holds this datum, and a cycle
        # would keep the whole algebra alive until a full collection
        n = qd.n
        tower = qd.tower
        self.n = n
        self.positive_pairs = [(i, j) for i in range(1, n + 2)
                               for j in range(i + 1, n + 2)]
        self.simple_pairs = [(i, i + 1) for i in range(1, n + 1)]
        self.all_pairs = self.positive_pairs + \
            [(j, i) for i, j in self.positive_pairs]
        self._tuples = {}
        for (i, j) in self.all_pairs:
            self._tuples[(i, j)] = tuple(
                tower.from_int(self._eps_on_h(i, k) - self._eps_on_h(j, k))
                for k in range(1, n + 1))

    @staticmethod
    def _eps_on_h(i: int, k: int) -> int:
        # eps_i evaluated on h_k = E_kk - E_{k+1,k+1}
        return (1 if i == k else 0) - (1 if i == k + 1 else 0)

    def root_tuple(self, pair):
        return self._tuples[pair]

    def height(self, pair) -> int:
        i, j = pair
        return abs(j - i)

    def decompose_qplus(self, delta):
        """Write a weight difference as nonnegative-integer coordinates
        over the simple roots, or return None.

        The coordinates solve delta_m = 2 a_m - a_{m-1} - a_{m+1}
        (a_0 = a_{n+1} = 0), whose matrix is rational and invertible, so
        a delta with an entry outside Q has no rational solution.  The
        system is solved exactly in integers: N_m = (n+1) D a_m, with D
        the common denominator of delta."""
        n = self.n
        nums, dens = [], []
        for x in delta:
            q = raw_of(x)   # None for 0, (a, b, d) for (a + b i)/d in Q(i)
            if q is None:
                q = (0, 0, 1)
            elif q.__class__ is not tuple or q[1]:
                return None
            nums.append(q[0])
            dens.append(q[2])
        den = lcm(*dens)
        e = [a * (den // d) for a, d in zip(nums, dens)]   # D delta
        scale = (n + 1) * den
        # a_1 = sum_m (n+1-m)/(n+1) delta_m is row 1 of the inverse Cartan
        # matrix; forward substitution a_{m+1} = 2 a_m - a_{m-1} - delta_m
        # then gives the unique solution, so the last equation holds
        scaled = [0, sum((n + 1 - m) * e[m - 1] for m in range(1, n + 1))]
        for m in range(1, n):
            scaled.append(2 * scaled[m] - scaled[m - 1] - (n + 1) * e[m - 1])
        if any(v < 0 or v % scale for v in scaled[1:]):
            return None
        return tuple(v // scale for v in scaled[1:])


class QueerData:
    """q(n) with labeled basis, matrix realizations, root datum and
    triangular parts."""

    def __init__(self, tower: Tower, n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        if n == 1:
            warnings.warn("q(1) is not simple; constructions that assume "
                          "simplicity do not apply", stacklevel=3)
        self.tower = tower
        self.n = n
        n1 = n + 1
        labels = []
        units = []  # (parity, sparse integer matrix) of each basis vector
        for i in range(1, n + 1):
            labels.append(f"h{i}")
            units.append((EVEN, _sparse_h(i - 1)))
        offdiag = [(i, j) for i in range(1, n1 + 1) for j in range(1, n1 + 1)
                   if i != j]
        for i, j in offdiag:
            labels.append(f"e[{i},{j}]")
            units.append((EVEN, {(i - 1, j - 1): 1}))
        n_even = len(labels)
        for i in range(1, n + 1):
            labels.append(f"h'{i}")
            units.append((ODD, _sparse_h(i - 1)))
        for i, j in offdiag:
            labels.append(f"e'[{i},{j}]")
            units.append((ODD, {(i - 1, j - 1): 1}))
        self.space = GradedSpace(n_even, len(labels) - n_even, tuple(labels))
        self.index = {lbl: k for k, lbl in enumerate(labels)}
        zero = _mat(tower, n1)
        # (A, B) pairs
        self.mats = [(_dense(tower, n1, m), zero) if p == EVEN
                     else (zero, _dense(tower, n1, m)) for p, m in units]
        bk = _queer_structure(tower, n, units, self)
        self.algebra = LieSuper(tower, self.space, bk, name=f"q({n})")
        self.roots = RootDatum(self)
        # triangular parts (indices into the global basis)
        self.h0_indices = [self.index[f"h{i}"] for i in range(1, n + 1)]
        self.h1_indices = [self.index[f"h'{i}"] for i in range(1, n + 1)]
        self.cartan_indices = self.h0_indices + self.h1_indices
        self.npos_indices = [self.index[f"e[{i},{j}]"] for i, j in offdiag if i < j] + \
            [self.index[f"e'[{i},{j}]"] for i, j in offdiag if i < j]
        self.nneg_indices = [self.index[f"e[{i},{j}]"] for i, j in offdiag if i > j] + \
            [self.index[f"e'[{i},{j}]"] for i, j in offdiag if i > j]
        # the simple root vectors e_{alpha_k} and their odd twins, which
        # generate npos as a Lie superalgebra
        self.simple_pos_indices = \
            [self.index[f"e[{k},{k + 1}]"] for k in range(1, n + 1)] + \
            [self.index[f"e'[{k},{k + 1}]"] for k in range(1, n + 1)]
        self.borel_indices = sorted(self.cartan_indices + self.npos_indices)

    @property
    def dim(self) -> int:
        return self.space.dim

    # -- matrix <-> coordinates ------------------------------------------

    def diag_coords(self, diag):
        """Coefficients over h_1..h_n of a traceless diagonal (partial sums)."""
        acc = self.tower.zero()
        out = []
        for m in range(self.n):
            acc = acc + diag[m]
            out.append(acc)
        if not (acc + diag[self.n]).is_zero:
            raise ValueError("diagonal is not traceless")
        return out

    def coords_of_pair(self, a_mat, b_mat) -> dict:
        """Coordinates of a traceless pair (A, B) in the global basis."""
        out = {}
        n1 = self.n + 1
        for which, m in (("", a_mat), ("'", b_mat)):
            if m is None:
                continue
            for i in range(n1):
                for j in range(n1):
                    if i != j and not m[i][j].is_zero:
                        out[self.index[f"e{which}[{i + 1},{j + 1}]"]] = m[i][j]
            for k, c in enumerate(self.diag_coords([m[i][i] for i in range(n1)])):
                if not c.is_zero:
                    out[self.index[f"h{which}{k + 1}"]] = c
        return out

    # -- roots --------------------------------------------------------------

    def root_space(self, alpha):
        """Basis indices of the root space; alpha is an (i, j) pair, a
        weight tuple, or 0 for the Cartan subalgebra."""
        if alpha == 0:
            return list(self.cartan_indices)
        if isinstance(alpha, tuple) and len(alpha) == self.n and \
                not isinstance(alpha[0], int):
            matches = [p for p in self.roots.all_pairs
                       if self.roots.root_tuple(p) == tuple(alpha)]
            if not matches:
                raise ValueError("not a root")
            alpha = matches[0]
        i, j = alpha
        if i == j or not (1 <= i <= self.n + 1 and 1 <= j <= self.n + 1):
            raise ValueError("not a root")
        return [self.index[f"e[{i},{j}]"], self.index[f"e'[{i},{j}]"]]

    def weight_of(self, coords: dict):
        """ad-weight of an element under h_1..h_n, or None if the element
        is not ad-homogeneous."""
        one = self.tower.one()
        vals = []
        ref = {k: v for k, v in coords.items() if not v.is_zero}
        if not ref:
            return None
        for hidx in self.h0_indices:
            br = self.algebra.bracket({hidx: one}, ref)
            pivot = next(iter(ref))
            c = br.get(pivot, self.tower.zero()) / ref[pivot]
            scaled = {k: c * v for k, v in ref.items() if not (c * v).is_zero}
            if br != scaled:
                return None
            vals.append(c)
        return tuple(vals)

    def conj_automorphism(self, diag_entries) -> GradedMap:
        """Automorphism (A, B) -> (D A D^-1, D B D^-1) for an invertible
        diagonal D, as a parity-even map on q(n)."""
        tower = self.tower
        d = [tower._coerce(x) for x in diag_entries]
        if len(d) != self.n + 1 or any(x.is_zero for x in d):
            raise ValueError("need n+1 nonzero diagonal entries")
        rows = zero_rows(tower, self.dim, self.dim)
        for k in range(self.dim):
            a, b = self.mats[k]
            ca = [[d[i] * a[i][j] / d[j] for j in range(self.n + 1)]
                  for i in range(self.n + 1)]
            cb = [[d[i] * b[i][j] / d[j] for j in range(self.n + 1)]
                  for i in range(self.n + 1)]
            for t, c in self.coords_of_pair(ca, cb).items():
                rows[t][k] = c
        return GradedMap(tower, self.space, self.space, rows, parity=EVEN)


def _queer_structure(tower: Tower, n: int, units, qd: QueerData):
    """bk[i][j]: coordinates of [e_i, e_j], bracketing the basis matrices
    as sparse integer matrices.  Coordinates come in the order of
    QueerData.coords_of_pair: off-diagonal entries row by row, then the
    partial sums of the diagonal on h_1..h_n.  The arithmetic stays in
    integers; only the traceless projection of an anticommutator divides,
    by n + 1.  Each distinct (numerator, denominator) becomes one Scalar,
    shared by every entry that has it (Scalars are never mutated)."""
    n1 = n + 1
    index = qd.index
    # coordinate indices by parity of the bracket: "" even, "'" odd
    off = {p: {(i, j): index[f"e{w}[{i + 1},{j + 1}]"]
               for i in range(n1) for j in range(n1) if i != j}
           for p, w in ((EVEN, ""), (ODD, "'"))}
    diag = {p: [index[f"h{w}{k + 1}"] for k in range(n)]
            for p, w in ((EVEN, ""), (ODD, "'"))}
    # each unit's entries grouped by row: {row: [(column, value)]}
    by_row = []
    for _, x in units:
        rows: dict = {}
        for (i, j), v in x.items():
            rows.setdefault(i, []).append((j, v))
        by_row.append(rows)
    scalars: dict = {}

    def scalar(num, den=1):
        s = scalars.get((num, den))
        if s is None:
            s = scalars[(num, den)] = tower.from_fraction(Fraction(num, den))
        return s

    bk = []
    for (pi, x), xrows in zip(units, by_row):
        row = []
        for (pj, y), yrows in zip(units, by_row):
            # x*y + sign*y*x: the anticommutator for two odd units
            sign = 1 if pi == pj == ODD else -1
            m: dict = {}
            for (i, k), a in x.items():
                for j, b in yrows.get(k, ()):
                    m[(i, j)] = m.get((i, j), 0) + a * b
            for (i, k), a in y.items():
                for j, b in xrows.get(k, ()):
                    m[(i, j)] = m.get((i, j), 0) + sign * a * b
            coords = {}
            row.append(coords)
            if not m:
                continue
            offp, diagp = off[pi ^ pj], diag[pi ^ pj]
            dvals = [m.pop((t, t), 0) for t in range(n1)]
            for key in sorted(m):
                if m[key]:
                    coords[offp[key]] = scalar(m[key])
            # partial sums of the diagonal; an anticommutator is projected
            # back into the traceless slice, so its k-th partial sum loses
            # (k + 1) tr / n1 (a commutator has trace 0)
            tr = sum(dvals)
            acc = 0
            for k in range(n):
                acc += dvals[k]
                if tr:
                    num = n1 * acc - (k + 1) * tr
                    if num:
                        coords[diagp[k]] = scalar(num, n1)
                elif acc:
                    coords[diagp[k]] = scalar(acc)
        bk.append(row)
    return bk


def build_q(tower: Tower, n: int) -> QueerData:
    """q(n) with root datum and triangular decomposition; dim 2(n+1)^2 - 2."""
    return QueerData(tower, n)


def build_q_tilde(tower: Tower, n: int) -> LieSuper:
    """The pre-quotient algebra: pairs (A, B) with tr B = 0, including the
    identity pair as an explicit basis vector spanning the center."""
    n1 = n + 1
    zero = _mat(tower, n1)
    labels = ["I"]
    mats = [([[tower.one() if i == j else tower.zero() for j in range(n1)]
              for i in range(n1)], zero)]
    for i in range(1, n + 1):
        labels.append(f"h{i}")
        mats.append((_dense(tower, n1, _sparse_h(i - 1)), zero))
    for i in range(1, n1 + 1):
        for j in range(1, n1 + 1):
            if i != j:
                labels.append(f"e[{i},{j}]")
                mats.append((_dense(tower, n1, {(i - 1, j - 1): 1}), zero))
    n_even = len(labels)
    for i in range(1, n + 1):
        labels.append(f"h'{i}")
        mats.append((zero, _dense(tower, n1, _sparse_h(i - 1))))
    for i in range(1, n1 + 1):
        for j in range(1, n1 + 1):
            if i != j:
                labels.append(f"e'[{i},{j}]")
                mats.append((zero, _dense(tower, n1, {(i - 1, j - 1): 1})))
    space = GradedSpace(n_even, len(labels) - n_even, tuple(labels))

    index = {lbl: k for k, lbl in enumerate(labels)}

    def coords(a_mat, b_mat) -> dict:
        out = {}
        # even part: trace component on I, traceless rest on h's and e's
        tr = tower.zero()
        for t in range(n1):
            tr = tr + a_mat[t][t]
        shift = tr / tower.from_int(n1)
        if not shift.is_zero:
            out[0] = shift
        acc = tower.zero()
        for m in range(n):
            acc = acc + a_mat[m][m] - shift
            if not acc.is_zero:
                out[1 + m] = acc
        accb = tower.zero()
        for m in range(n):
            accb = accb + b_mat[m][m]
            if not accb.is_zero:
                out[n_even + m] = accb
        for i in range(n1):
            for j in range(n1):
                if i != j:
                    if not a_mat[i][j].is_zero:
                        out[index[f"e[{i + 1},{j + 1}]"]] = a_mat[i][j]
                    if not b_mat[i][j].is_zero:
                        out[index[f"e'[{i + 1},{j + 1}]"]] = b_mat[i][j]
        return out

    def matmul(x, y):
        out = _mat(tower, n1)
        for i in range(n1):
            for k in range(n1):
                if x[i][k].is_zero:
                    continue
                for j in range(n1):
                    if not y[k][j].is_zero:
                        out[i][j] = out[i][j] + x[i][k] * y[k][j]
        return out

    dim = len(mats)
    bk = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        ai, bi = mats[i]
        pi = space.parity(i)
        for j in range(dim):
            aj, bj = mats[j]
            pj = space.parity(j)
            if pi == EVEN and pj == EVEN:
                c = [[x - y for x, y in zip(r1, r2)]
                     for r1, r2 in zip(matmul(ai, aj), matmul(aj, ai))]
                d = _mat(tower, n1)
            elif pi == EVEN and pj == ODD:
                c = _mat(tower, n1)
                d = [[x - y for x, y in zip(r1, r2)]
                     for r1, r2 in zip(matmul(ai, bj), matmul(bj, ai))]
            elif pi == ODD and pj == EVEN:
                c = _mat(tower, n1)
                d = [[x - y for x, y in zip(r1, r2)]
                     for r1, r2 in zip(matmul(bi, aj), matmul(aj, bi))]
            else:
                c = [[x + y for x, y in zip(r1, r2)]
                     for r1, r2 in zip(matmul(bi, bj), matmul(bj, bi))]
                d = _mat(tower, n1)
            bk[i][j] = coords(c, d)
    return LieSuper(tower, space, bk, name=f"q~({n})")


def cartan_generation_check(qd: QueerData) -> bool:
    """Verify that odd Cartan brackets generate the even Cartan part:
    e_ii - e_jj = (1/2)[e'_ii - e'_jj, e'_ii + e'_jj - 2 e'_kk] for all
    admissible triples, and span[h1-part, h1-part] = h0-part."""
    tower = qd.tower
    n1 = qd.n + 1
    if qd.n < 2:
        return _cartan_span_dim(qd) == qd.n
    half = tower.from_fraction(Fraction(1, 2))
    for i in range(1, n1 + 1):
        for j in range(1, n1 + 1):
            if i == j:
                continue
            for k in range(1, n1 + 1):
                if k in (i, j):
                    continue
                u_diag = [tower.zero()] * n1
                u_diag[i - 1] = tower.one()
                u_diag[j - 1] = -tower.one()
                v_diag = [tower.zero()] * n1
                v_diag[i - 1] = tower.one()
                v_diag[j - 1] = tower.one()
                v_diag[k - 1] = tower.from_int(-2)
                u = qd.coords_of_pair(None, _diag_mat(tower, u_diag))
                v = qd.coords_of_pair(None, _diag_mat(tower, v_diag))
                lhs = {t: half * c for t, c in qd.algebra.bracket(u, v).items()}
                rhs = qd.coords_of_pair(_diag_mat(tower, u_diag), None)
                lhs = {t: c for t, c in lhs.items() if not c.is_zero}
                if lhs != rhs:
                    return False
    return _cartan_span_dim(qd) == qd.n


def _diag_mat(tower: Tower, diag):
    n1 = len(diag)
    m = _mat(tower, n1)
    for i in range(n1):
        m[i][i] = diag[i]
    return m


def _cartan_span_dim(qd: QueerData) -> int:
    one = qd.tower.one()
    sp = Span(qd.tower)
    for a in qd.h1_indices:
        for b in qd.h1_indices:
            br = qd.algebra.bracket({a: one}, {b: one})
            if br:
                sp.add(br)
    return sp.dim
