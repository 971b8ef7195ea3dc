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

import functools
import warnings
from fractions import Fraction
from math import gcd, lcm

from .graded import EVEN, ODD, GradedSpace, GradedMap, Span
from .liesuper import LieSuper
from .scalars import Tower, raw_of


def _sparse_h(i: int) -> dict:
    return {(i, i): 1, (i + 1, i + 1): -1}


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

    def scaled_coords(self, delta):
        """(N, scale) with N_m / scale the rational coordinate a_m of a
        weight difference over the simple roots, or None when delta has
        an entry outside Q.

        The coordinates solve delta_m = 2 a_m - a_{m-1} - a_{m+1}
        (a_0 = a_{n+1} = 0), whose matrix is rational and invertible, so
        a delta with an entry outside Q has no rational solution.  The
        system is solved exactly in integers: N_m = (n+1) D a_m, with D
        the common denominator of delta, and scale = (n+1) D."""
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
        # a_1 = sum_m (n+1-m)/(n+1) delta_m is row 1 of the inverse Cartan
        # matrix; forward substitution a_{m+1} = 2 a_m - a_{m-1} - delta_m
        # then gives the unique solution, so the last equation holds
        scaled = [0, sum((n + 1 - m) * e[m - 1] for m in range(1, n + 1))]
        for m in range(1, n):
            scaled.append(2 * scaled[m] - scaled[m - 1] - (n + 1) * e[m - 1])
        return tuple(scaled[1:]), (n + 1) * den

    def decompose_qplus(self, delta):
        """Write a weight difference as nonnegative-integer coordinates
        over the simple roots, or return None (scaled_coords)."""
        sc = self.scaled_coords(delta)
        if sc is None:
            return None
        scaled, scale = sc
        if any(v < 0 or v % scale for v in scaled):
            return None
        return tuple(v // scale for v in scaled)


class QueerData:
    """q(n) with labeled basis, root datum and triangular parts.  units[k]
    is (parity, sparse integer matrix) of basis vector k, the matrix of
    its block (_queer_units).  Everything that depends on n alone comes
    from _queer_core, built once per n in a process; each instance gets
    its own lists, unit matrices and index, and a bracket table of
    Scalars of its own tower."""

    def __init__(self, tower: Tower, n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        if n == 1:
            warnings.warn("q(1) is not simple; constructions that assume "
                          "simplicity do not apply", stacklevel=3)
        core = _queer_core(n)
        self.tower = tower
        self.n = n
        self.units = [(p, dict(m)) for p, m in core.units]
        self.space = core.space
        self.index = dict(core.index)
        # triangular parts (indices into the global basis)
        self.h0_indices = list(core.h0_indices)
        self.h1_indices = list(core.h1_indices)
        self.cartan_indices = self.h0_indices + self.h1_indices
        self.npos_indices = list(core.npos_indices)
        self.nneg_indices = list(core.nneg_indices)
        self.algebra = LieSuper(tower, self.space, core.bind(tower),
                                name=f"q({n})",
                                triangular=(self.npos_indices,
                                            self.cartan_indices,
                                            self.nneg_indices),
                                generators=list(core.generators))
        self.roots = RootDatum(self)
        # the ad-weight of each basis vector, read off where the basis is
        # built: e[i,j] and e'[i,j] carry eps_i - eps_j, h_k and h'_k carry
        # 0 (weight_of recomputes it by bracketing with every h_k)
        zero_w = tuple(tower.zero() for _ in range(n))
        self.basis_root = [zero_w] * n + \
            [self.roots.root_tuple(p) for p in core.offdiag]
        self.basis_root += self.basis_root
        # the simple root vectors e_{alpha_k} and their odd twins, which
        # generate npos as a Lie superalgebra
        self.simple_pos_indices = list(core.simple_pos_indices)
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
        diagonal D, as a parity-even map on q(n).  Conjugation scales
        matrix entry (i, j) by d_i / d_j, and every unit is one
        off-diagonal entry or diagonal, so the map is diagonal: basis
        vector k goes to d_i / d_j times itself, (i, j) the first entry
        of its unit (1 on the h_k and h'_k)."""
        tower = self.tower
        d = [tower._coerce(x) for x in diag_entries]
        if len(d) != self.n + 1 or any(x.is_zero for x in d):
            raise ValueError("need n+1 nonzero diagonal entries")
        entries = {}
        for k, (_, m) in enumerate(self.units):
            i, j = next(iter(m))
            entries[(k, k)] = d[i] / d[j]
        return GradedMap(tower, self.space, self.space, entries, parity=EVEN)


def _queer_units(n: int):
    """(labels, units) of the basis of q(n): h_k, e[i,j], then h'_k,
    e'[i,j]; units[k] is (parity, sparse integer matrix) of basis vector
    k, the matrix of its block (diagonal for even, antidiagonal for
    odd)."""
    n1 = n + 1
    offdiag = [(i, j) for i in range(1, n1 + 1) for j in range(1, n1 + 1)
               if i != j]
    labels, units = [], []
    for parity, w in ((EVEN, ""), (ODD, "'")):
        for i in range(1, n + 1):
            labels.append(f"h{w}{i}")
            units.append((parity, _sparse_h(i - 1)))
        for i, j in offdiag:
            labels.append(f"e{w}[{i},{j}]")
            units.append((parity, {(i - 1, j - 1): 1}))
    return labels, units


class _QueerCore:
    """q(n), or q~(n) when tilde, before a tower is chosen: the units and
    labels of the basis, its index, and the bracket table in exact
    rationals (_queer_structure); for q(n) also the index lists of the
    triangular parts, the generators and the simple root vectors, and the
    off-diagonal entries in basis order.  Nothing here is written after
    construction; bind gives a tower its own Scalar table."""

    def __init__(self, n: int, tilde: bool):
        labels, units = _queer_units(n)
        if tilde:
            # q~(n) prepends the identity pair I, which spans the center
            labels = ["I"] + labels
            units = [(EVEN, {(i, i): 1 for i in range(n + 1)})] + units
        self.units = tuple(units)
        n_even = sum(1 for p, _ in units if p == EVEN)
        self.space = GradedSpace(n_even, len(labels) - n_even, tuple(labels))
        index = self.index = {lbl: k for k, lbl in enumerate(labels)}
        self.rationals, self.cells, self.table = _queer_structure(
            n, units, index, center=0 if tilde else None)
        if tilde:
            return   # q~(n) carries no triangular split
        n1 = n + 1
        self.offdiag = tuple((i, j) for i in range(1, n1 + 1)
                             for j in range(1, n1 + 1) if i != j)
        self.h0_indices = tuple(index[f"h{i}"] for i in range(1, n + 1))
        self.h1_indices = tuple(index[f"h'{i}"] for i in range(1, n + 1))
        upper = [(i, j) for i, j in self.offdiag if i < j]
        lower = [(i, j) for i, j in self.offdiag if i > j]
        self.npos_indices = tuple(index[f"e{w}[{i},{j}]"]
                                  for w in ("", "'") for i, j in upper)
        self.nneg_indices = tuple(index[f"e{w}[{i},{j}]"]
                                  for w in ("", "'") for i, j in lower)
        # the simple root vectors e_{+-alpha_k} and e'_{+-alpha_k} generate
        # q(n) (Cheng-Wang, ch. 1-2): [e[k,k+1], e[k+1,k]] and
        # [e[k,k+1], e'[k+1,k]] give h_k and h'_k, and the even and odd
        # root vectors follow by bracketing along the simple roots
        self.generators = tuple(sorted(
            index[f"e{w}[{i},{j}]"] for w in ("", "'")
            for k in range(1, n + 1) for i, j in ((k, k + 1), (k + 1, k))))
        self.simple_pos_indices = tuple(
            index[f"e{w}[{k},{k + 1}]"] for w in ("", "'")
            for k in range(1, n + 1))

    def bind(self, tower: Tower) -> list:
        """The bracket table over tower: bk[i][j] holds the coordinates of
        [e_i, e_j] as Scalars of tower, one per distinct rational, in the
        core's key order, each cell a dict of its own."""
        value = {q: tower.from_qi(q[0], 0, q[1]) for q in self.rationals}
        cells = [{k: value[num, den] for k, num, den in cell}
                 for cell in self.cells]
        return [[cells[c].copy() for c in row] for row in self.table]


@functools.cache
def _queer_core(n: int, tilde: bool = False) -> _QueerCore:
    """The core of q(n) (q~(n) when tilde), built once per process."""
    return _QueerCore(n, tilde)


def _queer_structure(n: int, units, index: dict, center=None):
    """The bracket table in exact rationals, as (rationals, cells, table):
    the coordinates of [e_i, e_j] are cells[table[i][j]], a tuple of
    (k, numerator, denominator) in lowest terms, cells[0] the empty one;
    rationals lists the distinct (numerator, denominator) pairs.

    The basis matrices are bracketed as sparse integer matrices, and only
    pairs whose product can be nonzero are visited: x y needs a unit with
    a row where x has a column, and y x a unit with a column where x has
    a row.  Each unordered pair is bracketed once: [e_j, e_i] has the
    entries of [e_i, e_j] in the same order, negated unless both are odd.
    Coordinates come in this order: off-diagonal entries row by row, then
    the partial sums of the diagonal on h_1..h_n (QueerData.diag_coords).
    The arithmetic stays in integers; only the traceless projection of an
    anticommutator divides, by n + 1.  When center is the index of the
    identity unit (q~(n)), the trace part tr/(n+1) that the projection
    removes is kept on it, after the other entries; otherwise it is
    dropped (q(n) is the quotient).  Equal cells are stored once."""
    n1 = n + 1
    dim = len(units)
    # coordinate indices by parity of the bracket: "" even, "'" odd
    off = {p: {(i, j): index[f"e{w}[{i + 1},{j + 1}]"]
               for i in range(n1) for j in range(n1) if i != j}
           for p, w in ((EVEN, ""), (ODD, "'"))}
    diag = {p: [index[f"h{w}{k + 1}"] for k in range(n)]
            for p, w in ((EVEN, ""), (ODD, "'"))}
    # each unit's entries grouped by row: {row: [(column, value)]}, and
    # the units with an entry in each matrix row and column
    by_row = []
    in_row: dict = {}
    in_col: dict = {}
    for u, (_, x) in enumerate(units):
        rows: dict = {}
        for (i, j), v in x.items():
            rows.setdefault(i, []).append((j, v))
            in_row.setdefault(i, set()).add(u)
            in_col.setdefault(j, set()).add(u)
        by_row.append(rows)
    cell_ids: dict = {(): 0}

    def cell_id(entries, sign):
        cell = []
        for k, v, d in entries:
            g = gcd(v, d)
            cell.append((k, sign * v // g, d // g))
        return cell_ids.setdefault(tuple(cell), len(cell_ids))

    table = [[0] * dim for _ in range(dim)]
    for a, ((pi, x), xrows) in enumerate(zip(units, by_row)):
        partners = set()
        for (i, k) in x:
            partners.update(in_row.get(k, ()), in_col.get(i, ()))
        for b in partners:
            if b < a:
                continue
            pj, y = units[b]
            # x*y + sign*y*x: the anticommutator for two odd units
            sign = 1 if pi == pj == ODD else -1
            m: dict = {}   # off-diagonal entries
            dg: dict = {}  # diagonal entries
            for (i, k), c in x.items():
                for j, d in by_row[b].get(k, ()):
                    t = dg if i == j else m
                    t[(i, j)] = t.get((i, j), 0) + c * d
            for (i, k), c in y.items():
                for j, d in xrows.get(k, ()):
                    t = dg if i == j else m
                    t[(i, j)] = t.get((i, j), 0) + sign * c * d
            offp, diagp = off[pi ^ pj], diag[pi ^ pj]
            entries = [(offp[key], v, 1) for key, v in sorted(m.items()) if v]
            if dg:
                # partial sums of the diagonal; an anticommutator is
                # projected back into the traceless slice, so its k-th
                # partial sum loses (k + 1) tr / n1 (a commutator has
                # trace 0)
                tr = sum(dg.values())
                acc = 0
                for k in range(n):
                    acc += dg.get((k, k), 0)
                    if tr:
                        num = n1 * acc - (k + 1) * tr
                        if num:
                            entries.append((diagp[k], num, n1))
                    elif acc:
                        entries.append((diagp[k], acc, 1))
                if tr and center is not None:
                    entries.append((center, tr, n1))
            if not entries:
                continue
            table[a][b] = cell_id(entries, 1)
            if b != a:
                table[b][a] = cell_id(entries, sign)
    cells = tuple(cell_ids)
    rationals = tuple(dict.fromkeys((num, den) for cell in cells
                                    for _, num, den in cell))
    return rationals, cells, tuple(map(tuple, table))


def build_q(tower: Tower, n: int) -> QueerData:
    """q(n) with root datum and triangular decomposition; dim 2(n+1)^2 - 2."""
    return QueerData(tower, n)


def build_q_tilde(tower: Tower, n: int) -> LieSuper:
    """The pre-quotient algebra: pairs (A, B) with tr B = 0, including the
    identity pair as an explicit basis vector I spanning the center.  Its
    table is q(n)'s with the trace part of each anticommutator kept on I
    (_queer_structure with center=0); the core is built once per n."""
    core = _queer_core(n, tilde=True)
    return LieSuper(tower, core.space, core.bind(tower), name=f"q~({n})")


def cartan_generation_check(qd: QueerData) -> bool:
    """Verify that odd Cartan brackets generate the even Cartan part:
    e_ii - e_jj = (1/2)[e'_ii - e'_jj, e'_ii + e'_jj - 2 e'_kk] for all
    admissible triples, and span[h1-part, h1-part] = h0-part."""
    tower = qd.tower
    n1 = qd.n + 1
    if qd.n < 2:
        return _cartan_span_dim(qd) == qd.n
    half = tower.from_fraction(Fraction(1, 2))

    def diag(indices, entries):
        # coordinates of a traceless diagonal over the basis vectors
        # indices (those of h_1..h_n, or of h'_1..h'_n)
        return {indices[m]: c for m, c in enumerate(qd.diag_coords(entries))
                if c.co}

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
                u = diag(qd.h1_indices, u_diag)
                v = diag(qd.h1_indices, v_diag)
                lhs = {t: half * c for t, c in qd.algebra.bracket(u, v).items()}
                if lhs != diag(qd.h0_indices, u_diag):
                    return False
    return _cartan_span_dim(qd) == qd.n


def _cartan_span_dim(qd: QueerData) -> int:
    one = qd.tower.one()
    return Span(qd.tower, (qd.algebra.bracket({a: one}, {b: one})
                           for a in qd.h1_indices for b in qd.h1_indices)).dim
