"""Dense references for the tests: the package keeps every vector as a
coordinate dict and every operator as its nonzero entries, and these
helpers expand and compare them against plain lists of Scalars."""

from queeralg.graded import GradedMap, mat_rref


def sparse(vec) -> dict:
    """The coordinate dict {index: Scalar} of the nonzero entries of a
    dense vector."""
    return {k: x for k, x in enumerate(vec) if not x.is_zero}


def dense(vec: dict, n: int, tower) -> list:
    """The dense vector of length n with the entries of a coordinate
    dict."""
    zero = tower.zero()
    return [vec.get(k, zero) for k in range(n)]


def rank(rows, ncols: int, tower) -> int:
    """Rank of dense rows or coordinate dicts."""
    return len(mat_rref([r if isinstance(r, dict) else sparse(r)
                         for r in rows], ncols, tower)[1])


def mat_mul(a, b, tower):
    """Dense product of two matrices given as rows."""
    n, m = len(a), len(b[0]) if b else 0
    out = [[tower.zero()] * m for _ in range(n)]
    for i, arow in enumerate(a):
        orow = out[i]
        for k, av in enumerate(arow):
            if av.is_zero:
                continue
            for j, bv in enumerate(b[k]):
                if not bv.is_zero:
                    orow[j] = orow[j] + av * bv
    return out


def ad_map(g, i: int) -> GradedMap:
    """ad e_i on the Lie superalgebra g, read off its bracket table:
    column j is the coordinate dict of [e_i, e_j]."""
    return GradedMap(g.tower, g.space, g.space,
                     {(k, j): s for j in range(g.dim)
                      for k, s in g.bk[i][j].items()})
