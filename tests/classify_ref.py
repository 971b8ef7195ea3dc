"""The reference construction of classify rows for the tests: each row
built as the (x)^-product of its classes over the sum of copies of q at
its points, certified by the highest-weight criterion, its annihilator
read off relation rows, and the rows swept pairwise for isomorphism.
classify_enumerate reads the same fields off per-class data instead."""

from queeralg.coeffalg import GammaAction
from queeralg.hwmod import is_irreducible_hw
from queeralg.liesuper import is_isomorphic_weight
from queeralg.mapsuper import EvMap, ann_and_support, invariants
from queeralg.products import ClassificationRow, _assignments, ev_hat


def cut_to(images, reps, points, n: int) -> list:
    """Vectors over (+)_reps g cut down to (+)_points g, for points
    inside reps and g of dimension n: copy t moves to copy s where
    points[s] = reps[t], and the other copies are dropped."""
    move = {reps.index(p): s for s, p in enumerate(points)}
    return [{move[i // n] * n + i % n: c for i, c in v.items()
             if i // n in move} for v in images]


def reference_rows(ms, catalog, inv=None) -> list:
    """(row, module, points, (ann, support, reduced)) for every
    assignment, in classify_enumerate's order.  The module is ev_hat's at
    the orbit representatives, and row holds the report fields read off
    it.  The annihilator is ann_and_support's, with each averaged element
    spanning the invariants acting through its evaluation at the points.
    AssertionError when a row fails the criterion or two rows are
    isomorphic."""
    names = catalog.names()
    if inv is None:
        inv = invariants(ms, GammaAction(ms.tower, []))
    orbits = inv.gamma_report["orbits"]
    reps = [min(orbit) for orbit in orbits]
    emap = EvMap(ms, reps)
    images = [emap.apply(v) for v in inv.averaged]
    out = []
    for assign in _assignments(orbits, names):
        module, points = ev_hat(ms, {p: assign[p] for p in reps}, catalog)
        why: dict = {}
        assert is_irreducible_hw(module, why), (assign, why.get("reason"))
        ann, supp, reduced = ann_and_support(
            module, ms, cut_to(images, reps, points, ms.g.dim))
        row = ClassificationRow(
            assignment=dict(assign), dim=module.dim,
            graded_dims=module.graded_dims(), irreducible=True,
            schur_types=[catalog.weight_schur(assign[p]).is_type_q
                         for p in points],
            ann_basis=[[str(x) for x in v] for v in ann.basis],
            support=supp, reduced=reduced,
            top_weight=tuple(str(x) for x in module.maximal_weights()[0]))
        out.append((row, module, points, (ann, supp, reduced)))
    for i, (ri, mi, _, (ai, _, _)) in enumerate(out):
        for rj, mj, _, (aj, _, _) in out[i + 1:]:
            if (ri.graded_dims, ai.key()) == (rj.graded_dims, aj.key()):
                assert not is_isomorphic_weight(mi, mj)[0], \
                    f"{ri.assignment} and {rj.assignment} are isomorphic"
    return out
