"""The reference construction of classify rows for the tests: each row
built over q (x) A as the (x)^-product of its classes, each pulled back
along evaluation at its point, certified by the highest-weight criterion
over the split of q (x) A, its annihilator read off relation rows of the
averaged elements spanning the invariants, and the rows swept pairwise
for isomorphism.  classify_enumerate reads the same fields off per-class
data instead."""

from queeralg.coeffalg import GammaAction
from queeralg.hwmod import is_irreducible_hw
from queeralg.liesuper import is_isomorphic_weight
from queeralg.mapsuper import ann_and_support, invariants
from queeralg.products import (ClassificationRow, _assignments,
                               hat_tensor_weight, pullback)


def ev_module(ms, p, rho):
    """The q-module rho pulled back along evaluation at point p, written
    out, so that the reference does not go through EvMap."""
    values = [ms.coeff.evaluate(p, {j: ms.tower.one()})
              for j in range(ms.coeff.dim)]
    return pullback(rho, ms.algebra, ([(x, c)] for x in range(ms.g.dim)
                                      for c in values))


def row_module(ms, assignment, catalog):
    """(module, points) for an assignment {point: catalog name}: points
    lists the points of nontrivial class in increasing order, and the
    module over q (x) A is the product of their evaluation modules
    (ev_module) by hat_tensor_weight.  With no such point it is the
    trivial module."""
    points = sorted(p for p, name in assignment.items() if name != "trivial")
    if not points:
        return ev_module(ms, 0, catalog.module("trivial")), points
    cur = cur_s = None
    for p in points:
        factor = ev_module(ms, p, catalog.module(assignment[p]))
        s = catalog.weight_schur(assignment[p])
        if cur is None:
            cur, cur_s = factor, s
            continue
        cur, info = hat_tensor_weight(cur, factor, cur_s, s)
        cur_s = info["result_schur"]
    return cur, points


def reference_rows(ms, catalog, inv=None) -> list:
    """(row, module, (ann, support, reduced)) for every assignment, in
    classify_enumerate's order.  The module is row_module's at the orbit
    representatives, and row holds the report fields read off it.  The
    annihilator is ann_and_support's, with basis element e of q (x) A
    acting as its average over the group, so it is the annihilator of the
    module restricted to the invariants.  AssertionError when a row fails
    the criterion or two rows are isomorphic."""
    names = catalog.names()
    if inv is None:
        inv = invariants(ms, GammaAction(ms.tower, []))
    orbits = inv.gamma_report["orbits"]
    reps = [min(orbit) for orbit in orbits]
    out = []
    for assign in _assignments(orbits, names):
        module, points = row_module(ms, {p: assign[p] for p in reps}, catalog)
        why: dict = {}
        assert is_irreducible_hw(module, why), (assign, why.get("reason"))
        ann, supp, reduced = ann_and_support(module, ms, inv.averaged)
        row = ClassificationRow(
            assignment=dict(assign), dim=module.dim,
            graded_dims=module.graded_dims(), irreducible=True,
            schur_types=[catalog.weight_schur(assign[p]).is_type_q
                         for p in points],
            ann_basis=[[str(x) for x in v] for v in ann.basis],
            support=supp, reduced=reduced,
            top_weight=tuple(str(x) for x in module.maximal_weights()[0]))
        out.append((row, module, (ann, supp, reduced)))
    for i, (ri, mi, (ai, _, _)) in enumerate(out):
        for rj, mj, (aj, _, _) in out[i + 1:]:
            if ri.graded_dims == rj.graded_dims and ai == aj:
                assert not is_isomorphic_weight(mi, mj)[0], \
                    f"{ri.assignment} and {rj.assignment} are isomorphic"
    return out
