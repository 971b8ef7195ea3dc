"""Golden kernel bases of the intertwiner solvers.

tests/data/intertwiners.json holds, as strings, the bases that
hom_space_weight, module_hom_basis, commutant and odd_schur return on a
fixed set of q(2) modules: the adjoint, adjoint (+) adjoint, the two
evaluation modules of K[t]/(t^2 - 1), the sum of three trivial modules
(a 9-dimensional Hom space), their flattenings, and the
odd-rank Cartan module H(psi) (type Q).  The test compares them byte for
byte, so a change of slot order or of the kernel's column order shows
here.  Regenerate with `PYTHONPATH=src python tests/test_intertwiners.py`
only when a change of basis is intended.
"""

import json
from pathlib import Path

from queeralg import graded
from queeralg.cartanmod import CartanAlgebra, PsiFunctional, build_H
from queeralg.coeffalg import preset_base_field, preset_truncated
from queeralg.graded import EVEN, ODD, commutant
from queeralg.liesuper import module_hom_basis
from queeralg.mapsuper import tensor_lie
from queeralg.products import (Catalog, direct_sum_weight, ev_module,
                               hom_space_weight)
from queeralg.queer import build_q
from queeralg.scalars import Tower

GOLDEN = Path(__file__).resolve().parent / "data" / "intertwiners.json"


def _vec(v):
    return [str(x) for x in v]


def _map(t):
    return {"parity": t.parity, "rows": [_vec(r) for r in t.rows]}


def golden():
    K = Tower()
    q2 = build_q(K, 2)
    A = preset_truncated(K, [-K.one(), K.zero(), K.one()],
                         [(K.one(), 1), (-K.one(), 1)])
    ms = tensor_lie(q2, A)
    cat = Catalog(q2)
    ad, triv = cat.module("adjoint"), cat.module("trivial")
    mods = {"adjoint": ad, "adjoint+adjoint": direct_sum_weight(ad, ad),
            "ev0": ev_module(ms, 0, ad), "ev1": ev_module(ms, 1, ad),
            "trivial^3": direct_sum_weight(direct_sum_weight(triv, triv),
                                           triv)}
    flat = {name: m.flatten() for name, m in mods.items()}
    out = {}
    for src, tgt in (("adjoint", "adjoint"), ("adjoint", "adjoint+adjoint"),
                     ("ev0", "ev0"), ("ev1", "ev1"), ("ev0", "ev1"),
                     ("trivial^3", "trivial^3")):
        kern, slots = hom_space_weight(mods[src], mods[tgt])
        out[f"hom_space_weight {src} -> {tgt}"] = {
            "kernel": [_vec(v) for v in kern],
            "slots": [[_vec(w), i, j] for w, i, j in slots]}
        out[f"module_hom_basis {src} -> {tgt}"] = [
            _map(t) for t in module_hom_basis(flat[src], flat[tgt])]
    for name in ("adjoint", "ev0", "ev1", "trivial^3"):
        m = flat[name]
        for par in (EVEN, ODD):
            out[f"commutant {name} parity {par}"] = [
                _map(t) for t in commutant(m.mats, m.space, K, par)]
    # the odd-rank H(psi) of test_phi_attached_for_odd_rank: type Q
    ctx = CartanAlgebra(q2, preset_base_field(K))
    s = K.adjoin_sqrt(K.from_int(-3))
    h = build_H(PsiFunctional(ctx, [K.from_int(2), K.from_int(-1) + s]))
    ops = [x for x in h.cartan_mats if not x.is_zero]
    for par in (EVEN, ODD):
        out[f"commutant H(psi) parity {par}"] = [
            _map(t) for t in commutant(ops, h.carrier, K, par)]
    phi, c = graded.odd_schur(graded.homogeneous_entries(ops), h.carrier, K)
    out["odd_schur H(psi)"] = {"phi": _map(phi), "c": str(c),
                               "attached": _map(h.phi)}
    return out


def _dump(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_intertwiner_bases_match_golden():
    assert _dump(golden()) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(_dump(golden()), encoding="utf-8")
