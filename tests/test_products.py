import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import queeralg.liesuper as liesuper
import queeralg.mapsuper as mapsuper
import queeralg.products as products
from queeralg.assocsuper import density_type_from_maps, make_Q
from queeralg.cartanmod import CartanAlgebra, PsiFunctional, build_H
from queeralg.coeffalg import (algebra_from_spec, gamma_from_spec,
                               preset_truncated)
from queeralg.graded import (EVEN, ODD, GradedMap, GradedSpace, Span,
                             commutant, homogeneous_entries, nonzero_entries,
                             odd_schur)
from queeralg.hwmod import is_irreducible_hw, top_psi
from queeralg.liesuper import (LieSuper, WeightModule, direct_sum_weight,
                               from_assoc, hom_map, hom_space_weight,
                               is_isomorphic_flat, is_isomorphic_weight)
from queeralg.mapsuper import ann_and_support, ev_rank, invariants, tensor_lie
from queeralg.products import (Catalog, WeightSchur, adjoint_q_module,
                               assoc_check, classify_enumerate, ev_pullback,
                               hat_tensor_weight, outer_factors, q1_module,
                               restrict_to_invariants, tensor_same_algebra,
                               twist_q_module, weight_schur_data)
from queeralg.queer import build_q
from queeralg.scalars import Tower

from classify_ref import ev_module, reference_rows, row_module


@pytest.fixture(scope="module")
def env():
    K = Tower()
    q2 = build_q(K, 2)
    A = preset_truncated(K, [-K.one(), K.zero(), K.one()],
                         [(K.one(), 1), (-K.one(), 1)])
    ms = tensor_lie(q2, A)
    cat = Catalog(q2)
    return {"K": K, "q2": q2, "A": A, "ms": ms, "cat": cat}


def test_schur_data_types(env):
    K = env["K"]
    m = q1_module(K)
    s = weight_schur_data(m)
    assert s.is_type_q
    phi = _phi_flat(m, s.phi_blocks)
    assert (phi * phi) == GradedMap.identity(K, phi.source) * (-1)
    # trivial module: even only
    triv = env["cat"].weight_schur("trivial")
    flat = env["cat"].module("trivial")
    assert not triv.is_type_q
    assert len(commutant(flat.mats, flat.space, K, parity_filter=EVEN)) == 1


def test_schur_phi_is_P_action(env):
    # the odd commutant of C^{1|1} over Q(1) is spanned by the action of
    # the odd involution with square -1
    K = env["K"]
    m = q1_module(K)
    phi = _phi_flat(m, weight_schur_data(m).phi_blocks)
    assert phi.parity == 1
    sq = phi * phi
    assert sq.rows[0][0] == sq.rows[1][1] and not sq.rows[0][0].is_zero


def test_schur_rejects_reducible(env):
    """Both certificates: the density oracle for C^{1|1} (+) C^{1|1} over
    Q(1), the highest-weight criterion for a sum of q(2)-modules."""
    qone = q1_module(env["K"])
    with pytest.raises(ValueError, match="module is not irreducible: "
                                         "density oracle"):
        weight_schur_data(direct_sum_weight(qone, qone))
    cat = env["cat"]
    with pytest.raises(ValueError, match="module is not irreducible: "
                                         "singular vectors below the top"):
        weight_schur_data(direct_sum_weight(cat.module("adjoint"),
                                            cat.module("trivial")))


@pytest.fixture(scope="module")
def q3():
    return build_q(Tower(), 3)


def _flat_schur_reference(m):
    """The Schur data of m from graded.odd_schur over all of End(V) on
    its flat view, normalized to phi^2 = -id and cut into weight blocks
    here; phi must vanish off the blocks."""
    K = m.tower
    found = odd_schur(homogeneous_entries(m.mats), m.space, K)
    if found is None:
        return WeightSchur(False, None)
    phi, c = found
    rows = (phi * K.adjoin_sqrt(-c.inv())).rows
    idx = m.flat_index()
    blocks = {w: nonzero_entries([[rows[idx[(w, i)]][idx[(w, j)]]
                                   for j in range(m.block_dim(w))]
                                  for i in range(m.block_dim(w))])
              for w in m.weights}
    assert len(nonzero_entries(rows)) == \
        sum(len(b) for b in blocks.values())
    return WeightSchur(True, blocks)


def _scaled_qone(K):
    """C^{1|1} over Q(1) with the odd generator acting by [[0, 2], [1/2, 0]]
    instead of the swap: its first odd supercommutant squares to -4 id."""
    one, two = K.one(), K.from_int(2)
    return WeightModule(from_assoc(make_Q(K, 1)), K, [()], {(): (EVEN, ODD)},
                        [{(): [((), {(0, 0): one, (1, 1): one})]},
                         {(): [((), {(0, 1): two, (1, 0): two.inv()})]}])


@pytest.mark.parametrize("n", [2, 3])
def test_weight_schur_phi_matches_flat_solve(env, q3, n):
    """The weight-block solve gives the flat solve's phi entry for entry:
    on the catalog entries of q(n), on C^{1|1} and a rescaled C^{1|1}
    (phi^2 = -4 id before normalization), and on adjoint (x) C^{1|1} over
    q(n) (+) Q(1), a type-Q module of dimension 2 dim q(n).  The product
    is irreducible by the type rule, so its solve skips the density
    certificate (3 s over q(3))."""
    from queeralg.products import _solve_weight_schur
    qd = env["q2"] if n == 2 else q3
    K = qd.tower
    cat = Catalog(qd)
    qone, scaled = q1_module(K), _scaled_qone(K)
    assert odd_schur(homogeneous_entries(scaled.mats), scaled.space,
                     K)[1] == -4
    prod, _ = _hat(cat.module("adjoint"), qone, cat.weight_schur("adjoint"),
                   weight_schur_data(qone))
    mods = {"trivial": cat.module("trivial"),
            "adjoint": cat.module("adjoint"), "qone": qone,
            "scaled qone": scaled, "adjoint (x) qone": prod}
    got = {"trivial": cat.weight_schur("trivial"),
           "adjoint": cat.weight_schur("adjoint"),
           "qone": weight_schur_data(qone),
           "scaled qone": weight_schur_data(scaled),
           "adjoint (x) qone": _solve_weight_schur(prod)}
    for name, m in mods.items():
        assert got[name] == _flat_schur_reference(m), name
    assert [s.is_type_q for s in got.values()] == \
        [False, False, True, True, True]
    phi = _phi_flat(scaled, got["scaled qone"].phi_blocks)
    assert phi * phi == GradedMap.identity(K, phi.source) * (-1)


@pytest.mark.parametrize("n", [2, 3])
def test_catalog_schur_needs_no_flat_oracle(env, q3, n, monkeypatch):
    """Catalog entries are certified by the highest-weight criterion: with
    the flat density oracle of products disabled, weight_schur still
    works and gives the flat solve's data."""
    qd = env["q2"] if n == 2 else q3
    cat = Catalog(qd)
    with monkeypatch.context() as mp:
        def refuse(*args, **kwargs):
            raise AssertionError("flat density oracle called")
        mp.setattr("queeralg.products.density_type_from_maps", refuse)
        got = {name: cat.weight_schur(name)
               for name in ("trivial", "adjoint")}
    for name, s in got.items():
        assert s == _flat_schur_reference(cat.module(name))


def test_catalog_schur_refuses_reducible_entry(env):
    cat = Catalog(env["q2"])
    cat.add("sum", direct_sum_weight(cat.module("adjoint"),
                                     cat.module("trivial")))
    with pytest.raises(ValueError, match="'sum' is not irreducible: "
                                         "singular vectors below the top"):
        cat.weight_schur("sum")


@pytest.mark.parametrize("n", [2, 3])
def test_catalog_criterion_agrees_with_flat_oracle(env, q3, n):
    qd = env["q2"] if n == 2 else q3
    cat = Catalog(qd)
    ad, triv = cat.module("adjoint"), cat.module("trivial")
    for m in (triv, ad, direct_sum_weight(ad, triv)):
        oracle = density_type_from_maps(m.mats, m.space, qd.tower)
        assert is_irreducible_hw(m) == \
            oracle.certifies_irreducible


def _hat(m1, m2, s1, s2):
    """V1 hat-x V2 over g1 (+) g2."""
    return hat_tensor_weight(*outer_factors(m1, m2, s1, s2))


def _adjoint_qone(env):
    cat = env["cat"]
    qone = q1_module(env["K"])
    return _hat(cat.module("adjoint"), qone, cat.weight_schur("adjoint"),
                weight_schur_data(qone))


def test_product_type_rule(env):
    K, cat = env["K"], env["cat"]
    qone = q1_module(K)
    s_q = weight_schur_data(qone)
    ad, s_ad = cat.module("adjoint"), cat.weight_schur("adjoint")
    prod, info = _adjoint_qone(env)
    s = info["result_schur"]
    assert s.is_type_q and not info["split"]
    # phi = 1 (x) phi_hat squares to -id
    phi = _phi_flat(prod, s.phi_blocks)
    assert phi * phi == GradedMap.identity(K, prod.space) * (-1)
    _, info2 = _hat(qone, qone, s_q, s_q)
    assert info2["split"] and not info2["result_schur"].is_type_q
    _, info3 = _hat(ad, ad, s_ad, s_ad)
    assert not info3["result_schur"].is_type_q


def test_product_phi_check_rejects_corrupted_phi(env):
    """Mutations of phi on adjoint (x) C^{1|1}: a wrong scale breaks
    phi^2 = -id, a non-scalar even twist on the first factor keeps
    phi^2 = -id but breaks supercommutation, and an even map is refused."""
    from queeralg.products import _check_product_phi
    K = env["K"]
    prod, info = _adjoint_qone(env)
    phi = info["result_schur"].phi_blocks
    _check_product_phi(prod, phi)
    _, _, pair_basis, _, _ = prod.pair_data
    # flip (x) 1 with flip = -1 on the first basis vector of the adjoint
    twisted = {w: {(r, c): -v if pair_basis[t][r][:2] == (0, 0) else v
                   for (r, c), v in phi[w].items()}
               for t, w in enumerate(prod.weights)}
    ident = {w: {(i, i): K.one() for i in range(prod.block_dim(w))}
             for w in phi}
    cases = [
        ({w: {k: v * 2 for k, v in b.items()} for w, b in phi.items()},
         "square to -id"),
        (twisted, "supercommute"),
        (ident, "not odd"),
    ]
    for bad, msg in cases:
        with pytest.raises(AssertionError, match=msg):
            _check_product_phi(prod, bad)


def test_split_operator_check_rejects_unnormalized_phi(env):
    """A phi of square -4 id on a type-Q factor makes
    (phi1_tilde (x) phi2)^2 = 4 id: the split refuses it."""
    qone = q1_module(env["K"])
    s_q = weight_schur_data(qone)
    bad = WeightSchur(True, {w: {k: v * 2 for k, v in b.items()}
                             for w, b in s_q.phi_blocks.items()})
    with pytest.raises(AssertionError, match="normalization broken"):
        _hat(qone, qone, bad, s_q)


def test_hat_tensor_split_and_iso(env):
    K = env["K"]
    m = q1_module(K)
    s = weight_schur_data(m)
    prod, info = _hat(m, m, s, s)
    assert info["split"]
    assert prod.dim == 2 and info["minus"].dim == 2
    ok, _ = is_isomorphic_weight(info["plus"], info["minus"])
    assert ok
    assert density_type_from_maps(prod.mats, prod.space, K).kind == "full"


def test_hat_tensor_trivial_factor(env):
    # tensor with a trivial one-dimensional module returns the same dims
    from queeralg.graded import EVEN
    K = env["K"]
    m = q1_module(K)
    triv = WeightModule(m.algebra, K, [()], {(): (EVEN,)}, [{}, {}])
    prod, info = _hat(m, triv, weight_schur_data(m), weight_schur_data(triv))
    assert not info["split"] and prod.dim == 2


def test_assoc_check_three_q_factors(env):
    K = env["K"]
    m = q1_module(K)
    assert assoc_check(m, m, m)


def test_outer_factors_weights_and_pullbacks(env):
    """adjoint (x) adjoint over q(2) (+) q(2): each factor acts through its
    own summand, the weights are (w, 0) and (0, w), and the product's
    weights are the pairs (w1, w2)."""
    cat = env["cat"]
    ad, s = cat.module("adjoint"), cat.weight_schur("adjoint")
    p1, p2, t1, t2 = outer_factors(ad, ad, s, s)
    zero = (env["K"].zero(),) * 2
    assert set(p1.weights) == {w + zero for w in ad.weights}
    assert set(p2.weights) == {zero + w for w in ad.weights}
    assert p1.qd is None and p2.qd is None
    n = ad.algebra.dim
    assert p1.algebra.dim == p2.algebra.dim == 2 * n
    flat, f1, f2 = ad.mats, p1.mats, p2.mats
    for g in range(n):
        assert f1[g].rows == flat[g].rows and f1[n + g].is_zero
        assert f2[n + g].rows == flat[g].rows and f2[g].is_zero
    assert (t1, t2) == (s, s) and not s.is_type_q
    prod, info = hat_tensor_weight(p1, p2, t1, t2)
    assert not info["split"] and prod.dim == 256
    assert set(prod.weights) == {w1 + w2 for w1 in ad.weights
                                 for w2 in ad.weights}


@pytest.mark.parametrize("r,order,scale", [(2, 2, "-1"), (3, 4, "i")])
def test_twisted_classify_builds_group_elements_once(tmp_path, monkeypatch,
                                                     capsys, r, order, scale):
    """A whole twisted classify (validation, invariants and the twist
    check of every catalog class) builds the group elements once: the
    GradedMap products made inside GammaAction.elements are those of one
    build of a cyclic group, an a-map and a q-map product per step."""
    import json
    from queeralg.cli import main
    made = []
    real = GradedMap.__mul__

    def counted(self, other):
        if sys._getframe(1).f_code.co_name == "elements":
            made.append(order)
        return real(self, other)
    monkeypatch.setattr(GradedMap, "__mul__", counted)
    alg, grp = tmp_path / "algebra.json", tmp_path / "group.json"
    alg.write_text(json.dumps({
        "type": "poly_quotient",
        "modulus": [str(-r ** 4), "0", "0", "0", "1"],
        "roots": [str(r), str(-r), f"{r}*i", f"-{r}*i"]}))
    grp.write_text(json.dumps({"generators": [{
        "order": order,
        "on_algebra": {"type": "substitute_t", "scale": scale},
        "on_q": {"type": "diag_conj", "diag": ["1", "1", "-1"]}}]}))
    assert main(["classify", "--n", "2", "--algebra", str(alg),
                 "--group", str(grp)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("classification over q(2), twisted\n")
    assert len(made) == 2 * (order - 1)


def test_decompose_reaches_type_q_branches(monkeypatch, capsys):
    """adjoint,qone,qone: the first step takes phi from the qone factor
    and checks it, the second splits and restricts to both halves."""
    import queeralg.products as products
    from queeralg.cli import main
    calls = {"_tensor_phi_blocks": 0, "_check_product_phi": 0,
             "restrict_weight_module": 0}
    for name in calls:
        real = getattr(products, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(products, name, counted)
    assert main(["decompose", "--n", "2",
                 "--factors", "adjoint,qone,qone"]) == 0
    assert "splits V(32) (+) V(32)" in capsys.readouterr().out
    assert calls == {"_tensor_phi_blocks": 1, "_check_product_phi": 1,
                     "restrict_weight_module": 2}


def assert_entry_blocks(m, phi=None):
    """The block form: every block of m, and every block of phi, is a
    nonempty dict of nonzero entries keyed inside the block's
    dimensions."""
    def check(blk, nrows, ncols):
        assert isinstance(blk, dict) and blk
        for (r, c), v in blk.items():
            assert 0 <= r < nrows and 0 <= c < ncols and not v.is_zero
    for acts in m.act:
        for w, blks in acts.items():
            for wt, blk in blks:
                check(blk, m.block_dim(wt), m.block_dim(w))
    for w, blk in (phi or {}).items():
        check(blk, m.block_dim(w), m.block_dim(w))


@pytest.mark.parametrize("twisted", [False, True])
def test_classify_builds_entry_blocks_only(tmp_path, monkeypatch, capsys,
                                           refuse_zero_rows, twisted):
    """classify over two points, and over four points under t -> -t with
    diag_conj (1, 1, -1), fills no dense zero matrix in any module (every
    binding of zero_rows refuses: group validation, invariants,
    evaluation rank, twist check and catalog checks included), and every
    module it certifies, the catalog's trivial and adjoint entries and no
    row, holds the block form."""
    import json
    from queeralg.cli import main
    seen = []
    real = products.is_irreducible_hw

    def certify(m, why):
        assert_entry_blocks(m)
        seen.append(m.dim)
        return real(m, why)
    monkeypatch.setattr(products, "is_irreducible_hw", certify)
    alg = tmp_path / "algebra.json"
    grp = tmp_path / "group.json"
    args = ["classify", "--n", "2", "--algebra", str(alg)]
    if twisted:
        alg.write_text(json.dumps({
            "type": "poly_quotient", "modulus": ["-16", "0", "0", "0", "1"],
            "roots": ["2", "-2", "2*i", "-2*i"]}))
        grp.write_text(json.dumps({"generators": [{
            "order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
            "on_q": {"type": "diag_conj", "diag": ["1", "1", "-1"]}}]}))
        args += ["--group", str(grp)]
    else:
        alg.write_text(json.dumps({"type": "poly_quotient",
                                   "modulus": ["-1", "0", "1"],
                                   "roots": ["1", "-1"]}))
    assert main(args) == 0
    assert capsys.readouterr().err == ""
    assert sorted(seen) == [1, 16]


def test_products_and_quotient_hold_entry_blocks(env):
    """The decompose products qone,qone (split: the full product and both
    halves) and adjoint,qone (with its phi), and the conclusive simple
    quotient of q(2) at psi = (1, 1)."""
    from queeralg.coeffalg import preset_base_field
    from queeralg.hwmod import simple_quotient
    K, q2 = env["K"], env["q2"]
    qone = q1_module(K)
    s_q = weight_schur_data(qone)
    assert_entry_blocks(qone, s_q.phi_blocks)
    plus, info = _hat(qone, qone, s_q, s_q)
    assert info["split"]
    for m in (info["full"], plus, info["minus"]):
        assert_entry_blocks(m)
    prod, info = _adjoint_qone(env)
    assert_entry_blocks(prod, info["result_schur"].phi_blocks)
    base = preset_base_field(K)
    psi = PsiFunctional(CartanAlgebra(q2, base), [K.one(), K.one()])
    sq = simple_quotient(tensor_lie(q2, base), psi, 6)
    assert sq.conclusive and sq.module.dim == 16
    assert_entry_blocks(sq.module)


def test_ev_module_and_ann(env):
    K, q2, ms, cat = env["K"], env["q2"], env["ms"], env["cat"]
    ad0 = ev_pullback(ms, 0, cat.module("adjoint"))
    ann, supp, reduced = ann_and_support(ad0, ms)
    assert supp == [0] and reduced
    ad0.check()


def test_ev_hat_trivial_everywhere(env):
    ms, cat = env["ms"], env["cat"]
    mod, points = row_module(ms, {}, cat)
    assert mod.dim == 1 and mod.algebra is ms.algebra
    assert not points


def test_prop_irred_tensor_dichotomy(env):
    # disjoint supports: the tensor product is irreducible or V^ (+) V^;
    # with type-M adjoints the first branch is realized and exactness of
    # the dichotomy is the assertion that the module is irreducible
    K, ms, cat = env["K"], env["ms"], env["cat"]
    ad0 = ev_pullback(ms, 0, cat.module("adjoint"))
    ad1 = ev_pullback(ms, 1, cat.module("adjoint"))
    full = tensor_same_algebra(ad0, ad1)
    ws = cat.weight_schur("adjoint")
    if ws.is_type_q:
        from queeralg.products import hat_tensor_weight
        plus, info = hat_tensor_weight(ad0, ad1, ws, ws)
        assert info["split"]
        assert plus.dim * 2 == full.dim
        ok, _ = is_isomorphic_weight(plus, info["minus"])
        assert ok and is_irreducible_hw(plus)
    else:
        assert is_irreducible_hw(full)


def test_top_character_additivity(env):
    K, q2, A, ms, cat = env["K"], env["q2"], env["A"], env["ms"], env["cat"]
    ctx = CartanAlgebra(q2, A)
    row, _ = row_module(ms, {0: "adjoint", 1: "adjoint"}, cat)
    psi = top_psi(row, ms, ctx)
    expect = PsiFunctional.evaluation(ctx, 0, [1, 1]) + \
        PsiFunctional.evaluation(ctx, 1, [1, 1])
    assert psi == expect


def test_hom_separates_points(env):
    ms, cat = env["ms"], env["cat"]
    ad0 = ev_pullback(ms, 0, cat.module("adjoint"))
    ad1 = ev_pullback(ms, 1, cat.module("adjoint"))
    kerns, slots = hom_space_weight(ad0, ad1)
    assert kerns == []
    ok, _ = is_isomorphic_weight(ad0, ad1)
    assert not ok
    ok_self, wit = is_isomorphic_weight(ad0, ad0)
    assert ok_self and wit is not None


def _three_trivials(env):
    triv = env["cat"].module("trivial")
    return direct_sum_weight(direct_sum_weight(triv, triv), triv)


def test_iso_scan_on_three_trivials_weight(env):
    # Hom = M_3(K): every basis element E_ij and every sum of two has
    # rank <= 2, so the scan cannot decide; it must not answer "no"
    t3 = _three_trivials(env)
    with pytest.raises(ValueError, match="9-dimensional"):
        is_isomorphic_weight(t3, t3)


def test_iso_scan_on_three_trivials_flat(env):
    t3 = _three_trivials(env)
    flat = WeightModule.from_flat(t3.algebra, t3.space, t3.mats)
    with pytest.raises(ValueError, match="9-dimensional"):
        is_isomorphic_flat(flat, flat)


def test_iso_scan_finds_identity_among_sums(env):
    # Hom(ad + ad, ad + ad) = M_2(K): the sum E_11 + E_22 is invertible
    ad = env["cat"].module("adjoint")
    two = direct_sum_weight(ad, ad)
    ok, wit = is_isomorphic_weight(two, two)
    assert ok and wit.rank() == two.dim
    flat = WeightModule.from_flat(two.algebra, two.space, two.mats)
    ok, wit = is_isomorphic_flat(flat, flat)
    assert ok and wit.rank() == two.dim


def test_flat_against_weight_module_is_refused(env):
    """A one-weight module (weight ()) and a weight-graded module share no
    weight label, so the weight shortcut would answer "not isomorphic"
    and the Hom solver 0 for the adjoint against its own flat view; both
    refuse the comparison instead."""
    ad = adjoint_q_module(env["q2"])
    flat = WeightModule.from_flat(ad.algebra, ad.space, ad.mats)
    for m, n in ((flat, ad), (ad, flat)):
        with pytest.raises(ValueError, match="different Cartan parts"):
            is_isomorphic_weight(m, n)
        with pytest.raises(ValueError, match="different Cartan parts"):
            hom_space_weight(m, n)
    ok, wit = is_isomorphic_flat(flat, flat)
    assert ok and wit.rank() == ad.dim


def _on_full_basis(m):
    """m over a copy of its algebra that generates from the whole basis
    (the LieSuper default): the reference for every identity solved on
    the generators alone."""
    g = m.algebra
    full = LieSuper(g.tower, g.space, g.bk, name=g.name,
                    triangular=g.triangular)
    assert list(full.generators) == list(range(g.dim))
    return WeightModule(full, m.tower, m.weights, m.parities, m.act,
                        qd=m.qd)


def _parity_shift(m):
    """Pi m: the same operators with every parity flipped, again a
    module (the relation never reads the grading of the carrier)."""
    return WeightModule(m.algebra, m.tower, m.weights,
                        {w: tuple(1 - p for p in ps)
                         for w, ps in m.parities.items()}, m.act, qd=m.qd)


def _generator_corpus(qd):
    """Modules over q(n): the catalog entries, their diag_conj twists of
    order 2 and 4, adjoint (+) trivial, and adjoint (+) Pi adjoint, whose
    odd supercommutant is not zero."""
    K = qd.tower
    cat = Catalog(qd)
    ad, triv = cat.module("adjoint"), cat.module("trivial")
    mods = {"trivial": triv, "adjoint": ad}
    for order, last in ((2, -K.one()), (4, K.i())):
        sigma = qd.conj_automorphism([K.one()] * qd.n + [last])
        for name in ("trivial", "adjoint"):
            mods[f"{name}^{order}"] = twist_q_module(mods[name], qd, sigma)
    mods["adjoint+trivial"] = direct_sum_weight(ad, triv)
    mods["adjoint+Pi adjoint"] = direct_sum_weight(ad, _parity_shift(ad))
    return mods


@pytest.mark.parametrize("n", [2, 3])
def test_hom_on_generators_matches_the_full_basis(env, q3, n):
    """hom_space_weight solves T rho(x) = rho'(x) T for the 4n simple root
    vectors of q(n) only; over every pair of the corpus the kernel, the
    slots and the isomorphism verdict and witness equal those of the
    solve over every basis element."""
    qd = env["q2"] if n == 2 else q3
    assert len(qd.algebra.generators) == 4 * n
    mods = _generator_corpus(qd)
    full = {name: _on_full_basis(m) for name, m in mods.items()}
    verdicts = set()
    for a in mods:
        for b in mods:
            got = hom_space_weight(mods[a], mods[b])
            assert got == hom_space_weight(full[a], full[b]), (a, b)
            if a.startswith("adjoint+") and b.startswith("adjoint+"):
                continue   # Hom of dimension 4 and more: no exact scan
            ok, wit = is_isomorphic_weight(mods[a], mods[b])
            ok_full, wit_full = is_isomorphic_weight(full[a], full[b])
            assert (ok, wit) == (ok_full, wit_full), (a, b)
            verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [2, 3])
def test_schur_on_generators_matches_the_full_basis(env, q3, n):
    """_solve_weight_schur supercommutes phi with the generators only; on
    every module of the corpus it gives the phi blocks of the solve over
    every basis element.  The corpus over q(n) is all type M, so it also
    holds adjoint (x) C^{1|1}, of type Q, over q(n) (+) Q(1) generated by
    q(n)'s generators and both basis elements of Q(1)."""
    from queeralg.products import _solve_weight_schur
    qd = env["q2"] if n == 2 else q3
    mods = _generator_corpus(qd)
    cat, qone = Catalog(qd), q1_module(qd.tower)
    prod, _ = _hat(cat.module("adjoint"), qone, cat.weight_schur("adjoint"),
                   weight_schur_data(qone))
    g = prod.algebra
    gens = list(qd.algebra.generators) + [qd.dim, qd.dim + 1]
    on_gens = LieSuper(g.tower, g.space, g.bk, name=g.name, generators=gens)
    mods["adjoint (x) qone"] = WeightModule(on_gens, prod.tower, prod.weights,
                                           prod.parities, prod.act)
    types = []
    for name, m in mods.items():
        got = _solve_weight_schur(m)
        assert got == _solve_weight_schur(_on_full_basis(m)), name
        types.append(got.is_type_q)
    assert types == [False] * (len(mods) - 1) + [True]


def test_hom_basis_is_homogeneous(env):
    # the Hom equations never mix slot parities, so every RREF kernel
    # vector is homogeneous (what makes the isomorphism scan exact between
    # irreducible modules); C^{1|1} over Q(1) has an even and an odd one
    m = q1_module(env["K"])
    kern, slots = hom_space_weight(m, m)
    homs = [hom_map(v, slots, m, m) for v in kern]
    assert sorted(t.parity for t in homs) == [0, 1]


def test_hom_direct_sum_dimension(env):
    ms, cat = env["ms"], env["cat"]
    ad0 = ev_pullback(ms, 0, cat.module("adjoint"))
    two = direct_sum_weight(ad0, ad0)
    kerns, _ = hom_space_weight(ad0, two)
    assert len(kerns) == 2


def gamma_env(env):
    K, q2 = env["K"], env["q2"]
    A4 = preset_truncated(
        K, [-K.one(), K.zero(), K.zero(), K.zero(), K.one()],
        [(K.one(), 1), (-K.one(), 1), (K.i(), 1), (-K.i(), 1)])
    ms4 = tensor_lie(q2, A4)
    act = gamma_from_spec(K, {"generators": [
        {"order": 2, "on_algebra": {"type": "substitute_t", "scale": "-1"},
         "on_q": {"type": "diag_conj", "diag": ["1", "1", "-1"]}}]}, A4, q2)
    inv = invariants(ms4, act)
    return A4, ms4, act, inv


def test_twist_fixes_catalog_classes(env):
    K, q2, cat = env["K"], env["q2"], env["cat"]
    _, _, act, _ = gamma_env(env)
    sigma = act.generators[0][2]
    ad = cat.module("adjoint")
    tw = twist_q_module(ad, q2, sigma)
    ok, _ = is_isomorphic_weight(ad, tw)
    assert ok


def _blocks(m):
    """m's blocks per generator and source weight, keyed by target."""
    return [{w: dict(pieces) for w, pieces in acts.items()} for acts in m.act]


@pytest.mark.parametrize("diag", [("1", "1", "-1"), ("1", "1", "i")])
def test_twist_by_sigma_then_sigma_cubed_gives_back_blocks(env, diag):
    """On the Z/4 action t -> i t, the twist by sigma lets x act as
    rho(sigma(x)), and the twist by sigma^3 moves the blocks back exactly:
    x acts as rho(sigma(sigma^3(x))) = rho(x).  With diag (1, 1, i),
    sigma has order 4 on q as well, so sigma^3 is not sigma."""
    K, q2, cat = env["K"], env["q2"], env["cat"]
    A4 = preset_truncated(
        K, [-K.one(), K.zero(), K.zero(), K.zero(), K.one()],
        [(K.one(), 1), (-K.one(), 1), (K.i(), 1), (-K.i(), 1)])
    act = gamma_from_spec(K, {"generators": [
        {"order": 4, "on_algebra": {"type": "substitute_t", "scale": "i"},
         "on_q": {"type": "diag_conj", "diag": list(diag)}}]}, A4, q2)
    _, sigma, _, sigma3 = (q_map for _, q_map in act.elements)
    assert (sigma3 == sigma) == (diag[2] == "-1")
    ad = cat.module("adjoint")
    once = twist_q_module(ad, q2, sigma)
    # sigma scales each basis element x_g by c_g, so x_g acts as c_g rho(x_g)
    assert all(i == j for i, j in sigma.entries)
    for g, (got, blks) in enumerate(zip(_blocks(once), _blocks(ad))):
        c = sigma.entries[(g, g)]
        assert got == {w: {wt: {k: c * v for k, v in ent.items()}
                           for wt, ent in pieces.items()}
                       for w, pieces in blks.items()}
    assert _blocks(once) != _blocks(ad)
    assert _blocks(twist_q_module(once, q2, sigma3)) == _blocks(ad)


def test_evaluation_invariance_under_group(env):
    # restriction of ev at a point equals (up to isomorphism) restriction
    # of ev at the translated point with the twisted class
    K, q2, cat = env["K"], env["q2"], env["cat"]
    A4, ms4, act, inv = gamma_env(env)
    sigma = act.generators[0][2]   # of order 2, so sigma^-1 = sigma
    ad = cat.module("adjoint")
    m_here = restrict_to_invariants(ev_pullback(ms4, 0, ad), inv)
    m_there = restrict_to_invariants(
        ev_pullback(ms4, 1, twist_q_module(ad, q2, sigma)), inv)
    ok, _ = is_isomorphic_weight(m_here, m_there)
    assert ok


def test_ev_hat_gamma_irreducible(env):
    """The equivariant row: the product at the orbit representatives of
    an assignment constant on orbits, as the classify reference builds
    it over q (x) A."""
    q2, cat = env["q2"], env["cat"]
    _, ms4, _, inv = gamma_env(env)
    assign = {0: "adjoint", 1: "adjoint", 2: "trivial", 3: "trivial"}
    reps = [min(orbit) for orbit in inv.gamma_report["orbits"]]
    assert reps == [0, 2]
    untw, points = row_module(ms4, {p: assign[p] for p in reps}, cat)
    # one point: the row is the evaluation module of the catalog class
    assert points == [0]
    _assert_same_module(untw, ev_pullback(ms4, 0, cat.module("adjoint")))
    assert is_irreducible_hw(untw)
    # the restriction argument, checked independently: evaluation at the
    # orbit representatives maps the invariants onto q (+) q, and the
    # restriction is irreducible by the density oracle
    assert ev_rank(ms4, reps, inv.averaged) == 32
    mod = restrict_to_invariants(untw, inv)
    assert mod.dim == 16
    assert density_type_from_maps(mod.mats, mod.space,
                                  mod.tower).certifies_irreducible


def test_classify_untwisted(env):
    ms, cat = env["ms"], env["cat"]
    rep = classify_enumerate(ms, cat)
    assert len(rep["rows"]) == 4
    dims = sorted(r.dim for r in rep["rows"])
    assert dims[:3] == [1, 16, 16] and dims[3] in (128, 256)
    assert rep["pairwise_distinct"]
    assert all(r.reduced for r in rep["rows"])


def _counted(monkeypatch, name, calls):
    fn = getattr(products, name)

    def wrapped(*args, **kwargs):
        calls.setdefault(name, []).append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(products, name, wrapped)


def test_classify_twisted(env, monkeypatch):
    """One surjectivity check per run, and the criterion once per catalog
    entry, each over q itself: no row is built or certified."""
    q2 = env["q2"]
    cat = Catalog(q2)
    _, ms4, _, inv = gamma_env(env)
    calls: dict = {}
    for name in ("ev_rank", "is_irreducible_hw"):
        _counted(monkeypatch, name, calls)
    rep = classify_enumerate(ms4, cat, inv=inv)
    assert rep["twisted"] and len(rep["rows"]) == 4
    dims = sorted(r.dim for r in rep["rows"])
    assert dims[:3] == [1, 16, 16] and dims[3] in (128, 256)
    assert rep["pairwise_distinct"]
    assert calls["ev_rank"] == [(ms4, [0, 2], inv.averaged)]
    certified = [args[0] for args in calls["is_irreducible_hw"]]
    assert sorted(map(id, certified)) == \
        sorted(id(cat.module(name)) for name in cat.names())
    assert all(m.algebra is q2.algebra for m in certified)


def test_criterion_refuses_an_algebra_without_a_split(env):
    """The criterion reads the split from the module's algebra, so a
    module over an algebra with none is refused, not judged."""
    _, ms4, _, inv = gamma_env(env)
    ad0 = ev_pullback(ms4, 0, env["cat"].module("adjoint"))
    for m in (q1_module(env["K"]), restrict_to_invariants(ad0, inv)):
        assert m.algebra.triangular is None
        with pytest.raises(ValueError, match="no triangular split"):
            is_irreducible_hw(m)


def test_point_sum_carries_the_split_of_each_copy(env):
    """q and q (x) A carry a triangular split; a direct sum of algebras
    carries none."""
    q2, ms = env["q2"], env["ms"]
    raising, cartan, lowering = q2.algebra.triangular
    assert (raising, cartan, lowering) == \
        (q2.npos_indices, q2.cartan_indices, q2.nneg_indices)
    assert liesuper.direct_sum(q2.algebra, q2.algebra).triangular is None
    # q (x) A: each x (x) a_j of a piece, g-major
    na = ms.coeff.dim
    assert ms.algebra.triangular == tuple(
        [x * na + j for x in part for j in range(na)]
        for part in (raising, cartan, lowering))


def _eager_relation_rows(m, gens):
    """The reference construction: every entry of every operator
    transposed into rows keyed by matrix position, then one Span."""
    by_key: dict = {}
    for c, g in enumerate(gens):
        for key, v in m._gen_entries(g):
            by_key.setdefault(key, {})[c] = v
    return Span(m.tower, by_key.values(), len(gens)).basis_vectors()


def test_relation_rows_match_the_eager_construction(env):
    """relation_rows reads one source weight at a time and stops at full
    rank; its RREF rows equal the eager construction's on catalog modules
    and two-point rows over q (x) A, over random generator lists (repeats
    and classes acting by zero give relations)."""
    ms, cat = env["ms"], env["cat"]
    modules = [cat.module("trivial"), cat.module("adjoint")]
    for assign in ({0: "adjoint", 1: "trivial"}, {0: "adjoint", 1: "adjoint"}):
        row, _ = row_module(ms, assign, cat)
        modules.append(row)
    rng = random.Random(5)
    for m in modules:
        dim = m.algebra.dim
        for size in (1, 2, 3, 5, 8, 16):
            for _ in range(4):
                gens = rng.choices(range(dim), k=size)
                assert m.relation_rows(gens) == _eager_relation_rows(m, gens)


def test_classify_twisted_never_builds_the_invariant_algebra(env,
                                                            monkeypatch):
    """Neither invariants() nor a twisted classify_enumerate solves the
    bracket table of the invariants: every imported reference to
    liesuper.subalgebra is replaced by a stub that raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("liesuper.subalgebra was called")
    refs = [mod for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "queeralg"
            and getattr(mod, "subalgebra", None) is liesuper.subalgebra]
    assert {liesuper, mapsuper} <= set(refs)
    for mod in refs:
        monkeypatch.setattr(mod, "subalgebra", refuse)
    _, ms4, _, inv = gamma_env(env)
    rep = classify_enumerate(ms4, env["cat"], inv=inv)
    assert rep["twisted"] and len(rep["rows"]) == 4
    assert "algebra" not in vars(inv)
    with pytest.raises(AssertionError, match="subalgebra was called"):
        inv.algebra


def test_classify_twisted_refuses_deficient_evaluation(env, monkeypatch):
    cat = env["cat"]
    _, ms4, _, inv = gamma_env(env)
    monkeypatch.setattr(products, "ev_rank",
                        lambda ms, points, vectors=None: 31)
    with pytest.raises(AssertionError, match=r"representatives \[0, 2\]"):
        classify_enumerate(ms4, cat, inv=inv)


def test_classify_untwisted_refuses_deficient_evaluation(env, monkeypatch):
    monkeypatch.setattr(products, "ev_rank",
                        lambda ms, points, vectors=None: 15)
    with pytest.raises(AssertionError, match=r"points \[0, 1\] is not onto"):
        classify_enumerate(env["ms"], env["cat"])


def test_ev_rank_is_onto_at_every_declared_point(env):
    ms, q2 = env["ms"], env["q2"]
    assert ev_rank(ms, [0, 1]) == 2 * q2.dim
    assert ev_rank(ms, [1]) == q2.dim
    assert ev_rank(ms, []) == 0


def _assert_same_module(got, want):
    assert got.algebra is want.algebra
    assert got.weights == want.weights and got.parities == want.parities
    assert _blocks(got) == _blocks(want)


def test_ev_pullback_is_the_written_out_pullback(env):
    """ev_pullback, through EvMap, gives block for block the module of the
    reference's pullback along evaluation, for every catalog class at
    every point of the four-point algebra."""
    cat = env["cat"]
    _, ms4, _, _ = gamma_env(env)
    for p in range(4):
        for name in cat.names():
            rho = cat.module(name)
            _assert_same_module(ev_pullback(ms4, p, rho),
                                ev_module(ms4, p, rho))


def test_classify_builds_nothing_over_q_tensor_a(env, monkeypatch, tmp_path,
                                                capsys):
    """Work guard: classify builds no module and no bracket table of
    q (x) A, untwisted or twisted, through the library and through
    cli.main.  It calls none of ev_pullback, hat_tensor_weight,
    tensor_same_algebra or ann_and_support, leaves MapSuper.algebra
    unbuilt, and tests isomorphism only in the twist check (once per
    class and non-identity element) and between catalog entries of equal
    graded dimensions (none here)."""
    import json
    from queeralg import cli

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return call
    for name in ("ev_pullback", "hat_tensor_weight", "tensor_same_algebra"):
        monkeypatch.setattr(products, name, refuse(name))
    monkeypatch.setattr(mapsuper, "ann_and_support", refuse("ann_and_support"))
    assert not hasattr(products, "ann_and_support")
    calls: dict = {}
    _counted(monkeypatch, "is_isomorphic_weight", calls)
    _, ms4, _, inv = gamma_env(env)
    ms2 = tensor_lie(env["q2"], env["A"])
    for ms, where, twists in ((ms2, None, 0), (ms4, inv, 2)):
        calls.clear()
        rep = classify_enumerate(ms, Catalog(env["q2"]), inv=where)
        assert len(rep["rows"]) == 4
        assert len(calls.get("is_isomorphic_weight", [])) == twists
        assert "algebra" not in vars(ms)
    made = []

    def recorded(*args):
        made.append(tensor_lie(*args))
        return made[-1]
    monkeypatch.setattr(cli, "tensor_lie", recorded)
    for which in ("two_point", "twisted4_r2"):
        _, algebra, group = CLASSIFY_INPUTS[which]
        argv = ["classify", "--n", "2", "--algebra", str(tmp_path / "a.json")]
        (tmp_path / "a.json").write_text(json.dumps(algebra))
        if group is not None:
            (tmp_path / "g.json").write_text(json.dumps(group))
            argv += ["--group", str(tmp_path / "g.json")]
        assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("classification over q(2)") == 2
    assert len(made) == 2
    assert all("algebra" not in vars(ms) for ms in made)


def test_classify_trivial_catalog(env):
    K, q2, ms = env["K"], env["q2"], env["ms"]
    cat = Catalog(q2)
    cat.entries.pop("adjoint")
    rep = classify_enumerate(ms, cat)
    assert len(rep["rows"]) == 1 and rep["rows"][0].dim == 1


def _four_point_spec(r):
    return {"type": "poly_quotient",
            "modulus": [str(-r ** 4), "0", "0", "0", "1"],
            "roots": [str(r), str(-r), f"{r}*i", f"-{r}*i"]}


def _group_spec(diag, order=2, scale="-1"):
    return {"generators": [{
        "order": order, "on_algebra": {"type": "substitute_t", "scale": scale},
        "on_q": {"type": "diag_conj", "diag": list(diag)}}]}


# (n, algebra, group): the inputs of the classify goldens, the
# non-reduced K[t]/(t^2 (t - 1)), and twisted q(3) over four points
CLASSIFY_INPUTS = {
    "twisted4_r2": (2, _four_point_spec(2), _group_spec(("1", "1", "-1"))),
    "twisted4_r3": (2, _four_point_spec(3), _group_spec(("1", "1", "-1"))),
    "twisted4_r4": (2, _four_point_spec(4), _group_spec(("1", "1", "-1"))),
    "two_point": (2, {"type": "poly_quotient", "modulus": ["-1", "0", "1"],
                      "roots": ["1", "-1"]}, None),
    "z4_r3": (2, _four_point_spec(3),
              _group_spec(("1", "1", "-1"), order=4, scale="i")),
    "cusp": (2, {"type": "poly_quotient", "modulus": ["0", "0", "-1", "1"],
                 "roots": [["0", 2], "1"]}, None),
    "twisted_q3": (3, _four_point_spec(2),
                   _group_spec(("1", "1", "1", "-1"))),
}


@pytest.mark.parametrize("which", sorted(CLASSIFY_INPUTS))
def test_classify_rows_match_the_reference(which):
    """Every row classify reads off per-class data equals, field by
    field, the row of the reference construction: the product over
    q (x) A at the orbit representatives, the criterion,
    ann_and_support on the averaged elements and the pairwise Hom
    sweep."""
    n, algebra, group = CLASSIFY_INPUTS[which]
    K = Tower()
    qd = build_q(K, n)
    a = algebra_from_spec(K, algebra)
    ms = tensor_lie(qd, a)
    inv = None if group is None else \
        invariants(ms, gamma_from_spec(K, group, a, qd))
    cat = Catalog(qd)
    got = classify_enumerate(ms, cat, inv=inv)["rows"]
    want = reference_rows(ms, cat, inv)
    assert [vars(r) for r in got] == [vars(r) for r, *_ in want]


@pytest.mark.parametrize("factors", ["qone,qone", "qone,qone,qone",
                                     "adjoint,qone,qone"])
def test_hat_graded_dims_matches_the_built_products(factors):
    """The rule classify reads graded dimensions by, the parity
    convolution halved at every second type-Q factor, against the product
    that decompose builds over the direct sum."""
    from queeralg.cli import _decompose_factor
    K = Tower()
    cat = Catalog(build_q(K, 2))
    built = [_decompose_factor(K, cat, name) for name in factors.split(",")]
    cur, cur_s = built[0]
    for m, s in built[1:]:
        cur, info = hat_tensor_weight(*outer_factors(cur, m, cur_s, s))
        cur_s = info["result_schur"]
    assert products._hat_graded_dims(
        (m.graded_dims(), s.is_type_q) for m, s in built) == cur.graded_dims()


_TYPE_M = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
    lambda d: sum(d) > 0).map(lambda d: (d, False))
_TYPE_Q = st.integers(1, 6).map(lambda d: ((d, d), True))


@settings(max_examples=200)
@given(st.lists(st.one_of(_TYPE_M, _TYPE_Q), max_size=6),
       st.randoms(use_true_random=False))
def test_hat_graded_dims_total_and_factor_order(factors, rnd):
    """For random factors, type-Q ones of equal even and odd dimension:
    the (x)^-product has dimension prod dim / 2^floor(q/2) for q type-Q
    factors, and its graded dimensions do not depend on the order of
    the factors."""
    ne, no = products._hat_graded_dims(factors)
    total = 1
    for (e, o), _ in factors:
        total *= e + o
    q = sum(is_q for _, is_q in factors)
    assert (ne + no) * 2 ** (q // 2) == total
    shuffled = list(factors)
    rnd.shuffle(shuffled)
    assert products._hat_graded_dims(shuffled) == (ne, no)


def test_classify_untwisted_four_point_q4():
    """Untwisted four-point q(4) completes with 16 rows; the largest, the
    product of four adjoints, has dimension 48^4 and is never built."""
    K = Tower()
    q4 = build_q(K, 4)
    ms = tensor_lie(q4, algebra_from_spec(K, _four_point_spec(2)))
    rep = classify_enumerate(ms, Catalog(q4))
    dims = sorted(r.dim for r in rep["rows"])
    assert len(dims) == 16 and dims[-1] == 48 ** 4 == 5_308_416


def test_classify_refuses_isomorphic_catalog_entries(env):
    """A catalog that holds the adjoint twice, under two names, is
    refused with both names."""
    cat = Catalog(env["q2"])
    cat.add("adjoint2", adjoint_q_module(env["q2"]))
    with pytest.raises(AssertionError, match="catalog entries 'adjoint' and "
                                             "'adjoint2' are isomorphic"):
        classify_enumerate(env["ms"], cat)


def test_h_psi_rebuilt_isomorphic(env):
    K, q2, A = env["K"], env["q2"], env["A"]
    ctx = CartanAlgebra(q2, A)
    psi = PsiFunctional.evaluation(ctx, 0, [1, 1])
    h1 = build_H(psi).as_lie_module()
    h2 = build_H(psi, pivot_order=[1, 0]).as_lie_module()
    ok, _ = is_isomorphic_flat(h1, h2)
    assert ok


def _toy_weight_pair(K):
    """Two type-Q weight modules over the direct sum of two rank-one
    queer Lie superalgebras, each factor acting through one summand only
    (a single-weight model of disjoint supports)."""
    from queeralg.graded import EVEN, ODD
    from queeralg.liesuper import direct_sum
    g1 = from_assoc(make_Q(K, 1))
    g = direct_sum(g1, from_assoc(make_Q(K, 1)))
    w0 = (K.zero(),)
    one = K.one()
    ident = {(0, 0): one, (1, 1): one}
    swap = {(0, 1): one, (1, 0): one}

    def wm(active):
        act = []
        for gidx in range(4):
            if gidx // 2 == active:
                blk = ident if gidx % 2 == 0 else swap
                act.append({w0: [(w0, dict(blk))]})
            else:
                act.append({})
        return WeightModule(g, K, [w0], {w0: (EVEN, ODD)}, act)

    m1, m2 = wm(0), wm(1)
    ws1, ws2 = weight_schur_data(m1), weight_schur_data(m2)
    assert ws1.is_type_q and ws2.is_type_q
    return m1, m2, ws1, ws2


def test_outer_factors_match_hand_built_pair():
    """outer_factors of two C^{1|1} is the hand-built single-weight model
    of _toy_weight_pair, up to the weight label, Schur data included."""
    K = Tower()
    m = q1_module(K)
    s = weight_schur_data(m)
    p1, p2, t1, t2 = outer_factors(m, m, s, s)
    toy = _toy_weight_pair(K)
    for got, want in ((p1, toy[0]), (p2, toy[1])):
        assert got.weights == [()]
        assert [x.rows for x in got.mats] == [x.rows for x in want.mats]
    w0 = (K.zero(),)
    assert t1.phi_blocks[()] == toy[2].phi_blocks[w0]
    assert t2.phi_blocks[()] == toy[3].phi_blocks[w0]


def test_hat_tensor_weight_split_branch(env):
    # synthetic pair of type-Q weight modules: the weight-level split
    from queeralg.assocsuper import density_type_from_maps
    from queeralg.products import hat_tensor_weight
    K = Tower()
    m1, m2, ws1, ws2 = _toy_weight_pair(K)
    plus, info = hat_tensor_weight(m1, m2, ws1, ws2)
    assert info["split"]
    assert plus.dim == 2 and info["minus"].dim == 2
    assert not info["result_schur"].is_type_q
    ok, _ = is_isomorphic_weight(plus, info["minus"])
    assert ok
    assert density_type_from_maps(plus.mats, plus.space, K).kind == "full"


def test_hat_tensor_weight_mixed_factor_phi(env):
    # one type-Q factor: the product carries an explicit odd endomorphism
    # that supercommutes with the action and squares to -id
    from queeralg.graded import EVEN
    from queeralg.products import WeightSchur, hat_tensor_weight
    K = Tower()
    m1, m2, ws1, ws2 = _toy_weight_pair(K)
    w0 = (K.zero(),)
    triv = WeightModule(m1.algebra, K, [w0], {w0: (EVEN,)},
                        [{} for _ in range(4)])
    prod, info = hat_tensor_weight(m1, triv, ws1, WeightSchur(False, None))
    rs = info["result_schur"]
    assert rs.is_type_q and prod.weights == [w0]
    phi = _phi_flat(prod, rs.phi_blocks)
    # square to -id
    assert phi * phi == GradedMap.identity(K, prod.space) * (-1)
    # supercommutation with every generator action on the product
    for gidx, rho in enumerate(prod.mats):
        sgn = -1 if prod.algebra.space.parity(gidx) else 1
        assert phi * rho == rho * phi * sgn


# ---------------------------------------------------------------------------
# Tensor products against the flat Koszul tensor
# ---------------------------------------------------------------------------


def _flat_entries(mat, perm):
    """Nonzero entries of a dense matrix, positions renamed by perm."""
    return {(perm[i], perm[j]): v for i, row in enumerate(mat)
            for j, v in enumerate(row) if not v.is_zero}


def assert_tensor_is_flat_koszul(m1, m2):
    """The flat view of tensor_same_algebra(m1, m2) equals, for every
    generator g,
    graded_tensor(rho1(g), id) + graded_tensor(id, rho2(g)) once the flat
    positions are matched through the pair basis."""
    from queeralg.graded import graded_tensor, tensor_space
    K = m1.tower
    full = tensor_same_algebra(m1, m2)
    f1, f2, flat = m1.mats, m2.mats, full.mats
    tspace, tindex = tensor_space(m1.space, m2.space)
    idx1, idx2 = m1.flat_index(), m2.flat_index()
    _, _, pair_basis, _, _ = full.pair_data
    perm = {}
    for (w, k), pos in full.flat_index().items():
        i1, k1, i2, k2 = pair_basis[full.weights.index(w)][k]
        perm[pos] = tindex[(idx1[(m1.weights[i1], k1)],
                            idx2[(m2.weights[i2], k2)])]
    assert sorted(perm.values()) == list(range(full.dim))
    assert all(full.space.parity(pos) == tspace.parity(p)
               for pos, p in perm.items())
    id1 = GradedMap.identity(K, m1.space)
    id2 = GradedMap.identity(K, m2.space)
    ident = list(range(full.dim))
    for g in range(m1.algebra.dim):
        want = _flat_entries(graded_tensor(f1[g], id2).rows, ident)
        for key, v in _flat_entries(graded_tensor(id1, f2[g]).rows,
                                    ident).items():
            want[key] = want[key] + v if key in want else v
        want = {key: v for key, v in want.items() if not v.is_zero}
        assert _flat_entries(flat[g].rows, perm) == want
    return full


def _phi_flat(m, blocks):
    """Assemble weight-blocked endomorphism blocks into one dense matrix."""
    K = m.tower
    idx = m.flat_index()
    rows = [[K.zero()] * m.dim for _ in range(m.dim)]
    for w, blk in blocks.items():
        for (r, c), v in blk.items():
            rows[idx[(w, r)]][idx[(w, c)]] = v
    return GradedMap.from_rows(K, m.space, m.space, rows)


def _q_and_m_pair():
    """A type-Q and a type-M weight module over Lie(Q(1)) (+) q(1): C^{1|1}
    through the first summand (one weight) and the three-dimensional
    simple q(1)-module of highest weight 2 through the second."""
    import warnings
    from queeralg.cartanmod import CartanAlgebra, PsiFunctional
    from queeralg.coeffalg import preset_base_field
    from queeralg.graded import EVEN, ODD
    from queeralg.hwmod import SimpleQuotient, TruncatedVerma
    from queeralg.liesuper import direct_sum
    K = Tower()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q(1) is not simple
        q1 = build_q(K, 1)
    base = preset_base_field(K)
    psi = PsiFunctional.from_pairs(CartanAlgebra(q1, base), [["h1", "1", "2"]])
    sq = SimpleQuotient(TruncatedVerma(tensor_lie(q1, base), psi, 3))
    assert sq.conclusive and sq.module.dim == 3
    g = direct_sum(from_assoc(make_Q(K, 1)), q1.algebra)
    w0 = (K.zero(),)
    one = K.one()
    mq = WeightModule(g, K, [w0], {w0: (EVEN, ODD)},
                      [{w0: [(w0, {(0, 0): one, (1, 1): one})]},
                       {w0: [(w0, {(0, 1): one, (1, 0): one})]}]
                      + [{} for _ in range(q1.dim)])
    mm = WeightModule(g, K, sq.module.weights, sq.module.parities,
                      [{}, {}] + sq.module.act)
    wsq = weight_schur_data(mq)
    assert wsq.is_type_q and not weight_schur_data(mm).is_type_q
    return mq, mm, wsq


def test_tensor_of_adjoints_is_flat_koszul(env):
    ad = env["cat"].module("adjoint")
    assert_tensor_is_flat_koszul(ad, ad)


@pytest.mark.parametrize("q_first", [True, False])
def test_tensor_q_with_m_is_flat_koszul_and_phi_supercommutes(q_first):
    from queeralg.products import WeightSchur, hat_tensor_weight
    mq, mm, wsq = _q_and_m_pair()
    m1, m2 = (mq, mm) if q_first else (mm, mq)
    full = assert_tensor_is_flat_koszul(m1, m2)
    s1, s2 = (wsq, WeightSchur(False, None)) if q_first else \
        (WeightSchur(False, None), wsq)
    prod, info = hat_tensor_weight(m1, m2, s1, s2)
    assert not info["split"] and prod.dim == full.dim == 6
    rs = info["result_schur"]
    assert rs.is_type_q
    K = prod.tower
    phi = _phi_flat(prod, rs.phi_blocks)
    assert phi.parity == 1
    assert phi * phi == GradedMap.identity(K, prod.space) * (-1)
    for g, rho in enumerate(prod.mats):
        sgn = -1 if prod.algebra.space.parity(g) else 1
        assert phi * rho == rho * phi * sgn


def test_combine_matches_dense_sums_and_drops_cancelled_blocks():
    """_combine against sums of the flat matrices, with coefficients above
    Q(i); a combination that cancels leaves no block at all."""
    from queeralg.products import _combine
    K = Tower()
    qd = build_q(K, 2)
    ad = adjoint_q_module(qd)
    s = K.adjoin_sqrt(K.from_int(2))
    flat = ad.mats
    combos = [[(0, K.one()), (3, s), (8, K.from_int(-2))],
              [(k, s * K.from_int(k + 1)) for k in range(qd.dim)],
              [(5, K.i()), (5, K.zero()), (13, s + K.one())]]
    act = [_combine(ad, terms) for terms in combos]
    got = WeightModule(ad.algebra, K, ad.weights, ad.parities,
                       act + [{}] * (qd.dim - len(act)), qd=qd)
    for terms, m in zip(combos, got.mats):
        want = GradedMap.zero(K, m.source, m.target)
        for k, c in terms:
            want = want + flat[k] * c
        assert m.rows == want.rows
    assert _combine(ad, [(4, s), (4, -s)]) == {}
    assert all(rows for blks in act[0].values() for _, rows in blks)


def test_restrict_check_is_exact_on_every_row(monkeypatch):
    """restrict_weight_module checks emb X == image exactly on every row,
    at tower height 1 as well: a solution that is wrong in the last row
    only is rejected."""
    K = Tower()
    s = K.adjoin_sqrt(K.from_int(3))
    one, zero = K.one(), K.zero()
    sp2, sp3 = GradedSpace(2, 0), GradedSpace(3, 0)
    emb = GradedMap.from_rows(K, sp2, sp3,
                              [[one, zero], [zero, s], [s, one]])
    x = GradedMap.from_rows(K, sp2, sp2,
                            [[K.from_int(2), zero], [s + one, zero]])
    left = GradedMap.from_rows(K, sp3, sp2,
                               [[one, zero, zero], [zero, s.inv(), zero]])
    assert left * emb == GradedMap.identity(K, sp2)
    rho = emb * x * left          # so rho emb = emb x
    alg = LieSuper(K, GradedSpace(1, 0), [[{}]])

    def restrict(op):
        m = WeightModule.from_flat(alg, sp3, [op])
        return products.restrict_weight_module(m, {(): emb})
    assert restrict(rho).act == [{(): [((), x.entries)]}]
    # the image of the first embedded vector gains 1 in the last row only
    bad = rho + GradedMap(K, sp3, sp3, {(2, 0): one})
    assert (bad * emb - emb * x).entries == {(2, 0): one}
    with pytest.raises(AssertionError, match="leaves the subspace"):
        restrict(bad)
    # the solver returns the columns of x, the solution for rho
    monkeypatch.setattr(products, "solve_columns",
                        lambda rows, rhs, ncols, tower:
                        [x.columns().get(j, {}) for j in range(2)])
    with pytest.raises(AssertionError, match="leaves the subspace"):
        restrict(bad)