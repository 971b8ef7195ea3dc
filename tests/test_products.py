import pytest

from queeralg.assocsuper import density_type_from_maps, make_Q
from queeralg.cartanmod import CartanAlgebra, PsiFunctional, build_H
from queeralg.coeffalg import gamma_from_spec, preset_truncated
from queeralg.graded import (EVEN, ODD, GradedMap, commutant,
                             homogeneous_entries, odd_schur)
from queeralg.hwmod import is_irreducible_hw, triangular_of_invariants, \
    triangular_of_map, top_psi
from queeralg.liesuper import from_assoc, is_isomorphic_flat, module_hom_basis
from queeralg.mapsuper import ann_and_support, invariants, tensor_lie
from queeralg.products import (Catalog, WeightSchur, assoc_check,
                               classify_enumerate, direct_sum_weight, ev_hat,
                               ev_hat_gamma, ev_module, hat_tensor_weight,
                               hom_space_weight, is_isomorphic_weight,
                               outer_factors, q1_module,
                               restrict_to_invariants,
                               tensor_same_algebra, twist_q_module,
                               weight_schur_data)
from queeralg.queer import build_q
from queeralg.scalars import Tower


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
    flat = env["cat"].module("trivial").flatten()
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
    m.flatten(), normalized to phi^2 = -id and cut into weight blocks
    here; phi must vanish off the blocks."""
    K = m.tower
    flat = m.flatten()
    found = odd_schur(homogeneous_entries(flat.mats), flat.space, K)
    if found is None:
        return WeightSchur(False, None)
    phi, c = found
    rows = (phi * K.adjoin_sqrt(-c.inv())).rows
    idx = m.flat_index()
    blocks = {w: [[rows[idx[(w, i)]][idx[(w, j)]]
                   for j in range(m.block_dim(w))]
                  for i in range(m.block_dim(w))] for w in m.weights}
    assert sum(not v.is_zero for row in rows for v in row) == \
        sum(not v.is_zero for b in blocks.values() for row in b for v in row)
    return WeightSchur(True, blocks)


def _scaled_qone(K):
    """C^{1|1} over Q(1) with the odd generator acting by [[0, 2], [1/2, 0]]
    instead of the swap: its first odd supercommutant squares to -4 id."""
    from queeralg.hwmod import WeightModule
    one, zero, two = K.one(), K.zero(), K.from_int(2)
    return WeightModule(from_assoc(make_Q(K, 1)), K, [()], {(): (EVEN, ODD)},
                        [{(): [((), [[one, zero], [zero, one]])]},
                         {(): [((), [[zero, two], [two.inv(), zero]])]}])


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
    flat = scaled.flatten()
    assert odd_schur(homogeneous_entries(flat.mats), flat.space, K)[1] == -4
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
    from queeralg.hwmod import triangular_of_q
    qd = env["q2"] if n == 2 else q3
    cat = Catalog(qd)
    ad, triv = cat.module("adjoint"), cat.module("trivial")
    for m in (triv, ad, direct_sum_weight(ad, triv)):
        flat = m.flatten()
        oracle = density_type_from_maps(flat.mats, flat.space, qd.tower)
        assert is_irreducible_hw(m, triangular_of_q(qd)) == \
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
    _, info = _adjoint_qone(env)
    s = info["result_schur"]
    assert s.is_type_q and not info["split"]
    # phi = 1 (x) phi_hat squares to -id
    minus = {w: [[-K.one() if i == j else K.zero() for j in range(len(b))]
                 for i in range(len(b))] for w, b in s.phi_blocks.items()}
    assert {w: [[sum((b[i][k] * b[k][j] for k in range(len(b))), K.zero())
                 for j in range(len(b))] for i in range(len(b))]
            for w, b in s.phi_blocks.items()} == minus
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
    twisted = {w: [[-v for v in row] if pair_basis[t][r][:2] == (0, 0)
                   else list(row) for r, row in enumerate(phi[w])]
               for t, w in enumerate(prod.weights)}
    ident = {w: [[K.one() if i == j else K.zero() for j in range(len(b))]
                 for i in range(len(b))] for w, b in phi.items()}
    cases = [
        ({w: [[v * 2 for v in row] for row in b] for w, b in phi.items()},
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
    bad = WeightSchur(True, {w: [[v * 2 for v in row] for row in b]
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
    flat = prod.flatten()
    assert density_type_from_maps(flat.mats, flat.space, K).kind == "full"


def test_hat_tensor_trivial_factor(env):
    # tensor with a trivial one-dimensional module returns the same dims
    from queeralg.graded import EVEN
    from queeralg.hwmod import WeightModule
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
    flat, f1, f2 = ad.flatten(), p1.flatten(), p2.flatten()
    for g in range(n):
        assert f1.mats[g].rows == flat.mats[g].rows and f1.mats[n + g].is_zero
        assert f2.mats[n + g].rows == flat.mats[g].rows and f2.mats[g].is_zero
    assert (t1, t2) == (s, s) and not s.is_type_q
    prod, info = hat_tensor_weight(p1, p2, t1, t2)
    assert not info["split"] and prod.dim == 256
    assert set(prod.weights) == {w1 + w2 for w1 in ad.weights
                                 for w2 in ad.weights}


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


def test_ev_module_and_ann(env):
    K, q2, ms, cat = env["K"], env["q2"], env["ms"], env["cat"]
    ad0 = ev_module(ms, 0, cat.module("adjoint"))
    ann, supp, reduced = ann_and_support(ad0, ms)
    assert supp == [0] and reduced
    ad0.flatten().check()


def test_ev_hat_trivial_everywhere(env):
    ms, cat = env["ms"], env["cat"]
    mod, audit = ev_hat(ms, {}, cat)
    assert mod.dim == 1
    assert not audit["points"]


def test_prop_irred_tensor_dichotomy(env):
    # disjoint supports: the tensor product is irreducible or V^ (+) V^;
    # with type-M adjoints the first branch is realized and exactness of
    # the dichotomy is the assertion that the module is irreducible
    K, ms, cat = env["K"], env["ms"], env["cat"]
    tri = triangular_of_map(ms)
    ad0 = ev_module(ms, 0, cat.module("adjoint"))
    ad1 = ev_module(ms, 1, cat.module("adjoint"))
    full = tensor_same_algebra(ad0, ad1)
    ws = cat.weight_schur("adjoint")
    if ws.is_type_q:
        from queeralg.products import hat_tensor_weight
        plus, info = hat_tensor_weight(ad0, ad1, ws, ws)
        assert info["split"]
        assert plus.dim * 2 == full.dim
        ok, _ = is_isomorphic_weight(plus, info["minus"])
        assert ok and is_irreducible_hw(plus, tri)
    else:
        assert is_irreducible_hw(full, tri)


def test_top_character_additivity(env):
    K, q2, A, ms, cat = env["K"], env["q2"], env["A"], env["ms"], env["cat"]
    ctx = CartanAlgebra(q2, A)
    mod, _ = ev_hat(ms, {0: "adjoint", 1: "adjoint"}, cat)
    psi = top_psi(mod, ms, ctx)
    expect = PsiFunctional.evaluation(ctx, 0, [1, 1]) + \
        PsiFunctional.evaluation(ctx, 1, [1, 1])
    assert psi == expect


def test_hom_separates_points(env):
    ms, cat = env["ms"], env["cat"]
    ad0 = ev_module(ms, 0, cat.module("adjoint"))
    ad1 = ev_module(ms, 1, cat.module("adjoint"))
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
    flat = _three_trivials(env).flatten()
    with pytest.raises(ValueError, match="9-dimensional"):
        is_isomorphic_flat(flat, flat)


def test_iso_scan_finds_identity_among_sums(env):
    # Hom(ad + ad, ad + ad) = M_2(K): the sum E_11 + E_22 is invertible
    ad = env["cat"].module("adjoint")
    two = direct_sum_weight(ad, ad)
    ok, wit = is_isomorphic_weight(two, two)
    assert ok and wit is not None
    ok, wit = is_isomorphic_flat(two.flatten(), two.flatten())
    assert ok and wit.rank() == two.dim


def test_hom_basis_is_homogeneous(env):
    # the Hom equations never mix slot parities, so every RREF kernel
    # vector is homogeneous (what makes the isomorphism scan exact between
    # irreducible modules); C^{1|1} over Q(1) has an even and an odd one
    m = q1_module(env["K"]).flatten()
    homs = module_hom_basis(m, m)
    assert sorted(t.parity for t in homs) == [0, 1]


def test_hom_direct_sum_dimension(env):
    ms, cat = env["ms"], env["cat"]
    ad0 = ev_module(ms, 0, cat.module("adjoint"))
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
    qrows = act.generators[0][2].rows
    ad = cat.module("adjoint")
    tw = twist_q_module(ad, q2, qrows)
    ok, _ = is_isomorphic_weight(ad, tw)
    assert ok


def test_evaluation_invariance_under_group(env):
    # restriction of ev at a point equals (up to isomorphism) restriction
    # of ev at the translated point with the twisted class
    K, q2, cat = env["K"], env["q2"], env["cat"]
    A4, ms4, act, inv = gamma_env(env)
    qrows = act.generators[0][2].rows
    ad = cat.module("adjoint")
    m_here = restrict_to_invariants(ev_module(ms4, 0, ad), inv)
    m_there = restrict_to_invariants(
        ev_module(ms4, 1, twist_q_module(ad, q2, qrows)), inv)
    ok, _ = is_isomorphic_weight(m_here, m_there)
    assert ok


def test_ev_hat_gamma_irreducible(env):
    q2, cat = env["q2"], env["cat"]
    _, ms4, _, inv = gamma_env(env)
    assign = {0: "adjoint", 1: "adjoint", 2: "trivial", 3: "trivial"}
    mod, untw, audit = ev_hat_gamma(inv, assign, cat)
    assert mod.dim == 16
    tri = triangular_of_invariants(inv)
    assert is_irreducible_hw(mod, tri)
    assert is_irreducible_hw(untw, triangular_of_map(ms4))
    with pytest.raises(ValueError):
        ev_hat_gamma(inv, {0: "adjoint", 1: "trivial", 2: "trivial",
                           3: "trivial"}, cat)


def test_classify_untwisted(env):
    ms, cat = env["ms"], env["cat"]
    rep = classify_enumerate(ms, cat)
    assert len(rep["rows"]) == 4
    dims = sorted(r.dim for r in rep["rows"])
    assert dims[:3] == [1, 16, 16] and dims[3] in (128, 256)
    assert rep["pairwise_distinct"]
    assert all(r.reduced for r in rep["rows"])


def test_classify_twisted(env):
    cat = env["cat"]
    _, ms4, _, inv = gamma_env(env)
    rep = classify_enumerate(ms4, cat, inv=inv)
    assert rep["twisted"] and len(rep["rows"]) == 4
    dims = sorted(r.dim for r in rep["rows"])
    assert dims[:3] == [1, 16, 16] and dims[3] in (128, 256)
    assert rep["pairwise_distinct"]


def test_classify_trivial_catalog(env):
    K, q2, ms = env["K"], env["q2"], env["ms"]
    cat = Catalog(q2)
    cat.entries.pop("adjoint")
    rep = classify_enumerate(ms, cat)
    assert len(rep["rows"]) == 1 and rep["rows"][0].dim == 1


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
    from queeralg.hwmod import WeightModule
    from queeralg.liesuper import direct_sum
    g1 = from_assoc(make_Q(K, 1))
    g = direct_sum(g1, from_assoc(make_Q(K, 1)))
    w0 = (K.zero(),)
    one, zero = K.one(), K.zero()
    ident = [[one, zero], [zero, one]]
    swap = [[zero, one], [one, zero]]
    zmat = [[zero, zero], [zero, zero]]

    def wm(active):
        act = []
        for gidx in range(4):
            if gidx // 2 == active:
                rows = ident if gidx % 2 == 0 else swap
                act.append({w0: [(w0, [list(r) for r in rows])]})
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
        assert [x.rows for x in got.flatten().mats] == \
            [x.rows for x in want.flatten().mats]
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
    flat = plus.flatten()
    assert density_type_from_maps(flat.mats, flat.space, K).kind == "full"


def test_hat_tensor_weight_mixed_factor_phi(env):
    # one type-Q factor: the product carries an explicit odd endomorphism
    # that supercommutes with the action and squares to -id
    from queeralg.graded import EVEN
    from queeralg.hwmod import WeightModule
    from queeralg.products import WeightSchur, hat_tensor_weight
    K = Tower()
    m1, m2, ws1, ws2 = _toy_weight_pair(K)
    w0 = (K.zero(),)
    triv = WeightModule(m1.algebra, K, [w0], {w0: (EVEN,)},
                        [{} for _ in range(4)])
    prod, info = hat_tensor_weight(m1, triv, ws1, WeightSchur(False, None))
    rs = info["result_schur"]
    assert rs.is_type_q
    phi = rs.phi_blocks[w0]
    # square to -id
    acc = [[sum((phi[i][k] * phi[k][j] for k in range(2)), K.zero())
            for j in range(2)] for i in range(2)]
    assert acc[0][0] == -1 and acc[1][1] == -1 and acc[0][1].is_zero
    # supercommutation with every generator action on the product
    pars = prod.parities[w0]
    for gidx in range(4):
        blocks = dict()
        for (wt, blk) in prod.blocks_of(gidx, w0):
            blocks[wt] = blk
        rho = blocks.get(w0)
        if rho is None:
            continue
        gpar = prod.algebra.space.parity(gidx)
        sgn = -1 if gpar else 1
        for i in range(2):
            for j in range(2):
                lhs = sum((phi[i][k] * rho[k][j] for k in range(2)), K.zero())
                rhs = sum((rho[i][k] * phi[k][j] for k in range(2)), K.zero())
                assert lhs == rhs * sgn


# ---------------------------------------------------------------------------
# Tensor products against the flat Koszul tensor
# ---------------------------------------------------------------------------


def _flat_entries(mat, perm):
    """Nonzero entries of a dense matrix, positions renamed by perm."""
    return {(perm[i], perm[j]): v for i, row in enumerate(mat)
            for j, v in enumerate(row) if not v.is_zero}


def assert_tensor_is_flat_koszul(m1, m2):
    """flatten(tensor_same_algebra(m1, m2)) equals, for every generator g,
    graded_tensor(rho1(g), id) + graded_tensor(id, rho2(g)) once the flat
    positions are matched through the pair basis."""
    from queeralg.graded import graded_tensor, tensor_space
    K = m1.tower
    full = tensor_same_algebra(m1, m2)
    f1, f2, flat = m1.flatten(), m2.flatten(), full.flatten()
    tspace, tindex = tensor_space(f1.space, f2.space)
    idx1, idx2 = m1.flat_index(), m2.flat_index()
    _, _, pair_basis, _, _ = full.pair_data
    perm = {}
    for (w, k), pos in full.flat_index().items():
        i1, k1, i2, k2 = pair_basis[full.weights.index(w)][k]
        perm[pos] = tindex[(idx1[(m1.weights[i1], k1)],
                            idx2[(m2.weights[i2], k2)])]
    assert sorted(perm.values()) == list(range(full.dim))
    assert all(flat.space.parity(pos) == tspace.parity(p)
               for pos, p in perm.items())
    id1 = GradedMap.identity(K, f1.space)
    id2 = GradedMap.identity(K, f2.space)
    ident = list(range(full.dim))
    for g in range(m1.algebra.dim):
        want = _flat_entries(graded_tensor(f1.mats[g], id2).rows, ident)
        for key, v in _flat_entries(graded_tensor(id1, f2.mats[g]).rows,
                                    ident).items():
            want[key] = want[key] + v if key in want else v
        want = {key: v for key, v in want.items() if not v.is_zero}
        assert _flat_entries(flat.mats[g].rows, perm) == want
    return full


def _phi_flat(m, blocks):
    """Assemble weight-blocked endomorphism blocks into one dense matrix."""
    K = m.tower
    idx = m.flat_index()
    rows = [[K.zero()] * m.dim for _ in range(m.dim)]
    for w, blk in blocks.items():
        for r, row in enumerate(blk):
            for c, v in enumerate(row):
                rows[idx[(w, r)]][idx[(w, c)]] = v
    return GradedMap(K, m.flatten().space, m.flatten().space, rows)


def _q_and_m_pair():
    """A type-Q and a type-M weight module over Lie(Q(1)) (+) q(1): C^{1|1}
    through the first summand (one weight) and the three-dimensional
    simple q(1)-module of highest weight 2 through the second."""
    import warnings
    from queeralg.cartanmod import CartanAlgebra, PsiFunctional
    from queeralg.coeffalg import preset_base_field
    from queeralg.graded import EVEN, ODD
    from queeralg.hwmod import SimpleQuotient, TruncatedVerma, WeightModule
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
    one, zero = K.one(), K.zero()
    mq = WeightModule(g, K, [w0], {w0: (EVEN, ODD)},
                      [{w0: [(w0, [[one, zero], [zero, one]])]},
                       {w0: [(w0, [[zero, one], [one, zero]])]}]
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
    flat = prod.flatten()
    assert phi.parity == 1
    assert phi * phi == GradedMap.identity(K, flat.space) * (-1)
    for g, rho in enumerate(flat.mats):
        sgn = -1 if flat.algebra.space.parity(g) else 1
        assert phi * rho == rho * phi * sgn


def test_combine_matches_dense_sums_and_drops_cancelled_blocks():
    """_combine against sums of the flat matrices, with coefficients above
    Q(i); a combination that cancels leaves no block at all."""
    from queeralg.products import _combine, adjoint_q_module
    from queeralg.hwmod import WeightModule
    K = Tower()
    qd = build_q(K, 2)
    ad = adjoint_q_module(qd)
    s = K.adjoin_sqrt(K.from_int(2))
    flat = ad.flatten().mats
    combos = [[(0, K.one()), (3, s), (8, K.from_int(-2))],
              [(k, s * K.from_int(k + 1)) for k in range(qd.dim)],
              [(5, K.i()), (5, K.zero()), (13, s + K.one())]]
    act = [_combine(ad, terms) for terms in combos]
    got = WeightModule(ad.algebra, K, ad.weights, ad.parities,
                       act + [{}] * (qd.dim - len(act)), qd=qd).flatten()
    for terms, m in zip(combos, got.mats):
        want = GradedMap.zero(K, m.source, m.target)
        for k, c in terms:
            want = want + flat[k] * c
        assert m.rows == want.rows
    assert _combine(ad, [(4, s), (4, -s)]) == {}
    assert all(rows for blks in act[0].values() for _, rows in blks)


def test_solve_columns_check_is_exact_on_every_row(monkeypatch):
    """The exact check after the solver reads every row of emb x, at tower
    height 1 as well: a solution that is wrong in the last row only is
    rejected."""
    import queeralg.products as products
    K = Tower()
    s = K.adjoin_sqrt(K.from_int(3))
    one, zero = K.one(), K.zero()
    emb = [[one, zero], [zero, s], [s, one]]
    x = [K.from_int(2), s + one]
    img = [[sum((e * v for e, v in zip(row, x)), zero)] for row in emb]
    assert products._solve_columns(emb, img, K) == [[x[0]], [x[1]]]
    img[2][0] = img[2][0] + one
    monkeypatch.setattr(products, "solve_columns",
                        lambda rows, rhs, n, tower: [list(x)])
    with pytest.raises(AssertionError, match="leaves the subspace"):
        products._solve_columns(emb, img, K)
