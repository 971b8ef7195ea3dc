import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from queeralg.cartanmod import CartanAlgebra, PsiFunctional
from queeralg.cli import main
from queeralg.coeffalg import preset_base_field, preset_truncated, zero_ideal
from queeralg.graded import EVEN, Span
from queeralg.hwmod import (WeightModule, check_psi0_ideal, is_irreducible_hw,
                            simple_quotient, top_psi, triangular_of_map,
                            verma)
from queeralg.mapsuper import tensor_lie
from queeralg.products import (adjoint_q_module, direct_sum_weight, ev_module,
                               is_isomorphic_weight, tensor_same_algebra,
                               trivial_q_module)
from queeralg.queer import build_q
from queeralg.scalars import Tower


@pytest.fixture(scope="module")
def setup():
    K = Tower()
    q2 = build_q(K, 2)
    A1 = preset_base_field(K)
    A2 = preset_truncated(K, [K.zero(), K.zero(), K.one()], [(K.zero(), 2)])
    Atwo = preset_truncated(K, [-K.one(), K.zero(), K.one()],
                            [(K.one(), 1), (-K.one(), 1)])
    return {
        "K": K, "q2": q2,
        "C": (A1, tensor_lie(q2, A1), CartanAlgebra(q2, A1)),
        "dual": (A2, tensor_lie(q2, A2), CartanAlgebra(q2, A2)),
        "two": (Atwo, tensor_lie(q2, Atwo), CartanAlgebra(q2, Atwo)),
    }


def pbw_count_oracle(lower_weights, beta):
    """Independent PBW monomial count: brute force over even multiplicity
    vectors and odd subsets (evens listed first in lower_weights)."""
    n_even = len(lower_weights) // 2
    evens = lower_weights[:n_even]
    odds = lower_weights[n_even:]
    total = 0
    for odd_mask in range(1 << len(odds)):
        wt = [0] * len(beta)
        for k in range(len(odds)):
            if odd_mask >> k & 1:
                wt = [a + b for a, b in zip(wt, odds[k])]
        rem = [b - w for b, w in zip(beta, wt)]
        if any(r < 0 for r in rem):
            continue
        h = sum(rem)
        count = 0
        for mults in itertools.product(range(h + 1), repeat=len(evens)):
            tot = [0] * len(beta)
            for m, w in zip(mults, evens):
                tot = [a + m * b for a, b in zip(tot, w)]
            if tot == rem:
                count += 1
        total += count
    return total


def test_depth_zero_is_H(setup):
    K = setup["K"]
    _, ms, ctx = setup["C"]
    psi = PsiFunctional(ctx, [K.from_int(5), K.from_int(3)])
    vm = verma(ms, psi, 0)
    dims = vm.dims_by_weight()
    assert dims == {(0, 0): vm.h_mod.dim}


def test_depth_one_dims_base_field(setup):
    K = setup["K"]
    _, ms, ctx = setup["C"]
    psi = PsiFunctional(ctx, [K.from_int(5), K.from_int(3)])
    vm = verma(ms, psi, 1)
    dims = vm.dims_by_weight()
    # one even + one odd lowering generator per simple root
    assert dims[(1, 0)] == 2 * vm.h_mod.dim
    assert dims[(0, 1)] == 2 * vm.h_mod.dim


def test_depth_one_dims_dual_numbers(setup):
    K = setup["K"]
    _, ms, ctx = setup["dual"]
    psi = PsiFunctional(ctx, [K.from_int(5), K.from_int(3), K.one(), K.zero()])
    vm = verma(ms, psi, 1)
    dims = vm.dims_by_weight()
    assert dims[(1, 0)] == 4 * vm.h_mod.dim
    assert dims[(0, 1)] == 4 * vm.h_mod.dim


@pytest.mark.parametrize("which,depth", [("C", 4), ("dual", 4)])
def test_pbw_dimension_law(setup, which, depth):
    K = setup["K"]
    _, ms, ctx = setup[which]
    psi = PsiFunctional(ctx, [K.from_int(2 + k) for k in range(ctx.n_even)])
    vm = verma(ms, psi, depth)
    lower_weights = [vm.low_coords[p] for p in range(len(vm.lowering))]
    for beta, d in vm.dims_by_weight().items():
        assert d == pbw_count_oracle(lower_weights, beta) * vm.h_mod.dim


def test_verma_relations_within_window(setup):
    # bracket relations on generator pairs, checked on blocks whose source
    # and both compositions stay inside the window
    import random
    K = setup["K"]
    _, ms, ctx = setup["C"]
    psi = PsiFunctional(ctx, [K.one(), K.one()])
    vm = verma(ms, psi, 3)
    rng = random.Random(7)
    alg = ms.algebra
    pairs = [(rng.randrange(alg.dim), rng.randrange(alg.dim)) for _ in range(40)]
    for i, j in pairs:
        for beta in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            bi = vm.block(j, beta)
            if bi is None:
                continue
            mid, mat_j = bi
            b2 = vm.block(i, mid)
            if b2 is None:
                continue
            tgt, mat_i = b2
            from queeralg.graded import mat_mul
            lhs = mat_mul(mat_i, mat_j, K)
            bj = vm.block(i, beta)
            if bj is None:
                continue
            mid2, mat_i2 = bj
            b3 = vm.block(j, mid2)
            if b3 is None:
                continue
            tgt2, mat_j2 = b3
            if tgt2 != tgt:
                continue
            sgn = -1 if (alg.space.parity(i) and alg.space.parity(j)) else 1
            rhs = mat_mul(mat_j2, mat_i2, K)
            acc = [[a - (b if sgn > 0 else -b) for a, b in zip(ra, rb)]
                   for ra, rb in zip(lhs, rhs)]
            # compare to the bracket action
            br = alg.bk[i][j]
            expect = None
            for g, c in br.items():
                bg = vm.block(g, beta)
                if bg is None:
                    continue
                t3, m3 = bg
                assert t3 == tgt
                scaled = [[c * v for v in row] for row in m3]
                expect = scaled if expect is None else \
                    [[a + b for a, b in zip(ra, rb)]
                     for ra, rb in zip(expect, scaled)]
            if expect is None:
                expect = [[K.zero()] * len(acc[0]) for _ in acc]
            assert all(x == y for ra, rb in zip(acc, expect)
                       for x, y in zip(ra, rb))


def test_singular_vectors_verma_top(setup):
    K = setup["K"]
    _, ms, ctx = setup["C"]
    psi = PsiFunctional(ctx, [K.from_int(5), K.from_int(3)])
    vm = verma(ms, psi, 0)
    assert vm.singular_dims()[(0, 0)] == vm.h_mod.dim


def test_singular_vectors_adjoint_module(setup):
    K = setup["K"]
    q2 = setup["q2"]
    _, ms, _ = setup["C"]
    ad = adjoint_q_module(q2)
    adA = ev_module(ms, 0, ad)
    sing = adA.singular_spaces(ms.raising_gens)
    top = q2.roots.root_tuple((1, 3))
    for w, vecs in sing.items():
        if w == top:
            assert len(vecs) == 2
        else:
            assert vecs == []


def test_adjoint_recovered_from_verma(setup):
    K = setup["K"]
    q2 = setup["q2"]
    _, ms, ctx = setup["C"]
    psi = PsiFunctional(ctx, [K.one(), K.one()])
    sq = simple_quotient(ms, psi)  # default depth n(n+1) = 6
    assert sq.conclusive
    mod = sq.module
    assert mod.dim == 16
    # exact representation: flatten and sweep all bracket relations
    mod.flatten().check()
    # isomorphic to the adjoint representation pulled back along ev
    adA = ev_module(ms, 0, adjoint_q_module(q2))
    ok, _ = is_isomorphic_weight(mod, adA)
    assert ok


def test_trivial_quotient(setup):
    K = setup["K"]
    _, ms, ctx = setup["C"]
    sq = simple_quotient(ms, PsiFunctional.zero(ctx), depth=3)
    assert sq.conclusive and sq.module.dim == 1


def test_inconclusive_flag(setup):
    K = setup["K"]
    _, ms, ctx = setup["C"]
    psi = PsiFunctional(ctx, [K.one(), K.one()])
    sq = simple_quotient(ms, psi, depth=3)  # adjoint needs height 4
    assert not sq.conclusive and sq.module is None


def test_is_irreducible_hw(setup):
    K = setup["K"]
    q2 = setup["q2"]
    _, ms, _ = setup["two"]
    tri = triangular_of_map(ms)
    ad0 = ev_module(ms, 0, adjoint_q_module(q2))
    assert is_irreducible_hw(ad0, tri)
    two = direct_sum_weight(ad0, ad0)
    assert not is_irreducible_hw(two, tri)
    # tensor with NON-disjoint support (same point twice) is reducible
    same = tensor_same_algebra(ad0, ad0)
    assert not is_irreducible_hw(same, tri)
    triv = ev_module(ms, 0, trivial_q_module(q2))
    assert is_irreducible_hw(triv, tri)


@pytest.mark.parametrize("into_lowest_only", [False, True])
def test_generation_clause_fails_without_lowering(setup, into_lowest_only):
    """adjoint@p0 with lowering blocks zeroed keeps the first three
    clauses but its top block no longer generates.  Zeroing only the
    blocks into the lowest weight -theta checks that the Cartan
    generators stay out of the rank: h0 acts on that block by a nonzero
    scalar.  (With every lowering block zeroed they could not fill the
    rank anyway: nothing in the Cartan part reaches the odd zero-weight
    vectors.)"""
    q2 = setup["q2"]
    _, ms, _ = setup["two"]
    tri = triangular_of_map(ms)
    ad0 = ev_module(ms, 0, adjoint_q_module(q2))
    top = ad0.maximal_weights()[0]
    bottom = tuple(-x for x in top)
    assert bottom in ad0.weights
    low = set(tri.lowering)

    def keep(g, w2):
        return g not in low or (into_lowest_only and w2 != bottom)

    act = [{w: [(w2, rows) for (w2, rows) in blocks if keep(g, w2)]
            for w, blocks in ad0.act[g].items()} for g in range(ms.dim)]
    cut = WeightModule(ad0.algebra, ad0.tower, ad0.weights, ad0.parities,
                       act, qd=ad0.qd)
    why = {}
    assert not is_irreducible_hw(cut, tri, why)
    assert why["reason"] == "top block does not generate"


QI = Tower()   # Q(i) only


def closure_dim(m, start, gens):
    """Breadth-first closure of the start block under the generators, on
    flat coordinates: an independent oracle for generated_by_top."""
    idx = m.flat_index()
    images = []  # per generator: source column -> [(target row, value)]
    for g in gens:
        ent = {}
        for w in m.weights:
            for (w2, rows) in m.blocks_of(g, w):
                for r, row in enumerate(rows):
                    for s, v in enumerate(row):
                        if not v.is_zero:
                            ent.setdefault(idx[(w, s)], []).append(
                                (idx[(w2, r)], v))
        images.append(ent)
    sp = Span(QI)
    frontier = [{idx[(start, k)]: QI.one()} for k in range(m.block_dim(start))]
    for vec in frontier:
        sp.add(vec)
    while frontier:
        nxt = []
        for vec in frontier:
            for ent in images:
                img = {}
                for s, c in vec.items():
                    for r, v in ent.get(s, ()):
                        img[r] = img.get(r, QI.zero()) + c * v
                if sp.add(img):
                    nxt.append(img)
        frontier = nxt
    return sp.dim


@st.composite
def chain_modules(draw):
    """Weights lam > lam - alpha > lam - 2 alpha with blocks of dimension
    1..3, and one or two lowering generators acting on both steps by
    small Q(i) blocks (about half the entries zero, so some blocks are)."""
    entry = st.one_of(st.just(QI.zero()),
                      st.builds(QI.from_qi, st.integers(-2, 2),
                                st.integers(-1, 1)))
    lam, alpha = (QI.from_int(2), QI.zero()), (QI.one(), -QI.one())
    ws = [tuple(a - k * b for a, b in zip(lam, alpha)) for k in range(3)]
    dims = [draw(st.integers(1, 3)) for _ in ws]
    act = []
    for _ in range(draw(st.integers(1, 2))):
        act.append({ws[k]: [(ws[k + 1],
                             [[draw(entry) for _ in range(dims[k])]
                              for _ in range(dims[k + 1])])]
                    for k in range(2)})
    parities = {w: (EVEN,) * d for w, d in zip(ws, dims)}
    return WeightModule(None, QI, ws, parities, act), ws[0]


@settings(max_examples=80, deadline=None)
@given(chain_modules())
def test_generated_by_top_matches_closure(data):
    m, top = data
    gens = range(len(m.act))
    assert m.generated_by_top(top, gens) == \
        (closure_dim(m, top, gens) == m.dim)


def test_generated_by_top_rejects_weight_preserving_lowering():
    w = (QI.one(), QI.zero())
    m = WeightModule(None, QI, [w], {w: (EVEN,)}, [{w: [(w, [[QI.one()]])]}])
    with pytest.raises(AssertionError):
        m.generated_by_top(w, [0])


def test_top_psi_reads_functional(setup):
    K = setup["K"]
    q2 = setup["q2"]
    _, ms, ctx = setup["two"]
    ad0 = ev_module(ms, 0, adjoint_q_module(q2))
    psi = top_psi(ad0, ms, ctx)
    assert psi == PsiFunctional.evaluation(ctx, 0, [1, 1])


def test_check_psi0_ideal(setup):
    K = setup["K"]
    q2 = setup["q2"]
    A, ms, ctx = setup["two"]
    ad0 = ev_module(ms, 0, adjoint_q_module(q2))
    psi = PsiFunctional.evaluation(ctx, 0, [1, 1])
    # psi killed by (t-1), and q (x) (t-1) kills the module
    r = check_psi0_ideal(ad0, psi, A.maximal_ideals[0], ms)
    assert r["psi_kills_ideal"] and r["ideal_acts_zero"] and r["equivalent"]
    # the other maximal ideal fails on both sides
    r2 = check_psi0_ideal(ad0, psi, A.maximal_ideals[1], ms)
    assert not r2["psi_kills_ideal"] and not r2["ideal_acts_zero"]
    assert r2["equivalent"]
    # the zero ideal trivially passes both
    r3 = check_psi0_ideal(ad0, psi, zero_ideal(A), ms)
    assert r3["psi_kills_ideal"] and r3["ideal_acts_zero"]


def test_truncated_vpsi_matches_ev_dims(setup):
    # two-point evaluation psi with adjoint weight at each point: the
    # truncated quotient dims per weight match the hat evaluation module
    K = setup["K"]
    q2 = setup["q2"]
    A, ms, ctx = setup["two"]
    from queeralg.products import Catalog, ev_hat
    cat = Catalog(q2)
    mod, _ = ev_hat(ms, {0: "adjoint", 1: "adjoint"}, cat)
    psi = PsiFunctional.evaluation(ctx, 0, [1, 1]) + \
        PsiFunctional.evaluation(ctx, 1, [1, 1])
    sq = simple_quotient(ms, psi, depth=2)
    lam = psi.restriction_to_q()
    for beta, d in sq.quot_dims.items():
        if sum(beta) > 2:
            continue
        w = sq.verma.weight_tuple(beta)
        assert d == mod.block_dim(w)


def test_dims_q3_psi_2_m1_1_completes(tmp_path):
    """The simple quotient at psi = (2, -1, 1) used to stop on a pivot
    column left in a reduced residual; every induced dimension is the PBW
    count times dim H = 4 (Clifford rank 3)."""
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"values": [["h1", "1", "2"], ["h2", "1", "-1"],
                                          ["h3", "1", "1"]]}))
    out = tmp_path / "dims.json"
    assert main(["dims", "--n", "3", "--psi", str(psi), "--depth", "3",
                 "--format", "structured", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["highest_weight_dim"] == 4
    # positive roots of A_3 in simple-root coordinates, once even, once odd
    roots = [tuple(1 if i <= k <= j else 0 for k in range(3))
             for i in range(3) for j in range(i, 3)]
    assert rep["rows"]
    for row in rep["rows"]:
        beta = row["weight_coords"]
        assert row["induced_dim"] == pbw_count_oracle(roots + roots, beta) * 4
        assert 0 <= row["simple_dim"] <= row["induced_dim"]
