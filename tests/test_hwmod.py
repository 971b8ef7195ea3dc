import itertools
import json

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from queeralg.assocsuper import density_type_from_maps
from queeralg.cartanmod import CartanAlgebra, PsiFunctional, build_H
from queeralg import hwmod
from queeralg.cli import main
from queeralg.coeffalg import preset_base_field, preset_truncated, zero_ideal
from cartan_blocks import cartan_block_module, top_block
from classify_ref import row_module
from dense_ref import mat_mul, rank, sparse
from queeralg.graded import (EVEN, Span, mat_kernel, nonzero_entries,
                             zero_rows)
from queeralg.hwmod import (SimpleQuotient, TruncatedVerma, _sum_terms,
                            check_psi0_ideal, is_irreducible_hw,
                            simple_quotient, top_psi)
from queeralg.liesuper import (WeightModule, direct_sum_weight,
                               is_isomorphic_weight)
from queeralg.mapsuper import tensor_lie
from queeralg.products import (Catalog, adjoint_q_module, ev_pullback,
                               hat_tensor_weight, tensor_same_algebra,
                               trivial_q_module, weight_schur_data)
from queeralg.queer import build_q
from queeralg.scalars import QI_ONE, Tower, raw_neg, scalar_of


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
    vm = TruncatedVerma(ms, psi, 0)
    dims = vm.dims_by_weight()
    assert dims == {(0, 0): vm.h_mod.dim}


def test_depth_one_dims_base_field(setup):
    K = setup["K"]
    _, ms, ctx = setup["C"]
    psi = PsiFunctional(ctx, [K.from_int(5), K.from_int(3)])
    vm = TruncatedVerma(ms, psi, 1)
    dims = vm.dims_by_weight()
    # one even + one odd lowering generator per simple root
    assert dims[(1, 0)] == 2 * vm.h_mod.dim
    assert dims[(0, 1)] == 2 * vm.h_mod.dim


def test_depth_one_dims_dual_numbers(setup):
    K = setup["K"]
    _, ms, ctx = setup["dual"]
    psi = PsiFunctional(ctx, [K.from_int(5), K.from_int(3), K.one(), K.zero()])
    vm = TruncatedVerma(ms, psi, 1)
    dims = vm.dims_by_weight()
    assert dims[(1, 0)] == 4 * vm.h_mod.dim
    assert dims[(0, 1)] == 4 * vm.h_mod.dim


@pytest.mark.parametrize("which,depth", [("C", 4), ("dual", 4)])
def test_pbw_dimension_law(setup, which, depth):
    K = setup["K"]
    _, ms, ctx = setup[which]
    psi = PsiFunctional(ctx, [K.from_int(2 + k) for k in range(ctx.n_even)])
    vm = TruncatedVerma(ms, psi, depth)
    lower_weights = [vm.low_coords[p] for p in range(len(vm.lowering))]
    for beta, d in vm.dims_by_weight().items():
        assert d == pbw_count_oracle(lower_weights, beta) * vm.h_mod.dim


@pytest.mark.parametrize("which", ["C", "dual", "q3"])
def test_pbw_basis_matches_brute_force(setup, which):
    """The basis at every weight is the sorted list of PBW monomials of
    that weight (evens nondecreasing, then odds strictly increasing),
    each with every vector of H(psi) in turn."""
    if which == "q3":
        K, ms, ctx = _qn_setup(3)
    else:
        K = setup["K"]
        _, ms, ctx = setup[which]
    psi = PsiFunctional(ctx, [K.from_int(2 + k) for k in range(ctx.n_even)])
    vm = TruncatedVerma(ms, psi, 4)
    coords, n_even = vm.low_coords, vm.n_even_low
    evens, odds = range(n_even), range(n_even, len(coords))

    def weight(mono):
        return tuple(sum(coords[p][k] for p in mono) for k in range(ctx.n))

    for beta in vm.basis:
        h = sum(beta)
        monos = sorted(
            ev + od
            for k in range(h + 1) for l in range(h + 1 - k)
            for ev in itertools.combinations_with_replacement(evens, k)
            for od in itertools.combinations(odds, l)
            if weight(ev + od) == beta)
        assert vm.basis[beta] == [(m, w) for m in monos
                                  for w in range(vm.h_mod.dim)]


def test_verma_relations_within_window(setup):
    K = setup["K"]
    _, ms, ctx = setup["C"]
    psi = PsiFunctional(ctx, [K.one(), K.one()])
    assert check_verma_relations(TruncatedVerma(ms, psi, 3),
                                 [(0, 0), (1, 0), (0, 1), (1, 1)], 40)


def test_verma_relations_within_window_q3_rank3():
    """Clifford rank 3: the odd Cartan generators act on H(psi) by
    nonscalar operators, so the Cartan terms of the straightening are
    exercised."""
    K, ms, ctx = _qn_setup(3)
    vm = TruncatedVerma(
        ms, PsiFunctional(ctx, [K.from_int(v) for v in (2, 1, 0)]), 3)
    assert vm.h_mod.rank == 3
    low = [b for b in vm.basis if sum(b) <= 1]
    cartan = ms.algebra.triangular[1]
    # every pair (Cartan generator, generator), and random pairs besides
    assert check_verma_relations(vm, low, 60, [(i, j) for i in cartan
                                               for j in range(ms.dim)])


def check_verma_relations(vm, betas, n_random, pairs=()):
    """Bracket relations on generator pairs, checked on blocks whose
    source and both compositions stay inside the window; returns the
    number of relations checked."""
    import random
    K = vm.tower
    rng = random.Random(7)
    alg = vm.ms.algebra
    pairs = list(pairs) + [(rng.randrange(alg.dim), rng.randrange(alg.dim))
                           for _ in range(n_random)]
    checked = 0
    for i, j in pairs:
        for beta in betas:
            bi = dense_block(vm, j, beta)
            if bi is None:
                continue
            mid, mat_j = bi
            b2 = dense_block(vm, i, mid)
            if b2 is None:
                continue
            tgt, mat_i = b2
            lhs = mat_mul(mat_i, mat_j, K)
            bj = dense_block(vm, i, beta)
            if bj is None:
                continue
            mid2, mat_i2 = bj
            b3 = dense_block(vm, j, mid2)
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
                bg = dense_block(vm, g, beta)
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
            checked += 1
    return checked


def test_singular_vectors_verma_top(setup):
    K = setup["K"]
    _, ms, ctx = setup["C"]
    psi = PsiFunctional(ctx, [K.from_int(5), K.from_int(3)])
    vm = TruncatedVerma(ms, psi, 0)
    assert oracle_singular_dims(vm)[(0, 0)] == vm.h_mod.dim
    assert SimpleQuotient(vm).singular_dims[(0, 0)] == vm.h_mod.dim


def test_singular_vectors_adjoint_module(setup):
    K = setup["K"]
    q2 = setup["q2"]
    _, ms, _ = setup["C"]
    ad = adjoint_q_module(q2)
    adA = ev_pullback(ms, 0, ad)
    sing = adA.singular_spaces(ms.algebra.triangular[0])
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
    # exact representation: sweep all bracket relations
    mod.check()
    # isomorphic to the adjoint representation pulled back along ev
    adA = ev_pullback(ms, 0, adjoint_q_module(q2))
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
    ad0 = ev_pullback(ms, 0, adjoint_q_module(q2))
    assert is_irreducible_hw(ad0)
    two = direct_sum_weight(ad0, ad0)
    assert not is_irreducible_hw(two)
    # tensor with NON-disjoint support (same point twice) is reducible
    same = tensor_same_algebra(ad0, ad0)
    assert not is_irreducible_hw(same)
    triv = ev_pullback(ms, 0, trivial_q_module(q2))
    assert is_irreducible_hw(triv)


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
    ad0 = ev_pullback(ms, 0, adjoint_q_module(q2))
    top = ad0.maximal_weights()[0]
    bottom = tuple(-x for x in top)
    assert bottom in ad0.weights
    low = set(ms.algebra.triangular[2])

    def keep(g, w2):
        return g not in low or (into_lowest_only and w2 != bottom)

    act = [{w: [(w2, rows) for (w2, rows) in blocks if keep(g, w2)]
            for w, blocks in ad0.act[g].items()} for g in range(ms.dim)]
    cut = WeightModule(ad0.algebra, ad0.tower, ad0.weights, ad0.parities,
                       act, qd=ad0.qd)
    why = {}
    assert not is_irreducible_hw(cut, why)
    assert why["reason"] == "top block does not generate"



def _reason(m):
    why = {}
    assert not is_irreducible_hw(m, why)
    return why["reason"]


def test_zero_module_is_refused(setup):
    q2 = setup["q2"]
    zero = WeightModule(q2.algebra, setup["K"], [], {},
                        [{} for _ in range(q2.dim)], qd=q2)
    assert _reason(zero) == "zero module"


def test_two_maximal_weights_are_refused(setup):
    """trivial (+) V(2, 1) over q(2): (2, 1) is not in the root lattice,
    so 0 and (2, 1) are both maximal.  V(2, 1) is the conclusive simple
    quotient at depth 8, re-pointed at q by Catalog.add."""
    K, q2 = setup["K"], setup["q2"]
    _, ms, ctx = setup["C"]
    sq = simple_quotient(ms, PsiFunctional(ctx, [K.from_int(2), K.one()]),
                         depth=8)
    assert sq.conclusive and sq.module.dim == 48
    cat = Catalog(q2)
    cat.add("V(2, 1)", sq.module)
    m = direct_sum_weight(cat.module("trivial"), cat.module("V(2, 1)"))
    assert set(m.maximal_weights()) == {(K.zero(), K.zero()),
                                        (K.from_int(2), K.one())}
    assert _reason(m) == "several maximal weights"


def test_top_block_not_singular_is_refused(setup):
    """Hand-built blocks: a raising generator maps the one-dimensional
    top block to itself.  (In a genuine module it maps the top block to
    a weight above the top, so no genuine module reaches this clause.)"""
    K, q2 = setup["K"], setup["q2"]
    w0 = (K.zero(), K.zero())
    act = [{} for _ in range(q2.dim)]
    act[q2.algebra.triangular[0][0]] = {w0: [(w0, {(0, 0): K.one()})]}
    m = WeightModule(q2.algebra, K, [w0], {w0: (EVEN,)}, act, qd=q2)
    assert _reason(m) == "top block not singular"


QI = Tower()   # Q(i) only


def closure_dim(m, start, gens):
    """Breadth-first closure of the start block under the generators, on
    flat coordinates: an independent oracle for generated_by_top."""
    idx = m.flat_index()
    images = []  # per generator: source column -> [(target row, value)]
    for g in gens:
        ent = {}
        for w in m.weights:
            for (w2, blk) in m.blocks_of(g, w):
                for (r, s), v in blk.items():
                    ent.setdefault(idx[(w, s)], []).append((idx[(w2, r)], v))
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
    small Q(i) blocks (about half the entries zero, so some blocks are,
    and those are left out)."""
    entry = st.one_of(st.just(QI.zero()),
                      st.builds(QI.from_qi, st.integers(-2, 2),
                                st.integers(-1, 1)))
    lam, alpha = (QI.from_int(2), QI.zero()), (QI.one(), -QI.one())
    ws = [tuple(a - k * b for a, b in zip(lam, alpha)) for k in range(3)]
    dims = [draw(st.integers(1, 3)) for _ in ws]
    act = []
    for _ in range(draw(st.integers(1, 2))):
        blocks = {}
        for k in range(2):
            blk = nonzero_entries([[draw(entry) for _ in range(dims[k])]
                                   for _ in range(dims[k + 1])])
            if blk:
                blocks[ws[k]] = [(ws[k + 1], blk)]
        act.append(blocks)
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
    m = WeightModule(None, QI, [w], {w: (EVEN,)},
                     [{w: [(w, {(0, 0): QI.one()})]}])
    with pytest.raises(AssertionError):
        m.generated_by_top(w, [0])


def test_generated_by_top_reads_only_the_weights_it_tests(setup):
    """A weight's lowering-image columns are made only when its rank is
    read: on adjoint@p0 with the lowering blocks into one middle weight
    removed, the test fails there, and the entries of no lowering block
    into a later weight are read."""
    q2 = setup["q2"]
    _, ms, _ = setup["two"]
    ad0 = ev_pullback(ms, 0, adjoint_q_module(q2))
    top = ad0.maximal_weights()[0]
    below = [w for w in ad0.weights if w != top]
    cut = below[len(below) // 2]
    read = []

    class Entries(dict):
        def items(self):
            read.append(self.target)
            return super().items()

    def wrap(w2, blk):
        out = Entries(blk)
        out.target = w2
        return w2, out
    low = set(ms.algebra.triangular[2])
    act = [{w: [wrap(w2, blk) for w2, blk in blocks if w2 != cut]
            for w, blocks in ad0.act[g].items()} if g in low else ad0.act[g]
           for g in range(ms.dim)]
    m = WeightModule(ad0.algebra, ad0.tower, ad0.weights, ad0.parities, act,
                     qd=ad0.qd)
    assert not m.generated_by_top(top, ms.algebra.triangular[2])
    tested = below[:below.index(cut)]
    assert read and set(read) == set(tested)


def test_top_psi_reads_functional(setup):
    K = setup["K"]
    q2 = setup["q2"]
    _, ms, ctx = setup["two"]
    ad0 = ev_pullback(ms, 0, adjoint_q_module(q2))
    psi = top_psi(ad0, ms, ctx)
    assert psi == PsiFunctional.evaluation(ctx, 0, [1, 1])


def _criterion_corpus(setup):
    """The corpus on which verify checks the criterion against the density
    oracle: evaluation modules over two points, and two sums, with the
    verdict each should get."""
    q2 = setup["q2"]
    _, ms, _ = setup["two"]
    ad0 = ev_pullback(ms, 0, adjoint_q_module(q2))
    triv = ev_pullback(ms, 0, trivial_q_module(q2))
    return {"trivial": (triv, True), "adjoint@p0": (ad0, True),
            "adjoint@p1": (ev_pullback(ms, 1, adjoint_q_module(q2)), True),
            "adjoint (+) trivial": (direct_sum_weight(ad0, triv), False),
            "adjoint (+) adjoint": (direct_sum_weight(ad0, ad0), False)}


def test_criterion_makes_no_oracle_call(setup, refuse_oracles):
    """Clause 3 reads the Clifford rank, so with every binding of the
    density oracle and of the odd Schur solve refusing, the criterion
    still gives every verdict of the corpus."""
    for name, (m, expect) in _criterion_corpus(setup).items():
        assert is_irreducible_hw(m) == expect, name


def _rank_rule_corpus(setup):
    """name -> (module, its ms and ctx, or None): modules whose top block
    the rank rule is checked on.  The ms and ctx of a module whose
    functional top_psi reads back."""
    K, q2 = setup["K"], setup["q2"]
    _, ms_c, ctx_c = setup["C"]
    _, ms2, ctx2 = setup["two"]
    q3 = build_q(K, 3)
    base3 = preset_base_field(K)
    ms3, ctx3 = tensor_lie(q3, base3), CartanAlgebra(q3, base3)
    out = {}
    for n in (2, 3, 4):
        cat = Catalog(q2 if n == 2 else q3 if n == 3 else build_q(K, n))
        for name in cat.names():
            out[f"q({n}) {name}"] = (cat.module(name), None)
    ad = adjoint_q_module(q2)
    out["adjoint (+) trivial"] = (direct_sum_weight(ad, trivial_q_module(q2)),
                                  None)
    for vals, depth in (((1, 1), 6), ((1, 2), 8), ((2, 1), 8)):
        sq = simple_quotient(ms_c, PsiFunctional(
            ctx_c, [K.from_int(v) for v in vals]), depth)
        out[f"V{vals}"] = (sq.module, (ms_c, ctx_c))
    sq = simple_quotient(ms3, PsiFunctional(
        ctx3, [K.one(), K.zero(), K.one()]), 9)
    out["V(1, 0, 1)"] = (sq.module, (ms3, ctx3))
    ad0, ad1 = (ev_pullback(ms2, p, ad) for p in (0, 1))
    s = weight_schur_data(ad)
    out["adjoint@p0"] = (ad0, (ms2, ctx2))
    out["adjoint@p0 (x) adjoint@p1"] = (hat_tensor_weight(ad0, ad1, s, s)[0],
                                        (ms2, ctx2))
    out["adjoint@p0 (+) adjoint@p0"] = (direct_sum_weight(ad0, ad0), None)
    return out


def _rank_rule(m):
    """(verdict, Clifford rank) of the rank rule on m's one block."""
    why = {}
    return is_irreducible_hw(m, why), why.get("clifford_rank")


def _oracle(m):
    return density_type_from_maps(m.mats, m.space, m.tower)


def test_rank_rule_matches_the_density_oracle_on_top_blocks(setup):
    """On the top block of every module of the corpus, the rank rule's
    verdict is the density oracle's, and an odd rank is its QComm.  Each
    simple quotient and evaluation product is irreducible with the rank
    of the CliffordData of the functional top_psi reads.  The reducible
    top block of adjoint@p0 (+) adjoint@p0 has dimension 4 at rank 2."""
    corpus = _rank_rule_corpus(setup)
    for name, (m, read_back) in corpus.items():
        top = top_block(m)
        (verdict, r), oracle = _rank_rule(top), _oracle(top)
        assert verdict == oracle.certifies_irreducible, name
        assert not verdict or (r % 2 == 1) == (oracle.kind == "qcomm"), name
        if read_back is not None:
            why = {}
            assert is_irreducible_hw(m, why), name
            assert why["clifford_rank"] == \
                top_psi(m, *read_back).clifford_data.rank == r, name
    m, _ = corpus["adjoint@p0 (+) adjoint@p0"]
    assert top_block(m).dim == 4 and _rank_rule(top_block(m)) == (False, 2)


@pytest.mark.parametrize("n,which,values", [
    (2, "C", (1, 0)), (2, "dual", (1, 1, 0, 1)), (2, "two", (1, 2, 0, 1)),
    (3, "C", (-1, -1, -1)), (3, "C", (-1, -1, 0)), (3, "C", (2, -1, 1)),
    (3, "dual", (-1, -1, -1, -1, -1, 1)),
    (3, "dual", (-1, -1, -1, -1, -1, 0))])
def test_rank_rule_on_cartan_modules(setup, n, which, values):
    """H(psi) over h (x) A (Clifford ranks 2 to 6), alone and doubled: the
    rank rule certifies H(psi), of dimension 2^ceil(r/2), at the rank r
    of its CliffordData, and types it Q (a phi from the solve) exactly at
    odd r, as the density oracle does; H (+) H, of the same rank, is
    refused, and so is H(psi) (+) H(psi') for psi' != psi, whose even
    part acts by no scalar."""
    K = setup["K"]
    qd = setup["q2"] if n == 2 else build_q(K, 3)
    ctx = CartanAlgebra(qd, setup[which][0])
    psi = PsiFunctional(ctx, [K.from_int(v) for v in values])
    other = PsiFunctional(ctx, [K.from_int(v + 1) for v in values])
    h, r = build_H(psi), psi.clifford_data.rank
    m = cartan_block_module(h, qd)
    assert h.dim == 2 ** ((r + 1) // 2)
    assert _rank_rule(m) == (True, r)
    assert _oracle(m).kind == ("qcomm" if r % 2 else "full")
    assert weight_schur_data(m).is_type_q == (r % 2 == 1)
    twice = direct_sum_weight(m, m)
    pair = direct_sum_weight(m, cartan_block_module(build_H(other), qd))
    assert _rank_rule(twice) == (False, r)
    assert _rank_rule(pair) == (False, None)
    assert not _oracle(twice).certifies_irreducible
    assert not _oracle(pair).certifies_irreducible


def test_check_psi0_ideal(setup):
    K = setup["K"]
    q2 = setup["q2"]
    A, ms, ctx = setup["two"]
    ad0 = ev_pullback(ms, 0, adjoint_q_module(q2))
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
    from queeralg.products import Catalog
    cat = Catalog(q2)
    mod, _ = row_module(ms, {0: "adjoint", 1: "adjoint"}, cat)
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


# ---------------------------------------------------------------------------
# Reference simple quotient: dense residual matrices multiplied into every
# raising block, and the singular dimensions from a fresh elimination of
# the stacked raising blocks.  SimpleQuotient must agree with it exactly.
# ---------------------------------------------------------------------------


def dense_block(vm, g, beta):
    """vm.block(g, beta) as (target, dense rows of Scalars), or None."""
    blk = vm.block(g, beta)
    if blk is None:
        return None
    tgt, cols = blk
    rows = zero_rows(vm.tower, len(vm.basis[tgt]), len(cols))
    for c, col in enumerate(cols):
        for t, x in col.items():
            rows[t][c] = scalar_of(vm.tower, x)
    return tgt, rows


def oracle_singular_dims(vm):
    out = {}
    for beta in vm.basis:
        d = len(vm.basis[beta])
        rows = []
        for g in vm.ms.algebra.triangular[0]:
            blk = dense_block(vm, g, beta)
            if blk is not None:
                rows.extend(blk[1])
        out[beta] = d - rank(rows, d, vm.tower)
    return out


class ResidualQuotient:
    def __init__(self, vm):
        self.verma = vm
        tower = vm.tower
        n = vm.qd.n
        betas = sorted(vm.basis, key=lambda b: (sum(b), b))
        nsub, residual, quot_dims, free_cols = {}, {}, {}, {}
        for beta in betas:
            d = len(vm.basis[beta])
            if sum(beta) == 0:
                nsub[beta] = []
            else:
                rows = []
                for g in vm.ms.algebra.triangular[0]:
                    blk = dense_block(vm, g, beta)
                    if blk is None:
                        continue
                    tgt, mat = blk
                    rmat = residual[tgt]
                    if rmat is None:
                        continue  # target quotient is zero: no constraint
                    rows.extend(mat_mul(rmat, mat, tower))
                nsub[beta] = mat_kernel([sparse(r) for r in rows], d, tower)
            sp = Span(tower, nsub[beta])
            free = [c for c in range(d) if c not in sp.rows]
            quot_dims[beta] = len(free)
            free_cols[beta] = free
            if not free:
                residual[beta] = None
                continue
            pos = {c: t for t, c in enumerate(free)}
            rrows = zero_rows(tower, len(free), d)
            for c in range(d):
                for k, v in sp.reduce({c: tower.one()}).items():
                    rrows[pos[k]][c] = v
            residual[beta] = rrows
        self.nsub = nsub
        self.quot_dims = quot_dims
        self.residual = residual
        self.free_cols = free_cols
        self.singular_dims = oracle_singular_dims(vm)
        heights = {h: sum(quot_dims[b] for b in betas if sum(b) == h)
                   for h in range(vm.depth + 1)}
        band_at = None
        for h0 in range(1, vm.depth - n + 2):
            if all(heights.get(h0 + t, None) == 0 for t in range(n)):
                band_at = h0
                break
        self.conclusive = band_at is not None
        self.band_start = band_at
        self.module = self._assemble() if self.conclusive else None

    def _assemble(self):
        vm = self.verma
        tower = vm.tower
        betas = [b for b in vm.basis
                 if self.quot_dims.get(b, 0) > 0 and sum(b) < self.band_start]
        weights, parities = {}, {}
        for beta in betas:
            w = vm.weight_tuple(beta)
            weights[beta] = w
            parities[w] = tuple(vm.mono_parity(*vm.basis[beta][c])
                                for c in self.free_cols[beta])
        act = []
        for g in range(vm.ms.dim):
            blocks = {}
            for beta in betas:
                blk = dense_block(vm, g, beta)
                if blk is None:
                    continue
                tgt, mat = blk
                if tgt not in weights:
                    continue
                sub = [[row[c] for c in self.free_cols[beta]] for row in mat]
                red = nonzero_entries(mat_mul(self.residual[tgt], sub, tower))
                if red:
                    blocks[weights[beta]] = [(weights[tgt], red)]
            act.append(blocks)
        return WeightModule(vm.ms.algebra, tower, list(weights.values()),
                            parities, act, qd=vm.qd)


def assert_same_quotient(vm):
    new, ref = SimpleQuotient(vm), ResidualQuotient(vm)
    # R_beta e_c, column c of the stored projection, is the oracle's
    # residual of e_c for every column c of every weight; as N_beta =
    # ker R_beta this pins N_beta down as fully as its RREF rows would
    for beta, rrows in ref.residual.items():
        for c in range(len(vm.basis[beta])):
            want = {} if rrows is None else \
                {f: row[c] for f, row in zip(ref.free_cols[beta], rrows)
                 if not row[c].is_zero}
            assert {f: scalar_of(vm.tower, x)
                    for f, x in new.proj[beta][c]} == want
    assert new.quot_dims == ref.quot_dims
    assert new.free_cols == ref.free_cols
    assert new.singular_dims == ref.singular_dims
    assert new.conclusive == ref.conclusive
    if ref.conclusive:
        a, b = new.module, ref.module
        assert a.weights == b.weights and a.parities == b.parities
        assert a.act == b.act
    return new


def test_simple_quotient_builds_one_span_per_weight(monkeypatch):
    """The work guard of the projection form: one Span per weight of the
    window, and no kernel is read off any of them (hwmod's binding of
    Span counts both)."""
    built, kernels = [], []

    class CountingSpan(Span):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    for name in [k for k in vars(Span) if "kernel" in k]:
        def counted(self, *args, _f=getattr(Span, name)):
            kernels.append(args)
            return _f(self, *args)
        setattr(CountingSpan, name, counted)
    monkeypatch.setattr(hwmod, "Span", CountingSpan)
    K, ms, ctx = _qn_setup(2)
    vm = TruncatedVerma(ms, PsiFunctional(ctx, [K.one(), K.one()]), 6)
    sq = SimpleQuotient(vm)
    assert sq.conclusive and sq.module.dim == 16
    assert kernels == [] and len(built) == len(vm.basis)


def test_verma_keeps_no_blocks_after_the_quotient():
    """Memory guard: what a TruncatedVerma still holds once its
    SimpleQuotient is built and dropped (tracemalloc after gc.collect).
    For q(3) psi = (2, 1, 0) at depth 5 that is 2.7 MB, the PBW basis and
    the straightening memos; it was 5.8 MB while every block was kept for
    the life of the module."""
    import gc
    import tracemalloc
    K, ms, ctx = _qn_setup(3)
    psi = PsiFunctional(ctx, [K.from_int(v) for v in (2, 1, 0)])
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        vm = TruncatedVerma(ms, psi, 5)
        SimpleQuotient(vm)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 4.25e6, held


def _qn_setup(n):
    K = Tower()
    qd = build_q(K, n)
    A = preset_base_field(K)
    return K, tensor_lie(qd, A), CartanAlgebra(qd, A)


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
       st.integers(1, 5))
@example((0, 0), 3)    # trivial: conclusive, band at 1
@example((2, 3), 5)    # tower height 1 (the box reaches no higher)
def test_simple_quotient_matches_residual_oracle_q2(psi_vals, depth):
    K, ms, ctx = _qn_setup(2)
    psi = PsiFunctional(ctx, [K.from_int(v) for v in psi_vals])
    assert_same_quotient(TruncatedVerma(ms, psi, depth))


@settings(max_examples=10, deadline=None)
@given(st.tuples(*[st.integers(-1, 3)] * 3), st.integers(1, 2))
@example((2, 1, 0), 2)     # tower height 1
@example((2, -1, 1), 2)    # tower height 2
def test_simple_quotient_matches_residual_oracle_q3(psi_vals, depth):
    K, ms, ctx = _qn_setup(3)
    psi = PsiFunctional(ctx, [K.from_int(v) for v in psi_vals])
    vm = TruncatedVerma(ms, psi, depth)
    assume(vm.h_mod.dim == 4)   # Clifford rank 3
    assert_same_quotient(vm)


@pytest.mark.parametrize("alg,psi_vals,depth", [
    ("dual", (1, 0, 1, 0), 3),     # adjoint weight at t = 0
    ("dual", (2, 0, 0, 1), 3),     # dim H(psi) = 4
    ("two", (1, 1, 1, 1), 3),      # adjoint weight at t = 1
    ("two", (1, 0, 1, 0), 2),
    ("two", (1, 1, 0, 1), 2),      # tower height 2
    ("two", (0, 0, 0, 0), 2),      # trivial: conclusive, band at 1
])
def test_simple_quotient_matches_residual_oracle_over_algebras(
        setup, alg, psi_vals, depth):
    """dim A = 2: SimpleQuotient imposes only e_{alpha_k} (x) a_j and
    e'_{alpha_k} (x) a_j, the oracle all of n+ (x) A, so a restriction
    that kept too few a_j (or dropped the odd ones) would show here."""
    K = setup["K"]
    _, ms, ctx = setup[alg]
    psi = PsiFunctional(ctx, [K.from_int(v) for v in psi_vals])
    assert_same_quotient(TruncatedVerma(ms, psi, depth))


def test_conclusive_quotient_over_dual_numbers_matches_oracle(setup):
    """The adjoint weight at t = 0 over the dual numbers: V(psi) is the
    evaluation of the 16-dimensional adjoint module, complete at depth 6,
    and its assembled blocks over all of q(2) (x) A match the oracle's."""
    K = setup["K"]
    _, ms, ctx = setup["dual"]
    psi = PsiFunctional(ctx, [K.from_int(v) for v in (1, 0, 1, 0)])
    sq = assert_same_quotient(TruncatedVerma(ms, psi, 6))
    assert sq.conclusive and sq.module.dim == 16


@pytest.mark.parametrize("psi_vals,depth,dim", [
    ((0, 0), 3, 1),      # trivial
    ((1, 1), 6, 16),     # adjoint, band at 5
])
def test_conclusive_quotient_matches_oracle(psi_vals, depth, dim):
    """Conclusive quotients assemble the oracle's module, block by block,
    and have the known dimension."""
    K, ms, ctx = _qn_setup(2)
    psi = PsiFunctional(ctx, [K.from_int(v) for v in psi_vals])
    sq = assert_same_quotient(TruncatedVerma(ms, psi, depth))
    assert sq.conclusive and sq.module.dim == dim
    assert sq.singular_dims[(0, 0)] == sq.verma.h_mod.dim


# ---------------------------------------------------------------------------
# Reference straightening: the whole recursion run once for each vector w_h
# of H(psi), Cartan generators applied to w_h where they reach the empty
# monomial.  Every block of TruncatedVerma must agree with it exactly.
# ---------------------------------------------------------------------------


def per_h_act_on(vm, gen, mono, h, memo):
    """gen * (mono (x) w_h) in the basis, truncated to the window, with
    keys (mono, h) and raw values."""
    key = (gen, mono, h)
    out = memo.get(key)
    if out is not None:
        return out
    if sum(sum(vm.low_coords[p]) for p in mono) + sum(vm.shift[gen]) \
            > vm.depth:
        out = {}
    elif not mono:
        if gen in vm.low_pos:
            out = {((vm.low_pos[gen],), h): QI_ONE}
        elif gen in vm.cartan_pos:
            out = {((), k): v for k, v in vm._cartan[vm.cartan_pos[gen]][h]}
        else:
            out = {}
    else:
        terms = {}
        p, rest = mono[0], mono[1:]
        fp = vm.lowering[p]
        # [gen, f_p] (rest (x) w) term
        for g2, c in vm._bk[gen][fp]:
            for bkey, c2 in per_h_act_on(vm, g2, rest, h, memo).items():
                terms.setdefault(bkey, []).append((c, c2))
        # (-1)^{|gen||f_p|} f_p (gen (rest (x) w)) term
        neg = vm._odd[gen] and vm._odd[fp]
        for (m2, h2), c in per_h_act_on(vm, gen, rest, h, memo).items():
            if neg:
                c = raw_neg(c)
            for m3, c3 in vm._insert_lowering(p, m2).items():
                terms.setdefault((m3, h2), []).append((c, c3))
        out = _sum_terms(terms, vm.tower.gens)
    memo[key] = out
    return out


def assert_blocks_match_per_h_oracle(vm):
    tower = vm.tower
    memo = {}
    checked = 0
    for g in range(vm.ms.dim):
        for beta in vm.basis:
            blk = vm.block(g, beta)
            if blk is None:
                continue
            tgt, cols = blk
            index = vm.basis_index[tgt]
            for (mono, h), col in zip(vm.basis[beta], cols):
                want = {index[k]: scalar_of(tower, x) for k, x in
                        per_h_act_on(vm, g, mono, h, memo).items()}
                assert {t: scalar_of(tower, x) for t, x in col.items()} \
                    == want, (g, beta, mono, h)
            checked += 1
    assert checked


def test_blocks_match_per_h_oracle_dual_numbers_odd_rank():
    """q(2) over the dual numbers with psi(h1 (x) t) a primitive cube
    root of unity: Clifford rank 3, dim H(psi) = 4.  The root needs
    sqrt(-3), so the test has its own tower."""
    K = Tower()
    ms = tensor_lie(build_q(K, 2), preset_truncated(
        K, [K.zero(), K.zero(), K.one()], [(K.zero(), 2)]))
    ctx = CartanAlgebra(ms.qd, ms.coeff)
    omega = (K.adjoin_sqrt(K.from_int(-3)) - K.one()) * K.from_qi(1, 0, 2)
    vm = TruncatedVerma(
        ms, PsiFunctional(ctx, [K.one(), omega, K.zero(), K.one()]), 3)
    assert vm.h_mod.rank == 3 and vm.h_mod.dim == 4
    assert_blocks_match_per_h_oracle(vm)


@pytest.mark.parametrize("psi_vals", [(2, 1, 1), (0, 0, 0)])
def test_blocks_match_per_h_oracle_q3(psi_vals):
    """q(3) at Clifford rank 3, and psi = 0, where H(psi) is trivial."""
    K, ms, ctx = _qn_setup(3)
    vm = TruncatedVerma(
        ms, PsiFunctional(ctx, [K.from_int(v) for v in psi_vals]), 3)
    assert vm.h_mod.dim == (4 if any(psi_vals) else 1)
    assert_blocks_match_per_h_oracle(vm)
